//! End-to-end benchmark of `khist watch` and `khist serve` on seeded
//! keyed input.
//!
//! ```text
//! khist-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --khist <path>
//! ```
//!
//! With `--trace 0` it drives the real binary and reports the end-to-end
//! metrics; with `--trace 1` it replays the same input in-process through
//! the library's public calls with spans around each layer and reports
//! the per-layer metrics. Either way every window the binary printed is
//! checked against an in-process reference, and the last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod child;
mod gen;
mod replay;
mod serve;
mod stats;
mod verify;

use gen::{Input, KeyMix};
use khist::app::{Command, WatchOptions};
use replay::{Feed, Replay};
use stats::{describe, median, percentile, supports};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::{Reference, Verdict};

/// A workload: the input it generates and the front end it drives.
struct Workload {
    name: &'static str,
    /// Why it was chosen and which layer it loads or bypasses.
    why: &'static str,
    /// The analyses the front end runs per window (the replay's batch).
    runs: &'static [&'static str],
    shards: usize,
    /// `khist` arguments; `serve` gets its subcommand and socket flags
    /// from the client.
    args: &'static [&'static str],
    serve: bool,
    /// The key mix, given the run length in seconds.
    mix: fn(f64) -> KeyMix,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "watch-learn",
        why: "default batch on one shard: the greedy learner is ~98% of wall time",
        runs: &["learn", "l2", "uniformity"],
        shards: 1,
        args: &["watch", "-", "--key-field", "0", "--n", "256", "--every", "500", "--json", "--shards", "1"],
        serve: false,
        mix: |_| KeyMix::Interleaved {
            keys: LEARN_KEYS,
            per_key: LEARN_PER_KEY,
        },
    },
    Workload {
        name: "watch-ingest",
        why: "testers only on two shards over 50k Zipf keys: parse, route, shard ingest, tail flush, render; learner bypassed",
        runs: &["l2", "uniformity"],
        shards: 2,
        args: &[
            "watch", "-", "--key-field", "0", "--n", "256", "--every", "500", "--json", "--run",
            "l2,uniformity", "--shards", "2",
        ],
        serve: false,
        mix: |_| KeyMix::Zipf {
            keys: INGEST_KEYS,
            records: INGEST_RECORDS,
        },
    },
    Workload {
        name: "serve-learn",
        why: "default batch through the serve reactor: 4 lockstep keys at a fixed open-loop rate, with STATS/FLEET on a cadence",
        runs: &["learn", "l2", "uniformity"],
        shards: 1,
        args: &["--key-field", "0", "--n", "256", "--every", "500", "--shards", "1"],
        serve: true,
        mix: |seconds| KeyMix::Lockstep {
            keys: SERVE_KEYS,
            records: (SERVE_RATE * seconds) as usize,
        },
    },
];

/// watch-learn: keys, each with three full windows and a half-window tail
/// — few enough that a run takes a few seconds and several fit in one
/// invocation.
const LEARN_KEYS: usize = 12;
const LEARN_PER_KEY: usize = 1750;
/// watch-ingest: Zipf(1.0) keys and records.
const INGEST_KEYS: usize = 50_000;
const INGEST_RECORDS: usize = 3_000_000;
/// serve-learn: streams, and the offered rate in records/s — about half
/// of what one shard sustains with the learner on a 2-core host (4000 to
/// 7000 rec/s), so the reactor idles between bursts of completing
/// windows. At 20 s a run closes 100 windows, enough for their p90.
const SERVE_KEYS: usize = 4;
const SERVE_RATE: f64 = 2500.0;
/// Control requests per serve run: enough that p99 has ten samples
/// beyond it.
const SERVE_CONTROLS: usize = 1100;
/// `khist serve`'s default drain deadline, which sets the replay's batch
/// size at the offered rate.
const SERVE_FLUSH_S: f64 = 0.05;
/// Spawns whose median is `setup_s`.
const SETUP_REPS: usize = 300;
/// The whole invocation must end within 180 s.
const TIME_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    khist: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut khist) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value == "1"),
            "--khist" => khist = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        trace: trace.ok_or("--trace is required")?,
        khist: khist.ok_or("--khist is required")?,
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {}; choose one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Absolute, because `serve` children run inside their socket directory.
    match std::fs::canonicalize(&args.khist) {
        Ok(path) if path.is_file() => args.khist = path.to_string_lossy().into_owned(),
        _ => {
            eprintln!("error: no khist binary at {}", args.khist);
            return ExitCode::from(2);
        }
    }
    child::start_watchdog(TIME_LIMIT);
    let dir = PathBuf::from(".bench_run").join(format!("{}-{}", workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let outcome = run(workload, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((verdict, metrics)) => {
            print_result(workload, &verdict, &metrics);
            ExitCode::SUCCESS
        }
        // The run could not finish (a process failed to start, answer or
        // reproduce the reference): one failed operation, no metrics.
        Err(e) => {
            let mut verdict = Verdict {
                attempted: 1,
                ..Verdict::default()
            };
            verdict.fail(e);
            print_result(workload, &verdict, &[]);
            ExitCode::SUCCESS
        }
    }
}

/// A reported metric: name, value, unit, sample count.
type Metric = (&'static str, f64, &'static str, usize);

fn input_for(workload: &Workload, args: &Args) -> Input {
    Input::generate((workload.mix)(args.seconds), args.seed)
}

fn feed(workload: &Workload, args: &Args) -> Feed {
    if workload.serve {
        Feed::Serve {
            batch: (SERVE_RATE * SERVE_FLUSH_S) as usize,
            control_every: (SERVE_RATE * control_period(args)) as usize,
        }
    } else {
        Feed::Watch
    }
}

fn control_period(args: &Args) -> f64 {
    args.seconds / SERVE_CONTROLS as f64
}

/// Generates the input, computes the reference, and runs the workload in
/// the mode `--trace` asks for.
fn run(workload: &Workload, args: &Args, dir: &Path) -> Result<(Verdict, Vec<Metric>), String> {
    let input = input_for(workload, args);
    println!(
        "workload {} (seed {}, {} cores): {}\ninput: {} records over {} keys; {:.4} of them in complete windows",
        workload.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workload.why,
        input.records.len(),
        input.keys,
        input.complete_share()
    );
    let reference = reference(workload, &input)?;
    println!(
        "reference: {} windows from khist::app::run_watch in-process",
        reference.windows()
    );
    if args.trace {
        traced(workload, args, &input, &reference, dir)
    } else if workload.serve {
        serve_end_to_end(workload, args, &input, &reference, dir)
    } else {
        watch_end_to_end(workload, args, &input, &reference)
    }
}

/// The reference: the input through `khist watch`'s own in-process path,
/// `khist::app::run_watch`, with the options the workload's arguments
/// parse to. serve-learn's flags are parsed as a `watch`, so its check is
/// serve ≡ watch.
fn reference(workload: &Workload, input: &Input) -> Result<Reference, String> {
    let mut argv: Vec<String> = Vec::new();
    if workload.serve {
        argv.extend(["watch", "-", "--json"].map(String::from));
    }
    argv.extend(workload.args.iter().map(|a| a.to_string()));
    let opts = match khist::app::parse_args(&argv)? {
        Command::Watch {
            k,
            eps,
            n,
            seed,
            every,
            window,
            runs,
            json: true,
            key_field,
            shards,
            fleet,
            ..
        } => WatchOptions {
            k,
            eps,
            n,
            seed,
            every,
            sliding: window == "sliding",
            runs,
            json: true,
            key_field,
            shards,
            fleet,
        },
        other => return Err(format!("{argv:?} is not a JSON watch: {other:?}")),
    };
    let mut out = Vec::new();
    khist::app::run_watch(&input.bytes[..], &mut out, &opts)
        .map_err(|e| format!("reference watch: {e}"))?;
    let text = String::from_utf8(out).map_err(|e| format!("reference watch: {e}"))?;
    let reports = verify::parse(text.lines())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Reference::new(reports))
}

/// Spawn → exit on empty input, `SETUP_REPS` times.
fn watch_setup(workload: &Workload, args: &Args, verdict: &mut Verdict) -> Vec<f64> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        verdict.attempted += 1;
        match child::time_empty_run(&args.khist, workload.args) {
            Ok((took, true)) => times.push(took),
            Ok((_, false)) => verdict.fail("setup run exited with an error".into()),
            Err(e) => verdict.fail(format!("setup run: {e}")),
        }
    }
    times
}

/// Runs `khist watch` over the input as many times as fit in `--seconds`
/// (at least once); each run's output is verified.
fn watch_end_to_end(
    workload: &Workload,
    args: &Args,
    input: &Input,
    reference: &Reference,
) -> Result<(Verdict, Vec<Metric>), String> {
    let mut verdict = Verdict::default();
    let setup = watch_setup(workload, args, &mut verdict);
    let closers = input.window_closers();
    let records = input.records.len() as f64;
    let (mut rates, mut cpu_us, mut rss_mb, mut latency_ms) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    loop {
        let (run, parsed) = watch_once(workload, args, input, reference, &mut verdict)?;
        for ((arrived, _), report) in run.lines.iter().zip(&parsed) {
            if let Some(closer) = report.as_ref().ok().and_then(|r| closer_of(r, &closers)) {
                latency_ms.push((arrived - run.handed_at(closer)) * 1e3);
            }
        }
        rates.push(records / run.usage.wall_s);
        cpu_us.push(run.usage.cpu_s / records * 1e6);
        rss_mb.push(run.usage.maxrss_kb as f64 / 1024.0);
        // Stop unless one more run of the mean length still fits.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * (rates.len() + 1) as f64 / rates.len() as f64 > args.seconds {
            break;
        }
    }
    let mut metrics = common_metrics(&rates, &cpu_us, &rss_mb, &setup);
    metrics.extend(window_latency(&latency_ms));
    Ok((verdict, metrics))
}

/// One `khist watch` run over the input, verified against the reference.
fn watch_once(
    workload: &Workload,
    args: &Args,
    input: &Input,
    reference: &Reference,
    verdict: &mut Verdict,
) -> Result<(child::PipedRun, Vec<verify::Parsed>), String> {
    let run = child::run_piped(&args.khist, workload.args, &input.bytes, &input.offsets)
        .map_err(|e| format!("khist watch: {e}"))?;
    verdict.attempted += 1;
    if !run.usage.ok {
        verdict.fail("khist watch exited with an error".into());
    }
    let parsed = verify::parse(run.lines.iter().map(|(_, l)| l.as_str()));
    verdict.absorb(reference.verify(&parsed, input.records.len() as u64));
    Ok((run, parsed))
}

/// The index of the record that completed `report`'s window, for
/// complete windows.
fn closer_of(report: &khist_core::api::WindowReport, closers: &[Vec<usize>]) -> Option<usize> {
    if !report.complete {
        return None;
    }
    let id = gen::key_id(report.stream.as_deref()?)? as usize;
    closers.get(id)?.get(report.window as usize).copied()
}

fn common_metrics(rates: &[f64], cpu_us: &[f64], rss_mb: &[f64], setup: &[f64]) -> Vec<Metric> {
    vec![
        ("records_per_s", median(rates), "rec/s", rates.len()),
        ("cpu_per_record_us", median(cpu_us), "us", cpu_us.len()),
        ("peak_rss_mb", median(rss_mb), "MB", rss_mb.len()),
        ("setup_s", median(setup), "s", setup.len()),
    ]
}

fn window_latency(latency_ms: &[f64]) -> Vec<Metric> {
    let n = latency_ms.len();
    if !supports(n, 90.0) {
        println!("note: window latency p90 rests on {n} windows, fewer than its rule asks");
    }
    println!("window latency: {}", describe(latency_ms, "ms"));
    vec![
        ("window_latency_p50_ms", median(latency_ms), "ms", n),
        (
            "window_latency_p90_ms",
            percentile(latency_ms, 90.0),
            "ms",
            n,
        ),
    ]
}

/// The serve schedule over the generated input.
fn schedule<'a>(args: &Args, input: &'a Input) -> serve::Schedule<'a> {
    serve::Schedule {
        bytes: &input.bytes,
        offsets: &input.offsets,
        rate: SERVE_RATE,
        control_period: control_period(args),
        controls: SERVE_CONTROLS,
    }
}

/// Open-loop latencies of one serve run, verified against the reference.
struct ServeMeasure {
    run: serve::ServeRun,
    window_ms: Vec<f64>,
    control_ms: Vec<f64>,
}

fn serve_once(
    workload: &Workload,
    args: &Args,
    input: &Input,
    reference: &Reference,
    dir: &Path,
    verdict: &mut Verdict,
) -> Result<ServeMeasure, String> {
    let plan = schedule(args, input);
    let run = serve::run(&args.khist, dir, workload.args, &plan)
        .map_err(|e| format!("khist serve: {e}"))?;
    verdict.attempted += 1;
    if !run.usage.ok {
        verdict.fail("khist serve exited with an error".into());
    }
    let parsed = verify::parse(run.lines.iter().map(|(_, l)| l.as_str()));
    verdict.absorb(reference.verify(&parsed, input.records.len() as u64));
    let closers = input.window_closers();
    let window_ms = run
        .lines
        .iter()
        .zip(&parsed)
        .filter_map(|((arrived, _), report)| {
            let closer = closer_of(report.as_ref().ok()?, &closers)?;
            Some((arrived - plan.record_due(closer)) * 1e3)
        })
        .collect();
    let mut control_ms = Vec::with_capacity(run.replies.len());
    for (j, (arrived, reply)) in run.replies.iter().enumerate() {
        verdict.attempted += 1;
        if serve::reply_ok(j, reply) {
            control_ms.push((arrived - plan.control_due(j)) * 1e3);
        } else {
            verdict.fail(format!("control request {j} answered {reply:.80}"));
        }
    }
    Ok(ServeMeasure {
        run,
        window_ms,
        control_ms,
    })
}

fn serve_end_to_end(
    workload: &Workload,
    args: &Args,
    input: &Input,
    reference: &Reference,
    dir: &Path,
) -> Result<(Verdict, Vec<Metric>), String> {
    let mut verdict = Verdict::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        verdict.attempted += 1;
        match serve::time_setup(&args.khist, dir, workload.args) {
            Ok((took, true)) => setup.push(took),
            Ok((_, false)) => verdict.fail("setup: no STATS reply or unclean exit".into()),
            Err(e) => verdict.fail(format!("setup: {e}")),
        }
    }
    let m = serve_once(workload, args, input, reference, dir, &mut verdict)?;
    let records = input.records.len() as f64;
    let usage = m.run.usage;
    println!("control latency: {}", describe(&m.control_ms, "ms"));
    println!(
        "generator lag max {:.4} ms; data writes blocked {:.4} s",
        m.run.sent.lag_max_s * 1e3,
        m.run.sent.write_blocked_s
    );
    let mut metrics = common_metrics(
        &[records / usage.wall_s],
        &[usage.cpu_s / records * 1e6],
        &[usage.maxrss_kb as f64 / 1024.0],
        &setup,
    );
    metrics.extend(window_latency(&m.window_ms));
    Ok((verdict, metrics))
}

/// The traced run: one untraced run of the binary for verification (and
/// the serve client's own view), then the in-process replay with spans
/// and one more untraced replay to set the tracing overhead against.
fn traced(
    workload: &Workload,
    args: &Args,
    input: &Input,
    reference: &Reference,
    dir: &Path,
) -> Result<(Verdict, Vec<Metric>), String> {
    let mut verdict = Verdict::default();
    let (mut control, mut lag_ms, mut blocked_s) = (Vec::new(), 0.0, 0.0);
    if workload.serve {
        let m = serve_once(workload, args, input, reference, dir, &mut verdict)?;
        control = m.control_ms;
        lag_ms = m.run.sent.lag_max_s * 1e3;
        blocked_s = m.run.sent.write_blocked_s;
    } else {
        watch_once(workload, args, input, reference, &mut verdict)?;
    }
    let traced: Replay = replay::replay(
        input,
        workload.runs,
        workload.shards,
        feed(workload, args),
        true,
    )?;
    // The overhead is measured against an untraced replay run after it;
    // the reference, run before both, pays the cold start.
    let untraced_s = replay::replay(
        input,
        workload.runs,
        workload.shards,
        feed(workload, args),
        false,
    )?
    .wall_s;
    // The traced replay must reproduce the reference too.
    let rendered: Vec<String> = traced.reports.iter().map(|r| r.to_json()).collect();
    let parsed = verify::parse(rendered.iter().map(String::as_str));
    verdict.absorb(reference.verify(&parsed, input.records.len() as u64));
    let spans = PathBuf::from(".bench_run")
        .join(format!("trace-{}-seed{}.jsonl", workload.name, args.seed));
    std::fs::write(&spans, traced.tracer.to_jsonl((traced.wall_s * 1e9) as u64))
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans: {}", spans.display());
    let mut metrics: Vec<Metric> = replay::layer_metrics(&traced)
        .into_iter()
        .map(|(name, value, unit)| (name, value, unit, 1))
        .collect();
    let or_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
    metrics.extend([
        ("serve.write_blocked_s", blocked_s, "s", 1),
        (
            "serve.control_latency_p50_ms",
            or_zero(median(&control)),
            "ms",
            control.len(),
        ),
        (
            "serve.control_latency_p99_ms",
            or_zero(percentile(&control, 99.0)),
            "ms",
            control.len(),
        ),
        ("serve.generator_lag_max_ms", lag_ms, "ms", 1),
        (
            "input.complete_share",
            input.complete_share(),
            "share",
            input.records.len(),
        ),
        (
            "trace_overhead_share",
            traced.wall_s / untraced_s - 1.0,
            "share",
            1,
        ),
    ]);
    if traced.shards > 1 {
        println!(
            "note: analyses ran on {} shard workers, so engine.self_s is the caller's whole \
             ingest_batch time; engine.analysis_busy_s sums their busy time",
            traced.shards
        );
    }
    Ok((verdict, metrics))
}

fn print_result(workload: &Workload, verdict: &Verdict, metrics: &[Metric]) {
    let verdict_word = if verdict.failed == 0 { "ok" } else { "FAILED" };
    println!(
        "verify {}: {verdict_word} (attempted {}, failed {})",
        workload.name, verdict.attempted, verdict.failed
    );
    for note in &verdict.notes {
        println!("  {note}");
    }
    println!(
        "error_rate {} share (n={})",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.attempted
    );
    let mut json = Vec::with_capacity(metrics.len());
    for &(name, value, unit, n) in metrics {
        // `+ 0.0` turns the −0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name} {value} {unit} (n={n})");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted.max(1),
        verdict.failed,
        json.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_batch_reproduces_the_cli_reference_for_every_workload() {
        let input = Input::generate(
            KeyMix::Interleaved {
                keys: 2,
                per_key: 1200,
            },
            3,
        );
        for workload in &WORKLOADS {
            let reference = reference(workload, &input).unwrap();
            assert_eq!(reference.windows(), 6, "{}", workload.name);
            let replayed =
                replay::replay(&input, workload.runs, workload.shards, Feed::Watch, false).unwrap();
            let lines: Vec<String> = replayed.reports.iter().map(|r| r.to_json()).collect();
            let parsed = verify::parse(lines.iter().map(String::as_str));
            let verdict = reference.verify(&parsed, input.records.len() as u64);
            assert_eq!(verdict.failed, 0, "{}: {:?}", workload.name, verdict.notes);
        }
    }
}
