//! In-process replay of a workload through the library's public calls —
//! with spans on, the traced run; with spans off, the baseline its
//! overhead is measured against.
//!
//! The replay follows the `khist` front ends call for call: data lines
//! are framed by `khist_serve::protocol::parse_data_line` (the framing
//! `watch --key-field` shares), records go through
//! `Engine::ingest_batch`, windows are rendered by
//! `khist::app::render_window`, and the tails come from
//! `Engine::flush_debut_ordered`. A span is recorded around each such
//! call; per-analysis busy time comes from each returned
//! `Report.wall_seconds`, which is program output, so the program itself
//! carries no instrumentation.
//!
//! The analysis batch is rebuilt here from the CLI's defaults; every
//! traced replay is verified against the reference `khist::app::run_watch`
//! produces, so a batch that drifts from the CLI's shows as failures.

use crate::gen::{Input, EVERY, N};
use crate::stats::{median, percentile};
use khist_core::api::{Analysis, AnalysisKind, Engine, Learn, TestL2, Uniformity, WindowReport};
use khist_core::uniformity::UniformityBudget;
use khist_oracle::{L2TesterBudget, LearnerBudget};
use khist_serve::protocol::{self, DataLine};
use std::time::Instant;

/// The CLI's defaults for `--k` and `--eps`.
const K: usize = 8;
const EPS: f64 = 0.1;

/// How records reach the engine.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// `khist watch --key-field`: chunks of `4096 × shards` records.
    Watch,
    /// `khist serve` at a steady offered rate: the reactor drains every
    /// `batch` records (its size-or-deadline trigger at that rate), and a
    /// `STATS` or `FLEET` request, alternately, arrives every
    /// `control_every` records.
    Serve { batch: usize, control_every: usize },
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Records, reports or bytes the call handled.
    pub items: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory while the replay runs; written out at the end.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when tracing is
    /// off); `items` reads the count off the call's result.
    fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        items: impl Fn(&T) -> u64,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            name,
            start_ns,
            end_ns,
            items: items(&out),
        });
        out
    }

    /// The spans as JSON lines: the whole replay first as span 0, then
    /// every call, each a child of span 0.
    pub fn to_jsonl(&self, total_ns: u64) -> String {
        let mut text =
            format!("{{\"id\":0,\"parent\":null,\"name\":\"replay\",\"start_ns\":0,\"end_ns\":{total_ns},\"items\":0}}\n");
        for s in &self.spans {
            text.push_str(&format!(
                "{{\"id\":{},\"parent\":0,\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}\n",
                s.id, s.name, s.start_ns, s.end_ns, s.items
            ));
        }
        text
    }
}

/// The CLI's default-batch analyses, each budget clamped to one window
/// of `EVERY` records exactly as `khist watch`/`serve` clamp them.
pub fn analyses(runs: &[&str]) -> Result<Vec<Analysis>, String> {
    let available = EVERY as usize;
    runs.iter()
        .map(|run| match *run {
            "learn" => Ok(Learn::k(K)
                .eps(EPS)
                .budget(learner_budget(available)?)
                .into()),
            "l2" => {
                let r = 7usize.min(available / 2).max(1);
                let m = available / r;
                Ok(TestL2::k(K).eps(EPS).budget(L2TesterBudget { r, m }).into())
            }
            "uniformity" => {
                let derived =
                    UniformityBudget::calibrated(N, EPS, 1.0).map_err(|e| e.to_string())?;
                let m = derived.m.min(available).max(2);
                Ok(Uniformity::eps(EPS).budget(UniformityBudget { m }).into())
            }
            other => Err(format!("the benchmark does not replay analysis {other}")),
        })
        .collect()
}

/// The paper's learner budget scaled down to `available` records, as the
/// CLI scales it.
fn learner_budget(available: usize) -> Result<LearnerBudget, String> {
    let err = |e: khist::dist::DistError| e.to_string();
    let mut budget = LearnerBudget::calibrated(N, K, EPS, 1.0).map_err(err)?;
    let total = budget.total_samples().map_err(err)?;
    if total > available {
        let scale = available as f64 / total as f64;
        budget = LearnerBudget::calibrated(N, K, EPS, scale.clamp(1e-9, 1.0)).map_err(err)?;
        while budget.total_samples().map_err(err)? > available && budget.r > 3 {
            budget.r -= 2;
        }
        let fixed = budget.r * budget.m;
        if fixed < available {
            budget.ell = (available - fixed).max(16);
        }
    }
    Ok(budget)
}

/// What a replay produced.
pub struct Replay {
    pub reports: Vec<WindowReport>,
    pub wall_s: f64,
    pub tracer: Tracer,
    /// Busy seconds of the analyses that ran inside `ingest_batch` calls
    /// (not the tail flush), summed over every thread that ran them.
    pub ingest_analysis_s: f64,
    pub streams: usize,
    pub shards: usize,
}

/// Replays `input` through a fresh engine; spans are recorded when
/// `traced`.
pub fn replay(
    input: &Input,
    runs: &[&str],
    shards: usize,
    feed: Feed,
    traced: bool,
) -> Result<Replay, String> {
    let mut engine = Engine::builder(N)
        .seed(0)
        .shards(shards)
        .analyses(analyses(runs)?)
        .tumbling(EVERY)
        .build()
        .map_err(|e| e.to_string())?;
    let (batch, control_every) = match feed {
        Feed::Watch => (4096 * shards, usize::MAX),
        Feed::Serve {
            batch,
            control_every,
        } => (batch, control_every),
    };
    let text = std::str::from_utf8(&input.bytes).map_err(|e| e.to_string())?;
    let mut t = Tracer::new(traced);
    let started = Instant::now();
    let mut reports: Vec<WindowReport> = Vec::new();
    let mut ingest_analysis_s = 0.0;
    let mut lines = text.lines().enumerate();
    let mut records: Vec<(&str, usize)> = Vec::with_capacity(batch);
    let (mut sent, mut next_control, mut controls) = (0usize, control_every, 0u64);
    loop {
        records.clear();
        let parsed = t.span(
            "app.parse",
            || -> Result<u64, String> {
                for (i, line) in lines.by_ref() {
                    if let DataLine::Record { key, value } =
                        protocol::parse_data_line(line, i + 1, 0, N)?
                    {
                        records.push((key, value));
                        if records.len() == batch {
                            break;
                        }
                    }
                }
                Ok(records.len() as u64)
            },
            |parsed| *parsed.as_ref().unwrap_or(&0),
        );
        parsed?;
        if records.is_empty() {
            break;
        }
        sent += records.len();
        let out = t.span(
            "engine.ingest_batch",
            || engine.ingest_batch(&records),
            |_| records.len() as u64,
        );
        let out = out.map_err(|e| e.to_string())?;
        ingest_analysis_s += out.iter().map(busy_s).sum::<f64>();
        render(&mut t, &out);
        reports.extend(out);
        while sent >= next_control {
            next_control = next_control.saturating_add(control_every);
            controls += 1;
            if controls % 2 == 1 {
                t.span(
                    "serve.stats_summary",
                    || protocol::stats_summary(&engine),
                    |s| s.len() as u64,
                );
            } else {
                t.span(
                    "fleet.report",
                    || protocol::fleet(&engine),
                    |s| s.len() as u64,
                );
            }
        }
    }
    let tails = t.span(
        "engine.flush_debut_ordered",
        || engine.flush_debut_ordered(),
        |r| r.as_ref().map_or(0, |r| r.len() as u64),
    );
    let tails = tails.map_err(|e| e.to_string())?;
    render(&mut t, &tails);
    reports.extend(tails);
    Ok(Replay {
        reports,
        wall_s: started.elapsed().as_secs_f64(),
        tracer: t,
        ingest_analysis_s,
        streams: engine.streams(),
        shards: engine.shards(),
    })
}

/// Renders windows the way the CLI writes them; only the byte count is
/// kept.
fn render(t: &mut Tracer, reports: &[WindowReport]) {
    let bytes = t.span(
        "app.render_window",
        || {
            reports
                .iter()
                .map(|r| khist::app::render_window(r, true).len() as u64)
                .sum::<u64>()
        },
        |b| *b,
    );
    std::hint::black_box(bytes);
}

/// Analysis busy seconds of one window, drift check included.
fn busy_s(report: &WindowReport) -> f64 {
    report
        .reports
        .iter()
        .chain(report.drift.iter())
        .map(|r| r.wall_seconds)
        .sum()
}

/// Per-layer metrics of a traced replay: `(name, value, unit)`.
pub fn layer_metrics(replay: &Replay) -> Vec<(&'static str, f64, &'static str)> {
    let spans = &replay.tracer.spans;
    let total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum::<f64>()
    };
    let ingest_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "engine.ingest_batch")
        .map(|s| s.seconds() * 1e3)
        .collect();
    let records: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.ingest_batch")
        .map(|s| s.items)
        .sum();
    let output_bytes: u64 = spans
        .iter()
        .filter(|s| s.name == "app.render_window")
        .map(|s| s.items)
        .sum();
    let per_call_us = |name: &str| {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() * 1e6)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    };
    let wall = |kind: AnalysisKind| -> Vec<f64> {
        replay
            .reports
            .iter()
            .flat_map(|w| w.reports.iter())
            .filter(|r| r.analysis == kind)
            .map(|r| r.wall_seconds)
            .collect()
    };
    let learn_ms: Vec<f64> = wall(AnalysisKind::Learn).iter().map(|s| s * 1e3).collect();
    let drift_s: f64 = replay
        .reports
        .iter()
        .filter_map(|w| w.drift.as_ref())
        .map(|r| r.wall_seconds)
        .sum();
    let (kept, seen) = replay
        .reports
        .iter()
        .fold((0u64, 0u64), |(k, s), w| (k + w.kept, s + w.seen));
    let complete = replay.reports.iter().filter(|w| w.complete).count() as f64;
    let ingest_s = total("engine.ingest_batch");
    // Analysis busy time comes off the caller's clock only where the
    // analyses ran on the caller thread; shard workers run them alongside
    // it, and their summed busy time does not fit inside its wall time.
    let self_s = if replay.shards == 1 {
        ingest_s - replay.ingest_analysis_s
    } else {
        ingest_s
    };
    let or_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
    vec![
        ("analysis.learn.calls", learn_ms.len() as f64, "count"),
        (
            "analysis.learn.busy_s",
            learn_ms.iter().sum::<f64>() / 1e3,
            "s",
        ),
        ("analysis.learn.ms_p50", or_zero(median(&learn_ms)), "ms"),
        (
            "analysis.learn.ms_p99",
            or_zero(percentile(&learn_ms, 99.0)),
            "ms",
        ),
        (
            "analysis.test_l2.busy_s",
            wall(AnalysisKind::TestL2).iter().sum(),
            "s",
        ),
        (
            "analysis.uniformity.busy_s",
            wall(AnalysisKind::Uniformity).iter().sum(),
            "s",
        ),
        ("analysis.drift.busy_s", drift_s, "s"),
        ("engine.ingest_batch_s", ingest_s, "s"),
        (
            "engine.ingest_batch_ms_p50",
            or_zero(median(&ingest_ms)),
            "ms",
        ),
        (
            "engine.ingest_batch_ms_p99",
            or_zero(percentile(&ingest_ms, 99.0)),
            "ms",
        ),
        ("engine.calls", ingest_ms.len() as f64, "count"),
        ("engine.records", records as f64, "count"),
        ("engine.analysis_busy_s", replay.ingest_analysis_s, "s"),
        ("engine.self_s", self_s, "s"),
        ("engine.flush_s", total("engine.flush_debut_ordered"), "s"),
        ("engine.streams", replay.streams as f64, "count"),
        (
            "oracle.kept_per_seen",
            kept as f64 / seen.max(1) as f64,
            "share",
        ),
        ("monitor.windows_complete", complete, "count"),
        (
            "monitor.windows_partial",
            replay.reports.len() as f64 - complete,
            "count",
        ),
        ("app.parse_s", total("app.parse"), "s"),
        ("app.render_s", total("app.render_window"), "s"),
        ("app.output_bytes", output_bytes as f64, "bytes"),
        (
            "serve.stats_render_us",
            per_call_us("serve.stats_summary"),
            "us",
        ),
        ("fleet.report_us", per_call_us("fleet.report"), "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::KeyMix;

    #[test]
    fn traced_and_untraced_replays_agree_and_spans_cover_every_record() {
        let input = Input::generate(
            KeyMix::Lockstep {
                keys: 3,
                records: 1700,
            },
            11,
        );
        let plain = replay(
            &input,
            &["l2", "uniformity"],
            1,
            Feed::Serve {
                batch: 100,
                control_every: 250,
            },
            false,
        )
        .unwrap();
        let traced = replay(
            &input,
            &["l2", "uniformity"],
            1,
            Feed::Serve {
                batch: 100,
                control_every: 250,
            },
            true,
        )
        .unwrap();
        let json = |r: &Replay| {
            r.reports
                .iter()
                .map(|w| crate::verify::normalize(w.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(json(&plain), json(&traced));
        assert!(plain.tracer.spans.is_empty());
        let metrics = layer_metrics(&traced);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(get("engine.records"), 1700.0);
        assert_eq!(get("engine.calls"), 17.0);
        assert_eq!(get("analysis.learn.calls"), 0.0);
        assert_eq!(get("monitor.windows_partial"), 3.0);
        let full: u64 = input.per_key_counts().iter().map(|c| c / EVERY).sum();
        assert_eq!(get("monitor.windows_complete"), full as f64);
        assert!(get("serve.stats_render_us") > 0.0 && get("fleet.report_us") > 0.0);
        // 1700 records, a control request every 250: 6 alternating calls.
        assert_eq!(
            traced
                .tracer
                .spans
                .iter()
                .filter(|s| s.name == "serve.stats_summary")
                .count(),
            3
        );
        assert_eq!(
            traced
                .tracer
                .spans
                .iter()
                .filter(|s| s.name == "fleet.report")
                .count(),
            3
        );
    }
}
