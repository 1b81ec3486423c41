//! Spawning the `khist` binary and reaping it with its own resource
//! usage (CPU time and peak RSS of exactly that child).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::{Duration, Instant};

/// What one reaped child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn → reaped, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child (all its threads).
    pub cpu_s: f64,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
    /// Exited normally with status 0.
    pub ok: bool,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

/// The child currently running (0 = none), for the watchdog.
static RUNNING: AtomicI32 = AtomicI32::new(0);

/// Registers a freshly spawned child with the watchdog.
pub fn track(pid: u32) {
    RUNNING.store(pid as i32, Ordering::SeqCst);
}

/// Ends the whole benchmark with status 3 once `limit` has passed: kills
/// and reaps the running child first, so no process outlives the run.
/// The thread is left detached on purpose: it only ever ends the process.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let pid = RUNNING.swap(0, Ordering::SeqCst);
        if pid > 0 {
            let mut status = 0i32;
            let mut usage = Rusage::default();
            // SAFETY: `kill` takes plain integers; `wait4` writes only
            // into the two live locals of its C layouts (see `reap`).
            unsafe {
                kill(pid, 9);
                wait4(pid, &mut status, 0, &mut usage);
            }
        }
        eprintln!("benchmark exceeded its {}s limit; stopped", limit.as_secs());
        std::process::exit(3);
    });
}

/// Reaps `child` with `wait4`, which reports the usage of that one
/// process — unlike `getrusage(RUSAGE_CHILDREN)`, whose peak RSS is the
/// maximum over every child ever reaped (the build included).
pub fn reap(child: Child, started: Instant) -> std::io::Result<Usage> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals of the exact C layouts `wait4` writes (`int` and 64-bit
        // Linux `struct rusage`); `pid` is our own unreaped child, and
        // std never reaps a `Child` behind our back.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    RUNNING.store(0, Ordering::SeqCst);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    // WIFEXITED && WEXITSTATUS == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        maxrss_kb: usage.maxrss.max(0) as u64,
        ok,
    })
}

/// One piped run: its usage, every stdout line with its arrival time,
/// and when each block of input was handed to the pipe.
pub struct PipedRun {
    pub usage: Usage,
    /// `(seconds from spawn, line)`.
    pub lines: Vec<(f64, String)>,
    /// `(records handed over so far, seconds from spawn)` after each
    /// completed block write.
    pub handed: Vec<(usize, f64)>,
}

impl PipedRun {
    /// When record `i` had been written into the child's stdin.
    pub fn handed_at(&self, i: usize) -> f64 {
        let block = self.handed.partition_point(|&(upto, _)| upto <= i);
        self.handed.get(block).map_or(f64::NAN, |&(_, at)| at)
    }
}

/// Records per stdin write: small enough that a record's hand-over time
/// is close to when the child could first read it.
const BLOCK: usize = 1024;

/// Runs `khist <args>` with the records of `bytes` (line starts in
/// `offsets`) on stdin. This thread writes the input block by block while
/// one scoped thread reads and timestamps stdout lines, so neither pipe
/// can deadlock the other.
pub fn run_piped(
    khist: &str,
    args: &[&str],
    bytes: &[u8],
    offsets: &[usize],
) -> std::io::Result<PipedRun> {
    let started = Instant::now();
    let mut child = Command::new(khist)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    track(child.id());
    let piped = std::thread::scope(|s| {
        let reader = s.spawn(move || -> std::io::Result<Vec<(f64, String)>> {
            let mut lines = Vec::new();
            for line in BufReader::new(stdout).lines() {
                lines.push((started.elapsed().as_secs_f64(), line?));
            }
            Ok(lines)
        });
        let records = offsets.len() - 1;
        let mut handed = Vec::with_capacity(records / BLOCK + 1);
        for from in (0..records).step_by(BLOCK) {
            let to = (from + BLOCK).min(records);
            // A child that fails early closes its stdin; the broken pipe
            // shows in its exit status, not here.
            if stdin.write_all(&bytes[offsets[from]..offsets[to]]).is_err() {
                break;
            }
            handed.push((to, started.elapsed().as_secs_f64()));
        }
        drop(stdin);
        let lines = reader.join().expect("stdout reader does not panic");
        lines.map(|lines| (lines, handed))
    });
    let usage = reap(child, started)?;
    let (lines, handed) = piped?;
    Ok(PipedRun {
        usage,
        lines,
        handed,
    })
}

/// Spawn → exit of `khist <args>` on empty input, seconds.
pub fn time_empty_run(khist: &str, args: &[&str]) -> std::io::Result<(f64, bool)> {
    let started = Instant::now();
    let child = Command::new(khist)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    track(child.id());
    let usage = reap(child, started)?;
    Ok((usage.wall_s, usage.ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_reports_exit_status_cpu_and_arrivals() {
        let bytes = b"a\nb\n".repeat(BLOCK);
        let offsets: Vec<usize> = (0..=2 * BLOCK).map(|i| 2 * i).collect();
        let script = "cat; i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done";
        let run = run_piped("sh", &["-c", script], &bytes, &offsets).unwrap();
        assert!(run.usage.ok);
        assert_eq!(run.lines.len(), 2 * BLOCK);
        assert!(run.usage.cpu_s > 0.0 && run.usage.maxrss_kb > 0);
        assert_eq!(run.handed.len(), 2);
        assert!(run.handed_at(0) <= run.handed_at(BLOCK));
        assert!(run.handed_at(2 * BLOCK).is_nan());
        let (_, ok) = time_empty_run("sh", &["-c", "exit 3"]).unwrap();
        assert!(!ok);
    }
}
