//! The open-loop client of `khist serve`: one thread sends data records
//! and control requests on a fixed schedule that never waits for the
//! server, and one thread reads the server's stdout (window lines) and
//! the control replies. Two threads, two connections.
//!
//! Every latency counts from the time a request or record was *due*, so
//! a server stall shows in every request scheduled behind it, and the
//! sender records how late it ran behind its own schedule.

use crate::child::{self, Usage};
use polling::{PollFd, Poller};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// A fixed open-loop schedule: record `i` is due at `i / rate`, and
/// control request `j` (`STATS` for even `j`, `FLEET` for odd) at
/// `(j + ½) · control_period`, both in seconds from the start.
pub struct Schedule<'a> {
    pub bytes: &'a [u8],
    /// Line start of every record, plus the end of the last.
    pub offsets: &'a [usize],
    pub rate: f64,
    pub control_period: f64,
    pub controls: usize,
}

impl Schedule<'_> {
    fn records(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn record_due(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }

    pub fn control_due(&self, j: usize) -> f64 {
        (j as f64 + 0.5) * self.control_period
    }
}

/// What the sender saw.
#[derive(Debug, Default)]
pub struct Sent {
    /// Largest delay between an item's due time and its send, seconds.
    pub lag_max_s: f64,
    /// Time spent inside data-socket writes (server backpressure).
    pub write_blocked_s: f64,
}

/// Sends the whole schedule; returns once the last item is written.
pub fn send(
    plan: &Schedule,
    start: Instant,
    data: &mut impl Write,
    control: &mut impl Write,
) -> io::Result<Sent> {
    let mut sent = Sent::default();
    let (mut i, mut j) = (0usize, 0usize);
    let records = plan.records();
    while i < records || j < plan.controls {
        let next_data = if i < records {
            plan.record_due(i)
        } else {
            f64::INFINITY
        };
        let next_control = if j < plan.controls {
            plan.control_due(j)
        } else {
            f64::INFINITY
        };
        let due = next_data.min(next_control);
        let now = start.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let now = start.elapsed().as_secs_f64();
        sent.lag_max_s = sent.lag_max_s.max(now - due);
        // Every record due by now, as one write.
        let upto = ((now * plan.rate).floor() as usize + 1).min(records);
        if upto > i {
            let before = Instant::now();
            data.write_all(&plan.bytes[plan.offsets[i]..plan.offsets[upto]])?;
            sent.write_blocked_s += before.elapsed().as_secs_f64();
            i = upto;
        }
        let now = start.elapsed().as_secs_f64();
        while j < plan.controls && plan.control_due(j) <= now {
            control.write_all(if j.is_multiple_of(2) {
                b"STATS\n"
            } else {
                b"FLEET\n"
            })?;
            j += 1;
        }
    }
    Ok(sent)
}

/// A line and the time it arrived, seconds from the start.
pub type Arrival = (f64, String);

/// Reads `stdout` and `control` until `stdout` ends. Stdout lines are
/// returned; control replies go to `replies` as they arrive.
pub fn read_until_eof(
    stdout: &mut (impl Read + AsRawFd),
    control: &mut (impl Read + AsRawFd),
    start: Instant,
    replies: Sender<Arrival>,
) -> io::Result<Vec<Arrival>> {
    let mut poller = Poller::new();
    let mut lines = Vec::new();
    let (mut out_buf, mut ctl_buf) = (Vec::new(), Vec::new());
    let mut control_open = true;
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let mut fds = vec![PollFd::read(stdout.as_raw_fd())];
        if control_open {
            fds.push(PollFd::read(control.as_raw_fd()));
        }
        poller.wait(&mut fds, -1)?;
        if fds[0].readable || fds[0].hangup {
            // Poll reported the pipe ready, so this read does not block.
            let n = stdout.read(&mut chunk)?;
            if n == 0 {
                return Ok(lines);
            }
            let now = start.elapsed().as_secs_f64();
            out_buf.extend_from_slice(&chunk[..n]);
            split_lines(&mut out_buf, |line| lines.push((now, line)));
        }
        if control_open && (fds[1].readable || fds[1].hangup) {
            let n = control.read(&mut chunk)?;
            control_open = n > 0;
            let now = start.elapsed().as_secs_f64();
            ctl_buf.extend_from_slice(&chunk[..n]);
            // A receiver that hung up has what it needs.
            split_lines(&mut ctl_buf, |line| drop(replies.send((now, line))));
        }
    }
}

/// Hands every complete line in `buf` to `each`, keeping the remainder.
fn split_lines(buf: &mut Vec<u8>, mut each: impl FnMut(String)) {
    let mut start = 0;
    while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
        each(String::from_utf8_lossy(&buf[start..start + pos]).into_owned());
        start += pos + 1;
    }
    buf.drain(..start);
}

/// Connects to a socket the server is still binding, retrying until
/// `timeout`.
pub fn connect(path: &Path, timeout: Duration) -> io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if Instant::now() < deadline
                    && matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                    ) =>
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// `khist serve` with its sockets in `dir`.
fn spawn(
    khist: &str,
    dir: &Path,
    args: &[&str],
    stdout: Stdio,
    stderr: Stdio,
) -> io::Result<Child> {
    let child = Command::new(khist)
        .current_dir(dir)
        .arg("serve")
        .args(["--socket", "d.sock", "--control", "c.sock"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()?;
    child::track(child.id());
    Ok(child)
}

/// How long the server may take to bind, settle, or answer.
const PATIENCE: Duration = Duration::from_secs(30);

/// Spawn → first `STATS` reply, seconds, and whether the server answered
/// and exited cleanly.
pub fn time_setup(khist: &str, dir: &Path, args: &[&str]) -> io::Result<(f64, bool)> {
    let spawned = Instant::now();
    let mut child = spawn(khist, dir, args, Stdio::null(), Stdio::null())?;
    let asked = (|| -> io::Result<(f64, String)> {
        let mut control = connect(&dir.join("c.sock"), PATIENCE)?;
        control.write_all(b"STATS\n")?;
        let mut reply = String::new();
        BufReader::new(&control).read_line(&mut reply)?;
        let took = spawned.elapsed().as_secs_f64();
        control.write_all(b"SHUTDOWN\n")?;
        Ok((took, reply))
    })();
    if asked.is_err() {
        let _ = child.kill();
    }
    let usage = child::reap(child, spawned)?;
    let (took, reply) = asked?;
    Ok((took, usage.ok && stats_records(&reply).is_some()))
}

/// One open-loop run against a spawned server.
pub struct ServeRun {
    pub usage: Usage,
    /// Window lines with arrival times (seconds from the schedule start).
    pub lines: Vec<Arrival>,
    /// The open-loop control replies, in request order.
    pub replies: Vec<Arrival>,
    pub sent: Sent,
}

/// Spawns `khist serve`, plays `plan` against it, waits until `STATS`
/// counts every record, shuts it down and reaps it.
pub fn run(khist: &str, dir: &Path, args: &[&str], plan: &Schedule) -> io::Result<ServeRun> {
    let spawned = Instant::now();
    let mut child = spawn(khist, dir, args, Stdio::piped(), Stdio::inherit())?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let connected = connect(&dir.join("c.sock"), PATIENCE).and_then(|control| {
        let data = connect(&dir.join("d.sock"), PATIENCE)?;
        Ok((control.try_clone()?, control, data))
    });
    let (mut ctl_reader, mut control, mut data) = match connected {
        Ok(streams) => streams,
        Err(e) => {
            let _ = child.kill();
            child::reap(child, spawned)?;
            return Err(e);
        }
    };
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let (driven, lines) = std::thread::scope(|s| {
        let reader = s.spawn(move || read_until_eof(&mut stdout, &mut ctl_reader, start, tx));
        let driven = drive(plan, start, &mut data, &mut control, &rx);
        if driven.is_err() {
            // The reader ends when the server's stdout closes.
            let _ = child.kill();
        }
        (driven, reader.join().expect("the reader does not panic"))
    });
    let usage = child::reap(child, spawned)?;
    let (sent, replies) = driven?;
    Ok(ServeRun {
        usage,
        lines: lines?,
        replies,
        sent,
    })
}

/// Sends the schedule, closes the data connection, collects the
/// open-loop replies, polls `STATS` until every record is counted, then
/// asks the server to shut down.
fn drive(
    plan: &Schedule,
    start: Instant,
    data: &mut UnixStream,
    control: &mut UnixStream,
    replies: &Receiver<Arrival>,
) -> io::Result<(Sent, Vec<Arrival>)> {
    let sent = send(plan, start, data, control)?;
    data.shutdown(Shutdown::Write)?;
    let open_loop = (0..plan.controls)
        .map(|_| next_reply(replies, PATIENCE))
        .collect::<io::Result<Vec<_>>>()?;
    let records = plan.records() as u64;
    let deadline = Instant::now() + PATIENCE;
    loop {
        control.write_all(b"STATS\n")?;
        let (_, reply) = next_reply(replies, PATIENCE)?;
        if stats_records(&reply) == Some(records) {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("STATS never counted all {records} records: {reply}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    control.write_all(b"SHUTDOWN\n")?;
    Ok((sent, open_loop))
}

/// `true` when reply `j` of the open loop is the answer its verb asks for.
pub fn reply_ok(j: usize, reply: &str) -> bool {
    if j.is_multiple_of(2) {
        stats_records(reply).is_some()
    } else {
        reply.starts_with("{\"fleet\":true")
    }
}

/// Waits for the next control reply.
fn next_reply(replies: &Receiver<Arrival>, timeout: Duration) -> io::Result<Arrival> {
    replies
        .recv_timeout(timeout)
        .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, format!("no control reply: {e}")))
}

/// The `records` total of a `STATS` reply.
pub fn stats_records(reply: &str) -> Option<u64> {
    let rest = &reply[reply.find("\"records\":")? + "\"records\":".len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    #[test]
    fn latency_counts_from_due_time_through_a_server_stall() {
        // A fake server that answers every control request at once,
        // except that it stops reading for 300 ms after the 5th request.
        let (mut ctl_client, mut ctl_server) = UnixStream::pair().unwrap();
        let (mut data_client, data_server) = UnixStream::pair().unwrap();
        let (mut out_client, mut out_server) = UnixStream::pair().unwrap();
        let bytes = b"k0 1\n".repeat(40);
        let offsets: Vec<usize> = (0..=40).map(|i| i * 5).collect();
        let plan = Schedule {
            bytes: &bytes,
            offsets: &offsets,
            rate: 200.0,
            control_period: 0.01,
            controls: 40,
        };
        let start = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut ctl_reader = ctl_client.try_clone().unwrap();
        let sent = std::thread::scope(|s| {
            s.spawn(move || {
                let mut data = data_server;
                let mut buf = [0u8; 256];
                let mut lines = 0;
                let mut ctl = ctl_server.try_clone().unwrap();
                let mut got = Vec::new();
                while lines < 40 {
                    let n = ctl.read(&mut buf).unwrap();
                    got.extend_from_slice(&buf[..n]);
                    while let Some(pos) = got.iter().position(|&b| b == b'\n') {
                        got.drain(..=pos);
                        lines += 1;
                        if lines == 5 {
                            std::thread::sleep(Duration::from_millis(300));
                        }
                        ctl_server.write_all(b"{}\n").unwrap();
                    }
                }
                let mut sink = Vec::new();
                data.read_to_end(&mut sink).unwrap();
                out_server.write_all(b"done\n").unwrap();
            });
            let reader =
                s.spawn(move || read_until_eof(&mut out_client, &mut ctl_reader, start, tx));
            let sent = send(&plan, start, &mut data_client, &mut ctl_client).unwrap();
            data_client.shutdown(std::net::Shutdown::Write).unwrap();
            let lines = reader.join().unwrap().unwrap();
            assert_eq!(lines.len(), 1);
            sent
        });
        let replies: Vec<Arrival> = rx.try_iter().collect();
        assert_eq!(replies.len(), 40);
        let latency: Vec<f64> = replies
            .iter()
            .enumerate()
            .map(|(j, (at, _))| at - plan.control_due(j))
            .collect();
        // Requests 5.. were due during the stall: each waits out the rest
        // of it, so the earliest of them waits nearly the full 300 ms.
        assert!(latency[5] > 0.2, "{latency:?}");
        assert!(
            latency.iter().filter(|&&l| l > 0.1).count() >= 15,
            "{latency:?}"
        );
        assert!(percentile(&latency, 90.0) > 0.1, "{latency:?}");
        // Open loop: the sender never waited for the stalled server.
        assert!(sent.lag_max_s < 0.1, "{sent:?}");
    }

    #[test]
    fn split_lines_keeps_partial_tail() {
        let mut buf = b"a\nbc\nd".to_vec();
        let mut got = Vec::new();
        split_lines(&mut buf, |l| got.push(l));
        assert_eq!(got, ["a", "bc"]);
        assert_eq!(buf, b"d");
        assert_eq!(
            stats_records("{\"streams\":2,\"records\":1234,\"windows\":3}"),
            Some(1234)
        );
    }
}
