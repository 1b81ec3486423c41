//! Output verification: the window lines a `khist` process printed must
//! equal an in-process `Engine` reference over the same records, stream
//! by stream, with only `wall_seconds` (wall time) stripped.

use khist_core::api::WindowReport;
use std::collections::BTreeMap;

/// The reference window lines, normalized, per stream in window order.
pub struct Reference {
    per_stream: BTreeMap<String, Vec<(u64, String)>>,
    windows: u64,
}

/// Attempted and failed checks of one verification, plus the first few
/// failures in words.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        for note in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(note);
            }
        }
        self.failed += other.failed;
    }
}

/// The report as one JSON line with every `wall_seconds` zeroed.
pub fn normalize(mut report: WindowReport) -> String {
    for r in report.reports.iter_mut().chain(report.drift.iter_mut()) {
        r.wall_seconds = 0.0;
    }
    report.to_json()
}

/// A window line parsed, or why it did not parse.
pub type Parsed = Result<WindowReport, String>;

/// Parses every non-blank output line with `WindowReport::from_json`.
pub fn parse<'a>(lines: impl IntoIterator<Item = &'a str>) -> Vec<Parsed> {
    lines
        .into_iter()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            WindowReport::from_json(line)
                .map_err(|e| format!("unparseable window line ({e}): {line:.80}"))
        })
        .collect()
}

impl Reference {
    pub fn new(reports: impl IntoIterator<Item = WindowReport>) -> Reference {
        let mut per_stream: BTreeMap<String, Vec<(u64, String)>> = BTreeMap::new();
        let mut windows = 0;
        for report in reports {
            windows += 1;
            let stream = report.stream.clone().unwrap_or_default();
            let window = report.window;
            per_stream
                .entry(stream)
                .or_default()
                .push((window, normalize(report)));
        }
        Reference {
            per_stream,
            windows,
        }
    }

    /// Windows the reference holds.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Checks one process's window lines: every line parses, every
    /// reference `(stream, window)` appears exactly once and in window
    /// order within its stream, each equals the reference, nothing else
    /// appears, and Σ`seen` equals the records sent. Every expected window
    /// plus the Σ`seen` total is one attempted check.
    pub fn verify(&self, parsed: &[Parsed], records_sent: u64) -> Verdict {
        let mut verdict = Verdict {
            attempted: self.windows + 1,
            ..Verdict::default()
        };
        let mut seen_total = 0u64;
        let mut got: BTreeMap<&str, Vec<(u64, String)>> = BTreeMap::new();
        for report in parsed {
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    verdict.fail(e.clone());
                    continue;
                }
            };
            seen_total += report.seen;
            let stream = report.stream.clone().unwrap_or_default();
            let window = report.window;
            let entry = match self.per_stream.get_key_value(&stream) {
                Some((key, _)) => got.entry(key.as_str()).or_default(),
                None => {
                    verdict.fail(format!("window {window} of unexpected stream {stream:?}"));
                    continue;
                }
            };
            entry.push((window, normalize(report.clone())));
        }
        for (stream, expected) in &self.per_stream {
            let lines = got.get(stream.as_str()).map_or(&[][..], Vec::as_slice);
            let mut by_window: BTreeMap<u64, usize> = BTreeMap::new();
            for (i, (window, _)) in lines.iter().enumerate() {
                if by_window.insert(*window, i).is_some() {
                    verdict.fail(format!("duplicate window {window} of stream {stream}"));
                }
            }
            if lines.windows(2).any(|w| w[0].0 >= w[1].0) {
                verdict.fail(format!("stream {stream}: windows out of order"));
            }
            for (window, want) in expected {
                match by_window.get(window) {
                    None => verdict.fail(format!("missing window {window} of stream {stream}")),
                    Some(&i) if lines[i].1 != *want => {
                        verdict.fail(format!("window {window} of stream {stream} differs"))
                    }
                    Some(_) => {}
                }
            }
            let known = lines
                .iter()
                .filter(|(w, _)| expected.iter().any(|(e, _)| e == w));
            let unknown = lines.len() - known.count();
            for _ in 0..unknown {
                verdict.fail(format!("stream {stream}: window beyond the reference"));
            }
        }
        if seen_total != records_sent {
            verdict.fail(format!(
                "windows saw {seen_total} records, {records_sent} were sent"
            ));
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_core::api::{Engine, Uniformity};
    use khist_core::uniformity::UniformityBudget;

    /// Three streams, two full windows each plus tails, through a real
    /// engine; returns the reports and the rendered JSONL.
    fn fixture() -> (Vec<WindowReport>, Vec<String>, u64) {
        let mut engine = Engine::builder(16)
            .tumbling(20)
            .analysis(Uniformity::eps(0.3).budget(UniformityBudget { m: 20 }))
            .build()
            .unwrap();
        let records: Vec<(String, usize)> = (0..130)
            .map(|i| (format!("k{}", i % 3), (i * 7) % 16))
            .collect();
        let mut reports = engine.ingest_batch(&records).unwrap();
        reports.extend(engine.flush_debut_ordered().unwrap());
        let lines = reports.iter().map(|r| r.to_json()).collect();
        (reports, lines, 130)
    }

    fn parsed(lines: &[String]) -> Vec<Parsed> {
        parse(lines.iter().map(String::as_str))
    }

    #[test]
    fn accepts_identical_output_with_other_wall_times() {
        let (reports, _, sent) = fixture();
        let reference = Reference::new(reports.clone());
        let lines: Vec<String> = reports
            .into_iter()
            .map(|mut r| {
                r.reports[0].wall_seconds += 1.5;
                r.to_json()
            })
            .collect();
        let verdict = reference.verify(&parsed(&lines), sent);
        assert_eq!(verdict.failed, 0, "{:?}", verdict.notes);
        assert_eq!(verdict.attempted, reference.windows() + 1);
    }

    #[test]
    fn rejects_a_dropped_window() {
        let (reports, mut lines, sent) = fixture();
        let reference = Reference::new(reports);
        lines.remove(1);
        let verdict = reference.verify(&parsed(&lines), sent);
        // The missing window, and Σseen falls short of the records sent.
        assert_eq!(verdict.failed, 2, "{:?}", verdict.notes);
        assert!(
            verdict.notes[0].starts_with("missing window"),
            "{:?}",
            verdict.notes
        );
    }

    #[test]
    fn rejects_a_duplicate_window() {
        let (reports, mut lines, sent) = fixture();
        let reference = Reference::new(reports);
        lines.push(lines[0].clone());
        let verdict = reference.verify(&parsed(&lines), sent);
        // The duplicate itself, its breaking of window order, Σseen over.
        assert_eq!(verdict.failed, 3, "{:?}", verdict.notes);
        assert!(verdict
            .notes
            .iter()
            .any(|n| n.starts_with("duplicate window")));
    }

    #[test]
    fn rejects_changed_and_garbled_lines() {
        let (reports, mut lines, sent) = fixture();
        let reference = Reference::new(reports);
        let mut changed = WindowReport::from_json(&lines[0]).unwrap();
        changed.kept -= 1;
        lines[0] = changed.to_json();
        lines.push("not json".into());
        let verdict = reference.verify(&parsed(&lines), sent);
        assert_eq!(verdict.failed, 2, "{:?}", verdict.notes);
    }
}
