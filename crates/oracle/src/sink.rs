//! Push-based sample ingestion: [`WindowedSink`].
//!
//! The pull-side seam ([`SampleOracle`](crate::SampleOracle)) assumes the
//! caller can *draw* whenever an algorithm needs samples. A process that
//! receives events — a socket, a log tail, a metrics pipe — cannot: records
//! arrive when they arrive, and the analysis must run over whatever the
//! current window holds. This module is the pull seam's push-side mirror:
//!
//! ```text
//!   events ──push──▶ WindowedSink ──window closes──▶ WindowSnapshot
//!                    │  reservoir lanes                │ frozen lanes
//!                    │  (plan-shaped)                  ▼
//!                    │                           ReplayOracle ──▶ the same
//!                    └── O(sample budget) memory        algorithms as pull
//! ```
//!
//! A [`WindowedSink`] is configured with the *lane shape* of a
//! `SamplePlan`-style draw (`main`, `r`, `m` — see [`SinkShape::new`];
//! `SamplePlan` lives in `khist-core`) and routes every pushed record to a
//! fixed-size [`Reservoir`] lane using the **same** `LaneRouter` and
//! SplitMix64 seed streams as [`RecordFileOracle`](crate::RecordFileOracle).
//! Consequence: pushing a record stream into window 0 of a sink seeded
//! with `s` leaves the lanes **bit-identical** to writing the same records
//! to a file and drawing the same plan through
//! `RecordFileOracle::open(path, n, s)` — push and pull are two transports
//! for one sampling process (property-tested in
//! `tests/monitor_push_pull.rs` at the workspace root).
//!
//! Two window policies:
//!
//! * [`Window::Tumbling`] — consecutive disjoint spans; each completed
//!   window freezes its one pane's lanes exactly (no resampling, no merge
//!   stream), so the bit-identity
//!   above holds per window (window `w > 0` uses the derived seed
//!   [`window_seed`]`(s, w)`).
//! * [`Window::Sliding`] — a span split into `span / step` *panes*; a
//!   window completes every `step` records and covers the last `span`.
//!   Frozen lanes are the [`Reservoir::merge`] of the panes' lanes —
//!   statistically a weighted union, *not* bit-identical to a pull over
//!   the same records (the merge resamples).
//!
//! # Memory follows the records, not the plan
//!
//! A sink retains at most `Σ lane sizes × panes` samples however long the
//! stream runs, but it only *reserves* what its records use:
//!
//! * a pane's lanes reserve nothing when the pane opens. A lane's first
//!   record reserves its expected share of the pane's `s` records,
//!   `⌈s · size / Σ sizes⌉` capped at its size (the whole span for a single
//!   lane, `⌈s / r⌉` for `r` round-robin lanes), and past that the lane
//!   doubles, never beyond its size. A key that sends a handful of records
//!   holds a handful of `u32` samples, not its plan;
//! * samples are stored as `u32` ([`SinkShape::new`] rejects `n >
//!   u32::MAX`);
//! * a retired pane is cleared and re-seeded as the next pane, so a
//!   stream's later windows reuse its lane buffers instead of allocating;
//! * lane RNGs are seeded on a lane's first post-fill offer (the fill
//!   phase draws nothing, so the seed streams are unchanged). Their storage
//!   comes with the lanes when a lane's expected share reaches its size,
//!   else on that first offer, so a pane whose lanes never fill holds
//!   none;
//! * the pane deque holds exactly `panes_per_window` slots, and the lane
//!   sizes, first-touch sizes and weighted-router thresholds live once per
//!   shape behind one `Arc`.
//!
//! Growth is allocation, so a warm batch stays allocation-free only once
//! each stream's lanes have reached their high-water mark; a window plan
//! whose lanes are expected to fill reserves everything on first touch.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use khist_dist::DistError;

use crate::oracle::{cumulative, first_touch, stream_seed, LaneRouter};
use crate::reservoir::Reservoir;
use crate::sample_set::SampleSet;

/// Salt mixed into the seed stream that drives sliding-window pane merges,
/// so merge randomness never collides with lane randomness.
const MERGE_SALT: u64 = 0x6d65_7267_655f_7631; // "merge_v1"

/// The lane-seed base of window (pane) `w` of a sink seeded with `base`.
///
/// Window 0 uses `base` itself — that is what makes a pushed first window
/// bit-identical to a pull through a `RecordFileOracle` opened with the
/// same seed, whose first draw also starts at stream 0 of `base`. Later
/// windows use SplitMix64-derived streams so their randomness is fresh but
/// still reproducible from `(base, w)` alone.
pub fn window_seed(base: u64, w: u64) -> u64 {
    if w == 0 {
        base
    } else {
        stream_seed(base, w)
    }
}

/// Windowing policy of a [`WindowedSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Consecutive disjoint windows of `span` records each.
    Tumbling {
        /// Records per window.
        span: u64,
    },
    /// Overlapping windows of `span` records, advancing every `step`
    /// records (`step` must divide `span`).
    Sliding {
        /// Records covered by each emitted window.
        span: u64,
        /// Records between consecutive window completions.
        step: u64,
    },
}

impl Window {
    /// Records per pane: the whole span (tumbling) or one step (sliding).
    fn pane_span(&self) -> u64 {
        match *self {
            Window::Tumbling { span } => span,
            Window::Sliding { step, .. } => step,
        }
    }

    /// Panes per emitted window.
    fn panes_per_window(&self) -> usize {
        match *self {
            Window::Tumbling { .. } => 1,
            Window::Sliding { span, step } => (span / step) as usize,
        }
    }
}

/// A frozen view of one window: the lane sample sets, in draw order, plus
/// the bookkeeping a report needs.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window id (0-based; tumbling windows count panes, sliding windows
    /// count completions).
    pub window: u64,
    /// Domain size the sink was declared over.
    pub n: usize,
    /// Global index of the first record in the window (inclusive).
    pub start: u64,
    /// Global index one past the last record in the window.
    pub end: u64,
    /// Records the window observed (`end - start`).
    pub seen: u64,
    /// Samples retained across all lanes.
    pub kept: u64,
    /// The lane-seed base of this window — passing it alongside the frozen
    /// lanes reproduces the reports exactly.
    pub seed: u64,
    /// Whether the window closed naturally (`false` for mid-window
    /// snapshots and end-of-stream flushes).
    pub complete: bool,
    /// Frozen lanes, in the draw order of the plan the sink was shaped by.
    pub lanes: Vec<SampleSet>,
}

impl WindowSnapshot {
    /// The union of all lanes as one multiset — the window's full retained
    /// sample, which drift checks compare across windows.
    pub fn merged(&self) -> SampleSet {
        match self.lanes.split_first() {
            None => SampleSet::from_samples(Vec::new()),
            Some((first, rest)) => rest.iter().fold(first.clone(), |acc, s| acc.merge(s)),
        }
    }
}

/// One pane of reservoir lanes: the unit of window rotation.
#[derive(Debug, Clone)]
struct Pane {
    /// Lane-seed base: `window_seed(sink seed, pane index)`.
    seed: u64,
    /// Global record index of the pane's first record.
    start: u64,
    /// Records routed into this pane so far.
    t: u64,
    lanes: Vec<Reservoir>,
    /// Lane `i`'s stream `stream_seed(seed, i)`, for every lane at once;
    /// empty until some lane's first post-fill offer. Reserved with the
    /// lanes when the shape expects a lane to fill (see
    /// [`Layout::fills`]), else on that first offer.
    rngs: Vec<StdRng>,
    router: LaneRouter,
}

impl Pane {
    /// Routes record `t` of the pane to its lane and offers it there.
    // lint:hot-path
    fn offer(&mut self, value: u32) {
        let lane = self.router.lane_of(self.t);
        self.t += 1;
        let Pane {
            seed, lanes, rngs, ..
        } = self;
        let count = lanes.len();
        // lint:allow(checked-indexing): lane_of returns an index below the lane count
        lanes[lane].offer_lazy(value, || {
            if rngs.is_empty() {
                rngs.extend(
                    (0..count).map(|i| StdRng::seed_from_u64(stream_seed(*seed, i as u64))),
                );
            }
            // lint:allow(checked-indexing): rngs holds one stream per lane, lane < count
            &mut rngs[lane]
        });
    }

    /// Turns a retired pane into a fresh one: empty lanes that keep their
    /// buffers, lane RNGs left to be re-seeded from `seed` on demand.
    fn recycle(&mut self, seed: u64, start: u64, router: LaneRouter) {
        self.seed = seed;
        self.start = start;
        self.t = 0;
        self.lanes.iter_mut().for_each(Reservoir::clear);
        self.rngs.clear();
        self.router = router;
    }
}

/// Which router shape the sink's plan calls for — mirrors the dispatch in
/// `SamplePlan::draw` (khist-core): a lone main set is one `draw_set`
/// lane, pure sets are round-robin `draw_sets` lanes, and main + sets are
/// weighted `draw_batch` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    Single,
    RoundRobin,
    Weighted,
}

/// Everything every sink of one shape shares, held once behind the
/// shape's `Arc`: a sink per stream costs one pointer to it.
#[derive(Debug, PartialEq, Eq)]
struct Layout {
    n: usize,
    window: Window,
    kind: LaneKind,
    /// Lane capacities in draw order (`[main?, m, m, …]`).
    sizes: Box<[usize]>,
    /// Each lane's first-touch reservation: its expected share of one
    /// pane's records.
    first_touch: Box<[usize]>,
    /// The weighted router's cumulative thresholds (empty for the other
    /// kinds).
    cum: Arc<[u64]>,
    /// Whether some lane's expected share reaches its capacity, so a pane
    /// is expected to need its lane RNGs: it then reserves them up front,
    /// like its lanes' first touch, instead of on its first post-fill
    /// offer.
    fills: bool,
}

impl Layout {
    /// The lane router of a pane seeded with `seed`.
    fn router(&self, seed: u64) -> LaneRouter {
        let lanes = self.sizes.len() as u64;
        match self.kind {
            LaneKind::Single => LaneRouter::Single,
            LaneKind::RoundRobin => LaneRouter::RoundRobin { lanes },
            LaneKind::Weighted => LaneRouter::weighted(
                Arc::clone(&self.cum),
                StdRng::seed_from_u64(stream_seed(seed, lanes)),
            ),
        }
    }
}

/// The validated lane shape of a [`WindowedSink`] — everything about a
/// sink *except* its seed and live state.
///
/// Validation (domain, window policy, lane sizes) happens once in
/// [`SinkShape::new`]; [`SinkShape::sink`] then stamps out a sink for any
/// seed without re-checking or re-deriving anything. A process that owns
/// thousands of keyed streams with identical configuration — the
/// multi-stream engine in `khist-core` — shares one shape across all of
/// them: the domain, window, lane sizes, first-touch sizes and router
/// thresholds sit behind one `Arc` that every stamped sink points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkShape {
    layout: Arc<Layout>,
}

impl SinkShape {
    /// Validates a sink configuration over domain `[0, n)` whose lanes
    /// match the draw a `SamplePlan { main, r, m }` would issue: one lane
    /// of `main` (when `r == 0`), `r` round-robin lanes of `m` (when
    /// `main == 0`), or a weighted `main` lane plus `r` lanes of `m`
    /// (both positive) — exactly the three entry points of the pull seam
    /// ([`draw_set`](crate::SampleOracle::draw_set) /
    /// [`draw_sets`](crate::SampleOracle::draw_sets) /
    /// [`draw_batch`](crate::SampleOracle::draw_batch)).
    ///
    /// Fails on a zero domain or one wider than `u32::MAX` (lanes store
    /// `u32` samples), degenerate windows (zero span; a sliding step that
    /// is zero or does not divide the span), or a plan that retains no
    /// samples.
    pub fn new(
        n: usize,
        window: Window,
        main: usize,
        r: usize,
        m: usize,
    ) -> Result<Self, DistError> {
        let bad = |reason: String| DistError::BadParameter { reason };
        if n == 0 {
            return Err(bad("sink domain must be non-empty".into()));
        }
        if n > u32::MAX as usize {
            return Err(bad(format!(
                "sink domain [0, {n}) exceeds the 32-bit sample range [0, {})",
                u32::MAX
            )));
        }
        match window {
            Window::Tumbling { span: 0 } => {
                return Err(bad("tumbling window span must be positive".into()));
            }
            Window::Sliding { span, step } if step == 0 || span == 0 || span % step != 0 => {
                return Err(bad(format!(
                    "sliding window needs step > 0 dividing span, got span {span} step {step}"
                )));
            }
            _ => {}
        }
        let (kind, sizes) = if r == 0 {
            if main == 0 {
                return Err(bad("window plan retains no samples (main = 0, r = 0)".into()));
            }
            (LaneKind::Single, vec![main])
        } else if m == 0 {
            return Err(bad(format!("window plan has {r} sets of zero samples")));
        } else if main == 0 {
            (LaneKind::RoundRobin, vec![m; r])
        } else {
            let mut sizes = Vec::with_capacity(r + 1);
            sizes.push(main);
            sizes.resize(r + 1, m);
            (LaneKind::Weighted, sizes)
        };
        let cum = match kind {
            LaneKind::Weighted => cumulative(&sizes),
            LaneKind::Single | LaneKind::RoundRobin => Arc::from([]),
        };
        let first_touch: Box<[usize]> = first_touch(&sizes, window.pane_span()).collect();
        let fills = sizes
            .iter()
            .zip(first_touch.iter())
            .any(|(size, share)| share >= size);
        Ok(SinkShape {
            layout: Arc::new(Layout {
                n,
                window,
                kind,
                first_touch,
                sizes: sizes.into(),
                cum,
                fills,
            }),
        })
    }

    /// Domain size records must lie in.
    pub fn domain_size(&self) -> usize {
        self.layout.n
    }

    /// The window policy.
    pub fn window(&self) -> Window {
        self.layout.window
    }

    /// Lane capacities in draw order (`[main?, m, m, …]`).
    pub fn lane_sizes(&self) -> &[usize] {
        &self.layout.sizes
    }

    /// Stamps out an empty sink of this shape seeded with `seed` — the
    /// cheap per-stream constructor: no re-validation and no allocation
    /// until the first record.
    pub fn sink(&self, seed: u64) -> WindowedSink {
        WindowedSink {
            layout: Arc::clone(&self.layout),
            seed,
            panes: VecDeque::new(),
            spare: false,
            seen: 0,
            next_pane_id: 0,
            next_window_id: 0,
            completed: VecDeque::new(),
        }
    }
}

/// The push side of a record stream: plan-shaped reservoir lanes behind
/// tumbling or sliding windows, built by [`SinkShape::sink`]. See the
/// [module docs](self) for the push≡pull bit-identity contract and the
/// memory policy.
#[derive(Debug, Clone)]
pub struct WindowedSink {
    layout: Arc<Layout>,
    seed: u64,
    /// At most `panes_per_window` panes, oldest first.
    panes: VecDeque<Pane>,
    /// Whether the front pane is retired — kept only so the next pane can
    /// reuse its buffers, and not part of any window.
    spare: bool,
    seen: u64,
    next_pane_id: u64,
    next_window_id: u64,
    completed: VecDeque<WindowSnapshot>,
}

impl WindowedSink {
    /// The domain size `n` records must lie in.
    pub fn domain_size(&self) -> usize {
        self.layout.n
    }

    /// The configured window policy.
    pub fn window(&self) -> Window {
        self.layout.window
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Lane capacities in draw order (`[main?, m, m, …]`).
    pub fn lane_sizes(&self) -> &[usize] {
        &self.layout.sizes
    }

    /// The panes of the current window, oldest first (a retired spare
    /// excluded).
    fn live(&self) -> impl Iterator<Item = &Pane> {
        self.panes.iter().skip(usize::from(self.spare))
    }

    /// Samples currently retained across all live panes — bounded by
    /// `Σ lane_sizes × panes_per_window` no matter how long the stream is.
    pub fn kept(&self) -> u64 {
        self.live()
            .flat_map(|p| p.lanes.iter())
            .map(|r| r.len() as u64)
            .sum()
    }

    /// Completed windows not yet collected.
    pub fn pending(&self) -> usize {
        self.completed.len()
    }

    /// Removes and returns the windows that completed since the last call,
    /// oldest first.
    pub fn drain_completed(&mut self) -> Vec<WindowSnapshot> {
        self.completed.drain(..).collect()
    }

    /// Opens the next pane at the back of the deque: the retired spare,
    /// cleared and re-seeded, when there is one; otherwise a new pane
    /// whose lanes reserve nothing until their first record. The deque is
    /// sized to exactly `panes_per_window` panes on first use.
    fn open_pane(&mut self) {
        let id = self.next_pane_id;
        self.next_pane_id += 1;
        let seed = window_seed(self.seed, id);
        let router = self.layout.router(seed);
        if std::mem::take(&mut self.spare) {
            if let Some(mut pane) = self.panes.pop_front() {
                pane.recycle(seed, self.seen, router);
                self.panes.push_back(pane);
                return;
            }
        }
        if self.panes.capacity() == 0 {
            let slots = self.layout.window.panes_per_window();
            self.panes.reserve_exact(slots);
        }
        let lanes = self
            .layout
            .sizes
            .iter()
            .zip(self.layout.first_touch.iter())
            .map(|(&size, &share)| Reservoir::with_first_touch(size, share))
            .collect();
        let rngs = if self.layout.fills {
            Vec::with_capacity(self.layout.sizes.len())
        } else {
            Vec::new()
        };
        self.panes.push_back(Pane {
            seed,
            start: self.seen,
            t: 0,
            lanes,
            rngs,
            router,
        });
    }

    /// Freezes the live panes (oldest first) into window `id`'s snapshot,
    /// copying each lane's kept samples once. A single pane — every
    /// tumbling window — is frozen verbatim and never touches the merge
    /// stream; several panes (sliding windows) fold lane-wise through
    /// [`Reservoir::merge`] with a merge stream derived from `(seed, id)`.
    fn freeze(&self, id: u64, complete: bool) -> WindowSnapshot {
        let oldest = self.live().next();
        let seed = oldest.map_or_else(|| window_seed(self.seed, id), |p| p.seed);
        let start = oldest.map_or(self.seen, |p| p.start);
        let seen: u64 = self.live().map(|p| p.t).sum();
        let mut merge_rng = StdRng::seed_from_u64(stream_seed(self.seed ^ MERGE_SALT, id));
        let lane_count = self.layout.sizes.len();
        let mut lanes = Vec::with_capacity(lane_count);
        let mut kept = 0;
        for lane in 0..lane_count {
            // lint:allow(checked-indexing): every pane is built with sizes.len() lanes
            let mut reservoirs = self.live().map(|p| &p.lanes[lane]);
            let set = match reservoirs.next() {
                None => SampleSet::from_samples(Vec::new()),
                Some(first) => reservoirs
                    .fold(Cow::Borrowed(first), |acc, r| {
                        Cow::Owned(acc.merge(r, &mut merge_rng))
                    })
                    .to_sample_set(),
            };
            kept += set.total();
            lanes.push(set);
        }
        WindowSnapshot {
            window: id,
            n: self.layout.n,
            start,
            end: start + seen,
            seen,
            kept,
            seed,
            complete,
            lanes,
        }
    }

    /// Handles a pane reaching its span: once the live panes cover a whole
    /// window (one pane when tumbling, `span / step` when sliding) they
    /// freeze into the next completed snapshot and the oldest pane
    /// retires to be the spare the next pane reuses. Tumbling window `w`
    /// is pane `w`, so one counter numbers both policies' windows.
    fn complete_pane(&mut self) {
        if self.live().count() == self.layout.window.panes_per_window() {
            let snap = self.freeze(self.next_window_id, true);
            self.next_window_id += 1;
            self.completed.push_back(snap);
            self.spare = true;
        }
    }

    /// Ingests one record. Fails (without consuming the record) when the
    /// record lies outside `[0, n)`.
    // lint:hot-path
    pub fn push(&mut self, value: usize) -> Result<(), DistError> {
        if value >= self.layout.n {
            return Err(out_of_domain(value, self.layout.n));
        }
        let pane_span = self.layout.window.pane_span();
        if self.panes.back().is_none_or(|p| p.t >= pane_span) {
            self.open_pane();
        }
        // lint:allow(no-panic): the open_pane branch above guarantees a back pane
        let pane = self.panes.back_mut().expect("pane just ensured");
        // value < n <= u32::MAX (checked by SinkShape::new), so the cast is exact.
        pane.offer(value as u32);
        let full = pane.t == pane_span;
        self.seen += 1;
        if full {
            self.complete_pane();
        }
        Ok(())
    }

    /// Ingests a batch of records in order; stops at the first bad record.
    pub fn push_all(&mut self, values: &[usize]) -> Result<(), DistError> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    /// Total records ingested so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Freezes the *current* (possibly partial) window without disturbing
    /// ingestion.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.freeze(self.next_window_id, false)
    }
}

/// Builds the out-of-domain rejection. Kept out of line so the error
/// formatting (the only allocation `push` could reach) stays off the
/// record-accepting hot path.
#[cold]
fn out_of_domain(value: usize, n: usize) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "record {value} outside declared domain [0, {n}); widen the domain or drop the record"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{RecordFileOracle, ReplayOracle, SampleOracle};
    use crate::test_util::temp_records;

    fn stream(len: usize, n: usize) -> Vec<usize> {
        (0..len).map(|i| (i * 7 + i * i) % n).collect()
    }

    #[test]
    fn rejects_degenerate_configurations() {
        assert!(SinkShape::new(0, Window::Tumbling { span: 10 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Tumbling { span: 0 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Sliding { span: 10, step: 3 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Sliding { span: 10, step: 0 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Tumbling { span: 10 }, 0, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Tumbling { span: 10 }, 0, 3, 0).is_err());
    }

    #[test]
    fn rejects_out_of_domain_records() {
        let mut sink = SinkShape::new(8, Window::Tumbling { span: 10 }, 5, 0, 0)
            .unwrap()
            .sink(1);
        assert!(sink.push(7).is_ok());
        let err = sink.push(8).unwrap_err().to_string();
        assert!(err.contains("record 8") && err.contains("[0, 8)"), "{err}");
        assert_eq!(sink.seen(), 1, "bad record must not count");
    }

    #[test]
    fn tumbling_windows_rotate_at_span() {
        let mut sink = SinkShape::new(16, Window::Tumbling { span: 100 }, 20, 0, 0)
            .unwrap()
            .sink(3);
        sink.push_all(&stream(250, 16)).unwrap();
        let done = sink.drain_completed();
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].start, done[0].end), (0, 100));
        assert_eq!((done[1].start, done[1].end), (100, 200));
        assert!(done.iter().all(|w| w.complete && w.seen == 100));
        assert_eq!(done[0].window, 0);
        assert_eq!(done[0].seed, 3, "window 0 must use the base seed");
        assert_eq!(done[1].seed, window_seed(3, 1));
        // The live partial window holds the remaining 50 records.
        let partial = sink.snapshot();
        assert_eq!((partial.start, partial.end), (200, 250));
        assert!(!partial.complete);
        assert_eq!(sink.pending(), 0);
    }

    #[test]
    fn single_lane_window_matches_record_file_draw_set() {
        // Push≡pull, draw_set shape: one lane of `main`.
        let records = stream(500, 32);
        let mut sink = SinkShape::new(32, Window::Tumbling { span: 500 }, 60, 0, 0)
            .unwrap()
            .sink(11);
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "single");
        let mut oracle = RecordFileOracle::open(&path, 32, 11).unwrap();
        assert_eq!(window.lanes, vec![oracle.draw_set(60)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_robin_window_matches_record_file_draw_sets() {
        // Push≡pull, draw_sets shape: r round-robin lanes of m.
        let records = stream(700, 32);
        let mut sink = SinkShape::new(32, Window::Tumbling { span: 700 }, 0, 5, 40)
            .unwrap()
            .sink(13);
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "rr");
        let mut oracle = RecordFileOracle::open(&path, 32, 13).unwrap();
        assert_eq!(window.lanes, oracle.draw_sets(5, 40));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weighted_window_matches_record_file_draw_batch() {
        // Push≡pull, draw_batch shape: main + r weighted lanes.
        let records = stream(2000, 32);
        let mut sink = SinkShape::new(32, Window::Tumbling { span: 2000 }, 120, 3, 50)
            .unwrap()
            .sink(17);
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "batch");
        let mut oracle = RecordFileOracle::open(&path, 32, 17).unwrap();
        assert_eq!(window.lanes, oracle.draw_batch(&[120, 50, 50, 50]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recycled_panes_match_record_file_draw_batch_per_window() {
        // Ten tumbling windows through one sink: every window after the
        // first runs on the retired pane's recycled buffers, and each must
        // still equal a pull over exactly that window's records seeded
        // with window_seed(s, w). At span 300 every lane overflows its
        // size (lane RNGs reserved up front); at span 90 the lanes expect
        // to stay in their fill phase (RNGs reserved on demand).
        for span in [300, 90] {
            let records = stream(10 * span, 32);
            let mut sink = SinkShape::new(32, Window::Tumbling { span: span as u64 }, 60, 3, 25)
                .unwrap()
                .sink(23);
            sink.push_all(&records).unwrap();
            let windows = sink.drain_completed();
            assert_eq!(windows.len(), 10);
            for (w, window) in windows.iter().enumerate() {
                let slice = &records[w * span..(w + 1) * span];
                let path = temp_records(slice, "recycle");
                let seed = window_seed(23, w as u64);
                let mut oracle = RecordFileOracle::open(&path, 32, seed).unwrap();
                assert_eq!(window.seed, seed);
                let pulled = oracle.draw_batch(&[60, 25, 25, 25]);
                assert_eq!(window.lanes, pulled, "span {span} window {w}");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn rejects_domains_beyond_u32_samples() {
        let wide = u32::MAX as usize + 1;
        let err = SinkShape::new(wide, Window::Tumbling { span: 10 }, 5, 0, 0).unwrap_err();
        assert!(matches!(err, DistError::BadParameter { .. }), "{err}");
        assert!(SinkShape::new(wide - 1, Window::Tumbling { span: 10 }, 5, 0, 0).is_ok());
    }

    #[test]
    fn memory_stays_bounded_by_lane_sizes() {
        let mut sink = SinkShape::new(64, Window::Tumbling { span: 1 << 20 }, 100, 4, 25)
            .unwrap()
            .sink(1);
        for i in 0..200_000usize {
            sink.push(i % 64).unwrap();
        }
        assert!(sink.kept() <= 100 + 4 * 25, "kept {}", sink.kept());
        assert_eq!(sink.seen(), 200_000);
    }

    #[test]
    fn sliding_windows_overlap_and_advance_by_step() {
        let mut sink = SinkShape::new(
            16,
            Window::Sliding {
                span: 200,
                step: 50,
            },
            30,
            0,
            0,
        )
        .unwrap()
        .sink(5);
        sink.push_all(&stream(320, 16)).unwrap();
        let done = sink.drain_completed();
        // First window completes at record 200, then every 50: 200, 250, 300.
        assert_eq!(done.len(), 3);
        assert_eq!((done[0].start, done[0].end), (0, 200));
        assert_eq!((done[1].start, done[1].end), (50, 250));
        assert_eq!((done[2].start, done[2].end), (100, 300));
        assert_eq!(done[2].window, 2);
        assert!(done.iter().all(|w| w.seen == 200 && w.kept <= 30));
        // Snapshot covers the live tail: panes at 150..320.
        let snap = sink.snapshot();
        assert_eq!((snap.start, snap.end), (150, 320));
    }

    #[test]
    fn snapshots_are_deterministic() {
        let run = || {
            let mut sink = SinkShape::new(
                16,
                Window::Sliding {
                    span: 100,
                    step: 25,
                },
                20,
                2,
                10,
            )
            .unwrap()
            .sink(9);
            sink.push_all(&stream(260, 16)).unwrap();
            (sink.drain_completed(), sink.snapshot())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_replay_and_merge_round_trip() {
        let mut sink = SinkShape::new(16, Window::Tumbling { span: 300 }, 40, 2, 20)
            .unwrap()
            .sink(2);
        sink.push_all(&stream(300, 16)).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        assert_eq!(window.kept, 40 + 2 * 20);
        let merged = window.merged();
        assert_eq!(merged.total(), window.kept);
        let mut replay = ReplayOracle::from_sets(window.n, window.lanes.clone());
        assert_eq!(replay.domain_size(), 16);
        let served = replay.draw_set(0);
        assert_eq!(served, window.lanes[0]);
        assert_eq!(replay.remaining(), 2);
        assert_eq!(replay.replayed(), 1);
    }

    #[test]
    fn shape_stamps_out_identical_sinks_cheaply() {
        // One validated shape, many per-stream sinks: a sink stamped from
        // a shape must behave bit-identically to one built directly.
        let shape = SinkShape::new(32, Window::Tumbling { span: 200 }, 30, 2, 10).unwrap();
        assert_eq!(shape.domain_size(), 32);
        assert_eq!(shape.lane_sizes(), &[30, 10, 10]);
        let records = stream(450, 32);
        for seed in [1u64, 7, 999] {
            let mut stamped = shape.sink(seed);
            let mut direct = SinkShape::new(32, Window::Tumbling { span: 200 }, 30, 2, 10)
                .unwrap()
                .sink(seed);
            stamped.push_all(&records).unwrap();
            direct.push_all(&records).unwrap();
            assert_eq!(stamped.drain_completed(), direct.drain_completed());
            assert_eq!(stamped.snapshot(), direct.snapshot());
        }
        // Shape validation rejects the same degenerate configs as the sink.
        assert!(SinkShape::new(0, Window::Tumbling { span: 10 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Tumbling { span: 10 }, 0, 0, 0).is_err());
    }
}
