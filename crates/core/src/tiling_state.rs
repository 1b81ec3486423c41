//! Incremental tiling maintenance for the greedy learner.
//!
//! Step 8 of Algorithm 1 forms `H_{J,y_J}` by inserting `(J, y_J, r_max+1)`
//! and *re-trimming* the neighbouring intervals so they no longer intersect
//! `J`. Operationally the priority histogram therefore always induces a
//! **tiling** of `[n]`: inserting `J` deletes every piece it fully covers
//! and trims the two straddling pieces. [`TilingState`] keeps that tiling
//! as a sorted `Vec` of `(lo, hi, cost)` rank pieces of a [`CostTable`]
//! (24 bytes each, at most `2q + 1` after `q` insertions) and the running
//! cost `Σ_I (z_I − y_I²/|I|)`. A preview (the greedy's hot loop) is two
//! binary searches, a sum and ≤ 3 table reads, and allocates nothing.

use khist_dist::Interval;

use crate::cost::CostTable;

/// A tiling of `[0, n−1]` by pieces of a [`CostTable`], with their costs.
#[derive(Debug, Clone)]
pub struct TilingState<'t> {
    table: &'t CostTable,
    /// `(lo, hi, cost)` per piece `[B_lo, B_hi)`, in order, over every rank.
    pieces: Vec<(usize, usize, f64)>,
    total_cost: f64,
}

impl<'t> TilingState<'t> {
    /// The initial state: a single piece covering the whole domain.
    ///
    /// Algorithm 1 starts from the empty priority histogram; its first
    /// insertion produces `{I_L, J, I_R}`, which is exactly what inserting
    /// `J` into the full-domain single piece yields, so the two formulations
    /// coincide from the first iteration onward.
    pub fn new(table: &'t CostTable) -> Self {
        let last = table.bounds().len() - 1;
        let cost = table.cost(0, last);
        TilingState {
            table,
            pieces: vec![(0, last, cost)],
            total_cost: cost,
        }
    }

    /// Iterates over the pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = Interval> + '_ {
        self.pieces
            .iter()
            .map(|&(lo, hi, _)| self.table.interval(lo, hi))
    }

    /// Index range of the pieces overlapping `[B_lo, B_hi)`; never empty.
    fn overlapped(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        debug_assert!(lo < hi && hi < self.table.bounds().len());
        self.pieces.partition_point(|p| p.1 <= lo)..self.pieces.partition_point(|p| p.0 < hi)
    }

    /// The total cost the state would have after inserting the piece
    /// `[B_lo, B_hi)`, without mutating anything. This is the greedy's
    /// candidate score `c_J`.
    pub fn preview_insert(&self, lo: usize, hi: usize) -> f64 {
        // lint:allow(checked-indexing): two partition points, first <= end <= len
        let over = &self.pieces[self.overlapped(lo, hi)];
        let removed: f64 = over.iter().map(|p| p.2).sum();
        let mut added = self.table.cost(lo, hi);
        if let Some(&(first_lo, ..)) = over.first().filter(|p| p.0 < lo) {
            added += self.table.cost(first_lo, lo);
        }
        if let Some(&(_, last_hi, _)) = over.last().filter(|p| p.1 > hi) {
            added += self.table.cost(hi, last_hi);
        }
        self.total_cost - removed + added
    }

    /// Inserts `[B_lo, B_hi)` at top priority: deletes covered pieces, trims
    /// straddling ones, and returns the newly created pieces (left trim,
    /// `J`, right trim — in order) so the caller can record them in the
    /// priority histogram with their values.
    pub fn insert(&mut self, lo: usize, hi: usize) -> Vec<Interval> {
        let span = self.overlapped(lo, hi);
        // lint:allow(checked-indexing): two partition points, first <= end <= len
        let over = &self.pieces[span.clone()];
        let left = over.first().filter(|p| p.0 < lo).map(|p| (p.0, lo));
        let right = over.last().filter(|p| p.1 > hi).map(|p| (hi, p.1));
        for p in over {
            self.total_cost -= p.2;
        }
        let created: Vec<(usize, usize, f64)> = left
            .into_iter()
            .chain([(lo, hi)])
            .chain(right)
            .map(|(a, b)| (a, b, self.table.cost(a, b)))
            .collect();
        for p in &created {
            self.total_cost += p.2;
        }
        self.pieces.splice(span, created.iter().copied());
        created
            .iter()
            .map(|&(a, b, _)| self.table.interval(a, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostOracle, ExactCostOracle};
    use khist_dist::{generators, DenseDistribution};
    use proptest::prelude::*;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// Every position a boundary, so the rank of `x` is `x`.
    fn table(n: usize, o: &impl CostOracle) -> CostTable {
        o.cost_table(n, &(0..n).collect::<Vec<_>>()).unwrap()
    }

    fn ins(st: &mut TilingState, j: Interval) -> Vec<Interval> {
        st.insert(j.lo(), j.hi() + 1)
    }

    impl TilingState<'_> {
        fn total_cost(&self) -> f64 {
            self.total_cost
        }

        fn piece_count(&self) -> usize {
            self.pieces.len()
        }

        fn interior_cuts(&self) -> Vec<usize> {
            self.pieces().skip(1).map(|iv| iv.lo()).collect()
        }

        /// Contiguous cover of `[0, n−1]`.
        fn check_invariants(&self) -> bool {
            let mut expected = 0;
            for iv in self.pieces() {
                if iv.lo() != expected {
                    return false;
                }
                expected = iv.hi() + 1;
            }
            expected == self.table.bounds()[self.table.bounds().len() - 1]
        }
    }

    #[test]
    fn full_domain_initial_state() {
        let p = generators::zipf(16, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(16, &o);
        let st = TilingState::new(&t);
        assert_eq!(st.piece_count(), 1);
        assert!((st.total_cost() - p.flatten_sse(iv(0, 15))).abs() < 1e-15);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_middle_splits_into_three() {
        let p = generators::zipf(16, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(16, &o);
        let mut st = TilingState::new(&t);
        let created = ins(&mut st, iv(5, 9));
        assert_eq!(created, vec![iv(0, 4), iv(5, 9), iv(10, 15)]);
        assert_eq!(st.piece_count(), 3);
        assert!(st.check_invariants());
        let expect = p.flatten_sse(iv(0, 4)) + p.flatten_sse(iv(5, 9)) + p.flatten_sse(iv(10, 15));
        assert!((st.total_cost() - expect).abs() < 1e-14);
    }

    #[test]
    fn insert_prefix_and_suffix() {
        let p = DenseDistribution::uniform(10).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(10, &o);
        let mut st = TilingState::new(&t);
        let created = ins(&mut st, iv(0, 3));
        assert_eq!(created, vec![iv(0, 3), iv(4, 9)]);
        let created = ins(&mut st, iv(7, 9));
        assert_eq!(created, vec![iv(4, 6), iv(7, 9)]);
        assert_eq!(st.interior_cuts(), vec![4, 7]);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_covering_everything_resets() {
        let p = generators::zipf(12, 0.7).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(12, &o);
        let mut st = TilingState::new(&t);
        ins(&mut st, iv(3, 5));
        ins(&mut st, iv(7, 9));
        assert!(st.piece_count() > 1);
        let created = ins(&mut st, iv(0, 11));
        assert_eq!(created, vec![iv(0, 11)]);
        assert_eq!(st.piece_count(), 1);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_absorbing_interior_breakpoints() {
        // Inserting an interval covering existing cuts removes them.
        let p = DenseDistribution::uniform(20).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(20, &o);
        let mut st = TilingState::new(&t);
        ins(&mut st, iv(4, 7)); // pieces [0,3][4,7][8,19]
        ins(&mut st, iv(12, 13)); // [0,3][4,7][8,11][12,13][14,19]
        assert_eq!(st.piece_count(), 5);
        let created = ins(&mut st, iv(5, 15));
        // left trim [4,4], J, right trim [16,19]
        assert_eq!(created, vec![iv(4, 4), iv(5, 15), iv(16, 19)]);
        assert_eq!(st.piece_count(), 4); // [0,3][4,4][5,15][16,19]
        assert!(st.check_invariants());
    }

    #[test]
    fn preview_matches_commit() {
        let p = generators::discrete_gaussian(24, 10.0, 4.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(24, &o);
        let mut st = TilingState::new(&t);
        ins(&mut st, iv(6, 11));
        ins(&mut st, iv(18, 20));
        for (lo, hi) in [
            (0usize, 23usize),
            (3, 8),
            (11, 18),
            (22, 23),
            (0, 0),
            (6, 11),
        ] {
            let j = iv(lo, hi);
            let preview = st.preview_insert(j.lo(), j.hi() + 1);
            let mut copy = st.clone();
            ins(&mut copy, j);
            assert!(
                (preview - copy.total_cost()).abs() < 1e-12,
                "preview {preview} vs committed {} for {j}",
                copy.total_cost()
            );
            assert!(copy.check_invariants());
        }
    }

    #[test]
    fn exact_cost_equals_projection_sse() {
        // With the exact oracle, total_cost equals the SSE of projecting p
        // onto the state's partition.
        let p = generators::zipf(32, 1.3).unwrap();
        let o = ExactCostOracle::new(&p);
        let t = table(32, &o);
        let mut st = TilingState::new(&t);
        ins(&mut st, iv(0, 3));
        ins(&mut st, iv(10, 17));
        ins(&mut st, iv(24, 31));
        let cuts = st.interior_cuts();
        let h = khist_dist::TilingHistogram::project(&p, &cuts).unwrap();
        assert!((st.total_cost() - h.l2_sq_to(&p)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_random_insertions_keep_invariants(
            ops in proptest::collection::vec((0usize..40, 0usize..40), 1..25),
        ) {
            let n = 40;
            let p = DenseDistribution::uniform(n).unwrap();
            let o = ExactCostOracle::new(&p);
            let t = table(n, &o);
        let mut st = TilingState::new(&t);
            for &(a, b) in &ops {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let j = iv(lo, hi);
                let preview = st.preview_insert(j.lo(), j.hi() + 1);
                let created = ins(&mut st, j);
                prop_assert!(st.check_invariants());
                prop_assert!((preview - st.total_cost()).abs() < 1e-9);
                prop_assert!(created.contains(&j));
                prop_assert!(created.len() <= 3);
            }
            // piece count grows by at most 2 per insertion
            prop_assert!(st.piece_count() <= 1 + 2 * ops.len());
        }

        #[test]
        fn prop_cost_tracks_projection(
            ops in proptest::collection::vec((0usize..30, 0usize..30), 1..12),
            ws in proptest::collection::vec(0.01f64..1.0, 30),
        ) {
            let p = DenseDistribution::from_weights(&ws).unwrap();
            let o = ExactCostOracle::new(&p);
            let t = table(30, &o);
        let mut st = TilingState::new(&t);
            for &(a, b) in &ops {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                ins(&mut st, iv(lo, hi));
            }
            let h = khist_dist::TilingHistogram::project(&p, &st.interior_cuts()).unwrap();
            prop_assert!((st.total_cost() - h.l2_sq_to(&p)).abs() < 1e-9,
                         "state {} vs projection {}", st.total_cost(), h.l2_sq_to(&p));
        }
    }
}
