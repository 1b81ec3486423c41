//! The greedy learner is bit-identical to its per-interval formulation.
//!
//! `reference` below is a test-only copy of the learner as it scored
//! candidates one interval at a time: a `RefCell<BTreeMap>` memo of
//! `(y_I, z_I)` per interval, a `BTreeMap` tiling keyed by piece start that
//! collects the overlapped pieces into a `Vec` per preview, and the same
//! first-index `b <= cost` candidate loop. It is written against public
//! `khist_oracle`/`khist_dist` items only. The library path (rank-indexed
//! cost table, flat tiling) must reproduce its `GreedyOutcome` exactly:
//! priority entries and levels, tiling densities to the bit, and
//! `GreedyStats`.

use khist::cost::{CostOracle, ExactCostOracle, SampleCostOracle};
use khist::dist::{DenseDistribution, Interval};
use khist::greedy::{
    greedy_with_oracle, learn_from_samples, CandidatePolicy, GreedyOutcome, GreedyParams,
};
use khist::oracle::{LearnerBudget, SampleSet};
use khist::tiling_state::TilingState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    use khist::dist::{DenseDistribution, Interval, PriorityHistogram, TilingHistogram};
    use khist::greedy::{GreedyOutcome, GreedyStats};
    use khist::oracle::{MedianBooster, SampleSet};

    pub trait Oracle {
        fn weight(&self, iv: Interval) -> f64;
        fn power(&self, iv: Interval) -> f64;
        fn piece_cost(&self, iv: Interval) -> f64 {
            self.power(iv) - self.weight(iv).powi(2) / iv.len() as f64
        }
    }

    /// `(y, z)` per interval, memoized.
    pub struct Memo<'a> {
        main: &'a SampleSet,
        booster: MedianBooster<'a>,
        cache: RefCell<BTreeMap<(usize, usize), (f64, f64)>>,
    }

    impl<'a> Memo<'a> {
        pub fn new(main: &'a SampleSet, sets: &'a [SampleSet]) -> Self {
            Memo {
                main,
                booster: MedianBooster::new(sets),
                cache: RefCell::new(BTreeMap::new()),
            }
        }

        fn lookup(&self, iv: Interval) -> (f64, f64) {
            let key = (iv.lo(), iv.hi());
            if let Some(&v) = self.cache.borrow().get(&key) {
                return v;
            }
            let v = (
                self.main.empirical_mass(iv),
                self.booster.absolute_median(iv),
            );
            self.cache.borrow_mut().insert(key, v);
            v
        }
    }

    impl Oracle for Memo<'_> {
        fn weight(&self, iv: Interval) -> f64 {
            self.lookup(iv).0
        }
        fn power(&self, iv: Interval) -> f64 {
            self.lookup(iv).1
        }
    }

    pub struct Exact<'a>(pub &'a DenseDistribution);

    impl Oracle for Exact<'_> {
        fn weight(&self, iv: Interval) -> f64 {
            self.0.interval_mass(iv)
        }
        fn power(&self, iv: Interval) -> f64 {
            self.0.interval_power_sum(iv)
        }
    }

    /// piece start → (piece end inclusive, piece cost)
    pub struct Tiling {
        pieces: BTreeMap<usize, (usize, f64)>,
        total_cost: f64,
    }

    impl Tiling {
        pub fn full_domain(n: usize, oracle: &impl Oracle) -> Self {
            let cost = oracle.piece_cost(Interval::full(n).unwrap());
            Tiling {
                pieces: BTreeMap::from([(0, (n - 1, cost))]),
                total_cost: cost,
            }
        }

        fn overlapping(&self, j: Interval) -> Vec<(usize, usize, f64)> {
            let first = *self.pieces.range(..=j.lo()).next_back().unwrap().0;
            self.pieces
                .range(first..)
                .take_while(|(&lo, _)| lo <= j.hi())
                .map(|(&lo, &(hi, cost))| (lo, hi, cost))
                .collect()
        }

        pub fn preview_insert(&self, j: Interval, oracle: &impl Oracle) -> f64 {
            let overlapped = self.overlapping(j);
            let removed: f64 = overlapped.iter().map(|&(_, _, c)| c).sum();
            let mut added = oracle.piece_cost(j);
            let (first_lo, _, _) = overlapped[0];
            let (_, last_hi, _) = overlapped[overlapped.len() - 1];
            if first_lo < j.lo() {
                added += oracle.piece_cost(Interval::new(first_lo, j.lo() - 1).unwrap());
            }
            if last_hi > j.hi() {
                added += oracle.piece_cost(Interval::new(j.hi() + 1, last_hi).unwrap());
            }
            self.total_cost - removed + added
        }

        pub fn insert(&mut self, j: Interval, oracle: &impl Oracle) -> Vec<Interval> {
            let overlapped = self.overlapping(j);
            let (first_lo, _, _) = overlapped[0];
            let (_, last_hi, _) = overlapped[overlapped.len() - 1];
            for &(lo, _, cost) in &overlapped {
                self.pieces.remove(&lo);
                self.total_cost -= cost;
            }
            let mut created = Vec::new();
            if first_lo < j.lo() {
                created.push(Interval::new(first_lo, j.lo() - 1).unwrap());
            }
            created.push(j);
            if last_hi > j.hi() {
                created.push(Interval::new(j.hi() + 1, last_hi).unwrap());
            }
            for &iv in &created {
                let cost = oracle.piece_cost(iv);
                self.pieces.insert(iv.lo(), (iv.hi(), cost));
                self.total_cost += cost;
            }
            created
        }
    }

    /// The greedy loop over every interval `[a, b]`, `a <= b`, of the
    /// endpoint list, `a`-major.
    pub fn greedy(n: usize, oracle: &impl Oracle, endpoints: &[usize], q: usize) -> GreedyOutcome {
        let mut candidates = Vec::new();
        for (i, &a) in endpoints.iter().enumerate() {
            for &b in &endpoints[i..] {
                candidates.push(Interval::new(a, b).unwrap());
            }
        }
        let mut state = Tiling::full_domain(n, oracle);
        let mut priority = PriorityHistogram::new();
        let mut stats = GreedyStats {
            endpoints_used: endpoints.len(),
            ..GreedyStats::default()
        };
        for _ in 0..q {
            let mut best: Option<(f64, Interval)> = None;
            for &j in &candidates {
                let cost = state.preview_insert(j, oracle);
                stats.candidates_evaluated += 1;
                match best {
                    Some((b, _)) if b <= cost => {}
                    _ => best = Some((cost, j)),
                }
            }
            let created = state.insert(best.unwrap().1, oracle);
            priority.push_level(
                created
                    .iter()
                    .map(|&iv| (iv, oracle.weight(iv) / iv.len() as f64)),
            );
            stats.iterations += 1;
        }
        let pieces: Vec<(Interval, f64)> = state
            .pieces
            .iter()
            .map(|(&lo, &(hi, _))| {
                let iv = Interval::new(lo, hi).unwrap();
                (iv, oracle.weight(iv) / iv.len() as f64)
            })
            .collect();
        GreedyOutcome {
            priority,
            tiling: TilingHistogram::from_pieces(&pieces, n).unwrap(),
            stats,
        }
    }
}

/// The sample-endpoint list the learner derives, for `n >= 2` and caps
/// other than 1 (evenly subsampled to the cap).
fn sample_endpoints(n: usize, main: &SampleSet, cap: usize) -> Vec<usize> {
    let mut endpoints = main.endpoint_candidates(n);
    if endpoints.is_empty() {
        endpoints = vec![0, n - 1];
    }
    cap_endpoints(endpoints, cap)
}

fn cap_endpoints(endpoints: Vec<usize>, cap: usize) -> Vec<usize> {
    if cap == 0 || endpoints.len() <= cap {
        return endpoints;
    }
    let len = endpoints.len();
    let mut kept: Vec<usize> = (0..cap)
        .map(|i| endpoints[i * (len - 1) / (cap - 1)])
        .collect();
    kept.dedup();
    kept
}

fn grid_endpoints(n: usize, stride: usize) -> Vec<usize> {
    let mut g: Vec<usize> = (0..n).step_by(stride).collect();
    if *g.last().unwrap() != n - 1 {
        g.push(n - 1);
    }
    g
}

fn assert_same(new: &GreedyOutcome, old: &GreedyOutcome, what: &str) {
    assert_eq!(new.stats, old.stats, "{what}: stats");
    assert_eq!(
        new.priority.levels(),
        old.priority.levels(),
        "{what}: levels"
    );
    // Debug prints every f64 in its shortest round-trip form, so equal
    // text means equal bits (NaN payloads aside).
    assert_eq!(
        format!("{:?}", new.priority),
        format!("{:?}", old.priority),
        "{what}: priority entries"
    );
    let bits = |o: &GreedyOutcome| -> Vec<(Interval, u64)> {
        o.tiling.pieces().map(|(iv, d)| (iv, d.to_bits())).collect()
    };
    assert_eq!(bits(new), bits(old), "{what}: tiling densities");
}

/// A skewed random distribution over `[n]`: a few heavy runs, so samples
/// collide and leave gaps.
fn skewed(n: usize, rng: &mut StdRng) -> DenseDistribution {
    let weights: Vec<f64> = (0..n)
        .map(|_| rng.random_range(0.0..1.0f64).powi(6) + 1e-3)
        .collect();
    DenseDistribution::from_weights(&weights).unwrap()
}

fn budget(q: usize) -> LearnerBudget {
    // Only `q` drives the loop; the sample sizes are the sets handed in.
    LearnerBudget {
        xi: 0.1,
        ell: 0,
        r: 0,
        m: 0,
        q,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sample_learner_matches_reference(
        n in 2usize..600,
        ell in 0usize..400,
        r in 1usize..10,
        m in 2usize..60,
        q in 1usize..6,
        stride in 1usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = skewed(n, &mut rng);
        // An empty main set every few cases: ell below 40 means none.
        let main = SampleSet::draw(&p, if ell < 40 { 0 } else { ell }, &mut rng);
        let sets = SampleSet::draw_many(&p, m, r, &mut rng);
        let memo = reference::Memo::new(&main, &sets);
        let stride = stride.min(n);
        let mut runs: Vec<(CandidatePolicy, usize, Vec<usize>)> = [0, 2, 7, 128]
            .into_iter()
            .map(|cap| (CandidatePolicy::SampleEndpoints, cap, sample_endpoints(n, &main, cap)))
            .collect();
        runs.push((CandidatePolicy::All, 0, (0..n).collect()));
        runs.push((CandidatePolicy::Grid(stride), 0, grid_endpoints(n, stride)));
        for (policy, cap, endpoints) in runs {
            let params = GreedyParams {
                k: 3,
                eps: 0.2,
                budget: budget(q),
                policy,
                max_endpoints: cap,
            };
            let mut new = learn_from_samples(n, &main, &sets, &params).unwrap();
            prop_assert_eq!(new.stats.samples_used, main.total() as usize + r * m);
            new.stats.samples_used = 0;
            let old = reference::greedy(n, &memo, &endpoints, q);
            assert_same(&new, &old, &format!("{policy:?} cap {cap} n {n} r {r} q {q}"));
        }
    }

    #[test]
    fn exact_greedy_matches_reference(
        n in 1usize..300,
        picks in proptest::collection::vec(0usize..300, 1..40),
        q in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = skewed(n, &mut rng);
        let mut endpoints: Vec<usize> = picks.into_iter().map(|e| e % n).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let new = greedy_with_oracle(n, &ExactCostOracle::new(&p), &endpoints, q).unwrap();
        let old = reference::greedy(n, &reference::Exact(&p), &endpoints, q);
        assert_same(&new, &old, &format!("exact n {n} endpoints {endpoints:?} q {q}"));
    }

    #[test]
    fn previews_match_reference(
        n in 1usize..48,
        ell in 0usize..200,
        r in 1usize..6,
        ops in proptest::collection::vec((0usize..48, 0usize..48), 1..8),
        seed in 0u64..u64::MAX,
    ) {
        // Every candidate's score, not just the argmin: the table entries
        // and the order of `total − removed + added` must match to the bit.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = skewed(n, &mut rng);
        let main = SampleSet::draw(&p, ell, &mut rng);
        let sets = SampleSet::draw_many(&p, 20, r, &mut rng);
        let memo = reference::Memo::new(&main, &sets);
        let table = SampleCostOracle::new(&main, &sets)
            .cost_table(n, &(0..n).collect::<Vec<_>>())
            .unwrap();
        // Every position is a boundary, so rank(x) = x.
        let mut state = TilingState::new(&table);
        let mut old = reference::Tiling::full_domain(n, &memo);
        for (a, b) in ops {
            for lo in 0..n {
                for hi in lo..n {
                    let j = Interval::new(lo, hi).unwrap();
                    prop_assert_eq!(
                        state.preview_insert(lo, hi + 1).to_bits(),
                        old.preview_insert(j, &memo).to_bits()
                    );
                }
            }
            let (a, b) = (a % n, b % n);
            let (lo, hi) = (a.min(b), a.max(b));
            let j = Interval::new(lo, hi).unwrap();
            prop_assert_eq!(state.insert(lo, hi + 1), old.insert(j, &memo));
        }
    }
}
