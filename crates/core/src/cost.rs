//! Cost oracles for the greedy learner.
//!
//! Algorithm 1 scores a candidate configuration by
//! `c_J = Σ_{I ∈ H_{J,y_J}} (z_I − y_I²/|I|)` where `y_I` estimates the
//! interval weight `p(I)` (from the main sample, Step 2) and `z_I` estimates
//! the power sum `Σ_{i∈I} p_i²` (median of collision estimates, Step 4).
//! The per-piece term `z_I − y_I²/|I|` is the plug-in estimate of the
//! flattening SSE `Σ_{i∈I} p_i² − p(I)²/|I|` (Equation 12).
//!
//! The greedy reads them from a [`CostTable`]: the cost of every piece
//! `[B_i, B_j)` over a boundary set `B`, filled once per learn call into one
//! triangular `Vec<f64>` of `|B|(|B|−1)/2` entries (about 265 KB at the
//! 128-endpoint cap, `|B| ≤ 258`). Two oracles fill it:
//!
//! * [`SampleCostOracle`] — the real thing, from sample-set prefix counts;
//! * [`ExactCostOracle`] — plugs in the true `p(I)` and `Σ p_i²`; used by
//!   tests and ablations to isolate the greedy's convergence behaviour from
//!   sampling noise.

// lint:allow-file(checked-indexing): every index is a rank below bounds.len(), prefix tables too.

use khist_dist::{DenseDistribution, DistError, Interval};
use khist_oracle::{
    absolute_collision_ratio, empirical_fraction, median_in_place, MedianBooster, SampleSet,
};

/// `z − y²/len`: the one expression behind every piece cost.
fn flatten_cost(y: f64, z: f64, len: usize) -> f64 {
    z - y.powi(2) / len as f64
}

/// Interval-cost interface consumed by the greedy learner.
pub trait CostOracle {
    /// Estimate `y_I` of the interval weight `p(I)`.
    fn weight(&self, iv: Interval) -> f64;

    /// Estimate `z_I` of the interval power sum `Σ_{i∈I} p_i²`.
    fn power(&self, iv: Interval) -> f64;

    /// Plug-in flattening-SSE estimate `z_I − y_I²/|I|`.
    ///
    /// May be negative under sampling noise; the greedy only compares sums
    /// of these values, which the analysis (Equations 13–18) accounts for.
    fn piece_cost(&self, iv: Interval) -> f64 {
        flatten_cost(self.weight(iv), self.power(iv), iv.len())
    }

    /// The [`piece_cost`](CostOracle::piece_cost) of every piece the greedy
    /// can create over `endpoints` (non-empty, sorted, below `n`).
    fn cost_table(&self, n: usize, endpoints: &[usize]) -> Result<CostTable, DistError> {
        let bounds = CostTable::bounds_of(n, endpoints)?;
        Ok(CostTable::fill(bounds, |_, _, iv| self.piece_cost(iv)))
    }
}

/// Piece costs over a boundary set `B = {0 = B_0 < B_1 < … < B_last = n}`:
/// `cost(i, j)` is the cost of `[B_i, B_j − 1]`, stored row `i` by row.
#[derive(Debug, Clone)]
pub struct CostTable {
    bounds: Vec<usize>,
    costs: Vec<f64>,
}

impl CostTable {
    /// `B = {0, n} ∪ E ∪ {e + 1 : e ∈ E}` for sorted endpoints `E` below `n`:
    /// every candidate over `E`, and every trim beside one, ends in `B`.
    fn bounds_of(n: usize, endpoints: &[usize]) -> Result<Vec<usize>, DistError> {
        if endpoints.last().is_none_or(|&e| e >= n) || !endpoints.is_sorted() {
            return Err(DistError::BadParameter {
                reason: format!("candidate endpoints must be non-empty, sorted and below n = {n}"),
            });
        }
        let mut bounds: Vec<usize> = [0, n]
            .into_iter()
            .chain(endpoints.iter().flat_map(|&e| [e, e + 1]))
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        Ok(bounds)
    }

    fn fill(bounds: Vec<usize>, mut cost: impl FnMut(usize, usize, Interval) -> f64) -> Self {
        let mut table = CostTable {
            bounds,
            costs: Vec::new(),
        };
        let nb = table.bounds.len();
        table.costs = (0..nb)
            .flat_map(|i| (i + 1..nb).map(move |j| (i, j)))
            .map(|(i, j)| cost(i, j, table.interval(i, j)))
            .collect();
        table
    }

    /// The boundary set `B`, sorted.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The number of boundaries below `x`: the rank of `x` when `x ∈ B`.
    pub fn rank(&self, x: usize) -> usize {
        self.bounds.partition_point(|&b| b < x)
    }

    /// Cost of the piece `[B_lo, B_hi − 1]`; needs `lo < hi < |B|`.
    pub fn cost(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo < hi && hi < self.bounds.len());
        // Rows before `lo` hold Σ_{t<lo} (|B|−1−t) entries.
        self.costs[lo * (2 * self.bounds.len() - lo - 3) / 2 + hi - 1]
    }

    /// The piece `[B_lo, B_hi − 1]`; needs `lo < hi < |B|`.
    pub fn interval(&self, lo: usize, hi: usize) -> Interval {
        // lint:allow(no-panic): bounds rise strictly, so B_lo <= B_hi - 1 for lo < hi
        Interval::new(self.bounds[lo], self.bounds[hi] - 1).expect("ranks in order")
    }
}

/// Cost oracle backed by the paper's sample statistics.
pub struct SampleCostOracle<'a> {
    main: &'a SampleSet,
    booster: MedianBooster<'a>,
}

impl<'a> SampleCostOracle<'a> {
    /// Builds the oracle from the main sample (for `y`) and the `r`
    /// collision sets (for `z`).
    pub fn new(main: &'a SampleSet, collision_sets: &'a [SampleSet]) -> Self {
        SampleCostOracle {
            main,
            booster: MedianBooster::new(collision_sets),
        }
    }

    /// The main sample set (used for candidate generation in Theorem 2).
    pub fn main(&self) -> &'a SampleSet {
        self.main
    }
}

impl CostOracle for SampleCostOracle<'_> {
    fn weight(&self, iv: Interval) -> f64 {
        self.main.empirical_mass(iv)
    }

    fn power(&self, iv: Interval) -> f64 {
        self.booster.absolute_median(iv)
    }

    /// Same bits as `piece_cost`, from prefix counts read once per boundary.
    fn cost_table(&self, n: usize, endpoints: &[usize]) -> Result<CostTable, DistError> {
        let bounds = CostTable::bounds_of(n, endpoints)?;
        let below = |s: &SampleSet| -> Vec<(u64, u64)> {
            bounds.iter().map(|&b| s.prefix_below(b)).collect()
        };
        let (main, sets) = (below(self.main), self.booster.sets());
        let colls: Vec<_> = sets.iter().map(below).collect();
        let mut z = vec![0.0; sets.len()];
        Ok(CostTable::fill(bounds, |i, j, iv| {
            for ((slot, set), c) in z.iter_mut().zip(sets).zip(&colls) {
                *slot = absolute_collision_ratio(c[j].1 - c[i].1, set.total());
            }
            let y = empirical_fraction(main[j].0 - main[i].0, self.main.total());
            flatten_cost(y, median_in_place(&mut z).unwrap_or(0.0), iv.len())
        }))
    }
}

/// Cost oracle that reads the true distribution (noise-free ablation).
pub struct ExactCostOracle<'a> {
    p: &'a DenseDistribution,
}

impl<'a> ExactCostOracle<'a> {
    /// Wraps the true distribution.
    pub fn new(p: &'a DenseDistribution) -> Self {
        ExactCostOracle { p }
    }
}

impl CostOracle for ExactCostOracle<'_> {
    fn weight(&self, iv: Interval) -> f64 {
        self.p.interval_mass(iv)
    }

    fn power(&self, iv: Interval) -> f64 {
        self.p.interval_power_sum(iv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_dist::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn exact_oracle_matches_distribution() {
        let p = generators::zipf(20, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let i = iv(2, 7);
        assert_eq!(o.weight(i), p.interval_mass(i));
        assert_eq!(o.power(i), p.interval_power_sum(i));
        assert!((o.piece_cost(i) - p.flatten_sse(i)).abs() < 1e-15);
    }

    #[test]
    fn exact_piece_cost_zero_on_flat() {
        let p = DenseDistribution::uniform(16).unwrap();
        let o = ExactCostOracle::new(&p);
        assert!(o.piece_cost(iv(0, 15)).abs() < 1e-15);
        assert!(o.piece_cost(iv(3, 9)).abs() < 1e-15);
    }

    #[test]
    fn sample_oracle_estimates_converge() {
        let p = generators::two_level(32, 0.25, 0.75).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let main = SampleSet::draw(&p, 50_000, &mut rng);
        let sets = SampleSet::draw_many(&p, 5_000, 9, &mut rng);
        let o = SampleCostOracle::new(&main, &sets);
        let heavy = iv(0, 7);
        assert!((o.weight(heavy) - 0.75).abs() < 0.02);
        let truth = p.interval_power_sum(heavy);
        assert!(
            (o.power(heavy) - truth).abs() < 0.02,
            "z = {} vs {truth}",
            o.power(heavy)
        );
        // piece_cost approximates the flatten SSE
        assert!((o.piece_cost(heavy) - p.flatten_sse(heavy)).abs() < 0.03);
    }

    #[test]
    fn sample_table_matches_piece_cost() {
        // Empty main set, even and odd r, sparse boundaries: every entry
        // carries the bits of the per-interval piece_cost.
        let p = generators::zipf(40, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for (ell, r) in [(0, 3), (60, 4), (200, 1)] {
            let main = SampleSet::draw(&p, ell, &mut rng);
            let sets = SampleSet::draw_many(&p, 30, r, &mut rng);
            let o = SampleCostOracle::new(&main, &sets);
            let t = o.cost_table(40, &[0, 1, 5, 16, 38]).unwrap();
            assert_eq!(t.bounds(), [0, 1, 2, 5, 6, 16, 17, 38, 39, 40]);
            for hi in 1..t.bounds().len() {
                for lo in 0..hi {
                    let want = o.piece_cost(t.interval(lo, hi));
                    assert_eq!(t.cost(lo, hi).to_bits(), want.to_bits(), "[{lo}, {hi})");
                }
            }
        }
    }

    #[test]
    fn table_bounds_come_from_endpoints() {
        let p = DenseDistribution::uniform(8).unwrap();
        let o = ExactCostOracle::new(&p);
        for endpoints in [&[][..], &[8], &[2, 9], &[5, 3]] {
            assert!(o.cost_table(8, endpoints).is_err(), "{endpoints:?}");
        }
        let t = o.cost_table(8, &[2, 2, 7]).unwrap();
        assert_eq!(t.bounds(), [0, 2, 3, 7, 8]);
        assert_eq!((t.rank(0), t.rank(3), t.rank(8)), (0, 2, 4));
        assert_eq!(t.interval(1, 3), iv(2, 6));
    }

    #[test]
    fn main_accessor_returns_set() {
        let p = DenseDistribution::uniform(8).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let main = SampleSet::draw(&p, 64, &mut rng);
        let sets = SampleSet::draw_many(&p, 16, 3, &mut rng);
        let o = SampleCostOracle::new(&main, &sets);
        assert_eq!(o.main().total(), 64);
    }
}
