//! Order statistics with the reporting rule: a timing is given as its
//! median and the highest percentile that still has at least ten samples
//! beyond it, together with the sample count.

/// The percentiles a tail may be reported at, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a reported tail percentile needs beyond it.
const BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples;
/// `NaN` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 · 10⁴ = 9990.000…02)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it, or `None` when even the median lacks them.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n >= BEYOND && n - rank(n, p) >= BEYOND)
}

/// `true` when percentile `p` has at least ten of `n` samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    supported_percentile(n).is_some_and(|best| best >= p)
}

/// A one-line rendering of a timing distribution by the reporting rule.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let n = samples.len();
    match supported_percentile(n) {
        Some(p) => format!(
            "p50 {:.4} {unit}, p{p} {:.4} {unit} (n={n})",
            median(samples),
            percentile(samples, p)
        ),
        None => format!(
            "p50 {:.4} {unit} (n={n}; too few samples for a tail)",
            median(samples)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert!(describe(&samples, "ms").ends_with("p90 90.0000 ms (n=100)"));
    }
}
