//! Criterion bench: greedy learner runtime (Theorem 1 vs Theorem 2).
//!
//! Benchmarks the full learn-from-samples path (sampling excluded — samples
//! are drawn once per size outside the timed region) for the exhaustive and
//! the sample-endpoint candidate policies across domain sizes. The paper's
//! claim: exhaustive grows ~n², fast stays budget-bound. `cli_budget` is the
//! learn that `khist watch` runs per 500-record window by default: n = 256,
//! ℓ = 386, r = 3, m = 38, q = 19, 128 endpoints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khist_core::greedy::{learn_from_samples, CandidatePolicy, GreedyParams};
use khist_dist::generators;
use khist_oracle::{LearnerBudget, SampleSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_learner");
    group.sample_size(10);
    let k = 4;
    let eps = 0.1;
    for &n in &[128usize, 256, 512] {
        let p = generators::zipf(n, 1.2).expect("valid zipf");
        let budget = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
        let mut rng = StdRng::seed_from_u64(n as u64);
        let main = SampleSet::draw(&p, budget.ell, &mut rng);
        let sets = SampleSet::draw_many(&p, budget.m, budget.r, &mut rng);

        group.bench_with_input(BenchmarkId::new("exhaustive", n), &n, |b, _| {
            let params = GreedyParams {
                k,
                eps,
                budget,
                policy: CandidatePolicy::All,
                max_endpoints: 0,
            };
            b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
        });
        group.bench_with_input(BenchmarkId::new("sample_endpoints", n), &n, |b, _| {
            let params = GreedyParams {
                k,
                eps,
                budget,
                policy: CandidatePolicy::SampleEndpoints,
                max_endpoints: 128,
            };
            b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
        });
    }

    let n = 256;
    let p = generators::staircase(n, 4).expect("valid staircase");
    let budget = LearnerBudget {
        ell: 386,
        r: 3,
        m: 38,
        q: 19,
        ..LearnerBudget::calibrated(n, k, eps, 1.0).expect("budget")
    };
    let mut rng = StdRng::seed_from_u64(3);
    let main = SampleSet::draw(&p, budget.ell, &mut rng);
    let sets = SampleSet::draw_many(&p, budget.m, budget.r, &mut rng);
    group.bench_with_input(BenchmarkId::new("cli_budget", n), &n, |b, _| {
        let params = GreedyParams::fast(k, eps, budget);
        b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy);
criterion_main!(benches);
