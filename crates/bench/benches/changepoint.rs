//! Exact vs approximate change-point search (Table V's headline
//! comparison), swept over the series length `T` to expose the `O(T)` vs
//! `O(log T)` scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mic_statespace::{search, FilterWorkspace, FitOptions, SearchPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn broken_series(n: usize, cp: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
            20.0 + 1.2 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let opts = FitOptions {
        max_evals: 120,
        n_starts: 1,
    };
    let mut group = c.benchmark_group("changepoint_search");
    group.sample_size(10);
    let mut ws = FilterWorkspace::default();
    for &t in &[24usize, 43, 86] {
        let ys = broken_series(t, t / 2, 3);
        group.bench_with_input(BenchmarkId::new("exact", t), &t, |b, _| {
            b.iter(|| black_box(search(&ys, &SearchPlan::exact(false, opts), &mut ws).aic));
        });
        group.bench_with_input(BenchmarkId::new("approx", t), &t, |b, _| {
            b.iter(|| black_box(search(&ys, &SearchPlan::approx(false, opts), &mut ws).aic));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
