//! Kalman-filter and structural-model fitting benchmarks: the `C_KF` unit
//! of the paper's Table V cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mic_statespace::kalman::{kalman_filter, kalman_loglik, FilterWorkspace};
use mic_statespace::structural::{StructuralParams, StructuralSpec};
use mic_statespace::{fit_structural, FitOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            30.0 + 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

fn bench_filter(c: &mut Criterion) {
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.01,
    };
    let mut group = c.benchmark_group("kalman_filter");
    for &t in &[43usize, 86, 172] {
        let ys = series(t, 1);
        // The paper's full model: 13 states (level + 11 seasonal + λ).
        let spec = StructuralSpec::full(t / 2);
        let ssm = spec.build(&params, t);
        group.bench_with_input(BenchmarkId::new("full_model", t), &t, |b, _| {
            b.iter(|| black_box(kalman_filter(&ssm, &ys).loglik));
        });
        let ll = StructuralSpec::local_level().build(&params, t);
        group.bench_with_input(BenchmarkId::new("local_level", t), &t, |b, _| {
            b.iter(|| black_box(kalman_filter(&ll, &ys).loglik));
        });
    }
    group.finish();
}

/// The pre-optimisation likelihood evaluation, kept verbatim for
/// comparison: dense `T·P·Tᵀ` with a fresh `Tᵀ` transpose every step, and
/// every per-step intermediate heap-allocated (the shape of the seed's
/// `kalman_filter`, which additionally materialised the full
/// `FilterResult`).
fn dense_materialising_loglik(ssm: &mic_statespace::Ssm, ys: &[f64]) -> f64 {
    const LN_2PI: f64 = 1.837_877_066_409_345_5;
    let m = ssm.state_dim();
    let mut a_pred = ssm.a0.clone();
    let mut p_pred = ssm.p0.clone();
    let mut trajectory: Vec<(Vec<f64>, mic_stats::Mat)> = Vec::with_capacity(ys.len());
    let mut loglik = 0.0;
    for (t, &y) in ys.iter().enumerate() {
        let z = ssm.loading.at(t);
        let mut zy = 0.0;
        for i in 0..m {
            zy += z[i] * a_pred[i];
        }
        let v = y - zy;
        let pz: Vec<f64> = (0..m)
            .map(|i| (0..m).map(|j| p_pred[(i, j)] * z[j]).sum::<f64>())
            .collect();
        let mut f = ssm.obs_var;
        for i in 0..m {
            f += z[i] * pz[i];
        }
        let f = f.max(1e-12);
        if t >= ssm.n_diffuse && !ssm.extra_skips.contains(&t) {
            loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
        }
        let k: Vec<f64> = pz.iter().map(|&p| p / f).collect();
        let mut a_filt = a_pred.clone();
        for i in 0..m {
            a_filt[i] += k[i] * v;
        }
        let mut p_filt = p_pred.clone();
        for i in 0..m {
            for j in 0..m {
                p_filt[(i, j)] -= k[i] * pz[j];
            }
        }
        p_filt.symmetrize();
        trajectory.push((a_filt.clone(), p_filt.clone()));
        a_pred = ssm.transition.mul_vec(&a_filt);
        let tt = ssm.transition.transpose();
        let mut next_p = &(&ssm.transition * &p_filt) * &tt;
        for i in 0..m {
            for j in 0..m {
                next_p[(i, j)] += ssm.state_cov[(i, j)];
            }
        }
        next_p.symmetrize();
        p_pred = next_p;
    }
    black_box(trajectory);
    loglik
}

/// The MLE hot loop evaluates only the log-likelihood, thousands of times
/// per search. This group measures one objective evaluation three ways:
/// the seed's dense materialising implementation (rebuild the SSM from the
/// spec, dense products, per-step allocation), the current full filter
/// (sparse transition but still materialising a `FilterResult`), and the
/// fast path (`apply_params` pokes the variances into a prebuilt SSM,
/// `kalman_loglik` reuses one `FilterWorkspace`).
fn bench_loglik_path(c: &mut Criterion) {
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.01,
    };
    let mut group = c.benchmark_group("loglik_path");
    for &t in &[43usize, 86, 172] {
        let ys = series(t, 1);
        let spec = StructuralSpec::full(t / 2);
        group.bench_with_input(BenchmarkId::new("seed_dense_baseline", t), &t, |b, _| {
            b.iter(|| {
                let ssm = spec.build(black_box(&params), t);
                black_box(dense_materialising_loglik(&ssm, &ys))
            });
        });
        group.bench_with_input(BenchmarkId::new("build_filter", t), &t, |b, _| {
            b.iter(|| {
                let ssm = spec.build(black_box(&params), t);
                black_box(kalman_filter(&ssm, &ys).loglik)
            });
        });
        let mut ssm = spec.build(&params, t);
        let mut ws = FilterWorkspace::new(spec.state_dim());
        group.bench_with_input(BenchmarkId::new("apply_loglik_fast", t), &t, |b, _| {
            b.iter(|| {
                spec.apply_params(black_box(&params), &mut ssm);
                black_box(kalman_loglik(&ssm, &ys, &mut ws))
            });
        });
    }
    group.finish();
}

fn bench_mle_fit(c: &mut Criterion) {
    let ys = series(43, 2);
    let opts = FitOptions {
        max_evals: 150,
        n_starts: 1,
    };
    let mut group = c.benchmark_group("structural_mle");
    group.sample_size(10);
    group.bench_function("LL_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::local_level(), &opts).aic));
    });
    group.bench_function("LL+S_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::with_seasonal(), &opts).aic));
    });
    group.bench_function("LL+S+I_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::full(20), &opts).aic));
    });
    group.finish();
}

criterion_group!(benches, bench_filter, bench_loglik_path, bench_mle_fit);
criterion_main!(benches);
