//! Overhead of the `mic-obs` recorder around the workloads it instruments.
//!
//! The acceptance bar for the instrumentation layer: with the recorder
//! disabled (the default for every library consumer), an instrumented hot
//! loop must cost one relaxed atomic load per call site — the
//! `disabled_*` rows here should be indistinguishable from bare arithmetic.
//! The `enabled_*` rows quantify what a `--metrics` run pays.

use criterion::{criterion_group, criterion_main, Criterion};
use mic_statespace::kalman::{kalman_loglik, FilterWorkspace};
use mic_statespace::structural::{StructuralParams, StructuralSpec};
use std::hint::black_box;

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| 30.0 + 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
        .collect()
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");

    // Raw entry-point cost, disabled vs enabled.
    mic_obs::disable();
    group.bench_function("disabled_counter", |b| {
        b.iter(|| mic_obs::counter("bench.counter", black_box(1)));
    });
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let s = mic_obs::span("bench.span");
            black_box(&s);
        });
    });
    mic_obs::enable();
    group.bench_function("enabled_counter", |b| {
        b.iter(|| mic_obs::counter("bench.counter", black_box(1)));
    });
    group.bench_function("enabled_span", |b| {
        b.iter(|| {
            let s = mic_obs::span("bench.span");
            black_box(&s);
        });
    });
    mic_obs::disable();
    mic_obs::reset();

    // The instrumented likelihood hot path (the `kf.loglik` call site in
    // `fit_structural`), disabled vs enabled — the <2% regression gate for
    // the `loglik_path` bench group is checked against the disabled row.
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.01,
    };
    let t = 43;
    let ys = series(t);
    let spec = StructuralSpec::full(t / 2);
    let ssm = spec.build(&params, t);
    let mut ws = FilterWorkspace::new(spec.state_dim());
    group.bench_function("disabled_instrumented_loglik", |b| {
        b.iter(|| {
            mic_obs::counter("kf.loglik_evals", 1);
            let eval = mic_obs::span("kf.loglik");
            let ll = kalman_loglik(&ssm, &ys, &mut ws);
            eval.end();
            black_box(ll)
        });
    });
    mic_obs::enable();
    group.bench_function("enabled_instrumented_loglik", |b| {
        b.iter(|| {
            mic_obs::counter("kf.loglik_evals", 1);
            let eval = mic_obs::span("kf.loglik");
            let ll = kalman_loglik(&ssm, &ys, &mut ws);
            eval.end();
            black_box(ll)
        });
    });
    mic_obs::disable();
    mic_obs::reset();
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
