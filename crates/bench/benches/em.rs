//! EM medication-model fitting throughput: the per-month cost of the
//! paper's stage-1 link prediction, before/after the allocation-free
//! [`EmWorkspace`] engine, plus Stage-1 panel scaling across threads.
//!
//! The `reference` benches run the seed's per-iteration `HashMap`
//! implementation (`fit_reference`); the `workspace` benches run the
//! compiled CSR + dense-Φ path that production `fit` now uses. Both are
//! pinned to a fixed iteration count so the ratio is a clean per-iteration
//! cost comparison (the paper's `C_EM` unit).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mic_claims::{Simulator, WorldSpec};
use mic_linkmodel::{EmOptions, EmWorkspace, MedicationModel};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig};
use std::hint::black_box;

/// Fixed-iteration options: tol = 0 disables early convergence so every
/// bench iteration performs exactly `max_iters` EM steps.
fn pinned_opts() -> EmOptions {
    EmOptions {
        max_iters: 8,
        tol: 0.0,
        ..EmOptions::default()
    }
}

fn bench_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("em");
    group.sample_size(10);
    for &patients in &[200usize, 600] {
        let spec = WorldSpec {
            n_patients: patients,
            n_diseases: 40,
            n_medicines: 60,
            months: 13,
            ..WorldSpec::default()
        };
        let world = spec.generate();
        let ds = Simulator::new(&world, 9).run();
        let month = &ds.months[6];
        let opts = pinned_opts();
        group.bench_with_input(
            BenchmarkId::new("reference", patients),
            &patients,
            |b, _| {
                b.iter(|| {
                    black_box(
                        MedicationModel::fit_reference(month, ds.n_diseases, ds.n_medicines, &opts)
                            .log_likelihood,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("workspace", patients),
            &patients,
            |b, _| {
                let mut ws = EmWorkspace::new();
                b.iter(|| {
                    black_box(
                        MedicationModel::fit_with(
                            month,
                            ds.n_diseases,
                            ds.n_medicines,
                            &opts,
                            &mut ws,
                        )
                        .log_likelihood,
                    )
                });
            },
        );
    }

    // Stage-1 panel construction at 1 vs 4 workers: on a multicore host the
    // 4-thread point should approach a 4x wall-time reduction; on a single
    // core the two points coincide (the fan-out adds no serial overhead).
    let spec = WorldSpec {
        n_diseases: 12,
        n_medicines: 16,
        n_patients: 200,
        n_hospitals: 4,
        n_cities: 2,
        months: 16,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 42).run();
    for &threads in &[1usize, 4] {
        let config = PipelineConfig {
            seasonal: false,
            fit: FitOptions {
                max_evals: 120,
                n_starts: 1,
            },
            threads,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("stage1", threads), &threads, |b, _| {
            b.iter(|| {
                let session = AnalysisSession::from_dataset(&config, &ds).unwrap();
                black_box(session.panel().n_prescription_series())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_em);
criterion_main!(benches);
