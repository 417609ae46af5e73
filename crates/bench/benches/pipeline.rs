//! End-to-end pipeline benchmark: simulate → EM panel → change detection,
//! the full Fig. 1 flow at small scale.

use criterion::{criterion_group, criterion_main, Criterion};
use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let spec = WorldSpec {
        n_diseases: 10,
        n_medicines: 14,
        n_patients: 120,
        n_hospitals: 4,
        n_cities: 2,
        months: 18,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 42).run();
    let config = PipelineConfig {
        seasonal: false,
        fit: FitOptions {
            max_evals: 120,
            n_starts: 1,
        },
        threads: 1,
        ..Default::default()
    };
    let stage1 = || AnalysisSession::from_dataset(&config, &ds).expect("sequential months");

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("reproduce_panel", |b| {
        b.iter(|| black_box(stage1().panel().n_prescription_series()));
    });
    // Stage 2 on a fresh clone each iteration: an empty fit cache, so every
    // series is searched cold. The clone is noise next to the Kalman fits.
    let session = stage1();
    group.bench_function("detect_changes", |b| {
        b.iter(|| black_box(session.clone().analyze().series.len()));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
