//! Incremental-session benchmark: appending month T+1 to a warm
//! [`AnalysisSession`] versus re-running the whole batch pipeline on the
//! extended window.
//!
//! The session's value proposition is that the append path — one EM fit
//! plus warm-started change-point refits — costs a fraction of the batch
//! re-run (all T+1 EM fits plus cold searches). The `session/append_month`
//! over `session/batch_rerun` ratio is the number to watch; the gate is
//! < 50%.

use criterion::{criterion_group, criterion_main, Criterion};
use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig, TrendPipeline};
use std::hint::black_box;

fn bench_session(c: &mut Criterion) {
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

    // Warm session over the first T = 17 months, analysed once so the fit
    // cache holds every series' optimum ready for warm-started refits.
    let mut warm = AnalysisSession::new(&config, ds.start, ds.n_diseases, ds.n_medicines);
    let (head, tail) = ds.months.split_at(ds.months.len() - 1);
    warm.append_months(head)
        .expect("simulated months are sequential");
    warm.analyze();
    let next = &tail[0];

    let pipeline = TrendPipeline::new(config);

    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    // Full batch re-run on all T+1 months: the cost the session avoids.
    group.bench_function("batch_rerun", |b| {
        b.iter(|| black_box(pipeline.run(&ds).unwrap().series.len()));
    });
    // Append month T+1 and re-analyse. The vendored criterion has no
    // iter_batched, so each iteration clones the prebuilt warm session —
    // a panel + cache memcpy that is noise next to the Kalman fits.
    group.bench_function("append_month", |b| {
        b.iter(|| {
            let mut session = warm.clone();
            session
                .append_month(next)
                .expect("month T+1 is in sequence");
            black_box(session.analyze().series.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
