//! Equivalence of the incremental [`AnalysisSession`] with the batch
//! pipeline.
//!
//! The session's contract is equivalence *by construction*: appending the
//! same months in any prefix/suffix split and then analysing with an empty
//! fit cache runs exactly the fits a batch [`TrendPipeline::run`] would
//! run, so the reports must match bitwise — not merely statistically.
//! Warm-path analyses (a populated cache) may legitimately drift at AIC
//! decision boundaries; [`AnalysisSession::clear_cache`] restores the
//! strict guarantee, which is what `mictrend append --check-batch` leans
//! on.

use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig, TrendPipeline, TrendReport};
use proptest::prelude::*;

fn dataset(months: u32, patients: usize, seed: u64) -> mic_claims::ClaimsDataset {
    let spec = WorldSpec {
        seed,
        months,
        n_diseases: 8,
        n_medicines: 12,
        n_patients: patients,
        n_hospitals: 4,
        n_cities: 2,
        // Plant a few market events so some series genuinely break and the
        // comparison covers both detected and undetected change points.
        n_new_medicines: 1,
        n_generic_entries: 1,
        n_indication_expansions: 1,
        n_price_revisions: 0,
        n_outbreaks: 1,
        n_prevalence_shifts: 0,
        ..WorldSpec::default()
    };
    Simulator::new(&spec.generate(), seed).run()
}

fn config(max_evals: usize) -> PipelineConfig {
    PipelineConfig {
        seasonal: false, // keep the state dimension small: this is a speed
        // knob, not part of the equivalence contract
        fit: FitOptions {
            max_evals,
            n_starts: 1,
        },
        threads: 4,
        ..Default::default()
    }
}

/// Both runs must have performed the identical fit sequence, so every field
/// — including the floating-point AICs — matches bitwise.
fn assert_reports_identical(batch: &TrendReport, incremental: &TrendReport) {
    assert_eq!(batch.series_total, incremental.series_total);
    assert_eq!(batch.series_dropped, incremental.series_dropped);
    assert_eq!(batch.series.len(), incremental.series.len());
    for (b, i) in batch.series.iter().zip(&incremental.series) {
        assert_eq!(b.key, i.key);
        assert_eq!(b.change_point, i.change_point, "decision for {}", b.key);
        assert_eq!(b.aic.to_bits(), i.aic.to_bits(), "aic for {}", b.key);
        assert_eq!(
            b.aic_no_change.to_bits(),
            i.aic_no_change.to_bits(),
            "baseline aic for {}",
            b.key
        );
        assert_eq!(b.lambda.to_bits(), i.lambda.to_bits(), "λ for {}", b.key);
        assert_eq!(b.fits_performed, i.fits_performed);
    }
    assert_eq!(batch.causes, incremental.causes);
}

/// The ISSUE's headline criterion: a 24-month synthetic dataset absorbed
/// one month at a time reproduces the batch report exactly.
#[test]
fn incremental_appends_match_batch_over_24_months() {
    let ds = dataset(24, 150, 42);
    let cfg = config(100);
    let batch = TrendPipeline::new(cfg.clone()).run(&ds).unwrap();

    let mut session = AnalysisSession::new(&cfg, ds.start, ds.n_diseases, ds.n_medicines);
    for month in &ds.months {
        session.append_month(month).unwrap();
    }
    let incremental = session.analyze();
    assert_reports_identical(&batch, &incremental);
    assert!(
        !batch.detected().is_empty(),
        "the planted market events should break at least one series"
    );
}

/// Analysing mid-stream populates the fit cache and sends the final
/// analysis down the warm path, which may drift at AIC boundaries; clearing
/// the cache must restore bitwise agreement with the batch run.
#[test]
fn cold_reanalysis_after_warm_appends_matches_batch() {
    let ds = dataset(18, 120, 9);
    let cfg = config(80);
    let batch = TrendPipeline::new(cfg.clone()).run(&ds).unwrap();

    let mut session = AnalysisSession::new(&cfg, ds.start, ds.n_diseases, ds.n_medicines);
    session.append_months(&ds.months[..15]).unwrap();
    session.analyze(); // populate the cache → later analyses warm-start
    for month in &ds.months[15..] {
        session.append_month(month).unwrap();
        session.analyze();
    }
    assert!(session.cached_series() > 0);
    session.clear_cache();
    let cold = session.analyze();
    assert_reports_identical(&batch, &cold);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Any prefix/suffix split of the months — bulk-load the prefix, then
    // absorb the suffix one month at a time — reproduces the batch
    // pipeline's change-point decisions.
    #[test]
    fn shuffled_split_reproduces_batch_decisions(
        split in 1usize..13,
        seed in 0u64..1000,
    ) {
        let ds = dataset(14, 100, seed);
        let cfg = config(60);
        let batch = TrendPipeline::new(cfg.clone()).run(&ds).unwrap();

        let mut session = AnalysisSession::new(&cfg, ds.start, ds.n_diseases, ds.n_medicines);
        session.append_months(&ds.months[..split]).unwrap();
        for month in &ds.months[split..] {
            session.append_month(month).unwrap();
        }
        let incremental = session.analyze();

        prop_assert_eq!(batch.series.len(), incremental.series.len());
        for (b, i) in batch.series.iter().zip(&incremental.series) {
            prop_assert_eq!(b.key, i.key);
            prop_assert_eq!(
                b.change_point, i.change_point,
                "decision for {} diverged at split {}", b.key, split
            );
        }
    }
}
