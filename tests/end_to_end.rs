//! Cross-crate integration tests: the full paper pipeline on synthetic
//! claims with planted events, checking that every stage composes and that
//! the planted phenomena are recovered end to end.

use prescription_trends::claims::{
    DiseaseKind, MarketEvent, MedicineClass, Month, SeasonalProfile, Simulator, WorldBuilder,
    WorldSpec, YearMonth,
};
use prescription_trends::linkmodel::SeriesKey;
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::{ChangeCause, PipelineConfig, TrendPipeline};

fn fast_config(seasonal: bool) -> PipelineConfig {
    PipelineConfig {
        seasonal,
        fit: FitOptions {
            max_evals: 150,
            n_starts: 1,
        },
        approximate_search: true,
        ..Default::default()
    }
}

#[test]
fn pipeline_detects_planted_new_medicine() {
    // One new medicine released at month 20 of 36; everything else stable.
    let mut b = WorldBuilder::new(YearMonth::paper_start(), 36);
    let chronic = b.disease(
        "chronic-1",
        DiseaseKind::Chronic,
        1.0,
        SeasonalProfile::Flat,
    );
    let acute = b.disease("acute-1", DiseaseKind::Other, 1.0, SeasonalProfile::Flat);
    let old_med = b.medicine("old-medicine", MedicineClass::Other);
    b.indication(chronic, old_med, 2.0);
    b.indication(acute, old_med, 1.0);
    let release = Month(20);
    let new_med = b.new_medicine("launch", MedicineClass::Other, release);
    // Adoption keeps growing through the window end: a slope shift.
    b.medicines_mut()[new_med.index()].adoption_ramp_months = 16;
    b.indication(acute, new_med, 2.5);
    b.event(MarketEvent::NewMedicine {
        medicine: new_med,
        displaces: vec![],
        share_shift: 0.0,
    });
    let city = b.city("c", 0, 0.5);
    let h = b.hospital("h", city, 100);
    for _ in 0..500 {
        b.patient(city, vec![(h, 1.0)], vec![chronic], 0.85);
    }
    let world = b.build();
    let ds = Simulator::new(&world, 3).run();

    let report = TrendPipeline::new(fast_config(false)).run(&ds).unwrap();
    let med_report = report
        .report_for(SeriesKey::Medicine(new_med))
        .expect("new medicine series analysed");
    let cp = med_report
        .change_point
        .month()
        .expect("release must be detected");
    // The binary search on a gently-ramping launch can land a few months
    // off; the paper's own exact-vs-approx RMSE is ≈ 4 months (Table VI).
    assert!(
        (cp as i64 - release.index() as i64).abs() <= 4,
        "detected t={cp}, planted t={}",
        release.index()
    );
    assert!(med_report.lambda > 0.0, "launch is an upward break");

    // The stable old medicine must NOT have a strong spurious change.
    if let Some(old_report) = report.report_for(SeriesKey::Medicine(old_med)) {
        // Allow weak incidental detections but not a gain anywhere near the
        // real launch's.
        assert!(
            old_report.aic_gain() < med_report.aic_gain(),
            "stable medicine ({:.1}) must score below the launch ({:.1})",
            old_report.aic_gain(),
            med_report.aic_gain()
        );
    }
}

#[test]
fn pipeline_categorises_indication_expansion_as_prescription_derived() {
    // A medicine with two indications gains a third mid-window. The pair
    // series (new disease, medicine) breaks; the disease marginal stays
    // stable, so the cause must not be disease-derived.
    let mut b = WorldBuilder::new(YearMonth::paper_start(), 36);
    let d_old = b.disease(
        "established",
        DiseaseKind::Chronic,
        1.5,
        SeasonalProfile::Flat,
    );
    let d_new = b.disease(
        "new-target",
        DiseaseKind::Chronic,
        1.5,
        SeasonalProfile::Flat,
    );
    let med = b.medicine("expanding-med", MedicineClass::Other);
    let other_med = b.medicine("baseline-med", MedicineClass::Other);
    b.indication(d_old, med, 2.0);
    b.indication(d_new, other_med, 2.0);
    let since = Month(18);
    b.expanded_indication(d_new, med, 2.0, since, 6);
    let city = b.city("c", 0, 0.5);
    let h = b.hospital("h", city, 100);
    for i in 0..600 {
        let chronic = match i % 3 {
            0 => vec![d_old],
            1 => vec![d_new],
            _ => vec![d_old, d_new],
        };
        b.patient(city, vec![(h, 1.0)], chronic, 0.85);
    }
    let world = b.build();
    let ds = Simulator::new(&world, 5).run();

    let report = TrendPipeline::new(fast_config(false)).run(&ds).unwrap();
    let key = SeriesKey::Prescription(d_new, med);
    let pair = report.report_for(key).expect("pair series analysed");
    let cp = pair
        .change_point
        .month()
        .expect("expansion must be detected");
    assert!(
        (cp as i64 - since.index() as i64).abs() <= 4,
        "detected t={cp}, planted t={}",
        since.index()
    );
    let cause = report
        .causes
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, c)| c)
        .expect("cause categorised");
    assert_ne!(
        cause,
        ChangeCause::DiseaseDerived,
        "a stable disease cannot be the cause of the pair's break"
    );
}

#[test]
fn pipeline_handles_generated_world_without_panicking() {
    // Smoke test over a fully random world with every event type.
    let spec = WorldSpec {
        n_diseases: 24,
        n_medicines: 30,
        n_patients: 250,
        n_hospitals: 6,
        n_cities: 3,
        months: 30,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 11).run();
    let report = TrendPipeline::new(fast_config(false)).run(&ds).unwrap();
    assert!(!report.series.is_empty());
    // Every report references a series that exists in the panel and the
    // change point, if any, is inside the window.
    for r in &report.series {
        let ys = report.panel.series(r.key).expect("series exists");
        assert_eq!(ys.len(), ds.horizon());
        if let Some(cp) = r.change_point.month() {
            assert!(cp < ds.horizon());
        }
        assert!(r.aic.is_finite());
        assert!(r.aic <= r.aic_no_change + 1e-9 || r.change_point.month().is_none());
    }
}

#[test]
fn store_round_trip_preserves_pipeline_results() {
    // Persisting and reloading a dataset must not change what the pipeline
    // computes (determinism across the I/O boundary).
    let spec = WorldSpec {
        n_diseases: 12,
        n_medicines: 16,
        n_patients: 120,
        n_hospitals: 4,
        n_cities: 2,
        months: 18,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 21).run();
    let mut buf = Vec::new();
    prescription_trends::claims::store::write_dataset(&ds, &mut buf).unwrap();
    let ds2 = prescription_trends::claims::store::read_dataset(&buf[..]).unwrap();

    let pipeline = TrendPipeline::new(fast_config(false));
    let a = pipeline.run(&ds).unwrap();
    let b = pipeline.run(&ds2).unwrap();
    assert_eq!(a.series.len(), b.series.len());
    for (x, y) in a.series.iter().zip(&b.series) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.change_point, y.change_point);
        assert_eq!(x.aic, y.aic);
    }
}
