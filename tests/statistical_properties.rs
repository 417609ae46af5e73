//! Cross-crate property tests: invariants of the full pipeline under
//! randomised worlds.

use prescription_trends::claims::{Simulator, WorldSpec};
use prescription_trends::linkmodel::{EmOptions, MedicationModel, PanelBuilder, SeriesKey};
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::{AnalysisSession, PipelineConfig, Stage2Detect};
use proptest::prelude::*;

fn small_spec() -> impl Strategy<Value = WorldSpec> {
    (0u64..200, 14u32..22, 8usize..16, 10usize..20, 60usize..140).prop_map(
        |(seed, months, n_diseases, n_medicines, n_patients)| WorldSpec {
            seed,
            months,
            n_diseases,
            n_medicines,
            n_patients,
            n_hospitals: 4,
            n_cities: 2,
            n_new_medicines: 1,
            n_generic_entries: 0,
            n_indication_expansions: 1,
            n_price_revisions: 0,
            n_outbreaks: 1,
            ..WorldSpec::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn panel_mass_is_conserved(spec in small_spec()) {
        // Eq. 7's responsibilities are a soft assignment: total panel mass
        // equals total (filtered) prescriptions, and disease/medicine
        // marginals agree.
        let world = spec.generate();
        let ds = Simulator::new(&world, spec.seed ^ 1).run();
        let mut builder = PanelBuilder::new(ds.n_diseases, ds.n_medicines, ds.horizon());
        let mut expected = 0.0;
        for month in &ds.months {
            let model = MedicationModel::fit(month, ds.n_diseases, ds.n_medicines, &EmOptions::default());
            builder.add_month(month, &model);
            expected += month.records.iter().map(|r| r.medicines.len()).sum::<usize>() as f64;
        }
        let panel = builder.build();
        let d_mass: f64 = (0..ds.n_diseases)
            .map(|d| panel.disease_series(prescription_trends::claims::DiseaseId(d as u32)).iter().sum::<f64>())
            .sum();
        let m_mass: f64 = (0..ds.n_medicines)
            .map(|m| panel.medicine_series(prescription_trends::claims::MedicineId(m as u32)).iter().sum::<f64>())
            .sum();
        prop_assert!((d_mass - expected).abs() < 1e-6 * expected.max(1.0));
        prop_assert!((m_mass - expected).abs() < 1e-6 * expected.max(1.0));
    }

    #[test]
    fn approx_search_never_false_positive_in_pipeline(spec in small_spec()) {
        // The Table VI structural property, end to end: on the same panel,
        // any series the approximate search flags must also be flagged by
        // the exhaustive search.
        let world = spec.generate();
        let ds = Simulator::new(&world, spec.seed ^ 2).run();
        let fit = FitOptions { max_evals: 100, n_starts: 1, };
        let config = PipelineConfig {
            seasonal: false,
            approximate_search: false,
            fit,
            ..Default::default()
        };
        let exact = Stage2Detect::from_config(&config);
        let approx = Stage2Detect::from_config(&PipelineConfig {
            approximate_search: true,
            ..config.clone()
        });
        let session = AnalysisSession::from_dataset(&config, &ds).unwrap();
        let panel = session.panel();
        // Restrict to medicine series (cheap but representative).
        let keys: Vec<SeriesKey> = panel
            .filtered_keys(10.0)
            .into_iter()
            .filter(|k| matches!(k, SeriesKey::Medicine(_)))
            .take(12)
            .collect();
        for key in keys {
            let ys = panel.series(key).unwrap();
            let e = exact.analyze_series(key, ys);
            let a = approx.analyze_series(key, ys);
            if a.change_point.is_some() {
                prop_assert!(
                    e.change_point.is_some(),
                    "{key}: approx positive but exact negative"
                );
            }
            // And the exact AIC is never worse than the approximate one.
            prop_assert!(e.aic <= a.aic + 1e-9, "{key}: exact AIC {} > approx {}", e.aic, a.aic);
        }
    }
}
