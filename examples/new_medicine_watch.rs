//! New-medicine watch: scan all medicine series for structural breaks and
//! report launches — the marketing/pharmacovigilance use case from the
//! paper's introduction (tracking how new medicines spread).
//!
//! Run with: `cargo run --release --example new_medicine_watch`

use prescription_trends::claims::{MedicineId, Simulator, WorldSpec};
use prescription_trends::linkmodel::{EmOptions, MedicationModel, PanelBuilder, SeriesKey};
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::report::{sparkline, TextTable};
use prescription_trends::trend::{PipelineConfig, Stage2Detect};

fn main() {
    let spec = WorldSpec {
        months: 43,
        n_diseases: 25,
        n_medicines: 40,
        n_patients: 500,
        n_new_medicines: 3,
        n_generic_entries: 0,
        n_indication_expansions: 0,
        n_price_revisions: 0,
        n_outbreaks: 0,
        n_prevalence_shifts: 0,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let dataset = Simulator::new(&world, 99).run();

    // Reproduce medicine series.
    let mut builder = PanelBuilder::new(dataset.n_diseases, dataset.n_medicines, dataset.horizon());
    for month in &dataset.months {
        let model = MedicationModel::fit(
            month,
            dataset.n_diseases,
            dataset.n_medicines,
            &EmOptions::default(),
        );
        builder.add_month(month, &model);
    }
    let panel = builder.build();

    // Analyse every medicine series with an upward slope-shift change.
    let stage2 = Stage2Detect::from_config(&PipelineConfig {
        fit: FitOptions {
            max_evals: 150,
            n_starts: 1,
        },
        ..Default::default()
    });
    let mut table = TextTable::new(vec![
        "medicine",
        "detected launch",
        "true release",
        "lambda",
    ]);
    let mut hits = 0;
    let mut launches = 0;
    for m in 0..dataset.n_medicines {
        let id = MedicineId(m as u32);
        let series = panel.medicine_series(id);
        if series.iter().sum::<f64>() < 10.0 {
            continue;
        }
        let report = stage2.analyze_series(SeriesKey::Medicine(id), series);
        let truth = world.medicines[m].release_month;
        if truth.is_some() {
            launches += 1;
        }
        if let Some(cp) = report.change_point.month() {
            if report.lambda > 0.0 {
                let true_label = truth.map_or("-".to_string(), |r| format!("t={}", r.0));
                table.row(vec![
                    world.medicines[m].name.clone(),
                    format!("t={cp}"),
                    true_label,
                    format!("{:.2}", report.lambda),
                ]);
                if let Some(r) = truth {
                    if (cp as i64 - r.0 as i64).abs() <= 3 {
                        hits += 1;
                    }
                    println!("{:<36} {}", world.medicines[m].name, sparkline(series));
                }
            }
        }
    }
    println!();
    println!("--- detected upward structural breaks in medicine series ---");
    println!("{}", table.render());
    println!("true launches detected within ±3 months: {hits}/{launches}");
}
