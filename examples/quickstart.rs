//! Quickstart: generate a synthetic claims world, simulate MIC records,
//! reproduce prescription time series, and detect trend changes.
//!
//! Run with: `cargo run --release --example quickstart`

use prescription_trends::claims::{DatasetStats, Simulator, WorldSpec};
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::report::{detected_changes_table, sparkline};
use prescription_trends::trend::{PipelineConfig, TrendPipeline};

fn main() {
    // 1. A claims world: diseases with seasonality, medicines with release
    //    dates and generics, hospitals, and an elderly patient panel.
    let spec = WorldSpec {
        months: 43,
        n_diseases: 30,
        n_medicines: 45,
        n_patients: 400,
        n_new_medicines: 2,
        n_generic_entries: 1,
        n_indication_expansions: 1,
        ..WorldSpec::default()
    };
    let world = spec.generate();

    // 2. Simulate 43 months of medical insurance claims. Records contain a
    //    bag of diseases and a bag of medicines — with NO links between
    //    them, exactly like real MIC data.
    let dataset = Simulator::new(&world, 7).run();
    println!("--- dataset ---");
    println!("{}", DatasetStats::compute(&dataset));

    // 3. Run the two-stage pipeline: EM link prediction per month, then a
    //    state space model with AIC change-point search per series.
    let config = PipelineConfig {
        fit: FitOptions {
            max_evals: 150,
            n_starts: 1,
        },
        ..PipelineConfig::default()
    };
    let report = TrendPipeline::new(config)
        .run(&dataset)
        .expect("simulated months are sequential");

    let (rd, rm, rp) = report.detection_rates();
    println!();
    println!("--- change detection ---");
    println!(
        "series analysed: {} (change rates: disease {:.0}%, medicine {:.0}%, prescription {:.0}%)",
        report.series.len(),
        100.0 * rd,
        100.0 * rm,
        100.0 * rp
    );

    // 4. Inspect the strongest detected changes.
    let detected = report.detected();
    println!();
    println!("--- top detected trend changes ---");
    println!("{}", detected_changes_table(&detected, 8).render());

    if let Some(top) = detected.first() {
        let ys = report.panel.series(top.key).expect("series exists");
        println!("strongest change ({}): {}", top.key, sparkline(ys));
    }

    // 5. Cause categorisation for prescription-level changes.
    println!();
    println!("--- causes of prescription-level changes ---");
    for (key, cause) in report.causes.iter().take(8) {
        println!("{key}: {cause}");
    }
    if report.causes.is_empty() {
        println!("(no prescription-level changes detected at this scale)");
    }
}
