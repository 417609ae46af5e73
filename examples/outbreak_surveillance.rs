//! Outbreak surveillance: flag months where a disease's reproduced series
//! deviates from both its trend and its seasonality — the paper's Fig. 6a
//! observation (the winter-2015 influenza spike landing in the irregular
//! component) turned into an application.
//!
//! Run with: `cargo run --release --example outbreak_surveillance`

use prescription_trends::claims::{
    DiseaseKind, MedicineClass, Month, SeasonalProfile, Simulator, WorldBuilder, YearMonth,
};
use prescription_trends::linkmodel::{EmOptions, MedicationModel, PanelBuilder};
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::outbreak::{detect_outbreaks, OutbreakConfig};
use prescription_trends::trend::report::sparkline;

fn main() {
    // Three seasonal diseases; influenza gets a planted outbreak in the
    // winter of 2015 (month 22 of a window starting 2013-03), like the
    // paper's real data did.
    let mut b = WorldBuilder::new(YearMonth::paper_start(), 43);
    let influenza = b.disease(
        "influenza",
        DiseaseKind::Viral,
        0.9,
        SeasonalProfile::Annual {
            peak_month0: 0,
            amplitude: 7.0,
            sharpness: 4.0,
        },
    );
    let hay_fever = b.disease(
        "hay fever",
        DiseaseKind::Environmental,
        1.1,
        SeasonalProfile::Annual {
            peak_month0: 2,
            amplitude: 5.0,
            sharpness: 4.0,
        },
    );
    let gastritis = b.disease("gastritis", DiseaseKind::Other, 1.0, SeasonalProfile::Flat);
    let antiviral = b.medicine("anti-influenza", MedicineClass::Antiviral);
    let antihistamine = b.medicine("antihistamine", MedicineClass::Other);
    let antacid = b.medicine("antacid", MedicineClass::Gastrointestinal);
    b.indication(influenza, antiviral, 1.5);
    b.indication(hay_fever, antihistamine, 1.5);
    b.indication(gastritis, antacid, 1.5);
    let outbreak_month = Month(22);
    b.outbreak(influenza, outbreak_month, 2.8);
    let city = b.city("mie", 0, 0.5);
    let h = b.hospital("general", city, 200);
    for _ in 0..600 {
        b.patient(city, vec![(h, 1.0)], vec![], 0.8);
    }
    let world = b.build();
    let dataset = Simulator::new(&world, 20).run();

    // Reproduce disease series.
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

    for (name, d) in [
        ("influenza", influenza),
        ("hay fever", hay_fever),
        ("gastritis", gastritis),
    ] {
        println!("{name:<12} {}", sparkline(panel.disease_series(d)));
    }

    // Scan for outbreaks.
    let config = OutbreakConfig {
        fit: FitOptions {
            max_evals: 200,
            n_starts: 1,
        },
        ..Default::default()
    };
    let alerts = detect_outbreaks(&panel, dataset.n_diseases, &config);
    println!(
        "\n--- outbreak alerts (|z| > {:.1} over trend + season) ---",
        config.threshold
    );
    if alerts.is_empty() {
        println!("(none)");
    }
    for a in &alerts {
        let calendar = dataset.calendar(Month(a.month as u32));
        println!(
            "{} at {calendar}: observed {:.0} vs expected {:.0} (z = {:+.1})",
            world.diseases[a.disease.index()].name,
            a.observed,
            a.expected,
            a.z_score
        );
    }
    let hit = alerts
        .first()
        .is_some_and(|a| a.disease == influenza && a.month == outbreak_month.index());
    println!(
        "\nplanted outbreak (influenza, {}) detected as top alert: {}",
        dataset.calendar(outbreak_month),
        if hit { "YES" } else { "NO" }
    );
}
