//! Figure 6 — fitting results of the state space model on disease and
//! medicine time series:
//! (a) influenza seasonality with the winter-2015 outbreak treated as an
//!     outlier, (b) multi-peak diarrhea seasonality, (c) a new osteoporosis
//! medicine's release detected as a structural change (with displaced
//! incumbents shown), (d) an anti-platelet original declining after generic
//! entry.

use mic_experiments::output::{print_series, section};
use mic_experiments::{generic_world, new_medicine_world, seasonal_world, simulate};
use mic_linkmodel::{EmOptions, MedicationModel, PanelBuilder, PrescriptionPanel};
use mic_statespace::{search, ChangePointSearch, FilterWorkspace, FitOptions, SearchPlan};

fn reproduce(ds: &mic_claims::ClaimsDataset) -> PrescriptionPanel {
    let mut builder = PanelBuilder::new(ds.n_diseases, ds.n_medicines, ds.horizon());
    for month in &ds.months {
        let model =
            MedicationModel::fit(month, ds.n_diseases, ds.n_medicines, &EmOptions::default());
        builder.add_month(month, &model);
    }
    builder.build()
}

/// Cold Algorithm-1 search.
fn exact(ys: &[f64], seasonal: bool, opts: &FitOptions) -> ChangePointSearch {
    search(
        ys,
        &SearchPlan::exact(seasonal, *opts),
        &mut FilterWorkspace::default(),
    )
}

fn show_decomposition(title: &str, ys: &[f64], seasonal: bool, opts: &FitOptions) {
    section(title);
    let result = exact(ys, seasonal, opts);
    let c = result.fit.decompose(ys);
    print_series("original", ys);
    print_series("fitted (x - eps)", &c.fitted);
    print_series("level", &c.level);
    if seasonal {
        print_series("seasonality", &c.seasonal);
    }
    print_series("intervention", &c.intervention);
    println!(
        "change point: {} (lambda = {:.3})",
        result.change_point, c.lambda
    );
}

fn main() {
    let opts = FitOptions {
        max_evals: 250,
        n_starts: 1,
    };

    // (a) + (b): seasonal diseases.
    let s = seasonal_world(700);
    let ds = simulate(&s.world, 6);
    let panel = reproduce(&ds);
    let flu = panel.disease_series(s.influenza).to_vec();
    show_decomposition(
        "Fig. 6a — influenza (seasonality + 2015 outbreak outlier)",
        &flu,
        true,
        &opts,
    );
    // Outlier check: irregular at the outbreak month dominates.
    let result = exact(&flu, true, &opts);
    let comp = result.fit.decompose(&flu);
    let ob = s.outbreak_month.index();
    let max_irr = comp.irregular.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    println!(
        "outbreak month irregular = {:.1} (max |irregular| = {:.1}) → treated as outlier: {}",
        comp.irregular[ob],
        max_irr,
        if comp.irregular[ob] > 0.5 * max_irr {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    let diarrhea = panel.disease_series(s.diarrhea).to_vec();
    show_decomposition(
        "Fig. 6b — diarrhea (two seasonal peaks per year)",
        &diarrhea,
        true,
        &opts,
    );

    // (c): new medicine.
    let s = new_medicine_world(700);
    let ds = simulate(&s.world, 7);
    let panel = reproduce(&ds);
    let new_med = panel.medicine_series(s.new_medicine).to_vec();
    show_decomposition(
        "Fig. 6c — new osteoporosis medicine (released t=5, 2013-08)",
        &new_med,
        false,
        &opts,
    );
    let detected = exact(&new_med, false, &opts).change_point;
    println!(
        "release detection: detected {detected}, true t={} → {}",
        s.release.index(),
        match detected.month() {
            Some(t) if (t as i64 - s.release.index() as i64).abs() <= 2 => "HOLDS",
            _ => "VIOLATED",
        }
    );
    println!("-- related: displaced incumbents (bottom panel) --");
    for (i, &inc) in s.incumbents.iter().enumerate() {
        print_series(&format!("incumbent {i}"), panel.medicine_series(inc));
    }

    // (d): generic entry.
    let s = generic_world(700);
    let ds = simulate(&s.world, 8);
    let panel = reproduce(&ds);
    let original = panel.medicine_series(s.original).to_vec();
    show_decomposition(
        "Fig. 6d — anti-platelet original declining after generic entry (t=18)",
        &original,
        false,
        &opts,
    );
    println!("-- related: generics (bottom panel) --");
    for (i, &g) in s.generics.iter().enumerate() {
        print_series(&format!("generic-{}", i + 1), panel.medicine_series(g));
    }
    let result = exact(&original, false, &opts);
    let lambda = result.fit.decompose(&original).lambda;
    println!(
        "decline check (negative lambda near entry): lambda = {lambda:.3}, change = {} → {}",
        result.change_point,
        match (result.change_point.month(), lambda < 0.0) {
            (Some(t), true) if (t as i64 - s.entry.index() as i64).abs() <= 4 => "HOLDS",
            _ => "VIOLATED",
        }
    );
}
