//! Table IV — fitting quality (mean/SD AIC) of the structural-model
//! variants and ARIMA on disease, medicine, and prescription series.
//!
//! Expected shape: LL worst everywhere; seasonality helps most for disease
//! series; the full model (LL+S+I) best for disease and medicine series;
//! ARIMA competitive on sparse prescription series but with far higher AIC
//! variance; paired t-tests significant for LL+S+I vs LL+S.

use mic_experiments::comparison::{build_evaluation_panel, EvaluationPanel};
use mic_experiments::output::{emit_table, section};
use mic_linkmodel::SeriesKey;
use mic_statespace::arima::{select_arima, ArimaFitOptions};
use mic_statespace::{
    fit_structural, search, FilterWorkspace, FitOptions, SearchPlan, StructuralSpec,
};
use mic_stats::{cohen_d_paired, paired_t_test, Summary};
use mic_trend::report::TextTable;

struct GroupAic {
    ll: Vec<f64>,
    ll_s: Vec<f64>,
    ll_i: Vec<f64>,
    full: Vec<f64>,
    arima: Vec<f64>,
    change_points: usize,
}

fn analyse(eval: &EvaluationPanel, keys: &[SeriesKey], fit: &FitOptions) -> GroupAic {
    let mut g = GroupAic {
        ll: Vec::new(),
        ll_s: Vec::new(),
        ll_i: Vec::new(),
        full: Vec::new(),
        arima: Vec::new(),
        change_points: 0,
    };
    let arima_opts = ArimaFitOptions { max_evals: 250 };
    let mut ws = FilterWorkspace::default();
    for &key in keys {
        let ys = eval.series(key);
        g.ll.push(fit_structural(ys, StructuralSpec::local_level(), fit).aic);
        g.ll_s
            .push(fit_structural(ys, StructuralSpec::with_seasonal(), fit).aic);
        // Intervention variants use the (approximate) automatic change-point
        // search, as the paper's pipeline does.
        let ll_i = search(ys, &SearchPlan::approx(false, *fit), &mut ws);
        g.ll_i.push(ll_i.aic);
        let full = search(ys, &SearchPlan::approx(true, *fit), &mut ws);
        if full.change_point.is_some() {
            g.change_points += 1;
        }
        g.full.push(full.aic);
        g.arima.push(select_arima(ys, 3, 1, &arima_opts).aic);
    }
    g
}

fn main() {
    println!("building evaluation panel (EM over 43 months)...");
    let eval = build_evaluation_panel(120);
    let fit = FitOptions {
        max_evals: 150,
        n_starts: 1,
    };

    let groups: Vec<(&str, &[SeriesKey])> = vec![
        ("disease", &eval.diseases),
        ("medicine", &eval.medicines),
        ("prescription", &eval.prescriptions),
    ];

    let mut table = TextTable::new(vec!["model", "disease", "medicine", "prescription"]);
    let mut results = Vec::new();
    for (name, keys) in &groups {
        println!("fitting {} {} series...", keys.len(), name);
        results.push(analyse(&eval, keys, &fit));
    }

    let row = |label: &str, pick: &dyn Fn(&GroupAic) -> &Vec<f64>| {
        let mut cells = vec![label.to_string()];
        for g in &results {
            cells.push(Summary::of(pick(g)).to_string());
        }
        cells
    };
    table
        .row(row("Local Level (LL)", &|g| &g.ll))
        .row(row("LL + Seasonality (S)", &|g| &g.ll_s))
        .row(row("LL + Intervention (I)", &|g| &g.ll_i))
        .row(row("LL + S + I (proposed)", &|g| &g.full))
        .row(row("ARIMA", &|g| &g.arima));
    section("Table IV — mean (SD) AIC per model and series type");
    emit_table("table4_fitting_quality", &table);

    section("Table IV — significance (LL+S+I vs LL+S)");
    for ((name, _), g) in groups.iter().zip(&results) {
        let t = paired_t_test(&g.full, &g.ll_s);
        let d = cohen_d_paired(&g.full, &g.ll_s);
        println!("{name}: {t}, Cohen's d = {d:.3}");
    }

    section("Table IV — change-point detection rates (full model)");
    for ((name, keys), g) in groups.iter().zip(&results) {
        println!(
            "{name}: {}/{} = {:.0}%",
            g.change_points,
            keys.len(),
            100.0 * g.change_points as f64 / keys.len().max(1) as f64
        );
    }

    // Shape checks.
    let mean = |v: &Vec<f64>| Summary::of(v).mean;
    let disease = &results[0];
    let medicine = &results[1];
    let prescription = &results[2];
    let ll_worst = mean(&disease.ll) > mean(&disease.full)
        && mean(&medicine.ll) > mean(&medicine.full)
        && mean(&prescription.ll) > mean(&prescription.full);
    let full_best_dm = mean(&disease.full) <= mean(&disease.ll_s)
        && mean(&medicine.full) <= mean(&medicine.ll_s)
        && mean(&disease.full) <= mean(&disease.ll_i)
        && mean(&medicine.full) <= mean(&medicine.ll_i);
    let arima_unstable = Summary::of(&prescription.arima).sd > Summary::of(&prescription.full).sd;
    println!();
    println!(
        "shape check (LL worst): {}",
        if ll_worst { "HOLDS" } else { "VIOLATED" }
    );
    println!(
        "shape check (LL+S+I best for disease & medicine): {}",
        if full_best_dm { "HOLDS" } else { "VIOLATED" }
    );
    println!(
        "shape check (ARIMA AIC variance larger on prescriptions): {}",
        if arima_unstable { "HOLDS" } else { "VIOLATED" }
    );
}
