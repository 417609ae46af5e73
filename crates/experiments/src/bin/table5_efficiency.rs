//! Table V — computational cost of the exact (Algorithm 1) vs approximate
//! (Algorithm 2) change-point searches.
//!
//! Reports total wall time per series type and the *increase rate* over the
//! no-intervention fit. The paper's theory: exact ≈ T (= 43) times one fit,
//! approximate ≈ log₂(T) ≈ 5.4 times; their measurements were ≈ 28–35 and
//! ≈ 6–7.4 respectively.
//!
//! All timings come from the `mic-obs` recorder (snapshot deltas per phase)
//! instead of private timers, so the numbers shown here are exactly the
//! `kf.search.*` / `kf.fit` metrics a `--metrics` run would export. The
//! measured cost units `C_EM` (mean EM step) and `C_KF` (mean Kalman
//! likelihood evaluation) are reported alongside.

use mic_experiments::comparison::{build_evaluation_panel, compare_searches_metered};
use mic_experiments::output::{emit_table, section};
use mic_statespace::FitOptions;
use mic_trend::report::TextTable;

fn main() {
    mic_obs::enable();
    println!("building evaluation panel (EM over 43 months)...");
    let panel_before = mic_obs::snapshot();
    let eval = build_evaluation_panel(60);
    let panel_delta = mic_obs::snapshot().delta(&panel_before);
    let fit = FitOptions {
        max_evals: 150,
        n_starts: 1,
    };

    let groups: Vec<(&str, Vec<mic_linkmodel::SeriesKey>, bool)> = vec![
        ("disease", eval.diseases.clone(), true),
        ("medicine", eval.medicines.clone(), true),
        ("prescription", eval.prescriptions.clone(), true),
    ];

    let mut table = TextTable::new(vec![
        "series type",
        "n series",
        "exact total (s)",
        "approx total (s)",
        "exact rate",
        "approx rate",
        "exact fits/series",
        "approx fits/series",
    ]);
    let mut all_rates = Vec::new();
    let mut kf_cost_units = Vec::new();
    for (name, keys, seasonal) in &groups {
        println!(
            "searching {} {} series (exact + approximate)...",
            keys.len(),
            name
        );
        let (results, cost) = compare_searches_metered(&eval, keys, *seasonal, &fit);
        let n = results.len().max(1) as f64;
        let exact_rate = cost.exact_total.as_secs_f64() / cost.base_total.as_secs_f64();
        let approx_rate = cost.approx_total.as_secs_f64() / cost.base_total.as_secs_f64();
        table.row(vec![
            name.to_string(),
            results.len().to_string(),
            format!("{:.2}", cost.exact_total.as_secs_f64()),
            format!("{:.2}", cost.approx_total.as_secs_f64()),
            format!("{exact_rate:.2}"),
            format!("{approx_rate:.2}"),
            format!("{:.1}", cost.fits_exact as f64 / n),
            format!("{:.1}", cost.fits_approx as f64 / n),
        ]);
        all_rates.push((exact_rate, approx_rate));
        kf_cost_units.push(cost.kf_cost_unit_ns);
    }
    section("Table V — computation time and increase rate over the no-intervention fit");
    emit_table("table5_efficiency", &table);

    println!();
    let c_em = panel_delta
        .timer("em.step")
        .map_or(f64::NAN, |t| t.mean_ns());
    let c_kf = kf_cost_units.iter().sum::<f64>() / kf_cost_units.len().max(1) as f64;
    println!(
        "measured cost units: C_EM = {} per EM step, C_KF = {} per likelihood evaluation",
        mic_obs::format_ns(c_em),
        mic_obs::format_ns(c_kf),
    );
    println!("theoretical rates for T = 43: exact ≈ 43, approximate ≈ log2(43) ≈ 5.43");
    let shape = all_rates.iter().all(|&(e, a)| {
        e > 4.0 * a           // exact is several times costlier
            && (20.0..70.0).contains(&e)  // near T
            && (3.0..14.0).contains(&a) // near log2(T)
    });
    println!(
        "shape check (exact ≈ T×, approx ≈ log₂T× the base fit): {}",
        if shape { "HOLDS" } else { "VIOLATED" }
    );
}
