//! Ablation: model-selection criterion (AIC vs BIC) for change-point
//! detection. The paper selects by AIC and argues it "performs at least as
//! well as its alternatives (e.g., BIC)" while noting the algorithms accept
//! other criteria; this ablation quantifies the trade: BIC's `ln n` penalty
//! keeps only the strongest change points (its detections are a subset of
//! AIC's), trading recall on weak ramps for robustness against spurious
//! structure.

use mic_experiments::comparison::build_evaluation_panel;
use mic_experiments::output::{emit_table, section};
use mic_statespace::{search, FilterWorkspace, FitOptions, SearchPlan, SelectionCriterion};
use mic_trend::report::TextTable;

fn main() {
    println!("building evaluation panel (EM over 43 months)...");
    let eval = build_evaluation_panel(60);
    let fit = FitOptions {
        max_evals: 150,
        n_starts: 1,
    };

    let groups: Vec<(&str, Vec<mic_linkmodel::SeriesKey>)> = vec![
        ("disease", eval.diseases.clone()),
        ("medicine", eval.medicines.clone()),
        ("prescription", eval.prescriptions.clone()),
    ];

    let mut table = TextTable::new(vec![
        "series type",
        "n",
        "AIC detections",
        "BIC detections",
        "BIC ⊆ AIC",
    ]);
    let mut subset_everywhere = true;
    for (name, keys) in &groups {
        println!(
            "searching {} {} series under AIC and BIC...",
            keys.len(),
            name
        );
        let mut aic_hits = 0;
        let mut bic_hits = 0;
        let mut subset = true;
        let mut ws = FilterWorkspace::default();
        for &key in keys {
            let ys = eval.series(key);
            let aic_plan = SearchPlan::exact(true, fit);
            let bic_plan = SearchPlan {
                criterion: SelectionCriterion::Bic,
                ..aic_plan
            };
            let aic = search(ys, &aic_plan, &mut ws);
            let bic = search(ys, &bic_plan, &mut ws);
            if aic.change_point.is_some() {
                aic_hits += 1;
            }
            if bic.change_point.is_some() {
                bic_hits += 1;
                if aic.change_point.month().is_none() {
                    subset = false;
                }
            }
        }
        subset_everywhere &= subset;
        table.row(vec![
            name.to_string(),
            keys.len().to_string(),
            aic_hits.to_string(),
            bic_hits.to_string(),
            if subset {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    section("Ablation — selection criterion for change-point detection");
    emit_table("ablation_criterion", &table);
    println!(
        "shape check (BIC detections ⊆ AIC detections): {}",
        if subset_everywhere {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
