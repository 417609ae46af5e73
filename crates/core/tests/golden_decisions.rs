//! Golden change-point decisions on two pinned worlds.
//!
//! The literal `(series, change month)` detections and the cause
//! categorisations below were recorded from the pipeline before its Stage-2
//! consolidation (one search entry point, one likelihood kernel); they pin
//! every decision end to end, under both Algorithm 2 (approx) and
//! Algorithm 1 (exact). Every series not listed is pinned to "no change" by
//! the series count. The approximate search must also never report a
//! change the exhaustive search rejects (approx ⊂ exact).

use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{PipelineConfig, TrendPipeline, TrendReport};

fn dataset(months: u32, patients: usize, seed: u64) -> mic_claims::ClaimsDataset {
    let spec = WorldSpec {
        seed,
        months,
        n_diseases: 8,
        n_medicines: 12,
        n_patients: patients,
        n_hospitals: 4,
        n_cities: 2,
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

fn run(ds: &mic_claims::ClaimsDataset, seasonal: bool, approximate_search: bool) -> TrendReport {
    let config = PipelineConfig {
        seasonal,
        approximate_search,
        fit: FitOptions {
            max_evals: 100,
            n_starts: 1,
        },
        threads: 2,
        ..Default::default()
    };
    TrendPipeline::new(config).run(ds).unwrap()
}

fn detections(report: &TrendReport) -> Vec<(String, usize)> {
    report
        .series
        .iter()
        .filter_map(|r| r.change_point.month().map(|t| (r.key.to_string(), t)))
        .collect()
}

fn causes(report: &TrendReport) -> Vec<(String, String)> {
    report
        .causes
        .iter()
        .map(|(key, cause)| (key.to_string(), cause.to_string()))
        .collect()
}

fn assert_golden(
    report: &TrendReport,
    n_series: usize,
    pinned: &[(&str, usize)],
    pinned_causes: &[(&str, &str)],
) {
    assert_eq!(report.series.len(), n_series);
    let pinned: Vec<(String, usize)> = pinned.iter().map(|&(k, t)| (k.to_string(), t)).collect();
    assert_eq!(detections(report), pinned);
    let pinned_causes: Vec<(String, String)> = pinned_causes
        .iter()
        .map(|&(k, c)| (k.to_string(), c.to_string()))
        .collect();
    assert_eq!(causes(report), pinned_causes);
}

/// Approx ⊂ exact: every series the binary search flags is also flagged by
/// the exhaustive search.
fn assert_approx_within_exact(approx: &TrendReport, exact: &TrendReport) {
    let exact_keys: Vec<String> = detections(exact).into_iter().map(|(k, _)| k).collect();
    for (key, t) in detections(approx) {
        assert!(
            exact_keys.contains(&key),
            "{key}: approx found a change at t={t} the exact search rejected"
        );
    }
}

/// The 24-month world of the session-equivalence suite, under the paper's
/// seasonal model.
#[test]
fn golden_24_month_seasonal_decisions() {
    let ds = dataset(24, 150, 42);
    let approx = run(&ds, true, true);
    let exact = run(&ds, true, false);
    assert_golden(&approx, N24, W24_APPROX, W24_APPROX_CAUSES);
    assert_golden(&exact, N24, W24_EXACT, W24_EXACT_CAUSES);
    assert_approx_within_exact(&approx, &exact);
}

/// A 72-month non-seasonal world: the long horizon on which a
/// covariance-convergence shortcut would have the most room to move a
/// decision.
#[test]
fn golden_72_month_non_seasonal_decisions() {
    let ds = dataset(72, 100, 7);
    let approx = run(&ds, false, true);
    let exact = run(&ds, false, false);
    assert_golden(&approx, N72, W72_APPROX, W72_APPROX_CAUSES);
    assert_golden(&exact, N72, W72_EXACT, W72_EXACT_CAUSES);
    assert_approx_within_exact(&approx, &exact);
}

const N24: usize = 95;
const N72: usize = 103;

const W24_APPROX: &[(&str, usize)] = &[
    ("disease/D4", 19),
    ("disease/D6", 19),
    ("disease/D7", 21),
    ("medicine/M2", 21),
    ("medicine/M3", 21),
    ("medicine/M4", 6),
    ("medicine/M5", 20),
    ("medicine/M12", 14),
    ("medicine/M13", 21),
    ("medicine/M14", 21),
    ("medicine/M15", 21),
    ("prescription/D0/M2", 10),
    ("prescription/D0/M12", 21),
    ("prescription/D2/M0", 7),
    ("prescription/D2/M5", 21),
    ("prescription/D2/M12", 11),
    ("prescription/D2/M14", 21),
    ("prescription/D3/M3", 6),
    ("prescription/D3/M4", 5),
    ("prescription/D5/M5", 21),
    ("prescription/D5/M15", 21),
    ("prescription/D6/M2", 20),
    ("prescription/D6/M3", 21),
    ("prescription/D6/M5", 11),
    ("prescription/D6/M14", 21),
    ("prescription/D6/M15", 20),
    ("prescription/D7/M3", 21),
    ("prescription/D7/M5", 21),
    ("prescription/D7/M9", 21),
    ("prescription/D7/M11", 21),
    ("prescription/D7/M13", 21),
    ("prescription/D7/M14", 21),
    ("prescription/D7/M15", 21),
];

const W24_APPROX_CAUSES: &[(&str, &str)] = &[
    ("prescription/D0/M2", "prescription-derived"),
    ("prescription/D0/M12", "prescription-derived"),
    ("prescription/D2/M0", "prescription-derived"),
    ("prescription/D2/M5", "medicine-derived"),
    ("prescription/D2/M12", "prescription-derived"),
    ("prescription/D2/M14", "medicine-derived"),
    ("prescription/D3/M3", "prescription-derived"),
    ("prescription/D3/M4", "prescription-derived"),
    ("prescription/D5/M5", "medicine-derived"),
    ("prescription/D5/M15", "medicine-derived"),
    ("prescription/D6/M2", "disease-derived"),
    ("prescription/D6/M3", "medicine-derived"),
    ("prescription/D6/M5", "prescription-derived"),
    ("prescription/D6/M14", "medicine-derived"),
    ("prescription/D6/M15", "medicine-derived"),
    ("prescription/D7/M3", "medicine-derived"),
    ("prescription/D7/M5", "medicine-derived"),
    ("prescription/D7/M9", "disease-derived"),
    ("prescription/D7/M11", "disease-derived"),
    ("prescription/D7/M13", "disease-derived"),
    ("prescription/D7/M14", "medicine-derived"),
    ("prescription/D7/M15", "medicine-derived"),
];

const W24_EXACT: &[(&str, usize)] = &[
    ("disease/D4", 19),
    ("disease/D6", 19),
    ("disease/D7", 21),
    ("medicine/M2", 21),
    ("medicine/M3", 21),
    ("medicine/M4", 6),
    ("medicine/M5", 20),
    ("medicine/M6", 19),
    ("medicine/M12", 14),
    ("medicine/M13", 21),
    ("medicine/M14", 21),
    ("medicine/M15", 21),
    ("prescription/D0/M2", 10),
    ("prescription/D0/M12", 21),
    ("prescription/D2/M0", 7),
    ("prescription/D2/M5", 21),
    ("prescription/D2/M12", 11),
    ("prescription/D2/M14", 21),
    ("prescription/D3/M3", 6),
    ("prescription/D3/M4", 5),
    ("prescription/D5/M5", 21),
    ("prescription/D5/M15", 21),
    ("prescription/D6/M1", 17),
    ("prescription/D6/M2", 20),
    ("prescription/D6/M3", 21),
    ("prescription/D6/M5", 11),
    ("prescription/D6/M12", 19),
    ("prescription/D6/M14", 21),
    ("prescription/D6/M15", 20),
    ("prescription/D7/M3", 21),
    ("prescription/D7/M5", 21),
    ("prescription/D7/M9", 21),
    ("prescription/D7/M11", 21),
    ("prescription/D7/M13", 21),
    ("prescription/D7/M14", 21),
    ("prescription/D7/M15", 21),
];

const W24_EXACT_CAUSES: &[(&str, &str)] = &[
    ("prescription/D0/M2", "prescription-derived"),
    ("prescription/D0/M12", "prescription-derived"),
    ("prescription/D2/M0", "prescription-derived"),
    ("prescription/D2/M5", "medicine-derived"),
    ("prescription/D2/M12", "prescription-derived"),
    ("prescription/D2/M14", "medicine-derived"),
    ("prescription/D3/M3", "prescription-derived"),
    ("prescription/D3/M4", "prescription-derived"),
    ("prescription/D5/M5", "medicine-derived"),
    ("prescription/D5/M15", "medicine-derived"),
    ("prescription/D6/M1", "disease-derived"),
    ("prescription/D6/M2", "disease-derived"),
    ("prescription/D6/M3", "medicine-derived"),
    ("prescription/D6/M5", "prescription-derived"),
    ("prescription/D6/M12", "disease-derived"),
    ("prescription/D6/M14", "medicine-derived"),
    ("prescription/D6/M15", "medicine-derived"),
    ("prescription/D7/M3", "medicine-derived"),
    ("prescription/D7/M5", "medicine-derived"),
    ("prescription/D7/M9", "disease-derived"),
    ("prescription/D7/M11", "disease-derived"),
    ("prescription/D7/M13", "disease-derived"),
    ("prescription/D7/M14", "medicine-derived"),
    ("prescription/D7/M15", "medicine-derived"),
];

const W72_APPROX: &[(&str, usize)] = &[
    ("disease/D7", 69),
    ("medicine/M0", 69),
    ("prescription/D0/M3", 69),
    ("prescription/D2/M1", 69),
    ("prescription/D3/M1", 69),
    ("prescription/D4/M7", 69),
    ("prescription/D4/M11", 69),
    ("prescription/D7/M0", 69),
    ("prescription/D7/M10", 69),
];

const W72_APPROX_CAUSES: &[(&str, &str)] = &[
    ("prescription/D0/M3", "prescription-derived"),
    ("prescription/D2/M1", "prescription-derived"),
    ("prescription/D3/M1", "prescription-derived"),
    ("prescription/D4/M7", "prescription-derived"),
    ("prescription/D4/M11", "prescription-derived"),
    ("prescription/D7/M0", "disease-derived"),
    ("prescription/D7/M10", "disease-derived"),
];

const W72_EXACT: &[(&str, usize)] = &[
    ("disease/D7", 69),
    ("medicine/M0", 69),
    ("prescription/D0/M3", 69),
    ("prescription/D2/M1", 69),
    ("prescription/D3/M1", 69),
    ("prescription/D4/M7", 69),
    ("prescription/D4/M11", 69),
    ("prescription/D7/M0", 69),
    ("prescription/D7/M10", 69),
];

const W72_EXACT_CAUSES: &[(&str, &str)] = &[
    ("prescription/D0/M3", "prescription-derived"),
    ("prescription/D2/M1", "prescription-derived"),
    ("prescription/D3/M1", "prescription-derived"),
    ("prescription/D4/M7", "prescription-derived"),
    ("prescription/D4/M11", "prescription-derived"),
    ("prescription/D7/M0", "disease-derived"),
    ("prescription/D7/M10", "disease-derived"),
];
