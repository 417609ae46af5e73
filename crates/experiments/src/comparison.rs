//! Shared machinery for the Table IV/V/VI experiments: reproduce the
//! evaluation panel once, enumerate its filtered series (with a cap on the
//! long tail of prescription pairs so a single core finishes in minutes),
//! and run exact/approximate change-point searches over them.

use crate::scenarios::{evaluation_spec, simulate};
use mic_claims::ClaimsDataset;
use mic_linkmodel::{EmOptions, MedicationModel, PanelBuilder, PrescriptionPanel, SeriesKey};
use mic_statespace::{search, ChangePointSearch, FilterWorkspace, FitOptions, SearchPlan};
use std::time::Duration;

/// The reproduced evaluation panel plus the series selected for analysis.
pub struct EvaluationPanel {
    pub dataset: ClaimsDataset,
    pub panel: PrescriptionPanel,
    /// Selected series keys, grouped: (diseases, medicines, prescriptions).
    pub diseases: Vec<SeriesKey>,
    pub medicines: Vec<SeriesKey>,
    pub prescriptions: Vec<SeriesKey>,
}

impl EvaluationPanel {
    /// All selected keys in one list.
    pub fn all_keys(&self) -> Vec<SeriesKey> {
        let mut v = self.diseases.clone();
        v.extend(self.medicines.iter().copied());
        v.extend(self.prescriptions.iter().copied());
        v
    }

    pub fn series(&self, key: SeriesKey) -> &[f64] {
        self.panel.series(key).expect("selected key has a series")
    }
}

/// Build the evaluation panel. `max_prescriptions` caps the prescription-
/// pair series (taken in deterministic sorted order) so the table
/// experiments finish on one core; disease and medicine series are never
/// capped. A cap of 0 means "all".
pub fn build_evaluation_panel(max_prescriptions: usize) -> EvaluationPanel {
    let world = evaluation_spec().generate();
    let dataset = simulate(&world, 13);
    let em = EmOptions::default();
    let mut builder = PanelBuilder::new(dataset.n_diseases, dataset.n_medicines, dataset.horizon());
    for month in &dataset.months {
        let model = MedicationModel::fit(month, dataset.n_diseases, dataset.n_medicines, &em);
        builder.add_month(month, &model);
    }
    let panel = builder.build();
    let keys = panel.filtered_keys(10.0);
    let mut diseases = Vec::new();
    let mut medicines = Vec::new();
    let mut prescriptions = Vec::new();
    for key in keys {
        match key {
            SeriesKey::Disease(_) => diseases.push(key),
            SeriesKey::Medicine(_) => medicines.push(key),
            SeriesKey::Prescription(..) => prescriptions.push(key),
        }
    }
    if max_prescriptions > 0 && prescriptions.len() > max_prescriptions {
        // Deterministic thinning: take every k-th pair.
        let step = prescriptions.len() as f64 / max_prescriptions as f64;
        prescriptions = (0..max_prescriptions)
            .map(|i| prescriptions[(i as f64 * step) as usize])
            .collect();
    }
    EvaluationPanel {
        dataset,
        panel,
        diseases,
        medicines,
        prescriptions,
    }
}

/// Exact-vs-approximate search results for one series.
pub struct SearchComparison {
    pub key: SeriesKey,
    pub exact: ChangePointSearch,
    pub approx: ChangePointSearch,
}

/// Aggregate cost of one search pass, read from the `mic-obs` recorder
/// (snapshot deltas around each phase) rather than private `Instant` timers.
/// This is the Table V measurement: totals come from the `kf.search.exact` /
/// `kf.search.approx` / `kf.fit` timers, fit and candidate counts from the
/// matching counters, and the cost unit `C_KF` from the `kf.loglik` timer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchCost {
    /// Total wall time of all exact (Algorithm 1) searches in the pass.
    pub exact_total: Duration,
    /// Total wall time of all approximate (Algorithm 2) searches.
    pub approx_total: Duration,
    /// Total wall time of one no-intervention fit per series (the Table V
    /// cost baseline).
    pub base_total: Duration,
    /// Structural fits performed by the exact searches.
    pub fits_exact: u64,
    /// Structural fits performed by the approximate searches.
    pub fits_approx: u64,
    /// Candidate change points scored by the exact searches.
    pub candidates_exact: u64,
    /// Candidate change points scored by the approximate searches.
    pub candidates_approx: u64,
    /// Measured `C_KF`: mean wall time of one Kalman likelihood
    /// evaluation during the pass, in nanoseconds.
    pub kf_cost_unit_ns: f64,
}

fn timer_total(snap: &mic_obs::Snapshot, name: &str) -> Duration {
    Duration::from_nanos(snap.timer(name).map_or(0, |t| t.total_ns))
}

/// Run both algorithms over `keys`.
pub fn compare_searches(
    eval: &EvaluationPanel,
    keys: &[SeriesKey],
    seasonal: bool,
    fit: &FitOptions,
) -> Vec<SearchComparison> {
    let mut ws = FilterWorkspace::default();
    keys.iter()
        .map(|&key| {
            let ys = eval.series(key);
            let exact = search(ys, &SearchPlan::exact(seasonal, *fit), &mut ws);
            let approx = search(ys, &SearchPlan::approx(seasonal, *fit), &mut ws);
            SearchComparison { key, exact, approx }
        })
        .collect()
}

/// Run both algorithms over `keys` with the instrumentation recorder on,
/// and return the pass cost measured from metric snapshot deltas.
///
/// The searches and the baseline no-intervention fits run as separate
/// phases so the shared `kf.fit` timer can attribute the baseline total;
/// `kf.search.*` timers distinguish exact from approximate within the
/// search phase.
pub fn compare_searches_metered(
    eval: &EvaluationPanel,
    keys: &[SeriesKey],
    seasonal: bool,
    fit: &FitOptions,
) -> (Vec<SearchComparison>, SearchCost) {
    mic_obs::enable();
    let before = mic_obs::snapshot();
    let results = compare_searches(eval, keys, seasonal, fit);
    let after_search = mic_obs::snapshot();
    for &key in keys {
        let ys = eval.series(key);
        let spec = if seasonal {
            mic_statespace::StructuralSpec::with_seasonal()
        } else {
            mic_statespace::StructuralSpec::local_level()
        };
        let _ = mic_statespace::fit_structural(ys, spec, fit);
    }
    let after_base = mic_obs::snapshot();

    let search = after_search.delta(&before);
    let base = after_base.delta(&after_search);
    let cost = SearchCost {
        exact_total: timer_total(&search, "kf.search.exact"),
        approx_total: timer_total(&search, "kf.search.approx"),
        base_total: timer_total(&base, "kf.fit"),
        fits_exact: search.counter("kf.fits_exact"),
        fits_approx: search.counter("kf.fits_approx"),
        candidates_exact: search.counter("kf.candidates_exact"),
        candidates_approx: search.counter("kf.candidates_approx"),
        kf_cost_unit_ns: search.timer("kf.loglik").map_or(f64::NAN, |t| t.mean_ns()),
    };
    (results, cost)
}
