//! Long-lived incremental analysis sessions.
//!
//! The paper's pipeline consumes *monthly* MIC datasets, but the batch
//! [`crate::pipeline::TrendPipeline::run`] recomputes every monthly EM fit
//! and every change-point search from scratch whenever a month arrives. An
//! [`AnalysisSession`] owns all cross-call state instead — the per-month
//! fitted `Φ` models, the accumulated [`PrescriptionPanel`], and a per-series
//! [`FitCache`] of Stage-2 results — so absorbing month `T+1` costs one EM
//! fit (warm-started from month `T`'s `Φ` when `continuity > 0`, the paper's
//! Section IV-C temporal prior) plus change-point searches only for series
//! whose data actually changed, each seeded from its cached optimum.
//!
//! The two pipeline stages are explicit types composed by the session:
//!
//! - [`Stage1Reproduce`] — frequency filter + monthly EM fit + panel
//!   extension (Eqs. 5–8);
//! - [`Stage2Detect`] — AIC change-point search and λ decomposition per
//!   series (Algorithms 1–2).
//!
//! **Equivalence by construction**: the batch pipeline is a thin wrapper
//! that feeds all months into a fresh session
//! ([`AnalysisSession::from_dataset`]), and each appended month
//! depends only on that month's records, the previous month's final `Φ`,
//! and the configuration. Feeding months one-by-one therefore reproduces
//! the batch panel bit-for-bit; Stage-2 results can differ only where a
//! warm-started refit converges to a marginally different optimum, which is
//! why the equivalence tests pin change-point *decisions*.
//!
//! **Cache invalidation** is content-based: each [`FitCache`] entry stores a
//! hash of the series' exact values (length + every `f64` bit pattern). A
//! lookup hits only when the hash matches; any change — including a grown
//! horizon, since even a trailing zero changes the change-point candidate
//! set — invalidates the entry, and the refit is warm-started from the
//! stale entry's fitted variances instead of the default simplex.

use crate::classify::{classify_change, ChangeCause, MATCH_WINDOW};
use crate::pipeline::{PipelineConfig, SeriesReport, TrendReport};
use mic_claims::{
    ClaimsDataset, ClaimsError, FilteredVocabulary, FrequencyFilter, MonthlyDataset, YearMonth,
};
use mic_linkmodel::{EmOptions, EmWorkspace, MedicationModel, PrescriptionPanel, SeriesKey};
use mic_par::{default_threads, parallel_map_with};
use mic_statespace::{
    search, ChangePoint, FilterWorkspace, SearchAlgorithm, SearchPlan, WarmStart,
};
use std::collections::HashMap;

/// Resolve a configured worker count: 0 means [`default_threads`].
fn worker_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Stage 1 of the pipeline as an explicit type: per-month frequency
/// filtering and EM fitting of the medication model, with the optional
/// temporal-prior refinement (`continuity`) chaining consecutive months.
#[derive(Clone, Debug)]
pub struct Stage1Reproduce {
    pub filter: FrequencyFilter,
    pub em: EmOptions,
    /// Temporal-prior weight for chaining consecutive months' `Φ`
    /// (see [`MedicationModel::fit_tracked`]); 0 = independent fits.
    pub continuity: f64,
    /// Worker threads for batch month fits (0 = auto).
    pub threads: usize,
}

impl Stage1Reproduce {
    pub fn from_config(config: &PipelineConfig) -> Stage1Reproduce {
        Stage1Reproduce {
            filter: config.frequency_filter,
            em: config.em,
            continuity: config.continuity,
            threads: config.threads,
        }
    }

    /// Parallel filter + *independent* EM fit of a batch of months — the
    /// cost-dominant half of Stage 1. One [`EmWorkspace`] per worker; the
    /// result is identical at any thread count. Continuity refinement is
    /// sequential by nature and left to the caller (see
    /// [`AnalysisSession::append_months`]).
    pub fn fit_months(
        &self,
        months: &[MonthlyDataset],
        n_diseases: usize,
        n_medicines: usize,
    ) -> Vec<(MonthlyDataset, FilteredVocabulary, MedicationModel)> {
        parallel_map_with(
            months,
            worker_threads(self.threads),
            EmWorkspace::new,
            |ws, month| {
                let (filtered, vocab) = self.filter.filter_month(month, n_diseases, n_medicines);
                let model =
                    MedicationModel::fit_with(&filtered, n_diseases, n_medicines, &self.em, ws);
                mic_obs::counter("pipeline.stage1_fits", 1);
                // Publish this worker's collector so periodic `--progress`
                // snapshots see Stage-1 work as it completes.
                mic_obs::flush();
                (filtered, vocab, model)
            },
        )
    }

    /// Filter + fit one month as the next element of a tracked sequence:
    /// cold fit plus the continuity refinement from `prev` when configured.
    fn fit_month_next(
        &self,
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
        prev: Option<&MedicationModel>,
        ws: &mut EmWorkspace,
    ) -> (MonthlyDataset, FilteredVocabulary, MedicationModel) {
        let (filtered, vocab) = self.filter.filter_month(month, n_diseases, n_medicines);
        let model = MedicationModel::fit_next(
            &filtered,
            prev,
            n_diseases,
            n_medicines,
            &self.em,
            self.continuity,
            ws,
        );
        mic_obs::counter("pipeline.stage1_fits", 1);
        (filtered, vocab, model)
    }
}

/// Stage 2 of the pipeline as an explicit type: the AIC change-point search
/// (Algorithm 1 exact / Algorithm 2 binary) and λ decomposition for one
/// series, with an optional warm start from a cached optimum.
#[derive(Clone, Debug)]
pub struct Stage2Detect {
    /// Minimum total series mass over the window (paper: 10).
    pub min_total: f64,
    /// The cold AIC search every series runs; a refit adds its warm start.
    pub plan: SearchPlan,
    /// Worker threads for the series fleet (0 = auto).
    pub threads: usize,
}

impl Stage2Detect {
    pub fn from_config(config: &PipelineConfig) -> Stage2Detect {
        Stage2Detect {
            min_total: config.series_min_total,
            plan: SearchPlan {
                algorithm: if config.approximate_search {
                    SearchAlgorithm::Approx
                } else {
                    SearchAlgorithm::Exact
                },
                ..SearchPlan::exact(config.seasonal, config.fit)
            },
            threads: config.threads,
        }
    }

    /// Change-point analysis of one series (cold start).
    pub fn analyze_series(&self, key: SeriesKey, ys: &[f64]) -> SeriesReport {
        self.analyze_series_warm(key, ys, None, &mut FilterWorkspace::default())
            .0
    }

    /// [`Stage2Detect::analyze_series`] with an optional warm start and a
    /// caller-owned workspace; also returns the search's fitted optima so a
    /// session can seed the next refit of the same series.
    fn analyze_series_warm(
        &self,
        key: SeriesKey,
        ys: &[f64],
        warm: Option<WarmStart>,
        ws: &mut FilterWorkspace,
    ) -> (SeriesReport, WarmStart) {
        let plan = SearchPlan { warm, ..self.plan };
        let result = search(ys, &plan, ws);
        let lambda = if result.change_point.is_some() {
            result.fit.decompose(ys).lambda
        } else {
            0.0
        };
        let seeds = WarmStart::from_search(&result);
        let report = SeriesReport {
            key,
            change_point: result.change_point,
            aic: result.aic,
            aic_no_change: result.aic_no_change,
            lambda,
            fits_performed: result.fits_performed,
        };
        (report, seeds)
    }
}

/// One memoised Stage-2 result.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Content hash of the exact series the report was computed from.
    hash: u64,
    report: SeriesReport,
    /// The search's fitted optima — the warm seeds for the next refit of
    /// this series after its data changes.
    seeds: WarmStart,
}

/// Per-series cache of Stage-2 fits, keyed by series identity and guarded
/// by a content hash of the series values. See the module docs for the
/// invalidation rule.
#[derive(Clone, Debug, Default)]
pub struct FitCache {
    entries: HashMap<SeriesKey, CacheEntry>,
}

impl FitCache {
    /// Number of series with a memoised result.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every memoised result (the next analysis refits everything
    /// cold).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// FNV-1a over the series length and every value's exact bit pattern. Any
/// change to any observation — or to the horizon — changes the hash.
fn series_hash(ys: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (ys.len() as u64).to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    for y in ys {
        for b in y.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// Change-cause categorisation over a finished series fleet (Fig. 1b): for
/// every broken prescription pair, compare its change point against the
/// disease and medicine marginals and count sibling pairs of the same
/// medicine breaking in the same window.
pub(crate) fn classify_all(series: &[SeriesReport]) -> Vec<(SeriesKey, ChangeCause)> {
    let classify_span = mic_obs::span("pipeline.classify");
    let mut by_key: HashMap<SeriesKey, &SeriesReport> = HashMap::new();
    let mut broken_pairs_by_medicine: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
    for r in series {
        by_key.insert(r.key, r);
        if let (SeriesKey::Prescription(d, m), ChangePoint::At(t)) = (r.key, r.change_point) {
            broken_pairs_by_medicine
                .entry(m.0)
                .or_default()
                .push((d.0, t));
        }
    }
    let mut causes = Vec::new();
    for r in series {
        if let (SeriesKey::Prescription(d, m), ChangePoint::At(t)) = (r.key, r.change_point) {
            let disease_cp = by_key
                .get(&SeriesKey::Disease(d))
                .and_then(|r| r.change_point.month());
            let medicine_cp = by_key
                .get(&SeriesKey::Medicine(m))
                .and_then(|r| r.change_point.month());
            let siblings = broken_pairs_by_medicine
                .get(&m.0)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter(|&&(dd, tt)| {
                            dd != d.0 && (tt as i64 - t as i64).abs() <= MATCH_WINDOW
                        })
                        .count()
                })
                .unwrap_or(0);
            causes.push((r.key, classify_change(t, disease_cp, medicine_cp, siblings)));
        }
    }
    classify_span.end();
    causes
}

/// A long-lived incremental analysis over a growing monthly claims window.
///
/// Owns the fitted per-month `Φ` models, the accumulated panel, and the
/// Stage-2 [`FitCache`]. Feed months with [`AnalysisSession::append_month`]
/// (or in bulk with [`AnalysisSession::append_months`]) and pull reports
/// with [`AnalysisSession::analyze`] whenever needed; repeated analyses of
/// an unchanged window are served from the cache.
#[derive(Clone)]
pub struct AnalysisSession {
    stage1: Stage1Reproduce,
    stage2: Stage2Detect,
    start: YearMonth,
    n_diseases: usize,
    n_medicines: usize,
    models: Vec<MedicationModel>,
    panel: PrescriptionPanel,
    cache: FitCache,
}

impl AnalysisSession {
    /// An empty session for a claims world of the given catalogue sizes,
    /// anchored at `start`.
    pub fn new(
        config: &PipelineConfig,
        start: YearMonth,
        n_diseases: usize,
        n_medicines: usize,
    ) -> AnalysisSession {
        AnalysisSession {
            stage1: Stage1Reproduce::from_config(config),
            stage2: Stage2Detect::from_config(config),
            start,
            n_diseases,
            n_medicines,
            models: Vec::new(),
            panel: PrescriptionPanel::empty(n_diseases, n_medicines, 0),
            cache: FitCache::default(),
        }
    }

    /// A session pre-loaded with every month of `ds` (batch Stage 1).
    pub fn from_dataset(
        config: &PipelineConfig,
        ds: &ClaimsDataset,
    ) -> Result<AnalysisSession, ClaimsError> {
        let mut session = AnalysisSession::new(config, ds.start, ds.n_diseases, ds.n_medicines);
        session.append_months(&ds.months)?;
        Ok(session)
    }

    /// Months absorbed so far.
    pub fn horizon(&self) -> usize {
        self.models.len()
    }

    /// Calendar anchor of month 0.
    pub fn start(&self) -> YearMonth {
        self.start
    }

    /// The accumulated reproduced panel.
    pub fn panel(&self) -> &PrescriptionPanel {
        &self.panel
    }

    /// The fitted medication model of each absorbed month.
    pub fn models(&self) -> &[MedicationModel] {
        &self.models
    }

    /// Number of series with a memoised Stage-2 result.
    pub fn cached_series(&self) -> usize {
        self.cache.len()
    }

    /// Drop every memoised Stage-2 result and warm seed: the next
    /// [`analyze`](Self::analyze) refits everything cold, which makes its
    /// report bitwise identical to a batch [`TrendPipeline::run`] over the
    /// same months (see the module docs on equivalence by construction).
    ///
    /// [`TrendPipeline::run`]: crate::TrendPipeline::run
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// A month is accepted only if it carries the next sequential label
    /// and every id fits the session's catalogue sizes — the panel and the
    /// frequency filter index dense arrays by id.
    fn check_month(&self, month: &MonthlyDataset, offset: usize) -> Result<(), ClaimsError> {
        let index = self.models.len() + offset;
        if month.month.index() != index {
            return Err(ClaimsError::MonthLabel {
                index,
                label: month.month,
            });
        }
        month.check_ids(self.n_diseases, self.n_medicines)
    }

    fn record_drops(
        &self,
        month: &MonthlyDataset,
        filtered: &MonthlyDataset,
        vocab: &FilteredVocabulary,
    ) {
        // The frequency filter's silent drops, made visible: entities below
        // the per-month threshold and the records they emptied.
        mic_obs::counter(
            "pipeline.diseases_dropped",
            (self.n_diseases - vocab.n_kept_diseases()) as u64,
        );
        mic_obs::counter(
            "pipeline.medicines_dropped",
            (self.n_medicines - vocab.n_kept_medicines()) as u64,
        );
        mic_obs::counter(
            "pipeline.records_dropped",
            (month.records.len() - filtered.records.len()) as u64,
        );
    }

    /// Absorb one new month: filter, fit its EM model (warm-started from
    /// the previous month's `Φ` when `continuity > 0`), and extend every
    /// affected series by one point. The month must carry the next
    /// sequential label and only ids below the session's catalogue sizes;
    /// otherwise the session is left unchanged and the error returned.
    /// Stage-2 refits are deferred to the next [`AnalysisSession::analyze`],
    /// which touches only changed series.
    pub fn append_month(&mut self, month: &MonthlyDataset) -> Result<(), ClaimsError> {
        self.check_month(month, 0)?;
        let _span = mic_obs::span("session.append");
        let mut ws = EmWorkspace::new();
        let (filtered, vocab, model) = self.stage1.fit_month_next(
            month,
            self.n_diseases,
            self.n_medicines,
            self.models.last(),
            &mut ws,
        );
        self.absorb(month, &filtered, &vocab, model);
        Ok(())
    }

    /// Absorb a batch of months: the independent EM fits fan out over
    /// Stage 1's worker threads (exactly the batch pipeline's Stage 1),
    /// then the sequential continuity refinement and panel extension chain
    /// through the months serially. Element-wise identical to calling
    /// [`AnalysisSession::append_month`] once per month.
    pub fn append_months(&mut self, months: &[MonthlyDataset]) -> Result<(), ClaimsError> {
        let _span = mic_obs::span("pipeline.stage1");
        for (i, month) in months.iter().enumerate() {
            self.check_month(month, i)?;
        }
        let fitted = self
            .stage1
            .fit_months(months, self.n_diseases, self.n_medicines);
        let mut ws = EmWorkspace::new();
        for (month, (filtered, vocab, mut model)) in months.iter().zip(fitted) {
            if let Some(prev) = self.models.last() {
                model.refine_next(
                    &filtered,
                    prev,
                    self.stage1.continuity,
                    &self.stage1.em,
                    &mut ws,
                );
            }
            self.absorb(month, &filtered, &vocab, model);
        }
        Ok(())
    }

    fn absorb(
        &mut self,
        month: &MonthlyDataset,
        filtered: &MonthlyDataset,
        vocab: &FilteredVocabulary,
        model: MedicationModel,
    ) {
        self.record_drops(month, filtered, vocab);
        self.panel.extend_with(filtered, &model);
        self.models.push(model);
        mic_obs::counter("session.appends", 1);
    }

    /// Stage 2 over the current window, served from the [`FitCache`] where
    /// the data is unchanged: cache hits return the memoised report, misses
    /// refit — warm-started from the stale entry when one exists — and the
    /// cache is updated. Reports come back in sorted key order, exactly as
    /// the batch pipeline produces them.
    fn detect_series(&mut self) -> Vec<SeriesReport> {
        let _span = mic_obs::span("pipeline.stage2");
        let keys = self.panel.filtered_keys(self.stage2.min_total);
        mic_obs::counter("pipeline.series_admitted", keys.len() as u64);
        mic_obs::counter(
            "pipeline.series_dropped",
            (self.panel.n_series() - keys.len()) as u64,
        );
        let panel = &self.panel;
        let stage2 = &self.stage2;
        let cache = &mut self.cache;

        enum Slot {
            Hit(SeriesReport),
            Pending(usize),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(keys.len());
        let mut jobs: Vec<(SeriesKey, &[f64], u64, Option<WarmStart>)> = Vec::new();
        for &key in &keys {
            let Some(ys) = panel.series(key) else {
                // A filtered key without a backing series is a panel
                // inconsistency; skip and count it rather than abort the
                // whole run.
                mic_obs::counter("pipeline.key_mismatch", 1);
                continue;
            };
            let hash = series_hash(ys);
            match cache.entries.get(&key) {
                Some(entry) if entry.hash == hash => {
                    mic_obs::counter("session.cache_hits", 1);
                    slots.push(Slot::Hit(entry.report.clone()));
                }
                entry => {
                    mic_obs::counter("session.cache_misses", 1);
                    let warm = entry.map(|e| e.seeds);
                    mic_obs::counter(
                        if warm.is_some() {
                            "session.warm_fits"
                        } else {
                            "session.cold_fits"
                        },
                        1,
                    );
                    slots.push(Slot::Pending(jobs.len()));
                    jobs.push((key, ys, hash, warm));
                }
            }
        }
        let fitted = parallel_map_with(
            &jobs,
            worker_threads(stage2.threads),
            FilterWorkspace::default,
            |ws, &(key, ys, _, warm)| {
                let (report, seeds) = stage2.analyze_series_warm(key, ys, warm, ws);
                mic_obs::counter("pipeline.fits", report.fits_performed as u64);
                mic_obs::value("pipeline.fits_per_series", report.fits_performed as f64);
                // Publish this worker's collector so periodic `--progress`
                // snapshots see work as it completes, not only at join.
                mic_obs::flush();
                (report, seeds)
            },
        );
        for (&(key, _, hash, _), (report, seeds)) in jobs.iter().zip(&fitted) {
            cache.entries.insert(
                key,
                CacheEntry {
                    hash,
                    report: report.clone(),
                    seeds: *seeds,
                },
            );
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Hit(report) => report,
                Slot::Pending(i) => fitted[i].0.clone(),
            })
            .collect()
    }

    /// Full report over the current window: detect (cache-aware), then
    /// categorise causes. A fresh session fed all months at once produces
    /// exactly the batch pipeline's report.
    pub fn analyze(&mut self) -> TrendReport {
        let series = self.detect_series();
        let causes = classify_all(&series);
        let series_total = self.panel.n_series();
        let series_dropped = series_total - series.len();
        TrendReport {
            panel: self.panel.clone(),
            series,
            causes,
            series_total,
            series_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{DiseaseId, HospitalId, MedicineId, MicRecord, Month, PatientId};
    use mic_statespace::ChangePoint;
    use mic_statespace::FitOptions;

    fn record(diseases: Vec<(u32, u32)>, meds: Vec<u32>) -> MicRecord {
        let truth = vec![DiseaseId(diseases[0].0); meds.len()];
        MicRecord {
            patient: PatientId(0),
            hospital: HospitalId(0),
            diseases: diseases
                .into_iter()
                .map(|(d, n)| (DiseaseId(d), n))
                .collect(),
            medicines: meds.into_iter().map(MedicineId).collect(),
            truth_links: truth,
        }
    }

    fn synthetic_months(n: usize) -> Vec<MonthlyDataset> {
        (0..n)
            .map(|t| {
                let mut records = Vec::new();
                // A stable base plus a volume ramp on disease 1 after month
                // n/2 so Stage 2 has something to find.
                let reps = if t >= n / 2 { 8 } else { 2 };
                for i in 0..6 {
                    records.push(record(vec![(0, 1 + (i % 2) as u32)], vec![0, 1]));
                }
                for _ in 0..reps {
                    records.push(record(vec![(1, 1)], vec![2]));
                }
                MonthlyDataset {
                    month: Month(t as u32),
                    records,
                }
            })
            .collect()
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            seasonal: false,
            fit: FitOptions {
                max_evals: 100,
                n_starts: 1,
            },
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn series_hash_is_content_sensitive() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(series_hash(&a), series_hash(&[1.0, 2.0, 3.0]));
        assert_ne!(series_hash(&a), series_hash(&[1.0, 2.0, 3.0, 0.0]));
        assert_ne!(series_hash(&a), series_hash(&[1.0, 2.0, 4.0]));
        assert_ne!(series_hash(&[0.0]), series_hash(&[-0.0]));
        assert_ne!(series_hash(&[]), series_hash(&[0.0]));
    }

    #[test]
    fn append_month_rejects_out_of_order_labels() {
        let months = synthetic_months(3);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_month(&months[0]).unwrap();
        let err = session.append_month(&months[2]).unwrap_err();
        assert!(matches!(err, ClaimsError::MonthLabel { index: 1, .. }));
        assert_eq!(session.horizon(), 1);
    }

    #[test]
    fn append_rejects_out_of_range_ids() {
        // A well-formed month whose ids exceed the session's catalogue must
        // come back as a typed error, leaving the session untouched.
        let mut months = synthetic_months(2);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_month(&months[0]).unwrap();
        months[1].records[0].medicines[0] = MedicineId(4);
        let err = session.append_month(&months[1]).unwrap_err();
        assert!(
            matches!(err, ClaimsError::Record { month: 1, record: 0, ref source }
                if matches!(**source, ClaimsError::IdOutOfRange { what: "medicine", id: 4, limit: 4 })),
            "{err}"
        );
        months[1].records[0].medicines[0] = MedicineId(0);
        months[1].records[7].diseases[0].0 = DiseaseId(3);
        let err = session.append_months(&months[1..]).unwrap_err();
        assert!(
            matches!(err, ClaimsError::Record { month: 1, record: 7, ref source }
                if matches!(**source, ClaimsError::IdOutOfRange { what: "disease", id: 3, limit: 3 })),
            "{err}"
        );
        assert_eq!(session.horizon(), 1);
        assert_eq!(session.panel().horizon(), 1);
    }

    #[test]
    fn repeated_analyze_is_served_from_cache() {
        let months = synthetic_months(16);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_months(&months).unwrap();
        let first = session.analyze();
        assert!(!first.series.is_empty());
        assert_eq!(session.cached_series(), first.series.len());
        let second = session.analyze();
        assert_eq!(first.series.len(), second.series.len());
        for (a, b) in first.series.iter().zip(&second.series) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.change_point, b.change_point);
            assert_eq!(
                a.aic.to_bits(),
                b.aic.to_bits(),
                "{}: cache must replay",
                a.key
            );
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        }
    }

    #[test]
    fn appending_a_month_invalidates_and_warm_refits() {
        let months = synthetic_months(17);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_months(&months[..16]).unwrap();
        let before = session.analyze();
        session.append_month(&months[16]).unwrap();
        let after = session.analyze();
        assert_eq!(session.horizon(), 17);
        assert_eq!(after.panel.horizon(), 17);
        // Every analysed series changed content (grew by one point), so the
        // cache was refreshed for all of them.
        assert!(session.cached_series() >= before.series.len());
        for r in &after.series {
            assert!(r.aic.is_finite() || r.change_point == ChangePoint::None);
        }
    }

    #[test]
    fn batch_and_incremental_stage1_agree_bitwise() {
        let months = synthetic_months(10);
        let config = fast_config();
        let mut batch = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        batch.append_months(&months).unwrap();
        let mut incremental = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        for month in &months {
            incremental.append_month(month).unwrap();
        }
        assert_eq!(batch.panel().horizon(), incremental.panel().horizon());
        for key in batch.panel().filtered_keys(0.0) {
            let a = batch.panel().series(key).unwrap();
            let b = incremental.panel().series(key).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{key}");
            }
        }
    }

    #[test]
    fn continuity_chains_identically_batch_vs_incremental() {
        let months = synthetic_months(8);
        let config = PipelineConfig {
            continuity: 0.4,
            ..fast_config()
        };
        let mut batch = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        batch.append_months(&months).unwrap();
        let mut incremental = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        for month in &months {
            incremental.append_month(month).unwrap();
        }
        for (a, b) in batch.models().iter().zip(incremental.models()) {
            assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
            assert_eq!(a.iterations, b.iterations);
        }
        for key in batch.panel().filtered_keys(0.0) {
            let a = batch.panel().series(key).unwrap();
            let b = incremental.panel().series(key).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{key}");
            }
        }
    }
}
