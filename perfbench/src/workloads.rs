//! The three workloads: their worlds, their set-up, the timed job, and the
//! checks on the job's outputs.
//!
//! Every call into the program goes through the public API the roadmap
//! keeps: `read_dataset`, `WorldSpec`/`Simulator`,
//! `AnalysisSession::{new, from_dataset, append_month(s), analyze, panel,
//! models}`, `Stage2Detect::analyze_series`, and `PipelineConfig` /
//! `FitOptions` built with `..Default::default()`.

use crate::trace::Tracer;
use mic_claims::store::{read_dataset, write_dataset};
use mic_claims::{ClaimsDataset, DiseaseId, MedicineId, MonthlyDataset, Simulator, WorldSpec};
use mic_linkmodel::{PrescriptionPanel, SeriesKey};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig, SeriesReport, Stage2Detect, TrendReport};
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The paper's horizon: 43 months.
pub const MONTHS: u32 = 43;
/// Seed of every world's catalogue (diseases, medicines, indications,
/// patients, planted events). The workload seed draws the claims the
/// patients file, so the work a run measures keeps its shape across seeds.
pub const CATALOGUE_SEED: u64 = 7;
/// Months `append_month` holds out of the warm-up and appends in its job.
pub const TAIL: usize = 3;
/// Temporal-prior weight of `append_month`'s session (Section IV-C).
pub const CONTINUITY: f64 = 0.3;
/// Fit budget of `mictrend analyze`.
pub const MAX_EVALS: usize = 150;
pub const N_STARTS: usize = 1;
/// The paper's Section VI filters: entities seen fewer than 5 times in a
/// month are dropped before EM; series below a total of 10 are not searched.
const MIN_MONTHLY_COUNT: u64 = 5;
const SERIES_MIN_TOTAL: f64 = 10.0;
/// Heaviest disease series of the `ingest_panel` panel that get an untimed
/// Stage-2 fit for `aic_mean`.
const INGEST_AIC_SERIES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchSeasonal,
    AppendMonth,
    IngestPanel,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchSeasonal,
        Workload::AppendMonth,
        Workload::IngestPanel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSeasonal => "batch_seasonal",
            Workload::AppendMonth => "append_month",
            Workload::IngestPanel => "ingest_panel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world whose claims the workload analyses.
    ///
    /// `batch_seasonal` and `append_month` share a world of few records per
    /// series, so Stage 2 (about 0.15 s per 43-month series on one core)
    /// does nearly all the work; its 28 or so series keep a repetition near
    /// 4 s. `ingest_panel` has 60 times the patients on a slightly wider
    /// catalogue, so the loader and Stage-1 EM do. Two launches and one
    /// generic entry are planted; the generator's defaults would add more
    /// medicines than such a small catalogue holds.
    pub fn spec(self) -> WorldSpec {
        let (n_patients, n_diseases, n_medicines) = match self {
            Workload::BatchSeasonal | Workload::AppendMonth => (300, 4, 6),
            Workload::IngestPanel => (2_500, 8, 10),
        };
        WorldSpec {
            seed: CATALOGUE_SEED,
            months: MONTHS,
            n_patients,
            n_diseases,
            n_medicines,
            n_new_medicines: 2,
            n_generic_entries: 1,
            ..WorldSpec::default()
        }
    }

    /// The settings of `mictrend analyze`: the paper's seasonal model,
    /// Algorithm 2, 150 evaluations × 1 start, the default thread budget.
    pub fn config(self) -> PipelineConfig {
        PipelineConfig {
            approximate_search: true,
            seasonal: true,
            continuity: if self == Workload::AppendMonth {
                CONTINUITY
            } else {
                0.0
            },
            fit: FitOptions {
                max_evals: MAX_EVALS,
                n_starts: N_STARTS,
                ..FitOptions::default()
            },
            ..PipelineConfig::default()
        }
    }
}

/// What the program must reproduce, computed from the generated claims by
/// an implementation of the per-month frequency filter of its own.
#[derive(Clone, Debug)]
pub struct Expected {
    pub months: usize,
    pub records: usize,
    pub n_diseases: usize,
    pub n_medicines: usize,
    /// Records left in each month after the filter.
    pub filtered_records: Vec<usize>,
    /// Kept medicines on kept records, over all months: the prescription
    /// mass the reproduced panel must conserve (Eqs. 5–8).
    pub filtered_prescriptions: f64,
}

impl Expected {
    fn of(ds: &ClaimsDataset) -> Expected {
        let mut filtered_records = Vec::with_capacity(ds.months.len());
        let mut filtered_prescriptions = 0.0;
        for month in &ds.months {
            let mut disease_freq = vec![0u64; ds.n_diseases];
            let mut medicine_freq = vec![0u64; ds.n_medicines];
            for r in &month.records {
                for &(d, n) in &r.diseases {
                    disease_freq[d.index()] += u64::from(n);
                }
                for &m in &r.medicines {
                    medicine_freq[m.index()] += 1;
                }
            }
            let mut kept = 0;
            for r in &month.records {
                if r.diseases
                    .iter()
                    .any(|&(d, _)| disease_freq[d.index()] >= MIN_MONTHLY_COUNT)
                {
                    kept += 1;
                    filtered_prescriptions += r
                        .medicines
                        .iter()
                        .filter(|m| medicine_freq[m.index()] >= MIN_MONTHLY_COUNT)
                        .count() as f64;
                }
            }
            filtered_records.push(kept);
        }
        Expected {
            months: ds.months.len(),
            records: ds.total_records(),
            n_diseases: ds.n_diseases,
            n_medicines: ds.n_medicines,
            filtered_records,
            filtered_prescriptions,
        }
    }
}

/// The state set-up leaves for the timed job.
pub struct Prepared {
    pub path: PathBuf,
    pub file_bytes: u64,
    pub expected: Expected,
    /// `append_month`: the session warmed on all but the last [`TAIL`]
    /// months and analysed once, plus the held-out months.
    pub warm: Option<(AnalysisSession, Vec<MonthlyDataset>)>,
}

fn load(path: &Path) -> Result<ClaimsDataset, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_dataset(BufReader::new(file)).map_err(|e| format!("read_dataset: {e}"))
}

/// Generate the world, simulate its claims from `seed`, and write the claims
/// file; `append_month` also warms its session from that file.
pub fn setup(w: Workload, seed: u64, path: &Path) -> Result<Prepared, String> {
    let world = w.spec().generate();
    let dataset = Simulator::new(&world, seed).run();
    drop(world);
    let expected = Expected::of(&dataset);
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write_dataset(&dataset, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    drop(dataset);
    let file_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let warm = if w == Workload::AppendMonth {
        let mut dataset = load(path)?;
        let held_out = dataset.months.split_off(dataset.months.len() - TAIL);
        let mut session = AnalysisSession::new(
            &w.config(),
            dataset.start,
            dataset.n_diseases,
            dataset.n_medicines,
        );
        session
            .append_months(&dataset.months)
            .map_err(|e| format!("warm-up append_months: {e}"))?;
        session.analyze();
        Some((session, held_out))
    } else {
        None
    };
    Ok(Prepared {
        path: path.to_path_buf(),
        file_bytes,
        expected,
        warm,
    })
}

/// What one repetition of a job produced. Everything is kept so that it is
/// checked, and dropped, outside the timed section.
#[derive(Default)]
pub struct JobOut {
    pub errors: Vec<String>,
    pub dataset: Option<ClaimsDataset>,
    pub session: Option<AnalysisSession>,
    /// Every analysis of the job, in order (one per appended month for
    /// `append_month`).
    pub reports: Vec<TrendReport>,
    /// `append_month`: the final analysis of the unchanged window.
    pub reanalysis: Option<TrendReport>,
    /// `append_month`: the horizon after each append.
    pub horizons: Vec<usize>,
    /// Month fits that returned `Err` or panicked.
    pub failed_months: usize,
    /// Analyses that panicked.
    pub failed_analyses: usize,
    /// `append_month`, traced: the library's counters just before the
    /// reanalysis.
    pub counters_before_reanalysis: Option<mic_obs::Snapshot>,
}

/// The input a repetition consumes: `append_month` works on its own clone
/// of the warm session, made before the clock starts.
pub fn rep_input(p: &Prepared) -> Option<AnalysisSession> {
    p.warm.as_ref().map(|(s, _)| s.clone())
}

/// Run the timed job once under a root span named `job`.
pub fn run_job(
    w: Workload,
    p: &Prepared,
    input: Option<AnalysisSession>,
    config: &PipelineConfig,
    tr: &mut Tracer,
) -> JobOut {
    let root = tr.begin("job");
    let mut out = JobOut::default();
    match w {
        Workload::BatchSeasonal | Workload::IngestPanel => {
            match tr.call("claims.read", || load(&p.path)) {
                Ok(Ok(ds)) => out.dataset = Some(ds),
                Ok(Err(e)) | Err(e) => out.errors.push(e),
            }
            if let Some(ds) = &out.dataset {
                match tr.call("stage1", || AnalysisSession::from_dataset(config, ds)) {
                    Ok(Ok(s)) => out.session = Some(s),
                    Ok(Err(e)) => out.errors.push(format!("from_dataset: {e}")),
                    Err(e) => out.errors.push(e),
                }
            }
            if out.session.is_none() {
                out.failed_months = p.expected.months;
            }
            if w == Workload::BatchSeasonal {
                if let Some(session) = out.session.as_mut() {
                    match tr.call("stage2", || session.analyze()) {
                        Ok(report) => out.reports.push(report),
                        Err(e) => {
                            out.failed_analyses += 1;
                            out.errors.push(e);
                        }
                    }
                }
            }
        }
        Workload::AppendMonth => {
            let mut session = input.expect("append_month repetitions start from the warm session");
            let held_out = &p
                .warm
                .as_ref()
                .expect("append_month set-up warms a session")
                .1;
            for (i, month) in held_out.iter().enumerate() {
                match tr.call("session.append", || session.append_month(month)) {
                    Ok(Ok(())) => out.horizons.push(session.horizon()),
                    Ok(Err(e)) => out.errors.push(format!("append_month: {e}")),
                    Err(e) => out.errors.push(e),
                }
                if out.horizons.len() != i + 1 {
                    // Later months cannot follow a month that was not absorbed.
                    out.failed_months = held_out.len() - i;
                    break;
                }
                match tr.call("session.analyze", || session.analyze()) {
                    Ok(report) => out.reports.push(report),
                    Err(e) => {
                        out.failed_analyses += 1;
                        out.errors.push(e);
                    }
                }
            }
            if tr.is_on() {
                out.counters_before_reanalysis = Some(mic_obs::snapshot());
            }
            match tr.call("session.reanalyze", || session.analyze()) {
                Ok(report) => out.reanalysis = Some(report),
                Err(e) => out.errors.push(e),
            }
            out.session = Some(session);
        }
    }
    tr.end(root);
    out
}

/// Operation counts and check results of one repetition.
#[derive(Debug, Default)]
pub struct Assessment {
    /// One operation is one month fit or one series search.
    pub attempted: u64,
    /// Operations that panicked, returned `Err`, or gave a non-finite AIC,
    /// λ on a detected change, or EM log-likelihood.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// FNV-1a over the job's decisions (`append_month`, `batch_seasonal`) or
    /// its fitted EM models (`ingest_panel`).
    pub digest: u64,
    /// AIC of the selected model per analysed series.
    pub aic: Vec<f64>,
    /// Mean over months of −(EM log-likelihood) ÷ filtered records.
    pub em_nll_per_record: f64,
    /// Series searched, and the fits they took.
    pub searches: u64,
    pub fits: u64,
    /// Series in the job's last analysis.
    pub series: usize,
}

/// FNV-1a, 64-bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Series whose total mass reaches the search threshold, from the panel's
/// own series: the set a report must cover exactly once.
fn admitted(panel: &PrescriptionPanel, e: &Expected) -> Vec<SeriesKey> {
    let heavy = |ys: &[f64]| ys.iter().sum::<f64>() >= SERIES_MIN_TOTAL;
    let mut keys: Vec<SeriesKey> = (0..e.n_diseases as u32)
        .map(DiseaseId)
        .filter(|&d| heavy(panel.disease_series(d)))
        .map(SeriesKey::Disease)
        .chain(
            (0..e.n_medicines as u32)
                .map(MedicineId)
                .filter(|&m| heavy(panel.medicine_series(m)))
                .map(SeriesKey::Medicine),
        )
        .chain(
            panel
                .iter_prescriptions()
                .filter(|(_, _, ys)| heavy(ys))
                .map(|(d, m, _)| SeriesKey::Prescription(d, m)),
        )
        .collect();
    keys.sort();
    keys
}

/// Series searches of one analysis, and the per-report checks.
fn assess_report(label: &str, report: &TrendReport, e: &Expected, a: &mut Assessment) {
    let keys: Vec<SeriesKey> = report.series.iter().map(|s| s.key).collect();
    let unique: HashSet<SeriesKey> = keys.iter().copied().collect();
    if unique.len() != keys.len() {
        a.problems
            .push(format!("{label}: a series is reported more than once"));
    }
    let mut sorted = keys;
    sorted.sort();
    if sorted != admitted(&report.panel, e) {
        a.problems.push(format!(
            "{label}: reported series differ from the admitted series"
        ));
    }
    if report.series.len() + report.series_dropped != report.series_total {
        a.problems.push(format!(
            "{label}: {} series + {} dropped != {} total",
            report.series.len(),
            report.series_dropped,
            report.series_total
        ));
    }
    for s in &report.series {
        a.attempted += 1;
        a.searches += 1;
        a.fits += s.fits_performed as u64;
        let finite = s.aic.is_finite() && (!s.change_point.is_some() || s.lambda.is_finite());
        if !finite {
            a.failed += 1;
            if s.change_point.is_some() {
                a.problems.push(format!(
                    "{label}: {} at {} has AIC {} and λ {}",
                    s.key, s.change_point, s.aic, s.lambda
                ));
            }
        }
    }
}

fn em_nll_per_record(session: &AnalysisSession, e: &Expected) -> f64 {
    let per_month: Vec<f64> = session
        .models()
        .iter()
        .zip(&e.filtered_records)
        .filter(|(_, &n)| n > 0)
        .map(|(m, &n)| -m.log_likelihood / n as f64)
        .collect();
    per_month.iter().sum::<f64>() / per_month.len().max(1) as f64
}

/// The same series, change point, AIC and λ, bit for bit.
fn same_bits(x: &SeriesReport, y: &SeriesReport) -> bool {
    x.key == y.key
        && x.change_point == y.change_point
        && x.aic.to_bits() == y.aic.to_bits()
        && x.lambda.to_bits() == y.lambda.to_bits()
}

/// Count operations and run the workload's checks on one repetition.
/// `series_hint` is the series count of the last successful analysis,
/// charged as failed searches when an analysis panics.
pub fn assess(w: Workload, p: &Prepared, out: &JobOut, series_hint: &mut usize) -> Assessment {
    let e = &p.expected;
    let mut a = Assessment::default();
    a.problems.extend(out.errors.iter().cloned());
    let months = match w {
        Workload::AppendMonth => TAIL,
        _ => e.months,
    };
    a.attempted += months as u64;
    a.failed += out.failed_months as u64;
    let fh = (*series_hint).max(1) as u64;
    a.attempted += fh * out.failed_analyses as u64;
    a.failed += fh * out.failed_analyses as u64;
    let mut h = Fnv::new();
    if let Some(session) = &out.session {
        let models = session.models();
        let fitted = &models[models.len().saturating_sub(months - out.failed_months)..];
        a.failed += fitted
            .iter()
            .filter(|m| !m.log_likelihood.is_finite())
            .count() as u64;
        a.em_nll_per_record = em_nll_per_record(session, e);
        if w == Workload::IngestPanel {
            for m in models {
                h.u64(m.log_likelihood.to_bits());
                h.u64(m.iterations as u64);
            }
            check_mass(session.panel(), e, &mut a);
        }
    }
    for (i, report) in out.reports.iter().enumerate() {
        assess_report(&format!("analysis {i}"), report, e, &mut a);
        for s in &report.series {
            h.bytes(s.key.to_string().as_bytes());
            h.u64(s.change_point.month().map_or(u64::MAX, |t| t as u64));
        }
    }
    if let Some(last) = out.reports.last() {
        *series_hint = last.series.len();
        a.series = last.series.len();
        a.aic = last
            .series
            .iter()
            .map(|s| s.aic)
            .filter(|x| x.is_finite())
            .collect();
    }
    if w == Workload::AppendMonth {
        let want: Vec<usize> = (e.months - TAIL + 1..=e.months).collect();
        if out.horizons != want {
            a.problems.push(format!(
                "append: horizons {:?}, expected {want:?}",
                out.horizons
            ));
        }
        match (&out.reanalysis, out.reports.last()) {
            (Some(re), Some(last))
                if re.series.len() == last.series.len()
                    && re
                        .series
                        .iter()
                        .zip(&last.series)
                        .all(|(x, y)| same_bits(x, y)) => {}
            _ => a
                .problems
                .push("reanalysis of the unchanged window differs from the last analysis".into()),
        }
    }
    a.digest = h.0;
    a
}

fn mass<'a>(series: impl Iterator<Item = &'a [f64]>) -> f64 {
    series.map(|ys| ys.iter().sum::<f64>()).sum()
}

/// `ingest_panel`: the horizon covers every month and each marginal of the
/// reproduced panel carries exactly the filtered prescriptions.
fn check_mass(panel: &PrescriptionPanel, e: &Expected, a: &mut Assessment) {
    if panel.horizon() != e.months {
        a.problems.push(format!(
            "panel horizon {} != {} months",
            panel.horizon(),
            e.months
        ));
    }
    let masses = [
        (
            "disease",
            mass((0..e.n_diseases as u32).map(|d| panel.disease_series(DiseaseId(d)))),
        ),
        (
            "medicine",
            mass((0..e.n_medicines as u32).map(|m| panel.medicine_series(MedicineId(m)))),
        ),
        (
            "prescription",
            mass(panel.iter_prescriptions().map(|(_, _, ys)| ys)),
        ),
    ];
    let want = e.filtered_prescriptions;
    for (kind, mass) in masses {
        if (mass - want).abs() > 1e-6 * want.max(1.0) {
            a.problems.push(format!(
                "{kind} mass {mass} != {want} filtered prescriptions"
            ));
        }
    }
}

/// `ingest_panel` runs no Stage 2 in its job; for `aic_mean` it fits the
/// heaviest disease series of the reproduced panel once, untimed. Returns
/// (AIC per series, failed searches).
pub fn ingest_aic(out: &JobOut, e: &Expected, config: &PipelineConfig) -> (Vec<f64>, u64) {
    let Some(session) = &out.session else {
        return (Vec::new(), INGEST_AIC_SERIES as u64);
    };
    let panel = session.panel();
    let mut diseases: Vec<(f64, u32)> = (0..e.n_diseases as u32)
        .map(|d| (panel.disease_series(DiseaseId(d)).iter().sum(), d))
        .collect();
    diseases.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let stage2 = Stage2Detect::from_config(config);
    let mut aic = Vec::new();
    let mut failed = 0;
    for &(_, d) in diseases.iter().take(INGEST_AIC_SERIES) {
        let key = SeriesKey::Disease(DiseaseId(d));
        let ys = panel.disease_series(DiseaseId(d));
        match std::panic::catch_unwind(|| stage2.analyze_series(key, ys)) {
            Ok(r) if r.aic.is_finite() => aic.push(r.aic),
            _ => failed += 1,
        }
    }
    (aic, failed)
}

/// `batch_seasonal`, traced: replay every analysed series through
/// `Stage2Detect::analyze_series` one at a time, each under a
/// `replay.series` span, and check that the replay reproduces the job's
/// decisions bit for bit.
pub fn replay(
    report: &TrendReport,
    config: &PipelineConfig,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) {
    let stage2 = Stage2Detect::from_config(config);
    let root = tr.begin("replay");
    for s in &report.series {
        let Some(ys) = report.panel.series(s.key) else {
            problems.push(format!("replay: {} has no series in the panel", s.key));
            continue;
        };
        match tr.call("replay.series", || stage2.analyze_series(s.key, ys)) {
            Ok(r) if same_bits(&r, s) => {}
            Ok(r) => problems.push(format!(
                "replay: {} gives {} (AIC {}) where the job gave {} (AIC {})",
                s.key, r.change_point, r.aic, s.change_point, s.aic
            )),
            Err(e) => problems.push(format!("replay: {}: {e}", s.key)),
        }
    }
    tr.end(root);
}
