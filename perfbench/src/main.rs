//! The repository benchmark. One command runs a seeded workload through the
//! public API of the workspace crates, times its job with tracing off,
//! optionally runs it once more traced for the per-layer breakdown, checks
//! the outputs, and prints one JSON result as its last line. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_seasonal|append_month|ingest_panel|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod json;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Assessment, JobOut, Prepared, Workload};

/// Seed of baselines. Claims of a gain are confirmed on the held-out seed
/// 1009 as well (README.md).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
/// Timed repetitions of the job: at least this many, then as many as fit
/// in `--seconds`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 1_000;
/// Set-up repetitions: at least `SETUP_MIN_REPS`, and more while they take
/// less than `SETUP_MIN_S` in all, so that a cheap set-up still gives a
/// steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
const SETUP_MIN_S: f64 = 1.0;
/// Claims files, span files and run records, relative to the checkout root.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <batch_seasonal|append_month|ingest_panel|all> \
[--seed N (default 1)] [--seconds S (default 10)] [--trace 0|1 (default 0)]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Add each metric to `obj` as `{"value": .., "unit": ..}`, its name
/// prefixed by `prefix`.
fn add_metrics(obj: Json, metrics: &[Metric], prefix: &str) -> Json {
    metrics.iter().fold(obj, |o, m| {
        o.field(
            &format!("{prefix}{}", m.name),
            Json::obj().field("value", m.value).field("unit", m.unit),
        )
    })
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, or the
/// maximum when there are ten samples or fewer.
fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n > 10 => v[n - 11],
        n => v[n - 1],
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One repetition of the job: wall seconds, peak RSS in MB, worker threads
/// observed, and the outputs.
struct Timed {
    wall_s: f64,
    peak_rss_mb: f64,
    workers: usize,
    out: JobOut,
}

fn timed(w: Workload, p: &Prepared, tr: &mut Tracer) -> Timed {
    let input = workloads::rep_input(p);
    let config = w.config();
    sys::reset_peak_rss();
    let sampler = sys::ThreadSampler::start();
    let start = Instant::now();
    let out = workloads::run_job(w, p, input, &config, tr);
    let wall_s = start.elapsed().as_secs_f64();
    let workers = sampler.stop();
    Timed {
        wall_s,
        peak_rss_mb: sys::peak_rss_mb(),
        workers,
        out,
    }
}

fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// FNV-1a over the path and contents of every file of the program and the
/// benchmark, for runs made outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut h = workloads::Fnv::new();
    for path in files {
        h.bytes(path.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&path).unwrap_or_default());
    }
    format!("{:016x}", h.0)
}

fn provenance(w: Workload, args: &Args, p: &Prepared, series: usize, workers: usize) -> Json {
    let spec = w.spec();
    let config = w.config();
    Json::obj()
        .field("git_rev", git_rev())
        .field("source_digest", source_digest())
        .field("nproc", sys::nproc())
        .field("peak_rss_resettable", sys::reset_peak_rss())
        .field("workers", workers)
        .field("seed", args.seed)
        .field(
            "world",
            Json::obj()
                .field("catalogue_seed", spec.seed)
                .field("months", u64::from(spec.months))
                .field("patients", spec.n_patients)
                .field("diseases", spec.n_diseases)
                .field("medicines", spec.n_medicines)
                .field("new_medicines", spec.n_new_medicines)
                .field("generic_entries", spec.n_generic_entries),
        )
        .field("records", p.expected.records)
        .field("claims_bytes", p.file_bytes)
        .field("series", series)
        .field(
            "fit",
            Json::obj()
                .field("approximate_search", config.approximate_search)
                .field("seasonal", config.seasonal)
                .field("max_evals", config.fit.max_evals)
                .field("n_starts", config.fit.n_starts)
                .field("continuity", config.continuity)
                .field("threads", "library default"),
        )
        .field("run_seconds", args.seconds)
        .field("trace", args.trace)
}

/// The per-layer breakdown of one traced repetition (`run`), from the
/// benchmark's spans and the library's counters.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    tr: &Tracer,
    run: u32,
    snap: &mic_obs::Snapshot,
    traced: &Timed,
    a: &Assessment,
    p: &Prepared,
    job_s: f64,
    series_times: &[f64],
) -> Vec<Metric> {
    // Process CPU time has 10 ms resolution: below half a second of stage
    // wall time the ratio means nothing and reads 0.
    let cpu_util = |cpu: f64, wall: f64| {
        if wall < 0.5 {
            0.0
        } else {
            cpu / (wall * sys::nproc() as f64)
        }
    };
    let sum = |names: &[&str]| {
        names.iter().fold((0.0, 0.0), |(w, c), n| {
            let (w2, c2) = tr.totals(run, n);
            (w + w2, c + c2)
        })
    };
    let (read_s, _) = sum(&["claims.read"]);
    let (stage1_s, stage1_cpu) = sum(&["stage1", "session.append"]);
    let (stage2_s, stage2_cpu) = sum(&["stage2", "session.analyze", "session.reanalyze"]);
    let analyses: Vec<f64> = ["stage2", "session.analyze"]
        .iter()
        .flat_map(|n| tr.walls(run, n))
        .collect();
    let mean_us = |name: &str| snap.timer(name).map_or(0.0, |t| t.mean_ns() / 1e3);
    let count = |name: &str| snap.counter(name) as f64;
    // Session counters of the monthly analyses: the reanalysis is excluded.
    let before = traced
        .out
        .counters_before_reanalysis
        .as_ref()
        .unwrap_or(snap);
    let session = |name: &str| before.counter(name) as f64;
    let loglik_evals = count("kf.loglik_evals");
    let wall = traced.wall_s;
    vec![
        metric("claims.read_s", "s", read_s),
        metric(
            "claims.read_mb_per_s",
            "MB/s",
            ratio(p.file_bytes as f64 / 1e6, read_s),
        ),
        metric("linkmodel.stage1_s", "s", stage1_s),
        metric("linkmodel.em_iterations", "count", count("em.iterations")),
        metric("linkmodel.c_em_us", "us", mean_us("em.step")),
        metric(
            "linkmodel.cpu_util",
            "ratio",
            cpu_util(stage1_cpu, stage1_s),
        ),
        metric("statespace.stage2_s", "s", stage2_s),
        metric("statespace.series", "count", a.series as f64),
        metric("statespace.series_p50_ms", "ms", median(series_times) * 1e3),
        metric("statespace.series_tail_ms", "ms", tail(series_times) * 1e3),
        metric(
            "statespace.fits_per_series",
            "count",
            ratio(a.fits as f64, a.searches as f64),
        ),
        metric(
            "statespace.evals_per_fit",
            "count",
            ratio(count("kf.nm_evals"), count("kf.fits")),
        ),
        metric("statespace.loglik_evals", "count", loglik_evals),
        metric(
            "statespace.ns_per_eval",
            "ns",
            ratio(stage2_s * 1e9, loglik_evals),
        ),
        metric("statespace.c_kf_us", "us", mean_us("kf.loglik")),
        metric(
            "statespace.cpu_util",
            "ratio",
            cpu_util(stage2_cpu, stage2_s),
        ),
        metric(
            "session.append_p50_ms",
            "ms",
            median(&tr.walls(run, "session.append")) * 1e3,
        ),
        metric("session.analyze_p50_s", "s", median(&analyses)),
        metric(
            "session.warm_fit_frac",
            "ratio",
            ratio(
                session("session.warm_fits"),
                session("session.warm_fits") + session("session.cold_fits"),
            ),
        ),
        metric(
            "session.cache_hit_frac",
            "ratio",
            ratio(
                session("session.cache_hits"),
                session("session.cache_hits") + session("session.cache_misses"),
            ),
        ),
        metric(
            "session.reanalyze_ms",
            "ms",
            tr.walls(run, "session.reanalyze")
                .iter()
                .fold(0.0, |a, b| a + b)
                * 1e3,
        ),
        metric("par.workers", "count", traced.workers as f64),
        metric("obs.traced_job_s", "s", wall),
        metric("obs.overhead_frac", "ratio", ratio(wall, job_s) - 1.0),
    ]
}

fn run_workload(w: Workload, args: &Args) -> Result<Outcome, String> {
    let config = w.config();
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let stem = format!("{}-{}-{}", w.name(), args.seed, std::process::id());
    let path = Path::new(WORK_DIR).join(format!("{stem}.mic"));

    // Set-up, repeated so that setup_s is a median.
    let mut setup_times = Vec::new();
    let mut prepared = None;
    let begun = Instant::now();
    while setup_times.len() < SETUP_MIN_REPS
        || (begun.elapsed().as_secs_f64() < SETUP_MIN_S && setup_times.len() < SETUP_MAX_REPS)
    {
        drop(prepared.take());
        let start = Instant::now();
        let p = workloads::setup(w, args.seed, &path);
        setup_times.push(start.elapsed().as_secs_f64());
        prepared = Some(p?);
    }
    let p = prepared.expect("set-up ran at least once");

    // Timed repetitions with tracing off.
    let mut off = Tracer::new(false);
    let mut series_hint = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut workers = 0;
    let mut reference: Option<Assessment> = None;
    let mut ingest_aic = None;
    let begun = Instant::now();
    loop {
        let t = timed(w, &p, &mut off);
        let a = workloads::assess(w, &p, &t.out, &mut series_hint);
        if w == Workload::IngestPanel && ingest_aic.is_none() {
            ingest_aic = Some(workloads::ingest_aic(&t.out, &p.expected, &config));
        }
        drop(t.out);
        walls.push(t.wall_s);
        rss.push(t.peak_rss_mb);
        workers = workers.max(t.workers);
        attempted += a.attempted;
        failed += a.failed;
        problems.extend(
            a.problems
                .iter()
                .map(|s| format!("rep {}: {s}", walls.len())),
        );
        match &reference {
            None => reference = Some(a),
            Some(r) if r.digest != a.digest => problems.push(format!(
                "rep {}: outputs differ from the first repetition",
                walls.len()
            )),
            Some(_) => {}
        }
        let elapsed = begun.elapsed().as_secs_f64();
        if walls.len() >= MAX_REPS
            || (walls.len() >= MIN_REPS && elapsed + median(&walls) > args.seconds)
        {
            break;
        }
    }
    let reference = reference.expect("the job ran at least once");
    let mut aic = reference.aic.clone();
    if let Some((values, fails)) = ingest_aic {
        attempted += values.len() as u64 + fails;
        failed += fails;
        aic = values;
    }
    let job_s = median(&walls);
    let end_to_end = vec![
        metric("job_s", "s", job_s),
        metric("setup_s", "s", median(&setup_times)),
        metric("peak_rss_mb", "MB", median(&rss)),
        metric(
            "ok_frac",
            "ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
        metric("aic_mean", "AIC", ratio(aic.iter().sum(), aic.len() as f64)),
        metric("em_nll_per_record", "nats", reference.em_nll_per_record),
    ];

    // One more repetition, traced, for the per-layer breakdown.
    let mut per_layer_metrics = Vec::new();
    if args.trace {
        let mut tr = Tracer::new(true);
        let run = tr.next_run();
        mic_obs::reset();
        mic_obs::enable();
        let traced = timed(w, &p, &mut tr);
        mic_obs::disable();
        let snap = mic_obs::snapshot();
        let a = workloads::assess(w, &p, &traced.out, &mut series_hint);
        attempted += a.attempted;
        failed += a.failed;
        problems.extend(a.problems.iter().map(|s| format!("traced: {s}")));
        if a.digest != reference.digest {
            problems.push("traced: outputs differ from the untraced repetitions".into());
        }
        if let (Some(before), Some(re)) = (
            &traced.out.counters_before_reanalysis,
            &traced.out.reanalysis,
        ) {
            let hits = snap.counter("session.cache_hits") - before.counter("session.cache_hits");
            let misses =
                snap.counter("session.cache_misses") - before.counter("session.cache_misses");
            if misses != 0 || hits != re.series.len() as u64 {
                problems.push(format!(
                    "traced: reanalysis of {} series had {hits} cache hits and {misses} misses",
                    re.series.len()
                ));
            }
        }
        let replay_run = tr.next_run();
        if let (Workload::BatchSeasonal, Some(report)) = (w, traced.out.reports.last()) {
            workloads::replay(report, &config, &mut tr, &mut problems);
        }
        let series_times = tr.walls(replay_run, "replay.series");
        per_layer_metrics = per_layer(&tr, run, &snap, &traced, &a, &p, job_s, &series_times);
        let spans = Path::new(WORK_DIR).join(format!("spans-{stem}.jsonl"));
        if let Err(e) = std::fs::write(&spans, tr.to_jsonl(&stem)) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    }
    let _ = std::fs::remove_file(&path);

    let correct = problems.is_empty();
    let record = Json::obj()
        .field("perfbench_record", w.name())
        .field(
            "provenance",
            provenance(w, args, &p, reference.series, workers),
        )
        .field("correct", correct)
        .field("problems", problems.clone())
        .field("attempted", attempted)
        .field("failed", failed)
        .field("setup_s", setup_times)
        .field("job_s", walls)
        .field("end_to_end", add_metrics(Json::obj(), &end_to_end, ""))
        .field(
            "per_layer",
            add_metrics(Json::obj(), &per_layer_metrics, ""),
        );
    println!("{record}");
    let records = Path::new(WORK_DIR).join("records.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", records.display());
    }
    for problem in &problems {
        eprintln!("perfbench: {}: check failed: {problem}", w.name());
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer: per_layer_metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    let mut all_ran = true;
    for &w in &args.workloads {
        // A workload that fails to set up, or panics outside the calls the
        // job guards, is reported and the next workload still runs.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_workload(w, &args)))
                .unwrap_or_else(|_| Err("panicked".into()));
        match result {
            Ok(o) => outcomes.push((w, o)),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                all_ran = false;
            }
        }
    }
    if outcomes.is_empty() {
        return ExitCode::FAILURE;
    }
    // With one workload, metric names are bare; with several, each is
    // prefixed by its workload.
    let prefixed = args.workloads.len() > 1;
    let metrics = outcomes.iter().fold(Json::obj(), |obj, (w, o)| {
        let chosen = if args.trace {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        let prefix = if prefixed {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        add_metrics(obj, chosen, &prefix)
    });
    let correct = all_ran && outcomes.iter().all(|(_, o)| o.correct);
    let result = Json::obj()
        .field("correct", correct)
        .field(
            "attempted",
            outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        )
        .field(
            "failed",
            outcomes.iter().map(|(_, o)| o.failed).sum::<u64>(),
        )
        .field("metrics", metrics);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
