//! Instrumentation contract of the change-point searches: the `kf.*`
//! counters must agree with the per-search `fits_performed` bookkeeping and
//! exhibit the Table V complexity split — exact search O(T) fits, binary
//! search O(log T).
//!
//! This lives in its own integration-test binary (own process) so no other
//! test's recording can leak into the global recorder.

use mic_statespace::{search, FilterWorkspace, FitOptions, SearchPlan};

/// 43 months (the paper's horizon) with a clear level shift at month 25
/// plus a small deterministic wiggle so fits are non-degenerate.
fn series() -> Vec<f64> {
    (0..43)
        .map(|t| {
            let base = if t < 25 { 5.0 } else { 12.0 };
            base + ((t * 7) % 5) as f64 * 0.1
        })
        .collect()
}

#[test]
fn search_counters_match_fits_and_complexity() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    let opts = FitOptions {
        max_evals: 60,
        n_starts: 1,
    };
    let ys = series();
    let mut ws = FilterWorkspace::default();
    let exact = search(&ys, &SearchPlan::exact(false, opts), &mut ws);
    let approx = search(&ys, &SearchPlan::approx(false, opts), &mut ws);
    let snap = mic_obs::snapshot();
    mic_obs::disable();

    // One search of each flavour ran.
    assert_eq!(snap.counter("kf.searches_exact"), 1);
    assert_eq!(snap.counter("kf.searches_approx"), 1);

    // The global counters agree with the searches' own bookkeeping, and
    // nothing else fitted in between.
    assert_eq!(snap.counter("kf.fits_exact"), exact.fits_performed as u64);
    assert_eq!(snap.counter("kf.fits_approx"), approx.fits_performed as u64);
    assert_eq!(
        snap.counter("kf.fits"),
        (exact.fits_performed + approx.fits_performed) as u64
    );
    assert_eq!(
        snap.counter("kf.candidates_exact"),
        exact.aic_by_candidate.len() as u64
    );
    assert_eq!(
        snap.counter("kf.candidates_approx"),
        approx.aic_by_candidate.len() as u64
    );

    // Complexity split for T = 43: the exhaustive search fits every interior
    // candidate (T − 3 = 40) plus the no-change baseline; the binary search
    // stays within ~2·log₂(T) probes plus a few hill-descent refinements.
    assert_eq!(snap.counter("kf.fits_exact"), 41);
    assert!(
        snap.counter("kf.fits_approx") <= 20,
        "approx fits = {}",
        snap.counter("kf.fits_approx")
    );
    assert!(snap.counter("kf.fits_approx") * 2 < snap.counter("kf.fits_exact"));

    // Every fit drives the optimiser through Kalman likelihood evaluations,
    // and the C_KF timer saw exactly as many samples as the counter says.
    let evals = snap.counter("kf.loglik_evals");
    assert!(evals > 0);
    assert_eq!(snap.timer("kf.loglik").unwrap().count, evals);
    assert!(snap.counter("kf.nm_evals") > 0);

    // Every Nelder–Mead start either met its tolerance or hit the
    // evaluation cap; the cap hits can never outnumber the starts, and at
    // this 60-evaluation budget some starts do stop at the cap.
    assert!(snap.counter("kf.nm_cap_hits") > 0);
    assert!(
        snap.counter("kf.nm_cap_hits") <= snap.counter("kf.fits") * opts.n_starts as u64,
        "nm_cap_hits {} > fits {} × starts {}",
        snap.counter("kf.nm_cap_hits"),
        snap.counter("kf.fits"),
        opts.n_starts
    );

    // The per-search wall-time timers saw one exact and one approx search.
    assert_eq!(snap.timer("kf.search.exact").unwrap().count, 1);
    assert_eq!(snap.timer("kf.search.approx").unwrap().count, 1);
}
