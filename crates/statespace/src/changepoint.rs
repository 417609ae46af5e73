//! AIC-driven change point detection: the paper's Algorithm 1 (exhaustive)
//! and Algorithm 2 (binary search).
//!
//! Both algorithms fit the structural model once per candidate change point
//! and compare AICs; the winner is then compared against the no-intervention
//! model to decide whether a change point exists at all. Ties favour "no
//! change" (Algorithm 1 scans `t ∈ {1..T, ∞}` with `≤`, so `∞` — evaluated
//! last — wins ties; Algorithm 2's final `argmin` is given the same
//! preference), which yields the structural guarantee exploited in
//! Table VI: **the approximate search produces no false positives**, because
//! its winning candidate is a member of the exhaustive candidate set.

use crate::estimate::{fit_at, FitOptions, FittedStructural};
use crate::kalman::FilterWorkspace;
use crate::structural::{StructuralParams, StructuralSpec};
use std::collections::HashMap;

/// Model-selection criterion for the change-point search. The paper uses
/// AIC but notes the algorithms "can work with other criteria"; BIC's
/// `ln(n)` penalty is stricter, so BIC-selected change points are a subset
/// of AIC-selected ones for `n_scored ≥ 8`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionCriterion {
    #[default]
    Aic,
    Bic,
}

impl SelectionCriterion {
    fn score(&self, fit: &FittedStructural) -> f64 {
        match self {
            SelectionCriterion::Aic => fit.aic,
            SelectionCriterion::Bic => fit.bic,
        }
    }
}

/// A detected change point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangePoint {
    /// No structural change (the paper's `t_CP = ∞`).
    None,
    /// Slope shift starting at 0-based month `t`.
    At(usize),
}

impl ChangePoint {
    pub fn is_some(&self) -> bool {
        matches!(self, ChangePoint::At(_))
    }

    /// The month index, if any.
    pub fn month(&self) -> Option<usize> {
        match self {
            ChangePoint::None => None,
            ChangePoint::At(t) => Some(*t),
        }
    }
}

impl std::fmt::Display for ChangePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangePoint::None => write!(f, "∞"),
            ChangePoint::At(t) => write!(f, "t={t}"),
        }
    }
}

/// Warm-start seeds for a resumable change-point search, taken from a
/// previous search over a slightly shorter version of the same series.
/// The baseline (no-intervention) and candidate (intervention) models live
/// in different parts of the variance landscape — a trending series makes
/// the baseline absorb the trend into its level variance while the
/// intervention models push it into `λ` — so each model class is seeded
/// from its own previous optimum. Seeding both from a single winner
/// systematically degrades whichever class lost last time and flips
/// change decisions.
#[derive(Clone, Copy, Debug)]
pub struct WarmStart {
    /// Seed for the no-intervention baseline fit (the previous search's
    /// baseline optimum).
    pub baseline: StructuralParams,
    /// Seed for every candidate intervention fit (the previous search's
    /// winning fit).
    pub candidate: StructuralParams,
}

impl WarmStart {
    /// Seeds from a finished search: its baseline fit and its winner.
    pub fn from_search(search: &ChangePointSearch) -> WarmStart {
        WarmStart {
            baseline: search.no_change_params,
            candidate: search.fit.params,
        }
    }
}

/// Which of the paper's two search algorithms to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchAlgorithm {
    /// Algorithm 1: fit every candidate change point.
    Exact,
    /// Algorithm 2: AIC-guided binary search over the candidates.
    Approx,
}

/// Everything that decides what a change-point [`search`] does: the model
/// family, the algorithm, the selection criterion, the fitting budget, and
/// an optional warm start.
#[derive(Clone, Copy, Debug)]
pub struct SearchPlan {
    /// Include the 11 dummy-seasonal states (the paper's full model).
    pub seasonal: bool,
    pub algorithm: SearchAlgorithm,
    pub criterion: SelectionCriterion,
    /// Nelder–Mead budget of every fit in the search.
    pub fit: FitOptions,
    /// When set, every fit seeds Nelder–Mead from the matching
    /// [`WarmStart`] field instead of the default multi-start simplex;
    /// `None` is the cold search.
    pub warm: Option<WarmStart>,
}

impl SearchPlan {
    /// Cold Algorithm-1 search under AIC.
    pub fn exact(seasonal: bool, fit: FitOptions) -> SearchPlan {
        SearchPlan {
            seasonal,
            algorithm: SearchAlgorithm::Exact,
            criterion: SelectionCriterion::Aic,
            fit,
            warm: None,
        }
    }

    /// Cold Algorithm-2 search under AIC.
    pub fn approx(seasonal: bool, fit: FitOptions) -> SearchPlan {
        SearchPlan {
            algorithm: SearchAlgorithm::Approx,
            ..SearchPlan::exact(seasonal, fit)
        }
    }
}

/// Result of a change-point search.
#[derive(Clone, Debug)]
pub struct ChangePointSearch {
    /// The selected change point.
    pub change_point: ChangePoint,
    /// AIC of the selected model.
    pub aic: f64,
    /// The fitted model at the selected change point (or the
    /// no-intervention model when `change_point` is `None`).
    pub fit: FittedStructural,
    /// AIC of the no-intervention model (the comparison baseline).
    pub aic_no_change: f64,
    /// Fitted parameters of the no-intervention baseline (zeroes for the
    /// degenerate short-series result). Kept so resumable searches can seed
    /// the next baseline fit from here — see [`WarmStart`].
    pub no_change_params: StructuralParams,
    /// Number of model fits actually performed (Table V's cost unit).
    pub fits_performed: usize,
    /// AIC per evaluated candidate (candidate month → AIC); the exhaustive
    /// search fills every month, the binary search only the probes. Useful
    /// for the Fig. 5 sensitivity plot.
    pub aic_by_candidate: HashMap<usize, f64>,
}

/// Shared fitting context that memoises per-candidate fits. One
/// [`FilterWorkspace`] serves every candidate fit in the search, so the
/// entire MLE path — dozens of fits, each hundreds of likelihood
/// evaluations — runs without per-evaluation heap allocation.
struct SearchContext<'a> {
    ys: &'a [f64],
    plan: &'a SearchPlan,
    cache: HashMap<usize, FittedStructural>,
    fits: usize,
    ws: &'a mut FilterWorkspace,
}

impl<'a> SearchContext<'a> {
    fn new(ys: &'a [f64], plan: &'a SearchPlan, ws: &'a mut FilterWorkspace) -> Self {
        SearchContext {
            ys,
            plan,
            cache: HashMap::new(),
            fits: 0,
            ws,
        }
    }

    fn score(&self, fit: &FittedStructural) -> f64 {
        self.plan.criterion.score(fit)
    }

    /// Leading-innovation skip shared by every fit in this search: the base
    /// model's state dimension. Each model additionally skips exactly one
    /// more innovation — the candidate's λ-identifying innovation at the
    /// change point (or a neutral equaliser for the no-change model and for
    /// candidates inside the burn-in) — so every compared AIC scores the
    /// same *number* of observations. Without this, the model that skips
    /// fewer (or cheaper) points gets a spurious likelihood bump: true
    /// change points get suppressed, or the search collapses to `t = 1`,
    /// with a bias that depends on the series' scale.
    fn lead_skip(&self) -> usize {
        self.base_spec().state_dim()
    }

    fn base_spec(&self) -> StructuralSpec {
        if self.plan.seasonal {
            StructuralSpec::with_seasonal()
        } else {
            StructuralSpec::local_level()
        }
    }

    fn spec_at(&self, cp: usize) -> StructuralSpec {
        if self.plan.seasonal {
            StructuralSpec::full(cp)
        } else {
            StructuralSpec::with_intervention(cp)
        }
    }

    /// One candidate (or baseline) fit, cold or warm-started from `seed`.
    fn fit_model(
        &mut self,
        spec: StructuralSpec,
        skip: usize,
        extra_skips: &[usize],
        seed: Option<StructuralParams>,
    ) -> FittedStructural {
        fit_at(
            self.ys,
            spec,
            &self.plan.fit,
            skip,
            extra_skips,
            seed.as_ref(),
            self.ws,
        )
    }

    /// Criterion score (AIC or BIC) of the model with change point `cp`
    /// (memoised).
    fn aic_at(&mut self, cp: usize) -> f64 {
        if let Some(fit) = self.cache.get(&cp) {
            return self.score(fit);
        }
        let s = self.lead_skip();
        let spec = self.spec_at(cp);
        let seed = self.plan.warm.map(|w| w.candidate);
        let fit = if cp >= s {
            self.fit_model(spec, s, &[cp], seed)
        } else {
            self.fit_model(spec, s + 1, &[], seed)
        };
        self.fits += 1;
        let score = self.score(&fit);
        self.cache.insert(cp, fit);
        score
    }

    fn no_change_fit(&mut self) -> FittedStructural {
        self.fits += 1;
        let s = self.lead_skip();
        let spec = self.base_spec();
        let seed = self.plan.warm.map(|w| w.baseline);
        self.fit_model(spec, s + 1, &[], seed)
    }

    /// `true` when `ys` is too short for any search: the likelihood skips
    /// leave fewer than two scored observations, or there is no interior
    /// candidate month at all.
    fn too_short(&self) -> bool {
        let n = self.ys.len();
        n < self.lead_skip() + 3 || candidates(n).is_empty()
    }

    /// Degenerate "no change" result for series the search cannot handle.
    /// Such series carry no evidence either way, so report
    /// [`ChangePoint::None`] with an infinite criterion score (never ranked
    /// above a real fit, and NaN-free) instead of panicking.
    fn short_series_finish(self) -> ChangePointSearch {
        let s = self.lead_skip();
        let fit = FittedStructural {
            spec: self.base_spec(),
            params: StructuralParams {
                var_eps: 0.0,
                var_level: 0.0,
                var_seasonal: 0.0,
            },
            loglik: f64::NEG_INFINITY,
            aic: f64::INFINITY,
            bic: f64::INFINITY,
            n: self.ys.len(),
            skip: s + 1,
            evals: 0,
        };
        ChangePointSearch {
            change_point: ChangePoint::None,
            aic: f64::INFINITY,
            no_change_params: fit.params,
            fit,
            aic_no_change: f64::INFINITY,
            fits_performed: 0,
            aic_by_candidate: HashMap::new(),
        }
    }

    fn take_fit(&mut self, cp: usize) -> FittedStructural {
        self.cache.remove(&cp).expect("fit must be cached")
    }

    /// Best candidate probed so far (by the selection criterion); ties break
    /// toward the later month, mirroring Algorithm 1's scan order.
    fn best_cached(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut keys: Vec<&usize> = self.cache.keys().collect();
        keys.sort_unstable();
        for &cp in keys {
            let score = self.score(&self.cache[&cp]);
            if best.is_none_or(|(_, b)| score <= b) {
                best = Some((cp, score));
            }
        }
        best
    }

    fn finish(mut self, best_cp: usize, best_aic: f64) -> ChangePointSearch {
        let no_change = self.no_change_fit();
        let aic_no_change = self.score(&no_change);
        let aic_by_candidate: HashMap<usize, f64> = {
            let criterion = self.plan.criterion;
            self.cache
                .iter()
                .map(|(&cp, fit)| (cp, criterion.score(fit)))
                .collect()
        };
        let no_change_params = no_change.params;
        // Ties favour no change.
        if best_aic < aic_no_change {
            let fit = self.take_fit(best_cp);
            ChangePointSearch {
                change_point: ChangePoint::At(best_cp),
                aic: best_aic,
                fit,
                aic_no_change,
                no_change_params,
                fits_performed: self.fits,
                aic_by_candidate,
            }
        } else {
            ChangePointSearch {
                change_point: ChangePoint::None,
                aic: aic_no_change,
                fit: no_change,
                aic_no_change,
                no_change_params,
                fits_performed: self.fits,
                aic_by_candidate,
            }
        }
    }
}

/// Candidate change points: months 1 ..= T−3. Month 0 is excluded because a
/// slope shift active from the first observation is indistinguishable from
/// the (diffuse) level; the last two months are excluded because a shift
/// supported by one or two observations is unidentified and produces
/// spurious boundary detections.
fn candidates(n: usize) -> std::ops::Range<usize> {
    1..n.saturating_sub(2)
}

/// Change-point search over `ys` as set out by `plan` — the paper's
/// Algorithm 1 (exhaustive) or Algorithm 2 (binary search). `ws` serves
/// every likelihood evaluation of every fit in the search; any workspace
/// works, and reusing one across searches avoids reallocating it.
pub fn search(ys: &[f64], plan: &SearchPlan, ws: &mut FilterWorkspace) -> ChangePointSearch {
    let ctx = SearchContext::new(ys, plan, ws);
    match plan.algorithm {
        SearchAlgorithm::Exact => exact_search(ctx),
        SearchAlgorithm::Approx => approx_search(ctx),
    }
}

/// Algorithm 1: exhaustive search over all candidate change points.
fn exact_search(mut ctx: SearchContext<'_>) -> ChangePointSearch {
    let _span = mic_obs::span("kf.search.exact");
    mic_obs::counter("kf.searches_exact", 1);
    if ctx.too_short() {
        return ctx.short_series_finish();
    }
    let mut best_cp = 1;
    let mut best_aic = f64::INFINITY;
    for cp in candidates(ctx.ys.len()) {
        let aic = ctx.aic_at(cp);
        // Later candidates win ties, mirroring Algorithm 1's `≤`.
        if aic <= best_aic {
            best_aic = aic;
            best_cp = cp;
        }
    }
    let r = ctx.finish(best_cp, best_aic);
    mic_obs::counter("kf.candidates_exact", r.aic_by_candidate.len() as u64);
    mic_obs::counter("kf.fits_exact", r.fits_performed as u64);
    r
}

/// Algorithm 2: AIC-guided binary search. Exploits the empirical
/// unimodality of AIC around the true change point (Fig. 5) to probe only
/// `O(log T)` candidates.
fn approx_search(mut ctx: SearchContext<'_>) -> ChangePointSearch {
    let _span = mic_obs::span("kf.search.approx");
    mic_obs::counter("kf.searches_approx", 1);
    if ctx.too_short() {
        return ctx.short_series_finish();
    }
    let mut left = 1usize;
    let right_end = candidates(ctx.ys.len()).end;
    let mut right = right_end - 1;
    while right - left > 1 {
        let middle = (left + right) / 2;
        if ctx.aic_at(left) < ctx.aic_at(right) {
            right = middle;
        } else {
            left = middle;
        }
    }
    ctx.aic_at(left);
    ctx.aic_at(right);
    // Two cheap refinements over the plain Algorithm 2 (both preserve the
    // no-false-positive property, since every candidate considered is a
    // member of the exhaustive candidate set):
    // 1. take the best of *all* probed candidates, not just the final
    //    {left, right} pair — earlier probe levels often already touched a
    //    point deeper in the AIC valley (free: results are memoised);
    // 2. hill-descend ±1/±2 around that point (a handful of extra fits),
    //    which recovers near-misses on gradual ramps whose AIC valley is
    //    shallow and slightly off the probe grid.
    let (mut best_cp, mut best_aic) = ctx
        .best_cached()
        .expect("search probed at least two candidates");
    loop {
        let mut improved = false;
        for delta in [-2i64, -1, 1, 2] {
            let cand = best_cp as i64 + delta;
            if cand < 1 || cand as usize >= right_end {
                continue;
            }
            let score = ctx.aic_at(cand as usize);
            if score < best_aic {
                best_aic = score;
                best_cp = cand as usize;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let r = ctx.finish(best_cp, best_aic);
    mic_obs::counter("kf.candidates_approx", r.aic_by_candidate.len() as u64);
    mic_obs::counter("kf.fits_approx", r.fits_performed as u64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn slope_break_series(n: usize, cp: usize, slope: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                10.0 + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.5)
            })
            .collect()
    }

    fn flat_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 20.0 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0))
            .collect()
    }

    fn fast_opts() -> FitOptions {
        FitOptions {
            max_evals: 200,
            n_starts: 1,
        }
    }

    fn run(ys: &[f64], plan: SearchPlan) -> ChangePointSearch {
        search(ys, &plan, &mut FilterWorkspace::default())
    }

    fn exact(ys: &[f64], seasonal: bool) -> ChangePointSearch {
        run(ys, SearchPlan::exact(seasonal, fast_opts()))
    }

    fn approx(ys: &[f64], seasonal: bool) -> ChangePointSearch {
        run(ys, SearchPlan::approx(seasonal, fast_opts()))
    }

    fn exact_bic(ys: &[f64]) -> ChangePointSearch {
        run(
            ys,
            SearchPlan {
                criterion: SelectionCriterion::Bic,
                ..SearchPlan::exact(false, fast_opts())
            },
        )
    }

    #[test]
    fn exact_finds_planted_change_point() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let r = exact(&ys, false);
        let cp = r.change_point.month().expect("should detect a change");
        assert!(
            (cp as i64 - 25).unsigned_abs() <= 2,
            "detected {cp}, expected ≈ 25"
        );
        assert!(r.aic < r.aic_no_change);
    }

    #[test]
    fn exact_rejects_flat_series() {
        let ys = flat_series(43, 12);
        let r = exact(&ys, false);
        assert_eq!(
            r.change_point,
            ChangePoint::None,
            "flat series has no change point"
        );
        assert_eq!(r.aic, r.aic_no_change);
    }

    #[test]
    fn approx_agrees_with_exact_on_clear_break() {
        let ys = slope_break_series(43, 20, 2.0, 13);
        let exact = exact(&ys, false);
        let approx = approx(&ys, false);
        assert!(exact.change_point.is_some());
        assert!(approx.change_point.is_some());
        let e = exact.change_point.month().unwrap() as i64;
        let a = approx.change_point.month().unwrap() as i64;
        assert!((e - a).abs() <= 5, "exact {e} vs approx {a}");
    }

    #[test]
    fn approx_never_false_positive() {
        // Structural property: approx positive ⇒ exact positive.
        for seed in 0..8 {
            let ys = if seed % 2 == 0 {
                flat_series(40, seed)
            } else {
                slope_break_series(40, 22, 0.15, seed) // weak break
            };
            let exact = exact(&ys, false);
            let approx = approx(&ys, false);
            if approx.change_point.is_some() {
                assert!(
                    exact.change_point.is_some(),
                    "seed {seed}: approx found a change the exact search rejected"
                );
            }
        }
    }

    #[test]
    fn approx_uses_far_fewer_fits() {
        let ys = slope_break_series(43, 25, 1.5, 14);
        let exact = exact(&ys, false);
        let approx = approx(&ys, false);
        // Exhaustive: T−3 candidates + 1 base = 41; binary: ~2·log₂(T) for
        // the probes plus a handful of hill-descent refinement fits.
        assert_eq!(
            exact.fits_performed, 41,
            "exact fits = {}",
            exact.fits_performed
        );
        assert!(
            approx.fits_performed <= 2 * 6 + 8,
            "approx fits = {}",
            approx.fits_performed
        );
        assert!(
            approx.fits_performed < exact.fits_performed / 2,
            "approx ({}) must stay well below exact ({})",
            approx.fits_performed,
            exact.fits_performed
        );
    }

    #[test]
    fn aic_by_candidate_has_valley_at_change_point() {
        // The Fig. 5 shape: AIC lower near the true change point.
        let ys = slope_break_series(43, 30, 1.5, 15);
        let r = exact(&ys, false);
        let near = r.aic_by_candidate[&30];
        let far = r.aic_by_candidate[&5];
        assert!(near < far, "AIC near break {near} !< far {far}");
        assert_eq!(r.aic_by_candidate.len(), 40);
    }

    #[test]
    fn seasonal_variant_detects_break_under_seasonality() {
        let mut rng = SmallRng::seed_from_u64(16);
        let ys: Vec<f64> = (0..48)
            .map(|t| {
                let seasonal = 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
                let w = if t >= 30 { (t - 30 + 1) as f64 } else { 0.0 };
                30.0 + seasonal + 1.2 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.7)
            })
            .collect();
        let r = exact(&ys, true);
        let cp = r.change_point.month().expect("break under seasonality");
        assert!((cp as i64 - 30).unsigned_abs() <= 3, "detected {cp}");
    }

    #[test]
    fn bic_detects_strong_break() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let r = exact_bic(&ys);
        let cp = r.change_point.month().expect("strong break survives BIC");
        assert!((cp as i64 - 25).unsigned_abs() <= 2, "BIC detected {cp}");
    }

    #[test]
    fn bic_positive_implies_aic_positive() {
        // BIC's penalty exceeds AIC's for n_scored ≥ 8, and both criteria
        // score the same fitted models, so BIC detections are a subset of
        // AIC detections.
        for seed in 0..6 {
            let ys = if seed % 2 == 0 {
                flat_series(40, seed + 50)
            } else {
                slope_break_series(40, 20, 0.4, seed + 50)
            };
            let aic = exact(&ys, false);
            let bic = exact_bic(&ys);
            if bic.change_point.is_some() {
                assert!(
                    aic.change_point.is_some(),
                    "seed {seed}: BIC positive but AIC negative"
                );
            }
        }
    }

    #[test]
    fn bic_rejects_flat_series() {
        let ys = flat_series(43, 77);
        let r = exact_bic(&ys);
        assert_eq!(r.change_point, ChangePoint::None);
    }

    #[test]
    fn short_series_returns_none_instead_of_panicking() {
        // Below any searchable length — including the empty series — both
        // algorithms must degrade to a clean "no change" answer.
        for n in 0..=4usize {
            let ys: Vec<f64> = (0..n).map(|t| t as f64).collect();
            for seasonal in [false, true] {
                let a = approx(&ys, seasonal);
                let e = exact(&ys, seasonal);
                if seasonal || n < 4 {
                    assert_eq!(a.change_point, ChangePoint::None, "approx n={n}");
                    assert_eq!(e.change_point, ChangePoint::None, "exact n={n}");
                    assert_eq!(a.fits_performed, 0);
                    assert!(a.aic.is_infinite() && !a.aic.is_nan());
                }
            }
        }
    }

    #[test]
    fn seasonal_search_below_burn_in_returns_none() {
        // Seasonal lead skip is 12; lengths 5..15 have interior candidates
        // but too few scored observations — previously an assert/panic path.
        for n in [5usize, 10, 14] {
            let ys: Vec<f64> = (0..n).map(|t| 1.0 + (t as f64) * 0.3).collect();
            let r = approx(&ys, true);
            assert_eq!(r.change_point, ChangePoint::None, "n = {n}");
            assert!(r.aic_by_candidate.is_empty());
        }
    }

    #[test]
    fn minimal_searchable_length_still_works() {
        // n = 4 non-seasonal is the shortest series with a real search: one
        // candidate month and exactly two scored observations.
        let ys = [1.0, 2.0, 3.0, 4.0];
        let r = exact(&ys, false);
        assert!(r.fits_performed > 0);
        assert!(r.aic.is_finite());
    }

    #[test]
    fn warm_search_matches_cold_decisions() {
        // A warm-started search (seeded from the no-change optimum of the
        // series minus its last point — the incremental session's situation)
        // must reach the same change-point decision as the cold search.
        for (ys, what) in [
            (slope_break_series(43, 25, 1.5, 11), "break"),
            (flat_series(43, 12), "flat"),
        ] {
            let prev = exact(&ys[..ys.len() - 1], false);
            let seeds = WarmStart::from_search(&prev);
            let cold = exact(&ys, false);
            let warm = run(
                &ys,
                SearchPlan {
                    warm: Some(seeds),
                    ..SearchPlan::exact(false, fast_opts())
                },
            );
            assert_eq!(cold.change_point, warm.change_point, "{what}");
            let warm_approx = run(
                &ys,
                SearchPlan {
                    warm: Some(seeds),
                    ..SearchPlan::approx(false, fast_opts())
                },
            );
            assert_eq!(cold.change_point, warm_approx.change_point, "{what} approx");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ChangePoint::None.to_string(), "∞");
        assert_eq!(ChangePoint::At(7).to_string(), "t=7");
        assert_eq!(ChangePoint::At(7).month(), Some(7));
        assert_eq!(ChangePoint::None.month(), None);
    }
}
