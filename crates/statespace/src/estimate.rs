//! Maximum-likelihood estimation of structural models and the AIC.
//!
//! Disturbance variances are optimised on the log scale with Nelder–Mead
//! (the likelihood is evaluated exactly by the Kalman filter); the
//! intervention coefficient `λ`, being a diffuse noise-free state, is
//! estimated by the filter itself. Following Commandeur & Koopman (the text
//! the paper cites), `AIC = −2·logL + 2·(q + w)` where `q` is the number of
//! diffuse initial state values and `w` the number of estimated disturbance
//! variances — so adding the intervention costs exactly one penalty unit,
//! which is what makes the AIC change-point comparison meaningful.

use crate::kalman::{kalman_filter, kalman_loglik, FilterResult, FilterWorkspace};
use crate::model::Ssm;
use crate::smoother::smooth;
use crate::structural::{Components, StructuralParams, StructuralSpec};
use mic_stats::optimize::{nelder_mead, NelderMeadOptions};
use mic_stats::sample_variance;

/// Fitting options.
#[derive(Clone, Copy, Debug)]
pub struct FitOptions {
    /// Maximum likelihood evaluations per optimisation start. The cap is
    /// checked once per Nelder–Mead iteration, and one iteration can spend
    /// up to n + 2 evaluations (reflection, contraction, then a shrink of n
    /// vertices, n = the number of estimated variances), so a start can
    /// overrun the cap by up to n + 1 evaluations.
    pub max_evals: usize,
    /// Extra restarts from perturbed initial points (best result wins).
    pub n_starts: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            max_evals: 400,
            n_starts: 2,
        }
    }
}

/// A structural model fitted to one series.
#[derive(Clone, Debug)]
pub struct FittedStructural {
    pub spec: StructuralSpec,
    pub params: StructuralParams,
    /// Maximised log-likelihood (the first `skip` innovations excluded).
    pub loglik: f64,
    /// `−2·logL + 2·(q + w)`.
    pub aic: f64,
    /// Bayesian Information Criterion: `−2·logL + (q + w)·ln(n_scored)`.
    /// The paper selects by AIC but notes its method works with other
    /// criteria; BIC penalises the intervention harder on long series.
    pub bic: f64,
    /// Series length the model was fitted on.
    pub n: usize,
    /// Innovations excluded from the likelihood. Defaults to the state
    /// dimension; change-point searches raise it so that every compared
    /// model scores the *same* observations (AICs with different scored
    /// sets are not comparable — on small-variance series the model that
    /// skips more gets a spurious penalty).
    pub skip: usize,
    /// Number of likelihood evaluations spent.
    pub evals: usize,
}

impl FittedStructural {
    /// Build the numeric SSM for `horizon` steps (≥ `self.n`; longer for
    /// forecasting).
    pub fn ssm(&self, horizon: usize) -> Ssm {
        self.spec.build(&self.params, horizon)
    }

    /// Run the filter on `ys` under the fitted parameters.
    pub fn filter(&self, ys: &[f64]) -> FilterResult {
        kalman_filter(&self.ssm(ys.len()), ys)
    }

    /// Smoothed component decomposition (Figs. 6–7 middle panels).
    pub fn decompose(&self, ys: &[f64]) -> Components {
        let ssm = self.ssm(ys.len());
        let f = kalman_filter(&ssm, ys);
        let s = smooth(&ssm, &f);
        Components::from_smoothed(&self.spec, &s.means, ys)
    }

    /// Confidence interval for the intervention scale `λ` at level `z`
    /// standard deviations (e.g. 1.96 for 95%), from the smoothed state
    /// covariance. `None` for models without an intervention component.
    pub fn lambda_confidence(&self, ys: &[f64], z: f64) -> Option<(f64, f64)> {
        let li = self.spec.lambda_index()?;
        let ssm = self.ssm(ys.len());
        let f = kalman_filter(&ssm, ys);
        let s = smooth(&ssm, &f);
        let n = ys.len();
        let lambda = s.means[n - 1][li];
        let sd = s.covs[n - 1][(li, li)].max(0.0).sqrt();
        Some((lambda - z * sd, lambda + z * sd))
    }

    /// Mean forecasts for `h` steps past the end of `ys`.
    pub fn forecast(&self, ys: &[f64], h: usize) -> Vec<f64> {
        self.forecast_with_variance(ys, h)
            .into_iter()
            .map(|(m, _)| m)
            .collect()
    }

    /// Mean forecasts with forecast variances `Var(y_{n+j})` — state
    /// uncertainty propagated through the transition plus observation
    /// noise. Useful for prediction intervals
    /// (`mean ± z·sqrt(var)`).
    pub fn forecast_with_variance(&self, ys: &[f64], h: usize) -> Vec<(f64, f64)> {
        let n = ys.len();
        let ssm = self.ssm(n + h);
        let f = kalman_filter(&ssm, ys);
        let mut alpha = f.filtered_means[n - 1].clone();
        let mut p = f.filtered_covs[n - 1].clone();
        let tt = ssm.transition.transpose();
        let mut out = Vec::with_capacity(h);
        for j in 0..h {
            alpha = ssm.transition.mul_vec(&alpha);
            let tp = &ssm.transition * &p;
            let mut next_p = &tp * &tt;
            for r in 0..next_p.rows() {
                for c in 0..next_p.cols() {
                    next_p[(r, c)] += ssm.state_cov[(r, c)];
                }
            }
            next_p.symmetrize();
            p = next_p;
            let z = ssm.loading.at(n + j);
            let mean: f64 = z.iter().zip(&alpha).map(|(zi, ai)| zi * ai).sum();
            let var = p.quad_form(z) + ssm.obs_var;
            out.push((mean, var));
        }
        out
    }
}

/// Fit a structural spec to a series by maximum likelihood, excluding the
/// model's own diffuse burn-in from the likelihood.
///
/// # Panics
/// Panics if the series is shorter than the model's state dimension + 2
/// (not enough observations past the diffuse burn-in to score).
pub fn fit_structural(ys: &[f64], spec: StructuralSpec, opts: &FitOptions) -> FittedStructural {
    let mut ws = FilterWorkspace::new(spec.state_dim());
    // An intervention model's λ is identified at the change point, not in
    // the leading burn-in: skip state_dim − 1 leading innovations plus the
    // one at the change point (when it lies past the burn-in).
    if let crate::structural::InterventionSpec::SlopeShift { change_point } = spec.intervention {
        let lead = spec.state_dim() - 1;
        if change_point >= lead {
            return fit_at(ys, spec, opts, lead, &[change_point], None, &mut ws);
        }
        return fit_at(ys, spec, opts, lead + 1, &[], None, &mut ws);
    }
    fit_at(ys, spec, opts, spec.state_dim(), &[], None, &mut ws)
}

/// The one fitting routine behind [`fit_structural`] and the change-point
/// search, with explicit likelihood exclusions: the first `skip`
/// innovations plus the innovations at `extra_skips` indices. Change-point
/// searches use these so every compared model — any candidate change point
/// and the no-change baseline — scores exactly the same number of
/// observations, and so the intervention coefficient's identifying
/// innovation (variance ≈ κ under the diffuse prior) is never charged to
/// the likelihood.
///
/// The caller-owned [`FilterWorkspace`] serves every likelihood evaluation,
/// so a search fitting dozens of candidate models reuses one set of filter
/// buffers across all of them. The SSM is built once per fit and only its
/// disturbance variances are overwritten per evaluation; combined with the
/// allocation-free [`kalman_loglik`], the optimisation loop performs no
/// heap allocation at all.
///
/// With `warm` set, Nelder–Mead runs a single start seeded at the given
/// log-variances with a tightened initial step, instead of the default
/// multi-start simplex. This is for resumable fits — refitting a series
/// that grew by one observation, where the previous optimum is an
/// excellent initial guess. The optimum found may differ slightly from a
/// cold fit (different simplex trajectory), so callers that need
/// bit-reproducibility against the batch path must compare *decisions*,
/// not likelihoods. Warm fits emit a `kf.warm_fits` counter alongside the
/// usual `kf.fits`; every Nelder–Mead start that stops at its evaluation
/// cap instead of meeting the tolerance test counts as `kf.nm_cap_hits`.
pub(crate) fn fit_at(
    ys: &[f64],
    spec: StructuralSpec,
    opts: &FitOptions,
    skip: usize,
    extra_skips: &[usize],
    warm: Option<&StructuralParams>,
    ws: &mut FilterWorkspace,
) -> FittedStructural {
    let _fit_span = mic_obs::span("kf.fit");
    mic_obs::counter("kf.fits", 1);
    let n = ys.len();
    let q = spec.state_dim();
    assert!(
        n >= skip + extra_skips.len() + 2,
        "series of length {n} too short for likelihood skip {skip}+{} (need ≥ {})",
        extra_skips.len(),
        skip + extra_skips.len() + 2
    );
    let var_y = sample_variance(ys).max(1e-6);
    let n_var = spec.n_variance_params();

    // Build the model once; each evaluation only rewrites the variances.
    let mut ssm = spec.build(&params_from_log(&[], var_y), n);
    ssm.n_diffuse = skip;
    ssm.extra_skips = extra_skips.to_vec();

    // Objective over log-variances [ln σ²_ε, ln σ²_ξ, (ln σ²_ω)].
    let mut objective = |x: &[f64]| -> f64 {
        let params = params_from_log(x, var_y);
        spec.apply_params(&params, &mut ssm);
        // The mean of the `kf.loglik` timer is the measured C_KF (Table V).
        mic_obs::counter("kf.loglik_evals", 1);
        let eval_span = mic_obs::span("kf.loglik");
        let loglik = kalman_loglik(&ssm, ys, ws);
        eval_span.end();
        if loglik.is_finite() {
            -loglik
        } else {
            f64::INFINITY
        }
    };

    // Starts: the warm path resumes from the caller's cached optimum with a
    // tightened simplex; the cold path uses the classic variance-split
    // heuristics around var(ys).
    let base = var_y.ln();
    let (starts, n_starts, initial_step): (Vec<Vec<f64>>, usize, f64) = match warm {
        Some(p) => {
            mic_obs::counter("kf.warm_fits", 1);
            let lo = (var_y * 1e-10).ln();
            let hi = (var_y * 1e4).ln().max(lo + 1.0);
            let logv = |v: f64| if v > 0.0 { v.ln().clamp(lo, hi) } else { lo };
            (
                vec![vec![
                    logv(p.var_eps),
                    logv(p.var_level),
                    logv(p.var_seasonal),
                ]],
                1,
                0.25,
            )
        }
        None => (
            vec![
                vec![base - 0.5, base - 2.0, base - 4.0],
                vec![base, base - 4.0, base - 6.0],
                vec![base - 2.0, base - 0.5, base - 3.0],
            ],
            opts.n_starts.max(1),
            1.0,
        ),
    };

    // The warm path starts next to an optimum, so it runs with a relaxed
    // stopping rule and a hard evaluation cap at a third of the cold budget:
    // a 1e-2 spread in log-variance space is far below the scale at which
    // AIC comparisons are decided, and the cap bounds the refit cost even
    // when the simplex keeps finding marginal improvements instead of
    // triggering the tolerance test. The cold path keeps the strict
    // tolerances and the full budget.
    let (f_tol, x_tol, max_evals) = if warm.is_some() {
        (1e-5, 1e-2, (opts.max_evals / 3).max(30))
    } else {
        (1e-8, 1e-6, opts.max_evals)
    };
    let nm_opts = NelderMeadOptions {
        max_evals,
        f_tol,
        x_tol,
        initial_step,
    };
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut total_evals = 0usize;
    for start in starts.iter().take(n_starts) {
        let x0: Vec<f64> = start.iter().take(n_var).copied().collect();
        let r = nelder_mead(&mut objective, &x0, &nm_opts);
        mic_obs::counter("kf.nm_evals", r.evals as u64);
        if !r.converged {
            mic_obs::counter("kf.nm_cap_hits", 1);
        }
        total_evals += r.evals;
        match &best {
            Some((_, fx)) if *fx <= r.fx => {}
            _ => best = Some((r.x, r.fx)),
        }
    }
    let (x, neg_ll) = best.expect("at least one start");
    let params = params_from_log(&x, var_y);
    let loglik = -neg_ll;
    let k = q + n_var;
    let n_scored = (n - skip - extra_skips.len()) as f64;
    FittedStructural {
        spec,
        params,
        loglik,
        aic: -2.0 * loglik + 2.0 * k as f64,
        bic: -2.0 * loglik + k as f64 * n_scored.max(1.0).ln(),
        n,
        skip,
        evals: total_evals,
    }
}

/// Map unconstrained log-variances to positive variances, clamped to keep
/// the filter well-conditioned relative to the data scale.
fn params_from_log(x: &[f64], var_y: f64) -> StructuralParams {
    let lo = (var_y * 1e-10).ln();
    let hi = (var_y * 1e4).ln().max(lo + 1.0);
    let v = |i: usize| -> f64 {
        if i < x.len() {
            x[i].clamp(lo, hi).exp()
        } else {
            0.0
        }
    };
    StructuralParams {
        var_eps: v(0),
        var_level: v(1),
        var_seasonal: v(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::InterventionSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn noisy_level(n: usize, level: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| level + mic_stats::dist::sample_normal(&mut rng, 0.0, noise))
            .collect()
    }

    fn seasonal_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                20.0 + 8.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.8)
            })
            .collect()
    }

    fn slope_break_series(n: usize, cp: usize, slope: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                10.0 + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.5)
            })
            .collect()
    }

    #[test]
    fn local_level_recovers_noise_variance_scale() {
        let ys = noisy_level(120, 50.0, 2.0, 1);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        // σ²_ε should approximate 4 and dominate σ²_ξ.
        assert!(
            fit.params.var_eps > 1.5 && fit.params.var_eps < 8.0,
            "var_eps = {}",
            fit.params.var_eps
        );
        assert!(
            fit.params.var_level < fit.params.var_eps,
            "level var should be tiny"
        );
    }

    #[test]
    fn seasonal_model_beats_local_level_on_seasonal_data() {
        let ys = seasonal_series(48, 2);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lls = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        assert!(
            lls.aic < ll.aic,
            "seasonal AIC {} !< LL AIC {}",
            lls.aic,
            ll.aic
        );
    }

    #[test]
    fn intervention_model_wins_on_broken_series() {
        let ys = slope_break_series(43, 25, 1.5, 3);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lli = fit_structural(
            &ys,
            StructuralSpec::with_intervention(25),
            &FitOptions::default(),
        );
        assert!(
            lli.aic < ll.aic,
            "intervention AIC {} !< LL AIC {}",
            lli.aic,
            ll.aic
        );
    }

    #[test]
    fn decomposition_recovers_lambda() {
        let ys = slope_break_series(43, 20, 2.0, 4);
        let fit = fit_structural(
            &ys,
            StructuralSpec::with_intervention(20),
            &FitOptions::default(),
        );
        let c = fit.decompose(&ys);
        assert!(
            (c.lambda - 2.0).abs() < 0.4,
            "λ should be ≈ 2, got {}",
            c.lambda
        );
        // Intervention component is zero before the break.
        for t in 0..20 {
            assert_eq!(c.intervention[t], 0.0, "t = {t}");
        }
        assert!(c.intervention[42] > 30.0);
    }

    #[test]
    fn decomposition_components_sum_to_fitted() {
        let ys = seasonal_series(40, 5);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        for (t, &y) in ys.iter().enumerate() {
            let sum = c.level[t] + c.seasonal[t] + c.intervention[t];
            assert!((c.fitted[t] - sum).abs() < 1e-9);
            assert!((c.irregular[t] - (y - sum)).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_component_has_near_zero_annual_mean() {
        let ys = seasonal_series(48, 6);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        let year_mean: f64 = c.seasonal[12..24].iter().sum::<f64>() / 12.0;
        let amplitude = c.seasonal.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert!(amplitude > 3.0, "seasonal amplitude {amplitude} too small");
        assert!(
            year_mean.abs() < 0.35 * amplitude,
            "annual mean {year_mean} vs amp {amplitude}"
        );
    }

    #[test]
    fn aic_penalises_unneeded_intervention() {
        // On a pure level series, adding the intervention must not improve
        // AIC (the likelihood gain is < the 1-unit penalty, generically).
        let ys = noisy_level(43, 30.0, 1.0, 7);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lli = fit_structural(
            &ys,
            StructuralSpec::with_intervention(21),
            &FitOptions::default(),
        );
        assert!(
            lli.aic > ll.aic - 2.0,
            "intervention should not materially improve a flat series: {} vs {}",
            lli.aic,
            ll.aic
        );
    }

    #[test]
    fn forecast_continues_seasonal_pattern() {
        let ys = seasonal_series(48, 8);
        let train = &ys[..36];
        let fit = fit_structural(
            train,
            StructuralSpec::with_seasonal(),
            &FitOptions::default(),
        );
        let fc = fit.forecast(train, 12);
        assert_eq!(fc.len(), 12);
        let rmse = mic_stats::rmse(&ys[36..48], &fc);
        assert!(rmse < 3.0, "seasonal forecast RMSE = {rmse}");
        // A local-level forecast must be worse on strongly seasonal data.
        let ll_fit = fit_structural(train, StructuralSpec::local_level(), &FitOptions::default());
        let ll_fc = ll_fit.forecast(train, 12);
        let ll_rmse = mic_stats::rmse(&ys[36..48], &ll_fc);
        assert!(rmse < ll_rmse, "{rmse} !< {ll_rmse}");
    }

    #[test]
    fn forecast_continues_slope_after_break() {
        let ys = slope_break_series(43, 20, 1.0, 9);
        let train = &ys[..36];
        let fit = fit_structural(
            train,
            StructuralSpec {
                seasonal: false,
                intervention: InterventionSpec::SlopeShift { change_point: 20 },
                period: 12,
            },
            &FitOptions::default(),
        );
        let fc = fit.forecast(train, 7);
        let rmse = mic_stats::rmse(&ys[36..43], &fc);
        assert!(rmse < 2.5, "post-break forecast RMSE = {rmse}");
        // Forecasts keep climbing.
        assert!(fc[6] > fc[0]);
    }

    #[test]
    fn lambda_confidence_covers_truth() {
        let ys = slope_break_series(43, 20, 2.0, 12);
        let fit = fit_structural(
            &ys,
            StructuralSpec::with_intervention(20),
            &FitOptions::default(),
        );
        let (lo, hi) = fit.lambda_confidence(&ys, 1.96).expect("has intervention");
        assert!(
            lo < 2.0 && 2.0 < hi,
            "95% CI [{lo:.2}, {hi:.2}] should cover λ = 2"
        );
        assert!(hi - lo < 2.0, "CI too wide: [{lo:.2}, {hi:.2}]");
        // No intervention → no interval.
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        assert!(ll.lambda_confidence(&ys, 1.96).is_none());
    }

    #[test]
    fn forecast_variance_grows_with_horizon() {
        let ys = noisy_level(40, 25.0, 1.5, 10);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let fc = fit.forecast_with_variance(&ys, 10);
        assert_eq!(fc.len(), 10);
        for w in fc.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "variance must not shrink: {:?}",
                fc
            );
        }
        // Variance at step 1 is at least the observation variance.
        assert!(fc[0].1 >= fit.params.var_eps);
        // ~95% of actual draws should fall inside mean ± 2 sd at h=1; just
        // sanity-check the interval has sensible width (a few noise sds).
        let width = 2.0 * fc[0].1.sqrt();
        assert!(width > 1.0 && width < 15.0, "interval half-width {width}");
    }

    #[test]
    fn forecast_mean_matches_plain_forecast() {
        let ys = seasonal_series(48, 11);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let plain = fit.forecast(&ys, 6);
        let with_var = fit.forecast_with_variance(&ys, 6);
        for (a, (b, _)) in plain.iter().zip(&with_var) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_fit_matches_cold_fit_quality() {
        // Refit a series that grew by one point, warm-started from the
        // previous optimum: the warm fit must reach (essentially) the same
        // likelihood as a cold multi-start fit, in a fraction of the evals.
        let ys = noisy_level(60, 40.0, 1.5, 21);
        let spec = StructuralSpec::local_level();
        let opts = FitOptions::default();
        let prev = fit_structural(&ys[..59], spec, &opts);
        let cold = fit_structural(&ys, spec, &opts);
        let mut ws = FilterWorkspace::new(spec.state_dim());
        let warm = fit_at(
            &ys,
            spec,
            &opts,
            spec.state_dim(),
            &[],
            Some(&prev.params),
            &mut ws,
        );
        assert!(
            warm.loglik >= cold.loglik - 0.05,
            "warm loglik {} far below cold {}",
            warm.loglik,
            cold.loglik
        );
        assert!(
            warm.evals <= cold.evals / 2,
            "warm evals {} should undercut cold {}",
            warm.evals,
            cold.evals
        );
        assert_eq!(warm.skip, cold.skip);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_panics() {
        fit_structural(
            &[1.0, 2.0, 3.0],
            StructuralSpec::with_seasonal(),
            &FitOptions::default(),
        );
    }
}
