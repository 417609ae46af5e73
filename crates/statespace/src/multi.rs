//! Multiple change points — the paper's stated extension ("state space
//! models can accept more than one intervention variable", Section IX).
//!
//! The model generalises the single slope shift to `K` intervention states
//! `Σ_k λ_k · w_t^{(k)}`, each with its own change point. Detection is a
//! greedy forward search: find the best single change point (Algorithm 1 or
//! 2), then — holding accepted points fixed — search for the next one, and
//! stop as soon as adding a point no longer lowers the AIC. Every model in
//! a round scores the same observations (the same diffuse-likelihood
//! convention as the single-point search, extended to one skipped
//! identifying innovation per intervention).

use crate::estimate::FitOptions;
use crate::kalman::{kalman_filter, kalman_loglik, FilterWorkspace};
use crate::model::{ObsLoading, Ssm, DIFFUSE_KAPPA};
use crate::structural::{InterventionSpec, StructuralParams};
use mic_stats::optimize::{nelder_mead, NelderMeadOptions};
use mic_stats::{sample_variance, Mat};

/// A structural model with level, optional seasonal, and `K ≥ 0` slope-shift
/// interventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiStructuralSpec {
    pub seasonal: bool,
    pub period: usize,
    /// Sorted, distinct change points.
    pub change_points: Vec<usize>,
}

impl MultiStructuralSpec {
    pub fn new(seasonal: bool, mut change_points: Vec<usize>) -> MultiStructuralSpec {
        change_points.sort_unstable();
        change_points.dedup();
        MultiStructuralSpec {
            seasonal,
            period: 12,
            change_points,
        }
    }

    pub fn state_dim(&self) -> usize {
        1 + if self.seasonal { self.period - 1 } else { 0 } + self.change_points.len()
    }

    pub fn n_variance_params(&self) -> usize {
        2 + usize::from(self.seasonal)
    }

    fn lambda_base(&self) -> usize {
        1 + if self.seasonal { self.period - 1 } else { 0 }
    }

    /// Build the SSM over `horizon` steps.
    pub fn build(&self, params: &StructuralParams, horizon: usize) -> Ssm {
        let m = self.state_dim();
        let mut transition = Mat::zeros(m, m);
        let mut q = vec![0.0; m];
        transition[(0, 0)] = 1.0;
        q[0] = params.var_level;
        if self.seasonal {
            let s0 = 1;
            let k = self.period - 1;
            for j in 0..k {
                transition[(s0, s0 + j)] = -1.0;
            }
            for j in 1..k {
                transition[(s0 + j, s0 + j - 1)] = 1.0;
            }
            q[s0] = params.var_seasonal;
        }
        let base = self.lambda_base();
        for k in 0..self.change_points.len() {
            transition[(base + k, base + k)] = 1.0;
        }
        let mut zs = Vec::with_capacity(horizon);
        for t in 0..horizon {
            let mut z = vec![0.0; m];
            z[0] = 1.0;
            if self.seasonal {
                z[1] = 1.0;
            }
            for (k, &cp) in self.change_points.iter().enumerate() {
                z[base + k] = InterventionSpec::SlopeShift { change_point: cp }.w(t);
            }
            zs.push(z);
        }
        Ssm {
            transition,
            state_cov: Mat::diag(&q),
            obs_var: params.var_eps,
            loading: ObsLoading::TimeVarying(zs),
            a0: vec![0.0; m],
            p0: Mat::diag(&vec![DIFFUSE_KAPPA; m]),
            n_diffuse: m,
            extra_skips: Vec::new(),
        }
    }

    /// Overwrite the disturbance variances of an SSM built by
    /// [`MultiStructuralSpec::build`] for this spec (the λ states are
    /// noise-free, so only the level/seasonal/observation variances depend
    /// on the parameters). Lets the MLE loop reuse one built model.
    pub fn apply_params(&self, params: &StructuralParams, ssm: &mut Ssm) {
        debug_assert_eq!(ssm.state_dim(), self.state_dim());
        ssm.obs_var = params.var_eps;
        ssm.state_cov[(0, 0)] = params.var_level;
        if self.seasonal {
            ssm.state_cov[(1, 1)] = params.var_seasonal;
        }
    }
}

/// A fitted multi-intervention model.
#[derive(Clone, Debug)]
pub struct FittedMulti {
    pub spec: MultiStructuralSpec,
    pub params: StructuralParams,
    pub loglik: f64,
    pub aic: f64,
    /// Smoothed λ estimate per change point (same order as
    /// `spec.change_points`).
    pub lambdas: Vec<f64>,
}

/// Fit a multi-intervention spec with the comparable-likelihood convention:
/// skip `base_dim − 1 + max_k` leading innovations (where `max_k` is the
/// round's intervention budget) plus each intervention's identifying
/// innovation; `pad` adds neutral skips so models with fewer interventions
/// score the same number of observations.
fn fit_multi(
    ys: &[f64],
    spec: &MultiStructuralSpec,
    opts: &FitOptions,
    budget_k: usize,
    ws: &mut FilterWorkspace,
) -> FittedMulti {
    let n = ys.len();
    let base_dim = spec.lambda_base();
    let lead = base_dim;
    // Identifying innovations: each change point past `lead` skips itself;
    // the rest (and padding up to budget_k) skip neutral leading slots.
    let mut extra: Vec<usize> = Vec::new();
    let mut neutral = lead;
    for &cp in &spec.change_points {
        if cp >= lead && !extra.contains(&cp) {
            extra.push(cp);
        } else {
            while extra.contains(&neutral) {
                neutral += 1;
            }
            extra.push(neutral);
            neutral += 1;
        }
    }
    while extra.len() < budget_k {
        while extra.contains(&neutral) {
            neutral += 1;
        }
        extra.push(neutral);
        neutral += 1;
    }
    assert!(
        n > lead + extra.len() + 2,
        "series of length {n} too short for {} interventions",
        budget_k
    );

    let var_y = sample_variance(ys).max(1e-6);
    let n_var = spec.n_variance_params();
    // One model built per fit; evaluations rewrite only the variances and
    // run the allocation-free likelihood path.
    let mut ssm = spec.build(&log_params(&[], var_y), n);
    ssm.n_diffuse = lead;
    ssm.extra_skips = extra.clone();
    let mut objective = |x: &[f64]| -> f64 {
        let params = log_params(x, var_y);
        spec.apply_params(&params, &mut ssm);
        let loglik = kalman_loglik(&ssm, ys, ws);
        if loglik.is_finite() {
            -loglik
        } else {
            f64::INFINITY
        }
    };
    let base = var_y.ln();
    let x0: Vec<f64> = [base - 0.5, base - 2.0, base - 4.0][..n_var].to_vec();
    let nm = NelderMeadOptions {
        max_evals: opts.max_evals,
        f_tol: 1e-8,
        x_tol: 1e-6,
        initial_step: 1.0,
    };
    let r = nelder_mead(&mut objective, &x0, &nm);
    let params = log_params(&r.x, var_y);
    let loglik = -r.fx;
    // AIC: q = state_dim (every state diffuse), w = variances.
    let k = spec.state_dim() + n_var;
    // Smoothed λs (full filter pass — only for the winning parameters).
    spec.apply_params(&params, &mut ssm);
    let f = kalman_filter(&ssm, ys);
    let smoothed = crate::smoother::smooth(&ssm, &f);
    let lb = spec.lambda_base();
    let lambdas: Vec<f64> = (0..spec.change_points.len())
        .map(|j| smoothed.means[n - 1][lb + j])
        .collect();
    FittedMulti {
        spec: spec.clone(),
        params,
        loglik,
        aic: -2.0 * loglik + 2.0 * k as f64,
        lambdas,
    }
}

fn log_params(x: &[f64], var_y: f64) -> StructuralParams {
    let lo = (var_y * 1e-10).ln();
    let hi = (var_y * 1e4).ln().max(lo + 1.0);
    let v = |i: usize| {
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

/// Result of the greedy multi-change-point search.
#[derive(Clone, Debug)]
pub struct MultiChangePoints {
    /// Accepted change points in detection order with their λs.
    pub points: Vec<(usize, f64)>,
    /// AIC of the final model.
    pub aic: f64,
    /// AIC trace: entry `k` is the best AIC with `k` change points.
    pub aic_trace: Vec<f64>,
    pub fit: FittedMulti,
}

/// Greedy forward detection of up to `max_points` slope shifts with
/// one-step lookahead: at each round, try every remaining candidate
/// alongside the accepted points and keep the best. If no single addition
/// improves the AIC, the best candidate is accepted *provisionally* and one
/// more round is tried — a pair of opposing slope shifts (up then down) can
/// improve the fit even though neither alone does; the provisional chain is
/// kept only if it ends below the incumbent AIC.
pub fn detect_multiple(
    ys: &[f64],
    seasonal: bool,
    max_points: usize,
    opts: &FitOptions,
) -> MultiChangePoints {
    let n = ys.len();
    let lead = if seasonal { 12 } else { 1 };
    // Budget the skip count by the max interventions so all rounds compare
    // the same scored set.
    let budget = max_points.min((n.saturating_sub(lead + 3)) / 2);
    let mut accepted: Vec<usize> = Vec::new();
    // One filter workspace serves every fit of the greedy search.
    let mut ws = FilterWorkspace::new(lead + 1);
    let empty = fit_multi(
        ys,
        &MultiStructuralSpec::new(seasonal, vec![]),
        opts,
        budget,
        &mut ws,
    );
    let mut best_aic = empty.aic;
    let mut best_fit = empty;
    let mut aic_trace = vec![best_aic];
    // One provisional (not-yet-improving) step may be in flight.
    let mut provisional = false;

    for _round in 0..budget {
        let mut round_best: Option<(usize, FittedMulti)> = None;
        for cp in 1..n.saturating_sub(2) {
            if accepted.contains(&cp) {
                continue;
            }
            // Require ≥ 4 months between change points: adjacent slope
            // shifts are barely distinguishable.
            if accepted.iter().any(|&a| (a as i64 - cp as i64).abs() < 4) {
                continue;
            }
            let mut pts = accepted.clone();
            pts.push(cp);
            let fit = fit_multi(
                ys,
                &MultiStructuralSpec::new(seasonal, pts),
                opts,
                budget,
                &mut ws,
            );
            if round_best.as_ref().is_none_or(|(_, b)| fit.aic < b.aic) {
                round_best = Some((cp, fit));
            }
        }
        let Some((cp, fit)) = round_best else { break };
        if fit.aic < best_aic {
            accepted.push(cp);
            best_aic = fit.aic;
            best_fit = fit;
            aic_trace.push(best_aic);
            provisional = false;
        } else if !provisional && accepted.is_empty() {
            // Lookahead: tentatively accept and give the pair a chance.
            accepted.push(cp);
            provisional = true;
        } else {
            break;
        }
    }

    let points: Vec<(usize, f64)> = best_fit
        .spec
        .change_points
        .iter()
        .copied()
        .zip(best_fit.lambdas.iter().copied())
        .collect();
    MultiChangePoints {
        points,
        aic: best_aic,
        aic_trace,
        fit: best_fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn double_break(n: usize, cp1: usize, s1: f64, cp2: usize, s2: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w1 = if t >= cp1 { (t - cp1 + 1) as f64 } else { 0.0 };
                let w2 = if t >= cp2 { (t - cp2 + 1) as f64 } else { 0.0 };
                20.0 + s1 * w1 + s2 * w2 + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.6)
            })
            .collect()
    }

    fn opts() -> FitOptions {
        FitOptions {
            max_evals: 200,
            n_starts: 1,
        }
    }

    #[test]
    fn multi_spec_dimensions() {
        let spec = MultiStructuralSpec::new(false, vec![20, 5, 20]);
        assert_eq!(spec.change_points, vec![5, 20]); // sorted, deduped
        assert_eq!(spec.state_dim(), 3);
        let seasonal = MultiStructuralSpec::new(true, vec![7]);
        assert_eq!(seasonal.state_dim(), 13);
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        assert!(spec.build(&params, 40).validate().is_ok());
        assert!(seasonal.build(&params, 40).validate().is_ok());
    }

    #[test]
    fn detects_two_planted_breaks() {
        // Up-shift at 12, additional up-shift at 30.
        let ys = double_break(48, 12, 1.0, 30, 1.5, 5);
        let r = detect_multiple(&ys, false, 3, &opts());
        assert!(r.points.len() >= 2, "found only {:?}", r.points);
        let mut months: Vec<usize> = r.points.iter().map(|&(t, _)| t).collect();
        months.sort_unstable();
        assert!(
            (months[0] as i64 - 12).abs() <= 3,
            "first break {months:?} should be near 12"
        );
        assert!(
            months.iter().any(|&m| (m as i64 - 30).abs() <= 3),
            "second break {months:?} should include ≈ 30"
        );
        // AIC trace decreases.
        for w in r.aic_trace.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn single_break_stays_single() {
        let ys = double_break(43, 20, 1.5, 43, 0.0, 6); // second break never fires
        let r = detect_multiple(&ys, false, 3, &opts());
        assert_eq!(r.points.len(), 1, "found {:?}", r.points);
        assert!((r.points[0].0 as i64 - 20).abs() <= 2);
        assert!(r.points[0].1 > 0.5, "lambda = {}", r.points[0].1);
    }

    #[test]
    fn flat_series_finds_nothing() {
        let mut rng = SmallRng::seed_from_u64(7);
        let ys: Vec<f64> = (0..43)
            .map(|_| 10.0 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0))
            .collect();
        let r = detect_multiple(&ys, false, 3, &opts());
        assert!(r.points.is_empty(), "found {:?}", r.points);
        assert_eq!(r.aic_trace.len(), 1);
    }

    #[test]
    fn up_then_down_recovered_with_signs() {
        // Slope up at 10, slope *reversal* at 28 (net decline).
        let ys = double_break(48, 10, 1.2, 28, -2.0, 8);
        let r = detect_multiple(&ys, false, 3, &opts());
        assert!(r.points.len() >= 2, "found {:?}", r.points);
        let up = r.points.iter().find(|&&(t, _)| (t as i64 - 10).abs() <= 3);
        let down = r.points.iter().find(|&&(t, _)| (t as i64 - 28).abs() <= 3);
        assert!(up.is_some() && down.is_some(), "points {:?}", r.points);
        assert!(up.unwrap().1 > 0.0);
        assert!(down.unwrap().1 < 0.0);
    }
}
