//! Derivative-free optimisation.
//!
//! The state-space likelihoods maximised in `mic-statespace` are smooth but
//! their gradients are awkward to derive through the Kalman recursion, so the
//! standard approach (also used by R's `StructTS`/`arima`) is a
//! derivative-free simplex search over transformed (log-variance /
//! PACF-space) parameters. This module provides Nelder–Mead with adaptive
//! coefficients.

/// Outcome of an optimisation run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
    /// True when the convergence tolerance was met (vs. iteration cap).
    pub converged: bool,
}

/// Tuning knobs for [`nelder_mead`].
#[derive(Clone, Copy, Debug)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex's coordinate spread.
    pub x_tol: f64,
    /// Initial simplex edge length (per coordinate).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 2000,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.5,
        }
    }
}

/// Minimise `f` starting from `x0` with the Nelder–Mead simplex method
/// (adaptive coefficients per Gao & Han 2012, which behave better in higher
/// dimensions). Non-finite objective values are treated as +inf, so callers
/// may return `f64::INFINITY` for infeasible points.
pub fn nelder_mead<F>(mut f: F, x0: &[f64], opts: &NelderMeadOptions) -> OptimizeResult
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert!(n > 0, "nelder_mead requires at least one dimension");
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // Adaptive coefficients.
    let nf = n as f64;
    let alpha = 1.0;
    let beta = 1.0 + 2.0 / nf;
    let gamma = 0.75 - 1.0 / (2.0 * nf);
    let delta = 1.0 - 1.0 / nf;

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        let step = if xi[i] != 0.0 {
            opts.initial_step * xi[i].abs().max(1.0)
        } else {
            opts.initial_step
        };
        xi[i] += step;
        let fi = eval(&xi, &mut evals);
        simplex.push((xi, fi));
    }

    let mut converged = false;
    while evals < opts.max_evals {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best_f = simplex[0].1;
        let worst_f = simplex[n].1;
        // Convergence: objective spread and coordinate spread.
        let f_spread = (worst_f - best_f).abs();
        let x_spread = (0..n)
            .map(|j| {
                let lo = simplex
                    .iter()
                    .map(|(x, _)| x[j])
                    .fold(f64::INFINITY, f64::min);
                let hi = simplex
                    .iter()
                    .map(|(x, _)| x[j])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0_f64, f64::max);
        if f_spread <= opts.f_tol * (1.0 + best_f.abs()) && x_spread <= opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of the n best points.
        let mut centroid = vec![0.0; n];
        for (x, _) in simplex.iter().take(n) {
            for j in 0..n {
                centroid[j] += x[j];
            }
        }
        for c in &mut centroid {
            *c /= nf;
        }

        let worst = simplex[n].clone();
        let reflect: Vec<f64> = (0..n)
            .map(|j| centroid[j] + alpha * (centroid[j] - worst.0[j]))
            .collect();
        let f_reflect = eval(&reflect, &mut evals);

        if f_reflect < simplex[0].1 {
            // Try expansion.
            let expand: Vec<f64> = (0..n)
                .map(|j| centroid[j] + beta * (reflect[j] - centroid[j]))
                .collect();
            let f_expand = eval(&expand, &mut evals);
            simplex[n] = if f_expand < f_reflect {
                (expand, f_expand)
            } else {
                (reflect, f_reflect)
            };
        } else if f_reflect < simplex[n - 1].1 {
            simplex[n] = (reflect, f_reflect);
        } else {
            // Contraction (outside if the reflection improved on the worst).
            let (base, f_base) = if f_reflect < worst.1 {
                (&reflect, f_reflect)
            } else {
                (&worst.0, worst.1)
            };
            let contract: Vec<f64> = (0..n)
                .map(|j| centroid[j] + gamma * (base[j] - centroid[j]))
                .collect();
            let f_contract = eval(&contract, &mut evals);
            if f_contract < f_base {
                simplex[n] = (contract, f_contract);
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    for (e, &b) in entry.0.iter_mut().zip(&best) {
                        *e = b + delta * (*e - b);
                    }
                    entry.1 = eval(&entry.0, &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (x, fx) = simplex.swap_remove(0);
    OptimizeResult {
        x,
        fx,
        evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl() {
        let r = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
        assert!(r.fx < 1e-8);
    }

    #[test]
    fn rosenbrock_2d() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions {
            max_evals: 5000,
            ..Default::default()
        };
        let r = nelder_mead(rosen, &[-1.2, 1.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn handles_infinite_regions() {
        // Objective undefined for x < 0; optimum at x = 2.
        let f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let r = nelder_mead(f, &[5.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn respects_eval_budget() {
        let opts = NelderMeadOptions {
            max_evals: 40,
            ..Default::default()
        };
        let r = nelder_mead(
            |x| x.iter().map(|v| v * v).sum(),
            &[10.0, 10.0, 10.0],
            &opts,
        );
        assert!(r.evals <= 40 + 4, "evals = {}", r.evals); // small overshoot from shrink step
    }
}
