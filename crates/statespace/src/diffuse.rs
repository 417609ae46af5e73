//! Exact diffuse initialisation (Durbin & Koopman).
//!
//! The production code approximates diffuse initial states with a large
//! prior variance `κ` plus skipped innovations, which is fast and adequate
//! once the comparability rules of [`crate::estimate`] are followed. This
//! module implements the *exact* alternative — Koopman's exact initial
//! Kalman filter, which tracks the initial covariance as `P = P_* + κ·P_∞`
//! in the limit `κ → ∞` and accumulates the proper diffuse log-likelihood —
//! so the approximation can be validated against it (see the tests and the
//! cross-checks in `tests/`).
//!
//! Univariate-observation recursions (Durbin & Koopman 2012, §5.2): with
//! `F_∞ = Z P_∞ Zᵀ`, `F_* = Z P_* Zᵀ + H`, `M_∞ = P_∞ Zᵀ`, `M_* = P_* Zᵀ`:
//!
//! - diffuse step (`F_∞ > 0`): `K₀ = M_∞/F_∞`; `a += K₀ v`;
//!   `P_* += K₀K₀ᵀF_* − K₀M_*ᵀ − M_*K₀ᵀ`; `P_∞ −= K₀M_∞ᵀ`;
//!   log-likelihood gains `−½(ln 2π + ln F_∞)`;
//! - regular step: the standard update on `P_*` with
//!   `−½(ln 2π + ln F_* + v²/F_*)`.

use crate::model::Ssm;
use mic_stats::Mat;

const LN_2PI: f64 = 1.837_877_066_409_345_5;
/// `F_∞` below this is treated as zero (state already identified).
const F_INF_TOL: f64 = 1e-7;

/// Output of the exact diffuse filter.
#[derive(Clone, Debug)]
pub struct DiffuseFilterResult {
    /// Exact diffuse log-likelihood.
    pub loglik: f64,
    /// Number of diffuse steps taken (observations consumed identifying the
    /// diffuse directions).
    pub diffuse_steps: usize,
    /// Time index at which the diffuse period ended (`P_∞ ≈ 0`);
    /// `ys.len()` if it never fully ended.
    pub diffuse_end: usize,
    /// Innovations (diffuse-period entries are with respect to the running
    /// state estimate).
    pub innovations: Vec<f64>,
    /// Filtered state means.
    pub filtered_means: Vec<Vec<f64>>,
}

/// Run the exact diffuse filter. The `Ssm`'s `p0`/`n_diffuse` are ignored;
/// instead `diffuse_mask[i]` marks state `i` as diffuse (`P_∞` gets 1 on
/// that diagonal entry) and `proper_p0` supplies the finite part `P_*`
/// (pass a zero matrix when every state is diffuse).
pub fn diffuse_kalman_filter(
    ssm: &Ssm,
    ys: &[f64],
    diffuse_mask: &[bool],
    proper_p0: &Mat,
) -> DiffuseFilterResult {
    let m = ssm.state_dim();
    assert_eq!(diffuse_mask.len(), m, "diffuse mask length mismatch");
    assert_eq!(proper_p0.rows(), m, "proper_p0 shape mismatch");
    assert!(!ys.is_empty(), "diffuse filter needs observations");

    let mut a = ssm.a0.clone();
    let mut p_star = proper_p0.clone();
    let mut p_inf = Mat::zeros(m, m);
    for (i, &d) in diffuse_mask.iter().enumerate() {
        if d {
            p_inf[(i, i)] = 1.0;
        }
    }

    let mut out = DiffuseFilterResult {
        loglik: 0.0,
        diffuse_steps: 0,
        diffuse_end: ys.len(),
        innovations: Vec::with_capacity(ys.len()),
        filtered_means: Vec::with_capacity(ys.len()),
    };
    let mut diffuse_done = !diffuse_mask.iter().any(|&d| d);
    if diffuse_done {
        out.diffuse_end = 0;
    }

    let tt = ssm.transition.transpose();
    for (t, &y) in ys.iter().enumerate() {
        let z = ssm.loading.at(t);
        let mut zy = 0.0;
        for i in 0..m {
            zy += z[i] * a[i];
        }
        let v = y - zy;
        out.innovations.push(v);

        let m_star: Vec<f64> = (0..m)
            .map(|i| (0..m).map(|j| p_star[(i, j)] * z[j]).sum::<f64>())
            .collect();
        let mut f_star = ssm.obs_var;
        for i in 0..m {
            f_star += z[i] * m_star[i];
        }

        if !diffuse_done {
            let m_inf: Vec<f64> = (0..m)
                .map(|i| (0..m).map(|j| p_inf[(i, j)] * z[j]).sum::<f64>())
                .collect();
            let mut f_inf = 0.0;
            for i in 0..m {
                f_inf += z[i] * m_inf[i];
            }
            if f_inf > F_INF_TOL {
                // Diffuse update.
                out.diffuse_steps += 1;
                out.loglik += -0.5 * (LN_2PI + f_inf.ln());
                let k0: Vec<f64> = m_inf.iter().map(|&x| x / f_inf).collect();
                for i in 0..m {
                    a[i] += k0[i] * v;
                }
                for i in 0..m {
                    for j in 0..m {
                        p_star[(i, j)] +=
                            k0[i] * k0[j] * f_star - k0[i] * m_star[j] - m_star[i] * k0[j];
                        p_inf[(i, j)] -= k0[i] * m_inf[j];
                    }
                }
                p_star.symmetrize();
                p_inf.symmetrize();
            } else {
                // Regular update inside the diffuse period.
                let f = f_star.max(1e-12);
                out.loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
                let k: Vec<f64> = m_star.iter().map(|&x| x / f).collect();
                for i in 0..m {
                    a[i] += k[i] * v;
                }
                for i in 0..m {
                    for j in 0..m {
                        p_star[(i, j)] -= k[i] * m_star[j];
                    }
                }
                p_star.symmetrize();
            }
            if p_inf.max_abs() < 1e-8 {
                diffuse_done = true;
                out.diffuse_end = t + 1;
            }
        } else {
            // Standard Kalman update.
            let f = f_star.max(1e-12);
            out.loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
            let k: Vec<f64> = m_star.iter().map(|&x| x / f).collect();
            for i in 0..m {
                a[i] += k[i] * v;
            }
            for i in 0..m {
                for j in 0..m {
                    p_star[(i, j)] -= k[i] * m_star[j];
                }
            }
            p_star.symmetrize();
        }
        out.filtered_means.push(a.clone());

        // Prediction.
        a = ssm.transition.mul_vec(&a);
        let tp = &ssm.transition * &p_star;
        let mut next = &tp * &tt;
        for i in 0..m {
            for j in 0..m {
                next[(i, j)] += ssm.state_cov[(i, j)];
            }
        }
        next.symmetrize();
        p_star = next;
        if !diffuse_done {
            let tp_inf = &ssm.transition * &p_inf;
            let mut next_inf = &tp_inf * &tt;
            next_inf.symmetrize();
            p_inf = next_inf;
        }
    }
    out
}

/// Convenience: run the exact diffuse filter for a structural model built
/// by [`crate::structural::StructuralSpec::build`] (all states diffuse).
pub fn diffuse_filter_structural(ssm: &Ssm, ys: &[f64]) -> DiffuseFilterResult {
    let m = ssm.state_dim();
    diffuse_kalman_filter(ssm, ys, &vec![true; m], &Mat::zeros(m, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::kalman_filter;
    use crate::structural::{StructuralParams, StructuralSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> StructuralParams {
        StructuralParams {
            var_eps: 1.0,
            var_level: 0.2,
            var_seasonal: 0.05,
        }
    }

    fn noisy_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| 12.0 + 0.2 * t as f64 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0))
            .collect()
    }

    #[test]
    fn no_diffuse_states_matches_standard_filter() {
        // A fully-proper model: diffuse mask all false, P_* given. The exact
        // filter must agree with the standard filter exactly.
        let spec = StructuralSpec::local_level();
        let mut ssm = spec.build(&params(), 20);
        ssm.p0 = Mat::diag(&[2.5]);
        ssm.n_diffuse = 0;
        let ys = noisy_series(20, 1);
        let standard = kalman_filter(&ssm, &ys);
        let exact = diffuse_kalman_filter(&ssm, &ys, &[false], &Mat::diag(&[2.5]));
        assert!((standard.loglik - exact.loglik).abs() < 1e-9);
        assert_eq!(exact.diffuse_steps, 0);
        for (a, b) in standard.filtered_means.iter().zip(&exact.filtered_means) {
            assert!((a[0] - b[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn local_level_diffuse_period_is_one_step() {
        let spec = StructuralSpec::local_level();
        let ssm = spec.build(&params(), 25);
        let ys = noisy_series(25, 2);
        let r = diffuse_filter_structural(&ssm, &ys);
        assert_eq!(r.diffuse_steps, 1);
        assert_eq!(r.diffuse_end, 1);
        // After the diffuse step the level equals the first observation.
        assert!((r.filtered_means[0][0] - ys[0]).abs() < 1e-9);
    }

    #[test]
    fn seasonal_diffuse_period_is_twelve_steps() {
        let spec = StructuralSpec::with_seasonal();
        let ssm = spec.build(&params(), 30);
        let ys = noisy_series(30, 3);
        let r = diffuse_filter_structural(&ssm, &ys);
        assert_eq!(r.diffuse_steps, 12, "level + 11 seasonal states");
        assert_eq!(r.diffuse_end, 12);
    }

    #[test]
    fn intervention_identified_at_change_point() {
        // λ's diffuse direction is resolved only when w_t first becomes
        // non-zero — the exact filter shows the diffuse period extending to
        // the change point, which is precisely what the production skip
        // convention (`extra_skips`) approximates.
        let cp = 15;
        let spec = StructuralSpec::with_intervention(cp);
        let ssm = spec.build(&params(), 40);
        let ys = noisy_series(40, 4);
        let r = diffuse_filter_structural(&ssm, &ys);
        assert_eq!(r.diffuse_steps, 2, "level + λ");
        assert_eq!(r.diffuse_end, cp + 1, "λ pinned down at the change point");
    }

    #[test]
    fn exact_diffuse_agrees_with_skip_convention_up_to_constant() {
        // For a fixed model structure, exact-diffuse and big-κ-with-skip
        // log-likelihoods must differ by (nearly) the same constant across
        // parameter values — i.e. they induce the same MLE surface.
        let spec = StructuralSpec::local_level();
        let ys = noisy_series(40, 5);
        let mut diffs = Vec::new();
        for &(ve, vl) in &[(0.5, 0.1), (1.0, 0.2), (2.0, 0.05), (0.8, 0.8)] {
            let p = StructuralParams {
                var_eps: ve,
                var_level: vl,
                var_seasonal: 0.0,
            };
            let ssm = spec.build(&p, ys.len());
            let skip = kalman_filter(&ssm, &ys).loglik;
            let exact = diffuse_filter_structural(&ssm, &ys).loglik;
            diffs.push(exact - skip);
        }
        // The diffuse contribution −½ ln F_∞ varies across parameters only
        // weakly (F_∞ = 1 for the local level); differences should be tiny.
        let spread = diffs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        assert!(
            spread.1 - spread.0 < 0.2,
            "loglik offset should be ≈ constant across parameters: {diffs:?}"
        );
    }

    #[test]
    fn exact_diffuse_ranks_change_points_like_production_search() {
        // The key validation: the exact diffuse likelihood, evaluated at the
        // production MLE for each candidate change point, picks the planted
        // break — agreeing with the skip-convention search.
        let cp_true = 20;
        let mut rng = SmallRng::seed_from_u64(6);
        let ys: Vec<f64> = (0..43)
            .map(|t| {
                let w = if t >= cp_true {
                    (t - cp_true + 1) as f64
                } else {
                    0.0
                };
                10.0 + 1.5 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
            })
            .collect();
        let opts = crate::estimate::FitOptions {
            max_evals: 200,
            n_starts: 1,
        };
        let mut best: Option<(usize, f64)> = None;
        for cand in [5usize, 12, 20, 28, 35] {
            let fit = crate::estimate::fit_structural(
                &ys,
                StructuralSpec::with_intervention(cand),
                &opts,
            );
            let ssm = fit.ssm(ys.len());
            let exact = diffuse_filter_structural(&ssm, &ys);
            // Exact-diffuse AIC with the same penalty convention.
            let aic = -2.0 * exact.loglik + 2.0 * (fit.spec.state_dim() + 2) as f64;
            if best.as_ref().is_none_or(|&(_, b)| aic < b) {
                best = Some((cand, aic));
            }
        }
        assert_eq!(
            best.unwrap().0,
            cp_true,
            "exact diffuse AIC prefers the planted break"
        );
    }
}
