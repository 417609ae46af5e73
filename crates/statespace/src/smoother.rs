//! Fixed-interval (Rauch–Tung–Striebel) state smoother.
//!
//! The component plots of Figs. 6–7 show *smoothed* components — each month's
//! level/seasonal/intervention estimated using the whole series — so the
//! decomposition runs the filter forward and this smoother backward.

use crate::kalman::FilterResult;
use crate::model::Ssm;
use mic_stats::Mat;

/// Smoothed state estimates.
#[derive(Clone, Debug)]
pub struct SmoothResult {
    /// Smoothed state means `â_{t|n}`.
    pub means: Vec<Vec<f64>>,
    /// Smoothed state covariances `P_{t|n}`.
    pub covs: Vec<Mat>,
}

/// RTS smoother over a completed filter pass.
///
/// For each `t` (backwards): `J_t = P_{t|t} T' P_{t+1|t}⁻¹`,
/// `â_t = a_{t|t} + J_t (â_{t+1} − a_{t+1|t})`, and the covariance analogue.
/// The inverse is computed by solving with the (symmetrised) predicted
/// covariance; a tiny ridge keeps zero-variance intervention states solvable.
pub fn smooth(ssm: &Ssm, filter: &FilterResult) -> SmoothResult {
    let n = filter.len();
    assert!(n > 0, "cannot smooth an empty filter result");
    let m = ssm.state_dim();
    let mut means = vec![vec![0.0; m]; n];
    let mut covs = vec![Mat::zeros(m, m); n];

    means[n - 1] = filter.filtered_means[n - 1].clone();
    covs[n - 1] = filter.filtered_covs[n - 1].clone();

    let tt = ssm.transition.transpose();
    for t in (0..n - 1).rev() {
        let p_filt = &filter.filtered_covs[t];
        let p_pred_next = &filter.predicted_covs[t + 1];
        // Solve P_{t+1|t} X = (P_{t|t} T')' column-wise for J' then transpose.
        let pt = p_filt * &tt; // m × m, equals P_{t|t} T'
        let ptt = pt.transpose();
        // Ridge-regularised predicted covariance for solvability. The first
        // attempt keeps the historical 1e-10 ridge (results unchanged
        // wherever it sufficed); near-singular covariances — e.g. an MLE
        // that drove every disturbance variance to ~0 on a short seasonal
        // series — get progressively stronger, scale-aware ridges. If none
        // solves, J stays 0 and the smoothed state falls back to the
        // filtered state at this step, instead of panicking.
        let scale = (0..m)
            .map(|i| p_pred_next[(i, i)].abs())
            .fold(1.0_f64, f64::max);
        let mut j = Mat::zeros(m, m);
        let mut solved = false;
        'attempt: for (attempt, ridge) in
            [1e-10, 1e-10 * scale, 1e-6 * scale].into_iter().enumerate()
        {
            if attempt == 1 {
                // Leaving the historical 1e-10 ridge: a numerically singular
                // predicted covariance forced an escalation.
                mic_obs::counter("kf.smoother_ridge_escalations", 1);
            }
            let mut reg = p_pred_next.clone();
            for i in 0..m {
                reg[(i, i)] += ridge;
            }
            // J = pt * reg^{-1}  ⇒  J' = reg^{-1} pt' (reg symmetric).
            let mut cols: Vec<Vec<f64>> = Vec::with_capacity(m);
            for col in 0..m {
                let rhs: Vec<f64> = (0..m).map(|row| ptt[(row, col)]).collect();
                match reg.cholesky_solve(&rhs).or_else(|| reg.solve(&rhs)) {
                    Some(x) if x.iter().all(|v| v.is_finite()) => cols.push(x),
                    _ => continue 'attempt,
                }
            }
            for (col, x) in cols.iter().enumerate() {
                for row in 0..m {
                    // x is column `col` of J': (J')_{row,col} = J_{col,row} = x[row].
                    j[(col, row)] = x[row];
                }
            }
            solved = true;
            break;
        }
        if !solved {
            // J stays 0: the smoothed state falls back to the filtered one.
            mic_obs::counter("kf.smoother_filtered_fallbacks", 1);
        }
        // â_t = a_{t|t} + J (â_{t+1} − a_{t+1|t}).
        let diff: Vec<f64> = (0..m)
            .map(|i| means[t + 1][i] - filter.predicted_means[t + 1][i])
            .collect();
        let adj = j.mul_vec(&diff);
        let mut mean = filter.filtered_means[t].clone();
        for i in 0..m {
            mean[i] += adj[i];
        }
        means[t] = mean;
        // P_t = P_{t|t} + J (P_{t+1|n} − P_{t+1|t}) J'.
        let inner = &covs[t + 1] - p_pred_next;
        let jp = &j * &inner;
        let jt = j.transpose();
        let mut cov = &filter.filtered_covs[t] + &(&jp * &jt);
        cov.symmetrize();
        covs[t] = cov;
    }

    SmoothResult { means, covs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::kalman_filter;
    use crate::model::{ObsLoading, DIFFUSE_KAPPA};

    fn local_level(var_eps: f64, var_level: f64) -> Ssm {
        Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[var_level]),
            obs_var: var_eps,
            loading: ObsLoading::Constant(vec![1.0]),
            a0: vec![0.0],
            p0: Mat::diag(&[DIFFUSE_KAPPA]),
            n_diffuse: 1,
            extra_skips: Vec::new(),
        }
    }

    #[test]
    fn degenerate_variances_smooth_without_panicking() {
        // An MLE run can drive every disturbance variance to ~0 on a short
        // seasonal series; the near-diffuse predicted covariance then
        // collapses to numerically singular and the gain solve fails. The
        // smoother must degrade to the filtered states, not panic.
        use crate::structural::{StructuralParams, StructuralSpec};
        let spec = StructuralSpec::with_seasonal();
        let params = StructuralParams {
            var_eps: 0.0,
            var_level: 0.0,
            var_seasonal: 0.0,
        };
        let ys: Vec<f64> = (0..24).map(|t| 10.0 + ((t % 12) as f64)).collect();
        let ssm = spec.build(&params, ys.len());
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        assert_eq!(s.means.len(), ys.len());
    }

    #[test]
    fn short_sparse_series_decomposes_without_panicking() {
        // Captured from a 24-month simulated pipeline run: the approximate
        // change-point search selects a full (level+seasonal+intervention)
        // model whose MLE makes the ridge-regularised predicted covariance
        // unsolvable inside the smoother, which used to panic the whole
        // `analyze` run. The decomposition must complete instead.
        use crate::changepoint::{search, SearchPlan};
        use crate::estimate::FitOptions;
        use crate::kalman::FilterWorkspace;
        let ys = [
            4.1566590253032825,
            0.0,
            0.14626913080666348,
            0.0,
            0.0,
            0.0,
            0.002377923020991996,
            1.9769916969532235,
            0.18970369872154108,
            1.7320654368658321,
            3.7490343033431803,
            0.001769935695203741,
            3.337288214371594,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.9999091711814458,
            2.1710154268971253,
            0.6566207402766422,
            0.000623398104804423,
            8.38478124461008,
            3.854943299773911,
        ];
        let opts = FitOptions {
            max_evals: 150,
            n_starts: 1,
        };
        let result = search(
            &ys,
            &SearchPlan::approx(true, opts),
            &mut FilterWorkspace::default(),
        );
        let c = result.fit.decompose(&ys);
        assert!(c.lambda.is_finite(), "lambda = {}", c.lambda);
    }

    #[test]
    fn smoother_matches_filter_at_last_point() {
        let ssm = local_level(1.0, 0.3);
        let ys: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        assert_eq!(s.means.len(), 25);
        let last = 24;
        assert!((s.means[last][0] - f.filtered_means[last][0]).abs() < 1e-12);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let ssm = local_level(1.0, 0.3);
        let ys: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        // Smoothed variance at interior points ≤ filtered variance (uses
        // strictly more information).
        for t in 1..24 {
            assert!(
                s.covs[t][(0, 0)] <= f.filtered_covs[t][(0, 0)] + 1e-9,
                "t = {t}: {} > {}",
                s.covs[t][(0, 0)],
                f.filtered_covs[t][(0, 0)]
            );
        }
    }

    #[test]
    fn smoothed_level_tracks_constant_series() {
        let ssm = local_level(0.5, 0.05);
        let ys = vec![7.0; 20];
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        for t in 0..20 {
            assert!(
                (s.means[t][0] - 7.0).abs() < 1e-4,
                "t = {t}: {}",
                s.means[t][0]
            );
        }
    }

    #[test]
    fn smoothed_level_is_smoother_than_data() {
        // Noisy constant: total variation of smoothed level must be far
        // below that of the data.
        let ys: Vec<f64> = (0..40)
            .map(|i| 5.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ssm = local_level(1.0, 0.01);
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        let tv_data: f64 = ys.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        let tv_smooth: f64 = (1..40)
            .map(|t| (s.means[t][0] - s.means[t - 1][0]).abs())
            .sum();
        assert!(
            tv_smooth < 0.2 * tv_data,
            "smoothed TV {tv_smooth} vs data TV {tv_data}"
        );
    }
}
