//! ARIMA(p,d,q) baseline (paper Tables IV and Fig. 9).
//!
//! The ARMA core is cast in Harvey's state-space form and its exact Gaussian
//! likelihood evaluated with the same Kalman filter as the structural
//! models; `σ²` is concentrated out of the likelihood, and stationarity/
//! invertibility are enforced by optimising in partial-autocorrelation space
//! (the Barndorff-Nielsen–Schou / Monahan transform). Orders are selected by
//! AIC over a (p, q) grid after choosing `d` with a variance-reduction rule
//! (the paper says only "optimal parameters by AIC"; differencing degrees
//! make likelihoods incomparable, so like standard practice we pick `d`
//! first).

use crate::kalman::kalman_filter;
use crate::model::{ObsLoading, Ssm};
use mic_stats::optimize::{nelder_mead, NelderMeadOptions};
use mic_stats::Mat;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// ARIMA order triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArimaOrder {
    pub p: usize,
    pub d: usize,
    pub q: usize,
}

impl std::fmt::Display for ArimaOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// A fitted ARIMA model.
#[derive(Clone, Debug)]
pub struct ArimaFit {
    pub order: ArimaOrder,
    /// AR coefficients φ (length p).
    pub phi: Vec<f64>,
    /// MA coefficients θ (length q).
    pub theta: Vec<f64>,
    /// Innovation variance (concentrated MLE).
    pub sigma2: f64,
    /// Mean of the (differenced) series, added back when forecasting.
    pub mean: f64,
    /// Exact log-likelihood of the differenced series.
    pub loglik: f64,
    /// `−2·logL + 2·(p + q + 1 + [d = 0])` (σ², plus the mean when no
    /// differencing removes it).
    pub aic: f64,
    /// Small-sample corrected AIC, `AIC + 2k(k+1)/(n−k−1)`; used for order
    /// selection (as in auto.arima) to curb spurious ARMA terms.
    pub aicc: f64,
    /// Length of the original series.
    pub n: usize,
}

/// Difference a series `d` times.
pub fn difference(ys: &[f64], d: usize) -> Vec<f64> {
    let mut v = ys.to_vec();
    for _ in 0..d {
        v = v.windows(2).map(|w| w[1] - w[0]).collect();
    }
    v
}

/// Map unconstrained reals to partial autocorrelations in (−1, 1), then to
/// stationary AR coefficients via the Durbin–Levinson recursion.
fn pacf_to_coeffs(z: &[f64]) -> Vec<f64> {
    let pacf: Vec<f64> = z.iter().map(|&x| x / (1.0 + x * x).sqrt()).collect();
    let p = pacf.len();
    let mut phi = vec![0.0; p];
    let mut prev = vec![0.0; p];
    for k in 0..p {
        let r = pacf[k];
        phi[k] = r;
        for j in 0..k {
            phi[j] = prev[j] - r * prev[k - 1 - j];
        }
        prev[..=k].copy_from_slice(&phi[..=k]);
    }
    phi
}

/// Build the Harvey state-space form of a zero-mean ARMA(p, q) with unit
/// innovation variance.
fn arma_ssm(phi: &[f64], theta: &[f64]) -> Option<Ssm> {
    let p = phi.len();
    let q = theta.len();
    let r = p.max(q + 1);
    let mut transition = Mat::zeros(r, r);
    for (i, &ph) in phi.iter().enumerate() {
        transition[(i, 0)] = ph;
    }
    for i in 0..r - 1 {
        transition[(i, i + 1)] = 1.0;
    }
    // R vector: [1, θ1..θq, 0...].
    let mut rvec = vec![0.0; r];
    rvec[0] = 1.0;
    for (i, &th) in theta.iter().enumerate() {
        rvec[i + 1] = th;
    }
    // Q_state = R Rᵀ (σ² = 1, concentrated).
    let mut q_state = Mat::zeros(r, r);
    for i in 0..r {
        for j in 0..r {
            q_state[(i, j)] = rvec[i] * rvec[j];
        }
    }
    // Stationary initial covariance: solve (I − T⊗T) vec(P) = vec(Q).
    let p0 = stationary_covariance(&transition, &q_state)?;
    let mut z = vec![0.0; r];
    z[0] = 1.0;
    Some(Ssm {
        transition,
        state_cov: q_state,
        obs_var: 0.0,
        loading: ObsLoading::Constant(z),
        a0: vec![0.0; r],
        p0,
        n_diffuse: 0,
        extra_skips: Vec::new(),
    })
}

/// Solve the discrete Lyapunov equation `P = T P Tᵀ + Q` by vectorisation.
fn stationary_covariance(t: &Mat, q: &Mat) -> Option<Mat> {
    let r = t.rows();
    let n = r * r;
    // A = I − T⊗T (Kronecker), row-major over (i, j) pairs.
    let mut a = Mat::zeros(n, n);
    for i in 0..r {
        for j in 0..r {
            let row = i * r + j;
            for k in 0..r {
                for l in 0..r {
                    let col = k * r + l;
                    let v = -t[(i, k)] * t[(j, l)];
                    a[(row, col)] = if row == col { 1.0 + v } else { v };
                }
            }
        }
    }
    let b: Vec<f64> = (0..r)
        .flat_map(|i| (0..r).map(move |j| (i, j)))
        .map(|(i, j)| q[(i, j)])
        .collect();
    let x = a.solve(&b)?;
    let mut p = Mat::zeros(r, r);
    for i in 0..r {
        for j in 0..r {
            p[(i, j)] = x[i * r + j];
        }
    }
    p.symmetrize();
    // Covariance must be PSD-ish.
    for i in 0..r {
        if p[(i, i)] < -1e-8 {
            return None;
        }
        if p[(i, i)] < 0.0 {
            p[(i, i)] = 0.0;
        }
    }
    Some(p)
}

/// Concentrated negative log-likelihood of a zero-mean ARMA on `w`;
/// returns `(neg_loglik, sigma2_hat)`.
fn arma_neg_loglik(phi: &[f64], theta: &[f64], w: &[f64]) -> Option<(f64, f64)> {
    let ssm = arma_ssm(phi, theta)?;
    let f = kalman_filter(&ssm, w);
    let n = w.len() as f64;
    let mut sum_ln_f = 0.0;
    let mut sum_v2f = 0.0;
    for (v, fv) in f.innovations.iter().zip(&f.innovation_vars) {
        if !fv.is_finite() || *fv <= 0.0 {
            return None;
        }
        sum_ln_f += fv.ln();
        sum_v2f += v * v / fv;
    }
    let sigma2 = (sum_v2f / n).max(1e-300);
    let loglik = -0.5 * (n * (LN_2PI + 1.0 + sigma2.ln()) + sum_ln_f);
    if loglik.is_finite() {
        Some((-loglik, sigma2))
    } else {
        None
    }
}

/// Fitting options (shared Nelder–Mead budget).
#[derive(Clone, Copy, Debug)]
pub struct ArimaFitOptions {
    pub max_evals: usize,
}

impl Default for ArimaFitOptions {
    fn default() -> Self {
        ArimaFitOptions { max_evals: 400 }
    }
}

/// Fit an ARIMA of fixed order by exact maximum likelihood. Returns `None`
/// when the series is too short or the likelihood cannot be evaluated.
pub fn fit_arima(ys: &[f64], order: ArimaOrder, opts: &ArimaFitOptions) -> Option<ArimaFit> {
    let ArimaOrder { p, d, q } = order;
    let w_raw = difference(ys, d);
    let r = p.max(q + 1);
    if w_raw.len() < r + p + q + 3 {
        return None;
    }
    let mean = if d == 0 {
        w_raw.iter().sum::<f64>() / w_raw.len() as f64
    } else {
        0.0
    };
    let w: Vec<f64> = w_raw.iter().map(|x| x - mean).collect();

    let dim = p + q;
    let objective = |x: &[f64]| -> f64 {
        let phi = pacf_to_coeffs(&x[..p]);
        let theta = pacf_to_coeffs(&x[p..]);
        match arma_neg_loglik(&phi, &theta, &w) {
            Some((nll, _)) => nll,
            None => f64::INFINITY,
        }
    };

    let (phi, theta, neg_ll, sigma2) = if dim == 0 {
        let (nll, s2) = arma_neg_loglik(&[], &[], &w)?;
        (Vec::new(), Vec::new(), nll, s2)
    } else {
        let nm = NelderMeadOptions {
            max_evals: opts.max_evals,
            f_tol: 1e-9,
            x_tol: 1e-7,
            initial_step: 0.5,
        };
        let res = nelder_mead(objective, &vec![0.1; dim], &nm);
        if !res.fx.is_finite() {
            return None;
        }
        let phi = pacf_to_coeffs(&res.x[..p]);
        let theta = pacf_to_coeffs(&res.x[p..]);
        let (nll, s2) = arma_neg_loglik(&phi, &theta, &w)?;
        (phi, theta, nll, s2)
    };

    let loglik = -neg_ll;
    let k = p + q + 1 + usize::from(d == 0);
    let aic = -2.0 * loglik + 2.0 * k as f64;
    let n_eff = w.len() as f64;
    let kf = k as f64;
    let aicc = if n_eff - kf - 1.0 > 0.0 {
        aic + 2.0 * kf * (kf + 1.0) / (n_eff - kf - 1.0)
    } else {
        f64::INFINITY
    };
    Some(ArimaFit {
        order,
        phi,
        theta,
        sigma2,
        mean,
        loglik,
        aic,
        aicc,
        n: ys.len(),
    })
}

/// AIC order selection: choose `d` by successive KPSS level-stationarity
/// tests (difference while the test rejects, the auto.arima approach), then
/// grid-search `p, q ∈ 0..=max_pq` by AIC.
pub fn select_arima(ys: &[f64], max_pq: usize, max_d: usize, opts: &ArimaFitOptions) -> ArimaFit {
    // Pick d: smallest differencing degree that passes KPSS.
    let mut d = 0;
    let mut w = ys.to_vec();
    while d < max_d && w.len() >= 8 && mic_stats::tsa::kpss_rejects_stationarity(&w) {
        w = difference(&w, 1);
        d += 1;
    }
    // Grid over (p, q), selected by AICc.
    let mut best: Option<ArimaFit> = None;
    for p in 0..=max_pq {
        for q in 0..=max_pq {
            if let Some(fit) = fit_arima(ys, ArimaOrder { p, d, q }, opts) {
                let better = best.as_ref().is_none_or(|b| fit.aicc < b.aicc);
                if better {
                    best = Some(fit);
                }
            }
        }
    }
    best.expect("at least ARIMA(0,d,0) must fit")
}

impl ArimaFit {
    /// Mean forecasts for `h` steps past the end of `ys` (the same series
    /// the model was fitted on).
    pub fn forecast(&self, ys: &[f64], h: usize) -> Vec<f64> {
        let d = self.order.d;
        let w_raw = difference(ys, d);
        let w: Vec<f64> = w_raw.iter().map(|x| x - self.mean).collect();
        // Filter to the end, then propagate the state mean.
        let ssm = arma_ssm(&self.phi, &self.theta).expect("fitted model must rebuild");
        let mut w_fc = Vec::with_capacity(h);
        let mut alpha = if w.is_empty() {
            vec![0.0; ssm.state_dim()]
        } else {
            let f = kalman_filter(&ssm, &w);
            f.filtered_means.last().expect("non-empty").clone()
        };
        for _ in 0..h {
            alpha = ssm.transition.mul_vec(&alpha);
            w_fc.push(alpha[0] + self.mean);
        }
        // Integrate back d times. Keep the last value of each differencing
        // level to anchor the cumulative sums.
        let mut levels: Vec<f64> = Vec::with_capacity(d);
        let mut cur = ys.to_vec();
        for _ in 0..d {
            levels.push(*cur.last().expect("non-empty series"));
            cur = difference(&cur, 1);
        }
        let mut fc = w_fc;
        for level in levels.iter().rev() {
            let mut acc = *level;
            for v in &mut fc {
                acc += *v;
                *v = acc;
            }
        }
        fc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0);
                x
            })
            .collect()
    }

    #[test]
    fn difference_and_integrate() {
        let ys = [1.0, 3.0, 6.0, 10.0];
        assert_eq!(difference(&ys, 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(difference(&ys, 2), vec![1.0, 1.0]);
        assert_eq!(difference(&ys, 0), ys.to_vec());
    }

    #[test]
    fn pacf_transform_yields_stationary_ar() {
        // Any input must map to a stationary φ; check the AR(1) case is the
        // identity-ish map and that |roots| stay inside the unit circle for
        // AR(2) via the stationarity triangle.
        let phi = pacf_to_coeffs(&[0.5]);
        assert!((phi[0] - 0.5 / (1.25f64).sqrt()).abs() < 1e-12);
        for &z in &[-5.0, -1.0, 0.0, 2.0, 10.0] {
            let phi = pacf_to_coeffs(&[z, -z / 2.0]);
            // AR(2) stationarity triangle: |φ2| < 1, φ2 ± φ1 < 1.
            assert!(phi[1].abs() < 1.0);
            assert!(phi[0] + phi[1] < 1.0 + 1e-12);
            assert!(phi[1] - phi[0] < 1.0 + 1e-12);
        }
    }

    #[test]
    fn stationary_covariance_of_ar1() {
        // AR(1): P = φ²P + σ² ⇒ P = σ²/(1−φ²).
        let phi = 0.6;
        let mut t = Mat::zeros(1, 1);
        t[(0, 0)] = phi;
        let q = Mat::diag(&[1.0]);
        let p = stationary_covariance(&t, &q).unwrap();
        assert!((p[(0, 0)] - 1.0 / (1.0 - phi * phi)).abs() < 1e-10);
    }

    #[test]
    fn fit_recovers_ar1_coefficient() {
        let ys = ar1_series(300, 0.7, 1);
        let fit = fit_arima(
            &ys,
            ArimaOrder { p: 1, d: 0, q: 0 },
            &ArimaFitOptions::default(),
        )
        .expect("fit");
        assert!((fit.phi[0] - 0.7).abs() < 0.1, "φ = {}", fit.phi[0]);
        assert!((fit.sigma2 - 1.0).abs() < 0.3, "σ² = {}", fit.sigma2);
    }

    #[test]
    fn fit_recovers_ma1_coefficient() {
        let mut rng = SmallRng::seed_from_u64(2);
        let theta = 0.5;
        let mut prev_e = 0.0;
        let ys: Vec<f64> = (0..400)
            .map(|_| {
                let e = mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0);
                let y = e + theta * prev_e;
                prev_e = e;
                y
            })
            .collect();
        let fit = fit_arima(
            &ys,
            ArimaOrder { p: 0, d: 0, q: 1 },
            &ArimaFitOptions::default(),
        )
        .expect("fit");
        assert!((fit.theta[0] - 0.5).abs() < 0.12, "θ = {}", fit.theta[0]);
    }

    #[test]
    fn selection_prefers_ar1_on_ar1_data() {
        // φ = 0.8 sits in KPSS's marginal zone at n = 200 (~1/3 of samples
        // reject stationarity), so use a seed whose sample is clearly
        // stationary rather than asserting on a coin-flip draw.
        let ys = ar1_series(200, 0.8, 5);
        let fit = select_arima(&ys, 2, 1, &ArimaFitOptions::default());
        // White noise must lose; some AR structure must be selected.
        assert!(
            fit.order.p >= 1 || fit.order.q >= 1,
            "selected {}",
            fit.order
        );
        assert_eq!(fit.order.d, 0, "AR(1) with φ=0.8 needs no differencing");
    }

    #[test]
    fn selection_differences_a_random_walk() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut x: f64 = 0.0;
        let ys: Vec<f64> = (0..150)
            .map(|_| {
                x += rng.gen_range(-1.0..1.2);
                x
            })
            .collect();
        let fit = select_arima(&ys, 2, 2, &ArimaFitOptions::default());
        assert!(
            fit.order.d >= 1,
            "random walk should be differenced, got {}",
            fit.order
        );
    }

    #[test]
    fn white_noise_selection_behaves_like_white_noise() {
        // AIC(c) may legitimately pick a near-cancelling ARMA(1,1) on a
        // white-noise sample, so assert on behaviour rather than order: no
        // differencing, σ² ≈ 1, and forecasts that collapse to the mean.
        let mut rng = SmallRng::seed_from_u64(5);
        let ys: Vec<f64> = (0..200)
            .map(|_| mic_stats::dist::sample_normal(&mut rng, 3.0, 1.0))
            .collect();
        let fit = select_arima(&ys, 2, 1, &ArimaFitOptions::default());
        assert_eq!(fit.order.d, 0, "white noise must not be differenced");
        assert!((fit.sigma2 - 1.0).abs() < 0.3, "σ² = {}", fit.sigma2);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let fc = fit.forecast(&ys, 12);
        assert!(
            (fc[11] - mean).abs() < 0.4,
            "long-horizon forecast {} should approach the mean {mean}",
            fc[11]
        );
    }

    #[test]
    fn forecast_of_ar1_decays_to_mean() {
        let ys = ar1_series(300, 0.7, 6);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let fit = fit_arima(
            &ys,
            ArimaOrder { p: 1, d: 0, q: 0 },
            &ArimaFitOptions::default(),
        )
        .expect("fit");
        let fc = fit.forecast(&ys, 50);
        assert_eq!(fc.len(), 50);
        // Long-horizon forecast converges to the series mean.
        assert!(
            (fc[49] - mean).abs() < 0.3,
            "fc tail {} vs mean {mean}",
            fc[49]
        );
    }

    #[test]
    fn forecast_of_random_walk_stays_at_last_value() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut x: f64 = 10.0;
        let ys: Vec<f64> = (0..100)
            .map(|_| {
                x += rng.gen_range(-1.0..1.0);
                x
            })
            .collect();
        let fit = fit_arima(
            &ys,
            ArimaOrder { p: 0, d: 1, q: 0 },
            &ArimaFitOptions::default(),
        )
        .expect("fit");
        let fc = fit.forecast(&ys, 10);
        let last = *ys.last().unwrap();
        for f in &fc {
            assert!(
                (f - last).abs() < 1e-6,
                "random-walk forecast should be flat at {last}, got {f}"
            );
        }
    }

    #[test]
    fn too_short_series_returns_none() {
        assert!(fit_arima(
            &[1.0, 2.0],
            ArimaOrder { p: 2, d: 1, q: 2 },
            &ArimaFitOptions::default()
        )
        .is_none());
    }

    #[test]
    fn order_display() {
        assert_eq!(ArimaOrder { p: 2, d: 1, q: 0 }.to_string(), "ARIMA(2,1,0)");
    }
}
