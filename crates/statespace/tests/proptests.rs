//! Property-based tests for the state-space machinery.

use mic_statespace::arima::{difference, fit_arima, ArimaFitOptions, ArimaOrder};
use mic_statespace::estimate::{fit_structural, FitOptions};
use mic_statespace::kalman::{kalman_filter, kalman_loglik, FilterWorkspace};
use mic_statespace::model::{ObsLoading, Ssm};
use mic_statespace::smoother::smooth;
use mic_statespace::structural::{InterventionSpec, StructuralParams, StructuralSpec};
use mic_stats::Mat;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fast_fit() -> FitOptions {
    FitOptions {
        max_evals: 120,
        n_starts: 1,
    }
}

fn gen_series(seed: u64, n: usize, slope_cp: Option<usize>) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let w = slope_cp.map_or(0.0, |cp| if t >= cp { (t - cp + 1) as f64 } else { 0.0 });
            15.0 + 0.8 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn filter_loglik_is_finite_for_positive_variances(
        seed in 0u64..200,
        var_eps in 0.01..10.0f64,
        var_level in 0.0001..5.0f64,
    ) {
        let ys = gen_series(seed, 30, None);
        let spec = StructuralSpec::local_level();
        let params = StructuralParams { var_eps, var_level, var_seasonal: 0.0 };
        let ssm = spec.build(&params, ys.len());
        let f = kalman_filter(&ssm, &ys);
        prop_assert!(f.loglik.is_finite());
        prop_assert_eq!(f.innovations.len(), ys.len());
        for v in &f.innovation_vars {
            prop_assert!(*v > 0.0);
        }
    }

    #[test]
    fn smoother_never_increases_variance(seed in 0u64..100) {
        let ys = gen_series(seed, 25, None);
        let spec = StructuralSpec::local_level();
        let params = StructuralParams { var_eps: 1.0, var_level: 0.2, var_seasonal: 0.0 };
        let ssm = spec.build(&params, ys.len());
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        for t in 0..ys.len() {
            prop_assert!(s.covs[t][(0, 0)] <= f.filtered_covs[t][(0, 0)] + 1e-6);
        }
    }

    #[test]
    fn fitted_aic_beats_or_matches_unfitted(seed in 0u64..60) {
        // The MLE must achieve at least the likelihood of an arbitrary
        // parameter guess.
        let ys = gen_series(seed, 35, None);
        let spec = StructuralSpec::local_level();
        let fit = fit_structural(&ys, spec, &fast_fit());
        let guess = StructuralParams { var_eps: 1.0, var_level: 1.0, var_seasonal: 0.0 };
        let ssm = spec.build(&guess, ys.len());
        let guess_ll = kalman_filter(&ssm, &ys).loglik;
        prop_assert!(fit.loglik >= guess_ll - 1e-6,
            "MLE loglik {} below guess {}", fit.loglik, guess_ll);
    }

    #[test]
    fn decomposition_always_reconstructs(seed in 0u64..60, cp in 5usize..30) {
        let ys = gen_series(seed, 36, Some(cp));
        let spec = StructuralSpec::with_intervention(cp);
        let fit = fit_structural(&ys, spec, &fast_fit());
        let c = fit.decompose(&ys);
        for (t, &y) in ys.iter().enumerate() {
            let sum = c.level[t] + c.seasonal[t] + c.intervention[t] + c.irregular[t];
            prop_assert!((sum - y).abs() < 1e-6);
        }
    }

    #[test]
    fn forecasts_are_finite(seed in 0u64..60, h in 1usize..15) {
        let ys = gen_series(seed, 36, None);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &fast_fit());
        let fc = fit.forecast(&ys, h);
        prop_assert_eq!(fc.len(), h);
        for v in &fc {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn difference_then_cumsum_round_trip(
        xs in prop::collection::vec(-100.0..100.0f64, 2..40),
    ) {
        let d1 = difference(&xs, 1);
        // Reconstruct from first value + cumulative sum.
        let mut acc = xs[0];
        let mut rebuilt = vec![acc];
        for v in &d1 {
            acc += v;
            rebuilt.push(acc);
        }
        prop_assert_eq!(rebuilt.len(), xs.len());
        for (a, b) in rebuilt.iter().zip(&xs) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn arima_fit_is_deterministic(seed in 0u64..30) {
        let ys = gen_series(seed, 60, None);
        let opts = ArimaFitOptions { max_evals: 150 };
        let a = fit_arima(&ys, ArimaOrder { p: 1, d: 0, q: 0 }, &opts);
        let b = fit_arima(&ys, ArimaOrder { p: 1, d: 0, q: 0 }, &opts);
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.phi, b.phi);
                prop_assert_eq!(a.loglik, b.loglik);
            }
            (None, None) => {}
            _ => prop_assert!(false, "nondeterministic fit success"),
        }
    }

    #[test]
    fn arima_coefficients_always_stationary(seed in 0u64..30, p in 1usize..4, q in 0usize..3) {
        let ys = gen_series(seed, 80, None);
        let opts = ArimaFitOptions { max_evals: 150 };
        if let Some(fit) = fit_arima(&ys, ArimaOrder { p, d: 0, q }, &opts) {
            // Check the AR polynomial's companion-matrix spectral radius via
            // power iteration on the Harvey transition (stationarity ⇒ the
            // stationary covariance solve succeeded during fitting, so here
            // we just sanity-check coefficient magnitudes).
            let sum_abs: f64 = fit.phi.iter().map(|c| c.abs()).sum();
            prop_assert!(sum_abs < (p as f64) + 1.0);
            prop_assert!(fit.sigma2 > 0.0);
            prop_assert!(fit.loglik.is_finite());
        }
    }

    #[test]
    fn intervention_w_dummy_monotone(cp in 0usize..40) {
        let spec = InterventionSpec::SlopeShift { change_point: cp };
        let mut prev = -1.0;
        for t in 0..45 {
            let w = spec.w(t);
            prop_assert!(w >= prev);
            prev = w;
            if t < cp {
                prop_assert_eq!(w, 0.0);
            }
        }
    }
}

proptest! {
    // The likelihood kernel is cheap to check; run many more cases than the
    // fitting properties above.
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fast_loglik_matches_filter_loglik(
        seed in 0u64..200,
        var_eps in 0.01..10.0f64,
        var_level in 0.0001..5.0f64,
        var_seasonal in 0.0..1.0f64,
        zero_seasonal in 0usize..4,
        spec_kind in 0usize..4,
        n in 16usize..60,
        skip_shift in 0usize..5,
        skip_seed in 0u64..1000,
    ) {
        // The likelihood kernel's contract is bit identity with the full
        // filter on every spec shape, including a zero seasonal variance,
        // any leading skip and arbitrary extra skipped innovations.
        let ys = gen_series(seed, n, None);
        let var_seasonal = if zero_seasonal == 0 { 0.0 } else { var_seasonal };
        let params = StructuralParams { var_eps, var_level, var_seasonal };
        let mut ssm = match spec_kind {
            0 => StructuralSpec::local_level().build(&params, n),
            1 => StructuralSpec::with_seasonal().build(&params, n),
            2 => StructuralSpec::with_intervention(n / 2).build(&params, n),
            _ => StructuralSpec::full(n / 3).build(&params, n),
        };
        let mut rng = SmallRng::seed_from_u64(skip_seed);
        ssm.n_diffuse = (ssm.state_dim() + skip_shift).saturating_sub(2);
        ssm.extra_skips = (0..n).filter(|_| rng.gen_bool(0.1)).collect();
        let full = kalman_filter(&ssm, &ys).loglik;
        let mut ws = FilterWorkspace::default();
        let fast = kalman_loglik(&ssm, &ys, &mut ws);
        prop_assert_eq!(full.to_bits(), fast.to_bits(), "full {} vs fast {}", full, fast);
        // A dirty, previously-used workspace must not change the answer.
        let again = kalman_loglik(&ssm, &ys, &mut ws);
        prop_assert_eq!(fast.to_bits(), again.to_bits());
    }

    #[test]
    fn fast_loglik_matches_filter_on_random_transitions(
        seed in 0u64..100_000,
        m in 1usize..17,
        n in 1usize..40,
    ) {
        // No structural model has two general (non-unit) transition rows,
        // so random models drive the general × general branch: each row is
        // a unit row, a sparse row or a dense row; Q is symmetric with an
        // off-diagonal term; Z_t is sparse and time-varying; P0 may be
        // asymmetric.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut u = |lo: f64, hi: f64| rng.gen_range(lo..hi);
        let mut transition = Mat::zeros(m, m);
        for i in 0..m {
            match u(0.0, 3.0) as usize {
                0 => transition[(i, u(0.0, m as f64) as usize)] = 1.0,
                kind => {
                    // 1: sparse row, 2: dense row.
                    for j in 0..m {
                        if kind == 2 || u(0.0, 1.0) < 0.4 {
                            transition[(i, j)] = u(-0.8, 0.8);
                        }
                    }
                }
            }
        }
        let mut state_cov = Mat::diag(&(0..m).map(|_| u(0.0, 2.0)).collect::<Vec<_>>());
        if m >= 2 {
            let (a, b) = (0, m - 1);
            let c = u(-0.2, 0.2);
            state_cov[(a, b)] = c;
            state_cov[(b, a)] = c;
        }
        let zs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| if u(0.0, 1.0) < 0.5 { 0.0 } else { u(-2.0, 2.0) }).collect())
            .collect();
        let mut p0 = Mat::diag(&(0..m).map(|_| u(0.5, 100.0)).collect::<Vec<_>>());
        if u(0.0, 1.0) < 0.5 {
            for i in 0..m {
                for j in 0..m {
                    if i != j {
                        p0[(i, j)] = u(-0.3, 0.3);
                    }
                }
            }
        }
        let ssm = Ssm {
            transition,
            state_cov,
            obs_var: u(0.0, 3.0),
            loading: ObsLoading::TimeVarying(zs),
            a0: (0..m).map(|_| u(-5.0, 5.0)).collect(),
            p0,
            n_diffuse: u(0.0, 3.0) as usize,
            extra_skips: (0..n).filter(|_| u(0.0, 1.0) < 0.1).collect(),
        };
        let ys: Vec<f64> = (0..n).map(|_| u(-10.0, 10.0)).collect();
        let full = kalman_filter(&ssm, &ys).loglik;
        let fast = kalman_loglik(&ssm, &ys, &mut FilterWorkspace::default());
        prop_assert_eq!(full.to_bits(), fast.to_bits(), "full {} vs fast {}", full, fast);
    }
}
