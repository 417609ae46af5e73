//! Special functions: log-gamma, regularised incomplete beta, and the error
//! function. These underpin the Student-t CDF used by the paired t-tests in
//! the paper's Tables III and IV.

/// Natural log of the gamma function, via the Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~15 significant digits for `x > 0`.
///
/// # Panics
/// Panics if `x <= 0` (the reflection branch is not needed by this crate).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, kept at their published precision.
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularised incomplete beta function `I_x(a, b)`, computed with the
/// continued-fraction expansion (Numerical Recipes `betacf`), using the
/// symmetry relation to stay in the rapidly-converging region.
///
/// Returns values clamped to `[0, 1]`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a, b > 0");
    assert!(
        (0.0..=1.0).contains(&x),
        "beta_inc requires x in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    let result = if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cont_frac(a, b, x) / a
    } else {
        1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b
    };
    result.clamp(0.0, 1.0)
}

/// Modified Lentz continued fraction for the incomplete beta.
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function `erf(x)`, via Abramowitz & Stegun 7.1.26-style rational
/// approximation refined with one extra term; absolute error < 1.2e-7, which
/// is sufficient for normal-CDF use in sampling diagnostics.
pub fn erf(x: f64) -> f64 {
    // Use the relation to the incomplete gamma via a high-accuracy series /
    // continued fraction split at |x| = 2 for ~1e-14 accuracy.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x == 0.0 {
        return 0.0;
    }
    if x > 6.0 {
        return sign;
    }
    let val = if x < 4.0 {
        // Taylor series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n!(2n+1)).
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        for n in 1..200 {
            let n = n as f64;
            term *= -x2 / n;
            let add = term / (2.0 * n + 1.0);
            sum += add;
            if add.abs() < 1e-17 * sum.abs() {
                break;
            }
        }
        sum * 2.0 / std::f64::consts::PI.sqrt()
    } else {
        // Continued fraction for erfc (Lentz); rapidly convergent for x ≥ 4.
        1.0 - erfc_cf(x)
    };
    sign * val
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x < 4.0 {
        1.0 - erf(x)
    } else {
        erfc_cf(x)
    }
}

/// Continued-fraction erfc for x >= 2 (Lentz).
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))
    // Evaluate the equivalent CF: erfc(x) = exp(-x^2)/(x*sqrt(pi)) * F where
    // F = 1/(1 + a1/(1 + a2/(1 + ...))), a_n = n/(2x^2).
    let x2 = x * x;
    const TINY: f64 = 1e-300;
    let mut c: f64 = 1.0;
    let mut d: f64 = 1.0;
    let mut h: f64 = 1.0;
    for n in 1..300 {
        let a = n as f64 / (2.0 * x2);
        d = 1.0 + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = c * d;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x2).exp() / (x * std::f64::consts::PI.sqrt()) * h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-12);
        assert_close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi).
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Gamma(3/2) = sqrt(pi)/2.
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn beta_inc_boundaries() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert_close(beta_inc(1.0, 1.0, x), x, 1e-12);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 3.0, 0.42)] {
            assert_close(beta_inc(a, b, x), 1.0 - beta_inc(b, a, 1.0 - x), 1e-12);
        }
    }

    #[test]
    fn beta_inc_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.5}(0.5, 0.5) = 0.5.
        assert_close(beta_inc(2.0, 2.0, 0.5), 0.5, 1e-12);
        assert_close(beta_inc(0.5, 0.5, 0.5), 0.5, 1e-12);
        // I_{0.25}(2, 2) = 3x^2 - 2x^3 at 0.25 = 0.15625.
        assert_close(beta_inc(2.0, 2.0, 0.25), 0.15625, 1e-12);
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-15);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
        assert_close(erf(3.0), 0.999_977_909_503_001_4, 1e-10);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-3.0, -1.0, 0.0, 0.5, 1.5, 2.5, 4.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-12);
        }
    }
}
