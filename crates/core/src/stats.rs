//! Summary statistics and Welch's t-test (the paper's Fig. 8 pairwise
//! comparison).
//!
//! The special functions (log-gamma, regularized incomplete beta) are
//! implemented in-repo: Lanczos approximation for `ln Γ` and the
//! Lentz continued fraction for `I_x(a, b)`.

/// Min / mean / max / standard deviation summary (Table 7 row format).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Sample mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Unbiased standard deviation.
    pub sd: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarize a sample. Empty input yields NaNs with `n = 0`.
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary { min: f64::NAN, mean: f64::NAN, max: f64::NAN, sd: f64::NAN, n: 0 };
    }
    let mean = pbo_linalg::vec_ops::mean(xs);
    let sd = pbo_linalg::vec_ops::variance(xs).sqrt();
    Summary {
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        mean,
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        sd,
        n: xs.len(),
    }
}

/// `ln Γ(x)` by the Lanczos approximation (|ε| < 2e-10 for x > 0).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    let mut yy = y;
    for c in COEF {
        yy += 1.0;
        ser += c / yy;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction (Numerical Recipes `betai`/`betacf`).
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
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
    for m in 1..200 {
        let m = m as f64;
        let m2 = 2.0 * m;
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
        if (del - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// Two-sided p-value of Student's t statistic with `nu` degrees of
/// freedom: `P(|T| > |t|) = I_{nu/(nu+t²)}(nu/2, 1/2)`.
pub fn t_sf_two_sided(t: f64, nu: f64) -> f64 {
    if !t.is_finite() || nu <= 0.0 {
        return f64::NAN;
    }
    beta_inc(0.5 * nu, 0.5, nu / (nu + t * t)).clamp(0.0, 1.0)
}

/// Welch's unequal-variance t-test. Returns `(t, dof, p_two_sided)`.
/// Degenerate inputs (all-equal samples) return `p = 1` when the means
/// coincide and `p = 0` otherwise.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert!(a.len() >= 2 && b.len() >= 2, "need at least two samples per group");
    let (ma, mb) = (pbo_linalg::vec_ops::mean(a), pbo_linalg::vec_ops::mean(b));
    let (va, vb) = (pbo_linalg::vec_ops::variance(a), pbo_linalg::vec_ops::variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        let p = if (ma - mb).abs() < 1e-300 { 1.0 } else { 0.0 };
        return (if p == 1.0 { 0.0 } else { f64::INFINITY }, na + nb - 2.0, p);
    }
    let t = (ma - mb) / se2.sqrt();
    let dof =
        se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0)).max(1e-300);
    (t, dof, t_sf_two_sided(t, dof))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.sd - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-9);
        assert!(ln_gamma(2.0).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-9);
    }

    #[test]
    fn beta_inc_endpoints_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.7, 1.3, 0.6), (4.0, 4.0, 0.5)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "({a},{b},{x})");
        }
        // I_0.5(a,a) = 0.5.
        assert!((beta_inc(3.0, 3.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t_distribution_reference_values() {
        // With nu = 10: P(|T| > 2.228) ≈ 0.05 (classic t-table value).
        let p = t_sf_two_sided(2.228, 10.0);
        assert!((p - 0.05).abs() < 2e-3, "p = {p}");
        // t = 0 → p = 1.
        assert!((t_sf_two_sided(0.0, 7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn welch_detects_separated_samples() {
        let a = [10.0, 10.5, 9.8, 10.2, 9.9, 10.1];
        let b = [12.0, 12.5, 11.8, 12.2, 11.9, 12.1];
        let (t, _, p) = welch_t_test(&a, &b);
        assert!(t < 0.0);
        assert!(p < 1e-6, "p = {p}");
    }

    #[test]
    fn welch_same_distribution_large_p() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.1, 2.1, 2.9, 4.1, 4.8];
        let (_, _, p) = welch_t_test(&a, &b);
        assert!(p > 0.5, "p = {p}");
    }

    #[test]
    fn welch_degenerate_equal_constant_samples() {
        let a = [3.0, 3.0, 3.0];
        let b = [3.0, 3.0, 3.0];
        let (_, _, p) = welch_t_test(&a, &b);
        assert_eq!(p, 1.0);
        let c = [4.0, 4.0, 4.0];
        let (_, _, p2) = welch_t_test(&a, &c);
        assert_eq!(p2, 0.0);
    }
}
