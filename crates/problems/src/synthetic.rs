//! The Table-1 benchmark functions (plus extensions).
//!
//! All follow the paper's setup: 12 decision variables, minimization,
//! domains from Table 1. Known minima are 0 for all three paper
//! functions (Schwefel uses the paper's shifted constant).

use crate::Problem;

/// Which benchmark function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    /// Valley: `Σ 100(x_i² − x_{i+1})² + (x_i − 1)²`, domain [−5,10]^d.
    Rosenbrock,
    /// Exponential well with ripple, domain [−5,10]^d (paper's domain).
    Ackley,
    /// Highly multimodal: `418.9829 d − Σ x_i sin(√|x_i|)`, [−500,500]^d.
    Schwefel,
    /// `10d + Σ x_i² − 10 cos(2π x_i)`, domain [−5.12, 5.12]^d.
    Rastrigin,
    /// `1 + Σ x_i²/4000 − Π cos(x_i/√i)`, domain [−600, 600]^d.
    Griewank,
    /// Levy function, domain [−10, 10]^d.
    Levy,
}

/// A benchmark instance: kind + dimension + cached bounds.
#[derive(Debug, Clone)]
pub struct SyntheticFn {
    kind: SyntheticKind,
    name: String,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl SyntheticFn {
    /// Build with the function's standard domain.
    pub fn new(kind: SyntheticKind, dim: usize) -> Self {
        assert!(dim >= 2, "benchmarks need dim >= 2");
        let (lo, hi) = match kind {
            SyntheticKind::Rosenbrock | SyntheticKind::Ackley => (-5.0, 10.0),
            SyntheticKind::Schwefel => (-500.0, 500.0),
            SyntheticKind::Rastrigin => (-5.12, 5.12),
            SyntheticKind::Griewank => (-600.0, 600.0),
            SyntheticKind::Levy => (-10.0, 10.0),
        };
        let name = format!("{:?}-{dim}d", kind).to_lowercase();
        SyntheticFn { kind, name, lower: vec![lo; dim], upper: vec![hi; dim] }
    }

    /// Paper instance: 12-dimensional Rosenbrock.
    pub fn rosenbrock(dim: usize) -> Self {
        Self::new(SyntheticKind::Rosenbrock, dim)
    }

    /// Paper instance: 12-dimensional Ackley.
    pub fn ackley(dim: usize) -> Self {
        Self::new(SyntheticKind::Ackley, dim)
    }

    /// Paper instance: 12-dimensional Schwefel.
    pub fn schwefel(dim: usize) -> Self {
        Self::new(SyntheticKind::Schwefel, dim)
    }

    /// The kind of this instance.
    pub fn kind(&self) -> SyntheticKind {
        self.kind
    }

    /// The three paper benchmarks at the paper's dimension (12).
    pub fn paper_suite() -> Vec<SyntheticFn> {
        vec![Self::rosenbrock(12), Self::ackley(12), Self::schwefel(12)]
    }

    /// Location of the global minimum (for tests).
    pub fn minimizer(&self) -> Vec<f64> {
        let d = self.dim();
        match self.kind {
            SyntheticKind::Rosenbrock | SyntheticKind::Levy => vec![1.0; d],
            SyntheticKind::Ackley | SyntheticKind::Rastrigin | SyntheticKind::Griewank => {
                vec![0.0; d]
            }
            SyntheticKind::Schwefel => vec![420.9687462275036; d],
        }
    }
}

impl Problem for SyntheticFn {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.lower.len()
    }
    fn lower(&self) -> &[f64] {
        &self.lower
    }
    fn upper(&self) -> &[f64] {
        &self.upper
    }
    fn optimum(&self) -> Option<f64> {
        Some(0.0)
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let d = x.len();
        match self.kind {
            SyntheticKind::Rosenbrock => (0..d - 1)
                .map(|i| 100.0 * (x[i] * x[i] - x[i + 1]).powi(2) + (x[i] - 1.0).powi(2))
                .sum(),
            SyntheticKind::Ackley => {
                let nd = d as f64;
                let s1: f64 = x.iter().map(|v| v * v).sum::<f64>() / nd;
                let s2: f64 =
                    x.iter().map(|v| (2.0 * std::f64::consts::PI * v).cos()).sum::<f64>() / nd;
                -20.0 * (-0.2 * s1.sqrt()).exp() - s2.exp() + 20.0 + std::f64::consts::E
            }
            SyntheticKind::Schwefel => {
                418.982_887_272_433_8 * d as f64
                    - x.iter().map(|v| v * v.abs().sqrt().sin()).sum::<f64>()
            }
            SyntheticKind::Rastrigin => {
                10.0 * d as f64
                    + x.iter()
                        .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                        .sum::<f64>()
            }
            SyntheticKind::Griewank => {
                1.0 + x.iter().map(|v| v * v).sum::<f64>() / 4000.0
                    - x.iter()
                        .enumerate()
                        .map(|(i, v)| (v / ((i + 1) as f64).sqrt()).cos())
                        .product::<f64>()
            }
            SyntheticKind::Levy => {
                let w = |v: f64| 1.0 + (v - 1.0) / 4.0;
                let pi = std::f64::consts::PI;
                let w1 = w(x[0]);
                let mut s = (pi * w1).sin().powi(2);
                for i in 0..d - 1 {
                    let wi = w(x[i]);
                    s += (wi - 1.0).powi(2) * (1.0 + 10.0 * (pi * wi + 1.0).sin().powi(2));
                }
                let wd = w(x[d - 1]);
                s + (wd - 1.0).powi(2) * (1.0 + (2.0 * pi * wd).sin().powi(2))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minima_are_zero_at_minimizers() {
        for kind in [
            SyntheticKind::Rosenbrock,
            SyntheticKind::Ackley,
            SyntheticKind::Schwefel,
            SyntheticKind::Rastrigin,
            SyntheticKind::Griewank,
            SyntheticKind::Levy,
        ] {
            let f = SyntheticFn::new(kind, 12);
            let v = f.eval(&f.minimizer());
            assert!(v.abs() < 1e-3, "{:?}: f(x*) = {v}", kind);
        }
    }

    #[test]
    fn values_positive_away_from_optimum() {
        for f in SyntheticFn::paper_suite() {
            let mid: Vec<f64> =
                f.lower().iter().zip(f.upper()).map(|(l, u)| 0.37 * l + 0.63 * u).collect();
            assert!(f.eval(&mid) > 0.1, "{} at midpointish", f.name());
        }
    }

    #[test]
    fn table1_domains() {
        let r = SyntheticFn::rosenbrock(12);
        assert_eq!(r.lower()[0], -5.0);
        assert_eq!(r.upper()[0], 10.0);
        let a = SyntheticFn::ackley(12);
        assert_eq!(a.lower()[0], -5.0);
        assert_eq!(a.upper()[0], 10.0);
        let s = SyntheticFn::schwefel(12);
        assert_eq!(s.lower()[0], -500.0);
        assert_eq!(s.upper()[0], 500.0);
        for f in SyntheticFn::paper_suite() {
            assert_eq!(f.dim(), 12);
            assert_eq!(f.optimum(), Some(0.0));
        }
    }

    #[test]
    fn rosenbrock_known_value() {
        // f(0, 0) in 2-D = 1; in 12-D with all zeros = 11 * 1 = 11.
        let f = SyntheticFn::rosenbrock(12);
        assert!((f.eval(&[0.0; 12]) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn ackley_known_value() {
        // At x = (1, 1, ..., 1): s1 = 1, cos term = 1
        let f = SyntheticFn::ackley(12);
        let expect = -20.0 * (-0.2f64).exp() - 1.0f64.exp() + 20.0 + std::f64::consts::E;
        assert!((f.eval(&[1.0; 12]) - expect).abs() < 1e-12);
    }

    #[test]
    fn schwefel_multimodality() {
        // The deceptive second-best basin near −302.5 has a value well
        // above 0 but far below the domain average.
        let f = SyntheticFn::schwefel(2);
        let second = f.eval(&[-302.5249, 420.9687]);
        assert!(second > 50.0 && second < 500.0, "{second}");
    }
}
