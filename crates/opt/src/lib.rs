#![allow(clippy::needless_range_loop)]

//! # pbo-opt — box-constrained inner optimizers
//!
//! The "inner optimization" layer of Bayesian optimization: maximizing
//! acquisition functions and the GP marginal likelihood. Both are smooth
//! box-constrained problems, solved in the paper with multi-start
//! L-BFGS-B (BoTorch's `optimize_acqf`); we provide:
//!
//! - [`lbfgs`]: projected-gradient L-BFGS with box bounds and an Armijo
//!   backtracking line search along the projected path,
//! - [`multistart`]: the restart driver seeding locals from Sobol points
//!   plus caller-supplied warm starts.
//!
//! Convention: **everything minimizes**. Callers maximizing an
//! acquisition wrap it in a negation.

pub mod lbfgs;
pub mod multistart;

/// A box-constrained domain `[lo_i, hi_i]^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Bounds {
    /// Construct from per-dimension bounds. Panics if `lo_i > hi_i` or
    /// lengths differ.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bounds length mismatch");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "inverted bound: [{l}, {h}]");
        }
        Bounds { lo, hi }
    }

    /// The same interval in every dimension.
    pub fn cube(dim: usize, lo: f64, hi: f64) -> Self {
        Bounds::new(vec![lo; dim], vec![hi; dim])
    }

    /// The unit cube.
    pub fn unit(dim: usize) -> Self {
        Bounds::cube(dim, 0.0, 1.0)
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Project a point into the box in place.
    pub fn clamp(&self, x: &mut [f64]) {
        for i in 0..x.len() {
            x[i] = x[i].clamp(self.lo[i], self.hi[i]);
        }
    }

    /// True if `x` lies inside (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter().zip(self.lo.iter().zip(&self.hi)).all(|(v, (l, h))| *v >= *l && *v <= *h)
    }

    /// Side lengths.
    pub fn widths(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| 0.5 * (l + h)).collect()
    }

    /// Intersect with another box (used by trust regions and BSP cells).
    /// Collapsed dimensions produce degenerate `[v, v]` intervals rather
    /// than inverted ones.
    pub fn intersect(&self, other: &Bounds) -> Bounds {
        assert_eq!(self.dim(), other.dim());
        let lo: Vec<f64> = self.lo.iter().zip(&other.lo).map(|(a, b)| a.max(*b)).collect();
        let hi: Vec<f64> =
            self.hi.iter().zip(&other.hi).zip(&lo).map(|((a, b), l)| a.min(*b).max(*l)).collect();
        Bounds::new(lo, hi)
    }

    /// Map a unit-cube point into this box.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        let mut x = u.to_vec();
        pbo_sampling::scale_to_box(&mut x, &self.lo, &self.hi);
        x
    }
}

/// Objective value with gradient.
pub trait GradObjective {
    /// Dimension of the search space.
    fn dim(&self) -> usize;
    /// Objective value at `x`.
    fn value(&self, x: &[f64]) -> f64;
    /// Value and gradient at `x`.
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>);
}

/// A [`GradObjective`] that can also score a whole block of candidates
/// in one call and be shared across scoped threads.
///
/// The multistart driver uses `value_batch` for its raw-Sobol scoring
/// phase — acquisition objectives implement it with one batched GP
/// prediction (`predict_many`) instead of `raw_samples` single-point
/// posterior solves — and relies on `Sync` to fan raw scoring and
/// per-start polishing out over `pbo_linalg::parallel` scoped threads.
///
/// The default implementation scores point by point, so any `Sync`
/// gradient objective is a valid (if unbatched) `BatchObjective`.
pub trait BatchObjective: GradObjective + Sync {
    /// Score `xs` (row-major, `xs.len() / dim()` points) into `out`,
    /// one value per point. Must agree with [`GradObjective::value`] up
    /// to batched-summation rounding (a few ulps).
    fn value_batch(&self, xs: &[f64], out: &mut [f64]) {
        let d = self.dim().max(1);
        debug_assert_eq!(xs.len() % d, 0);
        debug_assert_eq!(out.len(), xs.len() / d);
        for (x, o) in xs.chunks_exact(d).zip(out.iter_mut()) {
            *o = self.value(x);
        }
    }
}

impl<V, G> BatchObjective for FnGradObjective<V, G>
where
    V: Fn(&[f64]) -> f64 + Sync,
    G: Fn(&[f64]) -> (f64, Vec<f64>) + Sync,
{
}

/// Wrap a pair of closures as a [`GradObjective`].
pub struct FnGradObjective<V, G> {
    dim: usize,
    value: V,
    value_grad: G,
}

impl<V, G> FnGradObjective<V, G>
where
    V: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> (f64, Vec<f64>),
{
    /// Build from `dim`, a value closure and a value+gradient closure.
    pub fn new(dim: usize, value: V, value_grad: G) -> Self {
        FnGradObjective { dim, value, value_grad }
    }
}

impl<V, G> GradObjective for FnGradObjective<V, G>
where
    V: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> (f64, Vec<f64>),
{
    fn dim(&self) -> usize {
        self.dim
    }
    fn value(&self, x: &[f64]) -> f64 {
        (self.value)(x)
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.value_grad)(x)
    }
}

/// Central finite-difference gradient; the test harness uses it to
/// validate analytic gradients (GP marginal likelihood, acquisition
/// functions).
pub fn fd_gradient(f: impl Fn(&[f64]) -> f64, x: &[f64], h: f64) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        g[i] = (fp - fm) / (2.0 * h);
    }
    g
}

/// Result of a local or multistart optimization.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Objective/gradient evaluations spent.
    pub evals: usize,
    /// Iterations of the outer loop.
    pub iters: usize,
    /// True if a convergence test triggered (vs budget exhaustion).
    pub converged: bool,
    /// Restart starvation reported by the multistart drivers: how many of
    /// the requested raw-sample restarts could not be filled with
    /// finite-scoring candidates even after Sobol backfill (0 for local
    /// optimizers and for healthy multistarts).
    pub restart_shortfall: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_basics() {
        let b = Bounds::cube(3, -1.0, 2.0);
        assert_eq!(b.dim(), 3);
        assert!(b.contains(&[0.0, -1.0, 2.0]));
        assert!(!b.contains(&[0.0, -1.1, 0.0]));
        assert_eq!(b.center(), vec![0.5; 3]);
        assert_eq!(b.widths(), vec![3.0; 3]);
    }

    #[test]
    fn bounds_clamp() {
        let b = Bounds::cube(2, 0.0, 1.0);
        let mut x = [-5.0, 0.7];
        b.clamp(&mut x);
        assert_eq!(x, [0.0, 0.7]);
    }

    #[test]
    fn intersect_handles_disjoint() {
        let a = Bounds::cube(1, 0.0, 1.0);
        let b = Bounds::cube(1, 2.0, 3.0);
        let c = a.intersect(&b);
        // Degenerate but not inverted.
        assert!(c.lo()[0] <= c.hi()[0]);
    }

    #[test]
    #[should_panic(expected = "inverted bound")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn fd_gradient_of_quadratic() {
        let g = fd_gradient(|x| x[0] * x[0] + 3.0 * x[1], &[2.0, 5.0], 1e-6);
        assert!((g[0] - 4.0).abs() < 1e-6);
        assert!((g[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn from_unit_maps_corners() {
        let b = Bounds::new(vec![-2.0, 0.0], vec![2.0, 10.0]);
        assert_eq!(b.from_unit(&[0.0, 1.0]), vec![-2.0, 10.0]);
    }
}
