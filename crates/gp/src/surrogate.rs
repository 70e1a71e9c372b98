//! Backend-agnostic surrogate abstraction.
//!
//! The BO engine and the acquisition layer historically hard-wired the
//! dense [`GaussianProcess`]. This module introduces:
//!
//! - [`Surrogate`] — the object-safe read-side contract every posterior
//!   consumer needs (pointwise/batched prediction, the zero-allocation
//!   workspace path of the acquisition gradient, joint posteriors, and
//!   the covariance-solve operator the reference gradient builds on),
//! - [`FantasySurrogate`] — the in-place append of the sequential
//!   fantasy loops (Kriging Believer, multi-infill), which clone the
//!   engine's model once per batch and append each fantasy into it,
//! - [`SurrogateModel`] — the enum the engine stores, dispatching to
//!   the exact dense backend or the sparse inducing-point backend in
//!   [`crate::sparse`].
//!
//! Contract notes:
//!
//! - [`Surrogate::support_x`] is the matrix cross-covariances are
//!   evaluated against — the full training set for the dense backend,
//!   the inducing set for the sparse one. [`Surrogate::weights`] and
//!   [`Surrogate::trend_std`] are defined so the standardized posterior
//!   mean is always `trend + k(support, x)·weights`, which keeps the
//!   acquisition gradient recipes backend-generic.
//! - The `cov_solve_*` methods apply the backend's posterior operator
//!   `A`, defined by `var(x) = prior − k(support,x)ᵀ A k(support,x)`:
//!   `K_y⁻¹` for the dense backend, `L⁻ᵀ(I − B⁻¹)L⁻¹` for the sparse
//!   one (see [`crate::sparse`] for the algebra). Both are symmetric
//!   positive semidefinite, which is all the q-EI covariance assembly
//!   and the posterior-gradient chain rule rely on.

use crate::gp::{GaussianProcess, PredictWorkspace};
use crate::kernel::Kernel;
use crate::sparse::SparseGaussianProcess;
use crate::Result;
use pbo_linalg::Matrix;

/// Read-side posterior contract shared by the dense and sparse GP
/// backends. Object safe: the acquisition layer takes `&dyn Surrogate`.
pub trait Surrogate: Send + Sync {
    /// Number of observations the model has absorbed.
    fn n(&self) -> usize;
    /// Input dimension.
    fn dim(&self) -> usize;
    /// The kernel in use.
    fn kernel(&self) -> &Kernel;
    /// Homoskedastic noise variance (standardized scale).
    fn noise(&self) -> f64;
    /// The support set: the rows cross-covariances (and the
    /// acquisition gradient's `∂k/∂x` terms) are evaluated against.
    fn support_x(&self) -> &Matrix;
    /// Posterior-mean weights over the support set.
    fn weights(&self) -> &[f64];
    /// Profiled constant trend (standardized scale).
    fn trend_std(&self) -> f64;
    /// Target standardization `(shift, scale)`.
    fn standardization(&self) -> (f64, f64);
    /// Posterior mean and latent variance at one point, raw scale.
    fn predict(&self, p: &[f64]) -> (f64, f64);
    /// Standardized posterior mean/variance leaving gradient
    /// intermediates in `ws` (cross row, solved vector, radial grad
    /// factors — all over the support set).
    fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64);
    /// Posterior mean only, raw scale.
    fn predict_mean(&self, p: &[f64]) -> f64;
    /// Batched prediction: means and latent variances per row of `pts`.
    fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>);
    /// Joint posterior over the rows of `pts`: mean vector and full
    /// latent covariance, raw scale.
    fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)>;
    /// Apply the posterior operator `A` to each column of a
    /// `support × q` cross block, in place.
    fn cov_solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()>;
    /// Apply the posterior operator `A` to one cross vector.
    fn cov_solve_vec(&self, b: &[f64]) -> Result<Vec<f64>>;
    /// Best (lowest/highest) observed raw target.
    fn best_observed(&self, maximize: bool) -> f64;
}

/// Surrogates that support the sequential fantasy-conditioning loops:
/// clone the model once, then append hypothesized observations into it
/// (raw scale, frozen hyperparameters and standardization), repeat.
pub trait FantasySurrogate: Surrogate + Clone {
    /// Condition on `(xs, ys)` in place without refitting. On any error
    /// the model is unchanged.
    fn condition_on(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()>;
}

impl Surrogate for GaussianProcess {
    fn n(&self) -> usize {
        GaussianProcess::n(self)
    }
    fn dim(&self) -> usize {
        GaussianProcess::dim(self)
    }
    fn kernel(&self) -> &Kernel {
        GaussianProcess::kernel(self)
    }
    fn noise(&self) -> f64 {
        GaussianProcess::noise(self)
    }
    fn support_x(&self) -> &Matrix {
        self.train_x()
    }
    fn weights(&self) -> &[f64] {
        GaussianProcess::weights(self)
    }
    fn trend_std(&self) -> f64 {
        GaussianProcess::trend_std(self)
    }
    fn standardization(&self) -> (f64, f64) {
        GaussianProcess::standardization(self)
    }
    fn predict(&self, p: &[f64]) -> (f64, f64) {
        GaussianProcess::predict(self, p)
    }
    fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        GaussianProcess::posterior_parts_with(self, p, ws)
    }
    fn predict_mean(&self, p: &[f64]) -> f64 {
        GaussianProcess::predict_mean(self, p)
    }
    fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>) {
        GaussianProcess::predict_many(self, pts)
    }
    fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)> {
        GaussianProcess::posterior_joint(self, pts)
    }
    fn cov_solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        self.chol().solve_matrix_in_place(b)?;
        Ok(())
    }
    fn cov_solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        Ok(self.chol().solve(b)?)
    }
    fn best_observed(&self, maximize: bool) -> f64 {
        GaussianProcess::best_observed(self, maximize)
    }
}

impl FantasySurrogate for GaussianProcess {
    fn condition_on(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        GaussianProcess::condition_on(self, xs, ys)
    }
}

impl Surrogate for SparseGaussianProcess {
    fn n(&self) -> usize {
        SparseGaussianProcess::n(self)
    }
    fn dim(&self) -> usize {
        SparseGaussianProcess::dim(self)
    }
    fn kernel(&self) -> &Kernel {
        SparseGaussianProcess::kernel(self)
    }
    fn noise(&self) -> f64 {
        SparseGaussianProcess::noise(self)
    }
    fn support_x(&self) -> &Matrix {
        self.inducing_x()
    }
    fn weights(&self) -> &[f64] {
        SparseGaussianProcess::weights(self)
    }
    fn trend_std(&self) -> f64 {
        SparseGaussianProcess::trend_std(self)
    }
    fn standardization(&self) -> (f64, f64) {
        SparseGaussianProcess::standardization(self)
    }
    fn predict(&self, p: &[f64]) -> (f64, f64) {
        SparseGaussianProcess::predict(self, p)
    }
    fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        SparseGaussianProcess::posterior_parts_with(self, p, ws)
    }
    fn predict_mean(&self, p: &[f64]) -> f64 {
        SparseGaussianProcess::predict_mean(self, p)
    }
    fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>) {
        SparseGaussianProcess::predict_many(self, pts)
    }
    fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)> {
        SparseGaussianProcess::posterior_joint(self, pts)
    }
    fn cov_solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        SparseGaussianProcess::cov_solve_matrix_in_place(self, b)
    }
    fn cov_solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        SparseGaussianProcess::cov_solve_vec(self, b)
    }
    fn best_observed(&self, maximize: bool) -> f64 {
        SparseGaussianProcess::best_observed(self, maximize)
    }
}

impl FantasySurrogate for SparseGaussianProcess {
    fn condition_on(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        SparseGaussianProcess::condition_on(self, xs, ys)
    }
}

/// The surrogate a BO engine owns: either the exact dense GP or the
/// sparse inducing-point GP, chosen by the engine's configured backend
/// and auto-switch threshold. All [`Surrogate`]/[`FantasySurrogate`]
/// calls dispatch to the wrapped model.
#[derive(Debug, Clone)]
pub enum SurrogateModel {
    /// Exact dense GP (`O(n³)` build, `O(n²)` variance).
    Dense(GaussianProcess),
    /// Sparse inducing-point GP (`O(n m²)` build, `O(m²)` variance).
    Sparse(SparseGaussianProcess),
}

impl SurrogateModel {
    /// The wrapped dense model, if this is the dense backend.
    pub fn as_dense(&self) -> Option<&GaussianProcess> {
        match self {
            SurrogateModel::Dense(g) => Some(g),
            SurrogateModel::Sparse(_) => None,
        }
    }

    /// The wrapped sparse model, if this is the sparse backend.
    pub fn as_sparse(&self) -> Option<&SparseGaussianProcess> {
        match self {
            SurrogateModel::Dense(_) => None,
            SurrogateModel::Sparse(s) => Some(s),
        }
    }

    /// Stable backend name for diagnostics and events.
    pub fn backend_name(&self) -> &'static str {
        match self {
            SurrogateModel::Dense(_) => "dense",
            SurrogateModel::Sparse(_) => "sparse",
        }
    }

    fn inner(&self) -> &dyn Surrogate {
        match self {
            SurrogateModel::Dense(g) => g,
            SurrogateModel::Sparse(s) => s,
        }
    }
}

impl Surrogate for SurrogateModel {
    fn n(&self) -> usize {
        self.inner().n()
    }
    fn dim(&self) -> usize {
        self.inner().dim()
    }
    fn kernel(&self) -> &Kernel {
        self.inner().kernel()
    }
    fn noise(&self) -> f64 {
        self.inner().noise()
    }
    fn support_x(&self) -> &Matrix {
        self.inner().support_x()
    }
    fn weights(&self) -> &[f64] {
        self.inner().weights()
    }
    fn trend_std(&self) -> f64 {
        self.inner().trend_std()
    }
    fn standardization(&self) -> (f64, f64) {
        self.inner().standardization()
    }
    fn predict(&self, p: &[f64]) -> (f64, f64) {
        self.inner().predict(p)
    }
    fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        self.inner().posterior_parts_with(p, ws)
    }
    fn predict_mean(&self, p: &[f64]) -> f64 {
        self.inner().predict_mean(p)
    }
    fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>) {
        self.inner().predict_many(pts)
    }
    fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)> {
        self.inner().posterior_joint(pts)
    }
    fn cov_solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        self.inner().cov_solve_matrix_in_place(b)
    }
    fn cov_solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.inner().cov_solve_vec(b)
    }
    fn best_observed(&self, maximize: bool) -> f64 {
        self.inner().best_observed(maximize)
    }
}

impl FantasySurrogate for SurrogateModel {
    fn condition_on(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        match self {
            SurrogateModel::Dense(g) => GaussianProcess::condition_on(g, xs, ys),
            SurrogateModel::Sparse(s) => SparseGaussianProcess::condition_on(s, xs, ys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelType;

    fn toy_dense() -> GaussianProcess {
        let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v| (4.0 * v).sin() + 10.0).collect();
        let mut kernel = Kernel::new(KernelType::Matern52, 1);
        kernel.lengthscales = vec![0.25];
        GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
    }

    #[test]
    fn dense_trait_calls_are_bit_identical_to_inherent() {
        // The trait layer must be a pure dispatch shim: every dense
        // result reaches callers unchanged, so routing the acquisition
        // layer through `&dyn Surrogate` cannot move seeded trajectories.
        let gp = toy_dense();
        let model = SurrogateModel::Dense(gp.clone());
        let dynref: &dyn Surrogate = &model;
        for i in 0..12 {
            let p = [i as f64 * 0.11 - 0.1];
            let (m0, v0) = gp.predict(&p);
            let (m1, v1) = dynref.predict(&p);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(v0.to_bits(), v1.to_bits());
            assert_eq!(gp.predict_mean(&p).to_bits(), dynref.predict_mean(&p).to_bits());
        }
        let k = gp.kernel().cross_vec(gp.train_x(), &[0.37]);
        let c0 = gp.chol().solve(&k).unwrap();
        let c1 = dynref.cov_solve_vec(&k).unwrap();
        for (a, b) in c0.iter().zip(&c1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(dynref.n(), gp.n());
        assert_eq!(dynref.support_x().rows(), gp.n());
        assert_eq!(model.backend_name(), "dense");
        assert!(model.as_dense().is_some() && model.as_sparse().is_none());
    }

    #[test]
    fn fantasy_conditioning_dispatches_per_backend() {
        let gp = toy_dense();
        let mut fant = SurrogateModel::Dense(gp.clone());
        fant.condition_on(&[vec![0.3]], &[11.2]).unwrap();
        let mut direct = gp;
        direct.condition_on(&[vec![0.3]], &[11.2]).unwrap();
        assert_eq!(fant.n(), direct.n());
        let (m0, v0) = direct.predict(&[0.5]);
        let (m1, v1) = Surrogate::predict(&fant, &[0.5]);
        assert_eq!(m0.to_bits(), m1.to_bits());
        assert_eq!(v0.to_bits(), v1.to_bits());
        assert_eq!(fant.backend_name(), "dense");
    }

    #[test]
    fn sparse_model_reports_inducing_support() {
        let mut x = Matrix::zeros(40, 1);
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 39.0;
            x[(i, 0)] = v;
            y.push((3.0 * v).cos() + 2.0);
        }
        let mut kernel = Kernel::new(KernelType::Matern52, 1);
        kernel.lengthscales = vec![0.3];
        let sp = SparseGaussianProcess::new(x, &y, kernel, 1e-4, 8).unwrap();
        let model = SurrogateModel::Sparse(sp);
        assert_eq!(model.backend_name(), "sparse");
        assert_eq!(Surrogate::n(&model), 40);
        assert_eq!(model.support_x().rows(), 8);
        assert_eq!(model.weights().len(), 8);
        let (m, v) = Surrogate::predict(&model, &[0.5]);
        assert!(m.is_finite() && v > 0.0);
    }
}
