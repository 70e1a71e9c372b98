//! The exact Gaussian-process regressor.

use crate::kernel::Kernel;
use crate::{GpError, Result};
use pbo_linalg::vec_ops::dot;
use pbo_linalg::{Cholesky, Matrix};

/// Exact GP regression with constant trend and homoskedastic noise.
///
/// Targets are standardized internally (shift by their mean, scale by
/// their standard deviation); hyperparameters live on the standardized
/// scale and the constant trend is profiled in closed form:
/// `m̂ = (1ᵀ K_y⁻¹ y) / (1ᵀ K_y⁻¹ 1)` with `K_y = K + σ_n² I`.
///
/// The struct owns the Cholesky factor of `K_y` and the weight vector
/// `α = K_y⁻¹ (y − m̂)`, so predictions are `O(n)` per point (mean) and
/// `O(n²)` (variance).
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise: f64,
    x: Matrix,
    /// Standardized targets.
    y_std: Vec<f64>,
    /// Standardization shift (mean of the raw targets at fit time).
    shift: f64,
    /// Standardization scale (std of the raw targets at fit time).
    scale: f64,
    /// Profiled constant trend (standardized scale).
    trend: f64,
    chol: Cholesky,
    /// Row-major transpose of the Cholesky factor. The single-point
    /// posterior path runs its backward substitution over rows of this
    /// matrix (contiguous; unrolled-`dot` reduction for long rows)
    /// instead of columns of `L` (stride-n) — roughly an eighth of the
    /// memory traffic, and several times the instruction-level
    /// parallelism once rows exceed
    /// [`pbo_linalg::cholesky::BIT_EXACT_MAX_N`].
    lt: Matrix,
    alpha: Vec<f64>,
}

/// Reusable scratch for the allocation-free single-point posterior
/// paths ([`GaussianProcess::predict_with`] and
/// [`GaussianProcess::posterior_parts_with`]). Buffers grow to the
/// training-set size on first use and are reused verbatim afterwards,
/// so steady-state calls perform zero heap allocations. Keep one per
/// thread (e.g. in a `thread_local!`) — the workspace itself is plain
/// data and `Send`.
#[derive(Debug, Default, Clone)]
pub struct PredictWorkspace {
    /// Cross-covariance row `k(support, p)` (the training set for the
    /// dense backend, the inducing set for the sparse one).
    pub(crate) k: Vec<f64>,
    /// Triangular-solve buffer; after `posterior_parts_with` it holds
    /// the posterior operator applied to `k` (`K_y⁻¹ k` dense).
    pub(crate) c: Vec<f64>,
    /// Radial gradient factors `s²·g(r_i)` per support point.
    pub(crate) gf: Vec<f64>,
    /// Reciprocal lengthscales `1/ℓ_j`, refreshed per call on the
    /// large-system path (the same workspace serves different GPs,
    /// e.g. across fantasy refits).
    pub(crate) inv_ls: Vec<f64>,
    /// Second solve buffer for the sparse backend's `B⁻¹u` term
    /// (unused by the dense paths).
    pub(crate) w: Vec<f64>,
}

impl PredictWorkspace {
    /// Empty workspace; buffers are sized lazily by the GP calls.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        if self.k.len() != n {
            self.k.resize(n, 0.0);
            self.c.resize(n, 0.0);
            self.gf.resize(n, 0.0);
            self.w.resize(n, 0.0);
        }
    }

    /// Cross-covariance row from the last `posterior_parts_with` call.
    /// (Clobbered by `predict_with`, which reuses it as the solve buffer.)
    pub fn cross(&self) -> &[f64] {
        &self.k
    }

    /// `K_y⁻¹ k` from the last `posterior_parts_with` call.
    pub fn solved(&self) -> &[f64] {
        &self.c
    }

    /// Per-training-point radial gradient factors `s²·g(r_i)` from the
    /// last `posterior_parts_with` call; feed them to
    /// [`crate::kernel::Kernel::grad_wrt_query_from_factor`].
    pub fn grad_factors(&self) -> &[f64] {
        &self.gf
    }
}

/// Floor on the standardization scale so constant targets don't divide
/// by zero. Shared with the sparse backend so both standardize
/// identically.
pub(crate) const MIN_SCALE: f64 = 1e-8;

impl GaussianProcess {
    /// Build a GP on raw data with the given kernel and noise variance
    /// (standardized scale). Fails on empty/ragged data or a kernel of
    /// the wrong dimension.
    pub fn new(x: Matrix, y: &[f64], kernel: Kernel, noise: f64) -> Result<Self> {
        if x.rows() == 0 {
            return Err(GpError::BadTrainingData("empty training set".into()));
        }
        if x.rows() != y.len() {
            return Err(GpError::BadTrainingData(format!(
                "{} inputs vs {} targets",
                x.rows(),
                y.len()
            )));
        }
        if kernel.dim() != x.cols() {
            return Err(GpError::BadHyperparameters(format!(
                "kernel dim {} vs input dim {}",
                kernel.dim(),
                x.cols()
            )));
        }
        if !y.iter().all(|v| v.is_finite()) {
            return Err(GpError::BadTrainingData("non-finite target".into()));
        }
        let shift = pbo_linalg::vec_ops::mean(y);
        let scale = pbo_linalg::vec_ops::variance(y).sqrt().max(MIN_SCALE);
        let y_std: Vec<f64> = y.iter().map(|v| (v - shift) / scale).collect();
        Self::from_standardized(x, y_std, shift, scale, kernel, noise)
    }

    /// Rebuild from already-standardized targets (internal; used by
    /// refits that must keep the standardization frozen).
    pub(crate) fn from_standardized(
        x: Matrix,
        y_std: Vec<f64>,
        shift: f64,
        scale: f64,
        kernel: Kernel,
        noise: f64,
    ) -> Result<Self> {
        let mut ky = kernel.matrix(&x);
        ky.add_diag(noise);
        let chol = Cholesky::factor(&ky)?;
        let lt = chol.transposed_factor();
        let (trend, alpha) = profiled_trend_and_alpha(&chol, &lt, &y_std);
        Ok(GaussianProcess { kernel, noise, x, y_std, shift, scale, trend, chol, lt, alpha })
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Homoskedastic noise variance (standardized scale).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Training inputs.
    pub fn train_x(&self) -> &Matrix {
        &self.x
    }

    /// Training targets on the raw scale.
    pub fn train_y_raw(&self) -> Vec<f64> {
        self.y_std.iter().map(|v| v * self.scale + self.shift).collect()
    }

    /// Standardization `(shift, scale)`.
    pub fn standardization(&self) -> (f64, f64) {
        (self.shift, self.scale)
    }

    /// Posterior mean and **latent** variance at one point, on the raw
    /// target scale. The latent (noise-free) variance is what acquisition
    /// functions want.
    pub fn predict(&self, p: &[f64]) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim());
        let k = self.kernel.cross_vec(&self.x, p);
        let mean_std = self.trend + dot(&k, &self.alpha);
        // var = k(x,x) − kᵀ K_y⁻¹ k, via the forward solve L v = k.
        let mut v = k;
        self.chol.solve_lower_in_place(&mut v);
        let var_std = (self.kernel.prior_var() - dot(&v, &v)).max(1e-14);
        (mean_std * self.scale + self.shift, var_std * self.scale * self.scale)
    }

    /// [`predict`](Self::predict) with a reusable workspace: bit-identical
    /// results, zero heap allocations per call once the workspace has
    /// warmed up to the training-set size.
    pub fn predict_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim());
        ws.ensure(self.n());
        self.kernel.cross_vec_into(&self.x, p, &mut ws.k);
        let mean_std = self.trend + dot(&ws.k, &self.alpha);
        // Same forward solve as `predict`, reusing k as the buffer.
        self.chol.solve_lower_in_place(&mut ws.k);
        let var_std = (self.kernel.prior_var() - dot(&ws.k, &ws.k)).max(1e-14);
        (mean_std * self.scale + self.shift, var_std * self.scale * self.scale)
    }

    /// Standardized posterior mean and variance at `p`, leaving in `ws`
    /// the intermediates the acquisition gradient needs: `ws.cross()` =
    /// `k(x, p)`, `ws.solved()` = `K_y⁻¹ k`, `ws.grad_factors()` = the
    /// radial factors for `∂k/∂p`. Zero heap allocations per call.
    ///
    /// This follows the allocating acquisition reference recipe —
    /// variance from the full solve `kᵀ K_y⁻¹ k` (not the forward-only
    /// form `predict` uses) — with the same arithmetic in the same
    /// order for training sets up to
    /// [`pbo_linalg::cholesky::BIT_EXACT_MAX_N`] points, so results
    /// there are bit-identical to the `cross_vec` + `chol().solve(k)`
    /// reference (covered by a test) and seeded BO trajectories are
    /// unchanged. Beyond that threshold the hot path reassociates for
    /// speed — reciprocal-lengthscale distances and the unrolled-`dot`
    /// backward substitution — which reorders roundings only (agreement
    /// to summation-order ulps). Either way the result is bitwise
    /// deterministic for any thread count — the same code runs
    /// everywhere. The caller applies the target standardization.
    pub fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim());
        ws.ensure(self.n());
        if self.n() > pbo_linalg::cholesky::BIT_EXACT_MAX_N {
            self.kernel.inv_lengthscales_into(&mut ws.inv_ls);
            self.kernel.cross_vec_grad_into_scaled(&self.x, p, &ws.inv_ls, &mut ws.k, &mut ws.gf);
        } else {
            self.kernel.cross_vec_grad_into(&self.x, p, &mut ws.k, &mut ws.gf);
        }
        let mean_std = self.trend + dot(&ws.k, &self.alpha);
        ws.c.copy_from_slice(&ws.k);
        self.chol.solve_lower_in_place(&mut ws.c);
        pbo_linalg::cholesky::solve_transposed_in_place(&self.lt, &mut ws.c);
        let var_std = (self.kernel.prior_var() - dot(&ws.k, &ws.c)).max(1e-14);
        (mean_std, var_std)
    }

    /// Posterior mean only (cheaper: one dot product).
    pub fn predict_mean(&self, p: &[f64]) -> f64 {
        let k = self.kernel.cross_vec(&self.x, p);
        (self.trend + dot(&k, &self.alpha)) * self.scale + self.shift
    }

    /// Batched prediction: means and latent variances for each row of
    /// `pts`.
    ///
    /// One cross-covariance assembly (parallel over row blocks) plus one
    /// multi-RHS forward solve replace `q` independent `predict` calls.
    /// The same kernel entries and triangular system are evaluated, so
    /// results match [`GaussianProcess::predict`] to summation-order
    /// rounding (a few ulps).
    ///
    /// Past [`pbo_linalg::cholesky::BIT_EXACT_MAX_N`] training points
    /// the `‖V_:,j‖²` accumulation — the last serial hot loop in the
    /// candidate-prescreen path — fans out over fixed row bands (see
    /// `banded_sq_colsums`); at or below the cap the serial arithmetic
    /// is byte-identical to the pre-band code, so engine-scale seeded
    /// trajectories are unchanged.
    pub fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>) {
        let q = pts.rows();
        if q == 0 {
            return (Vec::new(), Vec::new());
        }
        debug_assert_eq!(pts.cols(), self.dim());
        let mut kxs = self.kernel.cross_matrix(&self.x, pts); // n x q
        let kta = kxs.matvec_t(&self.alpha).expect("alpha length n");
        let means: Vec<f64> =
            kta.iter().map(|v| (self.trend + v) * self.scale + self.shift).collect();
        // V = L^{-1} K(x, pts), then latent var_j = k(x,x) − ‖V_:,j‖².
        self.chol.solve_lower_multi_in_place(&mut kxs);
        let vtv = banded_sq_colsums(&kxs);
        let pv = self.kernel.prior_var();
        let s2 = self.scale * self.scale;
        let vars: Vec<f64> = vtv.iter().map(|s| (pv - s).max(1e-14) * s2).collect();
        (means, vars)
    }

    /// Joint posterior over the rows of `pts`: mean vector and full
    /// latent covariance matrix, raw scale. This is what Monte-Carlo
    /// q-EI samples from.
    pub fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)> {
        if pts.cols() != self.dim() {
            return Err(GpError::BadTrainingData(format!(
                "query dim {} vs model dim {}",
                pts.cols(),
                self.dim()
            )));
        }
        let q = pts.rows();
        let mut kxs = self.kernel.cross_matrix(&self.x, pts); // n x q
        let kta = kxs.matvec_t(&self.alpha).expect("alpha length n");
        let means: Vec<f64> =
            kta.iter().map(|v| (self.trend + v) * self.scale + self.shift).collect();
        // Cov = K** − VᵀV with V = L^{-1} K(x, pts): one in-place
        // multi-RHS forward solve, then VᵀV accumulated row-major (one
        // contiguous pass over V instead of q² strided column dots).
        self.chol.solve_lower_multi_in_place(&mut kxs);
        let v = kxs;
        let mut vtv = Matrix::zeros(q, q); // lower triangle
        for i in 0..v.rows() {
            let row = v.row(i);
            for a in 0..q {
                let ra = row[a];
                let out = vtv.row_mut(a);
                for b in 0..=a {
                    out[b] += ra * row[b];
                }
            }
        }
        let s2 = self.scale * self.scale;
        let mut cov = Matrix::zeros(q, q);
        for a in 0..q {
            for b in 0..=a {
                let kab = self.kernel.eval(pts.row(a), pts.row(b));
                let c = (kab - vtv[(a, b)]) * s2;
                cov[(a, b)] = c;
                cov[(b, a)] = c;
            }
        }
        // Guarantee a usable (sampleable) covariance.
        for a in 0..q {
            if cov[(a, a)] < 1e-14 * s2 {
                cov[(a, a)] = 1e-14 * s2;
            }
        }
        Ok((means, cov))
    }

    /// Condition on additional observations under **frozen
    /// hyperparameters and frozen standardization**, in `O(n² q)`. `ys`
    /// are on the raw target scale and must be finite; the profiled
    /// trend is recomputed (two solves).
    ///
    /// This one append serves both the fantasy loops (Kriging-Believer
    /// and its multi-infill variants condition on posterior means) and
    /// the engine's real-data append between full refits. Only the
    /// `n x q` cross block and the `q x q` corner of the extended Gram
    /// matrix are evaluated; [`Cholesky::extend`] appends the factor rows
    /// with the factorization's own row kernel, so the result is
    /// **bit-identical** to rebuilding the GP from scratch on the stacked
    /// data with the same frozen standardization, at every size (pinned
    /// by tests). If the appended rows are not positive-definite at the frozen
    /// jitter, the method falls back to that full rebuild (which may
    /// escalate jitter), so it never fails on valid data and never
    /// silently degrades the factor.
    pub fn condition_on(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<GaussianProcess> {
        if xs.len() != ys.len() {
            return Err(GpError::BadTrainingData("xs/ys length mismatch".into()));
        }
        if xs.is_empty() {
            return Ok(self.clone());
        }
        for p in xs {
            if p.len() != self.dim() {
                return Err(GpError::BadTrainingData("new point dimension".into()));
            }
        }
        if !ys.iter().all(|v| v.is_finite()) {
            return Err(GpError::BadTrainingData("non-finite target".into()));
        }
        let q = xs.len();
        let mut new_x = Matrix::zeros(q, self.dim());
        for (i, p) in xs.iter().enumerate() {
            new_x.row_mut(i).copy_from_slice(p);
        }
        // Only the new blocks of the extended K_y are evaluated; `eval`
        // is symmetric bit-for-bit, so these entries match what a
        // from-scratch `kernel.matrix` assembly would place in the
        // appended rows.
        let b = self.kernel.cross_matrix(&self.x, &new_x); // n x q
        let mut c = self.kernel.matrix(&new_x); // q x q
        c.add_diag(self.noise);

        let mut x = self.x.clone();
        for p in xs {
            x.push_row(p).expect("dimension checked above");
        }
        let mut y_std = self.y_std.clone();
        y_std.extend(ys.iter().map(|v| (v - self.shift) / self.scale));

        match self.chol.extend(&b, &c) {
            Ok(chol) => {
                let lt = chol.transposed_factor();
                let (trend, alpha) = profiled_trend_and_alpha(&chol, &lt, &y_std);
                Ok(GaussianProcess {
                    kernel: self.kernel.clone(),
                    noise: self.noise,
                    x,
                    y_std,
                    shift: self.shift,
                    scale: self.scale,
                    trend,
                    chol,
                    lt,
                    alpha,
                })
            }
            // The appended rows failed at the frozen jitter: only a
            // global refactorization (with its own jitter escalation)
            // can represent the stacked system.
            Err(_) => Self::from_standardized(
                x,
                y_std,
                self.shift,
                self.scale,
                self.kernel.clone(),
                self.noise,
            ),
        }
    }

    /// The Cholesky factor of `K + σ_n² I` (standardized scale). The
    /// acquisition layer needs it for posterior gradients.
    pub fn chol(&self) -> &Cholesky {
        &self.chol
    }

    /// The weight vector `α = K_y⁻¹ (y_std − m̂)`.
    pub fn weights(&self) -> &[f64] {
        &self.alpha
    }

    /// Profiled constant trend on the standardized scale.
    pub fn trend_std(&self) -> f64 {
        self.trend
    }

    /// Best (lowest/highest) observed raw target.
    pub fn best_observed(&self, maximize: bool) -> f64 {
        let ys = self.train_y_raw();
        ys.iter()
            .copied()
            .fold(if maximize { f64::NEG_INFINITY } else { f64::INFINITY }, |acc, v| {
                if maximize {
                    acc.max(v)
                } else {
                    acc.min(v)
                }
            })
    }
}

/// Column sums of squares `Σᵢ v[i,j]²` of a `rows × q` matrix.
///
/// At or below [`pbo_linalg::cholesky::BIT_EXACT_MAX_N`] rows this is
/// the plain serial accumulation (byte-identical to the historical
/// `predict_many` loop). Above the cap, rows are cut into **fixed**
/// 128-row bands — independent of the thread count — whose partial sums
/// are computed by a worker pool and folded serially in band order, so
/// the reassociation is decided by the band grid alone and the result
/// is bitwise identical for any thread count. Shared by the dense and
/// sparse batched prediction paths.
pub(crate) fn banded_sq_colsums(v: &Matrix) -> Vec<f64> {
    let n = v.rows();
    let q = v.cols();
    let mut vtv = vec![0.0; q];
    if n <= pbo_linalg::cholesky::BIT_EXACT_MAX_N {
        for i in 0..n {
            for (s, vij) in vtv.iter_mut().zip(v.row(i)) {
                *s += vij * vij;
            }
        }
        return vtv;
    }
    const PREDICT_BAND: usize = 128;
    let bands = n.div_ceil(PREDICT_BAND);
    // Worker count only decides scheduling; band partials are folded in
    // band order below either way.
    let workers = pbo_linalg::parallel::workers_for(n * q);
    let partials = pbo_linalg::parallel::par_map_workers(bands, workers.min(bands), |b| {
        let lo = b * PREDICT_BAND;
        let hi = (lo + PREDICT_BAND).min(n);
        let mut acc = vec![0.0; q];
        for i in lo..hi {
            for (s, vij) in acc.iter_mut().zip(v.row(i)) {
                *s += vij * vij;
            }
        }
        acc
    });
    for part in &partials {
        for (s, p) in vtv.iter_mut().zip(part) {
            *s += p;
        }
    }
    vtv
}

/// Closed-form profiled constant trend and the resulting weights.
///
/// The backward solves read `lt`, the row-major transpose of the factor
/// (see [`pbo_linalg::cholesky::solve_transposed_in_place`]), instead of
/// striding down columns of `L`.
fn profiled_trend_and_alpha(chol: &Cholesky, lt: &Matrix, y_std: &[f64]) -> (f64, Vec<f64>) {
    let n = y_std.len();
    debug_assert_eq!(chol.n(), n);
    let ones = vec![1.0; n];
    let solve = |b: &[f64]| {
        let mut x = b.to_vec();
        chol.solve_lower_in_place(&mut x);
        pbo_linalg::cholesky::solve_transposed_in_place(lt, &mut x);
        x
    };
    let kinv_ones = solve(&ones);
    let kinv_y = solve(y_std);
    let denom = dot(&ones, &kinv_ones);
    let trend = if denom.abs() > 1e-300 { dot(&ones, &kinv_y) / denom } else { 0.0 };
    let alpha: Vec<f64> = kinv_y.iter().zip(&kinv_ones).map(|(a, b)| a - trend * b).collect();
    (trend, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelType;

    fn toy_gp(noise: f64) -> GaussianProcess {
        // 1-D data from y = sin(4x) + 10 (shifted to exercise the trend).
        let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v| (4.0 * v).sin() + 10.0).collect();
        let mut kernel = Kernel::new(KernelType::Matern52, 1);
        kernel.lengthscales = vec![0.25];
        GaussianProcess::new(x, &y, kernel, noise).unwrap()
    }

    #[test]
    fn interpolates_with_small_noise() {
        let gp = toy_gp(1e-8);
        for i in 0..9 {
            let xv = i as f64 / 8.0;
            let (m, v) = gp.predict(&[xv]);
            let truth = (4.0 * xv).sin() + 10.0;
            assert!((m - truth).abs() < 1e-3, "mean at {xv}: {m} vs {truth}");
            assert!(v < 1e-3, "variance at training point: {v}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let gp = toy_gp(1e-6);
        let (_, v_near) = gp.predict(&[0.5]);
        let (_, v_far) = gp.predict(&[3.0]);
        assert!(v_far > 10.0 * v_near);
    }

    #[test]
    fn far_field_reverts_to_trend() {
        let gp = toy_gp(1e-6);
        let m_far = gp.predict_mean(&[50.0]);
        // Trend should be close to the data mean (≈ 10 + mean of sin).
        let data_mean =
            pbo_linalg::vec_ops::mean(&gp.train_y_raw());
        assert!((m_far - data_mean).abs() < 0.5, "{m_far} vs {data_mean}");
    }

    /// The append promises *bit* identity with a from-scratch rebuild
    /// (frozen standardization) at every size.
    fn assert_append_is_bit_identical_to_rebuild(
        gp: &GaussianProcess,
        new_x: &[Vec<f64>],
        new_y: &[f64],
    ) {
        let upd = gp.condition_on(new_x, new_y).unwrap();

        let mut x = gp.train_x().clone();
        for p in new_x {
            x.push_row(p).unwrap();
        }
        let (shift, scale) = gp.standardization();
        let mut y_std = gp.y_std.clone();
        y_std.extend(new_y.iter().map(|v| (v - shift) / scale));
        let rebuilt = GaussianProcess::from_standardized(
            x,
            y_std,
            shift,
            scale,
            gp.kernel().clone(),
            gp.noise(),
        )
        .unwrap();

        assert_eq!(upd.n(), rebuilt.n());
        assert_eq!(upd.chol().jitter(), rebuilt.chol().jitter());
        assert_eq!(upd.chol().l(), rebuilt.chol().l());
        assert_eq!(upd.trend_std().to_bits(), rebuilt.trend_std().to_bits());
        for (i, (a, b)) in upd.weights().iter().zip(rebuilt.weights()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "alpha[{i}]");
        }
        for &p in &[0.05, 0.33, 0.6, 0.95, 1.4] {
            let (m1, v1) = upd.predict(&[p]);
            let (m2, v2) = rebuilt.predict(&[p]);
            assert_eq!(m1.to_bits(), m2.to_bits(), "mean at {p}");
            assert_eq!(v1.to_bits(), v2.to_bits(), "var at {p}");
        }
    }

    #[test]
    fn condition_on_matches_full_rebuild() {
        // A two-point fantasy append, as the batch acquisitions make.
        let gp = toy_gp(1e-6);
        assert_append_is_bit_identical_to_rebuild(&gp, &[vec![0.3], vec![0.77]], &[11.2, 9.4]);
    }

    #[test]
    fn update_is_bit_identical_to_frozen_std_rebuild() {
        // The engine's real-data append between full fits: bit identity
        // is what lets it run without shifting seeded trajectories on
        // hyperparameter-stable cycles.
        let gp = toy_gp(1e-6);
        assert_append_is_bit_identical_to_rebuild(
            &gp,
            &[vec![0.31], vec![0.74], vec![1.12]],
            &[11.2, 9.4, 10.7],
        );
    }

    #[test]
    fn condition_on_duplicated_point_falls_back_gracefully() {
        // Appending an exact duplicate of a training point makes the
        // extended system singular at the frozen jitter (tiny noise);
        // the append must still produce a usable GP via the internal
        // full-rebuild fallback, bit-identical to that rebuild.
        let gp = toy_gp(1e-12);
        let dup = gp.train_x().row(4).to_vec();
        let yv = gp.train_y_raw()[4];
        let upd = gp.condition_on(std::slice::from_ref(&dup), &[yv]).unwrap();
        assert_eq!(upd.n(), gp.n() + 1);
        let (m, v) = upd.predict(&[0.4]);
        assert!(m.is_finite() && v.is_finite());

        let mut x = gp.train_x().clone();
        x.push_row(&dup).unwrap();
        let (shift, scale) = gp.standardization();
        let mut y_std = gp.y_std.clone();
        y_std.push((yv - shift) / scale);
        let rebuilt = GaussianProcess::from_standardized(
            x,
            y_std,
            shift,
            scale,
            gp.kernel().clone(),
            gp.noise(),
        )
        .unwrap();
        assert_eq!(upd.chol().l(), rebuilt.chol().l());
    }

    #[test]
    fn condition_on_empty_is_noop() {
        let gp = toy_gp(1e-6);
        let same = gp.condition_on(&[], &[]).unwrap();
        assert_eq!(same.n(), gp.n());
        assert_eq!(same.chol().l(), gp.chol().l());
        for (a, b) in same.weights().iter().zip(gp.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn update_empty_is_noop_and_bad_input_rejected() {
        // The engine's append of the rows added since the last fit: none
        // added leaves the model as it was; malformed rows are errors.
        let gp = toy_gp(1e-6);
        let same = gp.condition_on(&[], &[]).unwrap();
        assert_eq!(same.n(), gp.n());
        assert!(gp.condition_on(&[vec![0.1]], &[]).is_err());
        assert!(gp.condition_on(&[vec![0.1, 0.2]], &[1.0]).is_err());
        assert!(gp.condition_on(&[vec![0.1]], &[f64::NAN]).is_err());
    }

    #[test]
    fn posterior_joint_diag_matches_predict() {
        let gp = toy_gp(1e-5);
        let pts = Matrix::from_rows(&[vec![0.2], vec![0.9], vec![1.5]]).unwrap();
        let (means, cov) = gp.posterior_joint(&pts).unwrap();
        for (i, &p) in [0.2, 0.9, 1.5].iter().enumerate() {
            let (m, v) = gp.predict(&[p]);
            assert!((means[i] - m).abs() < 1e-9);
            assert!((cov[(i, i)] - v).abs() < 1e-9 * (1.0 + v));
        }
        // Covariance symmetric and PSD-ish.
        assert!((cov[(0, 1)] - cov[(1, 0)]).abs() < 1e-12);
        let corr = cov[(0, 1)] / (cov[(0, 0)] * cov[(1, 1)]).sqrt();
        assert!(corr.abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn predict_many_matches_predict_exactly() {
        // The batched path evaluates the same kernel entries and the same
        // triangular system as the scalar path; the only divergence is
        // summation order (unrolled dot vs per-column axpy), so the match
        // must hold to a few ulps — far tighter than any model tolerance.
        let gp = toy_gp(1e-6);
        let qs: Vec<Vec<f64>> =
            (0..23).map(|i| vec![i as f64 * 0.13 - 0.4]).collect();
        let pts = Matrix::from_rows(&qs).unwrap();
        let (means, vars) = gp.predict_many(&pts);
        for (i, p) in qs.iter().enumerate() {
            let (m, v) = gp.predict(p);
            assert!(
                (means[i] - m).abs() <= 1e-13 * (1.0 + m.abs()),
                "mean at {p:?}: {} vs {m}",
                means[i]
            );
            assert!(
                (vars[i] - v).abs() <= 1e-13 * (1.0 + v.abs()),
                "var at {p:?}: {} vs {v}",
                vars[i]
            );
        }
        let (em, ev) = gp.predict_many(&Matrix::zeros(0, 1));
        assert!(em.is_empty() && ev.is_empty());
    }

    #[test]
    fn predict_with_is_bit_identical_to_predict() {
        let gp = toy_gp(1e-6);
        let mut ws = PredictWorkspace::new();
        for i in 0..23 {
            let p = [i as f64 * 0.13 - 0.4];
            let (m0, v0) = gp.predict(&p);
            let (m1, v1) = gp.predict_with(&p, &mut ws);
            assert_eq!(m0.to_bits(), m1.to_bits(), "mean at {p:?}");
            assert_eq!(v0.to_bits(), v1.to_bits(), "var at {p:?}");
        }
    }

    #[test]
    fn posterior_parts_match_allocating_reference() {
        // The workspace posterior follows the allocating reference recipe
        // the acquisition layer historically used — k = cross_vec,
        // c = chol.solve(k), var = prior − kᵀc — with the same arithmetic
        // in the same order, so at this size (below the backward-solve
        // `BIT_EXACT_MAX_N` threshold) every value must be bit-identical:
        // seeded BO trajectories depend on it.
        let gp = toy_gp(1e-6);
        let mut ws = PredictWorkspace::new();
        for i in 0..17 {
            let p = [i as f64 * 0.17 - 0.3];
            let (mean_std, var_std) = gp.posterior_parts_with(&p, &mut ws);

            let k = gp.kernel().cross_vec(gp.train_x(), &p);
            let c = gp.chol().solve(&k).unwrap();
            let mean_ref = gp.trend_std() + dot(&k, gp.weights());
            let var_ref = (gp.kernel().prior_var() - dot(&k, &c)).max(1e-14);
            assert!(mean_std.to_bits() == mean_ref.to_bits(), "mean at {p:?}: {mean_std} vs {mean_ref}");
            assert!(var_std.to_bits() == var_ref.to_bits(), "var at {p:?}: {var_std} vs {var_ref}");
            for (j, (&kw, &kr)) in ws.cross().iter().zip(&k).enumerate() {
                assert!(kw.to_bits() == kr.to_bits(), "k[{j}] at {p:?}: {kw} vs {kr}");
            }
            for (j, (&cw, &cr)) in ws.solved().iter().zip(&c).enumerate() {
                assert!(cw.to_bits() == cr.to_bits(), "c[{j}] at {p:?}: {cw} vs {cr}");
            }
            // Gradient factors match the scalar kernel path bit-for-bit.
            for (i, &gf) in ws.grad_factors().iter().enumerate() {
                let r = gp.kernel().scaled_dist(gp.train_x().row(i), &p);
                let expect = gp.kernel().outputscale * gp.kernel().family.grad_factor(r);
                assert!(gf.to_bits() == expect.to_bits(), "gf[{i}] at {p:?}: {gf} vs {expect}");
            }
        }
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.5], vec![0.9]]).unwrap();
        let y = vec![5.0; 3];
        let gp = GaussianProcess::new(x, &y, Kernel::new(KernelType::Rbf, 1), 1e-6).unwrap();
        let (m, v) = gp.predict(&[0.3]);
        assert!((m - 5.0).abs() < 1e-6);
        assert!(v.is_finite());
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::from_rows(&[vec![0.1]]).unwrap();
        assert!(GaussianProcess::new(
            x.clone(),
            &[1.0, 2.0],
            Kernel::new(KernelType::Rbf, 1),
            1e-6
        )
        .is_err());
        assert!(GaussianProcess::new(
            x.clone(),
            &[f64::NAN],
            Kernel::new(KernelType::Rbf, 1),
            1e-6
        )
        .is_err());
        assert!(GaussianProcess::new(x, &[1.0], Kernel::new(KernelType::Rbf, 2), 1e-6).is_err());
        assert!(GaussianProcess::new(
            Matrix::zeros(0, 1),
            &[],
            Kernel::new(KernelType::Rbf, 1),
            1e-6
        )
        .is_err());
    }

    #[test]
    fn best_observed_both_directions() {
        let gp = toy_gp(1e-6);
        let ys = gp.train_y_raw();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((gp.best_observed(false) - lo).abs() < 1e-12);
        assert!((gp.best_observed(true) - hi).abs() < 1e-12);
    }
}
