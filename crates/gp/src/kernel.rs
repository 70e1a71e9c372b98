//! The stationary ARD Matérn-5/2 covariance kernel (the paper's
//! surrogate, Table 3) and its log-parameter gradients.
//!
//! `k(x, x') = s² · rho(r)` with `r² = Σ_j ((x_j − x'_j) / ℓ_j)²`,
//! where `s²` is the outputscale and `ℓ` the ARD lengthscales. The
//! marginal-likelihood gradient needs `∂k/∂ log ℓ_j`, which factors as
//!
//! `∂k/∂ log ℓ_j = s² · g(r) · d_j² / ℓ_j²`,  `d_j = x_j − x'_j`,
//!
//! with a radial factor `g(r)` that stays finite at `r = 0` — so
//! gradients are well-defined on duplicated points (which fantasy
//! conditioning produces routinely).

use pbo_linalg::Matrix;

/// Radial profile `rho(r) = (1 + √5 r + 5r²/3) exp(−√5 r)` (value at
/// unit outputscale).
#[inline]
pub fn rho(r: f64) -> f64 {
    let sr = 5.0f64.sqrt() * r;
    (1.0 + sr + sr * sr / 3.0) * (-sr).exp()
}

/// Radial gradient factor `g(r)` with
/// `∂rho/∂ log ℓ_j = g(r) · d_j²/ℓ_j²` (finite at r = 0).
#[inline]
pub fn grad_factor(r: f64) -> f64 {
    let sr = 5.0f64.sqrt() * r;
    (5.0 / 3.0) * (1.0 + sr) * (-sr).exp()
}

/// `(rho(r), g(r))` in one call, sharing the transcendental
/// evaluation. Bitwise-identical to calling [`rho`] and
/// [`grad_factor`] separately (the shared `exp` receives the same
/// argument and the surrounding products keep the same association),
/// which the workspace gradient path relies on to match the naive
/// reference exactly.
#[inline]
pub fn rho_and_grad(r: f64) -> (f64, f64) {
    let sr = 5.0f64.sqrt() * r;
    let e = (-sr).exp();
    ((1.0 + sr + sr * sr / 3.0) * e, (5.0 / 3.0) * (1.0 + sr) * e)
}

/// A stationary ARD Matérn-5/2 kernel: outputscale + per-dimension
/// lengthscales.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Signal variance `s²`.
    pub outputscale: f64,
    /// ARD lengthscales `ℓ_j > 0`.
    pub lengthscales: Vec<f64>,
}

impl Kernel {
    /// New kernel of the given dimension, unit outputscale and moderate
    /// lengthscales (0.5 — half the unit cube).
    pub fn new(dim: usize) -> Self {
        Kernel { outputscale: 1.0, lengthscales: vec![0.5; dim] }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Scaled distance `r` between two points.
    #[inline]
    pub fn scaled_dist(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for j in 0..a.len() {
            let d = (a[j] - b[j]) / self.lengthscales[j];
            s += d * d;
        }
        s.sqrt()
    }

    /// Covariance between two points.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.outputscale * rho(self.scaled_dist(a, b))
    }

    /// Prior variance at any point (`k(x, x)`).
    #[inline]
    pub fn prior_var(&self) -> f64 {
        self.outputscale
    }

    /// Dense kernel matrix over the rows of `x` (symmetric), assembled in
    /// parallel over row blocks when large. Each row is computed in full
    /// (`eval` is symmetric bit-for-bit, so no mirroring pass is needed
    /// and rows stay independent for the scoped-thread fan-out).
    pub fn matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        // Transcendental-heavy inner kernel: weight the "flop-ish" work
        // estimate well above d multiply-adds per entry.
        let work = n * n * (8 * self.dim() + 16);
        pbo_linalg::parallel::for_each_row_chunk(k.as_mut_slice(), n, work, |i, row| {
            let xi = x.row(i);
            for (j, out) in row.iter_mut().enumerate() {
                *out = if i == j { self.outputscale } else { self.eval(xi, x.row(j)) };
            }
        });
        k
    }

    /// Cross-covariance matrix between rows of `a` (n) and rows of `b`
    /// (m): `n x m`, assembled in parallel over row blocks when large.
    /// Entries are [`eval`](Self::eval)'s bits, which the appends rely
    /// on: their cross block must hold what a rebuild's
    /// [`matrix`](Self::matrix) places there.
    pub fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut k = Matrix::zeros(a.rows(), b.rows());
        self.fill_cross(a, b, &mut k, |ra, rb| self.eval(ra, rb));
        k
    }

    /// [`cross_matrix`](Self::cross_matrix) with the reciprocal
    /// lengthscales precomputed by the caller (`inv_ls[j] = 1/ℓ_j`, see
    /// [`inv_lengthscales_into`](Self::inv_lengthscales_into)): each
    /// entry multiplies where `eval` divides, so it agrees with
    /// `cross_matrix` to a rounding ulp per coordinate, not bit for bit.
    /// For prediction paths above the large-system threshold
    /// (`pbo_linalg::cholesky::BIT_EXACT_MAX_N`) only.
    pub fn cross_matrix_scaled(&self, a: &Matrix, b: &Matrix, inv_ls: &[f64]) -> Matrix {
        debug_assert_eq!(inv_ls.len(), self.dim());
        let mut k = Matrix::zeros(a.rows(), b.rows());
        self.fill_cross(a, b, &mut k, |ra, rb| {
            let r = pbo_linalg::vec_ops::weighted_dist2(ra, rb, inv_ls).sqrt();
            self.outputscale * rho(r)
        });
        k
    }

    /// Fill the `a.rows() x b.rows()` matrix `out` with `entry(a_i, b_j)`,
    /// in parallel over row blocks when large (each entry depends on its
    /// pair alone, so the result is the same at any thread count).
    fn fill_cross(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        entry: impl Fn(&[f64], &[f64]) -> f64 + Sync,
    ) {
        let work = a.rows() * b.rows() * (8 * self.dim() + 16);
        pbo_linalg::parallel::for_each_row_chunk(out.as_mut_slice(), b.rows(), work, |i, row| {
            let ra = a.row(i);
            for (j, o) in row.iter_mut().enumerate() {
                *o = entry(ra, b.row(j));
            }
        });
    }

    /// Covariance vector between one point and the rows of `x`.
    pub fn cross_vec(&self, x: &Matrix, p: &[f64]) -> Vec<f64> {
        (0..x.rows()).map(|i| self.eval(x.row(i), p)).collect()
    }

    /// Fused cross-covariance + query-gradient factors against the rows
    /// of `x`: `k_out[i] = k(x_i, p)` and `gf_out[i] = s²·g(r_i)`, the
    /// scalar that [`grad_wrt_query_from_factor`](Self::grad_wrt_query_from_factor)
    /// turns into `∂k/∂p`. One distance + one shared transcendental per
    /// row instead of two of each; entries are bit-identical to
    /// [`cross_vec`](Self::cross_vec) and the factor inside
    /// [`grad_wrt_query`](Self::grad_wrt_query) (see
    /// [`rho_and_grad`]).
    pub fn cross_vec_grad_into(
        &self,
        x: &Matrix,
        p: &[f64],
        k_out: &mut [f64],
        gf_out: &mut [f64],
    ) {
        debug_assert_eq!(k_out.len(), x.rows());
        debug_assert_eq!(gf_out.len(), x.rows());
        for i in 0..x.rows() {
            let r = self.scaled_dist(x.row(i), p);
            let (rho, g) = rho_and_grad(r);
            k_out[i] = self.outputscale * rho;
            gf_out[i] = self.outputscale * g;
        }
    }

    /// Fill `out` with the squared lengthscales `ℓ_j²` (reusing its
    /// capacity; no allocation once it has warmed up to the dimension).
    /// Hot gradient loops hoist these out of their per-point inner loop;
    /// dividing by the precomputed product is bit-identical to dividing
    /// by `ℓ_j * ℓ_j` formed in place, so fused accumulations built on
    /// it (see `pbo_acq::posterior_with_grad_ws`) reproduce
    /// [`grad_wrt_query`](Self::grad_wrt_query) exactly.
    pub fn sq_lengthscales_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.lengthscales.iter().map(|l| l * l));
    }

    /// [`cross_vec_grad_into`](Self::cross_vec_grad_into) with the
    /// reciprocal lengthscales precomputed by the caller (`inv_ls[j] =
    /// 1/ℓ_j`, see [`inv_lengthscales_into`](Self::inv_lengthscales_into)):
    /// the per-element division inside the scaled distance becomes a
    /// multiplication, removing `n·d` divides per posterior call.
    /// Entries agree with the division form to a rounding ulp per
    /// coordinate — a reassociation, not a bit-identical rewrite, so the
    /// posterior hot path only selects this variant above the
    /// large-system threshold (`pbo_linalg::cholesky::BIT_EXACT_MAX_N`)
    /// where the bit-exactness guarantee is already off.
    pub fn cross_vec_grad_into_scaled(
        &self,
        x: &Matrix,
        p: &[f64],
        inv_ls: &[f64],
        k_out: &mut [f64],
        gf_out: &mut [f64],
    ) {
        debug_assert_eq!(k_out.len(), x.rows());
        debug_assert_eq!(gf_out.len(), x.rows());
        debug_assert_eq!(inv_ls.len(), p.len());
        for i in 0..x.rows() {
            let r = pbo_linalg::vec_ops::weighted_dist2(x.row(i), p, inv_ls).sqrt();
            let (rho, g) = rho_and_grad(r);
            k_out[i] = self.outputscale * rho;
            gf_out[i] = self.outputscale * g;
        }
    }

    /// Fill `out` with the reciprocal lengthscales `1/ℓ_j` (reusing its
    /// capacity), the weights
    /// [`cross_vec_grad_into_scaled`](Self::cross_vec_grad_into_scaled)
    /// wants.
    pub fn inv_lengthscales_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.lengthscales.iter().map(|l| 1.0 / l));
    }

    /// Fill `out` with the reciprocal squared lengthscales `1/ℓ_j²`
    /// (reusing its capacity), for division-free gradient accumulations
    /// on the large-system path.
    pub fn inv_sq_lengthscales_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.lengthscales.iter().map(|l| 1.0 / (l * l)));
    }

    /// Gradient of `k(p, b)` with respect to the query point `p`:
    /// `∂k/∂p_j = −s² g(r) (p_j − b_j)/ℓ_j²`, finite at `p = b` (the radial
    /// factor `g` absorbs the `1/r` singularity).
    pub fn grad_wrt_query(&self, p: &[f64], b: &[f64], out: &mut [f64]) {
        let r = self.scaled_dist(p, b);
        let gf = self.outputscale * grad_factor(r);
        self.grad_wrt_query_from_factor(gf, p, b, out);
    }

    /// [`grad_wrt_query`](Self::grad_wrt_query) with the radial factor
    /// `gf = s²·g(r)` already in hand (e.g. from
    /// [`cross_vec_grad_into`](Self::cross_vec_grad_into)).
    #[inline]
    pub fn grad_wrt_query_from_factor(&self, gf: f64, p: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), p.len());
        for j in 0..p.len() {
            let l2 = self.lengthscales[j] * self.lengthscales[j];
            out[j] = -gf * (p[j] - b[j]) / l2;
        }
    }

    /// [`cross_matrix`](Self::cross_matrix) into a caller-owned matrix
    /// which is reshaped in place (reusing its allocation when capacity
    /// allows). Entries are bit-identical.
    pub fn cross_matrix_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        out.reset_zeros(a.rows(), b.rows());
        self.fill_cross(a, b, out, |ra, rb| self.eval(ra, rb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_at_zero_is_one() {
        assert!((rho(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rho_decreases_monotonically() {
        let mut prev = rho(0.0);
        for i in 1..50 {
            let v = rho(i as f64 * 0.2);
            assert!(v < prev, "not decreasing");
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn fused_rho_and_grad_is_bitwise_identical() {
        for i in 0..200 {
            let r = i as f64 * 0.05;
            let (rho_r, gf) = rho_and_grad(r);
            assert_eq!(rho_r, rho(r), "rho at r={r}");
            assert_eq!(gf, grad_factor(r), "gf at r={r}");
        }
    }

    #[test]
    fn grad_factor_matches_finite_difference() {
        // Check ∂rho/∂log ℓ = g(r) d²/ℓ² numerically in 1-D.
        for &d in &[0.0, 0.1, 0.7, 2.0] {
            let ell = 0.6f64;
            let h = 1e-6f64;
            let r = |l: f64| rho(d / l);
            let fd = (r(ell * h.exp()) - r(ell * (-h).exp())) / (2.0 * h);
            // fd approximates d rho / d log ell
            let analytic = grad_factor(d / ell) * d * d / (ell * ell);
            assert!(
                (fd - analytic).abs() < 1e-5 * (1.0 + analytic.abs()),
                "d={d}: fd={fd} analytic={analytic}"
            );
        }
    }

    #[test]
    fn kernel_matrix_symmetric_psd_diag() {
        let k = Kernel { outputscale: 2.5, lengthscales: vec![0.3, 0.8] };
        let x = Matrix::from_rows(&[vec![0.1, 0.2], vec![0.5, 0.9], vec![0.4, 0.4]]).unwrap();
        let m = k.matrix(&x);
        for i in 0..3 {
            assert!((m[(i, i)] - 2.5).abs() < 1e-15);
            for j in 0..3 {
                assert_eq!(m[(i, j)], m[(j, i)]);
                assert!(m[(i, j)] <= 2.5 + 1e-12);
                assert!(m[(i, j)] > 0.0);
            }
        }
        // PSD: Cholesky with tiny jitter must succeed.
        let mut mj = m.clone();
        mj.add_diag(1e-9);
        assert!(pbo_linalg::Cholesky::factor(&mj).is_ok());
    }

    #[test]
    fn ard_lengthscales_modulate_relevance() {
        // A huge lengthscale in dim 1 makes that dim irrelevant.
        let k = Kernel { outputscale: 1.0, lengthscales: vec![0.2, 1e6] };
        let a = [0.0, 0.0];
        let b = [0.0, 100.0];
        assert!((k.eval(&a, &b) - 1.0).abs() < 1e-3);
        let c = [0.4, 0.0];
        assert!(k.eval(&a, &c) < 0.5);
    }

    #[test]
    fn sq_lengthscales_reproduce_inline_products() {
        let mut k = Kernel::new(3);
        k.lengthscales = vec![0.23, 0.61, 1.4];
        let mut l2 = Vec::new();
        k.sq_lengthscales_into(&mut l2);
        for (j, &v) in l2.iter().enumerate() {
            let inline = k.lengthscales[j] * k.lengthscales[j];
            assert!(v.to_bits() == inline.to_bits(), "l2[{j}]");
        }
    }

    #[test]
    fn cross_matrix_consistent_with_eval() {
        let k = Kernel::new(2);
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, 0.5]]).unwrap();
        let c = k.cross_matrix(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert!((c[(0, 0)] - k.eval(&[0.0, 0.0], &[0.5, 0.5])).abs() < 1e-15);
    }
}
