//! Sparse inducing-point GP regression (subset of regressors / FITC).
//!
//! The dense [`crate::gp::GaussianProcess`] costs `O(n³)` to build and
//! `O(n)`–`O(n²)` per prediction, which caps studies at a few thousand
//! observations. This backend approximates the prior with `m ≪ n`
//! *inducing points* `Z ⊂ X` (FITC, Snelson & Ghahramani 2006): with
//! `K_mm = k(Z, Z)`, `K_mn = k(Z, X)` and the Nyström approximation
//! `Q = K_nm K_mm⁻¹ K_mn`, the training covariance is replaced by
//! `Q + Λ`, where `Λ = diag(k(xᵢ,xᵢ) + σ_n² − qᵢᵢ)` keeps the exact
//! marginal variances (subset-of-regressors uses `Λ = σ_n² I`; FITC's
//! heteroskedastic diagonal is strictly better and free here).
//!
//! Everything is stored in the **whitened** parametrization
//! `K_mm = L Lᵀ`, `vᵢ = L⁻¹ k(Z, xᵢ)`:
//!
//! - `B = I + V Λ⁻¹ Vᵀ = L_B L_Bᵀ` (m×m),
//! - posterior mean `μ(x) = m̂ + k_m(x)ᵀ α` with
//!   `α = L⁻ᵀ B⁻¹ (V Λ⁻¹ r)` and `r = y_std − m̂·1`,
//! - posterior variance
//!   `σ²(x) = k(x,x) − uᵀ(I − B⁻¹)u` with `u = L⁻¹ k_m(x)`,
//!
//! so fitting is `O(n m²)` and prediction `O(m)` (mean) / `O(m²)`
//! (variance). The profiled constant trend `m̂` is carried through the
//! Woodbury identity: with `p₁ = V Λ⁻¹ 1`, `p_y = V Λ⁻¹ y_std`,
//! `s₁ = Σ 1/λᵢ`, `s_y = Σ yᵢ/λᵢ`,
//! `1ᵀK⁻¹1 = s₁ − p₁ᵀB⁻¹p₁` and `1ᵀK⁻¹y = s_y − p₁ᵀB⁻¹p_y`, which
//! also makes `O(m³)` appends possible without revisiting old points.
//!
//! **Inducing-point selection** is a deterministic greedy pivoted
//! Cholesky on the training kernel: repeatedly pick the point with the
//! largest residual diagonal (lowest index on ties), append its
//! normalized residual column, and downdate — the classic
//! trace-norm-greedy Nyström rule (Fine & Scheinberg 2001). No `n×n`
//! matrix is ever formed.
//!
//! **Determinism.** The `n×m` cross-kernel assembly, the per-row
//! whitening solves, and the pivoted-Cholesky column updates fan out
//! over [`pbo_linalg::parallel`] in row bands; every row's arithmetic
//! is a fixed serial sequence and band boundaries only decide *which
//! worker* computes a row, never *what* it computes — the same policy
//! as the dense `L⁻ᵀ` rows and MLL contraction. The `B` accumulation is a
//! row-banded SYRK with a fixed per-element summation order, and the
//! scalar reductions (`p₁`, `p_y`, `s₁`, `s_y`, pivot argmax) are
//! serial. Results are therefore bitwise identical for any thread
//! count (pinned by the determinism suite).

use crate::gp::{banded_sq_colsums, PredictWorkspace, MIN_SCALE};
use crate::kernel::Kernel;
use crate::{GpError, Result};
use pbo_linalg::parallel::for_each_row_chunk;
use pbo_linalg::vec_ops::dot;
use pbo_linalg::{Cholesky, Matrix};

/// Relative residual-diagonal tolerance at which greedy selection stops
/// early (the remaining points are numerically inside the span of the
/// selected ones).
const SELECT_TOL_REL: f64 = 1e-12;

/// Sparse inducing-point GP with constant trend and homoskedastic
/// noise, mirroring the dense [`crate::gp::GaussianProcess`] contract
/// (standardized targets, profiled trend, latent predictive variance on
/// the raw scale).
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    kernel: Kernel,
    noise: f64,
    /// All training inputs (kept for appends and `best_observed`).
    x: Matrix,
    /// Standardized targets.
    y_std: Vec<f64>,
    shift: f64,
    scale: f64,
    /// Inducing inputs (`m_eff × d`, rows of `x` in pivot order).
    z: Matrix,
    /// Cholesky factor of `K_mm` (jitter-stabilised).
    l_mm: Cholesky,
    /// `B = I + V Λ⁻¹ Vᵀ`, kept whole so appends can rank-update it and
    /// refactor in `O(m³)`.
    b_mat: Matrix,
    l_b: Cholesky,
    /// Woodbury accumulators for the profiled trend (see module docs).
    p1: Vec<f64>,
    py: Vec<f64>,
    s1: f64,
    sy: f64,
    /// Profiled constant trend (standardized scale).
    trend: f64,
    /// `α = L⁻ᵀ B⁻¹ (p_y − m̂ p₁)`; posterior mean weights over `z`.
    alpha: Vec<f64>,
}

impl SparseGaussianProcess {
    /// Build a sparse GP on raw data with at most `m` inducing points
    /// selected by greedy pivoted Cholesky. Fails on empty/ragged data
    /// or a kernel of the wrong dimension (same contract as the dense
    /// constructor).
    pub fn new(x: Matrix, y: &[f64], kernel: Kernel, noise: f64, m: usize) -> Result<Self> {
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
        Self::from_standardized(x, y_std, shift, scale, kernel, noise, m)
    }

    /// Build from already-standardized targets (frozen-standardization
    /// rebuilds, e.g. the engine's dense→sparse hand-over between full
    /// fits).
    pub(crate) fn from_standardized(
        x: Matrix,
        y_std: Vec<f64>,
        shift: f64,
        scale: f64,
        kernel: Kernel,
        noise: f64,
        m: usize,
    ) -> Result<Self> {
        let sel = select_inducing(&kernel, &x, m.clamp(1, x.rows()));
        let mut z = Matrix::zeros(sel.len(), x.cols());
        for (r, &i) in sel.iter().enumerate() {
            z.row_mut(r).copy_from_slice(x.row(i));
        }
        Self::build(x, y_std, shift, scale, kernel, noise, z)
    }

    /// Core whitened build for a fixed inducing set `z`.
    fn build(
        x: Matrix,
        y_std: Vec<f64>,
        shift: f64,
        scale: f64,
        kernel: Kernel,
        noise: f64,
        z: Matrix,
    ) -> Result<Self> {
        let n = x.rows();
        let m = z.rows();
        let kmm = kernel.matrix(&z);
        let l_mm = Cholesky::factor(&kmm)?;
        // Whitened cross block: row i of `v` becomes vᵢ = L⁻¹ k(Z, xᵢ).
        // The assembly is the parallel row-banded kernel path; the
        // per-row forward solves are independent, so they fan out over
        // the same row bands, bitwise identical at any thread count.
        let mut v = kernel.cross_matrix(&x, &z); // n × m
        for_each_row_chunk(v.as_mut_slice(), m, n * m * m, |_i, row| {
            l_mm.solve_lower_in_place(row);
        });
        // FITC diagonal and the linear Woodbury accumulators; serial
        // O(nm), one fixed summation order.
        let pv = kernel.prior_var();
        let lam_floor = noise.max(1e-12);
        let mut p1 = vec![0.0; m];
        let mut py = vec![0.0; m];
        let (mut s1, mut sy) = (0.0, 0.0);
        let mut inv_sqrt_lam = vec![0.0; n];
        for i in 0..n {
            let row = v.row(i);
            let lam = (pv + noise - dot(row, row)).max(lam_floor);
            let il = 1.0 / lam;
            s1 += il;
            sy += y_std[i] * il;
            for (j, &vj) in row.iter().enumerate() {
                p1[j] += vj * il;
                py[j] += vj * y_std[i] * il;
            }
            inv_sqrt_lam[i] = il.sqrt();
        }
        // B = I + (Λ^{-1/2}V ᵀ)ᵀ(Λ^{-1/2}Vᵀ): scale the rows in place,
        // then one SYRK through the parallel row-banded matmul (each
        // output row is a fixed sequence of contiguous dots).
        for i in 0..n {
            let s = inv_sqrt_lam[i];
            for vv in v.row_mut(i) {
                *vv *= s;
            }
        }
        let vt = v.transpose(); // m × n
        let mut b_mat = vt.matmul_nt(&vt)?; // V Λ⁻¹ Vᵀ
        b_mat.add_diag(1.0);
        let l_b = Cholesky::factor(&b_mat)?;
        let (trend, alpha) = trend_and_alpha(&l_mm, &l_b, &p1, &py, s1, sy)?;
        Ok(SparseGaussianProcess {
            kernel,
            noise,
            x,
            y_std,
            shift,
            scale,
            z,
            l_mm,
            b_mat,
            l_b,
            p1,
            py,
            s1,
            sy,
            trend,
            alpha,
        })
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Number of inducing points actually selected (may be below the
    /// requested `m` when the greedy residual hits its tolerance).
    pub fn m(&self) -> usize {
        self.z.rows()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Homoskedastic noise variance (standardized scale).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// All training inputs.
    pub fn train_x(&self) -> &Matrix {
        &self.x
    }

    /// The inducing inputs `Z` — the support set cross-covariances are
    /// evaluated against.
    pub fn inducing_x(&self) -> &Matrix {
        &self.z
    }

    /// Training targets on the raw scale.
    pub fn train_y_raw(&self) -> Vec<f64> {
        self.y_std.iter().map(|v| v * self.scale + self.shift).collect()
    }

    /// Standardization `(shift, scale)`.
    pub fn standardization(&self) -> (f64, f64) {
        (self.shift, self.scale)
    }

    /// Profiled constant trend on the standardized scale.
    pub fn trend_std(&self) -> f64 {
        self.trend
    }

    /// Posterior-mean weights over the inducing set:
    /// `μ_std(x) = trend + k(Z, x)·weights`.
    pub fn weights(&self) -> &[f64] {
        &self.alpha
    }

    /// Best (lowest/highest) observed raw target over **all** training
    /// points (not just the inducing set).
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

    /// Posterior mean and **latent** variance at one point, raw scale —
    /// `O(m²)` via the two forward solves `u = L⁻¹k_m`, `w = L_B⁻¹u`:
    /// `σ²_std = k(x,x) − (‖u‖² − ‖w‖²)`.
    pub fn predict(&self, p: &[f64]) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim());
        let k = self.kernel.cross_vec(&self.z, p);
        let mean_std = self.trend + dot(&k, &self.alpha);
        let mut u = k;
        self.l_mm.solve_lower_in_place(&mut u);
        let t = dot(&u, &u);
        self.l_b.solve_lower_in_place(&mut u);
        let var_std = (self.kernel.prior_var() - (t - dot(&u, &u))).max(1e-14);
        (mean_std * self.scale + self.shift, var_std * self.scale * self.scale)
    }

    /// Standardized posterior mean and variance at `p`, leaving in `ws`
    /// the intermediates the acquisition gradient needs — the same
    /// contract as the dense
    /// [`crate::gp::GaussianProcess::posterior_parts_with`], with the
    /// inducing set as the support: `ws.cross()` = `k(Z, p)`,
    /// `ws.solved()` = `A k` for the posterior operator
    /// `A = L⁻ᵀ(I − B⁻¹)L⁻¹`, `ws.grad_factors()` = the radial factors
    /// for `∂k/∂p` over `Z`.
    pub fn posterior_parts_with(&self, p: &[f64], ws: &mut PredictWorkspace) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim());
        let m = self.m();
        ws.ensure(m);
        if m > pbo_linalg::cholesky::BIT_EXACT_MAX_N {
            self.kernel.inv_lengthscales_into(&mut ws.inv_ls);
            self.kernel.cross_vec_grad_into_scaled(&self.z, p, &ws.inv_ls, &mut ws.k, &mut ws.gf);
        } else {
            self.kernel.cross_vec_grad_into(&self.z, p, &mut ws.k, &mut ws.gf);
        }
        let mean_std = self.trend + dot(&ws.k, &self.alpha);
        // c = A k = L⁻ᵀ (u − B⁻¹ u), u = L⁻¹ k.
        ws.c.copy_from_slice(&ws.k);
        self.l_mm.solve_lower_in_place(&mut ws.c);
        ws.w.copy_from_slice(&ws.c);
        self.l_b.solve_lower_in_place(&mut ws.w);
        self.l_b.solve_lower_t_in_place(&mut ws.w);
        for (c, w) in ws.c.iter_mut().zip(&ws.w) {
            *c -= w;
        }
        self.l_mm.solve_lower_t_in_place(&mut ws.c);
        let var_std = (self.kernel.prior_var() - dot(&ws.k, &ws.c)).max(1e-14);
        (mean_std, var_std)
    }

    /// Posterior mean only (one `O(m)` dot product).
    pub fn predict_mean(&self, p: &[f64]) -> f64 {
        let k = self.kernel.cross_vec(&self.z, p);
        (self.trend + dot(&k, &self.alpha)) * self.scale + self.shift
    }

    /// Batched prediction: means and latent variances for each row of
    /// `pts`, `O(m² q)` total.
    pub fn predict_many(&self, pts: &Matrix) -> (Vec<f64>, Vec<f64>) {
        let q = pts.rows();
        if q == 0 {
            return (Vec::new(), Vec::new());
        }
        debug_assert_eq!(pts.cols(), self.dim());
        let mut u = self.kernel.cross_matrix(&self.z, pts); // m × q
        let kta = u.matvec_t(&self.alpha).expect("alpha length m");
        let means: Vec<f64> =
            kta.iter().map(|v| (self.trend + v) * self.scale + self.shift).collect();
        self.l_mm.solve_lower_multi_in_place(&mut u);
        let mut w = u.clone();
        self.l_b.solve_lower_multi_in_place(&mut w);
        let tu = banded_sq_colsums(&u);
        let tw = banded_sq_colsums(&w);
        let pv = self.kernel.prior_var();
        let s2 = self.scale * self.scale;
        let vars: Vec<f64> = tu
            .iter()
            .zip(&tw)
            .map(|(a, b)| (pv - (a - b)).max(1e-14) * s2)
            .collect();
        (means, vars)
    }

    /// Joint posterior over the rows of `pts`: mean vector and full
    /// latent covariance `K** − K*ᵀ A K*` (exact prior block, Nyström
    /// cross terms), raw scale. PSD because `A ⪯ K_mm⁻¹` makes the
    /// subtracted term dominated by the Nyström `Q**` ⪯ `K**`.
    pub fn posterior_joint(&self, pts: &Matrix) -> Result<(Vec<f64>, Matrix)> {
        if pts.cols() != self.dim() {
            return Err(GpError::BadTrainingData(format!(
                "query dim {} vs model dim {}",
                pts.cols(),
                self.dim()
            )));
        }
        let q = pts.rows();
        let kxq = self.kernel.cross_matrix(&self.z, pts); // m × q
        let kta = kxq.matvec_t(&self.alpha).expect("alpha length m");
        let means: Vec<f64> =
            kta.iter().map(|v| (self.trend + v) * self.scale + self.shift).collect();
        let mut c = kxq.clone();
        self.cov_solve_matrix_in_place(&mut c)?; // C = A K*
        // K*ᵀ C accumulated row-major over the m support rows (lower
        // triangle, mirrored exactly for symmetry).
        let mut vtv = Matrix::zeros(q, q);
        for i in 0..kxq.rows() {
            let rk = kxq.row(i);
            let rc = c.row(i);
            for a in 0..q {
                let ka = rk[a];
                let out = vtv.row_mut(a);
                for b in 0..=a {
                    out[b] += ka * rc[b];
                }
            }
        }
        let s2 = self.scale * self.scale;
        let mut cov = Matrix::zeros(q, q);
        for a in 0..q {
            for b in 0..=a {
                let kab = self.kernel.eval(pts.row(a), pts.row(b));
                let cv = (kab - vtv[(a, b)]) * s2;
                cov[(a, b)] = cv;
                cov[(b, a)] = cv;
            }
        }
        for a in 0..q {
            if cov[(a, a)] < 1e-14 * s2 {
                cov[(a, a)] = 1e-14 * s2;
            }
        }
        Ok((means, cov))
    }

    /// Apply the posterior operator `A = L⁻ᵀ(I − B⁻¹)L⁻¹` to each
    /// column of `b` (an `m × q` cross block against the inducing set),
    /// in place — the sparse analogue of the dense `K_y⁻¹` solve.
    pub fn cov_solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        self.l_mm.solve_lower_multi_in_place(b); // U
        let mut w = b.clone();
        self.l_b.solve_lower_multi_in_place(&mut w);
        self.l_b.solve_lower_t_multi_in_place(&mut w); // B⁻¹U
        let bs = b.as_mut_slice();
        for (bv, wv) in bs.iter_mut().zip(w.as_slice()) {
            *bv -= wv;
        }
        self.l_mm.solve_lower_t_multi_in_place(b);
        Ok(())
    }

    /// Apply the posterior operator `A` to one vector (see
    /// [`cov_solve_matrix_in_place`](Self::cov_solve_matrix_in_place)).
    pub fn cov_solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut u = b.to_vec();
        self.l_mm.solve_lower_in_place(&mut u);
        let mut w = u.clone();
        self.l_b.solve_lower_in_place(&mut w);
        self.l_b.solve_lower_t_in_place(&mut w);
        for (uv, wv) in u.iter_mut().zip(&w) {
            *uv -= wv;
        }
        self.l_mm.solve_lower_t_in_place(&mut u);
        Ok(u)
    }

    /// Condition on additional observations, in place, without refitting
    /// the hyperparameters or moving the inducing set, in `O(m² q + m³)`:
    /// each new point contributes a rank-1 update to `B` and its
    /// Woodbury terms, then `B` is refactored and the trend/weights
    /// recomputed. `ys` are on the **raw** target scale; the frozen
    /// standardization is reused. On any error the model is unchanged:
    /// the `O(m²)` state is updated in copies and committed only once
    /// `B` factors, and the inputs grow in their own buffer.
    ///
    /// Serves both the Kriging-Believer fantasy loop and the engine's
    /// cheap real-data append between full refits.
    pub fn condition_on(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        if xs.len() != ys.len() {
            return Err(GpError::BadTrainingData("xs/ys length mismatch".into()));
        }
        if xs.is_empty() {
            return Ok(());
        }
        for p in xs {
            if p.len() != self.dim() {
                return Err(GpError::BadTrainingData("new point dimension".into()));
            }
        }
        if !ys.iter().all(|v| v.is_finite()) {
            return Err(GpError::BadTrainingData("non-finite target".into()));
        }
        let m = self.m();
        let pv = self.kernel.prior_var();
        let lam_floor = self.noise.max(1e-12);
        let mut b_mat = self.b_mat.clone();
        let mut p1 = self.p1.clone();
        let mut py = self.py.clone();
        let (mut s1, mut sy) = (self.s1, self.sy);
        let mut new_y = Vec::with_capacity(xs.len());
        for (p, &yr) in xs.iter().zip(ys) {
            let yv = (yr - self.shift) / self.scale;
            let mut v = self.kernel.cross_vec(&self.z, p);
            self.l_mm.solve_lower_in_place(&mut v);
            let lam = (pv + self.noise - dot(&v, &v)).max(lam_floor);
            let il = 1.0 / lam;
            s1 += il;
            sy += yv * il;
            for (j, &vj) in v.iter().enumerate() {
                p1[j] += vj * il;
                py[j] += vj * yv * il;
            }
            for a in 0..m {
                let va = v[a] * il;
                let row = b_mat.row_mut(a);
                for (b, &vb) in v.iter().enumerate() {
                    row[b] += va * vb;
                }
            }
            new_y.push(yv);
        }
        let l_b = Cholesky::factor(&b_mat)?;
        let (trend, alpha) = trend_and_alpha(&self.l_mm, &l_b, &p1, &py, s1, sy)?;
        let (n, d) = (self.n(), self.dim());
        self.x.restride(n + xs.len(), d);
        for (i, p) in xs.iter().enumerate() {
            self.x.row_mut(n + i).copy_from_slice(p);
        }
        self.y_std.reserve_exact(new_y.len());
        self.y_std.extend(new_y);
        (self.b_mat, self.l_b, self.p1, self.py) = (b_mat, l_b, p1, py);
        (self.s1, self.sy, self.trend, self.alpha) = (s1, sy, trend, alpha);
        Ok(())
    }
}

/// Profiled trend and posterior weights from the whitened state.
fn trend_and_alpha(
    l_mm: &Cholesky,
    l_b: &Cholesky,
    p1: &[f64],
    py: &[f64],
    s1: f64,
    sy: f64,
) -> Result<(f64, Vec<f64>)> {
    let binv_p1 = l_b.solve(p1)?;
    let binv_py = l_b.solve(py)?;
    let t0 = s1 - dot(p1, &binv_p1);
    let trend = if t0.abs() > 1e-300 { (sy - dot(p1, &binv_py)) / t0 } else { 0.0 };
    let g: Vec<f64> = py.iter().zip(p1).map(|(a, b)| a - trend * b).collect();
    let mut alpha = l_b.solve(&g)?;
    l_mm.solve_lower_t_in_place(&mut alpha);
    Ok((trend, alpha))
}

/// Greedy pivoted-Cholesky inducing-point selection: residual diagonals
/// start at the prior variance; each round picks the largest residual
/// (lowest index on ties, a strict serial argmax), appends the
/// normalized residual kernel column and downdates. Stops early once
/// the best residual falls below `SELECT_TOL_REL`× the prior variance.
///
/// The per-row column update `(k(xᵢ, x_p) − Lᵢ·L_p) / √d_p` fans out
/// over row bands; rows are independent, so the result is bitwise
/// identical for any thread count.
fn select_inducing(kernel: &Kernel, x: &Matrix, m: usize) -> Vec<usize> {
    let n = x.rows();
    let d_in = x.cols();
    let pv = kernel.prior_var();
    let tol = SELECT_TOL_REL * pv;
    let mut diag = vec![pv; n];
    let mut lnm = Matrix::zeros(n, m);
    let mut sel = Vec::with_capacity(m);
    let mut col = vec![0.0; n];
    for j in 0..m {
        let mut p = 0usize;
        let mut best = f64::NEG_INFINITY;
        for (i, &di) in diag.iter().enumerate() {
            if di > best {
                best = di;
                p = i;
            }
        }
        if best <= tol {
            break;
        }
        let sqrt_dp = best.sqrt();
        let prow: Vec<f64> = lnm.row(p)[..j].to_vec();
        let xp: Vec<f64> = x.row(p).to_vec();
        for_each_row_chunk(&mut col, 1, n * (j + 6 * d_in), |i, slot| {
            let kip = kernel.eval(x.row(i), &xp);
            slot[0] = (kip - dot(&lnm.row(i)[..j], &prow)) / sqrt_dp;
        });
        for (i, &c) in col.iter().enumerate() {
            lnm[(i, j)] = c;
            diag[i] -= c * c;
        }
        diag[p] = 0.0;
        sel.push(p);
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GaussianProcess;
    use crate::kernel::KernelType;

    fn grid_data(n: usize) -> (Matrix, Vec<f64>) {
        // Deterministic 2-D low-discrepancy-ish grid with a smooth target.
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 + 0.5) / n as f64;
            let b = (i as f64 * 0.618_033_988_749_895) % 1.0;
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push((3.0 * a).sin() + (b - 0.4) * (b - 0.4) + 7.0);
        }
        (x, y)
    }

    fn test_kernel() -> Kernel {
        let mut k = Kernel::new(KernelType::Matern52, 2);
        k.lengthscales = vec![0.4, 0.4];
        k
    }

    #[test]
    fn full_inducing_set_matches_dense_gp() {
        // With m = n the Nyström approximation is exact and the FITC
        // diagonal collapses to the plain noise, so the sparse posterior
        // must agree with the dense one to numerical precision.
        let (x, y) = grid_data(24);
        let dense = GaussianProcess::new(x.clone(), &y, test_kernel(), 1e-4).unwrap();
        let sparse = SparseGaussianProcess::new(x, &y, test_kernel(), 1e-4, 24).unwrap();
        assert_eq!(sparse.m(), 24);
        for t in 0..12 {
            let p = [t as f64 * 0.09, (t as f64 * 0.13) % 1.0];
            let (md, vd) = dense.predict(&p);
            let (ms, vs) = sparse.predict(&p);
            assert!((md - ms).abs() < 1e-6 * (1.0 + md.abs()), "mean {ms} vs {md}");
            assert!((vd - vs).abs() < 1e-6 * (1.0 + vd.abs()), "var {vs} vs {vd}");
        }
    }

    #[test]
    fn few_inducing_points_still_sensible() {
        let (x, y) = grid_data(120);
        let gp = SparseGaussianProcess::new(x.clone(), &y, test_kernel(), 1e-4, 20).unwrap();
        assert_eq!(gp.m(), 20);
        assert_eq!(gp.n(), 120);
        // In-sample means should be accurate for a smooth function.
        let mut worst: f64 = 0.0;
        for i in 0..x.rows() {
            worst = worst.max((gp.predict_mean(x.row(i)) - y[i]).abs());
        }
        let spread = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - y.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(worst < 0.1 * spread, "worst {worst} vs spread {spread}");
        // Variance grows away from the data.
        let (_, v_in) = gp.predict(&[0.5, 0.5]);
        let (_, v_out) = gp.predict(&[4.0, -3.0]);
        assert!(v_out > 5.0 * v_in, "{v_out} vs {v_in}");
    }

    #[test]
    fn duplicate_points_shrink_the_inducing_set() {
        let mut x = Matrix::zeros(10, 1);
        for i in 0..10 {
            x[(i, 0)] = (i % 3) as f64 * 0.3; // only 3 distinct sites
        }
        let y: Vec<f64> = (0..10).map(|i| (i % 3) as f64).collect();
        let mut k = Kernel::new(KernelType::Matern52, 1);
        k.lengthscales = vec![0.5];
        let gp = SparseGaussianProcess::new(x, &y, k, 1e-4, 8).unwrap();
        assert_eq!(gp.m(), 3, "duplicates must early-stop the pivoted Cholesky");
        let (mean, var) = gp.predict(&[0.3]);
        assert!(mean.is_finite() && var.is_finite());
    }

    #[test]
    fn predict_many_and_joint_match_pointwise() {
        let (x, y) = grid_data(80);
        let gp = SparseGaussianProcess::new(x, &y, test_kernel(), 1e-4, 16).unwrap();
        let qs: Vec<Vec<f64>> =
            (0..9).map(|i| vec![i as f64 * 0.11, (i as f64 * 0.37) % 1.0]).collect();
        let pts = Matrix::from_rows(&qs).unwrap();
        let (means, vars) = gp.predict_many(&pts);
        let (jm, cov) = gp.posterior_joint(&pts).unwrap();
        for (i, p) in qs.iter().enumerate() {
            let (m, v) = gp.predict(p);
            assert!((means[i] - m).abs() < 1e-10 * (1.0 + m.abs()));
            assert!((vars[i] - v).abs() < 1e-10 * (1.0 + v.abs()));
            assert!((jm[i] - m).abs() < 1e-10 * (1.0 + m.abs()));
            assert!((cov[(i, i)] - v).abs() < 1e-8 * (1.0 + v.abs()));
        }
        // Joint covariance is symmetric with bounded correlations.
        for a in 0..qs.len() {
            for b in 0..a {
                assert_eq!(cov[(a, b)].to_bits(), cov[(b, a)].to_bits());
                let corr = cov[(a, b)] / (cov[(a, a)] * cov[(b, b)]).sqrt();
                assert!(corr.abs() <= 1.0 + 1e-9, "corr {corr}");
            }
        }
    }

    #[test]
    fn posterior_parts_match_predict() {
        let (x, y) = grid_data(60);
        let gp = SparseGaussianProcess::new(x, &y, test_kernel(), 1e-4, 12).unwrap();
        let mut ws = PredictWorkspace::new();
        for t in 0..8 {
            let p = [t as f64 * 0.12, (t as f64 * 0.29) % 1.0];
            let (mean_std, var_std) = gp.posterior_parts_with(&p, &mut ws);
            let (m, v) = gp.predict(&p);
            let (shift, scale) = gp.standardization();
            assert!((mean_std * scale + shift - m).abs() < 1e-10 * (1.0 + m.abs()));
            assert!((var_std * scale * scale - v).abs() < 1e-9 * (1.0 + v.abs()));
            // The solved vector reproduces the variance identity
            // var = prior − kᵀ(A k).
            let k = gp.kernel().cross_vec(gp.inducing_x(), &p);
            let c = gp.cov_solve_vec(&k).unwrap();
            let var_ref = (gp.kernel().prior_var() - dot(&k, &c)).max(1e-14);
            assert!((var_std - var_ref).abs() < 1e-12 * (1.0 + var_ref));
        }
    }

    #[test]
    fn condition_on_matches_full_rebuild() {
        let (x, y) = grid_data(50);
        let gp = SparseGaussianProcess::new(x.clone(), &y, test_kernel(), 1e-4, 12).unwrap();
        let new_x = vec![vec![0.21, 0.43], vec![0.77, 0.11]];
        let new_y = vec![7.8, 6.9];
        let mut upd = gp.clone();
        upd.condition_on(&new_x, &new_y).unwrap();
        assert_eq!(upd.n(), 52);

        // Rebuild on the stacked data with the same frozen inducing set
        // and standardization.
        let mut xs = x;
        for p in &new_x {
            xs.push_row(p).unwrap();
        }
        let (shift, scale) = gp.standardization();
        let mut y_std = gp.y_std.clone();
        y_std.extend(new_y.iter().map(|v| (v - shift) / scale));
        let rebuilt = SparseGaussianProcess::build(
            xs,
            y_std,
            shift,
            scale,
            gp.kernel().clone(),
            gp.noise(),
            gp.inducing_x().clone(),
        )
        .unwrap();
        for t in 0..10 {
            let p = [t as f64 * 0.1, (t as f64 * 0.31) % 1.0];
            let (m1, v1) = upd.predict(&p);
            let (m2, v2) = rebuilt.predict(&p);
            assert!((m1 - m2).abs() < 1e-8 * (1.0 + m2.abs()), "mean {m1} vs {m2}");
            assert!((v1 - v2).abs() < 1e-8 * (1.0 + v2.abs()), "var {v1} vs {v2}");
        }
    }

    #[test]
    fn condition_on_empty_is_noop_and_bad_input_rejected() {
        let (x, y) = grid_data(30);
        let gp = SparseGaussianProcess::new(x, &y, test_kernel(), 1e-4, 8).unwrap();
        let mut same = gp.clone();
        same.condition_on(&[], &[]).unwrap();
        assert_eq!(same.n(), gp.n());
        assert!(same.condition_on(&[vec![0.1, 0.2]], &[]).is_err());
        assert!(same.condition_on(&[vec![0.1]], &[1.0]).is_err());
        assert!(same.condition_on(&[vec![0.1, 0.2]], &[f64::NAN]).is_err());
        assert_eq!(same.train_x(), gp.train_x());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&same.y_std), bits(&gp.y_std));
        assert_eq!(bits(same.weights()), bits(gp.weights()));
        assert_eq!(same.b_mat, gp.b_mat);
    }

    #[test]
    fn rejects_bad_input() {
        let k = test_kernel();
        assert!(SparseGaussianProcess::new(Matrix::zeros(0, 2), &[], k.clone(), 1e-4, 4).is_err());
        let x = Matrix::from_rows(&[vec![0.1, 0.2]]).unwrap();
        assert!(SparseGaussianProcess::new(x.clone(), &[1.0, 2.0], k.clone(), 1e-4, 4).is_err());
        assert!(SparseGaussianProcess::new(x.clone(), &[f64::NAN], k.clone(), 1e-4, 4).is_err());
        let k1 = Kernel::new(KernelType::Matern52, 1);
        assert!(SparseGaussianProcess::new(x, &[1.0], k1, 1e-4, 4).is_err());
    }
}
