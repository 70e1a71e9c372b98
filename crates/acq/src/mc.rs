//! Monte-Carlo q-EI over a joint batch, with analytic gradients.
//!
//! The q-point Expected Improvement
//!
//! `qEI(X) = E[ max_j (f_best − Y_j)_+ ],  Y ~ N(μ(X), Σ(X))`
//!
//! is estimated with the reparameterization trick and **fixed**
//! quasi-Monte-Carlo base samples `Z` (sample-average approximation):
//! `Y^(m) = μ + L z^(m)` with `Σ = L Lᵀ`. Fixing `Z` makes the
//! estimator a smooth deterministic function of the batch `X`, which
//! multistart L-BFGS can optimize — exactly BoTorch's construction
//! (Balandat et al. 2020, Wilson et al. 2017), except the gradient is
//! derived by hand:
//!
//! 1. per-sample subgradients land on the best element `j*`:
//!    `∂val/∂μ_{j*} = −1`, `∂val/∂L_{j*,b} = −z_b`,
//! 2. the Cholesky adjoint is pulled back to `Σ̄` ([`crate::pullback`]),
//! 3. `Σ̄` and `μ̄` are chained through the GP posterior to the batch
//!    coordinates using the kernel's query-point gradients.

use crate::pullback::chol_pullback;
use pbo_gp::GaussianProcess;
use pbo_linalg::vec_ops::dot;
use pbo_linalg::{Cholesky, Matrix};
use pbo_opt::multistart::{minimize_multistart, MultistartConfig};
use pbo_opt::{Bounds, FnGradObjective};
use pbo_sampling::{normal, sobol::Sobol};
use std::cell::RefCell;

/// Reusable buffers for the q-EI posterior and gradient hot path. The
/// dominant per-call allocations of the original implementation — the
/// `n × q` cross-covariance and solve blocks plus the `q × q` and
/// `d × q` gradient scratch — live here and are recycled across calls
/// (one workspace per thread via `thread_local!`, so the multistart can
/// polish starts on scoped threads without sharing).
struct QeiWorkspace {
    kxq: Matrix,
    c: Matrix,
    vtv: Matrix,
    sigma: Matrix,
    /// Recycled Cholesky storage, round-tripped through
    /// [`Cholesky::factor_reusing`] / [`Cholesky::into_l`].
    chol_buf: Matrix,
    mu: Vec<f64>,
    mu_bar: Vec<f64>,
    l_bar: Matrix,
    y: Vec<f64>,
    kbuf: Vec<f64>,
    e: Matrix,
    dmu: Vec<f64>,
    pts: Matrix,
}

impl QeiWorkspace {
    fn new() -> Self {
        let empty = || Matrix::zeros(0, 0);
        QeiWorkspace {
            kxq: empty(),
            c: empty(),
            vtv: empty(),
            sigma: empty(),
            chol_buf: empty(),
            mu: Vec::new(),
            mu_bar: Vec::new(),
            l_bar: empty(),
            y: Vec::new(),
            kbuf: Vec::new(),
            e: empty(),
            dmu: Vec::new(),
            pts: empty(),
        }
    }
}

thread_local! {
    static QEI_WS: RefCell<QeiWorkspace> = RefCell::new(QeiWorkspace::new());
}

/// Monte-Carlo q-EI with fixed qMC base samples.
#[derive(Debug, Clone)]
pub struct QExpectedImprovement {
    /// Incumbent (best observed) objective value (minimization).
    pub f_best: f64,
    /// Batch size q.
    pub q: usize,
    /// Base samples, `n_samples x q`, standard normal.
    base: Matrix,
}

impl QExpectedImprovement {
    /// Create with `n_samples` scrambled-Sobol normal base samples.
    pub fn new(f_best: f64, q: usize, n_samples: usize, seed: u64) -> Self {
        assert!(q >= 1 && n_samples >= 1);
        let mut sobol = Sobol::scrambled(q, seed);
        let mut base = Matrix::zeros(n_samples, q);
        for m in 0..n_samples {
            let u = sobol.next_point();
            for j in 0..q {
                // Clamp away from {0,1}: the XOR scramble can emit exact
                // zeros which the quantile maps to −∞.
                base[(m, j)] = normal::inv_cdf(u[j].clamp(1e-12, 1.0 - 1e-12));
            }
        }
        QExpectedImprovement { f_best, q, base }
    }

    /// Number of MC samples.
    pub fn n_samples(&self) -> usize {
        self.base.rows()
    }

    /// Posterior pieces shared by value and gradient: cross-covariances,
    /// solved columns and raw means land in `ws`; the raw-covariance
    /// Cholesky is returned (its storage is recycled from
    /// `ws.chol_buf` — hand it back with `ws.chol_buf = chol.into_l()`
    /// when done).
    fn posterior_into(
        &self,
        gp: &GaussianProcess,
        pts: &Matrix,
        ws: &mut QeiWorkspace,
    ) -> Option<Cholesky> {
        let q = self.q;
        let kernel = gp.kernel();
        let train = gp.train_x();
        let (shift, scale) = gp.standardization();
        let s2 = scale * scale;
        kernel.cross_matrix_into(train, pts, &mut ws.kxq); // n x q
                                                           // C = K_y⁻¹ K(x, pts): one blocked multi-RHS solve in place
                                                           // instead of q single-column solve/copy trips.
        ws.c.reset_zeros(train.rows(), q);
        ws.c.as_mut_slice().copy_from_slice(ws.kxq.as_slice());
        gp.chol().solve_matrix_in_place(&mut ws.c).ok()?;
        let kta = ws.kxq.matvec_t(gp.weights()).expect("alpha length n");
        ws.mu.clear();
        ws.mu.extend(kta.iter().map(|v| (gp.trend_std() + v) * scale + shift));
        // Σ = K** − KxqᵀC, the quadratic term accumulated row-major over
        // the training points (contiguous passes over both factors).
        ws.vtv.reset_zeros(q, q);
        for i in 0..train.rows() {
            let kr = ws.kxq.row(i);
            let cr = ws.c.row(i);
            for a in 0..q {
                let ka = kr[a];
                let out = ws.vtv.row_mut(a);
                for b in 0..=a {
                    out[b] += ka * cr[b];
                }
            }
        }
        ws.sigma.reset_zeros(q, q);
        for a in 0..q {
            for b in 0..=a {
                let v = (kernel.eval(pts.row(a), pts.row(b)) - ws.vtv[(a, b)]) * s2;
                ws.sigma[(a, b)] = v;
                ws.sigma[(b, a)] = v;
            }
        }
        for a in 0..q {
            if ws.sigma[(a, a)] < 1e-13 * s2.max(1e-300) {
                ws.sigma[(a, a)] = 1e-13 * s2.max(1e-300);
            }
        }
        let buf = std::mem::replace(&mut ws.chol_buf, Matrix::zeros(0, 0));
        Cholesky::factor_reusing(&ws.sigma, buf).ok()
    }

    /// qEI value at a batch given as rows of `pts` (q x d).
    pub fn value(&self, gp: &GaussianProcess, pts: &Matrix) -> f64 {
        assert_eq!(pts.rows(), self.q);
        QEI_WS.with(|w| {
            let ws = &mut *w.borrow_mut();
            let Some(chol) = self.posterior_into(gp, pts, ws) else {
                return f64::NEG_INFINITY;
            };
            let l = chol.l();
            let m_samples = self.base.rows();
            let mut total = 0.0;
            for m in 0..m_samples {
                let z = self.base.row(m);
                let mut best = 0.0f64;
                for j in 0..self.q {
                    let y = ws.mu[j] + dot(&l.row(j)[..=j], &z[..=j]);
                    best = best.max(self.f_best - y);
                }
                total += best;
            }
            ws.chol_buf = chol.into_l();
            total / m_samples as f64
        })
    }

    /// qEI value at a flattened batch `x = [x_1; …; x_q]` (length q·d),
    /// recycling the thread-local workspace's batch matrix instead of
    /// allocating one per call — the value-only analogue of
    /// [`Self::value_grad_flat`], used on the multistart's
    /// line-search/raw-scoring path.
    pub fn value_flat(&self, gp: &GaussianProcess, x_flat: &[f64]) -> f64 {
        let q = self.q;
        let d = gp.dim();
        assert_eq!(x_flat.len(), q * d);
        let mut pts =
            QEI_WS.with(|w| std::mem::replace(&mut w.borrow_mut().pts, Matrix::zeros(0, 0)));
        pts.reset_zeros(q, d);
        pts.as_mut_slice().copy_from_slice(x_flat);
        let v = self.value(gp, &pts);
        QEI_WS.with(|w| w.borrow_mut().pts = pts);
        v
    }

    /// qEI value and gradient with respect to the flattened batch
    /// `x = [x_1; …; x_q]` (length q·d).
    pub fn value_grad_flat(&self, gp: &GaussianProcess, x_flat: &[f64]) -> (f64, Vec<f64>) {
        let q = self.q;
        let d = gp.dim();
        assert_eq!(x_flat.len(), q * d);
        QEI_WS.with(|w| {
            let ws = &mut *w.borrow_mut();
            // The batch matrix lives in the workspace too; it is moved
            // out for the duration of the call so `ws` stays borrowable.
            let mut pts = std::mem::replace(&mut ws.pts, Matrix::zeros(0, 0));
            pts.reset_zeros(q, d);
            pts.as_mut_slice().copy_from_slice(x_flat);
            let Some(chol) = self.posterior_into(gp, &pts, ws) else {
                ws.pts = pts;
                return (f64::NEG_INFINITY, vec![0.0; q * d]);
            };
            let l = chol.l();
            let m_samples = self.base.rows();

            // MC pass: value plus adjoints on μ and L.
            let mut value = 0.0;
            ws.mu_bar.clear();
            ws.mu_bar.resize(q, 0.0);
            ws.l_bar.reset_zeros(q, q);
            ws.y.clear();
            ws.y.resize(q, 0.0);
            for m in 0..m_samples {
                let z = self.base.row(m);
                for j in 0..q {
                    ws.y[j] = ws.mu[j] + dot(&l.row(j)[..=j], &z[..=j]);
                }
                let (mut jstar, mut best) = (usize::MAX, 0.0f64);
                for j in 0..q {
                    let imp = self.f_best - ws.y[j];
                    if imp > best {
                        best = imp;
                        jstar = j;
                    }
                }
                if jstar != usize::MAX {
                    value += best;
                    ws.mu_bar[jstar] -= 1.0;
                    for b in 0..=jstar {
                        ws.l_bar[(jstar, b)] -= z[b];
                    }
                }
            }
            let inv_m = 1.0 / m_samples as f64;
            value *= inv_m;
            for v in ws.mu_bar.iter_mut() {
                *v *= inv_m;
            }
            ws.l_bar.scale(inv_m);

            // Σ̄ from the Cholesky pullback (adjoint w.r.t. the raw Σ).
            let sigma_bar = chol_pullback(l, &ws.l_bar);

            // Chain to the batch coordinates.
            let kernel = gp.kernel();
            let train = gp.train_x();
            let n = train.rows();
            let alpha = gp.weights();
            let (_, scale) = gp.standardization();
            let s2 = scale * scale;

            let mut grad = vec![0.0; q * d];
            ws.kbuf.clear();
            ws.kbuf.resize(d, 0.0);
            // Per batch point j: D (n x d) = ∂k(x_j, x_i)/∂x_j, then
            // E = Dᵀ C (d x q) and dμ_j = scale · Dᵀ α.
            ws.e.reset_zeros(d, q);
            ws.dmu.clear();
            ws.dmu.resize(d, 0.0);
            for j in 0..q {
                for v in ws.e.as_mut_slice().iter_mut() {
                    *v = 0.0;
                }
                ws.dmu.iter_mut().for_each(|v| *v = 0.0);
                for i in 0..n {
                    kernel.grad_wrt_query(pts.row(j), train.row(i), &mut ws.kbuf);
                    for k in 0..d {
                        let dk = ws.kbuf[k];
                        ws.dmu[k] += alpha[i] * dk;
                        for b in 0..q {
                            ws.e[(k, b)] += dk * ws.c[(i, b)];
                        }
                    }
                }
                for k in 0..d {
                    let mut g = ws.mu_bar[j] * (ws.dmu[k] * scale);
                    for b in 0..q {
                        let dsig_std = if b == j {
                            -2.0 * ws.e[(k, j)]
                        } else {
                            kernel.grad_wrt_query(pts.row(j), pts.row(b), &mut ws.kbuf);
                            ws.kbuf[k] - ws.e[(k, b)]
                        };
                        let coeff =
                            if b == j { sigma_bar[(j, j)] } else { 2.0 * sigma_bar[(j, b)] };
                        g += coeff * dsig_std * s2;
                    }
                    grad[j * d + k] = g;
                }
            }
            ws.chol_buf = chol.into_l();
            ws.pts = pts;
            (value, grad)
        })
    }
}

/// Result of one joint q-EI maximization.
#[derive(Debug, Clone)]
pub struct QeiOutcome {
    /// The optimized batch (q points).
    pub batch: Vec<Vec<f64>>,
    /// Achieved q-EI value (maximization-oriented, ≥ 0 at an optimum).
    pub value: f64,
    /// Objective evaluations spent across all restarts.
    pub evals: usize,
    /// Requested multistart restarts lost to non-finite objectives.
    pub restart_shortfall: usize,
}

/// Maximize q-EI over the `q·d`-dimensional joint space with multistart
/// L-BFGS.
pub fn optimize_qei(
    gp: &GaussianProcess,
    qei: &QExpectedImprovement,
    bounds: &Bounds,
    warm_starts: &[Vec<Vec<f64>>],
    cfg: &MultistartConfig,
) -> QeiOutcome {
    let q = qei.q;
    let d = bounds.dim();
    let mut lo = Vec::with_capacity(q * d);
    let mut hi = Vec::with_capacity(q * d);
    for _ in 0..q {
        lo.extend_from_slice(bounds.lo());
        hi.extend_from_slice(bounds.hi());
    }
    let flat_bounds = Bounds::new(lo, hi);
    let obj = FnGradObjective::new(
        q * d,
        |x: &[f64]| -qei.value_flat(gp, x),
        |x: &[f64]| {
            let (v, g) = qei.value_grad_flat(gp, x);
            (-v, g.into_iter().map(|gi| -gi).collect())
        },
    );
    let warm_flat: Vec<Vec<f64>> = warm_starts
        .iter()
        .map(|batch| batch.iter().flat_map(|p| p.iter().copied()).collect())
        .collect();
    let r = minimize_multistart(&obj, &flat_bounds, &warm_flat, cfg);
    let batch: Vec<Vec<f64>> = (0..q).map(|j| r.x[j * d..(j + 1) * d].to_vec()).collect();
    QeiOutcome { batch, value: -r.value, evals: r.evals, restart_shortfall: r.restart_shortfall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_gp::kernel::Kernel;
    use pbo_gp::GaussianProcess;
    use pbo_sampling::SeedStream;
    use rand::Rng;

    fn gp_2d(n: usize) -> GaussianProcess {
        let mut rng = SeedStream::new(11).fork_named("gp2d").rng();
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a: f64 = rng.gen();
            let b: f64 = rng.gen();
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push((a - 0.3).powi(2) + (b - 0.6).powi(2) + 0.1 * (7.0 * a).sin());
        }
        let mut kernel = Kernel::new(2);
        kernel.lengthscales = vec![0.35, 0.35];
        GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
    }

    #[test]
    fn q1_matches_analytic_ei_closely() {
        let gp = gp_2d(12);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 1, 4096, 3);
        let ei = crate::single::ExpectedImprovement { f_best };
        use crate::Acquisition;
        for p in [[0.2, 0.2], [0.5, 0.8], [0.9, 0.1]] {
            let pts = Matrix::from_rows(&[p.to_vec()]).unwrap();
            let mc = qei.value(&gp, &pts);
            let exact = ei.value(&gp, &p);
            assert!(
                (mc - exact).abs() < 0.05 * (1.0 + exact.abs()) + 5e-4,
                "at {p:?}: MC {mc} vs exact {exact}"
            );
        }
    }

    #[test]
    fn qei_grows_with_q() {
        // Adding a point to a batch can only increase qEI (monotone
        // under inclusion) — check MC respects that within noise.
        let gp = gp_2d(10);
        let f_best = gp.best_observed(false);
        let q1 = QExpectedImprovement::new(f_best, 1, 2048, 5);
        let q2 = QExpectedImprovement::new(f_best, 2, 2048, 5);
        let p1 = Matrix::from_rows(&[vec![0.25, 0.55]]).unwrap();
        let p2 = Matrix::from_rows(&[vec![0.25, 0.55], vec![0.8, 0.2]]).unwrap();
        assert!(q2.value(&gp, &p2) >= q1.value(&gp, &p1) - 1e-3);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let gp = gp_2d(9);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 3, 512, 7);
        let x0 = vec![0.21, 0.43, 0.67, 0.72, 0.45, 0.12];
        let (_, grad) = qei.value_grad_flat(&gp, &x0);
        let fd = pbo_opt::fd_gradient(
            |x| {
                let pts = Matrix::from_vec(3, 2, x.to_vec()).unwrap();
                qei.value(&gp, &pts)
            },
            &x0,
            1e-6,
        );
        for (i, (a, n)) in grad.iter().zip(&fd).enumerate() {
            assert!((a - n).abs() < 2e-4 * (1.0 + n.abs()), "coord {i}: analytic {a} vs fd {n}");
        }
    }

    #[test]
    fn optimize_qei_returns_in_bounds_batch_with_positive_value() {
        let gp = gp_2d(14);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 2, 256, 9);
        let bounds = Bounds::unit(2);
        let cfg = MultistartConfig { raw_samples: 16, restarts: 3, ..Default::default() };
        let out = optimize_qei(&gp, &qei, &bounds, &[], &cfg);
        assert_eq!(out.batch.len(), 2);
        for p in &out.batch {
            assert!(bounds.contains(p), "{p:?}");
        }
        assert!(out.value >= 0.0);
    }

    #[test]
    fn base_samples_deterministic_per_seed() {
        let a = QExpectedImprovement::new(0.0, 4, 64, 1);
        let b = QExpectedImprovement::new(0.0, 4, 64, 1);
        assert_eq!(a.base.as_slice(), b.base.as_slice());
    }
}
