#![allow(clippy::needless_range_loop)]

//! # pbo-acq — acquisition functions and their optimization
//!
//! The "acquisition process" layer of the paper: given a fitted GP and
//! the incumbent value, score candidate points and find the maximizer.
//!
//! - [`single`]: single-point criteria — Expected Improvement (EI),
//!   Probability of Improvement (PI) and the confidence-bound criterion
//!   (UCB in the paper's maximization convention) — each written once
//!   as a function of the posterior moments, with its **analytic
//!   gradient** through [`PosteriorGrad`]; the [`Acquisition`] trait
//!   turns those into point, block and gradient scoring. Plus a
//!   multistart L-BFGS maximizer mirroring BoTorch's `optimize_acqf`,
//! - [`mc`]: Monte-Carlo q-EI over a *joint* batch of `q` points using
//!   the reparameterization trick with fixed quasi-MC base samples
//!   (sample-average approximation), including the full analytic
//!   gradient through the posterior **Cholesky factor** via a
//!   reverse-mode pullback ([`pullback`]) — the piece BoTorch gets from
//!   autodiff and we derive by hand,
//! - [`pullback`]: the Cholesky reverse-mode differentiation rule.
//!
//! Convention: the whole workspace **minimizes** the objective
//! internally (the UPHES profit is negated by the problem layer), so
//! "improvement" means dropping below the incumbent `f_best`.

pub mod mc;
pub mod pullback;
pub mod single;

pub use mc::{optimize_qei, QExpectedImprovement};
pub use single::{
    optimize_single, ExpectedImprovement, ProbabilityOfImprovement, UpperConfidenceBound,
};

use pbo_gp::{GaussianProcess, PredictWorkspace};
use pbo_linalg::Matrix;

/// A single-point acquisition criterion (to be **maximized**).
///
/// A criterion is a function of the posterior moments only: it
/// implements its value at the posterior mean and standard deviation
/// ([`at_moments`](Self::at_moments)) and its value plus gradient from
/// a [`PosteriorGrad`] ([`at_moments_grad`](Self::at_moments_grad)).
/// The scoring operations are provided once, on top of those two:
/// a point through [`GaussianProcess::predict`], a block through
/// [`GaussianProcess::predict_many`], the allocation-free gradient
/// through [`posterior_with_grad_ws`] and the allocating reference
/// gradient through [`posterior_with_grad`].
pub trait Acquisition: Sync {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// The criterion at posterior mean `mean` and standard deviation
    /// `sigma` (raw target scale).
    fn at_moments(&self, mean: f64, sigma: f64) -> f64;

    /// The criterion and its gradient from the posterior moments and
    /// their spatial gradients. `grad` is cleared and refilled.
    fn at_moments_grad(&self, pg: &PosteriorGrad, grad: &mut Vec<f64>) -> f64;

    /// Acquisition value at `x`.
    fn value(&self, gp: &GaussianProcess, x: &[f64]) -> f64 {
        let (mean, var) = gp.predict(x);
        self.at_moments(mean, var.sqrt())
    }

    /// Score every row of `pts` in one batched GP prediction
    /// ([`GaussianProcess::predict_many`]) — the raw-candidate scoring path of
    /// the multistart — matching [`value`](Self::value) to
    /// batched-summation rounding (a few ulps).
    fn value_many(&self, gp: &GaussianProcess, pts: &Matrix, out: &mut [f64]) {
        debug_assert_eq!(out.len(), pts.rows());
        let (means, vars) = gp.predict_many(pts);
        for (o, (m, v)) in out.iter_mut().zip(means.iter().zip(&vars)) {
            *o = self.at_moments(*m, v.sqrt());
        }
    }

    /// Value and gradient at `x` through the workspace posterior
    /// ([`posterior_with_grad_ws`]); zero heap allocations once the
    /// workspace and `grad` have warmed up. `grad` is cleared and
    /// refilled.
    fn value_grad_into(
        &self,
        gp: &GaussianProcess,
        x: &[f64],
        ws: &mut AcqWorkspace,
        grad: &mut Vec<f64>,
    ) -> f64 {
        posterior_with_grad_ws(gp, x, ws);
        self.at_moments_grad(ws.posterior(), grad)
    }

    /// Value and gradient at `x` through the allocating reference
    /// posterior ([`posterior_with_grad`]), which the workspace path is
    /// checked against.
    fn value_grad(&self, gp: &GaussianProcess, x: &[f64]) -> (f64, Vec<f64>) {
        let pg = posterior_with_grad(gp, x);
        let mut grad = Vec::with_capacity(pg.dmean.len());
        let v = self.at_moments_grad(&pg, &mut grad);
        (v, grad)
    }
}

/// Reusable scratch for the allocation-free acquisition hot path: the
/// GP-side [`PredictWorkspace`] plus the `d`-sized gradient buffers of
/// [`posterior_with_grad_ws`]. Keep one per thread (the multistart
/// objectives hold one in a `thread_local!`).
#[derive(Default)]
pub struct AcqWorkspace {
    /// GP-side buffers (cross-covariance row, triangular solves, radial
    /// gradient factors).
    pub pred: PredictWorkspace,
    pg: PosteriorGrad,
    dvar: Vec<f64>,
    /// Per-dimension lengthscale factors, refreshed per call (the same
    /// workspace serves different GPs, e.g. across fantasy refits):
    /// `ℓ_j²` on the bit-exact small-system path, `1/ℓ_j²` on the
    /// reassociating large-system path.
    l2: Vec<f64>,
    /// Candidate-block matrix recycled across batched raw-sample
    /// scoring calls (the multistart scores thousands of Sobol
    /// candidates per cycle; this keeps that path allocation-free).
    pub(crate) pts: Matrix,
}

impl AcqWorkspace {
    /// Empty workspace; buffers are sized lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// The posterior-with-gradient filled by the last
    /// [`posterior_with_grad_ws`] call.
    pub fn posterior(&self) -> &PosteriorGrad {
        &self.pg
    }
}

/// Posterior mean/σ and their spatial gradients at a query point —
/// the shared building block of all analytic acquisition gradients.
///
/// Returned values are on the raw target scale. σ is floored at a tiny
/// positive value so downstream divisions stay finite; the gradient of
/// the floor region is zero.
#[derive(Debug, Clone, Default)]
pub struct PosteriorGrad {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior (latent) standard deviation.
    pub sigma: f64,
    /// `∂mean/∂x`.
    pub dmean: Vec<f64>,
    /// `∂σ/∂x`.
    pub dsigma: Vec<f64>,
}

/// Compute [`PosteriorGrad`] at `x` in `O(n² + n d)`; `K_y⁻¹ k` comes
/// from the GP's Cholesky `solve`.
pub fn posterior_with_grad(gp: &GaussianProcess, x: &[f64]) -> PosteriorGrad {
    let d = gp.dim();
    debug_assert_eq!(x.len(), d);
    let kernel = gp.kernel();
    let train = gp.train_x();
    let n = train.rows();
    let (shift, scale) = gp.standardization();

    let k = kernel.cross_vec(train, x);
    let c = gp.chol().solve(&k).expect("posterior solve");
    let alpha = gp.weights();

    let mean_std = gp.trend_std() + pbo_linalg::vec_ops::dot(&k, alpha);
    let var_std = (kernel.prior_var() - pbo_linalg::vec_ops::dot(&k, &c)).max(1e-14);
    let sigma_std = var_std.sqrt();

    let mut dmean = vec![0.0; d];
    let mut dvar = vec![0.0; d];
    let mut buf = vec![0.0; d];
    for i in 0..n {
        kernel.grad_wrt_query(x, train.row(i), &mut buf);
        let (ai, ci) = (alpha[i], c[i]);
        for j in 0..d {
            dmean[j] += ai * buf[j];
            dvar[j] -= 2.0 * ci * buf[j];
        }
    }
    let dsigma: Vec<f64> = if var_std <= 1e-14 {
        vec![0.0; d]
    } else {
        dvar.iter().map(|v| scale * v / (2.0 * sigma_std)).collect()
    };
    PosteriorGrad {
        mean: mean_std * scale + shift,
        sigma: sigma_std * scale,
        dmean: dmean.into_iter().map(|v| v * scale).collect(),
        dsigma,
    }
}

/// [`posterior_with_grad`] through a reusable [`AcqWorkspace`]: the
/// same arithmetic in the same order — shared kernel transcendentals,
/// hoisted squared lengthscales, a fused gradient accumulation — with
/// zero heap allocations per call once the workspace has warmed up.
/// Results are bit-identical to the allocating reference (covered by a
/// test) for training sets up to the `BIT_EXACT_MAX_N` threshold, which
/// keeps seeded BO trajectories unchanged; beyond it the path
/// reassociates for speed (reciprocal-lengthscale forms, unrolled
/// backward substitution) and agrees to summation-order ulps instead
/// (also covered by a test). Either way the output is bitwise
/// deterministic for any thread count (every thread runs this same
/// code).
///
/// The cross-covariance row, both triangular solves, and the radial
/// gradient factors are produced in one fused kernel pass by
/// [`GaussianProcess::posterior_parts_with`]; the per-training-point
/// gradient then reuses those factors instead of recomputing distances.
/// The result lands in `ws.posterior()`.
pub fn posterior_with_grad_ws(gp: &GaussianProcess, x: &[f64], ws: &mut AcqWorkspace) {
    let d = gp.dim();
    debug_assert_eq!(x.len(), d);
    let kernel = gp.kernel();
    let train = gp.train_x();
    let n = train.rows();
    let (shift, scale) = gp.standardization();

    let (mean_std, var_std) = gp.posterior_parts_with(x, &mut ws.pred);
    let sigma_std = var_std.sqrt();
    let alpha = gp.weights();

    ws.pg.dmean.clear();
    ws.pg.dmean.resize(d, 0.0);
    ws.dvar.clear();
    ws.dvar.resize(d, 0.0);
    let reassociate = n > pbo_linalg::cholesky::BIT_EXACT_MAX_N;
    if reassociate {
        kernel.inv_sq_lengthscales_into(&mut ws.l2);
    } else {
        kernel.sq_lengthscales_into(&mut ws.l2);
    }
    {
        let c = ws.pred.solved();
        let gf = ws.pred.grad_factors();
        for i in 0..n {
            let row = train.row(i);
            let (ai, ci2) = (alpha[i], 2.0 * c[i]);
            let gfi = gf[i];
            if reassociate {
                // Large-system path: division-free ∂k_i/∂x_j, one
                // rounding ulp off the reference per coordinate.
                for j in 0..d {
                    let dk = -gfi * (x[j] - row[j]) * ws.l2[j];
                    ws.pg.dmean[j] += ai * dk;
                    ws.dvar[j] -= ci2 * dk;
                }
            } else {
                // ∂k_i/∂x_j — the same ops in the same order as
                // `grad_wrt_query`, fused into the accumulation so the
                // staging buffer (and its extra passes) disappears while
                // every partial sum keeps its reference bits.
                for j in 0..d {
                    let dk = -gfi * (x[j] - row[j]) / ws.l2[j];
                    ws.pg.dmean[j] += ai * dk;
                    ws.dvar[j] -= ci2 * dk;
                }
            }
        }
    }
    ws.pg.dsigma.clear();
    if var_std <= 1e-14 {
        ws.pg.dsigma.resize(d, 0.0);
    } else {
        ws.pg.dsigma.extend(ws.dvar.iter().map(|v| scale * v / (2.0 * sigma_std)));
    }
    ws.pg.mean = mean_std * scale + shift;
    ws.pg.sigma = sigma_std * scale;
    for v in ws.pg.dmean.iter_mut() {
        *v *= scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_gp::kernel::Kernel;
    use pbo_gp::GaussianProcess;
    use pbo_linalg::Matrix;

    fn toy_gp() -> GaussianProcess {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 / 7.0).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v, v * v]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v| (5.0 * v).sin() + 2.0 * v).collect();
        let mut kernel = Kernel::new(2);
        kernel.lengthscales = vec![0.3, 0.5];
        GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
    }

    #[test]
    fn posterior_grad_matches_fd() {
        let gp = toy_gp();
        for p in [[0.31, 0.22], [0.77, 0.5], [0.05, 0.9]] {
            let pg = posterior_with_grad(&gp, &p);
            let fd_mean = pbo_opt::fd_gradient(|x| gp.predict(x).0, &p, 1e-6);
            let fd_sigma = pbo_opt::fd_gradient(|x| gp.predict(x).1.sqrt(), &p, 1e-6);
            for j in 0..2 {
                assert!(
                    (pg.dmean[j] - fd_mean[j]).abs() < 1e-5 * (1.0 + fd_mean[j].abs()),
                    "dmean[{j}]: {} vs {}",
                    pg.dmean[j],
                    fd_mean[j]
                );
                assert!(
                    (pg.dsigma[j] - fd_sigma[j]).abs() < 1e-4 * (1.0 + fd_sigma[j].abs()),
                    "dsigma[{j}]: {} vs {}",
                    pg.dsigma[j],
                    fd_sigma[j]
                );
            }
            // Values agree with predict().
            let (m, v) = gp.predict(&p);
            assert!((pg.mean - m).abs() < 1e-10);
            assert!((pg.sigma - v.sqrt()).abs() < 1e-10);
        }
    }

    #[test]
    fn workspace_posterior_is_bit_identical_to_reference() {
        // The workspace path keeps every floating-point op of the
        // allocating reference in the same order (at this size the
        // backward solve stays on its sequential branch), so the match
        // must be exact — seeded BO trajectories depend on the polish
        // landing on the same local optimum bit-for-bit.
        let gp = toy_gp();
        let mut ws = AcqWorkspace::new();
        for p in [[0.31, 0.22], [0.77, 0.5], [0.05, 0.9], [0.5, 0.25]] {
            let reference = posterior_with_grad(&gp, &p);
            posterior_with_grad_ws(&gp, &p, &mut ws);
            let pg = ws.posterior();
            assert!(
                pg.mean.to_bits() == reference.mean.to_bits(),
                "mean: {} vs {}",
                pg.mean,
                reference.mean
            );
            assert!(
                pg.sigma.to_bits() == reference.sigma.to_bits(),
                "σ: {} vs {}",
                pg.sigma,
                reference.sigma
            );
            for j in 0..2 {
                assert!(
                    pg.dmean[j].to_bits() == reference.dmean[j].to_bits(),
                    "dmean[{j}]: {} vs {}",
                    pg.dmean[j],
                    reference.dmean[j]
                );
                assert!(
                    pg.dsigma[j].to_bits() == reference.dsigma[j].to_bits(),
                    "dsigma[{j}]: {} vs {}",
                    pg.dsigma[j],
                    reference.dsigma[j]
                );
            }
        }
    }

    #[test]
    fn workspace_posterior_matches_reference_above_reassoc_threshold() {
        // Past BIT_EXACT_MAX_N training points the workspace path trades
        // bit-exactness for reassociated arithmetic (reciprocal
        // lengthscales, unrolled backward solve), so agreement drops to
        // summation-order ulps — still far below the finite-difference
        // tolerances of the other gradient checks.
        let n = 160;
        assert!(n > pbo_linalg::cholesky::BIT_EXACT_MAX_N);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = i as f64 / (n - 1) as f64;
                vec![v, (3.7 * v + 0.13).fract()]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| (5.0 * r[0]).sin() + 2.0 * r[1]).collect();
        let mut kernel = Kernel::new(2);
        kernel.lengthscales = vec![0.3, 0.5];
        let gp = GaussianProcess::new(x, &y, kernel, 1e-6).unwrap();

        let close = |a: f64, b: f64| (a - b).abs() <= 1e-11 * (1.0 + a.abs().max(b.abs()));
        let mut ws = AcqWorkspace::new();
        for p in [[0.31, 0.22], [0.77, 0.5], [0.05, 0.9]] {
            let reference = posterior_with_grad(&gp, &p);
            posterior_with_grad_ws(&gp, &p, &mut ws);
            let pg = ws.posterior();
            assert!(close(pg.mean, reference.mean), "mean: {} vs {}", pg.mean, reference.mean);
            assert!(close(pg.sigma, reference.sigma), "σ: {} vs {}", pg.sigma, reference.sigma);
            for j in 0..2 {
                assert!(
                    close(pg.dmean[j], reference.dmean[j]),
                    "dmean[{j}]: {} vs {}",
                    pg.dmean[j],
                    reference.dmean[j]
                );
                assert!(
                    close(pg.dsigma[j], reference.dsigma[j]),
                    "dsigma[{j}]: {} vs {}",
                    pg.dsigma[j],
                    reference.dsigma[j]
                );
            }
        }
    }
}
