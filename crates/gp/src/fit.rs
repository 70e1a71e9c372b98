//! Marginal-likelihood fitting of the GP hyperparameters.
//!
//! Parameters are optimized in log space:
//! `θ = [log ℓ_1 … log ℓ_d, log s², log σ_n²]` (length `d + 2`).
//!
//! The exact log marginal likelihood with the constant trend profiled
//! out is
//!
//! `L(θ) = −½ rᵀ K_y⁻¹ r − ½ log |K_y| − (n/2) log 2π`,
//!
//! with `r = y − m̂(θ)·1` and `m̂ = (1ᵀK_y⁻¹y)/(1ᵀK_y⁻¹1)`. Because
//! `∂L/∂m = 0` at the profiled optimum, the gradient with respect to the
//! kernel parameters computed at fixed `m̂` is the exact total gradient
//! (envelope theorem), so the analytic gradient below treats `r` as
//! constant in `θ` apart from the kernel terms:
//!
//! `∂L/∂θ_j = ½ αᵀ (∂K_y/∂θ_j) α − ½ tr(K_y⁻¹ ∂K_y/∂θ_j)`, `α = K_y⁻¹ r`.
//!
//! Fitting follows the paper's two regimes:
//! - [`fit_hypers_with`]: full multi-start optimization at the start of
//!   a cycle ([`fit`] is its one-call form with a dense predictor),
//! - [`refit_warm_with`]: reduced-budget warm start from the current
//!   values (the "partial fit" used inside the Kriging-Believer loop).
//!
//! Both run one search: the fitting view of the data, one prepared
//! [`FitWorkspace`], and L-BFGS from each start over the cached-distance,
//! inverse-free value-and-gradient evaluation in [`crate::workspace`].
//! [`mll_and_grad`] below is the straightforward quadratic-loop
//! reference implementation the fast path is property-tested against.

use crate::gp::GaussianProcess;
use crate::kernel::{grad_factor, Kernel};
use crate::workspace::{mll_and_grad_ws, FitWorkspace};
use crate::{GpError, Result};
use pbo_linalg::vec_ops::{dot, mean, variance};
use pbo_linalg::{Cholesky, Matrix};
use pbo_opt::{Bounds, GradObjective, OptResult};
use pbo_sampling::SeedStream;
use rand::Rng;
use std::cell::RefCell;

/// Fitting budgets and the fitting-data cap. The search box is fixed
/// (see [`param_bounds`]).
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Random restarts for the full fit (in addition to the warm start).
    pub restarts: usize,
    /// L-BFGS iterations per restart for the full fit.
    pub max_iters: usize,
    /// L-BFGS iterations for the reduced warm refit.
    pub warm_iters: usize,
    /// When set, fit the hyperparameters on a random subset of at most
    /// this many points (predictions still use all data). The paper's
    /// discussion (Sec. 4) names data subsetting as the standard remedy
    /// for the growing fitting cost.
    pub max_fit_points: Option<usize>,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig { restarts: 3, max_iters: 50, warm_iters: 10, max_fit_points: None }
    }
}

/// Diagnostics from a fitting call.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Best log marginal likelihood reached.
    pub mll: f64,
    /// Objective/gradient evaluations spent.
    pub evals: usize,
    /// Number of local optimizations run.
    pub starts: usize,
}

/// Pack kernel + noise into the log-parameter vector.
pub fn pack(kernel: &Kernel, noise: f64) -> Vec<f64> {
    let mut p: Vec<f64> = kernel.lengthscales.iter().map(|v| v.ln()).collect();
    p.push(kernel.outputscale.ln());
    p.push(noise.ln());
    p
}

/// Unpack a log-parameter vector into kernel + noise.
pub fn unpack(params: &[f64]) -> (Kernel, f64) {
    let d = params.len() - 2;
    let kernel = Kernel {
        outputscale: params[d].exp(),
        lengthscales: params[..d].iter().map(|v| v.exp()).collect(),
    };
    (kernel, params[d + 1].exp())
}

/// Exact log marginal likelihood and its gradient in log-parameter
/// space, on standardized targets.
pub fn mll_and_grad(x: &Matrix, y_std: &[f64], params: &[f64]) -> Result<(f64, Vec<f64>)> {
    let n = x.rows();
    let d = x.cols();
    if params.len() != d + 2 {
        return Err(GpError::BadHyperparameters(format!("{} params for dim {d}", params.len())));
    }
    let (kernel, noise) = unpack(params);
    let k_kernel = kernel.matrix(x);
    let mut ky = k_kernel.clone();
    ky.add_diag(noise);
    let chol = Cholesky::factor(&ky)?;

    // Profiled trend and weights.
    let ones = vec![1.0; n];
    let kinv_ones = chol.solve(&ones)?;
    let kinv_y = chol.solve(y_std)?;
    let denom = dot(&ones, &kinv_ones).max(1e-300);
    let trend = dot(&ones, &kinv_y) / denom;
    let r: Vec<f64> = y_std.iter().map(|v| v - trend).collect();
    let alpha: Vec<f64> = kinv_y.iter().zip(&kinv_ones).map(|(a, b)| a - trend * b).collect();

    let mll = -0.5 * dot(&r, &alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // Gradient: W = α αᵀ − K_y⁻¹ contracted with each ∂K_y/∂θ.
    let kinv = chol.inverse();
    let mut grad = vec![0.0; d + 2];

    // Lengthscales: off-diagonal pairs only (d_j = 0 on the diagonal).
    let inv_ls2: Vec<f64> = kernel.lengthscales.iter().map(|l| 1.0 / (l * l)).collect();
    for a in 0..n {
        for b in 0..a {
            let w = alpha[a] * alpha[b] - kinv[(a, b)];
            let ra = x.row(a);
            let rb = x.row(b);
            let rdist = kernel.scaled_dist(ra, rb);
            let gf = kernel.outputscale * grad_factor(rdist);
            // Symmetric pair counted once => factor 2 cancels the ½.
            for j in 0..d {
                let dj = ra[j] - rb[j];
                grad[j] += w * gf * dj * dj * inv_ls2[j];
            }
        }
    }
    // Outputscale: ∂K_y/∂log s² = K_kernel.
    let mut g_os = 0.0;
    for a in 0..n {
        for b in 0..n {
            g_os += (alpha[a] * alpha[b] - kinv[(a, b)]) * k_kernel[(a, b)];
        }
    }
    grad[d] = 0.5 * g_os;
    // Noise: ∂K_y/∂log σ_n² = σ_n² I.
    let mut g_n = 0.0;
    for a in 0..n {
        g_n += alpha[a] * alpha[a] - kinv[(a, a)];
    }
    grad[d + 1] = 0.5 * noise * g_n;

    Ok((mll, grad))
}

/// Negated-MLL objective over a prepared [`FitWorkspace`].
///
/// Every evaluation reuses the workspace's cached distances and
/// buffers. The interior mutability is sound: L-BFGS is single-threaded
/// per objective.
struct NegMllWs<'a> {
    ws: RefCell<&'a mut FitWorkspace>,
    y_std: &'a [f64],
    dim: usize,
}

impl GradObjective for NegMllWs<'_> {
    fn dim(&self) -> usize {
        self.dim + 2
    }
    // L-BFGS only ever asks for value and gradient together.
    fn value(&self, p: &[f64]) -> f64 {
        self.value_grad(p).0
    }
    fn value_grad(&self, p: &[f64]) -> (f64, Vec<f64>) {
        let mut ws = self.ws.borrow_mut();
        match mll_and_grad_ws(&mut ws, self.y_std, p) {
            Ok((v, g)) => (-v, g.into_iter().map(|gi| -gi).collect()),
            Err(_) => (f64::INFINITY, vec![0.0; p.len()]),
        }
    }
}

/// Bounds on each lengthscale `ℓ_j`.
const LENGTHSCALE_BOUNDS: (f64, f64) = (5e-3, 20.0);
/// Bounds on the outputscale `s²`.
const OUTPUTSCALE_BOUNDS: (f64, f64) = (1e-3, 100.0);
/// Bounds on the noise variance `σ_n²`.
const NOISE_BOUNDS: (f64, f64) = (1e-8, 1.0);

/// The log-parameter box for input dimension `d`: the logs of the
/// lengthscale, outputscale and noise bounds.
pub fn param_bounds(d: usize) -> Bounds {
    let [ls, os, noise] =
        [LENGTHSCALE_BOUNDS, OUTPUTSCALE_BOUNDS, NOISE_BOUNDS].map(|(lo, hi)| (lo.ln(), hi.ln()));
    let mut lo = vec![ls.0; d];
    let mut hi = vec![ls.1; d];
    lo.push(os.0);
    hi.push(os.1);
    lo.push(noise.0);
    hi.push(noise.1);
    Bounds::new(lo, hi)
}

/// Random initial log-parameters: lengthscales log-uniform in
/// [0.1, 2.0], outputscale 1, noise log-uniform in [1e-6, 1e-2].
fn random_start<R: Rng>(rng: &mut R, d: usize) -> Vec<f64> {
    let mut p = Vec::with_capacity(d + 2);
    for _ in 0..d {
        p.push(rng.gen_range((0.1f64).ln()..(2.0f64).ln()));
    }
    p.push(0.0);
    p.push(rng.gen_range((1e-6f64).ln()..(1e-2f64).ln()));
    p
}

/// Standardize and optionally subsample the fitting data.
fn fitting_view(
    x: &Matrix,
    y: &[f64],
    cfg: &FitConfig,
    seeds: &mut SeedStream,
) -> (Matrix, Vec<f64>) {
    let shift = mean(y);
    let scale = variance(y).sqrt().max(1e-8);
    let y_std: Vec<f64> = y.iter().map(|v| (v - shift) / scale).collect();
    match cfg.max_fit_points {
        Some(cap) if x.rows() > cap => {
            // Uniform subsample without replacement (partial Fisher-Yates).
            let mut rng = seeds.fork_named("fit-subsample").rng();
            let mut idx: Vec<usize> = (0..x.rows()).collect();
            for i in 0..cap {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(cap);
            let mut xs = Matrix::zeros(cap, x.cols());
            let mut ys = Vec::with_capacity(cap);
            for (row, &i) in idx.iter().enumerate() {
                xs.row_mut(row).copy_from_slice(x.row(i));
                ys.push(y_std[i]);
            }
            (xs, ys)
        }
        _ => (x.clone(), y_std),
    }
}

/// L-BFGS from each start over the fitting view of (`x`, `y`), all
/// through one prepared workspace. A start whose objective is not
/// finite reports the (clamped) start itself as its point.
fn search(
    x: &Matrix,
    y: &[f64],
    cfg: &FitConfig,
    starts: &[Vec<f64>],
    max_iters: usize,
    seeds: &mut SeedStream,
    workspace: &mut FitWorkspace,
) -> Vec<OptResult> {
    let d = x.cols();
    let (fx, fy) = fitting_view(x, y, cfg, seeds);
    workspace.prepare(&fx);
    let obj = NegMllWs { ws: RefCell::new(workspace), y_std: &fy, dim: d };
    let bounds = param_bounds(d);
    starts
        .iter()
        .map(|s| {
            let mut s = s.clone();
            bounds.clamp(&mut s);
            let mut r = pbo_opt::lbfgs::minimize(&obj, &bounds, &s, max_iters);
            if !r.value.is_finite() {
                r.x = s;
            }
            r
        })
        .collect()
}

/// Full multi-start fit: returns a ready-to-predict GP on (`x`, `y`).
///
/// `warm` optionally supplies the previous cycle's hyperparameters as an
/// extra start (the paper's full update still benefits from it).
/// Allocates a fresh [`FitWorkspace`]; callers fitting repeatedly (the
/// BO engine, once per cycle) should hold one and use
/// [`fit_hypers_with`].
pub fn fit(
    x: &Matrix,
    y: &[f64],
    cfg: &FitConfig,
    warm: Option<(&Kernel, f64)>,
    seeds: &mut SeedStream,
) -> Result<(GaussianProcess, FitReport)> {
    let (kernel, noise, report) =
        fit_hypers_with(x, y, cfg, warm, seeds, &mut FitWorkspace::new())?;
    let gp = GaussianProcess::new(x.clone(), y, kernel, noise)?;
    Ok((gp, report))
}

/// Full multi-start MLL optimization with a caller-owned workspace:
/// returns the winning kernel + noise without building a predictor, so
/// the caller builds the [`GaussianProcess`] itself. Cached pairwise distances are
/// computed once here and reused by every MLL evaluation of every
/// start, and the workspace's buffers persist across calls.
pub fn fit_hypers_with(
    x: &Matrix,
    y: &[f64],
    cfg: &FitConfig,
    warm: Option<(&Kernel, f64)>,
    seeds: &mut SeedStream,
    workspace: &mut FitWorkspace,
) -> Result<(Kernel, f64, FitReport)> {
    let d = x.cols();
    let mut starts: Vec<Vec<f64>> = Vec::new();
    if let Some((k, n)) = warm {
        starts.push(pack(k, n));
    }
    let mut rng = seeds.fork_named("fit-starts").rng();
    // Default deterministic start: mid lengthscales, unit outputscale.
    let mut mid = vec![(0.5f64).ln(); d];
    mid.push(0.0);
    mid.push((1e-4f64).ln());
    starts.push(mid);
    for _ in 0..cfg.restarts {
        starts.push(random_start(&mut rng, d));
    }

    let results = search(x, y, cfg, &starts, cfg.max_iters, seeds, workspace);
    let evals = results.iter().map(|r| r.evals).sum();
    // The first of equally good starts wins.
    let best = results
        .into_iter()
        .filter(|r| r.value.is_finite())
        .min_by(|a, b| a.value.partial_cmp(&b.value).expect("finite values compare"))
        .ok_or_else(|| GpError::BadTrainingData("all hyperparameter starts failed".into()))?;
    let (kernel, noise) = unpack(&best.x);
    Ok((kernel, noise, FitReport { mll: -best.value, evals, starts: starts.len() }))
}

/// Reduced-budget warm refit of a dense GP on (`x`, `y`) from the
/// hyperparameters `kernel` + `noise` (one start, `warm_iters`
/// iterations; the start itself if its objective is not finite).
/// Returns the GP rebuilt on the same data with the refitted values.
pub fn refit_warm_with(
    x: &Matrix,
    y: &[f64],
    kernel: &Kernel,
    noise: f64,
    cfg: &FitConfig,
    seeds: &mut SeedStream,
    workspace: &mut FitWorkspace,
) -> Result<(GaussianProcess, FitReport)> {
    // Read the targets back through the standardization round trip
    // `((v − shift) / scale) · scale + shift`, as they were when the
    // refit started from a GP built on (`x`, `y`). The round trip is not
    // the identity: it moves the last bit of a few targets, and seeded
    // trajectories depend on those bits.
    let shift = mean(y);
    let scale = variance(y).sqrt().max(crate::gp::MIN_SCALE);
    let y: Vec<f64> = y.iter().map(|v| (v - shift) / scale * scale + shift).collect();
    let start = [pack(kernel, noise)];
    let r = search(x, &y, cfg, &start, cfg.warm_iters, seeds, workspace).remove(0);
    let (kernel, noise) = unpack(&r.x);
    let gp = GaussianProcess::new(x.clone(), &y, kernel, noise)?;
    Ok((gp, FitReport { mll: -r.value, evals: r.evals, starts: 1 }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // 2-D quadratic-plus-sine surface.
        let stream = SeedStream::new(seed);
        let mut rng = stream.fork_named("data").rng();
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a: f64 = rng.gen();
            let b: f64 = rng.gen();
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push((3.0 * a).sin() + (a - 0.4) * (a - 0.4) + 0.5 * b + 7.0);
        }
        (x, y)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (x, y) = training_data(14, 1);
        let shift = mean(&y);
        let scale = variance(&y).sqrt();
        let y_std: Vec<f64> = y.iter().map(|v| (v - shift) / scale).collect();
        let params = vec![(0.4f64).ln(), (0.9f64).ln(), (1.3f64).ln(), (1e-3f64).ln()];
        let (_, grad) = mll_and_grad(&x, &y_std, &params).unwrap();
        let fd = pbo_opt::fd_gradient(|p| mll_and_grad(&x, &y_std, p).unwrap().0, &params, 1e-6);
        for (i, (a, n)) in grad.iter().zip(&fd).enumerate() {
            assert!((a - n).abs() < 1e-4 * (1.0 + n.abs()), "param {i}: analytic {a} vs fd {n}");
        }
    }

    #[test]
    fn fit_recovers_reasonable_model() {
        let (x, y) = training_data(30, 2);
        let mut seeds = SeedStream::new(3);
        let cfg = FitConfig::default();
        let (gp, report) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
        assert!(report.mll.is_finite());
        // In-sample predictions should be accurate for noiseless data.
        let mut worst: f64 = 0.0;
        for i in 0..x.rows() {
            let m = gp.predict_mean(x.row(i));
            worst = worst.max((m - y[i]).abs());
        }
        let spread = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - y.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(worst < 0.1 * spread, "worst in-sample error {worst} vs spread {spread}");
    }

    #[test]
    fn fit_improves_over_default_hypers() {
        let (x, y) = training_data(25, 4);
        let shift = mean(&y);
        let scale = variance(&y).sqrt();
        let y_std: Vec<f64> = y.iter().map(|v| (v - shift) / scale).collect();
        let default_params = vec![(0.5f64).ln(), (0.5f64).ln(), 0.0, (1e-4f64).ln()];
        let (default_mll, _) = mll_and_grad(&x, &y_std, &default_params).unwrap();
        let mut seeds = SeedStream::new(5);
        let (_, report) = fit(&x, &y, &FitConfig::default(), None, &mut seeds).unwrap();
        assert!(report.mll >= default_mll - 1e-6, "{} vs {}", report.mll, default_mll);
    }

    #[test]
    fn warm_refit_does_not_regress_much() {
        let (x, y) = training_data(20, 6);
        let mut seeds = SeedStream::new(7);
        let cfg = FitConfig::default();
        let (gp, full) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
        let mut ws = FitWorkspace::new();
        let (gp2, warm) =
            refit_warm_with(&x, &y, gp.kernel(), gp.noise(), &cfg, &mut seeds, &mut ws).unwrap();
        assert!(warm.mll >= full.mll - 1e-3, "warm {} vs full {}", warm.mll, full.mll);
        assert_eq!(gp2.n(), gp.n());
    }

    #[test]
    fn subsampled_fit_runs_and_predicts_on_all_data() {
        let (x, y) = training_data(40, 8);
        let cfg = FitConfig { max_fit_points: Some(15), ..Default::default() };
        let mut seeds = SeedStream::new(9);
        let (gp, _) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
        // Predictions use the full 40-point data set.
        assert_eq!(gp.n(), 40);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let kernel = Kernel { outputscale: 2.2, lengthscales: vec![0.1, 0.7, 3.0] };
        let p = pack(&kernel, 1e-4);
        let (k2, n2) = unpack(&p);
        assert!((n2 - 1e-4).abs() < 1e-18);
        assert!((k2.outputscale - 2.2).abs() < 1e-12);
        for (a, b) in k2.lengthscales.iter().zip(&kernel.lengthscales) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_start_is_used_by_full_fit() {
        let (x, y) = training_data(18, 10);
        let mut seeds = SeedStream::new(11);
        let cfg = FitConfig { restarts: 0, ..Default::default() };
        let (gp, _) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
        let warm = (gp.kernel().clone(), gp.noise());
        let (_, report) = fit(&x, &y, &cfg, Some((&warm.0, warm.1)), &mut seeds).unwrap();
        assert_eq!(report.starts, 2); // warm + deterministic mid start
    }
}
