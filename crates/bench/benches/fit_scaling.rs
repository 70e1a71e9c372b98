//! Fitting hot-path scaling: pre-PR vs workspace-backed MLL evaluation,
//! full fits, warm refits, and batched prediction.
//!
//! Three evaluation paths are measured:
//! - `*_prepr`: a faithful replica of the seed's `mll_and_grad` — serial
//!   entry-at-a-time kernel assembly, fresh allocations per call, and
//!   the explicit per-column `K_y⁻¹` (this file reproduces the removed
//!   code so the recorded baseline is the true pre-PR cost, not the
//!   already-upgraded shared kernels);
//! - `*_naive`: the in-repo reference `pbo_gp::fit::mll_and_grad`,
//!   which still forms `K_y⁻¹` explicitly but already benefits from this
//!   overhaul's parallel assembly and multi-RHS inverse;
//! - `*_workspace`: the shipping cached-distance, inverse-free path.
//!
//! `fit_prepr` drives the same multi-start L-BFGS loop through the
//! replica, so the `fit_prepr`-vs-`fit_workspace` ratio is the
//! end-to-end speedup of the overhaul on the mll-dominated full fit.
//! `maximin_lhs` times the initial design every model is first fitted
//! on. Results are recorded in `BENCH_fit.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_gp::fit::{fit, mll_and_grad, refit_warm_with, unpack, FitConfig};
use pbo_gp::kernel::{Kernel, KernelType};
use pbo_gp::workspace::{mll_and_grad_ws, FitWorkspace};
use pbo_gp::GaussianProcess;
use pbo_linalg::vec_ops::dot;
use pbo_linalg::{Cholesky, Matrix};
use pbo_opt::lbfgs::LbfgsConfig;
use pbo_opt::{Bounds, FnGradObjective};
use pbo_sampling::{lhs, SeedStream};
use rand::Rng;

const DIM: usize = 12;

/// Seconds-scale smoke configuration for CI (`PBO_BENCH_SMOKE=1`).
fn smoke() -> bool {
    std::env::var_os("PBO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn sizes(full: &'static [usize]) -> &'static [usize] {
    if smoke() {
        &full[..1]
    } else {
        full
    }
}

fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.fork_named("fit-scaling-data").rng();
    let pts = lhs::latin_hypercube(&mut rng, n, DIM);
    let mut x = Matrix::zeros(0, DIM);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().map(|v| (3.0 * v).sin() + v * v).sum::<f64>());
        x.push_row(p).unwrap();
    }
    (x, y)
}

fn standardized(y: &[f64]) -> Vec<f64> {
    let m = pbo_linalg::vec_ops::mean(y);
    let s = pbo_linalg::vec_ops::variance(y).sqrt().max(1e-8);
    y.iter().map(|v| (v - m) / s).collect()
}

fn mid_params() -> Vec<f64> {
    let mut p = vec![(0.5f64).ln(); DIM];
    p.push(0.0);
    p.push((1e-4f64).ln());
    p
}

/// Faithful replica of the seed's pre-overhaul `mll_and_grad`: serial
/// O(n²) kernel assembly recomputing every pairwise distance, a fresh
/// allocation per matrix, the explicit `K_y⁻¹` built one column at a
/// time through scalar triangular solves, and the O(n²d) gradient
/// contraction recomputing distances a second time. Byte-for-byte the
/// arithmetic the overhaul replaced.
fn mll_and_grad_pre(
    family: KernelType,
    x: &Matrix,
    y_std: &[f64],
    params: &[f64],
) -> Option<(f64, Vec<f64>)> {
    let n = x.rows();
    let d = x.cols();
    let (kernel, noise) = unpack(family, params);
    // Pre-PR Kernel::matrix: serial, entry-at-a-time with mirroring.
    let mut k_kernel = Matrix::zeros(n, n);
    for i in 0..n {
        k_kernel[(i, i)] = kernel.outputscale;
        for j in 0..i {
            let v = kernel.eval(x.row(i), x.row(j));
            k_kernel[(i, j)] = v;
            k_kernel[(j, i)] = v;
        }
    }
    let mut ky = k_kernel.clone();
    ky.add_diag(noise);
    let chol = Cholesky::factor(&ky).ok()?;

    let ones = vec![1.0; n];
    let kinv_ones = chol.solve(&ones).ok()?;
    let kinv_y = chol.solve(y_std).ok()?;
    let denom = dot(&ones, &kinv_ones).max(1e-300);
    let trend = dot(&ones, &kinv_y) / denom;
    let r: Vec<f64> = y_std.iter().map(|v| v - trend).collect();
    let alpha: Vec<f64> =
        kinv_y.iter().zip(&kinv_ones).map(|(a, b)| a - trend * b).collect();
    let mll = -0.5 * dot(&r, &alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // Pre-PR Cholesky::inverse: one pair of scalar triangular solves per
    // column of the identity.
    let mut kinv = Matrix::identity(n);
    let mut col = vec![0.0; n];
    for j in 0..n {
        for i in 0..n {
            col[i] = kinv[(i, j)];
        }
        chol.solve_lower_in_place(&mut col);
        chol.solve_lower_t_in_place(&mut col);
        for i in 0..n {
            kinv[(i, j)] = col[i];
        }
    }

    let mut grad = vec![0.0; d + 2];
    let inv_ls2: Vec<f64> =
        kernel.lengthscales.iter().map(|l| 1.0 / (l * l)).collect();
    for a in 0..n {
        for b in 0..a {
            let w = alpha[a] * alpha[b] - kinv[(a, b)];
            let ra = x.row(a);
            let rb = x.row(b);
            let rdist = kernel.scaled_dist(ra, rb);
            let gf = kernel.outputscale * family.grad_factor(rdist);
            for j in 0..d {
                let dj = ra[j] - rb[j];
                grad[j] += w * gf * dj * dj * inv_ls2[j];
            }
        }
    }
    let mut g_os = 0.0;
    for a in 0..n {
        for b in 0..n {
            g_os += (alpha[a] * alpha[b] - kinv[(a, b)]) * k_kernel[(a, b)];
        }
    }
    grad[d] = 0.5 * g_os;
    let mut g_n = 0.0;
    for a in 0..n {
        g_n += alpha[a] * alpha[a] - kinv[(a, a)];
    }
    grad[d + 1] = 0.5 * noise * g_n;

    Some((mll, grad))
}

/// One MLL value+gradient evaluation — pre-PR replica, current naive
/// reference, and workspace paths — plus the gradient-free workspace
/// value (the multistart scoring path).
fn bench_mll_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes(&[64usize, 128, 256, 512]) {
        let (x, y) = dataset(n, 2);
        let y_std = standardized(&y);
        let params = mid_params();
        // The replica must agree with the in-repo reference (which the
        // workspace path is property-tested against) — guard the
        // recorded baseline against drift.
        {
            let (v_pre, g_pre) =
                mll_and_grad_pre(KernelType::Matern52, &x, &y_std, &params).unwrap();
            let (v_ref, g_ref) =
                mll_and_grad(KernelType::Matern52, &x, &y_std, &params).unwrap();
            assert!((v_pre - v_ref).abs() <= 1e-9 * (1.0 + v_ref.abs()));
            for (a, b) in g_pre.iter().zip(&g_ref) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
        g.bench_with_input(BenchmarkId::new("mll_grad_prepr", n), &n, |b, _| {
            b.iter(|| mll_and_grad_pre(KernelType::Matern52, &x, &y_std, &params).unwrap().0)
        });
        g.bench_with_input(BenchmarkId::new("mll_grad_naive", n), &n, |b, _| {
            b.iter(|| mll_and_grad(KernelType::Matern52, &x, &y_std, &params).unwrap().0)
        });
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        g.bench_with_input(BenchmarkId::new("mll_grad_workspace", n), &n, |b, _| {
            b.iter(|| {
                mll_and_grad_ws(KernelType::Matern52, &mut ws, &y_std, &params)
                    .unwrap()
                    .0
            })
        });
    }
    g.finish();
}

/// The pre-overhaul full fit: the same start schedule and L-BFGS budget
/// as `fit`, driven through the pre-PR replica objective (whose `value`
/// also paid for the full gradient, exactly as the seed's `NegMll` did).
fn fit_pre(x: &Matrix, y: &[f64], cfg: &FitConfig, seeds: &mut SeedStream) -> f64 {
    let d = x.cols();
    let y_std = standardized(y);
    let family = cfg.family;
    let obj = FnGradObjective::new(
        d + 2,
        |p: &[f64]| match mll_and_grad_pre(family, x, &y_std, p) {
            Some((v, _)) => -v,
            None => f64::INFINITY,
        },
        |p: &[f64]| match mll_and_grad_pre(family, x, &y_std, p) {
            Some((v, g)) => (-v, g.into_iter().map(|gi| -gi).collect()),
            None => (f64::INFINITY, vec![0.0; p.len()]),
        },
    );
    let mut lo = vec![cfg.log_ls_bounds.0; d];
    let mut hi = vec![cfg.log_ls_bounds.1; d];
    lo.push(cfg.log_os_bounds.0);
    hi.push(cfg.log_os_bounds.1);
    lo.push(cfg.log_noise_bounds.0);
    hi.push(cfg.log_noise_bounds.1);
    let bounds = Bounds::new(lo, hi);
    let lbfgs = LbfgsConfig { max_iters: cfg.max_iters, ..LbfgsConfig::default() };
    let mut rng = seeds.fork_named("fit-starts").rng();
    let mut starts = vec![mid_params()];
    for _ in 0..cfg.restarts {
        let mut p: Vec<f64> = (0..d)
            .map(|_| rng.gen_range((0.1f64).ln()..(2.0f64).ln()))
            .collect();
        p.push(0.0);
        p.push(rng.gen_range((1e-6f64).ln()..(1e-2f64).ln()));
        starts.push(p);
    }
    let mut best = f64::INFINITY;
    for s in &starts {
        let mut s = s.clone();
        bounds.clamp(&mut s);
        let r = pbo_opt::lbfgs::minimize(&obj, &bounds, &s, &lbfgs);
        if r.value.is_finite() && r.value < best {
            best = r.value;
        }
    }
    -best
}

/// Full multi-start fit, pre-overhaul path vs the shipping workspace
/// path, with identical start schedules and iteration budgets.
fn bench_full_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (2000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes(&[64usize, 128, 256]) {
        let (x, y) = dataset(n, 3);
        let cfg = FitConfig { restarts: 1, max_iters: 20, ..FitConfig::default() };
        g.bench_with_input(BenchmarkId::new("fit_prepr", n), &n, |b, _| {
            b.iter(|| {
                let mut seeds = SeedStream::new(9);
                fit_pre(&x, &y, &cfg, &mut seeds)
            })
        });
        g.bench_with_input(BenchmarkId::new("fit_workspace", n), &n, |b, _| {
            b.iter(|| {
                let mut seeds = SeedStream::new(9);
                fit(&x, &y, &cfg, None, &mut seeds).unwrap().1.mll
            })
        });
    }
    g.finish();
}

/// Reduced-budget warm refit (the per-cycle partial fit) plus the
/// rebuild of the GP with the refitted hyperparameters.
fn bench_refit_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes(&[64usize, 128, 256]) {
        let (x, y) = dataset(n, 4);
        let cfg = FitConfig { restarts: 0, warm_iters: 10, ..FitConfig::default() };
        let mut seeds = SeedStream::new(13);
        let (gp, _) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
        g.bench_with_input(BenchmarkId::new("refit_warm", n), &n, |b, _| {
            b.iter(|| {
                let mut seeds = SeedStream::new(17);
                let mut ws = FitWorkspace::new();
                refit_warm_with(&x, &y, gp.kernel(), gp.noise(), &cfg, &mut seeds, &mut ws)
                    .unwrap()
                    .1
                    .mll
            })
        });
    }
    g.finish();
}

/// Cycle-amortized posterior maintenance: a clone of the model plus
/// `GaussianProcess::condition_on` in place (extend the cached Cholesky
/// factor by the q new rows, O(n²q); the case keeps its historical id
/// `gp_update`, and the clone stands in for the copy the fantasy loops
/// make once per batch)
/// vs the engine's pre-PR non-full-cycle floor — a frozen-hyperparameter
/// rebuild that refactors the whole (n+q)×(n+q) system from scratch
/// (O(n³)). The `update_vs_refit` headline in `BENCH_fit.json` is the
/// `gp_rebuild`/`gp_update` ratio at n=512, q=8.
fn bench_update_vs_refit(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1500, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    let qs: &[usize] = if smoke() { &[8] } else { &[4, 8, 16] };
    for &n in sizes(&[256usize, 512, 1024]) {
        for &q in qs {
            let (x_all, y_all) = dataset(n + q, 6);
            let x = Matrix::from_fn(n, DIM, |i, j| x_all[(i, j)]);
            let kernel = Kernel::new(KernelType::Matern52, DIM);
            let base = GaussianProcess::new(x, &y_all[..n], kernel.clone(), 1e-4).unwrap();
            let new_xs: Vec<Vec<f64>> =
                (n..n + q).map(|i| x_all.row(i).to_vec()).collect();
            let new_ys = &y_all[n..];
            let id = format!("{n}q{q}");
            g.bench_with_input(BenchmarkId::new("gp_update", &id), &n, |b, _| {
                b.iter(|| {
                    let mut g = base.clone();
                    g.condition_on(&new_xs, new_ys).unwrap();
                    g.n()
                })
            });
            g.bench_with_input(BenchmarkId::new("gp_rebuild", &id), &n, |b, _| {
                b.iter(|| {
                    GaussianProcess::new(x_all.clone(), &y_all, kernel.clone(), 1e-4)
                        .unwrap()
                        .n()
                })
            });
        }
    }
    g.finish();
}

/// Dense Cholesky factorization past `BIT_EXACT_MAX_N`: the one serial
/// row kernel, four rows at a time through `dot4`. It runs on one
/// thread, so the thread count does not change what this measures.
fn bench_chol_factor(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (2000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes(&[512usize, 1024]) {
        let (x, _) = dataset(n, 7);
        let kernel = Kernel::new(KernelType::Matern52, DIM);
        let mut a = kernel.matrix(&x);
        a.add_diag(1e-4);
        g.bench_with_input(BenchmarkId::new("chol", n), &n, |b, _| {
            b.iter(|| Cholesky::factor(&a).unwrap().log_det())
        });
    }
    g.finish();
}

/// Batched prediction over a 128-point candidate set vs the per-point
/// loop it replaced.
fn bench_predict_many(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    let q = 128usize;
    for &n in sizes(&[64usize, 128, 256, 512]) {
        let (x, y) = dataset(n, 5);
        let kernel = Kernel::new(KernelType::Matern52, DIM);
        let gp = GaussianProcess::new(x, &y, kernel, 1e-4).unwrap();
        let mut rng = SeedStream::new(21).fork_named("cands").rng();
        let cands = lhs::latin_hypercube(&mut rng, q, DIM);
        let pts = Matrix::from_rows(&cands).unwrap();
        g.bench_with_input(BenchmarkId::new("predict_many_q128", n), &n, |b, _| {
            b.iter(|| gp.predict_many(&pts).0[0])
        });
        g.bench_with_input(BenchmarkId::new("predict_loop_q128", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for p in &cands {
                    acc += gp.predict(p).0;
                }
                acc
            })
        });
    }
    g.finish();
}

/// The engine's initial design (best of four maximin LHS draws), which
/// every run and every served session create draws before its first
/// fit. Both sizes run under smoke too: the 1024-point case is a quick
/// gate pin.
fn bench_maximin_design(c: &mut Criterion) {
    let mut g = c.benchmark_group("fit_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1000, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for n in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::new("maximin_lhs", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = SeedStream::new(11).fork_named("doe").rng();
                lhs::maximin_latin_hypercube(&mut rng, n, DIM, 4).len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mll_paths,
    bench_full_fit,
    bench_refit_warm,
    bench_update_vs_refit,
    bench_chol_factor,
    bench_predict_many,
    bench_maximin_design
);
criterion_main!(benches);
