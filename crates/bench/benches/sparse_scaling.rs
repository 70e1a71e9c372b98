//! Sparse-surrogate scaling: inducing-point (SoR/FITC) model build and
//! prediction vs the dense GP at growing dataset sizes.
//!
//! Four paths are measured per size n ∈ {1024, 4096, 10240}:
//! - `sparse_build`: greedy pivoted-Cholesky inducing selection plus the
//!   O(nm²) FITC build at m = 256 frozen hyperparameters;
//! - `dense_build`: the dense `GaussianProcess::new` O(n³) build at the
//!   same hyperparameters (skipped at n = 10240 to keep the suite
//!   bounded — the trend is established well before that);
//! - `sparse_predict_many` / `dense_predict_many`: batched posterior over
//!   a 256-point candidate set, O(m²) vs O(n) per point.
//!
//! The `sparse_vs_dense` headline in `BENCH_fit.json` is the
//! `dense_build`/`sparse_build` ratio at n = 4096. Posterior agreement
//! between the two backends is asserted in-bench (exact at m = n on a
//! 512-point subset, loose at m ≪ n) so the recorded speedup can never
//! come from a silently wrong model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_gp::fit::FitConfig;
use pbo_gp::kernel::{Kernel, KernelType};
use pbo_gp::workspace::FitWorkspace;
use pbo_gp::{fit, GaussianProcess, SparseGaussianProcess};
use pbo_linalg::Matrix;
use pbo_sampling::{lhs, SeedStream};

const DIM: usize = 12;
const M: usize = 256;

/// Seconds-scale smoke configuration for CI (`PBO_BENCH_SMOKE=1`).
fn smoke() -> bool {
    std::env::var_os("PBO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.fork_named("sparse-scaling-data").rng();
    let pts = lhs::latin_hypercube(&mut rng, n, DIM);
    let mut x = Matrix::zeros(0, DIM);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().map(|v| (3.0 * v).sin() + v * v).sum::<f64>());
        x.push_row(p).unwrap();
    }
    (x, y)
}

fn kernel() -> Kernel {
    let mut k = Kernel::new(KernelType::Matern52, DIM);
    k.lengthscales = vec![0.8; DIM];
    k
}

/// Exactness guard: with every training point inducing, the sparse
/// posterior must collapse to the dense one.
fn assert_exact_at_m_equals_n() {
    let (x, y) = dataset(512, 11);
    let k = kernel();
    let dense = GaussianProcess::new(x.clone(), &y, k.clone(), 1e-4).unwrap();
    let sparse = SparseGaussianProcess::new(x, &y, k, 1e-4, 512).unwrap();
    for i in 0..16 {
        let p: Vec<f64> = (0..DIM).map(|j| ((i * DIM + j) as f64 * 0.377).cos() * 0.5 + 0.5).collect();
        let (mu_d, var_d) = dense.predict(&p);
        let (mu_s, var_s) = sparse.predict(&p);
        assert!(
            (mu_d - mu_s).abs() <= 1e-6 * (1.0 + mu_d.abs()),
            "m = n mean mismatch: {mu_d} vs {mu_s}"
        );
        assert!(
            (var_d - var_s).abs() <= 1e-6 * (1.0 + var_d.abs()),
            "m = n variance mismatch: {var_d} vs {var_s}"
        );
    }
}

/// Fidelity guard at m ≪ n: the recorded speedup must belong to a model
/// that still tracks the dense posterior mean over the candidate set.
fn assert_agreement_at_m_below_n(dense: &GaussianProcess, sparse: &SparseGaussianProcess, pts: &Matrix) {
    let (mu_d, _) = dense.predict_many(pts);
    let (mu_s, _) = sparse.predict_many(pts);
    let spread = {
        let lo = mu_d.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = mu_d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo).max(1e-8)
    };
    let worst = mu_d
        .iter()
        .zip(&mu_s)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let rms = (mu_d
        .iter()
        .zip(&mu_s)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / mu_d.len() as f64)
        .sqrt();
    assert!(
        rms <= 0.05 * spread && worst <= 0.25 * spread,
        "sparse posterior drifted from dense: rms gap {rms:.3e}, worst {worst:.3e} \
         vs spread {spread:.3e}"
    );
}

fn sizes() -> &'static [usize] {
    if smoke() {
        &[1024]
    } else {
        &[1024, 4096, 10240]
    }
}

/// Model build: greedy inducing selection + FITC assembly (O(nm²)) vs
/// the dense O(n³) factorization, frozen hyperparameters both sides.
fn bench_build(c: &mut Criterion) {
    assert_exact_at_m_equals_n();
    let mut g = c.benchmark_group("sparse_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (3000, 300) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes() {
        let (x, y) = dataset(n, 2);
        let k = kernel();
        let m = M.min(n / 2);
        g.bench_with_input(BenchmarkId::new("sparse_build", n), &n, |b, _| {
            b.iter(|| SparseGaussianProcess::new(x.clone(), &y, k.clone(), 1e-4, m).unwrap().m())
        });
        // The dense build at n = 10240 is minutes-scale O(n³); the
        // headline ratio is taken at 4096, so larger sizes record the
        // sparse trend only.
        if n <= 4096 {
            g.bench_with_input(BenchmarkId::new("dense_build", n), &n, |b, _| {
                b.iter(|| GaussianProcess::new(x.clone(), &y, k.clone(), 1e-4).unwrap().n())
            });
        }
    }
    g.finish();
}

/// Batched posterior over a 256-point candidate set: O(m² + md) vs
/// O(n + nd) per point after the one-off cross-kernel assembly.
fn bench_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (1500, 200) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    let q = 256usize;
    for &n in sizes() {
        if n > 4096 {
            // Dense comparator is the point of this family; past 4096
            // its build alone dominates the suite.
            continue;
        }
        let (x, y) = dataset(n, 5);
        let k = kernel();
        let m = M.min(n / 2);
        let dense = GaussianProcess::new(x.clone(), &y, k.clone(), 1e-4).unwrap();
        let sparse = SparseGaussianProcess::new(x, &y, k, 1e-4, m).unwrap();
        let mut rng = SeedStream::new(21).fork_named("cands").rng();
        let cands = lhs::latin_hypercube(&mut rng, q, DIM);
        let pts = Matrix::from_rows(&cands).unwrap();
        assert_agreement_at_m_below_n(&dense, &sparse, &pts);
        g.bench_with_input(BenchmarkId::new("sparse_predict_many_q256", n), &n, |b, _| {
            b.iter(|| sparse.predict_many(&pts).0[0])
        });
        g.bench_with_input(BenchmarkId::new("dense_predict_many_q256", n), &n, |b, _| {
            b.iter(|| dense.predict_many(&pts).0[0])
        });
    }
    g.finish();
}

/// End-to-end sparse fit (hyperparameter search on the m-point subset +
/// full sparse build) — the cost the engine actually pays per full
/// cycle above the switch threshold.
fn bench_fit_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_scaling");
    let (meas, warm) = if smoke() { (150, 30) } else { (3000, 300) };
    g.measurement_time(std::time::Duration::from_millis(meas));
    g.warm_up_time(std::time::Duration::from_millis(warm));
    g.sample_size(10);
    for &n in sizes() {
        if smoke() && n > 1024 {
            continue;
        }
        let (x, y) = dataset(n, 3);
        let m = M.min(n / 2);
        // The engine's sparse full fit: search on at most m points.
        let cfg = FitConfig {
            restarts: 1,
            max_iters: 20,
            max_fit_points: Some(m),
            ..FitConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("fit_sparse", n), &n, |b, _| {
            b.iter(|| {
                let mut seeds = SeedStream::new(9);
                let mut ws = FitWorkspace::new();
                let (k, noise, _) =
                    fit::fit_hypers_with(&x, &y, &cfg, None, &mut seeds, &mut ws).unwrap();
                SparseGaussianProcess::new(x.clone(), &y, k, noise, m).unwrap().m()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_predict, bench_fit_sparse);
criterion_main!(benches);
