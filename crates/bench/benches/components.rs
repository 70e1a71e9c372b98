//! Component micro-benchmarks: the costs whose growth produces the
//! paper's breaking point (GP fitting, posterior algebra, the UPHES
//! simulator itself).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_gp::fit::{fit, mll_and_grad, FitConfig};
use pbo_gp::kernel::Kernel;
use pbo_gp::GaussianProcess;
use pbo_linalg::{Cholesky, Matrix};
use pbo_sampling::{lhs, SeedStream};
use pbo_uphes::Simulator;
use rand::Rng;

fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.fork_named("bench-data").rng();
    let pts = lhs::latin_hypercube(&mut rng, n, d);
    let mut x = Matrix::zeros(0, d);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().map(|v| (3.0 * v).sin() + v * v).sum::<f64>());
        x.push_row(p).unwrap();
    }
    (x, y)
}

/// Cholesky factorization vs n: the O(n³) core of every fit.
fn bench_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky_factor");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &[64usize, 128, 256, 512] {
        let (x, _) = dataset(n, 12, 1);
        let kernel = Kernel::new(12);
        let mut k = kernel.matrix(&x);
        k.add_diag(1e-4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &k, |b, k| {
            b.iter(|| Cholesky::factor(k).unwrap().log_det())
        });
    }
    g.finish();
}

/// One marginal-likelihood value+gradient evaluation vs n — the unit of
/// work inside every hyperparameter-fitting iteration.
fn bench_mll_grad(c: &mut Criterion) {
    let mut g = c.benchmark_group("mll_and_grad");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let (x, y) = dataset(n, 12, 2);
        let mean = pbo_linalg::vec_ops::mean(&y);
        let sd = pbo_linalg::vec_ops::variance(&y).sqrt();
        let y_std: Vec<f64> = y.iter().map(|v| (v - mean) / sd).collect();
        let mut params = vec![(0.5f64).ln(); 12];
        params.push(0.0);
        params.push((1e-4f64).ln());
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mll_and_grad(&x, &y_std, &params).unwrap().0)
        });
    }
    g.finish();
}

/// Full hyperparameter fit vs n (the per-cycle "model learning" cost of
/// Fig. 2's discussion).
fn bench_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("gp_fit");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let (x, y) = dataset(n, 12, 3);
        let cfg = FitConfig { restarts: 1, max_iters: 20, ..FitConfig::default() };
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut seeds = SeedStream::new(9);
                fit(&x, &y, &cfg, None, &mut seeds).unwrap().1.mll
            })
        });
    }
    g.finish();
}

/// Fantasy conditioning (rank-q extension) vs plain O(n³) rebuild.
fn bench_fantasy_update(c: &mut Criterion) {
    let (x, y) = dataset(256, 12, 4);
    let kernel = Kernel::new(12);
    let gp = GaussianProcess::new(x, &y, kernel, 1e-4).unwrap();
    let mut rng = SeedStream::new(5).fork_named("f").rng();
    let new_x: Vec<Vec<f64>> =
        (0..4).map(|_| (0..12).map(|_| rng.gen::<f64>()).collect()).collect();
    let new_y: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
    c.bench_function("fantasy_condition_on_q4_n256", |b| {
        b.iter(|| {
            let mut g = gp.clone();
            g.condition_on(&new_x, &new_y).unwrap();
            g.n()
        })
    });
}

/// UPHES simulator throughput: one expected-profit evaluation
/// (96 steps × 8 scenarios).
fn bench_uphes_eval(c: &mut Criterion) {
    let sim = Simulator::maizeret(7);
    let x = [0.36, 0.36, 0.45, 1.0, 0.45, 0.45, 0.92, 0.45, 0.2, 0.0, 0.0, 0.0];
    c.bench_function("uphes_expected_profit", |b| b.iter(|| sim.expected_profit(&x)));
}

/// Posterior prediction cost (mean+variance) on a fitted model.
fn bench_predict(c: &mut Criterion) {
    let (x, y) = dataset(256, 12, 6);
    let kernel = Kernel::new(12);
    let gp = GaussianProcess::new(x, &y, kernel, 1e-4).unwrap();
    let p = vec![0.37; 12];
    c.bench_function("gp_predict_n256", |b| b.iter(|| gp.predict(&p)));
}

criterion_group!(
    benches,
    bench_cholesky,
    bench_mll_grad,
    bench_fit,
    bench_fantasy_update,
    bench_uphes_eval,
    bench_predict
);
criterion_main!(benches);
