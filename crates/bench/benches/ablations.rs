//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! warm-started refits vs full multistart fits, q-EI base-sample
//! counts, and the BSP cell multiplier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_gp::fit::{fit, refit_warm_with, FitConfig};
use pbo_gp::kernel::Kernel;
use pbo_gp::{FitWorkspace, GaussianProcess};
use pbo_linalg::Matrix;
use pbo_opt::Bounds;
use pbo_sampling::{lhs, SeedStream};

fn dataset(n: usize) -> (Matrix, Vec<f64>) {
    let seeds = SeedStream::new(31);
    let pts = lhs::latin_hypercube(&mut seeds.fork_named("d").rng(), n, 12);
    let mut x = Matrix::zeros(0, 12);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().map(|v| (2.5 * v).cos() + v).sum::<f64>());
        x.push_row(p).unwrap();
    }
    (x, y)
}

/// The paper's reduced intermediate fitting budget: how much does the
/// warm refit actually save over a full multistart fit?
fn ablation_refit(c: &mut Criterion) {
    let (x, y) = dataset(128);
    let cfg = FitConfig { restarts: 2, max_iters: 30, warm_iters: 8, ..FitConfig::default() };
    let mut seeds = SeedStream::new(7);
    let (gp, _) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
    let mut g = c.benchmark_group("ablation_refit");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    g.bench_function("full_multistart", |b| {
        b.iter(|| {
            let mut s = SeedStream::new(8);
            fit(&x, &y, &cfg, None, &mut s).unwrap().1.evals
        })
    });
    g.bench_function("warm_restart", |b| {
        b.iter(|| {
            let mut s = SeedStream::new(8);
            let mut ws = FitWorkspace::new();
            let (kernel, noise) = (gp.kernel(), gp.noise());
            refit_warm_with(&x, &y, kernel, noise, &cfg, &mut s, &mut ws).unwrap().1.evals
        })
    });
    g.finish();
}

/// MC q-EI cost as a function of the base-sample count (the
/// accuracy/cost dial of the reparameterization estimator).
fn ablation_qei_samples(c: &mut Criterion) {
    let (x, y) = dataset(96);
    let mut kernel = Kernel::new(12);
    kernel.lengthscales = vec![0.4; 12];
    let gp = GaussianProcess::new(x, &y, kernel, 1e-4).unwrap();
    let f_best = gp.best_observed(false);
    let flat: Vec<f64> = (0..4 * 12).map(|i| 0.1 + 0.8 * ((i * 37 % 100) as f64) / 100.0).collect();
    let mut g = c.benchmark_group("ablation_qei_samples");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for &m in &[32usize, 128, 512] {
        let qei = pbo_acq::mc::QExpectedImprovement::new(f_best, 4, m, 5);
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| qei.value_grad_flat(&gp, &flat).0)
        });
    }
    g.finish();
}

/// BSP-EGO with n_cand = q vs the paper's 2q: serial acquisition work.
fn ablation_bsp_cells(c: &mut Criterion) {
    let (x, y) = dataset(96);
    let mut kernel = Kernel::new(12);
    kernel.lengthscales = vec![0.4; 12];
    let gp = GaussianProcess::new(x, &y, kernel, 1e-4).unwrap();
    let f_best = gp.best_observed(false);
    let cfg = pbo_core::engine::AlgoConfig {
        acq: pbo_core::engine::AcqConfig {
            restarts: 2,
            raw_samples: 16,
            ..pbo_core::engine::AcqConfig::default()
        },
        ..pbo_core::engine::AlgoConfig::default()
    };
    let mut g = c.benchmark_group("ablation_bsp_cell_factor");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    for &factor in &[1usize, 2] {
        let q = 4;
        let tree = pbo_core::partition::BspTree::new(Bounds::unit(12), factor * q);
        let cells: Vec<Bounds> = tree.leaves().iter().map(|&l| tree.bounds_of(l).clone()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for (k, cell) in cells.iter().enumerate() {
                    let ei = pbo_acq::single::ExpectedImprovement { f_best };
                    let ms = pbo_core::algorithms::acq_multistart(&cfg, k as u64);
                    total += pbo_acq::single::optimize_single(&gp, &ei, cell, &[], &ms).value;
                }
                total
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ablation_refit, ablation_qei_samples, ablation_bsp_cells);
criterion_main!(benches);
