//! Sparse-surrogate conformance suite.
//!
//! The inducing-point backend (DESIGN.md §12) must be a *refinement*
//! of the dense GP, not a different model: with m = n inducing points
//! the Nyström approximation is exact and the FITC posterior collapses
//! to the dense one, so means and variances must agree to numerical
//! noise. These tests pin that limit, the engine-level auto-switch
//! behaviour, and that a sparse run at n ≈ 2k completes within its
//! virtual-clock budget — the scaling claim the backend exists for.

use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::engine::{AlgoConfig, SurrogateBackend};
use pbo::core::observe::NullObserver;
use pbo::gp::kernel::{Kernel, KernelType};
use pbo::gp::{GaussianProcess, SparseGaussianProcess, Surrogate};
use pbo::linalg::Matrix;
use pbo::problems::SyntheticFn;
use proptest::prelude::*;

fn sparse_cfg(m: usize, switch_at: usize) -> AlgoConfig {
    AlgoConfig {
        surrogate: SurrogateBackend::Sparse { m, switch_at },
        ..AlgoConfig::test_profile()
    }
}

// ---------------------------------------------------------------------
// m = n exactness: SoR/FITC with every training point inducing is the
// dense GP, up to the jittered m×m factorization. Property-tested over
// random small problems, kernels and noise levels.
// ---------------------------------------------------------------------

fn build_pair(
    rows: &[Vec<f64>],
    y: &[f64],
    kind: KernelType,
    ls: f64,
    noise: f64,
) -> (GaussianProcess, SparseGaussianProcess) {
    let d = rows[0].len();
    let x = Matrix::from_rows(rows).unwrap();
    let mut kernel = Kernel::new(kind, d);
    kernel.lengthscales = vec![ls; d];
    let dense = GaussianProcess::new(x.clone(), y, kernel.clone(), noise).unwrap();
    let sparse = SparseGaussianProcess::new(x, y, kernel, noise, rows.len()).unwrap();
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_equals_dense_when_every_point_is_inducing(
        seed in 0u64..1000,
        n in 8usize..24,
        d in 1usize..4,
        ls in 0.2f64..1.0,
        noise in 1e-6f64..1e-3,
    ) {
        // Deterministic-from-seed Kronecker lattice: well-spread
        // distinct points, so the Gram matrix is well-conditioned at
        // this jitter scale.
        let alphas = [0.618033988749895f64, 0.754877666246693, 0.569840290998053];
        let off = seed as f64 * 0.1234567;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i + 1) as f64 * alphas[j] + off).fract()).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().map(|v| (v - 0.4).powi(2)).sum::<f64>())
            .collect();
        let kind = if seed % 2 == 0 { KernelType::Matern52 } else { KernelType::Rbf };
        let (dense, sparse) = build_pair(&rows, &y, kind, ls, noise);
        // The greedy selector may stop early when the Gram matrix is
        // numerically low-rank (residual below 1e-12·prior_var); the
        // approximation is exact-to-noise either way, which is what
        // the agreement assertions below pin.
        prop_assert!(sparse.m() >= 2 && sparse.m() <= n);

        let probes: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.391).cos() * 0.5 + 0.5).collect())
            .collect();
        for p in &probes {
            let (mu_d, var_d) = dense.predict(p);
            let (mu_s, var_s) = sparse.predict(p);
            let scale = 1.0 + mu_d.abs();
            prop_assert!(
                (mu_d - mu_s).abs() <= 1e-6 * scale,
                "mean mismatch at {p:?}: dense {mu_d} vs sparse {mu_s}"
            );
            prop_assert!(
                (var_d - var_s).abs() <= 1e-6 * (1.0 + var_d.abs()),
                "variance mismatch at {p:?}: dense {var_d} vs sparse {var_s}"
            );
        }
    }
}

#[test]
fn sparse_joint_posterior_matches_dense_at_m_equals_n() {
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|i| vec![((i as f64 * 0.537).sin() * 0.5 + 0.5).clamp(0.0, 1.0)])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| (r[0] - 0.5).powi(2)).collect();
    let (dense, sparse) = build_pair(&rows, &y, KernelType::Matern52, 0.3, 1e-6);
    let pts =
        Matrix::from_rows(&[vec![0.12], vec![0.44], vec![0.61], vec![0.93]]).unwrap();
    let (mu_d, cov_d) = dense.posterior_joint(&pts).unwrap();
    let (mu_s, cov_s) = sparse.posterior_joint(&pts).unwrap();
    for (a, b) in mu_d.iter().zip(&mu_s) {
        assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "joint mean {a} vs {b}");
    }
    for (a, b) in cov_d.as_slice().iter().zip(cov_s.as_slice()) {
        assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "joint cov {a} vs {b}");
    }
}

#[test]
fn condition_on_matches_rebuild_at_m_equals_n_support() {
    // Fantasy conditioning keeps Z and hyperparameters frozen; with
    // m = n support the appended-data posterior must track the dense GP's
    // conditioned posterior closely away from the appended points.
    let rows: Vec<Vec<f64>> = (0..14)
        .map(|i| vec![((i as f64 * 0.473).sin() * 0.5 + 0.5).clamp(0.0, 1.0)])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| (r[0] - 0.45).powi(2)).collect();
    let (dense, sparse) = build_pair(&rows, &y, KernelType::Rbf, 0.35, 1e-5);
    let xs_new = vec![vec![0.27], vec![0.72]];
    let ys_new = vec![0.031, 0.071];
    let mut dense2 = dense.clone();
    dense2.condition_on(&xs_new, &ys_new).unwrap();
    let mut sparse2 = sparse.clone();
    sparse2.condition_on(&xs_new, &ys_new).unwrap();
    for p in [[0.1], [0.5], [0.88]] {
        let mu_d = dense2.predict_mean(&p);
        let mu_s = sparse2.predict_mean(&p);
        assert!(
            (mu_d - mu_s).abs() <= 1e-4 * (1.0 + mu_d.abs()),
            "conditioned mean at {p:?}: dense {mu_d} vs sparse {mu_s}"
        );
    }
}

// ---------------------------------------------------------------------
// Engine integration: auto-switch fires at the configured size, the
// dense path below the threshold is byte-identical to a Dense config,
// and a 2k-point sparse run completes inside its virtual-clock budget.
// ---------------------------------------------------------------------

#[test]
fn below_switch_threshold_sparse_config_is_bit_identical_to_dense() {
    let p = SyntheticFn::ackley(4);
    let budget = Budget::cycles(3, 2).with_initial_samples(10);
    // 10 + 6 points stays below switch_at = 64: the Sparse config must
    // never leave the dense path, hence identical traces bit for bit.
    let dense = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &p,
        &budget,
        AlgoConfig::test_profile(),
        17,
        NullObserver,
    )
    .unwrap();
    let sparse = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &p,
        &budget,
        sparse_cfg(16,
        64),
        17,
        NullObserver,
    )
    .unwrap();
    let bits = |r: &pbo::core::record::RunRecord| {
        (
            r.y_min.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.best_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(bits(&dense), bits(&sparse));
}

#[test]
fn above_switch_threshold_sparse_and_dense_runs_diverge() {
    // Complement of the test above: once the dataset crosses
    // `switch_at` the sparse posterior really is in charge, so the
    // trajectories must differ — guards against a switch that never
    // fires.
    let p = SyntheticFn::ackley(4);
    let budget = Budget::cycles(4, 2).with_initial_samples(20);
    let dense = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &p,
        &budget,
        AlgoConfig::test_profile(),
        23,
        NullObserver,
    )
    .unwrap();
    let sparse = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &p,
        &budget,
        sparse_cfg(12,
        20),
        23,
        NullObserver,
    )
    .unwrap();
    assert_eq!(dense.n_simulations(), sparse.n_simulations());
    let a: Vec<u64> = dense.best_x.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = sparse.best_x.iter().map(|v| v.to_bits()).collect();
    assert_ne!(a, b, "sparse backend never engaged above switch_at");
}

#[test]
fn sparse_engine_smoke_at_two_thousand_points_finishes_in_budget() {
    // n starts at 2000 and grows by 8 per cycle; the sparse backend
    // (m = 64) keeps fit + acquisition tractable where the dense
    // O(n³) path would dominate the suite. The budget accounting is
    // on the virtual clock, so the run must report completed cycles
    // and a finite incumbent no worse than the DoE.
    let p = SyntheticFn::ackley(6);
    let budget = Budget::cycles(3, 8).with_initial_samples(2000);
    let r = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &p,
        &budget,
        sparse_cfg(64, 256),
        41,
        NullObserver,
    )
    .unwrap();
    assert_eq!(r.n_cycles(), 3);
    assert_eq!(r.n_simulations(), 2000 + 3 * 8);
    assert!(r.best_y().is_finite());
    let doe_best: f64 = r.y_min[..2000].iter().copied().fold(f64::INFINITY, f64::min);
    assert!(r.best_y() <= doe_best);
    assert!(r.final_clock.is_finite() && r.final_clock > 0.0);
}

#[test]
fn surrogate_model_reports_backend_after_switch() {
    use pbo::core::engine::Engine;
    let p = SyntheticFn::ackley(3);
    let budget = Budget::cycles(1, 2).with_initial_samples(30);
    let mut e = Engine::builder(&p)
        .budget(budget)
        .config(sparse_cfg(8, 16))
        .seed(7)
        .algorithm("probe")
        .build()
        .unwrap();
    e.fit_model();
    let model = e.model();
    assert_eq!(model.backend_name(), "sparse");
    assert_eq!(model.as_sparse().unwrap().m(), 8);
    // support_x is the inducing set, not the full training set.
    assert_eq!(model.support_x().rows(), 8);
    assert_eq!(model.n(), 30);
}
