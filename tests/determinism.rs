//! Cross-crate determinism suite.
//!
//! The whole stack is seeded from one `u64` through SplitMix64 stream
//! forking, and the fault-tolerant executor charges retries/backoff to
//! the *virtual* clock — so a run must replay bit-identically whatever
//! the physical worker count, with and without injected faults. These
//! tests pin that contract at the outermost API
//! (`run_algorithm_observed`, the one run entry point), where any
//! ordering leak in sampling, GP fitting, acquisition multistart,
//! executor fan-out or fault injection would surface.

use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::engine::{AlgoConfig, SurrogateBackend};
use pbo::core::exec::FtPolicy;
use pbo::core::observe::NullObserver;
use pbo::core::record::RunRecord;
use pbo::problems::fault::{silence_injected_panics, FaultPlan, FaultyProblem};
use pbo::problems::SyntheticFn;

/// Test config pinned to `workers` evaluation threads.
fn cfg_with_workers(workers: usize) -> AlgoConfig {
    AlgoConfig {
        ft: FtPolicy { eval_workers: Some(workers), ..FtPolicy::default() },
        ..AlgoConfig::test_profile()
    }
}

/// Everything about a run that must be reproducible: the best-so-far
/// trace, the final incumbent, per-cycle timings on the virtual clock
/// and the fault counters.
fn fingerprint(r: &RunRecord) -> (Vec<u64>, Vec<u64>, Vec<(u64, u64, u64)>, Vec<u64>) {
    let trace = r.y_min.iter().map(|v| v.to_bits()).collect();
    let best_x = r.best_x.iter().map(|v| v.to_bits()).collect();
    let cycles = r
        .cycles
        .iter()
        .map(|c| (c.best_y_min.to_bits(), c.sim_time.to_bits(), c.clock.to_bits()))
        .collect();
    let t = r.fault_totals();
    let faults = vec![
        t.panics,
        t.nan_quarantined,
        t.inf_quarantined,
        t.stragglers,
        t.timeouts,
        t.retries,
        t.imputed,
        t.dropped,
        t.virtual_secs_lost.to_bits(),
    ];
    (trace, best_x, cycles, faults)
}

fn run_clean(algo: AlgorithmKind, seed: u64, workers: usize) -> RunRecord {
    let p = SyntheticFn::ackley(4);
    let budget = Budget::cycles(4, 2).with_initial_samples(10);
    run_algorithm_observed(algo, &p, &budget, cfg_with_workers(workers), seed, NullObserver)
        .unwrap()
}

fn run_faulty(algo: AlgorithmKind, seed: u64, workers: usize) -> RunRecord {
    let p = SyntheticFn::ackley(4);
    let faulty = FaultyProblem::new(&p, FaultPlan::uniform(seed ^ 0xFA17, 0.25));
    let budget = Budget::cycles(4, 2).with_initial_samples(10);
    run_algorithm_observed(algo, &faulty, &budget, cfg_with_workers(workers), seed, NullObserver)
        .unwrap()
}

#[test]
fn same_seed_same_trace_regardless_of_worker_count_clean() {
    for algo in [AlgorithmKind::MicQEgo, AlgorithmKind::Turbo] {
        let base = fingerprint(&run_clean(algo, 77, 1));
        for workers in [2, 5, 8] {
            let other = fingerprint(&run_clean(algo, 77, workers));
            assert_eq!(
                base, other,
                "{algo:?}: 1-worker vs {workers}-worker traces diverged"
            );
        }
    }
}

#[test]
fn same_seed_same_trace_regardless_of_worker_count_faulty() {
    silence_injected_panics();
    for algo in [AlgorithmKind::KbQEgo, AlgorithmKind::McQEgo] {
        let base = fingerprint(&run_faulty(algo, 31, 1));
        // Faults injected deterministically per (seed, x, attempt) must
        // replay identically however the batch is sharded over threads.
        for workers in [3, 7] {
            let other = fingerprint(&run_faulty(algo, 31, workers));
            assert_eq!(
                base, other,
                "{algo:?}: faulty 1-worker vs {workers}-worker traces diverged"
            );
        }
        // And the faulty runs must actually have exercised the fault
        // path, else the assertion above is vacuous.
        assert!(base.3.iter().take(6).any(|&c| c > 0), "{algo:?}: no faults injected");
    }
}

#[test]
fn repeated_runs_with_same_seed_are_bit_identical() {
    let a = fingerprint(&run_clean(AlgorithmKind::BspEgo, 5, 4));
    let b = fingerprint(&run_clean(AlgorithmKind::BspEgo, 5, 4));
    assert_eq!(a, b);
}

/// PR 9's algorithms — including the variable-q hybrid, whose
/// per-cycle batch sizing must itself be a pure function of the seeded
/// state — replay bit-identically across eval-worker counts.
#[test]
fn new_batch_algorithms_are_worker_count_invariant() {
    for algo in [AlgorithmKind::GpUcbPe, AlgorithmKind::HybridQ] {
        let base = fingerprint(&run_clean(algo, 91, 1));
        for workers in [2, 5] {
            let other = fingerprint(&run_clean(algo, 91, workers));
            assert_eq!(
                base, other,
                "{algo:?}: 1-worker vs {workers}-worker traces diverged"
            );
        }
    }
    // The hybrid must have actually flexed its batch size, else the
    // variable-q leg of the invariance claim is vacuous.
    let r = run_clean(AlgorithmKind::HybridQ, 91, 1);
    let widths: Vec<usize> = r.cycles.iter().map(|c| c.n_evals).collect();
    assert!(
        widths.iter().any(|&w| w != widths[0]) || widths.iter().any(|&w| w < 2),
        "hybrid never varied q ({widths:?}); pick a seed where it does"
    );
}

#[test]
fn different_seeds_diverge() {
    // Guard against a degenerate fingerprint (e.g. everything constant).
    let a = fingerprint(&run_clean(AlgorithmKind::MicQEgo, 1, 2));
    let b = fingerprint(&run_clean(AlgorithmKind::MicQEgo, 2, 2));
    assert_ne!(a.0, b.0, "different seeds should explore differently");
}

#[test]
fn zero_fault_plan_is_bit_identical_to_unwrapped_problem() {
    let p = SyntheticFn::schwefel(3);
    let budget = Budget::cycles(3, 2).with_initial_samples(8);
    let plain = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &p,
        &budget,
        cfg_with_workers(4),
        99,
        NullObserver,
    )
    .unwrap();
    let wrapped = FaultyProblem::new(&p, FaultPlan::none(123));
    let faulty = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &wrapped,
        &budget,
        cfg_with_workers(4),
        99,
        NullObserver,
    )
    .unwrap();
    assert_eq!(fingerprint(&plain).0, fingerprint(&faulty).0);
    assert_eq!(fingerprint(&plain).2, fingerprint(&faulty).2);
    assert!(!faulty.fault_totals().any());
    assert_eq!(wrapped.injection_log().total(), 0);
}

// ---------------------------------------------------------------------
// Acquisition-thread bit-identity: the multistart acquisition optimizer
// fans raw scoring and per-start polishing out over
// `pbo_linalg::parallel` scoped threads, reducing by `(value,
// start_index)`. These tests mirror the eval-worker suite one level
// down: the full trace must be bit-identical whatever the *compute*
// thread count, with and without injected faults.
// ---------------------------------------------------------------------

/// The thread override is process-global, so tests that touch it must
/// not interleave.
static THREAD_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const ALL_SIX: [AlgorithmKind; 6] = [
    AlgorithmKind::KbQEgo,
    AlgorithmKind::MicQEgo,
    AlgorithmKind::McQEgo,
    AlgorithmKind::BspEgo,
    AlgorithmKind::Turbo,
    AlgorithmKind::RandomSearch,
];

fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    pbo::linalg::parallel::set_num_threads(threads);
    let out = f();
    pbo::linalg::parallel::set_num_threads(0);
    out
}

#[test]
fn same_seed_same_trace_regardless_of_thread_count_clean() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    for algo in ALL_SIX {
        let base = at_threads(1, || fingerprint(&run_clean(algo, 53, 2)));
        for threads in [2, 6] {
            let other = at_threads(threads, || fingerprint(&run_clean(algo, 53, 2)));
            assert_eq!(
                base, other,
                "{algo:?}: 1-thread vs {threads}-thread traces diverged"
            );
        }
    }
}

#[test]
fn new_batch_algorithms_are_thread_count_invariant() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    for algo in [AlgorithmKind::GpUcbPe, AlgorithmKind::HybridQ] {
        let base = at_threads(1, || fingerprint(&run_clean(algo, 53, 2)));
        let other = at_threads(4, || fingerprint(&run_clean(algo, 53, 2)));
        assert_eq!(base, other, "{algo:?}: 1-thread vs 4-thread traces diverged");
    }
}

#[test]
fn same_seed_same_trace_regardless_of_thread_count_faulty() {
    silence_injected_panics();
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    for algo in ALL_SIX {
        let base = at_threads(1, || fingerprint(&run_faulty(algo, 47, 2)));
        for threads in [4] {
            let other = at_threads(threads, || fingerprint(&run_faulty(algo, 47, 2)));
            assert_eq!(
                base, other,
                "{algo:?}: faulty 1-thread vs {threads}-thread traces diverged"
            );
        }
        assert!(base.3.iter().take(6).any(|&c| c > 0), "{algo:?}: no faults injected");
    }
}

// ---------------------------------------------------------------------
// Incremental-update and fitting-kernel determinism: the
// `incremental_updates` fast path extends the cached Cholesky factor
// instead of refactoring, and the MLL gradient fans its `L⁻ᵀ` rows and
// pair contraction out over threads. Both must preserve the same
// contract as everything above — bit-identical traces for any worker
// or compute-thread count, and bit-identical factors vs the
// from-scratch row kernel at every size.
// ---------------------------------------------------------------------

/// Test config with the incremental-update fast path on: full fits on
/// even cycles, factor extensions on odd ones, so a 4-cycle run
/// exercises both.
fn cfg_incremental(workers: usize) -> AlgoConfig {
    AlgoConfig {
        full_fit_every: 2,
        incremental_updates: true,
        ft: FtPolicy { eval_workers: Some(workers), ..FtPolicy::default() },
        ..AlgoConfig::test_profile()
    }
}

fn run_incremental(algo: AlgorithmKind, seed: u64, workers: usize) -> RunRecord {
    let p = SyntheticFn::ackley(4);
    let budget = Budget::cycles(4, 2).with_initial_samples(10);
    run_algorithm_observed(algo, &p, &budget, cfg_incremental(workers), seed, NullObserver).unwrap()
}

#[test]
fn incremental_update_runs_are_bit_identical_across_worker_counts() {
    for algo in [AlgorithmKind::KbQEgo, AlgorithmKind::McQEgo] {
        let base = fingerprint(&run_incremental(algo, 21, 1));
        for workers in [3, 6] {
            let other = fingerprint(&run_incremental(algo, 21, workers));
            assert_eq!(
                base, other,
                "{algo:?}: incremental 1-worker vs {workers}-worker traces diverged"
            );
        }
    }
}

#[test]
fn incremental_update_runs_are_bit_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    for algo in [AlgorithmKind::MicQEgo, AlgorithmKind::Turbo] {
        let base = at_threads(1, || fingerprint(&run_incremental(algo, 63, 2)));
        for threads in [2, 6] {
            let other = at_threads(threads, || fingerprint(&run_incremental(algo, 63, 2)));
            assert_eq!(
                base, other,
                "{algo:?}: incremental 1-thread vs {threads}-thread traces diverged"
            );
        }
    }
}

/// RBF-style Gram matrix over a deterministic 1-D point cloud: uniform
/// unit diagonal, strictly positive definite for distinct points.
fn gram(n: usize) -> pbo::linalg::Matrix {
    let pts: Vec<f64> =
        (0..n).map(|i| (i as f64 * 0.37).sin() * 2.0 + i as f64 * 0.01).collect();
    pbo::linalg::Matrix::from_fn(n, n, |i, j| {
        let d = pts[i] - pts[j];
        (-0.5 * d * d).exp() + if i == j { 1e-8 } else { 0.0 }
    })
}

#[test]
fn mll_and_grad_is_bit_identical_for_any_thread_count() {
    use pbo::gp::workspace::{mll_and_grad_ws, FitWorkspace};
    use pbo::gp::KernelType;
    use pbo::linalg::{Cholesky, Matrix};
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    // n = 300 is past BIT_EXACT_MAX_N and large enough that the kernel
    // assembly, the `L⁻ᵀ` rows and the pair contraction all fan out;
    // their chunking must decide scheduling only, never values. The
    // factor runs serially, so it must not move either.
    let n = 300;
    let pts = cloud(n, 4);
    let x = Matrix::from_rows(&pts).unwrap();
    let y: Vec<f64> = pts.iter().map(|p| (3.0 * p[0]).sin() + p[1] * p[2] - p[3]).collect();
    let ym = pbo::linalg::vec_ops::mean(&y);
    let ys = pbo::linalg::vec_ops::variance(&y).sqrt();
    let y_std: Vec<f64> = y.iter().map(|v| (v - ym) / ys).collect();
    let params = [(0.4f64).ln(), (0.7f64).ln(), (0.5f64).ln(), (1.2f64).ln(), 0.1, (1e-4f64).ln()];
    let eval = || {
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        mll_and_grad_ws(KernelType::Matern52, &mut ws, &y_std, &params).unwrap()
    };
    let a = gram(n);
    let (v1, g1) = at_threads(1, eval);
    let f1 = at_threads(1, || Cholesky::factor(&a).unwrap());
    for threads in [2, 3, 6] {
        let (v, g) = at_threads(threads, eval);
        assert_eq!(v.to_bits(), v1.to_bits(), "{threads}-thread MLL value diverged");
        for (k, (u, w)) in g.iter().zip(&g1).enumerate() {
            assert_eq!(u.to_bits(), w.to_bits(), "{threads}-thread grad[{k}] diverged");
        }
        let f = at_threads(threads, || Cholesky::factor(&a).unwrap());
        assert_eq!(f.jitter().to_bits(), f1.jitter().to_bits());
        for (u, w) in f.l().as_slice().iter().zip(f1.l().as_slice()) {
            assert_eq!(u.to_bits(), w.to_bits(), "{threads}-thread factor diverged");
        }
    }
}

#[test]
fn factor_extension_matches_from_scratch_below_bit_exact_max_n() {
    use pbo::linalg::{Cholesky, Matrix};
    // n + q = 96 ≤ BIT_EXACT_MAX_N: the extension appends rows with the
    // same serial row kernel, so the factor must match from-scratch
    // bit for bit.
    let (n, q) = (90usize, 6usize);
    let full = gram(n + q);
    let head = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
    let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
    let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
    let base = Cholesky::factor(&head).unwrap();
    let ext = base.extend(&b, &c).unwrap();
    let direct = Cholesky::factor(&full).unwrap();
    assert_eq!(ext.jitter().to_bits(), direct.jitter().to_bits());
    for (x, y) in ext.l().as_slice().iter().zip(direct.l().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn factor_extension_matches_from_scratch_past_bit_exact_max_n() {
    use pbo::linalg::{Cholesky, Matrix};
    // n + q = 300 > BIT_EXACT_MAX_N: the factor runs one row kernel at
    // every size, so appended rows must still match from-scratch bit
    // for bit.
    let (n, q) = (290usize, 10usize);
    let full = gram(n + q);
    let head = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
    let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
    let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
    let base = Cholesky::factor(&head).unwrap();
    let ext = base.extend(&b, &c).unwrap();
    let direct = Cholesky::factor(&full).unwrap();
    assert_eq!(ext.jitter().to_bits(), direct.jitter().to_bits());
    for (x, y) in ext.l().as_slice().iter().zip(direct.l().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

// ---------------------------------------------------------------------
// Sparse-surrogate determinism: the inducing-point backend assembles
// its n×m cross-kernel blocks through `pbo_linalg::parallel`
// (per-row-pure chunking) and selects inducing points with a serial
// greedy pivoted Cholesky. Both must be bitwise independent of the
// compute-thread count, at the model level and through a full
// engine-driven run with the `Sparse` backend switched on.
// ---------------------------------------------------------------------

/// Deterministic d-dimensional point cloud in the unit cube.
fn cloud(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|j| {
                    let t = (i * d + j) as f64;
                    ((t * 0.613).sin() * 0.5 + 0.5).clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect()
}

#[test]
fn sparse_fit_is_bit_identical_for_any_thread_count() {
    use pbo::gp::kernel::{Kernel, KernelType};
    use pbo::gp::SparseGaussianProcess;
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    let (n, d, m) = (600usize, 4usize, 64usize);
    let rows = cloud(n, d);
    let x = pbo::linalg::Matrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r.iter().map(|v| (v - 0.3) * (v - 0.7)).sum::<f64>())
        .collect();
    let mut kernel = Kernel::new(KernelType::Matern52, d);
    kernel.lengthscales = vec![0.4; d];
    let probes = cloud(17, d);
    let build = || {
        let g = SparseGaussianProcess::new(x.clone(), &y, kernel.clone(), 1e-6, m).unwrap();
        let w: Vec<u64> = g.weights().iter().map(|v| v.to_bits()).collect();
        let z: Vec<u64> = g.inducing_x().as_slice().iter().map(|v| v.to_bits()).collect();
        let preds: Vec<(u64, u64)> = probes
            .iter()
            .map(|p| {
                let (mu, var) = g.predict(p);
                (mu.to_bits(), var.to_bits())
            })
            .collect();
        (w, z, preds)
    };
    let base = at_threads(1, build);
    for threads in [2, 6] {
        let other = at_threads(threads, build);
        assert_eq!(base, other, "sparse fit diverged at {threads} threads");
    }
}

/// Test config with the sparse backend switched on from the start
/// (`switch_at` below the DoE size so every cycle runs sparse).
fn cfg_sparse(workers: usize) -> AlgoConfig {
    AlgoConfig {
        surrogate: SurrogateBackend::Sparse { m: 16, switch_at: 24 },
        ft: FtPolicy { eval_workers: Some(workers), ..FtPolicy::default() },
        ..AlgoConfig::test_profile()
    }
}

fn run_sparse(algo: AlgorithmKind, seed: u64, workers: usize) -> RunRecord {
    let p = SyntheticFn::ackley(4);
    let budget = Budget::cycles(3, 2).with_initial_samples(30);
    run_algorithm_observed(algo, &p, &budget, cfg_sparse(workers), seed, NullObserver).unwrap()
}

#[test]
fn sparse_backend_runs_are_bit_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
    for algo in [AlgorithmKind::KbQEgo, AlgorithmKind::McQEgo, AlgorithmKind::Turbo] {
        let base = at_threads(1, || fingerprint(&run_sparse(algo, 29, 2)));
        for threads in [2, 6] {
            let other = at_threads(threads, || fingerprint(&run_sparse(algo, 29, 2)));
            assert_eq!(
                base, other,
                "{algo:?}: sparse 1-thread vs {threads}-thread traces diverged"
            );
        }
    }
}

#[test]
fn sparse_backend_runs_are_bit_identical_across_worker_counts() {
    for algo in [AlgorithmKind::MicQEgo, AlgorithmKind::BspEgo] {
        let base = fingerprint(&run_sparse(algo, 83, 1));
        for workers in [3, 6] {
            let other = fingerprint(&run_sparse(algo, 83, workers));
            assert_eq!(
                base, other,
                "{algo:?}: sparse 1-worker vs {workers}-worker traces diverged"
            );
        }
    }
}

#[test]
fn faulty_run_ends_with_finite_incumbent_and_clean_dataset() {
    silence_injected_panics();
    let r = run_faulty(AlgorithmKind::MicQEgo, 13, 4);
    assert!(r.best_y().is_finite());
    for v in &r.y_min {
        assert!(v.is_finite(), "best-so-far trace contains non-finite value {v}");
    }
    // Fault handling must cost virtual time, never save it: with the
    // same seed the faulty run's final clock is ≥ the clean run's.
    let clean = run_clean(AlgorithmKind::MicQEgo, 13, 4);
    assert!(r.final_clock >= clean.final_clock);
}
