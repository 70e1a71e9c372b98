//! Fault matrix: every batch algorithm must survive an unreliable
//! evaluation pool.
//!
//! Each algorithm runs a short UPHES campaign against a
//! [`FaultyProblem`] injecting a 10% mix of worker panics, NaN/Inf
//! results and straggler delays. The run must complete without
//! aborting, end with a finite incumbent, keep the best-so-far trace
//! clean of non-finite values, and its engine-side fault counters must
//! reconcile exactly with what the injector says it injected.

use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::engine::AlgoConfig;
use pbo::core::observe::NullObserver;
use pbo::core::record::RunRecord;
use pbo::problems::fault::{silence_injected_panics, FaultPlan, FaultyProblem, InjectionLog};
use pbo::problems::UphesProblem;

const ALGOS: [AlgorithmKind; 6] = [
    AlgorithmKind::KbQEgo,
    AlgorithmKind::MicQEgo,
    AlgorithmKind::McQEgo,
    AlgorithmKind::BspEgo,
    AlgorithmKind::Turbo,
    AlgorithmKind::ThompsonSampling,
];

fn faulty_run(algo: AlgorithmKind, rate: f64, seed: u64) -> (RunRecord, InjectionLog) {
    let problem = UphesProblem::maizeret(41);
    let faulty = FaultyProblem::new(&problem, FaultPlan::uniform(seed ^ 0xBAD, rate));
    let budget = Budget::cycles(4, 2).with_initial_samples(10);
    let r = run_algorithm_observed(
        algo,
        &faulty,
        &budget,
        AlgoConfig::test_profile(),
        seed,
        NullObserver,
    )
    .unwrap();
    let log = faulty.injection_log();
    (r, log)
}

#[test]
fn all_algorithms_survive_ten_percent_fault_rate() {
    silence_injected_panics();
    let mut any_faults = false;
    for algo in ALGOS {
        let (r, log) = faulty_run(algo, 0.10, 7);
        // Completed, finite incumbent, clean trace.
        assert!(r.best_y().is_finite(), "{algo:?}: non-finite incumbent {}", r.best_y());
        assert!(
            r.y_min.iter().all(|v| v.is_finite()),
            "{algo:?}: non-finite value in best-so-far trace"
        );
        for c in &r.cycles {
            assert!(c.best_y_min.is_finite(), "{algo:?}: non-finite cycle incumbent");
            assert!(c.sim_time.is_finite() && c.sim_time > 0.0);
        }

        // Counters reconcile exactly with the injected plan.
        let t = r.fault_totals();
        assert_eq!(t.panics, log.panics, "{algo:?}: panic count mismatch");
        assert_eq!(t.nan_quarantined, log.nans, "{algo:?}: NaN count mismatch");
        assert_eq!(t.inf_quarantined, log.infs, "{algo:?}: Inf count mismatch");
        assert_eq!(t.stragglers, log.straggles, "{algo:?}: straggler count mismatch");
        // Default policy has no timeout, so every failed attempt was
        // either retried or ended in an imputed/dropped point.
        assert_eq!(t.timeouts, 0, "{algo:?}: unexpected timeout");
        assert_eq!(
            t.failed_attempts(),
            t.retries + t.imputed + t.dropped,
            "{algo:?}: failed attempts do not reconcile with retries + imputations"
        );
        // Straggler delays are charged to the virtual clock as lost
        // time (plus any retry backoff), never discarded.
        if log.straggles > 0 || t.failed_attempts() > 0 {
            assert!(
                t.virtual_secs_lost > 0.0,
                "{algo:?}: faults injected but no virtual time lost"
            );
        }
        any_faults |= log.total() > 0;
    }
    // With a 10% rate over 6 × (10 DoE + 8 optimization) attempts the
    // matrix would be vacuous if nothing was ever injected.
    assert!(any_faults, "fault plan injected nothing across the whole matrix");
}

#[test]
fn heavy_fault_rate_still_terminates_with_finite_incumbent() {
    silence_injected_panics();
    // 40% fault rate: retries are exhausted regularly, so imputation
    // and dropping must both keep the run alive.
    let (r, log) = faulty_run(AlgorithmKind::MicQEgo, 0.40, 3);
    assert!(r.best_y().is_finite());
    assert!(log.total() > 0);
    let t = r.fault_totals();
    assert_eq!(t.failed_attempts(), t.retries + t.imputed + t.dropped);
}

#[test]
fn fault_counters_are_zero_on_clean_runs() {
    let problem = UphesProblem::maizeret(41);
    let budget = Budget::cycles(3, 2).with_initial_samples(8);
    let r = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &problem,
        &budget,
        AlgoConfig::test_profile(),
        5,
        NullObserver,
    )
    .unwrap();
    assert!(!r.fault_totals().any(), "clean run reported faults");
}
