//! End-to-end integration: every algorithm, full loop, record
//! invariants.

use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::engine::AlgoConfig;
use pbo::core::observe::NullObserver;
use pbo::core::record::RunRecord;
use pbo::problems::{Problem, SyntheticFn};

/// One seeded run on the test profile.
fn run(kind: AlgorithmKind, problem: &dyn Problem, budget: &Budget, seed: u64) -> RunRecord {
    run_algorithm_observed(kind, problem, budget, AlgoConfig::test_profile(), seed, NullObserver)
        .unwrap()
}

#[test]
fn every_algorithm_runs_and_records_consistently() {
    let problem = SyntheticFn::ackley(4);
    let budget = Budget::cycles(3, 2).with_initial_samples(8);
    for kind in AlgorithmKind::ALL {
        let r = run(kind, &problem, &budget, 5);
        assert_eq!(r.algorithm, kind.name());
        assert_eq!(r.n_cycles(), 3, "{}", kind.name());
        // The adaptive-q hybrid commits between 1 and q points a cycle.
        let committed = r.n_simulations() - 8;
        if kind.is_variable_q() {
            assert!((3..=6).contains(&committed), "{}: {committed}", kind.name());
        } else {
            assert_eq!(committed, 6, "{}", kind.name());
        }
        assert_eq!(r.batch_size, 2);
        assert!(r.best_y().is_finite());
        assert!(r.final_clock > 0.0);
        // Trace is monotone non-increasing for a minimization problem.
        let t = r.best_trace();
        for w in t.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // best_x reproduces best_y through the problem.
        let v = problem.eval(&r.best_x);
        assert!((v - r.best_y()).abs() < 1e-9, "{}: {v} vs {}", kind.name(), r.best_y());
    }
}

#[test]
fn bayesian_methods_beat_random_search_on_smooth_problem() {
    // Rosenbrock's smooth valley is where surrogates shine; with equal
    // simulation budgets every BO method should beat random search.
    let problem = SyntheticFn::rosenbrock(4);
    let budget = Budget::cycles(8, 2).with_initial_samples(12);
    let random = run(AlgorithmKind::RandomSearch, &problem, &budget, 3);
    for kind in AlgorithmKind::paper_set() {
        let r = run(kind, &problem, &budget, 3);
        assert!(
            r.best_y() < random.best_y() * 1.5,
            "{} ({}) not clearly better than random ({})",
            kind.name(),
            r.best_y(),
            random.best_y()
        );
    }
}

#[test]
fn deterministic_replay_with_fixed_cost_model() {
    let problem = SyntheticFn::schwefel(4);
    let budget = Budget::cycles(3, 4).with_initial_samples(8);
    for kind in AlgorithmKind::paper_set() {
        let a = run(kind, &problem, &budget, 9);
        let b = run(kind, &problem, &budget, 9);
        assert_eq!(a.y_min, b.y_min, "{} not deterministic", kind.name());
        assert_eq!(a.best_x, b.best_x);
    }
}

#[test]
fn batch_sizes_one_through_eight_supported() {
    let problem = SyntheticFn::ackley(3);
    for q in [1usize, 2, 3, 5, 8] {
        let budget = Budget::cycles(2, q).with_initial_samples(8);
        let r = run(AlgorithmKind::MicQEgo, &problem, &budget, 1);
        assert_eq!(r.n_simulations(), 8 + 2 * q, "q = {q}");
    }
}

#[test]
fn shared_initial_design_across_algorithms() {
    // The paper hands the same initial sets to every algorithm: with a
    // common seed, the DoE segment of y_min must be identical.
    let problem = SyntheticFn::ackley(4);
    let budget = Budget::cycles(1, 2).with_initial_samples(10);
    let recs: Vec<_> =
        AlgorithmKind::paper_set().iter().map(|&k| run(k, &problem, &budget, 33)).collect();
    for r in &recs[1..] {
        assert_eq!(r.y_min[..10], recs[0].y_min[..10]);
    }
}
