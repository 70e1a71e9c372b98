//! Integration of the UPHES simulator with the optimization stack.

use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::engine::{AcqConfig, AlgoConfig, QeiConfig};
use pbo::core::observe::NullObserver;
use pbo::problems::random_search::random_search;
use pbo::problems::{Problem, UphesProblem};
use pbo::uphes::schedule::Schedule;

/// A deterministic (fixed-cost) configuration strong enough for the
/// 12-d UPHES landscape, unlike the minimal smoke profile: a larger
/// DoE fraction (28 of the 66-sim budget), full hyperparameter refits
/// every cycle with two restarts, and an 8×96 acquisition multistart.
fn uphes_test_config() -> AlgoConfig {
    use pbo::core::clock::CostModel;
    use pbo::gp::FitConfig;
    AlgoConfig {
        fit: pbo::gp::FitConfig {
            restarts: 2,
            max_iters: 40,
            warm_iters: 12,
            ..FitConfig::default()
        },
        full_fit_every: 1,
        acq: AcqConfig { restarts: 8, raw_samples: 96, ..AcqConfig::default() },
        qei: QeiConfig { samples: 64, restarts: 2, raw_samples: 12 },
        cost_model: CostModel::Fixed { per_call: 1.0 },
        ..AlgoConfig::default()
    }
}

/// The shared 66-simulation budget: 19 cycles × 2 + 28 DoE.
fn uphes_test_budget() -> Budget {
    Budget::cycles(19, 2).with_initial_samples(28)
}

#[test]
fn bo_beats_random_search_under_equal_simulation_budget() {
    let problem = UphesProblem::maizeret(17);
    let budget = uphes_test_budget();
    let bo = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &problem,
        &budget,
        uphes_test_config(),
        2,
        NullObserver,
    )
    .unwrap();
    let rs = random_search(&problem, 66, 2);
    assert!(
        bo.best_y() > rs.value,
        "BO profit {} should beat random-search profit {}",
        bo.best_y(),
        rs.value
    );
}

#[test]
fn optimized_schedule_is_mostly_feasible() {
    let problem = UphesProblem::maizeret(23);
    let budget = Budget::cycles(10, 2).with_initial_samples(16);
    let r = run_algorithm_observed(
        AlgorithmKind::Turbo,
        &problem,
        &budget,
        AlgoConfig::test_profile(),
        4,
        NullObserver,
    )
    .unwrap();
    let breakdown = problem.simulator().evaluate_detailed(&r.best_x);
    // A good schedule tolerates a few head-drift rejections but cannot
    // live in penalty territory.
    assert!(
        breakdown.infeasible_steps < 20.0,
        "optimized schedule has {} infeasible quarters/scenario",
        breakdown.infeasible_steps
    );
    assert!((breakdown.profit - r.best_y()).abs() < 1e-6);
}

#[test]
fn best_decision_decodes_to_valid_schedule() {
    let problem = UphesProblem::maizeret(29);
    let budget = Budget::cycles(4, 2).with_initial_samples(12);
    let r = run_algorithm_observed(
        AlgorithmKind::KbQEgo,
        &problem,
        &budget,
        AlgoConfig::test_profile(),
        6,
        NullObserver,
    )
    .unwrap();
    let s = Schedule::decode(&r.best_x);
    for p in s.block_power {
        assert!(p <= -6.0 || p == 0.0 || (4.0..=8.0).contains(&p), "setpoint {p}");
    }
    for res in s.reserve {
        assert!((0.0..=3.0).contains(&res));
    }
}

#[test]
fn profit_landscape_orientation_is_consistent_end_to_end() {
    // The engine minimizes −profit; the record restores profit. A
    // direct simulator call on best_x must agree with best_y.
    let problem = UphesProblem::maizeret(31);
    let budget = Budget::cycles(3, 2).with_initial_samples(10);
    let r = run_algorithm_observed(
        AlgorithmKind::BspEgo,
        &problem,
        &budget,
        AlgoConfig::test_profile(),
        8,
        NullObserver,
    )
    .unwrap();
    assert!((problem.eval(&r.best_x) - r.best_y()).abs() < 1e-9);
    assert!(r.maximize);
}

#[test]
fn random_baseline_matches_paper_narrative() {
    // §4: even thousands of random samples stay far from the optimized
    // profits. With 2000 samples the best random profit must remain
    // well below what 24 optimized simulations reach above.
    let problem = UphesProblem::maizeret(17);
    let rs = random_search(&problem, 2000, 5);
    let bo = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &problem,
        &uphes_test_budget(),
        uphes_test_config(),
        2,
        NullObserver,
    )
    .unwrap();
    assert!(
        bo.best_y() > rs.value - 200.0,
        "66-sim BO ({}) should be at least competitive with 2000-sim random ({})",
        bo.best_y(),
        rs.value
    );
}
