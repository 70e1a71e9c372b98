//! TuRBO (Eriksson et al. 2019) with a single trust region, as used in
//! the paper.
//!
//! Per cycle: fit the model, shape the trust region around the
//! incumbent using the ARD lengthscales, maximize MC q-EI (plain EI at
//! q = 1) **inside the region**, evaluate, and update the region —
//! expand on improvement streaks, shrink on failure streaks, restart on
//! collapse. The restricted inner search space is why TuRBO's
//! acquisition is the fastest of the five (paper §3.1). The cycle and
//! the trust-region state live in [`super::BatchStepper::Turbo`].

#[cfg(test)]
mod tests {
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
    use pbo_problems::SyntheticFn;

    #[test]
    fn runs_to_cycle_budget() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(8);
        let r = run_test(AlgorithmKind::Turbo, &p, budget, AlgoConfig::test_profile(), 2);
        assert_eq!(r.n_cycles(), 4);
        assert_eq!(r.n_simulations(), 8 + 8);
    }

    #[test]
    fn improves_over_initial_design() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(5, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::Turbo, &p, budget, AlgoConfig::test_profile(), 4);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }

    #[test]
    fn q1_path_works() {
        let p = SyntheticFn::rosenbrock(3);
        let budget = Budget::cycles(3, 1).with_initial_samples(8);
        let r = run_test(AlgorithmKind::Turbo, &p, budget, AlgoConfig::test_profile(), 6);
        assert_eq!(r.n_simulations(), 11);
    }
}
