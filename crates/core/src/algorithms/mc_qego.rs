//! MC-based q-EGO (Balandat et al. 2020): joint Monte-Carlo q-EI over
//! the full q·d batch space.
//!
//! Per cycle: fit the model, then maximize the sample-average q-EI (the
//! reparameterization trick with fixed quasi-MC base samples) over all
//! q points **jointly** with multistart L-BFGS. The joint inner problem
//! is what makes this method expensive at large q — the paper's Fig. 2
//! shows its evaluation count collapsing fastest. The cycle is
//! [`super::BatchStepper::McQEgo`].

#[cfg(test)]
mod tests {
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
    use pbo_problems::SyntheticFn;

    #[test]
    fn q1_runs_single_ei_path() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(3, 1).with_initial_samples(8);
        let r = run_test(AlgorithmKind::McQEgo, &p, budget, AlgoConfig::test_profile(), 1);
        assert_eq!(r.n_simulations(), 11);
        assert_eq!(r.n_cycles(), 3);
    }

    #[test]
    fn joint_batch_has_q_points() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 4).with_initial_samples(8);
        let r = run_test(AlgorithmKind::McQEgo, &p, budget, AlgoConfig::test_profile(), 8);
        assert_eq!(r.n_simulations(), 8 + 8);
    }

    #[test]
    fn improves_over_initial_design() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::McQEgo, &p, budget, AlgoConfig::test_profile(), 6);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }
}
