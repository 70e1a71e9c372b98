//! mic-TuRBO (extension): multi-infill-criteria acquisition inside a
//! trust region.
//!
//! The paper's discussion closes with: "Combining the strength of the
//! different approaches remains to be investigated. For example, a
//! multi-infill-criterion TuRBO can easily be considered and
//! implemented." This module is exactly that combination: TuRBO's
//! lengthscale-shaped trust region provides the restricted (fast,
//! exploitation-leaning) search space, and the batch inside it is built
//! by the mic-q-EGO EI/UCB pair loop instead of joint MC q-EI. The
//! cycle and the trust-region state live in
//! [`super::BatchStepper::MicTurbo`].

#[cfg(test)]
mod tests {
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
    use pbo_problems::SyntheticFn;

    #[test]
    fn runs_and_improves() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(5, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::MicTurbo, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.algorithm, "mic-turbo");
        assert_eq!(r.n_cycles(), 5);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }

    #[test]
    fn handles_odd_batch_sizes() {
        let p = SyntheticFn::rosenbrock(3);
        let budget = Budget::cycles(2, 3).with_initial_samples(8);
        let r = run_test(AlgorithmKind::MicTurbo, &p, budget, AlgoConfig::test_profile(), 5);
        assert_eq!(r.n_simulations(), 8 + 6);
    }
}
