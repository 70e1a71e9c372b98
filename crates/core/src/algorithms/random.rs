//! Uniform random search under the same budget protocol — the paper's
//! §4 baseline ("a large random sample of almost 12,000 evaluations"),
//! run through the engine so its records are directly comparable. The
//! cycle is [`super::BatchStepper::Random`]: q uniform points, no
//! surrogate, no acquisition cost.

#[cfg(test)]
mod tests {
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
    use pbo_problems::SyntheticFn;

    #[test]
    fn zero_surrogate_overhead() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(3, 2).with_initial_samples(8);
        let r = run_test(AlgorithmKind::RandomSearch, &p, budget, AlgoConfig::test_profile(), 1);
        let (fit, acq, sim) = r.time_split();
        assert_eq!(fit, 0.0);
        assert_eq!(acq, 0.0);
        assert!(sim > 0.0);
    }

    #[test]
    fn draws_fresh_points_each_cycle() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(8);
        let r = run_test(AlgorithmKind::RandomSearch, &p, budget, AlgoConfig::test_profile(), 2);
        // All 8 post-DoE values distinct with probability 1.
        let tail = &r.y_min[8..];
        for i in 0..tail.len() {
            for j in 0..i {
                assert_ne!(tail[i], tail[j]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(3, 2).with_initial_samples(8);
        let a = run_test(AlgorithmKind::RandomSearch, &p, budget, AlgoConfig::test_profile(), 5);
        let b = run_test(AlgorithmKind::RandomSearch, &p, budget, AlgoConfig::test_profile(), 5);
        assert_eq!(a.y_min, b.y_min);
    }
}
