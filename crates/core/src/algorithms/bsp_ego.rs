//! BSP-EGO (Gobert et al. 2020): parallel local acquisition over a
//! binary space partition.
//!
//! Per cycle: fit one **global** model, then run `2q` independent EI
//! maximizations, one per partition cell, *in parallel* (the paper maps
//! two cells per core). The `2q` candidates are sorted by EI and the
//! best `q` are evaluated. The partition then evolves: the cell holding
//! the best candidate is split, the least valuable sibling pair merged.
//!
//! The acquisition clock is charged `serial-time / q` (the cycle runs
//! [`crate::engine::Engine::charge_acquisition`] with `q` workers) —
//! the parallel acquisition is the method's scalability advantage
//! (Fig. 2, Fig. 9a). The cycle and the partition state live in
//! [`super::BatchStepper::BspEgo`].

#[cfg(test)]
mod tests {
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
    use pbo_problems::SyntheticFn;

    #[test]
    fn runs_and_commits_q_per_cycle() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(3, 2).with_initial_samples(8);
        let r = run_test(AlgorithmKind::BspEgo, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.n_simulations(), 8 + 6);
        assert_eq!(r.n_cycles(), 3);
    }

    #[test]
    fn parallel_acquisition_is_cheaper_than_kb_in_fixed_cost() {
        // With the Fixed{per_call: 1} model, BSP charges 1/q per cycle
        // for its whole acquisition (one charge over q workers) while
        // KB charges 1 (one single-worker charge). The recorded acquisition time
        // must reflect the modeled parallelism.
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 4).with_initial_samples(8);
        let bsp = run_test(AlgorithmKind::BspEgo, &p, budget, AlgoConfig::test_profile(), 5);
        let kb = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 5);
        let (_, bsp_acq, _) = bsp.time_split();
        let (_, kb_acq, _) = kb.time_split();
        assert!(bsp_acq < kb_acq, "bsp {bsp_acq} vs kb {kb_acq}");
    }

    #[test]
    fn improves_over_initial_design() {
        let p = SyntheticFn::rosenbrock(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::BspEgo, &p, budget, AlgoConfig::test_profile(), 7);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }
}
