//! mic-q-EGO: multi-infill-criteria q-EGO (the paper's Algorithm 2).
//!
//! Like KB-q-EGO, but each fantasy step maximizes **two** criteria on
//! the *same* model state — Expected Improvement (explorative) and the
//! confidence-bound criterion UCB (exploitative, Table 3's "EI/UCB
//! 50%") — yielding two candidates per model conditioning. This halves
//! the number of sequential surrogate updates per cycle, the mechanism
//! the paper credits for mic-q-EGO's better large-batch behaviour.

use super::{acq_multistart, UCB_BETA};
use crate::engine::AlgoConfig;
use pbo_acq::single::{optimize_single, ExpectedImprovement, UpperConfidenceBound};
use pbo_gp::GaussianProcess;
use pbo_opt::Bounds;

/// Build one multi-infill batch of `q` candidates. Returns the batch
/// plus the summed multistart restart shortfall.
pub fn mic_batch(
    gp: &GaussianProcess,
    bounds: &Bounds,
    q: usize,
    cfg: &AlgoConfig,
    seed: u64,
) -> (Vec<Vec<f64>>, usize) {
    let mut model = gp.clone();
    let mut batch: Vec<Vec<f64>> = Vec::with_capacity(q);
    let mut shortfall = 0usize;
    let mut step = 0u64;
    while batch.len() < q {
        let f_best = model.best_observed(false);
        let ei = ExpectedImprovement { f_best };
        let ms = acq_multistart(cfg, seed.wrapping_add(step));
        let r1 = optimize_single(&model, &ei, bounds, &[], &ms);
        shortfall += r1.restart_shortfall;
        let x1 = r1.x;
        batch.push(x1.clone());

        let mut fantasies: Vec<(Vec<f64>, f64)> = vec![(x1.clone(), model.predict_mean(&x1))];
        if batch.len() < q {
            // Second criterion on the *same* model state (Alg. 2 lines
            // 6–7: both argmax calls precede the partial update).
            let ucb = UpperConfidenceBound { beta: UCB_BETA };
            let ms2 = acq_multistart(cfg, seed.wrapping_add(step).wrapping_add(0x0CB));
            let r2 = optimize_single(&model, &ucb, bounds, &[], &ms2);
            shortfall += r2.restart_shortfall;
            let x2 = r2.x;
            fantasies.push((x2.clone(), model.predict_mean(&x2)));
            batch.push(x2);
        }
        if batch.len() < q {
            // One partial update for the pair (line 11).
            let xs: Vec<Vec<f64>> = fantasies.iter().map(|(x, _)| x.clone()).collect();
            let ys: Vec<f64> = fantasies.iter().map(|(_, y)| *y).collect();
            // A rejected append leaves the model as it was.
            let _ = model.condition_on(&xs, &ys);
        }
        step += 2;
    }
    (batch, shortfall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use pbo_problems::SyntheticFn;

    #[test]
    fn produces_exactly_q_candidates_even_for_odd_q() {
        let p = SyntheticFn::ackley(3);
        for q in [1usize, 2, 3, 5] {
            let budget = Budget::cycles(1, q).with_initial_samples(8);
            let r = run_test(AlgorithmKind::MicQEgo, &p, budget, AlgoConfig::test_profile(), 2);
            assert_eq!(r.n_simulations(), 8 + q, "q = {q}");
        }
    }

    #[test]
    fn fewer_conditionings_than_kb() {
        // Structural property: for q candidates, mic performs
        // ceil(q/2) − 1 conditionings vs KB's q − 1. We verify through
        // the public behaviour that both produce valid batches and that
        // mic is never slower in fixed-cost accounting (same per-call
        // price, fewer heavy steps is an implementation detail — here we
        // simply check both run to completion with equal recorded
        // cycles).
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 4).with_initial_samples(8);
        let mic = run_test(AlgorithmKind::MicQEgo, &p, budget, AlgoConfig::test_profile(), 9);
        let kb = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 9);
        assert_eq!(mic.n_cycles(), kb.n_cycles());
        assert_eq!(mic.n_simulations(), kb.n_simulations());
    }

    #[test]
    fn improves_over_initial_design() {
        let p = SyntheticFn::rosenbrock(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::MicQEgo, &p, budget, AlgoConfig::test_profile(), 4);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }
}
