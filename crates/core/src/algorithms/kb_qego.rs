//! KB-q-EGO: q-EGO with the Kriging-Believer heuristic
//! (Ginsbourger, Le Riche & Carraro 2008).
//!
//! Per cycle: fit the model, then build the batch *sequentially* —
//! maximize single-point EI, "believe" the model's posterior mean at
//! the winner (the fantasy value), condition the model on it without
//! hyperparameter re-estimation, and repeat q times. The q sequential
//! model conditionings are the method's scalability bottleneck that the
//! paper highlights; they are charged to the acquisition clock.

use super::acq_multistart;
use crate::engine::{AlgoConfig, FantasyKind};
use pbo_acq::single::{optimize_single, ExpectedImprovement};
use pbo_gp::GaussianProcess;
use pbo_opt::Bounds;

/// Build one Kriging-Believer batch of `q` candidates. Returns the
/// batch plus the summed multistart restart shortfall. The believer's
/// sequential conditioning costs O(n²) per fantasy.
pub fn kb_batch(
    gp: &GaussianProcess,
    bounds: &Bounds,
    q: usize,
    cfg: &AlgoConfig,
    seed: u64,
) -> (Vec<Vec<f64>>, usize) {
    let mut model = gp.clone();
    let mut batch = Vec::with_capacity(q);
    let mut shortfall = 0usize;
    for i in 0..q {
        let f_best = model.best_observed(false);
        let ei = ExpectedImprovement { f_best };
        let ms = acq_multistart(cfg, seed.wrapping_add(i as u64));
        let r = optimize_single(&model, &ei, bounds, &[], &ms);
        shortfall += r.restart_shortfall;
        if i + 1 < q {
            // Fantasy conditioning (the believer by default; constant
            // liars for the ablation study).
            let y_fantasy = match cfg.acq.kb_fantasy {
                FantasyKind::PosteriorMean => model.predict_mean(&r.x),
                FantasyKind::ConstantLiarMin => model.best_observed(false),
                FantasyKind::ConstantLiarMax => model.best_observed(true),
            };
            // A rejected append leaves the model as it was.
            let _ = model.condition_on(std::slice::from_ref(&r.x), &[y_fantasy]);
        }
        batch.push(r.x);
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
    fn improves_over_initial_design() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.n_cycles(), 4);
        assert_eq!(r.n_simulations(), 10 + 8);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best, "{} vs DoE best {doe_best}", r.best_y());
    }

    #[test]
    fn batch_points_are_distinct() {
        let p = SyntheticFn::rosenbrock(3);
        let budget = Budget::cycles(1, 4).with_initial_samples(10);
        let r = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 5);
        // 4 committed points after the DoE must be pairwise distinct.
        assert_eq!(r.n_simulations(), 14);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 2).with_initial_samples(8);
        let a = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 11);
        let b = run_test(AlgorithmKind::KbQEgo, &p, budget, AlgoConfig::test_profile(), 11);
        assert_eq!(a.y_min, b.y_min);
    }
}
