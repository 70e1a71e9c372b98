//! Adaptive-q hybrid batch BO (after Azimi, Jalali & Fern 2012,
//! "Hybrid Batch Bayesian Optimization").
//!
//! The paper fixes q per run and measures a "breaking point" where
//! larger batches stop paying off; Azimi et al. instead let the model
//! decide each cycle how much parallelism it can stand. Per cycle: a
//! multistart EI maximization picks the leader and its EI value `v0`,
//! then the batch keeps growing Kriging-Believer style — condition on
//! the posterior mean, re-maximize EI — for as long as the fantasy
//! model's best EI stays at least `η · v0`. When conditioning
//! degrades expected one-step improvement below that fraction, the
//! batch stops: a sharp, well-identified optimum yields q = 1
//! (sequential behaviour), a flat uncertain posterior grows the batch
//! up to the configured cap. The chosen q therefore varies cycle to
//! cycle, which is exactly what the variable-q ask/tell surface
//! ([`crate::algorithms::BatchStepper::propose_q`]) exists to carry.

use super::acq_multistart;
use crate::engine::AlgoConfig;
use pbo_acq::single::{optimize_single, ExpectedImprovement};
use pbo_gp::GaussianProcess;
use pbo_opt::Bounds;

/// Build one adaptive batch of between 1 and `q_max` candidates,
/// growing while the fantasy EI stays at least `eta` × the leader's.
/// Returns the batch plus the summed multistart restart shortfall
/// (including the final, rejected maximization — its work was done).
pub fn hybrid_batch(
    gp: &GaussianProcess,
    bounds: &Bounds,
    q_max: usize,
    eta: f64,
    cfg: &AlgoConfig,
    seed: u64,
) -> (Vec<Vec<f64>>, usize) {
    let mut model = gp.clone();
    let mut batch = Vec::with_capacity(q_max);
    let mut shortfall = 0usize;
    let mut v0 = 0.0;
    for i in 0..q_max {
        let f_best = model.best_observed(false);
        let ei = ExpectedImprovement { f_best };
        let ms = acq_multistart(cfg, seed.wrapping_add(i as u64));
        let r = optimize_single(&model, &ei, bounds, &[], &ms);
        shortfall += r.restart_shortfall;
        if i == 0 {
            v0 = r.value;
            batch.push(r.x.clone());
            // No expected improvement anywhere (or a NaN value): a
            // vacuous threshold (v_i >= eta·0) must not grow the batch
            // to q_max.
            if v0.is_nan() || v0 <= 0.0 {
                break;
            }
        } else {
            if r.value < eta * v0 {
                break;
            }
            batch.push(r.x.clone());
        }
        if batch.len() < q_max {
            let y_fantasy = model.predict_mean(&r.x);
            // A rejected conditioning (a non-finite fantasy, say)
            // leaves the fantasy EI meaningless; stop growing.
            if model.condition_on(std::slice::from_ref(&r.x), &[y_fantasy]).is_err() {
                break;
            }
        }
    }
    (batch, shortfall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use pbo_gp::fit::fit;
    use pbo_linalg::Matrix;
    use pbo_problems::{Problem, SyntheticFn};
    use pbo_sampling::lhs::latin_hypercube;
    use pbo_sampling::SeedStream;

    #[test]
    fn batch_size_respects_the_cap() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 4).with_initial_samples(10);
        let r = run_test(AlgorithmKind::HybridQ, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.algorithm, "hybrid-q");
        assert_eq!(r.n_cycles(), 4);
        // Every cycle commits between 1 and q_max points.
        let committed = r.n_simulations() - 10;
        assert!((4..=16).contains(&committed), "{committed} points over 4 cycles");
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }

    #[test]
    fn eta_one_is_most_conservative() {
        // eta = 1 only grows the batch while the fantasy EI does not
        // drop at all, so it never proposes more points than eta = 0.01.
        let p = SyntheticFn::schwefel(3);
        let domain = Bounds::new(p.lower().to_vec(), p.upper().to_vec());
        let cfg = AlgoConfig::test_profile();
        for seed in 9..12 {
            let mut rng = SeedStream::new(seed).fork_named("design").rng();
            let design = latin_hypercube(&mut rng, 10, 3);
            let y: Vec<f64> = design.iter().map(|u| p.eval(&domain.from_unit(u))).collect();
            let x = Matrix::from_rows(&design).unwrap();
            let (gp, _) = fit(&x, &y, &cfg.fit, None, &mut SeedStream::new(seed)).unwrap();
            let bounds = Bounds::unit(3);
            let (tight, _) = hybrid_batch(&gp, &bounds, 4, 1.0, &cfg, seed);
            let (loose, _) = hybrid_batch(&gp, &bounds, 4, 0.01, &cfg, seed);
            assert!(tight.len() <= loose.len(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 3).with_initial_samples(8);
        let a = run_test(AlgorithmKind::HybridQ, &p, budget, AlgoConfig::test_profile(), 11);
        let b = run_test(AlgorithmKind::HybridQ, &p, budget, AlgoConfig::test_profile(), 11);
        assert_eq!(a.y_min, b.y_min);
        assert_eq!(a.n_simulations(), b.n_simulations());
    }
}
