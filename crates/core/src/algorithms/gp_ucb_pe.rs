//! GP-UCB-PE: UCB leader + pure-exploration fillers (Contal et al.
//! 2013, "Parallel Gaussian Process Optimization with Upper Confidence
//! Bound and Pure Exploration").
//!
//! Per cycle: one multistart UCB maximization picks the leader, then
//! the remaining q − 1 points are chosen greedily as the maximizers of
//! the *posterior variance conditioned on everything already in the
//! batch* over a Sobol candidate set — conditioning on a point's
//! location needs no function value, so each filler is a rank-1 Schur
//! downdate of the joint covariance, O(n_cand²) per pick and no inner
//! optimization. That near-free filler loop is the method's selling
//! point (the per-cycle acquisition cost is pinned by `bench_gate.sh`),
//! and the reason it needs no fantasy values: exploration is driven by
//! geometry alone.

use super::{acq_multistart, UCB_BETA};
use crate::engine::AlgoConfig;
use pbo_acq::single::{optimize_single, UpperConfidenceBound};
use pbo_gp::GaussianProcess;
use pbo_linalg::Matrix;
use pbo_opt::Bounds;
use pbo_sampling::sobol::Sobol;

/// Variances below this are treated as already-determined: conditioning
/// on such a point would divide by ~0 and the downdate is skipped.
const VAR_FLOOR: f64 = 1e-12;

/// Build one GP-UCB-PE batch of `q` candidates (UCB leader + q − 1
/// variance-greedy fillers from `n_cand` Sobol candidates). Returns the
/// batch plus the leader's multistart restart shortfall — the fillers
/// run no restarts at all.
pub fn gp_ucb_pe_batch(
    gp: &GaussianProcess,
    bounds: &Bounds,
    q: usize,
    n_cand: usize,
    cfg: &AlgoConfig,
    seed: u64,
) -> (Vec<Vec<f64>>, usize) {
    let ucb = UpperConfidenceBound { beta: UCB_BETA };
    let ms = acq_multistart(cfg, seed);
    let leader = optimize_single(gp, &ucb, bounds, &[], &ms);
    let mut batch = vec![leader.x.clone()];
    if q == 1 {
        return (batch, leader.restart_shortfall);
    }

    // Row 0 is the leader; rows 1..=n_cand are the filler candidates.
    // One joint posterior over all of them gives every covariance the
    // greedy conditioning loop will ever need.
    let d = gp.dim();
    let n_cand = n_cand.max((q - 1) * 4);
    let mut sobol = Sobol::scrambled(d, seed);
    let mut pts = Matrix::zeros(0, d);
    pts.push_row(&leader.x).expect("leader width");
    for _ in 0..n_cand {
        pts.push_row(&sobol.next_point()).expect("candidate width");
    }
    let Ok((_, cov)) = gp.posterior_joint(&pts) else {
        // Degenerate posterior: fall back to the first fillers.
        for i in 0..q - 1 {
            batch.push(pts.row(1 + i % n_cand).to_vec());
        }
        return (batch, leader.restart_shortfall);
    };

    // Greedy pure exploration: repeatedly condition the covariance on
    // the latest batch member (C ← C − c cᵀ / C_kk, the Schur
    // complement — location-only, no observation value involved) and
    // take the candidate with the largest remaining variance.
    let m = n_cand + 1;
    let mut c: Vec<f64> = (0..m * m).map(|idx| cov[(idx / m, idx % m)]).collect();
    let mut chosen: Vec<usize> = vec![0];
    for _ in 1..q {
        let k = *chosen.last().expect("non-empty batch");
        let pivot = c[k * m + k];
        if pivot > VAR_FLOOR {
            for i in 0..m {
                let ci = c[i * m + k] / pivot;
                for j in 0..m {
                    c[i * m + j] -= ci * c[k * m + j];
                }
            }
        }
        let mut best = (f64::NEG_INFINITY, 1usize);
        for i in 1..m {
            let var = c[i * m + i];
            if !chosen.contains(&i) && var.total_cmp(&best.0).is_gt() {
                best = (var, i);
            }
        }
        chosen.push(best.1);
        batch.push(pts.row(best.1).to_vec());
    }
    (batch, leader.restart_shortfall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use pbo_gp::kernel::Kernel;
    use pbo_gp::GaussianProcess;
    use pbo_problems::SyntheticFn;

    fn toy_gp() -> GaussianProcess {
        let xs = [0.05, 0.3, 0.55, 0.8, 0.95];
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v: &f64| (v - 0.4) * (v - 0.4)).collect();
        let mut kernel = Kernel::new(1);
        kernel.lengthscales = vec![0.25];
        GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
    }

    fn unit_bounds(d: usize) -> Bounds {
        Bounds::unit(d)
    }

    #[test]
    fn batch_has_q_distinct_points_in_cube() {
        let gp = toy_gp();
        let cfg = AlgoConfig::test_profile();
        let (batch, _) = gp_ucb_pe_batch(&gp, &unit_bounds(1), 4, 64, &cfg, 7);
        assert_eq!(batch.len(), 4);
        for p in &batch {
            assert!((0.0..=1.0).contains(&p[0]));
        }
        for i in 0..batch.len() {
            for j in 0..i {
                assert_ne!(batch[i], batch[j]);
            }
        }
    }

    #[test]
    fn fillers_avoid_the_training_data() {
        // Pure-exploration fillers maximize *conditioned* variance, so
        // none of them should sit on top of an observed point (where
        // the posterior variance is ~noise-level).
        let gp = toy_gp();
        let cfg = AlgoConfig::test_profile();
        let (batch, _) = gp_ucb_pe_batch(&gp, &unit_bounds(1), 5, 128, &cfg, 3);
        for p in &batch[1..] {
            for &obs in &[0.05, 0.3, 0.55, 0.8, 0.95] {
                assert!((p[0] - obs).abs() > 1e-3, "filler {p:?} on a datum {obs}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gp = toy_gp();
        let cfg = AlgoConfig::test_profile();
        let a = gp_ucb_pe_batch(&gp, &unit_bounds(1), 4, 64, &cfg, 11);
        let b = gp_ucb_pe_batch(&gp, &unit_bounds(1), 4, 64, &cfg, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn full_run_improves_over_doe() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r = run_test(AlgorithmKind::GpUcbPe, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.algorithm, "gp-ucb-pe");
        assert_eq!(r.n_simulations(), 10 + 8);
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }
}
