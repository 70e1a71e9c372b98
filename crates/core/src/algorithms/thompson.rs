//! Thompson-sampling batch acquisition (extension).
//!
//! The paper's related-work taxonomy (§2.2, after Shahriari et al.)
//! lists Thompson sampling among the information-based strategies and
//! names it a natural batch generator: each of the q candidates is the
//! minimizer of an independent draw from the joint GP posterior over a
//! discrete candidate set — embarrassingly parallel and with no inner
//! optimization at all. Included here as the paper's "future work"
//! exploration of cheaper acquisition processes.

use pbo_gp::GaussianProcess;
use pbo_linalg::{Cholesky, Matrix};
use pbo_sampling::{normal, sobol::Sobol};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build one Thompson batch of `q` candidates from `n_cand` Sobol
/// candidates: only the joint posterior over the candidate set is
/// needed.
pub fn thompson_batch(gp: &GaussianProcess, q: usize, n_cand: usize, seed: u64) -> Vec<Vec<f64>> {
    let d = gp.dim();
    let n_cand = n_cand.max(q * 4);
    let mut sobol = Sobol::scrambled(d, seed);
    let mut cands = Matrix::zeros(0, d);
    for _ in 0..n_cand {
        cands.push_row(&sobol.next_point()).expect("candidate width");
    }
    let Ok((mu, cov)) = gp.posterior_joint(&cands) else {
        // Degenerate posterior: fall back to the first q candidates.
        return (0..q).map(|i| cands.row(i % n_cand).to_vec()).collect();
    };
    let Ok(chol) = Cholesky::factor(&cov) else {
        return (0..q).map(|i| cands.row(i % n_cand).to_vec()).collect();
    };
    let l = chol.l();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7405_5011);
    let mut chosen: Vec<usize> = Vec::with_capacity(q);
    let mut z = vec![0.0; n_cand];
    for _ in 0..q {
        normal::fill(&mut rng, &mut z);
        // One posterior path: y = μ + L z (lower-triangular product).
        let mut best = (f64::INFINITY, 0usize);
        for i in 0..n_cand {
            let y = mu[i] + pbo_linalg::vec_ops::dot(&l.row(i)[..=i], &z[..=i]);
            if y < best.0 && !chosen.contains(&i) {
                best = (y, i);
            }
        }
        chosen.push(best.1);
    }
    chosen.into_iter().map(|i| cands.row(i).to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_test, AlgorithmKind};
    use crate::budget::Budget;
    use crate::engine::AlgoConfig;
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

    #[test]
    fn batch_points_distinct_and_in_cube() {
        let gp = toy_gp();
        let batch = thompson_batch(&gp, 4, 64, 3);
        assert_eq!(batch.len(), 4);
        for p in &batch {
            assert!((0.0..1.0).contains(&p[0]));
        }
        for i in 0..4 {
            for j in 0..i {
                assert_ne!(batch[i], batch[j]);
            }
        }
    }

    #[test]
    fn draws_concentrate_near_posterior_minimum() {
        // With a well-identified minimum near 0.4 and small noise, most
        // Thompson picks should land in [0.2, 0.6].
        let gp = toy_gp();
        let mut near = 0;
        let mut total = 0;
        for seed in 0..20 {
            for p in thompson_batch(&gp, 2, 128, seed) {
                total += 1;
                if (0.2..0.6).contains(&p[0]) {
                    near += 1;
                }
            }
        }
        assert!(near * 2 > total, "{near}/{total} picks near the minimum");
    }

    #[test]
    fn full_run_improves_over_doe() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(4, 2).with_initial_samples(10);
        let r =
            run_test(AlgorithmKind::ThompsonSampling, &p, budget, AlgoConfig::test_profile(), 3);
        assert_eq!(r.algorithm, "thompson");
        let doe_best: f64 = r.y_min[..10].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(r.best_y() <= doe_best);
    }
}
