//! Property-based tests of acquisition-function invariants.

use pbo_acq::mc::QExpectedImprovement;
use pbo_acq::single::{ExpectedImprovement, ProbabilityOfImprovement, UpperConfidenceBound};
use pbo_acq::Acquisition;
use pbo_gp::kernel::Kernel;
use pbo_gp::GaussianProcess;
use pbo_linalg::Matrix;
use proptest::prelude::*;

fn model(rows: &[(f64, f64, f64)]) -> GaussianProcess {
    let mut x = Matrix::zeros(0, 2);
    let mut y = Vec::new();
    for (a, b, v) in rows {
        x.push_row(&[*a, *b]).unwrap();
        y.push(*v);
    }
    let mut kernel = Kernel::new(2);
    kernel.lengthscales = vec![0.35; 2];
    GaussianProcess::new(x, &y, kernel, 1e-4).unwrap()
}

fn data() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec(((0.0f64..1.0), (0.0f64..1.0), (-3.0f64..3.0)), 4..15)
}

/// Constant targets with a near-zero nugget: the target scale bottoms
/// out at its 1e-8 floor, so the raw-scale posterior σ near the
/// training points dips below the criteria's 1e-12 floor.
fn degenerate_model() -> GaussianProcess {
    let pts = [[0.2, 0.2], [0.8, 0.3], [0.5, 0.5], [0.1, 0.9], [0.7, 0.8], [0.4, 0.1]];
    let x = Matrix::from_rows(&pts.iter().map(|p| p.to_vec()).collect::<Vec<_>>()).unwrap();
    let y = vec![0.5; pts.len()];
    let mut kernel = Kernel::new(2);
    kernel.lengthscales = vec![0.35; 2];
    GaussianProcess::new(x, &y, kernel, 1e-10).unwrap()
}

#[test]
fn sigma_floor_is_reachable() {
    // Guard that the degenerate model actually exercises the σ floor.
    let gp = degenerate_model();
    let (_, var) = gp.predict(&[0.2, 0.2]);
    assert!(var.sqrt() < 1e-12, "expected sub-floor σ at a training point, got {}", var.sqrt());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ei_decreases_in_f_best_gap(rows in data(), px in 0.0f64..1.0, py in 0.0f64..1.0) {
        // EI with a lower (harder) incumbent is never larger.
        let gp = model(&rows);
        let f0 = gp.best_observed(false);
        let easy = ExpectedImprovement { f_best: f0 + 1.0 };
        let hard = ExpectedImprovement { f_best: f0 - 1.0 };
        let p = [px, py];
        prop_assert!(hard.value(&gp, &p) <= easy.value(&gp, &p) + 1e-12);
    }

    #[test]
    fn ucb_increases_with_beta(rows in data(), px in 0.0f64..1.0, py in 0.0f64..1.0) {
        let gp = model(&rows);
        let low = UpperConfidenceBound { beta: 0.5 };
        let high = UpperConfidenceBound { beta: 3.0 };
        let p = [px, py];
        prop_assert!(high.value(&gp, &p) >= low.value(&gp, &p) - 1e-12);
    }

    #[test]
    fn qei_invariant_under_batch_permutation(rows in data(),
                                             q1 in 0.0f64..1.0, q2 in 0.0f64..1.0,
                                             q3 in 0.0f64..1.0, q4 in 0.0f64..1.0) {
        // q-EI is a symmetric function of the batch; since base samples
        // are coordinate-indexed, use a permutation-averaged check: the
        // estimator differs per ordering, but with a common covariance
        // the *exact* qEI is symmetric — verify the MC estimates agree
        // within the MC tolerance at high sample count.
        let gp = model(&rows);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 2, 4096, 9);
        let a = Matrix::from_rows(&[vec![q1, q2], vec![q3, q4]]).unwrap();
        let b = Matrix::from_rows(&[vec![q3, q4], vec![q1, q2]]).unwrap();
        let va = qei.value(&gp, &a);
        let vb = qei.value(&gp, &b);
        prop_assert!((va - vb).abs() < 0.08 * (1.0 + va.abs()),
                     "qEI not permutation-symmetric: {va} vs {vb}");
    }

    #[test]
    fn qei_at_least_max_marginal_ei(rows in data(),
                                    q1 in 0.0f64..1.0, q2 in 0.0f64..1.0,
                                    q3 in 0.0f64..1.0, q4 in 0.0f64..1.0) {
        // qEI of a batch ≥ EI of each member (up to MC error).
        let gp = model(&rows);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 2, 4096, 11);
        let ei = ExpectedImprovement { f_best };
        let batch = Matrix::from_rows(&[vec![q1, q2], vec![q3, q4]]).unwrap();
        let v = qei.value(&gp, &batch);
        let m1 = ei.value(&gp, &[q1, q2]);
        let m2 = ei.value(&gp, &[q3, q4]);
        let floor = m1.max(m2);
        prop_assert!(v >= floor - 0.05 * (1.0 + floor), "qEI {v} < max marginal {floor}");
    }

    #[test]
    fn extreme_u_gradients_match_central_differences(rows in data(),
                                                     px in 0.05f64..0.95,
                                                     py in 0.05f64..0.95,
                                                     u in -30.0f64..30.0) {
        // Hardening check for the analytic criteria at extreme
        // improvement scores: synthesize the incumbent so that
        // u = (f_best − μ)/σ takes any prescribed value at the query,
        // then compare every analytic gradient against central finite
        // differences. At u = −30 the EI terms cancel down to
        // ≈ φ(u)/u² ~ 1e-198, so this exercises the far tails of the
        // normal primitives without leaving f64 range.
        let gp = model(&rows);
        let p = [px, py];
        let (mean, var) = gp.predict(&p);
        let sigma = var.sqrt().max(1e-12);
        let f_best = mean + u * sigma;
        let acqs: [&dyn Acquisition; 2] = [
            &ExpectedImprovement { f_best },
            &ProbabilityOfImprovement { f_best },
        ];
        for acq in acqs {
            let (v, g) = acq.value_grad(&gp, &p);
            prop_assert!(v.is_finite(), "{} value not finite at u={u}", acq.name());
            let fd = pbo_opt::fd_gradient(|x| acq.value(&gp, x), &p, 1e-6);
            for j in 0..2 {
                prop_assert!(g[j].is_finite(), "{} grad not finite at u={u}", acq.name());
                let tol = 2e-4 * (1.0 + fd[j].abs() + g[j].abs());
                prop_assert!((g[j] - fd[j]).abs() <= tol,
                             "{} at u={u}: grad[{j}] {} vs fd {}",
                             acq.name(), g[j], fd[j]);
            }
        }
    }

    #[test]
    fn sigma_floor_region_stays_finite_and_consistent(px in 0.0f64..1.0,
                                                      py in 0.0f64..1.0,
                                                      u in -30.0f64..30.0) {
        // A constant-target GP drives the target scale to its 1e-8
        // floor, pushing posterior σ below the criteria's 1e-12 floor
        // near the training points (`sigma_floor_is_reachable` below
        // checks this is not vacuous). Values and gradients must stay
        // finite and EI nonnegative across the floor boundary.
        let gp = degenerate_model();
        let p = [px, py];
        let (mean, var) = gp.predict(&p);
        let f_best = mean + u * var.sqrt().max(1e-12);
        let acqs: [&dyn Acquisition; 2] = [
            &ExpectedImprovement { f_best },
            &ProbabilityOfImprovement { f_best },
        ];
        for acq in acqs {
            let val = acq.value(&gp, &p);
            let (v, g) = acq.value_grad(&gp, &p);
            prop_assert!(val.is_finite() && v.is_finite());
            prop_assert!(g.iter().all(|gi| gi.is_finite()));
        }
        let ei = ExpectedImprovement { f_best };
        prop_assert!(ei.value(&gp, &p) >= 0.0);
    }

    #[test]
    fn qei_gradient_finite_everywhere(rows in data(),
                                      flat in prop::collection::vec(0.0f64..1.0, 6)) {
        let gp = model(&rows);
        let f_best = gp.best_observed(false);
        let qei = QExpectedImprovement::new(f_best, 3, 128, 5);
        let (v, g) = qei.value_grad_flat(&gp, &flat);
        prop_assert!(v.is_finite());
        for gi in &g {
            prop_assert!(gi.is_finite());
        }
    }
}
