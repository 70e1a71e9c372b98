//! Every scoring path of every single-point criterion agrees, on both
//! sides of the `BIT_EXACT_MAX_N` arithmetic switch.
//!
//! A criterion implements its value and gradient on posterior moments
//! once; the trait routes four scoring operations through them — the
//! point value (`predict`), the block (`predict_many`), the workspace
//! gradient (`posterior_with_grad_ws`) and the allocating reference
//! gradient (`posterior_with_grad`). This table checks each pair that
//! must agree, and checks the gradient against finite differences of
//! the point value, so a criterion whose moment value and gradient
//! disagree, or a block scored by another criterion, fails here.

use pbo_acq::single::{ExpectedImprovement, ProbabilityOfImprovement, UpperConfidenceBound};
use pbo_acq::{AcqWorkspace, Acquisition};
use pbo_gp::kernel::Kernel;
use pbo_gp::GaussianProcess;
use pbo_linalg::cholesky::BIT_EXACT_MAX_N;
use pbo_linalg::Matrix;

const D: usize = 3;

/// `n` deterministic design points in the unit cube and a smooth
/// target over them.
fn data(n: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..D).map(|j| (((i * D + j) as f64) * 0.618_034 + 0.1).fract()).collect())
        .collect();
    let y = rows.iter().map(|r| (4.0 * r[0]).sin() + r[1] * r[1] - 0.5 * r[2]).collect();
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn kernel() -> Kernel {
    let mut k = Kernel::new(D);
    k.lengthscales = vec![0.3, 0.45, 0.6];
    k
}

fn dense(n: usize) -> GaussianProcess {
    let (x, y) = data(n);
    GaussianProcess::new(x, &y, kernel(), 1e-4).unwrap()
}

/// Query points off the design lattice.
fn queries() -> Matrix {
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..D).map(|j| (((i * D + j) as f64) * 0.377_96 + 0.05).fract()).collect())
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn block_point_and_gradient_paths_agree_for_every_criterion_and_backend() {
    let small = dense(96);
    let large = dense(160);
    assert!(small.n() <= BIT_EXACT_MAX_N && large.n() > BIT_EXACT_MAX_N);
    // (label, model, whether the workspace gradient must be bitwise)
    let models: [(&str, &GaussianProcess, bool); 2] =
        [("dense n = 96", &small, true), ("dense n = 160", &large, false)];
    let pts = queries();
    let mut ws = AcqWorkspace::new();
    let mut grad = Vec::new();
    for (label, gp, bitwise) in models {
        let f_best = gp.best_observed(false);
        let criteria: [&dyn Acquisition; 3] = [
            &ExpectedImprovement { f_best },
            &ProbabilityOfImprovement { f_best },
            &UpperConfidenceBound::default(),
        ];
        for acq in criteria {
            let name = acq.name();
            let mut block = vec![0.0; pts.rows()];
            acq.value_many(gp, &pts, &mut block);
            let mut nonzero = 0;
            for (i, &b) in block.iter().enumerate() {
                let x = pts.row(i);
                // Block against point: batched summation order only.
                let v = acq.value(gp, x);
                assert!(close(b, v, 1e-10), "{label} {name} row {i}: block {b} vs point {v}");

                // Workspace gradient against the reference gradient.
                let (rv, rg) = acq.value_grad(gp, x);
                let wv = acq.value_grad_into(gp, x, &mut ws, &mut grad);
                assert_eq!(grad.len(), D);
                if bitwise {
                    assert_eq!(wv.to_bits(), rv.to_bits(), "{label} {name} row {i}: value");
                    for j in 0..D {
                        let (w, r) = (grad[j], rg[j]);
                        assert_eq!(w.to_bits(), r.to_bits(), "{label} {name} row {i}: ∂{j}");
                    }
                } else {
                    assert!(close(wv, rv, 1e-11), "{label} {name} row {i}: value {wv} vs {rv}");
                    for j in 0..D {
                        let (w, r) = (grad[j], rg[j]);
                        assert!(close(w, r, 1e-11), "{label} {name} row {i}: ∂{j} {w} vs {r}");
                    }
                }

                // The gradient path's value is the point value (the two
                // posteriors differ by solve order only) ...
                assert!(close(wv, v, 1e-9), "{label} {name} row {i}: {wv} vs point {v}");
                // ... and its gradient differentiates the point value.
                let fd = pbo_opt::fd_gradient(|p| acq.value(gp, p), x, 1e-6);
                for j in 0..D {
                    assert!(
                        (grad[j] - fd[j]).abs() <= 1e-4 * (1.0 + fd[j].abs()),
                        "{label} {name} row {i}: ∂{j} {} vs finite difference {}",
                        grad[j],
                        fd[j]
                    );
                }
                if v.abs() > 1e-8 {
                    nonzero += 1;
                }
            }
            // The table is not vacuous: most rows score away from zero.
            assert!(nonzero >= pts.rows() / 2, "{label} {name}: only {nonzero} nonzero scores");
        }
    }
}
