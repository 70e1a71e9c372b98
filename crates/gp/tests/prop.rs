#![allow(clippy::needless_range_loop)]

//! Property-based tests of Gaussian-process invariants.

use pbo_gp::kernel::Kernel;
use pbo_gp::GaussianProcess;
use pbo_linalg::Matrix;
use proptest::prelude::*;

/// Random 2-d training set with targets in a bounded range and inputs
/// kept pairwise distinct (proptest may generate near-duplicates; the
/// jitter machinery must cope, but exact-duplicate semantics are tested
/// separately).
fn dataset() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    prop::collection::vec(((0.0f64..1.0), (0.0f64..1.0), (-10.0f64..10.0)), 3..25).prop_map(
        |rows| {
            let mut x = Matrix::zeros(0, 2);
            let mut y = Vec::new();
            for (a, b, v) in rows {
                x.push_row(&[a, b]).unwrap();
                y.push(v);
            }
            (x, y)
        },
    )
}

fn gp(x: Matrix, y: &[f64], ls: f64, noise: f64) -> GaussianProcess {
    let mut kernel = Kernel::new(2);
    kernel.lengthscales = vec![ls; 2];
    GaussianProcess::new(x, y, kernel, noise).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn posterior_variance_never_exceeds_prior((x, y) in dataset(),
                                              px in 0.0f64..1.0, py in 0.0f64..1.0) {
        let model = gp(x, &y, 0.4, 1e-4);
        let (_, var) = model.predict(&[px, py]);
        let (_, scale) = model.standardization();
        // Prior latent variance = outputscale × scale² (standardized).
        let prior = model.kernel().prior_var() * scale * scale;
        prop_assert!(var <= prior * (1.0 + 1e-9) + 1e-12, "var {var} > prior {prior}");
    }

    #[test]
    fn conditioning_never_increases_variance((x, y) in dataset(),
                                             nx in 0.0f64..1.0, ny in 0.0f64..1.0,
                                             px in 0.0f64..1.0, py in 0.0f64..1.0) {
        let model = gp(x, &y, 0.4, 1e-4);
        let fantasy = model.predict_mean(&[nx, ny]);
        let mut cond = model.clone();
        cond.condition_on(&[vec![nx, ny]], &[fantasy]).unwrap();
        let (_, v0) = model.predict(&[px, py]);
        let (_, v1) = cond.predict(&[px, py]);
        // Conditioning on one more (noisy) observation cannot inflate
        // the posterior variance anywhere (information never hurts).
        prop_assert!(v1 <= v0 * (1.0 + 1e-6) + 1e-9, "{v0} -> {v1}");
    }

    #[test]
    fn predictions_shift_equivariantly((x, y) in dataset(),
                                       shift in -50.0f64..50.0,
                                       px in 0.0f64..1.0, py in 0.0f64..1.0) {
        // GP(y + c) predicts GP(y) + c with identical variance: the
        // standardization + profiled trend must make the model exactly
        // shift-equivariant.
        let m1 = gp(x.clone(), &y, 0.4, 1e-4);
        let shifted: Vec<f64> = y.iter().map(|v| v + shift).collect();
        let m2 = gp(x, &shifted, 0.4, 1e-4);
        let (mu1, v1) = m1.predict(&[px, py]);
        let (mu2, v2) = m2.predict(&[px, py]);
        prop_assert!((mu2 - mu1 - shift).abs() < 1e-6 * (1.0 + mu1.abs() + shift.abs()),
                     "means {mu1} vs {mu2} (shift {shift})");
        prop_assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1));
    }

    #[test]
    fn joint_posterior_is_symmetric_psd((x, y) in dataset(),
                                        ax in 0.0f64..1.0, ay in 0.0f64..1.0,
                                        bx in 0.0f64..1.0, by in 0.0f64..1.0) {
        let model = gp(x, &y, 0.35, 1e-4);
        let pts = Matrix::from_rows(&[vec![ax, ay], vec![bx, by]]).unwrap();
        let (_, cov) = model.posterior_joint(&pts).unwrap();
        prop_assert!((cov[(0, 1)] - cov[(1, 0)]).abs() < 1e-10);
        // 2x2 PSD: diagonal nonnegative, determinant ≥ −tol.
        prop_assert!(cov[(0, 0)] >= 0.0 && cov[(1, 1)] >= 0.0);
        let det = cov[(0, 0)] * cov[(1, 1)] - cov[(0, 1)] * cov[(1, 0)];
        prop_assert!(det >= -1e-9 * (1.0 + cov[(0, 0)] * cov[(1, 1)]), "det {det}");
    }

    #[test]
    fn workspace_mll_matches_naive_randomized(d in 1usize..=4,
                                              flat in prop::collection::vec(0.0f64..1.0, 16..80),
                                              ys in prop::collection::vec(-5.0f64..5.0, 4..16),
                                              log_ls in prop::collection::vec(-2.0f64..0.7, 4),
                                              log_os in -1.0f64..1.0,
                                              log_noise in -7.0f64..-2.5) {
        // The cached-distance, inverse-free MLL path must reproduce the
        // naive quadratic-loop reference across random hyperparameters,
        // dimensions, and training sizes to <= 1e-10 relative error.
        let n = ys.len().min(flat.len() / d);
        prop_assume!(n >= 2);
        let mut x = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..d {
                x[(i, j)] = flat[i * d + j];
            }
        }
        let m = pbo_linalg::vec_ops::mean(&ys[..n]);
        let s = pbo_linalg::vec_ops::variance(&ys[..n]).sqrt().max(1e-8);
        let y_std: Vec<f64> = ys[..n].iter().map(|v| (v - m) / s).collect();
        let mut params = log_ls[..d].to_vec();
        params.push(log_os);
        params.push(log_noise);
        let mut ws = pbo_gp::FitWorkspace::new();
        ws.prepare(&x);
        let (v_naive, g_naive) = pbo_gp::fit::mll_and_grad(&x, &y_std, &params).unwrap();
        let (v_ws, g_ws) =
            pbo_gp::workspace::mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
        prop_assert!((v_ws - v_naive).abs() <= 1e-10 * (1.0 + v_naive.abs()),
                     "value: ws {v_ws} vs naive {v_naive}");
        for (i, (a, b)) in g_ws.iter().zip(&g_naive).enumerate() {
            prop_assert!((a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                         "grad[{i}]: ws {a} vs naive {b} (n={n}, d={d})");
        }
        // A second evaluation through the reused buffers repeats the bits.
        let (v_again, g_again) =
            pbo_gp::workspace::mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
        prop_assert!(v_again.to_bits() == v_ws.to_bits() && g_again == g_ws,
                     "repeated evaluation diverged");
    }

    #[test]
    fn noise_monotonically_smooths_in_sample((x, y) in dataset()) {
        // With larger noise, in-sample residuals can only grow (the
        // model trusts the data less).
        prop_assume!(pbo_linalg::vec_ops::variance(&y) > 1e-6);
        let tight = gp(x.clone(), &y, 0.4, 1e-8);
        let loose = gp(x.clone(), &y, 0.4, 0.5);
        let mut res_tight = 0.0;
        let mut res_loose = 0.0;
        for i in 0..x.rows() {
            let p = x.row(i).to_vec();
            res_tight += (tight.predict_mean(&p) - y[i]).powi(2);
            res_loose += (loose.predict_mean(&p) - y[i]).powi(2);
        }
        prop_assert!(res_loose >= res_tight - 1e-9,
                     "tight {res_tight} vs loose {res_loose}");
    }
}
