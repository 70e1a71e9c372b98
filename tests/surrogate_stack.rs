//! Cross-crate integration of the surrogate stack: sampling → linalg →
//! GP → acquisition, on realistic 12-d data.

use pbo::acq::single::{optimize_single, ExpectedImprovement};
use pbo::acq::Acquisition;
use pbo::gp::fit::{fit, FitConfig};
use pbo::gp::GaussianProcess;
use pbo::linalg::Matrix;
use pbo::opt::Bounds;
use pbo::problems::{Problem, SyntheticFn};
use pbo::sampling::{lhs, SeedStream};

/// Fit a GP on an LHS sample of a benchmark function.
fn fitted_gp(problem: &SyntheticFn, n: usize, seed: u64) -> (GaussianProcess, Matrix, Vec<f64>) {
    let d = problem.dim();
    let mut seeds = SeedStream::new(seed);
    let pts = lhs::latin_hypercube(&mut seeds.fork_named("doe").rng(), n, d);
    let mut x = Matrix::zeros(0, d);
    let mut y = Vec::with_capacity(n);
    for u in &pts {
        let mut native = u.clone();
        pbo::sampling::scale_to_box(&mut native, problem.lower(), problem.upper());
        y.push(problem.eval(&native));
        x.push_row(u).unwrap();
    }
    let cfg = FitConfig { restarts: 1, max_iters: 30, ..FitConfig::default() };
    let (gp, report) = fit(&x, &y, &cfg, None, &mut seeds).unwrap();
    assert!(report.mll.is_finite());
    (gp, x, y)
}

#[test]
fn gp_generalizes_on_ackley_12d() {
    let problem = SyntheticFn::ackley(12);
    let (gp, _, y) = fitted_gp(&problem, 80, 3);
    // Out-of-sample check at fresh points: the model must beat the
    // trivial predict-the-mean baseline on squared error.
    let seeds = SeedStream::new(99);
    let test = lhs::latin_hypercube(&mut seeds.fork_named("test").rng(), 40, 12);
    let ybar = y.iter().sum::<f64>() / y.len() as f64;
    let (mut se_gp, mut se_mean) = (0.0, 0.0);
    for u in &test {
        let mut native = u.clone();
        pbo::sampling::scale_to_box(&mut native, problem.lower(), problem.upper());
        let truth = problem.eval(&native);
        let (m, v) = gp.predict(u);
        assert!(v >= 0.0);
        se_gp += (m - truth) * (m - truth);
        se_mean += (ybar - truth) * (ybar - truth);
    }
    assert!(se_gp < 0.8 * se_mean, "GP RMSE² {se_gp:.1} not clearly below baseline {se_mean:.1}");
}

#[test]
fn ei_maximizer_is_a_sensible_candidate_in_12d() {
    let problem = SyntheticFn::rosenbrock(12);
    let (gp, _, y) = fitted_gp(&problem, 60, 7);
    let f_best = y.iter().copied().fold(f64::INFINITY, f64::min);
    let ei = ExpectedImprovement { f_best };
    let bounds = Bounds::unit(12);
    let ms = pbo::opt::multistart::MultistartConfig {
        raw_samples: 64,
        restarts: 4,
        ..Default::default()
    };
    let r = optimize_single(&gp, &ei, &bounds, &[], &ms);
    assert!(bounds.contains(&r.x));
    assert!(r.value >= 0.0);
    // The proposal's EI beats EI at 20 Sobol probes.
    let mut sobol = pbo::sampling::sobol::Sobol::new(12);
    for _ in 0..20 {
        let p = sobol.next_point();
        assert!(r.value >= ei.value(&gp, &p) - 1e-9);
    }
}

#[test]
fn fantasy_conditioning_shrinks_variance_locally() {
    let problem = SyntheticFn::ackley(12);
    let (gp, _, _) = fitted_gp(&problem, 50, 11);
    let probe = vec![0.42; 12];
    let (_, var_before) = gp.predict(&probe);
    let fantasy_y = gp.predict_mean(&probe);
    let mut gp2 = gp.clone();
    gp2.condition_on(std::slice::from_ref(&probe), &[fantasy_y]).unwrap();
    let (_, var_after) = gp2.predict(&probe);
    assert!(
        var_after < 0.05 * var_before + 1e-10,
        "conditioning should collapse local variance: {var_before} -> {var_after}"
    );
    // And the far field is barely affected.
    let far = vec![0.95; 12];
    let (_, vf_before) = gp.predict(&far);
    let (_, vf_after) = gp2.predict(&far);
    assert!((vf_after - vf_before).abs() < 0.2 * vf_before + 1e-10);
}

#[test]
fn qei_of_diverse_batch_beats_clumped_batch() {
    let problem = SyntheticFn::ackley(12);
    let (gp, _, y) = fitted_gp(&problem, 50, 13);
    let f_best = y.iter().copied().fold(f64::INFINITY, f64::min);
    let qei = pbo::acq::mc::QExpectedImprovement::new(f_best, 2, 2048, 5);
    // Clumped: the same promising point twice. Diverse: promising point
    // + a second distinct location.
    let p = vec![0.4; 12];
    let clumped = Matrix::from_rows(&[p.clone(), p.clone()]).unwrap();
    let mut p2 = p.clone();
    p2[0] = 0.7;
    p2[5] = 0.1;
    let diverse = Matrix::from_rows(&[p, p2]).unwrap();
    assert!(
        qei.value(&gp, &diverse) >= qei.value(&gp, &clumped) - 1e-6,
        "diversification must not hurt qEI"
    );
}
