//! Workspace-level property tests: invariants that must hold across
//! crate boundaries for arbitrary inputs.

use pbo::acq::single::{ExpectedImprovement, ProbabilityOfImprovement};
use pbo::acq::Acquisition;
use pbo::gp::kernel::Kernel;
use pbo::gp::GaussianProcess;
use pbo::linalg::Matrix;
use pbo::uphes::schedule::Schedule;
use pbo::uphes::Simulator;
use proptest::prelude::*;

fn gp_from_data(xs: &[Vec<f64>], ys: &[f64]) -> GaussianProcess {
    let x = Matrix::from_rows(xs).unwrap();
    let mut kernel = Kernel::new(xs[0].len());
    kernel.lengthscales = vec![0.4; xs[0].len()];
    GaussianProcess::new(x, ys, kernel, 1e-5).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gp_predictions_finite_for_arbitrary_data(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, -100.0f64..100.0), 4..20),
        probe in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let xs: Vec<Vec<f64>> = raw.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let ys: Vec<f64> = raw.iter().map(|(_, _, y)| *y).collect();
        let gp = gp_from_data(&xs, &ys);
        let (m, v) = gp.predict(&[probe.0, probe.1]);
        prop_assert!(m.is_finite());
        prop_assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn ei_nonnegative_pi_is_probability(
        raw in prop::collection::vec((0.0f64..1.0, -5.0f64..5.0), 4..15),
        probe in 0.0f64..1.0,
    ) {
        let xs: Vec<Vec<f64>> = raw.iter().map(|(a, _)| vec![*a]).collect();
        let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();
        let gp = gp_from_data(&xs, &ys);
        let f_best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let ei = ExpectedImprovement { f_best };
        let pi = ProbabilityOfImprovement { f_best };
        let e = ei.value(&gp, &[probe]);
        let p = pi.value(&gp, &[probe]);
        prop_assert!(e >= 0.0, "EI = {e}");
        prop_assert!((0.0..=1.0).contains(&p), "PI = {p}");
    }

    #[test]
    fn ei_gradient_matches_fd_on_random_models(
        raw in prop::collection::vec((0.0f64..1.0, -2.0f64..2.0), 5..12),
        probe in 0.05f64..0.95,
    ) {
        let xs: Vec<Vec<f64>> = raw.iter().map(|(a, _)| vec![*a]).collect();
        let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();
        // Skip degenerate all-equal targets (zero-variance posterior).
        prop_assume!(pbo::linalg::vec_ops::variance(&ys) > 1e-6);
        let gp = gp_from_data(&xs, &ys);
        let f_best = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let ei = ExpectedImprovement { f_best };
        let (_, g) = ei.value_grad(&gp, &[probe]);
        let fd = pbo::opt::fd_gradient(|x| ei.value(&gp, x), &[probe], 1e-6);
        prop_assert!((g[0] - fd[0]).abs() < 1e-3 * (1.0 + fd[0].abs()),
                     "grad {} vs fd {}", g[0], fd[0]);
    }

    #[test]
    fn uphes_profit_always_finite_and_bounded(
        x in prop::collection::vec(0.0f64..1.0, 12),
    ) {
        let sim = Simulator::maizeret(1);
        let p = sim.expected_profit(&x);
        prop_assert!(p.is_finite());
        // Physical sanity: one day of an 8 MW plant cannot make or lose
        // more than ~50 k EUR even under maximal penalties.
        prop_assert!(p.abs() < 50_000.0, "profit {p}");
    }

    #[test]
    fn uphes_breakdown_consistent_for_any_decision(
        x in prop::collection::vec(0.0f64..1.0, 12),
    ) {
        let sim = Simulator::maizeret(2);
        let b = sim.evaluate_detailed(&x);
        let recomposed = b.energy_revenue - b.pumping_cost + b.reserve_revenue
            - b.penalties + b.water_value;
        prop_assert!((b.profit - recomposed).abs() < 1e-6);
        prop_assert!(b.pumping_cost >= 0.0);
        prop_assert!(b.penalties >= 0.0);
        prop_assert!(b.reserve_revenue >= 0.0);
    }

    #[test]
    fn schedule_decode_total_within_physical_limits(
        x in prop::collection::vec(0.0f64..1.0, 12),
    ) {
        let s = Schedule::decode(&x);
        for t in 0..pbo::uphes::STEPS {
            let p = s.power_at_step(t);
            let r = s.reserve_at_step(t);
            prop_assert!((-8.0..=8.0).contains(&p));
            prop_assert!((0.0..=3.0).contains(&r));
        }
    }
}
