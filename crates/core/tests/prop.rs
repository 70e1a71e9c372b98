//! Property tests for the statistics layer and the virtual-time
//! accounting primitives.

use pbo_core::budget::{Budget, Stopping};
use pbo_core::clock::{CostModel, TimeCategory, VirtualClock};
use pbo_core::exec::{eval_point_ft, FtPolicy};
use pbo_core::stats::{summarize, t_sf_two_sided, welch_t_test};
use pbo_problems::SyntheticFn;
use proptest::prelude::*;

/// A sample strategy with guaranteed spread (at least two distinct
/// values) so variances never vanish.
fn spread_sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 3..20).prop_map(|mut v| {
        v[0] = v[0].floor() - 1.0;
        v[1] = v[1].floor() + 1.0;
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Welch's t-test (stats.rs) --------------------------------

    #[test]
    fn welch_p_value_is_a_probability(a in spread_sample(), b in spread_sample()) {
        let (t, nu, p) = welch_t_test(&a, &b);
        prop_assert!(t.is_finite(), "t = {t}");
        prop_assert!(nu > 0.0, "nu = {nu}");
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn welch_is_antisymmetric_under_sample_swap(a in spread_sample(), b in spread_sample()) {
        let (t_ab, nu_ab, p_ab) = welch_t_test(&a, &b);
        let (t_ba, nu_ba, p_ba) = welch_t_test(&b, &a);
        prop_assert!((t_ab + t_ba).abs() < 1e-10, "t not antisymmetric: {t_ab} vs {t_ba}");
        prop_assert!((nu_ab - nu_ba).abs() < 1e-10);
        prop_assert!((p_ab - p_ba).abs() < 1e-10);
    }

    #[test]
    fn welch_on_shifted_copy_matches_pooled_student_t(
        a in spread_sample(),
        shift in -20.0f64..20.0,
    ) {
        // b = a + shift has the *same* sample variance and size, where
        // Welch's statistic and degrees of freedom reduce exactly to
        // the classical pooled (equal-variance) Student's t-test.
        let b: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let (t, nu, p) = welch_t_test(&a, &b);
        let n = a.len() as f64;
        let sa = summarize(&a);
        let pooled_se = (2.0 * sa.sd * sa.sd / n).sqrt();
        let t_pooled = -shift / pooled_se;
        let nu_pooled = 2.0 * n - 2.0;
        prop_assert!((t - t_pooled).abs() < 1e-8 * (1.0 + t_pooled.abs()),
            "t {t} vs pooled {t_pooled}");
        prop_assert!((nu - nu_pooled).abs() < 1e-6, "nu {nu} vs pooled {nu_pooled}");
        let p_pooled = t_sf_two_sided(t_pooled, nu_pooled);
        prop_assert!((p - p_pooled).abs() < 1e-9);
    }

    #[test]
    fn welch_identical_samples_give_zero_t_unit_p(a in spread_sample()) {
        let (t, _, p) = welch_t_test(&a, &a);
        prop_assert!(t.abs() < 1e-12);
        prop_assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn larger_mean_gap_never_raises_p(
        a in spread_sample(),
        shift in 0.5f64..10.0,
    ) {
        // Monotonicity: widening the gap between two fixed-shape
        // samples cannot make them look *more* similar.
        let near: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let far: Vec<f64> = a.iter().map(|v| v + 2.0 * shift).collect();
        let (_, _, p_near) = welch_t_test(&a, &near);
        let (_, _, p_far) = welch_t_test(&a, &far);
        prop_assert!(p_far <= p_near + 1e-12, "p grew with gap: {p_near} -> {p_far}");
    }

    // ---- Virtual clock (clock.rs) ---------------------------------

    #[test]
    fn clock_is_monotone_and_split_sums_to_now(
        charges in prop::collection::vec((0u32..3, 0.0f64..1e4), 0..40),
    ) {
        let mut c = VirtualClock::new(CostModel::Fixed { per_call: 1.0 });
        let mut prev = 0.0;
        for (cat, secs) in &charges {
            let cat = match cat {
                0 => TimeCategory::Fit,
                1 => TimeCategory::Acquisition,
                _ => TimeCategory::Simulation,
            };
            c.charge_virtual(cat, *secs);
            prop_assert!(c.now() >= prev, "clock went backwards");
            prev = c.now();
        }
        let (f, a, s) = c.split();
        prop_assert!(f >= 0.0 && a >= 0.0 && s >= 0.0);
        prop_assert!((f + a + s - c.now()).abs() < 1e-6 * (1.0 + c.now()));
    }

    #[test]
    fn fixed_cost_parallel_charge_divides_by_workers(
        per_call in 0.1f64..100.0,
        workers in 1usize..64,
    ) {
        let mut c = VirtualClock::new(CostModel::Fixed { per_call });
        c.charge(TimeCategory::Acquisition, workers, || ());
        prop_assert!((c.now() - per_call / workers as f64).abs() < 1e-12);
        let mut serial = VirtualClock::new(CostModel::Fixed { per_call });
        serial.charge(TimeCategory::Acquisition, 1, || ());
        prop_assert!(c.now() <= serial.now() + 1e-12, "parallelism made work slower");
    }

    // ---- Budget (budget.rs) ---------------------------------------

    #[test]
    fn batch_sim_time_is_monotone_and_bounded_below(
        q in 1usize..32,
        len_a in 0usize..64,
        extra in 0usize..64,
    ) {
        let b = Budget::paper(q);
        let t_a = b.batch_sim_time(len_a);
        let t_b = b.batch_sim_time(len_a + extra);
        prop_assert!(t_a >= b.sim_seconds, "batch cheaper than one simulation");
        prop_assert!(t_b >= t_a, "more points got cheaper");
        // Dispatch overhead is linear in the batch length.
        let expect = b.dispatch_overhead_per_point * extra as f64;
        prop_assert!((t_b - t_a - expect).abs() < 1e-9);
    }

    #[test]
    fn virtual_time_budget_caps_cycles(minutes in 1.0f64..120.0, q in 1usize..16) {
        let mut b = Budget::paper(q);
        b.stopping = Stopping::VirtualTime(minutes * 60.0);
        let max = b.max_cycles().expect("virtual-time budgets have a cycle cap");
        // Each cycle costs at least sim_seconds, so the cap is exact.
        prop_assert_eq!(max, (minutes * 60.0 / b.sim_seconds).floor() as usize);
    }

    // ---- Fault-tolerant executor accounting (exec.rs) -------------

    #[test]
    fn clean_point_outcome_charges_exactly_one_simulation(
        x in prop::collection::vec(0.0f64..1.0, 2..6),
        sim_seconds in 0.1f64..100.0,
        max_retries in 0u32..5,
    ) {
        let p = SyntheticFn::ackley(x.len());
        let policy = FtPolicy { max_retries, ..FtPolicy::default() };
        let out = eval_point_ft(&p, &x, sim_seconds, &policy);
        // A fault-free evaluation must cost exactly the nominal
        // simulator time — retries/backoff only ever *add* time.
        prop_assert_eq!(out.attempts, 1);
        prop_assert!((out.virtual_secs - sim_seconds).abs() < 1e-12);
        prop_assert!(!out.faults.any());
        prop_assert!(out.faults.virtual_secs_lost == 0.0);
        prop_assert!(out.value.is_some());
    }
}
