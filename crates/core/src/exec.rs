//! Parallel batch evaluation — the MPI4Py worker pool of the paper,
//! as a scoped-thread fan-out.
//!
//! The candidates of one cycle are evaluated concurrently. The paper maps
//! one MPI rank per batch element; here the fan-out is capped at the
//! machine's available parallelism (or [`FtPolicy::eval_workers`]), with
//! each worker draining a contiguous chunk of the batch, so a q = 64
//! scalability sweep does not spawn 64 OS threads on an 8-core box.
//!
//! [`evaluate_batch`] is the one executor, and it is fault tolerant:
//! per-point [`std::panic::catch_unwind`] isolation, NaN/Inf
//! quarantine, bounded retry with exponential backoff and a per-attempt
//! timeout. All fault handling is charged in **virtual seconds**
//! (retries and backoff waits serialize on the failing rank; the
//! batch's wall time is the max over ranks, exactly the paper's MPI
//! accounting), so injected faults change reported evaluation budgets,
//! never host wall-clock. With a healthy problem every value is exactly
//! [`pbo_problems::eval_min`] of its point. The virtual clock itself is
//! charged by the *engine*, which also turns the [`BatchReport`] into
//! `PointFaulted` events; this module only runs the problem.

use crate::record::FaultCounters;
use pbo_problems::Problem;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Retry/timeout policy of the fault-tolerant executor. Durations are
/// **virtual seconds** (the paper's simulator-time currency), not host
/// time.
#[derive(Debug, Clone, Copy)]
pub struct FtPolicy {
    /// Re-attempts allowed per point after the first try.
    pub max_retries: u32,
    /// Backoff charged before the first retry \[virtual seconds\].
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Per-attempt virtual-time cap: an attempt whose simulation time
    /// (nominal + straggler delay) exceeds this is killed at the cap
    /// and counted as a timeout. `f64::INFINITY` disables the cap.
    pub timeout_secs: f64,
    /// Host fan-out override (`None` = available parallelism). Results
    /// are identical for every setting; this exists so the determinism
    /// suite can force 1 vs N workers through the chunked fan-out.
    pub eval_workers: Option<usize>,
}

impl Default for FtPolicy {
    fn default() -> Self {
        FtPolicy {
            max_retries: 2,
            backoff_base: 1.0,
            backoff_factor: 2.0,
            timeout_secs: f64::INFINITY,
            eval_workers: None,
        }
    }
}

/// Outcome of one batch element under the fault-tolerant executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointOutcome {
    /// Minimization-oriented value; `None` when every attempt failed.
    pub value: Option<f64>,
    /// Virtual seconds this point's rank consumed (all attempts,
    /// straggler delays, backoff waits, timeout charges).
    pub virtual_secs: f64,
    /// Attempts performed (≥ 1).
    pub attempts: u32,
    /// Faults this point absorbed.
    pub faults: FaultCounters,
}

/// Full report of one fault-tolerant batch evaluation.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-point outcomes, in input order.
    pub outcomes: Vec<PointOutcome>,
}

impl BatchReport {
    /// Aggregated fault counters over the batch.
    pub fn counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for o in &self.outcomes {
            total.merge(&o.faults);
        }
        total
    }

    /// Virtual wall time of the batch: the paper maps one MPI rank per
    /// batch element, so the pool finishes when the slowest rank does.
    pub fn max_rank_secs(&self) -> f64 {
        self.outcomes.iter().map(|o| o.virtual_secs).fold(0.0, f64::max)
    }
}

/// Evaluate one point with isolation, quarantine, retry and timeout.
/// `sim_seconds` is the nominal virtual cost of one healthy attempt.
pub fn eval_point_ft(
    problem: &dyn Problem,
    x: &[f64],
    sim_seconds: f64,
    policy: &FtPolicy,
) -> PointOutcome {
    let maximize = problem.maximize();
    let mut faults = FaultCounters::default();
    let mut secs = 0.0f64;
    let mut backoff = policy.backoff_base;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let attempt_result = catch_unwind(AssertUnwindSafe(|| problem.eval_effect(x)));
        let mut ok = None;
        match attempt_result {
            Err(_) => {
                // Crashed rank: it consumed its simulation slot before
                // dying (capped by the timeout like any attempt).
                faults.panics += 1;
                secs += sim_seconds.min(policy.timeout_secs);
            }
            Ok(effect) => {
                let extra = effect.extra_virtual_secs.max(0.0);
                let cost = sim_seconds + extra;
                if cost > policy.timeout_secs {
                    // The master kills the rank at the cap; the value
                    // never arrives.
                    faults.timeouts += 1;
                    secs += policy.timeout_secs;
                } else {
                    if extra > 0.0 {
                        faults.stragglers += 1;
                    }
                    secs += cost;
                    let v = if maximize { -effect.value } else { effect.value };
                    if v.is_finite() {
                        ok = Some(v);
                    } else if v.is_nan() {
                        faults.nan_quarantined += 1;
                    } else {
                        faults.inf_quarantined += 1;
                    }
                }
            }
        }
        let exhausted = ok.is_none() && attempts > policy.max_retries;
        if ok.is_some() || exhausted {
            // Everything beyond one healthy nominal attempt is fault
            // overhead (a fully failed point still "should have" cost
            // one simulation, so the same baseline applies).
            faults.virtual_secs_lost = (secs - sim_seconds).max(0.0);
            return PointOutcome { value: ok, virtual_secs: secs, attempts, faults };
        }
        faults.retries += 1;
        secs += backoff;
        backoff *= policy.backoff_factor;
    }
}

/// Fault-tolerant parallel batch evaluation. Per-point outcomes are a
/// pure function of `(problem, point, policy)` — independent of worker
/// count and thread schedule — so runs replay identically on any host.
pub fn evaluate_batch(
    problem: &dyn Problem,
    points: &[Vec<f64>],
    sim_seconds: f64,
    policy: &FtPolicy,
) -> BatchReport {
    let n = points.len();
    let placeholder = PointOutcome {
        value: None,
        virtual_secs: 0.0,
        attempts: 0,
        faults: FaultCounters::default(),
    };
    let mut outcomes = vec![placeholder; n];
    let workers = policy
        .eval_workers
        .unwrap_or_else(|| std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1))
        .max(1)
        .min(n);
    if workers <= 1 {
        for (slot, p) in outcomes.iter_mut().zip(points) {
            *slot = eval_point_ft(problem, p, sim_seconds, policy);
        }
    } else {
        let per = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (slots, pts) in outcomes.chunks_mut(per).zip(points.chunks(per)) {
                s.spawn(move || {
                    for (slot, p) in slots.iter_mut().zip(pts) {
                        *slot = eval_point_ft(problem, p, sim_seconds, policy);
                    }
                });
            }
        });
    }
    BatchReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_problems::fault::{silence_injected_panics, FaultPlan, FaultyProblem};
    use pbo_problems::{eval_min, SyntheticFn};

    /// The worker settings every fan-out test covers: forced serial,
    /// an odd chunking, and the host's available parallelism.
    const WORKERS: [Option<usize>; 3] = [Some(1), Some(3), None];

    /// Run the executor with `workers` and unwrap every (healthy) value.
    fn values(p: &dyn Problem, pts: &[Vec<f64>], workers: Option<usize>) -> Vec<f64> {
        let policy = FtPolicy { eval_workers: workers, ..FtPolicy::default() };
        let report = evaluate_batch(p, pts, 10.0, &policy);
        report.outcomes.iter().map(|o| o.value.expect("healthy point")).collect()
    }

    #[test]
    fn matches_sequential_evaluation() {
        let p = SyntheticFn::ackley(5);
        let pts: Vec<Vec<f64>> =
            (0..7).map(|i| (0..5).map(|j| (i * 5 + j) as f64 * 0.1 - 1.0).collect()).collect();
        for workers in WORKERS {
            let par = values(&p, &pts, workers);
            for (v, x) in par.iter().zip(&pts) {
                assert_eq!(*v, eval_min(&p, x));
            }
        }
    }

    #[test]
    fn flips_sign_for_maximizers() {
        let p = pbo_problems::UphesProblem::maizeret(2);
        let pts = vec![vec![0.45; 12], vec![0.2; 12]];
        for workers in WORKERS {
            let vals = values(&p, &pts, workers);
            assert_eq!(vals[0], -p.eval(&pts[0]));
            assert_eq!(vals[1], -p.eval(&pts[1]));
            assert_eq!(vals[0], eval_min(&p, &pts[0]));
        }
    }

    #[test]
    fn empty_batch_ok() {
        let p = SyntheticFn::ackley(3);
        for workers in WORKERS {
            let policy = FtPolicy { eval_workers: workers, ..FtPolicy::default() };
            let report = evaluate_batch(&p, &[], 10.0, &policy);
            assert!(report.outcomes.is_empty());
            assert_eq!(report.max_rank_secs(), 0.0);
        }
    }

    #[test]
    fn batch_larger_than_core_count_matches_sequential() {
        // More candidates than any plausible worker count: the chunked
        // fan-out must still cover every slot exactly once.
        let p = SyntheticFn::ackley(4);
        let pts: Vec<Vec<f64>> = (0..130)
            .map(|i| (0..4).map(|j| ((i * 7 + j * 3) % 40) as f64 * 0.05 - 1.0).collect())
            .collect();
        for workers in WORKERS {
            let par = values(&p, &pts, workers);
            for (v, x) in par.iter().zip(&pts) {
                assert_eq!(*v, eval_min(&p, x));
            }
        }
    }

    fn grid(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| (0..d).map(|j| ((i * 13 + j * 5) % 29) as f64 * 0.03).collect()).collect()
    }

    #[test]
    fn ft_zero_fault_path_is_bit_identical_to_plain() {
        let p = SyntheticFn::schwefel(4);
        let pts = grid(23, 4);
        let plain: Vec<f64> = pts.iter().map(|x| eval_min(&p, x)).collect();
        for workers in WORKERS {
            let policy = FtPolicy { eval_workers: workers, ..FtPolicy::default() };
            let report = evaluate_batch(&p, &pts, 10.0, &policy);
            let ft: Vec<f64> = report.outcomes.iter().map(|o| o.value.unwrap()).collect();
            assert_eq!(ft, plain);
            assert!(!report.counters().any());
            assert_eq!(report.max_rank_secs(), 10.0);
            assert!(report.outcomes.iter().all(|o| o.attempts == 1));
        }
    }

    #[test]
    fn ft_isolates_panics_and_retries() {
        silence_injected_panics();
        let inner = SyntheticFn::ackley(3);
        // Panic on every attempt: each point exhausts 1 + max_retries
        // attempts and ends up value-less, but the pool survives.
        let plan = FaultPlan { p_panic: 1.0, ..FaultPlan::none(7) };
        let p = FaultyProblem::new(&inner, plan);
        let pts = grid(5, 3);
        let policy = FtPolicy {
            max_retries: 2,
            backoff_base: 1.0,
            backoff_factor: 2.0,
            ..FtPolicy::default()
        };
        let report = evaluate_batch(&p, &pts, 10.0, &policy);
        let c = report.counters();
        assert_eq!(c.panics, 15, "5 points x 3 attempts");
        assert_eq!(c.retries, 10);
        assert!(report.outcomes.iter().all(|o| o.value.is_none() && o.attempts == 3));
        // Per rank: 3 sims + backoffs 1 + 2 = 33 virtual seconds, of
        // which everything beyond the nominal 10 is lost.
        for o in &report.outcomes {
            assert!((o.virtual_secs - 33.0).abs() < 1e-12);
            assert!((o.faults.virtual_secs_lost - 23.0).abs() < 1e-12);
        }
        assert_eq!(p.injection_log().panics, 15);
    }

    #[test]
    fn ft_quarantines_nan_and_inf_then_recovers() {
        // Fault only on attempt 0 for points whose first decision is
        // NaN/Inf; the retry is healthy, so every point recovers with a
        // finite value matching the clean problem.
        let inner = SyntheticFn::rosenbrock(2);
        let plan = FaultPlan { p_nan: 0.3, p_inf: 0.3, ..FaultPlan::none(41) };
        let p = FaultyProblem::new(&inner, plan);
        let pts = grid(40, 2);
        let policy = FtPolicy {
            max_retries: 6,
            backoff_base: 0.5,
            backoff_factor: 1.0,
            ..FtPolicy::default()
        };
        let report = evaluate_batch(&p, &pts, 10.0, &policy);
        let c = report.counters();
        let log = p.injection_log();
        assert!(log.nans + log.infs > 0, "plan should have fired at 60% rate");
        assert_eq!(c.nan_quarantined, log.nans);
        assert_eq!(c.inf_quarantined, log.infs);
        // Every quarantined attempt triggered a retry except the final
        // attempt of a point that exhausted its budget entirely.
        let exhausted = report.outcomes.iter().filter(|o| o.value.is_none()).count() as u64;
        assert_eq!(c.retries + exhausted, log.nans + log.infs);
        for (o, x) in report.outcomes.iter().zip(&pts) {
            if let Some(v) = o.value {
                assert_eq!(v, inner.eval(x), "recovered value must be clean");
            } else {
                assert_eq!(o.attempts, 7, "only a fully faulted point may fail");
            }
        }
        // Lost time: each failed attempt re-costs a sim, each retry a
        // 0.5 s backoff, minus the nominal baseline of exhausted ranks.
        let expect =
            c.failed_attempts() as f64 * 10.0 + c.retries as f64 * 0.5 - exhausted as f64 * 10.0;
        assert!((c.virtual_secs_lost - expect).abs() < 1e-9);
    }

    #[test]
    fn ft_timeout_caps_straggler_charges() {
        let inner = SyntheticFn::ackley(2);
        // Always straggle with delays up to 30 s; a 25 s cap kills the
        // long ones (10 + delay > 25 ⇔ delay > 15, ~half the draws).
        let plan = FaultPlan { p_straggle: 1.0, max_straggle_secs: 30.0, ..FaultPlan::none(13) };
        let p = FaultyProblem::new(&inner, plan);
        let pts = grid(30, 2);
        let policy = FtPolicy {
            max_retries: 8,
            backoff_base: 0.0,
            backoff_factor: 1.0,
            timeout_secs: 25.0,
            ..FtPolicy::default()
        };
        let report = evaluate_batch(&p, &pts, 10.0, &policy);
        let c = report.counters();
        assert!(c.timeouts > 0, "some draws must exceed the cap");
        assert!(c.stragglers > 0, "some draws must fit under the cap");
        // No rank is ever charged more than the cap per attempt.
        for o in &report.outcomes {
            assert!(o.virtual_secs <= 25.0 * o.attempts as f64 + 1e-12);
        }
        // Every point eventually lands a sub-cap straggle and succeeds.
        assert!(report.outcomes.iter().all(|o| o.value.is_some()));
    }

    #[test]
    fn ft_outcomes_independent_of_worker_count() {
        silence_injected_panics();
        let inner = SyntheticFn::schwefel(3);
        let plan = FaultPlan::uniform(99, 0.4);
        let pts = grid(17, 3);
        let runs: Vec<Vec<PointOutcome>> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let p = FaultyProblem::new(&inner, plan);
                let policy = FtPolicy { eval_workers: Some(w), ..FtPolicy::default() };
                evaluate_batch(&p, &pts, 10.0, &policy).outcomes
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }
}
