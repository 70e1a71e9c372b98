//! Deterministic fault injection for batch evaluation.
//!
//! The paper's evaluation layer is an MPI worker pool driving a licensed
//! ~10 s simulator on a shared cluster node; crashed ranks, garbage
//! outputs and stragglers are operating conditions, not exceptions. This
//! module lets any [`Problem`] be wrapped in a [`FaultyProblem`] that
//! injects exactly those failure modes — worker panics, NaN/Inf results
//! and virtual-time straggler delays — *deterministically* from the
//! run's SplitMix64 seed stream.
//!
//! Determinism contract: whether an evaluation faults depends only on
//! `(plan seed, bit pattern of x, attempt index for that x)`. It does
//! **not** depend on thread scheduling, worker count or the order in
//! which batch elements are drained, so the same run seed replays the
//! same faults regardless of the host machine — the property the
//! cross-crate determinism suite (`tests/determinism.rs`) pins down.
//!
//! Injection happens only on the executor-facing
//! [`Problem::eval_effect`] surface; the plain [`Problem::eval`] is
//! forwarded untouched so that reporting paths (schedule decoding,
//! detailed breakdowns) always see the clean objective.

use crate::{EvalEffect, Problem};
use pbo_sampling::seed::derive;
use std::collections::HashMap;
use std::sync::Mutex;

/// Panic payload used for injected worker crashes. The fault-tolerant
/// executor catches any payload; this marker type lets
/// [`silence_injected_panics`] suppress the default panic-hook noise
/// for *injected* crashes only.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic;

/// Install a panic hook that stays silent for [`InjectedPanic`]
/// payloads and delegates every real panic to the previously installed
/// hook. Idempotent enough for test use (each call chains the current
/// hook). Call once at the top of tests that inject panics.
pub fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            prev(info);
        }
    }));
}

/// What one injected fault does to an evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Healthy evaluation.
    None,
    /// The worker panics mid-simulation (crashed MPI rank).
    Panic,
    /// The simulator returns NaN (diverged numerics).
    Nan,
    /// The simulator returns +Inf in minimized orientation (solver
    /// blow-up).
    Inf,
    /// The worker straggles: the result is correct but arrives after
    /// this many extra virtual seconds.
    Straggle(f64),
}

/// A seeded, deterministic fault-injection plan.
///
/// Probabilities are per evaluation *attempt* and mutually exclusive
/// (checked against disjoint sub-intervals of one uniform draw), so
/// `p_panic + p_nan + p_inf + p_straggle` must stay ≤ 1.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the fault stream (fork it from the run's master seed).
    pub seed: u64,
    /// Probability an attempt panics.
    pub p_panic: f64,
    /// Probability an attempt returns NaN.
    pub p_nan: f64,
    /// Probability an attempt returns an infinite value.
    pub p_inf: f64,
    /// Probability an attempt straggles.
    pub p_straggle: f64,
    /// Maximum straggler delay \[virtual seconds\]; the actual delay is
    /// uniform in `(0, max_straggle_secs]`.
    pub max_straggle_secs: f64,
}

impl FaultPlan {
    /// A plan with total fault rate `rate`, split evenly across the
    /// four fault kinds, with 30-virtual-second worst-case stragglers.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        let p = rate / 4.0;
        FaultPlan { seed, p_panic: p, p_nan: p, p_inf: p, p_straggle: p, max_straggle_secs: 30.0 }
    }

    /// A plan that never faults (identity wrapper; useful to prove the
    /// zero-fault path is bit-identical to the plain executor).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            p_panic: 0.0,
            p_nan: 0.0,
            p_inf: 0.0,
            p_straggle: 0.0,
            max_straggle_secs: 0.0,
        }
    }

    /// Decide the fault for `(x-hash, attempt)`. Pure function of the
    /// plan seed and its arguments.
    pub fn decide(&self, x_hash: u64, attempt: u32) -> FaultKind {
        let per_point = derive(self.seed, x_hash);
        let draw = derive(per_point, attempt as u64 + 1);
        let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = self.p_panic;
        if u < edge {
            return FaultKind::Panic;
        }
        edge += self.p_nan;
        if u < edge {
            return FaultKind::Nan;
        }
        edge += self.p_inf;
        if u < edge {
            return FaultKind::Inf;
        }
        edge += self.p_straggle;
        if u < edge {
            // Independent uniform draw for the delay magnitude, kept
            // strictly positive so a straggle is always observable.
            let d = derive(per_point, (attempt as u64 + 1) | 1 << 63);
            let frac = ((d >> 11) as f64 / (1u64 << 53) as f64).max(1e-9);
            return FaultKind::Straggle(frac * self.max_straggle_secs);
        }
        FaultKind::None
    }
}

/// Order-independent hash of a point's exact bit pattern (FNV-1a over
/// the coordinate bits).
pub fn point_hash(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Tally of the faults a [`FaultyProblem`] actually injected — the
/// ground truth the engine's fault counters must reconcile against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InjectionLog {
    /// Injected worker panics.
    pub panics: u64,
    /// Injected NaN results.
    pub nans: u64,
    /// Injected infinite results.
    pub infs: u64,
    /// Injected straggler delays.
    pub straggles: u64,
    /// Total injected straggler delay \[virtual seconds\].
    pub straggle_secs: f64,
}

impl InjectionLog {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.panics + self.nans + self.infs + self.straggles
    }
}

/// A [`Problem`] wrapper injecting the faults of a [`FaultPlan`] into
/// the executor-facing [`Problem::eval_effect`] surface.
///
/// Retries of the same point see increasing attempt indices (tracked
/// per exact bit pattern), so a point that faults once is not doomed to
/// fault forever — matching a cluster where resubmitting a failed rank
/// usually succeeds.
pub struct FaultyProblem<'a> {
    inner: &'a dyn Problem,
    plan: FaultPlan,
    name: String,
    attempts: Mutex<HashMap<u64, u32>>,
    log: Mutex<InjectionLog>,
}

impl<'a> FaultyProblem<'a> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: &'a dyn Problem, plan: FaultPlan) -> Self {
        FaultyProblem {
            name: format!("{}+faults", inner.name()),
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            log: Mutex::new(InjectionLog::default()),
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of everything injected so far.
    pub fn injection_log(&self) -> InjectionLog {
        *self.log.lock().unwrap()
    }

    /// Forget attempt history and injections (fresh run on the same
    /// wrapper).
    pub fn reset(&self) {
        self.attempts.lock().unwrap().clear();
        *self.log.lock().unwrap() = InjectionLog::default();
    }
}

impl Problem for FaultyProblem<'_> {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn lower(&self) -> &[f64] {
        self.inner.lower()
    }
    fn upper(&self) -> &[f64] {
        self.inner.upper()
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.inner.eval(x)
    }
    fn maximize(&self) -> bool {
        self.inner.maximize()
    }
    fn optimum(&self) -> Option<f64> {
        self.inner.optimum()
    }

    fn eval_effect(&self, x: &[f64]) -> EvalEffect {
        let h = point_hash(x);
        let attempt = {
            let mut map = self.attempts.lock().unwrap();
            let slot = map.entry(h).or_insert(0);
            let a = *slot;
            *slot += 1;
            a
        };
        let fault = self.plan.decide(h, attempt);
        {
            let mut log = self.log.lock().unwrap();
            match fault {
                FaultKind::Panic => log.panics += 1,
                FaultKind::Nan => log.nans += 1,
                FaultKind::Inf => log.infs += 1,
                FaultKind::Straggle(d) => {
                    log.straggles += 1;
                    log.straggle_secs += d;
                }
                FaultKind::None => {}
            }
        }
        match fault {
            FaultKind::Panic => std::panic::panic_any(InjectedPanic),
            FaultKind::Nan => EvalEffect { value: f64::NAN, extra_virtual_secs: 0.0 },
            FaultKind::Inf => {
                // Infinite in *minimized* orientation regardless of the
                // problem's native orientation.
                let v = if self.inner.maximize() { f64::NEG_INFINITY } else { f64::INFINITY };
                EvalEffect { value: v, extra_virtual_secs: 0.0 }
            }
            FaultKind::Straggle(d) => {
                EvalEffect { value: self.inner.eval(x), extra_virtual_secs: d }
            }
            FaultKind::None => self.inner.eval_effect(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticFn;

    #[test]
    fn decisions_are_deterministic_and_attempt_dependent() {
        let plan = FaultPlan::uniform(9, 0.5);
        let h = point_hash(&[0.25, 0.5]);
        for attempt in 0..16 {
            assert_eq!(plan.decide(h, attempt), plan.decide(h, attempt));
        }
        // Across many attempts the decision must not be constant (else
        // retries could never succeed).
        let kinds: Vec<FaultKind> = (0..64).map(|a| plan.decide(h, a)).collect();
        assert!(kinds.contains(&FaultKind::None));
        assert!(kinds.iter().any(|k| *k != FaultKind::None));
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let plan = FaultPlan::none(3);
        let p = SyntheticFn::ackley(3);
        let w = FaultyProblem::new(&p, plan);
        for i in 0..50 {
            let x = vec![0.01 * i as f64; 3];
            let e = w.eval_effect(&x);
            assert_eq!(e.value, p.eval(&x));
            assert_eq!(e.extra_virtual_secs, 0.0);
        }
        assert_eq!(w.injection_log(), InjectionLog::default());
    }

    #[test]
    fn injection_rate_roughly_matches_plan() {
        let plan = FaultPlan::uniform(11, 0.2);
        let p = SyntheticFn::ackley(2);
        let w = FaultyProblem::new(&p, plan);
        let n = 2000;
        for i in 0..n {
            let x = vec![i as f64 * 1e-3, 0.5];
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.eval_effect(&x)));
        }
        let log = w.injection_log();
        let rate = log.total() as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.05, "observed fault rate {rate}");
        // Even split across kinds (loose bounds: n·p = 100 per kind).
        for c in [log.panics, log.nans, log.infs, log.straggles] {
            assert!((30..=170).contains(&(c as usize)), "kind count {c}");
        }
        assert!(log.straggle_secs > 0.0);
    }

    #[test]
    fn plain_eval_surface_stays_clean() {
        let plan = FaultPlan { p_panic: 0.0, ..FaultPlan::uniform(5, 1.0) };
        let p = SyntheticFn::rosenbrock(2);
        let w = FaultyProblem::new(&p, plan);
        let x = vec![0.3, 0.7];
        // eval() never faults; eval_effect() with an all-fault plan
        // always does (NaN/Inf/straggle here, p_panic zeroed).
        assert_eq!(w.eval(&x), p.eval(&x));
        assert!(w.plan().p_nan > 0.0);
    }

    #[test]
    fn attempts_advance_per_point() {
        // With a plan that faults on attempt parity for some point, two
        // successive eval_effect calls on the same x must see different
        // attempt indices — observable through the log totals.
        let plan = FaultPlan { p_nan: 1.0, ..FaultPlan::none(1) };
        let p = SyntheticFn::ackley(2);
        let w = FaultyProblem::new(&p, plan);
        let x = vec![0.1, 0.9];
        let _ = w.eval_effect(&x);
        let _ = w.eval_effect(&x);
        assert_eq!(w.injection_log().nans, 2);
        w.reset();
        assert_eq!(w.injection_log().nans, 0);
    }

    #[test]
    fn maximizer_inf_fault_is_pessimal() {
        let plan = FaultPlan { p_inf: 1.0, ..FaultPlan::none(2) };
        let p = crate::UphesProblem::maizeret(3);
        let w = FaultyProblem::new(&p, plan);
        let e = w.eval_effect(&[0.5; 12]);
        // Native maximization → −∞ profit, i.e. +∞ once minimized.
        assert_eq!(e.value, f64::NEG_INFINITY);
    }
}
