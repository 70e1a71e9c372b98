//! Structured observability for the optimization engine.
//!
//! The paper's whole evaluation hinges on *where virtual time goes* —
//! fitting vs. acquisition vs. simulation under the 20-minute budget —
//! yet that split used to be recoverable only post-hoc from
//! [`crate::record::RunRecord`]. This module adds live, typed
//! visibility with a strict zero-cost-when-disabled contract:
//!
//! - [`Observer`] is the sink trait; the engine holds at most one
//!   (installed through `Engine::builder(..).observer(..)`) and emits
//!   [`Event`]s at the phase boundaries of every cycle. When no
//!   observer is installed — or [`Observer::enabled`] returns `false`,
//!   as for [`NullObserver`] — events are **never constructed**: every
//!   emit site builds its event inside a closure that is only invoked
//!   for an enabled sink.
//! - Events are emitted *outside* the virtual clock's `charge(..)`
//!   closures, so observer wall-time is never charged to the virtual
//!   clock and the recorded time split is bit-identical with and
//!   without observation (the determinism suite pins this).
//! - Per-phase `virtual_s` payloads are computed with exactly the same
//!   clock-split subtractions as the [`crate::record::CycleRecord`]
//!   fields, so folding a run's events reproduces
//!   `RunRecord::time_split()` *bit-exactly*, not just approximately.
//!
//! Shipped sinks: [`NullObserver`] (disabled), [`CollectingObserver`]
//! (in-memory, for tests), [`FanoutObserver`] (tee),
//! [`jsonl::JsonlTraceWriter`] (replayable one-event-per-line trace)
//! and [`metrics::MetricsObserver`] (lock-free counters/gauges/
//! histograms in a [`metrics::MetricsRegistry`]).

pub mod jsonl;
pub mod metrics;

use crate::record::FaultCounters;

/// One structured engine event. Every variant carries enough context to
/// be folded back into the aggregates of a [`crate::record::RunRecord`]
/// (the reconciliation test in `tests/observability.rs` holds the fold
/// to exact agreement).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Emitted once, before the initial design is evaluated.
    RunStarted {
        /// Algorithm display name.
        algorithm: String,
        /// Problem display name.
        problem: String,
        /// Run seed.
        seed: u64,
        /// Batch size q.
        q: usize,
        /// Problem dimension.
        dim: usize,
    },
    /// Emitted once, after the (untimed) initial design is evaluated.
    DesignEvaluated {
        /// Points requested from the Latin-hypercube design.
        requested: usize,
        /// Points that survived evaluation (failed ones are dropped).
        evaluated: usize,
        /// Faults absorbed while evaluating the design.
        faults: FaultCounters,
    },
    /// A cycle began (before any fitting work).
    CycleStarted {
        /// 0-based cycle index.
        cycle: usize,
        /// Virtual clock reading at cycle start \[s\].
        clock: f64,
    },
    /// The surrogate was (re)fitted for this cycle.
    FitCompleted {
        /// 0-based cycle index.
        cycle: usize,
        /// Dataset size the model was fitted on.
        n: usize,
        /// Whether this was a full multistart fit (vs. a warm refit).
        full: bool,
        /// Multistart fit starts actually run.
        restarts: usize,
        /// Objective (MLL) evaluations spent.
        evals: usize,
        /// Best log marginal likelihood reached (NaN when the fit fell
        /// back to the default-kernel model).
        mll: f64,
        /// Whether the fit failed and the engine fell back to a
        /// default-kernel GP (the Cholesky-fallback path).
        fallback: bool,
        /// Host wall time of the fit \[ns\] (never charged virtually).
        wall_ns: u64,
        /// Virtual seconds charged to the fit phase — bit-identical to
        /// this cycle's `CycleRecord::fit_time`.
        virtual_s: f64,
    },
    /// The acquisition process finished building this cycle's batch.
    AcquisitionCompleted {
        /// 0-based cycle index.
        cycle: usize,
        /// Algorithm display name.
        algo: String,
        /// Batch size q.
        q: usize,
        /// Multistart restarts lost to non-finite objective values,
        /// summed over the cycle's inner optimizations.
        restart_shortfall: usize,
        /// Host wall time \[ns\] (never charged virtually).
        wall_ns: u64,
        /// Virtual seconds charged to the acquisition phase —
        /// bit-identical to this cycle's `CycleRecord::acq_time`.
        virtual_s: f64,
    },
    /// One batch element absorbed faults (retries, quarantines,
    /// stragglers, …) in the fault-tolerant executor. Emitted in input
    /// order after the batch completes, so observers need not be
    /// thread-safe and the event stream stays deterministic.
    PointFaulted {
        /// Index of the point within its batch.
        index: usize,
        /// Attempts performed (≥ 1).
        attempts: u32,
        /// Whether a finite value was eventually obtained.
        recovered: bool,
        /// Faults this point absorbed.
        faults: FaultCounters,
    },
    /// A batch was evaluated and committed; closes the cycle.
    BatchEvaluated {
        /// 0-based cycle index.
        cycle: usize,
        /// Points submitted to the executor.
        n_points: usize,
        /// Points that entered the dataset (imputed points included).
        n_evals: usize,
        /// Faults absorbed by this batch (imputations/drops included).
        faults: FaultCounters,
        /// Virtual seconds charged to the simulation phase —
        /// bit-identical to this cycle's `CycleRecord::sim_time`.
        virtual_s: f64,
    },
    /// The incumbent improved after committing a batch.
    IncumbentImproved {
        /// 0-based cycle index.
        cycle: usize,
        /// New best minimized objective value.
        best_y_min: f64,
    },
    /// The run finished; totals for reconciliation.
    RunFinished {
        /// Optimization cycles completed.
        n_cycles: usize,
        /// Total simulations in the dataset (DoE included).
        n_simulations: usize,
        /// Best minimized objective value.
        best_y_min: f64,
        /// Final virtual clock \[s\].
        final_clock: f64,
    },
}

impl Event {
    /// Stable variant name (the `event` field of the JSONL encoding).
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "run_started",
            Event::DesignEvaluated { .. } => "design_evaluated",
            Event::CycleStarted { .. } => "cycle_started",
            Event::FitCompleted { .. } => "fit_completed",
            Event::AcquisitionCompleted { .. } => "acquisition_completed",
            Event::PointFaulted { .. } => "point_faulted",
            Event::BatchEvaluated { .. } => "batch_evaluated",
            Event::IncumbentImproved { .. } => "incumbent_improved",
            Event::RunFinished { .. } => "run_finished",
        }
    }
}

/// A sink for engine events.
///
/// Observers run on the engine's thread, strictly outside virtual-clock
/// charging, and see events in a deterministic order for a given seed.
/// They take `&mut self`, so sinks can buffer or write without interior
/// mutability; share one sink across call sites with
/// `Arc<Mutex<impl Observer>>` (blanket-implemented below).
pub trait Observer {
    /// Whether this sink wants events at all. Emit sites check this
    /// *before constructing the event*, so a disabled sink costs one
    /// virtual call per site and no allocation — the
    /// zero-cost-when-disabled contract.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn on_event(&mut self, event: &Event);
}

/// The default sink: observes nothing, costs nothing. Installing it is
/// equivalent to installing no observer at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&mut self, _event: &Event) {}
}

/// In-memory sink: records every event in order. Intended for tests
/// and small diagnostic runs.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// Events in emission order.
    pub events: Vec<Event>,
}

impl CollectingObserver {
    /// Fresh, empty collector.
    pub fn new() -> Self {
        CollectingObserver::default()
    }

    /// Count events with the given variant name.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name() == name).count()
    }
}

impl Observer for CollectingObserver {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Shared-sink adapter: lets a test hand the engine one handle and keep
/// another for inspection after the run.
impl<O: Observer> Observer for std::sync::Arc<std::sync::Mutex<O>> {
    fn enabled(&self) -> bool {
        self.lock().expect("observer mutex poisoned").enabled()
    }

    fn on_event(&mut self, event: &Event) {
        self.lock().expect("observer mutex poisoned").on_event(event);
    }
}

/// Tee sink: forwards each event to every enabled child (e.g. a JSONL
/// trace and a metrics registry in the same run).
#[derive(Default)]
pub struct FanoutObserver<'a> {
    sinks: Vec<Box<dyn Observer + Send + 'a>>,
}

impl<'a> FanoutObserver<'a> {
    /// Empty fanout (disabled until a sink is added).
    pub fn new() -> Self {
        FanoutObserver { sinks: Vec::new() }
    }

    /// Add a sink; builder-style. Sinks are `Send` so a fanout-observed
    /// engine can live inside a detached session moved across threads.
    pub fn with(mut self, sink: impl Observer + Send + 'a) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl Observer for FanoutObserver<'_> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn on_event(&mut self, event: &Event) {
        for s in &mut self.sinks {
            if s.enabled() {
                s.on_event(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
    }

    #[test]
    fn collecting_observer_records_in_order() {
        let mut c = CollectingObserver::new();
        c.on_event(&Event::CycleStarted { cycle: 0, clock: 0.0 });
        c.on_event(&Event::IncumbentImproved { cycle: 0, best_y_min: 1.0 });
        assert_eq!(c.events.len(), 2);
        assert_eq!(c.events[0].name(), "cycle_started");
        assert_eq!(c.count("incumbent_improved"), 1);
    }

    #[test]
    fn fanout_forwards_to_enabled_sinks_only() {
        let shared = std::sync::Arc::new(std::sync::Mutex::new(CollectingObserver::new()));
        let mut tee = FanoutObserver::new().with(NullObserver).with(shared.clone());
        assert!(tee.enabled());
        tee.on_event(&Event::CycleStarted { cycle: 3, clock: 1.5 });
        assert_eq!(shared.lock().unwrap().events.len(), 1);
        let empty = FanoutObserver::new().with(NullObserver);
        assert!(!empty.enabled());
    }

    #[test]
    fn event_names_are_stable() {
        let e =
            Event::RunFinished { n_cycles: 0, n_simulations: 0, best_y_min: 0.0, final_clock: 0.0 };
        assert_eq!(e.name(), "run_finished");
    }
}
