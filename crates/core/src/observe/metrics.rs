//! Lock-free metrics: counters, gauges and histograms behind a
//! [`MetricsRegistry`], plus [`MetricsObserver`] — the adapter that
//! folds engine [`Event`]s into the registry.
//!
//! Hot-path updates (`inc`/`add`/`set`/`record`) are single atomic
//! operations (a short CAS loop for float accumulation) — no locks, no
//! allocation — so instruments can be bumped from instrumented code at
//! hardware speed. Registration and snapshotting are cold paths and
//! take the registry's interior lock; handles returned by the registry
//! are `Arc`s that never touch it again.

use super::{Event, Observer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-value gauge (an `f64` stored as its bit pattern).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(f64::NAN.to_bits()) }
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (NaN until first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram of `f64` samples. Bucket `i` counts samples
/// `<= bounds[i]`; one implicit overflow bucket counts the rest.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Build with the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.into(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Record one sample (lock-free; the float sum is a CAS loop).
    pub fn record(&self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Point-in-time copy `(bounds, per-bucket counts incl. overflow)`.
    pub fn snapshot(&self) -> (Vec<f64>, Vec<u64>) {
        (self.bounds.to_vec(), self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect())
    }
}

/// Name-keyed instrument registry. Get-or-register returns shared
/// handles whose updates never lock; `snapshot()` reads everything in
/// deterministic (sorted-name) order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Point-in-time view of a whole registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, count, sum, bucket counts)` for every histogram.
    pub histograms: Vec<(String, u64, f64, Vec<u64>)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or register a counter (cold path: locks the name table).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register a histogram. `bounds` applies only on first
    /// registration.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new(bounds))).clone()
    }

    /// Deterministically ordered copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.count(), v.sum(), v.snapshot().1))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Default per-phase virtual-time bucket bounds \[s\]: log-ish spacing
/// from sub-second fits to multi-minute simulation phases.
pub const PHASE_SECONDS_BOUNDS: [f64; 8] = [0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0];

/// Observer adapter folding engine events into a [`MetricsRegistry`].
///
/// Instrument names are stable API: counters `engine.evaluations`,
/// `engine.cycles`, `engine.incumbent_improvements`, `fit.full`,
/// `fit.warm`, `fit.fallbacks`, `acq.restart_shortfall`,
/// `exec.retries`, `exec.panics`, `exec.nan_quarantined`,
/// `exec.inf_quarantined`, `exec.stragglers`, `exec.timeouts`,
/// `exec.imputed`, `exec.dropped`; gauges `engine.best_y_min`,
/// `engine.clock_s`; histograms `time.fit_virtual_s`,
/// `time.acq_virtual_s`, `time.sim_virtual_s`.
pub struct MetricsObserver {
    registry: Arc<MetricsRegistry>,
    evaluations: Arc<Counter>,
    cycles: Arc<Counter>,
    improvements: Arc<Counter>,
    fit_full: Arc<Counter>,
    fit_warm: Arc<Counter>,
    fit_fallbacks: Arc<Counter>,
    restart_shortfall: Arc<Counter>,
    retries: Arc<Counter>,
    panics: Arc<Counter>,
    nan_quarantined: Arc<Counter>,
    inf_quarantined: Arc<Counter>,
    stragglers: Arc<Counter>,
    timeouts: Arc<Counter>,
    imputed: Arc<Counter>,
    dropped: Arc<Counter>,
    best_y_min: Arc<Gauge>,
    clock_s: Arc<Gauge>,
    fit_s: Arc<Histogram>,
    acq_s: Arc<Histogram>,
    sim_s: Arc<Histogram>,
}

impl MetricsObserver {
    /// Pre-register every instrument against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let r = &registry;
        MetricsObserver {
            evaluations: r.counter("engine.evaluations"),
            cycles: r.counter("engine.cycles"),
            improvements: r.counter("engine.incumbent_improvements"),
            fit_full: r.counter("fit.full"),
            fit_warm: r.counter("fit.warm"),
            fit_fallbacks: r.counter("fit.fallbacks"),
            restart_shortfall: r.counter("acq.restart_shortfall"),
            retries: r.counter("exec.retries"),
            panics: r.counter("exec.panics"),
            nan_quarantined: r.counter("exec.nan_quarantined"),
            inf_quarantined: r.counter("exec.inf_quarantined"),
            stragglers: r.counter("exec.stragglers"),
            timeouts: r.counter("exec.timeouts"),
            imputed: r.counter("exec.imputed"),
            dropped: r.counter("exec.dropped"),
            best_y_min: r.gauge("engine.best_y_min"),
            clock_s: r.gauge("engine.clock_s"),
            fit_s: r.histogram("time.fit_virtual_s", &PHASE_SECONDS_BOUNDS),
            acq_s: r.histogram("time.acq_virtual_s", &PHASE_SECONDS_BOUNDS),
            sim_s: r.histogram("time.sim_virtual_s", &PHASE_SECONDS_BOUNDS),
            registry,
        }
    }

    /// The backing registry (snapshot it after — or during — a run).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn fold_faults(&self, f: &crate::record::FaultCounters) {
        self.retries.add(f.retries);
        self.panics.add(f.panics);
        self.nan_quarantined.add(f.nan_quarantined);
        self.inf_quarantined.add(f.inf_quarantined);
        self.stragglers.add(f.stragglers);
        self.timeouts.add(f.timeouts);
        self.imputed.add(f.imputed);
        self.dropped.add(f.dropped);
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::RunStarted { .. } => {}
            Event::DesignEvaluated { evaluated, faults, .. } => {
                self.evaluations.add(*evaluated as u64);
                self.fold_faults(faults);
            }
            Event::CycleStarted { cycle, clock } => {
                let _ = cycle;
                self.clock_s.set(*clock);
            }
            Event::FitCompleted { full, fallback, virtual_s, .. } => {
                if *fallback {
                    self.fit_fallbacks.inc();
                } else if *full {
                    self.fit_full.inc();
                } else {
                    self.fit_warm.inc();
                }
                self.fit_s.record(*virtual_s);
            }
            Event::AcquisitionCompleted { restart_shortfall, virtual_s, .. } => {
                self.restart_shortfall.add(*restart_shortfall as u64);
                self.acq_s.record(*virtual_s);
            }
            // Per-point faults are already aggregated into the
            // BatchEvaluated/DesignEvaluated counters; count nothing
            // here to keep the totals reconcilable.
            Event::PointFaulted { .. } => {}
            Event::BatchEvaluated { n_evals, faults, virtual_s, .. } => {
                self.cycles.inc();
                self.evaluations.add(*n_evals as u64);
                self.fold_faults(faults);
                self.sim_s.record(*virtual_s);
            }
            Event::IncumbentImproved { best_y_min, .. } => {
                self.improvements.inc();
                self.best_y_min.set(*best_y_min);
            }
            Event::RunFinished { best_y_min, final_clock, .. } => {
                self.best_y_min.set(*best_y_min);
                self.clock_s.set(*final_clock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FaultCounters;

    #[test]
    fn counter_gauge_histogram_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        assert!(g.get().is_nan());
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);

        let h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 55.5);
        assert_eq!(h.snapshot().1, vec![1, 1, 1]);
    }

    #[test]
    fn hot_path_is_safe_under_contention() {
        let h = Arc::new(Histogram::new(&PHASE_SECONDS_BOUNDS));
        let c = Arc::new(Counter::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 * 0.01);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().1.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn registry_returns_shared_handles_and_sorted_snapshot() {
        let r = MetricsRegistry::new();
        let a = r.counter("z.second");
        let b = r.counter("z.second");
        a.inc();
        b.inc();
        r.counter("a.first").add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.first".into(), 7), ("z.second".into(), 2)]);
        assert_eq!(snap.counter("z.second"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn metrics_observer_folds_events() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut obs = MetricsObserver::new(reg.clone());
        obs.on_event(&Event::DesignEvaluated {
            requested: 8,
            evaluated: 7,
            faults: FaultCounters { dropped: 1, retries: 2, ..FaultCounters::default() },
        });
        obs.on_event(&Event::FitCompleted {
            cycle: 0,
            n: 7,
            full: true,
            restarts: 2,
            evals: 40,
            mll: -3.0,
            fallback: false,
            wall_ns: 10,
            virtual_s: 1.0,
        });
        obs.on_event(&Event::AcquisitionCompleted {
            cycle: 0,
            algo: "turbo".into(),
            q: 2,
            restart_shortfall: 3,
            wall_ns: 10,
            virtual_s: 0.5,
        });
        obs.on_event(&Event::BatchEvaluated {
            cycle: 0,
            n_points: 2,
            n_evals: 2,
            faults: FaultCounters::default(),
            virtual_s: 10.6,
        });
        obs.on_event(&Event::IncumbentImproved { cycle: 0, best_y_min: -1.0 });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.evaluations"), 9);
        assert_eq!(snap.counter("engine.cycles"), 1);
        assert_eq!(snap.counter("fit.full"), 1);
        assert_eq!(snap.counter("acq.restart_shortfall"), 3);
        assert_eq!(snap.counter("exec.retries"), 2);
        assert_eq!(snap.counter("exec.dropped"), 1);
        assert_eq!(snap.counter("engine.incumbent_improvements"), 1);
        let g = snap.gauges.iter().find(|(n, _)| n == "engine.best_y_min").unwrap().1;
        assert_eq!(g, -1.0);
    }
}
