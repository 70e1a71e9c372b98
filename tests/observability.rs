//! Observability contract tests at the outermost API.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Reconciliation** — folding a run's event stream reproduces the
//!    aggregates of its [`RunRecord`] *exactly* (integer counts equal,
//!    f64 sums bit-equal), for every algorithm, clean and faulty.
//! 2. **Non-perturbation** — a run is bit-identical whether observed by
//!    nothing, by a collector, or by a JSONL trace writer.
//! 3. **Typed configuration errors** — the run entry point rejects
//!    invalid configurations with distinct [`ConfigError`] values
//!    instead of panicking.

use pbo::core::observe::jsonl::validate_line;
use pbo::prelude::*;
use std::sync::{Arc, Mutex};

fn six_algorithms() -> Vec<AlgorithmKind> {
    let mut v: Vec<AlgorithmKind> = AlgorithmKind::paper_set().to_vec();
    v.push(AlgorithmKind::RandomSearch);
    v
}

/// The budget every test here runs under unless a case overrides it.
fn test_budget() -> Budget {
    Budget::cycles(4, 2).with_initial_samples(10)
}

/// Run `kind` with seed 17.
fn run<'a>(
    kind: AlgorithmKind,
    p: &'a dyn Problem,
    budget: &Budget,
    algo: AlgoConfig,
    observer: impl Observer + Send + 'a,
) -> Result<RunRecord, ConfigError> {
    run_algorithm_observed(kind, p, budget, algo, 17, observer)
}

/// Fold an event stream into the aggregates a RunRecord reports, using
/// the same additions in the same order so f64 sums are bit-equal.
struct Folded {
    design_evaluated: usize,
    batch_evals: usize,
    n_cycles: usize,
    fit: f64,
    acq: f64,
    sim: f64,
    faults: FaultCounters,
    finished: Option<(usize, usize, f64, f64)>,
}

fn fold(events: &[Event]) -> Folded {
    let mut f = Folded {
        design_evaluated: 0,
        batch_evals: 0,
        n_cycles: 0,
        fit: 0.0,
        acq: 0.0,
        sim: 0.0,
        faults: FaultCounters::default(),
        finished: None,
    };
    for e in events {
        match e {
            Event::DesignEvaluated { evaluated, faults, .. } => {
                f.design_evaluated = *evaluated;
                // Mirrors RunRecord::fault_totals(): DoE tally first.
                f.faults = *faults;
            }
            Event::FitCompleted { virtual_s, .. } => f.fit += virtual_s,
            Event::AcquisitionCompleted { virtual_s, .. } => f.acq += virtual_s,
            Event::BatchEvaluated { n_evals, faults, virtual_s, .. } => {
                f.n_cycles += 1;
                f.batch_evals += n_evals;
                f.sim += virtual_s;
                f.faults.merge(faults);
            }
            Event::RunFinished { n_cycles, n_simulations, best_y_min, final_clock } => {
                f.finished = Some((*n_cycles, *n_simulations, *best_y_min, *final_clock));
            }
            _ => {}
        }
    }
    f
}

fn assert_reconciles(r: &RunRecord, events: &[Event], label: &str) {
    let f = fold(events);
    assert_eq!(f.n_cycles, r.n_cycles(), "{label}: cycle count");
    assert_eq!(f.design_evaluated + f.batch_evals, r.n_simulations(), "{label}: simulation count");
    let (fit, acq, sim) = r.time_split();
    assert_eq!(f.fit.to_bits(), fit.to_bits(), "{label}: fit time");
    assert_eq!(f.acq.to_bits(), acq.to_bits(), "{label}: acq time");
    assert_eq!(f.sim.to_bits(), sim.to_bits(), "{label}: sim time");
    let t = r.fault_totals();
    assert_eq!(f.faults.panics, t.panics, "{label}: panics");
    assert_eq!(f.faults.nan_quarantined, t.nan_quarantined, "{label}: nan");
    assert_eq!(f.faults.inf_quarantined, t.inf_quarantined, "{label}: inf");
    assert_eq!(f.faults.stragglers, t.stragglers, "{label}: stragglers");
    assert_eq!(f.faults.timeouts, t.timeouts, "{label}: timeouts");
    assert_eq!(f.faults.retries, t.retries, "{label}: retries");
    assert_eq!(f.faults.imputed, t.imputed, "{label}: imputed");
    assert_eq!(f.faults.dropped, t.dropped, "{label}: dropped");
    assert_eq!(
        f.faults.virtual_secs_lost.to_bits(),
        t.virtual_secs_lost.to_bits(),
        "{label}: virtual seconds lost"
    );
    let (nc, ns, best, clock) = f.finished.expect("run_finished present");
    assert_eq!(nc, r.n_cycles(), "{label}: finished cycles");
    assert_eq!(ns, r.n_simulations(), "{label}: finished sims");
    let best_min = if r.maximize { -r.best_y() } else { r.best_y() };
    assert_eq!(best.to_bits(), best_min.to_bits(), "{label}: finished best");
    assert_eq!(clock.to_bits(), r.final_clock.to_bits(), "{label}: finished clock");
}

#[test]
fn event_stream_reconciles_with_run_record_for_all_six_algorithms() {
    let p = SyntheticFn::ackley(4);
    for kind in six_algorithms() {
        let sink = Arc::new(Mutex::new(CollectingObserver::new()));
        let cfg = AlgoConfig::test_profile();
        let observed = run(kind, &p, &test_budget(), cfg.clone(), sink.clone()).unwrap();
        let plain = run(kind, &p, &test_budget(), cfg, NullObserver).unwrap();
        // The observer must not perturb the run in any way.
        let pa: Vec<u64> = plain.y_min.iter().map(|v| v.to_bits()).collect();
        let ob: Vec<u64> = observed.y_min.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pa, ob, "{}: observation changed the run", kind.name());
        let events = &sink.lock().unwrap().events;
        // Envelope: one run_started first, one run_finished last.
        assert_eq!(events.first().unwrap().name(), "run_started");
        assert_eq!(events.last().unwrap().name(), "run_finished");
        assert_reconciles(&observed, events, kind.name());
        // Every cycle announces itself; surrogate-based methods fit and
        // acquire once per cycle.
        let counts = |n: &str| events.iter().filter(|e| e.name() == n).count();
        assert_eq!(counts("cycle_started"), observed.n_cycles());
        assert_eq!(counts("batch_evaluated"), observed.n_cycles());
        if kind != AlgorithmKind::RandomSearch {
            assert_eq!(counts("fit_completed"), observed.n_cycles());
            assert_eq!(counts("acquisition_completed"), observed.n_cycles());
        } else {
            assert_eq!(counts("fit_completed"), 0);
            assert_eq!(counts("acquisition_completed"), 0);
        }
    }
}

#[test]
fn faulty_run_reconciles_and_reports_point_faults() {
    pbo::problems::fault::silence_injected_panics();
    let inner = SyntheticFn::ackley(4);
    let p = FaultyProblem::new(&inner, FaultPlan::uniform(23, 0.3));
    let cfg = AlgoConfig::test_profile();
    let sink = Arc::new(Mutex::new(CollectingObserver::new()));
    let r = run(AlgorithmKind::KbQEgo, &p, &test_budget(), cfg, sink.clone()).unwrap();
    let events = &sink.lock().unwrap().events;
    assert_reconciles(&r, events, "faulty kb-q-ego");
    // A 30% fault plan must surface per-point fault events, and each
    // must itself carry a non-trivial tally.
    assert!(r.fault_totals().any());
    let faulted: Vec<&Event> = events.iter().filter(|e| e.name() == "point_faulted").collect();
    assert!(!faulted.is_empty(), "expected point_faulted events");
    for e in &faulted {
        match e {
            Event::PointFaulted { attempts, faults, .. } => {
                assert!(*attempts >= 1);
                assert!(faults.any() || *attempts > 1);
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn jsonl_traced_run_is_bit_identical_and_every_line_parses() {
    let p = SyntheticFn::ackley(4);
    let dir = std::env::temp_dir().join("pbo_observability_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace_{}.jsonl", std::process::id()));

    let cfg = AlgoConfig::test_profile();
    let baseline =
        run(AlgorithmKind::MicQEgo, &p, &test_budget(), cfg.clone(), NullObserver).unwrap();
    let writer = JsonlTraceWriter::create(&path).unwrap();
    let traced = run(AlgorithmKind::MicQEgo, &p, &test_budget(), cfg, writer).unwrap();

    // Bit-identical results with and without the trace writer.
    let bits = |r: &RunRecord| {
        (
            r.y_min.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.cycles
                .iter()
                .map(|c| {
                    (
                        c.fit_time.to_bits(),
                        c.acq_time.to_bits(),
                        c.sim_time.to_bits(),
                        c.clock.to_bits(),
                    )
                })
                .collect::<Vec<_>>(),
            r.final_clock.to_bits(),
        )
    };
    assert_eq!(bits(&baseline), bits(&traced));

    // Every line is strict single-line JSON naming a known event, and
    // the trace's shape matches the record.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut batch_lines = 0;
    let mut total = 0;
    for line in text.lines() {
        let name = validate_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if name == "batch_evaluated" {
            batch_lines += 1;
        }
        total += 1;
    }
    assert_eq!(batch_lines, traced.n_cycles());
    // run_started + design_evaluated + per-cycle (cycle_started,
    // fit_completed, acquisition_completed, batch_evaluated) +
    // incumbent improvements + run_finished, so strictly more than the
    // first two groups.
    assert!(total > 2 + 4 * traced.n_cycles());
    std::fs::remove_file(&path).ok();
}

#[test]
fn builder_and_facade_reject_invalid_configs_with_typed_errors() {
    let p = SyntheticFn::ackley(3);

    // 1. Zero batch size.
    let mut budget = test_budget();
    budget.batch_size = 0;
    assert_eq!(
        run(AlgorithmKind::KbQEgo, &p, &budget, AlgoConfig::test_profile(), NullObserver)
            .unwrap_err(),
        ConfigError::ZeroBatchSize
    );

    // 2. Initial design too small to seed a surrogate.
    let mut budget = test_budget();
    budget.initial_samples = 1;
    assert_eq!(
        run(AlgorithmKind::Turbo, &p, &budget, AlgoConfig::test_profile(), NullObserver)
            .unwrap_err(),
        ConfigError::InitialSamplesTooSmall { got: 1 }
    );

    // 3. Shrinking retry backoff.
    let mut cfg = AlgoConfig::test_profile();
    cfg.ft.backoff_factor = 0.9;
    assert_eq!(
        run(AlgorithmKind::McQEgo, &p, &test_budget(), cfg, NullObserver).unwrap_err(),
        ConfigError::BackoffFactorTooSmall { got: 0.9 }
    );

    // Errors render as readable messages.
    let msg = ConfigError::ZeroBatchSize.to_string();
    assert!(!msg.is_empty());
    let dyn_err: Box<dyn std::error::Error> = Box::new(ConfigError::EmptyDesign);
    assert!(!dyn_err.to_string().is_empty());
}

#[test]
fn metrics_observer_aggregates_a_run() {
    let p = SyntheticFn::ackley(4);
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = MetricsObserver::new(registry.clone());
    let cfg = AlgoConfig::test_profile();
    let r = run(AlgorithmKind::Turbo, &p, &test_budget(), cfg, metrics).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.cycles"), r.n_cycles() as u64);
    assert_eq!(snap.counter("engine.evaluations"), r.n_simulations() as u64);
    let fits = snap.counter("fit.full") + snap.counter("fit.warm") + snap.counter("fit.fallbacks");
    assert_eq!(fits, r.n_cycles() as u64);
}
