//! Observability: trace a seeded run to a JSONL file, validate and
//! reconcile the trace against the run record, and print the live
//! metrics a `MetricsObserver` aggregated along the way.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Exits non-zero if any trace line fails validation or the event
//! stream disagrees with the `RunRecord` — `scripts/ci.sh` runs this
//! binary as the trace smoke test.

use pbo::core::observe::jsonl::validate_line;
use pbo::prelude::*;
use std::sync::Arc;

fn main() {
    let problem = SyntheticFn::rosenbrock(6);
    let budget = Budget::cycles(8, 4);
    let cfg = AlgoConfig::test_profile();

    let path = std::env::temp_dir().join(format!("pbo_trace_{}.jsonl", std::process::id()));
    let trace = JsonlTraceWriter::create(&path).expect("create trace file");
    let registry = Arc::new(MetricsRegistry::new());
    let observer = FanoutObserver::new().with(trace).with(MetricsObserver::new(registry.clone()));

    println!("tracing mic-q-ego on {} to {}", problem.name(), path.display());
    let record =
        run_algorithm_observed(AlgorithmKind::MicQEgo, &problem, &budget, cfg, 42, observer)
            .expect("valid configuration");

    // Every line of the trace must be strict single-line JSON naming a
    // known event.
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let mut lines = 0usize;
    let mut batches = 0usize;
    let mut evals = 0usize;
    for line in text.lines() {
        let name = match validate_line(line) {
            Ok(name) => name,
            Err(e) => {
                eprintln!("invalid trace line: {e}\n  {line}");
                std::process::exit(1);
            }
        };
        lines += 1;
        match name.as_str() {
            "batch_evaluated" => batches += 1,
            "design_evaluated" | "run_finished" => evals += 1,
            _ => {}
        }
    }
    println!("trace: {lines} lines, all valid");

    // The trace must reconcile with the record: one batch_evaluated per
    // cycle, and exactly one design_evaluated + one run_finished.
    if batches != record.n_cycles() || evals != 2 {
        eprintln!(
            "trace does not reconcile: {batches} batch lines vs {} cycles",
            record.n_cycles()
        );
        std::process::exit(1);
    }
    println!(
        "reconciled: {} cycles, {} simulations, best {:.4}",
        record.n_cycles(),
        record.n_simulations(),
        record.best_y()
    );

    // The metrics registry aggregated the same run, lock-free.
    let snap = registry.snapshot();
    println!("metrics:");
    for (name, v) in &snap.counters {
        println!("  counter   {name:<32} {v}");
    }
    for (name, v) in &snap.gauges {
        println!("  gauge     {name:<32} {v:.4}");
    }
    for (name, count, sum, _) in &snap.histograms {
        println!("  histogram {name:<32} n={count} sum={sum:.2}s");
    }
    if snap.counter("engine.cycles") != record.n_cycles() as u64 {
        eprintln!("metrics do not reconcile with the run record");
        std::process::exit(1);
    }

    std::fs::remove_file(&path).ok();
    println!("ok");
}
