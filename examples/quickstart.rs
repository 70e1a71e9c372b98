//! Quickstart: optimize a benchmark function with one of the paper's
//! parallel BO algorithms and inspect the run record.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pbo::prelude::*;

fn main() -> Result<(), ConfigError> {
    // The 12-d Ackley instance of the paper (Table 1).
    let problem = SyntheticFn::ackley(12);

    // Paper protocol: 20 virtual minutes, 10 s per simulation, batch of
    // 4 candidates per cycle, initial design of 16 × 4 points.
    let budget = Budget::paper(4);

    println!(
        "optimizing {} over [{}, {}]^{} with KB-q-EGO (q = 4)…",
        problem.name(),
        problem.lower()[0],
        problem.upper()[0],
        problem.dim()
    );

    let cfg = AlgoConfig::default();
    let record =
        run_algorithm_observed(AlgorithmKind::KbQEgo, &problem, &budget, cfg, 42, NullObserver)?;

    let (fit, acq, sim) = record.time_split();
    println!("cycles completed        : {}", record.n_cycles());
    println!("simulations (DoE incl.) : {}", record.n_simulations());
    println!("best objective value    : {:.4}", record.best_y());
    println!(
        "virtual time split      : fit {fit:.0} s | acquisition {acq:.0} s | simulation {sim:.0} s"
    );

    // The best-so-far trace is what the paper's Figs. 3–7 plot.
    let trace = record.best_trace();
    for checkpoint in [0, trace.len() / 4, trace.len() / 2, trace.len() - 1] {
        println!("best after {:>4} evaluations: {:.4}", checkpoint + 1, trace[checkpoint]);
    }
    Ok(())
}
