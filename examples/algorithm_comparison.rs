//! Head-to-head comparison of the five batch-acquisition algorithms on
//! one benchmark function — a miniature of the paper's Tables 4–6 with
//! the scalability readout of Fig. 9.
//!
//! ```text
//! cargo run --release --example algorithm_comparison [q]
//! ```

use pbo::prelude::*;

fn main() -> Result<(), ConfigError> {
    let q: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let problem = SyntheticFn::schwefel(12);
    let budget = Budget::paper(q);
    let cfg = AlgoConfig::default();

    println!("Schwefel-12d, 20 virtual minutes, q = {q}");
    println!(
        "{:<12} {:>10} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "algorithm", "best", "cycles", "sims", "fit[s]", "acq[s]", "sim[s]"
    );
    for kind in AlgorithmKind::paper_set() {
        let r = run_algorithm_observed(kind, &problem, &budget, cfg.clone(), 2024, NullObserver)?;
        let (fit, acq, sim) = r.time_split();
        println!(
            "{:<12} {:>10.1} {:>8} {:>8} | {:>8.0} {:>8.0} {:>8.0}",
            kind.name(),
            r.best_y(),
            r.n_cycles(),
            r.n_simulations(),
            fit,
            acq,
            sim
        );
    }
    // The weak baseline for perspective.
    let random = AlgorithmKind::RandomSearch;
    let r = run_algorithm_observed(random, &problem, &budget, cfg, 2024, NullObserver)?;
    println!(
        "{:<12} {:>10.1} {:>8} {:>8} | {:>8} {:>8} {:>8.0}",
        "random",
        r.best_y(),
        r.n_cycles(),
        r.n_simulations(),
        "-",
        "-",
        r.time_split().2
    );
    Ok(())
}
