//! The breaking-point experiment in miniature (Figs. 2 and 9): sweep
//! the batch size and watch cycles, simulations and final quality.
//!
//! ```text
//! cargo run --release --example scalability_study [algorithm]
//! ```
//! `algorithm` ∈ {kb-q-ego, mic-q-ego, mc-q-ego, bsp-ego, turbo};
//! default kb-q-ego.

use pbo::prelude::*;

fn main() -> Result<(), ConfigError> {
    let kind = std::env::args()
        .nth(1)
        .and_then(|s| AlgorithmKind::from_name(&s))
        .unwrap_or(AlgorithmKind::KbQEgo);
    let problem = SyntheticFn::ackley(12);

    println!("{} on Ackley-12d, 20 virtual minutes per run", kind.name());
    println!(
        "{:>4} {:>8} {:>8} {:>10} | {:>10} {:>10}",
        "q", "cycles", "sims", "best", "fit+acq[s]", "per-cycle"
    );
    let mut prev_sims = 0usize;
    for q in [1usize, 2, 4, 8, 16] {
        let budget = Budget::paper(q);
        let cfg = AlgoConfig::default();
        let r = run_algorithm_observed(kind, &problem, &budget, cfg, 777, NullObserver)?;
        let (fit, acq, _) = r.time_split();
        let overhead = fit + acq;
        println!(
            "{:>4} {:>8} {:>8} {:>10.3} | {:>10.0} {:>10.1}",
            q,
            r.n_cycles(),
            r.n_simulations(),
            r.best_y(),
            overhead,
            overhead / r.n_cycles().max(1) as f64
        );
        // The breaking point: beyond it, doubling the workers stops
        // buying simulations.
        if q > 1 && r.n_simulations() < prev_sims {
            println!("     ^ breaking point: more workers, fewer simulations");
        }
        prev_sims = r.n_simulations();
    }
    Ok(())
}
