//! The paper's headline application: schedule an Underground Pumped
//! Hydro-Energy Storage plant for the day-ahead energy and reserve
//! markets within the operator's time window.
//!
//! Runs mic-q-EGO (the paper's best method on this problem, q = 4)
//! against the Maizeret-like simulator, then decodes and prints the
//! recommended schedule with its profit breakdown.
//!
//! ```text
//! cargo run --release --example uphes_scheduling
//! ```

use pbo::prelude::*;
use pbo::uphes::schedule::Schedule;

fn main() -> Result<(), ConfigError> {
    let problem = UphesProblem::maizeret(20_220_530);

    // The operator's window: 20 minutes of optimization, 10 s per
    // profit simulation, 4 parallel workers (the paper's sweet spot).
    let budget = Budget::paper(4);
    let record = run_algorithm_observed(
        AlgorithmKind::MicQEgo,
        &problem,
        &budget,
        AlgoConfig::default(),
        7,
        NullObserver,
    )?;

    println!("=== mic-q-EGO, q = 4, 20 virtual minutes ===");
    println!("cycles      : {}", record.n_cycles());
    println!("simulations : {}", record.n_simulations());
    println!("best profit : {:.0} EUR", record.best_y());

    let best = record.best_x.clone();
    let schedule = Schedule::decode(&best);
    println!("\nrecommended schedule:");
    for (b, p) in schedule.block_power.iter().enumerate() {
        let (h0, h1) = (b * 3, b * 3 + 3);
        let mode = if *p > 0.0 {
            format!("turbine {p:.1} MW")
        } else if *p < 0.0 {
            format!("pump    {:.1} MW", -p)
        } else {
            "idle".to_string()
        };
        println!("  {h0:02}:00–{h1:02}:00  {mode}");
    }
    for (b, r) in schedule.reserve.iter().enumerate() {
        let (h0, h1) = (b * 6, b * 6 + 6);
        println!("  reserve {h0:02}:00–{h1:02}:00  {r:.2} MW offered");
    }

    let breakdown = problem.simulator().evaluate_detailed(&best);
    println!("\nprofit breakdown (scenario average):");
    println!("  energy revenue  : {:>8.0} EUR", breakdown.energy_revenue);
    println!("  pumping cost    : {:>8.0} EUR", -breakdown.pumping_cost);
    println!("  reserve revenue : {:>8.0} EUR", breakdown.reserve_revenue);
    println!("  penalties       : {:>8.0} EUR", -breakdown.penalties);
    println!("  water value     : {:>8.0} EUR", breakdown.water_value);
    println!("  net profit      : {:>8.0} EUR", breakdown.profit);
    println!("  infeasible quarters/scenario: {:.2}", breakdown.infeasible_steps);
    Ok(())
}
