//! Bring your own simulator: implement [`pbo::problems::Problem`] for a
//! custom black-box objective and optimize it with TuRBO.
//!
//! The example models a small "press shop" scheduling toy: allocate
//! production intensity over 6 shifts to maximize throughput minus
//! wear-induced maintenance, with a non-smooth penalty when consecutive
//! shifts both run hot — the kind of mildly nasty landscape BO handles
//! gracefully.
//!
//! ```text
//! cargo run --release --example custom_problem
//! ```

use pbo::prelude::*;

/// Allocate intensity `x_i ∈ [0, 1]` over 6 shifts.
struct PressShop {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl PressShop {
    fn new() -> Self {
        PressShop { lower: vec![0.0; 6], upper: vec![1.0; 6] }
    }
}

impl Problem for PressShop {
    fn name(&self) -> &str {
        "press-shop"
    }
    fn dim(&self) -> usize {
        6
    }
    fn lower(&self) -> &[f64] {
        &self.lower
    }
    fn upper(&self) -> &[f64] {
        &self.upper
    }
    fn maximize(&self) -> bool {
        true
    }
    fn eval(&self, x: &[f64]) -> f64 {
        // Diminishing-returns throughput per shift.
        let throughput: f64 = x.iter().map(|&v| 10.0 * v.sqrt()).sum();
        // Wear cost is convex in intensity.
        let wear: f64 = x.iter().map(|&v| 6.0 * v * v).sum();
        // Non-smooth overheat penalty on consecutive hot shifts.
        let overheat: f64 = x
            .windows(2)
            .map(|w| if w[0] > 0.7 && w[1] > 0.7 { 8.0 * (w[0] + w[1] - 1.4) } else { 0.0 })
            .sum();
        throughput - wear - overheat
    }
}

fn main() -> Result<(), ConfigError> {
    let problem = PressShop::new();
    // A shorter engagement than the paper's: 24 cycles of 2 candidates.
    let budget = Budget::cycles(24, 2).with_initial_samples(16);
    let cfg = AlgoConfig::default();
    let record =
        run_algorithm_observed(AlgorithmKind::Turbo, &problem, &budget, cfg, 11, NullObserver)?;

    println!("best profit found : {:.3}", record.best_y());
    println!(
        "best allocation   : {:?}",
        record.best_x.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    println!("simulations used  : {}", record.n_simulations());

    // Sanity reference: the unconstrained per-shift optimum of
    // 10√v − 6v² is at v ≈ 0.66 (below the overheat threshold), profit
    // ≈ 5.53/shift. TuRBO should land near 6 × 5.53 ≈ 33.2.
    println!("analytic ballpark : 33.2");
    Ok(())
}
