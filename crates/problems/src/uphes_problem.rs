//! The UPHES scheduling problem as a [`Problem`].

use crate::Problem;
use pbo_uphes::{Simulator, DECISION_DIM};

/// Maximize the expected daily profit of the UPHES plant over the
/// 12-dimensional unit-cube decision space.
#[derive(Debug, Clone)]
pub struct UphesProblem {
    simulator: Simulator,
    lower: Vec<f64>,
    upper: Vec<f64>,
    name: String,
}

impl UphesProblem {
    /// Wrap an existing simulator.
    pub fn new(simulator: Simulator) -> Self {
        UphesProblem {
            simulator,
            lower: vec![0.0; DECISION_DIM],
            upper: vec![1.0; DECISION_DIM],
            name: "uphes-maizeret".to_string(),
        }
    }

    /// Default Maizeret-like instance; `seed` fixes the scenario set
    /// (the paper's "market day").
    pub fn maizeret(seed: u64) -> Self {
        Self::new(Simulator::maizeret(seed))
    }

    /// Access to the underlying simulator (for detailed breakdowns).
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }
}

impl Problem for UphesProblem {
    fn name(&self) -> &str {
        &self.name
    }
    fn dim(&self) -> usize {
        DECISION_DIM
    }
    fn lower(&self) -> &[f64] {
        &self.lower
    }
    fn upper(&self) -> &[f64] {
        &self.upper
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.simulator.expected_profit(x)
    }
    fn maximize(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_simulator_consistently() {
        let p = UphesProblem::maizeret(5);
        let x = vec![0.45; DECISION_DIM];
        assert_eq!(p.eval(&x), p.simulator().expected_profit(&x));
        assert!(p.maximize());
        assert_eq!(p.dim(), 12);
        assert!(p.lower().iter().all(|&v| v == 0.0));
        assert!(p.upper().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn different_seeds_give_different_days() {
        let a = UphesProblem::maizeret(1);
        let b = UphesProblem::maizeret(2);
        let x = vec![0.3; DECISION_DIM];
        assert_ne!(a.eval(&x), b.eval(&x));
    }
}
