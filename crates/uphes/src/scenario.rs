//! Uncertainty scenarios: price noise, water inflows, groundwater bias
//! and reserve activations.
//!
//! The expected profit is a scenario average with **common random
//! numbers**: a [`ScenarioSet`] is generated once per simulator instance
//! from a seed, so the objective is a deterministic function of the
//! decision vector — the same construction that lets the paper rerun
//! all five optimizers against identical market days.

use crate::market::{DayAheadMarket, ReserveMarket};
use crate::STEPS;
use pbo_sampling::{normal, SeedStream};
use rand::Rng;

/// One realisation of the uncertain market/hydrology day.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Quarter-hourly energy prices \[EUR/MWh\].
    pub prices: Vec<f64>,
    /// Natural inflow into the upper basin \[m³/s\] (rain/rivulet).
    pub inflow_upper: f64,
    /// Shift of the surrounding water-table elevation \[m\].
    pub groundwater_bias: f64,
    /// Per-quarter reserve activation fraction in `[0, 1]` (0 = no
    /// event). The plant must deliver `fraction × offer` extra MW.
    pub activations: Vec<f64>,
}

/// A fixed set of scenarios (common random numbers).
#[derive(Debug, Clone)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Generate `n` scenarios from a master seed. Price noise is a
    /// mean-reverting (AR(1)) multiplicative log process with ~12%
    /// stationary deviation; activations are Bernoulli events with a
    /// uniform activation depth.
    pub fn generate(n: usize, market: &DayAheadMarket, reserve: &ReserveMarket, seed: u64) -> Self {
        let root = SeedStream::new(seed);
        let scenarios = (0..n)
            .map(|s| {
                let mut stream = root.fork(s as u64 + 1);
                let mut rng = stream.rng();
                let phi: f64 = 0.85;
                let sigma = 0.12 * (1.0 - phi * phi).sqrt();
                let mut e = 0.12 * normal::sample(&mut rng);
                let prices: Vec<f64> = (0..STEPS)
                    .map(|t| {
                        e = phi * e + sigma * normal::sample(&mut rng);
                        (market.price(t) * e.exp()).max(1.0)
                    })
                    .collect();
                let activations: Vec<f64> = (0..STEPS)
                    .map(|_| {
                        if rng.gen::<f64>() < reserve.activation_prob {
                            rng.gen_range(0.3..1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Scenario {
                    prices,
                    inflow_upper: rng.gen_range(0.0..0.12),
                    groundwater_bias: 2.5 * normal::sample(&mut rng),
                    activations,
                }
            })
            .collect();
        ScenarioSet { scenarios }
    }

    /// The scenarios.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when empty (never, for a generated set with `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, seed: u64) -> ScenarioSet {
        ScenarioSet::generate(n, &DayAheadMarket::default(), &ReserveMarket::default(), seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = set(4, 9);
        let b = set(4, 9);
        for (sa, sb) in a.iter().zip(b.iter()) {
            assert_eq!(sa.prices, sb.prices);
            assert_eq!(sa.activations, sb.activations);
        }
        let c = set(4, 10);
        assert_ne!(a.iter().next().unwrap().prices, c.iter().next().unwrap().prices);
    }

    #[test]
    fn prices_stay_positive_and_near_base() {
        let s = set(16, 3);
        let market = DayAheadMarket::default();
        for sc in s.iter() {
            for (t, p) in sc.prices.iter().enumerate() {
                assert!(*p > 0.0);
                assert!(*p < 4.0 * market.price(t) + 50.0, "step {t}: {p}");
            }
        }
    }

    #[test]
    fn activation_frequency_matches_probability() {
        let s = set(64, 5);
        let total: usize =
            s.iter().map(|sc| sc.activations.iter().filter(|a| **a > 0.0).count()).sum();
        let rate = total as f64 / (64.0 * STEPS as f64);
        assert!((rate - 0.06).abs() < 0.015, "rate {rate}");
    }

    #[test]
    fn activation_depths_in_range() {
        let s = set(8, 6);
        for sc in s.iter() {
            for &a in &sc.activations {
                assert!(a == 0.0 || (0.3..1.0).contains(&a));
            }
        }
    }
}
