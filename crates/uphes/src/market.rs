//! Energy and reserve market models.
//!
//! The plant participates in two market floors (paper §2.1): the
//! day-ahead **energy market** (8 three-hour blocks, power bought when
//! pumping / sold when generating at the quarter-hourly price) and the
//! **reserve market** (4 six-hour blocks, capacity payments for holding
//! upward-regulation headroom, with penalties when an activation cannot
//! be served).

use crate::{STEPS, STEP_HOURS};

/// Day-ahead energy market: a deterministic daily price shape that the
/// scenario generator perturbs multiplicatively.
#[derive(Debug, Clone)]
pub struct DayAheadMarket {
    /// Quarter-hourly base prices \[EUR/MWh\].
    pub base_prices: Vec<f64>,
}

impl Default for DayAheadMarket {
    fn default() -> Self {
        DayAheadMarket { base_prices: belgian_shape() }
    }
}

/// A stylised Belgian day-ahead shape: cheap night valley, morning ramp
/// to a peak around 08:00–10:00, midday dip, evening peak around
/// 18:00–21:00.
fn belgian_shape() -> Vec<f64> {
    (0..STEPS)
        .map(|t| {
            let hour = t as f64 * STEP_HOURS;
            let night = 34.0;
            let morning = 52.0 * gaussian(hour, 8.5, 2.0);
            let midday = 18.0 * gaussian(hour, 13.0, 2.5);
            let evening = 62.0 * gaussian(hour, 19.5, 2.2);
            night + morning + midday + evening
        })
        .collect()
}

#[inline]
fn gaussian(x: f64, mu: f64, sd: f64) -> f64 {
    let z = (x - mu) / sd;
    (-0.5 * z * z).exp()
}

impl DayAheadMarket {
    /// Price at a simulation step \[EUR/MWh\].
    pub fn price(&self, step: usize) -> f64 {
        self.base_prices[step]
    }

    /// Mean daily price (used for the terminal water value).
    pub fn mean_price(&self) -> f64 {
        self.base_prices.iter().sum::<f64>() / self.base_prices.len() as f64
    }
}

/// Reserve (ancillary-services) market parameters.
#[derive(Debug, Clone)]
pub struct ReserveMarket {
    /// Capacity payment [EUR per MW per hour of reservation].
    pub capacity_price: f64,
    /// Probability that any given quarter-hour sees an activation event.
    pub activation_prob: f64,
    /// Activated energy is remunerated at this multiple of the energy
    /// price.
    pub activation_price_factor: f64,
    /// Penalty for undelivered activated energy \[EUR/MWh\].
    pub shortfall_penalty: f64,
}

impl Default for ReserveMarket {
    fn default() -> Self {
        ReserveMarket {
            capacity_price: 6.0,
            activation_prob: 0.06,
            activation_price_factor: 1.15,
            shortfall_penalty: 450.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_has_two_peaks_and_cheap_night() {
        let m = DayAheadMarket::default();
        let price_at = |h: f64| m.price((h / STEP_HOURS) as usize);
        let night = price_at(3.0);
        let morning = price_at(8.5);
        let midday = price_at(13.5);
        let evening = price_at(19.5);
        assert!(night < 45.0, "night {night}");
        assert!(morning > night + 25.0, "morning {morning}");
        assert!(evening > morning, "evening {evening} vs morning {morning}");
        assert!(midday < morning, "midday {midday}");
    }

    #[test]
    fn prices_positive_and_bounded() {
        let m = DayAheadMarket::default();
        for t in 0..STEPS {
            let p = m.price(t);
            assert!(p > 10.0 && p < 200.0, "step {t}: {p}");
        }
    }

    #[test]
    fn mean_price_between_extremes() {
        let m = DayAheadMarket::default();
        let lo = m.base_prices.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = m.base_prices.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = m.mean_price();
        assert!(mean > lo && mean < hi);
    }
}
