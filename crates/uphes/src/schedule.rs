//! Decision-vector encoding: the paper's 12 decision variables.
//!
//! The optimizers work on the unit cube `\[0,1\]^12`. The first 8
//! coordinates choose, per 3-hour energy block, an operating mode and
//! power level — the "mixed-integer in disguise" part of the problem:
//!
//! ```text
//! u ∈ [0.00, 0.40)  →  pump   at −(6 + 2·u/0.4) MW     (draws energy)
//! u ∈ [0.40, 0.55)  →  idle
//! u ∈ [0.55, 1.00]  →  turbine at 4 + 4·(u−0.55)/0.45 MW (sells energy)
//! ```
//!
//! The last 4 coordinates are upward-reserve offers per 6-hour block:
//! `r = 3·u` MW. Those are commitments: if the TSO activates, the unit
//! must raise its net output by the activated fraction of the offer.

use crate::{DECISION_DIM, ENERGY_BLOCKS, RESERVE_BLOCKS, STEPS};

/// Mode-split thresholds of the energy-block encoding.
pub const PUMP_CUT: f64 = 0.40;
/// Upper edge of the idle band.
pub const IDLE_CUT: f64 = 0.55;
/// Maximum reserve offer \[MW\].
pub const MAX_RESERVE: f64 = 3.0;

/// A decoded daily schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Signed block setpoints \[MW\]: > 0 turbine, < 0 pump, 0 idle.
    pub block_power: [f64; ENERGY_BLOCKS],
    /// Reserve offers \[MW\] per reserve block.
    pub reserve: [f64; RESERVE_BLOCKS],
}

impl Schedule {
    /// Decode a unit-cube decision vector. Panics if `x.len() != 12`.
    pub fn decode(x: &[f64]) -> Schedule {
        assert_eq!(x.len(), DECISION_DIM, "decision vector must have 12 entries");
        let mut block_power = [0.0; ENERGY_BLOCKS];
        for (b, p) in block_power.iter_mut().enumerate() {
            *p = decode_block(x[b].clamp(0.0, 1.0));
        }
        let mut reserve = [0.0; RESERVE_BLOCKS];
        for (b, r) in reserve.iter_mut().enumerate() {
            *r = MAX_RESERVE * x[ENERGY_BLOCKS + b].clamp(0.0, 1.0);
        }
        Schedule { block_power, reserve }
    }

    /// Energy-block setpoint active at a quarter-hour step.
    pub fn power_at_step(&self, step: usize) -> f64 {
        debug_assert!(step < STEPS);
        self.block_power[step / (STEPS / ENERGY_BLOCKS)]
    }

    /// Reserve offer active at a quarter-hour step.
    pub fn reserve_at_step(&self, step: usize) -> f64 {
        debug_assert!(step < STEPS);
        self.reserve[step / (STEPS / RESERVE_BLOCKS)]
    }
}

/// Decode one energy coordinate into a signed setpoint.
fn decode_block(u: f64) -> f64 {
    if u < PUMP_CUT {
        -(6.0 + 2.0 * u / PUMP_CUT)
    } else if u < IDLE_CUT {
        0.0
    } else {
        4.0 + 4.0 * (u - IDLE_CUT) / (1.0 - IDLE_CUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_hits_all_modes() {
        let s = Schedule::decode(&[
            0.0, 0.2, 0.399, 0.45, 0.549, 0.55, 0.8, 1.0, // energy
            0.0, 0.5, 1.0, 0.25, // reserve
        ]);
        assert!((s.block_power[0] + 6.0).abs() < 1e-12);
        assert!(s.block_power[1] < -6.0 && s.block_power[1] > -8.0);
        assert!(s.block_power[2] < -7.9);
        assert_eq!(s.block_power[3], 0.0);
        assert_eq!(s.block_power[4], 0.0);
        assert!((s.block_power[5] - 4.0).abs() < 1e-12);
        assert!(s.block_power[6] > 4.0 && s.block_power[6] < 8.0);
        assert!((s.block_power[7] - 8.0).abs() < 1e-12);
        assert_eq!(s.reserve[0], 0.0);
        assert!((s.reserve[1] - 1.5).abs() < 1e-12);
        assert!((s.reserve[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn setpoints_never_in_the_forbidden_gaps() {
        // The encoding by construction never emits power in (−6, 0) or
        // (0, 4) — those bands are physically unreachable.
        for i in 0..=1000 {
            let u = i as f64 / 1000.0;
            let p = decode_block(u);
            assert!(p <= -6.0 || p == 0.0 || p >= 4.0, "u={u} decoded into the forbidden gap: {p}");
            assert!((-8.0..=8.0).contains(&p));
        }
    }

    #[test]
    fn step_lookup_uses_right_block() {
        let mut x = [0.45; 12];
        x[0] = 1.0; // block 0 = turbine 8 MW (steps 0..12)
        x[7] = 0.0; // block 7 = pump −6 MW (steps 84..96)
        x[8] = 1.0; // reserve block 0 = 3 MW (steps 0..24)
        let s = Schedule::decode(&x);
        assert!((s.power_at_step(0) - 8.0).abs() < 1e-12);
        assert!((s.power_at_step(11) - 8.0).abs() < 1e-12);
        assert_eq!(s.power_at_step(12), 0.0);
        assert!((s.power_at_step(95) + 6.0).abs() < 1e-12);
        assert!((s.reserve_at_step(23) - 3.0).abs() < 1e-12);
        assert!((s.reserve_at_step(24) - 3.0 * 0.45).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "12 entries")]
    fn wrong_dimension_panics() {
        let _ = Schedule::decode(&[0.5; 5]);
    }

    #[test]
    fn out_of_cube_inputs_are_clamped() {
        let s = Schedule::decode(&[-1.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.0, -3.0, 0.5, 0.5]);
        assert!((s.block_power[0] + 6.0).abs() < 1e-12);
        assert!((s.block_power[1] - 8.0).abs() < 1e-12);
        assert!((s.reserve[0] - 3.0).abs() < 1e-12);
        assert_eq!(s.reserve[1], 0.0);
    }
}
