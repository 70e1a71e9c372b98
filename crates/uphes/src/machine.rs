//! The variable-speed pump-turbine: head effects, efficiency surfaces
//! and cavitation zones.
//!
//! Head effects enter three ways (paper §2.1):
//!
//! 1. the **safe operating range** in each mode scales with the head
//!    ratio `ρ = h / h_nominal` (a turbine produces less at low head, a
//!    pump needs more power per m³ at high head);
//! 2. the **efficiency** is a non-convex surface over (power, head):
//!    a quadratic hill around a head-dependent best-efficiency point
//!    with a sinusoidal ripple, the standard shape of measured hill
//!    charts;
//! 3. **cavitation zones**: a head-dependent power band inside the
//!    turbine range, and the top of the pump range at low head, are
//!    forbidden (the machine may not be dispatched there at all) —
//!    these are what make the simulated profit *discontinuous*.

use crate::{G, RHO};

/// Operating mode implied by a signed power setpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Generating (positive power, water moves down).
    Turbine,
    /// Pumping (negative power, water moves up).
    Pump,
    /// No water movement.
    Idle,
}

/// Why a setpoint cannot be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infeasibility {
    /// Power below the mode's minimum or above its maximum at this head.
    OutsideRange,
    /// Inside a cavitation band.
    Cavitation,
    /// Net head outside the machine's safe window.
    UnsafeHead,
}

/// Result of a dispatch feasibility check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dispatch {
    /// Setpoint can be served; carries the hydraulic flow in m³/s
    /// (positive = downward through the turbine, negative = upward).
    Ok { mode: Mode, flow: f64, efficiency: f64 },
    /// Setpoint rejected.
    Rejected(Infeasibility),
}

/// Pump-turbine unit parameters (Maizeret-like defaults via
/// [`Machine::default`]).
#[derive(Debug, Clone)]
pub struct Machine {
    /// Nominal net head \[m\].
    pub h_nominal: f64,
    /// Safe head window \[m\]; outside it the unit must idle.
    pub h_safe: (f64, f64),
    /// Turbine power range at nominal head \[MW\].
    pub turbine_range: (f64, f64),
    /// Pump power range at nominal head \[MW\] (electrical draw).
    pub pump_range: (f64, f64),
    /// Peak efficiency of either mode.
    pub eta_peak: f64,
}

impl Default for Machine {
    fn default() -> Self {
        Machine {
            h_nominal: 75.0,
            h_safe: (52.0, 98.0),
            turbine_range: (4.0, 8.0),
            pump_range: (6.0, 8.0),
            eta_peak: 0.91,
        }
    }
}

impl Machine {
    /// Head ratio clamped to the physically sensible band.
    #[inline]
    fn rho(&self, head: f64) -> f64 {
        (head / self.h_nominal).clamp(0.3, 1.8)
    }

    /// Turbine power limits \[MW\] at a given head.
    pub fn turbine_limits(&self, head: f64) -> (f64, f64) {
        let k = self.rho(head).powf(0.5).clamp(0.7, 1.15);
        (self.turbine_range.0 * k, self.turbine_range.1 * k)
    }

    /// Pump power limits \[MW\] (positive magnitudes) at a given head.
    pub fn pump_limits(&self, head: f64) -> (f64, f64) {
        let k = self.rho(head).powf(0.75).clamp(0.7, 1.2);
        (self.pump_range.0 * k, self.pump_range.1 * k)
    }

    /// Head-dependent forbidden band inside the turbine range
    /// (cavitation / rough-zone), `(lo, hi)` in MW.
    pub fn turbine_cavitation(&self, head: f64) -> (f64, f64) {
        let (lo, hi) = self.turbine_limits(head);
        let s = (6.0 * (self.rho(head) - 1.0)).sin();
        let center = lo + (hi - lo) * (0.45 + 0.25 * s);
        let half_width = 0.5;
        (center - half_width, center + half_width)
    }

    /// Pump cavitation: at low head (`ρ < 0.92`) the top of the pump
    /// range is forbidden. Returns the forbidden band `(lo, hi)` in MW
    /// magnitudes, or `None`.
    pub fn pump_cavitation(&self, head: f64) -> Option<(f64, f64)> {
        if self.rho(head) < 0.92 {
            let (_, hi) = self.pump_limits(head);
            Some((hi - 0.5, hi + 1.0))
        } else {
            None
        }
    }

    /// Turbine efficiency surface over (power \[MW\], head \[m\]).
    pub fn turbine_efficiency(&self, p: f64, head: f64) -> f64 {
        let (lo, hi) = self.turbine_limits(head);
        let bep = lo + 0.62 * (hi - lo); // best-efficiency point
        let droop = 0.018 * (p - bep) * (p - bep);
        let ripple = 0.015 * (2.4 * p).sin() * (head / 11.0).cos();
        (self.eta_peak - droop + ripple).clamp(0.55, 0.95)
    }

    /// Pump efficiency surface over (power magnitude \[MW\], head \[m\]).
    pub fn pump_efficiency(&self, p: f64, head: f64) -> f64 {
        let (lo, hi) = self.pump_limits(head);
        let bep = lo + 0.55 * (hi - lo);
        let droop = 0.022 * (p - bep) * (p - bep);
        let ripple = 0.012 * (3.1 * p).cos() * (head / 13.0).sin();
        (self.eta_peak - 0.015 - droop + ripple).clamp(0.55, 0.95)
    }

    /// Downward flow \[m³/s\] produced by generating `p` MW at `head`.
    pub fn turbine_flow(&self, p: f64, head: f64) -> f64 {
        let eta = self.turbine_efficiency(p, head);
        p * 1e6 / (eta * RHO * G * head.max(1.0))
    }

    /// Upward flow \[m³/s\] produced by pumping with `p` MW draw at `head`.
    pub fn pump_flow(&self, p: f64, head: f64) -> f64 {
        let eta = self.pump_efficiency(p, head);
        eta * p * 1e6 / (RHO * G * head.max(1.0))
    }

    /// Full dispatch check of a signed setpoint (MW; > 0 turbine,
    /// < 0 pump, |p| < 0.05 treated as idle).
    pub fn dispatch(&self, p_signed: f64, head: f64) -> Dispatch {
        if p_signed.abs() < 0.05 {
            // Idling is always allowed — the head window only constrains
            // actual water movement through the machine.
            return Dispatch::Ok { mode: Mode::Idle, flow: 0.0, efficiency: 1.0 };
        }
        if head < self.h_safe.0 || head > self.h_safe.1 {
            return Dispatch::Rejected(Infeasibility::UnsafeHead);
        }
        if p_signed > 0.0 {
            let p = p_signed;
            let (lo, hi) = self.turbine_limits(head);
            if p < lo - 1e-9 || p > hi + 1e-9 {
                return Dispatch::Rejected(Infeasibility::OutsideRange);
            }
            let (clo, chi) = self.turbine_cavitation(head);
            if p > clo && p < chi {
                return Dispatch::Rejected(Infeasibility::Cavitation);
            }
            Dispatch::Ok {
                mode: Mode::Turbine,
                flow: self.turbine_flow(p, head),
                efficiency: self.turbine_efficiency(p, head),
            }
        } else {
            let p = -p_signed;
            let (lo, hi) = self.pump_limits(head);
            if p < lo - 1e-9 || p > hi + 1e-9 {
                return Dispatch::Rejected(Infeasibility::OutsideRange);
            }
            if let Some((clo, chi)) = self.pump_cavitation(head) {
                if p > clo && p < chi {
                    return Dispatch::Rejected(Infeasibility::Cavitation);
                }
            }
            Dispatch::Ok {
                mode: Mode::Pump,
                flow: -self.pump_flow(p, head),
                efficiency: self.pump_efficiency(p, head),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_limits_match_paper_ranges() {
        let m = Machine::default();
        let (tlo, thi) = m.turbine_limits(m.h_nominal);
        let (plo, phi) = m.pump_limits(m.h_nominal);
        assert!((tlo - 4.0).abs() < 1e-9 && (thi - 8.0).abs() < 1e-9);
        assert!((plo - 6.0).abs() < 1e-9 && (phi - 8.0).abs() < 1e-9);
    }

    #[test]
    fn low_head_shrinks_turbine_range() {
        let m = Machine::default();
        let (lo_n, hi_n) = m.turbine_limits(75.0);
        let (lo_l, hi_l) = m.turbine_limits(58.0);
        assert!(hi_l < hi_n);
        assert!(lo_l < lo_n);
        assert!(hi_l - lo_l < hi_n - lo_n);
    }

    #[test]
    fn efficiency_bounded_and_nonconvex() {
        let m = Machine::default();
        let mut etas = Vec::new();
        for i in 0..=40 {
            let p = 4.0 + 4.0 * i as f64 / 40.0;
            let e = m.turbine_efficiency(p, 75.0);
            assert!((0.55..=0.95).contains(&e));
            etas.push(e);
        }
        // The ripple must create at least one interior local extremum.
        let mut sign_changes = 0;
        for w in etas.windows(3) {
            if (w[1] - w[0]) * (w[2] - w[1]) < 0.0 {
                sign_changes += 1;
            }
        }
        assert!(sign_changes >= 1, "efficiency curve unexpectedly monotone/convex");
    }

    #[test]
    fn cavitation_band_inside_turbine_range_and_moves_with_head() {
        let m = Machine::default();
        for &h in &[60.0, 75.0, 90.0] {
            let (lo, hi) = m.turbine_limits(h);
            let (clo, chi) = m.turbine_cavitation(h);
            assert!(clo > lo - 0.5 && chi < hi + 0.5, "band outside range at {h}");
            assert!(chi > clo);
        }
        let a = m.turbine_cavitation(60.0);
        let b = m.turbine_cavitation(90.0);
        assert!((a.0 - b.0).abs() > 0.1, "band should move with head");
    }

    #[test]
    fn dispatch_rules() {
        let m = Machine::default();
        // Idle.
        assert!(matches!(m.dispatch(0.0, 75.0), Dispatch::Ok { mode: Mode::Idle, .. }));
        // Valid turbine point away from the cavitation band.
        let (clo, chi) = m.turbine_cavitation(75.0);
        let p_ok = if clo - 4.0 > 0.3 { 0.5 * (4.0 + clo) } else { 0.5 * (chi + 8.0) };
        match m.dispatch(p_ok, 75.0) {
            Dispatch::Ok { mode: Mode::Turbine, flow, efficiency } => {
                assert!(flow > 0.0 && efficiency > 0.5);
            }
            other => panic!("expected turbine ok, got {other:?}"),
        }
        // Inside cavitation band → rejected.
        let p_cav = 0.5 * (clo + chi);
        assert_eq!(m.dispatch(p_cav, 75.0), Dispatch::Rejected(Infeasibility::Cavitation));
        // Power between idle and turbine minimum → rejected.
        assert_eq!(m.dispatch(2.0, 75.0), Dispatch::Rejected(Infeasibility::OutsideRange));
        // Unsafe head.
        assert_eq!(m.dispatch(6.0, 40.0), Dispatch::Rejected(Infeasibility::UnsafeHead));
        // Pump draws water upward (negative flow).
        match m.dispatch(-7.0, 75.0) {
            Dispatch::Ok { mode: Mode::Pump, flow, .. } => assert!(flow < 0.0),
            other => panic!("expected pump ok, got {other:?}"),
        }
    }

    #[test]
    fn flows_have_sane_magnitudes() {
        let m = Machine::default();
        // 8 MW at 75 m head, η≈0.9 → q ≈ 12 m³/s.
        let q = m.turbine_flow(8.0, 75.0);
        assert!((8.0..16.0).contains(&q), "turbine flow {q}");
        let qp = m.pump_flow(8.0, 75.0);
        assert!((6.0..14.0).contains(&qp), "pump flow {qp}");
        // Pumping is less effective than turbining at equal power
        // (round-trip efficiency < 1).
        assert!(qp < q);
    }

    #[test]
    fn round_trip_efficiency_below_unity() {
        let m = Machine::default();
        let eta_rt = m.turbine_efficiency(7.0, 75.0) * m.pump_efficiency(7.0, 75.0);
        assert!(eta_rt < 0.9);
        assert!(eta_rt > 0.5);
    }
}
