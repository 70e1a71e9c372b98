//! The techno-economic UPHES simulator: decision vector → expected
//! daily profit \[EUR\].

use crate::geometry::{default_lower, default_upper, Reservoir};
use crate::machine::{Dispatch, Machine, Mode};
use crate::market::{DayAheadMarket, ReserveMarket};
use crate::scenario::{Scenario, ScenarioSet};
use crate::schedule::Schedule;
use crate::{DECISION_DIM, G, RHO, STEPS, STEP_HOURS};

/// Full plant/market configuration with Maizeret-like defaults.
#[derive(Debug, Clone)]
pub struct PlantConfig {
    /// Upper (surface) reservoir.
    pub upper: Reservoir,
    /// Lower (underground pit) reservoir.
    pub lower: Reservoir,
    /// Pump-turbine unit.
    pub machine: Machine,
    /// Day-ahead market.
    pub market: DayAheadMarket,
    /// Reserve market.
    pub reserve: ReserveMarket,
    /// Initial fill fraction of the upper basin.
    pub initial_upper_frac: f64,
    /// Initial fill fraction of the lower basin.
    pub initial_lower_frac: f64,
    /// Elevation of the surrounding water table \[m\] (groundwater flows
    /// into the pit while its surface sits below this).
    pub aquifer_elevation: f64,
    /// Groundwater exchange coefficient [m³/s per m of level gap].
    pub groundwater_coeff: f64,
    /// Penalty per infeasible dispatch event \[EUR\] (plus a per-MW term).
    pub infeasible_penalty: f64,
    /// Extra infeasibility penalty per MW of rejected setpoint \[EUR/MW\].
    pub infeasible_penalty_per_mw: f64,
    /// Penalty per direct pump↔turbine reversal between consecutive
    /// blocks \[EUR\]: the machine needs an idle changeover to reverse
    /// (penstock drain + rotation reversal), so schedules that flip
    /// modes back-to-back violate the unit-commitment constraint.
    pub reversal_penalty: f64,
    /// Penalty per m³ of reservoir-bound violation \[EUR/m³\].
    pub volume_penalty: f64,
    /// Terminal water value as a fraction of the mean energy price.
    pub water_value_factor: f64,
    /// Scenarios averaged per evaluation.
    pub n_scenarios: usize,
    /// Scenario master seed (common random numbers).
    pub scenario_seed: u64,
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig {
            upper: default_upper(),
            lower: default_lower(),
            machine: Machine::default(),
            market: DayAheadMarket::default(),
            reserve: ReserveMarket::default(),
            // The day starts with the upper basin nearly drained (the
            // previous evening's peak was sold): profitable generation
            // requires pumping first, which couples the blocks and
            // makes unstructured schedules run the reservoir dry.
            initial_upper_frac: 0.20,
            initial_lower_frac: 0.44,
            aquifer_elevation: -82.0,
            groundwater_coeff: 0.06,
            infeasible_penalty: 160.0,
            infeasible_penalty_per_mw: 22.0,
            reversal_penalty: 650.0,
            volume_penalty: 0.02,
            water_value_factor: 0.6,
            n_scenarios: 8,
            scenario_seed: 0xC0FFEE,
        }
    }
}

/// Profit decomposition of one evaluation (scenario averages).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfitBreakdown {
    /// Revenue from sold energy \[EUR\].
    pub energy_revenue: f64,
    /// Cost of pumping energy \[EUR\] (positive number).
    pub pumping_cost: f64,
    /// Reserve capacity + activation remuneration \[EUR\].
    pub reserve_revenue: f64,
    /// Infeasible-dispatch and reserve-shortfall penalties \[EUR\].
    pub penalties: f64,
    /// Terminal water (storage delta) value \[EUR\].
    pub water_value: f64,
    /// Average number of infeasible quarter-hours per scenario.
    pub infeasible_steps: f64,
    /// Net expected profit \[EUR\].
    pub profit: f64,
}

/// The simulator: owns a frozen scenario set so the objective is a
/// deterministic function of the decision vector.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: PlantConfig,
    scenarios: ScenarioSet,
}

impl Simulator {
    /// Build with the given configuration (generates the scenario set).
    pub fn new(cfg: PlantConfig) -> Self {
        let scenarios =
            ScenarioSet::generate(cfg.n_scenarios, &cfg.market, &cfg.reserve, cfg.scenario_seed);
        Simulator { cfg, scenarios }
    }

    /// Default Maizeret-like instance with the given scenario seed.
    pub fn maizeret(seed: u64) -> Self {
        Simulator::new(PlantConfig { scenario_seed: seed, ..PlantConfig::default() })
    }

    /// Plant configuration.
    pub fn config(&self) -> &PlantConfig {
        &self.cfg
    }

    /// Expected daily profit \[EUR\] for a unit-cube decision vector.
    pub fn expected_profit(&self, x_unit: &[f64]) -> f64 {
        self.evaluate_detailed(x_unit).profit
    }

    /// Expected profit with the full revenue/penalty decomposition.
    pub fn evaluate_detailed(&self, x_unit: &[f64]) -> ProfitBreakdown {
        assert_eq!(x_unit.len(), DECISION_DIM);
        let schedule = Schedule::decode(x_unit);
        // Deterministic unit-commitment violation: direct pump↔turbine
        // reversals between consecutive blocks.
        let reversals =
            schedule.block_power.windows(2).filter(|w| w[0] * w[1] < 0.0).count() as f64;
        let reversal_penalty = reversals * self.cfg.reversal_penalty;
        let mut acc = ProfitBreakdown::default();
        for scenario in self.scenarios.iter() {
            let b = self.simulate_one(&schedule, scenario);
            acc.energy_revenue += b.energy_revenue;
            acc.pumping_cost += b.pumping_cost;
            acc.reserve_revenue += b.reserve_revenue;
            acc.penalties += b.penalties;
            acc.water_value += b.water_value;
            acc.infeasible_steps += b.infeasible_steps;
            acc.profit += b.profit;
        }
        let n = self.scenarios.len().max(1) as f64;
        acc.energy_revenue /= n;
        acc.pumping_cost /= n;
        acc.reserve_revenue /= n;
        acc.penalties /= n;
        acc.water_value /= n;
        acc.infeasible_steps /= n;
        acc.profit /= n;
        acc.penalties += reversal_penalty;
        acc.profit -= reversal_penalty;
        acc
    }

    /// Simulate the schedule against one scenario.
    fn simulate_one(&self, schedule: &Schedule, sc: &Scenario) -> ProfitBreakdown {
        let cfg = &self.cfg;
        let dt_s = STEP_HOURS * 3600.0;
        let mut vu = cfg.initial_upper_frac * cfg.upper.capacity();
        let mut vl = cfg.initial_lower_frac * cfg.lower.capacity();
        let vu0 = vu;
        let mut out = ProfitBreakdown::default();

        for t in 0..STEPS {
            let head = cfg.upper.surface_elevation(vu) - cfg.lower.surface_elevation(vl);
            let price = sc.prices[t];
            let activation = sc.activations[t];
            let offer = schedule.reserve_at_step(t);
            let base = schedule.power_at_step(t);
            // Upward regulation: raise net output by the activated MW.
            let target = base + activation * offer;

            // Reserve capacity is remunerated for every reserved quarter.
            out.reserve_revenue += offer * STEP_HOURS * cfg.reserve.capacity_price;

            match cfg.machine.dispatch(target, head) {
                Dispatch::Ok { mode, flow, .. } => {
                    // Water moves: positive flow = upper → lower.
                    let dv = flow * dt_s;
                    vu -= dv;
                    vl += dv;
                    // Reservoir-bound violations: clamp and penalize.
                    for (v, cap) in
                        [(&mut vu, cfg.upper.capacity()), (&mut vl, cfg.lower.capacity())]
                    {
                        if *v < 0.0 {
                            out.penalties += -*v * cfg.volume_penalty;
                            *v = 0.0;
                        } else if *v > cap {
                            out.penalties += (*v - cap) * cfg.volume_penalty;
                            *v = cap;
                        }
                    }
                    let energy = target.abs() * STEP_HOURS; // MWh
                    match mode {
                        Mode::Turbine => {
                            // Split the sold energy into the base part at
                            // the day-ahead price and the activated part
                            // at the activation price.
                            let activated = (activation * offer).min(target.max(0.0)) * STEP_HOURS;
                            let base_energy = energy - activated;
                            out.energy_revenue += base_energy * price
                                + activated * price * cfg.reserve.activation_price_factor;
                        }
                        Mode::Pump => {
                            out.pumping_cost += energy * price;
                            // Activation served by pumping less: the
                            // avoided purchase is already in `energy`;
                            // the delivered regulation is remunerated.
                            let delivered = activation * offer * STEP_HOURS;
                            out.reserve_revenue +=
                                delivered * price * (cfg.reserve.activation_price_factor - 1.0);
                        }
                        Mode::Idle => {
                            // Idle with an activation request means the
                            // request was zero (|target| < 0.05) — no
                            // energy exchanged.
                        }
                    }
                }
                Dispatch::Rejected(_) => {
                    out.penalties +=
                        cfg.infeasible_penalty + cfg.infeasible_penalty_per_mw * target.abs();
                    if activation > 0.0 && offer > 0.0 {
                        // Activated reserve not delivered.
                        out.penalties +=
                            activation * offer * STEP_HOURS * cfg.reserve.shortfall_penalty;
                    }
                    out.infeasible_steps += 1.0;
                }
            }

            // Hydrology between decisions: groundwater exchange with the
            // pit and natural inflow into the upper basin.
            let gw_gap =
                cfg.aquifer_elevation + sc.groundwater_bias - cfg.lower.surface_elevation(vl);
            let q_gw = cfg.groundwater_coeff * gw_gap;
            vl = (vl + q_gw * dt_s).clamp(0.0, cfg.lower.capacity());
            vu = (vu + sc.inflow_upper * dt_s).clamp(0.0, cfg.upper.capacity());
        }

        // Terminal water value: energy content of the storage delta at a
        // discounted mean price (keeps "drain everything" from being
        // optimal for free).
        let eta_ref = 0.85;
        let delta_mwh = RHO * G * self.cfg.machine.h_nominal * (vu - vu0) * eta_ref / 3.6e9;
        out.water_value = delta_mwh * cfg.market.mean_price() * cfg.water_value_factor;

        out.profit = out.energy_revenue - out.pumping_cost + out.reserve_revenue - out.penalties
            + out.water_value;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_sampling::SeedStream;
    use rand::Rng;

    fn sim() -> Simulator {
        Simulator::maizeret(7)
    }

    /// All-idle, no reserve: a feasible do-nothing day.
    const IDLE: [f64; 12] = [0.45, 0.45, 0.45, 0.45, 0.45, 0.45, 0.45, 0.45, 0.0, 0.0, 0.0, 0.0];

    #[test]
    fn idle_schedule_is_feasible_and_cheap() {
        let b = sim().evaluate_detailed(&IDLE);
        assert_eq!(b.infeasible_steps, 0.0);
        assert_eq!(b.energy_revenue, 0.0);
        assert_eq!(b.pumping_cost, 0.0);
        // Natural inflow gives a small positive water value; penalties 0.
        assert!(b.penalties.abs() < 1e-9);
        assert!(b.profit.abs() < 400.0, "idle profit {}", b.profit);
    }

    #[test]
    fn deterministic_per_decision() {
        let s = sim();
        let x = [0.2, 0.45, 0.8, 0.45, 0.1, 0.45, 0.9, 0.45, 0.3, 0.0, 0.5, 0.0];
        assert_eq!(s.expected_profit(&x), s.expected_profit(&x));
    }

    #[test]
    fn arbitrage_schedule_beats_idle() {
        // Pump during the cheap night (blocks 0-1, 00:00–06:00), sell in
        // the morning and evening peaks (block 3 ≈ 09:00–12:00 and
        // block 6 ≈ 18:00–21:00). Setpoints are head-aware: −7.8 MW
        // stays inside the pump window as the head rises overnight;
        // 8 MW clears the cavitation band while the head is still high
        // (block 3), and 7.3 MW is the robust choice once the head has
        // dropped back toward nominal (block 6).
        let x = [
            0.36, 0.36, // pump ~−7.8 MW through the night
            0.45, 1.0, // idle 06-09, turbine 8 MW 09-12 (high head)
            0.45, 0.45, // idle 12-18
            0.92, 0.45, // turbine ~7.3 MW 18-21 (head near nominal)
            0.0, 0.0, 0.0, 0.0, // no reserve
        ];
        let s = sim();
        let arb = s.evaluate_detailed(&x);
        let idle = s.evaluate_detailed(&IDLE);
        assert!(
            arb.profit > idle.profit,
            "arbitrage {} vs idle {} (penalties {}, infeasible {})",
            arb.profit,
            idle.profit,
            arb.penalties,
            arb.infeasible_steps
        );
    }

    #[test]
    fn random_decisions_are_usually_penalized() {
        let s = sim();
        let mut rng = SeedStream::new(123).fork_named("rand").rng();
        let mut worse_than_idle = 0;
        let n = 200;
        let idle = s.expected_profit(&IDLE);
        for _ in 0..n {
            let x: Vec<f64> = (0..12).map(|_| rng.gen::<f64>()).collect();
            if s.expected_profit(&x) < idle {
                worse_than_idle += 1;
            }
        }
        // The landscape must be hostile to random search (paper §4:
        // best of ~12000 random points is still ~ −1200 EUR).
        assert!(
            worse_than_idle > n * 6 / 10,
            "only {worse_than_idle}/{n} random schedules worse than idle"
        );
    }

    #[test]
    fn profit_decomposition_is_consistent() {
        let s = sim();
        let x = [0.2, 0.3, 0.45, 0.8, 0.45, 0.6, 0.9, 0.45, 0.4, 0.2, 0.0, 0.6];
        let b = s.evaluate_detailed(&x);
        let recomposed =
            b.energy_revenue - b.pumping_cost + b.reserve_revenue - b.penalties + b.water_value;
        assert!((b.profit - recomposed).abs() < 1e-9);
    }

    #[test]
    fn more_scenarios_change_but_stabilize_the_estimate() {
        let mk = |n: usize| {
            Simulator::new(PlantConfig { n_scenarios: n, scenario_seed: 40, ..Default::default() })
        };
        let x = [0.2, 0.2, 0.45, 0.75, 0.45, 0.45, 0.75, 0.45, 0.2, 0.0, 0.0, 0.0];
        let p8 = mk(8).expected_profit(&x);
        let p64 = mk(64).expected_profit(&x);
        let p128 = mk(128).expected_profit(&x);
        // Larger scenario sets converge: 64 vs 128 closer than 8 vs 128.
        assert!((p64 - p128).abs() <= (p8 - p128).abs() + 150.0, "p8={p8} p64={p64} p128={p128}");
    }

    #[test]
    fn reserve_offers_without_headroom_get_punished() {
        let s = sim();
        // Full-throttle turbine all day + max reserve: activations can
        // never be served (8 MW is already the cap).
        let mut x = [1.0; 12];
        for r in x.iter_mut().skip(8) {
            *r = 1.0;
        }
        let with_reserve = s.evaluate_detailed(&x);
        let mut x2 = x;
        for r in x2.iter_mut().skip(8) {
            *r = 0.0;
        }
        let without = s.evaluate_detailed(&x2);
        assert!(
            with_reserve.penalties > without.penalties,
            "reserve shortfall not penalized: {} vs {}",
            with_reserve.penalties,
            without.penalties
        );
    }

    #[test]
    fn head_drifts_as_water_moves() {
        // Pumping all night raises the upper basin => larger head.
        let s = sim();
        let pump_all = {
            let mut x = [0.2; 12];
            for r in x.iter_mut().skip(8) {
                *r = 0.0;
            }
            x
        };
        let b = s.evaluate_detailed(&pump_all);
        // All-pump is expensive, and at some point the upper basin fills /
        // head leaves the safe window, producing penalties or volume
        // clamps — either way the profit must be clearly negative.
        assert!(b.profit < -500.0, "all-pump profit {}", b.profit);
        assert!(b.pumping_cost > 0.0);
    }
}
