//! Run records: everything the bench harness needs to rebuild the
//! paper's tables and figures from a set of optimization runs.

/// Per-batch fault bookkeeping from the fault-tolerant executor
/// (`pbo-core::exec::evaluate_batch_ft`) and the engine's degradation
/// policy. All counts are exact and deterministic given the run seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCounters {
    /// Worker panics caught and isolated.
    pub panics: u64,
    /// NaN results quarantined before reaching the dataset.
    pub nan_quarantined: u64,
    /// Infinite results quarantined before reaching the dataset.
    pub inf_quarantined: u64,
    /// Evaluations that straggled (returned late in virtual time).
    pub stragglers: u64,
    /// Attempts killed by the per-evaluation virtual timeout.
    pub timeouts: u64,
    /// Re-attempts performed (Σ per-point `attempts − 1`).
    pub retries: u64,
    /// Points that exhausted retries and were imputed (constant-liar
    /// dataset max) before the GP update.
    pub imputed: u64,
    /// Points that exhausted retries and were dropped outright.
    pub dropped: u64,
    /// Virtual rank-seconds consumed beyond the fault-free cost: extra
    /// simulation attempts, backoff waits, straggler delays and timeout
    /// charges, summed over all ranks (the paper's CPU-seconds-lost
    /// view; the charged *wall* time is the max over ranks and lives in
    /// `sim_time`).
    pub virtual_secs_lost: f64,
}

impl FaultCounters {
    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.panics += other.panics;
        self.nan_quarantined += other.nan_quarantined;
        self.inf_quarantined += other.inf_quarantined;
        self.stragglers += other.stragglers;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.imputed += other.imputed;
        self.dropped += other.dropped;
        self.virtual_secs_lost += other.virtual_secs_lost;
    }

    /// Total failed attempts (each one either triggered a retry or
    /// exhausted the point).
    pub fn failed_attempts(&self) -> u64 {
        self.panics + self.nan_quarantined + self.inf_quarantined + self.timeouts
    }

    /// True when any fault was observed.
    pub fn any(&self) -> bool {
        self.failed_attempts() + self.stragglers + self.imputed + self.dropped > 0
            || self.virtual_secs_lost > 0.0
    }
}

/// One optimization cycle's bookkeeping.
#[derive(Debug, Clone)]
pub struct CycleRecord {
    /// Cycle index (0-based; the initial design is cycle-less).
    pub cycle: usize,
    /// Virtual seconds spent fitting the surrogate this cycle.
    pub fit_time: f64,
    /// Virtual seconds spent in the acquisition process this cycle.
    pub acq_time: f64,
    /// Virtual seconds spent simulating this cycle's batch.
    pub sim_time: f64,
    /// Batch size actually evaluated.
    pub n_evals: usize,
    /// Best objective (minimization orientation) after this cycle.
    pub best_y_min: f64,
    /// Virtual clock reading at the end of the cycle.
    pub clock: f64,
    /// Faults absorbed while evaluating this cycle's batch.
    pub faults: FaultCounters,
}

/// A complete optimization run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Algorithm name.
    pub algorithm: String,
    /// Problem name.
    pub problem: String,
    /// Whether the problem is natively a maximization.
    pub maximize: bool,
    /// Batch size q.
    pub batch_size: usize,
    /// Run seed.
    pub seed: u64,
    /// Size of the initial design.
    pub doe_size: usize,
    /// All observed objective values (minimization orientation), in
    /// evaluation order (DoE first).
    pub y_min: Vec<f64>,
    /// Location of the best observation, in the problem's native
    /// coordinates.
    pub best_x: Vec<f64>,
    /// Per-cycle records.
    pub cycles: Vec<CycleRecord>,
    /// Final virtual clock \[seconds\].
    pub final_clock: f64,
    /// Faults absorbed while evaluating the initial design (untimed,
    /// so not part of any cycle).
    pub doe_faults: FaultCounters,
}

impl RunRecord {
    /// Aggregate fault tally over the whole run (DoE + every cycle).
    pub fn fault_totals(&self) -> FaultCounters {
        let mut total = self.doe_faults;
        for c in &self.cycles {
            total.merge(&c.faults);
        }
        total
    }

    /// Total simulations performed (DoE included).
    pub fn n_simulations(&self) -> usize {
        self.y_min.len()
    }

    /// Simulations performed after the initial design.
    pub fn n_optimization_simulations(&self) -> usize {
        self.y_min.len().saturating_sub(self.doe_size)
    }

    /// Number of optimization cycles completed.
    pub fn n_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Best objective value in the problem's native orientation.
    pub fn best_y(&self) -> f64 {
        let best_min = self.y_min.iter().copied().fold(f64::INFINITY, f64::min);
        if self.maximize {
            -best_min
        } else {
            best_min
        }
    }

    /// Best-so-far trace per evaluation, native orientation.
    pub fn best_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.y_min
            .iter()
            .map(|&v| {
                best = best.min(v);
                if self.maximize {
                    -best
                } else {
                    best
                }
            })
            .collect()
    }

    /// Aggregate time split `(fit, acq, sim)` over all cycles \[virtual s\].
    pub fn time_split(&self) -> (f64, f64, f64) {
        let mut f = 0.0;
        let mut a = 0.0;
        let mut s = 0.0;
        for c in &self.cycles {
            f += c.fit_time;
            a += c.acq_time;
            s += c.sim_time;
        }
        (f, a, s)
    }
}

// ---------------------------------------------------------------------
// Checkpoint serialization: hand-rolled JSON, lossless for every field
// so that a serialize → parse roundtrip reproduces the record
// bit-exactly. The bench orchestrator
// checkpoints one record per completed run and rebuilds all tables and
// figures as a pure fold over these lines.
// ---------------------------------------------------------------------

use crate::json::{self, push_f64_lossless, push_str_literal, Json};

/// Checkpoint schema version; bump on any incompatible field change so
/// resumed campaigns re-run instead of mis-parsing stale checkpoints.
pub const RECORD_SCHEMA_VERSION: u64 = 1;

fn push_fault_counters(out: &mut String, f: &FaultCounters) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"panics\":{},\"nan_quarantined\":{},\"inf_quarantined\":{},\
         \"stragglers\":{},\"timeouts\":{},\"retries\":{},\
         \"imputed\":{},\"dropped\":{},\"virtual_secs_lost\":",
        f.panics,
        f.nan_quarantined,
        f.inf_quarantined,
        f.stragglers,
        f.timeouts,
        f.retries,
        f.imputed,
        f.dropped,
    );
    push_f64_lossless(out, f.virtual_secs_lost);
    out.push('}');
}

fn push_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64_lossless(out, *v);
    }
    out.push(']');
}

fn fault_counters_from_json(v: &Json) -> Result<FaultCounters, String> {
    let count = |key: &str| -> Result<u64, String> {
        v.require(key)?.as_u64().ok_or_else(|| format!("field '{key}' is not a count"))
    };
    Ok(FaultCounters {
        panics: count("panics")?,
        nan_quarantined: count("nan_quarantined")?,
        inf_quarantined: count("inf_quarantined")?,
        stragglers: count("stragglers")?,
        timeouts: count("timeouts")?,
        retries: count("retries")?,
        imputed: count("imputed")?,
        dropped: count("dropped")?,
        virtual_secs_lost: require_f64(v, "virtual_secs_lost")?,
    })
}

fn require_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.require(key)?.as_f64().ok_or_else(|| format!("field '{key}' is not a number"))
}

fn require_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.require(key)?.as_usize().ok_or_else(|| format!("field '{key}' is not a count"))
}

fn require_f64_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    v.require(key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("field '{key}' has a non-number element")))
        .collect()
}

impl CycleRecord {
    fn push_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"cycle\":{},\"fit_time\":", self.cycle);
        push_f64_lossless(out, self.fit_time);
        out.push_str(",\"acq_time\":");
        push_f64_lossless(out, self.acq_time);
        out.push_str(",\"sim_time\":");
        push_f64_lossless(out, self.sim_time);
        let _ = write!(out, ",\"n_evals\":{},\"best_y_min\":", self.n_evals);
        push_f64_lossless(out, self.best_y_min);
        out.push_str(",\"clock\":");
        push_f64_lossless(out, self.clock);
        out.push_str(",\"faults\":");
        push_fault_counters(out, &self.faults);
        out.push('}');
    }

    fn from_json(v: &Json) -> Result<CycleRecord, String> {
        Ok(CycleRecord {
            cycle: require_usize(v, "cycle")?,
            fit_time: require_f64(v, "fit_time")?,
            acq_time: require_f64(v, "acq_time")?,
            sim_time: require_f64(v, "sim_time")?,
            n_evals: require_usize(v, "n_evals")?,
            best_y_min: require_f64(v, "best_y_min")?,
            clock: require_f64(v, "clock")?,
            faults: fault_counters_from_json(v.require("faults")?)?,
        })
    }
}

impl RunRecord {
    /// Encode as one JSON line (no trailing newline). Field order is
    /// fixed, floats are shortest-roundtrip, so the encoding is a
    /// deterministic, lossless function of the record.
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256 + 24 * self.y_min.len());
        let _ = write!(s, "{{\"schema\":{RECORD_SCHEMA_VERSION},\"algorithm\":");
        push_str_literal(&mut s, &self.algorithm);
        s.push_str(",\"problem\":");
        push_str_literal(&mut s, &self.problem);
        // The seed is a full 64-bit mix; JSON numbers travel through
        // f64 in this parser, so encode it as a string to stay exact.
        let _ = write!(
            s,
            ",\"maximize\":{},\"batch_size\":{},\"seed\":\"{}\",\"doe_size\":{}",
            self.maximize, self.batch_size, self.seed, self.doe_size
        );
        s.push_str(",\"y_min\":");
        push_f64_array(&mut s, &self.y_min);
        s.push_str(",\"best_x\":");
        push_f64_array(&mut s, &self.best_x);
        s.push_str(",\"cycles\":[");
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            c.push_json(&mut s);
        }
        s.push_str("],\"final_clock\":");
        push_f64_lossless(&mut s, self.final_clock);
        s.push_str(",\"doe_faults\":");
        push_fault_counters(&mut s, &self.doe_faults);
        s.push('}');
        s
    }

    /// Decode a line produced by [`RunRecord::to_json_line`]. Rejects
    /// unknown schema versions and any missing or mistyped field, so a
    /// truncated or stale checkpoint surfaces as an error (and the
    /// orchestrator re-runs it) rather than as corrupt aggregates.
    pub fn from_json_line(line: &str) -> Result<RunRecord, String> {
        let v = json::parse(line)?;
        let schema = v
            .require("schema")?
            .as_u64()
            .ok_or_else(|| "field 'schema' is not a count".to_string())?;
        if schema != RECORD_SCHEMA_VERSION {
            return Err(format!(
                "unsupported record schema {schema} (expected {RECORD_SCHEMA_VERSION})"
            ));
        }
        let cycles = v
            .require("cycles")?
            .as_array()
            .ok_or_else(|| "field 'cycles' is not an array".to_string())?
            .iter()
            .map(CycleRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunRecord {
            algorithm: v
                .require("algorithm")?
                .as_str()
                .ok_or_else(|| "field 'algorithm' is not a string".to_string())?
                .to_string(),
            problem: v
                .require("problem")?
                .as_str()
                .ok_or_else(|| "field 'problem' is not a string".to_string())?
                .to_string(),
            maximize: v
                .require("maximize")?
                .as_bool()
                .ok_or_else(|| "field 'maximize' is not a bool".to_string())?,
            batch_size: require_usize(&v, "batch_size")?,
            seed: match v.require("seed")? {
                Json::Str(s) => s
                    .parse::<u64>()
                    .map_err(|_| "field 'seed' is not a u64 string".to_string())?,
                other => other
                    .as_u64()
                    .ok_or_else(|| "field 'seed' is not a count".to_string())?,
            },
            doe_size: require_usize(&v, "doe_size")?,
            y_min: require_f64_array(&v, "y_min")?,
            best_x: require_f64_array(&v, "best_x")?,
            cycles,
            final_clock: require_f64(&v, "final_clock")?,
            doe_faults: fault_counters_from_json(v.require("doe_faults")?)?,
        })
    }
}

/// Point-wise mean/sd of best-so-far traces truncated to the shortest
/// run — exactly how the paper draws Figs. 3–7 ("curves only display
/// the results for which all data are available").
pub fn mean_sd_trace(records: &[RunRecord]) -> (Vec<f64>, Vec<f64>) {
    let traces: Vec<Vec<f64>> = records.iter().map(|r| r.best_trace()).collect();
    let n = traces.iter().map(|t| t.len()).min().unwrap_or(0);
    let mut mean = Vec::with_capacity(n);
    let mut sd = Vec::with_capacity(n);
    for i in 0..n {
        let col: Vec<f64> = traces.iter().map(|t| t[i]).collect();
        mean.push(pbo_linalg::vec_ops::mean(&col));
        sd.push(pbo_linalg::vec_ops::variance(&col).sqrt());
    }
    (mean, sd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(maximize: bool, y: Vec<f64>) -> RunRecord {
        RunRecord {
            algorithm: "test".into(),
            problem: "p".into(),
            maximize,
            batch_size: 2,
            seed: 0,
            doe_size: 2,
            best_x: vec![0.0],
            y_min: y,
            cycles: vec![
                CycleRecord {
                    cycle: 0,
                    fit_time: 1.0,
                    acq_time: 2.0,
                    sim_time: 10.0,
                    n_evals: 2,
                    best_y_min: 0.0,
                    clock: 13.0,
                    faults: FaultCounters::default(),
                },
            ],
            final_clock: 13.0,
            doe_faults: FaultCounters::default(),
        }
    }

    #[test]
    fn best_and_trace_minimization() {
        let r = rec(false, vec![5.0, 3.0, 4.0, 1.0]);
        assert_eq!(r.best_y(), 1.0);
        assert_eq!(r.best_trace(), vec![5.0, 3.0, 3.0, 1.0]);
        assert_eq!(r.n_simulations(), 4);
        assert_eq!(r.n_optimization_simulations(), 2);
    }

    #[test]
    fn best_and_trace_maximization() {
        // Stored minimized: y_min = -profit.
        let r = rec(true, vec![-5.0, -3.0, -7.0]);
        assert_eq!(r.best_y(), 7.0);
        assert_eq!(r.best_trace(), vec![5.0, 5.0, 7.0]);
    }

    #[test]
    fn mean_sd_trace_truncates_to_shortest() {
        let a = rec(false, vec![4.0, 2.0, 1.0]);
        let b = rec(false, vec![6.0, 4.0]);
        let (mean, sd) = mean_sd_trace(&[a, b]);
        assert_eq!(mean.len(), 2);
        assert_eq!(mean[0], 5.0);
        assert_eq!(mean[1], 3.0);
        assert!(sd[0] > 0.0);
    }

    #[test]
    fn time_split_sums_cycles() {
        let r = rec(false, vec![1.0, 2.0]);
        assert_eq!(r.time_split(), (1.0, 2.0, 10.0));
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut r = rec(true, vec![0.1 + 0.2, -5.5e17, 1.0 / 3.0]);
        r.algorithm = "kb-q-ego \"x\"".into();
        r.seed = u64::MAX - 12345; // above 2^53: must survive exactly
        r.best_x = vec![1e-300, -0.0, 42.5];
        r.cycles[0].faults = FaultCounters {
            panics: 2,
            nan_quarantined: 1,
            virtual_secs_lost: 10.600000000000001,
            ..FaultCounters::default()
        };
        r.doe_faults.dropped = 3;
        let line = r.to_json_line();
        let back = RunRecord::from_json_line(&line).expect("parse");
        // Bit-exact float roundtrip makes re-encoding byte-identical,
        // which is the property checkpoint aggregation relies on.
        assert_eq!(back.to_json_line(), line);
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.algorithm, r.algorithm);
        assert_eq!(back.y_min.len(), 3);
        assert_eq!(back.y_min[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.cycles[0].faults, r.cycles[0].faults);
        assert_eq!(back.doe_faults, r.doe_faults);
    }

    #[test]
    fn json_rejects_truncation_and_wrong_schema() {
        let r = rec(false, vec![1.0, 2.0]);
        let line = r.to_json_line();
        assert!(RunRecord::from_json_line(&line[..line.len() - 2]).is_err());
        let stale = line.replacen(
            &format!("\"schema\":{RECORD_SCHEMA_VERSION}"),
            "\"schema\":999",
            1,
        );
        let err = RunRecord::from_json_line(&stale).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(RunRecord::from_json_line("{}").is_err());
    }

    #[test]
    fn fault_totals_merge_doe_and_cycles() {
        let mut r = rec(false, vec![1.0, 2.0]);
        r.doe_faults = FaultCounters { panics: 1, virtual_secs_lost: 10.0, ..FaultCounters::default() };
        r.cycles[0].faults =
            FaultCounters { retries: 3, nan_quarantined: 2, imputed: 1, ..FaultCounters::default() };
        let t = r.fault_totals();
        assert_eq!(t.panics, 1);
        assert_eq!(t.retries, 3);
        assert_eq!(t.nan_quarantined, 2);
        assert_eq!(t.imputed, 1);
        assert_eq!(t.virtual_secs_lost, 10.0);
        assert_eq!(t.failed_attempts(), 3);
        assert!(t.any());
        assert!(!FaultCounters::default().any());
    }
}
