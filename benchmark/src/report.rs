//! Metric names, the run outcome, and everything printed or written
//! about it: the per-metric lines, the closing JSON line, the result
//! file with its environment manifest, and the self-check against
//! `BENCHMARK.json`.

use crate::stats;
use pbo_core::json::{self, push_str_literal};
use pbo_core::record::RunRecord;
use std::fmt::Write as _;
use std::path::Path;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["paper_uphes_q4", "acq_q16", "serve_journal", "serve_bo"];

/// End-to-end metrics, reported by every untraced run of every
/// workload: `(name, unit)`. Only metrics that stay steady across seeds
/// on all four workloads are gated here; the caller-side latencies vary
/// with a BO run's seed by up to threefold in process, so they are
/// reported per layer instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sims_in_budget", "count"),
    ("run_wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload.
/// A layer a workload bypasses reads 0 here, which is why every
/// bypassable layer is reported as a share, a count or a size, while
/// the time-valued entries are per-cycle engine times and probes that
/// every workload runs.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.fold_error_pct", "%"),
    ("client.requests_per_s", "1/s"),
    ("client.ask_p50_ms", "ms"),
    ("client.ask_tail_ms", "ms"),
    ("client.tell_p50_ms", "ms"),
    ("client.tell_tail_ms", "ms"),
    ("core.engine.best_objective", "objective"),
    ("core.engine.cycles", "count"),
    ("core.engine.cycle_ms", "ms"),
    ("core.engine.propose_ms", "ms"),
    ("core.engine.commit_ms", "ms"),
    ("core.engine.self_ms", "ms"),
    ("gp.fit_share", "%"),
    ("gp.full_fits", "count"),
    ("gp.mll_evals", "count"),
    ("gp.mll_eval_us", "us"),
    ("gp.predict_many_us", "us"),
    ("linalg.chol_ms", "ms"),
    ("acq.share", "%"),
    ("acq.restart_shortfall", "count"),
    ("problems.evals", "count"),
    ("problems.eval_us", "us"),
    ("server.requests", "count"),
    ("server.wire.ask_share", "%"),
    ("server.wire.tell_share", "%"),
    ("server.registry.persist_share", "%"),
    ("core.checkpoint.bytes_max", "bytes"),
    ("server.proto.request_bytes_p50", "bytes"),
    ("server.proto.reply_bytes_p50", "bytes"),
    ("server.idle_cpu_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its value, as measured.
    pub value: f64,
}

/// A named correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Failure detail, `None` when the check held.
    pub failure: Option<String>,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in [`END_TO_END`] order, or [`PER_LAYER`] order when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Operations attempted (asks + tells in process; every request
    /// sent when served).
    pub attempted: u64,
    /// Operations that failed: non-ok replies, transport errors and
    /// evaluation faults the engine absorbed.
    pub failed: u64,
    /// Correctness checks run after the timed phase.
    pub checks: Vec<Check>,
    /// Context for the result file (sample counts, percentiles used).
    pub notes: Vec<(&'static str, String)>,
    /// The folded per-layer table of a traced run.
    pub table: Option<String>,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, failure: Option<String>) {
        self.checks.push(Check {
            name: name.into(),
            failure,
        });
    }

    /// Record a check that holds when `ok`.
    pub fn check_that(
        &mut self,
        name: impl Into<String>,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        let failure = if ok { None } else { Some(detail()) };
        self.check(name, failure);
    }

    /// Check a finished run's record: DoE + Σq simulations, all finite.
    pub fn check_record(&mut self, label: &str, rec: &RunRecord) {
        let told: usize = rec.cycles.iter().map(|c| c.n_evals).sum();
        self.check_that(
            format!("{label}: simulations = DoE + sum of q"),
            rec.n_simulations() == rec.doe_size + told && told == rec.n_cycles() * rec.batch_size,
            || {
                format!(
                    "{} sims, DoE {}, {} cycles of q={}",
                    rec.n_simulations(),
                    rec.doe_size,
                    rec.n_cycles(),
                    rec.batch_size
                )
            },
        );
        self.check_that(
            format!("{label}: objectives finite"),
            rec.y_min.iter().all(|v| v.is_finite()),
            || "non-finite objective in y_min".into(),
        );
    }

    /// Every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failure.is_none())
    }

    /// Append a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Append a metric that may be missing (a percentile refused at
    /// smoke sizes).
    pub fn push_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.push(name, value);
        }
    }
}

/// The `p`-th percentile for a metric. A refused percentile fails the
/// run, except at smoke sizes, where the metric is left out instead.
pub fn metric_percentile(samples: &[f64], p: u32, smoke: bool) -> Result<Option<f64>, String> {
    match stats::percentile(samples, p) {
        Ok(v) => Ok(Some(v)),
        Err(_) if smoke => Ok(None),
        Err(e) => Err(e),
    }
}

/// Unit of a known metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// Check that a run produced exactly the metrics its mode must report,
/// each one finite.
pub fn validate_metrics(metrics: &[Metric], traced: bool) -> Result<(), String> {
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    if got != want {
        return Err(format!("metrics produced {got:?}, expected {want:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite ({})", m.name, m.value)),
        None => Ok(()),
    }
}

/// Whether a metric or workload name is made of `[A-Za-z0-9_.-]` only.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Self-check: the workloads and metrics this binary reports are
/// exactly those `BENCHMARK.json` declares, units included, and every
/// name is well formed.
pub fn check_benchmark_json(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = |key: &str, with_unit: bool| -> Result<Vec<(String, String)>, String> {
        let list = doc
            .require(key)?
            .as_array()
            .ok_or(format!("{key} must be a list"))?;
        list.iter()
            .map(|e| {
                let name = e.require("name")?.as_str().ok_or("name must be a string")?;
                let unit = if with_unit {
                    e.require("unit")?.as_str().ok_or("unit must be a string")?
                } else {
                    ""
                };
                Ok((name.to_string(), unit.to_string()))
            })
            .collect()
    };
    let same = |key: &str, got: Vec<(String, String)>, want: Vec<(&str, &str)>| {
        let mut got: Vec<(String, String)> = got;
        let mut want: Vec<(String, String)> = want
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        got.sort();
        want.sort();
        if let Some((bad, _)) = got.iter().find(|(n, _)| !valid_name(n)) {
            return Err(format!("{key}: name '{bad}' is not [A-Za-z0-9_.-]+"));
        }
        if got != want {
            return Err(format!(
                "{key} in BENCHMARK.json is {got:?}; this benchmark reports {want:?}"
            ));
        }
        Ok(())
    };
    same(
        "workloads",
        entries("workloads", false)?,
        WORKLOADS.iter().map(|w| (*w, "")).collect(),
    )?;
    same(
        "end_to_end",
        entries("end_to_end", true)?,
        END_TO_END.to_vec(),
    )?;
    same("per_layer", entries("per_layer", true)?, PER_LAYER.to_vec())
}

/// The `metric workload value unit` lines.
pub fn metric_lines(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "{} {workload} {:?} {}",
            m.name,
            m.value,
            unit_of(m.name)
        );
    }
    out
}

/// The closing JSON line: `correct`, `attempted`, `failed`, `metrics`.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, m.name);
        let _ = write!(out, ":{{\"value\":{:?},\"unit\":", m.value);
        push_str_literal(&mut out, unit_of(m.name));
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// `--repeat K`: each metric's median and quartiles over the repeats.
pub fn repeat_lines(workload: &str, runs: &[Vec<Metric>]) -> (String, Vec<Metric>) {
    let mut out = String::new();
    let mut medians = Vec::new();
    let Some(first) = runs.first() else {
        return (out, medians);
    };
    for (i, m) in first.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
        let (q1, q3) = stats::quartiles(&values);
        let median = stats::median(&values);
        let _ = writeln!(
            out,
            "{} {workload} median {median:?} q1 {q1:?} q3 {q3:?} {} (n={}, spread {:.2}%)",
            m.name,
            unit_of(m.name),
            values.len(),
            100.0 * stats::spread(&values)
        );
        medians.push(Metric {
            name: m.name,
            value: median,
        });
    }
    (out, medians)
}

/// The environment a result was measured in.
pub fn manifest() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("rustc", env("PBO_BENCH_RUSTC")),
        ("git_commit", env("PBO_BENCH_COMMIT")),
    ]
}

/// Settings of one invocation, echoed into the result file.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed of the first repeat.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Whether the smoke sizes ran.
    pub smoke: bool,
}

/// Serialize one workload's results (every repeat) as a JSON document.
pub fn result_json(info: &RunInfo, repeats: &[Outcome]) -> String {
    let mut out = String::from("{\"workload\":");
    push_str_literal(&mut out, info.workload);
    let _ = write!(
        out,
        ",\"seed\":{},\"seconds\":{:?},\"traced\":{},\"smoke\":{},\"environment\":{{",
        info.seed, info.seconds, info.traced, info.smoke
    );
    for (i, (k, v)) in manifest().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, k);
        out.push(':');
        push_str_literal(&mut out, v);
    }
    out.push_str("},\"repeats\":[");
    for (i, o) in repeats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            o.correct(),
            o.attempted,
            o.failed
        );
        for (j, m) in o.metrics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_str_literal(&mut out, m.name);
            let _ = write!(out, ":{:?}", m.value);
        }
        out.push_str("},\"checks\":[");
        for (j, c) in o.checks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_str_literal(&mut out, &c.name);
            let _ = write!(out, ",\"ok\":{}", c.failure.is_none());
            if let Some(f) = &c.failure {
                out.push_str(",\"failure\":");
                push_str_literal(&mut out, f);
            }
            out.push('}');
        }
        out.push_str("],\"notes\":{");
        for (j, (k, v)) in o.notes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_str_literal(&mut out, k);
            out.push(':');
            push_str_literal(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::json::Json;

    fn reparse(s: &str) -> Json {
        json::parse(s).expect("benchmark output must be valid JSON")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.extend(WORKLOADS);
        assert!(
            names.iter().all(|n| valid_name(n) && n.len() <= 64),
            "{names:?}"
        );
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be used once");
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name("bad name") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        check_benchmark_json(&path).unwrap();
    }

    #[test]
    fn summary_line_carries_counts_and_units() {
        let metrics = vec![Metric {
            name: "setup_s",
            value: 0.8127,
        }];
        let line = summary_line(true, 12, 0, &metrics);
        let v = reparse(&line);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(12));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn validate_metrics_rejects_missing_and_non_finite() {
        let mut ms: Vec<Metric> = END_TO_END
            .iter()
            .map(|(n, _)| Metric {
                name: n,
                value: 1.0,
            })
            .collect();
        validate_metrics(&ms, false).unwrap();
        assert!(validate_metrics(&ms, true).is_err());
        ms[2].value = f64::NAN;
        assert!(validate_metrics(&ms, false).is_err());
        ms.pop();
        assert!(validate_metrics(&ms, false).is_err());
    }

    #[test]
    fn repeat_lines_report_median_and_quartiles() {
        let runs: Vec<Vec<Metric>> = (1..=5)
            .map(|v| {
                vec![Metric {
                    name: "run_wall_s",
                    value: f64::from(v),
                }]
            })
            .collect();
        let (text, medians) = repeat_lines("acq_q16", &runs);
        assert_eq!(medians[0].value, 3.0);
        assert!(
            text.contains("median 3.0 q1 1.5 q3 4.5 s (n=5, spread 100.00%)"),
            "{text}"
        );
    }

    #[test]
    fn result_json_parses() {
        let mut o = Outcome::default();
        o.push("setup_s", 1.0);
        o.check("ok", None);
        o.check("bad", Some("detail \"quoted\"".into()));
        o.notes.push(("ask_samples", "3".into()));
        let info = RunInfo {
            workload: "acq_q16",
            seed: 1,
            seconds: 20.0,
            traced: false,
            smoke: true,
        };
        let v = reparse(&result_json(&info, &[o]));
        assert_eq!(v.get("workload").and_then(Json::as_str), Some("acq_q16"));
        assert!(v.get("environment").and_then(|e| e.get("nproc")).is_some());
    }
}
