//! The repository benchmark. See `benchmark/README.md`.
//!
//! `pbo-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! [--traced] [--repeat K] [--smoke] [--server-bin PATH] [--out-dir DIR]`
//!
//! Prints one `metric workload value unit` line per metric and, last,
//! one JSON line with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when a correctness check fails or a name drifts from
//! `BENCHMARK.json`.

mod inproc;
mod probes;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;

use report::{Outcome, RunInfo, WORKLOADS};
use std::path::{Path, PathBuf};
use trace::{Fold, Span};

/// Settings shared by every workload of one invocation.
pub struct Ctx {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window: whole units of work run until the next one
    /// would overrun it (at least one always runs).
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Small sizes for a quick end-to-end pass.
    pub smoke: bool,
    /// The shipped `pbo-server` binary.
    pub server_bin: PathBuf,
    /// Where results, spans and scratch session directories go.
    pub out_dir: PathBuf,
    /// Workload being run (names the output files).
    pub workload: &'static str,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    smoke: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: pbo-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--traced] [--repeat K] [--smoke] [--server-bin PATH] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        repeat: 1,
        smoke: false,
        server_bin: PathBuf::from("target/pbo-benchmark/release/pbo-server"),
        out_dir: PathBuf::from("target/pbo-benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|n| **n == w.as_str())
                    .ok_or_else(|| format!("unknown workload '{w}'; one of {WORKLOADS:?}"))?;
                a.workloads = vec![w];
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a u64".to_string())?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds: not a number".to_string())?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => {
                a.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat: not a count".to_string())?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            "--server-bin" => a.server_bin = PathBuf::from(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pbo-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pbo-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Run every requested workload; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    report::check_benchmark_json(Path::new("BENCHMARK.json"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut repeats: Vec<Outcome> = Vec::new();
        for i in 0..args.repeat {
            let ctx = Ctx {
                seed: args.seed + i as u64,
                seconds: args.seconds,
                traced: args.traced,
                smoke: args.smoke,
                server_bin: args.server_bin.clone(),
                out_dir: args.out_dir.clone(),
                workload,
            };
            let outcome = match workload {
                "paper_uphes_q4" | "acq_q16" => inproc::run(workload, &ctx)?,
                _ => serve::run(workload, &ctx)?,
            };
            if !args.smoke {
                report::validate_metrics(&outcome.metrics, args.traced)?;
            }
            if let Some(table) = &outcome.table {
                println!("per-layer fold, {workload} seed {}:\n{table}", ctx.seed);
            }
            for c in outcome.checks.iter().filter(|c| c.failure.is_some()) {
                eprintln!(
                    "check failed [{workload}]: {}: {}",
                    c.name,
                    c.failure.as_deref().unwrap_or("")
                );
            }
            print!("{}", report::metric_lines(workload, &outcome.metrics));
            repeats.push(outcome);
        }
        let info = RunInfo {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            smoke: args.smoke,
        };
        let suffix = if args.traced { "-traced" } else { "" };
        let path = args
            .out_dir
            .join(format!("result-{workload}-s{}{suffix}.json", args.seed));
        std::fs::write(&path, report::result_json(&info, &repeats) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        let correct = repeats.iter().all(Outcome::correct);
        all_correct &= correct;
        let attempted = repeats.iter().map(|o| o.attempted).sum();
        let failed = repeats.iter().map(|o| o.failed).sum();
        let metrics = if args.repeat > 1 {
            let runs: Vec<_> = repeats.iter().map(|o| o.metrics.clone()).collect();
            let (lines, medians) = report::repeat_lines(workload, &runs);
            print!("{lines}");
            medians
        } else {
            repeats[0].metrics.clone()
        };
        println!(
            "{}",
            report::summary_line(correct, attempted, failed, &metrics)
        );
    }
    Ok(all_correct)
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Write a traced run's spans as JSONL into the output directory.
pub fn write_spans(ctx: &Ctx, spans: &[Span]) -> Result<(), String> {
    let path = ctx
        .out_dir
        .join(format!("spans-{}-s{}.jsonl", ctx.workload, ctx.seed));
    trace::write_jsonl(&path, spans, ctx.workload)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Estimated tracing overhead: spans recorded × measured cost of one
/// span, as a share of the traced wall.
pub fn overhead_pct(spans: &[Span], root_ns: u64) -> f64 {
    100.0 * spans.len() as f64 * trace::ns_per_span() / root_ns.max(1) as f64
}

/// How far the summed self times miss the traced wall, as a share of it.
pub fn fold_error_pct(fold: &Fold) -> f64 {
    100.0 * (fold.self_sum_ns() as f64 - fold.root_ns as f64).abs() / fold.root_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "acq_q16",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec!["acq_q16"]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.traced);
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.workloads.len(), 4);
        assert!(!a.traced && a.repeat == 1);
    }

    #[test]
    fn rejects_malformed_flags() {
        for bad in [
            vec!["--workload", "nope"],
            vec!["--trace", "2"],
            vec!["--seconds", "0"],
            vec!["--repeat", "0"],
            vec!["--seed"],
            vec!["--frobnicate"],
        ] {
            assert!(parse_args(&args(&bad)).is_err(), "{bad:?}");
        }
    }
}
