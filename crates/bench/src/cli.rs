//! `repro` command-line parsing, factored out of the binary so the
//! trailing-flag and malformed-value cases are unit-testable.
//!
//! The seed harness panicked on `repro table4 --runs` (index out of
//! bounds) and on `--runs x` / `--batches 2,,4` (`.expect` on parse);
//! every malformed input now surfaces as `Err` and the binary prints
//! the usage message and exits with status 2.

use crate::profiles::Profile;
use std::path::{Path, PathBuf};

/// Usage text printed on any argument error (and for `repro help`).
pub const USAGE: &str = "usage: repro <artifact> [options]

artifacts: table1 table2 table3 table4 table5 table6 table7
           fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
           uphes baseline calibrate ablation extensions all

options:
  --profile fast|paper|smoke  experiment profile (default fast)
  --runs N                    repetitions per grid cell
  --batches 1,2,4             batch sizes to run
  --minutes M                 virtual-time budget override
  --out DIR                   output directory (default results/;
                              created if missing)
  --jobs N                    parallel orchestrator workers (default 1)
  --resume                    skip runs already checkpointed under
                              <out>/checkpoints
  --trace                     write a JSONL engine-event trace per run";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Requested artifact (`help` when absent).
    pub artifact: String,
    /// Experiment profile.
    pub profile: Profile,
    /// Repetitions override.
    pub runs: Option<usize>,
    /// Batch-size override.
    pub batches: Option<Vec<usize>>,
    /// Virtual-budget override \[minutes\].
    pub minutes: Option<f64>,
    /// Output directory.
    pub out: PathBuf,
    /// Orchestrator worker count.
    pub jobs: usize,
    /// Resume from existing checkpoints.
    pub resume: bool,
    /// Write per-run JSONL event traces.
    pub trace: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            artifact: "help".into(),
            profile: Profile::Fast,
            runs: None,
            batches: None,
            minutes: None,
            out: PathBuf::from("results"),
            jobs: 1,
            resume: false,
            trace: false,
        }
    }
}

/// Parse `args` (without the program name). Every malformed input —
/// a flag missing its value, an unparsable value, an unknown option —
/// is an `Err` with a one-line description.
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    if let Some(first) = args.first() {
        opts.artifact = first.clone();
    }
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--resume" => opts.resume = true,
            "--trace" => opts.trace = true,
            "--profile" | "--runs" | "--batches" | "--minutes" | "--out" | "--jobs" => {
                i += 1;
                let value = args.get(i).ok_or_else(|| format!("{flag} needs a value"))?.as_str();
                match flag {
                    "--profile" => {
                        opts.profile = Profile::from_name(value)
                            .ok_or_else(|| format!("unknown profile '{value}'"))?;
                    }
                    "--runs" => {
                        opts.runs = Some(parse_count(flag, value)?);
                    }
                    "--batches" => {
                        opts.batches = Some(parse_batches(value)?);
                    }
                    "--minutes" => {
                        let m: f64 = value
                            .parse()
                            .map_err(|_| format!("--minutes: invalid number '{value}'"))?;
                        if m.is_nan() || m <= 0.0 {
                            return Err(format!("--minutes: must be positive, got '{value}'"));
                        }
                        // The budget is `minutes × 60` virtual seconds;
                        // it must stay finite (1e308 × 60 overflows).
                        if !(m * 60.0).is_finite() {
                            return Err(format!("--minutes: must be finite, got '{value}'"));
                        }
                        opts.minutes = Some(m);
                    }
                    "--out" => {
                        opts.out = PathBuf::from(value);
                    }
                    "--jobs" => {
                        opts.jobs = parse_count(flag, value)?;
                    }
                    _ => unreachable!(),
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    Ok(opts)
}

fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|_| format!("{flag}: invalid count '{value}'"))?;
    if n == 0 {
        return Err(format!("{flag}: must be at least 1"));
    }
    Ok(n)
}

fn parse_batches(value: &str) -> Result<Vec<usize>, String> {
    let batches: Vec<usize> = value
        .split(',')
        .map(|s| {
            let s = s.trim();
            if s.is_empty() {
                return Err(format!("--batches: empty element in '{value}'"));
            }
            let q: usize = s.parse().map_err(|_| format!("--batches: invalid batch size '{s}'"))?;
            if q == 0 {
                return Err("--batches: batch sizes must be at least 1".to_string());
            }
            Ok(q)
        })
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Err("--batches: needs at least one batch size".to_string());
    }
    Ok(batches)
}

/// Ensure the output directory exists and is writable: create missing
/// components, then probe with a temporary file so a read-only target
/// fails here with a clean message instead of at the first CSV write.
pub fn prepare_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
    let probe = dir.join(format!(".repro-write-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("output directory {} is not writable: {e}", dir.display()))?;
    std::fs::remove_file(&probe)
        .map_err(|e| format!("cannot clean probe file in {}: {e}", dir.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_full_flag_set() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.artifact, "help");
        assert_eq!(o.jobs, 1);
        let o = parse_args(&args(&[
            "table7",
            "--profile",
            "smoke",
            "--runs",
            "5",
            "--batches",
            "1,2,4",
            "--minutes",
            "2.5",
            "--out",
            "tmp/x",
            "--jobs",
            "4",
            "--resume",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(o.artifact, "table7");
        assert_eq!(o.profile, Profile::Smoke);
        assert_eq!(o.runs, Some(5));
        assert_eq!(o.batches, Some(vec![1, 2, 4]));
        assert_eq!(o.minutes, Some(2.5));
        assert_eq!(o.out, PathBuf::from("tmp/x"));
        assert_eq!(o.jobs, 4);
        assert!(o.resume);
        assert!(o.trace);
    }

    /// Regression: `repro table4 --runs` used to index out of bounds.
    #[test]
    fn trailing_flag_is_an_error_not_a_panic() {
        for flag in ["--runs", "--batches", "--minutes", "--out", "--profile", "--jobs"] {
            let e = parse_args(&args(&["table4", flag])).unwrap_err();
            assert!(e.contains("needs a value"), "{flag}: {e}");
        }
    }

    /// Regression: malformed values used to panic via `.expect`.
    #[test]
    fn malformed_values_are_errors_not_panics() {
        assert!(parse_args(&args(&["t", "--runs", "x"])).unwrap_err().contains("invalid count"));
        assert!(parse_args(&args(&["t", "--runs", "0"])).unwrap_err().contains("at least 1"));
        assert!(parse_args(&args(&["t", "--batches", "2,,4"]))
            .unwrap_err()
            .contains("empty element"));
        assert!(parse_args(&args(&["t", "--batches", "a"]))
            .unwrap_err()
            .contains("invalid batch size"));
        assert!(parse_args(&args(&["t", "--minutes", "fast"]))
            .unwrap_err()
            .contains("invalid number"));
        assert!(parse_args(&args(&["t", "--minutes", "-3"])).unwrap_err().contains("positive"));
        for huge in ["inf", "1e308"] {
            assert!(parse_args(&args(&["t", "--minutes", huge])).unwrap_err().contains("finite"));
        }
        assert!(parse_args(&args(&["t", "--profile", "warp"]))
            .unwrap_err()
            .contains("unknown profile"));
        assert!(parse_args(&args(&["t", "--frobnicate"])).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args(&["t", "--jobs", "0"])).unwrap_err().contains("at least 1"));
    }

    #[test]
    fn out_dir_is_created_recursively() {
        let dir = std::env::temp_dir()
            .join(format!("pbo-cli-{}", std::process::id()))
            .join("deep/nested/out");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
        assert!(!dir.exists());
        prepare_out_dir(&dir).unwrap();
        assert!(dir.is_dir());
        // Idempotent on an existing directory.
        prepare_out_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn unwritable_out_dir_reports_cleanly() {
        // A path routed through a regular file is unwritable for any
        // user (read-only permission bits would not stop root, which is
        // how CI containers run).
        let root = std::env::temp_dir().join(format!("pbo-cli-ro-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("plain-file");
        std::fs::write(&file, b"x").unwrap();
        let err = prepare_out_dir(&file.join("sub")).unwrap_err();
        assert!(err.contains("cannot create output directory"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(root);
    }
}
