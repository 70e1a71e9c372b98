//! `pbo-server` command-line parsing, factored out of the binary so
//! every malformed input is unit-testable (same discipline as the
//! `repro` CLI: no panics, `Err` + usage + exit status 2).

use crate::server::ServerConfig;
use pbo_core::algorithms::AlgorithmKind;
use pbo_core::budget::Budget;
use pbo_core::session::{ProblemSpec, SessionConfig, SessionProfile};
use std::path::PathBuf;
use std::time::Duration;

/// Usage text printed on any argument error (and for `pbo-server help`).
pub const USAGE: &str = "usage: pbo-server <command> [options]

commands:
  serve      run the session daemon
  status     query a running daemon
  drive      drive one session end to end (test client)
  validate   check session checkpoints and record files offline
  gc         evict finished sessions' checkpoints offline

serve options:
  --addr HOST:PORT   listen address (default 127.0.0.1:7341; port 0
                     picks an ephemeral port)
  --dir DIR          session checkpoint directory (default pbo-sessions)
  --addr-file FILE   write the bound address to FILE once listening
  --idle-timeout-s N close connections idle for N seconds with a typed
                     idle_timeout error (default 300, minimum 1)
  --max-line-bytes N answer request lines over N bytes with a typed
                     line_too_long error (default 1048576, minimum 1024)

status options:
  --addr HOST:PORT   daemon address (default 127.0.0.1:7341)
  --id ID            show one session instead of the server summary

drive options:
  --addr HOST:PORT   daemon address (default 127.0.0.1:7341)
  --id ID            session id (required)
  --problem NAME     benchmark, e.g. ackley-3d (default ackley-3d)
  --algo NAME        algorithm (default kb-q-ego)
  --cycles N         cycle budget (default 3)
  --q N              batch size (default 2)
  --init N           initial design size (default 6)
  --seed N           run seed (default 0)
  --profile NAME     session profile test|standard (default test)
  --stop-after K     stop after K tells without finishing (crash drills)
  --record-out FILE  write the finished record line to FILE
  --local            run the same config in-process instead of against
                     a daemon (reference for byte-for-byte diffs)

validate options:
  [DIR] | --dir DIR  checkpoint directory to scan (default pbo-sessions)

gc options:
  --dir DIR          checkpoint directory (default pbo-sessions)
  --max-age-secs N   keep finished sessions checkpointed within the
                     last N seconds
  --keep N           always keep the N newest finished sessions
  (at least one of --max-age-secs / --keep is required; in-flight and
  quarantined-corrupt sessions are never evicted)";

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Listen address.
    pub addr: String,
    /// Session checkpoint directory.
    pub dir: PathBuf,
    /// Optional file to write the bound address to.
    pub addr_file: Option<PathBuf>,
    /// Containment limits (`--idle-timeout-s`, `--max-line-bytes`).
    pub config: ServerConfig,
}

/// Parsed `status` options.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusOpts {
    /// Daemon address.
    pub addr: String,
    /// Session to inspect (server summary when absent).
    pub id: Option<String>,
}

/// Parsed `drive` options.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOpts {
    /// Daemon address.
    pub addr: String,
    /// Session id.
    pub id: String,
    /// Benchmark name.
    pub problem: String,
    /// Algorithm name.
    pub algo: String,
    /// Cycle budget.
    pub cycles: usize,
    /// Batch size.
    pub q: usize,
    /// Initial design size.
    pub init: usize,
    /// Run seed.
    pub seed: u64,
    /// Session profile.
    pub profile: SessionProfile,
    /// Stop after this many tells (crash drills).
    pub stop_after: Option<usize>,
    /// Write the finished record line here.
    pub record_out: Option<PathBuf>,
    /// Run in-process instead of against a daemon.
    pub local: bool,
}

impl DriveOpts {
    /// The benchmark this drive evaluates.
    pub fn resolve_problem(&self) -> Result<pbo_problems::SyntheticFn, String> {
        crate::problems::resolve_problem(&self.problem)
            .ok_or_else(|| format!("--problem: unknown benchmark '{}'", self.problem))
    }

    /// The session config this drive creates (also the in-process
    /// reference config for `--local`).
    pub fn session_config(&self) -> Result<SessionConfig, String> {
        let algorithm = AlgorithmKind::from_name(&self.algo)
            .ok_or_else(|| format!("--algo: unknown algorithm '{}'", self.algo))?;
        let problem = self.resolve_problem()?;
        Ok(SessionConfig {
            algorithm,
            problem: ProblemSpec::of(&problem),
            budget: Budget::cycles(self.cycles, self.q).with_initial_samples(self.init),
            profile: self.profile,
            seed: self.seed,
        })
    }
}

/// Parsed `gc` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcOpts {
    /// Checkpoint directory to collect.
    pub dir: PathBuf,
    /// Age shield: keep finished sessions at most this old (seconds).
    pub max_age_secs: Option<u64>,
    /// Count shield: always keep the N newest finished sessions.
    pub keep: Option<usize>,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// `pbo-server serve`.
    Serve(ServeOpts),
    /// `pbo-server status`.
    Status(StatusOpts),
    /// `pbo-server drive`.
    Drive(DriveOpts),
    /// `pbo-server validate`.
    Validate {
        /// Checkpoint directory to scan.
        dir: PathBuf,
    },
    /// `pbo-server gc`.
    Gc(GcOpts),
    /// `pbo-server help` (or no command).
    Help,
}

const DEFAULT_ADDR: &str = "127.0.0.1:7341";
const DEFAULT_DIR: &str = "pbo-sessions";

/// Parse `args` (without the program name). Every malformed input —
/// a flag missing its value, an unparsable value, an unknown option or
/// command — is an `Err` with a one-line description.
pub fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let Some(command) = args.first() else { return Ok(Cmd::Help) };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Cmd::Help),
        "serve" => parse_serve(rest).map(Cmd::Serve),
        "status" => parse_status(rest).map(Cmd::Status),
        "drive" => parse_drive(rest).map(Cmd::Drive),
        "validate" => parse_validate(rest),
        "gc" => parse_gc(rest).map(Cmd::Gc),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Iterate `flag value` pairs, handing each to `set`; `set` returns
/// false for flags it does not know. Flags listed in `bools` take no
/// value — `set` receives them with an empty value.
fn parse_flags(
    args: &[String],
    bools: &[&str],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = if bools.contains(&flag) {
            ""
        } else {
            i += 1;
            args.get(i).ok_or_else(|| format!("{flag} needs a value"))?
        };
        if !set(flag, value)? {
            return Err(format!("unknown option '{flag}'"));
        }
        i += 1;
    }
    Ok(())
}

fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|_| format!("{flag}: invalid count '{value}'"))?;
    if n == 0 {
        return Err(format!("{flag}: must be at least 1"));
    }
    Ok(n)
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts {
        addr: DEFAULT_ADDR.into(),
        dir: PathBuf::from(DEFAULT_DIR),
        addr_file: None,
        config: ServerConfig::default(),
    };
    parse_flags(args, &[], |flag, value| {
        match flag {
            "--addr" => opts.addr = value.into(),
            "--dir" => opts.dir = PathBuf::from(value),
            "--addr-file" => opts.addr_file = Some(PathBuf::from(value)),
            "--idle-timeout-s" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{flag}: invalid seconds '{value}'"))?;
                if n == 0 {
                    return Err(format!("{flag}: must be at least 1 second"));
                }
                opts.config.idle_timeout = Duration::from_secs(n);
            }
            "--max-line-bytes" => {
                let n = parse_count(flag, value)?;
                // Below this even a bare request envelope cannot fit;
                // the flag exists to bound hostile lines, not to make
                // the protocol unusable.
                if n < 1024 {
                    return Err(format!("{flag}: must be at least 1024"));
                }
                opts.config.max_line_bytes = n;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(opts)
}

fn parse_status(args: &[String]) -> Result<StatusOpts, String> {
    let mut opts = StatusOpts { addr: DEFAULT_ADDR.into(), id: None };
    parse_flags(args, &[], |flag, value| {
        match flag {
            "--addr" => opts.addr = value.into(),
            "--id" => opts.id = Some(value.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(opts)
}

fn parse_drive(args: &[String]) -> Result<DriveOpts, String> {
    let mut opts = DriveOpts {
        addr: DEFAULT_ADDR.into(),
        id: String::new(),
        problem: "ackley-3d".into(),
        algo: "kb-q-ego".into(),
        cycles: 3,
        q: 2,
        init: 6,
        seed: 0,
        profile: SessionProfile::Test,
        stop_after: None,
        record_out: None,
        local: false,
    };
    parse_flags(
        args,
        &["--local"],
        |flag, value| {
            match flag {
                "--local" => opts.local = true,
                "--addr" => opts.addr = value.into(),
                "--id" => opts.id = value.into(),
                "--problem" => opts.problem = value.into(),
                "--algo" => opts.algo = value.into(),
                "--cycles" => opts.cycles = parse_count(flag, value)?,
                "--q" => opts.q = parse_count(flag, value)?,
                "--init" => opts.init = parse_count(flag, value)?,
                "--seed" => {
                    opts.seed =
                        value.parse().map_err(|_| format!("--seed: invalid seed '{value}'"))?;
                }
                "--profile" => {
                    opts.profile = SessionProfile::from_name(value)
                        .ok_or_else(|| format!("--profile: unknown profile '{value}'"))?;
                }
                "--stop-after" => {
                    let k: usize = value
                        .parse()
                        .map_err(|_| format!("--stop-after: invalid count '{value}'"))?;
                    opts.stop_after = Some(k);
                }
                "--record-out" => opts.record_out = Some(PathBuf::from(value)),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    if opts.id.is_empty() {
        return Err("drive needs --id".into());
    }
    // Resolve eagerly so bad names fail at parse time, not mid-drive.
    opts.session_config()?;
    Ok(opts)
}

fn parse_validate(args: &[String]) -> Result<Cmd, String> {
    // `validate DIR` and `validate --dir DIR` both work; a bare
    // positional is the natural shell spelling.
    if let [dir] = args {
        if !dir.starts_with('-') {
            return Ok(Cmd::Validate { dir: PathBuf::from(dir) });
        }
    }
    let mut dir = PathBuf::from(DEFAULT_DIR);
    parse_flags(args, &[], |flag, value| {
        match flag {
            "--dir" => dir = PathBuf::from(value),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Cmd::Validate { dir })
}

fn parse_gc(args: &[String]) -> Result<GcOpts, String> {
    let mut opts =
        GcOpts { dir: PathBuf::from(DEFAULT_DIR), max_age_secs: None, keep: None };
    parse_flags(args, &[], |flag, value| {
        match flag {
            "--dir" => opts.dir = PathBuf::from(value),
            "--max-age-secs" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("--max-age-secs: invalid seconds '{value}'"))?;
                opts.max_age_secs = Some(n);
            }
            "--keep" => {
                let n: usize =
                    value.parse().map_err(|_| format!("--keep: invalid count '{value}'"))?;
                opts.keep = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // Requiring an explicit shield keeps a bare `pbo-server gc` from
    // deleting every finished session by default.
    if opts.max_age_secs.is_none() && opts.keep.is_none() {
        return Err("gc needs --max-age-secs and/or --keep".into());
    }
    Ok(opts)
}

/// Run the in-process reference for a drive config: the same
/// `RunRecord` a fully remote session must reproduce byte for byte.
pub fn run_local_reference(opts: &DriveOpts) -> Result<String, String> {
    let cfg = opts.session_config()?;
    let problem = opts.resolve_problem()?;
    let record = pbo_core::algorithms::run_algorithm_observed(
        cfg.algorithm,
        &problem,
        &cfg.budget,
        cfg.profile.algo_config(),
        cfg.seed,
        pbo_core::observe::NullObserver,
    )
    .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(record.to_json_line())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_full_flag_sets() {
        assert_eq!(parse_args(&[]).unwrap(), Cmd::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Cmd::Help);

        let Cmd::Serve(o) = parse_args(&args(&[
            "serve", "--addr", "127.0.0.1:0", "--dir", "tmp/s", "--addr-file", "tmp/a",
            "--idle-timeout-s", "30", "--max-line-bytes", "65536",
        ]))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.dir, PathBuf::from("tmp/s"));
        assert_eq!(o.addr_file, Some(PathBuf::from("tmp/a")));
        assert_eq!(o.config.idle_timeout, Duration::from_secs(30));
        assert_eq!(o.config.max_line_bytes, 65536);
        assert_eq!(o.config.max_conns, ServerConfig::default().max_conns);

        let Cmd::Serve(o) = parse_args(&args(&["serve"])).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(o.config, ServerConfig::default());

        let Cmd::Status(o) =
            parse_args(&args(&["status", "--addr", "h:1", "--id", "s7"])).unwrap()
        else {
            panic!("expected status")
        };
        assert_eq!(o.id.as_deref(), Some("s7"));

        let Cmd::Drive(o) = parse_args(&args(&[
            "drive", "--id", "s1", "--problem", "schwefel-2d", "--algo", "turbo", "--cycles",
            "5", "--q", "3", "--init", "8", "--seed", "42", "--profile", "standard",
            "--stop-after", "2", "--record-out", "r.json", "--local",
        ]))
        .unwrap() else {
            panic!("expected drive")
        };
        assert_eq!(o.algo, "turbo");
        assert_eq!(o.cycles, 5);
        assert_eq!(o.q, 3);
        assert_eq!(o.seed, 42);
        assert_eq!(o.profile, SessionProfile::Standard);
        assert_eq!(o.stop_after, Some(2));
        assert!(o.local);
        let cfg = o.session_config().unwrap();
        assert_eq!(cfg.problem.name, "schwefel-2d");

        let Cmd::Validate { dir } = parse_args(&args(&["validate", "--dir", "x"])).unwrap()
        else {
            panic!("expected validate")
        };
        assert_eq!(dir, PathBuf::from("x"));
        let Cmd::Validate { dir } = parse_args(&args(&["validate", "y"])).unwrap() else {
            panic!("expected validate")
        };
        assert_eq!(dir, PathBuf::from("y"));
    }

    #[test]
    fn gc_requires_an_explicit_shield() {
        let Cmd::Gc(o) = parse_args(&args(&[
            "gc", "--dir", "tmp/g", "--max-age-secs", "3600", "--keep", "4",
        ]))
        .unwrap() else {
            panic!("expected gc")
        };
        assert_eq!(o.dir, PathBuf::from("tmp/g"));
        assert_eq!(o.max_age_secs, Some(3600));
        assert_eq!(o.keep, Some(4));

        let Cmd::Gc(o) = parse_args(&args(&["gc", "--keep", "0"])).unwrap() else {
            panic!("expected gc")
        };
        assert_eq!(o.dir, PathBuf::from(DEFAULT_DIR));
        assert_eq!(o.keep, Some(0));

        // A bare `gc` would otherwise evict every finished session.
        assert!(parse_args(&args(&["gc"])).is_err());
        assert!(parse_args(&args(&["gc", "--dir", "tmp/g"])).is_err());
        assert!(parse_args(&args(&["gc", "--max-age-secs", "soon"])).is_err());
        assert!(parse_args(&args(&["gc", "--keep", "-1"])).is_err());
    }

    #[test]
    fn trailing_flags_are_errors_not_panics() {
        for argv in [
            vec!["serve", "--addr"],
            vec!["status", "--id"],
            vec!["drive", "--id", "s", "--cycles"],
            vec!["validate", "--dir"],
        ] {
            let e = parse_args(&args(&argv)).unwrap_err();
            assert!(e.contains("needs a value"), "{argv:?}: {e}");
        }
    }

    #[test]
    fn malformed_values_are_errors_not_panics() {
        let base = ["drive", "--id", "s"];
        let cases: &[(&[&str], &str)] = &[
            (&["--cycles", "x"], "invalid count"),
            (&["--cycles", "0"], "at least 1"),
            (&["--q", "nope"], "invalid count"),
            (&["--seed", "-1"], "invalid seed"),
            (&["--profile", "warp"], "unknown profile"),
            (&["--problem", "warp-3d"], "unknown benchmark"),
            (&["--algo", "sgd"], "unknown algorithm"),
            (&["--frobnicate", "v"], "unknown option"),
        ];
        for (extra, want) in cases {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            let e = parse_args(&args(&argv)).unwrap_err();
            assert!(e.contains(want), "{argv:?}: {e}");
        }
        assert!(parse_args(&args(&["drive"])).unwrap_err().contains("needs --id"));
        assert!(parse_args(&args(&["frobnicate"])).unwrap_err().contains("unknown command"));
    }

    #[test]
    fn serve_front_flags_are_validated() {
        let cases: &[(&[&str], &str)] = &[
            (&["--workers", "2"], "unknown option"),
            (&["--idle-timeout-s", "0"], "at least 1 second"),
            (&["--idle-timeout-s", "-5"], "invalid seconds"),
            (&["--idle-timeout-s", "soon"], "invalid seconds"),
            (&["--max-line-bytes", "512"], "at least 1024"),
            (&["--max-line-bytes", "0"], "at least 1"),
            (&["--max-line-bytes", "big"], "invalid count"),
        ];
        for (extra, want) in cases {
            let mut argv = vec!["serve"];
            argv.extend_from_slice(extra);
            let e = parse_args(&args(&argv)).unwrap_err();
            assert!(e.contains(want), "{argv:?}: {e}");
        }
        // The floor itself is accepted.
        assert!(parse_args(&args(&["serve", "--max-line-bytes", "1024"])).is_ok());
        assert!(parse_args(&args(&["serve", "--idle-timeout-s", "1"])).is_ok());
    }
}
