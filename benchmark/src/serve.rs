//! The served workloads: the shipped `pbo-server` binary in a child
//! process with default flags, driven through the unmodified
//! `pbo_server::client::Client`.
//!
//! Load: two connection threads, each owning one connection and eight
//! sessions it drives round-robin. Ask/tell is a closed loop by
//! construction — a session cannot tell before its ask is answered — so
//! each connection waits for every reply before sending its next
//! request.
//!
//! A traced run then replays the exact request sequence (same sessions,
//! seeds and told values) in process on one thread: through
//! `server::dispatch` on a persistent registry and on an in-memory one,
//! and through `SessionState` directly, which is how the per-layer split
//! is measured without any code inside the program.

use crate::probes;
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::{self, EngineCounts, EventSpans, Tracer};
use crate::Ctx;
use pbo_core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo_core::budget::Budget;
use pbo_core::checkpoint::atomic_write;
use pbo_core::json::Json;
use pbo_core::observe::NullObserver;
use pbo_core::record::RunRecord;
use pbo_core::session::{ProblemSpec, SessionConfig, SessionProfile, SessionState};
use pbo_linalg::Matrix;
use pbo_problems::{Problem, SyntheticFn};
use pbo_sampling::seed::derive;
use pbo_server::client::{Client, RpcError};
use pbo_server::proto;
use pbo_server::registry::Registry;
use pbo_server::server::dispatch;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and load threads).
const CONNS: usize = 2;

/// Server start-ups timed per run for the `setup_s` median.
const SETUPS: usize = 3;

/// How long a traced run holds both connections open and idle while
/// the server's CPU use is measured.
const IDLE_WINDOW: Duration = Duration::from_secs(5);

/// Tail percentile reported as `*_tail_ms`.
const TAIL: u32 = 95;

/// Batch size of every served session.
const Q: usize = 4;

/// One served workload: every session runs the same configuration
/// with its own seed.
struct Spec {
    algorithm: AlgorithmKind,
    doe: usize,
    cycles: usize,
    sessions_per_conn: usize,
}

fn spec(workload: &str, smoke: bool) -> Result<Spec, String> {
    let (algorithm, doe, cycles) = match (workload, smoke) {
        ("serve_journal", false) => (AlgorithmKind::RandomSearch, 1024, 16),
        ("serve_journal", true) => (AlgorithmKind::RandomSearch, 64, 2),
        ("serve_bo", false) => (AlgorithmKind::KbQEgo, 64, 15),
        ("serve_bo", true) => (AlgorithmKind::KbQEgo, 16, 2),
        (other, _) => return Err(format!("not a served workload: {other}")),
    };
    Ok(Spec {
        algorithm,
        doe,
        cycles,
        sessions_per_conn: if smoke { 2 } else { 8 },
    })
}

fn problem() -> SyntheticFn {
    SyntheticFn::ackley(12)
}

impl Spec {
    fn config(&self, seed: u64) -> SessionConfig {
        SessionConfig {
            algorithm: self.algorithm,
            problem: ProblemSpec::of(&problem()),
            budget: Budget::cycles(self.cycles, Q).with_initial_samples(self.doe),
            profile: SessionProfile::Test,
            seed,
        }
    }
}

/// The `pbo-server serve` child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start a daemon on an ephemeral port with default flags and wait
    /// until it listens.
    fn spawn(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let addr_file = dir.with_extension("addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--dir"])
            .arg(dir)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // The address file is written atomically, so a complete line
            // means the listener is bound.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("pbo-server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("pbo-server did not start listening within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to drain and exit, and wait for it.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => return Err("pbo-server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reaps the child on every path; after a clean stop both calls
        // are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request the load generator sent, kept for the replay.
enum Op {
    Create {
        id: String,
        cfg: SessionConfig,
    },
    Ask {
        id: String,
    },
    Tell {
        id: String,
        turn: usize,
        values: Vec<f64>,
    },
}

impl Op {
    fn line(&self) -> String {
        match self {
            Op::Create { id, cfg } => proto::encode_create(id, cfg),
            Op::Ask { id } => proto::encode_ask(id),
            Op::Tell { id, turn, values } => proto::encode_tell(id, *turn, values),
        }
    }
}

/// A session driven by one connection.
struct Session {
    id: String,
    cfg: SessionConfig,
    done: bool,
    failed: bool,
    /// Keep the unit-cube inputs and values told (probe data).
    keep_data: bool,
    x_unit: Vec<Vec<f64>>,
    y: Vec<f64>,
}

/// What one connection thread observed.
#[derive(Default)]
struct ConnLog {
    ops: Vec<(u64, Op)>,
    asks_ms: Vec<f64>,
    tells_ms: Vec<f64>,
    requests: u64,
    failed: u64,
    non_finite: u64,
    evals: u64,
    eval_ns: u64,
}

fn session(spec: &Spec, round: usize, conn: usize, k: usize, seed: u64) -> Session {
    let index = (round * CONNS + conn) * spec.sessions_per_conn + k;
    Session {
        id: format!("r{round}-c{conn}-s{k}"),
        cfg: spec.config(derive(seed, index as u64)),
        done: false,
        failed: false,
        keep_data: index == 0,
        x_unit: Vec::new(),
        y: Vec::new(),
    }
}

fn create(client: &mut Client, s: &Session, log: &mut ConnLog, epoch: Instant) {
    log.requests += 1;
    log.ops.push((
        epoch.elapsed().as_nanos() as u64,
        Op::Create {
            id: s.id.clone(),
            cfg: s.cfg.clone(),
        },
    ));
    match client.create(&s.id, &s.cfg) {
        Ok((true, 0)) => {}
        _ => log.failed += 1,
    }
}

/// Drive `sessions` round-robin to completion over one connection.
fn drive_conn(
    client: &mut Client,
    sessions: &mut [Session],
    tracer: &Tracer,
    epoch: Instant,
    log: &mut ConnLog,
) {
    let problem = problem();
    let (lo, hi) = (problem.lower().to_vec(), problem.upper().to_vec());
    let conn_span = tracer.open();
    while sessions.iter().any(|s| !s.done && !s.failed) {
        for s in sessions.iter_mut().filter(|s| !s.done && !s.failed) {
            let seq = log.requests;
            log.requests += 1;
            let start = epoch.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let asked = tracer.in_span("client.ask", conn_span.id, seq, |_| client.ask(&s.id));
            log.asks_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.ops.push((start, Op::Ask { id: s.id.clone() }));
            let Ok((turn, points)) = asked else {
                log.failed += 1;
                s.failed = true;
                continue;
            };
            let values: Vec<f64> = tracer.in_span("client.evaluate", conn_span.id, seq, |parent| {
                points
                    .iter()
                    .map(|x| {
                        let start = tracer.now_ns();
                        let v = problem.eval(x);
                        let end = tracer.now_ns();
                        tracer.record("problems.eval", parent, start, end, seq);
                        log.evals += 1;
                        log.eval_ns += end - start;
                        v
                    })
                    .collect()
            });
            log.non_finite += values.iter().filter(|v| !v.is_finite()).count() as u64;
            if s.keep_data {
                for x in &points {
                    s.x_unit.push(
                        x.iter()
                            .zip(lo.iter().zip(&hi))
                            .map(|(v, (l, h))| (v - l) / (h - l))
                            .collect(),
                    );
                }
                s.y.extend(&values);
            }
            let seq = log.requests;
            log.requests += 1;
            let start = epoch.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let told = tracer.in_span("client.tell", conn_span.id, seq, |_| {
                client.tell(&s.id, turn, &values)
            });
            log.tells_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.ops.push((
                start,
                Op::Tell {
                    id: s.id.clone(),
                    turn,
                    values,
                },
            ));
            match told {
                Ok(done) => s.done = done,
                Err(_) => {
                    log.failed += 1;
                    s.failed = true;
                }
            }
        }
    }
    tracer.close(conn_span, "client.conn", 0, 0);
}

/// Summed on-CPU time of every thread of `pid`, ns.
fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum()
}

/// A listening daemon, its connected clients, and the first round's
/// sessions created on them.
struct Setup {
    daemon: Daemon,
    clients: Vec<Client>,
    sessions: Vec<Vec<Session>>,
    logs: Vec<ConnLog>,
}

/// Start a daemon, connect, and create the first round's sessions (each
/// connection creates its own, concurrently).
fn set_up(spec: &Spec, ctx: &Ctx, dir: &Path, epoch: Instant) -> Result<Setup, String> {
    let daemon = Daemon::spawn(&ctx.server_bin, dir)?;
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(daemon.addr.as_str()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let sessions: Vec<Vec<Session>> = (0..CONNS)
        .map(|c| {
            (0..spec.sessions_per_conn)
                .map(|i| session(spec, 0, c, i, ctx.seed))
                .collect()
        })
        .collect();
    let mut logs: Vec<ConnLog> = (0..CONNS).map(|_| ConnLog::default()).collect();
    std::thread::scope(|scope| {
        for ((client, conn), log) in clients.iter_mut().zip(&sessions).zip(logs.iter_mut()) {
            scope.spawn(move || conn.iter().for_each(|s| create(client, s, log, epoch)));
        }
    });
    Ok(Setup {
        daemon,
        clients,
        sessions,
        logs,
    })
}

/// Every finished session's `record` line, fetched over both
/// connections at once.
fn fetch_records(
    clients: &mut [Client],
    sessions: &[Session],
) -> Vec<(String, Result<String, RpcError>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<&Session> = sessions
                    .iter()
                    .filter(|s| s.done)
                    .skip(c)
                    .step_by(CONNS)
                    .collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|s| (s.id.clone(), client.record(&s.id)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("record fetch thread panicked"))
            .collect()
    })
}

/// Run `serve_journal` or `serve_bo`.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let spec = spec(workload, ctx.smoke)?;
    let work_dir = ctx.out_dir.join(format!("serve-{workload}-s{}", ctx.seed));
    let result = run_in(&spec, ctx, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run_in(spec: &Spec, ctx: &Ctx, work_dir: &Path) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new(ctx.traced));
    let epoch = Instant::now();
    let mut out = Outcome::default();

    // Set-up, timed several times; the last daemon serves the run.
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut s = set_up(spec, ctx, &work_dir.join(format!("setup-{k}")), epoch)?;
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            s.daemon.stop(&mut s.clients[0])?;
            out.attempted += s.logs.iter().map(|l| l.requests).sum::<u64>() + 1;
            out.failed += s.logs.iter().map(|l| l.failed).sum::<u64>();
        } else {
            kept = Some(s);
        }
    }
    let Setup {
        daemon,
        mut clients,
        mut sessions,
        mut logs,
    } = kept.expect("at least one set-up");

    // Timed phase: whole rounds of sessions until the window is used.
    let window = Instant::now();
    let mut round_walls = Vec::new();
    let mut all_sessions: Vec<Session> = Vec::new();
    for round in 0.. {
        let round_start = Instant::now();
        let tracer_ref: &Tracer = &tracer;
        std::thread::scope(|scope| {
            for (c, ((client, conn), log)) in clients
                .iter_mut()
                .zip(sessions.iter_mut())
                .zip(logs.iter_mut())
                .enumerate()
            {
                scope.spawn(move || {
                    if round > 0 {
                        *conn = (0..spec.sessions_per_conn)
                            .map(|i| session(spec, round, c, i, ctx.seed))
                            .collect();
                        for s in conn.iter() {
                            create(client, s, log, epoch);
                        }
                    }
                    drive_conn(client, conn, tracer_ref, epoch, log);
                });
            }
        });
        round_walls.push(round_start.elapsed().as_secs_f64());
        for conn in sessions.iter_mut() {
            all_sessions.append(conn);
        }
        if ctx.smoke
            || window.elapsed().as_secs_f64() + round_start.elapsed().as_secs_f64() > ctx.seconds
        {
            break;
        }
    }
    let timed_wall = window.elapsed().as_secs_f64();

    let idle_cpu_pct = if ctx.traced {
        let c0 = cpu_ns(daemon.pid());
        let t0 = Instant::now();
        std::thread::sleep(IDLE_WINDOW);
        let c1 = cpu_ns(daemon.pid());
        100.0 * (c1.saturating_sub(c0)) as f64 / t0.elapsed().as_nanos() as f64
    } else {
        0.0
    };

    // After the timed phase: counters, records, peak memory, shutdown.
    let asks: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.asks_ms.iter().copied())
        .collect();
    let tells: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.tells_ms.iter().copied())
        .collect();
    let creates = logs
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|(_, op)| matches!(op, Op::Create { .. }))
        .count();
    out.attempted += logs.iter().map(|l| l.requests).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    let status = clients[0].server_status();
    out.attempted += 1;
    match status {
        Ok(v) => {
            let counter = |name: &str| {
                v.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX)
            };
            for (name, want) in [
                ("server.requests.ask", asks.len() as u64),
                ("server.requests.tell", tells.len() as u64),
                ("server.sessions.created", creates as u64),
                ("server.conns.accepted", CONNS as u64),
            ] {
                let got = counter(name);
                out.check_that(
                    format!("server-status {name} equals the client count"),
                    got == want,
                    || format!("server says {got}, client counted {want}"),
                );
            }
        }
        Err(e) => {
            out.failed += 1;
            out.check("server-status answered", Some(e.to_string()));
        }
    }
    let fetched = fetch_records(&mut clients, &all_sessions);
    let mut served: HashMap<String, String> = HashMap::new();
    for (id, line) in fetched {
        out.attempted += 1;
        match line {
            Ok(line) => {
                served.insert(id, line);
            }
            Err(_) => out.failed += 1,
        }
    }
    let peak_rss_mb =
        crate::vm_hwm_mb(&format!("/proc/{}/status", daemon.pid())).unwrap_or(f64::NAN);
    out.attempted += 1;
    daemon.stop(&mut clients[0])?;
    drop(clients);

    // Correctness: every served record is byte-identical to the
    // in-process run of the same config.
    let unfinished = all_sessions.iter().filter(|s| !s.done).count();
    out.check_that("every session finished", unfinished == 0, || {
        format!("{unfinished} did not")
    });
    let non_finite: u64 = logs.iter().map(|l| l.non_finite).sum();
    out.check_that("all told values finite", non_finite == 0, || {
        format!("{non_finite} non-finite")
    });
    let references = references(&all_sessions);
    let mut records: Vec<RunRecord> = Vec::new();
    for (s, reference) in all_sessions.iter().zip(&references) {
        let line = served.get(&s.id);
        out.check_that(
            format!("{}: served record equals the in-process run", s.id),
            line == Some(reference),
            || "records differ or the session has none".into(),
        );
        if let Some(line) = line {
            let rec =
                RunRecord::from_json_line(line).map_err(|e| format!("{}: record: {e}", s.id))?;
            out.check_record(&s.id, &rec);
            records.push(rec);
        }
    }
    out.notes.push(("tail_percentile", TAIL.to_string()));
    out.notes.push(("ask_samples", asks.len().to_string()));
    out.notes.push(("tell_samples", tells.len().to_string()));
    out.notes.push(("sessions", all_sessions.len().to_string()));
    out.notes.push(("rounds", round_walls.len().to_string()));

    if ctx.traced {
        let replay = Replay::run(&logs, &all_sessions, &served, &tracer, work_dir, &mut out)?;
        let s0 = all_sessions
            .iter()
            .find(|s| s.keep_data)
            .ok_or("probe session missing")?;
        let x = Matrix::from_rows(&s0.x_unit).map_err(|e| format!("probe data: {e}"))?;
        let probes = probes::run(&x, &s0.y, &tracer)?;
        let spans = tracer.take();
        crate::write_spans(ctx, &spans)?;
        let fold = trace::fold(&spans);
        let pct = |xs: &[f64], p: u32| report::metric_percentile(xs, p, ctx.smoke);
        let share = |part: f64, whole: f64| (100.0 * part / whole).max(0.0);
        // Share of the `whole` p50 not accounted for by the `inner` p50.
        let outside = |inner: &[f64], whole: &[f64]| -> Result<Option<f64>, String> {
            Ok(match (pct(inner, 50)?, pct(whole, 50)?) {
                (Some(i), Some(w)) => Some(share(w - i, w)),
                _ => None,
            })
        };
        let cycle_total: f64 = replay
            .ask_cycle_ms
            .iter()
            .chain(&replay.tell_cycle_ms)
            .sum();
        let cycles = replay.ask_cycle_ms.len().max(1) as f64;
        let fit_ms = fold.total_ms("gp.fit");
        let acq_ms = fold.total_ms("acq");
        let evals: u64 = logs.iter().map(|l| l.evals).sum();
        let eval_ns: u64 = logs.iter().map(|l| l.eval_ns).sum();
        let best: Vec<f64> = records
            .iter()
            .map(|r| r.y_min.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        out.push("trace.wall_s", timed_wall);
        out.push(
            "trace.overhead_pct",
            crate::overhead_pct(&spans, fold.root_ns),
        );
        out.push("trace.fold_error_pct", crate::fold_error_pct(&fold));
        out.push(
            "client.requests_per_s",
            (asks.len() + tells.len()) as f64 / timed_wall,
        );
        out.push_some("client.ask_p50_ms", pct(&asks, 50)?);
        out.push_some("client.ask_tail_ms", pct(&asks, TAIL)?);
        out.push_some("client.tell_p50_ms", pct(&tells, 50)?);
        out.push_some("client.tell_tail_ms", pct(&tells, TAIL)?);
        out.push("core.engine.best_objective", stats::mean(&best));
        out.push("core.engine.cycles", replay.ask_cycle_ms.len() as f64);
        out.push("core.engine.cycle_ms", cycle_total / cycles);
        out.push(
            "core.engine.propose_ms",
            replay.ask_cycle_ms.iter().sum::<f64>() / cycles,
        );
        out.push(
            "core.engine.commit_ms",
            replay.tell_cycle_ms.iter().sum::<f64>() / cycles,
        );
        out.push(
            "core.engine.self_ms",
            (cycle_total - fit_ms - acq_ms) / cycles,
        );
        out.push("gp.fit_share", share(fit_ms, cycle_total));
        out.push("gp.full_fits", replay.counts.full_fits.load(Relaxed) as f64);
        out.push("gp.mll_evals", replay.counts.mll_evals.load(Relaxed) as f64);
        out.push("gp.mll_eval_us", probes.mll_eval_us);
        out.push("gp.predict_many_us", probes.predict_many_us);
        out.push("linalg.chol_ms", probes.chol_ms);
        out.push("acq.share", share(acq_ms, cycle_total));
        out.push(
            "acq.restart_shortfall",
            replay.counts.restart_shortfall.load(Relaxed) as f64,
        );
        out.push("problems.evals", evals as f64);
        out.push(
            "problems.eval_us",
            eval_ns as f64 / evals.max(1) as f64 / 1e3,
        );
        out.push("server.requests", out.attempted as f64);
        out.push_some(
            "server.wire.ask_share",
            outside(&replay.open_ask_ms, &asks)?,
        );
        out.push_some(
            "server.wire.tell_share",
            outside(&replay.open_tell_ms, &tells)?,
        );
        out.push_some(
            "server.registry.persist_share",
            outside(&replay.memory_tell_ms, &replay.open_tell_ms)?,
        );
        out.push(
            "core.checkpoint.bytes_max",
            replay.checkpoint_bytes_max as f64,
        );
        out.push(
            "server.proto.request_bytes_p50",
            stats::median(&replay.request_bytes),
        );
        out.push(
            "server.proto.reply_bytes_p50",
            stats::median(&replay.reply_bytes),
        );
        out.push("server.idle_cpu_pct", idle_cpu_pct);
        // The layer latencies behind the shares, for the result file.
        for (name, xs) in [
            ("dispatch_ask_p50_ms", &replay.open_ask_ms),
            ("dispatch_tell_p50_ms", &replay.open_tell_ms),
            ("dispatch_memory_tell_p50_ms", &replay.memory_tell_ms),
            ("session_ask_p50_ms", &replay.ask_cycle_ms),
            ("session_tell_p50_ms", &replay.tell_cycle_ms),
            ("checkpoint_line_p50_ms", &replay.line_ms),
            ("checkpoint_write_p50_ms", &replay.write_ms),
            ("proto_parse_p50_us", &replay.parse_us),
        ] {
            out.notes.push((name, stats::median(xs).to_string()));
        }
        out.table = Some(fold.table());
    } else {
        let sims: Vec<f64> = records
            .iter()
            .map(|r| r.n_optimization_simulations() as f64)
            .collect();
        out.push("setup_s", stats::median(&setups));
        out.push("sims_in_budget", stats::mean(&sims));
        out.push("run_wall_s", stats::median(&round_walls));
        out.push("peak_rss_mb", peak_rss_mb);
    }
    Ok(out)
}

/// The in-process record of every session's config, computed on the
/// load threads after the timed phase.
fn references(sessions: &[Session]) -> Vec<String> {
    let chunk = sessions.len().div_ceil(CONNS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let p = problem();
                    part.iter()
                        .map(|s| {
                            let c = &s.cfg;
                            run_algorithm_observed(
                                c.algorithm,
                                &p,
                                &c.budget,
                                c.profile.algo_config(),
                                c.seed,
                                NullObserver,
                            )
                            .map(|r| r.to_json_line())
                            .unwrap_or_else(|e| format!("invalid configuration: {e}"))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Timings from replaying the request sequence in process.
struct Replay {
    open_ask_ms: Vec<f64>,
    open_tell_ms: Vec<f64>,
    memory_tell_ms: Vec<f64>,
    ask_cycle_ms: Vec<f64>,
    tell_cycle_ms: Vec<f64>,
    line_ms: Vec<f64>,
    write_ms: Vec<f64>,
    parse_us: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    checkpoint_bytes_max: usize,
    counts: Arc<EngineCounts>,
}

impl Replay {
    fn run(
        logs: &[ConnLog],
        sessions: &[Session],
        served: &HashMap<String, String>,
        tracer: &Arc<Tracer>,
        work_dir: &Path,
        out: &mut Outcome,
    ) -> Result<Replay, String> {
        let mut ops: Vec<&(u64, Op)> = logs.iter().flat_map(|l| &l.ops).collect();
        ops.sort_by_key(|(start, _)| *start);
        let lines: Vec<String> = ops.iter().map(|(_, op)| op.line()).collect();
        let mut r = Replay {
            open_ask_ms: Vec::new(),
            open_tell_ms: Vec::new(),
            memory_tell_ms: Vec::new(),
            ask_cycle_ms: Vec::new(),
            tell_cycle_ms: Vec::new(),
            line_ms: Vec::new(),
            write_ms: Vec::new(),
            parse_us: Vec::new(),
            request_bytes: lines.iter().map(|l| l.len() as f64).collect(),
            reply_bytes: Vec::new(),
            checkpoint_bytes_max: 0,
            counts: Arc::default(),
        };
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        // `server::dispatch` on a persistent registry: the server's own
        // request path minus the wire.
        let open_dir: PathBuf = work_dir.join("replay-open");
        let _ = std::fs::remove_dir_all(&open_dir);
        let registry = Registry::open(&open_dir)?;
        tracer.in_span("replay.dispatch.open", 0, 0, |root| {
            for (seq, (line, (_, op))) in lines.iter().zip(&ops).enumerate() {
                let t0 = Instant::now();
                tracer.in_span("server.proto.parse", root, seq as u64, |_| {
                    std::hint::black_box(proto::parse_request(line)).is_ok()
                });
                r.parse_us.push(ms(t0) * 1e3);
                let name = match op {
                    Op::Create { .. } => "server.dispatch.create",
                    Op::Ask { .. } => "server.dispatch.ask",
                    Op::Tell { .. } => "server.dispatch.tell",
                };
                let t0 = Instant::now();
                let (reply, _) =
                    tracer.in_span(name, root, seq as u64, |_| dispatch(&registry, line));
                let t = ms(t0);
                match op {
                    Op::Ask { .. } => r.open_ask_ms.push(t),
                    Op::Tell { .. } => r.open_tell_ms.push(t),
                    Op::Create { .. } => {}
                }
                r.reply_bytes.push(reply.len() as f64);
            }
        });
        for s in sessions {
            let replayed = registry.record_line(&s.id).ok();
            out.check_that(
                format!("{}: dispatch replay reproduces the served record", s.id),
                replayed.as_ref() == served.get(&s.id),
                || "records differ".into(),
            );
        }
        drop(registry);
        let _ = std::fs::remove_dir_all(&open_dir);

        // The same on an in-memory registry: the difference is the
        // persistence cost of a tell.
        let registry = Registry::in_memory();
        tracer.in_span("replay.dispatch.memory", 0, 0, |root| {
            for (seq, (line, (_, op))) in lines.iter().zip(&ops).enumerate() {
                let t0 = Instant::now();
                tracer.in_span("server.dispatch.memory", root, seq as u64, |_| {
                    dispatch(&registry, line)
                });
                if let Op::Tell { .. } = op {
                    r.memory_tell_ms.push(ms(t0));
                }
            }
        });
        drop(registry);

        // `SessionState` directly, with the checkpoint line and its
        // atomic write timed separately.
        let state_dir = work_dir.join("replay-session");
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let parent = Arc::new(AtomicU64::new(0));
        let mut states: HashMap<String, SessionState> = HashMap::new();
        let mut failure: Option<String> = None;
        tracer.in_span("replay.session", 0, 0, |root| {
            for (seq, (_, op)) in ops.iter().enumerate() {
                let seq = seq as u64;
                match op {
                    Op::Create { id, cfg } => {
                        let observer = EventSpans {
                            tracer: tracer.clone(),
                            parent: parent.clone(),
                            counts: r.counts.clone(),
                        };
                        let created = tracer.in_span("core.session.create", root, seq, |_| {
                            SessionState::create_observed(cfg.clone(), observer)
                        });
                        match created {
                            Ok(s) => {
                                states.insert(id.clone(), s);
                            }
                            Err(e) => failure = Some(format!("{id}: create: {e}")),
                        }
                    }
                    Op::Ask { id } => {
                        let Some(s) = states.get_mut(id) else {
                            continue;
                        };
                        let cycle = s.turn() > 0;
                        let open = tracer.open();
                        parent.store(open.id, Relaxed);
                        let t0 = Instant::now();
                        if let Err(e) = s.ask() {
                            failure = Some(format!("{id}: ask: {e}"));
                        }
                        let t = ms(t0);
                        tracer.close(open, "core.session.ask", root, seq);
                        if cycle {
                            r.ask_cycle_ms.push(t);
                        }
                    }
                    Op::Tell { id, turn, values } => {
                        let Some(s) = states.get_mut(id) else {
                            continue;
                        };
                        let open = tracer.open();
                        parent.store(open.id, Relaxed);
                        let t0 = Instant::now();
                        if let Err(e) = s.tell(*turn, values) {
                            failure = Some(format!("{id}: tell: {e}"));
                        }
                        let t = ms(t0);
                        tracer.close(open, "core.session.tell", root, seq);
                        if *turn > 0 {
                            r.tell_cycle_ms.push(t);
                        }
                        let t0 = Instant::now();
                        let line = tracer.in_span("core.checkpoint.line", root, seq, |_| {
                            s.to_checkpoint_line(id)
                        });
                        r.line_ms.push(ms(t0));
                        r.checkpoint_bytes_max = r.checkpoint_bytes_max.max(line.len() + 1);
                        let path = state_dir.join(format!("{id}.session.json"));
                        let t0 = Instant::now();
                        let written = tracer.in_span("core.checkpoint.write", root, seq, |_| {
                            atomic_write(&path, &(line + "\n"))
                        });
                        r.write_ms.push(ms(t0));
                        if let Err(e) = written {
                            failure = Some(e);
                        }
                    }
                }
            }
        });
        out.check("SessionState replay ran without errors", failure);
        for s in sessions {
            let replayed = states
                .get(&s.id)
                .and_then(|st| st.record())
                .map(|rec| rec.to_json_line());
            out.check_that(
                format!("{}: SessionState replay reproduces the served record", s.id),
                replayed.as_ref() == served.get(&s.id),
                || "records differ".into(),
            );
        }
        let _ = std::fs::remove_dir_all(&state_dir);
        Ok(r)
    }
}
