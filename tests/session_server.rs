//! Conformance suite for the ask/tell session server.
//!
//! The contract under test: serving an optimization as a remote
//! ask/tell session changes *nothing* about its trajectory. Every test
//! here compares canonical `RunRecord` JSON lines byte for byte
//! against the in-process reference (`run_algorithm_observed` with the
//! same config and seed) — not "close", identical.

use pbo::prelude::*;
use pbo::core::session::{ProblemSpec, SessionConfig, SessionProfile, SessionState};
use pbo_server::client::{drive, Client};
use pbo_server::proto;
use pbo_server::registry::{GcPolicy, Registry};
use pbo_server::server::Server;
use std::path::PathBuf;
use std::sync::Arc;

fn session_cfg(
    algorithm: AlgorithmKind,
    seed: u64,
    cycles: usize,
    q: usize,
) -> (SyntheticFn, SessionConfig) {
    let p = SyntheticFn::ackley(2);
    let cfg = SessionConfig {
        algorithm,
        problem: ProblemSpec::of(&p),
        budget: Budget::cycles(cycles, q).with_initial_samples(4),
        profile: SessionProfile::Test,
        seed,
    };
    (p, cfg)
}

/// The in-process reference record the session must reproduce exactly.
fn reference_line(p: &SyntheticFn, cfg: &SessionConfig) -> String {
    run_algorithm_observed(
        cfg.algorithm,
        p,
        &cfg.budget,
        cfg.profile.algo_config(),
        cfg.seed,
        NullObserver,
    )
    .unwrap()
    .to_json_line()
}

/// Drive a session to completion in-process, evaluating its asks with
/// the real problem.
fn drive_state(mut s: SessionState, p: &SyntheticFn) -> String {
    while !s.is_done() {
        let ask = s.ask().unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        s.tell(ask.turn, &values).unwrap();
    }
    s.record().unwrap().to_json_line()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pbo_srv_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Satellite #1 — ask/tell conformance: every algorithm's session
/// trajectory is byte-identical to its in-process run.
#[test]
fn session_reproduces_in_process_run_for_every_algorithm() {
    for (i, algorithm) in AlgorithmKind::ALL.into_iter().enumerate() {
        let (p, cfg) = session_cfg(algorithm, 40 + i as u64, 3, 2);
        let want = reference_line(&p, &cfg);
        let got = drive_state(SessionState::create_observed(cfg, NullObserver).unwrap(), &p);
        assert_eq!(got, want, "{} session diverged from in-process run", algorithm.name());
    }
}

/// Satellite #1 (wire leg) — the same bit-identity holds across a real
/// TCP round trip, including the float encoding in both directions.
#[test]
fn session_reproduces_in_process_run_over_tcp() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    for (i, algorithm) in
        [AlgorithmKind::KbQEgo, AlgorithmKind::ThompsonSampling].into_iter().enumerate()
    {
        let (p, cfg) = session_cfg(algorithm, 70 + i as u64, 3, 2);
        let want = reference_line(&p, &cfg);
        let id = format!("tcp-{}", algorithm.name());
        let outcome = drive(&mut client, &id, &cfg, &p, None).unwrap();
        assert!(outcome.done);
        assert_eq!(outcome.record.unwrap(), want, "{} diverged over TCP", algorithm.name());
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #2 — crash/restart matrix: kill the registry after each
/// cycle k of a 10-cycle study, restart from disk, resume; the final
/// record must be byte-identical to the uninterrupted run, for every k.
#[test]
fn crash_restart_matrix_resumes_bit_identically() {
    let n_cycles = 10;
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 99, n_cycles, 2);
    let want = reference_line(&p, &cfg);

    let finish = |reg: &Registry| -> String {
        loop {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("study", ask.turn, &values).unwrap().done {
                break;
            }
        }
        reg.record_line("study").unwrap()
    };

    for k in 0..n_cycles {
        let dir = tmp_dir(&format!("matrix_{k}"));
        let reg = Registry::open(&dir).unwrap();
        reg.create("study", cfg.clone()).unwrap();
        // Design tell + k cycle tells, then "kill" the daemon.
        for _ in 0..=k {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            assert!(!reg.tell("study", ask.turn, &values).unwrap().done);
        }
        drop(reg);

        // Restart: re-attach idempotently (what a restarted client
        // does), then drive to completion.
        let reg = Registry::open(&dir).unwrap();
        let reply = reg.create("study", cfg.clone()).unwrap();
        assert!(!reply.created, "restart must re-attach, not recreate");
        assert_eq!(reply.turn, k + 1, "journal must have survived the kill");
        let got = finish(&reg);
        assert_eq!(got, want, "resume after cycle {k} diverged");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Variable-q crash/restart matrix: the hybrid algorithm chooses a
/// different batch size each cycle, so the journal's per-turn widths
/// (and the schema-2 `qs` integrity record) are load-bearing. Kill the
/// registry after each cycle of a 10-cycle study and resume; the final
/// record must be byte-identical to the uninterrupted run for every
/// kill point, and the batch size must genuinely vary along the way.
#[test]
fn variable_q_crash_restart_matrix_resumes_bit_identically() {
    let n_cycles = 10;
    let p = SyntheticFn::ackley(3);
    let cfg = SessionConfig {
        algorithm: AlgorithmKind::HybridQ,
        problem: ProblemSpec::of(&p),
        budget: Budget::cycles(n_cycles, 4).with_initial_samples(8),
        profile: SessionProfile::Test,
        seed: 7,
    };
    let want = reference_line(&p, &cfg);

    // Uninterrupted run through a registry, recording each ask's width.
    let dir = tmp_dir("vq_base");
    let reg = Registry::open(&dir).unwrap();
    reg.create("study", cfg.clone()).unwrap();
    let mut widths: Vec<usize> = Vec::new();
    let uninterrupted = loop {
        let ask = reg.ask("study").unwrap();
        assert_eq!(ask.q, ask.points.len(), "AskReply.q must match its points");
        widths.push(ask.points.len());
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        if reg.tell("study", ask.turn, &values).unwrap().done {
            break reg.record_line("study").unwrap();
        }
    };
    assert_eq!(uninterrupted, want, "served variable-q run diverged from in-process");
    let cycle_widths = &widths[1..]; // widths[0] is the design batch
    assert_eq!(cycle_widths.len(), n_cycles);
    assert!(
        cycle_widths.iter().any(|&w| w != cycle_widths[0]),
        "batch size never varied ({cycle_widths:?}) — the matrix would not exercise variable q"
    );
    assert!(cycle_widths.iter().all(|&w| (1..=4).contains(&w)), "{cycle_widths:?}");
    drop(reg);
    let _ = std::fs::remove_dir_all(dir);

    // Kill after the design tell + k cycle tells, for every k.
    for k in 0..n_cycles {
        let dir = tmp_dir(&format!("vq_matrix_{k}"));
        let reg = Registry::open(&dir).unwrap();
        reg.create("study", cfg.clone()).unwrap();
        for _ in 0..=k {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            assert!(!reg.tell("study", ask.turn, &values).unwrap().done);
        }
        drop(reg);

        let reg = Registry::open(&dir).unwrap();
        let reply = reg.create("study", cfg.clone()).unwrap();
        assert!(!reply.created, "restart must re-attach, not recreate");
        assert_eq!(reply.turn, k + 1, "journal must have survived the kill");
        let got = loop {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("study", ask.turn, &values).unwrap().done {
                break reg.record_line("study").unwrap();
            }
        };
        assert_eq!(got, want, "variable-q resume after cycle {k} diverged");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Protocol compatibility — a v1 client against a v2 server: fixed-q
/// sessions drive to a byte-identical record over raw `"proto":1`
/// frames (whose ask replies must not grow a `q` field), while any
/// attempt to touch a variable-q session over v1 gets the pinned
/// `unsupported_version` code.
#[test]
fn v1_client_against_v2_server() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();
    let as_v1 = |line: String| {
        let native = format!("{{\"proto\":{},", proto::PROTO_VERSION);
        assert!(line.starts_with(&native), "encoder changed shape: {line}");
        line.replacen(&native, "{\"proto\":1,", 1)
    };
    let get = |v: &pbo::core::json::Json, k: &str| v.get(k).cloned();

    // A fixed-q session, driven entirely with proto-1 frames.
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 81, 3, 2);
    let want = reference_line(&p, &cfg);
    client.raw(&as_v1(proto::encode_create("legacy", &cfg))).unwrap();
    let mut done = false;
    while !done {
        let resp = client.raw(&as_v1(proto::encode_ask("legacy"))).unwrap();
        assert!(get(&resp, "q").is_none(), "proto-1 ask reply must not carry q");
        let turn = get(&resp, "turn").and_then(|v| v.as_usize()).unwrap();
        let points: Vec<Vec<f64>> = get(&resp, "points")
            .and_then(|v| v.as_array().map(<[_]>::to_vec))
            .unwrap()
            .iter()
            .map(|row| row.as_array().unwrap().iter().filter_map(|x| x.as_f64()).collect())
            .collect();
        let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();
        let resp = client.raw(&as_v1(proto::encode_tell("legacy", turn, &values))).unwrap();
        done = get(&resp, "done").and_then(|v| v.as_bool()).unwrap();
    }
    let resp = client.raw(&as_v1(proto::encode_id_op("record", "legacy"))).unwrap();
    let got = get(&resp, "record").and_then(|v| v.as_str().map(str::to_string)).unwrap();
    assert_eq!(got, want, "v1 client diverged against the v2 server");

    // Variable-q over v1: create refused, and ask against a session a
    // v2 client created is refused too — both with the pinned code.
    let (_, vq_cfg) = session_cfg(AlgorithmKind::HybridQ, 82, 2, 2);
    let err_code = |resp: &pbo::core::json::Json| {
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(pbo::core::json::Json::as_str)
            .map(str::to_string)
    };
    let resp = client.raw(&as_v1(proto::encode_create("vq", &vq_cfg))).unwrap();
    assert_eq!(err_code(&resp).as_deref(), Some("unsupported_version"));
    client.create("vq", &vq_cfg).unwrap(); // native (v2) create succeeds
    let resp = client.raw(&as_v1(proto::encode_ask("vq"))).unwrap();
    assert_eq!(err_code(&resp).as_deref(), Some("unsupported_version"));
    // The same ask at proto 2 works and carries q.
    let resp = client.raw(&proto::encode_ask("vq")).unwrap();
    assert!(get(&resp, "q").and_then(|v| v.as_usize()).is_some());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The DESIGN.md wire-code table is exhaustive in both directions:
/// every code either typed error surface can emit appears in the
/// table, and the table names no code that the enums do not.
#[test]
fn design_wire_code_table_is_exhaustive() {
    use pbo::core::session::SessionError;
    use pbo_server::proto::RequestErrorKind;
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md must exist at the workspace root");
    // Table rows look like `| `code` | request \| session | … |`; the
    // code is the first backticked cell. Scan the wire-code section.
    let section = design
        .split("<!-- wire-code-table -->")
        .nth(1)
        .expect("DESIGN.md must fence the wire-code table with <!-- wire-code-table -->");
    let mut documented: Vec<&str> = section
        .lines()
        .filter_map(|l| {
            let row = l.trim().strip_prefix("| `")?;
            row.split('`').next()
        })
        .collect();
    documented.sort_unstable();
    let mut expected: Vec<&str> = RequestErrorKind::ALL
        .iter()
        .map(|k| k.code())
        .chain(SessionError::ALL_CODES)
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(
        documented, expected,
        "DESIGN.md wire-code table out of sync with RequestErrorKind::ALL + SessionError::ALL_CODES"
    );
}

/// Satellite #2 (corruption leg) — a truncated checkpoint is
/// quarantined with a typed error; sessions sharing the directory are
/// untouched and still resume bit-identically.
#[test]
fn corrupt_checkpoint_quarantines_one_session_only() {
    let dir = tmp_dir("quarantine");
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 11, 2, 2);
    let want = reference_line(&p, &cfg);

    let reg = Registry::open(&dir).unwrap();
    reg.create("good", cfg.clone()).unwrap();
    reg.create("doomed", session_cfg(AlgorithmKind::RandomSearch, 12, 2, 2).1).unwrap();
    drop(reg);

    // Truncate one checkpoint mid-byte, as a crash during a non-atomic
    // write would have (atomic_write prevents this; simulate the damage
    // an adversarial filesystem could still inflict).
    let doomed = dir.join("doomed.session.json");
    let body = std::fs::read_to_string(&doomed).unwrap();
    std::fs::write(&doomed, &body[..body.len() / 2]).unwrap();

    let reg = Registry::open(&dir).unwrap();
    let err = reg.ask("doomed").unwrap_err();
    assert_eq!(err.code, "session_corrupt");
    let err = reg.tell("doomed", 0, &[1.0, 2.0]).unwrap_err();
    assert_eq!(err.code, "session_corrupt");

    // The sibling session is unaffected.
    let got = {
        loop {
            let ask = reg.ask("good").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("good", ask.turn, &values).unwrap().done {
                break;
            }
        }
        reg.record_line("good").unwrap()
    };
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite #3 — concurrency soak: 64 sessions driven through one
/// daemon in a seeded pseudo-random interleaving (tells land
/// out-of-order across sessions, connections rotate). Every trajectory
/// must equal its solo in-process reference: sessions are isolated.
#[test]
fn soak_64_interleaved_sessions_are_isolated() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut clients: Vec<Client> =
        (0..4).map(|_| Client::connect(addr).unwrap()).collect();

    struct Sess {
        id: String,
        p: SyntheticFn,
        cfg: SessionConfig,
        done: bool,
    }
    let mut sessions: Vec<Sess> = (0..64)
        .map(|i| {
            // A few surrogate-driven sessions in the mix; the bulk is
            // random search so the soak stays fast.
            let algorithm = if i % 8 == 0 {
                AlgorithmKind::KbQEgo
            } else {
                AlgorithmKind::RandomSearch
            };
            let (p, cfg) = session_cfg(algorithm, 500 + i as u64, 2, 2);
            Sess { id: format!("soak-{i:02}"), p, cfg, done: false }
        })
        .collect();
    for (i, s) in sessions.iter().enumerate() {
        clients[i % 4].create(&s.id, &s.cfg).unwrap();
    }

    // Seeded LCG interleaving: pick a random unfinished session, ask,
    // evaluate, tell — so tells from different sessions interleave in
    // an order no sequential client would produce.
    let mut lcg: u64 = 0xDEAD_BEEF;
    let mut next = || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (lcg >> 33) as usize
    };
    while sessions.iter().any(|s| !s.done) {
        let open: Vec<usize> =
            (0..sessions.len()).filter(|&i| !sessions[i].done).collect();
        let i = open[next() % open.len()];
        let client = &mut clients[i % 4];
        let (turn, points) = client.ask(&sessions[i].id).unwrap();
        let values: Vec<f64> = points.iter().map(|x| sessions[i].p.eval(x)).collect();
        let done = client.tell(&sessions[i].id, turn, &values).unwrap();
        sessions[i].done = done;
    }

    for s in &sessions {
        let want = reference_line(&s.p, &s.cfg);
        let got = clients[0].record(&s.id).unwrap();
        assert_eq!(got, want, "session {} was perturbed by interleaving", s.id);
    }

    clients[0].shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #3 (fuzz leg) — malformed frames of every kind get typed
/// error responses; the connection stays up and a live session on the
/// same daemon is unharmed.
#[test]
fn protocol_fuzz_yields_typed_errors_and_harms_nothing() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 21, 2, 2);
    let want = reference_line(&p, &cfg);
    client.create("live", &cfg).unwrap();
    let (turn0, points0) = client.ask("live").unwrap();

    let q = points0.len();
    let fuzz: Vec<(String, &str)> = vec![
        ("{not json".into(), "malformed_json"),
        ("[1,2,3]".into(), "unsupported_proto"),
        ("{\"proto\":99,\"op\":\"ask\",\"id\":\"live\"}".into(), "unsupported_proto"),
        ("{\"proto\":1,\"op\":\"warp\",\"id\":\"live\"}".into(), "unknown_op"),
        ("{\"proto\":1,\"op\":\"ask\",\"id\":\"ghost\"}".into(), "unknown_session"),
        (proto::encode_tell("live", turn0, &vec![1.0; q + 3]), "wrong_point_count"),
        (proto::encode_tell("live", turn0 + 7, &vec![1.0; q]), "wrong_turn"),
        (proto::encode_id_op("record", "live"), "not_done"),
        ("{\"proto\":1,\"op\":\"create\",\"id\":\"live\",\"config\":{\"bogus\":1}}".into(), "invalid_config"),
    ];
    for (frame, want_code) in fuzz {
        let resp = client.raw(&frame).unwrap();
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(pbo::core::json::Json::as_str)
            .unwrap_or("(none)");
        assert_eq!(code, want_code, "frame {frame}");
    }

    // Same connection, same session: still drivable, still identical.
    let mut done = false;
    let mut pending = Some((turn0, points0));
    while !done {
        let (turn, points) = match pending.take() {
            Some(x) => x,
            None => client.ask("live").unwrap(),
        };
        let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();
        done = client.tell("live", turn, &values).unwrap();
    }
    assert_eq!(client.record("live").unwrap(), want);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #4 — non-finite tells route through the quarantine and
/// constant-liar imputation machinery, and the fault counters in the
/// final record reconcile exactly. Regression-pinned.
#[test]
fn nan_inf_tells_are_quarantined_imputed_and_counted() {
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 33, 2, 2);
    let doe = cfg.budget.initial_samples;
    let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();

    // Healthy design.
    let ask = s.ask().unwrap();
    let design: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
    s.tell(ask.turn, &design).unwrap();

    // Cycle 0: one NaN — quarantined, then imputed constant-liar style.
    let ask = s.ask().unwrap();
    s.tell(ask.turn, &[f64::NAN, p.eval(&ask.points[1])]).unwrap();

    // Cycle 1: one +Inf — same path, separate counter.
    let ask = s.ask().unwrap();
    s.tell(ask.turn, &[p.eval(&ask.points[0]), f64::INFINITY]).unwrap();

    let r = s.record().expect("2-cycle budget exhausted").clone();
    let c0 = &r.cycles[0].faults;
    assert_eq!((c0.nan_quarantined, c0.inf_quarantined, c0.imputed), (1, 0, 1));
    let c1 = &r.cycles[1].faults;
    assert_eq!((c1.nan_quarantined, c1.inf_quarantined, c1.imputed), (0, 1, 1));
    let total = r.fault_totals();
    assert_eq!(total.nan_quarantined, 1);
    assert_eq!(total.inf_quarantined, 1);
    assert_eq!(total.imputed, 2);
    assert_eq!(total.dropped, 0);
    // Imputed points still enter the dataset: the liar stands in.
    assert_eq!(r.y_min.len(), doe + 4);
    assert!(r.y_min.iter().all(|v| v.is_finite()));

    // The worst finite value is the liar for cycle 0's NaN slot.
    let liar: f64 = r.y_min[..doe + 2]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(r.y_min[doe..doe + 2].contains(&liar));
}

/// Non-finite *design* values: failed points are dropped (not imputed)
/// exactly as a faulty in-process DoE rank would be, and an all-failed
/// design is a typed error that leaves the session retryable.
#[test]
fn nan_design_values_are_dropped_like_in_process_doe_faults() {
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 34, 1, 2);
    let doe = cfg.budget.initial_samples;
    let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
    let ask = s.ask().unwrap();
    let mut values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
    values[1] = f64::NAN;
    s.tell(ask.turn, &values).unwrap();
    let status = s.status();
    assert_eq!(status.n_data, doe - 1, "failed design point must be dropped");
    while !s.is_done() {
        let ask = s.ask().unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        s.tell(ask.turn, &values).unwrap();
    }
    let r = s.record().unwrap();
    assert_eq!(r.doe_faults.nan_quarantined, 1);
    assert_eq!(r.doe_faults.dropped, 1);
    assert_eq!(r.doe_size, doe - 1, "doe_size records the surviving design points");
    assert_eq!(r.y_min.len(), doe - 1 + 2);
}

// ---------------------------------------------------------------------
// Server front hardening (DESIGN §14): containment, backpressure, drain.
// ---------------------------------------------------------------------

use pbo_server::server::ServerConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A raw socket speaking the wire protocol by hand, for offender
/// scenarios the polite [`Client`] cannot express (half-sent requests,
/// silence, oversized lines).
fn raw_conn(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

/// Send one request line in a single write, as [`Client`] does.
fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

fn counter(status: &pbo::core::json::Json, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(pbo::core::json::Json::as_u64)
        .unwrap_or_else(|| panic!("server-status must carry counter {name}"))
}

fn gauge(status: &pbo::core::json::Json, name: &str) -> f64 {
    status
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(pbo::core::json::Json::as_f64)
        .unwrap_or_else(|| panic!("server-status must carry gauge {name}"))
}

/// Satellite bugfix — unbounded request lines were a memory DoS.
/// A line past `max_line_bytes` gets the typed `line_too_long` error,
/// the counter increments exactly once, and the *same connection*
/// remains fully usable (the oversized line is discarded, not fatal).
#[test]
fn oversize_line_gets_typed_error_and_connection_survives() {
    let config = ServerConfig { max_line_bytes: 64 * 1024, ..ServerConfig::default() };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    // ~4x the cap, no newline until the end: the cap must trip while
    // the line is still streaming in.
    let huge = format!("{{\"proto\":2,\"op\":\"ask\",\"id\":\"{}\"}}", "x".repeat(256 * 1024));
    let resp = client.raw(&huge).unwrap();
    let code = resp
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(pbo::core::json::Json::as_str);
    assert_eq!(code, Some("line_too_long"), "{resp:?}");

    // Same connection: a normal session still drives to byte-identity.
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 61, 2, 2);
    let want = reference_line(&p, &cfg);
    let outcome = drive(&mut client, "post-oversize", &cfg, &p, None).unwrap();
    assert!(outcome.done);
    assert_eq!(outcome.record.unwrap(), want, "connection damaged by the oversize line");

    let status = client.server_status().unwrap();
    assert_eq!(counter(&status, "server.errors.line_too_long"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Tentpole backpressure — past `max_conns` the acceptor answers a
/// typed `server_busy` error and closes, instead of stalling or
/// spawning without bound; established connections are untouched.
#[test]
fn connection_cap_refuses_with_typed_server_busy() {
    let config = ServerConfig { max_conns: 1, ..ServerConfig::default() };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut a = Client::connect(addr).unwrap();
    // A round trip guarantees A is accepted and counted before B tries.
    a.server_status().unwrap();

    let (mut b_reader, _b_stream) = raw_conn(addr);
    let line = read_line(&mut b_reader);
    let v = pbo::core::json::parse(&line).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("server_busy"),
        "{line}"
    );
    let mut rest = String::new();
    assert_eq!(b_reader.read_to_string(&mut rest).unwrap(), 0, "B must be closed after the refusal");

    // A is unaffected and sees the rejection in the counters.
    let status = a.server_status().unwrap();
    assert_eq!(counter(&status, "server.conns.busy_rejected"), 1);
    assert!(gauge(&status, "server.conns.live") >= 1.0);

    a.shutdown().unwrap();
    handle.join().unwrap();
}

/// Tentpole containment — a silent connection is answered a typed
/// `idle_timeout` error and closed, freeing its slot; the server stays
/// healthy for clients that arrive afterwards.
#[test]
fn idle_connection_gets_typed_timeout_and_is_closed() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let (mut idle_reader, _idle_stream) = raw_conn(addr);
    // Send nothing. The server must speak first — a typed refusal.
    let line = read_line(&mut idle_reader);
    let v = pbo::core::json::parse(&line).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("idle_timeout"),
        "{line}"
    );
    let mut rest = String::new();
    assert_eq!(idle_reader.read_to_string(&mut rest).unwrap(), 0, "idle conn must be closed");

    // The slot is free again: a new client works and sees the counter.
    let mut client = Client::connect(addr).unwrap();
    let status = client.server_status().unwrap();
    assert_eq!(counter(&status, "server.conns.idle_timeout"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite bugfix — shutdown used to leave handler threads detached,
/// racing a severed in-flight tell. The drain contract: a tell issued
/// just before shutdown either completes with a reply or is refused —
/// never half-applied — `run()` returns only after every connection
/// thread is joined, and every surviving connection is closed (EOF),
/// not abandoned to a detached thread.
#[test]
fn shutdown_drains_in_flight_tell_and_joins_workers() {
    let registry = Arc::new(Registry::in_memory());
    let server = Server::bind(registry.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // Set up a session and fetch its design ask over a raw connection.
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 62, 2, 2);
    let (mut a_reader, mut a_stream) = raw_conn(addr);
    send_line(&mut a_stream, &proto::encode_create("draining", &cfg));
    read_line(&mut a_reader);
    send_line(&mut a_stream, &proto::encode_ask("draining"));
    let ask = pbo::core::json::parse(&read_line(&mut a_reader)).unwrap();
    let turn = ask.get("turn").and_then(pbo::core::json::Json::as_usize).unwrap();
    let points: Vec<Vec<f64>> = ask
        .get("points")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap()
        .iter()
        .map(|row| row.as_array().unwrap().iter().filter_map(|x| x.as_f64()).collect())
        .collect();
    let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();

    // An idle bystander connection, open across the shutdown.
    let (mut c_reader, _c_stream) = raw_conn(addr);

    // The in-flight tell: written, reply deliberately not read yet.
    send_line(&mut a_stream, &proto::encode_tell("draining", turn, &values));
    std::thread::sleep(Duration::from_millis(300));

    // Another client asks the daemon to stop.
    let mut b = Client::connect(addr).unwrap();
    b.shutdown().unwrap();
    handle.join().expect("run() must return cleanly after the drain");

    // The tell was answered before the drain closed A — and the answer
    // matches the registry state: applied exactly once, never half.
    let reply = pbo::core::json::parse(&read_line(&mut a_reader)).unwrap();
    assert_eq!(reply.get("ok").and_then(pbo::core::json::Json::as_bool), Some(true));
    assert_eq!(
        reply.get("turn").and_then(pbo::core::json::Json::as_usize),
        Some(turn + 1),
        "tell reply must carry the advanced turn"
    );
    let (status, _) = registry.status("draining").unwrap();
    assert_eq!(status.turn, turn + 1, "registry and reply disagree on the tell");

    // Both connections are closed, not abandoned: EOF, promptly.
    let mut rest = String::new();
    assert_eq!(a_reader.read_to_string(&mut rest).unwrap(), 0, "A must be closed by the drain");
    assert_eq!(c_reader.read_to_string(&mut rest).unwrap(), 0, "idle bystander must be closed");
}

/// Soak — 64 simultaneous client threads, each on a connection thread
/// of its own, with an oversize offender driving interleaved create/ask/tell
/// traffic on a damaged connection and a silent connection parked
/// across the whole run. Every session's record must be byte-identical
/// to its in-process `drive --local` reference, and the containment
/// counters must reconcile exactly.
#[test]
fn pooled_soak_64_threaded_clients_are_byte_identical() {
    let config = ServerConfig {
        max_conns: 128,
        // Generous: a client thread starved by the scheduler must never
        // be mistaken for an idle offender.
        idle_timeout: Duration::from_secs(60),
        max_line_bytes: 64 * 1024,
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // A silent offender, parked for the duration of the soak.
    let (mut idle_reader, _idle_stream) = raw_conn(addr);

    // 64 concurrent drives, each on its own connection and thread.
    let drivers: Vec<std::thread::JoinHandle<(String, String, String)>> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let algorithm = if i % 8 == 0 {
                    AlgorithmKind::KbQEgo
                } else {
                    AlgorithmKind::RandomSearch
                };
                let (p, cfg) = session_cfg(algorithm, 900 + i as u64, 2, 2);
                let id = format!("pool-soak-{i:02}");
                let mut client = Client::connect(addr).unwrap();
                let outcome = drive(&mut client, &id, &cfg, &p, None).unwrap();
                assert!(outcome.done, "{id} did not finish");
                (id, outcome.record.unwrap(), reference_line(&p, &cfg))
            })
        })
        .collect();

    // Meanwhile, the oversize offender: a 256 KiB line against the
    // 64 KiB cap, then a full session on the same damaged connection.
    let mut offender = Client::connect(addr).unwrap();
    let resp = offender.raw(&"z".repeat(256 * 1024)).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("line_too_long")
    );
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 964, 2, 2);
    let outcome = drive(&mut offender, "pool-soak-offender", &cfg, &p, None).unwrap();
    assert_eq!(
        outcome.record.unwrap(),
        reference_line(&p, &cfg),
        "offender's own session diverged"
    );

    for d in drivers {
        let (id, got, want) = d.join().unwrap();
        assert_eq!(got, want, "session {id} was perturbed by concurrent connections");
    }

    // Containment counters reconcile exactly: one oversize line, no
    // busy rejections (128-cap), no idle timeouts (60 s window), and
    // 65 sessions created (64 drivers + the offender's).
    let status = offender.server_status().unwrap();
    assert_eq!(counter(&status, "server.errors.line_too_long"), 1);
    assert_eq!(counter(&status, "server.conns.busy_rejected"), 0);
    assert_eq!(counter(&status, "server.conns.idle_timeout"), 0);
    assert_eq!(counter(&status, "server.sessions.created"), 65);

    offender.shutdown().unwrap();
    handle.join().unwrap();

    // The drain closed the parked silent connection too.
    let mut rest = String::new();
    assert_eq!(idle_reader.read_to_string(&mut rest).unwrap(), 0, "drain must close idle conns");
}

/// A peer trickling bytes of a line it never finishes completes no
/// request, so it must not move the idle deadline: each read waits
/// only for the time left to that deadline, and the connection is
/// answered the typed `idle_timeout` error on schedule. A per-read
/// timeout would keep this connection alive for as long as the trickle
/// lasts.
#[test]
fn trickled_partial_line_does_not_reset_the_idle_deadline() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let (mut reader, stream) = raw_conn(addr);
    let start = std::time::Instant::now();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // One byte of a partial line every 100 ms for up to 4 s, offset by
    // 50 ms so no byte lands on the 400 ms deadline itself.
    let trickler = {
        let mut stream = stream.try_clone().unwrap();
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            for byte in "{\"proto\":2,\"op\":\"list\"".bytes().cycle().take(40) {
                if stop.load(std::sync::atomic::Ordering::SeqCst)
                    || stream.write_all(&[byte]).is_err()
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let line = read_line(&mut reader);
    let elapsed = start.elapsed();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    trickler.join().unwrap();
    let v = pbo::core::json::parse(&line).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("idle_timeout"),
        "{line}"
    );
    assert!(elapsed < Duration::from_millis(1500), "trickle kept the connection alive {elapsed:?}");
    // Closed after the refusal. A trickled byte racing the close may
    // turn the EOF into a reset; either way nothing more is sent.
    let mut rest = String::new();
    match reader.read_to_string(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("trickling connection must be closed, got {other:?} {rest:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    let status = client.server_status().unwrap();
    assert_eq!(counter(&status, "server.conns.idle_timeout"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// No head-of-line blocking: with one compute-heavy `ask` in flight on
/// each of as many connections as there are cores, a cheap request on
/// one more connection is still answered while every one of those asks
/// is unanswered — each connection is served by a thread of its own.
#[test]
fn cheap_request_is_not_blocked_behind_compute_heavy_asks() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry = Arc::new(Registry::in_memory());
    let server = Server::bind(registry.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // kb-q-EGO past a large design: its first model-based ask fits a GP
    // to every design point and runs the acquisition.
    let p = SyntheticFn::ackley(6);
    let mut heavy = Vec::new();
    for i in 0..cores {
        let cfg = SessionConfig {
            algorithm: AlgorithmKind::KbQEgo,
            problem: ProblemSpec::of(&p),
            budget: Budget::cycles(1, 4).with_initial_samples(256),
            profile: SessionProfile::Test,
            seed: 40 + i as u64,
        };
        let id = format!("hol-{i}");
        let (mut reader, mut stream) = raw_conn(addr);
        stream.set_read_timeout(Some(Duration::from_secs(600))).unwrap();
        send_line(&mut stream, &proto::encode_create(&id, &cfg));
        read_line(&mut reader);
        send_line(&mut stream, &proto::encode_ask(&id));
        let ask = pbo::core::json::parse(&read_line(&mut reader)).unwrap();
        let turn = ask.get("turn").and_then(pbo::core::json::Json::as_usize).unwrap();
        let values: Vec<f64> = ask
            .get("points")
            .and_then(pbo::core::json::Json::as_array)
            .unwrap()
            .iter()
            .map(|row| {
                let x: Vec<f64> =
                    row.as_array().unwrap().iter().filter_map(|v| v.as_f64()).collect();
                p.eval(&x)
            })
            .collect();
        send_line(&mut stream, &proto::encode_tell(&id, turn, &values));
        read_line(&mut reader);
        heavy.push((reader, stream, id));
    }
    for (_, stream, id) in &mut heavy {
        send_line(stream, &proto::encode_ask(id));
    }
    // The ask counter ticks as an ask starts: once it counts every
    // design ask and every heavy ask, each heavy ask is being computed.
    let started = || registry.metrics().snapshot().counter("server.requests.ask");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while started() < 2 * cores as u64 {
        assert!(std::time::Instant::now() < deadline, "heavy asks never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut bystander = Client::connect(addr).unwrap();
    let status = bystander.server_status().unwrap();
    assert_eq!(status.get("ok").and_then(pbo::core::json::Json::as_bool), Some(true));
    for (reader, _, id) in &mut heavy {
        assert!(reader.buffer().is_empty());
        reader.get_ref().set_nonblocking(true).unwrap();
        let mut probe = [0u8; 1];
        let pending = matches!(
            reader.get_mut().read(&mut probe),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        assert!(pending, "{id}'s ask was answered before a cheap status request");
        reader.get_ref().set_nonblocking(false).unwrap();
    }
    for (reader, _, _) in &mut heavy {
        let reply = pbo::core::json::parse(&read_line(reader)).unwrap();
        assert_eq!(reply.get("ok").and_then(pbo::core::json::Json::as_bool), Some(true));
    }

    bystander.shutdown().unwrap();
    handle.join().unwrap();
}

/// No per-request wire stall: a request line and a reply line each
/// leave in one write on a `TCP_NODELAY` socket, so a round trip never
/// waits on the peer's delayed ACK (about 40 ms per direction when a
/// line is split into two writes under Nagle's algorithm).
#[test]
fn sequential_round_trips_on_one_connection_do_not_stall() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();
    let (_, cfg) = session_cfg(AlgorithmKind::RandomSearch, 5, 2, 2);
    client.create("rtt", &cfg).unwrap();

    let start = std::time::Instant::now();
    for _ in 0..200 {
        client.status("rtt").unwrap();
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "200 round trips took {elapsed:?}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A finished session shrinks to a table stub plus `<id>.record.json`,
/// and answers every request exactly as the full finished session did.
/// The expected replies are pinned from the server that kept the whole
/// session in its table; they must hold on a persistent registry, after
/// a restart of it, and on an in-memory one. `gc` then removes both of
/// a session's files.
#[test]
fn finished_session_stub_answers_byte_identically_across_restart() {
    use pbo_server::server::dispatch;
    let p = SyntheticFn::ackley(2);
    let (_, fin) = session_cfg(AlgorithmKind::RandomSearch, 61, 2, 2);
    let (_, vq) = session_cfg(AlgorithmKind::HybridQ, 62, 2, 2);
    let (_, live) = session_cfg(AlgorithmKind::RandomSearch, 63, 2, 2);
    let (_, other) = session_cfg(AlgorithmKind::RandomSearch, 99, 2, 2);
    let finished = "{\"ok\":false,\"error\":{\"code\":\"finished\",\"message\":\"session already finished\"}}";
    let pinned: Vec<(String, &str)> = vec![
        (proto::encode_create("fin", &fin),
         "{\"ok\":true,\"id\":\"fin\",\"key\":\"ccd841f6c30a4536\",\"created\":false,\"turn\":3}"),
        (proto::encode_create("fin", &other),
         "{\"ok\":false,\"error\":{\"code\":\"config_mismatch\",\"message\":\"session 'fin' exists with config key ccd841f6c30a4536, request hashes to cd0449f6c32f8db9\"}}"),
        (proto::encode_ask("fin"), finished),
        (proto::encode_tell("fin", 3, &[1.0, 2.0]), finished),
        (proto::encode_tell("fin", 0, &[1.0, 2.0]),
         "{\"ok\":false,\"error\":{\"code\":\"wrong_turn\",\"message\":\"wrong turn: expected 3, got 0\"}}"),
        (proto::encode_id_op("status", "fin"),
         "{\"ok\":true,\"id\":\"fin\",\"phase\":\"done\",\"turn\":3,\"cycles\":2,\"n_data\":8,\"best_y\":6.638700009287518,\"clock\":21.2,\"key\":\"ccd841f6c30a4536\"}"),
        (proto::encode_id_op("status", "vq"),
         "{\"ok\":true,\"id\":\"vq\",\"phase\":\"done\",\"turn\":3,\"cycles\":2,\"n_data\":8,\"best_y\":4.38390231252054,\"clock\":25.2,\"key\":\"f92e5454b05b25bc\"}"),
        (proto::encode_bare_op("list"),
         "{\"ok\":true,\"sessions\":[{\"id\":\"fin\",\"phase\":\"done\",\"turn\":3},{\"id\":\"live\",\"phase\":\"design\",\"turn\":0},{\"id\":\"vq\",\"phase\":\"done\",\"turn\":3}]}"),
        ("{\"proto\":1,\"op\":\"ask\",\"id\":\"vq\"}".to_string(),
         "{\"ok\":false,\"error\":{\"code\":\"unsupported_version\",\"message\":\"session 'vq' chooses its batch size per cycle; proto 2 is required to carry q\"}}"),
        ("{\"proto\":1,\"op\":\"ask\",\"id\":\"fin\"}".to_string(), finished),
        (proto::encode_ask("vq"), finished),
    ];
    let mut record_reply = String::from("{\"ok\":true,\"record\":");
    pbo::core::json::push_str_literal(&mut record_reply, &reference_line(&p, &fin));
    record_reply.push('}');
    assert_eq!(record_reply.len(), 1173, "the pinned server's record reply length");
    let check = |reg: &Registry, when: &str| {
        for (request, want) in &pinned {
            assert_eq!(dispatch(reg, request).0, *want, "{when}: {request}");
        }
        let (reply, _) = dispatch(reg, &proto::encode_id_op("record", "fin"));
        assert_eq!(reply, record_reply, "{when}: record");
    };
    let populate = |reg: &Registry| {
        for (id, cfg) in [("fin", &fin), ("vq", &vq)] {
            reg.create(id, cfg.clone()).unwrap();
            loop {
                let ask = reg.ask(id).unwrap();
                let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
                if reg.tell(id, ask.turn, &values).unwrap().done {
                    break;
                }
            }
        }
        reg.create("live", live.clone()).unwrap();
    };

    let memory = Registry::in_memory();
    populate(&memory);
    check(&memory, "in memory");

    let dir = tmp_dir("stub");
    let reg = Registry::open(&dir).unwrap();
    populate(&reg);
    check(&reg, "persistent");
    drop(reg); // "kill -9": every state was persisted before its reply
    let reg = Registry::open(&dir).unwrap();
    check(&reg, "after restart");

    let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 0 });
    assert_eq!(report.evicted.len(), 2);
    for id in ["fin", "vq"] {
        assert!(!dir.join(format!("{id}.session.json")).exists(), "{id} checkpoint kept");
        assert!(!dir.join(format!("{id}.record.json")).exists(), "{id} record kept");
    }
    assert!(dir.join("live.session.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Hostile told values and oversized configs through `dispatch`.
// ---------------------------------------------------------------------

/// The error code of a reply line, or `None` for an `ok` reply.
fn reply_error(reply: &str) -> Option<String> {
    let v = pbo::core::json::parse(reply).expect("every reply is JSON");
    if v.get("ok").and_then(pbo::core::json::Json::as_bool) == Some(true) {
        return None;
    }
    let code = v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str);
    Some(code.unwrap_or_else(|| panic!("untyped error reply {reply}")).to_string())
}

/// Told values for `(cycle, points)`.
type TellValues<'a> = dyn Fn(usize, &[Vec<f64>]) -> Vec<f64> + 'a;

/// Answer every ask of session `id` with `values(cycle, points)`
/// (cycle 0 is the design); a tell the session refuses is retried with
/// the true objective values. Every reply must be `ok` or a typed
/// error, and the session must finish.
fn drive_dispatch(
    reg: &Registry,
    id: &str,
    p: &SyntheticFn,
    values: &TellValues<'_>,
) {
    use pbo::core::json::Json;
    use pbo_server::server::dispatch;
    for cycle in 0.. {
        assert!(cycle < 64, "{id}: session never finished");
        let (reply, _) = dispatch(reg, &proto::encode_ask(id));
        if reply_error(&reply).as_deref() == Some("finished") {
            return;
        }
        assert_eq!(reply_error(&reply), None, "{id}: ask {reply}");
        let v = pbo::core::json::parse(&reply).unwrap();
        let turn = v.get("turn").and_then(Json::as_usize).unwrap();
        let points: Vec<Vec<f64>> = v
            .get("points")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|p| p.as_array().unwrap().iter().map(|c| c.as_f64().unwrap()).collect())
            .collect();
        let (reply, _) = dispatch(reg, &proto::encode_tell(id, turn, &values(cycle, &points)));
        if reply_error(&reply).is_some() {
            let truth: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();
            let (reply, _) = dispatch(reg, &proto::encode_tell(id, turn, &truth));
            assert_eq!(reply_error(&reply), None, "{id}: retold truth {reply}");
        }
    }
}

/// Told-value fuzz: every algorithm survives pathological objective
/// values — overflow-scale magnitudes, a constant, underflow-scale
/// magnitudes, non-finite mixes and an all-NaN cycle. Every reply is
/// `ok` or a typed error, every session finishes, and the daemon still
/// answers `server-status`.
#[test]
fn told_value_fuzz_yields_typed_replies_and_every_session_finishes() {
    use pbo_server::server::dispatch;
    type Values = fn(usize, usize, f64) -> f64;
    let cases: [(&str, Values); 7] = [
        ("pm1e300", |_, i, _| if i % 2 == 0 { 1e300 } else { -1e300 }),
        ("pm_max", |_, i, _| if i % 2 == 0 { f64::MAX } else { -f64::MAX }),
        ("constant", |_, _, _| 3.25),
        ("tiny", |_, _, y| y * 1e-300),
        ("nan_mix", |_, i, y| if i % 3 == 1 { f64::NAN } else { y }),
        ("inf_mix", |_, i, y| match i % 4 {
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => y,
        }),
        ("nan_cycle", |cycle, _, y| if cycle == 1 { f64::NAN } else { y }),
    ];
    let reg = Registry::in_memory();
    for (k, &kind) in AlgorithmKind::ALL.iter().enumerate() {
        for (name, f) in cases {
            let (p, cfg) = session_cfg(kind, 700 + k as u64, 2, 3);
            let id = format!("{}-{name}", kind.name());
            let (reply, _) = dispatch(&reg, &proto::encode_create(&id, &cfg));
            assert_eq!(reply_error(&reply), None, "{id}: create {reply}");
            let values = |cycle: usize, points: &[Vec<f64>]| -> Vec<f64> {
                points.iter().enumerate().map(|(i, x)| f(cycle, i, p.eval(x))).collect()
            };
            drive_dispatch(&reg, &id, &p, &values);
            let (reply, _) = dispatch(&reg, &proto::encode_id_op("status", &id));
            assert!(reply.contains("\"phase\":\"done\""), "{id}: {reply}");
        }
    }
    let (reply, _) = dispatch(&reg, &proto::encode_bare_op("server-status"));
    assert_eq!(reply_error(&reply), None, "{reply}");
}

/// A create whose design or batch would carry an absurd number of
/// coordinates is refused as `invalid_config` before anything is
/// allocated, and the daemon goes on serving other sessions.
#[test]
fn oversized_design_or_batch_is_invalid_config_and_harms_nothing() {
    use pbo_server::server::dispatch;
    let reg = Registry::in_memory();
    let (p, mut huge_design) = session_cfg(AlgorithmKind::KbQEgo, 5, 2, 2);
    huge_design.budget.initial_samples = 1_000_000_000_000_000;
    let (_, mut huge_q) = session_cfg(AlgorithmKind::KbQEgo, 5, 2, 2);
    huge_q.budget.batch_size = 1_000_000_000_000_000;
    for (id, cfg) in [("huge-design", &huge_design), ("huge-q", &huge_q)] {
        let (reply, _) = dispatch(&reg, &proto::encode_create(id, cfg));
        assert_eq!(reply_error(&reply).as_deref(), Some("invalid_config"), "{id}: {reply}");
        let (reply, _) = dispatch(&reg, &proto::encode_ask(id));
        assert_eq!(reply_error(&reply).as_deref(), Some("unknown_session"), "{id}: {reply}");
    }
    let (_, cfg) = session_cfg(AlgorithmKind::KbQEgo, 5, 2, 2);
    let (reply, _) = dispatch(&reg, &proto::encode_create("sane", &cfg));
    assert_eq!(reply_error(&reply), None, "{reply}");
    drive_dispatch(&reg, "sane", &p, &|_, points| points.iter().map(|x| p.eval(x)).collect());
    assert_eq!(reg.record_line("sane").unwrap(), reference_line(&p, &cfg));
}

/// The bytes a serial create of `id` with `cfg` writes as its first
/// checkpoint.
fn serial_checkpoint(id: &str, cfg: &SessionConfig) -> String {
    let dir = tmp_dir(&format!("serial_{id}_{}", cfg.seed));
    Registry::open(&dir).unwrap().create(id, cfg.clone()).unwrap();
    let body = std::fs::read_to_string(dir.join(format!("{id}.session.json"))).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    body
}

/// Two creates of one id with one config, released together: exactly
/// one builds the session, the other re-attaches, and the checkpoint is
/// the one a lone create writes.
#[test]
fn racing_creates_of_one_id_build_it_once() {
    let dir = tmp_dir("race_same");
    let reg = Registry::open(&dir).unwrap();
    let (_, cfg) = session_cfg(AlgorithmKind::KbQEgo, 21, 2, 2);
    let barrier = std::sync::Barrier::new(2);
    let mut created: Vec<bool> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    reg.create("twin", cfg.clone())
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap().unwrap().created).collect()
    });
    created.sort();
    assert_eq!(created, [false, true]);
    assert_eq!(reg.metrics().snapshot().counter("server.sessions.created"), 1);
    let on_disk = std::fs::read_to_string(dir.join("twin.session.json")).unwrap();
    assert_eq!(on_disk, serial_checkpoint("twin", &cfg));
    let _ = std::fs::remove_dir_all(dir);
}

/// Two creates of one id with different configs: one wins, the other is
/// `config_mismatch`, and the winner's checkpoint is on disk.
#[test]
fn racing_creates_with_different_configs_keep_the_winner() {
    let dir = tmp_dir("race_mismatch");
    let reg = Registry::open(&dir).unwrap();
    let cfgs = [21, 22].map(|seed| session_cfg(AlgorithmKind::RandomSearch, seed, 2, 2).1);
    let barrier = std::sync::Barrier::new(2);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let racers: Vec<_> = cfgs
            .iter()
            .map(|cfg| {
                let barrier = &barrier;
                let reg = &reg;
                scope.spawn(move || {
                    barrier.wait();
                    reg.create("contested", cfg.clone())
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let winners: Vec<usize> = (0..2).filter(|&i| outcomes[i].is_ok()).collect();
    assert_eq!(winners.len(), 1, "{outcomes:?}");
    let (win, lose) = (winners[0], 1 - winners[0]);
    assert!(outcomes[win].as_ref().unwrap().created);
    assert_eq!(outcomes[lose].as_ref().unwrap_err().code, "config_mismatch");
    assert_eq!(reg.metrics().snapshot().counter("server.sessions.created"), 1);
    let on_disk = std::fs::read_to_string(dir.join("contested.session.json")).unwrap();
    assert_eq!(on_disk, serial_checkpoint("contested", &cfgs[win]));
    let _ = std::fs::remove_dir_all(dir);
}

/// A create that fails, in validation or in its first checkpoint
/// write, frees its id and leaves no checkpoint; a later valid create
/// of the id succeeds.
#[test]
fn failed_create_frees_the_id_and_writes_no_checkpoint() {
    let dir = tmp_dir("failed_create");
    let reg = Registry::open(&dir).unwrap();
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let (_, mut huge) = session_cfg(AlgorithmKind::KbQEgo, 5, 2, 2);
    huge.budget.initial_samples = 1 << 40;
    assert_eq!(reg.create("s", huge).unwrap_err().code, "invalid_config");
    assert!(files().is_empty());
    assert!(reg.is_empty() && reg.list().is_empty());
    assert_eq!(reg.ask("s").unwrap_err().code, "unknown_session");

    // A directory squatting on the checkpoint's temp path fails the write.
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 5, 2, 2);
    let squat = dir.join("s.session.json.tmp");
    std::fs::create_dir(&squat).unwrap();
    assert_eq!(reg.create("s", cfg.clone()).unwrap_err().code, "io");
    assert_eq!(files(), ["s.session.json.tmp"]);
    assert!(reg.is_empty() && reg.list().is_empty());
    assert_eq!(reg.ask("s").unwrap_err().code, "unknown_session");

    std::fs::remove_dir(&squat).unwrap();
    assert!(reg.create("s", cfg.clone()).unwrap().created);
    assert_eq!(reg.metrics().snapshot().counter("server.sessions.created"), 1);
    let record = drive_state(
        SessionState::from_checkpoint_line(&serial_checkpoint("s", &cfg), NullObserver).unwrap().1,
        &p,
    );
    assert_eq!(record, reference_line(&p, &cfg));
    let _ = std::fs::remove_dir_all(dir);
}

/// Poll `done` until it holds; panics after a minute.
#[cfg(unix)]
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `f` against the registry on a thread of its own.
#[cfg(unix)]
fn on_thread<T: Send + 'static>(
    reg: &Arc<Registry>,
    f: impl FnOnce(&Registry) -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    let reg = reg.clone();
    std::thread::spawn(move || f(&reg))
}

/// The session table is locked only to check and reserve an id. A
/// create paused inside its first checkpoint write (the temp file is a
/// FIFO that nobody reads yet) holds up no request on another id, and
/// cannot reply before its checkpoint is written. A second create of
/// its id, `list` and `gc` wait for it, and then see a created session.
#[cfg(unix)]
#[test]
fn create_in_flight_holds_only_its_own_id() {
    use std::sync::mpsc;
    let dir = tmp_dir("create_in_flight");
    let reg = Arc::new(Registry::open(&dir).unwrap());
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 3, 2, 2);
    reg.create("other", cfg.clone()).unwrap();
    let fifo = dir.join("slow.session.json.tmp");
    assert!(std::process::Command::new("mkfifo").arg(&fifo).status().unwrap().success());

    let create_slow = |cfg: SessionConfig| move |r: &Registry| r.create("slow", cfg).unwrap().created;
    let first = on_thread(&reg, create_slow(cfg.clone()));
    // Once `slow` is reserved, requests on other ids finish while it is
    // mid-create. They run on a helper that this thread awaits on a
    // channel, so a table lock held across a create fails the test
    // instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let bystander_cfg = cfg.clone();
    let bystander = on_thread(&reg, move |r| {
        wait_until("the reservation", || r.len() == 2);
        let ask = r.ask("other").unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        r.tell("other", ask.turn, &values).unwrap();
        let third = r.create("third", bystander_cfg).unwrap().created;
        tx.send((third, r.status("other").unwrap().0.turn)).unwrap();
    });
    let served = rx.recv_timeout(Duration::from_secs(60));
    assert_eq!(served, Ok((true, 1)), "a request on another id waited behind a create");
    assert!(!first.is_finished(), "the create replied before its checkpoint was written");
    let second = on_thread(&reg, create_slow(cfg.clone()));
    let list = on_thread(&reg, |r| r.list());
    let gc = on_thread(&reg, |r| r.gc(&GcPolicy { max_age_secs: None, keep_newest: 0 }));

    let body = std::fs::read_to_string(&fifo).unwrap();
    assert!(first.join().unwrap());
    assert!(!second.join().unwrap());
    let listed = list.join().unwrap();
    assert!(listed.contains(&("slow".into(), "design".into(), 0)), "{listed:?}");
    assert!(gc.join().unwrap().evicted.is_empty());
    bystander.join().unwrap();
    assert_eq!(reg.metrics().snapshot().counter("server.sessions.created"), 3);
    assert_eq!(body, serial_checkpoint("slow", &cfg));
    let _ = std::fs::remove_dir_all(dir);
}
