//! The TCP daemon: one blocking thread per connection, capped;
//! newline-delimited JSON.
//!
//! Failure containment is the design rule: a malformed line answers a
//! typed error and the connection lives on; a session-layer error
//! answers a typed error and the *session* lives on; a dropped, idle
//! or hostile connection costs at most its own thread. The accept
//! loop ends on a `shutdown` request — which *drains* in-flight
//! requests and joins every connection thread before [`Server::run`]
//! returns — or on the process being killed, which is exactly what the
//! crash/restart conformance suite does.
//!
//! ## Concurrency model (DESIGN.md §14)
//!
//! One acceptor (the thread inside `run`) hands each accepted socket
//! to a thread of its own, which does blocking reads and owns the
//! connection from accept to close. Containment:
//!
//! - **Backpressure**: past `max_conns` live connections the acceptor
//!   answers a typed `server_busy` error and closes — never a silent
//!   stall, never an unbounded thread spawn.
//! - **Idle timeout**: a connection with no complete request for
//!   `idle_timeout` is answered a typed `idle_timeout` error and
//!   closed, freeing its slot. Each read waits only for the time left
//!   to that deadline, and only a served request moves it, so a peer
//!   trickling bytes cannot keep a connection alive.
//! - **Line cap**: a request line exceeding `max_line_bytes` is
//!   answered a typed `line_too_long` error; the oversized line is
//!   discarded as it streams in (bounded memory) and the connection
//!   stays usable.
//! - **Slow reader**: reply writes carry a write timeout; a peer that
//!   stops reading is disconnected instead of pinning its thread.
//!
//! Scheduling can never perturb a session trajectory: every session
//! transition runs under that session's own lock in the registry and
//! depends only on the session's journal — which thread ran it, and
//! in what order relative to *other* sessions' requests, is invisible
//! to the state machine (the conformance soak pins this).

use crate::proto::{parse_request, ErrorBody, Request, RequestErrorKind};
use crate::registry::Registry;
use pbo_core::json::{push_f64_lossless, push_str_literal};
use pbo_core::observe::metrics::{Counter, Gauge};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Containment limits for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// A connection with no complete request for this long is answered
    /// a typed `idle_timeout` error and closed. Also bounds how long a
    /// reply write may block on a non-reading peer.
    pub idle_timeout: Duration,
    /// Request lines beyond this many bytes are answered a typed
    /// `line_too_long` error and discarded (bounded memory).
    pub max_line_bytes: usize,
    /// Live-connection (and so connection-thread) cap: connections
    /// accepted past it are answered a typed `server_busy` error and
    /// closed. Default: 64 × available parallelism.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServerConfig {
            idle_timeout: Duration::from_secs(300),
            max_line_bytes: 1 << 20,
            max_conns: cores * 64,
        }
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    registry: Arc<Registry>,
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Wait for the daemon to exit (after a `shutdown` request).
    /// A panicked server thread is a typed [`std::io::Error`], not a
    /// propagated panic — the supervising caller stays alive to log,
    /// restart or fail over.
    pub fn join(self) -> std::io::Result<()> {
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; read the real
    /// one back from [`Server::local_addr`]) with default
    /// [`ServerConfig`].
    pub fn bind(registry: Arc<Registry>, addr: &str) -> std::io::Result<Server> {
        Server::bind_with(registry, addr, ServerConfig::default())
    }

    /// Bind with explicit containment limits.
    pub fn bind_with(
        registry: Arc<Registry>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            registry,
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a `shutdown` request arrives, then drain: stop
    /// accepting, answer every request already received, close every
    /// connection and join every connection thread. Blocking; when it
    /// returns, no connection thread survives.
    pub fn run(self) -> std::io::Result<()> {
        let front = Arc::new(Front::new(
            self.registry,
            self.addr,
            self.shutdown.clone(),
            self.config,
        ));
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut panicked = false;
        let mut next_id = 0u64;

        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            front.accepted.inc();
            // Reap finished connection threads so the handle list stays
            // bounded by the live-connection cap.
            let (done, running): (Vec<_>, Vec<_>) =
                threads.into_iter().partition(|t| t.is_finished());
            threads = running;
            for t in done {
                panicked |= t.join().is_err();
            }
            let setup = stream
                .set_write_timeout(Some(front.cfg.idle_timeout))
                .and_then(|()| stream.set_nodelay(true));
            let Ok(drain_handle) = setup.and_then(|()| stream.try_clone()) else {
                continue;
            };
            let Some(slot) = front.admit(drain_handle, next_id) else {
                front.busy_rejected.inc();
                reject_busy(stream, front.cfg.max_conns);
                continue;
            };
            next_id += 1;
            let conn_front = front.clone();
            // A failed spawn drops the closure, and with it the slot.
            if let Ok(t) = std::thread::Builder::new()
                .name(format!("pbo-conn-{}", slot.id))
                .spawn(move || {
                    let _slot = slot;
                    serve_conn(&conn_front, stream);
                })
            {
                threads.push(t);
            }
        }

        // Drain: end every live connection's read side. A blocked read
        // returns EOF at once, bytes already received are still read
        // first, and the write half stays open — so every request that
        // has arrived is answered, and no later one is started.
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in front.live.lock().unwrap_or_else(PoisonError::into_inner).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for t in threads {
            panicked |= t.join().is_err();
        }
        if panicked {
            return Err(std::io::Error::other("a connection thread panicked"));
        }
        Ok(())
    }

    /// Serve on a background thread; returns once the socket accepts.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let handle = std::thread::spawn(move || self.run());
        ServerHandle { addr, handle }
    }
}

/// Best-effort `server_busy` refusal on a just-accepted socket.
fn reject_busy(mut stream: TcpStream, max_conns: usize) {
    let body = ErrorBody::request(
        RequestErrorKind::ServerBusy,
        format!("connection limit ({max_conns}) reached; retry shortly"),
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut line = body.to_line();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// State shared by the acceptor and every connection thread.
struct Front {
    registry: Arc<Registry>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
    /// A clone of every live connection's stream, keyed by connection
    /// id — the drain's handle on each blocked read. Every update is a
    /// single insert or remove, so a poisoned lock still guards a valid
    /// map (and the slot guard's `Drop` must not panic).
    live: Mutex<HashMap<u64, TcpStream>>,
    live_gauge: Arc<Gauge>,
    accepted: Arc<Counter>,
    busy_rejected: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    oversize: Arc<Counter>,
    write_timeouts: Arc<Counter>,
}

impl Front {
    fn new(
        registry: Arc<Registry>,
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        cfg: ServerConfig,
    ) -> Front {
        let m = registry.metrics().clone();
        Front {
            addr,
            shutdown,
            cfg,
            live: Mutex::new(HashMap::new()),
            live_gauge: m.gauge("server.conns.live"),
            accepted: m.counter("server.conns.accepted"),
            busy_rejected: m.counter("server.conns.busy_rejected"),
            idle_timeouts: m.counter("server.conns.idle_timeout"),
            oversize: m.counter("server.errors.line_too_long"),
            write_timeouts: m.counter("server.conns.write_timeout"),
            registry,
        }
    }

    /// Claim a live slot for connection `id`, keeping `drain_handle` (a
    /// clone of its stream) for the drain; `None` at the cap.
    fn admit(self: &Arc<Front>, drain_handle: TcpStream, id: u64) -> Option<Slot> {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if live.len() >= self.cfg.max_conns.max(1) {
            return None;
        }
        live.insert(id, drain_handle);
        self.live_gauge.set(live.len() as f64);
        Some(Slot { front: self.clone(), id })
    }
}

/// One live connection's claim on the cap. Dropping it — on a normal
/// close or while a panicking connection thread unwinds — frees the
/// slot and closes the drain's clone of the stream.
struct Slot {
    front: Arc<Front>,
    id: u64,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut live = self.front.live.lock().unwrap_or_else(PoisonError::into_inner);
        live.remove(&self.id);
        self.front.live_gauge.set(live.len() as f64);
    }
}

/// Serve one connection until the peer closes, errors, idles out or
/// stalls, or the drain ends its read side. `buf` holds bytes received
/// but not yet parsed into a complete line; `scanned` marks the prefix
/// already known newline-free (no re-scans).
fn serve_conn(front: &Front, mut stream: TcpStream) {
    let cfg = &front.cfg;
    let mut buf: Vec<u8> = Vec::new();
    let mut scanned = 0usize;
    let mut discard = false;
    let mut idle_deadline = Instant::now() + cfg.idle_timeout;
    let mut chunk = [0u8; READ_CHUNK];
    let too_long = || {
        front.oversize.inc();
        ErrorBody::request(
            RequestErrorKind::LineTooLong,
            format!("request line exceeds {} bytes", cfg.max_line_bytes),
        )
        .to_line()
    };
    loop {
        // Answer every complete line currently buffered.
        while let Some(at) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let pos = scanned + at;
            let line: Vec<u8> = buf.drain(..=pos).collect();
            scanned = 0;
            if discard {
                // Tail of an oversized line: the error was already
                // answered when the cap tripped; swallow the rest.
                discard = false;
                continue;
            }
            // A whole line can slip past the partial-line cap below if
            // it arrives (newline included) within one read, so the cap
            // is also enforced per complete line.
            if line.len() - 1 > cfg.max_line_bytes {
                if write_reply(front, &mut stream, too_long()).is_err() {
                    return;
                }
                continue;
            }
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            if text.trim().is_empty() {
                continue;
            }
            let (response, stop) = dispatch(&front.registry, &text);
            if write_reply(front, &mut stream, response).is_err() {
                return;
            }
            if stop {
                front.shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so it observes the flag.
                let _ = TcpStream::connect(front.addr);
                return;
            }
            idle_deadline = Instant::now() + cfg.idle_timeout;
        }
        scanned = buf.len();

        // Cap the partial line: answer the typed error once, then
        // discard the stream until its newline (bounded memory).
        if discard {
            buf.clear();
            scanned = 0;
        } else if buf.len() > cfg.max_line_bytes {
            if write_reply(front, &mut stream, too_long()).is_err() {
                return;
            }
            discard = true;
            buf.clear();
            scanned = 0;
        }

        // Wait only for the time left to the idle deadline, which a
        // partial line does not move.
        let left = idle_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            front.idle_timeouts.inc();
            let e = ErrorBody::request(
                RequestErrorKind::IdleTimeout,
                format!("no request for {:?}; closing idle connection", cfg.idle_timeout),
            );
            let _ = write_reply(front, &mut stream, e.to_line());
            return;
        }
        if stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Write one reply line under the connection's write timeout (set at
/// accept), so a peer that stops reading cannot pin its thread. The
/// newline is appended to the owned reply so the line leaves in one
/// write: a split write would sit behind the peer's delayed ACK.
fn write_reply(front: &Front, stream: &mut TcpStream, mut response: String) -> std::io::Result<()> {
    response.push('\n');
    let result = stream.write_all(response.as_bytes());
    if let Err(e) = &result {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            front.write_timeouts.inc();
        }
    }
    result
}

/// Serve one request line; returns the response line and whether the
/// daemon should stop. Never panics on client input.
pub fn dispatch(registry: &Registry, line: &str) -> (String, bool) {
    let (proto, request) = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            registry.metrics().counter("server.errors.protocol").inc();
            return (e.to_line(), false);
        }
    };
    let result: Result<String, ErrorBody> = match request {
        Request::Create { id, config } => {
            // A v1 client could create a variable-q session but never
            // learn each cycle's batch size; refuse up front.
            if proto < 2 && config.algorithm.is_variable_q() {
                Err(needs_proto_2(config.algorithm.name()))
            } else {
                registry.create(&id, config).map(|r| {
                    let mut out = ok_head();
                    out.push_str(",\"id\":");
                    push_str_literal(&mut out, &id);
                    out.push_str(",\"key\":");
                    push_str_literal(&mut out, &r.key);
                    let _ = write!(out, ",\"created\":{},\"turn\":{}}}", r.created, r.turn);
                    out
                })
            }
        }
        Request::Ask { id } => {
            // The session may predate this connection (created by a v2
            // client, asked by a v1 one), so the gate re-checks here.
            let gate = if proto < 2 {
                registry.variable_q(&id).and_then(|variable| {
                    if variable {
                        Err(needs_proto_2(&format!("session '{id}'")))
                    } else {
                        Ok(())
                    }
                })
            } else {
                Ok(())
            };
            gate.and_then(|()| registry.ask(&id)).map(|r| {
                let mut out = ok_head();
                let _ = write!(out, ",\"turn\":{},", r.turn);
                if proto >= 2 {
                    let _ = write!(out, "\"q\":{},", r.q);
                }
                out.push_str("\"points\":[");
                for (i, p) in r.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    for (j, v) in p.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        push_f64_lossless(&mut out, *v);
                    }
                    out.push(']');
                }
                out.push_str("]}");
                out
            })
        }
        Request::Tell { id, turn, values } => registry.tell(&id, turn, &values).map(|r| {
            let mut out = ok_head();
            let _ = write!(out, ",\"turn\":{},\"done\":{}}}", r.turn, r.done);
            out
        }),
        Request::Status { id } => registry.status(&id).map(|(s, key)| {
            let mut out = ok_head();
            out.push_str(",\"id\":");
            push_str_literal(&mut out, &id);
            out.push_str(",\"phase\":");
            push_str_literal(&mut out, s.phase);
            let _ = write!(
                out,
                ",\"turn\":{},\"cycles\":{},\"n_data\":{},\"best_y\":",
                s.turn, s.cycles, s.n_data
            );
            match s.best_y {
                Some(v) => push_f64_lossless(&mut out, v),
                None => out.push_str("null"),
            }
            out.push_str(",\"clock\":");
            push_f64_lossless(&mut out, s.clock);
            out.push_str(",\"key\":");
            push_str_literal(&mut out, &key);
            out.push('}');
            out
        }),
        Request::Record { id } => registry.record_line(&id).map(|line| {
            let mut out = ok_head();
            out.push_str(",\"record\":");
            push_str_literal(&mut out, &line);
            out.push('}');
            out
        }),
        Request::List => Ok({
            let mut out = ok_head();
            out.push_str(",\"sessions\":[");
            for (i, (id, phase, turn)) in registry.list().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"id\":");
                push_str_literal(&mut out, id);
                out.push_str(",\"phase\":");
                push_str_literal(&mut out, phase);
                let _ = write!(out, ",\"turn\":{turn}}}");
            }
            out.push_str("]}");
            out
        }),
        Request::ServerStatus => Ok({
            let snap = registry.metrics().snapshot();
            let mut out = ok_head();
            let _ = write!(out, ",\"proto\":{}", crate::proto::PROTO_VERSION);
            out.push_str(",\"protos\":[");
            for (i, p) in crate::proto::SUPPORTED_PROTOS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{p}");
            }
            out.push(']');
            let _ = write!(out, ",\"sessions\":{}", registry.len());
            out.push_str(",\"counters\":{");
            for (i, (name, value)) in snap.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_literal(&mut out, name);
                let _ = write!(out, ":{value}");
            }
            out.push_str("},\"gauges\":{");
            for (i, (name, value)) in snap.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_literal(&mut out, name);
                out.push(':');
                push_f64_lossless(&mut out, *value);
            }
            out.push_str("}}");
            out
        }),
        Request::Close { id } => registry.close(&id).map(|()| {
            let mut out = ok_head();
            out.push('}');
            out
        }),
        Request::Shutdown => {
            let mut out = ok_head();
            out.push_str(",\"stopping\":true}");
            return (out, true);
        }
    };
    match result {
        Ok(line) => (line, false),
        Err(e) => {
            registry
                .metrics()
                .counter(&format!("server.errors.{}", e.code))
                .inc();
            (e.to_line(), false)
        }
    }
}

fn ok_head() -> String {
    String::from("{\"ok\":true")
}

/// The typed refusal for variable-q work requested over protocol 1.
fn needs_proto_2(what: &str) -> ErrorBody {
    ErrorBody::request(
        RequestErrorKind::UnsupportedVersion,
        format!("{what} chooses its batch size per cycle; proto 2 is required to carry q"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::json::{parse, Json};

    #[test]
    fn dispatch_survives_garbage_without_touching_sessions() {
        let reg = Registry::in_memory();
        for garbage in ["", "{", "null", "{\"proto\":1,\"op\":\"nope\"}", "\u{7f}\u{1}"] {
            let (resp, stop) = dispatch(&reg, garbage);
            assert!(!stop);
            let v = parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let reg = Registry::in_memory();
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"ghost\"}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn shutdown_sets_stop_flag() {
        let reg = Registry::in_memory();
        let (resp, stop) = dispatch(&reg, "{\"proto\":1,\"op\":\"shutdown\"}");
        assert!(stop);
        assert!(resp.contains("\"stopping\":true"));
    }

    /// Satellite regression: a panicked server thread must surface as
    /// a typed error from `join`, not re-panic the supervising caller.
    #[test]
    fn join_reports_a_panicked_server_thread_as_an_error() {
        let handle = ServerHandle {
            addr: "127.0.0.1:0".parse().unwrap(),
            handle: std::thread::spawn(|| -> std::io::Result<()> {
                panic!("simulated server crash")
            }),
        };
        let err = handle.join().expect_err("panic must become an Err");
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cfg.max_conns, 64 * cores);
        assert_eq!(cfg.max_line_bytes, 1 << 20);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(300));
    }

    fn variable_q_create_body(id: &str) -> String {
        use pbo_core::algorithms::AlgorithmKind;
        use pbo_core::budget::Budget;
        use pbo_core::session::{ProblemSpec, SessionConfig, SessionProfile};
        use pbo_problems::SyntheticFn;
        let cfg = SessionConfig {
            algorithm: AlgorithmKind::HybridQ,
            problem: ProblemSpec::of(&SyntheticFn::ackley(2)),
            budget: Budget::cycles(2, 2).with_initial_samples(4),
            profile: SessionProfile::Test,
            seed: 7,
        };
        let mut out = String::new();
        cfg.encode_json(&mut out);
        format!("\"id\":\"{id}\",\"config\":{out}}}")
    }

    fn error_code(resp: &str) -> Option<String> {
        parse(resp)
            .ok()?
            .get("error")?
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    }

    #[test]
    fn proto_1_cannot_create_or_ask_a_variable_q_session() {
        let reg = Registry::in_memory();
        let body = variable_q_create_body("vq");
        // v1 create is refused with the pinned code…
        let (resp, _) = dispatch(&reg, &format!("{{\"proto\":1,\"op\":\"create\",{body}"));
        assert_eq!(error_code(&resp).as_deref(), Some("unsupported_version"));
        assert!(reg.is_empty(), "refused create must not register a session");
        // …a v2 create succeeds…
        let (resp, _) = dispatch(&reg, &format!("{{\"proto\":2,\"op\":\"create\",{body}"));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // …and a later v1 ask against that session is refused too.
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"vq\"}");
        assert_eq!(error_code(&resp).as_deref(), Some("unsupported_version"));
        let (resp, _) = dispatch(&reg, "{\"proto\":2,\"op\":\"ask\",\"id\":\"vq\"}");
        assert!(resp.contains("\"q\":"), "v2 ask carries the batch size: {resp}");
    }

    #[test]
    fn ask_reply_carries_q_only_on_proto_2() {
        use pbo_core::algorithms::AlgorithmKind;
        use pbo_core::budget::Budget;
        use pbo_core::session::{ProblemSpec, SessionConfig, SessionProfile};
        use pbo_problems::SyntheticFn;
        let reg = Registry::in_memory();
        let cfg = SessionConfig {
            algorithm: AlgorithmKind::RandomSearch,
            problem: ProblemSpec::of(&SyntheticFn::ackley(2)),
            budget: Budget::cycles(2, 3).with_initial_samples(4),
            profile: SessionProfile::Test,
            seed: 1,
        };
        reg.create("s", cfg).unwrap();
        let (v1, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"ask\",\"id\":\"s\"}");
        assert!(v1.contains("\"ok\":true") && !v1.contains("\"q\":"), "{v1}");
        let (v2, _) = dispatch(&reg, "{\"proto\":2,\"op\":\"ask\",\"id\":\"s\"}");
        let v = parse(&v2).unwrap();
        assert_eq!(v.get("q").and_then(Json::as_usize), Some(4), "design batch: {v2}");
    }

    #[test]
    fn server_status_advertises_both_protos_and_gauges() {
        let reg = Registry::in_memory();
        let (resp, _) = dispatch(&reg, "{\"proto\":1,\"op\":\"server-status\"}");
        assert!(resp.contains("\"protos\":[1,2]"), "{resp}");
        assert!(resp.contains("\"gauges\":{"), "{resp}");
    }
}
