//! The wire protocol: one JSON object per line, in both directions.
//!
//! Every request carries `"proto": 1` or `"proto": 2`; a server that
//! does not speak the requested version answers `unsupported_proto`
//! instead of guessing. Protocol 2 (this crate's native version) adds
//! the per-cycle batch size `q` to `ask` responses; v1 clients keep
//! working against fixed-q sessions, but creating or asking a
//! *variable-q* session over v1 is the typed `unsupported_version`
//! error — a v1 client has no way to learn how many points to
//! evaluate, so the server refuses rather than letting it desync. The
//! `server-status` reply advertises `"protos":[1,2]` for negotiation.
//!
//! Responses are `{"ok":true,…}` or
//! `{"ok":false,"error":{"code":…,"message":…}}`. Error codes are
//! stable API (tests pin them) and come from exactly two typed enums:
//! [`RequestErrorKind`] for envelope/transport-level failures and
//! [`SessionError`] for
//! session-state-machine failures — one table in DESIGN.md documents
//! both, and a conformance test asserts the table is exhaustive.
//! Malformed input of any kind — bad JSON, wrong types, unknown ops —
//! produces an error *response* and leaves the connection and every
//! session untouched.

use pbo_core::json::{push_f64_lossless, push_str_literal, Json};
use pbo_core::session::{SessionConfig, SessionError};
use std::fmt;
use std::fmt::Write as _;

/// Native protocol version spoken by this crate's client.
pub const PROTO_VERSION: u64 = 2;

/// Every protocol version the server accepts, oldest first.
pub const SUPPORTED_PROTOS: [u64; 2] = [1, 2];

/// Request-level failures: everything that can go wrong with the
/// *envelope* of a request (or the server's handling of it) before any
/// session state machine is consulted. The session-level counterpart
/// is [`SessionError`]; between them they cover every wire code the
/// server can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestErrorKind {
    /// The line is not valid JSON, or a required field is missing or
    /// mistyped.
    MalformedJson,
    /// The request's `proto` is not a version this server speaks.
    UnsupportedProto,
    /// The request's `proto` is spoken, but too old for the operation
    /// (a variable-q session needs protocol >= 2).
    UnsupportedVersion,
    /// The `op` field names no known operation.
    UnknownOp,
    /// The session id is not filesystem-safe.
    InvalidId,
    /// No session with the given id is registered.
    UnknownSession,
    /// Idempotent re-create with a different config key.
    ConfigMismatch,
    /// `record` asked of a session that has not finished.
    NotDone,
    /// Persisting a checkpoint failed.
    Io,
    /// The live-connection cap is reached; the connection is refused
    /// and closed. Retry shortly.
    ServerBusy,
    /// The request line exceeds the server's `max-line-bytes` cap; the
    /// oversized line is discarded but the connection stays usable.
    LineTooLong,
    /// No complete request arrived within the server's idle timeout;
    /// the connection is closed after this error.
    IdleTimeout,
}

impl RequestErrorKind {
    /// Every request-level wire code, in declaration order (the DESIGN
    /// table's exhaustiveness test walks this).
    pub const ALL: [RequestErrorKind; 12] = [
        RequestErrorKind::MalformedJson,
        RequestErrorKind::UnsupportedProto,
        RequestErrorKind::UnsupportedVersion,
        RequestErrorKind::UnknownOp,
        RequestErrorKind::InvalidId,
        RequestErrorKind::UnknownSession,
        RequestErrorKind::ConfigMismatch,
        RequestErrorKind::NotDone,
        RequestErrorKind::Io,
        RequestErrorKind::ServerBusy,
        RequestErrorKind::LineTooLong,
        RequestErrorKind::IdleTimeout,
    ];

    /// Stable machine-readable code (protocol error field).
    pub fn code(self) -> &'static str {
        match self {
            RequestErrorKind::MalformedJson => "malformed_json",
            RequestErrorKind::UnsupportedProto => "unsupported_proto",
            RequestErrorKind::UnsupportedVersion => "unsupported_version",
            RequestErrorKind::UnknownOp => "unknown_op",
            RequestErrorKind::InvalidId => "invalid_id",
            RequestErrorKind::UnknownSession => "unknown_session",
            RequestErrorKind::ConfigMismatch => "config_mismatch",
            RequestErrorKind::NotDone => "not_done",
            RequestErrorKind::Io => "io",
            RequestErrorKind::ServerBusy => "server_busy",
            RequestErrorKind::LineTooLong => "line_too_long",
            RequestErrorKind::IdleTimeout => "idle_timeout",
        }
    }
}

/// A typed protocol-level failure: stable `code` plus human detail.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Stable machine-readable code (e.g. `malformed_json`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Build from a raw code and message. Prefer the typed
    /// constructors ([`ErrorBody::request`], [`ErrorBody::from_session`])
    /// — this escape hatch exists for tests and for codes that arrive
    /// as data (e.g. re-serializing a stored error).
    pub fn new(code: &str, message: impl Into<String>) -> ErrorBody {
        ErrorBody { code: code.into(), message: message.into() }
    }

    /// Build a request-level error from its typed kind.
    pub fn request(kind: RequestErrorKind, message: impl Into<String>) -> ErrorBody {
        ErrorBody { code: kind.code().into(), message: message.into() }
    }

    /// Map a session-layer error onto the wire.
    pub fn from_session(e: &SessionError) -> ErrorBody {
        ErrorBody { code: e.code().into(), message: e.to_string() }
    }

    /// Serialize as a response line (without trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"ok\":false,\"error\":{\"code\":");
        push_str_literal(&mut out, &self.code);
        out.push_str(",\"message\":");
        push_str_literal(&mut out, &self.message);
        out.push_str("}}");
        out
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or idempotently re-open) a session.
    Create {
        /// Client-chosen session id.
        id: String,
        /// Full run configuration.
        config: SessionConfig,
    },
    /// Fetch the points to evaluate next.
    Ask {
        /// Session id.
        id: String,
    },
    /// Report evaluated values for a turn.
    Tell {
        /// Session id.
        id: String,
        /// Journal turn the values answer.
        turn: usize,
        /// Native objective values, aligned with the asked points.
        values: Vec<f64>,
    },
    /// Per-session status snapshot.
    Status {
        /// Session id.
        id: String,
    },
    /// The finished run record (only valid once done).
    Record {
        /// Session id.
        id: String,
    },
    /// Enumerate sessions.
    List,
    /// Server-wide status + metrics snapshot.
    ServerStatus,
    /// Drop a session from the live table (its checkpoint remains).
    Close {
        /// Session id.
        id: String,
    },
    /// Stop the daemon gracefully.
    Shutdown,
}

/// Validate a session id: filesystem-safe, bounded, unambiguous.
pub fn validate_id(id: &str) -> Result<(), ErrorBody> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    if id.is_empty() || id.len() > 64 || !id.chars().all(ok_char) {
        return Err(ErrorBody::request(
            RequestErrorKind::InvalidId,
            format!("session ids are 1-64 chars of [A-Za-z0-9_-], got '{id}'"),
        ));
    }
    Ok(())
}

/// Parse one request line into the negotiated protocol version and the
/// request. Every failure is a typed [`ErrorBody`] — the caller
/// answers it and keeps the connection alive. The returned version is
/// one of [`SUPPORTED_PROTOS`]; dispatch uses it to gate variable-q
/// operations and to shape the `ask` reply.
pub fn parse_request(line: &str) -> Result<(u64, Request), ErrorBody> {
    let v = pbo_core::json::parse(line.trim())
        .map_err(|e| ErrorBody::request(RequestErrorKind::MalformedJson, e))?;
    let proto = match v.get("proto").and_then(Json::as_u64) {
        Some(p) if SUPPORTED_PROTOS.contains(&p) => p,
        other => {
            return Err(ErrorBody::request(
                RequestErrorKind::UnsupportedProto,
                format!("this server speaks protos {SUPPORTED_PROTOS:?}, request says {other:?}"),
            ))
        }
    };
    let malformed = |msg: &str| ErrorBody::request(RequestErrorKind::MalformedJson, msg);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing string field 'op'"))?;
    let id = |v: &Json| -> Result<String, ErrorBody> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing string field 'id'"))?;
        validate_id(id)?;
        Ok(id.to_string())
    };
    let req = match op {
        "create" => {
            let config = v
                .require("config")
                .and_then(SessionConfig::from_json)
                .map_err(|e| ErrorBody::new("invalid_config", e))?;
            Request::Create { id: id(&v)?, config }
        }
        "ask" => Request::Ask { id: id(&v)? },
        "tell" => {
            let turn = v
                .get("turn")
                .and_then(Json::as_usize)
                .ok_or_else(|| malformed("missing count field 'turn'"))?;
            let values = v
                .get("values")
                .and_then(Json::as_array)
                .ok_or_else(|| malformed("missing array field 'values'"))?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| malformed("'values' must be numbers"))?;
            Request::Tell { id: id(&v)?, turn, values }
        }
        "status" => Request::Status { id: id(&v)? },
        "record" => Request::Record { id: id(&v)? },
        "list" => Request::List,
        "server-status" => Request::ServerStatus,
        "close" => Request::Close { id: id(&v)? },
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ErrorBody::request(
                RequestErrorKind::UnknownOp,
                format!("unknown op '{other}'"),
            ))
        }
    };
    Ok((proto, req))
}

// ---------------------------------------------------------------------
// Request encoding (client side; tests share these so both ends agree).
// ---------------------------------------------------------------------

fn head(op: &str) -> String {
    format!("{{\"proto\":{PROTO_VERSION},\"op\":\"{op}\"")
}

fn push_id(out: &mut String, id: &str) {
    out.push_str(",\"id\":");
    push_str_literal(out, id);
}

/// Encode a `create` request line.
pub fn encode_create(id: &str, config: &SessionConfig) -> String {
    let mut out = head("create");
    push_id(&mut out, id);
    out.push_str(",\"config\":");
    config.encode_json(&mut out);
    out.push('}');
    out
}

/// Encode an `ask` request line.
pub fn encode_ask(id: &str) -> String {
    let mut out = head("ask");
    push_id(&mut out, id);
    out.push('}');
    out
}

/// Encode a `tell` request line.
pub fn encode_tell(id: &str, turn: usize, values: &[f64]) -> String {
    let mut out = head("tell");
    push_id(&mut out, id);
    let _ = write!(out, ",\"turn\":{turn},\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64_lossless(&mut out, *v);
    }
    out.push_str("]}");
    out
}

/// Encode a single-`id` request line (`status`, `record`, `close`).
pub fn encode_id_op(op: &str, id: &str) -> String {
    let mut out = head(op);
    push_id(&mut out, id);
    out.push('}');
    out
}

/// Encode a no-argument request line (`list`, `server-status`,
/// `shutdown`).
pub fn encode_bare_op(op: &str) -> String {
    let mut out = head(op);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::algorithms::AlgorithmKind;
    use pbo_core::budget::Budget;
    use pbo_core::session::{ProblemSpec, SessionProfile};

    fn cfg() -> SessionConfig {
        SessionConfig {
            algorithm: AlgorithmKind::KbQEgo,
            problem: ProblemSpec {
                name: "toy".into(),
                lower: vec![0.0, -1.0],
                upper: vec![1.0, 1.0],
                maximize: false,
            },
            budget: Budget::cycles(2, 2),
            profile: SessionProfile::Test,
            seed: 7,
        }
    }

    #[test]
    fn encode_parse_roundtrip_for_every_op() {
        let c = cfg();
        let cases: Vec<(String, Request)> = vec![
            (encode_create("s1", &c), Request::Create { id: "s1".into(), config: c.clone() }),
            (encode_ask("s1"), Request::Ask { id: "s1".into() }),
            (
                encode_tell("s1", 3, &[1.0, f64::NAN, f64::NEG_INFINITY]),
                Request::Tell { id: "s1".into(), turn: 3, values: vec![1.0, f64::NAN, f64::NEG_INFINITY] },
            ),
            (encode_id_op("status", "s1"), Request::Status { id: "s1".into() }),
            (encode_id_op("record", "s1"), Request::Record { id: "s1".into() }),
            (encode_id_op("close", "s1"), Request::Close { id: "s1".into() }),
            (encode_bare_op("list"), Request::List),
            (encode_bare_op("server-status"), Request::ServerStatus),
            (encode_bare_op("shutdown"), Request::Shutdown),
        ];
        for (line, want) in cases {
            let (proto, got) = parse_request(&line).unwrap();
            assert_eq!(proto, PROTO_VERSION, "encoders speak the native proto");
            // NaN != NaN defeats PartialEq for the tell case; compare
            // via debug strings, which print NaN stably.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "line: {line}");
        }
    }

    #[test]
    fn proto_1_requests_still_parse_and_report_their_version() {
        let (proto, req) = parse_request("{\"proto\":1,\"op\":\"ask\",\"id\":\"x\"}").unwrap();
        assert_eq!(proto, 1);
        assert_eq!(req, Request::Ask { id: "x".into() });
        let (proto, req) = parse_request("{\"proto\":2,\"op\":\"list\"}").unwrap();
        assert_eq!(proto, 2);
        assert_eq!(req, Request::List);
    }

    #[test]
    fn every_request_error_kind_has_a_distinct_code() {
        let codes: Vec<&str> = RequestErrorKind::ALL.iter().map(|k| k.code()).collect();
        for (i, c) in codes.iter().enumerate() {
            assert!(!codes[..i].contains(c), "duplicate code {c}");
        }
        assert_eq!(
            ErrorBody::request(RequestErrorKind::UnsupportedVersion, "x").code,
            "unsupported_version"
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for (line, code) in [
            ("{", "malformed_json"),
            ("[1,2,3]", "unsupported_proto"),
            ("{\"proto\":99,\"op\":\"ask\",\"id\":\"x\"}", "unsupported_proto"),
            ("{\"op\":\"ask\",\"id\":\"x\"}", "unsupported_proto"),
            ("{\"proto\":1}", "malformed_json"),
            ("{\"proto\":1,\"op\":\"frobnicate\"}", "unknown_op"),
            ("{\"proto\":1,\"op\":\"ask\"}", "malformed_json"),
            ("{\"proto\":1,\"op\":\"ask\",\"id\":\"../etc\"}", "invalid_id"),
            ("{\"proto\":1,\"op\":\"tell\",\"id\":\"x\",\"turn\":0}", "malformed_json"),
            ("{\"proto\":1,\"op\":\"tell\",\"id\":\"x\",\"turn\":0,\"values\":[\"no\"]}", "malformed_json"),
            ("{\"proto\":1,\"op\":\"create\",\"id\":\"x\",\"config\":{}}", "invalid_config"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, code, "line: {line} -> {err}");
        }
    }

    #[test]
    fn error_body_line_shape() {
        let line = ErrorBody::new("wrong_turn", "expected 2, got \"1\"").to_line();
        let v = pbo_core::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("wrong_turn"));
        assert!(e.get("message").and_then(Json::as_str).unwrap().contains("\"1\""));
    }
}
