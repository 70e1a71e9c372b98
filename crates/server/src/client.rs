//! Blocking client for the session protocol, plus the drive loop the
//! `pbo-server drive` subcommand, the CI smoke test and the
//! conformance suite all share: evaluate the server's asks with a
//! local problem and tell the values back until the session finishes
//! (or a deliberate stop point, to stage a crash).

use crate::proto;
use pbo_core::json::Json;
use pbo_core::session::SessionConfig;
use pbo_problems::Problem;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A protocol-level or transport-level client failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    /// Server error code, or `"transport"` for I/O and parse failures.
    pub code: String,
    /// Detail.
    pub message: String,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RpcError {}

fn transport(message: impl Into<String>) -> RpcError {
    RpcError { code: "transport".into(), message: message.into() }
}

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, RpcError> {
        let stream = TcpStream::connect(addr).map_err(|e| transport(format!("connect: {e}")))?;
        stream.set_nodelay(true).map_err(|e| transport(format!("nodelay: {e}")))?;
        let writer = stream.try_clone().map_err(|e| transport(format!("clone: {e}")))?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Send one raw line, return the raw response — even `ok:false`
    /// ones (the fuzz tests inspect those directly). The line and its
    /// newline leave in one write.
    pub fn raw(&mut self, line: &str) -> Result<Json, RpcError> {
        let framed = format!("{line}\n");
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| transport(format!("send: {e}")))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| transport(format!("recv: {e}")))?;
        if n == 0 {
            return Err(transport("server closed the connection"));
        }
        pbo_core::json::parse(response.trim_end()).map_err(|e| transport(format!("parse: {e}")))
    }

    /// Send one line and unwrap the `ok:true` envelope; `ok:false`
    /// becomes a typed [`RpcError`] carrying the server's code.
    pub fn call(&mut self, line: &str) -> Result<Json, RpcError> {
        let v = self.raw(line)?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            _ => {
                let e = v.get("error");
                Err(RpcError {
                    code: e
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str)
                        .unwrap_or("transport")
                        .to_string(),
                    message: e
                        .and_then(|e| e.get("message"))
                        .and_then(Json::as_str)
                        .unwrap_or("malformed error response")
                        .to_string(),
                })
            }
        }
    }

    /// `create`: returns `(created, next_turn)`.
    pub fn create(&mut self, id: &str, cfg: &SessionConfig) -> Result<(bool, usize), RpcError> {
        let v = self.call(&proto::encode_create(id, cfg))?;
        Ok((
            v.get("created").and_then(Json::as_bool).unwrap_or(false),
            v.get("turn").and_then(Json::as_usize).unwrap_or(0),
        ))
    }

    /// `ask`: returns `(turn, points)`. The batch size is the number
    /// of points — with a variable-q algorithm it changes cycle to
    /// cycle. The proto-2 reply also carries `q` explicitly; when
    /// present it is cross-checked against the point count so a
    /// desynced server fails loudly instead of silently.
    pub fn ask(&mut self, id: &str) -> Result<(usize, Vec<Vec<f64>>), RpcError> {
        let v = self.call(&proto::encode_ask(id))?;
        let turn = v
            .get("turn")
            .and_then(Json::as_usize)
            .ok_or_else(|| transport("ask response missing 'turn'"))?;
        let points = v
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| transport("ask response missing 'points'"))?
            .iter()
            .map(|p| p.as_array().map(|xs| xs.iter().filter_map(Json::as_f64).collect()))
            .collect::<Option<Vec<Vec<f64>>>>()
            .ok_or_else(|| transport("ask response points malformed"))?;
        if let Some(q) = v.get("q").and_then(Json::as_usize) {
            if q != points.len() {
                return Err(transport(format!(
                    "ask response says q={q} but carries {} points",
                    points.len()
                )));
            }
        }
        Ok((turn, points))
    }

    /// `tell`: returns true once the session is done.
    pub fn tell(&mut self, id: &str, turn: usize, values: &[f64]) -> Result<bool, RpcError> {
        let v = self.call(&proto::encode_tell(id, turn, values))?;
        Ok(v.get("done").and_then(Json::as_bool).unwrap_or(false))
    }

    /// `status`: the raw status object.
    pub fn status(&mut self, id: &str) -> Result<Json, RpcError> {
        self.call(&proto::encode_id_op("status", id))
    }

    /// `record`: the finished record's canonical JSON line, byte-exact.
    pub fn record(&mut self, id: &str) -> Result<String, RpcError> {
        let v = self.call(&proto::encode_id_op("record", id))?;
        v.get("record")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| transport("record response missing 'record'"))
    }

    /// `server-status`: the raw server summary.
    pub fn server_status(&mut self) -> Result<Json, RpcError> {
        self.call(&proto::encode_bare_op("server-status"))
    }

    /// `close` a session.
    pub fn close(&mut self, id: &str) -> Result<(), RpcError> {
        self.call(&proto::encode_id_op("close", id)).map(|_| ())
    }

    /// Ask the daemon to stop.
    pub fn shutdown(&mut self) -> Result<(), RpcError> {
        self.call(&proto::encode_bare_op("shutdown")).map(|_| ())
    }
}

/// What [`drive`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// Tells performed in this invocation (not lifetime total).
    pub tells: usize,
    /// Whether the session finished.
    pub done: bool,
    /// The finished record line, when done.
    pub record: Option<String>,
}

/// Create (or re-attach to) a session and ask/evaluate/tell until it
/// finishes — or until `stop_after` tells, which is how the crash
/// tests park a session mid-run before killing the daemon.
pub fn drive(
    client: &mut Client,
    id: &str,
    cfg: &SessionConfig,
    problem: &dyn Problem,
    stop_after: Option<usize>,
) -> Result<DriveOutcome, RpcError> {
    client.create(id, cfg)?;
    let mut tells = 0usize;
    let mut done = client
        .status(id)?
        .get("phase")
        .and_then(Json::as_str)
        .is_some_and(|p| p == "done");
    while !done {
        if stop_after.is_some_and(|k| tells >= k) {
            return Ok(DriveOutcome { tells, done: false, record: None });
        }
        let (turn, points) = client.ask(id)?;
        let values: Vec<f64> = points.iter().map(|x| problem.eval(x)).collect();
        done = client.tell(id, turn, &values)?;
        tells += 1;
    }
    let record = client.record(id)?;
    Ok(DriveOutcome { tells, done: true, record: Some(record) })
}
