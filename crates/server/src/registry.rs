//! The multi-tenant session table.
//!
//! Concurrency model: a short-lived map lock hands out per-session
//! `Arc<Mutex<…>>` entries; all engine work happens under the entry
//! lock only, so sessions never block each other. A create holds the
//! map lock only to check the id and reserve it with an empty, locked
//! entry; it draws the design and writes the first checkpoint under
//! that entry's lock, so requests on the new id wait for the create and
//! requests on other ids do not. Every
//! journal-advancing transition (create, tell) is written through
//! [`pbo_core::checkpoint::atomic_write`] before the reply goes out —
//! a daemon killed at any instant restarts into exactly the set of
//! states it acknowledged.
//!
//! A finished session costs a fixed few bytes: the tell that closes it
//! writes `<id>.record.json` after the closing checkpoint, and the
//! table entry shrinks to a [`FinishedStub`] that answers every later
//! request byte-identically. Restart replays the checkpoint, rewrites a
//! missing or differing record file and keeps the stub.
//!
//! A checkpoint file that fails to parse or replay is *quarantined*:
//! the session id stays visible with a typed `session_corrupt` error
//! and every other session loads normally. Nothing panics on bad disk
//! state.

use crate::proto::{validate_id, ErrorBody, RequestErrorKind};
use pbo_core::checkpoint::atomic_write;
use pbo_core::observe::metrics::{MetricsObserver, MetricsRegistry};
use pbo_core::session::{AskReply, SessionConfig, SessionError, SessionState, SessionStatus};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One slot in the session table.
pub enum SessionEntry {
    /// A healthy session still being driven.
    Live(Box<SessionState>),
    /// A finished session, reduced to what its replies need.
    Finished(FinishedStub),
    /// A quarantined session whose checkpoint could not be restored.
    Corrupt {
        /// Why the restore failed.
        reason: String,
    },
}

/// A table slot: `None` while a create holds the id. The creator keeps
/// the slot locked until the session is built and persisted; a failed
/// create takes the slot out of the table before it lets the lock go,
/// so a request that waited on it finds no session.
type Slot = Arc<Mutex<Option<SessionEntry>>>;

/// What the table keeps of a finished session: the same size however
/// long the run was. The record itself lives in `<id>.record.json`.
pub struct FinishedStub {
    /// Content-addressed config key.
    key: String,
    /// Whether the algorithm chose its batch size per cycle.
    variable_q: bool,
    /// The final status snapshot.
    status: SessionStatus,
    /// The record line, held here only when it has no file: on a
    /// registry without a directory, or after a failed record write
    /// (the next restart rewrites the file from the checkpoint).
    record: Option<String>,
}

impl FinishedStub {
    /// The stub of finished session `state`; `record` is its line when
    /// it has no record file.
    fn of(state: &SessionState, record: Option<String>) -> FinishedStub {
        FinishedStub {
            key: state.config().key(),
            variable_q: state.config().algorithm.is_variable_q(),
            status: state.status(),
            record,
        }
    }
}

/// Reply to a `create`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateReply {
    /// False when the id already existed with the same config.
    pub created: bool,
    /// Content-addressed config key.
    pub key: String,
    /// Next expected turn (0 for fresh sessions, later after resume).
    pub turn: usize,
}

/// Reply to a `tell`.
#[derive(Debug, Clone, PartialEq)]
pub struct TellReply {
    /// Next expected turn.
    pub turn: usize,
    /// True once the budget is exhausted and the record is closed.
    pub done: bool,
}

/// The session registry: in-memory table + on-disk journal directory.
pub struct Registry {
    dir: Option<PathBuf>,
    sessions: Mutex<HashMap<String, Slot>>,
    metrics: Arc<MetricsRegistry>,
}

impl Registry {
    /// A registry with no persistence (unit tests, ephemeral servers).
    pub fn in_memory() -> Registry {
        Registry {
            dir: None,
            sessions: Mutex::new(HashMap::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Open (creating if needed) a persistent registry rooted at `dir`
    /// and restore every `*.session.json` checkpoint found there. Each
    /// journal is replayed once, into a session that streams its events
    /// to the metrics registry; a finished one becomes a stub, and its
    /// record file is rewritten if missing. Corrupt checkpoints are
    /// quarantined, never fatal.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Registry, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create session dir {}: {e}", dir.display()))?;
        let reg = Registry {
            dir: Some(dir.clone()),
            sessions: Mutex::new(HashMap::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        };
        let resumed = reg.metrics.counter("server.sessions.resumed");
        let quarantined = reg.metrics.counter("server.sessions.quarantined");
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read session dir {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(".session.json"))
            })
            .collect();
        entries.sort(); // deterministic restore order
        for path in entries {
            let fallback_id = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".session.json"))
                .unwrap_or("unknown")
                .to_string();
            let entry = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|body| {
                    let observer = MetricsObserver::new(reg.metrics.clone());
                    SessionState::from_checkpoint_line(&body, observer).map_err(|e| e.to_string())
                });
            let (id, entry) = match entry {
                Ok((id, state)) => {
                    resumed.inc();
                    let entry = match state.record().map(|r| r.to_json_line()) {
                        Some(line) => {
                            // Rewrite the record file only when it is
                            // missing or differs from the replay.
                            let on_disk = reg
                                .record_path(&id)
                                .and_then(|p| std::fs::read_to_string(p).ok())
                                .is_some_and(|body| body.strip_suffix('\n') == Some(&*line));
                            let record = if on_disk { None } else { reg.write_record(&id, line) };
                            SessionEntry::Finished(FinishedStub::of(&state, record))
                        }
                        None => SessionEntry::Live(Box::new(state)),
                    };
                    (id, entry)
                }
                Err(reason) => {
                    quarantined.inc();
                    (fallback_id, SessionEntry::Corrupt { reason })
                }
            };
            reg.sessions
                .lock()
                .expect("session table poisoned")
                .insert(id, Arc::new(Mutex::new(Some(entry))));
        }
        Ok(reg)
    }

    /// The metrics registry (server counters + aggregated engine
    /// events from every session).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Number of ids taken: live, finished and quarantined sessions,
    /// and creates in flight.
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("session table poisoned").len()
    }

    /// True when no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn checkpoint_path(&self, id: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id}.session.json")))
    }

    fn record_path(&self, id: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id}.record.json")))
    }

    fn persist(&self, id: &str, state: &SessionState) -> Result<(), ErrorBody> {
        let Some(path) = self.checkpoint_path(id) else { return Ok(()) };
        let mut body = state.to_checkpoint_line(id);
        body.push('\n');
        atomic_write(&path, &body)
            .map_err(|e| ErrorBody::request(RequestErrorKind::Io, format!("persist failed: {e}")))
    }

    /// Write a finished session's record line to `<id>.record.json`.
    /// Returns the line back when it has no file — no directory, or the
    /// write failed — so the stub keeps it instead.
    fn write_record(&self, id: &str, line: String) -> Option<String> {
        match self.record_path(id) {
            Some(path) => atomic_write(&path, &format!("{line}\n")).is_err().then_some(line),
            None => Some(line),
        }
    }

    /// Lock session `id`'s entry and run `f` on it.
    fn with_entry<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut SessionEntry) -> Result<R, ErrorBody>,
    ) -> Result<R, ErrorBody> {
        let entry = self.sessions.lock().expect("session table poisoned").get(id).cloned();
        let entry = entry.ok_or_else(|| unknown_session(id))?;
        let mut guard = entry.lock().expect("session entry poisoned");
        f(guard.as_mut().ok_or_else(|| unknown_session(id))?)
    }

    /// Create a session, idempotently: re-creating an existing id with
    /// the same config key succeeds with `created: false` (this is how
    /// a restarted client re-attaches); a different key is the typed
    /// `config_mismatch` error.
    ///
    /// The table lock covers only the id check and the reservation; a
    /// racing create of the same id waits on the reserved entry and
    /// then answers as if it came second. A failed create frees the id
    /// and leaves no checkpoint.
    pub fn create(&self, id: &str, cfg: SessionConfig) -> Result<CreateReply, ErrorBody> {
        validate_id(id)?;
        let key = cfg.key();
        let slot: Slot = Arc::new(Mutex::new(None));
        let mut reserved = slot.lock().expect("fresh slot");
        loop {
            let mut table = self.sessions.lock().expect("session table poisoned");
            let Some(existing) = table.get(id).cloned() else {
                table.insert(id.to_string(), slot.clone());
                break;
            };
            // Never wait on an entry while holding the table.
            drop(table);
            let guard = existing.lock().expect("session entry poisoned");
            let (have, turn) = match &*guard {
                Some(SessionEntry::Live(state)) => (state.config().key(), state.turn()),
                Some(SessionEntry::Finished(stub)) => (stub.key.clone(), stub.status.turn),
                Some(SessionEntry::Corrupt { reason }) => return Err(quarantined(id, reason)),
                // Its create failed and freed the id: try again.
                None => continue,
            };
            return if have == key {
                Ok(CreateReply { created: false, key, turn })
            } else {
                Err(ErrorBody::request(
                    RequestErrorKind::ConfigMismatch,
                    format!(
                        "session '{id}' exists with config key {have}, request hashes to {key}"
                    ),
                ))
            };
        }
        let reservation = Reservation { registry: self, id, slot: &slot };
        let observer = MetricsObserver::new(self.metrics.clone());
        let state = SessionState::create_observed(cfg, observer)
            .map_err(|e| ErrorBody::from_session(&e))?;
        // A closed session of the same id may have left a record file;
        // it belongs to the checkpoint about to be overwritten.
        if let Some(path) = self.record_path(id) {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(ErrorBody::request(
                        RequestErrorKind::Io,
                        format!("cannot remove stale {}: {e}", path.display()),
                    ));
                }
                _ => {}
            }
        }
        self.persist(id, &state)?;
        // Persisted: the id stays taken.
        std::mem::forget(reservation);
        self.metrics.counter("server.sessions.created").inc();
        *reserved = Some(SessionEntry::Live(Box::new(state)));
        Ok(CreateReply { created: true, key, turn: 0 })
    }

    /// Ask a session for its next batch.
    pub fn ask(&self, id: &str) -> Result<AskReply, ErrorBody> {
        self.metrics.counter("server.requests.ask").inc();
        self.with_entry(id, |entry| match entry {
            SessionEntry::Live(s) => s.ask().map_err(|e| ErrorBody::from_session(&e)),
            SessionEntry::Finished(_) => Err(ErrorBody::from_session(&SessionError::Finished)),
            SessionEntry::Corrupt { reason } => Err(quarantined(id, reason)),
        })
    }

    /// Whether the session's algorithm chooses its own batch size each
    /// cycle. Dispatch uses this to refuse proto-1 `ask`s that could
    /// not carry the cycle's q back to the client.
    pub fn variable_q(&self, id: &str) -> Result<bool, ErrorBody> {
        self.with_entry(id, |entry| match entry {
            SessionEntry::Live(s) => Ok(s.config().algorithm.is_variable_q()),
            SessionEntry::Finished(stub) => Ok(stub.variable_q),
            SessionEntry::Corrupt { reason } => Err(quarantined(id, reason)),
        })
    }

    /// Tell a session its evaluated values; the new journal state is
    /// durable before the reply. The tell that finishes the session
    /// then writes its record file and shrinks the entry to a stub.
    pub fn tell(&self, id: &str, turn: usize, values: &[f64]) -> Result<TellReply, ErrorBody> {
        self.metrics.counter("server.requests.tell").inc();
        self.with_entry(id, |entry| {
            let s = match entry {
                SessionEntry::Live(s) => s,
                SessionEntry::Finished(stub) => {
                    // The same checks, in the same order, as a finished
                    // `SessionState::tell`.
                    let expected = stub.status.turn;
                    let e = if turn == expected {
                        SessionError::Finished
                    } else {
                        SessionError::WrongTurn { expected, got: turn }
                    };
                    return Err(ErrorBody::from_session(&e));
                }
                SessionEntry::Corrupt { reason } => return Err(quarantined(id, reason)),
            };
            s.tell(turn, values).map_err(|e| ErrorBody::from_session(&e))?;
            self.persist(id, s)?;
            let reply = TellReply { turn: s.turn(), done: s.is_done() };
            if let Some(line) = s.record().map(|r| r.to_json_line()) {
                let stub = FinishedStub::of(s, self.write_record(id, line));
                *entry = SessionEntry::Finished(stub);
            }
            Ok(reply)
        })
    }

    /// A session's status snapshot plus its config key.
    pub fn status(&self, id: &str) -> Result<(SessionStatus, String), ErrorBody> {
        self.with_entry(id, |entry| match entry {
            SessionEntry::Live(s) => Ok((s.status(), s.config().key())),
            SessionEntry::Finished(stub) => Ok((stub.status.clone(), stub.key.clone())),
            SessionEntry::Corrupt { reason } => Err(quarantined(id, reason)),
        })
    }

    /// The finished record's canonical JSON line.
    pub fn record_line(&self, id: &str) -> Result<String, ErrorBody> {
        self.with_entry(id, |entry| match entry {
            // Done only when the closing checkpoint failed to persist.
            SessionEntry::Live(s) => s.record().map(|r| r.to_json_line()).ok_or_else(|| {
                ErrorBody::request(
                    RequestErrorKind::NotDone,
                    format!("session '{id}' has not finished"),
                )
            }),
            SessionEntry::Finished(FinishedStub { record: Some(line), .. }) => Ok(line.clone()),
            SessionEntry::Finished(_) => {
                // Only a registry with a directory leaves the line out.
                let path = self.record_path(id).unwrap_or_default();
                let mut body = std::fs::read_to_string(&path).map_err(|e| {
                    ErrorBody::request(
                        RequestErrorKind::Io,
                        format!("cannot read {}: {e}", path.display()),
                    )
                })?;
                body.pop(); // the trailing newline
                Ok(body)
            }
            SessionEntry::Corrupt { reason } => Err(quarantined(id, reason)),
        })
    }

    /// `(id, phase, turn)` for every session, sorted by id. A create
    /// in flight is waited for, and listed only if it succeeded.
    pub fn list(&self) -> Vec<(String, String, usize)> {
        let mut out: Vec<(String, String, usize)> = self
            .slots()
            .into_iter()
            .filter_map(|(id, entry)| {
                let guard = entry.lock().expect("session entry poisoned");
                Some(match guard.as_ref()? {
                    SessionEntry::Live(s) => (id, s.status().phase.to_string(), s.turn()),
                    SessionEntry::Finished(stub) => {
                        (id, stub.status.phase.to_string(), stub.status.turn)
                    }
                    SessionEntry::Corrupt { .. } => (id, "corrupt".to_string(), 0),
                })
            })
            .collect();
        out.sort();
        out
    }

    /// A snapshot of the table, so entries are locked without it.
    fn slots(&self) -> Vec<(String, Slot)> {
        let table = self.sessions.lock().expect("session table poisoned");
        table.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Drop a session from the live table. Its files stay on disk, so
    /// the next daemon start restores it.
    pub fn close(&self, id: &str) -> Result<(), ErrorBody> {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| unknown_session(id))
    }

    /// Evict finished sessions per `policy`: table entry, record file
    /// and checkpoint all go. Only finished sessions are ever
    /// candidates — in-flight sessions are untouched, and quarantined
    /// (corrupt) checkpoints are *never* deleted: they hold the only
    /// evidence of what went wrong and are reported in
    /// [`GcReport::quarantined_kept`] instead.
    pub fn gc(&self, policy: &GcPolicy) -> GcReport {
        let mut report = GcReport::default();
        // (age_secs, id) for every finished session; corrupt entries are
        // counted, and in-flight sessions and creates are never considered.
        let now = std::time::SystemTime::now();
        let mut done: Vec<(u64, String)> = Vec::new();
        for (id, entry) in self.slots() {
            let guard = entry.lock().expect("session entry poisoned");
            match &*guard {
                Some(SessionEntry::Corrupt { .. }) => report.quarantined_kept += 1,
                Some(SessionEntry::Finished(_)) => {
                    let age = self
                        .checkpoint_path(&id)
                        .and_then(|p| std::fs::metadata(p).ok())
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| now.duration_since(t).ok())
                        .map_or(0, |d| d.as_secs());
                    done.push((age, id));
                }
                Some(SessionEntry::Live(_)) | None => {}
            }
        }
        // Newest first; ties broken by id so eviction order is
        // deterministic on filesystems with coarse mtimes.
        done.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (i, (age, id)) in done.into_iter().enumerate() {
            let shielded_by_count = i < policy.keep_newest;
            let shielded_by_age = policy.max_age_secs.is_some_and(|max| age <= max);
            if shielded_by_count || shielded_by_age {
                report.kept += 1;
                continue;
            }
            // The record goes first: a crash between the two removals
            // leaves a checkpoint whose restart rewrites the record,
            // never an orphaned record file.
            let removed = [self.record_path(&id), self.checkpoint_path(&id)]
                .into_iter()
                .flatten()
                .all(|path| match std::fs::remove_file(path) {
                    Ok(()) => true,
                    Err(e) => e.kind() == std::io::ErrorKind::NotFound,
                });
            if !removed {
                // Leave the table entry in place: disk state and table
                // must not diverge.
                report.kept += 1;
                continue;
            }
            self.sessions.lock().expect("session table poisoned").remove(&id);
            self.metrics.counter("server.sessions.gc_evicted").inc();
            report.evicted.push(id);
        }
        report
    }
}

/// An id reserved by [`Registry::create`]. Dropped before the session
/// is persisted, on an error or a panic, it frees the id: it takes its
/// own slot out of the table while the creator still holds the slot's
/// lock.
struct Reservation<'a> {
    registry: &'a Registry,
    id: &'a str,
    slot: &'a Slot,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut table = self.registry.sessions.lock().unwrap_or_else(|e| e.into_inner());
        // A `close` and a new create may have replaced the slot meanwhile.
        if table.get(self.id).is_some_and(|slot| Arc::ptr_eq(slot, self.slot)) {
            table.remove(self.id);
        }
    }
}

/// The typed answer for a request on an id with no session.
fn unknown_session(id: &str) -> ErrorBody {
    ErrorBody::request(RequestErrorKind::UnknownSession, format!("no session '{id}'"))
}

/// The typed answer for a request on a quarantined session.
fn quarantined(id: &str, reason: &str) -> ErrorBody {
    ErrorBody::new("session_corrupt", format!("session '{id}' is quarantined: {reason}"))
}

/// Eviction policy for [`Registry::gc`]. A finished session survives if
/// it is among the `keep_newest` most recent checkpoints *or* its
/// checkpoint is at most `max_age_secs` old; everything else finished
/// is evicted. `max_age_secs: None` disables the age shield.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Finished sessions with a checkpoint at most this old (seconds)
    /// are kept. `None`: age alone shields nothing.
    pub max_age_secs: Option<u64>,
    /// The newest N finished sessions are always kept.
    pub keep_newest: usize,
}

/// What [`Registry::gc`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Ids whose files and table entry were removed, in eviction
    /// order (oldest last by the sort above).
    pub evicted: Vec<String>,
    /// Finished sessions kept by the policy (count or age shield).
    pub kept: usize,
    /// Quarantined checkpoints encountered — never deleted.
    pub quarantined_kept: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::algorithms::AlgorithmKind;
    use pbo_core::budget::Budget;
    use pbo_core::session::{ProblemSpec, SessionProfile};
    use pbo_problems::{Problem, SyntheticFn};

    fn cfg(seed: u64) -> SessionConfig {
        let p = SyntheticFn::ackley(2);
        SessionConfig {
            algorithm: AlgorithmKind::RandomSearch,
            problem: ProblemSpec::of(&p),
            budget: Budget::cycles(2, 2).with_initial_samples(4),
            profile: SessionProfile::Test,
            seed,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pbo_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_is_idempotent_and_guards_config_drift() {
        let reg = Registry::in_memory();
        let first = reg.create("s", cfg(1)).unwrap();
        assert!(first.created);
        let again = reg.create("s", cfg(1)).unwrap();
        assert!(!again.created);
        assert_eq!(again.key, first.key);
        let err = reg.create("s", cfg(2)).unwrap_err();
        assert_eq!(err.code, "config_mismatch");
    }

    #[test]
    fn full_drive_through_registry_and_restart_resume() {
        let dir = tmp_dir("drive");
        let p = SyntheticFn::ackley(2);
        let finish = |reg: &Registry| {
            loop {
                let ask = reg.ask("s").unwrap();
                let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
                if reg.tell("s", ask.turn, &values).unwrap().done {
                    break;
                }
            }
            reg.record_line("s").unwrap()
        };

        // Uninterrupted run.
        let reg = Registry::open(&dir).unwrap();
        reg.create("s", cfg(5)).unwrap();
        let uninterrupted = finish(&reg);

        // Same config, killed after the first tell, reopened.
        let dir2 = tmp_dir("drive2");
        let reg = Registry::open(&dir2).unwrap();
        reg.create("s", cfg(5)).unwrap();
        let ask = reg.ask("s").unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        reg.tell("s", ask.turn, &values).unwrap();
        drop(reg); // "kill"
        let reg = Registry::open(&dir2).unwrap();
        assert_eq!(reg.len(), 1);
        let resumed = finish(&reg);

        assert_eq!(uninterrupted, resumed, "resume must be bit-identical");
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir2);
    }

    /// Drive session `id` to completion through ask/tell.
    fn finish(reg: &Registry, id: &str) {
        let p = SyntheticFn::ackley(2);
        loop {
            let ask = reg.ask(id).unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell(id, ask.turn, &values).unwrap().done {
                break;
            }
        }
    }

    /// The entry a finished session leaves in the table.
    fn is_stub(reg: &Registry, id: &str) -> bool {
        let entry = reg.sessions.lock().unwrap().get(id).cloned().unwrap();
        let guard = entry.lock().unwrap();
        matches!(&*guard, Some(SessionEntry::Finished(_)))
    }

    #[test]
    fn finished_session_is_a_stub_on_disk_and_in_memory() {
        let dir = tmp_dir("stub");
        let persistent = Registry::open(&dir).unwrap();
        let memory = Registry::in_memory();
        for reg in [&persistent, &memory] {
            reg.create("s", cfg(6)).unwrap();
            assert!(!is_stub(reg, "s"));
            finish(reg, "s");
            assert!(is_stub(reg, "s"));
        }
        let line = memory.record_line("s").unwrap();
        assert_eq!(persistent.record_line("s").unwrap(), line);
        assert_eq!(std::fs::read_to_string(dir.join("s.record.json")).unwrap(), line + "\n");
        drop(persistent);
        // Restart restores the stub and rewrites a missing record file.
        std::fs::remove_file(dir.join("s.record.json")).unwrap();
        let reg = Registry::open(&dir).unwrap();
        assert!(is_stub(&reg, "s"));
        assert!(dir.join("s.record.json").exists());
        assert_eq!(reg.record_line("s").unwrap(), memory.record_line("s").unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn create_after_close_drops_the_old_record_file() {
        let dir = tmp_dir("reuse");
        let reg = Registry::open(&dir).unwrap();
        reg.create("s", cfg(6)).unwrap();
        finish(&reg, "s");
        assert!(dir.join("s.record.json").exists());
        reg.close("s").unwrap();
        // Any config: the fresh session owns the id's files.
        assert!(reg.create("s", cfg(9)).unwrap().created);
        assert!(!dir.join("s.record.json").exists());
        // The restarted daemon sees one in-flight session and no
        // record file a finished checkpoint does not replay to.
        drop(reg);
        let reg = Registry::open(&dir).unwrap();
        assert!(!is_stub(&reg, "s"));
        assert!(!dir.join("s.record.json").exists());
        finish(&reg, "s");
        let fresh = Registry::in_memory();
        fresh.create("s", cfg(9)).unwrap();
        finish(&fresh, "s");
        assert_eq!(reg.record_line("s").unwrap(), fresh.record_line("s").unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_replays_each_checkpoint_once_into_the_metrics() {
        let dir = tmp_dir("reobserve");
        let reg = Registry::open(&dir).unwrap();
        reg.create("done", cfg(7)).unwrap();
        finish(&reg, "done");
        reg.create("mid", cfg(8)).unwrap();
        let p = SyntheticFn::ackley(2);
        let ask = reg.ask("mid").unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        reg.tell("mid", ask.turn, &values).unwrap();
        let ask = reg.ask("mid").unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        reg.tell("mid", ask.turn, &values).unwrap();
        drop(reg);

        let reg = Registry::open(&dir).unwrap();
        let snap = reg.metrics().snapshot();
        // `done`: 2 cycles; `mid`: 1 cycle. Every cycle's events are
        // folded into the metrics exactly once.
        assert_eq!(snap.counter("engine.cycles"), 3);
        assert_eq!(snap.counter("engine.evaluations"), (4 + 2 * 2) + (4 + 2));
        assert_eq!(snap.counter("server.sessions.resumed"), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_evicts_only_finished_sessions_past_policy() {
        let dir = tmp_dir("gc");
        let reg = Registry::open(&dir).unwrap();
        reg.create("done-a", cfg(1)).unwrap();
        reg.create("done-b", cfg(2)).unwrap();
        reg.create("inflight", cfg(3)).unwrap();
        finish(&reg, "done-a");
        finish(&reg, "done-b");
        // `inflight` gets one tell but stays mid-run.
        let p = SyntheticFn::ackley(2);
        let ask = reg.ask("inflight").unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        reg.tell("inflight", ask.turn, &values).unwrap();

        // Keep the newest finished session; evict the other.
        let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 1 });
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.quarantined_kept, 0);
        let gone = &report.evicted[0];
        assert!(!dir.join(format!("{gone}.session.json")).exists());
        assert!(!dir.join(format!("{gone}.record.json")).exists());
        let kept = if gone == "done-a" { "done-b" } else { "done-a" };
        assert!(dir.join(format!("{kept}.record.json")).exists());
        // In-flight session untouched, on disk and in the table.
        assert!(dir.join("inflight.session.json").exists());
        assert!(reg.ask("inflight").is_ok());
        assert_eq!(reg.len(), 2);

        // A generous age shield keeps the remaining finished session.
        let report = reg.gc(&GcPolicy { max_age_secs: Some(3600), keep_newest: 0 });
        assert!(report.evicted.is_empty());
        assert_eq!(report.kept, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_never_silently_deletes_quarantined_checkpoints() {
        let dir = tmp_dir("gc_corrupt");
        let reg = Registry::open(&dir).unwrap();
        reg.create("finished", cfg(4)).unwrap();
        finish(&reg, "finished");
        drop(reg);
        // A checkpoint that fails to restore — e.g. truncated by a
        // crashed disk — must survive any GC policy, however aggressive.
        let bad = dir.join("bad.session.json");
        std::fs::write(&bad, "{\"event\":\"pbo-session\",trunc").unwrap();
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.len(), 2);
        let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 0 });
        // The finished session goes; the quarantined one is kept AND
        // reported, never dropped silently.
        assert_eq!(report.evicted, vec!["finished".to_string()]);
        assert_eq!(report.quarantined_kept, 1);
        assert!(bad.exists(), "quarantined checkpoint was deleted");
        assert_eq!(reg.ask("bad").unwrap_err().code, "session_corrupt");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A request that waited on a create which then failed holds a slot
    /// the create left empty (and took out of the table). Planted here
    /// in the table, as a snapshot taken before the failure sees it, it
    /// is never listed, counted, evicted or answered as a session.
    #[test]
    fn list_gc_and_requests_pass_over_an_empty_slot() {
        let dir = tmp_dir("empty_slot");
        let reg = Registry::open(&dir).unwrap();
        reg.create("done", cfg(1)).unwrap();
        finish(&reg, "done");
        reg.sessions.lock().unwrap().insert("freed".into(), Arc::new(Mutex::new(None)));
        let listed: Vec<String> = reg.list().into_iter().map(|(id, _, _)| id).collect();
        assert_eq!(listed, ["done"]);
        assert_eq!(reg.ask("freed").unwrap_err().code, "unknown_session");
        assert_eq!(reg.status("freed").unwrap_err().code, "unknown_session");
        let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 0 });
        assert_eq!(
            report,
            GcReport { evicted: vec!["done".to_string()], kept: 0, quarantined_kept: 0 }
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_not_fatal() {
        let dir = tmp_dir("corrupt");
        let reg = Registry::open(&dir).unwrap();
        reg.create("good", cfg(1)).unwrap();
        drop(reg);
        std::fs::write(dir.join("bad.session.json"), "{\"event\":\"pbo-session\",trunc").unwrap();
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.len(), 2);
        // The bad one answers with a typed error…
        let err = reg.ask("bad").unwrap_err();
        assert_eq!(err.code, "session_corrupt");
        // …and the good one still works.
        assert!(reg.ask("good").is_ok());
        assert_eq!(reg.metrics().snapshot().counter("server.sessions.quarantined"), 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
