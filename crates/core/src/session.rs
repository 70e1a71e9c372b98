//! Resumable ask/tell optimization sessions.
//!
//! The paper's real deployment is a licensed UPHES simulator on a
//! cluster — a *remote* evaluator. This module inverts the engine's
//! control flow accordingly: instead of the engine calling a
//! [`Problem`], a [`SessionState`] suspends at the evaluate boundary,
//! hands the caller the native-space points to simulate ([`ask`]) and
//! absorbs the reported values ([`tell`]), refitting and advancing the
//! virtual clock exactly as the in-process loop would.
//!
//! # Resume identity
//!
//! A session is event-sourced: its durable state is the
//! [`SessionConfig`] plus the ordered journal of told value vectors.
//! Everything else (GP, clock, trust region, BSP tree, seed streams) is
//! deterministically recomputed by replaying the journal through the
//! same [`BatchStepper`]/[`Engine`] code the in-process loop runs —
//! [`SeedStream`](pbo_sampling::SeedStream) forks are pure in
//! `(seed, tag)`, and session profiles pin the deterministic
//! [`CostModel::Fixed`] clock (a measured clock charges host wall time
//! and cannot replay). A killed server that re-creates the session from
//! its checkpoint line and replays the journal therefore lands in a
//! bit-identical state: same proposals, same clock, same `RunRecord`.
//!
//! [`ask`]: SessionState::ask
//! [`tell`]: SessionState::tell

use crate::algorithms::{AlgorithmKind, BatchStepper};
use crate::budget::{Budget, Stopping};
use crate::checkpoint::fnv1a64;
use crate::clock::CostModel;
use crate::config::AlgoConfig;
use crate::engine::{Engine, PreparedEngine};
use crate::error::ConfigError;
use crate::exec::{BatchReport, PointOutcome};
use crate::json::{parse, push_f64_array, push_f64_lossless, push_str_literal, Json};
use crate::observe::Observer;
use crate::record::{FaultCounters, RunRecord};
use pbo_problems::Problem;
use std::fmt;
use std::fmt::Write as _;

/// Schema version of the session checkpoint line. Schema 2 added the
/// per-turn batch sizes (`"qs"`) for the variable-q algorithms; schema
/// 1 lines (fixed-q by construction) are still read.
pub const SESSION_SCHEMA_VERSION: u32 = 2;

/// Version of the *config descriptor* feeding the content-addressed
/// checkpoint key. Deliberately independent of
/// [`SESSION_SCHEMA_VERSION`]: the schema-2 line layout changed nothing
/// about what determines a run, so schema-1 checkpoints must keep
/// passing key validation and orchestrator keys must not churn.
pub const CONFIG_KEY_VERSION: u32 = 1;

/// Most coordinates (points × dimension) one session turn may carry,
/// for the design and for every batch. A session allocates its design
/// when it is created and each batch when it is asked, from sizes the
/// client chose; without a cap one request line can make the process
/// abort on a failed allocation. 2^16 coordinates are 512 KiB as `f64`
/// and about 1.3 MB as reply text, five times the largest turn any
/// test or served workload uses (a 1024-point design at d = 12).
pub const MAX_TURN_COORDS: usize = 1 << 16;

/// Everything that can go wrong driving a session. Typed so the server
/// can map each case to a stable protocol error code instead of
/// unwinding a connection (or the whole daemon).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The engine rejected the configuration.
    Config(ConfigError),
    /// The problem specification is unusable (mismatched or non-finite
    /// bounds, zero dimension).
    InvalidProblem(String),
    /// A `tell` arrived for the wrong turn (out-of-order or duplicate).
    WrongTurn {
        /// The turn the session expects next.
        expected: usize,
        /// The turn the client sent.
        got: usize,
    },
    /// A `tell` carried the wrong number of values for the pending
    /// batch.
    WrongPointCount {
        /// Points the pending batch contains.
        expected: usize,
        /// Values the client sent.
        got: usize,
    },
    /// The run is complete; no further asks or tells are accepted.
    Finished,
    /// Every initial-design value was non-finite; there is no dataset
    /// to start from. The session stays in the design phase so a
    /// corrected tell can still succeed.
    EmptyDesign,
    /// A checkpoint line or journal failed to parse or replay.
    Corrupt(String),
    /// The session hit an internal invariant failure on a previous
    /// operation and can no longer be driven.
    Poisoned,
}

impl SessionError {
    /// Every stable session-level wire code, in declaration order. The
    /// server documents these (with the request-level codes) in one
    /// table in DESIGN.md; a conformance test asserts the table is
    /// exhaustive against this list.
    pub const ALL_CODES: [&'static str; 8] = [
        "invalid_config",
        "invalid_problem",
        "wrong_turn",
        "wrong_point_count",
        "finished",
        "empty_design",
        "session_corrupt",
        "session_poisoned",
    ];

    /// Stable machine-readable code (protocol error field).
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::Config(_) => "invalid_config",
            SessionError::InvalidProblem(_) => "invalid_problem",
            SessionError::WrongTurn { .. } => "wrong_turn",
            SessionError::WrongPointCount { .. } => "wrong_point_count",
            SessionError::Finished => "finished",
            SessionError::EmptyDesign => "empty_design",
            SessionError::Corrupt(_) => "session_corrupt",
            SessionError::Poisoned => "session_poisoned",
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "invalid configuration: {e}"),
            SessionError::InvalidProblem(m) => write!(f, "invalid problem: {m}"),
            SessionError::WrongTurn { expected, got } => {
                write!(f, "wrong turn: expected {expected}, got {got}")
            }
            SessionError::WrongPointCount { expected, got } => {
                write!(f, "wrong point count: expected {expected}, got {got}")
            }
            SessionError::Finished => write!(f, "session already finished"),
            SessionError::EmptyDesign => {
                write!(f, "every initial-design value was non-finite; no dataset to start from")
            }
            SessionError::Corrupt(m) => write!(f, "corrupt session checkpoint: {m}"),
            SessionError::Poisoned => write!(f, "session poisoned by an earlier failure"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

/// Search-space description of a remote problem: the server never
/// evaluates it, so bounds and orientation are all it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Display name carried into the `RunRecord`.
    pub name: String,
    /// Per-dimension lower bounds (native space).
    pub lower: Vec<f64>,
    /// Per-dimension upper bounds (native space).
    pub upper: Vec<f64>,
    /// Whether the client-side objective is maximized. Clients always
    /// tell *native* values; the session flips them internally exactly
    /// as [`pbo_problems::eval_min`] would.
    pub maximize: bool,
}

impl ProblemSpec {
    /// Describe an existing in-process problem (test helpers and the
    /// conformance suite).
    pub fn of(p: &dyn Problem) -> ProblemSpec {
        ProblemSpec {
            name: p.name().to_string(),
            lower: p.lower().to_vec(),
            upper: p.upper().to_vec(),
            maximize: p.maximize(),
        }
    }

    fn validate(&self) -> Result<(), SessionError> {
        if self.lower.is_empty() || self.lower.len() != self.upper.len() {
            return Err(SessionError::InvalidProblem(format!(
                "bounds must be non-empty and matched (lower {}, upper {})",
                self.lower.len(),
                self.upper.len()
            )));
        }
        for (i, (lo, hi)) in self.lower.iter().zip(&self.upper).enumerate() {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(SessionError::InvalidProblem(format!(
                    "dimension {i}: need finite lower < upper, got ({lo}, {hi})"
                )));
            }
        }
        Ok(())
    }
}

/// The never-evaluated stand-in [`Problem`] a session's engine holds.
/// Sessions suspend at every evaluate boundary, so `eval` is
/// unreachable; it panics loudly rather than fabricating values in case
/// a future refactor re-introduces an in-process evaluation path.
struct RemoteProblem {
    spec: ProblemSpec,
}

impl Problem for RemoteProblem {
    fn name(&self) -> &str {
        &self.spec.name
    }
    fn dim(&self) -> usize {
        self.spec.lower.len()
    }
    fn lower(&self) -> &[f64] {
        &self.spec.lower
    }
    fn upper(&self) -> &[f64] {
        &self.spec.upper
    }
    fn maximize(&self) -> bool {
        self.spec.maximize
    }
    fn eval(&self, _x: &[f64]) -> f64 {
        unreachable!("remote problems are never evaluated in-process")
    }
}

/// Engine configuration profile for a session. Sessions must replay
/// deterministically, so every profile pins [`CostModel::Fixed`]: the
/// measured cost model charges *host wall time* to the virtual clock,
/// which no replay can reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionProfile {
    /// `AlgoConfig::test_profile()` — small multistart budgets, fixed
    /// 1 s per surrogate charge. The conformance suite's profile.
    Test,
    /// Default engine configuration with the cost model replaced by
    /// `Fixed { per_call: 1.0 }`.
    Standard,
}

impl SessionProfile {
    /// Stable profile name (protocol field).
    pub fn name(self) -> &'static str {
        match self {
            SessionProfile::Test => "test",
            SessionProfile::Standard => "standard",
        }
    }

    /// Parse a profile name.
    pub fn from_name(s: &str) -> Option<SessionProfile> {
        match s {
            "test" => Some(SessionProfile::Test),
            "standard" => Some(SessionProfile::Standard),
            _ => None,
        }
    }

    /// The engine configuration this profile pins.
    pub fn algo_config(self) -> AlgoConfig {
        match self {
            SessionProfile::Test => AlgoConfig::test_profile(),
            SessionProfile::Standard => AlgoConfig {
                cost_model: CostModel::Fixed { per_call: 1.0 },
                ..AlgoConfig::default()
            },
        }
    }
}

/// Complete, serializable description of one session — every
/// run-determining input. Two sessions with equal configs produce
/// bit-identical trajectories for equal journals.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Which acquisition algorithm drives the session.
    pub algorithm: AlgorithmKind,
    /// The remote problem's search space.
    pub problem: ProblemSpec,
    /// Batch size, stopping rule and virtual simulation cost.
    pub budget: Budget,
    /// Engine profile (deterministic cost model enforced).
    pub profile: SessionProfile,
    /// Run seed.
    pub seed: u64,
}

impl SessionConfig {
    /// Canonical descriptor string: hashes into the content-addressed
    /// checkpoint key, so it must cover every run-determining input.
    pub fn descriptor(&self) -> String {
        let stopping = match self.budget.stopping {
            Stopping::VirtualTime(t) => format!("time:{t:?}"),
            Stopping::Cycles(n) => format!("cycles:{n}"),
        };
        format!(
            "session-v{}|algo={}|problem={}|lower={:?}|upper={:?}|maximize={}|q={}|stop={}|n0={}|sim={:?}|disp={:?}|dispp={:?}|profile={}|seed={}",
            CONFIG_KEY_VERSION,
            self.algorithm.name(),
            self.problem.name,
            self.problem.lower,
            self.problem.upper,
            self.problem.maximize,
            self.budget.batch_size,
            stopping,
            self.budget.initial_samples,
            self.budget.sim_seconds,
            self.budget.dispatch_overhead,
            self.budget.dispatch_overhead_per_point,
            self.profile.name(),
            self.seed,
        )
    }

    /// Content-addressed key: FNV-1a-64 of the descriptor, as 16 hex
    /// digits. Names the session's checkpoint file and guards resumes
    /// against config drift.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.descriptor().as_bytes()))
    }

    /// Encode as a JSON object fragment (appended to `out`).
    pub fn encode_json(&self, out: &mut String) {
        out.push_str("{\"algorithm\":");
        push_str_literal(out, self.algorithm.name());
        out.push_str(",\"problem\":{\"name\":");
        push_str_literal(out, &self.problem.name);
        out.push_str(",\"lower\":");
        push_f64_array(out, &self.problem.lower);
        out.push_str(",\"upper\":");
        push_f64_array(out, &self.problem.upper);
        let _ = write!(out, ",\"maximize\":{}}}", self.problem.maximize);
        out.push_str(",\"budget\":{");
        let _ = write!(out, "\"q\":{}", self.budget.batch_size);
        match self.budget.stopping {
            Stopping::Cycles(n) => {
                let _ = write!(out, ",\"stopping\":\"cycles\",\"stop_value\":{n}");
            }
            Stopping::VirtualTime(t) => {
                out.push_str(",\"stopping\":\"virtual-time\",\"stop_value\":");
                push_f64_lossless(out, t);
            }
        }
        let _ = write!(out, ",\"initial_samples\":{}", self.budget.initial_samples);
        out.push_str(",\"sim_seconds\":");
        push_f64_lossless(out, self.budget.sim_seconds);
        out.push_str(",\"dispatch_overhead\":");
        push_f64_lossless(out, self.budget.dispatch_overhead);
        out.push_str(",\"dispatch_overhead_per_point\":");
        push_f64_lossless(out, self.budget.dispatch_overhead_per_point);
        out.push_str("},\"profile\":");
        push_str_literal(out, self.profile.name());
        // Seeds are u64; >2^53 would lose bits as a JSON number.
        let _ = write!(out, ",\"seed\":\"{}\"}}", self.seed);
    }

    /// Decode from a parsed JSON object (inverse of
    /// [`SessionConfig::encode_json`]).
    pub fn from_json(v: &Json) -> Result<SessionConfig, String> {
        let algorithm = v
            .require("algorithm")?
            .as_str()
            .and_then(AlgorithmKind::from_name)
            .ok_or("unknown algorithm")?;
        let p = v.require("problem")?;
        let problem = ProblemSpec {
            name: p.require("name")?.as_str().ok_or("problem.name must be a string")?.into(),
            lower: f64_array(p.require("lower")?).ok_or("problem.lower must be numbers")?,
            upper: f64_array(p.require("upper")?).ok_or("problem.upper must be numbers")?,
            maximize: p.require("maximize")?.as_bool().ok_or("problem.maximize must be a bool")?,
        };
        let b = v.require("budget")?;
        let stopping = match b.require("stopping")?.as_str() {
            Some("cycles") => Stopping::Cycles(
                b.require("stop_value")?.as_usize().ok_or("stop_value must be a count")?,
            ),
            Some("virtual-time") => Stopping::VirtualTime(
                b.require("stop_value")?.as_f64().ok_or("stop_value must be a number")?,
            ),
            _ => return Err("unknown stopping kind".into()),
        };
        let budget = Budget {
            batch_size: b.require("q")?.as_usize().ok_or("q must be a count")?,
            stopping,
            initial_samples: b
                .require("initial_samples")?
                .as_usize()
                .ok_or("initial_samples must be a count")?,
            sim_seconds: b.require("sim_seconds")?.as_f64().ok_or("sim_seconds")?,
            dispatch_overhead: b
                .require("dispatch_overhead")?
                .as_f64()
                .ok_or("dispatch_overhead")?,
            dispatch_overhead_per_point: b
                .require("dispatch_overhead_per_point")?
                .as_f64()
                .ok_or("dispatch_overhead_per_point")?,
        };
        let profile = v
            .require("profile")?
            .as_str()
            .and_then(SessionProfile::from_name)
            .ok_or("unknown profile")?;
        let seed = v
            .require("seed")?
            .as_str()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or("seed must be a decimal string")?;
        Ok(SessionConfig { algorithm, problem, budget, profile, seed })
    }
}

fn f64_array(v: &Json) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(Json::as_f64).collect()
}

/// A batch proposed but not yet told back.
struct PendingBatch {
    /// Unit-cube coordinates (what `commit_report` needs).
    unit: Vec<Vec<f64>>,
    /// Native coordinates (what the client evaluates).
    native: Vec<Vec<f64>>,
}

enum Phase {
    /// Waiting for the initial-design values.
    Design(Box<PreparedEngine<'static>>),
    /// In the cycle loop.
    Cycle { engine: Box<Engine<'static>>, stepper: BatchStepper, pending: Option<PendingBatch> },
    /// Budget exhausted; record closed.
    Done(Box<RunRecord>),
    /// A previous operation failed mid-transition.
    Poisoned,
}

/// What an [`SessionState::ask`] returns: the points to evaluate and
/// the turn a matching tell must cite.
#[derive(Debug, Clone, PartialEq)]
pub struct AskReply {
    /// Journal turn the next `tell` must carry.
    pub turn: usize,
    /// This turn's batch size (= `points.len()`). Equal to the
    /// configured q for fixed-q algorithms; the variable-q algorithms
    /// choose it per cycle, which is why protocol v2 carries it on the
    /// wire.
    pub q: usize,
    /// Native-space points for the client to evaluate, in order.
    pub points: Vec<Vec<f64>>,
}

/// Introspection snapshot of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// `"design"`, `"cycle"` or `"done"`.
    pub phase: &'static str,
    /// Tells absorbed so far (= the next expected turn while running).
    pub turn: usize,
    /// Completed cycles.
    pub cycles: usize,
    /// Observations in the dataset.
    pub n_data: usize,
    /// Best objective value so far, in the client's native orientation
    /// (`None` before the design is told).
    pub best_y: Option<f64>,
    /// Virtual clock reading \[seconds\].
    pub clock: f64,
}

/// One resumable ask/tell session: a [`SessionConfig`] plus the journal
/// of told values, with the live engine/stepper state derived from
/// them. See the module docs for the resume-identity argument.
pub struct SessionState {
    cfg: SessionConfig,
    /// Ordered tell payloads (native values), the event-sourced truth.
    journal: Vec<Vec<f64>>,
    phase: Phase,
}

impl SessionState {
    /// Validate the config and open a session suspended before its
    /// initial design evaluation, with an event sink attached (pass
    /// [`crate::observe::NullObserver`] for none). The server streams
    /// per-session events into its metrics registry this way. Replaying
    /// a journal re-emits the events, so a restart rebuilds observer
    /// state along with the engine.
    pub fn create_observed(
        cfg: SessionConfig,
        observer: impl Observer + Send + 'static,
    ) -> Result<SessionState, SessionError> {
        cfg.problem.validate()?;
        let dim = cfg.problem.lower.len();
        for (field, points) in [
            ("budget.initial_samples", cfg.budget.initial_samples),
            ("budget.batch_size", cfg.budget.batch_size),
        ] {
            if points.saturating_mul(dim) > MAX_TURN_COORDS {
                let max = MAX_TURN_COORDS;
                return Err(ConfigError::TurnTooLarge { field, points, dim, max }.into());
            }
        }
        let algo_cfg = cfg.profile.algo_config();
        debug_assert!(
            matches!(algo_cfg.cost_model, CostModel::Fixed { .. }),
            "session profiles must pin a deterministic cost model"
        );
        let problem: Box<dyn Problem + Send + Sync> =
            Box::new(RemoteProblem { spec: cfg.problem.clone() });
        let prep = Engine::builder_owned(problem)
            .budget(cfg.budget)
            .config(algo_cfg)
            .seed(cfg.seed)
            .algorithm(cfg.algorithm.name())
            .observer(observer)
            .prepare()?;
        Ok(SessionState { cfg, journal: Vec::new(), phase: Phase::Design(Box::new(prep)) })
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The next turn a `tell` must cite (= tells absorbed so far).
    pub fn turn(&self) -> usize {
        self.journal.len()
    }

    /// The closed record once the session is done.
    pub fn record(&self) -> Option<&RunRecord> {
        match &self.phase {
            Phase::Done(r) => Some(r),
            _ => None,
        }
    }

    /// True once the budget is exhausted and the record is closed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done(_))
    }

    /// Snapshot for `status` queries.
    pub fn status(&self) -> SessionStatus {
        let maximize = self.cfg.problem.maximize;
        let native = |v: f64| if maximize { -v } else { v };
        match &self.phase {
            Phase::Design(_) => SessionStatus {
                phase: "design",
                turn: self.journal.len(),
                cycles: 0,
                n_data: 0,
                best_y: None,
                clock: 0.0,
            },
            Phase::Cycle { engine, .. } => SessionStatus {
                phase: "cycle",
                turn: self.journal.len(),
                cycles: engine.cycle_index(),
                n_data: engine.n_data(),
                best_y: Some(native(engine.best_min())),
                clock: engine.now(),
            },
            Phase::Done(r) => SessionStatus {
                phase: "done",
                turn: self.journal.len(),
                cycles: r.n_cycles(),
                n_data: r.n_simulations(),
                best_y: Some(r.best_y()),
                clock: r.final_clock,
            },
            Phase::Poisoned => SessionStatus {
                phase: "poisoned",
                turn: self.journal.len(),
                cycles: 0,
                n_data: 0,
                best_y: None,
                clock: 0.0,
            },
        }
    }

    /// The points the client must evaluate next: the initial design in
    /// the design phase, the stepper's proposal in the cycle phase.
    /// Idempotent — asking again without telling returns the same
    /// batch (the proposal is cached, never recomputed, so the virtual
    /// clock is charged exactly once per cycle).
    pub fn ask(&mut self) -> Result<AskReply, SessionError> {
        let turn = self.journal.len();
        match &mut self.phase {
            Phase::Design(prep) => {
                let points = prep.design_native();
                Ok(AskReply { turn, q: points.len(), points })
            }
            Phase::Cycle { engine, stepper, pending } => {
                if pending.is_none() {
                    let unit = stepper.propose(engine);
                    let native = engine.to_native(&unit);
                    *pending = Some(PendingBatch { unit, native });
                }
                let batch = pending.as_ref().expect("just filled");
                Ok(AskReply { turn, q: batch.native.len(), points: batch.native.clone() })
            }
            Phase::Done(_) => Err(SessionError::Finished),
            Phase::Poisoned => Err(SessionError::Poisoned),
        }
    }

    /// Report the evaluated values (native orientation, aligned with
    /// the last ask's points) for `turn`. Non-finite values route
    /// through the engine's quarantine/imputation machinery exactly as
    /// a faulty in-process rank would: NaN/Inf are counted, excluded
    /// from the dataset (design phase) or imputed constant-liar style
    /// (cycle phase), and surface in the record's fault counters.
    ///
    /// An explicit `ask` beforehand is not required — a tell on a
    /// fresh cycle proposes the batch itself, which is what makes a
    /// journal replay a plain sequence of tells.
    pub fn tell(&mut self, turn: usize, values: &[f64]) -> Result<(), SessionError> {
        let expected = self.journal.len();
        if turn != expected {
            return Err(SessionError::WrongTurn { expected, got: turn });
        }
        match &mut self.phase {
            Phase::Design(prep) => {
                let n = prep.design_len();
                if values.len() != n {
                    return Err(SessionError::WrongPointCount { expected: n, got: values.len() });
                }
                let maximize = self.cfg.problem.maximize;
                let sim = self.cfg.budget.sim_seconds;
                let report = synth_report(values, maximize, sim);
                // All-failed designs must NOT consume the prepared
                // engine: surface the typed error and stay tellable.
                if report.outcomes.iter().all(|o| o.value.is_none()) {
                    return Err(SessionError::EmptyDesign);
                }
                prep.emit_report_faults(&report);
                let prep = match std::mem::replace(&mut self.phase, Phase::Poisoned) {
                    Phase::Design(p) => p,
                    _ => unreachable!("phase checked above"),
                };
                let engine = prep.absorb_design(&report)?;
                let stepper = BatchStepper::new(self.cfg.algorithm, &engine);
                self.journal.push(values.to_vec());
                self.phase = Phase::Cycle { engine: Box::new(engine), stepper, pending: None };
                self.close_if_exhausted();
                Ok(())
            }
            Phase::Cycle { engine, stepper, pending } => {
                if pending.is_none() {
                    let unit = stepper.propose(engine);
                    let native = engine.to_native(&unit);
                    *pending = Some(PendingBatch { unit, native });
                }
                let n = pending.as_ref().expect("just filled").unit.len();
                if values.len() != n {
                    return Err(SessionError::WrongPointCount { expected: n, got: values.len() });
                }
                let batch = pending.take().expect("just filled");
                let maximize = self.cfg.problem.maximize;
                let sim = self.cfg.budget.sim_seconds;
                let report = synth_report(values, maximize, sim);
                engine.emit_report_faults(&report);
                engine.commit_report(batch.unit, &report);
                stepper.after_commit(engine);
                self.journal.push(values.to_vec());
                self.close_if_exhausted();
                Ok(())
            }
            Phase::Done(_) => Err(SessionError::Finished),
            Phase::Poisoned => Err(SessionError::Poisoned),
        }
    }

    /// Transition to `Done` when the stopping rule says so — mirrors
    /// the `while should_continue` exit in `drive_stepper`.
    fn close_if_exhausted(&mut self) {
        let exhausted = match &self.phase {
            Phase::Cycle { engine, .. } => !engine.should_continue(),
            _ => false,
        };
        if exhausted {
            let engine = match std::mem::replace(&mut self.phase, Phase::Poisoned) {
                Phase::Cycle { engine, .. } => engine,
                _ => unreachable!("phase checked above"),
            };
            self.phase = Phase::Done(Box::new(engine.finish()));
        }
    }

    // -----------------------------------------------------------------
    // Checkpointing
    // -----------------------------------------------------------------

    /// Serialize the session as one self-contained JSON line:
    /// `{"event":"pbo-session","schema":2,"key":…,"id":…,"config":…,
    /// "tells":[…],"qs":[…]}`. The derived state (GP, clock, trust
    /// region) is deliberately absent — it is recomputed by replay,
    /// which is what makes the resume bit-identical instead of
    /// approximately restored. `"qs"` records each turn's batch size
    /// (design turn = design size); every tell's width is checked
    /// against the pending batch when absorbed, so the list is
    /// redundant with the tells by construction — recording it anyway
    /// lets the reader reject a truncated or spliced journal before
    /// replay, and gives variable-q turns an explicit wire trace.
    pub fn to_checkpoint_line(&self, id: &str) -> String {
        let mut out = String::with_capacity(256 + 32 * self.journal.len());
        let _ = write!(out, "{{\"event\":\"pbo-session\",\"schema\":{SESSION_SCHEMA_VERSION}");
        out.push_str(",\"key\":");
        push_str_literal(&mut out, &self.cfg.key());
        out.push_str(",\"id\":");
        push_str_literal(&mut out, id);
        out.push_str(",\"config\":");
        self.cfg.encode_json(&mut out);
        out.push_str(",\"tells\":[");
        for (i, tell) in self.journal.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64_array(&mut out, tell);
        }
        out.push_str("],\"qs\":[");
        for (i, tell) in self.journal.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", tell.len());
        }
        out.push_str("]}");
        out
    }

    /// Rebuild a session from its checkpoint line: parse, validate the
    /// content-addressed key, then replay the journal once, into a
    /// session observed by `observer` (the replay re-emits every event,
    /// so observer state is rebuilt along with the engine). Every
    /// failure — malformed JSON, schema drift, key mismatch, a journal
    /// the engine rejects — is the typed [`SessionError::Corrupt`], so
    /// a damaged checkpoint quarantines one session instead of
    /// panicking the server.
    pub fn from_checkpoint_line(
        line: &str,
        observer: impl Observer + Send + 'static,
    ) -> Result<(String, SessionState), SessionError> {
        let corrupt = |m: String| SessionError::Corrupt(m);
        let v = parse(line.trim_end()).map_err(|e| corrupt(format!("parse: {e}")))?;
        if v.get("event").and_then(Json::as_str) != Some("pbo-session") {
            return Err(corrupt("not a pbo-session line".into()));
        }
        // Schema 1 (pre-variable-q, no "qs") is still accepted: the
        // per-turn batch sizes it omits are implied by the tell widths,
        // which replay validates against each pending batch anyway.
        let schema = v.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if !(1..=SESSION_SCHEMA_VERSION as u64).contains(&schema) {
            return Err(corrupt(format!(
                "unsupported session schema {schema} (expected 1..={SESSION_SCHEMA_VERSION})"
            )));
        }
        let id = v
            .require("id")
            .and_then(|j| j.as_str().ok_or_else(|| "id must be a string".to_string()))
            .map_err(corrupt)?
            .to_string();
        let cfg = v
            .require("config")
            .and_then(SessionConfig::from_json)
            .map_err(|e| corrupt(format!("config: {e}")))?;
        let key = v
            .require("key")
            .and_then(|j| j.as_str().ok_or_else(|| "key must be a string".to_string()))
            .map_err(corrupt)?;
        if key != cfg.key() {
            return Err(corrupt(format!(
                "key mismatch: line says {key}, config hashes to {}",
                cfg.key()
            )));
        }
        let tells: Vec<Vec<f64>> = v
            .require("tells")
            .map_err(corrupt)?
            .as_array()
            .ok_or_else(|| corrupt("tells must be an array".into()))?
            .iter()
            .map(|t| f64_array(t).ok_or_else(|| corrupt("tells entries must be numbers".into())))
            .collect::<Result<_, _>>()?;
        if schema >= 2 {
            let qs: Vec<usize> = v
                .require("qs")
                .map_err(corrupt)?
                .as_array()
                .ok_or_else(|| corrupt("qs must be an array".into()))?
                .iter()
                .map(|q| q.as_usize().ok_or_else(|| corrupt("qs entries must be counts".into())))
                .collect::<Result<_, _>>()?;
            if qs.len() != tells.len() || qs.iter().zip(&tells).any(|(&q, tell)| q != tell.len()) {
                return Err(corrupt(format!(
                    "qs ({qs:?}) disagree with the tell widths — truncated or spliced journal"
                )));
            }
        }
        let state = replay(cfg, &tells, observer)?;
        Ok((id, state))
    }
}

/// Build the [`BatchReport`] a remote tell implies: one healthy,
/// single-attempt outcome per finite value; NaN/Inf become quarantined
/// failures (the remote evaluator's retries, if any, already happened
/// on its side). Values arrive in the client's native orientation and
/// are flipped to minimization exactly as
/// [`pbo_problems::eval_min`] flips in-process evaluations — the flip
/// preserves NaN/Inf classes, so quarantine counters agree with what a
/// local faulty rank would have recorded.
fn synth_report(values: &[f64], maximize: bool, sim_seconds: f64) -> BatchReport {
    let outcomes = values
        .iter()
        .map(|&raw| {
            let v = if maximize { -raw } else { raw };
            let mut faults = FaultCounters::default();
            let value = if v.is_finite() {
                Some(v)
            } else {
                if v.is_nan() {
                    faults.nan_quarantined += 1;
                } else {
                    faults.inf_quarantined += 1;
                }
                None
            };
            PointOutcome { value, virtual_secs: sim_seconds, attempts: 1, faults }
        })
        .collect();
    BatchReport { outcomes }
}

/// Rebuild a session by replaying a journal of tells against a fresh
/// engine observed by `observer`. Any rejection along the way means the
/// journal cannot have come from a healthy run of this config →
/// [`SessionError::Corrupt`].
pub fn replay(
    cfg: SessionConfig,
    tells: &[Vec<f64>],
    observer: impl Observer + Send + 'static,
) -> Result<SessionState, SessionError> {
    let mut state = SessionState::create_observed(cfg, observer)?;
    for (i, values) in tells.iter().enumerate() {
        state
            .tell(i, values)
            .map_err(|e| SessionError::Corrupt(format!("replaying tell {i}: {e}")))?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;
    use pbo_problems::SyntheticFn;

    fn toy_cfg(algorithm: AlgorithmKind, cycles: usize, q: usize, seed: u64) -> SessionConfig {
        let p = SyntheticFn::ackley(3);
        SessionConfig {
            algorithm,
            problem: ProblemSpec::of(&p),
            budget: Budget::cycles(cycles, q).with_initial_samples(6),
            profile: SessionProfile::Test,
            seed,
        }
    }

    /// Drive a session to completion by evaluating its asks with the
    /// real problem, returning the closed record.
    fn drive_locally(mut s: SessionState) -> RunRecord {
        let p = SyntheticFn::ackley(3);
        while !s.is_done() {
            let ask = s.ask().unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            s.tell(ask.turn, &values).unwrap();
        }
        s.record().unwrap().clone()
    }

    #[test]
    fn session_matches_in_process_run() {
        let cfg = toy_cfg(AlgorithmKind::KbQEgo, 3, 2, 42);
        let s = SessionState::create_observed(cfg.clone(), NullObserver).unwrap();
        let remote = drive_locally(s);
        let p = SyntheticFn::ackley(3);
        let local = crate::algorithms::run_algorithm_observed(
            cfg.algorithm,
            &p,
            &cfg.budget,
            cfg.profile.algo_config(),
            cfg.seed,
            crate::observe::NullObserver,
        )
        .unwrap();
        assert_eq!(remote.to_json_line(), local.to_json_line());
    }

    #[test]
    fn huge_cycle_budget_still_takes_its_design_tell() {
        // The cycle count arrives from the client unbounded: nothing may
        // size memory from it.
        let p = SyntheticFn::ackley(3);
        for cycles in [usize::MAX / 2, 1_000_000_000_000] {
            let cfg = toy_cfg(AlgorithmKind::RandomSearch, cycles, 2, 12);
            let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
            for _ in 0..2 {
                let ask = s.ask().unwrap();
                let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
                s.tell(ask.turn, &values).unwrap();
            }
            assert_eq!(s.turn(), 2);
            assert!(!s.is_done());
        }
    }

    #[test]
    fn ask_is_idempotent_until_told() {
        let cfg = toy_cfg(AlgorithmKind::RandomSearch, 2, 2, 7);
        let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let a1 = s.ask().unwrap();
        let a2 = s.ask().unwrap();
        assert_eq!(a1, a2);
        let values = vec![1.0; a1.points.len()];
        s.tell(a1.turn, &values).unwrap();
        let a3 = s.ask().unwrap();
        assert_ne!(a1.turn, a3.turn);
    }

    #[test]
    fn wrong_turn_and_count_are_typed_and_harmless() {
        let cfg = toy_cfg(AlgorithmKind::RandomSearch, 2, 2, 8);
        let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let ask = s.ask().unwrap();
        assert_eq!(
            s.tell(ask.turn + 1, &vec![0.0; ask.points.len()]),
            Err(SessionError::WrongTurn { expected: 0, got: 1 })
        );
        assert_eq!(
            s.tell(ask.turn, &[0.0]),
            Err(SessionError::WrongPointCount { expected: ask.points.len(), got: 1 })
        );
        // The session is still drivable after both rejections.
        s.tell(ask.turn, &vec![1.5; ask.points.len()]).unwrap();
        assert_eq!(s.turn(), 1);
    }

    #[test]
    fn all_nan_design_keeps_session_tellable() {
        let cfg = toy_cfg(AlgorithmKind::RandomSearch, 1, 2, 9);
        let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let ask = s.ask().unwrap();
        let nans = vec![f64::NAN; ask.points.len()];
        assert_eq!(s.tell(ask.turn, &nans), Err(SessionError::EmptyDesign));
        // Retry with healthy values succeeds on the same turn.
        s.tell(ask.turn, &vec![2.0; ask.points.len()]).unwrap();
        assert_eq!(s.status().phase, "cycle");
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let p = SyntheticFn::ackley(3);
        let cfg = toy_cfg(AlgorithmKind::Turbo, 4, 2, 11);
        // Drive two tells, checkpoint, resume, finish both copies.
        let mut a = SessionState::create_observed(cfg, NullObserver).unwrap();
        for _ in 0..2 {
            let ask = a.ask().unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            a.tell(ask.turn, &values).unwrap();
        }
        let line = a.to_checkpoint_line("s-1");
        let (id, b) = SessionState::from_checkpoint_line(&line, NullObserver).unwrap();
        assert_eq!(id, "s-1");
        assert_eq!(b.turn(), a.turn());
        let ra = drive_locally(a);
        let rb = drive_locally(b);
        assert_eq!(ra.to_json_line(), rb.to_json_line());
    }

    #[test]
    fn restore_replays_once_into_the_given_observer() {
        use crate::observe::CollectingObserver;
        use std::sync::{Arc, Mutex};
        let p = SyntheticFn::ackley(3);
        let cfg = toy_cfg(AlgorithmKind::KbQEgo, 3, 2, 23);
        let mut a = SessionState::create_observed(cfg, NullObserver).unwrap();
        for _ in 0..3 {
            let ask = a.ask().unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            a.tell(ask.turn, &values).unwrap();
        }
        let seen = Arc::new(Mutex::new(CollectingObserver::new()));
        let (_, b) =
            SessionState::from_checkpoint_line(&a.to_checkpoint_line("c"), seen.clone()).unwrap();
        assert_eq!(b.status(), a.status());
        let seen = seen.lock().unwrap();
        // Design + 2 cycles told: every event of each, exactly once.
        assert_eq!(seen.count("run_started"), 1);
        assert_eq!(seen.count("design_evaluated"), 1);
        assert_eq!(seen.count("cycle_started"), 2);
        assert_eq!(seen.count("batch_evaluated"), 2);
    }

    #[test]
    fn corrupt_checkpoints_yield_typed_errors() {
        let cfg = toy_cfg(AlgorithmKind::RandomSearch, 1, 1, 3);
        let s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let line = s.to_checkpoint_line("x");
        // Truncation, garbage, wrong schema, tampered key.
        for bad in [
            &line[..line.len() / 2],
            "not json at all",
            &line.replace("\"schema\":2", "\"schema\":99"),
            &line.replace(&s.config().key(), "0000000000000000"),
        ] {
            match SessionState::from_checkpoint_line(bad, NullObserver) {
                Err(SessionError::Corrupt(_)) => {}
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("expected Corrupt, got Ok"),
            }
        }
    }

    #[test]
    fn schema_1_checkpoints_without_qs_still_resume() {
        let p = SyntheticFn::ackley(3);
        let cfg = toy_cfg(AlgorithmKind::Turbo, 3, 2, 17);
        let mut a = SessionState::create_observed(cfg, NullObserver).unwrap();
        for _ in 0..2 {
            let ask = a.ask().unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            a.tell(ask.turn, &values).unwrap();
        }
        // Reconstruct the pre-variable-q line layout: schema 1, no
        // "qs" field. The content-addressed key is schema-independent
        // (CONFIG_KEY_VERSION), so it must validate unchanged.
        let line = a.to_checkpoint_line("old");
        let qs_start = line.find(",\"qs\":[").unwrap();
        let qs_end = line[qs_start..].find(']').unwrap() + qs_start + 1;
        let v1_line = format!(
            "{}{}",
            line[..qs_start].replace("\"schema\":2", "\"schema\":1"),
            &line[qs_end..]
        );
        let (id, b) = SessionState::from_checkpoint_line(&v1_line, NullObserver).unwrap();
        assert_eq!(id, "old");
        let ra = drive_locally(a);
        let rb = drive_locally(b);
        assert_eq!(ra.to_json_line(), rb.to_json_line());
    }

    #[test]
    fn qs_disagreeing_with_tell_widths_is_corrupt() {
        let p = SyntheticFn::ackley(3);
        let cfg = toy_cfg(AlgorithmKind::RandomSearch, 2, 2, 19);
        let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let ask = s.ask().unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        s.tell(ask.turn, &values).unwrap();
        let line = s.to_checkpoint_line("x");
        assert!(line.contains(",\"qs\":[6]"), "{line}");
        for bad in [
            line.replace(",\"qs\":[6]", ",\"qs\":[5]"),
            line.replace(",\"qs\":[6]", ",\"qs\":[6,2]"),
            line.replace(",\"qs\":[6]", ",\"qs\":[]"),
        ] {
            match SessionState::from_checkpoint_line(&bad, NullObserver) {
                Err(SessionError::Corrupt(m)) => assert!(m.contains("qs"), "{m}"),
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("expected Corrupt, got Ok"),
            }
        }
    }

    #[test]
    fn ask_reply_q_tracks_the_batch_size() {
        let p = SyntheticFn::ackley(3);
        let mut cfg = toy_cfg(AlgorithmKind::HybridQ, 4, 4, 7);
        cfg.budget = Budget::cycles(4, 4).with_initial_samples(6);
        let mut s = SessionState::create_observed(cfg, NullObserver).unwrap();
        let mut qs = Vec::new();
        while !s.is_done() {
            let ask = s.ask().unwrap();
            assert_eq!(ask.q, ask.points.len());
            qs.push(ask.q);
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            s.tell(ask.turn, &values).unwrap();
        }
        assert_eq!(qs[0], 6, "design turn asks the whole design");
        // The adaptive-q hybrid must actually exercise variability
        // somewhere in the run for the variable-q machinery to mean
        // anything (1 <= q <= q_max always holds).
        assert!(qs[1..].iter().all(|&q| (1..=4).contains(&q)), "{qs:?}");
        // And the checkpoint records exactly those sizes.
        let line = s.to_checkpoint_line("h");
        let want: Vec<String> = qs.iter().map(|q| q.to_string()).collect();
        assert!(line.contains(&format!(",\"qs\":[{}]", want.join(","))), "{line}");
    }

    #[test]
    fn config_json_roundtrips() {
        for (algo, maximize) in
            [(AlgorithmKind::KbQEgo, false), (AlgorithmKind::ThompsonSampling, true)]
        {
            let mut cfg = toy_cfg(algo, 5, 3, u64::MAX - 7);
            cfg.problem.maximize = maximize;
            cfg.budget.stopping =
                if maximize { Stopping::VirtualTime(1200.0) } else { Stopping::Cycles(5) };
            let mut s = String::new();
            cfg.encode_json(&mut s);
            let back = SessionConfig::from_json(&parse(&s).unwrap()).unwrap();
            assert_eq!(back.descriptor(), cfg.descriptor());
        }
    }
}
