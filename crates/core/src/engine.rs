//! Shared BO-loop machinery: normalization, dataset, model management,
//! time accounting, observability and run recording.
//!
//! Every algorithm drives the same [`Engine`]:
//!
//! 1. [`Engine::builder`] validates the configuration and draws the
//!    Latin-hypercube initial design — from a seed stream that depends
//!    only on the run seed, **not** on the algorithm, so all five
//!    algorithms start from identical initial sets (the paper's
//!    protocol) — and evaluates it outside the timed budget (Table 2
//!    excludes the DoE from the 20 minutes);
//! 2. each cycle calls [`Engine::fit_model`] (charged as fitting time),
//!    builds a batch through its acquisition process (charged as
//!    acquisition time, via [`Engine::charge_acquisition`]), and
//!    commits it with [`Engine::commit_batch`] (charged the fixed
//!    virtual simulation cost);
//! 3. [`Engine::should_continue`] implements the stopping rule, and
//!    [`Engine::finish`] emits the [`RunRecord`].
//!
//! An optional [`Observer`] installed through the builder receives a
//! typed [`Event`] at each of these phase boundaries. Events are
//! emitted strictly **outside** the clock's `charge(..)` closures —
//! observer wall-time is never charged to the virtual clock — and are
//! never even constructed when observation is disabled.
//!
//! Internally everything is minimized over the unit cube; the problem's
//! native orientation and box are restored at the record boundary.

use crate::budget::{Budget, Stopping};
use crate::clock::{TimeCategory, VirtualClock};
use crate::error::ConfigError;
use crate::exec::{evaluate_batch_ft_observed, BatchReport};
use crate::observe::{Event, Observer};
use crate::record::{CycleRecord, FaultCounters, RunRecord};
use pbo_gp::{fit, FitWorkspace, GaussianProcess, SparseGaussianProcess, Surrogate, SurrogateModel};
use pbo_linalg::Matrix;
use pbo_opt::Bounds;
use pbo_problems::Problem;
use pbo_sampling::{lhs, SeedStream};
use rand::Rng;
use std::time::Instant;

pub use crate::config::{AcqConfig, AlgoConfig, FantasyKind, QeiConfig, SurrogateBackend};

/// Construct an event and hand it to the observer — but only when one
/// is installed and enabled, so disabled runs never pay for event
/// construction. A free function over the field (not a method) so emit
/// sites can keep disjoint borrows of the engine's other fields.
fn emit<'a>(observer: &mut Option<Box<dyn Observer + Send + 'a>>, build: impl FnOnce() -> Event) {
    if let Some(obs) = observer.as_deref_mut() {
        if obs.enabled() {
            obs.on_event(&build());
        }
    }
}

/// Map unit-cube points into `problem`'s native box.
fn scale_points(problem: &dyn Problem, unit: &[Vec<f64>]) -> Vec<Vec<f64>> {
    unit.iter()
        .map(|u| {
            let mut x = u.clone();
            pbo_sampling::scale_to_box(&mut x, problem.lower(), problem.upper());
            x
        })
        .collect()
}

/// Re-borrow the boxed observer as the plain trait object the executor
/// expects (dropping the `Send` marker is a no-op unsizing coercion).
fn as_dyn<'b>(
    observer: &'b mut Option<Box<dyn Observer + Send + '_>>,
) -> Option<&'b mut (dyn Observer + 'b)> {
    match observer {
        Some(b) => Some(&mut **b),
        None => None,
    }
}

/// Emit one [`Event::PointFaulted`] per faulted outcome, in input
/// order — the same stream [`evaluate_batch_ft_observed`] produces.
/// Session tells synthesize their reports instead of evaluating, so
/// they need the emission on its own.
fn emit_report_faults<'a>(
    observer: &mut Option<Box<dyn Observer + Send + 'a>>,
    report: &BatchReport,
) {
    if let Some(obs) = observer.as_deref_mut() {
        if obs.enabled() {
            for (index, o) in report.outcomes.iter().enumerate() {
                if o.attempts > 1 || o.faults.any() {
                    obs.on_event(&Event::PointFaulted {
                        index,
                        attempts: o.attempts,
                        recovered: o.value.is_some(),
                        faults: o.faults,
                    });
                }
            }
        }
    }
}

/// How the engine holds its problem: borrowed for classic in-process
/// runs, owned for detached ask/tell sessions whose engine must outlive
/// the frame that created it (`Engine<'static>` in a session registry).
pub enum ProblemHandle<'a> {
    /// Caller keeps the problem alive for the duration of the run.
    Borrowed(&'a dyn Problem),
    /// The engine owns the problem (sessions; thread-movable).
    Owned(Box<dyn Problem + Send + Sync>),
}

impl ProblemHandle<'_> {
    /// The problem, whoever owns it.
    pub fn get(&self) -> &dyn Problem {
        match self {
            ProblemHandle::Borrowed(p) => *p,
            ProblemHandle::Owned(p) => p.as_ref(),
        }
    }
}

/// The shared optimization context.
pub struct Engine<'a> {
    problem: ProblemHandle<'a>,
    budget: Budget,
    cfg: AlgoConfig,
    clock: VirtualClock,
    seeds: SeedStream,
    algorithm: String,
    /// Unit-cube inputs (rows).
    x: Matrix,
    /// Minimization-oriented targets.
    y: Vec<f64>,
    /// The fitted surrogate — dense below the configured switch
    /// threshold, sparse above it.
    model: Option<SurrogateModel>,
    /// Fitting workspace reused across cycles: distance tables are
    /// rebuilt per fit (the data grows), but the n x n matrix buffers
    /// survive whenever the fitting-view shape repeats (e.g. capped
    /// `max_fit_points`, or warm refits between appends).
    fit_ws: FitWorkspace,
    cycles: Vec<CycleRecord>,
    /// Clock split snapshot at the start of the current cycle.
    cycle_start_split: (f64, f64, f64),
    cycle_idx: usize,
    seed: u64,
    /// Faults absorbed while evaluating the initial design.
    doe_faults: FaultCounters,
    /// Optional event sink (`None` and a disabled sink behave
    /// identically: no events are built).
    observer: Option<Box<dyn Observer + Send + 'a>>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("algorithm", &self.algorithm)
            .field("problem", &self.problem.get().name())
            .field("seed", &self.seed)
            .field("n_data", &self.y.len())
            .field("cycle_idx", &self.cycle_idx)
            .finish_non_exhaustive()
    }
}

/// Typed, validating constructor for [`Engine`] — see
/// [`Engine::builder`].
pub struct EngineBuilder<'a> {
    problem: ProblemHandle<'a>,
    budget: Option<Budget>,
    cfg: AlgoConfig,
    seed: u64,
    algorithm: String,
    q: Option<usize>,
    observer: Option<Box<dyn Observer + Send + 'a>>,
}

impl<'a> EngineBuilder<'a> {
    /// Set the full budget (otherwise `Budget::paper(q)` is used).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Set the batch size, overriding the budget's `batch_size`.
    pub fn q(mut self, q: usize) -> Self {
        self.q = Some(q);
        self
    }

    /// Set the algorithm configuration.
    pub fn config(mut self, cfg: AlgoConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the run seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the algorithm display name used for seed forking and the
    /// run record (default `"engine"`).
    pub fn algorithm(mut self, name: &str) -> Self {
        self.algorithm = name.to_string();
        self
    }

    /// Install an event sink. At most one; tee with
    /// [`crate::observe::FanoutObserver`] if several are needed.
    pub fn observer(mut self, observer: impl Observer + Send + 'a) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Validate the configuration and draw (but do not evaluate) the
    /// initial design. The returned [`PreparedEngine`] is the suspend
    /// point ask/tell sessions hand to a remote evaluator; in-process
    /// callers never see it because [`EngineBuilder::build`] immediately
    /// resolves it with [`PreparedEngine::evaluate_design`].
    ///
    /// Fails with a typed [`ConfigError`] instead of panicking: zero
    /// batch size, a sub-2 initial design and non-finite budgets/knobs
    /// all surface here (a fully failed design surfaces at absorb time).
    pub fn prepare(self) -> Result<PreparedEngine<'a>, ConfigError> {
        let EngineBuilder { problem, budget, cfg, seed, algorithm, q, observer: mut obs } = self;
        if q == Some(0) {
            return Err(ConfigError::ZeroBatchSize);
        }
        let mut budget = budget.unwrap_or_else(|| Budget::paper(q.unwrap_or(1)));
        if let Some(q) = q {
            budget.batch_size = q;
        }
        budget.validate()?;
        cfg.validate()?;

        let d = problem.get().dim();
        let root = SeedStream::new(seed);
        // The DoE stream must not depend on the algorithm: the paper
        // hands the same 10 initial sets to every method.
        let mut doe_seeds = root.fork_named("doe");
        let n0 = budget.initial_samples.max(2);
        let unit_pts = lhs::maximin_latin_hypercube(&mut doe_seeds.rng(), n0, d, 4);
        emit(&mut obs, || Event::RunStarted {
            algorithm: algorithm.clone(),
            problem: problem.get().name().to_string(),
            seed,
            q: budget.batch_size,
            dim: d,
        });
        Ok(PreparedEngine {
            problem,
            budget,
            cfg,
            seed,
            algorithm,
            design_unit: unit_pts,
            observer: obs,
        })
    }

    /// Validate the configuration, evaluate the initial design
    /// (untimed) and return the ready engine.
    ///
    /// Fails with a typed [`ConfigError`] instead of panicking: zero
    /// batch size, a sub-2 initial design, non-finite budgets/knobs, a
    /// shrinking retry backoff or a fully failed initial design all
    /// surface here.
    pub fn build(self) -> Result<Engine<'a>, ConfigError> {
        self.prepare()?.evaluate_design()
    }
}

/// An engine suspended at the initial-design evaluate boundary: the
/// configuration is validated, the Latin-hypercube design is drawn and
/// `RunStarted` has been emitted, but nothing has been evaluated yet.
///
/// In-process runs resolve it immediately via
/// [`PreparedEngine::evaluate_design`]; ask/tell sessions instead ship
/// [`PreparedEngine::design_native`] to a remote evaluator and feed the
/// resulting values back through [`PreparedEngine::absorb_design`].
pub struct PreparedEngine<'a> {
    problem: ProblemHandle<'a>,
    budget: Budget,
    cfg: AlgoConfig,
    seed: u64,
    algorithm: String,
    /// The design in unit coordinates — the only copy held; native
    /// points are scaled from it on demand.
    design_unit: Vec<Vec<f64>>,
    observer: Option<Box<dyn Observer + Send + 'a>>,
}

impl<'a> PreparedEngine<'a> {
    /// The initial design in the problem's native box — the points a
    /// remote evaluator must simulate before the run can start. Built
    /// from the unit design on each call.
    pub fn design_native(&self) -> Vec<Vec<f64>> {
        scale_points(self.problem.get(), &self.design_unit)
    }

    /// Number of initial-design points.
    pub fn design_len(&self) -> usize {
        self.design_unit.len()
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &dyn Problem {
        self.problem.get()
    }

    /// The validated budget (batch size, stopping rule, sim cost).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The validated algorithm configuration.
    pub fn cfg(&self) -> &AlgoConfig {
        &self.cfg
    }

    /// Emit the per-point fault events a batch report carries, in input
    /// order — exactly what the in-process evaluator would have emitted.
    pub fn emit_report_faults(&mut self, report: &BatchReport) {
        emit_report_faults(&mut self.observer, report);
    }

    /// Evaluate the design in-process through the fault-tolerant pool
    /// and absorb it. `build()` is exactly `prepare()` + this.
    pub fn evaluate_design(mut self) -> Result<Engine<'a>, ConfigError> {
        // The DoE goes through the fault-tolerant pool too (a crashed
        // rank during initial sampling must not kill the run). Failed
        // design points are *dropped*, not imputed: with no dataset yet
        // there is no liar value to borrow, and a slightly smaller DoE
        // is exactly what the paper's cluster would deliver.
        let report = evaluate_batch_ft_observed(
            self.problem.get(),
            &self.design_native(),
            self.budget.sim_seconds,
            &self.cfg.ft,
            as_dyn(&mut self.observer),
        );
        self.absorb_design(&report)
    }

    /// Absorb an already-evaluated initial design and return the ready
    /// engine. The report's outcomes must be aligned with
    /// [`PreparedEngine::design_native`] (one per design point, in
    /// order). Failed points are dropped; a fully failed design is the
    /// typed [`ConfigError::EmptyDesign`].
    pub fn absorb_design(self, report: &BatchReport) -> Result<Engine<'a>, ConfigError> {
        let PreparedEngine {
            problem,
            budget,
            cfg,
            seed,
            algorithm,
            design_unit,
            observer: mut obs,
        } = self;
        let d = problem.get().dim();
        let n0 = budget.initial_samples.max(2);
        let mut doe_faults = report.counters();
        let mut x = Matrix::zeros(0, d);
        let mut y = Vec::with_capacity(n0);
        for (u, o) in design_unit.iter().zip(&report.outcomes) {
            match o.value {
                Some(v) => {
                    x.push_row(u).expect("DoE width");
                    y.push(v);
                }
                None => doe_faults.dropped += 1,
            }
        }
        if y.is_empty() {
            return Err(ConfigError::EmptyDesign);
        }
        let evaluated = y.len();
        emit(&mut obs, || Event::DesignEvaluated {
            requested: n0,
            evaluated,
            faults: doe_faults,
        });
        let clock = VirtualClock::new(cfg.cost_model);
        Ok(Engine {
            problem,
            budget,
            cfg,
            clock,
            // `fork_named` is pure in (seed, label): re-deriving the
            // algorithm stream here is bit-identical to forking it from
            // the root stream in `prepare`.
            seeds: SeedStream::new(seed).fork_named(&algorithm),
            algorithm,
            x,
            y,
            model: None,
            fit_ws: FitWorkspace::new(),
            cycles: Vec::new(),
            cycle_start_split: (0.0, 0.0, 0.0),
            cycle_idx: 0,
            seed,
            doe_faults,
            observer: obs,
        })
    }
}

impl<'a> Engine<'a> {
    /// Start building an engine for `problem`.
    pub fn builder(problem: &'a dyn Problem) -> EngineBuilder<'a> {
        EngineBuilder {
            problem: ProblemHandle::Borrowed(problem),
            budget: None,
            cfg: AlgoConfig::default(),
            seed: 0,
            algorithm: "engine".to_string(),
            q: None,
            observer: None,
        }
    }

    /// Start building an engine that owns its problem — required for
    /// detached sessions where the engine outlives its creating frame
    /// and moves across threads.
    pub fn builder_owned(problem: Box<dyn Problem + Send + Sync>) -> EngineBuilder<'static> {
        EngineBuilder {
            problem: ProblemHandle::Owned(problem),
            budget: None,
            cfg: AlgoConfig::default(),
            seed: 0,
            algorithm: "engine".to_string(),
            q: None,
            observer: None,
        }
    }

    /// The algorithm configuration.
    pub fn cfg(&self) -> &AlgoConfig {
        &self.cfg
    }

    /// The budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Batch size q.
    pub fn q(&self) -> usize {
        self.budget.batch_size
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.problem.get().dim()
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &dyn Problem {
        self.problem.get()
    }

    /// The algorithm display name.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Current virtual-clock reading (seconds).
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Unit-cube bounds of the (normalized) search space.
    pub fn unit_bounds(&self) -> Bounds {
        Bounds::unit(self.dim())
    }

    /// Mutable access to the virtual clock (acquisition charging).
    pub fn clock(&mut self) -> &mut VirtualClock {
        &mut self.clock
    }

    /// Per-run seed stream (fork, don't consume directly, for
    /// reproducible per-component randomness).
    pub fn seeds(&mut self) -> &mut SeedStream {
        &mut self.seeds
    }

    /// Number of observations so far.
    pub fn n_data(&self) -> usize {
        self.y.len()
    }

    /// Index of the current (not-yet-committed) cycle.
    pub fn cycle_index(&self) -> usize {
        self.cycle_idx
    }

    /// Best (smallest) observed minimized value.
    pub fn best_min(&self) -> f64 {
        self.y.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Unit-cube location of the incumbent.
    pub fn best_x_unit(&self) -> Vec<f64> {
        let i = pbo_linalg::vec_ops::argmin(&self.y).expect("non-empty data");
        self.x.row(i).to_vec()
    }

    /// All observations (unit inputs, minimized outputs).
    pub fn data(&self) -> (&Matrix, &[f64]) {
        (&self.x, &self.y)
    }

    /// The current dense GP (must be fitted first). Panics when the
    /// engine is running the sparse backend — backend-agnostic callers
    /// should use [`Engine::model`] instead.
    pub fn gp(&self) -> &GaussianProcess {
        match self.model.as_ref().expect("fit_model must be called before gp()") {
            SurrogateModel::Dense(g) => g,
            SurrogateModel::Sparse(_) => panic!(
                "gp() is dense-only and the engine is running the sparse backend; \
                 use Engine::model() for backend-agnostic access"
            ),
        }
    }

    /// The current surrogate, whichever backend is active (must be
    /// fitted first).
    pub fn model(&self) -> &SurrogateModel {
        self.model.as_ref().expect("fit_model must be called before model()")
    }

    /// True while the stopping rule allows another cycle.
    pub fn should_continue(&self) -> bool {
        match self.budget.stopping {
            Stopping::VirtualTime(t) => self.clock.now() < t,
            Stopping::Cycles(n) => self.cycle_idx < n,
        }
    }

    /// Mark the start of a cycle for time attribution. Called by
    /// [`Engine::fit_model`]; algorithms that skip fitting (random
    /// search) call it directly.
    pub fn begin_cycle(&mut self) {
        self.cycle_start_split = self.clock.split();
        let cycle = self.cycle_idx;
        let clock = self.clock.now();
        emit(&mut self.observer, || Event::CycleStarted { cycle, clock });
    }

    /// Fit or refit the surrogate, charged as fitting time. Full
    /// multistart fits happen on the first cycle and every
    /// `full_fit_every`-th one; other cycles warm-start from the current
    /// hyperparameters with the reduced budget, or — when
    /// `incremental_updates` is set — freeze the hyperparameters and
    /// extend the cached Cholesky factor with only the new rows
    /// (O(n²q) instead of O(n³)).
    pub fn fit_model(&mut self) {
        self.begin_cycle();
        let (f0, _, _) = self.cycle_start_split;
        let full = self.model.is_none() || self.cycle_idx.is_multiple_of(self.cfg.full_fit_every);
        // The sparse backend takes over once the dataset reaches the
        // configured switch threshold; below it every branch is the
        // dense path, byte-identical to a `Dense` configuration.
        let sparse_m = match self.cfg.surrogate {
            SurrogateBackend::Sparse { m, switch_at } if self.y.len() >= switch_at => Some(m),
            _ => None,
        };
        let cfg = self.cfg.fit.clone();
        let x = self.x.clone();
        let y = self.y.clone();
        let prev = self.model.take();
        let mut seeds = self.seeds.fork(0xF17 + self.cycle_idx as u64);
        let mut ws = std::mem::take(&mut self.fit_ws);
        let wall = Instant::now();
        let fitted = self.clock.charge(TimeCategory::Fit, || {
            if let Some(m) = sparse_m {
                let stub = fit::FitReport { mll: f64::NAN, evals: 0, starts: 0 };
                if full {
                    let warm = prev.as_ref().map(|g| (g.kernel().clone(), g.noise()));
                    fit::fit_sparse_with(
                        &x,
                        &y,
                        &cfg,
                        m,
                        warm.as_ref().map(|(k, n)| (k, *n)),
                        &mut seeds,
                        &mut ws,
                    )
                    .map(|(g, rep)| (SurrogateModel::Sparse(g), rep))
                } else if let Some(sg) = prev.as_ref().and_then(SurrogateModel::as_sparse) {
                    // Non-full sparse cycle: hyperparameters and the
                    // inducing basis stay frozen; the new observations
                    // enter through the O(m²q) Woodbury append.
                    let k = sg.n();
                    let xs_new: Vec<Vec<f64>> = (k..y.len()).map(|i| x.row(i).to_vec()).collect();
                    sg.condition_on(&xs_new, &y[k..]).map(|g| (SurrogateModel::Sparse(g), stub))
                } else {
                    // Dense → sparse transition on a non-full cycle:
                    // rebuild in sparse form with the previous
                    // hyperparameters frozen until the next full fit.
                    let prev = prev.as_ref().expect("non-full cycle requires a model");
                    SparseGaussianProcess::new(x.clone(), &y, prev.kernel().clone(), prev.noise(), m)
                        .map(|g| (SurrogateModel::Sparse(g), stub))
                }
            } else if full {
                let warm = prev.as_ref().map(|g| (g.kernel().clone(), g.noise()));
                fit::fit_with(
                    &x,
                    &y,
                    &cfg,
                    warm.as_ref().map(|(k, n)| (k, *n)),
                    &mut seeds,
                    &mut ws,
                )
                .map(|(g, rep)| (SurrogateModel::Dense(g), rep))
            } else if self.cfg.incremental_updates {
                // Hyperparameter-stable cycle: append only the rows that
                // arrived since the model was built. `update` falls back
                // to a frozen-hyperparameter rebuild internally if the
                // factor extension fails, so the surrogate is identical
                // either way.
                let prev = prev
                    .as_ref()
                    .and_then(SurrogateModel::as_dense)
                    .expect("incremental update requires a dense model");
                let k = prev.n();
                let xs_new: Vec<Vec<f64>> = (k..y.len()).map(|i| x.row(i).to_vec()).collect();
                prev.update(&xs_new, &y[k..]).map(|g| {
                    (SurrogateModel::Dense(g), fit::FitReport { mll: f64::NAN, evals: 0, starts: 0 })
                })
            } else {
                let prev = prev
                    .as_ref()
                    .and_then(SurrogateModel::as_dense)
                    .expect("warm refit requires a dense model");
                // Rebuild on the full data with the previous hypers, then
                // take a few warm L-BFGS steps.
                GaussianProcess::new(x.clone(), &y, prev.kernel().clone(), prev.noise())
                    .and_then(|g| fit::refit_warm_with(&g, &cfg, &mut seeds, &mut ws))
                    .map(|(g, rep)| (SurrogateModel::Dense(g), rep))
            }
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;
        self.fit_ws = ws;
        let n = self.y.len();
        let cycle = self.cycle_idx;
        match fitted {
            Ok((g, rep)) => {
                self.model = Some(g);
                let virtual_s = self.clock.split().0 - f0;
                emit(&mut self.observer, || Event::FitCompleted {
                    cycle,
                    n,
                    full,
                    restarts: rep.starts,
                    evals: rep.evals,
                    mll: rep.mll,
                    fallback: false,
                    wall_ns,
                    virtual_s,
                });
            }
            Err(_) => {
                // Last-resort fallback: default kernel, larger noise,
                // dense regardless of backend (it must always build).
                let kernel = pbo_gp::kernel::Kernel::new(cfg.family, self.x.cols());
                self.model = Some(SurrogateModel::Dense(
                    GaussianProcess::new(self.x.clone(), &self.y, kernel, 1e-2)
                        .expect("fallback GP must build"),
                ));
                let virtual_s = self.clock.split().0 - f0;
                emit(&mut self.observer, || Event::FitCompleted {
                    cycle,
                    n,
                    full,
                    restarts: 0,
                    evals: 0,
                    mll: f64::NAN,
                    fallback: true,
                    wall_ns,
                    virtual_s,
                });
            }
        }
    }

    /// Run an acquisition process, charge it to the acquisition clock
    /// (`workers > 1` divides the measured time, modelling genuinely
    /// parallel sub-acquisitions as in BSP-EGO) and emit the
    /// [`Event::AcquisitionCompleted`] telemetry. `work` returns the
    /// built batch (or any payload) plus its multistart restart
    /// shortfall; the event is emitted *after* charging, outside the
    /// timed region.
    pub fn charge_acquisition<T>(
        &mut self,
        workers: usize,
        work: impl FnOnce() -> (T, usize),
    ) -> T {
        let a0 = self.clock.split().1;
        let wall = Instant::now();
        let (out, restart_shortfall) = if workers > 1 {
            self.clock.charge_parallel(TimeCategory::Acquisition, workers, work)
        } else {
            self.clock.charge(TimeCategory::Acquisition, work)
        };
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let virtual_s = self.clock.split().1 - a0;
        let cycle = self.cycle_idx;
        let q = self.budget.batch_size;
        let algorithm = &self.algorithm;
        emit(&mut self.observer, || Event::AcquisitionCompleted {
            cycle,
            algo: algorithm.clone(),
            q,
            restart_shortfall,
            wall_ns,
            virtual_s,
        });
        out
    }

    /// [`Engine::charge_acquisition`] for variable-q algorithms: the
    /// acquisition process itself decides the cycle's batch size, so
    /// the [`Event::AcquisitionCompleted`] telemetry reports the batch
    /// it actually built rather than the configured q. Fixed-q
    /// algorithms keep using `charge_acquisition`, whose event stream
    /// is pinned bit-identical to the pre-variable-q engine.
    pub fn charge_batch_acquisition(
        &mut self,
        workers: usize,
        work: impl FnOnce() -> (Vec<Vec<f64>>, usize),
    ) -> Vec<Vec<f64>> {
        let a0 = self.clock.split().1;
        let wall = Instant::now();
        let (batch, restart_shortfall) = if workers > 1 {
            self.clock.charge_parallel(TimeCategory::Acquisition, workers, work)
        } else {
            self.clock.charge(TimeCategory::Acquisition, work)
        };
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let virtual_s = self.clock.split().1 - a0;
        let cycle = self.cycle_idx;
        let q = batch.len();
        let algorithm = &self.algorithm;
        emit(&mut self.observer, || Event::AcquisitionCompleted {
            cycle,
            algo: algorithm.clone(),
            q,
            restart_shortfall,
            wall_ns,
            virtual_s,
        });
        batch
    }

    /// Replace batch entries that duplicate existing data or each other
    /// with random exploration points (numerical safety: exact
    /// duplicates make the kernel matrix singular and carry no
    /// information anyway).
    pub fn sanitize_batch(&mut self, batch: &mut [Vec<f64>]) {
        let mut rng = self.seeds.fork(0xDED + self.cycle_idx as u64).rng();
        let d = self.dim();
        for i in 0..batch.len() {
            let mut dup = false;
            for j in 0..self.x.rows() {
                if close(&batch[i], self.x.row(j)) {
                    dup = true;
                    break;
                }
            }
            if !dup {
                for j in 0..i {
                    if close(&batch[i], &batch[j]) {
                        dup = true;
                        break;
                    }
                }
            }
            if dup {
                batch[i] = (0..d).map(|_| rng.gen::<f64>()).collect();
            }
        }
    }

    /// Evaluate a batch through the fault-tolerant pool, charge the
    /// virtual simulation time (max over ranks + dispatch overhead,
    /// the paper's MPI accounting — so retries and stragglers lengthen
    /// the *reported* cycle, never the host run), append to the dataset
    /// with graceful degradation, and close the cycle record.
    ///
    /// Degradation policy: a point that exhausts its retries is imputed
    /// constant-liar style with the dataset maximum (pessimistic, so it
    /// can never displace the incumbent nor attract the next batch), or
    /// dropped in the impossible case of an empty dataset. NaN/Inf
    /// never reach the GP.
    pub fn commit_batch(&mut self, batch: Vec<Vec<f64>>) {
        assert!(!batch.is_empty(), "cannot commit an empty batch");
        let native = self.to_native(&batch);
        let report: BatchReport = evaluate_batch_ft_observed(
            self.problem.get(),
            &native,
            self.budget.sim_seconds,
            &self.cfg.ft,
            as_dyn(&mut self.observer),
        );
        self.commit_report(batch, &report);
    }

    /// Map a unit-cube batch into the problem's native box — the points
    /// an (in-process or remote) evaluator actually simulates.
    pub fn to_native(&self, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        scale_points(self.problem.get(), batch)
    }

    /// Emit the per-point fault events a batch report carries, in input
    /// order — exactly what the in-process evaluator would have emitted.
    /// Ask/tell sessions call this before [`Engine::commit_report`]
    /// because their reports are synthesized from remote values instead
    /// of coming out of [`evaluate_batch_ft_observed`].
    pub fn emit_report_faults(&mut self, report: &BatchReport) {
        emit_report_faults(&mut self.observer, report);
    }

    /// Absorb an already-evaluated batch: charge the virtual simulation
    /// time, append to the dataset with graceful degradation and close
    /// the cycle record. `batch` is in unit coordinates and must be
    /// aligned with `report.outcomes`. This is the second half of
    /// [`Engine::commit_batch`]; sessions call it directly with a
    /// report built from remote evaluations.
    pub fn commit_report(&mut self, batch: Vec<Vec<f64>>, report: &BatchReport) {
        assert!(!batch.is_empty(), "cannot commit an empty batch");
        let before_best = self.best_min();
        let mut faults = report.counters();
        // One virtual rank per batch element: the pool's wall time is
        // the slowest rank's, plus the dispatch overhead. Fault-free,
        // every rank costs exactly `sim_seconds` and this reduces to
        // the original `batch_sim_time` charge.
        let charged = report.max_rank_secs()
            + self.budget.dispatch_overhead
            + self.budget.dispatch_overhead_per_point * batch.len() as f64;
        self.clock.charge_virtual(TimeCategory::Simulation, charged);
        // Constant-liar value: worst finite observation across the
        // dataset and this batch's successes.
        let liar = report
            .outcomes
            .iter()
            .filter_map(|o| o.value)
            .chain(self.y.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        let mut n_evals = 0usize;
        for (u, o) in batch.iter().zip(&report.outcomes) {
            let value = match o.value {
                Some(v) => v,
                None if liar.is_finite() => {
                    faults.imputed += 1;
                    liar
                }
                None => {
                    faults.dropped += 1;
                    continue;
                }
            };
            debug_assert!(value.is_finite(), "non-finite value past quarantine");
            self.x.push_row(u).expect("batch width");
            self.y.push(value);
            n_evals += 1;
        }
        let (f0, a0, s0) = self.cycle_start_split;
        let (f1, a1, s1) = self.clock.split();
        let record = CycleRecord {
            cycle: self.cycle_idx,
            fit_time: f1 - f0,
            acq_time: a1 - a0,
            sim_time: s1 - s0,
            n_evals,
            best_y_min: self.best_min(),
            clock: self.clock.now(),
            faults,
        };
        let n_points = batch.len();
        emit(&mut self.observer, || Event::BatchEvaluated {
            cycle: record.cycle,
            n_points,
            n_evals: record.n_evals,
            faults: record.faults,
            virtual_s: record.sim_time,
        });
        if record.best_y_min < before_best {
            emit(&mut self.observer, || Event::IncumbentImproved {
                cycle: record.cycle,
                best_y_min: record.best_y_min,
            });
        }
        self.cycles.push(record);
        self.cycle_idx += 1;
    }

    /// Close the run and emit its record.
    pub fn finish(mut self) -> RunRecord {
        let n_cycles = self.cycles.len();
        let n_simulations = self.y.len();
        let best_y_min = self.best_min();
        let final_clock = self.clock.now();
        emit(&mut self.observer, || Event::RunFinished {
            n_cycles,
            n_simulations,
            best_y_min,
            final_clock,
        });
        let best_x = {
            let mut u = self.best_x_unit();
            let p = self.problem.get();
            pbo_sampling::scale_to_box(&mut u, p.lower(), p.upper());
            u
        };
        RunRecord {
            best_x,
            algorithm: self.algorithm,
            problem: self.problem.get().name().to_string(),
            maximize: self.problem.get().maximize(),
            batch_size: self.budget.batch_size,
            seed: self.seed,
            // Dropped design points never entered `y_min`, so the
            // recorded DoE size is what actually survived.
            doe_size: self.budget.initial_samples.max(2) - self.doe_faults.dropped as usize,
            y_min: self.y,
            cycles: self.cycles,
            final_clock,
            doe_faults: self.doe_faults,
        }
    }
}

/// Coordinate-wise closeness test for duplicate detection.
fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CollectingObserver;
    use pbo_problems::SyntheticFn;
    use std::sync::{Arc, Mutex};

    fn engine_for_test<'a>(p: &'a SyntheticFn, q: usize) -> Engine<'a> {
        let budget = Budget::cycles(3, q).with_initial_samples(8);
        Engine::builder(p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(42)
            .algorithm("test")
            .build()
            .unwrap()
    }

    #[test]
    fn design_native_is_the_scaled_unit_design_bit_for_bit() {
        let p = SyntheticFn::ackley(5);
        let prep = Engine::builder(&p)
            .budget(Budget::cycles(2, 2).with_initial_samples(9))
            .config(AlgoConfig::test_profile())
            .seed(3)
            .prepare()
            .unwrap();
        let native = prep.design_native();
        assert_eq!(native.len(), prep.design_len());
        for (u, x) in prep.design_unit.iter().zip(&native) {
            let mut want = u.clone();
            pbo_sampling::scale_to_box(&mut want, p.lower(), p.upper());
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(&want));
        }
    }

    #[test]
    fn builder_defaults_to_paper_budget_for_q() {
        let p = SyntheticFn::ackley(3);
        let e = Engine::builder(&p).q(2).config(AlgoConfig::test_profile()).build().unwrap();
        assert_eq!(e.q(), 2);
        assert_eq!(e.budget().initial_samples, 32);
    }

    #[test]
    fn builder_rejects_invalid_configurations_with_typed_errors() {
        let p = SyntheticFn::ackley(3);
        // 1. Zero batch size.
        assert_eq!(
            Engine::builder(&p).q(0).build().unwrap_err(),
            ConfigError::ZeroBatchSize
        );
        // 2. Initial design too small to seed a surrogate.
        let mut b = Budget::cycles(1, 2);
        b.initial_samples = 1;
        assert_eq!(
            Engine::builder(&p).budget(b).build().unwrap_err(),
            ConfigError::InitialSamplesTooSmall { got: 1 }
        );
        // 3. Non-positive simulation cost.
        let mut b = Budget::cycles(1, 2).with_initial_samples(8);
        b.sim_seconds = 0.0;
        assert!(matches!(
            Engine::builder(&p).budget(b).build().unwrap_err(),
            ConfigError::NonPositive { field: "budget.sim_seconds", .. }
        ));
        // 4. Shrinking retry backoff.
        let mut cfg = AlgoConfig::test_profile();
        cfg.ft.backoff_factor = 0.0;
        assert_eq!(
            Engine::builder(&p).q(2).config(cfg).build().unwrap_err(),
            ConfigError::BackoffFactorTooSmall { got: 0.0 }
        );
        // 5. Degenerate acquisition budget.
        let mut cfg = AlgoConfig::test_profile();
        cfg.acq.raw_samples = 0;
        assert_eq!(
            Engine::builder(&p).q(2).config(cfg).build().unwrap_err(),
            ConfigError::ZeroField { field: "cfg.acq.raw_samples" }
        );
        // 6. Incremental updates with an every-cycle refit schedule:
        //    there would be no hyperparameter-stable cycle to update on.
        let mut cfg = AlgoConfig::test_profile();
        cfg.incremental_updates = true;
        cfg.full_fit_every = 1;
        assert_eq!(
            Engine::builder(&p).q(2).config(cfg).build().unwrap_err(),
            ConfigError::IncrementalUpdatesNeedStableCycles
        );
    }

    #[test]
    fn incremental_updates_extend_the_surrogate_between_full_fits() {
        let p = SyntheticFn::ackley(3);
        let sink = Arc::new(Mutex::new(CollectingObserver::new()));
        let mut cfg = AlgoConfig::test_profile();
        cfg.incremental_updates = true;
        cfg.full_fit_every = 2;
        let budget = Budget::cycles(4, 2).with_initial_samples(8);
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(cfg)
            .seed(3)
            .algorithm("test")
            .observer(sink.clone())
            .build()
            .unwrap();
        while e.should_continue() {
            e.fit_model();
            // The surrogate always covers the whole dataset, whether it
            // was refit from scratch or extended in place.
            assert_eq!(e.gp().n(), e.n_data());
            let c = e.cycle_index() as f64;
            let mut batch =
                vec![vec![0.25, 0.3, 0.1 + 0.05 * c], vec![0.75, 0.2, 0.15 + 0.05 * c]];
            e.sanitize_batch(&mut batch);
            e.commit_batch(batch);
        }
        e.finish();
        let events = std::mem::take(&mut sink.lock().unwrap().events);
        let fits: Vec<(bool, bool)> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::FitCompleted { full, fallback, .. } => Some((*full, *fallback)),
                _ => None,
            })
            .collect();
        // Cycles 0/2 are full fits; 1/3 take the incremental fast path,
        // and none of them hit the last-resort fallback surrogate.
        assert_eq!(fits, vec![(true, false), (false, false), (true, false), (false, false)]);
    }

    #[test]
    fn doe_is_algorithm_independent() {
        let p = SyntheticFn::ackley(4);
        let budget = Budget::cycles(1, 2).with_initial_samples(8);
        let build = |seed: u64, name: &str| {
            Engine::builder(&p)
                .budget(budget)
                .config(AlgoConfig::test_profile())
                .seed(seed)
                .algorithm(name)
                .build()
                .unwrap()
        };
        let a = build(7, "alg-a");
        let b = build(7, "alg-b");
        assert_eq!(a.data().0.as_slice(), b.data().0.as_slice());
        assert_eq!(a.data().1, b.data().1);
        // Different seeds → different DoEs.
        let c = build(8, "alg-a");
        assert_ne!(a.data().0.as_slice(), c.data().0.as_slice());
    }

    #[test]
    fn fit_and_commit_cycle_accounting() {
        let p = SyntheticFn::ackley(3);
        let mut e = engine_for_test(&p, 2);
        assert_eq!(e.n_data(), 8);
        e.fit_model();
        let batch = vec![vec![0.3, 0.3, 0.3], vec![0.7, 0.2, 0.9]];
        e.commit_batch(batch);
        assert_eq!(e.n_data(), 10);
        let r = e.finish();
        assert_eq!(r.n_cycles(), 1);
        assert_eq!(r.cycles[0].n_evals, 2);
        // Fixed cost model: fit = 1s, sim = 10 + 0.5 + 0.1.
        assert!((r.cycles[0].fit_time - 1.0).abs() < 1e-9);
        assert!((r.cycles[0].sim_time - 10.6).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_phase_events_with_exact_virtual_times() {
        let p = SyntheticFn::ackley(3);
        let sink = Arc::new(Mutex::new(CollectingObserver::new()));
        let budget = Budget::cycles(3, 2).with_initial_samples(8);
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(42)
            .algorithm("test")
            .observer(sink.clone())
            .build()
            .unwrap();
        e.fit_model();
        let batch = e.charge_acquisition(1, || (vec![vec![0.3, 0.3, 0.3], vec![0.7, 0.2, 0.9]], 5));
        e.commit_batch(batch);
        let r = e.finish();
        let events = std::mem::take(&mut sink.lock().unwrap().events);
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "run_started",
                "design_evaluated",
                "cycle_started",
                "fit_completed",
                "acquisition_completed",
                "batch_evaluated",
                "incumbent_improved",
                "run_finished"
            ]
        );
        for ev in &events {
            match ev {
                Event::FitCompleted { virtual_s, n, full, fallback, .. } => {
                    assert_eq!(virtual_s.to_bits(), r.cycles[0].fit_time.to_bits());
                    assert_eq!(*n, 8);
                    assert!(*full);
                    assert!(!*fallback);
                }
                Event::AcquisitionCompleted { virtual_s, restart_shortfall, q, .. } => {
                    assert_eq!(virtual_s.to_bits(), r.cycles[0].acq_time.to_bits());
                    assert_eq!(*restart_shortfall, 5);
                    assert_eq!(*q, 2);
                }
                Event::BatchEvaluated { virtual_s, n_evals, .. } => {
                    assert_eq!(virtual_s.to_bits(), r.cycles[0].sim_time.to_bits());
                    assert_eq!(*n_evals, 2);
                }
                Event::RunFinished { n_simulations, final_clock, .. } => {
                    assert_eq!(*n_simulations, r.n_simulations());
                    assert_eq!(final_clock.to_bits(), r.final_clock.to_bits());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn observed_and_unobserved_runs_are_bit_identical() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget::cycles(2, 2).with_initial_samples(8);
        let run = |observe: bool| {
            let mut b = Engine::builder(&p)
                .budget(budget)
                .config(AlgoConfig::test_profile())
                .seed(9)
                .algorithm("test");
            if observe {
                b = b.observer(Arc::new(Mutex::new(CollectingObserver::new())));
            }
            let mut e = b.build().unwrap();
            while e.should_continue() {
                e.fit_model();
                let c = e.cycle_index() as f64;
                let mut batch = e.charge_acquisition(1, || {
                    (vec![vec![0.3, 0.3, 0.2 + 0.1 * c], vec![0.7, 0.2, 0.1 + 0.1 * c]], 0)
                });
                e.sanitize_batch(&mut batch);
                e.commit_batch(batch);
            }
            e.finish()
        };
        let plain = run(false);
        let observed = run(true);
        assert_eq!(plain.y_min, observed.y_min);
        let bits = |r: &RunRecord| {
            r.cycles
                .iter()
                .map(|c| {
                    (
                        c.fit_time.to_bits(),
                        c.acq_time.to_bits(),
                        c.sim_time.to_bits(),
                        c.clock.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&plain), bits(&observed));
    }

    #[test]
    fn stopping_by_cycles() {
        let p = SyntheticFn::ackley(3);
        let mut e = engine_for_test(&p, 1);
        let mut cycles = 0;
        while e.should_continue() {
            e.fit_model();
            e.commit_batch(vec![vec![0.5, 0.5, 0.5 + 0.01 * cycles as f64]]);
            cycles += 1;
        }
        assert_eq!(cycles, 3);
    }

    #[test]
    fn stopping_by_virtual_time() {
        let p = SyntheticFn::ackley(3);
        let budget = Budget {
            stopping: Stopping::VirtualTime(25.0),
            ..Budget::cycles(0, 1)
        }
        .with_initial_samples(6);
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(1)
            .algorithm("t")
            .build()
            .unwrap();
        let mut cycles = 0;
        while e.should_continue() {
            e.fit_model();
            e.commit_batch(vec![vec![0.1 * cycles as f64, 0.5, 0.5]]);
            cycles += 1;
        }
        // Each cycle costs 1 (fit) + 10.55 (sim) ≈ 11.55 → 3 cycles pass
        // the 25 s mark (stop checked before the cycle).
        assert_eq!(cycles, 3);
    }

    #[test]
    fn sanitize_replaces_duplicates() {
        let p = SyntheticFn::ackley(3);
        let mut e = engine_for_test(&p, 2);
        let existing = e.data().0.row(0).to_vec();
        let mut batch = vec![existing.clone(), existing.clone()];
        e.sanitize_batch(&mut batch);
        assert!(!close(&batch[0], &existing));
        assert!(!close(&batch[1], &existing));
        assert!(!close(&batch[0], &batch[1]));
    }

    #[test]
    fn faulty_run_imputes_and_counts() {
        use pbo_problems::fault::{silence_injected_panics, FaultPlan, FaultyProblem};
        silence_injected_panics();
        let inner = SyntheticFn::ackley(3);
        let plan = FaultPlan::uniform(21, 0.3);
        let p = FaultyProblem::new(&inner, plan);
        let budget = Budget::cycles(3, 2).with_initial_samples(8);
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(42)
            .algorithm("test")
            .build()
            .unwrap();
        while e.should_continue() {
            e.fit_model();
            let c = e.cycle_index() as f64;
            e.commit_batch(vec![vec![0.3, 0.3, 0.2 + 0.1 * c], vec![0.7, 0.2, 0.1 + 0.1 * c]]);
        }
        let r = e.finish();
        let totals = r.fault_totals();
        let log = p.injection_log();
        assert!(totals.any(), "a 30% plan must fire somewhere in 14 evals x attempts");
        assert_eq!(totals.panics, log.panics);
        assert_eq!(totals.nan_quarantined, log.nans);
        assert_eq!(totals.inf_quarantined, log.infs);
        assert_eq!(totals.stragglers, log.straggles);
        // Nothing non-finite may ever reach the dataset.
        assert!(r.y_min.iter().all(|v| v.is_finite()));
        // An imputed point carries the dataset max: it never improves
        // the incumbent, so the best-so-far trace stays clean.
        assert!(r.best_y().is_finite());
    }

    #[test]
    fn straggler_extends_charged_sim_time() {
        use pbo_problems::fault::{FaultPlan, FaultyProblem};
        let inner = SyntheticFn::ackley(3);
        // Pure stragglers: every attempt succeeds but arrives late.
        let plan =
            FaultPlan { p_straggle: 1.0, max_straggle_secs: 20.0, ..FaultPlan::none(5) };
        let p = FaultyProblem::new(&inner, plan);
        let budget = Budget::cycles(1, 2).with_initial_samples(6);
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(9)
            .algorithm("test")
            .build()
            .unwrap();
        e.fit_model();
        e.commit_batch(vec![vec![0.3, 0.3, 0.3], vec![0.7, 0.2, 0.9]]);
        let r = e.finish();
        let c = &r.cycles[0];
        // Charged time = max over the two ranks' (10 + delay) + 0.6
        // dispatch: strictly more than the fault-free 10.6, bounded by
        // the 20 s worst-case delay.
        assert!(c.sim_time > 10.6);
        assert!(c.sim_time <= 30.6 + 1e-9);
        assert_eq!(c.faults.stragglers, 2);
        // Lost rank-seconds are the sum of both delays, and must be at
        // least the slowest rank's extra charge.
        let log = p.injection_log();
        // DoE straggles too (untimed but logged); cycle counters only
        // cover the batch.
        assert!(log.straggles >= 8);
        assert!((c.faults.virtual_secs_lost - (c.sim_time - 10.6)) > -1e-9);
    }

    /// Unit-box problem whose evaluation always returns NaN at the
    /// poisoned point and is healthy everywhere else.
    struct PoisonedPoint {
        bounds_lo: Vec<f64>,
        bounds_hi: Vec<f64>,
        poison: Vec<f64>,
    }

    impl pbo_problems::Problem for PoisonedPoint {
        fn name(&self) -> &str {
            "poisoned"
        }
        fn dim(&self) -> usize {
            3
        }
        fn lower(&self) -> &[f64] {
            &self.bounds_lo
        }
        fn upper(&self) -> &[f64] {
            &self.bounds_hi
        }
        fn eval(&self, x: &[f64]) -> f64 {
            if x == self.poison.as_slice() {
                f64::NAN
            } else {
                x.iter().sum()
            }
        }
    }

    #[test]
    fn permanently_failing_point_is_imputed_with_dataset_max() {
        let p = PoisonedPoint {
            bounds_lo: vec![0.0; 3],
            bounds_hi: vec![1.0; 3],
            poison: vec![0.5, 0.5, 0.5],
        };
        let budget = Budget::cycles(1, 2).with_initial_samples(6);
        let sink = Arc::new(Mutex::new(CollectingObserver::new()));
        let mut e = Engine::builder(&p)
            .budget(budget)
            .config(AlgoConfig::test_profile())
            .seed(11)
            .algorithm("test")
            .observer(sink.clone())
            .build()
            .unwrap();
        let liar = e.data().1.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        e.fit_model();
        e.commit_batch(vec![vec![0.5, 0.5, 0.5], vec![0.9, 0.9, 0.9]]);
        let r = e.finish();
        // The healthy companion point (Σx = 2.7) must beat the liar,
        // and the poisoned point must carry the pre-batch dataset max.
        let c = &r.cycles[0];
        assert_eq!(c.faults.imputed, 1);
        assert_eq!(c.faults.nan_quarantined, 3, "initial attempt + 2 retries");
        assert_eq!(c.faults.retries, 2);
        assert_eq!(c.n_evals, 2, "imputed point still enters the dataset");
        assert!(r.y_min.iter().all(|v| v.is_finite()));
        let imputed = r.y_min[r.y_min.len() - 2];
        assert_eq!(imputed, liar.max(2.7));
        // Retries serialized on the failing rank: 3 × 10 s sims plus
        // backoffs 1 + 2 = 33 s rank time vs the healthy rank's 10 s,
        // so the charged cycle time is 33 + 0.6 dispatch.
        assert!((c.sim_time - 33.6).abs() < 1e-9);
        assert!((c.faults.virtual_secs_lost - 23.0).abs() < 1e-9);
        // The poisoned point surfaced as a deterministic fault event in
        // batch input order.
        let events = &sink.lock().unwrap().events;
        let faulted: Vec<&Event> =
            events.iter().filter(|e| e.name() == "point_faulted").collect();
        assert_eq!(faulted.len(), 1);
        match faulted[0] {
            Event::PointFaulted { index, attempts, recovered, .. } => {
                assert_eq!(*index, 0);
                assert_eq!(*attempts, 3);
                assert!(!recovered);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn best_tracking() {
        let p = SyntheticFn::ackley(3);
        let mut e = engine_for_test(&p, 1);
        let before = e.best_min();
        e.fit_model();
        // Commit the known global minimizer (in unit coords: 0 maps to
        // lower bound −5 … so unit for x=0 is 1/3).
        e.commit_batch(vec![vec![1.0 / 3.0; 3]]);
        assert!(e.best_min() < before);
        assert!(e.best_min() < 1e-6);
    }
}
