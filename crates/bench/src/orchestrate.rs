//! Parallel, crash-safe experiment orchestration.
//!
//! The paper's evidence is replication grids — many repetitions of
//! (problem × algorithm × batch size) under a wall-clock budget — not
//! single runs. This module turns the repro harness into an
//! orchestrator that scales to those grids:
//!
//! - **Sharding**: the full task list (one task per repetition of every
//!   grid cell) is executed by a deterministic worker pool
//!   ([`pbo_linalg::parallel::par_map_workers`]) — workers pull tasks
//!   dynamically, results are keyed by task index, and every worker
//!   runs inside the parallel-region guard so nested GP/multistart
//!   fan-outs stay sequential (no oversubscription, bit-identical
//!   per-run arithmetic for any `--jobs` count).
//! - **Checkpointing**: each completed run is written atomically
//!   (temp file + rename) under a content-addressed run key — a hash of
//!   the problem, algorithm, batch size, repetition, seed, profile and
//!   budget — as two JSONL lines: a `checkpoint` meta line (valid
//!   against `pbo_core::observe::jsonl::validate_line`) and the
//!   serialized [`RunRecord`]. A campaign killed at any point loses at
//!   most the in-flight runs.
//! - **Resume**: with [`OrchestratorConfig::resume`], tasks whose
//!   checkpoint exists and parses are skipped; corrupt or
//!   stale-schema checkpoints are re-run, never mis-read.
//! - **Pure-fold aggregation**: the grid records handed to the
//!   table/figure writers are *always* re-read from the checkpoint
//!   files, in task order — so artifacts are byte-identical across
//!   worker counts and across interrupted-then-resumed vs uninterrupted
//!   campaigns, and can be rebuilt without re-running anything.
//! - **Observability**: per-cell progress and fault counters surface
//!   through a [`MetricsRegistry`]; `--trace` additionally streams each
//!   run's engine events to a sibling `.trace.jsonl` file.

use crate::grid::{run_seed, ProblemSpec};
use crate::profiles::Profile;
use pbo_core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo_core::budget::{Budget, Stopping};
use pbo_core::checkpoint::fnv1a64;
use pbo_core::json::{self, push_str_literal};
use pbo_core::observe::jsonl::JsonlTraceWriter;
use pbo_core::observe::metrics::MetricsRegistry;
use pbo_core::observe::FanoutObserver;
use pbo_core::record::{RunRecord, RECORD_SCHEMA_VERSION};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One full (algorithm × batch × repetition) grid on one problem.
#[derive(Debug, Clone)]
pub struct GridPlan {
    /// Problem instance.
    pub problem: ProblemSpec,
    /// Algorithms (paper column order).
    pub algos: Vec<AlgorithmKind>,
    /// Batch sizes.
    pub batches: Vec<usize>,
    /// Repetitions per cell.
    pub runs: usize,
    /// Experiment profile (budget + algorithm configuration).
    pub profile: Profile,
    /// Optional override of the virtual-time budget \[minutes\].
    pub minutes: Option<f64>,
}

impl GridPlan {
    /// The budget of a `q` cell (profile budget + `minutes` override).
    pub fn budget(&self, q: usize) -> Budget {
        let mut b = self.profile.budget(q);
        if let Some(m) = self.minutes {
            b.stopping = Stopping::VirtualTime(m * 60.0);
        }
        b
    }

    /// The full task list in canonical (q-major, then algorithm, then
    /// repetition) order. Aggregation folds checkpoints in exactly this
    /// order, so artifacts never depend on completion order.
    pub fn tasks(&self) -> Vec<RunTask> {
        let mut tasks = Vec::with_capacity(self.batches.len() * self.algos.len() * self.runs);
        for &q in &self.batches {
            for &algo in &self.algos {
                for repetition in 0..self.runs {
                    tasks.push(RunTask {
                        problem: self.problem,
                        algo,
                        q,
                        repetition,
                        seed: run_seed(self.problem, q, repetition),
                    });
                }
            }
        }
        tasks
    }
}

/// One schedulable unit: a single repetition of a grid cell.
#[derive(Debug, Clone, Copy)]
pub struct RunTask {
    /// Problem instance.
    pub problem: ProblemSpec,
    /// Algorithm.
    pub algo: AlgorithmKind,
    /// Batch size.
    pub q: usize,
    /// Repetition index within the cell.
    pub repetition: usize,
    /// Run seed (shared across algorithms; see `grid::run_seed`).
    pub seed: u64,
}

impl RunTask {
    /// Canonical descriptor: every input that determines the run's
    /// result. The run key hashes this string, so any change to the
    /// protocol (profile, budget, seed scheme, schema) changes the key
    /// and stale checkpoints are never silently reused.
    fn descriptor(&self, plan: &GridPlan) -> String {
        let b = plan.budget(self.q);
        let stopping = match b.stopping {
            Stopping::VirtualTime(s) => format!("vt{s:?}"),
            Stopping::Cycles(n) => format!("cy{n}"),
        };
        format!(
            "schema={RECORD_SCHEMA_VERSION};problem={};algo={};q={};rep={};seed={};\
             profile={};stopping={stopping};init={};sim={:?};disp={:?}+{:?}",
            self.problem.name(),
            self.algo.name(),
            self.q,
            self.repetition,
            self.seed,
            plan.profile.name(),
            b.initial_samples,
            b.sim_seconds,
            b.dispatch_overhead,
            b.dispatch_overhead_per_point,
        )
    }

    /// Content-addressed run key: human-readable prefix plus an
    /// FNV-1a-64 digest of the full descriptor.
    pub fn run_key(&self, plan: &GridPlan) -> String {
        format!(
            "{}_q{}_r{}_{:016x}",
            self.algo.name(),
            self.q,
            self.repetition,
            fnv1a64(self.descriptor(plan).as_bytes())
        )
    }

    /// Checkpoint path under `dir` (one subdirectory per problem).
    pub fn checkpoint_path(&self, plan: &GridPlan, dir: &Path) -> PathBuf {
        dir.join(self.problem.name()).join(format!("{}.json", self.run_key(plan)))
    }
}

/// How the orchestrator schedules and persists a grid.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker count (`--jobs`); 1 reproduces strictly sequential runs.
    pub jobs: usize,
    /// Skip tasks whose checkpoint already exists and parses.
    pub resume: bool,
    /// Checkpoint root directory.
    pub dir: PathBuf,
    /// Also write one JSONL engine-event trace per run.
    pub trace: bool,
}

impl OrchestratorConfig {
    /// Sequential, non-resuming orchestration into `dir`.
    pub fn sequential(dir: impl Into<PathBuf>) -> Self {
        OrchestratorConfig { jobs: 1, resume: false, dir: dir.into(), trace: false }
    }
}

/// Records of one grid keyed by (algorithm, batch size), repetitions in
/// order — the shape the report layer aggregates.
pub type GridRecords = HashMap<(AlgorithmKind, usize), Vec<RunRecord>>;

/// What [`execute_grid`] did, plus the folded records.
pub struct GridOutcome {
    /// Per-cell run records, re-read from the checkpoint files.
    pub records: GridRecords,
    /// Runs executed in this invocation.
    pub executed: usize,
    /// Runs satisfied from existing checkpoints.
    pub resumed: usize,
}

/// Write one checkpoint atomically: meta line + serialized record into
/// `path.tmp`, then rename over `path`. A crash mid-write leaves no
/// partial checkpoint behind under the final name.
pub fn write_checkpoint(
    path: &Path,
    key: &str,
    profile: Profile,
    record: &RunRecord,
) -> Result<(), String> {
    let mut body = String::with_capacity(256);
    body.push_str("{\"event\":\"checkpoint\",\"schema\":");
    let _ = write!(body, "{RECORD_SCHEMA_VERSION}");
    body.push_str(",\"key\":");
    push_str_literal(&mut body, key);
    body.push_str(",\"algorithm\":");
    push_str_literal(&mut body, &record.algorithm);
    body.push_str(",\"problem\":");
    push_str_literal(&mut body, &record.problem);
    let _ = write!(body, ",\"q\":{},\"seed\":\"{}\",\"profile\":", record.batch_size, record.seed);
    push_str_literal(&mut body, profile.name());
    body.push_str("}\n");
    body.push_str(&record.to_json_line());
    body.push('\n');

    pbo_core::checkpoint::atomic_write(path, &body).map_err(|e| format!("checkpoint: {e}"))
}

/// Read and validate one checkpoint. Any structural problem — missing
/// lines, meta/record mismatch, wrong key or schema — is an error; the
/// orchestrator treats an unreadable checkpoint as absent and re-runs.
pub fn read_checkpoint(path: &Path, expected_key: &str) -> Result<RunRecord, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut lines = body.lines();
    let meta_line = lines.next().ok_or("empty checkpoint")?;
    let record_line = lines.next().ok_or("checkpoint has no record line")?;
    let meta = json::parse(meta_line).map_err(|e| format!("bad meta line: {e}"))?;
    if meta.get("event").and_then(json::Json::as_str) != Some("checkpoint") {
        return Err("meta line is not a checkpoint event".into());
    }
    match meta.require("schema")?.as_u64() {
        Some(RECORD_SCHEMA_VERSION) => {}
        other => return Err(format!("unsupported checkpoint schema {other:?}")),
    }
    let key = meta.require("key")?.as_str().ok_or("checkpoint key is not a string")?;
    if key != expected_key {
        return Err(format!("checkpoint key mismatch: found {key}, expected {expected_key}"));
    }
    let record = RunRecord::from_json_line(record_line)?;
    if meta.get("q").and_then(json::Json::as_usize) != Some(record.batch_size) {
        return Err("checkpoint meta/record batch-size mismatch".into());
    }
    Ok(record)
}

/// Run every task of `plan` that is not already checkpointed, then fold
/// the checkpoint files into [`GridRecords`].
///
/// `metrics`, when given, receives per-cell completion counters
/// (`orchestrator.cell.<problem>.<algo>.q<q>.completed`), global
/// executed/resumed counters and aggregated fault counters.
pub fn execute_grid(
    plan: &GridPlan,
    cfg: &OrchestratorConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<GridOutcome, String> {
    let tasks = plan.tasks();
    let problem_dir = cfg.dir.join(plan.problem.name());
    std::fs::create_dir_all(&problem_dir)
        .map_err(|e| format!("cannot create checkpoint dir {}: {e}", problem_dir.display()))?;

    // Phase 1: bring every checkpoint into existence (worker pool).
    let statuses: Vec<Result<bool, String>> =
        pbo_linalg::parallel::par_map_workers(tasks.len(), cfg.jobs, |i| {
            run_task(&tasks[i], plan, cfg)
        });
    let mut executed = 0usize;
    let mut resumed = 0usize;
    let mut errors = Vec::new();
    for s in statuses {
        match s {
            Ok(true) => executed += 1,
            Ok(false) => resumed += 1,
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Err(format!("{} run(s) failed; first: {}", errors.len(), errors[0]));
    }

    // Phase 2: pure fold over the checkpoint files, in task order.
    // Fresh and resumed runs alike are re-read from disk, so the
    // aggregation inputs are a function of the checkpoint set only —
    // never of worker count or interruption history.
    let mut records: GridRecords = HashMap::new();
    for t in &tasks {
        let path = t.checkpoint_path(plan, &cfg.dir);
        let rec = read_checkpoint(&path, &t.run_key(plan))
            .map_err(|e| format!("aggregation failed on {}: {e}", path.display()))?;
        records.entry((t.algo, t.q)).or_default().push(rec);
    }

    if let Some(reg) = metrics {
        reg.counter("orchestrator.runs_executed").add(executed as u64);
        reg.counter("orchestrator.runs_resumed").add(resumed as u64);
        for ((algo, q), recs) in &records {
            let name =
                format!("orchestrator.cell.{}.{}.q{q}.completed", plan.problem.name(), algo.name());
            reg.counter(&name).add(recs.len() as u64);
            let mut faults = pbo_core::record::FaultCounters::default();
            for r in recs {
                faults.merge(&r.fault_totals());
            }
            if faults.any() {
                let cell =
                    format!("orchestrator.cell.{}.{}.q{q}", plan.problem.name(), algo.name());
                reg.counter(&format!("{cell}.faults.failed_attempts"))
                    .add(faults.failed_attempts());
                reg.counter(&format!("{cell}.faults.imputed")).add(faults.imputed);
                reg.counter(&format!("{cell}.faults.dropped")).add(faults.dropped);
            }
        }
    }

    Ok(GridOutcome { records, executed, resumed })
}

/// Execute (or resume) one task. Returns `Ok(true)` when the run was
/// executed, `Ok(false)` when an existing checkpoint satisfied it.
fn run_task(task: &RunTask, plan: &GridPlan, cfg: &OrchestratorConfig) -> Result<bool, String> {
    let key = task.run_key(plan);
    let path = task.checkpoint_path(plan, &cfg.dir);
    if cfg.resume && path.exists() {
        match read_checkpoint(&path, &key) {
            Ok(_) => {
                eprintln!(
                    "[orchestrate] {} {} q={} r={}: resumed from checkpoint",
                    task.problem.name(),
                    task.algo.name(),
                    task.q,
                    task.repetition
                );
                return Ok(false);
            }
            Err(e) => {
                eprintln!(
                    "[orchestrate] {} {} q={} r={}: stale checkpoint ({e}); re-running",
                    task.problem.name(),
                    task.algo.name(),
                    task.q,
                    task.repetition
                );
            }
        }
    }

    let problem = task.problem.build();
    let budget = plan.budget(task.q);
    let algo_cfg = plan.profile.algo_config();
    let t0 = std::time::Instant::now();
    // One run call for both modes, so an invalid budget is this run's
    // `Err` whether or not it is traced; an empty fanout is disabled and
    // builds no events.
    let mut observer = FanoutObserver::new();
    if cfg.trace {
        let trace_path = path.with_extension("trace.jsonl");
        let writer = JsonlTraceWriter::create(&trace_path)
            .map_err(|e| format!("cannot create trace {}: {e}", trace_path.display()))?;
        observer = observer.with(writer);
    }
    let record =
        run_algorithm_observed(task.algo, problem.as_ref(), &budget, algo_cfg, task.seed, observer)
            .map_err(|e| format!("invalid configuration for {key}: {e:?}"))?;
    write_checkpoint(&path, &key, plan.profile, &record)?;
    eprintln!(
        "[orchestrate] {} {} q={} r={}: {} cycles, {} sims in {:.1}s wall (checkpointed)",
        task.problem.name(),
        task.algo.name(),
        task.q,
        task.repetition,
        record.n_cycles(),
        record.n_simulations(),
        t0.elapsed().as_secs_f64(),
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> GridPlan {
        GridPlan {
            problem: ProblemSpec::Ackley,
            algos: vec![AlgorithmKind::RandomSearch, AlgorithmKind::Turbo],
            batches: vec![1, 2],
            runs: 3,
            profile: Profile::Smoke,
            minutes: None,
        }
    }

    #[test]
    fn task_list_is_canonical_and_seeded() {
        let p = plan();
        let tasks = p.tasks();
        assert_eq!(tasks.len(), 2 * 2 * 3);
        // q-major, then algorithm, then repetition.
        assert_eq!((tasks[0].q, tasks[0].repetition), (1, 0));
        assert_eq!(tasks[0].algo, AlgorithmKind::RandomSearch);
        assert_eq!(tasks[3].algo, AlgorithmKind::Turbo);
        assert_eq!(tasks[6].q, 2);
        // Seeds are shared across algorithms within a cell.
        assert_eq!(tasks[0].seed, tasks[3].seed);
        assert_ne!(tasks[0].seed, tasks[1].seed);
    }

    #[test]
    fn run_keys_separate_protocol_changes() {
        let p = plan();
        let t = p.tasks()[0];
        let base = t.run_key(&p);
        let mut fast = p.clone();
        fast.profile = Profile::Fast;
        assert_ne!(base, t.run_key(&fast), "profile must change the run key");
        let mut short = p.clone();
        short.minutes = Some(1.0);
        assert_ne!(base, t.run_key(&short), "budget override must change the run key");
        assert_eq!(base, t.run_key(&plan()), "key is deterministic");
    }

    #[test]
    fn checkpoint_write_read_roundtrip_and_key_check() {
        let dir = std::env::temp_dir().join(format!("pbo-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = plan();
        let t = p.tasks()[0];
        let rec = crate::grid::run_cell(t.problem, t.algo, t.q, 1, p.profile).remove(0);
        let path = dir.join("a.json");
        let key = t.run_key(&p);
        write_checkpoint(&path, &key, p.profile, &rec).unwrap();
        let back = read_checkpoint(&path, &key).unwrap();
        assert_eq!(back.to_json_line(), rec.to_json_line());
        assert!(read_checkpoint(&path, "other-key").is_err());
        // Truncation is detected, not mis-read.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, body.lines().next().unwrap()).unwrap();
        assert!(read_checkpoint(&path, &key).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn infinite_budget_is_the_runs_error_traced_or_not() {
        let p = GridPlan {
            algos: vec![AlgorithmKind::RandomSearch],
            batches: vec![1],
            runs: 1,
            minutes: Some(f64::INFINITY),
            ..plan()
        };
        for trace in [false, true] {
            let dir = std::env::temp_dir().join(format!("pbo-inf-{}-{trace}", std::process::id()));
            let cfg = OrchestratorConfig { trace, ..OrchestratorConfig::sequential(&dir) };
            match execute_grid(&p, &cfg, None) {
                Err(e) => assert!(e.contains("budget.stopping.virtual_time"), "trace={trace}: {e}"),
                Ok(_) => panic!("trace={trace}: an infinite budget must not run"),
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
