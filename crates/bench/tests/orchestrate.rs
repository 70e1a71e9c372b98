//! Orchestrator integration suite: checkpoint aggregation is a pure
//! fold — artifacts are byte-identical across worker counts and across
//! interrupted-then-resumed vs uninterrupted campaigns.

use pbo_bench::grid::ProblemSpec;
use pbo_bench::orchestrate::{execute_grid, write_checkpoint, GridPlan, OrchestratorConfig};
use pbo_bench::profiles::Profile;
use pbo_bench::report;
use pbo_core::algorithms::AlgorithmKind;
use pbo_core::observe::metrics::MetricsRegistry;
use pbo_core::record::{CycleRecord, FaultCounters, RunRecord};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbo-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// Golden-file aggregation: hand-built checkpoint records (one with
// quarantined-NaN fault counters) → report fold → pinned CSV bytes,
// identical for 1-worker and 4-worker orchestration.
// ---------------------------------------------------------------------

fn synthetic_plan() -> GridPlan {
    GridPlan {
        problem: ProblemSpec::Ackley,
        algos: vec![AlgorithmKind::RandomSearch, AlgorithmKind::Turbo],
        batches: vec![1, 2],
        runs: 2,
        profile: Profile::Smoke,
        minutes: None,
    }
}

/// A deterministic hand-built record for one (algo, q, rep) cell. The
/// `repetition == 1` record of the first cell carries quarantined-NaN
/// fault counters, exercising the fault path through checkpoint
/// serialization and aggregation.
fn synthetic_record(algo: AlgorithmKind, q: usize, rep: usize, seed: u64) -> RunRecord {
    let ai = if algo == AlgorithmKind::RandomSearch { 1.0 } else { 2.0 };
    let base = ai * 10.0 + q as f64 + rep as f64 * 0.25;
    let faults = if ai == 1.0 && q == 1 && rep == 1 {
        FaultCounters {
            nan_quarantined: 3,
            retries: 3,
            virtual_secs_lost: 12.5,
            ..FaultCounters::default()
        }
    } else {
        FaultCounters::default()
    };
    RunRecord {
        algorithm: algo.name().into(),
        problem: "ackley-12d".into(),
        maximize: false,
        batch_size: q,
        seed,
        doe_size: 1,
        best_x: vec![0.5; 3],
        y_min: vec![base, base - 1.0 / 3.0, base - 0.1],
        cycles: vec![CycleRecord {
            cycle: 0,
            fit_time: 1.5,
            acq_time: 0.5,
            sim_time: 10.0,
            n_evals: q,
            best_y_min: base - 1.0 / 3.0,
            clock: 12.0,
            faults,
        }],
        final_clock: 12.0,
        doe_faults: FaultCounters::default(),
    }
}

/// Write every synthetic checkpoint for `plan` into `dir`.
fn write_synthetic_checkpoints(plan: &GridPlan, dir: &Path) {
    for t in plan.tasks() {
        let path = t.checkpoint_path(plan, dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let rec = synthetic_record(t.algo, t.q, t.repetition, t.seed);
        write_checkpoint(&path, &t.run_key(plan), plan.profile, &rec).unwrap();
    }
}

/// Fold checkpoints with `jobs` workers and render the Tables-4–6 CSV.
fn aggregate_to_csv(plan: &GridPlan, dir: &Path, jobs: usize) -> String {
    let cfg = OrchestratorConfig { jobs, resume: true, dir: dir.to_path_buf(), trace: false };
    let outcome = execute_grid(plan, &cfg, None).unwrap();
    assert_eq!(outcome.executed, 0, "all runs must come from checkpoints");
    assert_eq!(outcome.resumed, plan.tasks().len());
    let cells: Vec<Vec<pbo_core::stats::Summary>> = plan
        .batches
        .iter()
        .map(|&q| {
            plan.algos.iter().map(|&a| report::summarize_final(&outcome.records[&(a, q)])).collect()
        })
        .collect();
    let rows = report::benchmark_csv_rows(&plan.batches, &cells);
    let path = dir.join("golden.csv");
    report::write_csv(&path, "q,algo_index,mean,sd,min,max", &rows).unwrap();
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn golden_aggregation_from_checkpoints_pins_csv_bytes() {
    let plan = synthetic_plan();
    let dir = tmp_dir("golden");
    write_synthetic_checkpoints(&plan, &dir);

    let csv1 = aggregate_to_csv(&plan, &dir, 1);
    let csv4 = aggregate_to_csv(&plan, &dir, 4);
    assert_eq!(csv1, csv4, "1-worker and 4-worker folds must agree byte-for-byte");

    // Finals per cell: best of y_min = base - 1/3 with base =
    // ai·10 + q + rep/4 ⇒ finals (rep 0, rep 1) = (b, b + 0.25),
    // mean = b + 0.125, sample sd = 0.25/√2, min = b, max = b + 0.25 —
    // pinned here at full shortest-roundtrip precision.
    let golden = "q,algo_index,mean,sd,min,max\n\
                  1,0,10.791666666666666,0.1767766952966369,10.666666666666666,10.916666666666666\n\
                  1,1,20.791666666666668,0.1767766952966369,20.666666666666668,20.916666666666668\n\
                  2,0,11.791666666666666,0.1767766952966369,11.666666666666666,11.916666666666666\n\
                  2,1,21.791666666666668,0.1767766952966369,21.666666666666668,21.916666666666668\n";
    assert_eq!(csv1, golden, "aggregated CSV drifted from the pinned golden bytes");

    // The quarantined-NaN fault counters survive checkpoint
    // serialization and surface in the aggregate fault summary.
    let cfg = OrchestratorConfig { jobs: 1, resume: true, dir: dir.clone(), trace: false };
    let outcome = execute_grid(&plan, &cfg, None).unwrap();
    let faulty_cell = &outcome.records[&(AlgorithmKind::RandomSearch, 1)];
    let line = report::fault_summary(faulty_cell).expect("NaN-quarantine counters present");
    assert!(line.contains("3 NaN"), "{line}");
    assert!(line.contains("12.5 virtual s lost"), "{line}");
    let clean_cell = &outcome.records[&(AlgorithmKind::Turbo, 2)];
    assert!(report::fault_summary(clean_cell).is_none());

    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Real-run orchestration: 1 vs 4 workers produce byte-identical
// checkpoints; interrupting (deleting a checkpoint) and resuming
// reproduces the uninterrupted artifacts exactly.
// ---------------------------------------------------------------------

fn real_plan() -> GridPlan {
    GridPlan {
        problem: ProblemSpec::Ackley,
        algos: vec![AlgorithmKind::RandomSearch, AlgorithmKind::Turbo],
        batches: vec![1, 2],
        runs: 2,
        profile: Profile::Smoke,
        minutes: Some(0.5),
    }
}

/// Raw serialized records, in canonical order. Bit-reproducible across
/// executions only for algorithms that never charge measured fit/acq
/// time (RandomSearch); GP algorithms carry wall-clock-measured
/// overhead in `fit_time`/`acq_time`, so use [`artifact_fingerprint`]
/// for them.
fn records_fingerprint(plan: &GridPlan, records: &pbo_bench::orchestrate::GridRecords) -> String {
    let mut out = String::new();
    for &q in &plan.batches {
        for &a in &plan.algos {
            for r in &records[&(a, q)] {
                out.push_str(&r.to_json_line());
                out.push('\n');
            }
        }
    }
    out
}

/// The bytes of the actual paper artifacts — final-value summaries
/// (Tables 4–6) and simulations-per-batch (Fig. 2/9) — which is what
/// the orchestrator promises to keep identical across worker counts
/// and interruptions. Excludes the wall-clock-measured overhead times.
fn artifact_fingerprint(plan: &GridPlan, records: &pbo_bench::orchestrate::GridRecords) -> String {
    let cells: Vec<Vec<pbo_core::stats::Summary>> = plan
        .batches
        .iter()
        .map(|&q| plan.algos.iter().map(|&a| report::summarize_final(&records[&(a, q)])).collect())
        .collect();
    let mut out = String::new();
    for row in report::benchmark_csv_rows(&plan.batches, &cells) {
        let line: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    for &a in &plan.algos {
        let per_q: Vec<Vec<pbo_core::record::RunRecord>> =
            plan.batches.iter().map(|&q| records[&(a, q)].clone()).collect();
        for (m, s) in report::evals_by_batch(&per_q) {
            out.push_str(&format!("{m:?},{s:?}\n"));
        }
    }
    out
}

/// The RandomSearch slice of a grid, serialized raw — these records
/// are fully virtual (no measured time) and must match bit-for-bit.
fn random_records_fingerprint(
    plan: &GridPlan,
    records: &pbo_bench::orchestrate::GridRecords,
) -> String {
    let narrowed = GridPlan { algos: vec![AlgorithmKind::RandomSearch], ..plan.clone() };
    records_fingerprint(&narrowed, records)
}

#[test]
fn worker_count_does_not_change_artifacts() {
    let plan = real_plan();
    let d1 = tmp_dir("jobs1");
    let d4 = tmp_dir("jobs4");
    let metrics = MetricsRegistry::new();

    let o1 = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 1, resume: false, dir: d1.clone(), trace: false },
        Some(&metrics),
    )
    .unwrap();
    let o4 = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 4, resume: false, dir: d4.clone(), trace: false },
        None,
    )
    .unwrap();
    assert_eq!(o1.executed, plan.tasks().len());
    assert_eq!(o4.executed, plan.tasks().len());
    assert_eq!(
        artifact_fingerprint(&plan, &o1.records),
        artifact_fingerprint(&plan, &o4.records),
        "tables/figures must be byte-identical for any worker count"
    );
    assert_eq!(
        random_records_fingerprint(&plan, &o1.records),
        random_records_fingerprint(&plan, &o4.records),
        "fully-virtual records must be bit-identical for any worker count"
    );

    // Metrics surfaced per cell and globally.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("orchestrator.runs_executed"), 8);
    assert_eq!(snap.counter("orchestrator.runs_resumed"), 0);
    assert_eq!(snap.counter("orchestrator.cell.ackley.turbo.q2.completed"), 2);
    assert_eq!(snap.counter("orchestrator.cell.ackley.random.q1.completed"), 2);

    let _ = std::fs::remove_dir_all(d1);
    let _ = std::fs::remove_dir_all(d4);
}

#[test]
fn interrupted_then_resumed_matches_uninterrupted() {
    let plan = real_plan();
    let full = tmp_dir("full");
    let interrupted = tmp_dir("interrupted");

    let reference = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 2, resume: false, dir: full.clone(), trace: false },
        None,
    )
    .unwrap();

    // "Interrupt": run everything, then delete two checkpoints as if
    // the campaign had been killed mid-flight.
    execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 2, resume: false, dir: interrupted.clone(), trace: false },
        None,
    )
    .unwrap();
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(interrupted.join("ackley"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    ckpts.sort();
    assert_eq!(ckpts.len(), 8);
    std::fs::remove_file(&ckpts[1]).unwrap();
    std::fs::remove_file(&ckpts[6]).unwrap();

    let resumed = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 2, resume: true, dir: interrupted.clone(), trace: false },
        None,
    )
    .unwrap();
    assert_eq!(resumed.executed, 2, "only the deleted runs re-execute");
    assert_eq!(resumed.resumed, 6);
    assert_eq!(
        artifact_fingerprint(&plan, &reference.records),
        artifact_fingerprint(&plan, &resumed.records),
        "resume must reproduce the uninterrupted campaign's artifacts byte-exactly"
    );
    assert_eq!(
        random_records_fingerprint(&plan, &reference.records),
        random_records_fingerprint(&plan, &resumed.records),
        "fully-virtual records must survive interruption bit-exactly"
    );

    // A corrupt checkpoint is re-run, not mis-read.
    std::fs::write(&ckpts[0], "{\"event\":\"checkpoint\"").unwrap();
    let healed = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 1, resume: true, dir: interrupted.clone(), trace: false },
        None,
    )
    .unwrap();
    assert_eq!(healed.executed, 1);
    assert_eq!(
        artifact_fingerprint(&plan, &reference.records),
        artifact_fingerprint(&plan, &healed.records),
    );

    let _ = std::fs::remove_dir_all(full);
    let _ = std::fs::remove_dir_all(interrupted);
}

#[test]
fn trace_option_writes_valid_event_streams_without_perturbing_runs() {
    let mut plan = real_plan();
    plan.algos = vec![AlgorithmKind::RandomSearch];
    plan.batches = vec![2];
    plan.runs = 1;
    let plain = tmp_dir("notrace");
    let traced = tmp_dir("trace");

    let a = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 1, resume: false, dir: plain.clone(), trace: false },
        None,
    )
    .unwrap();
    let b = execute_grid(
        &plan,
        &OrchestratorConfig { jobs: 1, resume: false, dir: traced.clone(), trace: true },
        None,
    )
    .unwrap();
    assert_eq!(
        records_fingerprint(&plan, &a.records),
        records_fingerprint(&plan, &b.records),
        "tracing must not perturb results"
    );

    let trace_files: Vec<PathBuf> = std::fs::read_dir(traced.join("ackley"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".trace.jsonl"))
        .collect();
    assert_eq!(trace_files.len(), 1);
    let body = std::fs::read_to_string(&trace_files[0]).unwrap();
    let mut names = Vec::new();
    for line in body.lines() {
        names.push(pbo_core::observe::jsonl::validate_line(line).unwrap());
    }
    assert_eq!(names.first().map(String::as_str), Some("run_started"));
    assert_eq!(names.last().map(String::as_str), Some("run_finished"));

    let _ = std::fs::remove_dir_all(plain);
    let _ = std::fs::remove_dir_all(traced);
}
