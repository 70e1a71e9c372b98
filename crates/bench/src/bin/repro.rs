#![allow(clippy::needless_range_loop)]

//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <artifact> [--profile fast|paper|smoke] [--runs N]
//!                  [--batches 1,2,4] [--minutes M] [--out DIR]
//!                  [--jobs N] [--resume] [--trace]
//!
//! artifacts: table1 table2 table3 table4 table5 table6 table7
//!            fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!            baseline calibrate all
//! ```
//!
//! Replication grids run through `pbo_bench::orchestrate`: `--jobs N`
//! workers, one checkpoint per completed run under `<out>/checkpoints`,
//! and `--resume` to continue an interrupted campaign. Artifacts are
//! byte-identical for any `--jobs` value and any interruption point.

use pbo_bench::cli::{self, Opts};
use pbo_bench::grid::{run_seed, ProblemSpec, UPHES_DAY_SEED};
use pbo_bench::orchestrate::{execute_grid, GridPlan, GridRecords, OrchestratorConfig};
use pbo_bench::profiles::Profile;
use pbo_bench::report;
use pbo_core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo_core::budget::Stopping;
use pbo_core::observe::metrics::MetricsRegistry;
use pbo_core::observe::NullObserver;
use pbo_core::record::RunRecord;
use pbo_problems::Problem;
use std::path::Path;

fn algo_names(set: &[AlgorithmKind]) -> Vec<&'static str> {
    set.iter().map(|a| a.name()).collect()
}

/// Write a CSV or exit with a clean error (no panicking `.expect`).
fn save_csv(path: &Path, header: &str, rows: &[Vec<f64>]) {
    if let Err(e) = report::write_csv(path, header, rows) {
        eprintln!("repro: failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Run the full (algorithm × batch) grid for one problem through the
/// orchestrator, reusing the same seeds across algorithms.
fn run_grid(spec: ProblemSpec, opts: &Opts) -> (Vec<usize>, Vec<AlgorithmKind>, GridRecords) {
    let batches = opts.batches.clone().unwrap_or_else(|| opts.profile.batch_sizes());
    let algos = AlgorithmKind::paper_set().to_vec();
    let runs = opts.runs.unwrap_or_else(|| opts.profile.runs());
    let plan = GridPlan {
        problem: spec,
        algos: algos.clone(),
        batches: batches.clone(),
        runs,
        profile: opts.profile,
        minutes: opts.minutes,
    };
    let cfg = OrchestratorConfig {
        jobs: opts.jobs,
        resume: opts.resume,
        dir: opts.out.join("checkpoints"),
        trace: opts.trace,
    };
    let metrics = MetricsRegistry::new();
    let outcome = execute_grid(&plan, &cfg, Some(&metrics)).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[{}] grid complete: {} runs executed, {} resumed (jobs = {})",
        spec.name(),
        outcome.executed,
        outcome.resumed,
        opts.jobs
    );
    // Deterministic per-cell summaries from the folded records.
    for &q in &batches {
        for &algo in &algos {
            let recs = &outcome.records[&(algo, q)];
            let mean_cycles: f64 =
                recs.iter().map(|r| r.n_cycles() as f64).sum::<f64>() / recs.len() as f64;
            eprintln!(
                "[{}] q={q} {}: {} runs, {:.0} cycles avg",
                spec.name(),
                algo.name(),
                recs.len(),
                mean_cycles
            );
            if let Some(line) = report::fault_summary(recs) {
                eprintln!("[{}] q={q} {}: {line}", spec.name(), algo.name());
            }
        }
    }
    (batches, algos, outcome.records)
}

fn benchmark_table(spec: ProblemSpec, title: &str, opts: &Opts) {
    let (batches, algos, map) = run_grid(spec, opts);
    let cells: Vec<Vec<pbo_core::stats::Summary>> = batches
        .iter()
        .map(|&q| algos.iter().map(|&a| report::summarize_final(&map[&(a, q)])).collect())
        .collect();
    let names = algo_names(&algos);
    println!("{}", report::format_benchmark_table(title, &batches, &names, &cells));
    let rows = report::benchmark_csv_rows(&batches, &cells);
    save_csv(
        &opts.out.join(format!("{}_final.csv", spec.name())),
        "q,algo_index,mean,sd,min,max",
        &rows,
    );
    write_fig2_series(spec, &batches, &algos, &map, opts);
}

/// Per-problem evaluation counts (Fig. 2a–c share this with Fig. 9a).
fn write_fig2_series(
    spec: ProblemSpec,
    batches: &[usize],
    algos: &[AlgorithmKind],
    map: &GridRecords,
    opts: &Opts,
) {
    println!("## evaluations in budget ({})", spec.name());
    println!("{:>8} {:>12} {:>14} {:>10}", "q", "algorithm", "sims(mean)", "sd");
    let mut rows = Vec::new();
    for (ai, &a) in algos.iter().enumerate() {
        let per_q: Vec<Vec<RunRecord>> = batches.iter().map(|&q| map[&(a, q)].clone()).collect();
        for (qi, (mean, sd)) in report::evals_by_batch(&per_q).into_iter().enumerate() {
            println!("{:>8} {:>12} {:>14.1} {:>10.1}", batches[qi], a.name(), mean, sd);
            rows.push(vec![batches[qi] as f64, ai as f64, mean, sd]);
        }
    }
    save_csv(
        &opts.out.join(format!("{}_evals_by_batch.csv", spec.name())),
        "q,algo_index,sims_mean,sims_sd",
        &rows,
    );
}

fn uphes_artifacts(opts: &Opts, want: &str) {
    let (batches, algos, map) = run_grid(ProblemSpec::Uphes, opts);
    let names = algo_names(&algos);

    if want == "table7" || want == "all" {
        let cells: Vec<Vec<pbo_core::stats::Summary>> = batches
            .iter()
            .map(|&q| algos.iter().map(|&a| report::summarize_final(&map[&(a, q)])).collect())
            .collect();
        println!("{}", report::format_table7(&batches, &names, &cells));
        let mut rows = Vec::new();
        for (qi, &q) in batches.iter().enumerate() {
            for (ai, _) in algos.iter().enumerate() {
                let s = &cells[qi][ai];
                rows.push(vec![q as f64, ai as f64, s.min, s.mean, s.max, s.sd]);
            }
        }
        save_csv(&opts.out.join("table7_uphes.csv"), "q,algo_index,min,mean,max,sd", &rows);
    }

    // Figs. 3–7: convergence traces for q = 1, 2, 4, 8, 16.
    let fig_for_q = |q: usize| match q {
        1 => "fig3",
        2 => "fig4",
        4 => "fig5",
        8 => "fig6",
        16 => "fig7",
        _ => "figX",
    };
    for &q in &batches {
        let fig = fig_for_q(q);
        if want == fig || want == "all" {
            println!("## {fig}: UPHES convergence, q = {q} (profit vs #sims)");
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for (ai, &a) in algos.iter().enumerate() {
                let (mean, sd) = report::convergence_trace(&map[&(a, q)]);
                println!(
                    "{:>12}: start {:>8.0} -> end {:>8.0} (±{:.0}) over {} sims",
                    a.name(),
                    mean.first().copied().unwrap_or(f64::NAN),
                    mean.last().copied().unwrap_or(f64::NAN),
                    sd.last().copied().unwrap_or(f64::NAN),
                    mean.len()
                );
                for (i, (m, s)) in mean.iter().zip(&sd).enumerate() {
                    rows.push(vec![ai as f64, i as f64, *m, *s]);
                }
            }
            save_csv(
                &opts.out.join(format!("{fig}_uphes_q{q}_trace.csv")),
                "algo_index,eval,profit_mean,profit_sd",
                &rows,
            );
        }
    }

    if want == "fig8" || want == "all" {
        println!("## fig8: pairwise Welch t-test p-values (UPHES final profits)");
        for &q in &batches {
            let finals: Vec<Vec<f64>> =
                algos.iter().map(|&a| report::final_values(&map[&(a, q)])).collect();
            let p = report::pairwise_p_values(&finals);
            println!("q = {q}");
            println!("{}", report::format_p_matrix(&names, &p));
            let mut rows = Vec::new();
            for i in 0..p.len() {
                for j in 0..p.len() {
                    rows.push(vec![q as f64, i as f64, j as f64, p[i][j]]);
                }
            }
            save_csv(&opts.out.join(format!("fig8_pvalues_q{q}.csv")), "q,algo_i,algo_j,p", &rows);
        }
    }

    if want == "fig9" || want == "all" {
        println!("## fig9: scalability (UPHES)");
        println!("{:>8} {:>12} {:>12} {:>12}", "q", "algorithm", "sims", "cycles");
        let mut rows = Vec::new();
        for (ai, &a) in algos.iter().enumerate() {
            let per_q: Vec<Vec<RunRecord>> =
                batches.iter().map(|&q| map[&(a, q)].clone()).collect();
            let sims = report::evals_by_batch(&per_q);
            let cycles = report::cycles_by_batch(&per_q);
            for (qi, &q) in batches.iter().enumerate() {
                println!("{:>8} {:>12} {:>12.1} {:>12.1}", q, a.name(), sims[qi].0, cycles[qi].0);
                rows.push(vec![
                    q as f64,
                    ai as f64,
                    sims[qi].0,
                    sims[qi].1,
                    cycles[qi].0,
                    cycles[qi].1,
                ]);
            }
        }
        save_csv(
            &opts.out.join("fig9_scalability.csv"),
            "q,algo_index,sims_mean,sims_sd,cycles_mean,cycles_sd",
            &rows,
        );
    }
}

fn static_tables(which: &str) {
    match which {
        "table1" => {
            println!("# Table 1: benchmark definitions (12-d instances)");
            for f in pbo_problems::SyntheticFn::paper_suite() {
                println!(
                    "{:<16} domain [{}, {}]^12  f_min = {}",
                    f.name(),
                    f.lower()[0],
                    f.upper()[0],
                    f.optimum().unwrap()
                );
                let v = f.eval(&f.minimizer());
                println!("  check: f(x*) = {v:.3e}");
            }
        }
        "table2" => {
            println!("# Table 2: budget allocation");
            println!(
                "{:>8} | {:>24} | {:>24}",
                "n_batch", "initial sample (sims)", "sim budget (min)"
            );
            for q in [1usize, 2, 4, 8, 16] {
                let b = pbo_core::budget::Budget::paper(q);
                let mins = match b.stopping {
                    Stopping::VirtualTime(t) => t / 60.0,
                    Stopping::Cycles(_) => f64::NAN,
                };
                println!("{:>8} | {:>24} | {:>24}", q, b.initial_samples, mins);
            }
        }
        "table3" => {
            println!("# Table 3: acquisition function per algorithm and batch size");
            println!(
                "{:>8} | {:>8} | {:>12} | {:>10} | {:>14} | {:>8}",
                "n_batch", "turbo", "mc-q-ego", "kb-q-ego", "mic-q-ego", "bsp-ego"
            );
            for q in [1usize, 2, 4, 8, 16] {
                let multi = if q == 1 { "EI" } else { "qEI" };
                let mic = if q == 1 { "EI" } else { "EI/UCB (50%)" };
                println!(
                    "{:>8} | {:>8} | {:>12} | {:>10} | {:>14} | {:>8}",
                    q, multi, multi, "EI", mic, "EI"
                );
            }
        }
        _ => unreachable!(),
    }
}

fn baseline(opts: &Opts) {
    // §4: best of ~12 000 uniform random samples on the UPHES problem.
    let n = if opts.profile == Profile::Smoke { 1_000 } else { 12_000 };
    let p = pbo_problems::UphesProblem::maizeret(UPHES_DAY_SEED);
    let r = pbo_problems::random_search::random_search(&p, n, 99);
    println!("# §4 random baseline: best of {n} uniform samples");
    println!("best expected profit = {:.0} EUR", r.value);
    let rows: Vec<Vec<f64>> =
        r.trace.iter().enumerate().step_by(50).map(|(i, v)| vec![i as f64, *v]).collect();
    save_csv(&opts.out.join("baseline_random.csv"), "eval,best_profit", &rows);
}

fn calibrate(opts: &Opts) {
    // Sanity-check OVERHEAD_SCALE: a q=1 run should complete on the
    // order of 100 cycles (Fig. 9b shows ~105-115 for TuRBO, ~95-105
    // for the q-EGO family).
    println!("# calibration: cycles in 20 virtual minutes at q = 1");
    let problem = ProblemSpec::Ackley.build();
    let cfg = opts.profile.algo_config();
    for algo in [AlgorithmKind::Turbo, AlgorithmKind::KbQEgo, AlgorithmKind::McQEgo] {
        let budget = opts.profile.budget(1);
        let t0 = std::time::Instant::now();
        let r = run_algorithm_observed(
            algo,
            problem.as_ref(),
            &budget,
            cfg.clone(),
            4242,
            NullObserver,
        )
        .expect("profile configurations are valid");
        println!(
            "{:<10} -> {:>4} cycles ({:.1}s wall), time split fit/acq/sim = {:.0}/{:.0}/{:.0} s",
            algo.name(),
            r.n_cycles(),
            t0.elapsed().as_secs_f64(),
            r.time_split().0,
            r.time_split().1,
            r.time_split().2,
        );
    }
}

/// Ablation (DESIGN.md §5): KB fantasy value — posterior mean vs the
/// two constant liars — on Ackley at q = 8, where batch diversity
/// matters most.
fn ablation_fantasy(opts: &Opts) {
    use pbo_core::engine::FantasyKind;
    let problem = ProblemSpec::Ackley.build();
    let runs = opts.runs.unwrap_or(3);
    let q = 8;
    let budget = opts.profile.budget(q);
    println!("# ablation: KB fantasy value (Ackley-12d, q = {q}, {runs} runs)");
    println!("{:<18} | {:>10} | {:>10} | {:>8}", "fantasy", "mean", "sd", "cycles");
    for (name, kind) in [
        ("posterior-mean", FantasyKind::PosteriorMean),
        ("constant-liar-min", FantasyKind::ConstantLiarMin),
        ("constant-liar-max", FantasyKind::ConstantLiarMax),
    ] {
        let mut cfg = opts.profile.algo_config();
        cfg.acq.kb_fantasy = kind;
        let recs: Vec<RunRecord> = (0..runs)
            .map(|r| {
                run_algorithm_observed(
                    AlgorithmKind::KbQEgo,
                    problem.as_ref(),
                    &budget,
                    cfg.clone(),
                    run_seed(ProblemSpec::Ackley, q, r),
                    NullObserver,
                )
                .expect("profile configurations are valid")
            })
            .collect();
        let s = report::summarize_final(&recs);
        let cycles: f64 = recs.iter().map(|r| r.n_cycles() as f64).sum::<f64>() / runs as f64;
        println!("{name:<18} | {:>10.3} | {:>10.3} | {cycles:>8.0}", s.mean, s.sd);
    }
}

/// Extension algorithms (paper §4/§5 future work) vs their parents.
fn extensions(opts: &Opts) {
    let problem = ProblemSpec::Schwefel.build();
    let runs = opts.runs.unwrap_or(3);
    let q = 4;
    let budget = opts.profile.budget(q);
    let cfg = opts.profile.algo_config();
    println!("# extensions: Schwefel-12d, q = {q}, {runs} runs");
    println!(
        "{:<12} | {:>10} | {:>10} | {:>8} | {:>8}",
        "algorithm", "mean", "sd", "cycles", "sims"
    );
    let mut kinds = vec![AlgorithmKind::Turbo, AlgorithmKind::MicQEgo];
    kinds.extend(AlgorithmKind::extension_set());
    let mut finals: Vec<Vec<f64>> = Vec::with_capacity(kinds.len());
    for &kind in &kinds {
        let recs: Vec<RunRecord> = (0..runs)
            .map(|r| {
                run_algorithm_observed(
                    kind,
                    problem.as_ref(),
                    &budget,
                    cfg.clone(),
                    run_seed(ProblemSpec::Schwefel, q, r),
                    NullObserver,
                )
                .expect("profile configurations are valid")
            })
            .collect();
        let s = report::summarize_final(&recs);
        let cycles: f64 = recs.iter().map(|r| r.n_cycles() as f64).sum::<f64>() / runs as f64;
        let sims: f64 = recs.iter().map(|r| r.n_simulations() as f64).sum::<f64>() / runs as f64;
        println!(
            "{:<12} | {:>10.1} | {:>10.1} | {cycles:>8.0} | {sims:>8.0}",
            kind.name(),
            s.mean,
            s.sd
        );
        finals.push(report::final_values(&recs));
    }
    // Extensions vs incumbents, with the same Welch machinery as Fig 8.
    println!("# pairwise Welch t-test p-values (final values)");
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    let p = report::pairwise_p_values(&finals);
    println!("{}", report::format_p_matrix(&names, &p));
}

/// Artifacts that write CSV output (and therefore need `--out`).
fn writes_output(artifact: &str) -> bool {
    matches!(
        artifact,
        "table4"
            | "table5"
            | "table6"
            | "table7"
            | "fig2"
            | "fig3"
            | "fig4"
            | "fig5"
            | "fig6"
            | "fig7"
            | "fig8"
            | "fig9"
            | "uphes"
            | "baseline"
            | "all"
    )
}

fn usage_exit(code: i32) -> ! {
    eprintln!("{}", cli::USAGE);
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro: {e}");
            usage_exit(2);
        }
    };
    if writes_output(&opts.artifact) {
        if let Err(e) = cli::prepare_out_dir(&opts.out) {
            eprintln!("repro: {e}");
            std::process::exit(1);
        }
    }
    match opts.artifact.as_str() {
        "table1" | "table2" | "table3" => static_tables(&opts.artifact),
        "table4" => {
            benchmark_table(ProblemSpec::Rosenbrock, "Table 4: Rosenbrock final cost", &opts)
        }
        "table5" => benchmark_table(ProblemSpec::Ackley, "Table 5: Ackley final cost", &opts),
        "table6" => benchmark_table(ProblemSpec::Schwefel, "Table 6: Schwefel final cost", &opts),
        "table7" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9" => {
            uphes_artifacts(&opts, &opts.artifact)
        }
        // One UPHES grid, every UPHES artifact (Table 7, Figs. 3–9).
        "uphes" => uphes_artifacts(&opts, "all"),
        "fig2" => {
            for spec in [ProblemSpec::Rosenbrock, ProblemSpec::Ackley, ProblemSpec::Schwefel] {
                let (batches, algos, map) = run_grid(spec, &opts);
                write_fig2_series(spec, &batches, &algos, &map, &opts);
            }
        }
        "baseline" => baseline(&opts),
        "calibrate" => calibrate(&opts),
        "ablation" => ablation_fantasy(&opts),
        "extensions" => extensions(&opts),
        "all" => {
            static_tables("table1");
            static_tables("table2");
            static_tables("table3");
            benchmark_table(ProblemSpec::Rosenbrock, "Table 4: Rosenbrock final cost", &opts);
            benchmark_table(ProblemSpec::Ackley, "Table 5: Ackley final cost", &opts);
            benchmark_table(ProblemSpec::Schwefel, "Table 6: Schwefel final cost", &opts);
            uphes_artifacts(&opts, "all");
            baseline(&opts);
        }
        unknown => {
            if unknown != "help" {
                eprintln!("repro: unknown artifact '{unknown}'");
            }
            usage_exit(2);
        }
    }
}
