//! Table/figure formatting and CSV output.

use pbo_core::record::{mean_sd_trace, FaultCounters, RunRecord};
use pbo_core::stats::{summarize, welch_t_test, Summary};
use std::fmt::Write as _;
use std::path::Path;

/// Final objective values (native orientation) of a set of runs.
pub fn final_values(records: &[RunRecord]) -> Vec<f64> {
    records.iter().map(|r| r.best_y()).collect()
}

/// One-line robustness summary over a set of runs: aggregated fault
/// counters from the fault-tolerant evaluation pool. Returns `None`
/// when every run was fault-free (the usual clean-problem case), so
/// callers can omit the line entirely.
pub fn fault_summary(records: &[RunRecord]) -> Option<String> {
    let mut total = FaultCounters::default();
    for r in records {
        total.merge(&r.fault_totals());
    }
    if !total.any() {
        return None;
    }
    Some(format!(
        "faults: {} panics, {} NaN + {} Inf quarantined, {} stragglers, \
         {} timeouts, {} retries, {} imputed, {} dropped, {:.1} virtual s lost",
        total.panics,
        total.nan_quarantined,
        total.inf_quarantined,
        total.stragglers,
        total.timeouts,
        total.retries,
        total.imputed,
        total.dropped,
        total.virtual_secs_lost,
    ))
}

/// Summary of final values.
pub fn summarize_final(records: &[RunRecord]) -> Summary {
    summarize(&final_values(records))
}

/// Tables 4–6: rows = batch sizes, columns = algorithms, cells = mean
/// (sd) of the final best cost over the repetitions.
pub fn format_benchmark_table(
    title: &str,
    batch_sizes: &[usize],
    algo_names: &[&str],
    cells: &[Vec<Summary>], // [q_index][algo_index]
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:>8}", "n_batch");
    for a in algo_names {
        let _ = write!(out, " | {:>20}", a);
    }
    let _ = writeln!(out);
    for (qi, &q) in batch_sizes.iter().enumerate() {
        let _ = write!(out, "{q:>8}");
        for s in &cells[qi] {
            let _ = write!(out, " | {:>10.3} ±{:>7.3}", s.mean, s.sd);
        }
        let _ = writeln!(out);
    }
    out
}

/// CSV rows for the Tables 4–6 artifact: one row per (q, algorithm)
/// cell with the final-value summary, in grid order. Shared by the
/// repro binary and the golden aggregation test so the pinned bytes
/// exercise the production path.
pub fn benchmark_csv_rows(batch_sizes: &[usize], cells: &[Vec<Summary>]) -> Vec<Vec<f64>> {
    let mut rows = Vec::new();
    for (qi, &q) in batch_sizes.iter().enumerate() {
        for (ai, s) in cells[qi].iter().enumerate() {
            rows.push(vec![q as f64, ai as f64, s.mean, s.sd, s.min, s.max]);
        }
    }
    rows
}

/// Table 7: per batch size, rows = algorithms, columns =
/// min/mean/max/sd of the final profit.
pub fn format_table7(batch_sizes: &[usize], algo_names: &[&str], cells: &[Vec<Summary>]) -> String {
    let mut out = String::new();
    for (qi, &q) in batch_sizes.iter().enumerate() {
        let _ = writeln!(out, "# n_batch = {q}  (UPHES final profit, EUR)");
        let _ = writeln!(
            out,
            "{:<12} | {:>9} | {:>9} | {:>9} | {:>9}",
            "algorithm", "min", "mean", "max", "sd"
        );
        for (ai, a) in algo_names.iter().enumerate() {
            let s = &cells[qi][ai];
            let _ = writeln!(
                out,
                "{:<12} | {:>9.0} | {:>9.0} | {:>9.0} | {:>9.0}",
                a, s.min, s.mean, s.max, s.sd
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 2 / 9a: mean and sd of the number of simulations per batch
/// size for one algorithm.
pub fn evals_by_batch(records_per_q: &[Vec<RunRecord>]) -> Vec<(f64, f64)> {
    records_per_q
        .iter()
        .map(|recs| {
            let evals: Vec<f64> =
                recs.iter().map(|r| r.n_optimization_simulations() as f64).collect();
            let s = summarize(&evals);
            (s.mean, s.sd)
        })
        .collect()
}

/// Figure 9b: mean and sd of the number of cycles per batch size.
pub fn cycles_by_batch(records_per_q: &[Vec<RunRecord>]) -> Vec<(f64, f64)> {
    records_per_q
        .iter()
        .map(|recs| {
            let cycles: Vec<f64> = recs.iter().map(|r| r.n_cycles() as f64).collect();
            let s = summarize(&cycles);
            (s.mean, s.sd)
        })
        .collect()
}

/// Figures 3–7: mean/sd best-so-far trace (truncated to the shortest
/// run, as the paper does).
pub fn convergence_trace(records: &[RunRecord]) -> (Vec<f64>, Vec<f64>) {
    mean_sd_trace(records)
}

/// Figure 8: pairwise Welch p-values between algorithms' final values.
/// Returns the matrix `p[i][j]` (diagonal = 1).
pub fn pairwise_p_values(finals: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = finals.len();
    let mut p = vec![vec![1.0; n]; n];
    for i in 0..n {
        for j in 0..i {
            let (_, _, pv) = welch_t_test(&finals[i], &finals[j]);
            p[i][j] = pv;
            p[j][i] = pv;
        }
    }
    p
}

/// Render a p-value matrix as text (the paper's Fig. 8 heatmap, as
/// numbers).
pub fn format_p_matrix(algo_names: &[&str], p: &[Vec<f64>]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12}", "");
    for a in algo_names {
        let _ = write!(out, " | {:>10}", a);
    }
    let _ = writeln!(out);
    for (i, a) in algo_names.iter().enumerate() {
        let _ = write!(out, "{a:<12}");
        for j in 0..algo_names.len() {
            let _ = write!(out, " | {:>10.4}", p[i][j]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Write rows of floats as CSV with a header line.
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<f64>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut body = String::new();
    let _ = writeln!(body, "{header}");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(body, "{}", line.join(","));
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::record::CycleRecord;

    fn rec(best: f64, n_cycles: usize, q: usize) -> RunRecord {
        RunRecord {
            algorithm: "a".into(),
            problem: "p".into(),
            maximize: false,
            batch_size: q,
            seed: 0,
            doe_size: 1,
            best_x: vec![0.0],
            y_min: vec![best + 1.0, best],
            cycles: (0..n_cycles)
                .map(|c| CycleRecord {
                    cycle: c,
                    fit_time: 1.0,
                    acq_time: 1.0,
                    sim_time: 10.0,
                    n_evals: q,
                    best_y_min: best,
                    clock: 12.0 * (c + 1) as f64,
                    faults: Default::default(),
                })
                .collect(),
            final_clock: 12.0 * n_cycles as f64,
            doe_faults: Default::default(),
        }
    }

    #[test]
    fn evals_and_cycles_aggregation() {
        let per_q = vec![vec![rec(1.0, 5, 2), rec(2.0, 7, 2)]];
        let e = evals_by_batch(&per_q);
        // y_min has 2 entries, doe 1 → 1 optimization sim each.
        assert_eq!(e[0].0, 1.0);
        let c = cycles_by_batch(&per_q);
        assert_eq!(c[0].0, 6.0);
        assert!(c[0].1 > 0.0);
    }

    #[test]
    fn fault_summary_reports_only_when_faults_occurred() {
        let clean = rec(1.0, 2, 2);
        assert!(fault_summary(std::slice::from_ref(&clean)).is_none());
        let mut faulty = rec(1.0, 2, 2);
        faulty.cycles[0].faults.panics = 3;
        faulty.cycles[1].faults.retries = 4;
        faulty.doe_faults.virtual_secs_lost = 12.5;
        let line = fault_summary(&[clean, faulty]).expect("faults present");
        assert!(line.contains("3 panics"), "{line}");
        assert!(line.contains("4 retries"), "{line}");
        assert!(line.contains("12.5 virtual s lost"), "{line}");
    }

    #[test]
    fn p_matrix_is_symmetric_unit_diagonal() {
        let finals = vec![vec![1.0, 1.1, 0.9], vec![5.0, 5.1, 4.9], vec![1.0, 1.2, 0.8]];
        let p = pairwise_p_values(&finals);
        for i in 0..3 {
            assert_eq!(p[i][i], 1.0);
            for j in 0..3 {
                assert_eq!(p[i][j], p[j][i]);
            }
        }
        assert!(p[0][1] < 0.01);
        assert!(p[0][2] > 0.3);
    }

    #[test]
    fn table_formatting_contains_all_cells() {
        let s = summarize(&[1.0, 2.0]);
        let txt = format_benchmark_table("t", &[1, 2], &["x", "y"], &[vec![s, s], vec![s, s]]);
        assert!(txt.contains("n_batch"));
        assert_eq!(txt.lines().count(), 4);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("pbo-bench-test");
        let path = dir.join("t.csv");
        write_csv(&path, "a,b", &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("a,b\n1,2\n3,4\n"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
