//! Scoped-thread helpers for the larger dense kernels.
//!
//! The workspace deliberately avoids a global thread pool: the BO engine
//! owns its own worker pool for simulator evaluations, and linear-algebra
//! parallelism is short-lived fork/join over row blocks. Scoped threads
//! give data-race-free borrowing of the output buffer without `Arc`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work (in flop-ish units) below which spawning threads costs more than
/// it saves. Tuned conservatively; correctness does not depend on it.
const PAR_THRESHOLD: usize = 1 << 21;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set for the lifetime of every scoped worker thread spawned by this
    /// module. Workers report `num_threads() == 1`, so nested fan-outs
    /// (e.g. a multistart polished inside BSP-EGO's per-cell `par_map`)
    /// degrade to sequential execution instead of oversubscribing.
    /// Workers are fresh threads per scope, so the flag needs no reset.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a scoped worker thread spawned by one of
/// the fan-out helpers in this module.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

fn enter_parallel_region() {
    IN_PARALLEL_REGION.with(|c| c.set(true));
}

/// Override the number of worker threads used by the dense kernels
/// (0 = use `PBO_NUM_THREADS` or available parallelism). Mostly for
/// tests and benchmarks.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// `PBO_NUM_THREADS` environment override, parsed once per process.
fn env_threads() -> usize {
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("PBO_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Number of threads the kernels will fan out to.
///
/// Resolution order: nested-region guard (always 1 inside a worker),
/// then [`set_num_threads`], then the `PBO_NUM_THREADS` environment
/// variable, then `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    if in_parallel_region() {
        return 1;
    }
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Workers worth spawning for a fan-out of `work` flop-ish units: 1
/// below the spawn threshold, [`num_threads`] at or above it.
pub fn workers_for(work: usize) -> usize {
    if work < PAR_THRESHOLD {
        1
    } else {
        num_threads()
    }
}

/// Apply `f(i, row)` to each `width`-sized row of `out`, splitting rows
/// across scoped threads when `work` exceeds the parallel threshold.
///
/// `f` must be pure per row: rows are disjoint so no synchronisation is
/// needed. This is the row-block pattern the Rayon docs describe, done
/// with `std::thread::scope` so the crate carries no pool.
pub fn for_each_row_chunk<F>(out: &mut [f64], width: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if width == 0 || out.is_empty() {
        return;
    }
    debug_assert_eq!(out.len() % width, 0);
    let rows = out.len() / width;
    let threads = workers_for(work).min(rows);
    if threads <= 1 {
        for (i, row) in out.chunks_mut(width).enumerate() {
            f(i, row);
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, block) in out.chunks_mut(rows_per * width).enumerate() {
            let f = &f;
            s.spawn(move || {
                enter_parallel_region();
                let base = t * rows_per;
                for (k, row) in block.chunks_mut(width).enumerate() {
                    f(base + k, row);
                }
            });
        }
    });
}

/// Apply `f(i, row)` to each *variable-length* row of `out`, where row
/// `i` owns `out[offsets[i]..offsets[i + 1]]`, splitting rows across
/// scoped threads when `work` exceeds the parallel threshold.
///
/// This is the packed-triangular companion of
/// [`for_each_row_chunk`]: pair-major buffers (one ragged row per
/// training point, row `a` holding its `a` pairs `b < a`) stay
/// contiguous per row, so the same disjoint-chunk borrow argument
/// applies. Blocks are equal-row, so triangular layouts are imbalanced
/// by up to ~2x — acceptable for the short fork/join fan-outs used here.
pub fn for_each_ragged_row_chunk<F>(out: &mut [f64], offsets: &[usize], work: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if offsets.len() < 2 {
        return;
    }
    let rows = offsets.len() - 1;
    debug_assert_eq!(offsets[rows], out.len());
    let threads = workers_for(work).min(rows);
    if threads <= 1 {
        let mut rest = out;
        let mut consumed = offsets[0];
        for i in 0..rows {
            let (row, tail) = rest.split_at_mut(offsets[i + 1] - consumed);
            consumed = offsets[i + 1];
            f(i, row);
            rest = tail;
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut consumed = offsets[0];
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + rows_per).min(rows);
            let (block, tail) = rest.split_at_mut(offsets[r1] - consumed);
            consumed = offsets[r1];
            rest = tail;
            let f = &f;
            s.spawn(move || {
                enter_parallel_region();
                let mut at = 0;
                for i in r0..r1 {
                    let len = offsets[i + 1] - offsets[i];
                    f(i, &mut block[at..at + len]);
                    at += len;
                }
            });
            r0 = r1;
        }
    });
}

/// Parallel map over indices `0..n` collecting into a `Vec`.
///
/// Used for embarrassingly parallel per-point computations (posterior
/// predictions over candidate sets, per-sub-region acquisition in
/// BSP-EGO). Falls back to sequential execution for small `n`.
pub fn par_map<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= min_chunk {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return out;
    }
    let per = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, block) in out.chunks_mut(per).enumerate() {
            let f = &f;
            s.spawn(move || {
                enter_parallel_region();
                let base = t * per;
                for (k, slot) in block.iter_mut().enumerate() {
                    *slot = f(base + k);
                }
            });
        }
    });
    out
}

/// Dynamically scheduled parallel map over `0..n` with an **explicit**
/// worker count: workers pull the next index from a shared atomic
/// counter, so tasks of wildly different durations (e.g. whole
/// optimization runs in the bench orchestrator) balance instead of
/// being pinned to contiguous blocks as in [`par_map`].
///
/// The output is keyed by index — slot `i` always holds `f(i)` — so the
/// result is independent of the worker count and of scheduling order.
/// Workers run inside the parallel-region guard: nested kernel fan-outs
/// (GP fits, multistarts) see `num_threads() == 1` and stay sequential,
/// so an `N`-worker orchestration neither oversubscribes the machine
/// nor perturbs the bit-exact per-run arithmetic.
///
/// A panic in `f` propagates to the caller once the scope joins.
pub fn par_map_workers<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let f = &f;
            s.spawn(move || {
                enter_parallel_region();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(v);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_cover_all_rows_sequential() {
        let mut out = vec![0.0; 12];
        for_each_row_chunk(&mut out, 3, 0, |i, row| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 10 + j) as f64;
            }
        });
        assert_eq!(out[0], 0.0);
        assert_eq!(out[3], 10.0);
        assert_eq!(out[11], 32.0);
    }

    #[test]
    fn row_chunks_parallel_path_matches_sequential() {
        // Force the parallel path by passing huge work.
        let mut seq = vec![0.0; 64 * 8];
        let mut par = vec![0.0; 64 * 8];
        let fill = |i: usize, row: &mut [f64]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 100 + j) as f64;
            }
        };
        for_each_row_chunk(&mut seq, 8, 0, fill);
        for_each_row_chunk(&mut par, 8, usize::MAX, fill);
        assert_eq!(seq, par);
    }

    #[test]
    fn ragged_rows_cover_all_rows_both_paths() {
        // Triangular layout: row i owns i entries (row 0 is empty).
        let rows = 9;
        let mut offsets = vec![0usize];
        for i in 0..rows {
            offsets.push(offsets[i] + i);
        }
        let total = *offsets.last().unwrap();
        let fill = |i: usize, row: &mut [f64]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 100 + j) as f64;
            }
        };
        let mut seq = vec![-1.0; total];
        let mut par = vec![-1.0; total];
        for_each_ragged_row_chunk(&mut seq, &offsets, 0, fill);
        for_each_ragged_row_chunk(&mut par, &offsets, usize::MAX, fill);
        assert_eq!(seq, par);
        assert_eq!(seq[offsets[5]], 500.0);
        assert_eq!(seq[offsets[6] - 1], 504.0);
        assert!(!seq.contains(&-1.0));
    }

    #[test]
    fn par_map_matches_serial() {
        let a = par_map(100, 0, |i| i * i);
        let b: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_empty() {
        let a: Vec<f64> = par_map(0, 4, |_| 1.0);
        assert!(a.is_empty());
    }

    /// The thread-count override is process-global; tests that touch it
    /// serialize here so they can't observe each other's settings.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn thread_override_roundtrip() {
        let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn workers_report_single_thread_inside_region() {
        let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        // Force the parallel path; every worker must see itself as the
        // only thread so nested fan-outs stay sequential.
        let flags = par_map(64, 0, |_| (in_parallel_region(), num_threads()));
        set_num_threads(0);
        assert!(flags.iter().all(|&(inside, n)| inside && n == 1));
        // The caller's thread is unaffected once the scope ends.
        assert!(!in_parallel_region());
    }

    #[test]
    fn par_map_workers_matches_serial_for_any_worker_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_workers(37, workers, |i| i * i), expect, "workers={workers}");
        }
        let empty: Vec<usize> = par_map_workers(0, 4, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_map_workers_nested_fanouts_stay_sequential() {
        let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let flags = par_map_workers(16, 4, |_| (in_parallel_region(), num_threads()));
        set_num_threads(0);
        assert!(flags.iter().all(|&(inside, n)| inside && n == 1));
        assert!(!in_parallel_region());
    }

    #[test]
    fn nested_par_map_degrades_to_serial_and_matches() {
        let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let nested = par_map(8, 0, |i| {
            let inner = par_map(16, 0, |j| (i * 16 + j) as f64);
            inner.iter().sum::<f64>()
        });
        set_num_threads(0);
        let expect: Vec<f64> =
            (0..8).map(|i| (0..16).map(|j| (i * 16 + j) as f64).sum()).collect();
        assert_eq!(nested, expect);
    }
}
