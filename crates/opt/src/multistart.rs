//! Multi-start driver for the inner optimizers.
//!
//! BoTorch's `optimize_acqf` evaluates a raw-sample batch, keeps the best
//! `num_restarts` as initial conditions and polishes each with L-BFGS-B.
//! This module implements the same recipe: Sobol raw candidates scored by
//! the cheap objective value, top-k selection (plus caller warm starts),
//! gradient-based polishing, best-of.
//!
//! Both phases fan out over `pbo_linalg::parallel` scoped threads while
//! staying **bit-identical to the serial path for any thread count**:
//!
//! - raw scoring is batched in fixed `SCORE_BLOCK`-sized blocks, so the
//!   per-block arithmetic (one `BatchObjective::value_batch` call each)
//!   does not depend on how blocks are distributed over threads;
//! - candidate selection ranks by the total order `(value, generation
//!   index)`, which a stable sort on value alone also realises — ties
//!   cannot reorder under chunking;
//! - each polish is an independent deterministic local run, and the
//!   winner is reduced by the total order `(value, start index)` — the
//!   exact strict-`<`, earliest-wins rule of a serial left fold.

use crate::lbfgs::{self, LbfgsConfig};
use crate::neldermead::{self, NelderMeadConfig};
use crate::{BatchObjective, Bounds, OptResult};
use pbo_linalg::parallel;
use pbo_sampling::sobol::Sobol;

/// Fixed raw-scoring block size. Scoring is performed one
/// `value_batch` call per block whatever the thread count, so results
/// cannot depend on the parallel chunking. 32 points amortize a batched
/// GP prediction nicely while keeping the fan-out granular.
const SCORE_BLOCK: usize = 32;

/// Cap on Sobol backfill when raw candidates score non-finite: at most
/// this many extra batches of `raw_samples` draws beyond the original.
const BACKFILL_FACTOR: usize = 4;

/// Configuration of the multistart search.
#[derive(Debug, Clone)]
pub struct MultistartConfig {
    /// Raw Sobol candidates scored before polishing.
    pub raw_samples: usize,
    /// Local polishes performed (top-k of the raw scores + warm starts).
    pub restarts: usize,
    /// Local optimizer settings.
    pub lbfgs: LbfgsConfig,
    /// Seed for the scrambled Sobol raw batch.
    pub seed: u64,
}

impl Default for MultistartConfig {
    fn default() -> Self {
        MultistartConfig {
            raw_samples: 128,
            restarts: 8,
            lbfgs: LbfgsConfig::default(),
            seed: 0,
        }
    }
}

/// Draw `count` Sobol candidates (appended flat to `xs`) and score them
/// into `vals` in fixed-size blocks fanned out over scoped threads.
/// Generation stays serial (one Sobol stream); only scoring is parallel,
/// and the block boundaries are independent of the thread count.
fn draw_and_score<O: BatchObjective + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    sobol: &mut Sobol,
    count: usize,
    xs: &mut Vec<f64>,
    vals: &mut Vec<f64>,
) {
    if count == 0 {
        return;
    }
    let dim = bounds.dim();
    let base = vals.len();
    xs.reserve(count * dim);
    for _ in 0..count {
        let x = bounds.from_unit(&sobol.next_point());
        xs.extend_from_slice(&x);
    }
    let new_xs = &xs[base * dim..];
    let blocks = count.div_ceil(SCORE_BLOCK);
    let scored: Vec<Vec<f64>> = parallel::par_map(blocks, 1, |b| {
        let lo = b * SCORE_BLOCK;
        let hi = ((b + 1) * SCORE_BLOCK).min(count);
        let mut out = vec![0.0; hi - lo];
        obj.value_batch(&new_xs[lo * dim..hi * dim], &mut out);
        out
    });
    vals.reserve(count);
    for block in scored {
        vals.extend_from_slice(&block);
    }
}

/// Shared start-selection recipe: score `raw_samples` Sobol candidates
/// (backfilling when some score non-finite), rank the finite ones by
/// `(value, generation index)`, and return the clamped warm starts plus
/// the top picks, along with the evaluation count and the restart
/// shortfall that survived backfill.
fn select_starts<O: BatchObjective + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    warm_starts: &[Vec<f64>],
    restarts: usize,
    raw_samples: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, usize, usize) {
    let dim = bounds.dim();
    let mut sobol = Sobol::scrambled(dim, seed);
    let mut xs: Vec<f64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut evals = 0usize;

    // How many raw-derived starts this configuration can ask for: the
    // restart count, but never more than the configured raw batch (a
    // caller asking for 0 raw samples gets 0 raw starts, as before).
    let target = restarts.min(raw_samples);

    draw_and_score(obj, bounds, &mut sobol, raw_samples, &mut xs, &mut vals);
    evals += raw_samples;
    let mut finite = vals.iter().filter(|v| v.is_finite()).count();

    // Backfill: non-finite raw scores (e.g. quarantined regions under
    // fault injection) would silently shrink the restart pool. Keep
    // drawing from the *same* Sobol stream until the pool is full or the
    // backfill budget is spent.
    let max_total = raw_samples.saturating_mul(1 + BACKFILL_FACTOR);
    while finite < target && vals.len() < max_total {
        let draw = raw_samples.min(max_total - vals.len());
        let before = vals.len();
        draw_and_score(obj, bounds, &mut sobol, draw, &mut xs, &mut vals);
        evals += draw;
        finite += vals[before..].iter().filter(|v| v.is_finite()).count();
    }
    let shortfall = target - finite.min(target);

    // Total order (value, generation index): equal values keep Sobol
    // generation order, exactly like the stable sort the serial driver
    // historically used.
    let mut order: Vec<usize> = (0..vals.len()).filter(|&i| vals[i].is_finite()).collect();
    order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]).then(a.cmp(&b)));

    let mut starts: Vec<Vec<f64>> = Vec::with_capacity(warm_starts.len() + target);
    for w in warm_starts {
        let mut w = w.clone();
        bounds.clamp(&mut w);
        starts.push(w);
    }
    starts.extend(order.iter().take(target).map(|&i| xs[i * dim..(i + 1) * dim].to_vec()));
    if starts.is_empty() {
        starts.push(bounds.center());
    }
    (starts, evals, shortfall)
}

/// Fold polished results down to the winner by the total order
/// `(value, start index)` — non-finite values lose to everything. This
/// matches a serial strict-`<` left fold bit for bit, so the reduction
/// is independent of how the polishes were scheduled.
fn reduce_best(results: Vec<Option<OptResult>>, evals: &mut usize, iters: &mut usize) -> Option<OptResult> {
    let mut best: Option<OptResult> = None;
    for r in results.into_iter() {
        let r = r.expect("every polish yields a result");
        *evals += r.evals;
        *iters += r.iters;
        if r.value.is_finite() && best.as_ref().is_none_or(|b| r.value < b.value) {
            best = Some(r);
        }
    }
    best
}

/// Minimize with Sobol raw sampling + L-BFGS polishing.
///
/// `warm_starts` are always polished in addition to the raw top-k (the
/// acquisition loop passes the incumbent and the previous cycle's
/// candidate here). Raw scoring and polishing both fan out over
/// `pbo_linalg::parallel` scoped threads; the result is bit-identical
/// for any thread count (see the module docs for the reduction rules).
/// `OptResult::restart_shortfall` reports how many requested raw-derived
/// restarts could not be filled with finite-scoring candidates even
/// after Sobol backfill.
pub fn minimize_multistart<O: BatchObjective + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    warm_starts: &[Vec<f64>],
    cfg: &MultistartConfig,
) -> OptResult {
    let (starts, mut evals, shortfall) =
        select_starts(obj, bounds, warm_starts, cfg.restarts, cfg.raw_samples, cfg.seed);

    let results: Vec<Option<OptResult>> = parallel::par_map(starts.len(), 1, |i| {
        Some(lbfgs::minimize(obj, bounds, &starts[i], &cfg.lbfgs))
    });
    let mut total_iters = 0;
    let best = reduce_best(results, &mut evals, &mut total_iters);

    let mut out = best.unwrap_or_else(|| {
        let center = bounds.center();
        let value = obj.value(&center);
        evals += 1;
        OptResult { x: center, value, evals, iters: 0, converged: false, restart_shortfall: 0 }
    });
    out.evals = evals;
    out.iters = total_iters;
    out.restart_shortfall = shortfall;
    out
}

/// Derivative-free multistart (Nelder–Mead polishing); same raw-sample
/// recipe for objectives without trustworthy gradients, with the same
/// thread-count-invariant parallel fan-out and Sobol backfill.
pub fn minimize_multistart_df(
    f: &(dyn Fn(&[f64]) -> f64 + Sync),
    bounds: &Bounds,
    warm_starts: &[Vec<f64>],
    restarts: usize,
    raw_samples: usize,
    seed: u64,
    nm: &NelderMeadConfig,
) -> OptResult {
    struct DfObjective<'a> {
        f: &'a (dyn Fn(&[f64]) -> f64 + Sync),
        dim: usize,
    }
    impl crate::GradObjective for DfObjective<'_> {
        fn dim(&self) -> usize {
            self.dim
        }
        fn value(&self, x: &[f64]) -> f64 {
            (self.f)(x)
        }
        fn value_grad(&self, _x: &[f64]) -> (f64, Vec<f64>) {
            unreachable!("derivative-free multistart never requests gradients")
        }
    }
    impl BatchObjective for DfObjective<'_> {}

    let obj = DfObjective { f, dim: bounds.dim() };
    let (starts, mut evals, shortfall) =
        select_starts(&obj, bounds, warm_starts, restarts, raw_samples, seed);

    let results: Vec<Option<OptResult>> =
        parallel::par_map(starts.len(), 1, |i| Some(neldermead::minimize(f, bounds, &starts[i], nm)));
    let mut total_iters = 0;
    let best = reduce_best(results, &mut evals, &mut total_iters);

    let mut out = best.unwrap_or_else(|| {
        let center = bounds.center();
        let value = f(&center);
        evals += 1;
        OptResult { x: center, value, evals, iters: 0, converged: false, restart_shortfall: 0 }
    });
    out.evals = evals;
    out.restart_shortfall = shortfall;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnGradObjective;
    use crate::GradObjective;

    /// Two-basin function: local minimum 0.1 at x=-0.5, global 0 at x=0.7.
    fn two_basins() -> impl BatchObjective {
        let f = |x: &[f64]| {
            let a = (x[0] + 0.5).powi(2) + 0.1;
            let b = 4.0 * (x[0] - 0.7).powi(2);
            a.min(b)
        };
        FnGradObjective::new(1, f, move |x: &[f64]| {
            let a = (x[0] + 0.5).powi(2) + 0.1;
            let b = 4.0 * (x[0] - 0.7).powi(2);
            let g = if a < b { 2.0 * (x[0] + 0.5) } else { 8.0 * (x[0] - 0.7) };
            (a.min(b), vec![g])
        })
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        let obj = two_basins();
        let b = Bounds::cube(1, -2.0, 2.0);
        // Warm start in the wrong basin; Sobol raw samples find the right one.
        let r = minimize_multistart(&obj, &b, &[vec![-0.5]], &MultistartConfig::default());
        assert!((r.x[0] - 0.7).abs() < 1e-3, "got {:?}", r.x);
        assert!(r.value < 1e-5);
        assert_eq!(r.restart_shortfall, 0);
    }

    #[test]
    fn zero_restarts_still_polishes_warm_starts() {
        let obj = two_basins();
        let b = Bounds::cube(1, -2.0, 2.0);
        let cfg = MultistartConfig { raw_samples: 0, restarts: 0, ..Default::default() };
        let r = minimize_multistart(&obj, &b, &[vec![0.6]], &cfg);
        assert!((r.x[0] - 0.7).abs() < 1e-4);
        assert_eq!(r.restart_shortfall, 0);
    }

    #[test]
    fn df_variant_matches_on_smooth_problem() {
        let f = |x: &[f64]| (x[0] - 0.25).powi(2) + (x[1] - 0.75).powi(2);
        let b = Bounds::unit(2);
        let r = minimize_multistart_df(&f, &b, &[], 4, 32, 7, &NelderMeadConfig::default());
        assert!((r.x[0] - 0.25).abs() < 1e-3 && (r.x[1] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn deterministic_given_seed() {
        let obj = two_basins();
        let b = Bounds::cube(1, -2.0, 2.0);
        let cfg = MultistartConfig { seed: 42, ..Default::default() };
        let r1 = minimize_multistart(&obj, &b, &[], &cfg);
        let r2 = minimize_multistart(&obj, &b, &[], &cfg);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.value, r2.value);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let obj = two_basins();
        let b = Bounds::cube(1, -2.0, 2.0);
        let cfg = MultistartConfig { seed: 9, ..Default::default() };
        let base = minimize_multistart(&obj, &b, &[vec![0.1]], &cfg);
        for threads in [2, 3, 8] {
            pbo_linalg::parallel::set_num_threads(threads);
            let other = minimize_multistart(&obj, &b, &[vec![0.1]], &cfg);
            pbo_linalg::parallel::set_num_threads(0);
            assert_eq!(base.x[0].to_bits(), other.x[0].to_bits(), "{threads} threads");
            assert_eq!(base.value.to_bits(), other.value.to_bits());
            assert_eq!(base.evals, other.evals);
            assert_eq!(base.iters, other.iters);
        }
    }

    #[test]
    fn nonfinite_candidates_are_backfilled() {
        // A third of the box scores NaN; backfill must still fill the
        // restart pool from the remaining finite region.
        let f = |x: &[f64]| {
            if x[0] > 0.5 {
                f64::NAN
            } else {
                (x[0] + 0.25).powi(2)
            }
        };
        let obj = FnGradObjective::new(1, f, move |x: &[f64]| (f(x), vec![2.0 * (x[0] + 0.25)]));
        let b = Bounds::cube(1, -1.0, 2.0);
        let cfg = MultistartConfig { raw_samples: 16, restarts: 8, seed: 3, ..Default::default() };
        let r = minimize_multistart(&obj, &b, &[], &cfg);
        assert_eq!(r.restart_shortfall, 0, "backfill should cover the NaN region");
        assert!((r.x[0] + 0.25).abs() < 1e-4);
        // Backfill draws are charged to the evaluation count.
        assert!(r.evals > 16, "evals {} should include backfill draws", r.evals);
    }

    #[test]
    fn hopeless_pool_reports_shortfall_instead_of_panicking() {
        // Everything is NaN: the pool can never fill. The driver must
        // report the full shortfall and fall back to the box center.
        let f = |_: &[f64]| f64::NAN;
        let obj = FnGradObjective::new(1, f, move |x: &[f64]| (f(x), vec![0.0]));
        let b = Bounds::cube(1, -1.0, 1.0);
        let cfg = MultistartConfig { raw_samples: 8, restarts: 4, seed: 1, ..Default::default() };
        let r = minimize_multistart(&obj, &b, &[], &cfg);
        assert_eq!(r.restart_shortfall, 4);
        assert!(r.value.is_nan());
        assert_eq!(r.x, b.center());
        // The df variant historically panicked here; it must not.
        let r = minimize_multistart_df(&(f as fn(&[f64]) -> f64), &b, &[], 4, 8, 1, &NelderMeadConfig::default());
        assert_eq!(r.restart_shortfall, 4);
        assert!(r.value.is_nan());
    }

    #[test]
    fn batched_scoring_used_for_raw_candidates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingBatch {
            batch_calls: AtomicUsize,
            points_scored: AtomicUsize,
        }
        impl GradObjective for CountingBatch {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                (x[0] - 0.3).powi(2)
            }
            fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
                (self.value(x), vec![2.0 * (x[0] - 0.3)])
            }
        }
        impl BatchObjective for CountingBatch {
            fn value_batch(&self, xs: &[f64], out: &mut [f64]) {
                self.batch_calls.fetch_add(1, Ordering::Relaxed);
                self.points_scored.fetch_add(out.len(), Ordering::Relaxed);
                for (x, o) in xs.chunks_exact(1).zip(out.iter_mut()) {
                    *o = self.value(x);
                }
            }
        }
        let obj = CountingBatch {
            batch_calls: AtomicUsize::new(0),
            points_scored: AtomicUsize::new(0),
        };
        let b = Bounds::unit(1);
        let cfg = MultistartConfig { raw_samples: 96, restarts: 2, ..Default::default() };
        let r = minimize_multistart(&obj, &b, &[], &cfg);
        assert!((r.x[0] - 0.3).abs() < 1e-5);
        // 96 points in 32-point blocks: 3 batched calls, not 96 scalar ones.
        assert_eq!(obj.batch_calls.load(Ordering::Relaxed), 3);
        assert_eq!(obj.points_scored.load(Ordering::Relaxed), 96);
    }
}
