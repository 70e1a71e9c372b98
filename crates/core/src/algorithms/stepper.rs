//! Algorithm-agnostic cycle stepping: every algorithm's per-cycle
//! batch construction, split so a cycle can *suspend at the evaluate
//! boundary*.
//!
//! [`BatchStepper::propose`] runs the pre-evaluate half of one cycle
//! (fit, acquisition, sanitization) and returns the unit-cube batch;
//! the caller then either evaluates in-process
//! ([`crate::engine::Engine::commit_batch`]) or ships the points to a
//! remote evaluator and later absorbs the values
//! ([`crate::engine::Engine::commit_report`]);
//! [`BatchStepper::after_commit`] runs the post-evaluate half (trust
//! region feedback). [`drive_stepper`] composes the three into the
//! classic in-process loop, so the stepper IS the reference trajectory:
//! ask/tell sessions reproduce
//! [`crate::algorithms::run_algorithm_observed`] bit-for-bit because
//! both paths execute this exact code.
//!
//! Cross-cycle algorithm state (the BSP partition, the trust region)
//! lives in the stepper variants — everything else an algorithm needs
//! is rederived from the engine each cycle, which is what makes a
//! session resumable by replaying its journal of told values.

use super::{acq_multistart, qei_multistart, AlgorithmKind};
use crate::engine::{AlgoConfig, Engine};
use crate::partition::BspTree;
use crate::record::RunRecord;
use crate::trust_region::{TrustRegion, TrustRegionConfig};
use pbo_acq::mc::{optimize_qei, QExpectedImprovement};
use pbo_acq::single::{optimize_single, ExpectedImprovement};
use pbo_gp::GaussianProcess;
use rand::Rng;

/// BSP-EGO: number of sub-regions as a multiple of q (paper: 2).
const BSP_CELLS_FACTOR: usize = 2;
/// Thompson sampling: discrete candidate-set size per cycle.
const THOMPSON_CANDIDATES: usize = 512;
/// GP-UCB-PE: Sobol candidate-set size for the variance-greedy
/// pure-exploration fillers.
pub const PE_CANDIDATES: usize = 256;
/// Adaptive-q hybrid: keep growing the batch while the
/// fantasy-conditioned EI of the next point stays at least this
/// fraction of the leader's EI (in (0, 1]; larger values shrink
/// batches sooner).
const HYBRID_ETA: f64 = 0.5;

/// Per-algorithm cycle stepper. Holds exactly the state that survives
/// across cycles; create one per run with [`BatchStepper::new`].
pub enum BatchStepper {
    /// Kriging-Believer q-EGO (stateless across cycles).
    KbQEgo,
    /// Multi-infill-criteria q-EGO (stateless across cycles).
    MicQEgo,
    /// Monte-Carlo q-EGO (stateless across cycles).
    McQEgo,
    /// BSP-EGO: the partition tree evolves every cycle.
    BspEgo {
        /// Binary space partition over the unit cube.
        tree: BspTree,
    },
    /// TuRBO: the trust region reacts to per-cycle improvement.
    Turbo {
        /// Trust-region state machine.
        tr: TrustRegion,
        /// Incumbent before the current cycle's batch, for the
        /// improvement test in [`BatchStepper::after_commit`].
        f_best_before: f64,
    },
    /// mic-TuRBO: multi-infill batch inside a trust region.
    MicTurbo {
        /// Trust-region state machine.
        tr: TrustRegion,
        /// Incumbent before the current cycle's batch.
        f_best_before: f64,
    },
    /// Uniform random search (stateless across cycles).
    Random,
    /// Thompson-sampling batches (stateless across cycles).
    Thompson,
    /// GP-UCB-PE: UCB leader + variance-greedy pure-exploration
    /// fillers (stateless across cycles).
    GpUcbPe,
    /// Adaptive-q hybrid: the batch built by [`BatchStepper::propose_q`]
    /// is cached here so the size decision and the proposal are one
    /// computation — whichever of the two entry points runs first.
    HybridQ {
        /// The batch planned by `propose_q`, consumed by `propose`.
        planned: Option<Vec<Vec<f64>>>,
    },
}

impl BatchStepper {
    /// Fresh per-run stepper state for `kind`, derived from the ready
    /// engine (the BSP cell count and bounds depend on q and d).
    pub fn new(kind: AlgorithmKind, e: &Engine) -> BatchStepper {
        match kind {
            AlgorithmKind::KbQEgo => BatchStepper::KbQEgo,
            AlgorithmKind::MicQEgo => BatchStepper::MicQEgo,
            AlgorithmKind::McQEgo => BatchStepper::McQEgo,
            AlgorithmKind::BspEgo => {
                let n_cells = (BSP_CELLS_FACTOR * e.q()).max(2);
                BatchStepper::BspEgo { tree: BspTree::new(e.unit_bounds(), n_cells) }
            }
            AlgorithmKind::Turbo => BatchStepper::Turbo {
                tr: TrustRegion::new(TrustRegionConfig::default()),
                f_best_before: f64::INFINITY,
            },
            AlgorithmKind::RandomSearch => BatchStepper::Random,
            AlgorithmKind::ThompsonSampling => BatchStepper::Thompson,
            AlgorithmKind::MicTurbo => BatchStepper::MicTurbo {
                tr: TrustRegion::new(TrustRegionConfig::default()),
                f_best_before: f64::INFINITY,
            },
            AlgorithmKind::GpUcbPe => BatchStepper::GpUcbPe,
            AlgorithmKind::HybridQ => BatchStepper::HybridQ { planned: None },
        }
    }

    /// The batch size this cycle's proposal will have. Fixed-q
    /// algorithms (all eight incumbents and GP-UCB-PE) answer the
    /// configured q without touching the engine; the adaptive-q hybrid
    /// runs its acquisition process here — fit, leader EI, fantasy
    /// growth loop — caches the resulting batch, and answers its
    /// length, so a following [`BatchStepper::propose`] is free and
    /// the size decision is made exactly once per cycle whichever
    /// entry point runs first.
    pub fn propose_q(&mut self, e: &mut Engine) -> usize {
        match self {
            BatchStepper::HybridQ { planned } => {
                if planned.is_none() {
                    *planned = Some(hybrid_propose(e));
                }
                planned.as_ref().map_or(0, Vec::len)
            }
            _ => e.q(),
        }
    }

    /// Run the pre-evaluate half of one cycle: open the cycle (fitting
    /// the surrogate for every algorithm but random search), build the
    /// batch through the algorithm's acquisition process, charged to
    /// the acquisition clock with [`Engine::charge_acquisition`], and
    /// sanitize duplicates (again except random search). Returns the
    /// unit-cube batch to evaluate.
    pub fn propose(&mut self, e: &mut Engine) -> Vec<Vec<f64>> {
        let q = e.q();
        let bounds = e.unit_bounds();
        match self {
            BatchStepper::KbQEgo => fit_and_acquire(e, false, 1, |gp, cfg, seed| {
                super::kb_qego::kb_batch(gp, &bounds, q, cfg, seed)
            }),
            BatchStepper::MicQEgo => fit_and_acquire(e, false, 1, |gp, cfg, seed| {
                super::mic_qego::mic_batch(gp, &bounds, q, cfg, seed)
            }),
            BatchStepper::McQEgo => fit_and_acquire(e, false, 1, |gp, cfg, seed| {
                let f_best = gp.best_observed(false);
                if q == 1 {
                    // Table 3: all methods use plain EI at q = 1.
                    let ei = ExpectedImprovement { f_best };
                    let r = optimize_single(gp, &ei, &bounds, &[], &acq_multistart(cfg, seed));
                    (vec![r.x], r.restart_shortfall)
                } else {
                    let qei = QExpectedImprovement::new(f_best, q, cfg.qei.samples, seed ^ 0x5A);
                    let out = optimize_qei(gp, &qei, &bounds, &[], &qei_multistart(cfg, seed));
                    (out.batch, out.restart_shortfall)
                }
            }),
            BatchStepper::BspEgo { tree } => {
                let leaves = tree.leaves();
                let cells: Vec<pbo_opt::Bounds> =
                    leaves.iter().map(|&l| tree.bounds_of(l).clone()).collect();

                // One local EI maximization per cell, run concurrently;
                // the clock models q workers sharing the 2q
                // sub-problems. The multistart inside each cell is
                // itself parallel-capable, but workers spawned here are
                // marked as inside a parallel region
                // (`pbo_linalg::parallel`), so the nested fan-out
                // degrades to the serial schedule instead of
                // oversubscribing — and stays bit-identical to it by
                // construction. The closure returns the top-q batch
                // and leaves the per-leaf scores, which drive the
                // partition evolution, in `scores`.
                let mut scores = Vec::new();
                let batch = fit_and_acquire(e, false, q, |gp, cfg, seed| {
                    let f_best = gp.best_observed(false);
                    let per_cell = pbo_linalg::parallel::par_map(cells.len(), 1, |k| {
                        let ei = ExpectedImprovement { f_best };
                        let ms = acq_multistart(cfg, seed.wrapping_add(k as u64));
                        let r = optimize_single(gp, &ei, &cells[k], &[], &ms);
                        (r.x, r.value, r.restart_shortfall)
                    });
                    let shortfall = per_cell.iter().map(|(_, _, s)| *s).sum();
                    scores = per_cell.iter().map(|(_, v, _)| *v).collect();
                    // Top-q candidates by EI across all cells.
                    let mut order: Vec<usize> = (0..per_cell.len()).collect();
                    order.sort_by(|&a, &b| per_cell[b].1.total_cmp(&per_cell[a].1));
                    let top = order.iter().take(q).map(|&k| per_cell[k].0.clone()).collect();
                    (top, shortfall)
                });
                tree.evolve(&leaves, &scores);
                batch
            }
            BatchStepper::Turbo { tr, f_best_before } => {
                let f_best = e.best_min();
                *f_best_before = f_best;
                let center = e.best_x_unit();
                fit_and_acquire(e, false, 1, |gp, cfg, seed| {
                    let region = tr.bounds(&center, &gp.kernel().lengthscales);
                    if q == 1 {
                        let ei = ExpectedImprovement { f_best };
                        let r = optimize_single(gp, &ei, &region, &[], &acq_multistart(cfg, seed));
                        (vec![r.x], r.restart_shortfall)
                    } else {
                        let qei =
                            QExpectedImprovement::new(f_best, q, cfg.qei.samples, seed ^ 0x7B);
                        let out = optimize_qei(gp, &qei, &region, &[], &qei_multistart(cfg, seed));
                        (out.batch, out.restart_shortfall)
                    }
                })
            }
            BatchStepper::MicTurbo { tr, f_best_before } => {
                *f_best_before = e.best_min();
                let center = e.best_x_unit();
                fit_and_acquire(e, false, 1, |gp, cfg, seed| {
                    let region = tr.bounds(&center, &gp.kernel().lengthscales);
                    super::mic_qego::mic_batch(gp, &region, q, cfg, seed)
                })
            }
            BatchStepper::Random => {
                e.begin_cycle();
                let d = e.dim();
                // Per-cycle fork: deterministic yet fresh each cycle.
                let cycle = e.cycle_index() as u64;
                let mut rng = e.seeds().fork(0x3A00 + cycle).rng();
                (0..q).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect()
            }
            // No inner optimization → no restart shortfall to report.
            BatchStepper::Thompson => fit_and_acquire(e, true, 1, |gp, _, seed| {
                (super::thompson::thompson_batch(gp, q, THOMPSON_CANDIDATES, seed), 0)
            }),
            BatchStepper::GpUcbPe => fit_and_acquire(e, true, 1, |gp, cfg, seed| {
                super::gp_ucb_pe::gp_ucb_pe_batch(gp, &bounds, q, PE_CANDIDATES, cfg, seed)
            }),
            BatchStepper::HybridQ { planned } => {
                planned.take().unwrap_or_else(|| hybrid_propose(e))
            }
        }
    }

    /// Run the post-evaluate half of one cycle: trust-region feedback
    /// for the TuRBO variants, a no-op for everything else. Call after
    /// the proposed batch has been committed.
    pub fn after_commit(&mut self, e: &Engine) {
        match self {
            BatchStepper::Turbo { tr, f_best_before }
            | BatchStepper::MicTurbo { tr, f_best_before } => {
                let improved = e.best_min() < *f_best_before - 1e-12 * (1.0 + f_best_before.abs());
                tr.update(improved);
            }
            _ => {}
        }
    }
}

/// The pre-evaluate half every model-based algorithm shares: fit the
/// surrogate, derive the cycle's acquisition seed, run `acquire` on
/// the engine's model and configuration under the acquisition clock
/// ([`Engine::charge_acquisition`], `workers` as there), then sanitize
/// duplicates. The seed forks the engine stream at `0xACC`, or at
/// `0xACC + cycle` when `per_cycle_seed` is set (the Sobol candidate
/// sets of Thompson sampling and GP-UCB-PE must be fresh each cycle).
fn fit_and_acquire(
    e: &mut Engine,
    per_cycle_seed: bool,
    workers: usize,
    acquire: impl FnOnce(&GaussianProcess, &AlgoConfig, u64) -> (Vec<Vec<f64>>, usize),
) -> Vec<Vec<f64>> {
    e.fit_model();
    let cycle = if per_cycle_seed { e.cycle_index() as u64 } else { 0 };
    let acq_seed = e.seeds().fork(0xACC + cycle).next_seed();
    let mut batch = e.charge_acquisition(workers, |gp, cfg| acquire(gp, cfg, acq_seed));
    e.sanitize_batch(&mut batch);
    batch
}

/// The adaptive-q hybrid's pre-evaluate half, shared by
/// [`BatchStepper::propose_q`] and [`BatchStepper::propose`]: the
/// leader-EI + fantasy growth loop under [`fit_and_acquire`] (the
/// telemetry event reports the batch size the loop actually chose).
fn hybrid_propose(e: &mut Engine) -> Vec<Vec<f64>> {
    let (q_max, bounds) = (e.q(), e.unit_bounds());
    fit_and_acquire(e, false, 1, |gp, cfg, seed| {
        super::hybrid_q::hybrid_batch(gp, &bounds, q_max, HYBRID_ETA, cfg, seed)
    })
}

/// Drive a prepared engine to budget exhaustion through the stepper —
/// the in-process reference loop that
/// [`super::run_algorithm_observed`] runs and ask/tell sessions
/// replicate step by step.
pub fn drive_stepper(kind: AlgorithmKind, mut e: Engine) -> RunRecord {
    let mut stepper = BatchStepper::new(kind, &e);
    while e.should_continue() {
        let batch = stepper.propose(&mut e);
        e.commit_batch(batch);
        stepper.after_commit(&e);
    }
    e.finish()
}
