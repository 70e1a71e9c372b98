//! The ten algorithms: the paper's five batch-acquisition PBO
//! algorithms, the random-search baseline, and four extensions along
//! the directions the paper names as future work.
//!
//! All share the same [`crate::engine::Engine`] and differ only in how
//! they build each cycle's batch — exactly the paper's framing ("the
//! mentioned parallel algorithms follow the same scheme but differ in
//! the candidate selection phase"). Every run starts the same way:
//! [`run_algorithm_observed`], which is `Engine::builder(..).build()`
//! plus [`drive_stepper`] over the per-cycle [`BatchStepper`].
//!
//! | Algorithm | Acquisition process |
//! |---|---|
//! | [`kb_qego`]  | q × (EI maximization + Kriging-Believer fantasy conditioning) |
//! | [`mic_qego`] | ⌈q/2⌉ × (EI **and** UCB on the same model + one conditioning) |
//! | [`mc_qego`]  | joint q-point MC-EI over the q·d space |
//! | [`bsp_ego`]  | 2q parallel local EI maximizations over a BSP partition |
//! | [`turbo`]    | MC q-EI restricted to a lengthscale-shaped trust region |
//! | [`random`]   | q uniform points; no surrogate, no acquisition cost |
//! | [`thompson`] | q minimizers of joint posterior draws over a Sobol candidate set |
//! | [`mic_turbo`] | the mic-q-EGO EI/UCB pair loop inside a TuRBO trust region |
//! | [`gp_ucb_pe`] | one UCB leader + q − 1 variance-greedy pure-exploration fillers |
//! | [`hybrid_q`] | KB-style growth while fantasy EI ≥ η·(leader EI), up to q points |

pub mod bsp_ego;
pub mod gp_ucb_pe;
pub mod hybrid_q;
pub mod kb_qego;
pub mod mc_qego;
pub mod mic_qego;
pub mod mic_turbo;
pub mod random;
pub mod stepper;
pub mod thompson;
pub mod turbo;

pub use stepper::{drive_stepper, BatchStepper};

use crate::budget::Budget;
use crate::engine::{AlgoConfig, Engine};
use crate::error::ConfigError;
use crate::observe::Observer;
use crate::record::RunRecord;
use pbo_opt::multistart::MultistartConfig;
use pbo_problems::Problem;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Kriging-Believer q-EGO (Ginsbourger et al. 2008).
    KbQEgo,
    /// Multi-infill-criteria q-EGO (this paper's variant).
    MicQEgo,
    /// Monte-Carlo q-EGO (Balandat et al. 2020, BoTorch).
    McQEgo,
    /// Binary-space-partitioning EGO (Gobert et al. 2020).
    BspEgo,
    /// Trust-region BO (Eriksson et al. 2019).
    Turbo,
    /// Uniform random search baseline.
    RandomSearch,
    /// Extension: Thompson-sampling batch acquisition (paper §2.2's
    /// information-based family; no inner optimization).
    ThompsonSampling,
    /// Extension: multi-infill criteria inside a trust region — the
    /// combination the paper's discussion proposes as future work.
    MicTurbo,
    /// Extension: GP-UCB-PE — a UCB leader plus variance-greedy
    /// pure-exploration fillers (Contal et al. 2013); the fillers cost
    /// no inner optimization at all.
    GpUcbPe,
    /// Extension: Azimi-style adaptive-q hybrid — per-cycle batch size
    /// chosen from expected one-step improvement vs. batch degradation
    /// (the only variable-q algorithm; see
    /// [`BatchStepper::propose_q`]).
    HybridQ,
}

impl AlgorithmKind {
    /// Every algorithm, in canonical order: the paper's five in
    /// declaration order, random search, then the four extensions.
    pub const ALL: [AlgorithmKind; 10] = [
        AlgorithmKind::KbQEgo,
        AlgorithmKind::MicQEgo,
        AlgorithmKind::McQEgo,
        AlgorithmKind::BspEgo,
        AlgorithmKind::Turbo,
        AlgorithmKind::RandomSearch,
        AlgorithmKind::ThompsonSampling,
        AlgorithmKind::MicTurbo,
        AlgorithmKind::GpUcbPe,
        AlgorithmKind::HybridQ,
    ];

    /// Stable display name (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::KbQEgo => "kb-q-ego",
            AlgorithmKind::MicQEgo => "mic-q-ego",
            AlgorithmKind::McQEgo => "mc-q-ego",
            AlgorithmKind::BspEgo => "bsp-ego",
            AlgorithmKind::Turbo => "turbo",
            AlgorithmKind::RandomSearch => "random",
            AlgorithmKind::ThompsonSampling => "thompson",
            AlgorithmKind::MicTurbo => "mic-turbo",
            AlgorithmKind::GpUcbPe => "gp-ucb-pe",
            AlgorithmKind::HybridQ => "hybrid-q",
        }
    }

    /// The five algorithms compared in the paper (Tables 4–7), in the
    /// paper's column order.
    pub fn paper_set() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::Turbo,
            AlgorithmKind::KbQEgo,
            AlgorithmKind::MicQEgo,
            AlgorithmKind::McQEgo,
            AlgorithmKind::BspEgo,
        ]
    }

    /// Parse a display name (the inverse of [`AlgorithmKind::name`]).
    pub fn from_name(s: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The extension algorithms built on top of the paper's five
    /// (future-work directions the paper names explicitly).
    pub fn extension_set() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::ThompsonSampling,
            AlgorithmKind::MicTurbo,
            AlgorithmKind::GpUcbPe,
            AlgorithmKind::HybridQ,
        ]
    }

    /// Whether this algorithm chooses its own batch size each cycle
    /// ([`BatchStepper::propose_q`] may return something other than the
    /// configured q). Serving such a session over the wire requires
    /// protocol v2, whose `ask` reply carries the cycle's q.
    pub fn is_variable_q(self) -> bool {
        matches!(self, AlgorithmKind::HybridQ)
    }
}

/// Run an algorithm to budget exhaustion: the one entry point for an
/// in-process run. Validates the budget and configuration (a typed
/// [`ConfigError`] instead of a panic), evaluates the initial design
/// and drives the engine through [`drive_stepper`]. The observer
/// (pass [`crate::observe::NullObserver`] for none) receives the
/// engine's event stream and never perturbs the run: results are
/// bit-identical with and without it.
pub fn run_algorithm_observed<'a>(
    kind: AlgorithmKind,
    problem: &'a dyn Problem,
    budget: &Budget,
    cfg: AlgoConfig,
    seed: u64,
    observer: impl Observer + Send + 'a,
) -> Result<RunRecord, ConfigError> {
    let e = Engine::builder(problem)
        .budget(*budget)
        .config(cfg)
        .seed(seed)
        .algorithm(kind.name())
        .observer(observer)
        .build()?;
    Ok(drive_stepper(kind, e))
}

/// UCB exploration weight `β` of mic-q-EGO's second criterion and of
/// GP-UCB-PE's leader.
const UCB_BETA: f64 = std::f64::consts::SQRT_2;

/// Multistart settings for single-point acquisition maximization,
/// derived from the algorithm config.
pub fn acq_multistart(cfg: &AlgoConfig, seed: u64) -> MultistartConfig {
    MultistartConfig {
        raw_samples: cfg.acq.raw_samples,
        restarts: cfg.acq.restarts,
        max_iters: 40,
        seed,
    }
}

/// Multistart settings for the joint q-EI optimization.
pub fn qei_multistart(cfg: &AlgoConfig, seed: u64) -> MultistartConfig {
    MultistartConfig {
        raw_samples: cfg.qei.raw_samples,
        restarts: cfg.qei.restarts,
        max_iters: 30,
        seed,
    }
}

/// Run `kind` to budget exhaustion, panicking on an invalid
/// configuration (unit tests of the algorithm modules).
#[cfg(test)]
pub(crate) fn run_test(
    kind: AlgorithmKind,
    problem: &dyn Problem,
    budget: Budget,
    cfg: AlgoConfig,
    seed: u64,
) -> RunRecord {
    run_algorithm_observed(kind, problem, &budget, cfg, seed, crate::observe::NullObserver)
        .expect("valid test configuration")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AlgorithmKind::from_name("nope"), None);
    }

    #[test]
    fn only_the_hybrid_is_variable_q() {
        for kind in AlgorithmKind::paper_set() {
            assert!(!kind.is_variable_q());
        }
        assert!(!AlgorithmKind::RandomSearch.is_variable_q());
        assert!(!AlgorithmKind::GpUcbPe.is_variable_q());
        assert!(AlgorithmKind::HybridQ.is_variable_q());
    }

    #[test]
    fn paper_set_has_five_distinct() {
        let set = AlgorithmKind::paper_set();
        assert_eq!(set.len(), 5);
        for i in 0..5 {
            for j in 0..i {
                assert_ne!(set[i], set[j]);
            }
        }
        assert!(!set.contains(&AlgorithmKind::RandomSearch));
    }
}
