//! Experiment profiles: the paper's exact protocol vs a reduced one
//! that fits a single-core CI machine.
//!
//! Both run the same 20-virtual-minute, 10 s/simulation protocol; the
//! profiles differ only in repetition count and the surrogate-fitting
//! budget. EXPERIMENTS.md records which profile produced each reported
//! number.

use pbo_core::budget::Budget;
use pbo_core::clock::CostModel;
use pbo_core::engine::{AcqConfig, AlgoConfig, QeiConfig};
use pbo_gp::FitConfig;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper protocol: 10 repetitions, unrestricted fitting.
    Paper,
    /// Reduced: 3 repetitions, subsampled hyperparameter fitting,
    /// lighter inner-optimization budgets.
    Fast,
    /// Smoke-test scale for integration tests: 2 repetitions, short
    /// virtual budget.
    Smoke,
}

impl Profile {
    /// Parse from a CLI string.
    pub fn from_name(s: &str) -> Option<Profile> {
        Some(match s {
            "paper" => Profile::Paper,
            "fast" => Profile::Fast,
            "smoke" => Profile::Smoke,
            _ => return None,
        })
    }

    /// Stable display name (inverse of [`Profile::from_name`]; also
    /// part of checkpoint run keys, so renaming invalidates resumes).
    pub fn name(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::Fast => "fast",
            Profile::Smoke => "smoke",
        }
    }

    /// Default repetition count.
    pub fn runs(self) -> usize {
        match self {
            Profile::Paper => 10,
            Profile::Fast => 3,
            Profile::Smoke => 2,
        }
    }

    /// The paper's batch sizes.
    pub fn batch_sizes(self) -> Vec<usize> {
        match self {
            Profile::Smoke => vec![1, 2],
            _ => vec![1, 2, 4, 8, 16],
        }
    }

    /// Budget for batch size `q`.
    pub fn budget(self, q: usize) -> Budget {
        match self {
            Profile::Smoke => {
                let mut b = Budget::paper(q).with_initial_samples(8 * q);
                b.stopping = pbo_core::budget::Stopping::VirtualTime(120.0);
                b
            }
            _ => Budget::paper(q),
        }
    }

    /// Algorithm configuration.
    pub fn algo_config(self) -> AlgoConfig {
        match self {
            Profile::Paper => AlgoConfig {
                cost_model: CostModel::Measured { overhead_scale: OVERHEAD_SCALE },
                ..AlgoConfig::default()
            },
            Profile::Fast => AlgoConfig {
                fit: FitConfig {
                    restarts: 1,
                    max_iters: 20,
                    warm_iters: 6,
                    // No cap: the O(n³) fitting growth is the paper's
                    // breaking-point mechanism and must stay live.
                    max_fit_points: None,
                },
                full_fit_every: 8,
                acq: AcqConfig { restarts: 4, raw_samples: 48, ..AcqConfig::default() },
                qei: QeiConfig { samples: 96, restarts: 3, raw_samples: 16 },
                cost_model: CostModel::Measured { overhead_scale: OVERHEAD_SCALE },
                ..AlgoConfig::default()
            },
            Profile::Smoke => AlgoConfig {
                fit: FitConfig {
                    restarts: 0,
                    max_iters: 12,
                    warm_iters: 5,
                    max_fit_points: Some(96),
                },
                full_fit_every: 6,
                acq: AcqConfig { restarts: 2, raw_samples: 16, ..AcqConfig::default() },
                qei: QeiConfig { samples: 48, restarts: 2, raw_samples: 8 },
                cost_model: CostModel::Measured { overhead_scale: OVERHEAD_SCALE },
                ..AlgoConfig::default()
            },
        }
    }
}

/// Rust-stack → paper-stack (Python/BoTorch on a 2014 Xeon) slowdown
/// constant, applied identically to all algorithms. Calibrated so a
/// q = 1 benchmark-function run completes on the order of 100 cycles in
/// 20 virtual minutes (Fig. 9b); see EXPERIMENTS.md.
pub const OVERHEAD_SCALE: f64 = 25.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Profile::from_name("paper"), Some(Profile::Paper));
        assert_eq!(Profile::from_name("fast"), Some(Profile::Fast));
        assert_eq!(Profile::from_name("smoke"), Some(Profile::Smoke));
        assert_eq!(Profile::from_name("x"), None);
        for p in [Profile::Paper, Profile::Fast, Profile::Smoke] {
            assert_eq!(Profile::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn paper_profile_matches_protocol() {
        let p = Profile::Paper;
        assert_eq!(p.runs(), 10);
        assert_eq!(p.batch_sizes(), vec![1, 2, 4, 8, 16]);
        let b = p.budget(4);
        assert_eq!(b.initial_samples, 64);
    }

    #[test]
    fn fast_profile_keeps_fit_growth_live() {
        // The O(n³) fitting cost is the breaking-point mechanism; only
        // the smoke profile may cap it.
        assert_eq!(Profile::Fast.algo_config().fit.max_fit_points, None);
        assert_eq!(Profile::Paper.algo_config().fit.max_fit_points, None);
        assert!(Profile::Smoke.algo_config().fit.max_fit_points.is_some());
    }
}
