//! Algorithm configuration, split into semantic sub-structs.
//!
//! PRs kept bolting flat fields onto `AlgoConfig`; this module groups
//! them by what they govern — [`AcqConfig`] for single-point
//! acquisition machinery (multistart and the fantasy value),
//! [`QeiConfig`] for the joint Monte-Carlo q-EI optimization — each
//! with its own `Default`. Validation lives here too:
//! [`AlgoConfig::validate`] converts what used to be `debug_assert!`s
//! and silent misbehavior into typed [`ConfigError`]s surfaced by
//! `Engine::builder(..).build()`.

use crate::clock::CostModel;
use crate::error::{at_least_one, non_negative, positive, ConfigError};
use crate::exec::FtPolicy;
use pbo_gp::FitConfig;

/// How the Kriging-Believer loop fills in not-yet-simulated values
/// (Ginsbourger et al. discuss all three; the paper uses the believer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FantasyKind {
    /// Believe the posterior mean (the paper's KB heuristic).
    PosteriorMean,
    /// Constant liar with the incumbent best (optimistic; clusters).
    ConstantLiarMin,
    /// Constant liar with the worst observation (pessimistic; spreads).
    ConstantLiarMax,
}

/// Single-point acquisition settings (EI/UCB multistart and the
/// Kriging-Believer fantasy value). The per-algorithm constants sit
/// beside their readers in [`crate::algorithms`].
#[derive(Debug, Clone)]
pub struct AcqConfig {
    /// Multistart restarts for single-point acquisition optimization.
    pub restarts: usize,
    /// Raw Sobol samples scored before acquisition restarts.
    pub raw_samples: usize,
    /// Fantasy value used by the KB/mic sequential loops.
    pub kb_fantasy: FantasyKind,
}

impl Default for AcqConfig {
    fn default() -> Self {
        AcqConfig { restarts: 6, raw_samples: 64, kb_fantasy: FantasyKind::PosteriorMean }
    }
}

/// Joint Monte-Carlo q-EI settings (MC-q-EGO and TuRBO at q > 1).
#[derive(Debug, Clone)]
pub struct QeiConfig {
    /// qMC base samples for the sample-average q-EI estimator.
    pub samples: usize,
    /// Restarts for the joint q-EI optimization.
    pub restarts: usize,
    /// Raw samples for the joint q-EI optimization.
    pub raw_samples: usize,
}

impl Default for QeiConfig {
    fn default() -> Self {
        QeiConfig { samples: 128, restarts: 4, raw_samples: 32 }
    }
}

/// Algorithm-level configuration shared by all five methods.
#[derive(Debug, Clone)]
pub struct AlgoConfig {
    /// GP hyperparameter fitting settings.
    pub fit: FitConfig,
    /// Run a full multistart fit every k cycles; warm-start refits in
    /// between (the paper reduces intermediate fitting budgets).
    pub full_fit_every: usize,
    /// On non-full cycles, keep hyperparameters frozen and extend the
    /// cached Cholesky factor with the q new rows (O(n²q)) instead of
    /// warm-refitting and refactoring from scratch (O(n³)). Off by
    /// default: warm refits move hyperparameters every cycle, so
    /// enabling this changes trajectories (bit-identical to a
    /// frozen-hyperparameter rebuild, not to a warm refit).
    pub incremental_updates: bool,
    /// Single-point acquisition settings.
    pub acq: AcqConfig,
    /// Joint Monte-Carlo q-EI settings.
    pub qei: QeiConfig,
    /// Virtual-clock cost model.
    pub cost_model: CostModel,
    /// Fault-tolerant evaluation policy (retries, backoff, timeout,
    /// worker-count override).
    pub ft: FtPolicy,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig {
            fit: FitConfig { restarts: 2, max_iters: 40, warm_iters: 12, ..FitConfig::default() },
            full_fit_every: 10,
            incremental_updates: false,
            acq: AcqConfig::default(),
            qei: QeiConfig::default(),
            cost_model: CostModel::default(),
            ft: FtPolicy::default(),
        }
    }
}

impl AlgoConfig {
    /// Deterministic test profile: fixed per-call virtual costs and
    /// small fitting budgets.
    pub fn test_profile() -> Self {
        AlgoConfig {
            fit: FitConfig { restarts: 0, max_iters: 12, warm_iters: 6, ..FitConfig::default() },
            acq: AcqConfig { restarts: 2, raw_samples: 16, ..AcqConfig::default() },
            qei: QeiConfig { samples: 48, restarts: 2, raw_samples: 8 },
            cost_model: CostModel::Fixed { per_call: 1.0 },
            ..AlgoConfig::default()
        }
    }

    /// Check every field the engine depends on; returns the first
    /// violation as a typed error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        at_least_one("cfg.full_fit_every", self.full_fit_every)?;
        if self.incremental_updates && self.full_fit_every == 1 {
            return Err(ConfigError::IncrementalUpdatesNeedStableCycles);
        }
        at_least_one("cfg.fit.max_iters", self.fit.max_iters)?;
        at_least_one("cfg.acq.raw_samples", self.acq.raw_samples)?;
        at_least_one("cfg.qei.samples", self.qei.samples)?;
        at_least_one("cfg.qei.raw_samples", self.qei.raw_samples)?;
        match self.cost_model {
            CostModel::Measured { overhead_scale } => {
                positive("cfg.cost_model.overhead_scale", overhead_scale)?;
            }
            CostModel::Fixed { per_call } => {
                non_negative("cfg.cost_model.per_call", per_call)?;
            }
        }
        non_negative("cfg.ft.backoff_base", self.ft.backoff_base)?;
        if !(self.ft.backoff_factor.is_finite() && self.ft.backoff_factor >= 1.0) {
            return Err(ConfigError::BackoffFactorTooSmall { got: self.ft.backoff_factor });
        }
        // NaN must fail too (+∞ is a legitimate "no timeout").
        if self.ft.timeout_secs.is_nan() || self.ft.timeout_secs <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "cfg.ft.timeout_secs",
                got: self.ft.timeout_secs,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AlgoConfig::default().validate().unwrap();
        AlgoConfig::test_profile().validate().unwrap();
    }

    #[test]
    fn each_violation_maps_to_a_typed_error() {
        let c = AlgoConfig { full_fit_every: 0, ..AlgoConfig::default() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroField { field: "cfg.full_fit_every" }));

        let c =
            AlgoConfig { incremental_updates: true, full_fit_every: 1, ..AlgoConfig::default() };
        assert_eq!(c.validate(), Err(ConfigError::IncrementalUpdatesNeedStableCycles));

        let mut c = AlgoConfig::default();
        c.ft.backoff_factor = 0.5;
        assert_eq!(c.validate(), Err(ConfigError::BackoffFactorTooSmall { got: 0.5 }));

        let c = AlgoConfig {
            cost_model: CostModel::Measured { overhead_scale: 0.0 },
            ..AlgoConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::NonPositive { .. })));

        let mut c = AlgoConfig::default();
        c.ft.timeout_secs = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::NonPositive { .. })));
    }

    #[test]
    fn incremental_updates_with_stable_schedule_validates() {
        let c =
            AlgoConfig { incremental_updates: true, full_fit_every: 2, ..AlgoConfig::default() };
        c.validate().unwrap();
    }

    #[test]
    fn infinite_timeout_is_allowed() {
        let mut c = AlgoConfig::default();
        c.ft.timeout_secs = f64::INFINITY;
        c.validate().unwrap();
    }
}
