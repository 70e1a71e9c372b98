//! Typed configuration errors surfaced by [`crate::engine::EngineBuilder`].
//!
//! Construction used to police its inputs with `debug_assert!` and
//! panics scattered over `AlgoConfig` and `Budget`; the builder
//! funnels every invalid configuration through this enum instead, so
//! callers can branch on the failure and report it without unwinding.

use std::fmt;

/// Everything that can make an engine configuration unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `Budget::batch_size` (q) must be at least 1.
    ZeroBatchSize,
    /// The initial design needs at least 2 points to seed a surrogate.
    InitialSamplesTooSmall {
        /// The offending `initial_samples` value.
        got: usize,
    },
    /// A field that must be finite and strictly positive was not.
    NonPositive {
        /// Which configuration field failed.
        field: &'static str,
        /// The offending value.
        got: f64,
    },
    /// A field that must be finite and non-negative was not.
    Negative {
        /// Which configuration field failed.
        field: &'static str,
        /// The offending value.
        got: f64,
    },
    /// An iteration/size budget that must be at least 1 was 0.
    ZeroField {
        /// Which configuration field failed.
        field: &'static str,
    },
    /// Retry backoff must not shrink (`backoff_factor >= 1`).
    BackoffFactorTooSmall {
        /// The offending factor.
        got: f64,
    },
    /// Every initial-design point failed evaluation after retries; the
    /// run has no dataset to start from.
    EmptyDesign,
    /// Incremental posterior updates were requested alongside a refit
    /// schedule that re-fits hyperparameters every cycle, which leaves
    /// no hyperparameter-stable cycle for the fast path to run on.
    IncrementalUpdatesNeedStableCycles,
    /// A session turn (the design or a batch) would carry more
    /// coordinates than a served session admits.
    TurnTooLarge {
        /// Which point count is too large.
        field: &'static str,
        /// The offending point count.
        points: usize,
        /// The problem dimension.
        dim: usize,
        /// The cap on points × dimension.
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBatchSize => {
                write!(f, "batch size q must be at least 1")
            }
            ConfigError::InitialSamplesTooSmall { got } => {
                write!(f, "initial design needs at least 2 points, got {got}")
            }
            ConfigError::NonPositive { field, got } => {
                write!(f, "{field} must be finite and > 0, got {got}")
            }
            ConfigError::Negative { field, got } => {
                write!(f, "{field} must be finite and >= 0, got {got}")
            }
            ConfigError::ZeroField { field } => {
                write!(f, "{field} must be at least 1")
            }
            ConfigError::BackoffFactorTooSmall { got } => {
                write!(f, "ft.backoff_factor must be finite and >= 1, got {got}")
            }
            ConfigError::EmptyDesign => {
                write!(f, "every initial-design point failed after retries; cannot start a run")
            }
            ConfigError::IncrementalUpdatesNeedStableCycles => {
                write!(
                    f,
                    "incremental_updates requires full_fit_every > 1; with a full refit every \
                     cycle there are no hyperparameter-stable cycles to update through"
                )
            }
            ConfigError::TurnTooLarge { field, points, dim, max } => {
                write!(
                    f,
                    "{field} = {points} points at dimension {dim} exceeds the cap of {max} \
                     coordinates per session turn"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Check a strictly-positive finite field.
pub(crate) fn positive(field: &'static str, got: f64) -> Result<(), ConfigError> {
    if got.is_finite() && got > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive { field, got })
    }
}

/// Check a non-negative finite field.
pub(crate) fn non_negative(field: &'static str, got: f64) -> Result<(), ConfigError> {
    if got.is_finite() && got >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative { field, got })
    }
}

/// Check an at-least-one count field.
pub(crate) fn at_least_one(field: &'static str, got: usize) -> Result<(), ConfigError> {
    if got >= 1 {
        Ok(())
    } else {
        Err(ConfigError::ZeroField { field })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = ConfigError::NonPositive { field: "budget.sim_seconds", got: -1.0 };
        let s = e.to_string();
        assert!(s.contains("budget.sim_seconds"));
        assert!(s.contains("-1"));
        assert!(ConfigError::ZeroBatchSize.to_string().contains("batch size"));
        let e = ConfigError::BackoffFactorTooSmall { got: 0.5 };
        assert!(e.to_string().contains("0.5"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ConfigError::EmptyDesign);
    }

    #[test]
    fn helpers_reject_nan() {
        assert!(positive("f", f64::NAN).is_err());
        assert!(non_negative("f", f64::NAN).is_err());
        assert!(positive("f", 0.0).is_err());
        assert!(non_negative("f", 0.0).is_ok());
        assert!(at_least_one("f", 0).is_err());
        assert!(at_least_one("f", 1).is_ok());
    }
}
