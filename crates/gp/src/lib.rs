#![allow(clippy::needless_range_loop)]

//! # pbo-gp — exact Gaussian-process regression
//!
//! The surrogate model of the paper (Table 3): a GP with constant trend,
//! homoskedastic noise, and a Matérn-5/2 kernel with automatic relevance
//! determination (one lengthscale per input dimension), fitted by
//! maximizing the exact log marginal likelihood with multi-start L-BFGS
//! over log-hyperparameters.
//!
//! Everything is built on `pbo-linalg`'s jitter-stabilised Cholesky:
//!
//! - [`kernel`]: the Matérn-5/2 ARD kernel (the paper's, Table 3) with
//!   the analytic `∂K/∂log θ` terms the MLL gradient needs,
//! - [`gp`]: the [`gp::GaussianProcess`] itself — prediction (posterior
//!   mean/variance/full covariance) and one frozen-hyperparameter
//!   in-place append, `condition_on`, in `O(n² q)` via rank-q Cholesky
//!   extension, serving both **fantasy conditioning** (the Kriging
//!   Believer heuristic's inner update) and real-data appends,
//! - [`fit`]: marginal likelihood, its gradient, and the multi-start /
//!   warm-start fitting drivers (the paper's "full update at the start
//!   of a cycle, reduced budget inside the acquisition loop").
//!
//! Inputs are expected in (roughly) the unit cube — the BO engine
//! normalizes all problems — and targets are standardized internally;
//! the constant trend is profiled out in closed form (exact by the
//! envelope theorem, see `fit` docs).

pub mod fit;
pub mod gp;
pub mod kernel;
pub mod workspace;

pub use fit::{FitConfig, FitReport};
pub use gp::{GaussianProcess, PredictWorkspace};
pub use kernel::Kernel;
pub use workspace::FitWorkspace;

/// Errors from model construction and fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Underlying linear algebra failed (shape or definiteness).
    Linalg(pbo_linalg::LinalgError),
    /// Training set is empty or shapes are inconsistent.
    BadTrainingData(String),
    /// Hyperparameter vector has the wrong length for the kernel.
    BadHyperparameters(String),
}

impl From<pbo_linalg::LinalgError> for GpError {
    fn from(e: pbo_linalg::LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            GpError::BadTrainingData(s) => write!(f, "bad training data: {s}"),
            GpError::BadHyperparameters(s) => write!(f, "bad hyperparameters: {s}"),
        }
    }
}

impl std::error::Error for GpError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GpError>;
