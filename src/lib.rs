//! # pbo — Parallel Bayesian Optimization for UPHES scheduling
//!
//! Facade crate re-exporting the full workspace. This is the crate a
//! downstream user depends on; the individual `pbo-*` crates remain
//! usable on their own.
//!
//! The workspace reproduces Gobert et al., *Batch Acquisition for
//! Parallel Bayesian Optimization — Application to Hydro-Energy Storage
//! Systems Scheduling* (Algorithms 15(12):446, 2022; extended version of
//! the IPDPSW 2022 paper), including:
//!
//! - a from-scratch Gaussian-process stack ([`gp`], [`linalg`],
//!   [`sampling`], [`opt`]),
//! - the paper's five batch-acquisition parallel BO algorithms, a
//!   random-search baseline and four extensions ([`core::algorithms`]),
//! - an Underground Pumped Hydro-Energy Storage plant simulator
//!   ([`uphes`]),
//! - the benchmark functions and experiment harness used in the paper's
//!   evaluation ([`problems`], the `pbo-bench` crate),
//! - zero-cost-when-disabled structured observability
//!   ([`core::observe`]): typed engine events, replayable JSONL traces,
//!   lock-free metrics.
//!
//! ## Quickstart
//!
//! One call runs one optimization: [`prelude::run_algorithm_observed`]
//! takes the algorithm, the problem, a budget, the algorithm
//! configuration, a seed and an observer ([`prelude::NullObserver`] for
//! none), and returns the full [`prelude::RunRecord`] — or a typed
//! [`prelude::ConfigError`] for an invalid configuration.
//!
//! ```
//! use pbo::prelude::*;
//!
//! let problem = SyntheticFn::ackley(4);
//! let budget = Budget::cycles(2, 2);
//! let cfg = AlgoConfig::test_profile();
//! let record =
//!     run_algorithm_observed(AlgorithmKind::KbQEgo, &problem, &budget, cfg, 42, NullObserver)
//!         .unwrap();
//! assert!(record.best_y().is_finite());
//! assert_eq!(record.n_cycles(), 2);
//! ```
//!
//! To watch a run live, attach any [`prelude::Observer`] — e.g. a
//! replayable JSONL trace of the paper's protocol at q = 4:
//!
//! ```no_run
//! use pbo::prelude::*;
//!
//! let problem = SyntheticFn::ackley(4);
//! let trace = JsonlTraceWriter::create("run.jsonl").unwrap();
//! let budget = Budget::paper(4);
//! let cfg = AlgoConfig::default();
//! let record =
//!     run_algorithm_observed(AlgorithmKind::Turbo, &problem, &budget, cfg, 7, trace).unwrap();
//! # let _ = record;
//! ```
//!
//! Observation never perturbs optimization: results are bit-identical
//! with and without an observer (see DESIGN.md §9).

pub use pbo_acq as acq;
pub use pbo_core as core;
pub use pbo_gp as gp;
pub use pbo_linalg as linalg;
pub use pbo_opt as opt;
pub use pbo_problems as problems;
pub use pbo_sampling as sampling;
pub use pbo_uphes as uphes;

/// The user-facing vocabulary in one import: algorithms, budgets,
/// configuration, records, observability and the common problems.
pub mod prelude {
    pub use crate::core::algorithms::{run_algorithm_observed, AlgorithmKind};
    pub use crate::core::budget::{Budget, Stopping};
    pub use crate::core::config::{AcqConfig, AlgoConfig, FantasyKind, QeiConfig};
    pub use crate::core::engine::{Engine, EngineBuilder};
    pub use crate::core::error::ConfigError;
    pub use crate::core::exec::FtPolicy;
    pub use crate::core::observe::jsonl::JsonlTraceWriter;
    pub use crate::core::observe::metrics::{MetricsObserver, MetricsRegistry};
    pub use crate::core::observe::{
        CollectingObserver, Event, FanoutObserver, NullObserver, Observer,
    };
    pub use crate::core::record::{CycleRecord, FaultCounters, RunRecord};
    pub use crate::problems::fault::{FaultPlan, FaultyProblem};
    pub use crate::problems::{Problem, SyntheticFn, UphesProblem};
}

/// Crate version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
