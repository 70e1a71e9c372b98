//! Layer probes: each times one public call of a single layer on a
//! workload's final dataset, so every workload reports the same kernels
//! at its own problem size — including the workloads whose algorithm
//! never fits a model.

use crate::stats;
use crate::trace::Tracer;
use pbo_core::engine::AlgoConfig;
use pbo_gp::{fit, FitConfig, FitWorkspace, GaussianProcess};
use pbo_linalg::{Cholesky, Matrix};
use pbo_sampling::sobol::Sobol;
use pbo_sampling::SeedStream;
use std::hint::black_box;
use std::time::Instant;

/// Points scored by the batched-posterior probe.
const PREDICT_POINTS: usize = 256;

/// Probe timings on one dataset.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// One exact-MLL + gradient evaluation inside the engine's fit path
    /// (`fit::fit_hypers_with`), µs.
    pub mll_eval_us: f64,
    /// One `predict_many` call on 256 fixed Sobol points, µs.
    pub predict_many_us: f64,
    /// One `Cholesky::factor` of the kernel matrix plus noise, ms.
    pub chol_ms: f64,
}

/// Time the probes on unit-cube inputs `x` and minimised targets `y`.
/// The kernel comes from a short fit on the same data, so the matrices
/// have the conditioning the engine would see.
pub fn run(x: &Matrix, y: &[f64], tracer: &Tracer) -> Result<Probes, String> {
    let cfg = FitConfig {
        restarts: 0,
        max_iters: 4,
        ..AlgoConfig::default().fit
    };
    let (kernel, noise, evals, mll_ns) = tracer.in_span("probe.gp.mll", 0, 0, |_| {
        let t0 = Instant::now();
        let (kernel, noise, report) = fit::fit_hypers_with(
            x,
            y,
            &cfg,
            None,
            &mut SeedStream::new(0),
            &mut FitWorkspace::new(),
        )
        .map_err(|e| format!("probe fit: {e}"))?;
        Ok::<_, String>((kernel, noise, report.evals, t0.elapsed().as_nanos() as f64))
    })?;

    let gp = GaussianProcess::new(x.clone(), y, kernel.clone(), noise)
        .map_err(|e| format!("probe model: {e}"))?;
    let pts = Matrix::from_rows(&Sobol::new(x.cols()).sample(PREDICT_POINTS))
        .map_err(|e| format!("probe points: {e}"))?;
    let predict_us: Vec<f64> = (0..5)
        .map(|i| {
            tracer.in_span("probe.gp.predict_many", 0, i, |_| {
                let t0 = Instant::now();
                black_box(gp.predict_many(black_box(&pts)));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
        })
        .collect();

    let mut ky = kernel.matrix(x);
    ky.add_diag(noise);
    let chol_ms: Vec<f64> = (0..3)
        .map(|i| {
            tracer.in_span("probe.linalg.chol", 0, i, |_| {
                let t0 = Instant::now();
                let factor =
                    Cholesky::factor(black_box(&ky)).map_err(|e| format!("probe chol: {e}"));
                black_box(factor)?;
                Ok::<_, String>(t0.elapsed().as_nanos() as f64 / 1e6)
            })
        })
        .collect::<Result<_, _>>()?;

    Ok(Probes {
        mll_eval_us: mll_ns / evals.max(1) as f64 / 1e3,
        predict_many_us: stats::median(&predict_us),
        chol_ms: stats::median(&chol_ms),
    })
}
