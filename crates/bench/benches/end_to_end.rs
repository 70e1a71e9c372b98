//! End-to-end cycle benchmarks: one full optimization cycle (fit +
//! acquisition + batch evaluation) per algorithm, on the benchmark
//! suite and on UPHES — the per-cycle wall cost that, multiplied by the
//! paper's overhead scale, fills the 20-minute virtual budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo_core::budget::Budget;
use pbo_core::clock::CostModel;
use pbo_core::engine::{AcqConfig, AlgoConfig, QeiConfig};
use pbo_core::observe::NullObserver;
use pbo_core::record::RunRecord;
use pbo_problems::Problem;
use pbo_problems::{SyntheticFn, UphesProblem};

/// One seeded three-cycle run.
fn run(kind: AlgorithmKind, problem: &dyn Problem, budget: &Budget) -> RunRecord {
    run_algorithm_observed(kind, problem, budget, quick_cfg(), 1, NullObserver)
        .expect("valid bench configuration")
}

fn quick_cfg() -> AlgoConfig {
    AlgoConfig {
        acq: AcqConfig { restarts: 2, raw_samples: 16, ..AcqConfig::default() },
        qei: QeiConfig { samples: 48, restarts: 2, raw_samples: 8 },
        cost_model: CostModel::Fixed { per_call: 1.0 },
        ..AlgoConfig::default()
    }
}

/// Three cycles of each algorithm at q = 4 on Ackley-12d.
fn bench_three_cycles_benchmarkfn(c: &mut Criterion) {
    let problem = SyntheticFn::ackley(12);
    let budget = Budget::cycles(3, 4).with_initial_samples(16);
    let mut g = c.benchmark_group("three_cycles_ackley12_q4");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    for kind in AlgorithmKind::paper_set() {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| run(k, &problem, &budget).best_y())
        });
    }
    g.finish();
}

/// Three cycles on the UPHES scheduling problem (includes simulator
/// cost).
fn bench_three_cycles_uphes(c: &mut Criterion) {
    let problem = UphesProblem::maizeret(42);
    let budget = Budget::cycles(3, 4).with_initial_samples(16);
    let mut g = c.benchmark_group("three_cycles_uphes_q4");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(10);
    for kind in [AlgorithmKind::MicQEgo, AlgorithmKind::Turbo] {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| run(k, &problem, &budget).best_y())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_three_cycles_benchmarkfn, bench_three_cycles_uphes);
criterion_main!(benches);
