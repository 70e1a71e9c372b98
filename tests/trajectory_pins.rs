//! Cross-commit trajectory pins.
//!
//! The determinism suite compares runs against each other at one
//! commit; these tests compare every algorithm against constants
//! recorded once, so a refactor that changes any trajectory — a
//! record byte, an event, a charge on the virtual clock — fails here
//! even when it is perfectly reproducible.
//!
//! Each of the ten algorithms runs twice on a deterministic cost model
//! (`CostModel::Fixed`, via the test profile):
//!
//! - **budget**: a short virtual-time budget, so the fit and
//!   acquisition charges decide how many cycles fit;
//! - **faults**: the same budget over a 10 % fault plan with one retry
//!   per point, so the retry, imputation and `PointFaulted` paths run
//!   and their virtual-time charges shape the run.
//!
//! A third table pins the surrogate-fitting branches of
//! `Engine::fit_model` that the short budget above never reaches: the
//! dense full fit, the warm refit and the frozen-hyperparameter append,
//! and a full fit capped by `max_fit_points`. kb-q-EGO and mic-q-EGO (one and two
//! fantasies per append) run over a fixed cycle count, so every
//! scenario follows one known fit schedule, and each branch is asserted
//! to have run.
//!
//! A fourth table pins runs past `BIT_EXACT_MAX_N` = 128 training
//! points, where the posterior paths reassociate for speed (the
//! four-row backward solve, reciprocal-lengthscale cross blocks):
//! kb-q-EGO and mic-q-EGO on Ackley-12 from a 140-point design. Those
//! digests were recorded with the four-row backward solve and the
//! reciprocal-lengthscale `predict_many` cross block in place, so any
//! later change to the arithmetic above the bound shows here.
//!
//! Each run pins two FNV-1a-64 digests: of `RunRecord::to_json_line()`,
//! and of the collected event stream encoded one JSON line per event
//! with every field except the host wall time (`wall_ns`, zeroed).
//!
//! A failure prints every computed digest. Re-pin only for a change
//! that is *meant* to alter trajectories, and say so where it lands.

use pbo::core::checkpoint::fnv1a64;
use pbo::gp::FitConfig;
use pbo::prelude::*;
use pbo::problems::fault::silence_injected_panics;
use std::sync::{Arc, Mutex};

/// `(record digest, event-stream digest)` per algorithm, in
/// `AlgorithmKind::ALL` order. The mic-q-ego and mic-turbo rows (the
/// only algorithms that condition on two fantasies at once) were
/// re-pinned when fantasy appends moved onto the one exact Cholesky
/// extension; every other row predates that change.
const BUDGET_PINS: [(u64, u64); 10] = [
    (0x9719042818C22699, 0x7B954BD2C341FEF3), // kb-q-ego
    (0x473D50A24D719C41, 0xFBE1913906A450FF), // mic-q-ego
    (0x6D6EE8DB7FAEA66A, 0x74CE1CE911BDA381), // mc-q-ego
    (0x4A962E961713855C, 0x689D832FB979A86A), // bsp-ego
    (0xC0F9FBDDA7B0C8EC, 0xE1DE70CD131193F8), // turbo
    (0x2200EA9D971AC607, 0x87DB3DDAD1CC607C), // random
    (0x51E66D81357D40FB, 0x7541273AAB9D6FE4), // thompson
    (0x01C87B85F6810344, 0x662667A4A2331E3D), // mic-turbo
    (0xC5F7D1CCB06AA814, 0xEDD3C4507102CCA4), // gp-ucb-pe
    (0x2991279AF4625052, 0xCB5E302C4A4DF55F), // hybrid-q
];
/// Recorded over `FaultPlan::uniform(6, 0.10)`.
const FAULT_PINS: [(u64, u64); 10] = [
    (0x67E0B413ACCB937D, 0xD0DBD9BA749660EB), // kb-q-ego
    (0x44C25FC87234375F, 0xE6BBE0294D13DCA4), // mic-q-ego
    (0x10FCF5289151BCA6, 0x187F47BAEA0C6574), // mc-q-ego
    (0x79993BE05BB60D59, 0x29C110C1EC446691), // bsp-ego
    (0x04235AF08FEB6077, 0x7A3CCF34085B1D96), // turbo
    (0xBC1CD41F2E50FDBD, 0xB5254093638604E6), // random
    (0x20A7574C0C888E97, 0xA128FD848C003A48), // thompson
    (0xA323C9623E36C200, 0xDF3F589A4054EF39), // mic-turbo
    (0xEE31099FEEDB35B4, 0x8C2D70DC263C1451), // gp-ucb-pe
    (0xEF2B5683791E9913, 0xDB43AA3AC9CBB11B), // hybrid-q
];

/// Per fit-branch scenario, kb-q-ego then mic-q-ego.
const FIT_BRANCH_PINS: [(u64, u64); 6] = [
    (0xD40369AF1F7C1DC5, 0x2CF533027169B766), // warm-refit kb-q-ego
    (0x87325662290E4FBE, 0x44F57B6995005B33), // warm-refit mic-q-ego
    (0x90D088B4B55EF26A, 0xCD3A5E1C8E1E2E50), // append kb-q-ego
    (0x027684328C16C264, 0xA1B0D8EE5EEA9DD0), // append mic-q-ego
    (0x693AB3D5EED3E677, 0x8B80B4E3F6D475C8), // capped kb-q-ego
    (0x7E04AF9E55743D28, 0x22A566CF9FAAF22D), // capped mic-q-ego
];

/// kb-q-ego then mic-q-ego from a 140-point design, above
/// `BIT_EXACT_MAX_N`.
const ABOVE_BOUND_PINS: [(u64, u64); 2] = [
    (0xB6732FFB67ED773B, 0x26389F18531120C7), // kb-q-ego
    (0x4AB6CB05D92F2E01, 0x489A15D8B05BD670), // mic-q-ego
];

/// 50 virtual seconds at q = 3: about four cycles once fit and
/// acquisition are charged, five for random search, which charges
/// neither.
fn budget() -> Budget {
    Budget { stopping: Stopping::VirtualTime(50.0), ..Budget::cycles(0, 3).with_initial_samples(8) }
}

fn event_digest(events: &[Event]) -> u64 {
    let mut text = String::new();
    for ev in events {
        let mut ev = ev.clone();
        match &mut ev {
            Event::FitCompleted { wall_ns, .. } | Event::AcquisitionCompleted { wall_ns, .. } => {
                *wall_ns = 0
            }
            _ => {}
        }
        text.push_str(&ev.to_json_line());
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

fn pinned_run(
    kind: AlgorithmKind,
    problem: &dyn Problem,
    budget: &Budget,
    cfg: AlgoConfig,
) -> (RunRecord, Vec<Event>) {
    let sink = Arc::new(Mutex::new(CollectingObserver::new()));
    let r = run_algorithm_observed(kind, problem, budget, cfg, 2022, sink.clone())
        .expect("valid pinned configuration");
    let events = std::mem::take(&mut sink.lock().unwrap().events);
    (r, events)
}

/// Compare every digest with its pin; on any mismatch, fail listing
/// all computed digests in pin-table form, one labelled row per run.
fn check(scenario: &str, labels: &[String], pins: &[(u64, u64)], got: &[(u64, u64)]) {
    let table: String = labels
        .iter()
        .zip(got)
        .map(|(l, (r, e))| format!("    (0x{r:016X}, 0x{e:016X}), // {l}\n"))
        .collect();
    assert_eq!(got, pins, "{scenario} trajectories moved; computed:\n{table}");
}

#[test]
fn virtual_time_budget_trajectories_are_pinned() {
    let problem = SyntheticFn::ackley(3);
    let mut got = Vec::new();
    for kind in AlgorithmKind::ALL {
        let (r, events) = pinned_run(kind, &problem, &budget(), AlgoConfig::test_profile());
        let (fit, acq, _) = r.time_split();
        if kind != AlgorithmKind::RandomSearch {
            assert!(fit > 0.0 && acq > 0.0, "{kind:?}: surrogate work must be charged");
        }
        got.push((fnv1a64(r.to_json_line().as_bytes()), event_digest(&events)));
    }
    check("budget", &algorithm_labels(), &BUDGET_PINS, &got);
}

#[test]
fn faulty_trajectories_are_pinned() {
    silence_injected_panics();
    let inner = SyntheticFn::ackley(3);
    let cfg = AlgoConfig {
        ft: FtPolicy { max_retries: 1, ..FtPolicy::default() },
        ..AlgoConfig::test_profile()
    };
    let mut got = Vec::new();
    let mut totals = FaultCounters::default();
    let mut faulted_events = 0;
    for kind in AlgorithmKind::ALL {
        let problem = FaultyProblem::new(&inner, FaultPlan::uniform(6, 0.10));
        let (r, events) = pinned_run(kind, &problem, &budget(), cfg.clone());
        totals.merge(&r.fault_totals());
        faulted_events += events.iter().filter(|e| e.name() == "point_faulted").count();
        got.push((fnv1a64(r.to_json_line().as_bytes()), event_digest(&events)));
    }
    // The pins must cover the fault paths, not just a lucky clean run.
    assert!(totals.retries > 0, "no retry ran: {totals:?}");
    assert!(totals.imputed > 0, "no imputation ran: {totals:?}");
    assert!(faulted_events > 0, "no point_faulted event was emitted");
    check("faults", &algorithm_labels(), &FAULT_PINS, &got);
}

fn algorithm_labels() -> Vec<String> {
    AlgorithmKind::ALL.iter().map(|k| k.name().to_string()).collect()
}

/// Name the `fit_model` branch behind one `FitCompleted` event: `n` and
/// `full` come from the event, and a fit that ran no hyperparameter
/// search reports zero starts.
fn fit_branch(cfg: &AlgoConfig, n: usize, full: bool, starts: usize) -> &'static str {
    let capped = cfg.fit.max_fit_points.is_some_and(|cap| n > cap);
    match full {
        true if capped => "capped full fit",
        true => "dense full fit",
        false if starts > 0 => "dense warm refit",
        false => "dense append",
    }
}

#[test]
fn fit_branch_trajectories_are_pinned() {
    // Full fits on cycles 0 and 3 at n = 8 and 17; three points a cycle.
    let budget = Budget::cycles(5, 3).with_initial_samples(8);
    let base = AlgoConfig { full_fit_every: 3, ..AlgoConfig::test_profile() };
    let scenarios = [
        ("warm-refit", base.clone()),
        ("append", AlgoConfig { incremental_updates: true, ..base.clone() }),
        (
            "capped",
            AlgoConfig { fit: FitConfig { max_fit_points: Some(10), ..base.fit.clone() }, ..base },
        ),
    ];
    let problem = SyntheticFn::ackley(3);
    let mut labels = Vec::new();
    let mut got = Vec::new();
    let mut branches = std::collections::BTreeSet::new();
    for (scenario, cfg) in &scenarios {
        for kind in [AlgorithmKind::KbQEgo, AlgorithmKind::MicQEgo] {
            let (r, events) = pinned_run(kind, &problem, &budget, cfg.clone());
            for ev in &events {
                if let Event::FitCompleted { n, full, restarts, fallback, .. } = ev {
                    assert!(!fallback, "{scenario} {}: fit fell back at n = {n}", kind.name());
                    branches.insert(fit_branch(cfg, *n, *full, *restarts));
                }
            }
            labels.push(format!("{scenario} {}", kind.name()));
            got.push((fnv1a64(r.to_json_line().as_bytes()), event_digest(&events)));
        }
    }
    let want = ["capped full fit", "dense append", "dense full fit", "dense warm refit"];
    assert_eq!(branches.into_iter().collect::<Vec<_>>(), want, "a fit branch went unpinned");
    check("fit-branch", &labels, &FIT_BRANCH_PINS, &got);
}

#[test]
fn above_bound_trajectories_are_pinned() {
    // Three cycles of four points from 140: every fit, prescreen and
    // polish runs with n > BIT_EXACT_MAX_N.
    let budget = Budget::cycles(3, 4).with_initial_samples(140);
    let problem = SyntheticFn::ackley(12);
    let kinds = [AlgorithmKind::KbQEgo, AlgorithmKind::MicQEgo];
    let got: Vec<(u64, u64)> = kinds
        .iter()
        .map(|&kind| {
            let (r, events) = pinned_run(kind, &problem, &budget, AlgoConfig::test_profile());
            assert_eq!(r.n_simulations(), 152, "{}", kind.name());
            (fnv1a64(r.to_json_line().as_bytes()), event_digest(&events))
        })
        .collect();
    let labels: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
    check("above-bound", &labels, &ABOVE_BOUND_PINS, &got);
}
