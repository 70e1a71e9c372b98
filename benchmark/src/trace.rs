//! In-memory spans around the calls the benchmark makes into each layer,
//! their JSONL export, and the fold into a per-layer table.
//!
//! Spans are recorded only when tracing is on; a disabled [`Tracer`]
//! costs a branch per call site. Nothing here reaches into the product:
//! every span wraps a public call the benchmark itself makes, or is
//! rebuilt from the host wall time an engine event already carries.

use crate::stats;
use pbo_core::observe::{Event, Observer};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `gp.fit`.
    pub name: &'static str,
    /// Unique within one tracer (never 0).
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Cycle index (in-process workloads) or request sequence number
    /// (served workloads).
    pub tag: u64,
}

/// A span that has started: children cite `id` as their parent.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the closed span will carry (0 when tracing is off).
    pub id: u64,
    start_ns: u64,
}

/// Collects spans from any thread until [`Tracer::take`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        // Only uniqueness matters; the counter publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a span.
    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open { id: 0, start_ns: 0 };
        }
        Open {
            id: self.fresh_id(),
            start_ns: self.now_ns(),
        }
    }

    /// Close a span started with [`Tracer::open`].
    pub fn close(&self, open: Open, name: &'static str, parent: u64, tag: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.push(Span {
                name,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
                tag,
            });
        }
    }

    /// Record a span whose bounds are already known (e.g. rebuilt from
    /// an engine event's wall time).
    pub fn record(&self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64, tag: u64) {
        if self.enabled {
            let id = self.fresh_id();
            self.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                tag,
            });
        }
    }

    /// Run `f` inside a span; `f` receives the span id for its children.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        parent: u64,
        tag: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let open = self.open();
        let out = f(open.id);
        self.close(open, name, parent, tag);
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Fit and acquisition counts taken from engine events.
#[derive(Debug, Default)]
pub struct EngineCounts {
    /// Full multistart fits.
    pub full_fits: AtomicU64,
    /// MLL evaluations over all fits.
    pub mll_evals: AtomicU64,
    /// Multistart restarts lost to non-finite acquisition values.
    pub restart_shortfall: AtomicU64,
}

/// Engine observer that rebuilds `gp.fit` and `acq` spans from the host
/// wall time `FitCompleted` and `AcquisitionCompleted` already carry,
/// under whatever span `parent` holds when the event arrives. It owns
/// its handles because a session's observer must be `'static`.
pub struct EventSpans {
    /// Where the spans go.
    pub tracer: Arc<Tracer>,
    /// Id of the engine call in progress (`propose`, or a session ask).
    pub parent: Arc<AtomicU64>,
    /// Counts accumulated from the same events.
    pub counts: Arc<EngineCounts>,
}

impl Observer for EventSpans {
    fn on_event(&mut self, event: &Event) {
        // Statistics only: relaxed atomics publish no other data.
        let (name, cycle, wall_ns) = match *event {
            Event::FitCompleted {
                cycle,
                wall_ns,
                evals,
                full,
                ..
            } => {
                self.counts
                    .full_fits
                    .fetch_add(u64::from(full), Ordering::Relaxed);
                self.counts
                    .mll_evals
                    .fetch_add(evals as u64, Ordering::Relaxed);
                ("gp.fit", cycle, wall_ns)
            }
            Event::AcquisitionCompleted {
                cycle,
                wall_ns,
                restart_shortfall,
                ..
            } => {
                self.counts
                    .restart_shortfall
                    .fetch_add(restart_shortfall as u64, Ordering::Relaxed);
                ("acq", cycle, wall_ns)
            }
            _ => return,
        };
        let end = self.tracer.now_ns();
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer
            .record(name, parent, end.saturating_sub(wall_ns), end, cycle as u64);
    }
}

/// Host cost of recording one span, measured on a scratch tracer; the
/// traced run multiplies it by its span count to estimate its overhead.
pub fn ns_per_span() -> f64 {
    const N: u64 = 20_000;
    let tracer = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..N {
        tracer.in_span("calibrate", 0, i, |_| ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span], workload: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\",\"tag\":{}}}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns, s.tag
        )?;
    }
    out.flush()
}

/// One row of the per-layer table: every span of one name.
#[derive(Debug, Clone)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans folded into the row.
    pub count: usize,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times: each span minus the part of it its children
    /// cover.
    pub self_ns: u64,
    /// Individual span durations, ms.
    pub durations_ms: Vec<f64>,
}

/// All spans of a run folded by name.
#[derive(Debug, Clone)]
pub struct Fold {
    /// Rows by descending self time.
    pub rows: Vec<Row>,
    /// Summed durations of the root spans: the traced wall, counted per
    /// thread.
    pub root_ns: u64,
}

impl Fold {
    /// The row for `name`, if any span had it.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Summed durations of `name` spans, ms (0 when none ran).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.total_ns as f64 / 1e6)
    }

    /// Summed self times of `name` spans, ms (0 when none ran).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.self_ns as f64 / 1e6)
    }

    /// Number of `name` spans.
    pub fn count(&self, name: &str) -> usize {
        self.row(name).map_or(0, |r| r.count)
    }

    /// Summed self times over every row, ns. Equals `root_ns` when
    /// children nest inside their parents and do not overlap.
    pub fn self_sum_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.self_ns).sum()
    }

    /// The table `--trace 1` prints: count, total, self time, share of
    /// the traced wall, and p50/p95 where enough spans exist.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12} {:>7} {:>10} {:>10}\n",
            "layer", "count", "total_ms", "self_ms", "share%", "p50_ms", "p95_ms"
        );
        let pct = |p: u32, r: &Row| {
            stats::percentile(&r.durations_ms, p).map_or("-".to_string(), |v| format!("{v:.4}"))
        };
        for r in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12.3} {:>12.3} {:>7.2} {:>10} {:>10}\n",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / self.root_ns.max(1) as f64,
                pct(50, r),
                pct(95, r),
            ));
        }
        out
    }
}

/// Fold spans by name, computing self times from the union of each
/// span's children (children may overlap when they ran on pool threads).
pub fn fold(spans: &[Span]) -> Fold {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        if s.parent == 0 {
            root_ns += dur;
        }
        let row = rows.entry(s.name).or_insert_with(|| Row {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durations_ms: Vec::new(),
        });
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(covered);
        row.durations_ms.push(dur as f64 / 1e6);
    }
    let mut rows: Vec<Row> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    Fold { rows, root_ns }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 1, 0, 0, 100),
            span("fit", 2, 1, 10, 40),
            // Two overlapping children (pool threads): union is 50..80.
            span("eval", 3, 1, 50, 70),
            span("eval", 4, 1, 60, 80),
        ];
        let f = fold(&spans);
        assert_eq!(f.root_ns, 100);
        assert_eq!(f.row("run").unwrap().self_ns, 100 - 30 - 30);
        assert_eq!(f.row("eval").unwrap().self_ns, 40);
        assert_eq!(f.count("eval"), 2);
        assert_eq!(f.total_ms("fit"), 30.0 / 1e6);
        assert_eq!(f.total_ms("absent"), 0.0);
    }

    #[test]
    fn nested_spans_fold_to_the_root_wall() {
        let tracer = Tracer::new(true);
        tracer.in_span("run", 0, 0, |run| {
            for c in 0..3 {
                tracer.in_span("cycle", run, c, |cycle| {
                    tracer.in_span("propose", cycle, c, |_| std::hint::black_box(c * 2));
                });
            }
        });
        let f = fold(&tracer.take());
        assert_eq!(f.self_sum_ns(), f.root_ns);
        assert_eq!(f.count("cycle"), 3);
        assert!(f.table().contains("propose"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.in_span("run", 0, 0, |id| assert_eq!(id, 0));
        tracer.record("fit", 0, 1, 2, 0);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn covered_ns_clips_and_merges() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 2, 25), 13 + 5);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
