//! Replayable JSONL trace sink: one event per line, deterministic
//! field order.
//!
//! The workspace vendors no JSON library, so the encoding is
//! hand-rolled: each [`Event`] variant serializes its fields in
//! declaration order, floats print through Rust's shortest-roundtrip
//! `Display` (bit-faithful on re-parse), and non-finite floats encode
//! as `null`. A trace is therefore a stable, diffable function of the
//! event stream — two runs emitting identical events produce
//! byte-identical traces except for the host-measured `wall_ns`
//! payloads.
//!
//! [`validate_line`] is the matching checker used by the CI trace
//! smoke: it parses a line with [`crate::json::parse`], rejects
//! insignificant whitespace and returns the `event` name, so a run's
//! trace can be verified to parse and reconcile without any external
//! tooling.

use super::{Event, Observer};
use crate::json::{self, push_str_literal};
use crate::record::push_fault_counters;
use std::io::Write;

/// Write an f64: shortest-roundtrip decimal, `null` for non-finite.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

impl Event {
    /// Encode as one JSON line (no trailing newline), fields in a
    /// deterministic order with `event` first.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"event\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            Event::RunStarted { algorithm, problem, seed, q, dim } => {
                s.push_str(",\"algorithm\":");
                push_str_literal(&mut s, algorithm);
                s.push_str(",\"problem\":");
                push_str_literal(&mut s, problem);
                s.push_str(&format!(",\"seed\":{seed},\"q\":{q},\"dim\":{dim}"));
            }
            Event::DesignEvaluated { requested, evaluated, faults } => {
                s.push_str(&format!(
                    ",\"requested\":{requested},\"evaluated\":{evaluated},\"faults\":"
                ));
                push_fault_counters(&mut s, faults, push_json_f64);
            }
            Event::CycleStarted { cycle, clock } => {
                s.push_str(&format!(",\"cycle\":{cycle},\"clock\":"));
                push_json_f64(&mut s, *clock);
            }
            Event::FitCompleted {
                cycle,
                n,
                full,
                restarts,
                evals,
                mll,
                fallback,
                wall_ns,
                virtual_s,
            } => {
                s.push_str(&format!(
                    ",\"cycle\":{cycle},\"n\":{n},\"full\":{full},\
                     \"restarts\":{restarts},\"evals\":{evals},\"mll\":"
                ));
                push_json_f64(&mut s, *mll);
                s.push_str(&format!(
                    ",\"fallback\":{fallback},\"wall_ns\":{wall_ns},\"virtual_s\":"
                ));
                push_json_f64(&mut s, *virtual_s);
            }
            Event::AcquisitionCompleted {
                cycle,
                algo,
                q,
                restart_shortfall,
                wall_ns,
                virtual_s,
            } => {
                s.push_str(&format!(",\"cycle\":{cycle},\"algo\":"));
                push_str_literal(&mut s, algo);
                s.push_str(&format!(
                    ",\"q\":{q},\"restart_shortfall\":{restart_shortfall},\
                     \"wall_ns\":{wall_ns},\"virtual_s\":"
                ));
                push_json_f64(&mut s, *virtual_s);
            }
            Event::PointFaulted { index, attempts, recovered, faults } => {
                s.push_str(&format!(
                    ",\"index\":{index},\"attempts\":{attempts},\
                     \"recovered\":{recovered},\"faults\":"
                ));
                push_fault_counters(&mut s, faults, push_json_f64);
            }
            Event::BatchEvaluated { cycle, n_points, n_evals, faults, virtual_s } => {
                s.push_str(&format!(
                    ",\"cycle\":{cycle},\"n_points\":{n_points},\
                     \"n_evals\":{n_evals},\"faults\":"
                ));
                push_fault_counters(&mut s, faults, push_json_f64);
                s.push_str(",\"virtual_s\":");
                push_json_f64(&mut s, *virtual_s);
            }
            Event::IncumbentImproved { cycle, best_y_min } => {
                s.push_str(&format!(",\"cycle\":{cycle},\"best_y_min\":"));
                push_json_f64(&mut s, *best_y_min);
            }
            Event::RunFinished { n_cycles, n_simulations, best_y_min, final_clock } => {
                s.push_str(&format!(
                    ",\"n_cycles\":{n_cycles},\"n_simulations\":{n_simulations},\
                     \"best_y_min\":"
                ));
                push_json_f64(&mut s, *best_y_min);
                s.push_str(",\"final_clock\":");
                push_json_f64(&mut s, *final_clock);
            }
        }
        s.push('}');
        s
    }
}

/// JSONL trace sink: one event per line to any [`Write`] target.
///
/// The writer buffers internally; lines are flushed on drop or via
/// [`JsonlTraceWriter::flush`]. An I/O failure poisons the sink (it
/// stops writing and remembers the error) rather than panicking
/// mid-run — observation must never take a run down.
pub struct JsonlTraceWriter<W: Write> {
    out: std::io::BufWriter<W>,
    lines: u64,
    error: Option<std::io::ErrorKind>,
}

impl<W: Write> JsonlTraceWriter<W> {
    /// Wrap a write target.
    pub fn new(target: W) -> Self {
        JsonlTraceWriter { out: std::io::BufWriter::new(target), lines: 0, error: None }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// The first I/O error encountered, if any.
    pub fn io_error(&self) -> Option<std::io::ErrorKind> {
        self.error
    }

    /// Flush buffered lines to the target.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl JsonlTraceWriter<std::fs::File> {
    /// Create (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlTraceWriter::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> Observer for JsonlTraceWriter<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn on_event(&mut self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e.kind()),
        }
    }
}

impl<W: Write> Drop for JsonlTraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Validate one trace line as strict single-line JSON (no insignificant
/// whitespace — exactly what [`Event::to_json_line`] emits) and return
/// its `event` name.
pub fn validate_line(line: &str) -> Result<String, String> {
    // `json::parse` tolerates whitespace between tokens; a trace line
    // carries none, so any outside a string literal is rejected first.
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in line.bytes().enumerate() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
        } else if c == b'"' {
            in_str = true;
        } else if c.is_ascii_whitespace() {
            return Err(format!("insignificant whitespace at byte {i}"));
        }
    }
    json::parse(line)?
        .get("event")
        .and_then(json::Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "line has no string \"event\" field".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FaultCounters;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                algorithm: "kb-q-ego".into(),
                problem: "ackley-4d \"x\"".into(),
                seed: 7,
                q: 2,
                dim: 4,
            },
            Event::DesignEvaluated {
                requested: 8,
                evaluated: 7,
                faults: FaultCounters { dropped: 1, ..FaultCounters::default() },
            },
            Event::CycleStarted { cycle: 0, clock: 0.0 },
            Event::FitCompleted {
                cycle: 0,
                n: 7,
                full: true,
                restarts: 3,
                evals: 120,
                mll: -12.75,
                fallback: false,
                wall_ns: 12345,
                virtual_s: 1.0,
            },
            Event::AcquisitionCompleted {
                cycle: 0,
                algo: "kb-q-ego".into(),
                q: 2,
                restart_shortfall: 0,
                wall_ns: 999,
                virtual_s: 0.25,
            },
            Event::PointFaulted {
                index: 1,
                attempts: 3,
                recovered: true,
                faults: FaultCounters { retries: 2, panics: 2, ..FaultCounters::default() },
            },
            Event::BatchEvaluated {
                cycle: 0,
                n_points: 2,
                n_evals: 2,
                faults: FaultCounters::default(),
                virtual_s: 10.6,
            },
            Event::IncumbentImproved { cycle: 0, best_y_min: -0.5 },
            Event::RunFinished {
                n_cycles: 1,
                n_simulations: 9,
                best_y_min: f64::NAN,
                final_clock: 11.85,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_the_validator() {
        for e in sample_events() {
            let line = e.to_json_line();
            let name = validate_line(&line)
                .unwrap_or_else(|err| panic!("line failed to validate: {err}\n  {line}"));
            assert_eq!(name, e.name());
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = sample_events();
        let b = sample_events();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_json_line(), y.to_json_line());
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let e = Event::IncumbentImproved { cycle: 0, best_y_min: f64::INFINITY };
        assert!(e.to_json_line().contains("\"best_y_min\":null"));
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 1e-300, -5.5e17, 10.600000000000001] {
            let mut s = String::new();
            push_json_f64(&mut s, v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}", // no event field
            "not json",
            "{\"event\":\"x\"} trailing",
            "{\"event\":\"x\",}",
            "{\"event\":\"x\",\"v\":nul}",
            "{\"event\":\"x\",\"v\":1.2.3}",
            "{\"event\": \"x\"}", // insignificant whitespace
        ] {
            assert!(validate_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn writer_emits_one_line_per_event_and_flushes_on_drop() {
        let mut buf = Vec::new();
        {
            let mut w = JsonlTraceWriter::new(&mut buf);
            for e in sample_events() {
                w.on_event(&e);
            }
            assert_eq!(w.lines_written(), 9);
            assert!(w.enabled());
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        for l in lines {
            validate_line(l).unwrap();
        }
    }

    #[test]
    fn writer_poisons_on_io_error_instead_of_panicking() {
        struct Fail;
        impl Write for Fail {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("boom"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Zero-capacity BufWriter is not possible; force the write
        // through with a long line by emitting many events.
        let mut w = JsonlTraceWriter::new(Fail);
        for _ in 0..100_000 {
            w.on_event(&Event::CycleStarted { cycle: 0, clock: 0.0 });
            if !w.enabled() {
                break;
            }
        }
        assert!(w.io_error().is_some());
        assert!(!w.enabled());
    }
}
