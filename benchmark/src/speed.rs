//! Host-speed normalisation for the CPU-bound, in-process workloads.
//!
//! On the shared 2-vCPU host the baseline was recorded on, identical
//! work takes up to twice as long from one second to the next, and the
//! thread's CPU time inflates with the wall time: the contention is
//! inside the core, not preemption, so no clock escapes it. The
//! `acq_q16` set-ups and run walls are therefore reported at reference
//! speed: measured intervals are divided by the slowdown of a fixed
//! floating-point kernel, sharing no code with the product, timed
//! between them. The served workloads wait on the wire and the paper
//! run's wall is capped by its virtual budget; both are reported as
//! measured.

use std::time::Instant;

/// Uncontended duration of [`reference_ms`] on the host the baseline
/// was recorded on, ms. On another host only the scale of the
/// normalised values changes, equally for every commit measured there.
const NOMINAL_MS: f64 = 0.56;

/// One timing of a fixed 48×48 matrix product repeated 30 times, ms.
fn reference_ms() -> f64 {
    const M: usize = 48;
    let a: Vec<f64> = std::hint::black_box((0..M * M).map(|i| (i % 7) as f64 * 0.1).collect());
    let mut c = vec![0.0; M * M];
    let t0 = Instant::now();
    for _ in 0..30 {
        for i in 0..M {
            for k in 0..M {
                let aik = a[i * M + k];
                for j in 0..M {
                    c[i * M + j] += aik * a[k * M + j];
                }
            }
        }
    }
    std::hint::black_box(&c);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How much slower than nominal the host runs right now: the median of
/// three reference timings over [`NOMINAL_MS`].
pub fn slowdown() -> f64 {
    let mut t = [reference_ms(), reference_ms(), reference_ms()];
    t.sort_by(f64::total_cmp);
    t[1] / NOMINAL_MS
}

/// Accumulates intervals measured between [`slowdown`] samples, raw and
/// at reference speed.
///
/// The host flips between a fast and a ~1.8× slower state many times a
/// second, so a sample taken between two cycles says little about
/// either. Every accumulated interval is therefore scaled by the mean of
/// all samples taken around them: on blocks of ten identical GP fits
/// on the baseline host, that cut the spread of the normalised time
/// from 12 % (each fit scaled by the samples next to it) to 9 %.
#[derive(Debug, Clone, Copy)]
pub struct Normalised {
    /// Summed wall time, s.
    pub raw_s: f64,
    slowdown_sum: f64,
    samples: u32,
}

impl Normalised {
    /// Start with a fresh slowdown sample.
    pub fn start() -> Normalised {
        Normalised {
            raw_s: 0.0,
            slowdown_sum: slowdown(),
            samples: 1,
        }
    }

    /// Add an interval that just ended and sample the slowdown again.
    pub fn add(&mut self, wall_s: f64) {
        self.raw_s += wall_s;
        self.slowdown_sum += slowdown();
        self.samples += 1;
    }

    /// Summed wall time at reference speed, s.
    pub fn norm_s(&self) -> f64 {
        self.raw_s * f64::from(self.samples) / self.slowdown_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_intervals_accumulate() {
        assert!(slowdown() > 0.0);
        let mut n = Normalised::start();
        n.add(0.5);
        n.add(0.25);
        assert_eq!(n.raw_s, 0.75);
        assert!(n.norm_s() > 0.0 && n.norm_s().is_finite());
    }
}
