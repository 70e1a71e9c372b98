//! # pbo-sampling — randomness, quasi-randomness and designs of experiments
//!
//! Everything stochastic in the workspace flows through this crate:
//!
//! - [`seed`]: SplitMix64 seed derivation so that one master seed per run
//!   yields independent, reproducible streams for DoE, model fitting
//!   restarts, acquisition restarts and simulator scenarios,
//! - [`normal`]: normal deviates (Box–Muller) and the normal
//!   pdf/cdf/quantile special functions used by Expected Improvement,
//! - [`sobol`]: a Sobol low-discrepancy sequence built from
//!   programmatically generated primitive polynomials over GF(2) with
//!   optional XOR scrambling (see module docs for the fidelity note),
//! - [`lhs`]: Latin hypercube designs for the initial sampling plan
//!   (`16 x n_batch` points, Table 2 of the paper).

pub mod lhs;
pub mod normal;
pub mod seed;
pub mod sobol;

pub use seed::SeedStream;

/// Scale a unit-cube point into the box `[lo, hi]` in place.
pub fn scale_to_box(u: &mut [f64], lo: &[f64], hi: &[f64]) {
    debug_assert_eq!(u.len(), lo.len());
    debug_assert_eq!(u.len(), hi.len());
    for i in 0..u.len() {
        u[i] = lo[i] + u[i] * (hi[i] - lo[i]);
    }
}

/// Map a box point back to the unit cube in place (the inverse of
/// [`scale_to_box`]); degenerate intervals map to 0.5.
pub fn scale_to_unit(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    for i in 0..x.len() {
        let w = hi[i] - lo[i];
        x[i] = if w > 0.0 { (x[i] - lo[i]) / w } else { 0.5 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_roundtrip() {
        let lo = [-2.0, 0.0, 10.0];
        let hi = [2.0, 1.0, 20.0];
        let mut x = [0.25, 0.5, 0.75];
        let orig = x;
        scale_to_box(&mut x, &lo, &hi);
        assert_eq!(x, [-1.0, 0.5, 17.5]);
        scale_to_unit(&mut x, &lo, &hi);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn degenerate_interval_maps_to_half() {
        let mut x = [3.0];
        scale_to_unit(&mut x, &[3.0], &[3.0]);
        assert_eq!(x[0], 0.5);
    }
}
