//! BLAS-1 style operations on `&[f64]` slices.
//!
//! All functions are panic-on-shape-mismatch (debug assertions) because
//! they sit on the hottest paths of the GP stack; callers validate shapes
//! at API boundaries.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four-way unrolled accumulation: lets the compiler keep independent
    // FMA chains in flight, which matters for the O(n^3) Cholesky inner
    // loops built on this function.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for j in chunks * 4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Four independent dot products `a[k] · b[k]`, run in lockstep.
///
/// Each result is bit-identical to [`dot`] on the same pair: every lane
/// keeps `dot`'s four accumulators, chunked from its own slice start,
/// and finishes with the same combine and tail order. Lanes may differ
/// in length. The whole chunks all four lanes share run interleaved, so
/// sixteen independent add chains are in flight where one `dot` keeps
/// four; each lane then finishes its own remaining chunks and tail.
#[inline]
pub fn dot4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [f64; 4] {
    for k in 0..4 {
        debug_assert_eq!(a[k].len(), b[k].len());
    }
    let chunks = a.map(|s| s.len() / 4);
    let common = chunks.iter().copied().min().unwrap_or(0);
    let mut acc = [[0.0f64; 4]; 4];
    {
        // Trimmed to the shared chunks so the indexing below is provably
        // in bounds.
        let x = a.map(|s| &s[..common * 4]);
        let y = b.map(|s| &s[..common * 4]);
        for c in 0..common {
            let j = c * 4;
            for k in 0..4 {
                let (xk, yk, s) = (&x[k][j..j + 4], &y[k][j..j + 4], &mut acc[k]);
                s[0] += xk[0] * yk[0];
                s[1] += xk[1] * yk[1];
                s[2] += xk[2] * yk[2];
                s[3] += xk[3] * yk[3];
            }
        }
    }
    let mut out = [0.0; 4];
    for k in 0..4 {
        let (xk, yk, s) = (a[k], b[k], &mut acc[k]);
        for j in (common..chunks[k]).map(|c| c * 4) {
            s[0] += xk[j] * yk[j];
            s[1] += xk[j + 1] * yk[j + 1];
            s[2] += xk[j + 2] * yk[j + 2];
            s[3] += xk[j + 3] * yk[j + 3];
        }
        let mut t = (s[0] + s[1]) + (s[2] + s[3]);
        for j in chunks[k] * 4..xk.len() {
            t += xk[j] * yk[j];
        }
        out[k] = t;
    }
    out
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (ai, bi) in a.iter().zip(b) {
        let d = ai - bi;
        s += d * d;
    }
    s
}

/// Weighted squared distance `sum_i ((a_i - b_i) * w_i)^2`, the kernel-space
/// distance used by ARD (automatic relevance determination) kernels where
/// `w_i = 1 / lengthscale_i`.
#[inline]
pub fn weighted_dist2(a: &[f64], b: &[f64], inv_lengthscales: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), inv_lengthscales.len());
    let mut s = 0.0;
    for i in 0..a.len() {
        let d = (a[i] - b[i]) * inv_lengthscales[i];
        s += d * d;
    }
    s
}

/// Elementwise sum of two slices into a fresh `Vec`.
#[inline]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise difference `a - b` into a fresh `Vec`.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Infinity norm (largest absolute entry); 0 for an empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Mean of a slice; 0 for an empty slice.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Unbiased sample variance; 0 for slices shorter than 2.
#[inline]
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Clamp each coordinate of `x` into `[lo_i, hi_i]`.
#[inline]
pub fn clamp_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    for i in 0..x.len() {
        x[i] = x[i].clamp(lo[i], hi[i]);
    }
}

/// Index of the minimum value (first occurrence). `None` for empty input.
#[inline]
pub fn argmin(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, bv)) if v >= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value (first occurrence). `None` for empty input.
#[inline]
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot4_lanes_match_dot_bitwise() {
        // Every lane draws its own length in 0..=67 and its own offsets
        // into the operand buffers, so lanes end their shared chunks,
        // their own chunks and their tails at different points.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut draw = |scale: f64, shift: f64| -> Vec<f64> {
            (0..160).map(|_| (next() >> 11) as f64 / scale - shift).collect()
        };
        let xs = draw((1u64 << 40) as f64, 4096.0);
        let ys = draw((1u64 << 45) as f64, 128.0);
        for trial in 0..4000 {
            let len: [usize; 4] = std::array::from_fn(|_| (next() % 68) as usize);
            let off: [(usize, usize); 4] =
                std::array::from_fn(|_| ((next() % 90) as usize, (next() % 90) as usize));
            let a: [&[f64]; 4] = std::array::from_fn(|k| &xs[off[k].0..off[k].0 + len[k]]);
            let b: [&[f64]; 4] = std::array::from_fn(|k| &ys[off[k].1..off[k].1 + len[k]]);
            let got = dot4(a, b);
            for k in 0..4 {
                let want = dot(a[k], b[k]);
                assert!(
                    got[k].to_bits() == want.to_bits(),
                    "trial {trial} lane {k} (lens {len:?}): {} vs {want}",
                    got[k]
                );
            }
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn weighted_dist2_matches_manual() {
        let a = [1.0, 2.0];
        let b = [0.0, 4.0];
        let w = [2.0, 0.5];
        // ((1-0)*2)^2 + ((2-4)*0.5)^2 = 4 + 1 = 5
        assert!((weighted_dist2(&a, &b, &w) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0; 10]), 0.0);
    }

    #[test]
    fn variance_matches_known() {
        // var([1,2,3,4]) with Bessel correction = 5/3
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn argmin_argmax_first_occurrence() {
        let x = [3.0, 1.0, 1.0, 5.0, 5.0];
        assert_eq!(argmin(&x), Some(1));
        assert_eq!(argmax(&x), Some(3));
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn clamp_box_respects_bounds() {
        let mut x = [-2.0, 0.5, 9.0];
        clamp_box(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, [0.0, 0.5, 1.0]);
    }
}
