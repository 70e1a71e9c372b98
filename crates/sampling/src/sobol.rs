//! Sobol low-discrepancy sequences.
//!
//! The generator is a textbook Bratley–Fox/Antonov–Saleev Gray-code Sobol
//! sequence. Primitive polynomials over GF(2) are **generated
//! programmatically** (irreducibility + order test against the factored
//! group order `2^s - 1`) instead of shipping the Joe–Kuo table, and the
//! free initial direction numbers `m_k` (any odd `m_k < 2^k` is valid)
//! are drawn from a fixed SplitMix64 stream.
//!
//! Fidelity note (recorded in DESIGN.md): this yields a mathematically
//! valid digital (t,s)-sequence with the same asymptotic discrepancy as a
//! Joe–Kuo-parameterised Sobol sequence; only the constants of the 2-D
//! projection quality differ. For the q-EI base samples used here
//! (dimension ≤ 32) the difference is immaterial, and the optional XOR
//! scrambling randomises the digits anyway.

use crate::seed::splitmix64;

/// Bits of resolution per coordinate.
const BITS: u32 = 31;

/// Fixed stream seed for the free initial direction numbers; changing it
/// changes the (equally valid) parameterisation of the sequence.
const DIRECTION_SEED: u64 = 0x5EED_D14E_C710_0B01;

/// Find primitive polynomials over GF(2) in increasing degree order.
///
/// A polynomial of degree `s` (bitmask with bit `s` = leading coeff) is
/// primitive iff `x` has multiplicative order `2^s - 1` in
/// `GF(2)[x]/(p)`.
fn primitive_polynomials(count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut degree: u32 = 1;
    while out.len() < count {
        assert!(degree <= 24, "requested more Sobol dimensions than supported");
        let lo = 1u64 << degree;
        let hi = 1u64 << (degree + 1);
        // Constant term must be 1 for primitivity.
        let mut p = lo | 1;
        while p < hi && out.len() < count {
            if is_primitive(p, degree) {
                out.push(p);
            }
            p += 2;
        }
        degree += 1;
    }
    out
}

/// Multiply two GF(2) polynomials modulo `modulus` (degree `deg`).
fn polymulmod(mut a: u64, mut b: u64, modulus: u64, deg: u32) -> u64 {
    let mut r = 0u64;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        b >>= 1;
        a <<= 1;
        if a & (1 << deg) != 0 {
            a ^= modulus;
        }
    }
    r
}

/// `x^e mod modulus` over GF(2).
fn polypowmod(mut e: u64, modulus: u64, deg: u32) -> u64 {
    let mut base = 2u64; // the polynomial `x`
    let mut r = 1u64;
    while e != 0 {
        if e & 1 != 0 {
            r = polymulmod(r, base, modulus, deg);
        }
        base = polymulmod(base, base, modulus, deg);
        e >>= 1;
    }
    r
}

/// Prime factors of `n` by trial division (n <= 2^24 here).
fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut fs = Vec::new();
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            fs.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        fs.push(n);
    }
    fs
}

/// Primitivity test for polynomial `p` of degree `s`.
fn is_primitive(p: u64, s: u32) -> bool {
    let order = (1u64 << s) - 1;
    if polypowmod(order, p, s) != 1 {
        return false;
    }
    for q in prime_factors(order) {
        if polypowmod(order / q, p, s) == 1 {
            return false;
        }
    }
    true
}

/// Per-dimension direction numbers `v_k = m_k << (BITS - k)`.
fn direction_numbers(dim_index: usize, poly: u64, seed: u64) -> [u32; BITS as usize] {
    let s = 63 - poly.leading_zeros(); // degree
    let mut m = [0u64; BITS as usize];
    if dim_index == 0 {
        // First dimension: van der Corput sequence, m_k = 1.
        for v in m.iter_mut() {
            *v = 1;
        }
    } else {
        // Free initial values: odd m_k < 2^k from a fixed stream.
        let mut state = seed ^ (dim_index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        for (k0, v) in m.iter_mut().take(s as usize).enumerate() {
            let k = (k0 + 1) as u32;
            *v = (splitmix64(&mut state) % (1u64 << (k - 1))) * 2 + 1;
        }
        // Recurrence: m_k = (XOR over interior coeffs a_i of 2^i m_{k-i})
        //             XOR 2^s m_{k-s} XOR m_{k-s}.
        for k in s as usize..BITS as usize {
            let mut mk = m[k - s as usize] ^ (m[k - s as usize] << s);
            for i in 1..s {
                if poly & (1 << (s - i)) != 0 {
                    mk ^= m[k - i as usize] << i;
                }
            }
            m[k] = mk;
        }
    }
    let mut v = [0u32; BITS as usize];
    for k in 0..BITS as usize {
        v[k] = (m[k] << (BITS as usize - k - 1)) as u32;
    }
    v
}

/// Gray-code Sobol sequence over the `dim`-dimensional unit cube.
#[derive(Debug, Clone)]
pub struct Sobol {
    dim: usize,
    index: u64,
    state: Vec<u32>,
    v: Vec<[u32; BITS as usize]>,
    scramble: Vec<u32>,
}

impl Sobol {
    /// Unscrambled sequence. The first emitted point is the origin-free
    /// point at index 1 (the all-zeros index-0 point is skipped, as is
    /// conventional for optimization use).
    pub fn new(dim: usize) -> Self {
        Self::with_scramble_seed(dim, None)
    }

    /// Digit-scrambled sequence: each coordinate stream is XORed with a
    /// random mask derived from `seed` (Owen-style "random digit shift").
    /// Index 0 is emitted too, since it is no longer the origin.
    pub fn scrambled(dim: usize, seed: u64) -> Self {
        Self::with_scramble_seed(dim, Some(seed))
    }

    fn with_scramble_seed(dim: usize, seed: Option<u64>) -> Self {
        assert!(dim >= 1, "Sobol dimension must be >= 1");
        let polys = primitive_polynomials(dim.max(2) - 1);
        let mut v = Vec::with_capacity(dim);
        // Dimension 0 uses the degenerate "van der Corput" direction
        // numbers; dimensions 1.. use successive primitive polynomials.
        v.push(direction_numbers(0, 0b11, 0));
        for d in 1..dim {
            v.push(direction_numbers(d, polys[d - 1], DIRECTION_SEED));
        }
        let scramble = match seed {
            None => vec![0u32; dim],
            Some(s) => {
                let mut state = s;
                (0..dim)
                    .map(|_| (splitmix64(&mut state) >> 33) as u32 & ((1 << BITS) - 1))
                    .collect()
            }
        };
        let skip_origin = seed.is_none();
        let mut sobol = Sobol { dim, index: 0, state: vec![0; dim], v, scramble };
        if skip_origin {
            sobol.advance();
        }
        sobol
    }

    /// Dimension of the sequence.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Advance the Gray-code state by one index.
    fn advance(&mut self) {
        // c = position of the lowest zero bit of `index`.
        let c = (!self.index).trailing_zeros() as usize;
        debug_assert!(c < BITS as usize, "Sobol sequence exhausted");
        for d in 0..self.dim {
            self.state[d] ^= self.v[d][c];
        }
        self.index += 1;
    }

    /// Next point in `[0,1)^dim`.
    pub fn next_point(&mut self) -> Vec<f64> {
        let scale = 1.0 / (1u64 << BITS) as f64;
        let p = (0..self.dim).map(|d| (self.state[d] ^ self.scramble[d]) as f64 * scale).collect();
        self.advance();
        p
    }

    /// Generate `n` points as rows of a flat row-major buffer.
    pub fn sample(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_dimension_is_van_der_corput() {
        let mut s = Sobol::new(1);
        let pts: Vec<f64> = (0..7).map(|_| s.next_point()[0]).collect();
        // Gray-code van der Corput visits {1/2, 3/4, 1/4, 3/8, 7/8, 5/8, 1/8}.
        let expect = [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125];
        for (p, e) in pts.iter().zip(&expect) {
            assert!((p - e).abs() < 1e-12, "{p} vs {e}");
        }
    }

    #[test]
    fn points_are_in_unit_cube_and_distinct() {
        let mut s = Sobol::new(6);
        let pts = s.sample(512);
        for p in &pts {
            assert_eq!(p.len(), 6);
            assert!(p.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
        // Gray-code Sobol never repeats within 2^BITS points.
        for i in 1..pts.len() {
            assert_ne!(pts[i - 1], pts[i]);
        }
    }

    #[test]
    fn balance_property_powers_of_two() {
        // Over indices 0..2^k each dimension puts exactly half the points
        // in [0, 0.5) (the defining net property). The unscrambled
        // sequence skips the origin, so its window 1..=2^k is balanced to
        // within one point.
        let mut s = Sobol::new(5);
        let pts = s.sample(256);
        for d in 0..5 {
            let below = pts.iter().filter(|p| p[d] < 0.5).count() as i64;
            assert!((below - 128).abs() <= 1, "dimension {d}: {below}");
        }
    }

    #[test]
    fn mean_approaches_half() {
        let mut s = Sobol::new(8);
        let pts = s.sample(1024);
        for d in 0..8 {
            let mean: f64 = pts.iter().map(|p| p[d]).sum::<f64>() / 1024.0;
            assert!((mean - 0.5).abs() < 0.01, "dim {d}: {mean}");
        }
    }

    #[test]
    fn scrambled_is_deterministic_per_seed() {
        let a = Sobol::scrambled(4, 9).sample(16);
        let b = Sobol::scrambled(4, 9).sample(16);
        let c = Sobol::scrambled(4, 10).sample(16);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scrambled_preserves_balance() {
        let mut s = Sobol::scrambled(3, 1234);
        let pts = s.sample(256);
        for d in 0..3 {
            let below = pts.iter().filter(|p| p[d] < 0.5).count();
            assert_eq!(below, 128, "dimension {d}");
        }
    }

    #[test]
    fn primitive_poly_generation_sane() {
        let ps = primitive_polynomials(10);
        assert_eq!(ps[0], 0b11); // x + 1
        assert_eq!(ps[1], 0b111); // x^2 + x + 1 (only primitive quadratic)
                                  // All returned masks have constant term 1 and are primitive.
        for &p in &ps {
            let s = 63 - p.leading_zeros();
            assert!(p & 1 == 1);
            assert!(is_primitive(p, s));
        }
        // Degrees are non-decreasing.
        for w in ps.windows(2) {
            assert!(w[1].leading_zeros() <= w[0].leading_zeros());
        }
    }

    #[test]
    fn high_dimension_supported() {
        let mut s = Sobol::new(64);
        let p = s.next_point();
        assert_eq!(p.len(), 64);
    }
}
