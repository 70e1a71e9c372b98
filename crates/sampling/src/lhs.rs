//! Latin hypercube designs of experiments.
//!
//! The paper's initial sampling plan is `16 x n_batch` points (Table 2).
//! We use Latin hypercube sampling — the standard BO DoE — with an
//! optional cheap maximin improvement (best of `k` random LHS draws by
//! minimum pairwise distance).
//!
//! The maximin score prunes pairs that cannot lower the running minimum
//! and abandons a draw as soon as it cannot win, yet it chooses exactly
//! the design the full O(n²d) scan would. Each pair's squared distance is
//! a sequential sum of non-negative terms in coordinate order, and a
//! rounded sum of non-negative terms never decreases as terms are added,
//! so a pair's first-coordinate term or any partial sum is a lower bound
//! on its full sum. Points are swept in order of their first coordinate,
//! and rounding is monotone, so along one point's sweep that first term
//! never shrinks. A pair, or the rest of a sweep, is skipped only when
//! such a bound already reaches the running minimum, so it could not
//! have lowered it. The pair that attains the minimum is therefore
//! always summed in full, in the same order, and every score that can
//! decide the choice keeps its bits. A later draw is abandoned once its
//! running minimum is at most the best score so far: its score can only
//! end there or lower, and a draw wins only on a strictly larger score.

use rand::seq::SliceRandom;
use rand::Rng;

/// One Latin hypercube design of `n` points in `[0,1)^dim`.
///
/// Each dimension is split into `n` equal strata; a random permutation
/// assigns one point per stratum, jittered uniformly within it.
pub fn latin_hypercube<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut pts = vec![vec![0.0; dim]; n];
    let mut perm: Vec<usize> = (0..n).collect();
    for d in 0..dim {
        perm.shuffle(rng);
        for (i, p) in pts.iter_mut().enumerate() {
            let u: f64 = rng.gen();
            p[d] = (perm[i] as f64 + u) / n as f64;
        }
    }
    pts
}

/// Centered Latin hypercube (points at stratum midpoints); deterministic
/// given the permutation draw, useful for tests.
pub fn centered_latin_hypercube<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    dim: usize,
) -> Vec<Vec<f64>> {
    let mut pts = vec![vec![0.0; dim]; n];
    let mut perm: Vec<usize> = (0..n).collect();
    for d in 0..dim {
        perm.shuffle(rng);
        for (i, p) in pts.iter_mut().enumerate() {
            p[d] = (perm[i] as f64 + 0.5) / n as f64;
        }
    }
    pts
}

/// Best-of-`tries` maximin LHS: keeps the draw whose minimum pairwise
/// squared distance is largest (the first on ties). `tries = 1`
/// degrades to plain LHS.
pub fn maximin_latin_hypercube<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    dim: usize,
    tries: usize,
) -> Vec<Vec<f64>> {
    let mut best: Option<(f64, Vec<Vec<f64>>)> = None;
    for _ in 0..tries.max(1) {
        let cand = latin_hypercube(rng, n, dim);
        let floor = best.as_ref().map_or(f64::NEG_INFINITY, |(s, _)| *s);
        let score = min_dist2_above(&cand, floor);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, cand));
        }
    }
    best.expect("tries >= 1").1
}

/// Minimum pairwise squared distance of a point set of equal-length
/// rows (`inf` for < 2 pts).
pub fn min_pairwise_dist2(pts: &[Vec<f64>]) -> f64 {
    min_dist2_above(pts, f64::NEG_INFINITY)
}

/// The minimum pairwise squared distance of `pts` while it stays above
/// `floor`; once it cannot, some value `<= floor` (see the module docs).
///
/// Points are swept in order of their first coordinate, so a point's
/// sweep ends once the first-coordinate gap alone reaches the running
/// minimum. [`LANES`] pairs at a time get their partial sums over the
/// first [`PREFIX`] coordinates side by side, each lane in coordinate
/// order; a pair whose partial sum stays below the running minimum is
/// finished alone, checked every [`BLOCK`] coordinates.
fn min_dist2_above(pts: &[Vec<f64>], floor: f64) -> f64 {
    let n = pts.len();
    let dim = pts.first().map_or(0, Vec::len);
    if n < 2 {
        return f64::INFINITY;
    }
    if dim == 0 {
        return 0.0;
    }
    // Column-major copy with rows sorted by first coordinate; every
    // column is padded by LANES so a lane load never runs past it.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| pts[a][0].total_cmp(&pts[b][0]));
    let stride = n + LANES;
    let mut cols = vec![0.0; dim * stride];
    for (r, &i) in order.iter().enumerate() {
        for (k, &x) in pts[i].iter().enumerate() {
            cols[k * stride + r] = x;
        }
    }
    let prefix = PREFIX.min(dim);
    let mut m = f64::INFINITY;
    for i in 0..n {
        'sweep: for j in (i + 1..n).step_by(LANES) {
            // `0.0 + t²` is `t²`: the lanes start like a plain sum.
            let mut s = [0.0; LANES];
            for k in 0..prefix {
                let a = cols[k * stride + i];
                let b: &[f64; LANES] = cols[k * stride + j..][..LANES].try_into().expect("padded");
                for l in 0..LANES {
                    let t = a - b[l];
                    s[l] += t * t;
                }
                if k == 0 && s[0] >= m {
                    break 'sweep; // every later point is at least as far in x₀
                }
            }
            'pairs: for l in 0..LANES.min(n - j) {
                let mut d = s[l];
                if d >= m {
                    continue;
                }
                let mut k = prefix;
                while k < dim {
                    let end = (k + BLOCK).min(dim);
                    while k < end {
                        let t = cols[k * stride + i] - cols[k * stride + j + l];
                        d += t * t;
                        k += 1;
                    }
                    if d >= m {
                        continue 'pairs;
                    }
                }
                m = d;
                if m <= floor {
                    return m;
                }
            }
        }
    }
    m
}

/// Pairs whose prefix sums are formed side by side.
const LANES: usize = 16;
/// Coordinates summed for every visited pair before its first check.
const PREFIX: usize = 6;
/// Coordinates summed between two later checks of a pair's partial sum.
const BLOCK: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn is_latin(pts: &[Vec<f64>]) -> bool {
        let n = pts.len();
        let dim = pts[0].len();
        for d in 0..dim {
            let mut strata: Vec<usize> = pts.iter().map(|p| (p[d] * n as f64) as usize).collect();
            strata.sort_unstable();
            if strata != (0..n).collect::<Vec<_>>() {
                return false;
            }
        }
        true
    }

    #[test]
    fn lhs_has_one_point_per_stratum() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = latin_hypercube(&mut rng, 16, 12);
        assert_eq!(pts.len(), 16);
        assert!(is_latin(&pts));
    }

    #[test]
    fn centered_lhs_at_midpoints() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = centered_latin_hypercube(&mut rng, 8, 3);
        assert!(is_latin(&pts));
        for p in &pts {
            for &x in p {
                let frac = (x * 8.0).fract();
                assert!((frac - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn maximin_never_worse_than_single_draw_in_expectation() {
        // With the same RNG stream the maximin pick is by construction
        // the best of its own draws; just check it's a valid LHS.
        let mut rng = StdRng::seed_from_u64(5);
        let pts = maximin_latin_hypercube(&mut rng, 10, 4, 8);
        assert!(is_latin(&pts));
        assert!(min_pairwise_dist2(&pts) > 0.0);
    }

    /// The full O(n²d) scan the pruned score must reproduce bit for bit.
    fn naive_min_dist2(pts: &[Vec<f64>]) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d: f64 = pts[i].iter().zip(&pts[j]).map(|(a, b)| (a - b) * (a - b)).sum();
                m = m.min(d);
            }
        }
        m
    }

    /// LHS designs plus copies with duplicate points and with ties in
    /// the first coordinate (the sort key), and a coarse grid on which
    /// many pairs tie on every partial sum.
    fn score_cases(seed: u64, n: usize, d: usize) -> Vec<Vec<Vec<f64>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let lhs = latin_hypercube(&mut rng, n, d);
        let mut dup = lhs.clone();
        for i in (0..n).step_by(7).skip(1) {
            dup[i] = dup[i / 2].clone();
        }
        let mut ties = lhs.clone();
        for (i, p) in ties.iter_mut().enumerate() {
            p[0] = (i % 3) as f64 / 3.0;
        }
        let grid: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|k| ((i * (k + 1) + k) % 4) as f64 * 0.25).collect())
            .collect();
        vec![lhs, dup, ties, grid]
    }

    #[test]
    fn pruned_score_equals_the_full_scan_bitwise() {
        for n in [0usize, 1, 2, 3, 5, 64, 255, 256, 1024] {
            for d in [1usize, 2, 7, 12] {
                for (c, pts) in score_cases(n as u64 * 31 + d as u64, n, d).iter().enumerate() {
                    let want = naive_min_dist2(pts);
                    let got = min_pairwise_dist2(pts);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "n={n} d={d} case={c}: {got} vs {want}"
                    );
                    // With a floor: exact above it, at most the floor otherwise.
                    for floor in [want, want * 0.5, want * 2.0] {
                        let got = min_dist2_above(pts, floor);
                        if want > floor {
                            assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} case={c}");
                        } else {
                            assert!(got <= floor, "n={n} d={d} case={c}: {got} > {floor}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn maximin_chooses_what_the_full_scan_chooses() {
        for seed in 0..40u64 {
            let (n, d) = (2 + (seed as usize * 7) % 40, 1 + seed as usize % 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = maximin_latin_hypercube(&mut rng, n, d, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            let draws: Vec<Vec<Vec<f64>>> =
                (0..4).map(|_| latin_hypercube(&mut rng, n, d)).collect();
            let mut want = &draws[0];
            for cand in &draws[1..] {
                if naive_min_dist2(cand) > naive_min_dist2(want) {
                    want = cand;
                }
            }
            assert_eq!(&got, want, "seed {seed}");
        }
    }

    #[test]
    fn min_pairwise_dist_of_singleton_is_inf() {
        assert_eq!(min_pairwise_dist2(&[vec![0.5]]), f64::INFINITY);
    }

    /// FNV-1a over every coordinate's bits, row by row.
    fn design_digest(pts: &[Vec<f64>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in pts.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// The engine's design draw (`doe` stream, four tries), pinned bit
    /// for bit: a faster score must choose exactly the same design.
    #[test]
    fn maximin_designs_are_pinned() {
        const PINS: [(u64, usize, usize, u64); 6] = [
            (1, 1024, 12, 0x6fea_f88e_2dd9_2f15),
            (2, 64, 12, 0xa038_2f9b_5442_c5d5),
            (3, 256, 12, 0x69b7_2747_2def_411c),
            (4, 48, 2, 0xfce9_f5de_5ac9_9593),
            (5, 5, 1, 0x85da_d1d8_65e1_d2f8),
            (6, 2, 7, 0x477c_26a9_3ac5_5061),
        ];
        let got: Vec<(u64, usize, usize, u64)> = PINS
            .iter()
            .map(|&(seed, n, d, _)| {
                let mut rng = crate::SeedStream::new(seed).fork_named("doe").rng();
                (seed, n, d, design_digest(&maximin_latin_hypercube(&mut rng, n, d, 4)))
            })
            .collect();
        assert_eq!(got, PINS, "maximin design digests moved; recomputed: {got:#x?}");
    }
}
