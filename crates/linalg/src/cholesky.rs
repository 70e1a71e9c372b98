//! Jitter-stabilised Cholesky factorization with incremental extension.
//!
//! Gaussian-process regression spends essentially all of its time here:
//! one factorization per marginal-likelihood evaluation, plus `O(n^2)`
//! solves for predictions. The Kriging-Believer acquisition loop needs to
//! *grow* a factored system by a handful of fantasy points per step;
//! [`Cholesky::extend`] does that in `O(n^2 q)` instead of a fresh
//! `O(n^3)` factorization.

use crate::matrix::Matrix;
use crate::parallel;
use crate::vec_ops::{axpy, dot, dot4};
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `L * L^T = A`.
///
/// The factor is stored as a full square [`Matrix`] whose strict upper
/// triangle is kept at zero, so rows of `L` are contiguous slices — the
/// layout the forward-substitution inner loop wants.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that was added to the diagonal to reach positive
    /// definiteness (0.0 when none was needed).
    jitter: f64,
}

/// Initial jitter tried when a pivot goes non-positive.
const JITTER_START: f64 = 1e-10;
/// Jitter escalation factor per retry.
const JITTER_GROWTH: f64 = 10.0;
/// Maximum number of jitter escalations before giving up.
const JITTER_TRIES: usize = 10;

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// If a pivot fails, the factorization is retried with an escalating
    /// diagonal jitter (`1e-10 * mean_diag`, growing tenfold up to
    /// `JITTER_TRIES` times). This mirrors the standard GP-library
    /// treatment of nearly singular kernel matrices (e.g. duplicated
    /// training inputs produced by fantasy points).
    pub fn factor(a: &Matrix) -> Result<Self> {
        Self::factor_reusing(a, Matrix::zeros(0, 0))
    }

    /// Like [`factor`](Self::factor), but reuses `buf` as the storage for
    /// `L` (reallocating only when the shape differs). The MLL objective
    /// factors once per evaluation, so recycling this `n x n` buffer
    /// removes the dominant allocation of the fitting hot loop. Recover
    /// the buffer afterwards with [`into_l`](Self::into_l).
    pub fn factor_reusing(a: &Matrix, buf: Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky of {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite("cholesky input"));
        }
        let n = a.rows();
        let mut l = if buf.rows() == n && buf.cols() == n { buf } else { Matrix::zeros(n, n) };
        let mean_diag =
            if n == 0 { 1.0 } else { a.diag().iter().map(|v| v.abs()).sum::<f64>() / n as f64 };
        let jitter =
            escalate_jitter(mean_diag, |jitter| factor_rows(&mut l, 0, jitter, |i, j| a[(i, j)]))?;
        Ok(Cholesky { l, jitter })
    }

    /// Factor a symmetric positive-definite matrix given only its strict
    /// lower triangle in packed pair-major form plus a *uniform*
    /// diagonal: entry `(i, j)` with `j < i` lives at
    /// `packed[(i(i−1)/2 + j) · stride]`. A `stride > 1` lets callers
    /// interleave other per-pair payloads (the GP fitting workspace
    /// stores `[kernel value, gradient factor]` pairs and factors with
    /// `stride = 2`), so the matrix never has to be materialized densely.
    ///
    /// Produces a bit-identical factor to
    /// [`factor_reusing`](Self::factor_reusing) on the equivalent dense
    /// matrix, including the jitter-escalation behaviour: both run the
    /// same row kernel, which reads the packed entries in place.
    pub fn factor_packed_reusing(
        packed: &[f64],
        stride: usize,
        diag: f64,
        n: usize,
        buf: Matrix,
    ) -> Result<Self> {
        if stride == 0 || packed.len() < n * n.saturating_sub(1) / 2 * stride {
            return Err(LinalgError::ShapeMismatch(format!(
                "packed cholesky: {} entries (stride {stride}) for order {n}",
                packed.len()
            )));
        }
        if !diag.is_finite() || packed.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite("packed cholesky input"));
        }
        let mut l = if buf.rows() == n && buf.cols() == n { buf } else { Matrix::zeros(n, n) };
        let entry = |i: usize, j: usize| {
            if i == j {
                diag
            } else {
                packed[(i * (i - 1) / 2 + j) * stride]
            }
        };
        let jitter = escalate_jitter(diag.abs(), |jitter| factor_rows(&mut l, 0, jitter, entry))?;
        Ok(Cholesky { l, jitter })
    }

    /// Extend the factorization of `A`, in place, to the factorization of
    ///
    /// ```text
    /// [ A   B ]
    /// [ B^T C ]
    /// ```
    ///
    /// where `B` is `n x q` (cross block) and `C` is `q x q` (`C` must
    /// already carry any noise term on its diagonal), **without touching
    /// the first `n` rows**, in `O(n²q)`. Row-by-row factorization
    /// computes row `i` from rows `< i` only, so the first `n` rows of the
    /// from-scratch factor of the extended matrix are the rows of `self`;
    /// this method grows the factor's own storage
    /// ([`Matrix::restride`]) and runs the factorization's row kernel
    /// over rows `n..n+q` at `self`'s jitter. Growing the one buffer,
    /// rather than copying the factor into a fresh `(n+q)²` one, is
    /// what makes the append cheap: the fresh buffer cost more than the
    /// new rows' arithmetic.
    ///
    /// **Bit-compat contract:** whenever a from-scratch
    /// [`factor`](Self::factor) of the extended matrix settles on the
    /// same jitter as `self`, the result here is bit-identical to it, at
    /// every size (pinned by property tests). Kernel-type matrices with a
    /// uniform diagonal escalate jitter through the identical sequence
    /// (the mean diagonal is diagonal-value-invariant to `n`), so for
    /// those inputs the contract covers every case in which this method
    /// succeeds.
    ///
    /// No jitter is ever added beyond `self.jitter`: if the appended rows
    /// are not positive-definite there — where a from-scratch factor
    /// would escalate further and perturb the first `n` rows — this
    /// returns [`LinalgError::NotPositiveDefinite`] with the factor
    /// restored to its old shape and bits, and the caller decides
    /// whether to refactorize from scratch. Shape and finiteness errors
    /// are raised before anything moves.
    pub fn extend(&mut self, b: &Matrix, c: &Matrix) -> Result<()> {
        let n = self.n();
        let q = c.rows();
        if b.rows() != n || b.cols() != q || !c.is_square() {
            return Err(LinalgError::ShapeMismatch(format!(
                "extend: base order {n}, B {}x{}, C {}x{}",
                b.rows(),
                b.cols(),
                c.rows(),
                c.cols()
            )));
        }
        if !b.all_finite() || !c.all_finite() {
            return Err(LinalgError::NonFinite("extend input"));
        }
        self.l.restride(n + q, n + q);
        // Appended row `i` reads its entries from the B/C blocks.
        let appended = factor_rows(&mut self.l, n, self.jitter, |i, j| {
            if j < n {
                b[(j, i - n)]
            } else {
                c[(i - n, j - n)]
            }
        });
        if appended.is_err() {
            // The kernel wrote rows `n..` only; dropping them leaves the
            // old factor.
            self.l.restride(n, n);
        }
        appended
    }

    /// Consume the factorization, returning the `L` storage for reuse by
    /// a later [`factor_reusing`](Self::factor_reusing).
    pub fn into_l(self) -> Matrix {
        self.l
    }

    /// Order of the factored matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    #[inline]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was applied (0 if none).
    #[inline]
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solve `L y = b` (forward substitution) in place.
    ///
    /// Rows `i0..i0 + 4` (`i0` a multiple of 4) reduce their shared
    /// finished prefix `b[..i0]` with [`dot4`]; each row then adds its
    /// own `i − i0` tail products in order. A length-`i` [`dot`] covers
    /// exactly those `i0 / 4` whole chunks before its tail, so every
    /// entry is bit-identical to the one-row-at-a-time solve.
    pub fn solve_lower_in_place(&self, b: &mut [f64]) {
        let n = self.n();
        debug_assert_eq!(b.len(), n);
        let l = &self.l;
        let mut i0 = 0;
        while i0 + 4 <= n {
            let rows = [l.row(i0), l.row(i0 + 1), l.row(i0 + 2), l.row(i0 + 3)];
            let prefix = &b[..i0];
            let sums = dot4(rows.map(|r| &r[..i0]), [prefix; 4]);
            for (r, (row, mut s)) in rows.iter().zip(sums).enumerate() {
                let i = i0 + r;
                for j in i0..i {
                    s += row[j] * b[j];
                }
                b[i] = (b[i] - s) / row[i];
            }
            i0 += 4;
        }
        for i in i0..n {
            let s = dot(&l.row(i)[..i], &b[..i]);
            b[i] = (b[i] - s) / l[(i, i)];
        }
    }

    /// Solve `L^T x = y` (backward substitution) in place.
    pub fn solve_lower_t_in_place(&self, b: &mut [f64]) {
        let n = self.n();
        debug_assert_eq!(b.len(), n);
        for i in (0..n).rev() {
            let mut s = b[i];
            // Column i of L below the diagonal == row entries l[j][i], j>i.
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * b[j];
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Row-major transpose of the factor: `lt[(i, j)] = l[(j, i)]`, with
    /// the strict lower triangle kept at zero. Callers that hold this
    /// alongside the factor can run the backward substitution over
    /// contiguous rows (see [`solve_transposed_in_place`]) instead of
    /// striding down columns of `L` one cache line per element.
    pub fn transposed_factor(&self) -> Matrix {
        self.l.transpose()
    }

    /// Solve `A x = b` via the two triangular solves. Returns a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n() {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve: order {} with rhs of {}",
                self.n(),
                b.len()
            )));
        }
        let mut x = b.to_vec();
        self.solve_lower_in_place(&mut x);
        self.solve_lower_t_in_place(&mut x);
        Ok(x)
    }

    /// Solve `A x = b` for two right-hand sides in one sweep. The
    /// backward substitution strides down columns of `L`, so sharing each
    /// `l[(j, i)]` load across both systems halves the strided traffic.
    /// Bitwise identical to two independent [`solve`](Self::solve) calls
    /// (same per-element operations in the same order).
    pub fn solve_pair(&self, b1: &[f64], b2: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        let n = self.n();
        if b1.len() != n || b2.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_pair: order {n} with rhs of {} and {}",
                b1.len(),
                b2.len()
            )));
        }
        let mut x1 = b1.to_vec();
        let mut x2 = b2.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let s1 = dot(&row[..i], &x1[..i]);
            let s2 = dot(&row[..i], &x2[..i]);
            x1[i] = (x1[i] - s1) / row[i];
            x2[i] = (x2[i] - s2) / row[i];
        }
        for i in (0..n).rev() {
            let mut s1 = x1[i];
            let mut s2 = x2[i];
            for j in (i + 1)..n {
                let lji = self.l[(j, i)];
                s1 -= lji * x1[j];
                s2 -= lji * x2[j];
            }
            let lii = self.l[(i, i)];
            x1[i] = s1 / lii;
            x2[i] = s2 / lii;
        }
        Ok((x1, x2))
    }

    /// Solve `L Y = B` for every column of a row-major right-hand side at
    /// once, in place.
    ///
    /// Rows advance four at a time over register tiles of four columns
    /// (one at the right edge): each finished row `j` above the group is
    /// loaded once per tile and charged against all four rows, where a
    /// row-at-a-time sweep re-reads the whole finished block for every
    /// row. (Eight-column tiles need sixteen accumulator registers, all
    /// the baseline x86-64 target has, and measured slower.) Every entry
    /// still subtracts `l[i][j]·y[j][c]` for `j = 0..i` in order and then
    /// multiplies by `1/l[i][i]`, so the result is bit-identical to the
    /// one-row `axpy` form at every size.
    pub fn solve_lower_multi_in_place(&self, b: &mut Matrix) {
        let n = self.n();
        debug_assert_eq!(b.rows(), n);
        let m = b.cols();
        if m == 0 {
            return;
        }
        let data = b.as_mut_slice();
        let mut i0 = 0;
        while i0 + 4 <= n {
            let (done, rest) = data.split_at_mut(i0 * m);
            let group = &mut rest[..4 * m];
            let mut c0 = 0;
            while c0 + 4 <= m {
                lower_tile::<4>(&self.l, i0, done, group, m, c0);
                c0 += 4;
            }
            for c in c0..m {
                lower_tile::<1>(&self.l, i0, done, group, m, c);
            }
            i0 += 4;
        }
        for i in i0..n {
            let (done, rest) = data.split_at_mut(i * m);
            let row_i = &mut rest[..m];
            let l_i = self.l.row(i);
            for (j, lij) in l_i[..i].iter().enumerate() {
                axpy(-lij, &done[j * m..(j + 1) * m], row_i);
            }
            let inv = 1.0 / l_i[i];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Solve `L^T X = Y` for every column of a row-major right-hand side
    /// at once, in place (companion to
    /// [`solve_lower_multi_in_place`](Self::solve_lower_multi_in_place)).
    pub fn solve_lower_t_multi_in_place(&self, b: &mut Matrix) {
        let n = self.n();
        debug_assert_eq!(b.rows(), n);
        let m = b.cols();
        if m == 0 {
            return;
        }
        let data = b.as_mut_slice();
        for i in (0..n).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * m);
            let row_i = &mut head[i * m..];
            for j in (i + 1)..n {
                let lji = self.l[(j, i)];
                axpy(-lji, &tail[(j - i - 1) * m..(j - i) * m], row_i);
            }
            let inv = 1.0 / self.l[(i, i)];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Solve `A X = B` in place via the two blocked triangular solves.
    pub fn solve_matrix_in_place(&self, b: &mut Matrix) -> Result<()> {
        if b.rows() != self.n() {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_matrix: order {} with rhs {}x{}",
                self.n(),
                b.rows(),
                b.cols()
            )));
        }
        self.solve_lower_multi_in_place(b);
        self.solve_lower_t_multi_in_place(b);
        Ok(())
    }

    /// Solve `A X = B` for a matrix right-hand side. Returns a fresh
    /// matrix; use [`solve_matrix_in_place`](Self::solve_matrix_in_place)
    /// to avoid the copy.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let mut out = b.clone();
        self.solve_matrix_in_place(&mut out)?;
        Ok(out)
    }

    /// `log det A = 2 * sum_i log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `b^T A^{-1} b` using a single forward solve:
    /// with `L y = b`, the form equals `y^T y`.
    pub fn quad_form(&self, b: &[f64]) -> Result<f64> {
        if b.len() != self.n() {
            return Err(LinalgError::ShapeMismatch("quad_form rhs".into()));
        }
        let mut y = b.to_vec();
        self.solve_lower_in_place(&mut y);
        Ok(dot(&y, &y))
    }

    /// Dense `A^{-1}`. Kept for the naive marginal-likelihood gradient
    /// path (the reference implementation the workspace-cached gradient
    /// is property-tested against) and for tests; the fitting hot path
    /// uses [`inv_lower_t_into`](Self::inv_lower_t_into) instead.
    pub fn inverse(&self) -> Matrix {
        let mut inv = Matrix::identity(self.n());
        self.solve_lower_multi_in_place(&mut inv);
        self.solve_lower_t_multi_in_place(&mut inv);
        inv
    }

    /// Write `L^{-T}` into `out` row-major: `out[a][k] = (L^{-1})_{k,a}`,
    /// zero below the diagonal (`k < a`). Row `a` is the solution of
    /// `L x = e_a`, a sparse forward solve touching only the trailing
    /// `n - a` entries; rows are independent, so they are computed in
    /// parallel over row blocks.
    ///
    /// Rows advance four at a time: each step `k` reduces row `k` of `L`
    /// against the four rows' suffixes with [`dot4`], which returns
    /// exactly the per-row [`dot`] bits, so the result does not depend on
    /// the grouping or the thread count.
    ///
    /// Consumers get, without ever materialising `A^{-1}`:
    /// - `(A^{-1})_{ab} = Σ_{k ≥ max(a,b)} out[a][k] · out[b][k]`
    ///   (a contiguous suffix dot product of two rows), and
    /// - `tr(A^{-1}) = ‖out‖_F²`.
    pub fn inv_lower_t_into(&self, out: &mut Matrix) {
        let n = self.n();
        assert_eq!(out.rows(), n, "inv_lower_t_into: row mismatch");
        assert_eq!(out.cols(), n, "inv_lower_t_into: col mismatch");
        let l = &self.l;
        // Row `a` of the output up to (excluding) column `upto`.
        let start_row = |a: usize, row: &mut [f64], upto: usize| {
            row[..a].fill(0.0);
            row[a] = 1.0 / l[(a, a)];
            for k in (a + 1)..upto {
                let s = dot(&l.row(k)[a..k], &row[a..k]);
                row[k] = -s / l[(k, k)];
            }
        };
        let groups = n / 4;
        let (grouped, rest) = out.as_mut_slice().split_at_mut(groups * 4 * n);
        // Total flops ~ n³/6; parallel::for_each_row_chunk decides whether
        // that clears the spawn threshold.
        let work = n * n * n / 6;
        parallel::for_each_row_chunk(grouped, 4 * n, work, |g, block| {
            let a = 4 * g;
            let (r0, tail) = block.split_at_mut(n);
            let (r1, tail) = tail.split_at_mut(n);
            let (r2, r3) = tail.split_at_mut(n);
            // Each row runs alone until all four have started.
            start_row(a, r0, a + 4);
            start_row(a + 1, r1, a + 4);
            start_row(a + 2, r2, a + 4);
            start_row(a + 3, r3, a + 4);
            for k in (a + 4)..n {
                let lk = l.row(k);
                let s = dot4(
                    [&lk[a..k], &lk[a + 1..k], &lk[a + 2..k], &lk[a + 3..k]],
                    [&r0[a..k], &r1[a + 1..k], &r2[a + 2..k], &r3[a + 3..k]],
                );
                let lkk = lk[k];
                r0[k] = -s[0] / lkk;
                r1[k] = -s[1] / lkk;
                r2[k] = -s[2] / lkk;
                r3[k] = -s[3] / lkk;
            }
        });
        for (t, row) in rest.chunks_mut(n).enumerate() {
            start_row(groups * 4 + t, row, n);
        }
    }
}

/// Largest system order at which the posterior hot paths promise
/// bit-identical arithmetic to their naive references. At or below this
/// size [`solve_transposed_in_place`] keeps the sequential subtract
/// chain of the column-strided solve (where the multi-accumulator
/// reduction's setup overhead barely pays anyway), and the GP/acq
/// paths — the single-point posterior, the batched `predict_many`
/// cross block and the workspace gradients — keep dividing by
/// lengthscales instead of multiplying by reciprocals, so seeded BO
/// trajectories (all integration runs use n ≲ 100 training points) do
/// not shift with these optimizations.
/// Above it, the fast reassociated forms kick in and agreement is to
/// summation-order ulps instead. The factorization itself runs one row
/// kernel at every size and is not governed by this bound.
pub const BIT_EXACT_MAX_N: usize = 128;

/// Run the jitter-escalation schedule around one factorization attempt:
/// `attempt(0.0)` first, then `1e-10 · mean_diag` growing tenfold, up to
/// `JITTER_TRIES` escalations. Returns the jitter that succeeded, or the
/// last attempt's error.
fn escalate_jitter(mean_diag: f64, mut attempt: impl FnMut(f64) -> Result<()>) -> Result<f64> {
    let mut jitter = 0.0;
    for tries in 0..=JITTER_TRIES {
        match attempt(jitter) {
            Ok(()) => return Ok(jitter),
            Err(e) => {
                if tries == JITTER_TRIES {
                    return Err(e);
                }
                jitter = if jitter == 0.0 {
                    JITTER_START * mean_diag.max(f64::MIN_POSITIVE)
                } else {
                    jitter * JITTER_GROWTH
                };
            }
        }
    }
    unreachable!("jitter loop always returns")
}

/// The one factorization row kernel: computes rows `start..` of the
/// square `l` from the finished rows above them, reading the input's
/// lower triangle through `entry(i, j)` (`j ≤ i`) and adding `jitter` to
/// each pivot. Every entry of those rows is overwritten (the strict
/// upper triangle with zeros), so stale buffer contents are harmless.
///
/// Each entry is the dot-product (ijk) form
/// `l[i][j] = (a[i][j] − dot(l[i][..j], l[j][..j])) / l[j][j]`, with the
/// pivot `sqrt(a[i][i] + jitter − dot(l[i][..i], l[i][..i]))`. Rows are
/// produced four at a time: each finished row `j` above the group is
/// streamed once and charged against all four rows through [`dot4`],
/// which returns exactly the per-row [`dot`] bits. The group's own
/// lower triangle then runs row by row. So the factor is bit-identical
/// to the one-row-at-a-time kernel, whatever row the first group starts
/// at — which is why [`Cholesky::extend`] matches a from-scratch factor.
fn factor_rows(
    l: &mut Matrix,
    start: usize,
    jitter: f64,
    entry: impl Fn(usize, usize) -> f64,
) -> Result<()> {
    let n = l.rows();
    debug_assert_eq!(l.cols(), n);
    let data = l.as_mut_slice();
    let mut i = start;
    while i < n {
        let g = (n - i).min(4);
        let (head, tail) = data.split_at_mut(i * n);
        let rows = &mut tail[..g * n];
        for j in 0..i {
            let rj = &head[j * n..j * n + j];
            let ljj = head[j * n + j];
            if g == 4 {
                let s = dot4(
                    [&rows[..j], &rows[n..n + j], &rows[2 * n..2 * n + j], &rows[3 * n..3 * n + j]],
                    [rj; 4],
                );
                for (r, s) in s.into_iter().enumerate() {
                    rows[r * n + j] = (entry(i + r, j) - s) / ljj;
                }
            } else {
                for r in 0..g {
                    let s = dot(&rows[r * n..r * n + j], rj);
                    rows[r * n + j] = (entry(i + r, j) - s) / ljj;
                }
            }
        }
        for r in 0..g {
            let ii = i + r;
            let (done, cur) = rows.split_at_mut(r * n);
            let row = &mut cur[..n];
            for c in 0..r {
                let j = i + c;
                let s = dot(&row[..j], &done[c * n..c * n + j]);
                row[j] = (entry(ii, j) - s) / done[c * n + j];
            }
            let pivot = entry(ii, ii) + jitter - dot(&row[..ii], &row[..ii]);
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot });
            }
            row[ii] = pivot.sqrt();
            row[ii + 1..].fill(0.0);
        }
        i += g;
    }
    Ok(())
}

/// One `4 x W` tile of [`Cholesky::solve_lower_multi_in_place`]: rows
/// `i0..i0 + 4` (`group`, row-major with `m` columns) at columns
/// `c0..c0 + W`, against the finished rows in `done` (`i0` rows of `m`).
/// The accumulators start at the right-hand side, subtract
/// `l[i][j]·y[j][c]` for the finished rows `j < i0` and then for the
/// group's own earlier rows, in `j` order, and finally scale by
/// `1/l[i][i]`. Four named accumulator rows and zipped iterators keep
/// the tile in registers with no bounds checks in the `j` loop.
#[inline(always)]
fn lower_tile<const W: usize>(
    l: &Matrix,
    i0: usize,
    done: &[f64],
    group: &mut [f64],
    m: usize,
    c0: usize,
) {
    let row = |r: usize| &l.row(i0 + r)[..i0 + 4];
    let (l0, l1, l2, l3) = (row(0), row(1), row(2), row(3));
    let load = |r: usize| -> [f64; W] {
        group[r * m + c0..r * m + c0 + W].try_into().expect("tile width")
    };
    let (mut a0, mut a1, mut a2, mut a3) = (load(0), load(1), load(2), load(3));
    let finished = done.chunks_exact(m).zip(l0).zip(l1).zip(l2).zip(l3);
    for ((((y, &x0), &x1), &x2), &x3) in finished {
        let y: &[f64; W] = y[c0..c0 + W].try_into().expect("tile width");
        for c in 0..W {
            a0[c] -= x0 * y[c];
            a1[c] -= x1 * y[c];
            a2[c] -= x2 * y[c];
            a3[c] -= x3 * y[c];
        }
    }
    // The group's own triangle: row r subtracts rows i0..i0 + r, each
    // already scaled, then scales itself.
    let g = |row: &[f64]| [row[i0], row[i0 + 1], row[i0 + 2], row[i0 + 3]];
    let (g0, g1, g2, g3) = (g(l0), g(l1), g(l2), g(l3));
    let inv = [1.0 / g0[0], 1.0 / g1[1], 1.0 / g2[2], 1.0 / g3[3]];
    for c in 0..W {
        a0[c] *= inv[0];
        a1[c] -= g1[0] * a0[c];
        a1[c] *= inv[1];
        a2[c] -= g2[0] * a0[c];
        a2[c] -= g2[1] * a1[c];
        a2[c] *= inv[2];
        a3[c] -= g3[0] * a0[c];
        a3[c] -= g3[1] * a1[c];
        a3[c] -= g3[2] * a2[c];
        a3[c] *= inv[3];
    }
    for (r, a) in [a0, a1, a2, a3].iter().enumerate() {
        group[r * m + c0..r * m + c0 + W].copy_from_slice(a);
    }
}

/// Solve `L^T x = y` in place given the row-major *transpose* of the
/// factor (from [`Cholesky::transposed_factor`]).
///
/// The inner loop walks row `i` of `lt` contiguously — one cache line
/// per eight elements — where
/// [`solve_lower_t_in_place`](Cholesky::solve_lower_t_in_place) strides
/// down column `i` of `L` at one cache line per element. Systems larger
/// than [`BIT_EXACT_MAX_N`] solve four rows at a time from the bottom:
/// rows `i0..i0 + 4` reduce their shared, already-solved suffix
/// `x[i0 + 4..]` together through [`dot4`] (sixteen independent
/// accumulator chains, each suffix of `b` loaded once for four rows),
/// then each row adds its in-group terms and solves; the rows left
/// over at the top take one [`dot`] each. That reorders summations
/// (relative ~1e-13 agreement on any reasonably conditioned system,
/// covered by a test). Systems of order ≤ `BIT_EXACT_MAX_N` keep the
/// sequential chain and solve bit-identically to
/// `solve_lower_t_in_place`.
pub fn solve_transposed_in_place(lt: &Matrix, b: &mut [f64]) {
    let n = lt.rows();
    debug_assert!(lt.is_square());
    debug_assert_eq!(b.len(), n);
    if n > BIT_EXACT_MAX_N {
        let mut end = n;
        while end >= 4 {
            let i0 = end - 4;
            let rows = [lt.row(i0), lt.row(i0 + 1), lt.row(i0 + 2), lt.row(i0 + 3)];
            let solved = &b[end..];
            let sums = dot4(rows.map(|r| &r[end..]), [solved; 4]);
            for r in (0..4).rev() {
                let (i, row) = (i0 + r, rows[r]);
                let mut s = sums[r];
                for j in i + 1..end {
                    s += row[j] * b[j];
                }
                b[i] = (b[i] - s) / row[i];
            }
            end = i0;
        }
        for i in (0..end).rev() {
            let row = lt.row(i);
            let s = dot(&row[(i + 1)..], &b[(i + 1)..]);
            b[i] = (b[i] - s) / row[i];
        }
        return;
    }
    for i in (0..n).rev() {
        let row = lt.row(i);
        let mut s = b[i];
        for (j, &ltij) in row[(i + 1)..].iter().enumerate() {
            s -= ltij * b[i + 1 + j];
        }
        b[i] = s / row[i];
    }
}

impl Cholesky {
    /// Reconstruct `A = L L^T` (minus any jitter); used by tests and by
    /// the GP fantasy machinery when it needs the implied covariance.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.n();
        Matrix::from_fn(n, n, |i, j| {
            let k = i.min(j) + 1;
            dot(&self.l.row(i)[..k], &self.l.row(j)[..k])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposed_backward_solve_matches_reference() {
        // Up to BIT_EXACT_MAX_N every row keeps the sequential subtract
        // chain, so the solve must be bit-identical to the column-strided
        // form; above it, rows switch to the four-row `dot4` reduction
        // (every residue of n mod 4 leaves a different one-row remainder
        // at the top) and differ only by summation order — a few ulps,
        // far below any model tolerance.
        let sizes = [1, 2, 7, 33, 64, 125, 126, 127, 128].into_iter().chain(129..=135);
        for n in sizes.chain([200, 300]) {
            let a = spd(n, 42 + n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            let lt = ch.transposed_factor();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut x_ref = b.clone();
            ch.solve_lower_t_in_place(&mut x_ref);
            let mut x_t = b.clone();
            solve_transposed_in_place(&lt, &mut x_t);
            for (i, (u, v)) in x_ref.iter().zip(&x_t).enumerate() {
                if n <= BIT_EXACT_MAX_N {
                    assert!(
                        u.to_bits() == v.to_bits(),
                        "n = {n} ≤ BIT_EXACT_MAX_N must be bit-identical; x[{i}]: {u} vs {v}"
                    );
                } else {
                    assert!(
                        (u - v).abs() <= 1e-13 * (1.0 + u.abs().max(v.abs())),
                        "n = {n}, x[{i}]: {u} vs {v}"
                    );
                }
            }
        }
    }

    /// Deterministic SPD test matrix: A = G G^T + n*I.
    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let g = Matrix::from_fn(n, n, |_, _| next());
        let mut a = g.matmul_nt(&g).unwrap();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(12, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.reconstruct();
        assert!(a.sub(&back).unwrap().norm_max() < 1e-9 * a.norm_max());
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd(10, 7);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, bk) in b.iter().zip(&back) {
            assert!((bi - bk).abs() < 1e-8, "{bi} vs {bk}");
        }
    }

    #[test]
    fn packed_factor_matches_dense_bitwise() {
        // Uniform-diagonal SPD matrix (the kernel-matrix shape): the
        // packed strided factorization must reproduce the dense factor
        // bit for bit, including with interleaved payload (stride 2).
        let n = 14;
        let mut a = spd(n, 19);
        let diag = 2.0 * n as f64;
        for i in 0..n {
            a[(i, i)] = diag;
        }
        let dense = Cholesky::factor(&a).unwrap();
        for stride in [1usize, 2] {
            let mut packed = vec![f64::NAN; n * (n - 1) / 2 * stride];
            for i in 0..n {
                for j in 0..i {
                    packed[(i * (i - 1) / 2 + j) * stride] = a[(i, j)];
                }
            }
            if stride == 2 {
                // Payload slots must not affect the factor (fill with a
                // finite sentinel; NaN would trip the finiteness check).
                for p in packed.iter_mut().skip(1).step_by(2) {
                    *p = 7.5;
                }
            }
            let ch = Cholesky::factor_packed_reusing(&packed, stride, diag, n, Matrix::zeros(0, 0))
                .unwrap();
            assert_eq!(ch.jitter(), dense.jitter());
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(ch.l()[(i, j)], dense.l()[(i, j)], "stride {stride} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn packed_factor_rejects_bad_input() {
        assert!(Cholesky::factor_packed_reusing(&[1.0], 1, 1.0, 4, Matrix::zeros(0, 0)).is_err());
        assert!(
            Cholesky::factor_packed_reusing(&[f64::NAN], 1, 1.0, 2, Matrix::zeros(0, 0)).is_err()
        );
    }

    #[test]
    fn solve_pair_is_bitwise_two_solves() {
        let a = spd(9, 23);
        let ch = Cholesky::factor(&a).unwrap();
        let b1: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).cos()).collect();
        let b2 = vec![1.0; 9];
        let (x1, x2) = ch.solve_pair(&b1, &b2).unwrap();
        assert_eq!(x1, ch.solve(&b1).unwrap());
        assert_eq!(x2, ch.solve(&b2).unwrap());
        assert!(ch.solve_pair(&b1, &b2[..5]).is_err());
    }

    #[test]
    fn log_det_matches_2x2() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        // det = 12 - 4 = 8
        assert!((ch.log_det() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_solve() {
        let a = spd(8, 11);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.25).collect();
        let x = ch.solve(&b).unwrap();
        let qf = ch.quad_form(&b).unwrap();
        assert!((qf - dot(&b, &x)).abs() < 1e-8);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(6, 5);
        let ch = Cholesky::factor(&a).unwrap();
        let inv = ch.inverse();
        let prod = a.matmul(&inv).unwrap();
        let id = Matrix::identity(6);
        assert!(prod.sub(&id).unwrap().norm_max() < 1e-9);
    }

    #[test]
    fn jitter_rescues_singular() {
        // Rank-deficient: duplicate rows.
        let mut a =
            Matrix::from_rows(&[vec![1.0, 1.0, 0.5], vec![1.0, 1.0, 0.5], vec![0.5, 0.5, 1.0]])
                .unwrap();
        a.symmetrize();
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        assert!(ch.log_det().is_finite());
    }

    #[test]
    fn non_spd_eventually_errors() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -5.0]]).unwrap();
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn extend_matches_full_factorization() {
        let n = 9;
        let q = 3;
        let full = spd(n + q, 21);
        // Split into blocks.
        let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
        let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
        let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
        let mut ext = Cholesky::factor(&a).unwrap();
        ext.extend(&b, &c).unwrap();
        let direct = Cholesky::factor(&full).unwrap();
        // Factors agree (both lower-triangular with positive diagonal
        // => unique), and solves agree.
        let rhs: Vec<f64> = (0..n + q).map(|i| (i as f64 * 0.7).cos()).collect();
        let x1 = ext.solve(&rhs).unwrap();
        let x2 = direct.solve(&rhs).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        assert!((ext.log_det() - direct.log_det()).abs() < 1e-8);
    }

    #[test]
    fn extend_zero_q_is_identity_op() {
        let a = spd(5, 2);
        let base = Cholesky::factor(&a).unwrap();
        let mut ext = base.clone();
        ext.extend(&Matrix::zeros(5, 0), &Matrix::zeros(0, 0)).unwrap();
        assert_eq!(ext.n(), 5);
        assert!((ext.log_det() - base.log_det()).abs() < 1e-12);
    }

    #[test]
    fn extend_exact_zero_q_is_identity_op() {
        // Bit-level form of the check above: an empty extension keeps
        // the factor and its jitter exactly.
        let a = spd(5, 2);
        let base = Cholesky::factor(&a).unwrap();
        let mut ext = base.clone();
        ext.extend(&Matrix::zeros(5, 0), &Matrix::zeros(0, 0)).unwrap();
        assert_eq!(ext.l(), base.l());
        assert_eq!(ext.jitter(), base.jitter());
    }

    #[test]
    fn solve_matrix_matches_columnwise() {
        let a = spd(7, 9);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_fn(7, 3, |i, j| ((i + 2 * j) as f64).sin());
        let x = ch.solve_matrix(&b).unwrap();
        for j in 0..3 {
            let col_b = b.col(j);
            let col_x = ch.solve(&col_b).unwrap();
            for i in 0..7 {
                assert!((x[(i, j)] - col_x[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multi_rhs_triangular_solves_match_single() {
        let a = spd(9, 13);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_fn(9, 4, |i, j| ((2 * i + 3 * j) as f64).cos());
        let mut fwd = b.clone();
        ch.solve_lower_multi_in_place(&mut fwd);
        let mut both = b.clone();
        ch.solve_matrix_in_place(&mut both).unwrap();
        for j in 0..4 {
            let mut col = b.col(j);
            ch.solve_lower_in_place(&mut col);
            for i in 0..9 {
                assert!((fwd[(i, j)] - col[i]).abs() < 1e-12);
            }
            ch.solve_lower_t_in_place(&mut col);
            for i in 0..9 {
                assert!((both[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inv_lower_t_reconstructs_inverse() {
        let a = spd(11, 17);
        let ch = Cholesky::factor(&a).unwrap();
        let mut m = Matrix::zeros(11, 11);
        ch.inv_lower_t_into(&mut m);
        let inv = ch.inverse();
        // (A^{-1})_{ab} equals the suffix dot of rows a and b of M.
        for p in 0..11 {
            for q in 0..11 {
                let start = p.max(q);
                let got = dot(&m.row(p)[start..], &m.row(q)[start..]);
                assert!(
                    (got - inv[(p, q)]).abs() < 1e-9 * (1.0 + inv[(p, q)].abs()),
                    "({p},{q}): {got} vs {}",
                    inv[(p, q)]
                );
            }
        }
        // tr(A^{-1}) equals the squared Frobenius norm of M.
        let tr: f64 = (0..11).map(|i| inv[(i, i)]).sum();
        let fro2 = dot(m.as_slice(), m.as_slice());
        assert!((tr - fro2).abs() < 1e-9 * (1.0 + tr.abs()));
    }

    /// RBF-style kernel matrix over 1-D points: unit uniform diagonal,
    /// singular when points are duplicated — the fixture for exercising
    /// the jitter escalation with a kernel-shaped (uniform-diagonal)
    /// matrix.
    fn kernelish(points: &[f64]) -> Matrix {
        let n = points.len();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                let d = points[i] - points[j];
                (-0.5 * d * d).exp()
            }
        })
    }

    /// Deterministic SPD matrix with a kernel-style *uniform* diagonal,
    /// the shape for which `extend`'s bit-compat contract covers
    /// the jitter-escalation path too.
    fn spd_uniform_diag(n: usize, seed: u64, diag: f64) -> Matrix {
        let mut a = spd(n, seed);
        for i in 0..n {
            a[(i, i)] = diag;
        }
        a
    }

    #[test]
    fn extend_matches_from_scratch_bitwise() {
        // Appending rows in place must reproduce the full factor bit for
        // bit, including the jitter field, on both sides of
        // BIT_EXACT_MAX_N (the factor runs one row kernel at every size),
        // and whether or not the group of four rows lines up with `n`.
        let cases =
            [(1, 1, 3), (5, 2, 7), (9, 3, 21), (24, 8, 11), (60, 16, 5), (126, 5, 9), (131, 16, 4)];
        for (n, q, seed) in cases {
            let full = spd_uniform_diag(n + q, seed, 2.0 * (n + q) as f64);
            let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
            let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
            let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
            let mut ext = Cholesky::factor(&a).unwrap();
            ext.extend(&b, &c).unwrap();
            let direct = Cholesky::factor(&full).unwrap();
            assert_eq!(ext.jitter(), direct.jitter(), "n={n} q={q}");
            for i in 0..n + q {
                for j in 0..n + q {
                    assert!(
                        ext.l()[(i, j)].to_bits() == direct.l()[(i, j)].to_bits(),
                        "n={n} q={q} ({i},{j}): {} vs {}",
                        ext.l()[(i, j)],
                        direct.l()[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn extend_bit_identity_survives_jitter_escalation() {
        // Duplicated training points make a kernel matrix singular and
        // force the base factorization onto a positive jitter; the
        // uniform diagonal keeps the escalation sequence of the stacked
        // matrix identical, so the contract must still hold.
        let n = 6;
        let q = 2;
        let pts = [0.0, 0.0, 0.3, 0.9, 1.4, 2.2, 2.9, 3.5];
        let full = kernelish(&pts);
        let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
        let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
        let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
        let mut ext = Cholesky::factor(&a).unwrap();
        assert!(ext.jitter() > 0.0, "fixture must exercise the jitter path");
        ext.extend(&b, &c).unwrap();
        let direct = Cholesky::factor(&full).unwrap();
        assert_eq!(ext.jitter(), direct.jitter());
        assert_eq!(ext.l(), direct.l());
    }

    #[test]
    fn extend_rejects_rather_than_perturbing_the_base() {
        let a = spd(5, 13);
        let base = Cholesky::factor(&a).unwrap();
        let mut ch = base.clone();
        // Shape mismatches are typed errors.
        assert!(ch.extend(&Matrix::zeros(4, 1), &Matrix::zeros(1, 1)).is_err());
        assert!(ch.extend(&Matrix::zeros(5, 2), &Matrix::zeros(1, 1)).is_err());
        // An appended block that is not PD at the base's jitter must
        // error (the caller then falls back to a full refactorization,
        // which may escalate jitter globally) — never silently succeed.
        let mut c = Matrix::zeros(1, 1);
        c[(0, 0)] = -3.0;
        assert!(matches!(
            ch.extend(&Matrix::zeros(5, 1), &c),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert_bits_eq(ch.l(), base.l(), "after rejected appends");
        assert_eq!(ch.jitter().to_bits(), base.jitter().to_bits());
    }

    #[test]
    fn failed_append_leaves_factor_shape_and_bits() {
        // The pivot fails on the last of several appended rows, after the
        // kernel has written the rows before it: the factor must still
        // come back with its old shape and bits, on both sides of
        // BIT_EXACT_MAX_N, and then extend as if nothing had happened.
        for (n, q) in [(6, 3), (130, 5)] {
            let full = spd_uniform_diag(n + q, 31 + n as u64, 2.0 * (n + q) as f64);
            let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
            let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
            let good = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
            let mut bad = good.clone();
            bad[(q - 1, q - 1)] = -1.0;
            let base = Cholesky::factor(&a).unwrap();
            let mut ch = base.clone();
            assert!(matches!(ch.extend(&b, &bad), Err(LinalgError::NotPositiveDefinite { .. })));
            assert_eq!(ch.n(), n);
            assert_bits_eq(ch.l(), base.l(), &format!("n={n} after a failed append"));
            ch.extend(&b, &good).unwrap();
            assert_bits_eq(ch.l(), Cholesky::factor(&full).unwrap().l(), &format!("n={n} retry"));
        }
    }

    #[test]
    fn tiled_multi_rhs_forward_solve_matches_one_row_axpy_reference() {
        // Every residue of n mod 4 (the row groups' remainder) against
        // every column-tile shape: empty, narrower than one tile, exact
        // tiles, and tiles plus a 4-wide and 1-wide remainder.
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 33, 130, 131, 132, 133] {
            let ch = Cholesky::factor(&spd(n, 700 + n as u64)).unwrap();
            let l = ch.l();
            for m in [0usize, 1, 7, 8, 9, 32, 37] {
                let b = Matrix::from_fn(n, m, |i, j| ((3 * i + 7 * j) as f64 * 0.37).sin() + 0.1);
                let mut want = b.clone();
                for i in 0..n {
                    for j in 0..i {
                        let lij = l[(i, j)];
                        let yj = want.row(j).to_vec();
                        axpy(-lij, &yj, want.row_mut(i));
                    }
                    let inv = 1.0 / l[(i, i)];
                    for v in want.row_mut(i) {
                        *v *= inv;
                    }
                }
                let mut got = b.clone();
                ch.solve_lower_multi_in_place(&mut got);
                assert_bits_eq(&got, &want, &format!("n={n} m={m}"));
            }
        }
    }

    /// One-row-at-a-time Cholesky with the factorization's jitter
    /// schedule: the reference every kernel in this module must match
    /// bit for bit. Returns the factor and the jitter it settled on.
    fn reference_factor(
        n: usize,
        mean_diag: f64,
        entry: impl Fn(usize, usize) -> f64,
    ) -> Result<(Matrix, f64)> {
        let attempt = |jitter: f64| -> Result<Matrix> {
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let s = if j == 0 { 0.0 } else { dot(&l.row(i)[..j], &l.row(j)[..j]) };
                    if i == j {
                        let pivot = entry(i, i) + jitter - s;
                        if pivot <= 0.0 || !pivot.is_finite() {
                            return Err(LinalgError::NotPositiveDefinite { pivot });
                        }
                        l[(i, j)] = pivot.sqrt();
                    } else {
                        l[(i, j)] = (entry(i, j) - s) / l[(j, j)];
                    }
                }
            }
            Ok(l)
        };
        let mut jitter = 0.0;
        for tries in 0..=JITTER_TRIES {
            match attempt(jitter) {
                Ok(l) => return Ok((l, jitter)),
                Err(e) if tries == JITTER_TRIES => return Err(e),
                Err(_) => {
                    jitter = if jitter == 0.0 {
                        JITTER_START * mean_diag.max(f64::MIN_POSITIVE)
                    } else {
                        jitter * JITTER_GROWTH
                    };
                }
            }
        }
        unreachable!()
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}");
        for (k, (u, v)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                u.to_bits() == v.to_bits(),
                "{what} ({}, {}): {u} vs {v}",
                k / want.cols(),
                k % want.cols()
            );
        }
    }

    /// Packed strict lower triangle of `a` at `stride`, with a finite
    /// sentinel in the payload slots.
    fn pack(a: &Matrix, stride: usize) -> Vec<f64> {
        let n = a.rows();
        let mut packed = vec![7.5; n * n.saturating_sub(1) / 2 * stride];
        for i in 0..n {
            for j in 0..i {
                packed[(i * (i - 1) / 2 + j) * stride] = a[(i, j)];
            }
        }
        packed
    }

    /// Dense, packed stride-1 and packed stride-2 factors of a
    /// uniform-diagonal matrix must all equal the one-row reference.
    fn assert_factor_matches_reference(a: &Matrix, what: &str) {
        let n = a.rows();
        let diag = if n == 0 { 1.0 } else { a[(0, 0)] };
        let (want, jitter) = reference_factor(n, diag.abs(), |i, j| a[(i, j)]).unwrap();
        let dense = Cholesky::factor(a).unwrap();
        assert_eq!(dense.jitter().to_bits(), jitter.to_bits(), "{what} dense jitter");
        assert_bits_eq(dense.l(), &want, &format!("{what} dense"));
        for stride in [1usize, 2] {
            let packed = pack(a, stride);
            let ch = Cholesky::factor_packed_reusing(&packed, stride, diag, n, Matrix::zeros(0, 0))
                .unwrap();
            assert_eq!(ch.jitter().to_bits(), jitter.to_bits(), "{what} stride {stride} jitter");
            assert_bits_eq(ch.l(), &want, &format!("{what} stride {stride}"));
        }
    }

    #[test]
    fn factor_matches_one_row_reference_bitwise() {
        let sizes = (1..=9).chain(127..=131).chain([300]);
        for n in sizes {
            let a = spd_uniform_diag(n, 500 + n as u64, 2.0 * n as f64);
            assert_factor_matches_reference(&a, &format!("n={n}"));
        }
        // Duplicated points make the kernel matrix singular, so the
        // factor must escalate jitter exactly as the reference does.
        for n in [9usize, 130] {
            let mut pts: Vec<f64> = (0..n).map(|i| i as f64 * 0.3).collect();
            pts[n / 2] = pts[1];
            let a = kernelish(&pts);
            assert!(Cholesky::factor(&a).unwrap().jitter() > 0.0, "n={n} must escalate");
            assert_factor_matches_reference(&a, &format!("jitter n={n}"));
        }
    }

    #[test]
    fn forward_solve_and_inverse_rows_match_one_row_references() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 13, 64, 129, 130, 131, 132] {
            let ch = Cholesky::factor(&spd(n, 900 + n as u64)).unwrap();
            let l = ch.l();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() + 0.2).collect();
            let mut want = b.clone();
            for i in 0..n {
                let s = dot(&l.row(i)[..i], &want[..i]);
                want[i] = (want[i] - s) / l[(i, i)];
            }
            let mut got = b.clone();
            ch.solve_lower_in_place(&mut got);
            for (i, (u, v)) in got.iter().zip(&want).enumerate() {
                assert!(u.to_bits() == v.to_bits(), "n={n} y[{i}]: {u} vs {v}");
            }
            let mut want = Matrix::zeros(n, n);
            for a in 0..n {
                let row = want.row_mut(a);
                row[a] = 1.0 / l[(a, a)];
                for k in (a + 1)..n {
                    let s = dot(&l.row(k)[a..k], &row[a..k]);
                    row[k] = -s / l[(k, k)];
                }
            }
            let mut got = Matrix::from_fn(n, n, |_, _| f64::NAN);
            ch.inv_lower_t_into(&mut got);
            assert_bits_eq(&got, &want, &format!("n={n} L^-T"));
        }
    }

    #[test]
    fn blocked_factor_above_threshold_matches_serial_reference() {
        // Past BIT_EXACT_MAX_N the factor still runs the one row kernel,
        // so it must equal the one-row reference bit for bit, with no
        // jitter, and reconstruct the input.
        for n in [129, 200, 313] {
            let a = spd(n, 100 + n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            assert_eq!(ch.jitter(), 0.0, "n={n}");
            let mean_diag = a.diag().iter().map(|v| v.abs()).sum::<f64>() / n as f64;
            let (serial, _) = reference_factor(n, mean_diag, |i, j| a[(i, j)]).unwrap();
            assert_bits_eq(ch.l(), &serial, &format!("n={n}"));
            let back = ch.reconstruct();
            assert!(back.sub(&a).unwrap().norm_max() < 1e-9 * a.norm_max(), "n={n}");
        }
    }

    #[test]
    fn blocked_packed_factor_matches_dense_bitwise() {
        // The packed and dense entry points must stay bit-identical to
        // each other above BIT_EXACT_MAX_N too (both run the same row
        // kernel, reading their entries through different closures).
        let n = 160;
        let diag = 2.0 * n as f64;
        let a = spd_uniform_diag(n, 77, diag);
        let dense = Cholesky::factor(&a).unwrap();
        for stride in [1usize, 2] {
            let mut packed = vec![9.25; n * (n - 1) / 2 * stride];
            for i in 0..n {
                for j in 0..i {
                    packed[(i * (i - 1) / 2 + j) * stride] = a[(i, j)];
                }
            }
            let ch = Cholesky::factor_packed_reusing(&packed, stride, diag, n, Matrix::zeros(0, 0))
                .unwrap();
            assert_eq!(ch.jitter(), dense.jitter());
            assert_eq!(ch.l(), dense.l(), "stride {stride}");
        }
    }

    #[test]
    fn blocked_factor_jitter_rescue_still_works() {
        // Duplicate two points of a kernel system past BIT_EXACT_MAX_N:
        // the factor must escalate jitter and recover.
        let n = 140;
        let mut pts: Vec<f64> = (0..n).map(|i| i as f64 * 0.05).collect();
        pts[1] = pts[0];
        let a = kernelish(&pts);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        assert!(ch.log_det().is_finite());
    }

    #[test]
    fn factor_reusing_matches_factor_and_scrubs_stale_buffer() {
        let a = spd(8, 19);
        let direct = Cholesky::factor(&a).unwrap();
        // Poison the buffer to prove every entry is overwritten.
        let stale = Matrix::from_fn(8, 8, |_, _| f64::NAN);
        let reused = Cholesky::factor_reusing(&a, stale).unwrap();
        assert_eq!(direct.l(), reused.l());
        // Round-trip the storage through another factorization.
        let b = spd(8, 23);
        let again = Cholesky::factor_reusing(&b, reused.into_l()).unwrap();
        let fresh = Cholesky::factor(&b).unwrap();
        assert_eq!(again.l(), fresh.l());
    }
}
