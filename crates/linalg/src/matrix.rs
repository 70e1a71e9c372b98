//! Row-major dense matrix.

use crate::parallel;
use crate::vec_ops::dot;
use crate::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// Row-major storage keeps a row contiguous, which is the access pattern
/// of every hot kernel in this workspace (kernel-matrix assembly walks
/// rows of the design matrix; the Cholesky dot-product form walks rows of
/// `L`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Reshape to `rows x cols` in place, reusing the backing allocation
    /// when its capacity allows. Every entry is reset to zero; previous
    /// contents are discarded. This is the workspace-reuse primitive for
    /// hot paths that would otherwise allocate a fresh matrix per call.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshape to `rows x cols` in place, keeping every entry of the
    /// overlap of the old and new shapes at its `(i, j)` position and
    /// zeroing the rest. Rows move within the one buffer (a memmove per
    /// row, no second buffer), and the buffer grows to exactly the new
    /// size. This is the growth primitive of the in-place appends
    /// ([`crate::Cholesky::extend`] and the GP factor's transpose), and
    /// shrinking back restores the old matrix bit for bit.
    pub fn restride(&mut self, rows: usize, cols: usize) {
        let (old_cols, len) = (self.cols, rows * cols);
        let (keep_rows, keep_cols) = (rows.min(self.rows), cols.min(old_cols));
        if len > self.data.len() {
            self.data.reserve_exact(len - self.data.len());
            self.data.resize(len, 0.0);
        }
        if cols <= old_cols {
            // Rows move towards the front: ascending order reads each
            // source before an earlier row's copy can reach it.
            for i in 0..keep_rows {
                self.data.copy_within(i * old_cols..i * old_cols + keep_cols, i * cols);
            }
        } else {
            // Rows move towards the back: descending order, and the new
            // columns of row `i` lie past every unmoved source.
            for i in (0..keep_rows).rev() {
                self.data.copy_within(i * old_cols..i * old_cols + keep_cols, i * cols);
                self.data[i * cols + keep_cols..(i + 1) * cols].fill(0.0);
            }
        }
        self.data.truncate(len);
        self.data[keep_rows * cols..].fill(0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Errors if the length does not
    /// match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "buffer of {} entries for a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows (mostly for tests and small fixtures).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::ShapeMismatch("ragged rows".into()));
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: r, cols: c, data })
    }

    /// Build an `n x n` matrix from a function of the index pair; used for
    /// kernel-matrix assembly.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let row = m.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Two disjoint mutable rows (`i != j`), used by in-place factorizations.
    pub fn rows_mut2(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j, "rows_mut2 requires distinct rows");
        let c = self.cols;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * c);
            (&mut a[i * c..(i + 1) * c], &mut b[..c])
        } else {
            let (a, b) = self.data.split_at_mut(i * c);
            let (bj, bi) = (&mut a[j * c..(j + 1) * c], &mut b[..c]);
            (bi, bj)
        }
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy of the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec: {}x{} by vector of {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), x)).collect())
    }

    /// `self^T * x`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec_t: {}x{} by vector of {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            crate::vec_ops::axpy(x[i], self.row(i), &mut y);
        }
        Ok(y)
    }

    /// Matrix product `self * other`, parallelised over row blocks when
    /// the work is large enough to amortise thread spawn.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        // Transposing the right operand turns the inner kernel into a
        // pair of contiguous row reads (dot-product form).
        let bt = other.transpose();
        let mut out = Matrix::zeros(self.rows, other.cols);
        let cols = other.cols;
        let work = self.rows * self.cols * cols;
        parallel::for_each_row_chunk(out.as_mut_slice(), cols, work, |i, out_row| {
            let a_row = self.row(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, bt.row(j));
            }
        });
        Ok(out)
    }

    /// `self * other^T` without materialising the transpose (both operands
    /// are read row-wise).
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul_nt: {}x{} by ({}x{})^T",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        let cols = other.rows;
        let work = self.rows * self.cols * cols;
        parallel::for_each_row_chunk(out.as_mut_slice(), cols, work, |i, out_row| {
            let a_row = self.row(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        });
        Ok(out)
    }

    /// Largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        crate::vec_ops::norm_inf(&self.data)
    }

    /// In-place scale.
    pub fn scale(&mut self, alpha: f64) {
        crate::vec_ops::scale(alpha, &mut self.data);
    }

    /// Elementwise sum; errors on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch("add".into()));
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise difference; errors on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch("sub".into()));
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Add `alpha` to the diagonal in place (nugget/jitter).
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Symmetrise in place: `A <- (A + A^T) / 2`. Kernel matrices are
    /// symmetric in exact arithmetic; this removes rounding asymmetry
    /// before factorization.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Append a row; errors if the width differs.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows > 0 && row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "push_row: row of {} onto width {}",
                row.len(),
                self.cols
            )));
        }
        if self.rows == 0 {
            self.cols = row.len();
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// True if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn identity_matvec_is_id() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.3 - 1.0);
        let b = Matrix::from_fn(5, 3, |i, j| ((i + j) as f64).cos());
        let via_t = a.matmul(&b.transpose()).unwrap();
        let direct = a.matmul_nt(&b).unwrap();
        assert!(approx_eq(&via_t, &direct, 1e-12));
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f64) - (j as f64) * 0.5);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let expect = a.transpose().matvec(&x).unwrap();
        let got = a.matvec_t(&x).unwrap();
        for (e, g) in expect.iter().zip(&got) {
            assert!((e - g).abs() < 1e-12);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch(_))));
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn rows_mut2_disjoint_access() {
        let mut a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let (r0, r2) = a.rows_mut2(0, 2);
        r0[0] = 100.0;
        r2[1] = -100.0;
        assert_eq!(a[(0, 0)], 100.0);
        assert_eq!(a[(2, 1)], -100.0);
        // reversed order
        let (r2b, r1) = a.rows_mut2(2, 1);
        r2b[0] = 7.0;
        r1[1] = 8.0;
        assert_eq!(a[(2, 0)], 7.0);
        assert_eq!(a[(1, 1)], 8.0);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut a = Matrix::from_fn(4, 4, |i, j| (i as f64) * 1.7 + (j as f64) * 0.3);
        a.symmetrize();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn restride_keeps_the_overlap_and_zeroes_the_rest() {
        let base = Matrix::from_fn(5, 4, |i, j| (10 * i + j) as f64 + 0.5);
        for (rows, cols) in [(7, 6), (5, 4), (3, 2), (6, 3), (2, 7), (0, 3), (5, 0)] {
            let mut m = base.clone();
            m.restride(rows, cols);
            assert_eq!((m.rows(), m.cols()), (rows, cols));
            let want = Matrix::from_fn(rows, cols, |i, j| {
                if i < base.rows() && j < base.cols() {
                    base[(i, j)]
                } else {
                    0.0
                }
            });
            assert_eq!(m, want, "{rows}x{cols}");
            // Shrinking back to the old shape restores it exactly when
            // the new shape covered it.
            if rows >= base.rows() && cols >= base.cols() {
                m.restride(base.rows(), base.cols());
                assert_eq!(m, base, "{rows}x{cols} round trip");
            }
        }
    }

    #[test]
    fn push_row_grows() {
        let mut a = Matrix::zeros(0, 0);
        a.push_row(&[1.0, 2.0]).unwrap();
        a.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
        assert!(a.push_row(&[1.0]).is_err());
    }
}
