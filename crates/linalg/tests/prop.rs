//! Property-based tests for the dense linear-algebra substrate.

use pbo_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-1, 1].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: a well-conditioned SPD matrix A = G G^T + n I.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |g| {
        let mut a = g.matmul_nt(&g).unwrap();
        a.add_diag(n as f64 + 1.0);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix(5, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_matvec(a in matrix(4, 5), b in matrix(5, 3),
                                     x in prop::collection::vec(-1.0f64..1.0, 3)) {
        // (A B) x == A (B x)
        let lhs = a.matmul(&b).unwrap().matvec(&x).unwrap();
        let rhs = a.matvec(&b.matvec(&x).unwrap()).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(4, 6), b in matrix(3, 6)) {
        // A B^T computed directly equals A * transpose(B).
        let direct = a.matmul_nt(&b).unwrap();
        let via = a.matmul(&b.transpose()).unwrap();
        prop_assert!(direct.sub(&via).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn cholesky_roundtrip(a in spd(8)) {
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.reconstruct();
        prop_assert!(a.sub(&back).unwrap().norm_max() < 1e-8 * (1.0 + a.norm_max()));
    }

    #[test]
    fn cholesky_solve_residual(a in spd(6), b in prop::collection::vec(-1.0f64..1.0, 6)) {
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in b.iter().zip(&back) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn cholesky_logdet_positive_for_diagonally_dominant(a in spd(5)) {
        // A has diagonal >= n+1 and |off-diag| <= n, so det >= 1 by
        // Gershgorin-ish bounds; log det must be finite and positive.
        let ch = Cholesky::factor(&a).unwrap();
        prop_assert!(ch.log_det().is_finite());
        prop_assert!(ch.log_det() > 0.0);
    }

    #[test]
    fn extend_agrees_with_direct(g in matrix(9, 9)) {
        let mut full = g.matmul_nt(&g).unwrap();
        full.add_diag(10.0);
        let n = 6;
        let q = 3;
        let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
        let b = Matrix::from_fn(n, q, |i, j| full[(i, n + j)]);
        let c = Matrix::from_fn(q, q, |i, j| full[(n + i, n + j)]);
        let mut ext = Cholesky::factor(&a).unwrap();
        ext.extend(&b, &c).unwrap();
        let direct = Cholesky::factor(&full).unwrap();
        prop_assert!((ext.log_det() - direct.log_det()).abs() < 1e-7);
    }

    #[test]
    fn quad_form_nonnegative(a in spd(7), b in prop::collection::vec(-1.0f64..1.0, 7)) {
        let ch = Cholesky::factor(&a).unwrap();
        prop_assert!(ch.quad_form(&b).unwrap() >= -1e-12);
    }
}
