//! Reverse-mode differentiation through a Cholesky factorization.
//!
//! Given `Σ = L Lᵀ` and the adjoint `L̄ = ∂f/∂L` of some scalar `f`,
//! the adjoint with respect to the (symmetric) input is
//!
//! `Σ̄ = ½ · L⁻ᵀ (Φ(Lᵀ L̄) + Φ(Lᵀ L̄)ᵀ) L⁻¹`
//!
//! where `Φ` keeps the lower triangle and halves the diagonal
//! (I. Murray, "Differentiation of the Cholesky decomposition", 2016).
//! This is the hand-derived replacement for the autodiff step BoTorch
//! relies on when optimizing Monte-Carlo q-EI.

use pbo_linalg::Matrix;

/// Solve `Lᵀ X = B` for lower-triangular `L` (columns independently).
fn solve_lower_t_matrix(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    let mut x = b.clone();
    for j in 0..b.cols() {
        for i in (0..n).rev() {
            let mut s = x[(i, j)];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[(k, j)];
            }
            x[(i, j)] = s / l[(i, i)];
        }
    }
    x
}

/// Solve `X L = B` for lower-triangular `L`, i.e. `X = B L⁻¹`
/// (row-wise back-substitution against `Lᵀ`).
fn solve_right_lower(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    let mut x = b.clone();
    for i in 0..b.rows() {
        for j in (0..n).rev() {
            let mut s = x[(i, j)];
            for k in (j + 1)..n {
                s -= x[(i, k)] * l[(k, j)];
            }
            x[(i, j)] = s / l[(j, j)];
        }
    }
    x
}

/// `Φ`: keep the lower triangle, halve the diagonal.
fn phi(m: &Matrix) -> Matrix {
    let n = m.rows();
    Matrix::from_fn(n, n, |i, j| {
        if i > j {
            m[(i, j)]
        } else if i == j {
            0.5 * m[(i, j)]
        } else {
            0.0
        }
    })
}

/// Compute `Σ̄` from `L` and `L̄` (see module docs). The result is
/// symmetric.
pub fn chol_pullback(l: &Matrix, lbar: &Matrix) -> Matrix {
    assert!(l.is_square() && lbar.rows() == l.rows() && lbar.cols() == l.cols());
    // M = Φ(Lᵀ L̄), symmetrized.
    let ltlbar = l.transpose().matmul(lbar).expect("square product");
    let p = phi(&ltlbar);
    let mut sym = p.add(&p.transpose()).expect("same shape");
    sym.scale(0.5);
    // Σ̄ = L⁻ᵀ sym L⁻¹.
    let tmp = solve_lower_t_matrix(l, &sym);
    solve_right_lower(l, &tmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_linalg::Cholesky;

    /// Parameterize a 3x3 SPD matrix by 6 free entries of a symmetric
    /// matrix added to a well-conditioned base, compute f(L(Σ)) for a
    /// generic linear functional of L, and compare the pullback against
    /// finite differences of Σ entries.
    #[test]
    fn pullback_matches_finite_differences() {
        let n = 3;
        // Weights of the scalar test functional f(L) = sum w_ij L_ij
        // over the lower triangle.
        let w = Matrix::from_fn(n, n, |i, j| {
            if i >= j {
                ((i * n + j) as f64 * 0.7).sin() + 0.2
            } else {
                0.0
            }
        });
        let base = {
            let g = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) as f64).cos() * 0.4);
            let mut a = g.matmul_nt(&g).unwrap();
            a.add_diag(2.0);
            a
        };
        let f_of_sigma = |sigma: &Matrix| -> f64 {
            let l = Cholesky::factor(sigma).unwrap();
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..=i {
                    s += w[(i, j)] * l.l()[(i, j)];
                }
            }
            s
        };

        let l = Cholesky::factor(&base).unwrap();
        let sigma_bar = chol_pullback(l.l(), &w);

        // Finite differences: perturb Σ symmetrically.
        let h = 1e-6;
        for a in 0..n {
            for b in 0..=a {
                let mut plus = base.clone();
                let mut minus = base.clone();
                plus[(a, b)] += h;
                minus[(a, b)] -= h;
                if a != b {
                    plus[(b, a)] += h;
                    minus[(b, a)] -= h;
                }
                let fd = (f_of_sigma(&plus) - f_of_sigma(&minus)) / (2.0 * h);
                // Perturbing the symmetric pair (a,b)+(b,a) picks up both
                // adjoint entries.
                let analytic =
                    if a == b { sigma_bar[(a, b)] } else { sigma_bar[(a, b)] + sigma_bar[(b, a)] };
                assert!(
                    (fd - analytic).abs() < 1e-6 * (1.0 + fd.abs()),
                    "entry ({a},{b}): fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn pullback_of_zero_is_zero() {
        let base = {
            let mut m = Matrix::identity(4);
            m.add_diag(1.0);
            m
        };
        let l = Cholesky::factor(&base).unwrap();
        let z = Matrix::zeros(4, 4);
        let out = chol_pullback(l.l(), &z);
        assert!(out.norm_max() < 1e-300);
    }

    #[test]
    fn pullback_is_symmetric() {
        let g = Matrix::from_fn(4, 4, |i, j| ((i * 3 + j) as f64 * 0.31).sin());
        let mut sigma = g.matmul_nt(&g).unwrap();
        sigma.add_diag(3.0);
        let l = Cholesky::factor(&sigma).unwrap();
        let lbar = Matrix::from_fn(4, 4, |i, j| if i >= j { (i + j) as f64 } else { 0.0 });
        let sb = chol_pullback(l.l(), &lbar);
        for i in 0..4 {
            for j in 0..4 {
                assert!((sb[(i, j)] - sb[(j, i)]).abs() < 1e-12);
            }
        }
    }
}
