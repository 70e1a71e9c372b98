//! Phase-level timing of the MLL evaluation paths (dev tool, not a
//! recorded benchmark). Run with `cargo run --release -p pbo-bench
//! --example profile_fit`.

use pbo_gp::fit::mll_and_grad;
use pbo_gp::workspace::{mll_and_grad_ws, FitWorkspace};
use pbo_linalg::vec_ops::dot;
use pbo_linalg::{Cholesky, Matrix};
use pbo_sampling::{lhs, SeedStream};
use std::time::Instant;

const DIM: usize = 12;

fn dataset(n: usize) -> (Matrix, Vec<f64>) {
    let seeds = SeedStream::new(2);
    let mut rng = seeds.fork_named("profile-data").rng();
    let pts = lhs::latin_hypercube(&mut rng, n, DIM);
    let mut x = Matrix::zeros(0, DIM);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().map(|v| (3.0 * v).sin() + v * v).sum::<f64>());
        x.push_row(p).unwrap();
    }
    (x, y)
}

fn time<F: FnMut() -> f64>(label: &str, reps: usize, mut f: F) -> f64 {
    let mut sink = 0.0;
    // warmup
    sink += f();
    let t0 = Instant::now();
    for _ in 0..reps {
        sink += f();
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    println!("{label:32} {us:10.1} us   (sink {sink:.3e})");
    us
}

fn main() {
    let n = 256;
    let (x, y) = dataset(n);
    let m = pbo_linalg::vec_ops::mean(&y);
    let s = pbo_linalg::vec_ops::variance(&y).sqrt().max(1e-8);
    let y_std: Vec<f64> = y.iter().map(|v| (v - m) / s).collect();
    let mut params = vec![(0.5f64).ln(); DIM];
    params.push(0.0);
    params.push((1e-4f64).ln());

    let mut ws = FitWorkspace::new();
    ws.prepare(&x);

    time("mll_and_grad_ws", 20, || mll_and_grad_ws(&mut ws, &y_std, &params).unwrap().0);
    time("mll_and_grad naive", 20, || mll_and_grad(&x, &y_std, &params).unwrap().0);

    // Individual phases on a fixed K_y.
    let (kernel, noise) = pbo_gp::fit::unpack(&params);
    let mut ky = kernel.matrix(&x);
    ky.add_diag(noise);
    time("kernel.matrix", 20, || kernel.matrix(&x)[(1, 0)]);
    let chol = Cholesky::factor(&ky).unwrap();
    time("cholesky factor", 20, || Cholesky::factor(&ky).unwrap().l()[(0, 0)]);
    let mut minv = Matrix::zeros(n, n);
    time("inv_lower_t_into", 20, || {
        chol.inv_lower_t_into(&mut minv);
        minv[(0, 0)]
    });
    time("pre-PR inverse (per-col)", 5, || {
        let mut inv = Matrix::identity(n);
        let mut col = vec![0.0; n];
        for j in 0..n {
            for i in 0..n {
                col[i] = inv[(i, j)];
            }
            chol.solve_lower_in_place(&mut col);
            chol.solve_lower_t_in_place(&mut col);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv[(0, 0)]
    });
    time("multi-solve inverse", 5, || chol.inverse()[(0, 0)]);
    // Raw suffix-dot syrk over M (the kinv pair pass alone).
    time("suffix-dot syrk", 20, || {
        let mut acc = 0.0;
        for a in 0..n {
            let ma = minv.row(a);
            for b in 0..a {
                acc += dot(&ma[a..], &minv.row(b)[a..]);
            }
        }
        acc
    });
}
