//! Zero-allocation proof for the single-point posterior hot path.
//!
//! A counting global allocator pins the PR's acceptance criterion:
//! after workspace warm-up, `posterior_parts_with` must not touch the
//! heap at all. This file holds exactly one test so
//! no concurrent test thread can pollute the counter.

use pbo_gp::kernel::Kernel;
use pbo_gp::{GaussianProcess, PredictWorkspace};
use pbo_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates concurrently on its
// own threads, so a process-global count would be flaky. Const-init so
// the first access inside `alloc` itself cannot recurse.
thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn thread_allocs() -> usize {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fitted_gp(n: usize, d: usize) -> GaussianProcess {
    let mut x = Matrix::zeros(n, d);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..d {
            let v = (((i * d + j) as f64) * 0.61803).fract();
            x[(i, j)] = v;
            s += (v - 0.4) * (v - 0.4);
        }
        y.push(s + (3.0 * x[(i, 0)]).sin());
    }
    let mut kernel = Kernel::new(d);
    kernel.lengthscales = vec![0.4; d];
    GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
}

#[test]
fn single_point_posterior_path_is_allocation_free_after_warmup() {
    let gp = fitted_gp(64, 6);
    let mut ws = PredictWorkspace::new();
    let queries: Vec<[f64; 6]> = (0..32)
        .map(|i| {
            let mut q = [0.0; 6];
            for (j, v) in q.iter_mut().enumerate() {
                *v = (((i * 6 + j) as f64) * 0.321).fract();
            }
            q
        })
        .collect();

    // Warm-up sizes every workspace buffer.
    let (ms0, vs0) = gp.posterior_parts_with(&queries[0], &mut ws);
    assert!(ms0.is_finite() && vs0 > 0.0);

    let before = thread_allocs();
    let mut acc = 0.0;
    for q in &queries {
        let (ms, vs) = gp.posterior_parts_with(q, &mut ws);
        acc += ms + vs;
    }
    let after = thread_allocs();
    assert!(acc.is_finite());
    assert_eq!(
        after - before,
        0,
        "single-point posterior path allocated {} times over {} calls",
        after - before,
        queries.len()
    );
}
