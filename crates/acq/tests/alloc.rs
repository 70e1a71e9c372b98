//! Zero-allocation proof for the workspace acquisition hot path.
//!
//! After warm-up, `value_grad_into` for the analytic criteria
//! (EI/PI/UCB) must perform no heap allocations: the posterior
//! intermediates live in the `AcqWorkspace` and the gradient lands in a
//! caller-owned, pre-sized `Vec`. One test per file so no concurrent
//! test thread pollutes the counter.

use pbo_acq::{
    posterior_with_grad_ws, AcqWorkspace, Acquisition, ExpectedImprovement,
    ProbabilityOfImprovement, UpperConfidenceBound,
};
use pbo_gp::kernel::Kernel;
use pbo_gp::GaussianProcess;
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
        y.push(s);
    }
    let mut kernel = Kernel::new(d);
    kernel.lengthscales = vec![0.4; d];
    GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
}

#[test]
fn analytic_acquisition_workspace_path_is_allocation_free_after_warmup() {
    let d = 5;
    let gp = fitted_gp(48, d);
    let f_best = gp.best_observed(false);
    let acqs: [&dyn Acquisition; 3] = [
        &ExpectedImprovement { f_best },
        &ProbabilityOfImprovement { f_best },
        &UpperConfidenceBound::default(),
    ];
    let queries: Vec<Vec<f64>> =
        (0..16).map(|i| (0..d).map(|j| (((i * d + j) as f64) * 0.417).fract()).collect()).collect();

    let mut ws = AcqWorkspace::new();
    let mut grad = Vec::with_capacity(d);

    // Warm-up sizes every buffer (workspace and gradient).
    posterior_with_grad_ws(&gp, &queries[0], &mut ws);
    for acq in &acqs {
        let _ = acq.value_grad_into(&gp, &queries[0], &mut ws, &mut grad);
    }

    let before = thread_allocs();
    let mut acc = 0.0;
    for q in &queries {
        for acq in &acqs {
            acc += acq.value_grad_into(&gp, q, &mut ws, &mut grad);
            acc += grad.iter().sum::<f64>();
        }
    }
    let after = thread_allocs();
    assert!(acc.is_finite());
    assert_eq!(
        after - before,
        0,
        "workspace acquisition path allocated {} times over {} calls",
        after - before,
        3 * queries.len()
    );
}
