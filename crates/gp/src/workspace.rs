//! Cached-distance fitting workspace and inverse-free MLL evaluation.
//!
//! The naive [`crate::fit::mll_and_grad`] recomputes every pairwise
//! coordinate difference twice per evaluation (once inside
//! `Kernel::matrix`, once in the gradient contraction), allocates three
//! fresh `n x n` matrices, and forms the explicit inverse `K_y⁻¹` — an
//! extra `2n³` flops on top of the factorization. L-BFGS calls the
//! objective dozens of times per fit on *the same data*, so everything
//! that depends only on `x` is hoisted into a [`FitWorkspace`] prepared
//! once per hyperparameter search ([`crate::fit::fit_hypers_with`] /
//! [`crate::fit::refit_warm_with`]):
//!
//! - packed per-dimension squared differences `(x_a[j] − x_b[j])²` for
//!   every pair `b < a` (pair-major: pair `p = a(a−1)/2 + b` owns `d`
//!   contiguous entries, and row `a`'s pairs are contiguous), from which
//!   every kernel and gradient evaluation re-derives scaled distances
//!   with one fused multiply-add pass per pair;
//! - reusable packed-kernel, Cholesky-factor, and `L⁻ᵀ` buffers, so
//!   steady-state MLL evaluations allocate only O(n) scratch.
//!
//! The gradient never materializes `K_y⁻¹`. With `M = L⁻ᵀ`
//! (each row computed by an independent sparse triangular solve, in
//! parallel — see `Cholesky::inv_lower_t_into`):
//!
//! - `(K_y⁻¹)_ab = Σ_{k ≥ max(a,b)} M_ak M_bk` — a contiguous suffix dot
//!   product, fused directly into the per-pair lengthscale contraction;
//! - `tr(K_y⁻¹) = ‖M‖_F²`, which closes the outputscale and noise
//!   gradients through trace identities (derived below) without ever
//!   touching the full `n²` sum the naive path does:
//!
//! With `W = ααᵀ − K_y⁻¹`, `K = K_y − σ_n² I` and `K_y α = r`:
//!
//! `Σ_ab W_ab K_ab = αᵀr − n − σ_n² (αᵀα − tr K_y⁻¹)`  (outputscale),
//! `Σ_a  W_aa      = αᵀα − tr K_y⁻¹`                    (noise).
//!
//! Per evaluation this replaces `~4n³` flops (factor + inverse + two
//! O(n²d) difference passes) with `n³/3` (factor) + `n³/2` (triangular
//! inverse) + one O(n²d/2) fused contraction. There is one evaluation,
//! value and gradient together: L-BFGS asks for nothing else. The
//! assembly computes the radial gradient factor of every pair from the
//! same shared transcendental as the kernel value
//! ([`crate::kernel::rho_and_grad`]), so the contraction loop contains no
//! `sqrt`/`exp` at all.

use crate::kernel::rho_and_grad;
use crate::{GpError, Result};
use pbo_linalg::vec_ops::{dot, dot4};
use pbo_linalg::{parallel, Cholesky, Matrix};

/// Reusable buffers for repeated MLL evaluations on one training set.
///
/// Prepare once per fitting call with [`FitWorkspace::prepare`]; the
/// buffers survive across calls (and across engine cycles) so steady
/// state reuses prior allocations whenever shapes repeat.
#[derive(Debug)]
pub struct FitWorkspace {
    n: usize,
    d: usize,
    /// Packed pair-major squared differences: pair `p = a(a−1)/2 + b`
    /// (`b < a`) owns entries `[p·d, (p+1)·d)`.
    sqdiff: Vec<f64>,
    /// Recycled backing store for the Cholesky factor.
    lbuf: Option<Matrix>,
    /// `n x n` buffer for `M = L⁻ᵀ`.
    minv: Matrix,
    /// Pair-major interleaved `[s²·rho(r), g(r)]` per pair: the assembly
    /// pass computes the kernel value and the radial gradient factor
    /// from one shared transcendental, so the pair contraction never
    /// re-derives distances.
    rg: Vec<f64>,
    /// Ragged row offsets into `rg`: row `a` owns `rg[a(a−1)..a(a+1)]`.
    rg_offsets: Vec<usize>,
    /// Copy of the design matrix the distance table was built from. When
    /// the next [`prepare`](FitWorkspace::prepare) sees a design whose
    /// leading rows equal this cache, only the new rows' pairs are
    /// appended (`O(n q d)` instead of `O(n² d)`) — the engine's
    /// append-only growth pattern across cycles. Any other change (a
    /// subsampled fitting view, reordered rows, a different problem)
    /// misses the check and triggers a full rebuild, so the cache can
    /// never serve stale distances.
    xcache: Matrix,
}

impl Default for FitWorkspace {
    fn default() -> Self {
        FitWorkspace::new()
    }
}

impl FitWorkspace {
    /// Empty workspace; buffers are sized lazily by [`prepare`].
    ///
    /// [`prepare`]: FitWorkspace::prepare
    pub fn new() -> Self {
        FitWorkspace {
            n: 0,
            d: 0,
            sqdiff: Vec::new(),
            lbuf: None,
            minv: Matrix::zeros(0, 0),
            rg: Vec::new(),
            rg_offsets: Vec::new(),
            xcache: Matrix::zeros(0, 0),
        }
    }

    /// Number of training points currently prepared.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input dimension currently prepared.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// (Re)compute the packed squared-difference table for the rows of
    /// `x` and (re)size the matrix buffers — once per fitting call,
    /// amortized over every subsequent MLL evaluation.
    ///
    /// When `x` extends the previously prepared design by appended rows
    /// (the engine's growth pattern between cycles, verified by an
    /// `O(n d)` prefix comparison against the cached copy), only the new
    /// rows' pairs are computed: `O(n q d)` instead of `O(n² d)`. The
    /// appended entries evaluate the identical per-pair expression, so
    /// the resulting table is bit-identical to a from-scratch rebuild
    /// (covered by a test). Any prefix mismatch — subsampled fitting
    /// views, reordered or edited rows — falls back to the full rebuild.
    pub fn prepare(&mut self, x: &Matrix) {
        let n = x.rows();
        let d = x.cols();
        let n0 = self.n;
        let pairs = n * n.saturating_sub(1) / 2;
        let prefix_hit = d == self.d
            && n0 > 0
            && n >= n0
            && self.xcache.rows() == n0
            && self.xcache.cols() == d
            && (0..n0).all(|i| x.row(i) == self.xcache.row(i));
        let start = if prefix_hit { n0 } else { 0 };
        self.n = n;
        self.d = d;
        if !prefix_hit {
            self.sqdiff.clear();
        }
        self.sqdiff.resize(pairs * d, 0.0);
        let mut p = start * start.saturating_sub(1) / 2 * d;
        for a in start..n {
            let xa = x.row(a);
            for b in 0..a {
                let xb = x.row(b);
                for j in 0..d {
                    let diff = xa[j] - xb[j];
                    self.sqdiff[p] = diff * diff;
                    p += 1;
                }
            }
        }
        self.xcache.reset_zeros(n, d);
        self.xcache.as_mut_slice().copy_from_slice(x.as_slice());
        self.rg_offsets.clear();
        self.rg_offsets.reserve(n + 1);
        for a in 0..=n {
            self.rg_offsets.push(a * a.saturating_sub(1));
        }
        if self.minv.rows() != n {
            self.minv = Matrix::zeros(n, n);
            self.lbuf = None;
        }
    }

    /// Fill the interleaved `rg` buffer with `[s²·rho(r), g(r)]` per
    /// pair, computing the kernel value and the radial gradient factor
    /// from the *same* transcendental (`kernel::rho_and_grad`).
    /// `K_y` is never materialized densely — the factorization reads the
    /// packed kernel values in place via
    /// `Cholesky::factor_packed_reusing` (stride 2).
    fn assemble_rg(&mut self, outputscale: f64, inv_ls2: &[f64]) {
        let n = self.n;
        let d = self.d;
        self.rg.resize(n * n.saturating_sub(1), 0.0);
        let sqdiff = &self.sqdiff;
        let work = n * n * (8 * d + 16) / 2;
        parallel::for_each_ragged_row_chunk(&mut self.rg, &self.rg_offsets, work, |a, row| {
            let base = a * a.saturating_sub(1) / 2 * d;
            for b in 0..a {
                let sq = &sqdiff[base + b * d..base + (b + 1) * d];
                let mut r2 = 0.0;
                for j in 0..d {
                    r2 += sq[j] * inv_ls2[j];
                }
                let (rho, gf) = rho_and_grad(r2.sqrt());
                row[2 * b] = outputscale * rho;
                row[2 * b + 1] = gf;
            }
        });
    }
}

/// Per-evaluation parameter decode. Matches `fit::unpack`'s arithmetic exactly (`exp` then square)
/// so workspace and naive paths agree to rounding error.
struct Decoded {
    outputscale: f64,
    noise: f64,
    inv_ls2: Vec<f64>,
}

fn decode(d: usize, params: &[f64]) -> Result<Decoded> {
    if params.len() != d + 2 {
        return Err(GpError::BadHyperparameters(format!("{} params for dim {d}", params.len())));
    }
    let inv_ls2 = params[..d]
        .iter()
        .map(|v| {
            let l = v.exp();
            1.0 / (l * l)
        })
        .collect();
    Ok(Decoded { outputscale: params[d].exp(), noise: params[d + 1].exp(), inv_ls2 })
}

/// Factor `K_y` and compute the profiled-trend MLL pieces. Returns the
/// factorization (whose backing buffer must be returned to the workspace
/// via `into_l`) plus the value, weights `α`, and residual `r`.
fn factored(
    ws: &mut FitWorkspace,
    y_std: &[f64],
    dec: &Decoded,
) -> Result<(Cholesky, f64, Vec<f64>, Vec<f64>)> {
    let n = ws.n;
    if y_std.len() != n {
        return Err(GpError::BadTrainingData(format!(
            "{} targets for {n} prepared points",
            y_std.len()
        )));
    }
    let buf = ws.lbuf.take().unwrap_or_else(|| Matrix::zeros(0, 0));
    ws.assemble_rg(dec.outputscale, &dec.inv_ls2);
    let chol = Cholesky::factor_packed_reusing(&ws.rg, 2, dec.outputscale + dec.noise, n, buf)?;

    let ones = vec![1.0; n];
    let (kinv_ones, kinv_y) = chol.solve_pair(&ones, y_std)?;
    let denom = dot(&ones, &kinv_ones).max(1e-300);
    let trend = dot(&ones, &kinv_y) / denom;
    let r: Vec<f64> = y_std.iter().map(|v| v - trend).collect();
    let alpha: Vec<f64> = kinv_y.iter().zip(&kinv_ones).map(|(a, b)| a - trend * b).collect();
    let mll = -0.5 * dot(&r, &alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    Ok((chol, mll, alpha, r))
}

/// Workspace-backed log marginal likelihood and gradient in
/// log-parameter space. Numerically equivalent to
/// [`crate::fit::mll_and_grad`] (property-tested to ≤1e-10 relative
/// error) but inverse-free: `K_y⁻¹` entries are suffix dot products of
/// `M = L⁻ᵀ` rows, fused into the pair contraction, and the outputscale
/// / noise gradients close through trace identities (module docs).
pub fn mll_and_grad_ws(
    ws: &mut FitWorkspace,
    y_std: &[f64],
    params: &[f64],
) -> Result<(f64, Vec<f64>)> {
    let dec = decode(ws.d, params)?;
    let (chol, mll, alpha, r) = factored(ws, y_std, &dec)?;
    let n = ws.n;
    let d = ws.d;
    chol.inv_lower_t_into(&mut ws.minv);
    ws.lbuf = Some(chol.into_l());

    let m = &ws.minv;
    let sqdiff = &ws.sqdiff;
    let rg = &ws.rg;
    let rg_offsets = &ws.rg_offsets;
    let alpha_ref = &alpha;
    let dec_ref = &dec;
    // Lengthscale contraction over pairs b < a, parallel over contiguous
    // row chunks (each chunk owns one partial accumulator). Row `a`
    // costs ~a(n−a) suffix-dot flops; contiguous chunking is imbalanced
    // but within ~2x of optimal, which the fan-out tolerates. The radial
    // gradient factors were stored by the assembly pass, so the loop is
    // free of transcendentals and distance recomputation; the common
    // `1/ℓ_j²` factor is applied once at the end. Both are pure
    // reassociations worth ~eps relative error, far inside the 1e-10
    // equivalence budget.
    //
    // Rows are consumed four at a time: each streamed `M` row `b` feeds
    // the suffix dots of rows a..a+3 through `dot4`, which returns the
    // per-row `dot` bits. The accumulator still sees the pairs in the
    // two-row order — rows (a, a+1) for every b, then (a+2, a+3) from a
    // buffer — so the gradient does not depend on the grouping.
    //
    // The suffix dots cost ~n³/6 flops; below the spawn threshold the
    // chunks run on this thread, and above it they are pulled by
    // workers, so the costly early rows do not pile up on one of them.
    // Partials are summed in chunk order either way.
    let chunk = 64usize;
    let n_chunks = n.div_ceil(chunk).max(1);
    let workers = parallel::workers_for(n * n * n / 6);
    let partials: Vec<Vec<f64>> = parallel::par_map_workers(n_chunks, workers, |c| {
        let mut g = vec![0.0; d];
        let mut accum = |a: usize, b: usize, kinv_ab: f64| {
            let w = alpha_ref[a] * alpha_ref[b] - kinv_ab;
            let wgf = w * dec_ref.outputscale * rg[rg_offsets[a] + 2 * b + 1];
            let base = a * a.saturating_sub(1) / 2 * d;
            let sq = &sqdiff[base + b * d..base + (b + 1) * d];
            for j in 0..d {
                g[j] += wgf * sq[j];
            }
        };
        // Rows a and a+1 against every b < a, then their shared pair.
        let mut pair = |a: usize, head: &[(f64, f64)]| {
            for (b, &(k0, k1)) in head.iter().enumerate() {
                accum(a, b, k0);
                accum(a + 1, b, k1);
            }
            let (ma, ma1) = (m.row(a), m.row(a + 1));
            for b in head.len()..a {
                let mb = m.row(b);
                accum(a, b, dot(&ma[a..], &mb[a..]));
                accum(a + 1, b, dot(&ma1[a + 1..], &mb[a + 1..]));
            }
            accum(a + 1, a, dot(&ma1[a + 1..], &ma[a + 1..]));
        };
        let lo = c * chunk;
        let hi = ((c + 1) * chunk).min(n);
        let mut ahead: Vec<(f64, f64)> = Vec::with_capacity(hi);
        let mut lead: Vec<(f64, f64)> = Vec::with_capacity(hi);
        let mut a = lo;
        while a + 3 < hi {
            let rows = [m.row(a), m.row(a + 1), m.row(a + 2), m.row(a + 3)];
            lead.clear();
            ahead.clear();
            for b in 0..a {
                let mb = m.row(b);
                let k = dot4(
                    [&rows[0][a..], &rows[1][a + 1..], &rows[2][a + 2..], &rows[3][a + 3..]],
                    [&mb[a..], &mb[a + 1..], &mb[a + 2..], &mb[a + 3..]],
                );
                lead.push((k[0], k[1]));
                ahead.push((k[2], k[3]));
            }
            pair(a, &lead);
            pair(a + 2, &ahead);
            a += 4;
        }
        if a + 1 < hi {
            pair(a, &[]);
            a += 2;
        }
        if a < hi {
            let ma = m.row(a);
            for b in 0..a {
                accum(a, b, dot(&ma[a..], &m.row(b)[a..]));
            }
        }
        g
    });
    let mut grad = vec![0.0; d + 2];
    for p in &partials {
        for j in 0..d {
            grad[j] += p[j];
        }
    }
    for j in 0..d {
        grad[j] *= dec.inv_ls2[j];
    }
    let tr_kinv = dot(m.as_slice(), m.as_slice());
    let ata = dot(&alpha, &alpha);
    let diag_w = ata - tr_kinv;
    grad[d] = 0.5 * (dot(&alpha, &r) - n as f64 - dec.noise * diag_w);
    grad[d + 1] = 0.5 * dec.noise * diag_w;
    Ok((mll, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::mll_and_grad;
    use pbo_sampling::SeedStream;
    use rand::Rng;

    fn training_data(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let stream = SeedStream::new(seed);
        let mut rng = stream.fork_named("ws-data").rng();
        let mut x = Matrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..d {
                let v: f64 = rng.gen();
                x[(i, j)] = v;
                s += (2.0 + j as f64) * v;
            }
            y.push(s.sin() + 0.1 * s);
        }
        (x, y)
    }

    fn standardized(y: &[f64]) -> Vec<f64> {
        let m = pbo_linalg::vec_ops::mean(y);
        let s = pbo_linalg::vec_ops::variance(y).sqrt().max(1e-8);
        y.iter().map(|v| (v - m) / s).collect()
    }

    #[test]
    fn workspace_matches_naive_all_families() {
        let (x, y) = training_data(17, 3, 42);
        let y_std = standardized(&y);
        let params =
            vec![(0.3f64).ln(), (0.8f64).ln(), (1.5f64).ln(), (1.7f64).ln(), (2e-4f64).ln()];
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        let (v_naive, g_naive) = mll_and_grad(&x, &y_std, &params).unwrap();
        let (v_ws, g_ws) = mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
        assert!(
            (v_naive - v_ws).abs() <= 1e-10 * (1.0 + v_naive.abs()),
            "value {v_naive} vs {v_ws}"
        );
        for (i, (a, b)) in g_ws.iter().zip(&g_naive).enumerate() {
            assert!((a - b).abs() <= 1e-10 * (1.0 + b.abs()), "grad[{i}]: ws {a} vs naive {b}");
        }
    }

    #[test]
    fn lengthscale_gradient_matches_two_row_contraction_bitwise() {
        // The contraction groups rows in fours through `dot4`; the
        // gradient must equal the row-pair contraction (one `dot` per
        // pair, accumulated pair of rows by pair of rows) bit for bit,
        // across chunk boundaries and every group tail.
        for n in [1usize, 2, 5, 7, 64, 66, 131] {
            let (x, y) = training_data(n, 3, 40 + n as u64);
            let y_std = standardized(&y);
            let params = vec![(0.3f64).ln(), (0.6f64).ln(), (0.9f64).ln(), 0.2, (1e-3f64).ln()];
            let mut ws = FitWorkspace::new();
            ws.prepare(&x);
            let (_, grad) = mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();

            let dec = decode(3, &params).unwrap();
            let (chol, _, alpha, _) = factored(&mut ws, &y_std, &dec).unwrap();
            chol.inv_lower_t_into(&mut ws.minv);
            let m = &ws.minv;
            let mut want = [0.0; 3];
            for c in 0..n.div_ceil(64) {
                let mut g = [0.0; 3];
                let mut accum = |a: usize, b: usize, kinv_ab: f64| {
                    let w = alpha[a] * alpha[b] - kinv_ab;
                    let wgf = w * dec.outputscale * ws.rg[ws.rg_offsets[a] + 2 * b + 1];
                    let base = a * a.saturating_sub(1) / 2 * 3;
                    for j in 0..3 {
                        g[j] += wgf * ws.sqdiff[base + b * 3 + j];
                    }
                };
                let (mut a, hi) = (c * 64, ((c + 1) * 64).min(n));
                while a < hi {
                    let rows: Vec<usize> = (a..hi.min(a + 2)).collect();
                    for b in 0..a {
                        let k: Vec<f64> =
                            rows.iter().map(|&r| dot(&m.row(r)[r..], &m.row(b)[r..])).collect();
                        for (&r, &k) in rows.iter().zip(&k) {
                            accum(r, b, k);
                        }
                    }
                    if rows.len() == 2 {
                        accum(a + 1, a, dot(&m.row(a + 1)[a + 1..], &m.row(a)[a + 1..]));
                    }
                    a += rows.len();
                }
                for j in 0..3 {
                    want[j] += g[j];
                }
            }
            for j in 0..3 {
                let want = want[j] * dec.inv_ls2[j];
                let got = grad[j];
                assert!(got.to_bits() == want.to_bits(), "n={n} grad[{j}]: {got} vs {want}");
            }
        }
    }

    #[test]
    fn repeated_evaluations_reuse_buffers_correctly() {
        // Evaluate at several parameter vectors in sequence through the
        // same workspace; stale-buffer bugs would poison later results.
        let (x, y) = training_data(12, 2, 7);
        let y_std = standardized(&y);
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        let stream = SeedStream::new(99);
        let mut rng = stream.fork_named("params").rng();
        for _ in 0..8 {
            let params = vec![
                rng.gen_range(-2.0..1.0),
                rng.gen_range(-2.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-9.0..-2.0),
            ];
            let (v_naive, g_naive) = mll_and_grad(&x, &y_std, &params).unwrap();
            let (v_ws, g_ws) = mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
            assert!((v_naive - v_ws).abs() <= 1e-10 * (1.0 + v_naive.abs()));
            for (a, b) in g_ws.iter().zip(&g_naive) {
                assert!((a - b).abs() <= 1e-10 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn prepare_handles_growing_training_sets() {
        // Engine reuse pattern: the same workspace sees n grow cycle by
        // cycle. Each prepare must fully rebuild the distance table.
        let mut ws = FitWorkspace::new();
        for n in [5usize, 9, 14] {
            let (x, y) = training_data(n, 2, n as u64);
            let y_std = standardized(&y);
            ws.prepare(&x);
            assert_eq!(ws.n(), n);
            let params = vec![(0.5f64).ln(), (0.5f64).ln(), 0.0, (1e-4f64).ln()];
            let (v_naive, _) = mll_and_grad(&x, &y_std, &params).unwrap();
            let (v_ws, _) = mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
            assert!((v_naive - v_ws).abs() <= 1e-10 * (1.0 + v_naive.abs()));
        }
    }

    #[test]
    fn incremental_prepare_is_bit_identical_to_full_rebuild() {
        // Append-only growth must take the O(nqd) prefix path and still
        // produce a distance table (and therefore MLL values) that are
        // bit-identical to a from-scratch prepare.
        let (x_full, y) = training_data(21, 3, 33);
        let y_std = standardized(&y);
        let params = vec![(0.4f64).ln(), (0.9f64).ln(), (1.1f64).ln(), 0.0, (1e-3f64).ln()];

        let mut inc = FitWorkspace::new();
        for n in [9usize, 13, 21] {
            let view = Matrix::from_fn(n, 3, |i, j| x_full[(i, j)]);
            inc.prepare(&view);
        }
        let mut fresh = FitWorkspace::new();
        fresh.prepare(&x_full);
        assert_eq!(inc.sqdiff.len(), fresh.sqdiff.len());
        for (i, (a, b)) in inc.sqdiff.iter().zip(&fresh.sqdiff).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sqdiff[{i}]");
        }
        let (v_inc, g_inc) = mll_and_grad_ws(&mut inc, &y_std, &params).unwrap();
        let (v_fresh, g_fresh) = mll_and_grad_ws(&mut fresh, &y_std, &params).unwrap();
        assert_eq!(v_inc.to_bits(), v_fresh.to_bits());
        for (a, b) in g_inc.iter().zip(&g_fresh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn prepare_prefix_mismatch_triggers_full_rebuild() {
        // Editing a row inside the prefix (the subsample/reorder case)
        // must invalidate the cache, not serve stale distances.
        let (x1, _) = training_data(10, 2, 8);
        let mut ws = FitWorkspace::new();
        ws.prepare(&x1);
        let mut x2 = x1.clone();
        x2[(3, 1)] += 0.25;
        ws.prepare(&x2);
        let mut fresh = FitWorkspace::new();
        fresh.prepare(&x2);
        for (i, (a, b)) in ws.sqdiff.iter().zip(&fresh.sqdiff).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sqdiff[{i}]");
        }
        // Shrinking is also a miss.
        let x3 = Matrix::from_fn(6, 2, |i, j| x2[(i, j)]);
        ws.prepare(&x3);
        let mut fresh3 = FitWorkspace::new();
        fresh3.prepare(&x3);
        assert_eq!(ws.sqdiff.len(), fresh3.sqdiff.len());
        for (a, b) in ws.sqdiff.iter().zip(&fresh3.sqdiff) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_point_training_set() {
        let x = Matrix::from_rows(&[vec![0.3, 0.7]]).unwrap();
        let y_std = vec![0.0];
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        let params = vec![0.0, 0.0, 0.0, (1e-2f64).ln()];
        let (v, g) = mll_and_grad_ws(&mut ws, &y_std, &params).unwrap();
        let (vn, gn) = mll_and_grad(&x, &y_std, &params).unwrap();
        assert!((v - vn).abs() <= 1e-12 * (1.0 + vn.abs()));
        for (a, b) in g.iter().zip(&gn) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let (x, _) = training_data(6, 2, 1);
        let mut ws = FitWorkspace::new();
        ws.prepare(&x);
        let params = vec![0.0, 0.0, 0.0, (1e-4f64).ln()];
        assert!(matches!(
            mll_and_grad_ws(&mut ws, &[0.0; 3], &params),
            Err(GpError::BadTrainingData(_))
        ));
        assert!(matches!(
            mll_and_grad_ws(&mut ws, &[0.0; 6], &params[..3]),
            Err(GpError::BadHyperparameters(_))
        ));
    }
}
