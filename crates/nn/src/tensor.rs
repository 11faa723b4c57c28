//! Dense row-major `f32` tensors and the matrix kernels every executor
//! shares.
//!
//! LSched's neural networks operate on small vectors and matrices (hidden
//! sizes of a few dozen), so a simple contiguous `Vec<f32>` representation
//! with explicit shapes is both sufficient and fast: every operation is a
//! tight loop over a slice with no indirection.
//!
//! **Per-output accumulation contract.** Every output of [`dot4`],
//! [`matvec_rows`] and [`matvec_rows_batch`] takes exactly the same
//! operation sequence over its row, whichever kernel or block computes
//! it. With at least 8 columns on an AVX2+FMA CPU (`dot_avx2_fma`):
//!
//! 1. FMAs over 16-column blocks into `acc0` (columns 0–7 of each block)
//!    and `acc1` (columns 8–15);
//! 2. an optional trailing 8-column block into `acc0`;
//! 3. `acc0 + acc1`;
//! 4. low 128-bit half + high half, giving lanes `q0..q3`;
//! 5. the `movehl` pair add, `(q0 + q2, q1 + q3)`;
//! 6. the final lane add, `(q0 + q2) + (q1 + q3)`;
//! 7. the scalar tail `out += w·x` (multiply, then add) in column order.
//!
//! Otherwise the 4-wide scalar loop of `dot4_scalar`. An output therefore
//! never depends on the other rows of its block or batch, which is what
//! keeps the training tape, the reference tape and the inference arena
//! bit-identical (sign of zero and NaN propagation included). The
//! backward kernels ([`matvec_t_cols`], [`outer_acc`]) multiply, then add,
//! in row order on every path, like the scalar [`axpy4`]. The tests
//! check every AVX2 path against a scalar model of its sequence.

use serde::{Deserialize, Serialize};

/// Dot product: the accumulation every matrix–vector and matrix–matrix
/// kernel (the tape's [`Tensor::matvec`], the tape-free fused linear
/// layers and the batched candidate-scoring GEMM in [`crate::infer`])
/// gives each output element (the contract in the module docs), which is
/// what makes tape and tape-free forward passes bit-identical rather than
/// merely close.
///
/// Vectors of at least 8 elements take an AVX2+FMA path when the CPU has
/// it (16 elements per iteration across two 8-lane FMA accumulators);
/// shorter vectors — and every vector on other CPUs — take a 4-wide
/// unrolled scalar loop. Dispatch depends only on the CPU and the vector
/// length, so results are deterministic on a given machine; absolute
/// values may differ across machines (FMA skips intermediate
/// roundings), but both executors always agree because they share this
/// kernel.
#[inline]
pub fn dot4(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot4: length mismatch {} vs {}", a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 8 && has_avx2_fma() {
        // SAFETY: the CPU features were just detected and the lengths
        // are equal (asserted above).
        return unsafe { dot_avx2_fma(a, b) };
    }
    dot4_scalar(a, b)
}

/// The portable 4-wide unrolled dot product: four independent
/// accumulators hide the FP add latency, combined as
/// `(s0 + s1) + (s2 + s3)` with the tail folded in sequentially.
#[inline]
fn dot4_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n4 = a.len() & !3;
    let (a4, at) = a.split_at(n4);
    let (b4, bt) = b.split_at(n4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (x, y) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (x, y) in at.iter().zip(bt) {
        acc += x * y;
    }
    acc
}

/// AVX2+FMA dot product: two 8-lane FMA accumulators (16 elements per
/// iteration), one more 8-lane block if available, then a fixed-order
/// horizontal reduction and a sequential scalar tail.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA, and
/// that `b` is at least as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(ap.add(i + 8)),
            _mm256_loadu_ps(bp.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        i += 8;
    }
    let acc = _mm256_add_ps(acc0, acc1);
    let quad = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let single = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
    let mut out = _mm_cvtss_f32(single);
    while i < n {
        out += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    out
}

/// Row-major matrix–vector kernel: `out[j] = W[j]·x` for an
/// `out.len()×n` matrix stored contiguously in `w`.
///
/// Every output takes exactly the accumulation of [`dot4`] over its row
/// (the per-output contract in the module docs), so the result is the
/// same as calling [`dot4`] row by row; CPU-feature dispatch happens
/// once per matrix instead of once per output element. On AVX2+FMA the
/// rows go four at a time through one kernel that loads each `x` block
/// once for all four rows; leftover rows take [`dot_avx2_fma`]. The
/// tape's [`Tensor::matvec`] and the tape-free fused layers in
/// [`crate::infer`] both route through this function, which keeps their
/// outputs bit-identical.
///
/// # Panics
/// Does not tolerate `n == 0` (use a caller-side guard) — the scalar
/// path iterates rows via `chunks_exact(n)`.
#[inline]
pub fn matvec_rows(w: &[f32], n: usize, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), n, "matvec_rows: input length mismatch");
    assert_eq!(w.len(), n * out.len(), "matvec_rows: matrix shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && has_avx2_fma() {
        // SAFETY: the CPU features were just detected, `x` holds `n`
        // values and `w` holds `out.len()` rows of `n` (asserted above).
        unsafe { matvec_rows_avx2_fma(w, n, x, out) };
        return;
    }
    for (o, row) in out.iter_mut().zip(w.chunks_exact(n)) {
        *o = dot4_scalar(row, x);
    }
}

/// Batched [`matvec_rows`]: `out[r·m + j] = W[j]·xs[r]` for the `m×n`
/// matrix `w` and every `n`-wide row `r` of `xs` (`Y = X Wᵀ`), each
/// output bit-identical to [`matvec_rows`] on that row. On AVX2+FMA the
/// outputs go in weight-stationary 2×2 blocks (two weight rows against
/// two input rows, each load shared by two products); a leftover input
/// row takes [`matvec_rows`]' kernel and a leftover weight row
/// [`dot_avx2_fma`].
///
/// # Panics
/// Panics if `n == 0` or the shapes disagree.
#[inline]
pub fn matvec_rows_batch(w: &[f32], n: usize, xs: &[f32], out: &mut [f32]) {
    assert!(n > 0, "matvec_rows_batch: empty rows");
    let m = w.len() / n;
    assert_eq!(w.len(), m * n, "matvec_rows_batch: matrix shape mismatch");
    assert_eq!(xs.len() / n * m, out.len(), "matvec_rows_batch: output shape mismatch");
    assert_eq!(xs.len() % n, 0, "matvec_rows_batch: ragged input rows");
    if m == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && has_avx2_fma() {
        // SAFETY: the CPU features were just detected; `w` holds `m`
        // rows of `n`, `xs` whole rows of `n` and `out` `m` outputs per
        // input row (asserted above).
        unsafe { matvec_rows_batch_avx2_fma(w, n, xs, out) };
        return;
    }
    for (x, o) in xs.chunks_exact(n).zip(out.chunks_exact_mut(m)) {
        matvec_rows(w, n, x, o);
    }
}

/// Whether the CPU has AVX2 and FMA (`std` caches the detection).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Four dot products `a[k]·b[k]` of length `n` in one pass, each with
/// exactly [`dot_avx2_fma`]'s operation sequence: two 8-lane FMA
/// accumulators over 16-column blocks, an optional trailing 8-column
/// block into the first, `acc0 + acc1`, low half + high half, the
/// `movehl` pair add, the final lane add, then the scalar tail in column
/// order. The four reductions and the four tails run side by side, one
/// register lane per dot; operands repeated across `a` or `b` are loaded
/// once per block.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and every pointer must be valid
/// for reads of `n` values.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dots4_avx2_fma(a: [*const f32; 4], b: [*const f32; 4], n: usize) -> [f32; 4] {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_ps(); 4];
    let mut hi = [_mm256_setzero_ps(); 4];
    let mut i = 0usize;
    while i + 16 <= n {
        for k in 0..4 {
            let (x, y) = (_mm256_loadu_ps(a[k].add(i)), _mm256_loadu_ps(b[k].add(i)));
            lo[k] = _mm256_fmadd_ps(x, y, lo[k]);
            let (x, y) = (_mm256_loadu_ps(a[k].add(i + 8)), _mm256_loadu_ps(b[k].add(i + 8)));
            hi[k] = _mm256_fmadd_ps(x, y, hi[k]);
        }
        i += 16;
    }
    if i + 8 <= n {
        for k in 0..4 {
            let (x, y) = (_mm256_loadu_ps(a[k].add(i)), _mm256_loadu_ps(b[k].add(i)));
            lo[k] = _mm256_fmadd_ps(x, y, lo[k]);
        }
        i += 8;
    }
    let mut quad = [_mm_setzero_ps(); 4];
    for k in 0..4 {
        let acc = _mm256_add_ps(lo[k], hi[k]);
        quad[k] = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
    }
    // Lanes (q0 + q2, q1 + q3) of dots 0 and 1, then of dots 2 and 3.
    let p01 = _mm_add_ps(_mm_movelh_ps(quad[0], quad[1]), _mm_movehl_ps(quad[1], quad[0]));
    let p23 = _mm_add_ps(_mm_movelh_ps(quad[2], quad[3]), _mm_movehl_ps(quad[3], quad[2]));
    // (q0 + q2) + (q1 + q3) of all four dots at once.
    let single = _mm_add_ps(
        _mm_shuffle_ps(p01, p23, 0b10_00_10_00),
        _mm_shuffle_ps(p01, p23, 0b11_01_11_01),
    );
    // The four scalar tails side by side, one lane each: multiply, then
    // add, column by column.
    let mut r = single;
    for j in i..n {
        let x = _mm_setr_ps(*a[0].add(j), *a[1].add(j), *a[2].add(j), *a[3].add(j));
        let y = _mm_setr_ps(*b[0].add(j), *b[1].add(j), *b[2].add(j), *b[3].add(j));
        r = _mm_add_ps(r, _mm_mul_ps(x, y));
    }
    let mut out = [0.0f32; 4];
    _mm_storeu_ps(out.as_mut_ptr(), r);
    out
}

/// The AVX2+FMA body of [`matvec_rows`]: four rows per pass through
/// [`dots4_avx2_fma`], leftover rows through [`dot_avx2_fma`].
///
/// # Safety
/// The CPU must support AVX2 and FMA, `x.len() == n` and
/// `w.len() == n * out.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_rows_avx2_fma(w: &[f32], n: usize, x: &[f32], out: &mut [f32]) {
    let (wp, xp) = (w.as_ptr(), x.as_ptr());
    let mut blocks = out.chunks_exact_mut(4);
    let mut row = 0usize;
    for o in &mut blocks {
        // SAFETY: rows `row..row + 4` exist (one per output of the block),
        // each `n` long, and `x` holds `n` values.
        let r = [0, 1, 2, 3].map(|k| wp.add((row + k) * n));
        o.copy_from_slice(&dots4_avx2_fma(r, [xp; 4], n));
        row += 4;
    }
    for (o, r) in blocks.into_remainder().iter_mut().zip(w[row * n..].chunks_exact(n)) {
        *o = dot_avx2_fma(r, x);
    }
}

/// The AVX2+FMA body of [`matvec_rows_batch`]: 2×2 blocks of (weight
/// row, input row) through [`dots4_avx2_fma`].
///
/// # Safety
/// The CPU must support AVX2 and FMA, `n > 0`, `w` must hold `m` rows
/// of `n`, `xs` whole rows of `n`, and `out` `m` values per input row,
/// with `m > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_rows_batch_avx2_fma(w: &[f32], n: usize, xs: &[f32], out: &mut [f32]) {
    let m = w.len() / n;
    let wp = w.as_ptr();
    let mut x_pairs = xs.chunks_exact(2 * n);
    let mut o_pairs = out.chunks_exact_mut(2 * m);
    for (x2, o2) in (&mut x_pairs).zip(&mut o_pairs) {
        let (xa, xb) = (x2.as_ptr(), x2.as_ptr().add(n));
        let (oa, ob) = o2.split_at_mut(m);
        let mut j = 0usize;
        while j + 2 <= m {
            // SAFETY: weight rows `j` and `j + 1` exist (`j + 2 <= m`) and
            // both input rows of the pair hold `n` values.
            let (wa, wb) = (wp.add(j * n), wp.add((j + 1) * n));
            let d = dots4_avx2_fma([wa, wb, wa, wb], [xa, xa, xb, xb], n);
            oa[j..j + 2].copy_from_slice(&d[..2]);
            ob[j..j + 2].copy_from_slice(&d[2..]);
            j += 2;
        }
        if j < m {
            let wj = &w[j * n..];
            oa[j] = dot_avx2_fma(&wj[..n], &x2[..n]);
            ob[j] = dot_avx2_fma(&wj[..n], &x2[n..]);
        }
    }
    // An odd input row is left over: one row of `n`.
    let x = x_pairs.remainder();
    if !x.is_empty() {
        // SAFETY: `x` is one row of `n` and the remainder of `out` holds
        // its `m` outputs.
        matvec_rows_avx2_fma(w, n, x, o_pairs.into_remainder());
    }
}

/// `out += g * row`, with a 4-wide unrolled inner loop (the backward
/// counterpart of [`dot4`], used by [`Tensor::matvec_t`]).
#[inline]
pub fn axpy4(g: f32, row: &[f32], out: &mut [f32]) {
    debug_assert_eq!(row.len(), out.len(), "axpy4: length mismatch {} vs {}", row.len(), out.len());
    let n4 = row.len() & !3;
    let (r4, rt) = row.split_at(n4);
    let (o4, ot) = out.split_at_mut(n4);
    for (o, a) in o4.chunks_exact_mut(4).zip(r4.chunks_exact(4)) {
        o[0] += g * a[0];
        o[1] += g * a[1];
        o[2] += g * a[2];
        o[3] += g * a[3];
    }
    for (o, a) in ot.iter_mut().zip(rt) {
        *o += g * a;
    }
}

/// Whole-matrix transposed matvec accumulation: `out += Wᵀ g` for a
/// `g.len()×n` row-major matrix (the backward counterpart of
/// [`matvec_rows`]).
///
/// CPU-feature dispatch happens once per matrix; the AVX2 inner loop
/// uses separate multiply and add (two roundings per element, exactly
/// like the scalar [`axpy4`]), and every output element is independent,
/// so the vectorized and scalar paths are bitwise identical. Rows with
/// a zero coefficient — common under sparse gradients — are skipped on
/// both paths, matching [`Tensor::matvec_t`].
#[inline]
pub fn matvec_t_rows(w: &[f32], n: usize, g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), n, "matvec_t_rows: output length mismatch");
    matvec_t_cols(w, n, 0, g, out);
}

/// [`matvec_t_rows`] over columns `c0..c0 + out.len()` of the matrix
/// only: `out[k] += Σ_i g[i] · W[i][c0 + k]`. Each output element takes
/// exactly the arithmetic it takes in the whole-matrix kernel (same row
/// order, same skipped rows), so a column subset is bitwise the same as
/// that subset of the full product.
///
/// # Panics
/// Panics if the columns run past `n`.
#[inline]
pub fn matvec_t_cols(w: &[f32], n: usize, c0: usize, g: &[f32], out: &mut [f32]) {
    let m = out.len();
    debug_assert_eq!(w.len(), n * g.len(), "matvec_t_cols: matrix shape mismatch");
    assert!(c0 + m <= n, "matvec_t_cols: columns {c0}..{} of {n}", c0 + m);
    if m == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if m >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the required CPU feature was just detected, and the
        // columns lie within each row (asserted above).
        unsafe { matvec_t_cols_avx2(w, n, c0, g, out) };
        return;
    }
    for (row, &gi) in w.chunks_exact(n).zip(g) {
        if gi != 0.0 {
            axpy4(gi, &row[c0..c0 + m], out);
        }
    }
}

/// AVX2 transposed-matvec accumulation; multiply-then-add (never FMA) so
/// each element matches the scalar [`axpy4`] bit for bit.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2, and that
/// `c0 + out.len() <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_t_cols_avx2(w: &[f32], n: usize, c0: usize, g: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let m = out.len();
    for (row, &gi) in w.chunks_exact(n).zip(g) {
        if gi == 0.0 {
            continue;
        }
        let gv = _mm256_set1_ps(gi);
        // Columns `c0..c0 + m` lie within the row.
        let rp = row.as_ptr().add(c0);
        let op = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= m {
            let acc = _mm256_add_ps(_mm256_loadu_ps(op.add(j)), _mm256_mul_ps(gv, _mm256_loadu_ps(rp.add(j))));
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        while j < m {
            *op.add(j) += gi * *rp.add(j);
            j += 1;
        }
    }
}

/// Outer-product accumulation: `acc[i*n + j] += g[i] * x[j]` for the
/// `g.len()×x.len()` weight-gradient matrix `acc` (the `dW = g ⊗ x`
/// kernel of every matvec/linear backward).
///
/// Same dispatch and rounding discipline as [`matvec_t_rows`]: one
/// feature check per matrix, multiply-then-add in the AVX2 loop, rows
/// with `g[i] == 0` skipped on both paths (a skipped row adds exact
/// zeros, which is a bitwise no-op on gradient accumulators).
#[inline]
pub fn outer_acc(g: &[f32], x: &[f32], acc: &mut [f32]) {
    let n = x.len();
    debug_assert_eq!(acc.len(), g.len() * n, "outer_acc: accumulator shape mismatch");
    if n == 0 || g.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the required CPU feature was just detected; the kernel
        // walks `acc` in whole rows of `n = x.len()` and reads `x` only
        // below `n`.
        unsafe { outer_acc_avx2(g, x, acc) };
        return;
    }
    for (row, &gi) in acc.chunks_exact_mut(n).zip(g) {
        if gi != 0.0 {
            axpy4(gi, x, row);
        }
    }
}

/// AVX2 outer-product accumulation; multiply-then-add to stay bitwise
/// identical to the scalar path.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn outer_acc_avx2(g: &[f32], x: &[f32], acc: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let xp = x.as_ptr();
    for (row, &gi) in acc.chunks_exact_mut(n).zip(g) {
        if gi == 0.0 {
            continue;
        }
        let gv = _mm256_set1_ps(gi);
        let rp = row.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let out = _mm256_add_ps(_mm256_loadu_ps(rp.add(j)), _mm256_mul_ps(gv, _mm256_loadu_ps(xp.add(j))));
            _mm256_storeu_ps(rp.add(j), out);
            j += 8;
        }
        while j < n {
            *rp.add(j) += gi * *xp.add(j);
            j += 1;
        }
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// Only rank-1 (vectors) and rank-2 (matrices) tensors appear in LSched's
/// architecture, but the representation is rank-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if the product of `shape` does not equal `data.len()`.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            expect,
            data.len(),
            "shape {shape:?} implies {expect} elements but data has {}",
            data.len()
        );
        Self { shape, data }
    }

    /// Creates a rank-1 tensor (vector).
    pub fn vector(data: Vec<f32>) -> Self {
        Self { shape: vec![data.len()], data }
    }

    /// Creates a rank-2 tensor (matrix) with `rows * cols == data.len()`.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::new(vec![rows, cols], data)
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a vector of zeros of length `n`.
    pub fn zero_vector(n: usize) -> Self {
        Self::vector(vec![0.0; n])
    }

    /// A single-element tensor holding `v`.
    pub fn scalar(v: f32) -> Self {
        Self::vector(vec![v])
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the single element of a scalar tensor.
    ///
    /// # Panics
    /// Panics if the tensor does not hold exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor of {} elements", self.data.len());
        self.data[0]
    }

    /// Number of rows of a rank-2 tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() on rank-{} tensor", self.shape.len());
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() on rank-{} tensor", self.shape.len());
        self.shape[1]
    }

    /// Matrix–vector product `self * x` for a rank-2 tensor, through
    /// [`matvec_rows`] (each output element is [`dot4`] of its row).
    #[inline]
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(n, x.len(), "matvec: {m}x{n} matrix with vector of len {}", x.len());
        if n == 0 {
            return vec![0.0; m];
        }
        let mut out = vec![0.0; m];
        matvec_rows(&self.data, n, x, &mut out);
        out
    }

    /// Transposed matrix–vector product `selfᵀ * g` for a rank-2 tensor.
    ///
    /// The output really is an accumulator here (each input row
    /// contributes to every output element), so it starts zeroed; the
    /// inner axpy is 4-wide unrolled and rows with a zero coefficient —
    /// common under sparse gradients — are skipped.
    #[inline]
    pub fn matvec_t(&self, g: &[f32]) -> Vec<f32> {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(m, g.len(), "matvec_t: {m}x{n} matrix with vector of len {}", g.len());
        let mut out = vec![0.0; n];
        if n == 0 {
            return out;
        }
        for (row, &gi) in self.data.chunks_exact(n).zip(g) {
            if gi != 0.0 {
                axpy4(gi, row, &mut out);
            }
        }
        out
    }

    /// Frobenius (L2) norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_roundtrip() {
        let t = Tensor::vector(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.shape(), &[3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matrix_matvec() {
        // [[1,2],[3,4],[5,6]] * [1,1] = [3,7,11]
        let m = Tensor::matrix(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn matrix_matvec_t() {
        // [[1,2],[3,4],[5,6]]ᵀ * [1,1,1] = [9,12]
        let m = Tensor::matrix(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.25).item(), 4.25);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn bad_shape_panics() {
        let _ = Tensor::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_len() {
        let z = Tensor::zeros(vec![4, 5]);
        assert_eq!(z.len(), 20);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    /// Reference scalar implementations matching dot4's combine order.
    fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
        let n4 = a.len() & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < n4 {
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
            i += 4;
        }
        let mut acc = (s0 + s1) + (s2 + s3);
        for j in n4..a.len() {
            acc += a[j] * b[j];
        }
        acc
    }

    #[test]
    fn dot4_short_lengths_match_scalar_reference() {
        // Below 8 elements every CPU takes the portable 4-wide path, so
        // the result is bit-identical to the reference at any remainder.
        for n in 0..8usize {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin() + 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos() - 0.25).collect();
            assert_eq!(dot4(&a, &b), dot_ref(&a, &b), "n={n}");
        }
    }

    #[test]
    fn dot4_is_exact_on_small_integers() {
        // With small-integer inputs every product and partial sum is
        // exactly representable, so the SIMD path (if taken), the scalar
        // path and a plain integer sum must all agree exactly — this
        // pins the remainder handling at every length through the 16-wide
        // main loop, the 8-wide block and the scalar tail.
        for n in 0..40usize {
            let a: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) - 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| ((i % 5) as f32) - 2.0).collect();
            let exact: i64 =
                (0..n).map(|i| ((i % 7) as i64 - 3) * ((i % 5) as i64 - 2)).sum();
            assert_eq!(dot4(&a, &b), exact as f32, "n={n}");
            assert_eq!(dot4_scalar(&a, &b), exact as f32, "scalar n={n}");
        }
    }

    #[test]
    fn dot4_long_lengths_match_f64_reference() {
        // The FMA path may differ from the scalar path in the last few
        // ulps; both must sit tight against a double-precision reference.
        for n in [8usize, 15, 16, 31, 32, 64, 210] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin() + 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos() - 0.25).collect();
            let exact: f64 =
                a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let got = dot4(&a, &b) as f64;
            assert!(
                (got - exact).abs() <= 1e-4 * (1.0 + exact.abs()),
                "n={n}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn matvec_one_by_n() {
        // A 1×5 matrix is a single dot product.
        let m = Tensor::matrix(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let x = [1.0, -1.0, 1.0, -1.0, 1.0];
        assert_eq!(m.matvec(&x), vec![3.0]);
        assert_eq!(m.matvec_t(&[2.0]), vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn matvec_n_by_one() {
        // An N×1 matrix scales the single input element.
        let m = Tensor::matrix(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[2.0]), vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0, 1.0]), vec![10.0]);
    }

    #[test]
    fn matvec_degenerate_shapes() {
        // 0×N: no rows, empty output.
        let m = Tensor::matrix(0, 3, vec![]);
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), Vec::<f32>::new());
        assert_eq!(m.matvec_t(&[]), vec![0.0, 0.0, 0.0]);
        // N×0: rows of width zero — every dot product is empty.
        let m = Tensor::matrix(3, 0, vec![]);
        assert_eq!(m.matvec(&[]), vec![0.0, 0.0, 0.0]);
        assert_eq!(m.matvec_t(&[1.0, 2.0, 3.0]), Vec::<f32>::new());
    }

    #[test]
    fn matvec_skips_zero_grad_rows_identically() {
        let m = Tensor::matrix(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec_t(&[0.0, 1.0, 0.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_t_rows_matches_tensor_matvec_t_bitwise() {
        // Covers both dispatch paths (n < 8 scalar, n >= 8 AVX2 where
        // available); the whole-matrix kernel must agree with the
        // per-call Tensor::matvec_t bit for bit, including skipped
        // zero-gradient rows.
        for n in [1usize, 3, 7, 8, 11, 16, 33] {
            let m = 5usize;
            let w: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut g: Vec<f32> = (0..m).map(|i| (i as f32 * 1.3).cos()).collect();
            g[2] = 0.0;
            let t = Tensor::matrix(m, n, w.clone());
            let expect = t.matvec_t(&g);
            let mut out = vec![0.0f32; n];
            matvec_t_rows(&w, n, &g, &mut out);
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn backward_kernels_tolerate_degenerate_shapes() {
        let mut out: Vec<f32> = vec![];
        matvec_t_rows(&[], 0, &[1.0, 2.0], &mut out);
        outer_acc(&[1.0, 2.0], &[], &mut []);
        outer_acc(&[], &[1.0], &mut []);
    }

    /// A value of mixed sign and magnitude (2^-4 to 2^4), from a fixed
    /// hash of `k`, so that any change of summation order shows in the
    /// last bits of some output.
    fn val(k: usize) -> f32 {
        let h = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = h ^ (h >> 29);
        let mant = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        mant * 2f32.powi((h >> 8) as i32 % 9 - 4)
    }

    const SPECIALS: [f32; 7] =
        [0.0, -0.0, 1e-40, -3e-39, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    /// Operand cases: 0 plain, `1..=7` one special value planted in each
    /// operand, 8 every product in the subnormal range.
    const CASES: usize = 9;

    /// `len` operand values for `case`; `salt` tells the operands apart.
    fn operand(case: usize, len: usize, salt: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|k| val(k * 7 + salt)).collect();
        match case {
            0 => {}
            1..=7 if len > 0 => v[(case * 31 + salt) % len] = SPECIALS[case - 1],
            8 => v.iter_mut().for_each(|x| *x *= 1e-20),
            _ => {}
        }
        v
    }

    /// Bits of `v`, every NaN as one value (Rust leaves the payload of a
    /// NaN result unspecified).
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn fma_cpu() -> bool {
        has_avx2_fma()
    }
    #[cfg(not(target_arch = "x86_64"))]
    fn fma_cpu() -> bool {
        false
    }

    /// Scalar model of [`dot4`]'s exact operation sequence: on an
    /// AVX2+FMA CPU with at least 8 columns, `dot_avx2_fma`'s — lane `l`
    /// of `acc0` fuses columns `16k + l` and of `acc1` columns
    /// `16k + 8 + l` (one rounding each, like `_mm256_fmadd_ps`), an
    /// 8-column tail block goes to `acc0`, then `acc0 + acc1`, low half +
    /// high half, `(q0 + q2) + (q1 + q3)` and the scalar tail in column
    /// order; otherwise the 4-wide scalar loop.
    fn dot_model(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        if n < 8 || !fma_cpu() {
            return dot_ref(a, b);
        }
        let (mut acc0, mut acc1) = ([0.0f32; 8], [0.0f32; 8]);
        let mut i = 0;
        while i + 16 <= n {
            for l in 0..8 {
                acc0[l] = a[i + l].mul_add(b[i + l], acc0[l]);
                acc1[l] = a[i + 8 + l].mul_add(b[i + 8 + l], acc1[l]);
            }
            i += 16;
        }
        if i + 8 <= n {
            for l in 0..8 {
                acc0[l] = a[i + l].mul_add(b[i + l], acc0[l]);
            }
            i += 8;
        }
        let acc: Vec<f32> = (0..8).map(|l| acc0[l] + acc1[l]).collect();
        let q: Vec<f32> = (0..4).map(|l| acc[l] + acc[l + 4]).collect();
        let mut out = (q[0] + q[2]) + (q[1] + q[3]);
        for j in i..n {
            out += a[j] * b[j];
        }
        out
    }

    /// The per-row loop the row-blocked [`matvec_rows`] replaced.
    fn matvec_rows_per_row(w: &[f32], n: usize, x: &[f32], out: &mut [f32]) {
        for (o, row) in out.iter_mut().zip(w.chunks_exact(n)) {
            *o = dot4(row, x);
        }
    }

    /// Every output of the row-blocked kernel equals the scalar model and
    /// the old per-row loop bit for bit: every row count mod 4, every
    /// column count through the scalar path (< 8), the 8-only block and
    /// every tail, with ±0.0, subnormals, ±inf and NaN among the values.
    #[test]
    fn matvec_rows_matches_the_dot_model_bitwise() {
        for m in 1..=37usize {
            for n in 1..=70usize {
                for case in 0..CASES {
                    let w = operand(case, m * n, 1);
                    let x = operand(case, n, 2);
                    let mut out = vec![f32::NAN; m];
                    matvec_rows(&w, n, &x, &mut out);
                    let model: Vec<f32> = w.chunks_exact(n).map(|r| dot_model(r, &x)).collect();
                    assert_eq!(bits(&out), bits(&model), "m={m} n={n} case {case}");
                    let mut old = vec![0.0; m];
                    matvec_rows_per_row(&w, n, &x, &mut old);
                    assert_eq!(bits(&out), bits(&old), "per-row loop, m={m} n={n} case {case}");
                }
            }
            // No columns: every output is the empty sum.
            assert_eq!(Tensor::zeros(vec![m, 0]).matvec(&[]), vec![0.0; m]);
        }
    }

    /// The weight-stationary batch kernel gives every (input row, weight
    /// row) output the scalar model's bits, at every weight row count
    /// mod 2 and with a leftover input row or none (one input row: only
    /// the leftover; two: one pair; three: both).
    #[test]
    fn matvec_rows_batch_matches_the_dot_model_bitwise() {
        for rows in 1..=3usize {
            for m in 1..=37usize {
                for n in 1..=70usize {
                    for case in [0, 3, 5, 7, 8] {
                        let w = operand(case, m * n, 3);
                        let xs = operand(case, rows * n, 4);
                        let mut out = vec![f32::NAN; rows * m];
                        matvec_rows_batch(&w, n, &xs, &mut out);
                        let model: Vec<f32> = xs
                            .chunks_exact(n)
                            .flat_map(|x| w.chunks_exact(n).map(|r| dot_model(r, x)))
                            .collect();
                        assert_eq!(bits(&out), bits(&model), "rows={rows} m={m} n={n} case {case}");
                    }
                }
            }
        }
    }

    /// Any column range of the transposed product, accumulated onto a
    /// nonzero output, equals the scalar row-order multiply-then-add bit
    /// for bit, skipped zero-coefficient rows included, at every row and
    /// column count (both dispatch paths).
    #[test]
    fn matvec_t_cols_matches_scalar_accumulation_bitwise() {
        for m in 1..=37usize {
            for n in 0..=70usize {
                for case in 0..CASES {
                    let w = operand(case, m * n, 5);
                    let mut g = operand(case, m, 6);
                    g[m / 2] = 0.0;
                    let last = (n.saturating_sub(1), n.min(1));
                    for (c0, width) in [(0, n), (n / 3, n - n / 3), (n / 4, n / 2), last] {
                        let init = operand(0, width, 7);
                        let mut expect = init.clone();
                        for (i, &gi) in g.iter().enumerate() {
                            if gi != 0.0 {
                                for (j, e) in expect.iter_mut().enumerate() {
                                    *e += gi * w[i * n + c0 + j];
                                }
                            }
                        }
                        let mut out = init;
                        matvec_t_cols(&w, n, c0, &g, &mut out);
                        assert_eq!(bits(&out), bits(&expect), "m={m} n={n} c0={c0} case {case}");
                    }
                }
            }
        }
    }

    /// The outer-product accumulation equals the scalar multiply-then-add
    /// bit for bit, skipped zero-coefficient rows included, at every row
    /// and column count (both dispatch paths).
    #[test]
    fn outer_acc_matches_scalar_accumulation_bitwise() {
        for m in 1..=37usize {
            for n in 0..=70usize {
                for case in 0..CASES {
                    let mut g = operand(case, m, 8);
                    g[m / 2] = -0.0;
                    let x = operand(case, n, 9);
                    let mut acc = operand(0, m * n, 10);
                    let mut expect = acc.clone();
                    for (i, &gi) in g.iter().enumerate() {
                        if gi != 0.0 {
                            for (j, &xj) in x.iter().enumerate() {
                                expect[i * n + j] += gi * xj;
                            }
                        }
                    }
                    outer_acc(&g, &x, &mut acc);
                    assert_eq!(bits(&acc), bits(&expect), "m={m} n={n} case {case}");
                }
            }
        }
    }

    #[test]
    fn axpy4_matches_scalar_loop() {
        for n in 0..11usize {
            let row: Vec<f32> = (0..n).map(|i| i as f32 * 0.75 - 1.0).collect();
            let mut out = vec![0.5; n];
            let mut expect = vec![0.5; n];
            axpy4(1.5, &row, &mut out);
            for (e, r) in expect.iter_mut().zip(&row) {
                *e += 1.5 * r;
            }
            assert_eq!(out, expect, "n={n}");
        }
    }
}
