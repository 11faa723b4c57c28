//! Tape-free inference: a bump-arena evaluator for the scheduling hot
//! loop.
//!
//! Training needs the autodiff tape; a scheduling decision does not. The
//! tape path pays for node bookkeeping, one heap allocation per op output
//! and (historically) a clone of every weight matrix per forward pass.
//! [`InferCtx`] removes all of that:
//!
//! * every intermediate lives in one reusable `Vec<f32>` **bump arena**
//!   that is cleared (capacity kept) at the start of each decision — in
//!   steady state a forward pass performs zero heap allocations;
//! * parameters are **borrowed** from the [`ParamStore`] — a value handle
//!   simply records the [`ParamId`] and ops read the store's tensor
//!   directly (zero clones, zero tape nodes);
//! * whole dense layers run as **fused kernels** (`act(W x + b)` in one
//!   pass over the weight rows via [`crate::tensor::matvec_rows`], which
//!   dispatches once per matrix to an AVX2+FMA row loop where available);
//! * candidate scoring batches all candidate feature vectors of a
//!   scheduling event into one row-major matrix and pushes it through the
//!   head MLP with a single blocked GEMM per layer instead of N separate
//!   forward passes ([`Backend::mlp_scores`], and across events
//!   [`Backend::mlp_scores_batched`]);
//! * a whole tree-convolution filter application (five filter
//!   products, the GAT attention combine, the bias and the activation)
//!   runs as one kernel: the products go to scratch owned by the
//!   [`InferCtx`] (or, under a [`crate::ConvMemo`], only the products
//!   whose input moved are recomputed into the memo), the result to one
//!   arena buffer ([`Backend::conv_filter`]);
//! * every arena value is written once: inputs, concatenations, the
//!   rows gathered for batched scoring and every output a kernel
//!   overwrites take their slots as they are, with no zero-fill first
//!   (only outputs that accumulate start zeroed); the arena keeps its
//!   high-water length across sessions, so after warm-up it is never
//!   resized, let alone zero-filled.
//!
//! Every fused kernel here is the one the arena tape runs
//! ([`crate::kernels`]), and both executors share `matvec_rows`'s
//! accumulation order, so a forward pass here is bit-identical to the
//! tape's — the equivalence proptests in `tests/infer_equivalence.rs`
//! and the scheduler-decision tests rely on this.
//!
//! ```
//! use lsched_nn::{Activation, Backend, InferCtx, Mlp, ParamStore};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&mut store, &mut rng, "m", &[4, 8, 1], Activation::Relu, Activation::None);
//!
//! let mut ctx = InferCtx::new();
//! for _ in 0..3 {
//!     let mut b = ctx.session(&store); // resets the arena, keeps capacity
//!     let x = b.input(&[1.0, 0.5, -0.5, 2.0]);
//!     let y = b.mlp(&mlp, x);
//!     assert_eq!(b.value(y).len(), 1);
//! }
//! ```

use crate::backend::Backend;
use crate::kernels::{self, fused_linear_rows};
use crate::layers::{Activation, Linear, Mlp};
use crate::params::{ParamId, ParamStore};
use crate::tensor::matvec_rows;
use crate::tree_conv::{FilterProducts, TreeConvLayer};
use lsched_util::Pool;

/// Handle to a value inside an [`InferCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValId(u32);

/// What a [`ValId`] resolves to.
#[derive(Debug, Clone, Copy)]
enum Val {
    /// A buffer in the arena.
    Buf { off: usize, len: usize },
    /// A parameter borrowed from the store (no data copied).
    Param(ParamId),
}

/// Reusable state of the tape-free evaluator: the `f32` bump arena, the
/// handle table, a pool of id scratch vectors and the fused tree-conv
/// filter's product scratch.
///
/// Lifecycle: keep one `InferCtx` per scheduler for its whole lifetime
/// and open a fresh [`InferCtx::session`] per decision. The session
/// moves the end of the live values back to the start but keeps every
/// arena slot, so after warm-up the whole forward pass runs without
/// touching the allocator or zero-filling a slot it then overwrites.
#[derive(Debug, Default)]
pub struct InferCtx {
    /// The arena. Its length is the high-water mark of every session so
    /// far; the slots past `top` hold stale values of earlier sessions.
    data: Vec<f32>,
    /// End of the current session's values in `data`.
    top: usize,
    vals: Vec<Val>,
    pool: Pool<Vec<ValId>>,
    /// The five filter products of one [`Backend::conv_filter`] call,
    /// sized from the layer on every call.
    conv: Vec<f32>,
}

impl InferCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new evaluation session borrowing parameters from
    /// `store`. Starts the arena over (its slots and capacity kept); all
    /// previously issued [`ValId`]s are invalidated.
    pub fn session<'a>(&'a mut self, store: &'a ParamStore) -> InferBackend<'a> {
        self.top = 0;
        self.vals.clear();
        InferBackend { ctx: self, store }
    }

    /// Number of `f32` slots currently in use in the arena.
    pub fn arena_len(&self) -> usize {
        self.top
    }

    /// Current arena capacity in `f32` slots (stable once warmed up).
    pub fn arena_capacity(&self) -> usize {
        self.data.capacity()
    }
}

/// A per-decision evaluation session over an [`InferCtx`]; implements
/// [`Backend`] so model code written against the trait runs tape-free.
pub struct InferBackend<'a> {
    ctx: &'a mut InferCtx,
    store: &'a ParamStore,
}

/// Resolves a handle against the arena prefix `head` (everything before
/// the output buffer being written) or the parameter store.
#[inline]
fn resolve<'b>(vals: &[Val], store: &'b ParamStore, head: &'b [f32], id: ValId) -> &'b [f32] {
    match vals[id.0 as usize] {
        Val::Buf { off, len } => &head[off..off + len],
        Val::Param(p) => store.value(p).data(),
    }
}

impl InferBackend<'_> {
    fn len_of(&self, id: ValId) -> usize {
        match self.ctx.vals[id.0 as usize] {
            Val::Buf { len, .. } => len,
            Val::Param(p) => self.store.value(p).len(),
        }
    }

    /// Claims the next `len` arena slots, without registering a handle,
    /// for a caller that writes every one of them: slots an earlier
    /// session wrote keep their stale values until then, and the arena
    /// grows (zero-filled) only past its high-water mark.
    fn alloc_raw(&mut self, len: usize) -> usize {
        let ctx = &mut *self.ctx;
        let off = ctx.top;
        ctx.top += len;
        if ctx.top > ctx.data.len() {
            ctx.data.resize(ctx.top, 0.0);
        }
        off
    }

    /// [`alloc_raw`](Self::alloc_raw) plus a handle, for a kernel that
    /// overwrites its whole output.
    fn alloc_out(&mut self, len: usize) -> (usize, ValId) {
        let off = self.alloc_raw(len);
        (off, self.push_buf(off, len))
    }

    /// `len` zeroed slots plus a handle, for a kernel that accumulates
    /// into its output.
    fn alloc_zeroed(&mut self, len: usize) -> (usize, ValId) {
        let (off, id) = self.alloc_out(len);
        self.ctx.data[off..off + len].fill(0.0);
        (off, id)
    }

    /// Appends a copy of `src` to the session's values; returns its
    /// offset.
    fn append_slice(&mut self, src: &[f32]) -> usize {
        let off = self.alloc_raw(src.len());
        self.ctx.data[off..off + src.len()].copy_from_slice(src);
        off
    }

    /// Registers a handle for the arena span `off..off + len`.
    fn push_buf(&mut self, off: usize, len: usize) -> ValId {
        let id = ValId(self.ctx.vals.len() as u32);
        self.ctx.vals.push(Val::Buf { off, len });
        id
    }

    /// Appends a copy of `id`'s value to the arena tail (one write per
    /// value; an arena buffer is copied from within the arena).
    fn append_value(&mut self, id: ValId) {
        match self.ctx.vals[id.0 as usize] {
            Val::Buf { off, len } => {
                let dst = self.alloc_raw(len);
                self.ctx.data.copy_within(off..off + len, dst);
            }
            Val::Param(p) => {
                let store = self.store;
                self.append_slice(store.value(p).data());
            }
        }
    }

    /// Splits the arena at `off`, returning the prefix (inputs live
    /// there), the output buffer `[off..off + len]`, the handle table and
    /// the store (copied out so callers keep access under the `&mut`
    /// borrow).
    fn split_out(&mut self, off: usize, len: usize) -> (&[f32], &mut [f32], &[Val], &ParamStore) {
        let store = self.store;
        let ctx = &mut *self.ctx;
        let (head, out) = ctx.data.split_at_mut(off);
        (head, &mut out[..len], &ctx.vals, store)
    }

    fn unary(&mut self, a: ValId, f: impl Fn(f32) -> f32) -> ValId {
        let n = self.len_of(a);
        let (off, id) = self.alloc_out(n);
        let (head, out, vals, store) = self.split_out(off, n);
        let av = resolve(vals, store, head, a);
        for (o, &x) in out.iter_mut().zip(av) {
            *o = f(x);
        }
        id
    }

    fn binary(&mut self, a: ValId, b: ValId, f: impl Fn(f32, f32) -> f32) -> ValId {
        let n = self.len_of(a);
        debug_assert_eq!(n, self.len_of(b), "element-wise op shape mismatch");
        let (off, id) = self.alloc_out(n);
        let (head, out, vals, store) = self.split_out(off, n);
        let av = resolve(vals, store, head, a);
        let bv = resolve(vals, store, head, b);
        for ((o, &x), &y) in out.iter_mut().zip(av).zip(bv) {
            *o = f(x, y);
        }
        id
    }

    /// Gathers `inputs` into one contiguous row-major matrix and pushes
    /// the whole batch through every MLP layer with a single fused GEMM
    /// per layer; returns the arena offset of the final
    /// `rows × out_dim` matrix. Shared by [`Backend::mlp_scores`] and
    /// [`Backend::mlp_scores_batched`]; through [`fused_linear_rows`] a
    /// row's output never depends on which other rows share the batch.
    fn mlp_batch_rows(&mut self, mlp: &Mlp, inputs: &[ValId]) -> usize {
        let rows = inputs.len();
        let d0 = mlp.in_dim();

        // Stage 0: gather the candidate rows into one contiguous matrix.
        let mut x_off = self.ctx.top;
        for &p in inputs {
            debug_assert_eq!(self.len_of(p), d0, "mlp_scores input dim mismatch");
            self.append_value(p);
        }

        // Each layer: Y (rows×out) = act(X (rows×in) · Wᵀ + b), one GEMM.
        let last = mlp.num_layers() - 1;
        let mut in_dim = d0;
        for (l, layer) in mlp.layers().iter().enumerate() {
            let act = if l == last { mlp.out_act() } else { mlp.hidden_act() };
            let out_dim = layer.out_dim();
            let y_off = self.alloc_raw(rows * out_dim);
            let w = self.store.value(layer.weight_id());
            let bias = self.store.value(layer.bias_id());
            let ctx = &mut *self.ctx;
            let (head, y) = ctx.data.split_at_mut(y_off);
            let x = &head[x_off..x_off + rows * in_dim];
            fused_linear_rows(w.data(), in_dim, x, bias.data(), act, &mut y[..rows * out_dim]);
            x_off = y_off;
            in_dim = out_dim;
        }
        x_off
    }
}

impl Backend for InferBackend<'_> {
    type Id = ValId;

    fn param(&mut self, id: ParamId) -> ValId {
        let vid = ValId(self.ctx.vals.len() as u32);
        self.ctx.vals.push(Val::Param(id));
        vid
    }

    fn input(&mut self, data: &[f32]) -> ValId {
        self.input_parts(&[data])
    }

    fn input_parts(&mut self, parts: &[&[f32]]) -> ValId {
        let off = self.ctx.top;
        for p in parts {
            self.append_slice(p);
        }
        self.push_buf(off, self.ctx.top - off)
    }

    /// One copy of the whole block, then one handle per row.
    fn input_rows(&mut self, data: &[f32], width: usize, out: &mut Vec<ValId>) {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "input_rows: {} values in rows of {width}",
            data.len()
        );
        let off = self.append_slice(data);
        for row in 0..data.len() / width {
            out.push(self.push_buf(off + row * width, width));
        }
    }

    fn input_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> ValId {
        let (off, id) = self.alloc_zeroed(len);
        fill(&mut self.ctx.data[off..off + len]);
        id
    }

    fn value(&self, id: ValId) -> &[f32] {
        match self.ctx.vals[id.0 as usize] {
            Val::Buf { off, len } => &self.ctx.data[off..off + len],
            Val::Param(p) => self.store.value(p).data(),
        }
    }

    fn add(&mut self, a: ValId, b: ValId) -> ValId {
        self.binary(a, b, |x, y| x + y)
    }

    fn mul(&mut self, a: ValId, b: ValId) -> ValId {
        self.binary(a, b, |x, y| x * y)
    }

    fn scale(&mut self, a: ValId, c: f32) -> ValId {
        self.unary(a, |x| x * c)
    }

    fn matvec(&mut self, w: ValId, x: ValId) -> ValId {
        let wt = match self.ctx.vals[w.0 as usize] {
            Val::Param(p) => self.store.value(p),
            Val::Buf { .. } => {
                panic!("inference matvec requires a parameter matrix (arena buffers are rank-1)")
            }
        };
        let (m, n) = (wt.rows(), wt.cols());
        let (off, id) = self.alloc_out(m);
        let (head, out, vals, store) = self.split_out(off, m);
        let xv = resolve(vals, store, head, x);
        debug_assert_eq!(xv.len(), n, "matvec dim mismatch");
        if n > 0 {
            matvec_rows(wt.data(), n, xv, out);
        } else {
            out.fill(0.0);
        }
        id
    }

    fn concat(&mut self, parts: &[ValId]) -> ValId {
        assert!(!parts.is_empty(), "concat of zero vectors");
        let off = self.ctx.top;
        for &p in parts {
            self.append_value(p);
        }
        self.push_buf(off, self.ctx.top - off)
    }

    fn sum_vec(&mut self, parts: &[ValId]) -> ValId {
        assert!(!parts.is_empty(), "sum_vec of zero vectors");
        let n = self.len_of(parts[0]);
        let (off, id) = self.alloc_zeroed(n);
        let (head, out, vals, store) = self.split_out(off, n);
        for &p in parts {
            let pv = resolve(vals, store, head, p);
            debug_assert_eq!(pv.len(), n, "sum_vec shape mismatch");
            for (o, &v) in out.iter_mut().zip(pv) {
                *o += v;
            }
        }
        id
    }

    fn relu(&mut self, a: ValId) -> ValId {
        self.unary(a, |x| x.max(0.0))
    }

    fn leaky_relu(&mut self, a: ValId, slope: f32) -> ValId {
        self.unary(a, move |x| if x > 0.0 { x } else { slope * x })
    }

    fn tanh(&mut self, a: ValId) -> ValId {
        self.unary(a, f32::tanh)
    }

    fn sigmoid(&mut self, a: ValId) -> ValId {
        self.unary(a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    fn dot(&mut self, a: ValId, b: ValId) -> ValId {
        debug_assert_eq!(self.len_of(a), self.len_of(b), "dot shape mismatch");
        let (off, id) = self.alloc_out(1);
        let (head, out, vals, store) = self.split_out(off, 1);
        let av = resolve(vals, store, head, a);
        let bv = resolve(vals, store, head, b);
        // Same accumulation as the tape's dot (plain sequential sum).
        out[0] = av.iter().zip(bv).map(|(x, y)| x * y).sum();
        id
    }

    fn sum_elems(&mut self, a: ValId) -> ValId {
        let (off, id) = self.alloc_out(1);
        let (head, out, vals, store) = self.split_out(off, 1);
        out[0] = resolve(vals, store, head, a).iter().sum();
        id
    }

    fn mean(&mut self, a: ValId) -> ValId {
        let (off, id) = self.alloc_out(1);
        let (head, out, vals, store) = self.split_out(off, 1);
        let av = resolve(vals, store, head, a);
        out[0] = av.iter().sum::<f32>() / av.len() as f32;
        id
    }

    fn softmax(&mut self, a: ValId) -> ValId {
        let n = self.len_of(a);
        let (off, id) = self.alloc_out(n);
        let (head, out, vals, store) = self.split_out(off, n);
        let av = resolve(vals, store, head, a);
        kernels::softmax_into(av, out);
        id
    }

    fn log_softmax(&mut self, a: ValId) -> ValId {
        let n = self.len_of(a);
        let (off, id) = self.alloc_out(n);
        let (head, out, vals, store) = self.split_out(off, n);
        let av = resolve(vals, store, head, a);
        kernels::log_softmax_into(av, out);
        id
    }

    fn gather(&mut self, a: ValId, idx: usize) -> ValId {
        let (off, id) = self.alloc_out(1);
        let (head, out, vals, store) = self.split_out(off, 1);
        out[0] = resolve(vals, store, head, a)[idx];
        id
    }

    fn mul_scalar(&mut self, vec: ValId, scalar: ValId) -> ValId {
        let n = self.len_of(vec);
        debug_assert_eq!(self.len_of(scalar), 1);
        let (off, id) = self.alloc_out(n);
        let (head, out, vals, store) = self.split_out(off, n);
        let s = resolve(vals, store, head, scalar)[0];
        let av = resolve(vals, store, head, vec);
        for (o, &x) in out.iter_mut().zip(av) {
            *o = x * s;
        }
        id
    }

    /// Records nothing, so memoized values may stand in for ops.
    fn memo_stamp(&self) -> Option<u64> {
        Some(self.store.stamp())
    }

    fn take_ids(&mut self) -> Vec<ValId> {
        self.ctx.pool.take()
    }

    fn recycle_ids(&mut self, v: Vec<ValId>) {
        self.ctx.pool.put(v);
    }

    /// Fused dense layer: one pass over the weight rows computes
    /// `act(W x + b)` straight into the arena.
    fn linear(&mut self, layer: &Linear, x: ValId, act: Activation) -> ValId {
        let (m, n) = (layer.out_dim(), layer.in_dim());
        let (off, id) = self.alloc_out(m);
        let w = self.store.value(layer.weight_id());
        let bias = self.store.value(layer.bias_id());
        let (head, out, vals, store) = self.split_out(off, m);
        let xv = resolve(vals, store, head, x);
        fused_linear_rows(w.data(), n, xv, bias.data(), act, out);
        id
    }

    /// Fused tree-convolution filter: the five products go to the
    /// context's scratch (sized from the layer), or, under a memo, only
    /// the stale ones are recomputed in the memo's cached products; the
    /// combine, bias and activation go to one arena buffer, via
    /// [`TreeConvLayer::products_into`] and
    /// [`TreeConvLayer::combine_into`]. Bit-identical to the decomposed
    /// default.
    fn conv_filter(
        &mut self,
        layer: &TreeConvLayer,
        x: [ValId; 5],
        cached: Option<FilterProducts<'_>>,
    ) -> ValId {
        let d = layer.config().out_dim;
        // The combine accumulates into its output.
        let (off, id) = self.alloc_zeroed(d);
        let store = self.store;
        let InferCtx { data, vals, conv, .. } = &mut *self.ctx;
        let (head, out) = data.split_at_mut(off);
        let out = &mut out[..d];
        let xs = x.map(|i| resolve(vals, store, head, i));
        match cached {
            Some(FilterProducts { mut prod, stale }) => {
                layer.products_into(store, xs, stale, &mut prod);
                layer.combine_into(store, prod.map(|r| &*r), out);
            }
            None => {
                conv.resize(5 * d, 0.0);
                layer.filter_into(store, xs, conv, out);
            }
        }
        id
    }

    /// Batched candidate scoring: stacks the candidate feature vectors
    /// into one row-major `N×d` matrix in the arena and pushes the whole
    /// batch through each MLP layer with a single blocked GEMM (fused
    /// bias + activation), finishing with the scalar head that yields the
    /// `N` scores as one vector.
    fn mlp_scores(&mut self, mlp: &Mlp, inputs: &[ValId]) -> ValId {
        assert_eq!(mlp.out_dim(), 1, "mlp_scores needs a scalar-output head");
        assert!(!inputs.is_empty(), "mlp_scores on an empty candidate batch");
        let off = self.mlp_batch_rows(mlp, inputs);
        // The final rows×1 matrix *is* the score vector.
        let id = ValId(self.ctx.vals.len() as u32);
        self.ctx.vals.push(Val::Buf { off, len: inputs.len() });
        id
    }

    /// Cross-event batched scoring: every segment's candidate rows are
    /// packed into *one* row-major matrix, each MLP layer runs as a
    /// single fused GEMM over all rows of all segments, and the final
    /// column is split into one score-vector handle per segment. Because
    /// no row's output depends on the other rows of its batch
    /// ([`fused_linear_rows`]), a segment's scores are bit-identical to a
    /// per-segment [`Backend::mlp_scores`] call.
    fn mlp_scores_batched(
        &mut self,
        mlp: &Mlp,
        inputs: &[ValId],
        seg_lens: &[usize],
        out: &mut Vec<ValId>,
    ) {
        assert_eq!(mlp.out_dim(), 1, "mlp_scores needs a scalar-output head");
        assert_eq!(
            seg_lens.iter().sum::<usize>(),
            inputs.len(),
            "segment lengths must cover the flat input list"
        );
        assert!(seg_lens.iter().all(|&l| l > 0), "mlp_scores_batched on an empty segment");
        out.clear();
        if inputs.is_empty() {
            return;
        }
        let mut off = self.mlp_batch_rows(mlp, inputs);
        // Split the final rows×1 column into per-segment score vectors.
        for &len in seg_lens {
            let id = ValId(self.ctx.vals.len() as u32);
            self.ctx.vals.push(Val::Buf { off, len });
            out.push(id);
            off += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TapeBackend;
    use crate::graph::Graph;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut ps = ParamStore::new();
        let id = ps.register(name, t);
        (ps, id)
    }

    /// Records the same op chain on a generic backend; used to compare
    /// tape and tape-free executors on every op the trait exposes.
    /// `aid` is an attention vector twice `wid`'s length.
    fn op_chain<B: Backend>(b: &mut B, wid: ParamId, aid: ParamId) -> Vec<f32> {
        let x = b.input(&[1.0, 2.0, -3.0]);
        let w = b.param(wid);
        let a = b.add(x, w);
        let m = b.mul(a, x);
        let s = b.scale(m, 0.5);
        let c = b.concat(&[s, x]);
        let sv = b.sum_vec(&[m, s, a]);
        let r = b.relu(sv);
        let lr = b.leaky_relu(sv, 0.2);
        let t = b.tanh(sv);
        let sg = b.sigmoid(sv);
        let d = b.dot(a, m);
        let se = b.sum_elems(c);
        let mn = b.mean(c);
        let sm = b.softmax(sv);
        let lsm = b.log_softmax(sv);
        let gt = b.gather(lsm, 1);
        let ms = b.mul_scalar(t, d);
        let gc = b.gat_combine(aid, 0.2, &[sv, a, w, ms]);
        let mut out = Vec::new();
        for id in [a, m, s, c, sv, r, lr, t, sg, d, se, mn, sm, lsm, gt, ms, gc] {
            out.extend_from_slice(b.value(id));
        }
        out
    }

    #[test]
    fn every_op_matches_tape_bitwise() {
        let (mut ps, wid) = store_with("w", Tensor::vector(vec![0.5, -1.5, 2.0]));
        let aid = ps.register("a", Tensor::vector(vec![0.3, -0.2, 0.1, 0.4, -0.5, 0.25]));
        let mut g = Graph::new();
        let tape_out = op_chain(&mut TapeBackend::new(&mut g, &ps), wid, aid);
        let mut ctx = InferCtx::new();
        let infer_out = op_chain(&mut ctx.session(&ps), wid, aid);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tape_out), bits(&infer_out));
    }

    /// Combines `terms` on one backend and returns the output bits.
    fn gat_bits<B: Backend>(b: &mut B, aid: ParamId, terms: &[Vec<f32>]) -> Vec<u32> {
        let ids: Vec<_> = terms.iter().map(|t| b.input(t)).collect();
        let c = b.gat_combine(aid, 0.2, &ids);
        b.value(c).iter().map(|v| v.to_bits()).collect()
    }

    /// The decomposed trait default on the inference arena against the
    /// same ops on the reference tape and on the arena tape, for every
    /// term count, with NaN, ±inf, −0.0 and all-equal scores among the
    /// terms.
    #[test]
    fn gat_combine_matches_decomposed_and_tape_bitwise() {
        use crate::kernels::MAX_GAT_TERMS;
        use crate::tape_ref::{RefTape, RefTapeBackend};
        let dim = 3;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(19);
        let aid = ps.register("a", crate::init::small_uniform(&mut rng, 2 * dim, 0.8));
        let zid = ps.register("a0", Tensor::vector(vec![0.0; 2 * dim]));
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let term = |i: usize, k: usize| -> Vec<f32> {
            (0..dim).map(|j| ((i * dim + j + k) as f32 * 0.7).sin() * 2.0).collect()
        };
        let mut cases: Vec<(ParamId, Vec<Vec<f32>>)> = Vec::new();
        for n in 1..=MAX_GAT_TERMS {
            let plain: Vec<_> = (0..n).map(|i| term(i, 0)).collect();
            cases.push((aid, plain.clone()));
            // One special value per case, walking terms and components.
            for (k, &v) in special.iter().enumerate() {
                let mut t = plain.clone();
                t[k % n][k % dim] = v;
                cases.push((aid, t));
            }
            // A zero attention vector scores every term 0: all-equal
            // softmax weights. Identical terms do the same under `aid`.
            cases.push((zid, plain));
            cases.push((aid, vec![term(0, 1); n]));
            // Signed zeros only.
            let zeros = (0..n).map(|i| vec![if i % 2 == 0 { -0.0 } else { 0.0 }; dim]);
            cases.push((aid, zeros.collect()));
        }
        let mut ctx = InferCtx::new();
        for (a, terms) in &cases {
            let mut rt = RefTape::new();
            let decomposed = gat_bits(&mut RefTapeBackend::new(&mut rt, &ps), *a, terms);
            let mut g = Graph::new();
            let tape = gat_bits(&mut TapeBackend::new(&mut g, &ps), *a, terms);
            let infer = gat_bits(&mut ctx.session(&ps), *a, terms);
            assert_eq!(infer, decomposed, "vs the decomposed default: {terms:?}");
            assert_eq!(infer, tape, "vs the arena tape: {terms:?}");
        }
    }

    #[test]
    fn arena_reuses_capacity_across_sessions() {
        let (ps, wid) = store_with("w", Tensor::matrix(4, 3, vec![0.25; 12]));
        let mut ctx = InferCtx::new();
        let mut cap = 0;
        for i in 0..5 {
            let mut b = ctx.session(&ps);
            let x = b.input(&[1.0, 2.0, 3.0]);
            let w = b.param(wid);
            let y = b.matvec(w, x);
            let s = b.softmax(y);
            assert!((b.value(s).iter().sum::<f32>() - 1.0).abs() < 1e-6);
            if i == 0 {
                cap = ctx.arena_capacity();
            } else {
                assert_eq!(ctx.arena_capacity(), cap, "arena must not grow after warm-up");
            }
        }
    }

    #[test]
    fn params_are_borrowed_not_copied() {
        let (ps, wid) = store_with("w", Tensor::vector(vec![1.0, 2.0]));
        let mut ctx = InferCtx::new();
        let b0 = ctx.arena_len();
        {
            let mut b = ctx.session(&ps);
            let w = b.param(wid);
            assert!(std::ptr::eq(b.value(w).as_ptr(), ps.value(wid).data().as_ptr()));
        }
        assert_eq!(ctx.arena_len(), b0, "param handles must not consume arena space");
    }

    #[test]
    fn fused_linear_matches_tape_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Linear::new(&mut ps, &mut rng, "l", 5, 3);
        let x = [0.3, -0.7, 1.1, 0.0, -2.2];

        let mut g = Graph::new();
        let mut tape = TapeBackend::new(&mut g, &ps);
        let tx = tape.input(&x);
        let ty = tape.linear(&layer, tx, Activation::LeakyRelu);
        let tape_out = tape.value(ty).to_vec();

        let mut ctx = InferCtx::new();
        let mut inf = ctx.session(&ps);
        let ix = inf.input(&x);
        let iy = inf.linear(&layer, ix, Activation::LeakyRelu);
        assert_eq!(inf.value(iy), &tape_out[..], "fused linear must be bit-identical");
    }

    #[test]
    fn batched_scores_match_per_candidate_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let head = Mlp::new(&mut ps, &mut rng, "h", &[4, 6, 1], Activation::LeakyRelu, Activation::None);

        let cands: Vec<Vec<f32>> =
            (0..7).map(|i| (0..4).map(|j| ((i * 4 + j) as f32).sin()).collect()).collect();

        let mut g = Graph::new();
        let mut tape = TapeBackend::new(&mut g, &ps);
        let t_ids: Vec<_> = cands.iter().map(|c| tape.input(c)).collect();
        let t_scores = tape.mlp_scores(&head, &t_ids);
        let tape_out = tape.value(t_scores).to_vec();

        let mut ctx = InferCtx::new();
        let mut inf = ctx.session(&ps);
        let i_ids: Vec<_> = cands.iter().map(|c| inf.input(c)).collect();
        let i_scores = inf.mlp_scores(&head, &i_ids);
        assert_eq!(inf.value(i_scores), &tape_out[..], "one-GEMM scoring must be bit-identical");
        assert_eq!(inf.value(i_scores).len(), 7);
    }

    #[test]
    fn cross_event_batched_scores_match_per_segment_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let head =
            Mlp::new(&mut ps, &mut rng, "h", &[3, 5, 1], Activation::LeakyRelu, Activation::None);
        let seg_lens = [3usize, 1, 4, 2];
        let total: usize = seg_lens.iter().sum();
        let cands: Vec<Vec<f32>> =
            (0..total).map(|i| (0..3).map(|j| ((i * 3 + j) as f32).cos()).collect()).collect();

        // Sequential per-segment reference on the inference backend.
        let mut ctx = InferCtx::new();
        let mut seq = Vec::new();
        {
            let mut inf = ctx.session(&ps);
            let ids: Vec<_> = cands.iter().map(|c| inf.input(c)).collect();
            let mut start = 0;
            for &len in &seg_lens {
                let s = inf.mlp_scores(&head, &ids[start..start + len]);
                seq.push(inf.value(s).to_vec());
                start += len;
            }
        }

        // One fused GEMM batch over all segments at once.
        let mut ctx2 = InferCtx::new();
        let mut inf = ctx2.session(&ps);
        let ids: Vec<_> = cands.iter().map(|c| inf.input(c)).collect();
        let mut out = Vec::new();
        inf.mlp_scores_batched(&head, &ids, &seg_lens, &mut out);
        assert_eq!(out.len(), seg_lens.len());
        for (id, expect) in out.iter().zip(&seq) {
            assert_eq!(inf.value(*id), &expect[..], "batched segment must be bit-identical");
        }

        // The tape's per-segment default agrees too.
        let mut g = Graph::new();
        let mut tape = TapeBackend::new(&mut g, &ps);
        let t_ids: Vec<_> = cands.iter().map(|c| tape.input(c)).collect();
        let mut t_out = Vec::new();
        tape.mlp_scores_batched(&head, &t_ids, &seg_lens, &mut t_out);
        for (id, expect) in t_out.iter().zip(&seq) {
            assert_eq!(tape.value(*id), &expect[..]);
        }
    }

    /// Per-row `mlp`, `mlp_scores` and `mlp_scores_batched` score bits
    /// of the same rows on one backend.
    fn score_bits<B: Backend>(
        b: &mut B,
        head: &Mlp,
        rows: &[Vec<f32>],
        seg_lens: &[usize],
    ) -> [Vec<u32>; 3] {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ids: Vec<_> = rows.iter().map(|r| b.input(r)).collect();
        let mut per_row = Vec::new();
        for &x in &ids {
            let y = b.mlp(head, x);
            per_row.extend(bits(b.value(y)));
        }
        let s = b.mlp_scores(head, &ids);
        let scores = bits(b.value(s));
        let mut out = Vec::new();
        b.mlp_scores_batched(head, &ids, seg_lens, &mut out);
        let batched = out.iter().flat_map(|&o| bits(b.value(o))).collect();
        [per_row, scores, batched]
    }

    /// Batched scoring walks rows by count, so a head whose input width
    /// is 0 scores every (empty) row like per-row `mlp` does, on both
    /// executors and for every small width.
    #[test]
    fn batched_scores_match_per_row_mlp_at_every_input_width() {
        for din in 0..=3usize {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(29 + din as u64);
            let head =
                Mlp::new(&mut ps, &mut rng, "h", &[din, 3, 1], Activation::LeakyRelu, Activation::None);
            for layer in head.layers() {
                ps.value_mut(layer.bias_id()).data_mut().fill(0.5);
            }
            let rows: Vec<Vec<f32>> =
                (0..5).map(|i| (0..din).map(|j| ((i * 3 + j) as f32).sin()).collect()).collect();
            let seg_lens = [2usize, 3];
            let mut g = Graph::new();
            let [t_row, t_scores, t_batched] =
                score_bits(&mut TapeBackend::new(&mut g, &ps), &head, &rows, &seg_lens);
            let mut ctx = InferCtx::new();
            let [i_row, i_scores, i_batched] =
                score_bits(&mut ctx.session(&ps), &head, &rows, &seg_lens);
            assert_eq!(t_row.len(), rows.len());
            assert_eq!(i_row, t_row, "per-row mlp, width {din}");
            for v in [t_scores, t_batched, i_scores, i_batched] {
                assert_eq!(v, t_row, "batched vs per-row mlp, width {din}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty candidate batch")]
    fn empty_candidate_batch_panics_consistently() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let head = Mlp::new(&mut ps, &mut rng, "h", &[2, 1], Activation::None, Activation::None);
        let mut ctx = InferCtx::new();
        let mut inf = ctx.session(&ps);
        let _ = inf.mlp_scores(&head, &[]);
    }

    #[test]
    fn id_pool_recycles_capacity() {
        let ps = ParamStore::new();
        let mut ctx = InferCtx::new();
        {
            let mut b = ctx.session(&ps);
            let mut v = b.take_ids();
            v.reserve(64);
            let cap = v.capacity();
            b.recycle_ids(v);
            let v2 = b.take_ids();
            assert!(v2.capacity() >= cap, "recycled vector must keep its capacity");
            b.recycle_ids(v2);
        }
    }
}
