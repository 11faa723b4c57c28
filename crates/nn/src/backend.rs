//! One architecture, two executors: the [`Backend`] trait.
//!
//! Model code (layers, tree convolution, attention, the policy heads in
//! the `core` and `decima` crates) is written once against this trait and
//! then runs on either executor:
//!
//! * [`TapeBackend`] records every op on an autodiff [`Graph`] — this is
//!   the training path, with semantics identical to calling the graph ops
//!   directly (same op sequence, same gradients);
//! * [`crate::infer::InferBackend`] evaluates the same ops directly into
//!   a bump arena with **no tape nodes and no parameter clones** — the
//!   inference path used on the scheduling hot loop.
//!
//! Both executors route per-output-element accumulation through the same
//! [`crate::tensor::dot4`] kernel, so the two paths produce bit-identical
//! forward values, not merely values that agree to a tolerance.
//!
//! The trait also exposes *fusion seams* with default (decomposed)
//! implementations that the inference backend overrides:
//!
//! * [`Backend::linear`] — a whole `act(W x + b)` layer, fused into one
//!   kernel on the inference path;
//! * [`Backend::mlp_scores`] — scoring a batch of candidate feature
//!   vectors with a shared MLP head. The tape decomposes this into one
//!   forward pass per candidate plus a concat (keeping training
//!   gradients unchanged); the inference backend stacks the candidates
//!   into one row-major matrix and runs a single blocked GEMM per layer;
//! * [`Backend::conv_filter`] — one whole tree-convolution filter
//!   application (the five filter products, the combine, the bias and
//!   the activation), one fused kernel on the inference path and one
//!   fused node on the training tape.

use crate::graph::{Graph, NodeId};
use crate::kernels::MAX_GAT_TERMS;
use crate::layers::{Activation, Linear, Mlp};
use crate::params::{ParamId, ParamStore};
use crate::tree_conv::{FilterProducts, TreeConvLayer};

/// An executor for model forward passes; see the module docs.
pub trait Backend {
    /// Handle to a value owned by this executor (a tape [`NodeId`] or an
    /// arena buffer id).
    type Id: Copy;

    /// References a parameter from the store (never copies its data on
    /// either executor).
    fn param(&mut self, id: ParamId) -> Self::Id;

    /// Introduces a constant input vector by copying `data`.
    fn input(&mut self, data: &[f32]) -> Self::Id;

    /// Introduces a constant input vector, the concatenation of `parts`,
    /// by copying them in order. The default fills one
    /// [`input_with`](Backend::input_with) buffer; the inference backend
    /// and the training tape append each part to their arena, writing
    /// every value once.
    fn input_parts(&mut self, parts: &[&[f32]]) -> Self::Id {
        let len = parts.iter().map(|p| p.len()).sum();
        self.input_with(len, |buf| {
            let mut pos = 0;
            for p in parts {
                buf[pos..pos + p.len()].copy_from_slice(p);
                pos += p.len();
            }
        })
    }

    /// Introduces each `width`-wide row of `data` as one constant input,
    /// appending the ids to `out` in row order. The default records one
    /// [`input`](Backend::input) per row, the nodes a tape has always
    /// recorded for them; the inference backend copies the whole block
    /// into its arena at once.
    ///
    /// # Panics
    /// Panics if `width` is 0 or does not divide `data.len()`.
    fn input_rows(&mut self, data: &[f32], width: usize, out: &mut Vec<Self::Id>) {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "input_rows: {} values in rows of {width}",
            data.len()
        );
        out.extend(data.chunks_exact(width).map(|row| self.input(row)));
    }

    /// Introduces a constant input vector of length `len`, writing the
    /// values in place via `fill` (the buffer starts zeroed). On the
    /// inference path this writes directly into the arena, so feature
    /// assembly costs no heap allocation.
    fn input_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> Self::Id;

    /// A single-element constant.
    fn scalar(&mut self, v: f32) -> Self::Id {
        self.input_with(1, |b| b[0] = v)
    }

    /// The forward value of `id`.
    fn value(&self, id: Self::Id) -> &[f32];

    /// Element-wise addition.
    fn add(&mut self, a: Self::Id, b: Self::Id) -> Self::Id;
    /// Hadamard (element-wise) product.
    fn mul(&mut self, a: Self::Id, b: Self::Id) -> Self::Id;
    /// Multiplication by a constant.
    fn scale(&mut self, a: Self::Id, c: f32) -> Self::Id;
    /// Matrix–vector product; `w` must reference a rank-2 parameter.
    fn matvec(&mut self, w: Self::Id, x: Self::Id) -> Self::Id;
    /// Concatenates vectors in order.
    fn concat(&mut self, parts: &[Self::Id]) -> Self::Id;
    /// Element-wise sum of same-shaped vectors.
    fn sum_vec(&mut self, parts: &[Self::Id]) -> Self::Id;
    /// Rectified linear unit.
    fn relu(&mut self, a: Self::Id) -> Self::Id;
    /// Leaky ReLU with the given negative slope.
    fn leaky_relu(&mut self, a: Self::Id, slope: f32) -> Self::Id;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Self::Id) -> Self::Id;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::Id) -> Self::Id;
    /// Dot product producing a scalar.
    fn dot(&mut self, a: Self::Id, b: Self::Id) -> Self::Id;
    /// Sum of all elements, producing a scalar.
    fn sum_elems(&mut self, a: Self::Id) -> Self::Id;
    /// Mean of all elements, producing a scalar.
    fn mean(&mut self, a: Self::Id) -> Self::Id;
    /// Numerically-stable softmax.
    fn softmax(&mut self, a: Self::Id) -> Self::Id;
    /// Numerically-stable log-softmax.
    fn log_softmax(&mut self, a: Self::Id) -> Self::Id;
    /// Selects element `idx`, producing a scalar.
    fn gather(&mut self, a: Self::Id, idx: usize) -> Self::Id;
    /// Broadcast-multiplies vector `vec` by scalar node `scalar`.
    fn mul_scalar(&mut self, vec: Self::Id, scalar: Self::Id) -> Self::Id;

    /// The values stamp ([`ParamStore::stamp`]) of the store this
    /// executor reads, when callers may stand memoized forward values in
    /// for recomputation (re-introduced via [`Backend::input`]; an
    /// executor that returns `Some` must also honour the cached products
    /// of [`Backend::conv_filter`]). `None`, the default, on executors
    /// that record gradients: they must run every op so the tape is
    /// complete and its op order never moves.
    fn memo_stamp(&self) -> Option<u64> {
        None
    }

    /// Borrows a reusable id scratch vector. The inference backend hands
    /// out pooled vectors whose capacity persists across decisions (so
    /// steady-state forward passes allocate nothing); the tape default
    /// just allocates.
    fn take_ids(&mut self) -> Vec<Self::Id> {
        Vec::new()
    }

    /// Returns a vector obtained from [`Backend::take_ids`] to the pool.
    fn recycle_ids(&mut self, _v: Vec<Self::Id>) {}

    /// One dense layer `act(W x + b)`. The default decomposes into the
    /// exact op sequence the tape always recorded (param, param, matvec,
    /// add, activation); the inference backend fuses it into a single
    /// kernel.
    fn linear(&mut self, layer: &Linear, x: Self::Id, act: Activation) -> Self::Id {
        debug_assert_eq!(self.value(x).len(), layer.in_dim(), "Linear input dim mismatch");
        let w = self.param(layer.weight_id());
        let b = self.param(layer.bias_id());
        let h = self.matvec(w, x);
        let h = self.add(h, b);
        act.apply_on(self, h)
    }

    /// A full MLP forward pass (hidden activation between layers, output
    /// activation after the last).
    fn mlp(&mut self, mlp: &Mlp, x: Self::Id) -> Self::Id {
        let last = mlp.num_layers() - 1;
        let mut h = x;
        for (i, layer) in mlp.layers().iter().enumerate() {
            let act = if i == last { mlp.out_act() } else { mlp.hidden_act() };
            h = self.linear(layer, h, act);
        }
        h
    }

    /// Scores every candidate input with a shared scalar-output MLP head,
    /// returning one vector holding all scores in candidate order.
    ///
    /// The default runs one forward pass per candidate and concatenates
    /// the scalar outputs — on the tape this keeps training semantics and
    /// gradients exactly as before. The inference backend overrides it
    /// with a batched implementation: candidates are stacked into one
    /// row-major matrix and each MLP layer becomes a single blocked GEMM.
    ///
    /// # Panics
    /// Panics if `mlp.out_dim() != 1` or `inputs` is empty.
    fn mlp_scores(&mut self, mlp: &Mlp, inputs: &[Self::Id]) -> Self::Id {
        assert_eq!(mlp.out_dim(), 1, "mlp_scores needs a scalar-output head");
        assert!(!inputs.is_empty(), "mlp_scores on an empty candidate batch");
        let mut scores = self.take_ids();
        for &x in inputs {
            let s = self.mlp(mlp, x);
            scores.push(s);
        }
        let out = self.concat(&scores);
        self.recycle_ids(scores);
        out
    }

    /// Scores several independent candidate batches ("segments" — one per
    /// concurrent scheduling event in a simulator tick) with the same
    /// scalar-output MLP head. `inputs` is the flat concatenation of all
    /// segments' candidate feature vectors and `seg_lens[e]` is segment
    /// `e`'s candidate count. Clears `out` and pushes one score vector
    /// per segment, in segment order; each entry is bit-identical to
    /// what [`Backend::mlp_scores`] would return for that segment alone.
    ///
    /// The default loops [`Backend::mlp_scores`] per segment — on the
    /// tape this keeps training semantics and gradients untouched. The
    /// inference backend overrides it to pack *all* rows across segments
    /// into one fused GEMM per layer and split the final score column
    /// per segment.
    ///
    /// # Panics
    /// Panics if any segment is empty or the segment lengths don't sum
    /// to `inputs.len()`.
    fn mlp_scores_batched(
        &mut self,
        mlp: &Mlp,
        inputs: &[Self::Id],
        seg_lens: &[usize],
        out: &mut Vec<Self::Id>,
    ) {
        assert_eq!(
            seg_lens.iter().sum::<usize>(),
            inputs.len(),
            "segment lengths must cover the flat input list"
        );
        out.clear();
        let mut start = 0;
        for &len in seg_lens {
            assert!(len > 0, "mlp_scores_batched on an empty segment");
            let s = self.mlp_scores(mlp, &inputs[start..start + len]);
            out.push(s);
            start += len;
        }
    }

    /// The GAT attention combine (Eq. 3–5 of the paper): scores every
    /// term against the anchor `terms[0]` with the shared attention
    /// vector `a` (`LeakyReLU(aᵀ(anchor ‖ term))`), softmax-normalizes
    /// the scores across terms, and returns the weighted term sum
    /// `Σ_i z_i · term_i`.
    ///
    /// The default decomposes into the exact op sequence the tree
    /// convolution always recorded (per-term `param`/`concat`/`dot`/
    /// `leaky_relu`, a score `concat` + `softmax`, per-term `gather` and
    /// `mul_scalar`, then `sum_vec`), using only stack scratch. No
    /// backend overrides it: the fused
    /// [`conv_filter`](Backend::conv_filter) of the inference backend
    /// and of the training tape runs the combine inline
    /// ([`crate::kernels::gat_combine_into`]), so the decomposed filter
    /// (the reference tape's) is its only caller.
    ///
    /// # Panics
    /// Panics if `terms` is empty or longer than the supported maximum
    /// (currently 8).
    fn gat_combine(&mut self, a: ParamId, slope: f32, terms: &[Self::Id]) -> Self::Id {
        let n = terms.len();
        assert!(n >= 1, "gat_combine on an empty term list");
        assert!(n <= MAX_GAT_TERMS, "gat_combine supports at most {MAX_GAT_TERMS} terms");
        let anchor = terms[0];
        let mut raw = [anchor; MAX_GAT_TERMS];
        for (r, &t) in raw[..n].iter_mut().zip(terms) {
            let av = self.param(a);
            let cat = self.concat(&[anchor, t]);
            let s = self.dot(av, cat);
            *r = self.leaky_relu(s, slope);
        }
        let stacked = self.concat(&raw[..n]);
        let sm = self.softmax(stacked);
        let mut z = [anchor; MAX_GAT_TERMS];
        for (i, zi) in z[..n].iter_mut().enumerate() {
            *zi = self.gather(sm, i);
        }
        let mut scaled = [anchor; MAX_GAT_TERMS];
        for (s, (&t, &zi)) in scaled[..n].iter_mut().zip(terms.iter().zip(z.iter())) {
            *s = self.mul_scalar(t, zi);
        }
        self.sum_vec(&scaled[..n])
    }

    /// One tree-convolution filter application of `layer` (Eq. 2, with
    /// Eq. 5 attention when the layer has it) over its five inputs in the
    /// order `[parent, left child, left edge, right child, right edge]`.
    /// `cached` carries the node's products from its last application
    /// when a [`crate::ConvMemo`] pass runs the filter; only a backend
    /// that admits memoized values ([`Backend::memo_stamp`]) is handed
    /// them, and it must recompute the stale ones in place.
    ///
    /// The default records the decomposed op sequence the tree
    /// convolution always recorded: one product per input, the
    /// [`gat_combine`](Backend::gat_combine) (or a plain `sum_vec`), the
    /// bias `add` and the activation — the reference tape's recording,
    /// which every fused form is checked against. The inference backend
    /// overrides it with one kernel that writes one arena buffer,
    /// multiplying only the stale cached products; the training tape
    /// with one node that runs the same kernel forward and replays the
    /// decomposed reverse sweep backward, bit for bit. Both tapes ignore
    /// `cached` (they are never handed one).
    fn conv_filter(
        &mut self,
        layer: &TreeConvLayer,
        x: [Self::Id; 5],
        _cached: Option<FilterProducts<'_>>,
    ) -> Self::Id {
        layer.filter_ops_on(self, x)
    }
}

/// The training executor: every op is recorded on an autodiff [`Graph`]
/// so `backward` can run, and parameters resolve through the store's
/// shared (refcounted) tensors.
pub struct TapeBackend<'a> {
    g: &'a mut Graph,
    store: &'a ParamStore,
}

impl<'a> TapeBackend<'a> {
    /// Wraps a graph and the parameter store it reads from.
    pub fn new(g: &'a mut Graph, store: &'a ParamStore) -> Self {
        Self { g, store }
    }

    /// The underlying graph (e.g. to run `backward` afterwards).
    pub fn graph(&mut self) -> &mut Graph {
        self.g
    }
}

impl Backend for TapeBackend<'_> {
    type Id = NodeId;

    fn param(&mut self, id: ParamId) -> NodeId {
        self.g.param(self.store, id)
    }

    fn input(&mut self, data: &[f32]) -> NodeId {
        self.g.input_slice(data)
    }

    fn input_parts(&mut self, parts: &[&[f32]]) -> NodeId {
        self.g.input_parts(parts)
    }

    fn input_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> NodeId {
        self.g.input_with(len, fill)
    }

    fn value(&self, id: NodeId) -> &[f32] {
        self.g.value(id).data()
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.g.add(a, b)
    }

    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.g.mul(a, b)
    }

    fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        self.g.scale(a, c)
    }

    fn matvec(&mut self, w: NodeId, x: NodeId) -> NodeId {
        self.g.matvec(w, x)
    }

    fn concat(&mut self, parts: &[NodeId]) -> NodeId {
        self.g.concat(parts)
    }

    fn sum_vec(&mut self, parts: &[NodeId]) -> NodeId {
        self.g.sum_vec(parts)
    }

    fn relu(&mut self, a: NodeId) -> NodeId {
        self.g.relu(a)
    }

    fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        self.g.leaky_relu(a, slope)
    }

    fn tanh(&mut self, a: NodeId) -> NodeId {
        self.g.tanh(a)
    }

    fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.g.sigmoid(a)
    }

    fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.g.dot(a, b)
    }

    fn sum_elems(&mut self, a: NodeId) -> NodeId {
        self.g.sum_elems(a)
    }

    fn mean(&mut self, a: NodeId) -> NodeId {
        self.g.mean(a)
    }

    fn softmax(&mut self, a: NodeId) -> NodeId {
        self.g.softmax(a)
    }

    fn log_softmax(&mut self, a: NodeId) -> NodeId {
        self.g.log_softmax(a)
    }

    fn gather(&mut self, a: NodeId, idx: usize) -> NodeId {
        self.g.gather(a, idx)
    }

    fn mul_scalar(&mut self, vec: NodeId, scalar: NodeId) -> NodeId {
        self.g.mul_scalar(vec, scalar)
    }

    fn take_ids(&mut self) -> Vec<NodeId> {
        self.g.take_ids()
    }

    fn recycle_ids(&mut self, v: Vec<NodeId>) {
        self.g.recycle_ids(v);
    }

    /// Records the fused single-node layer; values and store gradients
    /// stay bit-identical to the decomposed default.
    fn linear(&mut self, layer: &Linear, x: NodeId, act: Activation) -> NodeId {
        self.g.fused_linear(self.store, layer, x, act)
    }

    /// Records one fused batched-scoring node instead of per-candidate
    /// MLP subgraphs; the backward pass runs per-layer gradient GEMMs
    /// over the whole candidate batch.
    fn mlp_scores(&mut self, mlp: &Mlp, inputs: &[NodeId]) -> NodeId {
        self.g.fused_mlp_scores(self.store, mlp, inputs)
    }

    /// Records one fused scoring node across *all* segments (the
    /// backward mirror of the inference path's cross-event batching),
    /// returning per-segment slice views.
    fn mlp_scores_batched(
        &mut self,
        mlp: &Mlp,
        inputs: &[NodeId],
        seg_lens: &[usize],
        out: &mut Vec<NodeId>,
    ) {
        self.g.fused_mlp_scores_batched(self.store, mlp, inputs, seg_lens, out);
    }

    /// Records one fused filter node instead of about nine; store
    /// gradients replay the decomposed reverse sweep bit for bit.
    fn conv_filter(
        &mut self,
        layer: &TreeConvLayer,
        x: [NodeId; 5],
        _cached: Option<FilterProducts<'_>>,
    ) -> NodeId {
        self.g.fused_conv_filter(self.store, layer, x)
    }
}
