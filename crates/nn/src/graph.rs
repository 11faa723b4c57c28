//! Reverse-mode automatic differentiation on an **arena-backed SoA
//! tape**.
//!
//! A [`Graph`] records every operation as a fixed-size node whose value
//! and gradient are `(offset, len)` handles into two reusable `f32`
//! slabs — the training-side mirror of [`crate::infer::InferCtx`]. Ops
//! carry small `Copy` payloads (operand ids plus a range into a shared
//! id arena for `concat`/`sum_vec`), so recording a node never heap
//! allocates in steady state: [`Graph::reset`] clears lengths but keeps
//! every slab's capacity, and the backward pass reuses one gradient slab
//! plus two scratch buffers across calls.
//!
//! Because operands must exist before the operations that consume them,
//! the arena order is already a topological order and the backward pass
//! is a single reverse sweep. Parameters are injected from a
//! [`ParamStore`] and their gradients flow back into the store's
//! accumulators, which lets a training step combine gradients from many
//! independent recordings. A recording pins each parameter it reads
//! once, in a slot table that `Param` nodes and fused nodes index into.
//!
//! # Only what reaches a parameter is differentiated
//!
//! Whether a node reaches a parameter is decided when it is recorded: a
//! parameter leaf and every fused node (each has weights) do, a constant
//! input does not, and any other node does iff one of its operands does.
//! A node that does not gets no gradient span, and no backward rule
//! computes a gradient into it: `matvec` and the fused layers skip `Wᵀg`
//! into a constant input, and into a `concat` input compute only the
//! columns of the parts that reach a parameter. This is exact: a
//! constant node's operands are all constants, so nothing deposited into
//! it could reach the store.
//!
//! # Fused nodes
//!
//! Besides the primitive ops, the tape records three fused node kinds that
//! [`crate::backend::TapeBackend`] emits for the trait's fusion seams:
//!
//! * [`Graph::fused_linear`] — a whole `act(W x + b)` layer in one node.
//!   Forward runs the same [`crate::kernels::fused_linear_row`] kernel as
//!   the inference arena; backward computes `act'(y) ⊙ g` once and then
//!   dispatches the two gradient GEMM kernels
//!   ([`crate::tensor::outer_acc`] for `dW`,
//!   [`crate::tensor::matvec_t_rows`] for `dx`) once per matrix.
//! * [`Graph::fused_mlp_scores`] / [`Graph::fused_mlp_scores_batched`] —
//!   candidate scoring batched into one row-major matrix per layer (the
//!   backward mirror of the inference path's batched GEMM): the backward
//!   sweep walks the layers once, with per-layer gradient GEMMs over
//!   *all* rows of all segments.
//! * [`Graph::fused_conv_filter`] — one whole tree-convolution filter
//!   application (the five filter products, the GAT attention combine of
//!   Eq. 3–5, the bias and the activation), whose forward is the
//!   inference path's filter kernel and whose weight gradients go
//!   straight into the store's accumulators.
//!
//! Every fused backward is gated on producing **bit-identical** store
//! gradients to the decomposed recording on the retained reference tape
//! ([`crate::tape_ref::RefTape`]): the fused kernels replay the exact
//! per-accumulator flush order and per-element arithmetic of the
//! primitive op sequence (see `crates/core/tests/grad_equivalence.rs`).

use std::sync::Arc;

use lsched_util::Pool;

use crate::gat::ATTENTION_LEAKY_SLOPE;
use crate::kernels::{self, fused_linear_row, MAX_GAT_TERMS};
use crate::layers::{Activation, Linear, Mlp};
use crate::params::{ParamId, ParamStore};
use crate::tensor::{matvec_rows, matvec_t_cols, matvec_t_rows, outer_acc, Tensor};
use crate::tree_conv::{FilterMode, TreeConvLayer, COMBINE_ORDER};

pub use crate::kernels::softmax_vals;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Borrowed view of a node's forward value inside the value slab (or the
/// store's shared tensor, for parameter leaves).
///
/// Dereferences to `&[f32]`; [`ValueRef::data`] and [`ValueRef::item`]
/// keep the call-site surface of the previous tensor-returning API.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'a>(&'a [f32]);

impl<'a> ValueRef<'a> {
    /// The underlying value slice.
    #[inline]
    pub fn data(self) -> &'a [f32] {
        self.0
    }

    /// The single element of a scalar value.
    ///
    /// # Panics
    /// Panics if the value does not hold exactly one element.
    #[inline]
    pub fn item(self) -> f32 {
        assert_eq!(self.0.len(), 1, "item() on value of {} elements", self.0.len());
        self.0[0]
    }

    /// Number of elements.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the value holds no elements.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Deref for ValueRef<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.0
    }
}

/// Operation payloads. Every variant is small and `Copy`; variable-arity
/// ops (`Concat`, `SumVec`, `MlpScores`) store a range into the graph's
/// shared id arena instead of owning a `Vec`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Constant input (reaches no parameter, so never differentiated).
    Input,
    /// Trainable parameter; backward accumulates into the store. The
    /// node's `off` is its slot in the graph's pinned-parameter table.
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    /// Hadamard (element-wise) product.
    Mul(NodeId, NodeId),
    /// Multiply by a compile-time constant.
    Scale(NodeId, f32),
    /// Matrix–vector product: `w` is rank-2, `x` rank-1.
    MatVec { w: NodeId, x: NodeId },
    /// Concatenation of vectors (`n` operand ids starting at `parts`).
    Concat { parts: u32, n: u32 },
    /// Element-wise sum of same-shaped vectors.
    SumVec { parts: u32, n: u32 },
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Tanh(NodeId),
    Sigmoid(NodeId),
    /// Dot product of two vectors, producing a scalar.
    Dot(NodeId, NodeId),
    /// Sum of all elements, producing a scalar.
    SumElems(NodeId),
    /// Mean of all elements, producing a scalar.
    Mean(NodeId),
    Softmax(NodeId),
    LogSoftmax(NodeId),
    /// Pick one element, producing a scalar.
    Gather(NodeId, u32),
    /// Broadcast-multiply a vector by a scalar node.
    MulScalar { vec: NodeId, scalar: NodeId },
    /// Fused dense layer `act(W x + b)`; `lin` indexes `linears`.
    Linear { x: NodeId, lin: u32 },
    /// Fused batched candidate scoring; `meta` indexes `mlps`.
    MlpScores { meta: u32 },
    /// Fused tree-convolution filter application; `meta` indexes
    /// `filters`.
    ConvFilter { meta: u32 },
    /// A view of a contiguous sub-range of `src` (the per-segment score
    /// vectors of a batched scoring node). The value *aliases* the
    /// source span (this node's `off` is absolute); only the gradient
    /// span is separate.
    Slice { src: NodeId },
}

/// `Node::goff` of a node that reaches no parameter: it has no gradient
/// span.
const NO_GRAD: u32 = u32::MAX;

/// `Graph::slot_of` entry of a parameter this recording has not pinned.
const NO_SLOT: u32 = u32::MAX;

/// One tape entry: the op plus `(offset, len)` handles into the value
/// and gradient slabs (`goff == NO_GRAD` for a node that reaches no
/// parameter). `rows > 0` marks a rank-2 value recorded via
/// [`Graph::input`] so `matvec` keeps working on non-parameter matrices.
#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    off: u32,
    len: u32,
    goff: u32,
    rows: u32,
}

impl Node {
    /// Whether the node reaches a parameter, i.e. has a gradient span.
    #[inline]
    fn grads(&self) -> bool {
        self.goff != NO_GRAD
    }
}

/// One parameter pinned by a recording: its id and its recording-time
/// tensor, shared by refcount (the store's copy-on-write `value_mut`
/// detaches on mutation).
type Pinned = (ParamId, Arc<Tensor>);

/// Per-recording metadata of a fused dense layer: the weight and bias
/// slots in the pinned-parameter table, the shape and the activation.
#[derive(Debug, Clone, Copy)]
struct LinearMeta {
    w: u32,
    b: u32,
    in_dim: u32,
    out_dim: u32,
    act: Activation,
}

/// Metadata of a fused batched-scoring node: which `linears` entries
/// form the MLP, which input nodes feed the rows (a range into the id
/// arena), and where the stacked layer inputs `X_0..X_{L-1}` live in the
/// value slab (the final layer's output is the node's own value span).
#[derive(Debug, Clone, Copy)]
struct MlpMeta {
    rows: u32,
    lin_start: u32,
    lin_len: u32,
    parts_start: u32,
    aux_off: u32,
}

/// Metadata of a fused tree-convolution filter node: its five inputs (a
/// range into the id arena, in [`crate::Backend::conv_filter`] order),
/// the pinned slots of the five weights in the same order, of the bias
/// and of the attention vector, and where the forward scratch of
/// [`TreeConvLayer::filter_into`] lives in the value slab (the five
/// products, then the attention scores and weights). The filter output
/// is the node's own value span.
#[derive(Debug, Clone, Copy)]
struct FilterMeta {
    parts_start: u32,
    w: [u32; 5],
    bias: Option<u32>,
    att: Option<u32>,
    mode: FilterMode,
    act: Activation,
    aux_off: u32,
}

/// The size of a [`Graph`]'s recording (see [`Graph::size`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeSize {
    /// Recorded nodes.
    pub nodes: usize,
    /// `f32` slots in use in the value slab.
    pub value_floats: usize,
    /// `f32` slots of the gradient slab a backward pass zeroes and
    /// sweeps: the summed lengths of the nodes that reach a parameter.
    pub grad_floats: usize,
}

/// A reusable computation tape with reverse-mode autodiff; see the
/// module docs for the arena layout.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Value slab: every non-parameter node's forward value.
    vals: Vec<f32>,
    /// Gradient slab, laid out by each node's `goff`; sized lazily by
    /// [`Graph::backward`] and reused across calls.
    grads: Vec<f32>,
    /// Whether any consumer deposited gradient into a node. Unreached
    /// nodes are skipped exactly as on the reference tape — processing
    /// them would push zero gradients through value-dependent backward
    /// rules (`0 * inf` is NaN) and could poison accumulators the
    /// reference sweep never touches.
    reached: Vec<bool>,
    /// Shared operand-id arena for `Concat`/`SumVec`/`MlpScores`.
    parts: Vec<NodeId>,
    /// The parameters this recording reads, each pinned once.
    pinned: Vec<Pinned>,
    /// Each `ParamId`'s slot in `pinned` (`NO_SLOT` if unpinned).
    slot_of: Vec<u32>,
    linears: Vec<LinearMeta>,
    mlps: Vec<MlpMeta>,
    filters: Vec<FilterMeta>,
    /// Pool of id scratch vectors for [`Graph::take_ids`].
    pool: Pool<Vec<NodeId>>,
    /// Backward scratch (activation gradients / transposed matvec).
    bwd_a: Vec<f32>,
    bwd_b: Vec<f32>,
    /// Total gradient-slab length (sum of the lens of the nodes that
    /// reach a parameter).
    grad_len: u32,
}

/// Resolves a node's value against the slab (or a prefix of it, when an
/// output span is currently split off mutably) or the pinned parameter
/// tensors.
#[inline]
fn node_val<'a>(nodes: &[Node], pinned: &'a [Pinned], head: &'a [f32], id: NodeId) -> &'a [f32] {
    let n = &nodes[id.idx()];
    match n.op {
        Op::Param(_) => pinned[n.off as usize].1.data(),
        _ => &head[n.off as usize..(n.off + n.len) as usize],
    }
}

/// Shape of a rank-2 operand (parameter tensors carry their own shape;
/// slab values use the recorded row count).
fn mat_shape(nodes: &[Node], pinned: &[Pinned], w: NodeId) -> (usize, usize) {
    let n = &nodes[w.idx()];
    if let Op::Param(_) = n.op {
        let t = &pinned[n.off as usize].1;
        (t.rows(), t.cols())
    } else {
        assert!(n.rows > 0, "matvec requires a rank-2 operand");
        (n.rows as usize, (n.len / n.rows) as usize)
    }
}

/// Marks an operand reached and returns its gradient span within the
/// slab prefix that precedes the current node's own span, or `None` for
/// an operand that reaches no parameter.
#[inline]
fn dep<'a>(
    nodes: &[Node],
    reached: &mut [bool],
    gops: &'a mut [f32],
    id: NodeId,
) -> Option<&'a mut [f32]> {
    let n = &nodes[id.idx()];
    if !n.grads() {
        return None;
    }
    reached[id.idx()] = true;
    Some(&mut gops[n.goff as usize..(n.goff + n.len) as usize])
}

/// `dx = Wᵀ g` into operand `x`'s gradient span, for a `g.len()×n`
/// matrix `w`, with the two steps of the decomposed matvec backward
/// (zeroed scratch, then added) — but only for the columns that reach a
/// parameter: none for a constant `x`, and for a `concat` only those of
/// its parts that reach one. Each column is an independent sum over the
/// rows, so the columns computed are bitwise those of the full product.
#[allow(clippy::too_many_arguments)]
fn matvec_t_dep(
    nodes: &[Node],
    parts: &[NodeId],
    reached: &mut [bool],
    gops: &mut [f32],
    w: &[f32],
    n: usize,
    g: &[f32],
    x: NodeId,
    scratch: &mut Vec<f32>,
) {
    let Some(span) = dep(nodes, reached, gops, x) else {
        return;
    };
    scratch.clear();
    scratch.resize(n, 0.0);
    if let Op::Concat { parts: pstart, n: k } = nodes[x.idx()].op {
        let mut c = 0;
        for &p in &parts[pstart as usize..(pstart + k) as usize] {
            let len = nodes[p.idx()].len as usize;
            if nodes[p.idx()].grads() {
                let cols = &mut scratch[c..c + len];
                matvec_t_cols(w, n, c, g, cols);
                for (o, &v) in span[c..c + len].iter_mut().zip(cols.iter()) {
                    *o += v;
                }
            }
            c += len;
        }
    } else {
        matvec_t_rows(w, n, g, scratch);
        for (o, &v) in span.iter_mut().zip(scratch.iter()) {
            *o += v;
        }
    }
}

/// The forward state a filter's GAT combine backward replays from.
struct GatReplay<'a> {
    /// The attention vector at recording time and its store id.
    a: &'a [f32],
    aid: ParamId,
    /// Raw pre-LeakyReLU scores and softmax weights, one per term.
    s: &'a [f32],
    z: &'a [f32],
    /// Term values in [`COMBINE_ORDER`]; the anchor is `terms[0]`.
    terms: &'a [&'a [f32]],
}

impl GatReplay<'_> {
    /// Replays the decomposed recording's reverse sweep from the
    /// combine's gradient `g`, bit for bit, into the filter's local
    /// product spans `tg` (input order, so term `i` is product
    /// `COMBINE_ORDER[i]`).
    fn backward(&self, g: &[f32], store: &mut ParamStore, tg: &mut [f32]) {
        let n = self.terms.len();
        let dim = g.len();
        let span = |i: usize| COMBINE_ORDER[i] * dim..(COMBINE_ORDER[i] + 1) * dim;
        let anchor = self.terms[0];
        // `sum_vec` + `mul_scalar` backward in one pass: each term's span
        // takes g ⊙ z_i and each weight's gradient is g · t_i, in reverse
        // term order exactly like the reverse sweep over the decomposed
        // `mul_scalar` nodes (the anchor, term 0, collects its
        // weighted-sum contribution last).
        let mut gz = [0.0f32; MAX_GAT_TERMS];
        for i in (0..n).rev() {
            let zi = self.z[i];
            for (o, &gi) in tg[span(i)].iter_mut().zip(g) {
                *o += gi * zi;
            }
            gz[i] = g.iter().zip(self.terms[i]).map(|(gi, vi)| gi * vi).sum();
        }
        // Softmax backward from the stored weights into the raw-score
        // gradients (`gather` backward is the identity scatter).
        let mut gr = [0.0f32; MAX_GAT_TERMS];
        kernels::softmax_grad_acc(self.z, &gz[..n], &mut gr[..n]);
        // Per-score LeakyReLU + dot + concat backward, in reverse score
        // order. Each score flushes its own attention-vector gradient
        // `gd · (anchor ‖ term)` to the store, mirroring the decomposed
        // per-score `param` nodes; the anchor and term spans then take
        // `gd · a[..dim]` / `gd · a[dim..]` — the exact values the
        // decomposed dot + concat pair deposits.
        for i in (0..n).rev() {
            let gd = if self.s[i] > 0.0 { gr[i] } else { gr[i] * ATTENTION_LEAKY_SLOPE };
            if let Some(acc) = store.grad_acc_mut(self.aid) {
                let (acc_anchor, acc_term) = acc.split_at_mut(dim);
                for (o, &x) in acc_anchor.iter_mut().zip(anchor) {
                    *o += gd * x;
                }
                for (o, &x) in acc_term.iter_mut().zip(self.terms[i]) {
                    *o += gd * x;
                }
            }
            for (o, &ai) in tg[span(0)].iter_mut().zip(&self.a[..dim]) {
                *o += gd * ai;
            }
            for (o, &ai) in tg[span(i)].iter_mut().zip(&self.a[dim..]) {
                *o += gd * ai;
            }
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clears the tape for reuse while keeping every slab's allocated
    /// capacity, so steady-state re-recording allocates nothing. All
    /// previously issued [`NodeId`]s are invalidated.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.vals.clear();
        self.parts.clear();
        self.unpin();
        self.linears.clear();
        self.mlps.clear();
        self.filters.clear();
        self.grad_len = 0;
    }

    /// Drops every pinned parameter tensor while keeping the recording
    /// itself (and the slot table's capacity). Call this after the last
    /// [`Graph::backward`] of a step and *before* the optimizer runs, so
    /// the store's copy-on-write `value_mut` sees a refcount of one and
    /// updates in place instead of cloning every tensor. Parameter node
    /// values (and further backward passes) are unusable until the next
    /// [`Graph::reset`] + re-record.
    pub fn release_params(&mut self) {
        self.unpin();
    }

    fn unpin(&mut self) {
        for (id, _) in self.pinned.drain(..) {
            self.slot_of[id.index()] = NO_SLOT;
        }
    }

    /// The slot of parameter `id` in the pinned table, pinning the
    /// store's tensor on first use. A parameter the store replaced since
    /// (copy-on-write) gets a fresh slot, so every node reads the tensor
    /// that was current when it was recorded.
    fn pin(&mut self, store: &ParamStore, id: ParamId) -> u32 {
        let i = id.index();
        if self.slot_of.len() <= i {
            self.slot_of.resize(store.len().max(i + 1), NO_SLOT);
        }
        let arc = store.value_arc(id);
        let slot = self.slot_of[i];
        if slot != NO_SLOT && Arc::ptr_eq(&self.pinned[slot as usize].1, arc) {
            return slot;
        }
        let slot = self.pinned.len() as u32;
        self.pinned.push((id, Arc::clone(arc)));
        self.slot_of[i] = slot;
        slot
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> ValueRef<'_> {
        ValueRef(node_val(&self.nodes, &self.pinned, &self.vals, id))
    }

    /// Number of `f32` slots currently in use in the value slab.
    pub fn arena_len(&self) -> usize {
        self.vals.len()
    }

    /// Current value-slab capacity in `f32` slots (stable once warmed
    /// up).
    pub fn arena_capacity(&self) -> usize {
        self.vals.capacity()
    }

    /// The size of the current recording.
    pub fn size(&self) -> TapeSize {
        TapeSize {
            nodes: self.nodes.len(),
            value_floats: self.vals.len(),
            grad_floats: self.grad_len as usize,
        }
    }

    /// Whether any of `ids` reaches a parameter.
    fn reaches(&self, ids: &[NodeId]) -> bool {
        ids.iter().any(|id| self.nodes[id.idx()].grads())
    }

    /// Reserves `len` zeroed slots at the slab tail and records a node
    /// over them, with a gradient span iff it reaches a parameter.
    fn alloc_node(&mut self, op: Op, len: usize, rows: u32, grads: bool) -> NodeId {
        let off = self.vals.len();
        self.vals.resize(off + len, 0.0);
        self.push_node(op, off, rows, grads)
    }

    /// Records a node over the value slots from `off` to the slab tail,
    /// which the caller has just appended.
    fn push_node(&mut self, op: Op, off: usize, rows: u32, grads: bool) -> NodeId {
        let len = (self.vals.len() - off) as u32;
        let id = NodeId(self.nodes.len() as u32);
        let goff = if grads { self.grad_len } else { NO_GRAD };
        self.nodes.push(Node { op, off: off as u32, len, goff, rows });
        if grads {
            self.grad_len += len;
        }
        id
    }

    fn unary(&mut self, op: Op, a: NodeId, f: impl Fn(f32) -> f32) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(op, len, 0, self.reaches(&[a]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, pinned, head, a);
        for (o, &x) in tail.iter_mut().zip(av) {
            *o = f(x);
        }
        id
    }

    fn binary(&mut self, op: Op, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> NodeId {
        let n = self.nodes[a.idx()].len;
        assert_eq!(n, self.nodes[b.idx()].len, "element-wise op shape mismatch");
        let id = self.alloc_node(op, n as usize, 0, self.reaches(&[a, b]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, pinned, head, a);
        let bv = node_val(nodes, pinned, head, b);
        for ((o, &x), &y) in tail.iter_mut().zip(av).zip(bv) {
            *o = f(x, y);
        }
        id
    }

    /// Records a constant input tensor (copying its data into the value
    /// slab; rank-2 shapes stay usable as `matvec` operands).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        let rows = if value.shape().len() == 2 { value.shape()[0] as u32 } else { 0 };
        let off = self.vals.len();
        self.vals.extend_from_slice(value.data());
        self.push_node(Op::Input, off, rows, false)
    }

    /// Convenience: records a constant input vector.
    pub fn input_vec(&mut self, data: Vec<f32>) -> NodeId {
        self.input_slice(&data)
    }

    /// Records a constant input vector by copying a slice (no owned
    /// buffer required).
    pub fn input_slice(&mut self, data: &[f32]) -> NodeId {
        self.input_parts(&[data])
    }

    /// Records a constant input vector, the concatenation of `parts`,
    /// appending each part to the value slab (every value written once).
    pub fn input_parts(&mut self, parts: &[&[f32]]) -> NodeId {
        let off = self.vals.len();
        for p in parts {
            self.vals.extend_from_slice(p);
        }
        self.push_node(Op::Input, off, 0, false)
    }

    /// Records a constant input vector of length `len`, writing the
    /// values in place via `fill` (the span starts zeroed) — feature
    /// assembly straight into the slab, no temporary buffer.
    pub fn input_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> NodeId {
        let off = self.vals.len();
        self.vals.resize(off + len, 0.0);
        fill(&mut self.vals[off..]);
        self.push_node(Op::Input, off, 0, false)
    }

    /// Records a parameter leaf, sharing the store's tensor by refcount
    /// (no weight data is copied; the store's copy-on-write `value_mut`
    /// keeps this node pinned at the recording-time value).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let slot = self.pin(store, id);
        let t = &self.pinned[slot as usize].1;
        let len = t.len() as u32;
        let rows = if t.shape().len() == 2 { t.shape()[0] as u32 } else { 0 };
        let nid = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op: Op::Param(id), off: slot, len, goff: self.grad_len, rows });
        self.grad_len += len;
        nid
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Add(a, b), a, b, |x, y| x + y)
    }

    /// Element-wise subtraction `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Sub(a, b), a, b, |x, y| x - y)
    }

    /// Hadamard (element-wise) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Mul(a, b), a, b, |x, y| x * y)
    }

    /// Multiplication by a constant.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        self.unary(Op::Scale(a, c), a, |x| x * c)
    }

    /// Matrix–vector product. `w` must be rank-2, `x` rank-1.
    pub fn matvec(&mut self, w: NodeId, x: NodeId) -> NodeId {
        let (m, n) = mat_shape(&self.nodes, &self.pinned, w);
        let xlen = self.nodes[x.idx()].len as usize;
        assert_eq!(n, xlen, "matvec: {m}x{n} matrix with vector of len {xlen}");
        let id = self.alloc_node(Op::MatVec { w, x }, m, 0, self.reaches(&[w, x]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        if n > 0 {
            let wv = node_val(nodes, pinned, head, w);
            let xv = node_val(nodes, pinned, head, x);
            matvec_rows(wv, n, xv, tail);
        }
        id
    }

    /// Concatenates vectors in order, appending each part's value to the
    /// slab (every value written once).
    pub fn concat(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero vectors");
        let pstart = self.parts.len();
        self.parts.extend_from_slice(parts);
        let off = self.vals.len();
        for &p in parts {
            let n = self.nodes[p.idx()];
            match n.op {
                Op::Param(_) => self.vals.extend_from_slice(self.pinned[n.off as usize].1.data()),
                _ => self.vals.extend_from_within(n.off as usize..(n.off + n.len) as usize),
            }
        }
        let op = Op::Concat { parts: pstart as u32, n: parts.len() as u32 };
        self.push_node(op, off, 0, self.reaches(parts))
    }

    /// Element-wise sum of same-shaped vectors.
    pub fn sum_vec(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "sum_vec of zero vectors");
        let n = self.nodes[parts[0].idx()].len;
        for &p in parts {
            assert_eq!(self.nodes[p.idx()].len, n, "sum_vec shape mismatch");
        }
        let pstart = self.parts.len();
        self.parts.extend_from_slice(parts);
        let op = Op::SumVec { parts: pstart as u32, n: parts.len() as u32 };
        let id = self.alloc_node(op, n as usize, 0, self.reaches(parts));
        let (nodes, pinned, ids) = (&self.nodes, &self.pinned, &self.parts);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        for &p in &ids[pstart..pstart + parts.len()] {
            let pv = node_val(nodes, pinned, head, p);
            for (o, &v) in tail.iter_mut().zip(pv) {
                *o += v;
            }
        }
        id
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Relu(a), a, |x| x.max(0.0))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        self.unary(Op::LeakyRelu(a, slope), a, move |x| if x > 0.0 { x } else { slope * x })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Tanh(a), a, f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Sigmoid(a), a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Records a scalar node over `a` whose value `f` computes.
    fn reduce(&mut self, op: Op, a: NodeId, f: impl FnOnce(&[f32]) -> f32) -> NodeId {
        let id = self.alloc_node(op, 1, 0, self.reaches(&[a]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        tail[0] = f(node_val(nodes, pinned, head, a));
        id
    }

    /// Dot product producing a scalar node.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(self.nodes[a.idx()].len, self.nodes[b.idx()].len, "dot shape mismatch");
        let id = self.alloc_node(Op::Dot(a, b), 1, 0, self.reaches(&[a, b]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, pinned, head, a);
        let bv = node_val(nodes, pinned, head, b);
        tail[0] = av.iter().zip(bv).map(|(x, y)| x * y).sum();
        id
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_elems(&mut self, a: NodeId) -> NodeId {
        self.reduce(Op::SumElems(a), a, |av| av.iter().sum())
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        self.reduce(Op::Mean(a), a, |av| av.iter().sum::<f32>() / av.len() as f32)
    }

    /// Numerically-stable softmax over a vector.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(Op::Softmax(a), len, 0, self.reaches(&[a]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        kernels::softmax_into(node_val(nodes, pinned, head, a), tail);
        id
    }

    /// Numerically-stable log-softmax over a vector.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(Op::LogSoftmax(a), len, 0, self.reaches(&[a]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        kernels::log_softmax_into(node_val(nodes, pinned, head, a), tail);
        id
    }

    /// Selects element `idx`, producing a scalar node.
    pub fn gather(&mut self, a: NodeId, idx: usize) -> NodeId {
        self.reduce(Op::Gather(a, idx as u32), a, |av| av[idx])
    }

    /// Broadcast-multiplies vector `vec` by scalar node `scalar`.
    pub fn mul_scalar(&mut self, vec: NodeId, scalar: NodeId) -> NodeId {
        assert_eq!(self.nodes[scalar.idx()].len, 1, "mul_scalar needs a scalar node");
        let len = self.nodes[vec.idx()].len as usize;
        let id =
            self.alloc_node(Op::MulScalar { vec, scalar }, len, 0, self.reaches(&[vec, scalar]));
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let s = node_val(nodes, pinned, head, scalar)[0];
        let av = node_val(nodes, pinned, head, vec);
        for (o, &x) in tail.iter_mut().zip(av) {
            *o = x * s;
        }
        id
    }

    /// Borrows a reusable id scratch vector from the graph's pool.
    pub fn take_ids(&mut self) -> Vec<NodeId> {
        self.pool.take()
    }

    /// Returns a vector from [`Graph::take_ids`] to the pool.
    pub fn recycle_ids(&mut self, v: Vec<NodeId>) {
        self.pool.put(v);
    }

    fn push_linear_meta(&mut self, store: &ParamStore, layer: &Linear, act: Activation) -> u32 {
        let idx = self.linears.len() as u32;
        let w = self.pin(store, layer.weight_id());
        let b = self.pin(store, layer.bias_id());
        self.linears.push(LinearMeta {
            w,
            b,
            in_dim: layer.in_dim() as u32,
            out_dim: layer.out_dim() as u32,
            act,
        });
        idx
    }

    /// Records one fused dense layer `act(W x + b)` as a single node.
    /// Forward and backward are bit-identical to the decomposed
    /// `param`/`matvec`/`add`/activation recording.
    pub fn fused_linear(
        &mut self,
        store: &ParamStore,
        layer: &Linear,
        x: NodeId,
        act: Activation,
    ) -> NodeId {
        let (m, n) = (layer.out_dim(), layer.in_dim());
        debug_assert_eq!(self.nodes[x.idx()].len as usize, n, "Linear input dim mismatch");
        let lin = self.push_linear_meta(store, layer, act);
        let id = self.alloc_node(Op::Linear { x, lin }, m, 0, true);
        let (nodes, pinned) = (&self.nodes, &self.pinned);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let xv = node_val(nodes, pinned, head, x);
        let meta = self.linears[lin as usize];
        let (w, b) = (pinned[meta.w as usize].1.data(), pinned[meta.b as usize].1.data());
        fused_linear_row(w, n, xv, b, act, tail);
        id
    }

    /// Shared body of the fused scoring entry points: stacks the input
    /// rows into one row-major matrix and pushes the whole batch through
    /// each MLP layer with one fused GEMM per layer, keeping every
    /// intermediate `X_l` in the value slab for the backward GEMMs.
    fn fused_mlp_rows(&mut self, store: &ParamStore, mlp: &Mlp, inputs: &[NodeId]) -> NodeId {
        let rows = inputs.len();
        let last = mlp.num_layers() - 1;
        let lin_start = self.linears.len();
        for (l, layer) in mlp.layers().iter().enumerate() {
            let act = if l == last { mlp.out_act() } else { mlp.hidden_act() };
            self.push_linear_meta(store, layer, act);
        }
        let parts_start = self.parts.len();
        self.parts.extend_from_slice(inputs);

        let d0 = mlp.in_dim();
        let aux_len = rows * (d0 + mlp.layers()[..last].iter().map(|l| l.out_dim()).sum::<usize>());
        let aux_off = self.vals.len();
        self.vals.resize(aux_off + aux_len, 0.0);

        {
            // Stage 0: gather the candidate rows into X_0.
            let (nodes, pinned) = (&self.nodes, &self.pinned);
            let (head, aux) = self.vals.split_at_mut(aux_off);
            for (i, &p) in inputs.iter().enumerate() {
                let pv = node_val(nodes, pinned, head, p);
                debug_assert_eq!(pv.len(), d0, "mlp_scores input dim mismatch");
                aux[i * d0..(i + 1) * d0].copy_from_slice(pv);
            }
        }

        // Hidden layers: X_{l+1} (rows × d_{l+1}) = act(X_l Wᵀ + b), one
        // fused GEMM per layer, all inside the aux region.
        let mut x_off = aux_off;
        {
            let (linears, pinned, vals) = (&self.linears, &self.pinned, &mut self.vals);
            for l in 0..last {
                let meta = &linears[lin_start + l];
                let (w, b) = (pinned[meta.w as usize].1.data(), pinned[meta.b as usize].1.data());
                let (din, dout) = (meta.in_dim as usize, meta.out_dim as usize);
                let y_off = x_off + rows * din;
                let (head, y) = vals.split_at_mut(y_off);
                let x = &head[x_off..x_off + rows * din];
                // Rows by count: with `din == 0` every input row is empty.
                for r in 0..rows {
                    let (xr, yr) = (&x[r * din..(r + 1) * din], &mut y[r * dout..(r + 1) * dout]);
                    fused_linear_row(w, din, xr, b, meta.act, yr);
                }
                x_off = y_off;
            }
        }

        // Final layer writes the node's own value span.
        let meta_idx = self.mlps.len() as u32;
        let dlast_out = self.linears[lin_start + last].out_dim as usize;
        let id = self.alloc_node(Op::MlpScores { meta: meta_idx }, rows * dlast_out, 0, true);
        {
            let (nodes, linears, pinned) = (&self.nodes, &self.linears, &self.pinned);
            let meta = &linears[lin_start + last];
            let (w, b) = (pinned[meta.w as usize].1.data(), pinned[meta.b as usize].1.data());
            let din = meta.in_dim as usize;
            let off = nodes[id.idx()].off as usize;
            let (head, tail) = self.vals.split_at_mut(off);
            let x = &head[x_off..x_off + rows * din];
            for r in 0..rows {
                let xr = &x[r * din..(r + 1) * din];
                let yr = &mut tail[r * dlast_out..(r + 1) * dlast_out];
                fused_linear_row(w, din, xr, b, meta.act, yr);
            }
        }
        self.mlps.push(MlpMeta {
            rows: rows as u32,
            lin_start: lin_start as u32,
            lin_len: mlp.num_layers() as u32,
            parts_start: parts_start as u32,
            aux_off: aux_off as u32,
        });
        id
    }

    /// Records fused batched candidate scoring: all candidate feature
    /// vectors through the scalar-output head, one GEMM per layer,
    /// returning the score-vector node. Gradients are bit-identical to
    /// the decomposed per-candidate recording.
    pub fn fused_mlp_scores(&mut self, store: &ParamStore, mlp: &Mlp, inputs: &[NodeId]) -> NodeId {
        assert_eq!(mlp.out_dim(), 1, "mlp_scores needs a scalar-output head");
        assert!(!inputs.is_empty(), "mlp_scores on an empty candidate batch");
        self.fused_mlp_rows(store, mlp, inputs)
    }

    /// Records cross-event batched scoring: every segment's candidate
    /// rows run through one fused GEMM per layer, and the final score
    /// column is split into one slice view per segment.
    pub fn fused_mlp_scores_batched(
        &mut self,
        store: &ParamStore,
        mlp: &Mlp,
        inputs: &[NodeId],
        seg_lens: &[usize],
        out: &mut Vec<NodeId>,
    ) {
        assert_eq!(mlp.out_dim(), 1, "mlp_scores needs a scalar-output head");
        assert_eq!(
            seg_lens.iter().sum::<usize>(),
            inputs.len(),
            "segment lengths must cover the flat input list"
        );
        out.clear();
        if inputs.is_empty() {
            return;
        }
        for &l in seg_lens {
            assert!(l > 0, "mlp_scores_batched on an empty segment");
        }
        let scores = self.fused_mlp_rows(store, mlp, inputs);
        let mut off = 0u32;
        for &len in seg_lens {
            out.push(self.slice(scores, off, len as u32));
            off += len as u32;
        }
    }

    /// Records a view of `len` elements of `src` starting at `off`. The
    /// value aliases `src`'s span; the gradient span is separate and is
    /// added back into `src` on the backward sweep.
    fn slice(&mut self, src: NodeId, off: u32, len: u32) -> NodeId {
        let s = self.nodes[src.idx()];
        debug_assert!(!matches!(s.op, Op::Param(_)), "slice of a parameter node");
        debug_assert!(off + len <= s.len);
        let id = NodeId(self.nodes.len() as u32);
        let goff = if s.grads() { self.grad_len } else { NO_GRAD };
        self.nodes.push(Node { op: Op::Slice { src }, off: s.off + off, len, goff, rows: 0 });
        if s.grads() {
            self.grad_len += len;
        }
        id
    }

    /// Records one whole tree-convolution filter application of `layer`
    /// (inputs in [`crate::Backend::conv_filter`] order) as a single
    /// node. The forward is the inference path's kernel,
    /// [`TreeConvLayer::filter_into`], with its products and attention
    /// scores kept in the value slab; the backward replays the reverse
    /// sweep of the decomposed recording
    /// (`TreeConvLayer::filter_ops_on`) in its exact order — the
    /// activation, the bias flush, the attention combine (or the plain
    /// sum), then the five products, latest first — on local gradient
    /// spans, so the store gradients are bit-identical while about nine
    /// nodes and their gradient spans collapse into one.
    pub fn fused_conv_filter(
        &mut self,
        store: &ParamStore,
        layer: &TreeConvLayer,
        x: [NodeId; 5],
    ) -> NodeId {
        let cfg = layer.config();
        let w = layer.weights().map(|id| self.pin(store, id));
        let bias = layer.bias_id().map(|id| self.pin(store, id));
        let att = layer.attention_id().map(|id| self.pin(store, id));
        let parts_start = self.parts.len();
        self.parts.extend_from_slice(&x);

        // Aux region: the five products, then (with attention) the five
        // raw scores and the five softmax weights.
        let d = cfg.out_dim;
        let aux_len = 5 * d + if att.is_some() { 10 } else { 0 };
        let aux_off = self.vals.len();
        self.vals.resize(aux_off + aux_len, 0.0);
        let meta = self.filters.len() as u32;
        let id = self.alloc_node(Op::ConvFilter { meta }, d, 0, true);
        {
            let (nodes, pinned) = (&self.nodes, &self.pinned);
            let (head, tail) = self.vals.split_at_mut(aux_off);
            let (aux, out) = tail.split_at_mut(aux_len);
            let (prod, sz) = aux.split_at_mut(5 * d);
            let xs = x.map(|i| node_val(nodes, pinned, head, i));
            let (s, z) = layer.filter_into(store, xs, prod, out);
            if att.is_some() {
                sz[..5].copy_from_slice(&s);
                sz[5..].copy_from_slice(&z);
            }
        }
        self.filters.push(FilterMeta {
            parts_start: parts_start as u32,
            w,
            bias,
            att,
            mode: cfg.mode,
            act: cfg.activation,
            aux_off: aux_off as u32,
        });
        id
    }

    /// Runs the backward pass from scalar node `loss`, accumulating
    /// parameter gradients into `store` (frozen parameters are skipped).
    /// Reuses the graph's gradient slab and scratch buffers — in steady
    /// state a backward pass performs zero heap allocations. A loss that
    /// reaches no parameter leaves the store untouched.
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        let root = self.nodes[loss.idx()];
        assert_eq!(root.len, 1, "backward() requires a scalar loss node");
        if !root.grads() {
            return;
        }
        self.grads.clear();
        self.grads.resize(self.grad_len as usize, 0.0);
        self.reached.clear();
        self.reached.resize(self.nodes.len(), false);
        self.grads[root.goff as usize] = 1.0;
        self.reached[loss.idx()] = true;

        let Graph {
            nodes,
            vals,
            grads,
            reached,
            parts,
            pinned,
            linears,
            mlps,
            filters,
            bwd_a,
            bwd_b,
            ..
        } = self;
        let nodes: &[Node] = nodes;
        let vals: &[f32] = vals;
        let pinned: &[Pinned] = pinned;
        let reached: &mut [bool] = reached;

        for i in (0..nodes.len()).rev() {
            if !reached[i] {
                continue;
            }
            let node = nodes[i];
            let (gops, gtail) = grads.split_at_mut(node.goff as usize);
            let g: &[f32] = &gtail[..node.len as usize];
            match node.op {
                // Never reached: a constant has no gradient span.
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(pid, g),
                Op::Add(a, b) => {
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for (o, &v) in span.iter_mut().zip(g) {
                            *o += v;
                        }
                    }
                    if let Some(span) = dep(nodes, reached, gops, b) {
                        for (o, &v) in span.iter_mut().zip(g) {
                            *o += v;
                        }
                    }
                }
                Op::Sub(a, b) => {
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for (o, &v) in span.iter_mut().zip(g) {
                            *o += v;
                        }
                    }
                    if let Some(span) = dep(nodes, reached, gops, b) {
                        for (o, &v) in span.iter_mut().zip(g) {
                            *o += -v;
                        }
                    }
                }
                Op::Mul(a, b) => {
                    let av = node_val(nodes, pinned, vals, a);
                    let bv = node_val(nodes, pinned, vals, b);
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for ((o, &gi), &bi) in span.iter_mut().zip(g).zip(bv) {
                            *o += gi * bi;
                        }
                    }
                    if let Some(span) = dep(nodes, reached, gops, b) {
                        for ((o, &gi), &ai) in span.iter_mut().zip(g).zip(av) {
                            *o += gi * ai;
                        }
                    }
                }
                Op::Scale(a, c) => {
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for (o, &gi) in span.iter_mut().zip(g) {
                            *o += gi * c;
                        }
                    }
                }
                Op::MatVec { w, x } => {
                    let (_m, n) = mat_shape(nodes, pinned, w);
                    // dW = g ⊗ x straight into w's gradient span (one
                    // product per element — the same arithmetic as the
                    // decomposed scratch-then-flush).
                    if let Some(span) = dep(nodes, reached, gops, w) {
                        outer_acc(g, node_val(nodes, pinned, vals, x), span);
                    }
                    let wv = node_val(nodes, pinned, vals, w);
                    matvec_t_dep(nodes, parts, reached, gops, wv, n, g, x, bwd_a);
                }
                Op::Concat { parts: pstart, n } => {
                    let mut off = 0;
                    for &p in &parts[pstart as usize..(pstart + n) as usize] {
                        if let Some(span) = dep(nodes, reached, gops, p) {
                            for (o, &v) in span.iter_mut().zip(&g[off..]) {
                                *o += v;
                            }
                        }
                        off += nodes[p.idx()].len as usize;
                    }
                }
                Op::SumVec { parts: pstart, n } => {
                    for &p in &parts[pstart as usize..(pstart + n) as usize] {
                        if let Some(span) = dep(nodes, reached, gops, p) {
                            for (o, &v) in span.iter_mut().zip(g) {
                                *o += v;
                            }
                        }
                    }
                }
                Op::Relu(a) => {
                    let av = node_val(nodes, pinned, vals, a);
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for ((o, &gi), &ai) in span.iter_mut().zip(g).zip(av) {
                            *o += if ai > 0.0 { gi } else { 0.0 };
                        }
                    }
                }
                Op::LeakyRelu(a, slope) => {
                    let av = node_val(nodes, pinned, vals, a);
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for ((o, &gi), &ai) in span.iter_mut().zip(g).zip(av) {
                            *o += if ai > 0.0 { gi } else { gi * slope };
                        }
                    }
                }
                Op::Tanh(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for ((o, &gi), &yi) in span.iter_mut().zip(g).zip(yv) {
                            *o += gi * (1.0 - yi * yi);
                        }
                    }
                }
                Op::Sigmoid(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for ((o, &gi), &yi) in span.iter_mut().zip(g).zip(yv) {
                            *o += gi * yi * (1.0 - yi);
                        }
                    }
                }
                Op::Dot(a, b) => {
                    let g0 = g[0];
                    let av = node_val(nodes, pinned, vals, a);
                    let bv = node_val(nodes, pinned, vals, b);
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for (o, &bi) in span.iter_mut().zip(bv) {
                            *o += g0 * bi;
                        }
                    }
                    if let Some(span) = dep(nodes, reached, gops, b) {
                        for (o, &ai) in span.iter_mut().zip(av) {
                            *o += g0 * ai;
                        }
                    }
                }
                Op::SumElems(a) => {
                    let g0 = g[0];
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for o in span.iter_mut() {
                            *o += g0;
                        }
                    }
                }
                Op::Mean(a) => {
                    let ga = g[0] / nodes[a.idx()].len as f32;
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        for o in span.iter_mut() {
                            *o += ga;
                        }
                    }
                }
                Op::Softmax(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        kernels::softmax_grad_acc(yv, g, span);
                    }
                }
                Op::LogSoftmax(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        kernels::log_softmax_grad_acc(yv, g, span);
                    }
                }
                Op::Gather(a, idx) => {
                    if let Some(span) = dep(nodes, reached, gops, a) {
                        span[idx as usize] += g[0];
                    }
                }
                Op::MulScalar { vec, scalar } => {
                    let s = node_val(nodes, pinned, vals, scalar)[0];
                    if let Some(span) = dep(nodes, reached, gops, vec) {
                        for (o, &gi) in span.iter_mut().zip(g) {
                            *o += gi * s;
                        }
                    }
                    if let Some(span) = dep(nodes, reached, gops, scalar) {
                        let vv = node_val(nodes, pinned, vals, vec);
                        span[0] += g.iter().zip(vv).map(|(gi, vi)| gi * vi).sum::<f32>();
                    }
                }
                Op::Slice { src } => {
                    let rel = (node.off - nodes[src.idx()].off) as usize;
                    if let Some(span) = dep(nodes, reached, gops, src) {
                        for (o, &v) in span[rel..rel + node.len as usize].iter_mut().zip(g) {
                            *o += v;
                        }
                    }
                }
                Op::Linear { x, lin } => {
                    let lm = linears[lin as usize];
                    let (m, n) = (lm.out_dim as usize, lm.in_dim as usize);
                    let (wid, w) = &pinned[lm.w as usize];
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    // gh = act'(y) ⊙ g, once per layer.
                    bwd_a.clear();
                    bwd_a.resize(m, 0.0);
                    kernels::act_backward_row(lm.act, yv, g, bwd_a);
                    // Flush db then dW: the decomposed recording pushes
                    // the bias param node after the weight node, so the
                    // reverse sweep flushes the bias first.
                    store.accumulate_grad(pinned[lm.b as usize].0, bwd_a);
                    if let Some(acc) = store.grad_acc_mut(*wid) {
                        outer_acc(bwd_a, node_val(nodes, pinned, vals, x), acc);
                    }
                    // dx = Wᵀ gh via the whole-matrix kernel.
                    matvec_t_dep(nodes, parts, reached, gops, w.data(), n, bwd_a, x, bwd_b);
                }
                Op::MlpScores { meta } => {
                    let mm = mlps[meta as usize];
                    let rows = mm.rows as usize;
                    let lin0 = mm.lin_start as usize;
                    let nlayers = mm.lin_len as usize;
                    // X_l offsets inside the aux region.
                    let x_off = |l: usize| -> usize {
                        let mut off = mm.aux_off as usize;
                        for k in 0..l {
                            off += rows * linears[lin0 + k].in_dim as usize;
                        }
                        off
                    };
                    // G_cur starts as the node's own gradient.
                    bwd_a.clear();
                    bwd_a.extend_from_slice(g);
                    for l in (0..nlayers).rev() {
                        let lm = linears[lin0 + l];
                        let (din, dout) = (lm.in_dim as usize, lm.out_dim as usize);
                        let (wid, w) = &pinned[lm.w as usize];
                        let y = if l == nlayers - 1 {
                            &vals[node.off as usize..(node.off + node.len) as usize]
                        } else {
                            let yo = x_off(l + 1);
                            &vals[yo..yo + rows * dout]
                        };
                        // gh_r = act'(y_r) ⊙ g_r, in place over G_cur.
                        for (gr, yr) in bwd_a.chunks_exact_mut(dout).zip(y.chunks_exact(dout)) {
                            act_backward_in_place(lm.act, yr, gr);
                        }
                        // Per-layer gradient GEMMs over all rows; rows
                        // run in reverse so each store accumulator sees
                        // the exact flush order of the decomposed
                        // reverse sweep (later candidates flush first).
                        let xo = x_off(l);
                        let xs = &vals[xo..xo + rows * din];
                        for r in (0..rows).rev() {
                            let bid = pinned[lm.b as usize].0;
                            store.accumulate_grad(bid, &bwd_a[r * dout..(r + 1) * dout]);
                        }
                        if let Some(acc) = store.grad_acc_mut(*wid) {
                            for r in (0..rows).rev() {
                                outer_acc(
                                    &bwd_a[r * dout..(r + 1) * dout],
                                    &xs[r * din..(r + 1) * din],
                                    acc,
                                );
                            }
                        }
                        if l == 0 {
                            // G_0 = Wᵀ gh per row, straight into each
                            // input row's span in reverse row order
                            // (matching the reverse sweep), for only the
                            // columns that reach a parameter.
                            for r in (0..rows).rev() {
                                let p = parts[mm.parts_start as usize + r];
                                let gh = &bwd_a[r * dout..(r + 1) * dout];
                                matvec_t_dep(nodes, parts, reached, gops, w.data(), din, gh, p, bwd_b);
                            }
                            break;
                        }
                        // G_prev = Wᵀ gh per row, each row from zeroed
                        // scratch like the per-candidate matvec_t.
                        bwd_b.clear();
                        bwd_b.resize(rows * din, 0.0);
                        for r in 0..rows {
                            matvec_t_rows(
                                w.data(),
                                din,
                                &bwd_a[r * dout..(r + 1) * dout],
                                &mut bwd_b[r * din..(r + 1) * din],
                            );
                        }
                        std::mem::swap(bwd_a, bwd_b);
                    }
                }
                Op::ConvFilter { meta } => {
                    let fm = filters[meta as usize];
                    let d = node.len as usize;
                    let aux = fm.aux_off as usize;
                    let prod = &vals[aux..aux + 5 * d];
                    let y = &vals[node.off as usize..(node.off + node.len) as usize];
                    // Local gradient spans of the decomposed filter's
                    // inner nodes: the five products (input order), the
                    // pre-activation sum, and the bias leaf.
                    bwd_a.clear();
                    bwd_a.resize(7 * d, 0.0);
                    let (tg, rest) = bwd_a.split_at_mut(5 * d);
                    let (hg, bg) = rest.split_at_mut(d);
                    // The activation node (none for `None`), written as
                    // the `Linear` arm does: the decomposed span's `+0.0 +`
                    // can only turn a −0.0 into +0.0, and every use of
                    // `hg` below lands, scaled, in zero-started sums.
                    kernels::act_backward_row(fm.act, y, g, hg);
                    // The bias `add` deposits `h` into the combine and
                    // into the bias leaf (the same values), which then
                    // flushes to the store.
                    let cg: &[f32] = match fm.bias {
                        Some(slot) => {
                            for (o, &v) in bg.iter_mut().zip(hg.iter()) {
                                *o += v;
                            }
                            store.accumulate_grad(pinned[slot as usize].0, bg);
                            bg
                        }
                        None => hg,
                    };
                    match fm.att {
                        Some(slot) => {
                            let (aid, a) = &pinned[slot as usize];
                            let sz = &vals[aux + 5 * d..aux + 5 * d + 10];
                            let terms = COMBINE_ORDER.map(|k| &prod[k * d..(k + 1) * d]);
                            let replay = GatReplay {
                                a: a.data(),
                                aid: *aid,
                                s: &sz[..5],
                                z: &sz[5..],
                                terms: &terms,
                            };
                            replay.backward(cg, store, tg);
                        }
                        None => {
                            for k in COMBINE_ORDER {
                                for (o, &v) in tg[k * d..(k + 1) * d].iter_mut().zip(cg) {
                                    *o += v;
                                }
                            }
                        }
                    }
                    // The five products, latest recorded first.
                    let xs = &parts[fm.parts_start as usize..fm.parts_start as usize + 5];
                    for k in (0..5).rev() {
                        let (wid, w) = &pinned[fm.w[k] as usize];
                        let t = &tg[k * d..(k + 1) * d];
                        let xv = node_val(nodes, pinned, vals, xs[k]);
                        match fm.mode {
                            FilterMode::Dense => {
                                if let Some(acc) = store.grad_acc_mut(*wid) {
                                    outer_acc(t, xv, acc);
                                }
                                let n = xv.len();
                                matvec_t_dep(nodes, parts, reached, gops, w.data(), n, t, xs[k], bwd_b);
                            }
                            FilterMode::Diagonal => {
                                // `mul(w, x)` deposits into the weight
                                // leaf's span, then into `x`'s; the leaf
                                // then flushes to the store.
                                bwd_b.clear();
                                bwd_b.resize(d, 0.0);
                                for ((o, &gi), &xi) in bwd_b.iter_mut().zip(t).zip(xv) {
                                    *o += gi * xi;
                                }
                                if let Some(span) = dep(nodes, reached, gops, xs[k]) {
                                    for ((o, &gi), &wi) in span.iter_mut().zip(t).zip(w.data()) {
                                        *o += gi * wi;
                                    }
                                }
                                store.accumulate_grad(*wid, bwd_b);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// In-place activation backward over one row (`g := act'(y) ⊙ g`), with
/// the same branch outcomes as [`kernels::act_backward_row`].
#[inline]
fn act_backward_in_place(act: Activation, y: &[f32], g: &mut [f32]) {
    match act {
        Activation::None => {}
        Activation::Relu => {
            for (gi, &yi) in g.iter_mut().zip(y) {
                *gi = if yi > 0.0 { *gi } else { 0.0 };
            }
        }
        Activation::LeakyRelu => {
            for (gi, &yi) in g.iter_mut().zip(y) {
                *gi = if yi > 0.0 { *gi } else { *gi * 0.01 };
            }
        }
        Activation::Tanh => {
            for (gi, &yi) in g.iter_mut().zip(y) {
                *gi *= 1.0 - yi * yi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, TapeBackend};
    use crate::tape_ref::{RefNodeId, RefTape, RefTapeBackend};
    use crate::tree_conv::{TreeConvConfig, TreeSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Values no plain random draw produces, each with its own rounding
    /// or propagation rule.
    const SPECIALS: [f32; 8] =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE / 4.0];

    /// Replaces each element of `v` by a random [`SPECIALS`] value with
    /// probability `p`.
    fn sprinkle(rng: &mut StdRng, v: &mut [f32], p: f64) {
        for x in v {
            if rng.gen_range(0.0f64..1.0) < p {
                *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
            }
        }
    }

    fn coin(rng: &mut StdRng, p: f64) -> bool {
        rng.gen_range(0.0f64..1.0) < p
    }

    fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    /// The bits of `v`, every NaN as one value: Rust leaves the sign and
    /// payload of a NaN result unspecified.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
    }

    /// Every gradient in `ps` equals the same-named one in `ps_ref`, bit
    /// for bit (every NaN as one value).
    fn assert_grads_bitwise(ps: &ParamStore, ps_ref: &ParamStore, ctx: &str) {
        for (id, name) in ps.iter_ids() {
            let rid = ps_ref.id(name).unwrap();
            assert_eq!(bits(ps.grad(id)), bits(ps_ref.grad(rid)), "{ctx}: grad mismatch for {name}");
        }
    }

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut ps = ParamStore::new();
        let id = ps.register(name, t);
        (ps, id)
    }

    #[test]
    fn forward_add_mul() {
        let mut g = Graph::new();
        let a = g.input_vec(vec![1.0, 2.0]);
        let b = g.input_vec(vec![3.0, 4.0]);
        let c = g.add(a, b);
        let d = g.mul(c, b);
        assert_eq!(g.value(d).data(), &[12.0, 24.0]);
    }

    #[test]
    fn backward_linear_chain() {
        // loss = sum((w ⊙ x)) with w=[2,3], x=[4,5]; dloss/dw = x
        let (mut ps, wid) = store_with("w", Tensor::vector(vec![2.0, 3.0]));
        let mut g = Graph::new();
        let w = g.param(&ps, wid);
        let x = g.input_vec(vec![4.0, 5.0]);
        let y = g.mul(w, x);
        let loss = g.sum_elems(y);
        assert_eq!(g.value(loss).item(), 23.0);
        g.backward(loss, &mut ps);
        assert_eq!(ps.grad(wid), &[4.0, 5.0]);
    }

    #[test]
    fn backward_matvec() {
        // y = W x, loss = sum(y); dW = 1 ⊗ x, dx = Wᵀ·1
        let (mut ps, wid) = store_with("w", Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let mut g = Graph::new();
        let w = g.param(&ps, wid);
        let x = g.input_vec(vec![1.0, 0.0, -1.0]);
        let y = g.matvec(w, x);
        assert_eq!(g.value(y).data(), &[-2.0, -2.0]);
        let loss = g.sum_elems(y);
        g.backward(loss, &mut ps);
        assert_eq!(ps.grad(wid), &[1., 0., -1., 1., 0., -1.]);
    }

    #[test]
    fn matvec_on_recorded_matrix_input() {
        // Non-parameter rank-2 operands keep working: the arena records
        // the row count alongside the flattened values.
        let mut g = Graph::new();
        let w = g.input(Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let x = g.input_vec(vec![1.0, 1.0]);
        let y = g.matvec(w, x);
        assert_eq!(g.value(y).data(), &[3.0, 7.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut g = Graph::new();
        let x = g.input_vec(vec![1.0, 2.0, 3.0]);
        let s = g.softmax(x);
        let total: f32 = g.value(s).data().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut g = Graph::new();
        let x = g.input_vec(vec![0.5, -1.0, 2.0]);
        let s = g.softmax(x);
        let ls = g.log_softmax(x);
        for (a, b) in g.value(s).data().iter().zip(g.value(ls).data()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_picks_element() {
        let mut g = Graph::new();
        let x = g.input_vec(vec![10.0, 20.0, 30.0]);
        let y = g.gather(x, 2);
        assert_eq!(g.value(y).item(), 30.0);
    }

    #[test]
    fn reused_node_accumulates_grad() {
        // loss = sum(w) + sum(w) => dw = 2
        let (mut ps, wid) = store_with("w", Tensor::vector(vec![1.0, 1.0]));
        let mut g = Graph::new();
        let w = g.param(&ps, wid);
        let s1 = g.sum_elems(w);
        let s2 = g.sum_elems(w);
        let loss = g.add(s1, s2);
        g.backward(loss, &mut ps);
        assert_eq!(ps.grad(wid), &[2.0, 2.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let (mut ps, wid) = store_with("w", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new();
        let w = g.param(&ps, wid);
        let x = g.input_vec(vec![5.0]);
        let c = g.concat(&[x, w]);
        let picked = g.gather(c, 2); // w[1]
        g.backward(picked, &mut ps);
        assert_eq!(ps.grad(wid), &[0.0, 1.0]);
    }

    /// Finite-difference check over a composite graph touching most ops.
    #[test]
    fn finite_difference_composite() {
        let build = |ps: &ParamStore, wid: ParamId, bid: ParamId| -> f32 {
            let mut g = Graph::new();
            let w = g.param(ps, wid);
            let b = g.param(ps, bid);
            let x = g.input_vec(vec![0.3, -0.7, 1.1]);
            let h = g.matvec(w, x);
            let h = g.add(h, b);
            let h = g.leaky_relu(h, 0.1);
            let t = g.tanh(h);
            let s = g.sigmoid(h);
            let m = g.mul(t, s);
            let sm = g.log_softmax(m);
            let picked = g.gather(sm, 1);
            let mn = g.mean(h);
            let loss = g.add(picked, mn);
            g.value(loss).item()
        };

        let mut ps = ParamStore::new();
        let wid = ps.register(
            "w",
            Tensor::matrix(3, 3, vec![0.2, -0.4, 0.6, 0.1, 0.3, -0.2, -0.5, 0.7, 0.05]),
        );
        let bid = ps.register("b", Tensor::vector(vec![0.01, -0.02, 0.03]));

        // Analytic gradients.
        {
            let mut g = Graph::new();
            let w = g.param(&ps, wid);
            let b = g.param(&ps, bid);
            let x = g.input_vec(vec![0.3, -0.7, 1.1]);
            let h = g.matvec(w, x);
            let h = g.add(h, b);
            let h = g.leaky_relu(h, 0.1);
            let t = g.tanh(h);
            let s = g.sigmoid(h);
            let m = g.mul(t, s);
            let sm = g.log_softmax(m);
            let picked = g.gather(sm, 1);
            let mn = g.mean(h);
            let loss = g.add(picked, mn);
            g.backward(loss, &mut ps);
        }

        let eps = 1e-3f32;
        for (pid, n) in [(wid, 9usize), (bid, 3usize)] {
            let analytic = ps.grad(pid).to_vec();
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                let orig = ps.value(pid).data()[i];
                ps.value_mut(pid).data_mut()[i] = orig + eps;
                let up = build(&ps, wid, bid);
                ps.value_mut(pid).data_mut()[i] = orig - eps;
                let down = build(&ps, wid, bid);
                ps.value_mut(pid).data_mut()[i] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic[i]).abs() < 2e-2,
                    "param {pid:?}[{i}]: numeric {numeric} vs analytic {}",
                    analytic[i]
                );
            }
        }
    }

    #[test]
    fn param_nodes_share_storage_until_store_mutation() {
        let (mut ps, wid) = store_with("w", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new();
        let w = g.param(&ps, wid);
        // Recording shares the tensor: same allocation, no copy.
        assert!(std::ptr::eq(g.value(w).data().as_ptr(), ps.value(wid).data().as_ptr()));
        // A store mutation detaches (copy-on-write); the tape keeps
        // observing the recording-time value, exactly as when it cloned.
        ps.value_mut(wid).data_mut()[0] = 42.0;
        assert_eq!(g.value(w).data(), &[1.0, 2.0]);
        assert_eq!(ps.value(wid).data(), &[42.0, 2.0]);
        // Gradients still flow into the store.
        let loss = g.sum_elems(w);
        g.backward(loss, &mut ps);
        assert_eq!(ps.grad(wid), &[1.0, 1.0]);
    }

    #[test]
    fn reset_clears_tape_and_reuses_allocation() {
        let mut g = Graph::new();
        for _ in 0..64 {
            let a = g.input_vec(vec![1.0, 2.0]);
            let b = g.input_vec(vec![3.0, 4.0]);
            let _ = g.add(a, b);
        }
        assert_eq!(g.len(), 192);
        g.reset();
        assert!(g.is_empty());
        // The tape works identically after a reset, and NodeIds restart.
        let a = g.input_vec(vec![1.0, 2.0]);
        let b = g.input_vec(vec![3.0, 4.0]);
        let s = g.add(a, b);
        assert_eq!(g.len(), 3);
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
    }

    #[test]
    fn steady_state_record_backward_reuses_capacity() {
        let (mut ps, wid) = store_with("w", Tensor::matrix(4, 3, vec![0.25; 12]));
        let mut g = Graph::new();
        let mut caps = (0, 0);
        for i in 0..5 {
            ps.zero_grads();
            g.reset();
            let w = g.param(&ps, wid);
            let x = g.input_vec(vec![1.0, 2.0, 3.0]);
            let y = g.matvec(w, x);
            let s = g.softmax(y);
            let l = g.sum_elems(s);
            g.backward(l, &mut ps);
            if i == 0 {
                caps = (g.arena_capacity(), g.grads.capacity());
            } else {
                assert_eq!(g.arena_capacity(), caps.0, "value slab must not grow after warm-up");
                assert_eq!(g.grads.capacity(), caps.1, "grad slab must not grow after warm-up");
            }
        }
    }

    #[test]
    fn release_params_lets_the_store_update_in_place() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(&mut ps, &mut rng, "l", 3, 2);
        let mut g = Graph::new();
        let loss = {
            let mut tb = TapeBackend::new(&mut g, &ps);
            let x = tb.input(&[0.1, 0.2, 0.3]);
            let y = tb.linear(&layer, x, Activation::Relu);
            tb.sum_elems(y)
        };
        g.backward(loss, &mut ps);
        // With the tape still pinning the weights, a store write must
        // copy (copy-on-write) ...
        let before = ps.value(layer.weight_id()).data().as_ptr();
        ps.value_mut(layer.weight_id()).data_mut()[0] += 1.0;
        assert_ne!(before, ps.value(layer.weight_id()).data().as_ptr());
        // ... and after release_params the store owns the tensor alone
        // and updates in place.
        g.release_params();
        let before = ps.value(layer.weight_id()).data().as_ptr();
        ps.value_mut(layer.weight_id()).data_mut()[0] += 1.0;
        assert_eq!(before, ps.value(layer.weight_id()).data().as_ptr());
    }

    #[test]
    fn fused_linear_grads_match_reference_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Linear::new(&mut ps, &mut rng, "l", 5, 3);
        let x = [0.3f32, -0.7, 1.1, 0.0, -2.2];

        let mut ps_ref = ParamStore::from_json(&ps.to_json()).unwrap();
        let mut rt = RefTape::new();
        let loss = {
            let mut b = RefTapeBackend::new(&mut rt, &ps_ref);
            let xi = b.input(&x);
            let y = b.linear(&layer, xi, Activation::LeakyRelu);
            let sm = b.log_softmax(y);
            b.sum_elems(sm)
        };
        rt.backward(loss, &mut ps_ref);

        let mut g = Graph::new();
        let loss = {
            let mut b = TapeBackend::new(&mut g, &ps);
            let xi = b.input(&x);
            let y = b.linear(&layer, xi, Activation::LeakyRelu);
            let sm = b.log_softmax(y);
            b.sum_elems(sm)
        };
        g.backward(loss, &mut ps);

        for (id, name) in ps.iter_ids().map(|(i, n)| (i, n.to_string())).collect::<Vec<_>>() {
            let rid = ps_ref.id(&name).unwrap();
            assert_eq!(ps.grad(id), ps_ref.grad(rid), "grad mismatch for {name}");
        }
    }

    #[test]
    fn fused_mlp_scores_grads_match_reference_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let head =
            Mlp::new(&mut ps, &mut rng, "h", &[4, 6, 1], Activation::LeakyRelu, Activation::None);
        let cands: Vec<Vec<f32>> =
            (0..7).map(|i| (0..4).map(|j| ((i * 4 + j) as f32).sin()).collect()).collect();

        let mut ps_ref = ParamStore::from_json(&ps.to_json()).unwrap();
        let mut rt = RefTape::new();
        let (ref_scores, loss) = {
            let mut b = RefTapeBackend::new(&mut rt, &ps_ref);
            let ids: Vec<_> = cands.iter().map(|c| b.input(c)).collect();
            let s = b.mlp_scores(&head, &ids);
            let sm = b.log_softmax(s);
            (s, b.gather(sm, 3))
        };
        let ref_scores = rt.value(ref_scores).data().to_vec();
        rt.backward(loss, &mut ps_ref);

        let mut g = Graph::new();
        let (scores, loss) = {
            let mut b = TapeBackend::new(&mut g, &ps);
            let ids: Vec<_> = cands.iter().map(|c| b.input(c)).collect();
            let s = b.mlp_scores(&head, &ids);
            let sm = b.log_softmax(s);
            (s, b.gather(sm, 3))
        };
        // Forward scores must match the decomposed recording bitwise.
        assert_eq!(g.value(scores).data(), &ref_scores[..]);
        g.backward(loss, &mut ps);

        for (id, name) in ps.iter_ids().map(|(i, n)| (i, n.to_string())).collect::<Vec<_>>() {
            let rid = ps_ref.id(&name).unwrap();
            assert_eq!(ps.grad(id), ps_ref.grad(rid), "grad mismatch for {name}");
        }
    }

    #[test]
    fn fused_batched_segments_grads_match_reference_bitwise() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let head =
            Mlp::new(&mut ps, &mut rng, "h", &[3, 5, 1], Activation::LeakyRelu, Activation::None);
        let seg_lens = [3usize, 1, 4, 2];
        let total: usize = seg_lens.iter().sum();
        let cands: Vec<Vec<f32>> =
            (0..total).map(|i| (0..3).map(|j| ((i * 3 + j) as f32).cos()).collect()).collect();

        let mut ps_ref = ParamStore::from_json(&ps.to_json()).unwrap();
        let mut rt = RefTape::new();
        let loss = {
            let mut b = RefTapeBackend::new(&mut rt, &ps_ref);
            let ids: Vec<_> = cands.iter().map(|c| b.input(c)).collect();
            let mut segs = Vec::new();
            b.mlp_scores_batched(&head, &ids, &seg_lens, &mut segs);
            let terms: Vec<_> = segs
                .iter()
                .map(|&s| {
                    let sm = b.log_softmax(s);
                    b.gather(sm, 0)
                })
                .collect();
            let c = b.concat(&terms);
            b.sum_elems(c)
        };
        rt.backward(loss, &mut ps_ref);

        let mut g = Graph::new();
        let loss = {
            let mut b = TapeBackend::new(&mut g, &ps);
            let ids: Vec<_> = cands.iter().map(|c| b.input(c)).collect();
            let mut segs = Vec::new();
            b.mlp_scores_batched(&head, &ids, &seg_lens, &mut segs);
            let terms: Vec<_> = segs
                .iter()
                .map(|&s| {
                    let sm = b.log_softmax(s);
                    b.gather(sm, 0)
                })
                .collect();
            let c = b.concat(&terms);
            b.sum_elems(c)
        };
        g.backward(loss, &mut ps);

        for (id, name) in ps.iter_ids().map(|(i, n)| (i, n.to_string())).collect::<Vec<_>>() {
            let rid = ps_ref.id(&name).unwrap();
            assert_eq!(ps.grad(id), ps_ref.grad(rid), "grad mismatch for {name}");
        }
    }

    /// The fused tape filter's store gradients (and forward values) equal
    /// the decomposed recording's on the reference tape bit for bit
    /// (every NaN as one value), over random trees convolved twice, with
    /// node and edge inputs that mix parameters and constants (leaves also
    /// take the constant zero pads): both filter modes, with and without
    /// attention and bias, every activation, with frozen weights and
    /// biases, and with ±0, subnormals, ±inf and NaN among the weights
    /// and inputs.
    #[test]
    fn fused_conv_filter_grads_match_reference_bitwise() {
        let acts = [Activation::None, Activation::Relu, Activation::LeakyRelu, Activation::Tanh];
        let mut seed = 0u64;
        for mode in [FilterMode::Diagonal, FilterMode::Dense] {
            for use_gat in [false, true] {
                for use_bias in [false, true] {
                    for activation in acts {
                        for (special_p, frozen) in [(0.0, false), (0.0, true), (0.05, false), (0.3, true)] {
                            seed += 1;
                            let ctx = format!(
                                "{mode:?} gat={use_gat} bias={use_bias} {activation:?} \
                                 specials={special_p} frozen={frozen} seed={seed}"
                            );
                            check_conv_filter_case(
                                seed, mode, use_gat, use_bias, activation, special_p, frozen, &ctx,
                            );
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_conv_filter_case(
        seed: u64,
        mode: FilterMode,
        use_gat: bool,
        use_bias: bool,
        activation: Activation,
        special_p: f64,
        frozen: bool,
        ctx: &str,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (in_dim, out_dim, edge_dim) = match mode {
            FilterMode::Dense => (rng.gen_range(1..6), rng.gen_range(1..6), rng.gen_range(1..4)),
            FilterMode::Diagonal => {
                let d = rng.gen_range(1..6);
                (d, d, d)
            }
        };
        let cfg = TreeConvConfig { in_dim, out_dim, edge_dim, mode, activation, use_bias, use_gat };
        let mut ps = ParamStore::new();
        let layers = [
            TreeConvLayer::new(&mut ps, &mut rng, "l0", cfg.clone()),
            TreeConvLayer::new(&mut ps, &mut rng, "l1", TreeConvConfig { in_dim: out_dim, ..cfg }),
        ];
        let weights: Vec<_> = ps.iter_ids().map(|(id, n)| (id, n.ends_with("bias"))).collect();
        for &(id, is_bias) in &weights {
            let mut w = ps.value(id).data().to_vec();
            // Nonzero biases, so a dropped bias gradient shows.
            if is_bias {
                w.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0));
            }
            sprinkle(&mut rng, &mut w, special_p);
            ps.value_mut(id).data_mut().copy_from_slice(&w);
        }

        // A random binary tree: each node after the first attaches to a
        // random earlier node with a free slot.
        let n = rng.gen_range(1..8);
        let mut tree = TreeSpec::with_nodes(n);
        let mut n_edges = 0;
        for child in 1..n {
            let free: Vec<usize> =
                (0..child).filter(|&p| tree.children[p].iter().any(|s| s.is_none())).collect();
            let parent = free[rng.gen_range(0..free.len())];
            tree.attach(parent, child, n_edges);
            n_edges += 1;
        }
        // Each node/edge input is a parameter (its gradient then shows in
        // the store) or a constant (pruned on the arena tape).
        let mut src = |ps: &mut ParamStore, name: String, dim: usize| {
            let mut v = rand_vec(&mut rng, dim);
            sprinkle(&mut rng, &mut v, special_p);
            if coin(&mut rng, 0.5) {
                Ok(ps.register(name, Tensor::vector(v)))
            } else {
                Err(v)
            }
        };
        let node_src: Vec<_> = (0..n).map(|i| src(&mut ps, format!("x{i}"), in_dim)).collect();
        let edge_src: Vec<_> = (0..n_edges).map(|j| src(&mut ps, format!("e{j}"), edge_dim)).collect();
        let coefs: Vec<Vec<f32>> = (0..n).map(|_| rand_vec(&mut rng, out_dim)).collect();
        if frozen {
            for &(id, _) in &weights {
                ps.set_frozen(id, coin(&mut rng, 0.5));
            }
        }
        // A clone, not a JSON round trip, which would not keep ±inf.
        let mut ps_ref = ps.clone();

        fn record<B: Backend>(
            b: &mut B,
            layers: &[TreeConvLayer],
            tree: &TreeSpec,
            node_src: &[Result<ParamId, Vec<f32>>],
            edge_src: &[Result<ParamId, Vec<f32>>],
            coefs: &[Vec<f32>],
        ) -> (B::Id, Vec<u32>) {
            let mut leaf = |s: &Result<ParamId, Vec<f32>>| match s {
                Ok(id) => b.param(*id),
                Err(v) => b.input(v),
            };
            let mut h: Vec<_> = node_src.iter().map(&mut leaf).collect();
            let edges: Vec<_> = edge_src.iter().map(&mut leaf).collect();
            for layer in layers {
                let mut out = Vec::new();
                layer.forward_on(b, tree, &h, &edges, &mut out);
                h = out;
            }
            let forward = h.iter().flat_map(|&o| bits(b.value(o))).collect();
            let terms: Vec<_> = h
                .iter()
                .zip(coefs)
                .map(|(&o, c)| {
                    let c = b.input(c);
                    b.dot(o, c)
                })
                .collect();
            let all = b.concat(&terms);
            (b.sum_elems(all), forward)
        }

        let mut rt = RefTape::new();
        let (loss, ref_fwd) =
            record(&mut RefTapeBackend::new(&mut rt, &ps_ref), &layers, &tree, &node_src, &edge_src, &coefs);
        rt.backward(loss, &mut ps_ref);
        let mut g = Graph::new();
        let (loss, fwd) =
            record(&mut TapeBackend::new(&mut g, &ps), &layers, &tree, &node_src, &edge_src, &coefs);
        g.backward(loss, &mut ps);
        assert_eq!(fwd, ref_fwd, "{ctx}: forward values");
        assert_grads_bitwise(&ps, &ps_ref, ctx);
    }

    /// A value recorded on both tapes, and whether it reaches a
    /// parameter — the test's own account, independent of the tape's.
    #[derive(Clone, Copy)]
    struct Both {
        t: NodeId,
        r: RefNodeId,
        reaches: bool,
    }

    /// The arena and reference tapes side by side, plus the length the
    /// arena tape's gradient slab must come to: the summed lengths of the
    /// arena nodes that reach a parameter.
    struct Twin<'a> {
        t: TapeBackend<'a>,
        r: RefTapeBackend<'a>,
        slab: usize,
    }

    impl Twin<'_> {
        /// Accounts for one arena node of `len` floats.
        fn node(&mut self, t: NodeId, r: RefNodeId, len: usize, reaches: bool) -> Both {
            if reaches {
                self.slab += len;
            }
            Both { t, r, reaches }
        }

        fn input(&mut self, v: &[f32]) -> Both {
            let (t, r) = (self.t.input(v), self.r.input(v));
            self.node(t, r, v.len(), false)
        }
    }

    /// Random graphs that mix constant and parameter branches: the arena
    /// tape's store gradients equal the reference tape's bit for bit, its
    /// gradient slab holds exactly the nodes that reach a parameter, and
    /// a loss that reaches none leaves every gradient at +0.0. The ops
    /// include a dense layer over `concat([param-dependent, constant])`,
    /// a `matvec` with a constant matrix, `mul_scalar` with a constant
    /// scalar, and the slices of a batched score node.
    #[test]
    fn pruned_backward_matches_reference_and_sizes_the_slab() {
        const D: usize = 4;
        for seed in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ps = ParamStore::new();
            let vecs: Vec<_> = (0..3)
                .map(|i| ps.register(format!("v{i}"), crate::init::small_uniform(&mut rng, D, 1.0)))
                .collect();
            let mat = ps.register("m", Tensor::matrix(D, D, rand_vec(&mut rng, D * D)));
            let lin = Linear::new(&mut ps, &mut rng, "lin", 2 * D, D);
            let head =
                Mlp::new(&mut ps, &mut rng, "head", &[D, 3, 1], Activation::LeakyRelu, Activation::None);
            if seed % 3 == 0 {
                ps.set_frozen(vecs[0], true);
                ps.set_frozen(lin.weight_id(), true);
            }
            let mut ps_ref = ps.clone();

            let (mut g, mut rt) = (Graph::new(), RefTape::new());
            let (loss, const_loss, slab) = {
                let mut tw = Twin {
                    t: TapeBackend::new(&mut g, &ps),
                    r: RefTapeBackend::new(&mut rt, &ps_ref),
                    slab: 0,
                };
                let mut pool = Vec::new();
                for _ in 0..3 {
                    let v = rand_vec(&mut rng, D);
                    pool.push(tw.input(&v));
                }
                for &v in &vecs {
                    if coin(&mut rng, 0.6) {
                        let (t, r) = (tw.t.param(v), tw.r.param(v));
                        pool.push(tw.node(t, r, D, true));
                    }
                }
                // A chain over constants only: the loss that reaches no
                // parameter.
                let const_loss = {
                    let (a, b) = (pool[0], pool[1]);
                    let (t, r) = (tw.t.mul(a.t, b.t), tw.r.mul(a.r, b.r));
                    let m = tw.node(t, r, D, false);
                    let (t, r) = (tw.t.tanh(m.t), tw.r.tanh(m.r));
                    let th = tw.node(t, r, D, false);
                    let (t, r) = (tw.t.sum_elems(th.t), tw.r.sum_elems(th.r));
                    tw.node(t, r, 1, false)
                };
                for _ in 0..12 {
                    let a = pool[rng.gen_range(0..pool.len())];
                    let b = pool[rng.gen_range(0..pool.len())];
                    let ab = a.reaches || b.reaches;
                    let out = match rng.gen_range(0..7) {
                        0 => {
                            let (t, r) = (tw.t.add(a.t, b.t), tw.r.add(a.r, b.r));
                            tw.node(t, r, D, ab)
                        }
                        1 => {
                            let (t, r) = (tw.t.mul(a.t, b.t), tw.r.mul(a.r, b.r));
                            tw.node(t, r, D, ab)
                        }
                        2 => {
                            let (t, r) = (tw.t.tanh(a.t), tw.r.tanh(a.r));
                            tw.node(t, r, D, a.reaches)
                        }
                        3 => {
                            // A dense layer over a concat whose parts may
                            // mix parameter-dependent and constant values.
                            let (t, r) = (tw.t.concat(&[a.t, b.t]), tw.r.concat(&[a.r, b.r]));
                            let c = tw.node(t, r, 2 * D, ab);
                            let t = tw.t.linear(&lin, c.t, Activation::LeakyRelu);
                            let r = tw.r.linear(&lin, c.r, Activation::LeakyRelu);
                            tw.node(t, r, D, true)
                        }
                        4 => {
                            // `matvec` with a constant matrix.
                            let m = Tensor::matrix(D, D, rand_vec(&mut rng, D * D));
                            let (t, r) = (tw.t.graph().input(m.clone()), tw.r.graph().input(m));
                            let m = tw.node(t, r, D * D, false);
                            let (t, r) = (tw.t.matvec(m.t, a.t), tw.r.matvec(m.r, a.r));
                            tw.node(t, r, D, a.reaches)
                        }
                        5 => {
                            // `mul_scalar` with a constant or a live scalar.
                            let s = if coin(&mut rng, 0.5) {
                                tw.input(&[rng.gen_range(-2.0f32..2.0)])
                            } else {
                                let (t, r) = (tw.t.dot(a.t, b.t), tw.r.dot(a.r, b.r));
                                tw.node(t, r, 1, ab)
                            };
                            let (t, r) = (tw.t.mul_scalar(a.t, s.t), tw.r.mul_scalar(a.r, s.r));
                            tw.node(t, r, D, a.reaches || s.reaches)
                        }
                        _ => {
                            // `matvec` with a parameter matrix.
                            let (t, r) = (tw.t.param(mat), tw.r.param(mat));
                            let m = tw.node(t, r, D * D, true);
                            let (t, r) = (tw.t.matvec(m.t, a.t), tw.r.matvec(m.r, a.r));
                            tw.node(t, r, D, true)
                        }
                    };
                    pool.push(out);
                }

                // Batched scoring over random rows, split into segments:
                // one score node plus one slice per segment.
                let rows: Vec<Both> =
                    (0..rng.gen_range(2..6)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                let first = rng.gen_range(1..rows.len());
                let seg_lens = [first, rows.len() - first];
                let (rt_ids, rr_ids): (Vec<_>, Vec<_>) = rows.iter().map(|b| (b.t, b.r)).unzip();
                let (mut st, mut sr) = (Vec::new(), Vec::new());
                tw.t.mlp_scores_batched(&head, &rt_ids, &seg_lens, &mut st);
                tw.r.mlp_scores_batched(&head, &rr_ids, &seg_lens, &mut sr);
                tw.slab += 2 * rows.len();
                let mut terms = Vec::new();
                for (k, &len) in seg_lens.iter().enumerate() {
                    let (t, r) = (tw.t.log_softmax(st[k]), tw.r.log_softmax(sr[k]));
                    let ls = tw.node(t, r, len, true);
                    let (t, r) = (tw.t.gather(ls.t, len - 1), tw.r.gather(ls.r, len - 1));
                    terms.push(tw.node(t, r, 1, true));
                }
                for _ in 0..2 {
                    let a = pool[rng.gen_range(0..pool.len())];
                    let (t, r) = (tw.t.sum_elems(a.t), tw.r.sum_elems(a.r));
                    terms.push(tw.node(t, r, 1, a.reaches));
                }
                let (tt, tr): (Vec<_>, Vec<_>) = terms.iter().map(|b| (b.t, b.r)).unzip();
                let (t, r) = (tw.t.concat(&tt), tw.r.concat(&tr));
                let all = tw.node(t, r, terms.len(), true);
                let (t, r) = (tw.t.sum_elems(all.t), tw.r.sum_elems(all.r));
                let loss = tw.node(t, r, 1, true);
                (loss, const_loss, tw.slab)
            };
            assert_eq!(g.size().grad_floats, slab, "seed {seed}: gradient slab");
            rt.backward(loss.r, &mut ps_ref);
            g.backward(loss.t, &mut ps);
            assert_grads_bitwise(&ps, &ps_ref, &format!("seed {seed}"));

            ps.zero_grads();
            g.backward(const_loss.t, &mut ps);
            for (id, name) in ps.iter_ids() {
                assert!(
                    ps.grad(id).iter().all(|v| v.to_bits() == 0),
                    "seed {seed}: a constant loss moved {name}"
                );
            }
        }
    }
}
