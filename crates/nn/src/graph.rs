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
//! independent recordings.
//!
//! # Fused nodes
//!
//! Besides the primitive ops, the tape records two fused node kinds that
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
//!
//! Every fused backward is gated on producing **bit-identical** store
//! gradients to the decomposed recording on the retained reference tape
//! ([`crate::tape_ref::RefTape`]): the fused kernels replay the exact
//! per-accumulator flush order and per-element arithmetic of the
//! primitive op sequence (see `tests/grad_equivalence.rs`).

use std::sync::Arc;

use lsched_util::Pool;

use crate::kernels::{self, fused_linear_row, MAX_GAT_TERMS};
use crate::layers::{Activation, Linear, Mlp};
use crate::params::{ParamId, ParamStore};
use crate::tensor::{matvec_rows, matvec_t_rows, outer_acc, Tensor};

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
    /// Constant input (no gradient produced).
    Input,
    /// Trainable parameter; backward accumulates into the store. The
    /// node's `off` indexes the graph's `param_arcs` table.
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
    /// Fused GAT attention combine (Eq. 3–5); `meta` indexes `gats`.
    GatCombine { meta: u32 },
    /// Fused parameter matvec `W x`; `meta` indexes `pmats`. Unlike
    /// `MatVec` the weight is a pinned parameter, so backward runs the
    /// weight outer product straight into the store accumulator instead
    /// of materializing a `W`-sized gradient span per application.
    MatVecP { x: NodeId, meta: u32 },
    /// A view of a contiguous sub-range of `src` (the per-segment score
    /// vectors of a batched scoring node). The value *aliases* the
    /// source span (this node's `off` is absolute); only the gradient
    /// span is separate.
    Slice { src: NodeId },
}

/// One tape entry: the op plus `(offset, len)` handles into the value
/// and gradient slabs. `rows > 0` marks a rank-2 value recorded via
/// [`Graph::input`] so `matvec` keeps working on non-parameter matrices.
#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    off: u32,
    len: u32,
    goff: u32,
    rows: u32,
}

/// Per-recording metadata of a fused dense layer. The weight/bias arcs
/// pin the recording-time parameter values exactly like `Param` nodes do
/// (the store's copy-on-write `value_mut` detaches on mutation).
#[derive(Debug)]
struct LinearMeta {
    w: Arc<Tensor>,
    b: Arc<Tensor>,
    wid: ParamId,
    bid: ParamId,
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

/// Metadata of a fused attention-combine node (Eq. 3–5): the shared
/// attention vector pinned at its recording-time value (like `Param`
/// nodes), the term ids (a range into the id arena; the anchor is
/// `terms[0]`), and where the raw pre-LeakyReLU scores `s` and the
/// softmax weights `z` live in the value slab (`2·n_terms` floats at
/// `aux_off`: `s` then `z`). The combined vector is the node's own
/// value span.
#[derive(Debug)]
struct GatMeta {
    a: Arc<Tensor>,
    aid: ParamId,
    slope: f32,
    parts_start: u32,
    n_terms: u32,
    aux_off: u32,
}

/// Metadata of a fused parameter matvec: the weight tensor pinned at
/// its recording-time value plus its store id and input dimension.
#[derive(Debug)]
struct PMatMeta {
    w: Arc<Tensor>,
    wid: ParamId,
    in_dim: u32,
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
    /// Recording-time parameter tensors, pinned by refcount.
    param_arcs: Vec<Arc<Tensor>>,
    linears: Vec<LinearMeta>,
    mlps: Vec<MlpMeta>,
    gats: Vec<GatMeta>,
    pmats: Vec<PMatMeta>,
    /// Pool of id scratch vectors for [`Graph::take_ids`].
    pool: Pool<Vec<NodeId>>,
    /// Backward scratch (activation gradients / transposed matvec).
    bwd_a: Vec<f32>,
    bwd_b: Vec<f32>,
    /// Total gradient-slab length (sum of all node lens).
    grad_len: u32,
}

/// Resolves a node's value against the slab (or a prefix of it, when an
/// output span is currently split off mutably) or the pinned parameter
/// tensors.
#[inline]
fn node_val<'a>(
    nodes: &[Node],
    params: &'a [Arc<Tensor>],
    head: &'a [f32],
    id: NodeId,
) -> &'a [f32] {
    let n = &nodes[id.idx()];
    match n.op {
        Op::Param(_) => params[n.off as usize].data(),
        _ => &head[n.off as usize..(n.off + n.len) as usize],
    }
}

/// Shape of a rank-2 operand (parameter tensors carry their own shape;
/// slab values use the recorded row count).
fn mat_shape(nodes: &[Node], params: &[Arc<Tensor>], w: NodeId) -> (usize, usize) {
    let n = &nodes[w.idx()];
    if let Op::Param(_) = n.op {
        let t = &params[n.off as usize];
        (t.rows(), t.cols())
    } else {
        assert!(n.rows > 0, "matvec requires a rank-2 operand");
        (n.rows as usize, (n.len / n.rows) as usize)
    }
}

/// Marks an operand reached and returns its gradient span within the
/// slab prefix that precedes the current node's own span.
#[inline]
fn dep<'a>(nodes: &[Node], reached: &mut [bool], gops: &'a mut [f32], id: NodeId) -> &'a mut [f32] {
    reached[id.idx()] = true;
    let n = &nodes[id.idx()];
    &mut gops[n.goff as usize..(n.goff + n.len) as usize]
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
        self.param_arcs.clear();
        self.linears.clear();
        self.mlps.clear();
        self.gats.clear();
        self.pmats.clear();
        self.grad_len = 0;
    }

    /// Drops every pinned parameter tensor (the `Param`-node arcs and the
    /// fused layers' weight/bias arcs) while keeping the recording
    /// itself. Call this after the last [`Graph::backward`] of a step and
    /// *before* the optimizer runs, so the store's copy-on-write
    /// `value_mut` sees a refcount of one and updates in place instead of
    /// cloning every tensor. Parameter node values (and further backward
    /// passes) are unusable until the next [`Graph::reset`] + re-record.
    pub fn release_params(&mut self) {
        self.param_arcs.clear();
        self.linears.clear();
        self.mlps.clear();
        self.gats.clear();
        self.pmats.clear();
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> ValueRef<'_> {
        ValueRef(node_val(&self.nodes, &self.param_arcs, &self.vals, id))
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

    /// Reserves `len` zeroed slots at the slab tail and records a node
    /// over them.
    fn alloc_node(&mut self, op: Op, len: usize, rows: u32) -> NodeId {
        let off = self.vals.len();
        self.vals.resize(off + len, 0.0);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, off: off as u32, len: len as u32, goff: self.grad_len, rows });
        self.grad_len += len as u32;
        id
    }

    /// Splits the value slab at the freshly allocated node's offset,
    /// returning `(prefix, output span)`.
    fn split_out(&mut self, id: NodeId) -> (&[f32], &mut [f32]) {
        let off = self.nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        (head, tail)
    }

    fn unary(&mut self, op: Op, a: NodeId, f: impl Fn(f32) -> f32) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(op, len, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, params, head, a);
        for (o, &x) in tail.iter_mut().zip(av) {
            *o = f(x);
        }
        id
    }

    fn binary(&mut self, op: Op, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> NodeId {
        let n = self.nodes[a.idx()].len;
        assert_eq!(n, self.nodes[b.idx()].len, "element-wise op shape mismatch");
        let id = self.alloc_node(op, n as usize, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, params, head, a);
        let bv = node_val(nodes, params, head, b);
        for ((o, &x), &y) in tail.iter_mut().zip(av).zip(bv) {
            *o = f(x, y);
        }
        id
    }

    /// Records a constant input tensor (copying its data into the value
    /// slab; rank-2 shapes stay usable as `matvec` operands).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        let rows = if value.shape().len() == 2 { value.shape()[0] as u32 } else { 0 };
        let id = self.alloc_node(Op::Input, value.len(), rows);
        let (_, out) = self.split_out(id);
        out.copy_from_slice(value.data());
        id
    }

    /// Convenience: records a constant input vector.
    pub fn input_vec(&mut self, data: Vec<f32>) -> NodeId {
        self.input_slice(&data)
    }

    /// Records a constant input vector by copying a slice (no owned
    /// buffer required).
    pub fn input_slice(&mut self, data: &[f32]) -> NodeId {
        let id = self.alloc_node(Op::Input, data.len(), 0);
        let (_, out) = self.split_out(id);
        out.copy_from_slice(data);
        id
    }

    /// Records a constant input vector of length `len`, writing the
    /// values in place via `fill` (the span starts zeroed) — feature
    /// assembly straight into the slab, no temporary buffer.
    pub fn input_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> NodeId {
        let id = self.alloc_node(Op::Input, len, 0);
        let (_, out) = self.split_out(id);
        fill(out);
        id
    }

    /// Records a parameter leaf, sharing the store's tensor by refcount
    /// (no weight data is copied; the store's copy-on-write `value_mut`
    /// keeps this node pinned at the recording-time value).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let arc = Arc::clone(store.value_arc(id));
        let len = arc.len() as u32;
        let rows = if arc.shape().len() == 2 { arc.shape()[0] as u32 } else { 0 };
        let pidx = self.param_arcs.len() as u32;
        self.param_arcs.push(arc);
        let nid = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op: Op::Param(id), off: pidx, len, goff: self.grad_len, rows });
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
        let (m, n) = mat_shape(&self.nodes, &self.param_arcs, w);
        let xlen = self.nodes[x.idx()].len as usize;
        assert_eq!(n, xlen, "matvec: {m}x{n} matrix with vector of len {xlen}");
        let id = self.alloc_node(Op::MatVec { w, x }, m, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        if n > 0 {
            let wv = node_val(nodes, params, head, w);
            let xv = node_val(nodes, params, head, x);
            matvec_rows(wv, n, xv, tail);
        }
        id
    }

    /// Concatenates vectors in order.
    pub fn concat(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero vectors");
        let total: usize = parts.iter().map(|&p| self.nodes[p.idx()].len as usize).sum();
        let pstart = self.parts.len();
        self.parts.extend_from_slice(parts);
        let id =
            self.alloc_node(Op::Concat { parts: pstart as u32, n: parts.len() as u32 }, total, 0);
        let (nodes, params, ids) = (&self.nodes, &self.param_arcs, &self.parts);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let mut pos = 0;
        for &p in &ids[pstart..pstart + parts.len()] {
            let pv = node_val(nodes, params, head, p);
            tail[pos..pos + pv.len()].copy_from_slice(pv);
            pos += pv.len();
        }
        id
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
        let id =
            self.alloc_node(Op::SumVec { parts: pstart as u32, n: parts.len() as u32 }, n as usize, 0);
        let (nodes, params, ids) = (&self.nodes, &self.param_arcs, &self.parts);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        for &p in &ids[pstart..pstart + parts.len()] {
            let pv = node_val(nodes, params, head, p);
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

    /// Dot product producing a scalar node.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(self.nodes[a.idx()].len, self.nodes[b.idx()].len, "dot shape mismatch");
        let id = self.alloc_node(Op::Dot(a, b), 1, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, params, head, a);
        let bv = node_val(nodes, params, head, b);
        tail[0] = av.iter().zip(bv).map(|(x, y)| x * y).sum();
        id
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_elems(&mut self, a: NodeId) -> NodeId {
        let id = self.alloc_node(Op::SumElems(a), 1, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        tail[0] = node_val(nodes, params, head, a).iter().sum();
        id
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let id = self.alloc_node(Op::Mean(a), 1, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let av = node_val(nodes, params, head, a);
        tail[0] = av.iter().sum::<f32>() / av.len() as f32;
        id
    }

    /// Numerically-stable softmax over a vector.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(Op::Softmax(a), len, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        kernels::softmax_into(node_val(nodes, params, head, a), tail);
        id
    }

    /// Numerically-stable log-softmax over a vector.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let len = self.nodes[a.idx()].len as usize;
        let id = self.alloc_node(Op::LogSoftmax(a), len, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        kernels::log_softmax_into(node_val(nodes, params, head, a), tail);
        id
    }

    /// Selects element `idx`, producing a scalar node.
    pub fn gather(&mut self, a: NodeId, idx: usize) -> NodeId {
        let id = self.alloc_node(Op::Gather(a, idx as u32), 1, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        tail[0] = node_val(nodes, params, head, a)[idx];
        id
    }

    /// Broadcast-multiplies vector `vec` by scalar node `scalar`.
    pub fn mul_scalar(&mut self, vec: NodeId, scalar: NodeId) -> NodeId {
        assert_eq!(self.nodes[scalar.idx()].len, 1, "mul_scalar needs a scalar node");
        let len = self.nodes[vec.idx()].len as usize;
        let id = self.alloc_node(Op::MulScalar { vec, scalar }, len, 0);
        let (nodes, params) = (&self.nodes, &self.param_arcs);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let s = node_val(nodes, params, head, scalar)[0];
        let av = node_val(nodes, params, head, vec);
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
        self.linears.push(LinearMeta {
            w: Arc::clone(store.value_arc(layer.weight_id())),
            b: Arc::clone(store.value_arc(layer.bias_id())),
            wid: layer.weight_id(),
            bid: layer.bias_id(),
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
        let id = self.alloc_node(Op::Linear { x, lin }, m, 0);
        let (nodes, params, linears) = (&self.nodes, &self.param_arcs, &self.linears);
        let off = nodes[id.idx()].off as usize;
        let (head, tail) = self.vals.split_at_mut(off);
        let xv = node_val(nodes, params, head, x);
        let meta = &linears[lin as usize];
        fused_linear_row(meta.w.data(), n, xv, meta.b.data(), act, tail);
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
            let (nodes, params) = (&self.nodes, &self.param_arcs);
            let (head, aux) = self.vals.split_at_mut(aux_off);
            for (i, &p) in inputs.iter().enumerate() {
                let pv = node_val(nodes, params, head, p);
                debug_assert_eq!(pv.len(), d0, "mlp_scores input dim mismatch");
                aux[i * d0..(i + 1) * d0].copy_from_slice(pv);
            }
        }

        // Hidden layers: X_{l+1} (rows × d_{l+1}) = act(X_l Wᵀ + b), one
        // fused GEMM per layer, all inside the aux region.
        let mut x_off = aux_off;
        {
            let (linears, vals) = (&self.linears, &mut self.vals);
            for l in 0..last {
                let meta = &linears[lin_start + l];
                let (din, dout) = (meta.in_dim as usize, meta.out_dim as usize);
                let y_off = x_off + rows * din;
                let (head, y) = vals.split_at_mut(y_off);
                let x = &head[x_off..x_off + rows * din];
                // Rows by count: with `din == 0` every input row is empty.
                for r in 0..rows {
                    let (xr, yr) = (&x[r * din..(r + 1) * din], &mut y[r * dout..(r + 1) * dout]);
                    fused_linear_row(meta.w.data(), din, xr, meta.b.data(), meta.act, yr);
                }
                x_off = y_off;
            }
        }

        // Final layer writes the node's own value span.
        let meta_idx = self.mlps.len() as u32;
        let dlast_out = self.linears[lin_start + last].out_dim as usize;
        let id = self.alloc_node(Op::MlpScores { meta: meta_idx }, rows * dlast_out, 0);
        {
            let (nodes, linears) = (&self.nodes, &self.linears);
            let meta = &linears[lin_start + last];
            let din = meta.in_dim as usize;
            let off = nodes[id.idx()].off as usize;
            let (head, tail) = self.vals.split_at_mut(off);
            let x = &head[x_off..x_off + rows * din];
            for r in 0..rows {
                let xr = &x[r * din..(r + 1) * din];
                let yr = &mut tail[r * dlast_out..(r + 1) * dlast_out];
                fused_linear_row(meta.w.data(), din, xr, meta.b.data(), meta.act, yr);
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
        self.nodes.push(Node {
            op: Op::Slice { src },
            off: s.off + off,
            len,
            goff: self.grad_len,
            rows: 0,
        });
        self.grad_len += len;
        id
    }

    /// Records a fused parameter matvec `W x` as a single node (the
    /// decomposition is a `param` node plus a `matvec`). Forward uses
    /// the same whole-matrix kernel; backward accumulates the weight
    /// outer product `g ⊗ x` directly into the store's gradient
    /// accumulator — the decomposed param span takes exactly one
    /// product per element before its flush adds it on, so the result
    /// is bit-identical while skipping a `W`-sized zeroed gradient
    /// span, an extra write pass, and an extra read pass per
    /// application. This is what makes the tree-convolution backward
    /// cheap: five weight applications per tree node no longer cost
    /// five `W`-sized slab spans each.
    pub fn fused_matvec_param(&mut self, store: &ParamStore, w: ParamId, x: NodeId) -> NodeId {
        let arc = Arc::clone(store.value_arc(w));
        let (m, n) = (arc.rows(), arc.cols());
        let xlen = self.nodes[x.idx()].len as usize;
        assert_eq!(n, xlen, "matvec: {m}x{n} matrix with vector of len {xlen}");
        let meta_idx = self.pmats.len() as u32;
        let id = self.alloc_node(Op::MatVecP { x, meta: meta_idx }, m, 0);
        {
            let (nodes, params) = (&self.nodes, &self.param_arcs);
            let off = nodes[id.idx()].off as usize;
            let (head, tail) = self.vals.split_at_mut(off);
            if n > 0 {
                let xv = node_val(nodes, params, head, x);
                matvec_rows(arc.data(), n, xv, tail);
            }
        }
        self.pmats.push(PMatMeta { w: arc, wid: w, in_dim: n as u32 });
        id
    }

    /// Records the whole GAT attention combine (Eq. 3–5) as a single
    /// node: every term is scored against the anchor `terms[0]` with the
    /// shared attention vector `a` (`LeakyReLU(aᵀ(anchor ‖ term))`), the
    /// scores are softmax-normalized, and the node's value is the
    /// weighted sum `Σ_i z_i · term_i`. Forward values and gradients are
    /// bit-identical to the decomposed recording (per-term `param` /
    /// `concat` / `dot` / `leaky_relu`, then `concat` / `softmax` /
    /// `gather`, then per-term `mul_scalar` and a `sum_vec`) — the
    /// forward reuses the same dot fold and softmax kernel, and the
    /// backward replays the decomposed reverse sweep's accumulation
    /// order exactly. Only `2·n` aux floats (raw scores + weights) hit
    /// the slab instead of ~`2·n·dim` for the decomposed concats.
    pub fn fused_gat_combine(
        &mut self,
        store: &ParamStore,
        a: ParamId,
        slope: f32,
        terms: &[NodeId],
    ) -> NodeId {
        let n = terms.len();
        assert!(n >= 1, "gat_combine on an empty term list");
        assert!(n <= MAX_GAT_TERMS, "gat_combine supports at most {MAX_GAT_TERMS} terms");
        let dim = self.nodes[terms[0].idx()].len as usize;
        let arc = Arc::clone(store.value_arc(a));
        let parts_start = self.parts.len();
        self.parts.extend_from_slice(terms);

        // Aux region: the raw pre-LeakyReLU scores `s`, then the softmax
        // weights `z`; the combined output follows it directly.
        let aux_off = self.vals.len();
        self.vals.resize(aux_off + 2 * n, 0.0);
        let meta_idx = self.gats.len() as u32;
        let id = self.alloc_node(Op::GatCombine { meta: meta_idx }, dim, 0);
        debug_assert_eq!(self.nodes[id.idx()].off as usize, aux_off + 2 * n);
        {
            let (nodes, params, parts) = (&self.nodes, &self.param_arcs, &self.parts);
            let (head, tail) = self.vals.split_at_mut(aux_off);
            let mut tv: [&[f32]; MAX_GAT_TERMS] = [&[]; MAX_GAT_TERMS];
            for (t, &tid) in tv.iter_mut().zip(&parts[parts_start..parts_start + n]) {
                *t = node_val(nodes, params, head, tid);
            }
            let (s, tail) = tail.split_at_mut(n);
            let (z, out) = tail.split_at_mut(n);
            kernels::gat_combine_into(arc.data(), slope, &tv[..n], s, z, out);
        }
        self.gats.push(GatMeta {
            a: arc,
            aid: a,
            slope,
            parts_start: parts_start as u32,
            n_terms: n as u32,
            aux_off: aux_off as u32,
        });
        id
    }

    /// Runs the backward pass from scalar node `loss`, accumulating
    /// parameter gradients into `store` (frozen parameters are skipped).
    /// Reuses the graph's gradient slab and scratch buffers — in steady
    /// state a backward pass performs zero heap allocations.
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        assert_eq!(self.nodes[loss.idx()].len, 1, "backward() requires a scalar loss node");
        self.grads.clear();
        self.grads.resize(self.grad_len as usize, 0.0);
        self.reached.clear();
        self.reached.resize(self.nodes.len(), false);
        self.grads[self.nodes[loss.idx()].goff as usize] = 1.0;
        self.reached[loss.idx()] = true;

        let Graph {
            nodes,
            vals,
            grads,
            reached,
            parts,
            param_arcs,
            linears,
            mlps,
            gats,
            pmats,
            bwd_a,
            bwd_b,
            ..
        } = self;
        let nodes: &[Node] = nodes;
        let vals: &[f32] = vals;

        for i in (0..nodes.len()).rev() {
            if !reached[i] {
                continue;
            }
            let node = nodes[i];
            let (gops, gtail) = grads.split_at_mut(node.goff as usize);
            let g: &[f32] = &gtail[..node.len as usize];
            match node.op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(pid, g),
                Op::Add(a, b) => {
                    for (o, &v) in dep(nodes, reached, gops, a).iter_mut().zip(g) {
                        *o += v;
                    }
                    for (o, &v) in dep(nodes, reached, gops, b).iter_mut().zip(g) {
                        *o += v;
                    }
                }
                Op::Sub(a, b) => {
                    for (o, &v) in dep(nodes, reached, gops, a).iter_mut().zip(g) {
                        *o += v;
                    }
                    for (o, &v) in dep(nodes, reached, gops, b).iter_mut().zip(g) {
                        *o += -v;
                    }
                }
                Op::Mul(a, b) => {
                    let av = node_val(nodes, param_arcs, vals, a);
                    let bv = node_val(nodes, param_arcs, vals, b);
                    for ((o, &gi), &bi) in dep(nodes, reached, gops, a).iter_mut().zip(g).zip(bv) {
                        *o += gi * bi;
                    }
                    for ((o, &gi), &ai) in dep(nodes, reached, gops, b).iter_mut().zip(g).zip(av) {
                        *o += gi * ai;
                    }
                }
                Op::Scale(a, c) => {
                    for (o, &gi) in dep(nodes, reached, gops, a).iter_mut().zip(g) {
                        *o += gi * c;
                    }
                }
                Op::MatVec { w, x } => {
                    let (_m, n) = mat_shape(nodes, param_arcs, w);
                    let wv = node_val(nodes, param_arcs, vals, w);
                    let xv = node_val(nodes, param_arcs, vals, x);
                    // dW = g ⊗ x straight into w's gradient span (one
                    // product per element — the same arithmetic as the
                    // decomposed scratch-then-flush).
                    outer_acc(g, xv, dep(nodes, reached, gops, w));
                    // dx = Wᵀ g into zeroed scratch, then added — the
                    // exact two-step the reference tape performs.
                    bwd_a.clear();
                    bwd_a.resize(n, 0.0);
                    matvec_t_rows(wv, n, g, bwd_a);
                    for (o, &v) in dep(nodes, reached, gops, x).iter_mut().zip(bwd_a.iter()) {
                        *o += v;
                    }
                }
                Op::Concat { parts: pstart, n } => {
                    let mut off = 0;
                    for &p in &parts[pstart as usize..(pstart + n) as usize] {
                        let span = dep(nodes, reached, gops, p);
                        for (o, &v) in span.iter_mut().zip(&g[off..]) {
                            *o += v;
                        }
                        off += nodes[p.idx()].len as usize;
                    }
                }
                Op::SumVec { parts: pstart, n } => {
                    for &p in &parts[pstart as usize..(pstart + n) as usize] {
                        for (o, &v) in dep(nodes, reached, gops, p).iter_mut().zip(g) {
                            *o += v;
                        }
                    }
                }
                Op::Relu(a) => {
                    let av = node_val(nodes, param_arcs, vals, a);
                    for ((o, &gi), &ai) in dep(nodes, reached, gops, a).iter_mut().zip(g).zip(av) {
                        *o += if ai > 0.0 { gi } else { 0.0 };
                    }
                }
                Op::LeakyRelu(a, slope) => {
                    let av = node_val(nodes, param_arcs, vals, a);
                    for ((o, &gi), &ai) in dep(nodes, reached, gops, a).iter_mut().zip(g).zip(av) {
                        *o += if ai > 0.0 { gi } else { gi * slope };
                    }
                }
                Op::Tanh(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    for ((o, &gi), &yi) in dep(nodes, reached, gops, a).iter_mut().zip(g).zip(yv) {
                        *o += gi * (1.0 - yi * yi);
                    }
                }
                Op::Sigmoid(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    for ((o, &gi), &yi) in dep(nodes, reached, gops, a).iter_mut().zip(g).zip(yv) {
                        *o += gi * yi * (1.0 - yi);
                    }
                }
                Op::Dot(a, b) => {
                    let g0 = g[0];
                    let av = node_val(nodes, param_arcs, vals, a);
                    let bv = node_val(nodes, param_arcs, vals, b);
                    for (o, &bi) in dep(nodes, reached, gops, a).iter_mut().zip(bv) {
                        *o += g0 * bi;
                    }
                    for (o, &ai) in dep(nodes, reached, gops, b).iter_mut().zip(av) {
                        *o += g0 * ai;
                    }
                }
                Op::SumElems(a) => {
                    let g0 = g[0];
                    for o in dep(nodes, reached, gops, a).iter_mut() {
                        *o += g0;
                    }
                }
                Op::Mean(a) => {
                    let ga = g[0] / nodes[a.idx()].len as f32;
                    for o in dep(nodes, reached, gops, a).iter_mut() {
                        *o += ga;
                    }
                }
                Op::Softmax(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    kernels::softmax_grad_acc(yv, g, dep(nodes, reached, gops, a));
                }
                Op::LogSoftmax(a) => {
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    kernels::log_softmax_grad_acc(yv, g, dep(nodes, reached, gops, a));
                }
                Op::Gather(a, idx) => {
                    dep(nodes, reached, gops, a)[idx as usize] += g[0];
                }
                Op::MulScalar { vec, scalar } => {
                    let s = node_val(nodes, param_arcs, vals, scalar)[0];
                    let vv = node_val(nodes, param_arcs, vals, vec);
                    for (o, &gi) in dep(nodes, reached, gops, vec).iter_mut().zip(g) {
                        *o += gi * s;
                    }
                    let gs: f32 = g.iter().zip(vv).map(|(gi, vi)| gi * vi).sum();
                    dep(nodes, reached, gops, scalar)[0] += gs;
                }
                Op::Slice { src } => {
                    let rel = (node.off - nodes[src.idx()].off) as usize;
                    let span = dep(nodes, reached, gops, src);
                    for (o, &v) in span[rel..rel + node.len as usize].iter_mut().zip(g) {
                        *o += v;
                    }
                }
                Op::Linear { x, lin } => {
                    let meta = &linears[lin as usize];
                    let (m, n) = (meta.out_dim as usize, meta.in_dim as usize);
                    let yv = &vals[node.off as usize..(node.off + node.len) as usize];
                    // gh = act'(y) ⊙ g, once per layer.
                    bwd_a.clear();
                    bwd_a.resize(m, 0.0);
                    kernels::act_backward_row(meta.act, yv, g, bwd_a);
                    // Flush db then dW: the decomposed recording pushes
                    // the bias param node after the weight node, so the
                    // reverse sweep flushes the bias first.
                    store.accumulate_grad(meta.bid, bwd_a);
                    if let Some(acc) = store.grad_acc_mut(meta.wid) {
                        let xv = node_val(nodes, param_arcs, vals, x);
                        outer_acc(bwd_a, xv, acc);
                    }
                    // dx = Wᵀ gh via the whole-matrix kernel.
                    bwd_b.clear();
                    bwd_b.resize(n, 0.0);
                    matvec_t_rows(meta.w.data(), n, bwd_a, bwd_b);
                    for (o, &v) in dep(nodes, reached, gops, x).iter_mut().zip(bwd_b.iter()) {
                        *o += v;
                    }
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
                        let lm = &linears[lin0 + l];
                        let (din, dout) = (lm.in_dim as usize, lm.out_dim as usize);
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
                            store.accumulate_grad(lm.bid, &bwd_a[r * dout..(r + 1) * dout]);
                        }
                        if let Some(acc) = store.grad_acc_mut(lm.wid) {
                            for r in (0..rows).rev() {
                                outer_acc(
                                    &bwd_a[r * dout..(r + 1) * dout],
                                    &xs[r * din..(r + 1) * din],
                                    acc,
                                );
                            }
                        }
                        // G_prev = Wᵀ gh per row, each row from zeroed
                        // scratch like the per-candidate matvec_t.
                        bwd_b.clear();
                        bwd_b.resize(rows * din, 0.0);
                        for r in 0..rows {
                            matvec_t_rows(
                                lm.w.data(),
                                din,
                                &bwd_a[r * dout..(r + 1) * dout],
                                &mut bwd_b[r * din..(r + 1) * din],
                            );
                        }
                        std::mem::swap(bwd_a, bwd_b);
                    }
                    // Deposit G_0 into the input nodes' gradient spans
                    // (reverse row order, matching the reverse sweep).
                    let d0 = linears[lin0].in_dim as usize;
                    for r in (0..rows).rev() {
                        let p = parts[mm.parts_start as usize + r];
                        let span = dep(nodes, reached, gops, p);
                        for (o, &v) in span.iter_mut().zip(&bwd_a[r * d0..(r + 1) * d0]) {
                            *o += v;
                        }
                    }
                }
                Op::MatVecP { x, meta } => {
                    let pm = &pmats[meta as usize];
                    let n = pm.in_dim as usize;
                    // dW = g ⊗ x straight into the store accumulator
                    // (same single product per element as the decomposed
                    // span-then-flush; frozen parameters skip it just
                    // like `accumulate_grad` does).
                    if let Some(acc) = store.grad_acc_mut(pm.wid) {
                        let xv = node_val(nodes, param_arcs, vals, x);
                        outer_acc(g, xv, acc);
                    }
                    // dx = Wᵀ g into zeroed scratch, then added — the
                    // exact two-step of the decomposed matvec backward.
                    bwd_a.clear();
                    bwd_a.resize(n, 0.0);
                    matvec_t_rows(pm.w.data(), n, g, bwd_a);
                    for (o, &v) in dep(nodes, reached, gops, x).iter_mut().zip(bwd_a.iter()) {
                        *o += v;
                    }
                }
                Op::GatCombine { meta } => {
                    let gm = &gats[meta as usize];
                    let n = gm.n_terms as usize;
                    let dim = node.len as usize;
                    let av = gm.a.data();
                    let aux = gm.aux_off as usize;
                    let s = &vals[aux..aux + n];
                    let z = &vals[aux + n..aux + 2 * n];
                    let pstart = gm.parts_start as usize;

                    // `sum_vec` + `mul_scalar` backward in one pass:
                    // each term's span takes g ⊙ z_i and each weight's
                    // gradient is g · t_i, in reverse term order exactly
                    // like the reverse sweep over the decomposed
                    // `mul_scalar` nodes (the anchor, term 0, collects
                    // its weighted-sum contribution last).
                    let mut gz = [0.0f32; MAX_GAT_TERMS];
                    for i in (0..n).rev() {
                        let t = parts[pstart + i];
                        let tv = node_val(nodes, param_arcs, vals, t);
                        let zi = z[i];
                        for (o, &gi) in dep(nodes, reached, gops, t).iter_mut().zip(g) {
                            *o += gi * zi;
                        }
                        gz[i] = g.iter().zip(tv).map(|(gi, vi)| gi * vi).sum();
                    }
                    // Softmax backward from the stored weights into the
                    // raw-score gradients (`gather` backward is the
                    // identity scatter).
                    let mut gr = [0.0f32; MAX_GAT_TERMS];
                    kernels::softmax_grad_acc(z, &gz[..n], &mut gr[..n]);
                    // Per-score LeakyReLU + dot + concat backward, in
                    // reverse score order. Each score flushes its own
                    // attention-vector gradient `gd · (anchor ‖ term)`
                    // to the store, mirroring the decomposed per-score
                    // `param` nodes; the anchor and term spans then take
                    // `gd · a[..dim]` / `gd · a[dim..]` — the exact
                    // values the decomposed dot + concat pair deposits.
                    bwd_a.clear();
                    bwd_a.resize(2 * dim, 0.0);
                    for i in (0..n).rev() {
                        let gd = if s[i] > 0.0 { gr[i] } else { gr[i] * gm.slope };
                        {
                            let anchor_v = node_val(nodes, param_arcs, vals, parts[pstart]);
                            let tv = node_val(nodes, param_arcs, vals, parts[pstart + i]);
                            for (o, &x) in bwd_a[..dim].iter_mut().zip(anchor_v) {
                                *o = gd * x;
                            }
                            for (o, &x) in bwd_a[dim..].iter_mut().zip(tv) {
                                *o = gd * x;
                            }
                        }
                        store.accumulate_grad(gm.aid, bwd_a);
                        for (o, &ai) in
                            dep(nodes, reached, gops, parts[pstart]).iter_mut().zip(&av[..dim])
                        {
                            *o += gd * ai;
                        }
                        for (o, &ai) in
                            dep(nodes, reached, gops, parts[pstart + i]).iter_mut().zip(&av[dim..])
                        {
                            *o += gd * ai;
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
    use crate::tape_ref::{RefTape, RefTapeBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn fused_gat_combine_matches_reference_bitwise() {
        let dim = 4;
        let slope = 0.2;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let a = ps.register("att.a", crate::init::small_uniform(&mut rng, 2 * dim, 0.5));
        // Terms as trainable parameters so every gradient path (anchor,
        // terms, attention vector) lands in the store for comparison.
        let term_ids: Vec<_> = (0..5)
            .map(|i| {
                ps.register(
                    format!("t{i}"),
                    crate::init::small_uniform(&mut rng, dim, 1.0),
                )
            })
            .collect();

        let mut ps_ref = ParamStore::from_json(&ps.to_json()).unwrap();
        let mut rt = RefTape::new();
        let (ref_val, loss) = {
            let mut b = RefTapeBackend::new(&mut rt, &ps_ref);
            let terms: Vec<_> = term_ids.iter().map(|&t| b.param(t)).collect();
            let c = b.gat_combine(a, slope, &terms);
            let sm = b.log_softmax(c);
            let loss = b.sum_elems(sm);
            (b.value(c).to_vec(), loss)
        };
        rt.backward(loss, &mut ps_ref);

        let mut g = Graph::new();
        let (val, loss) = {
            let mut b = TapeBackend::new(&mut g, &ps);
            let terms: Vec<_> = term_ids.iter().map(|&t| b.param(t)).collect();
            let c = b.gat_combine(a, slope, &terms);
            let sm = b.log_softmax(c);
            let loss = b.sum_elems(sm);
            (b.value(c).to_vec(), loss)
        };
        assert_eq!(val, ref_val, "fused forward must match the decomposed recording bitwise");
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
}
