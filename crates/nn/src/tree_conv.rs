//! Edge-aware tree convolution with optional graph attention
//! (Equations 2 and 5 of the paper).
//!
//! A tree-convolution layer slides a *triangle filter* over every local
//! parent/left-child/right-child window of a binary operator tree. The
//! LSched variant (Eq. 2) extends the classic filter of Mou et al. with two
//! extra terms for the edges connecting the parent to its children, so the
//! non-pipeline-breaking status and pipeline direction of each edge
//! participate in the convolution:
//!
//! ```text
//! x'_p = σ( W_p ⊛ x_p + W_m ⊛ x_m + W_{p,m} ⊛ e_{p,m}
//!                      + W_n ⊛ x_n + W_{p,n} ⊛ e_{p,n} )     (Eq. 2)
//! ```
//!
//! Two filter modes are provided:
//!
//! * [`FilterMode::Diagonal`] — weight **vectors** combined by Hadamard
//!   product, exactly the formulation printed in the paper (used by the
//!   worked Figure 4/5 examples in the tests);
//! * [`FilterMode::Dense`] — weight **matrices** (`⊛` = mat-vec), i.e. a
//!   bank of `out_dim` Hadamard-style filters evaluated at once. This is
//!   the "set of triangle filters (e.g., hundreds) defined on different
//!   tree convolution layers" the paper describes in practice, and is the
//!   mode used by LSched's encoder.
//!
//! With attention enabled, each of the five weighted terms is scaled by a
//! learned softmax-normalized importance score (Eq. 5) before summation.

use rand::rngs::StdRng;

use crate::backend::{Backend, TapeBackend};
use crate::gat::{PairAttention, ATTENTION_LEAKY_SLOPE};
use crate::graph::{Graph, NodeId};
use crate::init;
use crate::kernels::gat_combine_into;
use crate::layers::Activation;
use crate::params::{ParamId, ParamStore};
use crate::tensor::{matvec_rows, Tensor};

/// The order in which a filter combines its five products: self, right,
/// right edge, left, left edge, as indices into the
/// [`Backend::conv_filter`] input order (self, left, left edge, right,
/// right edge). With attention, the first term is the anchor.
pub(crate) const COMBINE_ORDER: [usize; 5] = [0, 3, 4, 1, 2];

/// Whether filter weights are vectors (paper's literal Hadamard
/// formulation) or matrices (a bank of such filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// Weight vectors, Hadamard product; `out_dim == in_dim` and
    /// `edge_dim == in_dim` are required.
    Diagonal,
    /// Weight matrices, matrix–vector product.
    Dense,
}

/// Configuration of a [`TreeConvLayer`].
#[derive(Debug, Clone)]
pub struct TreeConvConfig {
    /// Input embedding dimension per node.
    pub in_dim: usize,
    /// Output embedding dimension per node.
    pub out_dim: usize,
    /// Edge feature/embedding dimension.
    pub edge_dim: usize,
    /// Vector (Hadamard) or matrix filters.
    pub mode: FilterMode,
    /// Nonlinearity σ applied to the combined filter output.
    pub activation: Activation,
    /// Whether to add a learned bias term (not present in Eq. 2; enabled
    /// by default in the encoder for expressiveness).
    pub use_bias: bool,
    /// Whether to scale the five filter terms by GAT attention (Eq. 5).
    pub use_gat: bool,
}

impl TreeConvConfig {
    /// The configuration used by LSched's encoder stack.
    pub fn encoder(in_dim: usize, out_dim: usize, edge_dim: usize) -> Self {
        Self {
            in_dim,
            out_dim,
            edge_dim,
            mode: FilterMode::Dense,
            activation: Activation::LeakyRelu,
            use_bias: true,
            use_gat: true,
        }
    }

    /// The paper-literal configuration (Hadamard weights, identity σ, no
    /// bias) used to reproduce the Figure 4/5 worked examples.
    pub fn paper_literal(dim: usize, use_gat: bool) -> Self {
        Self {
            in_dim: dim,
            out_dim: dim,
            edge_dim: dim,
            mode: FilterMode::Diagonal,
            activation: Activation::None,
            use_bias: false,
            use_gat,
        }
    }
}

/// The binary-tree structure a [`TreeConvLayer`] convolves over.
///
/// `children[p]` holds, for parent node `p`, the optional
/// `(child_node, edge_index)` pairs for the left and right child. Missing
/// children are padded with zero embeddings and zero edges, the standard
/// leaf treatment in tree convolution.
#[derive(Debug, Clone, Default)]
pub struct TreeSpec {
    /// Per-node `[left, right]` child links as `(child, edge)` indices.
    pub children: Vec<[Option<(usize, usize)>; 2]>,
}

impl TreeSpec {
    /// Creates a spec with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Self { children: vec![[None, None]; n] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Attaches `child` (via `edge`) as the next free slot of `parent`.
    ///
    /// # Panics
    /// Panics if `parent` already has two children.
    pub fn attach(&mut self, parent: usize, child: usize, edge: usize) {
        let slots = &mut self.children[parent];
        if slots[0].is_none() {
            slots[0] = Some((child, edge));
        } else if slots[1].is_none() {
            slots[1] = Some((child, edge));
        } else {
            panic!("node {parent} already has two children (binary trees only)");
        }
    }
}

/// One edge-aware tree-convolution layer with optional GAT weighting.
#[derive(Debug, Clone)]
pub struct TreeConvLayer {
    cfg: TreeConvConfig,
    w_self: ParamId,
    w_left: ParamId,
    w_right: ParamId,
    w_edge_left: ParamId,
    w_edge_right: ParamId,
    bias: Option<ParamId>,
    attention: Option<PairAttention>,
}

impl TreeConvLayer {
    /// Creates the layer, registering parameters under `"{name}.*"`.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: TreeConvConfig) -> Self {
        if cfg.mode == FilterMode::Diagonal {
            assert_eq!(cfg.in_dim, cfg.out_dim, "Diagonal filters preserve dimension");
            assert_eq!(cfg.edge_dim, cfg.in_dim, "Diagonal filters need edge_dim == in_dim");
        }
        let node_w = |store: &mut ParamStore, rng: &mut StdRng, n: String| match cfg.mode {
            FilterMode::Diagonal => store.register(n, init::small_uniform(rng, cfg.in_dim, 0.5)),
            FilterMode::Dense => store.register(n, init::xavier_uniform(rng, cfg.out_dim, cfg.in_dim)),
        };
        let edge_w = |store: &mut ParamStore, rng: &mut StdRng, n: String| match cfg.mode {
            FilterMode::Diagonal => store.register(n, init::small_uniform(rng, cfg.edge_dim, 0.5)),
            FilterMode::Dense => store.register(n, init::xavier_uniform(rng, cfg.out_dim, cfg.edge_dim)),
        };
        let w_self = node_w(store, rng, format!("{name}.w_self"));
        let w_left = node_w(store, rng, format!("{name}.w_left"));
        let w_right = node_w(store, rng, format!("{name}.w_right"));
        let w_edge_left = edge_w(store, rng, format!("{name}.w_edge_left"));
        let w_edge_right = edge_w(store, rng, format!("{name}.w_edge_right"));
        let bias = cfg
            .use_bias
            .then(|| store.register(format!("{name}.bias"), init::zeros_vec(cfg.out_dim)));
        let attention = cfg
            .use_gat
            .then(|| PairAttention::new(store, rng, &format!("{name}.gat"), cfg.out_dim));
        Self { cfg, w_self, w_left, w_right, w_edge_left, w_edge_right, bias, attention }
    }

    /// The layer's configuration.
    pub fn config(&self) -> &TreeConvConfig {
        &self.cfg
    }

    /// Overwrites a filter weight by role, for tests that reproduce the
    /// paper's worked examples. Roles: `self`, `left`, `right`,
    /// `edge_left`, `edge_right`.
    pub fn set_weight(&self, store: &mut ParamStore, role: &str, value: Tensor) {
        let id = match role {
            "self" => self.w_self,
            "left" => self.w_left,
            "right" => self.w_right,
            "edge_left" => self.w_edge_left,
            "edge_right" => self.w_edge_right,
            other => panic!("unknown filter role {other:?}"),
        };
        assert_eq!(store.value(id).shape(), value.shape(), "weight shape mismatch");
        *store.value_mut(id) = value;
    }

    fn apply_weight_on<B: Backend + ?Sized>(&self, b: &mut B, w: ParamId, x: B::Id) -> B::Id {
        match self.cfg.mode {
            FilterMode::Diagonal => {
                let wv = b.param(w);
                b.mul(wv, x)
            }
            FilterMode::Dense => {
                let wv = b.param(w);
                b.matvec(wv, x)
            }
        }
    }

    /// Convolves one layer over the whole tree (the tape instantiation of
    /// [`TreeConvLayer::forward_on`]).
    ///
    /// `nodes[i]` is the previous-layer embedding of node `i` (dimension
    /// `in_dim`); `edges[j]` is the (static) embedding of edge `j`
    /// (dimension `edge_dim`). Returns one `out_dim` embedding per node.
    /// Outputs within a layer depend only on previous-layer embeddings, so
    /// unlike sequential message passing there is no intra-layer fusion
    /// (the paper's over-smoothing argument, Section 4.2.1).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        tree: &TreeSpec,
        nodes: &[NodeId],
        edges: &[NodeId],
    ) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(nodes.len());
        self.forward_on(&mut TapeBackend::new(g, store), tree, nodes, edges, &mut out);
        out
    }

    /// Convolves one layer over the whole tree on any [`Backend`],
    /// writing one `out_dim` embedding handle per node into `out`
    /// (cleared first): the zero pads for missing children, then one
    /// [filter application](Self::filter_on) per node in index order.
    /// Each application runs through the backend's
    /// [`Backend::conv_filter`] seam (one fused kernel on the inference
    /// backend, one fused node on the training tape, the decomposed ops
    /// on the reference tape) and all per-node scratch
    /// lives in fixed-size arrays or backend-owned buffers, so a
    /// warmed-up call performs no heap allocations on any backend.
    pub fn forward_on<B: Backend>(
        &self,
        b: &mut B,
        tree: &TreeSpec,
        nodes: &[B::Id],
        edges: &[B::Id],
        out: &mut Vec<B::Id>,
    ) {
        self.forward_cone_on(b, tree, nodes, edges, None, out);
    }

    /// [`forward_on`](Self::forward_on), optionally restricted to a dirty
    /// cone: with `cone`, a node whose filter inputs did not change
    /// re-enters from the memoized row instead of being recomputed, and a
    /// recomputed node re-multiplies only the filter products whose input
    /// changed.
    fn forward_cone_on<B: Backend>(
        &self,
        b: &mut B,
        tree: &TreeSpec,
        nodes: &[B::Id],
        edges: &[B::Id],
        mut cone: Option<&mut Cone<'_>>,
        out: &mut Vec<B::Id>,
    ) {
        assert_eq!(tree.len(), nodes.len(), "tree/node count mismatch");
        let pads = (b.input_with(self.cfg.in_dim, |_| {}), b.input_with(self.cfg.edge_dim, |_| {}));
        out.clear();
        out.reserve(nodes.len());
        for p in 0..tree.len() {
            out.push(match cone.as_mut() {
                Some(c) => {
                    // Node p's child links are the next attachments.
                    let first = c.attached;
                    c.attached += tree.children[p].iter().flatten().count();
                    if c.dirty(tree, p) {
                        let cached = Some(c.products(tree, p, first));
                        let y = self.filter_on(b, tree, p, nodes, edges, pads, cached);
                        c.record(p, b.value(y));
                        y
                    } else {
                        c.reuse.nodes += 1;
                        b.input(c.row(p))
                    }
                }
                None => self.filter_on(b, tree, p, nodes, edges, pads, None),
            });
        }
    }

    /// One filter application (Eq. 2, with Eq. 5 attention): node `p`'s
    /// output from the previous-layer embeddings of `p` and its children
    /// and the embeddings of the connecting edges; `pads` stand in for a
    /// missing child and its edge. `cached` holds the products of `p`'s
    /// last application under a memo.
    #[allow(clippy::too_many_arguments)]
    fn filter_on<B: Backend>(
        &self,
        b: &mut B,
        tree: &TreeSpec,
        p: usize,
        nodes: &[B::Id],
        edges: &[B::Id],
        (zero_node, zero_edge): (B::Id, B::Id),
        cached: Option<FilterProducts<'_>>,
    ) -> B::Id {
        let slots = &tree.children[p];
        let (xl, el) = match slots[0] {
            Some((c, e)) => (nodes[c], edges[e]),
            None => (zero_node, zero_edge),
        };
        let (xr, er) = match slots[1] {
            Some((c, e)) => (nodes[c], edges[e]),
            None => (zero_node, zero_edge),
        };
        b.conv_filter(self, [nodes[p], xl, el, xr, er], cached)
    }

    /// The filter weights in [`Backend::conv_filter`]'s input order:
    /// self, left, left edge, right, right edge.
    pub(crate) fn weights(&self) -> [ParamId; 5] {
        [self.w_self, self.w_left, self.w_edge_left, self.w_right, self.w_edge_right]
    }

    /// The bias parameter, if the layer has one.
    pub(crate) fn bias_id(&self) -> Option<ParamId> {
        self.bias
    }

    /// The shared attention vector, if the layer weights its terms by
    /// GAT attention.
    pub(crate) fn attention_id(&self) -> Option<ParamId> {
        self.attention.as_ref().map(PairAttention::param_id)
    }

    /// The decomposed filter application behind [`Backend::conv_filter`]'s
    /// default: the five filter products, the attention combine (or the
    /// plain sum), the bias and the activation, one backend op each in
    /// the order the tape has always recorded.
    pub(crate) fn filter_ops_on<B: Backend + ?Sized>(&self, b: &mut B, x: [B::Id; 5]) -> B::Id {
        let w = self.weights();
        let prods = [0, 1, 2, 3, 4].map(|i| self.apply_weight_on(b, w[i], x[i]));
        let terms = COMBINE_ORDER.map(|i| prods[i]);

        let combined = if let Some(att) = &self.attention {
            // Eq. 3–5 through the backend's attention-combine seam: one
            // score per filter term (incl. the parent itself, the
            // anchor), softmax-normalized, then the attention-scaled sum.
            b.gat_combine(att.param_id(), ATTENTION_LEAKY_SLOPE, &terms)
        } else {
            b.sum_vec(&terms)
        };

        let biased = match self.bias {
            Some(bias) => {
                let bv = b.param(bias);
                b.add(combined, bv)
            }
            None => combined,
        };
        self.cfg.activation.apply_on(b, biased)
    }

    /// The fused filter application: [`filter_ops_on`](Self::filter_ops_on)'s
    /// values, bit for bit, computed in one pass over plain slices: the
    /// five [products](Self::products_into) go into `prod` (`5 × out_dim`
    /// scratch, input order), then [`combine_into`](Self::combine_into)
    /// writes `out` and returns the attention scores and weights.
    pub(crate) fn filter_into(
        &self,
        store: &ParamStore,
        x: [&[f32]; 5],
        prod: &mut [f32],
        out: &mut [f32],
    ) -> ([f32; 5], [f32; 5]) {
        let d = self.cfg.out_dim;
        let mut rows = prod
            .get_disjoint_mut([0, 1, 2, 3, 4].map(|i| i * d..(i + 1) * d))
            .expect("prod holds five out_dim rows");
        self.products_into(store, x, [true; 5], &mut rows);
        self.combine_into(store, rows.map(|r| &*r), out)
    }

    /// Writes the filter products of the inputs marked `stale` into their
    /// `out_dim` rows of `prod` (input order) and leaves the others as
    /// they are. Each product repeats the arithmetic of the backend op it
    /// stands for: [`matvec_rows`] (zero for an empty input) or `w * x`.
    pub(crate) fn products_into(
        &self,
        store: &ParamStore,
        x: [&[f32]; 5],
        stale: [bool; 5],
        prod: &mut [&mut [f32]; 5],
    ) {
        for (((&w, xi), p), _) in
            self.weights().iter().zip(x).zip(prod.iter_mut()).zip(stale).filter(|(_, s)| *s)
        {
            debug_assert_eq!(p.len(), self.cfg.out_dim);
            let w = store.value(w).data();
            match self.cfg.mode {
                FilterMode::Diagonal => {
                    for ((o, &wv), &xv) in p.iter_mut().zip(w).zip(xi) {
                        *o = wv * xv;
                    }
                }
                FilterMode::Dense if xi.is_empty() => p.fill(0.0),
                FilterMode::Dense => matvec_rows(w, xi.len(), xi, p),
            }
        }
    }

    /// The rest of a filter application over its five products `prod`
    /// (input order): the attention combine (or the plain sum) over the
    /// zeroed `out` in [`COMBINE_ORDER`], the bias and the activation.
    /// Returns the five raw attention scores and the five softmax weights
    /// (all zero without attention), which the training tape keeps for
    /// its backward.
    pub(crate) fn combine_into(
        &self,
        store: &ParamStore,
        prod: [&[f32]; 5],
        out: &mut [f32],
    ) -> ([f32; 5], [f32; 5]) {
        debug_assert_eq!(out.len(), self.cfg.out_dim);
        let terms: [&[f32]; 5] = COMBINE_ORDER.map(|i| prod[i]);
        let (mut s, mut z) = ([0.0f32; 5], [0.0f32; 5]);
        match &self.attention {
            Some(att) => {
                let a = store.value(att.param_id()).data();
                gat_combine_into(a, ATTENTION_LEAKY_SLOPE, &terms, &mut s, &mut z, out);
            }
            None => {
                for t in terms {
                    for (o, &v) in out.iter_mut().zip(t) {
                        *o += v;
                    }
                }
            }
        }
        let act = self.cfg.activation;
        match self.bias {
            Some(bias) => {
                for (o, &bv) in out.iter_mut().zip(store.value(bias).data()) {
                    *o = act.eval(*o + bv);
                }
            }
            None => {
                for o in out.iter_mut() {
                    *o = act.eval(*o);
                }
            }
        }
        (s, z)
    }
}

/// The five filter products of one memoized filter application, handed
/// to [`Backend::conv_filter`] by a [`ConvMemo`] pass: `prod` holds the
/// products of the filter's inputs as the memo last computed them (one
/// `out_dim` row each, input order), and `stale[i]` says that input `i`
/// changed since, so product `i` must be recomputed in place before the
/// combine. After the call every product describes the current inputs.
#[derive(Debug)]
pub struct FilterProducts<'m> {
    pub(crate) prod: [&'m mut [f32]; 5],
    pub(crate) stale: [bool; 5],
}

/// What one [`TreeConvStack::forward_memo_on`] pass took from its memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvReuse {
    /// Node outputs (over all layers) served from the memo instead of a
    /// filter application.
    pub nodes: usize,
    /// Filter products the filter applications that did run needed (five
    /// each).
    pub products: usize,
    /// Of those, the products served from the memo instead of being
    /// multiplied again.
    pub product_hits: usize,
}

/// The per-layer outputs and filter products of one tree's last
/// convolution, so the next pass over the same tree under the same
/// weights recomputes only the nodes, and within them only the products,
/// whose inputs moved (see [`TreeConvStack::forward_memo_on`]).
///
/// A layer-ℓ output depends only on the layer-(ℓ−1) outputs of the node
/// and its children, so a change at one node reaches at most one ancestor
/// per layer. Per pass, the caller [`begin`](Self::begin)s the memo and
/// [marks](Self::mark_changed) the nodes whose layer-0 input changed; at
/// layer ℓ a node is recomputed only if it or a child changed at layer
/// ℓ−1, and a recomputed node whose output bits equal the stored row
/// counts as unchanged, so the change stops spreading.
///
/// **Product contract.** The memo keeps each node's five filter products
/// per layer, stored once per input they multiply: every node's own
/// product, every child link's child and edge products (a link belongs
/// to one parent slot), and four pad products per layer shared by every
/// missing child. A recomputed node re-multiplies only the products whose
/// input changed at layer ℓ−1 by the same flags: its own (self), and a
/// child's (left or right). Edge inputs are static and pads are zero, so
/// their products are computed by a full pass and stay valid until the
/// next `begin(.., false)`. No input bits are stored: by induction over
/// passes, every stored product was computed from the input's current
/// value, because any pass that moves an input recomputes every product
/// that reads it.
///
/// The memo holds no key: the caller must begin with `keep == false`
/// whenever the tree, the weights or the layer-0 rows the flags are
/// relative to may differ from the last pass, and that pass recomputes
/// every node and every product.
#[derive(Debug, Default)]
pub struct ConvMemo {
    /// Row `p` of layer `l` at `(l * n + p) * dim`.
    rows: Vec<f32>,
    /// Per layer, the product rows (`dim` each) of the layer's filters:
    /// node `p`'s own product at row `p`, then each child link's child
    /// products (in link order: nodes in index order, left slot first),
    /// its edge products, and the four pad products (input order) —
    /// [`Cone::products`] is the one place that maps inputs to rows.
    /// Empty for a memo filled by [`record_outputs`](Self::record_outputs).
    prods: Vec<f32>,
    /// Child links of the tree the products were sized for.
    links: usize,
    dim: usize,
    /// Per node: whether its output at the layer just run changed.
    changed: Vec<bool>,
    /// The next layer's flags while it runs.
    next: Vec<bool>,
    /// Whether `rows` and `prods` hold the values of the last pass.
    valid: bool,
}

impl ConvMemo {
    /// Starts a pass over a tree of `n` nodes with every node unchanged.
    /// `keep == false` drops the stored rows and products, so the pass
    /// recomputes every node (and reports every node changed).
    pub fn begin(&mut self, n: usize, keep: bool) {
        self.valid &= keep && self.changed.len() == n;
        self.changed.clear();
        self.changed.resize(n, false);
    }

    /// Marks node `p`'s layer-0 input as changed since the last pass.
    pub fn mark_changed(&mut self, p: usize) {
        self.changed[p] = true;
    }

    /// After a pass: per node, whether its final output changed since the
    /// previous pass (every node after a pass that recomputed everything).
    pub fn changed(&self) -> &[bool] {
        &self.changed
    }

    /// After a pass: every node's final output row, node by node in one
    /// contiguous block (`out_dim` values per node).
    pub fn outputs(&self) -> &[f32] {
        &self.rows[self.rows.len() - self.changed.len() * self.dim..]
    }

    /// Records final outputs `outs` computed without the dirty-cone rule
    /// (an encoder whose layers are not local, e.g. sequential message
    /// passing), keeping only the last layer: a node counts as changed if
    /// its output bits moved since the previous pass.
    pub fn record_outputs<B: Backend>(&mut self, b: &B, outs: &[B::Id]) {
        debug_assert_eq!(outs.len(), self.changed.len());
        let dim = outs.first().map_or(0, |&o| b.value(o).len());
        self.reserve(1, dim, None);
        let mut cone = self.cone(0);
        for (p, &o) in outs.iter().enumerate() {
            cone.record(p, b.value(o));
        }
        self.finish_layer();
        self.valid = true;
    }

    /// Sizes the rows for `layers × n` outputs of width `dim`, and, given
    /// the tree's child-link count, the products of their filter
    /// applications, marking the memo invalid if the shape changed.
    fn reserve(&mut self, layers: usize, dim: usize, links: Option<usize>) {
        let n = self.changed.len();
        let len = layers * n * dim;
        let plen = links.map_or(0, |a| layers * Self::layer_products(n, a) * dim);
        let links = links.unwrap_or(0);
        if self.rows.len() != len || self.prods.len() != plen || self.dim != dim || self.links != links {
            self.rows.clear();
            self.rows.resize(len, 0.0);
            self.prods.clear();
            self.prods.resize(plen, 0.0);
            self.dim = dim;
            self.links = links;
            self.valid = false;
        }
    }

    /// Product rows per layer for `n` nodes with `links` child links.
    fn layer_products(n: usize, links: usize) -> usize {
        n + 2 * links + 4
    }

    /// The dirty-cone view of layer `l` for one pass.
    fn cone(&mut self, l: usize) -> Cone<'_> {
        let (n, dim) = (self.changed.len(), self.dim);
        self.next.clear();
        self.next.resize(n, false);
        let layer_prods = Self::layer_products(n, self.links) * dim;
        Cone {
            rows: &mut self.rows[l * n * dim..(l + 1) * n * dim],
            prods: self.prods.get_mut(l * layer_prods..(l + 1) * layer_prods).unwrap_or_default(),
            links: self.links,
            attached: 0,
            dim,
            changed: &self.changed,
            next: &mut self.next,
            full: !self.valid,
            reuse: ConvReuse::default(),
        }
    }

    /// Makes the layer just run the input of the next one.
    fn finish_layer(&mut self) {
        std::mem::swap(&mut self.changed, &mut self.next);
    }

    /// Drops everything (capacity kept); the next pass recomputes every
    /// node.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.prods.clear();
        self.changed.clear();
        self.next.clear();
        self.valid = false;
    }
}

/// One layer's slice of a [`ConvMemo`] during a pass.
struct Cone<'m> {
    rows: &'m mut [f32],
    /// The layer's product rows (see [`ConvMemo`]'s `prods`).
    prods: &'m mut [f32],
    /// The tree's child-link count.
    links: usize,
    /// Child links of the nodes visited so far this layer.
    attached: usize,
    dim: usize,
    /// The previous layer's change flags.
    changed: &'m [bool],
    /// This layer's change flags, written by [`Cone::record`].
    next: &'m mut [bool],
    /// Recompute (and flag) every node: the rows hold no usable values.
    full: bool,
    /// What the layer took from the memo so far.
    reuse: ConvReuse,
}

impl Cone<'_> {
    /// Whether node `p`'s filter inputs changed at the previous layer.
    fn dirty(&self, tree: &TreeSpec, p: usize) -> bool {
        self.full
            || self.changed[p]
            || tree.children[p].iter().flatten().any(|&(c, _)| self.changed[c])
    }

    fn row(&self, p: usize) -> &[f32] {
        &self.rows[p * self.dim..(p + 1) * self.dim]
    }

    /// Node `p`'s stored products for a filter application, with the
    /// inputs that changed at the previous layer marked stale: its own
    /// and its children's, never an edge or a pad (everything on a full
    /// pass). `first` is the index of `p`'s first child link.
    fn products(&mut self, tree: &TreeSpec, p: usize, first: usize) -> FilterProducts<'_> {
        let (changed, d) = (self.changed, self.dim);
        let (own, rest) = self.prods.split_at_mut(changed.len() * d);
        let (child, rest) = rest.split_at_mut(self.links * d);
        let (edge, mut pad) = rest.split_at_mut(self.links * d);
        // `p`'s child links are consecutive from `first`; each slot owns
        // two pad rows, which a missing child takes.
        let (mut child, mut edge) = (&mut child[first * d..], &mut edge[first * d..]);
        let mut slot = |s: Option<(usize, usize)>| {
            let pads = (take_row(&mut pad, d), take_row(&mut pad, d));
            match s {
                Some((c, _)) => (take_row(&mut child, d), take_row(&mut edge, d), changed[c]),
                None => (pads.0, pads.1, false),
            }
        };
        let (lc, le, lmoved) = slot(tree.children[p][0]);
        let (rc, re, rmoved) = slot(tree.children[p][1]);
        let stale = if self.full { [true; 5] } else { [changed[p], lmoved, false, rmoved, false] };
        self.reuse.products += 5;
        self.reuse.product_hits += stale.iter().filter(|&&s| !s).count();
        FilterProducts { prod: [&mut own[p * d..(p + 1) * d], lc, le, rc, re], stale }
    }

    /// Stores recomputed output `y` of node `p`; it counts as changed
    /// unless its bits equal the stored row's.
    fn record(&mut self, p: usize, y: &[f32]) {
        let row = &mut self.rows[p * self.dim..(p + 1) * self.dim];
        let same = !self.full && row.iter().zip(y).all(|(r, v)| r.to_bits() == v.to_bits());
        if !same {
            row.copy_from_slice(y);
        }
        self.next[p] = !same;
    }
}

/// Splits the first `d` values off `buf`.
fn take_row<'a>(buf: &mut &'a mut [f32], d: usize) -> &'a mut [f32] {
    let (row, rest) = std::mem::take(buf).split_at_mut(d);
    *buf = rest;
    row
}

/// A stack of tree-convolution layers (the paper stacks several to widen
/// the filters' receptive field, Section 4.2.2).
#[derive(Debug, Clone)]
pub struct TreeConvStack {
    layers: Vec<TreeConvLayer>,
}

impl TreeConvStack {
    /// Builds a stack: the first layer maps `in_dim -> hidden`, the
    /// remaining `depth - 1` layers map `hidden -> hidden`. All layers
    /// share `edge_dim` (edge embeddings are static across layers, as in
    /// Eq. 2 where edges have no update rule).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        edge_dim: usize,
        depth: usize,
        use_gat: bool,
    ) -> Self {
        assert!(depth >= 1, "TreeConvStack needs at least one layer");
        let mut layers = Vec::with_capacity(depth);
        for l in 0..depth {
            let mut cfg = TreeConvConfig::encoder(
                if l == 0 { in_dim } else { hidden },
                hidden,
                edge_dim,
            );
            cfg.use_gat = use_gat;
            layers.push(TreeConvLayer::new(store, rng, &format!("{name}.conv{l}"), cfg));
        }
        Self { layers }
    }

    /// A stack of the given layers, run in order (e.g. paper-literal
    /// [`FilterMode::Diagonal`] layers).
    ///
    /// # Panics
    /// Panics if `layers` is empty or a layer's input width is not the
    /// previous layer's output width.
    pub fn from_layers(layers: Vec<TreeConvLayer>) -> Self {
        assert!(!layers.is_empty(), "TreeConvStack needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].cfg.out_dim, pair[1].cfg.in_dim, "layer widths must chain");
        }
        Self { layers }
    }

    /// Runs every layer in order, returning the final per-node embeddings
    /// (the tape instantiation of [`TreeConvStack::forward_on`]).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        tree: &TreeSpec,
        nodes: &[NodeId],
        edges: &[NodeId],
    ) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(nodes.len());
        self.forward_on(&mut TapeBackend::new(g, store), tree, nodes, edges, &mut out);
        out
    }

    /// Runs every layer in order on any [`Backend`], writing the final
    /// per-node embedding handles into `out` (cleared first). The two
    /// per-layer handle vectors ping-pong through the backend's id pool,
    /// so warmed-up inference calls allocate nothing.
    pub fn forward_on<B: Backend>(
        &self,
        b: &mut B,
        tree: &TreeSpec,
        nodes: &[B::Id],
        edges: &[B::Id],
        out: &mut Vec<B::Id>,
    ) {
        self.forward_memo_on(b, tree, nodes, edges, None, out);
    }

    /// [`forward_on`](Self::forward_on) with an optional [`ConvMemo`]
    /// (begun by the caller): every layer runs only over the dirty cone
    /// of the marked nodes, every other node re-enters from the memo
    /// through [`Backend::input`], and a node that does run re-multiplies
    /// only its filter products whose input moved. Returns what the pass
    /// took from the memo. The values are bit-identical to a full pass;
    /// without a memo this *is* the full pass, in the op order the tape
    /// has always recorded. A memo needs a backend that admits memoized
    /// values ([`Backend::memo_stamp`]).
    pub fn forward_memo_on<B: Backend>(
        &self,
        b: &mut B,
        tree: &TreeSpec,
        nodes: &[B::Id],
        edges: &[B::Id],
        mut memo: Option<&mut ConvMemo>,
        out: &mut Vec<B::Id>,
    ) -> ConvReuse {
        out.clear();
        out.extend_from_slice(nodes);
        if let Some(m) = memo.as_deref_mut() {
            debug_assert!(b.memo_stamp().is_some(), "a ConvMemo on a recording backend");
            debug_assert_eq!(m.changed.len(), tree.len(), "ConvMemo begun for another tree");
            let links = tree.children.iter().flatten().flatten().count();
            m.reserve(self.layers.len(), self.out_dim(), Some(links));
        }
        let mut reuse = ConvReuse::default();
        let mut scratch = b.take_ids();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut cone = memo.as_deref_mut().map(|m| m.cone(l));
            layer.forward_cone_on(b, tree, out, edges, cone.as_mut(), &mut scratch);
            if let Some(c) = cone {
                reuse.nodes += c.reuse.nodes;
                reuse.products += c.reuse.products;
                reuse.product_hits += c.reuse.product_hits;
            }
            if let Some(m) = memo.as_deref_mut() {
                m.finish_layer();
            }
            std::mem::swap(out, &mut scratch);
        }
        if let Some(m) = memo {
            m.valid = true;
        }
        b.recycle_ids(scratch);
        reuse
    }

    /// Number of layers in the stack.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension of the stack.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].config().out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reproduces the Figure 4 TCN worked example: a query with two INLJ
    /// operators (o3, o4) over two index-scans (o1, o2); O-TY features
    /// [is_inlj, is_index_scan]; parent filter weight [1,-1], child
    /// weights [-1,1]. The embedding of o3 must be [1,2] and embeddings of
    /// INLJ nodes must be non-negative (TCN detects the pattern; GCN does
    /// not — see the paper's "Quality Comparison").
    #[test]
    fn figure4_tcn_worked_example() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TreeConvConfig::paper_literal(2, false);
        let layer = TreeConvLayer::new(&mut ps, &mut rng, "tcn", cfg);
        layer.set_weight(&mut ps, "self", Tensor::vector(vec![1.0, -1.0]));
        layer.set_weight(&mut ps, "left", Tensor::vector(vec![-1.0, 1.0]));
        layer.set_weight(&mut ps, "right", Tensor::vector(vec![-1.0, 1.0]));
        // Edges carry no features in the Figure 4 example.
        layer.set_weight(&mut ps, "edge_left", Tensor::vector(vec![0.0, 0.0]));
        layer.set_weight(&mut ps, "edge_right", Tensor::vector(vec![0.0, 0.0]));

        // Tree: o4(INLJ) -> {o3(INLJ), o2(scan)}; o3 -> {o1(scan)}.
        // Node order: o1=0, o2=1, o3=2, o4=3.
        let mut tree = TreeSpec::with_nodes(4);
        tree.attach(2, 0, 0); // o3 -> o1
        tree.attach(3, 2, 1); // o4 -> o3
        tree.attach(3, 1, 2); // o4 -> o2

        let mut g = Graph::new();
        let feats = [
            vec![0.0, 1.0], // o1 index-scan
            vec![0.0, 1.0], // o2 index-scan
            vec![1.0, 0.0], // o3 INLJ
            vec![1.0, 0.0], // o4 INLJ
        ];
        let nodes: Vec<NodeId> = feats.iter().map(|f| g.input_vec(f.clone())).collect();
        let edges: Vec<NodeId> = (0..3).map(|_| g.input_vec(vec![0.0, 0.0])).collect();

        let out = layer.forward(&mut g, &ps, &tree, &nodes, &edges);
        // o3 = ([1,-1]⊙[1,0]) + ([-1,1]⊙[0,1]) + ([-1,1]⊙[0,1]) — with one
        // child only, the missing slot contributes zero: [1,0]+[0,1] = [1,1].
        assert_eq!(g.value(out[2]).data(), &[1.0, 1.0]);
        // o4 = [1,0] + (-[1,0]+... ) children are o3 [1,0] and o2 [0,1]:
        // [1,0]*[1,-1] + [1,0]*[-1,1] + [0,1]*[-1,1] = [1,0]+[-1,0]+[0,1] = [0,1]
        assert_eq!(g.value(out[3]).data(), &[0.0, 1.0]);
        // INLJ-pattern nodes end non-negative in every component.
        for &n in &[out[2], out[3]] {
            assert!(g.value(n).data().iter().all(|&v| v >= 0.0));
        }
    }

    /// The exact paper computation for o3 assumes both child slots carry
    /// the [0,1] index-scan embedding: ([1,-1]⊙[1,0]) + ([-1,1]⊙[0,1]) +
    /// ([-1,1]⊙[0,1]) = [1,2].
    #[test]
    fn figure4_exact_two_children() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer =
            TreeConvLayer::new(&mut ps, &mut rng, "tcn", TreeConvConfig::paper_literal(2, false));
        layer.set_weight(&mut ps, "self", Tensor::vector(vec![1.0, -1.0]));
        layer.set_weight(&mut ps, "left", Tensor::vector(vec![-1.0, 1.0]));
        layer.set_weight(&mut ps, "right", Tensor::vector(vec![-1.0, 1.0]));
        layer.set_weight(&mut ps, "edge_left", Tensor::vector(vec![0.0, 0.0]));
        layer.set_weight(&mut ps, "edge_right", Tensor::vector(vec![0.0, 0.0]));

        let mut tree = TreeSpec::with_nodes(3);
        tree.attach(2, 0, 0);
        tree.attach(2, 1, 1);
        let mut g = Graph::new();
        let nodes = vec![
            g.input_vec(vec![0.0, 1.0]),
            g.input_vec(vec![0.0, 1.0]),
            g.input_vec(vec![1.0, 0.0]),
        ];
        let edges = vec![g.input_vec(vec![0.0, 0.0]), g.input_vec(vec![0.0, 0.0])];
        let out = layer.forward(&mut g, &ps, &tree, &nodes, &edges);
        assert_eq!(g.value(out[2]).data(), &[1.0, 2.0]);
    }

    #[test]
    fn dense_stack_shapes() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let stack = TreeConvStack::new(&mut ps, &mut rng, "enc", 6, 8, 3, 3, true);
        assert_eq!(stack.depth(), 3);
        assert_eq!(stack.out_dim(), 8);

        let mut tree = TreeSpec::with_nodes(3);
        tree.attach(2, 0, 0);
        tree.attach(2, 1, 1);
        let mut g = Graph::new();
        let nodes = vec![
            g.input_vec(vec![0.1; 6]),
            g.input_vec(vec![0.2; 6]),
            g.input_vec(vec![0.3; 6]),
        ];
        let edges = vec![g.input_vec(vec![1.0, 0.0, 1.0]), g.input_vec(vec![0.0, 1.0, 0.5])];
        let out = stack.forward(&mut g, &ps, &tree, &nodes, &edges);
        assert_eq!(out.len(), 3);
        for n in out {
            assert_eq!(g.value(n).len(), 8);
        }
    }

    #[test]
    fn gat_weighting_changes_output() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let with = TreeConvLayer::new(
            &mut ps,
            &mut rng,
            "gat_on",
            TreeConvConfig { use_gat: true, ..TreeConvConfig::encoder(4, 4, 2) },
        );
        let without = TreeConvLayer::new(
            &mut ps,
            &mut rng,
            "gat_off",
            TreeConvConfig { use_gat: false, ..TreeConvConfig::encoder(4, 4, 2) },
        );
        let mut tree = TreeSpec::with_nodes(2);
        tree.attach(1, 0, 0);
        let mut g = Graph::new();
        let nodes = vec![g.input_vec(vec![1.0, -1.0, 0.5, 0.0]), g.input_vec(vec![0.2; 4])];
        let edges = vec![g.input_vec(vec![1.0, 0.0])];
        let a = with.forward(&mut g, &ps, &tree, &nodes, &edges);
        let b = without.forward(&mut g, &ps, &tree, &nodes, &edges);
        // Different parameterizations — just verify both produce finite
        // embeddings of the right shape and are not trivially equal.
        assert_eq!(g.value(a[1]).len(), 4);
        assert_eq!(g.value(b[1]).len(), 4);
        assert!(g.value(a[1]).data().iter().all(|v| v.is_finite()));
    }

    /// Figure 5's qualitative claim: with GAT enabled, the learned
    /// attention can shift the parent's embedding toward the more
    /// important (bottleneck) child, which plain tree convolution's
    /// isotropic aggregation cannot do. We hand-craft an attention
    /// vector that favours the larger-magnitude child and verify the
    /// parent embedding correlates more with that child than the
    /// attention-free output does.
    #[test]
    fn figure5_attention_shifts_importance_to_heavy_child() {
        let dim = 2;
        let build = |use_gat: bool, seed: u64| {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = TreeConvLayer::new(
                &mut ps,
                &mut rng,
                "f5",
                TreeConvConfig::paper_literal(dim, use_gat),
            );
            // Identity-ish filter weights: every term passes through.
            for role in ["self", "left", "right"] {
                layer.set_weight(&mut ps, role, Tensor::vector(vec![1.0, 1.0]));
            }
            for role in ["edge_left", "edge_right"] {
                layer.set_weight(&mut ps, role, Tensor::vector(vec![0.0, 0.0]));
            }
            if use_gat {
                // a = [0, 0, 4, 4]: the score is driven purely by the
                // *other* term's magnitude — the heavy child wins the
                // softmax (the "relation A is 10x larger than B" story).
                let aid = ps.id("f5.gat.a").unwrap();
                *ps.value_mut(aid) = Tensor::vector(vec![0.0, 0.0, 4.0, 4.0]);
            }
            (ps, layer)
        };

        // o4 with children o3 (heavy, [3,3]) and o2 (light, [0.1,0.1]).
        let mut tree = TreeSpec::with_nodes(3);
        tree.attach(2, 0, 0); // heavy child
        tree.attach(2, 1, 1); // light child
        let run = |ps: &ParamStore, layer: &TreeConvLayer| -> Vec<f32> {
            let mut g = Graph::new();
            let nodes = vec![
                g.input_vec(vec![3.0, 3.0]),
                g.input_vec(vec![0.1, 0.1]),
                g.input_vec(vec![0.5, 0.5]),
            ];
            let edges = vec![g.input_vec(vec![0.0, 0.0]), g.input_vec(vec![0.0, 0.0])];
            let out = layer.forward(&mut g, ps, &tree, &nodes, &edges);
            g.value(out[2]).data().to_vec()
        };

        let (ps_gat, layer_gat) = build(true, 1);
        let (ps_plain, layer_plain) = build(false, 1);
        let with_gat = run(&ps_gat, &layer_gat);
        let without = run(&ps_plain, &layer_plain);

        // Without attention the sum is dominated by plain addition
        // (0.5 + 3 + 0.1 = 3.6 per dim). With attention, softmax over
        // {self, heavy, light, edges} puts nearly all mass on the heavy
        // child; its share of the output must clearly exceed the
        // isotropic share.
        let heavy_share_gat = with_gat[0] / 3.0;
        let heavy_share_plain = without[0] / 3.6 * (3.0 / 3.6);
        assert!(
            heavy_share_gat > heavy_share_plain,
            "attention should concentrate on the heavy child: {with_gat:?} vs {without:?}"
        );
        // And attention output stays a convex-ish combination (bounded by
        // the heaviest term), unlike the unbounded isotropic sum.
        assert!(with_gat[0] <= 3.0 + 1e-4);
        assert!(without[0] > 3.0);
    }

    /// The memoized pass over a chain deeper than the stack recomputes
    /// only the dirty cone of a moved node, bit-identically to a full
    /// pass, and a `keep == false` pass recomputes everything.
    #[test]
    fn memo_pass_matches_full_pass_and_reuses_outside_the_cone() {
        use crate::infer::InferCtx;
        let (n, depth, dim) = (7, 2, 4);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let stack = TreeConvStack::new(&mut ps, &mut rng, "s", dim, dim, 2, depth, true);
        let mut tree = TreeSpec::with_nodes(n);
        for p in 1..n {
            tree.attach(p, p - 1, p - 1);
        }
        let edges: Vec<Vec<f32>> = (0..n - 1).map(|e| vec![e as f32 * 0.1, 1.0]).collect();
        let mut nodes: Vec<Vec<f32>> =
            (0..n).map(|p| (0..dim).map(|j| ((p * dim + j) as f32).sin()).collect()).collect();
        let mut ctx = InferCtx::new();
        let mut memo = ConvMemo::default();
        let mut pass = |nodes: &[Vec<f32>], memo: Option<&mut ConvMemo>| {
            let mut b = ctx.session(&ps);
            let ids: Vec<_> = nodes.iter().map(|x| b.input(x)).collect();
            let eids: Vec<_> = edges.iter().map(|x| b.input(x)).collect();
            let mut out = Vec::new();
            let reuse = stack.forward_memo_on(&mut b, &tree, &ids, &eids, memo, &mut out);
            let bits: Vec<u32> =
                out.iter().flat_map(|&o| b.value(o).iter().map(|v| v.to_bits())).collect();
            (bits, reuse)
        };
        let full = ConvReuse { nodes: 0, products: 5 * n * depth, product_hits: 0 };
        memo.begin(n, true);
        let (first, reuse) = pass(&nodes, Some(&mut memo));
        assert_eq!((first, reuse), (pass(&nodes, None).0, full), "an empty memo runs in full");
        assert!(memo.changed().iter().all(|&c| c));
        // Move node 2: layer 1 recomputes {2, 3}, layer 2 {2, 3, 4}. Of
        // their 25 products only those reading a moved input run: node
        // 2's own at both layers, node 3's left child (2) at layer 1 and
        // its own and its child's at layer 2, node 4's child's at layer 2.
        nodes[2][0] += 0.5;
        memo.begin(n, true);
        memo.mark_changed(2);
        let (warm, reuse) = pass(&nodes, Some(&mut memo));
        assert_eq!(warm, pass(&nodes, None).0);
        assert_eq!(reuse, ConvReuse { nodes: n * depth - 5, products: 25, product_hits: 25 - 6 });
        assert_eq!(memo.changed(), &[false, false, true, true, true, false, false]);
        // Dropping the rows recomputes everything.
        memo.begin(n, false);
        assert_eq!(pass(&nodes, Some(&mut memo)), (warm, full));
    }

    /// Gradients must flow through attention scores back to the filter
    /// weights (finite-difference smoke check on a GAT-enabled layer).
    #[test]
    fn gradients_flow_through_gat_layer() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = TreeConvLayer::new(
            &mut ps,
            &mut rng,
            "l",
            TreeConvConfig { use_gat: true, ..TreeConvConfig::encoder(3, 3, 2) },
        );
        let mut tree = TreeSpec::with_nodes(2);
        tree.attach(1, 0, 0);

        let run = |ps: &ParamStore| {
            let mut g = Graph::new();
            let nodes = vec![g.input_vec(vec![0.5, -0.3, 0.8]), g.input_vec(vec![0.1, 0.9, -0.2])];
            let edges = vec![g.input_vec(vec![1.0, 0.0])];
            let out = layer.forward(&mut g, ps, &tree, &nodes, &edges);
            let loss = g.sum_elems(out[1]);
            (g, loss)
        };

        let (mut g, loss) = run(&ps);
        g.backward(loss, &mut ps);
        let wid = ps.id("l.w_self").unwrap();
        let analytic = ps.grad(wid).to_vec();

        let eps = 1e-3;
        let i = 0;
        let orig = ps.value(wid).data()[i];
        ps.value_mut(wid).data_mut()[i] = orig + eps;
        let (gu, lu) = run(&ps);
        let up = gu.value(lu).item();
        ps.value_mut(wid).data_mut()[i] = orig - eps;
        let (gd, ld) = run(&ps);
        let down = gd.value(ld).item();
        ps.value_mut(wid).data_mut()[i] = orig;
        let numeric = (up - down) / (2.0 * eps);
        assert!(
            (numeric - analytic[i]).abs() < 5e-2,
            "numeric {numeric} vs analytic {}",
            analytic[i]
        );
    }
}
