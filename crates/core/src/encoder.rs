//! The Query Encoder (Section 4, Figure 6): a single-query encoder
//! combining edge-aware tree convolution with graph attention, plus the
//! high-level Per-Query (PQE) and All-Queries (AQE) summarization
//! networks implemented as message passing to dummy summary nodes.
//!
//! Two ablation variants back Figure 15: `TcnPlain` removes the GAT
//! importance weighting and `SeqGcn` replaces the tree convolution with
//! Decima-style *sequential message passing* graph convolution, whose
//! within-layer child→parent fusion the paper identifies as a source of
//! over-smoothing (Section 4.2.1).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lsched_engine::scheduler::QueryId;
use lsched_nn::{
    Activation, Backend, ConvMemo, ConvReuse, Graph, Linear, Mlp, NodeId, ParamStore,
    TapeBackend, TreeConvStack,
};
use lsched_util::{Pool, Recycle};

use crate::features::{FeatureConfig, PlanStatics, QuerySnapshot, SystemSnapshot, OPF_DYN_DIM};

/// Which single-query encoder to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// Full LSched encoder: tree convolution + GAT (the default).
    TcnGat,
    /// Tree convolution without attention (Figure 15's "w/o Graph
    /// Attention Support").
    TcnPlain,
    /// Sequential message-passing GCN (Figure 15's "w/o Triangle
    /// Convolution"; also the building block of the Decima baseline).
    SeqGcn,
}

/// Encoder hyper-parameters.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Feature dimensions.
    pub feat: FeatureConfig,
    /// Node-embedding width.
    pub hidden: usize,
    /// Edge-embedding width.
    pub edge_hidden: usize,
    /// PQE output width.
    pub pqe_dim: usize,
    /// AQE output width.
    pub aqe_dim: usize,
    /// Convolution depth (≥ 3 leaves an interior layer to freeze during
    /// transfer learning).
    pub conv_layers: usize,
    /// Encoder variant.
    pub kind: EncoderKind,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            feat: FeatureConfig::default(),
            hidden: 32,
            edge_hidden: 8,
            pqe_dim: 16,
            aqe_dim: 16,
            conv_layers: 3,
            kind: EncoderKind::TcnGat,
        }
    }
}

/// Sequential message-passing GCN layer parameters (the Decima-style
/// alternative encoder).
#[derive(Debug, Clone)]
struct SeqGcnLayer {
    w_self: Linear,
    w_child: Linear,
    w_edge: Linear,
}

enum ConvStack {
    Tcn(TreeConvStack),
    Seq(Vec<SeqGcnLayer>),
}

impl std::fmt::Debug for ConvStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvStack::Tcn(_) => write!(f, "ConvStack::Tcn"),
            ConvStack::Seq(_) => write!(f, "ConvStack::Seq"),
        }
    }
}

/// The encodings produced for one query. Generic over the executor's
/// value handle (`NodeId` on the tape, `ValId` on the inference arena).
#[derive(Debug, Clone)]
pub struct QueryEncoding<I = NodeId> {
    /// Node embeddings (NE), one per operator.
    pub node_emb: Vec<I>,
    /// Edge embeddings (EE), one per plan edge.
    pub edge_emb: Vec<I>,
    /// The Per-Query Embedding (PQE).
    pub pqe: I,
}

/// Encodings of the whole system at one scheduling event.
#[derive(Debug)]
pub struct SystemEncoding<I = NodeId> {
    /// Per-query encodings, aligned with the snapshot's query order.
    pub queries: Vec<QueryEncoding<I>>,
    /// The All-Queries Embedding (AQE).
    pub aqe: I,
}

/// Reusable per-call storage for [`QueryEncoder::encode_system_on`]. The
/// inference path keeps one of these alive across scheduling decisions so
/// the per-query embedding vectors retain their capacity, and so its
/// per-query memo can serve every embedding whose inputs did not change
/// since the last decision. One scratch serves one encoder.
#[derive(Debug)]
pub struct EncodeScratch<I> {
    queries: Vec<QueryEncoding<I>>,
    /// Retired `(node_emb, edge_emb)` vector pairs awaiting reuse. Whole
    /// `QueryEncoding`s can't be pooled because `pqe` has no default.
    spare: Pool<(Vec<I>, Vec<I>)>,
    memo: EncodeMemo,
}

impl<I> Default for EncodeScratch<I> {
    fn default() -> Self {
        Self { queries: Vec::new(), spare: Pool::new(), memo: EncodeMemo::default() }
    }
}

impl<I> EncodeScratch<I> {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-query encodings produced by the most recent
    /// [`QueryEncoder::encode_system_on`] call.
    pub fn queries(&self) -> &[QueryEncoding<I>] {
        &self.queries
    }

    /// Retires every per-query encoding into the spare pool, leaving the
    /// scratch as if it had encoded an empty system (its capacity is
    /// kept; the memo is untouched). The cross-event batch path uses this
    /// for events whose snapshot holds no queries, which never reach the
    /// encoder.
    pub fn clear(&mut self) {
        for qe in self.queries.drain(..) {
            self.spare.put((qe.node_emb, qe.edge_emb));
        }
    }

    /// Drops the memo entry of a query that left the system (its vectors
    /// are pooled for the next arrival).
    pub fn evict(&mut self, qid: QueryId) {
        if let Some(m) = self.memo.entries.remove(&qid.0) {
            self.memo.spare.put(m);
        }
    }

    /// Drops every memo entry (capacity kept): the next encode of each
    /// query runs cold.
    pub fn clear_memo(&mut self) {
        let EncodeMemo { entries, spare, .. } = &mut self.memo;
        for (_, m) in entries.drain() {
            spare.put(m);
        }
    }

    /// Cumulative memo reuse counters.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats
    }
}

/// Reuse counters of the encoder memo, accumulated over every encode on
/// a memoizing backend (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Queries encoded.
    pub queries: u64,
    /// Queries served whole from the memo (no operator input changed).
    pub whole_query_hits: u64,
    /// Operators encoded.
    pub ops: u64,
    /// Operators whose `node_proj` output was reused (whole-query hits
    /// included).
    pub proj_hits: u64,
    /// Operators whose PQE node message was reused (whole-query hits
    /// included).
    pub msg_hits: u64,
    /// Per-node convolution outputs encoded (operators × conv layers).
    pub conv_nodes: u64,
    /// Per-node convolution outputs served from the memo instead of a
    /// filter application (whole-query hits included).
    pub conv_hits: u64,
    /// Filter products the filter applications that ran needed (five
    /// each).
    pub conv_products: u64,
    /// Of those, the products served from the memo instead of being
    /// multiplied again (the input they read did not move).
    pub conv_product_hits: u64,
}

impl MemoStats {
    /// Fraction of operators whose projection was reused (0 when none
    /// were encoded).
    pub fn op_hit_frac(&self) -> f64 {
        self.proj_hits as f64 / self.ops.max(1) as f64
    }

    /// Fraction of per-node convolution outputs served from the memo (0
    /// when none were encoded).
    pub fn conv_hit_frac(&self) -> f64 {
        self.conv_hits as f64 / self.conv_nodes.max(1) as f64
    }

    /// Fraction of the filter products of recomputed filter applications
    /// served from the memo (0 when no filter ran).
    pub fn conv_product_hit_frac(&self) -> f64 {
        self.conv_product_hits as f64 / self.conv_products.max(1) as f64
    }

    /// Applies `f` to every pair of counters.
    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            queries: f(self.queries, o.queries),
            whole_query_hits: f(self.whole_query_hits, o.whole_query_hits),
            ops: f(self.ops, o.ops),
            proj_hits: f(self.proj_hits, o.proj_hits),
            msg_hits: f(self.msg_hits, o.msg_hits),
            conv_nodes: f(self.conv_nodes, o.conv_nodes),
            conv_hits: f(self.conv_hits, o.conv_hits),
            conv_products: f(self.conv_products, o.conv_products),
            conv_product_hits: f(self.conv_product_hits, o.conv_product_hits),
        }
    }
}

impl std::ops::Add for MemoStats {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
}

/// The counters accumulated between two readings (`after - before`).
impl std::ops::Sub for MemoStats {
    type Output = Self;

    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

/// The per-query memo of an [`EncodeScratch`], keyed by query id.
#[derive(Debug, Default)]
struct EncodeMemo {
    entries: HashMap<u64, QueryMemo>,
    spare: Pool<QueryMemo>,
    stats: MemoStats,
}

impl EncodeMemo {
    /// The entry for `qs`, re-keyed (and marked invalid) unless it was
    /// computed from this very statics block under this values stamp.
    fn entry(&mut self, qs: &QuerySnapshot, stamp: u64) -> (&mut QueryMemo, &mut MemoStats) {
        let spare = &mut self.spare;
        let m = self.entries.entry(qs.qid.0).or_insert_with(|| spare.take());
        let same = m.statics.as_ref().is_some_and(|s| Arc::ptr_eq(s, &qs.statics));
        if !same || m.stamp != stamp {
            m.statics = Some(Arc::clone(&qs.statics));
            m.stamp = stamp;
            m.valid = false;
        }
        (m, &mut self.stats)
    }
}

/// Forward values of one query's last encoding, keyed by its inputs:
/// the plan statics (by `Arc` identity — the entry owns a clone, so the
/// address cannot be reused while it lives), the store's values stamp,
/// and the bits of every operator's dynamic OPF tail. Row `i` of each
/// flat buffer belongs to operator (or edge) `i`; the convolution's
/// per-layer rows live in `conv`.
#[derive(Debug, Default)]
struct QueryMemo {
    statics: Option<Arc<PlanStatics>>,
    stamp: u64,
    /// Whether the buffers hold values for the current key.
    valid: bool,
    /// Bits of each operator's dynamic OPF tail at the last encode.
    dyn_bits: Vec<[u32; OPF_DYN_DIM]>,
    /// `node_proj` outputs (`hidden` per operator): the convolution's
    /// layer-0 input.
    proj: Vec<f32>,
    /// Every conv layer's per-operator outputs; the last layer's rows
    /// are the node embeddings and its change flags key `node_msg`.
    conv: ConvMemo,
    /// PQE node messages (`hidden` per operator).
    node_msg: Vec<f32>,
    /// Edge embeddings (`edge_hidden` per edge).
    edge_emb: Vec<f32>,
    /// PQE edge messages (`hidden` per edge).
    edge_msg: Vec<f32>,
    pqe: Vec<f32>,
}

impl QueryMemo {
    /// Whether operator `op`'s inputs are bitwise those of the memoized
    /// encode.
    fn op_unchanged(&self, qs: &QuerySnapshot, op: usize) -> bool {
        self.valid && self.dyn_bits[op] == qs.opf_dyn[op].map(f32::to_bits)
    }

    /// Sizes the buffers for a re-keyed entry (contents are rewritten by
    /// the encode that follows).
    fn resize(&mut self, ops: usize, edges: usize, h: usize, eh: usize) {
        self.dyn_bits.resize(ops, [0; OPF_DYN_DIM]);
        self.proj.resize(ops * h, 0.0);
        self.node_msg.resize(ops * h, 0.0);
        self.edge_emb.resize(edges * eh, 0.0);
        self.edge_msg.resize(edges * h, 0.0);
    }
}

impl Recycle for QueryMemo {
    fn recycle(&mut self) {
        self.statics = None;
        self.valid = false;
        self.dyn_bits.clear();
        self.proj.clear();
        self.conv.clear();
        self.node_msg.clear();
        self.edge_emb.clear();
        self.edge_msg.clear();
        self.pqe.clear();
    }
}

/// Operator `op`'s OPF row (static prefix ‖ dynamic tail) as one input.
fn opf_input<B: Backend>(b: &mut B, qs: &QuerySnapshot, op: usize, cfg: &EncoderConfig) -> B::Id {
    let x = b.input_parts(&qs.opf_parts(op));
    debug_assert_eq!(b.value(x).len(), cfg.feat.opf_dim(), "OPF width");
    x
}

/// The Query Encoder network (Figure 6).
#[derive(Debug)]
pub struct QueryEncoder {
    cfg: EncoderConfig,
    node_proj: Linear,
    edge_proj: Linear,
    conv: ConvStack,
    pqe_node_mlp: Mlp,
    pqe_edge_mlp: Mlp,
    pqe_out_mlp: Mlp,
    aqe_in_mlp: Mlp,
    aqe_out_mlp: Mlp,
}

impl QueryEncoder {
    /// Registers all encoder parameters under `"{prefix}.*"`.
    pub fn new(store: &mut ParamStore, seed: u64, prefix: &str, cfg: EncoderConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let opf = cfg.feat.opf_dim();
        let h = cfg.hidden;
        let eh = cfg.edge_hidden;
        let node_proj = Linear::new(store, &mut rng, &format!("{prefix}.node_proj"), opf, h);
        let edge_proj = Linear::new(
            store,
            &mut rng,
            &format!("{prefix}.edge_proj"),
            FeatureConfig::EDF_DIM,
            eh,
        );
        let conv = match cfg.kind {
            EncoderKind::TcnGat | EncoderKind::TcnPlain => ConvStack::Tcn(TreeConvStack::new(
                store,
                &mut rng,
                &format!("{prefix}.tcn"),
                h,
                h,
                FeatureConfig::EDF_DIM,
                cfg.conv_layers,
                cfg.kind == EncoderKind::TcnGat,
            )),
            EncoderKind::SeqGcn => ConvStack::Seq(
                (0..cfg.conv_layers)
                    .map(|l| SeqGcnLayer {
                        w_self: Linear::new(store, &mut rng, &format!("{prefix}.gcn{l}.self"), h, h),
                        w_child: Linear::new(store, &mut rng, &format!("{prefix}.gcn{l}.child"), h, h),
                        w_edge: Linear::new(
                            store,
                            &mut rng,
                            &format!("{prefix}.gcn{l}.edge"),
                            FeatureConfig::EDF_DIM,
                            h,
                        ),
                    })
                    .collect(),
            ),
        };
        let pqe_node_mlp = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.pqe_node"),
            &[h + opf, h, h, h],
            Activation::LeakyRelu,
            Activation::LeakyRelu,
        );
        let pqe_edge_mlp = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.pqe_edge"),
            &[eh + FeatureConfig::EDF_DIM, h, h, h],
            Activation::LeakyRelu,
            Activation::LeakyRelu,
        );
        let pqe_out_mlp = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.pqe_out"),
            &[h, h, h, cfg.pqe_dim],
            Activation::LeakyRelu,
            Activation::None,
        );
        let aqe_in_mlp = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.aqe_in"),
            &[cfg.pqe_dim + cfg.feat.qf_dim(), h, h, h],
            Activation::LeakyRelu,
            Activation::LeakyRelu,
        );
        let aqe_out_mlp = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.aqe_out"),
            &[h, h, h, cfg.aqe_dim],
            Activation::LeakyRelu,
            Activation::None,
        );
        Self { cfg, node_proj, edge_proj, conv, pqe_node_mlp, pqe_edge_mlp, pqe_out_mlp, aqe_in_mlp, aqe_out_mlp }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Runs the convolution stack over the projected operators into
    /// `out`, and returns what it took from `memo` (begun by the
    /// caller). The tree convolution recomputes only the
    /// memo's dirty cone; the sequential GCN always runs in full and
    /// records its outputs so the memo's change flags stay meaningful.
    fn conv_forward_on<B: Backend>(
        &self,
        b: &mut B,
        qs: &QuerySnapshot,
        nodes: &[B::Id],
        raw_edges: &[B::Id],
        memo: Option<&mut ConvMemo>,
        out: &mut Vec<B::Id>,
    ) -> ConvReuse {
        match &self.conv {
            ConvStack::Tcn(stack) => {
                stack.forward_memo_on(b, qs.tree(), nodes, raw_edges, memo, out)
            }
            ConvStack::Seq(layers) => {
                // Sequential message passing: within each layer the
                // embedding of a parent is computed from the *current
                // layer's* child embeddings (children first).
                let order = &qs.statics.children_first;
                out.clear();
                out.extend_from_slice(nodes);
                let mut next = b.take_ids();
                let mut terms = b.take_ids();
                for layer in layers {
                    next.clear();
                    next.extend_from_slice(out);
                    for &n in order {
                        let own = b.linear(&layer.w_self, out[n], Activation::None);
                        terms.clear();
                        terms.push(own);
                        for slot in qs.tree().children[n].iter().flatten() {
                            let (c, e) = *slot;
                            terms.push(b.linear(&layer.w_child, next[c], Activation::None));
                            terms.push(b.linear(&layer.w_edge, raw_edges[e], Activation::None));
                        }
                        let sum = b.sum_vec(&terms);
                        next[n] = b.leaky_relu(sum, 0.01);
                    }
                    out.clear();
                    out.extend_from_slice(&next);
                }
                b.recycle_ids(next);
                b.recycle_ids(terms);
                if let Some(m) = memo {
                    m.record_outputs(b, out);
                }
                ConvReuse::default()
            }
        }
    }

    /// Encodes one query on any [`Backend`]: node embeddings (NE) and
    /// edge embeddings (EE) are written into the caller's vectors and the
    /// PQE summary is returned (Figure 6, left and middle).
    pub fn encode_query_on<B: Backend>(
        &self,
        b: &mut B,
        qs: &QuerySnapshot,
        node_emb: &mut Vec<B::Id>,
        edge_emb: &mut Vec<B::Id>,
    ) -> B::Id {
        self.encode_query_memo(b, qs, None, node_emb, edge_emb)
    }

    /// [`encode_query_on`](Self::encode_query_on) with an optional memo
    /// entry. Without one every op runs, in the order the tape has always
    /// recorded. With one, each memoizable value — `node_proj` output,
    /// per-layer convolution output, edge embedding, node and edge PQE
    /// message, or the whole query — is re-introduced from the memo when
    /// its inputs are bitwise those it was computed from, and recomputed
    /// (and recorded) otherwise. The tree convolution recomputes only the
    /// dirty cone of the operators whose dynamic tails moved (see
    /// [`ConvMemo`]); the message sum and `pqe_out` always run.
    fn encode_query_memo<B: Backend>(
        &self,
        b: &mut B,
        qs: &QuerySnapshot,
        memo: Option<(&mut QueryMemo, &mut MemoStats)>,
        node_emb: &mut Vec<B::Id>,
        edge_emb: &mut Vec<B::Id>,
    ) -> B::Id {
        let (h, eh) = (self.cfg.hidden, self.cfg.edge_hidden);
        let n = qs.num_ops();
        let mut unused = MemoStats::default();
        let (mut memo, stats) = match memo {
            Some((m, st)) => (Some(m), st),
            None => (None, &mut unused),
        };
        stats.queries += 1;
        stats.ops += n as u64;
        let conv_nodes = (n * self.cfg.conv_layers) as u64;
        stats.conv_nodes += conv_nodes;
        if let Some(m) = memo.as_deref_mut() {
            if m.valid && (0..n).all(|op| m.op_unchanged(qs, op)) {
                // No operator input moved: every embedding and the PQE
                // are the memoized ones.
                stats.whole_query_hits += 1;
                stats.proj_hits += n as u64;
                stats.msg_hits += n as u64;
                stats.conv_hits += conv_nodes;
                node_emb.clear();
                b.input_rows(m.conv.outputs(), h, node_emb);
                edge_emb.clear();
                b.input_rows(&m.edge_emb, eh, edge_emb);
                return b.input(&m.pqe);
            }
            if !m.valid {
                m.resize(n, qs.edf().len(), h, eh);
            }
            m.conv.begin(n, m.valid);
        }
        let valid = memo.as_deref().is_some_and(|m| m.valid);

        // Without a valid memo every operator's OPF row enters first, in
        // the order the tape has always recorded; with one, a row enters
        // only for an operator whose projection or message is recomputed,
        // so `opf_nodes` then holds the rows of the moved operators alone.
        let mut opf_nodes = b.take_ids();
        if !valid {
            for op in 0..n {
                opf_nodes.push(opf_input(b, qs, op, &self.cfg));
            }
        }
        let mut raw_edges = b.take_ids();
        for f in qs.edf() {
            raw_edges.push(b.input(f));
        }

        // Project raw OPF into the hidden space, then convolve. An
        // operator whose dynamic tail moved is the convolution's layer-0
        // change.
        let mut projected = b.take_ids();
        for op in 0..n {
            let row = op * h..(op + 1) * h;
            projected.push(match memo.as_deref_mut() {
                Some(m) if m.op_unchanged(qs, op) => {
                    stats.proj_hits += 1;
                    b.input(&m.proj[row])
                }
                m => {
                    let x = if valid {
                        let x = opf_input(b, qs, op, &self.cfg);
                        opf_nodes.push(x);
                        x
                    } else {
                        opf_nodes[op]
                    };
                    let p = b.linear(&self.node_proj, x, Activation::LeakyRelu);
                    if let Some(m) = m {
                        m.proj[row].copy_from_slice(b.value(p));
                        m.conv.mark_changed(op);
                    }
                    p
                }
            });
        }
        let conv_memo = memo.as_deref_mut().map(|m| &mut m.conv);
        let reuse = self.conv_forward_on(b, qs, &projected, &raw_edges, conv_memo, node_emb);
        stats.conv_hits += reuse.nodes as u64;
        stats.conv_products += reuse.products as u64;
        stats.conv_product_hits += reuse.product_hits as u64;

        // Edge embeddings (EE): static while the weights are.
        edge_emb.clear();
        for (e, &x) in raw_edges.iter().enumerate() {
            let row = e * eh..(e + 1) * eh;
            edge_emb.push(match memo.as_deref_mut() {
                Some(m) if valid => b.input(&m.edge_emb[row]),
                m => {
                    let ee = b.linear(&self.edge_proj, x, Activation::LeakyRelu);
                    if let Some(m) = m {
                        m.edge_emb[row].copy_from_slice(b.value(ee));
                    }
                    ee
                }
            });
        }

        // PQE: false directed edges from all nodes and edges into a dummy
        // summary node — message passing implemented as per-element MLPs
        // followed by a sum and an output MLP. Raw OPF/EDF features are
        // concatenated with the learned embeddings, per Figure 6. A node
        // message is reused only if the operator's post-convolution
        // embedding did not change either (the convolution mixes children
        // in). With a valid memo, the `moved`-th row of `opf_nodes` is the
        // OPF row of the `moved`-th operator whose tail moved.
        let mut messages = b.take_ids();
        let mut moved = 0;
        for (op, &ne) in node_emb.iter().enumerate() {
            let row = op * h..(op + 1) * h;
            let unchanged = memo.as_deref().is_some_and(|m| m.op_unchanged(qs, op));
            messages.push(match memo.as_deref_mut() {
                Some(m) if unchanged && !m.conv.changed()[op] => {
                    stats.msg_hits += 1;
                    b.input(&m.node_msg[row])
                }
                m => {
                    let opf = if !valid {
                        opf_nodes[op]
                    } else if unchanged {
                        opf_input(b, qs, op, &self.cfg)
                    } else {
                        moved += 1;
                        opf_nodes[moved - 1]
                    };
                    let cat = b.concat(&[ne, opf]);
                    let msg = b.mlp(&self.pqe_node_mlp, cat);
                    if let Some(m) = m {
                        m.node_msg[row].copy_from_slice(b.value(msg));
                    }
                    msg
                }
            });
        }
        for (e, (&ee, &edf)) in edge_emb.iter().zip(raw_edges.iter()).enumerate() {
            let row = e * h..(e + 1) * h;
            messages.push(match memo.as_deref_mut() {
                Some(m) if valid => b.input(&m.edge_msg[row]),
                m => {
                    let cat = b.concat(&[ee, edf]);
                    let msg = b.mlp(&self.pqe_edge_mlp, cat);
                    if let Some(m) = m {
                        m.edge_msg[row].copy_from_slice(b.value(msg));
                    }
                    msg
                }
            });
        }
        let summed = b.sum_vec(&messages);
        // Scale by 1/|messages| to keep magnitudes stable across plan sizes.
        let mean = b.scale(summed, 1.0 / messages.len() as f32);
        let pqe = b.mlp(&self.pqe_out_mlp, mean);
        if let Some(m) = memo {
            m.pqe.clear();
            m.pqe.extend_from_slice(b.value(pqe));
            for (bits, d) in m.dyn_bits.iter_mut().zip(&qs.opf_dyn) {
                *bits = d.map(f32::to_bits);
            }
            m.valid = true;
        }

        b.recycle_ids(opf_nodes);
        b.recycle_ids(raw_edges);
        b.recycle_ids(projected);
        b.recycle_ids(messages);
        pqe
    }

    /// Encodes one query: node embeddings (NE), edge embeddings (EE) and
    /// the PQE summary (the tape instantiation of
    /// [`QueryEncoder::encode_query_on`]).
    pub fn encode_query(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        qs: &QuerySnapshot,
    ) -> QueryEncoding {
        let mut node_emb = Vec::new();
        let mut edge_emb = Vec::new();
        let pqe = self.encode_query_on(
            &mut TapeBackend::new(g, store),
            qs,
            &mut node_emb,
            &mut edge_emb,
        );
        QueryEncoding { node_emb, edge_emb, pqe }
    }

    /// Encodes the whole system on any [`Backend`]: every query plus the
    /// AQE summary (Figure 6, bottom). Per-query encodings land in
    /// `scratch` (readable via [`EncodeScratch::queries`]); the AQE handle
    /// is returned.
    ///
    /// On a backend that admits memoized values ([`Backend::memo_stamp`]
    /// is `Some`), each query goes through `scratch`'s memo, so only the
    /// embeddings whose inputs changed since the last call are
    /// recomputed; the output is bit-identical either way. The AQE, whose
    /// QF inputs change every event, is always recomputed.
    pub fn encode_system_on<B: Backend>(
        &self,
        b: &mut B,
        snap: &SystemSnapshot,
        scratch: &mut EncodeScratch<B::Id>,
    ) -> B::Id {
        assert!(!snap.queries.is_empty(), "encode_system needs at least one query");
        // Retire last call's per-query vectors so their capacity is reused.
        scratch.clear();
        let stamp = b.memo_stamp();
        for qs in &snap.queries {
            let (mut node_emb, mut edge_emb) = scratch.spare.take();
            let memo = stamp.map(|s| scratch.memo.entry(qs, s));
            let pqe = self.encode_query_memo(b, qs, memo, &mut node_emb, &mut edge_emb);
            scratch.queries.push(QueryEncoding { node_emb, edge_emb, pqe });
        }
        let mut messages = b.take_ids();
        for (enc, qs) in scratch.queries.iter().zip(&snap.queries) {
            let qf = b.input(&qs.qf);
            let cat = b.concat(&[enc.pqe, qf]);
            messages.push(b.mlp(&self.aqe_in_mlp, cat));
        }
        let summed = b.sum_vec(&messages);
        let mean = b.scale(summed, 1.0 / messages.len() as f32);
        let aqe = b.mlp(&self.aqe_out_mlp, mean);
        b.recycle_ids(messages);
        aqe
    }

    /// Encodes the whole system (the tape instantiation of
    /// [`QueryEncoder::encode_system_on`]).
    pub fn encode_system(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        snap: &SystemSnapshot,
    ) -> SystemEncoding {
        let mut scratch = EncodeScratch::new();
        let aqe = self.encode_system_on(&mut TapeBackend::new(g, store), snap, &mut scratch);
        SystemEncoding { queries: scratch.queries, aqe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{snapshot, FeatureConfig};
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::scheduler::{QueryId, QueryRuntime, SchedContext};
    use std::sync::Arc;

    fn snap(n_queries: usize) -> SystemSnapshot {
        let queries: Vec<QueryRuntime> = (0..n_queries)
            .map(|i| {
                let mut b = PlanBuilder::new(format!("q{i}"));
                let s1 = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![1], 100.0, 4, 0.01, 1e5);
                let s2 = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![1], vec![2], 100.0, 4, 0.01, 1e5);
                let bh = b.add_op(OpKind::BuildHash, OpSpec::Synthetic, vec![0], vec![1], 100.0, 4, 0.02, 2e5);
                let ph = b.add_op(OpKind::ProbeHash, OpSpec::Synthetic, vec![0, 1], vec![1, 2], 100.0, 4, 0.02, 2e5);
                b.connect(s1, bh, true);
                b.connect(bh, ph, false);
                b.connect(s2, ph, true);
                QueryRuntime::new(QueryId(i as u64), Arc::new(b.finish(ph)), 0.0, 8)
            })
            .collect();
        let free = [0usize, 1, 2, 3];
        let hot = lsched_engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 8,
            free_threads: 4,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        snapshot(&FeatureConfig::default(), &ctx)
    }

    fn build(kind: EncoderKind) -> (ParamStore, QueryEncoder) {
        let mut store = ParamStore::new();
        let cfg = EncoderConfig { kind, hidden: 16, pqe_dim: 8, aqe_dim: 8, ..Default::default() };
        let enc = QueryEncoder::new(&mut store, 7, "enc", cfg);
        (store, enc)
    }

    #[test]
    fn encodes_expected_shapes() {
        for kind in [EncoderKind::TcnGat, EncoderKind::TcnPlain, EncoderKind::SeqGcn] {
            let (store, enc) = build(kind);
            let s = snap(3);
            let mut g = Graph::new();
            let sys = enc.encode_system(&mut g, &store, &s);
            assert_eq!(sys.queries.len(), 3);
            for qe in &sys.queries {
                assert_eq!(qe.node_emb.len(), 4);
                assert_eq!(qe.edge_emb.len(), 3);
                assert_eq!(g.value(qe.pqe).len(), 8);
                for &ne in &qe.node_emb {
                    assert_eq!(g.value(ne).len(), 16);
                    assert!(g.value(ne).data().iter().all(|v| v.is_finite()));
                }
            }
            assert_eq!(g.value(sys.aqe).len(), 8);
        }
    }

    #[test]
    fn gradients_reach_all_encoder_params() {
        let (mut store, enc) = build(EncoderKind::TcnGat);
        let s = snap(2);
        let mut g = Graph::new();
        let sys = enc.encode_system(&mut g, &store, &s);
        let loss = g.sum_elems(sys.aqe);
        g.backward(loss, &mut store);
        // Every encoder parameter should receive some gradient through
        // the AQE path (node/edge embeddings feed PQE feed AQE).
        let mut nonzero = 0;
        let mut total = 0;
        let ids: Vec<_> = store.iter_ids().map(|(id, _)| id).collect();
        for id in ids {
            total += 1;
            if store.grad(id).iter().any(|&v| v != 0.0) {
                nonzero += 1;
            }
        }
        assert!(
            nonzero as f64 > total as f64 * 0.85,
            "only {nonzero}/{total} params got gradient"
        );
    }

    #[test]
    fn deterministic_encoding() {
        let (store, enc) = build(EncoderKind::TcnGat);
        let s = snap(2);
        let mut g1 = Graph::new();
        let e1 = enc.encode_system(&mut g1, &store, &s);
        let mut g2 = Graph::new();
        let e2 = enc.encode_system(&mut g2, &store, &s);
        assert_eq!(g1.value(e1.aqe).data(), g2.value(e2.aqe).data());
    }

    /// Flattens every value of a system encoding: per query its node
    /// embeddings, edge embeddings and PQE, then the AQE.
    fn encoded_values<B: Backend>(b: &B, queries: &[QueryEncoding<B::Id>], aqe: B::Id) -> Vec<u32> {
        let mut out = Vec::new();
        for q in queries {
            for &id in q.node_emb.iter().chain(&q.edge_emb).chain([&q.pqe]) {
                out.extend(b.value(id).iter().map(|v| v.to_bits()));
            }
        }
        out.extend(b.value(aqe).iter().map(|v| v.to_bits()));
        out
    }

    /// Encodes on the inference backend through `scratch` and returns the
    /// value bits.
    fn infer_bits(enc: &QueryEncoder, store: &ParamStore, s: &SystemSnapshot, scratch: &mut EncodeScratch<lsched_nn::ValId>) -> Vec<u32> {
        let mut ctx = lsched_nn::InferCtx::new();
        let mut b = ctx.session(store);
        let aqe = enc.encode_system_on(&mut b, s, scratch);
        encoded_values(&b, scratch.queries(), aqe)
    }

    fn tape_bits(enc: &QueryEncoder, store: &ParamStore, s: &SystemSnapshot) -> Vec<u32> {
        let mut g = Graph::new();
        let mut scratch = EncodeScratch::new();
        let mut b = TapeBackend::new(&mut g, store);
        let aqe = enc.encode_system_on(&mut b, s, &mut scratch);
        let bits = encoded_values(&b, scratch.queries(), aqe);
        assert_eq!(scratch.memo_stats(), MemoStats::default(), "recording backends bypass the memo");
        bits
    }

    #[test]
    fn memoized_encoding_is_bit_identical_to_cold() {
        for kind in [EncoderKind::TcnGat, EncoderKind::TcnPlain, EncoderKind::SeqGcn] {
            let (mut store, enc) = build(kind);
            let mut s = snap(3);
            let mut warm = EncodeScratch::new();
            let check = |store: &ParamStore, s: &SystemSnapshot, warm: &mut EncodeScratch<_>| {
                let bits = infer_bits(&enc, store, s, warm);
                assert_eq!(bits, infer_bits(&enc, store, s, &mut EncodeScratch::new()), "{kind:?}");
                assert_eq!(bits, tape_bits(&enc, store, s), "{kind:?}");
            };
            check(&store, &s, &mut warm);
            assert_eq!(warm.memo_stats().whole_query_hits, 0);
            // Nothing moved: every query is served whole.
            check(&store, &s, &mut warm);
            assert_eq!(warm.memo_stats().whole_query_hits, 3);
            // One leaf's progress moves: that query re-encodes, reusing
            // the other operators' projections.
            s.queries[1].opf_dyn[0][0] *= 0.5;
            let before = warm.memo_stats();
            check(&store, &s, &mut warm);
            let after = warm.memo_stats();
            assert_eq!(after.whole_query_hits - before.whole_query_hits, 2);
            assert_eq!(after.proj_hits - before.proj_hits, 4 + 3 + 4);
            // A weight update renews the stamp: everything recomputes.
            let id = store.iter_ids().next().unwrap().0;
            store.value_mut(id).data_mut()[0] += 0.25;
            let before = warm.memo_stats();
            check(&store, &s, &mut warm);
            assert_eq!(warm.memo_stats().proj_hits, before.proj_hits);
            // A different plan instance under a reused query id is a miss.
            let fresh = snap(3);
            check(&store, &fresh, &mut warm);
            assert_eq!(warm.memo_stats().proj_hits, before.proj_hits);
        }
    }

    #[test]
    fn evicted_and_cleared_memo_entries_encode_cold() {
        let (store, enc) = build(EncoderKind::TcnGat);
        let s = snap(2);
        let mut warm = EncodeScratch::new();
        infer_bits(&enc, &store, &s, &mut warm);
        warm.evict(s.queries[0].qid);
        let bits = infer_bits(&enc, &store, &s, &mut warm);
        assert_eq!(warm.memo_stats().whole_query_hits, 1, "only the kept query is reused");
        warm.clear_memo();
        assert_eq!(infer_bits(&enc, &store, &s, &mut warm), bits);
        assert_eq!(warm.memo_stats().whole_query_hits, 1);
    }

    #[test]
    fn variants_differ_in_parameter_sets() {
        let (s1, _) = build(EncoderKind::TcnGat);
        let (s2, _) = build(EncoderKind::TcnPlain);
        let (s3, _) = build(EncoderKind::SeqGcn);
        // GAT adds attention vectors; SeqGcn swaps conv weights entirely.
        assert!(s1.num_scalars() > s2.num_scalars());
        assert!(s3.iter_ids().any(|(_, n)| n.contains("gcn0")));
        assert!(s1.iter_ids().any(|(_, n)| n.contains("tcn.conv0.gat")));
    }

    #[test]
    fn pqe_sensitive_to_progress_features() {
        // Changing a dynamic feature (remaining work orders) must change
        // the PQE — the encoder actually reads its inputs.
        let (store, enc) = build(EncoderKind::TcnGat);
        let mut s = snap(1);
        let mut g1 = Graph::new();
        let pqe1 = enc.encode_query(&mut g1, &store, &s.queries[0]).pqe;
        let before = g1.value(pqe1);
        s.queries[0].opf_dyn[0][0] = 0.0; // zero out O-WO
        let mut g2 = Graph::new();
        let pqe2 = enc.encode_query(&mut g2, &store, &s.queries[0]).pqe;
        let after = g2.value(pqe2);
        assert_ne!(before.data(), after.data());
    }
}
