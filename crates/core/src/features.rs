//! Physical-plan feature extraction (Section 4.1): Operator Features
//! (OPF), Edge Features (EDF) and Query Features (QF), plus the
//! state-snapshot structure the encoder and trainer operate on.
//!
//! Feature dimensions are *workload-independent* (tables and columns are
//! folded into fixed-width one-hot slots) so a model trained on one
//! benchmark can be transferred to another with the same layer shapes —
//! the precondition for Section 6's transfer learning ("the dimensions
//! of these layers remain the same among different workloads").

use lsched_engine::plan::{OpKind, PhysicalPlan, PlanEdge};
use lsched_engine::scheduler::{OpRuntime, QueryId, QueryRuntime, SchedContext};
use lsched_nn::TreeSpec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Fixed feature dimensions.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// One-hot slots for input relations (O-IN); table indices fold in
    /// modulo this width.
    pub max_tables: usize,
    /// One-hot slots for columns (O-COLS); global column ids fold in
    /// modulo this width.
    pub max_columns: usize,
    /// Downsampled block-bitmap width (Eq. 1's `|d|`).
    pub blocks_dim: usize,
    /// Q-LOC width: the maximum thread-pool size supported.
    pub max_threads: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self { max_tables: 32, max_columns: 160, blocks_dim: 8, max_threads: 128 }
    }
}

impl FeatureConfig {
    /// Dimension of one operator's OPF vector:
    /// O-TY ‖ O-IN ‖ O-COLS ‖ O-BLCKS ‖ O-WO ‖ O-DUR ‖ O-MEM.
    /// (O-CON, the operator connectivity, is consumed structurally as
    /// the tree the convolution slides over rather than as a vector.)
    pub fn opf_dim(&self) -> usize {
        OpKind::COUNT + self.max_tables + self.max_columns + self.blocks_dim + 3
    }

    /// Dimension of one edge's EDF vector: E-NPB ‖ E-DIR.
    pub const EDF_DIM: usize = 2;

    /// Dimension of one query's QF vector: Q-ATH ‖ Q-FTH ‖ Q-LOC.
    pub fn qf_dim(&self) -> usize {
        2 + self.max_threads
    }
}

/// Equation 1: moving-average downsampling of a block bitmap `b` to a
/// fixed-size array of `d_len` entries:
///
/// ```text
/// d_j = (|d|/|b|) * Σ_{k=j·|b|/|d|}^{(j+1)·|b|/|d|} b_k
/// ```
///
/// Bounds are inclusive with out-of-range entries contributing zero,
/// matching the paper's worked example `b = {1,1,0,1,1,0} → d = {1,1,0.5}`.
pub fn downsample_blocks(bitmap: &[bool], d_len: usize) -> Vec<f32> {
    assert!(d_len > 0);
    if bitmap.is_empty() {
        return vec![0.0; d_len];
    }
    let b_len = bitmap.len() as f64;
    let ratio = b_len / d_len as f64;
    (0..d_len)
        .map(|j| {
            let lo = (j as f64 * ratio).floor() as usize;
            let hi = ((j + 1) as f64 * ratio).floor() as usize; // inclusive
            let mut sum = 0.0;
            for k in lo..=hi {
                if k < bitmap.len() && bitmap[k] {
                    sum += 1.0;
                }
            }
            ((d_len as f64 / b_len) * sum) as f32
        })
        .collect()
}

fn one_hot_fold(slots: usize, indices: &[usize]) -> Vec<f32> {
    let mut v = vec![0.0f32; slots];
    for &i in indices {
        v[i % slots] = 1.0;
    }
    v
}

/// Log-compresses a non-negative magnitude into a small feature value.
pub fn squash(x: f64) -> f32 {
    (x.max(0.0) + 1.0).ln() as f32
}

/// Number of *dynamic* (per-event) trailing entries in an OPF vector:
/// O-WO, O-DUR, O-MEM. Everything before them is a function of the plan
/// alone and is memoized per query in [`PlanStatics`].
pub const OPF_DYN_DIM: usize = 3;

/// Extracts the static (plan-only) OPF prefix of operator `op`:
/// O-TY ‖ O-IN ‖ O-COLS ‖ O-BLCKS.
pub fn op_static_features(cfg: &FeatureConfig, plan: &PhysicalPlan, op: usize) -> Vec<f32> {
    let plan_op = &plan.ops[op];
    let mut v = Vec::with_capacity(cfg.opf_dim() - OPF_DYN_DIM);
    // O-TY: operator type one-hot.
    let mut ty = vec![0.0f32; OpKind::COUNT];
    ty[plan_op.kind.index()] = 1.0;
    v.extend(ty);
    // O-IN: input relations one-hot (base + transitive).
    v.extend(one_hot_fold(cfg.max_tables, &plan_op.input_tables));
    // O-COLS: used columns one-hot.
    v.extend(one_hot_fold(cfg.max_columns, &plan_op.columns_used));
    // O-BLCKS: Eq. 1 downsampled block bitmap.
    v.extend(downsample_blocks(&plan_op.block_bitmap, cfg.blocks_dim));
    v
}

/// Extracts the dynamic OPF tail of operator `op` in query `q`:
/// O-WO ‖ O-DUR ‖ O-MEM, which moves as the operator runs.
pub fn op_dynamic_features(q: &QueryRuntime, op: usize) -> [f32; OPF_DYN_DIM] {
    dynamic_tail(&q.ops[op])
}

fn dynamic_tail(rt: &OpRuntime) -> [f32; OPF_DYN_DIM] {
    [
        // O-WO: remaining work orders.
        squash(rt.remaining_work_orders() as f64),
        // O-DUR: regression-estimated remaining duration.
        squash(rt.est_remaining_duration()),
        // O-MEM: regression-estimated remaining memory (MB scale).
        squash(rt.est_remaining_memory() / 1e6),
    ]
}

/// Every input of an operator's dynamic OPF tail, bit for bit: the
/// remaining work-order count and the two regressors' current
/// predictions (the tail is a pure function of these three). A tail
/// memoized under an equal key is the tail a fresh extraction returns,
/// whichever query or run the memo came from.
///
/// The completed count alone would not do: the executor's cancel paths
/// lower `total_work_orders` without a completion, and a reused query id
/// can meet a stale entry whose operator completed as many work orders
/// with other observed durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailKey {
    remaining: u32,
    dur: u64,
    mem: u64,
}

impl TailKey {
    fn of(rt: &OpRuntime) -> Self {
        Self {
            remaining: rt.remaining_work_orders(),
            dur: rt.dur_estimator.predict_next().to_bits(),
            mem: rt.mem_estimator.predict_next().to_bits(),
        }
    }
}

/// One operator's memoized dynamic tail and the key it was computed
/// under.
#[derive(Debug, Clone, Copy)]
struct TailMemo {
    key: TailKey,
    tail: [f32; OPF_DYN_DIM],
}

impl TailMemo {
    fn of(rt: &OpRuntime) -> Self {
        Self { key: TailKey::of(rt), tail: dynamic_tail(rt) }
    }
}

/// Extracts the full OPF vector of operator `op` in query `q`
/// (Section 4.1): the static prefix followed by the dynamic tail.
pub fn op_features(cfg: &FeatureConfig, q: &QueryRuntime, op: usize) -> Vec<f32> {
    let mut v = op_static_features(cfg, &q.plan, op);
    v.extend(op_dynamic_features(q, op));
    v
}

/// Extracts the EDF vector of a plan edge: E-NPB (1 = non-pipeline-
/// breaking) and E-DIR (pipeline direction; the producer/child is the
/// source, so a 1 marks child→parent flow on pipelined edges and 0
/// marks a blocked edge where no pipelining direction exists).
pub fn edge_features(edge: &PlanEdge) -> Vec<f32> {
    let npb = if edge.non_pipeline_breaking { 1.0 } else { 0.0 };
    vec![npb, npb]
}

/// Writes the QF vector of query `q` given the current context
/// (Section 4.1) into `out` (cleared first, capacity kept): assigned
/// threads, free threads, per-thread locality.
pub fn query_features(
    cfg: &FeatureConfig,
    ctx: &SchedContext<'_>,
    q: &QueryRuntime,
    out: &mut Vec<f32>,
) {
    out.clear();
    let total = ctx.total_threads.max(1) as f32;
    // Q-ATH.
    out.push(q.assigned_threads as f32 / total);
    // Q-FTH.
    out.push(ctx.free_threads as f32 / total);
    // Q-LOC: for each *available* thread, whether it ran this query.
    out.resize(2 + cfg.max_threads, 0.0);
    let loc = &mut out[2..];
    for &t in ctx.free_thread_ids {
        if q.executed_on.get(t).copied().unwrap_or(false) {
            loc[t % cfg.max_threads] = 1.0;
        }
    }
}

/// Dimension of the concurrent-mix feature block shared by every
/// candidate scored for one admission decision.
pub const MIX_DIM: usize = 6;

/// Dimension of one admission candidate's full feature row: the
/// concurrent-mix block followed by the per-query block.
pub const ADMIT_DIM: usize = MIX_DIM + 6;

/// Extracts the concurrent-mix feature block from a context snapshot:
/// what the system as a whole looks like at this arrival. Every entry is
/// non-negative (so a ReLU identity layer passes it through unchanged)
/// and log-compressed where unbounded:
///
/// 0. queued — thread-less (waiting) query count
/// 1. running — query count holding at least one thread
/// 2. free fraction of the worker pool
/// 3. total undispatched work-order backlog
/// 4. aggregate estimated remaining work (TrailingRegressor-driven,
///    read from the `hot.est_work` column)
/// 5. memory pressure ([`SchedContext::mem_pressure`])
pub fn mix_features(ctx: &SchedContext<'_>) -> [f32; MIX_DIM] {
    let mut queued = 0u64;
    let mut running = 0u64;
    let mut backlog = 0u64;
    let mut agg_work = 0.0f64;
    for (qi, q) in ctx.queries.iter().enumerate() {
        if q.assigned_threads == 0 {
            queued += 1;
        } else {
            running += 1;
        }
        backlog += q.ops.iter().map(|o| u64::from(o.undispatched_work_orders())).sum::<u64>();
        agg_work += ctx.hot.est_work[qi];
    }
    [
        squash(queued as f64),
        squash(running as f64),
        ctx.free_threads as f32 / ctx.total_threads.max(1) as f32,
        squash(backlog as f64),
        squash(agg_work),
        ctx.mem_pressure() as f32,
    ]
}

/// Extracts the feature row of admission candidate `ctx.queries[qi]`:
/// the shared `mix` block followed by the per-query block (all
/// non-negative):
///
/// 6. estimated remaining work of `q` ([`PlanStatics`]-era regression
///    estimates via `TrailingRegressor`)
/// 7. remaining work orders of `q`
/// 8. operator count of `q`'s plan
/// 9. priority deficit — `max(0, -priority)`, so low-priority queries
///    stand out as shed candidates while the default priority 0 is
///    neutral
/// 10. time spent waiting since arrival
/// 11. deadline urgency — `1/(1 + slack)`, 0 when no deadline is set
pub fn admission_features(
    ctx: &SchedContext<'_>,
    mix: &[f32; MIX_DIM],
    qi: usize,
) -> [f32; ADMIT_DIM] {
    let q = &ctx.queries[qi];
    let urgency = match q.deadline {
        Some(d) => {
            let slack = (d - ctx.time).max(0.0);
            (1.0 / (1.0 + slack)) as f32
        }
        None => 0.0,
    };
    [
        mix[0],
        mix[1],
        mix[2],
        mix[3],
        mix[4],
        mix[5],
        squash(ctx.hot.est_work[qi]),
        squash(f64::from(ctx.hot.remaining_wos[qi])),
        squash(q.plan.num_ops() as f64),
        squash(f64::from((-q.priority).max(0))),
        squash((ctx.time - q.arrival_time).max(0.0)),
        urgency,
    ]
}

/// Deterministic, plan-only cost estimate used by the serving router's
/// load model: the optimizer's total estimated work for the whole plan.
/// A pure function of the plan (no clocks, no RNG), so routing stays
/// bit-reproducible.
pub fn plan_est_cost(plan: &PhysicalPlan) -> f64 {
    plan.total_estimated_work()
}

/// The plan-derived, event-invariant part of a query's features: nothing
/// in here changes after the query is admitted, so it is computed once per
/// query and shared by every subsequent snapshot via [`SnapshotCache`].
#[derive(Debug, Clone)]
pub struct PlanStatics {
    /// Static OPF prefixes (O-TY ‖ O-IN ‖ O-COLS ‖ O-BLCKS), one per
    /// operator.
    pub opf_static: Vec<Vec<f32>>,
    /// EDF vectors, one per plan edge (fully static).
    pub edf: Vec<Vec<f32>>,
    /// Binary-tree structure for the tree convolution (O-CON).
    pub tree: TreeSpec,
    /// Children-first (post-order) walk of `tree`, from each root in
    /// index order: the node order of the sequential-GCN ablation
    /// encoder.
    pub children_first: Vec<usize>,
    /// `(child, parent)` endpoints per edge, aligned with `edf`.
    pub edge_endpoints: Vec<(usize, usize)>,
    /// Longest non-pipeline-breaking chain rooted at each operator — the
    /// max pipeline degree of a decision rooted there.
    pub npb_chain: Vec<usize>,
}

/// Computes the event-invariant feature block of `plan`.
pub fn plan_statics(cfg: &FeatureConfig, plan: &PhysicalPlan) -> PlanStatics {
    let (tree, edge_endpoints) = tree_of(plan);
    PlanStatics {
        opf_static: (0..plan.num_ops()).map(|op| op_static_features(cfg, plan, op)).collect(),
        edf: plan.edges.iter().map(edge_features).collect(),
        children_first: children_first(&tree),
        tree,
        edge_endpoints,
        npb_chain: (0..plan.num_ops())
            .map(|o| plan.longest_npb_chain(lsched_engine::plan::OpId(o)))
            .collect(),
    }
}

/// The per-query slice of a [`SystemSnapshot`]: a shared handle to the
/// memoized static block plus the small per-event dynamic state.
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    /// The query's id.
    pub qid: QueryId,
    /// Event-invariant plan features, shared across snapshots.
    pub statics: Arc<PlanStatics>,
    /// Dynamic OPF tails (O-WO ‖ O-DUR ‖ O-MEM), one per operator.
    pub opf_dyn: Vec<[f32; OPF_DYN_DIM]>,
    /// QF vector.
    pub qf: Vec<f32>,
    /// Indices of currently schedulable operators (candidate roots).
    pub schedulable: Vec<usize>,
    /// Max pipeline degree per schedulable operator (aligned with
    /// `schedulable`).
    pub max_degree: Vec<usize>,
}

impl QuerySnapshot {
    /// Number of operators in the query's plan.
    pub fn num_ops(&self) -> usize {
        self.statics.opf_static.len()
    }

    /// The full OPF vector of operator `op` (static prefix ‖ dynamic tail).
    pub fn opf(&self, op: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.statics.opf_static[op].len() + OPF_DYN_DIM);
        v.extend_from_slice(&self.statics.opf_static[op]);
        v.extend_from_slice(&self.opf_dyn[op]);
        v
    }

    /// The full OPF vector of operator `op` as its two parts (static
    /// prefix, dynamic tail), so the inference hot path copies them
    /// straight into the evaluator's arena without allocating.
    pub fn opf_parts(&self, op: usize) -> [&[f32]; 2] {
        [&self.statics.opf_static[op], &self.opf_dyn[op]]
    }

    /// EDF vectors, one per plan edge.
    pub fn edf(&self) -> &[Vec<f32>] {
        &self.statics.edf
    }

    /// The plan's tree-convolution structure.
    pub fn tree(&self) -> &TreeSpec {
        &self.statics.tree
    }

    /// `(child, parent)` endpoints per edge, aligned with [`Self::edf`].
    pub fn edge_endpoints(&self) -> &[(usize, usize)] {
        &self.statics.edge_endpoints
    }
}

/// A self-contained snapshot of the scheduling state at one event —
/// everything the encoder, predictor and REINFORCE trainer need, with no
/// references back into the engine (so episodes can be replayed for the
/// backward pass after the fact).
#[derive(Debug, Clone, Default)]
pub struct SystemSnapshot {
    /// Engine clock at the event.
    pub time: f64,
    /// Worker-pool size.
    pub total_threads: usize,
    /// Idle threads.
    pub free_threads: usize,
    /// Active queries.
    pub queries: Vec<QuerySnapshot>,
}

impl SystemSnapshot {
    /// Flattened (query index, schedulable-list index) candidate pairs.
    pub fn candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.candidates_into_append(&mut out);
        out
    }

    /// [`SystemSnapshot::candidates`] appended to a caller-owned vector,
    /// so the decision pass can pack several events' candidate tables
    /// into one flat vector and reuse its capacity.
    pub fn candidates_into_append(&self, out: &mut Vec<(usize, usize)>) {
        for (qi, q) in self.queries.iter().enumerate() {
            for si in 0..q.schedulable.len() {
                out.push((qi, si));
            }
        }
    }
}

/// Builds the binary [`TreeSpec`] of a plan (its O-CON connectivity) and
/// the aligned edge-endpoint list.
pub fn tree_of(plan: &lsched_engine::plan::PhysicalPlan) -> (TreeSpec, Vec<(usize, usize)>) {
    let mut tree = TreeSpec::with_nodes(plan.num_ops());
    let mut endpoints = Vec::with_capacity(plan.edges.len());
    for (ei, e) in plan.edges.iter().enumerate() {
        tree.attach(e.parent.0, e.child.0, ei);
        endpoints.push((e.child.0, e.parent.0));
    }
    (tree, endpoints)
}

/// Post-order walk of `tree` (children before parents, left slot
/// first), starting a depth-first search at every root in index order.
fn children_first(tree: &TreeSpec) -> Vec<usize> {
    let n = tree.len();
    let mut is_child = vec![false; n];
    for slots in &tree.children {
        for &(c, _) in slots.iter().flatten() {
            is_child[c] = true;
        }
    }
    fn dfs(tree: &TreeSpec, node: usize, visited: &mut [bool], order: &mut Vec<usize>) {
        if visited[node] {
            return;
        }
        visited[node] = true;
        for &(c, _) in tree.children[node].iter().flatten() {
            dfs(tree, c, visited, order);
        }
        order.push(node);
    }
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for root in (0..n).filter(|&r| !is_child[r]) {
        dfs(tree, root, &mut visited, &mut order);
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Builds one [`QuerySnapshot`] from a query runtime and its (shared or
/// freshly computed) static feature block, computing every dynamic tail.
fn query_snapshot_with(
    cfg: &FeatureConfig,
    ctx: &SchedContext<'_>,
    q: &QueryRuntime,
    statics: Arc<PlanStatics>,
) -> QuerySnapshot {
    let mut qs = blank_query_snapshot(q, statics);
    qs.opf_dyn.extend(q.ops.iter().map(dynamic_tail));
    fill_query_snapshot(cfg, ctx, q, &mut qs);
    qs
}

/// A [`QuerySnapshot`] of `q` with empty per-event state.
fn blank_query_snapshot(q: &QueryRuntime, statics: Arc<PlanStatics>) -> QuerySnapshot {
    QuerySnapshot {
        qid: q.qid,
        statics,
        opf_dyn: Vec::new(),
        qf: Vec::new(),
        schedulable: Vec::new(),
        max_degree: Vec::new(),
    }
}

/// Writes the per-event state of `q` other than the dynamic tails into
/// `qs` (whose `qid` and `statics` are already `q`'s), reusing the
/// capacity of its vectors.
fn fill_query_snapshot(
    cfg: &FeatureConfig,
    ctx: &SchedContext<'_>,
    q: &QueryRuntime,
    qs: &mut QuerySnapshot,
) {
    query_features(cfg, ctx, q, &mut qs.qf);
    qs.schedulable.clear();
    qs.schedulable.extend(q.schedulable_ops().iter().map(|o| o.0));
    qs.max_degree.clear();
    qs.max_degree.extend(qs.schedulable.iter().map(|&o| qs.statics.npb_chain[o]));
}

/// Captures a full [`SystemSnapshot`] from a scheduling context,
/// recomputing every feature from scratch (no memoization). This is the
/// reference path; [`snapshot_cached`] must produce identical output.
pub fn snapshot(cfg: &FeatureConfig, ctx: &SchedContext<'_>) -> SystemSnapshot {
    let queries = ctx
        .queries
        .iter()
        .map(|q| query_snapshot_with(cfg, ctx, q, Arc::new(plan_statics(cfg, &q.plan))))
        .collect();
    SystemSnapshot {
        time: ctx.time,
        total_threads: ctx.total_threads,
        free_threads: ctx.free_threads,
        queries,
    }
}

/// One query's entry in a [`SnapshotCache`].
#[derive(Debug)]
struct CacheEntry {
    /// Address of the plan the entry was computed from.
    plan: usize,
    statics: Arc<PlanStatics>,
    /// Per operator, the last dynamic tail and its [`TailKey`].
    tails: Vec<TailMemo>,
}

/// Memoizes [`PlanStatics`] and the dynamic OPF tails per active query,
/// so each scheduling event only recomputes the tails of the operators
/// that moved.
///
/// Entries are keyed by query id and guarded by the plan's `Arc` pointer:
/// query ids restart from zero in every simulation, so a stale entry
/// whose id was reused by a different plan instance is detected and
/// recomputed rather than served. Each operator's tail is recomputed only
/// when its [`TailKey`] (the tail's exact inputs) moved, so a stale
/// entry under a reused id and plan is still served correctly.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    entries: HashMap<u64, CacheEntry>,
    /// Query slices a reused snapshot no longer needed, kept so a later,
    /// larger snapshot refills their buffers instead of allocating.
    spare: Vec<QuerySnapshot>,
    hits: u64,
    misses: u64,
    /// Dynamic tails recomputed under a hit because their key moved.
    tail_updates: u64,
}

impl SnapshotCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `q`'s entry, (re)computed on a miss.
    fn entry(&mut self, cfg: &FeatureConfig, q: &QueryRuntime) -> &mut CacheEntry {
        let plan = Arc::as_ptr(&q.plan) as usize;
        match self.entries.entry(q.qid.0) {
            Entry::Occupied(e) if e.get().plan == plan => {
                self.hits += 1;
                e.into_mut()
            }
            e => {
                self.misses += 1;
                let statics = Arc::new(plan_statics(cfg, &q.plan));
                let tails = q.ops.iter().map(TailMemo::of).collect();
                e.insert_entry(CacheEntry { plan, statics, tails }).into_mut()
            }
        }
    }

    /// Drops the entry for a finished query, bounding the cache by the
    /// number of concurrently active queries.
    pub fn evict(&mut self, qid: QueryId) {
        self.entries.remove(&qid.0);
    }

    /// Clears all entries (e.g. when a scheduler is reset between runs).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.spare.clear();
    }

    /// Number of cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses (fresh computations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of operator tails recomputed because their inputs moved
    /// (a miss computes every tail of its query and is not counted).
    pub fn tail_updates(&self) -> u64 {
        self.tail_updates
    }
}

/// Captures a full [`SystemSnapshot`], reusing memoized per-plan statics
/// and dynamic tails from `cache`. Element-wise identical to [`snapshot`]
/// (property-tested).
pub fn snapshot_cached(
    cfg: &FeatureConfig,
    ctx: &SchedContext<'_>,
    cache: &mut SnapshotCache,
) -> SystemSnapshot {
    let mut snap = SystemSnapshot::default();
    snapshot_cached_into(cfg, ctx, cache, &mut snap);
    snap
}

/// [`snapshot_cached`] written over `snap`, reusing its buffers: the
/// query slices `snap` already holds are refilled in place, surplus ones
/// are parked in `cache` and parked ones serve a larger snapshot later,
/// so a warmed-up call allocates nothing. The result is the same as a
/// fresh [`snapshot_cached`] (property-tested).
pub fn snapshot_cached_into(
    cfg: &FeatureConfig,
    ctx: &SchedContext<'_>,
    cache: &mut SnapshotCache,
    snap: &mut SystemSnapshot,
) {
    snap.time = ctx.time;
    snap.total_threads = ctx.total_threads;
    snap.free_threads = ctx.free_threads;
    let n = ctx.queries.len();
    while snap.queries.len() > n {
        cache.spare.extend(snap.queries.pop());
    }
    for (i, q) in ctx.queries.iter().enumerate() {
        let parked = (i == snap.queries.len()).then(|| cache.spare.pop());
        let entry = cache.entry(cfg, q);
        if let Some(parked) = parked {
            snap.queries
                .push(parked.unwrap_or_else(|| blank_query_snapshot(q, Arc::clone(&entry.statics))));
        }
        let qs = &mut snap.queries[i];
        qs.qid = q.qid;
        if !Arc::ptr_eq(&qs.statics, &entry.statics) {
            qs.statics = Arc::clone(&entry.statics);
        }
        qs.opf_dyn.clear();
        let mut updates = 0;
        for (m, rt) in entry.tails.iter_mut().zip(&q.ops) {
            let key = TailKey::of(rt);
            if m.key != key {
                *m = TailMemo { key, tail: dynamic_tail(rt) };
                updates += 1;
            }
            qs.opf_dyn.push(m.tail);
        }
        cache.tail_updates += updates;
        fill_query_snapshot(cfg, ctx, q, qs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::plan::{OpId, OpKind, OpSpec, PlanBuilder};
    use std::sync::Arc;

    #[test]
    fn eq1_worked_example() {
        // The paper's example: b = {1,1,0,1,1,0} downsized to 3 gives
        // {1, 1, 0.5}.
        let b = [true, true, false, true, true, false];
        assert_eq!(downsample_blocks(&b, 3), vec![1.0, 1.0, 0.5]);
    }

    #[test]
    fn eq1_empty_and_full() {
        assert_eq!(downsample_blocks(&[], 4), vec![0.0; 4]);
        let all = vec![true; 8];
        let d = downsample_blocks(&all, 4);
        // Inclusive windows overlap, so interior entries may exceed 1
        // slightly; mass should stay close to fully-touched.
        assert!(d.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn eq1_preserves_rough_mass() {
        let b: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let d = downsample_blocks(&b, 8);
        let mean = d.iter().sum::<f32>() / 8.0;
        assert!((mean - 0.5).abs() < 0.2, "mean {mean}");
    }

    fn demo_query() -> QueryRuntime {
        let mut b = PlanBuilder::new("f");
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![2], vec![5, 9], 100.0, 4, 0.01, 2e6);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![2], vec![5], 50.0, 4, 0.005, 1e6);
        b.connect(scan, sel, true);
        b.set_block_bitmap(scan, vec![true, true, false, false]);
        let plan = Arc::new(b.finish(sel));
        QueryRuntime::new(QueryId(0), plan, 0.0, 8)
    }

    #[test]
    fn opf_has_configured_dim_and_onehots() {
        let cfg = FeatureConfig::default();
        let q = demo_query();
        let v = op_features(&cfg, &q, 0);
        assert_eq!(v.len(), cfg.opf_dim());
        // O-TY: TableScan is index 0.
        assert_eq!(v[OpKind::TableScan.index()], 1.0);
        assert_eq!(v.iter().take(OpKind::COUNT).sum::<f32>(), 1.0);
        // O-IN: table 2 set.
        assert_eq!(v[OpKind::COUNT + 2], 1.0);
        // O-COLS: columns 5 and 9 set.
        let cols_base = OpKind::COUNT + cfg.max_tables;
        assert_eq!(v[cols_base + 5], 1.0);
        assert_eq!(v[cols_base + 9], 1.0);
    }

    #[test]
    fn opf_dynamic_features_shrink_with_progress() {
        let cfg = FeatureConfig::default();
        let mut q = demo_query();
        let before = op_features(&cfg, &q, 0);
        q.ops[0].dispatched_work_orders = 2;
        q.ops[0].observe_completion(&lsched_engine::stats::WorkOrderStats {
            duration: 0.01,
            memory: 1e6,
            output_rows: 5,
            completed_at: 0.1,
        });
        q.refresh_estimates();
        let after = op_features(&cfg, &q, 0);
        let d = cfg.opf_dim();
        // O-WO (third from the end) decreased.
        assert!(after[d - 3] < before[d - 3]);
    }

    #[test]
    fn edge_features_encode_npb() {
        let q = demo_query();
        let e = edge_features(&q.plan.edges[0]);
        assert_eq!(e, vec![1.0, 1.0]);
        let blocked = lsched_engine::plan::PlanEdge {
            child: OpId(0),
            parent: OpId(1),
            non_pipeline_breaking: false,
        };
        assert_eq!(edge_features(&blocked), vec![0.0, 0.0]);
    }

    #[test]
    fn snapshot_captures_structure() {
        let cfg = FeatureConfig::default();
        let q = demo_query();
        let queries = vec![q];
        let free = [0usize, 1, 2];
        let hot = lsched_engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 1.5,
            total_threads: 8,
            free_threads: 3,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let snap = snapshot(&cfg, &ctx);
        assert_eq!(snap.queries.len(), 1);
        let qs = &snap.queries[0];
        assert_eq!(qs.num_ops(), 2);
        assert_eq!(qs.edf().len(), 1);
        assert_eq!(qs.qf.len(), cfg.qf_dim());
        assert_eq!(qs.schedulable, vec![0]); // only the scan is schedulable
        assert_eq!(qs.max_degree, vec![2]);
        assert_eq!(snap.candidates(), vec![(0, 0)]);
        // QF: q-fth = 3/8.
        assert!((qs.qf[1] - 3.0 / 8.0).abs() < 1e-6);
    }

    #[test]
    fn plan_est_cost_is_the_optimizer_total() {
        // Deterministic per plan: the serving router's load model.
        let q = demo_query();
        assert_eq!(plan_est_cost(&q.plan), q.plan.total_estimated_work());
    }

    #[test]
    fn split_opf_matches_monolithic_extraction() {
        let cfg = FeatureConfig::default();
        let q = demo_query();
        let statics = plan_statics(&cfg, &q.plan);
        for op in 0..q.plan.num_ops() {
            let mut assembled = statics.opf_static[op].clone();
            assembled.extend(op_dynamic_features(&q, op));
            assert_eq!(assembled, op_features(&cfg, &q, op));
        }
    }

    #[test]
    fn cached_snapshot_matches_fresh_and_counts_hits() {
        let cfg = FeatureConfig::default();
        let queries = vec![demo_query()];
        let free = [0usize, 1];
        let hot = lsched_engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 0.5,
            total_threads: 8,
            free_threads: 2,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let mut cache = SnapshotCache::new();
        let fresh = snapshot(&cfg, &ctx);
        let cached1 = snapshot_cached(&cfg, &ctx, &mut cache);
        let cached2 = snapshot_cached(&cfg, &ctx, &mut cache);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        for (a, b) in fresh.queries.iter().zip(&cached2.queries) {
            for op in 0..a.num_ops() {
                assert_eq!(a.opf(op), b.opf(op));
            }
            assert_eq!(a.edf(), b.edf());
            assert_eq!(a.qf, b.qf);
            assert_eq!(a.schedulable, b.schedulable);
            assert_eq!(a.max_degree, b.max_degree);
        }
        assert_eq!(cached1.queries[0].statics.npb_chain, fresh.queries[0].statics.npb_chain);
        // Eviction forces a recompute on the next lookup.
        cache.evict(QueryId(0));
        let _ = snapshot_cached(&cfg, &ctx, &mut cache);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.tail_updates(), 0, "nothing moved");
    }

    #[test]
    fn cached_tails_recompute_only_the_moved_operator() {
        let cfg = FeatureConfig::default();
        let mut queries = vec![demo_query()];
        let mut cache = SnapshotCache::new();
        let mut snap = SystemSnapshot::default();
        let mut check = |queries: &[QueryRuntime], cache: &mut SnapshotCache| {
            let free = [0usize, 1];
            let hot = lsched_engine::scheduler::QueryHot::from_queries(queries);
            let ctx = SchedContext {
                time: 0.5,
                total_threads: 8,
                free_threads: 2,
                free_thread_ids: &free,
                queries,
                hot: &hot,
                in_flight_mem: 0.0,
                mem_budget: f64::INFINITY,
            };
            snapshot_cached_into(&cfg, &ctx, cache, &mut snap);
            assert_eq!(snap.queries[0].opf_dyn, snapshot(&cfg, &ctx).queries[0].opf_dyn);
        };
        check(&queries, &mut cache);
        // A completion on the scan moves its tail alone.
        queries[0].mark_running(OpId(0));
        queries[0].ops[0].dispatched_work_orders = 1;
        queries[0].observe_wo_completion(
            OpId(0),
            &lsched_engine::stats::WorkOrderStats {
                duration: 0.02,
                memory: 1e6,
                output_rows: 5,
                completed_at: 0.1,
            },
        );
        queries[0].refresh_estimates();
        check(&queries, &mut cache);
        assert_eq!(cache.tail_updates(), 1);
        // So does a total rewritten without a completion.
        queries[0].ops[1].total_work_orders += 1;
        check(&queries, &mut cache);
        assert_eq!(cache.tail_updates(), 2);
    }
}
