//! Physical query plans: DAGs of work-order-based operators.
//!
//! A [`PhysicalPlan`] mirrors what Quickstep's optimizer hands its
//! scheduler (Section 2 of the paper): a DAG of physical operators where
//! each operator will be expanded into one work order per input block, and
//! each edge is annotated with whether it is *pipeline breaking* (the
//! consumer must wait for the producer to finish — e.g. BuildHash →
//! ProbeHash) or *non-pipeline-breaking* (the consumer can run while the
//! producer streams blocks — e.g. Select → Select), plus the pipeline
//! direction. Data flows from child operators (producers, e.g. scans at
//! the leaves) to parent operators (consumers, with the plan root on top).

use crate::catalog::TableId;
use crate::expr::{Predicate, ScalarExpr};

/// Identifier of an operator within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// The 29 work-order-based operator kinds (matching the operator
/// inventory Quickstep exposes to its scheduler, Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    TableScan,
    Select,
    Project,
    BuildHash,
    ProbeHash,
    DestroyHash,
    NestedLoopsJoin,
    IndexScan,
    IndexNestedLoopsJoin,
    MergeJoin,
    Aggregate,
    FinalizeAggregate,
    InitializeAggregation,
    DestroyAggregationState,
    SortRunGeneration,
    SortMergeRun,
    TopK,
    Limit,
    HashDistinct,
    Union,
    UnionAll,
    Intersect,
    Except,
    Materialize,
    TableGenerator,
    WindowAggregate,
    Insert,
    Update,
    Delete,
}

impl OpKind {
    /// Number of operator kinds (the O-TY one-hot width).
    pub const COUNT: usize = 29;

    /// Dense index of the kind, for one-hot encodings.
    pub fn index(self) -> usize {
        use OpKind::*;
        match self {
            TableScan => 0,
            Select => 1,
            Project => 2,
            BuildHash => 3,
            ProbeHash => 4,
            DestroyHash => 5,
            NestedLoopsJoin => 6,
            IndexScan => 7,
            IndexNestedLoopsJoin => 8,
            MergeJoin => 9,
            Aggregate => 10,
            FinalizeAggregate => 11,
            InitializeAggregation => 12,
            DestroyAggregationState => 13,
            SortRunGeneration => 14,
            SortMergeRun => 15,
            TopK => 16,
            Limit => 17,
            HashDistinct => 18,
            Union => 19,
            UnionAll => 20,
            Intersect => 21,
            Except => 22,
            Materialize => 23,
            TableGenerator => 24,
            WindowAggregate => 25,
            Insert => 26,
            Update => 27,
            Delete => 28,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        use OpKind::*;
        match self {
            TableScan => "table_scan",
            Select => "select",
            Project => "project",
            BuildHash => "build_hash",
            ProbeHash => "probe_hash",
            DestroyHash => "destroy_hash",
            NestedLoopsJoin => "nested_loops_join",
            IndexScan => "index_scan",
            IndexNestedLoopsJoin => "index_nlj",
            MergeJoin => "merge_join",
            Aggregate => "aggregate",
            FinalizeAggregate => "finalize_aggregate",
            InitializeAggregation => "init_aggregation",
            DestroyAggregationState => "destroy_agg_state",
            SortRunGeneration => "sort_run_gen",
            SortMergeRun => "sort_merge_run",
            TopK => "top_k",
            Limit => "limit",
            HashDistinct => "hash_distinct",
            Union => "union",
            UnionAll => "union_all",
            Intersect => "intersect",
            Except => "except",
            Materialize => "materialize",
            TableGenerator => "table_generator",
            WindowAggregate => "window_aggregate",
            Insert => "insert",
            Update => "update",
            Delete => "delete",
        }
    }
}

/// Aggregate functions supported by the executable engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of an expression.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

/// The executable payload of an operator.
///
/// Operators built for the real engine carry full execution details;
/// simulator-only plans (e.g. the synthetic JOB workload) use
/// [`OpSpec::Synthetic`] and rely purely on the cardinality estimates.
#[derive(Debug, Clone)]
pub enum OpSpec {
    /// Scan a base table, optionally filtering and projecting per block.
    TableScan {
        /// Table to scan.
        table: TableId,
        /// Filter applied during the scan.
        predicate: Predicate,
        /// Column positions to keep (`None` keeps all).
        project: Option<Vec<usize>>,
    },
    /// Zone-map index scan: a range predicate on one integer column,
    /// with per-block min/max pruning so work orders over blocks outside
    /// the range return without reading tuples (the cheap-scan behaviour
    /// of index scans in block-based analytical systems).
    IndexScan {
        /// Table to scan.
        table: TableId,
        /// Indexed (integer) column position.
        col: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Column positions to keep (`None` keeps all).
        project: Option<Vec<usize>>,
    },
    /// Filter the child's output blocks.
    Select {
        /// Filter predicate over the child's output schema.
        predicate: Predicate,
    },
    /// Compute projection expressions over the child's output blocks.
    Project {
        /// Output expressions over the child's output schema.
        exprs: Vec<ScalarExpr>,
    },
    /// Build a hash table over the child's output, keyed by columns.
    BuildHash {
        /// Key column positions in the child's output schema.
        keys: Vec<usize>,
    },
    /// Probe a previously built hash table with the probe child's blocks.
    ProbeHash {
        /// Key column positions in the probe child's output schema.
        keys: Vec<usize>,
    },
    /// Per-block partial aggregation.
    Aggregate {
        /// Group-by column positions (empty for scalar aggregates).
        group_by: Vec<usize>,
        /// Aggregate functions over expressions.
        aggs: Vec<(AggFunc, ScalarExpr)>,
    },
    /// Merge partial aggregation states into final results.
    FinalizeAggregate,
    /// Per-block sorted-run generation.
    SortRunGeneration {
        /// Sort key column positions.
        cols: Vec<usize>,
        /// Per-key descending flags.
        desc: Vec<bool>,
    },
    /// Merge sorted runs into one output stream.
    SortMergeRun {
        /// Sort key column positions.
        cols: Vec<usize>,
        /// Per-key descending flags.
        desc: Vec<bool>,
    },
    /// Keep the top `k` rows by one column.
    TopK {
        /// Number of rows to keep.
        k: usize,
        /// Ranking column position.
        col: usize,
        /// Whether larger values rank first.
        desc: bool,
    },
    /// Join two children with an arbitrary predicate.
    NestedLoopsJoin {
        /// Join predicate over the concatenated (left ‖ right) schema.
        predicate: Predicate,
    },
    /// Concatenate children outputs (bag semantics).
    UnionAll,
    /// Materialize the child's output (barrier).
    Materialize,
    /// No executable payload; only valid on the simulator.
    Synthetic,
}

/// A directed plan edge: data flows `child` → `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Producer operator.
    pub child: OpId,
    /// Consumer operator.
    pub parent: OpId,
    /// True when the consumer can start before the producer finishes
    /// (the E-NPB feature: 1 = non-pipeline-breaking).
    pub non_pipeline_breaking: bool,
}

/// One physical operator in a plan.
#[derive(Debug, Clone)]
pub struct PlanOp {
    /// Operator id within the plan.
    pub id: OpId,
    /// Operator kind (drives the O-TY feature).
    pub kind: OpKind,
    /// Executable payload.
    pub spec: OpSpec,
    /// Global indices of the base relations feeding this operator
    /// (directly or transitively) — the O-IN feature.
    pub input_tables: Vec<usize>,
    /// Global column indices used by the operator — the O-COLS feature.
    pub columns_used: Vec<usize>,
    /// Optimizer cardinality estimate of the operator's input rows.
    pub est_rows: f64,
    /// Planned number of work orders (== input block count).
    pub num_work_orders: u32,
    /// Which blocks of the (base) input the work orders touch; empty for
    /// intermediate operators. Drives the O-BLCKS feature.
    pub block_bitmap: Vec<bool>,
    /// Optimizer estimate of the duration of one work order (seconds).
    pub est_wo_duration: f64,
    /// Optimizer estimate of the memory of one work order (bytes).
    pub est_wo_memory: f64,
}

/// A physical query plan DAG.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Human-readable query name (e.g. `"tpch_q03"`).
    pub name: String,
    /// Operators, indexed by [`OpId`].
    pub ops: Vec<PlanOp>,
    /// Edges (child → parent).
    pub edges: Vec<PlanEdge>,
    /// The plan root (final consumer).
    pub root: OpId,
    /// Lazily computed per-op full non-pipeline-breaking chains (see
    /// [`Self::npb_chain`]). Plans are immutable once built, and chains
    /// are consulted per scheduling decision by validation, guarding and
    /// the heuristic policies.
    npb_chain_cache: std::sync::OnceLock<NpbChains>,
    /// Lazily computed [`Self::critical_path_estimate`].
    critical_path_cache: std::sync::OnceLock<f64>,
    /// CSR adjacency over `edges`, built once at [`PlanBuilder::finish`]:
    /// op `i`'s children occupy `child_adj[child_off[i]..child_off[i+1]]`
    /// (and likewise for parents), in `edges` order, so the per-event
    /// dependency walks of the simulator and executor touch slices
    /// instead of filtering the whole edge list into fresh `Vec`s.
    child_off: Vec<u32>,
    child_adj: Vec<AdjEntry>,
    parent_off: Vec<u32>,
    parent_adj: Vec<AdjEntry>,
}

/// Every op's full non-pipeline-breaking chain, flattened: op `i`'s
/// chain is `ops[off[i]..off[i + 1]]`.
#[derive(Debug, Clone)]
struct NpbChains {
    off: Vec<u32>,
    ops: Vec<OpId>,
}

/// One CSR adjacency entry: the neighbouring operator and whether the
/// connecting edge is non-pipeline-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbour (child for `children`, parent for `parents`).
    pub op: OpId,
    /// The connecting edge's E-NPB flag.
    pub non_pipeline_breaking: bool,
}

/// Builds one direction of the CSR adjacency. `key` selects the op the
/// row is indexed by; `val` the op stored in the entry.
fn build_csr(
    n: usize,
    edges: &[PlanEdge],
    key: impl Fn(&PlanEdge) -> OpId,
    val: impl Fn(&PlanEdge) -> OpId,
) -> (Vec<u32>, Vec<AdjEntry>) {
    let mut off = vec![0u32; n + 1];
    for e in edges {
        off[key(e).0 + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut adj = vec![AdjEntry { op: OpId(0), non_pipeline_breaking: false }; edges.len()];
    let mut cursor = off.clone();
    // Filling in edge order keeps each row in `edges` order, matching the
    // enumeration order of the legacy `children_of`/`parents_of`.
    for e in edges {
        let k = key(e).0;
        adj[cursor[k] as usize] =
            AdjEntry { op: val(e), non_pipeline_breaking: e.non_pipeline_breaking };
        cursor[k] += 1;
    }
    (off, adj)
}

impl PhysicalPlan {
    /// Assembles a plan (building the CSR adjacency) without validating
    /// structural invariants. [`PlanBuilder::finish`] is the validating
    /// front door; this exists for tests that need malformed plans.
    pub fn from_parts_unvalidated(
        name: String,
        ops: Vec<PlanOp>,
        edges: Vec<PlanEdge>,
        root: OpId,
    ) -> Self {
        let n = ops.len();
        let (child_off, child_adj) = build_csr(n, &edges, |e| e.parent, |e| e.child);
        let (parent_off, parent_adj) = build_csr(n, &edges, |e| e.child, |e| e.parent);
        Self {
            name,
            ops,
            edges,
            root,
            npb_chain_cache: Default::default(),
            critical_path_cache: Default::default(),
            child_off,
            child_adj,
            parent_off,
            parent_adj,
        }
    }

    /// Number of operators.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The operator with the given id.
    pub fn op(&self, id: OpId) -> &PlanOp {
        &self.ops[id.0]
    }

    /// Producer children of `id`, with the connecting edge.
    pub fn children_of(&self, id: OpId) -> Vec<(&PlanEdge, OpId)> {
        self.edges.iter().filter(|e| e.parent == id).map(|e| (e, e.child)).collect()
    }

    /// Consumer parents of `id`, with the connecting edge.
    pub fn parents_of(&self, id: OpId) -> Vec<(&PlanEdge, OpId)> {
        self.edges.iter().filter(|e| e.child == id).map(|e| (e, e.parent)).collect()
    }

    /// Producer children of `id` as a borrowed CSR slice (edge order) —
    /// the allocation-free counterpart of [`Self::children_of`] for
    /// per-event hot paths.
    #[inline]
    pub fn children(&self, id: OpId) -> &[AdjEntry] {
        &self.child_adj[self.child_off[id.0] as usize..self.child_off[id.0 + 1] as usize]
    }

    /// Consumer parents of `id` as a borrowed CSR slice (edge order) —
    /// the allocation-free counterpart of [`Self::parents_of`].
    #[inline]
    pub fn parents(&self, id: OpId) -> &[AdjEntry] {
        &self.parent_adj[self.parent_off[id.0] as usize..self.parent_off[id.0 + 1] as usize]
    }

    /// Edge index lookup for a (child, parent) pair.
    pub fn edge_index(&self, child: OpId, parent: OpId) -> Option<usize> {
        self.edges.iter().position(|e| e.child == child && e.parent == parent)
    }

    /// Operators in a topological order (children before parents).
    pub fn topo_order(&self) -> Vec<OpId> {
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.parent.0] += 1;
        }
        let mut stack: Vec<OpId> =
            (0..n).filter(|&i| indegree[i] == 0).map(OpId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = stack.pop() {
            order.push(id);
            for e in self.parents(id) {
                indegree[e.op.0] -= 1;
                if indegree[e.op.0] == 0 {
                    stack.push(e.op);
                }
            }
        }
        assert_eq!(order.len(), n, "plan {:?} contains a cycle", self.name);
        order
    }

    /// Length (in operators, including `from`) of the longest chain of
    /// non-pipeline-breaking edges going *up* from `from` toward the root,
    /// where every hop must also be the unique child of its parent on a
    /// non-breaking edge. This bounds the pipeline-degree decision
    /// (Section 5.3.2).
    pub fn longest_npb_chain(&self, from: OpId) -> usize {
        self.npb_chain(from).len()
    }

    /// The full non-pipeline-breaking chain from `root`: `[root,
    /// consumer, consumer-of-consumer, ...]`, stepping up while the
    /// current op has exactly one non-pipeline-breaking consumer. Its
    /// length is [`Self::longest_npb_chain`]; memoized per plan, so this
    /// is a borrowed slice with no per-call work.
    pub fn npb_chain(&self, root: OpId) -> &[OpId] {
        let chains = self.npb_chain_cache.get_or_init(|| self.compute_npb_chains());
        &chains.ops[chains.off[root.0] as usize..chains.off[root.0 + 1] as usize]
    }

    fn compute_npb_chains(&self) -> NpbChains {
        let n = self.ops.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut ops = Vec::new();
        off.push(0);
        for i in 0..n {
            let mut cur = OpId(i);
            ops.push(cur);
            // An acyclic plan's chain visits each op at most once; the
            // bound only stops an unvalidated cyclic plan from looping.
            for _ in 1..n {
                let mut ups = self.parents(cur).iter().filter(|e| e.non_pipeline_breaking);
                match (ups.next(), ups.next()) {
                    (Some(e), None) => {
                        ops.push(e.op);
                        cur = e.op;
                    }
                    _ => break,
                }
            }
            off.push(ops.len() as u32);
        }
        NpbChains { off, ops }
    }

    /// The chain of operators a pipeline of `degree` rooted at `root`
    /// covers: the first `degree` operators (at least the root) of
    /// [`Self::npb_chain`].
    pub fn pipeline_chain(&self, root: OpId, degree: usize) -> Vec<OpId> {
        let chain = self.npb_chain(root);
        chain[..degree.clamp(1, chain.len())].to_vec()
    }

    /// Total estimated remaining work (seconds of work orders) of the
    /// whole plan — used by SJF-style heuristics.
    pub fn total_estimated_work(&self) -> f64 {
        self.ops.iter().map(|o| o.num_work_orders as f64 * o.est_wo_duration).sum()
    }

    /// Estimated critical-path length (seconds): the heaviest
    /// leaf-to-root path by estimated operator work. Memoized per plan.
    pub fn critical_path_estimate(&self) -> f64 {
        *self.critical_path_cache.get_or_init(|| {
            let mut best = vec![0.0f64; self.ops.len()];
            for id in self.topo_order() {
                let own = self.op(id).num_work_orders as f64 * self.op(id).est_wo_duration;
                let child_best =
                    self.children(id).iter().map(|e| best[e.op.0]).fold(0.0f64, f64::max);
                best[id.0] = own + child_best;
            }
            best[self.root.0]
        })
    }

    /// Validates structural invariants: ids dense and consistent, root in
    /// range, every non-root op reaches the root, at most two children
    /// per op (binary plans for tree convolution), acyclicity.
    pub fn validate(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            if op.id.0 != i {
                return Err(format!("op at position {i} has id {:?}", op.id));
            }
            if op.num_work_orders == 0 {
                return Err(format!("op {i} has zero work orders"));
            }
        }
        if self.root.0 >= self.ops.len() {
            return Err("root out of range".into());
        }
        for e in &self.edges {
            if e.child.0 >= self.ops.len() || e.parent.0 >= self.ops.len() {
                return Err("edge endpoint out of range".into());
            }
            if e.child == e.parent {
                return Err("self-loop edge".into());
            }
        }
        for i in 0..self.ops.len() {
            let nc = self.children_of(OpId(i)).len();
            if nc > 2 {
                return Err(format!("op {i} has {nc} children; plans must be binary"));
            }
        }
        // topo_order panics on cycles; run it through catch-free check:
        let mut indegree = vec![0usize; self.ops.len()];
        for e in &self.edges {
            indegree[e.parent.0] += 1;
        }
        let mut stack: Vec<usize> =
            (0..self.ops.len()).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(id) = stack.pop() {
            seen += 1;
            for e in self.edges.iter().filter(|e| e.child.0 == id) {
                indegree[e.parent.0] -= 1;
                if indegree[e.parent.0] == 0 {
                    stack.push(e.parent.0);
                }
            }
        }
        if seen != self.ops.len() {
            return Err("plan contains a cycle".into());
        }
        Ok(())
    }
}

/// Incremental builder for [`PhysicalPlan`]s.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    name: String,
    ops: Vec<PlanOp>,
    edges: Vec<PlanEdge>,
}

impl PlanBuilder {
    /// Starts a new plan.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ops: Vec::new(), edges: Vec::new() }
    }

    /// Adds an operator and returns its id. The builder fixes `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_op(
        &mut self,
        kind: OpKind,
        spec: OpSpec,
        input_tables: Vec<usize>,
        columns_used: Vec<usize>,
        est_rows: f64,
        num_work_orders: u32,
        est_wo_duration: f64,
        est_wo_memory: f64,
    ) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(PlanOp {
            id,
            kind,
            spec,
            input_tables,
            columns_used,
            est_rows,
            num_work_orders: num_work_orders.max(1),
            block_bitmap: Vec::new(),
            est_wo_duration,
            est_wo_memory,
        });
        id
    }

    /// Sets the block bitmap of an operator (scan leaves).
    pub fn set_block_bitmap(&mut self, id: OpId, bitmap: Vec<bool>) {
        self.ops[id.0].block_bitmap = bitmap;
    }

    /// Connects `child` (producer) to `parent` (consumer).
    pub fn connect(&mut self, child: OpId, parent: OpId, non_pipeline_breaking: bool) {
        self.edges.push(PlanEdge { child, parent, non_pipeline_breaking });
    }

    /// Finalizes the plan with the given root, validating invariants.
    ///
    /// # Panics
    /// Panics if validation fails — plan builders are static code, so a
    /// malformed plan is a programming error.
    pub fn finish(self, root: OpId) -> PhysicalPlan {
        let plan = PhysicalPlan::from_parts_unvalidated(self.name, self.ops, self.edges, root);
        if let Err(e) = plan.validate() {
            panic!("invalid plan {:?}: {e}", plan.name);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// scan -> select -> select -> agg(partial, breaking) -> finalize
    fn chain_plan() -> PhysicalPlan {
        let mut b = PlanBuilder::new("chain");
        let scan = b.add_op(
            OpKind::TableScan,
            OpSpec::Synthetic,
            vec![0],
            vec![0, 1],
            1000.0,
            10,
            0.01,
            1024.0,
        );
        let s1 = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 500.0, 10, 0.005, 512.0);
        let s2 = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![2], 250.0, 10, 0.005, 512.0);
        let agg = b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![3], 250.0, 10, 0.02, 2048.0);
        let fin = b.add_op(OpKind::FinalizeAggregate, OpSpec::Synthetic, vec![0], vec![3], 10.0, 1, 0.01, 256.0);
        b.connect(scan, s1, true);
        b.connect(s1, s2, true);
        b.connect(s2, agg, true);
        b.connect(agg, fin, false); // finalize must wait for all partials
        b.finish(fin)
    }

    #[test]
    fn topo_order_children_first() {
        let p = chain_plan();
        let order = p.topo_order();
        let pos: Vec<usize> =
            (0..p.num_ops()).map(|i| order.iter().position(|o| o.0 == i).unwrap()).collect();
        for e in &p.edges {
            assert!(pos[e.child.0] < pos[e.parent.0]);
        }
    }

    #[test]
    fn longest_npb_chain_counts() {
        let p = chain_plan();
        // scan -> s1 -> s2 -> agg are all non-breaking: chain of 4 from scan.
        assert_eq!(p.longest_npb_chain(OpId(0)), 4);
        assert_eq!(p.longest_npb_chain(OpId(2)), 2); // s2 -> agg
        assert_eq!(p.longest_npb_chain(OpId(3)), 1); // agg -> finalize is breaking
    }

    #[test]
    fn pipeline_chain_truncates() {
        let p = chain_plan();
        assert_eq!(p.pipeline_chain(OpId(0), 3), vec![OpId(0), OpId(1), OpId(2)]);
        assert_eq!(p.pipeline_chain(OpId(0), 99).len(), 4);
        assert_eq!(p.pipeline_chain(OpId(3), 5), vec![OpId(3)]);
    }

    #[test]
    fn estimates_accumulate() {
        let p = chain_plan();
        let work = p.total_estimated_work();
        assert!((work - (10.0 * 0.01 + 10.0 * 0.005 * 2.0 + 10.0 * 0.02 + 0.01)).abs() < 1e-9);
        assert!(p.critical_path_estimate() > 0.0);
    }

    #[test]
    fn validate_rejects_cycles() {
        let mut b = PlanBuilder::new("cyclic");
        let a = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        let c = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        b.connect(a, c, true);
        b.connect(c, a, true);
        let plan = PhysicalPlan::from_parts_unvalidated("cyclic".into(), b.ops, b.edges, OpId(0));
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_rejects_ternary() {
        let mut b = PlanBuilder::new("ternary");
        let a = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        let c1 = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        let c2 = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        let c3 = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![], vec![], 1.0, 1, 0.1, 1.0);
        b.connect(c1, a, true);
        b.connect(c2, a, true);
        b.connect(c3, a, true);
        let plan = PhysicalPlan::from_parts_unvalidated("ternary".into(), b.ops, b.edges, a);
        assert!(plan.validate().unwrap_err().contains("children"));
    }

    #[test]
    fn op_kind_indices_are_dense_and_unique() {
        use std::collections::HashSet;
        let kinds = [
            OpKind::TableScan, OpKind::Select, OpKind::Project, OpKind::BuildHash,
            OpKind::ProbeHash, OpKind::DestroyHash, OpKind::NestedLoopsJoin,
            OpKind::IndexScan, OpKind::IndexNestedLoopsJoin, OpKind::MergeJoin,
            OpKind::Aggregate, OpKind::FinalizeAggregate, OpKind::InitializeAggregation,
            OpKind::DestroyAggregationState, OpKind::SortRunGeneration, OpKind::SortMergeRun,
            OpKind::TopK, OpKind::Limit, OpKind::HashDistinct, OpKind::Union,
            OpKind::UnionAll, OpKind::Intersect, OpKind::Except, OpKind::Materialize,
            OpKind::TableGenerator, OpKind::WindowAggregate, OpKind::Insert,
            OpKind::Update, OpKind::Delete,
        ];
        assert_eq!(kinds.len(), OpKind::COUNT);
        let idx: HashSet<usize> = kinds.iter().map(|k| k.index()).collect();
        assert_eq!(idx.len(), OpKind::COUNT);
        assert!(idx.iter().all(|&i| i < OpKind::COUNT));
        // names unique too
        let names: HashSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), OpKind::COUNT);
    }

    #[test]
    fn join_plan_shape() {
        // build/probe hash join: probe has breaking edge from build,
        // non-breaking from its scan.
        let mut b = PlanBuilder::new("join");
        let scan_l = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 100.0, 4, 0.01, 1.0);
        let scan_r = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![1], vec![2], 1000.0, 8, 0.01, 1.0);
        let build = b.add_op(OpKind::BuildHash, OpSpec::Synthetic, vec![0], vec![0], 100.0, 4, 0.02, 10.0);
        let probe = b.add_op(OpKind::ProbeHash, OpSpec::Synthetic, vec![0, 1], vec![0, 2], 1000.0, 8, 0.02, 10.0);
        b.connect(scan_l, build, true);
        b.connect(scan_r, probe, true);
        b.connect(build, probe, false);
        let p = b.finish(probe);
        assert_eq!(p.children_of(probe).len(), 2);
        // probe cannot extend a pipeline above build (breaking), but the
        // right scan pipelines into probe.
        assert_eq!(p.longest_npb_chain(scan_r), 2);
        assert_eq!(p.longest_npb_chain(build), 1);
    }
}
