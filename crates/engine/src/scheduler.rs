//! The scheduling interface: runtime query state, scheduling events and
//! decisions, and the [`Scheduler`] trait every policy (heuristic or
//! learned) implements.
//!
//! Both the discrete-event simulator and the real threaded executor build
//! a [`SchedContext`] snapshot at every scheduling event (Section 5.2 of
//! the paper) and hand it to the active [`Scheduler`], which answers with
//! zero or more [`SchedDecision`]s: *which operator to start a pipeline
//! from, how deep the pipeline runs, and how many threads the query gets*
//! (Section 5.3).

use std::sync::Arc;

use crate::plan::{OpId, PhysicalPlan};
use crate::stats::{TrailingRegressor, WorkOrderStats};

/// Identifier of a query within one execution session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Lifecycle of an operator during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Some blocking (pipeline-breaking) producer has not finished.
    Blocked,
    /// All blocking producers finished; the operator can root a pipeline.
    Schedulable,
    /// Currently part of a scheduled pipeline.
    Running,
    /// All work orders completed.
    Finished,
}

/// Window size of the per-operator trailing regressors (footnote 1 of the
/// paper: fit only on the work orders within the last time window).
pub const REGRESSOR_WINDOW: usize = 16;

/// Per-operator runtime state.
#[derive(Debug, Clone)]
pub struct OpRuntime {
    /// Current lifecycle status.
    pub status: OpStatus,
    /// Planned number of work orders.
    pub total_work_orders: u32,
    /// Completed work orders.
    pub completed_work_orders: u32,
    /// Dispatched (running or queued on a thread) but not yet completed.
    pub dispatched_work_orders: u32,
    /// Duration estimator over completed work orders (drives O-DUR).
    pub dur_estimator: TrailingRegressor,
    /// Memory estimator over completed work orders (drives O-MEM).
    pub mem_estimator: TrailingRegressor,
}

impl OpRuntime {
    /// Creates runtime state for an operator with optimizer estimates as
    /// regression fallbacks.
    pub fn new(total_work_orders: u32, est_duration: f64, est_memory: f64) -> Self {
        Self {
            status: OpStatus::Blocked,
            total_work_orders,
            completed_work_orders: 0,
            dispatched_work_orders: 0,
            dur_estimator: TrailingRegressor::new(REGRESSOR_WINDOW, est_duration),
            mem_estimator: TrailingRegressor::new(REGRESSOR_WINDOW, est_memory),
        }
    }

    /// Remaining (not completed) work orders — the O-WO feature.
    pub fn remaining_work_orders(&self) -> u32 {
        self.total_work_orders - self.completed_work_orders
    }

    /// Work orders not even dispatched yet.
    pub fn undispatched_work_orders(&self) -> u32 {
        self.total_work_orders - self.completed_work_orders - self.dispatched_work_orders
    }

    /// Estimated total duration of the remaining work orders — the O-DUR
    /// feature (per-WO regression prediction × remaining count). Reads
    /// the fit of the last [`OpRuntime::refresh_estimates`].
    pub fn est_remaining_duration(&self) -> f64 {
        self.dur_estimator.predict_next() * self.remaining_work_orders() as f64
    }

    /// Estimated total memory of the remaining work orders — the O-MEM
    /// feature.
    pub fn est_remaining_memory(&self) -> f64 {
        self.mem_estimator.predict_next() * self.remaining_work_orders() as f64
    }

    /// Fits both regressors if a work order completed since the last
    /// refresh (see [`TrailingRegressor::refresh`]).
    #[inline]
    pub fn refresh_estimates(&mut self) {
        self.dur_estimator.refresh();
        self.mem_estimator.refresh();
    }

    /// Records a completed work order's stats. `O(1)`: the O-DUR/O-MEM
    /// regressors only record the observation until the next
    /// [`OpRuntime::refresh_estimates`].
    pub fn observe_completion(&mut self, stats: &WorkOrderStats) {
        debug_assert!(self.dispatched_work_orders > 0);
        self.dispatched_work_orders -= 1;
        self.completed_work_orders += 1;
        self.dur_estimator.observe(stats.duration);
        self.mem_estimator.observe(stats.memory);
        if self.completed_work_orders == self.total_work_orders {
            self.status = OpStatus::Finished;
        }
    }
}

/// Runtime state of one query.
#[derive(Debug, Clone)]
pub struct QueryRuntime {
    /// Query id.
    pub qid: QueryId,
    /// The physical plan being executed.
    pub plan: Arc<PhysicalPlan>,
    /// Per-operator runtime state, indexed by [`OpId`].
    pub ops: Vec<OpRuntime>,
    /// Arrival time (engine clock).
    pub arrival_time: f64,
    /// Completion time, once finished.
    pub finish_time: Option<f64>,
    /// Scheduling priority (higher = more important). Admission gates
    /// shed or defer the lowest-priority queued queries first; the
    /// default of 0 makes every query equal.
    pub priority: i32,
    /// Absolute deadline (engine clock), when the query carries an SLO.
    /// The executor cancels the query cooperatively when the clock
    /// passes this point; deadline-aware policies can also read it.
    pub deadline: Option<f64>,
    /// Threads currently granted to this query's pipelines.
    pub assigned_threads: usize,
    /// Which threads have executed work of this query before — the Q-LOC
    /// feature (1-hot locality status per thread).
    pub executed_on: Vec<bool>,
    /// Per-op count of unsatisfied producer edges. Maintained for every
    /// op regardless of its own status, so a Running op reverted by a
    /// fault can restore the correct Blocked/Schedulable status in O(1).
    pending: Vec<u32>,
    /// Sorted cache of the ops whose status is [`OpStatus::Schedulable`]
    /// — the scheduling frontier. Kept in sync incrementally by the
    /// transition methods and rebuilt wholesale by
    /// [`QueryRuntime::refresh_statuses`].
    frontier: Vec<OpId>,
    /// How many ops are [`OpStatus::Finished`], kept by the same
    /// transition methods and recounted by
    /// [`QueryRuntime::refresh_statuses`]; backs the O(1)
    /// [`QueryRuntime::is_finished`].
    n_finished: usize,
}

/// Whether a producer edge is satisfied given the producer's status: a
/// non-pipeline-breaking producer only has to have *started* (Running or
/// Finished); a pipeline-breaking producer must have finished.
#[inline]
fn edge_satisfied(status: OpStatus, non_pipeline_breaking: bool) -> bool {
    if non_pipeline_breaking {
        matches!(status, OpStatus::Running | OpStatus::Finished)
    } else {
        status == OpStatus::Finished
    }
}

impl QueryRuntime {
    /// Creates runtime state for a newly arrived query. Nothing has
    /// started, so no producer edge is satisfied: the leaves are
    /// Schedulable (and form the frontier), every other operator is
    /// Blocked on all of its producers — what
    /// [`QueryRuntime::refresh_statuses`] derives, set directly in
    /// `O(ops)`.
    pub fn new(qid: QueryId, plan: Arc<PhysicalPlan>, arrival_time: f64, total_threads: usize) -> Self {
        let n = plan.ops.len();
        let mut ops = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut frontier = Vec::with_capacity(n);
        for (i, o) in plan.ops.iter().enumerate() {
            let mut rt = OpRuntime::new(o.num_work_orders, o.est_wo_duration, o.est_wo_memory);
            let producers = plan.children(OpId(i)).len();
            if producers == 0 {
                rt.status = OpStatus::Schedulable;
                frontier.push(OpId(i));
            }
            ops.push(rt);
            pending.push(producers as u32);
        }
        let rt = Self {
            qid,
            plan,
            ops,
            arrival_time,
            finish_time: None,
            priority: 0,
            deadline: None,
            assigned_threads: 0,
            executed_on: vec![false; total_threads],
            pending,
            frontier,
            n_finished: 0,
        };
        #[cfg(debug_assertions)]
        {
            let mut oracle = rt.clone();
            oracle.refresh_statuses();
            debug_assert!(
                oracle.ops.iter().zip(&rt.ops).all(|(a, b)| a.status == b.status)
                    && (oracle.pending == rt.pending)
                    && (oracle.frontier == rt.frontier)
                    && oracle.n_finished == rt.n_finished,
                "initial statuses diverge from the refresh_statuses oracle"
            );
        }
        rt
    }

    /// Recomputes Blocked/Schedulable statuses by full rescan, then
    /// rebuilds the pending counters and frontier cache from scratch.
    /// An operator is schedulable when every producer behind a
    /// *pipeline-breaking* edge has finished and every producer behind a
    /// non-breaking edge has at least started producing (Running or
    /// Finished). Leaves are always schedulable until started.
    ///
    /// This is the O(ops + edges) reference oracle; steady-state code
    /// paths use the O(degree) incremental transitions
    /// ([`QueryRuntime::mark_running`],
    /// [`QueryRuntime::observe_wo_completion`],
    /// [`QueryRuntime::revert_from_running`],
    /// [`QueryRuntime::force_finish`]) instead. `tests/frontier_props.rs`
    /// pins the two paths bit-identical.
    pub fn refresh_statuses(&mut self) {
        let plan = Arc::clone(&self.plan);
        for i in 0..self.ops.len() {
            if matches!(self.ops[i].status, OpStatus::Running | OpStatus::Finished) {
                continue;
            }
            let mut ok = true;
            for (edge, child) in plan.children_of(OpId(i)) {
                if !edge_satisfied(self.ops[child.0].status, edge.non_pipeline_breaking) {
                    ok = false;
                    break;
                }
            }
            self.ops[i].status = if ok { OpStatus::Schedulable } else { OpStatus::Blocked };
        }
        self.rebuild_frontier();
    }

    /// Recomputes `pending`, `frontier` and `n_finished` wholesale from
    /// the current statuses. The frontier ends up sorted because ops are
    /// visited in id order.
    fn rebuild_frontier(&mut self) {
        self.frontier.clear();
        self.n_finished = self.ops.iter().filter(|o| o.status == OpStatus::Finished).count();
        for i in 0..self.ops.len() {
            let mut pending = 0u32;
            for e in self.plan.children(OpId(i)) {
                if !edge_satisfied(self.ops[e.op.0].status, e.non_pipeline_breaking) {
                    pending += 1;
                }
            }
            self.pending[i] = pending;
            if self.ops[i].status == OpStatus::Schedulable {
                self.frontier.push(OpId(i));
            }
        }
    }

    fn frontier_insert(&mut self, op: OpId) {
        if let Err(i) = self.frontier.binary_search(&op) {
            self.frontier.insert(i, op);
        }
    }

    fn frontier_remove(&mut self, op: OpId) {
        if let Ok(i) = self.frontier.binary_search(&op) {
            self.frontier.remove(i);
        }
    }

    /// Applies a status transition of `op` to the incremental state:
    /// fixes `op`'s own frontier membership, then walks only `op`'s
    /// consumers, adjusting their pending counters for every producer
    /// edge whose satisfaction flipped. A consumer whose counter drops
    /// to zero while Blocked is promoted to Schedulable; one whose
    /// counter leaves zero while Schedulable is demoted to Blocked.
    /// Counters of Running/Finished consumers are kept current too (no
    /// status change), which is what makes fault reverts order-free.
    fn after_transition(&mut self, op: OpId, old: OpStatus, new: OpStatus) {
        if old == OpStatus::Schedulable {
            self.frontier_remove(op);
        }
        if new == OpStatus::Schedulable {
            self.frontier_insert(op);
        }
        if old == OpStatus::Finished {
            self.n_finished -= 1;
        }
        if new == OpStatus::Finished {
            self.n_finished += 1;
        }
        let plan = Arc::clone(&self.plan);
        for e in plan.parents(op) {
            let before = edge_satisfied(old, e.non_pipeline_breaking);
            let after = edge_satisfied(new, e.non_pipeline_breaking);
            if before == after {
                continue;
            }
            let p = e.op.0;
            if after {
                self.pending[p] -= 1;
                if self.pending[p] == 0 && self.ops[p].status == OpStatus::Blocked {
                    self.ops[p].status = OpStatus::Schedulable;
                    self.frontier_insert(e.op);
                }
            } else {
                self.pending[p] += 1;
                if self.pending[p] == 1 && self.ops[p].status == OpStatus::Schedulable {
                    self.ops[p].status = OpStatus::Blocked;
                    self.frontier_remove(e.op);
                }
            }
        }
    }

    fn transition(&mut self, op: OpId, new: OpStatus) {
        let old = self.ops[op.0].status;
        if old == new {
            return;
        }
        self.ops[op.0].status = new;
        self.after_transition(op, old, new);
    }

    /// Marks `op` Running, incrementally satisfying the
    /// non-pipeline-breaking producer edges into its consumers. Safe to
    /// call on a Blocked op (pipeline chains start deeper members whose
    /// producer is the chain op below them, started in the same
    /// decision).
    pub fn mark_running(&mut self, op: OpId) {
        self.transition(op, OpStatus::Running);
    }

    /// Records a completed work order and, when it was the op's last,
    /// propagates the Finished transition to consumers (satisfying their
    /// pipeline-breaking producer edges).
    pub fn observe_wo_completion(&mut self, op: OpId, stats: &WorkOrderStats) {
        let old = self.ops[op.0].status;
        self.ops[op.0].observe_completion(stats);
        let new = self.ops[op.0].status;
        if old != new {
            self.after_transition(op, old, new);
        }
    }

    /// Forces `op` straight to Finished (exact-finish paths where the
    /// executor retires an operator without a final work-order
    /// completion).
    pub fn force_finish(&mut self, op: OpId) {
        self.transition(op, OpStatus::Finished);
    }

    /// Reverts a Running op whose pipeline was torn down by a fault
    /// (worker loss, cancellation of a sibling pipeline). The op goes
    /// back to Schedulable when its producers are still satisfied and to
    /// Blocked otherwise — its pending counter stayed current while it
    /// ran, so this is O(consumer degree) and independent of the order
    /// in which a torn-down chain is reverted.
    pub fn revert_from_running(&mut self, op: OpId) {
        let new = if self.pending[op.0] == 0 { OpStatus::Schedulable } else { OpStatus::Blocked };
        self.transition(op, new);
    }

    /// Operators currently schedulable (candidate execution roots), as a
    /// borrowed slice of the cached frontier — sorted ascending, no
    /// allocation.
    pub fn schedulable_ops(&self) -> &[OpId] {
        &self.frontier
    }

    /// Allocation-free emptiness test for the frontier.
    pub fn has_schedulable(&self) -> bool {
        !self.frontier.is_empty()
    }

    /// Legacy full-scan computation of the schedulable set, retained as
    /// the reference oracle: `SimConfig::reference_mode` baselines and
    /// `tests/frontier_props.rs` compare the cached frontier against it.
    pub fn schedulable_ops_scan(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.status == OpStatus::Schedulable)
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// The part of `root`'s non-pipeline-breaking chain (at most
    /// `degree` operators, always the root) a pipeline can start now: it
    /// extends up [`PhysicalPlan::npb_chain`] while each consumer has not
    /// started and all of its *other* producers are satisfied.
    pub fn startable_chain(&self, root: OpId, degree: usize) -> &[OpId] {
        let full = self.plan.npb_chain(root);
        let mut len = 1;
        while len < degree.min(full.len()) {
            let (cur, parent) = (full[len - 1], full[len]);
            if matches!(self.ops[parent.0].status, OpStatus::Running | OpStatus::Finished) {
                break;
            }
            let others_ready = self
                .plan
                .children(parent)
                .iter()
                .filter(|e| e.op != cur)
                .all(|e| edge_satisfied(self.ops[e.op.0].status, e.non_pipeline_breaking));
            if !others_ready {
                break;
            }
            len += 1;
        }
        &full[..len]
    }

    /// Whether every operator has finished. O(1): reads the finished-op
    /// counter, which is current after every transition method and after
    /// [`QueryRuntime::refresh_statuses`] (the same contract as the
    /// frontier: a direct `status` write must be followed by a refresh).
    pub fn is_finished(&self) -> bool {
        self.n_finished == self.ops.len()
    }

    /// Total remaining estimated work across operators (seconds).
    pub fn est_remaining_work(&self) -> f64 {
        self.ops.iter().map(OpRuntime::est_remaining_duration).sum()
    }

    /// Remaining (not completed) work orders summed over the operators.
    pub fn remaining_work_orders(&self) -> u32 {
        self.ops.iter().map(OpRuntime::remaining_work_orders).sum()
    }

    /// Fits every operator regressor that observed a work order since
    /// the last refresh. Engines call it (through [`QueryHot::refresh`]
    /// or directly) before a policy reads the estimates.
    pub fn refresh_estimates(&mut self) {
        for op in &mut self.ops {
            op.refresh_estimates();
        }
    }

    /// The query's latency, if finished.
    pub fn duration(&self) -> Option<f64> {
        self.finish_time.map(|f| f - self.arrival_time)
    }
}

/// Structure-of-arrays mirror of the per-query *hot* state: the handful
/// of scalars the policies and the encoder's snapshot read on every
/// scheduling event. At mpl 1024+ the array-of-structs layout made those reads walk
/// one cache line per query (each [`QueryRuntime`] is hundreds of
/// bytes); here each column is contiguous, and the derived
/// `n_schedulable` counter turns the event loop's "is there any
/// schedulable work?" guard from an O(n) scan into O(1).
///
/// Columns are indexed in lockstep with the owning `Vec<QueryRuntime>`.
/// Executors maintain the mirror incrementally: [`QueryHot::push`] and
/// [`QueryHot::remove`] alongside the owning list's insertions and
/// removals, [`QueryHot::sync`] after mutating a query, and
/// [`QueryHot::refresh`] right before a policy sees the context.
///
/// `sync` is `O(1)`: it writes `frontier_len` and the `n_schedulable`
/// counter and marks the row. The estimate columns (`remaining_wos`,
/// `est_work`) are `O(ops)` sums over regressors that fit lazily, so
/// they wait for `refresh`: `O(ops)` per row synced since the last
/// refresh, not per work-order completion. After a refresh every column
/// equals what the matching [`QueryRuntime`] accessor returns, bit for
/// bit — `est_work` is computed by [`QueryRuntime::est_remaining_work`]
/// itself so its summation order cannot drift.
/// [`QueryHot::from_queries`] is the wholesale recompute used by
/// reference baselines and the SoA-vs-struct oracle proptest; like
/// `push`, it needs the queries' regressors refreshed.
#[derive(Debug, Clone, Default)]
pub struct QueryHot {
    /// Remaining (not completed) work orders summed over the query's ops
    /// (current as of the last [`QueryHot::refresh`]).
    pub remaining_wos: Vec<u32>,
    /// Estimated remaining work (seconds), equal to
    /// [`QueryRuntime::est_remaining_work`] as of the last
    /// [`QueryHot::refresh`].
    pub est_work: Vec<f64>,
    /// Length of the schedulable frontier (0 = nothing can root a
    /// pipeline).
    pub frontier_len: Vec<u32>,
    /// How many queries currently have a non-empty frontier.
    n_schedulable: usize,
    /// Per row: synced since the last refresh, so its estimate columns
    /// may be out of date.
    stale: Vec<bool>,
    /// The rows flagged in `stale`, each once.
    stale_rows: Vec<u32>,
}

impl QueryHot {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mirrored queries.
    pub fn len(&self) -> usize {
        self.frontier_len.len()
    }

    /// True when no queries are mirrored.
    pub fn is_empty(&self) -> bool {
        self.frontier_len.is_empty()
    }

    /// Drops all rows (capacity kept).
    pub fn clear(&mut self) {
        self.remaining_wos.clear();
        self.est_work.clear();
        self.frontier_len.clear();
        self.n_schedulable = 0;
        self.stale.clear();
        self.stale_rows.clear();
    }

    /// Appends a row mirroring `q` (call right after pushing `q` onto
    /// the owning query list). `q`'s regressors must be refreshed, as
    /// they are on a fresh [`QueryRuntime::new`].
    pub fn push(&mut self, q: &QueryRuntime) {
        let frontier = q.schedulable_ops().len() as u32;
        self.remaining_wos.push(q.remaining_work_orders());
        self.est_work.push(q.est_remaining_work());
        self.frontier_len.push(frontier);
        self.n_schedulable += usize::from(frontier > 0);
        self.stale.push(false);
    }

    /// Removes row `idx`, shifting later rows down (mirrors
    /// `Vec::remove` on the owning query list). `O(rows)` like the
    /// owning list's removal.
    pub fn remove(&mut self, idx: usize) {
        self.n_schedulable -= usize::from(self.frontier_len[idx] > 0);
        self.remaining_wos.remove(idx);
        self.est_work.remove(idx);
        self.frontier_len.remove(idx);
        if self.stale.remove(idx) {
            self.stale_rows.retain(|&r| r as usize != idx);
        }
        for r in &mut self.stale_rows {
            if *r as usize > idx {
                *r -= 1;
            }
        }
    }

    /// Re-mirrors row `idx` from `q` after a mutation: writes the
    /// frontier length and marks the row for the next
    /// [`QueryHot::refresh`]. `O(1)`.
    pub fn sync(&mut self, idx: usize, q: &QueryRuntime) {
        let frontier = q.schedulable_ops().len() as u32;
        let was = self.frontier_len[idx] > 0;
        let now = frontier > 0;
        if was != now {
            if now {
                self.n_schedulable += 1;
            } else {
                self.n_schedulable -= 1;
            }
        }
        self.frontier_len[idx] = frontier;
        if !self.stale[idx] {
            self.stale[idx] = true;
            self.stale_rows.push(idx as u32);
        }
    }

    /// Brings the estimate columns of every row synced since the last
    /// refresh up to date: fits the query's regressors that observed a
    /// work order ([`QueryRuntime::refresh_estimates`]) and recomputes
    /// its `remaining_wos` and `est_work`. `O(ops)` per marked row;
    /// a second call with no sync in between does nothing.
    pub fn refresh(&mut self, queries: &mut [QueryRuntime]) {
        debug_assert_eq!(self.len(), queries.len(), "hot mirror out of lockstep");
        for idx in self.stale_rows.drain(..).map(|r| r as usize) {
            let q = &mut queries[idx];
            q.refresh_estimates();
            self.remaining_wos[idx] = q.remaining_work_orders();
            self.est_work[idx] = q.est_remaining_work();
            self.stale[idx] = false;
        }
    }

    /// True when no row was synced since the last refresh, so every
    /// column is current.
    pub fn is_refreshed(&self) -> bool {
        self.stale_rows.is_empty()
    }

    /// Rebuilds every row wholesale (capacity kept). The reference
    /// oracle for the incremental maintenance above.
    pub fn rebuild(&mut self, queries: &[QueryRuntime]) {
        self.clear();
        for q in queries {
            self.push(q);
        }
    }

    /// Builds a fresh mirror of `queries` (test and baseline helper).
    pub fn from_queries(queries: &[QueryRuntime]) -> Self {
        let mut hot = Self::new();
        hot.rebuild(queries);
        hot
    }

    /// How many queries have a non-empty frontier — O(1).
    pub fn n_schedulable(&self) -> usize {
        self.n_schedulable
    }

    /// True when at least one query has schedulable work — O(1).
    pub fn any_schedulable(&self) -> bool {
        self.n_schedulable > 0
    }
}

/// `QueryId -> slot` map for an ordered active-query list, indexed by
/// the (dense) query id: an O(1) lookup where `SchedContext::query` scans.
/// Executors keep it in lockstep with their `Vec<QueryRuntime>`:
/// [`QueryIdMap::insert`] on push, [`QueryIdMap::remove`] after
/// `Vec::remove`, which shifts only the queries behind the removed slot.
#[derive(Debug, Clone, Default)]
pub struct QueryIdMap {
    slots: Vec<Option<usize>>,
}

impl QueryIdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `qid`, if it is active.
    pub fn get(&self, qid: QueryId) -> Option<usize> {
        self.slots.get(qid.0 as usize).copied().flatten()
    }

    /// Records that `qid` now sits at `slot`.
    pub fn insert(&mut self, qid: QueryId, slot: usize) {
        let i = qid.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(slot);
    }

    /// Forgets `removed`, which sat at `slot`, and moves every query
    /// behind it down one slot. `behind` is the owning list's
    /// `[slot..]` *after* the `Vec::remove`. O(`behind.len()`).
    pub fn remove(&mut self, removed: QueryId, slot: usize, behind: &[QueryRuntime]) {
        if let Some(s) = self.slots.get_mut(removed.0 as usize) {
            *s = None;
        }
        for (i, q) in behind.iter().enumerate() {
            let s = &mut self.slots[q.qid.0 as usize];
            debug_assert_eq!(*s, Some(slot + i + 1), "id map out of lockstep");
            *s = Some(slot + i);
        }
    }
}

/// The state snapshot handed to a scheduler at each scheduling event.
///
/// `queries` and `hot` describe the same query list in two layouts: the
/// full array-of-structs runtime state, and the structure-of-arrays hot
/// columns (indexed in lockstep). The split borrow exists so policies
/// and the encoder's dynamic tail can stream the columns they need
/// without pulling whole [`QueryRuntime`]s through the cache.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Engine clock (seconds since session start).
    pub time: f64,
    /// Current worker-pool size.
    pub total_threads: usize,
    /// Threads currently idle (assignable) — drives the Q-FTH feature.
    pub free_threads: usize,
    /// Which threads are currently idle (for Q-LOC).
    pub free_thread_ids: &'a [usize],
    /// Active (arrived, unfinished) queries.
    pub queries: &'a [QueryRuntime],
    /// Structure-of-arrays view of the per-query hot columns, in
    /// lockstep with `queries`.
    pub hot: &'a QueryHot,
    /// Memory (bytes) currently held by in-flight pipelines and work
    /// orders — the concurrent-mix signal admission gates weigh an
    /// arrival against.
    pub in_flight_mem: f64,
    /// Memory budget (bytes) before the execution cost model starts
    /// thrashing; `f64::INFINITY` when the host executor does not track
    /// a budget.
    pub mem_budget: f64,
}

impl<'a> SchedContext<'a> {
    /// Finds an active query by id.
    pub fn query(&self, qid: QueryId) -> Option<&QueryRuntime> {
        self.queries.iter().find(|q| q.qid == qid)
    }

    /// Memory pressure as a fraction of the budget (`0.0` = idle,
    /// `>= 1.0` = thrashing), clamped to `[0, 8]` so a corrupt budget
    /// cannot leak non-finite values into feature vectors. Returns `0.0`
    /// when no meaningful budget is known.
    pub fn mem_pressure(&self) -> f64 {
        if !self.mem_budget.is_finite() || self.mem_budget <= 0.0 || !self.in_flight_mem.is_finite()
        {
            return 0.0;
        }
        (self.in_flight_mem / self.mem_budget).clamp(0.0, 8.0)
    }

    /// True when at least one active query has a schedulable operator.
    /// O(1): reads the SoA mirror's schedulable counter.
    pub fn has_schedulable_work(&self) -> bool {
        debug_assert_eq!(self.hot.len(), self.queries.len(), "hot mirror out of lockstep");
        self.hot.any_schedulable()
    }
}

/// The events that trigger a scheduler invocation (Section 5.2), plus
/// the fault events of the robustness layer (worker churn and query
/// cancellation are first-class scheduling triggers, as in Decima's
/// executor-loss handling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedEvent {
    /// A new query arrived.
    QueryArrived(QueryId),
    /// A scheduled operator completed all its work orders.
    OperatorCompleted {
        /// The query the operator belongs to.
        query: QueryId,
        /// The completed operator.
        op: OpId,
    },
    /// Threads finished all assigned work orders and returned to the pool.
    ThreadsFreed(usize),
    /// The worker pool was resized.
    ThreadPoolResized(usize),
    /// A worker thread was lost (crash / preemption). Carries the lost
    /// thread's id; the pool has already shrunk when this is delivered.
    WorkerLost(usize),
    /// A previously lost worker rejoined the pool (carries the new
    /// thread id; the pool has already grown).
    WorkerJoined(usize),
    /// A query was cancelled mid-flight; its threads and memory are
    /// being reclaimed.
    QueryCancelled(QueryId),
    /// A query blew its deadline. Delivered as a notification *before*
    /// the cooperative cancellation ([`SchedEvent::QueryCancelled`] plus
    /// [`Scheduler::on_query_cancelled`]) tears the query down, so
    /// deadline-aware policies can account for the miss.
    DeadlineExceeded(QueryId),
}

/// One scheduling decision (Section 5.3): start a pipeline of
/// `pipeline_degree` operators rooted at `root` in `query`, granting the
/// query up to `threads` worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedDecision {
    /// Target query.
    pub query: QueryId,
    /// Execution root (must be schedulable).
    pub root: OpId,
    /// Number of operators in the pipeline, `>= 1` (1 = root only).
    pub pipeline_degree: usize,
    /// Worker threads to grant, `>= 1`.
    pub threads: usize,
}

/// Why a decision was rejected by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionError {
    /// The referenced query is not active.
    UnknownQuery(QueryId),
    /// The root operator is not schedulable.
    RootNotSchedulable(OpId),
    /// The pipeline degree is zero or exceeds the longest
    /// non-pipeline-breaking chain from the root.
    BadPipelineDegree {
        /// Requested degree.
        requested: usize,
        /// Maximum valid degree.
        max: usize,
    },
    /// Zero threads requested.
    ZeroThreads,
    /// No free threads are available to grant (the pool shrank between
    /// the snapshot the policy saw and dispatch).
    NoFreeThreads,
}

/// Validates a decision against the current context. Executors clamp the
/// thread grant to the free-thread count but reject structurally invalid
/// decisions outright.
pub fn validate_decision(ctx: &SchedContext<'_>, d: &SchedDecision) -> Result<(), DecisionError> {
    let q = ctx.query(d.query).ok_or(DecisionError::UnknownQuery(d.query))?;
    validate_decision_for(q, d)
}

/// [`validate_decision`] against an already-resolved query `q` (the one
/// `d.query` names): executors that index their queries by id skip the
/// context's linear lookup. The single home of the structural rules.
pub fn validate_decision_for(q: &QueryRuntime, d: &SchedDecision) -> Result<(), DecisionError> {
    debug_assert_eq!(q.qid, d.query, "decision validated against the wrong query");
    if q.ops[d.root.0].status != OpStatus::Schedulable {
        return Err(DecisionError::RootNotSchedulable(d.root));
    }
    let max = q.plan.longest_npb_chain(d.root);
    if d.pipeline_degree == 0 || d.pipeline_degree > max {
        return Err(DecisionError::BadPipelineDegree { requested: d.pipeline_degree, max });
    }
    if d.threads == 0 {
        return Err(DecisionError::ZeroThreads);
    }
    Ok(())
}

/// Validates a decision against the *current* context and clamps its
/// thread grant to the free-thread count. The worker pool can shrink
/// (resize, worker loss) between the event snapshot a policy saw and
/// dispatch, so a structurally valid decision may still carry a stale
/// over-grant; executors must apply the clamped copy, never the raw
/// decision. Returns [`DecisionError::NoFreeThreads`] when nothing can
/// be granted at all.
pub fn clamp_decision(
    ctx: &SchedContext<'_>,
    d: &SchedDecision,
) -> Result<SchedDecision, DecisionError> {
    let q = ctx.query(d.query).ok_or(DecisionError::UnknownQuery(d.query))?;
    clamp_decision_for(q, ctx.free_threads, d)
}

/// [`clamp_decision`] against an already-resolved query `q` and the
/// current free-thread count.
pub fn clamp_decision_for(
    q: &QueryRuntime,
    free_threads: usize,
    d: &SchedDecision,
) -> Result<SchedDecision, DecisionError> {
    validate_decision_for(q, d)?;
    if free_threads == 0 {
        return Err(DecisionError::NoFreeThreads);
    }
    Ok(SchedDecision { threads: d.threads.min(free_threads), ..*d })
}

/// What an admission gate decided to do with an arriving query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitAction {
    /// Admit the arriving query.
    Admit,
    /// Reject (shed) the arriving query outright.
    Reject,
    /// Defer the arriving query: the executor re-submits it after
    /// `delay` seconds and consults the gate again with an incremented
    /// attempt counter.
    Defer {
        /// Seconds to wait before re-submitting.
        delay: f64,
    },
}

/// An admission gate's verdict for one arriving query: what happens to
/// the arrival itself, plus any already-queued victims to shed in its
/// place (priority-aware load shedding evicts the lowest-priority
/// waiting query, which is not necessarily the one that just arrived).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionResponse {
    /// Fate of the arriving query.
    pub action: AdmitAction,
    /// Already-queued queries to shed (cancelled through the same
    /// cooperative path as [`SchedEvent::QueryCancelled`]). Must not
    /// contain the arriving query — its fate is `action`.
    pub shed: Vec<QueryId>,
}

impl AdmissionResponse {
    /// The default verdict: admit, shed nobody.
    pub fn admit() -> Self {
        Self { action: AdmitAction::Admit, shed: Vec::new() }
    }
}

/// Self-reported health of a scheduling policy, polled by guarding
/// wrappers after each `on_event` call. A learned policy reports
/// [`PolicyHealth::Degraded`] when its last forward pass produced
/// non-finite values (NaN logits from a poisoned update), signalling
/// the guard to fall back to a heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyHealth {
    /// The policy's last output was well-formed.
    #[default]
    Healthy,
    /// The policy detected internal corruption; its decisions must not
    /// be trusted.
    Degraded,
}

/// A query-scheduling policy.
///
/// Implementations range from FIFO to the fully learned LSched agent; the
/// executor invokes [`Scheduler::on_event`] at every scheduling event and
/// executes the returned decisions in order (clamping thread grants to
/// availability and ignoring decisions that fail validation).
///
/// `Send` is a supertrait so schedulers can be handed to rollout worker
/// threads (parallel training) and roster entries can be evaluated
/// concurrently; policies are self-contained state machines, so this
/// costs implementors nothing.
pub trait Scheduler: Send {
    /// Human-readable policy name (used in benchmark output).
    fn name(&self) -> String;

    /// Produces scheduling decisions for the given event.
    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision>;

    /// Offers one simulator tick's worth of deferred scheduling events
    /// as a single batch. `ctx` is the post-tick state (every mutation
    /// of the tick has been applied); `events` lists the deferred
    /// triggers in their firing order and is never empty.
    ///
    /// Returning `Some(decisions)` *consumes* the batch: the executor
    /// applies the decisions in order and does not call
    /// [`Scheduler::on_event`] for these events. Returning `None` (the
    /// default) declines it: the executor falls back to delivering the
    /// events one at a time through `on_event`. Batch-aware policies
    /// (LSched's cross-event fused inference) accept; everything else
    /// keeps its exact per-event semantics for free.
    fn on_tick(
        &mut self,
        _ctx: &SchedContext<'_>,
        _events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        None
    }

    /// Admission gate, consulted once per query arrival *before*
    /// [`SchedEvent::QueryArrived`] is delivered. The arriving query is
    /// already present in `ctx.queries` so the gate can weigh it against
    /// the queued load; `attempt` counts prior deferrals of this query
    /// (0 on first submission). The default admits everything —
    /// overload-protecting wrappers (the sched crate's `Admission` gate
    /// via `GuardedScheduler`) override this. Implementations must be
    /// deterministic (no RNG) so fault-injection runs stay bit-identical.
    fn admit(&mut self, _ctx: &SchedContext<'_>, _arriving: QueryId, _attempt: u32) -> AdmissionResponse {
        AdmissionResponse::admit()
    }

    /// Notifies the policy that a previously returned decision finished
    /// executing. Neither engine calls it today (the simulator and the
    /// threaded executor never report a decision's completion) and no
    /// policy overrides it; wrappers only forward it. Online feedback
    /// reaches policies through `on_query_finished` instead.
    fn on_decision_executed(&mut self, _ctx: &SchedContext<'_>, _decision: &SchedDecision) {}

    /// Notifies the policy that a query completed.
    fn on_query_finished(&mut self, _time: f64, _query: QueryId) {}

    /// Notifies the policy that a query was cancelled or failed
    /// mid-flight (its state will never be referenced again).
    fn on_query_cancelled(&mut self, _time: f64, _query: QueryId) {}

    /// Self-reported health after the last `on_event` call. Guarding
    /// wrappers poll this to decide whether to trust the decisions.
    fn health(&self) -> PolicyHealth {
        PolicyHealth::Healthy
    }

    /// Resets per-episode state (called between workload runs).
    fn reset(&mut self) {}
}

/// Boxed policies forward transparently, so `Box<dyn Scheduler>` drops
/// into any generic wrapper (e.g. a guard) without monomorphising on the
/// concrete policy type.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        (**self).on_event(ctx, event)
    }
    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        (**self).on_tick(ctx, events)
    }
    fn admit(&mut self, ctx: &SchedContext<'_>, arriving: QueryId, attempt: u32) -> AdmissionResponse {
        (**self).admit(ctx, arriving, attempt)
    }
    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        (**self).on_decision_executed(ctx, decision)
    }
    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        (**self).on_query_finished(time, query)
    }
    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        (**self).on_query_cancelled(time, query)
    }
    fn health(&self) -> PolicyHealth {
        (**self).health()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};

    fn join_plan() -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new("t");
        let sl = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![], 10.0, 2, 0.1, 1.0);
        let sr = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![1], vec![], 10.0, 2, 0.1, 1.0);
        let bh = b.add_op(OpKind::BuildHash, OpSpec::Synthetic, vec![0], vec![], 10.0, 2, 0.1, 1.0);
        let ph = b.add_op(OpKind::ProbeHash, OpSpec::Synthetic, vec![0, 1], vec![], 10.0, 2, 0.1, 1.0);
        b.connect(sl, bh, true);
        b.connect(sr, ph, true);
        b.connect(bh, ph, false);
        Arc::new(b.finish(ph))
    }

    #[test]
    fn initial_statuses() {
        let q = QueryRuntime::new(QueryId(1), join_plan(), 0.0, 4);
        // Scans schedulable; build blocked until scan starts; probe blocked.
        assert_eq!(q.ops[0].status, OpStatus::Schedulable);
        assert_eq!(q.ops[1].status, OpStatus::Schedulable);
        assert_eq!(q.ops[2].status, OpStatus::Blocked);
        assert_eq!(q.ops[3].status, OpStatus::Blocked);
        assert_eq!(q.schedulable_ops(), vec![OpId(0), OpId(1)]);
    }

    #[test]
    fn statuses_unblock_as_children_progress() {
        let mut q = QueryRuntime::new(QueryId(1), join_plan(), 0.0, 4);
        // Left scan starts running -> build (non-breaking child) unblocks.
        q.ops[0].status = OpStatus::Running;
        q.refresh_statuses();
        assert_eq!(q.ops[2].status, OpStatus::Schedulable);
        // Probe still blocked: build (breaking) unfinished.
        assert_eq!(q.ops[3].status, OpStatus::Blocked);
        // Build finishes, right scan running -> probe schedulable.
        q.ops[2].status = OpStatus::Finished;
        q.ops[1].status = OpStatus::Running;
        q.refresh_statuses();
        assert_eq!(q.ops[3].status, OpStatus::Schedulable);
    }

    #[test]
    fn op_runtime_counters() {
        let mut o = OpRuntime::new(3, 0.5, 100.0);
        assert_eq!(o.remaining_work_orders(), 3);
        assert_eq!(o.est_remaining_duration(), 1.5);
        o.dispatched_work_orders = 2;
        assert_eq!(o.undispatched_work_orders(), 1);
        o.observe_completion(&WorkOrderStats {
            duration: 0.4,
            memory: 80.0,
            output_rows: 10,
            completed_at: 1.0,
        });
        assert_eq!(o.completed_work_orders, 1);
        assert_eq!(o.dispatched_work_orders, 1);
        assert_ne!(o.status, OpStatus::Finished);
        // The observation is fitted at the refresh: one observed 0.4 s
        // work order predicts the next, times two remaining.
        o.refresh_estimates();
        assert_eq!(o.est_remaining_duration(), 0.8);
        assert_eq!(o.est_remaining_memory(), 160.0);
    }

    /// Per-operator state keeps the size it had when every completion
    /// refit eagerly: the regressors' stale marks live in padding, so
    /// lazy fitting costs no memory per operator.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn op_runtime_size_is_pinned() {
        assert_eq!(std::mem::size_of::<OpRuntime>(), 160);
    }

    #[test]
    fn op_finishes_at_last_work_order() {
        let mut o = OpRuntime::new(1, 0.5, 100.0);
        o.dispatched_work_orders = 1;
        o.observe_completion(&WorkOrderStats {
            duration: 0.4,
            memory: 80.0,
            output_rows: 10,
            completed_at: 1.0,
        });
        assert_eq!(o.status, OpStatus::Finished);
        assert_eq!(o.remaining_work_orders(), 0);
        o.refresh_estimates();
        assert_eq!(o.est_remaining_duration(), 0.0);
    }

    #[test]
    fn validate_decision_errors() {
        let q = QueryRuntime::new(QueryId(1), join_plan(), 0.0, 4);
        let queries = vec![q];
        let hot = QueryHot::from_queries(&queries);
        let free = [0usize, 1, 2, 3];
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 4,
            free_threads: 4,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        // Unknown query.
        let d = SchedDecision { query: QueryId(9), root: OpId(0), pipeline_degree: 1, threads: 1 };
        assert!(matches!(validate_decision(&ctx, &d), Err(DecisionError::UnknownQuery(_))));
        // Blocked root.
        let d = SchedDecision { query: QueryId(1), root: OpId(3), pipeline_degree: 1, threads: 1 };
        assert!(matches!(validate_decision(&ctx, &d), Err(DecisionError::RootNotSchedulable(_))));
        // Degree too deep: left scan -> build is the only npb chain (2).
        let d = SchedDecision { query: QueryId(1), root: OpId(0), pipeline_degree: 5, threads: 1 };
        assert!(matches!(
            validate_decision(&ctx, &d),
            Err(DecisionError::BadPipelineDegree { max: 2, .. })
        ));
        // Valid.
        let d = SchedDecision { query: QueryId(1), root: OpId(0), pipeline_degree: 2, threads: 2 };
        assert!(validate_decision(&ctx, &d).is_ok());
        assert!(ctx.has_schedulable_work());
    }

    #[test]
    fn clamp_decision_reclamps_stale_thread_grants() {
        let q = QueryRuntime::new(QueryId(1), join_plan(), 0.0, 8);
        let queries = vec![q];
        let hot = QueryHot::from_queries(&queries);
        // The policy saw 8 free threads; the pool shrank to 2 by dispatch.
        let free = [0usize, 1];
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 2,
            free_threads: 2,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let stale = SchedDecision { query: QueryId(1), root: OpId(0), pipeline_degree: 2, threads: 8 };
        let clamped = clamp_decision(&ctx, &stale).unwrap();
        assert_eq!(clamped.threads, 2);
        assert_eq!(clamped.pipeline_degree, 2);

        // With no free threads at all the decision is rejected, not
        // clamped to zero.
        let none: [usize; 0] = [];
        let ctx0 = SchedContext {
            time: 0.0,
            total_threads: 2,
            free_threads: 0,
            free_thread_ids: &none,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        assert!(matches!(clamp_decision(&ctx0, &stale), Err(DecisionError::NoFreeThreads)));
    }

    #[test]
    fn resolved_query_validation_matches_context_validation() {
        let queries = vec![QueryRuntime::new(QueryId(1), join_plan(), 0.0, 4)];
        let hot = QueryHot::from_queries(&queries);
        let free = [0usize, 1, 2];
        for n_free in [0, 1, 3] {
            let ctx = SchedContext {
                time: 0.0,
                total_threads: 4,
                free_threads: n_free,
                free_thread_ids: &free[..n_free],
                queries: &queries,
                hot: &hot,
                in_flight_mem: 0.0,
                mem_budget: f64::INFINITY,
            };
            for (root, pipeline_degree, threads) in
                [(0, 1, 1), (0, 2, 8), (3, 1, 1), (0, 5, 1), (0, 0, 1), (1, 1, 0)]
            {
                let d =
                    SchedDecision { query: QueryId(1), root: OpId(root), pipeline_degree, threads };
                assert_eq!(validate_decision_for(&queries[0], &d), validate_decision(&ctx, &d));
                assert_eq!(clamp_decision_for(&queries[0], n_free, &d), clamp_decision(&ctx, &d));
            }
        }
    }
}
