//! Discrete-event simulation of the work-order execution engine.
//!
//! The simulator shares the plan/work-order/scheduling model with the real
//! threaded executor but replaces actual block processing with sampled
//! work-order durations from the [`CostModel`]. It reproduces the dynamics
//! that make scheduling interesting:
//!
//! * **pipelining** — work orders of non-root pipeline operators run
//!   faster (cache-hot inputs), and a consumer's work orders become
//!   dispatchable proportionally to its producer's progress;
//! * **memory pressure** — each in-flight work order and each pipeline
//!   stage holds memory; exceeding the budget slows everything down
//!   (thrashing), which punishes over-aggressive pipelining;
//! * **thread locality** — threads that already ran a query execute its
//!   further work orders slightly faster (the Q-LOC effect);
//! * **scheduling events** — the scheduler is invoked exactly on the
//!   events of Section 5.2 and its decisions are validated and clamped
//!   like the paper's executor does.
//!
//! Determinism: given the same seed, workload and scheduler behaviour,
//! a run is exactly reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cost::CostModel;
use crate::fault::{FaultInjector, FaultPlan, FaultSummary};
use crate::trace::{TraceEntry, TraceSink};
use crate::plan::{OpId, PhysicalPlan};
use crate::scheduler::{
    clamp_decision, clamp_decision_for, AdmitAction, OpStatus, QueryHot, QueryId, QueryIdMap,
    QueryRuntime, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use crate::stats::WorkOrderStats;

/// One query of a workload: a plan plus its arrival time and optional
/// SLO metadata (deadline and shedding priority).
#[derive(Debug, Clone)]
pub struct WorkloadItem {
    /// Arrival time (seconds since session start; 0 for batch workloads).
    pub arrival_time: f64,
    /// The physical plan to execute.
    pub plan: Arc<PhysicalPlan>,
    /// Relative latency budget (seconds). When set, the query is
    /// cooperatively cancelled once an attempt runs longer than this;
    /// each retry attempt gets a fresh budget measured from its own
    /// re-submission. `None` disables deadline enforcement.
    pub deadline: Option<f64>,
    /// Admission/shedding priority: higher values are more important,
    /// the default 0 makes all queries equal. Load-shedding gates evict
    /// the lowest-priority queued queries first.
    pub priority: i32,
    /// Original submission time when it predates `arrival_time` — set by
    /// the serving layer when a query orphaned by a shard crash is
    /// replayed on a survivor. Latency is charged and deferred deadlines
    /// ([`RetryKind::Defer`]) are anchored from this instant, so a
    /// failed-over query cannot hide its pre-crash wait. `None` (the
    /// default) means the query was submitted at `arrival_time`.
    pub submitted_at: Option<f64>,
}

impl WorkloadItem {
    /// A plain workload item: no deadline, default priority.
    pub fn new(arrival_time: f64, plan: Arc<PhysicalPlan>) -> Self {
        Self { arrival_time, plan, deadline: None, priority: 0, submitted_at: None }
    }

    /// Attaches a relative latency budget (seconds).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the shedding priority (higher = more important).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Anchors latency accounting and deferred deadlines at an original
    /// submission instant that predates `arrival_time` (failover replay).
    pub fn with_submitted_at(mut self, submitted_at: f64) -> Self {
        self.submitted_at = Some(submitted_at);
        self
    }

    /// The instant latency is charged from: the original submission time
    /// when set, the arrival time otherwise.
    pub fn submit_anchor(&self) -> f64 {
        self.submitted_at.unwrap_or(self.arrival_time)
    }
}

/// Bounded retry budget for deadline-exceeded queries, with the same
/// capped-exponential-backoff shape as the fault layer's work-order
/// retries: re-submission `k` (0-based attempt counter) waits
/// `min(backoff_base * 2^k, backoff_cap)` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-submissions allowed after a deadline miss (0 disables retry).
    pub max_retries: u32,
    /// Base backoff delay (seconds).
    pub backoff_base: f64,
    /// Backoff ceiling (seconds).
    pub backoff_cap: f64,
}

impl RetryPolicy {
    /// The backoff delay before re-submission attempt `attempt + 1`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        (self.backoff_base * 2f64.powi(attempt.min(30) as i32)).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Mirrors the fault layer's work-order backoff defaults.
        Self { max_retries: 0, backoff_base: 0.002, backoff_cap: 0.05 }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Worker-pool size (the paper's default is 60).
    pub num_threads: usize,
    /// Cost/dynamics model.
    pub cost: CostModel,
    /// RNG seed for duration noise.
    pub seed: u64,
    /// Safety cap on processed events.
    pub max_events: u64,
    /// Optional execution-trace sink (records every work order).
    pub trace: Option<TraceSink>,
    /// Scheduled worker-pool resizes as `(time, new_size)` pairs — the
    /// paper's scheduling trigger (1), "adding or removing a thread to
    /// the pool" (Section 5.2). Growth adds fresh idle threads; shrink
    /// retires idle threads immediately and busy threads as they free.
    pub pool_resizes: Vec<(f64, usize)>,
    /// Optional fault-injection plan (worker churn, transient
    /// work-order failures, stragglers, cancellations).
    pub faults: Option<FaultPlan>,
    /// Run the event loop against the legacy full-rescan reference
    /// paths: `refresh_statuses` rescans instead of incremental frontier
    /// transitions, linear query/pipeline scans instead of the id map
    /// and per-query pipeline lists, a wake that re-dispatches every
    /// stalled thread of the query, and per-event scratch allocations.
    /// Semantics are bit-identical to the fast path (pinned by
    /// `tests/frontier_props.rs`); the `sim_throughput` bench runs both
    /// modes in one process to measure the speedup against the pre-PR
    /// baseline.
    pub reference_mode: bool,
    /// Retry budget for queries aborted by a deadline miss. The default
    /// budget is zero (a missed deadline is final), matching pre-SLO
    /// behaviour.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_threads: 60,
            cost: CostModel::default_model(),
            seed: 0,
            max_events: 50_000_000,
            trace: None,
            pool_resizes: Vec::new(),
            faults: None,
            reference_mode: false,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a simulation run could not complete. Returned from
/// [`Simulator::run`] instead of panicking or silently truncating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event-cap safety valve fired before the workload drained —
    /// a runaway policy or a pathological workload.
    EventCapExceeded {
        /// Events processed when the cap fired.
        processed: u64,
        /// The configured cap.
        cap: u64,
        /// Queries still unfinished.
        unfinished_queries: usize,
    },
    /// No pending events, no dispatchable work, but unfinished queries
    /// remain — a structural dead end even the progress guard could not
    /// break.
    Deadlock {
        /// Queries still unfinished.
        unfinished_queries: usize,
    },
    /// An internal invariant failed. Reported instead of panicking so a
    /// guarded caller can degrade gracefully; always a simulator bug.
    Invariant(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventCapExceeded { processed, cap, unfinished_queries } => write!(
                f,
                "event cap exceeded ({processed} processed, cap {cap}, {unfinished_queries} queries unfinished)"
            ),
            SimError::Deadlock { unfinished_queries } => {
                write!(f, "simulation deadlocked with {unfinished_queries} unfinished queries")
            }
            SimError::Invariant(what) => write!(f, "simulator invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query id.
    pub qid: QueryId,
    /// Plan name.
    pub name: String,
    /// Arrival time.
    pub arrival: f64,
    /// Finish time.
    pub finish: f64,
    /// Latency (`finish - arrival`).
    pub duration: f64,
}

/// Result of simulating a workload under a scheduler.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-query outcomes, in completion order.
    pub outcomes: Vec<QueryOutcome>,
    /// Time the last query finished.
    pub makespan: f64,
    /// Number of scheduler invocations.
    pub sched_invocations: u64,
    /// Number of accepted scheduling decisions.
    pub sched_decisions: u64,
    /// Decisions rejected by validation.
    pub sched_rejected: u64,
    /// Progress-guard fallback decisions (a well-behaved scheduler
    /// should keep this at zero).
    pub fallback_decisions: u64,
    /// Wall-clock seconds spent inside `Scheduler::on_event` (the
    /// scheduling overhead of Figure 13a).
    pub sched_wall_time: f64,
    /// Total executed work orders.
    pub total_work_orders: u64,
    /// Total simulator events processed (the denominator of the
    /// `sim_throughput` events/sec metric).
    pub events_processed: u64,
    /// Queries that did not complete: cancelled mid-flight, aborted by
    /// a permanently failed work order, shed by the admission gate, or
    /// timed out past their deadline with no retry budget left
    /// (`duration` is the time from first submission to abort).
    /// Disjoint from `outcomes`.
    pub aborted: Vec<QueryOutcome>,
    /// Fault-injection counters (all zero on fault-free runs).
    pub fault_summary: FaultSummary,
    /// Overload/SLO counters (all zero when no deadlines are set and no
    /// admission gate is installed).
    pub resilience: ResilienceSummary,
    /// Worker-pool size when the run drained — `initial - lost + joined`
    /// by construction, which the rejoin-ordering property tests pin.
    pub final_pool_size: usize,
    /// Virtual time at which [`FaultPlan::crash_at`] killed the run, or
    /// `None` for a run that drained normally. A crashed result is the
    /// durable log of the dead shard: `outcomes` and `aborted` hold what
    /// was acknowledged before the crash, `unfinished` what was not.
    pub crashed_at: Option<f64>,
    /// Workload indices (arrival order) with no final fate when the run
    /// ended — in flight, queued, or never arrived at crash time. Always
    /// empty for a run that drained normally; sorted ascending.
    pub unfinished: Vec<usize>,
}

/// Counters for the overload-protection layer: admission shedding,
/// deferrals, deadline misses and granted retries.
///
/// Not `Eq` because `max_queue_wait` is a clock reading; determinism
/// checks compare via `PartialEq` (no NaN can enter: waits are
/// differences of finite simulator clocks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceSummary {
    /// Queries shed by the admission gate: rejected on arrival, evicted
    /// from the queue as a shedding victim, or dropped after exhausting
    /// the deferral cap.
    pub shed: u64,
    /// Deferral events (one query may be deferred several times before
    /// it is finally admitted or shed).
    pub deferred: u64,
    /// Deadline-exceeded firings (one per aborted attempt).
    pub deadline_timeouts: u64,
    /// Re-submissions granted by the retry budget after a deadline miss.
    pub deadline_retries: u64,
    /// Starvation metric: the largest number of admission deferrals any
    /// single workload item accumulated. An admission gate with a proven
    /// starvation bound keeps this at or below its bound.
    pub max_defer_attempts: u32,
    /// Starvation metric: the longest time (seconds) any workload item
    /// spent between its original arrival and its first thread grant —
    /// deferral delays included, so bounded starvation is observable.
    pub max_queue_wait: f64,
    /// Threads reclaimed from permanent pipeline stalls by the
    /// progress guard. A stalled thread is woken only by completion
    /// events of its own query, so when the event heap drains while it
    /// is parked (e.g. its producer pipeline died with a lost worker)
    /// the simulator routes it back to the pool instead of deadlocking.
    pub stall_rescues: u64,
}

impl ResilienceSummary {
    /// Folds another summary into this one, the way a multi-shard
    /// serving layer aggregates per-shard results: event counters add,
    /// starvation metrics (per-item maxima) take the cross-shard max.
    /// Commutative and associative, so the merged aggregate is
    /// independent of shard visit order.
    pub fn merge(&mut self, other: &ResilienceSummary) {
        self.shed += other.shed;
        self.deferred += other.deferred;
        self.deadline_timeouts += other.deadline_timeouts;
        self.deadline_retries += other.deadline_retries;
        self.max_defer_attempts = self.max_defer_attempts.max(other.max_defer_attempts);
        self.max_queue_wait = self.max_queue_wait.max(other.max_queue_wait);
        self.stall_rescues += other.stall_rescues;
    }
}

/// Latency statistics derived from a single sort of the outcome
/// durations. [`SimResult::avg_duration`], [`SimResult::quantile_duration`]
/// and [`SimResult::cdf`] each used to re-collect and re-sort the
/// outcomes; callers needing several of them should build this once via
/// [`SimResult::latency_stats`] and read every statistic off the shared
/// sorted vector.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Query latencies, sorted ascending.
    sorted: Vec<f64>,
}

impl LatencyStats {
    fn new(mut sorted: Vec<f64>) -> Self {
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Builds the statistics basis from raw latency samples (any order).
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self::new(samples)
    }

    /// Number of samples behind these statistics.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The raw samples, sorted ascending.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Folds another sample set into this one by merging the two sorted
    /// vectors in O(n + m). Cross-shard aggregates must be computed this
    /// way — from the pooled raw samples — because percentiles do not
    /// average: the p99 of per-shard p99s is not the p99 of the pooled
    /// population. `tests` pin `merge` equal to the pooled-samples
    /// oracle ([`LatencyStats::from_samples`] over the concatenation).
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.sorted.is_empty() {
            return;
        }
        let a = std::mem::take(&mut self.sorted);
        let mut merged = Vec::with_capacity(a.len() + other.sorted.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < other.sorted.len() {
            if a[i].total_cmp(&other.sorted[j]).is_le() {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(other.sorted[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&other.sorted[j..]);
        self.sorted = merged;
    }

    /// Mean latency.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The `p`-quantile (0.9 = tail latency indicator).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = ((self.sorted.len() as f64 - 1.0) * p).round() as usize;
        self.sorted[idx]
    }

    /// Sorted latencies with cumulative fractions — the CDF the paper's
    /// Figures 8–10 plot.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted.iter().enumerate().map(|(i, &v)| (v, (i + 1) as f64 / n)).collect()
    }
}

impl SimResult {
    /// Builds the shared sorted-latency basis for mean/quantile/CDF.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::new(self.outcomes.iter().map(|o| o.duration).collect())
    }

    /// Bitwise identity to another run, excluding only `sched_wall_time`
    /// (a host clock reading). This is the determinism predicate the
    /// serving-layer proptests gate on: every counter, every outcome
    /// field, every fault/resilience summary must match exactly.
    pub fn bit_eq(&self, other: &SimResult) -> bool {
        fn outcomes_eq(a: &[QueryOutcome], b: &[QueryOutcome]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.qid == y.qid
                        && x.name == y.name
                        && x.arrival.to_bits() == y.arrival.to_bits()
                        && x.finish.to_bits() == y.finish.to_bits()
                        && x.duration.to_bits() == y.duration.to_bits()
                })
        }
        outcomes_eq(&self.outcomes, &other.outcomes)
            && outcomes_eq(&self.aborted, &other.aborted)
            && self.makespan.to_bits() == other.makespan.to_bits()
            && self.sched_invocations == other.sched_invocations
            && self.sched_decisions == other.sched_decisions
            && self.sched_rejected == other.sched_rejected
            && self.fallback_decisions == other.fallback_decisions
            && self.total_work_orders == other.total_work_orders
            && self.events_processed == other.events_processed
            && self.fault_summary == other.fault_summary
            && self.resilience == other.resilience
            && self.final_pool_size == other.final_pool_size
            && self.crashed_at.map(f64::to_bits) == other.crashed_at.map(f64::to_bits)
            && self.unfinished == other.unfinished
    }

    /// Mean query latency.
    pub fn avg_duration(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.duration).sum::<f64>() / self.outcomes.len() as f64
    }

    /// The `p`-quantile of query latency. Sorts per call — use
    /// [`SimResult::latency_stats`] when also reading the mean or CDF.
    pub fn quantile_duration(&self, p: f64) -> f64 {
        self.latency_stats().quantile(p)
    }

    /// The latency CDF. Sorts per call — use
    /// [`SimResult::latency_stats`] when also reading quantiles.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        self.latency_stats().cdf()
    }

    /// Average scheduling latency charged per query (seconds).
    pub fn sched_latency_per_query(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.sched_wall_time / self.outcomes.len() as f64
    }
}

/// Heap key ordering events by time (earliest first), tie-broken by
/// insertion sequence for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EvKey {
    time: f64,
    seq: u64,
}

impl Eq for EvKey {}

impl Ord for EvKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for EvKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
enum Ev {
    Arrival(usize),
    WoDone { pipeline: usize, op: OpId, thread: usize, duration: f64, memory: f64 },
    /// A work order exhausted its transient-failure retries: it fails
    /// permanently at this time, aborting its query.
    WoFail { pipeline: usize, thread: usize, memory: f64 },
    PoolResize(usize),
    /// Fault events (from the [`FaultPlan`]).
    WorkerLost,
    WorkerJoined,
    CancelQuery(u64),
    /// A query's absolute deadline fires; a no-op if the query already
    /// finished or was torn down.
    Deadline(u64),
    /// Re-submission of workload item `item` (deferred by the admission
    /// gate or granted a deadline retry) as attempt number `attempt`.
    Retry { item: usize, attempt: u32, kind: RetryKind },
}

/// Why a workload item is being re-submitted. The distinction decides
/// the deadline anchor: a deferred query was *never admitted*, so its
/// SLO clock keeps running from the original arrival (deferral cannot
/// silently extend a deadline); a deadline retry is a deliberately
/// granted fresh attempt and gets a fresh budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryKind {
    /// Admission-gate deferral: deadline stays anchored at the item's
    /// original arrival time.
    Defer,
    /// Post-timeout retry under [`RetryPolicy`]: fresh deadline budget
    /// from the re-submission time.
    Timeout,
}

/// Per-active-query bookkeeping the [`QueryRuntime`] snapshot does not
/// carry: which workload item the query came from, which submission
/// attempt it is, and the original submission time (outcome latency is
/// measured from first submission, so deferral and backoff delays count
/// against the SLO).
#[derive(Debug, Clone, Copy)]
struct QueryMeta {
    item: usize,
    attempt: u32,
    submitted: f64,
}

/// Why a query is being torn down before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    /// User cancellation (the PR 2 fault path).
    Cancelled,
    /// Permanent work-order failure.
    Failed,
    /// Deadline exceeded.
    Timeout,
    /// Shed by the admission gate.
    Shed,
}

/// Hard cap on per-query deferrals: a gate that keeps answering
/// `Defer` cannot loop a query through the event heap forever — past
/// this many attempts the verdict is treated as `Reject`.
const MAX_DEFERS: u32 = 32;

#[derive(Debug)]
struct HeapItem {
    key: EvKey,
    ev: Ev,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Set of thread ids doomed by worker loss, as a bitset: `contains`,
/// `insert` and `take` are O(1) where the legacy sorted-`Vec`
/// representation paid a linear scan on the hot dispatch/completion
/// paths. Thread ids only grow (lost workers are never resurrected
/// under the same id), so the bit vector grows monotonically and is
/// reused across events.
#[derive(Debug, Default)]
struct DoomedSet {
    bits: Vec<u64>,
    len: usize,
}

impl DoomedSet {
    fn contains(&self, t: usize) -> bool {
        self.bits.get(t / 64).is_some_and(|w| w & (1u64 << (t % 64)) != 0)
    }

    fn insert(&mut self, t: usize) {
        let (w, b) = (t / 64, 1u64 << (t % 64));
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.len += 1;
        }
    }

    /// Removes `t` if present; returns whether it was.
    fn take(&mut self, t: usize) -> bool {
        if self.len == 0 {
            return false;
        }
        let (w, b) = (t / 64, 1u64 << (t % 64));
        match self.bits.get_mut(w) {
            Some(word) if *word & b != 0 => {
                *word &= !b;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }
}

/// One running pipeline: a chain of operators and the threads granted
/// to it. Every thread is either *busy* (one work order in flight, whose
/// completion event will fire) or *stalled* (parked in `stalled`, waiting
/// for producer progress). Invariants, checked by
/// `Simulator::debug_check_parked`: `stalled` is a duplicate-free subset
/// of `threads`, and no stalled thread is doomed.
#[derive(Debug)]
struct PipelineRun {
    query: QueryId,
    /// Built once per decision; an `Arc` slice so a pipeline's chain is
    /// shared, not copied.
    chain: Arc<[OpId]>,
    threads: Vec<usize>,
    stalled: Vec<usize>,
    buffer_mem: f64,
}

/// The discrete-event simulator.
pub struct Simulator {
    cfg: SimConfig,
    rng: StdRng,
    time: f64,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    queries: Vec<QueryRuntime>,
    /// `QueryId -> index into queries`. Replaces the per-event linear
    /// `position` scan; kept consistent across `Vec::remove` by shifting
    /// the later queries' slots down.
    qindex: QueryIdMap,
    /// Live pipeline slots of each query, parallel to `queries` and in
    /// ascending slot order (slot ids are monotonically assigned, so
    /// pushes preserve the order the legacy all-slot sweeps visited).
    query_pipes: Vec<Vec<usize>>,
    /// Submission metadata, parallel to `queries`.
    query_meta: Vec<QueryMeta>,
    /// Next query id for retry submissions. First-attempt ids stay equal
    /// to the workload index (preserving `FaultPlan` cancellation
    /// targeting and bit-identity with pre-SLO runs); retries draw fresh
    /// ids from here.
    next_qid: u64,
    free_threads: Vec<usize>,
    pool_size: usize,
    next_thread_id: usize,
    pending_retirements: usize,
    pipelines: Vec<Option<PipelineRun>>,
    in_flight_mem: f64,
    /// Fault injector (present when `cfg.faults` is set).
    faults: Option<FaultInjector>,
    /// Busy/stalled threads marked for loss; each is reaped (retired,
    /// its in-flight work order re-exposed) at its next scheduling
    /// point.
    doomed: DoomedSet,
    /// Structure-of-arrays mirror of the per-query hot columns, in
    /// lockstep with `queries`. The fast path syncs it at every mutation
    /// site and refreshes its estimate columns per context build;
    /// reference mode rebuilds it wholesale per context build (the
    /// legacy full-rescan cost).
    hot: QueryHot,
    /// Non-forced scheduling triggers deferred to the end of the current
    /// tick, in firing order. Flushed as one batched invocation.
    pending_events: Vec<SchedEvent>,
    /// Reusable drain buffer for the events of one tick.
    tick_buf: Vec<Ev>,
    /// Per-workload-item admission-deferral counts, backing
    /// [`ResilienceSummary::max_defer_attempts`]. Sized in `run`.
    item_defers: Vec<u32>,
    /// Per-workload-item "has received its first thread grant" flags,
    /// backing [`ResilienceSummary::max_queue_wait`]. Sized in `run`.
    item_granted: Vec<bool>,
    /// Per-workload-item "has a final fate" flags (completed or
    /// terminally aborted), backing [`SimResult::unfinished`] for
    /// crash-truncated runs. Sized in `run`.
    item_done: Vec<bool>,
    // metrics
    outcomes: Vec<QueryOutcome>,
    aborted: Vec<QueryOutcome>,
    fault_summary: FaultSummary,
    resilience: ResilienceSummary,
    invocations: u64,
    decisions: u64,
    rejected: u64,
    fallbacks: u64,
    sched_wall: f64,
    work_orders: u64,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let free_threads: Vec<usize> = (0..cfg.num_threads).collect();
        let pool_size = cfg.num_threads;
        let next_thread_id = cfg.num_threads;
        let faults = cfg.faults.clone().map(FaultInjector::new);
        Self {
            cfg,
            rng,
            time: 0.0,
            heap: BinaryHeap::new(),
            seq: 0,
            queries: Vec::new(),
            qindex: QueryIdMap::new(),
            query_pipes: Vec::new(),
            query_meta: Vec::new(),
            next_qid: 0,
            free_threads,
            pool_size,
            next_thread_id,
            pending_retirements: 0,
            pipelines: Vec::new(),
            in_flight_mem: 0.0,
            faults,
            doomed: DoomedSet::default(),
            hot: QueryHot::new(),
            pending_events: Vec::new(),
            tick_buf: Vec::new(),
            item_defers: Vec::new(),
            item_granted: Vec::new(),
            item_done: Vec::new(),
            outcomes: Vec::new(),
            aborted: Vec::new(),
            fault_summary: FaultSummary::default(),
            resilience: ResilienceSummary::default(),
            invocations: 0,
            decisions: 0,
            rejected: 0,
            fallbacks: 0,
            sched_wall: 0.0,
            work_orders: 0,
        }
    }

    fn push_event(&mut self, time: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapItem { key: EvKey { time, seq: self.seq }, ev });
    }

    /// Runs `workload` to completion under `scheduler`. Returns an error
    /// instead of panicking or silently truncating when the run cannot
    /// complete (event cap, structural deadlock, invariant violation).
    pub fn run(
        mut self,
        workload: &[WorkloadItem],
        scheduler: &mut dyn Scheduler,
    ) -> Result<SimResult, SimError> {
        self.next_qid = workload.len() as u64;
        self.item_defers = vec![0; workload.len()];
        self.item_granted = vec![false; workload.len()];
        self.item_done = vec![false; workload.len()];
        let crash_at = self.faults.as_ref().and_then(|f| f.plan().crash_at);
        for (i, item) in workload.iter().enumerate() {
            self.push_event(item.arrival_time, Ev::Arrival(i));
        }
        let resizes = self.cfg.pool_resizes.clone();
        for (t, size) in resizes {
            self.push_event(t, Ev::PoolResize(size.max(1)));
        }
        if let Some(f) = &self.faults {
            let plan = f.plan().clone();
            for (t, count) in &plan.worker_loss {
                for _ in 0..*count {
                    self.push_event(*t, Ev::WorkerLost);
                }
            }
            for (t, count) in &plan.worker_rejoin {
                for _ in 0..*count {
                    self.push_event(*t, Ev::WorkerJoined);
                }
            }
            for (t, q) in &plan.cancellations {
                self.push_event(*t, Ev::CancelQuery(*q));
            }
        }

        let mut processed: u64 = 0;
        while let Some(first) = self.heap.pop() {
            let tick_time = first.key.time;
            if let Some(t) = crash_at {
                if tick_time >= t {
                    // The process dies before anything scheduled at or
                    // after `t` can run. Whatever completed strictly
                    // before the crash is the durable log; everything
                    // else surfaces in `unfinished` for the supervisor
                    // to fail over. No RNG is consumed by the check, so
                    // the prefix is bit-identical to the crash-free run.
                    self.time = self.time.max(t);
                    return Ok(self.into_result(processed, Some(t)));
                }
            }
            self.time = self.time.max(tick_time);
            // Tick-local batch: drain every event firing at this exact
            // timestamp, run their handlers (which *defer* non-forced
            // scheduler triggers instead of invoking one at a time),
            // then flush the deferred triggers as one batched
            // invocation against the post-tick state. Handlers and
            // decisions can land new events back on this timestamp
            // (zero-delay admission deferrals), so the
            // drain → handle → flush cycle repeats until the tick is
            // exhausted.
            let mut tick = std::mem::take(&mut self.tick_buf);
            tick.push(first.ev);
            loop {
                while self.heap.peek().is_some_and(|n| n.key.time == tick_time) {
                    let n = self.heap.pop().expect("peeked event must pop");
                    tick.push(n.ev);
                }
                for ev in tick.drain(..) {
                    processed += 1;
                    if processed > self.cfg.max_events {
                        return Err(SimError::EventCapExceeded {
                            processed,
                            cap: self.cfg.max_events,
                            unfinished_queries: self.queries.len(),
                        });
                    }
                    match ev {
                        Ev::Arrival(i) => {
                            let qid = QueryId(i as u64);
                            self.handle_arrival(scheduler, workload, i, 0, qid, RetryKind::Defer);
                        }
                        Ev::Retry { item, attempt, kind } => {
                            let qid = QueryId(self.next_qid);
                            self.next_qid += 1;
                            self.handle_arrival(scheduler, workload, item, attempt, qid, kind);
                        }
                        Ev::Deadline(q) => self.handle_deadline(scheduler, QueryId(q)),
                        Ev::WoDone { pipeline, op, thread, duration, memory } => {
                            self.handle_wo_done(scheduler, pipeline, op, thread, duration, memory)?;
                        }
                        Ev::WoFail { pipeline, thread, memory } => {
                            self.handle_wo_fail(scheduler, pipeline, thread, memory);
                        }
                        Ev::PoolResize(size) => self.handle_pool_resize(scheduler, size),
                        Ev::WorkerLost => self.handle_worker_lost(scheduler),
                        Ev::WorkerJoined => self.handle_worker_joined(scheduler),
                        Ev::CancelQuery(q) => self.handle_cancel(scheduler, QueryId(q)),
                    }
                }
                self.flush_pending(scheduler);
                if !self.heap.peek().is_some_and(|n| n.key.time == tick_time) {
                    break;
                }
            }
            self.tick_buf = tick;

            // Progress guard: no pending events but unfinished queries.
            if self.heap.is_empty() && !self.queries.is_empty() {
                self.invoke_now(scheduler, SchedEvent::ThreadsFreed(0));
                if self.heap.is_empty() {
                    self.force_fallback();
                }
                if self.heap.is_empty() {
                    // Stall rescue: a thread parked in a pipeline stall
                    // is woken only by completion events of its own
                    // query, and the heap has none — it would sleep
                    // forever while the pool believes the worker is
                    // busy. (A lost worker taking down a producer
                    // pipeline strands its consumers' threads exactly
                    // this way.) Reclaim every stalled thread and give
                    // the policy one final shot.
                    let rescued = self.rescue_stalled_threads();
                    if rescued > 0 {
                        self.resilience.stall_rescues += rescued as u64;
                        self.invoke_now(scheduler, SchedEvent::ThreadsFreed(rescued));
                        if self.heap.is_empty() {
                            self.force_fallback();
                        }
                    }
                }
                if self.heap.is_empty() {
                    // Nothing dispatchable at all — structural dead end.
                    return Err(SimError::Deadlock { unfinished_queries: self.queries.len() });
                }
            }
        }

        Ok(self.into_result(processed, None))
    }

    /// Final result assembly shared by the drained and crash-truncated
    /// exits. A crash caps nothing retroactively: outcomes recorded
    /// before the crash stand as-is, and the makespan covers the crash
    /// instant so a dead shard still occupies its slot until it died.
    fn into_result(self, processed: u64, crashed_at: Option<f64>) -> SimResult {
        let last_finish = self.outcomes.iter().map(|o| o.finish).fold(0.0, f64::max);
        let unfinished: Vec<usize> =
            (0..self.item_done.len()).filter(|&i| !self.item_done[i]).collect();
        SimResult {
            makespan: crashed_at.map_or(last_finish, |t| t.max(last_finish)),
            outcomes: self.outcomes,
            sched_invocations: self.invocations,
            sched_decisions: self.decisions,
            sched_rejected: self.rejected,
            fallback_decisions: self.fallbacks,
            sched_wall_time: self.sched_wall,
            total_work_orders: self.work_orders,
            events_processed: processed,
            aborted: self.aborted,
            fault_summary: self.fault_summary,
            resilience: self.resilience,
            final_pool_size: self.pool_size,
            crashed_at,
            unfinished,
        }
    }

    /// Announces a (re-)submission of workload item `item` as attempt
    /// `attempt` under id `qid`: constructs the runtime, consults the
    /// scheduler's admission gate, sheds or defers as directed, and for
    /// admitted queries arms the deadline and delivers `QueryArrived`.
    fn handle_arrival(
        &mut self,
        scheduler: &mut dyn Scheduler,
        workload: &[WorkloadItem],
        item: usize,
        attempt: u32,
        qid: QueryId,
        kind: RetryKind,
    ) {
        let w = &workload[item];
        let mut qr = QueryRuntime::new(
            qid,
            Arc::clone(&w.plan),
            self.time,
            self.pool_size.max(self.cfg.num_threads) + 64,
        );
        qr.priority = w.priority;
        // A deadline-retry attempt gets a fresh budget measured from its
        // own re-submission time — that is the deliberate grant of the
        // retry policy. Deferred (and first) submissions stay anchored at
        // the item's original arrival: an admission deferral must not
        // silently extend the SLO, so a query admitted after its deadline
        // already passed fires `DeadlineExceeded` immediately.
        // Failover replays anchor at the original submission instead of
        // the (shifted) replay arrival — the crash must not extend SLOs.
        qr.deadline = w.deadline.map(|d| match kind {
            RetryKind::Timeout => self.time + d,
            RetryKind::Defer => w.submit_anchor() + d,
        });
        self.qindex.insert(qid, self.queries.len());
        self.queries.push(qr);
        self.hot.push(self.queries.last().expect("query just pushed"));
        self.query_pipes.push(Vec::new());
        // Retries keep charging latency from the ORIGINAL arrival (and
        // failover replays from the pre-crash submission), so a query
        // that misses its deadline twice and then finishes reports its
        // true end-to-end latency, not just the last attempt's.
        self.query_meta.push(QueryMeta { item, attempt, submitted: w.submit_anchor() });

        // Admission gate (the default `Scheduler::admit` admits all, so
        // non-gated runs take this path with zero behavioural change and
        // zero RNG draws).
        self.refresh_hot();
        let response = self.with_ctx(|ctx| scheduler.admit(ctx, qid, attempt));

        // Shed the gate's victims first (lowest-priority queued queries).
        // Indices shift with each abort, so victims are re-resolved by id;
        // the arriving query's own fate is decided by `response.action`.
        for victim in response.shed {
            if victim == qid {
                continue;
            }
            if let Some(vidx) = self.query_index(victim) {
                self.resilience.shed += 1;
                self.abort_query(scheduler, vidx, AbortKind::Shed);
            }
        }

        match response.action {
            AdmitAction::Admit => {
                if let Some(qidx) = self.query_index(qid) {
                    if let Some(dl) = self.queries[qidx].deadline {
                        self.push_event(dl, Ev::Deadline(qid.0));
                    }
                    self.defer_event(SchedEvent::QueryArrived(qid));
                }
            }
            AdmitAction::Reject => {
                if let Some(qidx) = self.query_index(qid) {
                    self.resilience.shed += 1;
                    self.abort_query(scheduler, qidx, AbortKind::Shed);
                }
            }
            AdmitAction::Defer { delay } => {
                if let Some(qidx) = self.query_index(qid) {
                    if attempt >= MAX_DEFERS {
                        self.resilience.shed += 1;
                        self.abort_query(scheduler, qidx, AbortKind::Shed);
                    } else {
                        // The query was never announced to the policy, so
                        // it leaves silently — no cancellation events.
                        self.resilience.deferred += 1;
                        self.item_defers[item] += 1;
                        self.resilience.max_defer_attempts =
                            self.resilience.max_defer_attempts.max(self.item_defers[item]);
                        self.remove_query(qidx);
                        self.push_event(
                            self.time + delay.max(0.0),
                            Ev::Retry { item, attempt: attempt + 1, kind: RetryKind::Defer },
                        );
                    }
                }
            }
        }
    }

    /// A query's deadline fires while it is still live: count the miss,
    /// notify the policy (`DeadlineExceeded` precedes the teardown so it
    /// can observe the query's final state), cancel cooperatively via
    /// the shared abort path, and re-submit when the retry budget
    /// allows.
    fn handle_deadline(&mut self, scheduler: &mut dyn Scheduler, qid: QueryId) {
        let Some(_) = self.query_index(qid) else {
            return; // already finished or torn down — stale timer
        };
        self.resilience.deadline_timeouts += 1;
        self.invoke_forced(scheduler, SchedEvent::DeadlineExceeded(qid));
        // Policies cannot remove queries, but the notification may have
        // dispatched work — re-resolve the index before tearing down.
        let Some(qidx) = self.query_index(qid) else {
            return;
        };
        let QueryMeta { item, attempt, .. } = self.query_meta[qidx];
        let will_retry = attempt < self.cfg.retry.max_retries;
        self.abort_query_inner(scheduler, qidx, AbortKind::Timeout, !will_retry);
        if will_retry {
            self.resilience.deadline_retries += 1;
            let delay = self.cfg.retry.backoff(attempt);
            self.push_event(
                self.time + delay,
                Ev::Retry { item, attempt: attempt + 1, kind: RetryKind::Timeout },
            );
        }
    }

    fn query_index(&self, qid: QueryId) -> Option<usize> {
        if self.cfg.reference_mode {
            // Legacy linear scan, kept as the baseline the id map is
            // benchmarked against; both paths agree by construction.
            return self.queries.iter().position(|q| q.qid == qid);
        }
        self.qindex.get(qid)
    }

    /// Removes the query at `qidx` and keeps the id map consistent.
    /// `Vec::remove` (not `swap_remove`) preserves the arrival order
    /// policies observe through `SchedContext::queries`, so every later
    /// query shifts down one slot.
    fn remove_query(&mut self, qidx: usize) -> QueryRuntime {
        let q = self.queries.remove(qidx);
        self.hot.remove(qidx);
        self.query_pipes.remove(qidx);
        self.query_meta.remove(qidx);
        self.qindex.remove(q.qid, qidx, &self.queries[qidx..]);
        q
    }

    fn handle_wo_done(
        &mut self,
        scheduler: &mut dyn Scheduler,
        pid: usize,
        op: OpId,
        thread: usize,
        duration: f64,
        memory: f64,
    ) -> Result<(), SimError> {
        self.in_flight_mem -= memory;

        // Orphaned completion: the pipeline was torn down (its query was
        // cancelled or aborted) while this work order was in flight.
        // Release the memory above and route the thread home.
        let Some(qid) = self.pipelines[pid].as_ref().map(|p| p.query) else {
            if self.dispose_thread(thread) {
                self.defer_event(SchedEvent::ThreadsFreed(1));
            }
            return Ok(());
        };
        let qidx = self
            .query_index(qid)
            .ok_or(SimError::Invariant("query alive while its pipeline runs"))?;

        // A doomed thread surfaces: its worker was lost mid-flight, so
        // this work order is lost with it — undo the dispatch (the work
        // order is re-exposed) and retire the thread.
        if self.doomed.take(thread) {
            let o = &mut self.queries[qidx].ops[op.0];
            o.dispatched_work_orders = o.dispatched_work_orders.saturating_sub(1);
            self.fault_summary.wo_lost_with_worker += 1;
            self.remove_thread_from_pipeline(pid, qidx, thread);
            // While its pipeline lives, the re-exposed work order can only
            // run on threads already inside this query's pipelines — wake
            // the stalled ones, or they would sleep forever if no other
            // completion event is in flight.
            self.wake_query_threads(qidx, qid, None);
            // Nothing freed (the worker retired), but the re-exposed
            // work order may warrant a fresh decision.
            self.defer_event(SchedEvent::ThreadsFreed(0));
            return Ok(());
        }

        self.work_orders += 1;
        let stats = WorkOrderStats {
            duration,
            memory,
            output_rows: 0,
            completed_at: self.time,
        };
        if self.cfg.reference_mode {
            // The oracle fits both regressors at every completion.
            self.queries[qidx].ops[op.0].observe_completion(&stats);
            self.queries[qidx].ops[op.0].refresh_estimates();
            if self.queries[qidx].ops[op.0].status == OpStatus::Finished {
                self.queries[qidx].refresh_statuses();
            }
        } else {
            self.queries[qidx].observe_wo_completion(op, &stats);
        }
        let op_finished = self.queries[qidx].ops[op.0].status == OpStatus::Finished;

        // Wake the completing thread plus any stalled threads of *all* of
        // this query's pipelines: producer progress in one pipeline can
        // make consumer work orders dispatchable in another.
        self.wake_query_threads(qidx, qid, Some((pid, thread)));

        // Pipeline completion check: no thread still holds an in-flight
        // work order for it (`stalled` is a duplicate-free subset of
        // `threads`, so equal lengths mean every thread is stalled) and
        // all chain ops finished.
        let done = self.pipelines[pid].as_ref().is_some_and(|p| {
            p.stalled.len() == p.threads.len()
                && p.chain.iter().all(|o| self.queries[qidx].ops[o.0].status == OpStatus::Finished)
        });
        let mut freed = 0;
        if done {
            if let Some(p) = self.pipelines[pid].take() {
                self.detach_pipe(qidx, pid);
                self.in_flight_mem -= p.buffer_mem;
                self.queries[qidx].assigned_threads =
                    self.queries[qidx].assigned_threads.saturating_sub(p.threads.len());
                for t in p.threads {
                    if self.dispose_thread(t) {
                        freed += 1;
                    }
                }
            }
        }
        self.sync_hot(qidx);

        // Query completion.
        let mut query_finished = false;
        if self.queries[qidx].is_finished() {
            query_finished = true;
            let submitted = self.query_meta[qidx].submitted;
            self.item_done[self.query_meta[qidx].item] = true;
            let q = &mut self.queries[qidx];
            q.finish_time = Some(self.time);
            self.outcomes.push(QueryOutcome {
                qid: q.qid,
                name: q.plan.name.clone(),
                arrival: submitted,
                finish: self.time,
                duration: self.time - submitted,
            });
            let t = self.time;
            scheduler.on_query_finished(t, qid);
            self.remove_query(qidx);
        }

        // Scheduling events, per Section 5.2.
        if op_finished && !query_finished {
            self.defer_event(SchedEvent::OperatorCompleted { query: qid, op });
        }
        if freed > 0 {
            self.defer_event(SchedEvent::ThreadsFreed(freed));
        }
        Ok(())
    }

    /// Wakes the threads of query `qidx` after producer progress (or a
    /// re-exposed work order): `head`, the thread whose work order just
    /// completed, first, then the stalled threads of every live pipeline
    /// of the query — progress in one pipeline can make consumer work
    /// orders dispatchable in another.
    ///
    /// The fast path probes each pipeline only until its first stall.
    /// No work order completes during a wake, so every chain op's slack
    /// `allowed_dispatch - (completed + dispatched)` can only fall: once
    /// one thread of a pipeline finds nothing, every later one would
    /// re-stall too. So the successful dispatches — their order, RNG
    /// draws, event sequence numbers and memory charges — and the final
    /// stalled lists (the failed threads in wake order) equal the legacy
    /// full sweep's, which reference mode keeps as the oracle. Stalled
    /// threads are never doomed, so the wake needs no doomed handling.
    fn wake_query_threads(&mut self, qidx: usize, qid: QueryId, head: Option<(usize, usize)>) {
        if self.cfg.reference_mode {
            let mut to_dispatch: Vec<(usize, usize)> = head.into_iter().collect();
            for (i, slot) in self.pipelines.iter_mut().enumerate() {
                if let Some(p) = slot {
                    if p.query == qid {
                        to_dispatch.extend(p.stalled.drain(..).map(|t| (i, t)));
                    }
                }
            }
            for (p, t) in to_dispatch {
                self.dispatch_thread(p, t);
            }
            return;
        }
        // A re-stalled head goes to the front: in the legacy sweep it was
        // dispatched (and failed) before its pipeline's stalled threads.
        // That pipeline's stalled threads cannot run either.
        let mut closed = None;
        if let Some((pid, t)) = head {
            if !self.try_dispatch(pid, qidx, t) {
                let p = self.pipelines[pid].as_mut().expect("head's pipeline is live");
                p.stalled.insert(0, t);
                closed = Some(pid);
                self.debug_check_parked(pid, 0..1);
            }
        }
        for pi in 0..self.query_pipes[qidx].len() {
            let pid = self.query_pipes[qidx][pi];
            if closed != Some(pid) {
                let mut k = 0;
                while let Some(&t) = self.pipelines[pid].as_ref().and_then(|p| p.stalled.get(k)) {
                    if !self.try_dispatch(pid, qidx, t) {
                        break;
                    }
                    k += 1;
                }
                if let Some(p) = self.pipelines[pid].as_mut() {
                    p.stalled.drain(..k);
                }
            }
        }
    }

    /// Debug-build check of the stall invariants the wake and the
    /// pipeline-done test rest on, for the threads just parked at
    /// `stalled[parked]` of pipeline `pid` (the only places a thread
    /// joins the list): each belongs to the pipeline, is stalled once,
    /// and is not doomed (worker loss reaps a stalled victim at once; a
    /// doomed thread stays busy until its own event fires).
    fn debug_check_parked(&self, pid: usize, parked: std::ops::Range<usize>) {
        if cfg!(debug_assertions) {
            let p = self.pipelines[pid].as_ref().expect("parked in a live pipeline");
            for &t in &p.stalled[parked] {
                debug_assert!(p.threads.contains(&t), "stalled thread {t} not in its pipeline");
                let times = p.stalled.iter().filter(|&&s| s == t).count();
                debug_assert_eq!(times, 1, "thread {t} stalled {times} times");
                debug_assert!(!self.doomed.contains(t), "stalled thread {t} is doomed");
            }
        }
    }

    /// Reclaims every thread parked in a pipeline stall, routing each
    /// back through [`Self::dispose_thread`] (so doomed threads retire
    /// and pending pool shrinks are honoured) and returning how many
    /// actually reached the free pool. Emptied pipelines are torn down,
    /// re-exposing their unfinished chain operators as schedulable.
    ///
    /// Only sound when no events are in flight: stalled threads are
    /// otherwise the wake targets of their query's next completion.
    /// The run loop's progress guard is the sole caller, so runs that
    /// never dead-end are bit-for-bit unaffected.
    fn rescue_stalled_threads(&mut self) -> usize {
        let mut rescued = 0;
        for pid in 0..self.pipelines.len() {
            // `remove_thread_from_pipeline` may tear the slot down when
            // it empties, so re-borrow the slot each iteration.
            while let Some((qid, t)) = self.pipelines[pid]
                .as_ref()
                .and_then(|p| p.stalled.last().map(|&t| (p.query, t)))
            {
                let Some(qidx) = self.query_index(qid) else {
                    break; // defensive: live pipeline of a dead query
                };
                self.remove_thread_from_pipeline(pid, qidx, t);
                if self.dispose_thread(t) {
                    rescued += 1;
                }
            }
        }
        rescued
    }

    /// Drops `pid` from the owning query's pipeline list (called when
    /// the slot is taken).
    fn detach_pipe(&mut self, qidx: usize, pid: usize) {
        let pipes = &mut self.query_pipes[qidx];
        if let Some(pos) = pipes.iter().position(|&p| p == pid) {
            pipes.remove(pos);
        }
    }

    /// Routes a thread that is leaving a pipeline: a doomed thread
    /// retires (its worker was lost), an outstanding pool shrink consumes
    /// it, otherwise it returns to the free pool. Returns `true` when the
    /// free pool grew.
    fn dispose_thread(&mut self, t: usize) -> bool {
        if self.doomed.take(t) {
            return false;
        }
        if self.pending_retirements > 0 {
            self.pending_retirements -= 1;
            return false;
        }
        match self.free_threads.binary_search(&t) {
            // Already free — defensive; callers only dispose busy threads.
            Ok(_) => false,
            Err(pos) => {
                self.free_threads.insert(pos, t);
                true
            }
        }
    }

    /// Detaches `thread` from pipeline `pid` (without touching the free
    /// pool) and tears the pipeline down if that left it empty.
    fn remove_thread_from_pipeline(&mut self, pid: usize, qidx: usize, thread: usize) {
        let mut empty = false;
        if let Some(p) = self.pipelines[pid].as_mut() {
            p.threads.retain(|&t| t != thread);
            p.stalled.retain(|&t| t != thread);
            empty = p.threads.is_empty();
        }
        self.queries[qidx].assigned_threads =
            self.queries[qidx].assigned_threads.saturating_sub(1);
        if empty {
            self.kill_pipeline(pid, Some(qidx));
        }
        self.sync_hot(qidx);
    }

    /// Tears down a pipeline slot: releases its buffer memory and, when
    /// the owning query is still alive, reverts its unfinished `Running`
    /// chain operators so they are re-exposed as schedulable (otherwise
    /// they would be stranded with no thread). The fast path reverts
    /// each chain op incrementally — the per-op revert is
    /// order-independent, so walking the chain upstream-first matches
    /// the reference rescan exactly.
    fn kill_pipeline(&mut self, pid: usize, qidx: Option<usize>) {
        if let Some(p) = self.pipelines[pid].take() {
            self.in_flight_mem -= p.buffer_mem;
            if let Some(qi) = qidx {
                self.detach_pipe(qi, pid);
                if self.cfg.reference_mode {
                    for &op in p.chain.iter() {
                        let o = &mut self.queries[qi].ops[op.0];
                        if o.status == OpStatus::Running {
                            o.status = OpStatus::Blocked;
                        }
                    }
                    self.queries[qi].refresh_statuses();
                } else {
                    for &op in p.chain.iter() {
                        if self.queries[qi].ops[op.0].status == OpStatus::Running {
                            self.queries[qi].revert_from_running(op);
                        }
                    }
                }
                self.sync_hot(qi);
            }
        }
    }

    /// Tears down every pipeline of `self.queries[qidx]` and records the
    /// query as aborted with the given [`AbortKind`]. Stalled threads
    /// are reclaimed immediately; busy threads drain through the orphan
    /// path of [`handle_wo_done`] when their in-flight event fires.
    fn abort_query(&mut self, scheduler: &mut dyn Scheduler, qidx: usize, kind: AbortKind) {
        self.abort_query_inner(scheduler, qidx, kind, true);
    }

    fn abort_query_inner(
        &mut self,
        scheduler: &mut dyn Scheduler,
        qidx: usize,
        kind: AbortKind,
        record_outcome: bool,
    ) {
        let qid = self.queries[qidx].qid;
        let mut freed = 0;
        if self.cfg.reference_mode {
            for pid in 0..self.pipelines.len() {
                if self.pipelines[pid].as_ref().is_none_or(|p| p.query != qid) {
                    continue;
                }
                if let Some(p) = self.pipelines[pid].take() {
                    self.in_flight_mem -= p.buffer_mem;
                    for &t in &p.stalled {
                        if self.dispose_thread(t) {
                            freed += 1;
                        }
                    }
                }
            }
            self.query_pipes[qidx].clear();
        } else {
            // Ascending slot order, like the reference sweep — dispose
            // order decides which threads a pending pool shrink retires.
            let pipes = std::mem::take(&mut self.query_pipes[qidx]);
            for pid in pipes {
                if let Some(p) = self.pipelines[pid].take() {
                    self.in_flight_mem -= p.buffer_mem;
                    for &t in &p.stalled {
                        if self.dispose_thread(t) {
                            freed += 1;
                        }
                    }
                }
            }
        }
        let submitted = self.query_meta[qidx].submitted;
        let item = self.query_meta[qidx].item;
        let q = self.remove_query(qidx);
        // A timed-out attempt that will be retried is not a final fate:
        // only the last attempt lands in `aborted`, so completed +
        // aborted still partitions the workload exactly once per item.
        if record_outcome {
            self.item_done[item] = true;
            self.aborted.push(QueryOutcome {
                qid,
                name: q.plan.name.clone(),
                arrival: submitted,
                finish: self.time,
                duration: self.time - submitted,
            });
        }
        match kind {
            AbortKind::Cancelled => self.fault_summary.queries_cancelled += 1,
            AbortKind::Failed => self.fault_summary.queries_failed += 1,
            // Timeouts and sheds are counted in `self.resilience` at
            // the trigger site (a timeout needs the miss counted even
            // when the retry budget re-submits the query).
            AbortKind::Timeout | AbortKind::Shed => {}
        }
        let t = self.time;
        scheduler.on_query_cancelled(t, qid);
        self.invoke_forced(scheduler, SchedEvent::QueryCancelled(qid));
        if freed > 0 {
            self.defer_event(SchedEvent::ThreadsFreed(freed));
        }
    }

    /// A work order exhausted its transient-failure retries: release its
    /// memory, return the (healthy) thread, and abort the owning query.
    fn handle_wo_fail(
        &mut self,
        scheduler: &mut dyn Scheduler,
        pid: usize,
        thread: usize,
        memory: f64,
    ) {
        self.in_flight_mem -= memory;
        // Detach the failing thread first so the teardown below does not
        // mistake it for a busy thread with an in-flight event.
        let qid = self.pipelines[pid].as_mut().map(|p| {
            p.threads.retain(|&t| t != thread);
            p.query
        });
        let freed = self.dispose_thread(thread);
        if let Some(qidx) = qid.and_then(|q| self.query_index(q)) {
            self.queries[qidx].assigned_threads =
                self.queries[qidx].assigned_threads.saturating_sub(1);
            self.abort_query(scheduler, qidx, AbortKind::Failed);
        }
        if freed {
            self.defer_event(SchedEvent::ThreadsFreed(1));
        }
    }

    /// A user cancels a query mid-flight; cancelling a finished (or
    /// never-arrived) query is a no-op.
    fn handle_cancel(&mut self, scheduler: &mut dyn Scheduler, qid: QueryId) {
        if let Some(qidx) = self.query_index(qid) {
            self.abort_query(scheduler, qidx, AbortKind::Cancelled);
        }
    }

    /// A worker leaves the pool: an idle worker retires immediately, a
    /// stalled worker is reaped on the spot, and a busy worker is doomed
    /// — its in-flight work order is lost and re-exposed when its event
    /// surfaces. The pool never shrinks below one worker.
    fn handle_worker_lost(&mut self, scheduler: &mut dyn Scheduler) {
        if self.pool_size <= 1 {
            return;
        }
        // Idle victim: highest free id (free_threads is kept sorted).
        if let Some(t) = self.free_threads.pop() {
            self.pool_size -= 1;
            self.fault_summary.workers_lost += 1;
            self.invoke_forced(scheduler, SchedEvent::WorkerLost(t));
            return;
        }
        // Busy/stalled victim: highest not-yet-doomed id across live
        // pipelines (deterministic pick).
        let mut victim: Option<(usize, usize, bool)> = None; // (thread, pid, stalled)
        for (pid, slot) in self.pipelines.iter().enumerate() {
            if let Some(p) = slot {
                for &t in &p.threads {
                    if self.doomed.contains(t) {
                        continue;
                    }
                    if victim.is_none_or(|(vt, _, _)| t > vt) {
                        victim = Some((t, pid, p.stalled.contains(&t)));
                    }
                }
            }
        }
        let Some((t, pid, stalled)) = victim else {
            return; // every worker is already doomed — nothing left to lose
        };
        self.pool_size -= 1;
        self.fault_summary.workers_lost += 1;
        if stalled {
            // No in-flight event to wait for: reap immediately.
            let qid = self.pipelines[pid].as_ref().map(|p| p.query);
            if let Some(qidx) = qid.and_then(|q| self.query_index(q)) {
                self.remove_thread_from_pipeline(pid, qidx, t);
            }
        } else {
            self.doomed.insert(t);
        }
        self.invoke_forced(scheduler, SchedEvent::WorkerLost(t));
    }

    /// A fresh worker joins the pool.
    fn handle_worker_joined(&mut self, scheduler: &mut dyn Scheduler) {
        let t = self.next_thread_id;
        self.next_thread_id += 1;
        self.free_threads.push(t); // new ids are strictly increasing: stays sorted
        self.pool_size += 1;
        self.fault_summary.workers_joined += 1;
        self.invoke_forced(scheduler, SchedEvent::WorkerJoined(t));
    }

    /// How many work orders of `op` may be dispatched given producer
    /// progress: `min_c floor(frac(c) * total(op))` over children, where a
    /// finished child contributes fraction 1.
    fn allowed_dispatch(&self, qidx: usize, op: OpId) -> u32 {
        let q = &self.queries[qidx];
        let total = q.ops[op.0].total_work_orders;
        let mut allowed = total;
        // CSR adjacency: borrowed slice in edge order, no per-call
        // allocation (this runs once per dispatched work order).
        for e in q.plan.children(op) {
            let c = &q.ops[e.op.0];
            let frac = if c.status == OpStatus::Finished {
                1.0
            } else {
                c.completed_work_orders as f64 / c.total_work_orders as f64
            };
            allowed = allowed.min((frac * total as f64).floor() as u32);
        }
        allowed
    }

    /// Reference mode's legacy dispatch: resolves the pipeline and query,
    /// reaps a doomed thread, and stalls the thread in the pipeline when
    /// [`Self::try_dispatch`] finds nothing.
    fn dispatch_thread(&mut self, pid: usize, thread: usize) {
        let Some(qid) = self.pipelines[pid].as_ref().map(|p| p.query) else {
            return; // pipeline torn down before the wake-up landed
        };
        let qidx = match self.query_index(qid) {
            Some(i) => i,
            None => return,
        };
        // A doomed thread must not pick up new work: reap it instead.
        if self.doomed.take(thread) {
            self.remove_thread_from_pipeline(pid, qidx, thread);
            return;
        }
        if !self.try_dispatch(pid, qidx, thread) {
            if let Some(p) = self.pipelines[pid].as_mut() {
                if !p.stalled.contains(&thread) {
                    p.stalled.push(thread);
                }
            }
        }
    }

    /// Tries to hand `thread` its next work order from the live pipeline
    /// `pid` of query `qidx`; returns whether it got one. Never touches
    /// the pipeline's `stalled` list — the callers own it.
    fn try_dispatch(&mut self, pid: usize, qidx: usize, thread: usize) -> bool {
        debug_assert!(!self.doomed.contains(thread), "doomed thread {thread} offered work");
        let p = self.pipelines[pid].as_ref().expect("dispatch into a live pipeline");
        let qid = p.query;
        // Producers first: upstream ops appear first in the chain.
        let mut picked: Option<(OpId, bool)> = None;
        for (ci, &op) in p.chain.iter().enumerate() {
            let o = &self.queries[qidx].ops[op.0];
            if o.undispatched_work_orders() == 0 {
                continue;
            }
            let in_progress = o.completed_work_orders + o.dispatched_work_orders;
            if in_progress < self.allowed_dispatch(qidx, op) {
                picked = Some((op, ci > 0));
                break;
            }
        }
        let Some((op, is_pipelined_consumer)) = picked else {
            return false;
        };
        // Only two scalar estimates are needed; copying them out
        // avoids cloning the whole operator (specs, column lists)
        // once per dispatched work order.
        let (est_wo_duration, est_wo_memory) = {
            let plan_op = self.queries[qidx].plan.op(op);
            (plan_op.est_wo_duration, plan_op.est_wo_memory)
        };
        let mut base = est_wo_duration;
        if is_pipelined_consumer {
            base *= self.cfg.cost.pipeline_speedup;
        }
        if self.queries[qidx].executed_on.get(thread).copied().unwrap_or(false) {
            base *= self.cfg.cost.thread_locality_speedup;
        }
        base *= self.cfg.cost.thrash_multiplier(self.in_flight_mem);
        let mut duration = self.cfg.cost.sample_duration(&mut self.rng, base).max(1e-9);
        let mut permanent_failure = false;
        if let Some(inj) = &mut self.faults {
            let p = inj.perturb(duration, &mut self.fault_summary);
            duration = p.elapsed.max(1e-9);
            permanent_failure = p.permanent_failure;
        }
        let memory = est_wo_memory;
        self.in_flight_mem += memory;
        self.queries[qidx].ops[op.0].dispatched_work_orders += 1;
        if let Some(slot) = self.queries[qidx].executed_on.get_mut(thread) {
            *slot = true;
        }
        let t = self.time + duration;
        if let Some(sink) = &self.cfg.trace {
            sink.lock().push(TraceEntry {
                thread,
                query: qid,
                op,
                start: self.time,
                end: t,
                pipelined: is_pipelined_consumer,
            });
        }
        if permanent_failure {
            self.push_event(t, Ev::WoFail { pipeline: pid, thread, memory });
        } else {
            self.push_event(t, Ev::WoDone { pipeline: pid, op, thread, duration, memory });
        }
        true
    }

    fn apply_decision(&mut self, d: &SchedDecision) -> bool {
        // Re-validate against the *current* state (the decision may carry
        // a stale snapshot), re-clamping the thread grant in case the
        // pool shrank between the event and this dispatch. The fast path
        // resolves the query through the id map first; reference mode
        // keeps the legacy context build (a clone of the free-thread
        // list and a linear query lookup) per decision.
        let clamped = if self.cfg.reference_mode {
            // Clamping never reads the hot columns, so the possibly stale
            // mirror is fine here (reference mode rebuilds it only before
            // policy invocations).
            self.with_ctx(|ctx| clamp_decision(ctx, d).ok()).zip(self.query_index(d.query))
        } else {
            self.query_index(d.query).and_then(|qidx| {
                clamp_decision_for(&self.queries[qidx], self.free_threads.len(), d)
                    .ok()
                    .map(|c| (c, qidx))
            })
        };
        let Some((d, qidx)) = clamped else {
            self.rejected += 1;
            return false;
        };
        // First thread grant of this workload item: record the queue
        // wait from the *original* arrival (deferral and retry delays
        // included), the observable side of the starvation bound.
        let meta = self.query_meta[qidx];
        if !self.item_granted[meta.item] {
            self.item_granted[meta.item] = true;
            let wait = self.time - meta.submitted;
            if wait > self.resilience.max_queue_wait {
                self.resilience.max_queue_wait = wait;
            }
        }
        let chain: Arc<[OpId]> =
            self.queries[qidx].startable_chain(d.root, d.pipeline_degree).into();
        let grant = d.threads.min(self.free_threads.len()).max(1);
        let threads: Vec<usize> = self.free_threads.drain(..grant).collect();

        if self.cfg.reference_mode {
            for &op in chain.iter() {
                self.queries[qidx].ops[op.0].status = OpStatus::Running;
            }
            self.queries[qidx].refresh_statuses();
        } else {
            // Root first, then upstream: each mark satisfies the
            // non-breaking edge into the next chain member.
            for &op in chain.iter() {
                self.queries[qidx].mark_running(op);
            }
        }
        self.queries[qidx].assigned_threads += threads.len();

        let buffer_mem =
            self.cfg.cost.pipeline_buffer_bytes * chain.len() as f64 * threads.len() as f64;
        self.in_flight_mem += buffer_mem;

        let pid = self.pipelines.len();
        let granted = threads.len();
        self.pipelines.push(Some(PipelineRun {
            query: d.query,
            chain,
            threads,
            stalled: Vec::new(),
            buffer_mem,
        }));
        self.query_pipes[qidx].push(pid);
        if self.cfg.reference_mode {
            let threads = self.pipelines[pid].as_ref().map(|p| p.threads.clone());
            for t in threads.unwrap_or_default() {
                self.dispatch_thread(pid, t);
            }
        } else {
            // Nothing completes while a decision is applied, so once one
            // granted thread stalls the rest would too: they join
            // `stalled` in grant order without a probe.
            let mut k = 0;
            while k < granted {
                let t = self.pipelines[pid].as_ref().expect("pipeline just pushed").threads[k];
                if !self.try_dispatch(pid, qidx, t) {
                    break;
                }
                k += 1;
            }
            let p = self.pipelines[pid].as_mut().expect("pipeline just pushed");
            p.stalled.extend_from_slice(&p.threads[k..]);
            self.debug_check_parked(pid, 0..granted - k);
        }
        self.sync_hot(qidx);
        self.decisions += 1;
        true
    }

    /// Queues a non-forced scheduling trigger for the end-of-tick flush,
    /// where all triggers that fired at the same timestamp are offered to
    /// the policy as one batch.
    fn defer_event(&mut self, event: SchedEvent) {
        self.pending_events.push(event);
    }

    /// Delivers a forced trigger (churn, cancellation, deadline)
    /// immediately, flushing any deferred triggers first so the policy
    /// still observes every trigger in firing order.
    fn invoke_forced(&mut self, scheduler: &mut dyn Scheduler, event: SchedEvent) {
        self.flush_pending(scheduler);
        self.invoke_now(scheduler, event);
    }

    /// "Is there anything a policy could schedule right now?" — O(1) via
    /// the SoA mirror on the fast path; reference mode keeps the legacy
    /// materialize-and-test scan (one Vec per active query per call).
    fn any_schedulable_work(&self) -> bool {
        if self.cfg.reference_mode {
            self.queries.iter().any(|q| !q.schedulable_ops_scan().is_empty())
        } else {
            self.hot.any_schedulable()
        }
    }

    /// Re-mirrors query `qidx`'s hot row after a mutation, `O(1)` (fast
    /// path only; reference mode rebuilds wholesale in
    /// [`Self::refresh_hot`]).
    fn sync_hot(&mut self, qidx: usize) {
        if !self.cfg.reference_mode {
            self.hot.sync(qidx, &self.queries[qidx]);
        }
    }

    /// Makes the mirror and the operator estimates current right before
    /// a policy sees them. The fast path fits the regressors and sums
    /// the estimate columns of the queries synced since the last refresh
    /// only; reference mode, whose regressors fit at every completion,
    /// re-derives the whole mirror from the struct-of-ops truth.
    fn refresh_hot(&mut self) {
        if self.cfg.reference_mode {
            self.hot.rebuild(&self.queries);
        } else {
            self.hot.refresh(&mut self.queries);
        }
    }

    /// Runs `f` on the policy-facing snapshot of the live state.
    /// Reference mode keeps the legacy per-call clone of the free-thread
    /// list; the fast path borrows it in place.
    fn with_ctx<R>(&self, f: impl FnOnce(&SchedContext<'_>) -> R) -> R {
        debug_assert!(self.hot.is_refreshed(), "context built without refresh_hot");
        let cloned;
        let free_ids: &[usize] = if self.cfg.reference_mode {
            cloned = self.free_threads.clone();
            &cloned
        } else {
            &self.free_threads
        };
        f(&SchedContext {
            time: self.time,
            total_threads: self.pool_size,
            free_threads: free_ids.len(),
            free_thread_ids: free_ids,
            queries: &self.queries,
            hot: &self.hot,
            in_flight_mem: self.in_flight_mem,
            mem_budget: self.cfg.cost.memory_budget,
        })
    }

    /// End-of-tick flush: offer every deferred trigger from this
    /// timestamp to the policy as one batch via [`Scheduler::on_tick`];
    /// a policy that declines gets the legacy per-event delivery.
    fn flush_pending(&mut self, scheduler: &mut dyn Scheduler) {
        if self.pending_events.is_empty() {
            return;
        }
        // Paper guard, batch form: deferred triggers are exactly the
        // non-forced ones, and a dropped trigger mutates nothing — so
        // dropping the whole batch when the guard holds is equivalent to
        // the per-event drops the sequential path performed.
        if self.free_threads.is_empty() || !self.any_schedulable_work() {
            self.pending_events.clear();
            return;
        }
        let mut events = std::mem::take(&mut self.pending_events);
        self.refresh_hot();
        let (batched, elapsed) = self.with_ctx(|ctx| {
            let t0 = Instant::now();
            let ds = scheduler.on_tick(ctx, &events);
            (ds, t0.elapsed().as_secs_f64())
        });
        match batched {
            Some(decisions) => {
                self.sched_wall += elapsed;
                self.invocations += 1;
                for d in &decisions {
                    if self.free_threads.is_empty() {
                        break;
                    }
                    self.apply_decision(d);
                }
            }
            None => {
                for ev in events.drain(..) {
                    self.invoke_now(scheduler, ev);
                }
            }
        }
        events.clear();
        self.pending_events = events;
    }

    fn invoke_now(&mut self, scheduler: &mut dyn Scheduler, event: SchedEvent) {
        // Paper guard: no decisions when no free threads or nothing to
        // do. Pool/worker-churn and cancellation events are always
        // delivered — the policy must observe capacity changes and
        // dropped queries even when it cannot act immediately.
        let force = matches!(
            event,
            SchedEvent::ThreadPoolResized(_)
                | SchedEvent::WorkerLost(_)
                | SchedEvent::WorkerJoined(_)
                | SchedEvent::QueryCancelled(_)
                | SchedEvent::DeadlineExceeded(_)
        );
        if !force && (self.free_threads.is_empty() || !self.any_schedulable_work()) {
            return;
        }
        self.refresh_hot();
        let (decisions, elapsed) = self.with_ctx(|ctx| {
            let t0 = Instant::now();
            let ds = scheduler.on_event(ctx, &event);
            (ds, t0.elapsed().as_secs_f64())
        });
        self.sched_wall += elapsed;
        self.invocations += 1;
        for d in &decisions {
            if self.free_threads.is_empty() {
                break;
            }
            self.apply_decision(d);
        }
    }

    /// Applies a worker-pool resize: growth adds fresh idle thread ids;
    /// shrink retires idle threads immediately and defers the rest until
    /// busy threads free up. Fires the paper's ThreadPoolResized
    /// scheduling event.
    fn handle_pool_resize(&mut self, scheduler: &mut dyn Scheduler, new_size: usize) {
        if new_size > self.pool_size {
            let grow = new_size - self.pool_size;
            for _ in 0..grow {
                self.free_threads.push(self.next_thread_id);
                self.next_thread_id += 1;
            }
            self.free_threads.sort_unstable();
        } else {
            let mut shrink = self.pool_size - new_size;
            // Retire idle threads first (highest ids first).
            while shrink > 0 {
                match self.free_threads.pop() {
                    Some(_) => shrink -= 1,
                    None => break,
                }
            }
            self.pending_retirements += shrink;
        }
        self.pool_size = new_size;
        self.invoke_forced(scheduler, SchedEvent::ThreadPoolResized(new_size));
    }

    /// Progress guard: schedule the first schedulable operator of the
    /// oldest query on one thread. Keeps badly behaved (e.g. untrained)
    /// policies from deadlocking an episode.
    fn force_fallback(&mut self) {
        if self.free_threads.is_empty() {
            return;
        }
        let candidate = self
            .queries
            .iter()
            .enumerate()
            .find_map(|(i, q)| q.schedulable_ops().first().map(|&op| (i, q.qid, op)));
        if let Some((_, qid, op)) = candidate {
            let d = SchedDecision { query: qid, root: op, pipeline_degree: 1, threads: 1 };
            if self.apply_decision(&d) {
                self.fallbacks += 1;
                self.decisions -= 1; // not a scheduler decision
            }
        }
    }
}

/// Convenience: simulate a workload under a scheduler with a config,
/// panicking on [`SimError`] (event cap, deadlock, invariant). Use
/// [`try_simulate`] where the caller wants to degrade gracefully.
pub fn simulate(
    cfg: SimConfig,
    workload: &[WorkloadItem],
    scheduler: &mut dyn Scheduler,
) -> SimResult {
    match Simulator::new(cfg).run(workload, scheduler) {
        Ok(res) => res,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Fallible variant of [`simulate`].
pub fn try_simulate(
    cfg: SimConfig,
    workload: &[WorkloadItem],
    scheduler: &mut dyn Scheduler,
) -> Result<SimResult, SimError> {
    Simulator::new(cfg).run(workload, scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};

    /// A scheduler that always schedules everything it can, FIFO order,
    /// full pipelines, all free threads to the first query.
    struct GreedyFifo;

    impl Scheduler for GreedyFifo {
        fn name(&self) -> String {
            "greedy_fifo_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    let deg = q.plan.longest_npb_chain(root);
                    out.push(SchedDecision {
                        query: q.qid,
                        root,
                        pipeline_degree: deg,
                        threads: free,
                    });
                    free = free.saturating_sub(1);
                }
            }
            out
        }
    }

    fn two_stage_plan(name: &str, wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new(name);
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, wos, 0.01, 1e4);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e3, wos, 0.008, 1e4);
        let agg = b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 5e3, wos, 0.012, 2e4);
        let fin = b.add_op(OpKind::FinalizeAggregate, OpSpec::Synthetic, vec![0], vec![1], 1.0, 1, 0.005, 1e3);
        b.connect(scan, sel, true);
        b.connect(sel, agg, true);
        b.connect(agg, fin, false);
        Arc::new(b.finish(fin))
    }

    fn small_workload(n: usize) -> Vec<WorkloadItem> {
        (0..n)
            .map(|i| WorkloadItem::new(i as f64 * 0.01, two_stage_plan(&format!("q{i}"), 6)))
            .collect()
    }

    #[test]
    fn all_queries_complete() {
        let wl = small_workload(5);
        let res = simulate(
            SimConfig { num_threads: 4, ..Default::default() },
            &wl,
            &mut GreedyFifo,
        );
        assert_eq!(res.outcomes.len(), 5);
        assert!(res.makespan > 0.0);
        // 5 queries * (6+6+6+1) work orders
        assert_eq!(res.total_work_orders, 5 * 19);
        assert!(res.fallback_decisions == 0, "greedy policy should never need the guard");
    }

    #[test]
    fn deterministic_given_seed() {
        let wl = small_workload(4);
        let cfg = SimConfig { num_threads: 4, seed: 42, ..Default::default() };
        let r1 = simulate(cfg.clone(), &wl, &mut GreedyFifo);
        let r2 = simulate(cfg, &wl, &mut GreedyFifo);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.avg_duration(), r2.avg_duration());
        assert_eq!(r1.sched_invocations, r2.sched_invocations);
    }

    #[test]
    fn lazy_scheduler_rescued_by_guard() {
        /// Never schedules anything voluntarily.
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn on_event(&mut self, _: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                Vec::new()
            }
        }
        let wl = small_workload(2);
        let res = simulate(SimConfig { num_threads: 2, ..Default::default() }, &wl, &mut Lazy);
        assert_eq!(res.outcomes.len(), 2);
        assert!(res.fallback_decisions > 0);
    }

    #[test]
    fn more_threads_not_slower() {
        let wl = small_workload(8);
        let r2 = simulate(
            SimConfig { num_threads: 2, seed: 7, ..Default::default() },
            &wl,
            &mut GreedyFifo,
        );
        let r16 = simulate(
            SimConfig { num_threads: 16, seed: 7, ..Default::default() },
            &wl,
            &mut GreedyFifo,
        );
        assert!(
            r16.makespan <= r2.makespan * 1.05,
            "16 threads ({}) should not be slower than 2 ({})",
            r16.makespan,
            r2.makespan
        );
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let wl = small_workload(6);
        let res = simulate(SimConfig { num_threads: 4, ..Default::default() }, &wl, &mut GreedyFifo);
        let cdf = res.cdf();
        assert_eq!(cdf.len(), 6);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!(res.quantile_duration(0.9) >= res.quantile_duration(0.1));
    }

    #[test]
    fn pipelined_run_beats_sequential() {
        /// Schedules each operator alone (degree 1), one at a time.
        struct Sequential;
        impl Scheduler for Sequential {
            fn name(&self) -> String {
                "sequential".into()
            }
            fn on_event(&mut self, ctx: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                let mut out = Vec::new();
                let mut free = ctx.free_threads;
                for q in ctx.queries {
                    for &root in q.schedulable_ops() {
                        if free == 0 {
                            return out;
                        }
                        out.push(SchedDecision {
                            query: q.qid,
                            root,
                            pipeline_degree: 1,
                            threads: 2,
                        });
                        free = free.saturating_sub(2);
                    }
                }
                out
            }
        }
        let wl = vec![WorkloadItem::new(0.0, two_stage_plan("solo", 24))];
        let cfg = SimConfig { num_threads: 4, seed: 3, ..Default::default() };
        let pipelined = simulate(cfg.clone(), &wl, &mut GreedyFifo);
        let sequential = simulate(cfg, &wl, &mut Sequential);
        assert!(
            pipelined.makespan < sequential.makespan,
            "pipelining ({}) should beat sequential ({})",
            pipelined.makespan,
            sequential.makespan
        );
    }

    #[test]
    fn memory_pressure_slows_execution() {
        let wl = small_workload(6);
        let tight = {
            let mut cfg = SimConfig { num_threads: 8, seed: 5, ..Default::default() };
            cfg.cost.memory_budget = 1.0; // everything thrashes
            simulate(cfg, &wl, &mut GreedyFifo)
        };
        let roomy = simulate(
            SimConfig { num_threads: 8, seed: 5, ..Default::default() },
            &wl,
            &mut GreedyFifo,
        );
        assert!(
            tight.makespan > roomy.makespan * 1.5,
            "thrashing ({}) should clearly exceed roomy ({})",
            tight.makespan,
            roomy.makespan
        );
    }
}

#[cfg(test)]
mod resize_tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};
    use crate::scheduler::Scheduler;

    struct Greedy {
        resize_events_seen: Vec<usize>,
    }
    impl Scheduler for Greedy {
        fn name(&self) -> String {
            "greedy_resize_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            if let SchedEvent::ThreadPoolResized(n) = ev {
                self.resize_events_seen.push(*n);
            }
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    out.push(SchedDecision {
                        query: q.qid,
                        root,
                        pipeline_degree: q.plan.longest_npb_chain(root),
                        threads: 1,
                    });
                    free -= 1;
                }
            }
            out
        }
    }

    fn chain(name: &str, wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new(name);
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, wos, 0.01, 1e5);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e4, wos, 0.008, 1e5);
        b.connect(scan, sel, true);
        Arc::new(b.finish(sel))
    }

    fn workload(n: usize) -> Vec<WorkloadItem> {
        (0..n)
            .map(|i| WorkloadItem::new(0.0, chain(&format!("q{i}"), 8)))
            .collect()
    }

    #[test]
    fn pool_growth_fires_event_and_speeds_up() {
        let wl = workload(6);
        let base = SimConfig { num_threads: 2, seed: 3, ..Default::default() };
        let slow = simulate(base.clone(), &wl, &mut Greedy { resize_events_seen: vec![] });

        let mut grown_cfg = base;
        grown_cfg.pool_resizes = vec![(0.01, 8)];
        let mut sched = Greedy { resize_events_seen: vec![] };
        let grown = simulate(grown_cfg, &wl, &mut sched);
        assert_eq!(sched.resize_events_seen, vec![8]);
        assert_eq!(grown.outcomes.len(), 6);
        assert!(
            grown.makespan < slow.makespan,
            "growing the pool ({}) should beat the static 2-thread run ({})",
            grown.makespan,
            slow.makespan
        );
    }

    #[test]
    fn pool_shrink_retires_threads_and_still_completes() {
        let wl = workload(6);
        let mut cfg = SimConfig { num_threads: 8, seed: 4, ..Default::default() };
        cfg.pool_resizes = vec![(0.02, 2)];
        let mut sched = Greedy { resize_events_seen: vec![] };
        let res = simulate(cfg, &wl, &mut sched);
        assert_eq!(res.outcomes.len(), 6, "all queries must survive a shrink");
        assert_eq!(sched.resize_events_seen, vec![2]);
    }

    #[test]
    fn shrink_then_grow_roundtrip() {
        let wl = workload(8);
        let mut cfg = SimConfig { num_threads: 4, seed: 5, ..Default::default() };
        cfg.pool_resizes = vec![(0.01, 1), (0.05, 6)];
        let mut sched = Greedy { resize_events_seen: vec![] };
        let res = simulate(cfg, &wl, &mut sched);
        assert_eq!(res.outcomes.len(), 8);
        assert_eq!(sched.resize_events_seen, vec![1, 6]);
    }

    #[test]
    fn event_cap_returns_error_instead_of_truncating() {
        let wl = workload(4);
        let cfg = SimConfig { num_threads: 2, max_events: 3, ..Default::default() };
        let err = try_simulate(cfg, &wl, &mut Greedy { resize_events_seen: vec![] })
            .expect_err("a 3-event cap cannot drain 4 queries");
        match err {
            SimError::EventCapExceeded { cap, unfinished_queries, .. } => {
                assert_eq!(cap, 3);
                assert!(unfinished_queries > 0);
            }
            other => panic!("expected EventCapExceeded, got {other}"),
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};
    use crate::scheduler::Scheduler;

    struct Greedy {
        worker_events: Vec<SchedEvent>,
    }
    impl Scheduler for Greedy {
        fn name(&self) -> String {
            "greedy_fault_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            if matches!(
                ev,
                SchedEvent::WorkerLost(_)
                    | SchedEvent::WorkerJoined(_)
                    | SchedEvent::QueryCancelled(_)
            ) {
                self.worker_events.push(*ev);
            }
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    out.push(SchedDecision {
                        query: q.qid,
                        root,
                        pipeline_degree: q.plan.longest_npb_chain(root),
                        threads: 1,
                    });
                    free -= 1;
                }
            }
            out
        }
    }

    fn greedy() -> Greedy {
        Greedy { worker_events: vec![] }
    }

    fn chain(name: &str, wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new(name);
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, wos, 0.01, 1e5);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e4, wos, 0.008, 1e5);
        b.connect(scan, sel, true);
        Arc::new(b.finish(sel))
    }

    fn workload(n: usize) -> Vec<WorkloadItem> {
        (0..n)
            .map(|i| WorkloadItem::new(i as f64 * 0.005, chain(&format!("q{i}"), 8)))
            .collect()
    }

    fn cfg_with(faults: FaultPlan, threads: usize, seed: u64) -> SimConfig {
        SimConfig { num_threads: threads, seed, faults: Some(faults), ..Default::default() }
    }

    /// Schedules every frontier op in its own degree-1 pipeline with one
    /// thread, visiting queries newest-first — the shape that lets a
    /// consumer pipeline outlive its producer pipeline.
    struct SplitChain;
    impl Scheduler for SplitChain {
        fn name(&self) -> String {
            "split_chain_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries.iter().rev() {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    out.push(SchedDecision { query: q.qid, root, pipeline_degree: 1, threads: 1 });
                    free -= 1;
                }
            }
            out
        }
    }

    #[test]
    fn lost_producer_pipeline_does_not_strand_stalled_consumer_threads() {
        // A's consumer (op1, pipelined off op0) is scheduled in its own
        // pipeline while op0 has zero completed work orders, so its
        // thread stalls. Worker loss then dooms op0's thread; when the
        // doomed completion surfaces, op0's pipeline dies — and the
        // stalled consumer thread has no completion event left that
        // could ever wake it. The progress guard must reclaim it
        // instead of reporting a structural deadlock.
        let a = {
            let mut b = PlanBuilder::new("strand");
            let scan =
                b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, 4, 0.05, 1e5);
            let sel =
                b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e4, 4, 0.01, 1e5);
            b.connect(scan, sel, true);
            Arc::new(b.finish(sel))
        };
        let tiny = {
            let mut b = PlanBuilder::new("tiny");
            let scan =
                b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, 1, 0.01, 1e4);
            Arc::new(b.finish(scan))
        };
        // `tiny` (higher qid) grabs thread 0 first, so A's producer runs
        // on thread 1 — the highest id, i.e. the worker-loss victim.
        let wl = vec![WorkloadItem::new(0.0, a), WorkloadItem::new(0.0, tiny)];
        let plan = FaultPlan { seed: 9, worker_loss: vec![(0.02, 1)], ..FaultPlan::default() };
        let mut cfg = cfg_with(plan, 2, 7);
        cfg.cost.noise_sigma = 0.0;
        let res = try_simulate(cfg, &wl, &mut SplitChain)
            .expect("stall rescue must recover the stranded consumer thread");
        assert_eq!(res.outcomes.len(), 2, "both queries complete after the rescue");
        assert!(res.aborted.is_empty());
        assert_eq!(res.resilience.stall_rescues, 1, "exactly one thread is reclaimed");
        assert_eq!(res.fault_summary.workers_lost, 1);
        assert_eq!(res.fault_summary.wo_lost_with_worker, 1);
    }

    #[test]
    fn worker_loss_and_rejoin_still_completes() {
        let plan = FaultPlan {
            seed: 1,
            worker_loss: vec![(0.01, 2), (0.03, 1)],
            worker_rejoin: vec![(0.08, 2)],
            ..FaultPlan::default()
        };
        let mut s = greedy();
        let res = simulate(cfg_with(plan, 4, 11), &workload(6), &mut s);
        assert_eq!(res.outcomes.len(), 6, "all queries must survive worker churn");
        assert_eq!(res.fault_summary.workers_lost, 3);
        assert_eq!(res.fault_summary.workers_joined, 2);
        assert_eq!(res.final_pool_size, 4 - 3 + 2, "pool = initial - lost + joined");
        let lost = s
            .worker_events
            .iter()
            .filter(|e| matches!(e, SchedEvent::WorkerLost(_)))
            .count();
        let joined = s
            .worker_events
            .iter()
            .filter(|e| matches!(e, SchedEvent::WorkerJoined(_)))
            .count();
        assert_eq!((lost, joined), (3, 2), "scheduler must observe every churn event");
    }

    #[test]
    fn worker_loss_never_drains_pool_below_one() {
        let plan = FaultPlan {
            seed: 2,
            worker_loss: vec![(0.005, 10)], // far more than the pool holds
            ..FaultPlan::default()
        };
        let res = simulate(cfg_with(plan, 3, 5), &workload(5), &mut greedy());
        assert_eq!(res.outcomes.len(), 5, "a one-worker pool still drains the workload");
        assert!(res.fault_summary.workers_lost <= 2, "pool of 3 can lose at most 2 workers");
    }

    #[test]
    fn cancellation_aborts_midflight_query() {
        let plan = FaultPlan {
            seed: 3,
            cancellations: vec![(0.02, 0), (0.02, 4)],
            ..FaultPlan::default()
        };
        let mut s = greedy();
        let res = simulate(cfg_with(plan, 2, 7), &workload(6), &mut s);
        assert_eq!(res.fault_summary.queries_cancelled, 2);
        assert_eq!(res.aborted.len(), 2);
        assert_eq!(res.outcomes.len(), 4, "the other four queries complete");
        assert!(s
            .worker_events
            .iter()
            .any(|e| matches!(e, SchedEvent::QueryCancelled(_))));
        // Conservation: every query is accounted for exactly once.
        let mut ids: Vec<u64> = res
            .outcomes
            .iter()
            .chain(res.aborted.iter())
            .map(|o| o.qid.0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn transient_failures_retry_to_completion() {
        let plan = FaultPlan {
            seed: 4,
            wo_failure_prob: 0.2,
            max_retries: 20, // effectively never permanent
            ..FaultPlan::default()
        };
        let clean = simulate(
            SimConfig { num_threads: 4, seed: 9, ..Default::default() },
            &workload(6),
            &mut greedy(),
        );
        let faulty = simulate(cfg_with(plan, 4, 9), &workload(6), &mut greedy());
        assert_eq!(faulty.outcomes.len(), 6);
        assert!(faulty.fault_summary.wo_retries > 0, "20% failure rate must retry");
        assert_eq!(faulty.fault_summary.wo_permanent_failures, 0);
        assert!(
            faulty.makespan >= clean.makespan,
            "retries cannot make the run faster ({} vs {})",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn exhausted_retries_abort_the_query() {
        let plan = FaultPlan {
            seed: 5,
            wo_failure_prob: 1.0, // every attempt fails
            max_retries: 2,
            ..FaultPlan::default()
        };
        let res = simulate(cfg_with(plan, 2, 3), &workload(3), &mut greedy());
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.aborted.len(), 3, "every query aborts on permanent failure");
        assert_eq!(res.fault_summary.queries_failed, 3);
        assert!(res.fault_summary.wo_permanent_failures >= 3);
    }

    #[test]
    fn faults_preserve_bitwise_determinism() {
        let wl = workload(8);
        let plan = FaultPlan::standard_matrix(21, 4, 8, 1.0);
        let r1 = simulate(cfg_with(plan.clone(), 4, 13), &wl, &mut greedy());
        let r2 = simulate(cfg_with(plan, 4, 13), &wl, &mut greedy());
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        assert_eq!(r1.fault_summary, r2.fault_summary);
        assert_eq!(r1.outcomes.len(), r2.outcomes.len());
        for (a, b) in r1.outcomes.iter().zip(&r2.outcomes) {
            assert_eq!(a.qid, b.qid);
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
        for (a, b) in r1.aborted.iter().zip(&r2.aborted) {
            assert_eq!(a.qid, b.qid);
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
    }

    #[test]
    fn standard_matrix_conserves_queries() {
        for seed in 0..4u64 {
            let wl = workload(10);
            let plan = FaultPlan::standard_matrix(seed, 4, 10, 1.0);
            let res = simulate(cfg_with(plan, 4, seed), &wl, &mut greedy());
            assert_eq!(
                res.outcomes.len() + res.aborted.len(),
                10,
                "seed {seed}: completed + aborted must cover the workload"
            );
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};
    use crate::scheduler::{AdmissionResponse, AdmitAction, Scheduler};

    /// Greedy FIFO, one thread per decision (same shape as the fault
    /// tests' policy).
    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> String {
            "greedy_resilience_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    out.push(SchedDecision {
                        query: q.qid,
                        root,
                        pipeline_degree: q.plan.longest_npb_chain(root),
                        threads: 1,
                    });
                    free -= 1;
                }
            }
            out
        }
    }

    fn chain(name: &str, wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new(name);
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, wos, 0.01, 1e5);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e4, wos, 0.008, 1e5);
        b.connect(scan, sel, true);
        Arc::new(b.finish(sel))
    }

    fn quiet_cfg(threads: usize) -> SimConfig {
        let mut cfg = SimConfig { num_threads: threads, seed: 5, ..Default::default() };
        cfg.cost.noise_sigma = 0.0;
        cfg
    }

    #[test]
    fn deadline_miss_aborts_without_retry_budget() {
        // q0 hogs the single thread; q1's budget expires while queued.
        let wl = vec![
            WorkloadItem::new(0.0, chain("long", 8)),
            WorkloadItem::new(0.001, chain("tight", 1)).with_deadline(0.01),
        ];
        let res = simulate(quiet_cfg(1), &wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 1, "the unconstrained query completes");
        assert_eq!(res.aborted.len(), 1, "the overdue query is torn down");
        assert_eq!(res.resilience.deadline_timeouts, 1);
        assert_eq!(res.resilience.deadline_retries, 0);
        // Timeouts are SLO accounting, not fault accounting.
        assert_eq!(res.fault_summary.queries_cancelled, 0);
        assert_eq!(res.fault_summary.queries_failed, 0);
    }

    #[test]
    fn deadline_retry_completes_once_contention_clears() {
        // q1 cannot meet its budget while q0 holds the only thread, but
        // the retry budget re-submits it with capped backoff until an
        // attempt lands on an idle pool and finishes well within budget.
        let wl = vec![
            WorkloadItem::new(0.0, chain("long", 8)),
            WorkloadItem::new(0.001, chain("slo", 1)).with_deadline(0.06),
        ];
        let mut cfg = quiet_cfg(1);
        cfg.retry = RetryPolicy { max_retries: 20, ..RetryPolicy::default() };
        let res = simulate(cfg, &wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 2, "the SLO query eventually completes");
        assert!(res.aborted.is_empty(), "retried attempts must not land in aborted");
        assert!(res.resilience.deadline_retries >= 1, "at least one retry was needed");
        assert_eq!(
            res.resilience.deadline_timeouts,
            res.resilience.deadline_retries,
            "every miss was retried (the budget was never exhausted)"
        );
        let slo = res.outcomes.iter().find(|o| o.name == "slo").expect("slo outcome");
        assert!(
            (slo.arrival - 0.001).abs() < 1e-12,
            "latency is charged from the original arrival, not the retry"
        );
    }

    #[test]
    fn exhausted_retry_budget_records_one_final_abort() {
        // An impossible deadline: every attempt times out; with a budget
        // of 2 retries there are 3 attempts and exactly one aborted
        // record (the final fate).
        let wl = vec![WorkloadItem::new(0.0, chain("doomed", 8)).with_deadline(0.005)];
        let mut cfg = quiet_cfg(2);
        cfg.retry = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
        let res = simulate(cfg, &wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.aborted.len(), 1, "only the final attempt is recorded");
        assert_eq!(res.resilience.deadline_timeouts, 3);
        assert_eq!(res.resilience.deadline_retries, 2);
    }

    /// Wraps [`Greedy`] with a queue-depth admission limit.
    struct GatedGreedy {
        max_queued: usize,
    }
    impl Scheduler for GatedGreedy {
        fn name(&self) -> String {
            "gated_greedy_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            Greedy.on_event(ctx, ev)
        }
        fn admit(
            &mut self,
            ctx: &SchedContext<'_>,
            _arriving: QueryId,
            _attempt: u32,
        ) -> AdmissionResponse {
            if ctx.queries.len() > self.max_queued {
                AdmissionResponse { action: AdmitAction::Reject, shed: Vec::new() }
            } else {
                AdmissionResponse::admit()
            }
        }
    }

    #[test]
    fn rejecting_gate_sheds_excess_arrivals_deterministically() {
        let wl: Vec<WorkloadItem> =
            (0..8).map(|i| WorkloadItem::new(i as f64 * 1e-4, chain(&format!("q{i}"), 8))).collect();
        let run = || simulate(quiet_cfg(1), &wl, &mut GatedGreedy { max_queued: 2 });
        let r1 = run();
        let r2 = run();
        assert!(r1.resilience.shed > 0, "a burst at queue depth 2 must shed");
        assert_eq!(
            r1.outcomes.len() + r1.aborted.len(),
            8,
            "completed + shed partitions the workload"
        );
        assert_eq!(r1.resilience.shed as usize, r1.aborted.len());
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits(), "gating stays deterministic");
        assert_eq!(r1.resilience, r2.resilience);
    }

    /// Defers every arrival forever — exercises the runaway-deferral cap.
    struct AlwaysDefer;
    impl Scheduler for AlwaysDefer {
        fn name(&self) -> String {
            "always_defer_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            Greedy.on_event(ctx, ev)
        }
        fn admit(
            &mut self,
            _ctx: &SchedContext<'_>,
            _arriving: QueryId,
            _attempt: u32,
        ) -> AdmissionResponse {
            AdmissionResponse { action: AdmitAction::Defer { delay: 0.001 }, shed: Vec::new() }
        }
    }

    #[test]
    fn runaway_deferral_is_capped_not_infinite() {
        let wl = vec![WorkloadItem::new(0.0, chain("deferred", 2))];
        let res = simulate(quiet_cfg(1), &wl, &mut AlwaysDefer);
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.aborted.len(), 1, "the deferral cap converts to a shed");
        assert_eq!(res.resilience.deferred, u64::from(MAX_DEFERS));
        assert_eq!(res.resilience.shed, 1);
        assert_eq!(res.resilience.max_defer_attempts, MAX_DEFERS);
        assert_eq!(
            res.resilience.max_queue_wait, 0.0,
            "a never-granted query contributes no queue wait"
        );
    }

    /// Defers the first `times` arrival attempts, then admits.
    struct DeferTimes {
        times: u32,
        delay: f64,
    }
    impl Scheduler for DeferTimes {
        fn name(&self) -> String {
            "defer_times_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            Greedy.on_event(ctx, ev)
        }
        fn admit(
            &mut self,
            _ctx: &SchedContext<'_>,
            _arriving: QueryId,
            attempt: u32,
        ) -> AdmissionResponse {
            if attempt < self.times {
                AdmissionResponse { action: AdmitAction::Defer { delay: self.delay }, shed: Vec::new() }
            } else {
                AdmissionResponse::admit()
            }
        }
    }

    #[test]
    fn deferred_query_keeps_original_arrival_deadline() {
        // Regression: a Defer'd query's SLO clock is anchored at its
        // *original* arrival. Three 10ms deferrals push admission to
        // t=0.03, past the 15ms budget — the query must record a
        // DeadlineExceeded, not silently restart its SLO timer.
        let wl = vec![WorkloadItem::new(0.0, chain("slo", 2)).with_deadline(0.015)];
        let res = simulate(quiet_cfg(2), &wl, &mut DeferTimes { times: 3, delay: 0.01 });
        assert_eq!(res.outcomes.len(), 0, "the budget expired while deferred");
        assert_eq!(res.aborted.len(), 1);
        assert_eq!(res.resilience.deadline_timeouts, 1, "deferral must not mask the SLO miss");
        assert_eq!(res.resilience.deferred, 3);
        assert_eq!(res.resilience.max_defer_attempts, 3);
    }

    #[test]
    fn deadline_retry_gets_a_fresh_budget_after_timeout() {
        // The companion invariant: a *timeout retry* (unlike a deferral)
        // re-arms the SLO clock from the retry's submission, so a query
        // that times out under contention can still complete once the
        // pool clears.
        let wl = vec![
            WorkloadItem::new(0.0, chain("long", 8)),
            WorkloadItem::new(0.001, chain("slo", 1)).with_deadline(0.02),
        ];
        let mut cfg = quiet_cfg(1);
        cfg.retry = RetryPolicy { max_retries: 20, ..RetryPolicy::default() };
        let res = simulate(cfg, &wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 2, "the retried attempt's fresh budget suffices");
        assert!(res.resilience.deadline_retries >= 1);
    }

    #[test]
    fn starvation_metrics_record_wait_and_defer_counts() {
        // One short query deferred twice (2ms each): max_defer_attempts
        // tracks the per-query defer count and max_queue_wait spans from
        // the original arrival to the first thread grant.
        let wl = vec![WorkloadItem::new(0.0, chain("waiter", 2))];
        let res = simulate(quiet_cfg(1), &wl, &mut DeferTimes { times: 2, delay: 0.002 });
        assert_eq!(res.outcomes.len(), 1);
        assert_eq!(res.resilience.deferred, 2);
        assert_eq!(res.resilience.max_defer_attempts, 2);
        assert!(
            res.resilience.max_queue_wait >= 0.004,
            "queue wait {} must cover both deferral delays",
            res.resilience.max_queue_wait
        );
    }

    #[test]
    fn deadlines_off_are_bit_identical_to_pre_slo_runs() {
        // A workload with no deadlines, no priorities and the default
        // admit-everything gate must produce byte-identical results to
        // the same run — and consume zero extra RNG draws (checked
        // implicitly: any draw would shift every sampled duration).
        let wl: Vec<WorkloadItem> =
            (0..6).map(|i| WorkloadItem::new(i as f64 * 0.004, chain(&format!("q{i}"), 6))).collect();
        let cfg = SimConfig { num_threads: 3, seed: 77, ..Default::default() };
        let r1 = simulate(cfg.clone(), &wl, &mut Greedy);
        let r2 = simulate(cfg, &wl, &mut Greedy);
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        for (a, b) in r1.outcomes.iter().zip(&r2.outcomes) {
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
        // max_queue_wait is pure observation (recorded even without
        // SLOs); every *event* counter must stay zero.
        let expect =
            ResilienceSummary { max_queue_wait: r1.resilience.max_queue_wait, ..Default::default() };
        assert_eq!(r1.resilience, expect);
        assert_eq!(r1.resilience.max_queue_wait.to_bits(), r2.resilience.max_queue_wait.to_bits());
    }

    #[test]
    fn latency_merge_matches_pooled_samples_oracle() {
        // merge() must equal the oracle: pool the raw samples, sort
        // once. Percentiles are read off both and compared bit-exactly,
        // across empty/uneven/duplicated sample sets.
        let cases: &[(&[f64], &[f64])] = &[
            (&[], &[]),
            (&[1.0], &[]),
            (&[], &[2.0, 0.5]),
            (&[3.0, 1.0, 2.0], &[2.5, 0.1]),
            (&[1.0, 1.0, 1.0], &[1.0, 1.0]),
            (&[0.9, 5.5, 2.2, 7.1, 0.3], &[4.4, 0.2, 9.9, 1.1, 3.3, 6.6, 0.05]),
        ];
        for (a, b) in cases {
            let mut merged = LatencyStats::from_samples(a.to_vec());
            merged.merge(&LatencyStats::from_samples(b.to_vec()));
            let pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            let oracle = LatencyStats::from_samples(pooled);
            assert_eq!(merged.len(), oracle.len());
            assert_eq!(merged.samples(), oracle.samples());
            for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(merged.quantile(p).to_bits(), oracle.quantile(p).to_bits());
            }
            assert_eq!(merged.mean().to_bits(), oracle.mean().to_bits());
        }
    }

    #[test]
    fn latency_merge_is_order_independent() {
        let a = LatencyStats::from_samples(vec![5.0, 1.0, 3.0]);
        let b = LatencyStats::from_samples(vec![2.0, 4.0]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.samples(), ba.samples());
    }

    #[test]
    fn summary_merges_add_counters_and_max_starvation() {
        let mut r = ResilienceSummary {
            shed: 1,
            deferred: 4,
            deadline_timeouts: 2,
            deadline_retries: 1,
            max_defer_attempts: 3,
            max_queue_wait: 0.5,
            stall_rescues: 0,
        };
        let other = ResilienceSummary {
            shed: 2,
            deferred: 1,
            deadline_timeouts: 0,
            deadline_retries: 2,
            max_defer_attempts: 7,
            max_queue_wait: 0.25,
            stall_rescues: 1,
        };
        r.merge(&other);
        assert_eq!(r.shed, 3);
        assert_eq!(r.deferred, 5);
        assert_eq!(r.deadline_timeouts, 2);
        assert_eq!(r.deadline_retries, 3);
        assert_eq!(r.max_defer_attempts, 7);
        assert_eq!(r.max_queue_wait, 0.5);
        assert_eq!(r.stall_rescues, 1);

        let mut f = crate::fault::FaultSummary { workers_lost: 1, wo_retries: 2, ..Default::default() };
        let g = crate::fault::FaultSummary {
            workers_lost: 2,
            workers_joined: 1,
            wo_retries: 1,
            queries_failed: 3,
            ..Default::default()
        };
        f.merge(&g);
        assert_eq!(f.workers_lost, 3);
        assert_eq!(f.workers_joined, 1);
        assert_eq!(f.wo_retries, 3);
        assert_eq!(f.queries_failed, 3);
    }

    #[test]
    fn bit_eq_detects_identity_and_divergence() {
        let wl: Vec<WorkloadItem> =
            (0..5).map(|i| WorkloadItem::new(i as f64 * 0.003, chain(&format!("q{i}"), 5))).collect();
        let cfg = SimConfig { num_threads: 3, seed: 11, ..Default::default() };
        let r1 = simulate(cfg.clone(), &wl, &mut Greedy);
        let r2 = simulate(cfg.clone(), &wl, &mut Greedy);
        assert!(r1.bit_eq(&r2));
        let r3 = simulate(SimConfig { seed: 12, ..cfg }, &wl, &mut Greedy);
        assert!(!r1.bit_eq(&r3));
        let mut tweaked = r2.clone();
        tweaked.events_processed += 1;
        assert!(!r1.bit_eq(&tweaked));
        // Wall-clock time is explicitly excluded from the predicate.
        let mut walled = r2.clone();
        walled.sched_wall_time += 123.0;
        assert!(r1.bit_eq(&walled));
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::plan::{OpKind, OpSpec, PlanBuilder};

    /// Greedy FIFO, one thread per decision (same shape as the fault
    /// tests' policy).
    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> String {
            "greedy_crash_test".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for q in ctx.queries {
                for &root in q.schedulable_ops() {
                    if free == 0 {
                        return out;
                    }
                    out.push(SchedDecision {
                        query: q.qid,
                        root,
                        pipeline_degree: q.plan.longest_npb_chain(root),
                        threads: 1,
                    });
                    free -= 1;
                }
            }
            out
        }
    }

    fn chain(name: &str, wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new(name);
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, wos, 0.01, 1e5);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 5e4, wos, 0.008, 1e5);
        b.connect(scan, sel, true);
        Arc::new(b.finish(sel))
    }

    fn workload(n: usize) -> Vec<WorkloadItem> {
        (0..n).map(|i| WorkloadItem::new(i as f64 * 0.01, chain(&format!("q{i}"), 6))).collect()
    }

    fn crash_cfg(threads: usize, at: Option<f64>) -> SimConfig {
        SimConfig {
            num_threads: threads,
            seed: 17,
            faults: at.map(|t| FaultPlan { crash_at: Some(t), ..FaultPlan::default() }),
            ..Default::default()
        }
    }

    #[test]
    fn crash_truncates_to_the_pre_crash_prefix() {
        let wl = workload(8);
        let full = simulate(crash_cfg(2, None), &wl, &mut Greedy);
        assert!(full.crashed_at.is_none());
        assert!(full.unfinished.is_empty(), "a drained run leaves nothing unfinished");
        let t = full.makespan * 0.5;
        let crashed = simulate(crash_cfg(2, Some(t)), &wl, &mut Greedy);
        assert_eq!(crashed.crashed_at.map(f64::to_bits), Some(t.to_bits()));
        assert!(!crashed.unfinished.is_empty(), "a mid-run crash must orphan something");
        assert!(crashed.makespan.to_bits() == t.to_bits() || crashed.makespan > t);

        // The durable log is exactly the crash-free outcomes that
        // finished strictly before the crash, in the same order with the
        // same bits: the crash consumes no RNG.
        let prefix: Vec<&QueryOutcome> = full.outcomes.iter().filter(|o| o.finish < t).collect();
        assert_eq!(crashed.outcomes.len(), prefix.len());
        for (c, f) in crashed.outcomes.iter().zip(&prefix) {
            assert_eq!(c.qid, f.qid);
            assert_eq!(c.finish.to_bits(), f.finish.to_bits());
            assert_eq!(c.duration.to_bits(), f.duration.to_bits());
        }

        // Finalized (completed + aborted) and unfinished partition the
        // workload exactly.
        let mut fates: Vec<usize> = crashed
            .outcomes
            .iter()
            .chain(&crashed.aborted)
            .map(|o| o.qid.0 as usize)
            .chain(crashed.unfinished.iter().copied())
            .collect();
        fates.sort_unstable();
        assert_eq!(fates, (0..wl.len()).collect::<Vec<_>>());

        // Crash-truncated runs repeat bit-identically.
        let again = simulate(crash_cfg(2, Some(t)), &wl, &mut Greedy);
        assert!(crashed.bit_eq(&again));
    }

    #[test]
    fn crash_at_zero_orphans_the_whole_workload() {
        let wl = workload(4);
        let res = simulate(crash_cfg(2, Some(0.0)), &wl, &mut Greedy);
        assert!(res.outcomes.is_empty());
        assert!(res.aborted.is_empty());
        assert_eq!(res.unfinished, vec![0, 1, 2, 3]);
        assert_eq!(res.makespan.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn submitted_at_anchors_latency_and_deferred_deadlines() {
        // A failover replay: the query originally arrived at 0.0, the
        // survivor first sees it at 0.05. Latency must cover the
        // pre-crash wait.
        let wl = vec![WorkloadItem::new(0.05, chain("replayed", 2)).with_submitted_at(0.0)];
        let res = simulate(crash_cfg(2, None), &wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 1);
        let o = &res.outcomes[0];
        assert_eq!(o.arrival.to_bits(), 0.0f64.to_bits(), "latency charged from submission");
        assert_eq!(o.duration.to_bits(), o.finish.to_bits(), "duration = finish - 0.0");
        assert!(o.duration > 0.05, "the pre-crash wait is part of the latency");

        // A deadline that already expired before the replay arrival
        // fires immediately: the crash does not extend the SLO.
        let doomed = vec![
            WorkloadItem::new(0.05, chain("expired", 2)).with_submitted_at(0.0).with_deadline(0.04),
        ];
        let res = simulate(crash_cfg(2, None), &doomed, &mut Greedy);
        assert!(res.outcomes.is_empty(), "an already-expired budget cannot complete");
        assert_eq!(res.aborted.len(), 1);
        assert_eq!(res.resilience.deadline_timeouts, 1);
    }
}
