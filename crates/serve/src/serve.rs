//! The serving layer's vocabulary: the N-shard configuration, the
//! per-shard and merged results of a served run, its errors, and the
//! hooks through which shard schedulers report admission and breaker
//! counters. [`crate::supervisor::serve_supervised`] is the run loop
//! that produces a [`ServeResult`].
//!
//! Determinism: the router consumes no RNG ([`crate::router`]), each
//! shard's simulator seed is a pure function of the base seed and the
//! shard index ([`shard_sim_config`]), and the rayon shim collects
//! shard results in input order — so a served run is bit-reproducible
//! end to end, and a 1-shard served run is bit-identical to the
//! unsharded simulator (shard 0 keeps the base seed and the untouched
//! workload).

use crate::router::{RouterConfig, RouterStats};
use crate::supervisor::{FailoverSummary, ShardHealth};
use lsched_engine::fault::FaultSummary;
use lsched_engine::sim::{LatencyStats, ResilienceSummary, SimConfig, SimResult};
use lsched_engine::Scheduler;
use lsched_sched::{AdmissionStats, BreakerState, GuardStats, GuardedScheduler};

/// Per-shard seed stride: shard `i` simulates with seed
/// `base + i × SHARD_SEED_STRIDE` (wrapping). Shard 0 keeps the base
/// seed, which is what makes the 1-shard serve bit-identical to the
/// unsharded path; the large odd stride decorrelates sibling shards'
/// duration-noise streams.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Serving-layer configuration: the routing control plane plus the
/// per-shard simulator template. `sim.seed` is the base seed;
/// `sim.num_threads` is the per-shard pool size (it should match
/// `router.threads_per_shard`, which [`ServeConfig::new`] guarantees).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Router tuning (shard count, hysteresis thresholds, stickiness).
    pub router: RouterConfig,
    /// Per-shard simulator template. A configured fault plan is re-seeded
    /// per shard with the same stride as the duration stream.
    pub sim: SimConfig,
}

impl ServeConfig {
    /// A serving config for `shards` shards built around a simulator
    /// template, with the router's thread estimate kept in sync.
    pub fn new(shards: usize, sim: SimConfig) -> Self {
        Self { router: RouterConfig::new(shards, sim.num_threads), sim }
    }
}

/// One shard's slice of a served run.
#[derive(Debug)]
pub struct ShardRun {
    /// Shard index.
    pub shard: usize,
    /// Failover epoch this run belongs to: 0 is the initial routed run,
    /// `k ≥ 1` the `k`-th replay round of orphaned queries. A run with
    /// no shard crash only ever produces epoch 0.
    pub epoch: u32,
    /// Original workload index of each shard-local query (aligned with
    /// the shard's arrival order, so local `qid` → global index).
    pub assigned: Vec<usize>,
    /// The shard's simulation result. A crash-truncated run has
    /// `result.crashed_at` set and its orphans in `result.unfinished`.
    pub result: SimResult,
    /// Admission counters harvested from the shard's scheduler, when it
    /// exposes them (see [`AdmissionReport`]).
    pub admission: Option<AdmissionStats>,
    /// Circuit-breaker counters harvested from the shard's scheduler,
    /// when it exposes them (see [`HealthReport`]).
    pub guard: Option<GuardStats>,
}

impl ShardRun {
    /// Global workload indices this run gave a final fate (completed or
    /// terminally aborted): its assignment minus the crash orphans.
    pub fn finalized(&self) -> Vec<usize> {
        if self.result.unfinished.is_empty() {
            return self.assigned.clone();
        }
        let mut orphaned = vec![false; self.assigned.len()];
        for &li in &self.result.unfinished {
            if li < orphaned.len() {
                orphaned[li] = true;
            }
        }
        self.assigned
            .iter()
            .enumerate()
            .filter(|&(li, _)| !orphaned[li])
            .map(|(_, &g)| g)
            .collect()
    }
}

/// Aggregate of a served run: per-shard slices plus cross-shard merges.
#[derive(Debug)]
pub struct ServeResult {
    /// Per-shard runs, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// Router counters.
    pub router: RouterStats,
    /// Serving makespan: the slowest shard's makespan (shards run
    /// concurrently on independent pools).
    pub makespan: f64,
    /// Total simulator events across shards — the numerator of the
    /// aggregate events/sec scaling metric.
    pub events_processed: u64,
    /// Completed queries across shards.
    pub completed: u64,
    /// Aborted queries across shards.
    pub aborted: u64,
    /// Latency statistics over the pooled per-shard samples (merged via
    /// [`LatencyStats::merge`], never averaged percentiles).
    pub latency: LatencyStats,
    /// Summed/maxed overload counters.
    pub resilience: ResilienceSummary,
    /// Summed fault counters.
    pub faults: FaultSummary,
    /// Summed admission counters (zero when no shard exposes a gate).
    pub admission: AdmissionStats,
    /// Summed circuit-breaker counters (zero when no shard exposes a
    /// guard — see [`HealthReport`]).
    pub guard: GuardStats,
    /// Crash/restart/failover accounting (all zero for a fault-free
    /// run).
    pub failover: FailoverSummary,
    /// Final supervisor verdict per shard.
    pub health: Vec<ShardHealth>,
    /// Global indices of queries orphaned with no eligible survivor
    /// left (or past the epoch cap) — still part of the exact
    /// partition, explicitly accounted instead of silently dropped.
    /// Sorted ascending; empty when no shard crashed.
    pub abandoned: Vec<usize>,
}

/// Why a served run could not produce a result.
#[derive(Debug)]
pub enum ServeError {
    /// `router.threads_per_shard` disagrees with `sim.num_threads`: the
    /// router's backlog model would silently diverge from the pools it
    /// models. [`ServeConfig::new`] keeps them in sync; hand-built
    /// configs are validated instead of trusted.
    ConfigMismatch {
        /// The router's per-shard thread estimate.
        router_threads: usize,
        /// The simulator template's pool size.
        sim_threads: usize,
    },
    /// The worker-per-shard pool could not be built.
    PoolBuild {
        /// The pool builder's error description.
        reason: String,
    },
    /// Exactly-once accounting failed: a query's fate count across
    /// survivor outcomes, replays and abandonment is not exactly one.
    /// This is a supervisor invariant violation, surfaced as an error
    /// instead of a silently wrong merge.
    PartitionViolation {
        /// The global workload index at fault.
        query: usize,
        /// How many final fates it received.
        count: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ConfigMismatch { router_threads, sim_threads } => write!(
                f,
                "router models {router_threads} threads/shard but the simulator template runs \
                 {sim_threads}: backlog estimates would silently diverge"
            ),
            ServeError::PoolBuild { reason } => {
                write!(f, "shard worker pool could not be built: {reason}")
            }
            ServeError::PartitionViolation { query, count } => write!(
                f,
                "query {query} received {count} final fates across shards (exactly 1 required)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Harvesting hook for cross-shard admission aggregation: schedulers
/// that track admission counters expose them here; everything else
/// reports `None` (the default).
pub trait AdmissionReport {
    /// Admission counters accumulated so far, if any.
    fn admission_report(&self) -> Option<AdmissionStats> {
        None
    }
}

impl<S: Scheduler, F: Scheduler> AdmissionReport for GuardedScheduler<S, F> {
    fn admission_report(&self) -> Option<AdmissionStats> {
        self.admission_stats()
    }
}

impl AdmissionReport for Box<dyn Scheduler> {}
impl AdmissionReport for lsched_sched::FifoScheduler {}
impl AdmissionReport for lsched_sched::FairScheduler {}
impl AdmissionReport for lsched_sched::SjfScheduler {}
impl AdmissionReport for lsched_sched::HpfScheduler {}
impl AdmissionReport for lsched_sched::CriticalPathScheduler {}
impl AdmissionReport for lsched_sched::QuickstepScheduler {}
impl AdmissionReport for lsched_sched::SelfTuneScheduler {}

/// Health hook for the shard supervisor's heartbeat: guarded schedulers
/// expose their breaker counters and whether they ended the run off the
/// primary policy; everything else reports healthy (the defaults).
pub trait HealthReport {
    /// Circuit-breaker counters accumulated so far, if any.
    fn guard_report(&self) -> Option<GuardStats> {
        None
    }

    /// True when the scheduler finished the run with its breaker open
    /// (serving from the fallback) — the supervisor marks the shard
    /// Degraded even though the run itself completed.
    fn ended_degraded(&self) -> bool {
        false
    }
}

impl<S: Scheduler, F: Scheduler> HealthReport for GuardedScheduler<S, F> {
    fn guard_report(&self) -> Option<GuardStats> {
        Some(self.stats())
    }

    fn ended_degraded(&self) -> bool {
        !matches!(self.state(), BreakerState::Primary)
    }
}

impl HealthReport for Box<dyn Scheduler> {}
impl HealthReport for lsched_sched::FifoScheduler {}
impl HealthReport for lsched_sched::FairScheduler {}
impl HealthReport for lsched_sched::SjfScheduler {}
impl HealthReport for lsched_sched::HpfScheduler {}
impl HealthReport for lsched_sched::CriticalPathScheduler {}
impl HealthReport for lsched_sched::QuickstepScheduler {}
impl HealthReport for lsched_sched::SelfTuneScheduler {}

/// The per-shard simulator config: base template with the seed (and the
/// fault plan's seed, when present) shifted by the shard stride. Shard 0
/// is the untouched template.
pub fn shard_sim_config(template: &SimConfig, shard: usize) -> SimConfig {
    let mut cfg = template.clone();
    let delta = SHARD_SEED_STRIDE.wrapping_mul(shard as u64);
    cfg.seed = cfg.seed.wrapping_add(delta);
    if let Some(plan) = cfg.faults.as_mut() {
        plan.seed = plan.seed.wrapping_add(delta);
    }
    cfg
}
