//! The N-shard serving data plane: route a tenant workload across
//! independent simulator shards, run every shard on its own worker
//! thread, and merge the per-shard results into one [`ServeResult`]
//! with statistically honest aggregates (latency percentiles from the
//! pooled raw samples, counter sums, starvation maxima).
//!
//! Determinism: the router consumes no RNG ([`crate::router`]), each
//! shard's simulator seed is a pure function of the base seed and the
//! shard index, and the rayon shim collects shard results in input
//! order — so a served run is bit-reproducible end to end, and a
//! 1-shard served run is bit-identical to the unsharded simulator
//! (shard 0 keeps the base seed and the untouched workload).

use crate::router::{route_workload, RouterConfig, RouterStats, TenantQuery};
use crate::supervisor::{FailoverSummary, ShardHealth};
use lsched_engine::fault::FaultSummary;
use lsched_engine::sim::{
    try_simulate, LatencyStats, ResilienceSummary, SimConfig, SimError, SimResult,
};
use lsched_engine::Scheduler;
use lsched_sched::{AdmissionStats, BreakerState, GuardStats, GuardedScheduler};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

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
    /// `k ≥ 1` the `k`-th replay round of orphaned queries. Plain
    /// (unsupervised) serving only ever produces epoch 0.
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
    /// Crash/restart/failover accounting (all zero for unsupervised or
    /// fault-free runs).
    pub failover: FailoverSummary,
    /// Final supervisor verdict per shard (all `Healthy` for
    /// unsupervised runs).
    pub health: Vec<ShardHealth>,
    /// Global indices of queries orphaned with no eligible survivor
    /// left (or past the epoch cap) — still part of the exact
    /// partition, explicitly accounted instead of silently dropped.
    /// Sorted ascending; always empty for unsupervised runs.
    pub abandoned: Vec<usize>,
}

/// Why a served run could not produce a result.
#[derive(Debug)]
pub enum ServeError {
    /// A shard's simulator failed structurally (event cap, deadlock,
    /// invariant violation).
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying simulator error.
        error: SimError,
    },
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
            ServeError::Shard { shard, error } => write!(f, "shard {shard} failed: {error}"),
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

/// Routes `queries` across the configured shards and simulates every
/// shard on its own worker thread (`make_sched(shard)` builds each
/// shard's scheduler). Returns the merged [`ServeResult`] or the first
/// (lowest-shard) failure.
pub fn serve_workload<S, F>(
    cfg: &ServeConfig,
    queries: &[TenantQuery],
    make_sched: F,
) -> Result<ServeResult, ServeError>
where
    S: Scheduler + AdmissionReport + HealthReport,
    F: Fn(usize) -> S + Sync,
{
    validate_config(cfg)?;
    let (sub_workloads, assigned, router_stats) = route_workload(&cfg.router, queries);
    let n = sub_workloads.len();

    // Worker-per-shard: the pool caps parallel-iterator fan-out at the
    // shard count; the shim's ordered collect returns shard results in
    // shard order regardless of completion order.
    let pool = build_shard_pool(n)?;
    type Harvest = (SimResult, Option<AdmissionStats>, Option<GuardStats>);
    let runs: Vec<Result<Harvest, ServeError>> =
        pool.install(|| {
            sub_workloads
                .into_iter()
                .enumerate()
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(shard, wl)| {
                    let mut sched = make_sched(shard);
                    let res = try_simulate(shard_sim_config(&cfg.sim, shard), &wl, &mut sched)
                        .map_err(|error| ServeError::Shard { shard, error })?;
                    Ok((res, sched.admission_report(), sched.guard_report()))
                })
                .collect()
        });

    let mut shards = Vec::with_capacity(n);
    for (shard, (run, assigned)) in runs.into_iter().zip(assigned).enumerate() {
        let (result, admission, guard) = run?;
        shards.push(ShardRun { shard, epoch: 0, assigned, result, admission, guard });
    }
    Ok(merge_shards(shards, router_stats))
}

/// Rejects a config whose router thread model disagrees with the
/// simulator template (the silent-divergence hazard of hand-built
/// [`ServeConfig`]s).
pub(crate) fn validate_config(cfg: &ServeConfig) -> Result<(), ServeError> {
    if cfg.router.threads_per_shard != cfg.sim.num_threads {
        return Err(ServeError::ConfigMismatch {
            router_threads: cfg.router.threads_per_shard,
            sim_threads: cfg.sim.num_threads,
        });
    }
    Ok(())
}

/// Builds the worker-per-shard pool, routing builder failure through
/// [`ServeError::PoolBuild`] instead of panicking in library code.
pub(crate) fn build_shard_pool(n: usize) -> Result<rayon::ThreadPool, ServeError> {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .map_err(|e| ServeError::PoolBuild { reason: e.to_string() })
}

/// Merges per-shard runs into the cross-shard aggregate. Percentile
/// bases merge sample-wise; counters sum; starvation metrics take the
/// max; the serving makespan is the slowest shard.
pub fn merge_shards(shards: Vec<ShardRun>, router: RouterStats) -> ServeResult {
    let mut latency = LatencyStats::from_samples(Vec::new());
    let mut resilience = ResilienceSummary::default();
    let mut faults = FaultSummary::default();
    let mut admission = AdmissionStats::default();
    let mut guard = GuardStats::default();
    let mut makespan = 0.0f64;
    let mut events = 0u64;
    let mut completed = 0u64;
    let mut aborted = 0u64;
    for run in &shards {
        latency.merge(&run.result.latency_stats());
        resilience.merge(&run.result.resilience);
        faults.merge(&run.result.fault_summary);
        if let Some(a) = &run.admission {
            admission.merge(a);
        }
        if let Some(g) = &run.guard {
            guard.merge(g);
        }
        makespan = makespan.max(run.result.makespan);
        events += run.result.events_processed;
        completed += run.result.outcomes.len() as u64;
        aborted += run.result.aborted.len() as u64;
    }
    let health = vec![ShardHealth::Healthy; router.per_shard.len()];
    ServeResult {
        shards,
        router,
        makespan,
        events_processed: events,
        completed,
        aborted,
        latency,
        resilience,
        faults,
        admission,
        guard,
        failover: FailoverSummary::default(),
        health,
        abandoned: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{tenantize, SloClass};
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::sim::WorkloadItem;
    use lsched_sched::FifoScheduler;
    use std::sync::Arc;

    fn plan(wos: u32) -> Arc<lsched_engine::plan::PhysicalPlan> {
        let mut b = PlanBuilder::new("s");
        let scan =
            b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, wos, 0.01, 1e4);
        let agg =
            b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 5e3, 1, 0.01, 1e4);
        b.connect(scan, agg, false);
        Arc::new(b.finish(agg))
    }

    fn workload(n: usize) -> Vec<WorkloadItem> {
        (0..n).map(|i| WorkloadItem::new(i as f64 * 0.02, plan(2 + (i % 4) as u32))).collect()
    }

    #[test]
    fn one_shard_serve_is_bit_identical_to_unsharded() {
        let wl = workload(24);
        let qs = tenantize(&wl, 5, &[]);
        let sim = SimConfig { num_threads: 4, seed: 42, ..Default::default() };
        let cfg = ServeConfig::new(1, sim.clone());
        let served = serve_workload(&cfg, &qs, |_| FifoScheduler).unwrap();
        let direct = try_simulate(sim, &wl, &mut FifoScheduler).unwrap();
        assert!(served.shards[0].result.bit_eq(&direct));
        assert_eq!(served.events_processed, direct.events_processed);
        assert_eq!(served.makespan.to_bits(), direct.makespan.to_bits());
    }

    #[test]
    fn multi_shard_serve_is_repeatable_and_covers_all_queries() {
        let wl = workload(60);
        let qs = tenantize(&wl, 11, &[SloClass::best_effort(), SloClass::silver()]);
        let sim = SimConfig { num_threads: 3, seed: 7, ..Default::default() };
        let cfg = ServeConfig::new(4, sim);
        let a = serve_workload(&cfg, &qs, |_| FifoScheduler).unwrap();
        let b = serve_workload(&cfg, &qs, |_| FifoScheduler).unwrap();
        assert_eq!(a.completed + a.aborted, 60);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert!(x.result.bit_eq(&y.result));
            assert_eq!(x.assigned, y.assigned);
        }
        // Every query landed on exactly one shard.
        let mut seen: Vec<usize> = a.shards.iter().flat_map(|s| s.assigned.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn merged_latency_equals_pooled_shard_samples() {
        let wl = workload(40);
        let qs = tenantize(&wl, 8, &[]);
        let cfg = ServeConfig::new(3, SimConfig { num_threads: 2, seed: 3, ..Default::default() });
        let served = serve_workload(&cfg, &qs, |_| FifoScheduler).unwrap();
        let mut pooled: Vec<f64> = Vec::new();
        for s in &served.shards {
            pooled.extend(s.result.outcomes.iter().map(|o| o.duration));
        }
        let oracle = LatencyStats::from_samples(pooled);
        assert_eq!(served.latency.samples(), oracle.samples());
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(served.latency.quantile(p).to_bits(), oracle.quantile(p).to_bits());
        }
    }

    #[test]
    fn guarded_shards_surface_admission_stats() {
        use lsched_sched::{Admission, AdmissionConfig};
        let wl = workload(30);
        let qs = tenantize(&wl, 6, &[]);
        let cfg = ServeConfig::new(2, SimConfig { num_threads: 2, seed: 9, ..Default::default() });
        let served = serve_workload(&cfg, &qs, |_| {
            GuardedScheduler::new(FifoScheduler)
                .with_admission(Admission::new(AdmissionConfig::default()))
        })
        .unwrap();
        assert!(served.shards.iter().all(|s| s.admission.is_some()));
        assert_eq!(
            served.admission.arrivals,
            served.shards.iter().map(|s| s.admission.unwrap().arrivals).sum::<u64>()
        );
        assert!(served.admission.arrivals >= 30);
    }
}
