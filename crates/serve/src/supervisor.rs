//! The shard supervisor: crash containment, restart, and deterministic
//! failover for the sharded serving layer.
//!
//! [`serve_supervised`] runs each shard of a served workload under
//! [`std::panic::catch_unwind`] plus a post-run health poll, mirroring
//! the [`GuardedScheduler`](lsched_sched::GuardedScheduler) breaker one
//! layer up: a shard is `Healthy` while its runs drain clean, `Degraded`
//! when its heartbeat lags the fleet (slow shard, or its scheduler ended
//! on the fallback policy), `Restarting` after a crash with a restart
//! budget, `Recovered` once it drains a run again, and `Quarantined`
//! after it exhausts [`MAX_RESTARTS`] (a shard that
//! crashes twice is never trusted again).
//!
//! Failover is deterministic and exactly-once:
//!
//! * A crash at virtual time `t` ([`crate::fault::ShardFault`]) truncates
//!   the shard's run; whatever completed before `t` is the durable log
//!   and is kept. The *unfinished* queries — reported by the engine in
//!   [`SimResult::unfinished`] — are the orphans.
//! * Orphans are ordered by [`crate::router::failover_order`] (gold
//!   classes first, then original arrival — a per-tenant FIFO) and
//!   placed by [`crate::router::assign_failover`], the same zero-RNG
//!   argmin-projected-backlog rule pressure migration uses.
//! * Replays keep charging latency and deferred deadlines from the
//!   original submission ([`WorkloadItem::submitted_at`]): a crash never
//!   extends an SLO and never hides pre-crash queueing.
//! * Every query gets exactly one final fate across survivor outcomes,
//!   replays, and explicit abandonment; the supervisor verifies this
//!   partition and returns [`ServeError::PartitionViolation`] rather
//!   than merging a dishonest aggregate.
//!
//! A raw panic (an injected [`crate::fault::ShardFault::Poison`] or a
//! buggy policy) leaves no durable log, so the shard's whole slice fails
//! over. Callers that expect panics (chaos tests, the `chaos_serve`
//! bench) typically install a quiet panic hook; the supervisor itself
//! never touches global state.

use crate::fault::ShardFaultPlan;
use crate::router::{
    assign_failover, failover_order, route_workload, FailoverQuery, RouterStats, TenantQuery,
};
use crate::serve::{
    shard_sim_config, AdmissionReport, HealthReport, ServeConfig, ServeError, ServeResult, ShardRun,
};
use lsched_core::plan_est_cost;
use lsched_engine::fault::FaultSummary;
use lsched_engine::sim::{try_simulate, LatencyStats, ResilienceSummary, SimResult, WorkloadItem};
use lsched_engine::Scheduler;
use lsched_sched::{AdmissionStats, GuardStats};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-epoch seed stride: failover epoch `k` simulates shard `s` with
/// seed `base + s × SHARD_SEED_STRIDE + k × EPOCH_SEED_STRIDE`
/// (wrapping). Epoch 0 keeps the plain per-shard seed, which is what
/// makes a supervised run with no shard faults bit-identical to
/// simulating each routed slice directly under [`shard_sim_config`];
/// replay epochs draw decorrelated duration-noise streams.
pub const EPOCH_SEED_STRIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// Supervisor verdict for one shard at the end of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Every run drained clean and on pace.
    Healthy,
    /// Alive but suspect: the heartbeat flagged it slow against the
    /// fleet median, or its scheduler finished with the breaker open.
    /// Degraded shards keep serving (the cooldown mirror of the
    /// breaker's Fallback state).
    Degraded,
    /// Crashed with restart budget left; back up after its restart
    /// delay. Finalized to [`ShardHealth::Recovered`] when the run ends
    /// (an idle restarted shard is still a recovered shard).
    Restarting,
    /// Crashed, restarted from a clean simulator state, and drained a
    /// replay batch.
    Recovered,
    /// Out of the fleet: crashed past the restart budget, panicked with
    /// no restart scheduled, or failed structurally. Never receives
    /// failover work.
    Quarantined,
}

/// Crashes a shard may absorb before quarantine: 1 quarantines a shard
/// that crashes twice.
pub const MAX_RESTARTS: u32 = 1;
/// Failover rounds allowed before remaining orphans are abandoned
/// (explicitly accounted, never silently dropped).
pub const MAX_EPOCHS: u32 = 8;

/// Tuning for [`serve_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Heartbeat threshold: a shard whose epoch-0 makespan exceeds
    /// `slow_factor ×` the fleet median is marked Degraded.
    pub slow_factor: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self { slow_factor: 4.0 }
    }
}

/// Crash/restart/failover accounting for one supervised run. All
/// counters are exact; `PartialEq` (not `Eq`) because the recovery
/// latency is an f64 — the determinism proptests compare summaries
/// across repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailoverSummary {
    /// Shard crashes observed (virtual-time crashes and raw panics).
    pub crashes: u64,
    /// Raw panics absorbed by `catch_unwind` (no durable log survived).
    pub panics_caught: u64,
    /// Structural simulator errors absorbed (treated as a crash with no
    /// durable log).
    pub engine_errors: u64,
    /// Crashed shards brought back from a clean simulator state.
    pub restarts: u64,
    /// Shards removed from the fleet.
    pub quarantined: u64,
    /// Distinct queries orphaned by at least one crash.
    pub orphaned: u64,
    /// Failover placements (one query re-routed twice counts twice).
    pub rerouted: u64,
    /// Orphaned queries that completed on a survivor or restarted shard.
    pub recovered: u64,
    /// Orphaned queries abandoned with no eligible shard left (or past
    /// the epoch cap); disjoint from `recovered`.
    pub abandoned: u64,
    /// Shards flagged Degraded by the slow-shard heartbeat.
    pub slow_shards: u64,
    /// Shards whose scheduler ended the run with its breaker open.
    pub degraded_schedulers: u64,
    /// Failover rounds executed (0 for a crash-free run).
    pub failover_epochs: u32,
    /// Worst orphan recovery latency: the latest replay completion minus
    /// the crash that orphaned its batch (virtual seconds).
    pub recovery_latency_max: f64,
}

/// One shard dispatch: a slice of queries (original or replayed) bound
/// for `shard` in failover epoch `epoch`.
struct ShardTask {
    shard: usize,
    epoch: u32,
    items: Vec<WorkloadItem>,
    globals: Vec<usize>,
    /// Earliest crash time among the orphans of a replay batch
    /// (infinity for epoch 0) — the anchor of the recovery latency.
    min_crash: f64,
}

/// A shard dispatch that returned from the simulator — possibly
/// crash-truncated (`result.crashed_at`), in which case the result is
/// the durable log of the dead shard.
struct FinishedRun {
    result: SimResult,
    admission: Option<AdmissionStats>,
    guard: Option<GuardStats>,
    degraded: bool,
}

/// Failover bookkeeping: which queries were ever orphaned (a query
/// re-orphaned by a second crash counts once) and the current epoch's
/// orphans awaiting placement, with the items they replay from.
struct Orphans {
    seen: Vec<bool>,
    distinct: u64,
    batch: Vec<FailoverQuery>,
    items: HashMap<usize, WorkloadItem>,
}

impl Orphans {
    fn new(n: usize) -> Self {
        Self { seen: vec![false; n], distinct: 0, batch: Vec::new(), items: HashMap::new() }
    }

    /// Queues shard-local query `li` of `task` for failover, orphaned
    /// at virtual time `crash_time`.
    fn push(&mut self, queries: &[TenantQuery], task: &ShardTask, li: usize, crash_time: f64) {
        let g = task.globals[li];
        if !self.seen[g] {
            self.seen[g] = true;
            self.distinct += 1;
        }
        let item = &task.items[li];
        self.batch.push(FailoverQuery {
            global: g,
            tenant: queries[g].tenant,
            class_weight: queries[g].class.weight,
            arrival: item.arrival_time,
            est_cost: plan_est_cost(&item.plan),
            crash_time,
        });
        self.items.insert(g, item.clone());
    }
}

/// What one supervised shard dispatch produced.
enum RunOutcome {
    /// The simulator returned (boxed: a `SimResult` dwarfs the other
    /// variants).
    Finished(Box<FinishedRun>),
    /// The simulator failed structurally; nothing usable survived.
    EngineError,
    /// The shard panicked; nothing usable survived.
    Panicked,
}

/// Runs one shard task under `catch_unwind`, applying the shard's
/// injected faults (crash-at, slow, poison) to its simulator config.
fn run_shard_task<S, F>(
    cfg: &ServeConfig,
    shard_faults: &ShardFaultPlan,
    task: &ShardTask,
    next_crash: Option<(f64, Option<f64>)>,
    make_sched: &F,
) -> RunOutcome
where
    S: Scheduler + AdmissionReport + HealthReport,
    F: Fn(usize) -> S + Sync,
{
    let mut sim = shard_sim_config(&cfg.sim, task.shard);
    if task.epoch > 0 {
        let delta = EPOCH_SEED_STRIDE.wrapping_mul(u64::from(task.epoch));
        sim.seed = sim.seed.wrapping_add(delta);
        if let Some(plan) = sim.faults.as_mut() {
            plan.seed = plan.seed.wrapping_add(delta);
        }
    }
    // Materialize the shard-level faults onto the engine's plan. When
    // nothing targets this shard the template is left untouched, which
    // keeps a fault-free epoch 0 bit-identical to simulating the routed
    // slice directly.
    let crash_at = next_crash.map(|(at, _)| at);
    let slow = shard_faults.slow_factor_for(task.shard);
    if crash_at.is_some() || slow.is_some() {
        let mut plan = sim.faults.take().unwrap_or_default();
        plan.crash_at = crash_at;
        if let Some(f) = slow {
            plan.straggler_prob = 1.0;
            plan.straggler_factor = plan.straggler_factor.max(f);
        }
        sim.faults = Some(plan);
    }
    let poisoned = task.epoch == 0 && shard_faults.poisoned(task.shard);

    let caught = catch_unwind(AssertUnwindSafe(|| {
        if poisoned {
            panic!("injected shard fault: shard {} is poisoned", task.shard);
        }
        let mut sched = make_sched(task.shard);
        try_simulate(sim, &task.items, &mut sched).map(|result| {
            let admission = sched.admission_report();
            let guard = sched.guard_report();
            let degraded = sched.ended_degraded();
            (result, admission, guard, degraded)
        })
    }));
    match caught {
        Ok(Ok((result, admission, guard, degraded))) => {
            RunOutcome::Finished(Box::new(FinishedRun { result, admission, guard, degraded }))
        }
        Ok(Err(_)) => RunOutcome::EngineError,
        Err(_) => RunOutcome::Panicked,
    }
}

/// Routes `queries` across the configured shards and simulates every
/// shard on its own worker thread (`make_sched(shard)` builds each
/// shard's scheduler) under shard-level fault injection with supervised
/// crash recovery: crashed shards are restarted or quarantined per
/// `sup`, their unfinished queries deterministically re-routed to
/// survivors, and the merged [`ServeResult`] carries the full
/// [`FailoverSummary`] plus the final per-shard [`ShardHealth`] verdicts.
///
/// This is the only serving run loop. With [`ShardFaultPlan::none`] and
/// schedulers that neither panic nor fail, every shard runs once, in
/// epoch 0, bit-identical to [`try_simulate`] on its routed slice under
/// [`shard_sim_config`].
pub fn serve_supervised<S, F>(
    cfg: &ServeConfig,
    queries: &[TenantQuery],
    shard_faults: &ShardFaultPlan,
    sup: &SupervisorConfig,
    make_sched: F,
) -> Result<ServeResult, ServeError>
where
    S: Scheduler + AdmissionReport + HealthReport,
    F: Fn(usize) -> S + Sync,
{
    validate_config(cfg)?;
    let (sub_workloads, assigned, router_stats) = route_workload(&cfg.router, queries);
    let n = sub_workloads.len();
    let pool = build_shard_pool(n)?;

    let mut health = vec![ShardHealth::Healthy; n];
    let mut crash_count = vec![0u32; n];
    let crash_sched: Vec<Vec<(f64, Option<f64>)>> =
        (0..n).map(|s| shard_faults.crashes_for(s)).collect();
    let mut fired = vec![0usize; n];
    // Virtual availability per shard: the time its slot frees up (its
    // last run's makespan, or crash + restart delay).
    let mut avail = vec![0.0f64; n];
    let mut summary = FailoverSummary::default();
    let mut runs: Vec<ShardRun> = Vec::new();
    let mut abandoned: Vec<usize> = Vec::new();
    let mut orphans = Orphans::new(queries.len());

    let mut tasks: Vec<ShardTask> = sub_workloads
        .into_iter()
        .zip(assigned)
        .enumerate()
        .map(|(shard, (items, globals))| ShardTask {
            shard,
            epoch: 0,
            items,
            globals,
            min_crash: f64::INFINITY,
        })
        .collect();

    let mut epoch = 0u32;
    loop {
        let outcomes: Vec<RunOutcome> = pool.install(|| {
            (0..tasks.len())
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|ti| {
                    let task = &tasks[ti];
                    run_shard_task(cfg, shard_faults, task, crash_sched[task.shard]
                        .get(fired[task.shard])
                        .copied(), &make_sched)
                })
                .collect()
        });

        orphans.batch.clear();
        orphans.items.clear();
        let mut epoch_makespans: Vec<(usize, f64)> = Vec::new();

        for (task, out) in std::mem::take(&mut tasks).into_iter().zip(outcomes) {
            let s = task.shard;
            match out {
                RunOutcome::Finished(run) => {
                    let FinishedRun { result, admission, guard, degraded } = *run;
                    avail[s] = avail[s].max(result.makespan);
                    if let Some(at) = result.crashed_at {
                        summary.crashes += 1;
                        crash_count[s] += 1;
                        let spec = crash_sched[s].get(fired[s]).copied();
                        fired[s] += 1;
                        for &li in &result.unfinished {
                            orphans.push(queries, &task, li, at);
                        }
                        match spec.and_then(|(_, restart)| restart) {
                            Some(delay) if crash_count[s] <= MAX_RESTARTS => {
                                health[s] = ShardHealth::Restarting;
                                avail[s] = avail[s].max(at + delay);
                                summary.restarts += 1;
                            }
                            _ => {
                                if health[s] != ShardHealth::Quarantined {
                                    health[s] = ShardHealth::Quarantined;
                                    summary.quarantined += 1;
                                }
                            }
                        }
                    } else {
                        if task.epoch > 0 {
                            summary.recovered += result.outcomes.len() as u64;
                            if health[s] == ShardHealth::Restarting {
                                health[s] = ShardHealth::Recovered;
                            }
                        } else {
                            epoch_makespans.push((s, result.makespan));
                        }
                        if degraded && health[s] == ShardHealth::Healthy {
                            health[s] = ShardHealth::Degraded;
                            summary.degraded_schedulers += 1;
                        }
                    }
                    if task.epoch > 0 {
                        let last_finish = result
                            .outcomes
                            .iter()
                            .map(|o| o.finish)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if last_finish.is_finite() {
                            summary.recovery_latency_max =
                                summary.recovery_latency_max.max(last_finish - task.min_crash);
                        }
                    }
                    runs.push(ShardRun {
                        shard: s,
                        epoch: task.epoch,
                        assigned: task.globals,
                        result,
                        admission,
                        guard,
                    });
                }
                RunOutcome::EngineError | RunOutcome::Panicked => {
                    // No durable log: the whole slice is orphaned. An
                    // engine error and a panic differ only in the
                    // counter they bump; neither consumes a crash spec,
                    // and neither earns a restart.
                    match out {
                        RunOutcome::EngineError => summary.engine_errors += 1,
                        _ => summary.panics_caught += 1,
                    }
                    summary.crashes += 1;
                    crash_count[s] += 1;
                    if health[s] != ShardHealth::Quarantined {
                        health[s] = ShardHealth::Quarantined;
                        summary.quarantined += 1;
                    }
                    // With no log to date the failure, the slice is
                    // orphaned at the shard's last known availability.
                    for li in 0..task.globals.len() {
                        orphans.push(queries, &task, li, avail[s]);
                    }
                }
            }
        }

        // Slow-shard heartbeat, epoch 0 only: compare each clean shard's
        // makespan against the fleet median.
        if epoch == 0 && epoch_makespans.len() >= 2 {
            let mut spans: Vec<f64> = epoch_makespans.iter().map(|&(_, m)| m).collect();
            spans.sort_by(f64::total_cmp);
            let median = spans[spans.len() / 2];
            if median > 0.0 {
                for &(s, m) in &epoch_makespans {
                    if m > sup.slow_factor * median && health[s] == ShardHealth::Healthy {
                        health[s] = ShardHealth::Degraded;
                        summary.slow_shards += 1;
                    }
                }
            }
        }

        if orphans.batch.is_empty() {
            break;
        }
        epoch += 1;
        let eligible: Vec<usize> =
            (0..n).filter(|&s| health[s] != ShardHealth::Quarantined).collect();
        if epoch > MAX_EPOCHS || eligible.is_empty() {
            // Explicit abandonment keeps the partition exact: these
            // queries' fate is "lost to the crash", counted, never
            // silently dropped.
            abandoned.extend(orphans.batch.iter().map(|o| o.global));
            break;
        }
        summary.failover_epochs = epoch;

        // Deterministic failover: SLO-ordered orphans, argmin-projected-
        // backlog placement over the survivors.
        failover_order(&mut orphans.batch);
        let mut busy: Vec<f64> = eligible.iter().map(|&s| avail[s]).collect();
        let targets = assign_failover(&cfg.router, &eligible, &mut busy, &orphans.batch);
        summary.rerouted += orphans.batch.len() as u64;

        let mut next: Vec<Option<ShardTask>> = (0..n).map(|_| None).collect();
        for (o, &s) in orphans.batch.iter().zip(&targets) {
            let original = &orphans.items[&o.global];
            let anchor = original.submit_anchor();
            let start = o.crash_time.max(avail[s]);
            let mut item = original.clone();
            item.arrival_time = item.arrival_time.max(start);
            item.submitted_at = Some(anchor);
            let task = next[s].get_or_insert_with(|| ShardTask {
                shard: s,
                epoch,
                items: Vec::new(),
                globals: Vec::new(),
                min_crash: f64::INFINITY,
            });
            task.items.push(item);
            task.globals.push(o.global);
            task.min_crash = task.min_crash.min(o.crash_time);
        }
        tasks = next.into_iter().flatten().collect();
    }

    // An idle restarted shard is still back up.
    for h in health.iter_mut() {
        if *h == ShardHealth::Restarting {
            *h = ShardHealth::Recovered;
        }
    }
    abandoned.sort_unstable();
    summary.abandoned = abandoned.len() as u64;
    summary.orphaned = orphans.distinct;

    // Exactly-once verification: every query has exactly one final fate
    // across all runs' finalized sets plus the abandoned list.
    let mut fates = vec![0usize; queries.len()];
    for run in &runs {
        for g in run.finalized() {
            fates[g] += 1;
        }
    }
    for &g in &abandoned {
        fates[g] += 1;
    }
    if let Some((query, &count)) = fates.iter().enumerate().find(|&(_, &c)| c != 1) {
        return Err(ServeError::PartitionViolation { query, count });
    }

    Ok(merge(runs, router_stats, summary, health, abandoned))
}

/// Rejects a config whose router thread model disagrees with the
/// simulator template (the silent-divergence hazard of hand-built
/// [`ServeConfig`]s).
fn validate_config(cfg: &ServeConfig) -> Result<(), ServeError> {
    if cfg.router.threads_per_shard != cfg.sim.num_threads {
        return Err(ServeError::ConfigMismatch {
            router_threads: cfg.router.threads_per_shard,
            sim_threads: cfg.sim.num_threads,
        });
    }
    Ok(())
}

/// Builds the worker-per-shard pool, routing builder failure through
/// [`ServeError::PoolBuild`] instead of panicking in library code. The
/// pool caps parallel-iterator fan-out at the shard count; the shim's
/// ordered collect returns results in task order regardless of
/// completion order.
fn build_shard_pool(n: usize) -> Result<rayon::ThreadPool, ServeError> {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .map_err(|e| ServeError::PoolBuild { reason: e.to_string() })
}

/// Merges every run of a served workload into the cross-shard
/// aggregate. Percentile bases merge sample-wise; counters sum;
/// starvation metrics take the max; the serving makespan is the slowest
/// run.
fn merge(
    shards: Vec<ShardRun>,
    router: RouterStats,
    failover: FailoverSummary,
    health: Vec<ShardHealth>,
    abandoned: Vec<usize>,
) -> ServeResult {
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
        failover,
        health,
        abandoned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ShardFault;
    use crate::router::{tenantize, SloClass};
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::sim::SimConfig;
    use lsched_sched::{FifoScheduler, GuardedScheduler};
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

    fn fates(r: &ServeResult) -> u64 {
        r.completed + r.aborted + r.abandoned.len() as u64
    }

    /// A served run with no shard faults under the default supervisor
    /// (also the horizon the crash tests place their crash against). The
    /// supervisor absorbs a shard's engine error or panic as a crash, so
    /// the run must also report no crash and abandon nothing.
    fn fault_free<S, F>(cfg: &ServeConfig, qs: &[TenantQuery], make_sched: F) -> ServeResult
    where
        S: Scheduler + AdmissionReport + HealthReport,
        F: Fn(usize) -> S + Sync,
    {
        let res = serve_supervised(
            cfg,
            qs,
            &ShardFaultPlan::none(),
            &SupervisorConfig::default(),
            make_sched,
        )
        .expect("fault-free serve cannot error");
        assert!(
            res.failover.crashes == 0 && res.abandoned.is_empty(),
            "a fault-free run absorbed a shard failure: {:?}",
            res.failover
        );
        res
    }

    /// Plain serving is the routed slices simulated directly: a
    /// fault-free supervised run must equal that oracle shard by shard.
    #[test]
    fn faultfree_supervised_run_is_bit_identical_to_plain_serving() {
        let wl = workload(40);
        let qs = tenantize(&wl, 7, &[SloClass::best_effort(), SloClass::gold()]);
        let cfg = ServeConfig::new(3, SimConfig { num_threads: 2, seed: 11, ..Default::default() });
        let sup = fault_free(&cfg, &qs, |_| FifoScheduler);
        let (sub, assigned, router) = route_workload(&cfg.router, &qs);
        assert_eq!(sup.shards.len(), sub.len());
        assert_eq!(sup.router, router);
        let mut makespan = 0.0f64;
        for (s, run) in sup.shards.iter().enumerate() {
            let direct =
                try_simulate(shard_sim_config(&cfg.sim, s), &sub[s], &mut FifoScheduler).unwrap();
            assert_eq!((run.shard, run.epoch), (s, 0));
            assert_eq!(run.assigned, assigned[s]);
            assert!(run.result.bit_eq(&direct), "shard {s} diverged under the supervisor");
            makespan = makespan.max(direct.makespan);
        }
        assert_eq!(sup.makespan.to_bits(), makespan.to_bits());
        assert_eq!(sup.failover, FailoverSummary::default());
        assert!(sup.health.iter().all(|h| *h == ShardHealth::Healthy));
        assert!(sup.abandoned.is_empty());
    }

    #[test]
    fn crash_fails_over_every_orphan_to_the_survivor() {
        let wl = workload(48);
        let qs = tenantize(&wl, 9, &[]);
        let cfg = ServeConfig::new(2, SimConfig { num_threads: 2, seed: 5, ..Default::default() });
        let clean = fault_free(&cfg, &qs, |_| FifoScheduler);
        let crash_at = 0.3 * clean.shards[0].result.makespan;
        let faults = ShardFaultPlan::crash_one(0, crash_at);
        let run = |_: ()| {
            serve_supervised(&cfg, &qs, &faults, &SupervisorConfig::default(), |_| {
                FifoScheduler
            })
            .unwrap()
        };
        let a = run(());
        assert_eq!(a.failover.crashes, 1);
        assert!(a.failover.orphaned > 0, "a mid-run crash must orphan something");
        assert_eq!(a.failover.rerouted, a.failover.orphaned);
        assert_eq!(a.failover.recovered + a.failover.abandoned, a.failover.orphaned);
        assert!(a.abandoned.is_empty(), "one healthy survivor must absorb everything");
        assert_eq!(a.health[0], ShardHealth::Quarantined);
        assert_eq!(a.health[1], ShardHealth::Healthy);
        assert_eq!(fates(&a), 48, "every query gets exactly one fate");
        assert!(a.failover.recovery_latency_max >= 0.0);
        // Bit-identical on repeat, including the failover replays.
        let b = run(());
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!((x.shard, x.epoch, &x.assigned), (y.shard, y.epoch, &y.assigned));
            assert!(x.result.bit_eq(&y.result));
        }
        assert_eq!(a.failover, b.failover);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn crash_restart_brings_the_shard_back_for_its_own_orphans() {
        let wl = workload(48);
        let qs = tenantize(&wl, 9, &[]);
        let cfg = ServeConfig::new(2, SimConfig { num_threads: 2, seed: 5, ..Default::default() });
        let clean = fault_free(&cfg, &qs, |_| FifoScheduler);
        let at = 0.3 * clean.shards[0].result.makespan;
        let faults = ShardFaultPlan {
            faults: vec![(0, ShardFault::CrashRestart { at, restart_delay: 0.01 })],
        };
        let r = serve_supervised(&cfg, &qs, &faults, &SupervisorConfig::default(), |_| {
            FifoScheduler
        })
        .unwrap();
        assert_eq!(r.failover.crashes, 1);
        assert_eq!(r.failover.restarts, 1);
        assert_eq!(r.failover.quarantined, 0);
        assert!(matches!(r.health[0], ShardHealth::Recovered));
        assert_eq!(fates(&r), 48);
        assert!(r.abandoned.is_empty());
        // The restarted shard's availability (crash + tiny delay) beats
        // the survivor's full epoch-0 makespan, so the argmin placement
        // hands it replay work.
        assert!(
            r.shards.iter().any(|s| s.shard == 0 && s.epoch > 0 && !s.assigned.is_empty()),
            "restarted shard should reclaim failover work"
        );
    }

    #[test]
    fn poisoned_shard_is_quarantined_and_its_whole_slice_fails_over() {
        let wl = workload(30);
        let qs = tenantize(&wl, 6, &[]);
        let cfg = ServeConfig::new(2, SimConfig { num_threads: 2, seed: 3, ..Default::default() });
        let faults = ShardFaultPlan { faults: vec![(1, ShardFault::Poison)] };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = serve_supervised(&cfg, &qs, &faults, &SupervisorConfig::default(), |_| {
            FifoScheduler
        })
        .unwrap();
        std::panic::set_hook(prev);
        assert_eq!(r.failover.panics_caught, 1);
        assert_eq!(r.failover.crashes, 1);
        assert_eq!(r.health[1], ShardHealth::Quarantined);
        assert_eq!(fates(&r), 30);
        assert!(r.abandoned.is_empty(), "shard 0 must absorb the poisoned slice");
        assert!(r.failover.orphaned > 0);
    }

    #[test]
    fn sole_shard_crash_abandons_orphans_explicitly() {
        let wl = workload(20);
        let qs = tenantize(&wl, 4, &[]);
        let cfg = ServeConfig::new(1, SimConfig { num_threads: 2, seed: 2, ..Default::default() });
        let clean = fault_free(&cfg, &qs, |_| FifoScheduler);
        let faults = ShardFaultPlan::crash_one(0, 0.3 * clean.makespan);
        let r = serve_supervised(&cfg, &qs, &faults, &SupervisorConfig::default(), |_| {
            FifoScheduler
        })
        .unwrap();
        assert_eq!(r.health[0], ShardHealth::Quarantined);
        assert!(!r.abandoned.is_empty(), "no survivor: orphans must be abandoned, not lost");
        assert_eq!(r.failover.abandoned, r.abandoned.len() as u64);
        assert_eq!(fates(&r), 20);
    }

    #[test]
    fn slow_shard_is_flagged_degraded_by_the_heartbeat() {
        let wl = workload(60);
        let qs = tenantize(&wl, 11, &[]);
        let cfg = ServeConfig::new(3, SimConfig { num_threads: 2, seed: 7, ..Default::default() });
        let faults = ShardFaultPlan { faults: vec![(1, ShardFault::Slow { factor: 3.5 })] };
        let sup = SupervisorConfig { slow_factor: 2.0 };
        let r =
            serve_supervised(&cfg, &qs, &faults, &sup, |_| FifoScheduler).unwrap();
        assert_eq!(r.health[1], ShardHealth::Degraded);
        assert_eq!(r.failover.slow_shards, 1);
        assert_eq!(r.failover.crashes, 0);
        assert_eq!(fates(&r), 60);
    }

    #[test]
    fn replay_latency_is_charged_from_the_original_submission() {
        let wl = workload(48);
        let qs = tenantize(&wl, 9, &[]);
        let cfg = ServeConfig::new(2, SimConfig { num_threads: 2, seed: 5, ..Default::default() });
        let clean = fault_free(&cfg, &qs, |_| FifoScheduler);
        let crash_at = 0.3 * clean.shards[0].result.makespan;
        let faults = ShardFaultPlan::crash_one(0, crash_at);
        let r = serve_supervised(&cfg, &qs, &faults, &SupervisorConfig::default(), |_| {
            FifoScheduler
        })
        .unwrap();
        let mut saw_replay = false;
        for s in r.shards.iter().filter(|s| s.epoch > 0) {
            for o in &s.result.outcomes {
                saw_replay = true;
                // Outcome latency spans original submission → replay
                // finish: the recorded arrival is the query's original
                // one (not the shifted replay arrival), and the replay
                // itself executes after the crash.
                let global = s.assigned[o.qid.0 as usize];
                assert_eq!(
                    o.arrival.to_bits(),
                    wl[global].arrival_time.to_bits(),
                    "replayed outcome must charge from the original submission"
                );
                assert!(o.finish >= crash_at, "replays execute after the crash");
                assert!((o.finish - o.arrival - o.duration).abs() < 1e-9);
            }
        }
        assert!(saw_replay, "crash must produce at least one replayed outcome");
    }

    #[test]
    fn one_shard_serve_is_bit_identical_to_unsharded() {
        let wl = workload(24);
        let qs = tenantize(&wl, 5, &[]);
        let sim = SimConfig { num_threads: 4, seed: 42, ..Default::default() };
        let cfg = ServeConfig::new(1, sim.clone());
        let served = fault_free(&cfg, &qs, |_| FifoScheduler);
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
        let a = fault_free(&cfg, &qs, |_| FifoScheduler);
        let b = fault_free(&cfg, &qs, |_| FifoScheduler);
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
        let served = fault_free(&cfg, &qs, |_| FifoScheduler);
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
        let served = fault_free(&cfg, &qs, |_| {
            GuardedScheduler::new(FifoScheduler)
                .with_admission(Admission::new(AdmissionConfig::default()))
        });
        assert!(served.shards.iter().all(|s| s.admission.is_some()));
        assert_eq!(
            served.admission.arrivals,
            served.shards.iter().map(|s| s.admission.unwrap().arrivals).sum::<u64>()
        );
        assert!(served.admission.arrivals >= 30);
    }
}
