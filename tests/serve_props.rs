//! Property-based tests for the sharded serving layer: a 1-shard routed
//! run is bit-identical to the unsharded simulator, a fault-free
//! supervised run is bit-identical to simulating each routed slice
//! directly, N-shard runs are bit-identical across repeats under the
//! standard fault matrix (the router and migration consume zero RNG),
//! routing preserves per-tenant FIFO and partitions the workload
//! exactly, and cross-shard latency merging equals the pooled-samples
//! oracle.

use lsched::prelude::*;
use lsched::serve::{route_workload, shard_sim_config, RouterConfig, ServeConfig};
use lsched::workloads::tpch;
use proptest::prelude::*;
use std::collections::HashMap;

fn policy(which: u8) -> Box<dyn Scheduler> {
    match which % 5 {
        0 => Box::new(FifoScheduler),
        1 => Box::new(FairScheduler::default()),
        2 => Box::new(SjfScheduler),
        3 => Box::new(CriticalPathScheduler),
        _ => Box::new(QuickstepScheduler),
    }
}

fn classes() -> Vec<SloClass> {
    vec![SloClass::best_effort(), SloClass::silver(), SloClass::gold()]
}

/// A served run with no shard faults under the default supervisor. The
/// supervisor absorbs a shard's engine error or panic as a crash, so the
/// run must also report no crash and abandon nothing.
fn serve_clean<S, F>(cfg: &ServeConfig, queries: &[TenantQuery], make_sched: F) -> ServeResult
where
    S: Scheduler + lsched::serve::AdmissionReport + lsched::serve::HealthReport,
    F: Fn(usize) -> S + Sync,
{
    let (none, sup) = (ShardFaultPlan::none(), SupervisorConfig::default());
    let res = serve_supervised(cfg, queries, &none, &sup, make_sched)
        .expect("fault-free serve cannot error");
    assert!(
        res.failover.crashes == 0 && res.abandoned.is_empty(),
        "a fault-free run absorbed a shard failure: {:?}",
        res.failover
    );
    res
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A 1-shard served run must be bit-identical to feeding the same
    /// (class-decorated) workload straight into the unsharded simulator:
    /// the router, tenant bookkeeping and merge layer add zero noise.
    #[test]
    fn one_shard_serve_is_bit_identical_to_unsharded(
        n_queries in 2usize..24,
        threads in 2usize..8,
        seed in 0u64..300,
        which in 0u8..5,
        tenants in 1u64..8,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 60.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());
        let sim = SimConfig { num_threads: threads, seed, ..Default::default() };

        let served = serve_clean(&ServeConfig::new(1, sim.clone()), &queries, |_| policy(which));
        let direct_wl: Vec<WorkloadItem> =
            queries.iter().map(|q| q.class.apply(q.item.clone())).collect();
        let direct = try_simulate(sim, &direct_wl, policy(which).as_mut())
            .expect("unsharded run cannot error");

        prop_assert!(served.shards[0].result.bit_eq(&direct),
            "1-shard routed result diverged from the unsharded simulator");
        prop_assert_eq!(served.events_processed, direct.events_processed);
        prop_assert_eq!(served.makespan.to_bits(), direct.makespan.to_bits());
        prop_assert_eq!(served.router.migrations, 0, "one shard has nowhere to migrate");
    }

    /// N-shard served runs are bit-identical across repeats with the
    /// standard fault matrix enabled: routing, migration and the
    /// worker-per-shard execution collect zero RNG and impose a total
    /// deterministic order.
    #[test]
    fn n_shard_serve_is_bit_identical_across_repeats_under_faults(
        n_queries in 4usize..32,
        threads in 2usize..6,
        seed in 0u64..300,
        which in 0u8..5,
        shards in 2usize..5,
        tenants in 2u64..12,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 80.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());
        let faults = FaultPlan::standard_matrix(seed, threads, n_queries, 0.5);
        let sim = SimConfig {
            num_threads: threads,
            seed,
            faults: Some(faults),
            ..Default::default()
        };
        let cfg = ServeConfig::new(shards, sim);

        let a = serve_clean(&cfg, &queries, |_| policy(which));
        let b = serve_clean(&cfg, &queries, |_| policy(which));

        prop_assert_eq!(&a.router, &b.router, "router counters must repeat exactly");
        prop_assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            prop_assert_eq!(&x.assigned, &y.assigned, "shard {} routing diverged", x.shard);
            prop_assert!(x.result.bit_eq(&y.result), "shard {} result diverged", x.shard);
        }
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(&a.resilience, &b.resilience);
        prop_assert_eq!(&a.faults, &b.faults);
        // Every query is simulated on exactly one shard.
        let mut seen: Vec<usize> = a.shards.iter().flat_map(|s| s.assigned.clone()).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n_queries).collect::<Vec<_>>());
        prop_assert_eq!(a.completed + a.aborted, n_queries as u64);
    }

    /// Routing preserves per-tenant FIFO: within every shard each
    /// tenant's queries appear in global arrival order, and the merged
    /// latency statistics equal the pooled-samples oracle.
    #[test]
    fn routing_preserves_tenant_fifo_and_merge_oracle(
        n_queries in 4usize..40,
        threads in 2usize..6,
        seed in 0u64..300,
        shards in 1usize..5,
        tenants in 1u64..10,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 100.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());

        let (_, assigned, _) = route_workload(&RouterConfig::new(shards, threads), &queries);
        for shard in &assigned {
            let mut last: HashMap<u64, usize> = HashMap::new();
            for &gi in shard {
                let t = queries[gi].tenant;
                if let Some(&prev) = last.get(&t) {
                    prop_assert!(gi > prev, "tenant {} reordered: {} then {}", t, prev, gi);
                }
                last.insert(t, gi);
            }
        }

        let sim = SimConfig { num_threads: threads, seed, ..Default::default() };
        let served = serve_clean(&ServeConfig::new(shards, sim), &queries, |_| FifoScheduler);
        let mut pooled: Vec<f64> = Vec::new();
        for s in &served.shards {
            pooled.extend(s.result.outcomes.iter().map(|o| o.duration));
        }
        let oracle = lsched::engine::sim::LatencyStats::from_samples(pooled);
        prop_assert_eq!(served.latency.samples(), oracle.samples());
        for p in [0.5, 0.9, 0.99] {
            prop_assert_eq!(
                served.latency.quantile(p).to_bits(),
                oracle.quantile(p).to_bits(),
                "merged p{} diverged from pooled oracle", p
            );
        }
    }
}

/// Guarded shards with admission gates surface per-shard and merged
/// admission counters, and the merged counters are the exact sums.
#[test]
fn sharded_admission_counters_sum_exactly() {
    use lsched::sched::{Admission, AdmissionConfig};

    let pool = tpch::plan_pool(&[0.3]);
    let wl = gen_workload(&pool, 30, ArrivalPattern::Batch, 9);
    let queries = tenantize(&wl, 6, &classes());
    let cfg = ServeConfig::new(3, SimConfig { num_threads: 2, seed: 9, ..Default::default() });
    let served = serve_clean(&cfg, &queries, |_| {
        GuardedScheduler::new(QuickstepScheduler).with_admission(Admission::new(
            AdmissionConfig { max_queued: 4, resume_queued: 2, ..Default::default() },
        ))
    });
    let mut sum = AdmissionStats::default();
    for s in &served.shards {
        let a = s.admission.expect("guarded shard must report admission stats");
        sum.merge(&a);
    }
    assert_eq!(sum, served.admission);
    assert_eq!(served.admission.arrivals, 30);
    assert_eq!(served.completed + served.aborted, 30);
}

/// Quiets the default panic hook for a closure that exercises injected
/// shard panics (the supervisor catches them; the hook would still spam
/// stderr), restoring the previous hook afterwards.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Every query index 0..n appears exactly once across the runs'
/// finalized sets plus the abandoned list — the exactly-once contract,
/// recomputed externally from the per-run durable logs.
fn assert_exact_fates(r: &ServeResult, n: usize) -> Result<(), String> {
    let mut fates = vec![0usize; n];
    for run in &r.shards {
        for g in run.finalized() {
            fates[g] += 1;
        }
    }
    for &g in &r.abandoned {
        fates[g] += 1;
    }
    for (g, &c) in fates.iter().enumerate() {
        prop_assert_eq!(c, 1, "query {} has {} fates (must be exactly 1)", g, c);
    }
    prop_assert_eq!(r.completed + r.aborted + r.abandoned.len() as u64, n as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Supervised serving with an empty shard-fault plan degenerates to
    /// plain serving bit-for-bit — each routed slice simulated directly
    /// under its shard config: the supervisor adds zero noise when
    /// nothing crashes.
    #[test]
    fn supervised_noop_is_bit_identical_to_plain_serving(
        n_queries in 4usize..28,
        threads in 2usize..6,
        seed in 0u64..300,
        which in 0u8..5,
        shards in 1usize..5,
        tenants in 2u64..10,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 80.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());
        let cfg = ServeConfig::new(
            shards,
            SimConfig { num_threads: threads, seed, ..Default::default() },
        );
        let sup = serve_clean(&cfg, &queries, |_| policy(which));
        let (sub, assigned, router) = route_workload(&cfg.router, &queries);
        prop_assert_eq!(sup.shards.len(), sub.len());
        prop_assert_eq!(&sup.router, &router);
        let mut makespan = 0.0f64;
        for (s, run) in sup.shards.iter().enumerate() {
            let direct =
                try_simulate(shard_sim_config(&cfg.sim, s), &sub[s], policy(which).as_mut())
                    .expect("direct shard run cannot error");
            prop_assert_eq!((run.shard, run.epoch), (s, 0), "noop run must not spawn epochs");
            prop_assert_eq!(&run.assigned, &assigned[s]);
            prop_assert!(run.result.bit_eq(&direct), "shard {} diverged under the supervisor", s);
            makespan = makespan.max(direct.makespan);
        }
        prop_assert_eq!(sup.makespan.to_bits(), makespan.to_bits());
        prop_assert_eq!(sup.failover, FailoverSummary::default());
        prop_assert!(sup.abandoned.is_empty());
        prop_assert!(sup.health.iter().all(|h| *h == ShardHealth::Healthy || *h == ShardHealth::Degraded));
    }

    /// The full chaos matrix (crashes, restarts, slow shards, poison)
    /// is bit-identical across repeats, and no query is ever lost or
    /// duplicated: completions + terminal aborts + explicit abandonment
    /// exactly partition the workload, including failover replays.
    #[test]
    fn chaos_matrix_is_repeatable_and_exactly_once(
        n_queries in 8usize..36,
        threads in 2usize..5,
        seed in 0u64..300,
        which in 0u8..5,
        shards in 2usize..6,
        tenants in 2u64..10,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 80.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());
        let cfg = ServeConfig::new(
            shards,
            SimConfig { num_threads: threads, seed, ..Default::default() },
        );
        let horizon = serve_clean(&cfg, &queries, |_| policy(which)).makespan;
        let faults = ShardFaultPlan::chaos(seed, shards, horizon.max(0.01));
        let run = || with_quiet_panics(|| {
            serve_supervised(&cfg, &queries, &faults, &SupervisorConfig::default(),
                |_| policy(which)).expect("supervised chaos run")
        });
        let a = run();
        let b = run();

        prop_assert_eq!(a.shards.len(), b.shards.len(), "replay structure diverged");
        for (x, y) in a.shards.iter().zip(&b.shards) {
            prop_assert_eq!((x.shard, x.epoch, &x.assigned), (y.shard, y.epoch, &y.assigned));
            prop_assert!(x.result.bit_eq(&y.result),
                "shard {} epoch {} diverged across repeats", x.shard, x.epoch);
        }
        prop_assert_eq!(a.failover, b.failover, "failover accounting diverged");
        prop_assert_eq!(&a.health, &b.health);
        prop_assert_eq!(&a.abandoned, &b.abandoned);
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());

        assert_exact_fates(&a, n_queries)?;
        prop_assert_eq!(a.failover.recovered + a.failover.abandoned, a.failover.orphaned,
            "every orphan is either recovered or explicitly abandoned");
    }

    /// Failover re-routing preserves per-tenant FIFO: inside every
    /// replay batch a tenant's queries appear in original submission
    /// order (class weight is a pure function of the tenant, so the
    /// SLO-first failover order cannot interleave a tenant with itself).
    #[test]
    fn failover_replays_preserve_tenant_fifo(
        n_queries in 12usize..40,
        threads in 2usize..5,
        seed in 0u64..300,
        shards in 2usize..6,
        tenants in 2u64..10,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 80.0 }, seed);
        let queries = tenantize(&wl, tenants, &classes());
        let cfg = ServeConfig::new(
            shards,
            SimConfig { num_threads: threads, seed, ..Default::default() },
        );
        let clean = serve_clean(&cfg, &queries, |_| FifoScheduler);
        let crash_at = 0.25 * clean.shards[0].result.makespan.max(0.01);
        let faults = ShardFaultPlan::crash_one(0, crash_at);
        let r = serve_supervised(&cfg, &queries, &faults, &SupervisorConfig::default(),
            |_| FifoScheduler).expect("supervised run");

        for run in r.shards.iter().filter(|s| s.epoch > 0) {
            let mut last: HashMap<u64, usize> = HashMap::new();
            for &gi in &run.assigned {
                let t = queries[gi].tenant;
                if let Some(&prev) = last.get(&t) {
                    prop_assert!(gi > prev,
                        "replay batch reordered tenant {}: {} then {}", t, prev, gi);
                }
                last.insert(t, gi);
            }
        }
        assert_exact_fates(&r, n_queries)?;
    }
}
