//! Property test for the incremental encoding split: across randomized
//! event sequences (query admissions, work-order completions, worker
//! pool resizes, query retirements — with and without cache eviction,
//! including query-id reuse), [`snapshot_cached`] must produce snapshots
//! element-wise identical to the from-scratch [`snapshot`] reference, and
//! so must [`snapshot_cached_into`] refilling one reused snapshot.

use std::sync::Arc;

use lsched_core::features::{
    snapshot, snapshot_cached, snapshot_cached_into, FeatureConfig, SnapshotCache, SystemSnapshot,
};
use lsched_engine::scheduler::{QueryHot, QueryId, QueryRuntime, SchedContext};
use lsched_engine::stats::WorkOrderStats;
use lsched_workloads::tpch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of simulated runtime churn against the active query set.
fn apply_random_event(
    rng: &mut StdRng,
    queries: &mut Vec<QueryRuntime>,
    retired: &mut Vec<u64>,
    next_qid: &mut u64,
    total_threads: &mut usize,
    cache: &mut SnapshotCache,
    pool: &[Arc<lsched_engine::plan::PhysicalPlan>],
) {
    match rng.gen_range(0u32..10) {
        // Admission; occasionally reuses a retired query id with a
        // (generally different) plan, exercising the cache's stale-entry
        // pointer guard.
        0..=3 => {
            let qid = if !retired.is_empty() && rng.gen_range(0u32..3) == 0 {
                retired.remove(rng.gen_range(0..retired.len()))
            } else {
                *next_qid += 1;
                *next_qid
            };
            let plan = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
            queries.push(QueryRuntime::new(QueryId(qid), plan, 0.0, *total_threads));
        }
        // Work-order completion on a random in-flight operator.
        4..=7 => {
            if queries.is_empty() {
                return;
            }
            let qi = rng.gen_range(0..queries.len());
            let q = &mut queries[qi];
            let candidates: Vec<usize> = (0..q.ops.len())
                .filter(|&o| q.ops[o].remaining_work_orders() > 0)
                .collect();
            if candidates.is_empty() {
                return;
            }
            let op = candidates[rng.gen_range(0..candidates.len())];
            q.ops[op].dispatched_work_orders += 1;
            q.ops[op].observe_completion(&WorkOrderStats {
                duration: rng.gen_range(0.001f64..0.5),
                memory: rng.gen_range(1e3f64..1e6),
                output_rows: 100,
                completed_at: 0.0,
            });
            q.refresh_statuses();
            // Engines fit the regressors before they build a context.
            q.refresh_estimates();
        }
        // Worker-pool resize.
        8 => {
            *total_threads = rng.gen_range(2usize..33);
        }
        // Retirement. Half the time the cache entry is left in place
        // (as if the policy missed the finish notification) — the
        // pointer guard must still keep later snapshots correct.
        _ => {
            if queries.is_empty() {
                return;
            }
            let qi = rng.gen_range(0..queries.len());
            let q = queries.remove(qi);
            retired.push(q.qid.0);
            if rng.gen_range(0u32..2) == 0 {
                cache.evict(q.qid);
            }
        }
    }
}

fn assert_snapshots_identical(
    a: &lsched_core::features::SystemSnapshot,
    b: &lsched_core::features::SystemSnapshot,
) -> Result<(), String> {
    if a.time != b.time
        || a.total_threads != b.total_threads
        || a.free_threads != b.free_threads
        || a.queries.len() != b.queries.len()
    {
        return Err("global snapshot fields diverged".into());
    }
    for (qa, qb) in a.queries.iter().zip(&b.queries) {
        if qa.qid != qb.qid {
            return Err(format!("qid diverged: {:?} vs {:?}", qa.qid, qb.qid));
        }
        if qa.qf != qb.qf {
            return Err(format!("qf diverged for {:?}", qa.qid));
        }
        if qa.schedulable != qb.schedulable || qa.max_degree != qb.max_degree {
            return Err(format!("candidate sets diverged for {:?}", qa.qid));
        }
        if qa.num_ops() != qb.num_ops() {
            return Err(format!("op count diverged for {:?}", qa.qid));
        }
        for op in 0..qa.num_ops() {
            if qa.opf(op) != qb.opf(op) {
                return Err(format!("OPF diverged for {:?} op {op}", qa.qid));
            }
        }
        if qa.edf() != qb.edf() {
            return Err(format!("EDF diverged for {:?}", qa.qid));
        }
        if qa.edge_endpoints() != qb.edge_endpoints() {
            return Err(format!("edge endpoints diverged for {:?}", qa.qid));
        }
        if qa.tree().children != qb.tree().children {
            return Err(format!("tree structure diverged for {:?}", qa.qid));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Cached snapshots equal from-scratch re-encodes at every event of
    /// a random admission/completion/resize/retirement sequence, whether
    /// built fresh or refilled over the previous event's snapshot (whose
    /// query count and plans differ; its cache is never evicted, so
    /// reused query ids meet stale entries).
    #[test]
    fn cached_snapshot_equals_fresh_across_event_sequences(
        seed in 0u64..10_000,
        steps in 1usize..40,
    ) {
        let fcfg = FeatureConfig::default();
        let pool = tpch::plan_pool(&[0.3]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = SnapshotCache::new();
        let mut queries: Vec<QueryRuntime> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        let mut next_qid = 0u64;
        let mut total_threads = 8usize;
        let mut reused = SystemSnapshot::default();
        let mut reused_cache = SnapshotCache::new();

        for step in 0..steps {
            apply_random_event(
                &mut rng,
                &mut queries,
                &mut retired,
                &mut next_qid,
                &mut total_threads,
                &mut cache,
                &pool,
            );
            let busy: usize = queries.iter().map(|q| q.assigned_threads).sum();
            let free: Vec<usize> = (busy.min(total_threads)..total_threads).collect();
            let hot = QueryHot::from_queries(&queries);
            let ctx = SchedContext {
                time: step as f64 * 0.25,
                total_threads,
                free_threads: free.len(),
                free_thread_ids: &free,
                queries: &queries,
                hot: &hot,
                in_flight_mem: 0.0,
                mem_budget: f64::INFINITY,
            };
            let cached = snapshot_cached(&fcfg, &ctx, &mut cache);
            let fresh = snapshot(&fcfg, &ctx);
            if let Err(e) = assert_snapshots_identical(&cached, &fresh) {
                prop_assert!(false, "step {}: {}", step, e);
            }
            snapshot_cached_into(&fcfg, &ctx, &mut reused_cache, &mut reused);
            if let Err(e) = assert_snapshots_identical(&reused, &fresh) {
                prop_assert!(false, "step {} (reused snapshot): {}", step, e);
            }
        }
        // The cache must actually be caching: with any admissions at all,
        // repeated events over live queries produce hits.
        prop_assert!(cache.misses() > 0 || queries.is_empty());
    }
}
