//! Property tests for the incremental encoding split: across randomized
//! event sequences (query admissions, work-order completions, worker
//! pool resizes, query retirements — with and without cache eviction,
//! including query-id reuse), [`snapshot_cached`] must produce snapshots
//! element-wise identical to the from-scratch [`snapshot`] reference, and
//! so must [`snapshot_cached_into`] refilling one reused snapshot.
//!
//! The cache also keeps every operator's dynamic OPF tail and recomputes
//! it only when its inputs moved. A second property drives the runtime
//! the way the engines do — pipelines started and torn down by worker
//! loss, completions, the executor's dispatch-time and exact-finish
//! rewrites of the work-order total, cancellation, a deadline retry under
//! a fresh id on the same plan, and `reset` followed by the old ids on
//! other (or the same) plans — and requires the tails bit for bit equal
//! to a from-scratch snapshot at every step.

use std::sync::Arc;

use lsched_core::features::{
    snapshot, snapshot_cached, snapshot_cached_into, FeatureConfig, SnapshotCache, SystemSnapshot,
};
use lsched_engine::plan::OpId;
use lsched_engine::scheduler::{OpStatus, QueryHot, QueryId, QueryRuntime, SchedContext};
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

/// The live query set and id counter of one engine run, churned the way
/// the simulator and the executor mutate operator state.
struct Churn {
    queries: Vec<QueryRuntime>,
    next_qid: u64,
    total_threads: usize,
    completions: usize,
}

impl Churn {
    fn admit(&mut self, rng: &mut StdRng, pool: &[Arc<lsched_engine::plan::PhysicalPlan>]) {
        let plan = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
        self.queries.push(QueryRuntime::new(QueryId(self.next_qid), plan, 0.0, self.total_threads));
        self.next_qid += 1;
    }

    /// A random live query and one of its operators in `status`.
    fn pick(&self, rng: &mut StdRng, status: OpStatus) -> Option<(usize, usize)> {
        if self.queries.is_empty() {
            return None;
        }
        let qi = rng.gen_range(0..self.queries.len());
        let ops: Vec<usize> = (0..self.queries[qi].ops.len())
            .filter(|&o| self.queries[qi].ops[o].status == status)
            .collect();
        (!ops.is_empty()).then(|| (qi, ops[rng.gen_range(0..ops.len())]))
    }

    fn step(
        &mut self,
        rng: &mut StdRng,
        cache: &mut SnapshotCache,
        pool: &[Arc<lsched_engine::plan::PhysicalPlan>],
    ) {
        match rng.gen_range(0u32..16) {
            0..=2 => self.admit(rng, pool),
            // Start a pipeline at a schedulable operator.
            3 => {
                if let Some((qi, op)) = self.pick(rng, OpStatus::Schedulable) {
                    self.queries[qi].mark_running(OpId(op));
                }
            }
            // Dispatch one work order of a running operator and complete
            // it with random stats; the executor raises the total when it
            // dispatches beyond the planned count.
            4..=8 => {
                if let Some((qi, op)) = self.pick(rng, OpStatus::Running) {
                    let q = &mut self.queries[qi];
                    let rt = &mut q.ops[op];
                    if rt.undispatched_work_orders() == 0 {
                        rt.total_work_orders += 1;
                    }
                    rt.dispatched_work_orders += 1;
                    q.observe_wo_completion(
                        OpId(op),
                        &WorkOrderStats {
                            duration: rng.gen_range(0.001f64..0.5),
                            memory: rng.gen_range(1e3f64..1e6),
                            output_rows: 100,
                            completed_at: 0.0,
                        },
                    );
                    q.refresh_estimates();
                    self.completions += 1;
                }
            }
            // Worker loss tears a pipeline down: its in-flight work
            // orders are lost and the operator reverts.
            9 => {
                if let Some((qi, op)) = self.pick(rng, OpStatus::Running) {
                    self.queries[qi].ops[op].dispatched_work_orders = 0;
                    self.queries[qi].revert_from_running(OpId(op));
                }
            }
            // Worker rejoin (or loss): the pool resizes.
            10 => self.total_threads = rng.gen_range(2usize..33),
            // The executor's exact finish: the total drops to the
            // completed count with no completion.
            11 => {
                if let Some((qi, op)) = self.pick(rng, OpStatus::Running) {
                    let q = &mut self.queries[qi];
                    q.ops[op].dispatched_work_orders = 0;
                    q.ops[op].total_work_orders = q.ops[op].completed_work_orders;
                    q.force_finish(OpId(op));
                }
            }
            // Cancellation: the query leaves; its entry is evicted half
            // the time.
            12 if !self.queries.is_empty() => {
                let q = self.queries.remove(rng.gen_range(0..self.queries.len()));
                if rng.gen_range(0u32..2) == 0 {
                    cache.evict(q.qid);
                }
            }
            // Deadline retry: the query restarts from scratch on the same
            // plan under a fresh id (the old entry is left in place).
            13 if !self.queries.is_empty() => {
                let qi = rng.gen_range(0..self.queries.len());
                let plan = Arc::clone(&self.queries[qi].plan);
                self.queries[qi] =
                    QueryRuntime::new(QueryId(self.next_qid), plan, 0.0, self.total_threads);
                self.next_qid += 1;
            }
            // Reset: a new run starts its ids from zero again, on plans
            // drawn afresh (other or the same ones); the agent clears its
            // cache, a wrapper that misses the reset does not.
            14 => {
                self.queries.clear();
                self.next_qid = 0;
                if rng.gen_range(0u32..2) == 0 {
                    cache.clear();
                }
                for _ in 0..rng.gen_range(1..4) {
                    self.admit(rng, pool);
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every dynamic tail of a cached snapshot equals the from-scratch
    /// extraction, bit for bit, at every step of an engine-like churn.
    #[test]
    fn cached_tails_equal_fresh_under_engine_churn(seed in 0u64..10_000, steps in 1usize..80) {
        let fcfg = FeatureConfig::default();
        let pool = tpch::plan_pool(&[0.3]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = SnapshotCache::new();
        let mut churn = Churn { queries: Vec::new(), next_qid: 0, total_threads: 8, completions: 0 };
        let mut snap = SystemSnapshot::default();
        for step in 0..steps {
            churn.step(&mut rng, &mut cache, &pool);
            let queries = &churn.queries;
            let free: Vec<usize> = (0..churn.total_threads).collect();
            let hot = QueryHot::from_queries(queries);
            let ctx = SchedContext {
                time: step as f64,
                total_threads: churn.total_threads,
                free_threads: free.len(),
                free_thread_ids: &free,
                queries,
                hot: &hot,
                in_flight_mem: 0.0,
                mem_budget: f64::INFINITY,
            };
            snapshot_cached_into(&fcfg, &ctx, &mut cache, &mut snap);
            let fresh = snapshot(&fcfg, &ctx);
            if let Err(e) = assert_snapshots_identical(&snap, &fresh) {
                prop_assert!(false, "step {}: {}", step, e);
            }
            for (a, b) in snap.queries.iter().zip(&fresh.queries) {
                let bits = |q: &lsched_core::features::QuerySnapshot| -> Vec<[u32; 3]> {
                    q.opf_dyn.iter().map(|t| t.map(f32::to_bits)).collect()
                };
                prop_assert_eq!(bits(a), bits(b), "step {}: tails of {:?}", step, a.qid);
            }
        }
        // Completions on live entries move tails through the cache.
        prop_assert!(cache.tail_updates() > 0 || churn.completions < 4);
    }
}
