//! Equivalence proptests for the incremental scheduling frontier.
//!
//! The simulator and the executor maintain per-query scheduling state
//! incrementally (pending-producer counters plus a cached sorted
//! frontier; see `QueryRuntime::after_transition`). The legacy
//! full-rescan path (`refresh_statuses`) is retained as the reference
//! oracle. These tests pin the two bit-identical:
//!
//! 1. on random DAGs under random transition sequences (start, work-order
//!    completion, forced finish, fault revert), the incremental frontier
//!    must equal what a from-scratch rescan computes;
//! 2. whole simulation runs — fault-free and under
//!    `FaultPlan::standard_matrix` — must produce bit-identical
//!    `SimResult`s with `SimConfig::reference_mode` on and off.

use std::sync::Arc;

use proptest::prelude::*;

use lsched_engine::fault::FaultPlan;
use lsched_engine::plan::{OpId, OpKind, OpSpec, PhysicalPlan, PlanBuilder};
use lsched_engine::scheduler::{
    OpStatus, QueryId, QueryRuntime, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_engine::sim::{try_simulate, SimConfig, SimResult, WorkloadItem};
use lsched_engine::stats::WorkOrderStats;

/// Builds a random connected binary tree rooted at op 0: op `i` (i > 0)
/// produces into an earlier op picked by `links[i-1]` among those with
/// fewer than two producers — always possible, since ops `0..i` offer
/// `2i` producer slots and only `i-1` are taken. `npb[i]` sets the
/// edge's pipeline-breaking flag.
fn random_plan(n: usize, links: &[usize], npb: &[bool], wos: &[u32]) -> Arc<PhysicalPlan> {
    let mut b = PlanBuilder::new("prop");
    let ids: Vec<OpId> = (0..n)
        .map(|i| {
            b.add_op(
                if i == 0 { OpKind::Select } else { OpKind::TableScan },
                OpSpec::Synthetic,
                vec![0],
                vec![0],
                1e3,
                wos[i % wos.len()].max(1),
                0.005,
                1e3,
            )
        })
        .collect();
    let mut in_degree = vec![0usize; n];
    for i in 1..n {
        let candidates: Vec<usize> = (0..i).filter(|&j| in_degree[j] < 2).collect();
        let consumer = candidates[links[(i - 1) % links.len()] % candidates.len()];
        in_degree[consumer] += 1;
        b.connect(ids[i], ids[consumer], npb[i % npb.len()]);
    }
    Arc::new(b.finish(ids[0]))
}

/// The from-scratch oracle: clone the runtime, recompute every
/// Blocked/Schedulable status by full rescan, and read the schedulable
/// set off the statuses.
fn oracle_frontier(q: &QueryRuntime) -> (Vec<OpId>, Vec<OpStatus>) {
    let mut clone = q.clone();
    clone.refresh_statuses();
    (clone.schedulable_ops_scan(), clone.ops.iter().map(|o| o.status).collect())
}

fn dummy_stats() -> WorkOrderStats {
    WorkOrderStats { duration: 0.004, memory: 900.0, output_rows: 10, completed_at: 1.0 }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Incremental frontier == full-rescan oracle after every single
    /// transition of a random action sequence over a random DAG,
    /// including mid-chain forced starts and fault reverts.
    #[test]
    fn incremental_frontier_matches_rescan_oracle(
        n in 2usize..11,
        links in prop::collection::vec(0usize..64, 16),
        npb in prop::collection::vec(any::<bool>(), 8),
        wos in prop::collection::vec(1u32..4, 4),
        actions in prop::collection::vec((0usize..64, 0u8..4), 0..80),
    ) {
        let plan = random_plan(n, &links, &npb, &wos);
        let mut q = QueryRuntime::new(QueryId(0), plan, 0.0, 4);

        for (pick, kind) in actions {
            let op = OpId(pick % n);
            let status = q.ops[op.0].status;
            match kind {
                // Start: legal on Schedulable ops and on Blocked chain
                // members (deeper pipeline ops started in one decision).
                0 if matches!(status, OpStatus::Schedulable | OpStatus::Blocked) => {
                    q.mark_running(op);
                    q.ops[op.0].dispatched_work_orders += 1;
                }
                // Work-order completion (last one flips to Finished).
                1 if status == OpStatus::Running => {
                    if q.ops[op.0].dispatched_work_orders == 0 {
                        q.ops[op.0].dispatched_work_orders += 1;
                    }
                    q.observe_wo_completion(op, &dummy_stats());
                }
                // Exact-finish retirement without a final completion.
                2 if status == OpStatus::Running => {
                    let rt = &mut q.ops[op.0];
                    rt.total_work_orders = rt.completed_work_orders;
                    rt.dispatched_work_orders = 0;
                    q.force_finish(op);
                }
                // Fault revert: pipeline torn down mid-run.
                3 if status == OpStatus::Running => {
                    q.ops[op.0].dispatched_work_orders = 0;
                    q.revert_from_running(op);
                }
                _ => continue,
            }

            let (oracle, statuses) = oracle_frontier(&q);
            prop_assert_eq!(
                q.schedulable_ops(), oracle.as_slice(),
                "frontier diverged from rescan oracle"
            );
            let live: Vec<OpStatus> = q.ops.iter().map(|o| o.status).collect();
            prop_assert_eq!(live, statuses, "statuses diverged from rescan oracle");
            prop_assert_eq!(q.has_schedulable(), !q.schedulable_ops().is_empty());
            prop_assert_eq!(
                q.is_finished(),
                q.ops.iter().all(|o| o.status == OpStatus::Finished),
                "finished-op counter diverged"
            );
            // The frontier is sorted and duplicate-free.
            prop_assert!(q.schedulable_ops().windows(2).all(|w| w[0] < w[1]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The structure-of-arrays hot mirror, maintained incrementally via
    /// `QueryHot::push`/`remove`/`sync` and refreshed at irregular
    /// steps (`QueryHot::refresh`), matches the from-scratch
    /// struct-walking oracle over eagerly fitted regressors
    /// (`QueryHot::from_queries`) after every step of a random
    /// admission / transition / retirement sequence: the eagerly kept
    /// columns at every step, every column bit for bit after each
    /// refresh, and a second refresh changes nothing. The id map kept
    /// alongside it (`QueryIdMap::insert`/`remove`) matches a linear
    /// scan of the query list for every id ever issued.
    #[test]
    fn soa_hot_mirror_matches_struct_oracle(
        links in prop::collection::vec(0usize..64, 16),
        npb in prop::collection::vec(any::<bool>(), 8),
        wos in prop::collection::vec(1u32..4, 4),
        actions in prop::collection::vec((0usize..64, 0u8..8), 0..80),
    ) {
        use lsched_engine::scheduler::{QueryHot, QueryIdMap};

        let mut queries: Vec<QueryRuntime> = Vec::new();
        let mut hot = QueryHot::new();
        let mut ids = QueryIdMap::new();
        let mut next_qid = 0u64;

        for (step, (pick, kind)) in actions.into_iter().enumerate() {
            match kind {
                // Admission: a fresh random plan joins the tail.
                0 | 1 => {
                    let n = 2 + (pick % 6);
                    let plan = random_plan(n, &links[pick % 8..], &npb, &wos);
                    ids.insert(QueryId(next_qid), queries.len());
                    queries.push(QueryRuntime::new(QueryId(next_qid), plan, step as f64, 4));
                    hot.push(queries.last().unwrap());
                    next_qid += 1;
                }
                // Retirement: one query leaves mid-flight.
                2 if !queries.is_empty() => {
                    let qi = pick % queries.len();
                    let gone = queries.remove(qi);
                    hot.remove(qi);
                    ids.remove(gone.qid, qi, &queries[qi..]);
                }
                // Deadline / priority / thread-grant churn: a sync with
                // no frontier transition must leave every column as is.
                3 if !queries.is_empty() => {
                    let qi = pick % queries.len();
                    let q = &mut queries[qi];
                    q.deadline = if pick % 3 == 0 { None } else { Some(step as f64 + 1.0) };
                    q.priority = (pick % 5) as i32 - 2;
                    q.assigned_threads = pick % 3;
                    hot.sync(qi, &queries[qi]);
                }
                // Frontier transitions (start / complete / finish /
                // revert), mirroring the rescan-oracle test above.
                _ if !queries.is_empty() => {
                    let qi = pick % queries.len();
                    let q = &mut queries[qi];
                    let op = OpId(pick % q.ops.len());
                    let status = q.ops[op.0].status;
                    match kind {
                        4 if matches!(status, OpStatus::Schedulable | OpStatus::Blocked) => {
                            q.mark_running(op);
                            q.ops[op.0].dispatched_work_orders += 1;
                            q.assigned_threads += 1;
                        }
                        5 if status == OpStatus::Running => {
                            if q.ops[op.0].dispatched_work_orders == 0 {
                                q.ops[op.0].dispatched_work_orders += 1;
                            }
                            // Varying durations move the regression, so
                            // the `est_work` column sees real changes.
                            let stats = WorkOrderStats {
                                duration: 0.001 * (1 + (pick + step) % 7) as f64,
                                ..dummy_stats()
                            };
                            q.observe_wo_completion(op, &stats);
                        }
                        6 if status == OpStatus::Running => {
                            let rt = &mut q.ops[op.0];
                            rt.total_work_orders = rt.completed_work_orders;
                            rt.dispatched_work_orders = 0;
                            q.force_finish(op);
                        }
                        7 if status == OpStatus::Running => {
                            q.ops[op.0].dispatched_work_orders = 0;
                            q.revert_from_running(op);
                            q.assigned_threads = q.assigned_threads.saturating_sub(1);
                        }
                        _ => continue,
                    }
                    if q.ops.iter().all(|o| o.status == OpStatus::Finished) {
                        q.finish_time = Some(step as f64);
                    }
                    hot.sync(qi, &queries[qi]);
                }
                _ => continue,
            }

            // The oracle: every regressor fitted eagerly, every row
            // derived from scratch (on a copy, so the mirror's own
            // refresh below is what brings `queries` up to date).
            let mut eager = queries.clone();
            for q in &mut eager {
                q.refresh_estimates();
            }
            let oracle = QueryHot::from_queries(&eager);
            if pick % 4 == 0 {
                // No refresh this step: the eager columns (and the
                // schedulable counter) must still be current.
                hot_columns_match(&hot, &oracle, false)?;
            } else {
                hot.refresh(&mut queries);
                prop_assert!(hot.is_refreshed());
                hot_columns_match(&hot, &oracle, true)?;
                let direct: Vec<u64> =
                    queries.iter().map(|q| q.est_remaining_work().to_bits()).collect();
                let live: Vec<u64> = hot.est_work.iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(live, direct, "est-work column != est_remaining_work()");
                // A second refresh with no sync in between changes
                // nothing.
                let before = hot.clone();
                hot.refresh(&mut queries);
                hot_columns_match(&hot, &before, true)?;
            }
            for id in 0..next_qid {
                let qid = QueryId(id);
                prop_assert_eq!(
                    ids.get(qid),
                    queries.iter().position(|q| q.qid == qid),
                    "id map diverged from a linear scan"
                );
            }
        }
    }
}

/// Compares two hot mirrors column by column, floats bit for bit. The
/// estimate columns (`remaining_wos`, `est_work`) are compared only when
/// `estimates` is set, i.e. after a refresh.
fn hot_columns_match(
    hot: &lsched_engine::scheduler::QueryHot,
    oracle: &lsched_engine::scheduler::QueryHot,
    estimates: bool,
) -> Result<(), String> {
    let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    prop_assert_eq!(hot.len(), oracle.len(), "row count diverged");
    prop_assert_eq!(&hot.frontier_len, &oracle.frontier_len, "frontier-cursor column diverged");
    prop_assert_eq!(hot.n_schedulable(), oracle.n_schedulable(), "schedulable counter diverged");
    prop_assert_eq!(hot.any_schedulable(), oracle.any_schedulable());
    if estimates {
        prop_assert_eq!(&hot.remaining_wos, &oracle.remaining_wos, "remaining-work column diverged");
        prop_assert_eq!(bits(&hot.est_work), bits(&oracle.est_work), "est-work column diverged");
    }
    Ok(())
}

/// Greedy test policy: schedules every schedulable root it sees, FIFO
/// across queries, splitting free threads.
struct GreedyFifo;

impl Scheduler for GreedyFifo {
    fn name(&self) -> String {
        "greedy_fifo_props".into()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let mut out = Vec::new();
        let mut free = ctx.free_threads;
        for q in ctx.queries {
            for &root in q.schedulable_ops() {
                if free == 0 {
                    return out;
                }
                let threads = (free / 2).max(1);
                free -= threads;
                out.push(SchedDecision {
                    query: q.qid,
                    root,
                    pipeline_degree: q.plan.longest_npb_chain(root),
                    threads,
                });
            }
        }
        out
    }
}

/// Field-by-field `SimResult` identity, excluding the one legitimately
/// nondeterministic field (`sched_wall_time` is wall-clock).
fn assert_bit_identical(a: &SimResult, b: &SimResult) -> Result<(), String> {
    prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    prop_assert_eq!(a.sched_invocations, b.sched_invocations);
    prop_assert_eq!(a.sched_decisions, b.sched_decisions);
    prop_assert_eq!(a.sched_rejected, b.sched_rejected);
    prop_assert_eq!(a.fallback_decisions, b.fallback_decisions);
    prop_assert_eq!(a.total_work_orders, b.total_work_orders);
    prop_assert_eq!(a.events_processed, b.events_processed);
    prop_assert_eq!(a.fault_summary, b.fault_summary);
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    prop_assert_eq!(a.aborted.len(), b.aborted.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes).chain(a.aborted.iter().zip(&b.aborted)) {
        prop_assert_eq!(x.qid, y.qid);
        prop_assert_eq!(&x.name, &y.name);
        prop_assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
        prop_assert_eq!(x.finish.to_bits(), y.finish.to_bits());
        prop_assert_eq!(x.duration.to_bits(), y.duration.to_bits());
    }
    Ok(())
}

fn random_workload(
    queries: usize,
    links: &[usize],
    npb: &[bool],
    wos: &[u32],
) -> Vec<WorkloadItem> {
    (0..queries)
        .map(|i| WorkloadItem::new(i as f64 * 0.02, random_plan(2 + i % 7, &links[i % 8..], npb, wos)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Fault-free runs: the overhauled event loop (id map, pipeline
    /// lists, doomed bitset, incremental frontier, scratch reuse) is
    /// bit-identical to the legacy reference loop.
    #[test]
    fn sim_result_identical_fault_free(
        seed in 0u64..1000,
        threads in 2usize..9,
        links in prop::collection::vec(0usize..64, 16),
        npb in prop::collection::vec(any::<bool>(), 8),
        wos in prop::collection::vec(1u32..5, 4),
    ) {
        let wl = random_workload(8, &links, &npb, &wos);
        let cfg = SimConfig { num_threads: threads, seed, ..Default::default() };
        let fast = try_simulate(cfg.clone(), &wl, &mut GreedyFifo).unwrap();
        let reference = try_simulate(
            SimConfig { reference_mode: true, ..cfg },
            &wl,
            &mut GreedyFifo,
        )
        .unwrap();
        assert_bit_identical(&fast, &reference)?;
    }

    /// Under the standard fault matrix (worker loss re-exposing work
    /// orders, transient failures with retry, stragglers, mid-flight
    /// cancellation tearing pipelines down), the incremental frontier
    /// still tracks the rescan loop bit for bit.
    #[test]
    fn sim_result_identical_under_fault_matrix(
        seed in 0u64..1000,
        links in prop::collection::vec(0usize..64, 16),
        npb in prop::collection::vec(any::<bool>(), 8),
        wos in prop::collection::vec(2u32..6, 4),
    ) {
        let wl = random_workload(10, &links, &npb, &wos);
        let threads = 6;
        let base = SimConfig { num_threads: threads, seed, ..Default::default() };
        let horizon = try_simulate(base.clone(), &wl, &mut GreedyFifo).unwrap().makespan;
        let faults = FaultPlan::standard_matrix(seed, threads, wl.len(), horizon);
        let cfg = SimConfig { faults: Some(faults), ..base };
        let fast = try_simulate(cfg.clone(), &wl, &mut GreedyFifo).unwrap();
        let reference = try_simulate(
            SimConfig { reference_mode: true, ..cfg },
            &wl,
            &mut GreedyFifo,
        )
        .unwrap();
        prop_assert!(fast.outcomes.len() + fast.aborted.len() == wl.len(), "conservation");
        assert_bit_identical(&fast, &reference)?;
    }
}
