//! Regression tests for the simulator's wake-up path.
//!
//! When a work order completes, the fast event loop probes each live
//! pipeline of the query only until its first stall, puts a re-stalled
//! completing thread at the front of its pipeline's stalled list, and
//! hands a new pipeline's granted threads work only until the first one
//! stalls. `SimConfig::reference_mode` keeps the legacy sweep, which
//! re-dispatches every stalled thread. The scenarios below are built to
//! stall many threads at once. Each one runs both loops and requires a
//! bit-identical `SimResult` and an identical work-order trace, which
//! pins the order of dispatches, the thread chosen for each work order,
//! and every RNG draw.

use std::sync::Arc;

use lsched_engine::fault::FaultPlan;
use lsched_engine::plan::{OpId, OpKind, OpSpec, PhysicalPlan, PlanBuilder};
use lsched_engine::scheduler::{SchedContext, SchedDecision, SchedEvent, Scheduler};
use lsched_engine::sim::{try_simulate, SimConfig, SimResult, WorkloadItem};
use lsched_engine::trace::{trace_sink, TraceEntry};

fn op(b: &mut PlanBuilder, kind: OpKind, wos: u32, wo_duration: f64) -> OpId {
    b.add_op(kind, OpSpec::Synthetic, vec![0], vec![0], 1e3, wos, wo_duration, 1e3)
}

/// A chain of `depth` operators joined by non-pipeline-breaking edges:
/// a slow scan with few work orders under fast consumers with many. A
/// full-chain pipeline with more threads than scan work orders keeps
/// most of its threads stalled, and each scan completion unblocks only a
/// few consumer work orders.
fn deep_chain(name: &str, depth: usize, scan_wos: u32) -> Arc<PhysicalPlan> {
    let mut b = PlanBuilder::new(name);
    let mut below = op(&mut b, OpKind::TableScan, scan_wos, 0.02);
    for level in 1..depth {
        let wos = scan_wos * (2 + level as u32 % 3);
        let up = op(&mut b, OpKind::Select, wos, 0.001 + 0.0005 * level as f64);
        b.connect(below, up, true);
        below = up;
    }
    Arc::new(b.finish(below))
}

/// Two scan → select branches under a join (the left branch behind a
/// pipeline-breaking edge, the right one pipelined). Started one
/// operator per pipeline, a query runs several pipelines at once whose
/// consumers are woken only by producer completions in a sibling
/// pipeline.
fn fan(name: &str, scan_wos: u32) -> Arc<PhysicalPlan> {
    let mut b = PlanBuilder::new(name);
    let join = op(&mut b, OpKind::ProbeHash, scan_wos * 2, 0.002);
    for (i, npb_to_join) in [false, true].into_iter().enumerate() {
        let scan = op(&mut b, OpKind::TableScan, scan_wos + i as u32, 0.015);
        let sel = op(&mut b, OpKind::Select, scan_wos * 3, 0.001);
        b.connect(scan, sel, true);
        b.connect(sel, join, npb_to_join);
    }
    Arc::new(b.finish(join))
}

/// FIFO-like: every free thread goes to the oldest query's first
/// schedulable root, as one pipeline over its whole chain.
struct AllToOldest;

impl Scheduler for AllToOldest {
    fn name(&self) -> String {
        "all_to_oldest".into()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        for q in ctx.queries {
            if let Some(&root) = q.schedulable_ops().first() {
                return vec![SchedDecision {
                    query: q.qid,
                    root,
                    pipeline_degree: q.plan.longest_npb_chain(root),
                    threads: ctx.free_threads,
                }];
            }
        }
        Vec::new()
    }
}

/// One single-operator pipeline per schedulable root, two threads each,
/// oldest query first — so one query holds several live pipelines.
struct OnePipelinePerOp;

impl Scheduler for OnePipelinePerOp {
    fn name(&self) -> String {
        "one_pipeline_per_op".into()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let mut out = Vec::new();
        let mut free = ctx.free_threads;
        for q in ctx.queries {
            for &root in q.schedulable_ops() {
                if free == 0 {
                    return out;
                }
                let threads = free.min(2);
                free -= threads;
                out.push(SchedDecision { query: q.qid, root, pipeline_degree: 1, threads });
            }
        }
        out
    }
}

fn chain_workload(n: usize) -> Vec<WorkloadItem> {
    (0..n)
        .map(|i| {
            let plan = deep_chain(&format!("chain{i}"), 3 + i % 4, 2 + (i % 3) as u32);
            WorkloadItem::new(i as f64 * 0.004, plan)
        })
        .collect()
}

fn fan_workload(n: usize) -> Vec<WorkloadItem> {
    (0..n)
        .map(|i| WorkloadItem::new(i as f64 * 0.01, fan(&format!("fan{i}"), 2 + (i % 3) as u32)))
        .collect()
}

fn run(
    cfg: &SimConfig,
    wl: &[WorkloadItem],
    policy: &mut dyn Scheduler,
) -> (SimResult, Vec<TraceEntry>) {
    let sink = trace_sink();
    let cfg = SimConfig { trace: Some(Arc::clone(&sink)), ..cfg.clone() };
    let result = try_simulate(cfg, wl, policy).expect("simulation completes");
    let trace = sink.lock().clone();
    (result, trace)
}

/// Runs `cfg` with the fast loop and with `reference_mode`, asserts the
/// two are bit-identical (result and work-order trace), and returns the
/// fast run's result.
fn assert_fast_matches_reference(
    cfg: &SimConfig,
    wl: &[WorkloadItem],
    make_policy: fn() -> Box<dyn Scheduler>,
) -> SimResult {
    let (fast, fast_trace) = run(cfg, wl, make_policy().as_mut());
    let reference_cfg = SimConfig { reference_mode: true, ..cfg.clone() };
    let (reference, reference_trace) = run(&reference_cfg, wl, make_policy().as_mut());
    assert!(fast.bit_eq(&reference), "fast loop diverged from reference_mode (seed {})", cfg.seed);
    assert_eq!(fast_trace.len(), reference_trace.len(), "work-order count (seed {})", cfg.seed);
    if let Some(i) = (0..fast_trace.len()).find(|&i| fast_trace[i] != reference_trace[i]) {
        panic!(
            "work order {i} diverged (seed {}): fast {:?}, reference {:?}",
            cfg.seed, fast_trace[i], reference_trace[i]
        );
    }
    assert_eq!(fast.outcomes.len() + fast.aborted.len(), wl.len(), "every query has one fate");
    fast
}

fn all_to_oldest() -> Box<dyn Scheduler> {
    Box::new(AllToOldest)
}

fn one_pipeline_per_op() -> Box<dyn Scheduler> {
    Box::new(OnePipelinePerOp)
}

#[test]
fn every_thread_on_one_deep_chain_with_a_slow_producer() {
    let wl = chain_workload(12);
    for seed in 0..6 {
        for threads in [5, 8, 13] {
            let cfg = SimConfig { num_threads: threads, seed, ..Default::default() };
            assert_fast_matches_reference(&cfg, &wl, all_to_oldest);
        }
    }
}

#[test]
fn several_live_pipelines_per_query() {
    let wl = fan_workload(10);
    for seed in 0..6 {
        for threads in [4, 7, 12] {
            let cfg = SimConfig { num_threads: threads, seed, ..Default::default() };
            assert_fast_matches_reference(&cfg, &wl, one_pipeline_per_op);
        }
    }
}

#[test]
fn losing_busy_workers_of_a_pipeline_with_stalled_siblings() {
    let mut lost_in_flight = 0;
    for (wl, make_policy) in [
        (chain_workload(12), all_to_oldest as fn() -> Box<dyn Scheduler>),
        (fan_workload(10), one_pipeline_per_op),
    ] {
        for seed in 0..6 {
            let threads = 10;
            let base = SimConfig { num_threads: threads, seed, ..Default::default() };
            let horizon = run(&base, &wl, make_policy().as_mut()).0.makespan;
            // Losses one at a time across the run, most of them rejoining:
            // each picks the highest live thread id, so stalled victims are
            // reaped and the later picks land on busy threads whose
            // siblings stay stalled.
            let worker_loss: Vec<(f64, usize)> = (1..8)
                .map(|i| (horizon * (0.07 * i as f64 + 0.01 * seed as f64), 1 + i % 2))
                .collect();
            let worker_rejoin =
                worker_loss.iter().step_by(2).map(|&(t, n)| (t + 0.2 * horizon, n)).collect();
            let faults = FaultPlan { seed, worker_loss, worker_rejoin, ..FaultPlan::default() };
            let cfg = SimConfig { faults: Some(faults), ..base };
            let fast = assert_fast_matches_reference(&cfg, &wl, make_policy);
            lost_in_flight += fast.fault_summary.wo_lost_with_worker;
        }
    }
    assert!(lost_in_flight > 0, "no busy worker was lost: the scenario misses the doomed path");
}

#[test]
fn cancelling_a_query_and_shrinking_the_pool_while_threads_are_stalled() {
    let mut cancelled = 0;
    for (wl, make_policy) in [
        (chain_workload(12), all_to_oldest as fn() -> Box<dyn Scheduler>),
        (fan_workload(10), one_pipeline_per_op),
    ] {
        for seed in 0..6 {
            let threads = 9;
            let base = SimConfig { num_threads: threads, seed, ..Default::default() };
            let horizon = run(&base, &wl, make_policy().as_mut()).0.makespan;
            let cancellations =
                (0..3).map(|i| (horizon * (0.15 + 0.2 * i as f64), seed + 3 * i)).collect();
            let faults = FaultPlan { seed, cancellations, ..FaultPlan::default() };
            let pool_resizes =
                vec![(horizon * 0.1, 4), (horizon * 0.3, 2), (horizon * 0.6, threads)];
            let cfg = SimConfig { faults: Some(faults), pool_resizes, ..base };
            let fast = assert_fast_matches_reference(&cfg, &wl, make_policy);
            cancelled += fast.fault_summary.queries_cancelled;
        }
    }
    assert!(cancelled > 0, "no query was cancelled mid-flight");
}
