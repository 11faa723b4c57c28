//! Simulator event-loop throughput: the tick-batched incremental event
//! loop against the legacy full-rescan reference loop
//! (`SimConfig::reference_mode`), measured in the same process on the
//! same workloads, plus the PR's hard acceptance checks: `SimResult`
//! must be bit-identical between the two loops for every (seed, policy)
//! pair — fault-free and under `FaultPlan::standard_matrix` — and the
//! fast loop must reach >= 2x the reference events/sec at 1024
//! concurrent queries, end to end: total reference wall over total fast
//! wall, scheduler time included. Events/sec is reported both over
//! total wall time and over loop time (wall minus `sched_wall_time`,
//! isolating the event loop itself; informational), for every
//! multiprogramming level. A
//! decision-latency histogram (p50/p95/p99 ns per scheduler
//! invocation, tick batches included) is collected for the guarded
//! LSched policy under the overload bench's bursty arrival pattern.
//! When built with `--features count-allocs`, steady-state event
//! processing must additionally perform zero heap allocations.
//!
//! ```text
//! sim_throughput [--threads N] [--mpl N[,N...]] [--out PATH]
//! ```
//!
//! `--mpl` takes a comma-separated list of multiprogramming levels (the
//! CI verify job runs `--mpl 1024`; `--mpl 128,1024` sweeps both in one
//! invocation); the speedup gate applies at the largest level given.
//! Writes a JSON report (default `BENCH_pr6.json`) and exits non-zero
//! if any criterion fails.

use std::time::Instant;

use serde::Serialize;

use lsched_core::{LSchedConfig, LSchedModel, LSchedScheduler};
use lsched_engine::fault::FaultPlan;
use lsched_engine::scheduler::{
    AdmissionResponse, PolicyHealth, QueryId, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_engine::sim::{try_simulate, SimConfig, SimResult};
use lsched_sched::{
    CriticalPathScheduler, FairScheduler, FifoScheduler, GuardedScheduler, QuickstepScheduler,
    SjfScheduler,
};
use lsched_workloads::tpch;
use lsched_workloads::workload::{gen_workload, ArrivalPattern};

#[cfg(feature = "count-allocs")]
use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
#[cfg(feature = "count-allocs")]
use lsched_engine::sim::WorkloadItem;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: lsched_nn::alloc_count::CountingAllocator =
    lsched_nn::alloc_count::CountingAllocator;

/// Minimum fast/reference events-per-second ratio at the highest
/// multiprogramming level (acceptance criterion).
const MIN_SPEEDUP: f64 = 2.0;
/// Concurrent-query levels (batch arrivals, so the whole set is in
/// flight together).
const MPLS: [usize; 4] = [8, 32, 128, 1024];
/// Decision-latency p99 ceiling for the bursty-arrival histogram. The
/// tiny-model guarded LSched stack decides in tens of microseconds;
/// the generous bound catches order-of-magnitude regressions without
/// being sensitive to machine noise.
const MAX_P99_NS: u64 = 250_000_000;

#[derive(Debug, Serialize)]
struct PolicyRun {
    mpl: usize,
    policy: String,
    seed: u64,
    events: u64,
    fast_s: f64,
    reference_s: f64,
    /// Wall time minus `sched_wall_time`: the event loop proper. The
    /// policy runs identical code in both modes, so the headline
    /// events/sec is computed over loop time to measure what the
    /// overhaul changed; the `_total` fields below report the same
    /// ratios over full wall time (policy included) so neither view
    /// under- nor over-states the win at low mpl.
    fast_loop_s: f64,
    reference_loop_s: f64,
    fast_events_per_sec: f64,
    reference_events_per_sec: f64,
    speedup: f64,
    fast_events_per_sec_total: f64,
    reference_events_per_sec_total: f64,
    speedup_total: f64,
    episodes_per_sec: f64,
    identical: bool,
    identical_under_faults: bool,
}

#[derive(Debug, Serialize)]
struct LatencyHistogram {
    policy: String,
    queries: usize,
    arrival: String,
    /// Total timed scheduler invocations (per-event + accepted ticks).
    invocations: usize,
    /// Tick batches accepted by the policy (each is one invocation
    /// covering every deferred event of its timestamp).
    tick_batches: u64,
    per_event_invocations: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: u64,
    max_p99_ns: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    pr: u32,
    title: String,
    threads: usize,
    runs: Vec<PolicyRun>,
    /// Σ reference wall / Σ fast wall at `max_mpl` (the gated figure).
    speedup_at_max_mpl: f64,
    /// The same over loop time (wall minus scheduler time).
    loop_speedup_at_max_mpl: f64,
    max_mpl: usize,
    min_speedup_required: f64,
    all_identical: bool,
    decision_latency_histogram: LatencyHistogram,
    count_allocs_enabled: bool,
    steady_state_allocs: Option<u64>,
    passed: bool,
}

fn make_policy(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fifo" => Box::new(FifoScheduler),
        "fair" => Box::new(FairScheduler::default()),
        "sjf" => Box::new(SjfScheduler),
        "critical_path" => Box::new(CriticalPathScheduler),
        "quickstep" => Box::new(QuickstepScheduler),
        _ => unreachable!("unknown policy {name}"),
    }
}

const POLICIES: [&str; 5] = ["fifo", "fair", "sjf", "critical_path", "quickstep"];

/// Field-by-field identity, excluding wall-clock `sched_wall_time`.
fn identical(a: &SimResult, b: &SimResult) -> bool {
    let outcome_eq = |x: &lsched_engine::sim::QueryOutcome,
                      y: &lsched_engine::sim::QueryOutcome| {
        x.qid == y.qid
            && x.name == y.name
            && x.arrival.to_bits() == y.arrival.to_bits()
            && x.finish.to_bits() == y.finish.to_bits()
            && x.duration.to_bits() == y.duration.to_bits()
    };
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.sched_invocations == b.sched_invocations
        && a.sched_decisions == b.sched_decisions
        && a.sched_rejected == b.sched_rejected
        && a.fallback_decisions == b.fallback_decisions
        && a.total_work_orders == b.total_work_orders
        && a.events_processed == b.events_processed
        && a.fault_summary == b.fault_summary
        && a.outcomes.len() == b.outcomes.len()
        && a.aborted.len() == b.aborted.len()
        && a.outcomes.iter().zip(&b.outcomes).all(|(x, y)| outcome_eq(x, y))
        && a.aborted.iter().zip(&b.aborted).all(|(x, y)| outcome_eq(x, y))
}

/// Decorator timing every scheduler invocation — per-event calls and
/// accepted tick batches both count as one invocation each, since
/// that is the unit of decision latency a query arrival experiences.
struct Timed<S: Scheduler> {
    inner: S,
    samples_ns: Vec<u64>,
    tick_batches: u64,
    per_event: u64,
}

impl<S: Scheduler> Timed<S> {
    fn new(inner: S) -> Self {
        Self { inner, samples_ns: Vec::new(), tick_batches: 0, per_event: 0 }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        let t0 = Instant::now();
        let ds = self.inner.on_event(ctx, event);
        self.samples_ns.push(t0.elapsed().as_nanos() as u64);
        self.per_event += 1;
        ds
    }
    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        let t0 = Instant::now();
        let ds = self.inner.on_tick(ctx, events);
        // Declined batches are redelivered per event and timed there.
        if ds.is_some() {
            self.samples_ns.push(t0.elapsed().as_nanos() as u64);
            self.tick_batches += 1;
        }
        ds
    }
    fn admit(&mut self, ctx: &SchedContext<'_>, arriving: QueryId, attempt: u32) -> AdmissionResponse {
        self.inner.admit(ctx, arriving, attempt)
    }
    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        self.inner.on_decision_executed(ctx, decision);
    }
    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        self.inner.on_query_finished(time, query);
    }
    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        self.inner.on_query_cancelled(time, query);
    }
    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Small inference model matching the scale used by the overload and
/// training benches: big enough to exercise every head, cheap enough
/// that the histogram run measures scheduling, not GEMM time.
fn tiny_model(seed: u64) -> LSchedModel {
    let mut cfg = LSchedConfig::default();
    cfg.encoder.hidden = 10;
    cfg.encoder.edge_hidden = 4;
    cfg.encoder.pqe_dim = 6;
    cfg.encoder.aqe_dim = 6;
    cfg.encoder.conv_layers = 2;
    cfg.predictor.max_degree = 4;
    cfg.predictor.max_threads = 16;
    LSchedModel::new(cfg, seed)
}

/// Decision latency of the full production stack (guard + LSched
/// batched inference) under the overload bench's bursty arrivals.
fn latency_histogram(threads: usize, queries: usize) -> LatencyHistogram {
    let pool = tpch::plan_pool(&[0.3]);
    let seed = 17;

    // Capacity estimate from a cheap batch run, exactly as the overload
    // bench derives its burst intensities.
    let probe = gen_workload(&pool, queries.min(64), ArrivalPattern::Batch, seed);
    let cfg = SimConfig { num_threads: threads, seed, ..Default::default() };
    let base = try_simulate(cfg.clone(), &probe, &mut QuickstepScheduler)
        .expect("capacity probe cannot error");
    let capacity_qps = probe.len() as f64 / base.makespan.max(1e-9);

    let arrival = ArrivalPattern::Bursty {
        base_lambda: capacity_qps * 0.4,
        burst_lambda: capacity_qps * 3.0,
        period: 8.0 / capacity_qps.max(1e-9),
        burst_fraction: 0.25,
    };
    let wl = gen_workload(&pool, queries, arrival, seed);

    let mut timed = Timed::new(GuardedScheduler::new(LSchedScheduler::greedy(tiny_model(seed))));
    let res = try_simulate(cfg, &wl, &mut timed).expect("bursty run cannot error");
    assert_eq!(res.outcomes.len() + res.aborted.len(), queries);

    let mut samples = std::mem::take(&mut timed.samples_ns);
    samples.sort_unstable();
    let mean = if samples.is_empty() {
        0
    } else {
        samples.iter().sum::<u64>() / samples.len() as u64
    };
    LatencyHistogram {
        policy: "guarded_lsched_greedy".into(),
        queries,
        arrival: format!(
            "bursty(base 0.4x, burst 3.0x of {capacity_qps:.1} qps capacity, 25% duty)"
        ),
        invocations: samples.len(),
        tick_batches: timed.tick_batches,
        per_event_invocations: timed.per_event,
        p50_ns: percentile(&samples, 50.0),
        p95_ns: percentile(&samples, 95.0),
        p99_ns: percentile(&samples, 99.0),
        max_ns: samples.last().copied().unwrap_or(0),
        mean_ns: mean,
        max_p99_ns: MAX_P99_NS,
    }
}

/// One-shot policy for the allocation run pair: a single decision at
/// arrival, then silence (`Vec::new()` never allocates), so every event
/// past warm-up exercises only the steady-state dispatch/completion path.
#[cfg(feature = "count-allocs")]
struct OneShot {
    fired: bool,
}

#[cfg(feature = "count-allocs")]
impl Scheduler for OneShot {
    fn name(&self) -> String {
        "one_shot".into()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
        if self.fired || !matches!(ev, SchedEvent::QueryArrived(_)) {
            return Vec::new();
        }
        let q = &ctx.queries[0];
        let Some(&root) = q.schedulable_ops().first() else {
            return Vec::new();
        };
        self.fired = true;
        vec![SchedDecision { query: q.qid, root, pipeline_degree: 1, threads: 1 }]
    }
}

/// A one-operator workload with `wos` work orders: after the single
/// arrival-time decision, the run is a pure stream of `WoDone` events.
#[cfg(feature = "count-allocs")]
fn single_op_workload(wos: u32) -> Vec<WorkloadItem> {
    let mut b = PlanBuilder::new("alloc_probe");
    let scan =
        b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, wos, 0.001, 1e3);
    vec![WorkloadItem::new(0.0, std::sync::Arc::new(b.finish(scan)))]
}

/// Allocation count of a full single-op run with `wos` work orders.
#[cfg(feature = "count-allocs")]
fn alloc_count_for(wos: u32) -> u64 {
    let wl = single_op_workload(wos);
    let cfg = SimConfig { num_threads: 2, seed: 7, ..Default::default() };
    let (n, res) = lsched_nn::alloc_count::allocations_during(|| {
        try_simulate(cfg, &wl, &mut OneShot { fired: false }).unwrap()
    });
    assert_eq!(res.total_work_orders, u64::from(wos));
    n
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grab = |flag: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    // Comma-separated usize list flag (`--mpl 128,1024`); a single value
    // keeps the old `--mpl 1024` behaviour.
    let grab_list = |flag: &str| -> Vec<usize> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad {flag} entry {s:?}")))
                    .filter(|&n| n > 0)
                    .collect()
            })
            .unwrap_or_default()
    };
    let threads = grab("--threads", 16) as usize;
    let only_mpls = grab_list("--mpl");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr6.json".into());

    let mpls: Vec<usize> =
        if only_mpls.is_empty() { MPLS.to_vec() } else { only_mpls };

    let pool = tpch::plan_pool(&[2.0, 10.0]);
    let mut runs = Vec::new();
    let mut all_identical = true;

    println!(
        "sim_throughput: mpl {mpls:?} x {} policies, {threads} threads, fast vs reference loop",
        POLICIES.len()
    );
    for &mpl in &mpls {
        let seed = mpl as u64;
        let wl = gen_workload(&pool, mpl, ArrivalPattern::Batch, seed);
        for name in POLICIES {
            let cfg = SimConfig { num_threads: threads, seed, ..Default::default() };

            let t0 = Instant::now();
            let fast = try_simulate(cfg.clone(), &wl, make_policy(name).as_mut())
                .expect("fault-free run cannot error");
            let fast_s = t0.elapsed().as_secs_f64();

            let ref_cfg = SimConfig { reference_mode: true, ..cfg.clone() };
            let t0 = Instant::now();
            let reference = try_simulate(ref_cfg, &wl, make_policy(name).as_mut())
                .expect("fault-free run cannot error");
            let reference_s = t0.elapsed().as_secs_f64();

            let id = identical(&fast, &reference);

            // Same pair under the standard fault matrix: worker loss
            // re-exposing work orders and cancellations tearing down
            // pipelines must leave the two loops bit-identical too.
            let faults = FaultPlan::standard_matrix(seed, threads, mpl, fast.makespan);
            let fcfg = SimConfig { faults: Some(faults), ..cfg.clone() };
            let ffast = try_simulate(fcfg.clone(), &wl, make_policy(name).as_mut())
                .expect("faulted run errored in fast mode");
            let fref = try_simulate(
                SimConfig { reference_mode: true, ..fcfg },
                &wl,
                make_policy(name).as_mut(),
            )
            .expect("faulted run errored in reference mode");
            let fid = identical(&ffast, &fref);

            all_identical &= id && fid;
            let fast_loop_s = (fast_s - fast.sched_wall_time).max(1e-9);
            let reference_loop_s = (reference_s - reference.sched_wall_time).max(1e-9);
            let fast_eps = fast.events_processed as f64 / fast_loop_s;
            let ref_eps = reference.events_processed as f64 / reference_loop_s;
            let speedup = fast_eps / ref_eps;
            let fast_eps_total = fast.events_processed as f64 / fast_s.max(1e-9);
            let ref_eps_total = reference.events_processed as f64 / reference_s.max(1e-9);
            let speedup_total = fast_eps_total / ref_eps_total;
            println!(
                "mpl {mpl:>4} {name:<13} {:>8} events: loop {:>10.0} vs {:>10.0} ev/s \
                 ({speedup:.2}x), total {:>10.0} vs {:>10.0} ev/s ({speedup_total:.2}x){}{}",
                fast.events_processed,
                fast_eps,
                ref_eps,
                fast_eps_total,
                ref_eps_total,
                if id { "" } else { "  MISMATCH" },
                if fid { "" } else { "  FAULT-MISMATCH" },
            );
            runs.push(PolicyRun {
                mpl,
                policy: name.into(),
                seed,
                events: fast.events_processed,
                fast_s,
                reference_s,
                fast_loop_s,
                reference_loop_s,
                fast_events_per_sec: fast_eps,
                reference_events_per_sec: ref_eps,
                speedup,
                fast_events_per_sec_total: fast_eps_total,
                reference_events_per_sec_total: ref_eps_total,
                speedup_total,
                episodes_per_sec: 1.0 / fast_s,
                identical: id,
                identical_under_faults: fid,
            });
        }
    }

    // Aggregate speedup at the highest multiprogramming level, across
    // policies: total reference wall over total fast wall (both loops
    // process the same events). The gate is on this end-to-end figure;
    // the loop-only one (scheduler time subtracted) is informational.
    let max_mpl = *mpls.iter().max().unwrap();
    let at_max = || runs.iter().filter(|r| r.mpl == max_mpl);
    let ratio = |fast: f64, reference: f64| reference / fast.max(1e-9);
    let speedup_at_max_mpl = ratio(
        at_max().map(|r| r.fast_s).sum(),
        at_max().map(|r| r.reference_s).sum(),
    );
    let loop_speedup_at_max_mpl = ratio(
        at_max().map(|r| r.fast_loop_s).sum(),
        at_max().map(|r| r.reference_loop_s).sum(),
    );
    println!(
        "aggregate speedup at mpl {max_mpl}: {speedup_at_max_mpl:.2}x end to end \
         (required >= {MIN_SPEEDUP:.1}x); loop only {loop_speedup_at_max_mpl:.2}x"
    );

    let hist = latency_histogram(threads, 256);
    println!(
        "decision latency under bursty arrivals ({} invocations, {} tick batches): \
         p50 {}ns p95 {}ns p99 {}ns max {}ns",
        hist.invocations, hist.tick_batches, hist.p50_ns, hist.p95_ns, hist.p99_ns, hist.max_ns
    );
    let hist_ok = hist.invocations > 0 && hist.p99_ns <= MAX_P99_NS;

    // Zero steady-state allocations: two runs differing only in
    // work-order count. The first 20k events cover every warm-up
    // allocation (event heap growth, scratch buffers, estimator
    // windows); the extra 20k events of the second run are pure steady
    // state and must allocate nothing.
    let count_allocs_enabled = cfg!(feature = "count-allocs");
    #[cfg(feature = "count-allocs")]
    let steady_state_allocs = {
        let base = alloc_count_for(20_000);
        let double = alloc_count_for(40_000);
        let per_20k = double.saturating_sub(base);
        println!("steady-state allocations over 20k extra events: {per_20k} (base run: {base})");
        Some(per_20k)
    };
    #[cfg(not(feature = "count-allocs"))]
    let steady_state_allocs: Option<u64> = {
        println!("count-allocs feature disabled: skipping allocation check");
        None
    };

    let passed = all_identical
        && speedup_at_max_mpl >= MIN_SPEEDUP
        && hist_ok
        && steady_state_allocs.is_none_or(|n| n == 0);

    let report = Report {
        pr: 6,
        title: "Tick-batched event loop and SoA core: throughput, decision latency, identity"
            .into(),
        threads,
        runs,
        speedup_at_max_mpl,
        loop_speedup_at_max_mpl,
        max_mpl,
        min_speedup_required: MIN_SPEEDUP,
        all_identical,
        decision_latency_histogram: hist,
        count_allocs_enabled,
        steady_state_allocs,
        passed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write report");
    println!("report written to {out}");
    if passed {
        println!("PASS");
    } else {
        println!("FAIL");
        std::process::exit(1);
    }
}
