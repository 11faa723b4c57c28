//! Serving-layer chaos: shard crashes, restarts, slow shards and
//! poisoned shards under the supervisor, with the PR's hard acceptance
//! gates.
//!
//! Smoke mode (default — the CI gate):
//! 1. **Forced crash, exactly-once** — 2 shards, shard 0 hard-crashed at
//!    0.3× its fault-free makespan: every query must end with exactly
//!    one fate (completed, terminally aborted, or explicitly abandoned),
//!    none lost, none duplicated, and with a healthy survivor nothing
//!    may be abandoned at all.
//! 2. **Repeat bit-identity** — the same crashed run executed twice must
//!    be bit-identical shard-by-shard, replays included: failover
//!    consumes zero RNG.
//! 3. **Containment** — a poisoned shard (raw panic at dispatch) must
//!    not escape the supervisor; the run returns with the shard
//!    quarantined and its slice failed over.
//! 4. **Inflation** — at 8 shards with 1 crash, the supervised makespan
//!    must stay ≤ 2× the fault-free serving makespan.
//!
//! `--full` adds the chaos sweep: for each shard count in 4/8/16 and 5
//! seeds, a seeded crash/restart/slow/poison matrix
//! ([`ShardFaultPlan::chaos`]) is served twice — every run must repeat
//! bit-identically and partition the workload exactly.
//!
//! ```text
//! chaos_serve [--threads N] [--mpl N] [--full] [--out PATH]
//! ```
//!
//! Defaults: 4 threads/shard, mpl 64 queries/shard, out `BENCH_pr10.json`.

use serde::Serialize;
use std::time::Instant;

use lsched_engine::sim::SimConfig;
use lsched_sched::{FifoScheduler, GuardedScheduler};
use lsched_bench::harness::serve_fault_free;
use lsched_serve::{
    serve_supervised, tenantize, ServeConfig, ServeResult, ShardFaultPlan, ShardHealth, SloClass,
    SupervisorConfig, TenantQuery,
};
use lsched_workloads::tpch;
use lsched_workloads::workload::{gen_workload, ArrivalPattern};

/// Hard ceiling on failover makespan inflation at 8 shards / 1 crash.
const MAX_INFLATION: f64 = 2.0;

#[derive(Debug, Serialize)]
struct ChaosRun {
    shards: usize,
    seed: u64,
    queries: usize,
    faults: usize,
    crashes: u64,
    panics_caught: u64,
    restarts: u64,
    quarantined: u64,
    orphaned: u64,
    rerouted: u64,
    recovered: u64,
    abandoned: u64,
    failover_epochs: u32,
    makespan: f64,
    wall_s: f64,
    repeat_bit_identical: bool,
    exactly_once: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    pr: u32,
    title: String,
    threads_per_shard: usize,
    mpl_per_shard: usize,
    smoke_crash_exactly_once: bool,
    smoke_repeat_bit_identical: bool,
    smoke_poison_contained: bool,
    inflation_at_8: f64,
    max_inflation: f64,
    inflation_ok: bool,
    full_sweep: Vec<ChaosRun>,
    full_sweep_ok: bool,
    passed: bool,
}

fn shard_sched(_shard: usize) -> GuardedScheduler<FifoScheduler> {
    GuardedScheduler::new(FifoScheduler)
}

fn grab(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn chaos_workload(shards: usize, mpl: usize, seed: u64) -> Vec<TenantQuery> {
    let pool = tpch::plan_pool(&[0.5]);
    let wl = gen_workload(&pool, shards * mpl, ArrivalPattern::Streaming { lambda: 100.0 }, seed);
    let classes = [SloClass::best_effort(), SloClass::silver(), SloClass::gold()];
    tenantize(&wl, (shards as u64) * 3, &classes)
}

/// Every query index gets exactly one fate across durable logs and the
/// abandoned list, and the merged counters agree.
fn exactly_once(r: &ServeResult, n: usize) -> bool {
    let mut fates = vec![0usize; n];
    for run in &r.shards {
        for g in run.finalized() {
            if g >= n {
                return false;
            }
            fates[g] += 1;
        }
    }
    for &g in &r.abandoned {
        if g >= n {
            return false;
        }
        fates[g] += 1;
    }
    fates.iter().all(|&c| c == 1)
        && r.completed + r.aborted + r.abandoned.len() as u64 == n as u64
}

fn bit_identical(a: &ServeResult, b: &ServeResult) -> bool {
    a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.shard == y.shard
                && x.epoch == y.epoch
                && x.assigned == y.assigned
                && x.result.bit_eq(&y.result)
        })
        && a.failover == b.failover
        && a.health == b.health
        && a.abandoned == b.abandoned
        && a.makespan.to_bits() == b.makespan.to_bits()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = grab(&args, "--threads", 4) as usize;
    let mpl = grab(&args, "--mpl", 64) as usize;
    let full = args.iter().any(|a| a == "--full");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr10.json".into());

    // Injected shard faults panic on purpose; keep the default hook for
    // everything else so a genuine bench bug still prints a backtrace.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected shard fault"))
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));

    let seed = 0xC0FFEE;
    let sup = SupervisorConfig::default();
    println!("chaos_serve: {threads} threads/shard, mpl {mpl}/shard{}",
        if full { ", full sweep" } else { " (smoke)" });

    // Gates 1+2: forced crash on 2 shards, exactly-once and repeat
    // bit-identity.
    let queries = chaos_workload(2, mpl, seed);
    let cfg = ServeConfig::new(2, SimConfig { num_threads: threads, seed, ..Default::default() });
    let clean = serve_fault_free(&cfg, &queries, shard_sched, "fault-free smoke run");
    let crash_at = 0.3 * clean.shards[0].result.makespan;
    let faults = ShardFaultPlan::crash_one(0, crash_at);
    let a = serve_supervised(&cfg, &queries, &faults, &sup, shard_sched)
        .expect("supervised crash run A");
    let b = serve_supervised(&cfg, &queries, &faults, &sup, shard_sched)
        .expect("supervised crash run B");
    let smoke_crash_exactly_once = exactly_once(&a, queries.len())
        && a.failover.crashes == 1
        && a.failover.orphaned > 0
        && a.abandoned.is_empty()
        && a.health[0] == ShardHealth::Quarantined;
    let smoke_repeat_bit_identical = bit_identical(&a, &b);
    println!(
        "forced crash @ {crash_at:.3}s: {} orphaned, {} recovered, {} epochs — exactly-once {}, \
         repeat bit-identity {}",
        a.failover.orphaned,
        a.failover.recovered,
        a.failover.failover_epochs,
        if smoke_crash_exactly_once { "OK" } else { "VIOLATED" },
        if smoke_repeat_bit_identical { "OK" } else { "MISMATCH" },
    );

    // Gate 3: poison containment — the panic must die inside the
    // supervisor, the slice must fail over.
    let poison = ShardFaultPlan { faults: vec![(1, lsched_serve::ShardFault::Poison)] };
    let p = serve_supervised(&cfg, &queries, &poison, &sup, shard_sched)
        .expect("poisoned run must still return");
    let smoke_poison_contained = p.failover.panics_caught == 1
        && p.health[1] == ShardHealth::Quarantined
        && exactly_once(&p, queries.len());
    println!(
        "poisoned shard: {} panics caught, shard 1 {:?} — containment {}",
        p.failover.panics_caught,
        p.health[1],
        if smoke_poison_contained { "OK" } else { "ESCAPED" },
    );

    // Gate 4: failover makespan inflation at 8 shards with 1 crash.
    let q8 = chaos_workload(8, mpl, seed + 1);
    let cfg8 =
        ServeConfig::new(8, SimConfig { num_threads: threads, seed, ..Default::default() });
    let clean8 = serve_fault_free(&cfg8, &q8, shard_sched, "fault-free 8-shard run");
    let faults8 = ShardFaultPlan::crash_one(0, 0.3 * clean8.shards[0].result.makespan);
    let crashed8 = serve_supervised(&cfg8, &q8, &faults8, &sup, shard_sched)
        .expect("supervised 8-shard crash run");
    let inflation_at_8 = crashed8.makespan / clean8.makespan.max(1e-9);
    let inflation_ok = inflation_at_8 <= MAX_INFLATION && exactly_once(&crashed8, q8.len());
    println!(
        "8-shard crash: makespan {:.3}s vs fault-free {:.3}s = {inflation_at_8:.2}x \
         (gate ≤ {MAX_INFLATION}x): {}",
        crashed8.makespan,
        clean8.makespan,
        if inflation_ok { "OK" } else { "TOO SLOW" },
    );

    // Full sweep: seeded chaos matrices, 4–16 shards × 5 seeds.
    let mut full_sweep: Vec<ChaosRun> = Vec::new();
    let mut full_sweep_ok = true;
    if full {
        for &shards in &[4usize, 8, 16] {
            for s in 0..5u64 {
                let seed = 0xBAD_5EED + s * 7 + shards as u64;
                let queries = chaos_workload(shards, mpl, seed);
                let cfg = ServeConfig::new(
                    shards,
                    SimConfig { num_threads: threads, seed, ..Default::default() },
                );
                let horizon = serve_fault_free(&cfg, &queries, shard_sched, "horizon run").makespan;
                let plan = ShardFaultPlan::chaos(seed, shards, horizon.max(0.01));
                let t0 = Instant::now();
                let a = serve_supervised(&cfg, &queries, &plan, &sup, shard_sched)
                    .expect("chaos run A");
                let wall_s = t0.elapsed().as_secs_f64();
                let b = serve_supervised(&cfg, &queries, &plan, &sup, shard_sched)
                    .expect("chaos run B");
                let repeat = bit_identical(&a, &b);
                let once = exactly_once(&a, queries.len());
                full_sweep_ok &= repeat && once;
                println!(
                    "chaos {shards:>2} shards seed {s}: {} faults, {} crashes, {} orphaned, \
                     {} recovered, {} abandoned, {} epochs, {wall_s:.2}s — repeat {}, \
                     exactly-once {}",
                    plan.faults.len(),
                    a.failover.crashes,
                    a.failover.orphaned,
                    a.failover.recovered,
                    a.failover.abandoned,
                    a.failover.failover_epochs,
                    if repeat { "OK" } else { "MISMATCH" },
                    if once { "OK" } else { "VIOLATED" },
                );
                full_sweep.push(ChaosRun {
                    shards,
                    seed: s,
                    queries: queries.len(),
                    faults: plan.faults.len(),
                    crashes: a.failover.crashes,
                    panics_caught: a.failover.panics_caught,
                    restarts: a.failover.restarts,
                    quarantined: a.failover.quarantined,
                    orphaned: a.failover.orphaned,
                    rerouted: a.failover.rerouted,
                    recovered: a.failover.recovered,
                    abandoned: a.failover.abandoned,
                    failover_epochs: a.failover.failover_epochs,
                    makespan: a.makespan,
                    wall_s,
                    repeat_bit_identical: repeat,
                    exactly_once: once,
                });
            }
        }
    }

    let passed = smoke_crash_exactly_once
        && smoke_repeat_bit_identical
        && smoke_poison_contained
        && inflation_ok
        && full_sweep_ok;
    let report = Report {
        pr: 10,
        title: "Shard failover: supervised crash recovery and deterministic re-routing".into(),
        threads_per_shard: threads,
        mpl_per_shard: mpl,
        smoke_crash_exactly_once,
        smoke_repeat_bit_identical,
        smoke_poison_contained,
        inflation_at_8,
        max_inflation: MAX_INFLATION,
        inflation_ok,
        full_sweep,
        full_sweep_ok,
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
