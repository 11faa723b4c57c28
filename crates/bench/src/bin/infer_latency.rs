//! Per-decision latency of the tape-free inference path vs the autodiff
//! tapes, measured on identical scheduler snapshots, plus the hard
//! acceptance checks: decisions must be bit-identical between the paths,
//! and (when built with `--features count-allocs`) the steady-state
//! inference path must perform **zero** heap allocations per decision.
//! The zero-allocation pass also takes one predictive-admission verdict
//! ([`PredictiveAdmission`]'s scoring head runs on every arrival of a
//! served stream). A second allocation count covers warmed-up
//! [`LSchedScheduler`] ticks through the `Scheduler` entry point, the
//! snapshot included: besides the decision list the trait hands back,
//! they must allocate nothing.
//! The >=3x latency gate is measured against the per-node *reference*
//! tape (the recording path as it stood when the gate was set); the
//! ratio vs the fused *arena* tape is reported informationally — the
//! arena tape keeps getting faster, which says nothing about whether
//! the inference path regressed. The `batched` section measures the cross-event path
//! ([`LSchedModel::decide_infer_batch`]): one fused invocation over E
//! snapshots must be bit-identical to E sequential `decide_infer` calls
//! on the same rng stream (greedy and sampled), allocate nothing at
//! steady state, and its latency vs the sequential loop is reported.
//!
//! Every timed loop encodes cold: the encoder memo is cleared before each
//! decision, so reuse across the repeated snapshot list cannot carry the
//! gate (the report's `memo_op_hit_frac`, `memo_conv_hit_frac` and
//! `memo_conv_product_hit_frac` fields show the measured loops' reuse).
//! The allocation gates run with the memo warm: each steady-state pass
//! decides every snapshot twice, the second time served whole from the
//! memo, and then a copy of it with one operator's dynamic tail moved per
//! query, which reuses everything outside that operator's dirty cone and,
//! inside it, every filter product whose input did not move. Each counted
//! pass must both reuse and recompute filter products (the
//! `alloc_pass_conv_product_hit_frac` fields lie strictly between 0 and
//! 1), so both paths of the product cache run at zero allocations.
//!
//! ```text
//! infer_latency [--reps N] [--snapshots N] [--out PATH]
//! ```
//!
//! Writes a JSON report (default `BENCH_pr3.json`) and exits non-zero if
//! any criterion fails.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use lsched_core::agent::{
    BatchInferScratch, InferScratch, LSchedConfig, LSchedModel, LSchedScheduler,
};
use lsched_core::encoder::{EncodeScratch, MemoStats};
use lsched_core::features::{snapshot, SystemSnapshot};
use lsched_core::predictor::{BatchPredictScratch, DecisionMode};
use lsched_core::{PredictiveAdmission, PredictiveAdmissionConfig};
use lsched_sched::admission::AdmissionGate;
use lsched_nn::{RefTape, RefTapeBackend};
use lsched_engine::scheduler::{
    QueryHot, QueryId, QueryRuntime, SchedContext, SchedEvent, Scheduler,
};
use lsched_workloads::tpch;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: lsched_nn::alloc_count::CountingAllocator =
    lsched_nn::alloc_count::CountingAllocator;

/// Minimum reference-tape/infer per-decision latency ratio (acceptance
/// criterion, fixed against the per-node recording path the tape-free
/// inference was built to replace).
const MIN_SPEEDUP: f64 = 3.0;

#[derive(Debug, Serialize)]
struct Report {
    pr: u32,
    title: String,
    snapshots: usize,
    reps: usize,
    /// Per-decision latency on the per-node reference tape — the gated
    /// baseline (what recording cost before the arena tape existed).
    reference_tape_median_us: f64,
    /// Per-decision latency on the fused arena tape (informational).
    tape_median_us: f64,
    infer_median_us: f64,
    /// reference tape / infer — the gated ratio.
    speedup: f64,
    /// arena tape / infer — informational; shrinks as training speeds up.
    arena_tape_speedup: f64,
    min_speedup_required: f64,
    decisions_identical: bool,
    sampled_decisions_identical: bool,
    count_allocs_enabled: bool,
    steady_state_allocs: Option<u64>,
    /// Heap allocations of warmed-up `LSchedScheduler::on_tick` calls on
    /// a non-recording agent (snapshot included), not counting the one
    /// allocation of each non-empty decision list the calls return.
    on_tick_allocs: Option<u64>,
    arena_capacity_f32: usize,
    /// Fraction of operator projections the timed infer loop served from
    /// the encoder memo (0 for the cold encodes the gate measures).
    memo_op_hit_frac: f64,
    /// Fraction of per-node convolution outputs the timed infer loop
    /// served from the encoder memo (0 for cold encodes).
    memo_conv_hit_frac: f64,
    /// Fraction of the recomputed filters' products the timed infer loop
    /// served from the encoder memo (0 for cold encodes).
    memo_conv_product_hit_frac: f64,
    /// The same fraction over the counted (warm) allocation pass, and
    /// over the counted `on_tick` calls: both must lie strictly between 0
    /// and 1.
    alloc_pass_conv_product_hit_frac: f64,
    on_tick_conv_product_hit_frac: f64,
    batched: BatchedSection,
    passed: bool,
}

/// Cross-event batched inference ([`LSchedModel::decide_infer_batch`])
/// measured against the sequential per-snapshot loop it replaces.
#[derive(Debug, Serialize)]
struct BatchedSection {
    /// Events per batch (= number of snapshots fused per invocation).
    events: usize,
    identical: bool,
    sampled_identical: bool,
    /// Median wall time of one batched invocation over all events.
    batch_median_us: f64,
    /// Median wall time of the equivalent sequential `decide_infer` loop.
    sequential_median_us: f64,
    /// sequential / batched — the cross-event fusion win.
    speedup: f64,
    steady_state_allocs: Option<u64>,
    arena_capacity_f32: usize,
    /// Fraction of operator projections the timed batched and sequential
    /// loops served from the encoder memo (0 for cold encodes).
    memo_op_hit_frac: f64,
    /// Fraction of per-node convolution outputs the same loops served
    /// from the encoder memo (0 for cold encodes).
    memo_conv_hit_frac: f64,
    /// Fraction of the recomputed filters' products the same loops
    /// served from the encoder memo (0 for cold encodes).
    memo_conv_product_hit_frac: f64,
    /// The same fraction over the counted allocation pass (strictly
    /// between 0 and 1).
    alloc_pass_conv_product_hit_frac: f64,
}

/// Fractions of operator projections, of per-node convolution outputs
/// and of the recomputed filters' products served from the memo between
/// two counter readings.
fn hit_fracs(before: MemoStats, after: MemoStats) -> (f64, f64, f64) {
    let d = after - before;
    (d.op_hit_frac(), d.conv_hit_frac(), d.conv_product_hit_frac())
}

/// Whether a counted pass both reused and recomputed filter products.
fn both_product_paths(frac: f64) -> bool {
    frac > 0.0 && frac < 1.0
}

/// A copy of `snap` with one operator's dynamic tail moved per query, so
/// deciding it right after `snap` takes the memo's partial-reuse path.
fn with_moved_tails(snap: &SystemSnapshot) -> SystemSnapshot {
    let mut moved = snap.clone();
    for (q, qs) in moved.queries.iter_mut().enumerate() {
        let op = q % qs.opf_dyn.len();
        qs.opf_dyn[op][0] += 0.125;
    }
    moved
}

/// Builds scheduler snapshots of growing multiprogramming level from the
/// TPC-H plan pool: snapshot `i` has `i + 1` in-flight queries at mixed
/// progress (fresh arrivals only — operator progress does not change
/// which code path runs, only feature values).
fn build_snapshots(model: &LSchedModel, n: usize) -> Vec<SystemSnapshot> {
    let pool = tpch::plan_pool(&[0.3]);
    (0..n)
        .map(|i| {
            let queries: Vec<QueryRuntime> = (0..=i)
                .map(|q| {
                    let plan = Arc::clone(&pool[(i * 7 + q * 3) % pool.len()]);
                    QueryRuntime::new(QueryId(q as u64), plan, 0.1 * q as f64, 8)
                })
                .collect();
            let free: Vec<usize> = (0..(2 + i % 7)).collect();
            let hot = QueryHot::from_queries(&queries);
            let ctx = SchedContext {
                time: 1.0 + i as f64,
                total_threads: 8,
                free_threads: free.len(),
                free_thread_ids: &free,
                queries: &queries,
                hot: &hot,
                in_flight_mem: 0.0,
                mem_budget: f64::INFINITY,
            };
            snapshot(model.feature_config(), &ctx)
        })
        .collect()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grab = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let reps = grab("--reps", 300);
    let n_snapshots = grab("--snapshots", 8);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr3.json".into());

    let model = LSchedModel::new(LSchedConfig::default(), 7);
    let snapshots = build_snapshots(&model, n_snapshots);
    let mut scratch = InferScratch::new();
    let mut decisions = Vec::new();
    let mut picks = Vec::new();

    // -- Decision identity -------------------------------------------------
    // Greedy: the production inference mode.
    let mut decisions_identical = true;
    for snap in &snapshots {
        let (g, tape_dec, tape_picks, lp) =
            model.decide_snapshot(snap, DecisionMode::Greedy, None, None);
        let tape_lp = g.value(lp).data()[0];
        let infer_lp =
            model.decide_infer(snap, DecisionMode::Greedy, None, &mut scratch, &mut decisions, &mut picks);
        decisions_identical &= tape_dec == decisions
            && tape_picks == picks
            && tape_lp.to_bits() == infer_lp.to_bits();
    }
    // Sampled: same seed must draw the same picks on both paths.
    let mut sampled_decisions_identical = true;
    for (i, snap) in snapshots.iter().enumerate() {
        let mut rng_a = StdRng::seed_from_u64(1000 + i as u64);
        let mut rng_b = StdRng::seed_from_u64(1000 + i as u64);
        let (g, tape_dec, tape_picks, lp) =
            model.decide_snapshot(snap, DecisionMode::Sample, Some(&mut rng_a), None);
        let tape_lp = g.value(lp).data()[0];
        let infer_lp = model.decide_infer(
            snap,
            DecisionMode::Sample,
            Some(&mut rng_b),
            &mut scratch,
            &mut decisions,
            &mut picks,
        );
        sampled_decisions_identical &= tape_dec == decisions
            && tape_picks == picks
            && tape_lp.to_bits() == infer_lp.to_bits();
    }

    // -- Steady-state allocations -----------------------------------------
    // The identity checks above already warmed the arena and every scratch
    // pool across all snapshot shapes, so further decisions are steady
    // state by construction.
    let count_allocs_enabled = cfg!(feature = "count-allocs");
    // Warm-up: pooled scratch buffers rotate roles across passes (LIFO
    // reuse pairs a buffer with a different op each time), so capacities
    // keep nudging up for several passes before every pairing has seen
    // its peak size. Run greedy passes until a full pass allocates
    // nothing (a handful suffices in practice; 64 is a generous cap).
    // Each snapshot is decided twice in a row — a cold encode, then one
    // served whole from the memo — and then its moved-tail copy, which
    // recomputes only the dirty cones; all three encoder paths are
    // counted.
    // Each pass also takes one predictive-admission verdict: an arrival
    // into a half-idle pool with waiting queries, so the gate scores the
    // arrival and its displacement candidates in one batch and admits.
    let moved: Vec<SystemSnapshot> = snapshots.iter().map(with_moved_tails).collect();
    let adm_pool = tpch::plan_pool(&[0.3]);
    let adm_queries: Vec<QueryRuntime> = (0..8)
        .map(|q| {
            let plan = Arc::clone(&adm_pool[(q * 3) % adm_pool.len()]);
            QueryRuntime::new(QueryId(q as u64), plan, 0.1 * q as f64, 8)
        })
        .collect();
    let adm_free: Vec<usize> = (0..4).collect();
    let adm_hot = QueryHot::from_queries(&adm_queries);
    let adm_ctx = SchedContext {
        time: 1.0,
        total_threads: 8,
        free_threads: adm_free.len(),
        free_thread_ids: &adm_free,
        queries: &adm_queries,
        hot: &adm_hot,
        in_flight_mem: 0.0,
        mem_budget: f64::INFINITY,
    };
    let arriving = adm_queries.last().expect("admission mix is non-empty").qid;
    let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
    let warm_pass = |scratch: &mut InferScratch,
                     decisions: &mut Vec<_>,
                     picks: &mut Vec<_>,
                     gate: &mut PredictiveAdmission| {
        let mut acc = 0.0f32;
        for (snap, moved) in snapshots.iter().zip(&moved) {
            for s in [snap, snap, moved] {
                acc += model.decide_infer(s, DecisionMode::Greedy, None, scratch, decisions, picks);
            }
        }
        std::hint::black_box(gate.admit(&adm_ctx, arriving, 0));
        acc
    };
    for _ in 0..16 {
        let _ = warm_pass(&mut scratch, &mut decisions, &mut picks, &mut gate);
    }
    // Every pass repeats the same memo transitions, so the last one's
    // product reuse is the counted pass's.
    let memo_before = scratch.memo_stats();
    let _ = warm_pass(&mut scratch, &mut decisions, &mut picks, &mut gate);
    let (_, _, alloc_pass_conv_product_hit_frac) = hit_fracs(memo_before, scratch.memo_stats());
    println!("filter products reused by one warm pass: {alloc_pass_conv_product_hit_frac:.3}");
    #[cfg(feature = "count-allocs")]
    let steady_state_allocs = {
        for _ in 0..48 {
            let (n, _) = lsched_nn::alloc_count::allocations_during(|| {
                warm_pass(&mut scratch, &mut decisions, &mut picks, &mut gate)
            });
            if n == 0 {
                break;
            }
        }
        let (n, _) = lsched_nn::alloc_count::allocations_during(|| {
            warm_pass(&mut scratch, &mut decisions, &mut picks, &mut gate)
        });
        println!(
            "steady-state allocations over {} decisions and one admission verdict: {n}",
            3 * snapshots.len()
        );
        Some(n)
    };
    #[cfg(not(feature = "count-allocs"))]
    let steady_state_allocs: Option<u64> = {
        println!("count-allocs feature disabled: skipping allocation check");
        None
    };

    // -- Scheduler ticks ---------------------------------------------------
    // A non-recording agent decides through `Scheduler::on_tick`, snapshot
    // included, alternating two contexts: the admission mix above (8 fresh
    // queries, 4 idle threads) and a smaller one (6 of those queries with
    // one operator's work-order count moved each, 3 idle threads), so the
    // reused snapshot shrinks and grows and the encoder recomputes dirty
    // cones. The one allocation a call may make is the decision list the
    // trait returns (an exact-size copy, when non-empty).
    let tick_queries: Vec<QueryRuntime> = adm_queries[..6]
        .iter()
        .cloned()
        .map(|mut q| {
            q.ops[0].total_work_orders += 1;
            q
        })
        .collect();
    let tick_free: Vec<usize> = (0..3).collect();
    let tick_hot = QueryHot::from_queries(&tick_queries);
    let tick_ctx = SchedContext {
        time: 2.0,
        total_threads: 8,
        free_threads: tick_free.len(),
        free_thread_ids: &tick_free,
        queries: &tick_queries,
        hot: &tick_hot,
        in_flight_mem: 0.0,
        mem_budget: f64::INFINITY,
    };
    let mut agent = LSchedScheduler::greedy(LSchedModel::new(LSchedConfig::default(), 7));
    // Returns (decisions, returned lists that hold an allocation).
    let tick_pass = |agent: &mut LSchedScheduler| {
        let (mut n, mut lists) = (0u64, 0u64);
        for ctx in [&adm_ctx, &tick_ctx] {
            let d = agent.on_tick(ctx, &[SchedEvent::ThreadsFreed(1)]).expect("LSched takes ticks");
            n += d.len() as u64;
            lists += u64::from(d.capacity() > 0);
        }
        (n, lists)
    };
    for _ in 0..16 {
        let _ = tick_pass(&mut agent);
    }
    let memo_before = agent.memo_stats();
    let _ = tick_pass(&mut agent);
    let (_, _, on_tick_conv_product_hit_frac) = hit_fracs(memo_before, agent.memo_stats());
    println!("filter products reused by two warm on_tick calls: {on_tick_conv_product_hit_frac:.3}");
    #[cfg(feature = "count-allocs")]
    let on_tick_allocs = {
        let mut counted = || {
            let (n, (decided, lists)) = lsched_nn::alloc_count::allocations_during(|| tick_pass(&mut agent));
            assert!(decided > 0, "the counted ticks must take decisions");
            n - lists
        };
        for _ in 0..48 {
            if counted() == 0 {
                break;
            }
        }
        let n = counted();
        println!("steady-state allocations over two on_tick calls, besides their decision lists: {n}");
        Some(n)
    };
    #[cfg(not(feature = "count-allocs"))]
    let on_tick_allocs: Option<u64> = None;

    // -- Latency -----------------------------------------------------------
    // Interleave reference-tape/arena-tape/infer reps so slow drift
    // cancels; each sample is the mean per-decision time over one pass
    // through every snapshot. The reference tape replays the decision on
    // a fresh per-node tape through the same Backend seams — the shape
    // recording had before the arena tape, and the baseline the >=3x
    // gate was set against.
    let mut enc_ref = EncodeScratch::new();
    let mut pscratch_ref = BatchPredictScratch::new();
    let mut outcome_ref = Vec::new();
    let mut ref_times = Vec::with_capacity(reps);
    let mut tape_times = Vec::with_capacity(reps);
    let mut infer_times = Vec::with_capacity(reps);
    let mut sink = 0.0f64;
    let memo_before = scratch.memo_stats();
    for _ in 0..reps {
        let t = Instant::now();
        for snap in &snapshots {
            let mut tape = RefTape::new();
            let mut b = RefTapeBackend::new(&mut tape, &model.store);
            let aqe = model.encoder.encode_system_on(&mut b, snap, &mut enc_ref);
            model.predictor.decide_batch_on(
                &mut b,
                &[snap][..],
                &|_| enc_ref.queries(),
                &[aqe],
                DecisionMode::Greedy,
                None,
                model.cfg.predictor.max_picks_per_event,
                None,
                &mut pscratch_ref,
                &mut decisions,
                &mut picks,
                &mut outcome_ref,
            );
            sink += tape.value(outcome_ref[0].logprob).data()[0] as f64;
        }
        ref_times.push(t.elapsed().as_secs_f64() / snapshots.len() as f64);
        let t = Instant::now();
        for snap in &snapshots {
            let (g, _, _, lp) = model.decide_snapshot(snap, DecisionMode::Greedy, None, None);
            sink += g.value(lp).data()[0] as f64;
        }
        tape_times.push(t.elapsed().as_secs_f64() / snapshots.len() as f64);
        let t = Instant::now();
        for snap in &snapshots {
            scratch.clear_memo();
            sink += model.decide_infer(
                snap,
                DecisionMode::Greedy,
                None,
                &mut scratch,
                &mut decisions,
                &mut picks,
            ) as f64;
        }
        infer_times.push(t.elapsed().as_secs_f64() / snapshots.len() as f64);
    }
    let (memo_op_hit_frac, memo_conv_hit_frac, memo_conv_product_hit_frac) =
        hit_fracs(memo_before, scratch.memo_stats());
    let reference_tape_median_us = median(&mut ref_times) * 1e6;
    let tape_median_us = median(&mut tape_times) * 1e6;
    let infer_median_us = median(&mut infer_times) * 1e6;
    let speedup = reference_tape_median_us / infer_median_us;
    let arena_tape_speedup = tape_median_us / infer_median_us;
    println!(
        "per-decision latency: reference tape {reference_tape_median_us:.1}us arena tape \
         {tape_median_us:.1}us infer {infer_median_us:.1}us -> {speedup:.2}x vs reference \
         ({arena_tape_speedup:.2}x vs arena, informational; memo op/conv/product hit fractions \
         {memo_op_hit_frac:.3}/{memo_conv_hit_frac:.3}/{memo_conv_product_hit_frac:.3}; sink {sink:.3})"
    );

    // -- Cross-event batch -------------------------------------------------
    // One decide_infer_batch over every snapshot vs the sequential loop
    // it replaces. Identity is checked against sequential decide_infer
    // on the same rng stream and pick budget, greedy and sampled.
    let budget = model.cfg.predictor.max_picks_per_event;
    let snap_refs: Vec<&SystemSnapshot> = snapshots.iter().collect();
    let mut bscratch = BatchInferScratch::new();
    let mut bdecisions = Vec::new();
    let mut bpicks = Vec::new();
    let mut per_event: Vec<(usize, f32)> = Vec::new();

    let mut batched_identical = true;
    {
        let mut seq_dec = Vec::new();
        let mut seq_picks = Vec::new();
        let mut seq_lps = Vec::new();
        for snap in &snapshots {
            let lp = model.decide_infer(
                snap,
                DecisionMode::Greedy,
                None,
                &mut scratch,
                &mut decisions,
                &mut picks,
            );
            seq_dec.extend(decisions.iter().cloned());
            seq_picks.extend(picks.iter().cloned());
            seq_lps.push((decisions.len(), lp));
        }
        model.decide_infer_batch(
            &snap_refs,
            DecisionMode::Greedy,
            None,
            budget,
            &mut bscratch,
            &mut bdecisions,
            &mut bpicks,
            &mut per_event,
        );
        batched_identical &= bdecisions == seq_dec && bpicks == seq_picks;
        batched_identical &= per_event.len() == seq_lps.len()
            && per_event.iter().zip(&seq_lps).all(|(&(n, lp), &(sn, slp))| {
                n == sn && lp.to_bits() == slp.to_bits()
            });
    }
    let mut batched_sampled_identical = true;
    {
        let mut rng_seq = StdRng::seed_from_u64(4242);
        let mut rng_batch = StdRng::seed_from_u64(4242);
        let mut seq_dec = Vec::new();
        let mut seq_picks = Vec::new();
        let mut seq_lps = Vec::new();
        for snap in &snapshots {
            let lp = model.decide_infer(
                snap,
                DecisionMode::Sample,
                Some(&mut rng_seq),
                &mut scratch,
                &mut decisions,
                &mut picks,
            );
            seq_dec.extend(decisions.iter().cloned());
            seq_picks.extend(picks.iter().cloned());
            seq_lps.push((decisions.len(), lp));
        }
        model.decide_infer_batch(
            &snap_refs,
            DecisionMode::Sample,
            Some(&mut rng_batch),
            budget,
            &mut bscratch,
            &mut bdecisions,
            &mut bpicks,
            &mut per_event,
        );
        batched_sampled_identical &= bdecisions == seq_dec && bpicks == seq_picks;
        batched_sampled_identical &= per_event.len() == seq_lps.len()
            && per_event.iter().zip(&seq_lps).all(|(&(n, lp), &(sn, slp))| {
                n == sn && lp.to_bits() == slp.to_bits()
            });
    }

    // Batched steady-state allocations: identity checks above warmed the
    // batch arena across every event shape, same as the single-event path.
    // The counted pass decides the batch, then its moved-tail copies
    // (partial memo reuse in every event slot).
    let moved_refs: Vec<&SystemSnapshot> = moved.iter().collect();
    let batch_pass = |refs: &[&SystemSnapshot],
                      bscratch: &mut BatchInferScratch,
                      bdecisions: &mut Vec<_>,
                      bpicks: &mut Vec<_>,
                      per_event: &mut Vec<(usize, f32)>| {
        model.decide_infer_batch(
            refs,
            DecisionMode::Greedy,
            None,
            budget,
            bscratch,
            bdecisions,
            bpicks,
            per_event,
        );
        per_event.iter().map(|&(_, lp)| lp as f64).sum::<f64>()
    };
    let mut counted_pass = |bscratch: &mut BatchInferScratch| {
        batch_pass(&snap_refs, bscratch, &mut bdecisions, &mut bpicks, &mut per_event)
            + batch_pass(&moved_refs, bscratch, &mut bdecisions, &mut bpicks, &mut per_event)
    };
    for _ in 0..16 {
        let _ = counted_pass(&mut bscratch);
    }
    let memo_before = bscratch.memo_stats();
    let _ = counted_pass(&mut bscratch);
    let (_, _, batched_alloc_pass_frac) = hit_fracs(memo_before, bscratch.memo_stats());
    println!("filter products reused by one warm batched pass: {batched_alloc_pass_frac:.3}");
    #[cfg(feature = "count-allocs")]
    let batched_steady_state_allocs = {
        for _ in 0..48 {
            let (n, _) = lsched_nn::alloc_count::allocations_during(|| counted_pass(&mut bscratch));
            if n == 0 {
                break;
            }
        }
        let (n, _) = lsched_nn::alloc_count::allocations_during(|| counted_pass(&mut bscratch));
        println!(
            "batched steady-state allocations over two {}-event batches: {n}",
            snapshots.len()
        );
        Some(n)
    };
    #[cfg(not(feature = "count-allocs"))]
    let batched_steady_state_allocs: Option<u64> = None;

    // Batched latency vs the sequential loop, interleaved like above,
    // both on cold encodes.
    let mut batch_times = Vec::with_capacity(reps);
    let mut seq_times = Vec::with_capacity(reps);
    let memo_before = scratch.memo_stats() + bscratch.memo_stats();
    for _ in 0..reps {
        let t = Instant::now();
        for snap in &snapshots {
            scratch.clear_memo();
            sink += model.decide_infer(
                snap,
                DecisionMode::Greedy,
                None,
                &mut scratch,
                &mut decisions,
                &mut picks,
            ) as f64;
        }
        seq_times.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        bscratch.clear_memo();
        sink += batch_pass(&snap_refs, &mut bscratch, &mut bdecisions, &mut bpicks, &mut per_event);
        batch_times.push(t.elapsed().as_secs_f64());
    }
    let (batched_memo_op_hit_frac, batched_memo_conv_hit_frac, batched_memo_product_hit_frac) =
        hit_fracs(memo_before, scratch.memo_stats() + bscratch.memo_stats());
    let batch_median_us = median(&mut batch_times) * 1e6;
    let sequential_median_us = median(&mut seq_times) * 1e6;
    let batched_speedup = sequential_median_us / batch_median_us;
    println!(
        "batched pass over {} events: batch {batch_median_us:.1}us vs sequential \
         {sequential_median_us:.1}us -> {batched_speedup:.2}x, identity={batched_identical} \
         sampled_identity={batched_sampled_identical}, memo op/conv hit fractions \
         {batched_memo_op_hit_frac:.3}/{batched_memo_conv_hit_frac:.3} (sink {sink:.3})",
        snapshots.len()
    );
    let batched = BatchedSection {
        events: snapshots.len(),
        identical: batched_identical,
        sampled_identical: batched_sampled_identical,
        batch_median_us,
        sequential_median_us,
        speedup: batched_speedup,
        steady_state_allocs: batched_steady_state_allocs,
        arena_capacity_f32: bscratch.arena_capacity(),
        memo_op_hit_frac: batched_memo_op_hit_frac,
        memo_conv_hit_frac: batched_memo_conv_hit_frac,
        memo_conv_product_hit_frac: batched_memo_product_hit_frac,
        alloc_pass_conv_product_hit_frac: batched_alloc_pass_frac,
    };

    let passed = decisions_identical
        && sampled_decisions_identical
        && speedup >= MIN_SPEEDUP
        && steady_state_allocs.is_none_or(|n| n == 0)
        && on_tick_allocs.is_none_or(|n| n == 0)
        && batched.identical
        && batched.sampled_identical
        && batched.steady_state_allocs.is_none_or(|n| n == 0)
        && both_product_paths(alloc_pass_conv_product_hit_frac)
        && both_product_paths(on_tick_conv_product_hit_frac)
        && both_product_paths(batched.alloc_pass_conv_product_hit_frac);

    let report = Report {
        pr: 3,
        title: "Tape-free and cross-event batched inference: latency, identity, allocations"
            .into(),
        snapshots: snapshots.len(),
        reps,
        reference_tape_median_us,
        tape_median_us,
        infer_median_us,
        speedup,
        arena_tape_speedup,
        min_speedup_required: MIN_SPEEDUP,
        decisions_identical,
        sampled_decisions_identical,
        count_allocs_enabled,
        steady_state_allocs,
        on_tick_allocs,
        arena_capacity_f32: scratch.arena_capacity(),
        memo_op_hit_frac,
        memo_conv_hit_frac,
        memo_conv_product_hit_frac,
        alloc_pass_conv_product_hit_frac,
        on_tick_conv_product_hit_frac,
        batched,
        passed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&out, json).expect("write report");
    println!(
        "infer_latency: identity={decisions_identical} sampled_identity={sampled_decisions_identical} speedup={speedup:.2}x allocs={steady_state_allocs:?} on_tick_allocs={on_tick_allocs:?} -> {}",
        if passed { "PASS" } else { "FAIL" }
    );
    println!("report written to {out}");
    if !passed {
        std::process::exit(1);
    }
}
