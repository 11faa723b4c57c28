//! Gradient-phase training throughput: the fused arena tape (batched
//! gradient GEMMs, fused layer backward, recycled arena capacity) vs two
//! tape baselines, replaying the *same* recorded episodes through each.
//! Rollout collection is identical on all paths (it runs tape-free
//! inference), so the bench isolates what PR9 changed: the replay →
//! backward → optimizer-step phase. The baselines:
//!
//! * `baseline` — the pre-arena training shape: one per-node reference
//!   tape per decision, one backward sweep per decision, fresh buffers
//!   per episode. This is what `accumulate_rollout_gradients` used to
//!   do, and what the >=3x acceptance gate measures against.
//! * `reference` — the retained oracle (`TrainConfig::reference_tape`):
//!   the *batched* replay decomposed op by op on the per-node tape.
//!   Reported to split the win into "whole-rollout batching" (baseline →
//!   reference) and "arena + fused kernels" (reference → fused).
//!
//! Hard acceptance checks:
//! * gradient-phase episodes/sec >= 3x the per-decision tape baseline at
//!   the default `TrainConfig`;
//! * first-episode gradients bit-identical between the tapes;
//! * parameters and the full Adam state bit-identical after several
//!   optimizer steps through each tape;
//! * (with `--features count-allocs`) a steady-state fused gradient step
//!   allocates nothing — the record (incl. the tape's pinned-parameter
//!   slot table), the backward pass, the unpinning and the Adam step.
//!   The random decision subsample means capacity
//!   saturates stochastically (a pass that draws a larger-than-ever
//!   subset grows the arena once), so the bench first warms until two
//!   consecutive full passes are allocation-free, then measures. The
//!   same strictly-zero gate for the record→backward→step cycle lives at
//!   the nn layer (`steady_state_training_step_allocates_nothing`).
//!
//! ```text
//! train_throughput [--reps N] [--episodes N] [--queries N] [--out PATH] [--full]
//! ```
//!
//! The report also gives the fused tape's size per replayed decision
//! (nodes, value-slab floats, gradient-slab floats), averaged over the
//! timed steps.
//!
//! Writes a JSON report (default `BENCH_pr9.json`) and exits non-zero if
//! any criterion fails.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use lsched_core::encoder::EncodeScratch;
use lsched_core::predictor::BatchPredictScratch;
use lsched_core::{
    accumulate_rollout_gradients_with, rollout_returns, DecisionMode, EpisodeStep, GradScratch,
    LSchedConfig, LSchedModel, LSchedScheduler, RewardConfig, TrainConfig,
};
use lsched_engine::sim::{simulate, SimConfig};
use lsched_nn::{Adam, Backend, RefTape, RefTapeBackend};
use lsched_workloads::tpch;
use lsched_workloads::workload::{gen_workload, ArrivalPattern};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: lsched_nn::alloc_count::CountingAllocator =
    lsched_nn::alloc_count::CountingAllocator;

/// Minimum fused/per-decision-baseline gradient-phase throughput ratio.
const MIN_SPEEDUP: f64 = 3.0;
/// Allocation budget for one steady-state fused gradient step: zero.
/// Every buffer (arena tape, encoder/predictor scratches, Adam moments)
/// is recycled once capacity has saturated; see the module docs.
const MAX_FUSED_ALLOCS_PER_STEP: u64 = 0;

#[derive(Debug, Serialize)]
struct Report {
    pr: u32,
    title: String,
    episodes: usize,
    queries_per_episode: usize,
    reps_fused: usize,
    reps_reference: usize,
    /// Median wall time of one episode's gradient step (replay +
    /// backward + clip + Adam), fused arena tape.
    fused_step_p50_us: f64,
    /// 95th percentile of the same.
    fused_step_p95_us: f64,
    /// Median for the pre-arena baseline (per-decision tapes).
    baseline_step_p50_us: f64,
    /// Median for the batched reference-tape oracle.
    reference_step_p50_us: f64,
    /// Gradient-phase episodes/sec on each path (1 / median step time).
    fused_episodes_per_sec: f64,
    baseline_episodes_per_sec: f64,
    reference_episodes_per_sec: f64,
    /// fused vs the per-decision tape baseline — the gated number.
    speedup: f64,
    /// fused vs the batched reference oracle (arena + fused kernels
    /// alone, with whole-rollout batching held equal).
    speedup_vs_batched_reference: f64,
    min_speedup_required: f64,
    /// First-episode gradients bit-identical between the tapes.
    gradients_identical: bool,
    /// Parameters bit-identical after 3 optimizer passes through each.
    params_identical: bool,
    /// Adam step counter + both moment vectors bit-identical too.
    adam_state_identical: bool,
    count_allocs_enabled: bool,
    /// Steady-state allocations per fused gradient step (averaged over
    /// one pass; `None` without the feature).
    fused_allocs_per_step: Option<u64>,
    max_fused_allocs_per_step: u64,
    /// Same for the reference tape — the contrast the arena removes.
    reference_allocs_per_step: Option<u64>,
    /// Recycled replay arena size at steady state.
    arena_capacity_f32: usize,
    /// Fused tape nodes per replayed decision (timed steps' mean).
    tape_nodes_per_decision: f64,
    /// Value-slab floats per replayed decision.
    value_floats_per_decision: f64,
    /// Gradient-slab floats per replayed decision.
    grad_floats_per_decision: f64,
    passed: bool,
}

struct Episode {
    steps: Vec<EpisodeStep>,
    advantages: Vec<f64>,
}

/// Records `n` sampled episodes (batch workloads over the TPC-H pool)
/// with mean-centered advantages, threading one model through so every
/// episode is produced by the same parameters.
fn record_episodes(mut model: LSchedModel, n: usize, queries: usize) -> (LSchedModel, Vec<Episode>) {
    let pool = tpch::plan_pool(&[0.3]);
    let mut episodes = Vec::with_capacity(n);
    for ep in 0..n {
        let wl = gen_workload(&pool, queries, ArrivalPattern::Batch, 100 + ep as u64);
        let mut sched = LSchedScheduler::sampling(model, 0x5eed ^ ep as u64);
        let res = simulate(SimConfig { num_threads: 16, ..Default::default() }, &wl, &mut sched);
        let (m, steps) = sched.finish();
        model = m;
        assert!(!steps.is_empty(), "batch workloads must record decisions");
        let returns = rollout_returns(&RewardConfig::default(), &steps, res.makespan);
        let mean = returns.iter().sum::<f64>() / returns.len() as f64;
        let advantages: Vec<f64> = returns.iter().map(|g| g - mean).collect();
        episodes.push(Episode { steps, advantages });
    }
    (model, episodes)
}

/// One full gradient step for one episode: zero → replay/accumulate →
/// clip → Adam. Exactly the per-episode update `train_loop` performs.
fn grad_step(
    model: &mut LSchedModel,
    ep: &Episode,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    scratch: &mut GradScratch,
    opt: &mut Adam,
) {
    model.store.zero_grads();
    accumulate_rollout_gradients_with(model, &ep.steps, &ep.advantages, cfg, rng, scratch);
    model.store.clip_grad_norm(cfg.max_grad_norm);
    opt.step(&mut model.store);
}

/// The pre-arena gradient step: the same subsample/advantage math as
/// `accumulate_rollout_gradients_with`, but each selected decision is
/// replayed on its own fresh per-node tape and backpropagated on its
/// own — one tape build and one backward sweep per decision, which is
/// exactly the shape the arena tape and batched replay removed.
fn baseline_grad_step(
    model: &mut LSchedModel,
    ep: &Episode,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    opt: &mut Adam,
) {
    model.store.zero_grads();
    let advantages = &ep.advantages;
    let var = advantages.iter().map(|a| a * a).sum::<f64>() / advantages.len() as f64;
    let std = var.sqrt().max(1e-6);
    let mut order: Vec<usize> = (0..ep.steps.len()).collect();
    order.shuffle(rng);
    let take = order.len().min(cfg.decision_sample_cap);
    let scale = order.len() as f64 / take as f64;
    // Charitable to the baseline: the encoder/predictor scratches are
    // reused across decisions; only the tape itself is per-decision.
    let mut enc = EncodeScratch::new();
    let mut pscratch = BatchPredictScratch::new();
    let (mut decisions, mut picks, mut outcome) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &order[..take] {
        let step = &ep.steps[d];
        if step.snapshot.queries.is_empty() {
            continue; // no decision to replay, no gradient
        }
        let mut tape = RefTape::new();
        let loss = {
            let m: &LSchedModel = model;
            let mut b = RefTapeBackend::new(&mut tape, &m.store);
            let aqe = m.encoder.encode_system_on(&mut b, &step.snapshot, &mut enc);
            m.predictor.decide_batch_on(
                &mut b,
                &[&step.snapshot][..],
                &|_| enc.queries(),
                &[aqe],
                DecisionMode::Greedy,
                None,
                0, // pick budget unused: the forced trace bounds the event
                Some(&|_| step.picks.as_slice()),
                &mut pscratch,
                &mut decisions,
                &mut picks,
                &mut outcome,
            );
            let adv = (advantages[d] / std) * scale;
            b.scale(outcome[0].logprob, -(adv as f32))
        };
        tape.backward(loss, &mut model.store);
    }
    model.store.clip_grad_norm(cfg.max_grad_norm);
    opt.step(&mut model.store);
}

fn grad_bits(model: &LSchedModel) -> Vec<(String, Vec<u32>)> {
    let ids: Vec<_> = model.store.iter_ids().map(|(id, n)| (id, n.to_string())).collect();
    ids.into_iter()
        .map(|(id, n)| (n, model.store.grad(id).iter().map(|g| g.to_bits()).collect()))
        .collect()
}

fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx] * 1e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let grab = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let reps = grab("--reps", if full { 120 } else { 30 });
    let n_episodes = grab("--episodes", if full { 8 } else { 4 });
    let queries = grab("--queries", if full { 12 } else { 8 });
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr9.json".into());

    let fused_cfg = TrainConfig::default();
    let ref_cfg = TrainConfig { reference_tape: true, ..Default::default() };

    // Recorded once; both tapes replay the very same decisions.
    let (model, episodes) = record_episodes(LSchedModel::new(LSchedConfig::default(), 7), n_episodes, queries);
    drop(model);

    // -- Bit identity ------------------------------------------------------
    // Same seed ⇒ bit-identical init; the replay consumes rng only for
    // the shared subsample shuffle, so lockstep seeding keeps both runs
    // on one stream.
    let mut m_fused = LSchedModel::new(LSchedConfig::default(), 7);
    let mut m_ref = LSchedModel::new(LSchedConfig::default(), 7);
    let mut rng_fused = StdRng::seed_from_u64(11);
    let mut rng_ref = StdRng::seed_from_u64(11);
    let mut scratch = GradScratch::new();
    let mut ref_scratch = GradScratch::new();

    m_fused.store.zero_grads();
    accumulate_rollout_gradients_with(
        &mut m_fused, &episodes[0].steps, &episodes[0].advantages, &fused_cfg,
        &mut rng_fused, &mut scratch,
    );
    m_ref.store.zero_grads();
    accumulate_rollout_gradients_with(
        &mut m_ref, &episodes[0].steps, &episodes[0].advantages, &ref_cfg,
        &mut rng_ref, &mut ref_scratch,
    );
    let gradients_identical = grad_bits(&m_fused) == grad_bits(&m_ref);

    let mut opt_fused = Adam::new(fused_cfg.lr);
    let mut opt_ref = Adam::new(ref_cfg.lr);
    for _ in 0..3 {
        for ep in &episodes {
            grad_step(&mut m_fused, ep, &fused_cfg, &mut rng_fused, &mut scratch, &mut opt_fused);
            grad_step(&mut m_ref, ep, &ref_cfg, &mut rng_ref, &mut ref_scratch, &mut opt_ref);
        }
    }
    let params_identical = m_fused.params_json() == m_ref.params_json();
    let adam_state_identical = opt_fused.to_state() == opt_ref.to_state();
    println!(
        "bit identity: grads={gradients_identical} params={params_identical} adam={adam_state_identical}"
    );

    // -- Steady-state allocations ------------------------------------------
    // The identity passes above warmed every scratch arena, but the
    // random decision subsample means a later pass can still draw a
    // larger-than-ever subset and grow capacity once. Warm until two
    // consecutive full passes are allocation-free, then measure.
    let count_allocs_enabled = cfg!(feature = "count-allocs");
    #[cfg(feature = "count-allocs")]
    let (fused_allocs_per_step, reference_allocs_per_step) = {
        let steps = episodes.len() as u64;
        let mut dry = 0u32;
        for _ in 0..64 {
            let (n, _) = lsched_nn::alloc_count::allocations_during(|| {
                for ep in &episodes {
                    grad_step(
                        &mut m_fused, ep, &fused_cfg, &mut rng_fused, &mut scratch,
                        &mut opt_fused,
                    );
                }
            });
            dry = if n == 0 { dry + 1 } else { 0 };
            if dry >= 2 {
                break;
            }
        }
        let (nf, _) = lsched_nn::alloc_count::allocations_during(|| {
            for ep in &episodes {
                grad_step(&mut m_fused, ep, &fused_cfg, &mut rng_fused, &mut scratch, &mut opt_fused);
            }
        });
        let (nr, _) = lsched_nn::alloc_count::allocations_during(|| {
            for ep in &episodes {
                grad_step(&mut m_ref, ep, &ref_cfg, &mut rng_ref, &mut ref_scratch, &mut opt_ref);
            }
        });
        println!(
            "steady-state allocations per gradient step: fused {} vs reference {}",
            nf / steps,
            nr / steps
        );
        (Some(nf / steps), Some(nr / steps))
    };
    #[cfg(not(feature = "count-allocs"))]
    let (fused_allocs_per_step, reference_allocs_per_step): (Option<u64>, Option<u64>) = {
        println!("count-allocs feature disabled: skipping allocation check");
        (None, None)
    };

    // -- Throughput --------------------------------------------------------
    // Per-episode gradient-step latency on each path; the per-node-tape
    // paths are an order of magnitude slower, so they get proportionally
    // fewer reps (medians stabilize just as well).
    let reps_reference = (reps / 5).max(3);
    let mut fused_times = Vec::with_capacity(reps * episodes.len());
    let (mut decisions, mut nodes, mut value_floats, mut grad_floats) = (0, 0, 0, 0);
    for _ in 0..reps {
        for ep in &episodes {
            let t = Instant::now();
            grad_step(&mut m_fused, ep, &fused_cfg, &mut rng_fused, &mut scratch, &mut opt_fused);
            fused_times.push(t.elapsed().as_secs_f64());
            let size = scratch.tape_size();
            decisions += scratch.replayed_decisions();
            nodes += size.nodes;
            value_floats += size.value_floats;
            grad_floats += size.grad_floats;
        }
    }
    let per_decision = |total: usize| total as f64 / decisions.max(1) as f64;
    let (tape_nodes_per_decision, value_floats_per_decision, grad_floats_per_decision) =
        (per_decision(nodes), per_decision(value_floats), per_decision(grad_floats));
    println!(
        "fused tape per replayed decision: {tape_nodes_per_decision:.0} nodes, \
         {value_floats_per_decision:.0} value floats, {grad_floats_per_decision:.0} gradient floats"
    );
    let mut ref_times = Vec::with_capacity(reps_reference * episodes.len());
    for _ in 0..reps_reference {
        for ep in &episodes {
            let t = Instant::now();
            grad_step(&mut m_ref, ep, &ref_cfg, &mut rng_ref, &mut ref_scratch, &mut opt_ref);
            ref_times.push(t.elapsed().as_secs_f64());
        }
    }
    let mut m_base = LSchedModel::new(LSchedConfig::default(), 7);
    let mut rng_base = StdRng::seed_from_u64(11);
    let mut opt_base = Adam::new(fused_cfg.lr);
    let mut base_times = Vec::with_capacity(reps_reference * episodes.len());
    for _ in 0..reps_reference {
        for ep in &episodes {
            let t = Instant::now();
            baseline_grad_step(&mut m_base, ep, &fused_cfg, &mut rng_base, &mut opt_base);
            base_times.push(t.elapsed().as_secs_f64());
        }
    }
    let fused_step_p50_us = percentile_us(&mut fused_times, 0.5);
    let fused_step_p95_us = percentile_us(&mut fused_times, 0.95);
    let baseline_step_p50_us = percentile_us(&mut base_times, 0.5);
    let reference_step_p50_us = percentile_us(&mut ref_times, 0.5);
    let fused_episodes_per_sec = 1e6 / fused_step_p50_us;
    let baseline_episodes_per_sec = 1e6 / baseline_step_p50_us;
    let reference_episodes_per_sec = 1e6 / reference_step_p50_us;
    let speedup = fused_episodes_per_sec / baseline_episodes_per_sec;
    let speedup_vs_batched_reference = fused_episodes_per_sec / reference_episodes_per_sec;
    println!(
        "gradient phase: fused p50 {fused_step_p50_us:.1}us (p95 {fused_step_p95_us:.1}us, \
         {fused_episodes_per_sec:.0} eps/s) vs per-decision baseline p50 \
         {baseline_step_p50_us:.1}us ({baseline_episodes_per_sec:.0} eps/s) -> {speedup:.2}x \
         (vs batched reference p50 {reference_step_p50_us:.1}us -> \
         {speedup_vs_batched_reference:.2}x)"
    );

    let passed = gradients_identical
        && params_identical
        && adam_state_identical
        && speedup >= MIN_SPEEDUP
        // The budget is zero, so "at most" is "exactly".
        && fused_allocs_per_step.is_none_or(|n| n == MAX_FUSED_ALLOCS_PER_STEP);

    let report = Report {
        pr: 9,
        title: "Allocation-free training: arena tape + batched gradient GEMMs vs reference tape"
            .into(),
        episodes: episodes.len(),
        queries_per_episode: queries,
        reps_fused: reps,
        reps_reference,
        fused_step_p50_us,
        fused_step_p95_us,
        baseline_step_p50_us,
        reference_step_p50_us,
        fused_episodes_per_sec,
        baseline_episodes_per_sec,
        reference_episodes_per_sec,
        speedup,
        speedup_vs_batched_reference,
        min_speedup_required: MIN_SPEEDUP,
        gradients_identical,
        params_identical,
        adam_state_identical,
        count_allocs_enabled,
        fused_allocs_per_step,
        max_fused_allocs_per_step: MAX_FUSED_ALLOCS_PER_STEP,
        reference_allocs_per_step,
        arena_capacity_f32: scratch.arena_capacity(),
        tape_nodes_per_decision,
        value_floats_per_decision,
        grad_floats_per_decision,
        passed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&out, json).expect("write report");
    println!(
        "train_throughput: speedup={speedup:.2}x identity={} allocs={fused_allocs_per_step:?} -> {}",
        gradients_identical && params_identical && adam_state_identical,
        if passed { "PASS" } else { "FAIL" }
    );
    println!("report written to {out}");
    if !passed {
        std::process::exit(1);
    }
}
