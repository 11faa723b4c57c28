//! The REINFORCE training loop (Section 6): episodes are simulated with
//! a sampling agent, every scheduling decision is rewarded with the
//! average+tail objective, and the policy gradient is accumulated by
//! replaying recorded decisions with their advantages.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use lsched_engine::scheduler::SchedDecision;
use lsched_engine::sim::{simulate, SimConfig};
use lsched_nn::{
    Adam, AdamState, Backend, CheckpointError, CheckpointManager, Graph, NodeId, RefTape,
    RefTapeBackend, TapeBackend, TapeSize,
};
use lsched_workloads::EpisodeSampler;

use crate::agent::{EpisodeStep, LSchedModel, LSchedScheduler};
use crate::encoder::EncodeScratch;
use crate::experience::{ExperienceManager, ExperienceSource};
use crate::features::SystemSnapshot;
use crate::predictor::{BatchPredictScratch, DecisionMode, EventOutcome, PickTrace, SnapshotList};
use crate::rl::{
    episode_rewards, latency_approximations, suffix_returns_in_place, RewardConfig,
};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of training episodes.
    pub episodes: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Reward weighting (Section 6).
    pub reward: RewardConfig,
    /// Gradient clipping norm.
    pub max_grad_norm: f32,
    /// Max decisions replayed for the gradient per episode (a uniform
    /// subsample keeps per-episode cost bounded; gradients are rescaled
    /// to stay unbiased).
    pub decision_sample_cap: usize,
    /// Simulator configuration for episodes.
    pub sim: SimConfig,
    /// RNG seed.
    pub seed: u64,
    /// Exploration rollouts per sampled workload (the input-dependent
    /// baseline averages across them; 2 is Decima's setting).
    pub rollouts_per_episode: usize,
    /// Worker threads for collecting exploration rollouts (0 = all
    /// available cores). Rollouts are embarrassingly parallel against a
    /// frozen parameter snapshot and every rollout's RNG is seeded only
    /// by `(seed, episode, rollout index)`, so any thread count produces
    /// bit-identical training to a sequential run.
    pub rollout_threads: usize,
    /// Replay gradients on the retained per-node reference tape instead
    /// of the arena tape. The reference tape records the same replay
    /// structure decomposed op by op and is roughly an order of
    /// magnitude slower — it exists as the in-process oracle the fused
    /// arena backward is gated against bit for bit (see
    /// `tests/grad_equivalence.rs`), not as a production path.
    pub reference_tape: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            episodes: 50,
            lr: 1e-3,
            reward: RewardConfig::default(),
            max_grad_norm: 5.0,
            decision_sample_cap: 32,
            sim: SimConfig { num_threads: 16, ..Default::default() },
            seed: 0,
            rollouts_per_episode: 2,
            rollout_threads: 0,
            reference_tape: false,
        }
    }
}

/// The deterministic per-rollout simulator seed: a pure function of the
/// training seed, the episode index and the rollout index (the paper's
/// `seed ⊕ episode ⊕ rollout` requirement). Because no shared RNG state
/// is consumed per rollout, parallel and sequential collection produce
/// identical streams.
pub fn rollout_seed(seed: u64, episode: usize, rollout: usize) -> u64 {
    seed.wrapping_add(episode as u64 * 7919 + rollout as u64 * 131)
}

/// Everything one exploration rollout produces, collected in rollout
/// order so downstream gradient accumulation is order-stable.
struct RolloutOutcome {
    steps: Vec<EpisodeStep>,
    returns: Vec<f64>,
    avg_duration: f64,
    p90_duration: f64,
    fallbacks: u64,
}

/// Per-episode training statistics.
#[derive(Debug, Clone)]
pub struct EpisodeStats {
    /// Episode index.
    pub episode: usize,
    /// Average query duration achieved.
    pub avg_duration: f64,
    /// Sum of decision rewards.
    pub total_reward: f64,
    /// Decisions recorded.
    pub decisions: usize,
    /// Progress-guard fallbacks the simulator had to apply.
    pub fallbacks: u64,
}

/// Full training run statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// One entry per episode, in order.
    pub episodes: Vec<EpisodeStats>,
}

impl TrainStats {
    /// Mean avg-duration over the last `n` episodes.
    pub fn recent_avg_duration(&self, n: usize) -> f64 {
        let skip = self.episodes.len().saturating_sub(n);
        let slice = &self.episodes[skip..];
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(|e| e.avg_duration).sum::<f64>() / slice.len() as f64
    }

    /// Mean total reward over the last `n` episodes.
    pub fn recent_reward(&self, n: usize) -> f64 {
        let skip = self.episodes.len().saturating_sub(n);
        let slice = &self.episodes[skip..];
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(|e| e.total_reward).sum::<f64>() / slice.len() as f64
    }
}

/// Per-decision returns of one recorded rollout.
pub fn rollout_returns(cfg: &RewardConfig, steps: &[EpisodeStep], makespan: f64) -> Vec<f64> {
    if steps.is_empty() {
        return Vec::new();
    }
    let times: Vec<f64> = steps.iter().map(|s| s.time).collect();
    let counts: Vec<usize> = steps.iter().map(|s| s.num_queries).collect();
    let h = latency_approximations(&times, &counts, makespan);
    let mut returns = episode_rewards(cfg, &h);
    suffix_returns_in_place(&mut returns);
    returns.truncate(steps.len());
    returns
}

/// The return-to-go of a rollout at wall-clock time `t`: the suffix
/// return of its first decision at or after `t` (0 past the end). The
/// rollout is given as time-ordered `(time, return)` pairs.
pub fn return_at(rollout: &[(f64, f64)], t: f64) -> f64 {
    match rollout.iter().find(|(td, _)| *td >= t) {
        Some((_, g)) => *g,
        None => 0.0,
    }
}

/// Decima's input-dependent baseline, aligned by *wall-clock time*: the
/// baseline for a decision taken at time `t` is the mean return-to-go of
/// all same-workload rollouts evaluated at time `t`. This is the
/// variance-reduction technique of Weaver & Tao that Section 6 cites,
/// and the alignment matters: comparing by decision index instead
/// systematically penalizes policies that make more (finer-grained)
/// decisions per unit time.
pub fn time_aligned_baseline(rollouts: &[Vec<(f64, f64)>], t: f64) -> f64 {
    if rollouts.is_empty() {
        return 0.0;
    }
    rollouts.iter().map(|r| return_at(r, t)).sum::<f64>() / rollouts.len() as f64
}

/// Every reusable buffer of the batched gradient replay: the arena tape
/// plus the encoder/predictor scratch vectors
/// [`accumulate_rollout_gradients_with`] records into. One `GradScratch`
/// lives across all rollouts and episodes of a training run, so after
/// warm-up each replay runs entirely in recycled capacity — the training
/// counterpart of the inference path's `InferScratch`.
#[derive(Default)]
pub struct GradScratch {
    g: Graph,
    encs: Vec<EncodeScratch<NodeId>>,
    pred: BatchPredictScratch<NodeId>,
    aqes: Vec<NodeId>,
    outcomes: Vec<EventOutcome<NodeId>>,
    decisions: Vec<SchedDecision>,
    picks: Vec<PickTrace>,
    loss_terms: Vec<NodeId>,
    order: Vec<usize>,
}

impl GradScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the tape's value arena in `f32` slots —
    /// stable once warmed up (diagnostics/benchmarks).
    pub fn arena_capacity(&self) -> usize {
        self.g.arena_capacity()
    }

    /// The size of the last arena-tape replay's recording
    /// (diagnostics/benchmarks).
    pub fn tape_size(&self) -> TapeSize {
        self.g.size()
    }

    /// How many decisions the last arena-tape replay recorded.
    pub fn replayed_decisions(&self) -> usize {
        self.loss_terms.len()
    }
}

/// Records the REINFORCE replay of the selected decisions as *one*
/// graph on `b` and returns the total loss node
/// `Σ_e −Â_e · log π(a_e | s_e)`.
///
/// All selected events' candidate root scores flow through a single
/// [`Backend::mlp_scores_batched`] segment table, so on the arena tape
/// the backward pass runs each head layer's gradient GEMM once across
/// the whole rollout instead of once per decision. Generic over the
/// backend: the production path instantiates it with the arena
/// [`TapeBackend`], the oracle with the decomposed [`RefTapeBackend`] —
/// identical replay structure, bit-identical gradients.
/// Indirect [`SnapshotList`] view over the replay's selected decisions:
/// event `e` is `steps[selected[e]].snapshot`. Handing this view to
/// [`SchedulingPredictor::decide_batch_on`] (instead of collecting a
/// `Vec<&SystemSnapshot>` per call) keeps the steady-state gradient step
/// free of heap allocations.
struct SelectedSnaps<'a> {
    steps: &'a [EpisodeStep],
    selected: &'a [usize],
}

impl SnapshotList for SelectedSnaps<'_> {
    fn len(&self) -> usize {
        self.selected.len()
    }
    fn get(&self, i: usize) -> &SystemSnapshot {
        &self.steps[self.selected[i]].snapshot
    }
}

#[allow(clippy::too_many_arguments)]
fn record_replay_loss<B: Backend>(
    b: &mut B,
    model: &LSchedModel,
    steps: &[EpisodeStep],
    selected: &[usize],
    advantages: &[f64],
    std: f64,
    scale: f64,
    encs: &mut Vec<EncodeScratch<B::Id>>,
    pred: &mut BatchPredictScratch<B::Id>,
    aqes: &mut Vec<B::Id>,
    outcomes: &mut Vec<EventOutcome<B::Id>>,
    decisions: &mut Vec<SchedDecision>,
    picks: &mut Vec<PickTrace>,
    loss_terms: &mut Vec<B::Id>,
) -> B::Id {
    let snaps = SelectedSnaps { steps, selected };
    while encs.len() < snaps.len() {
        encs.push(EncodeScratch::new());
    }
    aqes.clear();
    for (e, enc) in encs.iter_mut().enumerate().take(snaps.len()) {
        let snap = snaps.get(e);
        let aqe = if snap.queries.is_empty() {
            // Nothing to encode; the forced pick list is necessarily
            // empty too, so any valid handle stands in for the AQE.
            enc.clear();
            b.scalar(0.0)
        } else {
            model.encoder.encode_system_on(b, snap, enc)
        };
        aqes.push(aqe);
    }
    let forced = |e: usize| steps[selected[e]].picks.as_slice();
    model.predictor.decide_batch_on(
        b,
        &snaps,
        &|e| encs[e].queries(),
        aqes,
        DecisionMode::Greedy,
        None,
        0, // pick budget unused: the forced traces bound every event
        Some(&forced),
        pred,
        decisions,
        picks,
        outcomes,
    );
    // REINFORCE loss per event: -A_e * log π(a_e | s_e), summed.
    loss_terms.clear();
    for (e, o) in outcomes.iter().enumerate() {
        let adv = (advantages[selected[e]] / std) * scale;
        loss_terms.push(b.scale(o.logprob, -(adv as f32)));
    }
    let cat = b.concat(loss_terms);
    b.sum_elems(cat)
}

/// Accumulates one rollout's REINFORCE gradients into the model's
/// parameter store (no optimizer step). Exposed for reuse by the Decima
/// baseline's trainer structure.
///
/// Convenience wrapper over [`accumulate_rollout_gradients_with`] that
/// pays for a fresh [`GradScratch`]; hot loops hold one scratch across
/// rollouts instead.
pub fn accumulate_rollout_gradients(
    model: &mut LSchedModel,
    steps: &[EpisodeStep],
    advantages: &[f64],
    cfg: &TrainConfig,
    rng: &mut StdRng,
) {
    let mut scratch = GradScratch::new();
    accumulate_rollout_gradients_with(model, steps, advantages, cfg, rng, &mut scratch);
}

/// Accumulates one rollout's REINFORCE gradients into the model's
/// parameter store using caller-provided scratch (no optimizer step).
///
/// The sampled decisions replay as a single batched graph — one fused
/// gradient GEMM per head layer across the whole rollout, one backward
/// sweep — and the graph's parameter pins are released afterwards so
/// the optimizer step that follows updates tensors in place. With
/// [`TrainConfig::reference_tape`] the identical replay structure runs
/// on the retained reference tape instead (the bit-exactness oracle).
///
/// The only RNG consumption is the decision subsample shuffle, which is
/// shared by both tapes, so toggling `reference_tape` cannot shift the
/// training RNG stream.
pub fn accumulate_rollout_gradients_with(
    model: &mut LSchedModel,
    steps: &[EpisodeStep],
    advantages: &[f64],
    cfg: &TrainConfig,
    rng: &mut StdRng,
    scratch: &mut GradScratch,
) {
    if steps.is_empty() {
        return;
    }
    // Scale-normalize advantages for a stable gradient magnitude.
    let var = advantages.iter().map(|a| a * a).sum::<f64>() / advantages.len() as f64;
    let std = var.sqrt().max(1e-6);

    let GradScratch { g, encs, pred, aqes, outcomes, decisions, picks, loss_terms, order } =
        scratch;
    order.clear();
    order.extend(0..steps.len());
    order.shuffle(rng);
    let take = order.len().min(cfg.decision_sample_cap);
    let scale = order.len() as f64 / take as f64;
    let selected = &order[..take];

    if cfg.reference_tape {
        // Oracle path: same replay, decomposed recording on the
        // per-node-owned reference tape. Fresh buffers every call — the
        // oracle is a correctness gate, not a hot path.
        let mut tape = RefTape::new();
        let loss = {
            let m: &LSchedModel = model;
            let mut b = RefTapeBackend::new(&mut tape, &m.store);
            record_replay_loss(
                &mut b,
                m,
                steps,
                selected,
                advantages,
                std,
                scale,
                &mut Vec::new(),
                &mut BatchPredictScratch::new(),
                &mut Vec::new(),
                &mut Vec::new(),
                decisions,
                picks,
                &mut Vec::new(),
            )
        };
        tape.backward(loss, &mut model.store);
    } else {
        g.reset();
        let loss = {
            let m: &LSchedModel = model;
            let mut b = TapeBackend::new(g, &m.store);
            record_replay_loss(
                &mut b, m, steps, selected, advantages, std, scale, encs, pred, aqes, outcomes,
                decisions, picks, loss_terms,
            )
        };
        g.backward(loss, &mut model.store);
        // Unpin the parameter Arcs so the optimizer step that follows
        // updates every tensor in place instead of COW-cloning it.
        g.release_params();
    }
}

/// Trains `model` on episodes drawn from `sampler`, recording each
/// episode into `experience`. Returns the trained model and stats.
///
/// Each training episode samples one workload and runs
/// `rollouts_per_episode` exploration rollouts on it; a decision's
/// baseline is [`time_aligned_baseline`], the mean return-to-go of those
/// rollouts at the decision's wall-clock time (input-dependent
/// baseline), so the gradient reflects how a rollout's *decisions*
/// compared against the other rollouts of the *same* workload.
pub fn train(
    model: LSchedModel,
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
    experience: &mut ExperienceManager,
) -> (LSchedModel, TrainStats) {
    let rng = StdRng::seed_from_u64(cfg.seed);
    let opt = Adam::new(cfg.lr);
    match train_loop(model, sampler, cfg, experience, 0, opt, rng, &mut |_, _, _, _| Ok(())) {
        Ok(out) => out,
        // Invariant: the no-op episode callback above never fails, and
        // `train_loop` has no other error source.
        Err(e) => unreachable!("train without checkpointing cannot fail: {e}"),
    }
}

/// Serializable snapshot of the training loop at an episode boundary —
/// everything needed to resume bit-identically: parameters, optimizer
/// moments, and the training RNG stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Episodes fully completed when the snapshot was taken.
    pub episode: u64,
    /// Model parameters, as [`crate::agent::LSchedModel::params_json`].
    pub params_json: String,
    /// Full Adam state (step counter + both moments).
    pub adam: AdamState,
    /// xoshiro256++ state of the training RNG; 4 words, stored as a
    /// `Vec` because the vendored serde shim has no fixed-size arrays.
    pub rng_state: Vec<u64>,
}

/// Where and how often [`train_with_checkpoints`] persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory + retention window (keep-last-K) for the snapshots.
    pub manager: CheckpointManager,
    /// Save every this many completed episodes (minimum 1); the final
    /// episode is always saved regardless.
    pub every: usize,
}

/// Like [`train`], but crash-safe: resumes from the newest readable
/// checkpoint in `policy.manager` (falling back past corrupt
/// generations) and snapshots parameters, optimizer, and RNG at episode
/// boundaries. A run killed at any point and restarted produces
/// bit-identical final parameters to an uninterrupted run, because a
/// checkpoint captures the complete training state and episodes are the
/// only unit of progress. Returns the episode index training resumed
/// from (0 for a fresh run); `stats` covers only episodes run by this
/// call.
pub fn train_with_checkpoints(
    mut model: LSchedModel,
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
    experience: &mut ExperienceManager,
    policy: &CheckpointPolicy,
) -> Result<(LSchedModel, TrainStats, usize), CheckpointError> {
    let every = policy.every.max(1);
    let (start_ep, opt, rng) = match policy.manager.load_latest() {
        Ok((_, payload)) => {
            let text = String::from_utf8(payload)
                .map_err(|e| CheckpointError::Corrupt(format!("payload is not UTF-8: {e}")))?;
            let ckpt: TrainCheckpoint = serde_json::from_str(&text)
                .map_err(|e| CheckpointError::Corrupt(format!("payload does not parse: {e}")))?;
            let words: [u64; 4] = ckpt.rng_state.as_slice().try_into().map_err(|_| {
                CheckpointError::Corrupt(format!(
                    "RNG state has {} words, expected 4",
                    ckpt.rng_state.len()
                ))
            })?;
            model.load_params_json(&ckpt.params_json).map_err(|e| {
                CheckpointError::Corrupt(format!("parameters do not load: {e}"))
            })?;
            (ckpt.episode as usize, Adam::from_state(ckpt.adam), StdRng::from_state(words))
        }
        Err(CheckpointError::NoCheckpoint) => {
            (0, Adam::new(cfg.lr), StdRng::seed_from_u64(cfg.seed))
        }
        Err(e) => return Err(e),
    };
    let manager = &policy.manager;
    let total = cfg.episodes;
    let (model, stats) = train_loop(
        model,
        sampler,
        cfg,
        experience,
        start_ep,
        opt,
        rng,
        &mut |done, model, opt, rng| {
            if done % every == 0 || done == total {
                let ckpt = TrainCheckpoint {
                    episode: done as u64,
                    params_json: model.params_json(),
                    adam: opt.to_state(),
                    rng_state: rng.state().to_vec(),
                };
                let json = serde_json::to_string(&ckpt).map_err(|e| {
                    CheckpointError::Corrupt(format!("snapshot serialization failed: {e}"))
                })?;
                manager.save(done as u64, json.as_bytes())?;
            }
            Ok(())
        },
    )?;
    Ok((model, stats, start_ep))
}

/// Episode-boundary callback of [`train_loop`]: receives the number of
/// completed episodes and the live training state.
type EpisodeHook<'a> =
    &'a mut dyn FnMut(usize, &LSchedModel, &Adam, &StdRng) -> Result<(), CheckpointError>;

/// The episode loop shared by [`train`] and [`train_with_checkpoints`]:
/// runs episodes `start_ep..cfg.episodes`, invoking `after_episode` with
/// the number of *completed* episodes and the live training state after
/// each one.
#[allow(clippy::too_many_arguments)]
fn train_loop(
    mut model: LSchedModel,
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
    experience: &mut ExperienceManager,
    start_ep: usize,
    mut opt: Adam,
    mut rng: StdRng,
    after_episode: EpisodeHook<'_>,
) -> Result<(LSchedModel, TrainStats), CheckpointError> {
    let mut stats = TrainStats::default();
    let rollouts = cfg.rollouts_per_episode.max(1);
    // One replay scratch for the whole run: after the first episode the
    // arena tape and every bookkeeping vector replay rollouts in
    // recycled capacity.
    let mut grad_scratch = GradScratch::new();
    // Invariant: building a rayon pool only fails when the OS refuses to
    // spawn threads, which is unrecoverable for a training run anyway.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.rollout_threads)
        .build()
        .expect("OS must allow spawning the rollout thread pool");

    for ep in start_ep..cfg.episodes {
        let workload = sampler.sample(&mut rng);

        // Freeze the parameters for the episode and fan the exploration
        // rollouts out across the pool. Each rollout owns its scheduler
        // (RNG, step recording, encoding cache); only the parameter
        // snapshot is shared. Collection preserves rollout order and all
        // floating-point accumulation below stays sequential, so the
        // result is bit-identical at any thread count.
        let shared = Arc::new(model);
        let outcomes: Vec<RolloutOutcome> = pool.install(|| {
            (0..rollouts)
                .into_par_iter()
                .map(|r| {
                    let mut sim_cfg = cfg.sim.clone();
                    sim_cfg.seed = rollout_seed(cfg.seed, ep, r);
                    let mut sched =
                        LSchedScheduler::sampling_shared(Arc::clone(&shared), sim_cfg.seed ^ 0x5eed);
                    let res = simulate(sim_cfg, &workload, &mut sched);
                    let steps = sched.into_steps();
                    let returns = rollout_returns(&cfg.reward, &steps, res.makespan);
                    RolloutOutcome {
                        steps,
                        returns,
                        avg_duration: res.avg_duration(),
                        p90_duration: res.quantile_duration(0.9),
                        fallbacks: res.fallback_decisions,
                    }
                })
                .collect()
        });
        model = Arc::try_unwrap(shared).expect("rollout workers release the model snapshot");

        let mut all_steps: Vec<Vec<EpisodeStep>> = Vec::with_capacity(rollouts);
        let mut all_returns: Vec<Vec<f64>> = Vec::with_capacity(rollouts);
        let mut avg_dur = 0.0;
        let mut p90_dur = 0.0;
        let mut fallbacks = 0;
        for o in outcomes {
            all_returns.push(o.returns);
            all_steps.push(o.steps);
            avg_dur += o.avg_duration / rollouts as f64;
            p90_dur += o.p90_duration / rollouts as f64;
            fallbacks += o.fallbacks;
        }

        // Time-aligned return curves per rollout.
        let curves: Vec<Vec<(f64, f64)>> = all_steps
            .iter()
            .zip(&all_returns)
            .map(|(steps, returns)| {
                steps.iter().map(|s| s.time).zip(returns.iter().copied()).collect()
            })
            .collect();
        model.store.zero_grads();
        for (steps, returns) in all_steps.iter().zip(&all_returns) {
            let advantages: Vec<f64> = steps
                .iter()
                .zip(returns)
                .map(|(s, g)| g - time_aligned_baseline(&curves, s.time))
                .collect();
            accumulate_rollout_gradients_with(
                &mut model,
                steps,
                &advantages,
                cfg,
                &mut rng,
                &mut grad_scratch,
            );
        }
        model.store.clip_grad_norm(cfg.max_grad_norm);
        opt.step(&mut model.store);

        // Episode bookkeeping: the first rollout's reward (G_0 is the
        // sum of all decision rewards).
        let total_reward = all_returns.first().and_then(|r| r.first()).copied().unwrap_or(0.0);
        let decisions = all_steps.first().map_or(0, Vec::len);
        experience.record(
            ExperienceSource::Training,
            total_reward,
            decisions,
            avg_dur,
            p90_dur,
        );
        stats.episodes.push(EpisodeStats {
            episode: ep,
            avg_duration: avg_dur,
            total_reward,
            decisions,
            fallbacks,
        });
        after_episode(ep + 1, &model, &opt, &rng)?;
    }
    Ok((model, stats))
}

/// Trains with periodic validation-based checkpoint selection: every
/// `chunk` episodes (and after the last) the model is evaluated greedily
/// on `val_workload` and the best-scoring parameters are kept. This tames
/// REINFORCE's evaluation variance — the sampled policy improves noisily,
/// and committing to the last iterate rather than the best one routinely
/// discards the gains.
///
/// Validation only reads the live parameters at chunk boundaries: the
/// run is one [`train`] trajectory (one optimizer, one RNG stream, one
/// episode count), so `chunk` changes which parameters can be selected,
/// never the trajectory itself.
pub fn train_with_validation(
    model: LSchedModel,
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
    chunk: usize,
    val_workload: &[lsched_engine::sim::WorkloadItem],
    val_sim: &SimConfig,
    experience: &mut ExperienceManager,
) -> (LSchedModel, TrainStats, f64) {
    let chunk = chunk.max(1);
    let score = |model: &LSchedModel| {
        let json = model.params_json();
        let mut probe = LSchedModel::new(model.cfg.clone(), 0);
        let _ = probe.load_params_json(&json);
        let s = simulate(val_sim.clone(), val_workload, &mut LSchedScheduler::greedy(probe))
            .avg_duration();
        (json, s)
    };
    // Score the starting parameters too: selection can then never end
    // below the initial model on the validation workload.
    let (mut best_json, mut best_score) = score(&model);
    let total = cfg.episodes;
    let rng = StdRng::seed_from_u64(cfg.seed);
    let opt = Adam::new(cfg.lr);
    let run = train_loop(model, sampler, cfg, experience, 0, opt, rng, &mut |done, model, _, _| {
        if done % chunk == 0 || done == total {
            let (json, s) = score(model);
            if s < best_score {
                best_score = s;
                best_json = json;
            }
        }
        Ok(())
    });
    let (mut model, stats) = match run {
        Ok(out) => out,
        // Invariant: the validation hook above never fails, and
        // `train_loop` has no other error source.
        Err(e) => unreachable!("train without checkpointing cannot fail: {e}"),
    };
    let _ = model.load_params_json(&best_json);
    (model, stats, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::LSchedConfig;
    use crate::encoder::EncoderConfig;
    use crate::predictor::PredictorConfig;
    use lsched_workloads::tpch;
    use lsched_workloads::ArrivalPattern;

    fn tiny_model(seed: u64) -> LSchedModel {
        LSchedModel::new(
            LSchedConfig {
                encoder: EncoderConfig {
                    hidden: 10,
                    edge_hidden: 4,
                    pqe_dim: 6,
                    aqe_dim: 6,
                    conv_layers: 2,
                    ..Default::default()
                },
                predictor: PredictorConfig {
                    max_degree: 4,
                    max_threads: 16,
                    ..Default::default()
                },
            },
            seed,
        )
    }

    fn tiny_sampler() -> EpisodeSampler {
        EpisodeSampler {
            pool: tpch::plan_pool(&[0.3]),
            size_range: (4, 6),
            rate_range: (20.0, 60.0),
            batch_fraction: 0.5,
        }
    }

    #[test]
    fn training_runs_and_updates_params() {
        let model = tiny_model(1);
        let before = model.params_json();
        let cfg = TrainConfig {
            episodes: 3,
            sim: SimConfig { num_threads: 6, ..Default::default() },
            ..Default::default()
        };
        let mut exp = ExperienceManager::new(100);
        let (model, stats) = train(model, &tiny_sampler(), &cfg, &mut exp);
        assert_eq!(stats.episodes.len(), 3);
        assert_eq!(exp.len(), 3);
        assert!(stats.episodes.iter().all(|e| e.decisions > 0));
        assert_ne!(model.params_json(), before, "parameters should move");
    }

    #[test]
    fn training_improves_over_untrained_on_fixed_workload() {
        use lsched_workloads::gen_workload;
        // Small but real check: after training on a distribution, greedy
        // performance on a fixed workload from that distribution should
        // not be worse than the untrained model by much — and usually
        // better. We assert non-catastrophic behaviour (<= 1.5x) to keep
        // the test robust, and improvement in most seeds is verified in
        // the integration suite.
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 6, ArrivalPattern::Batch, 99);
        let sim = SimConfig { num_threads: 6, ..Default::default() };

        let untrained = tiny_model(2);
        let mut s0 = LSchedScheduler::greedy(untrained);
        let r0 = simulate(sim.clone(), &wl, &mut s0);

        let cfg = TrainConfig { episodes: 6, sim: sim.clone(), ..Default::default() };
        let mut exp = ExperienceManager::new(100);
        let (trained, _) = train(tiny_model(2), &tiny_sampler(), &cfg, &mut exp);
        let mut s1 = LSchedScheduler::greedy(trained);
        let r1 = simulate(sim, &wl, &mut s1);

        assert!(
            r1.avg_duration() <= r0.avg_duration() * 1.5,
            "trained {} vs untrained {}",
            r1.avg_duration(),
            r0.avg_duration()
        );
    }

    #[test]
    fn training_is_bit_identical_across_rollout_thread_counts() {
        // The tentpole invariant: rollout RNGs are seeded purely by
        // (seed, episode, rollout index) and gradient accumulation is
        // sequential in rollout order, so the thread count can only
        // change wall-clock time — never a single parameter bit.
        let run = |threads: usize| {
            let cfg = TrainConfig {
                episodes: 2,
                rollouts_per_episode: 4,
                rollout_threads: threads,
                sim: SimConfig { num_threads: 6, ..Default::default() },
                seed: 17,
                ..Default::default()
            };
            let mut exp = ExperienceManager::new(8);
            let (model, stats) = train(tiny_model(17), &tiny_sampler(), &cfg, &mut exp);
            (model.params_json(), format!("{stats:?}"))
        };
        let (p1, s1) = run(1);
        let (p2, s2) = run(2);
        let (p8, s8) = run(8);
        assert_eq!(p1, p2, "params must not depend on thread count");
        assert_eq!(p1, p8, "params must not depend on thread count");
        assert_eq!(s1, s2, "episode stats must not depend on thread count");
        assert_eq!(s1, s8, "episode stats must not depend on thread count");
    }

    /// Validation reads the trajectory without steering it: at every
    /// chunk size the episodes are the ones a plain [`train`] run records.
    #[test]
    fn validation_chunks_leave_the_training_trajectory_alone() {
        use lsched_workloads::gen_workload;
        let cfg = TrainConfig {
            episodes: 4,
            sim: SimConfig { num_threads: 6, ..Default::default() },
            seed: 23,
            ..Default::default()
        };
        let episodes = |stats: &TrainStats| format!("{:?}", stats.episodes);
        let mut exp = ExperienceManager::new(8);
        let (_, plain) = train(tiny_model(23), &tiny_sampler(), &cfg, &mut exp);
        let val = gen_workload(&tpch::plan_pool(&[0.3]), 4, ArrivalPattern::Batch, 5);
        for chunk in [1, 3, cfg.episodes] {
            let mut exp = ExperienceManager::new(8);
            let (_, stats, best) = train_with_validation(
                tiny_model(23),
                &tiny_sampler(),
                &cfg,
                chunk,
                &val,
                &cfg.sim,
                &mut exp,
            );
            assert!(best.is_finite(), "chunk {chunk}: validation score {best}");
            assert_eq!(episodes(&stats), episodes(&plain), "chunk {chunk}");
        }
    }

    #[test]
    fn rollout_seed_is_a_pure_function() {
        assert_eq!(rollout_seed(17, 3, 1), rollout_seed(17, 3, 1));
        // Distinct rollouts of an episode (and the same rollout of
        // adjacent episodes) get distinct simulator streams.
        let seeds: Vec<u64> =
            (0..4).flat_map(|ep| (0..4).map(move |r| rollout_seed(9, ep, r))).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "rollout seeds must not collide");
    }

    #[test]
    fn empty_rollout_is_a_no_op() {
        let mut model = tiny_model(3);
        let cfg = TrainConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(rollout_returns(&cfg.reward, &[], 1.0).is_empty());
        accumulate_rollout_gradients(&mut model, &[], &[], &cfg, &mut rng);
        assert_eq!(model.store.grad_norm(), 0.0);
    }

    /// Records one sampled episode on a tiny workload and returns the
    /// model, its steps, and the (uncentered) per-decision returns.
    fn recorded_episode(seed: u64) -> (LSchedModel, Vec<EpisodeStep>, Vec<f64>) {
        use lsched_workloads::gen_workload;
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 5, ArrivalPattern::Batch, 3);
        let sim = SimConfig { num_threads: 6, ..Default::default() };
        let mut sched = LSchedScheduler::sampling(tiny_model(seed), 7);
        let res = simulate(sim, &wl, &mut sched);
        let (model, steps) = sched.finish();
        assert!(!steps.is_empty());
        let returns = rollout_returns(&RewardConfig::default(), &steps, res.makespan);
        (model, steps, returns)
    }

    #[test]
    fn batched_replay_keeps_params_unpinned_for_in_place_updates() {
        // Satellite audit: after a rollout fan-out + gradient replay, no
        // stray Arc may still pin a parameter tensor, or the optimizer
        // step deep-clones every parameter (Arc::make_mut COW). Pointer
        // equality of the tensor buffers across the step proves the
        // update ran in place.
        let (mut model, steps, returns) = recorded_episode(5);
        let cfg = TrainConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = GradScratch::new();
        model.store.zero_grads();
        accumulate_rollout_gradients_with(
            &mut model, &steps, &returns, &cfg, &mut rng, &mut scratch,
        );
        assert!(model.store.grad_norm() > 0.0, "replay must produce gradients");
        let before: Vec<*const f32> = model
            .store
            .iter_ids()
            .map(|(id, _)| model.store.value(id).data().as_ptr())
            .collect();
        let mut opt = Adam::new(1e-3);
        opt.step(&mut model.store);
        let after: Vec<*const f32> = model
            .store
            .iter_ids()
            .map(|(id, _)| model.store.value(id).data().as_ptr())
            .collect();
        assert_eq!(before, after, "the step must update tensors in place, not COW-clone them");
    }

    #[test]
    fn replay_scratch_reaches_steady_state_capacity() {
        let (mut model, steps, returns) = recorded_episode(6);
        let cfg = TrainConfig::default();
        let mut scratch = GradScratch::new();
        let run = |scratch: &mut GradScratch, model: &mut LSchedModel| {
            let mut rng = StdRng::seed_from_u64(2);
            model.store.zero_grads();
            accumulate_rollout_gradients_with(model, &steps, &returns, &cfg, &mut rng, scratch);
        };
        run(&mut scratch, &mut model);
        let warm = scratch.arena_capacity();
        assert!(warm > 0);
        for _ in 0..3 {
            run(&mut scratch, &mut model);
        }
        assert_eq!(
            scratch.arena_capacity(),
            warm,
            "steady-state replays must reuse the warmed arena"
        );
    }
}
