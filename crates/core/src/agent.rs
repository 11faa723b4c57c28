//! The LSched scheduling agent: the model bundle (parameters + Query
//! Encoder + Scheduling Predictor) and the [`Scheduler`] implementation
//! that plugs it into the engine (Figure 2).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lsched_engine::scheduler::{
    PolicyHealth, QueryId, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_nn::{Backend, Graph, InferCtx, ParamStore, ValId};

use crate::encoder::{EncodeScratch, EncoderConfig, MemoStats, QueryEncoder};
use crate::features::{snapshot_cached_into, FeatureConfig, SnapshotCache, SystemSnapshot};
use crate::predictor::{
    BatchPredictScratch, DecisionMode, EventOutcome, PickTrace, PredictorConfig,
    SchedulingPredictor,
};

/// Full agent configuration.
#[derive(Debug, Clone, Default)]
pub struct LSchedConfig {
    /// Encoder settings.
    pub encoder: EncoderConfig,
    /// Predictor settings.
    pub predictor: PredictorConfig,
}

/// The model bundle: one [`ParamStore`] shared by the encoder and the
/// predictor heads.
#[derive(Debug)]
pub struct LSchedModel {
    /// All trainable parameters.
    pub store: ParamStore,
    /// The Query Encoder (Figure 6).
    pub encoder: QueryEncoder,
    /// The Scheduling Predictor (Figure 7).
    pub predictor: SchedulingPredictor,
    /// The configuration the model was built with.
    pub cfg: LSchedConfig,
}

impl LSchedModel {
    /// Builds a fresh model with seeded initialization.
    pub fn new(cfg: LSchedConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let encoder = QueryEncoder::new(&mut store, seed, "enc", cfg.encoder.clone());
        let e = &cfg.encoder;
        let predictor = SchedulingPredictor::new(
            &mut store,
            seed.wrapping_add(1),
            "pred",
            cfg.predictor.clone(),
            e.hidden,
            e.edge_hidden,
            e.pqe_dim,
            e.aqe_dim,
            e.feat.qf_dim(),
        );
        Self { store, encoder, predictor, cfg }
    }

    /// The feature configuration in use.
    pub fn feature_config(&self) -> &FeatureConfig {
        &self.cfg.encoder.feat
    }

    /// Runs encoder + predictor on a snapshot. With `forced` picks the
    /// same choices are replayed (training backward pass); otherwise
    /// choices follow `mode`. Returns the graph (kept alive so callers
    /// can backprop through the returned log-prob node).
    pub fn decide_snapshot(
        &self,
        snap: &SystemSnapshot,
        mode: DecisionMode,
        rng: Option<&mut StdRng>,
        forced: Option<&[PickTrace]>,
    ) -> (Graph, Vec<SchedDecision>, Vec<PickTrace>, lsched_nn::NodeId) {
        let mut g = Graph::new();
        if snap.queries.is_empty() {
            let zero = g.input(lsched_nn::Tensor::scalar(0.0));
            return (g, Vec::new(), Vec::new(), zero);
        }
        let enc = self.encoder.encode_system(&mut g, &self.store, snap);
        let (decisions, picks, logprob) =
            self.predictor.decide(&mut g, &self.store, snap, &enc, mode, rng, forced);
        (g, decisions, picks, logprob)
    }

    /// Runs encoder + predictor on the tape-free inference path for one
    /// snapshot: the one-event call of
    /// [`decide_infer_batch`](Self::decide_infer_batch) with the
    /// configured per-event pick budget. Decisions and picks land in the
    /// caller's vectors (cleared first); the decision-sequence
    /// log-probability is returned as a plain float. Steady-state calls
    /// allocate nothing.
    ///
    /// Decisions are bit-identical to the tape path
    /// ([`decide_snapshot`](Self::decide_snapshot)): both executors share
    /// the same accumulation kernels and the same sampling arithmetic.
    pub fn decide_infer(
        &self,
        snap: &SystemSnapshot,
        mode: DecisionMode,
        rng: Option<&mut StdRng>,
        scratch: &mut InferScratch,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<PickTrace>,
    ) -> f32 {
        let mut per_event = std::mem::take(&mut scratch.per_event);
        self.decide_infer_batch(
            std::slice::from_ref(&snap),
            mode,
            rng,
            self.cfg.predictor.max_picks_per_event,
            scratch,
            decisions,
            picks,
            &mut per_event,
        );
        let lp = per_event[0].1;
        scratch.per_event = per_event;
        lp
    }

    /// Runs encoder + predictor on the tape-free inference path: values
    /// are evaluated straight into `scratch`'s bump arena (no autodiff
    /// nodes, no parameter clones) and every snapshot's candidate root
    /// scores come out of a single
    /// [`lsched_nn::Backend::mlp_scores_batched`] call — one GEMM per
    /// layer across all events. The per-event pick loops consume `rng`
    /// in event order, so results are bit-identical to one call per
    /// snapshot in the same order with the same rng stream and pick
    /// budget.
    ///
    /// Decisions and picks accumulate flat in event order (cleared
    /// first); `per_event[e]` receives `(decision count, log-prob)` for
    /// event `e`. Steady-state calls allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_infer_batch(
        &self,
        snaps: &[&SystemSnapshot],
        mode: DecisionMode,
        rng: Option<&mut StdRng>,
        max_picks_per_event: usize,
        scratch: &mut InferScratch,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<PickTrace>,
        per_event: &mut Vec<(usize, f32)>,
    ) {
        decisions.clear();
        picks.clear();
        per_event.clear();
        if snaps.is_empty() {
            return;
        }
        let InferScratch { ctx, encs, pred, aqes, outcomes, .. } = scratch;
        while encs.len() < snaps.len() {
            encs.push(EncodeScratch::new());
        }
        let mut b = ctx.session(&self.store);
        aqes.clear();
        for (e, &snap) in snaps.iter().enumerate() {
            let aqe = if snap.queries.is_empty() {
                // Nothing to encode; the pick loop never runs for this
                // event, so any valid handle stands in for the AQE.
                encs[e].clear();
                b.scalar(0.0)
            } else {
                self.encoder.encode_system_on(&mut b, snap, &mut encs[e])
            };
            aqes.push(aqe);
        }
        self.predictor.decide_batch_on(
            &mut b,
            snaps,
            &|e| encs[e].queries(),
            aqes,
            mode,
            rng,
            max_picks_per_event,
            None,
            pred,
            decisions,
            picks,
            outcomes,
        );
        for o in outcomes.iter() {
            per_event.push((o.n_decisions, b.value(o.logprob)[0]));
        }
    }

    /// Serializes the parameters to JSON (checkpointing).
    pub fn params_json(&self) -> String {
        self.store.to_json()
    }

    /// Loads parameters with matching names from a JSON checkpoint.
    /// Returns how many parameters were restored.
    pub fn load_params_json(&mut self, json: &str) -> Result<usize, serde_json::Error> {
        let other = ParamStore::from_json(json)?;
        Ok(self.store.load_matching(&other))
    }
}

/// All reusable state of the tape-free decision pass
/// ([`LSchedModel::decide_infer_batch`] and its one-snapshot call
/// [`LSchedModel::decide_infer`]): one evaluation arena shared by all
/// events of a call, one [`EncodeScratch`] (with its encoder memo) per
/// event slot, and the flat predictor scratch. Kept alive across
/// decisions so every buffer retains its capacity — after warm-up at a
/// given event count, decisions perform zero heap allocations.
#[derive(Debug, Default)]
pub struct InferScratch {
    ctx: InferCtx,
    encs: Vec<EncodeScratch<ValId>>,
    pred: BatchPredictScratch<ValId>,
    aqes: Vec<ValId>,
    outcomes: Vec<EventOutcome<ValId>>,
    /// The one-event `(decision count, log-prob)` output of
    /// [`LSchedModel::decide_infer`].
    per_event: Vec<(usize, f32)>,
}

/// The scratch of [`LSchedModel::decide_infer_batch`]: the same type as
/// [`InferScratch`], kept under both names.
pub type BatchInferScratch = InferScratch;

impl InferScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the value arena in `f32` slots (diagnostics).
    pub fn arena_capacity(&self) -> usize {
        self.ctx.arena_capacity()
    }

    /// Drops every event slot's encoder memo entry for a query that left
    /// the system.
    pub fn evict(&mut self, qid: QueryId) {
        self.encs.iter_mut().for_each(|e| e.evict(qid));
    }

    /// Drops every event slot's encoder memo, so the next decision
    /// encodes cold.
    pub fn clear_memo(&mut self) {
        self.encs.iter_mut().for_each(EncodeScratch::clear_memo);
    }

    /// Cumulative encoder memo reuse counters, summed over event slots.
    pub fn memo_stats(&self) -> MemoStats {
        self.encs.iter().fold(MemoStats::default(), |total, e| total + e.memo_stats())
    }
}

/// Cap on the pipelines one decision pass may admit for a tick batch
/// (unless the per-event budget alone is larger).
const MAX_TICK_PICKS: usize = 32;

/// The pick budget of one decision pass over `n_events` same-tick
/// events: as many pipelines as the events could have admitted one at a
/// time (`per_event` each), capped at `max(32, per_event)` to keep
/// worst-case tick latency bounded under bursty arrivals. A single
/// event gets exactly `per_event`.
pub fn tick_pick_budget(n_events: usize, per_event: usize) -> usize {
    (n_events * per_event).min(MAX_TICK_PICKS.max(per_event))
}

/// One recorded scheduling event of an episode (state + actions), the
/// unit the REINFORCE trainer replays.
#[derive(Debug, Clone)]
pub struct EpisodeStep {
    /// The state snapshot the decision was taken in.
    pub snapshot: SystemSnapshot,
    /// The sub-decisions taken.
    pub picks: Vec<PickTrace>,
    /// Engine clock at the event.
    pub time: f64,
    /// Number of existing queries at the event (the `Q_d` of Section 6).
    pub num_queries: usize,
}

/// The LSched scheduler.
///
/// The model is held behind an [`Arc`] so parallel rollout workers can
/// share one immutable parameter snapshot without cloning the weights;
/// single-owner callers keep the by-value API via [`finish`]
/// (LSchedScheduler::finish).
pub struct LSchedScheduler {
    model: Arc<LSchedModel>,
    mode: DecisionMode,
    rng: StdRng,
    recording: bool,
    steps: Vec<EpisodeStep>,
    /// Per-query memo of the plan-derived static *features*
    /// ([`crate::features::PlanStatics`]); the encodings computed from
    /// them are memoized separately, in the scratch below.
    cache: SnapshotCache,
    /// The current decision's snapshot. A non-recording agent refills
    /// its buffers on every decision; a recording one hands it to the
    /// recorded step.
    snap: SystemSnapshot,
    /// The current decision's decisions and pick traces (the picks move
    /// into the recorded step when recording).
    decisions: Vec<SchedDecision>,
    picks: Vec<PickTrace>,
    /// Reusable tape-free evaluation state (arena + id pools + encoder
    /// memo) of both delivery paths; decisions run through
    /// [`LSchedModel::decide_infer_batch`], not the autodiff tape.
    infer: InferScratch,
    /// Per-event `(decision count, log-prob)` scratch.
    tick_outcomes: Vec<(usize, f32)>,
    /// Whether the last forward pass produced a non-finite log-prob —
    /// the signature of NaN logits. Polled by guarding wrappers via
    /// [`Scheduler::health`].
    degraded: bool,
}

impl LSchedScheduler {
    fn with_mode(model: Arc<LSchedModel>, mode: DecisionMode, seed: u64, recording: bool) -> Self {
        Self {
            model,
            mode,
            rng: StdRng::seed_from_u64(seed),
            recording,
            steps: Vec::new(),
            cache: SnapshotCache::new(),
            snap: SystemSnapshot::default(),
            decisions: Vec::new(),
            picks: Vec::new(),
            infer: InferScratch::new(),
            tick_outcomes: Vec::new(),
            degraded: false,
        }
    }

    /// Inference-mode scheduler (greedy decisions, no recording).
    pub fn greedy(model: LSchedModel) -> Self {
        Self::with_mode(Arc::new(model), DecisionMode::Greedy, 0, false)
    }

    /// Stochastic inference: decisions are sampled from the learned
    /// policy (no recording). The policy is a distribution; sampling at
    /// inference avoids the instability of committing to the argmax of
    /// a stochastically trained policy.
    pub fn stochastic(model: LSchedModel, seed: u64) -> Self {
        Self::with_mode(Arc::new(model), DecisionMode::Sample, seed, false)
    }

    /// Training-mode scheduler: samples decisions and records every step
    /// for the episode replay.
    pub fn sampling(model: LSchedModel, seed: u64) -> Self {
        Self::with_mode(Arc::new(model), DecisionMode::Sample, seed, true)
    }

    /// Training-mode scheduler over a shared model snapshot — the
    /// parallel-rollout entry point: every worker gets its own scheduler
    /// (own RNG, own step recording) against the same frozen parameters.
    pub fn sampling_shared(model: Arc<LSchedModel>, seed: u64) -> Self {
        Self::with_mode(model, DecisionMode::Sample, seed, true)
    }

    /// Consumes the scheduler, returning the model and recorded steps.
    ///
    /// Panics if the model is still shared (use [`into_steps`]
    /// (LSchedScheduler::into_steps) from parallel rollout workers).
    pub fn finish(self) -> (LSchedModel, Vec<EpisodeStep>) {
        let model = Arc::try_unwrap(self.model)
            .expect("finish() requires exclusive model ownership; shared rollouts use into_steps()");
        (model, self.steps)
    }

    /// Consumes the scheduler, returning only the recorded steps (the
    /// shared model stays with its other owners).
    pub fn into_steps(self) -> Vec<EpisodeStep> {
        self.steps
    }

    /// Takes the recorded steps out of a live scheduler, leaving it
    /// recording into an empty buffer. The online-correction loop uses
    /// this to harvest a window without tearing the scheduler down.
    pub fn take_steps(&mut self) -> Vec<EpisodeStep> {
        std::mem::take(&mut self.steps)
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &LSchedModel {
        &self.model
    }

    /// The decision RNG in its current state: a clone replays the draws
    /// of the next sampled decision.
    pub fn rng(&self) -> &StdRng {
        &self.rng
    }

    /// Mutable access to the model, available only while no parallel
    /// rollout worker shares the snapshot (`None` otherwise). In-place
    /// updates through this handle keep the parameter tensors' `Arc`s
    /// uniquely owned, so the optimizer never COW-clones them.
    pub fn model_mut(&mut self) -> Option<&mut LSchedModel> {
        Arc::get_mut(&mut self.model)
    }

    /// Restarts the decision RNG and the per-run caches for a fresh
    /// episode window while keeping every scratch arena's capacity
    /// alive. Equivalent to rebuilding the scheduler with this seed,
    /// minus the reallocation.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.clear_caches();
        self.degraded = false;
    }

    /// Drops every per-query cache: the static features and the encoder
    /// memo.
    fn clear_caches(&mut self) {
        self.cache.clear();
        self.infer.clear_memo();
    }

    /// Drops every per-query cache entry of a query that left the system.
    fn evict(&mut self, query: QueryId) {
        self.cache.evict(query);
        self.infer.evict(query);
    }

    /// Encoder memo reuse counters.
    pub fn memo_stats(&self) -> MemoStats {
        self.infer.memo_stats()
    }
}

impl Scheduler for LSchedScheduler {
    fn name(&self) -> String {
        "lsched".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
        // A single event is a tick batch of one: its pick budget is the
        // per-event one, and it shares the tick path's scratch and memo.
        self.on_tick(ctx, std::slice::from_ref(ev)).unwrap_or_default()
    }

    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        if events.is_empty() {
            return Some(Vec::new());
        }
        // Every event of a tick fires at the same instant against the
        // same post-tick state, so one snapshot + one encode serve the
        // whole batch.
        let budget =
            tick_pick_budget(events.len(), self.model.cfg.predictor.max_picks_per_event);
        snapshot_cached_into(self.model.feature_config(), ctx, &mut self.cache, &mut self.snap);
        let rng = match self.mode {
            DecisionMode::Sample => Some(&mut self.rng),
            DecisionMode::Greedy => None,
        };
        self.model.decide_infer_batch(
            &[&self.snap],
            self.mode,
            rng,
            budget,
            &mut self.infer,
            &mut self.decisions,
            &mut self.picks,
            &mut self.tick_outcomes,
        );
        // The episode log-prob sums every pick's logit: one NaN anywhere
        // in the forward pass surfaces here. Refuse to emit decisions
        // built on a poisoned pass and report Degraded so a guarding
        // wrapper can fall back.
        let lp_value = self.tick_outcomes[0].1;
        self.degraded = !lp_value.is_finite();
        if self.degraded {
            return Some(Vec::new());
        }
        if self.recording && !self.picks.is_empty() {
            self.steps.push(EpisodeStep {
                snapshot: std::mem::take(&mut self.snap),
                picks: std::mem::take(&mut self.picks),
                time: ctx.time,
                num_queries: ctx.queries.len(),
            });
        }
        // The trait hands the caller an owned list; the scratch keeps its
        // capacity for the next decision.
        Some(self.decisions.to_vec())
    }

    fn on_query_finished(&mut self, _time: f64, query: QueryId) {
        // The query's static features and memoized encodings can never be
        // referenced again once it leaves the system; drop them so the
        // caches stay bounded by the active queries.
        self.evict(query);
    }

    fn on_query_cancelled(&mut self, _time: f64, query: QueryId) {
        // Same lifecycle end as completion from the caches' perspective.
        self.evict(query);
    }

    fn health(&self) -> PolicyHealth {
        if self.degraded {
            PolicyHealth::Degraded
        } else {
            PolicyHealth::Healthy
        }
    }

    fn reset(&mut self) {
        self.steps.clear();
        self.degraded = false;
        // Query ids restart per run, so cached entries would alias new
        // plans; the caches guard by plan pointer but a reset run should
        // start cold regardless.
        self.clear_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::sim::{simulate, SimConfig};
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    fn small_model() -> LSchedModel {
        let cfg = LSchedConfig {
            encoder: EncoderConfig {
                hidden: 12,
                edge_hidden: 4,
                pqe_dim: 8,
                aqe_dim: 8,
                conv_layers: 2,
                ..Default::default()
            },
            predictor: PredictorConfig { max_degree: 6, max_threads: 32, ..Default::default() },
        };
        LSchedModel::new(cfg, 42)
    }

    #[test]
    fn untrained_agent_completes_workloads() {
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 6, ArrivalPattern::Batch, 1);
        let mut sched = LSchedScheduler::greedy(small_model());
        let res = simulate(SimConfig { num_threads: 8, ..Default::default() }, &wl, &mut sched);
        assert_eq!(res.outcomes.len(), 6);
        assert!(res.sched_decisions > 0);
    }

    #[test]
    fn sampling_mode_records_steps() {
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 4, ArrivalPattern::Streaming { lambda: 50.0 }, 2);
        let mut sched = LSchedScheduler::sampling(small_model(), 7);
        let res = simulate(SimConfig { num_threads: 6, ..Default::default() }, &wl, &mut sched);
        assert_eq!(res.outcomes.len(), 4);
        let (_model, steps) = sched.finish();
        assert!(!steps.is_empty());
        for s in &steps {
            assert!(!s.picks.is_empty());
            assert!(s.num_queries >= 1);
        }
        // Steps are time-ordered.
        for w in steps.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn nan_model_reports_degraded_and_emits_nothing() {
        let mut model = small_model();
        let ids: Vec<_> = model.store.iter_ids().map(|(id, _)| id).collect();
        for id in ids {
            for v in model.store.value_mut(id).data_mut() {
                *v = f32::NAN;
            }
        }
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 3, ArrivalPattern::Batch, 8);
        let mut sched = LSchedScheduler::greedy(model);
        // The sim's progress guard carries the run; the agent must not
        // emit garbage decisions and must self-report Degraded.
        let res = simulate(SimConfig { num_threads: 4, ..Default::default() }, &wl, &mut sched);
        assert_eq!(res.outcomes.len(), 3);
        assert_eq!(sched.health(), PolicyHealth::Degraded);
        assert_eq!(res.sched_decisions, 0, "a poisoned model must emit no decisions");
        assert!(res.fallback_decisions > 0);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_behavior() {
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 4, ArrivalPattern::Batch, 3);
        let cfgd = SimConfig { num_threads: 6, ..Default::default() };

        let model = small_model();
        let json = model.params_json();
        let mut s1 = LSchedScheduler::greedy(model);
        let r1 = simulate(cfgd.clone(), &wl, &mut s1);

        let mut restored = small_model();
        // Perturb then restore.
        let ids: Vec<_> = restored.store.iter_ids().map(|(id, _)| id).collect();
        for id in &ids {
            for v in restored.store.value_mut(*id).data_mut() {
                *v += 0.5;
            }
        }
        let n = restored.load_params_json(&json).unwrap();
        assert_eq!(n, ids.len());
        let mut s2 = LSchedScheduler::greedy(restored);
        let r2 = simulate(cfgd, &wl, &mut s2);
        assert_eq!(r1.avg_duration(), r2.avg_duration());
    }
}
