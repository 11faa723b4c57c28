//! Lockstep check of the incremental query encoder.
//!
//! The inference path memoizes per-operator embeddings across decisions
//! (keyed by plan statics, the store's values stamp and the dynamic OPF
//! bits). Its output must be bit-identical to encoding from scratch. This
//! test drives the real agents — greedy, sampled and [`OnlineLSched`],
//! through both the per-event and the tick-batch path — through TPC-H and
//! SSB simulations behind a [`Lockstep`] wrapper. At every scheduler call
//! the wrapper decides the same snapshot three more ways:
//!
//! * on its own long-lived (memo-warm) scratch, evicted like the agent's;
//! * on a fresh scratch (memo cold);
//! * on the autodiff tape (`decide_snapshot`, which never memoizes; the
//!   tick path replays the warm picks on the tape as training would),
//!
//! and asserts decisions, picks and log-prob bits agree, that the agent
//! under test emits exactly those decisions (none, and `Degraded`, when the
//! log-prob is not finite), and that its RNG consumed the same draws.
//! Weights change in place between calls (`value_mut`, `Adam::step`,
//! `restore_values` rollback, `load_params_json`), query ids are reused by
//! different plans after `reset`, and NaN weights come and go.
//!
//! The tree convolution is memoized per layer and recomputes only the
//! dirty cone of the operators whose inputs moved, so plans deeper than
//! the convolution (where the cone is strictly smaller than the tree) run
//! both in lockstep simulations and in direct encoder checks that pin the
//! exact number of reused per-node outputs: a moved leaf, a moved interior
//! operator, and a zeroed conv layer whose recomputed outputs repeat bit
//! for bit (the change must stop spreading there).
//!
//! Within the cone a filter re-multiplies only the products whose input
//! moved (`ConvMemo`'s product cache). Direct encoder checks pin the
//! products computed for a moved leaf, interior operator and root, and a
//! stack-level lockstep runs the cache against cold and tape passes on
//! random deep trees (pads included) in both filter modes, with and
//! without attention, while the weights change in place, counting the
//! products it must compute from the per-layer outputs alone.

use std::sync::Arc;

use lsched::core::agent::{tick_pick_budget, InferScratch};
use lsched::core::encoder::{EncodeScratch, EncoderConfig, EncoderKind};
use lsched::core::features::{snapshot, snapshot_cached, SnapshotCache, SystemSnapshot};
use lsched::core::predictor::{PickTrace, PredictorConfig};
use lsched::core::{MemoStats, OnlineConfig, OnlineLSched};
use lsched::engine::plan::{OpId, OpKind, OpSpec, PhysicalPlan, PlanBuilder};
use lsched::engine::scheduler::{PolicyHealth, QueryHot, QueryId, QueryRuntime, SchedDecision};
use lsched::nn::{
    Activation, Adam, Backend, ConvMemo, ConvReuse, FilterMode, Graph, InferCtx, ParamStore,
    TapeBackend, Tensor, TreeConvConfig, TreeConvLayer, TreeConvStack, TreeSpec, ValId,
};
use lsched::prelude::*;
use lsched::workloads::{ssb, tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model(kind: EncoderKind, seed: u64) -> LSchedModel {
    let cfg = LSchedConfig {
        encoder: EncoderConfig {
            hidden: 12,
            edge_hidden: 4,
            pqe_dim: 8,
            aqe_dim: 8,
            conv_layers: 2,
            kind,
            ..Default::default()
        },
        predictor: PredictorConfig { max_degree: 6, max_threads: 32, ..Default::default() },
    };
    LSchedModel::new(cfg, seed)
}

/// The agent under test, seen through the read-only accessors the
/// lockstep needs.
trait Agent: Scheduler {
    fn agent(&self) -> &LSchedScheduler;
    /// Mutable model access for in-place weight changes between calls
    /// (`None` where the agent owns its updates).
    fn model_mut(&mut self) -> Option<&mut LSchedModel>;
    /// Whether the agent takes the tick-batch path.
    const TICKS: bool;
}

impl Agent for LSchedScheduler {
    fn agent(&self) -> &LSchedScheduler {
        self
    }
    fn model_mut(&mut self) -> Option<&mut LSchedModel> {
        LSchedScheduler::model_mut(self)
    }
    const TICKS: bool = true;
}

impl Agent for OnlineLSched {
    fn agent(&self) -> &LSchedScheduler {
        self.scheduler()
    }
    fn model_mut(&mut self) -> Option<&mut LSchedModel> {
        None
    }
    const TICKS: bool = false;
}

/// One decision's observable output.
#[derive(Debug)]
struct Outcome {
    decisions: Vec<SchedDecision>,
    picks: Vec<PickTrace>,
    lp: f32,
}

fn same_lp(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(a: &Outcome, b: &Outcome, what: &str, call: usize) {
    assert_eq!(a.decisions, b.decisions, "call {call}: decisions differ ({what})");
    assert_eq!(a.picks, b.picks, "call {call}: picks differ ({what})");
    assert!(same_lp(a.lp, b.lp), "call {call}: log-prob {} vs {} ({what})", a.lp, b.lp);
}

fn same_stream(a: &StdRng, b: &StdRng) -> bool {
    a.clone().gen::<u64>() == b.clone().gen::<u64>()
}

type Churn = Box<dyn FnMut(&mut LSchedModel, usize) + Send>;

/// Wraps an agent and checks every call against memo-warm, memo-cold and
/// tape decisions of the same snapshot.
struct Lockstep<S> {
    inner: S,
    mode: DecisionMode,
    cache: SnapshotCache,
    /// One memo-warm scratch for both delivery paths, like the agent's.
    warm: InferScratch,
    /// Evict the warm scratch's memo entries on query exit and clear
    /// them on reset, like the agent. When off, stale entries survive
    /// and only the memo's own key guards them.
    evict_memo: bool,
    churn: Option<Churn>,
    calls: usize,
    tick_calls: usize,
    degraded_calls: usize,
}

impl<S: Agent> Lockstep<S> {
    fn new(inner: S, mode: DecisionMode) -> Self {
        Self {
            inner,
            mode,
            cache: SnapshotCache::new(),
            warm: InferScratch::new(),
            evict_memo: true,
            churn: None,
            calls: 0,
            tick_calls: 0,
            degraded_calls: 0,
        }
    }

    fn with_churn(mut self, churn: impl FnMut(&mut LSchedModel, usize) + Send + 'static) -> Self {
        self.churn = Some(Box::new(churn));
        self
    }

    fn warm_stats(&self) -> MemoStats {
        self.warm.memo_stats()
    }

    /// Applies the in-place weight change scheduled before this call.
    fn churn(&mut self) {
        if let Some(churn) = self.churn.as_mut() {
            let model = self.inner.model_mut().expect("churn needs an exclusively owned model");
            churn(model, self.calls);
        }
    }

    fn snapshot(&mut self, ctx: &SchedContext<'_>) -> SystemSnapshot {
        snapshot_cached(self.inner.agent().model().feature_config(), ctx, &mut self.cache)
    }

    /// Checks what the agent did against the expected outcome.
    fn check_agent(&mut self, out: &[SchedDecision], expect: &Outcome, rng_after: &StdRng) {
        let call = self.calls;
        let agent = self.inner.agent();
        if expect.lp.is_finite() {
            assert_eq!(out, &expect.decisions[..], "call {call}: the agent's decisions differ");
            assert_eq!(agent.health(), PolicyHealth::Healthy, "call {call}");
        } else {
            assert!(out.is_empty(), "call {call}: a poisoned pass must emit nothing");
            assert_eq!(agent.health(), PolicyHealth::Degraded, "call {call}");
            self.degraded_calls += 1;
        }
        assert!(same_stream(agent.rng(), rng_after), "call {call}: the agent's rng drifted");
        self.calls += 1;
    }
}

fn decide(
    model: &LSchedModel,
    snap: &SystemSnapshot,
    mode: DecisionMode,
    rng: &mut StdRng,
    scratch: &mut InferScratch,
) -> Outcome {
    let (mut decisions, mut picks) = (Vec::new(), Vec::new());
    let rng = (mode == DecisionMode::Sample).then_some(rng);
    let lp = model.decide_infer(snap, mode, rng, scratch, &mut decisions, &mut picks);
    Outcome { decisions, picks, lp }
}

fn decide_tick(
    model: &LSchedModel,
    snap: &SystemSnapshot,
    mode: DecisionMode,
    rng: &mut StdRng,
    budget: usize,
    scratch: &mut InferScratch,
) -> Outcome {
    let (mut decisions, mut picks, mut per_event) = (Vec::new(), Vec::new(), Vec::new());
    let rng = (mode == DecisionMode::Sample).then_some(rng);
    model.decide_infer_batch(
        &[snap],
        mode,
        rng,
        budget,
        scratch,
        &mut decisions,
        &mut picks,
        &mut per_event,
    );
    let lp = per_event.first().map_or(0.0, |&(_, lp)| lp);
    Outcome { decisions, picks, lp }
}

impl<S: Agent> Scheduler for Lockstep<S> {
    fn name(&self) -> String {
        format!("lockstep({})", self.inner.name())
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
        self.churn();
        let snap = self.snapshot(ctx);
        let (mode, call) = (self.mode, self.calls);
        let model = self.inner.agent().model();
        let rng0 = self.inner.agent().rng().clone();
        let (mut rw, mut rf, mut rt) = (rng0.clone(), rng0.clone(), rng0);
        let warm = decide(model, &snap, mode, &mut rw, &mut self.warm);
        let fresh = decide(model, &snap, mode, &mut rf, &mut InferScratch::new());
        let tape_rng = (mode == DecisionMode::Sample).then_some(&mut rt);
        let (g, decisions, picks, lp) = model.decide_snapshot(&snap, mode, tape_rng, None);
        let tape = Outcome { decisions, picks, lp: g.value(lp).data()[0] };
        assert_same(&warm, &fresh, "warm memo vs fresh scratch", call);
        assert_same(&warm, &tape, "warm memo vs tape", call);
        assert!(same_stream(&rw, &rf) && same_stream(&rw, &rt), "call {call}: rng draws differ");
        let out = self.inner.on_event(ctx, ev);
        self.check_agent(&out, &warm, &rw);
        out
    }

    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        if !S::TICKS || events.is_empty() {
            return self.inner.on_tick(ctx, events);
        }
        self.churn();
        let snap = self.snapshot(ctx);
        let (mode, call) = (self.mode, self.calls);
        let model = self.inner.agent().model();
        let budget = tick_pick_budget(events.len(), model.cfg.predictor.max_picks_per_event);
        let rng0 = self.inner.agent().rng().clone();
        let (mut rw, mut rf) = (rng0.clone(), rng0);
        let warm = decide_tick(model, &snap, mode, &mut rw, budget, &mut self.warm);
        let fresh = decide_tick(model, &snap, mode, &mut rf, budget, &mut InferScratch::new());
        assert_same(&warm, &fresh, "warm memo vs fresh batch scratch", call);
        assert!(same_stream(&rw, &rf), "call {call}: rng draws differ");
        if !snap.queries.is_empty() {
            // The tape replays the warm picks, as the training pass does.
            let (g, decisions, picks, lp) =
                model.decide_snapshot(&snap, DecisionMode::Greedy, None, Some(&warm.picks));
            let tape = Outcome { decisions, picks, lp: g.value(lp).data()[0] };
            assert_same(&warm, &tape, "warm memo vs tape replay", call);
        }
        let out = self.inner.on_tick(ctx, events).expect("the agent takes tick batches");
        self.check_agent(&out, &warm, &rw);
        self.tick_calls += 1;
        Some(out)
    }

    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        self.cache.evict(query);
        if self.evict_memo {
            self.warm.evict(query);
        }
        self.inner.on_query_finished(time, query);
    }

    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        self.cache.evict(query);
        if self.evict_memo {
            self.warm.evict(query);
        }
        self.inner.on_query_cancelled(time, query);
    }

    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }

    fn reset(&mut self) {
        self.cache.clear();
        if self.evict_memo {
            self.warm.clear_memo();
        }
        self.inner.reset();
    }
}

/// Runs a streaming workload with worker churn and one mid-flight
/// cancellation: churn and cancellation are forced triggers, delivered
/// per event, while ordinary triggers reach the agent as tick batches.
fn run<S: Agent>(
    step: &mut Lockstep<S>,
    pool: &[Arc<PhysicalPlan>],
    queries: usize,
    threads: usize,
    seed: u64,
) -> SimResult {
    let wl = gen_workload(pool, queries, ArrivalPattern::Streaming { lambda: 30.0 }, seed);
    let faults = FaultPlan {
        seed,
        worker_loss: vec![(0.02, 1), (0.1, 1)],
        worker_rejoin: vec![(0.06, 1), (0.2, 1)],
        // The last arrival, just after it arrives: surely mid-flight.
        cancellations: vec![(wl[queries - 1].arrival_time + 1e-4, queries as u64 - 1)],
        ..Default::default()
    };
    let cfg = SimConfig { num_threads: threads, seed, faults: Some(faults), ..Default::default() };
    let res = simulate(cfg, &wl, step);
    assert_eq!(res.outcomes.len() + res.aborted.len(), queries, "every query must finish");
    assert_eq!(res.fault_summary.workers_lost, 2);
    res
}

/// Every in-place way the weights can change, one per call, cycling.
/// Changes are small so decisions stay sane; each renews the stamp.
fn weight_churn() -> impl FnMut(&mut LSchedModel, usize) + Send {
    let mut opt = Adam::new(1e-3);
    let mut rollback: Option<Vec<Arc<Tensor>>> = None;
    let mut checkpoint: Option<String> = None;
    move |m: &mut LSchedModel, call: usize| {
        let ids: Vec<_> = m.store.iter_ids().map(|(id, _)| id).collect();
        match call % 6 {
            0 => {
                let id = ids[call / 6 % ids.len()];
                m.store.value_mut(id).data_mut()[0] += 1e-3;
            }
            1 => {
                m.store.zero_grads();
                for &id in &ids {
                    let g: Vec<f32> = (0..m.store.value(id).len())
                        .map(|i| if (i + call).is_multiple_of(3) { 0.05 } else { -0.02 })
                        .collect();
                    m.store.accumulate_grad(id, &g);
                }
                opt.step(&mut m.store);
            }
            2 => {
                // Checkpoint, then decide the next call on perturbed
                // weights...
                rollback = Some(m.store.snapshot_values());
                for &id in &ids {
                    m.store.value_mut(id).data_mut().iter_mut().for_each(|v| *v *= 1.01);
                }
            }
            3 => {
                // ...and roll back to bitwise-earlier values.
                m.store.restore_values(&rollback.take().expect("checkpoint taken"));
            }
            4 => checkpoint = Some(m.params_json()),
            _ => {
                m.store.value_mut(ids[0]).data_mut()[0] -= 1e-3;
                let json = checkpoint.take().expect("checkpoint taken");
                assert_eq!(m.load_params_json(&json).unwrap(), ids.len());
            }
        }
    }
}

#[test]
fn greedy_agent_matches_cold_and_tape_under_weight_churn() {
    let pool = tpch::plan_pool(&[0.5]);
    let mut step = Lockstep::new(LSchedScheduler::greedy(model(EncoderKind::TcnGat, 3)), DecisionMode::Greedy)
        .with_churn(weight_churn());
    let res = run(&mut step, &pool, 10, 6, 11);
    assert_eq!(res.fault_summary.queries_cancelled, 1, "the cancellation must hit a live query");
    assert!(step.calls > 30 && step.tick_calls > 0 && step.tick_calls < step.calls);
    assert_eq!(step.degraded_calls, 0);
}

#[test]
fn greedy_agent_reuses_embeddings_without_churn() {
    let pool = tpch::plan_pool(&[0.5]);
    let mut step = Lockstep::new(LSchedScheduler::greedy(model(EncoderKind::TcnGat, 5)), DecisionMode::Greedy);
    run(&mut step, &pool, 10, 6, 12);
    // The point of the memo: most operators' inputs do not move between
    // decisions. Both the agent's and the wrapper's memos see reuse.
    let warm = step.warm_stats();
    assert!(warm.op_hit_frac() > 0.5, "wrapper memo reuse {warm:?}");
    assert!(warm.whole_query_hits > 0 && warm.msg_hits > 0, "{warm:?}");
    let agent = step.inner.memo_stats();
    assert!(agent.op_hit_frac() > 0.5, "agent memo reuse {agent:?}");
}

#[test]
fn one_memo_serves_both_delivery_paths() {
    // A per-event call is a tick batch of one on the same scratch: right
    // after a tick, a per-event call on the unchanged context serves
    // every live query whole from the memo the tick filled.
    let queries: Vec<QueryRuntime> = tpch::plan_pool(&[0.5])
        .into_iter()
        .take(3)
        .enumerate()
        .map(|(i, plan)| QueryRuntime::new(QueryId(i as u64), plan, 0.0, 8))
        .collect();
    let hot = QueryHot::from_queries(&queries);
    let free = [0usize, 1, 2, 3];
    let ctx = SchedContext {
        time: 1.0,
        total_threads: 8,
        free_threads: free.len(),
        free_thread_ids: &free,
        queries: &queries,
        hot: &hot,
        in_flight_mem: 0.0,
        mem_budget: f64::INFINITY,
    };
    let mut agent = LSchedScheduler::greedy(model(EncoderKind::TcnGat, 71));
    let tick = agent
        .on_tick(&ctx, &[SchedEvent::QueryArrived(QueryId(2))])
        .expect("the agent takes tick batches");
    assert!(!tick.is_empty());
    let before = agent.memo_stats().whole_query_hits;
    let event = agent.on_event(&ctx, &SchedEvent::ThreadsFreed(1));
    assert_eq!(agent.memo_stats().whole_query_hits - before, queries.len() as u64);
    assert_eq!(event, tick, "same context, same greedy decisions");
}

#[test]
fn sampled_agent_matches_on_ssb_under_weight_churn() {
    let pool = ssb::plan_pool(&[0.5]);
    let mut step = Lockstep::new(
        LSchedScheduler::stochastic(model(EncoderKind::TcnGat, 9), 77),
        DecisionMode::Sample,
    )
    .with_churn(weight_churn());
    run(&mut step, &pool, 10, 6, 13);
    assert!(step.calls > 30 && step.tick_calls > 0);
}

#[test]
fn every_encoder_kind_matches() {
    let pool = tpch::plan_pool(&[0.5]);
    for (i, kind) in [EncoderKind::TcnGat, EncoderKind::TcnPlain, EncoderKind::SeqGcn].into_iter().enumerate() {
        let agent = LSchedScheduler::sampling(model(kind, 20 + i as u64), 31);
        let mut step = Lockstep::new(agent, DecisionMode::Sample).with_churn(weight_churn());
        run(&mut step, &pool, 6, 4, 14 + i as u64);
        assert!(step.warm_stats().proj_hits > 0, "{kind:?}");
    }
}

#[test]
fn online_agent_matches_across_its_own_corrections() {
    let pool = tpch::plan_pool(&[0.5]);
    let cfg = OnlineConfig { checkpoint_queries: 3, lr: 1e-2, ..Default::default() };
    let online = OnlineLSched::new(model(EncoderKind::TcnGat, 41), cfg, 5);
    let mut step = Lockstep::new(online, DecisionMode::Sample);
    run(&mut step, &pool, 12, 6, 15);
    assert!(step.inner.corrections() > 0, "the online agent must update its weights mid-run");
    assert!(step.calls > 30);
}

#[test]
fn reset_reuses_query_ids_on_different_plans() {
    // The wrapper's memo is neither evicted nor cleared: after the reset,
    // SSB queries arrive under the TPC-H queries' ids with the same
    // weights, so only the memo's statics guard keeps them apart.
    let mut step = Lockstep::new(LSchedScheduler::greedy(model(EncoderKind::TcnGat, 7)), DecisionMode::Greedy);
    step.evict_memo = false;
    run(&mut step, &tpch::plan_pool(&[0.5]), 8, 6, 16);
    step.reset();
    run(&mut step, &ssb::plan_pool(&[0.5]), 8, 6, 17);
    step.reset();
    run(&mut step, &tpch::plan_pool(&[1.0]), 8, 6, 18);
    assert_eq!(step.degraded_calls, 0);
}

#[test]
fn nan_weights_degrade_and_recover() {
    // NaN weights for a window of calls, then a rollback: the agent must
    // report Degraded (and emit nothing) exactly while they are in place,
    // and no NaN may leak out of the memo afterwards.
    let mut saved: Option<Vec<Arc<Tensor>>> = None;
    let churn = move |m: &mut LSchedModel, call: usize| match call {
        10 => {
            saved = Some(m.store.snapshot_values());
            let ids: Vec<_> = m.store.iter_ids().map(|(id, _)| id).collect();
            for id in ids {
                m.store.value_mut(id).data_mut().iter_mut().for_each(|v| *v = f32::NAN);
            }
        }
        20 => m.store.restore_values(&saved.take().expect("poisoned at call 10")),
        _ => {}
    };
    let pool = tpch::plan_pool(&[0.5]);
    let mut step =
        Lockstep::new(LSchedScheduler::greedy(model(EncoderKind::TcnGat, 8)), DecisionMode::Greedy)
            .with_churn(churn);
    run(&mut step, &pool, 8, 6, 19);
    assert!(step.calls > 20);
    assert_eq!(step.degraded_calls, 10, "exactly the poisoned calls degrade");
    assert_eq!(step.health(), PolicyHealth::Healthy);
}

/// The conv depth of [`model`]'s encoder.
const CONV_LAYERS: usize = 2;

fn synthetic_op(b: &mut PlanBuilder, kind: OpKind, table: usize) -> OpId {
    b.add_op(kind, OpSpec::Synthetic, vec![table], vec![table], 100.0, 3, 0.01, 1e5)
}

/// A scan under a chain of `len - 1` pipelined selections: operator `i`
/// is the parent of operator `i - 1`, so the root is `len - 1`.
fn chain_plan(len: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new(format!("chain{len}"));
    let mut top = synthetic_op(&mut b, OpKind::TableScan, 0);
    for _ in 1..len {
        let sel = synthetic_op(&mut b, OpKind::Select, 0);
        b.connect(top, sel, true);
        top = sel;
    }
    b.finish(top)
}

/// A left-deep join tree `levels` probes tall, each probe also fed by a
/// hash build over its own scan: binary at every level and far deeper
/// than the convolution.
fn left_deep_plan(levels: usize) -> PhysicalPlan {
    let mut b = PlanBuilder::new(format!("leftdeep{levels}"));
    let mut top = synthetic_op(&mut b, OpKind::TableScan, 0);
    for t in 1..=levels {
        let scan = synthetic_op(&mut b, OpKind::TableScan, t);
        let build = synthetic_op(&mut b, OpKind::BuildHash, t);
        b.connect(scan, build, true);
        let probe = synthetic_op(&mut b, OpKind::ProbeHash, t);
        b.connect(build, probe, false);
        b.connect(top, probe, true);
        top = probe;
    }
    b.finish(top)
}

#[test]
fn deep_plans_match_under_weight_churn() {
    let pool: Vec<Arc<PhysicalPlan>> =
        [Arc::new(chain_plan(7)), Arc::new(left_deep_plan(3)), Arc::new(left_deep_plan(5))].into();
    for (i, kind) in [EncoderKind::TcnGat, EncoderKind::TcnPlain].into_iter().enumerate() {
        let agent = LSchedScheduler::greedy(model(kind, 50 + i as u64));
        let mut step = Lockstep::new(agent, DecisionMode::Greedy).with_churn(weight_churn());
        run(&mut step, &pool, 10, 6, 21 + i as u64);
        assert!(step.calls > 30, "{kind:?}");
        let warm = step.warm_stats();
        assert!(warm.conv_hits > 0 && warm.conv_hits < warm.conv_nodes, "{kind:?}: {warm:?}");
    }
}

/// A one-query snapshot of `plan`, freshly admitted.
fn plan_snapshot(m: &LSchedModel, plan: PhysicalPlan) -> SystemSnapshot {
    let queries = [QueryRuntime::new(QueryId(0), Arc::new(plan), 0.0, 8)];
    let hot = QueryHot::from_queries(&queries);
    let free = [0usize, 1, 2];
    let ctx = SchedContext {
        time: 1.0,
        total_threads: 8,
        free_threads: free.len(),
        free_thread_ids: &free,
        queries: &queries,
        hot: &hot,
        in_flight_mem: 0.0,
        mem_budget: f64::INFINITY,
    };
    snapshot(m.feature_config(), &ctx)
}

/// Every value of one system encoding as bits: per query the node
/// embeddings, edge embeddings and PQE, then the AQE.
fn encoding_bits<B: Backend>(
    m: &LSchedModel,
    b: &mut B,
    snap: &SystemSnapshot,
    scratch: &mut EncodeScratch<B::Id>,
) -> Vec<u32> {
    let aqe = m.encoder.encode_system_on(b, snap, scratch);
    let mut out = Vec::new();
    for q in scratch.queries() {
        for &id in q.node_emb.iter().chain(&q.edge_emb).chain([&q.pqe]) {
            out.extend(b.value(id).iter().map(|v| v.to_bits()));
        }
    }
    out.extend(b.value(aqe).iter().map(|v| v.to_bits()));
    out
}

/// Encodes `snap` on the warm scratch, checks it bit for bit against a
/// cold scratch and the tape, and returns the warm memo's counter deltas.
fn encode_checked(
    m: &LSchedModel,
    snap: &SystemSnapshot,
    warm: &mut EncodeScratch<ValId>,
) -> MemoStats {
    let before = warm.memo_stats();
    let mut ctx = InferCtx::new();
    let warm_bits = encoding_bits(m, &mut ctx.session(&m.store), snap, warm);
    let cold_bits = encoding_bits(m, &mut ctx.session(&m.store), snap, &mut EncodeScratch::new());
    let mut g = Graph::new();
    let mut tape = TapeBackend::new(&mut g, &m.store);
    let tape_bits = encoding_bits(m, &mut tape, snap, &mut EncodeScratch::new());
    assert_eq!(warm_bits, cold_bits, "warm memo vs fresh scratch");
    assert_eq!(warm_bits, tape_bits, "warm memo vs tape");
    warm.memo_stats() - before
}

/// Moves operator `op`'s dynamic tail.
fn move_tail(snap: &mut SystemSnapshot, op: usize) {
    snap.queries[0].opf_dyn[op][0] += 0.25;
}

#[test]
fn dirty_cone_recomputes_only_the_moved_operators_ancestors() {
    let m = model(EncoderKind::TcnGat, 61);
    assert_eq!(m.cfg.encoder.conv_layers, CONV_LAYERS);
    let n = 8;
    let mut snap = plan_snapshot(&m, chain_plan(n));
    let mut warm = EncodeScratch::new();
    let cold = encode_checked(&m, &snap, &mut warm);
    assert_eq!((cold.conv_nodes, cold.conv_hits), ((n * CONV_LAYERS) as u64, 0));
    assert_eq!(encode_checked(&m, &snap, &mut warm).whole_query_hits, 1);
    // The leaf, interior operators, the root. In a chain a change at
    // operator `op` reaches `op + 1` at layer 1 and `op + 2` at layer 2
    // (clipped at the root): `recomputed` filters run in all, and the
    // `moved` operators whose final embedding changed send new messages.
    for (op, recomputed, moved) in [(0, 5, 3), (4, 5, 3), (n - 2, 4, 2), (n - 1, 2, 1)] {
        move_tail(&mut snap, op);
        let d = encode_checked(&m, &snap, &mut warm);
        assert_eq!(d.whole_query_hits, 0, "op {op}");
        assert_eq!(d.proj_hits, n as u64 - 1, "op {op}");
        assert_eq!(d.conv_hits, (n * CONV_LAYERS - recomputed) as u64, "op {op}: {d:?}");
        assert_eq!(d.msg_hits, (n - moved) as u64, "op {op}: {d:?}");
    }
}

#[test]
fn zeroed_conv_layer_stops_the_change_from_spreading() {
    let mut m = model(EncoderKind::TcnGat, 62);
    // Zero the first conv layer's filters: every layer-1 output is
    // act(bias), whatever the input, so a recomputed node repeats its
    // stored bits and layer 2 is served whole from the memo.
    let ids: Vec<_> = m
        .store
        .iter_ids()
        .filter(|(_, name)| name.contains("tcn.conv0.w_"))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids.len(), 5);
    for id in ids {
        m.store.value_mut(id).data_mut().iter_mut().for_each(|v| *v = 0.0);
    }
    let (levels, n) = (4, 1 + 3 * 4);
    let mut snap = plan_snapshot(&m, left_deep_plan(levels));
    let mut warm = EncodeScratch::new();
    encode_checked(&m, &snap, &mut warm);
    // Operator 0 is the deepest scan; its parent is the first probe.
    for op in [0, 3] {
        move_tail(&mut snap, op);
        let d = encode_checked(&m, &snap, &mut warm);
        // Layer 1 recomputes the operator and its parent, both to the
        // same bits; nothing else runs.
        assert_eq!(d.conv_hits, (n * CONV_LAYERS - 2) as u64, "op {op}: {d:?}");
        // Only the moved operator's own message input changed.
        assert_eq!(d.msg_hits, n as u64 - 1, "op {op}: {d:?}");
    }
}

#[test]
fn product_cache_recomputes_only_the_moved_inputs() {
    let m = model(EncoderKind::TcnGat, 63);
    let n = 8;
    let mut snap = plan_snapshot(&m, chain_plan(n));
    let mut warm = EncodeScratch::new();
    let cold = encode_checked(&m, &snap, &mut warm);
    let all = (5 * n * CONV_LAYERS) as u64;
    assert_eq!((cold.conv_products, cold.conv_product_hits), (all, 0));
    // In a chain, operator `op`'s own product moves at every layer its
    // output moved at the layer before, and its parent's child product
    // with it: a moved leaf or interior operator runs 2 filters (2
    // products) at layer 1 and 3 filters (4 products) at layer 2, one
    // below the root 2 (2) and 2 (3), the root 1 (1) and 1 (1). Edge and
    // pad products never rerun.
    for (op, filters, computed) in [(0, 5, 6), (3, 5, 6), (n - 2, 4, 5), (n - 1, 2, 2)] {
        move_tail(&mut snap, op);
        let d = encode_checked(&m, &snap, &mut warm);
        assert_eq!(d.conv_products, 5 * filters, "op {op}: {d:?}");
        assert_eq!(d.conv_products - d.conv_product_hits, computed, "op {op}: {d:?}");
    }
    // A binary plan: moving the deepest scan reruns its own product and
    // the first probe's right-child product at layer 1, then also the
    // probe's own and the next probe's child product at layer 2.
    let mut snap = plan_snapshot(&m, left_deep_plan(3));
    encode_checked(&m, &snap, &mut warm);
    move_tail(&mut snap, 0);
    let d = encode_checked(&m, &snap, &mut warm);
    assert_eq!((d.conv_products, d.conv_products - d.conv_product_hits), (25, 6), "{d:?}");
    // A weight update renews the stamp: every product reruns.
    let mut m = m;
    let id = m.store.iter_ids().next().unwrap().0;
    m.store.value_mut(id).data_mut()[0] += 0.25;
    let d = encode_checked(&m, &snap, &mut warm);
    assert_eq!((d.conv_products, d.conv_product_hits), (5 * 10 * CONV_LAYERS as u64, 0));
}

/// A random forest of `n` nodes, deeper than a three-layer stack: each
/// node hangs under one of the next few higher-indexed nodes with a free
/// slot (or is a root when none has one), so nodes with no, one and two
/// children (both pads, one pad, none) all occur.
fn random_tree(rng: &mut StdRng, n: usize) -> (TreeSpec, usize) {
    let mut tree = TreeSpec::with_nodes(n);
    let mut edges = 0;
    for c in 0..n.saturating_sub(1) {
        let free: Vec<usize> =
            (c + 1..n).filter(|&p| tree.children[p].iter().any(Option::is_none)).take(3).collect();
        if !free.is_empty() {
            tree.attach(free[rng.gen_range(0..free.len())], c, edges);
            edges += 1;
        }
    }
    (tree, edges)
}

fn rand_row(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per layer, per node, the output bits of a cold pass of `layers` on
/// the inference backend (layer 0 is the input).
fn layer_bits(
    store: &ParamStore,
    layers: &[TreeConvLayer],
    tree: &TreeSpec,
    nodes: &[Vec<f32>],
    edges: &[Vec<f32>],
) -> Vec<Vec<Vec<u32>>> {
    let mut ctx = InferCtx::new();
    let mut b = ctx.session(store);
    let mut cur: Vec<_> = nodes.iter().map(|x| b.input(x)).collect();
    let eids: Vec<_> = edges.iter().map(|x| b.input(x)).collect();
    let mut out = vec![nodes.iter().map(|x| bits_of(x)).collect::<Vec<_>>()];
    for layer in layers {
        let mut next = Vec::new();
        layer.forward_on(&mut b, tree, &cur, &eids, &mut next);
        out.push(next.iter().map(|&y| bits_of(b.value(y))).collect());
        cur = next;
    }
    out
}

/// The final outputs of one stack pass on `b`, as bits.
fn stack_bits<B: Backend>(
    b: &mut B,
    stack: &TreeConvStack,
    tree: &TreeSpec,
    nodes: &[Vec<f32>],
    edges: &[Vec<f32>],
    memo: Option<&mut ConvMemo>,
) -> (Vec<Vec<u32>>, ConvReuse) {
    let ids: Vec<_> = nodes.iter().map(|x| b.input(x)).collect();
    let eids: Vec<_> = edges.iter().map(|x| b.input(x)).collect();
    let mut out = Vec::new();
    let reuse = stack.forward_memo_on(b, tree, &ids, &eids, memo, &mut out);
    (out.iter().map(|&y| bits_of(b.value(y))).collect(), reuse)
}

/// The filter products a memoized pass must compute, from the per-layer
/// outputs of this pass and the last one alone: at every layer, each
/// node's own product if its input moved and each child product whose
/// child moved; five products per node that has any of those.
fn expected_products(tree: &TreeSpec, now: &[Vec<Vec<u32>>], last: &[Vec<Vec<u32>>]) -> (usize, usize) {
    let (mut products, mut computed) = (0, 0);
    for l in 1..now.len() {
        let moved = |p: usize| now[l - 1][p] != last[l - 1][p];
        for p in 0..tree.len() {
            let stale = usize::from(moved(p))
                + tree.children[p].iter().flatten().filter(|&&(c, _)| moved(c)).count();
            if stale > 0 {
                products += 5;
                computed += stale;
            }
        }
    }
    (products, computed)
}

#[test]
fn product_cache_matches_cold_and_tape_in_every_filter_mode() {
    let modes = [
        (FilterMode::Dense, true),
        (FilterMode::Dense, false),
        (FilterMode::Diagonal, true),
        (FilterMode::Diagonal, false),
    ];
    let mut partial_passes = 0;
    for (k, (mode, use_gat)) in modes.into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(100 * k as u64 + seed);
            let (in_dim, hidden, edge_dim) = match mode {
                FilterMode::Dense => (4, 5, 2),
                FilterMode::Diagonal => (5, 5, 5),
            };
            let mut store = ParamStore::new();
            let layers: Vec<TreeConvLayer> = (0..3)
                .map(|l| {
                    let cfg = TreeConvConfig {
                        in_dim: if l == 0 { in_dim } else { hidden },
                        out_dim: hidden,
                        edge_dim,
                        mode,
                        activation: Activation::LeakyRelu,
                        use_bias: true,
                        use_gat,
                    };
                    TreeConvLayer::new(&mut store, &mut rng, &format!("c{l}"), cfg)
                })
                .collect();
            let stack = TreeConvStack::from_layers(layers.clone());
            let n = rng.gen_range(8..20);
            let (tree, n_edges) = random_tree(&mut rng, n);
            let mut nodes: Vec<Vec<f32>> = (0..n).map(|_| rand_row(&mut rng, in_dim)).collect();
            let edges: Vec<Vec<f32>> = (0..n_edges).map(|_| rand_row(&mut rng, edge_dim)).collect();
            let ids: Vec<_> = store.iter_ids().map(|(id, _)| id).collect();
            let mut opt = Adam::new(1e-2);
            let mut rollback = None;
            let mut memo = ConvMemo::default();
            let mut last: Option<(u64, Vec<Vec<Vec<u32>>>)> = None;
            for call in 0..24 {
                // Weights change in place every few calls, every way.
                match call % 8 {
                    2 => store.value_mut(ids[call % ids.len()]).data_mut()[0] += 0.125,
                    4 => {
                        store.zero_grads();
                        for &id in &ids {
                            let g = vec![0.5; store.value(id).len()];
                            store.accumulate_grad(id, &g);
                        }
                        opt.step(&mut store);
                    }
                    5 => {
                        rollback = Some(store.snapshot_values());
                        let id = ids[rng.gen_range(0..ids.len())];
                        store.value_mut(id).data_mut().iter_mut().for_each(|v| *v *= -1.0);
                    }
                    6 => store.restore_values(&rollback.take().expect("checkpoint taken")),
                    _ => {}
                }
                // Move up to two nodes' inputs (a leaf, an interior node
                // or a root alike), or none.
                for _ in 0..rng.gen_range(0..3) {
                    let p = rng.gen_range(0..n);
                    nodes[p][rng.gen_range(0..in_dim)] += 0.5;
                }
                let now = layer_bits(&store, &layers, &tree, &nodes, &edges);
                let keep = last.as_ref().is_some_and(|(stamp, _)| *stamp == store.stamp());
                memo.begin(n, keep);
                if let Some((_, prev)) = &last {
                    for p in (0..n).filter(|&p| now[0][p] != prev[0][p]) {
                        memo.mark_changed(p);
                    }
                }
                let mut ctx = InferCtx::new();
                let (warm, reuse) =
                    stack_bits(&mut ctx.session(&store), &stack, &tree, &nodes, &edges, Some(&mut memo));
                let (cold, _) = stack_bits(&mut ctx.session(&store), &stack, &tree, &nodes, &edges, None);
                let mut g = Graph::new();
                let (tape, _) =
                    stack_bits(&mut TapeBackend::new(&mut g, &store), &stack, &tree, &nodes, &edges, None);
                let what = format!("{mode:?} gat={use_gat} seed {seed} call {call}");
                assert_eq!(warm, cold, "memo vs cold: {what}");
                assert_eq!(warm, tape, "memo vs tape: {what}");
                assert_eq!(&warm, &now[3], "memo vs per-layer passes: {what}");
                let (products, computed) = match &last {
                    Some((_, prev)) if keep => {
                        partial_passes += 1;
                        expected_products(&tree, &now, prev)
                    }
                    _ => (5 * n * 3, 5 * n * 3),
                };
                assert_eq!(
                    (reuse.products, reuse.products - reuse.product_hits),
                    (products, computed),
                    "products: {what}"
                );
                last = Some((store.stamp(), now));
            }
        }
    }
    assert!(partial_passes > 100, "{partial_passes} partial passes");
}
