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

use std::sync::Arc;

use lsched::core::agent::{BatchInferScratch, InferScratch};
use lsched::core::encoder::{EncoderConfig, EncoderKind};
use lsched::core::features::{snapshot_cached, SnapshotCache, SystemSnapshot};
use lsched::core::predictor::{PickTrace, PredictorConfig};
use lsched::core::{MemoStats, OnlineConfig, OnlineLSched};
use lsched::engine::plan::PhysicalPlan;
use lsched::engine::scheduler::{PolicyHealth, QueryId, SchedDecision};
use lsched::nn::{Adam, Tensor};
use lsched::prelude::*;
use lsched::workloads::{ssb, tpch};
use rand::rngs::StdRng;
use rand::Rng;

/// The agent's tick pick cap (`MAX_TICK_PICKS` in the agent).
const MAX_TICK_PICKS: usize = 32;

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
    warm: InferScratch,
    warm_batch: BatchInferScratch,
    /// Evict the warm scratches' memo entries on query exit and clear
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
            warm_batch: BatchInferScratch::new(),
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
        self.warm.memo_stats() + self.warm_batch.memo_stats()
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
    scratch: &mut BatchInferScratch,
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
        let per_event = model.cfg.predictor.max_picks_per_event;
        let budget = (events.len() * per_event).min(MAX_TICK_PICKS.max(per_event));
        let rng0 = self.inner.agent().rng().clone();
        let (mut rw, mut rf) = (rng0.clone(), rng0);
        let warm = decide_tick(model, &snap, mode, &mut rw, budget, &mut self.warm_batch);
        let fresh = decide_tick(model, &snap, mode, &mut rf, budget, &mut BatchInferScratch::new());
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
            self.warm_batch.evict(query);
        }
        self.inner.on_query_finished(time, query);
    }

    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        self.cache.evict(query);
        if self.evict_memo {
            self.warm.evict(query);
            self.warm_batch.evict(query);
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
            self.warm_batch.clear_memo();
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
