//! The four workloads: set-up, one untraced rep, one traced rep.
//!
//! Everything runs on the calling thread except `serve2_crash`, whose
//! two shard threads come from the pool `serve_supervised` builds.
//! Training uses `rollout_threads: 1`. The simulator's `num_threads` is
//! its virtual worker pool, not host threads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lsched_core::train::{rollout_seed, time_aligned_baseline};
use lsched_core::{
    accumulate_rollout_gradients_with, rollout_returns, train, BatchInferScratch, DecisionMode,
    EpisodeStep, ExperienceManager, GradScratch, InferScratch, LSchedConfig, LSchedModel,
    LSchedScheduler, PredictiveAdmission, PredictiveAdmissionConfig, TrainConfig,
};
use lsched_engine::plan::PhysicalPlan;
use lsched_engine::sim::{simulate, try_simulate, SimConfig, SimResult, WorkloadItem};
use lsched_nn::{Adam, InferCtx};
use lsched_sched::{
    Admission, AdmissionConfig, AdmissionStack, FifoScheduler, GuardedScheduler,
    QuickstepScheduler, ShedPolicy,
};
use lsched_serve::{
    route_workload, serve_supervised, tenantize, ServeConfig, ServeResult, ShardFaultPlan,
    SloClass, SupervisorConfig, TenantQuery,
};
use lsched_workloads::tpch;
use lsched_workloads::workload::{split_train_test, ArrivalPattern, EpisodeSampler};

use crate::trace::{self, GateProbe, GuardProbe, Layer, Probe};

/// Virtual worker threads of every simulated pool.
const SIM_THREADS: usize = 16;
/// Seed of the capacity probe.
const PROBE_SEED: u64 = 0x9e0b;
/// `train_tpch`: seed of the training run and of its train/test split.
const TRAIN_SEED: u64 = 7;
/// `batch1024_quickstep`: queries submitted at t = 0.
const BATCH_QUERIES: usize = 1024;
/// `stream_lsched`: queries of the bursty open-loop stream.
const STREAM_QUERIES: usize = 3000;
/// `serve2_crash`: queries across both shards.
const SERVE_QUERIES: usize = 1200;
/// `serve2_crash`: offered load per shard, as a share of probed capacity.
const SERVE_LOAD: f64 = 0.4;
/// `train_tpch`: training episodes per rep.
const TRAIN_EPISODES: usize = 6;
/// `train_tpch`: queries per training episode.
const EPISODE_QUERIES: usize = 24;
/// `train_tpch`: queries of the held-out validation stream.
const VAL_QUERIES: usize = 1100;
/// Seed of the LSched model weights: decision cost depends on the
/// architecture, not the weights, so every run uses the same ones.
const MODEL_SEED: u64 = 17;
/// `LSchedScheduler::on_tick` caps a tick's pick budget at this.
const MAX_TICK_PICKS: usize = 32;

/// The workloads, by name.
pub const NAMES: [&str; 4] = [
    "batch1024_quickstep",
    "stream_lsched",
    "serve2_crash",
    "train_tpch",
];

/// Set-up step timings (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub plan_pool_s: f64,
    pub gen_s: f64,
    pub probe_s: f64,
    pub total_s: f64,
}

/// One rep of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of the rep.
    pub wall_s: f64,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries simulated per rep, the numerator of `queries_per_s`.
    pub work_queries: u64,
    /// Seconds inside the policy (`SimResult::sched_wall_time`, summed).
    pub sched_s: f64,
    /// Completed queries behind `sched_s`.
    pub sched_queries: u64,
    /// Hash of every deterministic output of the rep.
    pub fingerprint: u64,
    /// Simulated latencies of the completed queries the quality metrics
    /// are taken over.
    pub latencies: Vec<f64>,
    /// Named correctness checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Deterministic counts and ratios taken from the results.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer measurements only a traced rep produces.
    pub traced: BTreeMap<&'static str, f64>,
}

/// FNV-1a over the bits of deterministic outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn sim(&mut self, r: &SimResult) {
        for o in r.outcomes.iter().chain(&r.aborted) {
            self.u64(o.qid.0);
            self.bytes(o.name.as_bytes());
            self.f64(o.arrival);
            self.f64(o.finish);
            self.f64(o.duration);
        }
        for v in [
            r.outcomes.len() as u64,
            r.aborted.len() as u64,
            r.sched_invocations,
            r.sched_decisions,
            r.sched_rejected,
            r.fallback_decisions,
            r.total_work_orders,
            r.events_processed,
            r.final_pool_size as u64,
        ] {
            self.u64(v);
        }
        self.f64(r.makespan);
        self.f64(r.crashed_at.unwrap_or(-1.0));
        self.bytes(format!("{:?}{:?}{:?}", r.fault_summary, r.resilience, r.unfinished).as_bytes());
    }
}

fn tiny_model() -> LSchedModel {
    let mut cfg = LSchedConfig::default();
    cfg.encoder.hidden = 10;
    cfg.encoder.edge_hidden = 4;
    cfg.encoder.pqe_dim = 6;
    cfg.encoder.aqe_dim = 6;
    cfg.encoder.conv_layers = 2;
    cfg.predictor.max_degree = 4;
    cfg.predictor.max_threads = 16;
    LSchedModel::new(cfg, MODEL_SEED)
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        num_threads: SIM_THREADS,
        seed,
        ..Default::default()
    }
}

/// A workload of one query per arrival time in `arrivals`, with a fixed
/// plan mix in an order drawn from `seed`: every run of `pool.len()`
/// consecutive queries is a shuffle of the whole pool. A fixed mix keeps
/// the work a rep measures the same from seed to seed, and shuffling
/// block by block keeps heavy plans from bunching up, which would swing
/// queue depths, and with them policy cost, from seed to seed.
fn balanced_workload(pool: &[Arc<PhysicalPlan>], arrivals: &[f64], seed: u64) -> Vec<WorkloadItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..arrivals.len()).map(|i| i % pool.len()).collect();
    for block in order.chunks_mut(pool.len()) {
        block.shuffle(&mut rng);
    }
    arrivals
        .iter()
        .zip(order)
        .map(|(&t, i)| WorkloadItem::new(t, Arc::clone(&pool[i])))
        .collect()
}

/// `n` arrival times on `pattern`'s schedule with every gap at its mean
/// `1 / λ`: open-loop and bursty, but with no sampling noise, so the
/// load a rep offers is the same for every seed.
fn paced_arrivals(n: usize, pattern: ArrivalPattern) -> Vec<f64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += match pattern {
                ArrivalPattern::Batch => 0.0,
                ArrivalPattern::Streaming { lambda } => 1.0 / lambda,
                ArrivalPattern::Bursty {
                    base_lambda,
                    burst_lambda,
                    period,
                    burst_fraction,
                } => {
                    let bursting = (t % period) / period < burst_fraction;
                    1.0 / if bursting { burst_lambda } else { base_lambda }
                }
            };
            t
        })
        .collect()
}

/// Completed queries per simulated second of a batch of every plan of
/// `pool`, three times each, under Quickstep: the capacity probe. It
/// uses a fixed seed, so every run calibrates its rates the same way.
fn probe_capacity(pool: &[Arc<PhysicalPlan>]) -> f64 {
    let wl = balanced_workload(pool, &vec![0.0; 3 * pool.len()], PROBE_SEED);
    let res = try_simulate(sim_config(PROBE_SEED), &wl, &mut QuickstepScheduler)
        .expect("the capacity probe is fault-free and cannot error");
    wl.len() as f64 / res.makespan.max(1e-9)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Counts shared by every simulator rep.
fn sim_counts(rep: &mut Rep, results: &[&SimResult]) {
    let sum = |f: fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let events = sum(|r| r.events_processed);
    let decisions = sum(|r| r.sched_decisions);
    let rejected = sum(|r| r.sched_rejected);
    rep.counts.insert("engine.sim.events", events);
    rep.counts
        .insert("engine.sim.work_orders", sum(|r| r.total_work_orders));
    rep.counts.insert(
        "engine.sim.rejected_frac",
        rejected / (decisions + rejected).max(1.0),
    );
    rep.sched_s += results.iter().map(|r| r.sched_wall_time).sum::<f64>();
}

/// A prepared workload.
pub enum Bench {
    Batch {
        wl: Vec<WorkloadItem>,
        seed: u64,
    },
    Stream {
        wl: Vec<WorkloadItem>,
        seed: u64,
    },
    Serve {
        queries: Vec<TenantQuery>,
        cfg: ServeConfig,
        faults: ShardFaultPlan,
    },
    Train {
        sampler: EpisodeSampler,
        cfg: TrainConfig,
        val: Vec<WorkloadItem>,
        val_seed: u64,
    },
}

impl Bench {
    /// Builds the plan pool, generates the workload, runs the capacity
    /// probe and builds the model and gate, on this thread.
    pub fn setup(name: &str, seed: u64) -> Option<(Bench, SetupTimes)> {
        let t0 = Instant::now();
        let sfs: &[f64] = match name {
            "batch1024_quickstep" => &[2.0, 10.0],
            "stream_lsched" | "train_tpch" => &[0.3],
            "serve2_crash" => &[0.5],
            _ => return None,
        };
        let (pool, plan_pool_s) = timed(|| tpch::plan_pool(sfs));
        let (capacity, probe_s) = timed(|| probe_capacity(&pool));
        let (bench, gen_s) = match name {
            "batch1024_quickstep" => {
                let (wl, t) = timed(|| balanced_workload(&pool, &[0.0; BATCH_QUERIES], seed));
                (Bench::Batch { wl, seed }, t)
            }
            "stream_lsched" => {
                let arrival = ArrivalPattern::Bursty {
                    base_lambda: capacity * 0.4,
                    burst_lambda: capacity * 3.0,
                    period: 8.0 / capacity,
                    burst_fraction: 0.15,
                };
                let (wl, t) = timed(|| {
                    balanced_workload(&pool, &paced_arrivals(STREAM_QUERIES, arrival), seed)
                });
                drop((tiny_model(), stream_gates()));
                (Bench::Stream { wl, seed }, t)
            }
            "serve2_crash" => {
                let arrival = ArrivalPattern::Streaming {
                    lambda: capacity * SERVE_LOAD * 2.0,
                };
                let (queries, t) = timed(|| {
                    let arrivals = paced_arrivals(SERVE_QUERIES, arrival);
                    let wl = balanced_workload(&pool, &arrivals, seed);
                    let classes = [
                        SloClass::best_effort(),
                        SloClass::silver(),
                        SloClass::gold(),
                    ];
                    tenantize(&wl, 6, &classes)
                });
                let horizon = queries.last().map_or(0.0, |q| q.item.arrival_time);
                let cfg = ServeConfig::new(2, sim_config(seed));
                let faults = ShardFaultPlan::crash_one(1, 0.5 * horizon);
                (
                    Bench::Serve {
                        queries,
                        cfg,
                        faults,
                    },
                    t,
                )
            }
            _ => {
                // Training runs at a fixed seed: the trained policy, and
                // with it every validation number, depends chaotically on
                // the training seed. The run's seed picks the held-out
                // validation stream.
                let (train_pool, test_pool) = split_train_test(&pool, TRAIN_SEED);
                let sampler = EpisodeSampler {
                    pool: train_pool,
                    size_range: (EPISODE_QUERIES, EPISODE_QUERIES),
                    rate_range: (capacity * 0.5, capacity * 0.8),
                    batch_fraction: 0.0,
                };
                let arrival = ArrivalPattern::Streaming {
                    lambda: capacity * 0.3,
                };
                let (val, t) = timed(|| {
                    balanced_workload(&test_pool, &paced_arrivals(VAL_QUERIES, arrival), seed)
                });
                drop(tiny_model());
                let cfg = TrainConfig {
                    episodes: TRAIN_EPISODES,
                    sim: SimConfig {
                        num_threads: 8,
                        ..Default::default()
                    },
                    seed: TRAIN_SEED,
                    rollout_threads: 1,
                    ..Default::default()
                };
                (
                    Bench::Train {
                        sampler,
                        cfg,
                        val,
                        val_seed: seed,
                    },
                    t,
                )
            }
        };
        let times = SetupTimes {
            plan_pool_s,
            gen_s,
            probe_s,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Some((bench, times))
    }

    /// Runs one rep, traced or not.
    pub fn run(&self, traced: bool) -> Rep {
        match self {
            Bench::Batch { wl, seed } => run_batch(wl, *seed, traced),
            Bench::Stream { wl, seed } => run_stream(wl, *seed, traced),
            Bench::Serve {
                queries,
                cfg,
                faults,
            } => run_serve(queries, cfg, faults, traced),
            Bench::Train {
                sampler,
                cfg,
                val,
                val_seed,
            } => run_train(sampler, cfg, val, *val_seed, traced),
        }
    }
}

/// Fault-free checks every single-simulator rep makes.
fn sim_rep(res: &SimResult, submitted: usize, trips: u64, wall_s: f64) -> Rep {
    let mut h = Fnv::new();
    h.sim(res);
    let mut rep = Rep {
        wall_s,
        attempted: submitted as u64,
        completed: res.outcomes.len() as u64,
        work_queries: submitted as u64,
        sched_queries: res.outcomes.len() as u64,
        fingerprint: h.0,
        latencies: res.outcomes.iter().map(|o| o.duration).collect(),
        ..Default::default()
    };
    rep.checks.push((
        "attempted = completed + aborted",
        res.outcomes.len() + res.aborted.len() == submitted && res.unfinished.is_empty(),
    ));
    rep.checks
        .push(("guard never trips on a fault-free run", trips == 0));
    sim_counts(&mut rep, &[res]);
    rep
}

/// Adds the per-layer self times of the traced window `[w0, w1)` to
/// `rep.traced` and the recorded counts to `rep.counts`.
fn attribute_into(rep: &mut Rep, w0: u64, w1: u64) {
    let mut rec = trace::take();
    let att = trace::attribute(&rec.spans, w0, w1);
    for layer in Layer::ALL {
        rep.traced.insert(layer_metric(layer), att.get(layer));
    }
    rep.traced
        .insert("trace.unattributed_s", att.unattributed_s);
    rep.traced.insert("trace.wall_s", att.wall_s);
    rep.traced.insert("trace.residual_s", att.residual_s());
    for (layer, p50, p99) in [
        (
            Layer::SchedPolicy,
            "sched.policy.us_per_invocation_p50",
            "sched.policy.us_per_invocation_p99",
        ),
        (
            Layer::CoreLsched,
            "core.lsched.us_per_invocation_p50",
            "core.lsched.us_per_invocation_p99",
        ),
    ] {
        let d = &mut rec.durations[layer as usize];
        rep.traced.insert(p50, trace::quantile_us(d, 0.5));
        rep.traced.insert(p99, trace::quantile_us(d, 0.99));
    }
    for (name, n) in rec.counts {
        rep.counts.insert(name, n as f64);
    }
}

/// The metric name of a layer's self time.
pub fn layer_metric(layer: Layer) -> &'static str {
    match layer {
        Layer::EngineSim => "engine.sim.loop_s",
        Layer::SchedGuard => "sched.guard.self_s",
        Layer::SchedPolicy => "sched.policy.self_s",
        Layer::CoreLsched => "core.lsched.self_s",
        Layer::Admission => "admission.self_s",
        Layer::ServeSupervisor => "serve.unattributed_s",
        Layer::TrainRollout => "core.train.rollout_s",
        Layer::TrainGrad => "core.train.grad_s",
        Layer::OptimStep => "nn.optim.step_s",
        Layer::Capture => "trace.capture_s",
    }
}

fn run_batch(wl: &[WorkloadItem], seed: u64, traced: bool) -> Rep {
    if !traced {
        let mut sched = GuardedScheduler::new(QuickstepScheduler);
        let (res, wall) = timed(|| try_simulate(sim_config(seed), wl, &mut sched));
        let res = res.expect("fault-free batch run cannot error");
        return sim_rep(&res, wl.len(), sched.stats().trips, wall);
    }
    let mut sched = GuardProbe::new(GuardedScheduler::new(Probe::new(
        QuickstepScheduler,
        Layer::SchedPolicy,
    )));
    let w0 = trace::now_ns();
    let res = trace::span(Layer::EngineSim, || {
        try_simulate(sim_config(seed), wl, &mut sched)
    });
    let w1 = trace::now_ns();
    let res = res.expect("fault-free batch run cannot error");
    let trips = sched.guard().stats().trips;
    drop(sched);
    let mut rep = sim_rep(&res, wl.len(), trips, (w1 - w0) as f64 * 1e-9);
    attribute_into(&mut rep, w0, w1);
    rep
}

fn stream_rep(res: &SimResult, wl: &[WorkloadItem], wall_s: f64, trips: u64) -> Rep {
    let mut rep = sim_rep(res, wl.len(), trips, wall_s);
    rep.counts
        .insert("admission.shed", res.resilience.shed as f64);
    rep.counts
        .insert("admission.deferred", res.resilience.deferred as f64);
    rep.counts.insert(
        "admission.max_defer_attempts",
        f64::from(res.resilience.max_defer_attempts),
    );
    rep
}

fn run_stream(wl: &[WorkloadItem], seed: u64, traced: bool) -> Rep {
    if !traced {
        let (gate, hysteresis) = stream_gates();
        let stack = AdmissionStack::with_primary(Box::new(gate), hysteresis, 8);
        let mut sched = GuardedScheduler::new(LSchedScheduler::greedy(tiny_model()))
            .with_admission_stack(stack);
        let (res, wall) = timed(|| try_simulate(sim_config(seed), wl, &mut sched));
        let res = res.expect("stream run cannot error");
        let trips = sched.stats().trips + sched.gate_stats().map_or(0, |g| g.trips);
        return stream_rep(&res, wl, wall, trips);
    }
    let (gate, hysteresis) = stream_gates();
    let stack = AdmissionStack::with_primary(Box::new(GateProbe::new(gate)), hysteresis, 8);
    let mut sched = GuardProbe::new(
        GuardedScheduler::new(Probe::lsched(
            LSchedScheduler::greedy(tiny_model()),
            4,
            1500,
        ))
        .with_admission_stack(stack),
    );
    let w0 = trace::now_ns();
    let res = trace::span(Layer::EngineSim, || {
        try_simulate(sim_config(seed), wl, &mut sched)
    });
    let w1 = trace::now_ns();
    let res = res.expect("stream run cannot error");
    let guard = sched.guard();
    let trips = guard.stats().trips + guard.gate_stats().map_or(0, |g| g.trips);
    let replay = replay_lsched(guard.inner());
    let mut rep = stream_rep(&res, wl, (w1 - w0) as f64 * 1e-9, trips);
    rep.checks
        .push(("replayed decisions equal the live ones", replay.reproduced));
    rep.traced
        .insert("core.features.snapshot_us", replay.snapshot_us);
    rep.traced
        .insert("core.encoder.encode_us", replay.encode_us);
    rep.traced
        .insert("core.predictor.decide_us", replay.decide_us);
    rep.counts
        .insert("core.replay.samples", replay.samples as f64);
    drop(sched);
    attribute_into(&mut rep, w0, w1);
    rep
}

/// The `stream_lsched` admission stack's gates: the predictive gate in
/// front of a deferring hysteresis gate.
fn stream_gates() -> (PredictiveAdmission, Admission) {
    // No displacement: a displaced query is shed, and the workload must
    // complete every query it submits.
    let gate = PredictiveAdmission::new(PredictiveAdmissionConfig {
        policy: ShedPolicy::Defer,
        consider_top_k: 0,
        ..Default::default()
    });
    let hysteresis = Admission::new(AdmissionConfig {
        max_queued: 6,
        resume_queued: 3,
        policy: ShedPolicy::Defer,
        ..Default::default()
    });
    (gate, hysteresis)
}

/// Costs of the inference pieces, from replaying captured invocations.
struct Replay {
    samples: usize,
    snapshot_us: f64,
    encode_us: f64,
    decide_us: f64,
    reproduced: bool,
}

/// Replays the captured snapshots through the model's public pieces:
/// encode alone, then the full decision path the live call took (per
/// event, or a one-snapshot tick batch with the same pick budget). The
/// replayed decisions must equal the live ones.
fn replay_lsched(probe: &Probe<LSchedScheduler>) -> Replay {
    let model = probe.inner().model();
    let per_event = model.cfg.predictor.max_picks_per_event;
    let mut ictx = InferCtx::new();
    let mut enc = lsched_core::encoder::EncodeScratch::new();
    let mut infer = InferScratch::new();
    let mut batch = BatchInferScratch::new();
    let (mut decisions, mut picks, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode_ns, mut decide_ns, mut n) = (0u128, 0u128, 0usize);
    let mut reproduced = true;
    for s in probe.samples() {
        if s.snap.queries.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        {
            let mut b = ictx.session(&model.store);
            std::hint::black_box(model.encoder.encode_system_on(&mut b, &s.snap, &mut enc));
        }
        let t1 = Instant::now();
        if s.tick_events == 0 {
            model.decide_infer(
                &s.snap,
                DecisionMode::Greedy,
                None,
                &mut infer,
                &mut decisions,
                &mut picks,
            );
        } else {
            let budget = (s.tick_events * per_event).min(MAX_TICK_PICKS.max(per_event));
            model.decide_infer_batch(
                &[&s.snap],
                DecisionMode::Greedy,
                None,
                budget,
                &mut batch,
                &mut decisions,
                &mut picks,
                &mut outcomes,
            );
        }
        let t2 = Instant::now();
        encode_ns += (t1 - t0).as_nanos();
        decide_ns += (t2 - t1).as_nanos();
        n += 1;
        reproduced &= decisions == s.live;
    }
    let snaps = probe.snapshot_ns();
    let mean_us = |ns: u128, n: usize| ns as f64 / n.max(1) as f64 * 1e-3;
    let encode_us = mean_us(encode_ns, n);
    Replay {
        samples: n,
        snapshot_us: mean_us(snaps.iter().map(|&v| u128::from(v)).sum(), snaps.len()),
        encode_us,
        // The decision path re-encodes; the predictor's share is the rest.
        decide_us: (mean_us(decide_ns, n) - encode_us).max(0.0),
        reproduced: reproduced && n > 0,
    }
}

fn serve_rep(res: Result<ServeResult, lsched_serve::ServeError>, n: usize, wall_s: f64) -> Rep {
    let mut rep = Rep {
        wall_s,
        attempted: n as u64,
        work_queries: n as u64,
        ..Default::default()
    };
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            rep.checks
                .push(("serve_supervised returns no error", false));
            eprintln!("serve_supervised failed: {e:?}");
            return rep;
        }
    };
    rep.checks.push(("serve_supervised returns no error", true));
    rep.completed = res.completed;
    rep.sched_queries = res.completed;
    rep.checks.push((
        "attempted = completed + aborted + abandoned",
        res.completed + res.aborted + res.abandoned.len() as u64 == n as u64,
    ));
    rep.checks
        .push(("the injected crash fired", res.failover.crashes == 1));
    rep.latencies = res.latency.samples().to_vec();
    let mut h = Fnv::new();
    for run in &res.shards {
        h.u64(run.shard as u64);
        h.u64(u64::from(run.epoch));
        for &g in &run.assigned {
            h.u64(g as u64);
        }
        h.sim(&run.result);
    }
    h.bytes(format!("{:?}{:?}{:?}", res.failover, res.health, res.abandoned).as_bytes());
    rep.fingerprint = h.0;
    let results: Vec<&SimResult> = res.shards.iter().map(|r| &r.result).collect();
    sim_counts(&mut rep, &results);
    let replay_events: u64 = res
        .shards
        .iter()
        .filter(|r| r.epoch > 0)
        .map(|r| r.result.events_processed)
        .sum();
    rep.counts.insert(
        "serve.failover.replay_events_frac",
        replay_events as f64 / res.events_processed.max(1) as f64,
    );
    rep.counts
        .insert("serve.failover.rerouted", res.failover.rerouted as f64);
    rep.counts
        .insert("serve.abandoned", res.abandoned.len() as f64);
    rep.counts.insert(
        "serve.router.migration_frac",
        res.router.migrations as f64 / res.router.routed.max(1) as f64,
    );
    rep.counts
        .insert("sched.guard.trips", res.guard.trips as f64);
    rep.counts.insert(
        "sched.guard.fallback_events",
        res.guard.fallback_events as f64,
    );
    rep.counts
        .insert("sched.guard.events", res.guard.events as f64);
    rep
}

fn run_serve(
    queries: &[TenantQuery],
    cfg: &ServeConfig,
    faults: &ShardFaultPlan,
    traced: bool,
) -> Rep {
    let sup = SupervisorConfig::default();
    if !traced {
        let (res, wall) = timed(|| {
            serve_supervised(cfg, queries, faults, &sup, |_| {
                GuardedScheduler::new(FifoScheduler)
            })
        });
        return serve_rep(res, queries.len(), wall);
    }
    let w0 = trace::now_ns();
    let res = trace::span(Layer::ServeSupervisor, || {
        serve_supervised(cfg, queries, faults, &sup, |_| {
            GuardProbe::shard(GuardedScheduler::new(Probe::new(
                FifoScheduler,
                Layer::SchedPolicy,
            )))
        })
    });
    let w1 = trace::now_ns();
    let mut rep = serve_rep(res, queries.len(), (w1 - w0) as f64 * 1e-9);
    attribute_into(&mut rep, w0, w1);
    // The router on its own, outside the traced window: median of runs
    // of `route_workload` over the same queries.
    let mut route: Vec<f64> = (0..5)
        .map(|_| timed(|| std::hint::black_box(route_workload(&cfg.router, queries))).1)
        .collect();
    route.sort_by(f64::total_cmp);
    rep.traced
        .insert("serve.router.route_s", route[route.len() / 2]);
    rep
}

/// Hash of every parameter's bits, in store order.
fn params_hash(model: &LSchedModel) -> u64 {
    let mut h = Fnv::new();
    for (id, name) in model.store.iter_ids() {
        h.bytes(name.as_bytes());
        for v in model.store.value(id).data() {
            h.u64(u64::from(v.to_bits()));
        }
    }
    h.0
}

/// Greedy validation of a trained model on the held-out stream.
fn validate(model: LSchedModel, val: &[WorkloadItem], seed: u64, traced: bool) -> SimResult {
    let cfg = SimConfig {
        num_threads: 8,
        seed,
        ..Default::default()
    };
    let greedy = LSchedScheduler::greedy(model);
    let res = if traced {
        let mut probe = Probe::new(greedy, Layer::CoreLsched);
        trace::span(Layer::EngineSim, || try_simulate(cfg, val, &mut probe))
    } else {
        try_simulate(cfg, val, &mut { greedy })
    };
    res.expect("validation run cannot error")
}

fn run_train(
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
    val: &[WorkloadItem],
    val_seed: u64,
    traced: bool,
) -> Rep {
    let rollouts = cfg.rollouts_per_episode.max(1);
    let rollout_queries = (cfg.episodes * rollouts * EPISODE_QUERIES) as u64;
    let w0 = trace::now_ns();
    let t0 = Instant::now();
    let model = if traced {
        train_decomposed(tiny_model(), sampler, cfg)
    } else {
        let mut exp = ExperienceManager::new(64);
        train(tiny_model(), sampler, cfg, &mut exp).0
    };
    let hash = params_hash(&model);
    let res = validate(model, val, val_seed, traced);
    let wall_s = t0.elapsed().as_secs_f64();
    let w1 = trace::now_ns();

    let mut h = Fnv::new();
    h.u64(hash);
    h.sim(&res);
    // `simulate` panics rather than return an unfinished rollout, so
    // every rollout query completed once training returns.
    let mut rep = Rep {
        wall_s,
        attempted: rollout_queries + val.len() as u64,
        completed: rollout_queries + res.outcomes.len() as u64,
        work_queries: rollout_queries,
        sched_queries: res.outcomes.len() as u64,
        fingerprint: h.0,
        latencies: res.outcomes.iter().map(|o| o.duration).collect(),
        ..Default::default()
    };
    rep.checks.push((
        "validation: attempted = completed + aborted",
        res.outcomes.len() + res.aborted.len() == val.len(),
    ));
    sim_counts(&mut rep, &[&res]);
    rep.sched_s = res.sched_wall_time;
    if traced {
        attribute_into(&mut rep, w0, w1);
        // Moved here from the sink by `attribute_into`.
        let recorded = rep
            .counts
            .get("core.train.recorded")
            .copied()
            .unwrap_or(0.0);
        let replayed = rep
            .counts
            .get("core.train.replayed")
            .copied()
            .unwrap_or(0.0);
        rep.traced
            .insert("core.train.replay_frac", replayed / recorded.max(1.0));
    }
    rep
}

/// `lsched_core::train` re-driven through its public pieces, one span
/// per phase: rollouts (with the simulator and policy spans inside),
/// gradient replay, and clipping plus the Adam step. Reproduces the
/// parameters `train` returns for the same inputs.
fn train_decomposed(
    model: LSchedModel,
    sampler: &EpisodeSampler,
    cfg: &TrainConfig,
) -> LSchedModel {
    let mut model = model;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut scratch = GradScratch::new();
    let rollouts = cfg.rollouts_per_episode.max(1);
    let (mut recorded, mut replayed) = (0u64, 0u64);
    for ep in 0..cfg.episodes {
        let workload = sampler.sample(&mut rng);
        let shared = Arc::new(model);
        let mut all: Vec<(Vec<EpisodeStep>, Vec<f64>)> = Vec::with_capacity(rollouts);
        for r in 0..rollouts {
            all.push(trace::span(Layer::TrainRollout, || {
                let mut sim_cfg = cfg.sim.clone();
                sim_cfg.seed = rollout_seed(cfg.seed, ep, r);
                let sched =
                    LSchedScheduler::sampling_shared(Arc::clone(&shared), sim_cfg.seed ^ 0x5eed);
                let mut probe = Probe::new(sched, Layer::CoreLsched);
                let res = trace::span(Layer::EngineSim, || {
                    simulate(sim_cfg, &workload, &mut probe)
                });
                let steps = probe.inner_mut().take_steps();
                let returns = rollout_returns(&cfg.reward, &steps, res.makespan);
                (steps, returns)
            }));
        }
        model = Arc::try_unwrap(shared).expect("rollouts release the model snapshot");
        let curves: Vec<Vec<(f64, f64)>> = all
            .iter()
            .map(|(steps, returns)| {
                steps
                    .iter()
                    .map(|s| s.time)
                    .zip(returns.iter().copied())
                    .collect()
            })
            .collect();
        model.store.zero_grads();
        for (steps, returns) in &all {
            let advantages: Vec<f64> = steps
                .iter()
                .zip(returns)
                .map(|(s, g)| g - time_aligned_baseline(&curves, s.time))
                .collect();
            recorded += steps.len() as u64;
            replayed += steps.len().min(cfg.decision_sample_cap) as u64;
            trace::span(Layer::TrainGrad, || {
                accumulate_rollout_gradients_with(
                    &mut model,
                    steps,
                    &advantages,
                    cfg,
                    &mut rng,
                    &mut scratch,
                )
            });
        }
        trace::span(Layer::OptimStep, || {
            model.store.clip_grad_norm(cfg.max_grad_norm);
            opt.step(&mut model.store);
        });
    }
    trace::count("core.train.recorded", recorded);
    trace::count("core.train.replayed", replayed);
    trace::count("nn.graph.arena_capacity", scratch.arena_capacity() as u64);
    model
}
