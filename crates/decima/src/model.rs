//! The Decima baseline model (Mao et al., SIGCOMM 2019), as described
//! and critiqued by the LSched paper:
//!
//! * **black-box node features** — Decima sees each task as an opaque
//!   unit: number of remaining tasks, estimated task duration, degree
//!   information — none of LSched's white-box operator/edge/block
//!   features (Section 1);
//! * **sequential message-passing GCN** — per-level child→parent fusion
//!   *within* each convolution iteration (the over-smoothing design of
//!   Section 4.2.1), with isotropic aggregation (no attention);
//! * **no pipelining** — a node is only schedulable when its parents
//!   have *completed*; Decima "can not schedule two or more pipelined
//!   operators from one query at the same time" (Section 5.3.2), so
//!   every decision has pipeline degree 1 and treats every edge as
//!   blocking;
//! * **two heads** — node selection and a per-query parallelism limit;
//! * **average-latency-only reward** (Section 6: "Decima focuses only
//!   on minimizing average query time").

use rand::rngs::StdRng;
use rand::SeedableRng;

use lsched_core::predictor::{choose_on, DecisionMode};
use lsched_core::rl::RewardConfig;
use lsched_engine::plan::OpId;
use lsched_engine::scheduler::{
    OpStatus, QueryId, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_nn::{
    Activation, Backend, Graph, InferCtx, Linear, Mlp, NodeId, ParamStore, TapeBackend, ValId,
};

/// Black-box per-node feature width: [remaining tasks, est remaining
/// duration, n_children, n_parents, is_schedulable].
pub const NODE_FEAT_DIM: usize = 5;
/// Per-query summary feature width: [n_ops, n_remaining_tasks,
/// est_remaining_work, assigned_threads, free_threads].
pub const QUERY_FEAT_DIM: usize = 5;

/// Decima hyper-parameters.
#[derive(Debug, Clone)]
pub struct DecimaConfig {
    /// Hidden embedding width.
    pub hidden: usize,
    /// Sequential message-passing depth.
    pub layers: usize,
    /// Parallelism-limit head width (thread counts 1..=max).
    pub max_threads: usize,
    /// Cap on decisions per scheduling event.
    pub max_picks_per_event: usize,
    /// Reward configuration (average-only by default).
    pub reward: RewardConfig,
}

impl Default for DecimaConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            layers: 3,
            max_threads: 128,
            max_picks_per_event: 4,
            reward: RewardConfig { w_avg: 1.0, w_tail: 0.0, tail_percentile: 0.9 },
        }
    }
}

fn squash(x: f64) -> f32 {
    (x.max(0.0) + 1.0).ln() as f32
}

/// Black-box snapshot of one query for Decima.
#[derive(Debug, Clone)]
pub struct DecimaQuerySnapshot {
    /// Query id.
    pub qid: QueryId,
    /// Per-node features.
    pub node_feats: Vec<Vec<f32>>,
    /// `children[n]` = child node indices of node n.
    pub children: Vec<Vec<usize>>,
    /// Query summary features.
    pub query_feats: Vec<f32>,
    /// Decima-schedulable node indices: all *parents completed* (no
    /// pipelining — a Running producer does not unblock its consumer).
    pub schedulable: Vec<usize>,
}

/// Black-box snapshot of the system.
#[derive(Debug, Clone)]
pub struct DecimaSnapshot {
    /// Engine clock.
    pub time: f64,
    /// Idle threads.
    pub free_threads: usize,
    /// Active queries.
    pub queries: Vec<DecimaQuerySnapshot>,
}

impl DecimaSnapshot {
    /// Flattened candidates as (query index, schedulable-list index).
    pub fn candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.candidates_into(&mut out);
        out
    }

    /// [`DecimaSnapshot::candidates`] into a caller-owned vector (cleared
    /// first), reusing its capacity on the inference hot path.
    pub fn candidates_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        for (qi, q) in self.queries.iter().enumerate() {
            for si in 0..q.schedulable.len() {
                out.push((qi, si));
            }
        }
    }
}

fn query_snapshot(ctx: &SchedContext<'_>, qi: usize) -> DecimaQuerySnapshot {
    let q = &ctx.queries[qi];
    let n = q.plan.num_ops();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &q.plan.edges {
        children[e.parent.0].push(e.child.0);
    }
    // Decima's stricter schedulability: ALL producers finished (no
    // pipelining), regardless of the edge's non-pipeline-breaking flag.
    let schedulable: Vec<usize> = (0..n)
        .filter(|&i| {
            !matches!(q.ops[i].status, OpStatus::Running | OpStatus::Finished)
                && children[i].iter().all(|&c| q.ops[c].status == OpStatus::Finished)
        })
        .collect();
    let node_feats = (0..n)
        .map(|i| {
            let rt = &q.ops[i];
            let parents = q.plan.parents_of(OpId(i)).len();
            vec![
                squash(rt.remaining_work_orders() as f64),
                squash(rt.est_remaining_duration()),
                children[i].len() as f32,
                parents as f32,
                if schedulable.contains(&i) { 1.0 } else { 0.0 },
            ]
        })
        .collect();
    let query_feats = vec![
        squash(n as f64),
        squash(q.ops.iter().map(|o| o.remaining_work_orders() as f64).sum()),
        squash(ctx.hot.est_work[qi]),
        q.assigned_threads as f32 / ctx.total_threads.max(1) as f32,
        ctx.free_threads as f32 / ctx.total_threads.max(1) as f32,
    ];
    DecimaQuerySnapshot { qid: q.qid, node_feats, children, query_feats, schedulable }
}

/// Captures the Decima view of the system.
pub fn decima_snapshot(ctx: &SchedContext<'_>) -> DecimaSnapshot {
    DecimaSnapshot {
        time: ctx.time,
        free_threads: ctx.free_threads,
        queries: (0..ctx.queries.len()).map(|qi| query_snapshot(ctx, qi)).collect(),
    }
}

/// One recorded sub-decision (for REINFORCE replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecimaPick {
    /// Candidate index in the snapshot's flattened candidate list.
    pub cand_idx: usize,
    /// Thread grant.
    pub threads: usize,
}

struct GcnLayer {
    w_self: Linear,
    w_child: Linear,
}

/// The Decima network: input projection, sequential GCN, per-query
/// summary, node-selection and parallelism-limit heads.
pub struct DecimaModel {
    /// All trainable parameters.
    pub store: ParamStore,
    cfg: DecimaConfig,
    proj: Linear,
    gcn: Vec<GcnLayer>,
    summary: Mlp,
    node_head: Mlp,
    limit_head: Mlp,
}

impl DecimaModel {
    /// Builds a fresh Decima model.
    pub fn new(cfg: DecimaConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden;
        let proj = Linear::new(&mut store, &mut rng, "dec.proj", NODE_FEAT_DIM, h);
        let gcn = (0..cfg.layers)
            .map(|l| GcnLayer {
                w_self: Linear::new(&mut store, &mut rng, &format!("dec.gcn{l}.self"), h, h),
                w_child: Linear::new(&mut store, &mut rng, &format!("dec.gcn{l}.child"), h, h),
            })
            .collect();
        let summary = Mlp::new(
            &mut store,
            &mut rng,
            "dec.summary",
            &[h + QUERY_FEAT_DIM, h, h],
            Activation::LeakyRelu,
            Activation::LeakyRelu,
        );
        let node_head = Mlp::new(
            &mut store,
            &mut rng,
            "dec.node",
            &[h + h, h, 1],
            Activation::LeakyRelu,
            Activation::None,
        );
        let limit_head = Mlp::new(
            &mut store,
            &mut rng,
            "dec.limit",
            &[h, h, cfg.max_threads],
            Activation::LeakyRelu,
            Activation::None,
        );
        Self { store, cfg, proj, gcn, summary, node_head, limit_head }
    }

    /// The model's configuration.
    pub fn config(&self) -> &DecimaConfig {
        &self.cfg
    }

    fn topo_order(children: &[Vec<usize>]) -> Vec<usize> {
        let n = children.len();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut is_child = vec![false; n];
        for cs in children {
            for &c in cs {
                is_child[c] = true;
            }
        }
        fn dfs(children: &[Vec<usize>], node: usize, visited: &mut [bool], order: &mut Vec<usize>) {
            if visited[node] {
                return;
            }
            visited[node] = true;
            for &c in &children[node] {
                dfs(children, c, visited, order);
            }
            order.push(node);
        }
        for (r, &child) in is_child.iter().enumerate() {
            if !child {
                dfs(children, r, &mut visited, &mut order);
            }
        }
        order
    }

    fn encode_query_on<B: Backend>(
        &self,
        b: &mut B,
        qs: &DecimaQuerySnapshot,
        h: &mut Vec<B::Id>,
    ) -> B::Id {
        h.clear();
        for f in &qs.node_feats {
            let x = b.input(f);
            h.push(b.linear(&self.proj, x, Activation::LeakyRelu));
        }
        let order = Self::topo_order(&qs.children);
        let mut next = b.take_ids();
        let mut terms = b.take_ids();
        for layer in &self.gcn {
            // Sequential message passing: parents read the *current
            // iteration's* child embeddings.
            next.clear();
            next.extend_from_slice(h);
            for &n in &order {
                let own = b.linear(&layer.w_self, h[n], Activation::None);
                terms.clear();
                terms.push(own);
                for &c in &qs.children[n] {
                    terms.push(b.linear(&layer.w_child, next[c], Activation::None));
                }
                let s = b.sum_vec(&terms);
                next[n] = b.leaky_relu(s, 0.01);
            }
            h.clear();
            h.extend_from_slice(&next);
        }
        b.recycle_ids(next);
        b.recycle_ids(terms);
        // Query summary: mean node embedding ‖ query feats → MLP.
        let summed = b.sum_vec(h);
        let mean = b.scale(summed, 1.0 / h.len() as f32);
        let qf = b.input(&qs.query_feats);
        let cat = b.concat(&[mean, qf]);
        b.mlp(&self.summary, cat)
    }

    /// Runs a decision pass on any [`Backend`]. With `forced`, replays
    /// those picks and rebuilds their log-probability. Decisions and
    /// pick traces land in the caller's vectors (cleared first); the
    /// log-probability handle is returned. All candidate scores come
    /// from one [`Backend::mlp_scores`] call — a single batched GEMM per
    /// head layer on the inference path.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_on<B: Backend>(
        &self,
        b: &mut B,
        snap: &DecimaSnapshot,
        sample: bool,
        mut rng: Option<&mut StdRng>,
        forced: Option<&[DecimaPick]>,
        scratch: &mut DecimaScratch<B::Id>,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<DecimaPick>,
    ) -> B::Id {
        decisions.clear();
        picks.clear();
        let mode = if sample { DecisionMode::Sample } else { DecisionMode::Greedy };
        let DecimaScratch { node_embs, summaries, spare, cands, available, score_inputs, lp_terms } =
            scratch;
        for v in node_embs.drain(..) {
            spare.push(v);
        }
        summaries.clear();
        for qs in &snap.queries {
            let mut h = spare.pop().unwrap_or_default();
            let s = self.encode_query_on(b, qs, &mut h);
            node_embs.push(h);
            summaries.push(s);
        }
        snap.candidates_into(cands);
        available.clear();
        available.resize(cands.len(), true);
        let mut free = snap.free_threads;
        lp_terms.clear();

        score_inputs.clear();
        for &(qi, si) in cands.iter() {
            let op = snap.queries[qi].schedulable[si];
            score_inputs.push(b.concat(&[node_embs[qi][op], summaries[qi]]));
        }

        let max_iters = forced.map_or(self.cfg.max_picks_per_event, <[DecimaPick]>::len);
        if !cands.is_empty() {
            let scores = b.mlp_scores(&self.node_head, score_inputs);
            for it in 0..max_iters {
                if free == 0 {
                    break;
                }
                if !available.iter().any(|&a| a) {
                    break;
                }
                let mn = b.input_with(cands.len(), |buf| {
                    for (m, &a) in buf.iter_mut().zip(available.iter()) {
                        *m = if a { 0.0 } else { -1e9 };
                    }
                });
                let masked = b.add(scores, mn);
                let lsm = b.log_softmax(masked);
                let forced_pick = forced.map(|f| f[it]);
                let cand_idx = choose_on(
                    b,
                    lsm,
                    |i| available[i],
                    cands.len(),
                    mode,
                    rng.as_deref_mut(),
                    forced_pick.map(|p| p.cand_idx),
                );
                lp_terms.push(b.gather(lsm, cand_idx));

                let (qi, si) = cands[cand_idx];
                let op = snap.queries[qi].schedulable[si];

                // Parallelism limit head.
                let max_thr = free.min(self.cfg.max_threads).max(1);
                let logits = b.mlp(&self.limit_head, summaries[qi]);
                let tm = b.input_with(self.cfg.max_threads, |buf| {
                    for (t, m) in buf.iter_mut().enumerate() {
                        *m = if t < max_thr { 0.0 } else { -1e9 };
                    }
                });
                let tmasked = b.add(logits, tm);
                let tlsm = b.log_softmax(tmasked);
                let tidx = choose_on(
                    b,
                    tlsm,
                    |i| i < max_thr,
                    self.cfg.max_threads,
                    mode,
                    rng.as_deref_mut(),
                    forced_pick.map(|p| p.threads - 1),
                );
                lp_terms.push(b.gather(tlsm, tidx));
                let threads = tidx + 1;

                decisions.push(SchedDecision {
                    query: snap.queries[qi].qid,
                    root: OpId(op),
                    // No pipelining support (the paper's Section 1 critique).
                    pipeline_degree: 1,
                    threads,
                });
                picks.push(DecimaPick { cand_idx, threads });
                free -= threads;
                available[cand_idx] = false;
            }
        }

        if lp_terms.is_empty() {
            b.scalar(0.0)
        } else {
            let s = b.concat(lp_terms);
            b.sum_elems(s)
        }
    }

    /// Runs a decision pass on a fresh autodiff tape (the training /
    /// replay instantiation of [`DecimaModel::decide_on`]).
    pub fn decide(
        &self,
        snap: &DecimaSnapshot,
        sample: bool,
        rng: Option<&mut StdRng>,
        forced: Option<&[DecimaPick]>,
    ) -> (Graph, Vec<SchedDecision>, Vec<DecimaPick>, NodeId) {
        let mut g = Graph::new();
        let mut scratch = DecimaScratch::default();
        let mut decisions = Vec::new();
        let mut picks = Vec::new();
        let lp = self.decide_on(
            &mut TapeBackend::new(&mut g, &self.store),
            snap,
            sample,
            rng,
            forced,
            &mut scratch,
            &mut decisions,
            &mut picks,
        );
        (g, decisions, picks, lp)
    }

    /// Runs a decision pass on the tape-free inference path (no autodiff
    /// nodes, no parameter clones, batched candidate scoring), returning
    /// the decision-sequence log-probability as a plain float. Decisions
    /// are bit-identical to [`DecimaModel::decide`].
    pub fn decide_infer(
        &self,
        snap: &DecimaSnapshot,
        sample: bool,
        rng: Option<&mut StdRng>,
        infer: &mut DecimaInfer,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<DecimaPick>,
    ) -> f32 {
        let DecimaInfer { ctx, scratch } = infer;
        let mut b = ctx.session(&self.store);
        let lp = self.decide_on(&mut b, snap, sample, rng, None, scratch, decisions, picks);
        b.value(lp)[0]
    }
}

/// Reusable per-call storage for [`DecimaModel::decide_on`].
#[derive(Debug)]
pub struct DecimaScratch<I> {
    node_embs: Vec<Vec<I>>,
    summaries: Vec<I>,
    spare: Vec<Vec<I>>,
    cands: Vec<(usize, usize)>,
    available: Vec<bool>,
    score_inputs: Vec<I>,
    lp_terms: Vec<I>,
}

impl<I> Default for DecimaScratch<I> {
    fn default() -> Self {
        Self {
            node_embs: Vec::new(),
            summaries: Vec::new(),
            spare: Vec::new(),
            cands: Vec::new(),
            available: Vec::new(),
            score_inputs: Vec::new(),
            lp_terms: Vec::new(),
        }
    }
}

/// Reusable tape-free decision state for [`DecimaScheduler`]: the
/// evaluation arena plus the model's scratch vectors.
#[derive(Debug, Default)]
pub struct DecimaInfer {
    ctx: InferCtx,
    scratch: DecimaScratch<ValId>,
}

impl DecimaInfer {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One recorded Decima step.
#[derive(Debug, Clone)]
pub struct DecimaStep {
    /// The black-box snapshot.
    pub snapshot: DecimaSnapshot,
    /// Sub-decisions taken.
    pub picks: Vec<DecimaPick>,
    /// Event time.
    pub time: f64,
    /// Active query count.
    pub num_queries: usize,
}

/// The Decima scheduler.
pub struct DecimaScheduler {
    model: DecimaModel,
    sample: bool,
    rng: StdRng,
    recording: bool,
    steps: Vec<DecimaStep>,
    /// Reusable tape-free decision state (decisions run through
    /// [`DecimaModel::decide_infer`], not the autodiff tape).
    infer: DecimaInfer,
}

impl DecimaScheduler {
    /// Inference-mode scheduler.
    pub fn greedy(model: DecimaModel) -> Self {
        Self {
            model,
            sample: false,
            rng: StdRng::seed_from_u64(0),
            recording: false,
            steps: Vec::new(),
            infer: DecimaInfer::new(),
        }
    }

    /// Training-mode scheduler with recording.
    pub fn sampling(model: DecimaModel, seed: u64) -> Self {
        Self {
            model,
            sample: true,
            rng: StdRng::seed_from_u64(seed),
            recording: true,
            steps: Vec::new(),
            infer: DecimaInfer::new(),
        }
    }

    /// Consumes the scheduler, returning the model and recorded steps.
    pub fn finish(self) -> (DecimaModel, Vec<DecimaStep>) {
        (self.model, self.steps)
    }
}

impl Scheduler for DecimaScheduler {
    fn name(&self) -> String {
        "decima".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let snap = decima_snapshot(ctx);
        let rng = if self.sample { Some(&mut self.rng) } else { None };
        let mut decisions = Vec::new();
        let mut picks = Vec::new();
        self.model.decide_infer(
            &snap,
            self.sample,
            rng,
            &mut self.infer,
            &mut decisions,
            &mut picks,
        );
        if self.recording && !picks.is_empty() {
            self.steps.push(DecimaStep {
                snapshot: snap,
                picks,
                time: ctx.time,
                num_queries: ctx.queries.len(),
            });
        }
        decisions
    }

    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        // Every event of a tick fires against the same post-tick state,
        // and Decima's pick loop already runs until the free pool or the
        // candidate set is exhausted — so one decision pass serves the
        // whole batch; per-event redelivery would just re-run the same
        // pass against a drained pool.
        let (first, _rest) = events.split_first()?;
        Some(self.on_event(ctx, first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::scheduler::QueryRuntime;
    use lsched_engine::sim::{simulate, SimConfig};
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    fn small() -> DecimaModel {
        DecimaModel::new(DecimaConfig { hidden: 12, layers: 2, max_threads: 16, ..Default::default() }, 5)
    }

    #[test]
    fn decima_completes_workloads_without_pipelining() {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 5, ArrivalPattern::Batch, 1);
        let mut s = DecimaScheduler::greedy(small());
        let res = simulate(SimConfig { num_threads: 8, ..Default::default() }, &wl, &mut s);
        assert_eq!(res.outcomes.len(), 5);
    }

    #[test]
    fn decisions_always_degree_one() {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 3, ArrivalPattern::Batch, 2);

        struct Probe {
            inner: DecimaScheduler,
            max_degree_seen: usize,
        }
        impl Scheduler for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
                let ds = self.inner.on_event(ctx, ev);
                for d in &ds {
                    self.max_degree_seen = self.max_degree_seen.max(d.pipeline_degree);
                }
                ds
            }
        }
        let mut p = Probe { inner: DecimaScheduler::greedy(small()), max_degree_seen: 0 };
        simulate(SimConfig { num_threads: 6, ..Default::default() }, &wl, &mut p);
        assert_eq!(p.max_degree_seen, 1);
    }

    #[test]
    fn decima_schedulability_stricter_than_lsched() {
        use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
        use std::sync::Arc;
        // scan -> select (non-breaking). LSched can schedule the select
        // while the scan runs; Decima cannot.
        let mut b = PlanBuilder::new("p");
        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![], 10.0, 2, 0.1, 1.0);
        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![], 5.0, 2, 0.1, 1.0);
        b.connect(scan, sel, true);
        let mut q = QueryRuntime::new(QueryId(0), Arc::new(b.finish(sel)), 0.0, 4);
        q.ops[0].status = OpStatus::Running;
        q.refresh_statuses();
        assert_eq!(q.ops[1].status, OpStatus::Schedulable); // LSched view
        let queries = vec![q];
        let free = [0usize, 1];
        let hot = lsched_engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 4,
            free_threads: 2,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let snap = decima_snapshot(&ctx);
        assert!(snap.queries[0].schedulable.is_empty()); // Decima view
    }

    #[test]
    fn replay_reproduces_logprob() {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 3, ArrivalPattern::Batch, 3);
        let mut s = DecimaScheduler::sampling(small(), 9);
        simulate(SimConfig { num_threads: 6, ..Default::default() }, &wl, &mut s);
        let (mut model, steps) = s.finish();
        assert!(!steps.is_empty());
        let step = &steps[0];
        let (g, _, picks, lp) = model.decide(&step.snapshot, false, None, Some(&step.picks));
        assert_eq!(&picks, &step.picks);
        let v = g.value(lp).item();
        assert!(v <= 0.0 && v.is_finite());
        let loss = {
            let mut g = g;
            let l = g.scale(lp, -1.0);
            g.backward(l, &mut model.store);
            l
        };
        let _ = loss;
        assert!(model.store.grad_norm() > 0.0);
    }
}
