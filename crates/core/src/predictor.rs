//! The Scheduling Predictor (Section 5.3, Figure 7): three
//! fully-connected softmax heads deciding, at every scheduling event,
//! (1) which operator roots a new pipeline and from which query, (2) the
//! pipeline degree from that root, and (3) how many threads the query
//! gets.
//!
//! A single event can admit several pipelines (until threads run out),
//! so the predictor loops: each iteration softmaxes the remaining
//! candidate roots, picks one (sampled during training, argmax at
//! inference), then picks a masked degree and a masked thread count.
//! The log-probability of every choice is accumulated on the graph so
//! REINFORCE can differentiate through the full decision sequence.

use rand::rngs::StdRng;
use rand::Rng;

use lsched_engine::plan::OpId;
use lsched_engine::scheduler::SchedDecision;
use lsched_nn::{Activation, Backend, Graph, Mlp, NodeId, ParamStore, TapeBackend};

use crate::encoder::{QueryEncoding, SystemEncoding};
use crate::features::{QuerySnapshot, SystemSnapshot};

/// Predictor hyper-parameters.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Output width of the pipeline-degree head (degrees 1..=max).
    pub max_degree: usize,
    /// Output width of the parallelism head (thread counts 1..=max).
    pub max_threads: usize,
    /// Hidden width of the head MLPs.
    pub hidden: usize,
    /// Cap on pipelines admitted per scheduling event.
    pub max_picks_per_event: usize,
    /// Figure 15 ablation: ignore the pipeline-degree prediction and
    /// always schedule the root alone.
    pub ablate_pipelining: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            max_degree: 8,
            max_threads: 128,
            hidden: 32,
            max_picks_per_event: 4,
            ablate_pipelining: false,
        }
    }
}

/// How choices are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionMode {
    /// Argmax (inference).
    Greedy,
    /// Categorical sampling (training exploration).
    Sample,
}

/// One recorded sub-decision: which candidate root, which degree, which
/// thread count. Enough to replay the event deterministically for the
/// REINFORCE backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickTrace {
    /// Index into the snapshot's flattened candidate list.
    pub cand_idx: usize,
    /// Chosen pipeline degree (≥ 1).
    pub degree: usize,
    /// Chosen thread grant (≥ 1).
    pub threads: usize,
}

/// Reusable storage for [`SchedulingPredictor::decide_batch_on`]: the
/// flat cross-event candidate tables (offset table into the shared
/// candidate list, per-segment lengths for the fused GEMM, per-segment
/// score handles) plus the per-event bookkeeping vectors.
#[derive(Debug)]
pub struct BatchPredictScratch<I> {
    cands: Vec<(usize, usize)>,
    /// `cands[cand_offsets[e]..cand_offsets[e + 1]]` is event `e`'s slice.
    cand_offsets: Vec<usize>,
    /// Candidate counts of the *non-empty* events, in event order — the
    /// segment-length table handed to [`Backend::mlp_scores_batched`].
    seg_lens: Vec<usize>,
    seg_scores: Vec<I>,
    available: Vec<bool>,
    root_inputs: Vec<I>,
    pipe_inputs: Vec<I>,
    logprob_terms: Vec<I>,
}

impl<I> Default for BatchPredictScratch<I> {
    fn default() -> Self {
        Self {
            cands: Vec::new(),
            cand_offsets: Vec::new(),
            seg_lens: Vec::new(),
            seg_scores: Vec::new(),
            available: Vec::new(),
            root_inputs: Vec::new(),
            pipe_inputs: Vec::new(),
            logprob_terms: Vec::new(),
        }
    }
}

impl<I> BatchPredictScratch<I> {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A borrowed list of system snapshots for
/// [`SchedulingPredictor::decide_batch_on`].
///
/// The serving path naturally holds a `&[&SystemSnapshot]`; the training
/// replay holds recorded episode steps plus a subsample index list.
/// Abstracting the event list lets the replay hand the predictor an
/// *indirect* view over `(steps, selected)` instead of materializing a
/// fresh `Vec<&SystemSnapshot>` every gradient step — the last
/// steady-state heap allocation on the fused training path.
pub trait SnapshotList {
    /// Number of events.
    fn len(&self) -> usize;
    /// The snapshot of event `i`.
    fn get(&self, i: usize) -> &SystemSnapshot;
    /// Whether there are no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SnapshotList for [&SystemSnapshot] {
    fn len(&self) -> usize {
        <[&SystemSnapshot]>::len(self)
    }
    fn get(&self, i: usize) -> &SystemSnapshot {
        self[i]
    }
}

/// Per-event span of [`SchedulingPredictor::decide_batch_on`]'s flat
/// output: how many decisions/picks belong to this event (they always
/// count the same, one pick trace per decision) and the backend handle
/// of the event's total log-probability.
#[derive(Debug, Clone, Copy)]
pub struct EventOutcome<I> {
    /// Number of decisions (= pick traces) this event contributed.
    pub n_decisions: usize,
    /// Handle of the event's summed log-probability.
    pub logprob: I,
}

/// Picks an index among the valid entries of a log-softmax vector.
/// A `forced` index (a replayed pick) is returned as is. Otherwise
/// greedy takes the argmax; sampling renormalizes the valid log-probs
/// without allocating, arithmetic-identical to `softmax_vals` over the
/// gathered valid entries (same shift-max, same sequential exp-sum, same
/// cumulative draw), so tape- and inference-path decisions match bit for
/// bit. The Decima baseline picks through this function too.
///
/// Invariants (the `expect`s below): every caller masks against a
/// schedulable-op set the scheduler already checked to be non-empty
/// before invoking the predictor, and `Sample` mode is only reachable
/// through sampling schedulers, which always carry an RNG.
pub fn choose_on<B: Backend>(
    b: &B,
    logits_sm: B::Id,
    is_valid: impl Fn(usize) -> bool,
    n: usize,
    mode: DecisionMode,
    rng: Option<&mut StdRng>,
    forced: Option<usize>,
) -> usize {
    if let Some(f) = forced {
        return f;
    }
    let log_probs = b.value(logits_sm);
    match mode {
        DecisionMode::Greedy => (0..n)
            .filter(|&i| is_valid(i))
            .max_by(|&a, &c| log_probs[a].total_cmp(&log_probs[c]))
            .expect("non-empty valid set"),
        DecisionMode::Sample => {
            let rng = rng.expect("sampling requires an RNG");
            let mut m = f32::NEG_INFINITY;
            for (i, &lp) in log_probs.iter().enumerate().take(n) {
                if is_valid(i) {
                    m = f32::max(m, lp);
                }
            }
            let mut z = 0.0f32;
            for (i, &lp) in log_probs.iter().enumerate().take(n) {
                if is_valid(i) {
                    z += (lp - m).exp();
                }
            }
            let mut u: f32 = rng.gen();
            let mut last = None;
            for (i, &lp) in log_probs.iter().enumerate().take(n) {
                if !is_valid(i) {
                    continue;
                }
                last = Some(i);
                u -= (lp - m).exp() / z;
                if u <= 0.0 {
                    return i;
                }
            }
            last.expect("non-empty valid set")
        }
    }
}

/// The three-headed predictor network.
#[derive(Debug)]
pub struct SchedulingPredictor {
    cfg: PredictorConfig,
    root_head: Mlp,
    degree_head: Mlp,
    threads_head: Mlp,
}

impl SchedulingPredictor {
    /// Registers the predictor's parameters under `"{prefix}.*"`.
    /// `node_dim`/`edge_dim`/`pqe_dim`/`aqe_dim`/`qf_dim` must match the
    /// encoder's output dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        seed: u64,
        prefix: &str,
        cfg: PredictorConfig,
        node_dim: usize,
        edge_dim: usize,
        pqe_dim: usize,
        aqe_dim: usize,
        qf_dim: usize,
    ) -> Self {
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let h = cfg.hidden;
        // Execution Roots Predictor: NE ‖ EE ‖ PQE → score.
        let root_head = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.root"),
            &[node_dim + edge_dim + pqe_dim, h, h, 1],
            Activation::LeakyRelu,
            Activation::None,
        );
        // Pipeline Degree Predictor: NE ‖ EE ‖ PQE ‖ EDFagg → degree logits.
        let degree_head = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.degree"),
            &[node_dim + edge_dim + pqe_dim + 2, h, h, cfg.max_degree],
            Activation::LeakyRelu,
            Activation::None,
        );
        // Parallelism Degree Predictor: AQE ‖ PQE ‖ QF → thread logits.
        let threads_head = Mlp::new(
            store,
            &mut rng,
            &format!("{prefix}.threads"),
            &[aqe_dim + pqe_dim + qf_dim, h, h, cfg.max_threads],
            Activation::LeakyRelu,
            Activation::None,
        );
        Self { cfg, root_head, degree_head, threads_head }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Aggregated edge embedding incident to `op` (mean of EE vectors),
    /// or zeros when the operator has no edges.
    fn edge_agg_on<B: Backend>(
        b: &mut B,
        enc: &QueryEncoding<B::Id>,
        endpoints: &[(usize, usize)],
        op: usize,
        edge_dim: usize,
    ) -> B::Id {
        let mut incident = b.take_ids();
        for (ei, (c, p)) in endpoints.iter().enumerate() {
            if *c == op || *p == op {
                incident.push(enc.edge_emb[ei]);
            }
        }
        let out = if incident.is_empty() {
            b.input_with(edge_dim, |_| {})
        } else {
            let s = b.sum_vec(&incident);
            b.scale(s, 1.0 / incident.len() as f32)
        };
        b.recycle_ids(incident);
        out
    }

    /// Mean raw EDF of edges incident to `op` (the extra input of the
    /// pipeline head, Figure 7).
    fn edf_agg_on<B: Backend>(b: &mut B, qs: &QuerySnapshot, op: usize) -> B::Id {
        b.input_with(2, |mean| {
            let mut n = 0usize;
            for ((c, p), f) in qs.edge_endpoints().iter().zip(qs.edf()) {
                if *c == op || *p == op {
                    mean[0] += f[0];
                    mean[1] += f[1];
                    n += 1;
                }
            }
            if n > 0 {
                mean[0] /= n as f32;
                mean[1] /= n as f32;
            }
        })
    }

    /// Builds the per-candidate root-head and pipeline-head inputs for
    /// one event's candidate list, appending to `root_inputs` /
    /// `pipe_inputs` (not cleared — the cross-event batch path
    /// accumulates several events' rows into one flat table).
    fn build_head_inputs_on<B: Backend>(
        b: &mut B,
        snap: &SystemSnapshot,
        enc_queries: &[QueryEncoding<B::Id>],
        cands: &[(usize, usize)],
        root_inputs: &mut Vec<B::Id>,
        pipe_inputs: &mut Vec<B::Id>,
    ) {
        let edge_dim = if snap.queries.iter().all(|q| q.edf().is_empty()) {
            // Degenerate single-op plans: derive from encoder width.
            enc_queries
                .first()
                .and_then(|qe| qe.edge_emb.first())
                .map(|&e| b.value(e).len())
                .unwrap_or(8)
        } else {
            enc_queries
                .iter()
                .find_map(|qe| qe.edge_emb.first().map(|&e| b.value(e).len()))
                .unwrap_or(8)
        };
        for &(qi, si) in cands.iter() {
            let qs = &snap.queries[qi];
            let qe = &enc_queries[qi];
            let op = qs.schedulable[si];
            let ee = Self::edge_agg_on(b, qe, qs.edge_endpoints(), op, edge_dim);
            root_inputs.push(b.concat(&[qe.node_emb[op], ee, qe.pqe]));
            let edf = Self::edf_agg_on(b, qs, op);
            pipe_inputs.push(b.concat(&[qe.node_emb[op], ee, qe.pqe, edf]));
        }
    }

    /// One event's masked sequential-pick loop in
    /// [`decide_batch_on`](Self::decide_batch_on): given the precomputed
    /// candidate score vector for the event, repeatedly picks an
    /// execution root, a pipeline degree and a thread grant until the
    /// pick budget, the free pool or the candidate set is exhausted.
    /// `cands`/`pipe_inputs` are the event-local candidate slice; pushed
    /// [`PickTrace::cand_idx`] values index into that slice.
    #[allow(clippy::too_many_arguments)]
    fn run_picks_on<B: Backend>(
        &self,
        b: &mut B,
        snap: &SystemSnapshot,
        enc_queries: &[QueryEncoding<B::Id>],
        aqe: B::Id,
        cand_scores: B::Id,
        cands: &[(usize, usize)],
        pipe_inputs: &[B::Id],
        available: &mut Vec<bool>,
        mode: DecisionMode,
        mut rng: Option<&mut StdRng>,
        forced: Option<&[PickTrace]>,
        max_iters: usize,
        logprob_terms: &mut Vec<B::Id>,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<PickTrace>,
    ) {
        available.clear();
        available.resize(cands.len(), true);
        let mut free = snap.free_threads;
        for it in 0..max_iters {
            if free == 0 {
                break;
            }
            if !available.iter().any(|&a| a) {
                break;
            }

            // --- Execution root (softmax over available candidates).
            let mask_node = b.input_with(cands.len(), |buf| {
                for (m, &a) in buf.iter_mut().zip(available.iter()) {
                    *m = if a { 0.0 } else { -1e9 };
                }
            });
            let masked = b.add(cand_scores, mask_node);
            let root_lsm = b.log_softmax(masked);
            let forced_pick = forced.map(|f| f[it]);
            let cand_idx = choose_on(
                b,
                root_lsm,
                |i| available[i],
                cands.len(),
                mode,
                rng.as_deref_mut(),
                forced_pick.map(|p| p.cand_idx),
            );
            logprob_terms.push(b.gather(root_lsm, cand_idx));

            let (qi, si) = cands[cand_idx];
            let qs = &snap.queries[qi];
            let op = qs.schedulable[si];

            // --- Pipeline degree.
            let max_deg = qs.max_degree[si].min(self.cfg.max_degree).max(1);
            let degree = if self.cfg.ablate_pipelining {
                1
            } else {
                let logits = b.mlp(&self.degree_head, pipe_inputs[cand_idx]);
                let dmask_node = b.input_with(self.cfg.max_degree, |buf| {
                    for (d, m) in buf.iter_mut().enumerate() {
                        *m = if d < max_deg { 0.0 } else { -1e9 };
                    }
                });
                let dmasked = b.add(logits, dmask_node);
                let dlsm = b.log_softmax(dmasked);
                let didx = choose_on(
                    b,
                    dlsm,
                    |i| i < max_deg,
                    self.cfg.max_degree,
                    mode,
                    rng.as_deref_mut(),
                    forced_pick.map(|p| p.degree - 1),
                );
                logprob_terms.push(b.gather(dlsm, didx));
                didx + 1
            };

            // --- Parallelism degree (threads for this query).
            let max_thr = free.min(self.cfg.max_threads).max(1);
            let qf = b.input(&qs.qf);
            let tin = b.concat(&[aqe, enc_queries[qi].pqe, qf]);
            let tlogits = b.mlp(&self.threads_head, tin);
            let tmask_node = b.input_with(self.cfg.max_threads, |buf| {
                for (t, m) in buf.iter_mut().enumerate() {
                    *m = if t < max_thr { 0.0 } else { -1e9 };
                }
            });
            let tmasked = b.add(tlogits, tmask_node);
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
            logprob_terms.push(b.gather(tlsm, tidx));
            let threads = tidx + 1;

            decisions.push(SchedDecision {
                query: qs.qid,
                root: OpId(op),
                pipeline_degree: degree,
                threads,
            });
            picks.push(PickTrace { cand_idx, degree, threads });
            free -= threads;
            // The chosen operator can't root another pipeline this event.
            available[cand_idx] = false;
        }
    }

    /// The decision pass (Section 5.3) on any [`Backend`], for one or
    /// more independent scheduling events. Live inference and the tape
    /// oracle pass one event; the training replay passes a whole
    /// rollout.
    ///
    /// Event `e` sees its own snapshot `snaps.get(e)`, per-query
    /// encodings `queries(e)` and AQE `aqes[e]`. All events' candidate
    /// root scores are produced by a single
    /// [`Backend::mlp_scores_batched`] call — one fused GEMM per layer
    /// over every event's candidate matrix — after which each event's
    /// masked pick loop runs, consuming `rng` in event order, so results
    /// are bit-identical to one call per event in the same order.
    ///
    /// Without `forced`, choices follow `mode` and each event admits at
    /// most `max_picks_per_event` pipelines. With `forced` (training
    /// replay), event `e` re-takes exactly the
    /// pick sequence `forced(e)` — `max_picks_per_event` and the rng are
    /// not consulted — and its log-probability is rebuilt on the tape.
    /// This is how the REINFORCE trainer replays a whole rollout's
    /// sampled decisions as *one* recorded graph, so the backward pass
    /// runs the per-layer gradient GEMMs batched across all events.
    ///
    /// Decisions and pick traces accumulate *flat* in event order
    /// (cleared first); `per_event[e]` records how many of them belong
    /// to event `e` plus the handle of that event's total
    /// log-probability.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_batch_on<'p, 'q, B: Backend, S: SnapshotList + ?Sized>(
        &self,
        b: &mut B,
        snaps: &S,
        queries: &dyn Fn(usize) -> &'q [QueryEncoding<B::Id>],
        aqes: &[B::Id],
        mode: DecisionMode,
        mut rng: Option<&mut StdRng>,
        max_picks_per_event: usize,
        forced: Option<&dyn Fn(usize) -> &'p [PickTrace]>,
        scratch: &mut BatchPredictScratch<B::Id>,
        decisions: &mut Vec<SchedDecision>,
        picks: &mut Vec<PickTrace>,
        per_event: &mut Vec<EventOutcome<B::Id>>,
    ) {
        assert_eq!(snaps.len(), aqes.len(), "one AQE handle per event");
        decisions.clear();
        picks.clear();
        per_event.clear();
        let BatchPredictScratch {
            cands,
            cand_offsets,
            seg_lens,
            seg_scores,
            available,
            root_inputs,
            pipe_inputs,
            logprob_terms,
        } = scratch;
        cands.clear();
        cand_offsets.clear();
        seg_lens.clear();
        root_inputs.clear();
        pipe_inputs.clear();

        // Pack every event's candidate table and head inputs into one
        // flat row list; `cand_offsets` delimits the per-event slices.
        cand_offsets.push(0);
        for e in 0..snaps.len() {
            let snap = snaps.get(e);
            let start = cands.len();
            snap.candidates_into_append(cands);
            Self::build_head_inputs_on(
                b,
                snap,
                queries(e),
                &cands[start..],
                root_inputs,
                pipe_inputs,
            );
            if cands.len() > start {
                seg_lens.push(cands.len() - start);
            }
            cand_offsets.push(cands.len());
        }

        // One fused GEMM per layer across every non-empty event.
        seg_scores.clear();
        if !seg_lens.is_empty() {
            b.mlp_scores_batched(&self.root_head, root_inputs, seg_lens, seg_scores);
        }

        // Per-event masked pick loops, rng consumed in event order.
        let mut seg = 0usize;
        for e in 0..snaps.len() {
            let snap = snaps.get(e);
            let (lo, hi) = (cand_offsets[e], cand_offsets[e + 1]);
            logprob_terms.clear();
            let before = decisions.len();
            let forced_event = forced.map(|f| f(e));
            let max_iters =
                forced_event.map_or(max_picks_per_event, <[PickTrace]>::len);
            if hi > lo {
                let cand_scores = seg_scores[seg];
                seg += 1;
                self.run_picks_on(
                    b,
                    snap,
                    queries(e),
                    aqes[e],
                    cand_scores,
                    &cands[lo..hi],
                    &pipe_inputs[lo..hi],
                    available,
                    mode,
                    rng.as_deref_mut(),
                    forced_event,
                    max_iters,
                    logprob_terms,
                    decisions,
                    picks,
                );
            }
            let logprob = if logprob_terms.is_empty() {
                b.scalar(0.0)
            } else {
                let s = b.concat(logprob_terms);
                b.sum_elems(s)
            };
            per_event.push(EventOutcome { n_decisions: decisions.len() - before, logprob });
        }
    }

    /// Runs the decision pass for one scheduling event on the autodiff
    /// tape (the oracle instantiation of
    /// [`decide_batch_on`](Self::decide_batch_on)). With `forced` picks
    /// the same choices are re-taken; otherwise choices follow `mode`
    /// under the configured per-event pick budget. Returns the
    /// decisions, the pick traces, and the total log-probability node.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        snap: &SystemSnapshot,
        enc: &SystemEncoding,
        mode: DecisionMode,
        rng: Option<&mut StdRng>,
        forced: Option<&[PickTrace]>,
    ) -> (Vec<SchedDecision>, Vec<PickTrace>, NodeId) {
        let (mut decisions, mut picks, mut outcome) = (Vec::new(), Vec::new(), Vec::new());
        // The only event's forced trace, in the driver's per-event form.
        let replay = |_: usize| forced.unwrap_or_default();
        self.decide_batch_on(
            &mut TapeBackend::new(g, store),
            std::slice::from_ref(&snap),
            &|_| &enc.queries,
            &[enc.aqe],
            mode,
            rng,
            self.cfg.max_picks_per_event,
            forced.map(|_| &replay as _),
            &mut BatchPredictScratch::new(),
            &mut decisions,
            &mut picks,
            &mut outcome,
        );
        (decisions, picks, outcome[0].logprob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, EncoderKind, QueryEncoder};
    use crate::features::{snapshot, FeatureConfig};
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::scheduler::{QueryId, QueryRuntime, SchedContext};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (ParamStore, QueryEncoder, SchedulingPredictor, SystemSnapshot) {
        let mut store = ParamStore::new();
        let ecfg = EncoderConfig {
            hidden: 16,
            edge_hidden: 8,
            pqe_dim: 8,
            aqe_dim: 8,
            kind: EncoderKind::TcnGat,
            ..Default::default()
        };
        let qf_dim = ecfg.feat.qf_dim();
        let enc = QueryEncoder::new(&mut store, 3, "enc", ecfg);
        let pcfg = PredictorConfig { max_degree: 4, max_threads: 16, ..Default::default() };
        let pred = SchedulingPredictor::new(&mut store, 4, "pred", pcfg, 16, 8, 8, 8, qf_dim);

        let queries: Vec<QueryRuntime> = (0..2)
            .map(|i| {
                let mut b = PlanBuilder::new(format!("q{i}"));
                let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 100.0, 4, 0.01, 1e5);
                let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 50.0, 4, 0.01, 1e5);
                let agg = b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 10.0, 4, 0.01, 1e5);
                let fin = b.add_op(OpKind::FinalizeAggregate, OpSpec::Synthetic, vec![0], vec![1], 10.0, 1, 0.01, 1e4);
                b.connect(scan, sel, true);
                b.connect(sel, agg, true);
                b.connect(agg, fin, false);
                QueryRuntime::new(QueryId(i as u64), Arc::new(b.finish(fin)), 0.0, 8)
            })
            .collect();
        let free = [0usize, 1, 2, 3, 4, 5];
        let hot = lsched_engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 8,
            free_threads: 6,
            free_thread_ids: &free,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let snap = snapshot(&FeatureConfig::default(), &ctx);
        (store, enc, pred, snap)
    }

    #[test]
    fn greedy_decisions_are_valid() {
        let (store, enc, pred, snap) = setup();
        let mut g = Graph::new();
        let sys = enc.encode_system(&mut g, &store, &snap);
        let (decisions, picks, lp) =
            pred.decide(&mut g, &store, &snap, &sys, DecisionMode::Greedy, None, None);
        assert!(!decisions.is_empty());
        assert_eq!(decisions.len(), picks.len());
        let total_threads: usize = decisions.iter().map(|d| d.threads).sum();
        assert!(total_threads <= 6);
        for d in &decisions {
            assert!(d.pipeline_degree >= 1 && d.pipeline_degree <= 4);
            assert!(d.threads >= 1);
        }
        assert!(g.value(lp).item() <= 0.0, "log-prob must be ≤ 0");
    }

    #[test]
    fn sampling_is_reproducible_with_seed() {
        let (store, enc, pred, snap) = setup();
        let run = |seed: u64| {
            let mut g = Graph::new();
            let sys = enc.encode_system(&mut g, &store, &snap);
            let mut rng = StdRng::seed_from_u64(seed);
            let (d, _, _) = pred.decide(
                &mut g,
                &store,
                &snap,
                &sys,
                DecisionMode::Sample,
                Some(&mut rng),
                None,
            );
            d
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn replay_reproduces_logprob() {
        let (mut store, enc, pred, snap) = setup();
        let (picks, lp_act) = {
            let mut g = Graph::new();
            let sys = enc.encode_system(&mut g, &store, &snap);
            let mut rng = StdRng::seed_from_u64(9);
            let (_, picks, lp) = pred.decide(
                &mut g,
                &store,
                &snap,
                &sys,
                DecisionMode::Sample,
                Some(&mut rng),
                None,
            );
            (picks, g.value(lp).item())
        };
        // Replay with forced picks must land on the same log-prob, and
        // gradients must flow.
        let mut g = Graph::new();
        let sys = enc.encode_system(&mut g, &store, &snap);
        let (decisions, picks2, lp) = pred.decide(
            &mut g,
            &store,
            &snap,
            &sys,
            DecisionMode::Greedy,
            None,
            Some(&picks),
        );
        assert_eq!(picks, picks2);
        assert!((g.value(lp).item() - lp_act).abs() < 1e-5);
        assert!(!decisions.is_empty());
        let loss = g.scale(lp, -1.0);
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn ablated_pipelining_forces_degree_one() {
        let (mut store, _, _, snap) = setup();
        // Rebuild predictor with ablation on (fresh params to avoid
        // name clashes).
        let pcfg = PredictorConfig {
            max_degree: 4,
            max_threads: 16,
            ablate_pipelining: true,
            ..Default::default()
        };
        let ecfg = EncoderConfig {
            hidden: 16,
            edge_hidden: 8,
            pqe_dim: 8,
            aqe_dim: 8,
            ..Default::default()
        };
        let qf_dim = ecfg.feat.qf_dim();
        let enc = QueryEncoder::new(&mut store, 13, "enc2", ecfg);
        let pred =
            SchedulingPredictor::new(&mut store, 14, "pred2", pcfg, 16, 8, 8, 8, qf_dim);
        let mut g = Graph::new();
        let sys = enc.encode_system(&mut g, &store, &snap);
        let (decisions, _, _) =
            pred.decide(&mut g, &store, &snap, &sys, DecisionMode::Greedy, None, None);
        assert!(decisions.iter().all(|d| d.pipeline_degree == 1));
    }

    #[test]
    fn thread_mask_respects_free_threads() {
        let (store, enc, pred, mut snap) = setup();
        snap.free_threads = 2;
        let mut g = Graph::new();
        let sys = enc.encode_system(&mut g, &store, &snap);
        let (decisions, _, _) =
            pred.decide(&mut g, &store, &snap, &sys, DecisionMode::Greedy, None, None);
        let total: usize = decisions.iter().map(|d| d.threads).sum();
        assert!(total <= 2);
    }
}
