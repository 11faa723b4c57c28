//! Tape vs tape-free equivalence: the same architecture evaluated on the
//! autodiff tape ([`TapeBackend`]) and on the inference arena
//! ([`InferCtx`]) must produce the same forward values. The two
//! executors share their accumulation kernels, so we hold them to *bit
//! identity* — strictly stronger than the 1e-5 tolerance the acceptance
//! criteria ask for — across random shapes, seeds and inputs, and we
//! check the full scheduler decision pass end to end.

use lsched::nn::{
    Activation, Backend, FilterMode, Graph, InferCtx, Mlp, PairAttention, ParamStore, RefTape,
    RefTapeBackend, TapeBackend, TreeConvConfig, TreeConvLayer, TreeConvStack, TreeSpec,
};
use lsched::prelude::*;
use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Values no plain random draw produces, each with its own rounding or
/// propagation rule.
const SPECIALS: [f32; 8] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE / 4.0];

/// Replaces each element of `v` by a random [`SPECIALS`] value with
/// probability `p`.
fn sprinkle(rng: &mut StdRng, v: &mut [f32], p: f64) {
    for x in v {
        if rng.gen_range(0.0f64..1.0) < p {
            *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }
}

/// A random binary tree over `n` nodes: each node after the first
/// attaches to a random earlier node with a free slot, so leaves, unary
/// and binary nodes all occur. Returns the tree and its edge count.
fn rand_tree(rng: &mut StdRng, n: usize) -> (TreeSpec, usize) {
    let mut tree = TreeSpec::with_nodes(n);
    let mut n_edges = 0usize;
    for child in 1..n {
        let with_free: Vec<usize> =
            (0..child).filter(|&p| tree.children[p].iter().any(|s| s.is_none())).collect();
        if with_free.is_empty() {
            continue;
        }
        let parent = with_free[rng.gen_range(0..with_free.len())];
        tree.attach(parent, child, n_edges);
        n_edges += 1;
    }
    (tree, n_edges)
}

/// The bits of `v`, every NaN as one value: Rust leaves the sign and
/// payload of a NaN result unspecified (where two NaNs meet, the one that
/// survives depends on operand order in codegen), so only "some NaN" is
/// comparable across two code paths.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// MLP forward passes match bitwise for random widths/depths/inputs.
    #[test]
    fn mlp_matches_tape(
        in_dim in 1usize..10,
        hidden in 1usize..12,
        out_dim in 1usize..6,
        depth in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![in_dim];
        dims.extend(std::iter::repeat_n(hidden, depth));
        dims.push(out_dim);
        let mlp = Mlp::new(&mut store, &mut rng, "m", &dims, Activation::LeakyRelu, Activation::Tanh);
        let x = rand_vec(&mut rng, in_dim);

        let tape_out = {
            let mut g = Graph::new();
            let mut b = TapeBackend::new(&mut g, &store);
            let xin = b.input(&x);
            let y = b.mlp(&mlp, xin);
            b.value(y).to_vec()
        };
        let infer_out = {
            let mut ctx = InferCtx::new();
            let mut b = ctx.session(&store);
            let xin = b.input(&x);
            let y = b.mlp(&mlp, xin);
            b.value(y).to_vec()
        };
        prop_assert_eq!(&tape_out, &infer_out, "fused inference layer diverged from tape");
        for (a, c) in tape_out.iter().zip(infer_out.iter()) {
            prop_assert!((a - c).abs() <= 1e-5);
        }
    }

    /// Batched candidate scoring (one GEMM) matches per-candidate tape
    /// scoring bitwise.
    #[test]
    fn mlp_scores_match_tape(
        in_dim in 1usize..8,
        hidden in 1usize..10,
        n_cands in 1usize..9,
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let head = Mlp::new(&mut store, &mut rng, "h", &[in_dim, hidden, 1],
                            Activation::LeakyRelu, Activation::None);
        let inputs: Vec<Vec<f32>> = (0..n_cands).map(|_| rand_vec(&mut rng, in_dim)).collect();

        let tape_out = {
            let mut g = Graph::new();
            let mut b = TapeBackend::new(&mut g, &store);
            let ids: Vec<_> = inputs.iter().map(|v| b.input(v)).collect();
            let s = b.mlp_scores(&head, &ids);
            b.value(s).to_vec()
        };
        let infer_out = {
            let mut ctx = InferCtx::new();
            let mut b = ctx.session(&store);
            let ids: Vec<_> = inputs.iter().map(|v| b.input(v)).collect();
            let s = b.mlp_scores(&head, &ids);
            b.value(s).to_vec()
        };
        prop_assert_eq!(&tape_out, &infer_out, "batched GEMM scoring diverged from tape");
    }

    /// Pair attention + softmax normalization match bitwise.
    #[test]
    fn gat_matches_tape(dim in 1usize..10, n_scores in 2usize..6, seed in 0u64..1000) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let att = PairAttention::new(&mut store, &mut rng, "att", dim);
        let anchor = rand_vec(&mut rng, dim);
        let others: Vec<Vec<f32>> = (0..n_scores).map(|_| rand_vec(&mut rng, dim)).collect();

        let tape_out = {
            let mut g = Graph::new();
            let mut b = TapeBackend::new(&mut g, &store);
            let a = b.input(&anchor);
            let scores: Vec<_> = others.iter().map(|o| {
                let oid = b.input(o);
                att.score_on(&mut b, a, oid)
            }).collect();
            let mut z = Vec::new();
            lsched::nn::gat::normalize_scores_on(&mut b, &scores, &mut z);
            z.iter().map(|&s| b.value(s)[0]).collect::<Vec<_>>()
        };
        let infer_out = {
            let mut ctx = InferCtx::new();
            let mut b = ctx.session(&store);
            let a = b.input(&anchor);
            let scores: Vec<_> = others.iter().map(|o| {
                let oid = b.input(o);
                att.score_on(&mut b, a, oid)
            }).collect();
            let mut z = Vec::new();
            lsched::nn::gat::normalize_scores_on(&mut b, &scores, &mut z);
            z.iter().map(|&s| b.value(s)[0]).collect::<Vec<_>>()
        };
        prop_assert_eq!(&tape_out, &infer_out, "attention scores diverged from tape");
    }

    /// The fused filter kernel of the inference backend equals the
    /// decomposed op sequence the reference tape records, bit for bit
    /// (every NaN as one value, see [`bits`]), on
    /// random trees (leaves use both zero pads), in both filter modes,
    /// with and without attention and bias, under every activation, and
    /// with NaN, ±inf, ±0.0 and subnormals among weights and inputs.
    #[test]
    fn fused_filter_matches_decomposed_tape(
        n_nodes in 1usize..9,
        dense in 0u8..2,
        in_dim in 1usize..7,
        out_dim in 1usize..7,
        edge_dim in 1usize..5,
        gat in 0u8..2,
        bias in 0u8..2,
        act in 0usize..4,
        specials in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let special_p = [0.0, 0.05, 0.3][specials];
        let activation =
            [Activation::None, Activation::Relu, Activation::LeakyRelu, Activation::Tanh][act];
        let cfg = if dense == 1 {
            TreeConvConfig { in_dim, out_dim, edge_dim, mode: FilterMode::Dense, activation,
                             use_bias: bias == 1, use_gat: gat == 1 }
        } else {
            TreeConvConfig { in_dim, out_dim: in_dim, edge_dim: in_dim, mode: FilterMode::Diagonal,
                             activation, use_bias: bias == 1, use_gat: gat == 1 }
        };
        let (in_dim, edge_dim) = (cfg.in_dim, cfg.edge_dim);
        let layer = TreeConvLayer::new(&mut store, &mut rng, "f", cfg);
        let ids: Vec<_> = store.iter_ids().map(|(id, name)| (id, name.ends_with("bias"))).collect();
        for (id, is_bias) in ids {
            let mut w = store.value(id).data().to_vec();
            // Nonzero biases, so a dropped bias add shows.
            if is_bias {
                w.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0));
            }
            sprinkle(&mut rng, &mut w, special_p);
            store.value_mut(id).data_mut().copy_from_slice(&w);
        }
        let (tree, n_edges) = rand_tree(&mut rng, n_nodes);
        let mut node_feats: Vec<Vec<f32>> = (0..n_nodes).map(|_| rand_vec(&mut rng, in_dim)).collect();
        let mut edge_feats: Vec<Vec<f32>> = (0..n_edges).map(|_| rand_vec(&mut rng, edge_dim)).collect();
        for v in node_feats.iter_mut().chain(edge_feats.iter_mut()) {
            sprinkle(&mut rng, v, special_p);
        }

        fn run<B: Backend>(b: &mut B, layer: &TreeConvLayer, tree: &TreeSpec,
                           nodes: &[Vec<f32>], edges: &[Vec<f32>]) -> Vec<u32> {
            let nodes: Vec<_> = nodes.iter().map(|v| b.input(v)).collect();
            let edges: Vec<_> = edges.iter().map(|v| b.input(v)).collect();
            let mut out = Vec::new();
            layer.forward_on(b, tree, &nodes, &edges, &mut out);
            out.iter().flat_map(|&id| bits(b.value(id))).collect()
        }
        let mut rt = RefTape::new();
        let tape = run(&mut RefTapeBackend::new(&mut rt, &store), &layer, &tree, &node_feats, &edge_feats);
        let mut ctx = InferCtx::new();
        let fused = run(&mut ctx.session(&store), &layer, &tree, &node_feats, &edge_feats);
        prop_assert_eq!(tape, fused, "fused filter diverged from the decomposed tape");
    }

    /// Edge-aware tree convolution (with and without GAT) matches
    /// bitwise on random binary trees.
    #[test]
    fn tree_conv_matches_tape(
        n_nodes in 1usize..8,
        in_dim in 1usize..8,
        hidden in 1usize..8,
        edge_dim in 1usize..5,
        depth in 1usize..3,
        gat in 0u8..2,
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stack = TreeConvStack::new(&mut store, &mut rng, "tc", in_dim, hidden,
                                       edge_dim, depth, gat == 1);
        // Random binary tree: attach each node to a random earlier node
        // with a free slot.
        let mut tree = TreeSpec::with_nodes(n_nodes);
        let mut n_edges = 0usize;
        for child in 1..n_nodes {
            let with_free: Vec<usize> = (0..child)
                .filter(|&p| tree.children[p].iter().any(|s| s.is_none()))
                .collect();
            if with_free.is_empty() {
                continue;
            }
            let parent = with_free[rng.gen_range(0..with_free.len())];
            tree.attach(parent, child, n_edges);
            n_edges += 1;
        }
        let node_feats: Vec<Vec<f32>> = (0..n_nodes).map(|_| rand_vec(&mut rng, in_dim)).collect();
        let edge_feats: Vec<Vec<f32>> = (0..n_edges).map(|_| rand_vec(&mut rng, edge_dim)).collect();

        let tape_out = {
            let mut g = Graph::new();
            let mut b = TapeBackend::new(&mut g, &store);
            let nodes: Vec<_> = node_feats.iter().map(|v| b.input(v)).collect();
            let edges: Vec<_> = edge_feats.iter().map(|v| b.input(v)).collect();
            let mut out = Vec::new();
            stack.forward_on(&mut b, &tree, &nodes, &edges, &mut out);
            out.iter().map(|&id| b.value(id).to_vec()).collect::<Vec<_>>()
        };
        let infer_out = {
            let mut ctx = InferCtx::new();
            let mut b = ctx.session(&store);
            let nodes: Vec<_> = node_feats.iter().map(|v| b.input(v)).collect();
            let edges: Vec<_> = edge_feats.iter().map(|v| b.input(v)).collect();
            let mut out = Vec::new();
            stack.forward_on(&mut b, &tree, &nodes, &edges, &mut out);
            out.iter().map(|&id| b.value(id).to_vec()).collect::<Vec<_>>()
        };
        prop_assert_eq!(&tape_out, &infer_out, "tree convolution diverged from tape");
    }

    /// The full scheduler decision pass — encoder, batched root scoring,
    /// degree and thread heads, greedy AND sampled picks — is
    /// bit-identical between the tape and the tape-free path.
    #[test]
    fn full_decision_pass_matches_tape(
        n_queries in 1usize..4,
        free_threads in 1usize..8,
        model_seed in 0u64..100,
        rng_seed in 0u64..1000,
        sampled in 0u8..2,
    ) {
        use lsched::core::agent::InferScratch;
        use lsched::engine::plan::{OpKind, OpSpec, PlanBuilder};
        use lsched::engine::scheduler::QueryRuntime;
        use lsched::core::features::snapshot;
        use lsched::core::encoder::EncoderConfig;
        use lsched::core::predictor::PredictorConfig;

        let cfg = LSchedConfig {
            encoder: EncoderConfig {
                hidden: 12, edge_hidden: 4, pqe_dim: 8, aqe_dim: 8, conv_layers: 2,
                ..Default::default()
            },
            predictor: PredictorConfig { max_degree: 4, max_threads: 16, ..Default::default() },
        };
        let model = LSchedModel::new(cfg, model_seed);

        let queries: Vec<QueryRuntime> = (0..n_queries)
            .map(|i| {
                let mut b = PlanBuilder::new(format!("q{i}"));
                let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 100.0, 4, 0.01, 1e5);
                let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 50.0, 4, 0.01, 1e5);
                let agg = b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 10.0, 4, 0.01, 1e5);
                b.connect(scan, sel, true);
                b.connect(sel, agg, false);
                QueryRuntime::new(QueryId(i as u64), std::sync::Arc::new(b.finish(agg)), 0.0, 8)
            })
            .collect();
        let free_ids: Vec<usize> = (0..free_threads).collect();
        let hot = lsched::engine::scheduler::QueryHot::from_queries(&queries);
        let ctx = SchedContext {
            time: 0.0,
            total_threads: 8,
            free_threads,
            free_thread_ids: &free_ids,
            queries: &queries,
            hot: &hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        };
        let snap = snapshot(model.feature_config(), &ctx);

        let mode = if sampled == 1 { DecisionMode::Sample } else { DecisionMode::Greedy };
        let mut rng_tape = StdRng::seed_from_u64(rng_seed);
        let mut rng_infer = StdRng::seed_from_u64(rng_seed);
        let tape_rng = (mode == DecisionMode::Sample).then_some(&mut rng_tape);
        let infer_rng = (mode == DecisionMode::Sample).then_some(&mut rng_infer);

        let (g, tape_decisions, tape_picks, lp) = model.decide_snapshot(&snap, mode, tape_rng, None);
        let tape_lp = g.value(lp).data()[0];

        let mut scratch = InferScratch::new();
        let mut infer_decisions = Vec::new();
        let mut infer_picks = Vec::new();
        let infer_lp = model.decide_infer(
            &snap, mode, infer_rng, &mut scratch, &mut infer_decisions, &mut infer_picks,
        );

        prop_assert_eq!(&tape_decisions, &infer_decisions, "decisions diverged");
        prop_assert_eq!(&tape_picks, &infer_picks, "pick traces diverged");
        prop_assert_eq!(tape_lp.to_bits(), infer_lp.to_bits(), "log-prob diverged");
    }

    /// Cross-event fused scoring: packing random segment layouts into
    /// one `mlp_scores_batched` call yields per-event score vectors
    /// bit-identical to scoring each segment alone with `mlp_scores`,
    /// on both the tape and the inference backend.
    #[test]
    fn batched_segment_scores_match_sequential(
        in_dim in 1usize..8,
        hidden in 1usize..10,
        seg_lens in prop::collection::vec(1usize..7, 1..6),
        seed in 0u64..1000,
    ) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let head = Mlp::new(&mut store, &mut rng, "h", &[in_dim, hidden, 1],
                            Activation::LeakyRelu, Activation::None);
        let total: usize = seg_lens.iter().sum();
        let inputs: Vec<Vec<f32>> = (0..total).map(|_| rand_vec(&mut rng, in_dim)).collect();

        let mut ctx = InferCtx::new();
        let (batched, sequential) = {
            let mut b = ctx.session(&store);
            let ids: Vec<_> = inputs.iter().map(|v| b.input(v)).collect();
            let mut seg_scores = Vec::new();
            b.mlp_scores_batched(&head, &ids, &seg_lens, &mut seg_scores);
            let batched: Vec<Vec<f32>> =
                seg_scores.iter().map(|&s| b.value(s).to_vec()).collect();
            let mut sequential = Vec::new();
            let mut start = 0;
            for &len in &seg_lens {
                let s = b.mlp_scores(&head, &ids[start..start + len]);
                sequential.push(b.value(s).to_vec());
                start += len;
            }
            (batched, sequential)
        };
        prop_assert_eq!(&batched, &sequential, "fused per-event scores diverged");

        let tape: Vec<Vec<f32>> = {
            let mut g = Graph::new();
            let mut b = TapeBackend::new(&mut g, &store);
            let ids: Vec<_> = inputs.iter().map(|v| b.input(v)).collect();
            let mut seg_scores = Vec::new();
            b.mlp_scores_batched(&head, &ids, &seg_lens, &mut seg_scores);
            seg_scores.iter().map(|&s| b.value(s).to_vec()).collect()
        };
        prop_assert_eq!(&batched, &tape, "batched scores diverged from tape");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The cross-event batched decision pass (`decide_infer_batch`) over
    /// random event counts × per-event candidate counts is bit-identical
    /// to running the sequential per-event path (`decide_infer`) on each
    /// snapshot in event order with the same rng stream: same decisions,
    /// same greedy/sampled picks, same per-event log-prob bits.
    #[test]
    fn cross_event_batch_matches_sequential(
        event_sizes in prop::collection::vec(0usize..4, 1..5),
        free_threads in 1usize..8,
        model_seed in 0u64..100,
        rng_seed in 0u64..1000,
        sampled in 0u8..2,
    ) {
        use lsched::core::agent::{BatchInferScratch, InferScratch};
        use lsched::engine::plan::{OpKind, OpSpec, PlanBuilder};
        use lsched::engine::scheduler::QueryRuntime;
        use lsched::core::features::{snapshot, SystemSnapshot};
        use lsched::core::encoder::EncoderConfig;
        use lsched::core::predictor::PredictorConfig;

        let cfg = LSchedConfig {
            encoder: EncoderConfig {
                hidden: 12, edge_hidden: 4, pqe_dim: 8, aqe_dim: 8, conv_layers: 2,
                ..Default::default()
            },
            predictor: PredictorConfig { max_degree: 4, max_threads: 16, ..Default::default() },
        };
        let model = LSchedModel::new(cfg, model_seed);
        let budget = model.cfg.predictor.max_picks_per_event;

        // One independent system state per event; event `e`'s query count
        // is `event_sizes[e]` (zero-query events exercise the
        // empty-segment path).
        let snaps: Vec<SystemSnapshot> = event_sizes
            .iter()
            .enumerate()
            .map(|(e, &nq)| {
                let queries: Vec<QueryRuntime> = (0..nq)
                    .map(|i| {
                        let mut b = PlanBuilder::new(format!("e{e}q{i}"));
                        let scan = b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 100.0 + e as f64, 4, 0.01, 1e5);
                        let sel = b.add_op(OpKind::Select, OpSpec::Synthetic, vec![0], vec![1], 50.0, 4, 0.01, 1e5);
                        let agg = b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 10.0, 4, 0.01, 1e5);
                        b.connect(scan, sel, true);
                        b.connect(sel, agg, false);
                        QueryRuntime::new(QueryId((e * 10 + i) as u64), std::sync::Arc::new(b.finish(agg)), 0.0, 8)
                    })
                    .collect();
                let free_ids: Vec<usize> = (0..free_threads).collect();
                let hot = lsched::engine::scheduler::QueryHot::from_queries(&queries);
                let ctx = SchedContext {
                    time: e as f64 * 0.1,
                    total_threads: 8,
                    free_threads,
                    free_thread_ids: &free_ids,
                    queries: &queries,
                    hot: &hot,
                    in_flight_mem: 0.0,
                    mem_budget: f64::INFINITY,
                };
                snapshot(model.feature_config(), &ctx)
            })
            .collect();
        let snap_refs: Vec<&SystemSnapshot> = snaps.iter().collect();

        let mode = if sampled == 1 { DecisionMode::Sample } else { DecisionMode::Greedy };

        // Sequential reference: per-event decide_infer, one rng stream
        // consumed in event order.
        let mut rng_seq = StdRng::seed_from_u64(rng_seed);
        let mut seq_scratch = InferScratch::new();
        let mut seq_decisions = Vec::new();
        let mut seq_picks = Vec::new();
        let mut seq_per_event = Vec::new();
        for snap in &snaps {
            let rng = (mode == DecisionMode::Sample).then_some(&mut rng_seq);
            let mut d = Vec::new();
            let mut p = Vec::new();
            let lp = model.decide_infer(snap, mode, rng, &mut seq_scratch, &mut d, &mut p);
            seq_per_event.push((d.len(), lp));
            seq_decisions.extend(d);
            seq_picks.extend(p);
        }

        // Batched path: one fused call over all events.
        let mut rng_batch = StdRng::seed_from_u64(rng_seed);
        let rng = (mode == DecisionMode::Sample).then_some(&mut rng_batch);
        let mut batch_scratch = BatchInferScratch::new();
        let mut batch_decisions = Vec::new();
        let mut batch_picks = Vec::new();
        let mut batch_per_event = Vec::new();
        model.decide_infer_batch(
            &snap_refs, mode, rng, budget, &mut batch_scratch,
            &mut batch_decisions, &mut batch_picks, &mut batch_per_event,
        );

        prop_assert_eq!(&seq_decisions, &batch_decisions, "decisions diverged");
        prop_assert_eq!(&seq_picks, &batch_picks, "pick traces diverged");
        prop_assert_eq!(seq_per_event.len(), batch_per_event.len());
        for (e, (s, b)) in seq_per_event.iter().zip(&batch_per_event).enumerate() {
            prop_assert_eq!(s.0, b.0, "decision count diverged at event {}", e);
            prop_assert_eq!(
                s.1.to_bits(), b.1.to_bits(),
                "log-prob bits diverged at event {}", e
            );
        }

        // Steady state: a second identical batch must not grow the arena
        // (zero allocations once warm).
        let cap_before = batch_scratch.arena_capacity();
        let mut rng_batch2 = StdRng::seed_from_u64(rng_seed);
        let rng2 = (mode == DecisionMode::Sample).then_some(&mut rng_batch2);
        model.decide_infer_batch(
            &snap_refs, mode, rng2, budget, &mut batch_scratch,
            &mut batch_decisions, &mut batch_picks, &mut batch_per_event,
        );
        prop_assert_eq!(cap_before, batch_scratch.arena_capacity(), "arena grew on warm call");
    }
}
