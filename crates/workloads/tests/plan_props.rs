//! Property tests: every benchmark query spec must lower to a valid,
//! well-formed physical plan at any reasonable scale factor, with
//! monotone work and consistent feature metadata.

use lsched_engine::plan::{OpId, PhysicalPlan};
use lsched_workloads::spec::{build_plan, MAX_WORK_ORDERS};
use lsched_workloads::{job, ssb, tpch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any TPC-H query at any SF in [0.1, 200] lowers to a valid plan
    /// whose work orders respect the cap and whose estimated work grows
    /// with SF.
    #[test]
    fn tpch_plans_valid_at_any_sf(qi in 0usize..22, sf in 0.1f64..200.0) {
        let ctx = tpch::context();
        let spec = &tpch::query_specs()[qi];
        let plan = build_plan(spec, &ctx, sf);
        prop_assert!(plan.validate().is_ok(), "{} invalid at sf {sf}", spec.name);
        prop_assert!(plan.ops.iter().all(|o| o.num_work_orders >= 1));
        prop_assert!(plan.ops.iter().all(|o| o.num_work_orders <= MAX_WORK_ORDERS));
        prop_assert!(plan.ops.iter().all(|o| o.est_wo_duration > 0.0));
        prop_assert!(plan.ops.iter().all(|o| o.est_wo_memory > 0.0));
        // Larger SF never shrinks total estimated work.
        let bigger = build_plan(spec, &ctx, sf * 2.0);
        prop_assert!(bigger.total_estimated_work() >= plan.total_estimated_work() * 0.99);
    }

    /// SSB specs likewise.
    #[test]
    fn ssb_plans_valid_at_any_sf(qi in 0usize..13, sf in 0.1f64..100.0) {
        let ctx = ssb::context();
        let spec = &ssb::query_specs()[qi];
        let plan = build_plan(spec, &ctx, sf);
        prop_assert!(plan.validate().is_ok(), "{} invalid at sf {sf}", spec.name);
        // Every operator must reach the root (no disconnected islands):
        // topo order covers all ops and the root has no parents.
        prop_assert_eq!(plan.topo_order().len(), plan.num_ops());
        prop_assert!(plan.parents_of(plan.root).is_empty());
    }

    /// JOB queries (no SF) are valid and keep feature metadata within
    /// the benchmark's vocabulary.
    #[test]
    fn job_plans_valid_with_sane_features(qi in 0usize..113) {
        let ctx = job::context();
        let spec = &job::query_specs()[qi];
        let plan = build_plan(spec, &ctx, 1.0);
        prop_assert!(plan.validate().is_ok(), "{} invalid", spec.name);
        for op in &plan.ops {
            for &t in &op.input_tables {
                prop_assert!(t < job::NUM_TABLES, "table index {t} out of range");
            }
            // Scan bitmaps, when present, match the work-order count.
            if !op.block_bitmap.is_empty() {
                prop_assert!(op.block_bitmap.iter().any(|&b| b), "empty scan bitmap");
            }
        }
    }
}

/// The allocating full-edge-scan chain walk the memoized
/// `PhysicalPlan::pipeline_chain` replaced — kept as its oracle.
fn pipeline_chain_oracle(plan: &PhysicalPlan, root: OpId, degree: usize) -> Vec<OpId> {
    let mut chain = vec![root];
    let mut cur = root;
    while chain.len() < degree {
        let ups: Vec<_> =
            plan.edges.iter().filter(|e| e.child == cur && e.non_pipeline_breaking).collect();
        match ups.as_slice() {
            [e] => {
                chain.push(e.parent);
                cur = e.parent;
            }
            _ => break,
        }
    }
    chain
}

/// Critical path recomputed without memoization.
fn critical_path_oracle(plan: &PhysicalPlan) -> f64 {
    let mut best = vec![0.0f64; plan.num_ops()];
    for id in plan.topo_order() {
        let own = plan.op(id).num_work_orders as f64 * plan.op(id).est_wo_duration;
        let child_best =
            plan.children_of(id).into_iter().map(|(_, c)| best[c.0]).fold(0.0f64, f64::max);
        best[id.0] = own + child_best;
    }
    best[plan.root.0]
}

/// Memoized plan statics (chain slices, chain lengths, critical path)
/// equal their from-scratch recomputation on every benchmark plan, for
/// every root and every pipeline degree.
#[test]
fn memoized_plan_statics_match_recomputation() {
    let mut plans = Vec::new();
    for sf in [0.5, 10.0] {
        let ctx = tpch::context();
        plans.extend(tpch::query_specs().iter().map(|s| build_plan(s, &ctx, sf)));
        let ctx = ssb::context();
        plans.extend(ssb::query_specs().iter().map(|s| build_plan(s, &ctx, sf)));
    }
    let ctx = job::context();
    plans.extend(job::query_specs().iter().map(|s| build_plan(s, &ctx, 1.0)));
    for plan in &plans {
        let n = plan.num_ops();
        for i in 0..n {
            let root = OpId(i);
            let full = pipeline_chain_oracle(plan, root, usize::MAX);
            assert_eq!(plan.npb_chain(root), full.as_slice(), "{} op {i}", plan.name);
            assert_eq!(plan.longest_npb_chain(root), full.len(), "{} op {i}", plan.name);
            for degree in 0..=n + 1 {
                assert_eq!(
                    plan.pipeline_chain(root, degree),
                    pipeline_chain_oracle(plan, root, degree),
                    "{} op {i} degree {degree}",
                    plan.name
                );
            }
        }
        let want = critical_path_oracle(plan);
        assert_eq!(plan.critical_path_estimate().to_bits(), want.to_bits(), "{}", plan.name);
        // The memoized value is served on repeat calls and survives a clone.
        assert_eq!(plan.clone().critical_path_estimate().to_bits(), want.to_bits());
    }
}
