//! The Quickstep built-in scheduler (baseline (3) of Section 7.1).
//!
//! Quickstep selects active operators with a DAG-traversal algorithm and
//! shares threads across queries with a fair, fine-grained work-order
//! policy; on top of that it uses a linear regression over past work
//! orders to *predict the execution times of future work orders* and
//! steer resource allocation (Section 1's description of [43]). The
//! policy below reproduces that: fair sharing at work-order granularity,
//! with per-query thread grants weighted by the predicted time of their
//! pending work orders so short-running operators are not starved behind
//! long ones.

use lsched_engine::scheduler::{SchedContext, SchedDecision, SchedEvent, Scheduler};

use crate::common::{decide_full_chain, even_share, schedulable_queries};

/// Quickstep's default scheduler.
#[derive(Debug, Default, Clone)]
pub struct QuickstepScheduler;

impl Scheduler for QuickstepScheduler {
    fn name(&self) -> String {
        "quickstep".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        // Predicted remaining time per query (the LR-backed estimate
        // every OpRuntime maintains, mirrored in `hot.est_work`) decides
        // each query's thread share: shares are inversely proportional to
        // predicted time so cheap queries drain quickly — the behaviour
        // that makes Quickstep beat plain fair sharing on short-query
        // mixes.
        let inv = |qi: usize| 1.0 / ctx.hot.est_work[qi].max(1e-6);
        let total_inv: f64 = schedulable_queries(ctx).map(inv).sum();

        let mut out = Vec::new();
        let mut free = ctx.free_threads;
        for qi in schedulable_queries(ctx) {
            if free == 0 {
                break;
            }
            let q = &ctx.queries[qi];
            let share = ((ctx.free_threads as f64) * inv(qi) / total_inv).round() as usize;
            let grant_total = share.clamp(1, free);
            let roots = q.schedulable_ops();
            for (i, &root) in roots.iter().enumerate() {
                let s = even_share(grant_total, roots.len(), i);
                if s == 0 || free == 0 {
                    continue;
                }
                let threads = s.min(free);
                free -= threads;
                // Quickstep pipelines naturally through its DAG
                // traversal; co-schedule the full non-breaking chain.
                out.push(decide_full_chain(q, root, threads));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::sim::{simulate, SimConfig};
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    #[test]
    fn quickstep_completes_and_beats_fifo() {
        let pool = tpch::plan_pool(&[0.5, 1.0]);
        let mut fifo_total = 0.0;
        let mut qs_total = 0.0;
        // A same-instant batch is now delivered as one simulator tick, so
        // the policy sees the whole batch on its first invocation and
        // quickstep's inverse-work share division fans out immediately
        // instead of ramping up arrival by arrival. Its shortest-first
        // weighting pays off over the steady-state completion stream, so
        // run a batch long enough for that regime to dominate the first
        // tick's fan-out.
        for seed in 0..3 {
            let wl = gen_workload(&pool, 60, ArrivalPattern::Batch, seed);
            let cfg = SimConfig { num_threads: 8, seed, ..Default::default() };
            let qs = simulate(cfg.clone(), &wl, &mut QuickstepScheduler);
            let fifo = simulate(cfg, &wl, &mut crate::heuristics::FifoScheduler);
            assert_eq!(qs.outcomes.len(), 60);
            qs_total += qs.avg_duration();
            fifo_total += fifo.avg_duration();
        }
        assert!(qs_total < fifo_total, "quickstep {qs_total} vs fifo {fifo_total}");
    }
}
