//! The classic heuristic schedulers: FIFO, (weighted) fair, shortest
//! job first, highest priority first, and critical-path pipelining.
//!
//! These are the "carefully-tuned heuristics based schedulers" LSched is
//! compared against (Section 7.1): easy to implement and transparent,
//! but blind to the workload (Section 1).

use lsched_engine::scheduler::{SchedContext, SchedDecision, SchedEvent, Scheduler};

use crate::common::{candidates, decide, decide_full_chain, even_share, schedulable_queries};

/// FIFO: run queries strictly in arrival order, granting each as many
/// threads as available. The paper's worst baseline — it "stalls the
/// execution of other queries and significantly increases their average
/// query duration" (Section 7.2).
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> String {
        "fifo".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let mut out = Vec::new();
        // Only the oldest query that has schedulable work gets served
        // (queries are kept in arrival order).
        let Some(qi) = schedulable_queries(ctx).next() else {
            return out;
        };
        let q = &ctx.queries[qi];
        let roots = q.schedulable_ops();
        let mut free = ctx.free_threads;
        for (i, &root) in roots.iter().enumerate() {
            if free == 0 {
                break;
            }
            let threads = even_share(ctx.free_threads, roots.len(), i).max(1).min(free);
            free -= threads;
            out.push(decide_full_chain(q, root, threads));
        }
        out
    }
}

/// Weighted fair scheduling: free threads are split evenly across all
/// queries that have schedulable work (Quickstep's tuned fair policy,
/// baseline (4) in Section 7.1).
#[derive(Debug, Default, Clone)]
pub struct FairScheduler {
    /// Optional per-query weight (by arrival index); 1.0 default.
    pub weights: Vec<f64>,
}

impl Scheduler for FairScheduler {
    fn name(&self) -> String {
        "fair".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        // Split threads across queries proportionally to weight, but also
        // account for threads a query already holds: fair share is over
        // the total pool.
        let weight = |qi: usize| -> f64 {
            if self.weights.is_empty() {
                return 1.0;
            }
            let q = &ctx.queries[qi];
            self.weights.get(q.qid.0 as usize).copied().unwrap_or(1.0)
        };
        let total_w: f64 = schedulable_queries(ctx).map(weight).sum();
        let mut free = ctx.free_threads;
        let mut out = Vec::new();
        for qi in schedulable_queries(ctx) {
            if free == 0 {
                break;
            }
            let q = &ctx.queries[qi];
            let fair_share =
                ((ctx.total_threads as f64) * weight(qi) / total_w).floor() as usize;
            let deficit = fair_share.saturating_sub(q.assigned_threads).max(
                // When over-subscribed (more queries than threads) still
                // grant at least one thread so nobody starves.
                usize::from(q.assigned_threads == 0),
            );
            if deficit == 0 {
                continue;
            }
            let grant_total = deficit.min(free);
            let roots = q.schedulable_ops();
            for (i, &root) in roots.iter().enumerate() {
                let share = even_share(grant_total, roots.len(), i);
                if share == 0 || free == 0 {
                    continue;
                }
                let threads = share.min(free);
                free -= threads;
                out.push(decide_full_chain(q, root, threads));
            }
        }
        out
    }
}

/// Grants free threads to queries in `order`, each query splitting
/// everything still free evenly across its roots — the shared body of
/// SJF and HPF, which differ only in the order.
fn grant_in_order(ctx: &SchedContext<'_>, order: &[usize]) -> Vec<SchedDecision> {
    let mut out = Vec::new();
    let mut free = ctx.free_threads;
    for &qi in order {
        if free == 0 {
            break;
        }
        let q = &ctx.queries[qi];
        let roots = q.schedulable_ops();
        let mut granted = 0;
        for (i, &root) in roots.iter().enumerate() {
            let threads = even_share(free, roots.len(), i).max(1).min(free - granted);
            if threads == 0 {
                break;
            }
            granted += threads;
            out.push(decide_full_chain(q, root, threads));
        }
        free -= granted;
    }
    out
}

/// Shortest job first: all free threads to the query with the least
/// estimated remaining work.
#[derive(Debug, Default, Clone)]
pub struct SjfScheduler;

impl Scheduler for SjfScheduler {
    fn name(&self) -> String {
        "sjf".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let work = &ctx.hot.est_work;
        let mut order: Vec<usize> = schedulable_queries(ctx).collect();
        // Stable: equal estimates keep arrival order.
        order.sort_by(|&a, &b| work[a].total_cmp(&work[b]));
        grant_in_order(ctx, &order)
    }
}

/// Highest priority first: like SJF but ordered by a static priority —
/// here the optimizer's critical-path estimate (heavier queries first),
/// the classic HPF configuration for makespan-oriented tuning.
#[derive(Debug, Default, Clone)]
pub struct HpfScheduler;

impl Scheduler for HpfScheduler {
    fn name(&self) -> String {
        "hpf".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let crit = |qi: usize| ctx.queries[qi].plan.critical_path_estimate();
        let mut order: Vec<usize> = schedulable_queries(ctx).collect();
        // Stable: equal estimates keep arrival order.
        order.sort_by(|&a, &b| crit(b).total_cmp(&crit(a)));
        grant_in_order(ctx, &order)
    }
}

/// Critical-path pipelining (Kelley & Walker, Figure 1's first
/// scheduler): always start the pipeline containing the most aggregate
/// work first, pipelining it as aggressively as possible.
#[derive(Debug, Default, Clone)]
pub struct CriticalPathScheduler;

impl Scheduler for CriticalPathScheduler {
    fn name(&self) -> String {
        "critical_path".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let mut cands = candidates(ctx);
        // Heaviest pipeline first — the "runs the pipeline containing
        // more aggregate work first" heuristic.
        cands.sort_by(|a, b| b.chain_work.total_cmp(&a.chain_work));
        let mut out = Vec::new();
        let mut free = ctx.free_threads;
        for c in cands {
            if free == 0 {
                break;
            }
            // Aggressive pipelining: always the full chain, threads
            // proportional to its share of outstanding work.
            let threads = (free / 2).max(1);
            free -= threads;
            out.push(decide(&ctx.queries[c.query_idx], &c, c.max_degree, threads));
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

    fn run(s: &mut dyn Scheduler, threads: usize, seed: u64) -> lsched_engine::sim::SimResult {
        let pool = tpch::plan_pool(&[0.5, 1.0]);
        let wl = gen_workload(&pool, 12, ArrivalPattern::Batch, seed);
        simulate(SimConfig { num_threads: threads, seed, ..Default::default() }, &wl, s)
    }

    #[test]
    fn all_heuristics_complete_workloads() {
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FifoScheduler),
            Box::new(FairScheduler::default()),
            Box::new(SjfScheduler),
            Box::new(HpfScheduler),
            Box::new(CriticalPathScheduler),
        ];
        for s in schedulers.iter_mut() {
            let res = run(s.as_mut(), 8, 3);
            assert_eq!(res.outcomes.len(), 12, "{} lost queries", s.name());
        }
    }

    #[test]
    fn fair_beats_fifo_on_avg_duration_in_batch() {
        // FIFO's head-of-line blocking inflates average latency on a
        // multi-query batch (Figure 8's headline observation).
        let mut fifo_total = 0.0;
        let mut fair_total = 0.0;
        for seed in 0..3 {
            fifo_total += run(&mut FifoScheduler, 8, seed).avg_duration();
            fair_total += run(&mut FairScheduler::default(), 8, seed).avg_duration();
        }
        assert!(
            fair_total < fifo_total,
            "fair ({fair_total}) should beat fifo ({fifo_total})"
        );
    }

    #[test]
    fn sjf_beats_fifo_on_avg_duration() {
        let mut fifo_total = 0.0;
        let mut sjf_total = 0.0;
        for seed in 0..3 {
            fifo_total += run(&mut FifoScheduler, 8, seed).avg_duration();
            sjf_total += run(&mut SjfScheduler, 8, seed).avg_duration();
        }
        assert!(sjf_total < fifo_total, "sjf ({sjf_total}) vs fifo ({fifo_total})");
    }

    #[test]
    fn schedulers_are_deterministic() {
        let a = run(&mut FairScheduler::default(), 8, 11).avg_duration();
        let b = run(&mut FairScheduler::default(), 8, 11).avg_duration();
        assert_eq!(a, b);
    }
}
