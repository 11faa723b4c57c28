//! Shared helpers for heuristic schedulers.
//!
//! Cost model: a per-query policy (FIFO, fair, SJF, HPF, Quickstep)
//! scans the contiguous [`QueryHot`](lsched_engine::scheduler::QueryHot)
//! columns once per event — O(active queries) — and touches a query's
//! runtime state only when it grants that query threads, reading roots
//! straight off the cached frontier (O(chain) per granted root).
//! [`candidates`] materialises every schedulable root and is reserved for
//! the policies that rank all roots globally.

use lsched_engine::plan::OpId;
use lsched_engine::scheduler::{QueryRuntime, SchedContext, SchedDecision};

/// A schedulable (query, root) candidate with cached metrics.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index into `ctx.queries`.
    pub query_idx: usize,
    /// The schedulable operator.
    pub root: OpId,
    /// Longest non-pipeline-breaking chain from the root.
    pub max_degree: usize,
    /// Estimated total work along the root's full pipeline chain.
    pub chain_work: f64,
}

/// Enumerates every schedulable operator across active queries, for the
/// policies that rank roots globally (critical path, SelfTune, lottery).
/// One allocation per call; chains are the plan's memoized slices.
pub fn candidates(ctx: &SchedContext<'_>) -> Vec<Candidate> {
    let mut out = Vec::new();
    for qi in schedulable_queries(ctx) {
        let q = &ctx.queries[qi];
        for &root in q.schedulable_ops() {
            let chain = q.plan.npb_chain(root);
            let chain_work: f64 =
                chain.iter().map(|&o| q.ops[o.0].est_remaining_duration()).sum();
            out.push(Candidate { query_idx: qi, root, max_degree: chain.len(), chain_work });
        }
    }
    out
}

/// Indices (ascending) of the queries with a non-empty frontier — one
/// pass over the contiguous `hot.frontier_len` column.
pub fn schedulable_queries<'c>(ctx: &'c SchedContext<'_>) -> impl Iterator<Item = usize> + 'c {
    ctx.hot.frontier_len.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(qi, _)| qi)
}

/// Builds a decision for a candidate.
pub fn decide(
    q: &QueryRuntime,
    c: &Candidate,
    pipeline_degree: usize,
    threads: usize,
) -> SchedDecision {
    SchedDecision {
        query: q.qid,
        root: c.root,
        pipeline_degree: pipeline_degree.clamp(1, c.max_degree),
        threads: threads.max(1),
    }
}

/// Builds a decision that pipelines `root`'s full non-breaking chain.
pub fn decide_full_chain(q: &QueryRuntime, root: OpId, threads: usize) -> SchedDecision {
    SchedDecision {
        query: q.qid,
        root,
        pipeline_degree: q.plan.longest_npb_chain(root),
        threads: threads.max(1),
    }
}

/// Slot `i`'s share when `total` threads are split as evenly as possible
/// across `n` recipients, first slots getting the remainder.
pub fn even_share(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_share_distributes_remainder() {
        let split = |total, n| (0..n).map(|i| even_share(total, n, i)).collect::<Vec<_>>();
        assert_eq!(split(10, 3), vec![4, 3, 3]);
        assert_eq!(split(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split(0, 2), vec![0, 0]);
    }
}
