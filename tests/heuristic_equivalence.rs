//! Differential test of the heuristic policies against their
//! candidate-list oracles.
//!
//! The shipped FIFO, fair, SJF, HPF and Quickstep policies scan the
//! `QueryHot` columns and take roots straight off each query's cached
//! frontier; critical path, SelfTune and lottery rank the candidates
//! built from memoized plan chains. The oracles below are the earlier
//! bodies: every policy first materialised a candidate per schedulable
//! root (an allocating chain walk plus a regression refit per operator)
//! and recomputed every query's remaining work. Each policy runs in
//! lockstep with its oracle — every invocation must return the identical
//! decision vector — and the standalone runs must produce bit-identical
//! `SimResult`s, fault-free and under `FaultPlan::standard_matrix`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use lsched::engine::plan::{OpId, PhysicalPlan};
use lsched::engine::scheduler::{QueryRuntime, SchedContext, SchedDecision, SchedEvent, Scheduler};
use lsched::engine::sim::{QueryOutcome, SimResult};
use lsched::prelude::*;
use lsched::sched::{LotteryScheduler, SelfTuneParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-memoization oracles, one per policy.
mod oracle {
    use super::*;

    pub struct Candidate {
        pub query_idx: usize,
        pub root: OpId,
        pub max_degree: usize,
        pub chain_work: f64,
    }

    /// The allocating full-edge-scan chain walk.
    fn pipeline_chain(plan: &PhysicalPlan, root: OpId, degree: usize) -> Vec<OpId> {
        let mut chain = vec![root];
        let mut cur = root;
        while chain.len() < degree {
            let ups: Vec<_> =
                plan.parents_of(cur).into_iter().filter(|(e, _)| e.non_pipeline_breaking).collect();
            match ups.first() {
                Some(&(_, parent)) if ups.len() == 1 => {
                    chain.push(parent);
                    cur = parent;
                }
                _ => break,
            }
        }
        chain
    }

    fn longest_npb_chain(plan: &PhysicalPlan, root: OpId) -> usize {
        pipeline_chain(plan, root, usize::MAX).len()
    }

    pub fn candidates(ctx: &SchedContext<'_>) -> Vec<Candidate> {
        let mut out = Vec::new();
        for (qi, q) in ctx.queries.iter().enumerate() {
            for &root in q.schedulable_ops() {
                let max_degree = longest_npb_chain(&q.plan, root);
                let chain = pipeline_chain(&q.plan, root, max_degree);
                let chain_work: f64 =
                    chain.iter().map(|&o| q.ops[o.0].est_remaining_duration()).sum();
                out.push(Candidate { query_idx: qi, root, max_degree, chain_work });
            }
        }
        out
    }

    fn decide(q: &QueryRuntime, c: &Candidate, degree: usize, threads: usize) -> SchedDecision {
        SchedDecision {
            query: q.qid,
            root: c.root,
            pipeline_degree: degree.clamp(1, c.max_degree),
            threads: threads.max(1),
        }
    }

    fn even_split(total: usize, n: usize) -> Vec<usize> {
        if n == 0 {
            return Vec::new();
        }
        let base = total / n;
        let rem = total % n;
        (0..n).map(|i| base + usize::from(i < rem)).collect()
    }

    fn query_idxs(cands: &[Candidate]) -> Vec<usize> {
        let mut qidxs: Vec<usize> = cands.iter().map(|c| c.query_idx).collect();
        qidxs.sort_unstable();
        qidxs.dedup();
        qidxs
    }

    pub struct Fifo;

    impl Scheduler for Fifo {
        fn name(&self) -> String {
            "fifo_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            let cands = candidates(ctx);
            let Some(first_q) = cands.iter().map(|c| c.query_idx).min() else {
                return out;
            };
            let roots: Vec<_> = cands.iter().filter(|c| c.query_idx == first_q).collect();
            let per = even_split(free, roots.len());
            for (c, share) in roots.iter().zip(per) {
                if free == 0 {
                    break;
                }
                let threads = share.max(1).min(free);
                free -= threads;
                out.push(decide(&ctx.queries[c.query_idx], c, c.max_degree, threads));
            }
            out
        }
    }

    pub struct Fair {
        pub weights: Vec<f64>,
    }

    impl Scheduler for Fair {
        fn name(&self) -> String {
            "fair_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let cands = candidates(ctx);
            if cands.is_empty() {
                return Vec::new();
            }
            let qidxs = query_idxs(&cands);
            let weight = |qi: usize| -> f64 {
                let q = &ctx.queries[qi];
                self.weights.get(q.qid.0 as usize).copied().unwrap_or(1.0)
            };
            let total_w: f64 = qidxs.iter().map(|&qi| weight(qi)).sum();
            let mut free = ctx.free_threads;
            let mut out = Vec::new();
            for &qi in &qidxs {
                if free == 0 {
                    break;
                }
                let q = &ctx.queries[qi];
                let fair_share =
                    ((ctx.total_threads as f64) * weight(qi) / total_w).floor() as usize;
                let deficit = fair_share
                    .saturating_sub(q.assigned_threads)
                    .max(usize::from(q.assigned_threads == 0));
                if deficit == 0 {
                    continue;
                }
                let grant_total = deficit.min(free);
                let roots: Vec<_> = cands.iter().filter(|c| c.query_idx == qi).collect();
                let per = even_split(grant_total, roots.len());
                for (c, share) in roots.iter().zip(per) {
                    if share == 0 || free == 0 {
                        continue;
                    }
                    let threads = share.min(free);
                    free -= threads;
                    out.push(decide(q, c, c.max_degree, threads));
                }
            }
            out
        }
    }

    /// SJF and HPF: all free threads to queries in a sorted order.
    fn grant_sorted(
        ctx: &SchedContext<'_>,
        cands: &[Candidate],
        qidxs: Vec<usize>,
    ) -> Vec<SchedDecision> {
        let mut out = Vec::new();
        let mut free = ctx.free_threads;
        for qi in qidxs {
            if free == 0 {
                break;
            }
            let roots: Vec<_> = cands.iter().filter(|c| c.query_idx == qi).collect();
            let per = even_split(free, roots.len());
            let mut granted = 0;
            for (c, share) in roots.iter().zip(per) {
                let threads = share.max(1).min(free - granted);
                if threads == 0 {
                    break;
                }
                granted += threads;
                out.push(decide(&ctx.queries[qi], c, c.max_degree, threads));
            }
            free -= granted;
        }
        out
    }

    pub struct Sjf;

    impl Scheduler for Sjf {
        fn name(&self) -> String {
            "sjf_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let cands = candidates(ctx);
            let mut qidxs = query_idxs(&cands);
            qidxs.sort_by(|&a, &b| {
                ctx.queries[a].est_remaining_work().total_cmp(&ctx.queries[b].est_remaining_work())
            });
            grant_sorted(ctx, &cands, qidxs)
        }
    }

    pub struct Hpf;

    impl Scheduler for Hpf {
        fn name(&self) -> String {
            "hpf_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let cands = candidates(ctx);
            let mut qidxs = query_idxs(&cands);
            qidxs.sort_by(|&a, &b| {
                ctx.queries[b]
                    .plan
                    .critical_path_estimate()
                    .total_cmp(&ctx.queries[a].plan.critical_path_estimate())
            });
            grant_sorted(ctx, &cands, qidxs)
        }
    }

    pub struct CriticalPath;

    impl Scheduler for CriticalPath {
        fn name(&self) -> String {
            "critical_path_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut cands = candidates(ctx);
            cands.sort_by(|a, b| b.chain_work.total_cmp(&a.chain_work));
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for c in cands {
                if free == 0 {
                    break;
                }
                let threads = (free / 2).max(1);
                free -= threads;
                out.push(decide(&ctx.queries[c.query_idx], &c, c.max_degree, threads));
            }
            out
        }
    }

    pub struct Quickstep;

    impl Scheduler for Quickstep {
        fn name(&self) -> String {
            "quickstep_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let cands = candidates(ctx);
            if cands.is_empty() {
                return Vec::new();
            }
            let qidxs = query_idxs(&cands);
            let inv: Vec<f64> = qidxs
                .iter()
                .map(|&qi| 1.0 / ctx.queries[qi].est_remaining_work().max(1e-6))
                .collect();
            let total_inv: f64 = inv.iter().sum();
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for (k, &qi) in qidxs.iter().enumerate() {
                if free == 0 {
                    break;
                }
                let q = &ctx.queries[qi];
                let share = ((ctx.free_threads as f64) * inv[k] / total_inv).round() as usize;
                let grant_total = share.clamp(1, free);
                let roots: Vec<_> = cands.iter().filter(|c| c.query_idx == qi).collect();
                let per = even_split(grant_total, roots.len());
                for (c, s) in roots.iter().zip(per) {
                    if s == 0 || free == 0 {
                        continue;
                    }
                    let threads = s.min(free);
                    free -= threads;
                    out.push(decide(q, c, c.max_degree, threads));
                }
            }
            out
        }
    }

    pub struct SelfTune {
        pub params: SelfTuneParams,
    }

    impl Scheduler for SelfTune {
        fn name(&self) -> String {
            "selftune_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut cands = candidates(ctx);
            if cands.is_empty() {
                return Vec::new();
            }
            let p = self.params;
            let score = |c: &Candidate| -> f64 {
                let q = &ctx.queries[c.query_idx];
                let age = ctx.time - q.arrival_time;
                let size = q.est_remaining_work();
                p.w_age * age - p.w_size * size + p.w_chain * c.chain_work
            };
            cands.sort_by(|a, b| score(b).total_cmp(&score(a)));
            let mut out = Vec::new();
            let mut free = ctx.free_threads;
            for c in cands {
                if free == 0 {
                    break;
                }
                let threads =
                    (((ctx.free_threads as f64) * p.thread_frac).ceil() as usize).clamp(1, free);
                free -= threads;
                out.push(decide(
                    &ctx.queries[c.query_idx],
                    &c,
                    c.max_degree.min(p.pipeline_cap.max(1)),
                    threads,
                ));
            }
            out
        }
    }

    pub struct Lottery {
        pub tickets: Vec<f64>,
        pub rng: StdRng,
    }

    impl Lottery {
        fn tickets_of(&self, qid: u64) -> f64 {
            self.tickets.get(qid as usize).copied().unwrap_or(1.0).max(1e-9)
        }
    }

    impl Scheduler for Lottery {
        fn name(&self) -> String {
            "lottery_oracle".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
            let cands = candidates(ctx);
            if cands.is_empty() {
                return Vec::new();
            }
            let mut out: Vec<SchedDecision> = Vec::new();
            let mut free = ctx.free_threads;
            let grant = (ctx.free_threads / 4).max(1);
            let mut used_roots: Vec<(usize, usize)> = Vec::new();
            while free > 0 {
                let open: Vec<&Candidate> = cands
                    .iter()
                    .filter(|c| !used_roots.contains(&(c.query_idx, c.root.0)))
                    .collect();
                if open.is_empty() {
                    break;
                }
                let total: f64 =
                    open.iter().map(|c| self.tickets_of(ctx.queries[c.query_idx].qid.0)).sum();
                let mut draw = self.rng.gen_range(0.0..total);
                let mut chosen = open[open.len() - 1];
                for c in &open {
                    draw -= self.tickets_of(ctx.queries[c.query_idx].qid.0);
                    if draw <= 0.0 {
                        chosen = c;
                        break;
                    }
                }
                let threads = grant.min(free);
                free -= threads;
                used_roots.push((chosen.query_idx, chosen.root.0));
                out.push(SchedDecision {
                    query: ctx.queries[chosen.query_idx].qid,
                    root: chosen.root,
                    pipeline_degree: chosen.max_degree,
                    threads,
                });
            }
            out
        }
    }
}

/// Runs a policy and its oracle on the same context at every event,
/// failing on the first decision vector that differs.
struct Lockstep<N, O> {
    policy: N,
    oracle: O,
    invocations: u64,
    decisions: u64,
}

impl<N: Scheduler, O: Scheduler> Scheduler for Lockstep<N, O> {
    fn name(&self) -> String {
        self.policy.name()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
        let got = self.policy.on_event(ctx, ev);
        let want = self.oracle.on_event(ctx, ev);
        assert_eq!(
            got,
            want,
            "{} diverged from its oracle at invocation {} (t = {}, {ev:?})",
            self.policy.name(),
            self.invocations,
            ctx.time
        );
        self.invocations += 1;
        self.decisions += got.len() as u64;
        got
    }
}

/// Every bit of a `SimResult` except the host-clock scheduler time.
fn result_hash(r: &SimResult) -> u64 {
    fn outcomes(h: &mut DefaultHasher, os: &[QueryOutcome]) {
        os.len().hash(h);
        for o in os {
            o.qid.hash(h);
            o.name.hash(h);
            o.arrival.to_bits().hash(h);
            o.finish.to_bits().hash(h);
            o.duration.to_bits().hash(h);
        }
    }
    let mut h = DefaultHasher::new();
    outcomes(&mut h, &r.outcomes);
    outcomes(&mut h, &r.aborted);
    r.makespan.to_bits().hash(&mut h);
    r.sched_invocations.hash(&mut h);
    r.sched_decisions.hash(&mut h);
    r.sched_rejected.hash(&mut h);
    r.fallback_decisions.hash(&mut h);
    r.total_work_orders.hash(&mut h);
    r.events_processed.hash(&mut h);
    format!("{:?}", r.fault_summary).hash(&mut h);
    format!("{:?}", r.resilience).hash(&mut h);
    r.final_pool_size.hash(&mut h);
    r.crashed_at.map(f64::to_bits).hash(&mut h);
    r.unfinished.hash(&mut h);
    h.finish()
}

const SEED: u64 = 17;

/// The eight policies (fair both unweighted and weighted) as fresh
/// (shipped, oracle) pairs.
fn pairs() -> Vec<(Box<dyn Scheduler>, Box<dyn Scheduler>)> {
    let weights: Vec<f64> = (0..300).map(|i| 1.0 + (i % 4) as f64).collect();
    let tuned =
        SelfTuneParams { w_age: 0.7, w_size: 2.0, w_chain: 0.5, pipeline_cap: 2, thread_frac: 0.3 };
    let tickets: Vec<f64> = (0..300).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut lottery = LotteryScheduler::new(SEED);
    lottery.tickets = tickets.clone();
    vec![
        (Box::new(FifoScheduler), Box::new(oracle::Fifo)),
        (Box::new(FairScheduler::default()), Box::new(oracle::Fair { weights: Vec::new() })),
        (Box::new(FairScheduler { weights: weights.clone() }), Box::new(oracle::Fair { weights })),
        (Box::new(SjfScheduler), Box::new(oracle::Sjf)),
        (Box::new(HpfScheduler), Box::new(oracle::Hpf)),
        (Box::new(CriticalPathScheduler), Box::new(oracle::CriticalPath)),
        (Box::new(QuickstepScheduler), Box::new(oracle::Quickstep)),
        (Box::new(SelfTuneScheduler::new(tuned)), Box::new(oracle::SelfTune { params: tuned })),
        (
            Box::new(lottery),
            Box::new(oracle::Lottery { tickets, rng: StdRng::seed_from_u64(SEED) }),
        ),
    ]
}

/// Runs every policy at multiprogramming level `mpl` on each workload,
/// fault-free and/or under the standard fault matrix: in lockstep with
/// its oracle (asserting every invocation), then standalone. The
/// standalone run must hash like the lockstep run, and — when
/// `standalone_oracle` is set — like a standalone run of the oracle.
fn check_mpl(
    mpl: usize,
    threads: usize,
    patterns: &[ArrivalPattern],
    fault_modes: &[bool],
    standalone_oracle: bool,
) {
    let pool = lsched::workloads::tpch::plan_pool(&[0.3]);
    for &pattern in patterns {
        let wl = gen_workload(&pool, mpl, pattern, SEED + mpl as u64);
        let base = SimConfig { num_threads: threads, seed: SEED, ..Default::default() };
        let horizon = simulate(base.clone(), &wl, &mut QuickstepScheduler).makespan.max(1e-3);
        for &faulted in fault_modes {
            let cfg = SimConfig {
                faults: faulted.then(|| FaultPlan::standard_matrix(SEED, threads, mpl, horizon)),
                ..base.clone()
            };
            let faults = if faulted { "fault matrix" } else { "fault-free" };
            for i in 0..pairs().len() {
                let (policy, oracle) = pairs().swap_remove(i);
                let what = format!("{}, mpl {mpl}, {pattern:?}, {faults}", policy.name());
                let mut lockstep = Lockstep { policy, oracle, invocations: 0, decisions: 0 };
                let locked = try_simulate(cfg.clone(), &wl, &mut lockstep).expect("lockstep run");
                assert_eq!(lockstep.invocations, locked.sched_invocations, "{what}");
                assert!(lockstep.decisions > 0, "{what}: vacuous run");

                let (mut policy, mut oracle) = pairs().swap_remove(i);
                let shipped = try_simulate(cfg.clone(), &wl, &mut policy).expect("shipped run");
                assert_eq!(result_hash(&locked), result_hash(&shipped), "{what}");
                if standalone_oracle {
                    let reference =
                        try_simulate(cfg.clone(), &wl, &mut oracle).expect("oracle run");
                    assert_eq!(result_hash(&shipped), result_hash(&reference), "{what}");
                    assert!(shipped.bit_eq(&reference), "{what}");
                }
            }
        }
    }
}

const STREAM: ArrivalPattern = ArrivalPattern::Streaming { lambda: 40.0 };

#[test]
fn heuristics_match_oracles_at_low_mpl() {
    for mpl in [1, 4, 16] {
        check_mpl(mpl, 8, &[ArrivalPattern::Batch, STREAM], &[false, true], true);
    }
}

#[test]
fn heuristics_match_oracles_at_mpl_64() {
    check_mpl(64, 16, &[ArrivalPattern::Batch, STREAM], &[false, true], true);
}

// The largest level keeps one workload and one oracle pass per run, and
// splits its fault modes across two tests, so the debug-build suite
// stays quick; every invocation is still compared.

#[test]
fn heuristics_match_oracles_at_mpl_256() {
    check_mpl(256, 32, &[ArrivalPattern::Batch], &[false], false);
}

#[test]
fn heuristics_match_oracles_at_mpl_256_under_faults() {
    check_mpl(256, 32, &[ArrivalPattern::Batch], &[true], false);
}
