//! SelfTune (Wagner, Kohn & Neumann, SIGMOD 2021) — baseline (2) of
//! Section 7.1: a *fixed* priority-based scheduling policy whose
//! hyper-parameters are tuned per input workload with a constrained
//! optimization technique. The policy itself stays a heuristic; only its
//! knobs adapt (the paper's core contrast with LSched, which learns the
//! entire policy).
//!
//! Our stand-in keeps the published structure — a priority score over
//! (query, operator) candidates built from age, remaining size and
//! pipeline weight, plus caps on pipeline depth and thread grants — and
//! tunes the knobs by stochastic hill climbing over simulated sample
//! workloads, which plays the role of SelfTune's tuner.

use lsched_engine::scheduler::{SchedContext, SchedDecision, SchedEvent, Scheduler};
use lsched_engine::sim::{simulate, SimConfig, WorkloadItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{candidates, decide, Candidate};

/// The tunable hyper-parameters of the SelfTune policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTuneParams {
    /// Priority weight on query waiting time (favors old queries).
    pub w_age: f64,
    /// Priority weight on estimated remaining work (positive favors
    /// short queries).
    pub w_size: f64,
    /// Priority weight on the candidate pipeline's own work.
    pub w_chain: f64,
    /// Maximum pipeline degree the policy will co-schedule.
    pub pipeline_cap: usize,
    /// Fraction of currently free threads granted per decision.
    pub thread_frac: f64,
}

impl Default for SelfTuneParams {
    fn default() -> Self {
        Self { w_age: 1.0, w_size: 1.0, w_chain: 0.2, pipeline_cap: 3, thread_frac: 0.4 }
    }
}

/// The SelfTune scheduler: fixed policy, tuned knobs.
#[derive(Debug, Clone)]
pub struct SelfTuneScheduler {
    /// Current hyper-parameters.
    pub params: SelfTuneParams,
}

impl SelfTuneScheduler {
    /// Creates the scheduler with the given (usually tuned) parameters.
    pub fn new(params: SelfTuneParams) -> Self {
        Self { params }
    }
}

impl Default for SelfTuneScheduler {
    fn default() -> Self {
        Self::new(SelfTuneParams::default())
    }
}

impl Scheduler for SelfTuneScheduler {
    fn name(&self) -> String {
        "selftune".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, _ev: &SchedEvent) -> Vec<SchedDecision> {
        let mut cands = candidates(ctx);
        if cands.is_empty() {
            return Vec::new();
        }
        let p = self.params;
        let score = |c: &Candidate| -> f64 {
            let age = ctx.time - ctx.queries[c.query_idx].arrival_time;
            let size = ctx.hot.est_work[c.query_idx];
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

/// Tuning configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Hill-climbing iterations.
    pub iterations: usize,
    /// Sample workloads evaluated per candidate parameter vector.
    pub samples: usize,
    /// Simulator configuration used for evaluation.
    pub sim: SimConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self { iterations: 20, samples: 2, sim: SimConfig::default(), seed: 0 }
    }
}

fn evaluate(params: SelfTuneParams, workloads: &[Vec<WorkloadItem>], sim: &SimConfig) -> f64 {
    let mut total = 0.0;
    for wl in workloads {
        let mut s = SelfTuneScheduler::new(params);
        let res = simulate(sim.clone(), wl, &mut s);
        total += res.avg_duration();
    }
    total / workloads.len() as f64
}

/// Tunes the policy's hyper-parameters for a workload distribution by
/// stochastic hill climbing over `sample_workloads`. Returns the best
/// parameters and their average query duration.
pub fn tune(
    sample_workloads: &[Vec<WorkloadItem>],
    cfg: &TuneConfig,
) -> (SelfTuneParams, f64) {
    assert!(!sample_workloads.is_empty());
    let workloads: Vec<_> =
        sample_workloads.iter().take(cfg.samples.max(1)).cloned().collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best = SelfTuneParams::default();
    let mut best_score = evaluate(best, &workloads, &cfg.sim);
    for _ in 0..cfg.iterations {
        let mut cand = best;
        match rng.gen_range(0..5) {
            0 => cand.w_age = (cand.w_age * rng.gen_range(0.5..2.0)).clamp(0.0, 100.0),
            1 => cand.w_size = (cand.w_size * rng.gen_range(0.5..2.0)).clamp(0.0, 100.0),
            2 => cand.w_chain = (cand.w_chain * rng.gen_range(0.5..2.0)).clamp(0.0, 100.0),
            3 => {
                cand.pipeline_cap =
                    (cand.pipeline_cap as i64 + rng.gen_range(-2..=2)).clamp(1, 8) as usize
            }
            _ => cand.thread_frac = (cand.thread_frac * rng.gen_range(0.6..1.6)).clamp(0.05, 1.0),
        }
        let score = evaluate(cand, &workloads, &cfg.sim);
        if score < best_score {
            best = cand;
            best_score = score;
        }
    }
    (best, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    #[test]
    fn selftune_completes_workloads() {
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 10, ArrivalPattern::Batch, 1);
        let cfg = SimConfig { num_threads: 8, ..Default::default() };
        let res = simulate(cfg, &wl, &mut SelfTuneScheduler::default());
        assert_eq!(res.outcomes.len(), 10);
    }

    #[test]
    fn tuning_never_worsens_the_objective() {
        let pool = tpch::plan_pool(&[0.5]);
        let samples: Vec<_> = (0..2)
            .map(|s| gen_workload(&pool, 8, ArrivalPattern::Batch, s))
            .collect();
        let cfg = TuneConfig {
            iterations: 8,
            samples: 2,
            sim: SimConfig { num_threads: 6, ..Default::default() },
            seed: 3,
        };
        let default_score = evaluate(SelfTuneParams::default(), &samples, &cfg.sim);
        let (tuned, tuned_score) = tune(&samples, &cfg);
        assert!(tuned_score <= default_score + 1e-9);
        assert!(tuned.pipeline_cap >= 1);
    }

    #[test]
    fn params_change_behavior() {
        let pool = tpch::plan_pool(&[0.5]);
        let wl = gen_workload(&pool, 10, ArrivalPattern::Batch, 2);
        let cfg = SimConfig { num_threads: 8, ..Default::default() };
        let a = simulate(
            cfg.clone(),
            &wl,
            &mut SelfTuneScheduler::new(SelfTuneParams { pipeline_cap: 1, ..Default::default() }),
        );
        let b = simulate(
            cfg,
            &wl,
            &mut SelfTuneScheduler::new(SelfTuneParams { pipeline_cap: 8, ..Default::default() }),
        );
        assert_ne!(a.avg_duration(), b.avg_duration());
    }
}
