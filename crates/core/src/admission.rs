//! Predictive, concurrency-aware admission control.
//!
//! The paper's thesis — learned, workload-aware decisions beat static
//! heuristics — applies to the *front door* as much as to thread
//! placement: a static queue-depth threshold (PR5's hysteresis gate)
//! sheds the same way whether the queued work is ten point lookups or
//! ten scan-heavy joins. [`PredictiveAdmission`] instead scores every
//! arrival **under the current concurrent mix**: a feature row combining
//! the system-wide mix block ([`mix_features`]) with the query's own
//! cost signals ([`admission_features`]) is pushed through a small
//! [`ScoringHead`] served by the tape-free batched inference path, and
//! the score decides admit / defer / shed.
//!
//! ## Decision rule and the starvation bound
//!
//! Let `s ∈ [-1, 1]` be the arrival's predicted contention score
//! (higher = more expensive to admit right now), `t` the admit
//! threshold, `p > 0` the starvation penalty and `a` the number of
//! times this query has already been deferred. The gate admits iff
//!
//! ```text
//! s - p·a <= t
//! ```
//!
//! Because the head's Tanh output bounds `s <= 1`, the left side is
//! `<= 1 - p·a`, which falls below `t` once `a >= (1 - t)/p`. A
//! deferred query is therefore **guaranteed admission within
//! `ceil((1 - t)/p)` deferrals** — [`PredictiveAdmission::max_defer_bound`]
//! — no matter what the predictor says. The constructor clamps `p` so
//! the bound stays below the engine's hard deferral cap.
//!
//! ## Queue reordering
//!
//! When an arrival scores above the threshold, the gate does not give up
//! immediately: it scores the `consider_top_k` most shed-worthy waiting
//! queries **in the same inference batch** and, if one of them predicts
//! strictly worse than the arrival, sheds that victim and admits the
//! arrival in its place — the learned analogue of the hysteresis gate's
//! priority eviction.
//!
//! ## Trust model
//!
//! The gate is deterministic and RNG-free (chaos replay stays
//! bit-identical), but its *scores* are only as good as its weights. A
//! non-finite or out-of-band (`|s| > 1`) score flips the gate's
//! [`PolicyHealth`] to `Degraded` for that verdict; the
//! [`AdmissionStack`](lsched_sched::AdmissionStack) breaker polls health
//! after every call and degrades to the hysteresis gate — never to
//! "admit everything".

use lsched_engine::scheduler::{AdmissionResponse, AdmitAction, PolicyHealth, QueryId, SchedContext};
use lsched_nn::ScoringHead;
use lsched_sched::admission::{defer_delay, victim_key, AdmissionGate};
use lsched_sched::ShedPolicy;

use crate::features::{admission_features, mix_features, ADMIT_DIM};

/// Hard ceiling on the provable defer bound: one below the engine's
/// `MAX_DEFERS = 32`, so the gate's guarantee always fires before the
/// engine's last-resort shed.
const MAX_BOUND: f32 = 31.0;

/// Warm-start output-layer weights, one per [`admission_features`]
/// entry. Positive weight = raises the contention score (shed-worthy);
/// negative = lowers it (admit-worthy). Hand-set, interpretable, and in
/// the same parameter space a trained head would later occupy.
const DEFAULT_WEIGHTS: [f32; ADMIT_DIM] = [
    0.30,  // queued count — the dominant overload signal
    0.10,  // running count
    -0.40, // free pool fraction — idle threads argue for admission
    0.12,  // total WO backlog
    0.15,  // aggregate remaining work
    0.20,  // memory pressure
    0.22,  // this query's remaining work — big queries cost more now
    0.08,  // this query's remaining WOs
    0.05,  // plan size
    0.35,  // priority deficit — low-priority arrivals shed first
    -0.20, // time already waited — favours long-waiting re-arrivals
    -0.45, // deadline urgency — near-SLO queries get in
];

/// Warm-start bias: centres a lightly loaded system comfortably below
/// the admit threshold.
const DEFAULT_BIAS: f32 = -1.1;

/// Seed of the head's Xavier init. The warm start overwrites every
/// tensor it initialises, so no verdict depends on it.
const HEAD_SEED: u64 = 0x15c4ed;

/// Tuning knobs for [`PredictiveAdmission`].
#[derive(Debug, Clone)]
pub struct PredictiveAdmissionConfig {
    /// Admit when `score - starve_penalty * attempt <= admit_threshold`.
    /// Must be `< 1` or the gate never sheds (tanh scores reach 1 only
    /// at saturation).
    pub admit_threshold: f32,
    /// Per-deferral score discount; clamped up in the constructor so the
    /// starvation bound stays `<=` [`MAX_BOUND`].
    pub starve_penalty: f32,
    /// How many of the most shed-worthy waiting queries are scored
    /// alongside each above-threshold arrival for displacement.
    pub consider_top_k: usize,
    /// Reject or defer arrivals that lose their own admission check
    /// ([`ShedPolicy::Defer`] waits [`defer_delay`]).
    pub policy: ShedPolicy,
}

impl Default for PredictiveAdmissionConfig {
    fn default() -> Self {
        Self {
            admit_threshold: 0.5,
            starve_penalty: 0.1,
            consider_top_k: 4,
            policy: ShedPolicy::Defer,
        }
    }
}

/// Counters describing everything the predictive gate decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictiveStats {
    /// Arrivals scored.
    pub arrivals: u64,
    /// Arrivals admitted (including displacements).
    pub admitted: u64,
    /// Arrivals rejected outright.
    pub rejected: u64,
    /// Arrivals deferred.
    pub deferred: u64,
    /// Admissions that displaced (shed) a worse-scoring waiting query.
    pub reordered: u64,
    /// Verdicts where a score came back non-finite or out of band (the
    /// health poll reports `Degraded` for exactly these).
    pub out_of_band: u64,
}

/// The learned admission gate. See the module docs for semantics.
pub struct PredictiveAdmission {
    cfg: PredictiveAdmissionConfig,
    head: ScoringHead,
    stats: PredictiveStats,
    /// Health of the most recent verdict, polled by the breaker.
    last_verdict_bad: bool,
    // Reused scratch (zero steady-state allocations per verdict).
    rows: Vec<f32>,
    scores: Vec<f32>,
    cand: Vec<usize>,
}

impl PredictiveAdmission {
    /// Builds the gate with the hand-set linear warm start.
    pub fn new(mut cfg: PredictiveAdmissionConfig) -> Self {
        cfg.admit_threshold = cfg.admit_threshold.clamp(-0.99, 0.99);
        // Clamp the penalty so ceil((1 - t)/p) <= MAX_BOUND.
        let min_penalty = (1.0 - cfg.admit_threshold) / MAX_BOUND;
        cfg.starve_penalty = cfg.starve_penalty.max(min_penalty);
        let mut head = ScoringHead::new(ADMIT_DIM, HEAD_SEED);
        head.warm_start_linear(&DEFAULT_WEIGHTS, DEFAULT_BIAS);
        Self {
            cfg,
            head,
            stats: PredictiveStats::default(),
            last_verdict_bad: false,
            rows: Vec::new(),
            scores: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// The gate's configuration (post-clamping).
    pub fn config(&self) -> &PredictiveAdmissionConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PredictiveStats {
        self.stats
    }

    /// The provable maximum number of deferrals any query can suffer:
    /// `ceil((1 - admit_threshold) / starve_penalty)`. Guaranteed
    /// `<= 31`, strictly below the engine's deferral cap.
    pub fn max_defer_bound(&self) -> u32 {
        ((1.0 - self.cfg.admit_threshold) / self.cfg.starve_penalty).ceil() as u32
    }

    /// Mutable access to the scoring head (for tests that poison the
    /// weights and for future online training).
    pub fn head_mut(&mut self) -> &mut ScoringHead {
        &mut self.head
    }
}

impl AdmissionGate for PredictiveAdmission {
    fn name(&self) -> String {
        "predictive".into()
    }

    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        self.last_verdict_bad = false;
        self.stats.arrivals += 1;
        let Some(ai) = ctx.queries.iter().position(|q| q.qid == arriving) else {
            // The engine always places the arrival in the snapshot;
            // admit defensively if it ever does not.
            self.stats.admitted += 1;
            return AdmissionResponse::admit();
        };
        let mix = mix_features(ctx);

        // Candidate victims: waiting queries other than the arrival, the
        // `consider_top_k` statically most shed-worthy ones.
        self.cand.clear();
        for (i, q) in ctx.queries.iter().enumerate() {
            if q.assigned_threads == 0 && q.qid != arriving {
                self.cand.push(i);
            }
        }
        let queries = ctx.queries;
        // Candidate *selection* (before scoring) uses the hysteresis
        // gate's victim order.
        self.cand.sort_unstable_by_key(|&i| victim_key(&queries[i]));
        self.cand.truncate(self.cfg.consider_top_k);

        // One batched inference pass: arrival first, then candidates.
        self.rows.clear();
        self.rows.extend_from_slice(&admission_features(ctx, &mix, ai));
        for &i in &self.cand {
            self.rows.extend_from_slice(&admission_features(ctx, &mix, i));
        }
        self.scores.clear();
        self.head.scores_into(&self.rows, &mut self.scores);

        if self.scores.iter().any(|s| !s.is_finite() || s.abs() > 1.0) {
            // Out-of-band prediction: flag the verdict as untrusted and
            // emit a harmless answer — the AdmissionStack breaker polls
            // health, discards this response and consults hysteresis.
            self.stats.out_of_band += 1;
            self.last_verdict_bad = true;
            return AdmissionResponse::admit();
        }

        let eff = self.scores[0] - self.cfg.starve_penalty * attempt as f32;
        if eff <= self.cfg.admit_threshold {
            self.stats.admitted += 1;
            return AdmissionResponse::admit();
        }

        // Overloaded for this arrival: displace the worst-scoring
        // waiting query if it predicts strictly worse than the arrival.
        // Ties break on the victim key so the pick is deterministic even
        // with bit-equal scores.
        let victim = self
            .cand
            .iter()
            .zip(&self.scores[1..])
            .filter(|&(_, s)| *s > self.scores[0])
            .max_by(|(ia, sa), (ib, sb)| {
                sa.total_cmp(sb)
                    .then_with(|| victim_key(&queries[**ib]).cmp(&victim_key(&queries[**ia])))
            })
            .map(|(&i, _)| queries[i].qid);
        if let Some(victim) = victim {
            self.stats.admitted += 1;
            self.stats.reordered += 1;
            return AdmissionResponse { action: AdmitAction::Admit, shed: vec![victim] };
        }

        match self.cfg.policy {
            ShedPolicy::Defer => {
                self.stats.deferred += 1;
                AdmissionResponse {
                    action: AdmitAction::Defer { delay: defer_delay(attempt) },
                    shed: Vec::new(),
                }
            }
            ShedPolicy::Reject => {
                self.stats.rejected += 1;
                AdmissionResponse { action: AdmitAction::Reject, shed: Vec::new() }
            }
        }
    }

    fn health(&self) -> PolicyHealth {
        if self.last_verdict_bad {
            PolicyHealth::Degraded
        } else {
            PolicyHealth::Healthy
        }
    }

    fn reset(&mut self) {
        self.stats = PredictiveStats::default();
        self.last_verdict_bad = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::scheduler::QueryRuntime;
    use std::sync::Arc;

    fn runtime(qid: u64, priority: i32, arrival: f64, threads: usize, wos: u32) -> QueryRuntime {
        let mut b = PlanBuilder::new(format!("q{qid}"));
        let scan =
            b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e5, wos, 0.01, 1e5);
        let mut q = QueryRuntime::new(QueryId(qid), Arc::new(b.finish(scan)), arrival, 8);
        q.priority = priority;
        q.assigned_threads = threads;
        q
    }

    fn ctx<'a>(queries: &'a [QueryRuntime], free: &'a [usize], time: f64) -> SchedContext<'a> {
        let hot = &*Box::leak(Box::new(lsched_engine::scheduler::QueryHot::from_queries(
            queries,
        )));
        SchedContext {
            time,
            total_threads: 4,
            free_threads: free.len(),
            free_thread_ids: free,
            queries,
            hot,
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        }
    }

    #[test]
    fn idle_system_admits_everything() {
        let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
        let qs = vec![runtime(0, 0, 0.0, 0, 4)];
        let r = gate.admit(&ctx(&qs, &[0, 1, 2, 3], 0.0), QueryId(0), 0);
        assert_eq!(r, AdmissionResponse::admit());
        assert_eq!(gate.health(), PolicyHealth::Healthy);
    }

    #[test]
    fn heavy_mix_defers_and_the_starve_penalty_forces_admission() {
        let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig {
            consider_top_k: 0, // no displacement: isolate the self check
            ..Default::default()
        });
        // A saturated system: many waiting heavyweights, no free pool.
        let qs: Vec<QueryRuntime> =
            (0..24).map(|i| runtime(i, 0, i as f64 * 0.001, 0, 64)).collect();
        let c = ctx(&qs, &[], 0.1);
        let first = gate.admit(&c, QueryId(23), 0);
        assert!(
            matches!(first.action, AdmitAction::Defer { .. }),
            "a saturated mix must defer: {first:?}"
        );
        // The bound: by max_defer_bound() attempts the penalty dominates
        // any score the head can emit.
        let bound = gate.max_defer_bound();
        assert!(bound <= 31, "bound {bound} must stay under the engine cap");
        let r = gate.admit(&c, QueryId(23), bound);
        assert_eq!(
            r.action,
            AdmitAction::Admit,
            "attempt {bound} must be admitted unconditionally"
        );
        // And every attempt below the bound is deterministic.
        for a in 0..bound {
            let x = gate.admit(&c, QueryId(23), a);
            let y = gate.admit(&c, QueryId(23), a);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn displacement_shed_targets_a_worse_waiting_query() {
        let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
        // Saturated mix; the arrival is high-priority and deadline-
        // urgent, one waiting query is low-priority and heavy.
        let mut qs: Vec<QueryRuntime> =
            (0..20).map(|i| runtime(i, 0, i as f64 * 0.001, 0, 48)).collect();
        qs.push({
            let mut q = runtime(20, -8, 0.015, 0, 64); // the doomed victim
            q.arrival_time = 0.015;
            q
        });
        qs.push({
            let mut q = runtime(21, 6, 0.02, 0, 2); // the arrival
            q.deadline = Some(0.05);
            q
        });
        let c = ctx(&qs, &[], 0.02);
        let r = gate.admit(&c, QueryId(21), 0);
        if let AdmitAction::Admit = r.action {
            if !r.shed.is_empty() {
                assert_eq!(r.shed, vec![QueryId(20)], "the worst waiter is the victim");
                assert_eq!(gate.stats().reordered, 1);
            }
        } else {
            // Defer is acceptable only if no candidate outscored the
            // arrival — but q20 is strictly worse on priority + size.
            panic!("a high-priority urgent arrival must displace q20: {r:?}");
        }
    }

    #[test]
    fn poisoned_head_reports_degraded_health_and_a_safe_verdict() {
        let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
        let wid = gate.head_mut().mlp().layers()[1].weight_id();
        gate.head_mut().store_mut().value_mut(wid).data_mut()[0] = f32::NAN;
        let qs = vec![runtime(0, 0, 0.0, 0, 4)];
        let r = gate.admit(&ctx(&qs, &[], 0.0), QueryId(0), 0);
        assert_eq!(gate.health(), PolicyHealth::Degraded, "NaN scores must surface");
        assert_eq!(gate.stats().out_of_band, 1);
        // The placeholder verdict is structurally harmless (no shed, no
        // defer) — the breaker discards it anyway.
        assert_eq!(r, AdmissionResponse::admit());
    }

    #[test]
    fn verdicts_are_bitwise_deterministic() {
        let run = || {
            let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
            let qs: Vec<QueryRuntime> =
                (0..12).map(|i| runtime(i, (i % 3) as i32 - 1, i as f64 * 0.002, 0, 16)).collect();
            let c = ctx(&qs, &[0], 0.05);
            let rs: Vec<AdmissionResponse> =
                (0..6).map(|a| gate.admit(&c, QueryId(11), a)).collect();
            (rs, gate.stats())
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn bound_clamps_configs_that_would_starve() {
        let gate = PredictiveAdmission::new(PredictiveAdmissionConfig {
            admit_threshold: 0.9,
            starve_penalty: 1e-9, // absurdly small: would defer ~1e8 times
            ..Default::default()
        });
        assert!(gate.max_defer_bound() <= 31, "constructor must clamp the penalty");
    }
}
