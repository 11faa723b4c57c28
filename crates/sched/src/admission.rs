//! Admission control and load shedding.
//!
//! A production scheduler facing open-loop arrivals must bound its queue
//! or tail latency grows without bound (the failure mode BQSched's
//! timeouts and Decima's bursty training regime both guard against).
//! [`Admission`] is a deterministic, RNG-free gate that sits in front of
//! any [`Scheduler`] — wired through
//! [`GuardedScheduler`](crate::guard::GuardedScheduler) so every policy
//! (learned or heuristic) gets the same overload behaviour:
//!
//! * **Limits** — a maximum number of queued (thread-less) queries and a
//!   maximum total in-flight work-order backlog.
//! * **Hysteresis** — the gate opens (starts shedding) when a limit is
//!   exceeded and only closes again once the queue drains below a lower
//!   watermark, so it cannot flap on every arrival.
//! * **Priority-aware shedding** — while shedding, each arrival evicts
//!   exactly one waiting query: the lowest-priority one (ties broken
//!   toward the youngest arrival, then the highest id), which may be the
//!   arriving query itself.
//! * **Reject vs. defer** — shed verdicts either drop the query or ask
//!   the simulator to re-submit it after a capped exponential backoff.
//!
//! Determinism: every verdict is a pure function of the
//! [`SchedContext`] snapshot and the gate's own counters — chaos runs
//! stay bit-identical because the gate never draws randomness.

use lsched_engine::scheduler::{
    AdmissionResponse, AdmitAction, PolicyHealth, QueryId, QueryRuntime, SchedContext,
};
use serde::{Deserialize, Serialize};

/// A pluggable admission policy: anything that can turn an arrival plus
/// a [`SchedContext`] snapshot into an [`AdmissionResponse`].
///
/// Implementations must be **deterministic and RNG-free** — the engine
/// replays chaos runs bit-for-bit and an admission verdict that depends
/// on a random draw (or wall-clock time) breaks that guarantee. They
/// should also self-report [`PolicyHealth::Degraded`] when their own
/// outputs stop being trustworthy (e.g. a learned gate observing
/// non-finite scores); the guard layer polls [`health`](Self::health)
/// after every verdict and degrades to a heuristic gate on bad news.
pub trait AdmissionGate: Send {
    /// Human-readable gate name (for reports).
    fn name(&self) -> String;

    /// Decides the fate of `arriving` (already present in
    /// `ctx.queries`); `attempt` counts prior deferrals of this query.
    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse;

    /// Self-reported trustworthiness of recent verdicts.
    fn health(&self) -> PolicyHealth {
        PolicyHealth::Healthy
    }

    /// Forgets all state (for `Scheduler::reset`).
    fn reset(&mut self) {}
}

/// Shed-worthiness order shared by every admission gate; the minimum is
/// the first victim: lowest priority, then the youngest arrival (latest
/// `arrival_time`), then the highest id. The integer keys make it a
/// total order, so the victim is unique and deterministic;
/// `arrival_time.to_bits()` orders like the time itself for the finite,
/// non-negative arrival times the engine clock gives.
pub fn victim_key(q: &QueryRuntime) -> (i64, i64, i64) {
    (i64::from(q.priority), -(q.arrival_time.to_bits() as i64), -(q.qid.0 as i64))
}

/// Base deferral delay (seconds) of [`defer_delay`].
pub const DEFER_BASE: f64 = 0.002;
/// Deferral delay ceiling (seconds) of [`defer_delay`].
pub const DEFER_CAP: f64 = 0.05;

/// Capped exponential deferral backoff for attempt `attempt`
/// (`DEFER_BASE · 2^attempt`, capped at [`DEFER_CAP`]), shared by every
/// admission gate so defer behaviour is comparable across gates.
pub fn defer_delay(attempt: u32) -> f64 {
    (DEFER_BASE * 2f64.powi(attempt.min(30) as i32)).min(DEFER_CAP)
}

/// What to do with the shedding victim once the gate is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Drop the victim outright (fail fast; the client sees the shed).
    Reject,
    /// Ask for re-submission after a capped exponential backoff —
    /// victims that are *arriving* are deferred; victims already queued
    /// cannot be re-queued by the engine and are rejected.
    Defer,
}

/// Admission-gate limits and hysteresis.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Open the gate when the number of waiting (thread-less) queries
    /// exceeds this high watermark.
    pub max_queued: usize,
    /// Close the gate once waiting queries drain to this low watermark
    /// (must be `<= max_queued`; the gap is the hysteresis band).
    pub resume_queued: usize,
    /// Open the gate when the total undispatched work-order backlog of
    /// all active queries exceeds this bound (0 disables the check).
    pub max_inflight_wos: u64,
    /// Reject or defer shedding victims ([`ShedPolicy::Defer`] waits
    /// [`defer_delay`]).
    pub policy: ShedPolicy,
    /// Deferral attempts before a deferred query is rejected outright.
    pub max_defers: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_queued: 32,
            resume_queued: 16,
            max_inflight_wos: 0,
            policy: ShedPolicy::Reject,
            max_defers: 8,
        }
    }
}

/// Gate counters, cheap to copy into benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Arrivals the gate saw.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Verdicts that dropped a query (arriving or queued victim).
    pub rejected: u64,
    /// Verdicts that deferred the arriving query.
    pub deferred: u64,
    /// Times the gate transitioned closed → shedding.
    pub opens: u64,
    /// Times the gate transitioned shedding → closed.
    pub closes: u64,
}

impl AdmissionStats {
    /// Folds another gate's counters into this one. Every field is an
    /// event count, so the multi-shard aggregate is the plain sum
    /// (commutative and associative — independent of shard visit order).
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.deferred += other.deferred;
        self.opens += other.opens;
        self.closes += other.closes;
    }
}

/// The admission gate. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    /// Whether the gate is currently open (shedding).
    shedding: bool,
    stats: AdmissionStats,
}

impl Admission {
    /// Creates a gate with the given limits. `resume_queued` is clamped
    /// to `max_queued` so the hysteresis band is never inverted.
    pub fn new(mut cfg: AdmissionConfig) -> Self {
        cfg.resume_queued = cfg.resume_queued.min(cfg.max_queued);
        Self { cfg, shedding: false, stats: AdmissionStats::default() }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Whether the gate is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// Forgets all state (for `Scheduler::reset`).
    pub fn reset(&mut self) {
        self.shedding = false;
        self.stats = AdmissionStats::default();
    }

    /// Queries with no threads assigned — the waiting queue the limits
    /// are measured against (the arriving query is already in `ctx`).
    fn queued(ctx: &SchedContext<'_>) -> usize {
        ctx.queries.iter().filter(|q| q.assigned_threads == 0).count()
    }

    /// Total undispatched work orders across all active queries.
    fn backlog(ctx: &SchedContext<'_>) -> u64 {
        ctx.queries
            .iter()
            .flat_map(|q| q.ops.iter())
            .map(|o| u64::from(o.undispatched_work_orders()))
            .sum()
    }

    /// The waiting query to evict: the minimum of [`victim_key`].
    fn victim(ctx: &SchedContext<'_>) -> Option<QueryId> {
        ctx.queries
            .iter()
            .filter(|q| q.assigned_threads == 0)
            .min_by_key(|q| victim_key(q))
            .map(|q| q.qid)
    }

    /// Decides the fate of `arriving` (already present in
    /// `ctx.queries`). Pure: no RNG, no clock — deterministic replay is
    /// guaranteed under the fault-injection discipline.
    pub fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        self.stats.arrivals += 1;
        let queued = Self::queued(ctx);
        let backlog_over =
            self.cfg.max_inflight_wos > 0 && Self::backlog(ctx) > self.cfg.max_inflight_wos;

        // Hysteresis state machine. The arriving query is already
        // counted in `queued`, so the high watermark compares against
        // `max_queued + 1` total entries.
        if self.shedding {
            if queued <= self.cfg.resume_queued && !backlog_over {
                self.shedding = false;
                self.stats.closes += 1;
            }
        } else if queued > self.cfg.max_queued || backlog_over {
            self.shedding = true;
            self.stats.opens += 1;
        }

        if !self.shedding {
            self.stats.admitted += 1;
            return AdmissionResponse::admit();
        }

        // Shedding: evict exactly one waiting query per arrival.
        let victim = Self::victim(ctx).unwrap_or(arriving);
        if victim == arriving {
            // The arrival itself is the least important waiter.
            match self.cfg.policy {
                ShedPolicy::Defer if attempt < self.cfg.max_defers => {
                    self.stats.deferred += 1;
                    AdmissionResponse {
                        action: AdmitAction::Defer { delay: defer_delay(attempt) },
                        shed: Vec::new(),
                    }
                }
                _ => {
                    self.stats.rejected += 1;
                    AdmissionResponse { action: AdmitAction::Reject, shed: Vec::new() }
                }
            }
        } else {
            // A queued query outranks the arrival for eviction; the
            // engine cannot re-queue an already-announced query, so a
            // queued victim is always a rejection.
            self.stats.admitted += 1;
            self.stats.rejected += 1;
            AdmissionResponse { action: AdmitAction::Admit, shed: vec![victim] }
        }
    }
}

impl AdmissionGate for Admission {
    fn name(&self) -> String {
        "hysteresis".into()
    }

    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        Admission::admit(self, ctx, arriving, attempt)
    }

    fn reset(&mut self) {
        Admission::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use lsched_engine::scheduler::QueryRuntime;
    use std::sync::Arc;

    fn runtime(qid: u64, priority: i32, arrival: f64, threads: usize) -> QueryRuntime {
        let mut b = PlanBuilder::new(format!("q{qid}"));
        let scan =
            b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, 4, 0.01, 1e4);
        let mut q = QueryRuntime::new(QueryId(qid), Arc::new(b.finish(scan)), arrival, 8);
        q.priority = priority;
        q.assigned_threads = threads;
        q
    }

    fn ctx<'a>(queries: &'a [QueryRuntime], free: &'a [usize]) -> SchedContext<'a> {
        // Test-only: leak the hot mirror so the context can borrow it
        // for the caller's lifetime.
        let hot = &*Box::leak(Box::new(
            lsched_engine::scheduler::QueryHot::from_queries(queries),
        ));
        SchedContext {
            time: 1.0,
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
    fn under_limit_admits_everything() {
        let mut gate = Admission::new(AdmissionConfig { max_queued: 4, ..Default::default() });
        let qs = vec![runtime(0, 0, 0.0, 0), runtime(1, 0, 0.1, 0)];
        let r = gate.admit(&ctx(&qs, &[0]), QueryId(1), 0);
        assert_eq!(r, AdmissionResponse::admit());
        assert!(!gate.is_shedding());
    }

    #[test]
    fn opens_past_high_watermark_and_sheds_lowest_priority() {
        let mut gate = Admission::new(AdmissionConfig {
            max_queued: 2,
            resume_queued: 1,
            ..Default::default()
        });
        // Three waiting queries (incl. the arrival) -> over the limit.
        let qs = vec![
            runtime(0, 5, 0.0, 0),
            runtime(1, -3, 0.1, 0), // lowest priority: the victim
            runtime(2, 0, 0.2, 0),  // the arrival
        ];
        let r = gate.admit(&ctx(&qs, &[]), QueryId(2), 0);
        assert!(gate.is_shedding());
        assert_eq!(r.action, AdmitAction::Admit, "the arrival outranks the victim");
        assert_eq!(r.shed, vec![QueryId(1)]);
    }

    #[test]
    fn arriving_query_can_be_its_own_victim() {
        let mut gate = Admission::new(AdmissionConfig {
            max_queued: 2,
            resume_queued: 1,
            ..Default::default()
        });
        let qs = vec![
            runtime(0, 1, 0.0, 0),
            runtime(1, 1, 0.1, 0),
            runtime(2, -9, 0.2, 0), // the arrival is the least important
        ];
        let r = gate.admit(&ctx(&qs, &[]), QueryId(2), 0);
        assert_eq!(r.action, AdmitAction::Reject);
        assert!(r.shed.is_empty());
    }

    #[test]
    fn defer_policy_defers_then_rejects_at_cap() {
        let mut gate = Admission::new(AdmissionConfig {
            max_queued: 0,
            resume_queued: 0,
            policy: ShedPolicy::Defer,
            max_defers: 2,
            ..Default::default()
        });
        let qs = vec![runtime(0, 0, 0.0, 0), runtime(1, -1, 0.1, 0)];
        let c = ctx(&qs, &[]);
        match gate.admit(&c, QueryId(1), 0).action {
            AdmitAction::Defer { delay } => assert!(delay > 0.0),
            other => panic!("expected defer, got {other:?}"),
        }
        // Backoff grows with the attempt, capped.
        let d0 = defer_delay(0);
        let d1 = defer_delay(1);
        assert!(d1 > d0);
        assert!(defer_delay(30) <= DEFER_CAP + f64::EPSILON);
        // Past the deferral budget the verdict hardens to reject.
        assert_eq!(gate.admit(&c, QueryId(1), 2).action, AdmitAction::Reject);
    }

    #[test]
    fn hysteresis_keeps_gate_open_until_low_watermark() {
        let mut gate = Admission::new(AdmissionConfig {
            max_queued: 2,
            resume_queued: 0,
            ..Default::default()
        });
        let over = vec![runtime(0, 0, 0.0, 0), runtime(1, 0, 0.1, 0), runtime(2, 0, 0.2, 0)];
        gate.admit(&ctx(&over, &[]), QueryId(2), 0);
        assert!(gate.is_shedding());
        // Two waiting (> resume_queued = 0): still shedding even though
        // it is back under the high watermark — no flapping.
        let mid = vec![runtime(3, 0, 0.3, 0), runtime(4, 0, 0.4, 0)];
        let r = gate.admit(&ctx(&mid, &[]), QueryId(4), 0);
        assert!(gate.is_shedding());
        assert_ne!(r, AdmissionResponse::admit());
        // Fully drained below the low watermark: closes.
        let low = vec![runtime(5, 0, 0.5, 1)]; // has threads: not waiting
        let r = gate.admit(&ctx(&low, &[]), QueryId(5), 0);
        assert!(!gate.is_shedding());
        assert_eq!(r, AdmissionResponse::admit());
        assert_eq!(gate.stats().opens, 1);
        assert_eq!(gate.stats().closes, 1);
    }

    #[test]
    fn backlog_limit_triggers_shedding() {
        let mut gate = Admission::new(AdmissionConfig {
            max_queued: 100,
            resume_queued: 50,
            max_inflight_wos: 3, // each runtime() plan carries 4 WOs
            ..Default::default()
        });
        let qs = vec![runtime(0, 0, 0.0, 0)];
        let r = gate.admit(&ctx(&qs, &[]), QueryId(0), 0);
        assert!(gate.is_shedding());
        assert_eq!(r.action, AdmitAction::Reject);
    }
}
