//! Guarded scheduling: a circuit-breaker wrapper around any policy.
//!
//! A learned scheduler can misbehave in ways a heuristic never does —
//! emit NaN logits, panic inside inference, or return structurally
//! invalid decisions after an online update goes wrong. The
//! [`GuardedScheduler`] wraps an arbitrary inner policy and validates
//! every interaction with it:
//!
//! * the **context snapshot** is checked for non-finite values before
//!   the inner policy sees it (a poisoned snapshot is served by the
//!   fallback without charging the inner policy); the full per-operator
//!   scan is amortized — it runs on every query arrival and every
//!   [`DEEP_SCAN_INTERVAL`] events, with an `O(1)` clock
//!   check in between;
//! * `on_event` runs under [`std::panic::catch_unwind`];
//! * the policy's self-reported [`PolicyHealth`] is polled after each
//!   call (learned policies report `Degraded` on non-finite logits);
//! * every returned decision is validated and clamped via
//!   [`clamp_decision`] against the live context.
//!
//! Any violation **trips the circuit breaker**: scheduling switches to
//! the fallback policy (Quickstep's default heuristic unless overridden)
//! for a cooldown of `cooldown_events` scheduling events, after which a
//! single **probe** event is routed to the inner policy again — a clean
//! probe restores it, a dirty one re-trips the breaker. The state
//! machine is `Primary → (violation) → Fallback(cooldown) → Probing →
//! Primary | Fallback`. [`AdmissionStack`] runs the same machine over
//! admission verdicts, counted in arrivals instead of events.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lsched_engine::scheduler::{
    clamp_decision, AdmissionResponse, AdmitAction, PolicyHealth, QueryId, QueryRuntime,
    SchedContext, SchedDecision, SchedEvent, Scheduler,
};

use crate::admission::{Admission, AdmissionGate, AdmissionStats};
use crate::quickstep::QuickstepScheduler;

/// How many recently cancelled query ids the guard remembers for the
/// stale-decision filter (see [`GuardStats::stale_decisions`]).
const CANCELLED_RING: usize = 64;

/// Largest deferral delay (seconds) a primary admission gate may return
/// before the response is vetted as out-of-band.
const MAX_GATE_DEFER_DELAY: f64 = 60.0;

/// Largest shed list a primary admission gate may return per arrival.
/// The convention (matching [`Admission`]) is at most one eviction per
/// arrival; a small slack tolerates batch-evicting gates without letting
/// a runaway predictor clear the whole queue in one verdict.
const MAX_GATE_SHED: usize = 4;

/// Degradation state of a breaker, counted in its caller's unit:
/// scheduling events for [`GuardedScheduler`], arrivals for
/// [`AdmissionStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// The primary is trusted and serving.
    Primary,
    /// The breaker is open: the fallback serves the remaining cooldown
    /// calls.
    Fallback {
        /// Fallback calls left before a probe.
        left: u32,
    },
    /// The next call is a probe of the primary.
    Probing,
}

/// Where a [`Breaker`] sends one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Primary,
    Probe,
    Fallback,
}

/// The one `Primary → Fallback(cooldown) → Probing → Primary | re-trip`
/// state machine, with the trip / probe / recovery counters it owns.
#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    /// Fallback calls after a trip before the primary is probed again.
    cooldown: u32,
    trips: u64,
    probes: u64,
    recoveries: u64,
}

impl Breaker {
    fn new(cooldown: u32) -> Self {
        Self {
            state: BreakerState::Primary,
            cooldown: cooldown.max(1),
            trips: 0,
            probes: 0,
            recoveries: 0,
        }
    }

    /// Where the next call goes, without advancing the countdown.
    fn peek(&self) -> Route {
        match self.state {
            BreakerState::Primary => Route::Primary,
            BreakerState::Probing => Route::Probe,
            BreakerState::Fallback { .. } => Route::Fallback,
        }
    }

    /// Routes one call. A fallback call advances the countdown; the last
    /// one arms the probe.
    fn route(&mut self) -> Route {
        if let BreakerState::Fallback { left } = self.state {
            self.state = if left > 1 {
                BreakerState::Fallback { left: left - 1 }
            } else {
                BreakerState::Probing
            };
            return Route::Fallback;
        }
        self.peek()
    }

    /// The primary answered a call (served it or panicked on it): counts
    /// a probe if the call was one.
    fn answered(&mut self) {
        if self.state == BreakerState::Probing {
            self.probes += 1;
        }
    }

    /// A violation: counts a trip and arms the full cooldown, from any
    /// state — also from `Fallback`, where it re-arms the countdown.
    fn trip(&mut self) {
        self.trips += 1;
        self.state = BreakerState::Fallback { left: self.cooldown };
    }

    /// The primary served a call cleanly: a clean probe closes the
    /// breaker; in `Primary` this is a no-op.
    fn recover(&mut self) {
        if self.state == BreakerState::Probing {
            self.recoveries += 1;
            self.state = BreakerState::Primary;
        }
    }

    fn reset(&mut self) {
        *self = Self::new(self.cooldown);
    }
}

/// Counters describing everything the admission-gate breaker observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateGuardStats {
    /// Arrivals routed through the stack.
    pub arrivals: u64,
    /// Breaker trips: every violation of the primary gate (all are seen
    /// while Primary or Probing, the only states that consult it).
    pub trips: u64,
    /// Panics caught inside the primary gate.
    pub panics: u64,
    /// Responses rejected by vetting (non-finite or out-of-band defer
    /// delay, bogus shed list).
    pub invalid_responses: u64,
    /// Arrivals where the primary gate reported `Degraded` health.
    pub degraded_health: u64,
    /// Arrivals served by the hysteresis gate while the breaker was
    /// open.
    pub fallback_arrivals: u64,
    /// Probe arrivals routed to the primary gate after cooldown.
    pub probes: u64,
    /// Probes that restored the primary gate.
    pub recoveries: u64,
}

/// A two-layer admission gate with a per-component circuit breaker.
///
/// The **primary** gate (typically a learned, predictive one) serves
/// verdicts while trusted; the **hysteresis** gate ([`Admission`]) is
/// the always-available deterministic floor. The primary is treated as
/// untrusted: every verdict runs under [`catch_unwind`], the response is
/// vetted for structural sanity (finite bounded defer delay, shed ids
/// that name real waiting queries and never the arrival itself), and the
/// gate's self-reported health is polled afterwards. Any violation trips
/// the breaker: the hysteresis gate serves the next `cooldown` arrivals,
/// then a single probe is routed to the primary again.
///
/// Degradation is **never to "admit everything"** — a broken predictor
/// must not disable overload protection, so the open-breaker path is the
/// same hysteresis gate that guarded the system before predictive
/// admission existed.
pub struct AdmissionStack {
    primary: Option<Box<dyn AdmissionGate>>,
    hysteresis: Admission,
    breaker: Breaker,
    stats: GateGuardStats,
}

impl AdmissionStack {
    /// A stack with no primary gate: plain hysteresis admission.
    pub fn hysteresis_only(gate: Admission) -> Self {
        Self {
            primary: None,
            hysteresis: gate,
            breaker: Breaker::new(GuardConfig::default().cooldown_events),
            stats: GateGuardStats::default(),
        }
    }

    /// A stack with a primary (predictive) gate guarded in front of the
    /// hysteresis fallback.
    pub fn with_primary(
        primary: Box<dyn AdmissionGate>,
        hysteresis: Admission,
        cooldown: u32,
    ) -> Self {
        Self {
            primary: Some(primary),
            hysteresis,
            breaker: Breaker::new(cooldown),
            stats: GateGuardStats::default(),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.breaker.state
    }

    /// Breaker counters.
    pub fn stats(&self) -> GateGuardStats {
        let b = &self.breaker;
        GateGuardStats { trips: b.trips, probes: b.probes, recoveries: b.recoveries, ..self.stats }
    }

    /// Counters of the hysteresis layer (fallback verdicts, or all
    /// verdicts when no primary gate is installed).
    pub fn hysteresis_stats(&self) -> AdmissionStats {
        self.hysteresis.stats()
    }

    /// Forgets all state (for `Scheduler::reset`).
    pub fn reset(&mut self) {
        if let Some(p) = self.primary.as_mut() {
            p.reset();
        }
        self.hysteresis.reset();
        self.breaker.reset();
        self.stats = GateGuardStats::default();
    }

    /// Structural sanity of a primary-gate response against the live
    /// context. Pure — shared by the breaker and its tests.
    fn response_is_sane(
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        resp: &AdmissionResponse,
    ) -> bool {
        if let AdmitAction::Defer { delay } = resp.action {
            if !delay.is_finite() || !(0.0..=MAX_GATE_DEFER_DELAY).contains(&delay) {
                return false;
            }
        }
        if resp.shed.len() > MAX_GATE_SHED {
            return false;
        }
        resp.shed.iter().all(|&victim| {
            victim != arriving
                && ctx
                    .queries
                    .iter()
                    .any(|q| q.qid == victim && q.assigned_threads == 0)
        })
    }

    /// Runs the primary gate under full guarding; `None` means the
    /// breaker tripped and the caller must consult the hysteresis gate.
    fn guarded_primary(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> Option<AdmissionResponse> {
        let primary = self.primary.as_mut()?;
        let outcome = catch_unwind(AssertUnwindSafe(|| primary.admit(ctx, arriving, attempt)));
        self.breaker.answered();
        let Ok(resp) = outcome else {
            self.stats.panics += 1;
            self.breaker.trip();
            return None;
        };
        if self.primary.as_ref().is_some_and(|p| p.health() == PolicyHealth::Degraded) {
            self.stats.degraded_health += 1;
            self.breaker.trip();
            return None;
        }
        if !Self::response_is_sane(ctx, arriving, &resp) {
            self.stats.invalid_responses += 1;
            self.breaker.trip();
            return None;
        }
        self.breaker.recover();
        Some(resp)
    }

    /// Decides the fate of `arriving` through the breaker state machine.
    /// Deterministic as long as both layers are (no RNG, no clock).
    pub fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        self.stats.arrivals += 1;
        if self.primary.is_some() {
            if self.breaker.route() == Route::Fallback {
                self.stats.fallback_arrivals += 1;
            } else if let Some(resp) = self.guarded_primary(ctx, arriving, attempt) {
                return resp;
            }
        }
        self.hysteresis.admit(ctx, arriving, attempt)
    }
}

/// The full per-operator snapshot scan runs on every `QueryArrived`
/// event (new plan data enters the snapshot) and at most every this many
/// events in between; other events only get an `O(1)` clock check.
/// Amortizing the scan keeps the fault-free guard overhead negligible
/// while still bounding how long a poisoned snapshot can go unnoticed;
/// policy-side NaN is caught per-event through the health poll
/// regardless.
pub const DEEP_SCAN_INTERVAL: u32 = 128;

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Scheduling events served by the fallback after a trip before the
    /// inner policy is probed again.
    pub cooldown_events: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self { cooldown_events: 32 }
    }
}

/// Counters describing everything the guard observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Scheduling events seen.
    pub events: u64,
    /// Breaker trips: every violation while Primary or Probing, plus
    /// every panic in a feedback hook (`on_query_finished`,
    /// `on_query_cancelled`, and `on_decision_executed`, which no engine
    /// calls today) — those run in every state, so one during Fallback
    /// counts too and re-arms the cooldown.
    pub trips: u64,
    /// Panics caught inside the inner policy.
    pub panics: u64,
    /// Decisions rejected by validation/clamping.
    pub invalid_decisions: u64,
    /// Events where the inner policy reported `Degraded` health.
    pub degraded_health: u64,
    /// Context snapshots with non-finite values (served by fallback
    /// without charging the inner policy).
    pub poisoned_snapshots: u64,
    /// Events served by the fallback while the breaker was open.
    pub fallback_events: u64,
    /// Probe events routed to the inner policy after cooldown.
    pub probes: u64,
    /// Probes that restored the inner policy.
    pub recoveries: u64,
    /// Decisions naming a query that was cancelled (deadline, shed or
    /// user cancellation) shortly before — e.g. while the breaker was in
    /// `Fallback(cooldown)` and a stateful inner policy missed the
    /// teardown. Dropped silently instead of tripping the breaker: the
    /// policy is stale, not broken.
    pub stale_decisions: u64,
}

impl GuardStats {
    /// Folds another guard's counters into this one. Every field is an
    /// event count, so a multi-shard aggregate is the plain sum —
    /// commutative and associative, independent of shard visit order
    /// (the same contract as [`lsched_engine::fault::FaultSummary::merge`]).
    pub fn merge(&mut self, other: &GuardStats) {
        self.events += other.events;
        self.trips += other.trips;
        self.panics += other.panics;
        self.invalid_decisions += other.invalid_decisions;
        self.degraded_health += other.degraded_health;
        self.poisoned_snapshots += other.poisoned_snapshots;
        self.fallback_events += other.fallback_events;
        self.probes += other.probes;
        self.recoveries += other.recoveries;
        self.stale_decisions += other.stale_decisions;
    }
}

/// A circuit-breaker wrapper: `inner` serves decisions while healthy,
/// `fallback` (Quickstep-default unless overridden) takes over on any
/// violation. See the module docs for the full state machine.
pub struct GuardedScheduler<S: Scheduler, F: Scheduler = QuickstepScheduler> {
    inner: S,
    fallback: F,
    breaker: Breaker,
    stats: GuardStats,
    events_since_deep_scan: u32,
    /// Optional admission stack consulted on every arrival (see
    /// [`crate::admission`] and [`AdmissionStack`]); `None` admits
    /// everything.
    admission: Option<AdmissionStack>,
    /// Bounded ring of recently cancelled query ids, backing the
    /// stale-decision filter in [`GuardStats::stale_decisions`].
    recently_cancelled: Vec<QueryId>,
}

impl<S: Scheduler> GuardedScheduler<S, QuickstepScheduler> {
    /// Guards `inner` with the Quickstep-default heuristic as fallback.
    pub fn new(inner: S) -> Self {
        Self::with_fallback(inner, QuickstepScheduler, GuardConfig::default())
    }
}

impl<S: Scheduler, F: Scheduler> GuardedScheduler<S, F> {
    /// Guards `inner` with a custom fallback policy and config.
    pub fn with_fallback(inner: S, fallback: F, cfg: GuardConfig) -> Self {
        Self {
            inner,
            fallback,
            breaker: Breaker::new(cfg.cooldown_events),
            stats: GuardStats::default(),
            events_since_deep_scan: 0,
            admission: None,
            recently_cancelled: Vec::new(),
        }
    }

    /// Installs a plain hysteresis admission gate in front of the
    /// guarded policy. The gate is orthogonal to the scheduling breaker:
    /// it keeps shedding load even while the breaker is open, because
    /// overload protection must not depend on which policy happens to be
    /// serving decisions.
    pub fn with_admission(mut self, gate: Admission) -> Self {
        self.admission = Some(AdmissionStack::hysteresis_only(gate));
        self
    }

    /// Installs a full [`AdmissionStack`] (e.g. a predictive primary
    /// gate over a hysteresis fallback, with its own breaker).
    pub fn with_admission_stack(mut self, stack: AdmissionStack) -> Self {
        self.admission = Some(stack);
        self
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.breaker.state
    }

    /// Everything the guard observed so far.
    pub fn stats(&self) -> GuardStats {
        let b = &self.breaker;
        GuardStats { trips: b.trips, probes: b.probes, recoveries: b.recoveries, ..self.stats }
    }

    /// Hysteresis-layer admission counters, if a gate is installed
    /// (all verdicts when no primary gate exists, fallback verdicts
    /// otherwise).
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(AdmissionStack::hysteresis_stats)
    }

    /// Admission-breaker state, if a gate is installed.
    pub fn gate_state(&self) -> Option<BreakerState> {
        self.admission.as_ref().map(AdmissionStack::state)
    }

    /// Admission-breaker counters, if a gate is installed.
    pub fn gate_stats(&self) -> Option<GateGuardStats> {
        self.admission.as_ref().map(AdmissionStack::stats)
    }

    /// The wrapped inner policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether one query's feature sources are all finite. The query's
    /// aggregate `est_remaining_work` is the sum of the per-operator
    /// durations checked here, so it needs no separate check.
    fn query_is_finite(q: &QueryRuntime) -> bool {
        // Check the estimators' *inputs* (windowed observations plus the
        // optimizer fallback, `O(1)` per estimator) rather than their
        // predictions: refitting the regression per op just to test
        // finiteness made the deep scan the guard's dominant cost.
        q.arrival_time.is_finite()
            && q.ops.iter().all(|o| o.dur_estimator.is_finite() && o.mem_estimator.is_finite())
    }

    /// Whether the snapshot delivered with `events` is safe to hand to a
    /// learned policy: all feature sources must be finite, or inference
    /// outputs are garbage regardless of the model's health. A `deep`
    /// check scans every query; otherwise only the clock and the queries
    /// that arrived in `events` are checked — they hold the only data
    /// the last deep scan has not seen, so a batch is gated like its
    /// strictest member.
    fn snapshot_is_finite(ctx: &SchedContext<'_>, events: &[SchedEvent], deep: bool) -> bool {
        if deep {
            return ctx.time.is_finite() && ctx.queries.iter().all(Self::query_is_finite);
        }
        ctx.time.is_finite()
            && events.iter().all(|e| match e {
                SchedEvent::QueryArrived(qid) => {
                    ctx.queries.iter().find(|q| q.qid == *qid).is_none_or(Self::query_is_finite)
                }
                _ => true,
            })
    }

    /// Whether delivering `n` more events makes the deep scan due.
    fn deep_scan_due(&self, n: usize) -> bool {
        self.events_since_deep_scan + n as u32 >= DEEP_SCAN_INTERVAL
    }

    /// Counts `n` events against the stats and the deep-scan cadence.
    fn count_events(&mut self, n: usize, deep: bool) {
        self.stats.events += n as u64;
        self.events_since_deep_scan = if deep { 0 } else { self.events_since_deep_scan + n as u32 };
    }

    /// Runs one call of the inner policy (`on_event` or `on_tick`) under
    /// full guarding: `catch_unwind`, health poll, per-decision clamping
    /// with the stale-decision tolerance. Returns the clamped decisions,
    /// or `None` when the inner policy declined a batch or the breaker
    /// tripped (either way the caller falls back: `on_event` to the
    /// fallback policy, `on_tick` to per-event redelivery).
    fn guarded_inner(
        &mut self,
        ctx: &SchedContext<'_>,
        call: impl FnOnce(&mut S) -> Option<Vec<SchedDecision>>,
    ) -> Option<Vec<SchedDecision>> {
        let outcome = catch_unwind(AssertUnwindSafe(|| call(&mut self.inner)));
        // Declining a batch is a supported answer, not a violation, and
        // not a probe either: the engine redelivers the events through
        // `on_event`, which counts the probe there.
        if let Ok(None) = outcome {
            return None;
        }
        self.breaker.answered();
        let Ok(Some(mut decisions)) = outcome else {
            self.stats.panics += 1;
            self.breaker.trip();
            return None;
        };
        if self.inner.health() == PolicyHealth::Degraded {
            self.stats.degraded_health += 1;
            self.breaker.trip();
            return None;
        }
        let mut bad = 0u64;
        let mut stale = 0u64;
        let mut clamped = Vec::with_capacity(decisions.len());
        for d in &mut decisions {
            match clamp_decision(ctx, d) {
                Ok(c) => clamped.push(c),
                // A decision naming a query that is gone from the live
                // context but was cancelled moments ago (deadline, shed
                // or user cancellation — possibly while the breaker was
                // in `Fallback(cooldown)` and a stateful inner policy
                // missed the teardown) is stale, not invalid: drop it
                // without tripping the breaker.
                Err(_)
                    if ctx.queries.iter().all(|q| q.qid != d.query)
                        && self.recently_cancelled.contains(&d.query) =>
                {
                    stale += 1;
                }
                Err(_) => bad += 1,
            }
        }
        self.stats.stale_decisions += stale;
        if bad > 0 {
            self.stats.invalid_decisions += bad;
            self.breaker.trip();
            return None;
        }
        self.breaker.recover();
        Some(clamped)
    }

    /// Runs a feedback hook of the inner policy (online reward updates
    /// and teardown can run arbitrary learned-policy code) under
    /// `catch_unwind`. A panic trips the breaker in every state: the
    /// inner policy is broken even if the fallback is serving.
    fn guarded_hook(&mut self, hook: impl FnOnce(&mut S)) {
        if catch_unwind(AssertUnwindSafe(|| hook(&mut self.inner))).is_err() {
            self.stats.panics += 1;
            self.breaker.trip();
        }
    }
}

impl<S: Scheduler, F: Scheduler> Scheduler for GuardedScheduler<S, F> {
    fn name(&self) -> String {
        format!("guarded({})", self.inner.name())
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        let deep = self.deep_scan_due(1);
        self.count_events(1, deep);
        if !Self::snapshot_is_finite(ctx, std::slice::from_ref(event), deep) {
            self.stats.poisoned_snapshots += 1;
            return self.fallback.on_event(ctx, event);
        }
        if self.breaker.route() == Route::Fallback {
            self.stats.fallback_events += 1;
            return self.fallback.on_event(ctx, event);
        }
        match self.guarded_inner(ctx, |inner| Some(inner.on_event(ctx, event))) {
            Some(ds) => ds,
            None => self.fallback.on_event(ctx, event),
        }
    }

    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        if events.is_empty() {
            return Some(Vec::new());
        }
        // Forward the batch only while the inner policy is serving.
        // Declining (`None`) makes the engine redeliver the events one
        // at a time through `on_event`, so the Fallback cooldown
        // countdown, fallback accounting and poisoned-snapshot counting
        // all run exactly as in the per-event state machine — counters
        // are only touched once the inner policy has served the batch.
        if self.breaker.peek() == Route::Fallback {
            return None;
        }
        let deep = self.deep_scan_due(events.len());
        if !Self::snapshot_is_finite(ctx, events, deep) {
            return None;
        }
        let ds = self.guarded_inner(ctx, |inner| inner.on_tick(ctx, events))?;
        self.count_events(events.len(), deep);
        Some(ds)
    }

    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        self.guarded_hook(|inner| inner.on_decision_executed(ctx, decision));
        self.fallback.on_decision_executed(ctx, decision);
    }

    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        self.guarded_hook(|inner| inner.on_query_finished(time, query));
        self.fallback.on_query_finished(time, query);
    }

    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        // Remember the teardown so a stale decision naming this query
        // later is dropped instead of tripping the breaker.
        if self.recently_cancelled.len() >= CANCELLED_RING {
            self.recently_cancelled.remove(0);
        }
        self.recently_cancelled.push(query);
        self.guarded_hook(|inner| inner.on_query_cancelled(time, query));
        self.fallback.on_query_cancelled(time, query);
    }

    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        // The gate is consulted regardless of breaker state: overload
        // protection is policy-independent.
        match self.admission.as_mut() {
            Some(gate) => gate.admit(ctx, arriving, attempt),
            None => AdmissionResponse::admit(),
        }
    }

    fn health(&self) -> PolicyHealth {
        match self.breaker.state {
            BreakerState::Primary => PolicyHealth::Healthy,
            _ => PolicyHealth::Degraded,
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.fallback.reset();
        self.breaker.reset();
        self.stats = GuardStats::default();
        self.events_since_deep_scan = 0;
        self.recently_cancelled.clear();
        if let Some(gate) = self.admission.as_mut() {
            gate.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::sim::{simulate, SimConfig};
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    /// Emits NaN-poisoned behaviour for the first `bad_events` events
    /// (self-reported as Degraded health, like the learned agent does on
    /// non-finite logits), then behaves as Quickstep.
    struct NanThenRecover {
        bad_events: u32,
        seen: u32,
        delegate: QuickstepScheduler,
    }
    impl Scheduler for NanThenRecover {
        fn name(&self) -> String {
            "nan_then_recover".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            self.seen += 1;
            self.delegate.on_event(ctx, ev)
        }
        fn health(&self) -> PolicyHealth {
            if self.seen <= self.bad_events {
                PolicyHealth::Degraded
            } else {
                PolicyHealth::Healthy
            }
        }
    }

    /// Returns a structurally invalid decision on every event.
    struct ZeroThreads;
    impl Scheduler for ZeroThreads {
        fn name(&self) -> String {
            "zero_threads".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
            ctx.queries
                .first()
                .and_then(|q| q.schedulable_ops().first().copied().map(|root| SchedDecision {
                    query: q.qid,
                    root,
                    pipeline_degree: 1,
                    threads: 0,
                }))
                .into_iter()
                .collect()
        }
    }

    fn workload(n: usize, seed: u64) -> Vec<lsched_engine::sim::WorkloadItem> {
        let pool = tpch::plan_pool(&[0.5]);
        gen_workload(&pool, n, ArrivalPattern::Batch, seed)
    }

    #[test]
    fn breaker_state_machine_table() {
        use BreakerState::{Fallback, Primary, Probing};
        #[derive(Debug, Clone, Copy)]
        enum Step {
            /// `route()`, expecting this route.
            Call(Route),
            Answer,
            Trip,
            Recover,
            Reset,
        }
        use Step::{Answer, Call, Recover, Reset, Trip};
        type Row = (&'static str, u32, &'static [(Step, BreakerState)], (u64, u64, u64));
        // (name, cooldown, steps with the state after each, final
        // (trips, probes, recoveries)).
        let table: &[Row] = &[
            (
                "cooldown 1: one fallback call, then a clean probe",
                1,
                &[
                    (Call(Route::Primary), Primary),
                    (Answer, Primary),
                    (Recover, Primary),
                    (Trip, Fallback { left: 1 }),
                    (Call(Route::Fallback), Probing),
                    (Call(Route::Probe), Probing),
                    (Answer, Probing),
                    (Recover, Primary),
                ],
                (1, 1, 1),
            ),
            (
                "cooldown 0 is clamped to 1",
                0,
                &[(Trip, Fallback { left: 1 }), (Call(Route::Fallback), Probing)],
                (1, 0, 0),
            ),
            (
                "cooldown n: the countdown, a failed probe re-trips, a clean one recovers",
                3,
                &[
                    (Trip, Fallback { left: 3 }),
                    (Call(Route::Fallback), Fallback { left: 2 }),
                    (Call(Route::Fallback), Fallback { left: 1 }),
                    (Call(Route::Fallback), Probing),
                    (Call(Route::Probe), Probing),
                    (Answer, Probing),
                    (Trip, Fallback { left: 3 }),
                    (Call(Route::Fallback), Fallback { left: 2 }),
                    (Call(Route::Fallback), Fallback { left: 1 }),
                    (Call(Route::Fallback), Probing),
                    (Call(Route::Probe), Probing),
                    (Answer, Probing),
                    (Recover, Primary),
                ],
                (2, 2, 1),
            ),
            (
                // A feedback-hook panic trips in any state: in Fallback
                // it counts a trip and re-arms the full cooldown; while
                // Probing it is a trip but not a probe.
                "a trip while in Fallback or Probing re-arms the cooldown",
                3,
                &[
                    (Trip, Fallback { left: 3 }),
                    (Call(Route::Fallback), Fallback { left: 2 }),
                    (Trip, Fallback { left: 3 }),
                    (Call(Route::Fallback), Fallback { left: 2 }),
                    (Call(Route::Fallback), Fallback { left: 1 }),
                    (Call(Route::Fallback), Probing),
                    (Trip, Fallback { left: 3 }),
                ],
                (3, 0, 0),
            ),
            (
                "reset forgets state and counters but keeps the cooldown",
                2,
                &[
                    (Trip, Fallback { left: 2 }),
                    (Call(Route::Fallback), Fallback { left: 1 }),
                    (Reset, Primary),
                    (Call(Route::Primary), Primary),
                    (Trip, Fallback { left: 2 }),
                ],
                (1, 0, 0),
            ),
        ];
        for (name, cooldown, steps, counts) in table {
            let mut b = Breaker::new(*cooldown);
            for (i, &(step, want)) in steps.iter().enumerate() {
                match step {
                    Call(route) => assert_eq!(b.route(), route, "{name}: step {i}"),
                    Answer => b.answered(),
                    Trip => b.trip(),
                    Recover => b.recover(),
                    Reset => b.reset(),
                }
                assert_eq!(b.state, want, "{name}: state after step {i} ({step:?})");
            }
            assert_eq!((b.trips, b.probes, b.recoveries), *counts, "{name}");
        }
    }

    #[test]
    fn feedback_hook_panic_during_fallback_counts_a_trip_and_rearms() {
        struct PanicsOnFinish;
        impl Scheduler for PanicsOnFinish {
            fn name(&self) -> String {
                "panics_on_finish".into()
            }
            fn on_event(&mut self, _: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                Vec::new()
            }
            fn on_query_finished(&mut self, _: f64, _: QueryId) {
                panic!("online update exploded");
            }
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut guard = GuardedScheduler::with_fallback(
            PanicsOnFinish,
            QuickstepScheduler,
            GuardConfig { cooldown_events: 3 },
        );
        guard.on_query_finished(0.0, QueryId(0));
        assert_eq!(guard.state(), BreakerState::Fallback { left: 3 });
        guard.breaker.route();
        assert_eq!(guard.state(), BreakerState::Fallback { left: 2 });
        guard.on_query_finished(1.0, QueryId(1));
        std::panic::set_hook(prev);
        assert_eq!(guard.state(), BreakerState::Fallback { left: 3 }, "the cooldown re-arms");
        let stats = guard.stats();
        assert_eq!((stats.trips, stats.panics, stats.probes), (2, 2, 0), "{stats:?}");
    }

    #[test]
    fn breaker_trips_within_one_event_and_recovers_after_cooldown() {
        let inner = NanThenRecover { bad_events: 3, seen: 0, delegate: QuickstepScheduler };
        let mut guard = GuardedScheduler::with_fallback(
            inner,
            QuickstepScheduler,
            GuardConfig { cooldown_events: 4 },
        );
        let wl = workload(10, 1);
        let res = simulate(SimConfig { num_threads: 4, seed: 1, ..Default::default() }, &wl, &mut guard);
        assert_eq!(res.outcomes.len(), 10, "guarded run must still drain the workload");
        let stats = guard.stats();
        assert!(stats.trips >= 1, "degraded health must trip the breaker");
        assert_eq!(stats.degraded_health, stats.trips);
        assert!(stats.fallback_events >= 4, "cooldown must route events to the fallback");
        assert!(stats.probes >= 1, "the breaker must probe after cooldown");
        assert!(stats.recoveries >= 1, "a recovered policy must be restored");
        assert_eq!(guard.state(), BreakerState::Primary, "ends the run healthy");
        // The only trip from `Primary` is the first; every later trip is
        // a failed probe, and every other probe recovered.
        assert_eq!(stats.probes, stats.recoveries + stats.trips - 1, "{stats:?}");
    }

    #[test]
    fn breaker_trips_on_first_degraded_event() {
        let inner = NanThenRecover { bad_events: u32::MAX, seen: 0, delegate: QuickstepScheduler };
        let mut guard = GuardedScheduler::new(inner);
        let wl = workload(6, 2);
        let res = simulate(SimConfig { num_threads: 4, seed: 2, ..Default::default() }, &wl, &mut guard);
        assert_eq!(res.outcomes.len(), 6);
        let stats = guard.stats();
        // The very first guarded event must already have tripped: every
        // event after it (minus probes) is served by the fallback.
        assert!(stats.trips >= 1);
        assert_eq!(
            stats.events,
            stats.trips + stats.fallback_events + stats.poisoned_snapshots,
            "no event may be served by a policy known to be degraded: {stats:?}"
        );
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn panicking_policy_cannot_kill_the_run() {
        struct Panics;
        impl Scheduler for Panics {
            fn name(&self) -> String {
                "panics".into()
            }
            fn on_event(&mut self, _: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                panic!("inference exploded");
            }
        }
        // Silence the default panic hook for the intentional panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut guard = GuardedScheduler::new(Panics);
        let wl = workload(6, 3);
        let res = simulate(SimConfig { num_threads: 4, seed: 3, ..Default::default() }, &wl, &mut guard);
        std::panic::set_hook(prev);
        assert_eq!(res.outcomes.len(), 6, "fallback must carry the whole run");
        assert!(guard.stats().panics >= 1);
        assert!(guard.stats().trips >= 1);
    }

    #[test]
    fn invalid_decisions_trip_the_breaker() {
        let mut guard = GuardedScheduler::new(ZeroThreads);
        let wl = workload(6, 4);
        let res = simulate(SimConfig { num_threads: 4, seed: 4, ..Default::default() }, &wl, &mut guard);
        assert_eq!(res.outcomes.len(), 6);
        assert!(guard.stats().invalid_decisions >= 1);
        assert!(guard.stats().trips >= 1);
    }

    /// Delegates to Quickstep but keeps re-issuing a decision for the
    /// most recently cancelled query after it left the live context —
    /// modelling a stateful learned policy that missed a teardown
    /// (e.g. while the breaker was in `Fallback(cooldown)`).
    struct StaleAfterCancel {
        cancelled: Vec<QueryId>,
        delegate: QuickstepScheduler,
    }
    impl Scheduler for StaleAfterCancel {
        fn name(&self) -> String {
            "stale_after_cancel".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            let mut ds = self.delegate.on_event(ctx, ev);
            if let Some(&qid) = self.cancelled.last() {
                if ctx.queries.iter().all(|q| q.qid != qid) {
                    ds.push(SchedDecision {
                        query: qid,
                        root: lsched_engine::plan::OpId(0),
                        pipeline_degree: 1,
                        threads: 1,
                    });
                }
            }
            ds
        }
        fn on_query_cancelled(&mut self, _time: f64, query: QueryId) {
            // Deliberately remembers instead of forgetting: the stale
            // entry is the bug under test.
            self.cancelled.push(query);
        }
    }

    #[test]
    fn stale_decision_for_cancelled_query_does_not_trip_the_breaker() {
        let mut wl = workload(6, 7);
        // Query 0 times out immediately: its deadline event fires at its
        // own arrival instant, before any work order can complete.
        wl[0] = wl[0].clone().with_deadline(0.0);
        let inner = StaleAfterCancel { cancelled: Vec::new(), delegate: QuickstepScheduler };
        let mut guard = GuardedScheduler::new(inner);
        let res =
            simulate(SimConfig { num_threads: 4, seed: 7, ..Default::default() }, &wl, &mut guard);
        assert_eq!(res.outcomes.len() + res.aborted.len(), 6, "every query gets a final fate");
        assert_eq!(res.resilience.deadline_timeouts, 1);
        let stats = guard.stats();
        assert!(
            stats.stale_decisions >= 1,
            "the policy re-issued decisions for the cancelled query: {stats:?}"
        );
        assert_eq!(stats.trips, 0, "stale decisions must not trip the breaker: {stats:?}");
        assert_eq!(stats.invalid_decisions, 0);
        assert_eq!(guard.state(), BreakerState::Primary);
    }

    #[test]
    fn admission_gate_sheds_through_the_guard_deterministically() {
        use crate::admission::{Admission, AdmissionConfig};
        let run = || {
            let gate = Admission::new(AdmissionConfig {
                max_queued: 1,
                resume_queued: 0,
                ..Default::default()
            });
            let mut guard = GuardedScheduler::new(QuickstepScheduler).with_admission(gate);
            let wl = workload(20, 8);
            let res = simulate(
                SimConfig { num_threads: 2, seed: 8, ..Default::default() },
                &wl,
                &mut guard,
            );
            let stats = guard.admission_stats().expect("gate installed via with_admission");
            (res, stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert!(a.resilience.shed >= 1, "a batch arrival must overflow max_queued=1: {sa:?}");
        assert_eq!(
            a.outcomes.len() + a.aborted.len(),
            20,
            "shed queries still get a final fate"
        );
        assert_eq!(sa, sb, "gate counters must be deterministic");
        assert_eq!(a.resilience.shed, b.resilience.shed);
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "admission + guard must stay bit-identical across runs"
        );
    }

    /// A primary admission gate with a scripted failure mode.
    enum GateFault {
        Panic,
        NonFiniteDelay,
        ShedArrival,
        DegradedHealth,
        None,
    }
    struct FaultyGate {
        fault: GateFault,
        /// Arrivals before the fault starts firing.
        after: u64,
        seen: u64,
    }
    impl crate::admission::AdmissionGate for FaultyGate {
        fn name(&self) -> String {
            "faulty_test_gate".into()
        }
        fn admit(
            &mut self,
            _ctx: &SchedContext<'_>,
            arriving: QueryId,
            _attempt: u32,
        ) -> AdmissionResponse {
            self.seen += 1;
            if self.seen <= self.after {
                return AdmissionResponse::admit();
            }
            match self.fault {
                GateFault::Panic => panic!("predictor exploded"),
                GateFault::NonFiniteDelay => AdmissionResponse {
                    action: lsched_engine::scheduler::AdmitAction::Defer { delay: f64::NAN },
                    shed: Vec::new(),
                },
                GateFault::ShedArrival => {
                    AdmissionResponse { action: lsched_engine::scheduler::AdmitAction::Admit, shed: vec![arriving] }
                }
                GateFault::DegradedHealth | GateFault::None => AdmissionResponse::admit(),
            }
        }
        fn health(&self) -> PolicyHealth {
            if matches!(self.fault, GateFault::DegradedHealth) && self.seen > self.after {
                PolicyHealth::Degraded
            } else {
                PolicyHealth::Healthy
            }
        }
        fn reset(&mut self) {
            self.seen = 0;
        }
    }

    fn stack_with(fault: GateFault, after: u64) -> AdmissionStack {
        use crate::admission::{Admission, AdmissionConfig};
        AdmissionStack::with_primary(
            Box::new(FaultyGate { fault, after, seen: 0 }),
            Admission::new(AdmissionConfig { max_queued: 1, resume_queued: 0, ..Default::default() }),
            4,
        )
    }

    /// Each fault mode must trip the gate breaker and degrade to the
    /// hysteresis gate — which keeps shedding (never admit-everything).
    fn assert_trips_and_hysteresis_sheds(fault: GateFault) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut guard = GuardedScheduler::new(QuickstepScheduler)
            .with_admission_stack(stack_with(fault, 0));
        let wl = workload(20, 8);
        let res =
            simulate(SimConfig { num_threads: 2, seed: 8, ..Default::default() }, &wl, &mut guard);
        std::panic::set_hook(prev);
        let stats = guard.gate_stats().expect("stack installed");
        assert!(stats.trips >= 1, "the fault must trip the gate breaker: {stats:?}");
        assert!(stats.fallback_arrivals >= 1, "cooldown must route arrivals to hysteresis");
        assert!(
            res.resilience.shed >= 1,
            "degraded admission must still shed under a 20-query burst at max_queued=1, \
             never fall open: {stats:?}"
        );
        assert_eq!(res.outcomes.len() + res.aborted.len(), 20);
    }

    #[test]
    fn panicking_gate_degrades_to_hysteresis() {
        assert_trips_and_hysteresis_sheds(GateFault::Panic);
    }

    #[test]
    fn non_finite_defer_delay_trips_the_gate_breaker() {
        assert_trips_and_hysteresis_sheds(GateFault::NonFiniteDelay);
    }

    #[test]
    fn shedding_the_arrival_itself_is_vetted_as_invalid() {
        assert_trips_and_hysteresis_sheds(GateFault::ShedArrival);
    }

    #[test]
    fn degraded_gate_health_trips_the_gate_breaker() {
        assert_trips_and_hysteresis_sheds(GateFault::DegradedHealth);
    }

    #[test]
    fn gate_breaker_probes_and_recovers_a_healthy_primary() {
        // Degraded on the first arrival only: the trip serves a 2-
        // arrival cooldown through hysteresis, then a probe must restore
        // the (now healthy) primary gate.
        let mut guard = GuardedScheduler::new(QuickstepScheduler).with_admission_stack({
            use crate::admission::{Admission, AdmissionConfig};
            AdmissionStack::with_primary(
                Box::new(HealAfter { bad_arrivals: 1, seen: 0 }),
                Admission::new(AdmissionConfig::default()),
                2,
            )
        });
        let wl = workload(20, 9);
        let cfg = SimConfig { num_threads: 2, seed: 9, ..Default::default() };
        simulate(cfg, &wl, &mut guard);
        let s = guard.gate_stats().expect("stack installed");
        assert!(s.trips >= 1);
        assert!(s.probes >= 1, "cooldown must end in a probe: {s:?}");
        assert!(s.recoveries >= 1, "a healed gate must be restored: {s:?}");
        assert_eq!(guard.gate_state(), Some(BreakerState::Primary));
        // The only trip from `Primary` is the first; every later trip is
        // a failed probe, and every other probe recovered.
        assert_eq!(s.probes, s.recoveries + s.trips - 1, "{s:?}");
    }

    /// Degraded for the first `bad_arrivals` arrivals, healthy after.
    struct HealAfter {
        bad_arrivals: u64,
        seen: u64,
    }
    impl crate::admission::AdmissionGate for HealAfter {
        fn name(&self) -> String {
            "heal_after_test_gate".into()
        }
        fn admit(
            &mut self,
            _ctx: &SchedContext<'_>,
            _arriving: QueryId,
            _attempt: u32,
        ) -> AdmissionResponse {
            self.seen += 1;
            AdmissionResponse::admit()
        }
        fn health(&self) -> PolicyHealth {
            if self.seen <= self.bad_arrivals {
                PolicyHealth::Degraded
            } else {
                PolicyHealth::Healthy
            }
        }
    }

    #[test]
    fn admission_stack_is_deterministic_across_runs() {
        let run = || {
            let mut guard = GuardedScheduler::new(QuickstepScheduler)
                .with_admission_stack(stack_with(GateFault::None, 0));
            let wl = workload(20, 10);
            let res = simulate(
                SimConfig { num_threads: 2, seed: 10, ..Default::default() },
                &wl,
                &mut guard,
            );
            (res.makespan.to_bits(), guard.gate_stats().unwrap())
        };
        let (m1, s1) = run();
        let (m2, s2) = run();
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert_eq!(s1.trips, 0, "a sane gate must never trip: {s1:?}");
    }

    #[test]
    fn guard_is_transparent_for_a_healthy_policy() {
        let wl = workload(8, 5);
        let cfg = SimConfig { num_threads: 4, seed: 5, ..Default::default() };
        let bare = simulate(cfg.clone(), &wl, &mut QuickstepScheduler);
        let mut guard = GuardedScheduler::new(QuickstepScheduler);
        let guarded = simulate(cfg, &wl, &mut guard);
        assert_eq!(bare.makespan.to_bits(), guarded.makespan.to_bits(), "guard must not alter a healthy policy's schedule");
        assert_eq!(guard.stats().trips, 0);
        assert_eq!(guard.stats().fallback_events, 0);
        assert_eq!(guard.state(), BreakerState::Primary);
    }
}
