//! In-memory span recording and wall-time attribution for traced runs.
//!
//! Spans are recorded from outside the system: wrappers around the
//! scheduler and admission-gate objects the benchmark hands to the
//! simulator, and timers around the public calls the benchmark makes.
//! Each wrapper keeps its spans and counts in a local buffer and moves
//! them into the process-wide sink when it is dropped, so a hot call
//! costs two clock reads and a vector push.
//!
//! [`attribute`] splits a traced window of wall time over the layers:
//! at every instant, each thread is in its innermost open span; the
//! instant's wall time is shared evenly among the threads doing work,
//! and a *passive* span (a thread blocked waiting on workers) gets time
//! only while no other thread works. Time no span covers is
//! `unattributed`. The per-layer self times plus `unattributed` add up
//! to the window's wall time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use lsched_core::features::{snapshot_cached, FeatureConfig, SnapshotCache, SystemSnapshot};
use lsched_core::LSchedScheduler;
use lsched_engine::scheduler::{
    AdmissionResponse, AdmitAction, PolicyHealth, QueryId, SchedContext, SchedDecision, SchedEvent,
    Scheduler,
};
use lsched_sched::{AdmissionGate, GuardedScheduler};
use lsched_serve::{AdmissionReport, HealthReport};

/// A layer boundary the benchmark records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A simulator run (`try_simulate`, or one shard's run inside
    /// `serve_supervised`); its self time is the event loop.
    EngineSim,
    /// `GuardedScheduler` calls, minus the wrapped policy.
    SchedGuard,
    /// A heuristic policy's `on_event` / `on_tick`.
    SchedPolicy,
    /// `LSchedScheduler::on_event` / `on_tick` (snapshot, encode, heads).
    CoreLsched,
    /// `Scheduler::admit` through the guard and the admission stack.
    Admission,
    /// `serve_supervised`; passive while shard threads run.
    ServeSupervisor,
    /// One training rollout (scheduler set-up, returns), minus its
    /// simulator run.
    TrainRollout,
    /// `accumulate_rollout_gradients_with` (replay forward + backward).
    TrainGrad,
    /// Gradient clipping plus the Adam step.
    OptimStep,
    /// Work the tracer itself adds: the snapshots captured for replay.
    Capture,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 10;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::EngineSim,
        Layer::SchedGuard,
        Layer::SchedPolicy,
        Layer::CoreLsched,
        Layer::Admission,
        Layer::ServeSupervisor,
        Layer::TrainRollout,
        Layer::TrainGrad,
        Layer::OptimStep,
        Layer::Capture,
    ];

    fn idx(self) -> usize {
        self as usize
    }

    /// Whether the span only waits on other threads.
    fn passive(self) -> bool {
        matches!(self, Layer::ServeSupervisor)
    }
}

/// One recorded span: `[start, end)` in nanoseconds since the process
/// epoch, on a small per-thread id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    thread: u32,
    layer: Layer,
    start: u64,
    end: u64,
}

/// Spans, per-call durations and counts, either a wrapper's local
/// buffer or the process-wide sink.
#[derive(Debug, Default)]
pub struct Record {
    /// Completed spans.
    pub spans: Vec<Span>,
    /// Per-call durations (ns) per layer, for latency percentiles.
    pub durations: [Vec<u64>; LAYERS],
    /// Named event counts.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Record {
    fn push(&mut self, layer: Layer, start: u64, end: u64) {
        self.spans.push(Span {
            thread: thread_id(),
            layer,
            start,
            end,
        });
        self.durations[layer.idx()].push(end - start);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn absorb(&mut self, other: &mut Record) {
        self.spans.append(&mut other.spans);
        for (mine, theirs) in self.durations.iter_mut().zip(other.durations.iter_mut()) {
            mine.append(theirs);
        }
        for (name, n) in std::mem::take(&mut other.counts) {
            self.add(name, n);
        }
    }

    /// Moves this buffer into the process-wide sink.
    fn flush(&mut self) {
        sink()
            .lock()
            .expect("trace sink poisoned by a panicking recorder")
            .absorb(self);
    }
}

fn sink() -> &'static Mutex<Record> {
    static SINK: OnceLock<Mutex<Record>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Record::default()))
}

/// Nanoseconds since the first clock read of the process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// Runs `f` inside a span of `layer` recorded straight into the sink
/// (for the few coarse spans the benchmark opens itself).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let mut local = Record::default();
    local.push(layer, start, end);
    local.flush();
    out
}

/// Adds `n` to the named count in the sink.
pub fn count(name: &'static str, n: u64) {
    let mut local = Record::default();
    local.add(name, n);
    local.flush();
}

/// Takes everything recorded since the last call.
pub fn take() -> Record {
    std::mem::take(
        &mut *sink()
            .lock()
            .expect("trace sink poisoned by a panicking recorder"),
    )
}

/// A traced window's wall time split over the layers.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self seconds per layer, indexed like [`Layer::ALL`].
    pub self_s: [f64; LAYERS],
    /// Seconds no span covered.
    pub unattributed_s: f64,
    /// The window's wall seconds.
    pub wall_s: f64,
}

impl Attribution {
    /// Self seconds of `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.self_s[layer.idx()]
    }

    /// `|wall − (Σ self + unattributed)|` — zero up to float rounding.
    pub fn residual_s(&self) -> f64 {
        (self.wall_s - self.self_s.iter().sum::<f64>() - self.unattributed_s).abs()
    }
}

/// The innermost-span timeline of one thread: non-overlapping
/// `(start, end, layer)` segments in time order; gaps are idle.
fn timeline(mut spans: Vec<Span>) -> Vec<(u64, u64, Layer)> {
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut out = Vec::with_capacity(spans.len() * 2);
    let mut stack: Vec<Span> = Vec::new();
    let mut cursor = 0u64;
    let mut emit = |a: u64, b: u64, layer: Layer| {
        if b > a {
            out.push((a, b, layer));
        }
    };
    for mut s in spans {
        while let Some(top) = stack.last().copied() {
            if top.end > s.start {
                break;
            }
            emit(cursor, top.end, top.layer);
            cursor = cursor.max(top.end);
            stack.pop();
        }
        if let Some(top) = stack.last() {
            emit(cursor, s.start, top.layer);
            // Spans on one thread nest; clip a child to its parent anyway.
            s.end = s.end.min(top.end);
        }
        cursor = cursor.max(s.start);
        stack.push(s);
    }
    while let Some(top) = stack.pop() {
        emit(cursor, top.end, top.layer);
        cursor = cursor.max(top.end);
    }
    out
}

/// Splits the wall time of `[w0, w1)` over the layers of `spans`.
pub fn attribute(spans: &[Span], w0: u64, w1: u64) -> Attribution {
    let mut per_thread: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for s in spans {
        let (start, end) = (s.start.max(w0), s.end.min(w1));
        if end > start {
            per_thread
                .entry(s.thread)
                .or_default()
                .push(Span { start, end, ..*s });
        }
    }
    let lines: Vec<Vec<(u64, u64, Layer)>> = per_thread.into_values().map(timeline).collect();

    let mut bounds: Vec<u64> = vec![w0, w1];
    for line in &lines {
        for &(a, b, _) in line {
            bounds.push(a);
            bounds.push(b);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    let mut self_ns = [0f64; LAYERS];
    let mut gap_ns = 0u64;
    let mut cursors = vec![0usize; lines.len()];
    let mut working: Vec<Layer> = Vec::with_capacity(lines.len());
    let mut waiting: Vec<Layer> = Vec::with_capacity(lines.len());
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        working.clear();
        waiting.clear();
        for (line, cur) in lines.iter().zip(cursors.iter_mut()) {
            while *cur < line.len() && line[*cur].1 <= a {
                *cur += 1;
            }
            // Every segment edge is a bound, so a segment either covers
            // [a, b) entirely or not at all.
            if let Some(&(s, _, layer)) = line.get(*cur) {
                if s <= a {
                    if layer.passive() {
                        waiting.push(layer);
                    } else {
                        working.push(layer);
                    }
                }
            }
        }
        let owners = if working.is_empty() {
            &waiting
        } else {
            &working
        };
        if owners.is_empty() {
            gap_ns += b - a;
        } else {
            let share = (b - a) as f64 / owners.len() as f64;
            for layer in owners.iter() {
                self_ns[layer.idx()] += share;
            }
        }
    }
    let mut out = Attribution {
        unattributed_s: gap_ns as f64 * 1e-9,
        wall_s: (w1 - w0) as f64 * 1e-9,
        ..Default::default()
    };
    for (o, ns) in out.self_s.iter_mut().zip(self_ns) {
        *o = ns * 1e-9;
    }
    out
}

/// The `p`-quantile (0..=1) of unsorted nanosecond samples, in µs.
pub fn quantile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx] as f64 * 1e-3
}

/// One LSched invocation captured for the replay that splits its cost
/// into snapshot, encode and decide.
pub struct Sample {
    /// The snapshot the policy decided on, rebuilt outside its span.
    pub snap: SystemSnapshot,
    /// Events in the tick batch, or 0 for a per-event call.
    pub tick_events: usize,
    /// What the live policy returned.
    pub live: Vec<SchedDecision>,
}

/// Snapshot capture state of a [`Probe`] around LSched.
struct Capture {
    feat: FeatureConfig,
    cache: SnapshotCache,
    keep_every: u64,
    max_samples: usize,
    samples: Vec<Sample>,
}

/// Times every decision call into a policy as one layer and counts the
/// calls, tick batches and decisions it returns. Around LSched it also
/// rebuilds each call's snapshot (timed as [`Layer::Capture`]) and keeps
/// a deterministic subsample for replay.
pub struct Probe<S: Scheduler> {
    inner: S,
    layer: Layer,
    local: Record,
    calls: u64,
    last: Vec<SchedDecision>,
    capture: Option<Capture>,
    snapshot_ns: Vec<u64>,
}

impl<S: Scheduler> Probe<S> {
    /// Wraps a policy whose calls are recorded as `layer`.
    pub fn new(inner: S, layer: Layer) -> Self {
        Self {
            inner,
            layer,
            local: Record::default(),
            calls: 0,
            last: Vec::new(),
            capture: None,
            snapshot_ns: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped policy, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Invocations captured for replay (empty unless capturing).
    pub fn samples(&self) -> &[Sample] {
        self.capture.as_ref().map_or(&[], |c| &c.samples)
    }

    /// Nanoseconds each captured `snapshot_cached` call took.
    pub fn snapshot_ns(&self) -> &[u64] {
        &self.snapshot_ns
    }

    fn names(&self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self.layer {
            Layer::CoreLsched => (
                "core.lsched.invocations",
                "core.lsched.tick_batches",
                "core.lsched.per_event_calls",
                "core.lsched.decisions",
            ),
            _ => (
                "sched.policy.invocations",
                "sched.policy.tick_batches",
                "sched.policy.per_event_calls",
                "sched.policy.decisions",
            ),
        }
    }

    fn capture_snapshot(&mut self, ctx: &SchedContext<'_>) -> Option<SystemSnapshot> {
        let cap = self.capture.as_mut()?;
        let start = now_ns();
        let snap = snapshot_cached(&cap.feat, ctx, &mut cap.cache);
        let end = now_ns();
        self.local.push(Layer::Capture, start, end);
        self.snapshot_ns.push(end - start);
        let keep = self.calls.is_multiple_of(cap.keep_every) && cap.samples.len() < cap.max_samples;
        keep.then_some(snap)
    }

    fn keep_sample(&mut self, snap: Option<SystemSnapshot>, tick_events: usize) {
        if let (Some(snap), Some(cap)) = (snap, self.capture.as_mut()) {
            cap.samples.push(Sample {
                snap,
                tick_events,
                live: self.last.clone(),
            });
        }
    }
}

impl Probe<LSchedScheduler> {
    /// Wraps LSched, capturing every `keep_every`-th invocation (at most
    /// `max_samples`) for the decision replay.
    pub fn lsched(inner: LSchedScheduler, keep_every: u64, max_samples: usize) -> Self {
        let feat = inner.model().feature_config().clone();
        let mut probe = Self::new(inner, Layer::CoreLsched);
        probe.capture = Some(Capture {
            feat,
            cache: SnapshotCache::new(),
            keep_every: keep_every.max(1),
            max_samples,
            samples: Vec::new(),
        });
        probe
    }
}

impl<S: Scheduler> Drop for Probe<S> {
    fn drop(&mut self) {
        self.local.flush();
    }
}

impl<S: Scheduler> Scheduler for Probe<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        let snap = self.capture_snapshot(ctx);
        let start = now_ns();
        let out = self.inner.on_event(ctx, event);
        self.local.push(self.layer, start, now_ns());
        let (inv, _, per_event, decisions) = self.names();
        self.local.add(inv, 1);
        self.local.add(per_event, 1);
        self.local.add(decisions, out.len() as u64);
        self.calls += 1;
        self.last.clone_from(&out);
        self.keep_sample(snap, 0);
        out
    }
    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        let snap = self.capture_snapshot(ctx);
        let start = now_ns();
        let out = self.inner.on_tick(ctx, events);
        self.local.push(self.layer, start, now_ns());
        self.calls += 1;
        let (inv, ticks, _, decisions) = self.names();
        self.local.add(inv, 1);
        match &out {
            Some(ds) => {
                self.local.add(ticks, 1);
                self.local.add(decisions, ds.len() as u64);
                self.last.clone_from(ds);
                self.keep_sample(snap, events.len());
            }
            None => self.last.clear(),
        }
        out
    }
    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        self.inner.admit(ctx, arriving, attempt)
    }
    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        self.inner.on_decision_executed(ctx, decision);
    }
    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        if let Some(cap) = self.capture.as_mut() {
            cap.cache.evict(query);
        }
        self.inner.on_query_finished(time, query);
    }
    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        if let Some(cap) = self.capture.as_mut() {
            cap.cache.evict(query);
        }
        self.inner.on_query_cancelled(time, query);
    }
    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }
    fn reset(&mut self) {
        if let Some(cap) = self.capture.as_mut() {
            cap.cache.clear();
        }
        self.inner.reset();
    }
}

/// Times every call into a [`GuardedScheduler`] (decisions as
/// [`Layer::SchedGuard`], arrivals as [`Layer::Admission`]) around a
/// [`Probe`]-wrapped policy, and counts decisions the guard clamped.
/// As a serving shard's scheduler its lifetime — which brackets the
/// shard's simulator run — is recorded as [`Layer::EngineSim`].
pub struct GuardProbe<S: Scheduler> {
    guard: GuardedScheduler<Probe<S>>,
    local: Record,
    clamped: u64,
    born: Option<u64>,
}

impl<S: Scheduler> GuardProbe<S> {
    /// Wraps a guarded, probed policy.
    pub fn new(guard: GuardedScheduler<Probe<S>>) -> Self {
        Self {
            guard,
            local: Record::default(),
            clamped: 0,
            born: None,
        }
    }

    /// Like [`GuardProbe::new`], also recording the wrapper's lifetime
    /// as the shard's simulator span.
    pub fn shard(guard: GuardedScheduler<Probe<S>>) -> Self {
        Self {
            guard,
            local: Record::default(),
            clamped: 0,
            born: Some(now_ns()),
        }
    }

    /// The guarded scheduler.
    pub fn guard(&self) -> &GuardedScheduler<Probe<S>> {
        &self.guard
    }

    /// Decisions the guard changed or dropped relative to what the
    /// policy returned from the call it just served.
    fn count_clamped(&mut self, calls_before: u64, out: &[SchedDecision]) {
        let probe = self.guard.inner();
        if probe.calls != calls_before + 1 {
            return;
        }
        let changed = probe.last.iter().zip(out).filter(|(a, b)| a != b).count();
        let dropped = probe.last.len().saturating_sub(out.len());
        self.clamped += (changed + dropped) as u64;
    }
}

impl<S: Scheduler> Drop for GuardProbe<S> {
    fn drop(&mut self) {
        let stats = self.guard.stats();
        self.local.add("sched.guard.events", stats.events);
        self.local.add("sched.guard.trips", stats.trips);
        self.local
            .add("sched.guard.fallback_events", stats.fallback_events);
        self.local.add("sched.guard.clamped", self.clamped);
        if let Some(born) = self.born {
            self.local.push(Layer::EngineSim, born, now_ns());
        }
        self.local.flush();
    }
}

impl<S: Scheduler> Scheduler for GuardProbe<S> {
    fn name(&self) -> String {
        self.guard.name()
    }
    fn on_event(&mut self, ctx: &SchedContext<'_>, event: &SchedEvent) -> Vec<SchedDecision> {
        let before = self.guard.inner().calls;
        let start = now_ns();
        let out = self.guard.on_event(ctx, event);
        self.local.push(Layer::SchedGuard, start, now_ns());
        self.count_clamped(before, &out);
        out
    }
    fn on_tick(
        &mut self,
        ctx: &SchedContext<'_>,
        events: &[SchedEvent],
    ) -> Option<Vec<SchedDecision>> {
        let before = self.guard.inner().calls;
        let start = now_ns();
        let out = self.guard.on_tick(ctx, events);
        self.local.push(Layer::SchedGuard, start, now_ns());
        if let Some(ds) = &out {
            self.count_clamped(before, ds);
        }
        out
    }
    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        let start = now_ns();
        let out = self.guard.admit(ctx, arriving, attempt);
        self.local.push(Layer::Admission, start, now_ns());
        out
    }
    fn on_decision_executed(&mut self, ctx: &SchedContext<'_>, decision: &SchedDecision) {
        self.guard.on_decision_executed(ctx, decision);
    }
    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        self.guard.on_query_finished(time, query);
    }
    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        self.guard.on_query_cancelled(time, query);
    }
    fn health(&self) -> PolicyHealth {
        self.guard.health()
    }
    fn reset(&mut self) {
        self.guard.reset();
    }
}

impl<S: Scheduler> AdmissionReport for GuardProbe<S> {
    fn admission_report(&self) -> Option<lsched_sched::AdmissionStats> {
        self.guard.admission_report()
    }
}

impl<S: Scheduler> HealthReport for GuardProbe<S> {
    fn guard_report(&self) -> Option<lsched_sched::GuardStats> {
        self.guard.guard_report()
    }
    fn ended_degraded(&self) -> bool {
        self.guard.ended_degraded()
    }
}

/// Counts the verdicts of the primary admission gate it wraps.
pub struct GateProbe<G: AdmissionGate> {
    inner: G,
    local: Record,
}

impl<G: AdmissionGate> GateProbe<G> {
    /// Wraps a gate.
    pub fn new(inner: G) -> Self {
        Self {
            inner,
            local: Record::default(),
        }
    }
}

impl<G: AdmissionGate> Drop for GateProbe<G> {
    fn drop(&mut self) {
        self.local.flush();
    }
}

impl<G: AdmissionGate> AdmissionGate for GateProbe<G> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn admit(
        &mut self,
        ctx: &SchedContext<'_>,
        arriving: QueryId,
        attempt: u32,
    ) -> AdmissionResponse {
        let out = self.inner.admit(ctx, arriving, attempt);
        self.local.add("admission.calls", 1);
        self.local.add(
            match out.action {
                AdmitAction::Admit => "admission.admitted",
                AdmitAction::Defer { .. } => "admission.deferred_verdicts",
                AdmitAction::Reject => "admission.rejected",
            },
            1,
        );
        self.local.add("admission.victims", out.shed.len() as u64);
        out
    }
    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            thread,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_split_into_self_times() {
        let spans = [
            span(0, Layer::EngineSim, 0, 100),
            span(0, Layer::SchedGuard, 20, 50),
            span(0, Layer::SchedPolicy, 30, 40),
        ];
        let a = attribute(&spans, 0, 120);
        assert_eq!(a.get(Layer::EngineSim), 70e-9);
        assert_eq!(a.get(Layer::SchedGuard), 20e-9);
        assert_eq!(a.get(Layer::SchedPolicy), 10e-9);
        assert_eq!(a.unattributed_s, 20e-9);
        assert!(a.residual_s() < 1e-18);
    }

    #[test]
    fn parallel_threads_share_wall_and_passive_spans_wait() {
        let spans = [
            span(0, Layer::ServeSupervisor, 0, 100),
            span(1, Layer::EngineSim, 10, 100),
            span(2, Layer::SchedPolicy, 50, 90),
        ];
        let a = attribute(&spans, 0, 100);
        // Only the supervisor runs in [0, 10); one shard in [10, 50) and
        // [90, 100); both shards share [50, 90).
        assert_eq!(a.get(Layer::ServeSupervisor), 10e-9);
        assert_eq!(a.get(Layer::EngineSim), 70e-9);
        assert_eq!(a.get(Layer::SchedPolicy), 20e-9);
        assert_eq!(a.unattributed_s, 0.0);
    }

    #[test]
    fn spans_are_clipped_to_the_window() {
        let spans = [span(0, Layer::TrainGrad, 5, 30)];
        let a = attribute(&spans, 10, 20);
        assert_eq!(a.get(Layer::TrainGrad), 10e-9);
        assert_eq!(a.wall_s, 10e-9);
    }
}
