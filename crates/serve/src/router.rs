//! Deterministic tenant → shard routing with weighted SLO classes and
//! hysteresis-gated query migration.
//!
//! The router is the serving layer's control plane: every arriving query
//! belongs to a tenant, every tenant has a home shard (a stable hash of
//! the tenant id), and queries flow to the home shard in arrival order —
//! a per-tenant FIFO. When a shard's estimated backlog or queue depth
//! crosses a hysteresis threshold the router migrates arriving work at
//! admission time: the tenant is re-homed to the least-loaded shard and
//! its *subsequent* queries follow it there (in-flight queries never
//! move, so shard-local execution state stays untouched).
//!
//! Everything here is a pure function of the arrival sequence: the load
//! model is built from optimizer estimates ([`plan_est_cost`]), the hash
//! is FNV-1a, ties break on the lowest shard id, and no RNG is ever
//! consumed — so a routed run is bit-reproducible and the simulator's
//! chaos/bit-identity property tests keep holding through the router.

use lsched_core::features::squash;
use lsched_core::plan_est_cost;
use lsched_engine::plan::PhysicalPlan;
use lsched_engine::sim::WorkloadItem;
use std::collections::{HashMap, VecDeque};

/// Tenant identity. Multi-tenant callers map API keys / org ids onto
/// this; single-tenant callers can use a constant.
pub type TenantId = u64;

/// A weighted SLO class, layered onto the engine's existing
/// priority/deadline machinery: the class floor-lifts the item's
/// shedding priority and tightens (never loosens) its latency budget.
/// `weight` is the serving-layer share: tenants at or above
/// [`STICKY_WEIGHT`] keep shard affinity under pressure instead of being
/// migrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloClass {
    /// Serving share weight (higher = more protected).
    pub weight: u32,
    /// Shedding-priority floor applied to every query of the class.
    pub priority: i32,
    /// Latency budget (seconds); `None` leaves the item's own deadline.
    pub deadline: Option<f64>,
}

impl SloClass {
    /// The neutral class: weight 1, priority floor 0, no deadline.
    /// Applying it to a default item is the identity — the precondition
    /// for the 1-shard bit-identity property.
    pub fn best_effort() -> Self {
        Self { weight: 1, priority: 0, deadline: None }
    }

    /// Standard paid tier: moderate weight, positive priority floor.
    pub fn silver() -> Self {
        Self { weight: 4, priority: 1, deadline: None }
    }

    /// Premium tier: high weight (sticky under default router config),
    /// high priority floor and a latency budget.
    pub fn gold() -> Self {
        Self { weight: 16, priority: 3, deadline: Some(30.0) }
    }

    /// Layers this class onto a workload item: priority becomes the max
    /// of the item's own and the class floor; the deadline becomes the
    /// tighter of the two budgets.
    pub fn apply(&self, mut item: WorkloadItem) -> WorkloadItem {
        item.priority = item.priority.max(self.priority);
        item.deadline = match (item.deadline, self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        item
    }
}

/// One query of a tenant, as the serving layer sees it.
#[derive(Debug, Clone)]
pub struct TenantQuery {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The tenant's SLO class.
    pub class: SloClass,
    /// The underlying workload item.
    pub item: WorkloadItem,
}

/// Assigns tenants and classes to a plain workload: query `i` belongs to
/// tenant `i % tenants`, and tenant `t` gets `classes[t % classes.len()]`
/// (best-effort when `classes` is empty). Deterministic by construction.
pub fn tenantize(
    workload: &[WorkloadItem],
    tenants: u64,
    classes: &[SloClass],
) -> Vec<TenantQuery> {
    let tenants = tenants.max(1);
    workload
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let tenant = i as u64 % tenants;
            let class = if classes.is_empty() {
                SloClass::best_effort()
            } else {
                classes[(tenant % classes.len() as u64) as usize]
            };
            TenantQuery { tenant, class, item: item.clone() }
        })
        .collect()
}

/// Pressure onset: a shard's backlog exceeds `STEAL_RATIO ×` the
/// cross-shard mean plus [`RouterConfig::backlog_slack`].
pub const STEAL_RATIO: f64 = 1.5;
/// Pressure release: the backlog falls back to at most `RESUME_RATIO ×`
/// the mean plus the slack.
pub const RESUME_RATIO: f64 = 1.1;
/// Absolute queue-depth pressure trigger.
pub const MAX_QUEUE_DEPTH: usize = 4096;
/// Tenants whose class weight is at or above this never migrate (shard
/// affinity for premium tenants).
pub const STICKY_WEIGHT: u32 = 16;

/// Router tuning knobs. The pressure test is hysteretic: a shard becomes
/// pressured when its backlog exceeds [`STEAL_RATIO`] `×` the
/// cross-shard mean (plus `backlog_slack` seconds of absolute slack, so
/// near-idle fleets never flap) or its queue depth exceeds
/// [`MAX_QUEUE_DEPTH`], and it stays pressured until the backlog falls
/// back under [`RESUME_RATIO`] `×` the mean — the same enter-high /
/// exit-low shape as the admission gate.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Worker threads per shard — converts estimated work (thread-
    /// seconds) into backlog wall-seconds.
    pub threads_per_shard: usize,
    /// Absolute slack (seconds) under which imbalance is ignored.
    pub backlog_slack: f64,
}

impl RouterConfig {
    /// Sensible defaults for `shards` shards of `threads` workers each.
    pub fn new(shards: usize, threads: usize) -> Self {
        Self {
            shards: shards.max(1),
            threads_per_shard: threads.max(1),
            backlog_slack: 0.05,
        }
    }
}

/// Counters the router reports about one routed workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// Queries routed.
    pub routed: u64,
    /// Tenant re-homings triggered by shard pressure.
    pub migrations: u64,
    /// Shard transitions into the pressured state.
    pub pressured_onsets: u64,
    /// Migrations suppressed because the tenant's weight made it sticky.
    pub sticky_holds: u64,
    /// Queries placed per shard.
    pub per_shard: Vec<u64>,
}

/// FNV-1a over the tenant id's little-endian bytes: a stable, platform-
/// independent home-shard hash.
fn fnv1a(tenant: TenantId) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tenant.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The placement key pressure migration and failover minimize: the
/// shard's projected backlog after placing an item of `wall` estimated
/// wall-seconds there, log-compressed and compared as an `f32`. The
/// `f32` rounding is part of the rule — shards whose projected backlogs
/// differ by less than its resolution tie, and the callers break ties
/// by shard id — so comparing the raw `f64` sums instead would change
/// routing.
fn migration_key(backlog: f64, wall: f64) -> f32 {
    squash(backlog + wall)
}

/// The deterministic routing control plane. See the module docs.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    /// Current home shard per tenant (first touch: FNV hash).
    home: HashMap<TenantId, usize>,
    /// Virtual clock per shard: the estimated time its backlog drains.
    busy_until: Vec<f64>,
    /// Estimated finish of each in-flight item per shard, popped as the
    /// arrival clock passes it (the queue depth the pressure test reads).
    inflight: Vec<VecDeque<f64>>,
    /// Hysteresis state per shard.
    pressured: Vec<bool>,
    /// Arrival clock high-water mark (arrivals must be non-decreasing).
    clock: f64,
    stats: RouterStats,
}

impl Router {
    /// Creates a router for `cfg.shards` empty shards.
    pub fn new(cfg: RouterConfig) -> Self {
        let n = cfg.shards.max(1);
        Self {
            cfg,
            home: HashMap::new(),
            busy_until: vec![0.0; n],
            inflight: (0..n).map(|_| VecDeque::new()).collect(),
            pressured: vec![false; n],
            clock: 0.0,
            stats: RouterStats { per_shard: vec![0; n], ..Default::default() },
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.busy_until.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Estimated backlog wall-seconds of shard `s` at time `t`.
    fn backlog(&self, s: usize, t: f64) -> f64 {
        (self.busy_until[s] - t).max(0.0)
    }

    /// Advances the virtual clock to `t`: retires in-flight estimates
    /// whose projected finish has passed.
    fn advance(&mut self, t: f64) {
        self.clock = self.clock.max(t);
        for s in 0..self.shards() {
            while self.inflight[s].front().is_some_and(|&finish| finish <= self.clock) {
                self.inflight[s].pop_front();
            }
        }
    }

    /// Re-evaluates the hysteresis pressure state of every shard.
    fn refresh_pressure(&mut self, t: f64) {
        let n = self.shards();
        if n < 2 {
            return; // a single shard has nowhere to shed to
        }
        let mean = (0..n).map(|s| self.backlog(s, t)).sum::<f64>() / n as f64;
        for s in 0..n {
            let b = self.backlog(s, t);
            let deep = self.inflight[s].len() > MAX_QUEUE_DEPTH;
            if !self.pressured[s] {
                if deep || b > STEAL_RATIO * mean + self.cfg.backlog_slack {
                    self.pressured[s] = true;
                    self.stats.pressured_onsets += 1;
                }
            } else if !deep && b <= RESUME_RATIO * mean + self.cfg.backlog_slack {
                self.pressured[s] = false;
            }
        }
    }

    /// Routes one query: returns the shard it should execute on and
    /// charges the shard's load model. Arrivals must come in
    /// non-decreasing `t` order (the workload's arrival order).
    pub fn route(&mut self, t: f64, tenant: TenantId, class: &SloClass, plan: &PhysicalPlan) -> usize {
        let n = self.shards();
        self.advance(t);
        let t = self.clock;
        self.refresh_pressure(t);

        let mut shard = *self
            .home
            .entry(tenant)
            .or_insert_with(|| (fnv1a(tenant) % n as u64) as usize);

        let wall = plan_est_cost(plan) / self.cfg.threads_per_shard as f64;
        if n > 1 && self.pressured[shard] {
            if class.weight >= STICKY_WEIGHT {
                self.stats.sticky_holds += 1;
            } else {
                // Migrate the tenant to the shard with the smallest
                // migration key; the home shard keeps its tenant on a
                // tie and other ties break on the lowest shard id, so
                // the choice is total-order deterministic.
                let mut best = shard;
                let mut best_key = migration_key(self.backlog(shard, t), wall);
                for s in 0..n {
                    let key = migration_key(self.backlog(s, t), wall);
                    if key < best_key {
                        best = s;
                        best_key = key;
                    }
                }
                if best != shard {
                    shard = best;
                    self.home.insert(tenant, shard);
                    self.stats.migrations += 1;
                }
            }
        }

        self.busy_until[shard] = self.busy_until[shard].max(t) + wall;
        self.inflight[shard].push_back(self.busy_until[shard]);
        self.stats.routed += 1;
        self.stats.per_shard[shard] += 1;
        shard
    }
}

/// One orphaned query awaiting failover placement: the routing-visible
/// facts of a query whose shard died before finishing it.
#[derive(Debug, Clone)]
pub struct FailoverQuery {
    /// Original (global) workload index.
    pub global: usize,
    /// Owning tenant — failover keeps per-tenant FIFO within the order.
    pub tenant: TenantId,
    /// SLO-class weight (gold fails over first).
    pub class_weight: u32,
    /// Original arrival time.
    pub arrival: f64,
    /// Optimizer cost estimate ([`plan_est_cost`], thread-seconds).
    pub est_cost: f64,
    /// Virtual time the owning shard crashed.
    pub crash_time: f64,
}

/// Sorts orphans into the deterministic failover order: heaviest SLO
/// class first (gold before silver before best-effort), then original
/// arrival, then global index. Same-tenant queries share a class, so the
/// order is a per-tenant FIFO — re-routing never reorders a tenant.
pub fn failover_order(orphans: &mut [FailoverQuery]) {
    orphans.sort_by(|a, b| {
        b.class_weight
            .cmp(&a.class_weight)
            .then(a.arrival.total_cmp(&b.arrival))
            .then(a.global.cmp(&b.global))
    });
}

/// Assigns each orphan (already in [`failover_order`]) to the eligible
/// shard minimizing the projected backlog after placement — the same
/// zero-RNG migration key pressure migration uses; ties break on the
/// lowest shard id. `eligible` lists surviving
/// shard ids in ascending order and `busy_until` (parallel to it) their
/// absolute virtual availability; each placement charges the chosen
/// shard's clock so one hot survivor does not absorb every orphan.
/// Returns the chosen shard id per orphan.
pub fn assign_failover(
    cfg: &RouterConfig,
    eligible: &[usize],
    busy_until: &mut [f64],
    orphans: &[FailoverQuery],
) -> Vec<usize> {
    debug_assert_eq!(eligible.len(), busy_until.len());
    if eligible.is_empty() {
        // No survivors: nothing to assign. The caller must treat the
        // orphans as abandoned (they still count in the partition).
        return Vec::new();
    }
    let mut out = Vec::with_capacity(orphans.len());
    for o in orphans {
        let base = busy_until.iter().copied().fold(f64::INFINITY, f64::min).min(o.crash_time);
        let wall = o.est_cost / cfg.threads_per_shard as f64;
        let mut best = 0usize;
        let mut best_key = f32::INFINITY;
        for (i, &busy) in busy_until.iter().enumerate() {
            let key = migration_key((busy - base).max(0.0), wall);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        // Mirror `Router::route`: the replay cannot start before the
        // orphan exists (its arrival) or before its shard slot is free.
        busy_until[best] = busy_until[best].max(o.arrival).max(o.crash_time) + wall;
        out.push(eligible[best]);
    }
    out
}

/// Routes a whole tenant workload: returns the per-shard sub-workloads
/// (class-decorated, original arrival order preserved within each
/// shard), the original workload index of each sub-workload item
/// (aligned, so shard-local query ids map back to the global workload),
/// and the router counters.
pub fn route_workload(
    cfg: &RouterConfig,
    queries: &[TenantQuery],
) -> (Vec<Vec<WorkloadItem>>, Vec<Vec<usize>>, RouterStats) {
    let mut router = Router::new(cfg.clone());
    let n = router.shards();
    let mut shards: Vec<Vec<WorkloadItem>> = vec![Vec::new(); n];
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, q) in queries.iter().enumerate() {
        let s = router.route(q.item.arrival_time, q.tenant, &q.class, &q.item.plan);
        shards[s].push(q.class.apply(q.item.clone()));
        assigned[s].push(i);
    }
    (shards, assigned, router.stats.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsched_engine::plan::{OpKind, OpSpec, PlanBuilder};
    use std::sync::Arc;

    fn plan(wos: u32) -> Arc<PhysicalPlan> {
        let mut b = PlanBuilder::new("r");
        let scan =
            b.add_op(OpKind::TableScan, OpSpec::Synthetic, vec![0], vec![0], 1e4, wos, 0.01, 1e4);
        let agg =
            b.add_op(OpKind::Aggregate, OpSpec::Synthetic, vec![0], vec![1], 5e3, 1, 0.01, 1e4);
        b.connect(scan, agg, false);
        Arc::new(b.finish(agg))
    }

    #[test]
    fn single_shard_routes_everything_to_zero_in_order() {
        let wl: Vec<WorkloadItem> =
            (0..10).map(|i| WorkloadItem::new(i as f64 * 0.1, plan(4))).collect();
        let qs = tenantize(&wl, 3, &[]);
        let (shards, assigned, stats) = route_workload(&RouterConfig::new(1, 4), &qs);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 10);
        assert_eq!(assigned[0], (0..10).collect::<Vec<_>>());
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.per_shard, vec![10]);
        // Neutral classes leave the items untouched.
        for (orig, routed) in wl.iter().zip(&shards[0]) {
            assert_eq!(orig.priority, routed.priority);
            assert_eq!(orig.deadline, routed.deadline);
            assert_eq!(orig.arrival_time.to_bits(), routed.arrival_time.to_bits());
        }
    }

    #[test]
    fn routing_is_deterministic_across_repeats() {
        let wl: Vec<WorkloadItem> =
            (0..64).map(|i| WorkloadItem::new(i as f64 * 0.01, plan(1 + (i % 7) as u32))).collect();
        let qs = tenantize(&wl, 9, &[SloClass::best_effort(), SloClass::silver()]);
        let cfg = RouterConfig::new(4, 4);
        let a = route_workload(&cfg, &qs);
        let b = route_workload(&cfg, &qs);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn per_tenant_fifo_holds_within_each_shard() {
        let wl: Vec<WorkloadItem> =
            (0..100).map(|i| WorkloadItem::new(i as f64 * 0.005, plan(1 + (i % 5) as u32))).collect();
        let qs = tenantize(&wl, 7, &[]);
        let (_, assigned, _) = route_workload(&RouterConfig::new(4, 4), &qs);
        // Within every shard, each tenant's global indices appear in
        // strictly increasing (arrival) order.
        for shard in &assigned {
            let mut last: HashMap<TenantId, usize> = HashMap::new();
            for &gi in shard {
                let tenant = qs[gi].tenant;
                if let Some(&prev) = last.get(&tenant) {
                    assert!(gi > prev, "tenant {tenant} reordered: {prev} then {gi}");
                }
                last.insert(tenant, gi);
            }
        }
    }

    #[test]
    fn pressure_triggers_migration_but_sticky_tenants_hold() {
        // One heavy tenant hammers its home shard with expensive plans;
        // a light tenant homed to the same shard should migrate away,
        // while a gold tenant (weight ≥ sticky) stays.
        let heavy = plan(400);
        let light = plan(1);
        let mut cfg = RouterConfig::new(2, 2);
        cfg.backlog_slack = 0.0;
        let mut router = Router::new(cfg.clone());
        // Find two tenants homed to the same shard.
        let t0 = 0u64;
        let home0 = (fnv1a(t0) % 2) as usize;
        let t1 = (1..100).find(|&t| (fnv1a(t) % 2) as usize == home0).unwrap();
        // The heavy tenant is gold (sticky), so its backlog stays pinned
        // to the home shard instead of being rebalanced away.
        let neutral = SloClass::best_effort();
        let gold = SloClass::gold();
        for k in 0..50 {
            router.route(k as f64 * 1e-3, t0, &gold, &heavy);
        }
        let before = router.stats().migrations;
        let s_light = router.route(0.06, t1, &neutral, &light);
        assert_ne!(s_light, home0, "light tenant should flee the pressured shard");
        assert_eq!(router.stats().migrations, before + 1);

        // Same setup, gold arrival: held sticky.
        let mut router2 = Router::new(cfg);
        for k in 0..50 {
            router2.route(k as f64 * 1e-3, t0, &gold, &heavy);
        }
        let holds_before = router2.stats().sticky_holds;
        let s_gold = router2.route(0.06, t1, &SloClass::gold(), &light);
        assert_eq!(s_gold, home0, "gold tenant keeps shard affinity");
        assert_eq!(router2.stats().sticky_holds, holds_before + 1);
        assert_eq!(router2.stats().migrations, 0);
        assert!(router2.stats().pressured_onsets >= 1);
    }

    #[test]
    fn migration_key_ties_at_f32_resolution_go_to_the_lowest_shard() {
        // Shard 1's projected backlog is smaller in f64 but rounds to the
        // same f32 key as shard 0's, so the tie goes to shard 0. A raw
        // f64 comparison would pick shard 1 and change routing.
        let cfg = RouterConfig::new(2, 4);
        let (b0, b1) = (10.0 + 1e-9, 10.0);
        let orphan = FailoverQuery {
            global: 0,
            tenant: 0,
            class_weight: 1,
            arrival: 0.0,
            est_cost: 2.0,
            crash_time: 0.0,
        };
        let wall = orphan.est_cost / cfg.threads_per_shard as f64;
        assert!(b1 + wall < b0 + wall, "the f64 projections must differ");
        assert_eq!(migration_key(b0, wall).to_bits(), migration_key(b1, wall).to_bits());
        let mut busy = [b0, b1];
        assert_eq!(assign_failover(&cfg, &[0, 1], &mut busy, &[orphan]), vec![0]);
        // Beyond the f32 resolution the key is monotone in the backlog.
        assert!(migration_key(1.0, wall) < migration_key(10.0, wall));
    }

    #[test]
    fn slo_class_layers_priority_and_deadline() {
        let item = WorkloadItem::new(0.0, plan(2)).with_priority(2).with_deadline(10.0);
        let out = SloClass::gold().apply(item);
        assert_eq!(out.priority, 3); // floor lifts 2 → 3
        assert_eq!(out.deadline, Some(10.0)); // tighter own budget kept
        let out2 = SloClass::gold().apply(WorkloadItem::new(0.0, plan(2)).with_priority(5));
        assert_eq!(out2.priority, 5); // higher own priority kept
        assert_eq!(out2.deadline, Some(30.0)); // class budget applied
    }
}
