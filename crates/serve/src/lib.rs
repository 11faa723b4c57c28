//! # lsched-serve
//!
//! The sharded multi-tenant serving layer: N independent simulator
//! shards (each its own worker pool, frontier cache and guarded
//! admission stack) behind a deterministic router.
//!
//! * [`router`] — tenant → shard hashing, weighted SLO classes layered
//!   on the engine's priority/deadline machinery, and hysteresis-gated
//!   query migration at admission time. Zero RNG: routing is a pure
//!   function of the arrival sequence.
//! * [`serve`] — the serving configuration, per-shard and merged
//!   results, errors, and the scheduler reporting hooks.
//! * [`fault`] — the deterministic shard-level fault model: crashes at
//!   a virtual time, crash-then-restart, slow shards, poisoned shards.
//! * [`supervisor`] — the one run loop, [`serve_supervised`]: every
//!   shard runs on a worker-per-shard pool under `catch_unwind` plus a
//!   health poll; crashed shards restart or quarantine, their unfinished
//!   queries fail over to survivors by the same zero-RNG placement rule
//!   the router uses, and all runs merge into one statistically honest
//!   aggregate (pooled latency samples, counter sums, starvation maxima).
//!
//! The determinism contract, pinned by `tests/serve_props.rs` at the
//! workspace root: a 1-shard served run is bit-identical to the
//! unsharded simulator, and an N-shard run is bit-identical across
//! repeats — with fault injection on, and with shard crashes and
//! failover on.

#![warn(missing_docs)]

pub mod fault;
pub mod router;
pub mod serve;
pub mod supervisor;

pub use fault::{ShardFault, ShardFaultPlan};
pub use router::{
    assign_failover, failover_order, route_workload, tenantize, FailoverQuery, Router,
    RouterConfig, RouterStats, SloClass, TenantId, TenantQuery,
};
pub use serve::{
    shard_sim_config, AdmissionReport, HealthReport, ServeConfig, ServeError, ServeResult,
    ShardRun, SHARD_SEED_STRIDE,
};
pub use supervisor::{
    serve_supervised, FailoverSummary, ShardHealth, SupervisorConfig, EPOCH_SEED_STRIDE,
};
