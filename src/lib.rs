//! # lsched
//!
//! A from-scratch Rust reproduction of **LSched: A Workload-Aware
//! Learned Query Scheduler for Analytical Database Systems** (Sabek,
//! Ukyab, Kraska — SIGMOD 2022), together with every substrate the paper
//! depends on:
//!
//! * [`engine`] — a Quickstep-style block-based in-memory analytical
//!   engine with work-order operators, a real threaded executor and a
//!   deterministic discrete-event simulator;
//! * [`workloads`] — TPC-H, SSB and JOB plan pools, data generation and
//!   the paper's workload protocol (train/test split, batch/streaming
//!   arrivals);
//! * [`nn`] — tensors, reverse-mode autodiff, tree convolution with edge
//!   support (Eq. 2), graph attention (Eqs. 3–5), Adam;
//! * [`core`] — LSched itself: features, Query Encoder, Scheduling
//!   Predictor, REINFORCE training, transfer learning, ablations;
//! * [`decima`] — the Decima baseline (GCN, black-box features, no
//!   pipelining);
//! * [`sched`] — FIFO / fair / SJF / HPF / critical-path / Quickstep /
//!   SelfTune heuristic baselines;
//! * [`serve`] — the sharded multi-tenant serving layer: deterministic
//!   tenant routing, weighted SLO classes, hysteresis-gated query
//!   migration, cross-shard result merging, and supervised crash
//!   recovery with deterministic query failover.
//!
//! ## Quickstart
//!
//! ```
//! use lsched::prelude::*;
//!
//! // A 12-query TPC-H streaming workload on 8 worker threads.
//! let pool = lsched::workloads::tpch::plan_pool(&[0.5]);
//! let wl = gen_workload(&pool, 12, ArrivalPattern::Streaming { lambda: 40.0 }, 1);
//! let cfg = SimConfig { num_threads: 8, ..Default::default() };
//!
//! // Compare a heuristic with an (untrained) learned agent.
//! let fair = simulate(cfg.clone(), &wl, &mut FairScheduler::default());
//! let model = LSchedModel::new(LSchedConfig::default(), 0);
//! let learned = simulate(cfg, &wl, &mut LSchedScheduler::greedy(model));
//! assert_eq!(fair.outcomes.len(), 12);
//! assert_eq!(learned.outcomes.len(), 12);
//! ```

pub use lsched_core as core;
pub use lsched_decima as decima;
pub use lsched_engine as engine;
pub use lsched_nn as nn;
pub use lsched_sched as sched;
pub use lsched_serve as serve;
pub use lsched_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use lsched_core::{
        train, train_with_checkpoints, transfer_from, CheckpointPolicy, DecisionMode,
        ExperienceManager, LSchedConfig, LSchedModel, LSchedScheduler, LSchedVariant,
        PredictiveAdmission, PredictiveAdmissionConfig, PredictiveStats, RewardConfig,
        TrainCheckpoint, TrainConfig,
    };
    pub use lsched_decima::{train_decima, DecimaConfig, DecimaModel, DecimaScheduler};
    pub use lsched_engine::{
        simulate, try_simulate, CostModel, Executor, FaultPlan, FaultSummary, PhysicalPlan,
        PolicyHealth, QueryId, ResilienceSummary, RetryPolicy, SchedContext, SchedDecision,
        SchedEvent, Scheduler, SimConfig, SimError, SimResult, WorkloadItem,
    };
    pub use lsched_nn::{CheckpointError, CheckpointManager};
    pub use lsched_sched::{
        Admission, AdmissionConfig, AdmissionGate, AdmissionStack, AdmissionStats, BreakerState,
        CriticalPathScheduler, FairScheduler, FifoScheduler, GateGuardStats,
        GuardedScheduler, HpfScheduler, QuickstepScheduler, SelfTuneScheduler, ShedPolicy,
        SjfScheduler,
    };
    pub use lsched_serve::{
        serve_supervised, tenantize, FailoverSummary, RouterConfig, ServeConfig, ServeResult,
        ShardFault, ShardFaultPlan, ShardHealth, SloClass, SupervisorConfig, TenantQuery,
    };
    pub use lsched_workloads::{gen_workload, split_train_test, ArrivalPattern, EpisodeSampler};
}
