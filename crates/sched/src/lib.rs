//! # lsched-sched
//!
//! The non-learned scheduler baselines of the paper's evaluation
//! (Section 7.1): FIFO, carefully-tuned weighted fair scheduling,
//! shortest-job-first, highest-priority-first, critical-path pipelining
//! (Figure 1), Quickstep's built-in fair work-order scheduler with
//! LR-based duration prediction, and SelfTune's priority policy with
//! workload-tuned hyper-parameters.
//!
//! Also hosts the resilience wrappers shared by every policy: the
//! [`guard`] circuit breaker and the [`admission`] overload gate.

#![warn(missing_docs)]

pub mod admission;
pub mod common;
pub mod guard;
pub mod heuristics;
pub mod lottery;
pub mod quickstep;
pub mod selftune;

pub use admission::{Admission, AdmissionConfig, AdmissionGate, AdmissionStats, ShedPolicy};
pub use guard::{
    AdmissionStack, BreakerState, GateGuardStats, GuardConfig, GuardStats, GuardedScheduler,
};
pub use heuristics::{
    CriticalPathScheduler, FairScheduler, FifoScheduler, HpfScheduler, SjfScheduler,
};
pub use lottery::LotteryScheduler;
pub use quickstep::QuickstepScheduler;
pub use selftune::{tune, SelfTuneParams, SelfTuneScheduler, TuneConfig};
