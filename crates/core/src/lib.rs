//! # lsched-core
//!
//! LSched — the fully learned, workload-aware query scheduler of the
//! paper (SIGMOD 2022). This crate contains the paper's primary
//! contribution:
//!
//! * [`features`] — the OPF/EDF/QF physical-plan features of Section 4.1,
//!   including the Eq. 1 block-bitmap downsampling;
//! * [`encoder`] — the Query Encoder of Figure 6 (tree convolution with
//!   edge support + graph attention; PQE and AQE summarizers);
//! * [`predictor`] — the Scheduling Predictor of Figure 7 (execution
//!   roots, pipeline degree, parallelism degree heads);
//! * [`agent`] — the scheduling agent that plugs into the engine's
//!   [`lsched_engine::Scheduler`] interface;
//! * [`rl`] and [`train`] — REINFORCE with the average+tail reward of
//!   Section 6 and time-indexed baselines;
//! * [`experience`] — the Experience Manager of Figure 2;
//! * [`online`] — online self-correction at checkpoints (Figure 2);
//! * [`transfer`] — transfer learning by interior-layer freezing;
//! * [`ablation`] — the Figure 15 variants.

#![warn(missing_docs)]

pub mod ablation;
pub mod admission;
pub mod agent;
pub mod encoder;
pub mod experience;
pub mod online;
pub mod features;
pub mod predictor;
pub mod rl;
pub mod train;
pub mod transfer;

pub use ablation::{config_for_variant, model_for_variant, LSchedVariant};
pub use admission::{PredictiveAdmission, PredictiveAdmissionConfig, PredictiveStats};
pub use agent::{
    BatchInferScratch, EpisodeStep, InferScratch, LSchedConfig, LSchedModel, LSchedScheduler,
};
pub use encoder::{EncoderConfig, EncoderKind, MemoStats, QueryEncoder};
pub use experience::{ExperienceManager, ExperienceSource, RewardExperience};
pub use online::{guarded_step, OnlineConfig, OnlineLSched, UpdateOutcome};
pub use features::{downsample_blocks, plan_est_cost, snapshot, FeatureConfig, SystemSnapshot};
pub use predictor::{
    DecisionMode, PickTrace, PredictorConfig, SchedulingPredictor, SnapshotList,
};
pub use rl::RewardConfig;
pub use train::{
    accumulate_rollout_gradients, accumulate_rollout_gradients_with, rollout_returns, train,
    train_with_checkpoints, train_with_validation, CheckpointPolicy, GradScratch,
    TrainCheckpoint, TrainConfig, TrainStats,
};
pub use transfer::{freeze_interior, transfer_from, unfreeze_all, TransferReport};
