//! Online self-correction (Section 3): "In the online mode, the
//! completely executed scheduling decisions are also rewarded and used
//! for self-correcting the predictor either on a query-by-query basis or
//! at checkpoints (controlled by the user)."
//!
//! [`OnlineLSched`] wraps a trained model, keeps sampling decisions in
//! production, records every executed decision, and applies a small
//! REINFORCE update at each checkpoint (every `checkpoint_queries`
//! completed queries). Online updates have no second rollout to baseline
//! against, so the window's mean return serves as the baseline — a
//! deliberately conservative correction signal.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lsched_engine::scheduler::{
    PolicyHealth, QueryId, SchedContext, SchedDecision, SchedEvent, Scheduler,
};
use lsched_nn::{Adam, ParamStore};

use crate::agent::{LSchedModel, LSchedScheduler};
use crate::experience::{ExperienceManager, ExperienceSource};
use crate::rl::RewardConfig;
use crate::train::{
    accumulate_rollout_gradients_with, rollout_returns, GradScratch, TrainConfig,
};

/// Online-correction settings.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Apply a correction after this many completed queries
    /// (1 = query-by-query, larger = checkpoints).
    pub checkpoint_queries: usize,
    /// Learning rate of online updates (smaller than offline training).
    pub lr: f32,
    /// Max decisions replayed per correction.
    pub sample_cap: usize,
    /// Reward configuration.
    pub reward: RewardConfig,
    /// Gradient clipping norm.
    pub max_grad_norm: f32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            checkpoint_queries: 8,
            lr: 2e-4,
            sample_cap: 16,
            reward: RewardConfig::default(),
            max_grad_norm: 2.0,
        }
    }
}

/// What became of one guarded online update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The optimizer step was applied and the parameters stayed finite.
    Applied,
    /// The accumulated gradients were non-finite: the step was skipped
    /// entirely (gradients zeroed, parameters untouched).
    SkippedNonFiniteGrads,
    /// The step produced non-finite parameters: the pre-step checkpoint
    /// was restored and the optimizer state reset.
    RolledBack,
}

/// Applies `step` to the model under finite-guards: refuses non-finite
/// gradients up front, and rolls the parameters back to a pre-step
/// checkpoint if the step itself poisons them. Returns what happened so
/// the caller can reset optimizer state on a rollback.
pub fn guarded_step(
    model: &mut LSchedModel,
    step: impl FnOnce(&mut ParamStore),
) -> UpdateOutcome {
    if !model.store.grads_are_finite() {
        model.store.zero_grads();
        return UpdateOutcome::SkippedNonFiniteGrads;
    }
    // Copy-on-write checkpoint: one Arc refcount bump per parameter.
    // Tensor data is only duplicated for parameters the step actually
    // writes, and the snapshot is dropped for free on the happy path.
    let checkpoint = model.store.snapshot_values();
    step(&mut model.store);
    if !model.store.values_are_finite() {
        model.store.restore_values(&checkpoint);
        return UpdateOutcome::RolledBack;
    }
    UpdateOutcome::Applied
}

/// A production scheduler that keeps improving from its own executed
/// decisions.
pub struct OnlineLSched {
    inner: LSchedScheduler,
    cfg: OnlineConfig,
    opt: Adam,
    rng: StdRng,
    completed_since_checkpoint: usize,
    corrections: usize,
    skipped_updates: usize,
    rollbacks: usize,
    experience: ExperienceManager,
    /// Replay scratch reused across checkpoints, so steady-state online
    /// corrections run in recycled arena capacity.
    scratch: GradScratch,
}

impl OnlineLSched {
    /// Wraps a (typically pre-trained) model for online operation.
    pub fn new(model: LSchedModel, cfg: OnlineConfig, seed: u64) -> Self {
        Self {
            inner: LSchedScheduler::sampling(model, seed),
            opt: Adam::new(cfg.lr),
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0x0411),
            completed_since_checkpoint: 0,
            corrections: 0,
            skipped_updates: 0,
            rollbacks: 0,
            experience: ExperienceManager::new(256),
            scratch: GradScratch::new(),
        }
    }

    /// Number of corrections applied so far.
    pub fn corrections(&self) -> usize {
        self.corrections
    }

    /// Updates skipped because the gradients were non-finite.
    pub fn skipped_updates(&self) -> usize {
        self.skipped_updates
    }

    /// Updates rolled back because the stepped parameters went
    /// non-finite.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// The accumulated online reward experiences.
    pub fn experience(&self) -> &ExperienceManager {
        &self.experience
    }

    /// The wrapped agent; its model reflects every applied correction.
    pub fn scheduler(&self) -> &LSchedScheduler {
        &self.inner
    }

    /// Consumes the scheduler, returning the (self-corrected) model.
    pub fn into_model(self) -> LSchedModel {
        self.inner.finish().0
    }

    fn checkpoint(&mut self, now: f64) {
        // Harvest the window's recorded steps in place; the scheduler
        // (and the model behind it) stays alive, so no placeholder
        // scheduler or model rebuild is needed and every scratch arena
        // keeps its capacity across checkpoints.
        let steps = self.inner.take_steps();
        if steps.len() >= 2 {
            let returns = rollout_returns(&self.cfg.reward, &steps, now);
            let mean = returns.iter().sum::<f64>() / returns.len() as f64;
            let advantages: Vec<f64> = returns.iter().map(|g| g - mean).collect();
            let tcfg = TrainConfig {
                decision_sample_cap: self.cfg.sample_cap,
                reward: self.cfg.reward,
                ..Default::default()
            };
            let model = self
                .inner
                .model_mut()
                .expect("the online scheduler owns its model exclusively");
            model.store.zero_grads();
            accumulate_rollout_gradients_with(
                model,
                &steps,
                &advantages,
                &tcfg,
                &mut self.rng,
                &mut self.scratch,
            );
            model.store.clip_grad_norm(self.cfg.max_grad_norm);
            let opt = &mut self.opt;
            match guarded_step(model, |store| opt.step(store)) {
                UpdateOutcome::Applied => {
                    self.corrections += 1;
                    self.experience.record(
                        ExperienceSource::Online,
                        returns.first().copied().unwrap_or(0.0),
                        steps.len(),
                        0.0,
                        0.0,
                    );
                }
                UpdateOutcome::SkippedNonFiniteGrads => self.skipped_updates += 1,
                UpdateOutcome::RolledBack => {
                    // Poisoned optimizer moments would re-poison the next
                    // step; restart the optimizer alongside the params.
                    self.opt = Adam::new(self.cfg.lr);
                    self.rollbacks += 1;
                }
            }
        }
        let seed: u64 = rand::Rng::gen(&mut self.rng);
        self.inner.reseed(seed);
    }
}

impl Scheduler for OnlineLSched {
    fn name(&self) -> String {
        "lsched_online".into()
    }

    fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
        self.inner.on_event(ctx, ev)
    }

    fn on_query_finished(&mut self, time: f64, query: QueryId) {
        self.inner.on_query_finished(time, query);
        self.completed_since_checkpoint += 1;
        if self.completed_since_checkpoint >= self.cfg.checkpoint_queries {
            self.completed_since_checkpoint = 0;
            self.checkpoint(time);
        }
    }

    fn on_query_cancelled(&mut self, time: f64, query: QueryId) {
        // A cancelled query produces no completion reward; just let the
        // inner agent drop its cached state. It does not advance the
        // checkpoint counter.
        self.inner.on_query_cancelled(time, query);
    }

    fn health(&self) -> PolicyHealth {
        self.inner.health()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.completed_since_checkpoint = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::LSchedConfig;
    use crate::encoder::EncoderConfig;
    use crate::predictor::PredictorConfig;
    use lsched_engine::sim::{simulate, SimConfig};
    use lsched_workloads::tpch;
    use lsched_workloads::workload::{gen_workload, ArrivalPattern};

    fn small_model() -> LSchedModel {
        LSchedModel::new(
            LSchedConfig {
                encoder: EncoderConfig {
                    hidden: 10,
                    edge_hidden: 4,
                    pqe_dim: 6,
                    aqe_dim: 6,
                    conv_layers: 2,
                    ..Default::default()
                },
                predictor: PredictorConfig { max_degree: 4, max_threads: 16, ..Default::default() },
            },
            9,
        )
    }

    #[test]
    fn online_mode_applies_corrections() {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 12, ArrivalPattern::Streaming { lambda: 60.0 }, 4);
        let cfg = OnlineConfig { checkpoint_queries: 4, ..Default::default() };
        let mut online = OnlineLSched::new(small_model(), cfg, 5);
        let before = online.inner.model().params_json();
        let res = simulate(SimConfig { num_threads: 8, ..Default::default() }, &wl, &mut online);
        assert_eq!(res.outcomes.len(), 12);
        assert!(online.corrections() >= 2, "expected checkpoints, got {}", online.corrections());
        assert!(!online.experience().is_empty());
        let model = online.into_model();
        assert_ne!(model.params_json(), before, "online corrections must move parameters");
    }

    #[test]
    fn guarded_step_skips_nonfinite_grads() {
        let mut model = small_model();
        let before = model.params_json();
        let id = model.store.iter_ids().next().map(|(i, _)| i).unwrap();
        let n = model.store.grad(id).len();
        model.store.accumulate_grad(id, &vec![f32::NAN; n]);
        let out = guarded_step(&mut model, |_| panic!("step must not run on poisoned grads"));
        assert_eq!(out, UpdateOutcome::SkippedNonFiniteGrads);
        assert_eq!(model.params_json(), before, "parameters must be untouched");
        assert!(model.store.grads_are_finite(), "poisoned grads must be flushed");
    }

    #[test]
    fn guarded_step_rolls_back_poisoned_params() {
        let mut model = small_model();
        let before = model.params_json();
        let out = guarded_step(&mut model, |store| {
            let id = store.iter_ids().next().map(|(i, _)| i).unwrap();
            store.value_mut(id).data_mut()[0] = f32::NAN;
        });
        assert_eq!(out, UpdateOutcome::RolledBack);
        assert!(model.store.values_are_finite());
        assert_eq!(model.params_json(), before, "rollback must restore the checkpoint");
    }

    #[test]
    fn guarded_step_applies_clean_updates() {
        let mut model = small_model();
        let before = model.params_json();
        let id = model.store.iter_ids().next().map(|(i, _)| i).unwrap();
        let n = model.store.grad(id).len();
        model.store.accumulate_grad(id, &vec![0.5; n]);
        let mut opt = Adam::new(1e-3);
        let out = guarded_step(&mut model, |store| opt.step(store));
        assert_eq!(out, UpdateOutcome::Applied);
        assert!(model.store.values_are_finite());
        assert_ne!(model.params_json(), before, "a clean step must move parameters");
    }

    #[test]
    fn query_by_query_mode() {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, 6, ArrivalPattern::Batch, 5);
        let cfg = OnlineConfig { checkpoint_queries: 1, ..Default::default() };
        let mut online = OnlineLSched::new(small_model(), cfg, 6);
        let res = simulate(SimConfig { num_threads: 6, ..Default::default() }, &wl, &mut online);
        assert_eq!(res.outcomes.len(), 6);
        assert!(online.corrections() >= 3);
    }
}
