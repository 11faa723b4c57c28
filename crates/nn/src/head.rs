//! A small self-contained scoring head: an MLP that maps feature rows
//! to scalar scores in `(-1, 1)`, served through the tape-free
//! [`InferBackend`] batched path.
//!
//! [`ScoringHead`] bundles the three pieces a predictor-as-a-component
//! needs — its own [`ParamStore`], the [`Mlp`], and a reusable
//! [`InferCtx`] arena — so callers (e.g. predictive admission control)
//! get batched scoring with zero steady-state allocations and no
//! dependency on the full training stack. The `Tanh` output squashes
//! every score into `[-1, 1]` (`f32::tanh` saturates to exactly ±1 for
//! large inputs): consumers can treat `|score| > 1` or a non-finite
//! score as an out-of-band prediction and trip a breaker.
//!
//! The head is deterministic end to end: construction seeds its own RNG
//! once (Xavier init), [`ScoringHead::warm_start_linear`] overwrites the
//! weights with hand-set values, and scoring consumes no randomness at
//! all.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::Backend;
use crate::infer::InferCtx;
use crate::layers::{Activation, Mlp};
use crate::params::ParamStore;
use crate::tensor::Tensor;

/// A `[d, d, 1]` MLP scoring head with ReLU hidden and Tanh output
/// activation, owning its parameters and inference arena.
pub struct ScoringHead {
    store: ParamStore,
    mlp: Mlp,
    ctx: InferCtx,
    in_dim: usize,
}

impl ScoringHead {
    /// Creates a head for `in_dim`-dimensional feature rows with one
    /// hidden layer of the same width, Xavier-initialised from `seed`.
    pub fn new(in_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0, "ScoringHead needs at least one feature");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "score_head",
            &[in_dim, in_dim, 1],
            Activation::Relu,
            Activation::Tanh,
        );
        Self { store, mlp, ctx: InferCtx::new(), in_dim }
    }

    /// Overwrites the parameters so the head computes exactly
    /// `tanh(weights . x + bias)` for non-negative inputs: the hidden
    /// layer becomes the identity (which ReLU passes through unchanged
    /// when every feature is `>= 0`) and the output layer gets the given
    /// weights. This is the warm start for predictive admission — an
    /// interpretable hand-set linear scorer in the same parameter space
    /// a trained head would later occupy.
    ///
    /// # Panics
    /// Panics if `weights.len() != in_dim`.
    pub fn warm_start_linear(&mut self, weights: &[f32], bias: f32) {
        assert_eq!(weights.len(), self.in_dim, "one weight per feature");
        let d = self.in_dim;
        let hidden = &self.mlp.layers()[0];
        let mut eye = vec![0.0f32; d * d];
        for i in 0..d {
            eye[i * d + i] = 1.0;
        }
        *self.store.value_mut(hidden.weight_id()) = Tensor::matrix(d, d, eye);
        *self.store.value_mut(hidden.bias_id()) = Tensor::vector(vec![0.0; d]);
        let out = &self.mlp.layers()[1];
        *self.store.value_mut(out.weight_id()) = Tensor::matrix(1, d, weights.to_vec());
        *self.store.value_mut(out.bias_id()) = Tensor::vector(vec![bias]);
    }

    /// Feature dimension of one input row.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The underlying MLP (e.g. to hand to a training loop).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The parameter store — mutable so tests (and future online
    /// training) can overwrite or deliberately poison the weights.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Read-only parameter store access.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Scores `rows.len() / in_dim` feature rows (row-major flat slab)
    /// in one batched inference pass — one fused GEMM per layer — and
    /// appends the scores to `out`.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `in_dim` or is empty.
    pub fn scores_into(&mut self, rows: &[f32], out: &mut Vec<f32>) {
        assert!(!rows.is_empty(), "scores_into on an empty batch");
        assert_eq!(rows.len() % self.in_dim, 0, "rows must be whole feature vectors");
        let n = rows.len() / self.in_dim;
        let mut session = self.ctx.session(&self.store);
        let mut ids = session.take_ids();
        for r in 0..n {
            ids.push(session.input(&rows[r * self.in_dim..(r + 1) * self.in_dim]));
        }
        let scores = session.mlp_scores(&self.mlp, &ids);
        out.extend_from_slice(session.value(scores));
        session.recycle_ids(ids);
    }

    /// Convenience wrapper over [`scores_into`](Self::scores_into) for a
    /// single feature row.
    pub fn score(&mut self, row: &[f32]) -> f32 {
        let mut out = Vec::with_capacity(1);
        self.scores_into(row, &mut out);
        out[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_is_an_exact_linear_tanh() {
        let mut head = ScoringHead::new(3, 7);
        head.warm_start_linear(&[0.5, -0.25, 1.0], 0.1);
        let x = [2.0f32, 4.0, 0.5];
        let want = (0.5 * 2.0 - 0.25 * 4.0 + 1.0 * 0.5 + 0.1f32).tanh();
        let got = head.score(&x);
        assert_eq!(got.to_bits(), want.to_bits(), "hand-set head must be exact: {got} vs {want}");
    }

    #[test]
    fn scores_are_bounded_and_deterministic() {
        let mut head = ScoringHead::new(4, 11);
        let rows: Vec<f32> = (0..32).map(|i| (i as f32) * 0.37).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        head.scores_into(&rows, &mut a);
        head.scores_into(&rows, &mut b);
        assert_eq!(a.len(), 8);
        // `f32::tanh` saturates to exactly ±1.0 for large inputs, so the
        // bound is inclusive.
        assert!(a.iter().all(|s| s.is_finite() && s.abs() <= 1.0), "tanh bounds every score");
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn batched_matches_single_row_scoring() {
        let mut head = ScoringHead::new(2, 3);
        head.warm_start_linear(&[1.0, -1.0], 0.0);
        let rows = [0.5f32, 0.25, 3.0, 1.0, 0.0, 2.0];
        let mut batch = Vec::new();
        head.scores_into(&rows, &mut batch);
        for (i, chunk) in rows.chunks(2).enumerate() {
            assert_eq!(batch[i].to_bits(), head.score(chunk).to_bits());
        }
    }

    #[test]
    fn poisoned_store_yields_non_finite_scores() {
        // The consumer-side breaker depends on NaN weights surfacing as
        // NaN scores rather than being silently absorbed.
        let mut head = ScoringHead::new(2, 5);
        let wid = head.mlp().layers()[1].weight_id();
        head.store_mut().value_mut(wid).data_mut()[0] = f32::NAN;
        let s = head.score(&[1.0, 1.0]);
        assert!(!s.is_finite() || s.is_nan(), "poison must be observable: {s}");
    }
}
