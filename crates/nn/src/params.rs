//! Named, trainable parameter storage with gradient accumulators and
//! per-parameter freeze flags (the mechanism behind LSched's transfer
//! learning, Section 6 of the paper).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Param {
    name: String,
    // Copy-on-write: tapes and checkpoints share the tensor by bumping
    // the refcount; `value_mut` clones only when another holder exists.
    value: Arc<Tensor>,
    grad: Vec<f32>,
    frozen: bool,
}

/// A flat store of all trainable parameters of a model.
///
/// Computation graphs reference parameters by [`ParamId`]; gradients are
/// accumulated here across (possibly many) graphs before an optimizer step
/// is applied. Parameters can be *frozen*, in which case gradient
/// accumulation is skipped — this is how LSched implements transfer
/// learning: inner tree-convolution and hidden layers are frozen while
/// input- and output-adjacent layers are retrained on the new workload.
///
/// Every store carries a *values stamp* ([`ParamStore::stamp`]): a
/// process-unique number renewed by every method that can change a
/// parameter value. Two stores (or one store at two moments) with equal
/// stamps hold bitwise-equal values, which is what lets inference memoize
/// forward values across decisions and drop them the moment the weights
/// move.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    by_name: HashMap<String, ParamId>,
    /// Values stamp; not serialized (a loaded store gets a fresh one).
    stamp: u64,
}

/// Source of values stamps; starts at 1 so a renewed stamp is never the
/// `Default` store's 0.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

// Hand-written so the stamp stays out of the JSON: the output is exactly
// what deriving over `params` and `by_name` produced.
impl Serialize for ParamStore {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("params".to_string(), self.params.to_value()),
            ("by_name".to_string(), self.by_name.to_value()),
        ])
    }
}

impl Deserialize for ParamStore {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            params: Deserialize::from_value(v.get_field("params")?)?,
            by_name: Deserialize::from_value(v.get_field("by_name")?)?,
            stamp: fresh_stamp(),
        })
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The values stamp: renewed by [`register`](Self::register),
    /// [`value_mut`](Self::value_mut),
    /// [`restore_values`](Self::restore_values),
    /// [`for_each_unfrozen_grad_value`](Self::for_each_unfrozen_grad_value),
    /// [`load_matching`](Self::load_matching) and deserialization; kept
    /// by `clone` (the clone's values are equal). Gradient and freeze
    /// changes leave it alone.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Registers a new parameter under `name`.
    ///
    /// # Panics
    /// Panics if a parameter with the same name already exists.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        let id = ParamId(self.params.len());
        let grad = vec![0.0; value.len()];
        self.stamp = fresh_stamp();
        self.params.push(Param { name: name.clone(), value: Arc::new(value), grad, frozen: false });
        self.by_name.insert(name, id);
        id
    }

    /// Looks up a parameter id by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar values across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// The shared handle behind a parameter value. Cloning it is a
    /// refcount bump, not a data copy — this is how tapes and inference
    /// contexts borrow weights without duplicating them.
    pub fn value_arc(&self, id: ParamId) -> &Arc<Tensor> {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers).
    ///
    /// Copy-on-write: if a tape node or checkpoint still shares the
    /// tensor, the data is cloned once here so the other holders keep
    /// observing the pre-update value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.stamp = fresh_stamp();
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// Cheap whole-store value checkpoint: one refcount bump per
    /// parameter, no tensor data copied. Restore with
    /// [`ParamStore::restore_values`].
    pub fn snapshot_values(&self) -> Vec<Arc<Tensor>> {
        self.params.iter().map(|p| Arc::clone(&p.value)).collect()
    }

    /// Restores parameter values from a [`ParamStore::snapshot_values`]
    /// checkpoint taken on this same store (also just refcount traffic).
    ///
    /// # Panics
    /// Panics if the snapshot does not cover exactly this store's
    /// parameters.
    pub fn restore_values(&mut self, snapshot: &[Arc<Tensor>]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "snapshot holds {} parameters but the store has {}",
            snapshot.len(),
            self.params.len()
        );
        self.stamp = fresh_stamp();
        for (p, saved) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(
                p.value.shape(),
                saved.shape(),
                "shape mismatch while restoring parameter {:?}",
                p.name
            );
            p.value = Arc::clone(saved);
        }
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.params[id.0].grad
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Whether a parameter is frozen (excluded from training).
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.params[id.0].frozen
    }

    /// Accumulates `g` into the gradient buffer of `id`, unless frozen.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &[f32]) {
        let p = &mut self.params[id.0];
        if p.frozen {
            return;
        }
        debug_assert_eq!(p.grad.len(), g.len());
        for (acc, v) in p.grad.iter_mut().zip(g) {
            *acc += v;
        }
    }

    /// Direct mutable access to a parameter's gradient accumulator, or
    /// `None` if the parameter is frozen. Lets fused backward kernels
    /// accumulate in place (e.g. an outer-product GEMM straight into the
    /// buffer) with the same skip-frozen semantics as
    /// [`ParamStore::accumulate_grad`].
    pub fn grad_acc_mut(&mut self, id: ParamId) -> Option<&mut [f32]> {
        let p = &mut self.params[id.0];
        if p.frozen {
            None
        } else {
            Some(&mut p.grad)
        }
    }

    /// Visits every *unfrozen* parameter in registration order with its
    /// gradient buffer and mutable value tensor (copy-on-write detach
    /// happens here; once the store solely owns its tensors this is
    /// in-place and allocation-free). Optimizers use this to run chunked
    /// update loops without collecting ids or cloning gradients.
    pub fn for_each_unfrozen_grad_value(&mut self, mut f: impl FnMut(usize, &[f32], &mut Tensor)) {
        self.stamp = fresh_stamp();
        for (i, p) in self.params.iter_mut().enumerate() {
            if p.frozen {
                continue;
            }
            f(i, &p.grad, Arc::make_mut(&mut p.value));
        }
    }

    /// Resets all gradient accumulators to zero.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Global L2 norm over all (unfrozen) gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter(|p| !p.frozen)
            .flat_map(|p| p.grad.iter())
            .map(|g| g * g)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every unfrozen gradient so the global norm is at most
    /// `max_norm` (standard gradient clipping).
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                if !p.frozen {
                    p.grad.iter_mut().for_each(|g| *g *= scale);
                }
            }
        }
    }

    /// Whether every accumulated (unfrozen) gradient is finite. A NaN or
    /// infinite gradient poisons any optimizer step built on it; callers
    /// guard online updates with this check.
    pub fn grads_are_finite(&self) -> bool {
        self.params
            .iter()
            .filter(|p| !p.frozen)
            .all(|p| p.grad.iter().all(|g| g.is_finite()))
    }

    /// Whether every parameter value is finite. Checked after optimizer
    /// steps so a poisoned update can be rolled back from a checkpoint.
    pub fn values_are_finite(&self) -> bool {
        self.params.iter().all(|p| p.value.data().iter().all(|v| v.is_finite()))
    }

    /// Freezes or unfreezes every parameter whose name matches `pred`.
    /// Returns how many parameters changed state.
    pub fn set_frozen_where(&mut self, frozen: bool, pred: impl Fn(&str) -> bool) -> usize {
        let mut changed = 0;
        for p in &mut self.params {
            if pred(&p.name) && p.frozen != frozen {
                p.frozen = frozen;
                changed += 1;
            }
        }
        changed
    }

    /// Freezes or unfreezes a single parameter.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.params[id.0].frozen = frozen;
    }

    /// Iterates over `(id, name)` pairs of all parameters.
    pub fn iter_ids(&self) -> impl Iterator<Item = (ParamId, &str)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| (ParamId(i), p.name.as_str()))
    }

    /// Copies the values of parameters with matching names from `other`.
    /// Returns the number of parameters copied. Shapes must match for
    /// matching names.
    pub fn load_matching(&mut self, other: &ParamStore) -> usize {
        self.stamp = fresh_stamp();
        let mut copied = 0;
        for p in &mut self.params {
            if let Some(&oid) = other.by_name.get(&p.name) {
                let ov = &other.params[oid.0].value;
                assert_eq!(
                    p.value.shape(),
                    ov.shape(),
                    "shape mismatch while loading parameter {:?}",
                    p.name
                );
                p.value = ov.clone();
                copied += 1;
            }
        }
        copied
    }

    /// Serializes the store (names, shapes, values, freeze flags) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore serialization cannot fail")
    }

    /// Restores a store previously produced by [`ParamStore::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut ps = ParamStore::new();
        let a = ps.register("enc.w", Tensor::matrix(2, 2, vec![1.0; 4]));
        assert_eq!(ps.id("enc.w"), Some(a));
        assert_eq!(ps.name(a), "enc.w");
        assert_eq!(ps.num_scalars(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut ps = ParamStore::new();
        ps.register("w", Tensor::scalar(0.0));
        ps.register("w", Tensor::scalar(1.0));
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut ps = ParamStore::new();
        let a = ps.register("w", Tensor::vector(vec![0.0, 0.0]));
        ps.accumulate_grad(a, &[1.0, 2.0]);
        ps.accumulate_grad(a, &[1.0, 2.0]);
        assert_eq!(ps.grad(a), &[2.0, 4.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(a), &[0.0, 0.0]);
    }

    #[test]
    fn frozen_params_skip_grads() {
        let mut ps = ParamStore::new();
        let a = ps.register("enc.w", Tensor::vector(vec![0.0]));
        ps.set_frozen(a, true);
        ps.accumulate_grad(a, &[5.0]);
        assert_eq!(ps.grad(a), &[0.0]);
        assert!(ps.is_frozen(a));
    }

    #[test]
    fn freeze_by_predicate() {
        let mut ps = ParamStore::new();
        ps.register("enc.l0.w", Tensor::scalar(0.0));
        ps.register("enc.l1.w", Tensor::scalar(0.0));
        ps.register("head.w", Tensor::scalar(0.0));
        let n = ps.set_frozen_where(true, |n| n.starts_with("enc."));
        assert_eq!(n, 2);
        assert!(!ps.is_frozen(ps.id("head.w").unwrap()));
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut ps = ParamStore::new();
        let a = ps.register("w", Tensor::vector(vec![0.0, 0.0]));
        ps.accumulate_grad(a, &[3.0, 4.0]); // norm 5
        ps.clip_grad_norm(1.0);
        let g = ps.grad(a);
        assert!((g[0] - 0.6).abs() < 1e-6 && (g[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn finite_checks_detect_poison() {
        let mut ps = ParamStore::new();
        let a = ps.register("w", Tensor::vector(vec![1.0, 2.0]));
        assert!(ps.grads_are_finite());
        assert!(ps.values_are_finite());
        ps.accumulate_grad(a, &[f32::NAN, 0.0]);
        assert!(!ps.grads_are_finite());
        ps.zero_grads();
        assert!(ps.grads_are_finite());
        // Frozen parameters are excluded from the gradient check (their
        // gradients are never applied).
        ps.set_frozen(a, true);
        ps.accumulate_grad(a, &[f32::INFINITY, 0.0]);
        assert!(ps.grads_are_finite());
        ps.value_mut(a).data_mut()[0] = f32::NAN;
        assert!(!ps.values_are_finite());
    }

    #[test]
    fn snapshot_restore_is_copy_on_write() {
        let mut ps = ParamStore::new();
        let a = ps.register("w", Tensor::vector(vec![1.0, 2.0]));
        let snap = ps.snapshot_values();
        // The snapshot shares storage until the first write...
        assert!(Arc::ptr_eq(&snap[0], ps.value_arc(a)));
        ps.value_mut(a).data_mut()[0] = 99.0;
        // ...which detaches the live value and leaves the checkpoint intact.
        assert!(!Arc::ptr_eq(&snap[0], ps.value_arc(a)));
        assert_eq!(snap[0].data(), &[1.0, 2.0]);
        assert_eq!(ps.value(a).data(), &[99.0, 2.0]);
        ps.restore_values(&snap);
        assert_eq!(ps.value(a).data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "snapshot holds")]
    fn restore_rejects_mismatched_snapshot() {
        let mut ps = ParamStore::new();
        ps.register("w", Tensor::scalar(1.0));
        ps.restore_values(&[]);
    }

    #[test]
    fn json_roundtrip() {
        let mut ps = ParamStore::new();
        ps.register("w", Tensor::vector(vec![1.5, -2.5]));
        let s = ps.to_json();
        let ps2 = ParamStore::from_json(&s).unwrap();
        assert_eq!(ps2.value(ps2.id("w").unwrap()).data(), &[1.5, -2.5]);
    }

    #[test]
    fn every_value_mutation_renews_the_stamp() {
        let mut ps = ParamStore::new();
        let mut last = ps.stamp();
        let mut renewed = |ps: &ParamStore, what: &str| {
            assert_ne!(ps.stamp(), last, "{what} must renew the stamp");
            last = ps.stamp();
        };
        let a = ps.register("w", Tensor::vector(vec![1.0, 2.0]));
        renewed(&ps, "register");
        let snap = ps.snapshot_values();
        ps.value_mut(a).data_mut()[0] = 3.0;
        renewed(&ps, "value_mut");
        ps.restore_values(&snap);
        renewed(&ps, "restore_values");
        ps.for_each_unfrozen_grad_value(|_, _, v| v.data_mut()[1] += 1.0);
        renewed(&ps, "for_each_unfrozen_grad_value");
        let mut other = ParamStore::new();
        other.register("w", Tensor::vector(vec![5.0, 6.0]));
        ps.load_matching(&other);
        renewed(&ps, "load_matching");
        let loaded = ParamStore::from_json(&ps.to_json()).unwrap();
        assert_ne!(loaded.stamp(), ps.stamp(), "deserialization must take a fresh stamp");

        // Gradient and freeze changes leave the values (and the stamp) alone.
        let before = ps.stamp();
        ps.accumulate_grad(a, &[1.0, 1.0]);
        ps.clip_grad_norm(0.5);
        ps.zero_grads();
        ps.set_frozen(a, true);
        ps.set_frozen_where(false, |_| true);
        let _ = ps.snapshot_values();
        assert_eq!(ps.stamp(), before);
    }

    #[test]
    fn clone_keeps_the_stamp_until_either_side_mutates() {
        let mut ps = ParamStore::new();
        let a = ps.register("w", Tensor::vector(vec![1.0]));
        let mut copy = ps.clone();
        assert_eq!(copy.stamp(), ps.stamp());
        copy.value_mut(a).data_mut()[0] = 2.0;
        assert_ne!(copy.stamp(), ps.stamp());
        assert_eq!(ps.value(a).data(), &[1.0], "the original keeps its values");
    }

    /// `to_json` output as produced before the stamp existed: the stamp
    /// must stay out of checkpoints, and old checkpoints must still load.
    const PRE_STAMP_JSON: &str = r#"{"params":[{"name":"enc.w","value":{"shape":[2,2],"data":[0.5,-1.25,3.0,0.10000000149011612]},"grad":[0.0,0.0,0.0,0.0],"frozen":false},{"name":"enc.b","value":{"shape":[2],"data":[1.0,-0.0]},"grad":[0.0,0.0],"frozen":true}],"by_name":{"enc.b":1,"enc.w":0}}"#;

    #[test]
    fn json_is_byte_identical_to_the_pre_stamp_format() {
        let mut ps = ParamStore::new();
        ps.register("enc.w", Tensor::matrix(2, 2, vec![0.5, -1.25, 3.0, 0.1]));
        let b = ps.register("enc.b", Tensor::vector(vec![1.0, -0.0]));
        ps.set_frozen(b, true);
        assert_eq!(ps.to_json(), PRE_STAMP_JSON);

        let loaded = ParamStore::from_json(PRE_STAMP_JSON).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.value(loaded.id("enc.w").unwrap()).data(), ps.value(ParamId(0)).data());
        assert!(loaded.is_frozen(loaded.id("enc.b").unwrap()));
        assert_eq!(loaded.to_json(), PRE_STAMP_JSON);
    }

    #[test]
    fn load_matching_copies_values() {
        let mut src = ParamStore::new();
        src.register("a", Tensor::vector(vec![9.0]));
        src.register("b", Tensor::vector(vec![7.0]));
        let mut dst = ParamStore::new();
        dst.register("a", Tensor::vector(vec![0.0]));
        dst.register("c", Tensor::vector(vec![0.0]));
        assert_eq!(dst.load_matching(&src), 1);
        assert_eq!(dst.value(dst.id("a").unwrap()).data(), &[9.0]);
    }
}
