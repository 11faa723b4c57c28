//! # lsched-nn
//!
//! A from-scratch neural-network library purpose-built for the LSched
//! reproduction: dense tensors, a reverse-mode autodiff tape, fully
//! connected layers, the paper's edge-aware tree convolution (Eq. 2) with
//! graph-attention term weighting (Eqs. 3–5), and SGD/Adam optimizers with
//! per-parameter freezing (the mechanism behind Section 6's transfer
//! learning).
//!
//! The library has no ML dependencies; every operation is a plain loop
//! over `f32` slices, which is plenty for LSched's small networks (hidden
//! sizes of a few dozen) and keeps the reproduction self-contained.
//!
//! ## Quick example
//!
//! ```
//! use lsched_nn::{Graph, ParamStore, Linear, Adam};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(&mut store, &mut rng, "demo", 4, 2);
//! let mut opt = Adam::new(1e-2);
//!
//! // One training step: forward, backward, apply.
//! store.zero_grads();
//! let mut g = Graph::new();
//! let x = g.input_vec(vec![1.0, 0.5, -0.5, 2.0]);
//! let y = layer.forward(&mut g, &store, x);
//! let loss = g.sum_elems(y);
//! g.backward(loss, &mut store);
//! opt.step(&mut store);
//! ```

#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc_count;
pub mod backend;
pub mod checkpoint;
pub mod gat;
pub mod graph;
pub mod head;
pub mod infer;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape_ref;
pub mod tensor;
pub mod tree_conv;

pub use backend::{Backend, TapeBackend};
pub use checkpoint::{CheckpointError, CheckpointManager};
pub use gat::{normalize_scores, PairAttention};
pub use graph::{softmax_vals, Graph, NodeId, TapeSize, ValueRef};
pub use head::ScoringHead;
pub use infer::{InferBackend, InferCtx, ValId};
pub use layers::{Activation, Linear, Mlp};
pub use optim::{Adam, AdamState, Sgd};
pub use params::{ParamId, ParamStore};
pub use tape_ref::{RefTape, RefNodeId, RefTapeBackend};
pub use tensor::{axpy4, dot4, Tensor};
pub use tree_conv::{
    ConvMemo, ConvReuse, FilterMode, FilterProducts, TreeConvConfig, TreeConvLayer, TreeConvStack,
    TreeSpec,
};
