//! # automc-tensor
//!
//! A small, self-contained CPU tensor and neural-network training engine.
//!
//! This crate is the deep-learning substrate of the AutoMC reproduction: the
//! paper's compression strategies (pruning, knowledge distillation, low-rank
//! approximation) all require *real* gradient-based training — fine-tuning a
//! pruned network, distilling into a thinner student, training with sparsity
//! regularisation. Everything here is implemented from scratch in Rust, with
//! `unsafe` confined to the worker pool ([`par`]) and the run-time choice
//! between the baseline and AVX2 instances of the hot loops ([`isa`]):
//!
//! * [`Tensor`] — an owned, dense, row-major `f32` tensor with shape/stride
//!   bookkeeping and the linear-algebra kernels the layers need (blocked
//!   matmul, im2col).
//! * [`nn`] — layers with explicit `forward`/`backward` passes (convolution,
//!   batch-norm, linear, pooling, ReLU) exposing their parameters for
//!   optimizers *and* for direct structural surgery (channel pruning,
//!   low-rank replacement) by higher-level crates.
//! * [`loss`] — softmax cross-entropy, MSE, and temperature-scaled
//!   distillation losses, each returning the gradient wrt the logits.
//! * [`optim`] — SGD with momentum/weight-decay and Adam.
//!
//! The engine is deliberately eager and layer-based (no general autograd
//! tape): compression methods need to reach *into* layers and rewrite their
//! weight matrices, which is natural when layers own their parameters.
//!
//! ## Example
//!
//! ```
//! use automc_tensor::{Tensor, nn::{Linear, Layer}, loss, optim::{Optimizer, Sgd, SgdConfig}};
//!
//! let mut rng = automc_tensor::rng_from_seed(0);
//! let mut layer = Linear::new(4, 3, &mut rng);
//! let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
//! let y = layer.forward(&x, true);
//! assert_eq!(y.shape().dims(), &[8, 3]);
//! let (loss, grad) = loss::softmax_cross_entropy(&y, &[0, 1, 2, 0, 1, 2, 0, 1]);
//! assert!(loss > 0.0);
//! let _gx = layer.backward(&grad);
//! let mut sgd = Sgd::new(SgdConfig::default());
//! sgd.step(&mut layer.params_mut());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod im2col;
mod matmul;
mod shape;
mod tensor;

pub mod fault;
pub mod init;
pub mod isa;
pub mod linalg;
pub mod loss;
pub mod nn;
pub mod optim;
pub mod par;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

pub use im2col::{col2im, im2col};
pub use matmul::{matmul, matmul_at_b, matmul_a_bt};

/// Version of the kernel *numerics* — bumped whenever a kernel change can
/// alter result bits (e.g. a new accumulation order), even though results
/// stay deterministic at any thread count. Downstream fingerprints (memo
/// keys, result-cache keys, search journal tags) fold this in so cached
/// artifacts from older numerics are never mistaken for current ones.
/// History: 2 = parallel execution layer; 3 = packed/blocked microkernels
/// (`matmul_a_bt` switched to a fixed 4-lane combine order).
pub const KERNEL_NUMERICS_VERSION: u64 = 3;

/// Convenience alias for the RNG used throughout the workspace.
///
/// Every stochastic component (weight init, data generation, search) takes
/// an explicit `&mut Rng` so experiments are reproducible from a single seed.
pub type Rng = rand::rngs::StdRng;

/// Create the workspace RNG from a seed.
pub fn rng_from_seed(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

/// RNG for one task of a concurrent batch, derived from `(seed, task_id)`.
///
/// The ids are mixed through a splitmix64-style finalizer before seeding,
/// so every task gets a well-separated stream no matter how similar the
/// ids are — a plain `seed ^ task_id` collides as soon as two tasks share
/// an id pattern. Because each task owns its RNG, results are independent
/// of scheduling order.
pub fn rng_for_task(seed: u64, task_id: u64) -> Rng {
    let mut z = seed ^ task_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    rng_from_seed(z ^ (z >> 31))
}
