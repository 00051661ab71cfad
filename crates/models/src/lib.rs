//! # automc-models
//!
//! Compression-aware CNN model IR, architecture builders, and training
//! loops.
//!
//! The AutoMC paper compresses ResNet-20/56/164 and VGG-13/16/19. This
//! crate provides those architectures (at the reduced "repro scale"
//! documented in `DESIGN.md`) on top of an IR designed for structural
//! surgery:
//!
//! * [`ConvNet`] — an ordered list of [`Unit`]s (conv-bn-relu stacks,
//!   residual basic blocks, pooling, a GAP+linear classifier) with explicit
//!   forward/backward, parameter enumeration, and FLOPs accounting.
//! * [`ConvBnRelu`] — the atomic conv unit whose kernel can be *full* or
//!   *factored* (basis conv + pointwise conv), which is how the low-rank
//!   methods (HOS's kernel approximation, LFB's filter basis) rewrite the
//!   network. Factored bases can be *tied* across units (LFB shares one
//!   basis per group) — the net counts tied parameters once and sums their
//!   gradients.
//! * [`surgery`] — channel-level pruning that keeps producer/consumer
//!   shapes consistent (VGG chains, ResNet block-internal channels).
//! * [`train`] — SGD training with the auxiliary objectives compression
//!   methods need: knowledge distillation (LMA), teacher-logit matching
//!   (HOS/LFB), and BN-γ L1 sparsity (Network Slimming).
//!
//! Architecture fidelity notes (repro scale): ResNet-164 uses 27 basic
//! blocks per stage (the paper's model is a bottleneck net of equal depth);
//! VGG nets use four conv stages with a GAP head instead of the FC stack.
//! Depth ordering and stage structure — what compression interacts with —
//! are preserved.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod convnet;
mod resnet;
pub mod serialize;
pub mod surgery;
pub mod train;
mod unit;
mod vgg;

pub use convnet::{CbrRole, ConvNet, ModelKind};
pub use resnet::resnet;
pub use unit::{BasicBlock, Classifier, ConvBnRelu, ConvKernel, Unit};
pub use vgg::vgg;

/// Model-side task features for `NN_exp` (paper §3.3.1: parameter amount,
/// FLOPs, accuracy score of the original model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelFeatures {
    /// Parameter count `P(M)`.
    pub params: usize,
    /// FLOPs `F(M)` (multiply–accumulates per image).
    pub flops: u64,
    /// Accuracy score `A(M)` on the task's evaluation set, in `[0, 1]`.
    pub accuracy: f32,
}

impl ModelFeatures {
    /// Normalised feature vector (log-scaled params/FLOPs).
    pub fn to_vec(&self) -> Vec<f32> {
        vec![
            (self.params.max(1) as f32).ln() / 15.0,
            (self.flops.max(1) as f32).ln() / 20.0,
            self.accuracy,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_features_vectorise() {
        let f = ModelFeatures { params: 10_000, flops: 1_000_000, accuracy: 0.8 };
        let v = f.to_vec();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
