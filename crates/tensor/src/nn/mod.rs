//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers own their parameters and gradients, which makes the structural
//! surgery performed by compression methods (channel removal, low-rank
//! replacement, weight-matrix rewriting) direct: higher-level crates edit
//! `weight`/`bias` tensors in place and the layer keeps functioning.
//!
//! The [`Layer`] contract:
//! 1. `forward(x, train)` caches whatever the backward pass needs. A
//!    layer may keep nothing from an eval-mode forward (`Conv2d` keeps
//!    no columns), so a backward follows a train-mode forward.
//! 2. `backward(grad_out)` *accumulates* into parameter gradients and
//!    returns the gradient with respect to the input.
//! 3. `params_mut()` exposes `(value, grad)` pairs for an optimizer.

mod act;
mod batchnorm;
mod conv;
mod linear;
mod pool;
mod rnn;

pub use act::{relu_in_place, relu_mask_grad, relu_with_mask, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2};
pub use rnn::Rnn;

use crate::optim::Param;
use crate::Tensor;

/// A differentiable layer.
pub trait Layer {
    /// Compute the output, caching state for [`Layer::backward`].
    ///
    /// `train` switches layers with train/eval behaviour (batch-norm), and
    /// an eval-mode forward need not cache anything for a backward.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Given the loss gradient wrt this layer's output, accumulate
    /// parameter gradients and return the gradient wrt the input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to `(value, grad)` parameter pairs.
    fn params_mut(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Number of learnable scalar parameters.
    fn param_count(&self) -> usize {
        0
    }
}

/// A straight-line stack of layers (used for the MLPs inside `NN_exp`,
/// `F_mo`, and the RL controller's heads).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

pub mod gradcheck {
    //! Finite-difference gradient checking harness.
    //!
    //! Shared by the layer tests in this crate and by downstream crates'
    //! tests (composite units, compression surgery). Asserts on mismatch.

    use super::Layer;
    use crate::Tensor;

    /// Check `d loss / d input` where `loss = Σ out ⊙ probe`.
    pub fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        let mut rng = crate::rng_from_seed(999);
        let probe = Tensor::randn(out.dims(), 1.0, &mut rng);
        let gin = layer.backward(&probe);
        let eps = 1e-2;
        let mut checked = 0;
        for idx in (0..x.numel()).step_by((x.numel() / 24).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp: f32 = layer
                .forward(&xp, true)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm: f32 = layer
                .forward(&xm, true)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = gin.data()[idx];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "input grad idx {idx}: fd {fd} vs analytic {an}"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    /// Check `d loss / d params` where `loss = Σ out ⊙ probe`.
    pub fn check_param_grads(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        let mut rng = crate::rng_from_seed(998);
        let probe = Tensor::randn(out.dims(), 1.0, &mut rng);
        // Clear any stale grads, then accumulate fresh ones.
        for p in layer.params_mut() {
            p.grad.zero();
        }
        let _ = layer.forward(x, true);
        let _ = layer.backward(&probe);
        let analytic: Vec<Tensor> = layer.params_mut().iter().map(|p| p.grad.clone()).collect();
        let eps = 1e-2;
        for (pi, an_grad) in analytic.iter().enumerate() {
            let n = an_grad.numel();
            for idx in (0..n).step_by((n / 12).max(1)) {
                let orig = {
                    let mut ps = layer.params_mut();
                    let v = ps[pi].value.data()[idx];
                    ps[pi].value.data_mut()[idx] = v + eps;
                    v
                };
                let lp: f32 = layer
                    .forward(x, true)
                    .data()
                    .iter()
                    .zip(probe.data())
                    .map(|(a, b)| a * b)
                    .sum();
                {
                    let mut ps = layer.params_mut();
                    ps[pi].value.data_mut()[idx] = orig - eps;
                }
                let lm: f32 = layer
                    .forward(x, true)
                    .data()
                    .iter()
                    .zip(probe.data())
                    .map(|(a, b)| a * b)
                    .sum();
                {
                    let mut ps = layer.params_mut();
                    ps[pi].value.data_mut()[idx] = orig;
                }
                let fd = (lp - lm) / (2.0 * eps);
                let an = an_grad.data()[idx];
                assert!(
                    (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                    "param {pi} idx {idx}: fd {fd} vs analytic {an}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = rng_from_seed(30);
        let mut net = Sequential::new()
            .push(Linear::new(6, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut rng));
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[4, 3]);
        let gx = net.backward(&Tensor::ones(&[4, 3]));
        assert_eq!(gx.dims(), &[4, 6]);
        assert_eq!(net.param_count(), 6 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.params_mut().len(), 4);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn sequential_gradcheck() {
        let mut rng = rng_from_seed(31);
        let mut net = Sequential::new()
            .push(Linear::new(5, 7, &mut rng))
            .push(Tanh::new())
            .push(Linear::new(7, 2, &mut rng));
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut net, &x, 0.05);
        gradcheck::check_param_grads(&mut net, &x, 0.05);
    }
}
