use crate::isa::multiversion;
use crate::nn::Layer;
use crate::Tensor;

/// The ReLU forward in place: `x = max(x, 0)`. Returns the mask
/// `x[i] > 0` (taken before the clamp) for [`relu_mask_grad`].
pub fn relu_with_mask(x: &mut Tensor) -> Vec<bool> {
    let mut mask = vec![false; x.numel()];
    relu_kernel(x.data_mut(), &mut mask);
    mask
}

/// The ReLU forward in place with no mask, for an eval-mode forward that
/// no backward follows. Bit-identical to [`relu_with_mask`]'s clamp.
pub fn relu_in_place(x: &mut Tensor) {
    clamp_kernel(x.data_mut());
}

/// The ReLU backward in place: zero each element of `grad` whose `mask`
/// entry (from [`relu_with_mask`]) is false.
pub fn relu_mask_grad(grad: &mut Tensor, mask: &[bool]) {
    debug_assert_eq!(grad.numel(), mask.len(), "relu_mask_grad: mask length");
    mask_kernel(grad.data_mut(), mask);
}

multiversion! {
    fn relu_kernel(x: &mut [f32], mask: &mut [bool]) {
        for (v, m) in x.iter_mut().zip(mask.iter_mut()) {
            *m = *v > 0.0;
            *v = v.max(0.0);
        }
    }

    fn clamp_kernel(x: &mut [f32]) {
        for v in x {
            *v = v.max(0.0);
        }
    }

    fn mask_kernel(g: &mut [f32], mask: &[bool]) {
        for (v, &keep) in g.iter_mut().zip(mask) {
            *v = if keep { *v } else { 0.0 };
        }
    }
}

/// Rectified linear unit.
#[derive(Default)]
#[derive(Clone)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut y = x.clone();
        self.mask = Some(relu_with_mask(&mut y));
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        let mut g = grad_out.clone();
        relu_mask_grad(&mut g, mask);
        g
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
#[derive(Clone)]
pub struct Tanh {
    cached_out: Option<Tensor>,
}

impl Tanh {
    /// New Tanh.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let out = x.map(f32::tanh);
        self.cached_out = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.cached_out.as_ref().expect("Tanh::backward before forward");
        grad_out.zip(out, |g, y| g * (1.0 - y * y))
    }
}

/// Logistic sigmoid.
#[derive(Default)]
#[derive(Clone)]
pub struct Sigmoid {
    cached_out: Option<Tensor>,
}

impl Sigmoid {
    /// New Sigmoid.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let out = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_out = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .cached_out
            .as_ref()
            .expect("Sigmoid::backward before forward");
        grad_out.zip(out, |g, y| g * y * (1.0 - y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use crate::rng_from_seed;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[4], &[-1., 0., 2., -3.]);
        assert_eq!(r.forward(&x, true).data(), &[0., 0., 2., 0.]);
        let g = r.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0., 0., 1., 0.]);
    }

    #[test]
    fn tanh_range_and_gradcheck() {
        let mut rng = rng_from_seed(70);
        let mut t = Tanh::new();
        let x = Tensor::randn(&[3, 4], 2.0, &mut rng);
        let y = t.forward(&x, true);
        assert!(y.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        gradcheck::check_input_grad(&mut t, &x, 0.05);
    }

    #[test]
    fn sigmoid_range_and_gradcheck() {
        let mut rng = rng_from_seed(71);
        let mut s = Sigmoid::new();
        let x = Tensor::randn(&[3, 4], 2.0, &mut rng);
        let y = s.forward(&x, true);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        gradcheck::check_input_grad(&mut s, &x, 0.05);
    }

    #[test]
    fn sigmoid_midpoint() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::zeros(&[1]), true);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
    }
}
