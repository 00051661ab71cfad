use crate::unit::{ConvBnRelu, ConvKernel, Unit};
use automc_tensor::nn::Layer;
use automc_tensor::optim::Param;
use automc_tensor::Tensor;

/// Which paper architecture a [`ConvNet`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet of the given depth (20 / 56 / 164).
    ResNet(usize),
    /// VGG of the given depth (13 / 16 / 19).
    Vgg(usize),
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::ResNet(d) => write!(f, "ResNet-{d}"),
            ModelKind::Vgg(d) => write!(f, "VGG-{d}"),
        }
    }
}

/// Where a [`ConvBnRelu`] sits inside the network — determines what
/// compression surgery is legal on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbrRole {
    /// Stem convolution (output feeds the residual stream — not prunable).
    Stem,
    /// A VGG body conv (freely prunable; consumer is the next conv/head).
    VggConv,
    /// First conv of a basic block (prunable inner channels).
    BlockC1,
    /// Second conv of a basic block (output residual-tied).
    BlockC2,
    /// Projection shortcut of a basic block (residual-tied).
    Shortcut,
}

/// A compression-aware convolutional network: an ordered unit list plus the
/// metadata (input dims, class count, LFB tie groups) that metric
/// accounting and surgery need.
pub struct ConvNet {
    /// The unit sequence, input to logits.
    pub units: Vec<Unit>,
    /// Which architecture this is (for reporting).
    pub kind: ModelKind,
    classes: usize,
    input_dims: (usize, usize, usize),
    next_tie_group: usize,
}

impl ConvNet {
    /// Assemble a network. `input_dims` is `(channels, height, width)`.
    pub fn new(
        units: Vec<Unit>,
        kind: ModelKind,
        classes: usize,
        input_dims: (usize, usize, usize),
    ) -> Self {
        ConvNet { units, kind, classes, input_dims, next_tie_group: 0 }
    }

    /// Class count of the head.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `(channels, height, width)` the net expects.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.input_dims
    }

    /// Forward pass to logits `[batch, classes]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for unit in &mut self.units {
            cur = unit.forward(&cur, train);
        }
        cur
    }

    /// Backward pass from logit gradients; accumulates parameter grads and
    /// synchronises tied (shared-basis) gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for unit in self.units.iter_mut().rev() {
            g = unit.backward(&g);
        }
        self.sync_tied_gradients();
        g
    }

    /// All parameter views (tied bases appear once per member; gradients
    /// are pre-synchronised by [`ConvNet::backward`], so identical updates
    /// keep tied weights identical).
    pub fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.units.iter_mut().flat_map(|u| u.params_mut()).collect()
    }

    /// `P(M)`: learnable parameter count, counting each tied basis once.
    pub fn param_count(&self) -> usize {
        let mut total: usize = self.units.iter().map(|u| u.param_count()).sum();
        // Subtract duplicate tied bases: every member after the first in a
        // tie group contributes a redundant copy.
        let mut seen: Vec<usize> = Vec::new();
        self.for_each_cbr(|_, cbr| {
            if let ConvKernel::Factored { basis, tie_group: Some(g), .. } = &cbr.kernel {
                if seen.contains(g) {
                    total -= basis.weight.numel();
                } else {
                    seen.push(*g);
                }
            }
        });
        total
    }

    /// `F(M)`: multiply–accumulates for one image at the net's input dims.
    pub fn flops(&self) -> u64 {
        let (_, mut h, mut w) = self.input_dims;
        let mut total = 0u64;
        for unit in &self.units {
            match unit {
                Unit::Cbr(u) => {
                    let (f, nh, nw) = u.flops(h, w);
                    total += f;
                    h = nh;
                    w = nw;
                }
                Unit::Block(b) => {
                    let (f, nh, nw) = b.flops(h, w);
                    total += f;
                    h = nh;
                    w = nw;
                }
                Unit::Pool(_) => {
                    h /= 2;
                    w /= 2;
                }
                Unit::Classifier(c) => {
                    total += (c.in_channels() * self.classes) as u64;
                }
            }
        }
        total
    }

    /// Visit every [`ConvBnRelu`] with its role, immutably.
    pub fn for_each_cbr(&self, mut f: impl FnMut(CbrRole, &ConvBnRelu)) {
        for (idx, unit) in self.units.iter().enumerate() {
            match unit {
                Unit::Cbr(u) => {
                    let role = if idx == 0 && matches!(self.kind, ModelKind::ResNet(_)) {
                        CbrRole::Stem
                    } else {
                        CbrRole::VggConv
                    };
                    f(role, u);
                }
                Unit::Block(b) => {
                    f(CbrRole::BlockC1, &b.c1);
                    f(CbrRole::BlockC2, &b.c2);
                    if let Some(s) = &b.shortcut {
                        f(CbrRole::Shortcut, s);
                    }
                }
                _ => {}
            }
        }
    }

    /// Visit every [`ConvBnRelu`] with its role, mutably.
    pub fn for_each_cbr_mut(&mut self, mut f: impl FnMut(CbrRole, &mut ConvBnRelu)) {
        let kind = self.kind;
        for (idx, unit) in self.units.iter_mut().enumerate() {
            match unit {
                Unit::Cbr(u) => {
                    let role = if idx == 0 && matches!(kind, ModelKind::ResNet(_)) {
                        CbrRole::Stem
                    } else {
                        CbrRole::VggConv
                    };
                    f(role, u);
                }
                Unit::Block(b) => {
                    f(CbrRole::BlockC1, &mut b.c1);
                    f(CbrRole::BlockC2, &mut b.c2);
                    if let Some(s) = &mut b.shortcut {
                        f(CbrRole::Shortcut, s);
                    }
                }
                _ => {}
            }
        }
    }

    /// Allocate a fresh LFB tie-group id.
    pub fn alloc_tie_group(&mut self) -> usize {
        let g = self.next_tie_group;
        self.next_tie_group += 1;
        g
    }

    /// Next tie-group id that [`ConvNet::alloc_tie_group`] would hand out
    /// (journaled so a restored net keeps allocating fresh ids).
    pub fn tie_group_watermark(&self) -> usize {
        self.next_tie_group
    }

    /// Restore the tie-group watermark from a checkpoint. `watermark` must
    /// be past every id in use, or future allocations would collide.
    pub fn set_tie_group_watermark(&mut self, watermark: usize) {
        self.next_tie_group = watermark;
    }

    /// Sum basis gradients within each tie group and distribute the sum to
    /// every member, so a uniform optimizer step keeps tied weights equal.
    pub fn sync_tied_gradients(&mut self) {
        // Gather (group, grad) sums.
        let mut sums: Vec<(usize, Tensor)> = Vec::new();
        self.for_each_cbr(|_, cbr| {
            if let ConvKernel::Factored { basis, tie_group: Some(g), .. } = &cbr.kernel {
                match sums.iter_mut().find(|(id, _)| id == g) {
                    Some((_, acc)) if acc.dims() == basis.grad_weight.dims() => {
                        acc.add_assign(&basis.grad_weight);
                    }
                    Some(_) => {} // shape drifted (shouldn't happen) — skip
                    None => sums.push((*g, basis.grad_weight.clone())),
                }
            }
        });
        if sums.is_empty() {
            return;
        }
        self.for_each_cbr_mut(|_, cbr| {
            if let ConvKernel::Factored { basis, tie_group: Some(g), .. } = &mut cbr.kernel {
                if let Some((_, sum)) = sums.iter().find(|(id, _)| id == g) {
                    if sum.dims() == basis.grad_weight.dims() {
                        basis.grad_weight = sum.clone();
                    }
                }
            }
        });
    }

    /// Deep copy of the network: weights, gradients and layer state. A
    /// convolution's clone starts without the lowered columns of its last
    /// forward pass (megabytes after an eval pass); the small per-batch
    /// caches of other layers are copied, and the next forward pass
    /// overwrites them either way.
    pub fn clone_net(&self) -> ConvNet {
        ConvNet {
            units: self.units.clone(),
            kind: self.kind,
            classes: self.classes,
            input_dims: self.input_dims,
            next_tie_group: self.next_tie_group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resnet, vgg};
    use automc_tensor::rng_from_seed;

    #[test]
    fn resnet_forward_shape() {
        let mut rng = rng_from_seed(120);
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg_forward_shape() {
        let mut rng = rng_from_seed(121);
        let mut net = vgg(16, 8, 100, (3, 8, 8), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 100]);
    }

    #[test]
    fn deeper_nets_have_more_params_and_flops() {
        let mut rng = rng_from_seed(122);
        let r20 = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let r56 = resnet(56, 4, 10, (3, 8, 8), &mut rng);
        let r164 = resnet(164, 4, 10, (3, 8, 8), &mut rng);
        assert!(r20.param_count() < r56.param_count());
        assert!(r56.param_count() < r164.param_count());
        assert!(r20.flops() < r56.flops());
        let v13 = vgg(13, 8, 100, (3, 8, 8), &mut rng);
        let v16 = vgg(16, 8, 100, (3, 8, 8), &mut rng);
        let v19 = vgg(19, 8, 100, (3, 8, 8), &mut rng);
        assert!(v13.param_count() < v16.param_count());
        assert!(v16.param_count() < v19.param_count());
    }

    #[test]
    fn clone_net_is_independent() {
        let mut rng = rng_from_seed(123);
        let net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let mut copy = net.clone_net();
        assert_eq!(net.param_count(), copy.param_count());
        // Mutating the copy must not affect the original.
        if let Unit::Cbr(c) = &mut copy.units[0] {
            if let ConvKernel::Full(conv) = &mut c.kernel {
                conv.weight.data_mut()[0] += 100.0;
            }
        }
        let (orig_w, copy_w) = {
            let get = |n: &ConvNet| match &n.units[0] {
                Unit::Cbr(c) => match &c.kernel {
                    ConvKernel::Full(conv) => conv.weight.data()[0],
                    _ => panic!(),
                },
                _ => panic!(),
            };
            (get(&net), get(&copy))
        };
        assert!((copy_w - orig_w - 100.0).abs() < 1e-6);
    }

    /// A network cloned after a forward pass trains and evaluates bit for
    /// bit like the original.
    #[test]
    fn clone_trains_and_evaluates_like_the_original() {
        use automc_tensor::loss::softmax_cross_entropy;
        use automc_tensor::optim::{Optimizer, Sgd, SgdConfig};
        let mut rng = rng_from_seed(126);
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let x = Tensor::randn(&[8, 3, 8, 8], 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        net.forward(&x, false);
        let mut copy = net.clone_net();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut opts = [Sgd::new(SgdConfig::default()), Sgd::new(SgdConfig::default())];
        for step in 0..3 {
            let mut outs = Vec::new();
            for (n, opt) in [&mut net, &mut copy].into_iter().zip(opts.iter_mut()) {
                let logits = n.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &labels);
                outs.push(bits(&n.backward(&grad)));
                opt.step(&mut n.params_mut());
            }
            assert_eq!(outs[0], outs[1], "input gradient at step {step}");
        }
        assert_eq!(bits(&net.forward(&x, false)), bits(&copy.forward(&x, false)));
    }

    #[test]
    fn backward_produces_input_grad() {
        let mut rng = rng_from_seed(124);
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, true);
        let g = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert!(g.norm() > 0.0);
    }

    #[test]
    fn tied_basis_counted_once() {
        let mut rng = rng_from_seed(125);
        let mut net = vgg(13, 8, 10, (3, 8, 8), &mut rng);
        let before = net.param_count();
        // Factorise two same-shape convs with a shared tie group.
        let group = net.alloc_tie_group();
        let mut basis_numel = 0usize;
        let mut done = 0;
        net.for_each_cbr_mut(|role, cbr| {
            if role == CbrRole::VggConv
                && done < 2
                && cbr.in_channels() == 32
                && cbr.out_channels() == 32
            {
                cbr.factorize(4, Some(group));
                if let ConvKernel::Factored { basis, .. } = &cbr.kernel {
                    basis_numel = basis.weight.numel();
                }
                done += 1;
            }
        });
        assert_eq!(done, 2, "expected two 32→32 convs in VGG-13 stage 4");
        let after = net.param_count();
        // Untied accounting would count basis twice; tied counts once.
        let mut untied: usize = net.units.iter().map(|u| u.param_count()).sum();
        untied -= 0;
        assert_eq!(after + basis_numel, untied);
        assert!(after < before + basis_numel);
    }

    #[test]
    fn sync_tied_gradients_equalises() {
        let mut rng = rng_from_seed(126);
        let mut net = vgg(13, 8, 10, (3, 8, 8), &mut rng);
        let group = net.alloc_tie_group();
        let mut done = 0;
        net.for_each_cbr_mut(|role, cbr| {
            if role == CbrRole::VggConv
                && done < 2
                && cbr.in_channels() == 32
                && cbr.out_channels() == 32
            {
                cbr.factorize(4, Some(group));
                done += 1;
            }
        });
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.dims()));
        let mut grads: Vec<Tensor> = Vec::new();
        net.for_each_cbr(|_, cbr| {
            if let ConvKernel::Factored { basis, tie_group: Some(_), .. } = &cbr.kernel {
                grads.push(basis.grad_weight.clone());
            }
        });
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0], grads[1], "tied gradients must match after sync");
    }
}
