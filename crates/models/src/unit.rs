use automc_tensor::linalg;
use automc_tensor::nn::{
    relu_in_place, relu_mask_grad, relu_with_mask, BatchNorm2d, Conv2d, GlobalAvgPool, Layer,
    Linear, MaxPool2,
};
use automc_tensor::optim::Param;
use automc_tensor::{Rng, Tensor};

/// The convolution kernel of a [`ConvBnRelu`]: either a plain convolution
/// or a low-rank factored pair `pointwise ∘ basis`.
///
/// The factored form is what HOS's HOOI-style kernel approximation and
/// LFB's filter-basis method produce: a `rank`-filter spatial convolution
/// (the basis) followed by a `1×1` mixing convolution (the coefficients).
#[derive(Clone)]
pub enum ConvKernel {
    /// Plain convolution.
    Full(Conv2d),
    /// Factored low-rank pair.
    Factored {
        /// Spatial basis convolution `in_c → rank` (kernel of the original).
        basis: Conv2d,
        /// Pointwise coefficient convolution `rank → out_c`.
        point: Conv2d,
        /// LFB basis-sharing group: units with the same `Some(g)` share
        /// (and jointly train) their basis weights. `None` = private basis.
        tie_group: Option<usize>,
    },
}

impl ConvKernel {
    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        match self {
            ConvKernel::Full(c) => c.out_channels(),
            ConvKernel::Factored { point, .. } => point.out_channels(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        match self {
            ConvKernel::Full(c) => c.in_channels(),
            ConvKernel::Factored { basis, .. } => basis.in_channels(),
        }
    }

    /// Rank of the factored form (basis filter count), if factored.
    pub fn rank(&self) -> Option<usize> {
        match self {
            ConvKernel::Full(_) => None,
            ConvKernel::Factored { basis, .. } => Some(basis.out_channels()),
        }
    }

    /// Spatial stride (of the spatial convolution).
    pub fn stride(&self) -> usize {
        match self {
            ConvKernel::Full(c) => c.stride(),
            ConvKernel::Factored { basis, .. } => basis.stride(),
        }
    }
}

/// Conv → BatchNorm → (optional) ReLU — the atomic unit every architecture
/// in this workspace is assembled from.
#[derive(Clone)]
pub struct ConvBnRelu {
    /// The (possibly factored) convolution kernel.
    pub kernel: ConvKernel,
    /// Batch normalisation over the kernel's output channels.
    pub bn: BatchNorm2d,
    /// Whether a ReLU follows (false for residual-sum pre-activations).
    pub with_relu: bool,
    relu_mask: Option<Vec<bool>>,
}

impl ConvBnRelu {
    /// A full-kernel unit.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        with_relu: bool,
        rng: &mut Rng,
    ) -> Self {
        ConvBnRelu {
            kernel: ConvKernel::Full(Conv2d::new(in_c, out_c, k, k, stride, pad, false, rng)),
            bn: BatchNorm2d::new(out_c),
            with_relu,
            relu_mask: None,
        }
    }

    /// Reassemble a unit from deserialised layers (checkpoint restore).
    pub fn from_parts(kernel: ConvKernel, bn: BatchNorm2d, with_relu: bool) -> Self {
        ConvBnRelu { kernel, bn, with_relu, relu_mask: None }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.kernel.out_channels()
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.kernel.in_channels()
    }

    /// FLOPs for an input of `h×w`, and the output spatial dims.
    pub fn flops(&self, h: usize, w: usize) -> (u64, usize, usize) {
        match &self.kernel {
            ConvKernel::Full(c) => {
                let f = c.flops(h, w);
                let s = c.stride();
                let g_h = (h + 2 * c.padding() - c.kernel().0) / s + 1;
                let g_w = (w + 2 * c.padding() - c.kernel().1) / s + 1;
                (f, g_h, g_w)
            }
            ConvKernel::Factored { basis, point, .. } => {
                let fb = basis.flops(h, w);
                let s = basis.stride();
                let g_h = (h + 2 * basis.padding() - basis.kernel().0) / s + 1;
                let g_w = (w + 2 * basis.padding() - basis.kernel().1) / s + 1;
                let fp = point.flops(g_h, g_w);
                (fb + fp, g_h, g_w)
            }
        }
    }

    /// Learnable parameter count (tied bases are counted by the caller).
    pub fn param_count(&self) -> usize {
        let kernel = match &self.kernel {
            ConvKernel::Full(c) => c.param_count(),
            ConvKernel::Factored { basis, point, .. } => basis.param_count() + point.param_count(),
        };
        kernel + self.bn.param_count()
    }

    /// Keep only the listed output filters.
    pub fn keep_filters(&mut self, keep: &[usize]) {
        match &mut self.kernel {
            ConvKernel::Full(c) => c.keep_filters(keep),
            ConvKernel::Factored { point, .. } => point.keep_filters(keep),
        }
        self.bn.keep_channels(keep);
    }

    /// Keep only the listed input channels.
    pub fn keep_in_channels(&mut self, keep: &[usize]) {
        match &mut self.kernel {
            ConvKernel::Full(c) => c.keep_in_channels(keep),
            ConvKernel::Factored { basis, .. } => basis.keep_in_channels(keep),
        }
    }

    /// Zero the listed output filters in place (soft pruning — SFP). The
    /// filters stay trainable and may regrow.
    pub fn zero_filters(&mut self, idxs: &[usize]) {
        match &mut self.kernel {
            ConvKernel::Full(c) => {
                for &i in idxs {
                    c.weight.row_mut(i).fill(0.0);
                }
            }
            ConvKernel::Factored { point, .. } => {
                for &i in idxs {
                    point.weight.row_mut(i).fill(0.0);
                }
            }
        }
    }

    /// Per-filter weight rows of the spatially-acting kernel matrix
    /// (`[out_c, in_c·k²]` for full, `[out_c, rank]` for factored).
    pub fn filter_rows(&self) -> &Tensor {
        match &self.kernel {
            ConvKernel::Full(c) => &c.weight,
            ConvKernel::Factored { point, .. } => &point.weight,
        }
    }

    /// Replace a full kernel by its best rank-`rank` factorisation
    /// (truncated SVD of the matricised kernel). No-op if already factored.
    /// Returns the relative reconstruction error.
    pub fn factorize(&mut self, rank: usize, tie_group: Option<usize>) -> f32 {
        let ConvKernel::Full(c) = &self.kernel else {
            return 0.0;
        };
        let rank = rank.clamp(1, c.out_channels().min(c.weight.dims()[1]));
        let (left, right) = linalg::low_rank_factors(&c.weight, rank);
        let recon = automc_tensor::matmul(&left, &right);
        let err = linalg::relative_error(&c.weight, &recon);
        let (kh, kw) = c.kernel();
        let basis = Conv2d::from_weight(right, None, c.in_channels(), kh, kw, c.stride(), c.padding());
        let point = Conv2d::from_weight(left, None, rank, 1, 1, 1, 0);
        self.kernel = ConvKernel::Factored { basis, point, tie_group };
        err
    }

    /// Replace a full kernel by a factorisation onto a *given* basis
    /// (LFB's shared filter basis): coefficients are the least-squares
    /// projection `C = W·Bᵀ` (valid because the basis rows are orthonormal —
    /// they come from an SVD). No-op if already factored. Returns the
    /// relative reconstruction error.
    pub fn factorize_onto_basis(&mut self, basis_rows: &Tensor, tie_group: Option<usize>) -> f32 {
        let ConvKernel::Full(c) = &self.kernel else {
            return 0.0;
        };
        debug_assert_eq!(basis_rows.dims()[1], c.weight.dims()[1], "basis width mismatch");
        let coeffs = automc_tensor::matmul_a_bt(&c.weight, basis_rows); // [oc, b]
        let recon = automc_tensor::matmul(&coeffs, basis_rows);
        let err = linalg::relative_error(&c.weight, &recon);
        let (kh, kw) = c.kernel();
        let rank = basis_rows.dims()[0];
        let basis = Conv2d::from_weight(
            basis_rows.clone(),
            None,
            c.in_channels(),
            kh,
            kw,
            c.stride(),
            c.padding(),
        );
        let point = Conv2d::from_weight(coeffs, None, rank, 1, 1, 1, 0);
        self.kernel = ConvKernel::Factored { basis, point, tie_group };
        err
    }

    /// Overwrite a factored kernel's basis weights (LFB shared basis).
    /// Panics if the kernel is not factored.
    pub fn set_basis_weights(&mut self, weights: &Tensor) {
        match &mut self.kernel {
            ConvKernel::Factored { basis, .. } => {
                assert_eq!(basis.weight.dims(), weights.dims(), "basis shape mismatch");
                basis.weight = weights.clone();
                basis.reset_grads();
            }
            ConvKernel::Full(_) => panic!("set_basis_weights on a full kernel"),
        }
    }
}

impl Layer for ConvBnRelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            // Eval: fold the batch-norm (and ReLU) into the convolution's
            // post-matmul write — one GEMM per batch item with a fused
            // scale/shift epilogue, no separate normalisation pass, no
            // intermediate activation tensor, and no ReLU mask (backward
            // requires a train-mode forward anyway).
            let (scale, shift) = self.bn.fold_eval();
            return match &mut self.kernel {
                ConvKernel::Full(c) => c.forward_fused_bn(x, &scale, &shift, self.with_relu),
                ConvKernel::Factored { basis, point, .. } => {
                    let mid = basis.forward(x, false);
                    point.forward_fused_bn(&mid, &scale, &shift, self.with_relu)
                }
            };
        }
        let conv_out = match &mut self.kernel {
            ConvKernel::Full(c) => c.forward(x, train),
            ConvKernel::Factored { basis, point, .. } => {
                let mid = basis.forward(x, train);
                point.forward(&mid, train)
            }
        };
        let mut out = self.bn.forward(&conv_out, train);
        if self.with_relu {
            self.relu_mask = Some(relu_with_mask(&mut out));
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = if self.with_relu {
            let mask = self
                .relu_mask
                .as_ref()
                .expect("ConvBnRelu::backward before forward");
            let mut g = grad_out.clone();
            relu_mask_grad(&mut g, mask);
            self.bn.backward(&g)
        } else {
            self.bn.backward(grad_out)
        };
        match &mut self.kernel {
            ConvKernel::Full(c) => c.backward(&g),
            ConvKernel::Factored { basis, point, .. } => {
                let g = point.backward(&g);
                basis.backward(&g)
            }
        }
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut v = match &mut self.kernel {
            ConvKernel::Full(c) => c.params_mut(),
            ConvKernel::Factored { basis, point, .. } => {
                let mut v = basis.params_mut();
                v.extend(point.params_mut());
                v
            }
        };
        v.extend(self.bn.params_mut());
        v
    }

    fn param_count(&self) -> usize {
        ConvBnRelu::param_count(self)
    }
}

/// A ResNet basic block: two 3×3 conv units plus a residual shortcut.
#[derive(Clone)]
pub struct BasicBlock {
    /// First conv (with ReLU); its output channels are the block's
    /// freely-prunable *inner* channels.
    pub c1: ConvBnRelu,
    /// Second conv (no ReLU — activation happens after the residual sum).
    pub c2: ConvBnRelu,
    /// Projection shortcut (1×1, stride-matched) when shapes change;
    /// `None` = identity shortcut.
    pub shortcut: Option<ConvBnRelu>,
    relu_mask: Option<Vec<bool>>,
}

impl BasicBlock {
    /// Build a block `in_c → out_c` with the given stride.
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut Rng) -> Self {
        let shortcut = (stride != 1 || in_c != out_c)
            .then(|| ConvBnRelu::new(in_c, out_c, 1, stride, 0, false, rng));
        BasicBlock {
            c1: ConvBnRelu::new(in_c, out_c, 3, stride, 1, true, rng),
            c2: ConvBnRelu::new(out_c, out_c, 3, 1, 1, false, rng),
            shortcut,
            relu_mask: None,
        }
    }

    /// Reassemble a block from deserialised units (checkpoint restore).
    pub fn from_parts(c1: ConvBnRelu, c2: ConvBnRelu, shortcut: Option<ConvBnRelu>) -> Self {
        BasicBlock { c1, c2, shortcut, relu_mask: None }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.c2.out_channels()
    }

    /// Inner (prunable) channel count.
    pub fn inner_channels(&self) -> usize {
        self.c1.out_channels()
    }

    /// Prune inner channels: keep `keep` of c1's filters and the matching
    /// input channels of c2.
    pub fn prune_inner(&mut self, keep: &[usize]) {
        self.c1.keep_filters(keep);
        self.c2.keep_in_channels(keep);
    }

    /// FLOPs for `h×w` input and resulting spatial dims.
    pub fn flops(&self, h: usize, w: usize) -> (u64, usize, usize) {
        let (f1, h1, w1) = self.c1.flops(h, w);
        let (f2, h2, w2) = self.c2.flops(h1, w1);
        let fs = self
            .shortcut
            .as_ref()
            .map(|s| s.flops(h, w).0)
            .unwrap_or(0);
        (f1 + f2 + fs, h2, w2)
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut sum = self.c2.forward(&self.c1.forward(x, train), train);
        match &mut self.shortcut {
            Some(s) => sum.add_assign(&s.forward(x, train)),
            None => sum.add_assign(x),
        }
        // Only a train-mode forward keeps the mask its backward reads.
        if train {
            self.relu_mask = Some(relu_with_mask(&mut sum));
        } else {
            relu_in_place(&mut sum);
        }
        sum
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .relu_mask
            .as_ref()
            .expect("BasicBlock::backward before forward");
        let mut g = grad_out.clone();
        relu_mask_grad(&mut g, mask);
        let mut g_main = self.c1.backward(&self.c2.backward(&g));
        match &mut self.shortcut {
            Some(s) => g_main.add_assign(&s.backward(&g)),
            None => g_main.add_assign(&g),
        }
        g_main
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut v = self.c1.params_mut();
        v.extend(self.c2.params_mut());
        if let Some(s) = &mut self.shortcut {
            v.extend(s.params_mut());
        }
        v
    }

    fn param_count(&self) -> usize {
        self.c1.param_count()
            + self.c2.param_count()
            + self.shortcut.as_ref().map_or(0, |s| s.param_count())
    }
}

/// Classification head: global average pooling followed by a linear layer.
#[derive(Clone)]
pub struct Classifier {
    gap: GlobalAvgPool,
    /// The linear head (public for input pruning after upstream surgery).
    pub linear: Linear,
}

impl Classifier {
    /// Head mapping `in_c` channels to `classes` logits.
    pub fn new(in_c: usize, classes: usize, rng: &mut Rng) -> Self {
        Classifier { gap: GlobalAvgPool::new(), linear: Linear::new(in_c, classes, rng) }
    }

    /// Reassemble a head from a deserialised linear layer (checkpoint
    /// restore).
    pub fn from_linear(linear: Linear) -> Self {
        Classifier { gap: GlobalAvgPool::new(), linear }
    }

    /// Number of input channels expected.
    pub fn in_channels(&self) -> usize {
        self.linear.in_features()
    }
}

impl Layer for Classifier {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let pooled = self.gap.forward(x, train);
        self.linear.forward(&pooled, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.gap.backward(&self.linear.backward(grad_out))
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.linear.params_mut()
    }

    fn param_count(&self) -> usize {
        self.linear.param_count()
    }
}

/// One element of a [`crate::ConvNet`].
#[derive(Clone)]
pub enum Unit {
    /// Plain conv-bn-relu (VGG body, ResNet stem).
    Cbr(ConvBnRelu),
    /// Residual basic block.
    Block(BasicBlock),
    /// 2×2 max pool (VGG downsampling).
    Pool(MaxPool2),
    /// GAP + linear classification head.
    Classifier(Classifier),
}

impl Unit {
    /// Output channel count, or `None` for spatial-only units.
    pub fn out_channels(&self) -> Option<usize> {
        match self {
            Unit::Cbr(c) => Some(c.out_channels()),
            Unit::Block(b) => Some(b.out_channels()),
            Unit::Pool(_) => None,
            Unit::Classifier(_) => None,
        }
    }
}

impl Layer for Unit {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        match self {
            Unit::Cbr(u) => u.forward(x, train),
            Unit::Block(u) => u.forward(x, train),
            Unit::Pool(u) => u.forward(x, train),
            Unit::Classifier(u) => u.forward(x, train),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            Unit::Cbr(u) => u.backward(grad_out),
            Unit::Block(u) => u.backward(grad_out),
            Unit::Pool(u) => u.backward(grad_out),
            Unit::Classifier(u) => u.backward(grad_out),
        }
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        match self {
            Unit::Cbr(u) => u.params_mut(),
            Unit::Block(u) => u.params_mut(),
            Unit::Pool(_) => Vec::new(),
            Unit::Classifier(u) => u.params_mut(),
        }
    }

    fn param_count(&self) -> usize {
        match self {
            Unit::Cbr(u) => u.param_count(),
            Unit::Block(u) => u.param_count(),
            Unit::Pool(_) => 0,
            Unit::Classifier(u) => u.param_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_tensor::rng_from_seed;

    #[test]
    fn cbr_forward_backward_shapes() {
        let mut rng = rng_from_seed(100);
        let mut u = ConvBnRelu::new(3, 8, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = u.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert!(y.data().iter().all(|&v| v >= 0.0));
        let g = u.backward(&Tensor::ones(&[2, 8, 8, 8]));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn factorize_preserves_function_at_full_rank() {
        let mut rng = rng_from_seed(101);
        let mut u = ConvBnRelu::new(2, 4, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let y_full = u.forward(&x, false);
        let err = u.factorize(4, None);
        assert!(err < 1e-3, "full-rank factorisation should be near-exact: {err}");
        let y_fact = u.forward(&x, false);
        for (a, b) in y_full.data().iter().zip(y_fact.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn factorize_reduces_params_at_low_rank() {
        let mut rng = rng_from_seed(102);
        let mut u = ConvBnRelu::new(8, 16, 3, 1, 1, true, &mut rng);
        let before = u.param_count();
        u.factorize(2, None);
        assert!(u.param_count() < before);
        assert_eq!(u.kernel.rank(), Some(2));
        assert_eq!(u.out_channels(), 16);
    }

    /// Bias BN shifts positive so ReLU kinks sit far from the operating
    /// point — finite differences across a kink are meaningless.
    fn debias_relu(u: &mut ConvBnRelu) {
        u.bn.beta = Tensor::full(&[u.out_channels()], 3.0);
        u.bn.gamma = Tensor::full(&[u.out_channels()], 0.5);
    }

    #[test]
    fn factored_gradcheck() {
        let mut rng = rng_from_seed(103);
        let mut u = ConvBnRelu::new(2, 4, 3, 1, 1, true, &mut rng);
        u.factorize(3, None);
        debias_relu(&mut u);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        automc_tensor::nn::gradcheck::check_input_grad(&mut u, &x, 0.08);
        automc_tensor::nn::gradcheck::check_param_grads(&mut u, &x, 0.08);
    }

    #[test]
    fn cbr_gradcheck() {
        let mut rng = rng_from_seed(104);
        let mut u = ConvBnRelu::new(2, 3, 3, 1, 1, true, &mut rng);
        debias_relu(&mut u);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        automc_tensor::nn::gradcheck::check_input_grad(&mut u, &x, 0.08);
        automc_tensor::nn::gradcheck::check_param_grads(&mut u, &x, 0.08);
    }

    #[test]
    fn cbr_no_relu_gradcheck() {
        // Kink-free composition check of conv + batch-norm.
        let mut rng = rng_from_seed(112);
        let mut u = ConvBnRelu::new(2, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        automc_tensor::nn::gradcheck::check_input_grad(&mut u, &x, 0.08);
        automc_tensor::nn::gradcheck::check_param_grads(&mut u, &x, 0.08);
    }

    /// The fused eval path (BN folded into the conv's write epilogue) must
    /// agree with running conv, batch-norm and ReLU as separate layers.
    #[test]
    fn eval_fused_path_matches_composed_layers() {
        let mut rng = rng_from_seed(113);
        let mut u = ConvBnRelu::new(3, 6, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        // Move the running stats off their identity init so the fold is
        // non-trivial.
        u.forward(&x, true);
        u.forward(&x, true);
        let fused = u.forward(&x, false);
        let mut parts = u.clone();
        let ConvKernel::Full(c) = &mut parts.kernel else {
            panic!("expected full kernel")
        };
        let conv_out = c.forward(&x, false);
        let composed = parts.bn.forward(&conv_out, false).map(|v| v.max(0.0));
        assert_eq!(fused.dims(), composed.dims());
        for (a, b) in fused.data().iter().zip(composed.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// Same agreement for a factored kernel (fold lands on the pointwise
    /// conv) and without ReLU.
    #[test]
    fn eval_fused_path_matches_composed_layers_factored() {
        let mut rng = rng_from_seed(114);
        let mut u = ConvBnRelu::new(3, 6, 3, 1, 1, false, &mut rng);
        u.factorize(4, None);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        u.forward(&x, true);
        let fused = u.forward(&x, false);
        let mut parts = u.clone();
        let ConvKernel::Factored { basis, point, .. } = &mut parts.kernel else {
            panic!("expected factored kernel")
        };
        let mid = basis.forward(&x, false);
        let conv_out = point.forward(&mid, false);
        let composed = parts.bn.forward(&conv_out, false);
        for (a, b) in fused.data().iter().zip(composed.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn block_identity_shortcut_shapes() {
        let mut rng = rng_from_seed(105);
        let mut b = BasicBlock::new(4, 4, 1, &mut rng);
        assert!(b.shortcut.is_none());
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = b.forward(&x, true);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let g = b.backward(&Tensor::ones(&[2, 4, 8, 8]));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn block_projection_shortcut_downsamples() {
        let mut rng = rng_from_seed(106);
        let mut b = BasicBlock::new(4, 8, 2, &mut rng);
        assert!(b.shortcut.is_some());
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = b.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn block_eval_forward_keeps_no_mask_and_matches_masked_clamp() {
        let mut rng = rng_from_seed(109);
        for (in_c, out_c, stride) in [(4, 4, 1), (4, 8, 2)] {
            let mut b = BasicBlock::new(in_c, out_c, stride, &mut rng);
            let x = Tensor::randn(&[2, in_c, 8, 8], 1.0, &mut rng);
            let y = b.forward(&x, false);
            assert!(b.relu_mask.is_none(), "an eval forward keeps no ReLU mask");
            let mut sum = b.c2.forward(&b.c1.forward(&x, false), false);
            match &mut b.shortcut {
                Some(s) => sum.add_assign(&s.forward(&x, false)),
                None => sum.add_assign(&x),
            }
            relu_with_mask(&mut sum);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&sum));
            assert!(y.data().contains(&0.0), "the clamp was exercised");
        }
    }

    #[test]
    fn block_gradcheck() {
        let mut rng = rng_from_seed(107);
        let mut b = BasicBlock::new(3, 3, 1, &mut rng);
        // Push both the inner ReLU and the post-sum ReLU away from their
        // kinks so finite differences are valid.
        debias_relu(&mut b.c1);
        debias_relu(&mut b.c2);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        automc_tensor::nn::gradcheck::check_input_grad(&mut b, &x, 0.1);
        automc_tensor::nn::gradcheck::check_param_grads(&mut b, &x, 0.1);
    }

    #[test]
    fn block_prune_inner_keeps_io_shape() {
        let mut rng = rng_from_seed(108);
        let mut b = BasicBlock::new(4, 4, 1, &mut rng);
        let before = b.param_count();
        b.prune_inner(&[0, 2]);
        assert_eq!(b.inner_channels(), 2);
        assert_eq!(b.out_channels(), 4);
        assert!(b.param_count() < before);
        let x = Tensor::randn(&[1, 4, 6, 6], 1.0, &mut rng);
        assert_eq!(b.forward(&x, true).dims(), &[1, 4, 6, 6]);
    }

    #[test]
    fn classifier_shapes() {
        let mut rng = rng_from_seed(109);
        let mut h = Classifier::new(8, 10, &mut rng);
        let x = Tensor::randn(&[3, 8, 4, 4], 1.0, &mut rng);
        let y = h.forward(&x, true);
        assert_eq!(y.dims(), &[3, 10]);
        let g = h.backward(&Tensor::ones(&[3, 10]));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn zero_filters_soft_prunes() {
        let mut rng = rng_from_seed(110);
        let mut u = ConvBnRelu::new(2, 4, 3, 1, 1, true, &mut rng);
        u.zero_filters(&[1, 3]);
        assert!(u.filter_rows().row(1).iter().all(|&v| v == 0.0));
        assert!(u.filter_rows().row(0).iter().any(|&v| v != 0.0));
        assert_eq!(u.out_channels(), 4, "soft pruning keeps the shape");
    }

    #[test]
    fn cbr_flops_factored_vs_full() {
        let mut rng = rng_from_seed(111);
        let mut u = ConvBnRelu::new(8, 16, 3, 1, 1, true, &mut rng);
        let (f_full, h, w) = u.flops(8, 8);
        assert_eq!((h, w), (8, 8));
        u.factorize(2, None);
        let (f_fact, _, _) = u.flops(8, 8);
        assert!(f_fact < f_full, "{f_fact} !< {f_full}");
    }
}
