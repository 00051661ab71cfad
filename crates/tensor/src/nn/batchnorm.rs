use crate::isa::multiversion;
use crate::nn::Layer;
use crate::optim::Param;
use crate::{par, Tensor};

/// Batch normalisation over NCHW activations, per channel.
///
/// The learnable scale `gamma` is load-bearing for compression: Network
/// Slimming (C3) L1-regularises it and prunes channels whose `gamma` is
/// small, and LeGR's `l2_bn_param` criterion reads it. Both access it via
/// the public fields.
#[derive(Clone)]
pub struct BatchNorm2d {
    /// Per-channel scale `[c]`.
    pub gamma: Tensor,
    /// Per-channel shift `[c]`.
    pub beta: Tensor,
    /// Gradient of `gamma`.
    pub grad_gamma: Tensor,
    /// Gradient of `beta`.
    pub grad_beta: Tensor,
    /// Running mean (eval mode) `[c]`.
    pub running_mean: Tensor,
    /// Running variance (eval mode) `[c]`.
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    // Forward cache (train mode).
    cached_xhat: Option<Tensor>,
    cached_invstd: Vec<f32>,
    cached_dims: [usize; 4],
}

impl BatchNorm2d {
    /// Identity-initialised batch-norm for `channels`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cached_xhat: None,
            cached_invstd: Vec::new(),
            cached_dims: [0; 4],
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.numel()
    }

    /// Keep only the listed channels (sorted indices).
    pub fn keep_channels(&mut self, keep: &[usize]) {
        let pick = |t: &Tensor| {
            let v: Vec<f32> = keep.iter().map(|&i| t.data()[i]).collect();
            Tensor::from_slice(&[keep.len()], &v)
        };
        self.gamma = pick(&self.gamma);
        self.beta = pick(&self.beta);
        self.running_mean = pick(&self.running_mean);
        self.running_var = pick(&self.running_var);
        self.grad_gamma = Tensor::zeros(&[keep.len()]);
        self.grad_beta = Tensor::zeros(&[keep.len()]);
        self.cached_xhat = None;
    }

    /// Add `l1 · sign(gamma)` to the gamma gradient (Network Slimming's
    /// sparsity regulariser, applied between backward and optimizer step).
    pub fn apply_gamma_l1(&mut self, l1: f32) {
        for (g, &v) in self.grad_gamma.data_mut().iter_mut().zip(self.gamma.data()) {
            *g += l1 * v.signum();
        }
    }

    /// Fold the eval-mode transform into per-channel `(scale, shift)`:
    /// `bn(x) = scale[c]·x + shift[c]` with `scale = gamma·invstd(running)`
    /// and `shift = beta − running_mean·scale`. A convolution feeding this
    /// batch-norm can apply the pair in its post-matmul write epilogue,
    /// skipping the separate normalisation pass entirely (eval mode only —
    /// train mode needs the batch statistics of the conv output).
    pub fn fold_eval(&self) -> (Vec<f32>, Vec<f32>) {
        let c = self.channels();
        let (g, b) = (self.gamma.data(), self.beta.data());
        let (rm, rv) = (self.running_mean.data(), self.running_var.data());
        let mut scale = vec![0.0f32; c];
        let mut shift = vec![0.0f32; c];
        for ch in 0..c {
            let s = g[ch] / (rv[ch] + self.eps).sqrt();
            scale[ch] = s;
            shift[ch] = b[ch] - rm[ch] * s;
        }
        (scale, shift)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let d = x.dims();
        debug_assert_eq!(d.len(), 4, "batchnorm input must be NCHW");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        debug_assert_eq!(c, self.channels(), "batchnorm: channel mismatch");
        let plane = h * w;
        let count = (n * plane).max(1) as f32;
        let item = c * plane;
        let mut out = Tensor::zeros(d);
        let xd = x.data();
        if train {
            self.cached_dims = [n, c, h, w];
            // Phase 1 — per-channel batch statistics, one task per channel.
            // Accumulation order over (b, i) matches the serial kernel, so
            // each channel's stats are bitwise thread-count invariant.
            let eps = self.eps;
            let stats: Vec<(f32, f32, f32)> =
                par::par_map(c, |ch| channel_stats(xd, n, c, plane, ch, count, eps));
            // Serial: running statistics and the invstd cache, in channel
            // order (independent per channel; kept serial for clarity).
            self.cached_invstd = stats.iter().map(|&(_, _, invstd)| invstd).collect();
            for (ch, &(mean, var, _)) in stats.iter().enumerate() {
                let rm = &mut self.running_mean.data_mut()[ch];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                let rv = &mut self.running_var.data_mut()[ch];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
            }
            // Phase 2 — normalise, one task per batch item; each writes its
            // disjoint out and xhat chunks. Pure per-element expressions, so
            // any partition gives identical bits.
            let mut xhat = Tensor::zeros(d);
            if item > 0 && n > 0 {
                let (gamma, beta) = (self.gamma.data(), self.beta.data());
                par::par_chunks_mut2(
                    out.data_mut(),
                    item,
                    xhat.data_mut(),
                    item,
                    |b, out_chunk, xh_chunk| {
                        let x_item = &xd[b * item..(b + 1) * item];
                        normalize_item(x_item, &stats, gamma, beta, plane, out_chunk, xh_chunk)
                    },
                );
            }
            self.cached_xhat = Some(xhat);
        } else if item > 0 && n > 0 {
            let (gamma, beta) = (self.gamma.data(), self.beta.data());
            let (rm, rv, eps) = (self.running_mean.data(), self.running_var.data(), self.eps);
            par::par_chunks_mut(out.data_mut(), item, |b, out_chunk| {
                for ch in 0..c {
                    let mean = rm[ch];
                    let invstd = 1.0 / (rv[ch] + eps).sqrt();
                    let (g, bshift) = (gamma[ch], beta[ch]);
                    let base = ch * plane;
                    let xbase = (b * c + ch) * plane;
                    for i in 0..plane {
                        out_chunk[base + i] = g * (xd[xbase + i] - mean) * invstd + bshift;
                    }
                }
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .as_ref()
            .expect("BatchNorm2d::backward requires a train-mode forward");
        let [n, c, h, w] = self.cached_dims;
        let plane = h * w;
        let count = (n * plane) as f32;
        let item = c * plane;
        let mut grad_in = Tensor::zeros(grad_out.dims());
        let (god, xhd) = (grad_out.data(), xhat.data());
        // Phase 1 — per-channel gradient sums, one task per channel, with
        // the serial (b, i) accumulation order.
        let sums: Vec<(f32, f32)> = par::par_map(c, |ch| grad_sums(god, xhd, n, c, plane, ch));
        for (ch, &(sum_dy, sum_dy_xhat)) in sums.iter().enumerate() {
            self.grad_beta.data_mut()[ch] += sum_dy;
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat;
        }
        // Phase 2 — per-element input gradients, one task per batch item.
        if item > 0 && n > 0 {
            let gamma = self.gamma.data();
            let invstds = &self.cached_invstd;
            par::par_chunks_mut(grad_in.data_mut(), item, |b, gi_chunk| {
                let (dy, xh) = (&god[b * item..(b + 1) * item], &xhd[b * item..(b + 1) * item]);
                grad_item(dy, xh, &sums, gamma, invstds, count, plane, gi_chunk)
            });
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        vec![
            Param { value: &mut self.gamma, grad: &mut self.grad_gamma, weight_decay: false },
            Param { value: &mut self.beta, grad: &mut self.grad_beta, weight_decay: false },
        ]
    }

    fn param_count(&self) -> usize {
        self.gamma.numel() + self.beta.numel()
    }
}

multiversion! {
    /// Batch mean, variance and `1/√(var + eps)` of channel `ch` over the
    /// `n` items of NCHW `xd`, summed in `(item, pixel)` order.
    fn channel_stats(
        xd: &[f32],
        n: usize,
        c: usize,
        plane: usize,
        ch: usize,
        count: f32,
        eps: f32,
    ) -> (f32, f32, f32) {
        let mut mean = 0.0f32;
        for b in 0..n {
            let base = (b * c + ch) * plane;
            mean += xd[base..base + plane].iter().sum::<f32>();
        }
        mean /= count;
        let mut var = 0.0f32;
        for b in 0..n {
            let base = (b * c + ch) * plane;
            for &v in &xd[base..base + plane] {
                var += (v - mean) * (v - mean);
            }
        }
        var /= count;
        (mean, var, 1.0 / (var + eps).sqrt())
    }

    /// Train-mode normalisation of one item `x` (`[c][plane]`): the
    /// normalised values into `xh` and their affine map into `out`.
    fn normalize_item(
        x: &[f32],
        stats: &[(f32, f32, f32)],
        gamma: &[f32],
        beta: &[f32],
        plane: usize,
        out: &mut [f32],
        xh: &mut [f32],
    ) {
        for (ch, &(mean, _, invstd)) in stats.iter().enumerate() {
            let (g, bshift) = (gamma[ch], beta[ch]);
            let base = ch * plane;
            for i in base..base + plane {
                let v = (x[i] - mean) * invstd;
                xh[i] = v;
                out[i] = g * v + bshift;
            }
        }
    }

    /// `(Σ dy, Σ dy·x̂)` of channel `ch` over the `n` items, in `(item,
    /// pixel)` order.
    fn grad_sums(
        god: &[f32],
        xhd: &[f32],
        n: usize,
        c: usize,
        plane: usize,
        ch: usize,
    ) -> (f32, f32) {
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xhat = 0.0f32;
        for b in 0..n {
            let base = (b * c + ch) * plane;
            for i in 0..plane {
                let dy = god[base + i];
                sum_dy += dy;
                sum_dy_xhat += dy * xhd[base + i];
            }
        }
        (sum_dy, sum_dy_xhat)
    }

    /// Input gradient of one item from its output gradient `dy` and
    /// normalised input `xh` (both `[c][plane]`).
    fn grad_item(
        dy: &[f32],
        xh: &[f32],
        sums: &[(f32, f32)],
        gamma: &[f32],
        invstds: &[f32],
        count: f32,
        plane: usize,
        gi: &mut [f32],
    ) {
        for (ch, &(sum_dy, sum_dy_xhat)) in sums.iter().enumerate() {
            let k = gamma[ch] * invstds[ch] / count;
            let base = ch * plane;
            for i in base..base + plane {
                gi[i] = k * (count * dy[i] - sum_dy - xh[i] * sum_dy_xhat);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use crate::rng_from_seed;

    #[test]
    fn train_forward_normalises_per_channel() {
        let mut rng = rng_from_seed(60);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 7.0);
        let y = bn.forward(&x, true);
        // Each channel of the output should be ~zero-mean unit-var.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for b in 0..4 {
                let base = (b * 3 + ch) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = rng_from_seed(61);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], 2.0, &mut rng).map(|v| v + 3.0);
        // Many train passes converge the running stats to the batch stats.
        for _ in 0..200 {
            bn.forward(&x, true);
        }
        let y_eval = bn.forward(&x, false);
        let y_train = bn.forward(&x, true);
        for (a, b) in y_eval.data().iter().zip(y_train.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn gradcheck_batchnorm() {
        let mut rng = rng_from_seed(62);
        let mut bn = BatchNorm2d::new(2);
        // Non-identity gamma/beta to exercise full formula.
        bn.gamma = Tensor::from_slice(&[2], &[1.5, 0.7]);
        bn.beta = Tensor::from_slice(&[2], &[0.3, -0.2]);
        let x = Tensor::randn(&[3, 2, 3, 3], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut bn, &x, 0.08);
        gradcheck::check_param_grads(&mut bn, &x, 0.08);
    }

    #[test]
    fn keep_channels_slices_all_state() {
        let mut bn = BatchNorm2d::new(4);
        bn.gamma = Tensor::from_slice(&[4], &[1., 2., 3., 4.]);
        bn.running_mean = Tensor::from_slice(&[4], &[5., 6., 7., 8.]);
        bn.keep_channels(&[1, 3]);
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.gamma.data(), &[2., 4.]);
        assert_eq!(bn.running_mean.data(), &[6., 8.]);
    }

    #[test]
    fn fold_eval_matches_eval_forward() {
        let mut rng = rng_from_seed(63);
        let mut bn = BatchNorm2d::new(3);
        // Non-trivial affine and running stats.
        bn.gamma = Tensor::from_slice(&[3], &[1.5, 0.7, -0.4]);
        bn.beta = Tensor::from_slice(&[3], &[0.3, -0.2, 1.1]);
        bn.running_mean = Tensor::from_slice(&[3], &[0.5, -1.0, 2.0]);
        bn.running_var = Tensor::from_slice(&[3], &[1.2, 0.4, 3.0]);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = bn.forward(&x, false);
        let (scale, shift) = bn.fold_eval();
        for b in 0..2 {
            for ch in 0..3 {
                let base = (b * 3 + ch) * 16;
                for i in 0..16 {
                    let folded = scale[ch] * x.data()[base + i] + shift[ch];
                    let diff = (folded - y.data()[base + i]).abs();
                    assert!(diff < 1e-5, "{folded} vs {}", y.data()[base + i]);
                }
            }
        }
    }

    #[test]
    fn gamma_l1_pushes_toward_zero() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = Tensor::from_slice(&[2], &[0.5, -0.5]);
        bn.apply_gamma_l1(0.1);
        assert_eq!(bn.grad_gamma.data(), &[0.1, -0.1]);
    }
}
