use crate::im2col::{col2im_into, im2col_into, ConvGeom};
use crate::matmul::{
    gemm_a_bt_slices, gemm_at_b_slices, gemm_slices, pack_a_tiles, pack_at_tiles, Epilogue,
};
use crate::nn::Layer;
use crate::optim::Param;
use crate::{init, par, Rng, Tensor};
use std::cell::Cell;

thread_local! {
    /// Reusable per-thread column-gradient buffer for one backward item
    /// (taken, not borrowed, so a re-entrant call allocates afresh).
    static GCOLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// 2-D convolution over NCHW input.
///
/// The kernel is stored *matricised* as `weight: [out_c, in_c·kh·kw]` — the
/// exact shape that filter pruning (row removal), channel pruning (column
/// group removal) and low-rank factorisation (SVD of this matrix) operate
/// on, so compression methods edit it without reshaping gymnastics.
#[derive(Clone)]
pub struct Conv2d {
    /// Matricised kernel `[out_c, in_c·kh·kw]`.
    pub weight: Tensor,
    /// Optional bias `[out_c]` (absent when a batch-norm follows).
    pub bias: Option<Tensor>,
    /// Accumulated kernel gradient.
    pub grad_weight: Tensor,
    /// Accumulated bias gradient (zero-sized if no bias).
    pub grad_bias: Tensor,
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    /// Flat im2col column buffer from the last forward (`n` slabs of
    /// `col_rows·oh·ow`), reused across training steps so steady-state
    /// forward/backward passes do not allocate.
    cols_buf: Vec<f32>,
    cached_in_dims: [usize; 4],
}

impl Conv2d {
    /// Kaiming-initialised convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_c * kh * kw;
        Conv2d {
            weight: init::kaiming_normal(&[out_c, fan_in], fan_in, rng),
            bias: bias.then(|| Tensor::zeros(&[out_c])),
            grad_weight: Tensor::zeros(&[out_c, fan_in]),
            grad_bias: Tensor::zeros(&[if bias { out_c } else { 0 }]),
            in_c,
            out_c,
            kh,
            kw,
            stride,
            pad,
            cols_buf: Vec::new(),
            cached_in_dims: [0; 4],
        }
    }

    /// Build from an explicit matricised kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weight(
        weight: Tensor,
        bias: Option<Tensor>,
        in_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let out_c = weight.dims()[0];
        debug_assert_eq!(weight.dims()[1], in_c * kh * kw);
        let gw = Tensor::zeros(weight.dims());
        let gb = Tensor::zeros(&[bias.as_ref().map_or(0, |b| b.numel())]);
        Conv2d {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            in_c,
            out_c,
            kh,
            kw,
            stride,
            pad,
            cols_buf: Vec::new(),
            cached_in_dims: [0; 4],
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output channel (filter) count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Kernel height/width.
    pub fn kernel(&self) -> (usize, usize) {
        (self.kh, self.kw)
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// FLOPs (multiply–accumulates) for one input of `[in_h, in_w]`.
    pub fn flops(&self, in_h: usize, in_w: usize) -> u64 {
        let g = self.geom(in_h, in_w);
        (self.out_c * self.in_c * self.kh * self.kw) as u64 * (g.out_h() * g.out_w()) as u64
    }

    fn geom(&self, in_h: usize, in_w: usize) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c,
            in_h,
            in_w,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Keep only the listed output filters (sorted indices). Grad state and
    /// caches are reset.
    pub fn keep_filters(&mut self, keep: &[usize]) {
        debug_assert!(keep.iter().all(|&i| i < self.out_c));
        let cols = self.weight.dims()[1];
        let mut w = Tensor::zeros(&[keep.len(), cols]);
        for (ni, &i) in keep.iter().enumerate() {
            w.row_mut(ni).copy_from_slice(self.weight.row(i));
        }
        self.weight = w;
        if let Some(b) = &self.bias {
            let nb: Vec<f32> = keep.iter().map(|&i| b.data()[i]).collect();
            self.bias = Some(Tensor::from_slice(&[keep.len()], &nb));
        }
        self.out_c = keep.len();
        self.reset_grads();
    }

    /// Keep only the listed input channels (sorted indices): removes the
    /// corresponding `kh·kw` column blocks of the kernel matrix.
    pub fn keep_in_channels(&mut self, keep: &[usize]) {
        debug_assert!(keep.iter().all(|&i| i < self.in_c));
        let k2 = self.kh * self.kw;
        let mut w = Tensor::zeros(&[self.out_c, keep.len() * k2]);
        for o in 0..self.out_c {
            let src = self.weight.row(o);
            let dst = w.row_mut(o);
            for (nc, &c) in keep.iter().enumerate() {
                dst[nc * k2..(nc + 1) * k2].copy_from_slice(&src[c * k2..(c + 1) * k2]);
            }
        }
        self.weight = w;
        self.in_c = keep.len();
        self.reset_grads();
    }

    /// Reset gradient buffers to match current weight shapes.
    pub fn reset_grads(&mut self) {
        self.grad_weight = Tensor::zeros(self.weight.dims());
        self.grad_bias = Tensor::zeros(&[self.bias.as_ref().map_or(0, |b| b.numel())]);
        self.cols_buf.clear();
    }

    /// Eval-mode forward with a folded batch-norm applied in the
    /// post-matmul write: `out[c] = scale[c]·conv(x)[c] + shift[c]`,
    /// optionally clamped at zero (`relu`). The conv bias, if any, is
    /// folded into the shift, so the whole Conv→BN(→ReLU) block is one
    /// GEMM with a fused epilogue — no separate normalisation pass and no
    /// intermediate activation tensor. See [`BatchNorm2d::fold_eval`].
    ///
    /// [`BatchNorm2d::fold_eval`]: crate::nn::BatchNorm2d::fold_eval
    pub fn forward_fused_bn(
        &mut self,
        x: &Tensor,
        scale: &[f32],
        shift: &[f32],
        relu: bool,
    ) -> Tensor {
        debug_assert_eq!(scale.len(), self.out_c);
        debug_assert_eq!(shift.len(), self.out_c);
        self.forward_with(x, Some((scale, shift, relu)))
    }

    /// Shared forward driver: lower each batch item with im2col into its
    /// slab of the reused flat column buffer, then one GEMM per item with
    /// the requested write epilogue. Batch items are independent tasks
    /// writing disjoint output and column slabs, with identical per-item
    /// math at any thread count.
    fn forward_with(&mut self, x: &Tensor, fused: Option<(&[f32], &[f32], bool)>) -> Tensor {
        let d = x.dims();
        debug_assert_eq!(d.len(), 4, "conv input must be NCHW");
        debug_assert_eq!(d[1], self.in_c, "conv: channel mismatch");
        let (n, in_h, in_w) = (d[0], d[2], d[3]);
        let g = self.geom(in_h, in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let col_rows = self.in_c * self.kh * self.kw;
        let col_len = col_rows * oh * ow;
        self.cached_in_dims = [n, self.in_c, in_h, in_w];
        let mut out = Tensor::zeros(&[n, self.out_c, oh, ow]);
        let item = self.in_c * in_h * in_w;
        let out_item = self.out_c * oh * ow;
        // Reused across steps: resize keeps capacity once shapes settle.
        self.cols_buf.resize(n * col_len, 0.0);
        if n == 0 {
            return out;
        }
        // Fold the conv bias into the batch-norm shift so the epilogue
        // stays a single scale/shift per output channel.
        let shift_eff: Vec<f32> = match (fused, &self.bias) {
            (Some((scale, shift, _)), Some(b)) => shift
                .iter()
                .zip(scale.iter())
                .zip(b.data())
                .map(|((&t, &s), &bv)| t + s * bv)
                .collect(),
            (Some((_, shift, _)), None) => shift.to_vec(),
            (None, _) => Vec::new(),
        };
        let epi = match (fused, &self.bias) {
            (Some((scale, _, relu)), _) => {
                Epilogue::ScaleShift { scale, shift: &shift_eff, relu }
            }
            (None, Some(b)) => Epilogue::Bias(b.data()),
            (None, None) => Epilogue::Store,
        };
        let xd = x.data();
        if out_item == 0 || col_len == 0 {
            // Degenerate shapes: no GEMM to run. Lower the input anyway
            // (backward still reads the columns) and finish the zero
            // output rows through the epilogue (bias / shift broadcast).
            for b in 0..n {
                im2col_into(
                    &xd[b * item..(b + 1) * item],
                    g,
                    &mut self.cols_buf[b * col_len..(b + 1) * col_len],
                );
                let od = out.data_mut();
                for c in 0..self.out_c {
                    let base = b * out_item + c * oh * ow;
                    epi.finish_row(c, &mut od[base..base + oh * ow]);
                }
            }
            return out;
        }
        let weight = self.weight.data();
        let (out_c, ohw) = (self.out_c, oh * ow);
        // Every item multiplies the same weight: pack it once per call.
        let mut w_tiles = Vec::new();
        pack_a_tiles(weight, out_c, col_rows, &mut w_tiles);
        par::par_chunks_mut2(
            out.data_mut(),
            out_item,
            &mut self.cols_buf,
            col_len,
            |b, dst, cols| {
                im2col_into(&xd[b * item..(b + 1) * item], g, cols);
                gemm_slices(weight, &w_tiles, cols, dst, out_c, col_rows, ohw, epi);
            },
        );
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.forward_with(x, None)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, in_c, in_h, in_w] = self.cached_in_dims;
        debug_assert!(n > 0, "Conv2d::backward before forward");
        let g = self.geom(in_h, in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        debug_assert_eq!(grad_out.dims(), &[n, self.out_c, oh, ow]);
        let col_rows = in_c * self.kh * self.kw;
        let col_len = col_rows * oh * ow;
        let mut grad_in = Tensor::zeros(&[n, in_c, in_h, in_w]);
        let out_item = self.out_c * oh * ow;
        let in_item = in_c * in_h * in_w;
        // Per-item contributions in parallel: each task reads its slab of
        // the retained column buffer, scatters into its disjoint grad_in
        // chunk, and writes its (dW, db) terms into its own contribution
        // slab. Folding the slabs serially in ascending batch order
        // reproduces the serial accumulation bitwise. The GEMMs run
        // serially inside each task — batch-level parallelism is already
        // in effect.
        let weight = self.weight.data();
        let cols_buf = &self.cols_buf;
        let god = grad_out.data();
        let (out_c, ohw) = (self.out_c, oh * ow);
        let gw_len = out_c * col_rows;
        let gb_len = if self.bias.is_some() { out_c } else { 0 };
        let slab = (gw_len + gb_len).max(1);
        let mut contribs = vec![0.0f32; n * slab];
        let mut wt_tiles = Vec::new();
        pack_at_tiles(weight, out_c, col_rows, &mut wt_tiles);
        par::par_chunks_mut2(
            grad_in.data_mut(),
            in_item,
            &mut contribs,
            slab,
            |b, gi_chunk, terms| {
                let gout = &god[b * out_item..(b + 1) * out_item];
                let cols = &cols_buf[b * col_len..(b + 1) * col_len];
                let (gw, gb) = terms.split_at_mut(gw_len);
                // dW_b = gout · colsᵀ
                gemm_a_bt_slices(gout, cols, gw, out_c, ohw, col_rows);
                for (c, v) in gb[..gb_len].iter_mut().enumerate() {
                    *v = gout[c * ohw..(c + 1) * ohw].iter().sum();
                }
                // d cols = Wᵀ · gout, then scatter back to image space. A
                // pointwise conv's scatter is the identity (`0.0 + v`, and a
                // GEMM sum starting from +0.0 is never -0.0), so its GEMM
                // writes the input gradient directly.
                if g.is_pointwise() {
                    gemm_at_b_slices(weight, &wt_tiles, gout, gi_chunk, out_c, col_rows, ohw);
                } else {
                    let mut gcols = GCOLS.with(Cell::take);
                    gcols.clear();
                    gcols.resize(col_len, 0.0);
                    gemm_at_b_slices(weight, &wt_tiles, gout, &mut gcols, out_c, col_rows, ohw);
                    col2im_into(&gcols, g, gi_chunk);
                    GCOLS.with(|c| c.set(gcols));
                }
            },
        );
        for terms in contribs.chunks_exact(slab) {
            let (gw, gb) = terms.split_at(gw_len);
            for (d, s) in self.grad_weight.data_mut().iter_mut().zip(gw) {
                *d += s;
            }
            for (d, s) in self.grad_bias.data_mut().iter_mut().zip(&gb[..gb_len]) {
                *d += s;
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut v = vec![Param {
            value: &mut self.weight,
            grad: &mut self.grad_weight,
            weight_decay: true,
        }];
        if let Some(b) = &mut self.bias {
            v.push(Param { value: b, grad: &mut self.grad_bias, weight_decay: false });
        }
        v
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, |b| b.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use crate::rng_from_seed;

    #[test]
    fn output_shape_stride_and_pad() {
        let mut rng = rng_from_seed(50);
        let mut c = Conv2d::new(3, 8, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        assert_eq!(c.forward(&x, true).dims(), &[2, 8, 8, 8]);
        let mut c2 = Conv2d::new(3, 8, 3, 3, 2, 1, false, &mut rng);
        assert_eq!(c2.forward(&x, true).dims(), &[2, 8, 4, 4]);
        let mut c3 = Conv2d::new(3, 4, 1, 1, 1, 0, true, &mut rng);
        assert_eq!(c3.forward(&x, true).dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv with identity weights reproduces the input channels.
        let weight = Tensor::from_slice(&[2, 2], &[1., 0., 0., 1.]);
        let mut c = Conv2d::from_weight(weight, None, 2, 1, 1, 1, 0);
        let mut rng = rng_from_seed(51);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let y = c.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn gradcheck_conv() {
        let mut rng = rng_from_seed(52);
        let mut c = Conv2d::new(2, 3, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut c, &x, 0.05);
        gradcheck::check_param_grads(&mut c, &x, 0.05);
    }

    #[test]
    fn gradcheck_strided_conv() {
        let mut rng = rng_from_seed(53);
        let mut c = Conv2d::new(2, 2, 3, 3, 2, 1, false, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        gradcheck::check_input_grad(&mut c, &x, 0.05);
        gradcheck::check_param_grads(&mut c, &x, 0.05);
    }

    /// A pointwise conv's backward writes its GEMM straight into the input
    /// gradient; that must equal the lowered path (GEMM into columns, then
    /// the col2im scatter) bit for bit.
    #[test]
    fn pointwise_backward_matches_the_lowered_path_bitwise() {
        let mut rng = rng_from_seed(58);
        let mut c = Conv2d::new(6, 5, 1, 1, 1, 0, true, &mut rng);
        let x = Tensor::randn(&[3, 6, 4, 5], 1.0, &mut rng);
        let gout = Tensor::randn(c.forward(&x, true).dims(), 1.0, &mut rng);
        let gin = c.backward(&gout);
        let (g, item, out_item) = (c.geom(4, 5), 6 * 20, 5 * 20);
        assert!(g.is_pointwise());
        let mut tiles = Vec::new();
        pack_at_tiles(c.weight.data(), 5, 6, &mut tiles);
        for b in 0..3 {
            let gout_b = &gout.data()[b * out_item..(b + 1) * out_item];
            let mut gcols = vec![0.0f32; item];
            gemm_at_b_slices(c.weight.data(), &tiles, gout_b, &mut gcols, 5, 6, 20);
            let mut want = vec![0.0f32; item];
            col2im_into(&gcols, g, &mut want);
            let got = &gin.data()[b * item..(b + 1) * item];
            assert!(got.iter().zip(&want).all(|(a, w)| a.to_bits() == w.to_bits()), "item {b}");
        }
    }

    #[test]
    fn keep_filters_prunes_rows() {
        let mut rng = rng_from_seed(54);
        let mut c = Conv2d::new(2, 4, 3, 3, 1, 1, true, &mut rng);
        let before = c.weight.clone();
        c.keep_filters(&[1, 3]);
        assert_eq!(c.out_channels(), 2);
        assert_eq!(c.weight.row(0), before.row(1));
        assert_eq!(c.weight.row(1), before.row(3));
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        assert_eq!(c.forward(&x, true).dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn keep_in_channels_prunes_column_blocks() {
        let mut rng = rng_from_seed(55);
        let mut c = Conv2d::new(3, 2, 3, 3, 1, 1, false, &mut rng);
        let before = c.weight.clone();
        c.keep_in_channels(&[0, 2]);
        assert_eq!(c.in_channels(), 2);
        assert_eq!(&c.weight.row(0)[0..9], &before.row(0)[0..9]);
        assert_eq!(&c.weight.row(0)[9..18], &before.row(0)[18..27]);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        assert_eq!(c.forward(&x, true).dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn pruned_then_full_forward_agree_on_kept_channels() {
        // Pruning filters then running forward == running forward then
        // selecting the kept output channels.
        let mut rng = rng_from_seed(56);
        let mut full = Conv2d::new(2, 4, 3, 3, 1, 1, false, &mut rng);
        let mut pruned = Conv2d::from_weight(
            full.weight.clone(),
            None,
            2,
            3,
            3,
            1,
            1,
        );
        pruned.keep_filters(&[0, 2]);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y_full = full.forward(&x, true);
        let y_pruned = pruned.forward(&x, true);
        let hw = 16;
        assert_eq!(&y_pruned.data()[0..hw], &y_full.data()[0..hw]);
        assert_eq!(&y_pruned.data()[hw..2 * hw], &y_full.data()[2 * hw..3 * hw]);
    }

    #[test]
    fn flops_formula() {
        let mut rng = rng_from_seed(57);
        let c = Conv2d::new(4, 8, 3, 3, 1, 1, false, &mut rng);
        assert_eq!(c.flops(8, 8), (8 * 4 * 9) as u64 * 64);
        let s = Conv2d::new(4, 8, 3, 3, 2, 1, false, &mut rng);
        assert_eq!(s.flops(8, 8), (8 * 4 * 9) as u64 * 16);
    }
}
