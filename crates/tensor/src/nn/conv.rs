use crate::im2col::{col2im_into, fill_panels, lower_group, ConvGeom, PanelRuns};
use crate::matmul::{conv_weight_grad, gemm_panel_runs, pack_a_tiles, pack_at_tiles, Epilogue, NR};
use crate::nn::Layer;
use crate::optim::Param;
use crate::{init, par, Rng, Tensor};
use std::cell::Cell;

thread_local! {
    /// Reusable per-thread B panels of one group's output gradient.
    static GOUT_PANELS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Reusable per-thread column gradients of one group (taken, not
    /// borrowed, so a re-entrant call allocates afresh).
    static GCOLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Reusable per-thread columns of one group in an eval-mode forward,
    /// taken like [`GCOLS`]: no backward reads them, so measuring a
    /// network grows nothing inside it.
    static EVAL_COLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Fewest batch items whose `ohw` columns each fill whole NR-wide panels
/// and number at least 64: 1 item at 8×8, 4 at 4×4, 16 at 2×2, 64 at
/// 1×1. One GEMM runs per group, so small spatial sizes still feed the
/// microkernel full panels; the shape alone fixes the size.
fn group_items(ohw: usize) -> usize {
    let fill = NR / gcd(ohw, NR);
    fill * 64usize.div_ceil(fill * ohw)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The first `len` floats of a reused buffer, grown as needed but never
/// shrunk or re-zeroed: every caller overwrites all of them, and keeping
/// the longest length spares a `memset` when batch sizes alternate.
fn scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// How one call splits `n` batch items into column groups, and the panel
/// maps of a full and of the (possibly short) last group.
struct Groups {
    /// Items per full group.
    items: usize,
    /// Items in the last group.
    last: usize,
    /// Panel map of a full group's and of the last group's columns, for
    /// item-major `[items][rows][ohw]` tensors with `item_stride` floats
    /// per item (conv outputs, output gradients, column gradients).
    full: PanelRuns,
    tail: PanelRuns,
}

impl Groups {
    fn new(n: usize, ohw: usize, item_stride: usize) -> Self {
        let items = group_items(ohw);
        let last = n - n.saturating_sub(1) / items * items;
        Groups {
            items,
            last,
            full: PanelRuns::new(items, 1, ohw, item_stride, 0, 1),
            tail: PanelRuns::new(last, 1, ohw, item_stride, 0, 1),
        }
    }

    /// Panel map of a group of `items` items.
    fn runs(&self, items: usize) -> &PanelRuns {
        if items == self.items {
            &self.full
        } else {
            &self.tail
        }
    }

    /// Floats of one full group's panels over `k` rows (its columns fill
    /// whole panels), and of all `n` items' groups back to back.
    fn panels_len(&self, n: usize, k: usize) -> (usize, usize) {
        let full = self.full.panels() * k * NR;
        let count = n.div_ceil(self.items);
        (full, count.saturating_sub(1) * full + self.tail.panels() * k * NR)
    }
}

/// 2-D convolution over NCHW input.
///
/// The kernel is stored *matricised* as `weight: [out_c, in_c·kh·kw]` — the
/// exact shape that filter pruning (row removal), channel pruning (column
/// group removal) and low-rank factorisation (SVD of this matrix) operate
/// on, so compression methods edit it without reshaping gymnastics.
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
    /// Lowered columns from the last train-mode forward, as B panels of
    /// consecutive item groups (see [`group_items`]), reused across
    /// training steps so steady-state forward/backward passes do not
    /// allocate. Eval-mode forwards lower into per-thread scratch instead.
    cols_buf: Vec<f32>,
    /// Input shape of the last forward if it ran in train mode: the only
    /// forward whose columns `backward` may read.
    cached_in_dims: Option<[usize; 4]>,
}

/// Copies the parameters and accumulated gradients; the clone starts with
/// no column scratch and no cached input shape, like a fresh layer, so
/// copying a network after a training step does not copy megabytes of
/// columns.
impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            grad_weight: self.grad_weight.clone(),
            grad_bias: self.grad_bias.clone(),
            in_c: self.in_c,
            out_c: self.out_c,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
            cols_buf: Vec::new(),
            cached_in_dims: None,
        }
    }
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
            cached_in_dims: None,
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
            cached_in_dims: None,
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

    /// Reset gradient buffers to match current weight shapes, and drop the
    /// columns of the last forward (a backward needs a fresh one).
    pub fn reset_grads(&mut self) {
        self.grad_weight = Tensor::zeros(self.weight.dims());
        self.grad_bias = Tensor::zeros(&[self.bias.as_ref().map_or(0, |b| b.numel())]);
        self.cols_buf.clear();
        self.cached_in_dims = None;
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
        self.forward_with(x, Some((scale, shift, relu)), false)
    }

    /// Shared forward driver. Consecutive batch items form column groups
    /// ([`group_items`]); each group is lowered straight into GEMM B panels,
    /// then one GEMM per group writes every item's output rows through the
    /// requested epilogue. A train-mode forward lowers every group into its
    /// slab of the layer's column buffer, which `backward` reads; an
    /// eval-mode one lowers each group into the running thread's scratch.
    /// Groups are independent tasks writing disjoint output and column
    /// slabs; each output element is the same ascending-order sum as a
    /// per-item GEMM, at any thread count and in either mode.
    fn forward_with(
        &mut self,
        x: &Tensor,
        fused: Option<(&[f32], &[f32], bool)>,
        train: bool,
    ) -> Tensor {
        let d = x.dims();
        debug_assert_eq!(d.len(), 4, "conv input must be NCHW");
        debug_assert_eq!(d[1], self.in_c, "conv: channel mismatch");
        let (n, in_h, in_w) = (d[0], d[2], d[3]);
        let g = self.geom(in_h, in_w);
        let (out_c, ohw) = (self.out_c, g.out_h() * g.out_w());
        let col_rows = self.in_c * self.kh * self.kw;
        self.cached_in_dims = train.then_some([n, self.in_c, in_h, in_w]);
        let mut out = Tensor::zeros(&[n, out_c, g.out_h(), g.out_w()]);
        let item = self.in_c * in_h * in_w;
        let out_item = out_c * ohw;
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
        if n == 0 || out_item == 0 || col_rows == 0 {
            // Nothing to contract: finish the zero output rows through the
            // epilogue (bias / shift broadcast). Backward needs no columns.
            self.cols_buf.clear();
            for (c, row) in out.data_mut().chunks_exact_mut(ohw.max(1)).enumerate() {
                epi.finish_row(c % out_c.max(1), row);
            }
            return out;
        }
        let groups = Groups::new(n, ohw, out_item);
        let (group_len, cols_len) = groups.panels_len(n, col_rows);
        let (full_in, tail_in) = (g.lowering_runs(groups.items), g.lowering_runs(groups.last));
        let rows = g.lowering_rows();
        let xd = x.data();
        // Every group multiplies the same weight: pack it once per call.
        let mut w_tiles = Vec::new();
        pack_a_tiles(self.weight.data(), out_c, col_rows, &mut w_tiles);
        let group = |q: usize, dst: &mut [f32], cols: &mut [f32]| {
            let items = dst.len() / out_item;
            let lowering = if items == groups.items { &full_in } else { &tail_in };
            let x_group = &xd[q * groups.items * item..][..items * item];
            lower_group(x_group, g, items, lowering, &rows, cols);
            let runs = groups.runs(items);
            gemm_panel_runs(&w_tiles, cols, col_rows, out_c, runs, ohw, dst, epi);
        };
        let out_chunk = groups.items * out_item;
        if train {
            let cols = scratch(&mut self.cols_buf, cols_len);
            par::par_chunks_mut2(out.data_mut(), out_chunk, cols, group_len, group);
        } else {
            par::par_chunks_mut(out.data_mut(), out_chunk, |q, dst| {
                let panels = groups.runs(dst.len() / out_item).panels();
                let mut cols_buf = EVAL_COLS.with(Cell::take);
                group(q, dst, scratch(&mut cols_buf, panels * col_rows * NR));
                EVAL_COLS.with(|c| c.set(cols_buf));
            });
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_with(x, None, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some([n, in_c, in_h, in_w]) = self.cached_in_dims else {
            panic!(
                "Conv2d::backward needs a train-mode forward first: the last forward \
                 ran in eval mode, or none ran since the layer was built or reset"
            );
        };
        let g = self.geom(in_h, in_w);
        let ohw = g.out_h() * g.out_w();
        debug_assert_eq!(grad_out.dims(), &[n, self.out_c, g.out_h(), g.out_w()]);
        let col_rows = in_c * self.kh * self.kw;
        let mut grad_in = Tensor::zeros(&[n, in_c, in_h, in_w]);
        let out_c = self.out_c;
        let out_item = out_c * ohw;
        let in_item = in_c * in_h * in_w;
        let god = grad_out.data();
        // db[c] += Σ_j gout_b[c][j], items in ascending order.
        if self.bias.is_some() {
            for item in god.chunks_exact(out_item.max(1)) {
                for (d, row) in self.grad_bias.data_mut().iter_mut().zip(item.chunks_exact(ohw)) {
                    *d += row.iter().sum::<f32>();
                }
            }
        }
        if n == 0 || out_item == 0 || col_rows == 0 {
            return grad_in;
        }
        let groups = Groups::new(n, ohw, out_item);
        let (_, cols_len) = groups.panels_len(n, col_rows);
        // dW += Σ_b gout_b · cols_bᵀ, read from the forward's panels.
        conv_weight_grad(
            god,
            &self.cols_buf[..cols_len],
            n,
            out_c,
            col_rows,
            ohw,
            groups.items,
            self.grad_weight.data_mut(),
        );
        // d cols = Wᵀ · gout as one GEMM per group over the group's output
        // gradient packed as B panels, then scattered back to image space
        // item by item. A pointwise conv's scatter is the identity (`0.0 +
        // v`, and a GEMM sum starting from +0.0 is never -0.0), so its
        // GEMM writes the input gradient directly.
        let gcols_groups = Groups::new(n, ohw, col_rows * ohw);
        let out_rows: Vec<usize> = (0..out_c).map(|o| o * ohw).collect();
        let mut wt_tiles = Vec::new();
        pack_at_tiles(self.weight.data(), out_c, col_rows, &mut wt_tiles);
        par::par_chunks_mut(grad_in.data_mut(), groups.items * in_item, |q, gi| {
            let items = gi.len() / in_item;
            let gout = &god[q * groups.items * out_item..][..items * out_item];
            let runs = groups.runs(items);
            let mut panels_buf = GOUT_PANELS.with(Cell::take);
            let panels = scratch(&mut panels_buf, runs.panels() * out_c * NR);
            fill_panels(gout, runs, &out_rows, 1, panels);
            let gruns = gcols_groups.runs(items);
            let gemm = |dst: &mut [f32]| {
                let store = Epilogue::Store;
                gemm_panel_runs(&wt_tiles, panels, out_c, col_rows, gruns, ohw, dst, store)
            };
            if g.is_pointwise() {
                gemm(gi);
            } else {
                let mut gcols_buf = GCOLS.with(Cell::take);
                let gcols = scratch(&mut gcols_buf, items * col_rows * ohw);
                gemm(gcols);
                for (c, img) in gcols.chunks_exact(col_rows * ohw).zip(gi.chunks_exact_mut(in_item))
                {
                    col2im_into(c, g, img);
                }
                GCOLS.with(|c| c.set(gcols_buf));
            }
            GOUT_PANELS.with(|c| c.set(panels_buf));
        });
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
    use crate::im2col::im2col_into;
    use crate::nn::gradcheck;
    use crate::{matmul, matmul_a_bt, matmul_at_b, rng_from_seed};

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
        for b in 0..3 {
            let gout_b = Tensor::from_slice(&[5, 20], &gout.data()[b * out_item..][..out_item]);
            let gcols = matmul_at_b(&c.weight, &gout_b);
            let mut want = vec![0.0f32; item];
            col2im_into(gcols.data(), g, &mut want);
            let got = &gin.data()[b * item..(b + 1) * item];
            assert!(got.iter().zip(&want).all(|(a, w)| a.to_bits() == w.to_bits()), "item {b}");
        }
    }

    /// The conv as it ran before column groups, kept as the bit-identity
    /// oracle: per batch item, `im2col_into`, one GEMM for the output
    /// (epilogue applied to the stored sums), `a_bt_rows` (through
    /// `matmul_a_bt`) for the weight term and `Aᵀ·B` plus `col2im` for the
    /// input gradient; the per-item `(dW, db)` terms fold into the
    /// gradients in ascending batch order. Returns `(y, grad_in)` and
    /// leaves the folded gradients in `conv`.
    fn per_item_reference(
        conv: &mut Conv2d,
        x: &Tensor,
        gout_values: &[f32],
        fused: Option<(&[f32], &[f32], bool)>,
    ) -> (Vec<f32>, Vec<f32>) {
        let [n, in_c, in_h, in_w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let g = conv.geom(in_h, in_w);
        let (out_c, ohw, k) = (conv.out_c, g.out_h() * g.out_w(), in_c * conv.kh * conv.kw);
        let (item, out_item) = (in_c * in_h * in_w, out_c * ohw);
        let bias = conv.bias.as_ref().map(|b| b.data().to_vec());
        let (mut y, mut gin) = (vec![0.0f32; n * out_item], vec![0.0f32; n * item]);
        let gw_len = out_c * k;
        let slab = gw_len + out_c;
        let mut contribs = vec![0.0f32; n * slab];
        for b in 0..n {
            let mut cols = Tensor::zeros(&[k, ohw]);
            im2col_into(&x.data()[b * item..][..item], g, cols.data_mut());
            let sums = matmul(&conv.weight, &cols);
            for o in 0..out_c {
                for j in 0..ohw {
                    let v = sums.data()[o * ohw + j];
                    y[b * out_item + o * ohw + j] = match (fused, &bias) {
                        (Some((scale, shift, relu)), bias) => {
                            let t =
                                bias.as_ref().map_or(shift[o], |bv| shift[o] + scale[o] * bv[o]);
                            let v = scale[o] * v + t;
                            if relu {
                                v.max(0.0)
                            } else {
                                v
                            }
                        }
                        (None, Some(bv)) => v + bv[o],
                        (None, None) => v,
                    };
                }
            }
            let gout_b =
                Tensor::from_slice(&[out_c, ohw], &gout_values[b * out_item..][..out_item]);
            let terms = &mut contribs[b * slab..(b + 1) * slab];
            terms[..gw_len].copy_from_slice(matmul_a_bt(&gout_b, &cols).data());
            for (o, v) in terms[gw_len..].iter_mut().enumerate() {
                *v = gout_b.row(o).iter().sum();
            }
            let gcols = matmul_at_b(&conv.weight, &gout_b);
            col2im_into(gcols.data(), g, &mut gin[b * item..][..item]);
        }
        for terms in contribs.chunks_exact(slab) {
            for (d, s) in conv.grad_weight.data_mut().iter_mut().zip(&terms[..gw_len]) {
                *d += s;
            }
            for (d, s) in conv.grad_bias.data_mut().iter_mut().zip(&terms[gw_len..]) {
                *d += s;
            }
        }
        (y, gin)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random values with signed zeros mixed in.
    fn awkward(dims: &[usize], rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(dims, 1.0, rng);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 11 {
                3 => *v = -0.0,
                7 => *v = 0.0,
                _ => {}
            }
        }
        t
    }

    /// Grouped lowering, the panel GEMMs and the weight-gradient kernel
    /// reproduce the per-item path bit for bit: output, input gradient and
    /// accumulated weight and bias gradients, for plain, bias and fused
    /// BN(±ReLU) outputs; kernel 1/3 × stride 1/2 × pad 0/1 on 1×1 …
    /// 12×12 inputs (outputs narrower than a panel, `ohw % 4 ≠ 0`),
    /// 1–17 output channels, batches 1/3/5/32 (short last groups) and
    /// 1, 2 and 3 threads.
    #[test]
    fn grouped_conv_is_bit_identical_to_the_per_item_path() {
        let mut rng = rng_from_seed(59);
        let mut case = 0usize;
        for k in [1usize, 3] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1] {
                    for size in (1..=12usize).chain([13]) {
                        // 13 stands for a non-square 12×7 input.
                        let (in_h, in_w) = if size == 13 { (12, 7) } else { (size, size) };
                        if in_h + 2 * pad < k || in_w + 2 * pad < k {
                            continue;
                        }
                        for n in [1usize, 3, 5, 32] {
                            case += 1;
                            let out_c = 1 + case % 17;
                            let in_c = 1 + case % 3;
                            let threads = 1 + case % 3;
                            let mode = case % 4;
                            // Modes: plain, bias, fused BN, fused BN + ReLU
                            // over a conv bias.
                            let mut conv =
                                Conv2d::new(in_c, out_c, k, k, stride, pad, false, &mut rng);
                            if mode % 2 == 1 {
                                conv.bias = Some(Tensor::randn(&[out_c], 1.0, &mut rng));
                                conv.reset_grads();
                            }
                            conv.grad_weight = Tensor::randn(conv.weight.dims(), 1.0, &mut rng);
                            conv.grad_bias = Tensor::randn(conv.grad_bias.dims(), 1.0, &mut rng);
                            let scale: Vec<f32> =
                                Tensor::randn(&[out_c], 1.0, &mut rng).data().to_vec();
                            let shift: Vec<f32> =
                                Tensor::randn(&[out_c], 1.0, &mut rng).data().to_vec();
                            let fused = (mode >= 2).then_some((&scale[..], &shift[..], mode == 3));
                            let x = awkward(&[n, in_c, in_h, in_w], &mut rng);
                            let g = conv.geom(in_h, in_w);
                            let gout = awkward(&[n, out_c, g.out_h(), g.out_w()], &mut rng);
                            let mut oracle = conv.clone();
                            let (want_y, want_gin) =
                                per_item_reference(&mut oracle, &x, gout.data(), fused);
                            // A fused forward runs in eval mode, and so
                            // does the first plain one: backward reads the
                            // columns of the train-mode forward after it.
                            let (y, y_train, gin) = par::with_threads(threads, || {
                                let y = match fused {
                                    Some((s, t, relu)) => conv.forward_fused_bn(&x, s, t, relu),
                                    None => conv.forward(&x, false),
                                };
                                let y_train = conv.forward(&x, true);
                                (y, y_train, conv.backward(&gout))
                            });
                            let what = format!(
                                "k{k} s{stride} p{pad} {in_h}x{in_w} in{in_c} out{out_c} n{n} \
                                 t{threads} mode{mode}"
                            );
                            assert_eq!(bits(y.data()), bits(&want_y), "output {what}");
                            if fused.is_none() {
                                assert_eq!(bits(y_train.data()), bits(&want_y), "train {what}");
                            }
                            assert_eq!(bits(gin.data()), bits(&want_gin), "grad_in {what}");
                            assert_eq!(
                                bits(conv.grad_weight.data()),
                                bits(oracle.grad_weight.data()),
                                "grad_weight {what}"
                            );
                            assert_eq!(
                                bits(conv.grad_bias.data()),
                                bits(oracle.grad_bias.data()),
                                "grad_bias {what}"
                            );
                        }
                    }
                }
            }
        }
        assert!(case > 300, "only {case} cases checked");
    }

    /// A clone starts without the column scratch, and trains and evaluates
    /// bit-identically to the layer it was cloned from.
    #[test]
    fn clone_drops_scratch_and_trains_identically() {
        let mut rng = rng_from_seed(60);
        let mut a = Conv2d::new(3, 5, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[4, 3, 6, 6], 1.0, &mut rng);
        a.forward(&x, true);
        assert!(!a.cols_buf.is_empty());
        let mut b = a.clone();
        assert!(b.cols_buf.is_empty() && b.cached_in_dims.is_none());
        for step in 0..3 {
            let (ya, yb) = (a.forward(&x, true), b.forward(&x, true));
            assert_eq!(bits(ya.data()), bits(yb.data()), "train forward, step {step}");
            let gout = Tensor::randn(ya.dims(), 1.0, &mut rng);
            let (ga, gb) = (a.backward(&gout), b.backward(&gout));
            assert_eq!(bits(ga.data()), bits(gb.data()), "grad_in, step {step}");
            for layer in [&mut a, &mut b] {
                for p in layer.params_mut() {
                    for (v, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                        *v -= 0.1 * g;
                    }
                }
            }
        }
        assert_eq!(bits(a.weight.data()), bits(b.weight.data()));
        assert_eq!(bits(a.forward(&x, false).data()), bits(b.forward(&x, false).data()));
    }

    /// Eval-mode forwards, plain and fused, lower into per-thread scratch:
    /// the layer's column buffer stays empty and no input shape is cached.
    #[test]
    fn eval_forward_keeps_no_columns_in_the_layer() {
        let mut rng = rng_from_seed(61);
        let mut c = Conv2d::new(3, 5, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[9, 3, 4, 4], 1.0, &mut rng);
        let y = c.forward(&x, false);
        let (scale, shift) = (vec![0.5f32; 5], vec![0.25f32; 5]);
        c.forward_fused_bn(&x, &scale, &shift, true);
        assert!(c.cols_buf.is_empty() && c.cols_buf.capacity() == 0);
        assert!(c.cached_in_dims.is_none());
        assert_eq!(bits(y.data()), bits(c.forward(&x, true).data()));
        assert!(!c.cols_buf.is_empty(), "a train-mode forward keeps its columns");
    }

    /// `backward` reads the columns of the last forward, so it refuses to
    /// run after an eval-mode one instead of reading stale columns.
    #[test]
    #[should_panic(expected = "needs a train-mode forward")]
    fn backward_after_an_eval_forward_panics() {
        let mut rng = rng_from_seed(62);
        let mut c = Conv2d::new(2, 3, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let y = c.forward(&x, true);
        c.forward(&x, false);
        c.backward(&Tensor::ones(y.dims()));
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
