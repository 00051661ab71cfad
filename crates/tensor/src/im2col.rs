//! im2col / col2im lowering for convolution.
//!
//! Convolution forward is a matmul over lowered columns:
//! `out[oc, oh*ow] = W[oc, ic*kh*kw] · cols[ic*kh*kw, oh*ow]` per batch
//! item, and the backward pass scatters column gradients back with
//! [`col2im`]. `Conv2d` lowers a *group* of consecutive items at once,
//! straight into the GEMM's NR-wide B-panel layout ([`lower_group`]): the
//! group's columns, item-major, are the B matrix of one GEMM.
//!
//! Both directions pad the image once into a thread-local scratch plane
//! instead of bounds-testing every element: each output row of a column
//! then reads (or, for col2im, accumulates into) one unbroken run of the
//! padded plane. A 1×1 / stride-1 / pad-0 convolution skips padding and
//! its backward skips the scatter — its column matrix *is* the image.

use crate::isa::multiversion;
use crate::matmul::NR;
use crate::Tensor;
use std::cell::Cell;

thread_local! {
    /// Reusable zero-padded image plane for one lowering call. Taken (not
    /// borrowed) for the duration of the call, like the GEMM pack buffers,
    /// so steady-state training does not allocate per call.
    static PADDED: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeom {
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kh) / self.stride + 1
    }

    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// 1×1, stride 1, no padding: the column matrix equals the image.
    #[inline]
    pub fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.pad == 0
    }
}

/// Run `f(planes, ph, pw)` over `in_c` zero planes of `ph×pw` in the
/// thread-local scratch, with `img` (if given) copied into their interior.
fn with_padded<R>(
    img: Option<&[f32]>,
    g: ConvGeom,
    f: impl FnOnce(&mut [f32], usize, usize) -> R,
) -> R {
    let (ph, pw) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
    let mut buf = PADDED.with(Cell::take);
    buf.clear();
    buf.resize(g.in_c * ph * pw, 0.0);
    if let Some(img) = img {
        pad_planes(img, g, &mut buf);
    }
    let out = f(&mut buf, ph, pw);
    PADDED.with(|c| c.set(buf));
    out
}

multiversion! {
    /// Copy the `in_c` planes of `img` into the interior of the zeroed
    /// padded planes `buf`.
    fn pad_planes(img: &[f32], g: ConvGeom, buf: &mut [f32]) {
        let (ph, pw) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
        for c in 0..g.in_c {
            for y in 0..g.in_h {
                let at = (c * ph + y + g.pad) * pw + g.pad;
                copy_run(&mut buf[at..at + g.in_w], &img[(c * g.in_h + y) * g.in_w..]);
            }
        }
    }

    /// Copy the interior of `in_c` padded planes back out to `img`, the
    /// adjoint of [`pad_planes`]'s placement (col2im's crop).
    fn crop_planes(planes: &[f32], g: ConvGeom, img: &mut [f32]) {
        let (ph, pw) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
        for c in 0..g.in_c {
            for y in 0..g.in_h {
                let at = (c * ph + y + g.pad) * pw + g.pad;
                let row = (c * g.in_h + y) * g.in_w;
                copy_run(&mut img[row..row + g.in_w], &planes[at..]);
            }
        }
    }
}

/// Copy a run of `dst.len()` floats from the front of `src`. Output rows
/// and panel runs are mostly 1–8 floats wide, where a `memcpy` call costs
/// more than the copy, so those widths get fixed-size copies the compiler
/// inlines.
#[inline(always)]
pub(crate) fn copy_run(dst: &mut [f32], src: &[f32]) {
    match dst.len() {
        1 => dst[0] = src[0],
        2 => dst.copy_from_slice(&src[..2]),
        4 => dst.copy_from_slice(&src[..4]),
        8 => dst.copy_from_slice(&src[..8]),
        n => dst.copy_from_slice(&src[..n]),
    }
}

/// A stretch of one panel's lanes fed from one source row: lanes
/// `lane..lane + len` read `len` values starting at source offset `off`
/// (stepping by the caller's stride), or, when a panel map addresses an
/// output, write back to `off..off + len`.
#[derive(Clone, Copy)]
pub(crate) struct Run {
    pub lane: usize,
    pub len: usize,
    pub off: usize,
}

/// Where the columns of a group of consecutive batch items sit in NR-wide
/// GEMM panels. Column `c` of the group is lane `c % NR` of panel
/// `c / NR`; columns run item-major, then by source row. Each panel keeps
/// the runs that feed it, split at panel edges and merged where
/// consecutive lanes read consecutive source values, so a panel over one
/// unbroken source run is a single `NR`-wide copy.
pub(crate) struct PanelRuns {
    runs: Vec<Run>,
    /// Panel `p` owns `runs[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
}

impl PanelRuns {
    /// Map `items` items of `rows` source rows of `row_len` columns each.
    /// Item `i`, row `y`, column `x` reads source offset `i·item_stride +
    /// y·row_stride + x·step`.
    pub fn new(
        items: usize,
        rows: usize,
        row_len: usize,
        item_stride: usize,
        row_stride: usize,
        step: usize,
    ) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        let mut starts = Vec::new();
        let mut col = 0usize;
        for item in 0..items {
            for y in 0..rows {
                let mut off = item * item_stride + y * row_stride;
                let mut left = row_len;
                while left > 0 {
                    let lane = col % NR;
                    let len = left.min(NR - lane);
                    match runs.last_mut() {
                        Some(prev)
                            if lane > 0
                                && step == 1
                                && prev.lane + prev.len == lane
                                && prev.off + prev.len == off =>
                        {
                            prev.len += len
                        }
                        _ => {
                            if lane == 0 {
                                starts.push(runs.len());
                            }
                            runs.push(Run { lane, len, off });
                        }
                    }
                    col += len;
                    off += len * step;
                    left -= len;
                }
            }
        }
        starts.push(runs.len());
        PanelRuns { runs, starts }
    }

    /// Number of panels (the last one may be ragged).
    pub fn panels(&self) -> usize {
        self.starts.len() - 1
    }

    /// The runs of panel `p`, in lane order.
    #[inline]
    pub fn panel(&self, p: usize) -> &[Run] {
        &self.runs[self.starts[p]..self.starts[p + 1]]
    }
}

multiversion! {
    /// Gather source rows into NR-wide panels laid out like
    /// `pack_b_panels` output: panel `p`, row `r` holds `out[(p·k + r)·NR
    /// + lane]` with `k = row_off.len()`, where each run of panel `p`
    /// reads `src[row_off[r] + run.off + i·step]` into lane `run.lane +
    /// i`. Lanes past the last column are zeroed.
    pub(crate) fn fill_panels(
        src: &[f32],
        map: &PanelRuns,
        row_off: &[usize],
        step: usize,
        out: &mut [f32],
    ) {
        let k = row_off.len();
        debug_assert_eq!(out.len(), map.panels() * k * NR);
        if k == 0 {
            return;
        }
        for (p, dst) in out.chunks_exact_mut(k * NR).enumerate() {
            let runs = map.panel(p);
            if let [r0] = runs {
                if r0.len == NR && step == 1 {
                    // One unbroken source run fills the panel: a
                    // constant-width copy per row.
                    for (lanes, &ro) in dst.chunks_exact_mut(NR).zip(row_off) {
                        lanes.copy_from_slice(&src[ro + r0.off..ro + r0.off + NR]);
                    }
                    continue;
                }
            }
            // Otherwise gather lane by lane: short runs and strided reads
            // cost one load per lane instead of a copy call per run.
            let mut offs = [0usize; NR];
            for run in runs {
                for (i, o) in offs[run.lane..run.lane + run.len].iter_mut().enumerate() {
                    *o = run.off + i * step;
                }
            }
            let used = runs.last().map_or(0, |r| r.lane + r.len);
            for (lanes, &ro) in dst.chunks_exact_mut(NR).zip(row_off) {
                let s = &src[ro..];
                if used == NR {
                    for (d, &o) in lanes.iter_mut().zip(&offs) {
                        *d = s[o];
                    }
                } else {
                    for (d, &o) in lanes[..used].iter_mut().zip(&offs) {
                        *d = s[o];
                    }
                    lanes[used..].fill(0.0);
                }
            }
        }
    }
}

impl ConvGeom {
    /// Panel map of the lowered columns of `items` consecutive images:
    /// output row `oy` of item `i` reads `ow` values of its (padded)
    /// planes, `stride` apart.
    pub fn lowering_runs(&self, items: usize) -> PanelRuns {
        let (ph, pw) = (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad);
        PanelRuns::new(
            items,
            self.out_h(),
            self.out_w(),
            self.in_c * ph * pw,
            self.stride * pw,
            self.stride,
        )
    }

    /// Source offset of each column row `(c, ky, kx)` within one item's
    /// (padded) planes, in row order.
    pub fn lowering_rows(&self) -> Vec<usize> {
        let (ph, pw) = (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad);
        let mut rows = Vec::with_capacity(self.in_c * self.kh * self.kw);
        for c in 0..self.in_c {
            for ky in 0..self.kh {
                for kx in 0..self.kw {
                    rows.push((c * ph + ky) * pw + kx);
                }
            }
        }
        rows
    }
}

/// Lower the `items` consecutive images of `x` (`items·C·H·W` floats)
/// straight into GEMM B panels: the `[C·kh·kw, items·oh·ow]` column matrix
/// of the group, item-major, in the panel layout `fill_panels` writes.
/// `runs` and `rows` come from [`ConvGeom::lowering_runs`] /
/// [`ConvGeom::lowering_rows`]. The values equal [`im2col_into`]'s per
/// item; only their placement differs.
pub(crate) fn lower_group(
    x: &[f32],
    g: ConvGeom,
    items: usize,
    runs: &PanelRuns,
    rows: &[usize],
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), items * g.in_c * g.in_h * g.in_w);
    if g.pad == 0 {
        fill_panels(x, runs, rows, g.stride, out);
    } else {
        // Consecutive items are consecutive planes: pad the group as one
        // image of `items·C` channels.
        let planes = ConvGeom { in_c: items * g.in_c, ..g };
        with_padded(Some(x), planes, |padded, _, _| fill_panels(padded, runs, rows, g.stride, out));
    }
}

/// Lower `in_c` planes of `ph×pw` that already carry the padding: column
/// row `(c, ky, kx)`, output row `oy` reads one run of plane `c` starting
/// at `(oy·stride + ky, kx)`, contiguous at stride 1.
fn lower_rows(planes: &[f32], g: ConvGeom, ph: usize, pw: usize, cols: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    // Nested loops with a running row index: no division per row, which
    // would cost more than copying a 2×2 output row.
    let mut row = 0usize;
    for c in 0..g.in_c {
        let plane = &planes[c * ph * pw..(c + 1) * ph * pw];
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let dst = &mut cols[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let d = &mut dst[oy * ow..(oy + 1) * ow];
                    let run = &plane[(oy * g.stride + ky) * pw + kx..];
                    if g.stride == 1 {
                        copy_run(d, run);
                    } else {
                        for (v, &x) in d.iter_mut().zip(run.iter().step_by(g.stride)) {
                            *v = x;
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Lower one image `[C, H, W]` into a `[C*kh*kw, oh*ow]` column matrix.
///
/// `img` must have length `C*H*W`; `cols` is overwritten.
pub(crate) fn im2col_into(img: &[f32], g: ConvGeom, cols: &mut [f32]) {
    debug_assert_eq!(cols.len(), g.in_c * g.kh * g.kw * g.out_h() * g.out_w());
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    if g.is_pointwise() {
        cols.copy_from_slice(img);
    } else if g.pad == 0 {
        lower_rows(img, g, g.in_h, g.in_w, cols);
    } else {
        with_padded(Some(img), g, |planes, ph, pw| {
            lower_rows(planes, g, ph, pw, cols)
        });
    }
}

multiversion! {
    /// Accumulate columns into `in_c` padded planes of `ph×pw` (the
    /// adjoint of [`lower_rows`]). Rows run in ascending `(c, ky, kx)`
    /// order and one row touches each pixel at most once, so every pixel
    /// sums its contributions in the same order as a per-element scatter.
    fn scatter_rows(cols: &[f32], g: ConvGeom, ph: usize, pw: usize, planes: &mut [f32]) {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut row = 0usize;
        for c in 0..g.in_c {
            let plane = &mut planes[c * ph * pw..(c + 1) * ph * pw];
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let src = &cols[row * oh * ow..(row + 1) * oh * ow];
                    for oy in 0..oh {
                        let s = &src[oy * ow..(oy + 1) * ow];
                        let run = &mut plane[(oy * g.stride + ky) * pw + kx..];
                        if g.stride == 1 {
                            for (p, &v) in run[..ow].iter_mut().zip(s) {
                                *p += v;
                            }
                        } else {
                            for (p, &v) in run.iter_mut().step_by(g.stride).zip(s) {
                                *p += v;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

/// Scatter-add a `[C*kh*kw, oh*ow]` column-gradient matrix back into an
/// image gradient `[C, H, W]` (the adjoint of [`im2col_into`]).
pub(crate) fn col2im_into(cols: &[f32], g: ConvGeom, img: &mut [f32]) {
    debug_assert_eq!(cols.len(), g.in_c * g.kh * g.kw * g.out_h() * g.out_w());
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    img.fill(0.0);
    if g.pad == 0 {
        scatter_rows(cols, g, g.in_h, g.in_w, img);
        return;
    }
    with_padded(None, g, |planes, ph, pw| {
        scatter_rows(cols, g, ph, pw, planes);
        crop_planes(planes, g, img);
    });
}

/// Public convenience: lower a single `[C, H, W]` tensor to columns.
pub fn im2col(img: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    let d = img.dims();
    debug_assert_eq!(d.len(), 3, "im2col expects [C, H, W]");
    let g = ConvGeom { in_c: d[0], in_h: d[1], in_w: d[2], kh, kw, stride, pad };
    let mut cols = Tensor::zeros(&[d[0] * kh * kw, g.out_h() * g.out_w()]);
    im2col_into(img.data(), g, cols.data_mut());
    cols
}

/// Public convenience: the adjoint of [`im2col`].
pub fn col2im(
    cols: &Tensor,
    in_dims: &[usize],
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    debug_assert_eq!(in_dims.len(), 3, "col2im expects [C, H, W] target dims");
    let g = ConvGeom {
        in_c: in_dims[0],
        in_h: in_dims[1],
        in_w: in_dims[2],
        kh,
        kw,
        stride,
        pad,
    };
    let mut img = Tensor::zeros(in_dims);
    col2im_into(cols.data(), g, img.data_mut());
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn geometry() {
        let g = ConvGeom { in_c: 1, in_h: 8, in_w: 8, kh: 3, kw: 3, stride: 1, pad: 1 };
        assert_eq!((g.out_h(), g.out_w()), (8, 8));
        let g2 = ConvGeom { stride: 2, ..g };
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4));
        let g3 = ConvGeom { kh: 1, kw: 1, pad: 0, ..g };
        assert_eq!((g3.out_h(), g3.out_w()), (8, 8));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, no pad: cols equals the flattened image.
        let img = Tensor::from_slice(&[1, 2, 2], &[1., 2., 3., 4.]);
        let cols = im2col(&img, 1, 1, 1, 0);
        assert_eq!(cols.dims(), &[1, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_3x3_center_row_is_image() {
        // With 3x3 kernel pad 1 stride 1, the center row (ky=1, kx=1) of the
        // column matrix reproduces the image exactly.
        let mut rng = rng_from_seed(8);
        let img = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let cols = im2col(&img, 3, 3, 1, 1);
        assert_eq!(cols.dims(), &[2 * 9, 16]);
        for c in 0..2 {
            let center = cols.row(c * 9 + 4);
            let plane = &img.data()[c * 16..(c + 1) * 16];
            assert_eq!(center, plane);
        }
    }

    /// Brute-force im2col by the defining index formula, for checking the
    /// strided/windowed production code on awkward geometries.
    fn im2col_reference(img: &Tensor, g: ConvGeom) -> Vec<f32> {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut cols = vec![0.0f32; g.in_c * g.kh * g.kw * oh * ow];
        for c in 0..g.in_c {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            let row = (c * g.kh + ky) * g.kw + kx;
                            let v = if iy >= 0
                                && iy < g.in_h as isize
                                && ix >= 0
                                && ix < g.in_w as isize
                            {
                                img.data()[(c * g.in_h + iy as usize) * g.in_w + ix as usize]
                            } else {
                                0.0
                            };
                            cols[row * oh * ow + oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
        cols
    }

    /// Strided lowering with stride remainders that crop the bottom/right
    /// edge asymmetrically (`(in + 2·pad − k) % stride ≠ 0`), checked
    /// against the defining formula element by element.
    #[test]
    fn strided_asymmetric_coverage_matches_reference() {
        let mut rng = rng_from_seed(20);
        for (in_h, in_w, k, stride, pad) in
            [(5, 6, 3, 2, 1), (7, 5, 3, 2, 0), (6, 9, 2, 3, 1), (8, 8, 3, 3, 2)]
        {
            let g = ConvGeom { in_c: 2, in_h, in_w, kh: k, kw: k, stride, pad };
            let img = Tensor::randn(&[2, in_h, in_w], 1.0, &mut rng);
            let cols = im2col(&img, k, k, stride, pad);
            assert_eq!(
                cols.data(),
                &im2col_reference(&img, g)[..],
                "geometry {in_h}x{in_w} k{k} s{stride} p{pad}"
            );
        }
    }

    /// Kernels larger than the (padded-in-one-direction) input extent:
    /// most of each window is zero padding, and the output still has the
    /// closed-form size.
    #[test]
    fn kernel_larger_than_input_matches_reference() {
        let mut rng = rng_from_seed(21);
        for (in_h, in_w, k, pad) in [(2, 2, 3, 1), (2, 3, 5, 2), (1, 4, 3, 1)] {
            let g = ConvGeom { in_c: 1, in_h, in_w, kh: k, kw: k, stride: 1, pad };
            let img = Tensor::randn(&[1, in_h, in_w], 1.0, &mut rng);
            let cols = im2col(&img, k, k, 1, pad);
            assert_eq!(cols.dims()[1], g.out_h() * g.out_w());
            assert_eq!(
                cols.data(),
                &im2col_reference(&img, g)[..],
                "geometry {in_h}x{in_w} k{k} p{pad}"
            );
        }
    }

    /// Round-trip property: `col2im(im2col(x))` equals `x` weighted by how
    /// many sliding windows cover each pixel. The overlap counts are
    /// obtained by round-tripping an all-ones image; integer-valued test
    /// data keeps every float addition exact, so the check is `==`.
    #[test]
    fn col2im_im2col_roundtrip_is_overlap_weighted_input() {
        let mut rng = rng_from_seed(22);
        for (in_h, in_w, k, stride, pad) in
            [(6, 6, 3, 1, 1), (5, 7, 3, 2, 1), (4, 4, 2, 2, 0), (2, 2, 3, 1, 1), (6, 5, 3, 3, 2)]
        {
            let dims = [2usize, in_h, in_w];
            // Small integers: exact under f32 addition and multiplication.
            let x = Tensor::randn(&[2, in_h, in_w], 1.0, &mut rng)
                .map(|v| (v * 4.0).round().clamp(-8.0, 8.0));
            let counts = col2im(
                &im2col(&Tensor::ones(&dims), k, k, stride, pad),
                &dims,
                k,
                k,
                stride,
                pad,
            );
            let round = col2im(&im2col(&x, k, k, stride, pad), &dims, k, k, stride, pad);
            for i in 0..x.numel() {
                assert_eq!(
                    round.data()[i],
                    counts.data()[i] * x.data()[i],
                    "pixel {i} of {in_h}x{in_w} k{k} s{stride} p{pad}"
                );
            }
            // Interior pixels of a stride-1 lowering are covered by all
            // k² windows; sanity-check the counts themselves.
            if stride == 1 && pad == 1 && k == 3 && in_h > 2 && in_w > 2 {
                assert_eq!(counts.data()[(in_h / 2) * in_w + in_w / 2], (k * k) as f32);
            }
        }
    }

    /// The per-element lowering this module shipped before run lowering,
    /// kept verbatim as the bit-identity oracle.
    fn im2col_into_reference(img: &[f32], g: ConvGeom, cols: &mut [f32]) {
        let (oh, ow) = (g.out_h(), g.out_w());
        let cols_w = oh * ow;
        let mut row = 0usize;
        for c in 0..g.in_c {
            let plane = &img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let dst = &mut cols[row * cols_w..(row + 1) * cols_w];
                    let mut idx = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            dst[idx..idx + ow].fill(0.0);
                            idx += ow;
                            continue;
                        }
                        let src_row = &plane[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            dst[idx] = if ix < 0 || ix >= g.in_w as isize {
                                0.0
                            } else {
                                src_row[ix as usize]
                            };
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// The per-element scatter this module shipped before run lowering,
    /// kept verbatim as the bit-identity oracle.
    fn col2im_into_reference(cols: &[f32], g: ConvGeom, img: &mut [f32]) {
        let (oh, ow) = (g.out_h(), g.out_w());
        let cols_w = oh * ow;
        img.fill(0.0);
        let mut row = 0usize;
        for c in 0..g.in_c {
            let plane = &mut img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let src = &cols[row * cols_w..(row + 1) * cols_w];
                    let mut idx = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            idx += ow;
                            continue;
                        }
                        let dst_row = &mut plane[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix >= 0 && ix < g.in_w as isize {
                                dst_row[ix as usize] += src[idx];
                            }
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Random values with signed zeros mixed in, so `to_bits` equality
    /// also checks that -0.0 is copied or absorbed exactly as before.
    fn awkward_values(len: usize, rng: &mut crate::Rng) -> Vec<f32> {
        let mut v = Tensor::randn(&[len], 1.0, rng).data().to_vec();
        for (i, x) in v.iter_mut().enumerate() {
            match i % 7 {
                2 => *x = -0.0,
                5 => *x = 0.0,
                _ => {}
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run lowering and its adjoint are bit-identical to the per-element
    /// oracles on every kernel 1/3/5 × stride 1/2 × pad 0/1/2 geometry
    /// over 1×1 … 9×9 inputs (inputs narrower than the kernel included,
    /// as long as the padded input still fits one window).
    #[test]
    fn run_lowering_is_bit_identical_to_per_element_oracle() {
        let mut rng = rng_from_seed(23);
        let mut cases = 0;
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 2] {
                    for in_h in 1..=9usize {
                        for in_w in 1..=9usize {
                            if in_h + 2 * pad < k || in_w + 2 * pad < k {
                                continue;
                            }
                            let g = ConvGeom {
                                in_c: 2,
                                in_h,
                                in_w,
                                kh: k,
                                kw: k,
                                stride,
                                pad,
                            };
                            let img = awkward_values(2 * in_h * in_w, &mut rng);
                            let cols_len = 2 * k * k * g.out_h() * g.out_w();
                            let (mut want, mut got) = (vec![1.0; cols_len], vec![2.0; cols_len]);
                            im2col_into_reference(&img, g, &mut want);
                            im2col_into(&img, g, &mut got);
                            assert_eq!(bits(&got), bits(&want), "im2col {g:?}");
                            let cols = awkward_values(cols_len, &mut rng);
                            let (mut want, mut got) = (vec![1.0; img.len()], vec![2.0; img.len()]);
                            col2im_into_reference(&cols, g, &mut want);
                            col2im_into(&cols, g, &mut got);
                            assert_eq!(bits(&got), bits(&want), "col2im {g:?}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 1000, "only {cases} geometries checked");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let mut rng = rng_from_seed(9);
        let x = Tensor::randn(&[3, 6, 6], 1.0, &mut rng);
        let cols_shape_probe = im2col(&x, 3, 3, 2, 1);
        let y = Tensor::randn(cols_shape_probe.dims(), 1.0, &mut rng);
        let lhs: f32 = cols_shape_probe
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, &[3, 6, 6], 3, 3, 2, 1);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
