use crate::isa::multiversion;
use crate::nn::Layer;
use crate::{par, Tensor};

/// 2×2 max pooling with stride 2 (VGG downsampling).
///
/// Odd trailing rows/columns are dropped, matching the usual floor
/// behaviour.
#[derive(Default)]
#[derive(Clone)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_dims: [usize; 4],
}

impl MaxPool2 {
    /// New pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let d = x.dims();
        debug_assert_eq!(d.len(), 4);
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = (h / 2, w / 2);
        self.in_dims = [n, c, h, w];
        let out_item = c * oh * ow;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        if n == 0 || out_item == 0 {
            self.argmax = Vec::new();
            return out;
        }
        // One task per batch item: disjoint output and argmax chunks.
        let xd = x.data();
        let mut argmax = std::mem::take(&mut self.argmax);
        argmax.clear();
        argmax.resize(n * out_item, 0);
        par::par_chunks_mut2(
            out.data_mut(),
            out_item,
            &mut argmax,
            out_item,
            |b, out_chunk, am| max_pool_item(xd, b * c, h, w, out_chunk, am),
        );
        self.argmax = argmax;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.in_dims;
        debug_assert!(n > 0, "MaxPool2::backward before forward");
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let in_item = c * h * w;
        let out_item = self.argmax.len() / n.max(1);
        if in_item == 0 || out_item == 0 {
            return grad_in;
        }
        // Each argmax of batch item b points inside item b's input chunk,
        // so the scatter partitions cleanly by batch item.
        let (god, argmax) = (grad_out.data(), &self.argmax);
        par::par_chunks_mut(grad_in.data_mut(), in_item, |b, gi_chunk| {
            for oi in b * out_item..(b + 1) * out_item {
                gi_chunk[argmax[oi] - b * in_item] += god[oi];
            }
        });
        grad_in
    }
}

multiversion! {
    /// Max-pool one item's planes (`first_plane..` of NCHW `xd`, `h×w`
    /// each) into `out`, recording each maximum's flat index in `xd`.
    fn max_pool_item(
        xd: &[f32],
        first_plane: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        am: &mut [usize],
    ) {
        let (oh, ow) = (h / 2, w / 2);
        let mut oi = 0usize;
        for ch in first_plane..first_plane + out.len() / (oh * ow) {
            let plane = &xd[ch * h * w..(ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let iy = oy * 2 + dy;
                            let ix = ox * 2 + dx;
                            let idx = iy * w + ix;
                            if plane[idx] > best {
                                best = plane[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[oi] = best;
                    am[oi] = ch * h * w + best_idx;
                    oi += 1;
                }
            }
        }
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Default)]
#[derive(Clone)]
pub struct GlobalAvgPool {
    in_dims: [usize; 4],
}

impl GlobalAvgPool {
    /// New pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let d = x.dims();
        debug_assert_eq!(d.len(), 4);
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        self.in_dims = [n, c, h, w];
        let plane = (h * w).max(1) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        if n == 0 || c == 0 {
            return out;
        }
        let xd = x.data();
        par::par_chunks_mut(out.data_mut(), c, |b, out_chunk| {
            for (ch, o) in out_chunk.iter_mut().enumerate() {
                let base = (b * c + ch) * h * w;
                let s: f32 = xd[base..base + h * w].iter().sum();
                *o = s / plane;
            }
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.in_dims;
        debug_assert!(n > 0, "GlobalAvgPool::backward before forward");
        let plane = (h * w).max(1) as f32;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let in_item = c * h * w;
        if in_item == 0 {
            return grad_in;
        }
        let god = grad_out.data();
        par::par_chunks_mut(grad_in.data_mut(), in_item, |b, gi_chunk| {
            for ch in 0..c {
                let g = god[b * c + ch] / plane;
                gi_chunk[ch * h * w..(ch + 1) * h * w].fill(g);
            }
        });
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use crate::rng_from_seed;

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_slice(
            &[1, 1, 4, 4],
            &[1., 2., 5., 6., 3., 4., 7., 8., 9., 10., 13., 14., 11., 12., 15., 16.],
        );
        let mut p = MaxPool2::new();
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_slice(&[1, 1, 2, 2], &[1., 9., 3., 4.]);
        let mut p = MaxPool2::new();
        p.forward(&x, true);
        let g = p.backward(&Tensor::from_slice(&[1, 1, 1, 1], &[5.0]));
        assert_eq!(g.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut rng = rng_from_seed(80);
        // Use well-separated values so finite differences don't flip argmax.
        let x = Tensor::randn(&[2, 2, 4, 4], 10.0, &mut rng);
        let mut p = MaxPool2::new();
        gradcheck::check_input_grad(&mut p, &x, 0.05);
    }

    #[test]
    fn gap_averages() {
        let x = Tensor::from_slice(&[1, 2, 2, 2], &[1., 2., 3., 4., 10., 10., 10., 10.]);
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradcheck() {
        let mut rng = rng_from_seed(81);
        let x = Tensor::randn(&[2, 3, 3, 3], 1.0, &mut rng);
        let mut p = GlobalAvgPool::new();
        gradcheck::check_input_grad(&mut p, &x, 0.05);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let mut p = MaxPool2::new();
        assert_eq!(p.forward(&x, true).dims(), &[1, 1, 2, 2]);
    }
}
