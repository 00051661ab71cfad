//! The AVX2 and baseline instances of every multiversioned kernel give the
//! same bits. Each case runs at one thread under the instance this CPU
//! dispatches to, then again with the baseline pinned, over the shape sets
//! the existing oracles use. On a CPU without AVX2 both runs take the
//! baseline; the tests say so and still run.

use automc_tensor::nn::{relu_mask_grad, relu_with_mask, BatchNorm2d, Conv2d, Layer, MaxPool2};
use automc_tensor::optim::{Adam, AdamConfig, Optimizer, Param, Sgd, SgdConfig};
use automc_tensor::par::with_threads;
use automc_tensor::{
    col2im, im2col, isa, matmul, matmul_a_bt, matmul_at_b, rng_from_seed, Rng, Tensor,
};

fn note_isa() {
    if isa::active() != "avx2" {
        eprintln!("note: this CPU has no AVX2; comparing the baseline instance with itself");
    }
}

/// `f` at one thread under the dispatched instance, then with the baseline
/// pinned.
fn both<R>(f: impl Fn() -> R) -> (R, R) {
    with_threads(1, || (f(), isa::with_baseline(&f)))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(pair: (Vec<Tensor>, Vec<Tensor>), what: &str) {
    let (fast, base) = pair;
    assert_eq!(fast.len(), base.len());
    for (i, (f, b)) in fast.iter().zip(&base).enumerate() {
        assert_eq!(f.dims(), b.dims(), "{what}: output {i} shape");
        assert_eq!(bits(f.data()), bits(b.data()), "{what}: output {i}");
    }
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

/// Conv forward (plain, bias, fused BN, fused BN + ReLU) and backward —
/// the grouped lowering, the panel GEMMs, the weight-gradient tiles
/// (V = 4 up to 4 output channels, V = 8 above), the output-gradient
/// panels, col2im's scatter and crop — over the grouped-conv oracle's
/// shapes: kernel 1/3 × stride 1/2 × pad 0/1 on 1×1 … 12×12 and 12×7
/// inputs, 1–17 output and 1–3 input channels, batches 1/3/5/32.
#[test]
fn conv_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(59);
    let (mut case, mut narrow) = (0usize, 0usize);
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
                        let mode = case % 4;
                        narrow += usize::from(out_c <= 4);
                        let mut conv = Conv2d::new(in_c, out_c, k, k, stride, pad, false, &mut rng);
                        if mode % 2 == 1 {
                            conv.bias = Some(Tensor::randn(&[out_c], 1.0, &mut rng));
                            conv.reset_grads();
                        }
                        conv.grad_weight = Tensor::randn(conv.weight.dims(), 1.0, &mut rng);
                        conv.grad_bias = Tensor::randn(conv.grad_bias.dims(), 1.0, &mut rng);
                        let scale = Tensor::randn(&[out_c], 1.0, &mut rng);
                        let shift = Tensor::randn(&[out_c], 1.0, &mut rng);
                        let x = awkward(&[n, in_c, in_h, in_w], &mut rng);
                        let y_dims = conv.clone().forward(&x, true).dims().to_vec();
                        let gout = awkward(&y_dims, &mut rng);
                        let run = || {
                            let mut c = conv.clone();
                            let y = match mode {
                                0 | 1 => c.forward(&x, true),
                                _ => c.forward_fused_bn(&x, scale.data(), shift.data(), mode == 3),
                            };
                            let gin = c.backward(&gout);
                            vec![y, gin, c.grad_weight, c.grad_bias]
                        };
                        let what = format!(
                            "k{k} s{stride} p{pad} {in_h}x{in_w} in{in_c} out{out_c} n{n} mode{mode}"
                        );
                        assert_same(both(run), &what);
                    }
                }
            }
        }
    }
    assert!(case > 300, "only {case} cases checked");
    assert!(narrow > 50 && case - narrow > 50, "V=4 cases {narrow} of {case}");
}

/// `A·B`, `Aᵀ·B` and `A·Bᵀ` over every ragged shape around the 4×8
/// microtile edges, on the packed path and the small-size fallback.
#[test]
fn matmul_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(7);
    let edges = [1usize, 3, 5, 7, 9, 19];
    for &m in &edges {
        for &n in &edges {
            for &k in &[1usize, 3, 9, 67] {
                let a = awkward(&[m, k], &mut rng);
                let b = awkward(&[k, n], &mut rng);
                let at = awkward(&[k, m], &mut rng);
                let bt = awkward(&[n, k], &mut rng);
                let run = || vec![matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt)];
                assert_same(both(run), &format!("m{m} n{n} k{k}"));
            }
        }
    }
}

/// `im2col`'s padding copy and `col2im`'s scatter and crop over the
/// run-lowering oracle's geometries: kernel 1/3/5 × stride 1/2 × pad
/// 0/1/2 on 1×1 … 9×9 inputs.
#[test]
fn lowering_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(23);
    for k in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1, 2] {
                for in_h in 1..=9usize {
                    for in_w in 1..=9usize {
                        if in_h + 2 * pad < k || in_w + 2 * pad < k {
                            continue;
                        }
                        let img = awkward(&[2, in_h, in_w], &mut rng);
                        let cols_dims = im2col(&img, k, k, stride, pad).dims().to_vec();
                        let cols = awkward(&cols_dims, &mut rng);
                        let run = || {
                            vec![
                                im2col(&img, k, k, stride, pad),
                                col2im(&cols, &[2, in_h, in_w], k, k, stride, pad),
                            ]
                        };
                        assert_same(both(run), &format!("k{k} s{stride} p{pad} {in_h}x{in_w}"));
                    }
                }
            }
        }
    }
}

/// Batch-norm train forward and backward: output, normalised input
/// (through the input gradient), running statistics and γ/β gradients.
#[test]
fn batchnorm_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(61);
    for (n, c, h, w) in [(1, 1, 1, 1), (3, 2, 5, 5), (32, 4, 8, 8), (5, 17, 2, 2), (2, 3, 7, 3)] {
        let mut bn = BatchNorm2d::new(c);
        bn.gamma = Tensor::randn(&[c], 1.0, &mut rng);
        bn.beta = Tensor::randn(&[c], 1.0, &mut rng);
        bn.grad_gamma = Tensor::randn(&[c], 1.0, &mut rng);
        let x = awkward(&[n, c, h, w], &mut rng);
        let gout = awkward(&[n, c, h, w], &mut rng);
        let run = || {
            let mut b = bn.clone();
            let y = b.forward(&x, true);
            let gin = b.backward(&gout);
            vec![y, gin, b.grad_gamma, b.grad_beta, b.running_mean, b.running_var]
        };
        assert_same(both(run), &format!("bn {n}x{c}x{h}x{w}"));
    }
}

/// 2×2 max-pool forward and backward, odd edges and tied maxima included.
#[test]
fn max_pool_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(80);
    for (n, c, h, w) in [(1, 1, 2, 2), (2, 3, 5, 5), (4, 2, 8, 6), (3, 5, 7, 4)] {
        // Coarse values repeat, so some windows hold tied maxima.
        let x = awkward(&[n, c, h, w], &mut rng).map(|v| (v * 2.0).round());
        let gout = awkward(&[n, c, h / 2, w / 2], &mut rng);
        let run = || {
            let mut p = MaxPool2::new();
            vec![p.forward(&x, true), p.backward(&gout)]
        };
        assert_same(both(run), &format!("pool {n}x{c}x{h}x{w}"));
    }
}

/// The ReLU forward and backward and the residual add over lengths that
/// cover every vector remainder, with signed zeros, infinities and NaN.
#[test]
fn elementwise_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(81);
    for len in 0..70usize {
        let mut x = awkward(&[len], &mut rng);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            match i % 13 {
                4 => *v = f32::NAN,
                9 => *v = f32::NEG_INFINITY,
                12 => *v = f32::INFINITY,
                _ => {}
            }
        }
        let other = awkward(&[len], &mut rng);
        let run = || {
            let mut y = x.clone();
            let mask = relu_with_mask(&mut y);
            let mut g = other.clone();
            relu_mask_grad(&mut g, &mask);
            let mut sum = x.clone();
            sum.add_assign(&other);
            let mask: Vec<f32> = mask.iter().map(|&m| f32::from(u8::from(m))).collect();
            vec![y, Tensor::from_slice(&[len], &mask), g, sum]
        };
        assert_same(both(run), &format!("len {len}"));
    }
}

/// Five SGD (with and without momentum and weight decay) and Adam (with
/// and without weight decay) steps over parameters of awkward lengths.
#[test]
fn optimizer_instances_are_bit_identical() {
    note_isa();
    let mut rng = rng_from_seed(82);
    let lens = [1usize, 7, 8, 9, 33, 100];
    let values: Vec<Tensor> = lens.iter().map(|&l| awkward(&[l], &mut rng)).collect();
    let grads: Vec<Vec<Tensor>> =
        (0..5).map(|_| lens.iter().map(|&l| awkward(&[l], &mut rng)).collect()).collect();
    type Make = fn() -> Box<dyn Optimizer>;
    let optimizers: [(&str, Make); 4] = [
        ("sgd", || Box::new(Sgd::new(SgdConfig::default()))),
        ("sgd no momentum", || {
            Box::new(Sgd::new(SgdConfig { momentum: 0.0, ..SgdConfig::default() }))
        }),
        ("adam", || Box::new(Adam::new(AdamConfig::default()))),
        ("adam decay", || {
            Box::new(Adam::new(AdamConfig { weight_decay: 1e-3, ..AdamConfig::default() }))
        }),
    ];
    for (name, make) in &optimizers {
        let run = || {
            let mut opt = make();
            let mut w = values.clone();
            let mut g: Vec<Tensor> = lens.iter().map(|&l| Tensor::zeros(&[l])).collect();
            for step in &grads {
                for (gi, si) in g.iter_mut().zip(step) {
                    gi.add_assign(si);
                }
                let mut params: Vec<Param<'_>> = w
                    .iter_mut()
                    .zip(g.iter_mut())
                    .enumerate()
                    .map(|(i, (value, grad))| Param { value, grad, weight_decay: i % 2 == 0 })
                    .collect();
                opt.step(&mut params);
            }
            w.extend(g);
            w
        };
        assert_same(both(run), name);
    }
}
