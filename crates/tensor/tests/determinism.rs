//! The parallel execution layer's determinism contract: every kernel and
//! every training step produces bitwise-identical results at any thread
//! count, and the 1-thread path reproduces the pre-parallel serial
//! kernels exactly.

use automc_tensor::nn::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2, Relu};
use automc_tensor::optim::{Adam, AdamConfig, Optimizer};
use automc_tensor::par::with_threads;
use automc_tensor::{loss, matmul, matmul_a_bt, matmul_at_b, rng_from_seed, Tensor};

/// Reference implementation of the pre-parallel serial `matmul` (`ikj`
/// loop order), copied from the kernel as it stood before the execution
/// layer landed. The parallel kernel at one thread must match it bitwise.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    for i in 0..m {
        let a_row = &ad[i * ka..(i + 1) * ka];
        let c_row = &mut cd[i * n..(i + 1) * n];
        for (p, &apk) in a_row.iter().enumerate() {
            let b_row = &bd[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += apk * bv;
            }
        }
    }
    c
}

/// Reference pre-parallel `matmul_at_b` (row-scatter order).
fn reference_matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut c = Tensor::zeros(&[k, n]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let b_row = &bd[i * n..(i + 1) * n];
        for (p, &apv) in a_row.iter().enumerate() {
            let c_row = &mut cd[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += apv * bv;
            }
        }
    }
    c
}

/// Reference `matmul_a_bt`: per-element dot products in the kernel's
/// documented fixed order — four lane-strided accumulators (lane `l` sums
/// elements `l, l+4, …`), combined as `(l0+l1)+(l2+l3)`, then the `n % 4`
/// tail added in ascending order. The kernel numerics moved from a single
/// serial accumulator to this order when the packed microkernels landed
/// (`KERNEL_NUMERICS_VERSION` 3); the 1-thread kernel must match this
/// spelled-out form bitwise.
fn reference_matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let k = b.dims()[0];
    let mut c = Tensor::zeros(&[m, k]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    for i in 0..m {
        let a_row = &ad[i * n..(i + 1) * n];
        let c_row = &mut cd[i * k..(i + 1) * k];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &bd[j * n..(j + 1) * n];
            let mut lanes = [0.0f32; 4];
            for t in 0..n / 4 {
                for l in 0..4 {
                    lanes[l] += a_row[4 * t + l] * b_row[4 * t + l];
                }
            }
            let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for p in n / 4 * 4..n {
                acc += a_row[p] * b_row[p];
            }
            *cv = acc;
        }
    }
    c
}

const THREAD_COUNTS: [usize; 3] = [2, 3, 8];

#[test]
fn one_thread_matches_pre_parallel_serial_kernels() {
    let mut rng = rng_from_seed(0xD0);
    // Large enough that the parallel path *would* dispatch to the pool —
    // at one thread it must still take the serial route and match the
    // historical kernels bitwise.
    let a = Tensor::randn(&[96, 64], 1.0, &mut rng);
    let b = Tensor::randn(&[64, 80], 1.0, &mut rng);
    let b_tall = Tensor::randn(&[96, 80], 1.0, &mut rng);
    let bt = Tensor::randn(&[80, 64], 1.0, &mut rng);
    with_threads(1, || {
        assert_eq!(matmul(&a, &b).data(), reference_matmul(&a, &b).data());
        assert_eq!(
            matmul_at_b(&a, &b_tall).data(),
            reference_matmul_at_b(&a, &b_tall).data()
        );
        assert_eq!(
            matmul_a_bt(&a, &bt).data(),
            reference_matmul_a_bt(&a, &bt).data()
        );
    });
}

#[test]
fn matmul_kernels_bitwise_identical_at_any_thread_count() {
    let mut rng = rng_from_seed(0xD1);
    let a = Tensor::randn(&[96, 64], 1.0, &mut rng);
    let b = Tensor::randn(&[64, 80], 1.0, &mut rng);
    let b_tall = Tensor::randn(&[96, 80], 1.0, &mut rng);
    let bt = Tensor::randn(&[80, 64], 1.0, &mut rng);
    let serial = with_threads(1, || {
        (matmul(&a, &b), matmul_at_b(&a, &b_tall), matmul_a_bt(&a, &bt))
    });
    for threads in THREAD_COUNTS {
        let par = with_threads(threads, || {
            (matmul(&a, &b), matmul_at_b(&a, &b_tall), matmul_a_bt(&a, &bt))
        });
        assert_eq!(serial.0.data(), par.0.data(), "matmul at {threads} threads");
        assert_eq!(serial.1.data(), par.1.data(), "matmul_at_b at {threads} threads");
        assert_eq!(serial.2.data(), par.2.data(), "matmul_a_bt at {threads} threads");
    }
}

/// Forward output, input gradient and the accumulated weight and bias
/// gradients of a conv layer, at every thread count. The second shape has
/// 2×2 outputs (16 items per column group) and a batch of 37, so the last
/// group is short, and enough work to split its weight gradient.
#[test]
fn conv_forward_backward_bitwise_identical_at_any_thread_count() {
    for (in_c, out_c, hw, batch) in [(3usize, 8usize, 10usize, 6usize), (16, 17, 2, 37)] {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut rng = rng_from_seed(0xD2);
                let mut conv = Conv2d::new(in_c, out_c, 3, 3, 1, 1, true, &mut rng);
                let x = Tensor::randn(&[batch, in_c, hw, hw], 1.0, &mut rng);
                let y = conv.forward(&x, true);
                let g = Tensor::randn(y.dims(), 1.0, &mut rng);
                let gx = conv.backward(&g);
                (y, gx, conv.grad_weight.clone(), conv.grad_bias.clone())
            })
        };
        let (y1, gx1, gw1, gb1) = run(1);
        for threads in THREAD_COUNTS {
            let (y, gx, gw, gb) = run(threads);
            let what = format!("{in_c}->{out_c} on {hw}x{hw}, batch {batch}, {threads} threads");
            assert_eq!(y1.data(), y.data(), "conv forward, {what}");
            assert_eq!(gx1.data(), gx.data(), "conv input gradient, {what}");
            assert_eq!(gw1.data(), gw.data(), "conv weight gradient, {what}");
            assert_eq!(gb1.data(), gb.data(), "conv bias gradient, {what}");
        }
    }
}

/// Run a few optimisation steps of a small conv net (every parallelised
/// layer in the stack) and return a flat snapshot of all parameters.
fn train_steps(threads: usize) -> Vec<f32> {
    with_threads(threads, || {
        let mut rng = rng_from_seed(0xD3);
        let mut conv = Conv2d::new(3, 8, 3, 3, 1, 1, true, &mut rng);
        let mut bn = BatchNorm2d::new(8);
        let mut relu = Relu::new();
        let mut pool = MaxPool2::new();
        let mut gap = GlobalAvgPool::new();
        let mut fc = Linear::new(8, 4, &mut rng);
        let mut opt = Adam::new(AdamConfig::default());
        let x = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 3, 0, 1];
        for _ in 0..3 {
            let h = conv.forward(&x, true);
            let h = bn.forward(&h, true);
            let h = relu.forward(&h, true);
            let h = pool.forward(&h, true);
            let h = gap.forward(&h, true);
            let logits = fc.forward(&h, true);
            let (_, grad) = loss::softmax_cross_entropy(&logits, &labels);
            let g = fc.backward(&grad);
            let g = gap.backward(&g);
            let g = pool.backward(&g);
            let g = relu.backward(&g);
            let g = bn.backward(&g);
            conv.backward(&g);
            let mut params = conv.params_mut();
            params.extend(bn.params_mut());
            params.extend(fc.params_mut());
            opt.step(&mut params);
        }
        let mut snapshot = Vec::new();
        let mut params = conv.params_mut();
        params.extend(bn.params_mut());
        params.extend(fc.params_mut());
        for p in &params {
            snapshot.extend_from_slice(p.value.data());
        }
        snapshot
    })
}

#[test]
fn full_train_step_bitwise_identical_at_any_thread_count() {
    let serial = train_steps(1);
    assert!(serial.iter().all(|v| v.is_finite()));
    for threads in THREAD_COUNTS {
        assert_eq!(serial, train_steps(threads), "diverged at {threads} threads");
    }
}
