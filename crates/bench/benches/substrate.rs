//! Microbenchmarks of the substrate the experiments stand on: tensor
//! kernels, layer passes, and full-model forward/backward.
//!
//! The `parallel_kernels` group additionally times the kernels at
//! 1 thread vs. `auto` across several sizes (plus the pre-blocked `ikj`
//! reference kernel, for machine-speed normalisation), and the two model
//! passes the reproduction runs most — a smoke-model training step and a
//! batch-64 eval forward, where per-call overhead is not diluted by big
//! shapes — and writes best-of-N timings to `BENCH_kernels.json` at the
//! repo root for the `kernel_gate` bin (check.sh's kernels stage) to
//! compare against the committed `BENCH_baseline.json`. The report names
//! the kernel instances that ran (`"isa"`: `"avx2"` or `"baseline"`).
//!
//! Modes:
//! * default — full run: criterion display benches + 31-round timings.
//! * `AUTOMC_BENCH_QUICK=1` — skip the display benches, 15-round
//!   timings only (check.sh's regression gate).
//! * `--test` (cargo test) — every closure runs once as a smoke test.

use automc_json::{obj, ToJson};
use automc_models::{resnet, ConvNet};
use automc_tensor::nn::{Conv2d, Layer};
use automc_tensor::optim::{Optimizer, Sgd, SgdConfig};
use automc_tensor::par::{current_threads, with_threads};
use automc_tensor::{isa, loss, matmul, rng_from_seed, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Quick mode: medians only, few iterations (the check.sh kernels stage).
fn quick_mode() -> bool {
    std::env::var("AUTOMC_BENCH_QUICK").map_or(false, |v| v != "0" && !v.is_empty())
}

fn bench_matmul(c: &mut Criterion) {
    if quick_mode() {
        return;
    }
    let mut rng = rng_from_seed(1);
    let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let b = Tensor::randn(&[64, 64], 1.0, &mut rng);
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
    });
}

fn bench_conv_forward_backward(c: &mut Criterion) {
    if quick_mode() {
        return;
    }
    let mut rng = rng_from_seed(2);
    let mut conv = Conv2d::new(8, 16, 3, 3, 1, 1, false, &mut rng);
    let x = Tensor::randn(&[8, 8, 8, 8], 1.0, &mut rng);
    c.bench_function("conv3x3_8c16_fwd", |bch| {
        bch.iter(|| black_box(conv.forward(black_box(&x), true)))
    });
    let y = conv.forward(&x, true);
    let g = Tensor::ones(y.dims());
    c.bench_function("conv3x3_8c16_bwd", |bch| {
        bch.iter(|| black_box(conv.backward(black_box(&g))))
    });
}

fn bench_resnet_pass(c: &mut Criterion) {
    if quick_mode() {
        return;
    }
    let mut rng = rng_from_seed(3);
    let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    let x = Tensor::randn(&[16, 3, 8, 8], 1.0, &mut rng);
    c.bench_function("resnet20_batch16_fwd", |bch| {
        bch.iter(|| black_box(net.forward(black_box(&x), true)))
    });
    let y = net.forward(&x, true);
    let g = Tensor::ones(y.dims());
    c.bench_function("resnet20_batch16_bwd", |bch| {
        bch.iter(|| black_box(net.backward(black_box(&g))))
    });
}

fn bench_svd(c: &mut Criterion) {
    if quick_mode() {
        return;
    }
    let mut rng = rng_from_seed(4);
    let a = Tensor::randn(&[32, 72], 1.0, &mut rng);
    c.bench_function("truncated_svd_32x72_r8", |bch| {
        bch.iter(|| black_box(automc_tensor::linalg::truncated_svd(black_box(&a), 8)))
    });
}

/// Wall-clock per call of `calls` back-to-back calls of `f`, in
/// nanoseconds.
fn time_ns(calls: u32, mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    (t.elapsed().as_nanos() / u128::from(calls)) as u64
}

/// Calls per timing sample, fixed per row. A row whose call takes under
/// ~200 µs at one thread is timed as several back-to-back calls, so one
/// timer tick or preemption weighs less on a sample; the report gives the
/// time per call either way.
fn calls_per_sample(kernel: &str) -> u32 {
    match kernel {
        "matmul_48" => 16,
        "conv3x3_s3_b32_fwd" => 8,
        "conv3x3_b8_fwd" | "conv3x3_s3_b32_bwd" => 2,
        _ => 1,
    }
}

/// Square matmul sizes timed in both thread modes. 48 sits below the
/// adaptive parallel threshold (auto must equal serial), 192 and 320 sit
/// above it — together they check that `auto` never loses to serial at
/// any size.
const MATMUL_SIZES: [usize; 3] = [48, 192, 320];

/// The pre-blocked serial `ikj` kernel, kept verbatim as an in-process
/// reference. The gate compares ratios against this instead of absolute
/// nanoseconds: shared runners drift ~2x in absolute speed between runs,
/// but the packed/ikj ratio on the same matrices in the same process is
/// stable.
fn reference_ikj(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let cd = c.data_mut();
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            let b_row = &bd[p * n..(p + 1) * n];
            let c_row = &mut cd[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// One smoke-scale training step, as `train::train` runs it: train-mode
/// forward, cross-entropy, backward, SGD update.
fn train_step(net: &mut ConvNet, opt: &mut Sgd, x: &Tensor, labels: &[usize]) {
    let logits = net.forward(x, true);
    let (_, grad) = loss::softmax_cross_entropy(&logits, labels);
    net.backward(&grad);
    opt.step(&mut net.params_mut());
}

fn bench_parallel_kernels(c: &mut Criterion) {
    let mut rng = rng_from_seed(5);
    let mats: Vec<(usize, Tensor, Tensor)> = MATMUL_SIZES
        .iter()
        .map(|&s| {
            (
                s,
                Tensor::randn(&[s, s], 1.0, &mut rng),
                Tensor::randn(&[s, s], 1.0, &mut rng),
            )
        })
        .collect();
    let mut conv = Conv2d::new(8, 16, 3, 3, 1, 1, false, &mut rng);
    let x = Tensor::randn(&[8, 8, 12, 12], 1.0, &mut rng);
    let y = conv.forward(&x, true);
    let g = Tensor::ones(y.dims());
    // ResNet-20 stage 3 of the smoke model: 16→16 3×3 on 2×2 maps at the
    // training batch, where one item's 4 output columns fill half a panel.
    let mut conv_s3 = Conv2d::new(16, 16, 3, 3, 1, 1, false, &mut rng);
    let x_s3 = Tensor::randn(&[32, 16, 2, 2], 1.0, &mut rng);
    let g_s3 = Tensor::ones(conv_s3.forward(&x_s3, true).dims());
    // The smoke model (ResNet-20, width 4, 8×8 inputs) at the training
    // batch (32) and at `train::evaluate`'s eval chunk (64).
    let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    let mut opt = Sgd::new(SgdConfig::default());
    let x_train = Tensor::randn(&[32, 3, 8, 8], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let x_eval = Tensor::randn(&[64, 3, 8, 8], 1.0, &mut rng);

    if !quick_mode() {
        for (tag, threads) in [("t1", 1), ("auto", 0)] {
            let run = move |f: &mut dyn FnMut()| {
                if threads == 1 {
                    with_threads(1, || f());
                } else {
                    f();
                }
            };
            for (s, a, b) in &mats {
                c.bench_function(format!("par_matmul_{s}_{tag}"), |bch| {
                    bch.iter(|| run(&mut || drop(black_box(matmul(black_box(a), black_box(b))))))
                });
            }
            c.bench_function(format!("par_conv3x3_b8_fwd_{tag}"), |bch| {
                bch.iter(|| run(&mut || drop(black_box(conv.forward(black_box(&x), true)))))
            });
            c.bench_function(format!("par_conv3x3_b8_bwd_{tag}"), |bch| {
                bch.iter(|| run(&mut || drop(black_box(conv.backward(black_box(&g))))))
            });
            c.bench_function(format!("conv3x3_s3_b32_fwd_{tag}"), |bch| {
                bch.iter(|| run(&mut || drop(black_box(conv_s3.forward(black_box(&x_s3), true)))))
            });
            c.bench_function(format!("conv3x3_s3_b32_bwd_{tag}"), |bch| {
                bch.iter(|| run(&mut || drop(black_box(conv_s3.backward(black_box(&g_s3))))))
            });
            c.bench_function(format!("resnet20_w4_b32_train_step_{tag}"), |bch| {
                bch.iter(|| run(&mut || train_step(&mut net, &mut opt, &x_train, &labels)))
            });
            c.bench_function(format!("resnet20_w4_b64_eval_fwd_{tag}"), |bch| {
                bch.iter(|| run(&mut || drop(black_box(net.forward(black_box(&x_eval), false)))))
            });
        }
    }

    // Machine-readable timings for the kernel_gate regression check. Keep
    // the sample count tiny under `cargo test` (bench targets double as
    // smoke tests there) and small in quick mode.
    //
    // Two measurement choices defend the gate against the ~2x bursty
    // noise of shared runners: every (kernel, mode) pair is sampled once
    // per *round* (interleaved, so a noise burst degrades all pairs
    // instead of poisoning one pair's whole block), and the reported
    // statistic is the best (minimum) sample — the least-disturbed run.
    // A sample of a short row spans several back-to-back calls
    // (`calls_per_sample`); `best_ns` is per call.
    let test_mode = std::env::args().any(|arg| arg == "--test");
    let iters = if test_mode {
        3
    } else if quick_mode() {
        15
    } else {
        31
    };
    let mut samples: Vec<(String, &'static str, usize, Vec<u64>)> = Vec::new();
    // Fixed row order: ref, then per mode: matmuls, conv fwd/bwd, stage-3
    // conv fwd/bwd, model train step and eval forward.
    samples.push(("ref_ikj_192".to_string(), "ref", 1, Vec::new()));
    for (tag, threads) in [("t1", 1usize), ("auto", 0)] {
        let eff = if threads == 1 { 1 } else { current_threads() };
        for (s, _, _) in &mats {
            samples.push((format!("matmul_{s}"), tag, eff, Vec::new()));
        }
        samples.push(("conv3x3_b8_fwd".to_string(), tag, eff, Vec::new()));
        samples.push(("conv3x3_b8_bwd".to_string(), tag, eff, Vec::new()));
        samples.push(("conv3x3_s3_b32_fwd".to_string(), tag, eff, Vec::new()));
        samples.push(("conv3x3_s3_b32_bwd".to_string(), tag, eff, Vec::new()));
        samples.push(("resnet20_w4_b32_train_step".to_string(), tag, eff, Vec::new()));
        samples.push(("resnet20_w4_b64_eval_fwd".to_string(), tag, eff, Vec::new()));
    }
    let calls: Vec<u32> = samples.iter().map(|(kernel, ..)| calls_per_sample(kernel)).collect();
    for _ in 0..iters {
        let mut round: Vec<u64> = Vec::with_capacity(samples.len());
        {
            let (_, a, b) = &mats[1]; // the 192 pair
            round.push(time_ns(calls[0], || {
                drop(black_box(reference_ikj(black_box(a), black_box(b))))
            }));
        }
        for (_, threads) in [("t1", 1usize), ("auto", 0)] {
            // Time the next row (rows are pushed in slot order).
            let time = |round: &mut Vec<u64>, f: &mut dyn FnMut()| {
                let calls = calls[round.len()];
                let ns = if threads == 1 {
                    with_threads(1, || time_ns(calls, &mut *f))
                } else {
                    time_ns(calls, f)
                };
                round.push(ns);
            };
            for (_, a, b) in &mats {
                time(&mut round, &mut || drop(black_box(matmul(black_box(a), black_box(b)))));
            }
            time(&mut round, &mut || drop(black_box(conv.forward(black_box(&x), true))));
            time(&mut round, &mut || drop(black_box(conv.backward(black_box(&g)))));
            time(&mut round, &mut || drop(black_box(conv_s3.forward(black_box(&x_s3), true))));
            time(&mut round, &mut || drop(black_box(conv_s3.backward(black_box(&g_s3)))));
            time(&mut round, &mut || train_step(&mut net, &mut opt, &x_train, &labels));
            time(&mut round, &mut || drop(black_box(net.forward(black_box(&x_eval), false))));
        }
        for (slot, ns) in samples.iter_mut().zip(&round) {
            slot.3.push(*ns);
        }
    }
    let entries: Vec<_> = samples
        .iter()
        .zip(&calls)
        .map(|((kernel, mode, threads, ns), &calls)| {
            let best = ns.iter().copied().min().unwrap_or(0);
            obj(vec![
                ("kernel", kernel.as_str().to_json()),
                ("mode", (*mode).to_json()),
                ("threads", (*threads).to_json()),
                ("calls_per_sample", calls.to_json()),
                ("best_ns", best.to_json()),
            ])
        })
        .collect();
    let report = obj(vec![
        ("bench", "parallel_kernels".to_json()),
        ("iters", iters.to_json()),
        ("isa", isa::active().to_json()),
        ("results", automc_json::Value::Arr(entries)),
    ]);
    // Repo root, where the committed BENCH_baseline.json lives.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json");
    match std::fs::write(&path, report.to_string_pretty()) {
        Ok(()) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

criterion_group! {
    name = substrate;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv_forward_backward, bench_resnet_pass, bench_svd
}
criterion_group! {
    name = parallel_kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_parallel_kernels
}
criterion_main!(substrate, parallel_kernels);
