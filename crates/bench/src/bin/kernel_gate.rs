//! Kernel benchmark regression gate (check.sh's `kernels` stage).
//!
//! Times the hot tensor kernels at 1 thread and in `auto` mode across
//! several sizes (plus the pre-blocked `ikj` reference kernel, for
//! machine-speed normalisation), and the two model passes the
//! reproduction runs most — a smoke-model training step and a batch-64
//! eval forward, where per-call overhead is not diluted by big shapes —
//! then checks the per-call best times against the committed
//! `BENCH_baseline.json` at the repo root, all in this one process.
//!
//! Shared runners drift ~2x in *absolute* speed between runs, so every
//! cross-run comparison is **machine-normalised**: each kernel time is
//! divided by the time of the in-process reference kernel
//! (`ref_ikj_192`, the pre-blocked serial `ikj` matmul measured in the
//! same process on the same matrices) before being compared to the same
//! quotient from the baseline. Same-run ratios (`auto` vs `t1`, packed vs
//! reference) need no normalisation.
//!
//! The gate fails (exit 1) when:
//!
//! * a gated kernel's normalised 1-thread time regressed more than
//!   [`TOLERANCE`] over its normalised baseline, or
//! * `auto` thread mode is more than [`TOLERANCE`] slower than forcing
//!   1 thread for any benched kernel (the adaptive threshold must never
//!   make `auto` lose to serial), or
//! * pooled `matmul_192` at 1 thread is less than
//!   [`MIN_MATMUL_SPEEDUP`] faster than the pre-blocked `ikj` reference
//!   measured in the same run.
//!
//! Both reports name the kernel instances they ran (`"isa"`: `"avx2"` or
//! `"baseline"`, picked from the CPU at run time). Timings of different
//! instances are not comparable, so when the two differ the gate fails
//! with one message asking for a rebase on this host instead of checking
//! any row. A baseline recorded before the field existed ran the baseline
//! instances' code, but says nothing, so it is compared as before.
//!
//! `AUTOMC_BENCH_REBASE=1` rewrites the baseline from the current
//! measurement instead of checking (keeping the informational `pre_pr`
//! section), for use after an intentional kernel change.

use automc_json::{obj, parse, ToJson, Value};
use automc_models::{resnet, ConvNet};
use automc_tensor::nn::{Conv2d, Layer};
use automc_tensor::optim::{Optimizer, Sgd, SgdConfig};
use automc_tensor::par::{current_threads, with_threads};
use automc_tensor::{isa, loss, matmul, rng_from_seed, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Allowed normalised slowdown before the gate trips. Generous because
/// even ratios carry some noise on shared machines; genuine kernel
/// regressions (a lost vectorisation, an accidental extra pass)
/// overshoot this immediately.
const TOLERANCE: f64 = 1.15;

/// Kernels whose normalised 1-thread times are gated: the isolated
/// kernels (a 12×12 conv, and the smoke model's stage-3 conv on 2×2
/// maps), plus the smoke model's training step and batch-64 eval
/// forward, the shapes the reproduction actually runs.
const GATED: [&str; 7] = [
    "matmul_192",
    "conv3x3_b8_fwd",
    "conv3x3_b8_bwd",
    "conv3x3_s3_b32_fwd",
    "conv3x3_s3_b32_bwd",
    "resnet20_w4_b32_train_step",
    "resnet20_w4_b64_eval_fwd",
];

/// Minimum same-run speedup of pooled `matmul_192` (1 thread) over the
/// pre-blocked serial `ikj` reference kernel.
const MIN_MATMUL_SPEEDUP: f64 = 1.4;

/// The in-process reference kernel's (kernel, mode) key.
const REF_KEY: (&str, &str) = ("ref_ikj_192", "ref");

/// Interleaved rounds per pass; a row's pass result is its best round.
const ROUNDS: usize = 15;

/// Passes per gate run. Each row (the reference included) reports the
/// median of its passes' best times, so one disturbed pass neither fails
/// the gate nor sets a baseline.
const PASSES: usize = 3;

/// What a report without an `"isa"` field reads as.
const UNRECORDED: &str = "unrecorded";

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

/// Each row's median over the passes (`passes[pass][row]`).
fn median_per_row(passes: &[Vec<u64>]) -> Vec<u64> {
    let rows = passes.first().map_or(0, Vec::len);
    (0..rows)
        .map(|row| {
            let mut ns: Vec<u64> = passes.iter().map(|pass| pass[row]).collect();
            ns.sort_unstable();
            ns[ns.len() / 2]
        })
        .collect()
}

/// Time every row in [`PASSES`] passes and return the report: per row,
/// the median of the passes' best per-call times (`best_ns`).
fn measure() -> Value {
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

    // Two measurement choices defend the gate against the ~2x bursty
    // noise of shared runners: every (kernel, mode) pair is sampled once
    // per *round* (interleaved, so a noise burst degrades all pairs
    // instead of poisoning one pair's whole block), and a pass reports
    // the best (minimum) sample — the least-disturbed run. A sample of a
    // short row spans several back-to-back calls (`calls_per_sample`);
    // `best_ns` is per call.
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
    let mut passes: Vec<Vec<u64>> = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        for slot in &mut samples {
            slot.3.clear();
        }
        for _ in 0..ROUNDS {
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
        passes.push(samples.iter().map(|slot| slot.3.iter().copied().min().unwrap_or(0)).collect());
    }
    let entries: Vec<_> = samples
        .iter()
        .zip(&calls)
        .zip(median_per_row(&passes))
        .map(|(((kernel, mode, threads, _), &calls), best)| {
            obj(vec![
                ("kernel", kernel.as_str().to_json()),
                ("mode", (*mode).to_json()),
                ("threads", (*threads).to_json()),
                ("calls_per_sample", calls.to_json()),
                ("best_ns", best.to_json()),
            ])
        })
        .collect();
    obj(vec![
        ("bench", "parallel_kernels".to_json()),
        ("iters", ROUNDS.to_json()),
        ("passes", PASSES.to_json()),
        ("isa", isa::active().to_json()),
        ("results", Value::Arr(entries)),
    ])
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(kernel, mode) -> best_ns` from a report's `results` array (falling
/// back to `median_ns` for older reports, e.g. the `pre_pr` section
/// recorded before the interleaved best-of-N scheme).
fn medians(report: &Value) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    let results = report
        .get("results")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    for r in results {
        let kernel = r.get("kernel").and_then(Value::as_str);
        let mode = r.get("mode").and_then(Value::as_str);
        let ns = r
            .get("best_ns")
            .or_else(|| r.get("median_ns"))
            .and_then(Value::as_f64);
        if let (Some(kernel), Some(mode), Some(ns)) = (kernel, mode, ns) {
            out.insert((kernel.to_string(), mode.to_string()), ns);
        }
    }
    out
}

/// The kernel instances a report ran.
fn isa(report: &Value) -> &str {
    report.get("isa").and_then(Value::as_str).unwrap_or(UNRECORDED)
}

/// The reference kernel's time, if the report has a usable one.
fn reference(meds: &BTreeMap<(String, String), f64>) -> Option<f64> {
    meds.get(&(REF_KEY.0.to_string(), REF_KEY.1.to_string()))
        .copied()
        .filter(|&ns| ns > 0.0)
}

/// A kernel's 1-thread row key.
fn t1_key(kernel: &str) -> (String, String) {
    (kernel.to_string(), "t1".to_string())
}

/// The gate's verdict on `current` against `baseline`: one message per
/// failed check, empty when the gate passes.
fn check(current: &Value, baseline: &Value) -> Vec<String> {
    let (cur_isa, base_isa) = (isa(current), isa(baseline));
    if base_isa != UNRECORDED && cur_isa != base_isa {
        return vec![format!(
            "this run used the {cur_isa} kernel instances but the baseline was measured \
             with the {base_isa} ones; rebase on this host with AUTOMC_BENCH_REBASE=1 \
             cargo run --release --offline -p automc-bench --bin kernel_gate"
        )];
    }
    let (cur, base) = (medians(current), medians(baseline));
    let (Some(cur_ref), Some(base_ref)) = (reference(&cur), reference(&base)) else {
        return vec![format!(
            "{} reference measurement missing from current or baseline results",
            REF_KEY.0
        )];
    };
    let mut failures = Vec::new();

    // 1. Gated kernels must not regress vs. the committed baseline, in
    //    machine-normalised units (kernel time / reference time).
    for kernel in GATED {
        match (cur.get(&t1_key(kernel)), base.get(&t1_key(kernel))) {
            (Some(&now), Some(&was)) => {
                let ratio = (now / cur_ref) / (was / base_ref);
                if ratio > TOLERANCE {
                    failures.push(format!(
                        "{kernel} t1 regressed {ratio:.2}x (normalised) over baseline \
                         (limit {TOLERANCE})"
                    ));
                }
            }
            _ => failures.push(format!("{kernel} t1 missing from current or baseline results")),
        }
    }

    // 2. `auto` must never lose to forcing 1 thread, on any benched
    //    kernel (same-run ratio, no normalisation needed).
    for ((kernel, mode), &t1) in &cur {
        if mode != "t1" {
            continue;
        }
        let Some(&auto) = cur.get(&(kernel.clone(), "auto".to_string())) else {
            failures.push(format!("{kernel} has no auto-mode measurement"));
            continue;
        };
        let ratio = auto / t1;
        if ratio > TOLERANCE {
            failures.push(format!(
                "{kernel}: auto mode is {ratio:.2}x slower than 1 thread (limit {TOLERANCE})"
            ));
        }
    }

    // 3. The blocked/packed kernels must stay faster than the pre-blocked
    //    ikj kernel they replaced — measured live, in the same process.
    match cur.get(&t1_key("matmul_192")) {
        Some(&now) if cur_ref / now < MIN_MATMUL_SPEEDUP => failures.push(format!(
            "matmul_192 t1 speedup over the ikj reference fell to {:.2}x \
             (need >= {MIN_MATMUL_SPEEDUP})",
            cur_ref / now
        )),
        Some(_) => {}
        None => failures.push("matmul_192 t1 missing from current results".to_string()),
    }
    failures
}

/// Print the measured rows next to the baseline: machine speed,
/// normalised gated rows, `auto`/`t1` ratios, the matmul speedup, and the
/// informational speedups vs. the baseline's `pre_pr` medians (absolute,
/// so noisy — never gated).
fn print_summary(current: &Value, baseline: &Value) {
    let (cur, base) = (medians(current), medians(baseline));
    let (Some(cur_ref), Some(base_ref)) = (reference(&cur), reference(&base)) else {
        return;
    };
    println!(
        "kernel_gate: machine speed vs baseline run: {:.2}x ({} {:.0} ns now, {:.0} ns then)",
        cur_ref / base_ref,
        REF_KEY.0,
        cur_ref,
        base_ref
    );
    for kernel in GATED {
        if let (Some(&now), Some(&was)) = (cur.get(&t1_key(kernel)), base.get(&t1_key(kernel))) {
            println!(
                "kernel_gate: {kernel} t1: {now:.0} ns, normalised {:.2}x of baseline",
                (now / cur_ref) / (was / base_ref)
            );
        }
    }
    for ((kernel, mode), &t1) in &cur {
        if mode != "t1" {
            continue;
        }
        if let Some(&auto) = cur.get(&(kernel.clone(), "auto".to_string())) {
            println!("kernel_gate: {kernel} auto/t1 = {:.2}x", auto / t1);
        }
    }
    if let Some(&now) = cur.get(&t1_key("matmul_192")) {
        println!(
            "kernel_gate: matmul_192 t1 speedup vs in-run ikj reference: {:.2}x \
             (need >= {MIN_MATMUL_SPEEDUP})",
            cur_ref / now
        );
    }
    if let Some(pre) = baseline.get("pre_pr") {
        let pre = medians(pre);
        for kernel in GATED {
            if let (Some(&now), Some(&was)) = (cur.get(&t1_key(kernel)), pre.get(&t1_key(kernel))) {
                println!(
                    "kernel_gate: {kernel} t1 speedup vs pre-PR medians: {:.2}x (info)",
                    was / now
                );
            }
        }
    }
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("kernel_gate: cannot read {}: {e}", path.display());
        exit(2);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("kernel_gate: cannot parse {}: {e}", path.display());
        exit(2);
    })
}

fn main() {
    let baseline_path = repo_root().join("BENCH_baseline.json");
    let current = measure();

    if std::env::var("AUTOMC_BENCH_REBASE").map_or(false, |v| v != "0" && !v.is_empty()) {
        // Rewrite the baseline from this measurement, carrying the pre_pr
        // section forward (it records history, not the current machine).
        let pre_pr = baseline_path
            .exists()
            .then(|| load(&baseline_path))
            .and_then(|b| b.get("pre_pr").cloned());
        let mut report = current;
        if let (Value::Obj(fields), Some(p)) = (&mut report, pre_pr) {
            fields.push(("pre_pr".to_string(), p));
        }
        std::fs::write(&baseline_path, report.to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("kernel_gate: cannot write {}: {e}", baseline_path.display());
            exit(2);
        });
        println!("kernel_gate: rebased {}", baseline_path.display());
        return;
    }

    let baseline = load(&baseline_path);
    println!(
        "kernel_gate: kernel instances: {} now, {} in the baseline",
        isa(&current),
        isa(&baseline)
    );
    print_summary(&current, &baseline);
    let failures = check(&current, &baseline);
    if failures.is_empty() {
        println!("kernel_gate: all checks passed");
    } else {
        for f in &failures {
            eprintln!("kernel_gate: FAIL: {f}");
        }
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with the given instances and `(kernel, mode, best_ns)` rows.
    fn report(isa: &str, rows: &[(&str, &str, f64)]) -> Value {
        let results = rows
            .iter()
            .map(|&(kernel, mode, ns)| {
                obj(vec![
                    ("kernel", kernel.to_json()),
                    ("mode", mode.to_json()),
                    ("best_ns", ns.to_json()),
                ])
            })
            .collect();
        obj(vec![("isa", isa.to_json()), ("results", Value::Arr(results))])
    }

    /// Every gated row at 100 ns in both modes, `matmul_192` at `matmul`
    /// ns, and the reference at `reference` ns.
    fn rows(reference: f64, matmul: f64) -> Vec<(&'static str, &'static str, f64)> {
        let mut rows = vec![(REF_KEY.0, REF_KEY.1, reference)];
        for mode in ["t1", "auto"] {
            for kernel in GATED {
                rows.push((kernel, mode, if kernel == "matmul_192" { matmul } else { 100.0 }));
            }
        }
        rows
    }

    fn set(rows: &mut [(&str, &str, f64)], kernel: &str, mode: &str, ns: f64) {
        let row = rows.iter_mut().find(|r| r.0 == kernel && r.1 == mode).expect("row");
        row.2 = ns;
    }

    fn baseline() -> Value {
        report("avx2", &rows(1000.0, 400.0))
    }

    #[test]
    fn a_matching_run_passes() {
        assert_eq!(check(&baseline(), &baseline()), Vec::<String>::new());
        // A machine twice as slow reads the same once normalised.
        let slow: Vec<_> = rows(1000.0, 400.0).iter().map(|&(k, m, ns)| (k, m, 2.0 * ns)).collect();
        assert_eq!(check(&report("avx2", &slow), &baseline()), Vec::<String>::new());
    }

    #[test]
    fn an_isa_mismatch_fails_once_without_row_checks() {
        let mut current = rows(1000.0, 400.0);
        set(&mut current, "conv3x3_b8_fwd", "t1", 500.0);
        let failures = check(&report("baseline", &current), &baseline());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("baseline kernel instances"), "{failures:?}");
        assert!(failures[0].contains("rebase"), "{failures:?}");
    }

    #[test]
    fn an_unrecorded_baseline_isa_is_compared_as_before() {
        let old = report(UNRECORDED, &rows(1000.0, 400.0));
        assert_eq!(check(&report("avx2", &rows(1000.0, 400.0)), &old), Vec::<String>::new());
        let mut slow = rows(1000.0, 400.0);
        set(&mut slow, "conv3x3_b8_bwd", "t1", 120.0);
        set(&mut slow, "conv3x3_b8_bwd", "auto", 120.0);
        let failures = check(&report("baseline", &slow), &old);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("conv3x3_b8_bwd t1 regressed 1.20x"), "{failures:?}");
    }

    #[test]
    fn a_normalised_regression_fails() {
        let mut current = rows(1000.0, 400.0);
        set(&mut current, "resnet20_w4_b32_train_step", "t1", 120.0);
        set(&mut current, "resnet20_w4_b32_train_step", "auto", 120.0);
        let failures = check(&report("avx2", &current), &baseline());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("resnet20_w4_b32_train_step t1 regressed 1.20x"),
            "{failures:?}"
        );
        // Within the tolerance passes.
        set(&mut current, "resnet20_w4_b32_train_step", "t1", 114.0);
        assert_eq!(check(&report("avx2", &current), &baseline()), Vec::<String>::new());
    }

    #[test]
    fn auto_slower_than_one_thread_fails() {
        let mut current = rows(1000.0, 400.0);
        set(&mut current, "conv3x3_s3_b32_fwd", "auto", 134.0);
        let failures = check(&report("avx2", &current), &baseline());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("conv3x3_s3_b32_fwd: auto mode is 1.34x slower"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_matmul_speedup_below_the_floor_fails() {
        // Baseline and run agree (no regression), but the packed kernel
        // is only 1.25x faster than the ikj reference.
        let slow_base = report("avx2", &rows(500.0, 400.0));
        let failures = check(&report("avx2", &rows(500.0, 400.0)), &slow_base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("matmul_192 t1 speedup over the ikj reference fell to 1.25x"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_missing_row_fails() {
        let mut current = rows(1000.0, 400.0);
        current.retain(|r| r.0 != "conv3x3_s3_b32_bwd");
        let failures = check(&report("avx2", &current), &baseline());
        assert_eq!(
            failures,
            vec!["conv3x3_s3_b32_bwd t1 missing from current or baseline results".to_string()]
        );
        let mut no_auto = rows(1000.0, 400.0);
        no_auto.retain(|r| !(r.0 == "resnet20_w4_b64_eval_fwd" && r.1 == "auto"));
        let failures = check(&report("avx2", &no_auto), &baseline());
        assert_eq!(
            failures,
            vec!["resnet20_w4_b64_eval_fwd has no auto-mode measurement".to_string()]
        );
    }

    #[test]
    fn a_missing_reference_fails() {
        let mut current = rows(1000.0, 400.0);
        current.retain(|r| r.0 != REF_KEY.0);
        let failures = check(&report("avx2", &current), &baseline());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("reference measurement missing"), "{failures:?}");
    }

    #[test]
    fn one_disturbed_pass_gives_the_undisturbed_value() {
        let names = rows(1000.0, 400.0);
        let pass: Vec<u64> = names.iter().map(|r| r.2 as u64).collect();
        let slow_row = names
            .iter()
            .position(|r| r.0 == "resnet20_w4_b32_train_step" && r.1 == "t1")
            .expect("row");
        let mut disturbed = pass.clone();
        disturbed[slow_row] = disturbed[slow_row] * 13 / 10;
        let as_report = |pass: &[u64]| {
            let rows: Vec<_> =
                names.iter().zip(pass).map(|(r, &ns)| (r.0, r.1, ns as f64)).collect();
            report("avx2", &rows)
        };
        // Alone, the disturbed pass fails the gate...
        assert_eq!(check(&as_report(&disturbed), &baseline()).len(), 1);
        // ...but as one of three passes, in any position, it is outvoted.
        for at in 0..3 {
            let mut passes = vec![pass.clone(), pass.clone()];
            passes.insert(at, disturbed.clone());
            let median = median_per_row(&passes);
            assert_eq!(median, pass);
            assert_eq!(check(&as_report(&median), &baseline()), Vec::<String>::new());
        }
    }
}
