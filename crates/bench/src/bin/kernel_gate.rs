//! Kernel benchmark regression gate (check.sh's `kernels` stage).
//!
//! Reads the medians the substrate bench just wrote to
//! `BENCH_kernels.json` and compares them against the committed
//! `BENCH_baseline.json`, both at the repo root.
//!
//! Shared runners drift ~2x in *absolute* speed between runs, so every
//! cross-run comparison is **machine-normalised**: each kernel median is
//! divided by the median of the in-process reference kernel
//! (`ref_ikj_192`, the pre-blocked serial `ikj` matmul measured in the
//! same bench process on the same matrices) before being compared to the
//! same quotient from the baseline. Same-run ratios (`auto` vs `t1`,
//! packed vs reference) need no normalisation.
//!
//! The gate fails (exit 1) when:
//!
//! * a gated kernel's normalised 1-thread median regressed more than
//!   [`TOLERANCE`] over its normalised baseline, or
//! * `auto` thread mode is more than [`TOLERANCE`] slower than forcing
//!   1 thread for any benched kernel (the adaptive threshold must never
//!   make `auto` lose to serial), or
//! * pooled `matmul_192` at 1 thread is less than
//!   [`MIN_MATMUL_SPEEDUP`] faster than the pre-blocked `ikj` reference
//!   measured in the same run.
//!
//! `AUTOMC_BENCH_REBASE=1` rewrites the baseline from the current
//! results instead of checking (keeping the informational `pre_pr`
//! section), for use after an intentional kernel change.

use automc_json::{obj, parse, ToJson, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Allowed normalised slowdown before the gate trips. Generous because
/// even ratios carry some noise on shared machines; genuine kernel
/// regressions (a lost vectorisation, an accidental extra pass)
/// overshoot this immediately.
const TOLERANCE: f64 = 1.15;

/// Kernels whose normalised 1-thread medians are gated: the isolated
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

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(kernel, mode) -> best_ns` from a bench report's `results` array
/// (falling back to `median_ns` for older reports, e.g. the `pre_pr`
/// section recorded before the interleaved best-of-N scheme).
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

fn reference(meds: &BTreeMap<(String, String), f64>, what: &str) -> f64 {
    match meds.get(&(REF_KEY.0.to_string(), REF_KEY.1.to_string())) {
        Some(&ns) if ns > 0.0 => ns,
        _ => {
            eprintln!("kernel_gate: {what} has no {} reference measurement", REF_KEY.0);
            exit(2);
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
    let root = repo_root();
    let current_path = root.join("BENCH_kernels.json");
    let baseline_path = root.join("BENCH_baseline.json");

    let current = load(&current_path);
    let cur = medians(&current);

    if std::env::var("AUTOMC_BENCH_REBASE").map_or(false, |v| v != "0" && !v.is_empty()) {
        // Rewrite the baseline from the current run, carrying the pre_pr
        // section forward (it records history, not the current machine).
        let pre_pr = baseline_path
            .exists()
            .then(|| load(&baseline_path))
            .and_then(|b| b.get("pre_pr").cloned());
        let mut fields = vec![
            ("bench", "parallel_kernels".to_json()),
            (
                "iters",
                current.get("iters").cloned().unwrap_or_else(|| 0.to_json()),
            ),
            (
                "results",
                current.get("results").cloned().unwrap_or(Value::Arr(vec![])),
            ),
        ];
        if let Some(p) = pre_pr {
            fields.push(("pre_pr", p));
        }
        let report = obj(fields);
        std::fs::write(&baseline_path, report.to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("kernel_gate: cannot write {}: {e}", baseline_path.display());
            exit(2);
        });
        println!("kernel_gate: rebased {}", baseline_path.display());
        return;
    }

    let baseline = load(&baseline_path);
    let base = medians(&baseline);
    let cur_ref = reference(&cur, "current run");
    let base_ref = reference(&base, "baseline");
    println!(
        "kernel_gate: machine speed vs baseline run: {:.2}x ({} {:.0} ns now, {:.0} ns then)",
        cur_ref / base_ref,
        REF_KEY.0,
        cur_ref,
        base_ref
    );
    let mut failures = Vec::new();

    // 1. Gated kernels must not regress vs. the committed baseline, in
    //    machine-normalised units (kernel median / reference median).
    for kernel in GATED {
        let key = (kernel.to_string(), "t1".to_string());
        match (cur.get(&key), base.get(&key)) {
            (Some(&now), Some(&was)) => {
                let ratio = (now / cur_ref) / (was / base_ref);
                let verdict = if ratio > TOLERANCE { "FAIL" } else { "ok" };
                println!(
                    "kernel_gate: {kernel} t1: {now:.0} ns, normalised {ratio:.2}x of baseline \
                     [{verdict}]"
                );
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
        let verdict = if ratio > TOLERANCE { "FAIL" } else { "ok" };
        println!("kernel_gate: {kernel} auto/t1 = {ratio:.2}x [{verdict}]");
        if ratio > TOLERANCE {
            failures.push(format!(
                "{kernel}: auto mode is {ratio:.2}x slower than 1 thread (limit {TOLERANCE})"
            ));
        }
    }

    // 3. The blocked/packed kernels must stay faster than the pre-blocked
    //    ikj kernel they replaced — measured live, in the same process.
    let key = ("matmul_192".to_string(), "t1".to_string());
    if let Some(&now) = cur.get(&key) {
        let speedup = cur_ref / now;
        let verdict = if speedup < MIN_MATMUL_SPEEDUP { "FAIL" } else { "ok" };
        println!(
            "kernel_gate: matmul_192 t1 speedup vs in-run ikj reference: {speedup:.2}x \
             (need >= {MIN_MATMUL_SPEEDUP}) [{verdict}]"
        );
        if speedup < MIN_MATMUL_SPEEDUP {
            failures.push(format!(
                "matmul_192 t1 speedup over the ikj reference fell to {speedup:.2}x \
                 (need >= {MIN_MATMUL_SPEEDUP})"
            ));
        }
    } else {
        failures.push("matmul_192 t1 missing from current results".to_string());
    }

    // Informational: speedups vs. the pre-PR pooled-kernel medians
    // recorded once in the baseline (absolute, so noisy — never gated).
    if let Some(pre) = baseline.get("pre_pr") {
        let pre = medians(pre);
        for kernel in GATED {
            let key = (kernel.to_string(), "t1".to_string());
            if let (Some(&now), Some(&was)) = (cur.get(&key), pre.get(&key)) {
                println!(
                    "kernel_gate: {kernel} t1 speedup vs pre-PR medians: {:.2}x (info)",
                    was / now
                );
            }
        }
    }

    if failures.is_empty() {
        println!("kernel_gate: all checks passed");
    } else {
        for f in &failures {
            eprintln!("kernel_gate: FAIL: {f}");
        }
        exit(1);
    }
}
