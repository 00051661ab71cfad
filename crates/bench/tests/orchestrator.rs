//! End-to-end supervision tests: the distributed task queue with local
//! self-exec workers under injected worker crashes and hangs must
//! complete with stdout byte-identical to the uninterrupted
//! single-process run, and a run whose every worker is gone must degrade
//! the remaining units gracefully instead of aborting.
//!
//! Every scenario shells out to the real `table2` binary
//! (`CARGO_BIN_EXE_table2`) at a drastically shrunk smoke scale
//! (`AUTOMC_SMOKE_*` knobs). The serial reference run pays the one-time
//! corpus/embedding cost; the sharded scenarios pull those global
//! artifacts through the shared-store fallback, so each runs in seconds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Smoke-scale knobs shared by every run in this file (they feed the
/// scale fingerprint, so these results never mix with other tests').
const KNOBS: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "32"),
    ("AUTOMC_SMOKE_TEST", "16"),
    ("AUTOMC_SMOKE_EPOCHS", "1"),
    ("AUTOMC_SMOKE_BUDGET", "150"),
];

fn table2(results: &Path, shared: Option<&Path>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    cmd.arg("--smoke").args(args);
    for (k, v) in KNOBS {
        cmd.env(k, v);
    }
    cmd.env("AUTOMC_RESULTS_DIR", results);
    match shared {
        Some(dir) => {
            cmd.env("AUTOMC_SHARED_RESULTS_DIR", dir);
        }
        None => {
            cmd.env_remove("AUTOMC_SHARED_RESULTS_DIR");
        }
    }
    // Stray state from the invoking environment must not leak in.
    for k in ["AUTOMC_FAULTS", "AUTOMC_WORKER_FAULT", "AUTOMC_HEARTBEAT_FILE"] {
        cmd.env_remove(k);
    }
    cmd.output().expect("table2 binary must spawn")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-orch-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn sharded_runs_survive_faults_and_match_the_serial_run_exactly() {
    // --- Uninterrupted single-process reference -------------------------
    let serial_dir = fresh_dir("serial");
    let serial = table2(&serial_dir, None, &[]);
    let serial_out = text(&serial.stdout);
    assert!(serial.status.success(), "serial run failed:\n{}", text(&serial.stderr));
    assert!(serial_out.contains("SMOKE OK"), "{serial_out}");

    // --- Worker crash + restart, 1 worker -------------------------------
    // The only worker is killed (exit 86) after its first completed task;
    // the supervisor restarts it and the restart resumes from the
    // worker's own result store.
    let d = fresh_dir("kill-w1");
    let run = table2(&d, Some(&serial_dir), &["--workers", "1", "--faults", "kill@worker:1"]);
    let err = text(&run.stderr);
    assert!(run.status.success(), "kill/1-worker run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "1-worker run under kill@worker must be byte-identical to serial"
    );
    assert!(err.contains("injected kill"), "fault must have fired:\n{err}");
    assert_eq!(
        err.matches("retry 1/").count(),
        1,
        "exactly one restart must be logged:\n{err}"
    );

    // --- Worker crash + restart, 4 workers ------------------------------
    let d = fresh_dir("kill-w4");
    let run = table2(&d, Some(&serial_dir), &["--workers", "4", "--faults", "kill@worker:2"]);
    let err = text(&run.stderr);
    assert!(run.status.success(), "kill/4-worker run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "4-worker run under kill@worker must be byte-identical to serial"
    );
    assert!(err.contains("injected kill"), "fault must have fired:\n{err}");

    // --- Hung worker: detected by heartbeat, killed, restarted ----------
    // The fault freezes the worker's heartbeat thread and parks it holding
    // its first unit; only the supervisor's staleness deadline can reclaim
    // it, so the run cannot finish without detecting the hang. The retry
    // must be counted (and journaled) exactly once, and the retry journal
    // must be discarded once the run completes.
    let d = fresh_dir("hang");
    let run = table2(
        &d,
        Some(&serial_dir),
        &["--workers", "2", "--heartbeat-ms", "100", "--faults", "hang@worker:2"],
    );
    let err = text(&run.stderr);
    assert!(run.status.success(), "hang run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "run under hang@worker must be byte-identical to serial"
    );
    assert!(err.contains("injected hang"), "fault must have fired:\n{err}");
    assert!(err.contains("hung (no heartbeat for"), "hang must be detected:\n{err}");
    assert_eq!(
        err.matches("retry 1/").count(),
        1,
        "the hang retry must be counted exactly once:\n{err}"
    );
    assert!(!err.contains("retry 2/"), "no second retry expected:\n{err}");
    assert!(
        !d.join("orch_dist_s42.journal").exists(),
        "retry journal must be discarded after a successful run"
    );

    // --- A hung worker does not outlive a dead supervisor --------------
    // The only worker parks holding its first unit, and the supervisor is
    // killed while the (deliberately long) hang deadline is still far off,
    // so no deadline will ever reclaim the worker: it must end the hang
    // itself once orphaned, or it holds the stderr it shares with the
    // supervisor open forever. The stderr goes to a file, so a regression
    // fails here instead of blocking the test on a pipe that never closes.
    let d = fresh_dir("orphan");
    let log = d.join("stderr.log");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    cmd.args(["--smoke", "--workers", "1", "--heartbeat-ms", "10000"])
        .args(["--faults", "hang@worker:1"])
        .envs(KNOBS)
        .env("AUTOMC_RESULTS_DIR", d.join("results"))
        .env("AUTOMC_SHARED_RESULTS_DIR", &serial_dir)
        .env_remove("AUTOMC_FAULTS")
        .env_remove("AUTOMC_WORKER_FAULT")
        .env_remove("AUTOMC_HEARTBEAT_FILE")
        .stdout(std::process::Stdio::null())
        .stderr(std::fs::File::create(&log).expect("stderr log"));
    let mut supervisor = cmd.spawn().expect("table2 binary must spawn");
    let wait_for = |needle: &str, secs: u64, what: &str| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
        loop {
            let err = std::fs::read_to_string(&log).unwrap_or_default();
            if err.contains(needle) {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "{what}:\n{err}");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    };
    wait_for("injected hang", 60, "the worker must hang after its first unit");
    supervisor.kill().expect("kill the supervisor");
    supervisor.wait().expect("reap the supervisor");
    wait_for("ending the injected hang", 10, "the orphaned hung worker must exit on its own");

    // --- Dynamic queue absorbs a dead sibling ---------------------------
    // Worker 0 exhausts its restart budget immediately, but its queued
    // units simply go to worker 1: the merged table is still complete and
    // byte-identical, nothing degrades.
    let d = fresh_dir("absorbed");
    let run = table2(
        &d,
        Some(&serial_dir),
        &["--workers", "2", "--retries", "0", "--faults", "kill@worker:1"],
    );
    let out = text(&run.stdout);
    let err = text(&run.stderr);
    assert!(run.status.success(), "sibling absorption run failed:\n{err}");
    assert_eq!(
        out, serial_out,
        "a sibling must absorb the dead worker's units byte-identically"
    );
    assert!(err.contains("retry budget (0) exhausted"), "{err}");

    // --- Every worker gone: degrade, never abort ------------------------
    let d = fresh_dir("exhausted");
    let run = table2(
        &d,
        Some(&serial_dir),
        &["--workers", "1", "--retries", "0", "--faults", "kill@worker:1"],
    );
    let out = text(&run.stdout);
    let err = text(&run.stderr);
    assert!(
        run.status.success(),
        "retry exhaustion must degrade, not abort:\n{err}"
    );
    assert!(out.contains("SMOKE OK"), "degraded table must still validate:\n{out}");
    assert!(
        out.contains("(worker unavailable)"),
        "unfinished tasks must be labelled degraded:\n{out}"
    );
    assert!(err.contains("retry budget (0) exhausted"), "{err}");
    assert!(err.contains("no worker left to run unit"), "{err}");

    for name in ["serial", "kill-w1", "kill-w4", "hang", "orphan", "absorbed", "exhausted"] {
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!("automc-orch-e2e-{name}")));
    }
}
