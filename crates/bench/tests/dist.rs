//! Distributed execution tests: supervisors accepting *remote* workers
//! over TCP (`--listen` / `--connect`) must merge streamed results
//! byte-identically to the in-process run — at 1, 2, and 4 workers, and
//! under injected worker kills, hangs, and connection drops — and a
//! supervisor killed mid-merge must replay the journaled units on
//! restart instead of re-running them.
//!
//! Every scenario shells out to the real `table2` / `table3` binaries at
//! the shrunk smoke scale (`AUTOMC_SMOKE_*` knobs). The serial reference
//! runs pay the one-time corpus/embedding cost; every distributed run
//! starts from a copy of those two knowledge entries. Remote workers
//! share the supervisor's results directory, as on one host or a shared
//! mount, except in the table3 scenario, where each has its own.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Smoke-scale knobs shared by every run in this file.
const KNOBS: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "32"),
    ("AUTOMC_SMOKE_TEST", "16"),
    ("AUTOMC_SMOKE_EPOCHS", "1"),
    ("AUTOMC_SMOKE_BUDGET", "150"),
];

fn base_cmd(bin: &str, results: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("--smoke").arg("--seed").arg("11");
    for (k, v) in KNOBS {
        cmd.env(k, v);
    }
    cmd.env("AUTOMC_RESULTS_DIR", results);
    // Stray state from the invoking environment must not leak in.
    for k in ["AUTOMC_FAULTS", "AUTOMC_WORKER_FAULT"] {
        cmd.env_remove(k);
    }
    cmd
}

/// Copy the experience corpus and embeddings of the serial run in
/// `from` into `results`, so a run there starts warm instead of
/// re-deriving them.
fn copy_knowledge(from: &Path, results: &Path) {
    std::fs::create_dir_all(results).expect("results dir");
    for name in ["corpus_full_s11.json", "emb_full_s11_kg1_exp1.json"] {
        std::fs::copy(from.join(name), results.join(name)).expect("copy a knowledge entry");
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-dist-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Wait for the supervisor to publish its bound address.
fn wait_addr(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(addr_file) {
            if !addr.trim().is_empty() {
                return addr.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "supervisor never wrote {addr_file:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Where the remote workers of [`run_remote`] keep their results.
#[derive(Clone, Copy)]
enum Stores {
    /// The supervisor's directory: workers on its host or a shared mount.
    Shared,
    /// One directory per worker, each warmed like the supervisor's.
    Own,
}

/// Run one listen-only supervisor plus `worker_faults.len()` remote
/// workers (each entry an optional `AUTOMC_WORKER_FAULT` directive for
/// that worker), every store warmed from the serial run's store `warm`.
/// Returns the supervisor's output; worker processes are killed and
/// reaped before returning (an injected kill/hang makes a worker's own
/// exit deliberately abnormal).
fn run_remote(
    bin: &str,
    dir: &Path,
    warm: &Path,
    stores: Stores,
    worker_faults: &[Option<&str>],
    sup_args: &[&str],
) -> Output {
    let addr_file = dir.join("task-server.addr");
    copy_knowledge(warm, &dir.join("sup"));
    let sup = base_cmd(bin, &dir.join("sup"))
        .args(["--listen", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file)
        .args(sup_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("supervisor must spawn");
    let addr = wait_addr(&addr_file);
    let mut workers: Vec<Child> = worker_faults
        .iter()
        .enumerate()
        .map(|(i, fault)| {
            let results = match stores {
                Stores::Shared => dir.join("sup"),
                Stores::Own => {
                    let own = dir.join(format!("w{i}"));
                    copy_knowledge(warm, &own);
                    own
                }
            };
            let mut cmd = base_cmd(bin, &results);
            cmd.args(["--connect", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if let Some(f) = fault {
                cmd.env("AUTOMC_WORKER_FAULT", f);
            }
            cmd.spawn().expect("worker must spawn")
        })
        .collect();
    let out = sup.wait_with_output().expect("supervisor must finish");
    for w in &mut workers {
        // A hung worker is parked and never sees the shutdown frame; a
        // killed one is already gone. Reap them all unconditionally.
        let _ = w.kill();
        let _ = w.wait();
    }
    out
}

#[test]
fn remote_workers_merge_byte_identically_under_faults() {
    let t2 = env!("CARGO_BIN_EXE_table2");

    // --- Uninterrupted single-process reference -------------------------
    let serial_dir = fresh_dir("serial");
    let serial = base_cmd(t2, &serial_dir).output().expect("serial run");
    let serial_out = text(&serial.stdout);
    assert!(serial.status.success(), "serial run failed:\n{}", text(&serial.stderr));
    assert!(serial_out.contains("SMOKE OK"), "{serial_out}");

    // --- 1 remote worker, clean -----------------------------------------
    let d = fresh_dir("w1");
    let run = run_remote(t2, &d, &serial_dir, Stores::Shared, &[None], &[]);
    assert!(run.status.success(), "1-worker run failed:\n{}", text(&run.stderr));
    assert_eq!(text(&run.stdout), serial_out, "1 remote worker must merge byte-identically");

    // --- 2 remote workers, one killed mid-run ---------------------------
    // The killed worker's in-flight unit is re-enqueued and its sibling
    // absorbs the rest of the queue.
    let d = fresh_dir("w2-kill");
    let run = run_remote(t2, &d, &serial_dir, Stores::Shared, &[Some("kill"), None], &[]);
    let err = text(&run.stderr);
    assert!(run.status.success(), "2-worker kill run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "2 remote workers under a kill must merge byte-identically"
    );
    assert!(err.contains("disconnected"), "the kill must be observed:\n{err}");

    // --- 4 remote workers, one hung mid-run -----------------------------
    // Heartbeat staleness detects the hang; the parked worker's unit is
    // re-enqueued. The supervisor's deadline is 8 × 188 ms ≈ 1.5 s.
    let d = fresh_dir("w4-hang");
    let run = run_remote(
        t2,
        &d,
        &serial_dir,
        Stores::Shared,
        &[None, Some("hang"), None, None],
        &["--heartbeat-ms", "188"],
    );
    let err = text(&run.stderr);
    assert!(run.status.success(), "4-worker hang run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "4 remote workers under a hang must merge byte-identically"
    );
    assert!(err.contains("hung (no heartbeat for"), "hang must be detected:\n{err}");

    // --- 2 remote workers, injected connection drop ---------------------
    // The task frame is written, then the connection is severed: the unit
    // is immediately re-enqueued; the dropped worker reconnects. Both
    // workers share the supervisor's directory, so the re-delivered unit
    // may be stored there by two processes at once.
    let d = fresh_dir("w2-drop");
    let run = run_remote(
        t2,
        &d,
        &serial_dir,
        Stores::Shared,
        &[None, None],
        &["--faults", "drop@net:2"],
    );
    let err = text(&run.stderr);
    assert!(run.status.success(), "2-worker drop run failed:\n{err}");
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "a dropped connection must not change the merged bytes"
    );
    assert!(err.contains("injecting connection drop"), "drop must fire:\n{err}");

    for name in ["serial", "w1", "w2-kill", "w4-hang", "w2-drop"] {
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!("automc-dist-e2e-{name}")));
    }
}

#[test]
fn table3_remote_workers_match_serial_and_supervisor_restart_replays() {
    let t2 = env!("CARGO_BIN_EXE_table2");
    let t3 = env!("CARGO_BIN_EXE_table3");

    // --- table3 serial reference ----------------------------------------
    let serial_dir = fresh_dir("t3-serial");
    let serial = base_cmd(t3, &serial_dir).output().expect("serial table3");
    let serial_out = text(&serial.stdout);
    assert!(serial.status.success(), "serial table3 failed:\n{}", text(&serial.stderr));
    assert!(serial_out.contains("SMOKE OK"), "{serial_out}");

    // --- table3, 2 remote workers ---------------------------------------
    // Searches and transfer targets both travel the task queue (the
    // searched schemes ride inside the table3 task params). Each worker
    // has a directory of its own, as on another host.
    let d = fresh_dir("t3-w2");
    let run = run_remote(t3, &d, &serial_dir, Stores::Own, &[None, None], &[]);
    assert!(run.status.success(), "table3 remote run failed:\n{}", text(&run.stderr));
    assert_eq!(
        text(&run.stdout),
        serial_out,
        "table3 over 2 remote workers must merge byte-identically"
    );

    // --- Supervisor killed mid-merge, restart replays the journal -------
    // `exit@dist:3` kills the supervisor at its third merge-frontier
    // advance (exit 87); completed units are already journaled in its
    // store, so the restart replays them and finishes byte-identically
    // to an uninterrupted table2 run.
    let t2_serial_dir = fresh_dir("t2-serial");
    let t2_serial = base_cmd(t2, &t2_serial_dir).output().expect("serial table2");
    let t2_serial_out = text(&t2_serial.stdout);
    assert!(t2_serial.status.success(), "{}", text(&t2_serial.stderr));

    let d = fresh_dir("restart");
    copy_knowledge(&t2_serial_dir, &d);
    let first = base_cmd(t2, &d)
        .args(["--workers", "2", "--faults", "exit@dist:3"])
        .output()
        .expect("first supervisor run");
    assert_eq!(
        first.status.code(),
        Some(87),
        "the injected supervisor exit must fire:\n{}",
        text(&first.stderr)
    );
    let second = base_cmd(t2, &d)
        .args(["--workers", "2"])
        .output()
        .expect("second supervisor run");
    let err = text(&second.stderr);
    assert!(second.status.success(), "restarted supervisor failed:\n{err}");
    assert!(
        err.contains("replayed") && err.contains("from the merge journal"),
        "the restart must replay journaled units:\n{err}"
    );
    assert_eq!(
        text(&second.stdout),
        t2_serial_out,
        "the replayed merge must be byte-identical to serial"
    );

    for name in ["t3-serial", "t3-w2", "t2-serial", "restart"] {
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!("automc-dist-e2e-{name}")));
    }
}
