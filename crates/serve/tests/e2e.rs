//! End-to-end daemon tests: every scenario starts a real `automc-serve`
//! child process (`CARGO_BIN_EXE_automc-serve`) at a shrunk smoke scale
//! and talks to it through the client library.
//!
//! Covered here (and required by the acceptance criteria):
//! - two concurrent clients submitting the same job share one
//!   computation and read byte-identical results, and a fresh re-run of
//!   the same work on the warm daemon reports a memo hit-rate > 0 in its
//!   streamed round frames;
//! - cooperative cancellation stops at a round boundary, leaves the
//!   round journal on disk, and a resubmitted identical spec resumes
//!   from the cancelled round instead of restarting;
//! - a daemon killed mid-job by an injected fault (`exit@eval`) loses no
//!   work: a restarted daemon given the same submission resumes from the
//!   journal, and the result matches an uninterrupted run exactly.

use automc_json::Value;
use automc_serve::client::{render_result, Client};
use automc_serve::protocol::{JobKind, JobSpec};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tiny grid for the full-Table-2 concurrency test (seconds per run).
const KNOBS_TINY: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "32"),
    ("AUTOMC_SMOKE_TEST", "16"),
    ("AUTOMC_SMOKE_EPOCHS", "1"),
    ("AUTOMC_SMOKE_BUDGET", "150"),
];

/// Heavier evaluations for the cancel test: each search round takes
/// seconds, so a cancel issued after the first round frame always lands
/// before the search finishes.
const KNOBS_SLOW: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "1024"),
    ("AUTOMC_SMOKE_TEST", "64"),
    ("AUTOMC_SMOKE_EPOCHS", "8"),
    ("AUTOMC_SMOKE_BUDGET", "8000"),
];

/// Mid-weight knobs for the crash test: enough budget that the search
/// always reaches its third evaluation (where the exit fault fires).
const KNOBS_MID: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "256"),
    ("AUTOMC_SMOKE_TEST", "32"),
    ("AUTOMC_SMOKE_EPOCHS", "2"),
    ("AUTOMC_SMOKE_BUDGET", "6000"),
];

struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-serve-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Start a daemon child over `dir/results`, wait for its address file.
/// `tag` names the daemon's stderr log (`dir/server-<tag>.log`).
fn start_server(dir: &Path, tag: &str, knobs: &[(&str, &str)], faults: Option<&str>) -> Server {
    let addr_file = dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let log = std::fs::File::create(dir.join(format!("server-{tag}.log"))).expect("log file");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_automc-serve"));
    cmd.args(["serve", "--jobs", "2", "--addr-file"])
        .arg(&addr_file)
        .env("AUTOMC_RESULTS_DIR", dir.join("results"))
        .env("AUTOMC_THREADS", "2")
        .stdout(Stdio::null())
        .stderr(log);
    // Stray state from the invoking environment must not leak in.
    cmd.env_remove("AUTOMC_FAULTS");
    for (k, v) in knobs {
        cmd.env(k, v);
    }
    if let Some(spec) = faults {
        cmd.env("AUTOMC_FAULTS", spec);
    }
    let child = cmd.spawn().expect("serve binary must spawn");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if !text.trim().is_empty() {
                break text.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address file");
        std::thread::sleep(Duration::from_millis(50));
    };
    Server { child, addr }
}

fn spec(kind: JobKind, seed: u64, fresh: bool, label: &str) -> JobSpec {
    JobSpec { scale: "smoke".into(), seed, kind, fresh, label: label.into() }
}

/// Submit + watch to completion; returns (job id, round frames, terminal).
fn run_to_done(addr: &str, spec: &JobSpec) -> (String, Vec<Value>, Value) {
    let mut client = Client::connect(addr).expect("connect");
    let (job, _dedup) = client.submit(spec).expect("submit");
    let mut rounds = Vec::new();
    let terminal = client
        .watch(&job, |frame| {
            if frame.get("type").and_then(Value::as_str) == Some("round") {
                rounds.push(frame.clone());
            }
        })
        .expect("watch to terminal frame");
    (job, rounds, terminal)
}

fn state_of(frame: &Value) -> &str {
    frame.get("state").and_then(Value::as_str).unwrap_or("?")
}

fn round_no(frame: &Value) -> u64 {
    frame.get("round").and_then(Value::as_f64).unwrap_or(0.0) as u64
}

#[test]
fn concurrent_clients_share_one_computation_and_rerun_hits_the_memo() {
    let dir = fresh_dir("concurrent");
    let server = start_server(&dir, "main", &KNOBS_TINY, None);

    // Two clients race to submit the identical Table 2 job; the registry
    // must run it once and both must stream to the same terminal result.
    let table2 = spec(JobKind::Table2, 9, false, "");
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| run_to_done(&server.addr, &table2));
        let tb = scope.spawn(|| run_to_done(&server.addr, &table2));
        (ta.join().expect("client A"), tb.join().expect("client B"))
    });
    assert_eq!(a.0, b.0, "identical specs must map to one job id");
    assert_eq!(state_of(&a.2), "done", "terminal: {:?}", a.2);
    let rendered_a = render_result(&a.2).expect("client A table");
    let rendered_b = render_result(&b.2).expect("client B table");
    assert_eq!(rendered_a, rendered_b, "concurrent clients must read identical bytes");

    // A fresh re-run (cache bypassed, distinct label → distinct job)
    // recomputes on the warm daemon: byte-identical output again, and the
    // streamed round frames must show prefix-memo hits from the shared
    // store — the second client gets the first client's warm state.
    let (job2, rounds, terminal) = run_to_done(&server.addr, &spec(JobKind::Table2, 9, true, "rerun"));
    assert_ne!(job2, a.0, "label must separate job identities");
    assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
    let rendered_rerun = render_result(&terminal).expect("rerun table");
    assert_eq!(
        rendered_rerun, rendered_a,
        "a fresh recompute must be byte-identical to the cached run"
    );
    assert!(!rounds.is_empty(), "table2 searches must stream round frames");
    let memo_hits: f64 = rounds
        .iter()
        .filter_map(|r| r.get("memo_prefix_hits").and_then(Value::as_f64))
        .sum();
    assert!(
        memo_hits > 0.0,
        "re-run on a warm daemon must report prefix-memo hits, rounds: {rounds:?}"
    );
}

/// The daemon's stderr must record a journal resume — the proof that a
/// resubmitted job continued from disk instead of restarting.
fn assert_resumed(dir: &Path, tag: &str) {
    let path = dir.join(format!("server-{tag}.log"));
    let log = std::fs::read_to_string(&path).expect("server log");
    assert!(
        log.contains("[journal] resumed"),
        "daemon log {path:?} must record a journal resume:\n{log}"
    );
}

#[test]
fn cancel_stops_at_a_round_boundary_and_resubmit_resumes_the_journal() {
    let dir = fresh_dir("cancel");
    let server = start_server(&dir, "main", &KNOBS_SLOW, None);
    // Random search: exactly one evaluation per round, so rounds are
    // frequent and the cancel lands well inside the run.
    let job_spec = spec(JobKind::Search(automc_bench::harness::Algo::Random), 11, true, "");

    // Submit, then cancel from a second connection as soon as the first
    // round frame arrives; the slow knobs give each round seconds of
    // margin, so the cancel lands at a mid-run round boundary.
    let mut client = Client::connect(&server.addr).expect("connect");
    let (job, _) = client.submit(&job_spec).expect("submit");
    let mut cancelled_after = None;
    let terminal = client
        .watch(&job, |frame| {
            if frame.get("type").and_then(Value::as_str) == Some("round")
                && cancelled_after.is_none()
            {
                let mut side = Client::connect(&server.addr).expect("second connection");
                side.cancel(&job).expect("cancel");
                cancelled_after = Some(round_no(frame));
            }
        })
        .expect("watch");
    let cancelled_after = cancelled_after.expect("must have seen a round frame");
    assert_eq!(state_of(&terminal), "cancelled", "terminal: {terminal:?}");

    // The round journal must survive cancellation (that is the contract
    // that makes cancel cheap to undo).
    let journal_dir = dir.join("results").join("jobs").join(&job);
    let journal_files = std::fs::read_dir(&journal_dir)
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(
        journal_files > 0,
        "cancelled job must leave its journal in {journal_dir:?}"
    );

    // Resubmitting the identical spec must resume the journal, not
    // restart: the daemon logs the resume, and any round frame the
    // resumed run streams continues past the cancelled round.
    let (job2, rounds, terminal) = run_to_done(&server.addr, &job_spec);
    assert_eq!(job2, job, "identical spec must key the same job/journals");
    assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
    assert_resumed(&dir, "main");
    if let Some(first_resumed) = rounds.first().map(round_no) {
        assert!(
            first_resumed > cancelled_after,
            "resume must continue after round {cancelled_after}, got {first_resumed}"
        );
    }

    // …and the resumed result must match an uninterrupted run bit for bit.
    let (_, _, reference) = run_to_done(&server.addr, &spec(
        JobKind::Search(automc_bench::harness::Algo::Random), 11, true, "reference",
    ));
    assert_eq!(
        render_result(&terminal).expect("resumed summary"),
        render_result(&reference).expect("reference summary"),
        "cancel + resume must not change the search result"
    );
}

#[test]
fn killed_daemon_resumes_the_job_after_restart() {
    let dir = fresh_dir("crash");
    // Random search again: one evaluation per round makes the fault
    // ordinal deterministic — evaluations 1 and 2 complete (journaling
    // rounds 1 and 2), the third one kills the daemon.
    let job_spec = spec(JobKind::Search(automc_bench::harness::Algo::Random), 13, true, "");

    let mut server = start_server(&dir, "one", &KNOBS_MID, Some("exit@eval:3"));
    let mut client = Client::connect(&server.addr).expect("connect");
    let (job, _) = client.submit(&job_spec).expect("submit");
    let mut rounds_before_crash = 0u64;
    let watch_result = client.watch(&job, |frame| {
        if frame.get("type").and_then(Value::as_str) == Some("round") {
            rounds_before_crash += 1;
        }
    });
    assert!(
        watch_result.is_err(),
        "watch must fail when the daemon dies mid-job, got {watch_result:?}"
    );
    assert!(
        rounds_before_crash >= 1,
        "round 1 must have been journaled (and streamed) before the crash"
    );
    let status = server.child.wait().expect("daemon #1 exit status");
    assert_eq!(status.code(), Some(87), "injected exit fault must have fired");

    // Daemon #2 over the same results dir, no faults: resubmitting the
    // identical spec resumes the journal instead of restarting.
    let server2 = start_server(&dir, "two", &KNOBS_MID, None);
    let (job2, rounds, terminal) = run_to_done(&server2.addr, &job_spec);
    assert_eq!(job2, job, "same spec must key the same job across restarts");
    assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
    assert_resumed(&dir, "two");
    let first_resumed = rounds.first().map(round_no).expect("resumed rounds");
    assert!(
        first_resumed > 1,
        "restarted daemon must resume past round 1, got round {first_resumed}"
    );

    // The recovered result must match an uninterrupted run bit for bit.
    let (_, _, reference) = run_to_done(&server2.addr, &spec(
        JobKind::Search(automc_bench::harness::Algo::Random), 13, true, "reference",
    ));
    assert_eq!(
        render_result(&terminal).expect("recovered summary"),
        render_result(&reference).expect("reference summary"),
        "crash + resume must not change the search result"
    );
}
