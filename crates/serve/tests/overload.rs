//! Overload-protection e2e tests: the daemon must survive hostile and
//! unlucky clients without letting them degrade service for anyone else.
//!
//! - a client that stalls mid-frame is reaped by the socket deadline
//!   (`--io-timeout-ms`) and cannot block other clients' jobs;
//! - a full submit queue sheds new jobs with a structured `busy` frame
//!   (carrying a retry hint) instead of buffering without bound;
//! - shutdown drains gracefully: in-flight jobs are cancelled at their
//!   next round boundary, journals stay on disk, the daemon exits 0, and
//!   a restarted daemon resumes the work losing nothing;
//! - chaos schedules (`chaos@seed:n`) against a served Table 2 job
//!   terminate across daemon restarts and reproduce the fault-free
//!   reference byte-for-byte.

use automc_json::Value;
use automc_serve::client::{render_result, Client};
use automc_serve::protocol::{JobKind, JobSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tiny grid: full Table 2 in seconds.
const KNOBS_TINY: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "32"),
    ("AUTOMC_SMOKE_TEST", "16"),
    ("AUTOMC_SMOKE_EPOCHS", "1"),
    ("AUTOMC_SMOKE_BUDGET", "150"),
];

/// Heavy evaluations: each search round takes seconds, so queue and
/// drain races always land mid-run.
const KNOBS_SLOW: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "1024"),
    ("AUTOMC_SMOKE_TEST", "64"),
    ("AUTOMC_SMOKE_EPOCHS", "8"),
    ("AUTOMC_SMOKE_BUDGET", "8000"),
];

/// The drain test's Random search at seed 17: the slow knobs with a
/// budget of several rounds. Its rounds end at about 8 000, 13 700,
/// 22 400 and 31 900 units, so a cancel ordered on the first round frame
/// has three later round boundaries to land on. At 8 000 units the first
/// evaluation (8 020 units) would end the search before any drain.
const KNOBS_DRAIN: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "1024"),
    ("AUTOMC_SMOKE_TEST", "64"),
    ("AUTOMC_SMOKE_EPOCHS", "8"),
    ("AUTOMC_SMOKE_BUDGET", "24000"),
];

struct Server {
    child: Child,
    addr: String,
    log: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-serve-overload-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Start a daemon child over `dir/results`; `extra` appends raw serve
/// flags, `faults` installs an `AUTOMC_FAULTS` plan.
fn start_server(
    dir: &Path,
    tag: &str,
    knobs: &[(&str, &str)],
    extra: &[&str],
    faults: Option<&str>,
) -> Server {
    let addr_file = dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let log = dir.join(format!("server-{tag}.log"));
    let logfile = std::fs::File::create(&log).expect("log file");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_automc-serve"));
    // NB: the daemon's flag parser takes the first occurrence, so `extra`
    // must come first for per-test `--jobs` overrides to win.
    cmd.arg("serve")
        .args(extra)
        .args(["--jobs", "2", "--addr-file"])
        .arg(&addr_file)
        .env("AUTOMC_RESULTS_DIR", dir.join("results"))
        .env("AUTOMC_THREADS", "2")
        .stdout(Stdio::null())
        .stderr(logfile);
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
    Server { child, addr, log }
}

fn spec(kind: JobKind, seed: u64, fresh: bool, label: &str) -> JobSpec {
    JobSpec { scale: "smoke".into(), seed, kind, fresh, label: label.into() }
}

fn state_of(frame: &Value) -> &str {
    frame.get("state").and_then(Value::as_str).unwrap_or("?")
}

/// Submit + watch to the terminal frame.
fn run_to_done(addr: &str, spec: &JobSpec) -> Value {
    let mut client = Client::connect(addr).expect("connect");
    let (job, _) = client.submit(spec).expect("submit");
    client.watch(&job, |_| {}).expect("watch to terminal frame")
}

#[test]
fn stalled_mid_frame_client_is_reaped_and_cannot_block_others() {
    let dir = fresh_dir("stall");
    let server = start_server(
        &dir,
        "main",
        &KNOBS_TINY,
        &["--io-timeout-ms", "500"],
        None,
    );

    // A hostile client: half a frame, then silence. Pre-deadline servers
    // sat in a blocking read_until forever, holding the connection slot
    // and its partial buffer.
    let mut staller = TcpStream::connect(&server.addr).expect("staller connect");
    staller
        .write_all(br#"{"type":"status","job":"#)
        .expect("write partial frame");
    staller.flush().expect("flush");

    // Meanwhile a well-behaved client runs a full job to completion.
    let terminal = run_to_done(&server.addr, &spec(JobKind::Table2, 7, false, ""));
    assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
    render_result(&terminal).expect("job result renders");

    // The staller was reaped at the 500 ms deadline: it gets a labelled
    // error frame and EOF, and the daemon logs the reap with the
    // mid-frame classification (not "idle" — bytes were on the wire).
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    staller.read_to_string(&mut reply).expect("read reap notice + EOF");
    assert!(
        reply.contains("connection reaped") && reply.contains("stalled mid-frame"),
        "staller must be told why it was dropped, got: {reply:?}"
    );
    let log = server.log_text();
    assert!(
        log.contains("[serve] reaping connection") && log.contains("stalled mid-frame"),
        "daemon must log the reap:\n{log}"
    );
}

#[test]
fn full_queue_sheds_submits_with_a_busy_frame() {
    let dir = fresh_dir("busy");
    // One executor, one queue slot: job A runs, job B queues, job C must
    // be shed. Slow knobs keep A running for minutes of margin.
    let server = start_server(
        &dir,
        "main",
        &KNOBS_SLOW,
        &["--jobs", "1", "--queue-cap", "1"],
        None,
    );
    let algo = JobKind::Search(automc_bench::harness::Algo::Random);

    let mut client = Client::connect(&server.addr).expect("connect");
    let (job_a, _) = client.submit(&spec(algo, 21, true, "a")).expect("submit A");
    // Wait until the executor owns A, so B lands in the queue slot.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = client.status(&job_a).expect("status A");
        if state == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "job A never started (state {state})");
        std::thread::sleep(Duration::from_millis(50));
    }
    client.submit(&spec(algo, 21, true, "b")).expect("submit B fills the queue");

    let shed = client.submit(&spec(algo, 21, true, "c"));
    let err = shed.expect_err("submit C must be shed from the full queue");
    let msg = err.to_string();
    assert!(
        msg.contains("server busy") && msg.contains("queue full") && msg.contains("retry in"),
        "shed submit must surface the busy frame with its retry hint, got: {msg}"
    );
    // The shed job must not linger half-registered: the daemon forgot it.
    let mut side = Client::connect(&server.addr).expect("side connection");
    let spec_c = spec(algo, 21, true, "c");
    let gone = side.status(
        &spec_c.job_id(&automc_bench::scale::smoke()),
    );
    assert!(
        gone.is_err(),
        "a shed job must be unknown to the daemon, got state {gone:?}"
    );
    let log = server.log_text();
    assert!(
        log.contains("[serve] shedding submit: queue full"),
        "daemon must log the shed:\n{log}"
    );
}

#[test]
fn shutdown_drains_gracefully_and_a_restart_resumes_the_work() {
    let dir = fresh_dir("drain");
    let algo = JobKind::Search(automc_bench::harness::Algo::Random);
    let job_spec = spec(algo, 17, true, "");

    let mut server = start_server(&dir, "one", &KNOBS_DRAIN, &[], None);
    let mut client = Client::connect(&server.addr).expect("connect");
    let (job, _) = client.submit(&job_spec).expect("submit");
    // Order the shutdown as soon as the first round frame proves the job
    // is mid-run; the watcher must still get a clean terminal frame.
    let mut shutdown_sent = false;
    let terminal = client
        .watch(&job, |frame| {
            if frame.get("type").and_then(Value::as_str) == Some("round") && !shutdown_sent {
                let mut side = Client::connect(&server.addr).expect("side connection");
                side.shutdown().expect("shutdown request");
                shutdown_sent = true;
            }
        })
        .expect("watch to terminal frame");
    assert!(shutdown_sent, "job must have streamed at least one round");
    assert_ne!(
        state_of(&terminal),
        "done",
        "the job finished before the drain reached a later round boundary, so \
         this test proved nothing: give KNOBS_DRAIN a budget with more rounds \
         after the first: {terminal:?}"
    );
    assert_eq!(
        state_of(&terminal),
        "cancelled",
        "drain must cancel in-flight jobs at a round boundary: {terminal:?}"
    );

    // The daemon itself must exit cleanly (status 0), having logged the
    // drain — not be killed by the test harness.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon never exited after drain");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "drained daemon must exit 0, got {status:?}");
    let log = server.log_text();
    assert!(
        log.contains("[serve] draining:") && log.contains("[serve] drained:"),
        "daemon must log the drain:\n{log}"
    );

    // The cancelled job's journal survived the drain…
    let journal_dir = dir.join("results").join("jobs").join(&job);
    assert!(
        std::fs::read_dir(&journal_dir).map(|d| d.count()).unwrap_or(0) > 0,
        "drained job must leave its journal in {journal_dir:?}"
    );

    // …so a restarted daemon resumes it and matches an uninterrupted run.
    let server2 = start_server(&dir, "two", &KNOBS_DRAIN, &[], None);
    let resumed = run_to_done(&server2.addr, &job_spec);
    assert_eq!(state_of(&resumed), "done", "terminal: {resumed:?}");
    let log2 = server2.log_text();
    assert!(
        log2.contains("[journal] resumed"),
        "restarted daemon must resume the drained job's journal:\n{log2}"
    );
    let reference = run_to_done(&server2.addr, &spec(algo, 17, true, "reference"));
    assert_eq!(
        render_result(&resumed).expect("resumed summary"),
        render_result(&reference).expect("reference summary"),
        "drain + resume must not change the search result"
    );
}

#[test]
fn chaos_schedules_against_the_daemon_terminate_and_match() {
    // Fault-free reference daemon; each chaos daemon starts from a copy of
    // its corpus and embeddings, so it skips the one-time corpus cost.
    let ref_dir = fresh_dir("chaos-ref");
    let job_spec = spec(JobKind::Table2, 11, false, "");
    let reference = {
        let server = start_server(&ref_dir, "ref", &KNOBS_TINY, &[], None);
        let terminal = run_to_done(&server.addr, &job_spec);
        assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
        render_result(&terminal).expect("reference tables")
    };
    let warm = ref_dir.join("results");

    // Seed 1: cache corruption only — recovers in-process, one attempt.
    // Seed 24: an eval-site exit kills the daemon mid-job (code 87); the
    // restarted daemon must resume the journal and finish the schedule.
    for seed in [1u64, 24] {
        let dir = fresh_dir(&format!("chaos-{seed}"));
        std::fs::create_dir_all(dir.join("results")).expect("results dir");
        for entry in ["corpus_full_s11.json", "emb_full_s11_kg1_exp1.json"] {
            std::fs::copy(warm.join(entry), dir.join("results").join(entry))
                .expect("copy a knowledge entry");
        }
        let faults = format!("chaos@{seed}:3");
        let deadline = Instant::now() + Duration::from_secs(300);
        let mut rendered = None;
        let mut expansion_logged = false;
        for attempt in 1..=5 {
            let mut server = start_server(
                &dir,
                &format!("a{attempt}"),
                &KNOBS_TINY,
                &[],
                Some(&faults),
            );
            let outcome = std::panic::catch_unwind(|| run_to_done(&server.addr, &job_spec));
            expansion_logged |= server.log_text().contains("expands to");
            match outcome {
                Ok(terminal) => {
                    assert_eq!(state_of(&terminal), "done", "terminal: {terminal:?}");
                    rendered = Some(render_result(&terminal).expect("chaos tables"));
                    break;
                }
                Err(_) => {
                    // The daemon died mid-job: it must be the injected
                    // exit, and the next attempt resumes the journals.
                    let status = server.child.wait().expect("daemon exit status");
                    assert_eq!(
                        status.code(),
                        Some(87),
                        "chaos@{seed}:3 daemon died for the wrong reason: {status:?}"
                    );
                }
            }
            assert!(
                Instant::now() < deadline,
                "chaos@{seed}:3 blew the soak deadline after {attempt} attempt(s)"
            );
        }
        let rendered = rendered
            .unwrap_or_else(|| panic!("chaos@{seed}:3 never finished within 5 attempts"));
        assert_eq!(
            rendered, reference,
            "served chaos@{seed}:3 must reproduce the fault-free tables"
        );
        assert!(expansion_logged, "chaos@{seed}:3 must log its expansion");
    }
}
