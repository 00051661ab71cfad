//! Distributed execution over TCP: a supervisor-side task server with a
//! dynamic pull queue, and the worker loop that connects to it.
//!
//! The wire reuses the strict newline-delimited `automc-json` framing
//! from [`automc_json::wire`] (the same layer `automc-serve` speaks): one
//! JSON object per line, non-finite numbers are serialisation errors,
//! `null`-as-number is a malformed frame.
//!
//! Protocol (worker → supervisor / supervisor → worker):
//!
//! | frame | fields | direction |
//! |-------|--------|-----------|
//! | `hello` | `pid`, `slot` (local slot index or `null`) | w → s |
//! | `welcome` | `worker` (display id) | s → w |
//! | `pull` | — | w → s |
//! | `task` | `experiment`, `scale`, `seed`, `unit`, `fresh`, `fingerprint`, `params` | s → w |
//! | `idle` | `ms` (poll again after this long) | s → w |
//! | `beat` | `hb` (a [`Heartbeat`] record) | w → s |
//! | `result` | `experiment`, `scale`, `unit`, `payload` *or* `error` | w → s |
//! | `shutdown` | — | s → w |
//!
//! Workers **pull**: the supervisor never guesses which worker should own
//! a unit — whoever asks next gets the head of the queue
//! ([`SchedPolicy::Dynamic`], the default), so a straggler delays only
//! the single unit it holds. [`SchedPolicy::Static`] reproduces the old
//! `task_owner(i) = i % workers` round-robin over the same transport, for
//! the `dist_throughput` bench's head-to-head.
//!
//! The supervisor merges `result` payloads incrementally in fixed unit
//! order (byte-identical to the serial run) and journals each completed
//! unit in its own store, so a supervisor restart replays the merge
//! losslessly. Connection-level faults are first-class: `drop@net:n`
//! severs the connection right after the n-th task assignment, the lost
//! unit is re-enqueued to any live worker, and the dropped worker
//! reconnects with backoff.

use crate::cache;
use crate::harness::{self, run_fingerprint, unit_key};
use crate::orchestrator::{self, OrchJournal, WORKER_KILL_EXIT};
use crate::scale::ExperimentScale;
use crate::BenchArgs;
use automc_core::journal::{self, Heartbeat};
use automc_json::wire::{is_timeout, write_frame, FrameReader};
use automc_json::{field, obj, ToJson, Value};
use automc_tensor::fault::{self, FaultKind};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Base of the exponential restart/reconnect backoff (doubles per retry).
const BACKOFF_BASE_MS: u64 = 200;

/// Cap on a single backoff pause.
const BACKOFF_CAP_MS: u64 = 5_000;

/// Supervisor poll interval.
const POLL_MS: u64 = 25;

/// How long a worker sleeps when the queue is empty before pulling again.
const IDLE_MS: u64 = 60;

/// Listen-only supervisors (no local workers to restart) degrade the
/// remaining units only after this long with no live connection at all,
/// so a briefly-partitioned remote fleet gets to reconnect but a CI run
/// whose workers all died still terminates.
const STALL_GRACE_MS: u64 = 30_000;

/// Consecutive failed connection attempts before a worker gives up.
const MAX_CONNECT_FAILURES: u32 = 5;

/// How the supervisor hands out queued units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Whoever pulls next gets the head of the queue (the default).
    #[default]
    Dynamic,
    /// Round-robin by unit position, like the old `task_owner` sharding:
    /// a worker only receives units whose position ≡ its id (mod worker
    /// count). Kept for the scheduling head-to-head in `dist_throughput`.
    Static,
}

impl SchedPolicy {
    /// Parse a `--sched` value.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "dynamic" => Some(SchedPolicy::Dynamic),
            "static" => Some(SchedPolicy::Static),
            _ => None,
        }
    }

    /// Flag-value name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Dynamic => "dynamic",
            SchedPolicy::Static => "static",
        }
    }
}

/// Whether the flags ask for the distributed layer: local self-exec
/// workers (`--workers N`), an exposed listener (`--listen`), or both.
pub fn dist_mode(args: &BenchArgs) -> bool {
    args.workers > 0 || args.listen.is_some()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ------------------------------------------------------------------------
// Frames
// ------------------------------------------------------------------------

fn f_hello(pid: u64, slot: Option<usize>) -> Value {
    obj(vec![
        ("type", "hello".to_json()),
        ("pid", pid.to_json()),
        ("slot", slot.map_or(Value::Null, |s| (s as u64).to_json())),
    ])
}

fn f_welcome(worker: u64) -> Value {
    obj(vec![("type", "welcome".to_json()), ("worker", worker.to_json())])
}

fn f_pull() -> Value {
    obj(vec![("type", "pull".to_json())])
}

fn f_beat(hb: &Heartbeat) -> Value {
    obj(vec![("type", "beat".to_json()), ("hb", hb.to_json())])
}

fn f_idle(ms: u64) -> Value {
    obj(vec![("type", "idle".to_json()), ("ms", ms.to_json())])
}

fn f_shutdown() -> Value {
    obj(vec![("type", "shutdown".to_json())])
}

#[allow(clippy::too_many_arguments)]
fn f_task(
    experiment: &str,
    scale: &str,
    seed: u64,
    unit: usize,
    fresh: bool,
    fingerprint: &str,
    params: &Value,
) -> Value {
    obj(vec![
        ("type", "task".to_json()),
        ("experiment", experiment.to_json()),
        ("scale", scale.to_json()),
        ("seed", seed.to_json()),
        ("unit", (unit as u64).to_json()),
        ("fresh", fresh.to_json()),
        ("fingerprint", fingerprint.to_json()),
        ("params", params.clone()),
    ])
}

fn f_result(
    experiment: &str,
    scale: &str,
    unit: usize,
    outcome: &Result<Value, String>,
) -> Value {
    let mut fields = vec![
        ("type", "result".to_json()),
        ("experiment", experiment.to_json()),
        ("scale", scale.to_json()),
        ("unit", (unit as u64).to_json()),
    ];
    match outcome {
        Ok(v) => fields.push(("payload", v.clone())),
        Err(e) => fields.push(("error", e.to_json())),
    }
    obj(fields)
}

/// Shared write half of a worker's connection: result frames and
/// heartbeat frames interleave through one mutex-guarded stream.
type SharedWriter = Arc<Mutex<TcpStream>>;

fn send(w: &SharedWriter, v: &Value) -> std::io::Result<()> {
    let mut guard = lock(w);
    write_frame(&mut *guard, v)
}

// ------------------------------------------------------------------------
// Worker side
// ------------------------------------------------------------------------

/// Background heartbeat emitter: one `beat` frame per interval through
/// the shared writer. Freezing it (the injected hang) stops all further
/// beats without stopping the process. Send failures are rate-limited:
/// the first is logged, the rest are counted and summarised at finish —
/// a supervisor that went away would otherwise spam one warning per
/// interval for the rest of the run.
struct Emitter {
    stop: Arc<AtomicBool>,
    frozen: Arc<AtomicBool>,
    tasks_done: Arc<AtomicU64>,
    warned: Arc<AtomicBool>,
    suppressed: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<u64>>,
    writer: SharedWriter,
    worker: u64,
}

impl Emitter {
    fn send_beat(
        writer: &SharedWriter,
        hb: &Heartbeat,
        warned: &AtomicBool,
        suppressed: &AtomicU64,
    ) {
        if let Err(e) = send(writer, &f_beat(hb)) {
            if warned.swap(true, Ordering::Relaxed) {
                suppressed.fetch_add(1, Ordering::Relaxed);
            } else {
                eprintln!(
                    "warning: worker {} cannot send heartbeat: {e}; \
                     suppressing further heartbeat warnings",
                    hb.worker
                );
            }
        }
    }

    fn start(worker: u64, writer: SharedWriter, interval_ms: u64) -> Emitter {
        let stop = Arc::new(AtomicBool::new(false));
        let frozen = Arc::new(AtomicBool::new(false));
        let tasks_done = Arc::new(AtomicU64::new(0));
        let warned = Arc::new(AtomicBool::new(false));
        let suppressed = Arc::new(AtomicU64::new(0));
        let beat = move |seq: u64, tasks: u64, done: bool| Heartbeat {
            worker,
            pid: std::process::id() as u64,
            seq,
            eval: fault::eval_ordinal(),
            tasks_done: tasks,
            done,
        };
        // First beat synchronously, so the supervisor's staleness clock
        // starts from a real frame rather than from thread scheduling.
        Emitter::send_beat(&writer, &beat(1, 0, false), &warned, &suppressed);
        let handle = {
            let stop = Arc::clone(&stop);
            let frozen = Arc::clone(&frozen);
            let tasks_done = Arc::clone(&tasks_done);
            let warned = Arc::clone(&warned);
            let suppressed = Arc::clone(&suppressed);
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || {
                let mut seq = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(interval_ms));
                    if frozen.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed) {
                        continue;
                    }
                    seq += 1;
                    Emitter::send_beat(
                        &writer,
                        &beat(seq, tasks_done.load(Ordering::Relaxed), false),
                        &warned,
                        &suppressed,
                    );
                }
                seq
            })
        };
        Emitter {
            stop,
            frozen,
            tasks_done,
            warned,
            suppressed,
            handle: Some(handle),
            writer,
            worker,
        }
    }

    fn bump_tasks(&self) {
        self.tasks_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Injected hang: no further beats, ever.
    fn freeze(&self) {
        self.frozen.store(true, Ordering::Relaxed);
    }

    /// Stop the thread and send the final `done` beat.
    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let seq = self.handle.take().map_or(0, |h| h.join().unwrap_or(0));
        let last = Heartbeat {
            worker: self.worker,
            pid: std::process::id() as u64,
            seq: seq + 1,
            eval: fault::eval_ordinal(),
            tasks_done: self.tasks_done.load(Ordering::Relaxed),
            done: true,
        };
        Emitter::send_beat(&self.writer, &last, &self.warned, &self.suppressed);
        let suppressed = self.suppressed.load(Ordering::Relaxed);
        if suppressed > 0 {
            eprintln!(
                "warning: worker {}: suppressed {suppressed} repeated heartbeat \
                 send failure(s)",
                self.worker
            );
        }
    }
}

enum ConnEnd {
    /// Supervisor told us to exit cleanly.
    Finished,
    /// Connection lost; reconnect with backoff.
    Lost(String),
}

/// Worker entry point (`<bin> --connect HOST:PORT`): connect to the
/// supervisor, pull task units until told to shut down, stream each
/// unit's result (and heartbeats) back over the same connection. Returns
/// the process exit code. Any binary works — the task frame names the
/// experiment, so one worker serves `table2`, `table3`, searches, and
/// `fig5` ablations alike.
///
/// A lost connection is retried with exponential backoff (the supervisor
/// re-enqueues whatever this worker held, so reconnecting is always
/// safe); completed units are cached in this process's own store, so a
/// re-delivered unit is a cache hit, not a recompute.
pub fn run_worker_connect(args: &BenchArgs, addr: &str) -> i32 {
    let directive = std::env::var("AUTOMC_WORKER_FAULT").unwrap_or_default();
    let mut ctx = harness::UnitCtx::new();
    let mut units_done = 0u64;
    let mut failures = 0u32;
    loop {
        match serve_connection(args, addr, &mut ctx, &mut units_done, &directive, &mut failures)
        {
            ConnEnd::Finished => {
                eprintln!("[worker] shutdown received after {units_done} unit(s)");
                return 0;
            }
            ConnEnd::Lost(why) => {
                failures += 1;
                if failures >= MAX_CONNECT_FAILURES {
                    eprintln!(
                        "[worker] giving up after {failures} consecutive connection \
                         failures ({why})"
                    );
                    return 3;
                }
                let backoff =
                    (BACKOFF_BASE_MS << (failures - 1).min(32)).min(BACKOFF_CAP_MS);
                eprintln!("[worker] connection lost ({why}); reconnecting in {backoff} ms");
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

fn serve_connection(
    args: &BenchArgs,
    addr: &str,
    ctx: &mut harness::UnitCtx,
    units_done: &mut u64,
    directive: &str,
    failures: &mut u32,
) -> ConnEnd {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return ConnEnd::Lost(format!("connect {addr}: {e}")),
    };
    let _ = stream.set_nodelay(true);
    if args.io_timeout_ms > 0 {
        // Deadline every socket op: a half-dead supervisor link surfaces
        // as a timeout (classified below) instead of parking this worker
        // in a blocking read forever. The options live on the underlying
        // socket, so the cloned reader half inherits them.
        let dt = Duration::from_millis(args.io_timeout_ms);
        let _ = stream.set_read_timeout(Some(dt));
        let _ = stream.set_write_timeout(Some(dt));
    }
    let reader_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return ConnEnd::Lost(format!("clone stream: {e}")),
    };
    let mut reader = FrameReader::new(BufReader::new(reader_half));
    let writer: SharedWriter = Arc::new(Mutex::new(stream));
    if let Err(e) = send(&writer, &f_hello(std::process::id() as u64, args.worker_slot)) {
        return ConnEnd::Lost(format!("hello: {e}"));
    }
    let wid = match reader.read_frame() {
        Ok(Some(v)) if field::<String>(&v, "type").as_deref() == Some("welcome") => {
            field::<u64>(&v, "worker").unwrap_or(0)
        }
        Ok(_) => return ConnEnd::Lost("no welcome frame".into()),
        Err(e) if is_timeout(&e) => {
            return ConnEnd::Lost(format!(
                "welcome: no reply within {} ms",
                args.io_timeout_ms
            ))
        }
        Err(e) => return ConnEnd::Lost(format!("welcome: {e}")),
    };
    // A completed handshake resets the give-up counter: only *consecutive*
    // failures to reach a live supervisor end the worker.
    *failures = 0;
    eprintln!("[worker {wid}] connected to {addr}");
    let emitter = Emitter::start(wid, Arc::clone(&writer), args.heartbeat_ms.max(10));
    let end = loop {
        if let Err(e) = send(&writer, &f_pull()) {
            break ConnEnd::Lost(format!("pull: {e}"));
        }
        let frame = match reader.read_frame() {
            Ok(Some(v)) => v,
            Ok(None) => break ConnEnd::Lost("supervisor closed the connection".into()),
            Err(e) if is_timeout(&e) => {
                // The supervisor answers every pull promptly, so a read
                // deadline expiring here — mid-frame or not — means the
                // link is dead or wedged. Reconnect on a fresh socket.
                let how = if reader.has_partial() { "stalled mid-frame" } else { "silent" };
                break ConnEnd::Lost(format!(
                    "supervisor {how} for {} ms",
                    args.io_timeout_ms
                ));
            }
            Err(e) => break ConnEnd::Lost(format!("read: {e}")),
        };
        match field::<String>(&frame, "type").as_deref() {
            Some("task") => {
                if let Err(e) =
                    run_task_frame(&frame, ctx, &writer, &emitter, wid, units_done, directive)
                {
                    break ConnEnd::Lost(e);
                }
            }
            Some("idle") => {
                std::thread::sleep(Duration::from_millis(
                    field::<u64>(&frame, "ms").unwrap_or(IDLE_MS).min(1_000),
                ));
            }
            Some("shutdown") => break ConnEnd::Finished,
            _ => {}
        }
    };
    emitter.finish();
    end
}

fn run_task_frame(
    frame: &Value,
    ctx: &mut harness::UnitCtx,
    writer: &SharedWriter,
    emitter: &Emitter,
    wid: u64,
    units_done: &mut u64,
    directive: &str,
) -> Result<(), String> {
    let (Some(experiment), Some(scale_name), Some(seed), Some(unit)) = (
        field::<String>(frame, "experiment"),
        field::<String>(frame, "scale"),
        field::<u64>(frame, "seed"),
        field::<u64>(frame, "unit").map(|u| u as usize),
    ) else {
        eprintln!("[worker {wid}] ignoring malformed task frame");
        return Ok(());
    };
    let fresh = field::<bool>(frame, "fresh").unwrap_or(false);
    let frame_fp = field::<String>(frame, "fingerprint").unwrap_or_default();
    let params = frame.get("params").cloned().unwrap_or(Value::Null);

    let outcome: Result<Value, String> = match orchestrator::resolve_scale(&scale_name) {
        Err(e) => Err(e),
        Ok(scale) => {
            let local_fp = run_fingerprint(&scale, seed);
            if local_fp != frame_fp {
                Err(format!(
                    "fingerprint mismatch for {scale_name}: supervisor sent \
                     {frame_fp:?}, this worker computes {local_fp:?} — mixed \
                     binary or kernel versions?"
                ))
            } else {
                let key = unit_key(&experiment, scale.name, seed, unit);
                let cached: Option<Value> =
                    (!fresh).then(|| cache::load(&key, &local_fp)).flatten();
                match cached {
                    Some(v) => {
                        eprintln!("[worker {wid}] re-serving cached {key}");
                        Ok(v)
                    }
                    None => {
                        eprintln!("[worker {wid}] running {experiment}/{unit} ({scale_name})");
                        match harness::run_unit(
                            ctx, &experiment, &scale, seed, unit, fresh, &params,
                        ) {
                            Ok(v) => {
                                cache::store(&key, &local_fp, &v);
                                Ok(v)
                            }
                            Err(e) => Err(e),
                        }
                    }
                }
            }
        }
    };
    let completed = outcome.is_ok();
    send(writer, &f_result(&experiment, &scale_name, unit, &outcome))
        .map_err(|e| format!("result: {e}"))?;
    if completed {
        emitter.bump_tasks();
        *units_done += 1;
        if *units_done == 1 {
            match directive {
                "kill" => {
                    eprintln!(
                        "[worker {wid}] injected kill after unit {unit} \
                         (exit {WORKER_KILL_EXIT})"
                    );
                    std::process::exit(WORKER_KILL_EXIT);
                }
                "hang" => {
                    eprintln!("[worker {wid}] injected hang after unit {unit}");
                    emitter.freeze();
                    // Park until the supervisor's deadline (or shutdown
                    // kill) reclaims us. A supervisor that dies first (an
                    // injected `exit@dist`) never will: end the hang once
                    // orphaned rather than hold the inherited stderr open
                    // forever.
                    let parent = parent_pid();
                    while parent_pid() == parent {
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    eprintln!("[worker {wid}] parent process gone; ending the injected hang");
                    std::process::exit(3);
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// This process's parent id, where the platform exposes one.
#[cfg(unix)]
fn parent_pid() -> Option<u32> {
    Some(std::os::unix::process::parent_id())
}

#[cfg(not(unix))]
fn parent_pid() -> Option<u32> {
    None
}

// ------------------------------------------------------------------------
// Supervisor side
// ------------------------------------------------------------------------

/// One worker connection, as the supervisor sees it.
struct Conn {
    stream: TcpStream,
    alive: bool,
    wid: u64,
    slot: Option<usize>,
    inflight: Option<usize>,
    last_frame: Instant,
}

/// One round of task units being distributed.
struct Round {
    experiment: String,
    scale_name: String,
    seed: u64,
    fresh: bool,
    fingerprint: String,
    params: Value,
    units: Vec<usize>,
    pending: VecDeque<usize>,
    attempts: HashMap<usize, u64>,
    resolved: HashMap<usize, Option<Value>>,
}

/// Shared supervisor state, mutated by connection threads and the main
/// supervision loop under one mutex.
struct SuperState {
    conns: Vec<Conn>,
    round: Option<Round>,
    /// Global task-assignment counter — the ordinal space of the
    /// `drop@net:n` fault site. Counted here, under the state mutex, so
    /// the n-th assignment is the same assignment on every run
    /// regardless of which connection thread performs it.
    assigns: u64,
    /// `(ordinal, kind)` schedule extracted from the fault plan on the
    /// main thread (per-connection threads would each see fresh
    /// thread-local counters).
    net_sched: VecDeque<(u64, FaultKind)>,
    next_remote_wid: u64,
    budget: u64,
    policy: SchedPolicy,
    static_workers: usize,
    shutdown: bool,
}

fn select_unit(round: &mut Round, policy: SchedPolicy, static_workers: usize, wid: u64) -> Option<usize> {
    match policy {
        SchedPolicy::Dynamic => {
            while let Some(u) = round.pending.pop_front() {
                if !round.resolved.contains_key(&u) {
                    return Some(u);
                }
            }
            None
        }
        SchedPolicy::Static => {
            let k = static_workers.max(1);
            let pos = round.pending.iter().position(|&u| {
                !round.resolved.contains_key(&u)
                    && round.units.iter().position(|&x| x == u).unwrap_or(0) % k
                        == (wid as usize) % k
            })?;
            round.pending.remove(pos)
        }
    }
}

/// Re-enqueue (or, past the attempt budget, degrade) the unit a dead or
/// severed connection was holding.
fn lost_assignment(st: &mut SuperState, idx: usize) {
    let Some(unit) = st.conns[idx].inflight.take() else {
        return;
    };
    let budget = st.budget;
    let wid = st.conns[idx].wid;
    if let Some(round) = &mut st.round {
        if round.resolved.contains_key(&unit) || !round.units.contains(&unit) {
            return;
        }
        let attempts = round.attempts.get(&unit).copied().unwrap_or(1);
        if attempts >= budget + 1 {
            eprintln!(
                "[dist] unit {unit} of {} lost all {attempts} assignment(s); \
                 degrading it",
                round.experiment
            );
            round.resolved.insert(unit, None);
        } else {
            eprintln!(
                "[dist] re-enqueueing unit {unit} of {} (lost with worker {wid})",
                round.experiment
            );
            round.pending.push_front(unit);
        }
    }
}

/// Handle a `pull`: assign a unit (per policy), or tell the worker to
/// idle, or to shut down. Returns `false` when the connection should end.
fn handle_pull(st: &mut SuperState, idx: usize) -> bool {
    if st.shutdown {
        let _ = write_frame(&mut &st.conns[idx].stream, &f_shutdown());
        return false;
    }
    let wid = st.conns[idx].wid;
    let (policy, static_workers) = (st.policy, st.static_workers);
    let assignment = match &mut st.round {
        Some(round) => match select_unit(round, policy, static_workers, wid) {
            Some(unit) => {
                let attempts = round.attempts.entry(unit).or_insert(0);
                *attempts += 1;
                // `--fresh` recomputes completed results; a *re-delivery*
                // must reuse the first attempt's completed work, so only
                // the first assignment of a unit forwards it.
                let fresh = round.fresh && *attempts == 1;
                Some(f_task(
                    &round.experiment,
                    &round.scale_name,
                    round.seed,
                    unit,
                    fresh,
                    &round.fingerprint,
                    &round.params,
                ))
                .map(|frame| (unit, frame))
            }
            None => None,
        },
        None => None,
    };
    match assignment {
        Some((unit, frame)) => {
            st.assigns += 1;
            st.conns[idx].inflight = Some(unit);
            let injected_drop = match st.net_sched.front() {
                Some(&(ordinal, FaultKind::Drop)) if ordinal == st.assigns => {
                    st.net_sched.pop_front();
                    true
                }
                _ => false,
            };
            if let Err(e) = write_frame(&mut &st.conns[idx].stream, &frame) {
                eprintln!("[dist] cannot send task to worker {wid} ({e}); dropping it");
                let _ = st.conns[idx].stream.shutdown(Shutdown::Both);
                st.conns[idx].alive = false;
                lost_assignment(st, idx);
                return false;
            }
            if injected_drop {
                eprintln!(
                    "[dist] injecting connection drop at net:{} (worker {wid}, \
                     unit {unit})",
                    st.assigns
                );
                let _ = st.conns[idx].stream.shutdown(Shutdown::Both);
                st.conns[idx].alive = false;
                lost_assignment(st, idx);
                return false;
            }
            true
        }
        None => {
            if let Err(e) = write_frame(&mut &st.conns[idx].stream, &f_idle(IDLE_MS)) {
                eprintln!("[dist] cannot send idle to worker {wid} ({e})");
                st.conns[idx].alive = false;
                lost_assignment(st, idx);
                return false;
            }
            true
        }
    }
}

/// Handle a streamed `result` frame: journal the payload and mark the
/// unit resolved, or count the failed attempt and re-enqueue/degrade.
fn handle_result(st: &mut SuperState, idx: usize, frame: &Value) {
    let (Some(experiment), Some(scale), Some(unit)) = (
        field::<String>(frame, "experiment"),
        field::<String>(frame, "scale"),
        field::<u64>(frame, "unit").map(|u| u as usize),
    ) else {
        return;
    };
    if st.conns[idx].inflight == Some(unit) {
        st.conns[idx].inflight = None;
    }
    let wid = st.conns[idx].wid;
    let budget = st.budget;
    let Some(round) = &mut st.round else { return };
    if round.experiment != experiment
        || round.scale_name != scale
        || !round.units.contains(&unit)
        || round.resolved.contains_key(&unit)
    {
        return; // late duplicate or stale round — already handled
    }
    match frame.get("payload") {
        Some(payload) => {
            // Journal the completed unit in the supervisor's own store so
            // a restarted supervisor replays the merge instead of
            // re-running finished work.
            cache::store(
                &unit_key(&experiment, &scale, round.seed, unit),
                &round.fingerprint,
                payload,
            );
            round.resolved.insert(unit, Some(payload.clone()));
        }
        None => {
            let why: String = field(frame, "error").unwrap_or_else(|| "unknown error".into());
            eprintln!("[dist] worker {wid} failed unit {unit} of {experiment}: {why}");
            let attempts = round.attempts.get(&unit).copied().unwrap_or(1);
            if attempts >= budget + 1 {
                eprintln!(
                    "[dist] unit {unit} of {experiment} failed {attempts} attempt(s); \
                     degrading it"
                );
                round.resolved.insert(unit, None);
            } else {
                round.pending.push_front(unit);
            }
        }
    }
}

fn conn_thread(state: Arc<Mutex<SuperState>>, stream: TcpStream, io_timeout_ms: u64) {
    let _ = stream.set_nodelay(true);
    if io_timeout_ms > 0 {
        // Deadline the supervisor's side of the link too: a worker that
        // connects and then stalls mid-frame must not pin this thread
        // (and whatever unit it holds) until process exit.
        let dt = Duration::from_millis(io_timeout_ms);
        let _ = stream.set_read_timeout(Some(dt));
        let _ = stream.set_write_timeout(Some(dt));
    }
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(BufReader::new(reader_half));
    let hello = match reader.read_frame() {
        // A connection that cannot even say hello within the deadline is
        // reaped before it is ever registered as a worker.
        Ok(Some(v)) if field::<String>(&v, "type").as_deref() == Some("hello") => v,
        _ => return,
    };
    let slot = field::<u64>(&hello, "slot").map(|s| s as usize);
    let idx;
    let wid;
    {
        let mut st = lock(&state);
        wid = match slot {
            Some(s) => s as u64,
            None => {
                let w = st.next_remote_wid;
                st.next_remote_wid += 1;
                w
            }
        };
        idx = st.conns.len();
        st.conns.push(Conn {
            stream,
            alive: true,
            wid,
            slot,
            inflight: None,
            last_frame: Instant::now(),
        });
        if write_frame(&mut &st.conns[idx].stream, &f_welcome(wid)).is_err() {
            st.conns[idx].alive = false;
            return;
        }
    }
    eprintln!("[dist] worker {wid} connected{}", match slot {
        Some(s) => format!(" (local slot {s})"),
        None => String::new(),
    });
    loop {
        let frame = match reader.read_frame() {
            Ok(Some(v)) => v,
            Err(e) if is_timeout(&e) => {
                let mut st = lock(&state);
                if !st.conns[idx].alive {
                    break; // severed elsewhere; exit quietly
                }
                if reader.has_partial() {
                    // Mid-frame stall: the peer started a frame and went
                    // quiet, so the stream can never resynchronise.
                    // Sever it and hand its unit back to the queue.
                    eprintln!(
                        "[dist] worker {wid} stalled mid-frame for {io_timeout_ms} ms; \
                         severing the connection"
                    );
                    let _ = st.conns[idx].stream.shutdown(Shutdown::Both);
                    st.conns[idx].alive = false;
                    lost_assignment(&mut st, idx);
                    break;
                }
                // Clean idle: no partial frame pending. Liveness policy
                // belongs to the heartbeat deadline in the supervision
                // loop, not here — keep waiting (the `alive` check above
                // doubles as the exit path once that loop severs us).
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        let mut st = lock(&state);
        if !st.conns[idx].alive {
            break; // severed by the supervision loop or a net fault
        }
        st.conns[idx].last_frame = Instant::now();
        let keep = match field::<String>(&frame, "type").as_deref() {
            Some("pull") => handle_pull(&mut st, idx),
            Some("result") => {
                handle_result(&mut st, idx, &frame);
                true
            }
            Some("beat") => true,
            _ => true,
        };
        if !keep {
            break;
        }
    }
    let mut st = lock(&state);
    if st.conns[idx].alive {
        st.conns[idx].alive = false;
        lost_assignment(&mut st, idx);
        eprintln!("[dist] worker {wid} disconnected");
    }
}

/// One supervised local worker process.
struct Slot {
    idx: usize,
    child: Option<Child>,
    retries: u64,
    spawns: u64,
    done: bool,
    failed: bool,
    backoff_until: Option<Instant>,
}

/// Outcome of one local-worker failure: retry (with backoff) or give up.
fn fail_or_retry(
    slot: &mut Slot,
    why: &str,
    budget: u64,
    now: Instant,
    jpath: &std::path::Path,
    jstate: &mut OrchJournal,
) {
    slot.retries += 1;
    jstate.retries[slot.idx] = slot.retries;
    jstate.save(jpath);
    if slot.retries > budget {
        slot.failed = true;
        eprintln!(
            "[dist] worker {} {why}; retry budget ({budget}) exhausted — \
             its unfinished units degrade unless a sibling absorbs them",
            slot.idx
        );
    } else {
        let backoff = (BACKOFF_BASE_MS << (slot.retries - 1).min(32)).min(BACKOFF_CAP_MS);
        eprintln!(
            "[dist] worker {} {why}; retry {}/{budget} in {backoff} ms",
            slot.idx, slot.retries
        );
        slot.backoff_until = Some(now + Duration::from_millis(backoff));
    }
}

/// The distributed task server: a TCP listener, the shared work-queue
/// state, and (in local mode) the supervised self-exec worker fleet. One
/// runner serves many [`DistRunner::run_units`] rounds — workers stay
/// connected and idle between rounds — and is shut down once at the end
/// of the binary's run.
pub struct DistRunner {
    state: Arc<Mutex<SuperState>>,
    addr: SocketAddr,
    accept_stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    slots: Vec<Slot>,
    exe: Option<PathBuf>,
    root: PathBuf,
    jpath: PathBuf,
    jstate: OrchJournal,
    args: BenchArgs,
    deadline: Duration,
    finished: bool,
    /// Cumulative merge-frontier ticks across every round this supervisor
    /// has run, mirroring the thread-local `dist` fault counter.
    dist_ticks: u64,
    /// Journal for `dist_ticks`, written *before* each tick so an injected
    /// `exit@dist:k` cannot re-fire after a restart: the resumed supervisor
    /// restores the counter past the ordinal that already fired. Only
    /// touched when the active fault plan schedules the `dist` site.
    dist_ticks_path: PathBuf,
    dist_faults: bool,
}

impl DistRunner {
    /// Bind the task server (loopback by default, `--listen ADDR` to
    /// expose it), extract the `net`-site fault schedule, and arrange for
    /// `args.workers` local self-exec workers. Workers — local or remote
    /// (`<bin> --connect`) — pull units from every subsequent
    /// [`DistRunner::run_units`] round.
    pub fn start(args: &BenchArgs) -> std::io::Result<DistRunner> {
        let root = cache::cache_dir();
        std::fs::create_dir_all(&root)?;
        let listener =
            TcpListener::bind(args.listen.as_deref().unwrap_or("127.0.0.1:0"))?;
        let addr = listener.local_addr()?;
        eprintln!(
            "[dist] listening on {addr} ({} local worker(s), {} scheduling, \
             heartbeat {} ms, {} retries)",
            args.workers,
            args.sched.name(),
            args.heartbeat_ms,
            args.retries
        );
        if let Some(path) = &args.addr_file {
            // Atomic (with retry) so a script polling the file never
            // reads a torn address, even across a transient write hiccup.
            automc_compress::store::write_atomic_retry(path, addr.to_string().as_bytes())?;
        }
        let state = Arc::new(Mutex::new(SuperState {
            conns: Vec::new(),
            round: None,
            assigns: 0,
            net_sched: fault::site_schedule("net").into_iter().collect(),
            next_remote_wid: args.workers as u64,
            budget: args.retries as u64,
            policy: args.sched,
            static_workers: args.workers.max(1),
            shutdown: false,
        }));
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&accept_stop);
            let io_timeout_ms = args.io_timeout_ms;
            std::thread::Builder::new().name("dist-accept".into()).spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let state = Arc::clone(&state);
                    let _ = std::thread::Builder::new()
                        .name("dist-conn".into())
                        .spawn(move || conn_thread(state, stream, io_timeout_ms));
                }
            })?
        };
        let exe = match std::env::current_exe() {
            Ok(p) => Some(p),
            Err(e) => {
                if args.workers > 0 {
                    eprintln!(
                        "[dist] cannot resolve the worker executable ({e}); \
                         running with remote workers only"
                    );
                }
                None
            }
        };
        let jpath = OrchJournal::path(&root, args.seed);
        let tag = format!("dist-v1|s{}|w{}", args.seed, args.workers);
        let mut jstate = OrchJournal { tag, retries: vec![0; args.workers] };
        if args.workers > 0 && harness::resume_enabled() {
            if let Some(retries) = OrchJournal::load(&jpath, &jstate.tag, args.workers) {
                eprintln!(
                    "[dist] resumed retry counters {retries:?} from {}",
                    jpath.display()
                );
                jstate.retries = retries;
            }
        }
        // The `dist` fault counter survives supervisor restarts the same
        // way eval counters survive via round journals: the pre-tick
        // ordinal is journaled, and a resumed supervisor restores it so
        // replayed merges do not re-fire an already-injected fault.
        let dist_faults = fault::plan_schedules_any(&["dist"]);
        let dist_ticks_path = root.join(format!("dist-ticks-s{}.journal", args.seed));
        let mut dist_ticks = 0u64;
        if dist_faults && harness::resume_enabled() {
            if let Some(n) = std::fs::read_to_string(&dist_ticks_path)
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
            {
                fault::restore_counters(&[("dist".to_string(), n)]);
                dist_ticks = n;
                eprintln!("[dist] resumed fault counter dist={n} from the tick journal");
            }
        }
        let budget = args.retries as u64;
        let slots = (0..if exe.is_some() { args.workers } else { 0 })
            .map(|idx| Slot {
                idx,
                child: None,
                retries: jstate.retries[idx],
                spawns: 0,
                done: false,
                failed: jstate.retries[idx] > budget,
                backoff_until: None,
            })
            .collect();
        Ok(DistRunner {
            state,
            addr,
            accept_stop,
            accept_handle: Some(accept_handle),
            slots,
            exe,
            root,
            jpath,
            jstate,
            args: args.clone(),
            deadline: Duration::from_millis((args.heartbeat_ms.saturating_mul(8)).max(1_500)),
            finished: false,
            dist_ticks,
            dist_ticks_path,
            dist_faults,
        })
    }

    /// The bound address of the task server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn spawn_local(&mut self, idx: usize, now: Instant) {
        let Some(exe) = self.exe.clone() else { return };
        let args = self.args.clone();
        let addr = self.addr;
        let root = self.root.clone();
        let budget = self.args.retries as u64;
        let slot = &mut self.slots[idx];
        let mut cmd = Command::new(exe);
        cmd.arg("--connect")
            .arg(addr.to_string())
            .arg("--worker-slot")
            .arg(idx.to_string())
            .arg("--threads")
            .arg(args.threads.to_string())
            .arg("--heartbeat-ms")
            .arg(args.heartbeat_ms.to_string())
            .arg("--io-timeout-ms")
            .arg(args.io_timeout_ms.to_string());
        if args.no_resume {
            cmd.arg("--no-resume");
        }
        if let Some(memo) = args.memo {
            cmd.arg("--memo").arg(if memo { "on" } else { "off" });
        }
        cmd.env("AUTOMC_RESULTS_DIR", orchestrator::worker_dir(&root, idx))
            .env("AUTOMC_SHARED_RESULTS_DIR", &root)
            .env("AUTOMC_MEMO_SPILL_DIR", root.join("memo"))
            // Fault plans are the supervisor's to interpret: worker-site
            // faults become directives; eval-site plans must not replicate
            // into every child (their ordinals are per-process).
            .env_remove("AUTOMC_FAULTS");
        match fault::tick("worker") {
            Some(FaultKind::Kill) => {
                cmd.env("AUTOMC_WORKER_FAULT", "kill");
            }
            Some(FaultKind::Hang) => {
                cmd.env("AUTOMC_WORKER_FAULT", "hang");
            }
            _ => {
                cmd.env_remove("AUTOMC_WORKER_FAULT");
            }
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::inherit());
        match cmd.spawn() {
            Ok(child) => {
                slot.spawns += 1;
                slot.child = Some(child);
            }
            Err(e) => fail_or_retry(
                slot,
                &format!("failed to spawn ({e})"),
                budget,
                now,
                &self.jpath,
                &mut self.jstate,
            ),
        }
    }

    /// One supervision pass over the local worker fleet: restart crashed
    /// children with backoff, spawn anything not yet running.
    fn supervise_slots(&mut self) {
        let now = Instant::now();
        let budget = self.args.retries as u64;
        for idx in 0..self.slots.len() {
            let slot = &mut self.slots[idx];
            if slot.failed || slot.done {
                continue;
            }
            match slot.child.take() {
                None => {
                    if slot.backoff_until.is_some_and(|t| now < t) {
                        continue;
                    }
                    slot.backoff_until = None;
                    self.spawn_local(idx, now);
                }
                Some(mut child) => match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        slot.done = true;
                        eprintln!("[dist] worker {} exited cleanly", slot.idx);
                    }
                    Ok(Some(status)) => {
                        let code = status.code().map_or("killed by signal".to_string(), |c| {
                            format!("exit code {c}")
                        });
                        fail_or_retry(
                            slot,
                            &format!("crashed ({code})"),
                            budget,
                            now,
                            &self.jpath,
                            &mut self.jstate,
                        );
                    }
                    Ok(None) => slot.child = Some(child),
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        fail_or_retry(
                            slot,
                            &format!("unwaitable ({e})"),
                            budget,
                            now,
                            &self.jpath,
                            &mut self.jstate,
                        );
                    }
                },
            }
        }
    }

    /// Distribute `units` of `experiment` at `scale` across the connected
    /// workers and return their payloads, aligned with `units` (`None`
    /// for a unit whose every assignment was lost — the caller degrades
    /// it). The merge frontier advances in fixed unit order as results
    /// stream in, ticking the deterministic `dist` fault site once per
    /// merged unit (so `exit@dist:k` kills the supervisor after the k-th
    /// merge, for restart-replay testing); completed payloads are
    /// journaled in the supervisor's store and replayed on restart.
    pub fn run_units(
        &mut self,
        experiment: &str,
        scale: &ExperimentScale,
        seed: u64,
        fresh: bool,
        units: &[usize],
        params: &Value,
    ) -> Vec<Option<Value>> {
        let fp = run_fingerprint(scale, seed);
        {
            let mut st = lock(&self.state);
            let mut round = Round {
                experiment: experiment.to_string(),
                scale_name: scale.name.to_string(),
                seed,
                fresh,
                fingerprint: fp.clone(),
                params: params.clone(),
                units: units.to_vec(),
                pending: VecDeque::new(),
                attempts: HashMap::new(),
                resolved: HashMap::new(),
            };
            // Replay the merge journal: units a previous (crashed)
            // supervisor already collected re-resolve instantly. The
            // journal is erased at round completion, so these entries can
            // only come from an interrupted run of this same round.
            let mut replayed = 0usize;
            if harness::resume_enabled() {
                for &u in units {
                    let key = unit_key(experiment, scale.name, seed, u);
                    if let Some(v) = cache::load::<Value>(&key, &fp) {
                        round.resolved.insert(u, Some(v));
                        replayed += 1;
                    }
                }
            }
            if replayed > 0 {
                eprintln!(
                    "[dist] {experiment}@{}: replayed {replayed} unit(s) from the \
                     merge journal",
                    scale.name
                );
            }
            round.pending =
                units.iter().copied().filter(|u| !round.resolved.contains_key(u)).collect();
            for conn in &mut st.conns {
                conn.inflight = None; // stale results from prior rounds are ignored
            }
            st.round = Some(round);
        }
        eprintln!(
            "[dist] {experiment}@{}: distributing {} unit(s)",
            scale.name,
            units.len()
        );
        let mut frontier = 0usize;
        let mut last_live = Instant::now();
        loop {
            self.supervise_slots();
            let now = Instant::now();
            let mut kill_slots: Vec<usize> = Vec::new();
            let mut finished: Option<Vec<Option<Value>>> = None;
            {
                let mut st = lock(&self.state);
                // Staleness: any frame (beat, pull, result) counts as
                // progress. A connection past the deadline is severed and
                // its in-flight unit re-enqueued; its local child (if
                // any) is killed so slot supervision restarts it.
                for idx in 0..st.conns.len() {
                    if !st.conns[idx].alive {
                        continue;
                    }
                    let stale = now.saturating_duration_since(st.conns[idx].last_frame);
                    if stale > self.deadline {
                        eprintln!(
                            "[dist] worker {} hung (no heartbeat for {} ms); killing it",
                            st.conns[idx].wid,
                            stale.as_millis()
                        );
                        let _ = st.conns[idx].stream.shutdown(Shutdown::Both);
                        st.conns[idx].alive = false;
                        lost_assignment(&mut st, idx);
                        if let Some(slot) = st.conns[idx].slot {
                            kill_slots.push(slot);
                        }
                    }
                }
                let any_alive = st.conns.iter().any(|c| c.alive);
                if any_alive {
                    last_live = now;
                }
                if let Some(round) = &mut st.round {
                    // Advance the merge frontier over consecutively
                    // resolved units. Ticked on this (main) thread so the
                    // `dist` fault site's ordinals are deterministic.
                    while frontier < units.len()
                        && round.resolved.contains_key(&units[frontier])
                    {
                        frontier += 1;
                        self.dist_ticks += 1;
                        if self.dist_faults {
                            // Journal the ordinal *before* ticking: if the
                            // tick injects an exit, the restarted supervisor
                            // restores the counter past it and the fault
                            // fires exactly once across resumes.
                            let _ = automc_compress::store::write_atomic_retry(
                                &self.dist_ticks_path,
                                self.dist_ticks.to_string().as_bytes(),
                            );
                        }
                        fault::tick("dist");
                        eprintln!("[dist] merged {frontier}/{} unit(s)", units.len());
                    }
                    if frontier == units.len() {
                        let mut round = match st.round.take() {
                            Some(r) => r,
                            None => unreachable!("round present above"),
                        };
                        finished = Some(
                            units
                                .iter()
                                .map(|u| round.resolved.remove(u).flatten())
                                .collect(),
                        );
                    } else {
                        // Degradation sweep: nothing left that could ever
                        // resolve the remaining units.
                        let slots_settled = !self.slots.is_empty()
                            && self.slots.iter().all(|s| s.failed || s.done);
                        let remote_stalled = self.slots.is_empty()
                            && now.saturating_duration_since(last_live)
                                > Duration::from_millis(STALL_GRACE_MS);
                        if !any_alive && (slots_settled || remote_stalled) {
                            for &u in units {
                                if !round.resolved.contains_key(&u) {
                                    eprintln!(
                                        "[dist] no worker left to run unit {u} of \
                                         {experiment}; degrading it"
                                    );
                                    round.resolved.insert(u, None);
                                }
                            }
                        }
                    }
                }
            }
            for slot in kill_slots {
                if let Some(s) = self.slots.get_mut(slot) {
                    if let Some(child) = &mut s.child {
                        let _ = child.kill();
                    }
                }
            }
            if let Some(payloads) = finished {
                // The merge journal is resumption state, not a cache:
                // erase it at completion so the next round (or a later
                // `--fresh` run) starts clean.
                for &u in units {
                    let _ = std::fs::remove_file(cache::cache_path(&unit_key(
                        experiment, scale.name, seed, u,
                    )));
                }
                let degraded = payloads.iter().filter(|p| p.is_none()).count();
                eprintln!(
                    "[dist] {experiment}@{}: complete ({} unit(s), {degraded} degraded)",
                    scale.name,
                    units.len()
                );
                return payloads;
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
    }

    /// Send every connected worker a `shutdown` frame, give local
    /// children a short grace to exit cleanly, kill the stragglers (a
    /// parked hung worker never reads the frame), stop the accept loop,
    /// and discard the retry journal. Idempotent.
    pub fn shutdown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        {
            let mut st = lock(&self.state);
            st.shutdown = true;
            for conn in st.conns.iter_mut().filter(|c| c.alive) {
                let _ = write_frame(&mut &conn.stream, &f_shutdown());
            }
        }
        let grace_end = Instant::now() + Duration::from_millis(500);
        loop {
            let mut pending = false;
            for slot in &mut self.slots {
                if let Some(child) = &mut slot.child {
                    match child.try_wait() {
                        Ok(Some(_)) => slot.child = None,
                        _ => pending = true,
                    }
                }
            }
            if !pending || Instant::now() >= grace_end {
                break;
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        self.accept_stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock the accept loop
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        {
            let mut st = lock(&self.state);
            for conn in st.conns.iter_mut().filter(|c| c.alive) {
                let _ = conn.stream.shutdown(Shutdown::Both);
                conn.alive = false;
            }
        }
        journal::discard(&self.jpath);
        // Like the merge journal, the dist-tick journal is resumption
        // state, not a cache: a clean shutdown means every scheduled
        // `dist` fault ran its course, so the counter must not leak into
        // an unrelated later run with the same seed.
        let _ = std::fs::remove_file(&self.dist_ticks_path);
        let retries_total: u64 = self.slots.iter().map(|s| s.retries).sum();
        eprintln!("[dist] shutdown complete ({retries_total} worker restart(s))");
        let store = automc_compress::store::counters();
        eprintln!(
            "[dist] spill store: {} published, {} hits, {} evicted, \
             {} healed, {} raced, {} index rebuilds",
            store.publishes,
            store.hits,
            store.evictions,
            store.healed,
            store.raced,
            store.index_rebuilds
        );
    }
}

impl Drop for DistRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_with(units: &[usize]) -> Round {
        Round {
            experiment: "table2".into(),
            scale_name: "smoke".into(),
            seed: 7,
            fresh: false,
            fingerprint: "fp".into(),
            params: Value::Null,
            units: units.to_vec(),
            pending: units.iter().copied().collect(),
            attempts: HashMap::new(),
            resolved: HashMap::new(),
        }
    }

    #[test]
    fn dynamic_selection_drains_in_order_for_any_worker() {
        let mut round = round_with(&[0, 1, 2]);
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 2, 5), Some(0));
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 2, 0), Some(1));
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 2, 1), Some(2));
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 2, 1), None);
    }

    #[test]
    fn static_selection_respects_ownership() {
        let mut round = round_with(&[0, 1, 2, 3]);
        // Worker 0 owns positions 0 and 2; worker 1 owns 1 and 3.
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 0), Some(0));
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 0), Some(2));
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 0), None);
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 1), Some(1));
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 1), Some(3));
        assert_eq!(select_unit(&mut round, SchedPolicy::Static, 2, 1), None);
    }

    #[test]
    fn selection_skips_resolved_units() {
        let mut round = round_with(&[0, 1, 2]);
        round.resolved.insert(0, Some(Value::Null));
        round.resolved.insert(1, None);
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 1, 0), Some(2));
        assert_eq!(select_unit(&mut round, SchedPolicy::Dynamic, 1, 0), None);
    }

    #[test]
    fn sched_policy_parses_its_own_names() {
        assert_eq!(SchedPolicy::parse("dynamic"), Some(SchedPolicy::Dynamic));
        assert_eq!(SchedPolicy::parse("static"), Some(SchedPolicy::Static));
        assert_eq!(SchedPolicy::parse("round-robin"), None);
        for p in [SchedPolicy::Dynamic, SchedPolicy::Static] {
            assert_eq!(SchedPolicy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn task_and_result_frames_round_trip() {
        let task = f_task("table2", "smoke", 7, 3, true, "fp", &Value::Null);
        assert_eq!(field::<String>(&task, "experiment").as_deref(), Some("table2"));
        assert_eq!(field::<u64>(&task, "unit"), Some(3));
        assert_eq!(field::<bool>(&task, "fresh"), Some(true));
        let ok = f_result("table2", "smoke", 3, &Ok(obj(vec![("x", 1u64.to_json())])));
        assert!(ok.get("payload").is_some());
        assert!(ok.get("error").is_none());
        let err = f_result("table2", "smoke", 3, &Err("boom".into()));
        assert_eq!(field::<String>(&err, "error").as_deref(), Some("boom"));
        assert!(err.get("payload").is_none());
    }

    #[test]
    fn lost_assignments_requeue_then_degrade() {
        let mut st = SuperState {
            conns: Vec::new(),
            round: Some(round_with(&[0, 1])),
            assigns: 0,
            net_sched: VecDeque::new(),
            next_remote_wid: 0,
            budget: 1, // retries=1 → 2 attempts allowed
            policy: SchedPolicy::Dynamic,
            static_workers: 1,
            shutdown: false,
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("conn");
        st.conns.push(Conn {
            stream,
            alive: false,
            wid: 0,
            slot: None,
            inflight: Some(0),
            last_frame: Instant::now(),
        });
        if let Some(r) = &mut st.round {
            r.attempts.insert(0, 1);
            r.pending.clear();
        }
        lost_assignment(&mut st, 0);
        assert_eq!(
            st.round.as_ref().map(|r| r.pending.front().copied()),
            Some(Some(0)),
            "first loss re-enqueues"
        );
        st.conns[0].inflight = Some(0);
        if let Some(r) = &mut st.round {
            r.attempts.insert(0, 2);
            r.pending.clear();
        }
        lost_assignment(&mut st, 0);
        let degraded = st
            .round
            .as_ref()
            .is_some_and(|r| r.resolved.get(&0) == Some(&None));
        assert!(degraded, "second loss exhausts the budget and degrades");
    }
}
