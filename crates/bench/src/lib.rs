//! # automc-bench
//!
//! Reproduction harness for every table and figure in the AutoMC paper's
//! evaluation section. One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table2` | Table 2 — compression results on Exp1/Exp2 at PR ≈ 40/70 |
//! | `table3` | Table 3 — transfer study across model depths |
//! | `fig4`   | Figure 4 — accuracy-vs-budget curves + Pareto fronts |
//! | `fig5`   | Figure 5 — ablation Pareto fronts |
//! | `fig6`   | Figure 6 — the searched schemes, pretty-printed |
//!
//! Binaries share a JSON result cache under `target/automc-results/` so
//! the expensive searches run once (Table 3 and Figs 4/6 reuse Table 2's
//! runs). Pass `--seed N` to any binary to change the master seed;
//! `--fresh` ignores the cache.
//!
//! Fault tolerance: every candidate evaluation is supervised (panics and
//! divergence are recorded as infeasible history entries, not crashes),
//! AutoMC searches journal their state each round and resume after a kill
//! (`--no-resume` disables), and `--faults SPEC` / `AUTOMC_FAULTS`
//! injects deterministic faults for testing — see `DESIGN.md` §"Fault
//! model & recovery".

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod harness;
pub mod orchestrator;
pub mod report;
pub mod scale;
pub mod transport;

/// Flags shared by the reproduction binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Master seed (`--seed N`, default 42).
    pub seed: u64,
    /// Ignore the result cache (`--fresh`).
    pub fresh: bool,
    /// Worker threads (`--threads N`; 0 = auto). `AUTOMC_THREADS` takes
    /// precedence over the flag.
    pub threads: usize,
    /// Disable journal resume (`--no-resume`): interrupted AutoMC
    /// searches restart from scratch.
    pub no_resume: bool,
    /// Deterministic fault plan (`--faults kind@site:n,...`), installed
    /// on the main thread. Equivalent to setting `AUTOMC_FAULTS`.
    pub faults: Option<String>,
    /// Run the binary's smoke mode, if it has one (`--smoke`): the
    /// smallest end-to-end scale, used by the CI fault-injection stage.
    pub smoke: bool,
    /// Prefix-model memoization override (`--memo on|off`). `None` defers
    /// to `AUTOMC_MEMO` (default: enabled).
    pub memo: Option<bool>,
    /// Local worker processes for the distributed task queue
    /// (`--workers N`; 0 = run in-process unless `--listen` is given).
    pub workers: usize,
    /// Worker heartbeat interval in milliseconds (`--heartbeat-ms N`).
    /// The supervisor declares a worker hung after 8 missed intervals
    /// (floor 1.5 s).
    pub heartbeat_ms: u64,
    /// Restarts per local worker — and lost assignments per task unit —
    /// before degradation (`--retries N`).
    pub retries: u32,
    /// Run as a remote worker: connect to a supervisor's task server at
    /// `HOST:PORT` and pull units until told to shut down
    /// (`--connect HOST:PORT`).
    pub connect: Option<String>,
    /// Supervisor listen address for remote workers (`--listen ADDR`).
    /// Default is an ephemeral loopback port used only by the local
    /// self-exec fleet.
    pub listen: Option<String>,
    /// Write the bound task-server address to this file once listening
    /// (`--addr-file PATH`), for scripts that spawn workers.
    pub addr_file: Option<std::path::PathBuf>,
    /// Local slot index, set by the supervisor when it self-execs a
    /// worker (`--worker-slot N`) — not intended for direct use.
    pub worker_slot: Option<usize>,
    /// Socket read/write deadline for the distributed transport, in
    /// milliseconds (`--io-timeout-ms N`; 0 disables). Applied to the
    /// worker and supervisor connection sockets so a half-dead link
    /// surfaces as a timeout instead of blocking a thread forever. A
    /// clean timeout with no partial frame is idle-tolerant on the
    /// supervisor side (the heartbeat deadline owns liveness); a
    /// mid-frame stall severs the connection.
    pub io_timeout_ms: u64,
}

/// Default for [`BenchArgs::io_timeout_ms`].
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 10_000;

impl BenchArgs {
    /// Install the thread knob, resume policy, memo policy, and fault
    /// plan into the runtime.
    pub fn apply(&self) {
        automc_tensor::par::configure_threads(self.threads);
        harness::set_resume(!self.no_resume);
        automc_compress::memo::set_enabled_global(self.memo);
        if automc_compress::memo::enabled() {
            // Spill evicted/inserted prefix models next to the result
            // cache so a relaunched process re-hits prefixes computed by
            // an earlier run. The directory is opened as a crash-safe
            // concurrent `automc_compress::store::BlobStore`, so every
            // process of a run — a worker fleet included — shares it live
            // (prefix models are content-addressed, so sharing is always
            // sound, and the store's GC/quarantine keep it bounded and
            // self-healing).
            automc_compress::memo::set_spill_dir(Some(cache::cache_dir().join("memo")));
        }
        if let Some(spec) = &self.faults {
            match automc_tensor::fault::FaultPlan::parse(spec) {
                Ok(plan) => {
                    eprintln!("[fault] --faults installed: {spec}");
                    automc_tensor::fault::install(plan);
                }
                Err(e) => eprintln!("warning: ignoring --faults: {e}"),
            }
        }
    }
}

/// Parse `--seed N` / `--fresh` / `--threads N` / `--no-resume` /
/// `--faults SPEC` / `--memo on|off` / `--workers N` / `--heartbeat-ms N`
/// / `--retries N` / `--connect ADDR` / `--listen ADDR` /
/// `--addr-file PATH` / `--worker-slot N` / `--io-timeout-ms N` from argv
/// (tiny flag parser shared by the reproduction binaries).
pub fn parse_args() -> BenchArgs {
    let mut parsed = BenchArgs {
        seed: 42,
        fresh: false,
        threads: 0,
        no_resume: false,
        faults: None,
        smoke: false,
        memo: None,
        workers: 0,
        heartbeat_ms: 500,
        retries: 2,
        connect: None,
        listen: None,
        addr_file: None,
        worker_slot: None,
        io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.seed = v;
                    i += 1;
                }
            }
            "--threads" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.threads = v;
                    i += 1;
                }
            }
            "--faults" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.faults = Some(v.clone());
                    i += 1;
                }
            }
            "--workers" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.workers = v;
                    i += 1;
                }
            }
            "--heartbeat-ms" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    // Below the floor the hang deadline stays pinned at
                    // 1.5 s and the flag would silently change nothing.
                    if v < orchestrator::MIN_HEARTBEAT_MS {
                        eprintln!(
                            "warning: --heartbeat-ms {v} is below the effective \
                             minimum; clamping to {} (the hung-worker deadline \
                             has a 1.5 s floor)",
                            orchestrator::MIN_HEARTBEAT_MS
                        );
                        parsed.heartbeat_ms = orchestrator::MIN_HEARTBEAT_MS;
                    } else {
                        parsed.heartbeat_ms = v;
                    }
                    i += 1;
                }
            }
            "--retries" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.retries = v;
                    i += 1;
                }
            }
            "--connect" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.connect = Some(v.clone());
                    i += 1;
                }
            }
            "--listen" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.listen = Some(v.clone());
                    i += 1;
                }
            }
            "--addr-file" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.addr_file = Some(v.clone().into());
                    i += 1;
                }
            }
            "--io-timeout-ms" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.io_timeout_ms = v;
                    i += 1;
                }
            }
            "--worker-slot" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.worker_slot = Some(v);
                    i += 1;
                }
            }
            "--memo" => {
                if let Some(v) = args.get(i + 1) {
                    match v.as_str() {
                        "on" => parsed.memo = Some(true),
                        "off" => parsed.memo = Some(false),
                        other => eprintln!("ignoring --memo {other} (want on|off)"),
                    }
                    i += 1;
                }
            }
            "--fresh" => parsed.fresh = true,
            "--no-resume" => parsed.no_resume = true,
            "--smoke" => parsed.smoke = true,
            other => eprintln!("ignoring unknown argument {other}"),
        }
        i += 1;
    }
    parsed.apply();
    parsed
}
