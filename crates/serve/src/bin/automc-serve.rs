//! `automc-serve` — the compression-as-a-service daemon and its CLI.
//!
//! ```text
//! automc-serve serve    [--listen ADDR] [--jobs N] [--addr-file PATH]
//!                       [--threads N] [--no-resume]
//!                       [--io-timeout-ms N] [--queue-cap N]
//! automc-serve submit   --addr HOST:PORT --scale S [--seed N] [--kind K]
//!                       [--fresh] [--label L]
//! automc-serve run      (submit + watch + render the result)
//! automc-serve watch    --addr HOST:PORT --job ID
//! automc-serve status   --addr HOST:PORT --job ID
//! automc-serve cancel   --addr HOST:PORT --job ID
//! automc-serve result   --addr HOST:PORT --job ID
//! automc-serve shutdown --addr HOST:PORT
//! ```
//!
//! `--kind` is one of `table2` (default), `automc`, `evolution`, `rl`,
//! `random`. The daemon shares the result cache, memo LRU, and spill
//! store configured by the usual `AUTOMC_*` environment knobs.

use automc_json::Value;
use automc_serve::client::{render_result, render_round, Client};
use automc_serve::protocol::{JobKind, JobSpec};
use automc_serve::server::{self, ServeConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(cmd) = args.get(1).map(String::as_str) else {
        eprintln!("usage: automc-serve <serve|submit|run|watch|status|cancel|result|shutdown> …");
        return ExitCode::FAILURE;
    };
    let result = match cmd {
        "serve" => cmd_serve(&args[2..]),
        "submit" => cmd_submit(&args[2..], false),
        "run" => cmd_submit(&args[2..], true),
        "watch" => cmd_job(&args[2..], |client, job| {
            let terminal = client.watch(job, |frame| {
                if let Some(line) = render_round(frame) {
                    eprintln!("{line}");
                }
            })?;
            print_terminal(&terminal);
            Ok(())
        }),
        "status" => cmd_job(&args[2..], |client, job| {
            println!("{}", client.status(job)?);
            Ok(())
        }),
        "cancel" => cmd_job(&args[2..], |client, job| {
            client.cancel(job)?;
            eprintln!("cancel requested for {job}");
            Ok(())
        }),
        "result" => cmd_job(&args[2..], |client, job| {
            print_terminal(&client.result(job)?);
            Ok(())
        }),
        "shutdown" => {
            flag_value(&args[2..], "--addr").ok_or_else(usage_err).and_then(|addr| {
                let mut client = Client::connect(&addr)?;
                client.shutdown()
            })
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_err() -> std::io::Error {
    std::io::Error::other("missing required flag (see --help in the crate docs)")
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn cmd_serve(args: &[String]) -> std::io::Result<()> {
    let cfg = ServeConfig {
        listen: flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into()),
        jobs: flag_value(args, "--jobs").and_then(|v| v.parse().ok()).unwrap_or(2),
        addr_file: flag_value(args, "--addr-file").map(Into::into),
        io_timeout_ms: flag_value(args, "--io-timeout-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(server::DEFAULT_IO_TIMEOUT_MS),
        queue_cap: flag_value(args, "--queue-cap")
            .and_then(|v| v.parse().ok())
            .unwrap_or(server::QUEUE_CAP),
    };
    // Same runtime setup as the batch binaries: thread pool, journal
    // resume, memo + spill store, and the AUTOMC_FAULTS fallback plan
    // (installed lazily by the fault subsystem itself).
    let bench = automc_bench::BenchArgs {
        seed: 0,
        fresh: false,
        threads: flag_value(args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(0),
        no_resume: has_flag(args, "--no-resume"),
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
        io_timeout_ms: cfg.io_timeout_ms,
    };
    bench.apply();
    server::run(&cfg)
}

fn parse_spec(args: &[String]) -> std::io::Result<JobSpec> {
    let kind_name = flag_value(args, "--kind").unwrap_or_else(|| "table2".into());
    let Some(kind) = JobKind::parse(&kind_name) else {
        return Err(std::io::Error::other(format!(
            "unknown --kind {kind_name:?} (want table2|automc|evolution|rl|random)"
        )));
    };
    Ok(JobSpec {
        scale: flag_value(args, "--scale").unwrap_or_else(|| "smoke".into()),
        seed: flag_value(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42),
        kind,
        fresh: has_flag(args, "--fresh"),
        label: flag_value(args, "--label").unwrap_or_default(),
    })
}

fn cmd_submit(args: &[String], and_watch: bool) -> std::io::Result<()> {
    let addr = flag_value(args, "--addr").ok_or_else(usage_err)?;
    let spec = parse_spec(args)?;
    let mut client = Client::connect(&addr)?;
    let (job, dedup) = client.submit(&spec)?;
    eprintln!(
        "submitted {job} ({}, scale {}, seed {}){}",
        spec.kind.name(),
        spec.scale,
        spec.seed,
        if dedup { " — already known, attaching" } else { "" }
    );
    if !and_watch {
        println!("{job}");
        return Ok(());
    }
    let terminal = client.watch(&job, |frame| {
        if let Some(line) = render_round(frame) {
            eprintln!("{line}");
        }
    })?;
    print_terminal(&terminal);
    // A cancelled or failed job is a non-zero exit for scripting.
    match terminal.get("state").and_then(Value::as_str) {
        Some("done") => Ok(()),
        other => Err(std::io::Error::other(format!(
            "job ended in state {}",
            other.unwrap_or("unknown")
        ))),
    }
}

fn cmd_job(
    args: &[String],
    body: impl FnOnce(&mut Client, &str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let addr = flag_value(args, "--addr").ok_or_else(usage_err)?;
    let job = flag_value(args, "--job").ok_or_else(usage_err)?;
    let mut client = Client::connect(&addr)?;
    body(&mut client, &job)
}

/// Print a terminal frame: rendered tables/summary when the job is done,
/// a state line otherwise.
fn print_terminal(terminal: &Value) {
    match render_result(terminal) {
        Some(rendered) => println!("{rendered}"),
        None => {
            let state = terminal.get("state").and_then(Value::as_str).unwrap_or("unknown");
            let msg = terminal.get("message").and_then(Value::as_str).unwrap_or("");
            if msg.is_empty() {
                eprintln!("job ended: {state}");
            } else {
                eprintln!("job ended: {state} ({msg})");
            }
        }
    }
}
