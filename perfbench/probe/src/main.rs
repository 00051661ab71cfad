//! Benchmark probe: runs one step of a `perfbench` workload in a fresh
//! process and prints one JSON report as the last line of stdout.
//!
//! `perfbench/run.py` owns the workloads, the private directories, the
//! repetition and the output checks; this binary only makes the calls
//! into the program's public functions and times them. The step comes
//! from `PERFBENCH_STEP`; the program's own flags (`--seed`, `--threads`,
//! `--workers`) are parsed by `automc_bench::parse_args`, exactly as the
//! reproduction binaries parse them.
//!
//! | step      | timed calls |
//! |-----------|-------------|
//! | `setup`   | `harness::automc_embeddings(full, seed)` — the knowledge set-up call |
//! | `cold`    | `setup`, then `harness::table2_rows(smoke, seed)` |
//! | `table`   | `harness::table2_rows(smoke, seed)` alone (the in-process reference) |
//! | `fleet`   | `DistRunner::start`, `orchestrator::table2_rows_dist`, `DistRunner::shutdown` |
//! | `prepare` | one `scale::prepare_task(smoke, seed)` |
//!
//! With `PERFBENCH_TRACE=1` the same work is split into its public parts
//! (`experience_corpus`, `prepare_task`, `table2_task`, `run_search`) and
//! each call is recorded as a span (name, label, start, end, parent, run
//! id). Spans stay in memory and are printed with the report at exit.
//! `DistRunner` re-executes this binary as its workers (`--connect`);
//! a worker writes its memo and blob-store counters to
//! `PERFBENCH_WORKER_REPORTS` when it shuts down.

use automc_bench::harness::{self, Algo, FinalRow, RunOpts};
use automc_bench::scale::{prepare_task, smoke};
use automc_bench::transport::{self, DistRunner};
use automc_bench::{orchestrator, parse_args, BenchArgs};
use automc_compress::StrategySpace;
use automc_core::progress::{RoundControl, RoundEvent, RoundObserver};
use automc_core::RoundHook;
use automc_json::{obj, ToJson, Value};
use automc_tensor::par;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn main() {
    if std::env::args().any(|a| a == "--connect") {
        std::process::exit(worker());
    }
    let args = parse_args();
    let step = std::env::var("PERFBENCH_STEP").unwrap_or_default();
    let traced = std::env::var("PERFBENCH_TRACE").is_ok_and(|v| v == "1");
    let tracer = Tracer::new(traced);
    let rounds = Arc::new(Rounds::default());
    let mut report: Vec<(&str, Value)> = Vec::new();
    match step.as_str() {
        "setup" => setup(&tracer, args.seed, &mut report),
        "cold" => {
            setup(&tracer, args.seed, &mut report);
            table(&tracer, &rounds, args.seed, &mut report);
        }
        "table" => table(&tracer, &rounds, args.seed, &mut report),
        "fleet" => fleet(&tracer, &args, &mut report),
        "prepare" => {
            let t = Instant::now();
            tracer.span("scale::prepare_task", "", None, |_| {
                prepare_task(&smoke(), args.seed)
            });
            report.push(("prepare_s", t.elapsed().as_secs_f64().to_json()));
        }
        other => {
            eprintln!("perfbench-probe: unknown PERFBENCH_STEP {other:?}");
            std::process::exit(2);
        }
    }
    let store = automc_compress::store::counters();
    report.extend([
        ("step", step.to_json()),
        ("seed", args.seed.to_json()),
        ("threads", (par::current_threads() as u64).to_json()),
        ("spans", tracer.to_json()),
        ("rounds", rounds.to_json()),
        (
            "store",
            obj(vec![
                ("publishes", store.publishes.to_json()),
                ("hits", store.hits.to_json()),
                ("misses", store.misses.to_json()),
            ]),
        ),
        ("cpu_ticks", proc_cpu_ticks().to_json()),
    ]);
    println!("{}", obj(report).to_string_compact());
}

/// The knowledge set-up call. Traced, it is split into the corpus and the
/// TransR/NN_exp embeddings (which then load the corpus just written).
fn setup(tracer: &Tracer, seed: u64, report: &mut Vec<(&str, Value)>) {
    let space = StrategySpace::full();
    let t = Instant::now();
    if tracer.on {
        tracer.span("harness::experience_corpus", "", None, |_| {
            harness::experience_corpus(&space, "full", seed, false)
        });
    }
    tracer.span("harness::automc_embeddings", "", None, |_| {
        harness::automc_embeddings(&space, "full", seed, false, true, true)
    });
    report.push(("setup_s", t.elapsed().as_secs_f64().to_json()));
    // Untimed: the record count is read back from the artifact just written.
    let records = harness::experience_corpus(&space, "full", seed, false)
        .records
        .len();
    report.push(("corpus_records", (records as u64).to_json()));
}

/// The smoke Table 2, as `table2 --smoke` computes it. Traced, the
/// pipeline is rebuilt from its public parts so each gets a span; run.py
/// checks that the traced table equals the untraced one.
fn table(tracer: &Tracer, rounds: &Arc<Rounds>, seed: u64, report: &mut Vec<(&str, Value)>) {
    let t = Instant::now();
    let (band40, band70) = if tracer.on {
        tracer.span("harness::table2_rows", "smoke", None, |id| {
            traced_table2(tracer, rounds, id, seed)
        })
    } else {
        harness::table2_rows(&smoke(), seed, false)
    };
    report.push(("table_s", t.elapsed().as_secs_f64().to_json()));
    report.push(("band40", band40.to_json()));
    report.push(("band70", band70.to_json()));
}

/// `harness::table2_rows` from its public parts: the 12 method-grid tasks
/// and, per search, `run_search` (observed by a benchmark-owned
/// `RoundHook`) followed by its `table2_task`, which reads the history
/// just cached and re-executes the final rows.
fn traced_table2(
    tracer: &Tracer,
    rounds: &Arc<Rounds>,
    parent: Option<usize>,
    seed: u64,
) -> (Vec<FinalRow>, Vec<FinalRow>) {
    let exp = smoke();
    let task = tracer.span("scale::prepare_task", "", parent, |_| {
        prepare_task(&exp, seed)
    });
    let space = StrategySpace::full();
    // Loads the artifacts the set-up call wrote. Left without a span of its
    // own, so the knowledge layer shows only where it computes.
    let emb = harness::automc_embeddings(&space, "full", seed, false, true, true);
    let n_grid = harness::table2_task_count() - Algo::ALL.len();
    let opts = RunOpts {
        hook: RoundHook::new(Arc::clone(rounds) as Arc<dyn RoundObserver>),
        ..RunOpts::default()
    };
    let outs = par::par_map(harness::table2_task_count(), |i| {
        if i < n_grid {
            return tracer.span("harness::table2_task", &format!("grid:{i}"), parent, |_| {
                harness::table2_task(&task, &space, &emb, i, seed, false)
            });
        }
        let algo = Algo::ALL[i - n_grid];
        tracer.span("harness::run_search", algo.name(), parent, |_| {
            harness::run_search_with(
                algo,
                &task,
                &space,
                Some(&emb),
                seed,
                false,
                exp.name,
                &opts,
            )
        });
        tracer.span(
            "harness::table2_task",
            &format!("final:{}", algo.name()),
            parent,
            |_| harness::table2_task(&task, &space, &emb, i, seed, false),
        )
    });
    let mut band40 = vec![FinalRow::baseline(&task)];
    let mut band70 = Vec::new();
    for (band, row) in outs.into_iter().flatten() {
        if band == 0 {
            band40.push(row);
        } else {
            band70.push(row);
        }
    }
    (band40, band70)
}

/// The smoke table over the distributed transport: local self-exec
/// workers (`--workers N`) pull the 17 task units over loopback TCP.
fn fleet(tracer: &Tracer, args: &BenchArgs, report: &mut Vec<(&str, Value)>) {
    let exp = smoke();
    let t = Instant::now();
    let mut runner = tracer
        .span("transport::DistRunner::start", "", None, |_| {
            DistRunner::start(args)
        })
        .unwrap_or_else(|e| {
            eprintln!("perfbench-probe: cannot start the task server: {e}");
            std::process::exit(1);
        });
    let start_s = t.elapsed().as_secs_f64();
    let (band40, band70) = tracer.span("orchestrator::table2_rows_dist", "smoke", None, |_| {
        orchestrator::table2_rows_dist(&mut runner, &exp, args)
    });
    // The result is in once the merge returns; shutdown is clean-up.
    let table_s = t.elapsed().as_secs_f64();
    tracer.span("transport::DistRunner::shutdown", "", None, |_| {
        runner.shutdown()
    });
    report.extend([
        ("start_s", start_s.to_json()),
        ("table_s", table_s.to_json()),
        ("units", (harness::table2_task_count() as u64 + 1).to_json()),
        ("band40", band40.to_json()),
        ("band70", band70.to_json()),
    ]);
}

/// A `DistRunner` worker (`--connect ADDR`). On shutdown it reports its
/// memo counters (thread-local: units run on this thread) and its blob
/// store counters, which the supervisor cannot see, when
/// `PERFBENCH_WORKER_REPORTS` names a directory (traced runs only).
fn worker() -> i32 {
    let args = parse_args();
    let addr = args.connect.clone().unwrap_or_default();
    let code = transport::run_worker_connect(&args, &addr);
    if let Ok(dir) = std::env::var("PERFBENCH_WORKER_REPORTS") {
        let memo = automc_compress::memo::stats();
        let store = automc_compress::store::counters();
        let doc = obj(vec![
            ("memo_lookups", memo.lookups.to_json()),
            ("memo_prefix_hits", memo.prefix_hits.to_json()),
            ("store_publishes", store.publishes.to_json()),
            ("store_hits", store.hits.to_json()),
            ("store_misses", store.misses.to_json()),
        ]);
        // Written under a temporary name and renamed: the supervisor kills
        // workers that outlive its shutdown grace, and a reader must never
        // see half a report.
        let dir = std::path::Path::new(&dir);
        let name = format!("worker-{}.json", std::process::id());
        let tmp = dir.join(format!(".{name}"));
        let written = std::fs::write(&tmp, doc.to_string_compact())
            .and_then(|()| std::fs::rename(&tmp, dir.join(&name)));
        if let Err(e) = written {
            eprintln!("perfbench-probe: cannot write {name}: {e}");
        }
    }
    code
}

/// `utime`, `stime`, `cutime`, `cstime` of this process from
/// `/proc/self/stat`, in clock ticks (children count once waited for).
fn proc_cpu_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse().ok())
        .collect()
}

/// One recorded call.
struct Span {
    name: String,
    label: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder. Each call names its parent span explicitly,
/// so spans opened on pool threads nest under the call that forked them.
struct Tracer {
    on: bool,
    epoch: Instant,
    run: String,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: std::env::var("PERFBENCH_RUN_ID").unwrap_or_default(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f`, recording it as a span when tracing is on. `f` receives
    /// the span's id (`None` untraced) to pass as its children's parent.
    fn span<T>(
        &self,
        name: &str,
        label: &str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name: name.to_string(),
                label: label.to_string(),
                parent,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
        out
    }

    fn to_json(&self) -> Value {
        let spans = self.spans.lock().expect("span recorder poisoned");
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", s.name.to_json()),
                        ("label", s.label.to_json()),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| (p as u64).to_json()),
                        ),
                        ("start", s.start.to_json()),
                        ("end", s.end.to_json()),
                        ("run", self.run.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// Benchmark-owned round observer: the last round event of each search.
#[derive(Default)]
struct Rounds {
    last: Mutex<BTreeMap<String, RoundEvent>>,
}

impl RoundObserver for Rounds {
    fn on_round(&self, ev: &RoundEvent) -> RoundControl {
        self.last
            .lock()
            .expect("round log poisoned")
            .insert(ev.algorithm.clone(), ev.clone());
        RoundControl::Continue
    }
}

impl Rounds {
    fn to_json(&self) -> Value {
        let last = self.last.lock().expect("round log poisoned");
        obj(last
            .iter()
            .map(|(algo, ev)| {
                (
                    algo.as_str(),
                    obj(vec![
                        ("rounds", ev.round.to_json()),
                        ("evals", (ev.evals as u64).to_json()),
                        ("failed", (ev.failed as u64).to_json()),
                        ("spent", ev.spent.to_json()),
                        ("budget", ev.budget.to_json()),
                        ("memo_lookups", ev.memo.lookups.to_json()),
                        ("memo_prefix_hits", ev.memo.prefix_hits.to_json()),
                    ]),
                )
            })
            .collect())
    }
}
