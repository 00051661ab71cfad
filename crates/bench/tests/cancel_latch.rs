//! A run counts as cancelled only when a search actually stopped at a
//! round boundary (or a grid task was skipped), never because the hook
//! reads "cancelled" after the work returned: a cancel that lands after
//! the last round leaves a finished search — cached, journal discarded —
//! not a "cancelled" one whose journal is already gone.

use automc_bench::cache;
use automc_bench::harness::{
    run_fingerprint, run_search_with, table2_task_count, table2_task_with, Algo, RunOpts,
};
use automc_bench::scale::{exp1, prepare_task, ExperimentScale, PreparedTask};
use automc_compress::{MethodId, StrategySpace};
use automc_core::{RoundControl, RoundEvent, RoundHook, RoundObserver, SearchHistory};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

const SEED: u64 = 5;

fn tiny() -> ExperimentScale {
    ExperimentScale {
        name: "cancel",
        model: automc_models::ModelKind::ResNet(20),
        train: 120,
        test: 60,
        pretrain_epochs: 2.0,
        budget_units: 2_000,
        ..exp1()
    }
}

/// One results dir for this test binary (the cache reads it from the
/// environment, which every test thread shares).
fn results_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("automc-cancel-latch-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("results dir");
        std::env::set_var("AUTOMC_RESULTS_DIR", &dir);
        dir
    })
}

fn journal_dir(name: &str) -> PathBuf {
    let dir = results_dir().join(name);
    std::fs::create_dir_all(&dir).expect("journal dir");
    dir
}

/// Never stops a search, but reads "cancelled" once any search has
/// reported a round with its budget spent — a cancel that arrives after
/// the work is done. `armed` starts it out cancelled.
#[derive(Default)]
struct LateCancel {
    armed: AtomicBool,
}

impl RoundObserver for LateCancel {
    fn on_round(&self, ev: &RoundEvent) -> RoundControl {
        if ev.spent >= ev.budget {
            self.armed.store(true, Ordering::SeqCst);
        }
        RoundControl::Continue
    }

    fn cancelled(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

/// Stops every search at its first round boundary.
struct CancelFirstRound;

impl RoundObserver for CancelFirstRound {
    fn on_round(&self, _: &RoundEvent) -> RoundControl {
        RoundControl::Cancel
    }
}

fn setup() -> (PreparedTask, StrategySpace) {
    results_dir();
    (prepare_task(&tiny(), SEED), StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]))
}

fn opts(observer: Arc<dyn RoundObserver>, journals: &str) -> RunOpts {
    RunOpts { hook: RoundHook::new(observer), journal_dir: Some(journal_dir(journals)) }
}

fn cached_history(key: &str) -> Option<SearchHistory> {
    cache::load(key, &run_fingerprint(&tiny(), SEED))
}

#[test]
fn a_cancel_after_the_last_round_leaves_a_finished_search() {
    let (task, space) = setup();
    let late = Arc::new(LateCancel::default());
    let run_opts = opts(late.clone(), "late");
    let history = run_search_with(Algo::Random, &task, &space, None, SEED, true, "late", &run_opts);
    assert!(late.cancelled(), "the cancel must have landed after the last round");
    let history = history.expect("a search that spent its budget is finished, not cancelled");
    assert!(history.total_cost() >= tiny().budget_units);
    assert!(cached_history("late_s5_random").is_some(), "a finished search must be cached");
    assert!(
        !journal_dir("late").join("late_s5_random.journal").exists(),
        "a finished search discards its journal"
    );

    // The same through a Table 2 grid task (the last one, Random).
    let late = Arc::new(LateCancel::default());
    let random = table2_task_count() - 1;
    let run_opts = opts(late.clone(), "grid");
    let rows = table2_task_with(&task, &space, &[], random, SEED, true, &run_opts);
    assert!(late.cancelled(), "the cancel must have landed after the last round");
    let rows = rows.expect("a grid task whose search finished is not cancelled");
    assert_eq!(rows.len(), 2, "one row per PR band");
}

#[test]
fn a_cancel_at_a_round_boundary_keeps_the_journal_and_caches_nothing() {
    let (task, space) = setup();
    let history = run_search_with(
        Algo::Random,
        &task,
        &space,
        None,
        SEED,
        true,
        "early",
        &opts(Arc::new(CancelFirstRound), "early"),
    );
    assert!(history.is_none(), "a search stopped at a round boundary is cancelled");
    assert!(cached_history("early_s5_random").is_none(), "a partial history must not be cached");
    assert!(
        journal_dir("early").join("early_s5_random.journal").exists(),
        "a cancelled search keeps its journal for the resumed run"
    );

    // A grid task the hook cancelled before it started is skipped.
    let cancelled = Arc::new(LateCancel { armed: AtomicBool::new(true) });
    let rows = table2_task_with(&task, &space, &[], 0, SEED, true, &opts(cancelled, "skip"));
    assert!(rows.is_none(), "a skipped grid task must read as cancelled");
}
