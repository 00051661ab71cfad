//! Crash/resume determinism for all four searches (AutoMC's progressive
//! search and the RL, Evolution and Random baselines), all run by the one
//! search driver: a search stopped after round `k` and resumed from its
//! journal must produce a final history — and therefore a final Pareto
//! set — bitwise identical to a run that was never interrupted, at any
//! thread count. A journal whose learner state does not decode must start
//! a fresh run equal to an un-journaled one, and a journal that cannot be
//! written must be given up without disturbing the run. Also the
//! regression test that a resumed run composes with an active fault plan:
//! each planned fault fires exactly once across the kill/resume boundary.

use automc_compress::{ExecConfig, Metrics, StrategySpace};
use automc_core::journal::{self, JournalOptions};
use automc_core::{
    drive, AutoMc, AutoMcConfig, EvolutionConfig, Random, RlConfig, RoundControl, RoundEvent,
    RoundHook, RoundObserver, SearchBudget, SearchContext, SearchHistory,
};
use automc_data::{DatasetSpec, ImageSet, SyntheticKind};
use automc_json::ToJson;
use automc_models::{resnet, ConvNet};
use automc_tensor::fault::{self, FaultPlan};
use automc_tensor::{par, rng_from_seed};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Clone, Copy)]
enum Algo {
    AutoMc,
    Rl,
    Evolution,
    Random,
}

impl Algo {
    const ALL: [Algo; 4] = [Algo::AutoMc, Algo::Rl, Algo::Evolution, Algo::Random];

    fn name(self) -> &'static str {
        match self {
            Algo::AutoMc => "automc",
            Algo::Rl => "rl",
            Algo::Evolution => "evolution",
            Algo::Random => "random",
        }
    }

    /// Fixture seed; each run's search RNG starts from `seed() + 1`.
    fn seed(self) -> u64 {
        match self {
            Algo::AutoMc => 777,
            _ => 779,
        }
    }

    /// The round after which the interrupted run stops.
    fn kill_round(self) -> u64 {
        match self {
            Algo::AutoMc => 1,
            _ => 2,
        }
    }
}

fn fixture(algo: Algo) -> (ConvNet, ImageSet, ImageSet) {
    let (train, test) = match algo {
        Algo::AutoMc => (100, 50),
        _ => (64, 32),
    };
    let mut rng = rng_from_seed(algo.seed());
    let (train_set, eval_set) = DatasetSpec {
        train,
        test,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    (base, train_set, eval_set)
}

fn run(
    algo: Algo,
    base: &ConvNet,
    train_set: &ImageSet,
    eval_set: &ImageSet,
    opts: &JournalOptions,
) -> SearchHistory {
    let mut base_model = base.clone_net();
    let base_metrics = Metrics::measure(&mut base_model, eval_set);
    let space = StrategySpace::full();
    let ctx = SearchContext {
        space: &space,
        base_model: base,
        base_metrics,
        search_train: train_set,
        eval_set,
        exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
        max_len: 2,
        gamma: 0.2,
        budget: SearchBudget::new(match algo {
            Algo::AutoMc => 5_000,
            _ => 2_500,
        }),
    };
    // Every run restarts the RNG from the same seed: resuming must restore
    // the stream position from the journal, not rely on the caller.
    let mut rng = rng_from_seed(algo.seed() + 1);
    match algo {
        Algo::AutoMc => {
            let embeddings: Vec<Vec<f32>> = (0..space.len())
                .map(|i| vec![(i % 97) as f32 / 97.0, (i % 13) as f32 / 13.0, 0.5, 0.1])
                .collect();
            let cfg = AutoMcConfig { candidate_sample: 32, ..Default::default() };
            drive(&ctx, &AutoMc { embeddings, cfg }, &mut rng, opts)
        }
        Algo::Rl => drive(&ctx, &RlConfig::default(), &mut rng, opts),
        Algo::Evolution => {
            let cfg = EvolutionConfig { population: 4, ..Default::default() };
            drive(&ctx, &cfg, &mut rng, opts)
        }
        Algo::Random => drive(&ctx, &Random, &mut rng, opts),
    }
}

/// Cancels the run at the end of round `k`: the search returns its
/// partial history and keeps its journal, as a killed process would.
struct StopAtRound(u64);

impl RoundObserver for StopAtRound {
    fn on_round(&self, ev: &RoundEvent) -> RoundControl {
        if ev.round >= self.0 {
            RoundControl::Cancel
        } else {
            RoundControl::Continue
        }
    }
}

/// Journal to `path` from scratch and stop after `rounds` rounds.
fn killed_after(path: &Path, rounds: u64) -> JournalOptions {
    JournalOptions {
        path: Some(path.to_path_buf()),
        resume: false,
        hook: RoundHook::new(Arc::new(StopAtRound(rounds))),
    }
}

/// Canonical byte representation of a history, for bitwise comparison.
fn fingerprint(h: &SearchHistory) -> String {
    h.to_json().to_string_pretty()
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "automc-baseline-resume-test-{}-{tag}.journal",
        std::process::id()
    ))
}

/// The run fingerprint a journal on disk was written under.
fn journal_fingerprint(path: &Path) -> u64 {
    let payload = journal::load_checksummed(path).expect("journal envelope");
    let value = automc_json::parse(&payload).expect("journal payload");
    let hex = value.get("fingerprint").and_then(|f| f.as_str()).expect("fingerprint field");
    u64::from_str_radix(hex, 16).expect("hex fingerprint")
}

fn check_resume_identical(algo: Algo, threads: usize) {
    let (base, train_set, eval_set) = fixture(algo);
    par::with_threads(threads, || {
        // Reference: never interrupted, never journaled.
        let reference = run(algo, &base, &train_set, &eval_set, &JournalOptions::default());
        match algo {
            Algo::AutoMc => assert!(
                reference.records.len() > reference.pareto_indices(0.2).len(),
                "fixture too small to be interesting"
            ),
            _ => assert!(
                reference.records.len() >= 3,
                "fixture too small to be interesting ({} evals)",
                reference.records.len()
            ),
        }

        let path = journal_path(&format!("{}-t{threads}", algo.name()));
        let _ = fs::remove_file(&path);

        // Interrupted run: stops after its kill round, leaving its journal
        // behind.
        let interrupted = run(
            algo,
            &base,
            &train_set,
            &eval_set,
            &killed_after(&path, algo.kill_round()),
        );
        assert!(path.exists(), "the crashed run must leave a journal");
        assert!(
            interrupted.records.len() < reference.records.len(),
            "the interrupted run must have stopped early"
        );

        // Resumed run: picks the journal up and finishes.
        let resumed =
            run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "resumed {} history must be bitwise identical (threads={threads})",
            algo.name()
        );
        assert_eq!(
            resumed.pareto_indices(0.2),
            reference.pareto_indices(0.2),
            "resumed Pareto set must be identical (threads={threads})"
        );
        // The prefix recorded before the crash is a prefix of the final log.
        for (a, b) in interrupted.records.iter().zip(&resumed.records) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.acc.to_bits(), b.acc.to_bits());
            assert_eq!(a.cost_so_far, b.cost_so_far);
        }
        assert!(!path.exists(), "journal is deleted on normal completion");

        // A journaled-but-uninterrupted run must equal the un-journaled one.
        let journaled =
            run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(fingerprint(&journaled), fingerprint(&reference));
        let _ = fs::remove_file(&path);
    });
}

#[test]
fn automc_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Algo::AutoMc, 1);
}

#[test]
fn automc_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Algo::AutoMc, 4);
}

#[test]
fn rl_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Algo::Rl, 1);
}

#[test]
fn rl_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Algo::Rl, 4);
}

#[test]
fn evolution_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Algo::Evolution, 1);
}

#[test]
fn evolution_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Algo::Evolution, 4);
}

#[test]
fn random_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Algo::Random, 1);
}

#[test]
fn random_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Algo::Random, 4);
}

/// A journal that passes the checksum and fingerprint checks but whose
/// learner state does not decode starts a fresh run. The driver rewinds
/// the RNG past the learner's initial draws, so the fresh run equals the
/// un-journaled reference draw for draw.
#[test]
fn undecodable_journal_state_starts_a_fresh_run() {
    for algo in Algo::ALL {
        let (base, train_set, eval_set) = fixture(algo);
        par::with_threads(1, || {
            let reference = run(algo, &base, &train_set, &eval_set, &JournalOptions::default());
            let path = journal_path(&format!("{}-undecodable", algo.name()));
            let _ = fs::remove_file(&path);
            run(algo, &base, &train_set, &eval_set, &killed_after(&path, algo.kill_round()));
            let mut j = journal::load(&path, journal_fingerprint(&path))
                .expect("the stopped run's journal loads");
            j.state = b"not a learner state".to_vec();
            journal::save(&path, &j).expect("rewrite the journal");

            let resumed =
                run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&reference),
                "{}: an undecodable journal must restart the run from scratch",
                algo.name()
            );
            assert!(!path.exists(), "{}: the fresh run completes and deletes it", algo.name());
        });
    }
}

/// A journal path under a regular file cannot be written: the first
/// checkpoint fails after its retries, journaling is disabled, and the
/// run finishes with the reference history and no journal.
#[test]
fn unwritable_journal_is_given_up_without_changing_the_run() {
    for algo in Algo::ALL {
        let (base, train_set, eval_set) = fixture(algo);
        par::with_threads(1, || {
            let reference = run(algo, &base, &train_set, &eval_set, &JournalOptions::default());
            let blocker = journal_path(&format!("{}-blocker", algo.name()));
            fs::write(&blocker, b"a regular file").expect("create the blocking file");
            let path = blocker.join("search.journal");

            let history =
                run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
            assert_eq!(
                fingerprint(&history),
                fingerprint(&reference),
                "{}: a failing journal must not change the run",
                algo.name()
            );
            assert!(!path.exists() && !journal::blob_dir(&path).exists());
            assert_eq!(fs::read(&blocker).expect("blocking file"), b"a regular file");
            let _ = fs::remove_file(&blocker);
        });
    }
}

/// Regression test for the fault-counter journaling: with a fault plan
/// active, killing the run after the fault fired and resuming (with a
/// freshly-installed plan, as a restarted process would have) must inject
/// the fault exactly once overall — the journaled counters carry the
/// "already fired" position across the restart.
#[test]
fn planned_faults_fire_exactly_once_across_resume() {
    let (base, train_set, eval_set) = fixture(Algo::Random);
    par::with_threads(1, || {
        let plan = || FaultPlan::parse("panic@eval:2").expect("valid plan");
        let panicked = |h: &SearchHistory| {
            h.records
                .iter()
                .filter(|r| matches!(r.status, automc_core::EvalStatus::Panicked(_)))
                .count()
        };

        // Reference: the plan runs uninterrupted; the second evaluation
        // panics and is recorded as infeasible.
        fault::install(plan());
        let reference =
            run(Algo::Random, &base, &train_set, &eval_set, &JournalOptions::default());
        fault::clear();
        assert_eq!(panicked(&reference), 1, "the plan fires once uninterrupted");

        let path = journal_path("fault-once");
        let _ = fs::remove_file(&path);

        // Interrupted run: the fault fires on evaluation 2, the run dies
        // (simulated) after evaluation 3 — after the journal recorded the
        // fault counters.
        fault::install(plan());
        let interrupted =
            run(Algo::Random, &base, &train_set, &eval_set, &killed_after(&path, 3));
        fault::clear();
        assert_eq!(panicked(&interrupted), 1, "the fault fired before the kill");
        assert!(path.exists());

        // Resumed run in a "fresh process": the plan is installed anew
        // (counters at zero). Without counter journaling, `panic@eval:2`
        // would fire a second time two evaluations into the resumed run.
        fault::install(plan());
        let resumed = run(
            Algo::Random,
            &base,
            &train_set,
            &eval_set,
            &JournalOptions::resuming(path.clone()),
        );
        fault::clear();
        assert_eq!(
            panicked(&resumed),
            1,
            "each planned fault must fire exactly once across the restart"
        );
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "fault-injected resume must still be bitwise identical"
        );
        let _ = fs::remove_file(&path);
    });
}
