//! The one search loop shared by all four strategies.
//!
//! [`drive`] owns everything AutoMC's progressive search and the RL,
//! Evolution and Random baselines have in common: the run fingerprint,
//! resuming from a journal (or starting fresh), the pre-eval intent
//! record, the supervised evaluation and its budget charge, the history
//! record, the round checkpoint with its retry-then-disable policy, the
//! round hook, and discarding the journal once the run completes. A
//! [`Searcher`] supplies only what differs between the strategies: its
//! name and fingerprint words, learner initialisation, each round's
//! candidates, learning from each outcome, end-of-round work, and its
//! journal state.

use crate::context::SearchContext;
use crate::history::{EvalRecord, EvalStatus, SearchHistory};
use crate::journal::{self, JournalOptions, NodeSnapshot, SearchJournal};
use crate::progress::{RoundControl, RoundEvent};
use automc_compress::store::fnv1a64;
use automc_compress::{execute_scheme_checked, EvalOutcome, Scheme, SchemeOutcome};
use automc_tensor::{fault, Rng};

/// One scheme a [`Searcher`] asks the driver to evaluate.
#[derive(Debug)]
pub struct Candidate {
    /// The full strategy sequence, executed from the base model.
    pub scheme: Scheme,
    /// Cost units already paid for a cached prefix of `scheme` (AutoMC's
    /// extended node); the driver charges only the marginal cost. Zero for
    /// searchers that evaluate whole schemes.
    pub prefix_cost: u64,
}

/// The part of a search strategy that [`drive`] does not own.
pub trait Searcher {
    /// Learner state of one run (population, controller, `F_mo` and its
    /// frontier).
    type State;
    /// History label; also named in the resume message.
    const NAME: &'static str;
    /// Version tag hashed first into the run fingerprint. Bump it whenever
    /// the journal state or the RNG draw order changes: an old journal
    /// must not resume a new binary.
    const TAG: &'static str;

    /// Configuration words hashed after the problem-instance words.
    fn config_words(&self) -> Vec<u64>;

    /// Bytes hashed after the RNG's starting state (AutoMC's embeddings).
    fn fingerprint_tail(&self) -> Vec<u8> {
        Vec::new()
    }

    /// A fresh learner, drawing its initial weights from `rng`.
    fn init(&self, ctx: &SearchContext<'_>, rng: &mut Rng) -> Self::State;

    /// The next round's candidates, in evaluation order; `None` ends the
    /// search. The driver checks the budget before each candidate, so a
    /// round may evaluate only a prefix of its batch.
    fn propose(
        &self,
        st: &mut Self::State,
        ctx: &SearchContext<'_>,
        rng: &mut Rng,
    ) -> Option<Vec<Candidate>>;

    /// Learn from candidate `i` of the current round: its outcome, or
    /// `None` when the evaluation failed. The default learns nothing.
    fn observe(
        &self,
        _st: &mut Self::State,
        _ctx: &SearchContext<'_>,
        _i: usize,
        _scheme: Scheme,
        _evaluated: Option<SchemeOutcome>,
    ) {
    }

    /// Work after a round's evaluations, before its checkpoint.
    fn end_round(&self, _st: &mut Self::State, _rng: &mut Rng) {}

    /// The journal form of the learner: an opaque state blob and the
    /// extension nodes (empty for whole-scheme searchers).
    fn snapshot(&self, st: &Self::State) -> (Vec<u8>, Vec<NodeSnapshot>);

    /// Restore a journaled learner into `st`, which [`Searcher::init`]
    /// built. `None` when the state does not decode; `st` may then be
    /// partly overwritten, and the driver rebuilds it.
    fn restore(
        &self,
        st: &mut Self::State,
        ctx: &SearchContext<'_>,
        state: &[u8],
        nodes: Vec<NodeSnapshot>,
    ) -> Option<()>;
}

/// Hash everything that shapes a run: the searcher's tag, the problem
/// instance, its configuration, the RNG's starting state and the
/// searcher's tail bytes. A journal only resumes a run with the same
/// fingerprint.
fn search_fingerprint<S: Searcher>(
    ctx: &SearchContext<'_>,
    searcher: &S,
    rng_state: [u64; 4],
) -> u64 {
    let mut buf = S::TAG.as_bytes().to_vec();
    for w in ctx.fingerprint_words().into_iter().chain(searcher.config_words()) {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    for w in rng_state {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend(searcher.fingerprint_tail());
    fnv1a64(&buf)
}

/// Run `searcher` until the budget is exhausted or it has nothing left to
/// propose, and return the full evaluation history.
///
/// Every evaluation is supervised: a panicking, diverging or timed-out
/// candidate is recorded as an infeasible [`EvalStatus`] failure, still
/// charged at least one evaluation pass, and the search continues.
///
/// With `opts.path` set, the complete resumable state is journaled after
/// every round with atomic writes; a write that keeps failing disables
/// journaling for the rest of the run. With `opts.resume`, a valid
/// journal is restored and the run continues *bitwise identically* to one
/// that was never interrupted; a journal that does not decode starts a
/// fresh run, equal draw for draw to an un-journaled one. When
/// `opts.hook` cancels at a round boundary the partial history is
/// returned and the journal kept; a completed run deletes it.
pub fn drive<S: Searcher>(
    ctx: &SearchContext<'_>,
    searcher: &S,
    rng: &mut Rng,
    opts: &JournalOptions,
) -> SearchHistory {
    let fingerprint = search_fingerprint(ctx, searcher, rng.state());
    let loaded = if opts.resume {
        opts.path.as_deref().and_then(|p| journal::load(p, fingerprint))
    } else {
        None
    };

    // Build the learner unconditionally, so a fresh (or failed-restore)
    // run consumes exactly the same RNG draws as an un-journaled one.
    let pre_init_rng = rng.state();
    let mut st = searcher.init(ctx, rng);
    let mut history = SearchHistory::new(S::NAME);
    let mut spent = 0u64;
    let mut round = 0u64;
    if let Some(j) = loaded {
        if searcher.restore(&mut st, ctx, &j.state, j.nodes).is_some() {
            history = j.history;
            spent = j.spent;
            round = j.round;
            *rng = Rng::from_state(j.rng);
            fault::restore_counters(&j.fault_counters);
            eprintln!(
                "[journal] resumed {} search at round {round} ({spent}/{} units spent)",
                S::NAME,
                ctx.budget.units
            );
        } else {
            eprintln!("warning: journal passed validation but did not decode; starting fresh");
            *rng = Rng::from_state(pre_init_rng);
            st = searcher.init(ctx, rng);
        }
    }

    // Persistent-failure policy: a journal write that still fails after
    // bounded retries disables journaling for the rest of the run, rather
    // than leaving a stale checkpoint on disk that a resume would trust.
    let mut journal_to = opts.path.as_deref();
    let memo_start = automc_compress::memo::stats();
    let floor = (ctx.eval_set.len() as u64).max(1);
    while spent < ctx.budget.units {
        let Some(batch) = searcher.propose(&mut st, ctx, rng) else { break };
        for (i, cand) in batch.into_iter().enumerate() {
            if spent >= ctx.budget.units {
                break;
            }
            journal::record_eval_intent(journal_to, fingerprint);
            let result = execute_scheme_checked(
                ctx.base_model,
                &ctx.base_metrics,
                &cand.scheme,
                ctx.space,
                ctx.search_train,
                ctx.eval_set,
                &ctx.exec,
            );
            // Floored at one evaluation pass, so a candidate that fails
            // instantly still drains the budget.
            spent += result.cost().units().saturating_sub(cand.prefix_cost).max(floor);
            let failure = |status| EvalRecord::failure(cand.scheme.clone(), status, spent);
            // The compressed model is dropped here: the prefix cache keeps
            // what a later extension of this scheme needs.
            let (record, evaluated) = match result {
                EvalOutcome::Ok { outcome, .. } => (
                    EvalRecord::from_outcome(cand.scheme.clone(), &outcome, spent),
                    Some(outcome),
                ),
                EvalOutcome::Diverged { .. } => (failure(EvalStatus::Diverged), None),
                EvalOutcome::Panicked { msg, .. } => (failure(EvalStatus::Panicked(msg)), None),
                EvalOutcome::TimedOut { .. } => (failure(EvalStatus::TimedOut), None),
            };
            history.records.push(record);
            searcher.observe(&mut st, ctx, i, cand.scheme, evaluated);
        }
        searcher.end_round(&mut st, rng);
        round += 1;

        if let Some(path) = journal_to {
            let (state, nodes) = searcher.snapshot(&st);
            let snap = SearchJournal {
                fingerprint,
                round,
                spent,
                rng: rng.state(),
                history: history.clone(),
                state,
                nodes,
                fault_counters: fault::counters(),
            };
            if let Err(e) = journal::save(path, &snap) {
                eprintln!(
                    "warning: journal {} keeps failing ({e}); journaling disabled \
                     for the rest of this run",
                    path.display()
                );
                journal::discard(path);
                journal_to = None;
            }
        }
        if opts.hook.is_set() {
            let ev = RoundEvent::from_history(
                &history,
                ctx.gamma,
                round,
                spent,
                ctx.budget.units,
                &memo_start,
            );
            if opts.hook.observe(&ev) == RoundControl::Cancel {
                // Stop at this boundary; the journal stays on disk so a
                // resubmitted run resumes here.
                return history;
            }
        }
    }
    if let Some(path) = opts.path.as_deref() {
        journal::discard(path);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SearchBudget;
    use crate::{AutoMc, AutoMcConfig, EvolutionConfig, Random, RlConfig};
    use automc_compress::{ExecConfig, Metrics, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_tensor::rng_from_seed;

    /// The fingerprints the per-algorithm search loops computed before the
    /// driver existed, for one fixed context, configuration, embedding set
    /// and seed: journals written by those builds must keep resuming.
    #[test]
    fn run_fingerprints_are_pinned() {
        let (train_set, eval_set) =
            DatasetSpec { train: 16, test: 8, ..DatasetSpec::new(SyntheticKind::Cifar10Like) }
                .generate();
        let base = resnet(20, 4, 10, (3, 8, 8), &mut rng_from_seed(1));
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics: Metrics { acc: 0.8125, params: 4_321, flops: 98_765 },
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 1.0, ..Default::default() },
            max_len: 3,
            gamma: 0.3,
            budget: SearchBudget::new(7_000),
        };
        let embeddings: Vec<Vec<f32>> = (0..space.len())
            .map(|i| vec![(i % 7) as f32 / 7.0, 0.5, -(i as f32) * 0.01])
            .collect();
        let rng = rng_from_seed(2024).state();
        let automc = AutoMc {
            embeddings,
            cfg: AutoMcConfig { candidate_sample: 64, ..Default::default() },
        };
        let evolution = EvolutionConfig { population: 6, mutation_rate: 0.25 };
        let rl = RlConfig { hidden: 24, ..Default::default() };
        assert_eq!(search_fingerprint(&ctx, &automc, rng), 0x452b_bcf7_3dc7_a1ca);
        assert_eq!(search_fingerprint(&ctx, &evolution, rng), 0xa0ee_da07_fcd3_1f09);
        assert_eq!(search_fingerprint(&ctx, &rl, rng), 0xb7e0_5185_9ace_2cdc);
        assert_eq!(search_fingerprint(&ctx, &Random, rng), 0x5200_9533_a67e_3f35);
    }
}
