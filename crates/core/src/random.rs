//! Random search — the standard AutoML baseline: sample whole schemes
//! uniformly and evaluate them end to end.

use crate::context::SearchContext;
use crate::driver::{Candidate, Searcher};
use crate::journal::NodeSnapshot;
use automc_compress::Scheme;
use automc_tensor::Rng;
use rand::Rng as _;

/// A uniformly random scheme of 1 to `max_len` strategies.
pub(crate) fn random_scheme(ctx: &SearchContext<'_>, rng: &mut Rng) -> Scheme {
    let len = rng.gen_range(1..=ctx.max_len);
    (0..len).map(|_| rng.gen_range(0..ctx.space.len())).collect()
}

/// Random search. It has no learner, so its journal `state` stays empty:
/// the resumable state is the history, the RNG stream, the budget spent
/// and the fault-injection counters, all owned by [`crate::drive`].
#[derive(Debug, Clone, Copy)]
pub struct Random;

impl Searcher for Random {
    type State = ();
    const NAME: &'static str = "Random";
    const TAG: &'static str = "AutoMC-random-v3";

    fn config_words(&self) -> Vec<u64> {
        Vec::new()
    }

    fn init(&self, _ctx: &SearchContext<'_>, _rng: &mut Rng) {}

    fn propose(&self, _st: &mut (), ctx: &SearchContext<'_>, rng: &mut Rng) -> Option<Vec<Candidate>> {
        Some(vec![Candidate { scheme: random_scheme(ctx, rng), prefix_cost: 0 }])
    }

    fn snapshot(&self, _st: &()) -> (Vec<u8>, Vec<NodeSnapshot>) {
        (Vec::new(), Vec::new())
    }

    fn restore(
        &self,
        _st: &mut (),
        _ctx: &SearchContext<'_>,
        state: &[u8],
        _nodes: Vec<NodeSnapshot>,
    ) -> Option<()> {
        state.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SearchBudget, SearchContext};
    use crate::driver::drive;
    use crate::history::EvalStatus;
    use crate::journal::JournalOptions;
    use automc_compress::{ExecConfig, Metrics, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_tensor::rng_from_seed;

    #[test]
    fn random_search_respects_budget_and_length() {
        let mut rng = rng_from_seed(320);
        let (train_set, eval_set) = DatasetSpec {
            train: 100,
            test: 60,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
            max_len: 2,
            gamma: 0.2,
            budget: SearchBudget::new(4_000),
        };
        let history = drive(&ctx, &Random, &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty());
        assert!(history.records.iter().all(|r| (1..=2).contains(&r.scheme.len())));
        assert!(history.total_cost() >= ctx.budget.units);
    }

    #[test]
    fn random_search_degrades_gracefully_under_faults() {
        use automc_tensor::fault::{self, FaultPlan};

        let mut rng = rng_from_seed(321);
        let (train_set, eval_set) = DatasetSpec {
            train: 80,
            test: 40,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
            max_len: 2,
            gamma: 0.2,
            budget: SearchBudget::new(3_000),
        };
        // Panic the very first evaluation and poison an early training run;
        // the search must absorb both and still exhaust its budget.
        fault::install(FaultPlan::parse("panic@eval:1,nan@train:2").unwrap());
        let history = drive(&ctx, &Random, &mut rng, &JournalOptions::default());
        fault::clear();
        assert!(history.total_cost() >= ctx.budget.units, "search must finish");
        assert!(history.failed_count() >= 1, "injected faults must be recorded");
        assert!(
            history.records.iter().any(|r| matches!(r.status, EvalStatus::Panicked(_))),
            "the first evaluation was panicked by the plan"
        );
        // Failures never reach the reported front.
        for i in history.pareto_indices(0.0) {
            assert!(history.records[i].is_feasible());
        }
    }
}
