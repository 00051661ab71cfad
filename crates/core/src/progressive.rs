//! Algorithm 2 — AutoMC's progressive search.
//!
//! The search space is explored *one strategy at a time*: each round the
//! evaluator `F_mo` scores all unexplored one-step extensions of a
//! sampled set of evaluated schemes (Eq. 4), the predicted-Pareto-optimal
//! extensions are executed for real (costing a *single* strategy
//! application thanks to the cached prefix), and `F_mo` is retrained on
//! the observed deltas (Eq. 5). Newly evaluated schemes join the history
//! and expand the frontier for the next round.
//!
//! The compressed prefix models live in the shared prefix cache
//! (`automc_compress::memo`), not here: a frontier node holds only its
//! scheme, metrics, cumulative cost and the extensions already tried.

use crate::context::SearchContext;
use crate::driver::{Candidate, Searcher};
use crate::fmo::{Fmo, StepSample};
use crate::journal::NodeSnapshot;
use crate::pareto;
use automc_compress::{EvalCost, Metrics, Scheme, SchemeOutcome, StrategyId};
use automc_tensor::Rng;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Knobs of the progressive search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoMcConfig {
    /// Schemes sampled from the history per round (`H_sub`).
    pub sample_schemes: usize,
    /// Maximum real evaluations per round (cap on `|ParetoO|`).
    pub evals_per_round: usize,
    /// Candidates scored per sampled scheme (0 = the whole space).
    pub candidate_sample: usize,
    /// `F_mo` training epochs per round.
    pub fmo_train_epochs: usize,
}

impl Default for AutoMcConfig {
    fn default() -> Self {
        AutoMcConfig {
            sample_schemes: 6,
            evals_per_round: 4,
            candidate_sample: 512,
            fmo_train_epochs: 3,
        }
    }
}

/// An evaluated scheme open for extension.
struct Node {
    scheme: Scheme,
    metrics: Metrics,
    /// Cumulative execution cost of the scheme from the base model;
    /// one-step extensions are charged their *marginal* cost over this.
    cost: EvalCost,
    explored: HashSet<StrategyId>,
}

/// AutoMC's progressive search (Algorithm 2): the strategy embeddings it
/// scores candidates with and its knobs. Returns, through
/// [`crate::drive`], the full evaluation history; the Pareto-optimal
/// schemes with `PR ≥ γ` are the paper's final output
/// (`SearchHistory::pareto_indices`).
#[derive(Debug, Clone)]
pub struct AutoMc {
    /// One Algorithm 1 embedding per strategy of the space (ablations pass
    /// differently learned ones).
    pub embeddings: Vec<Vec<f32>>,
    /// Search knobs.
    pub cfg: AutoMcConfig,
}

/// The progressive search's learner: `F_mo`, every evaluated scheme open
/// for extension, and the extensions proposed this round.
pub struct Frontier {
    fmo: Fmo,
    nodes: Vec<Node>,
    /// `(node index, strategy)` of each candidate of the current round.
    proposed: Vec<(usize, StrategyId)>,
}

impl Searcher for AutoMc {
    type State = Frontier;
    const NAME: &'static str = "AutoMC";
    const TAG: &'static str = "AutoMC-progressive-v3";

    fn config_words(&self) -> Vec<u64> {
        vec![
            self.cfg.sample_schemes as u64,
            self.cfg.evals_per_round as u64,
            self.cfg.candidate_sample as u64,
            self.cfg.fmo_train_epochs as u64,
        ]
    }

    fn fingerprint_tail(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for row in &self.embeddings {
            buf.extend_from_slice(&(row.len() as u64).to_le_bytes());
            for &v in row {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        buf
    }

    fn init(&self, ctx: &SearchContext<'_>, rng: &mut Rng) -> Frontier {
        assert_eq!(self.embeddings.len(), ctx.space.len(), "one embedding per strategy");
        Frontier {
            fmo: Fmo::new(self.embeddings.clone(), rng),
            nodes: vec![Node {
                scheme: Vec::new(),
                metrics: ctx.base_metrics,
                cost: EvalCost::default(),
                explored: HashSet::new(),
            }],
            proposed: Vec::new(),
        }
    }

    /// Score one-step extensions of a sample of evaluated schemes with
    /// `F_mo` and propose the predicted-Pareto-optimal ones. Each
    /// re-executes its *full* scheme; the shared prefix cache serves the
    /// node's already-evaluated prefix, so the extension costs a single
    /// strategy application and is charged only that marginal cost.
    fn propose(
        &self,
        fr: &mut Frontier,
        ctx: &SearchContext<'_>,
        rng: &mut Rng,
    ) -> Option<Vec<Candidate>> {
        let cfg = &self.cfg;
        let nodes = &fr.nodes;
        // ---- Sample H_sub: Pareto-front nodes plus random extras. ------
        let extendable: Vec<usize> = (0..nodes.len())
            .filter(|&i| ctx.can_extend(nodes[i].scheme.len()))
            .filter(|&i| nodes[i].explored.len() < ctx.space.len())
            .collect();
        if extendable.is_empty() {
            return None;
        }
        let points: Vec<(f32, f32)> = extendable
            .iter()
            .map(|&i| {
                let m = &nodes[i].metrics;
                (m.acc, -(m.params as f32))
            })
            .collect();
        let front = pareto::pareto_front(&points);
        let mut picked: Vec<usize> = front.iter().map(|&k| extendable[k]).collect();
        picked.truncate(cfg.sample_schemes);
        if picked.len() < cfg.sample_schemes {
            let mut rest: Vec<usize> = extendable
                .iter()
                .copied()
                .filter(|i| !picked.contains(i))
                .collect();
            rest.shuffle(rng);
            picked.extend(rest.into_iter().take(cfg.sample_schemes - picked.len()));
        }

        // ---- Score one-step extensions with F_mo (Eq. 4). --------------
        // Candidate tuples: (node index, strategy, ACC_pred, PAR_pred).
        let mut tuples: Vec<(usize, StrategyId, f32, f32)> = Vec::new();
        for &ni in &picked {
            let node_state = [
                nodes[ni].metrics.acc,
                nodes[ni].metrics.params as f32 / ctx.base_metrics.params.max(1) as f32,
            ];
            let mut cands: Vec<StrategyId> = (0..ctx.space.len())
                .filter(|s| !nodes[ni].explored.contains(s))
                .collect();
            if cfg.candidate_sample > 0 && cands.len() > cfg.candidate_sample {
                cands.shuffle(rng);
                cands.truncate(cfg.candidate_sample);
            }
            let preds = fr.fmo.predict_batch(&nodes[ni].scheme, node_state, &cands);
            for (c, (ar_hat, pr_hat)) in cands.into_iter().zip(preds) {
                let acc_pred = nodes[ni].metrics.acc * (1.0 + ar_hat);
                let par_pred = nodes[ni].metrics.params as f32 * (1.0 - pr_hat);
                tuples.push((ni, c, acc_pred, par_pred));
            }
        }
        if tuples.is_empty() {
            return None;
        }

        // ---- ParetoO: maximise ACC, minimise PAR. -----------------------
        let objective: Vec<(f32, f32)> =
            tuples.iter().map(|t| (t.2, -t.3)).collect();
        let mut chosen = pareto::pareto_front(&objective);
        chosen.shuffle(rng);
        chosen.truncate(cfg.evals_per_round);
        fr.proposed = chosen.iter().map(|&ti| (tuples[ti].0, tuples[ti].1)).collect();
        Some(
            fr.proposed
                .iter()
                .map(|&(ni, cand)| {
                    let mut scheme = nodes[ni].scheme.clone();
                    scheme.push(cand);
                    Candidate { scheme, prefix_cost: nodes[ni].cost.units() }
                })
                .collect(),
        )
    }

    /// Mark the extension explored; a successful one becomes a new node and
    /// an Eq. 5 training sample for `F_mo`.
    fn observe(
        &self,
        fr: &mut Frontier,
        ctx: &SearchContext<'_>,
        i: usize,
        scheme: Scheme,
        evaluated: Option<SchemeOutcome>,
    ) {
        let (ni, cand) = fr.proposed[i];
        fr.nodes[ni].explored.insert(cand);
        let Some(outcome) = evaluated else { return };
        let prev = fr.nodes[ni].metrics;
        let metrics = outcome.metrics;
        fr.fmo.observe(StepSample {
            seq: fr.nodes[ni].scheme.clone(),
            cand,
            state: [prev.acc, prev.params as f32 / ctx.base_metrics.params.max(1) as f32],
            ar_step: metrics.ar(&prev),
            pr_step: metrics.pr(&prev),
        });
        fr.nodes.push(Node {
            scheme,
            metrics,
            cost: outcome.cost,
            explored: HashSet::new(),
        });
    }

    /// Retrain `F_mo` on everything observed so far (Eq. 5).
    fn end_round(&self, fr: &mut Frontier, rng: &mut Rng) {
        fr.fmo.train(self.cfg.fmo_train_epochs, rng);
    }

    fn snapshot(&self, fr: &Frontier) -> (Vec<u8>, Vec<NodeSnapshot>) {
        let nodes = fr
            .nodes
            .iter()
            .map(|n| {
                let mut explored: Vec<StrategyId> = n.explored.iter().copied().collect();
                explored.sort_unstable();
                NodeSnapshot {
                    scheme: n.scheme.clone(),
                    metrics: n.metrics,
                    cost: n.cost,
                    explored,
                }
            })
            .collect();
        (fr.fmo.state_to_bytes(), nodes)
    }

    fn restore(
        &self,
        fr: &mut Frontier,
        _ctx: &SearchContext<'_>,
        state: &[u8],
        nodes: Vec<NodeSnapshot>,
    ) -> Option<()> {
        fr.fmo.restore_state(state)?;
        fr.nodes = nodes
            .into_iter()
            .map(|snap| Node {
                scheme: snap.scheme,
                metrics: snap.metrics,
                cost: snap.cost,
                explored: snap.explored.into_iter().collect(),
            })
            .collect();
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SearchBudget, SearchContext};
    use crate::driver::drive;
    use crate::journal::JournalOptions;
    use automc_compress::{ExecConfig, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_models::train::{train, Auxiliary, TrainConfig};
    use automc_tensor::rng_from_seed;

    #[test]
    fn progressive_search_finds_feasible_schemes() {
        let mut rng = rng_from_seed(310);
        let (train_set, eval_set) = DatasetSpec {
            train: 160,
            test: 80,
            noise: 0.25,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        train(
            &mut base,
            &train_set,
            &TrainConfig { epochs: 4.0, ..Default::default() },
            Auxiliary::None,
            &mut rng,
        );
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 4.0, ..Default::default() },
            max_len: 3,
            gamma: 0.2,
            budget: SearchBudget::new(8_000),
        };
        // Cheap random embeddings: the search must function even with
        // uninformative priors (the ablations rely on this).
        let emb: Vec<Vec<f32>> = (0..space.len())
            .map(|i| vec![(i % 97) as f32 / 97.0, (i % 13) as f32 / 13.0, 0.5, 0.1])
            .collect();
        let searcher = AutoMc {
            embeddings: emb,
            cfg: AutoMcConfig { candidate_sample: 64, ..Default::default() },
        };
        let history = drive(&ctx, &searcher, &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty(), "search evaluated nothing");
        assert!(history.total_cost() >= ctx.budget.units.min(1));
        // At least one scheme should achieve meaningful reduction.
        assert!(
            history.records.iter().any(|r| r.pr > 0.1),
            "no scheme reduced parameters"
        );
        // Scheme lengths respect L.
        assert!(history.records.iter().all(|r| r.scheme.len() <= 3));
        // Costs are monotone.
        assert!(history
            .records
            .windows(2)
            .all(|w| w[1].cost_so_far >= w[0].cost_so_far));
    }
}
