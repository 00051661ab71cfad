//! # automc-knowledge
//!
//! AutoMC's domain-knowledge subsystem (paper §3.3.1, Algorithm 1):
//!
//! 1. [`KnowledgeGraph`] — entities `E1`–`E5` (strategy, method,
//!    hyperparameter, HP setting, technique) connected by relations
//!    `R1`–`R5`, built mechanically from the strategy space (Fig. 2a).
//! 2. [`TransR`] — knowledge-graph embedding by the translation principle
//!    `W_r·e_h + e_r ≈ W_r·e_t` (Eq. 2), trained with margin ranking and
//!    negative sampling.
//! 3. [`ExperienceCorpus`] — tuples `(strategy, task, AR, PR)`. The paper
//!    harvests these from published papers; this reproduction *generates*
//!    them by actually executing strategies on a bank of small seeded
//!    tasks (see `DESIGN.md` §2 — same object, same informativeness).
//! 4. [`NnExp`] — the experience network (Fig. 2b) that refines strategy
//!    embeddings by predicting `(AR, PR)` from `(e_strategy, e_task)`
//!    (Eq. 3), backpropagating into the embeddings.
//! 5. [`learn_embeddings`] — Algorithm 1: alternate TransR epochs with
//!    experience-based refinement and return the final high-level
//!    strategy embeddings.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod experience;
mod kg;
mod nn_exp;
mod transr;

pub use experience::{
    generate_experience, ExperienceCorpus, ExperienceRecord, MicroTask, CORPUS_VERSION,
};
pub use kg::{KnowledgeGraph, Relation};
pub use nn_exp::NnExp;
pub use transr::{TransR, TransRConfig};

use automc_compress::StrategySpace;
use automc_tensor::Rng;

/// Configuration for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbeddingConfig {
    /// Strategy-embedding dimension (paper: 32).
    pub dim: usize,
    /// TransR relation-space dimension.
    pub rel_dim: usize,
    /// Outer training epochs (`TrainEpoch` in Algorithm 1).
    pub epochs: usize,
    /// TransR margin.
    pub margin: f32,
    /// TransR SGD learning rate.
    pub transr_lr: f32,
    /// NN_exp Adam learning rate (paper: 0.001).
    pub nn_exp_lr: f32,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            dim: 32,
            rel_dim: 16,
            epochs: 8,
            margin: 1.0,
            transr_lr: 0.02,
            nn_exp_lr: 1e-3,
        }
    }
}

/// Algorithm 1 — compression-strategy embedding learning.
///
/// Returns one `dim`-vector per strategy in `space`, shaped by both the
/// knowledge graph (relational knowledge) and the experience corpus
/// (numerical knowledge). Either source can be disabled for the paper's
/// `AutoMC-KG` / `AutoMC-NN_exp` ablations.
pub fn learn_embeddings(
    space: &StrategySpace,
    experience: &ExperienceCorpus,
    cfg: &EmbeddingConfig,
    use_kg: bool,
    use_experience: bool,
    rng: &mut Rng,
) -> Vec<Vec<f32>> {
    let kg = KnowledgeGraph::build(space);
    let mut transr = TransR::new(
        &kg,
        TransRConfig {
            dim: cfg.dim,
            rel_dim: cfg.rel_dim,
            margin: cfg.margin,
            lr: cfg.transr_lr,
        },
        rng,
    );
    let mut nn_exp = NnExp::new(cfg.dim, experience.task_feature_len(), cfg.nn_exp_lr, rng);
    for _epoch in 0..cfg.epochs {
        if use_kg {
            transr.train_epoch(&kg, rng);
        }
        if use_experience && !experience.records.is_empty() {
            // Optimise θ and the strategy embeddings jointly (Eq. 3), then
            // write the refined embeddings back into the entity table so
            // the next TransR epoch starts from them (Algorithm 1, l. 9).
            nn_exp.refine_epoch(&mut transr, &kg, experience, rng);
        }
    }
    (0..space.len())
        .map(|sid| transr.entity_embedding(kg.strategy_entity[sid]).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_compress::MethodId;

    #[test]
    fn embeddings_have_requested_shape() {
        let space = StrategySpace::for_methods(&[MethodId::Ns]);
        let corpus = ExperienceCorpus::empty(7);
        let mut rng = automc_tensor::rng_from_seed(200);
        let cfg = EmbeddingConfig { epochs: 2, dim: 8, rel_dim: 4, ..Default::default() };
        let emb = learn_embeddings(&space, &corpus, &cfg, true, false, &mut rng);
        assert_eq!(emb.len(), space.len());
        assert!(emb.iter().all(|e| e.len() == 8));
        assert!(emb.iter().flatten().all(|v| v.is_finite()));
    }
}
