//! Experimental-experience corpus (paper §3.3.1).
//!
//! The paper extracts `(C_iP_{i,j}, Task_k, AR, PR)` tuples from published
//! compression papers. No such corpus exists for the synthetic substrate,
//! so this module *generates* one with the same semantics: it executes a
//! spread of strategies on a bank of small seeded tasks and records the
//! real measured `(AR, PR)`. The corpus is exactly what `NN_exp` needs —
//! numerical knowledge about how strategies behave across task types.

use automc_compress::{apply_strategy, ExecConfig, Metrics, StrategyId, StrategySpace};
use automc_data::{DataFeatures, DatasetSpec, ImageSet, SyntheticKind};
use automc_models::train::{train, Auxiliary};
use automc_models::{resnet, vgg, ConvNet, ModelFeatures, ModelKind};
use automc_tensor::{par, rng_for_task, Rng};
use rand::seq::SliceRandom;

/// One experience tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperienceRecord {
    /// Strategy that was executed.
    pub strategy: StrategyId,
    /// Task feature vector (paper: 4 data features + 3 model features).
    pub task: Vec<f32>,
    /// Measured accuracy-increase rate.
    pub ar: f32,
    /// Measured parameter-reduction rate.
    pub pr: f32,
}

/// A corpus of experience tuples.
#[derive(Debug, Clone, Default)]
pub struct ExperienceCorpus {
    /// The tuples.
    pub records: Vec<ExperienceRecord>,
    task_feature_len: usize,
}

impl ExperienceCorpus {
    /// Empty corpus with a fixed task-feature width.
    pub fn empty(task_feature_len: usize) -> Self {
        ExperienceCorpus { records: Vec::new(), task_feature_len }
    }

    /// Width of the task feature vectors.
    pub fn task_feature_len(&self) -> usize {
        self.task_feature_len
    }

    /// Add a record (must match the feature width).
    pub fn push(&mut self, rec: ExperienceRecord) {
        assert_eq!(rec.task.len(), self.task_feature_len, "task feature width mismatch");
        self.records.push(rec);
    }
}

/// A small seeded task used to generate experience.
pub struct MicroTask {
    /// Pre-trained model.
    pub model: ConvNet,
    /// Training split (what strategies may fine-tune on).
    pub train_set: ImageSet,
    /// Held-out split for `A(M)`.
    pub eval_set: ImageSet,
    /// Base metrics of the pre-trained model.
    pub base: Metrics,
    /// The 7-feature task vector (paper §3.3.1).
    pub features: Vec<f32>,
}

impl MicroTask {
    /// Build and pre-train a micro task.
    pub fn new(
        kind: SyntheticKind,
        model_kind: ModelKind,
        width: usize,
        train_n: usize,
        eval_n: usize,
        pretrain_epochs: f32,
        seed: u64,
        rng: &mut Rng,
    ) -> Self {
        let (train_set, eval_set) = DatasetSpec {
            train: train_n,
            test: eval_n,
            noise: 0.25,
            seed,
            ..DatasetSpec::new(kind)
        }
        .generate();
        let classes = kind.classes();
        let mut model = match model_kind {
            ModelKind::ResNet(d) => resnet(d, width, classes, (3, 8, 8), rng),
            ModelKind::Vgg(d) => vgg(d, width, classes, (3, 8, 8), rng),
        };
        let cfg = automc_models::train::TrainConfig {
            epochs: pretrain_epochs,
            ..Default::default()
        };
        train(&mut model, &train_set, &cfg, Auxiliary::None, rng);
        let base = Metrics::measure(&mut model, &eval_set);
        let features = task_features(&train_set, &base);
        MicroTask { model, train_set, eval_set, base, features }
    }
}

/// The paper's 7-part task feature vector: data features (class count,
/// image size, channels, amount) + model features (params, FLOPs,
/// accuracy).
pub fn task_features(train_set: &ImageSet, base: &Metrics) -> Vec<f32> {
    let (c, h, _) = train_set.image_dims();
    let data = DataFeatures {
        classes: train_set.classes(),
        image_size: h,
        channels: c,
        amount: train_set.len(),
    };
    let model = ModelFeatures { params: base.params, flops: base.flops, accuracy: base.acc };
    let mut v = data.to_vec();
    v.extend(model.to_vec());
    v
}

/// Version of the corpus derivation: bumped whenever the records a seed
/// produces change (v2: one RNG stream per record instead of one stream
/// threaded through every record in turn). Caches of the corpus and of
/// everything learned from it key on this.
pub const CORPUS_VERSION: u64 = 2;

/// Stream slot of a micro-task's stratified picks; records use their
/// index as the slot, so no record (index < `u32::MAX`) shares it.
const PICKS_SLOT: u64 = u32::MAX as u64;

/// The RNG stream of `slot` within micro-task `task`.
fn stream(seed: u64, task: usize, slot: u64) -> Rng {
    rng_for_task(seed, ((task as u64) << 32) | slot)
}

/// Generate an experience corpus by executing `per_task` strategies
/// (stratified across methods) on each micro task.
///
/// Every record is a pure function of `(seed, micro-task index, record
/// index)`: micro-task `t` draws its picks up front from its own stream,
/// and each record fine-tunes from a stream of its own. All records run
/// as one [`par::par_map`] and are assembled task-major in index order,
/// so the corpus is bitwise-identical at any thread count, and a smaller
/// `per_task` yields a prefix of each task's records. At one thread the
/// records run inline in index order, so per-thread fault ordinals
/// (`nan@train:n`) tick exactly as they would in a serial loop.
pub fn generate_experience(
    space: &StrategySpace,
    tasks: &[MicroTask],
    per_task: usize,
    exec: &ExecConfig,
    seed: u64,
) -> ExperienceCorpus {
    let mut corpus = ExperienceCorpus::empty(7);
    if tasks.is_empty() || per_task == 0 {
        return corpus;
    }
    // Stratified strategy sample: round-robin over methods so every method
    // contributes experience.
    let mut by_method: Vec<Vec<StrategyId>> = Vec::new();
    for m in automc_compress::MethodId::ALL {
        let ids: Vec<StrategyId> = space
            .iter()
            .filter(|(_, s)| s.method() == m)
            .map(|(id, _)| id)
            .collect();
        if !ids.is_empty() {
            by_method.push(ids);
        }
    }
    let picks: Vec<Vec<StrategyId>> = (0..tasks.len())
        .map(|t| {
            let mut rng = stream(seed, t, PICKS_SLOT);
            (0..per_task)
                .map(|j| {
                    let bucket = &by_method[j % by_method.len()];
                    *bucket.choose(&mut rng).expect("non-empty bucket")
                })
                .collect()
        })
        .collect();
    let records = par::par_map(tasks.len() * per_task, |i| {
        let (t, j) = (i / per_task, i % per_task);
        let (task, sid) = (&tasks[t], picks[t][j]);
        let mut model = task.model.clone_net();
        let mut rng = stream(seed, t, j as u64);
        apply_strategy(space.spec(sid), &mut model, &task.train_set, exec, &mut rng);
        let m = Metrics::measure(&mut model, &task.eval_set);
        ExperienceRecord {
            strategy: sid,
            task: task.features.clone(),
            ar: m.ar(&task.base),
            pr: m.pr(&task.base),
        }
    });
    for rec in records {
        corpus.push(rec);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_compress::MethodId;
    use automc_tensor::rng_from_seed;

    #[test]
    fn corpus_width_enforced() {
        let mut c = ExperienceCorpus::empty(7);
        c.push(ExperienceRecord { strategy: 0, task: vec![0.0; 7], ar: 0.0, pr: 0.1 });
        assert_eq!(c.records.len(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn corpus_rejects_bad_width() {
        let mut c = ExperienceCorpus::empty(7);
        c.push(ExperienceRecord { strategy: 0, task: vec![0.0; 3], ar: 0.0, pr: 0.1 });
    }

    #[test]
    fn micro_task_features_have_seven_parts() {
        let mut rng = rng_from_seed(220);
        let task = MicroTask::new(
            SyntheticKind::Cifar10Like,
            ModelKind::ResNet(20),
            4,
            120,
            60,
            2.0,
            42,
            &mut rng,
        );
        assert_eq!(task.features.len(), 7);
        assert!(task.base.acc > 0.0);
    }

    #[test]
    fn generated_experience_reflects_real_reductions() {
        let mut rng = rng_from_seed(221);
        let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
        let tasks = vec![MicroTask::new(
            SyntheticKind::Cifar10Like,
            ModelKind::ResNet(20),
            4,
            120,
            60,
            2.0,
            43,
            &mut rng,
        )];
        let exec = ExecConfig { pretrain_epochs: 2.0, ..Default::default() };
        let corpus = generate_experience(&space, &tasks, 4, &exec, 222);
        assert_eq!(corpus.records.len(), 4);
        for rec in &corpus.records {
            assert!(rec.pr > 0.0, "strategies remove parameters: {rec:?}");
            assert!(rec.pr < 0.9);
            assert!(rec.ar > -1.0);
        }
    }
}
