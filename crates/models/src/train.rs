//! Training and evaluation loops, with the auxiliary objectives the
//! compression methods require.

use crate::ConvNet;
use automc_data::ImageSet;
use automc_tensor::fault::{self, FaultKind};
use automc_tensor::optim::{Optimizer, Sgd, SgdConfig};
use automc_tensor::{loss, Rng};

pub mod divergence {
    //! Thread-local divergence latch.
    //!
    //! [`train`](super::train) bails out when a batch loss turns
    //! non-finite, but many call sites reach it through deep strategy
    //! plumbing (`apply_strategy` → fine-tune → distill) that has no
    //! channel for `TrainStats`. The latch gives supervisors one:
    //! [`reset`] before a candidate evaluation, [`take`] afterwards —
    //! any training run that diverged in between is reported. The latch
    //! is thread-local because candidate evaluations always train on the
    //! thread that submitted them.

    use std::cell::Cell;

    thread_local! {
        static DIVERGED: Cell<bool> = const { Cell::new(false) };
    }

    /// Clear the latch (call before a supervised evaluation).
    pub fn reset() {
        DIVERGED.with(|c| c.set(false));
    }

    /// Record a divergence (called by [`train`](super::train)).
    pub fn flag() {
        DIVERGED.with(|c| c.set(true));
    }

    /// Read and clear the latch.
    pub fn take() -> bool {
        DIVERGED.with(|c| c.replace(false))
    }
}

pub mod step_budget {
    //! Thread-local cooperative training-step budget.
    //!
    //! A hung evaluation (an infinite loop rather than a panic or NaN)
    //! cannot be caught by `catch_unwind` or the divergence latch; the
    //! only portable supervision is cooperative. Supervisors [`arm`] a
    //! per-evaluation batch cap before executing a candidate scheme;
    //! [`train`](super::train) consults [`register_batch`] before every
    //! mini-batch and bails out once the cap is reached, setting the
    //! exhausted latch for the supervisor to [`take_exhausted`]. Like the
    //! [`divergence`](super::divergence) latch it is thread-local:
    //! candidate evaluations always train on the thread that submitted
    //! them.
    //!
    //! The consumed-batch counter also runs while no cap is armed, so
    //! executors can meter how many batches a scheme prefix consumed
    //! ([`used`]) and re-charge them against the cap when a memoized
    //! prefix skips the actual training ([`charge`]).

    use std::cell::Cell;

    thread_local! {
        static LIMIT: Cell<u64> = const { Cell::new(0) };
        static USED: Cell<u64> = const { Cell::new(0) };
        static EXHAUSTED: Cell<bool> = const { Cell::new(false) };
    }

    /// Arm a batch cap for the evaluation about to run (0 = unlimited;
    /// batch counting still restarts from zero). Clears the latch.
    pub fn arm(limit: u64) {
        LIMIT.with(|c| c.set(limit));
        USED.with(|c| c.set(0));
        EXHAUSTED.with(|c| c.set(false));
    }

    /// Disarm the cap and clear the counters (call when the supervised
    /// evaluation is over, so unsupervised training is never capped).
    pub fn disarm() {
        arm(0);
    }

    /// Batches consumed since the last [`arm`]/[`disarm`].
    pub fn used() -> u64 {
        USED.with(|c| c.get())
    }

    /// Account `n` batches that were *skipped* (resumed from a memoized
    /// prefix) as consumed, so a capped evaluation charges the same
    /// budget whether or not the cache was warm. Does *not* latch
    /// exhaustion — only an actually denied batch does, so an evaluation
    /// classifies identically whether its prefix was replayed or cached.
    pub fn charge(n: u64) {
        USED.with(|c| c.set(c.get().saturating_add(n)));
    }

    /// Ask permission to run one more training batch. Returns `false` —
    /// and latches exhaustion — once the armed cap is spent.
    pub fn register_batch() -> bool {
        let limit = LIMIT.with(|c| c.get());
        let used = USED.with(|c| c.get());
        if limit > 0 && used >= limit {
            EXHAUSTED.with(|c| c.set(true));
            return false;
        }
        USED.with(|c| c.set(used + 1));
        true
    }

    /// Read and clear the exhausted latch.
    pub fn take_exhausted() -> bool {
        EXHAUSTED.with(|c| c.replace(false))
    }
}

/// Plain-supervision training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Epochs; fractional values train a matching fraction of batches
    /// (the paper's `*0.1 … *0.5` fine-tuning budgets are fractional
    /// multiples of the pre-training epochs).
    pub epochs: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay on conv/linear weights.
    pub weight_decay: f32,
    /// L1 pressure on BN γ (Network Slimming's sparsity regulariser;
    /// 0 disables).
    pub bn_gamma_l1: f32,
    /// Cosine-decay the learning rate to `lr · 0.01` over the run
    /// (stabilises the small-model training this workspace does).
    pub cosine_lr: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1.0,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            bn_gamma_l1: 0.0,
            cosine_lr: true,
        }
    }
}

/// Auxiliary objective used on top of label cross-entropy.
pub enum Auxiliary<'a> {
    /// Supervised training only.
    None,
    /// Knowledge distillation (LMA / C1): temperature-softened KL to a
    /// teacher blended with CE by `alpha`.
    Distill {
        /// Frozen teacher network (run in eval mode).
        teacher: &'a mut ConvNet,
        /// Softmax temperature (HP4).
        temperature: f32,
        /// KD-vs-CE blend (HP5): 1.0 = pure distillation.
        alpha: f32,
    },
    /// Teacher-logit matching (HOS's auxiliary reconstruction loss, LFB's
    /// auxiliary loss): `CE(labels) + factor · match(student, teacher)`.
    LogitsMatch {
        /// Frozen teacher network (run in eval mode).
        teacher: &'a mut ConvNet,
        /// Loss weight (HP14 / HP15).
        factor: f32,
        /// Which matching loss (HP16 for LFB; HOS uses MSE).
        kind: AuxKind,
    },
}

/// The matching-loss family for [`Auxiliary::LogitsMatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxKind {
    /// Mean-squared error on raw logits.
    Mse,
    /// Cross-entropy against the teacher's soft distribution.
    Ce,
    /// Negative log-likelihood against the teacher's argmax pseudo-labels.
    Nll,
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Mean loss over the final epoch's batches.
    pub final_loss: f32,
    /// Batches executed.
    pub batches: usize,
    /// True if the run bailed out on a non-finite batch loss; the model
    /// keeps the weights from before the poisoned batch, and the
    /// thread-local [`divergence`] latch is flagged.
    pub diverged: bool,
}

/// Train `model` on `data` with optional auxiliary supervision.
pub fn train(
    model: &mut ConvNet,
    data: &ImageSet,
    cfg: &TrainConfig,
    mut aux: Auxiliary<'_>,
    rng: &mut Rng,
) -> TrainStats {
    let batches_per_epoch = data.len().div_ceil(cfg.batch_size).max(1);
    let total_batches = ((cfg.epochs * batches_per_epoch as f32).ceil() as usize).max(1);
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
    });
    // One fault probe per training run: `nan@train:N` poisons the first
    // batch loss of the N-th run, exercising the divergence bail-out.
    let inject_nan = fault::tick("train") == Some(FaultKind::Nan);
    let mut done = 0usize;
    let mut loss_sum = 0.0f32;
    let mut loss_count = 0usize;
    let mut diverged = false;
    'outer: loop {
        for (batch, labels) in data.batches(cfg.batch_size, rng) {
            if !step_budget::register_batch() {
                // The supervising evaluation's cooperative batch cap is
                // spent: stop training here; the supervisor reads the
                // exhausted latch and reports a timeout.
                break 'outer;
            }
            if cfg.cosine_lr {
                let progress = done as f32 / total_batches as f32;
                let scale = 0.01 + 0.99 * 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                opt.set_lr(cfg.lr * scale);
            }
            let logits = model.forward(&batch, true);
            let (mut batch_loss, grad) = match &mut aux {
                Auxiliary::None => loss::softmax_cross_entropy(&logits, &labels),
                Auxiliary::Distill { teacher, temperature, alpha } => {
                    let t_logits = teacher.forward(&batch, false);
                    loss::distillation_composite(&logits, &t_logits, &labels, *temperature, *alpha)
                }
                Auxiliary::LogitsMatch { teacher, factor, kind } => {
                    let t_logits = teacher.forward(&batch, false);
                    let (ce, mut grad) = loss::softmax_cross_entropy(&logits, &labels);
                    let (aux_loss, aux_grad) = match kind {
                        AuxKind::Mse => loss::mse(&logits, &t_logits),
                        AuxKind::Ce => loss::distillation_kl(&logits, &t_logits, 1.0),
                        AuxKind::Nll => {
                            let pseudo: Vec<usize> =
                                (0..t_logits.rows()).map(|i| t_logits.argmax_row(i)).collect();
                            loss::softmax_cross_entropy(&logits, &pseudo)
                        }
                    };
                    grad.axpy(*factor, &aux_grad);
                    (ce + *factor * aux_loss, grad)
                }
            };
            if inject_nan && done == 0 {
                batch_loss = f32::NAN;
            }
            // A non-finite loss means the gradients are garbage: bail out
            // *before* the weight update so the model keeps its last
            // finite state, and flag the thread-local latch for whichever
            // supervisor drove this run.
            if !batch_loss.is_finite() {
                diverged = true;
                divergence::flag();
                break 'outer;
            }
            model.backward(&grad);
            if cfg.bn_gamma_l1 > 0.0 {
                let l1 = cfg.bn_gamma_l1;
                model.for_each_cbr_mut(|_, cbr| cbr.bn.apply_gamma_l1(l1));
            }
            opt.step(&mut model.params_mut());
            loss_sum += batch_loss;
            loss_count += 1;
            done += 1;
            if done >= total_batches {
                break 'outer;
            }
        }
    }
    TrainStats { final_loss: loss_sum / loss_count.max(1) as f32, batches: done, diverged }
}

/// Classification accuracy of `model` on `data` (eval mode, batched).
pub fn evaluate(model: &mut ConvNet, data: &ImageSet) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    let chunk = 64usize;
    let mut i = 0usize;
    while i < data.len() {
        let idxs: Vec<usize> = (i..(i + chunk).min(data.len())).collect();
        let (batch, labels) = data.gather(&idxs);
        let logits = model.forward(&batch, false);
        correct += labels
            .iter()
            .enumerate()
            .filter(|&(row, &label)| logits.argmax_row(row) == label)
            .count();
        i += chunk;
    }
    correct as f32 / data.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet;
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_tensor::rng_from_seed;

    fn small_task() -> (ImageSet, ImageSet) {
        DatasetSpec {
            train: 200,
            test: 100,
            noise: 0.25,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate()
    }

    #[test]
    fn training_improves_accuracy() {
        let mut rng = rng_from_seed(150);
        let (train_set, test_set) = small_task();
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let acc_before = evaluate(&mut net, &test_set);
        let cfg = TrainConfig { epochs: 6.0, ..TrainConfig::default() };
        let stats = train(&mut net, &train_set, &cfg, Auxiliary::None, &mut rng);
        let acc_after = evaluate(&mut net, &test_set);
        assert!(stats.final_loss.is_finite());
        assert!(
            acc_after > acc_before + 0.15,
            "training should lift accuracy well above chance: {acc_before} → {acc_after}"
        );
    }

    #[test]
    fn fractional_epochs_limit_batches() {
        let mut rng = rng_from_seed(151);
        let (train_set, _) = small_task();
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let cfg = TrainConfig { epochs: 0.25, batch_size: 32, ..TrainConfig::default() };
        let stats = train(&mut net, &train_set, &cfg, Auxiliary::None, &mut rng);
        // 200/32 → 7 batches per epoch; 0.25 epochs → 2 batches.
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn bn_l1_shrinks_gammas() {
        let mut rng = rng_from_seed(152);
        let (train_set, _) = small_task();
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let gamma_norm = |net: &ConvNet| {
            let mut sum = 0.0f32;
            net.for_each_cbr(|_, cbr| sum += cbr.bn.gamma.data().iter().map(|v| v.abs()).sum::<f32>());
            sum
        };
        let before = gamma_norm(&net);
        let cfg = TrainConfig { epochs: 3.0, bn_gamma_l1: 0.05, ..TrainConfig::default() };
        train(&mut net, &train_set, &cfg, Auxiliary::None, &mut rng);
        let after = gamma_norm(&net);
        assert!(after < before, "L1 should shrink γ: {before} → {after}");
    }

    #[test]
    fn distillation_trains_student_toward_teacher() {
        let mut rng = rng_from_seed(153);
        let (train_set, test_set) = small_task();
        let mut teacher = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        train(
            &mut teacher,
            &train_set,
            &TrainConfig { epochs: 6.0, ..TrainConfig::default() },
            Auxiliary::None,
            &mut rng,
        );
        let teacher_acc = evaluate(&mut teacher, &test_set);
        let mut student = resnet(20, 3, 10, (3, 8, 8), &mut rng);
        train(
            &mut student,
            &train_set,
            &TrainConfig { epochs: 8.0, ..TrainConfig::default() },
            Auxiliary::Distill { teacher: &mut teacher, temperature: 3.0, alpha: 0.5 },
            &mut rng,
        );
        let student_acc = evaluate(&mut student, &test_set);
        assert!(
            student_acc > 0.3,
            "distilled student should clearly beat chance, got {student_acc} (teacher {teacher_acc})"
        );
    }

    #[test]
    fn logits_match_kinds_all_run() {
        let mut rng = rng_from_seed(154);
        let (train_set, _) = small_task();
        let mut teacher = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        for kind in [AuxKind::Mse, AuxKind::Ce, AuxKind::Nll] {
            let mut student = resnet(20, 4, 10, (3, 8, 8), &mut rng);
            let stats = train(
                &mut student,
                &train_set,
                &TrainConfig { epochs: 0.5, ..TrainConfig::default() },
                Auxiliary::LogitsMatch { teacher: &mut teacher, factor: 1.0, kind },
                &mut rng,
            );
            assert!(stats.final_loss.is_finite(), "{kind:?} produced NaN loss");
        }
    }

    #[test]
    fn injected_nan_bails_without_touching_weights() {
        use automc_tensor::fault::{self, FaultPlan};
        let mut rng = rng_from_seed(156);
        let (train_set, _) = small_task();
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let before: Vec<u32> = net
            .params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect();
        fault::install(FaultPlan::parse("nan@train:1").unwrap());
        divergence::reset();
        let stats = train(
            &mut net,
            &train_set,
            &TrainConfig { epochs: 1.0, ..TrainConfig::default() },
            Auxiliary::None,
            &mut rng,
        );
        fault::clear();
        assert!(stats.diverged);
        assert!(divergence::take(), "latch must be flagged");
        assert!(!divergence::take(), "take clears the latch");
        let after: Vec<u32> = net
            .params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(before, after, "bail-out must precede the weight update");
    }

    #[test]
    fn evaluate_empty_set_is_zero() {
        let mut rng = rng_from_seed(155);
        let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let empty = ImageSet::new(Vec::new(), Vec::new(), 3, 8, 8, 10);
        assert_eq!(evaluate(&mut net, &empty), 0.0);
    }
}
