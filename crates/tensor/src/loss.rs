//! Loss functions.
//!
//! Each loss returns `(scalar_loss, grad_wrt_logits)` with the gradient
//! already averaged over the batch, ready to feed into `Layer::backward`.

use crate::Tensor;

/// Numerically-stable row-wise softmax.
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    let n = out.rows();
    for i in 0..n {
        let row = out.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum.max(1e-12);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Softmax cross-entropy against integer class labels.
///
/// `logits: [batch, classes]`, `labels.len() == batch`.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let batch = logits.rows();
    debug_assert_eq!(labels.len(), batch, "label count must match batch");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let inv_b = 1.0 / batch.max(1) as f32;
    for (i, &label) in labels.iter().enumerate() {
        let p = probs.row(i)[label].max(1e-12);
        loss -= p.ln();
        let grow = grad.row_mut(i);
        grow[label] -= 1.0;
        for v in grow.iter_mut() {
            *v *= inv_b;
        }
    }
    (loss * inv_b, grad)
}

/// Mean squared error between predictions and targets (same shape).
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    debug_assert_eq!(pred.dims(), target.dims(), "mse: shape mismatch");
    let n = pred.numel().max(1) as f32;
    let diff = pred.sub(target);
    let loss = diff.sq_norm() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Knowledge-distillation loss (Hinton et al.): temperature-scaled KL
/// divergence from the student's softened distribution to the teacher's.
///
/// Returns `(loss, grad_wrt_student_logits)`. The conventional `T²` factor
/// is applied so gradient magnitudes stay comparable across temperatures.
pub fn distillation_kl(
    student_logits: &Tensor,
    teacher_logits: &Tensor,
    temperature: f32,
) -> (f32, Tensor) {
    debug_assert_eq!(student_logits.dims(), teacher_logits.dims());
    let t = temperature.max(1e-3);
    let ps = softmax(&student_logits.scale(1.0 / t));
    let pt = softmax(&teacher_logits.scale(1.0 / t));
    let batch = student_logits.rows().max(1) as f32;
    // KL(pt ‖ ps) = Σ pt (ln pt − ln ps); grad wrt student logits is
    // (ps − pt) / T, then × T² = (ps − pt) · T.
    let mut loss = 0.0f32;
    for i in 0..student_logits.rows() {
        for (&a, &b) in pt.row(i).iter().zip(ps.row(i)) {
            if a > 1e-12 {
                loss += a * (a.ln() - b.max(1e-12).ln());
            }
        }
    }
    loss = loss * t * t / batch;
    let grad = ps.sub(&pt).scale(t / batch);
    (loss, grad)
}

/// Composite distillation objective:
/// `alpha · KD(student, teacher; T) + (1 − alpha) · CE(student, labels)`.
pub fn distillation_composite(
    student_logits: &Tensor,
    teacher_logits: &Tensor,
    labels: &[usize],
    temperature: f32,
    alpha: f32,
) -> (f32, Tensor) {
    let (kd_loss, kd_grad) = distillation_kl(student_logits, teacher_logits, temperature);
    let (ce_loss, ce_grad) = softmax_cross_entropy(student_logits, labels);
    let loss = alpha * kd_loss + (1.0 - alpha) * ce_loss;
    let mut grad = kd_grad.scale(alpha);
    grad.axpy(1.0 - alpha, &ce_grad);
    (loss, grad)
}

/// Classification accuracy of logits against labels, in `[0, 1]`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let batch = logits.rows();
    if batch == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| logits.argmax_row(i) == label)
        .count();
    correct as f32 / batch as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = rng_from_seed(20);
        let x = Tensor::randn(&[4, 7], 3.0, &mut rng);
        let p = softmax(&x);
        for i in 0..4 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_slice(&[1, 3], &[1., 2., 3.]);
        let y = x.map(|v| v + 100.0);
        let px = softmax(&x);
        let py = softmax(&y);
        for (a, b) in px.data().iter().zip(py.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn ce_of_perfect_prediction_is_small() {
        let logits = Tensor::from_slice(&[2, 3], &[20., 0., 0., 0., 20., 0.]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn ce_uniform_is_log_classes() {
        let logits = Tensor::zeros(&[1, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(21);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let labels = [1usize, 4, 0];
        let (_, grad) = softmax_cross_entropy(&x, &labels);
        let eps = 1e-3;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&xp, &labels);
            let (lm, _) = softmax_cross_entropy(&xm, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} vs grad {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(22);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let t = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let (_, grad) = mse(&x, &t);
        let eps = 1e-3;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let (lp, _) = mse(&xp, &t);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lm, _) = mse(&xm, &t);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grad.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn kd_loss_zero_when_student_equals_teacher() {
        let mut rng = rng_from_seed(23);
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let (loss, grad) = distillation_kl(&x, &x, 3.0);
        assert!(loss.abs() < 1e-5);
        assert!(grad.norm() < 1e-5);
    }

    #[test]
    fn kd_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(24);
        let s = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let t = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let (_, grad) = distillation_kl(&s, &t, 2.0);
        let eps = 1e-3;
        for idx in 0..s.numel() {
            let mut sp = s.clone();
            sp.data_mut()[idx] += eps;
            let (lp, _) = distillation_kl(&sp, &t, 2.0);
            let mut sm = s.clone();
            sm.data_mut()[idx] -= eps;
            let (lm, _) = distillation_kl(&sm, &t, 2.0);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[idx]).abs() < 2e-2,
                "idx {idx}: fd {fd} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn composite_interpolates_between_losses() {
        let mut rng = rng_from_seed(25);
        let s = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let t = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let labels = [0usize, 2];
        let (kd, _) = distillation_kl(&s, &t, 2.0);
        let (ce, _) = softmax_cross_entropy(&s, &labels);
        let (zero_alpha, _) = distillation_composite(&s, &t, &labels, 2.0, 0.0);
        let (one_alpha, _) = distillation_composite(&s, &t, &labels, 2.0, 1.0);
        assert!((zero_alpha - ce).abs() < 1e-5);
        assert!((one_alpha - kd).abs() < 1e-5);
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_slice(&[2, 2], &[1., 0., 0., 1.]);
        assert!((accuracy(&logits, &[0, 1]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1]) - 0.5).abs() < 1e-6);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }
}
