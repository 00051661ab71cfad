//! `F_mo` — the multi-objective step evaluator (paper Fig. 3, Eq. 4–5).
//!
//! An RNN encodes the evaluated scheme `seq = (s₁ → … → s_t)` from the
//! high-level strategy embeddings of Algorithm 1; an MLP head takes the
//! sequence encoding, a candidate strategy's embedding, and the current
//! model state `(accuracy, parameter fraction)` and predicts the step
//! deltas `(AR_step, PR_step)` the candidate would produce. It is trained
//! online on the real deltas of every evaluation performed so far (Eq. 5).

use automc_compress::{Scheme, StrategyId};
use automc_tensor::nn::{Layer, Linear, Relu, Rnn};
use automc_tensor::optim::{Adam, AdamConfig, Optimizer, Param};
use automc_tensor::{loss, par, Rng, Tensor};
use rand::seq::SliceRandom;

/// One observed step: `(seq, s, state) → (AR_step, PR_step)`.
#[derive(Debug, Clone)]
pub struct StepSample {
    /// The prefix scheme.
    pub seq: Scheme,
    /// The strategy appended to it.
    pub cand: StrategyId,
    /// `(A(seq[M]), P(seq[M]) / P(M))` before the step.
    pub state: [f32; 2],
    /// Observed accuracy-change rate.
    pub ar_step: f32,
    /// Observed parameter-reduction rate.
    pub pr_step: f32,
}

/// The MLP head of `F_mo`. A concrete (cloneable) stack rather than a
/// `Sequential` of boxed layers, so candidate-scoring shards can each run
/// forward on their own copy concurrently.
#[derive(Clone)]
struct Head {
    l1: Linear,
    act: Relu,
    l2: Linear,
}

impl Head {
    fn new(in_dim: usize, rng: &mut Rng) -> Self {
        Head {
            l1: Linear::new(in_dim, 32, rng),
            act: Relu::new(),
            l2: Linear::new(32, 2, rng),
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let a = self.l1.forward(x, train);
        let b = self.act.forward(&a, train);
        self.l2.forward(&b, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.l2.backward(grad);
        let g = self.act.backward(&g);
        self.l1.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut v = self.l1.params_mut();
        v.extend(self.act.params_mut());
        v.extend(self.l2.params_mut());
        v
    }
}

const STATE_MAGIC: &[u8; 8] = b"AUTOMCf1";

use crate::statebytes::{read_tensor_list, take_bytes, write_tensor_list};

/// The multi-objective evaluator.
pub struct Fmo {
    rnn: Rnn,
    head: Head,
    opt: Adam,
    emb: Vec<Vec<f32>>,
    emb_dim: usize,
    hidden: usize,
    /// Replay buffer of every observed step.
    pub samples: Vec<StepSample>,
}

impl Fmo {
    /// Build from pre-learned strategy embeddings (Algorithm 1 output).
    pub fn new(embeddings: Vec<Vec<f32>>, rng: &mut Rng) -> Self {
        let emb_dim = embeddings.first().map_or(8, |e| e.len());
        let hidden = 32;
        let rnn = Rnn::new(emb_dim, hidden, rng);
        let head = Head::new(hidden + emb_dim + 2, rng);
        Fmo {
            rnn,
            head,
            opt: Adam::new(AdamConfig::default()),
            emb: embeddings,
            emb_dim,
            hidden,
            samples: Vec::new(),
        }
    }

    fn embedding_row(&self, sid: StrategyId) -> Tensor {
        Tensor::from_slice(&[1, self.emb_dim], &self.emb[sid])
    }

    /// Encode a scheme prefix (empty scheme → zero state).
    fn encode(&mut self, seq: &Scheme) -> Tensor {
        self.rnn.reset();
        let mut h = self.rnn.init_state(1);
        for &sid in seq {
            let x = self.embedding_row(sid);
            h = self.rnn.step(&x, &h);
        }
        h
    }

    /// Predict `(AR_step, PR_step)` for every candidate appended to `seq`.
    pub fn predict_batch(
        &mut self,
        seq: &Scheme,
        state: [f32; 2],
        candidates: &[StrategyId],
    ) -> Vec<(f32, f32)> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let h = self.encode(seq);
        self.rnn.reset();
        let width = self.hidden + self.emb_dim + 2;
        let mut x = Tensor::zeros(&[candidates.len(), width]);
        for (row, &cand) in candidates.iter().enumerate() {
            let dst = x.row_mut(row);
            dst[..self.hidden].copy_from_slice(h.row(0));
            dst[self.hidden..self.hidden + self.emb_dim].copy_from_slice(&self.emb[cand]);
            dst[self.hidden + self.emb_dim] = state[0];
            dst[self.hidden + self.emb_dim + 1] = state[1];
        }
        let shards = par::current_threads().min(candidates.len());
        if shards <= 1 {
            let y = self.head.forward(&x, false);
            return (0..candidates.len())
                .map(|i| (y.row(i)[0], y.row(i)[1]))
                .collect();
        }
        // Shard candidate rows across the pool, one head clone per shard.
        // Each output row is an independent dot product, so the sharded
        // result is bitwise identical to the full-batch forward.
        let ranges = par::split_ranges(candidates.len(), shards);
        let head = &self.head;
        let xd = x.data();
        let per_shard: Vec<Vec<(f32, f32)>> = par::par_map(ranges.len(), |s| {
            let r = ranges[s].clone();
            let xs = Tensor::from_slice(&[r.len(), width], &xd[r.start * width..r.end * width]);
            let mut local = head.clone();
            let y = local.forward(&xs, false);
            (0..r.len()).map(|i| (y.row(i)[0], y.row(i)[1])).collect()
        });
        per_shard.concat()
    }

    /// Record an observed step for future training.
    pub fn observe(&mut self, sample: StepSample) {
        self.samples.push(sample);
    }

    /// Every learned tensor, in the same order [`Fmo::train_one`] hands
    /// them to the optimizer (so Adam's position-keyed moments line up).
    fn state_tensors(&self) -> Vec<&Tensor> {
        vec![
            &self.rnn.w_xh,
            &self.rnn.w_hh,
            &self.rnn.b,
            &self.head.l1.weight,
            &self.head.l1.bias,
            &self.head.l2.weight,
            &self.head.l2.bias,
        ]
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.rnn.w_xh,
            &mut self.rnn.w_hh,
            &mut self.rnn.b,
            &mut self.head.l1.weight,
            &mut self.head.l1.bias,
            &mut self.head.l2.weight,
            &mut self.head.l2.bias,
        ]
    }

    /// Serialise the evaluator's learned state — weights, Adam moments,
    /// and the replay buffer — so a resumed search continues training the
    /// exact same evaluator. Strategy embeddings are *not* included; they
    /// are an input recreated at construction.
    pub fn state_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        let (m, v, t) = self.opt.moments();
        write_tensor_list(&mut out, &self.state_tensors());
        out.extend_from_slice(&t.to_le_bytes());
        write_tensor_list(&mut out, &m.iter().collect::<Vec<_>>());
        write_tensor_list(&mut out, &v.iter().collect::<Vec<_>>());
        out.extend_from_slice(&(self.samples.len() as u64).to_le_bytes());
        for s in &self.samples {
            out.extend_from_slice(&(s.seq.len() as u64).to_le_bytes());
            for &sid in &s.seq {
                out.extend_from_slice(&(sid as u64).to_le_bytes());
            }
            out.extend_from_slice(&(s.cand as u64).to_le_bytes());
            for v in [s.state[0], s.state[1], s.ar_step, s.pr_step] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restore state captured by [`Fmo::state_to_bytes`] into an evaluator
    /// built with the same embeddings. Returns `None` (leaving `self`
    /// partially overwritten and unusable) on a corrupt or mismatched
    /// stream — callers should discard the evaluator in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = bytes;
        let magic = take_bytes(&mut r, 8)?;
        if magic != STATE_MAGIC {
            return None;
        }
        let weights = read_tensor_list(&mut r)?;
        let mut targets = self.state_tensors_mut();
        if weights.len() != targets.len() {
            return None;
        }
        for (dst, src) in targets.iter_mut().zip(weights) {
            if dst.dims() != src.dims() {
                return None;
            }
            **dst = src;
        }
        let t = u64::from_le_bytes(take_bytes(&mut r, 8)?.try_into().ok()?);
        let m = read_tensor_list(&mut r)?;
        let v = read_tensor_list(&mut r)?;
        self.opt.import_state(automc_tensor::optim::AdamState { m, v, t });
        let count = u64::from_le_bytes(take_bytes(&mut r, 8)?.try_into().ok()?) as usize;
        if count > 10_000_000 {
            return None;
        }
        let mut samples = Vec::with_capacity(count);
        for _ in 0..count {
            let seq_len = u64::from_le_bytes(take_bytes(&mut r, 8)?.try_into().ok()?) as usize;
            if seq_len > 10_000 {
                return None;
            }
            let mut seq = Vec::with_capacity(seq_len);
            for _ in 0..seq_len {
                seq.push(u64::from_le_bytes(take_bytes(&mut r, 8)?.try_into().ok()?) as usize);
            }
            let cand = u64::from_le_bytes(take_bytes(&mut r, 8)?.try_into().ok()?) as usize;
            let mut f = [0f32; 4];
            for slot in &mut f {
                *slot = f32::from_le_bytes(take_bytes(&mut r, 4)?.try_into().ok()?);
            }
            samples.push(StepSample {
                seq,
                cand,
                state: [f[0], f[1]],
                ar_step: f[2],
                pr_step: f[3],
            });
        }
        if !r.is_empty() {
            return None;
        }
        self.samples = samples;
        Some(())
    }

    /// Train on the replay buffer (Eq. 5). Returns the mean squared error
    /// of the final epoch.
    pub fn train(&mut self, epochs: usize, rng: &mut Rng) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..self.samples.len()).collect();
            order.shuffle(rng);
            let mut total = 0.0f32;
            for &i in &order {
                let sample = self.samples[i].clone();
                total += self.train_one(&sample);
            }
            last = total / order.len() as f32;
        }
        last
    }

    fn train_one(&mut self, s: &StepSample) -> f32 {
        // Forward: RNN (train) → head (train).
        self.rnn.reset();
        let mut h = self.rnn.init_state(1);
        for &sid in &s.seq {
            let x = self.embedding_row(sid);
            h = self.rnn.step(&x, &h);
        }
        let width = self.hidden + self.emb_dim + 2;
        let mut x = Tensor::zeros(&[1, width]);
        {
            let dst = x.row_mut(0);
            dst[..self.hidden].copy_from_slice(h.row(0));
            dst[self.hidden..self.hidden + self.emb_dim].copy_from_slice(&self.emb[s.cand]);
            dst[self.hidden + self.emb_dim] = s.state[0];
            dst[self.hidden + self.emb_dim + 1] = s.state[1];
        }
        let pred = self.head.forward(&x, true);
        let target = Tensor::from_slice(&[1, 2], &[s.ar_step, s.pr_step]);
        let (mse, grad) = loss::mse(&pred, &target);
        let grad_in = self.head.backward(&grad);
        // Route the sequence-encoding part of the gradient through the RNN.
        if !s.seq.is_empty() {
            let gh = Tensor::from_slice(&[1, self.hidden], &grad_in.row(0)[..self.hidden]);
            let mut slots: Vec<Option<Tensor>> = vec![None; s.seq.len()];
            *slots.last_mut().expect("non-empty") = Some(gh);
            let _ = self.rnn.backward_through_time(&slots);
        } else {
            self.rnn.reset();
        }
        // Joint step over RNN + head parameters.
        let mut params = self.rnn.params_mut();
        params.extend(self.head.params_mut());
        self.opt.step(&mut params);
        mse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_tensor::rng_from_seed;

    fn toy_embeddings(n: usize, dim: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| Tensor::randn(&[dim], 1.0, rng).into_vec())
            .collect()
    }

    #[test]
    fn predict_shapes() {
        let mut rng = rng_from_seed(300);
        let emb = toy_embeddings(10, 8, &mut rng);
        let mut fmo = Fmo::new(emb, &mut rng);
        let preds = fmo.predict_batch(&vec![1, 2], [0.8, 0.9], &[0, 3, 7]);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|(a, p)| a.is_finite() && p.is_finite()));
        assert!(fmo.predict_batch(&vec![], [0.8, 1.0], &[]).is_empty());
    }

    #[test]
    fn training_fits_structured_targets() {
        // Candidates 0..5 yield PR_step = 0.1·id — learnable from the
        // embedding alone.
        let mut rng = rng_from_seed(301);
        let emb = toy_embeddings(6, 8, &mut rng);
        let mut fmo = Fmo::new(emb, &mut rng);
        for id in 0..6usize {
            for _ in 0..4 {
                fmo.observe(StepSample {
                    seq: vec![],
                    cand: id,
                    state: [0.8, 1.0],
                    ar_step: -0.05,
                    pr_step: 0.1 * id as f32,
                });
            }
        }
        let first = fmo.train(1, &mut rng);
        let last = fmo.train(60, &mut rng);
        assert!(last < first * 0.5, "loss should halve: {first} → {last}");
        let preds = fmo.predict_batch(&vec![], [0.8, 1.0], &[0, 5]);
        assert!(
            preds[1].1 > preds[0].1,
            "predicted PR_step must order candidates: {preds:?}"
        );
    }

    #[test]
    fn sequence_context_affects_prediction() {
        let mut rng = rng_from_seed(302);
        let emb = toy_embeddings(6, 8, &mut rng);
        let mut fmo = Fmo::new(emb, &mut rng);
        // The same candidate yields different PR depending on the prefix.
        for _ in 0..30 {
            fmo.observe(StepSample {
                seq: vec![],
                cand: 0,
                state: [0.8, 1.0],
                ar_step: 0.0,
                pr_step: 0.4,
            });
            fmo.observe(StepSample {
                seq: vec![1, 2],
                cand: 0,
                state: [0.8, 1.0],
                ar_step: 0.0,
                pr_step: 0.05,
            });
        }
        fmo.train(40, &mut rng);
        let fresh = fmo.predict_batch(&vec![], [0.8, 1.0], &[0])[0].1;
        let after = fmo.predict_batch(&vec![1, 2], [0.8, 1.0], &[0])[0].1;
        assert!(
            fresh > after + 0.1,
            "prefix must matter: fresh {fresh} vs after {after}"
        );
    }

    #[test]
    fn state_roundtrip_resumes_training_identically() {
        let mut rng = rng_from_seed(304);
        let emb = toy_embeddings(6, 8, &mut rng);
        let samples: Vec<StepSample> = (0..12)
            .map(|i| StepSample {
                seq: if i % 2 == 0 { vec![] } else { vec![i % 6] },
                cand: i % 6,
                state: [0.8, 1.0],
                ar_step: -0.01 * i as f32,
                pr_step: 0.05 * i as f32,
            })
            .collect();

        // Straight run: 6 training epochs.
        let mut straight = Fmo::new(emb.clone(), &mut rng_from_seed(1));
        for s in &samples {
            straight.observe(s.clone());
        }
        let mut rng_s = rng_from_seed(2);
        straight.train(3, &mut rng_s);
        let snapshot = straight.state_to_bytes();
        straight.train(3, &mut rng_s);

        // Resumed run: restore the 3-epoch snapshot into a fresh evaluator
        // (different init RNG on purpose — weights come from the snapshot)
        // and train the remaining epochs with the same RNG stream position.
        let mut resumed = Fmo::new(emb, &mut rng_from_seed(99));
        resumed.restore_state(&snapshot).expect("snapshot restores");
        assert_eq!(resumed.samples.len(), samples.len());
        // Advance the RNG past the first 3 epochs' shuffles exactly (each
        // training epoch draws from the RNG only to shuffle the buffer).
        let mut rng_r = rng_from_seed(2);
        for _ in 0..3 {
            let mut order: Vec<usize> = (0..samples.len()).collect();
            order.shuffle(&mut rng_r);
        }
        resumed.train(3, &mut rng_r);

        let a = straight.predict_batch(&vec![1, 2], [0.8, 0.9], &[0, 3, 5]);
        let b = resumed.predict_batch(&vec![1, 2], [0.8, 0.9], &[0, 3, 5]);
        for ((a1, a2), (b1, b2)) in a.iter().zip(&b) {
            assert_eq!(a1.to_bits(), b1.to_bits());
            assert_eq!(a2.to_bits(), b2.to_bits());
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let mut rng = rng_from_seed(305);
        let emb = toy_embeddings(4, 8, &mut rng);
        let fmo = Fmo::new(emb.clone(), &mut rng);
        let bytes = fmo.state_to_bytes();
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        assert!(Fmo::new(emb.clone(), &mut rng).restore_state(&truncated).is_none());
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        assert!(Fmo::new(emb, &mut rng).restore_state(&bad_magic).is_none());
    }

    #[test]
    fn observe_grows_replay_buffer() {
        let mut rng = rng_from_seed(303);
        let emb = toy_embeddings(3, 4, &mut rng);
        let mut fmo = Fmo::new(emb, &mut rng);
        assert_eq!(fmo.samples.len(), 0);
        fmo.observe(StepSample { seq: vec![0], cand: 1, state: [0.5, 0.5], ar_step: 0.0, pr_step: 0.1 });
        assert_eq!(fmo.samples.len(), 1);
        assert_eq!(fmo.train(0, &mut rng), 0.0);
    }
}
