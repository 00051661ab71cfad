//! The RL baseline: a recurrent controller samples whole schemes and is
//! trained with REINFORCE on a scalarised multi-objective reward (the
//! paper's "RL search strategy that combines recurrent neural network
//! controller" [6]).
//!
//! The controller embeds the previous action, feeds it through a tanh RNN,
//! and emits logits over `|C| + 1` actions (every strategy plus STOP).
//! The reward encourages accuracy increase and parameter reduction and
//! penalises missing the target rate γ.

use crate::context::SearchContext;
use crate::driver::{Candidate, Searcher};
use crate::journal::NodeSnapshot;
use crate::statebytes::{
    read_f32, read_tensor_list, read_u64, take_bytes, write_f32, write_tensor_list, write_u64,
};
use automc_compress::{Scheme, SchemeOutcome};
use automc_models::ConvNet;
use automc_tensor::nn::Rnn;
use automc_tensor::optim::{Adam, AdamConfig, AdamState, Optimizer, Param};
use automc_tensor::{loss, Rng, Tensor};
use rand::Rng as _;

/// RL knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlConfig {
    /// Action-embedding dimension.
    pub emb_dim: usize,
    /// Controller hidden size.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Reward-baseline EMA coefficient.
    pub baseline_decay: f32,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig { emb_dim: 16, hidden: 32, lr: 5e-3, baseline_decay: 0.9 }
    }
}

/// Scalarised multi-objective reward.
fn reward(ar: f32, pr: f32, gamma: f32) -> f32 {
    ar + pr - 2.0 * (gamma - pr).max(0.0)
}

const STATE_MAGIC: &[u8; 8] = b"AUTOMCr1";

/// What REINFORCE needs from a sampled episode, per emitted step: the
/// hidden state, the action and the action distribution.
#[derive(Default)]
struct Episode {
    states: Vec<Tensor>,
    actions: Vec<usize>,
    probs: Vec<Vec<f32>>,
}

/// The recurrent controller with its optimizer and reward baseline — the
/// complete learner state, grouped so a journal can snapshot and restore
/// it as one opaque byte string.
pub struct Controller {
    emb: Tensor,
    emb_grad: Tensor,
    rnn: Rnn,
    w: Tensor,
    w_grad: Tensor,
    opt: Adam,
    baseline: f32,
    baseline_init: bool,
    /// The episode sampled last, consumed by its REINFORCE step. Never
    /// journaled: snapshots are taken between episodes.
    episode: Episode,
}

impl Controller {
    fn new(actions: usize, cfg: &RlConfig, rng: &mut Rng) -> Self {
        Controller {
            emb: Tensor::randn(&[actions, cfg.emb_dim], 0.1, rng),
            emb_grad: Tensor::zeros(&[actions, cfg.emb_dim]),
            rnn: Rnn::new(cfg.emb_dim, cfg.hidden, rng),
            w: Tensor::randn(&[actions, cfg.hidden], 0.05, rng),
            w_grad: Tensor::zeros(&[actions, cfg.hidden]),
            opt: Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }),
            baseline: 0.0,
            baseline_init: false,
            episode: Episode::default(),
        }
    }

    /// Serialise weights, Adam moments, and the reward baseline. Gradients
    /// are not included: snapshots are taken between episodes, where both
    /// accumulators are zero.
    fn state_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        write_tensor_list(
            &mut out,
            &[&self.emb, &self.rnn.w_xh, &self.rnn.w_hh, &self.rnn.b, &self.w],
        );
        let opt = self.opt.export_state();
        write_u64(&mut out, opt.t);
        write_tensor_list(&mut out, &opt.m.iter().collect::<Vec<_>>());
        write_tensor_list(&mut out, &opt.v.iter().collect::<Vec<_>>());
        write_f32(&mut out, self.baseline);
        out.push(self.baseline_init as u8);
        out
    }

    /// Restore a [`Controller::state_to_bytes`] snapshot into a controller
    /// of the same shape. `None` (leaving `self` partially overwritten —
    /// callers must rebuild) on a corrupt or mismatched stream.
    fn restore_state(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = bytes;
        if take_bytes(&mut r, 8)? != STATE_MAGIC {
            return None;
        }
        let weights = read_tensor_list(&mut r)?;
        let mut targets = [
            &mut self.emb,
            &mut self.rnn.w_xh,
            &mut self.rnn.w_hh,
            &mut self.rnn.b,
            &mut self.w,
        ];
        if weights.len() != targets.len() {
            return None;
        }
        for (dst, src) in targets.iter_mut().zip(weights) {
            if dst.dims() != src.dims() {
                return None;
            }
            **dst = src;
        }
        let t = read_u64(&mut r)?;
        let m = read_tensor_list(&mut r)?;
        let v = read_tensor_list(&mut r)?;
        self.opt.import_state(AdamState { m, v, t });
        self.baseline = read_f32(&mut r)?;
        let flag = take_bytes(&mut r, 1)?[0];
        if flag > 1 {
            return None;
        }
        self.baseline_init = flag == 1;
        if !r.is_empty() {
            return None;
        }
        Some(())
    }

    /// Sample one episode of at most `max_len` strategies, keeping what
    /// REINFORCE needs in `self.episode`. Action `stop` ends the episode;
    /// its embedding row doubles as the start token.
    fn sample(&mut self, cfg: &RlConfig, max_len: usize, stop: usize, rng: &mut Rng) -> Scheme {
        let actions = stop + 1;
        self.rnn.reset();
        self.episode = Episode::default();
        let mut h = self.rnn.init_state(1);
        let mut prev_action = stop;
        let mut scheme: Scheme = Vec::new();
        for t in 0..max_len {
            let x = Tensor::from_slice(&[1, cfg.emb_dim], self.emb.row(prev_action));
            h = self.rnn.step(&x, &h);
            // logits = W · h
            let logits: Vec<f32> = (0..actions)
                .map(|a| {
                    self.w
                        .row(a)
                        .iter()
                        .zip(h.row(0))
                        .map(|(wv, hv)| wv * hv)
                        .sum()
                })
                .collect();
            let mut logits_t = Tensor::from_slice(&[1, actions], &logits);
            if t == 0 {
                // Empty schemes are useless: mask STOP at the first step.
                logits_t.row_mut(0)[stop] = f32::NEG_INFINITY;
            }
            let probs = loss::softmax(&logits_t);
            // Sample an action.
            let u: f32 = rng.gen();
            let mut acc = 0.0;
            let mut action = stop;
            for (a, &p) in probs.row(0).iter().enumerate() {
                acc += p;
                if u <= acc {
                    action = a;
                    break;
                }
            }
            self.episode.states.push(h.clone());
            self.episode.actions.push(action);
            self.episode.probs.push(probs.row(0).to_vec());
            if action == stop {
                break;
            }
            scheme.push(action);
            prev_action = action;
        }
        scheme
    }

    /// One REINFORCE step on the last sampled episode's reward.
    fn reinforce(&mut self, cfg: &RlConfig, r: f32, stop: usize) {
        let Episode { states: step_states, actions: step_actions, probs: step_probs } =
            std::mem::take(&mut self.episode);
        if !self.baseline_init {
            self.baseline = r;
            self.baseline_init = true;
        }
        let advantage = r - self.baseline;
        self.baseline = cfg.baseline_decay * self.baseline + (1.0 - cfg.baseline_decay) * r;
        // Per-step gradient on logits: (softmax − onehot) · advantage.
        let mut h_grads: Vec<Option<Tensor>> = vec![None; step_actions.len()];
        for (t, (&action, probs)) in step_actions.iter().zip(&step_probs).enumerate() {
            let mut glogits = probs.clone();
            glogits[action] -= 1.0;
            for g in glogits.iter_mut() {
                *g *= advantage;
            }
            // dW += glogits ⊗ h_t ; dh_t = Wᵀ glogits
            let mut dh = vec![0.0f32; cfg.hidden];
            for (a, &g) in glogits.iter().enumerate() {
                if g == 0.0 || !g.is_finite() {
                    continue;
                }
                let wrow = self.w.row(a);
                let grow = self.w_grad.row_mut(a);
                for j in 0..cfg.hidden {
                    grow[j] += g * step_states[t].row(0)[j];
                    dh[j] += g * wrow[j];
                }
            }
            h_grads[t] = Some(Tensor::from_slice(&[1, cfg.hidden], &dh));
        }
        let dx = self.rnn.backward_through_time(&h_grads);
        // Embedding-table gradients from the per-step input grads.
        let mut prev = stop;
        for (t, dxt) in dx.iter().enumerate() {
            let row = self.emb_grad.row_mut(prev);
            for (g, &d) in row.iter_mut().zip(dxt.row(0)) {
                *g += d;
            }
            if t < step_actions.len() && step_actions[t] != stop {
                prev = step_actions[t];
            }
        }
        let mut params = self.rnn.params_mut();
        params.push(Param { value: &mut self.w, grad: &mut self.w_grad, weight_decay: false });
        params.push(Param { value: &mut self.emb, grad: &mut self.emb_grad, weight_decay: false });
        self.opt.step(&mut params);
    }
}

/// The RL learner is the controller (weights, Adam moments and reward
/// baseline), journaled after every evaluated episode.
impl Searcher for RlConfig {
    type State = Controller;
    const NAME: &'static str = "RL";
    const TAG: &'static str = "AutoMC-rl-v3";

    fn config_words(&self) -> Vec<u64> {
        vec![
            self.emb_dim as u64,
            self.hidden as u64,
            self.lr.to_bits() as u64,
            self.baseline_decay.to_bits() as u64,
        ]
    }

    /// Logits over every strategy plus STOP.
    fn init(&self, ctx: &SearchContext<'_>, rng: &mut Rng) -> Controller {
        Controller::new(ctx.space.len() + 1, self, rng)
    }

    /// An empty episode evaluates nothing and spends no budget, so it is
    /// redrawn without a round boundary.
    fn propose(
        &self,
        ctrl: &mut Controller,
        ctx: &SearchContext<'_>,
        rng: &mut Rng,
    ) -> Option<Vec<Candidate>> {
        loop {
            let scheme = ctrl.sample(self, ctx.max_len, ctx.space.len(), rng);
            if !scheme.is_empty() {
                return Some(vec![Candidate { scheme, prefix_cost: 0 }]);
            }
        }
    }

    /// A failed episode yields no REINFORCE update: there is no
    /// trustworthy reward to learn from.
    fn observe(
        &self,
        ctrl: &mut Controller,
        ctx: &SearchContext<'_>,
        _i: usize,
        _scheme: Scheme,
        evaluated: Option<(ConvNet, SchemeOutcome)>,
    ) {
        if let Some((_, outcome)) = evaluated {
            ctrl.reinforce(self, reward(outcome.ar, outcome.pr, ctx.gamma), ctx.space.len());
        }
    }

    fn snapshot(&self, ctrl: &Controller) -> (Vec<u8>, Vec<NodeSnapshot>) {
        (ctrl.state_to_bytes(), Vec::new())
    }

    fn restore(
        &self,
        ctrl: &mut Controller,
        _ctx: &SearchContext<'_>,
        state: &[u8],
        _nodes: Vec<NodeSnapshot>,
    ) -> Option<()> {
        ctrl.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SearchBudget, SearchContext};
    use crate::driver::drive;
    use crate::journal::JournalOptions;
    use automc_compress::{ExecConfig, Metrics, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_tensor::rng_from_seed;

    #[test]
    fn reward_shapes_objectives() {
        assert!(reward(0.1, 0.4, 0.3) > reward(-0.1, 0.4, 0.3));
        assert!(reward(0.0, 0.35, 0.3) > reward(0.0, 0.1, 0.3), "missing γ is penalised");
    }

    #[test]
    fn controller_state_roundtrips_bitwise() {
        let mut rng = rng_from_seed(341);
        let cfg = RlConfig::default();
        let mut a = Controller::new(9, &cfg, &mut rng);
        a.baseline = 0.37;
        a.baseline_init = true;
        let bytes = a.state_to_bytes();
        let mut b = Controller::new(9, &cfg, &mut rng_from_seed(77));
        b.restore_state(&bytes).expect("snapshot restores");
        assert_eq!(b.state_to_bytes(), bytes, "roundtrip is bitwise");
        // Truncated or wrong-magic streams are rejected.
        assert!(Controller::new(9, &cfg, &mut rng)
            .restore_state(&bytes[..bytes.len() - 2])
            .is_none());
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        assert!(Controller::new(9, &cfg, &mut rng).restore_state(&bad).is_none());
    }

    #[test]
    fn rl_search_produces_valid_schemes() {
        let mut rng = rng_from_seed(340);
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
            max_len: 3,
            gamma: 0.2,
            budget: SearchBudget::new(5_000),
        };
        let history = drive(&ctx, &RlConfig::default(), &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty());
        assert!(history
            .records
            .iter()
            .all(|r| !r.scheme.is_empty() && r.scheme.len() <= 3));
        assert!(history
            .records
            .iter()
            .all(|r| r.scheme.iter().all(|&s| s < space.len())));
    }
}
