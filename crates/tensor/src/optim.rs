//! Optimizers: SGD with momentum / weight decay, and Adam.
//!
//! Optimizer state is keyed by parameter *position* in the slice handed to
//! [`Optimizer::step`]. Training code constructs a fresh optimizer per
//! training run; if a network is structurally edited (pruned, decomposed)
//! between runs, shapes change and the lazily-initialised state simply
//! re-initialises — the state check below makes that safe.

use crate::isa::multiversion;
use crate::Tensor;

/// A mutable view of one parameter tensor and its accumulated gradient.
pub struct Param<'a> {
    /// Parameter values, updated in place by the optimizer.
    pub value: &'a mut Tensor,
    /// Accumulated gradient; zeroed by the optimizer after each step.
    pub grad: &'a mut Tensor,
    /// Whether weight decay applies (true for weights, false for BN/bias).
    pub weight_decay: bool,
}

/// Common optimizer interface.
pub trait Optimizer {
    /// Apply one update step and clear the gradients.
    fn step(&mut self, params: &mut [Param<'_>]);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Override the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay applied to parameters flagged `weight_decay`.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 }
    }
}

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Create from a config.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd { cfg, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [Param<'_>]) {
        if self.velocity.len() < params.len() {
            self.velocity
                .resize_with(params.len(), || Tensor::zeros(&[0]));
        }
        for (i, p) in params.iter_mut().enumerate() {
            let decay = if p.weight_decay { self.cfg.weight_decay } else { 0.0 };
            let v = &mut self.velocity[i];
            if v.dims() != p.value.dims() {
                *v = Tensor::zeros(p.value.dims());
            }
            debug_assert_eq!(p.grad.dims(), p.value.dims(), "sgd: gradient shape mismatch");
            let (w, g) = (p.value.data_mut(), p.grad.data_mut());
            sgd_update(w, g, v.data_mut(), -self.cfg.lr, self.cfg.momentum, decay);
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// L2 weight decay applied to parameters flagged `weight_decay`.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        // lr = 0.001 matches the paper's setting for NN_exp / F_mo training.
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// The Adam optimizer (Kingma & Ba).
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

/// Journaled Adam moment state, restored by [`Adam::import_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First-moment estimates, keyed by parameter position.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, keyed by parameter position.
    pub v: Vec<Tensor>,
    /// Completed step count (drives bias correction).
    pub t: u64,
}

impl Adam {
    /// Create from a config.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam { cfg, m: Vec::new(), v: Vec::new(), t: 0 }
    }

    /// The first and second moment estimates and the step count, borrowed
    /// for journaling.
    pub fn moments(&self) -> (&[Tensor], &[Tensor], u64) {
        (&self.m, &self.v, self.t)
    }

    /// Restore the state [`Adam::moments`] showed; subsequent steps
    /// continue exactly where the snapshotted optimizer left off.
    pub fn import_state(&mut self, state: AdamState) {
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [Param<'_>]) {
        if self.m.len() < params.len() {
            self.m.resize_with(params.len(), || Tensor::zeros(&[0]));
            self.v.resize_with(params.len(), || Tensor::zeros(&[0]));
        }
        self.t += 1;
        let bc1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            let decay = if p.weight_decay { self.cfg.weight_decay } else { 0.0 };
            if self.m[i].dims() != p.value.dims() {
                self.m[i] = Tensor::zeros(p.value.dims());
                self.v[i] = Tensor::zeros(p.value.dims());
            }
            debug_assert_eq!(p.grad.dims(), p.value.dims(), "adam: gradient shape mismatch");
            let moments = (self.m[i].data_mut(), self.v[i].data_mut());
            let (w, g) = (p.value.data_mut(), p.grad.data_mut());
            adam_update(w, g, moments.0, moments.1, &self.cfg, decay, bc1, bc2);
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

multiversion! {
    /// One SGD step over a parameter `w` with gradient `g` and velocity
    /// `v`, element by element: `g += decay·w` (when `decay ≠ 0`), then
    /// `v = momentum·v + g` and `w += neg_lr·v` (or `w += neg_lr·g`
    /// without momentum); `g` is zeroed.
    fn sgd_update(
        w: &mut [f32],
        g: &mut [f32],
        v: &mut [f32],
        neg_lr: f32,
        momentum: f32,
        decay: f32,
    ) {
        if decay != 0.0 {
            for (gv, &wv) in g.iter_mut().zip(&*w) {
                *gv += decay * wv;
            }
        }
        if momentum != 0.0 {
            for ((wv, gv), vv) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
                *vv = *vv * momentum + *gv;
                *wv += neg_lr * *vv;
                *gv = 0.0;
            }
        } else {
            for (wv, gv) in w.iter_mut().zip(g.iter_mut()) {
                *wv += neg_lr * *gv;
                *gv = 0.0;
            }
        }
    }

    /// One Adam step over a parameter `w` with gradient `g` and moments
    /// `m`, `v`: `g += decay·w` (when `decay ≠ 0`), the moment updates
    /// and the bias-corrected step (`bc1`, `bc2`); `g` is zeroed.
    fn adam_update(
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        cfg: &AdamConfig,
        decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        if decay != 0.0 {
            for (gv, &wv) in g.iter_mut().zip(&*w) {
                *gv += decay * wv;
            }
        }
        let (beta1, beta2, lr, eps) = (cfg.beta1, cfg.beta2, cfg.lr, cfg.eps);
        for (((wv, gv), mv), vv) in w.iter_mut().zip(g.iter_mut()).zip(m.iter_mut()).zip(v.iter_mut())
        {
            let g = *gv;
            *mv = beta1 * *mv + (1.0 - beta1) * g;
            *vv = beta2 * *vv + (1.0 - beta2) * g * g;
            let m_hat = *mv / bc1;
            let v_hat = *vv / bc2;
            *wv -= lr * m_hat / (v_hat.sqrt() + eps);
            *gv = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = ‖w − target‖² with each optimizer.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Tensor::from_slice(&[4], &[1.0, -2.0, 0.5, 3.0]);
        let mut w = Tensor::zeros(&[4]);
        let mut g = Tensor::zeros(&[4]);
        for _ in 0..steps {
            let diff = w.sub(&target);
            g.zero();
            g.axpy(2.0, &diff);
            let mut params = [Param { value: &mut w, grad: &mut g, weight_decay: false }];
            opt.step(&mut params);
        }
        w.sub(&target).norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 });
        assert!(quadratic_descent(&mut sgd, 200) < 1e-3);
    }

    #[test]
    fn sgd_without_momentum_converges() {
        let mut sgd = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 });
        assert!(quadratic_descent(&mut sgd, 200) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() });
        assert!(quadratic_descent(&mut adam, 300) < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut sgd = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.5 });
        let mut w = Tensor::ones(&[3]);
        let mut g = Tensor::zeros(&[3]);
        for _ in 0..10 {
            g.zero();
            let mut params = [Param { value: &mut w, grad: &mut g, weight_decay: true }];
            sgd.step(&mut params);
        }
        // Pure decay: w ← w(1 − lr·wd) each step.
        let expect = (1.0f32 - 0.05).powi(10);
        for &v in w.data() {
            assert!((v - expect).abs() < 1e-4, "{v} vs {expect}");
        }
    }

    #[test]
    fn grads_cleared_after_step() {
        let mut sgd = Sgd::new(SgdConfig::default());
        let mut w = Tensor::ones(&[2]);
        let mut g = Tensor::ones(&[2]);
        let mut params = [Param { value: &mut w, grad: &mut g, weight_decay: false }];
        sgd.step(&mut params);
        assert_eq!(g.data(), &[0.0, 0.0]);
    }

    #[test]
    fn state_reinitialises_on_shape_change() {
        let mut sgd = Sgd::new(SgdConfig::default());
        let mut w = Tensor::ones(&[4]);
        let mut g = Tensor::ones(&[4]);
        {
            let mut params = [Param { value: &mut w, grad: &mut g, weight_decay: false }];
            sgd.step(&mut params);
        }
        // Simulate pruning: the parameter shrinks.
        let mut w2 = Tensor::ones(&[2]);
        let mut g2 = Tensor::ones(&[2]);
        let mut params = [Param { value: &mut w2, grad: &mut g2, weight_decay: false }];
        sgd.step(&mut params); // must not panic
        assert_eq!(w2.dims(), &[2]);
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        let target = Tensor::from_slice(&[4], &[1.0, -2.0, 0.5, 3.0]);
        let descend = |opt: &mut Adam, w: &mut Tensor, steps: usize| {
            let mut g = Tensor::zeros(&[4]);
            for _ in 0..steps {
                let diff = w.sub(&target);
                g.zero();
                g.axpy(2.0, &diff);
                let mut params = [Param { value: w, grad: &mut g, weight_decay: false }];
                opt.step(&mut params);
            }
        };
        let cfg = AdamConfig { lr: 0.1, ..AdamConfig::default() };
        let mut straight = Adam::new(cfg);
        let mut w_straight = Tensor::zeros(&[4]);
        descend(&mut straight, &mut w_straight, 40);

        let mut first = Adam::new(cfg);
        let mut w_resumed = Tensor::zeros(&[4]);
        descend(&mut first, &mut w_resumed, 25);
        let mut resumed = Adam::new(cfg);
        let (m, v, t) = first.moments();
        resumed.import_state(AdamState { m: m.to_vec(), v: v.to_vec(), t });
        descend(&mut resumed, &mut w_resumed, 15);

        for (a, b) in w_straight.data().iter().zip(w_resumed.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "resume must be bitwise identical");
        }
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut sgd = Sgd::new(SgdConfig { lr: 1.0, momentum: 0.0, weight_decay: 0.0 });
        sgd.set_lr(0.0);
        let mut w = Tensor::ones(&[1]);
        let mut g = Tensor::ones(&[1]);
        let mut params = [Param { value: &mut w, grad: &mut g, weight_decay: false }];
        sgd.step(&mut params);
        assert_eq!(w.data(), &[1.0]);
    }
}
