use automc_compress::{ExecConfig, Metrics, StrategySpace};
use automc_data::ImageSet;
use automc_models::ConvNet;

/// Evaluation budget in simulated cost units (see
/// [`automc_compress::EvalCost::units`]) — the stand-in for the paper's
/// equal-GPU-time protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Total units each algorithm may spend.
    pub units: u64,
}

impl SearchBudget {
    /// A budget of `units`.
    pub fn new(units: u64) -> Self {
        SearchBudget { units }
    }
}

/// One automatic-model-compression problem instance (Definition 1).
pub struct SearchContext<'a> {
    /// The strategy space `C`.
    pub space: &'a StrategySpace,
    /// The pre-trained model `M`.
    pub base_model: &'a ConvNet,
    /// `P(M)`, `F(M)`, `A(M)` of the base model on `eval_set`.
    pub base_metrics: Metrics,
    /// Training data visible to strategies during search (the paper's 10%
    /// sample of `D`).
    pub search_train: &'a ImageSet,
    /// Held-out evaluation data for `A(M)`.
    pub eval_set: &'a ImageSet,
    /// Execution-scale configuration.
    pub exec: ExecConfig,
    /// Maximum scheme length `L` (paper: 5).
    pub max_len: usize,
    /// Target parameter-reduction rate γ.
    pub gamma: f32,
    /// Evaluation budget.
    pub budget: SearchBudget,
}

impl SearchContext<'_> {
    /// Whether a scheme may still be extended.
    pub fn can_extend(&self, len: usize) -> bool {
        len < self.max_len
    }

    /// The problem-instance words the driver folds into every run
    /// fingerprint (see [`crate::drive`]): a journal may only be resumed
    /// by a run with an identical instance.
    pub fn fingerprint_words(&self) -> [u64; 7] {
        [
            self.space.len() as u64,
            self.budget.units,
            self.max_len as u64,
            self.gamma.to_bits() as u64,
            self.base_metrics.params as u64,
            self.base_metrics.flops,
            self.base_metrics.acc.to_bits() as u64,
        ]
    }
}
