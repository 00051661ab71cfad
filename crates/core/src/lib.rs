//! # automc-core
//!
//! The AutoMC search strategies — the paper's primary contribution — plus
//! the AutoML baselines it is compared against.
//!
//! * [`SearchContext`] — one automatic-model-compression problem instance
//!   (Definition 1): base model, target reduction rate γ, the strategy
//!   space, the 10% search sample, and an evaluation budget.
//! * [`drive`] — the one search loop: run fingerprint, journal resume,
//!   supervised evaluation, budget charge, history, round checkpoint,
//!   round hook. Each strategy is a [`Searcher`] that supplies only its
//!   learner, its candidates and what it learns from their outcomes.
//! * [`Fmo`] — the multi-objective step evaluator (Fig. 3): an RNN encodes
//!   the strategy sequence, an MLP head predicts the step deltas
//!   `(AR_step, PR_step)` for a candidate next strategy; trained online by
//!   Eq. 5.
//! * [`AutoMc`] — Algorithm 2, the progressive search. Evaluated schemes
//!   keep their compressed model snapshots, so extending a scheme by one
//!   strategy costs one strategy execution (the efficiency the paper
//!   claims for progressive exploration).
//! * Baselines: [`Random`], [`EvolutionConfig`] (multi-objective EA),
//!   [`RlConfig`] (recurrent controller + REINFORCE) — all evaluate
//!   *complete* schemes, as in the paper.
//! * [`SearchHistory`] — per-evaluation log all algorithms emit; the
//!   tables and figures are rendered from it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod context;
mod driver;
mod evolution;
mod fmo;
pub mod history;
pub mod journal;
pub mod pareto;
pub mod progress;
mod progressive;
mod random;
mod rl;
mod statebytes;
pub mod transfer;

pub use context::{SearchBudget, SearchContext};
pub use driver::{drive, Candidate, Searcher};
pub use evolution::EvolutionConfig;
pub use fmo::Fmo;
pub use history::{EvalRecord, EvalStatus, SearchHistory};
pub use journal::JournalOptions;
pub use progress::{RoundControl, RoundEvent, RoundHook, RoundObserver};
pub use progressive::{AutoMc, AutoMcConfig};
pub use random::Random;
pub use rl::RlConfig;
