//! Round-boundary progress reporting and cooperative cancellation.
//!
//! The search driver ([`crate::drive`]) journals the state of every
//! search at the end of each round; that same boundary is the only safe
//! place to pause or stop a search (mid-round state is not resumable). A
//! [`RoundHook`] threads an observer through
//! [`JournalOptions`](crate::journal::JournalOptions): after each journal
//! write the driver reports a [`RoundEvent`] (round number, budget spent,
//! best feasible candidate so far, memo counters) and the observer answers
//! [`RoundControl::Continue`] or [`RoundControl::Cancel`]. A cancelled
//! search returns its partial history and keeps the journal on disk, so a
//! resubmitted run resumes from the cancelled round for free; the resume
//! tests stop their runs the same way.
//!
//! The hook runs on whichever thread executes the search (a `par` pool
//! worker under the bench harness), so observers must be `Send + Sync`
//! and should return quickly: the search loop blocks on them.

use crate::history::SearchHistory;
use automc_compress::memo::MemoStats;
use std::fmt;
use std::sync::Arc;

/// What the observer wants the search to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundControl {
    /// Keep searching.
    Continue,
    /// Stop at this round boundary: return the partial history and leave
    /// the journal on disk (resumable).
    Cancel,
}

/// One completed search round, reported after its journal write.
#[derive(Debug, Clone, Default)]
pub struct RoundEvent {
    /// Algorithm name (from the history), so interleaved events from
    /// concurrent searches stay attributable.
    pub algorithm: String,
    /// Rounds completed so far (1-based: the first event has `round == 1`).
    pub round: u64,
    /// Budget units spent so far.
    pub spent: u64,
    /// Total budget for the run.
    pub budget: u64,
    /// Evaluations recorded so far (feasible + failed).
    pub evals: usize,
    /// Failed evaluations among `evals`.
    pub failed: usize,
    /// Accuracy of the best feasible candidate so far, if any.
    pub best_acc: Option<f32>,
    /// FLOPs of that candidate.
    pub best_flops: Option<u64>,
    /// Pruning rate of that candidate.
    pub best_pr: Option<f32>,
    /// Memo-cache counters accumulated by this search since it started
    /// (thread-local, so concurrent searches don't bleed into each other;
    /// the spill-store fields are process-wide).
    pub memo: MemoStats,
}

impl RoundEvent {
    /// Build an event from the search's live state. `memo_start` is the
    /// [`automc_compress::memo::stats`] snapshot taken when the search
    /// began on this thread.
    pub fn from_history(
        history: &SearchHistory,
        gamma: f32,
        round: u64,
        spent: u64,
        budget: u64,
        memo_start: &MemoStats,
    ) -> Self {
        let best = history.best(gamma);
        RoundEvent {
            algorithm: history.algorithm.clone(),
            round,
            spent,
            budget,
            evals: history.records.len(),
            failed: history.failed_count(),
            best_acc: best.map(|r| r.acc),
            best_flops: best.map(|r| r.flops),
            best_pr: best.map(|r| r.pr),
            memo: automc_compress::memo::stats().since(memo_start),
        }
    }
}

/// Observer invoked at every round boundary of a search.
pub trait RoundObserver: Send + Sync {
    /// Called after each round's journal write; the return value decides
    /// whether the search continues.
    fn on_round(&self, ev: &RoundEvent) -> RoundControl;

    /// Polled between whole work units (e.g. by the bench harness before
    /// starting each grid task) where no round event is available. The
    /// default never cancels.
    fn cancelled(&self) -> bool {
        false
    }
}

/// An optional shared [`RoundObserver`], defaulting to "no observer".
/// Cloning shares the observer. Carried by
/// [`JournalOptions`](crate::journal::JournalOptions) so the hook reaches
/// the driver without widening its signature.
#[derive(Clone, Default)]
pub struct RoundHook(Option<Arc<dyn RoundObserver>>);

impl RoundHook {
    /// Wrap an observer.
    pub fn new(observer: Arc<dyn RoundObserver>) -> Self {
        RoundHook(Some(observer))
    }

    /// Whether an observer is attached.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Report a round; `Continue` when no observer is attached.
    pub fn observe(&self, ev: &RoundEvent) -> RoundControl {
        match &self.0 {
            Some(obs) => obs.on_round(ev),
            None => RoundControl::Continue,
        }
    }

    /// Poll for cancellation between work units; `false` when no observer
    /// is attached.
    pub fn cancelled(&self) -> bool {
        self.0.as_ref().is_some_and(|obs| obs.cancelled())
    }
}

impl fmt::Debug for RoundHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() { "RoundHook(set)" } else { "RoundHook(none)" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingObserver {
        seen: AtomicU64,
        cancel_at: u64,
    }

    impl RoundObserver for CountingObserver {
        fn on_round(&self, ev: &RoundEvent) -> RoundControl {
            self.seen.fetch_add(1, Ordering::SeqCst);
            if ev.round >= self.cancel_at {
                RoundControl::Cancel
            } else {
                RoundControl::Continue
            }
        }
    }

    #[test]
    fn default_hook_never_cancels() {
        let hook = RoundHook::default();
        assert!(!hook.is_set());
        assert!(!hook.cancelled());
        assert_eq!(hook.observe(&RoundEvent::default()), RoundControl::Continue);
    }

    #[test]
    fn hook_reports_and_cancels() {
        let obs = Arc::new(CountingObserver { seen: AtomicU64::new(0), cancel_at: 2 });
        let hook = RoundHook::new(obs.clone());
        let mut ev = RoundEvent::default();
        ev.round = 1;
        assert_eq!(hook.observe(&ev), RoundControl::Continue);
        ev.round = 2;
        assert_eq!(hook.observe(&ev), RoundControl::Cancel);
        assert_eq!(obs.seen.load(Ordering::SeqCst), 2);
    }
}
