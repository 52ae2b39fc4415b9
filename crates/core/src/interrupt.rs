//! Cooperative interruption of long-running searches.
//!
//! Model-checking workloads are open-ended: state spaces routinely exceed any
//! fixed budget, so every search loop in the workspace (the operational
//! explorer's expansion loops, the axiomatic rf/mo enumeration) periodically
//! polls an [`Interrupt`] — a shared [`CancelToken`] plus an optional
//! wall-clock deadline. When the poll trips, the search stops where it is and
//! reports *why* via a [`StopReason`], carrying whatever partial results it
//! has accumulated so far instead of discarding them.
//!
//! Polling is cooperative and cheap: a relaxed atomic load plus (only when a
//! deadline is set) an `Instant::now()` call, performed every few hundred
//! steps rather than on every step.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Cloning the token shares the underlying flag: cancelling any clone cancels
/// them all. Tokens are cheap to clone and safe to poll from many threads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a search stopped before exhausting its state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopReason {
    /// The shared [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock budget ran out.
    WallBudget {
        /// The budget that was exceeded.
        budget: Duration,
    },
    /// The explored-state budget ran out.
    StateBudget {
        /// The state-count limit that was reached.
        limit: usize,
    },
    /// The memory budget ran out and every degradation step (spill-to-disk)
    /// was already taken or unavailable.
    MemoryBudget {
        /// The byte budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::WallBudget { budget } => {
                write!(f, "wall budget of {} ms exceeded", budget.as_millis())
            }
            StopReason::StateBudget { limit } => {
                write!(f, "state budget of {limit} states exceeded")
            }
            StopReason::MemoryBudget { budget } => {
                write!(f, "memory budget of {budget} bytes exceeded")
            }
        }
    }
}

/// A pollable interruption source: a cancel token and/or a deadline.
///
/// The default value never triggers, so un-budgeted callers pay only a
/// `None` check per poll.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    /// The wall budget the deadline was derived from, reported in
    /// [`StopReason::WallBudget`].
    wall_budget: Option<Duration>,
}

impl Interrupt {
    /// An interrupt that never triggers.
    #[must_use]
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a wall-clock budget, measured from now.
    #[must_use]
    pub fn with_wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self.deadline = Instant::now().checked_add(budget);
        self
    }

    /// Whether this interrupt can ever trigger.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    /// Polls the interrupt: `Some(reason)` once cancellation was requested or
    /// the deadline passed, `None` otherwise. Cancellation wins ties so a
    /// cancelled check reports [`StopReason::Cancelled`] even if its deadline
    /// also expired.
    #[must_use]
    pub fn triggered(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            // Fault-injection point: `interrupt.deadline` — a kill expires
            // the deadline at this poll, so a test can stop a search at a
            // chosen poll without racing it against wall time.
            if Instant::now() >= deadline || crate::fault::hit("interrupt.deadline") {
                let budget = self.wall_budget.unwrap_or_default();
                return Some(StopReason::WallBudget { budget });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_interrupt_never_triggers() {
        let interrupt = Interrupt::none();
        assert!(!interrupt.is_armed());
        assert_eq!(interrupt.triggered(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        let interrupt = Interrupt::none().with_cancel(clone);
        assert_eq!(interrupt.triggered(), Some(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_the_budget() {
        let interrupt = Interrupt::none().with_wall_budget(Duration::ZERO);
        match interrupt.triggered() {
            Some(StopReason::WallBudget { budget }) => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected wall-budget trigger, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_wins_over_expired_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let interrupt = Interrupt::none().with_cancel(token).with_wall_budget(Duration::ZERO);
        assert_eq!(interrupt.triggered(), Some(StopReason::Cancelled));
    }

    #[test]
    fn generous_deadline_does_not_trigger() {
        let interrupt = Interrupt::none().with_wall_budget(Duration::from_secs(3600));
        assert!(interrupt.is_armed());
        assert_eq!(interrupt.triggered(), None);
    }

    #[test]
    fn stop_reason_display_is_stable() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(
            StopReason::WallBudget { budget: Duration::from_millis(250) }.to_string(),
            "wall budget of 250 ms exceeded"
        );
        assert_eq!(
            StopReason::StateBudget { limit: 42 }.to_string(),
            "state budget of 42 states exceeded"
        );
        assert_eq!(
            StopReason::MemoryBudget { budget: 1024 }.to_string(),
            "memory budget of 1024 bytes exceeded"
        );
    }
}
