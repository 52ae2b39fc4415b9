//! Check budgets and the three-valued verdict.
//!
//! The blocking [`crate::Engine`] API answers exactly or not at all: a check
//! either exhausts its search space or fails with an error. Real deployments
//! (the batch CLI, `gam serve`) need a third shape of answer — *"here is what
//! I know so far, and why I stopped"*. This module provides it:
//!
//! * [`CheckBudget`] — per-check resource limits: a wall-clock budget, an
//!   explored-state cap and/or an accounted-memory cap;
//! * [`SessionVerdict`] — the three-valued verdict: `Allowed`, `Forbidden`,
//!   or [`SessionVerdict::Inconclusive`] carrying the partial outcome set
//!   accumulated before the stop and the [`StopReason`].
//!
//! A budgeted check is one [`crate::Engine::run`] call (or its
//! [`crate::Engine::check_budgeted`] shorthand), fenced like every other
//! check, so a panicking checker answers with
//! [`crate::EngineError::Panicked`].
//!
//! Soundness of partial verdicts: both backends enumerate *consistent*
//! executions only, so an interrupted search's partial outcome set is an
//! under-approximation of the true allowed set. If a partial outcome already
//! matches the test's condition of interest the verdict is promoted to a
//! full `Allowed` — a witness is a witness no matter when the search stopped.
//! The absence of a witness in a partial set proves nothing, hence
//! `Inconclusive`.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use gam_core::{CancelToken, Interrupt, StopReason};
use gam_isa::litmus::{LitmusTest, Outcome};

use crate::checker::Query;

/// Per-check resource limits.
///
/// The default ([`CheckBudget::none`]) is unlimited: a budgeted check with no
/// budget behaves like the blocking API, except that a state-limit abort is
/// reported as an inconclusive verdict instead of an error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckBudget {
    /// Cap on distinct explored states (operational backend only; the
    /// axiomatic enumerator has no state count and ignores it).
    pub max_states: Option<usize>,
    /// Wall-clock budget, measured from the moment the check starts
    /// executing (queue time does not count).
    pub max_wall: Option<Duration>,
    /// Cap on the explorer's accounted memory footprint in bytes
    /// (operational backend only). Nearing the cap first degrades the
    /// search (cold rows spill when a spill directory is configured);
    /// crossing it stops the check with [`StopReason::MemoryBudget`].
    pub max_bytes: Option<usize>,
}

impl CheckBudget {
    /// An unlimited budget.
    #[must_use]
    pub fn none() -> Self {
        CheckBudget::default()
    }

    /// Caps the number of distinct explored states.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states);
        self
    }

    /// Caps the wall-clock time.
    #[must_use]
    pub fn with_max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }

    /// Caps the explorer's accounted memory footprint.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// What a check under this budget asks for. A limited check enumerates
    /// outcomes, so an early stop has partial outcomes to report as
    /// [`SessionVerdict::Inconclusive`]; an unlimited one decides the verdict
    /// alone. [`crate::Engine::answer`] applies this rule.
    #[must_use]
    pub fn query(&self) -> Query {
        if *self == CheckBudget::none() {
            Query::Verdict
        } else {
            Query::Outcomes
        }
    }

    /// Builds the [`Interrupt`] a backend should poll for this budget: the
    /// given cancel token plus the wall deadline (armed now).
    #[must_use]
    pub fn interrupt(&self, cancel: CancelToken) -> Interrupt {
        let interrupt = Interrupt::none().with_cancel(cancel);
        match self.max_wall {
            Some(budget) => interrupt.with_wall_budget(budget),
            None => interrupt,
        }
    }
}

/// The three-valued verdict of a budgeted check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionVerdict {
    /// The condition of interest is allowed — a witness outcome was found
    /// (possibly inside a partial outcome set; a witness is conclusive no
    /// matter when the search stopped).
    Allowed,
    /// The search exhausted the (reduced) space without a witness.
    Forbidden,
    /// The search stopped before exhaustion and found no witness. The
    /// partial outcome set is a sound under-approximation of the allowed
    /// set.
    Inconclusive {
        /// Outcomes of the executions visited before the stop.
        partial_outcomes: BTreeSet<Outcome>,
        /// Backend progress counter: distinct states visited (operational
        /// backend; the axiomatic enumerator reports 0).
        states_visited: usize,
        /// Why the search stopped.
        reason: StopReason,
    },
}

impl SessionVerdict {
    /// Derives the verdict from a *complete* outcome set.
    #[must_use]
    pub fn conclusive(test: &LitmusTest, outcomes: &BTreeSet<Outcome>) -> SessionVerdict {
        if outcomes.iter().any(|outcome| test.condition().matched_by(outcome)) {
            SessionVerdict::Allowed
        } else {
            SessionVerdict::Forbidden
        }
    }

    /// True for `Allowed` and `Forbidden`.
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, SessionVerdict::Inconclusive { .. })
    }

    /// The two-valued verdict, when conclusive.
    #[must_use]
    pub fn as_verdict(&self) -> Option<gam_axiomatic::Verdict> {
        match self {
            SessionVerdict::Allowed => Some(gam_axiomatic::Verdict::Allowed),
            SessionVerdict::Forbidden => Some(gam_axiomatic::Verdict::Forbidden),
            SessionVerdict::Inconclusive { .. } => None,
        }
    }
}

impl fmt::Display for SessionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionVerdict::Allowed => f.write_str("allowed"),
            SessionVerdict::Forbidden => f.write_str("forbidden"),
            SessionVerdict::Inconclusive { partial_outcomes, states_visited, reason } => write!(
                f,
                "inconclusive: {reason} ({states_visited} states visited, \
                 {} partial outcomes)",
                partial_outcomes.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::ModelKind;
    use gam_isa::litmus::library;

    use crate::engine::{Backend, Engine};

    #[test]
    fn budget_builders_compose() {
        let budget = CheckBudget::none();
        assert_eq!(budget, CheckBudget { max_states: None, max_wall: None, max_bytes: None });
        let budget = budget
            .with_max_states(10)
            .with_max_wall(Duration::from_millis(5))
            .with_max_bytes(1 << 20);
        assert_eq!(budget.max_states, Some(10));
        assert_eq!(budget.max_wall, Some(Duration::from_millis(5)));
        assert_eq!(budget.max_bytes, Some(1 << 20));
        assert!(budget.interrupt(CancelToken::new()).is_armed());
        // Even an unlimited budget arms the interrupt: the cancel token.
        assert!(CheckBudget::none().interrupt(CancelToken::new()).is_armed());
        // Any limit at all makes the check enumerate outcomes.
        assert_eq!(CheckBudget::none().query(), Query::Verdict);
        assert_eq!(CheckBudget::none().with_max_bytes(1).query(), Query::Outcomes);
        assert_eq!(budget.query(), Query::Outcomes);
    }

    #[test]
    fn session_verdict_helpers_and_display() {
        let test = library::dekker();
        let witness = Engine::axiomatic(ModelKind::Gam)
            .run(&test, Query::Verdict, &CheckBudget::none())
            .unwrap()
            .outcomes;
        assert_eq!(witness.len(), 1, "dekker is allowed under GAM");
        let mut outcomes = BTreeSet::new();
        assert_eq!(SessionVerdict::conclusive(&test, &outcomes), SessionVerdict::Forbidden);
        outcomes.extend(witness);
        assert_eq!(SessionVerdict::conclusive(&test, &outcomes), SessionVerdict::Allowed);
        let inconclusive = SessionVerdict::Inconclusive {
            partial_outcomes: BTreeSet::new(),
            states_visited: 7,
            reason: StopReason::Cancelled,
        };
        assert!(!inconclusive.is_conclusive());
        assert_eq!(inconclusive.as_verdict(), None);
        assert_eq!(
            inconclusive.to_string(),
            "inconclusive: cancelled (7 states visited, 0 partial outcomes)"
        );
        assert_eq!(SessionVerdict::Allowed.as_verdict(), Some(gam_axiomatic::Verdict::Allowed));
        assert_eq!(SessionVerdict::Allowed.to_string(), "allowed");
        assert_eq!(SessionVerdict::Forbidden.to_string(), "forbidden");
    }

    #[test]
    fn generous_budget_agrees_with_the_blocking_api() {
        let test = library::dekker();
        let budget = CheckBudget::none().with_max_wall(Duration::from_secs(120));
        for backend in Backend::ALL {
            let engine = Engine::builder().model(ModelKind::Gam).backend(backend).build().unwrap();
            let blocking = engine.check(&test).unwrap();
            let outcome = engine.check_budgeted(&test, &budget).unwrap();
            assert_eq!(outcome.verdict.as_verdict(), Some(blocking), "{backend}");
        }
    }

    #[test]
    fn zero_wall_budget_is_inconclusive_on_both_backends() {
        // `corr` is forbidden under GAM, so no early witness can rescue the
        // verdict: a zero budget must stop at the first poll, inconclusive.
        let test = library::corr();
        let budget = CheckBudget::none().with_max_wall(Duration::ZERO);
        for backend in Backend::ALL {
            let engine = Engine::builder().model(ModelKind::Gam).backend(backend).build().unwrap();
            let outcome = engine.check_budgeted(&test, &budget).unwrap();
            match outcome.verdict {
                SessionVerdict::Inconclusive { reason, .. } => {
                    assert_eq!(reason, StopReason::WallBudget { budget: Duration::ZERO })
                }
                other => panic!("{backend}: expected inconclusive, got {other:?}"),
            }
        }
    }

    #[test]
    fn state_budget_is_inconclusive_with_partial_outcomes() {
        // Large-ish state space: a tiny state cap trips before exhaustion
        // (and before the deep interleaving that witnesses the condition).
        let test = library::iriw();
        let engine = Engine::operational(ModelKind::Gam).unwrap();
        let outcome =
            engine.check_budgeted(&test, &CheckBudget::none().with_max_states(16)).unwrap();
        match outcome.verdict {
            SessionVerdict::Inconclusive { reason, states_visited, .. } => {
                assert_eq!(reason, StopReason::StateBudget { limit: 16 });
                assert!(states_visited >= 16);
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
        // The blocking engine with its default (huge) state limit still
        // answers conclusively: the budget override was check-local.
        assert!(engine.check(&test).is_ok());
    }
}
