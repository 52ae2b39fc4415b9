//! The unified, object-safe [`Checker`] trait and its one entry point.
//!
//! Both formal backends — the axiomatic enumerator and the operational
//! explorer — implement this trait, so every consumer (the [`crate::Engine`]
//! facade, the verification layer, benches and examples) can drive either
//! semantics through one polymorphic API. This is the code-level counterpart
//! of the paper's Theorem 1: the two definitions answer exactly the same
//! questions, so they deserve exactly the same interface.
//!
//! A check is one call, [`Checker::run`]: a test, a [`Query`] saying how
//! much the search must find, a [`CheckBudget`] and a [`CancelToken`]. It
//! answers with an [`Answer`]: the three-valued verdict, the outcome set
//! the query produced, the states visited and — when the search stopped
//! early — why.

use std::collections::BTreeSet;

use gam_axiomatic::{AxiomaticChecker, CheckError};
use gam_core::{CancelToken, ModelKind, StopReason};
use gam_isa::litmus::{LitmusTest, Outcome};
use gam_operational::{ExploreError, OperationalChecker, OperationalError};

use crate::engine::Backend;
use crate::error::EngineError;
use crate::session::{CheckBudget, SessionVerdict};

/// How much a check must find.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Decide the condition of interest: the search stops at the first
    /// witness, and only a forbidden verdict pays for the whole space.
    Verdict,
    /// Enumerate the complete allowed-outcome set.
    Outcomes,
}

/// What one [`Checker::run`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The three-valued verdict. An early stop without a witness is
    /// [`SessionVerdict::Inconclusive`], which owns the partial outcomes; an
    /// early stop whose partial outcomes already hold a witness is
    /// `Allowed`, which is sound because both backends only ever emit
    /// outcomes of consistent executions.
    pub verdict: SessionVerdict,
    /// The outcomes the query produced: the allowed-outcome set for
    /// [`Query::Outcomes`] (partial when `stop` is set), the witness for
    /// [`Query::Verdict`]. Empty when the verdict is inconclusive.
    pub outcomes: BTreeSet<Outcome>,
    /// Distinct states the search visited (operational backend; the
    /// axiomatic enumerator reports 0).
    pub states_visited: usize,
    /// Why the search stopped before its natural end, if it did.
    pub stop: Option<StopReason>,
}

impl Answer {
    /// The answer of a search that ran to its natural end.
    fn finished(test: &LitmusTest, outcomes: BTreeSet<Outcome>, states_visited: usize) -> Answer {
        Answer {
            verdict: SessionVerdict::conclusive(test, &outcomes),
            outcomes,
            states_visited,
            stop: None,
        }
    }

    /// The answer of a search stopped early with `partial` outcomes.
    fn stopped(
        test: &LitmusTest,
        partial: BTreeSet<Outcome>,
        states_visited: usize,
        reason: StopReason,
    ) -> Answer {
        let stop = Some(reason);
        if partial.iter().any(|outcome| test.condition().matched_by(outcome)) {
            return Answer {
                verdict: SessionVerdict::Allowed,
                outcomes: partial,
                states_visited,
                stop,
            };
        }
        let verdict =
            SessionVerdict::Inconclusive { partial_outcomes: partial, states_visited, reason };
        Answer { verdict, outcomes: BTreeSet::new(), states_visited, stop }
    }

    /// The answer, if the search ran to its natural end; otherwise the
    /// early stop as the error the blocking API reports for it — the
    /// `backend`'s own interrupt or state-limit error, carrying the partial
    /// outcomes.
    ///
    /// # Errors
    ///
    /// [`EngineError::Axiomatic`] or [`EngineError::Operational`] when
    /// [`Answer::stop`] is set.
    pub fn complete(self, backend: Backend, test: &LitmusTest) -> Result<Answer, EngineError> {
        let Some(reason) = self.stop else { return Ok(self) };
        let (partial_outcomes, states_visited) = match self.verdict {
            SessionVerdict::Inconclusive { partial_outcomes, states_visited, .. } => {
                (partial_outcomes, states_visited)
            }
            _ => (self.outcomes, self.states_visited),
        };
        let test = test.name().to_string();
        Err(match (backend, reason) {
            (Backend::Axiomatic, reason) => {
                CheckError::Interrupted { test, reason, partial_outcomes }.into()
            }
            (Backend::Operational, StopReason::StateBudget { limit }) => {
                OperationalError::Explore(ExploreError::StateLimitExceeded {
                    limit,
                    states_visited,
                    partial_outcomes,
                })
                .into()
            }
            (Backend::Operational, reason) => {
                OperationalError::Explore(ExploreError::Interrupted {
                    reason,
                    states_visited,
                    partial_outcomes,
                })
                .into()
            }
        })
    }
}

/// A memory-model checker for one model, behind one of the two backends.
///
/// The trait is object-safe: the engine stores `dyn Checker` and suite
/// runners fan work out over `&dyn Checker` across threads (hence the
/// `Send + Sync` supertraits).
pub trait Checker: Send + Sync {
    /// A short human-readable backend name (`"axiomatic"` / `"operational"`).
    fn name(&self) -> &'static str;

    /// The backend this checker belongs to.
    fn backend(&self) -> Backend;

    /// The model this checker runs.
    fn model(&self) -> ModelKind;

    /// Returns true if this checker's backend has semantics for `model`.
    ///
    /// Backend gaps (e.g. GAM-ARM, which the paper defines only
    /// axiomatically) are queried uniformly through this method instead of
    /// ad-hoc per-backend capability functions.
    fn supports(&self, model: ModelKind) -> bool;

    /// Runs `query` on the test under `budget`, polling `cancel`.
    ///
    /// Cancellation, an exhausted budget and the explorer's state limit
    /// stop the search early; they are part of the [`Answer`] (see
    /// [`Answer::stop`]), not errors.
    ///
    /// # Errors
    ///
    /// Every other backend error (unsupported models or features,
    /// over-limit event counts, deadlocks).
    fn run(
        &self,
        test: &LitmusTest,
        query: Query,
        budget: &CheckBudget,
        cancel: CancelToken,
    ) -> Result<Answer, EngineError>;
}

impl Checker for AxiomaticChecker {
    fn name(&self) -> &'static str {
        "axiomatic"
    }

    fn backend(&self) -> Backend {
        Backend::Axiomatic
    }

    fn model(&self) -> ModelKind {
        AxiomaticChecker::model(self).kind()
    }

    fn supports(&self, _model: ModelKind) -> bool {
        // Every model in the catalogue has an axiomatic definition.
        true
    }

    fn run(
        &self,
        test: &LitmusTest,
        query: Query,
        budget: &CheckBudget,
        cancel: CancelToken,
    ) -> Result<Answer, EngineError> {
        // The axiomatic enumerator has no state count, so `max_states` and
        // `max_bytes` do not apply here (see [`CheckBudget`]).
        let checker = self.clone().with_interrupt(budget.interrupt(cancel));
        let outcomes = match query {
            Query::Outcomes => checker.allowed_outcomes(test),
            Query::Verdict => checker
                .find_witness(test)
                .map(|witness| witness.map(|witness| witness.outcome).into_iter().collect()),
        };
        match outcomes {
            Ok(outcomes) => Ok(Answer::finished(test, outcomes, 0)),
            Err(CheckError::Interrupted { reason, partial_outcomes, .. }) => {
                Ok(Answer::stopped(test, partial_outcomes, 0, reason))
            }
            Err(err) => Err(err.into()),
        }
    }
}

impl Checker for OperationalChecker {
    fn name(&self) -> &'static str {
        "operational"
    }

    fn backend(&self) -> Backend {
        Backend::Operational
    }

    fn model(&self) -> ModelKind {
        OperationalChecker::model(self)
    }

    fn supports(&self, model: ModelKind) -> bool {
        OperationalChecker::supports(model)
    }

    fn run(
        &self,
        test: &LitmusTest,
        query: Query,
        budget: &CheckBudget,
        cancel: CancelToken,
    ) -> Result<Answer, EngineError> {
        // Rebuild the explorer with the budget's state cap, memory cap and
        // interrupt. The checker's own memory config (spill directory)
        // carries over; the budget's byte cap overrides.
        let mut config = self.config();
        if let Some(max_states) = budget.max_states {
            config.max_states = max_states;
        }
        let mut memory = self.memory();
        if budget.max_bytes.is_some() {
            memory.max_bytes = budget.max_bytes;
        }
        let checker = OperationalChecker::with_config(OperationalChecker::model(self), config)
            .with_interrupt(budget.interrupt(cancel))
            .with_memory(memory);
        let searched = match query {
            Query::Outcomes => checker.explore(test).map(|e| (e.outcomes, e.states_visited)),
            Query::Verdict => checker
                .find_witness(test)
                .map(|(e, witness)| (witness.into_iter().collect(), e.states_visited)),
        };
        match searched {
            Ok((outcomes, states_visited)) => Ok(Answer::finished(test, outcomes, states_visited)),
            Err(OperationalError::Explore(ExploreError::Interrupted {
                reason,
                states_visited,
                partial_outcomes,
            })) => Ok(Answer::stopped(test, partial_outcomes, states_visited, reason)),
            Err(OperationalError::Explore(ExploreError::StateLimitExceeded {
                limit,
                states_visited,
                partial_outcomes,
            })) => Ok(Answer::stopped(
                test,
                partial_outcomes,
                states_visited,
                StopReason::StateBudget { limit },
            )),
            Err(err) => Err(err.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::model;
    use gam_isa::litmus::library;

    fn checkers(kind: ModelKind) -> Vec<Box<dyn Checker>> {
        vec![
            Box::new(AxiomaticChecker::new(model::by_kind(kind))),
            Box::new(OperationalChecker::new(kind)),
        ]
    }

    fn run(checker: &dyn Checker, test: &LitmusTest, query: Query) -> Answer {
        checker.run(test, query, &CheckBudget::none(), CancelToken::new()).unwrap()
    }

    #[test]
    fn both_backends_answer_identically_through_the_trait() {
        let test = library::dekker();
        for checker in checkers(ModelKind::Gam) {
            assert_eq!(checker.model(), ModelKind::Gam);
            let verdict = run(&*checker, &test, Query::Verdict);
            assert_eq!(verdict.verdict, SessionVerdict::Allowed);
            assert_eq!(verdict.stop, None);
            let witness = verdict.outcomes.first().expect("allowed => witness");
            assert_eq!(verdict.outcomes.len(), 1, "a verdict query yields one witness");
            assert!(test.condition().matched_by(witness));
            assert!(run(&*checker, &test, Query::Outcomes).outcomes.contains(witness));
        }
    }

    #[test]
    fn supports_reports_the_operational_gap_uniformly() {
        for checker in checkers(ModelKind::Gam) {
            assert!(checker.supports(ModelKind::Sc));
            assert!(checker.supports(ModelKind::Gam));
            assert_eq!(
                checker.supports(ModelKind::GamArm),
                checker.backend() == Backend::Axiomatic,
                "only the axiomatic backend defines GAM-ARM"
            );
        }
    }

    #[test]
    fn forbidden_conditions_have_no_witness() {
        let test = library::corr();
        for checker in checkers(ModelKind::Gam) {
            let answer = run(&*checker, &test, Query::Verdict);
            assert_eq!(answer.verdict, SessionVerdict::Forbidden);
            assert!(answer.outcomes.is_empty());
        }
    }

    #[test]
    fn names_distinguish_backends() {
        let names: Vec<&str> = checkers(ModelKind::Sc).iter().map(|c| c.name()).collect();
        assert_eq!(names, ["axiomatic", "operational"]);
    }

    #[test]
    fn early_stops_are_answers_and_complete_turns_them_into_backend_errors() {
        // A state cap of 1 stops iriw's exploration before any final state.
        let test = library::iriw();
        let checker = OperationalChecker::new(ModelKind::Gam);
        let budget = CheckBudget::none().with_max_states(1);
        for query in [Query::Verdict, Query::Outcomes] {
            let answer = checker.run(&test, query, &budget, CancelToken::new()).unwrap();
            assert_eq!(answer.stop, Some(StopReason::StateBudget { limit: 1 }), "{query:?}");
            assert!(!answer.verdict.is_conclusive(), "{query:?}");
            let err = answer.complete(Backend::Operational, &test).unwrap_err();
            assert!(err.to_string().contains("exceeded the limit of 1 states"), "{query:?}: {err}");
        }
        // A cancelled axiomatic check stops at its first poll.
        let cancel = CancelToken::new();
        cancel.cancel();
        let axiomatic = AxiomaticChecker::new(model::gam());
        let answer = axiomatic.run(&test, Query::Outcomes, &CheckBudget::none(), cancel).unwrap();
        assert_eq!(answer.stop, Some(StopReason::Cancelled));
        let err = answer.complete(Backend::Axiomatic, &test).unwrap_err();
        assert!(matches!(err, EngineError::Axiomatic(CheckError::Interrupted { .. })), "{err}");
    }

    #[test]
    fn a_witness_among_partial_outcomes_is_conclusive() {
        let test = library::dekker();
        let witness = run(&OperationalChecker::new(ModelKind::Gam), &test, Query::Verdict).outcomes;
        let answer = Answer::stopped(&test, witness.clone(), 7, StopReason::Cancelled);
        assert_eq!(answer.verdict, SessionVerdict::Allowed);
        assert_eq!(answer.outcomes, witness);
        let answer = Answer::stopped(&test, BTreeSet::new(), 7, StopReason::Cancelled);
        assert!(matches!(answer.verdict, SessionVerdict::Inconclusive { states_visited: 7, .. }));
    }
}
