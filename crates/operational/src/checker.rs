//! A model-indexed front end over the operational machines.
//!
//! [`OperationalChecker`] mirrors the API of `gam_axiomatic::AxiomaticChecker`
//! so that the verification crate can run both semantics side by side: give it
//! a model kind and a litmus test and it produces the exhaustive outcome set
//! or an allowed/forbidden verdict for the test's condition of interest.

use std::collections::BTreeSet;
use std::fmt;

use gam_core::ModelKind;
use gam_isa::litmus::{LitmusTest, Outcome};

use crate::explore::{Exploration, ExploreError, Explorer, ExplorerConfig};
use crate::gam::{GamConfig, GamMachine};
use crate::sc::ScMachine;
use crate::tso::TsoMachine;

/// Errors produced by the operational checker.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OperationalError {
    /// The exploration failed (state limit or deadlock).
    Explore(ExploreError),
    /// No operational machine exists for the requested model.
    UnsupportedModel {
        /// The requested model.
        model: ModelKind,
    },
}

impl fmt::Display for OperationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperationalError::Explore(err) => write!(f, "exploration failed: {err}"),
            OperationalError::UnsupportedModel { model } => {
                write!(f, "no operational machine is defined for {model}")
            }
        }
    }
}

impl std::error::Error for OperationalError {}

impl From<ExploreError> for OperationalError {
    fn from(err: ExploreError) -> Self {
        OperationalError::Explore(err)
    }
}

/// An exhaustive operational checker for one memory model.
#[derive(Debug, Clone)]
pub struct OperationalChecker {
    model: ModelKind,
    explorer: Explorer,
}

impl OperationalChecker {
    /// Creates a checker for the given model with default exploration limits.
    #[must_use]
    pub fn new(model: ModelKind) -> Self {
        OperationalChecker { model, explorer: Explorer::default() }
    }

    /// Creates a checker with explicit exploration limits.
    #[must_use]
    pub fn with_config(model: ModelKind, config: ExplorerConfig) -> Self {
        OperationalChecker { model, explorer: Explorer::new(config) }
    }

    /// Attaches a cooperative [`gam_core::Interrupt`] to the underlying
    /// explorer: cancellation or an expired wall budget stops the search
    /// with [`ExploreError::Interrupted`], carrying partial outcomes.
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: gam_core::Interrupt) -> Self {
        self.explorer = self.explorer.with_interrupt(interrupt);
        self
    }

    /// Attaches a memory-pressure configuration (budget, spill directory,
    /// checkpoint plan) to the underlying explorer. Arming any part of it
    /// pins the exploration to the deterministic sequential driver.
    #[must_use]
    pub fn with_memory(mut self, memory: crate::explore::MemoryConfig) -> Self {
        self.explorer = self.explorer.with_memory(memory);
        self
    }

    /// The model this checker runs.
    #[must_use]
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The exploration limits this checker runs with.
    #[must_use]
    pub fn config(&self) -> ExplorerConfig {
        self.explorer.config()
    }

    /// The memory-pressure configuration this checker runs with.
    #[must_use]
    pub fn memory(&self) -> crate::explore::MemoryConfig {
        self.explorer.memory().clone()
    }

    /// Returns true if an operational machine exists for the model.
    ///
    /// The paper defines operational machines for SC (Figure 1) and GAM
    /// (Figure 17); GAM0 is the same machine without the SALdLd enforcement,
    /// and TSO is the classical store-buffer machine. The ARM same-address
    /// variant has no operational definition in the paper, so it is only
    /// available axiomatically.
    #[must_use]
    pub fn supports(model: ModelKind) -> bool {
        !matches!(model, ModelKind::GamArm)
    }

    /// Exhaustively explores the test under the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the model has no operational machine or the
    /// exploration exceeds its limits.
    pub fn explore(&self, test: &LitmusTest) -> Result<Exploration, OperationalError> {
        match self.model {
            ModelKind::Sc => Ok(self.explorer.explore(&ScMachine::new(test))?),
            ModelKind::Tso => Ok(self.explorer.explore(&TsoMachine::new(test))?),
            ModelKind::Gam => {
                Ok(self.explorer.explore(&GamMachine::with_config(test, GamConfig::gam()))?)
            }
            ModelKind::Gam0 => {
                Ok(self.explorer.explore(&GamMachine::with_config(test, GamConfig::gam0()))?)
            }
            ModelKind::GamArm => Err(OperationalError::UnsupportedModel { model: self.model }),
        }
    }

    /// Exhaustively explores the test on the explorer's reference oracle
    /// (full-state interning, sequential, honouring the configured
    /// [`crate::Reduction`]). The differential test-suites compare the
    /// component-arena exploration against it.
    ///
    /// # Errors
    ///
    /// See [`OperationalChecker::explore`].
    #[doc(hidden)]
    pub fn explore_reference(&self, test: &LitmusTest) -> Result<Exploration, OperationalError> {
        match self.model {
            ModelKind::Sc => Ok(self.explorer.explore_reference(&ScMachine::new(test))?),
            ModelKind::Tso => Ok(self.explorer.explore_reference(&TsoMachine::new(test))?),
            ModelKind::Gam => Ok(self
                .explorer
                .explore_reference(&GamMachine::with_config(test, GamConfig::gam()))?),
            ModelKind::Gam0 => Ok(self
                .explorer
                .explore_reference(&GamMachine::with_config(test, GamConfig::gam0()))?),
            ModelKind::GamArm => Err(OperationalError::UnsupportedModel { model: self.model }),
        }
    }

    /// The set of final outcomes reachable on the operational machine.
    ///
    /// # Errors
    ///
    /// See [`OperationalChecker::explore`].
    pub fn allowed_outcomes(
        &self,
        test: &LitmusTest,
    ) -> Result<BTreeSet<Outcome>, OperationalError> {
        Ok(self.explore(test)?.outcomes)
    }

    /// Searches for a reachable final outcome matching the test's condition
    /// of interest, stopping at the *first* witness instead of exhausting
    /// the state space. `None` means the exploration completed without a
    /// match — the condition is forbidden.
    ///
    /// # Errors
    ///
    /// See [`OperationalChecker::explore`]. A state-limit abort before a
    /// witness was found is an error: the condition was neither proven
    /// reachable nor exhausted.
    pub fn find_witness(&self, test: &LitmusTest) -> Result<Option<Outcome>, OperationalError> {
        let matches = |outcome: &Outcome| test.condition().matched_by(outcome);
        match self.model {
            ModelKind::Sc => Ok(self.explorer.find_outcome(&ScMachine::new(test), matches)?),
            ModelKind::Tso => Ok(self.explorer.find_outcome(&TsoMachine::new(test), matches)?),
            ModelKind::Gam => Ok(self
                .explorer
                .find_outcome(&GamMachine::with_config(test, GamConfig::gam()), matches)?),
            ModelKind::Gam0 => Ok(self
                .explorer
                .find_outcome(&GamMachine::with_config(test, GamConfig::gam0()), matches)?),
            ModelKind::GamArm => Err(OperationalError::UnsupportedModel { model: self.model }),
        }
    }

    /// Returns true if the test's condition of interest is reachable.
    ///
    /// Decides via [`OperationalChecker::find_witness`], so an *allowed*
    /// verdict exits at the first matching final state; only a *forbidden*
    /// verdict pays for the whole (reduced) state space.
    ///
    /// # Errors
    ///
    /// See [`OperationalChecker::explore`].
    pub fn is_allowed(&self, test: &LitmusTest) -> Result<bool, OperationalError> {
        Ok(self.find_witness(test)?.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;

    #[test]
    fn supported_models() {
        assert!(OperationalChecker::supports(ModelKind::Sc));
        assert!(OperationalChecker::supports(ModelKind::Tso));
        assert!(OperationalChecker::supports(ModelKind::Gam));
        assert!(OperationalChecker::supports(ModelKind::Gam0));
        assert!(!OperationalChecker::supports(ModelKind::GamArm));
        let err = OperationalChecker::new(ModelKind::GamArm).explore(&library::dekker());
        assert!(matches!(err, Err(OperationalError::UnsupportedModel { .. })));
    }

    #[test]
    fn dekker_across_models() {
        let test = library::dekker();
        assert!(!OperationalChecker::new(ModelKind::Sc).is_allowed(&test).unwrap());
        assert!(OperationalChecker::new(ModelKind::Tso).is_allowed(&test).unwrap());
        assert!(OperationalChecker::new(ModelKind::Gam).is_allowed(&test).unwrap());
        assert!(OperationalChecker::new(ModelKind::Gam0).is_allowed(&test).unwrap());
    }

    #[test]
    fn corr_across_models() {
        let test = library::corr();
        assert!(!OperationalChecker::new(ModelKind::Sc).is_allowed(&test).unwrap());
        assert!(!OperationalChecker::new(ModelKind::Tso).is_allowed(&test).unwrap());
        assert!(!OperationalChecker::new(ModelKind::Gam).is_allowed(&test).unwrap());
        assert!(OperationalChecker::new(ModelKind::Gam0).is_allowed(&test).unwrap());
    }

    #[test]
    fn model_accessor_and_error_display() {
        let checker = OperationalChecker::new(ModelKind::Gam);
        assert_eq!(checker.model(), ModelKind::Gam);
        let err = OperationalError::UnsupportedModel { model: ModelKind::GamArm };
        assert!(err.to_string().contains("GAM-ARM"));
        let err: OperationalError = ExploreError::Deadlock.into();
        assert!(err.to_string().contains("exploration failed"));
    }

    #[test]
    fn exploration_reports_statistics() {
        let test = library::dekker();
        let exploration = OperationalChecker::new(ModelKind::Gam).explore(&test).unwrap();
        assert!(exploration.states_visited > 0);
        assert!(exploration.final_states > 0);
        assert!(!exploration.outcomes.is_empty());
    }
}
