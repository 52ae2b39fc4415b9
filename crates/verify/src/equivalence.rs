//! Axiomatic-vs-operational equivalence checking.
//!
//! Section IV of the paper gives both an axiomatic and an operational
//! definition of GAM and states (with a proof in the companion report) that
//! they are equivalent. The reproduction cannot re-run a hand proof, but it
//! can do the next best thing at litmus-test scale: for every test in the
//! library, compute the *complete* allowed-outcome set under both semantics
//! and require them to be identical. The same cross-check is applied to the
//! other models that have an operational machine (SC, TSO, GAM0).
//!
//! Since the engine redesign the comparison itself is backend-agnostic: both
//! semantics are driven through the same [`gam_engine::Checker`] trait by two
//! [`gam_engine::Engine`]s — equivalence is literally "run both backends
//! through one API and diff the outcome sets" — and each suite runs in
//! parallel across the machine's cores.

use std::collections::BTreeSet;
use std::fmt;

use gam_core::ModelKind;
use gam_engine::{Backend, Engine, SuiteReport};
use gam_isa::litmus::{LitmusTest, Outcome};

/// The outcome-set comparison for one litmus test under one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceResult {
    /// Litmus-test name.
    pub test: String,
    /// The model compared.
    pub model: ModelKind,
    /// Outcomes allowed by the axiomatic definition only.
    pub axiomatic_only: BTreeSet<Outcome>,
    /// Outcomes reachable on the operational machine only.
    pub operational_only: BTreeSet<Outcome>,
    /// Number of outcomes in the (identical part of the) intersection.
    pub common: usize,
}

impl EquivalenceResult {
    /// Returns true when both semantics produced exactly the same outcome set.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        self.axiomatic_only.is_empty() && self.operational_only.is_empty()
    }
}

impl fmt::Display for EquivalenceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_equivalent() {
            write!(f, "{} / {}: equivalent ({} outcomes)", self.test, self.model, self.common)
        } else {
            write!(
                f,
                "{} / {}: MISMATCH (axiomatic-only: {:?}, operational-only: {:?})",
                self.test,
                self.model,
                self.axiomatic_only.iter().map(ToString::to_string).collect::<Vec<_>>(),
                self.operational_only.iter().map(ToString::to_string).collect::<Vec<_>>()
            )
        }
    }
}

/// An equivalence report over a set of tests and models.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceReport {
    results: Vec<EquivalenceResult>,
}

impl EquivalenceReport {
    /// Compares the axiomatic and operational definitions of `model_kind` on
    /// every test in `tests`, running each backend's suite in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the model has no operational machine, or if either backend
    /// fails on a test (event limit, state limit, deadlock); the litmus-test
    /// library is well within both limits.
    #[must_use]
    pub fn compute(tests: &[LitmusTest], model_kind: ModelKind) -> Self {
        assert!(
            Backend::Operational.supports(model_kind),
            "{model_kind} has no operational machine to compare against"
        );
        // Both backends behind the same trait: build one engine per backend
        // and run the identical suite through each.
        let [axiomatic, operational]: [SuiteReport; 2] = Backend::ALL.map(|backend| {
            Engine::builder()
                .model(model_kind)
                .backend(backend)
                .parallelism_available()
                .build()
                .expect("both backends support this model")
                .run_suite(tests)
        });

        let results = axiomatic
            .reports
            .iter()
            .zip(&operational.reports)
            .map(|(ax, op)| {
                assert!(ax.is_ok(), "axiomatic check succeeds: {}", ax.row);
                assert!(op.is_ok(), "operational check succeeds: {}", op.row);
                let axiomatic_only: BTreeSet<Outcome> =
                    ax.outcomes.difference(&op.outcomes).cloned().collect();
                let operational_only: BTreeSet<Outcome> =
                    op.outcomes.difference(&ax.outcomes).cloned().collect();
                let common = ax.outcomes.intersection(&op.outcomes).count();
                EquivalenceResult {
                    test: ax.test.clone(),
                    model: model_kind,
                    axiomatic_only,
                    operational_only,
                    common,
                }
            })
            .collect();
        EquivalenceReport { results }
    }

    /// Compares every model that has an operational machine on every test.
    #[must_use]
    pub fn compute_all(tests: &[LitmusTest]) -> Self {
        let mut results = Vec::new();
        for kind in ModelKind::ALL {
            if Backend::Operational.supports(kind) {
                results.extend(Self::compute(tests, kind).results);
            }
        }
        EquivalenceReport { results }
    }

    /// Individual comparison results.
    #[must_use]
    pub fn results(&self) -> &[EquivalenceResult] {
        &self.results
    }

    /// Returns true when every comparison found identical outcome sets.
    #[must_use]
    pub fn all_equivalent(&self) -> bool {
        self.results.iter().all(EquivalenceResult::is_equivalent)
    }

    /// The comparisons that found a mismatch.
    #[must_use]
    pub fn mismatches(&self) -> Vec<&EquivalenceResult> {
        self.results.iter().filter(|r| !r.is_equivalent()).collect()
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for result in &self.results {
            writeln!(f, "{result}")?;
        }
        writeln!(f, "{} comparisons, {} mismatches", self.results.len(), self.mismatches().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;

    #[test]
    fn gam_axiomatic_and_operational_agree_on_key_paper_tests() {
        let tests = vec![
            library::dekker(),
            library::corr(),
            library::mp_addr(),
            library::store_forwarding(),
        ];
        let report = EquivalenceReport::compute(&tests, ModelKind::Gam);
        assert!(report.all_equivalent(), "{report}");
        assert_eq!(report.results().len(), 4);
    }

    #[test]
    fn gam0_axiomatic_and_operational_agree_on_corr() {
        let report = EquivalenceReport::compute(&[library::corr()], ModelKind::Gam0);
        assert!(report.all_equivalent(), "{report}");
    }

    #[test]
    fn sc_and_tso_agree_on_dekker_family() {
        let tests = vec![library::dekker(), library::dekker_fence_sl(), library::mp()];
        for kind in [ModelKind::Sc, ModelKind::Tso] {
            let report = EquivalenceReport::compute(&tests, kind);
            assert!(report.all_equivalent(), "{kind}: {report}");
        }
    }

    #[test]
    #[should_panic(expected = "no operational machine")]
    fn gam_arm_is_rejected() {
        let _ = EquivalenceReport::compute(&[library::dekker()], ModelKind::GamArm);
    }

    #[test]
    fn report_display_mentions_counts() {
        let report = EquivalenceReport::compute(&[library::dekker()], ModelKind::Sc);
        let text = report.to_string();
        assert!(text.contains("equivalent"));
        assert!(text.contains("1 comparisons, 0 mismatches"));
    }
}
