//! Model-comparison matrices.
//!
//! A [`ComparisonMatrix`] records, for a set of litmus tests, the verdict of
//! every model in the catalogue and whether each verdict matches the
//! expectation table. Since the engine redesign this module is a thin layer
//! over [`gam_engine::Engine`]: one axiomatic engine per model runs the whole
//! suite in parallel, and the matrix is assembled from the structured
//! [`gam_engine::SuiteReport`]s. Its `Display` implementation prints the same
//! kind of table the paper uses to discuss its litmus tests, which the
//! `litmus_explorer` example prints.

use std::fmt;

use gam_core::{model, ModelKind};
use gam_engine::{Backend, Engine, EngineError, SuiteReport, Verdict};
use gam_isa::litmus::LitmusTest;

use crate::expectations;

/// One row of the comparison matrix: a litmus test and the verdict of every model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonRow {
    /// Litmus-test name.
    pub test: String,
    /// `(model, verdict)` pairs in catalogue order.
    pub verdicts: Vec<(ModelKind, Verdict)>,
    /// Models whose verdict disagrees with the expectation table (empty when
    /// everything matches or no expectation exists).
    pub mismatches: Vec<ModelKind>,
}

impl ComparisonRow {
    /// The verdict of a given model in this row.
    #[must_use]
    pub fn verdict(&self, model: ModelKind) -> Option<Verdict> {
        self.verdicts.iter().find(|(m, _)| *m == model).map(|(_, v)| *v)
    }

    /// Returns true if every computed verdict matches the expectation table.
    #[must_use]
    pub fn matches_expectations(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Verdicts of every model on a set of litmus tests.
#[derive(Debug, Clone, Default)]
pub struct ComparisonMatrix {
    rows: Vec<ComparisonRow>,
}

impl ComparisonMatrix {
    /// Runs every model over every test through the axiomatic engine, using
    /// all available hardware parallelism.
    ///
    /// # Errors
    ///
    /// Propagates the first checker error (branches or too many events).
    pub fn compute(tests: &[LitmusTest]) -> Result<Self, EngineError> {
        Self::compute_with_parallelism(tests, available_parallelism())
    }

    /// Like [`ComparisonMatrix::compute`] with an explicit worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first checker error (branches or too many events).
    pub fn compute_with_parallelism(
        tests: &[LitmusTest],
        parallelism: usize,
    ) -> Result<Self, EngineError> {
        let models = model::all();
        let mut suites: Vec<SuiteReport> = Vec::with_capacity(models.len());
        for spec in &models {
            let engine = Engine::builder()
                .model(spec.kind())
                .backend(Backend::Axiomatic)
                .parallelism(parallelism)
                .build()
                .expect("the axiomatic backend supports every model");
            // The matrix only needs verdicts, so let the checker stop at the
            // first witness instead of enumerating every execution.
            let suite = engine.run_suite_verdicts(tests);
            // The suite captures per-test failures; surface the first one as
            // this function's error (re-check retrieves the typed error).
            if let Some(failed) = suite.reports.iter().position(|report| !report.is_ok()) {
                return Err(engine
                    .check(&tests[failed])
                    .expect_err("run_suite recorded an error for this test"));
            }
            suites.push(suite);
        }

        let mut rows = Vec::with_capacity(tests.len());
        for (index, test) in tests.iter().enumerate() {
            let verdicts: Vec<(ModelKind, Verdict)> = models
                .iter()
                .zip(&suites)
                .map(|(spec, suite)| {
                    let verdict =
                        suite.reports[index].row.verdict().expect("error-free suite has verdicts");
                    (spec.kind(), verdict)
                })
                .collect();
            let mismatches = match expectations::expectation_for(test.name()) {
                Some(expected) => verdicts
                    .iter()
                    .filter(|(kind, verdict)| expected.allowed(*kind) != verdict.is_allowed())
                    .map(|(kind, _)| *kind)
                    .collect(),
                None => Vec::new(),
            };
            rows.push(ComparisonRow { test: test.name().to_string(), verdicts, mismatches });
        }
        Ok(ComparisonMatrix { rows })
    }

    /// The rows of the matrix.
    #[must_use]
    pub fn rows(&self) -> &[ComparisonRow] {
        &self.rows
    }

    /// Returns true if every row matches the expectation table.
    #[must_use]
    pub fn matches_expectations(&self) -> bool {
        self.rows.iter().all(ComparisonRow::matches_expectations)
    }

    /// Rows that disagree with the expectation table.
    #[must_use]
    pub fn mismatched_rows(&self) -> Vec<&ComparisonRow> {
        self.rows.iter().filter(|r| !r.matches_expectations()).collect()
    }
}

/// The machine's available hardware parallelism (at least 1).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl fmt::Display for ComparisonMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9}  matches paper",
            "litmus test", "SC", "TSO", "GAM", "GAM0", "GAM-ARM"
        )?;
        for row in &self.rows {
            write!(f, "{:<24}", row.test)?;
            for kind in ModelKind::ALL {
                let text = match row.verdict(kind) {
                    Some(Verdict::Allowed) => "allowed",
                    Some(Verdict::Forbidden) => "forbidden",
                    None => "-",
                };
                write!(f, " {text:>9}")?;
            }
            writeln!(f, "  {}", if row.matches_expectations() { "yes" } else { "NO" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;

    #[test]
    fn paper_figures_match_expectations() {
        let matrix = ComparisonMatrix::compute(&library::paper_tests()).unwrap();
        assert!(
            matrix.matches_expectations(),
            "mismatched rows: {:?}",
            matrix
                .mismatched_rows()
                .iter()
                .map(|r| (r.test.clone(), r.mismatches.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn display_lists_every_test_and_model() {
        let tests = vec![library::dekker(), library::corr()];
        let matrix = ComparisonMatrix::compute(&tests).unwrap();
        let text = matrix.to_string();
        assert!(text.contains("dekker"));
        assert!(text.contains("corr"));
        assert!(text.contains("GAM-ARM"));
        assert!(text.contains("allowed"));
        assert!(text.contains("forbidden"));
    }

    #[test]
    fn row_accessors() {
        let matrix = ComparisonMatrix::compute(&[library::corr()]).unwrap();
        let row = &matrix.rows()[0];
        assert_eq!(row.verdict(ModelKind::Gam), Some(Verdict::Forbidden));
        assert_eq!(row.verdict(ModelKind::Gam0), Some(Verdict::Allowed));
        assert!(row.matches_expectations());
    }

    #[test]
    fn parallel_and_sequential_matrices_are_identical() {
        let tests = library::paper_tests();
        let sequential = ComparisonMatrix::compute_with_parallelism(&tests, 1).unwrap();
        let parallel = ComparisonMatrix::compute_with_parallelism(&tests, 8).unwrap();
        assert_eq!(sequential.rows(), parallel.rows());
    }

    #[test]
    fn checker_errors_surface_as_engine_errors() {
        // A program with branches cannot be checked axiomatically; the error
        // must propagate through the engine as a typed EngineError.
        use gam_isa::prelude::*;
        let mut thread = ThreadProgram::builder(ProcId::new(0));
        thread.label("spin");
        thread.load(Reg::new(1), Addr::loc(Loc::new("a")));
        thread.branch(BranchCond::Eq, Operand::reg(Reg::new(1)), Operand::imm(0), "spin");
        let program = Program::new(vec![thread.build()]);
        let test = gam_isa::litmus::LitmusTest::builder("branchy", program).build();
        let err = ComparisonMatrix::compute(&[test]).unwrap_err();
        assert!(matches!(err, EngineError::Axiomatic(_)));
    }
}
