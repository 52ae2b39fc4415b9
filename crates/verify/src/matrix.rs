//! The verdict matrix: every `(model, backend)` pair over one suite, diffed.
//!
//! This is the one comparison path of the reproduction. [`run_matrix`] runs
//! a suite through one parallel [`Engine`] per supported pair and asks each
//! test's verdict; [`diff_reports`] requires the backends to agree on every
//! `(test, model)`, no backend to error and — where the caller knows one —
//! the agreed verdict to match its expectation; [`render_matrix`] prints the
//! test × model table. `gam run`, `gam check`, `gam gen-corpus`, the serve
//! bench's ground truth and the paper harness all go through it.

use std::collections::BTreeMap;
use std::fmt;

use gam_core::ModelKind;
use gam_engine::{Backend, Engine, RowAnswer, SuiteReport, Verdict};
use gam_isa::litmus::LitmusTest;

/// The suite report of every `(model, backend)` pair that ran.
pub type Reports = BTreeMap<(ModelKind, Backend), SuiteReport>;

/// One verdict discrepancy found while diffing suite results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The test it concerns.
    pub test: String,
    /// The model it concerns.
    pub model: ModelKind,
    /// What went wrong: a backend error, a disagreement or a contradicted
    /// expectation.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under {}: {}", self.test, self.model, self.detail)
    }
}

/// Runs `tests` under every supported `(model, backend)` pair, each suite
/// on `workers` threads, and returns the reports keyed by pair. Unsupported
/// pairs (operational GAM-ARM) are skipped.
///
/// # Errors
///
/// An engine that cannot be built, or no supported pair at all.
pub fn run_matrix(
    tests: &[LitmusTest],
    suite_name: &str,
    models: &[ModelKind],
    backends: &[Backend],
    workers: usize,
    explorer_workers: usize,
) -> Result<Reports, String> {
    let mut reports = BTreeMap::new();
    for &model in models {
        for &backend in backends {
            if !backend.supports(model) {
                continue;
            }
            let engine = Engine::builder()
                .model(model)
                .backend(backend)
                .parallelism(workers)
                .explorer_parallelism(explorer_workers)
                .build()
                .map_err(|err| err.to_string())?;
            reports.insert((model, backend), engine.run_suite_verdicts(tests).named(suite_name));
        }
    }
    if reports.is_empty() {
        return Err("no supported (model, backend) combination selected".to_string());
    }
    Ok(reports)
}

/// Diffs the reports: backends must agree pairwise per `(test, model)`, no
/// backend may error, and (where an expectation exists) the agreed verdict
/// must match it. Only conclusive rows are diffed: an inconclusive one
/// claims nothing.
pub fn diff_reports(
    tests: &[LitmusTest],
    models: &[ModelKind],
    reports: &Reports,
    expectation: impl Fn(&str, ModelKind) -> Option<bool>,
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    for test in tests {
        for &model in models {
            let mismatch =
                |detail: String| Mismatch { test: test.name().to_string(), model, detail };
            let mut verdicts: Vec<(Backend, Verdict)> = Vec::new();
            for ((m, backend), report) in reports {
                if *m != model {
                    continue;
                }
                let Some(report) = report.report_for(test.name()) else { continue };
                match &report.row.answer {
                    RowAnswer::Verdict(verdict) => verdicts.push((*backend, *verdict)),
                    RowAnswer::Error(error) => {
                        mismatches.push(mismatch(format!("{backend} backend error: {error}")));
                    }
                    RowAnswer::Inconclusive { .. } => {}
                }
            }
            if let Some((first, rest)) = verdicts.split_first() {
                for (backend, verdict) in rest {
                    if verdict != &first.1 {
                        mismatches.push(mismatch(format!(
                            "backends disagree: {}={} {}={}",
                            first.0, first.1, backend, verdict
                        )));
                    }
                }
                if let Some(expected) = expectation(test.name(), model) {
                    let got = first.1.is_allowed();
                    if got != expected {
                        mismatches.push(mismatch(format!(
                            "expected {}, every backend says {}",
                            verdict_word(expected),
                            verdict_word(got)
                        )));
                    }
                }
            }
        }
    }
    mismatches
}

/// `"allowed"` or `"forbidden"`: how a report names a verdict held as a bool.
#[must_use]
pub fn verdict_word(allowed: bool) -> &'static str {
    if allowed {
        "allowed"
    } else {
        "forbidden"
    }
}

/// Renders the test × model verdict matrix. A cell is the verdict of the
/// backends that decided (A/F; `-` when none did), with `!` on any mismatch
/// involving the cell.
#[must_use]
pub fn render_matrix(
    tests: &[LitmusTest],
    models: &[ModelKind],
    reports: &Reports,
    mismatches: &[Mismatch],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let name_width = tests.iter().map(|t| t.name().len()).max().unwrap_or(4).max("test".len());
    let _ = write!(out, "{:<name_width$}", "test");
    for model in models {
        let _ = write!(out, "  {:>7}", model.to_string());
    }
    let _ = writeln!(out);
    for test in tests {
        let _ = write!(out, "{:<name_width$}", test.name());
        for &model in models {
            let verdict = reports
                .iter()
                .filter(|((m, _), _)| *m == model)
                .find_map(|(_, report)| report.report_for(test.name())?.row.verdict());
            let mut cell = match verdict {
                Some(Verdict::Allowed) => "A".to_string(),
                Some(Verdict::Forbidden) => "F".to_string(),
                None => "-".to_string(),
            };
            if mismatches.iter().any(|m| m.test == test.name() && m.model == model) {
                cell.push('!');
            }
            let _ = write!(out, "  {cell:>7}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use gam_engine::{ResultRow, TestReport};
    use gam_isa::litmus::library;

    use super::*;

    const ALLOWED: RowAnswer = RowAnswer::Verdict(Verdict::Allowed);
    const FORBIDDEN: RowAnswer = RowAnswer::Verdict(Verdict::Forbidden);

    fn error() -> RowAnswer {
        RowAnswer::Error("branches are not supported".to_string())
    }

    fn inconclusive() -> RowAnswer {
        RowAnswer::Inconclusive { reason: "wall budget".to_string(), partial_outcomes: 1 }
    }

    /// A one-test suite report of `dekker` under `(model, backend)`.
    fn report(model: ModelKind, backend: Backend, answer: RowAnswer) -> SuiteReport {
        let row = ResultRow { model, backend, answer, states: 0, wall_us: 0 };
        SuiteReport {
            suite: None,
            backend,
            model,
            parallelism: 1,
            wall: Duration::ZERO,
            reports: vec![TestReport {
                test: "dekker".to_string(),
                row,
                outcomes: Default::default(),
            }],
        }
    }

    /// `dekker` under GAM with the axiomatic and operational answers given.
    fn gam(axiomatic: RowAnswer, operational: RowAnswer) -> Reports {
        [(Backend::Axiomatic, axiomatic), (Backend::Operational, operational)]
            .into_iter()
            .map(|(backend, answer)| {
                ((ModelKind::Gam, backend), report(ModelKind::Gam, backend, answer))
            })
            .collect()
    }

    fn diff(reports: &Reports, expected: Option<bool>) -> Vec<String> {
        diff_reports(&[library::dekker()], &[ModelKind::Gam], reports, |_, _| expected)
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    fn cell(reports: &Reports, expected: Option<bool>) -> String {
        let mismatches =
            diff_reports(&[library::dekker()], &[ModelKind::Gam], reports, |_, _| expected);
        let table = render_matrix(&[library::dekker()], &[ModelKind::Gam], reports, &mismatches);
        table.lines().nth(1).expect("one test row").trim_start_matches("dekker").trim().to_string()
    }

    #[test]
    fn disagreeing_backends_are_a_mismatch() {
        let reports = gam(ALLOWED, FORBIDDEN);
        assert_eq!(
            diff(&reports, None),
            ["dekker under GAM: backends disagree: axiomatic=allowed operational=forbidden"]
        );
        assert_eq!(cell(&reports, None), "A!");
    }

    #[test]
    fn an_agreed_verdict_contradicting_the_expectation_is_a_mismatch() {
        let reports = gam(FORBIDDEN, FORBIDDEN);
        assert_eq!(
            diff(&reports, Some(true)),
            ["dekker under GAM: expected allowed, every backend says forbidden"]
        );
        assert_eq!(cell(&reports, Some(true)), "F!");
    }

    #[test]
    fn a_backend_error_is_a_mismatch() {
        let reports = gam(error(), ALLOWED);
        assert_eq!(
            diff(&reports, Some(true)),
            ["dekker under GAM: axiomatic backend error: branches are not supported"]
        );
        // The backend that did decide is still held to the expectation.
        assert_eq!(
            diff(&reports, Some(false)),
            [
                "dekker under GAM: axiomatic backend error: branches are not supported",
                "dekker under GAM: expected forbidden, every backend says allowed",
            ]
        );
    }

    #[test]
    fn an_inconclusive_row_is_not_diffed() {
        // The inconclusive axiomatic row neither disagrees with the
        // operational verdict nor is held to the expectation.
        assert!(diff(&gam(inconclusive(), FORBIDDEN), Some(false)).is_empty());
        assert!(diff(&gam(inconclusive(), inconclusive()), Some(true)).is_empty());
        assert_eq!(cell(&gam(inconclusive(), inconclusive()), Some(true)), "-");
    }

    #[test]
    fn a_cell_shows_the_verdict_of_the_backends_that_decided() {
        // The first backend did not decide; the second one did.
        assert_eq!(cell(&gam(inconclusive(), FORBIDDEN), None), "F");
        assert_eq!(cell(&gam(error(), ALLOWED), None), "A!");
        assert_eq!(cell(&gam(error(), error()), None), "-!");
    }

    #[test]
    fn run_matrix_skips_pairs_without_semantics() {
        let tests = [library::dekker()];
        let reports =
            run_matrix(&tests, "lib", &[ModelKind::GamArm], &Backend::ALL, 1, 1).expect("runs");
        assert_eq!(
            reports.keys().copied().collect::<Vec<_>>(),
            [(ModelKind::GamArm, Backend::Axiomatic)]
        );
        let err = run_matrix(&tests, "lib", &[ModelKind::GamArm], &[Backend::Operational], 1, 1);
        assert_eq!(err.unwrap_err(), "no supported (model, backend) combination selected");
    }
}
