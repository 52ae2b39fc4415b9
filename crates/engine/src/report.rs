//! Structured, serializable suite results.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use gam_axiomatic::Verdict;
use gam_core::ModelKind;
use gam_isa::litmus::{LitmusTest, Outcome};

use crate::checker::{Answer, Query};
use crate::engine::Backend;
use crate::error::EngineError;
use crate::json::{Json, ToJson};

/// The result of checking one litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Litmus-test name.
    pub test: String,
    /// The verdict on the test's condition of interest, or `None` if the
    /// backend failed on this test.
    pub verdict: Option<Verdict>,
    /// The complete allowed-outcome set (empty on error).
    pub outcomes: BTreeSet<Outcome>,
    /// The backend error, if any.
    pub error: Option<String>,
    /// Wall time spent checking this test.
    pub wall: Duration,
}

impl TestReport {
    /// The report of one [`crate::Engine::run`] of `query` without a
    /// budget: a verdict, or the error — an early stop included (see
    /// [`Answer::complete`]). Only a [`Query::Outcomes`] run reports its
    /// outcome set.
    #[must_use]
    pub fn new(
        test: &LitmusTest,
        backend: Backend,
        query: Query,
        result: Result<Answer, EngineError>,
        wall: Duration,
    ) -> TestReport {
        let (verdict, outcomes, error) = match result.and_then(|a| a.complete(backend, test)) {
            Ok(answer) => (
                answer.verdict.as_verdict(),
                if query == Query::Outcomes { answer.outcomes } else { BTreeSet::new() },
                None,
            ),
            Err(err) => (None, BTreeSet::new(), Some(err.to_string())),
        };
        TestReport { test: test.name().to_string(), verdict, outcomes, error, wall }
    }

    /// Returns true if the backend produced a verdict (no error).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

impl ToJson for TestReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("test", Json::from(self.test.as_str())),
            ("verdict", self.verdict.to_json()),
            ("outcomes", Json::array(self.outcomes.iter().map(ToJson::to_json))),
            ("error", self.error.as_deref().map_or(Json::Null, Json::from)),
            ("wall_us", Json::from(self.wall.as_micros().min(u128::from(u64::MAX)) as u64)),
        ])
    }
}

/// The result of running a whole litmus suite through one `(model, backend)`
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteReport {
    /// Name of the suite (e.g. a corpus directory), if the caller gave one.
    pub suite: Option<String>,
    /// The backend that ran the suite.
    pub backend: Backend,
    /// The model that was checked.
    pub model: ModelKind,
    /// Worker threads actually used.
    pub parallelism: usize,
    /// Wall time of the whole suite run.
    pub wall: Duration,
    /// Per-test results, in the suite's input order.
    pub reports: Vec<TestReport>,
}

impl SuiteReport {
    /// Names the suite (builder-style), e.g. after the corpus it ran.
    #[must_use]
    pub fn named(mut self, suite: impl Into<String>) -> Self {
        self.suite = Some(suite.into());
        self
    }

    /// The report of one test, by name.
    #[must_use]
    pub fn report_for(&self, test: &str) -> Option<&TestReport> {
        self.reports.iter().find(|report| report.test == test)
    }

    /// Returns true if every test produced a verdict.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.reports.iter().all(TestReport::is_ok)
    }

    /// `(test, verdict)` pairs in input order (`None` where a test errored).
    pub fn verdicts(&self) -> impl Iterator<Item = (&str, Option<Verdict>)> {
        self.reports.iter().map(|report| (report.test.as_str(), report.verdict))
    }

    /// Returns true if `other` reports exactly the same tests with exactly
    /// the same verdicts and allowed-outcome sets (backend, parallelism and
    /// timings are ignored). This is the suite-level equivalence check.
    #[must_use]
    pub fn agrees_with(&self, other: &SuiteReport) -> bool {
        self.reports.len() == other.reports.len()
            && self.reports.iter().zip(&other.reports).all(|(mine, theirs)| {
                mine.test == theirs.test
                    && mine.verdict == theirs.verdict
                    && mine.outcomes == theirs.outcomes
            })
    }

    /// Serializes the whole report as a JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

impl ToJson for SuiteReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("suite", self.suite.as_deref().map_or(Json::Null, Json::from)),
            ("backend", Json::from(self.backend.name())),
            ("model", Json::from(self.model.to_string())),
            ("parallelism", Json::from(self.parallelism as u64)),
            ("wall_us", Json::from(self.wall.as_micros().min(u128::from(u64::MAX)) as u64)),
            ("tests", Json::array(self.reports.iter().map(ToJson::to_json))),
        ])
    }
}

impl fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "suite{}: {} tests under {} ({} backend, {} workers, {:.1} ms)",
            self.suite.as_deref().map(|name| format!(" `{name}`")).unwrap_or_default(),
            self.reports.len(),
            self.model,
            self.backend,
            self.parallelism,
            self.wall.as_secs_f64() * 1e3,
        )?;
        for report in &self.reports {
            match (&report.verdict, &report.error) {
                (Some(verdict), _) => writeln!(
                    f,
                    "  {:<24} {:>9}  {} outcomes",
                    report.test,
                    verdict.to_string(),
                    report.outcomes.len()
                )?,
                (None, Some(error)) => writeln!(f, "  {:<24} ERROR: {error}", report.test)?,
                (None, None) => writeln!(f, "  {:<24} (no result)", report.test)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use gam_isa::litmus::library;

    fn sample_report() -> SuiteReport {
        Engine::builder()
            .model(ModelKind::Gam)
            .parallelism(2)
            .build()
            .unwrap()
            .run_suite(&[library::dekker(), library::corr()])
    }

    #[test]
    fn accessors_and_display() {
        let report = sample_report();
        assert!(report.all_ok());
        assert_eq!(report.report_for("dekker").unwrap().verdict, Some(Verdict::Allowed));
        assert_eq!(report.report_for("corr").unwrap().verdict, Some(Verdict::Forbidden));
        assert!(report.report_for("nope").is_none());
        let verdicts: Vec<_> = report.verdicts().collect();
        assert_eq!(verdicts[0], ("dekker", Some(Verdict::Allowed)));
        let text = report.to_string();
        assert!(text.contains("dekker"));
        assert!(text.contains("allowed"));
        assert!(text.contains("axiomatic"));
    }

    #[test]
    fn agreement_ignores_backend_and_timing() {
        let axiomatic = sample_report();
        let operational = Engine::operational(ModelKind::Gam)
            .unwrap()
            .run_suite(&[library::dekker(), library::corr()]);
        assert!(axiomatic.agrees_with(&operational));
        assert!(operational.agrees_with(&axiomatic));
        let shorter = Engine::axiomatic(ModelKind::Gam).run_suite(&[library::dekker()]);
        assert!(!axiomatic.agrees_with(&shorter));
    }

    #[test]
    fn suite_names_flow_into_display_and_json() {
        let anonymous = sample_report();
        assert_eq!(anonymous.suite, None);
        assert!(anonymous.to_json_string().contains("\"suite\":null"));
        let named = sample_report().named("tests/corpus");
        assert_eq!(named.suite.as_deref(), Some("tests/corpus"));
        assert!(named.to_string().contains("suite `tests/corpus`:"));
        assert!(named.to_json_string().contains("\"suite\":\"tests/corpus\""));
        // Naming does not affect suite-level agreement.
        assert!(named.agrees_with(&anonymous));
    }

    #[test]
    fn json_round_trips_the_interesting_fields() {
        let json = sample_report().to_json_string();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"backend\":\"axiomatic\""));
        assert!(json.contains("\"model\":\"GAM\""));
        assert!(json.contains("\"test\":\"dekker\""));
        assert!(json.contains("\"verdict\":\"allowed\""));
        assert!(json.contains("\"wall_us\":"));
        assert!(json.contains("\"outcomes\":["));
    }
}
