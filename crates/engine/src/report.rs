//! Structured, serializable check results: the one row per (model,
//! backend) answer, and the suite report that groups them.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use gam_axiomatic::Verdict;
use gam_core::ModelKind;
use gam_isa::litmus::Outcome;

use crate::checker::Answer;
use crate::engine::Backend;
use crate::error::EngineError;
use crate::json::{Json, ToJson};
use crate::session::SessionVerdict;

/// One (model, backend) answer for one test: the row every report prints.
///
/// `gam check` and `gam run` print one per test of each pair's suite
/// report, `gam serve` one per requested pair (adding `cached`), and a run
/// checkpoint records one per completed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    /// The model checked.
    pub model: ModelKind,
    /// The backend that checked it.
    pub backend: Backend,
    /// What the check concluded.
    pub answer: RowAnswer,
    /// Distinct states the search visited (operational backend; the
    /// axiomatic enumerator reports 0).
    pub states: u64,
    /// Wall time of the check, in microseconds.
    pub wall_us: u64,
}

/// What one check concluded: the part of a [`ResultRow`] that is exactly
/// one of a verdict, an inconclusive stop or a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowAnswer {
    /// A conclusive verdict.
    Verdict(Verdict),
    /// The search stopped early without a witness.
    Inconclusive {
        /// Why it stopped.
        reason: String,
        /// How many outcomes it had found.
        partial_outcomes: u64,
    },
    /// The check failed with this backend error.
    Error(String),
}

impl ResultRow {
    /// The row of one check's `result`, which took `wall`.
    #[must_use]
    pub fn new(
        model: ModelKind,
        backend: Backend,
        result: &Result<Answer, EngineError>,
        wall: Duration,
    ) -> ResultRow {
        let (answer, states) = match result {
            Ok(answer) => {
                let conclusion = match &answer.verdict {
                    SessionVerdict::Allowed => RowAnswer::Verdict(Verdict::Allowed),
                    SessionVerdict::Forbidden => RowAnswer::Verdict(Verdict::Forbidden),
                    SessionVerdict::Inconclusive { partial_outcomes, reason, .. } => {
                        RowAnswer::Inconclusive {
                            reason: reason.to_string(),
                            partial_outcomes: partial_outcomes.len() as u64,
                        }
                    }
                };
                (conclusion, answer.states_visited as u64)
            }
            Err(err) => (RowAnswer::Error(err.to_string()), 0),
        };
        ResultRow { model, backend, answer, states, wall_us: micros(wall) }
    }

    /// The conclusive verdict, if there is one.
    #[must_use]
    pub fn verdict(&self) -> Option<Verdict> {
        match self.answer {
            RowAnswer::Verdict(verdict) => Some(verdict),
            _ => None,
        }
    }

    /// Returns true unless the check failed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        !matches!(self.answer, RowAnswer::Error(_))
    }

    /// Returns true if the search stopped early without a verdict.
    #[must_use]
    pub fn is_inconclusive(&self) -> bool {
        matches!(self.answer, RowAnswer::Inconclusive { .. })
    }

    /// The row's JSON fields, in order: `verdict` is `allowed`, `forbidden`,
    /// `inconclusive` (with `reason` and `partial_outcomes`) or `null` (with
    /// `error`). [`ToJson::to_json`] is their object; reports that wrap a
    /// row (a suite's `test`, serve's `cached`) add theirs around these.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, Json); 8] {
        let (verdict, reason, partial_outcomes, error) = match &self.answer {
            RowAnswer::Verdict(verdict) => (verdict.to_json(), Json::Null, 0, Json::Null),
            RowAnswer::Inconclusive { reason, partial_outcomes } => (
                Json::from("inconclusive"),
                Json::from(reason.as_str()),
                *partial_outcomes,
                Json::Null,
            ),
            RowAnswer::Error(error) => (Json::Null, Json::Null, 0, Json::from(error.as_str())),
        };
        [
            ("model", Json::from(self.model.to_string())),
            ("backend", Json::from(self.backend.name())),
            ("verdict", verdict),
            ("reason", reason),
            ("states", Json::UInt(self.states)),
            ("partial_outcomes", Json::UInt(partial_outcomes)),
            ("wall_us", Json::UInt(self.wall_us)),
            ("error", error),
        ]
    }

    /// Parses a row rendered by [`ToJson::to_json`]: `None` unless `json` is
    /// exactly the rendering of the row it describes, so a missing, stray,
    /// mistyped or contradictory field rejects it.
    #[must_use]
    pub fn from_json(json: &Json) -> Option<ResultRow> {
        let text = |key: &str| json.get(key)?.as_str();
        let count = |key: &str| json.get(key)?.as_u64();
        let answer = match text("verdict") {
            Some("allowed") => RowAnswer::Verdict(Verdict::Allowed),
            Some("forbidden") => RowAnswer::Verdict(Verdict::Forbidden),
            Some("inconclusive") => RowAnswer::Inconclusive {
                reason: text("reason")?.to_string(),
                partial_outcomes: count("partial_outcomes")?,
            },
            _ => RowAnswer::Error(text("error")?.to_string()),
        };
        let row = ResultRow {
            model: ModelKind::ALL
                .into_iter()
                .find(|m| Some(m.to_string().as_str()) == text("model"))?,
            backend: Backend::ALL.into_iter().find(|b| Some(b.name()) == text("backend"))?,
            answer,
            states: count("states")?,
            wall_us: count("wall_us")?,
        };
        (row.to_json() == *json).then_some(row)
    }
}

impl ToJson for ResultRow {
    fn to_json(&self) -> Json {
        Json::object(self.fields())
    }
}

impl fmt::Display for ResultRow {
    /// The answer: the verdict, `INCONCLUSIVE: <reason> (...)` or
    /// `ERROR: <error>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.answer {
            RowAnswer::Verdict(verdict) => write!(f, "{verdict}"),
            RowAnswer::Inconclusive { reason, partial_outcomes } => write!(
                f,
                "INCONCLUSIVE: {reason} ({} states, {partial_outcomes} partial outcomes)",
                self.states
            ),
            RowAnswer::Error(error) => write!(f, "ERROR: {error}"),
        }
    }
}

fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// The result of checking one litmus test in a suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Litmus-test name.
    pub test: String,
    /// The (model, backend) answer.
    pub row: ResultRow,
    /// The complete allowed-outcome set of a [`crate::Query::Outcomes`] run
    /// (empty otherwise, and on error). It stays out of the JSON, which is
    /// the row's.
    pub outcomes: BTreeSet<Outcome>,
}

impl TestReport {
    /// Returns true if the backend produced a verdict (no error).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.row.is_ok()
    }
}

impl ToJson for TestReport {
    fn to_json(&self) -> Json {
        Json::object(
            [("test", Json::from(self.test.as_str()))].into_iter().chain(self.row.fields()),
        )
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
        self.reports.iter().map(|report| (report.test.as_str(), report.row.verdict()))
    }

    /// Returns true if `other` reports exactly the same tests with exactly
    /// the same verdicts and allowed-outcome sets (backend, parallelism and
    /// timings are ignored). This is the suite-level equivalence check.
    #[must_use]
    pub fn agrees_with(&self, other: &SuiteReport) -> bool {
        self.reports.len() == other.reports.len()
            && self.reports.iter().zip(&other.reports).all(|(mine, theirs)| {
                mine.test == theirs.test
                    && mine.row.verdict() == theirs.row.verdict()
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
            ("wall_us", Json::UInt(micros(self.wall))),
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
            write!(f, "  {:<24} {}", report.test, report.row)?;
            if !report.outcomes.is_empty() {
                write!(f, "  ({} outcomes)", report.outcomes.len())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::session::CheckBudget;
    use gam_isa::litmus::{library, LitmusTest};

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
        assert_eq!(report.report_for("dekker").unwrap().row.verdict(), Some(Verdict::Allowed));
        assert_eq!(report.report_for("corr").unwrap().row.verdict(), Some(Verdict::Forbidden));
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
        assert!(json.contains("\"states\":0"));
        assert!(!json.contains("\"outcomes\""), "the outcome sets stay out of the rows");
    }

    #[test]
    fn rows_round_trip_through_json() {
        let engine = Engine::operational(ModelKind::Gam).unwrap();
        let row = |test: &LitmusTest, budget: &CheckBudget| {
            ResultRow::new(
                ModelKind::Gam,
                Backend::Operational,
                &engine.answer(test, budget),
                Duration::from_micros(42),
            )
        };
        let allowed = row(&library::dekker(), &CheckBudget::none());
        let forbidden = row(&library::corr(), &CheckBudget::none());
        let inconclusive = row(&library::iriw(), &CheckBudget::none().with_max_states(1));
        let unsupported = EngineError::UnsupportedModel {
            backend: Backend::Operational,
            model: ModelKind::GamArm,
        };
        let error = ResultRow::new(
            ModelKind::GamArm,
            Backend::Operational,
            &Err(unsupported),
            Duration::ZERO,
        );
        assert_eq!(allowed.verdict(), Some(Verdict::Allowed));
        assert_eq!(forbidden.verdict(), Some(Verdict::Forbidden));
        assert!(inconclusive.is_inconclusive() && inconclusive.states >= 1, "{inconclusive:?}");
        assert!(!error.is_ok());
        for row in [allowed, forbidden, inconclusive, error] {
            let text = row.to_json().to_string();
            assert_eq!(ResultRow::from_json(&Json::parse(&text).unwrap()), Some(row), "{text}");
        }
    }

    #[test]
    fn malformed_rows_do_not_parse() {
        let row = |fields: &str| {
            let json =
                Json::parse(&format!(r#"{{"model":"GAM","backend":"operational",{fields}}}"#));
            ResultRow::from_json(&json.unwrap())
        };
        let tail = r#""states":3,"partial_outcomes":0,"wall_us":7"#;
        assert!(row(&format!(r#""verdict":"allowed","reason":null,{tail},"error":null"#)).is_some());
        // A row of the former checkpoint schema: `states_visited`, no `states`.
        assert_eq!(row(r#""verdict":"allowed","states_visited":3,"wall_us":7"#), None);
        // Not exactly one of verdict, reason and error.
        assert_eq!(row(&format!(r#""verdict":"allowed","reason":"x",{tail},"error":null"#)), None);
        assert_eq!(
            row(&format!(r#""verdict":"inconclusive","reason":null,{tail},"error":null"#)),
            None
        );
        assert_eq!(row(&format!(r#""verdict":null,"reason":null,{tail},"error":null"#)), None);
        assert_eq!(row(&format!(r#""verdict":"maybe","reason":null,{tail},"error":"x""#)), None);
        // A stray field, such as a served row's `cached`.
        let served =
            format!(r#""verdict":"allowed","reason":null,{tail},"error":null,"cached":true"#);
        assert_eq!(row(&served), None);
    }
}
