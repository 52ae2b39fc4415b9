//! The [`Engine`] facade: backend selection, configuration and parallel
//! litmus-suite execution.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gam_axiomatic::{AxiomaticChecker, CheckerConfig, Verdict};
use gam_core::{model, CancelToken, ModelKind};
use gam_isa::litmus::{LitmusTest, Outcome};
use gam_operational::{ExplorerConfig, MemoryConfig, OperationalChecker};

use crate::checker::{Answer, Checker, Query};
use crate::error::EngineError;
use crate::report::{ResultRow, SuiteReport, TestReport};
use crate::session::CheckBudget;

/// The two formal backends of the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// The axiomatic execution enumerator (`gam-axiomatic`).
    Axiomatic,
    /// The abstract-machine explorer (`gam-operational`).
    Operational,
}

impl Backend {
    /// Both backends, in a fixed order.
    pub const ALL: [Backend; 2] = [Backend::Axiomatic, Backend::Operational];

    /// A short lowercase name (`"axiomatic"` / `"operational"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Axiomatic => "axiomatic",
            Backend::Operational => "operational",
        }
    }

    /// Returns true if this backend has semantics for `model`.
    ///
    /// Every model has an axiomatic definition; the operational machines
    /// exist for SC, TSO, GAM and GAM0 but not for GAM-ARM (the paper defines
    /// the ARM-style same-address variant only axiomatically).
    #[must_use]
    pub fn supports(self, model: ModelKind) -> bool {
        match self {
            Backend::Axiomatic => true,
            Backend::Operational => OperationalChecker::supports(model),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configures and constructs an [`Engine`].
///
/// Defaults: GAM model, axiomatic backend, parallelism of 1.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model: ModelKind,
    backend: Backend,
    parallelism: usize,
    axiomatic_config: CheckerConfig,
    explorer_config: ExplorerConfig,
    explorer_memory: MemoryConfig,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            model: ModelKind::Gam,
            backend: Backend::Axiomatic,
            parallelism: 1,
            axiomatic_config: CheckerConfig::default(),
            explorer_config: ExplorerConfig::default(),
            explorer_memory: MemoryConfig::default(),
        }
    }
}

impl EngineBuilder {
    /// Selects the memory model.
    #[must_use]
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Selects the backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the number of worker threads used by [`Engine::run_suite`].
    /// Values are clamped to at least 1.
    #[must_use]
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Overrides the axiomatic checker limits (axiomatic backend only).
    #[must_use]
    pub fn axiomatic_config(mut self, config: CheckerConfig) -> Self {
        self.axiomatic_config = config;
        self
    }

    /// Sets the directory the operational explorer may spill cold arena
    /// segments into when a memory budget nears exhaustion (operational
    /// backend only; spilling stays off without a byte budget). A
    /// [`CheckBudget::max_bytes`] on an individual check supplies that
    /// budget, and the spill directory carries over into it.
    #[must_use]
    pub fn explorer_spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.explorer_memory.spill_dir = Some(dir);
        self
    }

    /// Sets the number of worker threads the operational explorer shards
    /// each test's state-space frontier across (operational backend only;
    /// clamped to at least 1). This composes with
    /// [`EngineBuilder::parallelism`]: the suite fans tests out over the
    /// engine's workers (cross-test work-stealing is the primary
    /// parallelism axis — litmus-scale tests are far cheaper to run
    /// whole-test-per-worker than to shard), and each exploration *can*
    /// itself go parallel — adaptively: sharding only kicks in once a
    /// test's running state count passes
    /// [`ExplorerConfig::parallel_threshold`], so small state spaces never
    /// pay thread overhead.
    #[must_use]
    pub fn explorer_parallelism(mut self, parallelism: usize) -> Self {
        self.explorer_config.parallelism = parallelism.max(1);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedModel`] if the selected backend has
    /// no semantics for the selected model (e.g. operational GAM-ARM).
    pub fn build(self) -> Result<Engine, EngineError> {
        if !self.backend.supports(self.model) {
            return Err(EngineError::UnsupportedModel { backend: self.backend, model: self.model });
        }
        let checker: Box<dyn Checker> = match self.backend {
            Backend::Axiomatic => Box::new(AxiomaticChecker::with_config(
                model::by_kind(self.model),
                self.axiomatic_config,
            )),
            Backend::Operational => Box::new(
                OperationalChecker::with_config(self.model, self.explorer_config)
                    .with_memory(self.explorer_memory),
            ),
        };
        Ok(Engine { checker, parallelism: self.parallelism })
    }
}

/// A polymorphic checking facade over one `(model, backend)` pair.
///
/// The engine answers single-test queries through the [`Checker`] trait and
/// runs whole litmus suites in parallel across a thread pool, producing a
/// structured [`SuiteReport`].
///
/// # Example
///
/// ```
/// use gam_engine::{Backend, Engine};
/// use gam_core::ModelKind;
/// use gam_isa::litmus::library;
///
/// let engine = Engine::builder()
///     .model(ModelKind::Gam)
///     .backend(Backend::Axiomatic)
///     .parallelism(4)
///     .build()
///     .unwrap();
/// let report = engine.run_suite(&library::paper_tests());
/// assert!(report.all_ok());
/// ```
pub struct Engine {
    checker: Box<dyn Checker>,
    parallelism: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend())
            .field("model", &self.model())
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

impl Engine {
    /// Starts configuring an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An axiomatic engine for `model` with default limits (never fails: the
    /// axiomatic backend covers every model).
    #[must_use]
    pub fn axiomatic(model: ModelKind) -> Engine {
        Engine::builder()
            .model(model)
            .backend(Backend::Axiomatic)
            .build()
            .expect("the axiomatic backend supports every model")
    }

    /// An operational engine for `model` with default limits.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedModel`] for models without an
    /// abstract machine (GAM-ARM).
    pub fn operational(model: ModelKind) -> Result<Engine, EngineError> {
        Engine::builder().model(model).backend(Backend::Operational).build()
    }

    /// The underlying checker as a trait object.
    #[must_use]
    pub fn checker(&self) -> &dyn Checker {
        &*self.checker
    }

    /// The engine's backend.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.checker.backend()
    }

    /// The engine's model.
    #[must_use]
    pub fn model(&self) -> ModelKind {
        self.checker.model()
    }

    /// The worker-thread count used by [`Engine::run_suite`].
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs `query` on the test under `budget`: the one path every check
    /// takes to the backend. It opens the check's `engine.check` trace span
    /// and holds the only `catch_unwind` on the check path, so a panicking
    /// checker answers with [`EngineError::Panicked`] and the caller (a
    /// suite worker, a serve worker) moves on. Early stops (budget, state
    /// limit) are part of the [`Answer`].
    ///
    /// # Errors
    ///
    /// Propagates backend errors other than early stops, plus
    /// [`EngineError::Panicked`].
    pub fn run(
        &self,
        test: &LitmusTest,
        query: Query,
        budget: &CheckBudget,
    ) -> Result<Answer, EngineError> {
        let mut span = gam_obs::trace::span("engine.check");
        span.arg("test", test.name());
        span.arg("backend", self.backend());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.checker.run(test, query, budget, CancelToken::new())
        }))
        .unwrap_or_else(|payload| Err(EngineError::panicked(&*payload)))
    }

    /// Decides whether the test's condition of interest is allowed,
    /// stopping at the first witness.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EngineError`]; an early stop (state
    /// limit, memory budget) is the backend's error, see
    /// [`Answer::complete`].
    pub fn check(&self, test: &LitmusTest) -> Result<Verdict, EngineError> {
        let answer = self.run_to_end(test, Query::Verdict)?;
        Ok(answer.verdict.as_verdict().expect("a complete answer is conclusive"))
    }

    /// The complete allowed-outcome set of the test.
    ///
    /// # Errors
    ///
    /// See [`Engine::check`].
    pub fn allowed_outcomes(&self, test: &LitmusTest) -> Result<BTreeSet<Outcome>, EngineError> {
        Ok(self.run_to_end(test, Query::Outcomes)?.outcomes)
    }

    fn run_to_end(&self, test: &LitmusTest, query: Query) -> Result<Answer, EngineError> {
        self.run(test, query, &CheckBudget::none())?.complete(self.backend(), test)
    }

    /// Checks the test under `budget` by the one rule every report row
    /// follows ([`CheckBudget::query`]): with a limit, the check enumerates
    /// outcomes and an early stop is an inconclusive answer; without one, it
    /// stops at its first witness and an early stop (the explorer's own
    /// state limit) is the backend's error, see [`Answer::complete`].
    ///
    /// # Errors
    ///
    /// See [`Engine::run`]; unbudgeted, also the early stop.
    pub fn answer(&self, test: &LitmusTest, budget: &CheckBudget) -> Result<Answer, EngineError> {
        let answer = self.run(test, budget.query(), budget)?;
        match budget.query() {
            Query::Outcomes => Ok(answer),
            Query::Verdict => answer.complete(self.backend(), test),
        }
    }

    /// Decides the test under a [`CheckBudget`] by enumerating its outcome
    /// set, blocking until the check finishes or exhausts the budget,
    /// whichever comes first: `run(test, Query::Outcomes, budget)`. Budget
    /// exhaustion answers with [`crate::SessionVerdict::Inconclusive`]
    /// carrying the partial outcomes.
    ///
    /// # Example
    ///
    /// ```
    /// use std::time::Duration;
    /// use gam_engine::{CheckBudget, Engine, SessionVerdict};
    /// use gam_isa::litmus::library;
    ///
    /// let engine = Engine::axiomatic(gam_core::ModelKind::Gam);
    /// // A generous budget completes and agrees with the unbudgeted check.
    /// let budget = CheckBudget::none().with_max_wall(Duration::from_secs(60));
    /// let answer = engine.check_budgeted(&library::dekker(), &budget).unwrap();
    /// assert_eq!(answer.verdict, SessionVerdict::Allowed);
    /// // A zero budget stops at the first poll with a partial verdict.
    /// let budget = CheckBudget::none().with_max_wall(Duration::ZERO);
    /// let answer = engine.check_budgeted(&library::dekker(), &budget).unwrap();
    /// assert!(!answer.verdict.is_conclusive());
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn check_budgeted(
        &self,
        test: &LitmusTest,
        budget: &CheckBudget,
    ) -> Result<Answer, EngineError> {
        self.run(test, Query::Outcomes, budget)
    }

    /// Runs a whole litmus suite, fanning tests out over the configured
    /// worker threads, and returns a structured per-test report with the
    /// complete allowed-outcome set of every test.
    ///
    /// Results are reported in input order regardless of parallelism, and
    /// per-test backend errors are captured in the report rather than
    /// aborting the run.
    #[must_use]
    pub fn run_suite(&self, tests: &[LitmusTest]) -> SuiteReport {
        self.run_suite_query(tests, Query::Outcomes)
    }

    /// Like [`Engine::run_suite`], but only decides each test's verdict,
    /// letting the backend stop at the first witness instead of enumerating
    /// every execution. The reports' `outcomes` sets are left empty.
    ///
    /// Use this when only allowed/forbidden answers are needed (e.g. verdict
    /// matrices); it is substantially cheaper on tests with many executions.
    #[must_use]
    pub fn run_suite_verdicts(&self, tests: &[LitmusTest]) -> SuiteReport {
        self.run_suite_query(tests, Query::Verdict)
    }

    fn run_suite_query(&self, tests: &[LitmusTest], query: Query) -> SuiteReport {
        let start = Instant::now();
        let total = tests.len();
        let workers = self.parallelism.min(total.max(1));
        let mut slots: Vec<Option<TestReport>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let slots = Mutex::new(slots);
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let test = &tests[index];
                    let start = Instant::now();
                    let result = self.run_to_end(test, query);
                    let row =
                        ResultRow::new(self.model(), self.backend(), &result, start.elapsed());
                    let outcomes = match result {
                        Ok(answer) if query == Query::Outcomes => answer.outcomes,
                        _ => BTreeSet::new(),
                    };
                    let report = TestReport { test: test.name().to_string(), row, outcomes };
                    slots.lock().expect("suite slot lock")[index] = Some(report);
                });
            }
        });

        let reports = slots
            .into_inner()
            .expect("suite slot lock")
            .into_iter()
            .map(|slot| slot.expect("every test produced a report"))
            .collect();
        SuiteReport {
            suite: None,
            backend: self.backend(),
            model: self.model(),
            parallelism: workers,
            wall: start.elapsed(),
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;
    use gam_operational::OperationalChecker;

    #[test]
    fn builder_defaults_and_accessors() {
        let engine = Engine::builder().build().unwrap();
        assert_eq!(engine.model(), ModelKind::Gam);
        assert_eq!(engine.backend(), Backend::Axiomatic);
        assert_eq!(engine.parallelism(), 1);
        assert_eq!(engine.checker().name(), "axiomatic");
    }

    #[test]
    fn operational_gam_arm_is_rejected_at_build_time() {
        let err = Engine::operational(ModelKind::GamArm).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnsupportedModel {
                backend: Backend::Operational,
                model: ModelKind::GamArm
            }
        ));
    }

    #[test]
    fn single_test_queries_agree_across_backends() {
        let test = library::dekker();
        for backend in Backend::ALL {
            let engine = Engine::builder().model(ModelKind::Gam).backend(backend).build().unwrap();
            assert_eq!(engine.check(&test).unwrap(), Verdict::Allowed);
            let answer = engine.run(&test, Query::Verdict, &CheckBudget::none()).unwrap();
            assert!(test.condition().matched_by(answer.outcomes.first().expect("a witness")));
        }
    }

    #[test]
    fn suite_reports_are_in_input_order_and_capture_errors() {
        let tests = vec![library::dekker(), library::corr(), library::mp()];
        let engine = Engine::builder()
            .model(ModelKind::Gam)
            .axiomatic_config(CheckerConfig { max_events: 3 })
            .parallelism(4)
            .build()
            .unwrap();
        let report = engine.run_suite(&tests);
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.reports[0].test, "dekker");
        assert_eq!(report.reports[1].test, "corr");
        assert_eq!(report.reports[2].test, "mp");
        // dekker has 4 memory events > limit 3 => captured error, not a panic.
        assert!(!report.reports[0].is_ok());
        assert!(report.reports[0].row.to_string().contains("memory events"));
        assert!(report.reports[1].is_ok());
        assert!(!report.all_ok());
    }

    #[test]
    fn verdict_only_suite_matches_the_full_suite() {
        let tests = vec![library::dekker(), library::corr(), library::mp()];
        for backend in Backend::ALL {
            let engine = Engine::builder()
                .model(ModelKind::Gam)
                .backend(backend)
                .parallelism(4)
                .build()
                .unwrap();
            let full = engine.run_suite(&tests);
            let verdicts = engine.run_suite_verdicts(&tests);
            assert!(verdicts.all_ok());
            let full_v: Vec<_> = full.verdicts().collect();
            let fast_v: Vec<_> = verdicts.verdicts().collect();
            assert_eq!(full_v, fast_v, "{backend}: verdict-only mode disagrees");
            assert!(verdicts.reports.iter().all(|r| r.outcomes.is_empty()));
        }
    }

    #[test]
    fn reduced_operational_engine_agrees_with_unreduced() {
        let tests = vec![library::dekker(), library::corr(), library::mp_addr(), library::wrc()];
        let reduced = Engine::builder()
            .model(ModelKind::Gam)
            .backend(Backend::Operational)
            .build()
            .unwrap()
            .run_suite(&tests);
        assert!(reduced.all_ok());
        for (test, fast) in tests.iter().zip(&reduced.reports) {
            // The unreduced reference search visits every interleaving.
            let full = OperationalChecker::new(ModelKind::Gam).explore_reference(test).unwrap();
            let allowed = full.outcomes.iter().any(|outcome| test.condition().matched_by(outcome));
            let verdict = if allowed { Verdict::Allowed } else { Verdict::Forbidden };
            assert_eq!(Some(verdict), fast.row.verdict(), "{}", fast.test);
            assert_eq!(full.outcomes, fast.outcomes, "{}", fast.test);
        }
    }

    #[test]
    fn explorer_parallelism_plumbs_through() {
        let tests = vec![library::dekker(), library::iriw()];
        let baseline = Engine::builder()
            .model(ModelKind::Gam)
            .backend(Backend::Operational)
            .build()
            .unwrap()
            .run_suite(&tests);
        // Adaptive sharding (default threshold, never reached at litmus
        // scale) reproduces the sequential verdicts and outcome sets; forced
        // sharding is pinned against the sequential driver in the explorer's
        // own tests.
        let report = Engine::builder()
            .model(ModelKind::Gam)
            .backend(Backend::Operational)
            .explorer_parallelism(4)
            .build()
            .unwrap()
            .run_suite(&tests);
        assert!(report.all_ok());
        for (seq, par) in baseline.reports.iter().zip(&report.reports) {
            assert_eq!(seq.row.verdict(), par.row.verdict(), "{}", seq.test);
            assert_eq!(seq.outcomes, par.outcomes, "{}", seq.test);
        }
    }

    #[test]
    fn parallelism_is_clamped_to_suite_size() {
        let engine = Engine::builder().parallelism(64).build().unwrap();
        let report = engine.run_suite(&[library::dekker()]);
        assert_eq!(report.parallelism, 1);
        assert!(report.all_ok());
    }
}
