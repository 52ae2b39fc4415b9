//! Budgeted, cancellable, panic-isolated check sessions.
//!
//! The blocking [`crate::Engine`] API answers exactly or not at all: a check
//! either exhausts its search space or fails with an error. Real deployments
//! (the batch CLI, `gam serve`) need a third shape of answer — *"here is what
//! I know so far, and why I stopped"*. This module provides it:
//!
//! * [`CheckBudget`] — per-check resource limits: a wall-clock budget and/or
//!   an explored-state cap;
//! * [`SessionVerdict`] — the three-valued verdict: `Allowed`, `Forbidden`,
//!   or [`SessionVerdict::Inconclusive`] carrying the partial outcome set
//!   accumulated before the stop and the [`StopReason`];
//! * [`CheckHandle`] — the future-like handle returned by
//!   [`crate::Engine::submit`]: cancel it, poll it, or block on the result;
//! * a lazily-started session worker pool inside the engine whose jobs run
//!   through the same panic fence as [`crate::Engine::run`], so a panicking
//!   checker surfaces as [`crate::EngineError::Panicked`] instead of killing
//!   the worker.
//!
//! Soundness of partial verdicts: both backends enumerate *consistent*
//! executions only, so an interrupted search's partial outcome set is an
//! under-approximation of the true allowed set. If a partial outcome already
//! matches the test's condition of interest the verdict is promoted to a
//! full `Allowed` — a witness is a witness no matter when the search stopped.
//! The absence of a witness in a partial set proves nothing, hence
//! `Inconclusive`.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use gam_engine::{CheckBudget, Engine, SessionVerdict};
//! use gam_isa::litmus::library;
//!
//! let engine = Engine::axiomatic(gam_core::ModelKind::Gam);
//! // A generous budget completes and agrees with the blocking API.
//! let budget = CheckBudget::none().with_max_wall(Duration::from_secs(60));
//! let outcome = engine.submit_budgeted(&library::dekker(), budget).wait().unwrap();
//! assert_eq!(outcome.verdict, SessionVerdict::Allowed);
//! // A zero budget stops at the first poll with a partial verdict.
//! let budget = CheckBudget::none().with_max_wall(Duration::ZERO);
//! let outcome = engine.submit_budgeted(&library::dekker(), budget).wait().unwrap();
//! assert!(!outcome.verdict.is_conclusive());
//! ```

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gam_core::{CancelToken, Interrupt, StopReason};
use gam_isa::litmus::{LitmusTest, Outcome};

use crate::checker::Query;
use crate::error::EngineError;

/// Per-check resource limits.
///
/// The default ([`CheckBudget::none`]) is unlimited: a budgeted check with no
/// budget behaves like the blocking API, except that it can still be
/// cancelled and that a state-limit abort is reported as an inconclusive
/// verdict instead of an error.
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
    /// search (sleep-cache flushes, then arena spilling when a spill
    /// directory is configured); crossing it stops the check with
    /// [`StopReason::MemoryBudget`].
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

/// The result of a finished budgeted check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The (possibly partial) verdict.
    pub verdict: SessionVerdict,
    /// Wall-clock time the check spent executing (excludes queue time).
    pub wall: Duration,
}

/// Locks a mutex, tolerating poison.
///
/// Session state is only ever mutated under short critical sections that
/// cannot panic; tolerating poison means one aborted worker can never wedge
/// every later caller.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared completion state between a [`CheckHandle`] and its worker job.
#[derive(Debug, Default)]
struct HandleShared {
    slot: Mutex<Option<Result<SessionOutcome, EngineError>>>,
    done: Condvar,
}

impl HandleShared {
    fn complete(&self, result: Result<SessionOutcome, EngineError>) {
        *lock_tolerant(&self.slot) = Some(result);
        self.done.notify_all();
    }
}

/// A handle to a check submitted with [`crate::Engine::submit`] or
/// [`crate::Engine::submit_budgeted`].
///
/// The handle owns the check's [`CancelToken`]: call [`CheckHandle::cancel`]
/// (from any thread — [`CheckHandle::cancel_token`] clones the shared token)
/// and the running check stops at its next interrupt poll with an
/// inconclusive verdict. Dropping the handle does *not* cancel the check.
#[derive(Debug)]
pub struct CheckHandle {
    cancel: CancelToken,
    shared: Arc<HandleShared>,
}

impl CheckHandle {
    /// Requests cancellation. Idempotent; never blocks. The check reports
    /// [`StopReason::Cancelled`] at its next poll (checks cancelled before
    /// they start stop at their very first poll).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the check's cancel token, for cancelling from elsewhere.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the check has produced its result.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        lock_tolerant(&self.shared.slot).is_some()
    }

    /// Blocks until the check finishes and returns its result.
    pub fn wait(self) -> Result<SessionOutcome, EngineError> {
        let mut slot = lock_tolerant(&self.shared.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the check finishes or the timeout elapses. Returns
    /// `None` on timeout (the check keeps running; the handle stays usable).
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<SessionOutcome, EngineError>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = lock_tolerant(&self.shared.slot);
        loop {
            if slot.is_some() {
                return slot.clone();
            }
            let remaining = match deadline {
                Some(deadline) => deadline.checked_duration_since(Instant::now())?,
                None => Duration::MAX,
            };
            let (guard, _timed_out) = self
                .shared
                .done
                .wait_timeout(slot, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// The engine's session worker pool: a fixed set of threads draining a FIFO
/// job queue. Workers run every job under [`catch_unwind`], so they survive
/// panicking checkers. Dropping the pool drains the remaining queue, then
/// joins every worker.
pub(crate) struct SessionPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool").field("workers", &self.workers.len()).finish()
    }
}

impl SessionPool {
    pub(crate) fn new(workers: usize) -> SessionPool {
        let shared = Arc::new(PoolShared::default());
        let workers = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gam-session-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn session worker")
            })
            .collect();
        SessionPool { shared, workers }
    }

    pub(crate) fn submit(&self, job: Job) {
        lock_tolerant(&self.shared.state).queue.push_back(job);
        self.shared.work.notify_one();
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        lock_tolerant(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock_tolerant(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Jobs convert checker panics to `EngineError::Panicked` themselves;
        // this outer guard is the belt-and-braces that keeps the worker
        // alive even if the completion plumbing itself were to panic.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Builds the job a session worker runs for one submitted check, and the
/// handle that observes it.
pub(crate) fn check_job(
    checker: Arc<dyn crate::Checker>,
    test: &LitmusTest,
    budget: CheckBudget,
) -> (Job, CheckHandle) {
    let cancel = CancelToken::new();
    let shared = Arc::new(HandleShared::default());
    let handle = CheckHandle { cancel: cancel.clone(), shared: Arc::clone(&shared) };
    let test = test.clone();
    // The submitter's trace id travels with the job: the worker re-installs
    // it, so the check's spans correlate with the request that queued it.
    let trace_id = gam_obs::trace::current_trace_id();
    let job: Job = Box::new(move || {
        gam_obs::trace::set_trace_id(trace_id);
        let start = Instant::now();
        let result = crate::engine::run_fenced(&*checker, &test, Query::Outcomes, &budget, cancel)
            .map(|answer| SessionOutcome { verdict: answer.verdict, wall: start.elapsed() });
        shared.complete(result);
    });
    (job, handle)
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

    #[test]
    fn submitted_checks_complete_and_cancel() {
        let engine = Engine::operational(ModelKind::Gam).unwrap();
        // Occupy the single session worker with a briefly-budgeted check, so
        // the second submission is still queued when we cancel it.
        let blocker = engine.submit_budgeted(
            &library::iriw(),
            CheckBudget::none().with_max_wall(Duration::from_millis(100)),
        );
        let cancelled = engine.submit(&library::iriw());
        cancelled.cancel();
        let blocked = blocker.wait().unwrap();
        assert!(blocked.wall >= Duration::from_millis(1) || blocked.verdict.is_conclusive());
        match cancelled.wait().unwrap().verdict {
            SessionVerdict::Inconclusive { reason: StopReason::Cancelled, .. } => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        // The pool survives and keeps answering.
        let after = engine.submit(&library::corr()).wait().unwrap();
        assert_eq!(after.verdict, SessionVerdict::Forbidden);
    }

    #[test]
    fn handles_poll_and_time_out() {
        let engine = Engine::axiomatic(ModelKind::Gam);
        let handle = engine.submit(&library::corr());
        let result = handle.wait_timeout(Duration::from_secs(120)).expect("finishes");
        assert_eq!(result.unwrap().verdict, SessionVerdict::Forbidden);
        assert!(handle.is_finished());
        // A second timed wait returns the cached result again.
        assert!(handle.wait_timeout(Duration::ZERO).is_some());
    }

    #[test]
    fn submitted_errors_are_reported_not_thrown() {
        let engine = Engine::axiomatic(ModelKind::GamArm);
        // GAM-ARM is axiomatic-only; an operational engine cannot even be
        // built, so provoke a backend error instead: an over-limit test.
        let engine_small = Engine::builder()
            .model(ModelKind::Gam)
            .axiomatic_config(gam_axiomatic::CheckerConfig { max_events: 2 })
            .build()
            .unwrap();
        let err = engine_small.submit(&library::dekker()).wait().unwrap_err();
        assert!(err.to_string().contains("memory events"));
        // The GAM-ARM engine still answers fine.
        let outcome = engine.submit(&library::dekker()).wait().unwrap();
        assert_eq!(outcome.verdict, SessionVerdict::Allowed);
    }
}
