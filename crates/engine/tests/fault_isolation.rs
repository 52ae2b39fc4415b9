//! Panic isolation under deterministic fault injection.
//!
//! These tests arm `gam_core::fault` plans that make the backends panic
//! mid-check and assert the engine's robustness contract: a panicking
//! checker surfaces as a typed [`EngineError::Panicked`], the same engine
//! keeps answering, and suite runs report the panic as a per-test error
//! instead of dying.
//!
//! The fault plan is process-global, so every test takes
//! [`fault::exclusive`] for its whole `install`..`reset` span.

use std::panic;

use gam_core::{fault, ModelKind};
use gam_engine::{Backend, CheckBudget, Engine, EngineError};
use gam_isa::litmus::library;

/// Runs `body` with panic backtraces suppressed (injected panics are the
/// point of these tests; their default reports would spam the output).
fn quiet_panics<T>(body: impl FnOnce() -> T) -> T {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = body();
    panic::set_hook(hook);
    result
}

#[test]
fn injected_explorer_panic_is_a_typed_error_and_the_engine_survives() {
    let _guard = fault::exclusive();
    fault::install("explore=panic").expect("valid fault spec");
    let engine = Engine::operational(ModelKind::Gam).expect("operational engine");
    let test = library::mp();

    let err = quiet_panics(|| engine.check_budgeted(&test, &CheckBudget::none()))
        .expect_err("armed explorer must panic");
    match &err {
        EngineError::Panicked { payload } => {
            assert!(payload.contains("injected fault: explore"), "payload: {payload}");
        }
        other => panic!("expected Panicked, got {other}"),
    }
    assert!(err.to_string().starts_with("the checker panicked"), "{err}");

    // Disarm: the same engine answers normally — nothing was poisoned.
    fault::reset();
    let outcome = engine.check_budgeted(&test, &CheckBudget::none()).expect("clean recheck");
    assert!(outcome.verdict.is_conclusive());
}

#[test]
fn injected_axiomatic_panic_is_a_typed_error() {
    let _guard = fault::exclusive();
    fault::install("axiomatic=panic").expect("valid fault spec");
    let engine = Engine::axiomatic(ModelKind::Gam);
    let test = library::corr();

    let err = quiet_panics(|| engine.check_budgeted(&test, &CheckBudget::none()))
        .expect_err("armed axiomatic enumeration must panic");
    assert!(matches!(err, EngineError::Panicked { .. }), "got {err}");

    fault::reset();
    assert!(engine.check_budgeted(&test, &CheckBudget::none()).is_ok());
}

#[test]
fn suite_runs_report_panics_per_test_and_finish() {
    let _guard = fault::exclusive();
    // Every 2nd exploration panics: a suite over 4 tests gets a mix of
    // verdicts and typed per-test errors, and the run itself completes.
    fault::install("explore=panic@2").expect("valid fault spec");
    let engine = Engine::builder()
        .model(ModelKind::Gam)
        .backend(Backend::Operational)
        .parallelism(1)
        .build()
        .expect("operational engine");
    let tests = [library::corr(), library::mp(), library::dekker(), library::iriw()];
    let report = quiet_panics(|| engine.run_suite(&tests));
    fault::reset();

    assert_eq!(report.reports.len(), tests.len());
    let panicked: Vec<_> = report
        .reports
        .iter()
        .filter(|r| r.row.to_string().starts_with("ERROR: the checker panicked"))
        .collect();
    let clean = report.reports.iter().filter(|r| r.row.verdict().is_some()).count();
    assert!(!panicked.is_empty(), "the armed plan must catch some tests");
    assert!(clean > 0, "the plan must spare some tests");
    assert_eq!(panicked.len() + clean, tests.len());

    // A disarmed rerun is fully clean.
    assert!(engine.run_suite(&tests).all_ok());
}

#[test]
fn injected_delay_exhausts_a_wall_budget() {
    let _guard = fault::exclusive();
    // A 50 ms injected stall against a 10 ms budget: the check must come
    // back inconclusive (wall budget), not hang and not error.
    fault::install("explore=delay:50").expect("valid fault spec");
    let engine = Engine::operational(ModelKind::Gam).expect("operational engine");
    let budget = CheckBudget::none().with_max_wall(std::time::Duration::from_millis(10));
    let outcome = engine.check_budgeted(&library::iriw(), &budget).expect("typed result");
    fault::reset();
    match outcome.verdict {
        gam_engine::SessionVerdict::Inconclusive { reason, .. } => {
            assert!(reason.to_string().contains("wall budget"), "reason: {reason}");
        }
        other => panic!("expected an inconclusive verdict, got {other}"),
    }
}

#[test]
fn the_blocking_entry_points_fence_panics_too() {
    let _guard = fault::exclusive();
    // `check` and `allowed_outcomes` reach the backend through the same
    // fenced path as the budgeted checks: a panicking backend is a typed
    // error, never an unwind into the caller.
    for (spec, engine) in [
        ("axiomatic=panic", Engine::axiomatic(ModelKind::Gam)),
        ("explore=panic", Engine::operational(ModelKind::Gam).expect("operational engine")),
    ] {
        fault::install(spec).expect("valid fault spec");
        let test = library::mp();
        let checked = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            quiet_panics(|| (engine.check(&test), engine.allowed_outcomes(&test)))
        }));
        fault::reset();
        let (verdict, outcomes) = checked.unwrap_or_else(|_| panic!("{spec}: the panic escaped"));
        assert!(matches!(verdict, Err(EngineError::Panicked { .. })), "{spec}: {verdict:?}");
        assert!(matches!(outcomes, Err(EngineError::Panicked { .. })), "{spec}: {outcomes:?}");
        // Disarmed, the same engine answers.
        assert!(engine.check(&test).is_ok(), "{spec}");
    }
}
