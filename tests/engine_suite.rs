//! Integration tests of the parallel suite runner: a parallel
//! (`parallelism >= 4`) full-library run must produce verdicts and outcome
//! sets identical to the sequential run, per-test failures must be captured
//! rather than aborting the suite, and the JSON export must carry the fields
//! the perf-trajectory tooling consumes.

use gam::core::ModelKind;
use gam::engine::{Backend, CheckerConfig, Engine, Verdict};
use gam::isa::litmus::library;

fn suite(model: ModelKind, backend: Backend, parallelism: usize) -> gam::engine::SuiteReport {
    Engine::builder()
        .model(model)
        .backend(backend)
        .parallelism(parallelism)
        .build()
        .expect("supported (model, backend) pair")
        .run_suite(&library::all_tests())
}

#[test]
fn parallel_run_is_identical_to_sequential_for_every_backend() {
    for backend in Backend::ALL {
        let sequential = suite(ModelKind::Gam, backend, 1);
        let parallel = suite(ModelKind::Gam, backend, 4);
        assert_eq!(sequential.parallelism, 1);
        assert_eq!(parallel.parallelism, 4.min(sequential.reports.len()));
        assert!(sequential.all_ok(), "{backend}: sequential run failed");
        assert!(
            sequential.agrees_with(&parallel) && parallel.agrees_with(&sequential),
            "{backend}: parallel and sequential suite runs disagree"
        );
        // Order and verdicts, element by element, not just set equality.
        let seq: Vec<_> = sequential.verdicts().collect();
        let par: Vec<_> = parallel.verdicts().collect();
        assert_eq!(seq, par, "{backend}: verdict sequences differ");
    }
}

#[test]
fn parallel_runs_agree_across_all_supported_models() {
    for kind in [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam0, ModelKind::GamArm] {
        let sequential = suite(kind, Backend::Axiomatic, 1);
        let parallel = suite(kind, Backend::Axiomatic, 8);
        assert!(sequential.agrees_with(&parallel), "{kind}: parallel axiomatic run differs");
    }
}

#[test]
fn known_verdicts_survive_the_facade() {
    let report = suite(ModelKind::Gam, Backend::Axiomatic, 4);
    assert_eq!(report.report_for("dekker").unwrap().row.verdict(), Some(Verdict::Allowed));
    assert_eq!(report.report_for("corr").unwrap().row.verdict(), Some(Verdict::Forbidden));
    assert_eq!(report.report_for("oota").unwrap().row.verdict(), Some(Verdict::Forbidden));
}

#[test]
fn per_test_errors_are_captured_not_fatal() {
    let engine = Engine::builder()
        .model(ModelKind::Gam)
        .axiomatic_config(CheckerConfig { max_events: 3 })
        .parallelism(4)
        .build()
        .unwrap();
    let report = engine.run_suite(&library::all_tests());
    assert!(!report.all_ok(), "a 3-event limit must fail some library tests");
    let failed = report.reports.iter().filter(|r| !r.is_ok()).count();
    let passed = report.reports.iter().filter(|r| r.is_ok()).count();
    assert!(failed > 0 && passed > 0, "both small and large tests exist in the library");
    for test_report in &report.reports {
        assert_eq!(test_report.is_ok(), test_report.row.verdict().is_some());
    }
}

#[test]
fn json_export_carries_the_machine_readable_fields() {
    let report = suite(ModelKind::Gam, Backend::Operational, 4);
    let json = report.to_json_string();
    assert!(json.contains("\"backend\":\"operational\""));
    assert!(json.contains("\"model\":\"GAM\""));
    assert!(json.contains("\"parallelism\":4"));
    assert!(json.contains("\"tests\":["));
    assert!(json.contains("\"test\":\"dekker\""));
    assert!(json.contains("\"verdict\":\"allowed\""));
    assert!(json.contains("\"wall_us\":"));
    // Every library test appears exactly once.
    for test in library::all_tests() {
        assert_eq!(
            json.matches(&format!("\"test\":\"{}\"", test.name())).count(),
            1,
            "{} must appear exactly once",
            test.name()
        );
    }
}
