//! Cross-backend agreement property test — the machine-checked counterpart
//! of the paper's Theorem 1, driven through the unified `dyn Checker` trait.
//!
//! Every litmus test in the library, `tests/corpus-stress` and
//! `tests/corpus-big` is checked under every model that both backends
//! support ({SC, TSO, GAM, GAM0}), through trait objects so that the two
//! backends are literally indistinguishable to the test driver, and the
//! *complete* allowed-outcome sets must be identical. Witnesses and
//! verdicts are cross-checked as well, and the one capability gap (GAM-ARM
//! has no abstract machine) must be reported uniformly by `supports`.
//!
//! The two corpus cases are release tests: the axiomatic side of the stress
//! corpus alone takes over a minute of CPU, so a debug build skips them.

use std::sync::atomic::{AtomicUsize, Ordering};

use gam::axiomatic::AxiomaticChecker;
use gam::core::{model, ModelKind};
use gam::engine::{
    Answer, Backend, CancelToken, CheckBudget, Checker, Engine, EngineError, Query, SessionVerdict,
};
use gam::frontend::{Corpus, CorpusError};
use gam::isa::litmus::{library, LitmusTest};
use gam::operational::OperationalChecker;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

/// Both backends for one model, erased to the unified trait.
fn checkers_for(kind: ModelKind) -> [Box<dyn Checker>; 2] {
    [Box::new(AxiomaticChecker::new(model::by_kind(kind))), Box::new(OperationalChecker::new(kind))]
}

fn run(checker: &dyn Checker, test: &LitmusTest, query: Query) -> Result<Answer, EngineError> {
    let answer = checker.run(test, query, &CheckBudget::none(), CancelToken::new())?;
    assert_eq!(answer.stop, None, "{}: an unbudgeted check runs to its end", test.name());
    Ok(answer)
}

/// Drives every test through both backends via `dyn Checker` (work is
/// fanned out over a few threads to keep the sweep fast) and asserts
/// identical allowed-outcome sets, verdicts and witness consistency.
fn assert_backends_agree(kind: ModelKind, tests: &[LitmusTest]) {
    let [axiomatic, operational] = checkers_for(kind);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= tests.len() {
                    break;
                }
                let test = &tests[index];
                let name = test.name();
                let ax = run(&*axiomatic, test, Query::Outcomes)
                    .unwrap_or_else(|e| panic!("{kind}/{name}: axiomatic failed: {e}"))
                    .outcomes;
                let op = run(&*operational, test, Query::Outcomes)
                    .unwrap_or_else(|e| panic!("{kind}/{name}: operational failed: {e}"))
                    .outcomes;
                assert_eq!(
                    ax, op,
                    "{kind}/{name}: allowed-outcome sets differ between the backends"
                );

                // A verdict query answers with its witness: one exists iff
                // the condition is allowed, on both backends, and it is a
                // member of the (shared) outcome set.
                let ax_verdict = run(&*axiomatic, test, Query::Verdict).expect("axiomatic verdict");
                let op_verdict =
                    run(&*operational, test, Query::Verdict).expect("operational verdict");
                assert_eq!(
                    ax_verdict.verdict, op_verdict.verdict,
                    "{kind}/{name}: verdicts differ"
                );
                for answer in [&ax_verdict, &op_verdict] {
                    assert_eq!(
                        !answer.outcomes.is_empty(),
                        ax_verdict.verdict == SessionVerdict::Allowed,
                        "{kind}/{name}: witness presence disagrees with the verdict"
                    );
                    for outcome in &answer.outcomes {
                        assert!(test.condition().matched_by(outcome));
                        assert!(ax.contains(outcome));
                    }
                }
            });
        }
    });
}

#[test]
fn sc_backends_agree_on_the_whole_library() {
    assert_backends_agree(ModelKind::Sc, &library::all_tests());
}

#[test]
fn tso_backends_agree_on_the_whole_library() {
    assert_backends_agree(ModelKind::Tso, &library::all_tests());
}

#[test]
fn gam_backends_agree_on_the_whole_library() {
    assert_backends_agree(ModelKind::Gam, &library::all_tests());
}

#[test]
fn gam0_backends_agree_on_the_whole_library() {
    assert_backends_agree(ModelKind::Gam0, &library::all_tests());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn backends_agree_on_the_stress_corpus() -> Result<(), CorpusError> {
    let tests = Corpus::load("tests/corpus-stress")?.tests();
    for kind in MACHINE_MODELS {
        assert_backends_agree(kind, &tests);
    }
    Ok(())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn backends_agree_on_the_big_corpus() -> Result<(), CorpusError> {
    let tests = Corpus::load("tests/corpus-big")?.tests();
    for kind in MACHINE_MODELS {
        assert_backends_agree(kind, &tests);
    }
    Ok(())
}

#[test]
fn capability_gaps_are_uniform_across_the_trait() {
    for kind in MACHINE_MODELS {
        for checker in checkers_for(kind) {
            assert!(checker.supports(kind), "{}/{kind}", checker.name());
            assert_eq!(
                checker.supports(ModelKind::GamArm),
                checker.backend() == Backend::Axiomatic,
                "GAM-ARM is axiomatic-only"
            );
        }
    }
    // The engine surfaces the same gap as a typed build error.
    assert!(matches!(
        Engine::operational(ModelKind::GamArm),
        Err(EngineError::UnsupportedModel {
            backend: Backend::Operational,
            model: ModelKind::GamArm
        })
    ));
    assert!(Engine::axiomatic(ModelKind::GamArm).check(&library::dekker()).is_ok());
}

/// The `Outcomes` answer counts exactly the states the explorer visits:
/// the serve cache records this count as an entry's recomputation cost, so
/// routing a check through the trait must not change it.
#[test]
fn outcome_answers_count_the_explorers_states() {
    for kind in MACHINE_MODELS {
        let checker = OperationalChecker::new(kind);
        for test in library::all_tests() {
            let explored = checker.explore(&test).expect("explores").states_visited;
            let answer = run(&checker, &test, Query::Outcomes).expect("runs");
            assert_eq!(answer.states_visited, explored, "{kind}/{}", test.name());
        }
    }
}
