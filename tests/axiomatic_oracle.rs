//! The axiomatic checker against `gam_axiomatic::oracle`, a brute-force
//! reading of the paper's two axioms that tries every total memory order
//! and shares none of the checker's search code (only `gam_core`'s
//! preserved program order). Their outcome sets must be identical on every
//! library test under all five models, and on every program of
//! `tests/corpus-stress` with at most [`MAX_EVENTS`] memory events under
//! SC, TSO, GAM and GAM0.
//!
//! The stress half is a release test: 168 programs of up to 40,320 orders
//! each under four models take seconds in a release build and minutes in a
//! debug one.

use gam_axiomatic::{oracle, AxiomaticChecker};
use gam_core::{model, ModelKind, ModelSpec};
use gam_frontend::{Corpus, CorpusError};
use gam_isa::litmus::{library, LitmusTest};

/// The largest program the oracle is run on: 8 memory events are 8! =
/// 40,320 orders.
const MAX_EVENTS: usize = 8;

/// Every (test, model) pair whose checker and oracle outcome sets differ.
fn disagreements(tests: &[LitmusTest], models: &[ModelSpec]) -> Vec<String> {
    let mut diverged = Vec::new();
    for spec in models {
        for test in tests {
            let checked = AxiomaticChecker::new(spec.clone())
                .allowed_outcomes(test)
                .unwrap_or_else(|err| panic!("{}/{}: {err}", test.name(), spec.name()));
            let brute = oracle::allowed_outcomes(test, spec);
            if checked != brute {
                diverged.push(format!(
                    "{}/{}: checker {} outcomes, oracle {}; only the checker: {:?}; only the oracle: {:?}",
                    test.name(),
                    spec.name(),
                    checked.len(),
                    brute.len(),
                    checked.difference(&brute).collect::<Vec<_>>(),
                    brute.difference(&checked).collect::<Vec<_>>()
                ));
            }
        }
    }
    diverged
}

#[test]
fn the_checker_agrees_with_the_oracle_on_the_library() {
    let tests = library::all_tests();
    assert!(tests.iter().all(|test| test.program().memory_instruction_count() <= MAX_EVENTS));
    let diverged = disagreements(&tests, &model::all());
    assert!(diverged.is_empty(), "outcome sets diverge:\n{}", diverged.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn the_checker_agrees_with_the_oracle_on_small_stress_programs() -> Result<(), CorpusError> {
    let (small, large): (Vec<LitmusTest>, Vec<LitmusTest>) = Corpus::load("tests/corpus-stress")?
        .tests()
        .into_iter()
        .partition(|test| test.program().memory_instruction_count() <= MAX_EVENTS);
    println!(
        "oracle: {} stress programs with at most {MAX_EVENTS} memory events; {} larger ones skipped",
        small.len(),
        large.len()
    );
    assert!(!small.is_empty(), "the stress corpus has small programs");
    let models: Vec<ModelSpec> =
        [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0].map(model::by_kind).into();
    let diverged = disagreements(&small, &models);
    assert!(diverged.is_empty(), "outcome sets diverge:\n{}", diverged.join("\n"));
    Ok(())
}
