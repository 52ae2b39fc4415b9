//! The explorer (the sleep-set reduction) against the unreduced reference
//! search, beyond the library: every program of `tests/corpus-stress` and
//! `tests/corpus-big`, under every model with an abstract machine ({SC,
//! TSO, GAM, GAM0}), must give exactly the outcome set of
//! `OperationalChecker::explore_reference`, which visits every
//! interleaving and shares no code with the explorer. These are the
//! programs `gam run`, `check` and `serve` explore;
//! `reduction_agreement.rs` pins the library and random programs.
//!
//! A release test: the unreduced side explores about a million states, so
//! a debug build skips it.

use gam_core::ModelKind;
use gam_frontend::{Corpus, CorpusError};
use gam_isa::litmus::LitmusTest;
use gam_operational::OperationalChecker;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

fn assert_explorer_agrees_with_the_oracle(tests: &[LitmusTest]) {
    let mut diverged = Vec::new();
    for kind in MACHINE_MODELS {
        let checker = OperationalChecker::new(kind);
        for test in tests {
            let full = checker.explore_reference(test).expect("the oracle explores");
            let reduced = checker.explore(test).expect("the explorer explores");
            if full.outcomes != reduced.outcomes {
                diverged.push(format!(
                    "{}/{kind}: {} outcomes unreduced, {} reduced",
                    test.name(),
                    full.outcomes.len(),
                    reduced.outcomes.len()
                ));
            }
        }
    }
    assert!(diverged.is_empty(), "outcome sets diverge:\n{}", diverged.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn the_explorer_agrees_with_the_oracle_on_the_stress_corpus() -> Result<(), CorpusError> {
    assert_explorer_agrees_with_the_oracle(&Corpus::load("tests/corpus-stress")?.tests());
    Ok(())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn the_explorer_agrees_with_the_oracle_on_the_big_corpus() -> Result<(), CorpusError> {
    assert_explorer_agrees_with_the_oracle(&Corpus::load("tests/corpus-big")?.tests());
    Ok(())
}
