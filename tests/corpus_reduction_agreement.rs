//! The explorer (the sleep-set reduction) against the unreduced reference
//! search, beyond the library: every program of `tests/corpus-stress` and
//! `tests/corpus-big`, under every model with an abstract machine ({SC,
//! TSO, GAM, GAM0}), must give exactly the outcome set of
//! `OperationalChecker::explore_reference`, which visits every
//! interleaving and shares no code with the explorer. These are the
//! programs `gam run`, `check`, `bench` and `serve` explore;
//! `reduction_agreement.rs` pins the library and random programs.
//!
//! A release test: the unreduced side explores about a million states, so
//! a debug build skips it.

use std::path::PathBuf;

use gam_core::ModelKind;
use gam_frontend::parse_litmus;
use gam_isa::litmus::LitmusTest;
use gam_operational::OperationalChecker;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

/// Every litmus file of a checked-in corpus, in name order.
fn corpus(dir: &str) -> Vec<LitmusTest> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|err| panic!("{dir} is checked in: {err}"))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "litmus"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable");
            parse_litmus(&text).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
        })
        .collect()
}

fn assert_explorer_agrees_with_the_oracle(dir: &str) {
    let tests = corpus(dir);
    assert!(!tests.is_empty(), "{dir} holds litmus tests");
    let mut diverged = Vec::new();
    for kind in MACHINE_MODELS {
        let checker = OperationalChecker::new(kind);
        for test in &tests {
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
fn the_explorer_agrees_with_the_oracle_on_the_stress_corpus() {
    assert_explorer_agrees_with_the_oracle("tests/corpus-stress");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn the_explorer_agrees_with_the_oracle_on_the_big_corpus() {
    assert_explorer_agrees_with_the_oracle("tests/corpus-big");
}
