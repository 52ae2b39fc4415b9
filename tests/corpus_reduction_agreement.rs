//! The default explorer (the sleep-set reduction) against the unreduced
//! search, beyond the library: every program of `tests/corpus-stress` and
//! `tests/corpus-big`, under every model with an abstract machine ({SC,
//! TSO, GAM, GAM0}), must give exactly the outcome set of
//! `Reduction::Off`. These are the programs `gam run`, `check`, `bench`
//! and `serve` explore by default; `reduction_agreement.rs` pins the
//! library and random programs.
//!
//! A release test: the unreduced side explores about a million states, so
//! a debug build skips it.

use std::path::PathBuf;

use gam_core::ModelKind;
use gam_frontend::parse_litmus;
use gam_isa::litmus::LitmusTest;
use gam_operational::{ExplorerConfig, OperationalChecker, Reduction};

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

fn assert_default_agrees_with_off(dir: &str) {
    let tests = corpus(dir);
    assert!(!tests.is_empty(), "{dir} holds litmus tests");
    assert_eq!(ExplorerConfig::default().reduction, Reduction::Sleep, "the default is reduced");
    let mut diverged = Vec::new();
    for kind in MACHINE_MODELS {
        let off = OperationalChecker::with_config(
            kind,
            ExplorerConfig { reduction: Reduction::Off, ..ExplorerConfig::default() },
        );
        let default = OperationalChecker::new(kind);
        for test in &tests {
            let full = off.explore(test).expect("unreduced exploration succeeds");
            let reduced = default.explore(test).expect("default exploration succeeds");
            if full.outcomes != reduced.outcomes {
                diverged.push(format!(
                    "{}/{kind}: {} outcomes unreduced, {} by default",
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
fn the_default_explorer_agrees_with_off_on_the_stress_corpus() {
    assert_default_agrees_with_off("tests/corpus-stress");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: run with --release")]
fn the_default_explorer_agrees_with_off_on_the_big_corpus() {
    assert_default_agrees_with_off("tests/corpus-big");
}
