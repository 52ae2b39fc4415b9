//! Integration test: every litmus test that appears as a figure in the paper
//! gets exactly the verdict the paper states, under every model in the
//! catalogue, using the axiomatic checker. The classical tests are checked
//! against the expectation table as well, and the whole library through the
//! verdict matrix on both backends.

use gam::axiomatic::AxiomaticChecker;
use gam::core::{model, ModelKind};
use gam::engine::Backend;
use gam::isa::litmus::library;
use gam::verify::expectations;
use gam::verify::matrix::{diff_reports, run_matrix};

/// Checks one test against its expectation row under every model.
fn check_against_expectations(test: &gam::isa::litmus::LitmusTest) {
    let expectation = expectations::expectation_for(test.name())
        .unwrap_or_else(|| panic!("no expectation for `{}`", test.name()));
    for kind in ModelKind::ALL {
        let verdict = AxiomaticChecker::new(model::by_kind(kind))
            .check(test)
            .unwrap_or_else(|e| panic!("{}: {e}", test.name()));
        assert_eq!(
            verdict.is_allowed(),
            expectation.allowed(kind),
            "{} under {kind}: expected {}, got {verdict} ({})",
            test.name(),
            if expectation.allowed(kind) { "allowed" } else { "forbidden" },
            expectation.source,
        );
    }
}

#[test]
fn figure_2_dekker() {
    check_against_expectations(&library::dekker());
}

#[test]
fn figure_5_out_of_thin_air() {
    check_against_expectations(&library::oota());
}

#[test]
fn figure_8_store_forwarding() {
    check_against_expectations(&library::store_forwarding());
}

#[test]
fn figure_13a_mp_addr() {
    check_against_expectations(&library::mp_addr());
}

#[test]
fn figure_13b_mp_artificial_addr() {
    check_against_expectations(&library::mp_artificial_addr());
}

#[test]
fn figure_13c_dependency_via_memory() {
    check_against_expectations(&library::mp_mem_dep());
}

#[test]
fn figure_13d_mp_prefetch() {
    check_against_expectations(&library::mp_prefetch());
}

#[test]
fn figure_14a_corr() {
    check_against_expectations(&library::corr());
}

#[test]
fn figure_14b_intervening_store() {
    check_against_expectations(&library::corr_intervening_store());
}

#[test]
fn figure_14c_rsw() {
    check_against_expectations(&library::rsw());
}

#[test]
fn figure_14d_rnsw() {
    check_against_expectations(&library::rnsw());
}

#[test]
fn classical_tests_match_the_expectation_table() {
    for test in library::classic_tests() {
        check_against_expectations(&test);
    }
}

#[test]
fn the_full_matrix_matches_expectations() {
    // Every model on both backends: the verdicts must agree across backends
    // and match the expectation table, exactly as `gam run` diffs a corpus.
    let tests = library::all_tests();
    let reports = run_matrix(&tests, "library", &ModelKind::ALL, &Backend::ALL, 4, 1)
        .expect("every model has a backend");
    assert_eq!(reports.len(), 9, "five axiomatic and four operational suites");
    let mismatches = diff_reports(&tests, &ModelKind::ALL, &reports, |test, model| {
        expectations::expectation_for(test).map(|row| row.allowed(model))
    });
    let mismatches: Vec<String> = mismatches.iter().map(ToString::to_string).collect();
    assert!(mismatches.is_empty(), "mismatches: {mismatches:#?}");
}

#[test]
fn gam_sits_between_sc_and_gam0() {
    // Monotonicity across the whole library: everything SC allows, GAM allows;
    // everything GAM allows, GAM0 allows.
    for test in library::all_tests() {
        let sc = AxiomaticChecker::new(model::sc()).check(&test).unwrap();
        let gam = AxiomaticChecker::new(model::gam()).check(&test).unwrap();
        let gam0 = AxiomaticChecker::new(model::gam0()).check(&test).unwrap();
        if sc.is_allowed() {
            assert!(gam.is_allowed(), "{}: SC-allowed but GAM-forbidden", test.name());
        }
        if gam.is_allowed() {
            assert!(gam0.is_allowed(), "{}: GAM-allowed but GAM0-forbidden", test.name());
        }
    }
}
