//! Parallel exploration must be observationally identical to sequential
//! exploration: same outcome sets, same distinct-state counts, same
//! final-state counts — for every litmus test in the library under every
//! model with an abstract machine ({SC, TSO, GAM, GAM0}).
//!
//! This pins the correctness of the sharded frontier: races in deduplication
//! or lost frontier items would change `states_visited` or drop outcomes.

use gam_core::ModelKind;
use gam_isa::litmus::library;
use gam_operational::{ExplorerConfig, OperationalChecker};

fn assert_parallel_matches(kind: ModelKind, parallelism: usize) {
    let sequential = OperationalChecker::new(kind);
    // `parallel_threshold: 0` forces the sharded driver from the first
    // expansion — litmus-scale spaces would otherwise (correctly) finish in
    // the adaptive sequential phase and leave the parallel code unexercised.
    let parallel = OperationalChecker::with_config(
        kind,
        ExplorerConfig { parallelism, parallel_threshold: 0, ..ExplorerConfig::default() },
    );
    for test in library::all_tests() {
        let s = sequential.explore(&test).expect("sequential exploration succeeds");
        let p = parallel.explore(&test).expect("parallel exploration succeeds");
        assert_eq!(
            s.outcomes,
            p.outcomes,
            "{kind}/{}: outcome sets diverge with {parallelism} workers",
            test.name()
        );
        assert_eq!(
            s.states_visited,
            p.states_visited,
            "{kind}/{}: distinct-state counts diverge",
            test.name()
        );
        assert_eq!(
            s.final_states,
            p.final_states,
            "{kind}/{}: final-state counts diverge",
            test.name()
        );
        assert!(p.arena.is_none(), "{kind}/{}: a sharded run reports no arena", test.name());
    }
}

#[test]
fn sc_parallel_matches_sequential_on_the_full_library() {
    assert_parallel_matches(ModelKind::Sc, 4);
}

#[test]
fn tso_parallel_matches_sequential_on_the_full_library() {
    assert_parallel_matches(ModelKind::Tso, 4);
}

#[test]
fn gam_parallel_matches_sequential_on_the_full_library() {
    assert_parallel_matches(ModelKind::Gam, 4);
}

#[test]
fn gam0_parallel_matches_sequential_on_the_full_library() {
    assert_parallel_matches(ModelKind::Gam0, 4);
}

#[test]
fn oversubscribed_parallelism_matches_on_a_sample() {
    // More workers than frontier items at several points: exercises the
    // idle/termination path.
    let parallel = OperationalChecker::with_config(
        ModelKind::Gam,
        ExplorerConfig { parallelism: 16, parallel_threshold: 0, ..ExplorerConfig::default() },
    );
    let sequential = OperationalChecker::new(ModelKind::Gam);
    for test in [library::dekker(), library::corr(), library::iriw()] {
        let s = sequential.explore(&test).unwrap();
        let p = parallel.explore(&test).unwrap();
        assert_eq!(s.outcomes, p.outcomes, "{}", test.name());
        assert_eq!(s.states_visited, p.states_visited, "{}", test.name());
        assert_eq!(s.final_states, p.final_states, "{}", test.name());
    }
}

#[test]
fn mid_run_escalation_matches_on_the_full_library() {
    // Thresholds inside the litmus state spaces: every exploration starts
    // sequential (component-interned), migrates its visited set into the
    // shards mid-run, and finishes parallel.
    let sequential = OperationalChecker::new(ModelKind::Gam);
    for threshold in [1, 32] {
        let adaptive = OperationalChecker::with_config(
            ModelKind::Gam,
            ExplorerConfig {
                parallelism: 4,
                parallel_threshold: threshold,
                ..ExplorerConfig::default()
            },
        );
        for test in library::all_tests() {
            let s = sequential.explore(&test).unwrap();
            let p = adaptive.explore(&test).unwrap();
            assert_eq!(s.outcomes, p.outcomes, "{}/threshold {threshold}", test.name());
            assert_eq!(s.states_visited, p.states_visited, "{}/{threshold}", test.name());
            assert_eq!(s.final_states, p.final_states, "{}/{threshold}", test.name());
        }
    }
}

#[test]
fn adaptive_default_stays_sequential_on_litmus_scale_spaces() {
    // Under the default threshold the library never escalates: the result
    // is field-for-field the sequential exploration, including the
    // component-arena occupancy statistics.
    let sequential = OperationalChecker::new(ModelKind::Gam);
    let adaptive = OperationalChecker::with_config(
        ModelKind::Gam,
        ExplorerConfig { parallelism: 8, ..ExplorerConfig::default() },
    );
    for test in library::all_tests() {
        let s = sequential.explore(&test).unwrap();
        let p = adaptive.explore(&test).unwrap();
        assert_eq!(s, p, "{}", test.name());
        let occupancy = s.arena.expect("sequential explorations report occupancy");
        assert_eq!(occupancy.states, s.states_visited, "{}", test.name());
        assert!(
            occupancy.distinct_components() <= 1 + 2 * s.states_visited,
            "{}: at most one fresh proc + memory pair per state",
            test.name()
        );
    }
}
