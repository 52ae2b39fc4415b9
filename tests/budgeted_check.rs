//! Budgeted checking at corpus-stress scale.
//!
//! The stress corpus (`tests/corpus-stress`) holds the machine-generated
//! tests whose state spaces are big enough that an unbudgeted exploration
//! takes real wall time — exactly the situation the session API's wall
//! budget exists for. These tests pin the contract: a wall-budgeted check
//! of a heavy test comes back `Inconclusive` with partial outcomes, those
//! partial outcomes are a sound under-approximation of the full outcome
//! set, and the blocking API's verdict is unaffected.
//!
//! No test here races a deadline against the machine's speed: the
//! interrupted check expires its deadline through the
//! `interrupt.deadline` fault point at a fixed poll, so it stops at the
//! same state on every run, idle or loaded. Both tests hold the fault
//! guard, since every poll of a wall budget counts as a hit of that point.

use std::time::Duration;

use gam_core::{fault, ModelKind};
use gam_engine::{Backend, CheckBudget, Engine, SessionVerdict};
use gam_frontend::parse_litmus;
use gam_isa::litmus::LitmusTest;
use gam_operational::OperationalChecker;

/// The heaviest test of the stress corpus: its exploration runs far past
/// the explorer's second interrupt poll (after 256 expansions), and it
/// has reached final states by then.
fn heavy_stress_test() -> LitmusTest {
    let text = std::fs::read_to_string("tests/corpus-stress/stress-133.litmus")
        .expect("stress corpus is checked in");
    parse_litmus(&text).expect("stress test parses")
}

#[test]
fn wall_budget_on_a_stress_test_is_inconclusive_with_partial_outcomes() {
    let _guard = fault::exclusive();
    let test = heavy_stress_test();
    let engine = Engine::operational(ModelKind::Gam).expect("operational engine");
    // The deadline is an hour away, so no run reaches it in wall time. The
    // fault expires it at the explorer's second poll instead: past the
    // first final states, long before the search ends.
    let budget = CheckBudget::none().with_max_wall(Duration::from_secs(3600));
    fault::install("interrupt.deadline=kill@2").expect("valid fault spec");
    let outcome = engine.check_budgeted(&test, &budget);
    fault::reset();
    let outcome = outcome.expect("budgeted check runs");

    let SessionVerdict::Inconclusive { partial_outcomes, states_visited, reason } = outcome.verdict
    else {
        panic!("an expired deadline must interrupt this exploration, got {}", outcome.verdict);
    };
    assert!(reason.to_string().contains("wall budget"), "reason: {reason}");
    assert!(states_visited > 0, "the exploration must have started");
    assert!(!partial_outcomes.is_empty(), "partial outcomes must be reported");

    // Soundness: every partial outcome is in the full outcome set — budget
    // exhaustion under-approximates, it never invents behaviors.
    let full = OperationalChecker::new(ModelKind::Gam)
        .explore(&test)
        .expect("unbudgeted exploration")
        .outcomes;
    for outcome in &partial_outcomes {
        assert!(full.contains(outcome), "partial outcome {outcome:?} not in the full set");
    }
}

#[test]
fn generous_budget_matches_the_blocking_api_on_stress_tests() {
    let _guard = fault::exclusive();
    let test = heavy_stress_test();
    for backend in Backend::ALL {
        let engine =
            Engine::builder().model(ModelKind::Gam).backend(backend).build().expect("engine");
        let blocking = engine.check(&test).expect("blocking verdict");
        let budget = CheckBudget::none().with_max_wall(Duration::from_secs(600));
        let budgeted = engine.check_budgeted(&test, &budget).expect("budgeted check");
        assert_eq!(
            budgeted.verdict.as_verdict(),
            Some(blocking),
            "budgeted and blocking verdicts must agree on {backend}"
        );
    }
}
