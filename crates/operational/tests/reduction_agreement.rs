//! Reduced exploration must be observationally identical to unreduced
//! exploration: for every litmus test in the library, under every model with
//! an abstract machine ({SC, TSO, GAM, GAM0}), in both the sequential driver
//! and the sharded continuation, the explorer must produce exactly the
//! outcome set of the unreduced reference search
//! (`OperationalChecker::explore_reference`, which shares no code with the
//! explorer).
//!
//! This is the correctness pin of the partial-order reduction, the same way
//! `parallel_agreement.rs` pins the sharded frontier: a persistent set that
//! is not actually persistent, an unsound independence claim, or a sleep
//! set kept across a dependent action would all surface here as a missing
//! or extra outcome. A differential property test over randomly generated
//! dependent-address programs and a branchy hand-built program extend the
//! coverage beyond the library, and the early-exit `check`/`find_witness`
//! paths are asserted verdict-identical to full exploration.

use gam_core::ModelKind;
use gam_isa::litmus::space::{self, Step};
use gam_isa::litmus::{library, LitmusTest};
use gam_isa::prelude::*;
use gam_operational::{ExplorerConfig, OperationalChecker};
use proptest::prelude::*;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

fn checker(kind: ModelKind, parallelism: usize) -> OperationalChecker {
    // `parallel_threshold: 0` pins the sharded drivers themselves — under
    // the adaptive default, litmus-scale spaces would finish in the
    // sequential phase and the parallel cases here would test nothing new.
    OperationalChecker::with_config(
        kind,
        ExplorerConfig { parallelism, parallel_threshold: 0, ..ExplorerConfig::default() },
    )
}

/// The unreduced reference search of `test` under `kind`.
fn oracle(kind: ModelKind, test: &LitmusTest) -> gam_operational::Exploration {
    OperationalChecker::new(kind).explore_reference(test).expect("the oracle explores")
}

fn assert_reduction_agrees(kind: ModelKind, parallelism: usize) {
    let reduced = checker(kind, parallelism);
    for test in library::all_tests() {
        let full = oracle(kind, &test);
        let fast = reduced.explore(&test).expect("reduced exploration succeeds");
        assert_eq!(
            full.outcomes,
            fast.outcomes,
            "{kind}/{}: outcome sets diverge (parallelism {parallelism})",
            test.name()
        );
        assert!(
            fast.states_visited <= full.states_visited,
            "{kind}/{}: the reduced search visited more states ({} > {})",
            test.name(),
            fast.states_visited,
            full.states_visited
        );
    }
}

#[test]
fn sequential_sleep_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, 1);
    }
}

#[test]
fn parallel_sleep_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, 4);
    }
}

/// The acceptance bar of the reduction work: under GAM, at least four
/// library tests must shed half of their states. Pinning the concrete tests
/// keeps a silent regression of the persistent sets or the chain
/// compression from slipping through.
#[test]
fn gam_sleep_halves_at_least_four_library_tests() {
    let reduced = checker(ModelKind::Gam, 1);
    let mut halved = Vec::new();
    for test in library::all_tests() {
        let full = oracle(ModelKind::Gam, &test);
        let fast = reduced.explore(&test).unwrap();
        if fast.states_visited * 2 <= full.states_visited {
            halved.push(test.name().to_string());
        }
    }
    assert!(halved.len() >= 4, "expected >= 4 GAM tests with a 2x state reduction, got {halved:?}");
    for pinned in ["mp+mem-dep", "wrc", "iriw+fence-ll", "rnsw"] {
        assert!(
            halved.iter().any(|name| name == pinned),
            "{pinned} regressed below 2x: {halved:?}"
        );
    }
}

/// Early-exit `is_allowed`/`find_witness` must answer exactly like a scan
/// of the unreduced outcome set.
#[test]
fn early_exit_verdicts_match_full_exploration() {
    for kind in MACHINE_MODELS {
        let fast = checker(kind, 1);
        for test in library::all_tests() {
            let outcomes = oracle(kind, &test).outcomes;
            let expected = outcomes.iter().any(|o| test.condition().matched_by(o));
            assert_eq!(
                fast.is_allowed(&test).unwrap(),
                expected,
                "{kind}/{}: early-exit verdict diverges",
                test.name()
            );
            match fast.find_witness(&test).unwrap().1 {
                Some(witness) => {
                    assert!(expected, "{kind}/{}: spurious witness", test.name());
                    assert!(
                        test.condition().matched_by(&witness),
                        "{kind}/{}: witness does not match the condition",
                        test.name()
                    );
                    assert!(
                        outcomes.contains(&witness),
                        "{kind}/{}: witness is not a reachable outcome",
                        test.name()
                    );
                }
                None => assert!(!expected, "{kind}/{}: witness missed", test.name()),
            }
        }
    }
}

/// A branchy program (speculation, misprediction squashes), sequential and
/// sharded: branches exercise the non-eager fetch path.
#[test]
fn branchy_program_agrees_across_modes() {
    let test = space::build(&[
        vec![
            Step::Load(0),
            Step::Branch { cond: BranchCond::Ne, over: 1 },
            Step::Store { loc: 1, value: 1 },
            Step::Load(1),
        ],
        vec![Step::Store { loc: 0, value: 1 }],
    ]);
    for kind in MACHINE_MODELS {
        let baseline = oracle(kind, &test);
        for parallelism in [1, 4] {
            let fast = checker(kind, parallelism).explore(&test).unwrap();
            assert_eq!(
                baseline.outcomes, fast.outcomes,
                "{kind}: branchy outcomes diverge (parallelism {parallelism})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Differential property: on random dependent-address programs the
    /// reduced explorations (sequential and parallel) agree with the
    /// unreduced oracle for every machine model.
    #[test]
    fn random_programs_agree_across_modes(seed in any::<u64>()) {
        let test = space::build(&space::DEPENDENT.sample(seed));
        for kind in MACHINE_MODELS {
            let baseline = oracle(kind, &test);
            let fast = checker(kind, 1).explore(&test).unwrap();
            prop_assert_eq!(
                &baseline.outcomes, &fast.outcomes,
                "{}: sequential reduced outcomes diverge", kind
            );
            prop_assert!(fast.states_visited <= baseline.states_visited);
            let parallel = checker(kind, 4).explore(&test).unwrap();
            prop_assert_eq!(
                &baseline.outcomes, &parallel.outcomes,
                "{}: parallel reduced outcomes diverge", kind
            );
        }
    }
}
