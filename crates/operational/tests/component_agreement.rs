//! Component-interned exploration must be observationally identical to the
//! plain full-state reference search.
//!
//! The explorer stores visited states as rows of hash-consed component ids
//! (`ComponentArena`), deduplicates successors through label-derived
//! touched-component masks, and reuses pooled successor buffers. Any bug
//! in that machinery — a stale component id, an action label
//! under-reporting what its rule touches, a sparse successor leaking into
//! a consumer that reads untouched components, a `clone_from` that leaves
//! stale buffer content behind — would make the explorer's outcome set
//! diverge from the unreduced full-state oracle
//! (`OperationalChecker::explore_reference`). This suite pins the two
//! against each other on the full litmus library and on randomly generated
//! *branchy* programs (speculation, mispredictions, squash-and-refetch),
//! under every machine model.
//!
//! The oracle visits every interleaving, so only outcome sets compare; the
//! arena's interning itself is checked step by step against full-state
//! interning by the unit tests in `arena.rs`.

use gam_core::ModelKind;
use gam_isa::litmus::space::{self, Step};
use gam_isa::litmus::{library, LitmusTest};
use gam_isa::prelude::*;
use gam_operational::OperationalChecker;
use proptest::prelude::*;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

fn assert_composed_matches_reference(kind: ModelKind, test: &LitmusTest) {
    let checker = OperationalChecker::new(kind);
    let reference = checker.explore_reference(test).expect("reference exploration succeeds");
    let composed = checker.explore(test).expect("composed exploration succeeds");
    assert_eq!(
        reference.outcomes,
        composed.outcomes,
        "{kind}/{}: outcome sets diverge",
        test.name()
    );
    // The oracle stores full states; the explorer must report its sharing
    // statistics, and they must be internally consistent.
    assert!(reference.arena.is_none(), "the reference path does no component interning");
    let occupancy = composed.arena.expect("composed explorations report arena occupancy");
    assert_eq!(occupancy.states, composed.states_visited);
    assert!(
        occupancy.distinct_memories <= occupancy.states.max(1),
        "{kind}/{}: more memories than states",
        test.name()
    );
    assert!(occupancy.interned_bytes > 0);
}

#[test]
fn composed_matches_reference_on_the_full_library() {
    for kind in MACHINE_MODELS {
        for test in library::all_tests() {
            assert_composed_matches_reference(kind, &test);
        }
    }
}

/// A program of [`space::DEPENDENT`] whose threads, where `guards` says
/// so, start with a `load; branch-if-nonzero-to-end` guard — real
/// speculation: the branchy threads fetch non-eagerly, predict both targets
/// and squash on misprediction, which is exactly the machinery the
/// component masks must get right (a squash rewrites a whole proc
/// component).
fn possibly_branchy(seed: u64, guards: [bool; 2]) -> LitmusTest {
    let guard = [Step::Load(0), Step::Branch { cond: BranchCond::Ne, over: u8::MAX }];
    let threads: Vec<Vec<Step>> = space::DEPENDENT
        .sample(seed)
        .into_iter()
        .zip(guards)
        .map(|(steps, guarded)| if guarded { [&guard[..], &steps].concat() } else { steps })
        .collect();
    space::build(&threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property: on random branchy programs the
    /// component-interned exploration finds the plain-state oracle's
    /// outcome set, for every machine model.
    #[test]
    fn random_branchy_programs_match_the_reference(
        seed in any::<u64>(),
        first in any::<bool>(),
        second in any::<bool>(),
    ) {
        let test = possibly_branchy(seed, [first, second]);
        for kind in MACHINE_MODELS {
            assert_composed_matches_reference(kind, &test);
        }
    }
}
