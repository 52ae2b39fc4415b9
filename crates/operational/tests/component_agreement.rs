//! Component-interned exploration must be observationally identical to the
//! plain full-state reference oracle.
//!
//! The explorer's driver stores visited states as rows of hash-consed
//! component ids (`ComponentArena`), deduplicates successors through
//! label-derived touched-component masks, and reuses pooled successor
//! buffers. Any bug in that machinery — a stale component id, an action
//! label under-reporting what its rule touches, a sparse successor leaking
//! into a consumer that reads untouched components, a `clone_from` that
//! leaves stale buffer content behind — would make the component-interned
//! exploration diverge from plain full-state interning. This suite pins the
//! two against each other: the full litmus library and randomly generated
//! *branchy* programs (speculation, mispredictions, squash-and-refetch),
//! under every machine model and every `Reduction` — so the unreduced
//! search, which runs through the same driver as the reduced ones, is
//! covered alongside `Sleep` and `SleepPlusCanon`.
//!
//! The driver and the oracle are deterministic and run the same search, so
//! the pin is exact: not just outcome sets but `states_visited`,
//! `final_states` and `transitions_pruned` must match the oracle.

use gam_core::ModelKind;
use gam_isa::litmus::{library, LitmusTest};
use gam_isa::prelude::*;
use gam_operational::{ExplorerConfig, OperationalChecker, Reduction};
use proptest::prelude::*;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

fn checker(kind: ModelKind, reduction: Reduction) -> OperationalChecker {
    OperationalChecker::with_config(kind, ExplorerConfig { reduction, ..ExplorerConfig::default() })
}

fn assert_composed_matches_reference(kind: ModelKind, reduction: Reduction, test: &LitmusTest) {
    let checker = checker(kind, reduction);
    let reference = checker.explore_reference(test).expect("reference exploration succeeds");
    let composed = checker.explore(test).expect("composed exploration succeeds");
    assert_eq!(
        reference.outcomes,
        composed.outcomes,
        "{kind}/{}/{reduction}: outcome sets diverge",
        test.name()
    );
    assert_eq!(
        reference.states_visited,
        composed.states_visited,
        "{kind}/{}/{reduction}: distinct-state counts diverge",
        test.name()
    );
    assert_eq!(
        reference.final_states,
        composed.final_states,
        "{kind}/{}/{reduction}: final-state counts diverge",
        test.name()
    );
    assert_eq!(
        reference.transitions_pruned,
        composed.transitions_pruned,
        "{kind}/{}/{reduction}: prune counts diverge",
        test.name()
    );
    // The oracle stores full states; the driver must report its sharing
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
        for reduction in Reduction::ALL {
            for test in library::all_tests() {
                assert_composed_matches_reference(kind, reduction, &test);
            }
        }
    }
}

/// One randomly chosen instruction for the branchy generator.
#[derive(Debug, Clone)]
enum Step {
    Store {
        loc: u8,
        value: u8,
    },
    /// Stores the *address* of a location so register-indirect loads can
    /// chase it (exercises the footprint value-set analysis).
    StoreLoc {
        loc: u8,
        target: u8,
    },
    Load {
        loc: u8,
    },
    /// A load followed by a load through the first load's result — a real
    /// address dependency resolved only dynamically.
    LoadDep {
        loc: u8,
    },
    Fence {
        kind: u8,
    },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, 1u8..3).prop_map(|(loc, value)| Step::Store { loc, value }),
        (0u8..2, 0u8..2).prop_map(|(loc, target)| Step::StoreLoc { loc, target }),
        (0u8..2).prop_map(|loc| Step::Load { loc }),
        (0u8..2).prop_map(|loc| Step::LoadDep { loc }),
        (0u8..4).prop_map(|kind| Step::Fence { kind }),
    ]
}

/// A thread: its straight-line steps, optionally guarded by a leading
/// `load; branch-if-nonzero-to-end` pair — real speculation: the branchy
/// threads fetch non-eagerly, predict both targets and squash on
/// misprediction, which is exactly the machinery the component masks must
/// get right (a squash rewrites a whole proc component).
fn build_test(threads: Vec<(bool, Vec<Step>)>) -> LitmusTest {
    let locations = [Loc::new("px"), Loc::new("py")];
    let fences = [FenceKind::LL, FenceKind::LS, FenceKind::SL, FenceKind::SS];
    let mut programs = Vec::new();
    let mut observed = Vec::new();
    for (proc_index, (branchy, steps)) in threads.iter().enumerate() {
        let proc = ProcId::new(proc_index);
        let mut builder = ThreadProgram::builder(proc);
        let mut next_reg = 1u32;
        if *branchy {
            let guard = Reg::new(next_reg);
            next_reg += 1;
            builder.load(guard, Addr::loc(locations[0]));
            builder.branch(BranchCond::Ne, Operand::reg(guard), Operand::imm(0), "end");
            observed.push((proc, guard));
        }
        for step in steps {
            match step {
                Step::Store { loc, value } => {
                    builder.store(
                        Addr::loc(locations[*loc as usize]),
                        Operand::imm(u64::from(*value)),
                    );
                }
                Step::StoreLoc { loc, target } => {
                    builder.store(
                        Addr::loc(locations[*loc as usize]),
                        Operand::loc(locations[*target as usize]),
                    );
                }
                Step::Load { loc } => {
                    let reg = Reg::new(next_reg);
                    next_reg += 1;
                    builder.load(reg, Addr::loc(locations[*loc as usize]));
                    observed.push((proc, reg));
                }
                Step::LoadDep { loc } => {
                    let pointer = Reg::new(next_reg);
                    let value = Reg::new(next_reg + 1);
                    next_reg += 2;
                    builder.load(pointer, Addr::loc(locations[*loc as usize]));
                    builder.load(value, Addr::reg(pointer));
                    observed.push((proc, pointer));
                    observed.push((proc, value));
                }
                Step::Fence { kind } => {
                    builder.fence(fences[*kind as usize]);
                }
            }
        }
        if *branchy {
            builder.label("end");
        }
        programs.push(builder.build());
    }
    let program = Program::new(programs);
    let mut builder = LitmusTest::builder("component-proptest", program)
        .observe_mem(locations[0])
        .observe_mem(locations[1]);
    for (proc, reg) in observed {
        builder = builder.observe_reg(proc, reg);
    }
    builder.build()
}

fn two_threads_possibly_branchy() -> impl Strategy<Value = LitmusTest> {
    (
        (any::<bool>(), proptest::collection::vec(step(), 1..4)),
        (any::<bool>(), proptest::collection::vec(step(), 1..3)),
    )
        .prop_map(|(a, b)| build_test(vec![a, b]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property: on random branchy programs the
    /// component-interned exploration matches the plain-state oracle
    /// exactly, for every machine model and every reduction.
    #[test]
    fn random_branchy_programs_match_the_reference(test in two_threads_possibly_branchy()) {
        for kind in MACHINE_MODELS {
            for reduction in Reduction::ALL {
                assert_composed_matches_reference(kind, reduction, &test);
            }
        }
    }
}
