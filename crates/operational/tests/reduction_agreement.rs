//! Reduced exploration must be observationally identical to unreduced
//! exploration: for every litmus test in the library, under every model with
//! an abstract machine ({SC, TSO, GAM, GAM0}), in both the sequential driver
//! and the sharded continuation, `Reduction::Sleep` and
//! `Reduction::SleepPlusCanon` must produce exactly the outcome set of
//! `Reduction::Off`.
//!
//! This is the correctness pin of the partial-order/symmetry reduction, the
//! same way `parallel_agreement.rs` pins the sharded frontier: a persistent
//! set that is not actually persistent, an unsound independence claim, a
//! sleep set kept across a dependent action, or a canonicalization that
//! merges semantically distinct states would all surface here as a missing
//! or extra outcome. A differential property test over randomly generated
//! dependent-address programs and a branchy hand-built program extend the
//! coverage beyond the library, and the early-exit `check`/`find_witness`
//! paths are asserted verdict-identical to full exploration.

use gam_core::ModelKind;
use gam_isa::litmus::{library, LitmusTest};
use gam_isa::prelude::*;
use gam_operational::{ExplorerConfig, OperationalChecker, Reduction};
use proptest::prelude::*;

const MACHINE_MODELS: [ModelKind; 4] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

fn checker(kind: ModelKind, reduction: Reduction, parallelism: usize) -> OperationalChecker {
    // `parallel_threshold: 0` pins the sharded drivers themselves — under
    // the adaptive default, litmus-scale spaces would finish in the
    // sequential phase and the parallel cases here would test nothing new.
    OperationalChecker::with_config(
        kind,
        ExplorerConfig {
            reduction,
            parallelism,
            parallel_threshold: 0,
            ..ExplorerConfig::default()
        },
    )
}

fn assert_reduction_agrees(kind: ModelKind, reduction: Reduction, parallelism: usize) {
    let baseline = OperationalChecker::new(kind);
    let reduced = checker(kind, reduction, parallelism);
    for test in library::all_tests() {
        let full = baseline.explore(&test).expect("unreduced exploration succeeds");
        let fast = reduced.explore(&test).expect("reduced exploration succeeds");
        assert_eq!(
            full.outcomes,
            fast.outcomes,
            "{kind}/{}: outcome sets diverge under {reduction} (parallelism {parallelism})",
            test.name()
        );
        assert!(
            fast.states_visited <= full.states_visited,
            "{kind}/{}: {reduction} visited more states ({} > {})",
            test.name(),
            fast.states_visited,
            full.states_visited
        );
    }
}

#[test]
fn sequential_sleep_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, Reduction::Sleep, 1);
    }
}

#[test]
fn sequential_sleep_canon_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, Reduction::SleepPlusCanon, 1);
    }
}

#[test]
fn parallel_sleep_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, Reduction::Sleep, 4);
    }
}

#[test]
fn parallel_sleep_canon_agrees_on_the_full_library() {
    for kind in MACHINE_MODELS {
        assert_reduction_agrees(kind, Reduction::SleepPlusCanon, 4);
    }
}

/// The acceptance bar of the reduction work: under GAM with
/// `SleepPlusCanon`, at least four library tests must shed half of their
/// states. Pinning the concrete tests keeps a silent regression of the
/// persistent sets or the chain compression from slipping through.
#[test]
fn gam_sleep_canon_halves_at_least_four_library_tests() {
    let baseline = OperationalChecker::new(ModelKind::Gam);
    let reduced = checker(ModelKind::Gam, Reduction::SleepPlusCanon, 1);
    let mut halved = Vec::new();
    for test in library::all_tests() {
        let full = baseline.explore(&test).unwrap();
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

/// Early-exit `is_allowed`/`find_witness` must answer exactly like the
/// exhaustive outcome-set scan, under every reduction mode.
#[test]
fn early_exit_verdicts_match_full_exploration() {
    for kind in MACHINE_MODELS {
        let baseline = OperationalChecker::new(kind);
        for reduction in Reduction::ALL {
            let fast = checker(kind, reduction, 1);
            for test in library::all_tests() {
                let outcomes = baseline.allowed_outcomes(&test).unwrap();
                let expected = outcomes.iter().any(|o| test.condition().matched_by(o));
                assert_eq!(
                    fast.is_allowed(&test).unwrap(),
                    expected,
                    "{kind}/{}: early-exit verdict diverges under {reduction}",
                    test.name()
                );
                match fast.find_witness(&test).unwrap() {
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
}

/// A branchy program (speculation, misprediction squashes, canonicalized
/// predictions) explored under every mode: branches exercise the non-eager
/// fetch path and the `SleepPlusCanon` prediction scrubbing.
#[test]
fn branchy_program_agrees_across_modes() {
    let a = Loc::new("a");
    let b = Loc::new("b");
    let mut p1 = ThreadProgram::builder(ProcId::new(0));
    p1.load(Reg::new(1), Addr::loc(a))
        .branch(BranchCond::Ne, Operand::reg(Reg::new(1)), Operand::imm(0), "skip")
        .store(Addr::loc(b), Operand::imm(1))
        .label("skip")
        .load(Reg::new(2), Addr::loc(b));
    let mut p2 = ThreadProgram::builder(ProcId::new(1));
    p2.store(Addr::loc(a), Operand::imm(1));
    let program = Program::new(vec![p1.build(), p2.build()]);
    let test = LitmusTest::builder("branchy-agreement", program)
        .observe_reg(ProcId::new(0), Reg::new(1))
        .observe_reg(ProcId::new(0), Reg::new(2))
        .observe_mem(b)
        .build();
    for kind in MACHINE_MODELS {
        let baseline = OperationalChecker::new(kind).explore(&test).unwrap();
        for reduction in [Reduction::Sleep, Reduction::SleepPlusCanon] {
            for parallelism in [1, 4] {
                let fast = checker(kind, reduction, parallelism).explore(&test).unwrap();
                assert_eq!(
                    baseline.outcomes, fast.outcomes,
                    "{kind}: branchy outcomes diverge under {reduction}/{parallelism}"
                );
            }
        }
    }
}

/// One randomly chosen straight-line instruction acting on two locations
/// (mirrors the generator differential-testing the axiomatic pipelines).
#[derive(Debug, Clone)]
enum Step {
    Store {
        loc: u8,
        value: u8,
    },
    /// Stores the *address* of a location, so register-indirect loads can
    /// chase it (exercises the footprint value-set analysis).
    StoreLoc {
        loc: u8,
        target: u8,
    },
    Load {
        loc: u8,
    },
    /// A load followed by a load through the first load's result — a real
    /// address dependency whose target address is only known dynamically.
    LoadDep {
        loc: u8,
    },
    Fence {
        kind: u8,
    },
}

fn dependent_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, 1u8..3).prop_map(|(loc, value)| Step::Store { loc, value }),
        (0u8..2, 0u8..2).prop_map(|(loc, target)| Step::StoreLoc { loc, target }),
        (0u8..2).prop_map(|loc| Step::Load { loc }),
        (0u8..2).prop_map(|loc| Step::LoadDep { loc }),
        (0u8..4).prop_map(|kind| Step::Fence { kind }),
    ]
}

fn build_test(threads: Vec<Vec<Step>>) -> LitmusTest {
    let locations = [Loc::new("px"), Loc::new("py")];
    let fences = [FenceKind::LL, FenceKind::LS, FenceKind::SL, FenceKind::SS];
    let mut programs = Vec::new();
    let mut observed = Vec::new();
    for (proc_index, steps) in threads.iter().enumerate() {
        let proc = ProcId::new(proc_index);
        let mut builder = ThreadProgram::builder(proc);
        let mut next_reg = 1u32;
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
        programs.push(builder.build());
    }
    let program = Program::new(programs);
    let mut builder = LitmusTest::builder("reduction-proptest", program)
        .observe_mem(locations[0])
        .observe_mem(locations[1]);
    for (proc, reg) in observed {
        builder = builder.observe_reg(proc, reg);
    }
    builder.build()
}

fn two_dependent_threads() -> impl Strategy<Value = LitmusTest> {
    (
        proptest::collection::vec(dependent_step(), 1..4),
        proptest::collection::vec(dependent_step(), 1..4),
    )
        .prop_map(|(a, b)| build_test(vec![a, b]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Differential property: on random dependent-address programs the
    /// reduced explorations (sequential and parallel) agree with the
    /// unreduced baseline for every machine model.
    #[test]
    fn random_programs_agree_across_modes(test in two_dependent_threads()) {
        for kind in MACHINE_MODELS {
            let baseline = OperationalChecker::new(kind).explore(&test).unwrap();
            for reduction in [Reduction::Sleep, Reduction::SleepPlusCanon] {
                let fast = checker(kind, reduction, 1).explore(&test).unwrap();
                prop_assert_eq!(
                    &baseline.outcomes, &fast.outcomes,
                    "{}/{}: sequential reduced outcomes diverge", kind, reduction
                );
                prop_assert!(fast.states_visited <= baseline.states_visited);
                let parallel = checker(kind, reduction, 4).explore(&test).unwrap();
                prop_assert_eq!(
                    &baseline.outcomes, &parallel.outcomes,
                    "{}/{}: parallel reduced outcomes diverge", kind, reduction
                );
            }
        }
    }
}
