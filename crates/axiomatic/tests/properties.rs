//! Property-based tests of the axiomatic checker on randomly generated
//! branch-free litmus tests: model-strength inclusion, witness soundness,
//! basic sanity of the outcome sets, and differential equivalence of the
//! checker against `gam_axiomatic::oracle`, a brute-force reading of the
//! axioms that shares none of the checker's search code.

use gam_axiomatic::{oracle, AxiomaticChecker};
use gam_core::model;
use gam_isa::litmus::LitmusTest;
use gam_isa::prelude::*;
use proptest::prelude::*;

/// One randomly chosen straight-line instruction acting on two locations.
#[derive(Debug, Clone)]
enum Step {
    Store {
        loc: u8,
        value: u8,
    },
    /// Stores the *address* of a location, so register-indirect loads can
    /// chase it (exercises the value-set address analysis).
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
    /// A store, a load of the same location that may forward from it, and
    /// a load of the other location that depends on the forwarded value
    /// (artificially, as in `corr+intervening-store`).
    ForwardDep {
        loc: u8,
        value: u8,
    },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, 1u8..3).prop_map(|(loc, value)| Step::Store { loc, value }),
        (0u8..2).prop_map(|loc| Step::Load { loc }),
        (0u8..4).prop_map(|kind| Step::Fence { kind }),
    ]
}

/// Like [`step`], additionally generating address-storing stores and
/// dependent loads.
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
                Step::ForwardDep { loc, value } => {
                    let forwarded = Reg::new(next_reg);
                    let address = Reg::new(next_reg + 1);
                    let dependent = Reg::new(next_reg + 2);
                    next_reg += 3;
                    let location = locations[*loc as usize];
                    builder
                        .store(Addr::loc(location), Operand::imm(u64::from(*value)))
                        .load(forwarded, Addr::loc(location))
                        .artificial_addr_dep(address, locations[1 - *loc as usize], forwarded)
                        .load(dependent, Addr::reg(address));
                    observed.push((proc, forwarded));
                    observed.push((proc, dependent));
                }
            }
        }
        programs.push(builder.build());
    }
    let program = Program::new(programs);
    let mut builder = LitmusTest::builder("proptest", program)
        .observe_mem(locations[0])
        .observe_mem(locations[1]);
    for (proc, reg) in observed {
        builder = builder.observe_reg(proc, reg);
    }
    builder.build()
}

fn two_threads() -> impl Strategy<Value = LitmusTest> {
    (proptest::collection::vec(step(), 1..4), proptest::collection::vec(step(), 1..4))
        .prop_map(|(a, b)| build_test(vec![a, b]))
}

/// Small programs (the oracle is exponential) with dependent addresses
/// mixed in.
fn two_small_dependent_threads() -> impl Strategy<Value = LitmusTest> {
    (
        proptest::collection::vec(dependent_step(), 1..3),
        proptest::collection::vec(dependent_step(), 1..3),
    )
        .prop_map(|(a, b)| build_test(vec![a, b]))
}

/// The most memory events a three-thread program gets: 8! = 40,320 orders
/// for the oracle.
const THREE_THREAD_MAX_EVENTS: usize = 8;

/// Three threads (the shapes of WRC and its relatives) with dependent
/// addresses mixed in, cut to at most [`THREE_THREAD_MAX_EVENTS`] memory
/// events: each thread keeps its steps while they fit.
fn three_small_dependent_threads() -> impl Strategy<Value = LitmusTest> {
    let thread = || proptest::collection::vec(dependent_step(), 1..4);
    (thread(), thread(), thread()).prop_map(|(a, b, c)| {
        let mut room = THREE_THREAD_MAX_EVENTS;
        let threads = [a, b, c].map(|steps| {
            let fits = |step: &Step| {
                let events = match step {
                    Step::Fence { .. } => 0,
                    Step::LoadDep { .. } => 2,
                    _ => 1,
                };
                room.checked_sub(events).map(|left| room = left).is_some()
            };
            steps.into_iter().take_while(fits).collect()
        });
        build_test(threads.into())
    })
}

/// Two threads aimed at local store forwarding. One thread ends in a
/// [`Step::ForwardDep`] on a location; the other writes the other location,
/// then (after a random fence) the first. The final value of the first
/// location then orders the two threads' stores to it, so only forwarding
/// lets the dependent load read the other location's initial value.
fn forwarding_threads() -> impl Strategy<Value = LitmusTest> {
    (
        0u8..2,
        1u8..3,
        0u8..4,
        proptest::collection::vec(step(), 0..2),
        proptest::collection::vec(step(), 0..2),
    )
        .prop_map(|(loc, value, fence, prefix, suffix)| {
            let mut forwarder = prefix;
            forwarder.push(Step::ForwardDep { loc, value });
            let mut writer = vec![
                Step::Store { loc: 1 - loc, value: 1 },
                Step::Fence { kind: fence },
                Step::Store { loc, value: 3 - value },
            ];
            writer.extend(suffix);
            build_test(vec![forwarder, writer])
        })
}

/// Asserts that the checker and the oracle give `test` the same outcome
/// set under every model.
fn assert_checker_matches_oracle(test: &LitmusTest) {
    for spec in model::all() {
        let checked = AxiomaticChecker::new(spec.clone()).allowed_outcomes(test).unwrap();
        let brute = oracle::allowed_outcomes(test, &spec);
        assert_eq!(checked, brute, "{}: checker and oracle outcome sets differ", spec.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Outcome-set inclusion along the strength order SC ⊆ TSO ⊆ GAM ⊆ GAM-ARM ⊆ GAM0,
    /// and non-emptiness: every model admits at least one execution of every program.
    #[test]
    fn model_strength_inclusion(test in two_threads()) {
        let sc = AxiomaticChecker::new(model::sc()).allowed_outcomes(&test).unwrap();
        let tso = AxiomaticChecker::new(model::tso()).allowed_outcomes(&test).unwrap();
        let gam = AxiomaticChecker::new(model::gam()).allowed_outcomes(&test).unwrap();
        let arm = AxiomaticChecker::new(model::gam_arm()).allowed_outcomes(&test).unwrap();
        let gam0 = AxiomaticChecker::new(model::gam0()).allowed_outcomes(&test).unwrap();
        prop_assert!(!sc.is_empty());
        prop_assert!(sc.is_subset(&tso));
        prop_assert!(tso.is_subset(&gam));
        prop_assert!(gam.is_subset(&arm));
        prop_assert!(arm.is_subset(&gam0));
    }

    /// A witness returned for the condition of interest really matches it and
    /// is itself a member of the allowed-outcome set.
    #[test]
    fn witnesses_are_sound(test in two_threads(), target_value in 0u64..3) {
        // Re-target the condition at an arbitrary observed register value so
        // the search has something non-trivial to do.
        let observed_reg = test
            .observed()
            .iter()
            .find_map(|obs| match obs {
                gam_isa::litmus::Observation::Register(p, r) => Some((*p, *r)),
                gam_isa::litmus::Observation::Memory(_) => None,
            });
        prop_assume!(observed_reg.is_some());
        let (proc, reg) = observed_reg.unwrap();
        let retargeted = LitmusTest::builder("retargeted", test.program().clone())
            .expect_reg(proc, reg, target_value)
            .build();
        let checker = AxiomaticChecker::new(model::gam());
        let witness = checker.find_witness(&retargeted).unwrap();
        let outcomes = checker.allowed_outcomes(&retargeted).unwrap();
        match witness {
            Some(w) => {
                prop_assert!(retargeted.condition().matched_by(&w.outcome));
                prop_assert!(outcomes.contains(&w.outcome));
            }
            None => {
                prop_assert!(!outcomes.iter().any(|o| retargeted.condition().matched_by(o)));
            }
        }
    }

    /// The checker (address-pruned read-from enumeration, incremental
    /// memory-order pruning, scratch reuse) gives exactly the oracle's
    /// outcome sets under every model, including on programs with
    /// dynamically computed addresses, which stress the value-set analysis
    /// behind the pruning.
    #[test]
    fn checker_matches_oracle(test in two_small_dependent_threads()) {
        assert_checker_matches_oracle(&test);
    }

    /// The same on three-thread programs of up to eight memory events that
    /// observe memory.
    #[test]
    fn checker_matches_oracle_on_three_threads(test in three_small_dependent_threads()) {
        assert_checker_matches_oracle(&test);
    }

    /// The same on programs shaped to need local store forwarding.
    #[test]
    fn checker_matches_oracle_on_local_forwarding(test in forwarding_threads()) {
        assert_checker_matches_oracle(&test);
    }

    /// Loads only ever observe values that some store in the program (or the
    /// initial state) wrote — no out-of-thin-air values, for any model.
    #[test]
    fn no_out_of_thin_air_values(test in two_threads()) {
        let mut writable: Vec<Value> = vec![Value::ZERO];
        for (_, _, instr) in test.program().iter_instructions() {
            if let gam_isa::Instruction::Store { data: Operand::Imm(v), .. } = instr {
                writable.push(*v);
            }
        }
        for spec in model::all() {
            let outcomes = AxiomaticChecker::new(spec.clone()).allowed_outcomes(&test).unwrap();
            for outcome in &outcomes {
                for (_, value) in outcome.iter() {
                    prop_assert!(
                        writable.contains(value),
                        "{}: value {value} appeared from nowhere",
                        spec.name()
                    );
                }
            }
        }
    }
}
