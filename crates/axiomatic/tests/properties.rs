//! Property-based tests of the axiomatic checker on randomly generated
//! branch-free litmus tests: model-strength inclusion, witness soundness,
//! basic sanity of the outcome sets, and differential equivalence of the
//! checker against `gam_axiomatic::oracle`, a brute-force reading of the
//! axioms that shares none of the checker's search code.

use gam_axiomatic::{oracle, AxiomaticChecker};
use gam_core::model;
use gam_isa::litmus::space::{self, Step};
use gam_isa::litmus::LitmusTest;
use gam_isa::prelude::*;
use proptest::prelude::*;

/// Two threads aimed at local store forwarding. One thread ends in a
/// [`Step::ForwardDep`] on location `loc`; the other writes the other
/// location, then (after `fence`) `loc`. The final value of `loc` then
/// orders the two threads' stores to it, so only forwarding lets the
/// dependent load read the other location's initial value. Each thread
/// gets at most one more step of [`space::PLAIN_CONTEXT`] around the shape.
fn forwarding_threads(seed: u64, loc: u8, value: u8, fence: FenceKind) -> LitmusTest {
    let other = 1 - loc;
    let [prefix, suffix]: [Vec<Step>; 2] =
        space::PLAIN_CONTEXT.sample(seed).try_into().expect("two threads");
    let forwarder = [prefix, vec![Step::ForwardDep { loc, value, target: other }]].concat();
    let writer = [
        vec![
            Step::Store { loc: other, value: 1 },
            Step::Fence(fence),
            Step::Store { loc, value: 3 - value },
        ],
        suffix,
    ]
    .concat();
    space::build(&[forwarder, writer])
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
    fn model_strength_inclusion(seed in any::<u64>()) {
        let test = space::build(&space::PLAIN.sample(seed));
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
    fn witnesses_are_sound(seed in any::<u64>(), target_value in 0u64..3) {
        let test = space::build(&space::PLAIN.sample(seed));
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
    fn checker_matches_oracle(seed in any::<u64>()) {
        assert_checker_matches_oracle(&space::build(&space::DEPENDENT_SMALL.sample(seed)));
    }

    /// The same on three-thread programs of up to eight memory events that
    /// observe memory.
    #[test]
    fn checker_matches_oracle_on_three_threads(seed in any::<u64>()) {
        assert_checker_matches_oracle(&space::build(&space::DEPENDENT_THREE.sample(seed)));
    }

    /// The same on programs shaped to need local store forwarding.
    #[test]
    fn checker_matches_oracle_on_local_forwarding(
        seed in any::<u64>(),
        loc in 0u8..2,
        value in 1u8..3,
        fence in 0usize..4,
    ) {
        assert_checker_matches_oracle(&forwarding_threads(seed, loc, value, FenceKind::ALL[fence]));
    }

    /// Loads only ever observe values that some store in the program (or the
    /// initial state) wrote — no out-of-thin-air values, for any model.
    #[test]
    fn no_out_of_thin_air_values(seed in any::<u64>()) {
        let test = space::build(&space::PLAIN.sample(seed));
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
