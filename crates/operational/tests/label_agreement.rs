//! The label-first machine API agrees with the successor API on every shipped
//! machine (SC, TSO, GAM, GAM0). At every state of seeded random walks:
//!
//! * concatenating each thread's `thread_actions`, threads in ascending
//!   order, gives exactly `enabled_actions` — the label order the explorer
//!   relies on when a singleton-chain step relabels only the thread that
//!   stepped;
//! * `enabled_actions` lists `labeled_successors`' labels, in its order and
//!   without duplicates, and `successor_into` builds, for every label, the
//!   successor `labeled_successors` pairs with it.
//!
//! The programs are the litmus library, seeded stress programs and programs
//! sampled from `space::BRANCHY`, whose forward branches skip stores, loads,
//! address-dependent loads, arithmetic and fences; only the branchy ones
//! drive GAM's speculative Fetch (branch-free programs are fetched eagerly).

use std::collections::BTreeSet;
use std::fmt::Debug;

use gam_isa::litmus::{library, space};
use gam_isa::prelude::*;
use gam_operational::{
    stress_tests, Action, GamConfig, GamMachine, LabeledMachine, ScMachine, TsoMachine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random walks per (program, machine), and steps per walk.
const WALKS: usize = 16;
const MAX_STEPS: usize = 120;

/// Checks every state of `WALKS` seeded random walks of `machine`.
fn check_walks<M>(machine: &M, threads: usize, name: &str, seed: u64)
where
    M: LabeledMachine,
    M::State: Debug,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = Vec::new();
    let mut runs = Vec::new();
    let mut built = machine.initial_state();
    for _ in 0..WALKS {
        let mut state = machine.initial_state();
        for _ in 0..MAX_STEPS {
            let what = format!("{}/{name}: {state:?}", machine.name());
            // A stale label must not survive: `enabled_actions` replaces.
            labels.push(Action::local(threads, 0));
            machine.enabled_actions(&state, &mut labels);
            runs.clear();
            for thread in 0..threads {
                let start = runs.len();
                machine.thread_actions(&state, thread, &mut runs);
                assert!(
                    runs[start..].iter().all(|action| action.thread as usize == thread),
                    "{what}: thread {thread}'s run holds another thread's label"
                );
            }
            assert_eq!(runs, labels, "{what}: the thread runs concatenate to the labels");
            let successors = machine.labeled_successors(&state);
            let fresh: Vec<Action> = successors.iter().map(|(action, _)| *action).collect();
            assert_eq!(labels, fresh, "{what}: the labels are labeled_successors' ones");
            let unique: BTreeSet<&Action> = labels.iter().collect();
            assert_eq!(unique.len(), labels.len(), "{what}: duplicate labels");
            for (action, next) in &successors {
                // One reused buffer: every build overwrites the last.
                machine.successor_into(&state, action, &mut built);
                assert_eq!(&built, next, "{what}: {action:?} builds its successor");
            }
            if successors.is_empty() {
                break;
            }
            state = successors.into_iter().nth(rng.gen_range(0..labels.len())).unwrap().1;
        }
    }
}

/// Checks the four machines of `test`.
fn check_test(test: &LitmusTest, seed: u64) {
    let threads = test.program().num_threads();
    let name = test.name();
    check_walks(&ScMachine::new(test), threads, name, seed);
    check_walks(&TsoMachine::new(test), threads, name, seed);
    check_walks(&GamMachine::with_config(test, GamConfig::gam()), threads, name, seed);
    check_walks(&GamMachine::with_config(test, GamConfig::gam0()), threads, name, seed);
}

#[test]
fn thread_runs_and_built_successors_agree_on_the_library() {
    for (index, test) in library::all_tests().iter().enumerate() {
        check_test(test, index as u64);
    }
}

#[test]
fn thread_runs_and_built_successors_agree_on_stress_programs() {
    for (index, test) in stress_tests(2026, 40).iter().enumerate() {
        check_test(test, index as u64);
    }
}

#[test]
fn thread_runs_and_built_successors_agree_on_branchy_programs() {
    let tests: Vec<LitmusTest> =
        (0..40).map(|seed| space::build(&space::BRANCHY.sample(seed))).collect();
    assert!(
        tests.iter().filter(|test| test.program().has_branches()).count() >= 20,
        "most programs branch"
    );
    for (index, test) in tests.iter().enumerate() {
        check_test(test, index as u64);
    }
}
