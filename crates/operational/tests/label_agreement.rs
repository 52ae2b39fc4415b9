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
//! The programs are the litmus library, seeded stress programs and seeded
//! branchy programs; only the branchy ones drive GAM's speculative Fetch
//! (branch-free programs are fetched eagerly).

use std::collections::BTreeSet;
use std::fmt::Debug;

use gam_isa::litmus::library;
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

/// A seeded program of two or three threads over two locations whose
/// conditional branches skip forward past stores, loads, address-dependent
/// loads, arithmetic and fences, so GAM fetches past unresolved branches
/// and squashes on misprediction.
fn branchy_test(rng: &mut StdRng, index: usize) -> LitmusTest {
    let locations = [Loc::new("x"), Loc::new("y")];
    let mut threads = Vec::new();
    let mut observed = Vec::new();
    for proc_index in 0..rng.gen_range(2..4usize) {
        let proc = ProcId::new(proc_index);
        let mut builder = ThreadProgram::builder(proc);
        let mut last: Option<Reg> = None;
        let mut next_reg = 1u32;
        let mut pending_label = None;
        for step in 0..rng.gen_range(2..6usize) {
            if let Some(label) = pending_label.take() {
                if rng.gen_bool(0.5) {
                    builder.label(label);
                } else {
                    pending_label = Some(label);
                }
            }
            let loc = locations[rng.gen_range(0..2usize)];
            match rng.gen_range(0..7u32) {
                0 => {
                    builder.store(Addr::loc(loc), Operand::imm(1 + rng.gen_range(0..2u64)));
                }
                1 => {
                    builder
                        .store(Addr::loc(loc), Operand::loc(locations[rng.gen_range(0..2usize)]));
                }
                2 | 3 => {
                    let reg = Reg::new(next_reg);
                    next_reg += 1;
                    match last {
                        Some(pointer) if rng.gen_bool(0.5) => builder.load(reg, Addr::reg(pointer)),
                        _ => builder.load(reg, Addr::loc(loc)),
                    };
                    observed.push((proc, reg));
                    last = Some(reg);
                }
                4 => {
                    let reg = Reg::new(next_reg);
                    next_reg += 1;
                    let lhs = last.map_or(Operand::imm(1), Operand::reg);
                    builder.alu(reg, AluOp::Add, lhs, Operand::imm(rng.gen_range(0..2u64)));
                    last = Some(reg);
                }
                5 => {
                    builder.fence(FenceKind::ALL[rng.gen_range(0..4usize)]);
                }
                _ if pending_label.is_none() => {
                    let label = format!("skip{step}");
                    let lhs = last.map_or(Operand::imm(0), Operand::reg);
                    builder.branch(BranchCond::Ne, lhs, Operand::imm(0), label.as_str());
                    pending_label = Some(label);
                }
                _ => {
                    builder.store(Addr::loc(loc), Operand::imm(3));
                }
            }
        }
        if let Some(label) = pending_label {
            builder.label(label);
        }
        threads.push(builder.build());
    }
    let program = Program::new(threads);
    let mut builder = LitmusTest::builder(format!("branchy-{index}"), program)
        .observe_mem(locations[0])
        .observe_mem(locations[1]);
    for (proc, reg) in observed {
        builder = builder.observe_reg(proc, reg);
    }
    builder.build()
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
    let mut rng = StdRng::seed_from_u64(19);
    let tests: Vec<LitmusTest> = (0..40).map(|index| branchy_test(&mut rng, index)).collect();
    assert!(
        tests.iter().filter(|test| test.program().has_branches()).count() >= 20,
        "most programs branch"
    );
    for (index, test) in tests.iter().enumerate() {
        check_test(test, index as u64);
    }
}
