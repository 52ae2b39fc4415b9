//! Random-walk execution of an abstract machine, and the deterministic
//! random-program generator behind the committed throughput corpus.
//!
//! Where the exhaustive explorer computes the *complete* outcome set, the
//! random walker samples executions: from the initial state it repeatedly
//! picks a uniformly random enabled rule until the machine reaches a final
//! state. Sampling is useful for quick demonstrations, for differential
//! fuzzing against the axiomatic checker, and for estimating how often a
//! relaxed behaviour actually shows up.
//!
//! [`stress_tests`] generates whole litmus *programs* instead: seeded,
//! straight-line, multi-threaded tests with dependent addresses — the
//! source of `tests/corpus-stress/` (see `gam gen-corpus`), which gives
//! cross-backend agreement checks and throughput measurements a workload an
//! order of magnitude bigger than the 29-test paper library.

use std::collections::BTreeMap;

use gam_isa::litmus::{LitmusTest, Outcome};
use gam_isa::prelude::{Addr, AluOp, FenceKind, Loc, Operand, ProcId, Program, Reg, ThreadProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::machine::LabeledMachine;

/// Generates `count` deterministic random litmus tests from `seed`.
///
/// The programs are built for cross-backend throughput measurement, so
/// they stay inside every backend's envelope: straight-line (the axiomatic
/// checker rejects branches), at most twelve shared-memory events per test
/// (its event limit is sixteen), two or three threads of two to four
/// instructions over two locations. The instruction mix mirrors the
/// differential proptests: immediate stores, stores of a location's
/// *address* (so dependent loads can chase it), direct loads, address-
/// dependent load pairs, register-to-register arithmetic and all four
/// basic fences. Every loaded register and both locations are observed;
/// each test carries an arbitrary exists-condition over one observed
/// register so corpus expectations are non-trivial.
///
/// The same `(seed, count)` always yields byte-identical tests — the
/// committed corpus can be regenerated and diffed in CI.
#[must_use]
pub fn stress_tests(seed: u64, count: usize) -> Vec<LitmusTest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|index| stress_test(&mut rng, index)).collect()
}

fn stress_test(rng: &mut StdRng, index: usize) -> LitmusTest {
    let locations = [Loc::new("x"), Loc::new("y")];
    let fences = [FenceKind::LL, FenceKind::LS, FenceKind::SL, FenceKind::SS];
    let threads = 2 + rng.gen_range(0..2usize);
    // Shared-memory event budget across the whole test (axiomatic limit is
    // 16; dependent load pairs cost two events each).
    let mut mem_events = 12usize;
    let mut programs = Vec::new();
    let mut observed: Vec<(ProcId, Reg)> = Vec::new();
    for proc_index in 0..threads {
        let proc = ProcId::new(proc_index);
        let mut builder = ThreadProgram::builder(proc);
        let mut next_reg = 1u32;
        let steps = 2 + rng.gen_range(0..3usize);
        for _ in 0..steps {
            let choice = if mem_events == 0 {
                4 + rng.gen_range(0..2usize)
            } else {
                rng.gen_range(0..6usize)
            };
            match choice {
                0 => {
                    // Store an immediate.
                    let loc = locations[rng.gen_range(0..2usize)];
                    builder.store(Addr::loc(loc), Operand::imm(1 + rng.gen_range(0..3u64)));
                    mem_events -= 1;
                }
                1 => {
                    // Store a location's address, feeding dependent loads.
                    let loc = locations[rng.gen_range(0..2usize)];
                    let target = locations[rng.gen_range(0..2usize)];
                    builder.store(Addr::loc(loc), Operand::loc(target));
                    mem_events -= 1;
                }
                2 => {
                    // A direct load.
                    let reg = Reg::new(next_reg);
                    next_reg += 1;
                    builder.load(reg, Addr::loc(locations[rng.gen_range(0..2usize)]));
                    observed.push((proc, reg));
                    mem_events -= 1;
                }
                3 if mem_events >= 2 => {
                    // An address-dependent load pair.
                    let pointer = Reg::new(next_reg);
                    let value = Reg::new(next_reg + 1);
                    next_reg += 2;
                    builder.load(pointer, Addr::loc(locations[rng.gen_range(0..2usize)]));
                    builder.load(value, Addr::reg(pointer));
                    observed.push((proc, pointer));
                    observed.push((proc, value));
                    mem_events -= 2;
                }
                3 | 4 => {
                    builder.fence(fences[rng.gen_range(0..4usize)]);
                }
                _ => {
                    // Register arithmetic over the previous register (or an
                    // immediate when none exists yet).
                    let dst = Reg::new(next_reg);
                    next_reg += 1;
                    let src = if next_reg > 2 {
                        Operand::reg(Reg::new(next_reg - 2))
                    } else {
                        Operand::imm(rng.gen_range(0..4u64))
                    };
                    builder.alu(dst, AluOp::Add, src, Operand::imm(rng.gen_range(0..3u64)));
                }
            }
        }
        programs.push(builder.build());
    }
    let program = Program::new(programs);
    let mut builder = LitmusTest::builder(format!("stress-{index:03}"), program)
        .observe_mem(locations[0])
        .observe_mem(locations[1]);
    for &(proc, reg) in &observed {
        builder = builder.observe_reg(proc, reg);
    }
    // A non-trivial exists-condition over one observed register (or a
    // location when no thread happened to load anything).
    if let Some(&(proc, reg)) = observed.first() {
        builder = builder.expect_reg(proc, reg, rng.gen_range(0..3u64));
    } else {
        builder = builder.expect_mem(locations[0], rng.gen_range(0..3u64));
    }
    builder.build()
}

/// Generates `count` deterministic *big* litmus tests from `seed`: the
/// `tests/corpus-big/` tier behind the memory-budget evaluation.
///
/// Where [`stress_tests`] stays litmus-sized (hundreds to a few thousand
/// reachable states), these programs are built to blow past a RAM-resident
/// state cap: three threads of eight straight-line instructions each — three
/// shared-memory events over three locations plus a five-instruction ALU
/// tail. The memory-event count stays small (nine against the axiomatic
/// checker's limit of sixteen, no branches) so the axiomatic witness search
/// stays tractable under every model; the ALU tails cost the axiomatic
/// enumeration *nothing* while multiplying the machines' reorder-buffer
/// interleavings, so the unreduced operational state space still runs into
/// the tens of thousands with an accounted footprint of megabytes — enough
/// that a single-digit-megabyte memory budget trips mid-exploration and the
/// spill machinery has something real to chew on, while an
/// *unbudgeted* sequential run finishes in well under a second.
///
/// The same `(seed, count)` always yields byte-identical tests, and the
/// condition of interest is always reachable under SC (taken from the
/// one-thread-after-another sequential execution), so every model's verdict
/// is a fast "allowed"-by-witness rather than an exhaustive "forbidden".
#[must_use]
pub fn big_tests(seed: u64, count: usize) -> Vec<LitmusTest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|index| big_test(&mut rng, index)).collect()
}

fn big_test(rng: &mut StdRng, index: usize) -> LitmusTest {
    /// One shared-memory event, kept for the sequential replay below.
    enum Ev {
        Store(usize, u64),
        Load(Reg, usize),
    }
    let locations = [Loc::new("x"), Loc::new("y"), Loc::new("z")];
    let threads = 3usize;
    let mut programs = Vec::new();
    let mut observed: Vec<(ProcId, Reg)> = Vec::new();
    let mut events: Vec<Vec<Ev>> = Vec::new();
    for proc_index in 0..threads {
        let proc = ProcId::new(proc_index);
        let mut builder = ThreadProgram::builder(proc);
        let mut thread_events = Vec::new();
        let mut next_reg = 1u32;
        // Three memory events per thread: the axiomatic enumeration grows
        // combinatorially in these, so the mix is fixed-size and only the
        // targets/values are randomized.
        for event in 0..3usize {
            // Alternate store/load so every thread both produces and
            // observes; a store-only or load-only thread collapses the space.
            let loc_index = rng.gen_range(0..3usize);
            let loc = locations[loc_index];
            if event % 2 == proc_index % 2 {
                let value = 1 + rng.gen_range(0..3u64);
                builder.store(Addr::loc(loc), Operand::imm(value));
                thread_events.push(Ev::Store(loc_index, value));
            } else {
                let reg = Reg::new(next_reg);
                next_reg += 1;
                builder.load(reg, Addr::loc(loc));
                observed.push((proc, reg));
                thread_events.push(Ev::Load(reg, loc_index));
            }
        }
        // A five-instruction ALU tail keeps the ROBs busy without adding
        // memory events: each extra in-flight instruction multiplies the
        // machines' interleavings but costs the axiomatic checker nothing.
        for _ in 0..5usize {
            let dst = Reg::new(next_reg);
            let src = if next_reg > 1 {
                Operand::reg(Reg::new(next_reg - 1))
            } else {
                Operand::imm(rng.gen_range(0..4u64))
            };
            builder.alu(dst, AluOp::Add, src, Operand::imm(rng.gen_range(0..3u64)));
            next_reg += 1;
        }
        programs.push(builder.build());
        events.push(thread_events);
    }
    let program = Program::new(programs);
    let mut builder = LitmusTest::builder(format!("big-{index:03}"), program)
        .observe_mem(locations[0])
        .observe_mem(locations[1])
        .observe_mem(locations[2]);
    for &(proc, reg) in &observed {
        builder = builder.observe_reg(proc, reg);
    }
    // The condition of interest must be *allowed* under every model:
    // `check` proves "allowed" with one witness but must exhaust the whole
    // enumeration space to prove "forbidden", which is intractable at
    // fifteen events. Replaying the one-thread-after-another sequential
    // execution and expecting an observed register's value from it
    // guarantees an SC-consistent witness — and SC-allowed implies allowed
    // under every weaker model, so each backend's check terminates fast.
    let mut memory = [0u64; 3];
    let mut sequential: Vec<((ProcId, Reg), u64)> = Vec::new();
    for (proc_index, thread) in events.iter().enumerate() {
        for event in thread {
            match *event {
                Ev::Store(loc_index, value) => memory[loc_index] = value,
                Ev::Load(reg, loc_index) => {
                    sequential.push(((ProcId::new(proc_index), reg), memory[loc_index]));
                }
            }
        }
    }
    let ((proc, reg), value) = sequential[rng.gen_range(0..sequential.len())];
    builder.expect_reg(proc, reg, value).build()
}

/// A seeded random-walk executor.
#[derive(Debug, Clone)]
pub struct RandomWalker {
    rng: StdRng,
    max_steps: usize,
}

impl RandomWalker {
    /// Creates a walker with the given seed and the default step bound.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomWalker { rng: StdRng::seed_from_u64(seed), max_steps: 100_000 }
    }

    /// Sets the maximum number of steps per walk (guards against machines
    /// with livelocks, e.g. programs with infinite loops).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs one random execution and returns its outcome, or `None` if the
    /// step bound was reached before a final state.
    pub fn run_once<M: LabeledMachine>(&mut self, machine: &M) -> Option<Outcome> {
        let mut state = machine.initial_state();
        for _ in 0..self.max_steps {
            let successors = machine.labeled_successors(&state);
            if successors.is_empty() {
                return machine.is_final(&state).then(|| machine.outcome(&state));
            }
            let choice = self.rng.gen_range(0..successors.len());
            state = successors.into_iter().nth(choice).expect("index in range").1;
        }
        None
    }

    /// Runs `runs` random executions and returns a histogram of outcomes.
    pub fn sample<M: LabeledMachine>(
        &mut self,
        machine: &M,
        runs: usize,
    ) -> BTreeMap<Outcome, usize> {
        let mut histogram = BTreeMap::new();
        for _ in 0..runs {
            if let Some(outcome) = self.run_once(machine) {
                *histogram.entry(outcome).or_insert(0) += 1;
            }
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::gam::GamMachine;
    use crate::sc::ScMachine;
    use gam_isa::litmus::library;

    #[test]
    fn sampling_is_deterministic_for_a_fixed_seed() {
        let test = library::dekker();
        let machine = ScMachine::new(&test);
        let h1 = RandomWalker::new(7).sample(&machine, 50);
        let h2 = RandomWalker::new(7).sample(&machine, 50);
        assert_eq!(h1, h2);
        let h3 = RandomWalker::new(8).sample(&machine, 50);
        // Different seeds almost surely give a different histogram; both must
        // still only contain SC-allowed outcomes.
        assert!(h1.keys().all(|o| !test.condition().matched_by(o)));
        assert!(h3.keys().all(|o| !test.condition().matched_by(o)));
    }

    #[test]
    fn sampled_outcomes_are_a_subset_of_explored_outcomes() {
        let test = library::mp_fence_ss_only();
        let machine = GamMachine::new(&test);
        let explored = Explorer::default().explore(&machine).unwrap().outcomes;
        let sampled = RandomWalker::new(42).sample(&machine, 200);
        for outcome in sampled.keys() {
            assert!(explored.contains(outcome), "sampled outcome {outcome} not in explored set");
        }
        let total: usize = sampled.values().sum();
        assert_eq!(total, 200, "every walk of a finite litmus test terminates");
    }

    #[test]
    fn stress_tests_are_deterministic_and_inside_backend_limits() {
        let a = super::stress_tests(42, 20);
        let b = super::stress_tests(42, 20);
        assert_eq!(a, b, "the same seed regenerates byte-identical tests");
        let c = super::stress_tests(43, 20);
        assert_ne!(a, c, "a different seed changes the corpus");
        for (index, test) in a.iter().enumerate() {
            assert_eq!(test.name(), format!("stress-{index:03}"));
            assert!(!test.program().has_branches(), "axiomatic compatibility");
            let events: usize = test
                .program()
                .threads()
                .iter()
                .map(gam_isa::ThreadProgram::memory_instruction_count)
                .sum();
            assert!(events <= 12, "{}: {events} memory events", test.name());
            assert!(!test.observed().is_empty());
            // Every test explores cleanly on the operational machines.
            let machine = crate::gam::GamMachine::new(test);
            assert!(Explorer::default().explore(&machine).is_ok(), "{}", test.name());
        }
    }

    #[test]
    fn step_bound_terminates_walks() {
        let test = library::dekker();
        let machine = GamMachine::new(&test);
        let mut walker = RandomWalker::new(1).with_max_steps(1);
        assert_eq!(walker.run_once(&machine), None);
    }
}
