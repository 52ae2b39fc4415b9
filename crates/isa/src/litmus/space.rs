//! One program space for every generated litmus test.
//!
//! The differential tests (checker against oracle, explorer against its
//! reference search, backend against backend) and the frontend's round-trip
//! and canonicalization tests draw their programs from here. [`Step`] is the
//! declared alphabet, [`build`] turns one step list per thread into a
//! [`LitmusTest`], and a [`Space`] bounds a sub-alphabet: [`Space::sample`]
//! draws one program from a seed and [`Space::enumerate`] lists every program
//! in order of size. The spaces the tests use are the constants below, so
//! the unit tests check each of them.
//!
//! Steps name locations by index into [`LOCATIONS`] and never name a
//! register: [`build`] numbers each thread's registers `r1`, `r2`, … in the
//! order the thread writes them, and "the last register" of a step is the
//! latest one its thread wrote. Before any, it holds 0: as an operand it is
//! the immediate 0, and as an address the register the thread writes next,
//! which is still unwritten.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::LitmusTest;
use crate::instr::{Addr, Operand};
use crate::op::{AluOp, BranchCond, FenceKind};
use crate::program::{ProcId, Program, ThreadBuilder, ThreadProgram};
use crate::reg::Reg;
use crate::value::Loc;

/// The location names a step's location index refers to.
pub const LOCATIONS: [&str; 3] = ["x", "y", "z"];

/// The location of index `index` into [`LOCATIONS`].
///
/// # Panics
///
/// Panics if `index` is not below [`LOCATIONS`]`.len()`.
#[must_use]
pub fn location(index: u8) -> Loc {
    Loc::new(LOCATIONS[usize::from(index)])
}

/// One step of a generated thread: a short instruction sequence. `loc`, `to`
/// and `target` are location indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// `St [loc] value`.
    Store {
        /// The location written.
        loc: u8,
        /// The immediate stored.
        value: u8,
    },
    /// `St [loc] &target`: a location's address, for dependent loads to chase.
    StoreAddr {
        /// The location written.
        loc: u8,
        /// The location whose address is stored.
        target: u8,
    },
    /// `r = Ld [loc]`.
    Load(u8),
    /// `r = Ld [last]`: a load through whatever wrote the last register.
    LoadLast,
    /// `St [last] value`: a store of an immediate through the last register.
    StoreLast(u8),
    /// `p = Ld [loc]; r = Ld [p + 8 * offset]`: an address dependency whose
    /// target is known only at run time.
    LoadDep {
        /// The location the pointer is read from.
        loc: u8,
        /// The offset from the pointer, in 8-byte words.
        offset: u8,
    },
    /// `r = Ld [loc]; St [to] r`: a new store of a loaded register.
    StoreLoaded {
        /// The location read.
        loc: u8,
        /// The location written.
        to: u8,
    },
    /// `St [loc] value; r = Ld [loc]; a = &target + r - r; d = Ld [a]`: a load
    /// that may forward from its thread's store, and a load that artificially
    /// depends on it (the shape of `corr+intervening-store`).
    ForwardDep {
        /// The location stored and read back.
        loc: u8,
        /// The immediate stored.
        value: u8,
        /// The location the dependent load reads.
        target: u8,
    },
    /// A basic fence.
    Fence(FenceKind),
    /// `r = op last, value`.
    Alu {
        /// The operation.
        op: AluOp,
        /// The immediate second operand.
        value: u8,
    },
    /// `b<cond> last, 0` over the next `over` steps, or to the thread's end
    /// if fewer follow.
    Branch {
        /// The condition.
        cond: BranchCond,
        /// How many steps a taken branch skips.
        over: u8,
    },
    /// `r = mov &loc`.
    MovAddr(u8),
    /// `r = Ld [loc]; a = &target + r - r`: the paper's artificial address
    /// dependency.
    AddrDep {
        /// The location read.
        loc: u8,
        /// The location whose address `a` holds.
        target: u8,
    },
}

/// A kind of [`Step`]: a space's alphabet is a list of kinds, and each kind
/// stands for all its steps over the space's locations, as [`Kind::steps`]
/// lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Store,
    StoreAddr,
    Load,
    LoadDep,
    LoadLast,
    StoreLast,
    StoreLoaded,
    ForwardDep,
    Fence,
    Alu,
    Branch,
    MovAddr,
    AddrDep,
    LoadOffset,
}

impl Kind {
    /// Every step of this kind over the first `locations` locations.
    fn steps(self, locations: u8) -> Vec<Step> {
        const OPS: [AluOp; 6] =
            [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Mov];
        let locs = 0..locations;
        let pairs = || cross(locs.clone(), locs.clone());
        let distinct = || pairs().filter(|(a, b)| a != b);
        match self {
            Kind::Store => {
                cross(locs, [1, 2]).map(|(loc, value)| Step::Store { loc, value }).collect()
            }
            Kind::StoreAddr => {
                pairs().map(|(loc, target)| Step::StoreAddr { loc, target }).collect()
            }
            Kind::Load => locs.map(Step::Load).collect(),
            Kind::LoadDep => locs.map(|loc| Step::LoadDep { loc, offset: 0 }).collect(),
            Kind::LoadLast => vec![Step::LoadLast],
            Kind::StoreLast => vec![Step::StoreLast(1), Step::StoreLast(2)],
            Kind::StoreLoaded => {
                distinct().map(|(loc, to)| Step::StoreLoaded { loc, to }).collect()
            }
            Kind::ForwardDep => cross(distinct(), [1, 2])
                .map(|((loc, target), value)| Step::ForwardDep { loc, value, target })
                .collect(),
            Kind::Fence => FenceKind::ALL.map(Step::Fence).into(),
            Kind::Alu => cross(OPS, [0, 1]).map(|(op, value)| Step::Alu { op, value }).collect(),
            Kind::Branch => cross([BranchCond::Eq, BranchCond::Ne], [1, 2])
                .map(|(cond, over)| Step::Branch { cond, over })
                .collect(),
            Kind::MovAddr => locs.map(Step::MovAddr).collect(),
            Kind::AddrDep => pairs().map(|(loc, target)| Step::AddrDep { loc, target }).collect(),
            Kind::LoadOffset => {
                cross(locs, [1, 2]).map(|(loc, offset)| Step::LoadDep { loc, offset }).collect()
            }
        }
    }
}

/// Every `(a, b)` of `first` × `second`, `a` major.
fn cross<A: Clone, B>(
    first: impl IntoIterator<Item = A>,
    second: impl IntoIterator<Item = B> + Clone,
) -> impl Iterator<Item = (A, B)> {
    first.into_iter().flat_map(move |a| second.clone().into_iter().map(move |b| (a.clone(), b)))
}

/// The litmus test of a program given as one step list per thread.
///
/// This is the one place that numbers registers. The test observes every
/// register a thread writes and every location a step names, and has an
/// empty condition.
///
/// # Panics
///
/// Panics if `threads` is empty or a step names a location index not below
/// [`LOCATIONS`]`.len()`.
#[must_use]
pub fn build(threads: &[Vec<Step>]) -> LitmusTest {
    let mut named = BTreeSet::new();
    let mut observed = Vec::new();
    let mut programs = Vec::new();
    for (index, steps) in threads.iter().enumerate() {
        let proc = ProcId::new(index);
        let builder = ThreadProgram::builder(proc);
        let mut thread = Thread { builder, registers: 0, named: &mut named };
        // The step indices (or the thread's end) some branch jumps to.
        let mut targets = BTreeSet::new();
        for (at, &step) in steps.iter().enumerate() {
            if targets.remove(&at) {
                thread.builder.label(format!("L{at}"));
            }
            if let Step::Branch { cond, over } = step {
                let target = steps.len().min(at + 1 + usize::from(over));
                targets.insert(target);
                let last = thread.last();
                thread.builder.branch(cond, last, Operand::imm(0), format!("L{target}").as_str());
            } else {
                thread.push(step);
            }
        }
        if targets.remove(&steps.len()) {
            thread.builder.label(format!("L{}", steps.len()));
        }
        observed.extend((1..=thread.registers).map(|reg| (proc, Reg::new(reg))));
        programs.push(thread.builder.build());
    }
    let mut builder = LitmusTest::builder("generated", Program::new(programs));
    for (proc, reg) in observed {
        builder = builder.observe_reg(proc, reg);
    }
    for index in named {
        builder = builder.observe_mem(location(index));
    }
    builder.try_build().expect("every observed register is written")
}

/// One thread under construction.
struct Thread<'a> {
    builder: ThreadBuilder,
    /// How many registers the thread has written: `r1` up to this one.
    registers: u32,
    /// The location indices the program's steps name.
    named: &'a mut BTreeSet<u8>,
}

impl Thread<'_> {
    /// A register the thread has not written yet.
    fn fresh(&mut self) -> Reg {
        self.registers += 1;
        Reg::new(self.registers)
    }

    /// The latest register the thread wrote, or 0 before any.
    fn last(&self) -> Operand {
        if self.registers == 0 {
            Operand::imm(0)
        } else {
            Operand::reg(Reg::new(self.registers))
        }
    }

    /// The last register as an address: the latest register the thread
    /// wrote or, before any, the unwritten one it writes next.
    fn base(&self) -> Reg {
        Reg::new(self.registers.max(1))
    }

    /// The location of index `index`, noted as named.
    fn loc(&mut self, index: u8) -> Loc {
        self.named.insert(index);
        location(index)
    }

    /// Appends any step but a branch.
    fn push(&mut self, step: Step) {
        match step {
            Step::Store { loc, value } => {
                let at = Addr::loc(self.loc(loc));
                self.builder.store(at, Operand::imm(value.into()));
            }
            Step::StoreAddr { loc, target } => {
                let (at, target) = (Addr::loc(self.loc(loc)), self.loc(target));
                self.builder.store(at, target);
            }
            Step::Load(loc) => {
                let (reg, at) = (self.fresh(), Addr::loc(self.loc(loc)));
                self.builder.load(reg, at);
            }
            Step::LoadDep { loc, offset } => {
                let (pointer, reg, at) = (self.fresh(), self.fresh(), Addr::loc(self.loc(loc)));
                let through = Addr::reg_offset(pointer, 8 * u64::from(offset));
                self.builder.load(pointer, at).load(reg, through);
            }
            Step::LoadLast => {
                let (base, reg) = (self.base(), self.fresh());
                self.builder.load(reg, Addr::reg(base));
            }
            Step::StoreLast(value) => {
                self.builder.store(Addr::reg(self.base()), Operand::imm(value.into()));
            }
            Step::StoreLoaded { loc, to } => {
                let (reg, at, to) = (self.fresh(), Addr::loc(self.loc(loc)), self.loc(to));
                self.builder.load(reg, at).store(Addr::loc(to), reg);
            }
            Step::ForwardDep { loc, value, target } => {
                let (forwarded, address, dependent) = (self.fresh(), self.fresh(), self.fresh());
                let (at, target) = (self.loc(loc), self.loc(target));
                self.builder
                    .store(Addr::loc(at), Operand::imm(value.into()))
                    .load(forwarded, Addr::loc(at))
                    .artificial_addr_dep(address, target, forwarded)
                    .load(dependent, Addr::reg(address));
            }
            Step::Fence(kind) => {
                self.builder.fence(kind);
            }
            Step::Alu { op, value } => {
                let (lhs, reg) = (self.last(), self.fresh());
                self.builder.alu(reg, op, lhs, Operand::imm(value.into()));
            }
            Step::MovAddr(loc) => {
                let (reg, at) = (self.fresh(), self.loc(loc));
                self.builder.mov(reg, at);
            }
            Step::AddrDep { loc, target } => {
                let (reg, address) = (self.fresh(), self.fresh());
                let (at, target) = (Addr::loc(self.loc(loc)), self.loc(target));
                self.builder.load(reg, at).artificial_addr_dep(address, target, reg);
            }
            Step::Branch { .. } => unreachable!("build places branches"),
        }
    }
}

/// The memory instructions of `program`.
fn events(program: &[Vec<Step>]) -> usize {
    build(program).program().memory_instruction_count()
}

/// A set of programs: every program of `threads` threads, each of `steps`
/// steps drawn from the kinds of `alphabet` over the first `locations`
/// locations, with at most `max_events` memory instructions in total.
///
/// Every space is one of the constants below, so the unit tests check each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    /// The kinds of step a thread draws from.
    alphabet: &'static [Kind],
    /// How many threads a program has.
    threads: RangeInclusive<usize>,
    /// How many steps each thread has.
    steps: RangeInclusive<usize>,
    /// How many locations the steps name, at most [`LOCATIONS`]`.len()`.
    locations: u8,
    /// The most memory instructions a program may have, if bounded.
    max_events: Option<usize>,
}

impl Space {
    /// Every step of the alphabet, kind by kind.
    fn all_steps(&self) -> Vec<Step> {
        self.alphabet.iter().flat_map(|kind| kind.steps(self.locations)).collect()
    }

    /// Whether `program` stays within the memory-event cap.
    fn fits(&self, program: &[Vec<Step>]) -> bool {
        self.max_events.is_none_or(|cap| events(program) <= cap)
    }

    /// The program of seed `seed`: [`Space::draw`] from a generator seeded
    /// with it.
    #[must_use]
    pub fn sample(&self, seed: u64) -> Vec<Vec<Step>> {
        self.draw(&mut StdRng::seed_from_u64(seed))
    }

    /// A program drawn from `rng`: the thread count, each thread's step
    /// count, each step's kind and then the step itself are drawn uniformly.
    /// Under a memory-event cap, a step that does not fit ends its thread,
    /// unless the thread is still short of its minimum step count: then the
    /// step is drawn again from the kinds that fit.
    pub fn draw(&self, rng: &mut StdRng) -> Vec<Vec<Step>> {
        let cost = |kind: Kind| events(&[vec![kind.steps(self.locations)[0]]]);
        let mut room = self.max_events.unwrap_or(usize::MAX);
        let mut program = Vec::new();
        for _ in 0..rng.gen_range(*self.threads.start()..self.threads.end() + 1) {
            let mut thread = Vec::new();
            for _ in 0..rng.gen_range(*self.steps.start()..self.steps.end() + 1) {
                let mut kind = self.alphabet[rng.gen_range(0..self.alphabet.len())];
                if cost(kind) > room {
                    let fitting: Vec<Kind> =
                        self.alphabet.iter().copied().filter(|&kind| cost(kind) <= room).collect();
                    if thread.len() >= *self.steps.start() || fitting.is_empty() {
                        break;
                    }
                    kind = fitting[rng.gen_range(0..fitting.len())];
                }
                room -= cost(kind);
                let steps = kind.steps(self.locations);
                thread.push(steps[rng.gen_range(0..steps.len())]);
            }
            program.push(thread);
        }
        program
    }

    /// Every program of the space, each once, in nondecreasing total step
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on reaching a thread-length shape with more than `usize::MAX`
    /// programs.
    pub fn enumerate(&self) -> impl Iterator<Item = Vec<Vec<Step>>> + '_ {
        let alphabet = self.all_steps();
        // Every vector of thread lengths, shortest programs first.
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        for threads in self.threads.clone() {
            shapes.extend((0..threads).fold(vec![vec![]], |shapes, _| {
                cross(shapes, self.steps.clone())
                    .map(|(shape, len)| [shape, vec![len]].concat())
                    .collect()
            }));
        }
        shapes.sort_by_key(|shape| shape.iter().sum::<usize>());
        shapes
            .into_iter()
            .flat_map(move |shape| {
                let size = u32::try_from(shape.iter().sum::<usize>()).ok();
                let count = size.and_then(|size| alphabet.len().checked_pow(size));
                let alphabet = alphabet.clone();
                (0..count.expect("the space is small enough to enumerate")).map(move |mut index| {
                    let mut letter = || {
                        let step = alphabet[index % alphabet.len()];
                        index /= alphabet.len();
                        step
                    };
                    shape
                        .iter()
                        .map(|&len| (0..len).map(|_| letter()).collect())
                        .collect::<Vec<_>>()
                })
            })
            .filter(|program| self.fits(program))
    }
}

/// Stores of immediates, loads and fences, 2 threads × 1–3 steps over 2
/// locations: every value a load returns is one some store wrote.
pub const PLAIN: Space = Space {
    alphabet: &[Kind::Store, Kind::Load, Kind::Fence],
    threads: 2..=2,
    steps: 1..=3,
    locations: 2,
    max_events: None,
};

/// [`PLAIN`] at 0–1 steps: the context around the axiomatic properties'
/// local-forwarding shape.
pub const PLAIN_CONTEXT: Space = Space { steps: 0..=1, ..PLAIN };

/// [`PLAIN`] plus address stores and dependent loads: the explorer's
/// differential tests.
pub const DEPENDENT: Space = Space {
    alphabet: &[Kind::Store, Kind::StoreAddr, Kind::Load, Kind::LoadDep, Kind::Fence],
    ..PLAIN
};

/// [`DEPENDENT`] at 1–2 steps, small enough for the axiomatic oracle.
pub const DEPENDENT_SMALL: Space = Space { steps: 1..=2, ..DEPENDENT };

/// [`DEPENDENT`] over 3 threads, at most 8 memory events (8! = 40,320
/// orders for the axiomatic oracle).
pub const DEPENDENT_THREE: Space = Space { threads: 3..=3, max_events: Some(8), ..DEPENDENT };

/// [`DEPENDENT`] plus stores of loaded registers, at most 6 memory events:
/// cross-backend fuzzing.
pub const CROSS_BACKEND: Space = Space {
    alphabet: &[
        Kind::Store,
        Kind::StoreAddr,
        Kind::Load,
        Kind::LoadDep,
        Kind::StoreLoaded,
        Kind::Fence,
    ],
    max_events: Some(6),
    ..PLAIN
};

/// [`DEPENDENT`] plus arithmetic, loads through the last register and
/// forward branches, 2–3 threads × 2–5 steps: the machines' label API, where
/// only branches make GAM fetch speculatively.
pub const BRANCHY: Space = Space {
    alphabet: &[
        Kind::Store,
        Kind::StoreAddr,
        Kind::Load,
        Kind::LoadDep,
        Kind::LoadLast,
        Kind::Alu,
        Kind::Fence,
        Kind::Branch,
    ],
    threads: 2..=3,
    steps: 2..=5,
    ..PLAIN
};

/// The vocabulary the canonicalizer's location-renaming screen admits, 1–3
/// threads × 1–4 steps over 3 locations.
pub const CANONICAL: Space = Space {
    alphabet: &[
        Kind::Store,
        Kind::StoreAddr,
        Kind::Load,
        Kind::LoadDep,
        Kind::LoadLast,
        Kind::MovAddr,
        Kind::AddrDep,
        Kind::Fence,
    ],
    threads: 1..=3,
    steps: 1..=4,
    locations: 3,
    max_events: None,
};

/// Every kind, [`CANONICAL`]'s bounds: the printer and parser round trip.
pub const PRINTABLE: Space = Space {
    alphabet: &[
        Kind::Store,
        Kind::StoreAddr,
        Kind::Load,
        Kind::LoadDep,
        Kind::LoadLast,
        Kind::StoreLast,
        Kind::StoreLoaded,
        Kind::ForwardDep,
        Kind::Fence,
        Kind::Alu,
        Kind::Branch,
        Kind::MovAddr,
        Kind::AddrDep,
        Kind::LoadOffset,
    ],
    ..CANONICAL
};

/// Every straight-line kind the checkers run, 2 threads × 1 step:
/// exhaustive small-scope agreement.
pub const SMALL_SCOPE: Space = Space {
    alphabet: &[
        Kind::Store,
        Kind::StoreAddr,
        Kind::Load,
        Kind::LoadDep,
        Kind::LoadLast,
        Kind::StoreLast,
        Kind::StoreLoaded,
        Kind::ForwardDep,
        Kind::Fence,
        Kind::Alu,
    ],
    steps: 1..=1,
    ..PLAIN
};

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    const SPACES: [Space; 10] = [
        PLAIN,
        PLAIN_CONTEXT,
        DEPENDENT,
        DEPENDENT_SMALL,
        DEPENDENT_THREE,
        CROSS_BACKEND,
        BRANCHY,
        CANONICAL,
        PRINTABLE,
        SMALL_SCOPE,
    ];

    /// Asserts that `program` builds and stays within `space`'s bounds.
    fn assert_within(space: &Space, program: &[Vec<Step>]) {
        let alphabet = space.all_steps();
        assert!(space.threads.contains(&program.len()), "{space:?}: {program:?}");
        for thread in program {
            assert!(space.steps.contains(&thread.len()), "{space:?}: {program:?}");
            assert!(thread.iter().all(|step| alphabet.contains(step)), "{space:?}: {program:?}");
        }
        assert!(space.fits(program), "{space:?}: {program:?} has too many memory events");
    }

    #[test]
    fn samples_build_within_their_bounds_and_repeat_per_seed() {
        for space in &SPACES {
            let mut distinct = HashSet::new();
            for seed in 0..300 {
                let program = space.sample(seed);
                assert_within(space, &program);
                let text = build(&program).to_string();
                assert_eq!(text, build(&space.sample(seed)).to_string(), "{space:?}: seed {seed}");
                distinct.insert(text);
            }
            assert!(distinct.len() >= 10, "{space:?}: 300 seeds gave {} programs", distinct.len());
        }
    }

    #[test]
    fn enumeration_is_size_ordered_without_duplicates() {
        for space in &SPACES {
            let mut seen = HashSet::new();
            let mut size = 0;
            for program in space.enumerate().take(4_000) {
                let next: usize = program.iter().map(Vec::len).sum();
                assert!(next >= size, "{space:?}: size {next} after {size}");
                size = next;
                assert_within(space, &program);
                assert!(seen.insert(program), "{space:?}: a program is listed twice");
            }
        }
        // A small space is listed whole, and a cap keeps exactly what fits.
        let letters = SMALL_SCOPE.all_steps().len();
        assert_eq!(SMALL_SCOPE.enumerate().count(), letters * letters);
        let capped = Space { max_events: Some(3), ..SMALL_SCOPE };
        let fitting = SMALL_SCOPE.enumerate().filter(|program| events(program) <= 3).count();
        assert!(fitting < letters * letters);
        assert_eq!(capped.enumerate().count(), fitting);
    }

    #[test]
    fn branches_to_one_step_share_its_label() {
        let branch = |over| Step::Branch { cond: BranchCond::Ne, over };
        let test = build(&[vec![
            Step::Load(0),
            branch(1),
            branch(0),
            Step::Store { loc: 1, value: 1 },
            branch(u8::MAX),
        ]]);
        let thread = &test.program().threads()[0];
        let labels: Vec<(&str, usize)> =
            thread.labels().iter().map(|(name, &at)| (name.as_str(), at)).collect();
        assert_eq!(labels, [("L3", 3), ("L5", 5)]);
        let to_l3 = thread.instructions().iter().filter(|instr| {
            matches!(instr, crate::Instruction::Branch { target, .. } if target.name() == "L3")
        });
        assert_eq!(to_l3.count(), 2);
    }
}
