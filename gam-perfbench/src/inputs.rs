//! Seeded inputs. Every text the program receives is generated here from the
//! run's seed; the same seed always yields byte-identical texts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;

use gam_core::ModelKind;
use gam_frontend::print_litmus;
use gam_isa::litmus::{LitmusTest, Observation};
use gam_isa::prelude::{Addr, Loc, Operand, ProcId, Program, Reg, ThreadProgram};
use gam_isa::{Instruction, Value};
use gam_operational::{big_tests, stress_tests};
use gam_verify::expectations::{parse_expectations, OwnedExpectation};

/// The four models with an operational machine, checked on every workload.
pub const MODELS: [ModelKind; 4] = [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0];

/// SplitMix64: a tiny seeded generator owned by the benchmark, so the inputs
/// do not depend on any generator inside the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so the workloads draw
    /// independent sequences from one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One input program as the program receives it: litmus text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// The test name inside the text.
    pub name: String,
    /// The litmus text.
    pub text: Arc<str>,
}

impl Input {
    fn printed(test: &LitmusTest) -> Input {
        Input { name: test.name().to_string(), text: print_litmus(test).into() }
    }
}

/// The paper tests of `tests/corpus` and their hand-written expectations.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The `.litmus` texts, in file-name order.
    pub inputs: Vec<Input>,
    /// Rows of `expectations.txt`.
    pub expectations: Vec<OwnedExpectation>,
}

impl Corpus {
    /// Reads every `*.litmus` file of `dir` and its `expectations.txt`.
    ///
    /// # Errors
    ///
    /// A message naming the file that could not be read or parsed.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let read = |path: &Path| {
            std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))
        };
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|err| format!("{}: {err}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|entry| entry.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "litmus"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("{}: no .litmus files", dir.display()));
        }
        let mut inputs = Vec::new();
        for path in &paths {
            let name =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            inputs.push(Input { name, text: read(path)?.into() });
        }
        let expectations = parse_expectations(&read(&dir.join("expectations.txt"))?)
            .map_err(|err| format!("{}/expectations.txt: {err}", dir.display()))?;
        Ok(Corpus { inputs, expectations })
    }

    /// The expected verdict of a corpus test under a model.
    #[must_use]
    pub fn expected(&self, test: &str, model: ModelKind) -> Option<bool> {
        self.expectations.iter().find(|row| row.test == test).map(|row| row.allowed(model))
    }
}

/// Memory-event counts of one round of the stress list: the generator's
/// mix, fixed and interleaved (the axiomatic cost grows steeply with memory
/// events).
pub const STRESS_ROUND: [usize; 30] =
    [6, 4, 8, 3, 5, 6, 9, 2, 7, 4, 6, 10, 5, 3, 6, 8, 4, 11, 7, 6, 5, 3, 9, 6, 4, 10, 5, 7, 8, 6];

/// Rounds in the stress list: few enough that the timed loop goes through
/// the list several times in a run, so each check's cost is a median.
pub const STRESS_ROUNDS: usize = 8;

/// Generator seed of the stress population (that of `tests/corpus-stress`).
pub const STRESS_POPULATION_SEED: u64 = 2026;

/// Programs drawn from `stress_tests` to fill the rounds.
const STRESS_POOL: usize = 3000;

/// The stress programs of `stress-axiomatic`: a fixed draw from
/// [`stress_tests`], sorted into [`STRESS_ROUNDS`] rounds of
/// [`STRESS_ROUND`], each program renamed from `seed` (threads, registers
/// and locations). Each entry carries its memory-event count.
///
/// The draw is fixed because the cost of programs with the same number of
/// memory events still differs by orders of magnitude: with a seeded draw of
/// 240 programs, the p90 check cost moved by 30% between seeds. Renaming
/// keeps the cost and changes every text.
#[must_use]
pub fn stress_inputs(seed: u64) -> Vec<(Input, usize)> {
    let mut buckets: BTreeMap<usize, Vec<LitmusTest>> = BTreeMap::new();
    for test in stress_tests(STRESS_POPULATION_SEED, STRESS_POOL) {
        buckets.entry(test.program().memory_instruction_count()).or_default().push(test);
    }
    let mut rng = Rng::new(seed, 1);
    let mut taken: BTreeMap<usize, usize> = BTreeMap::new();
    let mut inputs = Vec::with_capacity(STRESS_ROUNDS * STRESS_ROUND.len());
    for _ in 0..STRESS_ROUNDS {
        for &events in &STRESS_ROUND {
            let bucket = &buckets[&events];
            let next = taken.entry(events).or_insert(0);
            let test = &bucket[*next % bucket.len()];
            inputs.push((Input::printed(&rename(test, &mut rng, test.name())), events));
            *next += 1;
        }
    }
    inputs
}

/// Generator seed of the big population (that of `tests/corpus-big`).
pub const BIG_POPULATION_SEED: u64 = 2024;

/// Programs in the big population: the first three of `tests/corpus-big`,
/// few enough that each check repeats about five times in a run.
pub const BIG_POPULATION: usize = 3;

/// The big programs of `big-explore`: the fixed population of
/// [`big_tests`] behind `tests/corpus-big`, whatever the seed. Big programs
/// differ tenfold in state count and only a dozen checks fit in a run, so a
/// seeded draw moves checks/s by tens of percent between seeds; renaming
/// them moves the sharded and spilling explorers' timing as much (state
/// hashes change), so the seed changes nothing here.
#[must_use]
pub fn big_inputs() -> Vec<Input> {
    big_tests(BIG_POPULATION_SEED, BIG_POPULATION).iter().map(Input::printed).collect()
}

/// How a serve request relates to the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A program never sent before: a miss, the engine, a journal insert.
    Fresh,
    /// An earlier program with threads, registers and locations renamed: a
    /// hit through the canonicalizer while the entry is cached.
    Variant,
    /// The exact text of an earlier request: a hit while cached.
    Repeat,
}

/// One request of the serve stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the stream.
    pub id: usize,
    /// How the request was made.
    pub kind: Kind,
    /// The distinct program it renames or repeats.
    pub program: usize,
    /// The litmus text sent.
    pub input: Input,
}

/// Recent requests a repeat draws from. This window, the variant window and
/// the 20/30/50 mix of [`ServeStream`] are set by hand, not taken from a
/// measured trace; later changes compare against these values.
const REPEAT_WINDOW: usize = 256;
/// Recent programs a variant draws from.
const VARIANT_WINDOW: usize = 128;
/// Fresh programs have at most this many memory events, so a miss costs
/// milliseconds and the stream's cost does not hinge on a rare heavy draw.
pub const SERVE_MAX_EVENTS: usize = 6;

/// The seeded serve stream of stress programs with at most
/// [`SERVE_MAX_EVENTS`] memory events: each request is fresh (20%), a renamed variant
/// of a recent program (30%) or an exact repeat of a recent request (50%).
/// Requests are made on demand, in order, so any prefix is the same for a
/// seed however far a run gets; only the recent windows are kept.
#[derive(Debug)]
pub struct ServeStream {
    seed: u64,
    rng: Rng,
    /// Programs introduced so far.
    programs: usize,
    /// Programs drawn from the generator so far (some are too big).
    draws: u64,
    /// Requests made so far.
    sent: usize,
    /// The last [`VARIANT_WINDOW`] programs, oldest first.
    recent_programs: VecDeque<(usize, LitmusTest)>,
    /// The last [`REPEAT_WINDOW`] requests, oldest first.
    recent_requests: VecDeque<Request>,
}

impl ServeStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ServeStream {
        ServeStream {
            seed,
            rng: Rng::new(seed, 3),
            programs: 0,
            draws: 0,
            sent: 0,
            recent_programs: VecDeque::new(),
            recent_requests: VecDeque::new(),
        }
    }

    /// Requests made so far.
    #[must_use]
    pub fn sent_count(&self) -> usize {
        self.sent
    }

    /// Programs introduced so far.
    #[must_use]
    pub fn distinct_programs(&self) -> usize {
        self.programs
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let id = self.sent;
        let roll = self.rng.below(10);
        let request = if self.programs == 0 || roll < 2 {
            let program = self.programs;
            let test = loop {
                self.draws += 1;
                let test = stress_tests(self.seed ^ (self.draws << 20), 1).remove(0);
                if test.program().memory_instruction_count() <= SERVE_MAX_EVENTS {
                    break test;
                }
            };
            let test = rename(
                &test,
                &mut Rng::new(self.seed, 4 + program as u64),
                &format!("serve-{program}"),
            );
            let input = Input::printed(&test);
            self.programs += 1;
            if self.recent_programs.len() == VARIANT_WINDOW {
                self.recent_programs.pop_front();
            }
            self.recent_programs.push_back((program, test));
            Request { id, kind: Kind::Fresh, program, input }
        } else if roll < 5 {
            let back = self.rng.below(self.recent_programs.len());
            let (program, test) = &self.recent_programs[self.recent_programs.len() - 1 - back];
            let name = format!("serve-{program}-v{id}");
            let input = Input::printed(&rename(test, &mut self.rng, &name));
            Request { id, kind: Kind::Variant, program: *program, input }
        } else {
            let back = self.rng.below(self.recent_requests.len());
            let earlier = &self.recent_requests[self.recent_requests.len() - 1 - back];
            Request {
                id,
                kind: Kind::Repeat,
                program: earlier.program,
                input: earlier.input.clone(),
            }
        };
        self.sent += 1;
        if self.recent_requests.len() == REPEAT_WINDOW {
            self.recent_requests.pop_front();
        }
        self.recent_requests.push_back(request.clone());
        request
    }

    /// Warm-up texts, disjoint from the stream's programs and as small: a
    /// fixed draw, renamed from the seed. A seeded draw of 16 programs moved
    /// the set-up time twofold between seeds.
    #[must_use]
    pub fn warmup(&self, count: usize) -> Vec<Input> {
        stress_tests(STRESS_POPULATION_SEED ^ 0x5eed_0000, count * 4)
            .iter()
            .filter(|test| test.program().memory_instruction_count() <= SERVE_MAX_EVENTS)
            .take(count)
            .enumerate()
            .map(|(i, test)| {
                Input::printed(&rename(test, &mut Rng::new(self.seed, 9), &format!("warmup-{i}")))
            })
            .collect()
    }
}

/// Location names the renamer draws from: single letters the printer knows,
/// except `r`, which reads like a register.
const LOCATION_NAMES: [&str; 25] = [
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "s", "t",
    "u", "v", "w", "x", "y", "z",
];

/// Renames a straight-line test: threads permuted, registers renumbered per
/// thread, and locations (including location addresses held as data) mapped
/// to fresh names. The result is the same test up to naming, so every model
/// gives it the same verdict.
///
/// # Panics
///
/// On a program with branches (the generators make none).
#[must_use]
pub fn rename(test: &LitmusTest, rng: &mut Rng, name: &str) -> LitmusTest {
    let threads = test.program().threads();
    let mut order: Vec<usize> = (0..threads.len()).collect();
    rng.shuffle(&mut order);
    let mut new_proc = vec![ProcId::new(0); threads.len()];
    for (new, &old) in order.iter().enumerate() {
        new_proc[old] = ProcId::new(new);
    }

    // Registers: a random renumbering per thread.
    let mut reg_maps: Vec<BTreeMap<Reg, Reg>> = Vec::new();
    for thread in threads {
        let mut used = BTreeSet::new();
        for instr in thread.instructions() {
            used.extend(instr.read_set());
            used.extend(instr.write_set());
        }
        let used: Vec<Reg> = used.into_iter().collect();
        let mut numbers: Vec<u32> = (1..=used.len() as u32).collect();
        rng.shuffle(&mut numbers);
        reg_maps.push(used.into_iter().zip(numbers.into_iter().map(Reg::new)).collect());
    }

    // Locations: every address in the location region that the test names.
    let mut locations = BTreeSet::new();
    let mut note = |value: Value| {
        if value.raw() >= Loc::REGION_BASE {
            locations.insert(value.raw());
        }
    };
    for (_, _, instr) in test.program().iter_instructions() {
        for operand in operands(instr) {
            if let Operand::Imm(value) = operand {
                note(value);
            }
        }
    }
    for (&addr, &value) in test.initial_memory() {
        note(Value::new(addr));
        note(value);
    }
    for observation in test.observed() {
        if let Observation::Memory(loc) = observation {
            note(loc.value());
        }
    }
    let mut names = LOCATION_NAMES.to_vec();
    rng.shuffle(&mut names);
    let loc_map: BTreeMap<u64, u64> = locations
        .into_iter()
        .zip(names)
        .map(|(old, name)| (old, Loc::new(name).address()))
        .collect();
    let value = |v: Value| Value::new(loc_map.get(&v.raw()).copied().unwrap_or(v.raw()));
    let observation = |o: &Observation| match *o {
        Observation::Register(proc, reg) => {
            Observation::Register(new_proc[proc.index()], reg_maps[proc.index()][&reg])
        }
        Observation::Memory(loc) => {
            Observation::Memory(Loc::from_address(value(loc.value()).raw()))
        }
    };

    let programs = order
        .iter()
        .enumerate()
        .map(|(new, &old)| {
            let regs = &reg_maps[old];
            let operand = |o: Operand| match o {
                Operand::Reg(r) => Operand::Reg(regs[&r]),
                Operand::Imm(v) => Operand::Imm(value(v)),
            };
            let addr = |a: Addr| Addr { base: operand(a.base), offset: a.offset };
            let mut builder = ThreadProgram::builder(ProcId::new(new));
            for instr in threads[old].instructions() {
                builder.push(match *instr {
                    Instruction::Alu { dst, op, lhs, rhs } => Instruction::Alu {
                        dst: regs[&dst],
                        op,
                        lhs: operand(lhs),
                        rhs: operand(rhs),
                    },
                    Instruction::Load { dst, addr: a } => {
                        Instruction::Load { dst: regs[&dst], addr: addr(a) }
                    }
                    Instruction::Store { addr: a, data } => {
                        Instruction::Store { addr: addr(a), data: operand(data) }
                    }
                    Instruction::Fence { kind } => Instruction::Fence { kind },
                    Instruction::Branch { .. } => panic!("rename supports straight-line programs"),
                });
            }
            builder.build()
        })
        .collect();
    let mut builder =
        LitmusTest::builder(name, Program::new(programs)).description(test.description());
    for (&addr, &init) in test.initial_memory() {
        builder = builder.init(Loc::from_address(value(Value::new(addr)).raw()), value(init));
    }
    for o in test.observed() {
        builder = builder.observe(observation(o));
    }
    for (o, &v) in test.condition().iter() {
        builder = builder.expect(observation(o), value(v));
    }
    builder.build()
}

fn operands(instr: &Instruction) -> Vec<Operand> {
    match *instr {
        Instruction::Alu { lhs, rhs, .. } => vec![lhs, rhs],
        Instruction::Load { addr, .. } => vec![addr.base],
        Instruction::Store { addr, data } => vec![addr.base, data],
        Instruction::Fence { .. } => Vec::new(),
        Instruction::Branch { lhs, rhs, .. } => vec![lhs, rhs],
    }
}
