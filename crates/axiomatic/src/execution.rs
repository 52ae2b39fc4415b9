//! Concrete executions: identifiers, read-from candidates and resolved values.

use std::fmt;

use gam_core::{ResolvedInstr, RfSource};
use gam_isa::{AluOp, Instruction, Operand, Program, Reg, Value};

/// Identifies one static instruction instance: processor index plus
/// program-order index within that processor's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstrRef {
    /// Processor (thread) index.
    pub proc: usize,
    /// Program-order index within the thread.
    pub idx: usize,
}

impl InstrRef {
    /// Creates an instruction reference.
    #[must_use]
    pub const fn new(proc: usize, idx: usize) -> Self {
        InstrRef { proc, idx }
    }
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}.I{}", self.proc + 1, self.idx + 1)
    }
}

/// A candidate read-from source for a load, before values are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RfCandidate {
    /// The load reads the initial memory value of its (yet unknown) address.
    Init,
    /// The load reads from the store with the given index into
    /// [`ProgramIndex::stores`].
    Store(usize),
}

/// A static index of a program's loads and stores, assigning each store a
/// stable global identifier.
///
/// Besides the public lists, the index keeps per-instruction tables built
/// once per program: each instruction's event, store and load number, and
/// its transfer function with every register operand resolved to the
/// instruction that writes it. Value propagation and the static address
/// analysis run on these tables instead of rescanning the program.
#[derive(Debug, Clone)]
pub struct ProgramIndex {
    /// All loads in the program, in (processor, program-order) order.
    pub loads: Vec<InstrRef>,
    /// All stores in the program, in (processor, program-order) order. The
    /// position in this vector is the store's global identifier.
    pub stores: Vec<InstrRef>,
    /// All memory instructions (loads and stores) in a fixed global order;
    /// the position in this vector is the instruction's *event index* used by
    /// the memory-order search.
    pub memory_events: Vec<InstrRef>,
    /// The flat index of each thread's first instruction, plus one entry
    /// past the last thread; instructions are numbered thread-major.
    pub(crate) starts: Vec<usize>,
    /// The transfer function of each instruction, by flat index.
    pub(crate) transfers: Vec<Transfer>,
    /// The event index of each instruction, by flat index.
    event_of: Vec<Option<usize>>,
    /// The store identifier of each instruction, by flat index.
    store_of: Vec<Option<usize>>,
    /// The position in [`ProgramIndex::loads`] of each instruction, by flat
    /// index.
    pub(crate) load_of: Vec<Option<usize>>,
}

/// Where an operand's value comes from, resolved once per program: an
/// immediate (an unwritten register reads as the immediate zero), or the
/// flat index of the youngest older instruction that writes the register.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    Imm(u64),
    Writer(usize),
}

/// The transfer function of one instruction, with its operands resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transfer {
    Alu {
        op: AluOp,
        lhs: Source,
        rhs: Source,
    },
    Load {
        proc: usize,
        base: Source,
        offset: u64,
    },
    Store {
        base: Source,
        offset: u64,
        data: Source,
    },
    /// Fences and branches: the value zero, no address.
    Zero,
}

impl Transfer {
    /// Whether the instruction is a memory access (and so has an address).
    pub(crate) fn is_memory(self) -> bool {
        matches!(self, Transfer::Load { .. } | Transfer::Store { .. })
    }
}

impl ProgramIndex {
    /// Builds the index of a program.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let threads = program.threads();
        let total = threads.iter().map(|thread| thread.len()).sum();
        let mut index = ProgramIndex {
            loads: Vec::new(),
            stores: Vec::new(),
            memory_events: Vec::new(),
            starts: Vec::with_capacity(threads.len() + 1),
            transfers: Vec::with_capacity(total),
            event_of: vec![None; total],
            store_of: vec![None; total],
            load_of: vec![None; total],
        };
        // The youngest writer of each register so far in the current thread.
        let mut writers: Vec<(Reg, usize)> = Vec::new();
        for (proc, thread) in threads.iter().enumerate() {
            index.starts.push(index.transfers.len());
            writers.clear();
            for (idx, instr) in thread.instructions().iter().enumerate() {
                let flat = index.transfers.len();
                let reference = InstrRef::new(proc, idx);
                let source = |op: &Operand| match op {
                    Operand::Imm(v) => Source::Imm(v.raw()),
                    Operand::Reg(reg) => writers
                        .iter()
                        .find(|(written, _)| written == reg)
                        .map_or(Source::Imm(0), |&(_, writer)| Source::Writer(writer)),
                };
                let (transfer, dst) = match instr {
                    Instruction::Alu { dst, op, lhs, rhs } => {
                        (Transfer::Alu { op: *op, lhs: source(lhs), rhs: source(rhs) }, Some(dst))
                    }
                    Instruction::Load { dst, addr } => {
                        index.load_of[flat] = Some(index.loads.len());
                        index.loads.push(reference);
                        let base = source(&addr.base);
                        (Transfer::Load { proc, base, offset: addr.offset }, Some(dst))
                    }
                    Instruction::Store { addr, data } => {
                        index.store_of[flat] = Some(index.stores.len());
                        index.stores.push(reference);
                        let (base, data) = (source(&addr.base), source(data));
                        (Transfer::Store { base, offset: addr.offset, data }, None)
                    }
                    Instruction::Fence { .. } | Instruction::Branch { .. } => {
                        (Transfer::Zero, None)
                    }
                };
                if instr.is_memory() {
                    index.event_of[flat] = Some(index.memory_events.len());
                    index.memory_events.push(reference);
                }
                index.transfers.push(transfer);
                if let Some(&dst) = dst {
                    match writers.iter_mut().find(|(written, _)| *written == dst) {
                        Some(entry) => entry.1 = flat,
                        None => writers.push((dst, flat)),
                    }
                }
            }
        }
        index.starts.push(total);
        index
    }

    /// The flat (thread-major) index of the instruction at `reference`, or
    /// `None` if the program has no such instruction.
    #[must_use]
    pub(crate) fn flat(&self, reference: InstrRef) -> Option<usize> {
        let start = *self.starts.get(reference.proc)?;
        let end = *self.starts.get(reference.proc + 1)?;
        (start + reference.idx < end).then_some(start + reference.idx)
    }

    /// Returns the global store identifier of the store at `reference`.
    #[must_use]
    pub fn store_id(&self, reference: InstrRef) -> Option<usize> {
        self.store_of[self.flat(reference)?]
    }

    /// Returns the event index (position in [`ProgramIndex::memory_events`])
    /// of the memory instruction at `reference`.
    #[must_use]
    pub fn event_index(&self, reference: InstrRef) -> Option<usize> {
        self.event_of[self.flat(reference)?]
    }
}

/// A fully concretised execution candidate: every instruction has a result
/// value, every memory instruction an address, and every load a read-from
/// source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteExecution {
    /// Per-thread, per-instruction result values (ALU destination value, load
    /// value, or store data).
    pub values: Vec<Vec<Value>>,
    /// Per-thread, per-instruction resolved addresses (only memory
    /// instructions have one).
    pub addresses: Vec<Vec<Option<u64>>>,
    /// Per-thread, per-instruction read-from sources (only loads have one).
    pub rf: Vec<Vec<Option<RfSource>>>,
}

impl ConcreteExecution {
    /// An execution shaped like `program` with every value zero and no
    /// address or read-from source, to be filled in place.
    #[must_use]
    pub(crate) fn blank(program: &Program) -> Self {
        let threads = program.threads();
        ConcreteExecution {
            values: threads.iter().map(|t| vec![Value::ZERO; t.len()]).collect(),
            addresses: threads.iter().map(|t| vec![None; t.len()]).collect(),
            rf: threads.iter().map(|t| vec![None; t.len()]).collect(),
        }
    }

    /// The result value of the instruction at `reference`.
    #[must_use]
    pub fn value(&self, reference: InstrRef) -> Value {
        self.values[reference.proc][reference.idx]
    }

    /// The resolved address of the memory instruction at `reference`.
    #[must_use]
    pub fn address(&self, reference: InstrRef) -> Option<u64> {
        self.addresses[reference.proc][reference.idx]
    }

    /// The read-from source of the load at `reference`.
    #[must_use]
    pub fn rf_source(&self, reference: InstrRef) -> Option<RfSource> {
        self.rf[reference.proc][reference.idx]
    }

    /// Builds the resolved-instruction view of one thread, the input to
    /// `gam_core::preserved_program_order`.
    #[must_use]
    pub fn resolved_thread(&self, program: &Program, proc: usize) -> Vec<ResolvedInstr> {
        let thread = &program.threads()[proc];
        thread
            .instructions()
            .iter()
            .enumerate()
            .map(|(idx, instr)| {
                let reference = InstrRef::new(proc, idx);
                ResolvedInstr::from_instruction(
                    instr,
                    self.address(reference),
                    self.rf_source(reference),
                )
            })
            .collect()
    }
}

/// The index of the youngest instruction of thread `proc` that writes `reg`
/// (a register no instruction writes reads as zero).
pub(crate) fn last_writer(program: &Program, proc: usize, reg: Reg) -> Option<usize> {
    program.threads()[proc].instructions().iter().rposition(|instr| instr.writes(reg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;
    use gam_isa::{Addr, Loc, Operand, ProcId, Reg, ThreadProgram};

    #[test]
    fn instr_ref_display() {
        assert_eq!(InstrRef::new(0, 0).to_string(), "P1.I1");
        assert_eq!(InstrRef::new(2, 3).to_string(), "P3.I4");
    }

    #[test]
    fn program_index_counts_dekker() {
        let test = library::dekker();
        let index = ProgramIndex::new(test.program());
        assert_eq!(index.loads.len(), 2);
        assert_eq!(index.stores.len(), 2);
        assert_eq!(index.memory_events.len(), 4);
        for (i, &event) in index.memory_events.iter().enumerate() {
            assert_eq!(index.event_index(event), Some(i));
        }
        assert_eq!(index.store_id(index.stores[1]), Some(1));
        assert_eq!(index.store_id(InstrRef::new(0, 1)), None, "the load is not a store");
        assert_eq!(index.event_index(InstrRef::new(0, 2)), None, "past the end of the thread");
        assert_eq!(index.event_index(InstrRef::new(2, 0)), None, "no third thread");
    }

    #[test]
    fn concrete_execution_accessors() {
        let a = Loc::new("a");
        let mut t0 = ThreadProgram::builder(ProcId::new(0));
        t0.store(Addr::loc(a), Operand::imm(7)).load(Reg::new(1), Addr::loc(a));
        let program = gam_isa::Program::new(vec![t0.build()]);
        let exec = ConcreteExecution {
            values: vec![vec![Value::new(7), Value::new(7)]],
            addresses: vec![vec![Some(a.address()), Some(a.address())]],
            rf: vec![vec![None, Some(RfSource::Store(0))]],
        };
        assert_eq!(exec.value(InstrRef::new(0, 0)), Value::new(7));
        assert_eq!(exec.address(InstrRef::new(0, 1)), Some(a.address()));
        assert_eq!(exec.rf_source(InstrRef::new(0, 1)), Some(RfSource::Store(0)));
        assert_eq!(exec.rf_source(InstrRef::new(0, 0)), None);
        assert_eq!(last_writer(&program, 0, Reg::new(1)), Some(1));
        assert_eq!(last_writer(&program, 0, Reg::new(9)), None);
        let resolved = exec.resolved_thread(&program, 0);
        assert_eq!(resolved.len(), 2);
        assert!(resolved[0].is_store());
        assert!(resolved[1].is_load());
        assert_eq!(resolved[1].rf_source(), Some(RfSource::Store(0)));
    }
}
