//! The SC abstract machine (Figure 1 of the paper).
//!
//! All processors are connected directly to a monolithic memory. In one step
//! a single processor executes its next instruction atomically: reg-to-reg
//! and branch instructions update local state, loads read the monolithic
//! memory instantaneously, stores update it instantaneously. Fences are
//! no-ops under SC.

use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Instruction, Operand, Program, Reg, ThreadProgram, Value};

use crate::codec;
use crate::footprint;
use crate::machine::{AbstractMachine, Action, Footprint, LabeledMachine};
use crate::mem::{Memory, RegFile};

/// Sequential per-processor state: a register file and a program counter.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct SeqProcState {
    /// Register file (registers not present hold zero).
    pub regs: RegFile,
    /// Index of the next instruction to execute.
    pub pc: usize,
}

// Hand-written so `clone_from` reuses the register file's buffer.
impl Clone for SeqProcState {
    fn clone(&self) -> Self {
        SeqProcState { regs: self.regs.clone(), pc: self.pc }
    }

    fn clone_from(&mut self, source: &Self) {
        self.regs.clone_from(&source.regs);
        self.pc = source.pc;
    }
}

impl SeqProcState {
    /// Reads a register (zero if never written).
    #[must_use]
    pub fn reg(&self, reg: Reg) -> Value {
        self.regs.read(reg)
    }

    /// Evaluates an operand against the register file.
    #[must_use]
    pub fn operand(&self, operand: &Operand) -> Value {
        match operand {
            Operand::Imm(v) => *v,
            Operand::Reg(r) => self.reg(*r),
        }
    }
}

/// Resolves the next program counter of a sequentially executed instruction,
/// returning `(new_pc, Some((reg, value)))` for register writes.
pub(crate) fn next_pc(
    thread: &ThreadProgram,
    pc: usize,
    taken: bool,
    instr: &Instruction,
) -> usize {
    if let Instruction::Branch { target, .. } = instr {
        if taken {
            return thread.resolve_label(target).unwrap_or(thread.len());
        }
    }
    pc + 1
}

/// The SC machine for one litmus test.
#[derive(Debug, Clone)]
pub struct ScMachine {
    program: Program,
    initial_memory: Memory,
    observed: Vec<Observation>,
    /// `suffix[proc][pc]`: the memory accesses the thread can still perform
    /// (drives the explorer's footprint-based partial-order reduction).
    suffix: Vec<Vec<Footprint>>,
}

/// A configuration of the SC machine.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ScState {
    /// The monolithic memory.
    pub memory: Memory,
    /// Per-processor sequential state.
    pub procs: Vec<SeqProcState>,
}

// Hand-written so `clone_from` reuses every nested buffer (successor pool).
impl Clone for ScState {
    fn clone(&self) -> Self {
        ScState { memory: self.memory.clone(), procs: self.procs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.memory.clone_from(&source.memory);
        crate::mem::clone_vec_from(&mut self.procs, &source.procs);
    }
}

impl crate::arena::ComposedState for ScState {
    type Mem = Memory;
    type Proc = SeqProcState;

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn procs(&self) -> &[SeqProcState] {
        &self.procs
    }

    fn procs_mut(&mut self) -> &mut [SeqProcState] {
        &mut self.procs
    }

    fn mem_bytes(mem: &Memory) -> usize {
        std::mem::size_of::<Memory>() + mem.approx_bytes()
    }

    fn proc_bytes(proc: &SeqProcState) -> usize {
        std::mem::size_of::<SeqProcState>() + proc.regs.approx_bytes()
    }

    fn encode_mem(mem: &Memory, out: &mut Vec<u8>) {
        mem.encode(out);
    }

    fn decode_mem(input: &mut &[u8]) -> Option<Memory> {
        Memory::decode(input)
    }

    fn encode_proc(proc: &SeqProcState, out: &mut Vec<u8>) {
        encode_seq_proc(proc, out);
    }

    fn decode_proc(input: &mut &[u8]) -> Option<SeqProcState> {
        decode_seq_proc(input)
    }
}

/// Serializes a [`SeqProcState`] for checkpoint snapshots (shared with the
/// TSO machine, whose per-proc state embeds one).
pub(crate) fn encode_seq_proc(proc: &SeqProcState, out: &mut Vec<u8>) {
    proc.regs.encode(out);
    codec::put_usize(out, proc.pc);
}

/// Inverse of [`encode_seq_proc`] (`None` on truncation).
pub(crate) fn decode_seq_proc(input: &mut &[u8]) -> Option<SeqProcState> {
    let regs = RegFile::decode(input)?;
    let pc = codec::take_usize(input)?;
    Some(SeqProcState { regs, pc })
}

impl ScMachine {
    /// Builds the SC machine for a litmus test.
    #[must_use]
    pub fn new(test: &LitmusTest) -> Self {
        let sets = footprint::instr_addr_sets(test);
        let suffix = footprint::suffix_footprints(test.program(), &sets);
        ScMachine {
            program: test.program().clone(),
            initial_memory: Memory::from_map(test.initial_memory()),
            observed: test.observed().to_vec(),
            suffix,
        }
    }
}

impl AbstractMachine for ScMachine {
    type State = ScState;

    fn initial_state(&self) -> ScState {
        ScState {
            memory: self.initial_memory.clone(),
            procs: vec![SeqProcState::default(); self.program.num_threads()],
        }
    }

    fn is_final(&self, state: &ScState) -> bool {
        state.procs.iter().zip(self.program.threads()).all(|(proc, thread)| proc.pc >= thread.len())
    }

    fn outcome(&self, state: &ScState) -> Outcome {
        let mut outcome = Outcome::new();
        for observation in &self.observed {
            let value = match observation {
                Observation::Register(proc, reg) => state.procs[proc.index()].reg(*reg),
                Observation::Memory(loc) => state.memory.read(loc.address()),
            };
            outcome.set(*observation, value);
        }
        outcome
    }

    fn name(&self) -> &str {
        "SC abstract machine"
    }
}

impl LabeledMachine for ScMachine {
    fn future_footprint(&self, state: &ScState, thread: usize) -> Footprint {
        // In-order execution: the future accesses are exactly the remaining
        // program suffix (the whole thread when branches can jump back).
        let suffix = &self.suffix[thread];
        suffix[state.procs[thread].pc.min(suffix.len() - 1)].clone()
    }

    fn labeled_successors(&self, state: &ScState) -> Vec<(Action, ScState)> {
        let mut out = Vec::new();
        self.labeled_successors_into(state, &mut out);
        out
    }

    fn labeled_successors_into(&self, state: &ScState, out: &mut Vec<(Action, ScState)>) {
        self.successors_into_buf(state, crate::machine::SuccBuf::new(out));
    }

    fn labeled_successors_sparse_into(&self, state: &ScState, out: &mut Vec<(Action, ScState)>) {
        self.successors_into_buf(state, crate::machine::SuccBuf::new_sparse(out));
    }
}

impl ScMachine {
    /// The rule pass shared by the full and sparse successor entry points.
    fn successors_into_buf(&self, state: &ScState, mut buf: crate::machine::SuccBuf<'_, ScState>) {
        for (proc_index, proc) in state.procs.iter().enumerate() {
            let thread = &self.program.threads()[proc_index];
            if proc.pc >= thread.len() {
                continue;
            }
            let instr = &thread.instructions()[proc.pc];
            // The action id is the program counter of the executed
            // instruction: each processor has exactly one enabled step, and
            // another thread's independent action never moves this pc, so
            // the label is stable. Every rule input is read from the parent
            // state *before* the successor slot is taken from the pool.
            let id = proc.pc as u32;
            match instr {
                Instruction::Alu { dst, op, lhs, rhs } => {
                    let value = op.apply(proc.operand(lhs), proc.operand(rhs));
                    let next = buf.push_from(state, Action::local(proc_index, id));
                    let next_proc = &mut next.procs[proc_index];
                    next_proc.regs.write(*dst, value);
                    next_proc.pc += 1;
                }
                Instruction::Load { dst, addr } => {
                    let address = addr.evaluate(proc.operand(&addr.base)).raw();
                    let value = state.memory.read(address);
                    let next = buf.push_from(state, Action::read(proc_index, id, address));
                    let next_proc = &mut next.procs[proc_index];
                    next_proc.regs.write(*dst, value);
                    next_proc.pc += 1;
                }
                Instruction::Store { addr, data } => {
                    let address = addr.evaluate(proc.operand(&addr.base)).raw();
                    let value = proc.operand(data);
                    let next = buf.push_from(state, Action::commit(proc_index, id, address));
                    next.memory.write(address, value);
                    next.procs[proc_index].pc += 1;
                }
                Instruction::Fence { .. } => {
                    let next = buf.push_from(state, Action::fence(proc_index, id));
                    next.procs[proc_index].pc += 1;
                }
                Instruction::Branch { cond, lhs, rhs, .. } => {
                    let taken = cond.holds(proc.operand(lhs), proc.operand(rhs));
                    let target = next_pc(thread, proc.pc, taken, instr);
                    let next = buf.push_from(state, Action::local(proc_index, id));
                    next.procs[proc_index].pc = target;
                }
            }
        }
        buf.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use gam_isa::litmus::library;
    use gam_isa::{Addr, BranchCond, Loc, ProcId};

    #[test]
    fn dekker_under_sc_forbids_both_zero() {
        let test = library::dekker();
        let machine = ScMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        assert!(!exploration.outcomes.is_empty());
        assert!(
            !exploration.outcomes.iter().any(|o| test.condition().matched_by(o)),
            "SC forbids r1=0, r2=0"
        );
        // But the SC-permitted outcomes are present: at least one load sees 1.
        assert!(exploration.outcomes.len() >= 3);
    }

    #[test]
    fn mp_under_sc_forbids_stale_read() {
        let test = library::mp();
        let machine = ScMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        assert!(!exploration.outcomes.iter().any(|o| test.condition().matched_by(o)));
    }

    #[test]
    fn single_thread_with_branch_terminates() {
        // r1 = Ld [a]; if r1 == 0 goto end; St [b] 1; end:
        let a = Loc::new("a");
        let b = Loc::new("b");
        let mut t = gam_isa::ThreadProgram::builder(ProcId::new(0));
        t.load(Reg::new(1), Addr::loc(a))
            .branch(BranchCond::Eq, Operand::reg(Reg::new(1)), Operand::imm(0), "end")
            .store(Addr::loc(b), Operand::imm(1))
            .label("end");
        let program = Program::new(vec![t.build()]);
        let test = LitmusTest::builder("branchy", program)
            .init(a, 0u64)
            .observe_mem(b)
            .expect_mem(b, 1u64)
            .build();
        let machine = ScMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        // The branch is taken (r1 == 0), so the store is skipped and b stays 0.
        assert_eq!(exploration.outcomes.len(), 1);
        assert!(!exploration.outcomes.iter().any(|o| test.condition().matched_by(o)));
    }

    #[test]
    fn initial_memory_is_observed() {
        let a = Loc::new("a");
        let mut t = gam_isa::ThreadProgram::builder(ProcId::new(0));
        t.load(Reg::new(1), Addr::loc(a));
        let program = Program::new(vec![t.build()]);
        let test = LitmusTest::builder("init", program)
            .init(a, 5u64)
            .expect_reg(ProcId::new(0), Reg::new(1), 5u64)
            .build();
        let machine = ScMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        assert!(exploration.outcomes.iter().any(|o| test.condition().matched_by(o)));
    }

    #[test]
    fn labels_name_each_threads_first_store() {
        use crate::machine::{ActionKind, LabeledMachine};
        let test = library::dekker();
        let machine = ScMachine::new(&test);
        let state = machine.initial_state();
        let labeled = machine.labeled_successors(&state);
        // Dekker's first instruction on each thread is a store: both actions
        // are memory commits by distinct threads.
        assert_eq!(labeled.len(), 2);
        for (index, (action, _)) in labeled.iter().enumerate() {
            assert_eq!(action.thread as usize, index);
            assert_eq!(action.kind, ActionKind::MemoryCommit);
        }
    }

    #[test]
    fn seq_proc_state_defaults_to_zero() {
        let proc = SeqProcState::default();
        assert_eq!(proc.reg(Reg::new(3)), Value::ZERO);
        assert_eq!(proc.operand(&Operand::imm(9)), Value::new(9));
    }
}
