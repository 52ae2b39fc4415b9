//! A TSO abstract machine: the SC machine plus per-processor FIFO store
//! buffers.
//!
//! Stores are enqueued into the issuing processor's store buffer and drain to
//! the monolithic memory in FIFO order at non-deterministic times. Loads
//! first search their own store buffer (youngest matching entry wins) and
//! fall back to memory. A fence that orders stores before loads
//! (`FenceSL`) may only execute when the store buffer is empty; the other
//! basic fences are no-ops because TSO already preserves those orderings.

use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Instruction, MemAccessType, Program, Value};

use crate::codec;
use crate::footprint;
use crate::machine::{AbstractMachine, Action, Footprint, LabeledMachine};
use crate::mem::Memory;
use crate::sc::{next_pc, SeqProcState};

/// The TSO machine for one litmus test.
#[derive(Debug, Clone)]
pub struct TsoMachine {
    program: Program,
    initial_memory: Memory,
    observed: Vec<Observation>,
    /// `suffix[proc][pc]`: the memory accesses the thread's remaining
    /// instructions can perform; pending store-buffer entries are added
    /// dynamically in `future_footprint`.
    suffix: Vec<Vec<Footprint>>,
}

/// Per-processor TSO state: sequential state plus a FIFO store buffer.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct TsoProcState {
    /// Register file and program counter.
    pub seq: SeqProcState,
    /// FIFO store buffer, oldest entry first.
    pub store_buffer: Vec<(u64, Value)>,
}

// Hand-written so `clone_from` reuses the buffers (successor pooling).
impl Clone for TsoProcState {
    fn clone(&self) -> Self {
        TsoProcState { seq: self.seq.clone(), store_buffer: self.store_buffer.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.seq.clone_from(&source.seq);
        self.store_buffer.clear();
        self.store_buffer.extend_from_slice(&source.store_buffer);
    }
}

/// A configuration of the TSO machine.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TsoState {
    /// The monolithic memory.
    pub memory: Memory,
    /// Per-processor state.
    pub procs: Vec<TsoProcState>,
}

// Hand-written so `clone_from` reuses every nested buffer (successor pool).
impl Clone for TsoState {
    fn clone(&self) -> Self {
        TsoState { memory: self.memory.clone(), procs: self.procs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.memory.clone_from(&source.memory);
        crate::mem::clone_vec_from(&mut self.procs, &source.procs);
    }
}

impl crate::arena::ComposedState for TsoState {
    type Mem = Memory;
    type Proc = TsoProcState;

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn procs(&self) -> &[TsoProcState] {
        &self.procs
    }

    fn procs_mut(&mut self) -> &mut [TsoProcState] {
        &mut self.procs
    }

    fn mem_bytes(mem: &Memory) -> usize {
        std::mem::size_of::<Memory>() + mem.approx_bytes()
    }

    fn proc_bytes(proc: &TsoProcState) -> usize {
        std::mem::size_of::<TsoProcState>()
            + proc.seq.regs.approx_bytes()
            + proc.store_buffer.len() * std::mem::size_of::<(u64, Value)>()
    }

    fn encode_mem(mem: &Memory, out: &mut Vec<u8>) {
        mem.encode(out);
    }

    fn decode_mem(input: &mut &[u8]) -> Option<Memory> {
        Memory::decode(input)
    }

    fn encode_proc(proc: &TsoProcState, out: &mut Vec<u8>) {
        crate::sc::encode_seq_proc(&proc.seq, out);
        codec::put_u32(out, u32::try_from(proc.store_buffer.len()).expect("buffer fits u32"));
        for &(addr, value) in &proc.store_buffer {
            codec::put_u64(out, addr);
            codec::put_u64(out, value.raw());
        }
    }

    fn decode_proc(input: &mut &[u8]) -> Option<TsoProcState> {
        let seq = crate::sc::decode_seq_proc(input)?;
        let len = codec::take_u32(input)? as usize;
        let mut store_buffer = Vec::with_capacity(len);
        for _ in 0..len {
            let addr = codec::take_u64(input)?;
            let value = Value::new(codec::take_u64(input)?);
            store_buffer.push((addr, value));
        }
        Some(TsoProcState { seq, store_buffer })
    }
}

impl TsoMachine {
    /// Builds the TSO machine for a litmus test.
    #[must_use]
    pub fn new(test: &LitmusTest) -> Self {
        let sets = footprint::instr_addr_sets(test);
        let suffix = footprint::suffix_footprints(test.program(), &sets);
        TsoMachine {
            program: test.program().clone(),
            initial_memory: Memory::from_map(test.initial_memory()),
            observed: test.observed().to_vec(),
            suffix,
        }
    }

    fn read(&self, state: &TsoState, proc_index: usize, addr: u64) -> Value {
        // Youngest store-buffer entry for the address wins; otherwise memory.
        state.procs[proc_index]
            .store_buffer
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| state.memory.read(addr))
    }
}

impl AbstractMachine for TsoMachine {
    type State = TsoState;

    fn initial_state(&self) -> TsoState {
        TsoState {
            memory: self.initial_memory.clone(),
            procs: vec![TsoProcState::default(); self.program.num_threads()],
        }
    }

    fn is_final(&self, state: &TsoState) -> bool {
        state
            .procs
            .iter()
            .zip(self.program.threads())
            .all(|(proc, thread)| proc.seq.pc >= thread.len() && proc.store_buffer.is_empty())
    }

    fn outcome(&self, state: &TsoState) -> Outcome {
        let mut outcome = Outcome::new();
        for observation in &self.observed {
            let value = match observation {
                Observation::Register(proc, reg) => state.procs[proc.index()].seq.reg(*reg),
                Observation::Memory(loc) => state.memory.read(loc.address()),
            };
            outcome.set(*observation, value);
        }
        outcome
    }

    fn name(&self) -> &str {
        "TSO abstract machine"
    }
}

impl LabeledMachine for TsoMachine {
    /// Almost every TSO action is independent of its own thread's other
    /// actions. A thread has at most two concurrently enabled actions — the
    /// oldest drain and the next instruction — and they commute: draining
    /// the head entry and executing an instruction touch the buffer from
    /// opposite ends, and a load whose youngest buffer match is the
    /// draining head reads the same value from the buffer before the drain
    /// and from memory after it. Later same-thread actions always require
    /// one of the two to fire first (the pc only advances through the
    /// instruction; the next drain only exists once the head is gone), so
    /// no other same-thread action can interleave at all.
    ///
    /// The one exception is a load currently satisfied by *forwarding*: its
    /// label is thread-private now, but its own thread's drains can empty
    /// the matching entries and turn it into a shared-memory read whose
    /// value then depends on other threads' drains. Committing to it as a
    /// singleton would drop the "wait for the buffer to drain, then read
    /// whatever memory holds by then" futures, so it must not qualify.
    fn own_thread_independent(&self, state: &TsoState, action: &Action) -> bool {
        if action.kind == crate::machine::ActionKind::BufferDrain {
            return true;
        }
        let proc = &state.procs[action.thread as usize];
        let pc = (action.id - 1) as usize;
        match &self.program.threads()[action.thread as usize].instructions()[pc] {
            Instruction::Load { addr, .. } => {
                let address = addr.evaluate(proc.seq.operand(&addr.base)).raw();
                !proc.store_buffer.iter().any(|(buffered, _)| *buffered == address)
            }
            _ => true,
        }
    }

    fn future_footprint(&self, state: &TsoState, thread: usize) -> Footprint {
        // Instructions execute in order, so the instruction-level future is
        // the program suffix; every buffered store is a write still waiting
        // to drain into shared memory.
        let proc = &state.procs[thread];
        let suffix = &self.suffix[thread];
        let mut footprint = suffix[proc.seq.pc.min(suffix.len() - 1)].clone();
        for &(addr, _) in &proc.store_buffer {
            footprint.writes.insert(addr);
        }
        footprint
    }

    fn labeled_successors(&self, state: &TsoState) -> Vec<(Action, TsoState)> {
        let mut out = Vec::new();
        self.labeled_successors_into(state, &mut out);
        out
    }

    fn labeled_successors_into(&self, state: &TsoState, out: &mut Vec<(Action, TsoState)>) {
        self.successors_into_buf(state, crate::machine::SuccBuf::new(out));
    }

    fn labeled_successors_sparse_into(&self, state: &TsoState, out: &mut Vec<(Action, TsoState)>) {
        self.successors_into_buf(state, crate::machine::SuccBuf::new_sparse(out));
    }
}

impl TsoMachine {
    /// The rule pass shared by the full and sparse successor entry points.
    fn successors_into_buf(
        &self,
        state: &TsoState,
        mut buf: crate::machine::SuccBuf<'_, TsoState>,
    ) {
        for (proc_index, proc) in state.procs.iter().enumerate() {
            let thread = &self.program.threads()[proc_index];

            // Drain rule: publish the oldest store-buffer entry to memory.
            // Id 0 is reserved for the drain; instruction executions use
            // pc + 1 so the two never collide.
            if let Some(&(addr, value)) = proc.store_buffer.first() {
                let next = buf.push_from(state, Action::drain(proc_index, 0, addr));
                next.procs[proc_index].store_buffer.remove(0);
                next.memory.write(addr, value);
            }

            if proc.seq.pc >= thread.len() {
                continue;
            }
            let id = proc.seq.pc as u32 + 1;
            let instr = &thread.instructions()[proc.seq.pc];
            match instr {
                Instruction::Alu { dst, op, lhs, rhs } => {
                    let value = op.apply(proc.seq.operand(lhs), proc.seq.operand(rhs));
                    let next = buf.push_from(state, Action::local(proc_index, id));
                    let p = &mut next.procs[proc_index];
                    p.seq.regs.write(*dst, value);
                    p.seq.pc += 1;
                }
                Instruction::Load { dst, addr } => {
                    let address = addr.evaluate(proc.seq.operand(&addr.base)).raw();
                    let value = self.read(state, proc_index, address);
                    // A load satisfied by forwarding from the processor's own
                    // store buffer never touches shared memory, so it is a
                    // thread-private step; only a buffer miss reads memory.
                    let forwarded =
                        proc.store_buffer.iter().any(|(buffered, _)| *buffered == address);
                    let action = if forwarded {
                        Action::local(proc_index, id)
                    } else {
                        Action::read(proc_index, id, address)
                    };
                    let next = buf.push_from(state, action);
                    let p = &mut next.procs[proc_index];
                    p.seq.regs.write(*dst, value);
                    p.seq.pc += 1;
                }
                Instruction::Store { addr, data } => {
                    let address = addr.evaluate(proc.seq.operand(&addr.base)).raw();
                    let value = proc.seq.operand(data);
                    // Enqueueing only touches the private buffer; the shared
                    // write happens later, at drain time.
                    let next = buf.push_from(state, Action::local(proc_index, id));
                    let p = &mut next.procs[proc_index];
                    p.store_buffer.push((address, value));
                    p.seq.pc += 1;
                }
                Instruction::Fence { kind } => {
                    // Only store->load ordering is not already guaranteed by TSO;
                    // such a fence waits for the store buffer to drain.
                    let needs_drain =
                        kind.before == MemAccessType::Store && kind.after == MemAccessType::Load;
                    if !needs_drain || proc.store_buffer.is_empty() {
                        let next = buf.push_from(state, Action::fence(proc_index, id));
                        next.procs[proc_index].seq.pc += 1;
                    }
                }
                Instruction::Branch { cond, lhs, rhs, .. } => {
                    let taken = cond.holds(proc.seq.operand(lhs), proc.seq.operand(rhs));
                    let target = next_pc(thread, proc.seq.pc, taken, instr);
                    let next = buf.push_from(state, Action::local(proc_index, id));
                    next.procs[proc_index].seq.pc = target;
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

    fn reachable(test: &gam_isa::litmus::LitmusTest) -> bool {
        let machine = TsoMachine::new(test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        exploration.outcomes.iter().any(|o| test.condition().matched_by(o))
    }

    #[test]
    fn dekker_allowed_under_tso() {
        assert!(reachable(&library::dekker()), "store buffering exposes r1=0, r2=0");
    }

    #[test]
    fn dekker_with_fence_sl_forbidden_under_tso() {
        assert!(!reachable(&library::dekker_fence_sl()));
    }

    #[test]
    fn mp_forbidden_under_tso() {
        assert!(!reachable(&library::mp()), "TSO preserves store-store and load-load order");
    }

    #[test]
    fn load_buffering_forbidden_under_tso() {
        assert!(!reachable(&library::lb()));
    }

    #[test]
    fn store_forwarding_reads_own_buffer() {
        assert!(!reachable(&library::store_forwarding()));
        assert!(!reachable(&library::cowr()), "a load may not miss its own buffered store");
    }

    #[test]
    fn two_plus_two_w_forbidden_under_tso() {
        assert!(!reachable(&library::two_plus_two_w()));
    }

    #[test]
    fn labels_classify_drains_and_forwarded_loads() {
        use crate::machine::{ActionKind, LabeledMachine};
        // store-forwarding: St [a] 1; St [a] r1; Ld r2 [a] on one thread.
        let test = library::store_forwarding();
        let machine = TsoMachine::new(&test);
        let s0 = machine.initial_state();
        let labeled = machine.labeled_successors(&s0);
        // The only enabled step is the first store enqueue: a private buffer
        // push.
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].0.kind, ActionKind::Local);
        // Enqueue the second store too; now the drain (a shared write) and
        // the load are enabled, and the load forwards from the thread's own
        // buffer, so it is private. Action ids are pc + 1, so the load is 3.
        let s1 = labeled[0].1.clone();
        let s2 = machine
            .labeled_successors(&s1)
            .into_iter()
            .find(|(action, _)| *action == Action::local(0, 2))
            .expect("second enqueue enabled")
            .1;
        let next = machine.labeled_successors(&s2);
        let kinds: Vec<ActionKind> = next.iter().map(|(a, _)| a.kind).collect();
        assert!(kinds.contains(&ActionKind::BufferDrain));
        let load = next.iter().find(|(a, _)| a.id == 3).expect("load enabled");
        assert_eq!(load.0.kind, ActionKind::Local, "forwarded load is thread-private");
        // Drain both entries; the load now misses the buffer and reads
        // shared memory.
        let mut state = s2;
        for _ in 0..2 {
            let (action, drained) = machine
                .labeled_successors(&state)
                .into_iter()
                .find(|(a, _)| a.kind == ActionKind::BufferDrain)
                .expect("drain enabled");
            assert_eq!(action.id, 0, "drains use the reserved id 0");
            state = drained;
        }
        let after = machine.labeled_successors(&state);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].0.kind, ActionKind::MemoryRead);
    }

    #[test]
    fn final_state_requires_empty_store_buffers() {
        let test = library::coww();
        let machine = TsoMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        // Final memory must reflect the younger store (value 2) only.
        assert_eq!(exploration.outcomes.len(), 1);
        assert!(!exploration.outcomes.iter().any(|o| test.condition().matched_by(o)));
    }
}
