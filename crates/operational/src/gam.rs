//! The GAM abstract machine (Section IV-B, Figures 16 and 17 of the paper).
//!
//! Each processor owns a reorder buffer (ROB) and a PC register; all
//! processors share a monolithic memory. One step fires one rule on one
//! processor:
//!
//! * **Fetch** — speculatively fetch the next instruction (with branch-target
//!   prediction for branches);
//! * **Execute-Reg-to-Reg**, **Execute-Branch** — local computation; a
//!   mispredicted branch squashes every younger ROB entry;
//! * **Execute-Fence** — a `FenceXY` completes once all older type-X memory
//!   instructions are done;
//! * **Execute-Load** — a load searches older ROB entries for the first
//!   not-done same-address memory instruction: a not-done load stalls it
//!   (constraint SALdLd), a not-done store forwards its data when available
//!   (constraint SAStLd), otherwise the load reads the monolithic memory;
//! * **Compute-Store-Data**, **Execute-Store** — a store completes only when
//!   its address and data are known, all older branches are done, all older
//!   memory addresses are known and all older same-address accesses are done
//!   (constraints BrSt, AddrSt, SAMemSt);
//! * **Compute-Mem-Addr** — resolving a memory address squashes a younger
//!   same-address load that already executed (preserving LdVal/SAStLd, and
//!   SALdLd when the resolving instruction is itself a load).
//!
//! [`GamConfig::same_address_load_load`] switches the SALdLd enforcement on
//! (GAM) or off (GAM0), mirroring the two models' operational definitions.

use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Instruction, MemAccessType, Operand, Program, Reg, ThreadProgram, Value};

use crate::codec;
use crate::footprint;
use crate::machine::{AbstractMachine, Action, Footprint, LabeledMachine, SuccBuf};
use crate::mem::Memory;

/// Rule tags packed into [`Action::id`] (`tag | rob_index << 3`) so that the
/// several rules concurrently enabled on one ROB entry get distinct labels.
mod tag {
    pub const FETCH: u32 = 0;
    pub const ALU: u32 = 1;
    pub const BRANCH: u32 = 2;
    pub const FENCE: u32 = 3;
    pub const LOAD: u32 = 4;
    pub const STORE_DATA: u32 = 5;
    pub const STORE: u32 = 6;
    pub const ADDR: u32 = 7;
}

/// Packs a rule tag and a per-thread ordinal (ROB index, or predicted pc for
/// fetches) into an action id.
fn act_id(rule: u32, ordinal: usize) -> u32 {
    rule | (ordinal as u32) << 3
}

/// Configuration of the GAM abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GamConfig {
    /// Enforce the same-address load-load ordering constraint SALdLd
    /// (true = GAM, false = GAM0).
    pub same_address_load_load: bool,
    /// Resolve constant addresses and constant store data at fetch time.
    /// This is a pure state-space reduction: firing Compute-Mem-Addr /
    /// Compute-Store-Data immediately when they have no register inputs
    /// cannot change the reachable outcomes (no younger entries exist at
    /// fetch time, so no squash can be triggered, and making information
    /// available earlier never disables another rule).
    pub resolve_constants_at_fetch: bool,
}

impl Default for GamConfig {
    fn default() -> Self {
        GamConfig { same_address_load_load: true, resolve_constants_at_fetch: true }
    }
}

impl GamConfig {
    /// The configuration of the GAM operational model.
    #[must_use]
    pub fn gam() -> Self {
        GamConfig::default()
    }

    /// The configuration of the GAM0 operational model (no SALdLd).
    #[must_use]
    pub fn gam0() -> Self {
        GamConfig { same_address_load_load: false, ..GamConfig::default() }
    }
}

/// One reorder-buffer entry (Figure 16).
///
/// Deliberately `Copy` (all fields are plain words): a ROB clone is then a
/// single `memcpy`, and `Vec<RobEntry>::clone_from` reuses the
/// destination's buffer — the explorer's successor pool depends on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RobEntry {
    /// Index of the instruction in the thread program (its "PC").
    pub instr_index: usize,
    /// Has the instruction finished execution?
    pub done: bool,
    /// Execution result (load value, ALU result, store data once executed).
    pub result: Value,
    /// Is the memory address computed (loads and stores)?
    pub addr_avail: bool,
    /// The computed memory address.
    pub addr: u64,
    /// Is the store data computed (stores)?
    pub data_avail: bool,
    /// The computed store data.
    pub data: Value,
    /// Predicted next PC recorded at fetch time (branches).
    pub predicted_target: usize,
}

impl RobEntry {
    fn new(instr_index: usize) -> Self {
        RobEntry {
            instr_index,
            done: false,
            result: Value::ZERO,
            addr_avail: false,
            addr: 0,
            data_avail: false,
            data: Value::ZERO,
            predicted_target: instr_index + 1,
        }
    }
}

/// Per-processor state: the PC register and the ROB.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct GamProcState {
    /// Address (instruction index) of the next instruction to fetch.
    pub pc: usize,
    /// The reorder buffer, oldest entry first.
    pub rob: Vec<RobEntry>,
}

// Hand-written so `clone_from` reuses the ROB's buffer (successor pooling).
impl Clone for GamProcState {
    fn clone(&self) -> Self {
        GamProcState { pc: self.pc, rob: self.rob.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pc = source.pc;
        self.rob.clear();
        self.rob.extend_from_slice(&source.rob);
    }
}

/// A configuration of the GAM abstract machine.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct GamState {
    /// The monolithic memory.
    pub memory: Memory,
    /// Per-processor state.
    pub procs: Vec<GamProcState>,
}

// Hand-written so `clone_from` reuses every nested buffer: the explorer's
// successor pool turns steady-state expansion allocation-free through this.
impl Clone for GamState {
    fn clone(&self) -> Self {
        GamState { memory: self.memory.clone(), procs: self.procs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.memory.clone_from(&source.memory);
        crate::mem::clone_vec_from(&mut self.procs, &source.procs);
    }
}

impl crate::arena::ComposedState for GamState {
    type Mem = Memory;
    type Proc = GamProcState;

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn procs(&self) -> &[GamProcState] {
        &self.procs
    }

    fn procs_mut(&mut self) -> &mut [GamProcState] {
        &mut self.procs
    }

    fn mem_bytes(mem: &Memory) -> usize {
        std::mem::size_of::<Memory>() + mem.approx_bytes()
    }

    fn proc_bytes(proc: &GamProcState) -> usize {
        std::mem::size_of::<GamProcState>() + proc.rob.len() * std::mem::size_of::<RobEntry>()
    }

    fn encode_mem(mem: &Memory, out: &mut Vec<u8>) {
        mem.encode(out);
    }

    fn decode_mem(input: &mut &[u8]) -> Option<Memory> {
        Memory::decode(input)
    }

    fn encode_proc(proc: &GamProcState, out: &mut Vec<u8>) {
        codec::put_usize(out, proc.pc);
        codec::put_u32(out, u32::try_from(proc.rob.len()).expect("rob fits u32"));
        for entry in &proc.rob {
            codec::put_usize(out, entry.instr_index);
            codec::put_u8(out, u8::from(entry.done));
            codec::put_u64(out, entry.result.raw());
            codec::put_u8(out, u8::from(entry.addr_avail));
            codec::put_u64(out, entry.addr);
            codec::put_u8(out, u8::from(entry.data_avail));
            codec::put_u64(out, entry.data.raw());
            codec::put_usize(out, entry.predicted_target);
        }
    }

    fn decode_proc(input: &mut &[u8]) -> Option<GamProcState> {
        let pc = codec::take_usize(input)?;
        let len = codec::take_u32(input)? as usize;
        let mut rob = Vec::with_capacity(len);
        for _ in 0..len {
            let instr_index = codec::take_usize(input)?;
            let done = codec::take_u8(input)? != 0;
            let result = Value::new(codec::take_u64(input)?);
            let addr_avail = codec::take_u8(input)? != 0;
            let addr = codec::take_u64(input)?;
            let data_avail = codec::take_u8(input)? != 0;
            let data = Value::new(codec::take_u64(input)?);
            let predicted_target = codec::take_usize(input)?;
            rob.push(RobEntry {
                instr_index,
                done,
                result,
                addr_avail,
                addr,
                data_avail,
                data,
                predicted_target,
            });
        }
        Some(GamProcState { pc, rob })
    }
}

/// The GAM abstract machine for one litmus test.
#[derive(Debug, Clone)]
pub struct GamMachine {
    program: Program,
    initial_memory: Memory,
    observed: Vec<Observation>,
    config: GamConfig,
    /// When the program has no branches the machine pre-fetches every
    /// instruction, which removes fetch interleavings from the state space
    /// without changing the reachable outcomes (the Fetch rule has no guard
    /// and enabling an entry earlier never disables an older entry's rule).
    eager_fetch: bool,
    /// `static_addrs[proc][idx]`: the value-set bound on the addresses the
    /// memory instruction at that position can touch, in any execution
    /// (drives the explorer's footprint-based partial-order reduction).
    static_addrs: Vec<Vec<crate::machine::AddrSet>>,
    name: String,
}

impl GamMachine {
    /// Builds the GAM machine (with SALdLd) for a litmus test.
    #[must_use]
    pub fn new(test: &LitmusTest) -> Self {
        Self::with_config(test, GamConfig::gam())
    }

    /// Builds the machine with an explicit configuration.
    #[must_use]
    pub fn with_config(test: &LitmusTest, config: GamConfig) -> Self {
        let eager_fetch = !test.program().has_branches();
        let name = if config.same_address_load_load {
            "GAM abstract machine".to_string()
        } else {
            "GAM0 abstract machine".to_string()
        };
        GamMachine {
            program: test.program().clone(),
            initial_memory: Memory::from_map(test.initial_memory()),
            observed: test.observed().to_vec(),
            config,
            eager_fetch,
            static_addrs: footprint::instr_addr_sets(test),
            name,
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> GamConfig {
        self.config
    }

    fn thread(&self, proc: usize) -> &ThreadProgram {
        &self.program.threads()[proc]
    }

    fn instruction<'a>(&'a self, proc: usize, entry: &RobEntry) -> &'a Instruction {
        &self.thread(proc).instructions()[entry.instr_index]
    }

    /// The value of a register as seen by ROB entry `index`: the result of the
    /// youngest older done entry that writes it, `None` if that entry is not
    /// done yet, or zero if no older entry writes it (initial register state).
    fn register_value(
        &self,
        proc: usize,
        rob: &[RobEntry],
        index: usize,
        reg: Reg,
    ) -> Option<Value> {
        for older in rob[..index].iter().rev() {
            let instr = self.instruction(proc, older);
            if instr.write_set().contains(&reg) {
                return if older.done { Some(older.result) } else { None };
            }
        }
        Some(Value::ZERO)
    }

    fn operand_value(
        &self,
        proc: usize,
        rob: &[RobEntry],
        index: usize,
        operand: &Operand,
    ) -> Option<Value> {
        match operand {
            Operand::Imm(v) => Some(*v),
            Operand::Reg(r) => self.register_value(proc, rob, index, *r),
        }
    }

    /// Fetches one instruction into the ROB of `proc`, resolving constant
    /// operands if configured. Returns the predicted next PCs (two for a
    /// branch, one otherwise).
    fn fetch_entry(&self, proc: usize, pc: usize) -> (RobEntry, Vec<usize>) {
        let thread = self.thread(proc);
        let instr = &thread.instructions()[pc];
        let mut entry = RobEntry::new(pc);
        if self.config.resolve_constants_at_fetch {
            match instr {
                Instruction::Load { addr, .. } | Instruction::Store { addr, .. }
                    if addr.source_reg().is_none() =>
                {
                    entry.addr_avail = true;
                    entry.addr = addr
                        .evaluate(match addr.base {
                            Operand::Imm(v) => v,
                            Operand::Reg(_) => unreachable!("no source register"),
                        })
                        .raw();
                }
                _ => {}
            }
            if let Instruction::Store { data: Operand::Imm(v), .. } = instr {
                entry.data_avail = true;
                entry.data = *v;
            }
        }
        let predictions = match instr {
            Instruction::Branch { target, .. } => {
                let taken = thread.resolve_label(target).unwrap_or(thread.len());
                if taken == pc + 1 {
                    vec![pc + 1]
                } else {
                    vec![pc + 1, taken]
                }
            }
            _ => vec![pc + 1],
        };
        (entry, predictions)
    }

    /// Pre-fetches every instruction of every thread (branch-free programs only).
    fn prefetch_all(&self) -> Vec<GamProcState> {
        (0..self.program.num_threads())
            .map(|proc| {
                let thread = self.thread(proc);
                let rob = (0..thread.len()).map(|pc| self.fetch_entry(proc, pc).0).collect();
                GamProcState { pc: thread.len(), rob }
            })
            .collect()
    }

    /// After a squash in eager mode, re-fetch every remaining instruction so
    /// the ROB is complete again.
    fn refill(&self, proc: usize, state: &mut GamProcState) {
        if !self.eager_fetch {
            return;
        }
        let len = self.thread(proc).len();
        while state.pc < len {
            let (entry, _) = self.fetch_entry(proc, state.pc);
            state.rob.push(entry);
            state.pc += 1;
        }
    }

    // ----- rule guards and actions -------------------------------------------------

    fn rule_fetch(&self, state: &GamState, proc: usize, out: &mut SuccBuf<'_, GamState>) {
        let thread = self.thread(proc);
        let pc = state.procs[proc].pc;
        if pc >= thread.len() {
            return;
        }
        let (entry, predictions) = self.fetch_entry(proc, pc);
        for predicted in predictions {
            let next = out.push_from(state, Action::local(proc, act_id(tag::FETCH, predicted)));
            let mut fetched = entry;
            fetched.predicted_target = predicted;
            next.procs[proc].rob.push(fetched);
            next.procs[proc].pc = predicted;
        }
    }

    fn rule_execute_alu(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Alu { op, lhs, rhs, .. } = self.instruction(proc, entry) else {
            return;
        };
        let (Some(a), Some(b)) =
            (self.operand_value(proc, rob, index, lhs), self.operand_value(proc, rob, index, rhs))
        else {
            return;
        };
        let next = out.push_from(state, Action::local(proc, act_id(tag::ALU, index)));
        let entry = &mut next.procs[proc].rob[index];
        entry.result = op.apply(a, b);
        entry.done = true;
    }

    fn rule_execute_branch(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Branch { cond, lhs, rhs, target } = self.instruction(proc, entry) else {
            return;
        };
        let (Some(a), Some(b)) =
            (self.operand_value(proc, rob, index, lhs), self.operand_value(proc, rob, index, rhs))
        else {
            return;
        };
        let thread = self.thread(proc);
        let actual = if cond.holds(a, b) {
            thread.resolve_label(target).unwrap_or(thread.len())
        } else {
            entry.instr_index + 1
        };
        let predicted = entry.predicted_target;
        let next = out.push_from(state, Action::local(proc, act_id(tag::BRANCH, index)));
        next.procs[proc].rob[index].done = true;
        if actual != predicted {
            next.procs[proc].rob.truncate(index + 1);
            next.procs[proc].pc = actual;
            self.refill(proc, &mut next.procs[proc]);
        }
    }

    fn rule_execute_fence(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Fence { kind } = self.instruction(proc, entry) else {
            return;
        };
        let older_done = rob[..index].iter().all(|older| {
            match self.instruction(proc, older).mem_access_type() {
                Some(ty) if kind.orders_older(ty) => older.done,
                _ => true,
            }
        });
        if !older_done {
            return;
        }
        let next = out.push_from(state, Action::fence(proc, act_id(tag::FENCE, index)));
        next.procs[proc].rob[index].done = true;
    }

    fn rule_execute_load(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Load { .. } = self.instruction(proc, entry) else {
            return;
        };
        if !entry.addr_avail {
            return;
        }
        // All older fences ordering younger loads must be done.
        let fences_done = rob[..index].iter().all(|older| match self.instruction(proc, older) {
            Instruction::Fence { kind } if kind.orders_younger(MemAccessType::Load) => older.done,
            _ => true,
        });
        if !fences_done {
            return;
        }
        // Search older entries, youngest first, for the first not-done
        // same-address memory instruction.
        let addr = entry.addr;
        let blocker = rob[..index].iter().rev().find(|older| {
            if !older.addr_avail || older.addr != addr || older.done {
                return false;
            }
            match self.instruction(proc, older) {
                Instruction::Load { .. } => self.config.same_address_load_load,
                Instruction::Store { .. } => true,
                _ => false,
            }
        });
        // A load satisfied by forwarding from an older in-flight store of
        // the same processor never touches shared memory, so it is a
        // thread-private step; only a forwarding miss reads memory. The
        // distinction depends solely on the processor's own ROB, keeping the
        // label stable across other threads' independent actions.
        let (value, action) = match blocker {
            Some(older) => match self.instruction(proc, older) {
                Instruction::Load { .. } => return, // stall on an older not-done load (SALdLd)
                Instruction::Store { .. } => {
                    if older.data_avail {
                        // Forward from the store (SAStLd).
                        (older.data, Action::local(proc, act_id(tag::LOAD, index)))
                    } else {
                        return; // stall until the store data is known
                    }
                }
                _ => unreachable!("blocker is a memory instruction"),
            },
            None => (state.memory.read(addr), Action::read(proc, act_id(tag::LOAD, index), addr)),
        };
        let next = out.push_from(state, action);
        let entry = &mut next.procs[proc].rob[index];
        entry.result = value;
        entry.done = true;
    }

    fn rule_compute_store_data(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        if entry.data_avail {
            return;
        }
        let Instruction::Store { data, .. } = self.instruction(proc, entry) else {
            return;
        };
        let Some(value) = self.operand_value(proc, rob, index, data) else {
            return;
        };
        let next = out.push_from(state, Action::local(proc, act_id(tag::STORE_DATA, index)));
        let entry = &mut next.procs[proc].rob[index];
        entry.data = value;
        entry.data_avail = true;
    }

    fn rule_execute_store(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Store { .. } = self.instruction(proc, entry) else {
            return;
        };
        if !entry.addr_avail || !entry.data_avail {
            return;
        }
        let addr = entry.addr;
        let guards_hold = rob[..index].iter().all(|older| {
            let instr = self.instruction(proc, older);
            match instr {
                // Guard 3 (BrSt): all older branches are done.
                Instruction::Branch { .. } => older.done,
                // Guard 6 (FenceOrd): all older fences ordering younger stores are done.
                Instruction::Fence { kind } => {
                    !kind.orders_younger(MemAccessType::Store) || older.done
                }
                // Guards 4 and 5 (AddrSt, SAMemSt): all older memory
                // instructions have known addresses, and same-address ones
                // are done.
                Instruction::Load { .. } | Instruction::Store { .. } => {
                    older.addr_avail && (older.addr != addr || older.done)
                }
                Instruction::Alu { .. } => true,
            }
        });
        if !guards_hold {
            return;
        }
        let data = entry.data;
        let next = out.push_from(state, Action::commit(proc, act_id(tag::STORE, index), addr));
        next.memory.write(addr, data);
        let entry = &mut next.procs[proc].rob[index];
        entry.result = data;
        entry.done = true;
    }

    fn rule_compute_mem_addr(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        if entry.addr_avail {
            return;
        }
        let instr = self.instruction(proc, entry);
        let addr_expr = match instr {
            Instruction::Load { addr, .. } | Instruction::Store { addr, .. } => addr,
            _ => return,
        };
        let Some(base) = self.operand_value(proc, rob, index, &addr_expr.base) else {
            return;
        };
        let addr = addr_expr.evaluate(base).raw();

        let next = out.push_from(state, Action::local(proc, act_id(tag::ADDR, index)));
        {
            let entry = &mut next.procs[proc].rob[index];
            entry.addr_avail = true;
            entry.addr = addr;
        }
        // Squash check: find the first younger same-address memory entry.
        // A done load must be squashed (together with everything younger).
        // The SALdLd-motivated squash on load-triggered resolution only
        // applies when the machine enforces SALdLd (GAM, not GAM0).
        let squash_applies = instr.is_store() || self.config.same_address_load_load;
        if squash_applies {
            let younger = next.procs[proc].rob[index + 1..]
                .iter()
                .position(|e| e.addr_avail && e.addr == addr)
                .map(|offset| index + 1 + offset);
            if let Some(victim) = younger {
                let victim_entry = &next.procs[proc].rob[victim];
                let victim_is_done_load =
                    victim_entry.done && self.instruction(proc, victim_entry).is_load();
                if victim_is_done_load {
                    let restart_pc = victim_entry.instr_index;
                    next.procs[proc].rob.truncate(victim);
                    next.procs[proc].pc = restart_pc;
                    self.refill(proc, &mut next.procs[proc]);
                }
            }
        }
    }
}

impl AbstractMachine for GamMachine {
    type State = GamState;

    fn initial_state(&self) -> GamState {
        let procs = if self.eager_fetch {
            self.prefetch_all()
        } else {
            vec![GamProcState::default(); self.program.num_threads()]
        };
        GamState { memory: self.initial_memory.clone(), procs }
    }

    fn is_final(&self, state: &GamState) -> bool {
        state.procs.iter().enumerate().all(|(proc, p)| {
            p.pc >= self.thread(proc).len() && p.rob.iter().all(|entry| entry.done)
        })
    }

    fn outcome(&self, state: &GamState) -> Outcome {
        let mut outcome = Outcome::new();
        for observation in &self.observed {
            let value = match observation {
                Observation::Register(proc, reg) => {
                    let p = proc.index();
                    state.procs[p]
                        .rob
                        .iter()
                        .rev()
                        .find(|entry| {
                            entry.done && self.instruction(p, entry).write_set().contains(reg)
                        })
                        .map(|entry| entry.result)
                        .unwrap_or(Value::ZERO)
                }
                Observation::Memory(loc) => state.memory.read(loc.address()),
            };
            outcome.set(*observation, value);
        }
        outcome
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl LabeledMachine for GamMachine {
    /// An action at the *oldest incomplete* ROB position is independent of
    /// everything else its thread can do, for most rules:
    ///
    /// * every rule's guard scans only *older* entries, so a younger entry's
    ///   action can never disable or relabel an older entry's action;
    /// * with every older entry done, the action's register inputs are
    ///   fixed, and nothing remains that could squash it (squash victims are
    ///   always younger than the resolving entry);
    /// * same-address interactions with younger entries are fenced off by
    ///   the machine's own guards: a younger same-address store cannot
    ///   execute past a not-done older access (SAMemSt), and a younger load
    ///   co-enabled with an older same-address store is necessarily in
    ///   forwarding mode, which reads the store's data either way.
    ///
    /// Two rules are excluded: **Execute-Branch** (a misprediction truncates
    /// every younger entry — maximally dependent) and **Compute-Mem-Addr**
    /// (resolving an address can squash a younger same-address load, and
    /// whether the victim already executed is exactly the ordering the
    /// SALdLd/LdVal semantics care about). Fetch is a thread-level action
    /// with no ROB position and is likewise excluded.
    fn own_thread_independent(&self, state: &GamState, action: &Action) -> bool {
        let rule = action.id & 7;
        if !matches!(rule, tag::ALU | tag::FENCE | tag::LOAD | tag::STORE_DATA | tag::STORE) {
            return false;
        }
        let index = (action.id >> 3) as usize;
        let rob = &state.procs[action.thread as usize].rob;
        rob.iter().position(|entry| !entry.done) == Some(index)
    }

    /// The addresses the thread can still touch. Three populations:
    ///
    /// * not-done entries older than every unresolved address: their address
    ///   is known and final — one concrete address each;
    /// * every entry at or beyond the first memory entry whose address is
    ///   still unknown: a Compute-Mem-Addr there can squash and re-execute
    ///   them with *recomputed* addresses, so the static value-set bound is
    ///   used instead of the current address;
    /// * done entries older than every unresolved address: retired for good,
    ///   no future access.
    ///
    /// Branchy programs fetch speculatively and squash across branches, so
    /// any unfinished thread is conservatively unbounded there.
    fn future_footprint(&self, state: &GamState, thread: usize) -> Footprint {
        let proc = &state.procs[thread];
        if !self.eager_fetch {
            let finished =
                proc.pc >= self.thread(thread).len() && proc.rob.iter().all(|entry| entry.done);
            return if finished { Footprint::empty() } else { Footprint::top() };
        }
        let unstable_from = proc
            .rob
            .iter()
            .position(|entry| {
                let instr = self.instruction(thread, entry);
                (instr.is_load() || instr.is_store()) && !entry.addr_avail
            })
            .unwrap_or(usize::MAX);
        let mut footprint = Footprint::empty();
        for (index, entry) in proc.rob.iter().enumerate() {
            let instr = self.instruction(thread, entry);
            let target = if instr.is_load() {
                &mut footprint.reads
            } else if instr.is_store() {
                &mut footprint.writes
            } else {
                continue;
            };
            if index < unstable_from {
                if !entry.done {
                    // Older than every unresolved address: the address is
                    // known (by definition of `unstable_from`) and the entry
                    // cannot be squashed.
                    target.insert(entry.addr);
                }
            } else {
                target.union_with(&self.static_addrs[thread][entry.instr_index]);
            }
        }
        footprint
    }

    fn labeled_successors(&self, state: &GamState) -> Vec<(Action, GamState)> {
        let mut out = Vec::new();
        self.labeled_successors_into(state, &mut out);
        out
    }

    fn labeled_successors_into(&self, state: &GamState, out: &mut Vec<(Action, GamState)>) {
        self.successors_into_buf(state, SuccBuf::new(out));
    }

    fn labeled_successors_sparse_into(&self, state: &GamState, out: &mut Vec<(Action, GamState)>) {
        self.successors_into_buf(state, SuccBuf::new_sparse(out));
    }

    /// Scrubs semantically dead fields so symmetric states intern to one
    /// arena slot: the `predicted_target` of a *done* entry is never read
    /// again by any rule (only Execute-Branch consults it, and only on
    /// not-done entries), yet it records *how* a branch reached its resolved
    /// state — a correctly predicted branch and a mispredicted, squashed and
    /// refetched one otherwise differ in this one field forever.
    fn canonicalize(&self, mut state: GamState) -> GamState {
        self.canonicalize_in_place(&mut state);
        state
    }

    fn canonicalize_in_place(&self, state: &mut GamState) {
        for proc in &mut state.procs {
            for entry in &mut proc.rob {
                if entry.done {
                    entry.predicted_target = 0;
                }
            }
        }
    }
}

impl GamMachine {
    /// The rule pass shared by the full and sparse successor entry points.
    fn successors_into_buf(&self, state: &GamState, mut buf: SuccBuf<'_, GamState>) {
        for proc in 0..self.program.num_threads() {
            if !self.eager_fetch {
                self.rule_fetch(state, proc, &mut buf);
            }
            for index in 0..state.procs[proc].rob.len() {
                let entry = &state.procs[proc].rob[index];
                if entry.done {
                    // Completed entries only participate as context for others,
                    // except stores whose data rule has already fired.
                    continue;
                }
                // One dispatch on the instruction kind; each rule keeps its
                // own guard, so the set of enabled firings (and their order)
                // is exactly that of running every rule unconditionally.
                match self.instruction(proc, entry) {
                    Instruction::Alu { .. } => self.rule_execute_alu(state, proc, index, &mut buf),
                    Instruction::Branch { .. } => {
                        self.rule_execute_branch(state, proc, index, &mut buf);
                    }
                    Instruction::Fence { .. } => {
                        self.rule_execute_fence(state, proc, index, &mut buf);
                    }
                    Instruction::Load { .. } => {
                        self.rule_execute_load(state, proc, index, &mut buf);
                        self.rule_compute_mem_addr(state, proc, index, &mut buf);
                    }
                    Instruction::Store { .. } => {
                        self.rule_compute_store_data(state, proc, index, &mut buf);
                        self.rule_execute_store(state, proc, index, &mut buf);
                        self.rule_compute_mem_addr(state, proc, index, &mut buf);
                    }
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

    fn outcomes(test: &LitmusTest, config: GamConfig) -> std::collections::BTreeSet<Outcome> {
        let machine = GamMachine::with_config(test, config);
        Explorer::default().explore(&machine).unwrap().outcomes
    }

    fn reachable(test: &LitmusTest, config: GamConfig) -> bool {
        outcomes(test, config).iter().any(|o| test.condition().matched_by(o))
    }

    #[test]
    fn dekker_non_sc_outcome_reachable() {
        assert!(reachable(&library::dekker(), GamConfig::gam()));
        assert!(reachable(&library::dekker(), GamConfig::gam0()));
    }

    #[test]
    fn oota_unreachable() {
        assert!(!reachable(&library::oota(), GamConfig::gam()));
        assert!(!reachable(&library::oota(), GamConfig::gam0()));
    }

    #[test]
    fn corr_distinguishes_gam_from_gam0() {
        assert!(!reachable(&library::corr(), GamConfig::gam()), "SALdLd forbids the stale re-read");
        assert!(reachable(&library::corr(), GamConfig::gam0()), "GAM0 allows the stale re-read");
    }

    #[test]
    fn mp_addr_dependency_respected() {
        assert!(!reachable(&library::mp_addr(), GamConfig::gam()));
        assert!(!reachable(&library::mp_addr(), GamConfig::gam0()));
    }

    #[test]
    fn mp_without_consumer_ordering_is_weak() {
        assert!(reachable(&library::mp(), GamConfig::gam()));
        assert!(reachable(&library::mp_fence_ss_only(), GamConfig::gam()));
        assert!(!reachable(&library::mp_fences(), GamConfig::gam()));
    }

    #[test]
    fn load_buffering_allowed_without_dependency() {
        assert!(reachable(&library::lb(), GamConfig::gam()));
        assert!(!reachable(&library::lb_data(), GamConfig::gam()));
        assert!(!reachable(&library::lb_fence_ls(), GamConfig::gam()));
    }

    #[test]
    fn store_forwarding_cannot_skip_the_youngest_store() {
        assert!(!reachable(&library::store_forwarding(), GamConfig::gam()));
        assert!(!reachable(&library::store_forwarding(), GamConfig::gam0()));
    }

    #[test]
    fn corw_and_cowr_coherence() {
        assert!(!reachable(&library::corw(), GamConfig::gam()));
        assert!(!reachable(&library::cowr(), GamConfig::gam()));
        assert!(!reachable(&library::coww(), GamConfig::gam()));
    }

    #[test]
    fn constant_resolution_does_not_change_outcomes() {
        for test in [library::dekker(), library::corr(), library::mp_fence_ss_only()] {
            let eager = outcomes(&test, GamConfig::gam());
            let lazy = outcomes(
                &test,
                GamConfig { resolve_constants_at_fetch: false, ..GamConfig::gam() },
            );
            assert_eq!(eager, lazy, "{}", test.name());
        }
    }

    #[test]
    fn branchy_program_squashes_on_misprediction() {
        use gam_isa::{Addr, BranchCond, Loc, ProcId};
        // P1: r1 = Ld [a]; if r1 != 0 goto skip; St [b] 1; skip:
        // P2: St [a] 1
        // If the load reads 1 the store to b must not happen.
        let a = Loc::new("a");
        let b = Loc::new("b");
        let mut p1 = gam_isa::ThreadProgram::builder(ProcId::new(0));
        p1.load(Reg::new(1), Addr::loc(a))
            .branch(BranchCond::Ne, Operand::reg(Reg::new(1)), Operand::imm(0), "skip")
            .store(Addr::loc(b), Operand::imm(1))
            .label("skip");
        let mut p2 = gam_isa::ThreadProgram::builder(ProcId::new(1));
        p2.store(Addr::loc(a), Operand::imm(1));
        let program = Program::new(vec![p1.build(), p2.build()]);
        let test = LitmusTest::builder("branch-squash", program)
            .expect_reg(ProcId::new(0), Reg::new(1), 1u64)
            .expect_mem(b, 1u64)
            .build();
        // r1 = 1 together with b = 1 would mean the squashed store escaped.
        assert!(!reachable(&test, GamConfig::gam()));
        // Both r1 = 0 (store b happens) and r1 = 1 (store b suppressed) exist.
        let all = outcomes(&test, GamConfig::gam());
        assert!(all.len() >= 2);
    }

    #[test]
    fn pooled_successors_match_fresh_ones_and_labels_are_unique() {
        for test in [library::dekker(), library::mp_addr(), library::mp_fences()] {
            let machine = GamMachine::new(&test);
            let mut frontier = vec![machine.initial_state()];
            let mut pooled = Vec::new();
            let mut steps = 0;
            while let Some(state) = frontier.pop() {
                if steps > 200 {
                    break;
                }
                steps += 1;
                let labeled = machine.labeled_successors(&state);
                machine.labeled_successors_into(&state, &mut pooled);
                assert_eq!(
                    labeled,
                    pooled,
                    "{}: the pooled buffer must yield the fresh successors",
                    test.name()
                );
                let mut seen = std::collections::BTreeSet::new();
                for (action, next) in labeled {
                    assert!(seen.insert(action), "{}: duplicate label {action:?}", test.name());
                    frontier.push(next);
                }
            }
        }
    }

    #[test]
    fn forwarded_loads_are_thread_private() {
        use crate::machine::ActionKind;
        // store-forwarding: St [a] 1; St [a] r1; Ld r2 [a] in one thread.
        // While the youngest store is in flight with known data, the load
        // executes by SAStLd forwarding — a thread-private step; once every
        // older store has committed, the load reads shared memory. Both label
        // kinds must appear somewhere in the reachable space, and forwarded
        // loads must never be labeled as memory reads of a stale blocker.
        let test = library::store_forwarding();
        let machine = GamMachine::new(&test);
        let mut frontier = vec![machine.initial_state()];
        let mut kinds = std::collections::BTreeSet::new();
        while let Some(state) = frontier.pop() {
            for (action, next) in machine.labeled_successors(&state) {
                if action.id & 7 == super::tag::LOAD {
                    kinds.insert(action.kind);
                }
                frontier.push(next);
            }
        }
        assert!(kinds.contains(&ActionKind::Local), "SAStLd forwarding is thread-private");
        assert!(kinds.contains(&ActionKind::MemoryRead), "a forwarding miss reads memory");
    }

    #[test]
    fn canonicalization_scrubs_resolved_predictions_only() {
        let test = library::dekker();
        let machine = GamMachine::new(&test);
        let mut state = machine.initial_state();
        state.procs[0].rob[0].done = true;
        state.procs[0].rob[0].predicted_target = 7;
        state.procs[0].rob[1].predicted_target = 9;
        let canon = machine.canonicalize(state.clone());
        assert_eq!(canon.procs[0].rob[0].predicted_target, 0, "done entries are scrubbed");
        assert_eq!(canon.procs[0].rob[1].predicted_target, 9, "pending entries are untouched");
        // Idempotence.
        assert_eq!(machine.canonicalize(canon.clone()), canon);
    }

    #[test]
    fn outcome_projection_reads_registers_and_memory() {
        let test = library::coww();
        let machine = GamMachine::new(&test);
        let exploration = Explorer::default().explore(&machine).unwrap();
        assert_eq!(exploration.outcomes.len(), 1);
    }

    #[test]
    fn machine_names_reflect_configuration() {
        let test = library::dekker();
        assert!(GamMachine::new(&test).name().contains("GAM abstract"));
        assert!(GamMachine::with_config(&test, GamConfig::gam0()).name().contains("GAM0"));
        assert!(GamMachine::new(&test).config().same_address_load_load);
    }
}
