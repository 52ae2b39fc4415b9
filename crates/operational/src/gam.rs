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

use std::cell::RefCell;

use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Instruction, MemAccessType, Operand, Program, Reg, ThreadProgram, Value};

use crate::footprint;
use crate::machine::{AbstractMachine, Action, AddrSet, LabeledMachine, SuccBuf};
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

/// Does `instr` write `reg` (is `reg` in its write set)? The outcome
/// projection asks this of ROB entries, youngest first, so it must not
/// allocate the way `Instruction::write_set` does.
fn writes_reg(instr: &Instruction, reg: Reg) -> bool {
    matches!(instr, Instruction::Alu { dst, .. } | Instruction::Load { dst, .. } if *dst == reg)
}

/// An instruction input as the rules read it: an immediate, or the slot in
/// [`Older::regs`] of the register it names.
#[derive(Debug, Clone, Copy)]
enum Src {
    Imm(Value),
    Reg(usize),
}

/// What an instruction is to the rule dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Alu,
    Branch,
    Fence,
    Load,
    Store,
}

/// Order-guard bits: what a not-done older entry holds back
/// ([`Older::held`], [`Decoded::raises`], [`Decoded::waits`]).
mod held {
    /// A load (Execute-Fence of a `FenceLY`).
    pub const LOAD: u8 = 1;
    /// A store (Execute-Fence of a `FenceSY`).
    pub const STORE: u8 = 1 << 1;
    /// A fence ordering younger loads (FenceOrd of Execute-Load).
    pub const LOADS_FENCE: u8 = 1 << 2;
    /// A fence ordering younger stores (FenceOrd of Execute-Store).
    pub const STORES_FENCE: u8 = 1 << 3;
    /// A branch (BrSt).
    pub const BRANCH: u8 = 1 << 4;
    /// A memory instruction whose address is unknown (AddrSt).
    pub const UNRESOLVED: u8 = 1 << 5;
}

/// What the rules and [`LabeledMachine::may_conflict_later`] read of one
/// instruction, decoded once when the machine is built.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    role: Role,
    /// The [`held`] bits a not-done entry of it raises for younger entries
    /// (besides [`held::UNRESOLVED`], which depends on the entry).
    raises: u8,
    /// The [`held`] bits its own order guard waits on: a fence waits for
    /// the older accesses it orders, a load for older fences ordering
    /// loads, a store for older branches, fences ordering stores and
    /// unresolved addresses.
    waits: u8,
    /// The slot in [`Older::regs`] of the register it writes; one that
    /// writes none names the scratch slot past the registers, which no
    /// input reads.
    dst: usize,
    /// Its inputs: ALU and branch `[lhs, rhs]`, load `[address base, 0]`,
    /// store `[address base, data]`, fence `[0, 0]`.
    srcs: [Src; 2],
}

/// One thread's decoded program.
#[derive(Debug, Clone)]
struct ThreadTable {
    /// The length of [`Older::regs`]: one slot per register the thread
    /// names, plus the scratch slot.
    slots: usize,
    /// `instrs[idx]` decodes the instruction at `idx`.
    instrs: Vec<Decoded>,
    /// `addrs[idx]`: the value-set bound on the addresses the instruction at
    /// `idx` can touch, in any execution (empty for non-memory ones).
    addrs: Vec<AddrSet>,
}

impl ThreadTable {
    fn new(thread: &ThreadProgram, addrs: Vec<AddrSet>) -> Self {
        let mut regs: Vec<Reg> = thread
            .instructions()
            .iter()
            .flat_map(|instr| instr.read_set().into_iter().chain(instr.write_set()))
            .collect();
        regs.sort_unstable();
        regs.dedup();
        let slot = |reg: &Reg| regs.binary_search(reg).expect("every named register has a slot");
        let src = |operand: &Operand| match operand {
            Operand::Imm(v) => Src::Imm(*v),
            Operand::Reg(reg) => Src::Reg(slot(reg)),
        };
        let zero = Src::Imm(Value::ZERO);
        let instrs = thread
            .instructions()
            .iter()
            .map(|instr| {
                let (role, raises, waits, srcs) = match instr {
                    Instruction::Alu { lhs, rhs, .. } => (Role::Alu, 0, 0, [src(lhs), src(rhs)]),
                    Instruction::Branch { lhs, rhs, .. } => {
                        (Role::Branch, held::BRANCH, 0, [src(lhs), src(rhs)])
                    }
                    Instruction::Fence { kind } => {
                        let bit = |ty, load, store| match ty {
                            MemAccessType::Load => load,
                            MemAccessType::Store => store,
                        };
                        let raises = bit(kind.after, held::LOADS_FENCE, held::STORES_FENCE);
                        (Role::Fence, raises, bit(kind.before, held::LOAD, held::STORE), [zero; 2])
                    }
                    Instruction::Load { addr, .. } => {
                        (Role::Load, held::LOAD, held::LOADS_FENCE, [src(&addr.base), zero])
                    }
                    Instruction::Store { addr, data } => {
                        let waits = held::BRANCH | held::STORES_FENCE | held::UNRESOLVED;
                        (Role::Store, held::STORE, waits, [src(&addr.base), src(data)])
                    }
                };
                let dst = instr.write_set().first().map_or(regs.len(), slot);
                Decoded { role, raises, waits, dst, srcs }
            })
            .collect();
        ThreadTable { slots: regs.len() + 1, instrs, addrs }
    }
}

/// A not-done memory entry whose address is known, as [`Older`] keeps it:
/// its ROB index, its address, and whether it is a store.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    index: usize,
    addr: u64,
    store: bool,
}

/// What the rule guards of one ROB entry read of the entries older than
/// it, folded entry by entry in one forward pass over the ROB
/// ([`Older::fold`]). Every rule reads its guard from here, so a thread's
/// whole rule pass is one walk of its ROB.
#[derive(Debug)]
struct Older {
    /// Per register slot: the result of the youngest older entry that
    /// writes the register, `None` while that entry is not done, zero (the
    /// initial register state) when no entry does.
    regs: Vec<Option<Value>>,
    /// The [`held`] bits some older not-done entry raises.
    held: u8,
    /// The older not-done memory entries whose address is known, oldest
    /// first (SALdLd, SAStLd, SAMemSt).
    in_flight: Vec<InFlight>,
}

impl Older {
    /// The context of a ROB's oldest entry, in a thread whose
    /// [`ThreadTable::slots`] is `slots`: nothing older.
    fn reset(&mut self, slots: usize) {
        self.regs.clear();
        self.regs.resize(slots, Some(Value::ZERO));
        self.held = 0;
        self.in_flight.clear();
    }

    /// The value of an input: `None` while its register's youngest older
    /// writer is not done.
    fn value(&self, src: Src) -> Option<Value> {
        match src {
            Src::Imm(v) => Some(v),
            Src::Reg(slot) => self.regs[slot],
        }
    }

    /// Does an older not-done entry hold back an entry decoded as
    /// `decoded`'s order guard?
    fn holds(&self, decoded: &Decoded) -> bool {
        self.held & decoded.waits != 0
    }

    /// Extends the context past `entry`, the ROB entry at `index`. Whether
    /// an entry is done, and whether its address is known, follow no
    /// pattern a branch predictor can learn, so both are folded in as data.
    fn fold(&mut self, decoded: &Decoded, entry: &RobEntry, index: usize) {
        let pending = !entry.done;
        self.regs[decoded.dst] = if pending { None } else { Some(entry.result) };
        let memory = matches!(decoded.role, Role::Load | Role::Store);
        let raised = decoded.raises | (held::UNRESOLVED * u8::from(memory & !entry.addr_avail));
        self.held |= raised & 0u8.wrapping_sub(u8::from(pending));
        if memory & pending & entry.addr_avail {
            let store = decoded.role == Role::Store;
            self.in_flight.push(InFlight { index, addr: entry.addr, store });
        }
    }
}

thread_local! {
    /// The calling thread's guard context, reused by every rule pass so a
    /// pass allocates nothing once its buffers have grown.
    static OLDER: RefCell<Older> =
        const { RefCell::new(Older { regs: Vec::new(), held: 0, in_flight: Vec::new() }) };
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
    /// `tables[proc]`: the thread's decoded program (register slots, the
    /// load/store table and the value-set address bounds that drive the
    /// explorer's footprint-based partial-order reduction).
    tables: Vec<ThreadTable>,
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
            tables: test
                .program()
                .threads()
                .iter()
                .zip(footprint::instr_addr_sets(test))
                .map(|(thread, addrs)| ThreadTable::new(thread, addrs))
                .collect(),
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

    fn decoded(&self, proc: usize, entry: &RobEntry) -> &Decoded {
        &self.tables[proc].instrs[entry.instr_index]
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
    //
    // Every rule on ROB entry `index` reads its guard from `older`, the
    // context folded over `rob[..index]`.

    fn rule_fetch(&self, state: &GamState, proc: usize, out: &mut SuccBuf<'_, GamState>) {
        let thread = self.thread(proc);
        let pc = state.procs[proc].pc;
        if pc >= thread.len() {
            return;
        }
        let (entry, predictions) = self.fetch_entry(proc, pc);
        for predicted in predictions {
            let Some(next) =
                out.push_from(state, Action::local(proc, act_id(tag::FETCH, predicted)))
            else {
                continue;
            };
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
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        let Instruction::Alu { op, .. } = self.instruction(proc, entry) else {
            return;
        };
        let [lhs, rhs] = self.decoded(proc, entry).srcs;
        let (Some(a), Some(b)) = (older.value(lhs), older.value(rhs)) else {
            return;
        };
        let Some(next) = out.push_from(state, Action::local(proc, act_id(tag::ALU, index))) else {
            return;
        };
        let entry = &mut next.procs[proc].rob[index];
        entry.result = op.apply(a, b);
        entry.done = true;
    }

    fn rule_execute_branch(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        let Instruction::Branch { cond, target, .. } = self.instruction(proc, entry) else {
            return;
        };
        let [lhs, rhs] = self.decoded(proc, entry).srcs;
        let (Some(a), Some(b)) = (older.value(lhs), older.value(rhs)) else {
            return;
        };
        let thread = self.thread(proc);
        let actual = if cond.holds(a, b) {
            thread.resolve_label(target).unwrap_or(thread.len())
        } else {
            entry.instr_index + 1
        };
        let predicted = entry.predicted_target;
        let Some(next) = out.push_from(state, Action::local(proc, act_id(tag::BRANCH, index)))
        else {
            return;
        };
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
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        let Instruction::Fence { .. } = self.instruction(proc, entry) else {
            return;
        };
        // All older memory instructions of the fence's X type are done.
        if older.holds(self.decoded(proc, entry)) {
            return;
        }
        let Some(next) = out.push_from(state, Action::fence(proc, act_id(tag::FENCE, index)))
        else {
            return;
        };
        next.procs[proc].rob[index].done = true;
    }

    fn rule_execute_load(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let rob = &state.procs[proc].rob;
        let entry = &rob[index];
        let Instruction::Load { .. } = self.instruction(proc, entry) else {
            return;
        };
        // The address is known, and all older fences ordering younger
        // loads are done.
        if !entry.addr_avail || older.holds(self.decoded(proc, entry)) {
            return;
        }
        // The youngest older not-done same-address memory instruction, if
        // any, blocks or forwards (older loads count only under SALdLd).
        let addr = entry.addr;
        let blocker = older.in_flight.iter().rev().find(|inflight| {
            inflight.addr == addr && (inflight.store || self.config.same_address_load_load)
        });
        // A load satisfied by forwarding from an older in-flight store of
        // the same processor never touches shared memory, so it is a
        // thread-private step; only a forwarding miss reads memory. The
        // distinction depends solely on the processor's own ROB, keeping the
        // label stable across other threads' independent actions.
        let (value, action) = match blocker {
            // Stall on an older not-done load (SALdLd).
            Some(InFlight { store: false, .. }) => return,
            Some(&InFlight { index: store, .. }) => {
                let store = &rob[store];
                if !store.data_avail {
                    return; // stall until the store data is known
                }
                // Forward from the store (SAStLd).
                (store.data, Action::local(proc, act_id(tag::LOAD, index)))
            }
            None => (state.memory.read(addr), Action::read(proc, act_id(tag::LOAD, index), addr)),
        };
        let Some(next) = out.push_from(state, action) else {
            return;
        };
        let entry = &mut next.procs[proc].rob[index];
        entry.result = value;
        entry.done = true;
    }

    fn rule_compute_store_data(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        if entry.data_avail {
            return;
        }
        let Instruction::Store { .. } = self.instruction(proc, entry) else {
            return;
        };
        let Some(value) = older.value(self.decoded(proc, entry).srcs[1]) else {
            return;
        };
        let Some(next) = out.push_from(state, Action::local(proc, act_id(tag::STORE_DATA, index)))
        else {
            return;
        };
        let entry = &mut next.procs[proc].rob[index];
        entry.data = value;
        entry.data_avail = true;
    }

    fn rule_execute_store(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        let Instruction::Store { .. } = self.instruction(proc, entry) else {
            return;
        };
        if !entry.addr_avail || !entry.data_avail {
            return;
        }
        let addr = entry.addr;
        // Guard 3 (BrSt): all older branches are done. Guard 6 (FenceOrd):
        // all older fences ordering younger stores are done. Guards 4 and 5
        // (AddrSt, SAMemSt): all older memory instructions have known
        // addresses, and same-address ones are done.
        if older.holds(self.decoded(proc, entry))
            || older.in_flight.iter().any(|inflight| inflight.addr == addr)
        {
            return;
        }
        let data = entry.data;
        let Some(next) =
            out.push_from(state, Action::commit(proc, act_id(tag::STORE, index), addr))
        else {
            return;
        };
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
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        let entry = &state.procs[proc].rob[index];
        if entry.addr_avail {
            return;
        }
        let instr = self.instruction(proc, entry);
        let addr_expr = match instr {
            Instruction::Load { addr, .. } | Instruction::Store { addr, .. } => addr,
            _ => return,
        };
        let Some(base) = older.value(self.decoded(proc, entry).srcs[0]) else {
            return;
        };
        let addr = addr_expr.evaluate(base).raw();

        let Some(next) = out.push_from(state, Action::local(proc, act_id(tag::ADDR, index))) else {
            return;
        };
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

    /// Fires every enabled rule of the ROB entry at `index` (not done).
    /// One dispatch on the instruction kind; each rule keeps its own
    /// guard, so the firings (and their order) are exactly those of
    /// running every rule unconditionally.
    fn entry_rules(
        &self,
        state: &GamState,
        proc: usize,
        index: usize,
        older: &Older,
        out: &mut SuccBuf<'_, GamState>,
    ) {
        match self.decoded(proc, &state.procs[proc].rob[index]).role {
            Role::Alu => self.rule_execute_alu(state, proc, index, older, out),
            Role::Branch => self.rule_execute_branch(state, proc, index, older, out),
            Role::Fence => self.rule_execute_fence(state, proc, index, older, out),
            Role::Load => {
                self.rule_execute_load(state, proc, index, older, out);
                self.rule_compute_mem_addr(state, proc, index, older, out);
            }
            Role::Store => {
                self.rule_compute_store_data(state, proc, index, older, out);
                self.rule_execute_store(state, proc, index, older, out);
                self.rule_compute_mem_addr(state, proc, index, older, out);
            }
        }
    }

    /// One processor's rule pass: Fetch (unless fetching eagerly), then the
    /// rules of every not-done ROB entry, oldest first, in one walk that
    /// folds each entry into the context of the younger ones.
    fn thread_rules(&self, state: &GamState, proc: usize, out: &mut SuccBuf<'_, GamState>) {
        if !self.eager_fetch {
            self.rule_fetch(state, proc, out);
        }
        let table = &self.tables[proc];
        OLDER.with_borrow_mut(|older| {
            older.reset(table.slots);
            for (index, entry) in state.procs[proc].rob.iter().enumerate() {
                if !entry.done {
                    self.entry_rules(state, proc, index, older, out);
                }
                older.fold(&table.instrs[entry.instr_index], entry, index);
            }
        });
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
                        .find(|entry| entry.done && writes_reg(self.instruction(p, entry), *reg))
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
    /// * every rule's guard reads only the context of *older* entries, so a
    ///   younger entry's action can never disable or relabel an older
    ///   entry's action;
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
    fn may_conflict_later(&self, state: &GamState, thread: usize, addr: u64, write: bool) -> bool {
        let proc = &state.procs[thread];
        if !self.eager_fetch {
            let finished =
                proc.pc >= self.thread(thread).len() && proc.rob.iter().all(|entry| entry.done);
            return !finished;
        }
        // One pass, oldest first: `unstable` turns on at the first memory
        // entry whose address is still unknown and stays on.
        let table = &self.tables[thread];
        let mut unstable = false;
        proc.rob.iter().any(|entry| {
            let load = match table.instrs[entry.instr_index].role {
                Role::Load => true,
                Role::Store => false,
                _ => return false,
            };
            unstable |= !entry.addr_avail;
            // Stores conflict with any access; loads only with a write.
            if load && !write {
                return false;
            }
            if unstable {
                table.addrs[entry.instr_index].may_contain(addr)
            } else {
                // Older than every unresolved address: the address is known
                // and the entry cannot be squashed.
                !entry.done && entry.addr == addr
            }
        })
    }

    fn labeled_successors(&self, state: &GamState) -> Vec<(Action, GamState)> {
        let mut out = Vec::new();
        let mut buf = SuccBuf::new(&mut out);
        for proc in 0..state.procs.len() {
            self.thread_rules(state, proc, &mut buf);
        }
        buf.finish();
        out
    }

    fn enabled_actions(&self, state: &GamState, out: &mut Vec<Action>) {
        out.clear();
        for proc in 0..state.procs.len() {
            self.thread_actions(state, proc, out);
        }
    }

    fn thread_actions(&self, state: &GamState, thread: usize, out: &mut Vec<Action>) {
        let mut buf = SuccBuf::labels(out);
        self.thread_rules(state, thread, &mut buf);
        buf.finish();
    }

    /// Folds the context of the ROB entry the label names and fires the
    /// one rule its tag names.
    fn successor_into(&self, state: &GamState, action: &Action, out: &mut GamState) {
        let (proc, index) = (action.thread as usize, (action.id >> 3) as usize);
        let mut buf = SuccBuf::one(*action, out);
        let rule = action.id & 7;
        if rule == tag::FETCH {
            self.rule_fetch(state, proc, &mut buf);
        } else {
            let table = &self.tables[proc];
            OLDER.with_borrow_mut(|older| {
                older.reset(table.slots);
                for (older_index, entry) in state.procs[proc].rob[..index].iter().enumerate() {
                    older.fold(&table.instrs[entry.instr_index], entry, older_index);
                }
                match rule {
                    tag::ALU => self.rule_execute_alu(state, proc, index, older, &mut buf),
                    tag::BRANCH => self.rule_execute_branch(state, proc, index, older, &mut buf),
                    tag::FENCE => self.rule_execute_fence(state, proc, index, older, &mut buf),
                    tag::LOAD => self.rule_execute_load(state, proc, index, older, &mut buf),
                    tag::STORE_DATA => {
                        self.rule_compute_store_data(state, proc, index, older, &mut buf);
                    }
                    tag::STORE => self.rule_execute_store(state, proc, index, older, &mut buf),
                    _ => self.rule_compute_mem_addr(state, proc, index, older, &mut buf),
                }
            });
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

    /// P1: r1 = Ld [a]; if r1 != 0 goto skip; St [b] 1; skip:
    /// P2: St [a] 1
    /// If the load reads 1 the store to b must not happen.
    fn branch_squash_test() -> LitmusTest {
        use gam_isa::{Addr, BranchCond, Loc, ProcId};
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
        LitmusTest::builder("branch-squash", program)
            .expect_reg(ProcId::new(0), Reg::new(1), 1u64)
            .expect_mem(b, 1u64)
            .build()
    }

    #[test]
    fn branchy_program_squashes_on_misprediction() {
        let test = branch_squash_test();
        // r1 = 1 together with b = 1 would mean the squashed store escaped.
        assert!(!reachable(&test, GamConfig::gam()));
        // Both r1 = 0 (store b happens) and r1 = 1 (store b suppressed) exist.
        let all = outcomes(&test, GamConfig::gam());
        assert!(all.len() >= 2);
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
