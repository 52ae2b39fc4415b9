//! Structure-sharing state storage: hash-consed component arenas.
//!
//! A machine configuration is mostly *unchanged* context: firing one rule
//! rewrites one processor's private state and occasionally the shared
//! memory, while every other component survives verbatim. Storing each
//! visited state as a full clone therefore duplicates the same per-proc
//! states and memory maps thousands of times, and hashing a candidate
//! successor re-hashes all of that unchanged context on every expansion.
//!
//! `ComponentArena` splits a [`ComposedState`] into its components — the
//! shared memory and one entry per processor — and hash-conses each
//! component into its own arena. An interned state is then a flat row of
//! `u32` component ids: state equality and hashing collapse to comparing
//! `1 + #procs` integers, deduplicating a successor against its parent
//! skips every component that is pointer-for-pointer identical context
//! (the common case: one changed proc), and the heap holds each distinct
//! component exactly once no matter how many states share it.
//!
//! Under memory pressure the id-row table is *segmented*: the oldest rows
//! can be spilled to CRC-framed disk segments (`crate::spill`) while the
//! hash index keeps covering every slot, so spilled states still
//! deduplicate. The index holds hashes, not rows, so every revisit of a
//! spilled state re-reads its cold row for the full comparison, as does
//! the expansion of a spilled frontier entry; each read costs one 4 KiB
//! CRC-checked block of a segment. Methods that
//! may touch cold rows are fallible: a lost or injected-faulty segment
//! surfaces as a `SpillError` the explorer degrades on, never a panic.
//!
//! The arena reports its sharing through [`ArenaOccupancy`]: how many
//! distinct components back how many states, and the bytes actually
//! interned — the numbers `tests/explorer_counters.rs` pins per test.

use std::hash::{BuildHasher, Hash};

use rustc_hash::{FxBuildHasher, FxHashMap};

use crate::explore::{Bucket, InternedStates};
use crate::machine::Action;
use crate::spill::{SpillError, SpillStore};

/// The components a transition (or a compressed chain of transitions) may
/// have modified, derived from [`Action`] labels: the acting thread's
/// private component, plus the shared memory for memory-writing kinds.
///
/// Under the `LabeledMachine` contract ("private effects are private") a
/// rule firing mutates nothing else, so the explorer can reuse the
/// parent's component ids for everything outside the mask without even an
/// equality check. Debug builds verify the contract per intern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Touched {
    /// Bitmask of touched processor indices (`u32::MAX` = assume all).
    procs: u32,
    mem: bool,
}

impl Touched {
    /// The components one rule firing may touch.
    pub(crate) fn from_action(action: &Action) -> Self {
        if action.thread >= 32 {
            return Touched { procs: u32::MAX, mem: true };
        }
        Touched { procs: 1 << action.thread, mem: action.kind.writes_memory() }
    }

    /// Widens the mask by another rule firing (chain compression).
    pub(crate) fn add_action(&mut self, action: &Action) {
        if action.thread >= 32 {
            self.procs = u32::MAX;
            self.mem = true;
            return;
        }
        self.procs |= 1 << action.thread;
        self.mem |= action.kind.writes_memory();
    }

    fn touches_proc(self, index: usize) -> bool {
        index >= 32 || self.procs & (1 << index) != 0
    }
}

/// A machine state that splits into internable components: the shared
/// memory plus one private component per processor.
///
/// The component count must be constant across every state of one machine
/// (litmus machines have a fixed processor count), and two states must be
/// equal exactly when all their components are equal — which holds by
/// construction for states that are plain structs of their components.
pub trait ComposedState: Clone + Eq + Hash {
    /// The shared-memory component.
    type Mem: Clone + Eq + Hash;
    /// One processor's private component.
    type Proc: Clone + Eq + Hash;

    /// The shared-memory component.
    fn memory(&self) -> &Self::Mem;
    /// Mutable access for `ComponentArena::load`'s `clone_from` reuse.
    fn memory_mut(&mut self) -> &mut Self::Mem;
    /// The per-processor components.
    fn procs(&self) -> &[Self::Proc];
    /// Mutable access for `ComponentArena::load`'s `clone_from` reuse.
    fn procs_mut(&mut self) -> &mut [Self::Proc];

    /// Approximate bytes a distinct memory component occupies once interned.
    fn mem_bytes(mem: &Self::Mem) -> usize;
    /// Approximate bytes a distinct proc component occupies once interned.
    fn proc_bytes(proc: &Self::Proc) -> usize;
}

/// Sharing statistics of a `ComponentArena` (or, degenerately, of a plain
/// full-state arena), reported through `Exploration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaOccupancy {
    /// Interned states (equals `Exploration::states_visited` at the end).
    pub states: usize,
    /// Distinct shared-memory components backing those states.
    pub distinct_memories: usize,
    /// Distinct per-processor components backing those states (all
    /// processor positions share one arena).
    pub distinct_procs: usize,
    /// Approximate bytes held by the interned components plus the id table
    /// (resident and spilled rows alike) — the peak, since arenas only grow.
    pub interned_bytes: usize,
}

impl ArenaOccupancy {
    /// Distinct components of any kind.
    #[must_use]
    pub fn distinct_components(&self) -> usize {
        self.distinct_memories + self.distinct_procs
    }
}

/// A hash-consing state arena over [`ComposedState`] components.
///
/// Each distinct memory and proc component is stored once; a state is a
/// row of `1 + num_procs` component ids in a flat table, deduplicated
/// through a row-hash index. Successor interning takes the parent's row as
/// the starting point, so components the successor shares with its parent
/// are recognized by one equality check — no hashing, no cloning.
///
/// With a [`SpillStore`] armed, rows `[0, spilled_rows)` live on disk and
/// `ids` holds only the resident tail; slot numbering is global and stable,
/// so the hash index and every frontier slot survive a spill unchanged.
#[derive(Debug)]
pub(crate) struct ComponentArena<S: ComposedState> {
    mems: InternedStates<S::Mem>,
    procs: InternedStates<S::Proc>,
    /// Flat id table of the *resident* rows: state `slot` owns
    /// `ids[(slot - spilled_rows) * stride ..][..stride]`, laid out as
    /// `[mem_id, proc0_id, proc1_id, ...]`.
    ids: Vec<u32>,
    stride: usize,
    by_hash: FxHashMap<u64, Bucket>,
    hasher: FxBuildHasher,
    /// Row under construction (kept to avoid re-allocating per intern).
    scratch: Vec<u32>,
    /// Reload buffer for cold-row comparisons (disjoint from `scratch`).
    cold_buf: Vec<u32>,
    component_bytes: usize,
    /// Rows spilled to disk; slots below this are cold.
    spilled_rows: usize,
    spill: Option<SpillStore>,
}

impl<S: ComposedState> ComponentArena<S> {
    /// An empty arena for machines with `num_procs` processors.
    pub(crate) fn new(num_procs: usize) -> Self {
        ComponentArena {
            mems: InternedStates::default(),
            procs: InternedStates::default(),
            ids: Vec::new(),
            stride: 1 + num_procs,
            by_hash: FxHashMap::default(),
            hasher: FxBuildHasher::default(),
            scratch: Vec::with_capacity(1 + num_procs),
            cold_buf: Vec::with_capacity(1 + num_procs),
            component_bytes: 0,
            spilled_rows: 0,
            spill: None,
        }
    }

    /// Number of interned states (resident and spilled).
    pub(crate) fn len(&self) -> usize {
        self.spilled_rows + self.ids.len() / self.stride
    }

    /// Number of rows still resident in RAM.
    pub(crate) fn resident_rows(&self) -> usize {
        self.ids.len() / self.stride
    }

    /// The resident row of `slot`. Panics on a cold slot (tests and
    /// spill-free paths only).
    fn row(&self, slot: u32) -> &[u32] {
        let resident = slot as usize - self.spilled_rows;
        let start = resident * self.stride;
        &self.ids[start..start + self.stride]
    }

    /// Arms spill-to-disk for cold rows with a fresh store.
    pub(crate) fn arm_spill(&mut self, store: SpillStore) {
        debug_assert_eq!(store.rows(), self.spilled_rows, "a fresh store on an unspilled arena");
        self.spill = Some(store);
    }

    /// Is a spill store armed (and usable)?
    pub(crate) fn spill_armed(&self) -> bool {
        self.spill.is_some()
    }

    /// Drops the spill store after a write failure: already-spilled rows
    /// stay readable through it, so this is only legal while nothing has
    /// been spilled yet.
    pub(crate) fn disarm_spill(&mut self) {
        if self.spilled_rows == 0 {
            self.spill = None;
        }
    }

    /// `(bytes on disk, segment files)` of the spill layer.
    pub(crate) fn spill_stats(&self) -> (usize, usize) {
        (
            self.spilled_rows * self.stride * std::mem::size_of::<u32>(),
            self.spill.as_ref().map_or(0, SpillStore::segment_count),
        )
    }

    /// Live memory accounting: `(component bytes, resident id-table bytes,
    /// hash-index bytes)`. Deterministic for a fixed exploration sequence —
    /// the budget ladder and its tests rely on that, which is why the index
    /// estimate uses entry counts rather than table capacity (capacity
    /// follows the table's growth policy, not the search).
    pub(crate) fn account(&self) -> (usize, usize, usize) {
        let index = self.by_hash.len()
            * (std::mem::size_of::<(u64, Bucket)>() + std::mem::size_of::<u64>());
        (self.component_bytes, self.ids.len() * std::mem::size_of::<u32>(), index)
    }

    /// Spills up to `rows` of the oldest resident rows into one new disk
    /// segment, returning the bytes moved. A write failure (including the
    /// `spill.write` fault point) leaves every row resident and the arena
    /// fully usable; the caller should disable further spilling.
    pub(crate) fn spill_oldest(&mut self, rows: usize) -> Result<usize, SpillError> {
        let rows = rows.min(self.resident_rows());
        if rows == 0 {
            return Ok(0);
        }
        let words = rows * self.stride;
        let ComponentArena { ids, spill, .. } = self;
        let store = spill
            .as_mut()
            .ok_or_else(|| SpillError { message: "no spill store armed".to_string() })?;
        store.write_segment(&ids[..words])?;
        self.ids.drain(..words);
        self.spilled_rows += rows;
        Ok(words * std::mem::size_of::<u32>())
    }

    /// Frame bytes the spill layer has read back from disk.
    pub(crate) fn spill_read_bytes(&self) -> usize {
        self.spill.as_ref().map_or(0, SpillStore::read_bytes)
    }

    /// Fills `scratch` with the row of `slot`, reloading a cold row from
    /// disk when necessary.
    fn fill_scratch_from(&mut self, slot: u32) -> Result<(), SpillError> {
        if (slot as usize) < self.spilled_rows {
            let ComponentArena { scratch, spill, .. } = self;
            let store = spill.as_mut().expect("a cold slot implies an armed spill store");
            store.read_row(slot as usize, scratch)?;
        } else {
            let start = (slot as usize - self.spilled_rows) * self.stride;
            let ComponentArena { ids, scratch, stride, .. } = self;
            scratch.clear();
            scratch.extend_from_slice(&ids[start..start + *stride]);
        }
        Ok(())
    }

    /// Interns every component of `state` unconditionally (the initial
    /// state, which has no parent to share with) and returns its slot.
    pub(crate) fn intern_root(&mut self, state: &S) -> u32 {
        debug_assert_eq!(self.len(), 0, "the root is interned first");
        self.scratch.clear();
        let (mem_id, mem_new) = self.mems.intern_ref(state.memory());
        if mem_new {
            self.component_bytes += S::mem_bytes(state.memory());
        }
        self.scratch.push(mem_id);
        for proc in state.procs() {
            let (proc_id, proc_new) = self.procs.intern_ref(proc);
            if proc_new {
                self.component_bytes += S::proc_bytes(proc);
            }
            self.scratch.push(proc_id);
        }
        let (slot, _) = self.intern_scratch_row().expect("an empty arena has no cold rows");
        slot
    }

    /// Interns a successor of the state at `parent`, returning its slot and
    /// whether it is new. Components equal to the parent's are recognized
    /// by one equality check against the parent's interned component and
    /// reuse its id without hashing or cloning anything.
    ///
    /// The explorer uses the label-directed
    /// [`ComponentArena::intern_touched`] instead; this comparison-based
    /// form stays as the test surface for the sharing machinery itself.
    #[cfg(test)]
    pub(crate) fn intern(&mut self, state: &S, parent: u32) -> Result<(u32, bool), SpillError> {
        debug_assert_eq!(state.procs().len() + 1, self.stride, "constant component count");
        self.fill_scratch_from(parent)?;

        if *self.mems.get(self.scratch[0]) != *state.memory() {
            let (mem_id, mem_new) = self.mems.intern_ref(state.memory());
            if mem_new {
                self.component_bytes += S::mem_bytes(state.memory());
            }
            self.scratch[0] = mem_id;
        }
        for (index, proc) in state.procs().iter().enumerate() {
            if *self.procs.get(self.scratch[1 + index]) != *proc {
                let (proc_id, proc_new) = self.procs.intern_ref(proc);
                if proc_new {
                    self.component_bytes += S::proc_bytes(proc);
                }
                self.scratch[1 + index] = proc_id;
            }
        }
        self.intern_scratch_row()
    }

    /// Label-directed [`ComponentArena::intern`]: `touched` names the
    /// components the producing transition(s) may have modified (from the
    /// [`Action`] labels), so every component outside the mask reuses the
    /// parent's id without any comparison — the successor re-interns *one*
    /// proc (plus the memory on writes) instead of touching the world.
    ///
    /// Soundness rests on the `LabeledMachine` contract that a rule mutates
    /// only the acting thread's private state and the declared shared
    /// memory; debug builds assert it component by component.
    pub(crate) fn intern_touched(
        &mut self,
        state: &S,
        parent: u32,
        touched: Touched,
    ) -> Result<(u32, bool), SpillError> {
        debug_assert_eq!(state.procs().len() + 1, self.stride, "constant component count");
        self.fill_scratch_from(parent)?;

        if touched.mem {
            if *self.mems.get(self.scratch[0]) != *state.memory() {
                let (mem_id, mem_new) = self.mems.intern_ref(state.memory());
                if mem_new {
                    self.component_bytes += S::mem_bytes(state.memory());
                }
                self.scratch[0] = mem_id;
            }
        } else {
            debug_assert!(
                *self.mems.get(self.scratch[0]) == *state.memory(),
                "a non-writing action must leave the shared memory intact"
            );
        }
        for (index, proc) in state.procs().iter().enumerate() {
            if touched.touches_proc(index) {
                if *self.procs.get(self.scratch[1 + index]) != *proc {
                    let (proc_id, proc_new) = self.procs.intern_ref(proc);
                    if proc_new {
                        self.component_bytes += S::proc_bytes(proc);
                    }
                    self.scratch[1 + index] = proc_id;
                }
            } else {
                debug_assert!(
                    *self.procs.get(self.scratch[1 + index]) == *proc,
                    "an action must leave other threads' private state intact"
                );
            }
        }
        self.intern_scratch_row()
    }

    /// Deduplicates the row in `scratch` against the state table. Cold
    /// candidate slots (same hash, row on disk) are compared by reloading
    /// their row's block — the one place dedup may touch the disk.
    fn intern_scratch_row(&mut self) -> Result<(u32, bool), SpillError> {
        let hash = self.hasher.hash_one(&self.scratch);
        let slot = u32::try_from(self.len()).expect("state count fits u32");
        let mut cold: Vec<u32> = Vec::new();
        if let Some(bucket) = self.by_hash.get(&hash) {
            let base = self.spilled_rows;
            for &candidate in bucket.slots() {
                if (candidate as usize) >= base {
                    let start = (candidate as usize - base) * self.stride;
                    if self.ids[start..start + self.stride] == self.scratch[..] {
                        return Ok((candidate, false));
                    }
                } else {
                    cold.push(candidate);
                }
            }
        }
        for candidate in cold {
            let ComponentArena { cold_buf, spill, .. } = self;
            let store = spill.as_mut().expect("a cold slot implies an armed spill store");
            store.read_row(candidate as usize, cold_buf)?;
            if self.cold_buf == self.scratch {
                return Ok((candidate, false));
            }
        }
        match self.by_hash.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                entry.get_mut().push(slot);
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Bucket::One(slot));
            }
        }
        self.ids.extend_from_slice(&self.scratch);
        Ok((slot, true))
    }

    /// Reassembles the state at `slot` into `into`, reusing its buffers
    /// through `clone_from`. Cold slots reload their row from disk.
    pub(crate) fn load(&mut self, slot: u32, into: &mut S) -> Result<(), SpillError> {
        if (slot as usize) < self.spilled_rows {
            {
                let ComponentArena { cold_buf, spill, .. } = self;
                let store = spill.as_mut().expect("a cold slot implies an armed spill store");
                store.read_row(slot as usize, cold_buf)?;
            }
            into.memory_mut().clone_from(self.mems.get(self.cold_buf[0]));
            for (index, proc) in into.procs_mut().iter_mut().enumerate() {
                proc.clone_from(self.procs.get(self.cold_buf[1 + index]));
            }
        } else {
            let row = self.row(slot);
            into.memory_mut().clone_from(self.mems.get(row[0]));
            for (index, proc) in into.procs_mut().iter_mut().enumerate() {
                proc.clone_from(self.procs.get(row[1 + index]));
            }
        }
        Ok(())
    }

    /// The arena's sharing statistics.
    pub(crate) fn occupancy(&self) -> ArenaOccupancy {
        ArenaOccupancy {
            states: self.len(),
            distinct_memories: self.mems.len(),
            distinct_procs: self.procs.len(),
            interned_bytes: self.component_bytes
                + self.len() * self.stride * std::mem::size_of::<u32>(),
        }
    }

    /// Reassembles every interned state in slot order, cloning `template`
    /// for the buffers (used when a sequential exploration escalates to the
    /// sharded continuation — escalation is disabled once memory
    /// budgeting is armed, so no row can be cold here).
    pub(crate) fn export_states(&mut self, template: &S) -> Vec<S> {
        assert_eq!(self.spilled_rows, 0, "cannot export a partially spilled arena");
        (0..self.len())
            .map(|slot| {
                let mut state = template.clone();
                self.load(slot as u32, &mut state).expect("no cold rows without spill");
                state
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gam::{GamConfig, GamMachine, GamState};
    use crate::machine::{AbstractMachine, LabeledMachine};
    use crate::sc::ScMachine;
    use crate::tso::TsoMachine;
    use gam_isa::litmus::{library, LitmusTest};

    /// Walks the whole unreduced state graph of `machine` depth-first and
    /// interns every successor twice: into a [`ComponentArena`] through
    /// [`ComponentArena::intern_touched`] with the label-derived mask, and
    /// into a plain full-state set. The two must answer the same `(slot,
    /// is_new)` at every step, and [`ComponentArena::load`] must reassemble
    /// every state it expands. Each successor is also stepped once more by
    /// every action enabled there, and the two-step state is interned from
    /// the first state with the union of both masks: the mask a compressed
    /// chain hands the arena. The walk must intern exactly the states the
    /// unreduced reference search reaches; their number is returned.
    fn assert_touched_interning_matches_full_states<M>(machine: &M) -> usize
    where
        M: LabeledMachine,
        M::State: ComposedState + std::fmt::Debug,
    {
        let initial = machine.initial_state();
        let mut arena: ComponentArena<M::State> = ComponentArena::new(initial.procs().len());
        let mut full: InternedStates<M::State> = InternedStates::default();
        assert_eq!(arena.intern_root(&initial), full.intern(initial.clone()).0);
        let mut stack = vec![0];
        let (mut state, mut next, mut after) = (initial.clone(), initial.clone(), initial);
        let (mut labels, mut later) = (Vec::new(), Vec::new());
        while let Some(slot) = stack.pop() {
            arena.load(slot, &mut state).unwrap();
            assert_eq!(state, *full.get(slot), "{}: slot {slot} reassembles", machine.name());
            machine.enabled_actions(&state, &mut labels);
            for action in &labels {
                machine.successor_into(&state, action, &mut next);
                let touched = Touched::from_action(action);
                let interned = arena.intern_touched(&next, slot, touched).unwrap();
                assert_eq!(interned, full.intern_ref(&next), "{}: {action:?}", machine.name());
                if interned.1 {
                    stack.push(interned.0);
                }
                machine.enabled_actions(&next, &mut later);
                for second in &later {
                    machine.successor_into(&next, second, &mut after);
                    let mut chain = touched;
                    chain.add_action(second);
                    let interned = arena.intern_touched(&after, slot, chain).unwrap();
                    assert_eq!(
                        interned,
                        full.intern_ref(&after),
                        "{}: {action:?} then {second:?}",
                        machine.name()
                    );
                    if interned.1 {
                        stack.push(interned.0);
                    }
                }
            }
        }
        let oracle = crate::oracle::explore_unreduced(machine, usize::MAX).unwrap();
        assert_eq!(arena.len(), oracle.states_visited, "{}: every state", machine.name());
        arena.len()
    }

    /// Two threads that each branch on a load of `a` around a store:
    /// speculation, misprediction squashes and refetches rewrite whole
    /// proc components.
    fn branchy() -> LitmusTest {
        use gam_isa::prelude::*;
        let (a, b) = (Loc::new("a"), Loc::new("b"));
        let mut p0 = ThreadProgram::builder(ProcId::new(0));
        p0.load(Reg::new(1), Addr::loc(a))
            .branch(BranchCond::Ne, Operand::reg(Reg::new(1)), Operand::imm(0), "skip")
            .store(Addr::loc(b), Operand::imm(1))
            .label("skip")
            .load(Reg::new(2), Addr::loc(b));
        let mut p1 = ThreadProgram::builder(ProcId::new(1));
        p1.store(Addr::loc(a), Operand::imm(1))
            .load(Reg::new(1), Addr::loc(b))
            .branch(BranchCond::Eq, Operand::reg(Reg::new(1)), Operand::imm(0), "end")
            .store(Addr::loc(a), Operand::imm(2))
            .label("end");
        let program = Program::new(vec![p0.build(), p1.build()]);
        LitmusTest::builder("branchy-arena", program)
            .observe_reg(ProcId::new(0), Reg::new(1))
            .observe_reg(ProcId::new(0), Reg::new(2))
            .observe_reg(ProcId::new(1), Reg::new(1))
            .observe_mem(a)
            .observe_mem(b)
            .build()
    }

    #[test]
    fn touched_interning_matches_full_state_interning_on_every_machine() {
        for test in library::all_tests() {
            assert_touched_interning_matches_full_states(&ScMachine::new(&test));
            assert_touched_interning_matches_full_states(&TsoMachine::new(&test));
            assert_touched_interning_matches_full_states(&GamMachine::new(&test));
            let gam0 = GamMachine::with_config(&test, GamConfig::gam0());
            assert_touched_interning_matches_full_states(&gam0);
        }
        let test = branchy();
        for config in [GamConfig::gam(), GamConfig::gam0()] {
            let states = assert_touched_interning_matches_full_states(&GamMachine::with_config(
                &test, config,
            ));
            assert!(states > 100, "the branchy program has {states} states");
        }
    }

    #[test]
    fn successors_share_unchanged_components_with_their_parent() {
        let machine = GamMachine::new(&library::dekker());
        let initial = machine.initial_state();
        let mut arena: ComponentArena<GamState> = ComponentArena::new(initial.procs().len());
        let root = arena.intern_root(&initial);
        assert_eq!(root, 0);
        assert_eq!(arena.len(), 1);

        let successors = machine.labeled_successors(&initial);
        assert!(!successors.is_empty());
        for (_, successor) in &successors {
            let (slot, is_new) = arena.intern(successor, root).unwrap();
            assert!(is_new, "distinct successors intern to fresh slots");
            // Dekker's first steps touch exactly one proc (store-data /
            // address already resolved at fetch; the commit also writes
            // memory) — the untouched proc's component is shared.
            let parent_row: Vec<u32> = arena.row(root).to_vec();
            let child_row: Vec<u32> = arena.row(slot).to_vec();
            let shared = parent_row.iter().zip(&child_row).filter(|(a, b)| a == b).count();
            assert!(shared >= 1, "at least one component is shared with the parent");
        }
        // Re-interning an existing successor is a pure lookup.
        let (slot0, fresh) = arena.intern(&successors[0].1, root).unwrap();
        assert!(!fresh);
        assert_eq!(slot0, 1);

        let occupancy = arena.occupancy();
        assert_eq!(occupancy.states, 1 + successors.len());
        assert!(occupancy.distinct_memories >= 1);
        assert!(occupancy.distinct_procs >= 2, "two procs in the initial state alone");
        assert!(occupancy.distinct_components() < occupancy.states * 3);
        assert!(occupancy.interned_bytes > 0);
    }

    #[test]
    fn load_round_trips_interned_states() {
        let machine = GamMachine::new(&library::mp());
        let initial = machine.initial_state();
        let mut arena: ComponentArena<GamState> = ComponentArena::new(initial.procs().len());
        let root = arena.intern_root(&initial);

        let mut expected = vec![initial.clone()];
        for (_, successor) in machine.labeled_successors(&initial) {
            arena.intern(&successor, root).unwrap();
            expected.push(successor);
        }
        let mut scratch = initial.clone();
        for (slot, state) in expected.iter().enumerate() {
            arena.load(slot as u32, &mut scratch).unwrap();
            assert_eq!(scratch, *state, "slot {slot} reassembles exactly");
        }
        assert_eq!(arena.export_states(&initial), expected);
    }

    #[test]
    fn spilled_rows_still_deduplicate_and_load() {
        let machine = GamMachine::new(&library::dekker());
        let initial = machine.initial_state();
        let mut arena: ComponentArena<GamState> = ComponentArena::new(initial.procs().len());
        let root = arena.intern_root(&initial);
        let successors = machine.labeled_successors(&initial);
        for (_, successor) in &successors {
            arena.intern(successor, root).unwrap();
        }
        let before = arena.len();
        let expected = arena.export_states(&initial);

        // Fault plans are process-wide: keep the spill fault tests out.
        let _guard = gam_core::fault::exclusive();
        let dir = std::env::temp_dir().join(format!("gam-arena-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        arena.arm_spill(SpillStore::new(&dir, 1 + initial.procs().len()).unwrap());
        let spilled = arena.spill_oldest(2).unwrap();
        assert!(spilled > 0);
        assert_eq!(arena.len(), before, "spilling moves rows, never loses states");
        assert_eq!(arena.resident_rows(), before - 2);
        let (disk_bytes, segments) = arena.spill_stats();
        assert_eq!(disk_bytes, spilled);
        assert_eq!(segments, 1);

        // Cold slots still load and still deduplicate.
        let mut scratch = initial.clone();
        for (slot, state) in expected.iter().enumerate() {
            arena.load(slot as u32, &mut scratch).unwrap();
            assert_eq!(scratch, *state, "slot {slot} reassembles after spill");
        }
        let (slot, is_new) = arena.intern(&initial, (before - 1) as u32).unwrap();
        assert!(!is_new, "the spilled root still deduplicates");
        assert_eq!(slot, root);
        std::fs::remove_dir_all(&dir).ok();
    }
}
