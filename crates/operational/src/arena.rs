//! Structure-sharing state storage: hash-consed component arenas.
//!
//! A machine configuration is mostly *unchanged* context: firing one rule
//! rewrites one processor's private state and occasionally the shared
//! memory, while every other component survives verbatim. Storing each
//! visited state as a full clone therefore duplicates the same per-proc
//! states and memory maps thousands of times, and hashing a candidate
//! successor re-hashes all of that unchanged context on every expansion.
//!
//! [`ComponentArena`] splits a [`ComposedState`] into its components — the
//! shared memory and one entry per processor — and hash-conses each
//! component into its own arena. An interned state is then a flat row of
//! `u32` component ids: state equality and hashing collapse to comparing
//! `1 + #procs` integers, deduplicating a successor against its parent
//! skips every component that is pointer-for-pointer identical context
//! (the common case: one changed proc), and the heap holds each distinct
//! component exactly once no matter how many states share it.
//!
//! Under memory pressure the id-row table is *segmented*: the oldest rows
//! can be spilled to CRC-framed disk segments ([`crate::spill`]) while the
//! hash index keeps covering every slot, so spilled states still
//! deduplicate — a cold row is only re-read when a hash collision forces a
//! full comparison or a spilled frontier entry is expanded. Methods that
//! may touch cold rows are fallible: a lost or injected-faulty segment
//! surfaces as a [`SpillError`] the explorer degrades on, never a panic.
//!
//! The arena reports its sharing through [`ArenaOccupancy`]: how many
//! distinct components back how many states, and the bytes actually
//! interned — the numbers `perf_snapshot` publishes per test.

use std::hash::{BuildHasher, Hash};
use std::path::Path;

use rustc_hash::{FxBuildHasher, FxHashMap};

use crate::codec;
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
    /// Mutable access for [`ComponentArena::load`]'s `clone_from` reuse.
    fn memory_mut(&mut self) -> &mut Self::Mem;
    /// The per-processor components.
    fn procs(&self) -> &[Self::Proc];
    /// Mutable access for [`ComponentArena::load`]'s `clone_from` reuse.
    fn procs_mut(&mut self) -> &mut [Self::Proc];

    /// Approximate bytes a distinct memory component occupies once interned.
    fn mem_bytes(mem: &Self::Mem) -> usize;
    /// Approximate bytes a distinct proc component occupies once interned.
    fn proc_bytes(proc: &Self::Proc) -> usize;

    /// Serializes a memory component for an intra-exploration checkpoint
    /// snapshot. Must be the exact inverse of [`ComposedState::decode_mem`].
    fn encode_mem(mem: &Self::Mem, out: &mut Vec<u8>);
    /// Deserializes a memory component from the front of `input`, returning
    /// `None` on truncated or malformed bytes.
    fn decode_mem(input: &mut &[u8]) -> Option<Self::Mem>;
    /// Serializes a proc component (see [`ComposedState::encode_mem`]).
    fn encode_proc(proc: &Self::Proc, out: &mut Vec<u8>);
    /// Deserializes a proc component (see [`ComposedState::decode_mem`]).
    fn decode_proc(input: &mut &[u8]) -> Option<Self::Proc>;
}

/// Sharing statistics of a [`ComponentArena`] (or, degenerately, of a plain
/// full-state arena), reported through `Exploration` and `perf_snapshot`.
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

    /// Arms spill-to-disk for cold rows. The store's existing rows (a
    /// checkpoint-resume manifest) must match what this arena already
    /// counts as spilled.
    pub(crate) fn arm_spill(&mut self, store: SpillStore) {
        debug_assert_eq!(store.rows(), self.spilled_rows, "manifest matches spilled rows");
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
    /// estimate uses entry counts rather than table capacity (capacity is
    /// not reproducible across a checkpoint resume).
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

    /// The spill manifest for a checkpoint snapshot.
    fn spill_manifest(&self) -> Vec<(String, usize)> {
        self.spill.as_ref().map(SpillStore::manifest).unwrap_or_default()
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
    /// memory; debug builds assert it component by component — except for
    /// a `sparse` state (see `LabeledMachine::labeled_successors_sparse_into`),
    /// whose components outside the mask hold stale buffer content and are
    /// never read at all.
    pub(crate) fn intern_touched(
        &mut self,
        state: &S,
        parent: u32,
        touched: Touched,
        sparse: bool,
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
                sparse || *self.mems.get(self.scratch[0]) == *state.memory(),
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
                    sparse || *self.procs.get(self.scratch[1 + index]) == *proc,
                    "an action must leave other threads' private state intact"
                );
            }
        }
        self.intern_scratch_row()
    }

    /// Deduplicates the row in `scratch` against the state table. Cold
    /// candidate slots (same hash, row on disk) are compared by reloading
    /// their segment — the one place dedup may touch the disk.
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

    /// Serializes the arena for an intra-exploration checkpoint: every
    /// distinct component in id order, the spill-segment manifest, and the
    /// resident rows. The hash index is *not* stored — it is rebuilt
    /// deterministically on decode.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.stride);
        codec::put_usize(out, self.mems.len());
        for id in 0..self.mems.len() {
            S::encode_mem(self.mems.get(id as u32), out);
        }
        codec::put_usize(out, self.procs.len());
        for id in 0..self.procs.len() {
            S::encode_proc(self.procs.get(id as u32), out);
        }
        let manifest = self.spill_manifest();
        codec::put_usize(out, manifest.len());
        for (name, rows) in &manifest {
            codec::put_bytes(out, name.as_bytes());
            codec::put_usize(out, *rows);
        }
        codec::put_usize(out, self.spilled_rows);
        codec::put_usize(out, self.ids.len());
        for &word in &self.ids {
            codec::put_u32(out, word);
        }
    }

    /// Rebuilds an arena from [`ComponentArena::encode`] bytes. Needs the
    /// spill directory when the snapshot references spilled segments (their
    /// rows are re-read to rebuild the hash index). Errors carry a message
    /// suitable for the trace stream.
    pub(crate) fn decode(
        input: &mut &[u8],
        num_procs: usize,
        spill_dir: Option<&Path>,
    ) -> Result<Self, String> {
        let truncated = || "truncated arena snapshot".to_string();
        let stride = codec::take_usize(input).ok_or_else(truncated)?;
        if stride != 1 + num_procs {
            return Err(format!("arena snapshot stride {stride} != {}", 1 + num_procs));
        }
        let mut arena = ComponentArena::new(num_procs);

        let mem_count = codec::take_usize(input).ok_or_else(truncated)?;
        for _ in 0..mem_count {
            let mem = S::decode_mem(input).ok_or_else(truncated)?;
            arena.component_bytes += S::mem_bytes(&mem);
            arena.mems.intern(mem);
        }
        let proc_count = codec::take_usize(input).ok_or_else(truncated)?;
        for _ in 0..proc_count {
            let proc = S::decode_proc(input).ok_or_else(truncated)?;
            arena.component_bytes += S::proc_bytes(&proc);
            arena.procs.intern(proc);
        }

        let manifest_len = codec::take_usize(input).ok_or_else(truncated)?;
        let mut manifest = Vec::with_capacity(manifest_len);
        for _ in 0..manifest_len {
            let name = codec::take_bytes(input).ok_or_else(truncated)?;
            let name = String::from_utf8(name.to_vec())
                .map_err(|_| "non-utf8 segment name in arena snapshot".to_string())?;
            let rows = codec::take_usize(input).ok_or_else(truncated)?;
            manifest.push((name, rows));
        }
        let spilled_rows = codec::take_usize(input).ok_or_else(truncated)?;
        if spilled_rows != manifest.iter().map(|(_, rows)| rows).sum::<usize>() {
            return Err("arena snapshot manifest does not cover its spilled rows".to_string());
        }
        if spilled_rows > 0 {
            let dir = spill_dir
                .ok_or_else(|| "snapshot has spilled segments but no --spill-dir".to_string())?;
            let store =
                SpillStore::from_manifest(dir, stride, manifest).map_err(|err| err.message)?;
            arena.spilled_rows = spilled_rows;
            arena.spill = Some(store);
        }

        let word_count = codec::take_usize(input).ok_or_else(truncated)?;
        if word_count % stride != 0 {
            return Err("arena snapshot id table is not whole rows".to_string());
        }
        arena.ids.reserve(word_count);
        for _ in 0..word_count {
            arena.ids.push(codec::take_u32(input).ok_or_else(truncated)?);
        }

        // Rebuild the hash index in slot order: resident rows directly,
        // cold rows through their segments (sequential, so the one-segment
        // cache makes this a linear read per segment).
        let mut row_buf: Vec<u32> = Vec::with_capacity(stride);
        for slot in 0..arena.len() {
            if slot < arena.spilled_rows {
                let store = arena.spill.as_mut().expect("cold rows imply a store");
                store.read_row(slot, &mut row_buf).map_err(|err| err.message)?;
            } else {
                row_buf.clear();
                let start = (slot - arena.spilled_rows) * stride;
                row_buf.extend_from_slice(&arena.ids[start..start + stride]);
            }
            let component_ok = row_buf[..1].iter().all(|&id| (id as usize) < arena.mems.len())
                && row_buf[1..].iter().all(|&id| (id as usize) < arena.procs.len());
            if !component_ok {
                return Err(format!("arena snapshot row {slot} references unknown components"));
            }
            let hash = arena.hasher.hash_one(&row_buf);
            let slot = u32::try_from(slot).expect("state count fits u32");
            match arena.by_hash.entry(hash) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    entry.get_mut().push(slot);
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(Bucket::One(slot));
                }
            }
        }
        Ok(arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gam::{GamMachine, GamState};
    use crate::machine::{AbstractMachine, LabeledMachine};
    use gam_isa::litmus::library;

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

    #[test]
    fn snapshot_round_trips_including_spilled_segments() {
        let machine = GamMachine::new(&library::mp());
        let initial = machine.initial_state();
        let mut arena: ComponentArena<GamState> = ComponentArena::new(initial.procs().len());
        let root = arena.intern_root(&initial);
        for (_, successor) in machine.labeled_successors(&initial) {
            arena.intern(&successor, root).unwrap();
        }
        let dir =
            std::env::temp_dir().join(format!("gam-arena-snapshot-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        arena.arm_spill(SpillStore::new(&dir, 1 + initial.procs().len()).unwrap());
        arena.spill_oldest(1).unwrap();

        let mut bytes = Vec::new();
        arena.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let mut rebuilt: ComponentArena<GamState> =
            ComponentArena::decode(&mut input, initial.procs().len(), Some(&dir)).unwrap();
        assert!(input.is_empty(), "snapshot is fully consumed");
        assert_eq!(rebuilt.len(), arena.len());
        assert_eq!(rebuilt.occupancy(), arena.occupancy());
        // Dedup behaves identically after the round trip.
        let (slot, is_new) = rebuilt.intern(&initial, 1).unwrap();
        assert!(!is_new);
        assert_eq!(slot, root);
        std::fs::remove_dir_all(&dir).ok();
    }
}
