//! Exhaustive exploration of an abstract machine's state space.
//!
//! The explorer performs a memoised search over the transition graph of a
//! [`LabeledMachine`], collecting the outcome of every reachable final
//! state. Litmus-test state spaces are finite (bounded ROBs, bounded
//! programs), so the search is exact; configurable limits guard against
//! pathological inputs.
//!
//! There is **one driver**: a sequential depth-first search over a
//! component arena (`ComponentArena`), which stores every visited state as
//! a row of hash-consed component ids so unchanged per-proc states and
//! memories are shared across the visited set. It carries everything a
//! production run needs: the memory governor and its spill ladder,
//! periodic checkpoint snapshots and resume, interrupt polling, the early
//! exit at the first witness, and the escalation below.
//!
//! The reduction mode ([`Reduction`]) is *data* in that driver, following
//! the standard view of partial-order reduction: an unreduced search is the
//! degenerate case where the persistent set holds every enabled action and
//! every sleep set is empty. The reduced modes add:
//!
//! * **Persistent sets** — when every enabled action of some thread is
//!   thread-private (`ActionKind::Local` / `ActionKind::Fence`), those
//!   actions commute with every action any other thread can ever take, so
//!   exploring only that thread from this state reaches the same final
//!   states. This prunes whole subtrees and therefore *states*.
//! * **Sleep sets** — after exploring action `a` from a state, every
//!   sibling ordering that begins with an action independent of `a` and
//!   later fires `a` revisits the same states; the successor inherits a
//!   *sleep set* of such already-covered actions and skips them. This prunes
//!   *transitions* (re-expansions), not states. Revisiting an interned state
//!   with a sleep set that is not a superset of the stored one re-expands it
//!   with the intersection, which keeps the search exact.
//! * **Canonicalization** ([`Reduction::SleepPlusCanon`]) — states are
//!   rewritten by [`LabeledMachine::canonicalize`] before interning, so
//!   states differing only in semantically dead fields (e.g. the recorded
//!   prediction of a resolved branch) collapse to one arena slot.
//!
//! Under [`Reduction::Off`] the driver keeps its cheap path: *sparse*
//! successors ([`LabeledMachine::labeled_successors_sparse_into`]) and no
//! per-slot sleep bookkeeping at all.
//!
//! With [`ExplorerConfig::parallelism`] above one, a run whose state count
//! passes [`ExplorerConfig::parallel_threshold`] hands its visited set and
//! frontier to **one sharded continuation**: the frontier is sharded by
//! state hash across that many worker threads, each shard owns the states
//! whose hash lands in it (so deduplication stays lock-local), idle workers
//! pull expansion batches from a shared injector queue, and the per-worker
//! outcome sets are merged at the end. It stores full states and reports no
//! arena occupancy.
//!
//! Finally, [`Explorer::explore_reference`] is a small full-state
//! **reference oracle** — same search, plain interning, no governor — that
//! the differential test-suites compare the arena driver against.
//!
//! Soundness of the reduction rests on the [`LabeledMachine`] contract
//! (thread-local guards, honest memory-address labels): under it, the
//! reduced search reaches exactly the final states of the full search, which
//! the repository pins with differential tests over the entire litmus
//! library and randomly generated programs.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::BuildHasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gam_core::{fault, Interrupt, MemoryAccountant, StopReason};
use gam_isa::litmus::{Observation, Outcome};
use gam_isa::{Loc, ProcId, Reg, Value};
use rustc_hash::{FxBuildHasher, FxHashMap};

use crate::arena::{ComponentArena, ComposedState, Touched};
use crate::codec;
use crate::machine::{Action, ActionKind, Footprint, LabeledMachine};
use crate::spill::{SpillError, SpillStore};

/// The partial-order/symmetry reduction mode of the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reduction {
    /// Visit every interleaving: the persistent set is every enabled action
    /// and every sleep set is empty. The baseline the reduced modes are
    /// differentially tested against.
    #[default]
    Off,
    /// Persistent-set + sleep-set partial-order reduction over transition
    /// labels.
    Sleep,
    /// [`Reduction::Sleep`] plus state canonicalization
    /// ([`LabeledMachine::canonicalize`]) before interning.
    SleepPlusCanon,
}

impl Reduction {
    /// All modes, in increasing aggressiveness.
    pub const ALL: [Reduction; 3] = [Reduction::Off, Reduction::Sleep, Reduction::SleepPlusCanon];

    /// Is any reduction active?
    #[must_use]
    pub fn is_reduced(self) -> bool {
        !matches!(self, Reduction::Off)
    }

    /// Does the mode canonicalize states before interning?
    #[must_use]
    pub fn canonicalizes(self) -> bool {
        matches!(self, Reduction::SleepPlusCanon)
    }

    /// A short lowercase name (`"off"` / `"sleep"` / `"sleep+canon"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Reduction::Off => "off",
            Reduction::Sleep => "sleep",
            Reduction::SleepPlusCanon => "sleep+canon",
        }
    }
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Limits and resources of the exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorerConfig {
    /// Maximum number of distinct states to visit before giving up.
    pub max_states: usize,
    /// Number of worker threads of the sharded continuation (1 means the
    /// sequential driver runs every exploration to completion). Above 1, a
    /// run that outgrows [`ExplorerConfig::parallel_threshold`] hands its
    /// visited set to that many workers over full states — no component
    /// sharing, no memory governor, and `states_visited`/
    /// `transitions_pruned` run-dependent under reduction. Composes
    /// multiplicatively with any suite-level parallelism (e.g.
    /// `Engine::run_suite` workers) — keep the product near the core count.
    pub parallelism: usize,
    /// The adaptive-sharding trigger: with `parallelism > 1`, exploration
    /// still *starts* sequentially and only escalates to the sharded
    /// continuation once this many distinct states have been interned
    /// with frontier work remaining — the running state count is the one
    /// state-count estimate that is always right. Litmus-scale spaces
    /// (hundreds of states, microseconds of work) finish sequentially and
    /// never pay thread spawn/handoff overhead; big spaces amortize the
    /// one-time migration of the visited set into the shards. `0` shards
    /// after the first expansion (the sharded-continuation tests use it).
    pub parallel_threshold: usize,
    /// The partial-order/symmetry reduction mode.
    pub reduction: Reduction,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_states: 5_000_000,
            parallelism: 1,
            parallel_threshold: 8_192,
            reduction: Reduction::Off,
        }
    }
}

impl ExplorerConfig {
    /// The default limits with the machine's available hardware parallelism.
    #[must_use]
    pub fn parallel() -> Self {
        let n = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ExplorerConfig { parallelism: n, ..ExplorerConfig::default() }
    }

    /// The default limits with the strongest reduction
    /// ([`Reduction::SleepPlusCanon`]).
    #[must_use]
    pub fn reduced() -> Self {
        ExplorerConfig { reduction: Reduction::SleepPlusCanon, ..ExplorerConfig::default() }
    }
}

/// Memory budgeting, spill-to-disk and intra-exploration checkpointing for
/// the sequential driver.
///
/// Arming either the budget or a checkpoint plan forces the exploration to
/// stay sequential (the adaptive escalation to the sharded continuation is
/// disabled): the budget ladder and checkpoint snapshots rely on the
/// deterministic single-frontier search. The reference oracle ignores this
/// configuration entirely.
#[derive(Debug, Clone, Default)]
pub struct MemoryConfig {
    /// Hard in-RAM budget in *accounted* bytes (see
    /// [`gam_core::MemoryAccountant`] — deterministic figures, not allocator
    /// truth). At 80% the degradation ladder starts (sleep-cache flush, then
    /// cold-row spilling); at 100% after every degradation step the
    /// exploration stops with [`StopReason::MemoryBudget`].
    pub max_bytes: Option<usize>,
    /// Directory for cold arena segments. Without it (or without
    /// `max_bytes`) nothing is ever spilled and the ladder skips straight
    /// from cache flushing to the hard stop.
    pub spill_dir: Option<PathBuf>,
    /// Intra-exploration checkpointing: periodic snapshots of the full
    /// search state, enabling mid-exploration resume after a crash.
    pub checkpoint: Option<CheckpointPlan>,
}

impl MemoryConfig {
    /// Does this configuration constrain the exploration (and therefore
    /// force the sequential driver)?
    pub(crate) fn armed(&self) -> bool {
        self.max_bytes.is_some() || self.checkpoint.is_some()
    }
}

/// Receiver of encoded intra-exploration snapshots (e.g. a run-checkpoint
/// journal). Must be fast relative to the snapshot cadence.
pub type SnapshotSink = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// Periodic intra-exploration checkpointing: every `every_expansions`
/// expansions the sequential driver encodes its complete search
/// state (arena, frontier, outcomes, reduction bookkeeping) and hands the
/// bytes to `sink`. A run killed between snapshots resumes from `resume`
/// with counters identical to an uninterrupted run — the search is
/// deterministic and the snapshot captures all of it.
#[derive(Clone)]
pub struct CheckpointPlan {
    /// Snapshot cadence in expansions (0 disables snapshots; `resume` still
    /// applies).
    pub every_expansions: usize,
    /// Receives each encoded snapshot (e.g. records it into a run
    /// checkpoint journal). Must be fast relative to the cadence.
    pub sink: SnapshotSink,
    /// A snapshot produced by a previous incarnation to resume from. An
    /// undecodable snapshot is reported on the trace stream and the
    /// exploration restarts from scratch (still sound, just slower).
    pub resume: Option<Arc<Vec<u8>>>,
}

impl fmt::Debug for CheckpointPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointPlan")
            .field("every_expansions", &self.every_expansions)
            .field("resume", &self.resume.as_ref().map(|bytes| bytes.len()))
            .finish_non_exhaustive()
    }
}

/// Memory-pressure statistics of a budgeted exploration (accounted bytes —
/// deterministic for a fixed search; resumed runs may legitimately differ in
/// `peak_bytes`, so default reports exclude these figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// High-water mark of the accounted in-RAM total.
    pub peak_bytes: usize,
    /// Bytes moved to disk by the spill ladder.
    pub spilled_bytes: usize,
    /// Spill segment files written.
    pub spill_segments: usize,
    /// Times the sleep-set caches were flushed under pressure.
    pub sleep_flushes: usize,
}

/// Errors reported by the explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The state space exceeded [`ExplorerConfig::max_states`].
    StateLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// Number of distinct states actually visited when the exploration
        /// aborted (can exceed `limit` slightly under parallel exploration).
        states_visited: usize,
        /// The outcomes of the final states reached before the abort — a
        /// sound *under*-approximation of the true outcome set, kept for
        /// diagnostics.
        partial_outcomes: BTreeSet<Outcome>,
    },
    /// A non-final state had no enabled rule (the machine deadlocked), which
    /// indicates a modelling bug.
    Deadlock,
    /// The exploration stopped early because its [`Interrupt`] triggered —
    /// the shared cancel token was cancelled or the wall-clock budget ran
    /// out. Like [`ExploreError::StateLimitExceeded`], the partial outcome
    /// set is a sound under-approximation of the true one.
    Interrupted {
        /// Why the exploration stopped.
        reason: StopReason,
        /// Number of distinct states visited when the poll tripped.
        states_visited: usize,
        /// The outcomes of the final states reached before the stop.
        partial_outcomes: BTreeSet<Outcome>,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimitExceeded { limit, states_visited, partial_outcomes } => {
                write!(
                    f,
                    "state space exceeded the limit of {limit} states \
                     ({states_visited} visited, {} partial outcomes collected)",
                    partial_outcomes.len()
                )
            }
            ExploreError::Deadlock => write!(f, "a non-final state has no enabled rule"),
            ExploreError::Interrupted { reason, states_visited, partial_outcomes } => {
                write!(
                    f,
                    "exploration interrupted: {reason} \
                     ({states_visited} states visited, {} partial outcomes collected)",
                    partial_outcomes.len()
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// The set of outcomes of all reachable final states.
    pub outcomes: BTreeSet<Outcome>,
    /// Number of distinct states visited (canonical states under
    /// [`Reduction::SleepPlusCanon`]).
    pub states_visited: usize,
    /// Number of reachable final states (counted once per distinct state).
    pub final_states: usize,
    /// Number of enabled transitions the reduction skipped (persistent-set
    /// and sleep-set prunes). Zero under [`Reduction::Off`].
    pub transitions_pruned: usize,
    /// Structure-sharing statistics of the component arena. `None` exactly
    /// when the run escalated to the sharded continuation, which stores
    /// full states (and from the reference oracle, which does too).
    pub arena: Option<crate::arena::ArenaOccupancy>,
    /// Memory-pressure statistics. `Some` only when a
    /// [`MemoryConfig::max_bytes`] budget was armed.
    pub memory: Option<MemoryStats>,
}

/// An exhaustive state-space explorer.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    config: ExplorerConfig,
    /// Cooperative interruption source, polled by the driver at
    /// [`INTERRUPT_POLL_MASK`] cadence and by every sharded worker once per
    /// batch. Defaults to never triggering.
    interrupt: Interrupt,
    /// Memory budgeting / spilling / checkpointing (sequential driver only).
    memory: MemoryConfig,
}

/// Expansion-loop polling cadence: the interrupt is checked on the first
/// expansion and every 256 thereafter, so even litmus-scale explorations see
/// at least one poll and big ones pay one `Instant::now()` per ~256 states.
const INTERRUPT_POLL_MASK: usize = 0xFF;

/// A sorted set of [`Action`]s with inline storage for small sets.
///
/// Sleep sets are built, intersected and retained once per explored
/// transition; almost all of them hold a handful of actions. Backing them
/// with `Vec<Action>` made every one a heap allocation — this small-vec
/// keeps up to [`ActionSet::INLINE`] actions in place (covering the
/// overwhelming majority of sets on the litmus library) and only spills
/// larger sets to the heap.
#[derive(Debug, Clone)]
pub(crate) struct ActionSet {
    repr: ActionSetRepr,
}

#[derive(Debug, Clone)]
enum ActionSetRepr {
    Inline { len: u8, items: [Action; ActionSet::INLINE] },
    Heap(Vec<Action>),
}

impl ActionSet {
    /// Inline capacity before spilling to the heap.
    const INLINE: usize = 6;

    const DUMMY: Action = Action { thread: 0, id: 0, kind: ActionKind::Local, addr: 0 };

    /// The empty set.
    pub(crate) const fn new() -> Self {
        ActionSet {
            repr: ActionSetRepr::Inline { len: 0, items: [ActionSet::DUMMY; ActionSet::INLINE] },
        }
    }

    pub(crate) fn as_slice(&self) -> &[Action] {
        match &self.repr {
            ActionSetRepr::Inline { len, items } => &items[..*len as usize],
            ActionSetRepr::Heap(items) => items,
        }
    }

    /// Membership in the sorted set.
    pub(crate) fn contains(&self, action: &Action) -> bool {
        self.as_slice().binary_search(action).is_ok()
    }

    /// Is `self` a subset of `other`? Both sorted and deduplicated.
    pub(crate) fn is_subset(&self, other: &ActionSet) -> bool {
        self.as_slice().iter().all(|action| other.contains(action))
    }

    /// The intersection of two sorted, deduplicated sets.
    pub(crate) fn intersect(&self, other: &ActionSet) -> ActionSet {
        let mut out = ActionSet::new();
        for action in self.as_slice() {
            if other.contains(action) {
                out.push(*action);
            }
        }
        // Both inputs are sorted, so the filtered copy already is.
        out
    }

    /// Appends an action (possibly out of order — call
    /// [`ActionSet::sort_dedup`] before using set operations).
    pub(crate) fn push(&mut self, action: Action) {
        match &mut self.repr {
            ActionSetRepr::Inline { len, items } => {
                if (*len as usize) < ActionSet::INLINE {
                    items[*len as usize] = action;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(ActionSet::INLINE * 2);
                    spilled.extend_from_slice(items);
                    spilled.push(action);
                    self.repr = ActionSetRepr::Heap(spilled);
                }
            }
            ActionSetRepr::Heap(items) => items.push(action),
        }
    }

    /// Is the set heap-backed (i.e. would dropping it free memory)?
    pub(crate) fn is_heap(&self) -> bool {
        matches!(self.repr, ActionSetRepr::Heap(_))
    }

    /// Sorts and deduplicates, restoring the set invariant after pushes.
    pub(crate) fn sort_dedup(&mut self) {
        match &mut self.repr {
            ActionSetRepr::Inline { len, items } => {
                let slice = &mut items[..*len as usize];
                slice.sort_unstable();
                // Slice dedup in place.
                let mut kept = 0usize;
                for index in 0..*len as usize {
                    if kept == 0 || items[kept - 1] != items[index] {
                        items[kept] = items[index];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            ActionSetRepr::Heap(items) => {
                items.sort_unstable();
                items.dedup();
            }
        }
    }

    /// Keeps only the actions satisfying the predicate (preserves order).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Action) -> bool) {
        match &mut self.repr {
            ActionSetRepr::Inline { len, items } => {
                let mut kept = 0usize;
                for index in 0..*len as usize {
                    if keep(&items[index]) {
                        items[kept] = items[index];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            ActionSetRepr::Heap(items) => items.retain(|action| keep(action)),
        }
    }
}

impl PartialEq for ActionSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ActionSet {}

/// A persistent set chosen for one state expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chosen {
    /// No reduction possible: explore every enabled action.
    All,
    /// Explore only the given thread's actions.
    Thread(u32),
    /// Explore exactly one action.
    Single(Action),
}

impl Chosen {
    fn keeps(self, action: &Action) -> bool {
        match self {
            Chosen::All => true,
            Chosen::Thread(thread) => action.thread == thread,
            Chosen::Single(single) => *action == single,
        }
    }
}

/// Persistent-set selection over the transition labels, strongest first.
///
/// Three tiers, all resting on the [`LabeledMachine`] contract
/// (thread-local guards and labels, honest memory addresses):
///
/// 1. **Singleton** — an action that is independent of everything its own
///    thread can do ([`LabeledMachine::own_thread_independent`]) *and*
///    cannot conflict with any other active thread (it is thread-private,
///    or its address misses every other footprint) commutes with every
///    action any sequence of non-chosen actions can ever contain; it is a
///    one-element persistent set and is explored alone.
/// 2. **Thread** — a thread whose enabled actions are all thread-private
///    (`ActionKind::Local`/`ActionKind::Fence`), or whose memory actions
///    are all footprint-disjoint from every other active thread: a read
///    must miss the others' may-write sets, a write must miss their
///    may-access sets ([`LabeledMachine::future_footprint`]).
/// 3. **All** — no candidate qualifies; the state expands fully.
///
/// Only threads with an enabled action are consulted: guards are
/// thread-local, so a thread without one can never be woken by another
/// thread and will never act again. The choice is a pure function of the
/// state, which keeps reduced exploration deterministic in the sequential
/// driver.
fn choose_persistent<M: LabeledMachine>(
    machine: &M,
    state: &M::State,
    labeled: &[(Action, M::State)],
) -> Chosen {
    let mut threads: Vec<u32> = labeled.iter().map(|(action, _)| action.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    if threads.len() <= 1 {
        // A single active thread is vacuously persistent — and there is
        // nothing to prune.
        return Chosen::All;
    }
    let mut footprints: Option<Vec<(u32, Footprint)>> = None;
    let mut cross_thread_safe = |machine: &M, action: &Action| -> bool {
        if !action.kind.touches_memory() {
            return true;
        }
        let footprints = footprints.get_or_insert_with(|| {
            threads
                .iter()
                .map(|&thread| (thread, machine.future_footprint(state, thread as usize)))
                .collect()
        });
        footprints.iter().all(|(other, footprint)| {
            *other == action.thread
                || if action.kind.writes_memory() {
                    !footprint.may_access(action.addr)
                } else {
                    !footprint.may_write(action.addr)
                }
        })
    };

    // Tier 1: a singleton.
    for (action, _) in labeled {
        if machine.own_thread_independent(state, action) && cross_thread_safe(machine, action) {
            return Chosen::Single(*action);
        }
    }
    // Tier 2: a whole thread.
    'candidate: for &candidate in &threads {
        for (action, _) in labeled {
            if action.thread != candidate {
                continue;
            }
            if !cross_thread_safe(machine, action) {
                continue 'candidate;
            }
        }
        return Chosen::Thread(candidate);
    }
    Chosen::All
}

/// Bound on singleton-chain compression steps between interned states.
///
/// Singleton-qualified rules make monotone progress in the shipped machines
/// (they set done/available bits or advance in-order state), so chains
/// cannot cycle; the cap is defensive, and keeps the state limit meaningful
/// for machines whose chains are unexpectedly long.
const MAX_CHAIN: usize = 64;

/// Frontier items a parallel worker claims and expands per batched handoff
/// round. Bounds both the handoff amortization (one lock per destination
/// shard per round instead of one per successor) and the latency before
/// freshly discovered work becomes visible to other workers.
const HANDOFF_BATCH: usize = 16;

/// An early-exit predicate over final-state outcomes (`Sync` so the
/// sharded workers can consult it).
type StopFn<'a> = &'a (dyn Fn(&Outcome) -> bool + Sync);

/// The reduction of one search, as data: persistent-set choice, sleep-set
/// inheritance and singleton-chain compression under the reduced modes,
/// and the degenerate "every action, empty sleep sets" under
/// [`Reduction::Off`]. The driver, the oracle and each sharded worker own
/// one, so its scratch buffers are reused across expansions.
struct Reducer<'m, M: LabeledMachine> {
    machine: &'m M,
    reduction: Reduction,
    /// Actions already explored from the state being expanded: later
    /// siblings independent of them inherit them as sleep entries.
    explored: Vec<Action>,
    /// Scratch successor buffer of the chain compressor.
    chain_buf: Vec<(Action, M::State)>,
    /// The sleep set of the state being expanded, filled by
    /// [`SleepBook::claim`] (always empty under [`Reduction::Off`]).
    asleep: ActionSet,
    /// The sleep set the successor last passed to [`Reducer::reduce`]
    /// inherits (always empty under [`Reduction::Off`]).
    sleep: ActionSet,
    /// Enabled transitions skipped so far (persistent-set, sleep-set and
    /// chain prunes).
    pruned: usize,
}

impl<'m, M: LabeledMachine> Reducer<'m, M> {
    fn new(machine: &'m M, reduction: Reduction) -> Self {
        let (explored, chain_buf) = (Vec::new(), Vec::new());
        let (asleep, sleep) = (ActionSet::new(), ActionSet::new());
        Reducer { machine, reduction, explored, chain_buf, asleep, sleep, pruned: 0 }
    }

    /// The initial state, canonicalized when the mode canonicalizes.
    fn initial_state(&self) -> M::State {
        let mut state = self.machine.initial_state();
        if self.reduction.canonicalizes() {
            self.machine.canonicalize_in_place(&mut state);
        }
        state
    }

    /// Starts the expansion of `state`: picks its persistent set.
    fn begin(&mut self, state: &M::State, succ: &[(Action, M::State)]) -> Chosen {
        self.explored.clear();
        if self.reduction.is_reduced() {
            choose_persistent(self.machine, state, succ)
        } else {
            Chosen::All
        }
    }

    /// Processes the successor `state` reached by `action` from a state
    /// expanded with persistent set `chosen` and sleep set
    /// [`Reducer::asleep`], in place:
    /// prunes it when `action` is outside the persistent set or asleep,
    /// else canonicalizes it, derives the sleep set it inherits, and
    /// advances it through states whose persistent set is a *singleton*
    /// without interning them (chain compression).
    ///
    /// A one-action persistent set leaves exactly one outgoing transition in
    /// the reduced graph — pure bookkeeping on the way to the next genuine
    /// choice point, which interning would only add to `states_visited`.
    /// Each chained action drops the sleep entries it is dependent with,
    /// and a chained action found asleep prunes the rest of the chain (the
    /// standard sleep-set argument: that continuation is explored from a
    /// sibling subtree).
    ///
    /// Returns `None` when the successor was pruned, else the components
    /// the fired actions may have touched; the inherited sleep set is left
    /// in [`Reducer::sleep`].
    // Out of line: inlined into the sequential driver, the chain loop
    // slowed its unreduced hot loop by ~3% on big corpus explorations.
    #[inline(never)]
    fn reduce(
        &mut self,
        chosen: Chosen,
        action: Action,
        state: &mut M::State,
    ) -> Result<Option<Touched>, ExploreError> {
        let mut touched = Touched::from_action(&action);
        if !self.reduction.is_reduced() {
            return Ok(Some(touched));
        }
        if !chosen.keeps(&action) || self.asleep.contains(&action) {
            self.pruned += 1;
            return Ok(None);
        }
        let canon = self.reduction.canonicalizes();
        let Reducer { machine, explored, chain_buf, asleep, sleep, pruned, .. } = self;
        if canon {
            machine.canonicalize_in_place(state);
        }
        // The successor sleeps on every inherited or earlier-explored action
        // it is independent of: those orderings are covered by the sibling
        // subtrees.
        *sleep = ActionSet::new();
        for b in asleep.as_slice().iter().chain(explored.iter()) {
            if machine.independent(&action, b) {
                sleep.push(*b);
            }
        }
        sleep.sort_dedup();
        explored.push(action);

        for _ in 0..MAX_CHAIN {
            if machine.is_final(state) {
                break;
            }
            machine.labeled_successors_into(state, chain_buf);
            if chain_buf.is_empty() {
                return Err(ExploreError::Deadlock);
            }
            let Chosen::Single(next) = choose_persistent(*machine, state, chain_buf) else {
                break;
            };
            if sleep.contains(&next) {
                *pruned += 1;
                return Ok(None);
            }
            *pruned += chain_buf.len() - 1;
            let chosen = chain_buf
                .iter_mut()
                .find(|(candidate, _)| *candidate == next)
                .expect("the chosen singleton is enabled");
            std::mem::swap(state, &mut chosen.1);
            touched.add_action(&next);
            if canon {
                machine.canonicalize_in_place(state);
            }
            sleep.retain(|b| machine.independent(&next, b));
        }
        Ok(Some(touched))
    }
}

/// The per-slot sleep-set bookkeeping of an exploration, parallel to its
/// visited set: the smallest sleep set each slot has been reached with,
/// and the sleep set of its last expansion (`None` = never expanded).
///
/// Each stored set only shrinks, and a slot is re-queued exactly when it
/// shrinks, so every visit's obligations are met and the search
/// terminates. Under [`Reduction::Off`] the book stays empty: every claim
/// is a first expansion with an empty sleep set, and no revisit re-queues.
struct SleepBook {
    reduced: bool,
    sleep_sets: Vec<ActionSet>,
    expanded_with: Vec<Option<ActionSet>>,
}

impl SleepBook {
    fn new(reduced: bool) -> Self {
        SleepBook { reduced, sleep_sets: Vec::new(), expanded_with: Vec::new() }
    }

    /// Claims `slot` for expansion: copies its sleep set into `asleep` and
    /// returns whether this is its first expansion, or `None` when an
    /// expansion with an equal or smaller sleep set already covered it.
    #[inline]
    fn claim(&mut self, slot: u32, asleep: &mut ActionSet) -> Option<bool> {
        if !self.reduced {
            return Some(true);
        }
        let stored = &self.sleep_sets[slot as usize];
        let previous = &mut self.expanded_with[slot as usize];
        if previous.as_ref().is_some_and(|previous| previous.is_subset(stored)) {
            return None;
        }
        asleep.clone_from(stored);
        Some(previous.replace(stored.clone()).is_none())
    }

    /// Registers a freshly interned slot reached with sleep set `sleep`.
    #[inline]
    fn push(&mut self, sleep: &ActionSet) {
        if self.reduced {
            self.sleep_sets.push(sleep.clone());
            self.expanded_with.push(None);
        }
    }

    /// Records a revisit of `slot` with sleep set `sleep`; true when the
    /// stored set shrank and the slot must be expanded again.
    #[inline]
    fn revisit(&mut self, slot: u32, sleep: &ActionSet) -> bool {
        if !self.reduced {
            return false;
        }
        let stored = &mut self.sleep_sets[slot as usize];
        if stored.is_subset(sleep) {
            return false;
        }
        *stored = stored.intersect(sleep);
        true
    }

    /// The accounted footprint (inline sizes only — lengths, never
    /// capacities, so the figure survives a checkpoint resume).
    fn bytes(&self) -> usize {
        self.sleep_sets.len() * std::mem::size_of::<ActionSet>()
            + self.expanded_with.len() * std::mem::size_of::<Option<ActionSet>>()
    }

    /// Drops every heap-backed entry. Sound: an emptied sleep set or a
    /// cleared expansion cache only causes redundant re-expansion, never a
    /// missed state.
    fn flush_heap(&mut self) {
        for set in &mut self.sleep_sets {
            if set.is_heap() {
                *set = ActionSet::new();
            }
        }
        for entry in &mut self.expanded_with {
            if entry.as_ref().is_some_and(ActionSet::is_heap) {
                *entry = None;
            }
        }
    }
}

/// What the sequential driver produced: a complete answer, or the
/// accumulated search state handed over to the sharded continuation
/// because the state count passed [`ExplorerConfig::parallel_threshold`].
enum SeqOutcome<S> {
    Finished(Exploration, Option<Outcome>),
    Escalated(Seed<S>),
}

/// Periodic progress reporting for the sequential driver.
///
/// Construction samples the arming flag once; a disarmed ticker's
/// [`ProgressTicker::tick`] is a branch on a local bool, so the hot loop
/// pays nothing when `--progress` is off. Armed, a line with the state
/// count, frontier depth and states/sec rate goes to stderr every
/// [`PROGRESS_POLL_MASK`]`+1` expansions.
struct ProgressTicker {
    armed: bool,
    started: std::time::Instant,
}

/// Progress cadence: every 16384 expansions (must be `2^n - 1`).
const PROGRESS_POLL_MASK: usize = 0x3FFF;

impl ProgressTicker {
    fn new() -> ProgressTicker {
        ProgressTicker { armed: gam_obs::progress::armed(), started: std::time::Instant::now() }
    }

    fn tick(&self, expansions: usize, states: usize, frontier: usize) {
        if !self.armed || expansions & PROGRESS_POLL_MASK != 0 {
            return;
        }
        let us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX).max(1);
        let rate = (states as u64).saturating_mul(1_000_000) / us;
        gam_obs::progress!("explore", "{states} states, frontier {frontier}, {rate} states/sec");
    }
}

/// Notes a sequential-to-sharded escalation on the progress and trace
/// streams (the *escalation point* of an adaptive run).
fn note_escalation<S>(seed: &Seed<S>) {
    gam_obs::progress!(
        "explore",
        "escalating to sharded search: {} states, frontier {}",
        seed.states.len(),
        seed.pending.len()
    );
    gam_obs::trace::event(
        "explore.escalate",
        &[("states", seed.states.len().to_string()), ("frontier", seed.pending.len().to_string())],
    );
}

/// Everything the sequential driver migrates into the sharded continuation
/// on escalation: the visited set (slot order preserved) with its sleep
/// bookkeeping, the unexpanded frontier as slots into it, and the partial
/// results.
struct Seed<S> {
    states: Vec<S>,
    book: SleepBook,
    pending: Vec<u32>,
    outcomes: BTreeSet<Outcome>,
    final_states: usize,
    pruned: usize,
}

/// Soft watermark of the memory ladder: degradation starts at 80% of the
/// hard budget, leaving headroom for the work between polls.
const SOFT_WATERMARK_NUM: usize = 4;
const SOFT_WATERMARK_DEN: usize = 5;

/// Rows moved per spill segment. Large enough that segment files amortize
/// their framing and the one-segment read cache covers real locality; small
/// enough that one spill round reacts to pressure promptly.
const SPILL_CHUNK_ROWS: usize = 64 * 1024;

/// Rows always kept resident: the hot tail the DFS is actively revisiting.
const MIN_RESIDENT_ROWS: usize = 256;

/// Minimum interned-state growth between two sleep-cache flushes, so the
/// ladder's first rung does not spin when flushing frees little.
const FLUSH_SPACING_STATES: usize = 1024;

/// Snapshot driver tags ([`CheckpointPlan`] payload versioning within the
/// `gam-explore-checkpoint/v1` record that wraps these bytes): an unreduced
/// search, and a reduced one whose sleep bookkeeping follows the frontier.
const SNAP_COMPOSED: u8 = 1;
const SNAP_REDUCED: u8 = 2;

/// The memory governor of a budgeted exploration: refreshes the
/// [`MemoryAccountant`] at poll cadence and walks the degradation ladder
/// (flush sleep caches → spill cold rows → hard stop).
struct MemGovernor {
    max_bytes: usize,
    soft_bytes: usize,
    acct: MemoryAccountant,
    /// Cleared after a spill *write* failure: rows stay resident from then
    /// on (already-written segments remain readable).
    spill_enabled: bool,
    /// Arena size at which the next sleep-cache flush is allowed.
    next_flush_ok_at: usize,
}

impl MemGovernor {
    fn new(memory: &MemoryConfig) -> Option<MemGovernor> {
        let max_bytes = memory.max_bytes?;
        Some(MemGovernor {
            max_bytes,
            soft_bytes: max_bytes / SOFT_WATERMARK_DEN * SOFT_WATERMARK_NUM,
            acct: MemoryAccountant::new(),
            spill_enabled: true,
            next_flush_ok_at: 0,
        })
    }

    /// Refreshes every category from the live structures and returns the
    /// accounted total. All inputs are length-based (never capacity-based),
    /// so the figures are identical across a checkpoint resume.
    fn refresh<S: ComposedState>(
        &mut self,
        arena: &ComponentArena<S>,
        frontier_len: usize,
        sleep_bytes: usize,
    ) -> usize {
        let (component, id_table, index) = arena.account();
        self.acct.component_bytes = component;
        self.acct.id_table_bytes = id_table;
        self.acct.index_bytes = index;
        self.acct.frontier_bytes = frontier_len * std::mem::size_of::<u32>();
        self.acct.sleep_bytes = sleep_bytes;
        // Spill figures come from the arena, not a running tally, so a
        // resumed exploration reports the segments it inherited.
        let (spilled_bytes, spill_segments) = arena.spill_stats();
        self.acct.spilled_bytes = spilled_bytes;
        self.acct.spill_segments = spill_segments;
        self.acct.note_peak()
    }

    fn stats(&self) -> MemoryStats {
        MemoryStats {
            peak_bytes: self.acct.peak_bytes,
            spilled_bytes: self.acct.spilled_bytes,
            spill_segments: self.acct.spill_segments,
            sleep_flushes: self.acct.sleep_flushes,
        }
    }

    /// One governance round at poll cadence: refresh the accounts, degrade
    /// while over the soft watermark, stop the run at the hard limit.
    fn govern<S: ComposedState>(
        &mut self,
        arena: &mut ComponentArena<S>,
        frontier_len: usize,
        book: &mut SleepBook,
    ) -> Result<(), StopReason> {
        let sleep_bytes = book.bytes();
        let mut total = self.refresh(arena, frontier_len, sleep_bytes);
        if total < self.soft_bytes {
            return Ok(());
        }
        // Rung 1 (reduced runs): drop the heap-backed sleep bookkeeping. The
        // accounted total only tracks the inline footprint, so this rung
        // relieves real RSS without moving the deterministic figure — the
        // ladder does not wait on it.
        if book.reduced && arena.len() >= self.next_flush_ok_at {
            book.flush_heap();
            self.acct.sleep_flushes += 1;
            self.next_flush_ok_at = arena.len() + FLUSH_SPACING_STATES;
            gam_obs::trace::event("explore.sleep_flush", &[("states", arena.len().to_string())]);
        }
        // Rung 2: spill the oldest resident rows until back under the soft
        // watermark (or out of spillable rows). A write failure stops
        // spilling for good but never the exploration.
        while total >= self.soft_bytes
            && self.spill_enabled
            && arena.spill_armed()
            && arena.resident_rows() > MIN_RESIDENT_ROWS
        {
            let rows = (arena.resident_rows() - MIN_RESIDENT_ROWS).min(SPILL_CHUNK_ROWS);
            match arena.spill_oldest(rows) {
                Ok(0) => break,
                Ok(bytes) => {
                    total = self.refresh(arena, frontier_len, sleep_bytes);
                    gam_obs::trace::event(
                        "explore.spill",
                        &[
                            ("bytes", bytes.to_string()),
                            ("spilled_total", self.acct.spilled_bytes.to_string()),
                        ],
                    );
                }
                Err(err) => {
                    gam_obs::trace::event("explore.spill_write_failed", &[("error", err.message)]);
                    self.spill_enabled = false;
                    arena.disarm_spill();
                    break;
                }
            }
        }
        // Rung 3: every degradation step taken (or unavailable) and still
        // over the hard limit — stop with sound partial outcomes.
        if total >= self.max_bytes {
            return Err(StopReason::MemoryBudget { budget: self.max_bytes });
        }
        Ok(())
    }
}

/// Maps a cold-row read failure (lost/corrupt/fault-injected segment) to the
/// memory-budget stop: the visited set is no longer fully consultable, so
/// continuing could mis-deduplicate — the sound move is to surface the
/// partial outcomes as an inconclusive.
fn spill_read_interrupt(
    budget: usize,
    states_visited: usize,
    outcomes: &BTreeSet<Outcome>,
    err: &SpillError,
) -> ExploreError {
    gam_obs::trace::event("explore.spill_read_failed", &[("error", err.message.clone())]);
    ExploreError::Interrupted {
        reason: StopReason::MemoryBudget { budget },
        states_visited,
        partial_outcomes: outcomes.clone(),
    }
}

fn encode_action(action: &Action, out: &mut Vec<u8>) {
    codec::put_u32(out, action.thread);
    codec::put_u32(out, action.id);
    codec::put_u8(
        out,
        match action.kind {
            ActionKind::Local => 0,
            ActionKind::Fence => 1,
            ActionKind::MemoryRead => 2,
            ActionKind::MemoryCommit => 3,
            ActionKind::BufferDrain => 4,
        },
    );
    codec::put_u64(out, action.addr);
}

fn decode_action(input: &mut &[u8]) -> Option<Action> {
    let thread = codec::take_u32(input)?;
    let id = codec::take_u32(input)?;
    let kind = match codec::take_u8(input)? {
        0 => ActionKind::Local,
        1 => ActionKind::Fence,
        2 => ActionKind::MemoryRead,
        3 => ActionKind::MemoryCommit,
        4 => ActionKind::BufferDrain,
        _ => return None,
    };
    let addr = codec::take_u64(input)?;
    Some(Action { thread, id, kind, addr })
}

fn encode_action_set(set: &ActionSet, out: &mut Vec<u8>) {
    let actions = set.as_slice();
    codec::put_u32(out, u32::try_from(actions.len()).expect("set fits u32"));
    for action in actions {
        encode_action(action, out);
    }
}

fn decode_action_set(input: &mut &[u8]) -> Option<ActionSet> {
    let len = codec::take_u32(input)? as usize;
    let mut set = ActionSet::new();
    for _ in 0..len {
        set.push(decode_action(input)?);
    }
    // Encoded from a valid set, so already sorted — but cheap to re-assert
    // the invariant against hand-edited payloads.
    set.sort_dedup();
    Some(set)
}

fn encode_outcome(outcome: &Outcome, out: &mut Vec<u8>) {
    codec::put_u32(out, u32::try_from(outcome.len()).expect("outcome fits u32"));
    for (observation, value) in outcome.iter() {
        match observation {
            Observation::Register(proc, reg) => {
                codec::put_u8(out, 0);
                codec::put_u64(out, proc.index() as u64);
                codec::put_u32(out, reg.index());
            }
            Observation::Memory(loc) => {
                codec::put_u8(out, 1);
                codec::put_u64(out, loc.address());
            }
        }
        codec::put_u64(out, value.raw());
    }
}

fn decode_outcome(input: &mut &[u8]) -> Option<Outcome> {
    let len = codec::take_u32(input)? as usize;
    let mut pairs = Vec::with_capacity(len);
    for _ in 0..len {
        let observation = match codec::take_u8(input)? {
            0 => {
                let proc = ProcId::new(usize::try_from(codec::take_u64(input)?).ok()?);
                let reg = Reg::new(codec::take_u32(input)?);
                Observation::Register(proc, reg)
            }
            1 => Observation::Memory(Loc::from_address(codec::take_u64(input)?)),
            _ => return None,
        };
        let value = Value::new(codec::take_u64(input)?);
        pairs.push((observation, value));
    }
    Some(pairs.into_iter().collect())
}

/// The decoded search state of the sequential driver, mid-run.
struct SeqSnapshot<S: ComposedState> {
    expansions: usize,
    final_states: usize,
    pruned: usize,
    outcomes: BTreeSet<Outcome>,
    arena: ComponentArena<S>,
    stack: Vec<u32>,
    book: SleepBook,
}

/// Encodes the complete search state of the sequential driver, tagged
/// [`SNAP_REDUCED`] (with the sleep bookkeeping) or [`SNAP_COMPOSED`]
/// (without). Everything a resumed run needs to continue with identical
/// counters is here; accounted-memory peaks are deliberately *not* (they
/// restart from the resumed footprint).
fn encode_snapshot<S: ComposedState>(
    expansions: usize,
    final_states: usize,
    pruned: usize,
    outcomes: &BTreeSet<Outcome>,
    arena: &ComponentArena<S>,
    stack: &[u32],
    book: &SleepBook,
) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u8(&mut out, if book.reduced { SNAP_REDUCED } else { SNAP_COMPOSED });
    codec::put_usize(&mut out, expansions);
    codec::put_usize(&mut out, final_states);
    codec::put_usize(&mut out, pruned);
    codec::put_u32(&mut out, u32::try_from(outcomes.len()).expect("outcomes fit u32"));
    for outcome in outcomes {
        encode_outcome(outcome, &mut out);
    }
    arena.encode(&mut out);
    codec::put_usize(&mut out, stack.len());
    for &slot in stack {
        codec::put_u32(&mut out, slot);
    }
    if book.reduced {
        codec::put_usize(&mut out, book.sleep_sets.len());
        for set in &book.sleep_sets {
            encode_action_set(set, &mut out);
        }
        codec::put_usize(&mut out, book.expanded_with.len());
        for entry in &book.expanded_with {
            match entry {
                Some(set) => {
                    codec::put_u8(&mut out, 1);
                    encode_action_set(set, &mut out);
                }
                None => codec::put_u8(&mut out, 0),
            }
        }
    }
    out
}

/// Decodes an [`encode_snapshot`] payload of a run with the given
/// reduction, re-reading spilled segments from `spill_dir` to rebuild the
/// dedup index.
fn decode_snapshot<S: ComposedState>(
    bytes: &[u8],
    reduced: bool,
    num_procs: usize,
    spill_dir: Option<&std::path::Path>,
) -> Result<SeqSnapshot<S>, String> {
    let truncated = || "truncated exploration snapshot".to_string();
    let input = &mut &bytes[..];
    let tag = codec::take_u8(input).ok_or_else(truncated)?;
    if tag != if reduced { SNAP_REDUCED } else { SNAP_COMPOSED } {
        return Err(format!("snapshot driver tag {tag} does not match this run"));
    }
    let expansions = codec::take_usize(input).ok_or_else(truncated)?;
    let final_states = codec::take_usize(input).ok_or_else(truncated)?;
    let pruned = codec::take_usize(input).ok_or_else(truncated)?;
    let outcome_count = codec::take_u32(input).ok_or_else(truncated)? as usize;
    let mut outcomes = BTreeSet::new();
    for _ in 0..outcome_count {
        outcomes.insert(decode_outcome(input).ok_or_else(truncated)?);
    }
    let arena = ComponentArena::decode(input, num_procs, spill_dir)?;
    let stack_len = codec::take_usize(input).ok_or_else(truncated)?;
    let mut stack = Vec::with_capacity(stack_len);
    for _ in 0..stack_len {
        let slot = codec::take_u32(input).ok_or_else(truncated)?;
        if (slot as usize) >= arena.len() {
            return Err(format!("snapshot frontier references unknown slot {slot}"));
        }
        stack.push(slot);
    }
    let mut book = SleepBook::new(reduced);
    if reduced {
        let sets_len = codec::take_usize(input).ok_or_else(truncated)?;
        for _ in 0..sets_len {
            book.sleep_sets.push(decode_action_set(input).ok_or_else(truncated)?);
        }
        let expanded_len = codec::take_usize(input).ok_or_else(truncated)?;
        for _ in 0..expanded_len {
            let entry = match codec::take_u8(input).ok_or_else(truncated)? {
                0 => None,
                1 => Some(decode_action_set(input).ok_or_else(truncated)?),
                _ => return Err("bad expansion-cache flag in snapshot".to_string()),
            };
            book.expanded_with.push(entry);
        }
        if book.sleep_sets.len() != arena.len() || book.expanded_with.len() != arena.len() {
            return Err("snapshot sleep bookkeeping does not cover the arena".to_string());
        }
    }
    if !input.is_empty() {
        return Err("trailing bytes after exploration snapshot".to_string());
    }
    Ok(SeqSnapshot { expansions, final_states, pruned, outcomes, arena, stack, book })
}

impl Explorer {
    /// Creates an explorer with the given limits.
    #[must_use]
    pub fn new(config: ExplorerConfig) -> Self {
        Explorer { config, interrupt: Interrupt::none(), memory: MemoryConfig::default() }
    }

    /// Attaches a cooperative [`Interrupt`] (cancel token and/or wall-clock
    /// deadline). Both the driver and the sharded continuation poll it and
    /// stop with [`ExploreError::Interrupted`], carrying the partial
    /// outcomes collected so far.
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = interrupt;
        self
    }

    /// Attaches a [`MemoryConfig`]: a hard accounted-byte budget with a
    /// spill-to-disk degradation ladder, and/or intra-exploration
    /// checkpointing. Arming a budget or a checkpoint plan disables the
    /// escalation to the sharded continuation (the run stays sequential
    /// and deterministic).
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// The explorer's configuration.
    #[must_use]
    pub fn config(&self) -> ExplorerConfig {
        self.config
    }

    /// The explorer's memory-pressure configuration.
    #[must_use]
    pub fn memory(&self) -> &MemoryConfig {
        &self.memory
    }

    /// The escalation budget of the sequential driver: `None` runs it to
    /// completion, `Some(n)` hands over to the sharded continuation once
    /// more than `n` states are interned with frontier work remaining.
    /// Memory budgets and checkpoint plans pin the run to the driver.
    fn escalation(&self) -> Option<usize> {
        (self.config.parallelism > 1 && !self.memory.armed())
            .then_some(self.config.parallel_threshold)
    }

    /// Exhaustively explores the machine and collects every reachable final
    /// outcome, with the configured [`Reduction`].
    ///
    /// Visited states are stored as rows of hash-consed component ids
    /// ([`crate::arena::ComponentArena`]), so unchanged per-proc states and
    /// memory maps are shared across the whole visited set and successor
    /// deduplication hashes only the components an expansion actually
    /// changed. With [`ExplorerConfig::parallelism`] above 1 the
    /// exploration is *adaptive*: it starts sequentially and escalates to
    /// the sharded continuation only once the state count passes
    /// [`ExplorerConfig::parallel_threshold`] — small state spaces never
    /// pay thread overhead.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimitExceeded`] if the state space is
    /// larger than the configured limit, [`ExploreError::Deadlock`] if a
    /// non-final state has no successor, and [`ExploreError::Interrupted`]
    /// when the interrupt or the memory budget stops the search.
    pub fn explore<M>(&self, machine: &M) -> Result<Exploration, ExploreError>
    where
        M: LabeledMachine + Sync,
        M::State: ComposedState + Send,
    {
        self.run(machine, None).map(|(exploration, _)| exploration)
    }

    /// Searches for a final state whose outcome satisfies `matches` and
    /// returns that outcome, or `None` after exhausting the (possibly
    /// reduced) state space without a match.
    ///
    /// This is the early-exit entry point behind `check`/`find_witness`: the
    /// search stops at the *first* matching final state instead of
    /// enumerating the complete outcome set, and honours the configured
    /// [`Reduction`] and the adaptive parallelism — a forbidden verdict
    /// still has to exhaust the state space, so the sharded workers matter
    /// exactly there.
    ///
    /// # Errors
    ///
    /// See [`Explorer::explore`]. A state-limit abort without a witness is
    /// reported as an error (the absence of a witness was not proven).
    pub fn find_outcome<M, F>(
        &self,
        machine: &M,
        matches: F,
    ) -> Result<Option<Outcome>, ExploreError>
    where
        M: LabeledMachine + Sync,
        M::State: ComposedState + Send,
        F: Fn(&Outcome) -> bool + Sync,
    {
        let stop: StopFn = &matches;
        self.run(machine, Some(stop)).map(|(_, witness)| witness)
    }

    /// The reference oracle: the same search as [`Explorer::explore`] with
    /// the configured [`Reduction`], but over plain full-state interning,
    /// sequential, without memory governance, interrupts or an early exit.
    /// The differential test-suites compare the arena driver against it.
    ///
    /// # Errors
    ///
    /// See [`Explorer::explore`].
    #[doc(hidden)]
    pub fn explore_reference<M: LabeledMachine>(
        &self,
        machine: &M,
    ) -> Result<Exploration, ExploreError> {
        let mut reducer = Reducer::new(machine, self.config.reduction);
        let mut book = SleepBook::new(self.config.reduction.is_reduced());
        let mut visited: InternedStates<M::State> = InternedStates::default();
        let (root, _) = visited.intern(reducer.initial_state());
        book.push(&ActionSet::new());
        let mut stack = vec![root];
        let mut succ: Vec<(Action, M::State)> = Vec::new();
        let mut outcomes = BTreeSet::new();
        let mut final_states = 0usize;
        while let Some(slot) = stack.pop() {
            let Some(first_expansion) = book.claim(slot, &mut reducer.asleep) else { continue };
            let state = visited.get(slot);
            machine.labeled_successors_into(state, &mut succ);
            if machine.is_final(state) {
                final_states += usize::from(first_expansion);
                outcomes.insert(machine.outcome(state));
            } else if succ.is_empty() {
                return Err(ExploreError::Deadlock);
            }
            let chosen = reducer.begin(state, &succ);
            for (action, next) in &mut succ {
                if reducer.reduce(chosen, *action, next)?.is_none() {
                    continue;
                }
                let (next_slot, is_new) = visited.intern_ref(next);
                if is_new {
                    if visited.len() > self.config.max_states {
                        return Err(ExploreError::StateLimitExceeded {
                            limit: self.config.max_states,
                            states_visited: visited.len(),
                            partial_outcomes: outcomes,
                        });
                    }
                    book.push(&reducer.sleep);
                    stack.push(next_slot);
                } else if book.revisit(next_slot, &reducer.sleep) {
                    stack.push(next_slot);
                }
            }
        }
        Ok(Exploration {
            outcomes,
            states_visited: visited.len(),
            final_states,
            transitions_pruned: reducer.pruned,
            arena: None,
            memory: None,
        })
    }

    /// The one dispatcher: the sequential driver, then — if it escalated —
    /// the sharded continuation.
    fn run<M>(
        &self,
        machine: &M,
        stop: Option<StopFn>,
    ) -> Result<(Exploration, Option<Outcome>), ExploreError>
    where
        M: LabeledMachine + Sync,
        M::State: ComposedState + Send,
    {
        fault::hit("explore");
        let outcome = {
            let _phase = gam_obs::phase("explore_seq");
            self.sequential(machine, stop, self.escalation())?
        };
        match outcome {
            SeqOutcome::Finished(exploration, witness) => Ok((exploration, witness)),
            SeqOutcome::Escalated(seed) => {
                note_escalation(&seed);
                let _phase = gam_obs::phase("explore_sharded");
                self.sharded(machine, stop, seed)
            }
        }
    }

    /// The sequential driver over the component arena.
    ///
    /// The expansion state is reassembled into one scratch buffer,
    /// successors are produced through the pooled
    /// [`LabeledMachine::labeled_successors_into`] buffer (the sparse form
    /// under [`Reduction::Off`], whose successors are valid only in the
    /// components their label touches), and every successor is
    /// deduplicated against its parent's component row through that same
    /// label-derived mask.
    fn sequential<M>(
        &self,
        machine: &M,
        stop: Option<StopFn>,
        escalate: Option<usize>,
    ) -> Result<SeqOutcome<M::State>, ExploreError>
    where
        M: LabeledMachine,
        M::State: ComposedState,
    {
        let reduced = self.config.reduction.is_reduced();
        let mut reducer = Reducer::new(machine, self.config.reduction);
        let mut current = reducer.initial_state();
        let num_procs = current.procs().len();
        // A fresh run starts from the snapshot of expansion zero.
        let snap = self.try_resume(reduced, num_procs).unwrap_or_else(|| {
            let mut arena = ComponentArena::new(num_procs);
            let root = arena.intern_root(&current);
            let mut book = SleepBook::new(reduced);
            book.push(&ActionSet::new());
            SeqSnapshot {
                expansions: 0,
                final_states: 0,
                pruned: 0,
                outcomes: BTreeSet::new(),
                arena,
                stack: vec![root],
                book,
            }
        });
        let SeqSnapshot {
            mut expansions,
            mut final_states,
            pruned,
            mut outcomes,
            mut arena,
            mut stack,
            mut book,
        } = snap;
        reducer.pruned = pruned;
        self.arm_spill(&mut arena, num_procs);
        let mut governor = MemGovernor::new(&self.memory);
        let plan = self.memory.checkpoint.clone();
        let hard_budget = self.memory.max_bytes.unwrap_or(0);
        let mut succ: Vec<(Action, M::State)> = Vec::new();
        let mut witness = None;

        let progress = ProgressTicker::new();
        loop {
            if expansions & INTERRUPT_POLL_MASK == 0 {
                let reason = self.interrupt.triggered().or_else(|| {
                    governor.as_mut()?.govern(&mut arena, stack.len(), &mut book).err()
                });
                if let Some(reason) = reason {
                    return Err(ExploreError::Interrupted {
                        reason,
                        states_visited: arena.len(),
                        partial_outcomes: outcomes,
                    });
                }
            }
            if let Some(plan) = &plan {
                if plan.every_expansions != 0
                    && expansions != 0
                    && expansions % plan.every_expansions == 0
                {
                    (plan.sink)(&encode_snapshot(
                        expansions,
                        final_states,
                        reducer.pruned,
                        &outcomes,
                        &arena,
                        &stack,
                        &book,
                    ));
                }
            }
            let Some(slot) = stack.pop() else { break };
            progress.tick(expansions, arena.len(), stack.len());
            expansions += 1;
            let Some(first_expansion) = book.claim(slot, &mut reducer.asleep) else { continue };

            arena
                .load(slot, &mut current)
                .map_err(|err| spill_read_interrupt(hard_budget, arena.len(), &outcomes, &err))?;
            if reduced {
                machine.labeled_successors_into(&current, &mut succ);
            } else {
                machine.labeled_successors_sparse_into(&current, &mut succ);
            }
            if machine.is_final(&current) {
                final_states += usize::from(first_expansion);
                let outcome = machine.outcome(&current);
                if stop.is_some_and(|matches| matches(&outcome)) {
                    witness = Some(outcome.clone());
                    outcomes.insert(outcome);
                    break;
                }
                outcomes.insert(outcome);
            } else if succ.is_empty() {
                return Err(ExploreError::Deadlock);
            }

            let chosen = reducer.begin(&current, &succ);
            for (action, next) in &mut succ {
                // The unreduced search bypasses the reducer: this is the hot
                // loop of every production exploration, and the reducer's
                // answer under `Off` is exactly the action's own mask.
                let touched = if reduced {
                    let Some(touched) = reducer.reduce(chosen, *action, next)? else {
                        continue;
                    };
                    touched
                } else {
                    Touched::from_action(action)
                };
                let (next_slot, is_new) =
                    arena.intern_touched(next, slot, touched, !reduced).map_err(|err| {
                        spill_read_interrupt(hard_budget, arena.len(), &outcomes, &err)
                    })?;
                if is_new {
                    if arena.len() > self.config.max_states {
                        return Err(ExploreError::StateLimitExceeded {
                            limit: self.config.max_states,
                            states_visited: arena.len(),
                            partial_outcomes: outcomes,
                        });
                    }
                    book.push(&reducer.sleep);
                    stack.push(next_slot);
                } else if book.revisit(next_slot, &reducer.sleep) {
                    stack.push(next_slot);
                }
            }
            if escalate.is_some_and(|threshold| arena.len() > threshold) && !stack.is_empty() {
                return Ok(SeqOutcome::Escalated(Seed {
                    states: arena.export_states(&current),
                    book,
                    pending: stack,
                    outcomes,
                    final_states,
                    pruned: reducer.pruned,
                }));
            }
        }

        let exploration = Exploration {
            outcomes,
            states_visited: arena.len(),
            final_states,
            transitions_pruned: reducer.pruned,
            arena: Some(arena.occupancy()),
            memory: governor.as_ref().map(MemGovernor::stats),
        };
        Ok(SeqOutcome::Finished(exploration, witness))
    }

    /// Decodes the configured resume snapshot, if any. An undecodable or
    /// mismatched snapshot is reported on the trace stream and ignored — the
    /// exploration restarts from scratch, which is sound (just slower).
    fn try_resume<S: ComposedState>(
        &self,
        reduced: bool,
        num_procs: usize,
    ) -> Option<SeqSnapshot<S>> {
        let plan = self.memory.checkpoint.as_ref()?;
        let bytes = plan.resume.as_ref()?;
        match decode_snapshot(bytes, reduced, num_procs, self.memory.spill_dir.as_deref()) {
            Ok(snap) => {
                gam_obs::trace::event(
                    "explore.resume",
                    &[
                        ("expansions", snap.expansions.to_string()),
                        ("states", snap.arena.len().to_string()),
                    ],
                );
                Some(snap)
            }
            Err(message) => {
                gam_obs::trace::event("explore.resume_failed", &[("error", message)]);
                None
            }
        }
    }

    /// Arms the spill store on a fresh or resumed arena when a budget and a
    /// spill directory are both configured. An unusable directory is
    /// reported and spilling stays off (the ladder degrades straight to the
    /// hard stop).
    fn arm_spill<S: ComposedState>(&self, arena: &mut ComponentArena<S>, num_procs: usize) {
        if self.memory.max_bytes.is_none() || arena.spill_armed() {
            return;
        }
        let Some(dir) = &self.memory.spill_dir else { return };
        match SpillStore::new(dir, 1 + num_procs) {
            Ok(store) => arena.arm_spill(store),
            Err(err) => {
                gam_obs::trace::event("explore.spill_dir_failed", &[("error", err.message)]);
            }
        }
    }

    /// The sharded continuation: continues the search from `seed` with
    /// [`ExplorerConfig::parallelism`] workers over a hash-sharded visited
    /// set carrying each shard's slice of the sleep bookkeeping.
    ///
    /// Dedup stays lock-local (each shard owns the states whose hash lands
    /// in it); cross-shard successor handoffs are *batched*: a worker
    /// expands up to [`HANDOFF_BATCH`] frontier items, collects every
    /// successor into per-destination outboxes, and flushes each outbox
    /// with a single lock acquisition — one lock per destination shard per
    /// round instead of one per successor. Idle workers spin-yield rather
    /// than parking: explorations that reach the continuation at all are
    /// past the adaptive threshold, and a condvar handshake per frontier
    /// item would cost more than the spin.
    ///
    /// Under [`Reduction::Off`] the counters equal the sequential driver's.
    /// Under reduction the persistent-set choice is a pure function of the
    /// state, but sleep sets are not (a state reached first by a different
    /// worker can sleep on a different action set), which makes
    /// `states_visited`/`transitions_pruned` run-dependent. The *outcome
    /// set* stays exact either way — the re-expansion-on-smaller-sleep-set
    /// discipline guarantees every obligation is eventually explored.
    fn sharded<M: LabeledMachine + Sync>(
        &self,
        machine: &M,
        stop: Option<StopFn>,
        seed: Seed<M::State>,
    ) -> Result<(Exploration, Option<Outcome>), ExploreError>
    where
        M::State: Send,
    {
        struct Shard<S> {
            states: InternedStates<S>,
            book: SleepBook,
        }

        let workers = self.config.parallelism;
        let reduced = seed.book.reduced;
        let shards: Vec<Mutex<Shard<M::State>>> = (0..workers)
            .map(|_| {
                Mutex::new(Shard {
                    states: InternedStates::default(),
                    book: SleepBook::new(reduced),
                })
            })
            .collect();
        let shard_of = |hash: u64| (hash % workers as u64) as usize;
        let seeding_hasher = FxBuildHasher::default();

        // Migrate the sequential phase's visited set (and, when reduced, its
        // sleep bookkeeping) into the shards, remembering each slot's new
        // (shard, index) address so the pending frontier can be requeued.
        let mut address: Vec<(u32, u32)> = Vec::with_capacity(seed.states.len());
        {
            let mut locked: Vec<_> =
                shards.iter().map(|shard| shard.lock().expect("shard lock")).collect();
            let mut entries = seed.book.sleep_sets.into_iter().zip(seed.book.expanded_with);
            for state in seed.states {
                let hash = seeding_hasher.hash_one(&state);
                let target = shard_of(hash);
                let shard = &mut locked[target];
                let (index, _) = shard.states.intern_hashed(hash, state);
                if let Some((sleep, expanded)) = entries.next() {
                    shard.book.sleep_sets.push(sleep);
                    shard.book.expanded_with.push(expanded);
                }
                address.push((target as u32, index));
            }
        }

        let visited_count = AtomicUsize::new(address.len());
        let final_count = AtomicUsize::new(seed.final_states);
        let pruned_count = AtomicUsize::new(seed.pruned);
        let witness: Mutex<Option<Outcome>> = Mutex::new(None);
        // Frontier items not yet fully expanded; exploration is complete when
        // this drains to zero (a worker only decrements *after* registering
        // every successor, so the count can never transiently hit zero while
        // work remains).
        let in_flight = AtomicUsize::new(seed.pending.len());
        let abort = AtomicBool::new(false);
        let injector: Mutex<Vec<(u32, u32)>> =
            Mutex::new(seed.pending.iter().map(|&slot| address[slot as usize]).collect());
        let deadlocked = AtomicBool::new(false);
        let interrupted: Mutex<Option<StopReason>> = Mutex::new(None);
        let merged: Mutex<BTreeSet<Outcome>> = Mutex::new(seed.outcomes);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let hasher = FxBuildHasher::default();
                    let mut reducer = Reducer::new(machine, self.config.reduction);
                    let mut local: Vec<(u32, u32)> = Vec::new();
                    let mut outcomes = BTreeSet::new();
                    let mut batch: Vec<(u32, u32)> = Vec::new();
                    let mut outbox: Vec<Vec<(u64, M::State, ActionSet)>> =
                        (0..workers).map(|_| Vec::new()).collect();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(reason) = self.interrupt.triggered() {
                            *interrupted.lock().expect("interrupt lock") = Some(reason);
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                        while batch.len() < HANDOFF_BATCH {
                            match local.pop() {
                                Some(item) => batch.push(item),
                                None => break,
                            }
                        }
                        if batch.is_empty() {
                            let mut queue = injector.lock().expect("injector lock");
                            if queue.is_empty() {
                                drop(queue);
                                if in_flight.load(Ordering::SeqCst) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                                continue;
                            }
                            let take = (queue.len() / 2).clamp(1, HANDOFF_BATCH);
                            let from = queue.len().saturating_sub(take);
                            batch.extend(queue.drain(from..));
                        }

                        let expanded = batch.len();
                        'items: for (shard_index, slot) in batch.drain(..) {
                            // Claim the expansion under the shard lock: read
                            // the current (smallest) sleep set and skip if an
                            // equal or smaller expansion already happened.
                            let claimed = {
                                let mut shard = shards[shard_index as usize].lock().expect("shard");
                                let claim = shard.book.claim(slot, &mut reducer.asleep);
                                claim.map(|first| (shard.states.get(slot).clone(), first))
                            };
                            let Some((state, first_expansion)) = claimed else {
                                continue;
                            };

                            let labeled = machine.labeled_successors(&state);
                            if machine.is_final(&state) {
                                final_count
                                    .fetch_add(usize::from(first_expansion), Ordering::Relaxed);
                                let outcome = machine.outcome(&state);
                                if stop.is_some_and(|matches| matches(&outcome)) {
                                    *witness.lock().expect("witness lock") = Some(outcome.clone());
                                    abort.store(true, Ordering::Relaxed);
                                }
                                outcomes.insert(outcome);
                            } else if labeled.is_empty() {
                                deadlocked.store(true, Ordering::Relaxed);
                                abort.store(true, Ordering::Relaxed);
                            }

                            let chosen = reducer.begin(&state, &labeled);
                            for (action, mut successor) in labeled {
                                match reducer.reduce(chosen, action, &mut successor) {
                                    Ok(Some(_)) => {}
                                    Ok(None) => continue,
                                    Err(_) => {
                                        // Chains only fail by deadlock.
                                        deadlocked.store(true, Ordering::Relaxed);
                                        abort.store(true, Ordering::Relaxed);
                                        break 'items;
                                    }
                                }
                                let hash = hasher.hash_one(&successor);
                                let sleep = reducer.sleep.clone();
                                outbox[shard_of(hash)].push((hash, successor, sleep));
                            }
                        }
                        // Batched handoff: one lock per destination shard.
                        let mut new_work = 0usize;
                        for (target, pending) in outbox.iter_mut().enumerate() {
                            if pending.is_empty() {
                                continue;
                            }
                            let mut shard = shards[target].lock().expect("shard lock");
                            for (hash, state, sleep) in pending.drain(..) {
                                let (next_slot, is_new) = shard.states.intern_hashed(hash, state);
                                if is_new {
                                    shard.book.push(&sleep);
                                    if visited_count.fetch_add(1, Ordering::Relaxed) + 1
                                        > self.config.max_states
                                    {
                                        abort.store(true, Ordering::Relaxed);
                                    }
                                } else if !shard.book.revisit(next_slot, &sleep) {
                                    continue;
                                }
                                local.push((target as u32, next_slot));
                                new_work += 1;
                            }
                        }
                        in_flight.fetch_add(new_work, Ordering::SeqCst);
                        in_flight.fetch_sub(expanded, Ordering::SeqCst);
                        // Keep other workers fed: spill half of a large local
                        // stack into the shared injector.
                        if local.len() > 64 {
                            let spill: Vec<_> = local.drain(..local.len() / 2).collect();
                            injector.lock().expect("injector lock").extend(spill);
                        }
                    }
                    pruned_count.fetch_add(reducer.pruned, Ordering::Relaxed);
                    merged.lock().expect("outcome lock").append(&mut outcomes);
                });
            }
        });

        let outcomes = merged.into_inner().expect("outcome lock");
        let states_visited = visited_count.load(Ordering::Relaxed);
        let witness = witness.into_inner().expect("witness lock");
        let exploration = Exploration {
            outcomes,
            states_visited,
            final_states: final_count.load(Ordering::Relaxed),
            transitions_pruned: pruned_count.load(Ordering::Relaxed),
            arena: None,
            memory: None,
        };
        if let Some(witness) = witness {
            // The early exit aborted the workers on purpose; the partial
            // exploration plus the witness is the answer.
            return Ok((exploration, Some(witness)));
        }
        if deadlocked.load(Ordering::Relaxed) {
            return Err(ExploreError::Deadlock);
        }
        if let Some(reason) = interrupted.into_inner().expect("interrupt lock") {
            return Err(ExploreError::Interrupted {
                reason,
                states_visited,
                partial_outcomes: exploration.outcomes,
            });
        }
        if abort.load(Ordering::Relaxed) {
            return Err(ExploreError::StateLimitExceeded {
                limit: self.config.max_states,
                states_visited,
                partial_outcomes: exploration.outcomes,
            });
        }
        Ok((exploration, None))
    }
}

/// A hash bucket of arena slots. Almost every hash maps to exactly one
/// slot; keeping that case inline avoids a heap allocation per distinct
/// state (or, in the component arenas, per distinct component).
#[derive(Debug)]
pub(crate) enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    /// The slots in insertion order.
    pub(crate) fn slots(&self) -> &[u32] {
        match self {
            Bucket::One(slot) => std::slice::from_ref(slot),
            Bucket::Many(slots) => slots,
        }
    }

    /// Appends a slot, spilling to the heap on the first collision.
    pub(crate) fn push(&mut self, slot: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, slot]),
            Bucket::Many(slots) => slots.push(slot),
        }
    }
}

/// An interning state set: an arena holding each distinct state once, indexed
/// by a hash → arena-slot map, so frontiers can carry `u32` slots instead of
/// cloned states and membership tests hash each candidate exactly once.
#[derive(Debug)]
pub(crate) struct InternedStates<S> {
    arena: Vec<S>,
    by_hash: FxHashMap<u64, Bucket>,
    hasher: FxBuildHasher,
}

impl<S> Default for InternedStates<S> {
    fn default() -> Self {
        InternedStates {
            arena: Vec::new(),
            by_hash: FxHashMap::default(),
            hasher: FxBuildHasher::default(),
        }
    }
}

impl<S: std::hash::Hash + Eq> InternedStates<S> {
    /// Interns a state, returning its arena slot and whether it was new.
    pub(crate) fn intern(&mut self, state: S) -> (u32, bool) {
        let hash = self.hasher.hash_one(&state);
        self.intern_hashed(hash, state)
    }

    /// Like `intern`, but clones the state into the arena only when it is
    /// new (the component arenas intern by reference, so an already-known
    /// component costs a hash and an equality check, never an allocation).
    pub(crate) fn intern_ref(&mut self, state: &S) -> (u32, bool)
    where
        S: Clone,
    {
        let hash = self.hasher.hash_one(state);
        let slot = u32::try_from(self.arena.len()).expect("state count fits u32");
        match self.by_hash.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let bucket = entry.get_mut();
                if let Some(&found) =
                    bucket.slots().iter().find(|&&slot| self.arena[slot as usize] == *state)
                {
                    return (found, false);
                }
                bucket.push(slot);
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Bucket::One(slot));
            }
        }
        self.arena.push(state.clone());
        (slot, true)
    }

    /// Like `intern` with the hash precomputed (parallel shards hash before
    /// picking a shard).
    pub(crate) fn intern_hashed(&mut self, hash: u64, state: S) -> (u32, bool) {
        let slot = u32::try_from(self.arena.len()).expect("state count fits u32");
        match self.by_hash.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let bucket = entry.get_mut();
                if let Some(&found) =
                    bucket.slots().iter().find(|&&slot| self.arena[slot as usize] == state)
                {
                    return (found, false);
                }
                bucket.push(slot);
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Bucket::One(slot));
            }
        }
        self.arena.push(state);
        (slot, true)
    }

    pub(crate) fn get(&self, slot: u32) -> &S {
        &self.arena[slot as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::AbstractMachine;
    use gam_isa::litmus::Outcome;

    /// Test-only [`ComposedState`] for the toy machines' states: no shared
    /// memory, and either the whole state as the one proc component or one
    /// proc component per array element (thread `t` owns element `t`).
    macro_rules! toy_components {
        ($state:ty, $proc:ty, $procs:expr, $procs_mut:expr) => {
            impl ComposedState for $state {
                type Mem = [u8; 0];
                type Proc = $proc;

                fn memory(&self) -> &[u8; 0] {
                    &[]
                }

                fn memory_mut(&mut self) -> &mut [u8; 0] {
                    &mut []
                }

                fn procs(&self) -> &[$proc] {
                    $procs(self)
                }

                fn procs_mut(&mut self) -> &mut [$proc] {
                    $procs_mut(self)
                }

                fn mem_bytes(_mem: &[u8; 0]) -> usize {
                    0
                }

                fn proc_bytes(_proc: &$proc) -> usize {
                    std::mem::size_of::<$proc>()
                }

                fn encode_mem(_mem: &[u8; 0], _out: &mut Vec<u8>) {}

                fn decode_mem(_input: &mut &[u8]) -> Option<[u8; 0]> {
                    Some([])
                }

                fn encode_proc(_proc: &$proc, _out: &mut Vec<u8>) {
                    unreachable!("toy explorations are never checkpointed")
                }

                fn decode_proc(_input: &mut &[u8]) -> Option<$proc> {
                    None
                }
            }
        };
    }

    toy_components!(u8, u8, std::slice::from_ref, std::slice::from_mut);
    toy_components!(u32, u32, std::slice::from_ref, std::slice::from_mut);
    toy_components!(Colliding, Colliding, std::slice::from_ref, std::slice::from_mut);
    toy_components!([u8; 2], u8, <[u8; 2]>::as_slice, <[u8; 2]>::as_mut_slice);
    toy_components!([bool; 2], bool, <[bool; 2]>::as_slice, <[bool; 2]>::as_mut_slice);

    /// Labels single-threaded successors as thread 0's local steps.
    fn local_steps<S>(successors: Vec<S>) -> Vec<(Action, S)> {
        successors
            .into_iter()
            .enumerate()
            .map(|(ordinal, next)| (Action::local(0, ordinal as u32), next))
            .collect()
    }

    /// A diamond-shaped machine with two final states.
    #[derive(Debug)]
    struct Diamond;

    impl AbstractMachine for Diamond {
        type State = u8;

        fn initial_state(&self) -> u8 {
            0
        }

        fn is_final(&self, state: &u8) -> bool {
            *state == 3
        }

        fn outcome(&self, _state: &u8) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "diamond"
        }
    }

    impl LabeledMachine for Diamond {
        fn labeled_successors(&self, state: &u8) -> Vec<(Action, u8)> {
            local_steps(match state {
                0 => vec![1, 2],
                1 | 2 => vec![3],
                _ => vec![],
            })
        }
    }

    /// A machine that deadlocks in a non-final state.
    #[derive(Debug)]
    struct Stuck;

    impl AbstractMachine for Stuck {
        type State = u8;

        fn initial_state(&self) -> u8 {
            0
        }

        fn is_final(&self, _state: &u8) -> bool {
            false
        }

        fn outcome(&self, _state: &u8) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "stuck"
        }
    }

    impl LabeledMachine for Stuck {
        fn labeled_successors(&self, _state: &u8) -> Vec<(Action, u8)> {
            vec![]
        }
    }

    /// A wide two-level tree: `fanout` interior states each fanning into
    /// `fanout` final leaves (value-distinct outcomes are not needed; the
    /// explorer counts distinct *states*).
    #[derive(Debug)]
    struct Wide {
        fanout: u32,
    }

    impl AbstractMachine for Wide {
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn is_final(&self, state: &u32) -> bool {
            *state > self.fanout
        }

        fn outcome(&self, _state: &u32) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "wide"
        }
    }

    impl LabeledMachine for Wide {
        fn labeled_successors(&self, state: &u32) -> Vec<(Action, u32)> {
            local_steps(if *state == 0 {
                (1..=self.fanout).collect()
            } else if *state <= self.fanout {
                (1..=self.fanout).map(|leaf| self.fanout * *state + leaf).collect()
            } else {
                vec![]
            })
        }
    }

    /// Two threads of fully independent local counters: thread `t` counts
    /// from 0 to `len`. The full space is the `(len+1)^2` grid; a
    /// persistent-set exploration collapses it to one path.
    #[derive(Debug)]
    struct TwoLocalCounters {
        len: u8,
    }

    impl AbstractMachine for TwoLocalCounters {
        type State = [u8; 2];

        fn initial_state(&self) -> [u8; 2] {
            [0, 0]
        }

        fn is_final(&self, state: &[u8; 2]) -> bool {
            state[0] == self.len && state[1] == self.len
        }

        fn outcome(&self, _state: &[u8; 2]) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "two-local-counters"
        }
    }

    impl LabeledMachine for TwoLocalCounters {
        fn labeled_successors(&self, state: &[u8; 2]) -> Vec<(Action, [u8; 2])> {
            let mut out = Vec::new();
            if state[0] < self.len {
                out.push((Action::local(0, u32::from(state[0])), [state[0] + 1, state[1]]));
            }
            if state[1] < self.len {
                out.push((Action::local(1, u32::from(state[1])), [state[0], state[1] + 1]));
            }
            out
        }
    }

    /// Two threads, each one shared-memory write to a distinct address: a
    /// commuting diamond whose sleep sets prune one of the two transition
    /// orders but still visit all four states.
    #[derive(Debug)]
    struct DisjointWrites;

    impl AbstractMachine for DisjointWrites {
        type State = [bool; 2];

        fn initial_state(&self) -> [bool; 2] {
            [false, false]
        }

        fn is_final(&self, state: &[bool; 2]) -> bool {
            state[0] && state[1]
        }

        fn outcome(&self, _state: &[bool; 2]) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "disjoint-writes"
        }
    }

    impl LabeledMachine for DisjointWrites {
        fn labeled_successors(&self, state: &[bool; 2]) -> Vec<(Action, [bool; 2])> {
            let mut out = Vec::new();
            if !state[0] {
                out.push((Action::commit(0, 0, 100), [true, state[1]]));
            }
            if !state[1] {
                out.push((Action::commit(1, 0, 200), [state[0], true]));
            }
            out
        }
    }

    #[test]
    fn diamond_visits_all_states_once() {
        let exploration = Explorer::default().explore(&Diamond).unwrap();
        assert_eq!(exploration.states_visited, 4);
        assert_eq!(exploration.final_states, 1);
        assert_eq!(exploration.outcomes.len(), 1);
        assert_eq!(exploration.transitions_pruned, 0);
    }

    #[test]
    fn deadlock_is_reported() {
        assert_eq!(Explorer::default().explore(&Stuck), Err(ExploreError::Deadlock));
    }

    #[test]
    fn parallel_deadlock_is_reported() {
        let explorer = Explorer::new(ExplorerConfig { parallelism: 4, ..Default::default() });
        assert_eq!(explorer.explore(&Stuck), Err(ExploreError::Deadlock));
    }

    #[test]
    fn pre_cancelled_exploration_stops_at_the_first_poll() {
        let token = gam_core::CancelToken::new();
        token.cancel();
        let explorer = Explorer::default().with_interrupt(Interrupt::none().with_cancel(token));
        match explorer.explore(&Diamond) {
            Err(ExploreError::Interrupted { reason, states_visited, partial_outcomes }) => {
                assert_eq!(reason, StopReason::Cancelled);
                assert!(partial_outcomes.is_empty(), "nothing explored before the poll");
                assert!(states_visited <= 1);
            }
            other => panic!("expected an interrupted exploration, got {other:?}"),
        }
    }

    #[test]
    fn expired_wall_budget_interrupts_every_driver() {
        for reduction in [Reduction::Off, Reduction::Sleep, Reduction::SleepPlusCanon] {
            let explorer = Explorer::new(ExplorerConfig { reduction, ..Default::default() })
                .with_interrupt(Interrupt::none().with_wall_budget(std::time::Duration::ZERO));
            match explorer.explore(&TwoLocalCounters { len: 16 }) {
                Err(ExploreError::Interrupted { reason, .. }) => {
                    assert!(
                        matches!(reason, StopReason::WallBudget { .. }),
                        "{reduction}: wrong reason {reason:?}"
                    );
                }
                other => panic!("{reduction}: expected interruption, got {other:?}"),
            }
        }
    }

    /// The [`TwoLocalCounters`] grid with *shared-memory commit* labels to
    /// distinct addresses: persistent sets cannot collapse it (no action is
    /// thread-private), so every driver — reduced or not — visits all
    /// `(len+1)^2` states and performs that many expansions.
    #[derive(Debug)]
    struct TwoSharedCounters {
        len: u8,
    }

    impl AbstractMachine for TwoSharedCounters {
        type State = [u8; 2];

        fn initial_state(&self) -> [u8; 2] {
            [0, 0]
        }

        fn is_final(&self, state: &[u8; 2]) -> bool {
            state[0] == self.len && state[1] == self.len
        }

        fn outcome(&self, _state: &[u8; 2]) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "two-shared-counters"
        }
    }

    impl LabeledMachine for TwoSharedCounters {
        fn labeled_successors(&self, state: &[u8; 2]) -> Vec<(Action, [u8; 2])> {
            let mut out = Vec::new();
            if state[0] < self.len {
                out.push((Action::commit(0, u32::from(state[0]), 100), [state[0] + 1, state[1]]));
            }
            if state[1] < self.len {
                out.push((Action::commit(1, u32::from(state[1]), 200), [state[0], state[1] + 1]));
            }
            out
        }
    }

    /// Delegates to [`TwoSharedCounters`] but cancels the shared token after
    /// a fixed number of successor expansions, so mid-run cancellation is
    /// reproducible without timing assumptions.
    #[derive(Debug)]
    struct CancelAfter {
        inner: TwoSharedCounters,
        token: gam_core::CancelToken,
        after: usize,
        expansions: AtomicUsize,
    }

    impl CancelAfter {
        fn bump(&self) {
            if self.expansions.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
                self.token.cancel();
            }
        }
    }

    impl AbstractMachine for CancelAfter {
        type State = [u8; 2];

        fn initial_state(&self) -> [u8; 2] {
            self.inner.initial_state()
        }

        fn is_final(&self, state: &[u8; 2]) -> bool {
            self.inner.is_final(state)
        }

        fn outcome(&self, state: &[u8; 2]) -> Outcome {
            self.inner.outcome(state)
        }

        fn name(&self) -> &str {
            "cancel-after"
        }
    }

    impl LabeledMachine for CancelAfter {
        fn labeled_successors(&self, state: &[u8; 2]) -> Vec<(Action, [u8; 2])> {
            self.bump();
            self.inner.labeled_successors(state)
        }
    }

    #[test]
    fn cancellation_reaches_the_sharded_continuation() {
        // Threshold 0 escalates to the sharded continuation after the first
        // sequential expansion; the cancel fires from inside the machine at
        // expansion 600 — long past the escalation, long before the ~1681
        // expansions the 41x41 grid needs — so only a parallel worker's
        // poll can observe it.
        for reduction in [Reduction::Off, Reduction::SleepPlusCanon] {
            let token = gam_core::CancelToken::new();
            let machine = CancelAfter {
                inner: TwoSharedCounters { len: 40 },
                token: token.clone(),
                after: 600,
                expansions: AtomicUsize::new(0),
            };
            let config = ExplorerConfig {
                parallelism: 2,
                parallel_threshold: 0,
                reduction,
                ..Default::default()
            };
            let explorer =
                Explorer::new(config).with_interrupt(Interrupt::none().with_cancel(token));
            match explorer.explore(&machine) {
                Err(ExploreError::Interrupted { reason: StopReason::Cancelled, .. }) => {}
                other => panic!("{reduction}: expected cancellation, got {other:?}"),
            }
        }
    }

    #[test]
    fn unarmed_interrupt_leaves_results_identical() {
        let baseline = Explorer::default().explore(&TwoLocalCounters { len: 8 }).unwrap();
        let armed = Explorer::default()
            .with_interrupt(Interrupt::none().with_wall_budget(std::time::Duration::from_secs(600)))
            .explore(&TwoLocalCounters { len: 8 })
            .unwrap();
        assert_eq!(baseline, armed);
    }

    /// A diamond whose left interior state deadlocks: with an immediate
    /// escalation the deadlock is discovered by the sharded workers, not by
    /// the sequential phase.
    #[derive(Debug)]
    struct DeepStuck;

    impl AbstractMachine for DeepStuck {
        type State = u8;

        fn initial_state(&self) -> u8 {
            0
        }

        fn is_final(&self, state: &u8) -> bool {
            *state == 3
        }

        fn outcome(&self, _state: &u8) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "deep-stuck"
        }
    }

    impl LabeledMachine for DeepStuck {
        fn labeled_successors(&self, state: &u8) -> Vec<(Action, u8)> {
            local_steps(match state {
                0 => vec![1, 2],
                1 => vec![3],
                _ => vec![],
            })
        }
    }

    #[test]
    fn deadlock_after_escalation_is_reported() {
        let explorer = Explorer::new(ExplorerConfig {
            parallelism: 4,
            parallel_threshold: 0,
            ..Default::default()
        });
        assert_eq!(explorer.explore(&DeepStuck), Err(ExploreError::Deadlock));
    }

    #[test]
    fn reduced_deadlock_is_reported() {
        for reduction in [Reduction::Sleep, Reduction::SleepPlusCanon] {
            let explorer = Explorer::new(ExplorerConfig { reduction, ..Default::default() });
            assert_eq!(explorer.explore(&Stuck), Err(ExploreError::Deadlock), "{reduction}");
            let parallel =
                Explorer::new(ExplorerConfig { reduction, parallelism: 4, ..Default::default() });
            assert_eq!(parallel.explore(&Stuck), Err(ExploreError::Deadlock), "{reduction}");
        }
    }

    #[test]
    fn state_limit_reports_accurate_statistics() {
        let explorer = Explorer::new(ExplorerConfig { max_states: 2, ..Default::default() });
        match explorer.explore(&Diamond) {
            Err(ExploreError::StateLimitExceeded { limit, states_visited, partial_outcomes }) => {
                assert_eq!(limit, 2);
                // The third insertion trips the limit, so exactly 3 states
                // were interned when the abort happened — not the configured
                // limit, the true count.
                assert_eq!(states_visited, 3);
                // No final state was reached before the abort.
                assert!(partial_outcomes.is_empty());
            }
            other => panic!("expected a state-limit error, got {other:?}"),
        }
        assert_eq!(explorer.config().max_states, 2);
    }

    #[test]
    fn state_limit_keeps_partial_outcomes() {
        // The DFS finishes the first interior node's leaves (all final)
        // before expanding the next interior node trips the limit.
        let explorer = Explorer::new(ExplorerConfig { max_states: 12, ..Default::default() });
        match explorer.explore(&Wide { fanout: 5 }) {
            Err(ExploreError::StateLimitExceeded { states_visited, partial_outcomes, .. }) => {
                assert!(states_visited > 12);
                assert_eq!(partial_outcomes.len(), 1, "the empty outcome was collected");
            }
            other => panic!("expected a state-limit error, got {other:?}"),
        }
    }

    #[test]
    fn state_limit_is_enforced_under_reduction() {
        // The counters machine is all-local, so the persistent set follows
        // thread 0 first: the reduced space is one path of 2·len+1 states.
        // A limit below that still aborts with accurate statistics and the
        // partial outcomes collected so far.
        for reduction in [Reduction::Sleep, Reduction::SleepPlusCanon] {
            let explorer =
                Explorer::new(ExplorerConfig { max_states: 5, reduction, ..Default::default() });
            match explorer.explore(&TwoLocalCounters { len: 9 }) {
                Err(ExploreError::StateLimitExceeded {
                    limit,
                    states_visited,
                    partial_outcomes,
                }) => {
                    assert_eq!(limit, 5, "{reduction}");
                    assert_eq!(states_visited, 6, "{reduction}: abort on the tripping insert");
                    assert!(partial_outcomes.is_empty(), "{reduction}: no final state yet");
                }
                other => panic!("{reduction}: expected a state-limit error, got {other:?}"),
            }
        }
    }

    #[test]
    fn persistent_sets_collapse_independent_local_threads() {
        let machine = TwoLocalCounters { len: 4 };
        let full = Explorer::default().explore(&machine).unwrap();
        assert_eq!(full.states_visited, 25, "the full space is the 5x5 grid");
        let reduced = Explorer::new(ExplorerConfig::reduced()).explore(&machine).unwrap();
        assert_eq!(reduced.outcomes, full.outcomes);
        assert_eq!(
            reduced.states_visited, 9,
            "the persistent set walks thread 0 to completion, then thread 1"
        );
        assert!(reduced.transitions_pruned > 0);
    }

    #[test]
    fn sleep_sets_prune_commuting_diamonds() {
        let machine = DisjointWrites;
        let full = Explorer::default().explore(&machine).unwrap();
        let reduced =
            Explorer::new(ExplorerConfig { reduction: Reduction::Sleep, ..Default::default() })
                .explore(&machine)
                .unwrap();
        assert_eq!(reduced.outcomes, full.outcomes);
        // Sleep sets alone do not remove states (all four corners of the
        // diamond stay reachable), but they skip the second interleaving of
        // the two commuting writes.
        assert_eq!(reduced.states_visited, 4);
        assert_eq!(reduced.transitions_pruned, 1, "one of the two orders is slept");
    }

    #[test]
    fn find_outcome_stops_at_the_first_witness() {
        // Every leaf of the wide tree has the same (empty) outcome, so the
        // early exit must trigger long before the 1 + 40 + 1600 states of
        // the full space are interned.
        let machine = Wide { fanout: 40 };
        for reduction in Reduction::ALL {
            for parallelism in [1, 4] {
                let explorer = Explorer::new(ExplorerConfig {
                    reduction,
                    parallelism,
                    parallel_threshold: 0,
                    ..Default::default()
                });
                let witness = explorer.find_outcome(&machine, |_| true).unwrap();
                assert_eq!(witness, Some(Outcome::new()), "{reduction}/{parallelism}");
                let missing = explorer.find_outcome(&machine, |_| false).unwrap();
                assert_eq!(missing, None, "{reduction}/{parallelism}: exhaustion without a match");
            }
        }
        // The full exploration still reports the whole space.
        let full = Explorer::default().explore(&machine).unwrap();
        assert_eq!(full.states_visited, 1 + 40 + 40 * 40);
    }

    #[test]
    fn parallel_matches_sequential_on_a_wide_tree() {
        let machine = Wide { fanout: 40 };
        let sequential = Explorer::default().explore(&machine).unwrap();
        // A sharded run stores full states, so it reports no arena.
        let unshared = Exploration { arena: None, ..sequential.clone() };
        for workers in [2, 4, 8] {
            let parallel = Explorer::new(ExplorerConfig {
                parallelism: workers,
                parallel_threshold: 0,
                ..Default::default()
            })
            .explore(&machine)
            .unwrap();
            assert_eq!(parallel, unshared, "{workers} workers");
        }
        assert_eq!(sequential.states_visited, 1 + 40 + 40 * 40);
        assert_eq!(sequential.final_states, 40 * 40);
    }

    #[test]
    fn escalation_mid_run_matches_sequential() {
        // A threshold in the middle of the space: the run starts sequential,
        // migrates the visited set into the shards, and finishes parallel.
        let machine = Wide { fanout: 40 };
        let sequential = Explorer::default().explore(&machine).unwrap();
        let unshared = Exploration { arena: None, ..sequential.clone() };
        for threshold in [1, 5, 100, 1_000] {
            let adaptive = Explorer::new(ExplorerConfig {
                parallelism: 4,
                parallel_threshold: threshold,
                ..Default::default()
            })
            .explore(&machine)
            .unwrap();
            assert_eq!(adaptive, unshared, "threshold {threshold}");
        }
    }

    #[test]
    fn small_spaces_never_escalate() {
        // Under the default threshold the whole space fits in the
        // sequential phase, so a parallel explorer produces the sequential
        // result exactly — including per-field equality.
        let machine = Wide { fanout: 10 };
        let sequential = Explorer::default().explore(&machine).unwrap();
        let adaptive = Explorer::new(ExplorerConfig { parallelism: 8, ..Default::default() })
            .explore(&machine)
            .unwrap();
        assert_eq!(adaptive, sequential);
    }

    #[test]
    fn parallel_reduced_matches_sequential_outcomes() {
        let machine = TwoLocalCounters { len: 6 };
        let baseline = Explorer::default().explore(&machine).unwrap();
        for reduction in [Reduction::Sleep, Reduction::SleepPlusCanon] {
            for workers in [2, 4] {
                let reduced = Explorer::new(ExplorerConfig {
                    parallelism: workers,
                    reduction,
                    parallel_threshold: 0,
                    ..Default::default()
                })
                .explore(&machine)
                .unwrap();
                assert_eq!(reduced.outcomes, baseline.outcomes, "{reduction}/{workers}");
                assert_eq!(reduced.final_states, 1, "{reduction}/{workers}");
                assert!(
                    reduced.states_visited <= baseline.states_visited,
                    "{reduction}/{workers}: reduction may only shrink the space"
                );
            }
        }
    }

    #[test]
    fn parallel_state_limit_aborts() {
        let explorer = Explorer::new(ExplorerConfig {
            max_states: 10,
            parallelism: 4,
            parallel_threshold: 0,
            ..Default::default()
        });
        match explorer.explore(&Wide { fanout: 40 }) {
            Err(ExploreError::StateLimitExceeded { limit, states_visited, .. }) => {
                assert_eq!(limit, 10);
                assert!(states_visited > 10);
            }
            other => panic!("expected a state-limit error, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(ExploreError::Deadlock.to_string().contains("no enabled rule"));
        let err = ExploreError::StateLimitExceeded {
            limit: 7,
            states_visited: 9,
            partial_outcomes: BTreeSet::new(),
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains('9'));
    }

    #[test]
    fn reduction_names_and_accessors() {
        assert_eq!(Reduction::Off.to_string(), "off");
        assert_eq!(Reduction::Sleep.to_string(), "sleep");
        assert_eq!(Reduction::SleepPlusCanon.to_string(), "sleep+canon");
        assert!(!Reduction::Off.is_reduced());
        assert!(Reduction::Sleep.is_reduced());
        assert!(!Reduction::Sleep.canonicalizes());
        assert!(Reduction::SleepPlusCanon.canonicalizes());
        assert_eq!(Reduction::default(), Reduction::Off);
        assert_eq!(ExplorerConfig::reduced().reduction, Reduction::SleepPlusCanon);
    }

    #[test]
    fn action_sets_stay_sorted_across_inline_and_heap() {
        let mut set = ActionSet::new();
        assert!(set.as_slice().is_empty());
        // Push past the inline capacity in reverse order.
        let actions: Vec<Action> =
            (0..10).map(|id| Action::local(id as usize % 3, 100 - id)).collect();
        for action in &actions {
            set.push(*action);
        }
        set.sort_dedup();
        assert_eq!(set.as_slice().len(), 10);
        assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
        for action in &actions {
            assert!(set.contains(action));
        }
        assert!(!set.contains(&Action::local(7, 7)));

        // Duplicates collapse.
        let mut dupes = ActionSet::new();
        for _ in 0..4 {
            dupes.push(Action::local(0, 1));
            dupes.push(Action::local(1, 2));
        }
        dupes.sort_dedup();
        assert_eq!(dupes.as_slice().len(), 2);

        // Subset / intersection across representations.
        assert!(dupes.is_subset(&set) == (dupes.as_slice().iter().all(|a| set.contains(a))));
        let both = set.intersect(&dupes);
        assert_eq!(
            both.as_slice().len(),
            dupes.as_slice().iter().filter(|a| set.contains(a)).count()
        );
        assert_eq!(set.intersect(&set), set);

        // Retain keeps order and works inline and spilled.
        let mut retained = set.clone();
        retained.retain(|a| a.thread == 0);
        assert!(retained.as_slice().iter().all(|a| a.thread == 0));
        assert!(retained.as_slice().windows(2).all(|w| w[0] < w[1]));
        let mut small = dupes.clone();
        small.retain(|a| a.thread == 1);
        assert_eq!(small.as_slice(), &[Action::local(1, 2)]);
    }

    #[test]
    fn interned_states_deduplicate_and_index() {
        let mut set: InternedStates<u64> = InternedStates::default();
        let (a, new_a) = set.intern(10);
        assert!(new_a);
        assert_eq!(set.intern_ref(&10), (a, false));
        let (b, new_b) = set.intern(11);
        assert!(new_b);
        assert_ne!(a, b);
        assert_eq!(*set.get(a), 10);
        assert_eq!(*set.get(b), 11);
        assert_eq!(set.len(), 2);
        // intern reports the existing slot instead of hiding it.
        assert_eq!(set.intern(10), (a, false));
        assert_eq!(set.intern(12), (2, true));
    }

    /// A state whose `Hash` writes a constant: every instance lands in the
    /// same hash bucket, forcing the collision chain through the arena.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl std::hash::Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u64(0xDEAD_BEEF);
        }
    }

    #[test]
    fn interned_states_survive_full_hash_collisions() {
        let mut set: InternedStates<Colliding> = InternedStates::default();
        // Distinct states with identical hashes each get their own slot.
        let slots: Vec<u32> = (0..64)
            .map(|n| {
                let (slot, is_new) = set.intern(Colliding(n));
                assert!(is_new, "a distinct state is new");
                slot
            })
            .collect();
        assert_eq!(set.len(), 64);
        for (n, slot) in slots.iter().enumerate() {
            assert_eq!(*set.get(*slot), Colliding(n as u32));
        }
        // Equal states are still deduplicated through the collision chain.
        for n in 0..64 {
            assert_eq!(set.intern(Colliding(n)), (slots[n as usize], false));
        }
        assert_eq!(set.len(), 64);
    }

    /// A two-level machine over [`Colliding`] states: all states collide on
    /// one hash bucket, so exploration correctness rests entirely on the
    /// equality-based dedup walk.
    #[derive(Debug)]
    struct CollidingMachine;

    impl AbstractMachine for CollidingMachine {
        type State = Colliding;

        fn initial_state(&self) -> Colliding {
            Colliding(0)
        }

        fn is_final(&self, state: &Colliding) -> bool {
            state.0 == 3
        }

        fn outcome(&self, _state: &Colliding) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "colliding"
        }
    }

    impl LabeledMachine for CollidingMachine {
        fn labeled_successors(&self, state: &Colliding) -> Vec<(Action, Colliding)> {
            local_steps(match state.0 {
                0 => vec![Colliding(1), Colliding(2)],
                1 | 2 => vec![Colliding(3)],
                _ => vec![],
            })
        }
    }

    #[test]
    fn exploration_is_exact_under_full_hash_collisions() {
        for reduction in Reduction::ALL {
            for workers in [1, 4] {
                let explorer = Explorer::new(ExplorerConfig {
                    parallelism: workers,
                    reduction,
                    parallel_threshold: 0,
                    ..Default::default()
                });
                let exploration = explorer.explore(&CollidingMachine).unwrap();
                assert_eq!(exploration.states_visited, 4, "{reduction}/{workers}");
                assert_eq!(exploration.final_states, 1, "{reduction}/{workers}");
            }
        }
    }
}
