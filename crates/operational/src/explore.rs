//! Exhaustive exploration of an abstract machine's state space.
//!
//! The explorer performs a memoised search over the transition graph of a
//! [`LabeledMachine`], collecting the outcome of every reachable final
//! state. Litmus-test state spaces are finite (bounded ROBs, bounded
//! programs), so the search is exact; configurable limits guard against
//! pathological inputs.
//!
//! There is **one search**: a sequential depth-first search over a
//! component arena (`ComponentArena`), which stores every visited state as
//! a row of hash-consed component ids so unchanged per-proc states and
//! memories are shared across the visited set. It carries everything a
//! production run needs: the memory governor and its spill ladder,
//! interrupt polling, the early exit at the first witness, and the
//! escalation below. It keeps no persisted form of its search state: a run
//! checkpoint resumes per completed (model, backend) unit, and an
//! unfinished exploration restarts from its initial state. It always applies
//! the persistent-set and sleep-set partial-order reduction:
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
//!
//! The search is *label-first*: the persistent set is chosen from the
//! enabled action labels ([`LabeledMachine::enabled_actions`]) and only the
//! successors it keeps are built ([`LabeledMachine::successor_into`]). A
//! singleton-chain step relabels only the thread that stepped
//! ([`LabeledMachine::thread_actions`]), and the sequential driver expands
//! the state a chain stopped at with the labels and persistent set the
//! chain already computed there. The per-slot sleep bookkeeping is a `u32`
//! id into a deduplicated table of sets and one expansion-state byte.
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
//! Soundness of the reduction rests on the [`LabeledMachine`] contract
//! (thread-local guards, honest memory-address labels): under it, the
//! reduced search reaches exactly the final states of the full search. The
//! repository pins that with differential tests against the unreduced
//! reference search of [`crate::oracle`] over the entire litmus library,
//! the checked-in corpora and randomly generated programs.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::BuildHasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use gam_core::{fault, Interrupt, MemoryAccountant, StopReason};
use gam_isa::litmus::Outcome;
use rustc_hash::{FxBuildHasher, FxHashMap};

use crate::arena::{ComponentArena, ComposedState, Touched};
use crate::machine::{Action, ActionKind, LabeledMachine};
use crate::spill::{SpillError, SpillStore};

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
    /// `transitions_pruned` run-dependent (sleep sets depend on which
    /// worker reaches a state first). Composes
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
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig { max_states: 5_000_000, parallelism: 1, parallel_threshold: 8_192 }
    }
}

/// Memory budgeting and spill-to-disk for the sequential driver.
///
/// Arming the budget forces the exploration to stay sequential (the
/// adaptive escalation to the sharded continuation is disabled): the
/// budget ladder relies on the deterministic single-frontier search.
#[derive(Debug, Clone, Default)]
pub struct MemoryConfig {
    /// Hard in-RAM budget in *accounted* bytes (see
    /// [`gam_core::MemoryAccountant`] — deterministic figures, not allocator
    /// truth). At 80% the degradation ladder starts: cold rows spill.
    /// The sleep-set bookkeeping counts towards the budget but stays
    /// resident.
    /// Above 100% after every degradation step the exploration stops with
    /// [`StopReason::MemoryBudget`].
    pub max_bytes: Option<usize>,
    /// Directory for cold arena segments. Without it (or without
    /// `max_bytes`) nothing is ever spilled and the ladder goes straight to
    /// the hard stop.
    pub spill_dir: Option<PathBuf>,
}

impl MemoryConfig {
    /// Does this configuration constrain the exploration (and therefore
    /// force the sequential driver)?
    pub(crate) fn armed(&self) -> bool {
        self.max_bytes.is_some()
    }
}

/// Memory-pressure statistics of a budgeted exploration (accounted bytes —
/// deterministic for a fixed search).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// High-water mark of the accounted in-RAM total.
    pub peak_bytes: usize,
    /// Bytes moved to disk by the spill ladder.
    pub spilled_bytes: usize,
    /// Spill segment files written.
    pub spill_segments: usize,
    /// Bytes of spill block frames read back from disk.
    pub spill_read_bytes: usize,
    /// Always 0: the memory ladder has no sleep-set rung (spilling arena
    /// rows is its first). Kept so reports that name the column still
    /// build.
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
    /// Number of distinct states visited.
    pub states_visited: usize,
    /// Number of reachable final states (counted once per distinct state).
    pub final_states: usize,
    /// Number of enabled transitions the reduction skipped (persistent-set,
    /// sleep-set and chain prunes). Zero from the unreduced reference
    /// search of [`crate::oracle`].
    pub transitions_pruned: usize,
    /// Structure-sharing statistics of the component arena. `None` when
    /// the run escalated to the sharded continuation, and from the
    /// reference search of [`crate::oracle`]: both store full states.
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
    /// Memory budgeting and spilling (sequential driver only).
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

    /// Accounted bytes beyond the inline footprint: the heap-backed actions.
    fn heap_bytes(&self) -> usize {
        match &self.repr {
            ActionSetRepr::Inline { .. } => 0,
            ActionSetRepr::Heap(items) => items.len() * std::mem::size_of::<Action>(),
        }
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

impl std::hash::Hash for ActionSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

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
///    one-element persistent set and is explored alone. The first such
///    label wins.
/// 2. **Thread** — a thread whose enabled actions are all thread-private
///    (`ActionKind::Local`/`ActionKind::Fence`), or whose memory actions
///    are all footprint-disjoint from every other active thread: a read
///    must miss the others' future writes, a write any of their future
///    accesses ([`LabeledMachine::may_conflict_later`]). The lowest such
///    thread wins.
/// 3. **All** — no candidate qualifies; the state expands fully.
///
/// Only threads with an enabled action are consulted: guards are
/// thread-local, so a thread without one can never be woken by another
/// thread and will never act again. The label order groups each thread's
/// labels in ascending thread order, so one walk over the labels settles
/// both tiers, asking each label's cross-thread safety at most once. The
/// choice is a pure function of the state, which keeps reduced exploration
/// deterministic in the sequential driver.
fn choose_persistent<M: LabeledMachine>(
    machine: &M,
    state: &M::State,
    labels: &[Action],
    threads: &mut Vec<u32>,
) -> Chosen {
    threads.clear();
    threads.extend(labels.iter().map(|action| action.thread));
    threads.dedup();
    if threads.len() <= 1 {
        // A single active thread is vacuously persistent — and there is
        // nothing to prune.
        return Chosen::All;
    }
    let threads = &threads[..];
    let cross_thread_safe = |action: &Action| -> bool {
        !action.kind.touches_memory()
            || threads.iter().all(|&other| {
                other == action.thread
                    || !machine.may_conflict_later(
                        state,
                        other as usize,
                        action.addr,
                        action.kind.writes_memory(),
                    )
            })
    };

    // The tier-2 answer so far, and whether every label of the current
    // thread's run has been safe so far.
    let mut whole_thread = None;
    let mut run_safe = true;
    for (index, action) in labels.iter().enumerate() {
        if index > 0 && labels[index - 1].thread != action.thread {
            if run_safe && whole_thread.is_none() {
                whole_thread = Some(labels[index - 1].thread);
            }
            run_safe = true;
        }
        let single = machine.own_thread_independent(state, action);
        if single || run_safe && whole_thread.is_none() {
            let safe = cross_thread_safe(action);
            if single && safe {
                return Chosen::Single(*action);
            }
            run_safe &= safe;
        }
    }
    if run_safe && whole_thread.is_none() {
        whole_thread = labels.last().map(|action| action.thread);
    }
    whole_thread.map_or(Chosen::All, Chosen::Thread)
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
pub(crate) type StopFn<'a> = &'a (dyn Fn(&Outcome) -> bool + Sync);

/// The reduction of one search: persistent-set choice, sleep-set
/// inheritance and singleton-chain compression. The search is
/// *label-first*: [`Reducer::begin`] lists the enabled actions without
/// building any state, the persistent set is chosen from those labels, and
/// [`Reducer::successor`] builds only the successors the reduction keeps —
/// one per step of a singleton chain, which relabels only the thread that
/// stepped. The sequential driver and each sharded worker own one, so its
/// scratch buffers are reused across expansions; the sequential driver
/// also hands the labels a chain stopped with on to the expansion of that
/// state ([`Reducer::begin_at`]).
struct Reducer<'m, M: LabeledMachine> {
    machine: &'m M,
    /// The enabled actions of the state being expanded, in the machine's
    /// order (filled by [`Reducer::begin`]).
    labels: Vec<Action>,
    /// Actions already explored from the state being expanded: later
    /// siblings independent of them inherit them as sleep entries.
    explored: Vec<Action>,
    /// Scratch of the chain compressor: the enabled actions of the chained
    /// state, and a state buffer its successor is built into.
    chain_labels: Vec<Action>,
    chain_next: Option<M::State>,
    /// The persistent set of the state the last successor's chain stopped
    /// at, when the chain chose one there (its labels are then
    /// `chain_labels`).
    stopped: Option<Chosen>,
    /// That set and labels, handed on with the slot the state was interned
    /// at ([`Reducer::interned`]): the depth-first driver usually expands
    /// that slot next, and [`Reducer::begin_at`] reuses them.
    ahead: Option<(u32, Chosen)>,
    ahead_labels: Vec<Action>,
    /// Scratch of the persistent-set choice: the active threads.
    threads: Vec<u32>,
    /// The sleep set of the state being expanded, filled by
    /// [`SleepBook::claim`].
    asleep: ActionSet,
    /// The sleep set the successor last built by [`Reducer::successor`]
    /// inherits.
    sleep: ActionSet,
    /// Enabled transitions skipped so far (persistent-set, sleep-set and
    /// chain prunes).
    pruned: usize,
}

impl<'m, M: LabeledMachine> Reducer<'m, M> {
    fn new(machine: &'m M) -> Self {
        Reducer {
            machine,
            labels: Vec::new(),
            explored: Vec::new(),
            chain_labels: Vec::new(),
            chain_next: None,
            stopped: None,
            ahead: None,
            ahead_labels: Vec::new(),
            threads: Vec::new(),
            asleep: ActionSet::new(),
            sleep: ActionSet::new(),
            pruned: 0,
        }
    }

    /// Starts the expansion of `state`: lists its enabled actions into
    /// [`Reducer::labels`] and picks its persistent set from them.
    fn begin(&mut self, state: &M::State) -> Chosen {
        self.explored.clear();
        self.machine.enabled_actions(state, &mut self.labels);
        choose_persistent(self.machine, state, &self.labels, &mut self.threads)
    }

    /// [`Reducer::begin`] for the state interned at `slot`, taking its
    /// labels and persistent set from the chain that stopped there when
    /// they were handed on with that slot. Both are functions of the state
    /// alone, so reusing them changes nothing the search does.
    fn begin_at(&mut self, slot: u32, state: &M::State) -> Chosen {
        let Some((_, chosen)) = self.ahead.take_if(|(ahead, _)| *ahead == slot) else {
            return self.begin(state);
        };
        self.explored.clear();
        std::mem::swap(&mut self.labels, &mut self.ahead_labels);
        debug_assert_eq!(
            (self.labels.clone(), chosen),
            {
                let mut fresh = Vec::new();
                self.machine.enabled_actions(state, &mut fresh);
                let fresh_chosen = choose_persistent(self.machine, state, &fresh, &mut Vec::new());
                (fresh, fresh_chosen)
            },
            "the handed-on labels and persistent set are the state's fresh ones"
        );
        chosen
    }

    /// Notes that the successor [`Reducer::successor`] last built was
    /// interned as the new slot `slot`.
    fn interned(&mut self, slot: u32) {
        if let Some(chosen) = self.stopped.take() {
            std::mem::swap(&mut self.chain_labels, &mut self.ahead_labels);
            self.ahead = Some((slot, chosen));
        }
    }

    /// Builds into `next` the successor of `parent` (expanded with
    /// persistent set `chosen` and sleep set [`Reducer::asleep`]) reached
    /// by `action`, unless the reduction prunes it: when `action` is
    /// outside the persistent set or asleep, nothing is built. A kept
    /// successor inherits a sleep set and is advanced through states whose
    /// persistent set is a *singleton* without interning them (chain
    /// compression); each chain step builds exactly its one successor and
    /// relabels only the stepping thread. By contract 2 of
    /// [`LabeledMachine`] a step leaves every other thread's labels as they
    /// were, so a chained state's labels are its predecessor's with the
    /// stepping thread's run replaced ([`relabel`]); `parent`'s are
    /// [`Reducer::labels`].
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
    fn successor(
        &mut self,
        chosen: Chosen,
        action: Action,
        parent: &M::State,
        next: &mut M::State,
    ) -> Result<Option<Touched>, ExploreError> {
        let Reducer {
            machine,
            labels,
            explored,
            chain_labels,
            chain_next,
            stopped,
            threads,
            asleep,
            sleep,
            ..
        } = self;
        *stopped = None;
        if !chosen.keeps(&action) || asleep.contains(&action) {
            self.pruned += 1;
            return Ok(None);
        }
        machine.successor_into(parent, &action, next);
        let mut touched = Touched::from_action(&action);
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

        let mut stepped = action.thread;
        for link in 0..MAX_CHAIN {
            if machine.is_final(next) {
                break;
            }
            if link == 0 {
                chain_labels.clone_from(labels);
            }
            relabel(*machine, next, stepped, chain_labels);
            debug_assert_eq!(
                *chain_labels,
                {
                    let mut fresh = Vec::new();
                    machine.enabled_actions(next, &mut fresh);
                    fresh
                },
                "the spliced labels are the state's fresh ones"
            );
            if chain_labels.is_empty() {
                return Err(ExploreError::Deadlock);
            }
            let chosen = choose_persistent(*machine, next, chain_labels, threads);
            let Chosen::Single(step) = chosen else {
                *stopped = Some(chosen);
                break;
            };
            if sleep.contains(&step) {
                self.pruned += 1;
                return Ok(None);
            }
            self.pruned += chain_labels.len() - 1;
            let built = chain_next.get_or_insert_with(|| next.clone());
            machine.successor_into(next, &step, built);
            std::mem::swap(next, built);
            touched.add_action(&step);
            sleep.retain(|b| machine.independent(&step, b));
            stepped = step.thread;
        }
        Ok(Some(touched))
    }
}

/// Turns `labels`, those of a state from which one step of `thread` reached
/// `state`, into the labels of `state`: `thread`'s run is replaced by its
/// [`LabeledMachine::thread_actions`] in `state`. Sound by contract 2 and
/// the label order of [`LabeledMachine`], which keep every other run, and
/// its position, unchanged.
fn relabel<M: LabeledMachine>(
    machine: &M,
    state: &M::State,
    thread: u32,
    labels: &mut Vec<Action>,
) {
    let start = labels.partition_point(|action| action.thread < thread);
    let end = start + labels[start..].partition_point(|action| action.thread == thread);
    labels.drain(start..end);
    let later = labels.len() - start;
    machine.thread_actions(state, thread as usize, labels);
    // [later runs | new run] -> [new run | later runs]
    labels[start..].rotate_left(later);
}

/// The id of the empty sleep set in every [`SleepBook`] table.
const EMPTY_SET: u32 = 0;

/// Where a slot stands against its stored sleep set in a [`SleepBook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Expansion {
    /// Never expanded.
    Pending,
    /// Expanded with the sleep set it stores now.
    Current,
    /// Expanded, but the stored sleep set shrank since: due again.
    Stale,
}

/// Accounted bytes of one [`SleepBook`] table entry besides its heap-backed
/// actions: the inline set plus its hash-index entry.
const SLEEP_TABLE_ENTRY_BYTES: usize =
    std::mem::size_of::<ActionSet>() + std::mem::size_of::<(u64, Bucket)>();

/// The per-slot sleep-set bookkeeping of an exploration, parallel to its
/// visited set: the smallest sleep set each slot has been reached with,
/// as a `u32` id into a deduplicated table of sets, and whether the slot
/// was expanded with that set. A slot costs 5 bytes however big its set
/// is; a big search meets a few hundred distinct sets, and most slots name
/// the empty one.
///
/// Each stored set only shrinks, and a slot is re-queued exactly when it
/// shrinks, so every visit's obligations are met and the search
/// terminates.
struct SleepBook {
    /// Every distinct set a slot names or named, once; id 0 is the empty set.
    table: InternedStates<ActionSet>,
    /// Accounted bytes of `table` (length-based, so every run of one
    /// search reports the same figure).
    table_bytes: usize,
    /// Per slot: the id of the smallest sleep set it has been reached with.
    sleep: Vec<u32>,
    /// Per slot: whether it was expanded with that set.
    expanded: Vec<Expansion>,
}

impl SleepBook {
    fn new() -> Self {
        let mut book = SleepBook {
            table: InternedStates::default(),
            table_bytes: 0,
            sleep: Vec::new(),
            expanded: Vec::new(),
        };
        book.intern(&ActionSet::new());
        book
    }

    /// The table id of `set`, adding it when new.
    fn intern(&mut self, set: &ActionSet) -> u32 {
        if set.as_slice().is_empty() && !self.table.is_empty() {
            return EMPTY_SET;
        }
        let (id, is_new) = self.table.intern_ref(set);
        if is_new {
            self.table_bytes += SLEEP_TABLE_ENTRY_BYTES + set.heap_bytes();
        }
        id
    }

    /// Claims `slot` for expansion: copies its sleep set into `asleep` and
    /// returns whether this is its first expansion, or `None` when an
    /// expansion with an equal or smaller sleep set already covered it.
    #[inline]
    fn claim(&mut self, slot: u32, asleep: &mut ActionSet) -> Option<bool> {
        let previous = std::mem::replace(&mut self.expanded[slot as usize], Expansion::Current);
        if previous == Expansion::Current {
            return None;
        }
        asleep.clone_from(self.table.get(self.sleep[slot as usize]));
        Some(previous == Expansion::Pending)
    }

    /// Registers a freshly interned slot reached with sleep set `sleep`.
    #[inline]
    fn push(&mut self, sleep: &ActionSet) {
        let id = self.intern(sleep);
        self.sleep.push(id);
        self.expanded.push(Expansion::Pending);
    }

    /// Records a revisit of `slot` with sleep set `sleep`; true when the
    /// stored set shrank and the slot must be expanded again.
    #[inline]
    fn revisit(&mut self, slot: u32, sleep: &ActionSet) -> bool {
        let stored_id = self.sleep[slot as usize];
        if stored_id == EMPTY_SET {
            return false;
        }
        let stored = self.table.get(stored_id);
        if stored.is_subset(sleep) {
            return false;
        }
        let shrunk = stored.intersect(sleep);
        self.sleep[slot as usize] = self.intern(&shrunk);
        let expanded = &mut self.expanded[slot as usize];
        if *expanded == Expansion::Current {
            *expanded = Expansion::Stale;
        }
        true
    }

    /// Appends slot `slot` of `from` to this book, re-interning its set
    /// into this book's table.
    fn adopt(&mut self, from: &SleepBook, slot: usize) {
        let sleep = self.intern(from.table.get(from.sleep[slot]));
        self.sleep.push(sleep);
        self.expanded.push(from.expanded[slot]);
    }

    /// The accounted footprint: an id and a state byte per slot plus the
    /// table (lengths, never capacities, so the figure is deterministic).
    fn bytes(&self) -> usize {
        self.sleep.len() * std::mem::size_of::<u32>()
            + self.expanded.len() * std::mem::size_of::<Expansion>()
            + self.table_bytes
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

/// Rows moved per spill segment. Large enough that one spill round writes
/// few files; small enough that it reacts to pressure promptly. Reads do
/// not scale with it: a cold row costs one 4 KiB block of its segment.
const SPILL_CHUNK_ROWS: usize = 64 * 1024;

/// Rows always kept resident: the hot tail the DFS is actively revisiting.
const MIN_RESIDENT_ROWS: usize = 256;

/// The memory governor of a budgeted exploration: refreshes the
/// [`MemoryAccountant`] at poll cadence and walks the degradation ladder
/// (spill cold rows → hard stop).
struct MemGovernor {
    max_bytes: usize,
    soft_bytes: usize,
    acct: MemoryAccountant,
    /// Cleared after a spill *write* failure: rows stay resident from then
    /// on (already-written segments remain readable).
    spill_enabled: bool,
}

impl MemGovernor {
    fn new(memory: &MemoryConfig) -> Option<MemGovernor> {
        let max_bytes = memory.max_bytes?;
        Some(MemGovernor {
            max_bytes,
            soft_bytes: max_bytes / SOFT_WATERMARK_DEN * SOFT_WATERMARK_NUM,
            acct: MemoryAccountant::new(),
            spill_enabled: true,
        })
    }

    /// Refreshes every category from the live structures and returns the
    /// accounted total. All inputs are length-based (never capacity-based),
    /// so the figures are deterministic for a fixed search.
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
        // Spill figures come from the arena, not a running tally.
        let (spilled_bytes, spill_segments) = arena.spill_stats();
        self.acct.spilled_bytes = spilled_bytes;
        self.acct.spill_segments = spill_segments;
        self.acct.note_peak()
    }

    fn stats<S: ComposedState>(&self, arena: &ComponentArena<S>) -> MemoryStats {
        MemoryStats {
            peak_bytes: self.acct.peak_bytes,
            spilled_bytes: self.acct.spilled_bytes,
            spill_segments: self.acct.spill_segments,
            spill_read_bytes: arena.spill_read_bytes(),
            sleep_flushes: 0,
        }
    }

    /// One governance round at poll cadence: refresh the accounts, degrade
    /// while over the soft watermark, stop the run at the hard limit.
    fn govern<S: ComposedState>(
        &mut self,
        arena: &mut ComponentArena<S>,
        frontier_len: usize,
        sleep_bytes: usize,
    ) -> Result<(), StopReason> {
        let mut total = self.refresh(arena, frontier_len, sleep_bytes);
        if total < self.soft_bytes {
            return Ok(());
        }
        // Rung 1: spill the oldest resident rows until back under the soft
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
        // Rung 2: every degradation step taken (or unavailable) and still
        // over the hard limit — stop with sound partial outcomes. A total
        // equal to the budget fits it, so a budget of a run's reported peak
        // lets that run finish.
        if total > self.max_bytes {
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
    /// spill-to-disk degradation ladder. Arming a budget disables the
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
    /// A memory budget pins the run to the driver.
    fn escalation(&self) -> Option<usize> {
        (self.config.parallelism > 1 && !self.memory.armed())
            .then_some(self.config.parallel_threshold)
    }

    /// Exhaustively explores the machine, under the partial-order
    /// reduction, and collects every reachable final outcome.
    ///
    /// Visited states are stored as rows of hash-consed component ids
    /// (`crate::arena::ComponentArena`), so unchanged per-proc states and
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
    /// returns the search's [`Exploration`] together with that outcome, or
    /// with `None` after exhausting the (reduced) state space
    /// without a match.
    ///
    /// This is the early-exit search behind verdict queries: it stops at
    /// the *first* matching final state instead of enumerating the complete
    /// outcome set, so the exploration's counters cover only the states
    /// visited before the stop. It honours the adaptive parallelism — a
    /// forbidden verdict still has to exhaust the state space, so the
    /// sharded workers matter exactly there.
    ///
    /// # Errors
    ///
    /// See [`Explorer::explore`]. A state-limit abort without a witness is
    /// reported as an error (the absence of a witness was not proven).
    pub fn find_outcome<M, F>(
        &self,
        machine: &M,
        matches: F,
    ) -> Result<(Exploration, Option<Outcome>), ExploreError>
    where
        M: LabeledMachine + Sync,
        M::State: ComposedState + Send,
        F: Fn(&Outcome) -> bool + Sync,
    {
        self.run(machine, Some(&matches))
    }

    /// The one dispatcher: the sequential driver, then — if it escalated —
    /// the sharded continuation.
    pub(crate) fn run<M>(
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
    /// The expansion state is reassembled into one scratch buffer, the
    /// search is label-first ([`Reducer`]): only the successors the
    /// reduction keeps are built, each into one reused buffer, and every
    /// successor is deduplicated against its parent's component row
    /// through the label-derived mask of the actions that reached it.
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
        let mut reducer = Reducer::new(machine);
        let mut current = machine.initial_state();
        let num_procs = current.procs().len();
        let mut arena = ComponentArena::new(num_procs);
        let mut stack = vec![arena.intern_root(&current)];
        let mut book = SleepBook::new();
        book.push(&ActionSet::new());
        let (mut expansions, mut final_states) = (0, 0);
        let mut outcomes = BTreeSet::new();
        self.arm_spill(&mut arena, num_procs);
        let mut governor = MemGovernor::new(&self.memory);
        let hard_budget = self.memory.max_bytes.unwrap_or(0);
        let mut next = machine.initial_state();
        let mut witness = None;

        let progress = ProgressTicker::new();
        loop {
            if expansions & INTERRUPT_POLL_MASK == 0 {
                let reason = self.interrupt.triggered().or_else(|| {
                    governor.as_mut()?.govern(&mut arena, stack.len(), book.bytes()).err()
                });
                if let Some(reason) = reason {
                    return Err(ExploreError::Interrupted {
                        reason,
                        states_visited: arena.len(),
                        partial_outcomes: outcomes,
                    });
                }
            }
            let Some(slot) = stack.pop() else { break };
            progress.tick(expansions, arena.len(), stack.len());
            expansions += 1;
            let Some(first_expansion) = book.claim(slot, &mut reducer.asleep) else { continue };

            arena
                .load(slot, &mut current)
                .map_err(|err| spill_read_interrupt(hard_budget, arena.len(), &outcomes, &err))?;
            let chosen = reducer.begin_at(slot, &current);
            if machine.is_final(&current) {
                final_states += usize::from(first_expansion);
                let outcome = machine.outcome(&current);
                if stop.is_some_and(|matches| matches(&outcome)) {
                    witness = Some(outcome.clone());
                    outcomes.insert(outcome);
                    break;
                }
                outcomes.insert(outcome);
            } else if reducer.labels.is_empty() {
                return Err(ExploreError::Deadlock);
            }

            for index in 0..reducer.labels.len() {
                let action = reducer.labels[index];
                let Some(touched) = reducer.successor(chosen, action, &current, &mut next)? else {
                    continue;
                };
                let (next_slot, is_new) =
                    arena.intern_touched(&next, slot, touched).map_err(|err| {
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
                    reducer.interned(next_slot);
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

        // Polls run every few hundred expansions, so the final structures
        // are accounted here: `peak_bytes` is then a true high-water mark.
        let memory = governor.as_mut().map(|governor| {
            governor.refresh(&arena, stack.len(), book.bytes());
            governor.stats(&arena)
        });
        let exploration = Exploration {
            outcomes,
            states_visited: arena.len(),
            final_states,
            transitions_pruned: reducer.pruned,
            arena: Some(arena.occupancy()),
            memory,
        };
        Ok(SeqOutcome::Finished(exploration, witness))
    }

    /// Arms the spill store on a fresh arena when a budget and a spill
    /// directory are both configured. An unusable directory is
    /// reported and spilling stays off (the ladder degrades straight to the
    /// hard stop).
    fn arm_spill<S: ComposedState>(&self, arena: &mut ComponentArena<S>, num_procs: usize) {
        if self.memory.max_bytes.is_none() {
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
    /// The persistent-set choice is a pure function of the state, but sleep
    /// sets are not (a state reached first by a different worker can sleep
    /// on a different action set), which makes `states_visited`/
    /// `transitions_pruned` run-dependent. The *outcome set* stays exact —
    /// the re-expansion-on-smaller-sleep-set discipline guarantees every
    /// obligation is eventually explored.
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
        let shards: Vec<Mutex<Shard<M::State>>> = (0..workers)
            .map(|_| {
                Mutex::new(Shard { states: InternedStates::default(), book: SleepBook::new() })
            })
            .collect();
        let shard_of = |hash: u64| (hash % workers as u64) as usize;
        let seeding_hasher = FxBuildHasher::default();

        // Migrate the sequential phase's visited set and its sleep
        // bookkeeping into the shards, remembering each slot's new
        // (shard, index) address so the pending frontier can be requeued.
        let mut address: Vec<(u32, u32)> = Vec::with_capacity(seed.states.len());
        {
            let mut locked: Vec<_> =
                shards.iter().map(|shard| shard.lock().expect("shard lock")).collect();
            for (slot, state) in seed.states.into_iter().enumerate() {
                let hash = seeding_hasher.hash_one(&state);
                let target = shard_of(hash);
                let shard = &mut locked[target];
                let (index, _) = shard.states.intern_hashed(hash, state);
                shard.book.adopt(&seed.book, slot);
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
                    let mut reducer = Reducer::new(machine);
                    // A built state that the reduction then pruned (its
                    // chain ran into a sleeping action) is reused.
                    let mut spare: Option<M::State> = None;
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

                            let chosen = reducer.begin(&state);
                            if machine.is_final(&state) {
                                final_count
                                    .fetch_add(usize::from(first_expansion), Ordering::Relaxed);
                                let outcome = machine.outcome(&state);
                                if stop.is_some_and(|matches| matches(&outcome)) {
                                    *witness.lock().expect("witness lock") = Some(outcome.clone());
                                    abort.store(true, Ordering::Relaxed);
                                }
                                outcomes.insert(outcome);
                            } else if reducer.labels.is_empty() {
                                deadlocked.store(true, Ordering::Relaxed);
                                abort.store(true, Ordering::Relaxed);
                            }

                            for index in 0..reducer.labels.len() {
                                let action = reducer.labels[index];
                                let mut successor = spare.take().unwrap_or_else(|| state.clone());
                                match reducer.successor(chosen, action, &state, &mut successor) {
                                    Ok(Some(_)) => {}
                                    Ok(None) => {
                                        spare = Some(successor);
                                        continue;
                                    }
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
    #[cfg(test)]
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

    pub(crate) fn is_empty(&self) -> bool {
        self.arena.is_empty()
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

    /// The unreduced reference search, without a state limit.
    fn unreduced<M: LabeledMachine>(machine: &M) -> Exploration {
        crate::oracle::explore_unreduced(machine, usize::MAX).expect("the oracle explores")
    }

    #[test]
    fn diamond_visits_all_states_once() {
        let exploration = Explorer::default().explore(&Diamond).unwrap();
        assert_eq!(exploration.states_visited, 4);
        assert_eq!(exploration.final_states, 1);
        assert_eq!(exploration.outcomes.len(), 1);
        assert_eq!(exploration.transitions_pruned, 0);
        let full = unreduced(&Diamond);
        assert_eq!(
            (full.outcomes, full.states_visited, full.final_states),
            (exploration.outcomes, 4, 1),
            "the oracle visits the same four states"
        );
    }

    #[test]
    fn the_oracle_reports_deadlocks_and_its_state_limit() {
        assert_eq!(crate::oracle::explore_unreduced(&Stuck, 10), Err(ExploreError::Deadlock));
        match crate::oracle::explore_unreduced(&Diamond, 2) {
            Err(ExploreError::StateLimitExceeded { limit: 2, states_visited: 3, .. }) => {}
            other => panic!("expected a state-limit error, got {other:?}"),
        }
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
    fn expired_wall_budget_interrupts_the_search() {
        let explorer = Explorer::default()
            .with_interrupt(Interrupt::none().with_wall_budget(std::time::Duration::ZERO));
        match explorer.explore(&TwoLocalCounters { len: 16 }) {
            Err(ExploreError::Interrupted { reason, .. }) => {
                assert!(matches!(reason, StopReason::WallBudget { .. }), "wrong reason {reason:?}");
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    /// The [`TwoLocalCounters`] grid with *shared-memory commit* labels to
    /// distinct addresses: persistent sets cannot collapse it (no action is
    /// thread-private), so the search visits all `(len+1)^2` states and
    /// performs that many expansions.
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
        let token = gam_core::CancelToken::new();
        let machine = CancelAfter {
            inner: TwoSharedCounters { len: 40 },
            token: token.clone(),
            after: 600,
            expansions: AtomicUsize::new(0),
        };
        let config = ExplorerConfig { parallelism: 2, parallel_threshold: 0, ..Default::default() };
        let explorer = Explorer::new(config).with_interrupt(Interrupt::none().with_cancel(token));
        match explorer.explore(&machine) {
            Err(ExploreError::Interrupted { reason: StopReason::Cancelled, .. }) => {}
            other => panic!("expected cancellation, got {other:?}"),
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
        let explorer = Explorer::new(ExplorerConfig { max_states: 5, ..Default::default() });
        match explorer.explore(&TwoLocalCounters { len: 9 }) {
            Err(ExploreError::StateLimitExceeded { limit, states_visited, partial_outcomes }) => {
                assert_eq!(limit, 5);
                assert_eq!(states_visited, 6, "abort on the tripping insert");
                assert!(partial_outcomes.is_empty(), "no final state yet");
            }
            other => panic!("expected a state-limit error, got {other:?}"),
        }
    }

    #[test]
    fn persistent_sets_collapse_independent_local_threads() {
        let machine = TwoLocalCounters { len: 4 };
        let full = unreduced(&machine);
        assert_eq!(full.states_visited, 25, "the full space is the 5x5 grid");
        let reduced = Explorer::default().explore(&machine).unwrap();
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
        let full = unreduced(&machine);
        let reduced = Explorer::default().explore(&machine).unwrap();
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
        for parallelism in [1, 4] {
            let explorer = Explorer::new(ExplorerConfig {
                parallelism,
                parallel_threshold: 0,
                ..Default::default()
            });
            let (early, witness) = explorer.find_outcome(&machine, |_| true).unwrap();
            assert_eq!(witness, Some(Outcome::new()), "{parallelism}");
            assert!(early.states_visited < 1 + 40 + 40 * 40, "{parallelism}");
            let (exhausted, missing) = explorer.find_outcome(&machine, |_| false).unwrap();
            assert_eq!(missing, None, "{parallelism}: exhaustion without a match");
            // Exhaustion without a match reports the whole space.
            assert_eq!(exhausted.states_visited, unreduced(&machine).states_visited);
        }
        assert_eq!(unreduced(&machine).states_visited, 1 + 40 + 40 * 40);
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
        let baseline = unreduced(&machine);
        for workers in [2, 4] {
            let reduced = Explorer::new(ExplorerConfig {
                parallelism: workers,
                parallel_threshold: 0,
                ..Default::default()
            })
            .explore(&machine)
            .unwrap();
            assert_eq!(reduced.outcomes, baseline.outcomes, "{workers}");
            assert_eq!(reduced.final_states, 1, "{workers}");
            assert!(
                reduced.states_visited <= baseline.states_visited,
                "{workers}: reduction may only shrink the space"
            );
        }
    }

    #[test]
    fn parallel_state_limit_aborts() {
        let explorer =
            Explorer::new(ExplorerConfig { max_states: 10, parallelism: 4, parallel_threshold: 0 });
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
        let full = unreduced(&CollidingMachine);
        assert_eq!((full.states_visited, full.final_states), (4, 1), "the oracle");
        for workers in [1, 4] {
            let explorer = Explorer::new(ExplorerConfig {
                parallelism: workers,
                parallel_threshold: 0,
                ..Default::default()
            });
            let exploration = explorer.explore(&CollidingMachine).unwrap();
            assert_eq!(exploration.states_visited, 4, "{workers}");
            assert_eq!(exploration.final_states, 1, "{workers}");
        }
    }
}
