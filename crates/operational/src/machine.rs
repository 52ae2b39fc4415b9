//! The abstract-machine interfaces shared by all operational models.
//!
//! Two layers of machine definition live here:
//!
//! * [`AbstractMachine`] — the state type, the initial state, finality and
//!   the outcome projection of one litmus test's machine.
//! * [`LabeledMachine`] — its transitions: every enabled rule firing is
//!   named by an [`Action`] carrying the acting thread, the step kind and
//!   (for memory accesses) the address. The explorer exploits the labels
//!   for partial-order reduction: two actions of different threads that do
//!   not conflict on a memory address commute, so only one of their orders
//!   needs to be explored.

use std::hash::Hash;

use gam_isa::litmus::Outcome;

/// An operational memory-model definition: a non-deterministic transition
/// system whose reachable final states determine the allowed program
/// behaviours.
///
/// Implementations are *machines for one litmus test*: the program, the
/// initial memory and the observed registers/locations are baked into the
/// machine, and [`AbstractMachine::outcome`] projects a final state onto the
/// test's observations.
pub trait AbstractMachine {
    /// A machine configuration. States must be cheap to clone and hashable so
    /// the explorer can memoise visited configurations.
    type State: Clone + Eq + Hash;

    /// The initial configuration.
    fn initial_state(&self) -> Self::State;

    /// Returns true when the machine has completely executed the program.
    fn is_final(&self, state: &Self::State) -> bool;

    /// Projects a final state onto the litmus test's observed registers and
    /// memory locations.
    fn outcome(&self, state: &Self::State) -> Outcome;

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// What a transition does to shared state, as coarse conflict classes.
///
/// The classification drives the independence oracle: two actions of
/// different threads are dependent only if both touch shared memory at the
/// same address and at least one of them writes it. Everything else a rule
/// does must, by contract, be confined to the acting thread's private state
/// (register file, program counter, ROB, its own store buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// A thread-private step: register computation, branch resolution,
    /// address/data computation, fetch, store-buffer *enqueue*, or a load
    /// satisfied entirely by forwarding from the thread's own buffered or
    /// in-flight store. Touches no shared memory.
    Local,
    /// A fence completing. Fences in these machines act purely on the acting
    /// thread's private state (their ordering power lives in rule *guards*),
    /// so the kind behaves like [`ActionKind::Local`] for independence; it is
    /// distinguished for diagnostics and persistent-set reporting.
    Fence,
    /// Reads shared memory at [`Action::addr`] (a load that misses every
    /// private forwarding source).
    MemoryRead,
    /// Publishes a value to shared memory at [`Action::addr`] (an
    /// execute-store commit on machines without store buffers).
    MemoryCommit,
    /// Drains one store-buffer entry to shared memory at [`Action::addr`].
    /// Conflict-equivalent to [`ActionKind::MemoryCommit`]; distinguished so
    /// buffer machines report drain pressure separately.
    BufferDrain,
}

impl ActionKind {
    /// Does the action read or write shared memory?
    #[must_use]
    pub fn touches_memory(self) -> bool {
        matches!(self, ActionKind::MemoryRead | ActionKind::MemoryCommit | ActionKind::BufferDrain)
    }

    /// Does the action write shared memory?
    #[must_use]
    pub fn writes_memory(self) -> bool {
        matches!(self, ActionKind::MemoryCommit | ActionKind::BufferDrain)
    }
}

/// A transition label: which thread fired which rule, and what the rule does
/// to shared memory.
///
/// Labels identify transitions *stably*: if an action `a` is enabled in a
/// state and an independent action of another thread fires, `a` remains
/// enabled afterwards with the same label, leading to the same per-thread
/// effect. The explorer's sleep sets rely on this stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action {
    /// The acting thread (processor index).
    pub thread: u32,
    /// A machine-chosen identifier distinguishing the thread's concurrently
    /// enabled actions from one another (e.g. ROB index and rule tag).
    pub id: u32,
    /// The conflict class of the step.
    pub kind: ActionKind,
    /// The shared-memory address for memory-touching kinds (0 otherwise).
    pub addr: u64,
}

impl Action {
    /// A thread-private action.
    #[must_use]
    pub fn local(thread: usize, id: u32) -> Self {
        Action { thread: thread as u32, id, kind: ActionKind::Local, addr: 0 }
    }

    /// A fence-completion action.
    #[must_use]
    pub fn fence(thread: usize, id: u32) -> Self {
        Action { thread: thread as u32, id, kind: ActionKind::Fence, addr: 0 }
    }

    /// A shared-memory read at `addr`.
    #[must_use]
    pub fn read(thread: usize, id: u32, addr: u64) -> Self {
        Action { thread: thread as u32, id, kind: ActionKind::MemoryRead, addr }
    }

    /// A shared-memory commit (write) at `addr`.
    #[must_use]
    pub fn commit(thread: usize, id: u32, addr: u64) -> Self {
        Action { thread: thread as u32, id, kind: ActionKind::MemoryCommit, addr }
    }

    /// A store-buffer drain publishing to `addr`.
    #[must_use]
    pub fn drain(thread: usize, id: u32, addr: u64) -> Self {
        Action { thread: thread as u32, id, kind: ActionKind::BufferDrain, addr }
    }

    /// Do the two actions conflict on shared memory — same address, at least
    /// one write?
    #[must_use]
    pub fn conflicts_with(&self, other: &Action) -> bool {
        self.kind.touches_memory()
            && other.kind.touches_memory()
            && self.addr == other.addr
            && (self.kind.writes_memory() || other.kind.writes_memory())
    }
}

/// An over-approximated set of shared-memory addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrSet {
    /// Any address (the analysis could not bound the set).
    Top,
    /// Exactly the listed addresses (possibly empty).
    Set(std::collections::BTreeSet<u64>),
}

impl AddrSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        AddrSet::Set(std::collections::BTreeSet::new())
    }

    /// May the set contain `addr`?
    #[must_use]
    pub fn may_contain(&self, addr: u64) -> bool {
        match self {
            AddrSet::Top => true,
            AddrSet::Set(set) => set.contains(&addr),
        }
    }

    /// Adds one address.
    pub fn insert(&mut self, addr: u64) {
        if let AddrSet::Set(set) = self {
            set.insert(addr);
        }
    }

    /// Unions another set into this one.
    pub fn union_with(&mut self, other: &AddrSet) {
        match (self, other) {
            (this @ AddrSet::Set(_), AddrSet::Top) => *this = AddrSet::Top,
            (AddrSet::Set(this), AddrSet::Set(other)) => this.extend(other.iter().copied()),
            (AddrSet::Top, _) => {}
        }
    }
}

/// An over-approximation of the shared-memory accesses a thread may still
/// perform: the addresses it may read and the addresses it may write, in
/// *any* continuation from the state the footprint was computed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Addresses the thread may still read.
    pub reads: AddrSet,
    /// Addresses the thread may still write.
    pub writes: AddrSet,
}

impl Footprint {
    /// A thread with no remaining shared-memory accesses.
    #[must_use]
    pub fn empty() -> Self {
        Footprint { reads: AddrSet::empty(), writes: AddrSet::empty() }
    }

    /// A thread about which nothing is known (the sound default).
    #[must_use]
    pub fn top() -> Self {
        Footprint { reads: AddrSet::Top, writes: AddrSet::Top }
    }

    /// May the thread still write `addr`?
    #[must_use]
    pub fn may_write(&self, addr: u64) -> bool {
        self.writes.may_contain(addr)
    }

    /// May the thread still read or write `addr`?
    #[must_use]
    pub fn may_access(&self, addr: u64) -> bool {
        self.reads.may_contain(addr) || self.writes.may_contain(addr)
    }
}

/// The transitions of an [`AbstractMachine`], labeled with [`Action`]s,
/// enabling partial-order reduction in the explorer.
///
/// # Contract
///
/// Implementations must uphold, for the default independence oracle and the
/// reduced exploration modes to be sound:
///
/// 1. **Determinism per label** — an enabled action yields exactly one
///    successor (non-determinism is expressed by *multiple* enabled
///    actions, each with a distinct label).
/// 2. **Thread-local guards and labels** — whether an action is enabled, and
///    its label, may depend only on the acting thread's private state.
///    Shared memory may influence only the *effect* of an action, and any
///    action whose effect reads shared memory must say so via
///    [`ActionKind::MemoryRead`] (and writes via
///    [`ActionKind::MemoryCommit`]/[`ActionKind::BufferDrain`]).
/// 3. **Private effects are private** — an action may mutate nothing outside
///    the acting thread's private state plus the declared shared-memory
///    address.
///
/// Under this contract, two actions of different threads whose labels do not
/// conflict commute: firing them in either order reaches the same state, and
/// neither enables or disables the other. That is exactly what
/// [`LabeledMachine::independent`] reports and what the explorer's
/// persistent/sleep sets exploit.
pub trait LabeledMachine: AbstractMachine {
    /// Every enabled rule firing, as `(label, resulting state)` pairs.
    ///
    /// An empty vector means no rule is enabled; if the state is not final
    /// this indicates deadlock, which the explorer reports.
    ///
    /// Deliberately *not* defaulted in terms of
    /// [`LabeledMachine::labeled_successors_into`]: mutually-recursive
    /// defaults would let an impl overriding neither compile and then
    /// overflow the stack at runtime. Buffer-first machines implement this
    /// as a one-line delegation into a fresh vector.
    fn labeled_successors(&self, state: &Self::State) -> Vec<(Action, Self::State)>;

    /// Every enabled rule firing, written into `out` — the allocation-free
    /// twin of [`LabeledMachine::labeled_successors`].
    ///
    /// **Buffer-reuse contract.** On entry `out` may still hold the entries
    /// of a previous expansion; implementations overwrite those entries in
    /// place (via `Clone::clone_from`, which reuses their heap buffers) and
    /// truncate or extend to the new successor count. Callers therefore
    /// must *not* clear `out` between calls — clearing drops the pooled
    /// states and reintroduces exactly the per-successor allocation churn
    /// this method removes. On return `out` holds the same pairs, in the
    /// same order, as [`LabeledMachine::labeled_successors`].
    ///
    /// The default delegates to [`LabeledMachine::labeled_successors`]
    /// (allocating); the shipped machines implement this method directly
    /// and derive the allocating form from it.
    fn labeled_successors_into(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        out.clear();
        out.extend(self.labeled_successors(state));
    }

    /// Like [`LabeledMachine::labeled_successors_into`], but each produced
    /// state is only guaranteed valid in the components its action label
    /// names (the acting thread's private component, plus the shared
    /// memory for writing kinds); everything else may hold stale buffer
    /// content. Exclusively for the explorer's unreduced search, which
    /// deduplicates successors through exactly that label-derived mask and
    /// never reads the rest. The default produces full states, which is
    /// always sound.
    #[doc(hidden)]
    fn labeled_successors_sparse_into(
        &self,
        state: &Self::State,
        out: &mut Vec<(Action, Self::State)>,
    ) {
        self.labeled_successors_into(state, out);
    }

    /// The independence oracle: may the two actions be reordered without
    /// changing the reachable behaviours?
    ///
    /// The default derives independence from the labels: actions of the same
    /// thread are always dependent; actions of different threads are
    /// dependent only when they conflict on a shared-memory address
    /// ([`Action::conflicts_with`]).
    fn independent(&self, a: &Action, b: &Action) -> bool {
        a.thread != b.thread && !a.conflicts_with(b)
    }

    /// Is `action` independent of every *other* current and future action of
    /// its own thread — i.e. does it commute with each of them wherever both
    /// are enabled, without disabling any of them?
    ///
    /// When it additionally cannot conflict with any other thread (it is
    /// thread-private, or its address is outside every other active thread's
    /// [`LabeledMachine::future_footprint`]), the explorer may fire it as a
    /// *singleton persistent set*: alone, deferring every sibling action —
    /// the strongest state-pruning step the reduction has. The default
    /// `false` disables singleton selection, which is always sound.
    fn own_thread_independent(&self, _state: &Self::State, _action: &Action) -> bool {
        false
    }

    /// Over-approximates the shared-memory addresses `thread` may still read
    /// or write in *any* continuation from `state`.
    ///
    /// The explorer uses footprints to widen its persistent sets: a thread
    /// whose every enabled action is either thread-private or touches only
    /// addresses outside every other active thread's footprint can be
    /// explored alone — no other thread will ever interfere with it.
    /// Footprints must cover the thread's currently enabled accesses, any
    /// re-execution a squash can trigger, and every dynamically computed
    /// address (a static value-set bound is the usual source). The default
    /// returns [`Footprint::top`], which is always sound and simply disables
    /// the footprint widening.
    fn future_footprint(&self, _state: &Self::State, _thread: usize) -> Footprint {
        Footprint::top()
    }

    /// Rewrites a state into a canonical representative of its symmetry
    /// class: semantically dead fields (e.g. the recorded branch prediction
    /// of an already-resolved ROB entry) are scrubbed so that states whose
    /// futures and observations are identical intern to one arena slot.
    ///
    /// Must be idempotent, preserve [`AbstractMachine::is_final`],
    /// [`AbstractMachine::outcome`] and the labeled successor relation up to
    /// canonicalization. The default is the identity.
    ///
    /// Must compute the same function as
    /// [`LabeledMachine::canonicalize_in_place`] — override both or
    /// neither.
    fn canonicalize(&self, state: Self::State) -> Self::State {
        state
    }

    /// In-place form of [`LabeledMachine::canonicalize`], used by the
    /// explorer's hot paths so canonicalization never moves or reallocates
    /// the state. The default is the identity; machines overriding
    /// `canonicalize` must override this consistently (and vice versa).
    fn canonicalize_in_place(&self, _state: &mut Self::State) {}
}

/// The writing half of the [`LabeledMachine::labeled_successors_into`]
/// buffer-reuse contract, shared by the three machines' rule functions.
///
/// `push_from` hands the rule a successor slot already holding a clone of
/// the parent state: slots left over from the caller's previous expansion
/// are overwritten through `Clone::clone_from` (reusing their memory, ROB,
/// register-file and store-buffer allocations), and only a buffer that has
/// never been this full allocates. `finish` truncates the buffer to the
/// entries actually pushed.
///
/// In *sparse* mode ([`SuccBuf::new_sparse`]) a reused slot clones only
/// the components the [`Action`] label says the rule may touch — the
/// acting thread's component, plus the memory for writing kinds. The
/// resulting states are valid *only* in those components; the explorer's
/// unreduced search, which deduplicates successors purely through the same
/// label-derived mask, is the one consumer. Rules may therefore
/// read or mutate `next` only inside the acting thread's component and
/// the declared memory — which clause 3 of the [`LabeledMachine`]
/// contract requires of them anyway.
pub(crate) struct SuccBuf<'a, S: crate::arena::ComposedState> {
    out: &'a mut Vec<(Action, S)>,
    filled: usize,
    sparse: bool,
}

impl<'a, S: crate::arena::ComposedState> SuccBuf<'a, S> {
    pub(crate) fn new(out: &'a mut Vec<(Action, S)>) -> Self {
        SuccBuf { out, filled: 0, sparse: false }
    }

    pub(crate) fn new_sparse(out: &'a mut Vec<(Action, S)>) -> Self {
        SuccBuf { out, filled: 0, sparse: true }
    }

    /// Appends a successor initialized to a clone of `parent` under `action`
    /// and returns it for the rule to mutate.
    pub(crate) fn push_from(&mut self, parent: &S, action: Action) -> &mut S {
        if self.filled < self.out.len() {
            let entry = &mut self.out[self.filled];
            entry.0 = action;
            let thread = action.thread as usize;
            if self.sparse && thread < parent.procs().len() {
                if action.kind.writes_memory() {
                    entry.1.memory_mut().clone_from(parent.memory());
                }
                entry.1.procs_mut()[thread].clone_from(&parent.procs()[thread]);
            } else {
                entry.1.clone_from(parent);
            }
        } else {
            // A slot that never existed has no buffers to reuse — a full
            // clone materializes them (also keeps sparse entries shaped
            // like states, so later sparse reuse can index every proc).
            self.out.push((action, parent.clone()));
        }
        self.filled += 1;
        &mut self.out[self.filled - 1].1
    }

    /// Trims the buffer to the pushed entries. Must be called exactly once,
    /// after the last rule ran.
    pub(crate) fn finish(self) {
        self.out.truncate(self.filled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::Outcome;

    /// A trivial two-step machine used to exercise the trait's object safety
    /// and default-free design.
    #[derive(Debug)]
    struct Countdown {
        start: u8,
    }

    impl AbstractMachine for Countdown {
        type State = u8;

        fn initial_state(&self) -> u8 {
            self.start
        }

        fn is_final(&self, state: &u8) -> bool {
            *state == 0
        }

        fn outcome(&self, _state: &u8) -> Outcome {
            Outcome::new()
        }

        fn name(&self) -> &str {
            "countdown"
        }
    }

    impl LabeledMachine for Countdown {
        fn labeled_successors(&self, state: &u8) -> Vec<(Action, u8)> {
            if *state == 0 {
                vec![]
            } else {
                vec![(Action::local(0, 0), state - 1)]
            }
        }
    }

    #[test]
    fn countdown_machine_behaves() {
        let machine = Countdown { start: 2 };
        let s0 = machine.initial_state();
        assert!(!machine.is_final(&s0));
        assert_eq!(machine.labeled_successors(&s0), vec![(Action::local(0, 0), 1)]);
        let mut buf = Vec::new();
        machine.labeled_successors_into(&1, &mut buf);
        assert_eq!(buf, vec![(Action::local(0, 0), 0)]);
        assert!(machine.is_final(&0));
        assert!(machine.labeled_successors(&0).is_empty());
        assert_eq!(machine.name(), "countdown");
        assert!(machine.outcome(&0).is_empty());
        // Default canonicalization is the identity.
        assert_eq!(machine.canonicalize(1), 1);
    }

    #[test]
    fn conflict_oracle_is_address_and_kind_aware() {
        let read_x = Action::read(0, 0, 100);
        let read_x2 = Action::read(1, 0, 100);
        let write_x = Action::commit(1, 0, 100);
        let write_y = Action::commit(1, 0, 200);
        let drain_x = Action::drain(1, 0, 100);
        let local = Action::local(1, 0);
        let fence = Action::fence(1, 0);

        // Reads never conflict with reads.
        assert!(!read_x.conflicts_with(&read_x2));
        // A write conflicts with any same-address access, either direction.
        assert!(read_x.conflicts_with(&write_x));
        assert!(write_x.conflicts_with(&read_x));
        assert!(write_x.conflicts_with(&drain_x));
        assert!(drain_x.conflicts_with(&read_x));
        // Different addresses never conflict.
        assert!(!read_x.conflicts_with(&write_y));
        // Local steps and fences touch no shared memory.
        assert!(!local.conflicts_with(&write_x));
        assert!(!fence.conflicts_with(&write_x));
        assert!(ActionKind::BufferDrain.writes_memory());
        assert!(!ActionKind::MemoryRead.writes_memory());
        assert!(!ActionKind::Fence.touches_memory());
    }

    #[test]
    fn default_independence_is_thread_and_conflict_based() {
        let machine = Countdown { start: 1 };
        // Same thread: always dependent.
        assert!(!machine.independent(&Action::local(0, 0), &Action::local(0, 1)));
        // Different threads, no memory conflict: independent.
        assert!(machine.independent(&Action::local(0, 0), &Action::commit(1, 0, 8)));
        assert!(machine.independent(&Action::read(0, 0, 8), &Action::read(1, 0, 8)));
        // Different threads, same-address read/write: dependent.
        assert!(!machine.independent(&Action::read(0, 0, 8), &Action::commit(1, 0, 8)));
        assert!(!machine.independent(&Action::drain(0, 0, 8), &Action::drain(1, 0, 8)));
    }
}
