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
pub(crate) enum AddrSet {
    /// Any address (the analysis could not bound the set).
    Top,
    /// Exactly the listed addresses (possibly empty).
    Set(std::collections::BTreeSet<u64>),
}

impl AddrSet {
    /// The empty set.
    pub(crate) fn empty() -> Self {
        AddrSet::Set(std::collections::BTreeSet::new())
    }

    /// May the set contain `addr`?
    pub(crate) fn may_contain(&self, addr: u64) -> bool {
        match self {
            AddrSet::Top => true,
            AddrSet::Set(set) => set.contains(&addr),
        }
    }

    /// Unions another set into this one.
    pub(crate) fn union_with(&mut self, other: &AddrSet) {
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
pub(crate) struct Footprint {
    /// Addresses the thread may still read.
    pub(crate) reads: AddrSet,
    /// Addresses the thread may still write.
    pub(crate) writes: AddrSet,
}

impl Footprint {
    /// A thread with no remaining shared-memory accesses.
    pub(crate) fn empty() -> Self {
        Footprint { reads: AddrSet::empty(), writes: AddrSet::empty() }
    }

    /// May the thread still access `addr` in a way that conflicts with
    /// another thread's access there — a write, or any access when that
    /// one writes (`write`)? The answer of
    /// [`LabeledMachine::may_conflict_later`] for in-order machines.
    pub(crate) fn may_conflict(&self, addr: u64, write: bool) -> bool {
        self.writes.may_contain(addr) || write && self.reads.may_contain(addr)
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
///
/// # Label order
///
/// [`LabeledMachine::enabled_actions`] (and so
/// [`LabeledMachine::labeled_successors`]) lists the labels grouped by
/// thread in ascending thread order, each thread's run in
/// [`LabeledMachine::thread_actions`] order. With contract 2 this lets the
/// explorer relabel a state reached by one thread's step by replacing only
/// that thread's run of its parent's labels: every other run is unchanged,
/// and so is its position.
pub trait LabeledMachine: AbstractMachine {
    /// Every enabled rule firing, as `(label, resulting state)` pairs.
    ///
    /// An empty vector means no rule is enabled; if the state is not final
    /// this indicates deadlock, which the explorer reports.
    fn labeled_successors(&self, state: &Self::State) -> Vec<(Action, Self::State)>;

    /// Replaces the contents of `out` with the labels of every enabled rule
    /// firing, in the order [`LabeledMachine::labeled_successors`] yields
    /// them (see the label order above), without building any successor
    /// state. The reduced search picks its persistent set from these labels
    /// and then builds only the successors it keeps
    /// ([`LabeledMachine::successor_into`]).
    ///
    /// The default derives the labels from
    /// [`LabeledMachine::labeled_successors`] (allocating every successor);
    /// the shipped machines clear `out` once and append each thread's
    /// [`LabeledMachine::thread_actions`], running their guards only.
    fn enabled_actions(&self, state: &Self::State, out: &mut Vec<Action>) {
        out.clear();
        out.extend(self.labeled_successors(state).into_iter().map(|(action, _)| action));
    }

    /// Appends to `out` the labels of `thread`'s enabled rule firings, in
    /// the order [`LabeledMachine::enabled_actions`] lists them: that list
    /// is the concatenation of this one over the threads in ascending
    /// order. By contract 2 the run depends only on `thread`'s private
    /// state, which is what lets the explorer relabel only the thread that
    /// stepped.
    ///
    /// The default filters [`LabeledMachine::enabled_actions`] and exists
    /// for toy machines only; the shipped machines run `thread`'s rule pass
    /// alone.
    fn thread_actions(&self, state: &Self::State, thread: usize, out: &mut Vec<Action>) {
        let mut all = Vec::new();
        self.enabled_actions(state, &mut all);
        out.extend(all.into_iter().filter(|action| action.thread as usize == thread));
    }

    /// Writes the successor of `state` under the enabled `action` into
    /// `out`, overwriting whatever `out` held (through `Clone::clone_from`,
    /// so a reused `out` keeps its heap buffers).
    ///
    /// # Panics
    ///
    /// May panic when `action` is not enabled in `state`. The default
    /// builds every successor through
    /// [`LabeledMachine::labeled_successors`] and keeps the matching one;
    /// the shipped machines fire that one rule.
    fn successor_into(&self, state: &Self::State, action: &Action, out: &mut Self::State) {
        let (_, next) = self
            .labeled_successors(state)
            .into_iter()
            .find(|(candidate, _)| candidate == action)
            .expect("the action is enabled");
        *out = next;
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
    /// thread-private, or no other active thread can conflict on its address
    /// later: [`LabeledMachine::may_conflict_later`]), the explorer may fire
    /// it as a
    /// *singleton persistent set*: alone, deferring every sibling action —
    /// the strongest state-pruning step the reduction has. The default
    /// `false` disables singleton selection, which is always sound.
    fn own_thread_independent(&self, _state: &Self::State, _action: &Action) -> bool {
        false
    }

    /// May `thread` still perform, in *any* continuation from `state`, a
    /// shared-memory access to `addr` that conflicts with another thread's
    /// access there: any read or write when that access writes (`write`),
    /// a write otherwise? It over-approximates the thread's future
    /// accesses, asked one address at a time so the explorer's hot loop
    /// builds no address sets.
    ///
    /// The explorer uses it to widen its persistent sets: a thread whose
    /// every enabled action is either thread-private or touches only
    /// addresses no other active thread may conflict on later can be
    /// explored alone — no other thread will ever interfere with it. The
    /// answer must cover the thread's currently enabled accesses, any
    /// re-execution a squash can trigger, and every dynamically computed
    /// address (a static value-set bound is the usual source). The default
    /// `true` is always sound and simply disables the widening.
    fn may_conflict_later(
        &self,
        _state: &Self::State,
        _thread: usize,
        _addr: u64,
        _write: bool,
    ) -> bool {
        true
    }
}

/// The sink of the three machines' rule functions: each rule checks its
/// guard, computes its label and its inputs from the parent state, and asks
/// [`SuccBuf::push_from`] for a successor slot to write its effect into.
/// What the sink does with the firing depends on how it was built:
///
/// * [`SuccBuf::new`] collects `(label, successor)` pairs
///   ([`LabeledMachine::labeled_successors`]).
/// * [`SuccBuf::labels`] appends the labels and builds no state
///   ([`LabeledMachine::thread_actions`], and so
///   [`LabeledMachine::enabled_actions`]).
/// * [`SuccBuf::one`] builds the successor of one chosen label into a
///   single state through `Clone::clone_from`, which reuses its heap
///   buffers, and skips every other firing
///   ([`LabeledMachine::successor_into`]).
pub(crate) struct SuccBuf<'a, S: Clone> {
    sink: Sink<'a, S>,
}

enum Sink<'a, S> {
    Pairs(&'a mut Vec<(Action, S)>),
    Labels(&'a mut Vec<Action>),
    One { action: Action, out: &'a mut S, built: bool },
}

impl<'a, S: Clone> SuccBuf<'a, S> {
    pub(crate) fn new(out: &'a mut Vec<(Action, S)>) -> Self {
        SuccBuf { sink: Sink::Pairs(out) }
    }

    pub(crate) fn labels(out: &'a mut Vec<Action>) -> Self {
        SuccBuf { sink: Sink::Labels(out) }
    }

    pub(crate) fn one(action: Action, out: &'a mut S) -> Self {
        SuccBuf { sink: Sink::One { action, out, built: false } }
    }

    /// Records a firing labeled `action` and returns a successor slot
    /// initialized to a clone of `parent` for the rule to mutate, or `None`
    /// when this sink builds no state for it.
    pub(crate) fn push_from(&mut self, parent: &S, action: Action) -> Option<&mut S> {
        match &mut self.sink {
            Sink::Pairs(out) => {
                out.push((action, parent.clone()));
                out.last_mut().map(|(_, next)| next)
            }
            Sink::Labels(out) => {
                out.push(action);
                None
            }
            Sink::One { action: wanted, out, built } => {
                if action != *wanted {
                    return None;
                }
                out.clone_from(parent);
                *built = true;
                Some(&mut **out)
            }
        }
    }

    /// Ends the rule pass. Must be called exactly once, after the last rule
    /// ran.
    ///
    /// # Panics
    ///
    /// When [`SuccBuf::one`]'s action was not enabled.
    pub(crate) fn finish(self) {
        if let Sink::One { action, built, .. } = self.sink {
            assert!(built, "{action:?} is not enabled in this state");
        }
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
        let mut labels = vec![Action::local(5, 5)];
        machine.enabled_actions(&1, &mut labels);
        assert_eq!(labels, vec![Action::local(0, 0)]);
        machine.thread_actions(&1, 0, &mut labels);
        assert_eq!(labels, vec![Action::local(0, 0); 2], "thread_actions appends");
        machine.thread_actions(&1, 1, &mut labels);
        assert_eq!(labels.len(), 2, "thread 1 has no labels");
        let mut next = 7;
        machine.successor_into(&1, &Action::local(0, 0), &mut next);
        assert_eq!(next, 0);
        assert!(machine.is_final(&0));
        assert!(machine.labeled_successors(&0).is_empty());
        assert_eq!(machine.name(), "countdown");
        assert!(machine.outcome(&0).is_empty());
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
