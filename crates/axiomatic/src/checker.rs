//! The public axiomatic-checking API.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use gam_core::model::{ModelSpec, SameAddrLoadLoad};
use gam_core::{ppo, Relation, RfSource};
use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Loc, Program, Value};

use crate::enumerate::RfAssignments;
use crate::error::CheckError;
use crate::execution::{last_writer, ConcreteExecution, InstrRef, ProgramIndex};
use crate::mo::{LoadConstraint, MoProblem, Search};
use crate::propagate::{concretize_into, Propagation};

/// The answer to "does the model allow the test's condition of interest?".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Some consistent execution matches the condition.
    Allowed,
    /// No consistent execution matches the condition.
    Forbidden,
}

impl Verdict {
    /// Returns true for [`Verdict::Allowed`].
    #[must_use]
    pub fn is_allowed(self) -> bool {
        matches!(self, Verdict::Allowed)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Allowed => "allowed",
            Verdict::Forbidden => "forbidden",
        })
    }
}

/// A concrete execution demonstrating that an outcome is allowed.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The observable outcome of the execution (projected onto the test's
    /// observed registers and locations).
    pub outcome: Outcome,
    /// The read-from source of every load.
    pub rf: Vec<(InstrRef, RfSource)>,
    /// The global memory order, oldest first.
    pub memory_order: Vec<InstrRef>,
}

/// Search statistics of one checking run: deterministic work counters,
/// reported per layer by the benchmark (`gam-perfbench`) and pinned to
/// literal values by the umbrella crate's `tests/search_counters.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Read-from assignments actually enumerated (after address pruning).
    pub assignments_enumerated: u64,
    /// Enumerated assignments that survived value propagation and produced a
    /// memory-order search problem.
    pub assignments_concretized: u64,
    /// Valid memory orders visited across all assignments.
    pub orders_visited: u64,
}

/// Tunable limits of the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Maximum number of memory events the checker accepts (the search is
    /// exponential in this number).
    pub max_events: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig { max_events: 16 }
    }
}

/// An axiomatic checker for one memory model.
#[derive(Debug, Clone)]
pub struct AxiomaticChecker {
    model: ModelSpec,
    config: CheckerConfig,
    interrupt: gam_core::Interrupt,
}

/// Memory-order polling cadence: the checker's [`gam_core::Interrupt`] is
/// additionally checked once per read-from assignment, so this only bounds
/// the latency inside a single assignment's order search.
const ORDER_POLL_MASK: u64 = 0x3FF;

impl AxiomaticChecker {
    /// Creates a checker for the given model with default limits.
    #[must_use]
    pub fn new(model: ModelSpec) -> Self {
        AxiomaticChecker::with_config(model, CheckerConfig::default())
    }

    /// Creates a checker with explicit limits.
    #[must_use]
    pub fn with_config(model: ModelSpec, config: CheckerConfig) -> Self {
        AxiomaticChecker { model, config, interrupt: gam_core::Interrupt::none() }
    }

    /// Attaches a cooperative [`gam_core::Interrupt`]: the rf/mo enumeration
    /// polls it (once per read-from assignment and every 1024 memory orders)
    /// and stops with [`CheckError::Interrupted`], carrying the partial
    /// outcomes collected so far.
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: gam_core::Interrupt) -> Self {
        self.interrupt = interrupt;
        self
    }

    /// The model this checker implements.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The limits this checker runs with.
    #[must_use]
    pub fn config(&self) -> CheckerConfig {
        self.config
    }

    /// Computes the full set of outcomes (projected onto the test's observed
    /// registers and locations) that the model allows for the test.
    ///
    /// # Errors
    ///
    /// Returns an error if the program contains branches or exceeds the
    /// configured event limit.
    pub fn allowed_outcomes(&self, test: &LitmusTest) -> Result<BTreeSet<Outcome>, CheckError> {
        Ok(self.allowed_outcomes_with_stats(test)?.0)
    }

    /// Like [`AxiomaticChecker::allowed_outcomes`], additionally reporting
    /// the search statistics (assignments enumerated/pruned, orders visited).
    ///
    /// # Errors
    ///
    /// Returns an error if the program contains branches or exceeds the
    /// configured event limit.
    pub fn allowed_outcomes_with_stats(
        &self,
        test: &LitmusTest,
    ) -> Result<(BTreeSet<Outcome>, CheckStats), CheckError> {
        let mut outcomes = BTreeSet::new();
        let result = self.enumerate(test, |_, _, _, outcome| {
            outcomes.insert(outcome.clone());
            true
        });
        match result {
            Ok(stats) => Ok((outcomes, stats)),
            // An interrupted enumeration keeps what it saw: the outcomes
            // visited so far are the partial answer.
            Err(CheckError::Interrupted { test, reason, .. }) => {
                Err(CheckError::Interrupted { test, reason, partial_outcomes: outcomes })
            }
            Err(err) => Err(err),
        }
    }

    /// Decides whether the test's condition of interest is allowed.
    ///
    /// # Errors
    ///
    /// Returns an error if the program contains branches or exceeds the
    /// configured event limit.
    pub fn check(&self, test: &LitmusTest) -> Result<Verdict, CheckError> {
        Ok(if self.find_witness(test)?.is_some() { Verdict::Allowed } else { Verdict::Forbidden })
    }

    /// Searches for an execution matching the test's condition of interest and
    /// returns it as a witness, or `None` if the condition is forbidden.
    ///
    /// # Errors
    ///
    /// Returns an error if the program contains branches or exceeds the
    /// configured event limit.
    pub fn find_witness(&self, test: &LitmusTest) -> Result<Option<Witness>, CheckError> {
        let mut witness = None;
        self.enumerate(test, |index, exec, order, outcome| {
            if test.condition().matched_by(outcome) {
                witness = Some(Witness {
                    outcome: outcome.clone(),
                    rf: index
                        .loads
                        .iter()
                        .map(|&load| (load, exec.rf_source(load).expect("load has a source")))
                        .collect(),
                    memory_order: order.iter().map(|&e| index.memory_events[e]).collect(),
                });
                false
            } else {
                true
            }
        })?;
        Ok(witness)
    }

    /// Enumerates every consistent execution of the test under the model.
    /// `visit` sees each (read-from assignment, final-store vector) once: with
    /// the program index, the concrete execution, the first memory order that
    /// yields the vector (as event indices) and the projected outcome.
    /// `visit` returns `false` to stop the enumeration. Returns the search
    /// statistics.
    fn enumerate(
        &self,
        test: &LitmusTest,
        mut visit: impl FnMut(&ProgramIndex, &ConcreteExecution, &[usize], &Outcome) -> bool,
    ) -> Result<CheckStats, CheckError> {
        gam_core::fault::hit("axiomatic");
        if test.program().has_branches() {
            return Err(CheckError::BranchesUnsupported { test: test.name().to_string() });
        }
        let index = ProgramIndex::new(test.program());
        let events = index.memory_events.len();
        if events > self.config.max_events {
            return Err(CheckError::TooManyEvents {
                test: test.name().to_string(),
                events,
                limit: self.config.max_events,
            });
        }

        // Memory observations make the outcome depend on the memory order
        // (through each observed location's mo-last store), so every valid
        // order is visited; otherwise one order per read-from assignment
        // suffices. Either way `projection` builds each outcome once per
        // (assignment, final-store vector), not once per order.
        let mut projection = Projection::new(test, &index);
        let needs_all_orders = !projection.locations.is_empty();

        let mut rf_phase = gam_obs::phase("rf_enum");
        rf_phase.arg("test", test.name());
        let search_start = std::time::Instant::now();
        let assignments = RfAssignments::address_pruned(test, &index);
        let mut stats = CheckStats::default();
        // Buffers recycled across every assignment: the propagation state,
        // the concrete execution, the memory-order problem (one constraint
        // per load) and the search state. `ppo` keeps each thread's memory
        // `<ppo` per distinct resolution for the whole check.
        let mut propagation = Propagation::default();
        let mut exec = ConcreteExecution::blank(test.program());
        let mut ppo = PpoMemo::new(&self.model, test.program());
        let blank_load = LoadConstraint { load: 0, addr: 0, source: None, po_older_stores: vec![] };
        let mut problem = MoProblem::new(
            events,
            Relation::new(events),
            vec![None; events],
            vec![blank_load; index.loads.len()],
        );
        let mut search = Search::default();
        let mut stop = false;
        let interrupt_armed = self.interrupt.is_armed();
        let mut interrupted: Option<gam_core::StopReason> = None;

        for assignment in assignments {
            if interrupt_armed {
                if let Some(reason) = self.interrupt.triggered() {
                    interrupted = Some(reason);
                    break;
                }
            }
            stats.assignments_enumerated += 1;
            if concretize_into(test, &index, &assignment, &mut propagation, &mut exec) {
                stats.assignments_concretized += 1;
                self.build_problem(test.program(), &index, &exec, &mut ppo, &mut problem);
                projection.start(&index, &exec);
                let mut on_order = |order: &[usize]| {
                    stats.orders_visited += 1;
                    if stats.orders_visited & ORDER_POLL_MASK == 0 {
                        if interrupt_armed {
                            if let Some(reason) = self.interrupt.triggered() {
                                interrupted = Some(reason);
                                stop = true;
                                return false;
                            }
                        }
                        if gam_obs::progress::armed() {
                            let us = u64::try_from(search_start.elapsed().as_micros())
                                .unwrap_or(u64::MAX)
                                .max(1);
                            gam_obs::progress!(
                                "axiomatic",
                                "{}: {} orders, {} assignments, {} orders/sec",
                                test.name(),
                                stats.orders_visited,
                                stats.assignments_enumerated,
                                stats.orders_visited.saturating_mul(1_000_000) / us
                            );
                        }
                    }
                    if let Some(outcome) = projection.project(&index, &exec, order) {
                        if !visit(&index, &exec, order, &outcome) {
                            stop = true;
                            return false;
                        }
                    }
                    needs_all_orders
                };
                {
                    let _mo_phase = gam_obs::phase("mo_search");
                    problem.for_each_valid_order_in(&mut search, &mut on_order);
                }
            }
            if stop {
                break;
            }
        }
        if let Some(reason) = interrupted {
            // Callers that accumulate outcomes (e.g. `allowed_outcomes`)
            // re-attach their partial set; the enumeration core itself has
            // already handed every visited outcome to `visit`.
            return Err(CheckError::Interrupted {
                test: test.name().to_string(),
                reason,
                partial_outcomes: BTreeSet::new(),
            });
        }
        Ok(stats)
    }

    /// Refills `problem`, recycled by the caller across assignments, with
    /// the memory-order search problem of one concrete execution. It has one
    /// event per memory instruction and one constraint per load.
    fn build_problem(
        &self,
        program: &Program,
        index: &ProgramIndex,
        exec: &ConcreteExecution,
        ppo: &mut PpoMemo<'_>,
        problem: &mut MoProblem,
    ) {
        let MoProblem { precede, store_addr, loads, .. } = problem;
        let event_of = |r: InstrRef| index.event_index(r).expect("memory event");

        precede.clear();
        store_addr.fill(None);
        for &store_ref in &index.stores {
            store_addr[event_of(store_ref)] = exec.address(store_ref);
        }

        // Axiom InstOrder: ppo edges, restricted to memory instructions.
        for proc in 0..program.num_threads() {
            for &(from, to) in ppo.memory_ppo(program, index, exec, proc) {
                precede.insert(from, to);
            }
        }

        // Read-from pruning edges and LoadValue constraints.
        let bypass = self.model.load_value_local_bypass();
        for (constraint, &load_ref) in loads.iter_mut().zip(&index.loads) {
            let load_event = event_of(load_ref);
            let addr = exec.address(load_ref).expect("resolved load address");
            constraint.po_older_stores.clear();
            if bypass {
                constraint.po_older_stores.extend(
                    index
                        .stores
                        .iter()
                        .filter(|s| {
                            s.proc == load_ref.proc
                                && s.idx < load_ref.idx
                                && exec.address(**s) == Some(addr)
                        })
                        .map(|s| event_of(*s)),
                );
            }
            let source = match exec.rf_source(load_ref).expect("load has a read-from source") {
                RfSource::Init(_) => {
                    // Reading the initial value requires every same-address
                    // store to be memory-order-younger than the load.
                    for &store_ref in &index.stores {
                        if exec.address(store_ref) == Some(addr) {
                            precede.insert(load_event, event_of(store_ref));
                        }
                    }
                    None
                }
                RfSource::Store(sid) => {
                    let store_ref = index.stores[sid as usize];
                    let locally_forwardable =
                        bypass && store_ref.proc == load_ref.proc && store_ref.idx < load_ref.idx;
                    if !locally_forwardable {
                        precede.insert(event_of(store_ref), load_event);
                    }
                    Some(event_of(store_ref))
                }
            };
            constraint.load = load_event;
            constraint.addr = addr;
            constraint.source = source;
        }
    }
}

/// Each thread's memory `<ppo` edges, built once per distinct resolution of
/// the thread within one check.
///
/// `<ppo` (Definition 6) depends on an execution only through the thread's
/// resolved addresses and, under SALdLdARM, the read-from sources of its
/// loads. So the memo key is the thread's memory addresses, plus each
/// load's source when the model's same-address load policy is
/// [`SameAddrLoadLoad::UnlessSameStore`]. Many read-from assignments of a
/// check share a thread's key.
struct PpoMemo<'m> {
    model: &'m ModelSpec,
    /// Whether a load's read-from source is part of the key.
    keyed_by_rf: bool,
    /// Per thread: key → position in `edges`.
    seen: Vec<HashMap<Vec<u64>, usize>>,
    /// Per memoised resolution: the memory `<ppo` edges as (older, younger)
    /// event pairs.
    edges: Vec<Vec<(usize, usize)>>,
    /// The key being looked up.
    key: Vec<u64>,
}

impl<'m> PpoMemo<'m> {
    fn new(model: &'m ModelSpec, program: &Program) -> Self {
        PpoMemo {
            model,
            keyed_by_rf: model.same_addr_load_load() == SameAddrLoadLoad::UnlessSameStore,
            seen: vec![HashMap::new(); program.num_threads()],
            edges: Vec::new(),
            key: Vec::new(),
        }
    }

    /// The memory `<ppo` edges of thread `proc` in `exec`, as event pairs.
    fn memory_ppo(
        &mut self,
        program: &Program,
        index: &ProgramIndex,
        exec: &ConcreteExecution,
        proc: usize,
    ) -> &[(usize, usize)] {
        self.key.clear();
        for (address, rf) in exec.addresses[proc].iter().zip(&exec.rf[proc]) {
            let Some(address) = *address else { continue };
            self.key.push(address);
            if self.keyed_by_rf {
                match rf {
                    Some(RfSource::Store(sid)) => self.key.push(u64::from(*sid)),
                    Some(RfSource::Init(_)) => self.key.push(u64::MAX),
                    None => {}
                }
            }
        }
        let slot = match self.seen[proc].get(self.key.as_slice()) {
            Some(&slot) => slot,
            None => {
                let resolved = exec.resolved_thread(program, proc);
                let thread_ppo = gam_core::preserved_program_order(&resolved, self.model);
                let event =
                    |idx| index.event_index(InstrRef::new(proc, idx)).expect("memory event");
                let edges = ppo::memory_ppo(&resolved, &thread_ppo)
                    .iter_pairs()
                    .map(|(i, j)| (event(i), event(j)))
                    .collect();
                self.edges.push(edges);
                self.seen[proc].insert(self.key.clone(), self.edges.len() - 1);
                self.edges.len() - 1
            }
        };
        &self.edges[slot]
    }
}

/// Projects consistent executions onto a test's observed quantities.
///
/// A read-from assignment fixes every register, and LoadValue makes a
/// location's final value the datum of its memory-order-last store. So within
/// one assignment an order's outcome depends only on which store is mo-last at
/// each observed location: its *final-store vector*. The projection builds the
/// register part once per assignment and an outcome once per new vector.
struct Projection {
    /// The distinct observed memory locations with their initial values; a
    /// location's position here is its slot in a final-store vector.
    locations: Vec<(Loc, Value)>,
    /// The observed registers, each with the instruction that last writes
    /// it (`None`: never written, so zero).
    register_writers: Vec<(Observation, Option<InstrRef>)>,
    /// The register part of the current execution's outcome. Every
    /// execution sets the same observations, so it is overwritten in place.
    registers: Outcome,
    /// Per memory event: the slot of the observed location it stores to.
    slot_of_event: Vec<Option<usize>>,
    /// The final-store vector of the order being projected: per slot, the
    /// event of the mo-last store, or `None` if no store writes the location.
    last_store: Vec<Option<usize>>,
    /// The final-store vectors the current execution has already projected.
    seen: HashSet<Vec<Option<usize>>>,
}

impl Projection {
    fn new(test: &LitmusTest, index: &ProgramIndex) -> Self {
        let mut locations = Vec::new();
        let mut register_writers = Vec::new();
        for &observation in test.observed() {
            match observation {
                Observation::Memory(loc) => {
                    if !locations.iter().any(|&(seen, _)| seen == loc) {
                        locations.push((loc, test.initial_value(loc.address())));
                    }
                }
                Observation::Register(proc, reg) => {
                    let proc = proc.index();
                    let writer = last_writer(test.program(), proc, reg);
                    register_writers
                        .push((observation, writer.map(|idx| InstrRef::new(proc, idx))));
                }
            }
        }
        Projection {
            last_store: vec![None; locations.len()],
            locations,
            register_writers,
            registers: Outcome::new(),
            slot_of_event: vec![None; index.memory_events.len()],
            seen: HashSet::new(),
        }
    }

    /// Prepares the projection of one concrete execution's orders.
    fn start(&mut self, index: &ProgramIndex, exec: &ConcreteExecution) {
        self.seen.clear();
        for &(observation, writer) in &self.register_writers {
            self.registers.set(observation, writer.map_or(Value::ZERO, |r| exec.value(r)));
        }
        self.slot_of_event.fill(None);
        for &store_ref in &index.stores {
            let addr = exec.address(store_ref);
            self.slot_of_event[index.event_index(store_ref).expect("store is an event")] =
                self.locations.iter().position(|(loc, _)| Some(loc.address()) == addr);
        }
    }

    /// The outcome of one valid order of the current execution, or `None`
    /// when an earlier order of the same execution had the same final-store
    /// vector (and so the same outcome).
    fn project(
        &mut self,
        index: &ProgramIndex,
        exec: &ConcreteExecution,
        order: &[usize],
    ) -> Option<Outcome> {
        self.last_store.fill(None);
        for &event in order {
            if let Some(slot) = self.slot_of_event[event] {
                self.last_store[slot] = Some(event);
            }
        }
        if self.seen.contains(&self.last_store) {
            return None;
        }
        self.seen.insert(self.last_store.clone());
        let mut outcome = self.registers.clone();
        for (&(loc, initial), last) in self.locations.iter().zip(&self.last_store) {
            let value = last.map_or(initial, |event| exec.value(index.memory_events[event]));
            outcome.set(Observation::Memory(loc), value);
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::{model, ModelKind};
    use gam_isa::litmus::library;
    use gam_isa::{Addr, Instruction, Operand, ProcId, Program, Reg, ThreadProgram};

    fn verdict(model: ModelSpec, test: &LitmusTest) -> Verdict {
        AxiomaticChecker::new(model).check(test).expect("checkable")
    }

    #[test]
    fn pre_cancelled_check_reports_interruption() {
        let token = gam_core::CancelToken::new();
        token.cancel();
        let checker = AxiomaticChecker::new(model::gam())
            .with_interrupt(gam_core::Interrupt::none().with_cancel(token));
        match checker.check(&library::dekker()) {
            Err(CheckError::Interrupted { reason, .. }) => {
                assert_eq!(reason, gam_core::StopReason::Cancelled);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn expired_wall_budget_interrupts_outcome_enumeration() {
        let checker = AxiomaticChecker::new(model::gam()).with_interrupt(
            gam_core::Interrupt::none().with_wall_budget(std::time::Duration::ZERO),
        );
        match checker.allowed_outcomes(&library::iriw()) {
            Err(CheckError::Interrupted { reason, partial_outcomes, .. }) => {
                assert!(matches!(reason, gam_core::StopReason::WallBudget { .. }));
                // The deadline was already expired at the first poll, so
                // nothing was enumerated yet.
                assert!(partial_outcomes.is_empty());
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn unarmed_interrupt_leaves_outcomes_identical() {
        let test = library::mp();
        let baseline = AxiomaticChecker::new(model::gam()).allowed_outcomes(&test).unwrap();
        let armed = AxiomaticChecker::new(model::gam())
            .with_interrupt(
                gam_core::Interrupt::none().with_wall_budget(std::time::Duration::from_secs(600)),
            )
            .allowed_outcomes(&test)
            .unwrap();
        assert_eq!(baseline, armed);
    }

    #[test]
    fn dekker_verdicts() {
        let test = library::dekker();
        assert_eq!(verdict(model::sc(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::tso(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::gam(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::gam0(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::gam_arm(), &test), Verdict::Allowed);
    }

    #[test]
    fn oota_forbidden_by_every_model() {
        let test = library::oota();
        for m in model::all() {
            assert_eq!(verdict(m.clone(), &test), Verdict::Forbidden, "{}", m.name());
        }
    }

    #[test]
    fn corr_distinguishes_gam_from_gam0() {
        let test = library::corr();
        assert_eq!(verdict(model::gam(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::gam_arm(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::gam0(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::sc(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::tso(), &test), Verdict::Forbidden);
    }

    #[test]
    fn mp_addr_dependency_is_respected_by_weak_models() {
        let test = library::mp_addr();
        for m in model::all() {
            assert_eq!(verdict(m.clone(), &test), Verdict::Forbidden, "{}", m.name());
        }
    }

    #[test]
    fn mp_without_fences_is_weak() {
        let test = library::mp();
        assert_eq!(verdict(model::sc(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::tso(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::gam(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::gam0(), &test), Verdict::Allowed);
    }

    #[test]
    fn rsw_distinguishes_arm_from_gam() {
        let test = library::rsw();
        assert_eq!(verdict(model::gam_arm(), &test), Verdict::Allowed);
        assert_eq!(verdict(model::gam(), &test), Verdict::Forbidden);
    }

    #[test]
    fn rnsw_forbidden_by_both_arm_and_gam() {
        let test = library::rnsw();
        assert_eq!(verdict(model::gam_arm(), &test), Verdict::Forbidden);
        assert_eq!(verdict(model::gam(), &test), Verdict::Forbidden);
    }

    #[test]
    fn allowed_outcomes_of_corr_under_gam() {
        let test = library::corr();
        let outcomes = AxiomaticChecker::new(model::gam()).allowed_outcomes(&test).unwrap();
        let p2 = ProcId::new(1);
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let make = |a: u64, b: u64| Outcome::new().with_reg(p2, r1, a).with_reg(p2, r2, b);
        assert!(outcomes.contains(&make(0, 0)));
        assert!(outcomes.contains(&make(0, 1)));
        assert!(outcomes.contains(&make(1, 1)));
        assert!(!outcomes.contains(&make(1, 0)), "per-location SC forbids the stale re-read");
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn allowed_outcomes_of_corr_under_gam0_include_stale_reread() {
        let test = library::corr();
        let outcomes = AxiomaticChecker::new(model::gam0()).allowed_outcomes(&test).unwrap();
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn witness_contains_rf_and_memory_order() {
        let test = library::dekker();
        let witness = AxiomaticChecker::new(model::gam())
            .find_witness(&test)
            .unwrap()
            .expect("dekker non-SC outcome is allowed under GAM");
        assert_eq!(witness.rf.len(), 2);
        assert_eq!(witness.memory_order.len(), 4);
        assert!(test.condition().matched_by(&witness.outcome));
    }

    #[test]
    fn witness_absent_when_forbidden() {
        let test = library::corr();
        assert!(AxiomaticChecker::new(model::gam()).find_witness(&test).unwrap().is_none());
    }

    #[test]
    fn coww_final_memory_is_the_younger_store() {
        let test = library::coww();
        let outcomes = AxiomaticChecker::new(model::gam()).allowed_outcomes(&test).unwrap();
        let a = Loc::new("a");
        assert_eq!(outcomes.len(), 1);
        let only = outcomes.iter().next().unwrap();
        assert_eq!(only.get(&Observation::Memory(a)), Some(Value::new(2)));
        assert_eq!(verdict(model::gam(), &test), Verdict::Forbidden);
    }

    /// 2+2W observed through both locations: no loads, so one read-from
    /// assignment, whose orders end in every one of the four final-store
    /// vectors once store-store order is relaxed.
    #[test]
    fn one_assignment_yields_every_final_store_vector() {
        let test = library::two_plus_two_w();
        let a = Loc::new("a");
        let b = Loc::new("b");
        let checker = AxiomaticChecker::new(model::gam());
        let (outcomes, stats) = checker.allowed_outcomes_with_stats(&test).unwrap();
        assert_eq!(stats.assignments_concretized, 1);
        let expected: BTreeSet<Outcome> = [(1, 1), (1, 2), (2, 1), (2, 2)]
            .into_iter()
            .map(|(x, y)| Outcome::new().with_mem(a, x).with_mem(b, y))
            .collect();
        assert_eq!(outcomes, expected);
        assert!(stats.orders_visited > 4, "several orders share each final-store vector");
        // SC keeps each thread's stores in order, which rules out a=2,b=2.
        let sc = AxiomaticChecker::new(model::sc()).allowed_outcomes(&test).unwrap();
        assert_eq!(sc.len(), 3);
        assert!(!sc.contains(&Outcome::new().with_mem(a, 2).with_mem(b, 2)));
    }

    /// An observed location that no store writes reports its initial value,
    /// also when whether a store writes it depends on the read-from
    /// assignment.
    #[test]
    fn an_unwritten_observed_location_reports_its_initial_value() {
        let (a, b, c, x) = (Loc::new("a"), Loc::new("b"), Loc::new("c"), Loc::new("x"));
        let mut p0 = ThreadProgram::builder(ProcId::new(0));
        p0.load(Reg::new(1), Addr::loc(x)).store(Addr::reg(Reg::new(1)), Operand::imm(1));
        let mut p1 = ThreadProgram::builder(ProcId::new(1));
        p1.store(Addr::loc(x), Operand::loc(b));
        let test = LitmusTest::builder("unwritten", Program::new(vec![p0.build(), p1.build()]))
            .init(x, a.value())
            .init(c, 5u64)
            .observe_mem(a)
            .observe_mem(b)
            .observe_mem(c)
            .build();
        let outcome =
            |va: u64, vb: u64| Outcome::new().with_mem(a, va).with_mem(b, vb).with_mem(c, 5);
        let expected: BTreeSet<Outcome> = [outcome(1, 0), outcome(0, 1)].into_iter().collect();
        for m in model::all() {
            let outcomes = AxiomaticChecker::new(m.clone()).allowed_outcomes(&test).unwrap();
            assert_eq!(outcomes, expected, "{}", m.name());
        }
    }

    /// A witness's memory order puts last, at every observed location, the
    /// store whose datum the witness reports (or no store, for the initial
    /// value).
    #[test]
    fn witness_memory_order_ends_in_the_reported_final_stores() {
        let mut checked = 0;
        for test in library::all_tests() {
            let locations: Vec<Loc> = test
                .observed()
                .iter()
                .filter_map(|obs| match obs {
                    Observation::Memory(loc) => Some(*loc),
                    Observation::Register(..) => None,
                })
                .collect();
            if locations.is_empty() {
                continue;
            }
            let threads = test.program().threads();
            for m in model::all() {
                let Some(witness) = AxiomaticChecker::new(m.clone()).find_witness(&test).unwrap()
                else {
                    continue;
                };
                for &loc in &locations {
                    let last_datum = witness.memory_order.iter().rev().find_map(|event| {
                        match threads[event.proc].instructions()[event.idx] {
                            Instruction::Store { addr, data: Operand::Imm(datum) }
                                if addr == Addr::loc(loc) =>
                            {
                                Some(datum)
                            }
                            Instruction::Store { addr, .. } => {
                                assert!(
                                    addr.source_reg().is_none(),
                                    "{}: static stores only",
                                    test.name()
                                );
                                None
                            }
                            _ => None,
                        }
                    });
                    let expected = last_datum.unwrap_or_else(|| test.initial_value(loc.address()));
                    assert_eq!(
                        witness.outcome.get(&Observation::Memory(loc)),
                        Some(expected),
                        "{} under {}: m[{loc}]",
                        test.name(),
                        m.name()
                    );
                }
                checked += 1;
            }
        }
        assert!(checked >= 10, "only {checked} memory-observing witnesses checked");
    }

    /// Checks the memoised memory `<ppo` of every thread of every
    /// concretized assignment of `test` under `spec` against a fresh
    /// `preserved_program_order` → `memory_ppo`. Returns how many lookups
    /// it made and how many resolutions the memo built.
    fn check_ppo_memo(test: &LitmusTest, spec: &ModelSpec) -> (usize, usize) {
        let program = test.program();
        let index = ProgramIndex::new(program);
        let mut memo = PpoMemo::new(spec, program);
        let mut lookups = 0;
        for assignment in RfAssignments::address_pruned(test, &index) {
            let Some(exec) = crate::propagate::concretize(test, &index, &assignment) else {
                continue;
            };
            for proc in 0..program.num_threads() {
                let event =
                    |idx| index.event_index(InstrRef::new(proc, idx)).expect("memory event");
                let resolved = exec.resolved_thread(program, proc);
                let thread_ppo = gam_core::preserved_program_order(&resolved, spec);
                let fresh: Vec<(usize, usize)> = ppo::memory_ppo(&resolved, &thread_ppo)
                    .iter_pairs()
                    .map(|(i, j)| (event(i), event(j)))
                    .collect();
                assert_eq!(
                    memo.memory_ppo(program, &index, &exec, proc),
                    fresh.as_slice(),
                    "{} under {}: thread P{}, assignment {assignment:?}",
                    test.name(),
                    spec.name(),
                    proc + 1
                );
                lookups += 1;
            }
        }
        (lookups, memo.edges.len())
    }

    /// The `<ppo` memo returns, for every concretized assignment, exactly
    /// the memory `<ppo` a fresh computation gives: on every library test
    /// under all five models, and on the stress programs with at most eight
    /// memory events under SC, TSO, GAM and GAM0.
    #[test]
    fn memoised_ppo_matches_a_fresh_computation() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus-stress");
        let stress: Vec<LitmusTest> = gam_frontend::Corpus::load(corpus)
            .expect("the stress corpus loads")
            .tests()
            .into_iter()
            .filter(|test| test.program().memory_instruction_count() <= 8)
            .collect();
        assert!(stress.len() > 100, "only {} small stress programs", stress.len());
        let weak_and_strong: Vec<ModelSpec> =
            [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0]
                .map(model::by_kind)
                .into();
        let (mut lookups, mut built) = (0, 0);
        for (tests, models) in [(library::all_tests(), model::all()), (stress, weak_and_strong)] {
            for spec in &models {
                for test in &tests {
                    let (test_lookups, test_built) = check_ppo_memo(test, spec);
                    lookups += test_lookups;
                    built += test_built;
                }
            }
        }
        assert!(built * 2 < lookups, "the memo built {built} resolutions for {lookups} lookups");
    }

    #[test]
    fn store_forwarding_forbidden_everywhere() {
        let test = library::store_forwarding();
        for m in model::all() {
            assert_eq!(verdict(m.clone(), &test), Verdict::Forbidden, "{}", m.name());
        }
    }

    #[test]
    fn event_limit_is_enforced() {
        let test = library::dekker();
        let checker = AxiomaticChecker::with_config(model::gam(), CheckerConfig { max_events: 2 });
        assert!(matches!(checker.check(&test), Err(CheckError::TooManyEvents { .. })));
    }

    #[test]
    fn verdict_display_and_helpers() {
        assert_eq!(Verdict::Allowed.to_string(), "allowed");
        assert_eq!(Verdict::Forbidden.to_string(), "forbidden");
        assert!(Verdict::Allowed.is_allowed());
        assert!(!Verdict::Forbidden.is_allowed());
    }
}
