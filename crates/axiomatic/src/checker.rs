//! The public axiomatic-checking API.

use std::collections::BTreeSet;
use std::fmt;

use gam_core::{model::ModelSpec, ppo, Relation, RfSource};
use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::Value;

use crate::enumerate::RfAssignments;
use crate::error::CheckError;
use crate::execution::{ConcreteExecution, InstrRef, ProgramIndex};
use crate::mo::{LoadConstraint, MoProblem};
use crate::propagate::concretize;

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
        let result = self.enumerate(test, |_, _, outcome| {
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
        let index = ProgramIndex::new(test.program());
        let mut witness = None;
        self.enumerate(test, |exec, order, outcome| {
            if test.condition().matched_by(outcome) {
                witness = Some(Witness {
                    outcome: outcome.clone(),
                    rf: exec.rf.iter().map(|(&r, &s)| (r, s)).collect(),
                    memory_order: order.iter().map(|&e| index.memory_events[e]).collect(),
                });
                false
            } else {
                true
            }
        })?;
        Ok(witness)
    }

    /// Enumerates every consistent execution of the test under the model and
    /// invokes `visit` with the concrete execution, the memory order (as
    /// event indices) and the projected outcome. `visit` returns `false` to
    /// stop the enumeration. Returns the search statistics.
    fn enumerate(
        &self,
        test: &LitmusTest,
        mut visit: impl FnMut(&ConcreteExecution, &[usize], &Outcome) -> bool,
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

        // Memory observations make the outcome depend on the memory order, so
        // every valid order must be visited; otherwise one order per read-from
        // assignment suffices.
        let needs_all_orders =
            test.observed().iter().any(|obs| matches!(obs, Observation::Memory(_)));

        let mut rf_phase = gam_obs::phase("rf_enum");
        rf_phase.arg("test", test.name());
        let search_start = std::time::Instant::now();
        let assignments = RfAssignments::address_pruned(test, &index);
        let mut stats = CheckStats::default();
        // One edge-relation allocation recycled across every assignment.
        let mut scratch = Relation::new(events);
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
            if let Some(exec) = concretize(test, &index, &assignment) {
                stats.assignments_concretized += 1;
                scratch.clear();
                let problem = self.build_problem(test, &index, &exec, scratch);
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
                    let outcome = self.project_outcome(test, &index, &exec, order);
                    if !visit(&exec, order, &outcome) {
                        stop = true;
                        return false;
                    }
                    needs_all_orders
                };
                {
                    let _mo_phase = gam_obs::phase("mo_search");
                    problem.for_each_valid_order(&mut on_order);
                }
                scratch = problem.into_precede();
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

    /// Builds the memory-order search problem for one concrete execution.
    /// `precede` is a cleared scratch relation of the right size, recycled by
    /// the caller across assignments.
    fn build_problem(
        &self,
        test: &LitmusTest,
        index: &ProgramIndex,
        exec: &ConcreteExecution,
        mut precede: Relation,
    ) -> MoProblem {
        let program = test.program();
        let events = &index.memory_events;
        let n = events.len();
        let event_of = |r: InstrRef| index.event_index(r).expect("memory event");

        debug_assert_eq!(precede.len(), n, "scratch relation sized to the event count");
        debug_assert_eq!(precede.edge_count(), 0, "scratch relation starts cleared");

        let mut store_addr = vec![None; n];
        for &store_ref in &index.stores {
            store_addr[event_of(store_ref)] = exec.address(store_ref);
        }

        // Axiom InstOrder: ppo edges, restricted to memory instructions.
        for proc in 0..program.num_threads() {
            let resolved = exec.resolved_thread(program, proc);
            let thread_ppo = gam_core::preserved_program_order(&resolved, &self.model);
            let memory_only = ppo::memory_ppo(&resolved, &thread_ppo);
            for (i, j) in memory_only.iter_pairs() {
                precede.insert(event_of(InstrRef::new(proc, i)), event_of(InstrRef::new(proc, j)));
            }
        }

        // Read-from pruning edges and LoadValue constraints.
        let bypass = self.model.load_value_local_bypass();
        let mut loads = Vec::with_capacity(index.loads.len());
        for &load_ref in &index.loads {
            let load_event = event_of(load_ref);
            let addr = exec.address(load_ref).expect("resolved load address");
            let po_older_stores: Vec<usize> = if bypass {
                index
                    .stores
                    .iter()
                    .filter(|s| {
                        s.proc == load_ref.proc
                            && s.idx < load_ref.idx
                            && exec.address(**s) == Some(addr)
                    })
                    .map(|s| event_of(*s))
                    .collect()
            } else {
                Vec::new()
            };
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
            loads.push(LoadConstraint { load: load_event, addr, source, po_older_stores });
        }

        MoProblem::new(n, precede, store_addr, loads)
    }

    /// Projects the observable outcome of one consistent execution.
    fn project_outcome(
        &self,
        test: &LitmusTest,
        index: &ProgramIndex,
        exec: &ConcreteExecution,
        order: &[usize],
    ) -> Outcome {
        let mut outcome = Outcome::new();
        for observation in test.observed() {
            let value = match observation {
                Observation::Register(proc, reg) => {
                    exec.final_register_value(test.program(), proc.index(), *reg)
                }
                Observation::Memory(loc) => {
                    final_memory_value(test, index, exec, order, loc.address())
                }
            };
            outcome.set(*observation, value);
        }
        outcome
    }
}

/// The final value of a memory location: the datum of the memory-order-last
/// store to it, or the initial value if no store touches it.
fn final_memory_value(
    test: &LitmusTest,
    index: &ProgramIndex,
    exec: &ConcreteExecution,
    order: &[usize],
    addr: u64,
) -> Value {
    let mut position = vec![0usize; index.memory_events.len()];
    for (rank, &event) in order.iter().enumerate() {
        position[event] = rank;
    }
    index
        .stores
        .iter()
        .filter(|s| exec.address(**s) == Some(addr))
        .max_by_key(|s| position[index.event_index(**s).expect("store is an event")])
        .map(|s| exec.value(*s))
        .unwrap_or_else(|| test.initial_value(addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::model;
    use gam_isa::litmus::library;
    use gam_isa::{Loc, ProcId, Reg};

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
