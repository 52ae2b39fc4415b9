//! Litmus tests: small multiprocessor programs paired with a condition on the
//! final state.
//!
//! A litmus test wraps a [`Program`] with
//!
//! * an initial memory state (locations not mentioned start at zero),
//! * the set of *observed* registers and memory locations, and
//! * one *condition of interest* — the final-state [`Outcome`] whose
//!   allowed/forbidden status distinguishes memory models (usually a non-SC
//!   behaviour, e.g. `r1 = 0, r2 = 0` for Dekker).
//!
//! The [`library`] submodule contains every litmus test that appears in the
//! paper (Figures 2, 5, 13 and 14) plus a set of classical tests (MP, LB, SB,
//! IRIW, WRC, CoRW, 2+2W, …) used by the verification and benchmark crates.

pub mod library;
pub mod space;

use std::collections::BTreeMap;
use std::fmt;

use crate::program::{ProcId, Program};
use crate::reg::Reg;
use crate::value::{Loc, Value};

/// A single observed quantity in a litmus-test outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Observation {
    /// The final value of a register on a processor.
    Register(ProcId, Reg),
    /// The final value of a memory location.
    Memory(Loc),
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::Register(p, r) => write!(f, "{p}:{r}"),
            Observation::Memory(loc) => write!(f, "m[{loc}]"),
        }
    }
}

/// A complete assignment of values to the observed quantities of a litmus test.
///
/// Outcomes are ordered and hashable so they can be collected into sets and
/// compared across the axiomatic and operational checkers.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Outcome {
    values: BTreeMap<Observation, Value>,
}

impl Outcome {
    /// Creates an empty outcome.
    #[must_use]
    pub fn new() -> Self {
        Outcome::default()
    }

    /// Builder-style insertion of a register observation.
    #[must_use]
    pub fn with_reg(mut self, proc: ProcId, reg: Reg, value: impl Into<Value>) -> Self {
        self.values.insert(Observation::Register(proc, reg), value.into());
        self
    }

    /// Builder-style insertion of a memory observation.
    #[must_use]
    pub fn with_mem(mut self, loc: Loc, value: impl Into<Value>) -> Self {
        self.values.insert(Observation::Memory(loc), value.into());
        self
    }

    /// Sets the value of an observation.
    pub fn set(&mut self, observation: Observation, value: Value) {
        self.values.insert(observation, value);
    }

    /// Returns the value recorded for an observation, if any.
    #[must_use]
    pub fn get(&self, observation: &Observation) -> Option<Value> {
        self.values.get(observation).copied()
    }

    /// Iterates over the `(observation, value)` pairs in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Observation, &Value)> {
        self.values.iter()
    }

    /// Number of observed quantities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if nothing is observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns true if `self` records the same value as `other` for every
    /// observation present in `self` (i.e. `other` *matches* the partial
    /// condition `self`).
    #[must_use]
    pub fn matched_by(&self, other: &Outcome) -> bool {
        self.values.iter().all(|(obs, v)| other.get(obs) == Some(*v))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (obs, value) in &self.values {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{obs}={value}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<(Observation, Value)> for Outcome {
    fn from_iter<T: IntoIterator<Item = (Observation, Value)>>(iter: T) -> Self {
        Outcome { values: iter.into_iter().collect() }
    }
}

/// A litmus test: a program, its initial state, the observed quantities and
/// the condition of interest.
///
/// Equality is structural over every component (name, description, program,
/// initial memory, observed quantities in order, condition), which is what
/// the text frontend's round-trip guarantee `parse(print(t)) == t` relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusTest {
    name: String,
    description: String,
    program: Program,
    initial_memory: BTreeMap<u64, Value>,
    observed: Vec<Observation>,
    condition: Outcome,
}

impl LitmusTest {
    /// Starts building a litmus test around a program.
    #[must_use]
    pub fn builder(name: impl Into<String>, program: Program) -> LitmusTestBuilder {
        LitmusTestBuilder {
            name: name.into(),
            description: String::new(),
            program,
            initial_memory: BTreeMap::new(),
            observed: Vec::new(),
            condition: Outcome::new(),
        }
    }

    /// The test name (e.g. `"dekker"`, `"mp+addr"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A human-readable description, typically citing the paper figure.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying multiprocessor program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Initial memory contents; addresses not present are zero.
    #[must_use]
    pub fn initial_memory(&self) -> &BTreeMap<u64, Value> {
        &self.initial_memory
    }

    /// Initial value of the given address (zero unless set explicitly).
    #[must_use]
    pub fn initial_value(&self, addr: u64) -> Value {
        self.initial_memory.get(&addr).copied().unwrap_or(Value::ZERO)
    }

    /// The observed registers and memory locations.
    #[must_use]
    pub fn observed(&self) -> &[Observation] {
        &self.observed
    }

    /// The condition of interest (a partial outcome).
    #[must_use]
    pub fn condition(&self) -> &Outcome {
        &self.condition
    }

    /// Restricts a full outcome to the observations of this test.
    #[must_use]
    pub fn project(&self, full: &Outcome) -> Outcome {
        self.observed.iter().filter_map(|obs| full.get(obs).map(|v| (*obs, v))).collect()
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "litmus test `{}`", self.name)?;
        if !self.description.is_empty() {
            writeln!(f, "  {}", self.description)?;
        }
        write!(f, "{}", self.program)?;
        writeln!(f, "condition: {}", self.condition)
    }
}

/// Builder for [`LitmusTest`].
#[derive(Debug)]
pub struct LitmusTestBuilder {
    name: String,
    description: String,
    program: Program,
    initial_memory: BTreeMap<u64, Value>,
    observed: Vec<Observation>,
    condition: Outcome,
}

impl LitmusTestBuilder {
    /// Sets the description.
    #[must_use]
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Sets the initial value of a memory location.
    #[must_use]
    pub fn init(mut self, loc: Loc, value: impl Into<Value>) -> Self {
        self.initial_memory.insert(loc.address(), value.into());
        self
    }

    /// Adds an observation to the observed set (no-op if already observed).
    ///
    /// This is the parser-facing form of [`LitmusTestBuilder::observe_reg`] /
    /// [`LitmusTestBuilder::observe_mem`]: the text frontend's `locations`
    /// clause and condition terms both funnel through it, and observing the
    /// same quantity twice must not duplicate it.
    #[must_use]
    pub fn observe(mut self, observation: Observation) -> Self {
        if !self.observed.contains(&observation) {
            self.observed.push(observation);
        }
        self
    }

    /// Adds a register to the observed set.
    #[must_use]
    pub fn observe_reg(mut self, proc: ProcId, reg: Reg) -> Self {
        self.observed.push(Observation::Register(proc, reg));
        self
    }

    /// Adds a memory location to the observed set.
    #[must_use]
    pub fn observe_mem(mut self, loc: Loc) -> Self {
        self.observed.push(Observation::Memory(loc));
        self
    }

    /// Adds a register equality to the condition of interest (and observes the register).
    #[must_use]
    pub fn expect_reg(mut self, proc: ProcId, reg: Reg, value: impl Into<Value>) -> Self {
        let obs = Observation::Register(proc, reg);
        if !self.observed.contains(&obs) {
            self.observed.push(obs);
        }
        self.condition.set(obs, value.into());
        self
    }

    /// Adds a memory equality to the condition of interest (and observes the location).
    #[must_use]
    pub fn expect_mem(mut self, loc: Loc, value: impl Into<Value>) -> Self {
        let obs = Observation::Memory(loc);
        if !self.observed.contains(&obs) {
            self.observed.push(obs);
        }
        self.condition.set(obs, value.into());
        self
    }

    /// Adds an equality on an arbitrary observation to the condition of
    /// interest (and observes the quantity). Generic form of
    /// [`LitmusTestBuilder::expect_reg`] / [`LitmusTestBuilder::expect_mem`],
    /// used by the text frontend's condition parser.
    #[must_use]
    pub fn expect(mut self, observation: Observation, value: impl Into<Value>) -> Self {
        if !self.observed.contains(&observation) {
            self.observed.push(observation);
        }
        self.condition.set(observation, value.into());
        self
    }

    /// Finishes the litmus test.
    #[must_use]
    pub fn build(self) -> LitmusTest {
        LitmusTest {
            name: self.name,
            description: self.description,
            program: self.program,
            initial_memory: self.initial_memory,
            observed: self.observed,
            condition: self.condition,
        }
    }

    /// Finishes the litmus test after validating the observations against
    /// the program — the checked entry point used by the text frontend,
    /// where tests come from untrusted input rather than hand-written code.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IsaError::UnwrittenObservedRegister`] when an
    /// observed register belongs to a processor the program does not have,
    /// or is never in the write set of any instruction of that processor's
    /// thread (such an observation can only ever read zero, which is almost
    /// certainly a typo in the source text).
    pub fn try_build(self) -> Result<LitmusTest, crate::IsaError> {
        for observation in &self.observed {
            let Observation::Register(proc, reg) = observation else { continue };
            let written = self
                .program
                .thread(*proc)
                .is_some_and(|thread| thread.instructions().iter().any(|instr| instr.writes(*reg)));
            if !written {
                return Err(crate::IsaError::UnwrittenObservedRegister {
                    proc: proc.index(),
                    reg: reg.index(),
                });
            }
        }
        Ok(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Addr, Operand};
    use crate::program::ThreadProgram;

    fn tiny_program() -> Program {
        let a = Loc::new("a");
        let mut p1 = ThreadProgram::builder(ProcId::new(0));
        p1.store(Addr::loc(a), Operand::imm(1));
        let mut p2 = ThreadProgram::builder(ProcId::new(1));
        p2.load(Reg::new(1), Addr::loc(a));
        Program::new(vec![p1.build(), p2.build()])
    }

    #[test]
    fn outcome_builder_and_match() {
        let p2 = ProcId::new(1);
        let full = Outcome::new().with_reg(p2, Reg::new(1), 1u64).with_reg(p2, Reg::new(2), 0u64);
        let partial = Outcome::new().with_reg(p2, Reg::new(1), 1u64);
        assert!(partial.matched_by(&full));
        assert!(!full.matched_by(&partial));
        assert_eq!(full.len(), 2);
        assert!(!full.is_empty());
    }

    #[test]
    fn outcome_display_is_deterministic() {
        let p = ProcId::new(0);
        let o = Outcome::new().with_reg(p, Reg::new(2), 5u64).with_reg(p, Reg::new(1), 3u64);
        assert_eq!(o.to_string(), "P1:r1=3, P1:r2=5");
    }

    #[test]
    fn outcome_memory_observation() {
        let a = Loc::new("a");
        let o = Outcome::new().with_mem(a, 7u64);
        assert_eq!(o.get(&Observation::Memory(a)), Some(Value::new(7)));
    }

    #[test]
    fn litmus_builder_collects_everything() {
        let a = Loc::new("a");
        let test = LitmusTest::builder("demo", tiny_program())
            .description("a tiny demo test")
            .init(a, 9u64)
            .expect_reg(ProcId::new(1), Reg::new(1), 0u64)
            .observe_mem(a)
            .build();
        assert_eq!(test.name(), "demo");
        assert_eq!(test.initial_value(a.address()), Value::new(9));
        assert_eq!(test.initial_value(0xdead), Value::ZERO);
        assert_eq!(test.observed().len(), 2);
        assert_eq!(test.condition().len(), 1);
        assert!(test.to_string().contains("demo"));
    }

    #[test]
    fn expect_reg_observes_once() {
        let test = LitmusTest::builder("demo", tiny_program())
            .expect_reg(ProcId::new(1), Reg::new(1), 0u64)
            .expect_reg(ProcId::new(1), Reg::new(1), 1u64)
            .build();
        assert_eq!(test.observed().len(), 1);
        // last expectation wins
        assert_eq!(
            test.condition().get(&Observation::Register(ProcId::new(1), Reg::new(1))),
            Some(Value::new(1))
        );
    }

    #[test]
    fn observe_and_expect_generic_forms_deduplicate() {
        let p2 = ProcId::new(1);
        let obs = Observation::Register(p2, Reg::new(1));
        let test = LitmusTest::builder("demo", tiny_program())
            .observe(obs)
            .observe(obs)
            .expect(obs, 0u64)
            .build();
        assert_eq!(test.observed(), &[obs]);
        assert_eq!(test.condition().get(&obs), Some(Value::ZERO));
    }

    #[test]
    fn try_build_accepts_written_registers_and_memory() {
        let test = LitmusTest::builder("demo", tiny_program())
            .expect_reg(ProcId::new(1), Reg::new(1), 0u64)
            .observe_mem(Loc::new("a"))
            .try_build()
            .expect("valid observations");
        assert_eq!(test.observed().len(), 2);
    }

    #[test]
    fn try_build_rejects_unwritten_or_out_of_range_registers() {
        // r9 is never written by thread P2.
        let err = LitmusTest::builder("demo", tiny_program())
            .expect_reg(ProcId::new(1), Reg::new(9), 0u64)
            .try_build()
            .unwrap_err();
        assert_eq!(err, crate::IsaError::UnwrittenObservedRegister { proc: 1, reg: 9 });
        // Processor P5 does not exist.
        let err = LitmusTest::builder("demo", tiny_program())
            .expect_reg(ProcId::new(4), Reg::new(1), 0u64)
            .try_build()
            .unwrap_err();
        assert_eq!(err, crate::IsaError::UnwrittenObservedRegister { proc: 4, reg: 1 });
    }

    #[test]
    fn structural_equality_distinguishes_components() {
        let base = || {
            LitmusTest::builder("demo", tiny_program()).expect_reg(
                ProcId::new(1),
                Reg::new(1),
                0u64,
            )
        };
        assert_eq!(base().build(), base().build());
        assert_ne!(base().build(), base().description("different").build());
        assert_ne!(base().build(), base().init(Loc::new("a"), 1u64).build());
        assert_ne!(base().build(), base().observe_mem(Loc::new("a")).build());
    }

    #[test]
    fn project_restricts_to_observed() {
        let p2 = ProcId::new(1);
        let test =
            LitmusTest::builder("demo", tiny_program()).expect_reg(p2, Reg::new(1), 0u64).build();
        let full = Outcome::new().with_reg(p2, Reg::new(1), 1u64).with_reg(p2, Reg::new(9), 42u64);
        let projected = test.project(&full);
        assert_eq!(projected.len(), 1);
        assert_eq!(projected.get(&Observation::Register(p2, Reg::new(1))), Some(Value::new(1)));
    }
}
