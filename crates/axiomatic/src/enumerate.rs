//! Read-from assignment enumeration utilities.
//!
//! The checker enumerates, for every load, a read-from candidate: the initial
//! memory value or one of the program's stores. This module provides the
//! enumeration as a reusable iterator so that tests, examples and the
//! verification crate can inspect the raw assignment space.
//!
//! The checker enumerates one space, [`RfAssignments::address_pruned`]. It
//! first runs a static value-set dataflow pass over the program
//! ([`StaticAddrs`]): every register is mapped to the set of values it can
//! possibly hold across *all* read-from choices, which resolves memory addresses (exactly or to a small candidate
//! set) before any enumeration happens. A load then only pairs with `Init`
//! and with stores whose possible addresses intersect the load's — every
//! skipped pair is one that [`crate::propagate::concretize`] or the
//! memory-order search would have rejected anyway, so the pruned space yields
//! exactly the same consistent executions while being orders of magnitude
//! smaller on real litmus tests. The unit tests below check the pruning
//! against the naive full space of `(stores + 1) ^ loads` assignments; the
//! checker as a whole is checked against the oracle (`crate::oracle`), which
//! enumerates no read-from assignments at all and shares only `gam_core`'s
//! `<ppo` with the checker.

use gam_isa::litmus::LitmusTest;

use crate::execution::{InstrRef, ProgramIndex, RfCandidate, Source, Transfer};

/// An iterator over read-from assignments of a program.
///
/// Each item assigns one [`RfCandidate`] to each load of the indexed program,
/// in the order of [`ProgramIndex::loads`].
#[derive(Debug, Clone)]
pub struct RfAssignments {
    /// Per-load candidate lists; the mixed-radix counter walks these.
    candidates: Vec<Vec<RfCandidate>>,
    /// Size of the unpruned space: `(stores + 1) ^ loads`, saturated.
    naive_total: u128,
    counter: Option<Vec<usize>>,
}

impl RfAssignments {
    /// Creates the naive assignment enumeration for an indexed program: every
    /// load pairs with `Init` and with every store, regardless of addresses.
    /// The unit tests measure the pruning against it.
    #[cfg(test)]
    #[must_use]
    pub fn new(index: &ProgramIndex) -> Self {
        let all: Vec<RfCandidate> = std::iter::once(RfCandidate::Init)
            .chain((0..index.stores.len()).map(RfCandidate::Store))
            .collect();
        Self::from_candidates(index, vec![all; index.loads.len()])
    }

    /// Creates the address-pruned assignment enumeration. Two sound,
    /// model-independent rules shrink each load's candidate list:
    ///
    /// 1. *Address pruning* — a store is skipped when the value-set analysis
    ///    proves its address can never equal the load's (the sets of possible
    ///    addresses are disjoint); value propagation would reject the pairing
    ///    on every enumeration path.
    /// 2. *Local causality* — a store that is program-order-*younger* than
    ///    the load in the same thread is skipped: constraint SAMemSt orders
    ///    any memory access before a same-address younger store in every
    ///    model, so such a pairing either fails address consistency or forms
    ///    a `ppo`/`rf` cycle the memory-order search can never satisfy.
    #[must_use]
    pub fn address_pruned(test: &LitmusTest, index: &ProgramIndex) -> Self {
        let addrs = StaticAddrs::analyze_indexed(test, index);
        let candidates = index
            .loads
            .iter()
            .map(|&load_ref| {
                std::iter::once(RfCandidate::Init)
                    .chain(index.stores.iter().enumerate().filter_map(|(sid, &store_ref)| {
                        if store_ref.proc == load_ref.proc && store_ref.idx > load_ref.idx {
                            return None;
                        }
                        if addrs.may_alias(load_ref, store_ref) {
                            Some(RfCandidate::Store(sid))
                        } else {
                            None
                        }
                    }))
                    .collect()
            })
            .collect();
        Self::from_candidates(index, candidates)
    }

    fn from_candidates(index: &ProgramIndex, candidates: Vec<Vec<RfCandidate>>) -> Self {
        let options = index.stores.len() as u128 + 1;
        let naive_total = options
            .checked_pow(u32::try_from(index.loads.len()).unwrap_or(u32::MAX))
            .unwrap_or(u128::MAX);
        let counter = Some(vec![0; candidates.len()]);
        RfAssignments { candidates, naive_total, counter }
    }

    /// Total number of assignments this enumeration will produce. Saturates
    /// at `u128::MAX` instead of silently overflowing on large programs.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.candidates
            .iter()
            .try_fold(1u128, |acc, c| acc.checked_mul(c.len() as u128))
            .unwrap_or(u128::MAX)
    }

    /// Size of the unpruned assignment space `(stores + 1) ^ loads`,
    /// saturated at `u128::MAX`. The ratio of this to
    /// [`RfAssignments::total`] is the address pruning factor.
    #[must_use]
    pub fn naive_total(&self) -> u128 {
        self.naive_total
    }

    /// The number of read-from candidates of each load, in
    /// [`ProgramIndex::loads`] order.
    #[must_use]
    pub fn candidates_per_load(&self) -> Vec<usize> {
        self.candidates.iter().map(Vec::len).collect()
    }
}

impl Iterator for RfAssignments {
    type Item = Vec<RfCandidate>;

    fn next(&mut self) -> Option<Self::Item> {
        let counter = self.counter.as_mut()?;
        let assignment =
            counter.iter().zip(&self.candidates).map(|(&c, options)| options[c]).collect();
        // Advance the mixed-radix counter; drop it when it wraps around.
        let mut digit = 0;
        loop {
            if digit == counter.len() {
                self.counter = None;
                break;
            }
            counter[digit] += 1;
            if counter[digit] < self.candidates[digit].len() {
                break;
            }
            counter[digit] = 0;
            digit += 1;
        }
        Some(assignment)
    }
}

/// Sets larger than this widen to `Top`; litmus-scale programs stay far
/// below it.
const MAX_SET: usize = 16;

/// At most [`MAX_SET`] possible 64-bit values, kept sorted inline so that
/// the analysis allocates nothing per set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SmallSet {
    len: u8,
    values: [u64; MAX_SET],
}

impl SmallSet {
    const EMPTY: SmallSet = SmallSet { len: 0, values: [0; MAX_SET] };

    fn one(value: u64) -> SmallSet {
        let mut set = SmallSet::EMPTY;
        set.insert(value);
        set
    }

    fn as_slice(&self) -> &[u64] {
        &self.values[..usize::from(self.len)]
    }

    /// Adds `value`; returns false when the set would outgrow [`MAX_SET`].
    fn insert(&mut self, value: u64) -> bool {
        let len = usize::from(self.len);
        match self.values[..len].binary_search(&value) {
            Ok(_) => true,
            Err(_) if len == MAX_SET => false,
            Err(at) => {
                self.values.copy_within(at..len, at + 1);
                self.values[at] = value;
                self.len += 1;
                true
            }
        }
    }

    /// Adds every value of `other`; returns false on overflow.
    fn extend(&mut self, other: &SmallSet) -> bool {
        other.as_slice().iter().all(|&value| self.insert(value))
    }
}

/// A set of possible values: a small explicit set, or `None` for `Top`
/// (unknown, or too many to track).
type ValueSet = Option<SmallSet>;

/// Whether two sorted slices share no value.
fn is_disjoint(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Applies a binary operation pointwise over two value sets.
fn apply_sets(op: impl Fn(u64, u64) -> u64, lhs: ValueSet, rhs: ValueSet) -> ValueSet {
    let (lhs, rhs) = (lhs?, rhs?);
    let mut out = SmallSet::EMPTY;
    for &x in lhs.as_slice() {
        for &y in rhs.as_slice() {
            if !out.insert(op(x, y)) {
                return None;
            }
        }
    }
    Some(out)
}

/// Statically possible addresses (and values) of a program's instructions,
/// computed by a whole-program value-set fixpoint.
///
/// Every register starts at zero (the ISA's uninitialised-register value);
/// ALU instructions combine operand sets pointwise; a load's value set is the
/// union of the initial values of its possible addresses and the data sets of
/// every store it may read from (excluding program-order-younger same-thread
/// stores, which no model lets a load observe). Sets larger than a small
/// bound widen to "unknown". The least fixpoint over-approximates every
/// execution that value propagation can concretise, so disjoint address sets
/// prove a read-from pairing impossible.
#[derive(Debug, Clone)]
pub struct StaticAddrs {
    /// The flat index of each thread's first instruction.
    starts: Vec<usize>,
    /// Possible addresses of the memory instruction at each flat index
    /// (`None` for unknown; empty for non-memory instructions).
    addrs: Vec<ValueSet>,
}

impl StaticAddrs {
    /// Runs the value-set analysis over every thread of the test's program.
    #[must_use]
    pub fn analyze(test: &LitmusTest) -> Self {
        StaticAddrs::analyze_indexed(test, &ProgramIndex::new(test.program()))
    }

    /// [`StaticAddrs::analyze`] on the test's already-built program index.
    pub(crate) fn analyze_indexed(test: &LitmusTest, index: &ProgramIndex) -> Self {
        let mut analysis = Analysis::new(test, index);
        if test.program().has_branches() {
            // The checker never enumerates branchy programs; map everything
            // to "unknown" instead of reasoning about control flow.
            analysis.addrs.fill(None);
        } else {
            while analysis.pass() {}
        }
        StaticAddrs { starts: index.starts.clone(), addrs: analysis.addrs }
    }

    /// The statically resolved address of the instruction at `(proc, idx)`:
    /// `Some(addr)` when the analysis proves the address is always `addr`,
    /// `None` when it is dynamic (or the instruction is not a memory access).
    #[must_use]
    pub fn address_of(&self, proc: usize, idx: usize) -> Option<u64> {
        match self.possible_addresses(proc, idx) {
            Some(&[addr]) => Some(addr),
            _ => None,
        }
    }

    /// The full set of addresses the memory instruction at `(proc, idx)` may
    /// touch, sorted: `Some(set)` when the analysis bounded it (empty for a
    /// non-memory instruction), `None` when the address is unbounded.
    ///
    /// This is the interface the operational explorer's footprint-based
    /// partial-order reduction consumes: a thread's future accesses are the
    /// union of these sets over its not-yet-performed memory instructions.
    #[must_use]
    pub fn possible_addresses(&self, proc: usize, idx: usize) -> Option<&[u64]> {
        self.addrs[self.starts[proc] + idx].as_ref().map(SmallSet::as_slice)
    }

    /// Returns true unless the analysis proves the two memory instructions
    /// can never touch the same address.
    #[must_use]
    pub fn may_alias(&self, a: InstrRef, b: InstrRef) -> bool {
        match (self.possible_addresses(a.proc, a.idx), self.possible_addresses(b.proc, b.idx)) {
            (Some(x), Some(y)) => !is_disjoint(x, y),
            _ => true,
        }
    }
}

/// The mutable state of the value-set fixpoint, over the program's
/// instructions in flat (thread-major, program-order) order.
struct Analysis<'t> {
    test: &'t LitmusTest,
    transfers: &'t [Transfer],
    /// Possible result values per instruction (ALU result, load value, store
    /// data).
    values: Vec<ValueSet>,
    /// Possible addresses per memory instruction.
    addrs: Vec<ValueSet>,
    /// Every store in the program, as `(proc, flat index)`, for the load
    /// transfer function.
    stores: Vec<(usize, usize)>,
}

impl<'t> Analysis<'t> {
    fn new(test: &'t LitmusTest, index: &'t ProgramIndex) -> Self {
        let stores = index
            .stores
            .iter()
            .map(|&store| (store.proc, index.flat(store).expect("indexed store")))
            .collect();
        let empty = vec![Some(SmallSet::EMPTY); index.transfers.len()];
        Analysis { test, transfers: &index.transfers, values: empty.clone(), addrs: empty, stores }
    }

    fn value(&self, source: Source) -> ValueSet {
        match source {
            Source::Imm(v) => Some(SmallSet::one(v)),
            Source::Writer(writer) => self.values[writer],
        }
    }

    /// The possible addresses `base + offset`.
    fn address(&self, base: Source, offset: u64) -> ValueSet {
        apply_sets(u64::wrapping_add, self.value(base), Some(SmallSet::one(offset)))
    }

    /// One monotone pass over every instruction; returns true if any set
    /// grew.
    fn pass(&mut self) -> bool {
        let mut changed = false;
        for flat in 0..self.transfers.len() {
            let (value, addr) = match self.transfers[flat] {
                Transfer::Alu { op, lhs, rhs } => {
                    let apply = |a: u64, b: u64| op.apply(a.into(), b.into()).raw();
                    (apply_sets(apply, self.value(lhs), self.value(rhs)), None)
                }
                Transfer::Load { proc, base, offset } => {
                    let addresses = self.address(base, offset);
                    (self.load_value(proc, flat, addresses.as_ref()), Some(addresses))
                }
                Transfer::Store { base, offset, data } => {
                    (self.value(data), Some(self.address(base, offset)))
                }
                Transfer::Zero => (Some(SmallSet::one(0)), None),
            };
            changed |= grow(&mut self.values[flat], value);
            if let Some(addresses) = addr {
                changed |= grow(&mut self.addrs[flat], addresses);
            }
        }
        changed
    }

    /// The possible values of the load at `load` in thread `proc`: initial
    /// values of its possible addresses plus the data of every store it may
    /// read from.
    fn load_value(&self, proc: usize, load: usize, addresses: Option<&SmallSet>) -> ValueSet {
        let addresses = addresses?;
        let mut out = SmallSet::EMPTY;
        for &address in addresses.as_slice() {
            if !out.insert(self.test.initial_value(address).raw()) {
                return None;
            }
        }
        for &(store_proc, store) in &self.stores {
            if store_proc == proc && store > load {
                continue;
            }
            if let Some(store_addrs) = &self.addrs[store] {
                if is_disjoint(store_addrs.as_slice(), addresses.as_slice()) {
                    continue;
                }
            }
            if !out.extend(self.values[store].as_ref()?) {
                return None;
            }
        }
        Some(out)
    }
}

/// Grows `slot` to include `update` (sets only ever grow towards `Top`);
/// returns true if the slot changed.
fn grow(slot: &mut ValueSet, update: ValueSet) -> bool {
    let Some(current) = slot else { return false };
    let before = current.len;
    if update.is_some_and(|new| current.extend(&new)) {
        return current.len != before;
    }
    *slot = None;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;

    #[test]
    fn dekker_has_nine_naive_assignments() {
        let test = library::dekker();
        let index = ProgramIndex::new(test.program());
        let assignments = RfAssignments::new(&index);
        assert_eq!(assignments.total(), 9);
        assert_eq!(assignments.naive_total(), 9);
        let all: Vec<_> = assignments.collect();
        assert_eq!(all.len(), 9);
        // Every assignment has one candidate per load.
        assert!(all.iter().all(|a| a.len() == 2));
        // The first assignment is all-Init.
        assert_eq!(all[0], vec![RfCandidate::Init, RfCandidate::Init]);
        // All assignments are distinct.
        let unique: std::collections::BTreeSet<String> =
            all.iter().map(|a| format!("{a:?}")).collect();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn dekker_pruning_keeps_only_same_address_pairings() {
        // Dekker: each load has exactly one same-address store, so the pruned
        // space is 2^2 = 4 instead of 3^2 = 9.
        let test = library::dekker();
        let index = ProgramIndex::new(test.program());
        let pruned = RfAssignments::address_pruned(&test, &index);
        assert_eq!(pruned.total(), 4);
        assert_eq!(pruned.naive_total(), 9);
        assert_eq!(pruned.clone().count(), 4);
        // Every pruned-away assignment fails concretisation anyway.
        for assignment in RfAssignments::new(&index) {
            let concretisable = crate::propagate::concretize(&test, &index, &assignment).is_some();
            let kept = RfAssignments::address_pruned(&test, &index).any(|a| a == assignment);
            assert!(kept || !concretisable, "pruned a concretisable assignment");
        }
    }

    #[test]
    fn dependent_addresses_resolve_to_small_sets() {
        // mp_addr's second load computes its address from the first load's
        // result: the value-set analysis narrows it to {0, a}, keeping the
        // store to `a` but pruning the store to `b`.
        let test = library::mp_addr();
        let index = ProgramIndex::new(test.program());
        let addrs = StaticAddrs::analyze(&test);
        let dependent = index.loads[1];
        assert_eq!(addrs.address_of(dependent.proc, dependent.idx), None, "not a singleton");
        let pruned = RfAssignments::address_pruned(&test, &index);
        let per_load = pruned.candidates_per_load();
        assert_eq!(per_load, vec![2, 2], "each load keeps Init plus one store");
        assert_eq!(pruned.total(), 4);
        assert_eq!(pruned.naive_total(), 9);
    }

    #[test]
    fn artificial_dependencies_do_not_defeat_the_analysis() {
        // rsw's `r2 = c + r1 - r1` always equals `c`, but the set-based
        // analysis loses the correlation between the two `r1` reads and
        // yields {c-1, c, c+1}. None of those phantom addresses is a store
        // address, so the middle load still prunes to Init-only.
        let test = library::rsw();
        let index = ProgramIndex::new(test.program());
        let pruned = RfAssignments::address_pruned(&test, &index);
        assert_eq!(pruned.candidates_per_load(), vec![2, 1, 1, 2]);
        assert!(
            pruned.naive_total() >= 5 * pruned.total(),
            "rsw: naive {} vs pruned {}",
            pruned.naive_total(),
            pruned.total()
        );
    }

    #[test]
    fn at_least_three_library_tests_prune_five_fold() {
        let five_fold: Vec<String> = library::all_tests()
            .iter()
            .filter(|test| {
                let index = ProgramIndex::new(test.program());
                let pruned = RfAssignments::address_pruned(test, &index);
                pruned.total() > 0 && pruned.naive_total() >= 5 * pruned.total()
            })
            .map(|test| test.name().to_string())
            .collect();
        assert!(
            five_fold.len() >= 3,
            "expected >= 3 tests with a 5x pruning factor, got {five_fold:?}"
        );
    }

    #[test]
    fn store_only_program_has_one_empty_assignment() {
        let index = ProgramIndex::new(library::two_plus_two_w().program());
        let assignments: Vec<_> = RfAssignments::new(&index).collect();
        assert_eq!(assignments.len(), 1);
        assert!(assignments[0].is_empty());
    }

    #[test]
    fn rsw_assignment_count_matches_formula() {
        let index = ProgramIndex::new(library::rsw().program());
        let assignments = RfAssignments::new(&index);
        let expected = (index.stores.len() as u128 + 1).pow(index.loads.len() as u32);
        assert_eq!(assignments.total(), expected);
        assert_eq!(assignments.count() as u128, expected);
    }

    #[test]
    fn pruning_never_drops_a_concretisable_assignment() {
        for test in library::all_tests() {
            let index = ProgramIndex::new(test.program());
            let kept: std::collections::BTreeSet<Vec<RfCandidate>> =
                RfAssignments::address_pruned(&test, &index).collect();
            for assignment in RfAssignments::new(&index) {
                if crate::propagate::concretize(&test, &index, &assignment).is_some() {
                    // Pruned assignments must be exactly the non-concretisable
                    // ones or ones rejected by every memory-order search
                    // (po-younger same-thread stores); the latter always fail
                    // concretisation too unless addresses match, in which
                    // case the checker-level differential tests cover them.
                    let same_thread_future =
                        index.loads.iter().zip(&assignment).any(|(&load_ref, candidate)| {
                            match candidate {
                                RfCandidate::Store(sid) => {
                                    let store_ref = index.stores[*sid];
                                    store_ref.proc == load_ref.proc && store_ref.idx > load_ref.idx
                                }
                                RfCandidate::Init => false,
                            }
                        });
                    assert!(
                        kept.contains(&assignment) || same_thread_future,
                        "{}: pruned a concretisable assignment {assignment:?}",
                        test.name()
                    );
                }
            }
        }
    }

    #[test]
    fn totals_saturate_instead_of_overflowing() {
        use gam_isa::prelude::*;
        // 80 loads x 41 options is far beyond u64 (and the old usize::pow
        // would have panicked or wrapped); the totals must saturate or report
        // the exact u128 value, never wrap.
        let a = Loc::new("a");
        let mut threads = Vec::new();
        for p in 0..8 {
            let mut t = ThreadProgram::builder(ProcId::new(p));
            for i in 0..10 {
                t.store(Addr::loc(a), Operand::imm(1));
                t.load(Reg::new(i + 1), Addr::loc(a));
            }
            threads.push(t.build());
        }
        let program = Program::new(threads);
        let index = ProgramIndex::new(&program);
        let assignments = RfAssignments::new(&index);
        let expected = 81u128.checked_pow(80).unwrap_or(u128::MAX);
        assert_eq!(assignments.naive_total(), expected);
        assert_eq!(assignments.total(), expected);
        assert!(assignments.total() > u128::from(u64::MAX));
    }
}
