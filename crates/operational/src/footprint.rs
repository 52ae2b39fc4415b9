//! Static address-footprint precomputation for the machines'
//! [`LabeledMachine::may_conflict_later`](crate::machine::LabeledMachine::may_conflict_later)
//! implementations.
//!
//! The value-set dataflow pass of the axiomatic backend
//! ([`gam_axiomatic::StaticAddrs`]) bounds every dynamically computed
//! address to the set of values it can take in *any* execution. This module
//! projects that analysis into the shapes the operational machines need:
//! per-instruction address sets (for the GAM machine, whose ROB entries can
//! be squashed and re-executed with recomputed addresses) and per-pc suffix
//! footprints (for the in-order SC and TSO machines, whose future accesses
//! are exactly the remaining program suffix).

use gam_axiomatic::StaticAddrs;
use gam_isa::litmus::LitmusTest;
use gam_isa::{Instruction, Program};

use crate::machine::{AddrSet, Footprint};

/// The may-touch address set of every instruction: `sets[proc][idx]` bounds
/// the memory instruction at that position ([`AddrSet::Top`] when the
/// analysis could not, [`AddrSet::empty`] for non-memory instructions).
pub(crate) fn instr_addr_sets(test: &LitmusTest) -> Vec<Vec<AddrSet>> {
    let analysis = StaticAddrs::analyze(test);
    test.program()
        .threads()
        .iter()
        .enumerate()
        .map(|(proc, thread)| {
            thread
                .instructions()
                .iter()
                .enumerate()
                .map(|(idx, instr)| {
                    if instr.is_load() || instr.is_store() {
                        match analysis.possible_addresses(proc, idx) {
                            Some(set) => AddrSet::Set(set.iter().copied().collect()),
                            None => AddrSet::Top,
                        }
                    } else {
                        AddrSet::empty()
                    }
                })
                .collect()
        })
        .collect()
}

/// Adds one instruction's may-touch set to a footprint.
fn absorb(footprint: &mut Footprint, instr: &Instruction, set: &AddrSet) {
    if instr.is_load() {
        footprint.reads.union_with(set);
    } else if instr.is_store() {
        footprint.writes.union_with(set);
    }
}

/// Per-thread suffix footprints for in-order machines: `suffix[proc][pc]`
/// covers every memory access the thread can still perform with its program
/// counter at `pc` (index `len` is the finished thread's empty footprint).
///
/// A branchy *thread* can jump backwards, so its every unfinished pc gets
/// the whole thread's footprint instead of the straight-line suffix;
/// branch-free threads keep their precise suffixes regardless of what the
/// other threads do.
pub(crate) fn suffix_footprints(program: &Program, sets: &[Vec<AddrSet>]) -> Vec<Vec<Footprint>> {
    program
        .threads()
        .iter()
        .enumerate()
        .map(|(proc, thread)| {
            let len = thread.len();
            let mut out = vec![Footprint::empty(); len + 1];
            if thread.has_branches() {
                let mut whole = Footprint::empty();
                for (idx, instr) in thread.instructions().iter().enumerate() {
                    absorb(&mut whole, instr, &sets[proc][idx]);
                }
                for slot in out.iter_mut().take(len) {
                    slot.clone_from(&whole);
                }
            } else {
                for idx in (0..len).rev() {
                    let mut footprint = out[idx + 1].clone();
                    absorb(&mut footprint, &thread.instructions()[idx], &sets[proc][idx]);
                    out[idx] = footprint;
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;

    #[test]
    fn suffixes_shrink_toward_the_end() {
        // mp producer: St [a] 1; St [f] 1 — the suffix at pc 0 writes both
        // locations, at pc 1 only f, at pc 2 nothing.
        let test = library::mp();
        let sets = instr_addr_sets(&test);
        let suffix = suffix_footprints(test.program(), &sets);
        assert!(!matches!(suffix[0][0].writes, AddrSet::Top));
        let writes_at = |pc: usize| match &suffix[0][pc].writes {
            AddrSet::Set(set) => set.len(),
            AddrSet::Top => usize::MAX,
        };
        assert_eq!(writes_at(0), 2);
        assert_eq!(writes_at(1), 1);
        assert_eq!(writes_at(2), 0);
        assert!(matches!(&suffix[0][2].reads, AddrSet::Set(s) if s.is_empty()));
    }

    #[test]
    fn dependent_addresses_are_bounded_by_the_value_sets() {
        // rsw's consumer chases two artificial address dependencies; the
        // value-set analysis pins both dependent loads to their single
        // possible address, so the whole-thread footprint is a finite set.
        let test = library::rsw();
        let sets = instr_addr_sets(&test);
        let suffix = suffix_footprints(test.program(), &sets);
        // The artificial dependency `dst = loc + dep - dep` is evaluated
        // set-pointwise, so the bound is a small superset of {b, c, a}
        // rather than exactly those three — what matters for the reduction
        // is that it is finite and contains the true addresses.
        match &suffix[1][0].reads {
            AddrSet::Set(reads) => {
                assert!(reads.len() < 8, "small finite bound, got {reads:?}");
                for loc in ["a", "b", "c"] {
                    let addr = gam_isa::Loc::new(loc).address();
                    assert!(reads.contains(&addr), "{loc} must be covered");
                }
            }
            AddrSet::Top => panic!("the dependent loads must be bounded"),
        }
    }
}
