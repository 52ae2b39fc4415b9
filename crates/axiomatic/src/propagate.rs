//! Value propagation: turning a read-from assignment into a concrete execution.
//!
//! Given a read-from candidate for every load, this module computes every
//! register value, memory address and store datum by propagating values to a
//! fixpoint. Assignments whose values cannot be resolved (a cyclic value
//! dependency through read-from edges, the out-of-thin-air shape of Figure 5)
//! or whose addresses are inconsistent (a load "reading from" a store to a
//! different address) are rejected by returning `None`.

use gam_core::RfSource;
use gam_isa::litmus::LitmusTest;
use gam_isa::Value;

use crate::execution::{ConcreteExecution, ProgramIndex, RfCandidate, Source, Transfer};

/// The per-instruction resolution state of a propagation, by flat index,
/// recycled across the assignments of one check.
#[derive(Debug, Clone, Default)]
pub(crate) struct Propagation {
    values: Vec<Option<Value>>,
    addresses: Vec<Option<u64>>,
}

/// Attempts to concretise an execution from a read-from assignment.
///
/// `assignment[i]` is the read-from candidate of `index.loads[i]`.
///
/// Returns `None` when the assignment is inconsistent: a value dependency
/// cycle prevents resolution, or a load is assigned a store to a different
/// address.
#[must_use]
pub fn concretize(
    test: &LitmusTest,
    index: &ProgramIndex,
    assignment: &[RfCandidate],
) -> Option<ConcreteExecution> {
    let mut exec = ConcreteExecution::blank(test.program());
    concretize_into(test, index, assignment, &mut Propagation::default(), &mut exec).then_some(exec)
}

/// [`concretize`] into a recycled execution of the program's shape (see
/// [`ConcreteExecution::blank`]). Returns false, leaving `exec` in an
/// unspecified state, when the assignment is inconsistent.
pub(crate) fn concretize_into(
    test: &LitmusTest,
    index: &ProgramIndex,
    assignment: &[RfCandidate],
    state: &mut Propagation,
    exec: &mut ConcreteExecution,
) -> bool {
    let total = index.transfers.len();
    let (values, addresses) = (&mut state.values, &mut state.addresses);
    values.clear();
    values.resize(total, None);
    addresses.clear();
    addresses.resize(total, None);
    let store_flat = |sid: usize| index.flat(index.stores[sid]).expect("indexed store");

    // Propagate values to a fixpoint. A fence (and a branch, which the
    // checker rejects before propagation) produces the value zero.
    loop {
        let mut progress = false;
        for flat in 0..total {
            let transfer = index.transfers[flat];
            if values[flat].is_some() && (addresses[flat].is_some() || !transfer.is_memory()) {
                continue;
            }
            let operand = |source: Source| match source {
                Source::Imm(v) => Some(Value::new(v)),
                Source::Writer(writer) => values[writer],
            };
            let (value, address) = match transfer {
                Transfer::Alu { op, lhs, rhs } => {
                    (operand(lhs).zip(operand(rhs)).map(|(a, b)| op.apply(a, b)), None)
                }
                Transfer::Load { base, offset, .. } => {
                    let address = operand(base).map(|b| b.raw().wrapping_add(offset));
                    let load = index.load_of[flat].expect("indexed load");
                    let value = address.and_then(|resolved| match assignment[load] {
                        RfCandidate::Init => Some(test.initial_value(resolved)),
                        RfCandidate::Store(sid) => values[store_flat(sid)],
                    });
                    (value, address)
                }
                Transfer::Store { base, offset, data } => {
                    (operand(data), operand(base).map(|b| b.raw().wrapping_add(offset)))
                }
                Transfer::Zero => (Some(Value::ZERO), None),
            };
            if values[flat].is_none() && value.is_some() {
                values[flat] = value;
                progress = true;
            }
            if addresses[flat].is_none() && address.is_some() {
                addresses[flat] = address;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }

    // Every instruction must be fully resolved.
    for (flat, transfer) in index.transfers.iter().enumerate() {
        if values[flat].is_none() || (transfer.is_memory() && addresses[flat].is_none()) {
            return false;
        }
    }

    // Address consistency: a load must read from a store to the same address.
    for (&load_ref, candidate) in index.loads.iter().zip(assignment) {
        if let RfCandidate::Store(sid) = *candidate {
            let load = index.flat(load_ref).expect("indexed load");
            if addresses[load] != addresses[store_flat(sid)] {
                return false;
            }
        }
    }

    for (proc, window) in index.starts.windows(2).enumerate() {
        let flats = window[0]..window[1];
        for (slot, value) in exec.values[proc].iter_mut().zip(&values[flats.clone()]) {
            *slot = value.expect("resolved");
        }
        exec.addresses[proc].copy_from_slice(&addresses[flats]);
    }
    for (&load_ref, candidate) in index.loads.iter().zip(assignment) {
        exec.rf[load_ref.proc][load_ref.idx] = Some(match *candidate {
            RfCandidate::Init => RfSource::Init(exec.address(load_ref).expect("resolved load")),
            RfCandidate::Store(sid) => RfSource::Store(sid as u32),
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;
    use gam_isa::Loc;

    fn index_of(test: &LitmusTest) -> ProgramIndex {
        ProgramIndex::new(test.program())
    }

    #[test]
    fn dekker_init_reads_resolve_to_zero() {
        let test = library::dekker();
        let index = index_of(&test);
        // Both loads read the initial value.
        let exec = concretize(&test, &index, &[RfCandidate::Init, RfCandidate::Init]).unwrap();
        for &load in &index.loads {
            assert_eq!(exec.value(load), Value::ZERO);
        }
        // Both loads read the other processor's store.
        let exec =
            concretize(&test, &index, &[RfCandidate::Store(1), RfCandidate::Store(0)]).unwrap();
        for &load in &index.loads {
            assert_eq!(exec.value(load), Value::new(1));
        }
    }

    #[test]
    fn address_mismatch_is_rejected() {
        // In Dekker, load of `b` (load 0) cannot read from the store to `a` (store 0).
        let test = library::dekker();
        let index = index_of(&test);
        assert!(concretize(&test, &index, &[RfCandidate::Store(0), RfCandidate::Init]).is_none());
    }

    #[test]
    fn oota_cycle_is_rejected() {
        // Both loads reading from the other thread's dependent store forms a
        // value cycle, which propagation cannot resolve.
        let test = library::oota();
        let index = index_of(&test);
        assert!(
            concretize(&test, &index, &[RfCandidate::Store(1), RfCandidate::Store(0)]).is_none()
        );
        // Reading the initial values is fine and yields zeros.
        let exec = concretize(&test, &index, &[RfCandidate::Init, RfCandidate::Init]).unwrap();
        for &load in &index.loads {
            assert_eq!(exec.value(load), Value::ZERO);
        }
    }

    #[test]
    fn mp_addr_dependent_address_is_computed() {
        let test = library::mp_addr();
        let index = index_of(&test);
        let a = Loc::new("a");
        // Load of b reads the store of `a`'s address (store 1), the dependent
        // load then addresses `a` and reads store 0.
        let store_b =
            index.stores.iter().position(|s| s.proc == 0 && s.idx == 2).expect("store to b exists");
        let store_a =
            index.stores.iter().position(|s| s.proc == 0 && s.idx == 0).expect("store to a exists");
        let exec =
            concretize(&test, &index, &[RfCandidate::Store(store_b), RfCandidate::Store(store_a)])
                .unwrap();
        let dependent_load = index.loads[1];
        assert_eq!(exec.address(dependent_load), Some(a.address()));
        assert_eq!(exec.value(dependent_load), Value::new(1));
    }

    #[test]
    fn mp_addr_dependent_load_of_zero_address() {
        // If the first load reads the initial value 0, the dependent load
        // addresses location 0 and reads its initial value 0.
        let test = library::mp_addr();
        let index = index_of(&test);
        let exec = concretize(&test, &index, &[RfCandidate::Init, RfCandidate::Init]).unwrap();
        let dependent_load = index.loads[1];
        assert_eq!(exec.address(dependent_load), Some(0));
        assert_eq!(exec.value(dependent_load), Value::ZERO);
    }

    #[test]
    fn initial_memory_values_are_respected() {
        use gam_isa::{Addr, Operand as Op, ProcId, Reg, ThreadProgram};
        let a = Loc::new("a");
        let mut t0 = ThreadProgram::builder(ProcId::new(0));
        t0.load(Reg::new(1), Addr::loc(a));
        let program = gam_isa::Program::new(vec![t0.build()]);
        let test = LitmusTest::builder("init-demo", program)
            .init(a, 123u64)
            .expect_reg(ProcId::new(0), Reg::new(1), 123u64)
            .build();
        let index = index_of(&test);
        let exec = concretize(&test, &index, &[RfCandidate::Init]).unwrap();
        assert_eq!(exec.value(index.loads[0]), Value::new(123));
        // Keep the builder import used.
        let _ = Op::imm(0);
    }

    #[test]
    fn store_forwarding_values() {
        let test = library::store_forwarding();
        let index = index_of(&test);
        // The load reads the second store (r1 = 0 initially, so value 0).
        let exec = concretize(&test, &index, &[RfCandidate::Store(1)]).unwrap();
        assert_eq!(exec.value(index.loads[0]), Value::ZERO);
        // Or the first store, value 1.
        let exec = concretize(&test, &index, &[RfCandidate::Store(0)]).unwrap();
        assert_eq!(exec.value(index.loads[0]), Value::new(1));
    }

    #[test]
    fn rf_sources_are_recorded() {
        let test = library::corr();
        let index = index_of(&test);
        let exec = concretize(&test, &index, &[RfCandidate::Store(0), RfCandidate::Init]).unwrap();
        assert_eq!(exec.rf_source(index.loads[0]), Some(RfSource::Store(0)));
        assert_eq!(exec.rf_source(index.loads[1]), Some(RfSource::Init(Loc::new("a").address())));
    }
}
