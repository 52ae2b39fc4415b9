//! Property-based tests of the ISA layer: value arithmetic, locations,
//! register sets and the thread-program builder.

use gam_isa::prelude::*;
use proptest::prelude::*;

/// Strategy: a name of lowercase letters whose length lies in `len`.
fn name(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, len)
        .prop_map(|letters| letters.into_iter().map(|i| char::from(b'a' + i)).collect())
}

proptest! {
    /// The artificial-dependency idiom `x + d - d` is always the identity,
    /// which is what makes `artificial_addr_dep` semantically transparent.
    #[test]
    fn artificial_dependency_is_identity(base in any::<u64>(), dep in any::<u64>()) {
        let x = Value::new(base);
        let d = Value::new(dep);
        prop_assert_eq!(x.wrapping_add(d).wrapping_sub(d), x);
    }

    /// Wrapping add/sub are inverses in either order.
    #[test]
    fn add_sub_inverse(a in any::<u64>(), b in any::<u64>()) {
        let va = Value::new(a);
        let vb = Value::new(b);
        prop_assert_eq!(va.wrapping_add(vb).wrapping_sub(vb), va);
        prop_assert_eq!(va.wrapping_sub(vb).wrapping_add(vb), va);
    }

    /// ALU operations are total and Mov ignores its second operand.
    #[test]
    fn mov_ignores_rhs(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(AluOp::Mov.apply(Value::new(a), Value::new(b)), Value::new(a));
        prop_assert_eq!(AluOp::Xor.apply(Value::new(a), Value::new(a)), Value::ZERO);
    }

    /// Location naming is stable and injective for short names.
    #[test]
    fn locations_are_stable(name in name(1..7)) {
        let first = Loc::new(&name);
        let second = Loc::new(&name);
        prop_assert_eq!(first, second);
        prop_assert_eq!(first.address(), second.address());
        prop_assert_eq!(Loc::from_address(first.address()), first);
    }

    /// Distinct single-letter names map to distinct addresses (the litmus domain).
    #[test]
    fn distinct_short_names_do_not_collide(a in name(1..4), b in name(1..4)) {
        prop_assume!(a != b);
        prop_assert_ne!(Loc::new(&a).address(), Loc::new(&b).address());
    }

    /// An instruction's address read set is always contained in its read set,
    /// and its write set never overlaps a store's or fence's outputs.
    #[test]
    fn register_set_containment(dst in 0u32..8, addr_reg in 0u32..8, data_reg in 0u32..8) {
        let load = Instruction::Load { dst: Reg::new(dst), addr: Addr::reg(Reg::new(addr_reg)) };
        for reg in load.addr_read_set() {
            prop_assert!(load.read_set().contains(&reg));
        }
        prop_assert_eq!(load.write_set(), vec![Reg::new(dst)]);

        let store = Instruction::Store {
            addr: Addr::reg(Reg::new(addr_reg)),
            data: Operand::reg(Reg::new(data_reg)),
        };
        for reg in store.addr_read_set() {
            prop_assert!(store.read_set().contains(&reg));
        }
        for reg in store.data_read_set() {
            prop_assert!(store.read_set().contains(&reg));
        }
        prop_assert!(store.write_set().is_empty());

        // `writes` is membership in the write set, for every instruction class.
        let alu = Instruction::Alu {
            dst: Reg::new(dst),
            op: AluOp::Add,
            lhs: Operand::reg(Reg::new(addr_reg)),
            rhs: Operand::imm(1),
        };
        let fence = Instruction::Fence { kind: FenceKind::SS };
        for instr in [&load, &store, &alu, &fence] {
            for reg in (0..8).map(Reg::new) {
                prop_assert_eq!(instr.writes(reg), instr.write_set().contains(&reg));
            }
        }
    }

    /// The builder preserves instruction order and memory-instruction counts.
    #[test]
    fn builder_preserves_order(stores in 0usize..6, loads in 0usize..6) {
        let loc = Loc::new("p");
        let mut builder = ThreadProgram::builder(ProcId::new(0));
        for _ in 0..stores {
            builder.store(Addr::loc(loc), Operand::imm(1));
        }
        for i in 0..loads {
            builder.load(Reg::new(i as u32 + 1), Addr::loc(loc));
        }
        let thread = builder.build();
        prop_assert_eq!(thread.len(), stores + loads);
        prop_assert_eq!(thread.memory_instruction_count(), stores + loads);
        let store_count = thread.instructions().iter().filter(|i| i.is_store()).count();
        prop_assert_eq!(store_count, stores);
    }

    /// Outcome matching is reflexive and monotone under extension.
    #[test]
    fn outcome_matching_is_monotone(values in proptest::collection::vec(0u64..16, 1..5)) {
        let proc = ProcId::new(0);
        let mut partial = Outcome::new();
        let mut full = Outcome::new();
        for (i, v) in values.iter().enumerate() {
            full = full.with_reg(proc, Reg::new(i as u32), *v);
            if i % 2 == 0 {
                partial = partial.with_reg(proc, Reg::new(i as u32), *v);
            }
        }
        prop_assert!(full.matched_by(&full));
        prop_assert!(partial.matched_by(&full));
    }
}
