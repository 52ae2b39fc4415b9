//! Instructions, operands and address expressions.

use std::fmt;

use crate::op::{AluOp, BranchCond, FenceKind, MemAccessType};
use crate::program::Label;
use crate::reg::Reg;
use crate::value::{Loc, Value};

/// A source operand of an instruction: a register or an immediate value.
///
/// Symbolic locations are immediates whose value is the location address, so
/// `Operand::loc(a)` is how litmus tests write "the constant `a`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A constant value.
    Imm(Value),
}

impl Operand {
    /// Convenience constructor for an immediate operand.
    #[must_use]
    pub fn imm(value: u64) -> Operand {
        Operand::Imm(Value::new(value))
    }

    /// Convenience constructor for a register operand.
    #[must_use]
    pub fn reg(reg: Reg) -> Operand {
        Operand::Reg(reg)
    }

    /// Convenience constructor for a symbolic-location immediate.
    #[must_use]
    pub fn loc(loc: Loc) -> Operand {
        Operand::Imm(loc.value())
    }

    /// Returns the register read by this operand, if any.
    #[must_use]
    pub fn source_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(reg: Reg) -> Self {
        Operand::Reg(reg)
    }
}

impl From<Value> for Operand {
    fn from(value: Value) -> Self {
        Operand::Imm(value)
    }
}

impl From<Loc> for Operand {
    fn from(loc: Loc) -> Self {
        Operand::Imm(loc.value())
    }
}

/// The address expression of a load or store: `base + offset`.
///
/// The base is an operand (register or immediate/location) and the offset an
/// immediate. This is enough to express every address computation in the
/// paper: direct addresses (`Ld [a]`), register-indirect addresses
/// (`Ld [r1]`), and, combined with ALU instructions, artificial dependencies
/// (`r2 = a + r1 - r1; Ld [r2]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Base of the address computation.
    pub base: Operand,
    /// Constant offset added to the base.
    pub offset: u64,
}

impl Addr {
    /// Address held in a register, with no offset.
    #[must_use]
    pub fn reg(reg: Reg) -> Addr {
        Addr { base: Operand::Reg(reg), offset: 0 }
    }

    /// Fixed symbolic location address.
    #[must_use]
    pub fn loc(loc: Loc) -> Addr {
        Addr { base: Operand::Imm(loc.value()), offset: 0 }
    }

    /// Register base plus constant offset.
    #[must_use]
    pub fn reg_offset(reg: Reg, offset: u64) -> Addr {
        Addr { base: Operand::Reg(reg), offset }
    }

    /// Returns the register read to compute the address, if any.
    #[must_use]
    pub fn source_reg(self) -> Option<Reg> {
        self.base.source_reg()
    }

    /// Evaluates the address given the value of its base operand.
    #[must_use]
    pub fn evaluate(self, base: Value) -> Value {
        base.wrapping_add(Value::new(self.offset))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "[{}]", self.base)
        } else {
            write!(f, "[{} + {}]", self.base, self.offset)
        }
    }
}

/// A single instruction of the GAM ISA.
///
/// The instruction set contains exactly the instruction classes the paper's
/// construction distinguishes: register-to-register computation, loads,
/// stores, fences and branches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `dst = op(lhs, rhs)` — a register-to-register ALU instruction.
    Alu {
        /// Destination register.
        dst: Reg,
        /// Operation to perform.
        op: AluOp,
        /// First source operand.
        lhs: Operand,
        /// Second source operand.
        rhs: Operand,
    },
    /// `dst = Ld [addr]` — a load.
    Load {
        /// Destination register receiving the loaded value.
        dst: Reg,
        /// Address expression of the access.
        addr: Addr,
    },
    /// `St [addr] data` — a store.
    Store {
        /// Address expression of the access.
        addr: Addr,
        /// Data operand to be written.
        data: Operand,
    },
    /// One of the four basic fences.
    Fence {
        /// Which access types the fence orders.
        kind: FenceKind,
    },
    /// Conditional branch to a label.
    Branch {
        /// Condition evaluated on the two operands.
        cond: BranchCond,
        /// First comparison operand.
        lhs: Operand,
        /// Second comparison operand.
        rhs: Operand,
        /// Branch target label (within the same thread).
        target: Label,
    },
}

impl Instruction {
    /// Returns true if the instruction is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instruction::Load { .. })
    }

    /// Returns true if the instruction is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instruction::Store { .. })
    }

    /// Returns true if the instruction is a memory instruction (load or store).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Returns true if the instruction is a fence.
    #[must_use]
    pub fn is_fence(&self) -> bool {
        matches!(self, Instruction::Fence { .. })
    }

    /// Returns true if the instruction is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Instruction::Branch { .. })
    }

    /// Returns the memory access type if this is a memory instruction.
    #[must_use]
    pub fn mem_access_type(&self) -> Option<MemAccessType> {
        match self {
            Instruction::Load { .. } => Some(MemAccessType::Load),
            Instruction::Store { .. } => Some(MemAccessType::Store),
            _ => None,
        }
    }

    /// The read set `RS(I)` of the paper (Definition 1): every register the
    /// instruction reads, ignoring the PC.
    #[must_use]
    pub fn read_set(&self) -> Vec<Reg> {
        let mut regs = Vec::new();
        let mut push = |op: &Operand| {
            if let Operand::Reg(r) = op {
                if !regs.contains(r) {
                    regs.push(*r);
                }
            }
        };
        match self {
            Instruction::Alu { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Instruction::Load { addr, .. } => push(&addr.base),
            Instruction::Store { addr, data } => {
                push(&addr.base);
                push(data);
            }
            Instruction::Fence { .. } => {}
            Instruction::Branch { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
        }
        regs
    }

    /// The write set `WS(I)` of the paper (Definition 2): every register the
    /// instruction can write, ignoring the PC.
    #[must_use]
    pub fn write_set(&self) -> Vec<Reg> {
        match self {
            Instruction::Alu { dst, .. } | Instruction::Load { dst, .. } => vec![*dst],
            Instruction::Store { .. } | Instruction::Fence { .. } | Instruction::Branch { .. } => {
                Vec::new()
            }
        }
    }

    /// Whether `reg` is in the write set `WS(I)`; unlike
    /// [`Instruction::write_set`] it allocates nothing.
    #[must_use]
    pub fn writes(&self, reg: Reg) -> bool {
        matches!(self, Instruction::Alu { dst, .. } | Instruction::Load { dst, .. } if *dst == reg)
    }

    /// The address read set `ARS(I)` of the paper (Definition 3): registers
    /// read to compute the address of a memory instruction.
    #[must_use]
    pub fn addr_read_set(&self) -> Vec<Reg> {
        match self {
            Instruction::Load { addr, .. } | Instruction::Store { addr, .. } => {
                addr.source_reg().into_iter().collect()
            }
            _ => Vec::new(),
        }
    }

    /// Returns the registers read to produce the *data* of a store (the store
    /// data read set). Empty for all other instruction kinds.
    #[must_use]
    pub fn data_read_set(&self) -> Vec<Reg> {
        match self {
            Instruction::Store { data, .. } => data.source_reg().into_iter().collect(),
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Alu { dst, op, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Instruction::Load { dst, addr } => write!(f, "{dst} = Ld {addr}"),
            Instruction::Store { addr, data } => write!(f, "St {addr} {data}"),
            Instruction::Fence { kind } => write!(f, "{kind}"),
            Instruction::Branch { cond, lhs, rhs, target } => {
                write!(f, "{cond} {lhs}, {rhs} -> {target}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn operand_constructors() {
        assert_eq!(Operand::imm(5), Operand::Imm(Value::new(5)));
        assert_eq!(Operand::reg(r(1)), Operand::Reg(r(1)));
        let a = Loc::new("a");
        assert_eq!(Operand::loc(a), Operand::Imm(a.value()));
        assert_eq!(Operand::from(r(2)).source_reg(), Some(r(2)));
        assert_eq!(Operand::imm(3).source_reg(), None);
    }

    #[test]
    fn addr_evaluation() {
        let a = Addr::reg_offset(r(1), 8);
        assert_eq!(a.evaluate(Value::new(100)), Value::new(108));
        assert_eq!(a.source_reg(), Some(r(1)));
        let fixed = Addr::loc(Loc::new("x"));
        assert_eq!(fixed.source_reg(), None);
        assert_eq!(fixed.evaluate(Loc::new("x").value()), Loc::new("x").value());
    }

    #[test]
    fn classification_predicates() {
        let load = Instruction::Load { dst: r(1), addr: Addr::loc(Loc::new("a")) };
        let store = Instruction::Store { addr: Addr::loc(Loc::new("a")), data: Operand::imm(1) };
        let fence = Instruction::Fence { kind: FenceKind::SS };
        assert!(load.is_load() && load.is_memory() && !load.is_store());
        assert!(store.is_store() && store.is_memory() && !store.is_load());
        assert!(fence.is_fence() && !fence.is_memory());
        assert_eq!(load.mem_access_type(), Some(MemAccessType::Load));
        assert_eq!(store.mem_access_type(), Some(MemAccessType::Store));
        assert_eq!(fence.mem_access_type(), None);
    }

    #[test]
    fn read_write_sets_alu() {
        let i = Instruction::Alu {
            dst: r(3),
            op: AluOp::Add,
            lhs: Operand::reg(r(1)),
            rhs: Operand::reg(r(2)),
        };
        assert_eq!(i.read_set(), vec![r(1), r(2)]);
        assert_eq!(i.write_set(), vec![r(3)]);
        assert!(i.addr_read_set().is_empty());
    }

    #[test]
    fn read_set_deduplicates() {
        let i = Instruction::Alu {
            dst: r(2),
            op: AluOp::Sub,
            lhs: Operand::reg(r(1)),
            rhs: Operand::reg(r(1)),
        };
        assert_eq!(i.read_set(), vec![r(1)]);
    }

    #[test]
    fn read_write_sets_load_store() {
        let load = Instruction::Load { dst: r(2), addr: Addr::reg(r(1)) };
        assert_eq!(load.read_set(), vec![r(1)]);
        assert_eq!(load.write_set(), vec![r(2)]);
        assert_eq!(load.addr_read_set(), vec![r(1)]);
        assert!(load.data_read_set().is_empty());

        let store = Instruction::Store { addr: Addr::reg(r(1)), data: Operand::reg(r(3)) };
        assert_eq!(store.read_set(), vec![r(1), r(3)]);
        assert!(store.write_set().is_empty());
        assert_eq!(store.addr_read_set(), vec![r(1)]);
        assert_eq!(store.data_read_set(), vec![r(3)]);
    }

    #[test]
    fn fence_and_branch_sets() {
        let fence = Instruction::Fence { kind: FenceKind::LL };
        assert!(fence.read_set().is_empty());
        assert!(fence.write_set().is_empty());

        let branch = Instruction::Branch {
            cond: BranchCond::Eq,
            lhs: Operand::reg(r(1)),
            rhs: Operand::imm(0),
            target: Label::new("done"),
        };
        assert_eq!(branch.read_set(), vec![r(1)]);
        assert!(branch.write_set().is_empty());
        assert!(branch.is_branch());
    }

    #[test]
    fn display_formats() {
        let a = Loc::new("a");
        let load = Instruction::Load { dst: r(1), addr: Addr::loc(a) };
        assert!(load.to_string().starts_with("r1 = Ld ["));
        let st = Instruction::Store { addr: Addr::reg(r(2)), data: Operand::imm(7) };
        assert_eq!(st.to_string(), "St [r2] 7");
        assert_eq!(Instruction::Fence { kind: FenceKind::SL }.to_string(), "FenceSL");
    }
}
