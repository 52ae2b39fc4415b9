//! Compact, clone-friendly containers for machine-state components.
//!
//! The abstract machines clone their state once per successor, thousands of
//! times per exploration, so the state's containers dominate the explorer's
//! constant factor. `BTreeMap` (one allocation per node, no `clone_from`
//! reuse) is replaced by sorted flat vectors: a clone is a single `memcpy`
//! into one allocation, `Clone::clone_from` reuses the destination's buffer
//! outright (the explorer's successor pool relies on this), and lookups are
//! binary searches over a handful of entries — litmus-scale states have 2–8
//! locations and registers.

use gam_isa::{Reg, Value};

/// Element-wise `clone_from` for vectors: reuses the destination's buffer
/// *and* every surviving element's own allocations. The machine states'
/// hand-written `Clone` impls use this for their per-processor vectors.
pub(crate) fn clone_vec_from<T: Clone>(dst: &mut Vec<T>, src: &[T]) {
    dst.truncate(src.len());
    let reused = dst.len();
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
    dst.extend(src[reused..].iter().cloned());
}

/// The monolithic shared memory: address/value pairs sorted by address.
///
/// Absent addresses read as [`Value::ZERO`], matching the paper's
/// "initially 0" convention.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct Memory {
    cells: Vec<(u64, Value)>,
}

// Hand-written so `clone_from` reuses the destination's buffer (a derived
// `Clone` falls back to `*self = source.clone()`, reallocating every time).
impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory { cells: self.cells.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cells.clear();
        self.cells.extend_from_slice(&source.cells);
    }
}

impl Memory {
    /// An empty memory (every address reads zero).
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Builds a memory from the litmus test's initial-value map.
    #[must_use]
    pub fn from_map(map: &std::collections::BTreeMap<u64, Value>) -> Self {
        // BTreeMap iteration is already address-sorted.
        Memory { cells: map.iter().map(|(&addr, &value)| (addr, value)).collect() }
    }

    /// Reads an address (zero if never written).
    #[must_use]
    pub fn read(&self, addr: u64) -> Value {
        match self.cells.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(index) => self.cells[index].1,
            Err(_) => Value::ZERO,
        }
    }

    /// Writes an address.
    pub fn write(&mut self, addr: u64, value: Value) {
        match self.cells.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(index) => self.cells[index].1 = value,
            Err(index) => self.cells.insert(index, (addr, value)),
        }
    }

    /// Number of addresses ever written (or initialized).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Is the memory empty (all addresses zero)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The populated `(address, value)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Value)> + '_ {
        self.cells.iter().copied()
    }

    /// Approximate heap footprint in bytes (arena-occupancy accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<(u64, Value)>()
    }
}

/// A register file: register/value pairs sorted by register.
///
/// Registers never written read as [`Value::ZERO`] (the initial register
/// state of every litmus thread).
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct RegFile {
    regs: Vec<(Reg, Value)>,
}

// Hand-written for the same buffer-reuse reason as [`Memory`]'s `Clone`.
impl Clone for RegFile {
    fn clone(&self) -> Self {
        RegFile { regs: self.regs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.regs.clear();
        self.regs.extend_from_slice(&source.regs);
    }
}

impl RegFile {
    /// An empty register file (every register reads zero).
    #[must_use]
    pub fn new() -> Self {
        RegFile::default()
    }

    /// Reads a register (zero if never written).
    #[must_use]
    pub fn read(&self, reg: Reg) -> Value {
        match self.regs.binary_search_by_key(&reg, |&(r, _)| r) {
            Ok(index) => self.regs[index].1,
            Err(_) => Value::ZERO,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, reg: Reg, value: Value) {
        match self.regs.binary_search_by_key(&reg, |&(r, _)| r) {
            Ok(index) => self.regs[index].1 = value,
            Err(index) => self.regs.insert(index, (reg, value)),
        }
    }

    /// Number of registers ever written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Is the register file empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The populated `(register, value)` pairs in register order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Value)> + '_ {
        self.regs.iter().copied()
    }

    /// Approximate heap footprint in bytes (arena-occupancy accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.regs.len() * std::mem::size_of::<(Reg, Value)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_reads_default_to_zero_and_writes_stay_sorted() {
        let mut memory = Memory::new();
        assert!(memory.is_empty());
        assert_eq!(memory.read(100), Value::ZERO);
        memory.write(200, Value::new(2));
        memory.write(100, Value::new(1));
        memory.write(300, Value::new(3));
        memory.write(200, Value::new(9)); // overwrite
        assert_eq!(memory.len(), 3);
        assert_eq!(memory.read(100), Value::new(1));
        assert_eq!(memory.read(200), Value::new(9));
        assert_eq!(memory.read(300), Value::new(3));
        assert_eq!(memory.read(150), Value::ZERO);
        let pairs: Vec<(u64, Value)> = memory.iter().collect();
        assert_eq!(
            pairs,
            vec![(100, Value::new(1)), (200, Value::new(9)), (300, Value::new(3))],
            "iteration is address-sorted"
        );
        assert!(memory.approx_bytes() >= 3 * 16);
    }

    #[test]
    fn memory_from_map_round_trips() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(8u64, Value::new(5));
        map.insert(4u64, Value::new(7));
        let memory = Memory::from_map(&map);
        assert_eq!(memory.read(8), Value::new(5));
        assert_eq!(memory.read(4), Value::new(7));
        assert_eq!(memory.len(), 2);
        // Equal contents hash and compare equal regardless of write order.
        let mut rebuilt = Memory::new();
        rebuilt.write(8, Value::new(5));
        rebuilt.write(4, Value::new(7));
        assert_eq!(memory, rebuilt);
    }

    #[test]
    fn regfile_reads_default_to_zero() {
        let mut regs = RegFile::new();
        assert!(regs.is_empty());
        assert_eq!(regs.read(Reg::new(1)), Value::ZERO);
        regs.write(Reg::new(2), Value::new(4));
        regs.write(Reg::new(1), Value::new(3));
        regs.write(Reg::new(2), Value::new(8));
        assert_eq!(regs.len(), 2);
        assert_eq!(regs.read(Reg::new(1)), Value::new(3));
        assert_eq!(regs.read(Reg::new(2)), Value::new(8));
        assert!(regs.approx_bytes() > 0);
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut memory = Memory::new();
        for addr in 0..8 {
            memory.write(addr * 8, Value::new(addr));
        }
        let mut scratch = Memory::new();
        scratch.clone_from(&memory);
        assert_eq!(scratch, memory);
        let capacity_before = scratch.cells.capacity();
        let mut smaller = Memory::new();
        smaller.write(0, Value::new(1));
        scratch.clone_from(&smaller);
        assert_eq!(scratch, smaller);
        assert!(scratch.cells.capacity() >= capacity_before, "clone_from keeps the allocation");
    }
}
