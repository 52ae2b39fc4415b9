//! The canonical `.litmus` pretty-printer.
//!
//! [`print_litmus`] renders any [`LitmusTest`] as text that
//! [`crate::parser::parse_litmus`] reads back to a structurally equal test —
//! the round-trip guarantee `parse(print(t)) == Ok(t)`. It holds because
//! every rendering choice is invertible:
//!
//! * a location address prints as a symbolic name only when
//!   `Loc::new(name)` hashes to exactly that address (see
//!   [`NameTable`]), and as a plain integer otherwise — both forms parse
//!   back to the same address;
//! * the `locations` clause always lists *every* observed quantity in its
//!   original order, so the parser never has to reconstruct the order from
//!   the (sorted) condition;
//! * labels print immediately before the instruction they target, with
//!   end-of-thread labels in a trailing cell.
//!
//! The only inputs outside the guarantee are tests whose name or
//! description contain a newline, whose observed list contains duplicates,
//! or whose label names are not identifiers — none of which the builders in
//! this workspace produce.

use std::fmt::Write as _;

use gam_isa::litmus::{LitmusTest, Observation};
use gam_isa::{Addr, Instruction, Operand, ThreadProgram, Value};

use crate::names::NameTable;

/// Renders a litmus test as canonical `.litmus` text using the default
/// location-name dictionary.
#[must_use]
pub fn print_litmus(test: &LitmusTest) -> String {
    print_litmus_with(test, &NameTable::default())
}

/// Renders a litmus test as canonical `.litmus` text with a caller-provided
/// name table.
#[must_use]
pub fn print_litmus_with(test: &LitmusTest, names: &NameTable) -> String {
    let mut out = String::new();
    write_head(&mut out, test.name(), test.description());
    write_init(&mut out, test.initial_memory().iter().map(|(&addr, &value)| (addr, value)), names);
    let mut columns = Columns::default();
    for thread in test.program().threads() {
        columns.push_thread(thread, names, &|value| value);
    }
    columns.write_header(&mut out);
    for row in 0..columns.rows() {
        columns.write_row(&mut out, row);
    }
    write_locations(&mut out, test.observed(), names);
    write_condition(&mut out, test.condition().iter(), names);
    out
}

// The writers below append to a caller's buffer, so the canonicalizer can
// render many candidate texts into reused buffers with the exact layout of
// `print_litmus_with`. Instruction immediates pass through a `rename`
// function: the identity here, the location renaming in canonicalization.

/// The `GAM <name>` line and the optional quoted description.
pub(crate) fn write_head(out: &mut String, name: &str, description: &str) {
    let _ = writeln!(out, "GAM {name}");
    if !description.is_empty() {
        let escaped = description.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(out, "\"{escaped}\"");
    }
}

/// The `{ addr = value; ... }` line, when there is any initial memory.
pub(crate) fn write_init(
    out: &mut String,
    entries: impl IntoIterator<Item = (u64, Value)>,
    names: &NameTable,
) {
    let mut entries = entries.into_iter().peekable();
    if entries.peek().is_none() {
        return;
    }
    out.push('{');
    for (address, value) in entries {
        out.push(' ');
        write_value(out, address, names);
        out.push_str(" = ");
        write_value(out, value.raw(), names);
        out.push(';');
    }
    out.push_str(" }\n");
}

/// The `locations (...)` line, when anything is observed.
pub(crate) fn write_locations(out: &mut String, observed: &[Observation], names: &NameTable) {
    if observed.is_empty() {
        return;
    }
    out.push_str("locations (");
    for (i, obs) in observed.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        write_observation(out, obs, names);
    }
    out.push_str(")\n");
}

/// The `exists (...)` line, when the condition has any term.
pub(crate) fn write_condition<'a>(
    out: &mut String,
    terms: impl IntoIterator<Item = (&'a Observation, &'a Value)>,
    names: &NameTable,
) {
    let mut terms = terms.into_iter().peekable();
    if terms.peek().is_none() {
        return;
    }
    out.push_str("exists (");
    for (i, (obs, value)) in terms.enumerate() {
        if i > 0 {
            out.push_str(" /\\ ");
        }
        write_observation(out, obs, names);
        out.push_str(" = ");
        write_value(out, value.raw(), names);
    }
    out.push_str(")\n");
}

/// The thread columns: a header row plus one row per program-order
/// position, each column padded to its widest cell. Cells are rendered into
/// one reusable buffer.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    /// Every cell's text, back to back.
    text: String,
    /// The byte range of each cell in `text`, column after column.
    cells: Vec<(usize, usize)>,
    /// Per column: its first cell in `cells`, its cell count and its width.
    columns: Vec<(usize, usize, usize)>,
    rows: usize,
}

impl Columns {
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.cells.clear();
        self.columns.clear();
        self.rows = 0;
    }

    /// Adds one thread's column: labels prefix the instruction they
    /// precede; labels past the last instruction get a trailing cell.
    pub(crate) fn push_thread(
        &mut self,
        thread: &ThreadProgram,
        names: &NameTable,
        rename: &impl Fn(u64) -> u64,
    ) {
        let first = self.cells.len();
        for (index, instr) in thread.instructions().iter().enumerate() {
            let start = self.text.len();
            write_labels(&mut self.text, thread, index);
            write_instruction(&mut self.text, instr, names, rename);
            self.cells.push((start, self.text.len()));
        }
        let start = self.text.len();
        write_labels(&mut self.text, thread, thread.len());
        if self.text.len() > start {
            // Drop the space after the last trailing label.
            self.text.pop();
            self.cells.push((start, self.text.len()));
        }
        let count = self.cells.len() - first;
        let header = header_len(self.columns.len());
        let widest = self.cells[first..].iter().map(|&(start, end)| end - start).max();
        self.columns.push((first, count, widest.unwrap_or(0).max(header)));
        self.rows = self.rows.max(count);
    }

    /// The number of instruction rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The `P1 | P2 | ... ;` header row.
    pub(crate) fn write_header(&self, out: &mut String) {
        for (column, &(_, _, width)) in self.columns.iter().enumerate() {
            if column > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "P{}", column + 1);
            pad(out, header_len(column), width);
        }
        out.push_str(" ;\n");
    }

    /// One instruction row; a column shorter than the table has an empty
    /// cell there.
    pub(crate) fn write_row(&self, out: &mut String, row: usize) {
        for (column, &(first, count, width)) in self.columns.iter().enumerate() {
            if column > 0 {
                out.push_str(" | ");
            }
            let cell = if row < count {
                let (start, end) = self.cells[first + row];
                &self.text[start..end]
            } else {
                ""
            };
            out.push_str(cell);
            pad(out, cell.chars().count(), width);
        }
        out.push_str(" ;\n");
    }
}

/// The length of the header cell `P<column + 1>`.
fn header_len(column: usize) -> usize {
    2 + (column + 1).ilog10() as usize
}

/// Pads a cell of `len` characters with spaces up to `width`.
fn pad(out: &mut String, len: usize, width: usize) {
    out.extend(std::iter::repeat_n(' ', width.saturating_sub(len)));
}

/// The `name: ` prefix of every label that targets `index`.
fn write_labels(out: &mut String, thread: &ThreadProgram, index: usize) {
    for (name, &target) in thread.labels() {
        if target == index {
            out.push_str(name);
            out.push_str(": ");
        }
    }
}

fn write_instruction(
    out: &mut String,
    instr: &Instruction,
    names: &NameTable,
    rename: &impl Fn(u64) -> u64,
) {
    match instr {
        Instruction::Alu { dst, op, lhs, rhs } => {
            let _ = write!(out, "{dst} = {op} ");
            write_operand(out, *lhs, names, rename);
            out.push_str(", ");
            write_operand(out, *rhs, names, rename);
        }
        Instruction::Load { dst, addr } => {
            let _ = write!(out, "{dst} = Ld ");
            write_addr(out, *addr, names, rename);
        }
        Instruction::Store { addr, data } => {
            out.push_str("St ");
            write_addr(out, *addr, names, rename);
            out.push(' ');
            write_operand(out, *data, names, rename);
        }
        Instruction::Fence { kind } => {
            let _ = write!(out, "{kind}");
        }
        Instruction::Branch { cond, lhs, rhs, target } => {
            let _ = write!(out, "{cond} ");
            write_operand(out, *lhs, names, rename);
            out.push_str(", ");
            write_operand(out, *rhs, names, rename);
            let _ = write!(out, " -> {target}");
        }
    }
}

fn write_addr(out: &mut String, addr: Addr, names: &NameTable, rename: &impl Fn(u64) -> u64) {
    out.push('[');
    write_operand(out, addr.base, names, rename);
    if addr.offset != 0 {
        let _ = write!(out, " + {}", addr.offset);
    }
    out.push(']');
}

fn write_operand(
    out: &mut String,
    operand: Operand,
    names: &NameTable,
    rename: &impl Fn(u64) -> u64,
) {
    match operand {
        Operand::Reg(reg) => {
            let _ = write!(out, "{reg}");
        }
        Operand::Imm(value) => write_value(out, rename(value.raw()), names),
    }
}

/// A value, or an address (an initial-memory key or memory observation),
/// prints as a symbolic location name when the name table can invert it,
/// and as a plain integer otherwise.
fn write_value(out: &mut String, value: u64, names: &NameTable) {
    match names.name_of(value) {
        Some(name) => out.push_str(name),
        None => {
            let _ = write!(out, "{value}");
        }
    }
}

fn write_observation(out: &mut String, obs: &Observation, names: &NameTable) {
    match obs {
        Observation::Register(proc, reg) => {
            let _ = write!(out, "{proc}:{reg}");
        }
        Observation::Memory(loc) => write_value(out, loc.address(), names),
    }
}
