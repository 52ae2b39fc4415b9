//! Canonicalization of litmus tests for outcome caching.
//!
//! Two litmus tests that differ only in *naming* — thread order, register
//! indices, label names, symbolic location names — have identical verdicts
//! under every model, so a long-running check service should answer the
//! renamed variant from the cache entry of the first. This module computes a
//! canonical form that collapses those symmetries:
//!
//! * **Thread order**: the canonical text is the minimum over all thread
//!   permutations (exhaustive up to [`MAX_PERMUTED_THREADS`] threads, a
//!   deterministic skeleton-sort heuristic above that).
//! * **Registers**: renamed per thread to `r1, r2, …` in first-use order,
//!   visiting each instruction's operands in a fixed order.
//! * **Labels**: renamed per thread to `L1, L2, …` ordered by target
//!   position; branch targets are remapped along.
//! * **Locations**: renamed to the canonical dictionary `a, b, c, …` in
//!   first-use order — but only when a conservative dataflow screen proves
//!   the rename cannot change program behaviour (see below). When the screen
//!   bails, location names are left untouched; the other three symmetries
//!   still apply, so byte-identical resubmissions always canonicalize
//!   identically.
//!
//! # Why location renaming needs a screen
//!
//! Location "names" are concrete addresses ([`gam_isa::Loc::new`] hashes the
//! name), and addresses are first-class values: programs store them, load
//! them and dereference them. Renaming is only sound if every address flows
//! through the program *exactly* (moves, loads of address-valued memory, and
//! the paper's `+dep −dep` artificial-dependency idiom) and is never
//! combined arithmetically with data. The screen verifies:
//!
//! * no `[base + offset]` address expressions (an offset shifts an address
//!   off its renamed counterpart);
//! * every constant is either an address (≥ [`gam_isa::Loc::REGION_BASE`])
//!   or small data (< [`gam_isa::Loc::REGION_STRIDE`]) — nothing in between;
//! * at most [`MAX_DATA_ALU`] data ALU instructions, so data values can
//!   never drift up into (or wrap down into) the address window: each ALU
//!   op at most doubles the magnitude bound, and
//!   `0x1000 << 12 = 0x100_0000` stays three orders below the window floor,
//!   while wrapped negatives stay above `2^63`, three orders above its
//!   ceiling;
//! * a per-thread taint fixpoint (taint = "may hold an exact address"):
//!   `mov` propagates, loads taint their destination whenever any reachable
//!   memory content is an address, the two-instruction artificial-dependency
//!   idiom is recognized and allowed — and any *other* ALU instruction that
//!   reads a tainted register or an address immediate bails the screen.
//!
//! Tainted registers may still be dereferenced, stored, compared by
//! branches (only `Eq`/`Ne` exist, both preserved by injective renaming) and
//! observed: all of those see the renamed address consistently.
//!
//! The canonical text is what the round-trip-pinned pretty-printer
//! ([`crate::printer::print_litmus_with`]) prints for the canonical test, so
//! `parse(canonical_text(t))` reproduces the canonical test exactly and the
//! hash is a hash of real, valid `.litmus` syntax — inspectable with `gam
//! print`.
//!
//! # The search over thread orders
//!
//! Register and label renaming do not depend on the thread order, so they
//! are done once. Each order then only names the locations and writes its
//! text, with the printer's own writers, into a reused buffer, comparing it
//! with the smallest text so far as it goes; an order is dropped at the
//! first line that compares larger. Only the winning order's test is built.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use gam_isa::litmus::{LitmusTest, Observation};
use gam_isa::{Addr, AluOp, Instruction, Loc, Operand, ProcId, Program, Reg, ThreadProgram, Value};

use crate::names::NameTable;
use crate::printer::{write_condition, write_head, write_init, write_locations, Columns};

/// Threads up to this count are canonicalized by exhaustive permutation
/// (5! = 120 renderings); larger programs fall back to a deterministic
/// skeleton sort that is invariant under register/location renaming but not
/// under permutations of *identical* thread skeletons.
pub const MAX_PERMUTED_THREADS: usize = 5;

/// Maximum number of data ALU instructions (non-`mov`, non-idiom) before the
/// location-renaming screen bails. See the module docs for the drift bound.
pub const MAX_DATA_ALU: usize = 12;

/// A 128-bit canonical test hash (two independent FNV-1a passes over the
/// canonical text), rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalHash {
    hi: u64,
    lo: u64,
}

impl fmt::Display for CanonicalHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A canonicalized litmus test together with its rendered text.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The rebuilt test: threads permuted, registers/labels renamed, and —
    /// when sound — locations renamed onto the canonical dictionary.
    pub test: LitmusTest,
    /// The canonical `.litmus` rendering of `test`; [`canonical_hash`]
    /// hashes exactly these bytes.
    pub text: String,
}

/// Computes the canonical form of a litmus test.
#[must_use]
pub fn canonical_form(test: &LitmusTest) -> CanonicalForm {
    let _phase = gam_obs::phase("canon");
    let prepared = Prepared::new(test);
    let (order, text) = prepared.search();
    CanonicalForm { test: prepared.build(&order), text }
}

/// The canonical `.litmus` text of a test (see [`canonical_form`]). Only
/// the winning thread order's text is built; no test is.
#[must_use]
pub fn canonical_text(test: &LitmusTest) -> String {
    let _phase = gam_obs::phase("canon");
    Prepared::new(test).search().1
}

/// The canonical test itself (see [`canonical_form`]).
#[must_use]
pub fn canonical_test(test: &LitmusTest) -> LitmusTest {
    canonical_form(test).test
}

/// The canonical hash of a test: 128 bits of FNV-1a over the canonical text.
#[must_use]
pub fn canonical_hash(test: &LitmusTest) -> CanonicalHash {
    let text = canonical_text(test);
    CanonicalHash {
        hi: fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325),
        lo: fnv1a(text.as_bytes(), 0x6c62_272e_07bb_0142),
    }
}

fn fnv1a(bytes: &[u8], offset_basis: u64) -> u64 {
    let mut hash = offset_basis;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Location-renaming soundness screen
// ---------------------------------------------------------------------------

/// Classifies every constant in the test and runs the taint dataflow; returns
/// the set of renamable addresses, or `None` when renaming cannot be proven
/// sound (location names are then left as-is).
fn renamable_addresses(test: &LitmusTest) -> Option<BTreeSet<u64>> {
    let mut addrs = BTreeSet::new();
    // Pass 1: collect and classify every constant.
    let mut classify = |v: u64| -> Option<()> {
        if v >= Loc::REGION_BASE {
            addrs.insert(v);
            Some(())
        } else if v >= Loc::REGION_STRIDE {
            None // mid-range constant: neither clearly data nor an address
        } else {
            Some(()) // small data, maps to itself
        }
    };
    let mut classify_operand = |operand: &Operand| -> Option<()> {
        match operand {
            Operand::Imm(v) => classify(v.raw()),
            Operand::Reg(_) => Some(()),
        }
    };
    for thread in test.program().threads() {
        for instr in thread.instructions() {
            match instr {
                Instruction::Alu { lhs, rhs, .. } | Instruction::Branch { lhs, rhs, .. } => {
                    classify_operand(lhs)?;
                    classify_operand(rhs)?;
                }
                Instruction::Load { addr, .. } => {
                    if addr.offset != 0 {
                        return None;
                    }
                    classify_operand(&addr.base)?;
                }
                Instruction::Store { addr, data } => {
                    if addr.offset != 0 {
                        return None;
                    }
                    classify_operand(&addr.base)?;
                    classify_operand(data)?;
                }
                Instruction::Fence { .. } => {}
            }
        }
    }
    for (&key, &value) in test.initial_memory() {
        classify(key)?;
        classify(value.raw())?;
    }
    for obs in test.observed() {
        if let Observation::Memory(loc) = obs {
            classify(loc.address())?;
        }
    }
    for (obs, value) in test.condition().iter() {
        if let Observation::Memory(loc) = obs {
            classify(loc.address())?;
        }
        classify(value.raw())?;
    }

    // Pass 2: recognize the artificial-dependency idiom
    // (`d1 = add addr, rd; d2 = sub d1, rd`) so its two ALU instructions are
    // exempt from the data-ALU rules below.
    let threads = test.program().threads();
    let mut idiom: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); threads.len()];
    for (t, thread) in threads.iter().enumerate() {
        let ins = thread.instructions();
        for i in 0..ins.len().saturating_sub(1) {
            let Instruction::Alu { dst: d1, op: AluOp::Add, lhs, rhs } = &ins[i] else {
                continue;
            };
            let dep = match (lhs, rhs) {
                (Operand::Imm(v), Operand::Reg(r)) | (Operand::Reg(r), Operand::Imm(v))
                    if addrs.contains(&v.raw()) =>
                {
                    *r
                }
                _ => continue,
            };
            let Instruction::Alu {
                dst: d2,
                op: AluOp::Sub,
                lhs: Operand::Reg(l),
                rhs: Operand::Reg(r),
            } = &ins[i + 1]
            else {
                continue;
            };
            if *l != *d1 || *r != dep || dep == *d1 {
                continue;
            }
            if *d1 != *d2 {
                // The intermediate register survives the idiom; it holds
                // address + data, which must not escape. Require that nothing
                // else reads it and that it is not observed.
                let escapes = ins
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i + 1 && other.read_set().contains(d1))
                    || test.observed().iter().any(|obs| {
                        matches!(obs, Observation::Register(p, r)
                            if *p == thread.proc() && *r == *d1)
                    });
                if escapes {
                    continue;
                }
            }
            idiom[t].insert(i);
            idiom[t].insert(i + 1);
        }
    }

    // Pass 3: bound the number of data ALU instructions (the drift bound).
    let data_alus: usize = threads
        .iter()
        .enumerate()
        .map(|(t, thread)| {
            thread
                .instructions()
                .iter()
                .enumerate()
                .filter(|(i, instr)| {
                    matches!(instr, Instruction::Alu { op, .. } if *op != AluOp::Mov)
                        && !idiom[t].contains(i)
                })
                .count()
        })
        .sum();
    if data_alus > MAX_DATA_ALU {
        return None;
    }

    // Pass 4: taint fixpoint. Taint = "may hold an exact address".
    let mut tainted: BTreeSet<(usize, Reg)> = BTreeSet::new();
    loop {
        let mem_has_addr = test.initial_memory().values().any(|v| addrs.contains(&v.raw()))
            || threads.iter().enumerate().any(|(t, thread)| {
                thread.instructions().iter().any(|instr| match instr {
                    Instruction::Store { data: Operand::Imm(v), .. } => addrs.contains(&v.raw()),
                    Instruction::Store { data: Operand::Reg(r), .. } => tainted.contains(&(t, *r)),
                    _ => false,
                })
            });
        let mut changed = false;
        for (t, thread) in threads.iter().enumerate() {
            for (i, instr) in thread.instructions().iter().enumerate() {
                let taint = match instr {
                    Instruction::Load { dst, .. } if mem_has_addr => Some(*dst),
                    Instruction::Alu { dst, op: AluOp::Mov, lhs, .. } => {
                        let source_tainted = match lhs {
                            Operand::Imm(v) => addrs.contains(&v.raw()),
                            Operand::Reg(r) => tainted.contains(&(t, *r)),
                        };
                        source_tainted.then_some(*dst)
                    }
                    Instruction::Alu { dst, .. } if idiom[t].contains(&i) => Some(*dst),
                    _ => None,
                };
                if let Some(dst) = taint {
                    changed |= tainted.insert((t, dst));
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 5: any remaining ALU instruction mixing taint or address
    // immediates into arithmetic defeats the rename.
    for (t, thread) in threads.iter().enumerate() {
        for (i, instr) in thread.instructions().iter().enumerate() {
            let Instruction::Alu { op, lhs, rhs, .. } = instr else { continue };
            if *op == AluOp::Mov || idiom[t].contains(&i) {
                continue;
            }
            for operand in [lhs, rhs] {
                match operand {
                    Operand::Imm(v) if addrs.contains(&v.raw()) => return None,
                    Operand::Reg(r) if tainted.contains(&(t, *r)) => return None,
                    _ => {}
                }
            }
        }
    }
    Some(addrs)
}

// ---------------------------------------------------------------------------
// The search over thread orders
// ---------------------------------------------------------------------------

/// The name every canonical test carries.
const CANONICAL_NAME: &str = "canon";

/// A test with the renaming that does not depend on the thread order done
/// once: registers and labels are renamed per thread, observed registers
/// along with them. Only the location renaming (first use across the
/// ordered threads) and the thread positions change between orders.
struct Prepared<'t> {
    test: &'t LitmusTest,
    /// The addresses the screen lets us rename (empty when it bailed).
    renamable: BTreeSet<u64>,
    /// Every thread with registers and labels renamed, addresses untouched.
    threads: Vec<ThreadProgram>,
    /// Per thread, the renamable addresses its instructions use, in
    /// first-use order.
    uses: Vec<Vec<u64>>,
    /// Renamable addresses no instruction uses, each with the rank of its
    /// [`leftover_signature`], in the order they take canonical names after
    /// the used ones (ties are ordered per thread order, see
    /// [`Prepared::arrange`]).
    leftovers: Vec<(usize, u64)>,
    /// Canonical location addresses, handed out in order.
    pool: Vec<u64>,
    /// Prints the pool's addresses as their canonical names.
    names: NameTable,
    /// The observed quantities and the condition, registers renamed; a
    /// register observation still names its thread's original index.
    observed: Vec<Observation>,
    condition: Vec<(Observation, Value)>,
}

/// Buffers one order's rendering reuses from the previous one.
#[derive(Default)]
struct Scratch {
    /// Renamable address → canonical address, in naming order.
    addr_map: Vec<(u64, u64)>,
    /// The canonical position of each original thread.
    positions: Vec<usize>,
    initial: Vec<(u64, Value)>,
    columns: Columns,
    observed: Vec<Observation>,
    condition: Vec<(Observation, Value)>,
}

impl<'t> Prepared<'t> {
    fn new(test: &'t LitmusTest) -> Self {
        let renamable = renamable_addresses(test).unwrap_or_default();
        let threads = test.program().threads();
        let mut regs: Vec<RegRenamer> = threads.iter().map(|_| RegRenamer::new()).collect();
        let mut uses = vec![Vec::new(); threads.len()];
        let renamed = threads
            .iter()
            .zip(&mut regs)
            .zip(&mut uses)
            .map(|((thread, regs), uses)| rename_thread(thread, regs, &renamable, uses))
            .collect();
        // Observed registers are renamed after every instruction, observed
        // list first, so an observed register no instruction writes takes
        // the next free number.
        let mut rename_obs = |obs: &Observation| match *obs {
            Observation::Register(proc, reg) => {
                Observation::Register(proc, regs[proc.index()].map(reg))
            }
            memory @ Observation::Memory(_) => memory,
        };
        let observed = test.observed().iter().map(&mut rename_obs).collect();
        let condition =
            test.condition().iter().map(|(obs, &value)| (rename_obs(obs), value)).collect();
        let mut signed: Vec<_> = renamable
            .iter()
            .filter(|a| !uses.iter().any(|u| u.contains(a)))
            .map(|&a| (leftover_signature(test, &renamable, a), a))
            .collect();
        signed.sort();
        let mut rank = 0;
        let leftovers = (0..signed.len())
            .map(|i| {
                rank += usize::from(i > 0 && signed[i - 1].0 != signed[i].0);
                (rank, signed[i].1)
            })
            .collect();
        let pool = canonical_pool(renamable.len());
        let mut names = NameTable::empty();
        for (name, _) in &pool {
            names.add(name);
        }
        let pool = pool.into_iter().map(|(_, address)| address).collect();
        Prepared {
            test,
            renamable,
            threads: renamed,
            uses,
            leftovers,
            pool,
            names,
            observed,
            condition,
        }
    }

    /// The smallest canonical text over the thread orders, and its order:
    /// every permutation up to [`MAX_PERMUTED_THREADS`] threads, the
    /// skeleton order above that.
    fn search(&self) -> (Vec<usize>, String) {
        let n = self.threads.len();
        let exhaustive = n <= MAX_PERMUTED_THREADS;
        let mut order: Vec<usize> =
            if exhaustive { (0..n).collect() } else { skeleton_order(self.test, &self.renamable) };
        let mut best_order = order.clone();
        let mut best: Option<String> = None;
        let mut candidate = String::new();
        let mut scratch = Scratch::default();
        loop {
            if self.render(&order, &mut scratch, &mut candidate, best.as_deref()) {
                let loser = best.replace(std::mem::take(&mut candidate));
                candidate = loser.unwrap_or_default();
                best_order.copy_from_slice(&order);
            }
            if !exhaustive || !next_permutation(&mut order) {
                break;
            }
        }
        (best_order, best.expect("at least one thread order"))
    }

    /// Everything but the threads' instructions for one thread order: the
    /// canonical names of the renamable addresses (the ones the
    /// instructions use, in first-use order, then the leftovers, whose
    /// signature ties are broken by the registers the condition expects to
    /// hold them, at their threads' positions in this order), each
    /// thread's position, the renamed initial memory sorted by address, and
    /// the observed list and condition exactly as [`LitmusTestBuilder`]
    /// stores them: the renamed observations deduplicated and sorted, then
    /// any condition quantity not yet observed, and the condition sorted.
    ///
    /// [`LitmusTestBuilder`]: gam_isa::litmus::LitmusTestBuilder
    fn arrange(&self, order: &[usize], scratch: &mut Scratch) {
        let Scratch { addr_map, positions, initial, observed, condition, .. } = scratch;
        addr_map.clear();
        for &thread in order {
            for &address in &self.uses[thread] {
                if !addr_map.iter().any(|&(old, _)| old == address) {
                    addr_map.push((address, self.pool[addr_map.len()]));
                }
            }
        }
        positions.resize(order.len(), 0);
        for (position, &thread) in order.iter().enumerate() {
            positions[thread] = position;
        }
        let holders = |address: u64| {
            let mut holders: Vec<(usize, Reg)> = self
                .condition
                .iter()
                .filter_map(|&(obs, value)| match obs {
                    Observation::Register(proc, reg) if value.raw() == address => {
                        Some((positions[proc.index()], reg))
                    }
                    _ => None,
                })
                .collect();
            holders.sort_unstable();
            holders
        };
        if self.leftovers.windows(2).all(|pair| pair[0].0 != pair[1].0) {
            for &(_, address) in &self.leftovers {
                addr_map.push((address, self.pool[addr_map.len()]));
            }
        } else {
            let mut keyed: Vec<_> = self
                .leftovers
                .iter()
                .map(|&(rank, address)| (rank, holders(address), address))
                .collect();
            keyed.sort_unstable();
            for (_, _, address) in keyed {
                addr_map.push((address, self.pool[addr_map.len()]));
            }
        }
        let rename = |value: u64| rename_address(addr_map, value);
        let rename_obs = |obs: &Observation| match *obs {
            Observation::Register(proc, reg) => {
                Observation::Register(ProcId::new(positions[proc.index()]), reg)
            }
            Observation::Memory(loc) => {
                Observation::Memory(Loc::from_address(rename(loc.address())))
            }
        };
        initial.clear();
        initial.extend(
            self.test
                .initial_memory()
                .iter()
                .map(|(&address, &value)| (rename(address), Value::new(rename(value.raw())))),
        );
        initial.sort_unstable_by_key(|&(address, _)| address);
        observed.clear();
        for obs in &self.observed {
            let renamed = rename_obs(obs);
            if !observed.contains(&renamed) {
                observed.push(renamed);
            }
        }
        observed.sort_unstable();
        condition.clear();
        condition.extend(
            self.condition
                .iter()
                .map(|(obs, value)| (rename_obs(obs), Value::new(rename(value.raw())))),
        );
        condition.sort_unstable();
        for (obs, _) in condition.iter() {
            if !observed.contains(obs) {
                observed.push(*obs);
            }
        }
    }

    /// Renders the canonical text under one thread order into `out`,
    /// comparing it with `best` as it goes. Returns false, leaving `out`
    /// partly written, as soon as the text compares no smaller than `best`;
    /// true when `out` holds a complete text smaller than `best` (or there
    /// is no `best` yet).
    fn render(
        &self,
        order: &[usize],
        scratch: &mut Scratch,
        out: &mut String,
        best: Option<&str>,
    ) -> bool {
        self.arrange(order, scratch);
        let mut race = Race { best, checked: 0, ahead: false };
        out.clear();
        write_head(out, CANONICAL_NAME, "");
        write_init(out, scratch.initial.iter().copied(), &self.names);
        if !race.keeps(out) {
            return false;
        }
        let Scratch { addr_map, columns, .. } = scratch;
        let rename = |value: u64| rename_address(addr_map, value);
        columns.clear();
        for &thread in order {
            columns.push_thread(&self.threads[thread], &self.names, &rename);
        }
        columns.write_header(out);
        if !race.keeps(out) {
            return false;
        }
        for row in 0..columns.rows() {
            columns.write_row(out, row);
            if !race.keeps(out) {
                return false;
            }
        }
        write_locations(out, &scratch.observed, &self.names);
        write_condition(
            out,
            scratch.condition.iter().map(|(obs, value)| (obs, value)),
            &self.names,
        );
        race.keeps(out) && race.wins(out)
    }

    /// Builds the canonical test of one thread order, the one whose text
    /// [`Prepared::render`] writes.
    fn build(&self, order: &[usize]) -> LitmusTest {
        let mut scratch = Scratch::default();
        self.arrange(order, &mut scratch);
        let rename = |value: u64| rename_address(&scratch.addr_map, value);
        let threads = order
            .iter()
            .enumerate()
            .map(|(position, &thread)| {
                let thread = &self.threads[thread];
                let mut builder = ThreadProgram::builder(ProcId::new(position));
                for (index, instr) in thread.instructions().iter().enumerate() {
                    add_labels(&mut builder, thread, index);
                    builder.push(rename_immediates(instr, &rename));
                }
                add_labels(&mut builder, thread, thread.len());
                builder.build()
            })
            .collect();
        let mut builder = LitmusTest::builder(CANONICAL_NAME, Program::new(threads));
        for &(address, value) in &scratch.initial {
            builder = builder.init(Loc::from_address(address), value);
        }
        for &obs in &scratch.observed {
            builder = builder.observe(obs);
        }
        for &(obs, value) in &scratch.condition {
            builder = builder.expect(obs, value);
        }
        builder.build()
    }
}

/// Compares a candidate text, while it is written, with the best so far.
struct Race<'b> {
    best: Option<&'b str>,
    /// Bytes of the candidate already compared.
    checked: usize,
    /// Whether a compared byte was already smaller than the best's.
    ahead: bool,
}

impl Race<'_> {
    /// Compares what was written since the last call; false once the
    /// candidate is known to compare larger.
    fn keeps(&mut self, out: &str) -> bool {
        let Some(best) = self.best else { return true };
        if self.ahead {
            return true;
        }
        let written = &out.as_bytes()[self.checked..];
        let rest = best.as_bytes().get(self.checked..).unwrap_or_default();
        let shared = written.len().min(rest.len());
        match written[..shared].cmp(&rest[..shared]) {
            std::cmp::Ordering::Less => self.ahead = true,
            std::cmp::Ordering::Greater => return false,
            // Equal so far: a candidate that runs past the end of the best
            // text has the best as a proper prefix, so it is larger.
            std::cmp::Ordering::Equal if written.len() > rest.len() => return false,
            std::cmp::Ordering::Equal => self.checked = out.len(),
        }
        true
    }

    /// Whether the finished candidate is smaller than the best.
    fn wins(&self, out: &str) -> bool {
        self.best.is_none_or(|best| self.ahead || out.len() < best.len())
    }
}

/// An address's canonical name under `addr_map`; any other value maps to
/// itself.
fn rename_address(addr_map: &[(u64, u64)], value: u64) -> u64 {
    addr_map.iter().find(|&&(old, _)| old == value).map_or(value, |&(_, new)| new)
}

/// A thread with registers renamed in first-use order and labels renamed to
/// `L1, L2, …` by target position; immediates are kept, and the renamable
/// ones are appended to `uses` in first-use order.
fn rename_thread(
    thread: &ThreadProgram,
    regs: &mut RegRenamer,
    renamable: &BTreeSet<u64>,
    uses: &mut Vec<u64>,
) -> ThreadProgram {
    let mut labels: Vec<(&String, usize)> =
        thread.labels().iter().map(|(name, &target)| (name, target)).collect();
    labels.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)));
    let label_map: BTreeMap<&str, String> = labels
        .iter()
        .enumerate()
        .map(|(k, (name, _))| (name.as_str(), format!("L{}", k + 1)))
        .collect();
    let mut builder = ThreadProgram::builder(thread.proc());
    let add_labels_at = |builder: &mut gam_isa::ThreadBuilder, index: usize| {
        for (name, _) in labels.iter().filter(|(_, target)| *target == index) {
            builder.label(label_map[name.as_str()].clone());
        }
    };
    // Operand visit order is fixed per instruction shape so that register
    // first-use assignment is naming-independent: sources before
    // destinations, address bases before data.
    let mut operand = |op: &Operand, regs: &mut RegRenamer| match *op {
        Operand::Imm(v) => {
            if renamable.contains(&v.raw()) && !uses.contains(&v.raw()) {
                uses.push(v.raw());
            }
            Operand::Imm(v)
        }
        Operand::Reg(r) => Operand::Reg(regs.map(r)),
    };
    for (i, instr) in thread.instructions().iter().enumerate() {
        add_labels_at(&mut builder, i);
        let rebuilt = match instr {
            Instruction::Alu { dst, op, lhs, rhs } => {
                let lhs = operand(lhs, regs);
                let rhs = operand(rhs, regs);
                Instruction::Alu { dst: regs.map(*dst), op: *op, lhs, rhs }
            }
            Instruction::Load { dst, addr } => {
                let base = operand(&addr.base, regs);
                Instruction::Load { dst: regs.map(*dst), addr: Addr { base, offset: addr.offset } }
            }
            Instruction::Store { addr, data } => {
                let base = operand(&addr.base, regs);
                let data = operand(data, regs);
                Instruction::Store { addr: Addr { base, offset: addr.offset }, data }
            }
            Instruction::Fence { kind } => Instruction::Fence { kind: *kind },
            Instruction::Branch { cond, lhs, rhs, target } => {
                let lhs = operand(lhs, regs);
                let rhs = operand(rhs, regs);
                let target = match label_map.get(target.name()) {
                    Some(name) => gam_isa::Label::new(name.clone()),
                    None => target.clone(),
                };
                Instruction::Branch { cond: *cond, lhs, rhs, target }
            }
        };
        builder.push(rebuilt);
    }
    add_labels_at(&mut builder, thread.len());
    builder.build()
}

/// Re-attaches the labels of `thread` that target `index`.
fn add_labels(builder: &mut gam_isa::ThreadBuilder, thread: &ThreadProgram, index: usize) {
    for (name, &target) in thread.labels() {
        if target == index {
            builder.label(name.clone());
        }
    }
}

/// An instruction with every immediate passed through `rename`.
fn rename_immediates(instr: &Instruction, rename: &impl Fn(u64) -> u64) -> Instruction {
    let operand = |op: Operand| match op {
        Operand::Imm(v) => Operand::Imm(Value::new(rename(v.raw()))),
        reg @ Operand::Reg(_) => reg,
    };
    let addr = |addr: Addr| Addr { base: operand(addr.base), offset: addr.offset };
    match instr {
        Instruction::Alu { dst, op, lhs, rhs } => {
            Instruction::Alu { dst: *dst, op: *op, lhs: operand(*lhs), rhs: operand(*rhs) }
        }
        Instruction::Load { dst, addr: a } => Instruction::Load { dst: *dst, addr: addr(*a) },
        Instruction::Store { addr: a, data } => {
            Instruction::Store { addr: addr(*a), data: operand(*data) }
        }
        Instruction::Fence { kind } => Instruction::Fence { kind: *kind },
        Instruction::Branch { cond, lhs, rhs, target } => Instruction::Branch {
            cond: *cond,
            lhs: operand(*lhs),
            rhs: operand(*rhs),
            target: target.clone(),
        },
    }
}

/// Steps `order` to the next permutation in lexicographic order; false
/// after the last one.
fn next_permutation(order: &mut [usize]) -> bool {
    let Some(i) = order.windows(2).rposition(|pair| pair[0] < pair[1]) else {
        return false;
    };
    let j = order.iter().rposition(|&x| x > order[i]).expect("a larger element follows");
    order.swap(i, j);
    order[i + 1..].reverse();
    true
}

/// Per-thread register renaming in first-use order.
struct RegRenamer {
    map: BTreeMap<Reg, Reg>,
    next: u32,
}

impl RegRenamer {
    fn new() -> Self {
        RegRenamer { map: BTreeMap::new(), next: 1 }
    }

    fn map(&mut self, r: Reg) -> Reg {
        if let Some(&mapped) = self.map.get(&r) {
            return mapped;
        }
        let mapped = Reg::new(self.next);
        self.next += 1;
        self.map.insert(r, mapped);
        mapped
    }
}

/// A renaming-invariant sort key for a renamable address that never appears
/// in an instruction: what it is initialized to, whether it is observed, and
/// which condition values mention it. Address-valued components collapse to
/// a marker (their concrete value is itself subject to renaming).
fn leftover_signature(
    test: &LitmusTest,
    renamable: &BTreeSet<u64>,
    addr: u64,
) -> (u8, u64, bool, Vec<u64>, usize, usize) {
    let value_class = |v: Value| -> (u8, u64) {
        if renamable.contains(&v.raw()) {
            (1, 0)
        } else {
            (0, v.raw())
        }
    };
    let init = test.initial_memory().get(&addr).map_or((2u8, 0u64), |&v| value_class(v));
    let observed = test
        .observed()
        .iter()
        .any(|obs| matches!(obs, Observation::Memory(loc) if loc.address() == addr));
    let mut cond_values: Vec<u64> = test
        .condition()
        .iter()
        .filter(|(obs, _)| matches!(obs, Observation::Memory(loc) if loc.address() == addr))
        .map(|(_, &v)| {
            let (class, raw) = value_class(v);
            (u64::from(class) << 32) | raw.min(u64::from(u32::MAX))
        })
        .collect();
    cond_values.sort_unstable();
    let value_mentions = test.condition().iter().filter(|(_, &v)| v.raw() == addr).count();
    let init_value_mentions = test.initial_memory().values().filter(|v| v.raw() == addr).count();
    (init.0, init.1, observed, cond_values, value_mentions, init_value_mentions)
}

/// The canonical location pool: `a`–`z`, then `aa`, `ab`, …, skipping any
/// name whose hashed address collides with an earlier pool entry.
fn canonical_pool(count: usize) -> Vec<(String, u64)> {
    let mut pool = Vec::with_capacity(count);
    let mut used = BTreeSet::new();
    let mut index = 0usize;
    while pool.len() < count {
        let name = alpha_name(index);
        index += 1;
        let addr = Loc::new(&name).address();
        if used.insert(addr) {
            pool.push((name, addr));
        }
    }
    pool
}

/// `0 → "a"`, `25 → "z"`, `26 → "aa"`, `27 → "ab"`, … (bijective base 26).
fn alpha_name(mut index: usize) -> String {
    let mut bytes = Vec::new();
    loop {
        bytes.push(b'a' + (index % 26) as u8);
        index /= 26;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    bytes.reverse();
    String::from_utf8(bytes).expect("ascii")
}

/// Deterministic thread order for programs too large to permute: sort by a
/// per-thread skeleton rendered with thread-local register numbering and
/// renamable addresses replaced by their thread-local first-use index.
fn skeleton_order(test: &LitmusTest, renamable: &BTreeSet<u64>) -> Vec<usize> {
    let mut keyed: Vec<(String, usize)> = test
        .program()
        .threads()
        .iter()
        .enumerate()
        .map(|(t, thread)| (thread_skeleton(thread, renamable), t))
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, t)| t).collect()
}

fn thread_skeleton(thread: &ThreadProgram, renamable: &BTreeSet<u64>) -> String {
    use std::fmt::Write as _;
    let mut regs = RegRenamer::new();
    let mut addrs: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = String::new();
    let operand = |operand: &Operand, regs: &mut RegRenamer, addrs: &mut BTreeMap<u64, usize>| {
        match operand {
            Operand::Reg(r) => regs.map(*r).to_string(),
            Operand::Imm(v) if renamable.contains(&v.raw()) => {
                let next = addrs.len();
                format!("A{}", *addrs.entry(v.raw()).or_insert(next))
            }
            Operand::Imm(v) => v.raw().to_string(),
        }
    };
    for instr in thread.instructions() {
        match instr {
            Instruction::Alu { dst, op, lhs, rhs } => {
                let lhs = operand(lhs, &mut regs, &mut addrs);
                let rhs = operand(rhs, &mut regs, &mut addrs);
                let _ = writeln!(out, "{} {lhs} {rhs} {}", op, regs.map(*dst));
            }
            Instruction::Load { dst, addr } => {
                let base = operand(&addr.base, &mut regs, &mut addrs);
                let _ = writeln!(out, "ld {base}+{} {}", addr.offset, regs.map(*dst));
            }
            Instruction::Store { addr, data } => {
                let base = operand(&addr.base, &mut regs, &mut addrs);
                let data = operand(data, &mut regs, &mut addrs);
                let _ = writeln!(out, "st {base}+{} {data}", addr.offset);
            }
            Instruction::Fence { kind } => {
                let _ = writeln!(out, "{kind}");
            }
            Instruction::Branch { cond, lhs, rhs, .. } => {
                let lhs = operand(lhs, &mut regs, &mut addrs);
                let rhs = operand(rhs, &mut regs, &mut addrs);
                let _ = writeln!(out, "{cond} {lhs} {rhs}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_isa::litmus::library;
    use gam_isa::{BranchCond, FenceKind};

    #[test]
    fn library_tests_have_stable_distinct_hashes() {
        let tests = library::all_tests();
        let mut by_hash: BTreeMap<String, String> = BTreeMap::new();
        for test in &tests {
            let h = canonical_hash(test);
            assert_eq!(h, canonical_hash(test), "{}: hash is deterministic", test.name());
            // Equal hashes are only acceptable for byte-equal canonical
            // texts (a genuine dedup), never as a spurious collision.
            let text = canonical_text(test);
            if let Some(previous) = by_hash.insert(h.to_string(), text.clone()) {
                assert_eq!(previous, text, "{}: hash collision across distinct forms", test.name());
            }
        }
        assert!(by_hash.len() >= 25, "library collapses too far: {} forms", by_hash.len());
    }

    #[test]
    fn thread_permutation_is_collapsed() {
        // Dekker with its two (symmetric-but-for-names) threads swapped.
        let a = Loc::new("a");
        let b = Loc::new("b");
        let build = |swap: bool| {
            let mut t0 = ThreadProgram::builder(ProcId::new(0));
            let mut t1 = ThreadProgram::builder(ProcId::new(1));
            if swap {
                t0.store(Addr::loc(b), Operand::imm(1));
                t0.load(Reg::new(7), Addr::loc(a));
                t1.store(Addr::loc(a), Operand::imm(1));
                t1.load(Reg::new(3), Addr::loc(b));
            } else {
                t0.store(Addr::loc(a), Operand::imm(1));
                t0.load(Reg::new(3), Addr::loc(b));
                t1.store(Addr::loc(b), Operand::imm(1));
                t1.load(Reg::new(7), Addr::loc(a));
            }
            let (obs0, obs1) = if swap { (1, 0) } else { (0, 1) };
            let (r0, r1) = (Reg::new(3), Reg::new(7));
            LitmusTest::builder("dekker-variant", Program::new(vec![t0.build(), t1.build()]))
                .observe_reg(ProcId::new(obs0), r0)
                .observe_reg(ProcId::new(obs1), r1)
                .expect_reg(ProcId::new(obs0), r0, 0)
                .expect_reg(ProcId::new(obs1), r1, 0)
                .build()
        };
        assert_eq!(canonical_hash(&build(false)), canonical_hash(&build(true)));
    }

    #[test]
    fn register_and_location_renaming_is_collapsed() {
        let build = |x: &str, y: &str, r: u32| {
            let xl = Loc::new(x);
            let yl = Loc::new(y);
            let mut t0 = ThreadProgram::builder(ProcId::new(0));
            t0.store(Addr::loc(xl), Operand::imm(1));
            t0.store(Addr::loc(yl), Operand::imm(1));
            let mut t1 = ThreadProgram::builder(ProcId::new(1));
            t1.load(Reg::new(r), Addr::loc(yl));
            t1.load(Reg::new(r + 5), Addr::loc(xl));
            LitmusTest::builder("mp-variant", Program::new(vec![t0.build(), t1.build()]))
                .observe_reg(ProcId::new(1), Reg::new(r))
                .observe_reg(ProcId::new(1), Reg::new(r + 5))
                .expect_reg(ProcId::new(1), Reg::new(r), 1)
                .expect_reg(ProcId::new(1), Reg::new(r + 5), 0)
                .build()
        };
        let base = canonical_hash(&build("a", "b", 1));
        assert_eq!(base, canonical_hash(&build("flag", "data", 1)));
        assert_eq!(base, canonical_hash(&build("p", "q", 11)));
        // A different condition must hash apart.
        let other = {
            let t = build("a", "b", 1);
            let mut flipped = LitmusTest::builder("mp-other", t.program().clone());
            for &obs in t.observed() {
                flipped = flipped.observe(obs);
            }
            flipped = flipped.expect(t.observed()[0], 0).expect(t.observed()[1], 1);
            flipped.build()
        };
        assert_ne!(base, canonical_hash(&other));
    }

    #[test]
    fn canonical_text_parses_back_to_the_canonical_test() {
        for test in library::all_tests() {
            let form = canonical_form(&test);
            let reparsed = crate::parser::parse_litmus(&form.text)
                .unwrap_or_else(|e| panic!("{}: canonical text must parse: {e}", test.name()));
            assert_eq!(reparsed, form.test, "{}", test.name());
            // Canonicalization is idempotent.
            assert_eq!(canonical_text(&form.test), form.text, "{}", test.name());
        }
    }

    #[test]
    fn screen_bails_on_address_arithmetic() {
        // r2 = a + 1 dereferenced: renaming `a` would change which address
        // the +1 lands on, so the screen must refuse to rename.
        let a = Loc::new("a");
        let mut t0 = ThreadProgram::builder(ProcId::new(0));
        t0.alu(Reg::new(1), AluOp::Add, Operand::loc(a), Operand::imm(1));
        t0.store(Addr::loc(a), Operand::imm(1));
        let test = LitmusTest::builder("addr-arith", Program::new(vec![t0.build()]))
            .observe_mem(a)
            .build();
        assert_eq!(renamable_addresses(&test), None);
        // The canonical text then keeps the raw address.
        assert!(canonical_text(&test).contains(&a.address().to_string()));
    }

    #[test]
    fn artificial_dependency_idiom_is_renamed() {
        let build = |name: &str| {
            let loc = Loc::new(name);
            let mut t0 = ThreadProgram::builder(ProcId::new(0));
            t0.load(Reg::new(1), Addr::loc(loc));
            t0.artificial_addr_dep(Reg::new(2), loc, Reg::new(1));
            t0.load(Reg::new(3), Addr::reg(Reg::new(2)));
            LitmusTest::builder("dep", Program::new(vec![t0.build()]))
                .observe_reg(ProcId::new(0), Reg::new(3))
                .expect_reg(ProcId::new(0), Reg::new(3), 0)
                .build()
        };
        let form = canonical_form(&build("x"));
        assert_eq!(form.text, canonical_form(&build("lock")).text);
        // The renamed location prints as a dictionary name, not an integer.
        assert!(form.text.contains("[a]"), "renamed to `a`:\n{}", form.text);
    }

    /// The canonical text by definition: build and print the canonical test
    /// of every thread order and keep the smallest text.
    fn reference_text(test: &LitmusTest) -> String {
        let prepared = Prepared::new(test);
        let mut order: Vec<usize> = (0..test.program().num_threads()).collect();
        let mut texts = Vec::new();
        loop {
            texts.push(crate::printer::print_litmus_with(&prepared.build(&order), &prepared.names));
            if !next_permutation(&mut order) {
                break;
            }
        }
        texts.into_iter().min().expect("at least one thread order")
    }

    /// A random program over three locations with forward branches and
    /// labels: several labels on one instruction, labels past the last
    /// instruction and often more than nine labels per thread, so label
    /// names sort apart from their numbers (`L10` < `L2`).
    fn branchy_test(seed: u64) -> LitmusTest {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let locations = [Loc::new("x"), Loc::new("y"), Loc::new("z")];
        let mut threads = Vec::new();
        let mut expected = Vec::new();
        for proc in 0..1 + below(4) as usize {
            let mut thread = ThreadProgram::builder(ProcId::new(proc));
            let len = 1 + below(6);
            for i in 0..=len {
                thread.label(format!("t{i}"));
                for k in 0..below(3) {
                    thread.label(format!("e{i}_{k}"));
                }
                if i == len {
                    break;
                }
                let loc = locations[below(3) as usize];
                let reg = Reg::new(1 + below(3) as u32);
                match below(5) {
                    0 => {
                        thread.store(Addr::loc(loc), Operand::imm(below(3)));
                    }
                    1 => {
                        thread.load(reg, Addr::loc(loc));
                        expected.push((ProcId::new(proc), reg, below(2)));
                    }
                    2 => {
                        let target = format!("t{}", i + 1 + below(len - i));
                        thread.branch(BranchCond::Eq, reg, Operand::imm(below(2)), target.as_str());
                    }
                    3 => {
                        thread.mov(reg, Operand::loc(loc));
                    }
                    _ => {
                        thread.fence(FenceKind::ALL[below(4) as usize]);
                    }
                }
            }
            threads.push(thread.build());
        }
        let mut builder = LitmusTest::builder("branchy", Program::new(threads));
        for (proc, reg, value) in expected {
            builder = builder.expect_reg(proc, reg, value);
        }
        builder.observe_mem(locations[0]).build()
    }

    #[test]
    fn search_finds_the_smallest_text_of_every_thread_order() {
        let mut tests = library::all_tests();
        tests.extend((0..300).map(branchy_test));
        for test in &tests {
            let form = canonical_form(test);
            assert_eq!(form.text, reference_text(test), "{}", test.name());
            let names = Prepared::new(test).names;
            assert_eq!(crate::printer::print_litmus_with(&form.test, &names), form.text);
        }
    }

    #[test]
    fn alpha_names_are_bijective() {
        assert_eq!(alpha_name(0), "a");
        assert_eq!(alpha_name(25), "z");
        assert_eq!(alpha_name(26), "aa");
        assert_eq!(alpha_name(27), "ab");
        assert_eq!(alpha_name(26 + 26 * 26), "aaa");
        let names: BTreeSet<String> = (0..1000).map(alpha_name).collect();
        assert_eq!(names.len(), 1000);
    }
}
