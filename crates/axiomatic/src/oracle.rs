//! The oracle the checker is tested against: a brute-force reading of
//! GAM's axioms (Section IV-A, Figure 15). [`allowed_outcomes`] tries every
//! total order `<mo` of the memory events. LoadValue gives each load the
//! datum of the `<mo`-latest same-address store before it in `<mo` or, with
//! local bypass, in program order; register values and addresses follow by
//! a fixpoint, and an order that leaves anything unresolved is dropped. An
//! order is kept iff it contains every thread's `<ppo` (InstOrder).
//!
//! It shares no code with the checker's read-from enumeration, value
//! propagation, memory-order search or projection: the one definition both
//! call is `gam_core`'s `<ppo`. It is test code, exponential in the memory
//! events (8 events are 40,320 orders).

use std::collections::{BTreeSet, HashMap};

use gam_core::{model::ModelSpec, ppo, ResolvedInstr, RfSource};
use gam_isa::litmus::{LitmusTest, Observation, Outcome};
use gam_isa::{Instruction, Operand, Reg, Value};

/// The memory `<ppo` pairs of every thread, by the read-from sources they
/// were computed from.
type PpoMemo = HashMap<Vec<Option<RfSource>>, Vec<(usize, usize)>>;

/// Every outcome `model` allows for the branch-free `test`, projected onto
/// its observations.
#[must_use]
pub fn allowed_outcomes(test: &LitmusTest, model: &ModelSpec) -> BTreeSet<Outcome> {
    assert!(!test.program().has_branches(), "the oracle reads branch-free programs only");
    // Every instruction with its thread, in thread-major program order; the
    // positions in this list index everything below.
    let instrs: Vec<(usize, &Instruction)> =
        test.program().iter_instructions().map(|(proc, _, instr)| (proc.index(), instr)).collect();
    let memory: Vec<usize> = (0..instrs.len()).filter(|&k| instrs[k].1.is_memory()).collect();
    // `rank[k]`: the `<mo` position of memory instruction `k`.
    let mut rank = vec![usize::MAX; instrs.len()];
    let stores: Vec<usize> = memory.iter().copied().filter(|&k| instrs[k].1.is_store()).collect();
    // `sources[k]`: each register instruction `k` reads, with the instruction
    // whose value it holds there (`None`: still its initial 0).
    let sources: Vec<Vec<(Reg, Option<usize>)>> = instrs
        .iter()
        .enumerate()
        .map(|(k, &(p, instr))| {
            instr.read_set().into_iter().map(|r| (r, writer(&instrs, k, p, r))).collect()
        })
        .collect();
    let (mut outcomes, mut ppo_memo) = (BTreeSet::new(), PpoMemo::default());
    permute(&mut Vec::new(), &mut vec![false; memory.len()], &mut |order| {
        for (position, &event) in order.iter().enumerate() {
            rank[memory[event]] = position;
        }
        outcomes.extend(execute(test, model, &instrs, &stores, &sources, &rank, &mut ppo_memo));
    });
    outcomes
}

/// Calls `visit` with every permutation of `0..used.len()`, lexicographically.
pub(crate) fn permute(order: &mut Vec<usize>, used: &mut [bool], visit: &mut impl FnMut(&[usize])) {
    if order.len() == used.len() {
        return visit(order);
    }
    for event in 0..used.len() {
        if !used[event] {
            used[event] = true;
            order.push(event);
            permute(order, used, visit);
            order.pop();
            used[event] = false;
        }
    }
}

/// The outcome of the execution whose memory order `rank` gives, or `None`
/// when that order leaves a value unresolved or violates InstOrder.
fn execute(
    test: &LitmusTest,
    model: &ModelSpec,
    instrs: &[(usize, &Instruction)],
    stores: &[usize],
    sources: &[Vec<(Reg, Option<usize>)>],
    rank: &[usize],
    ppo_memo: &mut PpoMemo,
) -> Option<Outcome> {
    let n = instrs.len();
    let is_store = |k: usize| instrs[k].1.is_store();
    let bypass = model.load_value_local_bypass();
    let (mut value, mut addr, mut rf) = (vec![None; n], vec![None; n], vec![None; n]);
    let mut progress = true;
    while progress {
        progress = false;
        for (k, &(p, instr)) in instrs.iter().enumerate() {
            if value[k].is_some() {
                continue;
            }
            let operand = |op: &Operand| match op {
                Operand::Imm(v) => Some(*v),
                Operand::Reg(r) => {
                    let read = sources[k].iter().find(|(read, _)| read == r);
                    read.expect("a read register").1.map_or(Some(Value::ZERO), |w| value[w])
                }
            };
            if let Instruction::Load { addr: a, .. } | Instruction::Store { addr: a, .. } = instr {
                addr[k] = operand(&a.base).map(|base| a.evaluate(base).raw());
            }
            value[k] = match instr {
                Instruction::Alu { op, lhs, rhs, .. } => {
                    operand(lhs).zip(operand(rhs)).map(|(l, r)| op.apply(l, r))
                }
                Instruction::Store { data, .. } => operand(data).filter(|_| addr[k].is_some()),
                Instruction::Load { .. } => addr[k].and_then(|a| {
                    // LoadValue: the candidates are the stores before the load
                    // in `<mo` or, with local bypass, in `<po`. Each one's
                    // address must be known to tell whether it writes `a`.
                    let candidates = stores
                        .iter()
                        .copied()
                        .filter(|&s| rank[s] < rank[k] || (bypass && instrs[s].0 == p && s < k));
                    if candidates.clone().any(|s| addr[s].is_none()) {
                        return None;
                    }
                    let latest =
                        candidates.filter(|&s| addr[s] == Some(a)).max_by_key(|&s| rank[s]);
                    rf[k] = Some(latest.map_or(RfSource::Init(a), |s| RfSource::Store(s as u32)));
                    latest.map_or(Some(test.initial_value(a)), |s| value[s])
                }),
                // Fences; branches were rejected up front.
                _ => Some(Value::ZERO),
            };
            progress |= value[k].is_some();
        }
    }
    if value.contains(&None) {
        return None;
    }

    // InstOrder: every thread's memory `<ppo` is contained in `<mo`. `<ppo`
    // depends on the addresses and read-from sources alone, and once every
    // value resolved, the read-from sources fix every value and so every
    // address. So `<ppo` is computed once per distinct read-from vector.
    let ppo_pairs = if let Some(pairs) = ppo_memo.get(&rf) {
        pairs
    } else {
        let mut pairs = Vec::new();
        for p in 0..test.program().num_threads() {
            let thread: Vec<usize> = (0..n).filter(|&k| instrs[k].0 == p).collect();
            let resolved: Vec<ResolvedInstr> = thread
                .iter()
                .map(|&k| ResolvedInstr::from_instruction(instrs[k].1, addr[k], rf[k]))
                .collect();
            let thread_ppo = gam_core::preserved_program_order(&resolved, model);
            let memory_ppo = ppo::memory_ppo(&resolved, &thread_ppo);
            pairs.extend(memory_ppo.iter_pairs().map(|(i, j)| (thread[i], thread[j])));
        }
        ppo_memo.entry(rf).or_insert(pairs)
    };
    if ppo_pairs.iter().any(|&(i, j)| rank[i] > rank[j]) {
        return None;
    }

    let mut outcome = Outcome::new();
    for observation in test.observed() {
        let (last, initial) = match *observation {
            Observation::Register(proc, reg) => (writer(instrs, n, proc.index(), reg), Value::ZERO),
            // A location ends with the datum of its `<mo`-last store.
            Observation::Memory(loc) => {
                let a = loc.address();
                let stores = (0..n).filter(|&s| is_store(s) && addr[s] == Some(a));
                (stores.max_by_key(|&s| rank[s]), test.initial_value(a))
            }
        };
        outcome.set(*observation, last.map_or(initial, |k| value[k].expect("resolved")));
    }
    Some(outcome)
}

/// The youngest instruction of thread `p` before index `before` that writes
/// `reg`: the one whose value `reg` holds there.
fn writer(instrs: &[(usize, &Instruction)], before: usize, p: usize, reg: Reg) -> Option<usize> {
    (0..before).rev().find(|&w| instrs[w].0 == p && instrs[w].1.write_set().contains(&reg))
}
