//! Canonicalizer pins (the serve cache's correctness contract):
//!
//! * `canonical_hash` is invariant under thread permutation, per-thread
//!   register renaming and label renaming — always;
//! * it is additionally invariant under location (address) renaming
//!   whenever the soundness screen admits the rename (detectable from the
//!   canonical text: no raw address integers survive);
//! * distinct conditions / outcome sets hash apart — hash equality implies
//!   canonical-text equality across the whole library;
//! * canonicalization preserves the operational GAM verdict, the property
//!   the cache's correctness actually rests on.

use std::collections::BTreeMap;

use gam_engine::Engine;
use gam_frontend::{canonical_form, canonical_hash, canonical_test, canonical_text};
use gam_isa::litmus::{library, space, LitmusTest, Observation};
use gam_isa::prelude::*;
use proptest::prelude::*;

mod common;
use common::random_test;

// ---------------------------------------------------------------------------
// renaming machinery
// ---------------------------------------------------------------------------

/// Fresh location names for the renaming image; double letters keep them
/// disjoint from every name the library or the generators use.
const FRESH_NAMES: [&str; 8] = ["kk", "ll", "mm", "nn", "oo", "pp", "qq", "rr"];

/// Maps every address-range constant of `test` onto fresh locations.
fn fresh_loc_map(test: &LitmusTest) -> BTreeMap<u64, u64> {
    let mut addrs = std::collections::BTreeSet::new();
    let mut see_operand = |op: &Operand| {
        if let Operand::Imm(v) = op {
            if v.raw() >= Loc::REGION_BASE {
                addrs.insert(v.raw());
            }
        }
    };
    for (_, _, instr) in test.program().iter_instructions() {
        match instr {
            Instruction::Alu { lhs, rhs, .. } | Instruction::Branch { lhs, rhs, .. } => {
                see_operand(lhs);
                see_operand(rhs);
            }
            Instruction::Load { addr, .. } => see_operand(&addr.base),
            Instruction::Store { addr, data } => {
                see_operand(&addr.base);
                see_operand(data);
            }
            Instruction::Fence { .. } => {}
        }
    }
    for (&key, &value) in test.initial_memory() {
        addrs.insert(key);
        if value.raw() >= Loc::REGION_BASE {
            addrs.insert(value.raw());
        }
    }
    for obs in test.observed() {
        if let Observation::Memory(loc) = obs {
            addrs.insert(loc.address());
        }
    }
    for (obs, value) in test.condition().iter() {
        if let Observation::Memory(loc) = obs {
            addrs.insert(loc.address());
        }
        if value.raw() >= Loc::REGION_BASE {
            addrs.insert(value.raw());
        }
    }
    assert!(addrs.len() <= FRESH_NAMES.len(), "not enough fresh names");
    let map: BTreeMap<u64, u64> =
        addrs.iter().zip(FRESH_NAMES).map(|(&old, name)| (old, Loc::new(name).address())).collect();
    map
}

/// Rebuilds `test` with threads permuted by `order`, registers renamed by
/// `reg_map`, labels suffixed, and addresses relocated by `loc_map`.
fn rename(
    test: &LitmusTest,
    loc_map: &BTreeMap<u64, u64>,
    reg_map: impl Fn(Reg) -> Reg + Copy,
    order: &[usize],
) -> LitmusTest {
    let map_value = |v: Value| -> Value { loc_map.get(&v.raw()).copied().map_or(v, Value::new) };
    let map_operand = |op: &Operand| -> Operand {
        match op {
            Operand::Imm(v) => Operand::Imm(map_value(*v)),
            Operand::Reg(r) => Operand::Reg(reg_map(*r)),
        }
    };
    let threads = test.program().threads();
    let mut new_pos = vec![0usize; threads.len()];
    for (pos, &old) in order.iter().enumerate() {
        new_pos[old] = pos;
    }
    let mut rebuilt = Vec::new();
    for (pos, &old) in order.iter().enumerate() {
        let thread = &threads[old];
        let mut builder = ThreadProgram::builder(ProcId::new(pos));
        for (i, instr) in thread.instructions().iter().enumerate() {
            for (name, &target) in thread.labels() {
                if target == i {
                    builder.label(format!("{name}q"));
                }
            }
            builder.push(match instr {
                Instruction::Alu { dst, op, lhs, rhs } => Instruction::Alu {
                    dst: reg_map(*dst),
                    op: *op,
                    lhs: map_operand(lhs),
                    rhs: map_operand(rhs),
                },
                Instruction::Load { dst, addr } => Instruction::Load {
                    dst: reg_map(*dst),
                    addr: Addr { base: map_operand(&addr.base), offset: addr.offset },
                },
                Instruction::Store { addr, data } => Instruction::Store {
                    addr: Addr { base: map_operand(&addr.base), offset: addr.offset },
                    data: map_operand(data),
                },
                Instruction::Fence { kind } => Instruction::Fence { kind: *kind },
                Instruction::Branch { cond, lhs, rhs, target } => Instruction::Branch {
                    cond: *cond,
                    lhs: map_operand(lhs),
                    rhs: map_operand(rhs),
                    target: Label::new(format!("{}q", target.name())),
                },
            });
        }
        for (name, &target) in thread.labels() {
            if target == thread.len() {
                builder.label(format!("{name}q"));
            }
        }
        rebuilt.push(builder.build());
    }
    let map_obs = |obs: &Observation| -> Observation {
        match obs {
            Observation::Register(proc, reg) => {
                Observation::Register(ProcId::new(new_pos[proc.index()]), reg_map(*reg))
            }
            Observation::Memory(loc) => Observation::Memory(Loc::from_address(
                loc_map.get(&loc.address()).copied().unwrap_or(loc.address()),
            )),
        }
    };
    let mut builder =
        LitmusTest::builder(format!("{}-renamed", test.name()), Program::new(rebuilt));
    for (&key, &value) in test.initial_memory() {
        let key = loc_map.get(&key).copied().unwrap_or(key);
        builder = builder.init(Loc::from_address(key), map_value(value));
    }
    for obs in test.observed() {
        builder = builder.observe(map_obs(obs));
    }
    for (obs, &value) in test.condition().iter() {
        builder = builder.expect(map_obs(obs), map_value(value));
    }
    builder.build()
}

fn reversed_order(n: usize) -> Vec<usize> {
    (0..n).rev().collect()
}

/// True when the location-renaming screen admitted the test: every address
/// was renamed onto the dictionary, so no raw address integer (≥ 9 digits)
/// survives in the canonical text.
fn fully_renamed(canonical: &str) -> bool {
    let mut digits = 0usize;
    for byte in canonical.bytes() {
        if byte.is_ascii_digit() {
            digits += 1;
            if digits >= 9 {
                return false;
            }
        } else {
            digits = 0;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// library invariance
// ---------------------------------------------------------------------------

#[test]
fn library_hash_is_invariant_under_thread_and_register_renaming() {
    for test in library::all_tests() {
        let base = canonical_hash(&test);
        let order = reversed_order(test.program().num_threads());
        let renamed = rename(&test, &BTreeMap::new(), |r| Reg::new(r.index() * 7 + 3), &order);
        assert_eq!(
            base,
            canonical_hash(&renamed),
            "{}: thread/register renaming changed the hash",
            test.name()
        );
    }
}

#[test]
fn library_hash_is_invariant_under_location_renaming_when_screened_in() {
    let mut screened_in = 0usize;
    let tests = library::all_tests();
    for test in &tests {
        if !fully_renamed(&canonical_text(test)) {
            continue; // the screen bailed; location names are kept as-is
        }
        screened_in += 1;
        let loc_map = fresh_loc_map(test);
        let order = reversed_order(test.program().num_threads());
        let renamed = rename(test, &loc_map, |r| Reg::new(r.index() + 11), &order);
        assert_eq!(
            canonical_hash(test),
            canonical_hash(&renamed),
            "{}: location renaming changed the hash",
            test.name()
        );
    }
    assert!(
        screened_in * 10 >= tests.len() * 8,
        "screen admits only {screened_in}/{} library tests",
        tests.len()
    );
}

#[test]
fn hash_equality_implies_canonical_text_equality_across_the_library() {
    let tests = library::all_tests();
    for (i, a) in tests.iter().enumerate() {
        for b in tests.iter().skip(i + 1) {
            if canonical_hash(a) == canonical_hash(b) {
                assert_eq!(
                    canonical_text(a),
                    canonical_text(b),
                    "{} vs {}: spurious hash collision",
                    a.name(),
                    b.name()
                );
            }
        }
    }
}

#[test]
fn different_conditions_hash_apart() {
    let test = library::mp();
    let mut flipped = LitmusTest::builder("mp-flipped", test.program().clone());
    for (&key, &value) in test.initial_memory() {
        flipped = flipped.init(Loc::from_address(key), value);
    }
    for &obs in test.observed() {
        flipped = flipped.observe(obs);
    }
    for (&obs, &value) in test.condition().iter() {
        // Invert every expected value: a different outcome of interest.
        flipped = flipped.expect(obs, u64::from(value.is_zero()));
    }
    let flipped = flipped.build();
    assert_ne!(test.condition(), flipped.condition());
    assert_ne!(canonical_hash(&test), canonical_hash(&flipped));
}

// ---------------------------------------------------------------------------
// verdict preservation
// ---------------------------------------------------------------------------

#[test]
fn canonicalization_preserves_the_operational_gam_verdict() {
    let engine = Engine::operational(gam_core::ModelKind::Gam).expect("gam supported");
    for test in library::all_tests().into_iter().take(12) {
        let canon = canonical_test(&test);
        let original = engine.check(&test).expect("original checks");
        let canonical = engine.check(&canon).expect("canonical checks");
        assert_eq!(original, canonical, "{}: canonicalization changed the verdict", test.name());
    }
}

// ---------------------------------------------------------------------------
// random programs
// ---------------------------------------------------------------------------

/// Checks the renaming invariants on the program of `seed` in
/// `space::CANONICAL`, the vocabulary the renaming screen is designed to
/// admit.
fn assert_invariant(seed: u64) {
    let test = random_test(&space::CANONICAL, seed);
    let base = canonical_hash(&test);
    let order = reversed_order(test.program().num_threads());
    // Thread + register renaming: always invariant.
    let renamed = rename(&test, &BTreeMap::new(), |r| Reg::new(r.index() * 3 + 2), &order);
    assert_eq!(base, canonical_hash(&renamed), "seed {seed}: thread/register renaming");
    // Location renaming: invariant whenever the screen admitted the test.
    if fully_renamed(&canonical_form(&test).text) {
        let loc_map = fresh_loc_map(&test);
        let relocated = rename(&test, &loc_map, |r| Reg::new(r.index() + 5), &order);
        assert_eq!(base, canonical_hash(&relocated), "seed {seed}: location renaming");
    }
}

#[test]
fn random_programs_hash_invariantly() {
    let mut admitted = 0usize;
    for seed in 0..200u64 {
        assert_invariant(seed);
        if fully_renamed(&canonical_text(&random_test(&space::CANONICAL, seed))) {
            admitted += 1;
        }
    }
    // The generator stays inside the screen's vocabulary, so the location
    // rename must be admitted for the overwhelming majority of programs.
    assert!(admitted >= 150, "screen admits only {admitted}/200 random programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_hash_invariantly_property(seed in 1000u64..100_000) {
        assert_invariant(seed);
    }
}
