//! Small-scope exhaustive agreement: every program of `space::SMALL_SCOPE`
//! (2 threads × 1 step over the full straight-line alphabet), each
//! canonical form (`canonical_hash`) checked once.
//!
//! * The axiomatic checker and the operational machine give the same
//!   outcome set under SC, TSO, GAM and GAM0.
//! * The axiomatic checker and the brute-force `gam_axiomatic::oracle` give
//!   the same outcome set under all five models.
//! * Outcome sets grow along SC ⊆ TSO ⊆ GAM ⊆ GAM-ARM ⊆ GAM0.
//!
//! The raw and canonical program counts are pinned, so a change to the
//! alphabet or to the canonicalizer shows up here.

use std::collections::HashSet;

use gam::axiomatic::{oracle, AxiomaticChecker};
use gam::core::{model, ModelKind};
use gam::frontend::canonical_hash;
use gam::isa::litmus::space;
use gam::operational::OperationalChecker;

/// The strength order, weakest last.
const CHAIN: [ModelKind; 5] =
    [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::GamArm, ModelKind::Gam0];

#[test]
fn every_two_thread_one_step_program_agrees_across_checkers_and_models() {
    let mut canonical = HashSet::new();
    let mut raw = 0usize;
    for program in space::SMALL_SCOPE.enumerate() {
        raw += 1;
        let test = space::build(&program);
        if !canonical.insert(canonical_hash(&test)) {
            continue;
        }
        let mut stronger = None;
        for kind in CHAIN {
            let spec = model::by_kind(kind);
            let what = format!("{kind} on {program:?}:\n{}", test.program());
            let checked = AxiomaticChecker::new(spec.clone())
                .allowed_outcomes(&test)
                .expect("the axiomatic check succeeds");
            assert_eq!(checked, oracle::allowed_outcomes(&test, &spec), "checker ≠ oracle, {what}");
            if kind != ModelKind::GamArm {
                let explored = OperationalChecker::new(kind)
                    .allowed_outcomes(&test)
                    .expect("the operational check succeeds");
                assert_eq!(checked, explored, "axiomatic ≠ operational, {what}");
            }
            if let Some(stronger) = &stronger {
                assert!(checked.is_superset(stronger), "a stronger model allows more, {what}");
            }
            stronger = Some(checked);
        }
    }
    assert_eq!((raw, canonical.len()), (1_369, 451), "raw and canonical program counts");
}
