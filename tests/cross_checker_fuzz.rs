//! Property-style differential testing between the axiomatic checker and the
//! operational machines on *randomly generated* litmus tests, plus structural
//! properties of the checker outputs.
//!
//! The programs (`space::CROSS_BACKEND`: immediate and address stores,
//! plain and address-dependent loads, stores of a loaded register, fences)
//! are kept small (2 threads, up to 3 steps each, 2 locations, at most 6
//! memory events) so the exhaustive checkers stay fast while still covering
//! a space of programs far larger than the hand-written library, including
//! addresses that are only known at run time.

use gam::axiomatic::AxiomaticChecker;
use gam::core::{model, ModelKind};
use gam::isa::litmus::space;
use gam::operational::OperationalChecker;

#[test]
fn axiomatic_and_operational_agree_on_random_programs() {
    for seed in 0..60u64 {
        let test = space::build(&space::CROSS_BACKEND.sample(seed));
        for kind in [ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0] {
            let axiomatic = AxiomaticChecker::new(model::by_kind(kind))
                .allowed_outcomes(&test)
                .expect("axiomatic check succeeds");
            let operational = OperationalChecker::new(kind)
                .allowed_outcomes(&test)
                .expect("operational check succeeds");
            assert_eq!(
                axiomatic,
                operational,
                "seed {seed} under {kind}: outcome sets differ\nprogram:\n{}",
                test.program()
            );
        }
    }
}

#[test]
fn stronger_models_allow_fewer_outcomes_on_random_programs() {
    for seed in 0..60u64 {
        let test = space::build(&space::CROSS_BACKEND.sample(seed));
        let sc = AxiomaticChecker::new(model::sc()).allowed_outcomes(&test).unwrap();
        let tso = AxiomaticChecker::new(model::tso()).allowed_outcomes(&test).unwrap();
        let gam = AxiomaticChecker::new(model::gam()).allowed_outcomes(&test).unwrap();
        let gam_arm = AxiomaticChecker::new(model::gam_arm()).allowed_outcomes(&test).unwrap();
        let gam0 = AxiomaticChecker::new(model::gam0()).allowed_outcomes(&test).unwrap();
        assert!(sc.is_subset(&tso), "seed {seed}: SC ⊄ TSO");
        assert!(tso.is_subset(&gam), "seed {seed}: TSO ⊄ GAM");
        assert!(gam.is_subset(&gam_arm), "seed {seed}: GAM ⊄ GAM-ARM");
        assert!(gam_arm.is_subset(&gam0), "seed {seed}: GAM-ARM ⊄ GAM0");
        assert!(!sc.is_empty(), "seed {seed}: SC must allow at least one outcome");
    }
}
