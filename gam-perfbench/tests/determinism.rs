//! One seed gives byte-identical inputs and identical exact counters; a
//! second seed gives different inputs.

use gam_axiomatic::AxiomaticChecker;
use gam_core::{model, ModelKind};
use gam_frontend::parse_litmus;
use gam_operational::{stress_tests, OperationalChecker};
use gam_perfbench::inputs::{big_inputs, rename, stress_inputs, Input, Rng, ServeStream};

fn stream(seed: u64, count: usize) -> Vec<Input> {
    let mut stream = ServeStream::new(seed);
    (0..count).map(|_| stream.next_request().input).collect()
}

#[test]
fn one_seed_gives_identical_inputs_and_another_seed_different_ones() {
    assert_eq!(stress_inputs(7), stress_inputs(7));
    assert_ne!(stress_inputs(7), stress_inputs(8));
    // The big population is fixed: the seed does not change it.
    assert_eq!(big_inputs(), big_inputs());
    assert_eq!(stream(7, 64), stream(7, 64));
    assert_ne!(stream(7, 64), stream(8, 64));
}

#[test]
fn one_seed_gives_identical_exact_counters() {
    let counters = |seed: u64| {
        let mut sums = (0u64, 0u64, 0usize);
        for (input, events) in stress_inputs(seed).into_iter().take(30) {
            if events > 6 {
                continue;
            }
            let test = parse_litmus(&input.text).expect("printed text parses");
            let checker = AxiomaticChecker::new(model::by_kind(ModelKind::Gam));
            let (_, stats) = checker.allowed_outcomes_with_stats(&test).expect("small test");
            sums.0 += stats.assignments_enumerated;
            sums.1 += stats.orders_visited;
        }
        let big = parse_litmus(&big_inputs()[0].text).expect("printed text parses");
        sums.2 =
            OperationalChecker::new(ModelKind::Sc).explore(&big).expect("explores").states_visited;
        sums
    };
    assert_eq!(counters(3), counters(3));
}

#[test]
fn renaming_keeps_every_verdict() {
    for (index, test) in stress_tests(11, 24).iter().enumerate() {
        let renamed = rename(test, &mut Rng::new(11, index as u64), "renamed");
        let reparsed =
            parse_litmus(&gam_frontend::print_litmus(&renamed)).expect("renamed text parses");
        assert_eq!(reparsed, renamed, "print/parse round trip");
        for kind in [ModelKind::Tso, ModelKind::Gam] {
            let checker = OperationalChecker::new(kind);
            let original = checker.allowed_outcomes(test).expect("explores");
            let variant = checker.allowed_outcomes(&renamed).expect("explores");
            assert_eq!(original.len(), variant.len(), "{} under {kind}", test.name());
            assert_eq!(checker.is_allowed(test), checker.is_allowed(&renamed), "{}", test.name());
        }
    }
}
