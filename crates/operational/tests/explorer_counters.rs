//! The explorer's work counters, pinned to literal values.
//!
//! Every sequential exploration of the litmus library under {SC, TSO, GAM,
//! GAM0} must report exactly the counters below: `states_visited`,
//! `final_states`, `transitions_pruned`, the component arena's occupancy,
//! and the peak accounted bytes under a budget too roomy to ever degrade.
//! The search is deterministic, so any change to these numbers is a change
//! in *what the explorer does* — a refactor of the driver must leave every
//! one of them intact. A deliberate change to the search (a stronger
//! reduction, a different poll cadence) updates the table in the same
//! commit and says why. The unreduced reference search's state and
//! final-state counts ride along: they are the size of the full state
//! space, which no change to the explorer may move.

use gam_core::ModelKind;
use gam_isa::litmus::library;
use gam_operational::{MemoryConfig, OperationalChecker};

/// One row per `test model`, then two groups: `states final` of the
/// unreduced reference search (`OperationalChecker::explore_reference`),
/// and `states final pruned memories procs interned_bytes peak_bytes` of
/// the explorer.
const COUNTERS: &str = "
dekker sc                   | 13 3 | 12 3 2 4 6 560 1468
dekker tso                  | 34 4 | 18 4 11 4 12 1272 2266
dekker gam                  | 25 4 | 21 4 8 4 12 1948 3445
dekker gam0                 | 25 4 | 21 4 8 4 12 1948 3445
oota sc                     | 9 1 | 9 1 2 4 5 492 1265
oota tso                    | 16 1 | 10 1 4 4 7 800 1618
oota gam                    | 16 1 | 10 1 4 4 8 1304 2122
oota gam0                   | 16 1 | 10 1 4 4 8 1304 2122
store-forwarding sc         | 4 1 | 4 1 0 3 4 280 644
store-forwarding tso        | 9 1 | 9 1 0 3 9 840 1429
store-forwarding gam        | 8 1 | 8 1 0 3 8 1576 2120
store-forwarding gam0       | 8 1 | 8 1 0 3 8 1576 2120
mp+addr sc                  | 14 2 | 11 2 4 3 8 604 1467
mp+addr tso                 | 26 2 | 9 2 8 3 8 820 1593
mp+addr gam                 | 19 2 | 10 2 4 3 10 1664 2482
mp+addr gam0                | 19 2 | 10 2 4 3 10 1664 2482
mp+artificial-addr sc       | 27 3 | 20 3 5 3 13 1080 2348
mp+artificial-addr tso      | 48 3 | 16 3 9 3 13 1392 2480
mp+artificial-addr gam      | 32 3 | 19 3 6 3 16 3740 4963
mp+artificial-addr gam0     | 32 3 | 19 3 6 3 16 3740 4963
mp+mem-dep sc               | 37 3 | 26 3 7 7 17 1728 3266
mp+mem-dep tso              | 115 3 | 30 3 13 7 27 3368 5086
mp+mem-dep gam              | 75 3 | 35 3 10 7 32 10444 12387
mp+mem-dep gam0             | 75 3 | 35 3 10 7 32 10444 12387
mp+prefetch sc              | 29 4 | 21 4 7 3 14 1172 2485
mp+prefetch tso             | 48 4 | 16 4 10 3 14 1496 2584
mp+prefetch gam             | 52 4 | 25 4 17 3 22 4292 5785
mp+prefetch gam0            | 53 4 | 25 4 17 3 22 4292 5785
corr sc                     | 9 3 | 9 3 0 2 7 524 1113
corr tso                    | 12 3 | 10 3 1 2 8 776 1410
corr gam                    | 9 3 | 9 3 0 2 8 1100 1689
corr gam0                   | 13 4 | 13 4 0 2 11 1532 2301
corr+intervening-store sc   | 46 5 | 37 5 7 5 21 2036 4069
corr+intervening-store tso  | 125 6 | 48 6 26 5 31 3920 6632
corr+intervening-store gam  | 107 7 | 79 7 33 5 44 14668 18775
corr+intervening-store gam0 | 107 7 | 79 7 33 5 44 14668 18775
rsw sc                      | 47 3 | 32 3 9 3 21 2168 3976
rsw tso                     | 84 3 | 24 3 13 3 21 2624 4072
rsw gam                     | 167 3 | 88 3 86 3 68 28504 33016
rsw gam0                    | 197 4 | 101 4 75 3 81 34068 39165
rnsw sc                     | 67 3 | 45 3 18 4 23 2460 5037
rnsw tso                    | 152 3 | 30 3 23 4 22 2872 4774
rnsw gam                    | 239 3 | 108 3 112 4 70 29744 35340
rnsw gam0                   | 281 4 | 134 4 171 4 83 35464 42230
dekker+fence-sl sc          | 22 3 | 17 3 4 4 7 652 1785
dekker+fence-sl tso         | 31 3 | 15 3 6 4 9 940 1983
dekker+fence-sl gam         | 22 3 | 14 3 4 4 10 2088 3086
dekker+fence-sl gam0        | 22 3 | 14 3 4 4 10 2088 3086
mp sc                       | 13 3 | 12 3 2 3 8 648 1556
mp tso                      | 23 3 | 12 3 5 3 9 944 1852
mp gam                      | 25 4 | 21 4 8 4 13 2076 3573
mp gam0                     | 25 4 | 21 4 8 4 13 2076 3573
mp+fences sc                | 22 3 | 17 3 4 3 11 836 1969
mp+fences tso               | 39 3 | 14 3 8 3 11 1112 2110
mp+fences gam               | 22 3 | 14 3 4 3 12 2400 3398
mp+fences gam0              | 22 3 | 14 3 4 3 12 2400 3398
mp+fence-ss sc              | 17 3 | 14 3 3 3 9 704 1702
mp+fence-ss tso             | 30 3 | 12 3 7 3 9 944 1852
mp+fence-ss gam             | 25 4 | 18 4 7 3 13 2192 3554
mp+fence-ss gam0            | 25 4 | 18 4 7 3 13 2192 3554
lb sc                       | 13 3 | 12 3 2 4 9 720 1628
lb tso                      | 22 3 | 14 3 4 4 12 1240 2238
lb gam                      | 25 4 | 21 4 8 4 12 1948 3445
lb gam0                     | 25 4 | 21 4 8 4 12 1948 3445
lb+data sc                  | 9 1 | 9 1 2 4 5 492 1265
lb+data tso                 | 16 1 | 10 1 4 4 7 800 1618
lb+data gam                 | 16 1 | 10 1 4 4 8 1304 2122
lb+data gam0                | 16 1 | 10 1 4 4 8 1304 2122
lb+fence-ls sc              | 22 3 | 17 3 4 4 13 972 2105
lb+fence-ls tso             | 33 3 | 17 3 6 4 15 1492 2625
lb+fence-ls gam             | 22 3 | 14 3 4 4 13 2616 3614
lb+fence-ls gam0            | 22 3 | 14 3 4 4 13 2616 3614
iriw sc                     | 97 15 | 70 15 43 4 14 2328 7134
iriw tso                    | 164 15 | 58 15 49 4 16 2568 6834
iriw gam                    | 169 16 | 90 16 106 4 22 4584 10842
iriw gam0                   | 169 16 | 90 16 106 4 22 4584 10842
iriw+fence-ll sc            | 166 15 | 88 15 65 4 18 2880 8496
iriw+fence-ll tso           | 284 15 | 65 15 71 4 19 2924 7505
iriw+fence-ll gam           | 166 15 | 64 15 65 4 21 4752 9288
iriw+fence-ll gam0          | 166 15 | 64 15 65 4 21 4752 9288
wrc sc                      | 49 5 | 35 5 16 5 15 1624 3935
wrc tso                     | 86 5 | 28 5 23 5 17 2048 4044
wrc gam                     | 78 5 | 32 5 24 5 20 4344 6520
wrc gam0                    | 78 5 | 32 5 24 5 20 4344 6520
wrc+no-dep sc               | 31 5 | 25 5 10 5 11 1160 3021
wrc+no-dep tso              | 54 5 | 22 5 15 5 13 1552 3278
wrc+no-dep gam              | 61 6 | 33 6 27 5 17 2824 5229
wrc+no-dep gam0             | 61 6 | 33 6 27 5 17 2824 5229
corw sc                     | 3 1 | 3 1 0 2 3 216 535
corw tso                    | 4 1 | 4 1 0 2 4 384 748
corw gam                    | 3 1 | 3 1 0 2 3 472 791
corw gam0                   | 3 1 | 3 1 0 2 3 472 791
cowr sc                     | 9 3 | 9 3 0 3 4 372 961
cowr tso                    | 18 3 | 12 3 4 3 7 736 1644
cowr gam                    | 11 3 | 11 3 1 3 7 1036 1899
cowr gam0                   | 11 3 | 11 3 1 3 7 1036 1899
coww sc                     | 3 1 | 3 1 0 3 3 224 543
coww tso                    | 6 1 | 6 1 0 3 6 552 1006
coww gam                    | 3 1 | 3 1 0 3 3 512 831
coww gam0                   | 3 1 | 3 1 0 3 3 512 831
2+2w sc                     | 13 3 | 12 3 2 7 3 568 1476
2+2w tso                    | 42 3 | 12 3 8 7 6 904 1812
2+2w gam                    | 25 4 | 21 4 8 9 8 1684 3181
2+2w gam0                   | 25 4 | 21 4 8 9 8 1684 3181
2+2w+fence-ss sc            | 22 3 | 17 3 4 7 4 660 1793
2+2w+fence-ss tso           | 72 3 | 12 3 12 7 6 904 1812
2+2w+fence-ss gam           | 22 3 | 14 3 4 7 8 1904 2902
2+2w+fence-ss gam0          | 22 3 | 14 3 4 7 8 1904 2902
s sc                        | 17 3 | 14 3 3 5 8 704 1702
s tso                       | 39 3 | 14 3 8 5 10 1120 2118
s gam                       | 25 4 | 18 4 7 5 10 1904 3266
s gam0                      | 25 4 | 18 4 7 5 10 1904 3266
r sc                        | 13 3 | 12 3 2 5 5 552 1460
r tso                       | 39 4 | 14 4 8 5 10 1104 2102
r gam                       | 25 4 | 21 4 8 6 10 1788 3285
r gam0                      | 25 4 | 21 4 8 6 10 1788 3285
";

fn model(tag: &str) -> ModelKind {
    match tag {
        "sc" => ModelKind::Sc,
        "tso" => ModelKind::Tso,
        "gam" => ModelKind::Gam,
        "gam0" => ModelKind::Gam0,
        other => panic!("unknown model tag {other}"),
    }
}

/// The two counters of the unreduced reference search, in table order.
fn oracle_counters(kind: ModelKind, test: &gam_isa::litmus::LitmusTest) -> Vec<usize> {
    let full = OperationalChecker::new(kind).explore_reference(test).expect("the oracle explores");
    vec![full.states_visited, full.final_states]
}

/// The seven counters of one sequential exploration, in table order.
fn counters(kind: ModelKind, test: &gam_isa::litmus::LitmusTest) -> Vec<usize> {
    let plain = OperationalChecker::new(kind).explore(test).expect("explores");
    let roomy = MemoryConfig { max_bytes: Some(1 << 40), ..MemoryConfig::default() };
    let budgeted = OperationalChecker::new(kind)
        .with_memory(roomy)
        .explore(test)
        .expect("a roomy budget never stops the search");
    let occupancy = plain.arena.expect("a sequential run reports arena occupancy");
    assert_eq!(occupancy.states, plain.states_visited);
    assert_eq!(
        (budgeted.states_visited, budgeted.final_states, budgeted.transitions_pruned),
        (plain.states_visited, plain.final_states, plain.transitions_pruned),
        "{kind}/{}: arming a budget changed the search",
        test.name()
    );
    vec![
        plain.states_visited,
        plain.final_states,
        plain.transitions_pruned,
        occupancy.distinct_memories,
        occupancy.distinct_procs,
        occupancy.interned_bytes,
        budgeted.memory.expect("budgeted runs report memory").peak_bytes,
    ]
}

#[test]
fn sequential_counters_match_the_pinned_table() {
    let tests = library::all_tests();
    let mut rows = 0;
    let mut mismatches = Vec::new();
    for line in COUNTERS.lines().filter(|line| !line.trim().is_empty()) {
        let groups: Vec<&str> = line.split('|').collect();
        let [key, oracle, explorer] = groups[..] else {
            panic!("not a `key | oracle | explorer` row: {line}")
        };
        let mut key = key.split_whitespace();
        let (name, tag) = (key.next().expect("a test name"), key.next().expect("a model tag"));
        let test = tests.iter().find(|test| test.name() == name).expect("a library test");
        let kind = model(tag);
        let searches = [
            ("oracle", oracle, oracle_counters(kind, test)),
            ("explorer", explorer, counters(kind, test)),
        ];
        for (search, group, actual) in searches {
            let expected: Vec<usize> =
                group.split_whitespace().map(|n| n.parse().expect("a count")).collect();
            if expected != actual {
                mismatches
                    .push(format!("{name} {tag} {search}: expected {expected:?}, got {actual:?}"));
            }
        }
        rows += 1;
    }
    assert_eq!(rows, tests.len() * 4, "every library test under every machine model");
    assert!(mismatches.is_empty(), "counter drift:\n{}", mismatches.join("\n"));
}

/// `peak_bytes` is a high-water mark: the budget it reports is enough to
/// rerun the same exploration to completion with the same outcome set.
#[test]
fn a_budget_equal_to_the_reported_peak_completes() {
    let roomy = MemoryConfig { max_bytes: Some(1 << 40), ..MemoryConfig::default() };
    let mut failures = Vec::new();
    for test in library::all_tests() {
        for tag in ["sc", "tso", "gam", "gam0"] {
            let kind = model(tag);
            let uncapped = OperationalChecker::new(kind)
                .with_memory(roomy.clone())
                .explore(&test)
                .expect("a roomy budget never stops the search");
            let peak = uncapped.memory.expect("budgeted runs report memory").peak_bytes;
            let capped = MemoryConfig { max_bytes: Some(peak), ..MemoryConfig::default() };
            match OperationalChecker::new(kind).with_memory(capped).explore(&test) {
                Ok(rerun) if rerun.outcomes == uncapped.outcomes => {}
                Ok(_) => failures.push(format!("{} {tag}: outcomes differ", test.name())),
                Err(err) => failures.push(format!("{} {tag}: {err}", test.name())),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "a budget of the reported peak must suffice:\n{}",
        failures.join("\n")
    );
}
