//! The explorer's work counters, pinned to literal values.
//!
//! Every sequential exploration of the litmus library under {SC, TSO, GAM,
//! GAM0} × `Reduction::ALL` must report exactly the counters below:
//! `states_visited`, `final_states`, `transitions_pruned`, the component
//! arena's occupancy, and the peak accounted bytes under a budget too roomy
//! to ever degrade. The search is deterministic, so any change to these
//! numbers is a change in *what the explorer does* — a refactor of the
//! drivers must leave every one of them intact. A deliberate change to the
//! search (a stronger reduction, a different poll cadence) updates the
//! table in the same commit and says why.

use gam_core::ModelKind;
use gam_isa::litmus::library;
use gam_operational::{ExplorerConfig, MemoryConfig, OperationalChecker, Reduction};

/// One row per `test model`, then one group per reduction in
/// `Reduction::ALL` order (off, sleep). Each group lists
/// `states final pruned memories procs interned_bytes peak_bytes`.
const COUNTERS: &str = "
dekker sc                   | 13 3 0 4 6 572 1092 | 12 3 2 4 6 560 1468
dekker tso                  | 34 4 0 4 12 1464 2824 | 18 4 11 4 12 1272 2266
dekker gam                  | 25 4 0 4 12 1996 2996 | 21 4 8 4 12 1948 3445
dekker gam0                 | 25 4 0 4 12 1996 2996 | 21 4 8 4 12 1948 3445
oota sc                     | 9 1 0 4 5 492 852 | 9 1 2 4 5 492 1265
oota tso                    | 16 1 0 4 7 872 1512 | 10 1 4 4 7 800 1618
oota gam                    | 16 1 0 4 8 1376 2016 | 10 1 4 4 8 1304 2122
oota gam0                   | 16 1 0 4 8 1376 2016 | 10 1 4 4 8 1304 2122
store-forwarding sc         | 4 1 0 3 4 280 440 | 4 1 0 3 4 280 644
store-forwarding tso        | 9 1 0 3 9 840 1200 | 9 1 0 3 9 840 1429
store-forwarding gam        | 8 1 0 3 8 1576 1896 | 8 1 0 3 8 1576 2120
store-forwarding gam0       | 8 1 0 3 8 1576 1896 | 8 1 0 3 8 1576 2120
mp+addr sc                  | 14 2 0 3 8 640 1200 | 11 2 4 3 8 604 1467
mp+addr tso                 | 26 2 0 3 12 1280 2320 | 9 2 8 3 8 820 1593
mp+addr gam                 | 19 2 0 3 11 1948 2708 | 10 2 4 3 10 1664 2482
mp+addr gam0                | 19 2 0 3 11 1948 2708 | 10 2 4 3 10 1664 2482
mp+artificial-addr sc       | 27 3 0 3 13 1164 2244 | 20 3 5 3 13 1080 2348
mp+artificial-addr tso      | 48 3 0 3 17 2032 3952 | 16 3 9 3 13 1392 2480
mp+artificial-addr gam      | 32 3 0 3 16 3896 5176 | 19 3 6 3 16 3740 4963
mp+artificial-addr gam0     | 32 3 0 3 16 3896 5176 | 19 3 6 3 16 3740 4963
mp+mem-dep sc               | 37 3 0 7 17 1860 3340 | 26 3 7 7 17 1728 3266
mp+mem-dep tso              | 115 3 0 7 32 4780 9380 | 30 3 13 7 27 3368 5086
mp+mem-dep gam              | 75 3 0 7 33 11244 14244 | 35 3 10 7 32 10444 12387
mp+mem-dep gam0             | 75 3 0 7 33 11244 14244 | 35 3 10 7 32 10444 12387
mp+prefetch sc              | 29 4 0 3 14 1268 2428 | 21 4 7 3 14 1172 2485
mp+prefetch tso             | 48 4 0 3 18 2136 4056 | 16 4 10 3 14 1496 2584
mp+prefetch gam             | 52 4 0 3 24 4968 7048 | 25 4 17 3 22 4292 5785
mp+prefetch gam0            | 53 4 0 3 25 5156 7276 | 25 4 17 3 22 4292 5785
corr sc                     | 9 3 0 2 7 524 884 | 9 3 0 2 7 524 1113
corr tso                    | 12 3 0 2 8 800 1280 | 10 3 1 2 8 776 1410
corr gam                    | 9 3 0 2 8 1100 1460 | 9 3 0 2 8 1100 1689
corr gam0                   | 13 4 0 2 11 1532 2052 | 13 4 0 2 11 1532 2301
corr+intervening-store sc   | 46 5 0 5 21 2144 3984 | 37 5 7 5 21 2036 4069
corr+intervening-store tso  | 125 6 0 5 36 5172 10172 | 48 6 26 5 31 3920 6632
corr+intervening-store gam  | 107 7 0 5 44 15004 19284 | 79 7 33 5 44 14668 18775
corr+intervening-store gam0 | 107 7 0 5 44 15004 19284 | 79 7 33 5 44 14668 18775
rsw sc                      | 47 3 0 3 21 2348 4228 | 32 3 9 3 21 2168 3976
rsw tso                     | 84 3 0 3 25 3600 6960 | 24 3 13 3 21 2624 4072
rsw gam                     | 167 3 0 3 68 29452 36132 | 88 3 86 3 68 28504 33016
rsw gam0                    | 197 4 0 3 81 35220 43100 | 101 4 75 3 81 34068 39165
rnsw sc                     | 67 3 0 4 23 2724 5404 | 45 3 18 4 23 2460 5037
rnsw tso                    | 152 3 0 4 32 5024 11104 | 30 3 23 4 22 2872 4774
rnsw gam                    | 239 3 0 4 70 31316 40876 | 108 3 112 4 70 29744 35340
rnsw gam0                   | 281 4 0 4 83 37228 48468 | 134 4 171 4 83 35464 42230
dekker+fence-sl sc          | 22 3 0 4 7 712 1592 | 17 3 4 4 7 652 1785
dekker+fence-sl tso         | 31 3 0 4 9 1132 2372 | 15 3 6 4 9 940 1983
dekker+fence-sl gam         | 22 3 0 4 10 2184 3064 | 14 3 4 4 10 2088 3086
dekker+fence-sl gam0        | 22 3 0 4 10 2184 3064 | 14 3 4 4 10 2088 3086
mp sc                       | 13 3 0 3 8 660 1180 | 12 3 2 3 8 648 1556
mp tso                      | 23 3 0 3 11 1204 2124 | 12 3 5 3 9 944 1852
mp gam                      | 25 4 0 4 13 2124 3124 | 21 4 8 4 13 2076 3573
mp gam0                     | 25 4 0 4 13 2124 3124 | 21 4 8 4 13 2076 3573
mp+fences sc                | 22 3 0 3 11 896 1776 | 17 3 4 3 11 836 1969
mp+fences tso               | 39 3 0 3 15 1668 3228 | 14 3 8 3 11 1112 2110
mp+fences gam               | 22 3 0 3 12 2496 3376 | 14 3 4 3 12 2400 3398
mp+fences gam0              | 22 3 0 3 12 2496 3376 | 14 3 4 3 12 2400 3398
mp+fence-ss sc              | 17 3 0 3 9 740 1420 | 14 3 3 3 9 704 1702
mp+fence-ss tso             | 30 3 0 3 13 1416 2616 | 12 3 7 3 9 944 1852
mp+fence-ss gam             | 25 4 0 3 13 2276 3276 | 18 4 7 3 13 2192 3554
mp+fence-ss gam0            | 25 4 0 3 13 2276 3276 | 18 4 7 3 13 2192 3554
lb sc                       | 13 3 0 4 9 732 1252 | 12 3 2 4 9 720 1628
lb tso                      | 22 3 0 4 13 1408 2288 | 14 3 4 4 12 1240 2238
lb gam                      | 25 4 0 4 12 1996 2996 | 21 4 8 4 12 1948 3445
lb gam0                     | 25 4 0 4 12 1996 2996 | 21 4 8 4 12 1948 3445
lb+data sc                  | 9 1 0 4 5 492 852 | 9 1 2 4 5 492 1265
lb+data tso                 | 16 1 0 4 7 872 1512 | 10 1 4 4 7 800 1618
lb+data gam                 | 16 1 0 4 8 1376 2016 | 10 1 4 4 8 1304 2122
lb+data gam0                | 16 1 0 4 8 1376 2016 | 10 1 4 4 8 1304 2122
lb+fence-ls sc              | 22 3 0 4 13 1032 1912 | 17 3 4 4 13 972 2105
lb+fence-ls tso             | 33 3 0 4 17 1828 3148 | 17 3 6 4 15 1492 2625
lb+fence-ls gam             | 22 3 0 4 14 2888 3768 | 14 3 4 4 13 2616 3614
lb+fence-ls gam0            | 22 3 0 4 14 2888 3768 | 14 3 4 4 13 2616 3614
iriw sc                     | 97 15 0 4 14 2868 6748 | 70 15 43 4 14 2328 7134
iriw tso                    | 164 15 0 4 16 4688 11248 | 58 15 49 4 16 2568 6834
iriw gam                    | 169 16 0 4 22 6164 12924 | 90 16 106 4 22 4584 10842
iriw gam0                   | 169 16 0 4 22 6164 12924 | 90 16 106 4 22 4584 10842
iriw+fence-ll sc            | 166 15 0 4 18 4440 11080 | 88 15 65 4 18 2880 8496
iriw+fence-ll tso           | 284 15 0 4 20 7376 18736 | 65 15 71 4 19 2924 7505
iriw+fence-ll gam           | 166 15 0 4 22 6968 13608 | 64 15 65 4 21 4752 9288
iriw+fence-ll gam0          | 166 15 0 4 22 6968 13608 | 64 15 65 4 21 4752 9288
wrc sc                      | 49 5 0 5 15 1848 3808 | 35 5 16 5 15 1624 3935
wrc tso                     | 86 5 0 5 18 3048 6488 | 28 5 23 5 17 2048 4044
wrc gam                     | 78 5 0 5 21 5208 8328 | 32 5 24 5 20 4344 6520
wrc gam0                    | 78 5 0 5 21 5208 8328 | 32 5 24 5 20 4344 6520
wrc+no-dep sc               | 31 5 0 5 11 1256 2496 | 25 5 10 5 11 1160 3021
wrc+no-dep tso              | 54 5 0 5 14 2136 4296 | 22 5 15 5 13 1552 3278
wrc+no-dep gam              | 61 6 0 5 18 3400 5840 | 33 6 27 5 17 2824 5229
wrc+no-dep gam0             | 61 6 0 5 18 3400 5840 | 33 6 27 5 17 2824 5229
corw sc                     | 3 1 0 2 3 216 336 | 3 1 0 2 3 216 535
corw tso                    | 4 1 0 2 4 384 544 | 4 1 0 2 4 384 748
corw gam                    | 3 1 0 2 3 472 592 | 3 1 0 2 3 472 791
corw gam0                   | 3 1 0 2 3 472 592 | 3 1 0 2 3 472 791
cowr sc                     | 9 3 0 3 4 372 732 | 9 3 0 3 4 372 961
cowr tso                    | 18 3 0 3 7 808 1528 | 12 3 4 3 7 736 1644
cowr gam                    | 11 3 0 3 7 1036 1476 | 11 3 1 3 7 1036 1899
cowr gam0                   | 11 3 0 3 7 1036 1476 | 11 3 1 3 7 1036 1899
coww sc                     | 3 1 0 3 3 224 344 | 3 1 0 3 3 224 543
coww tso                    | 6 1 0 3 6 552 792 | 6 1 0 3 6 552 1006
coww gam                    | 3 1 0 3 3 512 632 | 3 1 0 3 3 512 831
coww gam0                   | 3 1 0 3 3 512 632 | 3 1 0 3 3 512 831
2+2w sc                     | 13 3 0 7 3 580 1100 | 12 3 2 7 3 568 1476
2+2w tso                    | 42 3 0 7 9 1464 3144 | 12 3 8 7 6 904 1812
2+2w gam                    | 25 4 0 9 8 1732 2732 | 21 4 8 9 8 1684 3181
2+2w gam0                   | 25 4 0 9 8 1732 2732 | 21 4 8 9 8 1684 3181
2+2w+fence-ss sc            | 22 3 0 7 4 720 1600 | 17 3 4 7 4 660 1793
2+2w+fence-ss tso           | 72 3 0 7 12 2024 4904 | 12 3 12 7 6 904 1812
2+2w+fence-ss gam           | 22 3 0 7 8 2000 2880 | 14 3 4 7 8 1904 2902
2+2w+fence-ss gam0          | 22 3 0 7 8 2000 2880 | 14 3 4 7 8 1904 2902
s sc                        | 17 3 0 5 8 740 1420 | 14 3 3 5 8 704 1702
s tso                       | 39 3 0 5 14 1676 3236 | 14 3 8 5 10 1120 2118
s gam                       | 25 4 0 5 10 1988 2988 | 18 4 7 5 10 1904 3266
s gam0                      | 25 4 0 5 10 1988 2988 | 18 4 7 5 10 1904 3266
r sc                        | 13 3 0 5 5 564 1084 | 12 3 2 5 5 552 1460
r tso                       | 39 4 0 5 11 1476 3036 | 14 4 8 5 10 1104 2102
r gam                       | 25 4 0 6 10 1836 2836 | 21 4 8 6 10 1788 3285
r gam0                      | 25 4 0 6 10 1836 2836 | 21 4 8 6 10 1788 3285
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

/// The seven counters of one sequential exploration, in table order.
fn counters(
    kind: ModelKind,
    reduction: Reduction,
    test: &gam_isa::litmus::LitmusTest,
) -> [usize; 7] {
    let config = ExplorerConfig { reduction, ..ExplorerConfig::default() };
    let plain = OperationalChecker::with_config(kind, config).explore(test).expect("explores");
    let roomy = MemoryConfig { max_bytes: Some(1 << 40), ..MemoryConfig::default() };
    let budgeted = OperationalChecker::with_config(kind, config)
        .with_memory(roomy)
        .explore(test)
        .expect("a roomy budget never stops the search");
    let occupancy = plain.arena.expect("a sequential run reports arena occupancy");
    assert_eq!(occupancy.states, plain.states_visited);
    assert_eq!(
        (budgeted.states_visited, budgeted.final_states, budgeted.transitions_pruned),
        (plain.states_visited, plain.final_states, plain.transitions_pruned),
        "{kind}/{}/{reduction}: arming a budget changed the search",
        test.name()
    );
    [
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
        let mut groups = line.split('|');
        let mut key = groups.next().expect("a key").split_whitespace();
        let (name, tag) = (key.next().expect("a test name"), key.next().expect("a model tag"));
        let test = tests.iter().find(|test| test.name() == name).expect("a library test");
        let kind = model(tag);
        for (reduction, group) in Reduction::ALL.into_iter().zip(groups) {
            let expected: Vec<usize> =
                group.split_whitespace().map(|n| n.parse().expect("a count")).collect();
            let actual = counters(kind, reduction, test);
            if expected != actual {
                mismatches.push(format!(
                    "{name} {tag} {reduction}: expected {expected:?}, got {actual:?}"
                ));
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
            for reduction in Reduction::ALL {
                let config = ExplorerConfig { reduction, ..ExplorerConfig::default() };
                let uncapped = OperationalChecker::with_config(kind, config)
                    .with_memory(roomy.clone())
                    .explore(&test)
                    .expect("a roomy budget never stops the search");
                let peak = uncapped.memory.expect("budgeted runs report memory").peak_bytes;
                let capped = MemoryConfig { max_bytes: Some(peak), ..MemoryConfig::default() };
                match OperationalChecker::with_config(kind, config)
                    .with_memory(capped)
                    .explore(&test)
                {
                    Ok(rerun) if rerun.outcomes == uncapped.outcomes => {}
                    Ok(_) => {
                        failures.push(format!("{} {tag} {reduction}: outcomes differ", test.name()))
                    }
                    Err(err) => failures.push(format!("{} {tag} {reduction}: {err}", test.name())),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "a budget of the reported peak must suffice:\n{}",
        failures.join("\n")
    );
}
