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
/// `Reduction::ALL` order (off, sleep, sleep+canon). Each group lists
/// `states final pruned memories procs interned_bytes peak_bytes`.
const COUNTERS: &str = "
dekker sc                   | 13 3 0 4 6 572 112 | 12 3 2 4 6 560 416 | 12 3 2 4 6 560 416
dekker tso                  | 34 4 0 4 12 1464 136 | 18 4 11 4 12 1272 440 | 18 4 11 4 12 1272 440
dekker gam                  | 25 4 0 4 12 1996 336 | 21 4 8 4 12 1948 640 | 21 4 8 4 12 1948 640
dekker gam0                 | 25 4 0 4 12 1996 336 | 21 4 8 4 12 1948 640 | 21 4 8 4 12 1948 640
oota sc                     | 9 1 0 4 5 492 112 | 9 1 2 4 5 492 416 | 9 1 2 4 5 492 416
oota tso                    | 16 1 0 4 7 872 136 | 10 1 4 4 7 800 440 | 10 1 4 4 7 800 440
oota gam                    | 16 1 0 4 8 1376 336 | 10 1 4 4 8 1304 640 | 10 1 4 4 8 1304 640
oota gam0                   | 16 1 0 4 8 1376 336 | 10 1 4 4 8 1304 640 | 10 1 4 4 8 1304 640
store-forwarding sc         | 4 1 0 3 4 280 108 | 4 1 0 3 4 280 412 | 4 1 0 3 4 280 412
store-forwarding tso        | 9 1 0 3 9 840 132 | 9 1 0 3 9 840 436 | 9 1 0 3 9 840 436
store-forwarding gam        | 8 1 0 3 8 1576 252 | 8 1 0 3 8 1576 556 | 8 1 0 3 8 1576 556
store-forwarding gam0       | 8 1 0 3 8 1576 252 | 8 1 0 3 8 1576 556 | 8 1 0 3 8 1576 556
mp+addr sc                  | 14 2 0 3 8 640 112 | 11 2 4 3 8 604 416 | 11 2 4 3 8 604 416
mp+addr tso                 | 26 2 0 3 12 1280 136 | 9 2 8 3 8 820 440 | 9 2 8 3 8 820 440
mp+addr gam                 | 19 2 0 3 11 1948 384 | 10 2 4 3 10 1664 688 | 10 2 4 3 10 1664 688
mp+addr gam0                | 19 2 0 3 11 1948 384 | 10 2 4 3 10 1664 688 | 10 2 4 3 10 1664 688
mp+artificial-addr sc       | 27 3 0 3 13 1164 112 | 20 3 5 3 13 1080 416 | 20 3 5 3 13 1080 416
mp+artificial-addr tso      | 48 3 0 3 17 2032 136 | 16 3 9 3 13 1392 440 | 16 3 9 3 13 1392 440
mp+artificial-addr gam      | 32 3 0 3 16 3896 480 | 19 3 6 3 16 3740 784 | 19 3 6 3 16 3740 784
mp+artificial-addr gam0     | 32 3 0 3 16 3896 480 | 19 3 6 3 16 3740 784 | 19 3 6 3 16 3740 784
mp+mem-dep sc               | 37 3 0 7 17 1860 112 | 26 3 7 7 17 1728 416 | 26 3 7 7 17 1728 416
mp+mem-dep tso              | 115 3 0 7 32 4780 136 | 30 3 13 7 27 3368 440 | 30 3 13 7 27 3368 440
mp+mem-dep gam              | 75 3 0 7 33 11244 576 | 35 3 10 7 32 10444 880 | 35 3 10 7 32 10444 880
mp+mem-dep gam0             | 75 3 0 7 33 11244 576 | 35 3 10 7 32 10444 880 | 35 3 10 7 32 10444 880
mp+prefetch sc              | 29 4 0 3 14 1268 112 | 21 4 7 3 14 1172 416 | 21 4 7 3 14 1172 416
mp+prefetch tso             | 48 4 0 3 18 2136 136 | 16 4 10 3 14 1496 440 | 16 4 10 3 14 1496 440
mp+prefetch gam             | 52 4 0 3 24 4968 432 | 25 4 17 3 22 4292 736 | 25 4 17 3 22 4292 736
mp+prefetch gam0            | 53 4 0 3 25 5156 432 | 25 4 17 3 22 4292 736 | 25 4 17 3 22 4292 736
corr sc                     | 9 3 0 2 7 524 112 | 9 3 0 2 7 524 416 | 9 3 0 2 7 524 416
corr tso                    | 12 3 0 2 8 800 136 | 10 3 1 2 8 776 440 | 10 3 1 2 8 776 440
corr gam                    | 9 3 0 2 8 1100 288 | 9 3 0 2 8 1100 592 | 9 3 0 2 8 1100 592
corr gam0                   | 13 4 0 2 11 1532 288 | 13 4 0 2 11 1532 592 | 13 4 0 2 11 1532 592
corr+intervening-store sc   | 46 5 0 5 21 2144 112 | 37 5 7 5 21 2036 416 | 37 5 7 5 21 2036 416
corr+intervening-store tso  | 125 6 0 5 36 5172 136 | 48 6 26 5 31 3920 440 | 48 6 26 5 31 3920 440
corr+intervening-store gam  | 107 7 0 5 44 15004 576 | 79 7 33 5 44 14668 880 | 79 7 33 5 44 14668 880
corr+intervening-store gam0 | 107 7 0 5 44 15004 576 | 79 7 33 5 44 14668 880 | 79 7 33 5 44 14668 880
rsw sc                      | 47 3 0 3 21 2348 112 | 32 3 9 3 21 2168 416 | 32 3 9 3 21 2168 416
rsw tso                     | 84 3 0 3 25 3600 136 | 24 3 13 3 21 2624 440 | 24 3 13 3 21 2624 440
rsw gam                     | 167 3 0 3 68 29452 672 | 88 3 86 3 68 28504 976 | 88 3 86 3 68 28504 976
rsw gam0                    | 197 4 0 3 81 35220 672 | 101 4 75 3 81 34068 976 | 101 4 75 3 81 34068 976
rnsw sc                     | 67 3 0 4 23 2724 112 | 45 3 18 4 23 2460 416 | 45 3 18 4 23 2460 416
rnsw tso                    | 152 3 0 4 32 5024 136 | 30 3 23 4 22 2872 440 | 30 3 23 4 22 2872 440
rnsw gam                    | 239 3 0 4 70 31316 768 | 108 3 112 4 70 29744 1072 | 108 3 112 4 70 29744 1072
rnsw gam0                   | 281 4 0 4 83 37228 45312 | 134 4 171 4 83 35464 1072 | 134 4 171 4 83 35464 1072
dekker+fence-sl sc          | 22 3 0 4 7 712 112 | 17 3 4 4 7 652 416 | 17 3 4 4 7 652 416
dekker+fence-sl tso         | 31 3 0 4 9 1132 136 | 15 3 6 4 9 940 440 | 15 3 6 4 9 940 440
dekker+fence-sl gam         | 22 3 0 4 10 2184 432 | 14 3 4 4 10 2088 736 | 14 3 4 4 10 2088 736
dekker+fence-sl gam0        | 22 3 0 4 10 2184 432 | 14 3 4 4 10 2088 736 | 14 3 4 4 10 2088 736
mp sc                       | 13 3 0 3 8 660 112 | 12 3 2 3 8 648 416 | 12 3 2 3 8 648 416
mp tso                      | 23 3 0 3 11 1204 136 | 12 3 5 3 9 944 440 | 12 3 5 3 9 944 440
mp gam                      | 25 4 0 4 13 2124 336 | 21 4 8 4 13 2076 640 | 21 4 8 4 13 2076 640
mp gam0                     | 25 4 0 4 13 2124 336 | 21 4 8 4 13 2076 640 | 21 4 8 4 13 2076 640
mp+fences sc                | 22 3 0 3 11 896 112 | 17 3 4 3 11 836 416 | 17 3 4 3 11 836 416
mp+fences tso               | 39 3 0 3 15 1668 136 | 14 3 8 3 11 1112 440 | 14 3 8 3 11 1112 440
mp+fences gam               | 22 3 0 3 12 2496 432 | 14 3 4 3 12 2400 736 | 14 3 4 3 12 2400 736
mp+fences gam0              | 22 3 0 3 12 2496 432 | 14 3 4 3 12 2400 736 | 14 3 4 3 12 2400 736
mp+fence-ss sc              | 17 3 0 3 9 740 112 | 14 3 3 3 9 704 416 | 14 3 3 3 9 704 416
mp+fence-ss tso             | 30 3 0 3 13 1416 136 | 12 3 7 3 9 944 440 | 12 3 7 3 9 944 440
mp+fence-ss gam             | 25 4 0 3 13 2276 384 | 18 4 7 3 13 2192 688 | 18 4 7 3 13 2192 688
mp+fence-ss gam0            | 25 4 0 3 13 2276 384 | 18 4 7 3 13 2192 688 | 18 4 7 3 13 2192 688
lb sc                       | 13 3 0 4 9 732 112 | 12 3 2 4 9 720 416 | 12 3 2 4 9 720 416
lb tso                      | 22 3 0 4 13 1408 136 | 14 3 4 4 12 1240 440 | 14 3 4 4 12 1240 440
lb gam                      | 25 4 0 4 12 1996 336 | 21 4 8 4 12 1948 640 | 21 4 8 4 12 1948 640
lb gam0                     | 25 4 0 4 12 1996 336 | 21 4 8 4 12 1948 640 | 21 4 8 4 12 1948 640
lb+data sc                  | 9 1 0 4 5 492 112 | 9 1 2 4 5 492 416 | 9 1 2 4 5 492 416
lb+data tso                 | 16 1 0 4 7 872 136 | 10 1 4 4 7 800 440 | 10 1 4 4 7 800 440
lb+data gam                 | 16 1 0 4 8 1376 336 | 10 1 4 4 8 1304 640 | 10 1 4 4 8 1304 640
lb+data gam0                | 16 1 0 4 8 1376 336 | 10 1 4 4 8 1304 640 | 10 1 4 4 8 1304 640
lb+fence-ls sc              | 22 3 0 4 13 1032 112 | 17 3 4 4 13 972 416 | 17 3 4 4 13 972 416
lb+fence-ls tso             | 33 3 0 4 17 1828 136 | 17 3 6 4 15 1492 440 | 17 3 6 4 15 1492 440
lb+fence-ls gam             | 22 3 0 4 14 2888 432 | 14 3 4 4 13 2616 736 | 14 3 4 4 13 2616 736
lb+fence-ls gam0            | 22 3 0 4 14 2888 432 | 14 3 4 4 13 2616 736 | 14 3 4 4 13 2616 736
iriw sc                     | 97 15 0 4 14 2868 120 | 70 15 43 4 14 2328 424 | 70 15 43 4 14 2328 424
iriw tso                    | 164 15 0 4 16 4688 144 | 58 15 49 4 16 2568 448 | 58 15 49 4 16 2568 448
iriw gam                    | 169 16 0 4 22 6164 504 | 90 16 106 4 22 4584 808 | 90 16 106 4 22 4584 808
iriw gam0                   | 169 16 0 4 22 6164 504 | 90 16 106 4 22 4584 808 | 90 16 106 4 22 4584 808
iriw+fence-ll sc            | 166 15 0 4 18 4440 120 | 88 15 65 4 18 2880 424 | 88 15 65 4 18 2880 424
iriw+fence-ll tso           | 284 15 0 4 20 7376 17440 | 65 15 71 4 19 2924 448 | 65 15 71 4 19 2924 448
iriw+fence-ll gam           | 166 15 0 4 22 6968 600 | 64 15 65 4 21 4752 904 | 64 15 65 4 21 4752 904
iriw+fence-ll gam0          | 166 15 0 4 22 6968 600 | 64 15 65 4 21 4752 904 | 64 15 65 4 21 4752 904
wrc sc                      | 49 5 0 5 15 1848 116 | 35 5 16 5 15 1624 420 | 35 5 16 5 15 1624 420
wrc tso                     | 86 5 0 5 18 3048 140 | 28 5 23 5 17 2048 444 | 28 5 23 5 17 2048 444
wrc gam                     | 78 5 0 5 21 5208 516 | 32 5 24 5 20 4344 820 | 32 5 24 5 20 4344 820
wrc gam0                    | 78 5 0 5 21 5208 516 | 32 5 24 5 20 4344 820 | 32 5 24 5 20 4344 820
wrc+no-dep sc               | 31 5 0 5 11 1256 116 | 25 5 10 5 11 1160 420 | 25 5 10 5 11 1160 420
wrc+no-dep tso              | 54 5 0 5 14 2136 140 | 22 5 15 5 13 1552 444 | 22 5 15 5 13 1552 444
wrc+no-dep gam              | 61 6 0 5 18 3400 420 | 33 6 27 5 17 2824 724 | 33 6 27 5 17 2824 724
wrc+no-dep gam0             | 61 6 0 5 18 3400 420 | 33 6 27 5 17 2824 724 | 33 6 27 5 17 2824 724
corw sc                     | 3 1 0 2 3 216 108 | 3 1 0 2 3 216 412 | 3 1 0 2 3 216 412
corw tso                    | 4 1 0 2 4 384 132 | 4 1 0 2 4 384 436 | 4 1 0 2 4 384 436
corw gam                    | 3 1 0 2 3 472 204 | 3 1 0 2 3 472 508 | 3 1 0 2 3 472 508
corw gam0                   | 3 1 0 2 3 472 204 | 3 1 0 2 3 472 508 | 3 1 0 2 3 472 508
cowr sc                     | 9 3 0 3 4 372 112 | 9 3 0 3 4 372 416 | 9 3 0 3 4 372 416
cowr tso                    | 18 3 0 3 7 808 136 | 12 3 4 3 7 736 440 | 12 3 4 3 7 736 440
cowr gam                    | 11 3 0 3 7 1036 288 | 11 3 1 3 7 1036 592 | 11 3 1 3 7 1036 592
cowr gam0                   | 11 3 0 3 7 1036 288 | 11 3 1 3 7 1036 592 | 11 3 1 3 7 1036 592
coww sc                     | 3 1 0 3 3 224 108 | 3 1 0 3 3 224 412 | 3 1 0 3 3 224 412
coww tso                    | 6 1 0 3 6 552 132 | 6 1 0 3 6 552 436 | 6 1 0 3 6 552 436
coww gam                    | 3 1 0 3 3 512 204 | 3 1 0 3 3 512 508 | 3 1 0 3 3 512 508
coww gam0                   | 3 1 0 3 3 512 204 | 3 1 0 3 3 512 508 | 3 1 0 3 3 512 508
2+2w sc                     | 13 3 0 7 3 580 112 | 12 3 2 7 3 568 416 | 12 3 2 7 3 568 416
2+2w tso                    | 42 3 0 7 9 1464 136 | 12 3 8 7 6 904 440 | 12 3 8 7 6 904 440
2+2w gam                    | 25 4 0 9 8 1732 336 | 21 4 8 9 8 1684 640 | 21 4 8 9 8 1684 640
2+2w gam0                   | 25 4 0 9 8 1732 336 | 21 4 8 9 8 1684 640 | 21 4 8 9 8 1684 640
2+2w+fence-ss sc            | 22 3 0 7 4 720 112 | 17 3 4 7 4 660 416 | 17 3 4 7 4 660 416
2+2w+fence-ss tso           | 72 3 0 7 12 2024 136 | 12 3 12 7 6 904 440 | 12 3 12 7 6 904 440
2+2w+fence-ss gam           | 22 3 0 7 8 2000 432 | 14 3 4 7 8 1904 736 | 14 3 4 7 8 1904 736
2+2w+fence-ss gam0          | 22 3 0 7 8 2000 432 | 14 3 4 7 8 1904 736 | 14 3 4 7 8 1904 736
s sc                        | 17 3 0 5 8 740 112 | 14 3 3 5 8 704 416 | 14 3 3 5 8 704 416
s tso                       | 39 3 0 5 14 1676 136 | 14 3 8 5 10 1120 440 | 14 3 8 5 10 1120 440
s gam                       | 25 4 0 5 10 1988 384 | 18 4 7 5 10 1904 688 | 18 4 7 5 10 1904 688
s gam0                      | 25 4 0 5 10 1988 384 | 18 4 7 5 10 1904 688 | 18 4 7 5 10 1904 688
r sc                        | 13 3 0 5 5 564 112 | 12 3 2 5 5 552 416 | 12 3 2 5 5 552 416
r tso                       | 39 4 0 5 11 1476 136 | 14 4 8 5 10 1104 440 | 14 4 8 5 10 1104 440
r gam                       | 25 4 0 6 10 1836 336 | 21 4 8 6 10 1788 640 | 21 4 8 6 10 1788 640
r gam0                      | 25 4 0 6 10 1836 336 | 21 4 8 6 10 1788 640 | 21 4 8 6 10 1788 640
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
