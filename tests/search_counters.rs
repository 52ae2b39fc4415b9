//! The axiomatic checker's search counters, pinned to literal values.
//!
//! Every optimised axiomatic check reports how much search it did:
//! read-from assignments enumerated (after address pruning), assignments
//! that survived value propagation, and memory orders visited. The search is
//! deterministic, so these numbers — together with the size of the outcome
//! set — change only when *what the checker does* changes. Two tables pin
//! them: every library test under every model, and per-model totals over the
//! stress corpus's smaller programs, whose tests observe memory and so drive
//! the all-orders search. A deliberate change to the search (a stronger
//! pruning rule, a different order enumeration) updates the tables in the
//! same commit and says why.

use gam_axiomatic::AxiomaticChecker;
use gam_core::{model, ModelKind};
use gam_frontend::parse_litmus;
use gam_isa::litmus::{library, LitmusTest};

/// One row per `test model`:
/// `assignments_enumerated assignments_concretized orders_visited outcomes`.
const LIBRARY: &str = "
dekker sc                      | 4 4 3 3
dekker tso                     | 4 4 4 4
dekker gam                     | 4 4 4 4
dekker gam0                    | 4 4 4 4
dekker gam-arm                 | 4 4 4 4
oota sc                        | 4 3 3 1
oota tso                       | 4 3 3 1
oota gam                       | 4 3 3 1
oota gam0                      | 4 3 3 1
oota gam-arm                   | 4 3 3 1
store-forwarding sc            | 3 3 1 1
store-forwarding tso           | 3 3 1 1
store-forwarding gam           | 3 3 1 1
store-forwarding gam0          | 3 3 1 1
store-forwarding gam-arm       | 3 3 1 1
mp+addr sc                     | 4 3 2 2
mp+addr tso                    | 4 3 2 2
mp+addr gam                    | 4 3 2 2
mp+addr gam0                   | 4 3 2 2
mp+addr gam-arm                | 4 3 2 2
mp+artificial-addr sc          | 4 4 3 3
mp+artificial-addr tso         | 4 4 3 3
mp+artificial-addr gam         | 4 4 3 3
mp+artificial-addr gam0        | 4 4 3 3
mp+artificial-addr gam-arm     | 4 4 3 3
mp+mem-dep sc                  | 8 8 3 3
mp+mem-dep tso                 | 8 8 3 3
mp+mem-dep gam                 | 8 8 3 3
mp+mem-dep gam0                | 8 8 3 3
mp+mem-dep gam-arm             | 8 8 3 3
mp+prefetch sc                 | 8 6 4 4
mp+prefetch tso                | 8 6 4 4
mp+prefetch gam                | 8 6 4 4
mp+prefetch gam0               | 8 6 4 4
mp+prefetch gam-arm            | 8 6 4 4
corr sc                        | 4 4 3 3
corr tso                       | 4 4 3 3
corr gam                       | 4 4 3 3
corr gam0                      | 4 4 4 4
corr gam-arm                   | 4 4 3 3
corr+intervening-store sc      | 12 12 4 4
corr+intervening-store tso     | 12 12 4 4
corr+intervening-store gam     | 12 12 5 5
corr+intervening-store gam0    | 12 12 5 5
corr+intervening-store gam-arm | 12 12 4 4
rsw sc                         | 4 4 3 3
rsw tso                        | 4 4 3 3
rsw gam                        | 4 4 3 3
rsw gam0                       | 4 4 4 4
rsw gam-arm                    | 4 4 4 4
rnsw sc                        | 16 16 5 3
rnsw tso                       | 16 16 5 3
rnsw gam                       | 16 16 5 3
rnsw gam0                      | 16 16 9 4
rnsw gam-arm                   | 16 16 5 3
dekker+fence-sl sc             | 4 4 3 3
dekker+fence-sl tso            | 4 4 3 3
dekker+fence-sl gam            | 4 4 3 3
dekker+fence-sl gam0           | 4 4 3 3
dekker+fence-sl gam-arm        | 4 4 3 3
mp sc                          | 4 4 3 3
mp tso                         | 4 4 3 3
mp gam                         | 4 4 4 4
mp gam0                        | 4 4 4 4
mp gam-arm                     | 4 4 4 4
mp+fences sc                   | 4 4 3 3
mp+fences tso                  | 4 4 3 3
mp+fences gam                  | 4 4 3 3
mp+fences gam0                 | 4 4 3 3
mp+fences gam-arm              | 4 4 3 3
mp+fence-ss sc                 | 4 4 3 3
mp+fence-ss tso                | 4 4 3 3
mp+fence-ss gam                | 4 4 4 4
mp+fence-ss gam0               | 4 4 4 4
mp+fence-ss gam-arm            | 4 4 4 4
lb sc                          | 4 4 3 3
lb tso                         | 4 4 3 3
lb gam                         | 4 4 4 4
lb gam0                        | 4 4 4 4
lb gam-arm                     | 4 4 4 4
lb+data sc                     | 4 3 3 1
lb+data tso                    | 4 3 3 1
lb+data gam                    | 4 3 3 1
lb+data gam0                   | 4 3 3 1
lb+data gam-arm                | 4 3 3 1
lb+fence-ls sc                 | 4 4 3 3
lb+fence-ls tso                | 4 4 3 3
lb+fence-ls gam                | 4 4 3 3
lb+fence-ls gam0               | 4 4 3 3
lb+fence-ls gam-arm            | 4 4 3 3
iriw sc                        | 16 16 15 15
iriw tso                       | 16 16 15 15
iriw gam                       | 16 16 16 16
iriw gam0                      | 16 16 16 16
iriw gam-arm                   | 16 16 16 16
iriw+fence-ll sc               | 16 16 15 15
iriw+fence-ll tso              | 16 16 15 15
iriw+fence-ll gam              | 16 16 15 15
iriw+fence-ll gam0             | 16 16 15 15
iriw+fence-ll gam-arm          | 16 16 15 15
wrc sc                         | 8 8 7 5
wrc tso                        | 8 8 7 5
wrc gam                        | 8 8 7 5
wrc gam0                       | 8 8 7 5
wrc gam-arm                    | 8 8 7 5
wrc+no-dep sc                  | 8 8 7 5
wrc+no-dep tso                 | 8 8 7 5
wrc+no-dep gam                 | 8 8 8 6
wrc+no-dep gam0                | 8 8 8 6
wrc+no-dep gam-arm             | 8 8 8 6
corw sc                        | 1 1 1 1
corw tso                       | 1 1 1 1
corw gam                       | 1 1 1 1
corw gam0                      | 1 1 1 1
corw gam-arm                   | 1 1 1 1
cowr sc                        | 3 3 2 2
cowr tso                       | 3 3 2 2
cowr gam                       | 3 3 2 2
cowr gam0                      | 3 3 2 2
cowr gam-arm                   | 3 3 2 2
coww sc                        | 1 1 1 1
coww tso                       | 1 1 1 1
coww gam                       | 1 1 1 1
coww gam0                      | 1 1 1 1
coww gam-arm                   | 1 1 1 1
2+2w sc                        | 1 1 6 3
2+2w tso                       | 1 1 6 3
2+2w gam                       | 1 1 24 4
2+2w gam0                      | 1 1 24 4
2+2w gam-arm                   | 1 1 24 4
2+2w+fence-ss sc               | 1 1 6 3
2+2w+fence-ss tso              | 1 1 6 3
2+2w+fence-ss gam              | 1 1 6 3
2+2w+fence-ss gam0             | 1 1 6 3
2+2w+fence-ss gam-arm          | 1 1 6 3
s sc                           | 2 2 6 3
s tso                          | 2 2 6 3
s gam                          | 2 2 12 4
s gam0                         | 2 2 12 4
s gam-arm                      | 2 2 12 4
r sc                           | 2 2 6 3
r tso                          | 2 2 12 4
r gam                          | 2 2 24 4
r gam0                         | 2 2 24 4
r gam-arm                      | 2 2 24 4
";

/// The largest stress program (in loads plus stores) the stress totals
/// cover; bigger ones take seconds each in a debug build.
const STRESS_MAX_EVENTS: usize = 8;

/// One row per model, summed over the stress programs with at most
/// [`STRESS_MAX_EVENTS`] memory events:
/// `programs assignments_enumerated assignments_concretized orders_visited outcomes`.
const STRESS: &str = "
sc      | 168 2041 1439 10621 777
tso     | 168 2041 1439 26558 790
gam     | 168 2041 1439 110573 831
gam0    | 168 2041 1439 153347 999
gam-arm | 168 2041 1439 136786 831
";

fn tag_of(kind: ModelKind) -> String {
    kind.to_string().to_lowercase()
}

/// The four counters of one optimised check, in table order.
fn counters(kind: ModelKind, test: &LitmusTest) -> [u64; 4] {
    let (outcomes, stats) = AxiomaticChecker::new(model::by_kind(kind))
        .allowed_outcomes_with_stats(test)
        .unwrap_or_else(|err| panic!("{kind}/{}: {err}", test.name()));
    [
        stats.assignments_enumerated,
        stats.assignments_concretized,
        stats.orders_visited,
        outcomes.len() as u64,
    ]
}

/// Parses `key | n n n ...` rows into `(key, numbers)`.
fn rows(table: &str) -> Vec<(String, Vec<u64>)> {
    table
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let (key, numbers) = line.split_once('|').expect("a `key | numbers` row");
            let numbers = numbers.split_whitespace().map(|n| n.parse().expect("a count")).collect();
            (key.split_whitespace().collect::<Vec<_>>().join(" "), numbers)
        })
        .collect()
}

fn numbers(values: &[u64]) -> String {
    values.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

#[test]
fn library_search_counters_match_the_pinned_table() {
    let tests = library::all_tests();
    let pinned = rows(LIBRARY);
    let mut drift = Vec::new();
    for test in &tests {
        for kind in ModelKind::ALL {
            let key = format!("{} {}", test.name(), tag_of(kind));
            let actual = counters(kind, test);
            let expected = pinned.iter().find(|(k, _)| *k == key).map(|(_, n)| n.as_slice());
            if expected != Some(actual.as_slice()) {
                drift.push(format!("{key:<30} | {}", numbers(&actual)));
            }
        }
    }
    assert!(drift.is_empty(), "counter drift; the rows should read:\n{}", drift.join("\n"));
    assert_eq!(pinned.len(), tests.len() * ModelKind::ALL.len(), "one row per test and model");
}

#[test]
fn stress_search_totals_match_the_pinned_table() {
    let mut paths: Vec<_> = std::fs::read_dir("tests/corpus-stress")
        .expect("stress corpus is checked in")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "litmus"))
        .collect();
    paths.sort();
    let tests: Vec<LitmusTest> = paths
        .iter()
        .map(|path| {
            parse_litmus(&std::fs::read_to_string(path).expect("readable")).expect("parses")
        })
        .filter(|test| test.program().memory_instruction_count() <= STRESS_MAX_EVENTS)
        .collect();
    let pinned = rows(STRESS);
    let mut drift = Vec::new();
    for kind in ModelKind::ALL {
        let mut totals = [tests.len() as u64, 0, 0, 0, 0];
        for test in &tests {
            for (total, count) in totals[1..].iter_mut().zip(counters(kind, test)) {
                *total += count;
            }
        }
        let key = tag_of(kind);
        let expected = pinned.iter().find(|(k, _)| *k == key).map(|(_, n)| n.as_slice());
        if expected != Some(totals.as_slice()) {
            drift.push(format!("{key:<7} | {}", numbers(&totals)));
        }
    }
    assert!(drift.is_empty(), "counter drift; the rows should read:\n{}", drift.join("\n"));
    assert_eq!(pinned.len(), ModelKind::ALL.len(), "one row per model");
}
