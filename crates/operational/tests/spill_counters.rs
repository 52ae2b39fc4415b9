//! The spill layer's counters, pinned to literal values.
//!
//! Explorations of `big_tests(2024, 3)`, capped at 85% of the pair's
//! accounted peak with a spill directory, must finish with the outcome set
//! of the uncapped run, spill, and report exactly the counters below:
//! `states_visited`, `spilled_bytes`, `spill_segments` and
//! `spill_read_bytes`, in [`COUNTERS_SLEEP`] for GAM and GAM0. SC and TSO
//! runs of these tests have a few hundred states, so the governor, which
//! polls once per 256 expansions, has nothing to spill there. The GAM and
//! GAM0 runs still write several segments each and read megabytes back.
//!
//! The search and the spill schedule are deterministic, so the first three
//! counters move only when *what the explorer or the governor does*
//! changes; the last moves only when the read path does (its block size or
//! its cache). A deliberate change updates the tables in the same commit
//! and says why.

use gam_core::ModelKind;
use gam_operational::{big_tests, MemoryConfig, OperationalChecker};

/// The capped budget as a share of each pair's accounted peak, in percent.
const BUDGET_PERCENT: usize = 85;

/// One row per `test model`: `states spilled_bytes spill_segments
/// spill_read_bytes` of the capped run.
const COUNTERS_SLEEP: &str = "
big-000 gam  | 3937 57280 6 1610216
big-000 gam0 | 6097 92864 8 4658616
big-001 gam  | 6036 91376 7 5844448
big-001 gam0 | 6036 91376 7 5844448
big-002 gam  | 3569 50176 5 1636960
big-002 gam0 | 7945 119296 8 2444664
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

/// The four counters of the capped run of `test` under `kind`, after
/// checking its outcome set against the uncapped run's.
fn counters(kind: ModelKind, test: &gam_isa::litmus::LitmusTest) -> [usize; 4] {
    let roomy = MemoryConfig { max_bytes: Some(1 << 40), ..MemoryConfig::default() };
    let uncapped = OperationalChecker::new(kind)
        .with_memory(roomy)
        .explore(test)
        .expect("a roomy budget never stops the search");
    let peak = uncapped.memory.expect("budgeted runs report memory").peak_bytes;
    let dir = std::env::temp_dir().join(format!(
        "gam-spill-counters-{}-{kind}-{}",
        test.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let capped =
        MemoryConfig { max_bytes: Some(peak * BUDGET_PERCENT / 100), spill_dir: Some(dir.clone()) };
    let capped = OperationalChecker::new(kind)
        .with_memory(capped)
        .explore(test)
        .unwrap_or_else(|err| panic!("{kind}/{}: the capped run completes: {err}", test.name()));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        capped.outcomes,
        uncapped.outcomes,
        "{kind}/{}: the capped run must find the uncapped outcome set",
        test.name()
    );
    let memory = capped.memory.expect("budgeted runs report memory");
    assert!(memory.spill_segments > 0, "{kind}/{}: the capped run spills", test.name());
    [capped.states_visited, memory.spilled_bytes, memory.spill_segments, memory.spill_read_bytes]
}

#[test]
fn capped_reduced_gam_explorations_spill_and_match_the_pinned_counters() {
    let tests = big_tests(2024, 3);
    let mut rows = 0;
    let mut mismatches = Vec::new();
    for line in COUNTERS_SLEEP.lines().filter(|line| !line.trim().is_empty()) {
        let (key, values) = line.split_once('|').expect("a `key | values` row");
        let mut key = key.split_whitespace();
        let (name, tag) = (key.next().expect("a test name"), key.next().expect("a model tag"));
        let test = tests.iter().find(|test| test.name() == name).expect("a big test");
        let expected: Vec<usize> =
            values.split_whitespace().map(|n| n.parse().expect("a count")).collect();
        let actual = counters(model(tag), test);
        if expected != actual {
            mismatches.push(format!("{name} {tag}: expected {expected:?}, got {actual:?}"));
        }
        rows += 1;
    }
    assert!(mismatches.is_empty(), "counter drift:\n{}", mismatches.join("\n"));
    assert_eq!(rows, 3 * 2, "every big test under GAM and GAM0");
}
