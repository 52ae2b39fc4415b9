//! `perf_snapshot` — the perf-trajectory recorder.
//!
//! Runs the full litmus library through both formal backends under every
//! model, measures wall time and search effort (read-from assignments
//! enumerated vs. the unpruned space, memory orders visited, machine states
//! explored — unreduced, partial-order-reduced, sequential and parallel),
//! cross-checks that every configuration produced identical outcome sets,
//! and writes a machine-readable `BENCH_<date>.json` so future changes have
//! a baseline to beat.
//!
//! ```text
//! usage: perf_snapshot [--quick] [--corpus DIR] [--out PATH] [--parallelism N]
//!                      [--date YYYY-MM-DD]
//!                      [--compare OLD.json [--against NEW.json]]
//!                      [--fail-threshold R] [--list-gates]
//!
//!   --quick            run the paper's 11 core tests instead of the full library
//!   --corpus DIR       measure a `.litmus` corpus directory (see `gam run`)
//!                      instead of the in-code library
//!   --out PATH         output path (default: BENCH_<date>.json in the CWD)
//!   --parallelism N    worker threads for the parallel explorer (default: all cores)
//!   --date D           date stamp for the file name and payload (default: today, UTC)
//!   --compare OLD      after the run, diff OLD against the fresh snapshot and
//!                      exit non-zero on regressions beyond the threshold
//!   --against NEW      with --compare: diff OLD against NEW instead of running
//!   --fail-threshold R factor on the deterministic effort counters above which
//!                      a difference is a regression (default 1.25; 0 = report only)
//!   --no-obs-gate      skip the disarmed-instrumentation wall gate — for
//!                      comparisons across machines, where absolute walls
//!                      are not comparable (the deterministic counter gates
//!                      and the intra-run parallelism gate still apply)
//!   --list-gates       print every gated counter and the threshold semantics,
//!                      then exit (no benchmark run)
//! ```
//!
//! The JSON schema (`gam-perf-snapshot/v5`) is documented in the README's
//! "Performance" section: v4 (the top-level `obs` section measuring the
//! cost of the `gam-obs` instrumentation — the suite's wall time with
//! tracing disarmed and armed, best of three passes each, and the armed
//! overhead in permille) plus per-test *memory figures*: every operational
//! entry carries a `memory` object recorded by one extra sequential
//! exploration with the memory accountant armed (`peak_accounted_bytes`,
//! `spilled_bytes`, `spill_segments`, `sleep_flushes`), the totals gain the
//! summed `peak_accounted_bytes`, and the snapshot records the process's
//! final `resident_bytes` (informational — OS- and allocator-dependent).
//! `--compare` reads v5 files only (anything else is refused) and diffs the
//! (model, test) entries the two snapshots share. Besides the per-test
//! counters (which now include the
//! deterministic `peak_accounted_bytes` — the peak-memory regression gate),
//! it *gates* two walls: the adaptive parallelism (a candidate whose total
//! parallel operational wall time exceeds the sequential wall time beyond
//! the threshold factor fails the comparison, so the sharding regression
//! this schema generation fixed cannot silently return) and the disarmed
//! instrumentation overhead (a candidate whose disarmed suite wall exceeds
//! a same-workload baseline's by more than 2% fails — phase timers must
//! stay one relaxed load when off).

use std::collections::BTreeSet;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use gam_axiomatic::{AxiomaticChecker, CheckStats};
use gam_bench::{arg_flag, arg_value};
use gam_core::{model, ModelKind};
use gam_engine::Json;
use gam_isa::litmus::{library, LitmusTest, Outcome};
use gam_operational::{
    ArenaOccupancy, ExplorerConfig, MemoryConfig, MemoryStats, OperationalChecker, Reduction,
};

/// Everything measured for one `(model, test)` pair.
struct Row {
    test: String,
    axiomatic_wall: Duration,
    stats: CheckStats,
    outcomes: usize,
    /// Sequential and parallel exploration measurements (models with an
    /// abstract machine only).
    operational: Option<OperationalRow>,
}

struct OperationalRow {
    sequential_wall: Duration,
    parallel_wall: Duration,
    states_visited: usize,
    final_states: usize,
    /// Component-arena sharing statistics of the sequential exploration.
    occupancy: ArenaOccupancy,
    /// Memory figures of the accounted sequential exploration (budget far
    /// beyond any test's needs, so the degradation ladder never engages and
    /// `peak_bytes` is the test's deterministic in-RAM high-water mark).
    memory: MemoryStats,
    /// Reduced exploration, one entry per reduced [`Reduction`] mode.
    sleep: ReducedRow,
    sleep_canon: ReducedRow,
}

struct ReducedRow {
    wall: Duration,
    states_visited: usize,
    transitions_pruned: usize,
}

fn reduced_run(
    model_kind: ModelKind,
    test: &LitmusTest,
    reduction: Reduction,
    baseline: &BTreeSet<Outcome>,
) -> Result<ReducedRow, String> {
    let checker = OperationalChecker::with_config(
        model_kind,
        ExplorerConfig { reduction, ..ExplorerConfig::default() },
    );
    let start = Instant::now();
    let exploration = checker
        .explore(test)
        .map_err(|e| format!("{reduction} operational {model_kind}/{}: {e}", test.name()))?;
    let wall = start.elapsed();
    expect_identical(
        model_kind,
        test,
        &format!("unreduced vs {reduction}"),
        baseline,
        &exploration.outcomes,
    )?;
    Ok(ReducedRow {
        wall,
        states_visited: exploration.states_visited,
        transitions_pruned: exploration.transitions_pruned,
    })
}

fn check_one(model_kind: ModelKind, test: &LitmusTest, parallelism: usize) -> Result<Row, String> {
    let checker = AxiomaticChecker::new(model::by_kind(model_kind));
    let start = Instant::now();
    let (ax_outcomes, stats) = checker
        .allowed_outcomes_with_stats(test)
        .map_err(|e| format!("axiomatic {model_kind}/{}: {e}", test.name()))?;
    let axiomatic_wall = start.elapsed();

    let operational = if OperationalChecker::supports(model_kind) {
        let sequential = OperationalChecker::new(model_kind);
        let start = Instant::now();
        let seq = sequential
            .explore(test)
            .map_err(|e| format!("operational {model_kind}/{}: {e}", test.name()))?;
        let sequential_wall = start.elapsed();

        let parallel = OperationalChecker::with_config(
            model_kind,
            ExplorerConfig { parallelism, ..ExplorerConfig::default() },
        );
        let start = Instant::now();
        let par = parallel
            .explore(test)
            .map_err(|e| format!("parallel operational {model_kind}/{}: {e}", test.name()))?;
        let parallel_wall = start.elapsed();

        expect_identical(
            model_kind,
            test,
            "axiomatic vs operational",
            &ax_outcomes,
            &seq.outcomes,
        )?;
        expect_identical(model_kind, test, "sequential vs parallel", &seq.outcomes, &par.outcomes)?;
        if seq.states_visited != par.states_visited {
            return Err(format!(
                "{model_kind}/{}: parallel visited {} states, sequential {}",
                test.name(),
                par.states_visited,
                seq.states_visited
            ));
        }

        // Memory figures: one more sequential exploration with the
        // accountant armed. The huge budget never trips, so this measures
        // the undisturbed high-water mark — deterministic for a fixed
        // search, unlike RSS.
        let accounted = OperationalChecker::new(model_kind).with_memory(MemoryConfig {
            max_bytes: Some(usize::MAX / 2),
            spill_dir: None,
            checkpoint: None,
        });
        let acc = accounted
            .explore(test)
            .map_err(|e| format!("accounted operational {model_kind}/{}: {e}", test.name()))?;
        expect_identical(model_kind, test, "unreduced vs accounted", &seq.outcomes, &acc.outcomes)?;
        if seq.states_visited != acc.states_visited {
            return Err(format!(
                "{model_kind}/{}: accounted exploration visited {} states, plain {}",
                test.name(),
                acc.states_visited,
                seq.states_visited
            ));
        }

        let sleep = reduced_run(model_kind, test, Reduction::Sleep, &seq.outcomes)?;
        let sleep_canon = reduced_run(model_kind, test, Reduction::SleepPlusCanon, &seq.outcomes)?;
        // The parallel reduced driver must agree too (its states/pruning are
        // arrival-order dependent, so only the outcome set is pinned).
        let parallel_reduced = OperationalChecker::with_config(
            model_kind,
            ExplorerConfig {
                parallelism,
                reduction: Reduction::SleepPlusCanon,
                ..ExplorerConfig::default()
            },
        );
        let par_red = parallel_reduced
            .explore(test)
            .map_err(|e| format!("parallel reduced {model_kind}/{}: {e}", test.name()))?;
        expect_identical(
            model_kind,
            test,
            "unreduced vs parallel sleep+canon",
            &seq.outcomes,
            &par_red.outcomes,
        )?;

        Some(OperationalRow {
            sequential_wall,
            parallel_wall,
            states_visited: seq.states_visited,
            final_states: seq.final_states,
            occupancy: seq.arena.unwrap_or_default(),
            memory: acc.memory.unwrap_or_default(),
            sleep,
            sleep_canon,
        })
    } else {
        None
    };

    Ok(Row {
        test: test.name().to_string(),
        axiomatic_wall,
        stats,
        outcomes: ax_outcomes.len(),
        operational,
    })
}

fn expect_identical(
    model_kind: ModelKind,
    test: &LitmusTest,
    what: &str,
    a: &BTreeSet<Outcome>,
    b: &BTreeSet<Outcome>,
) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{model_kind}/{}: {what} outcome sets differ ({} vs {} outcomes)",
            test.name(),
            a.len(),
            b.len()
        ))
    }
}

/// Wall time of the suite with `gam-obs` instrumentation disarmed and armed.
struct ObsOverhead {
    disarmed: Duration,
    armed: Duration,
}

impl ObsOverhead {
    /// Armed-over-disarmed overhead in permille (0 when armed is not slower).
    fn armed_overhead_permille(&self) -> u64 {
        let disarmed = self.disarmed.as_micros().max(1);
        let extra = self.armed.as_micros().saturating_sub(self.disarmed.as_micros());
        u64::try_from(extra * 1000 / disarmed).unwrap_or(u64::MAX)
    }
}

/// One pass over the suite: every model's axiomatic check plus, where
/// supported, a sequential operational exploration — the same work whose
/// per-test walls the main loop records, so the disarmed wall is comparable
/// to `totals.wall_us_axiomatic + totals.wall_us_operational_sequential` of
/// pre-`obs` baselines.
fn suite_pass(tests: &[LitmusTest]) -> Result<Duration, String> {
    let start = Instant::now();
    for model_kind in ModelKind::ALL {
        let checker = AxiomaticChecker::new(model::by_kind(model_kind));
        for test in tests {
            checker
                .allowed_outcomes_with_stats(test)
                .map_err(|e| format!("obs pass axiomatic {model_kind}/{}: {e}", test.name()))?;
            if OperationalChecker::supports(model_kind) {
                OperationalChecker::new(model_kind).explore(test).map_err(|e| {
                    format!("obs pass operational {model_kind}/{}: {e}", test.name())
                })?;
            }
        }
    }
    Ok(start.elapsed())
}

/// Measures the suite disarmed and armed, best of three passes each so the
/// recorded walls reflect the instrumentation, not scheduler noise. Leaves
/// tracing disarmed and the ring empty on return.
fn measure_obs_overhead(tests: &[LitmusTest]) -> Result<ObsOverhead, String> {
    let passes = 3;
    let mut disarmed = Duration::MAX;
    for _ in 0..passes {
        disarmed = disarmed.min(suite_pass(tests)?);
    }
    gam_obs::trace::arm();
    gam_obs::phase::arm_metrics();
    let mut armed = Duration::MAX;
    for _ in 0..passes {
        let pass = suite_pass(tests);
        gam_obs::trace::clear();
        armed = armed.min(pass?);
    }
    gam_obs::phase::disarm_metrics();
    gam_obs::trace::disarm();
    gam_obs::trace::clear();
    Ok(ObsOverhead { disarmed, armed })
}

/// Saturates a u128 statistic into the JSON integer space.
fn uint(n: u128) -> Json {
    Json::UInt(u64::try_from(n).unwrap_or(u64::MAX))
}

fn micros(d: Duration) -> Json {
    Json::UInt(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// Exploration throughput (saturating; 0 for an unmeasurably fast run).
fn states_per_sec(states: usize, wall: Duration) -> u64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (states as f64 / secs) as u64
    }
}

fn reduced_json(row: &ReducedRow) -> Json {
    Json::object([
        ("wall_us", micros(row.wall)),
        ("states_visited", Json::UInt(row.states_visited as u64)),
        ("transitions_pruned", Json::UInt(row.transitions_pruned as u64)),
    ])
}

fn row_json(row: &Row) -> Json {
    let pruned =
        row.stats.assignments_naive.saturating_sub(row.stats.assignments_enumerated.into());
    let mut pairs = vec![
        ("test", Json::from(row.test.as_str())),
        (
            "axiomatic",
            Json::object([
                ("wall_us", micros(row.axiomatic_wall)),
                ("assignments_naive", uint(row.stats.assignments_naive)),
                ("assignments_enumerated", Json::UInt(row.stats.assignments_enumerated)),
                ("assignments_pruned", uint(pruned)),
                ("assignments_concretized", Json::UInt(row.stats.assignments_concretized)),
                ("orders_visited", Json::UInt(row.stats.orders_visited)),
                ("outcomes", Json::UInt(row.outcomes as u64)),
            ]),
        ),
    ];
    if let Some(op) = &row.operational {
        pairs.push((
            "operational",
            Json::object([
                ("wall_us_sequential", micros(op.sequential_wall)),
                ("wall_us_parallel", micros(op.parallel_wall)),
                ("states_visited", Json::UInt(op.states_visited as u64)),
                ("final_states", Json::UInt(op.final_states as u64)),
                (
                    "states_per_sec",
                    Json::UInt(states_per_sec(op.states_visited, op.sequential_wall)),
                ),
                (
                    "arena",
                    Json::object([
                        ("distinct_memories", Json::UInt(op.occupancy.distinct_memories as u64)),
                        ("distinct_procs", Json::UInt(op.occupancy.distinct_procs as u64)),
                        (
                            "distinct_components",
                            Json::UInt(op.occupancy.distinct_components() as u64),
                        ),
                        ("interned_bytes", Json::UInt(op.occupancy.interned_bytes as u64)),
                    ]),
                ),
                (
                    "memory",
                    Json::object([
                        ("peak_accounted_bytes", Json::UInt(op.memory.peak_bytes as u64)),
                        ("spilled_bytes", Json::UInt(op.memory.spilled_bytes as u64)),
                        ("spill_segments", Json::UInt(op.memory.spill_segments as u64)),
                        ("sleep_flushes", Json::UInt(op.memory.sleep_flushes as u64)),
                    ]),
                ),
                (
                    "reduction",
                    Json::object([
                        ("sleep", reduced_json(&op.sleep)),
                        ("sleep_canon", reduced_json(&op.sleep_canon)),
                    ]),
                ),
            ]),
        ));
    }
    Json::object(pairs.iter().map(|(k, v)| (*k, v.clone())))
}

/// Days-from-epoch to a civil `YYYY-MM-DD` date (Howard Hinnant's algorithm).
fn civil_date(days: u64) -> String {
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn today() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    civil_date(secs / 86_400)
}

// ---- snapshot comparison ---------------------------------------------------

/// The snapshot schema this binary writes and the only one `--compare` reads.
const SCHEMA: &str = "gam-perf-snapshot/v5";

/// The deterministic effort counters a comparison grades (path within a
/// per-test entry, lower is better). Wall times are reported but never fail
/// the comparison — they are machine- and load-dependent.
const GRADED: [(&str, &[&str]); 6] = [
    ("axiomatic.assignments_enumerated", &["axiomatic", "assignments_enumerated"]),
    ("axiomatic.orders_visited", &["axiomatic", "orders_visited"]),
    ("operational.states_visited", &["operational", "states_visited"]),
    ("operational.memory.peak_accounted_bytes", &["operational", "memory", "peak_accounted_bytes"]),
    (
        "operational.reduction.sleep.states_visited",
        &["operational", "reduction", "sleep", "states_visited"],
    ),
    (
        "operational.reduction.sleep_canon.states_visited",
        &["operational", "reduction", "sleep_canon", "states_visited"],
    ),
];

fn lookup<'a>(mut value: &'a Json, path: &[&str]) -> Option<&'a Json> {
    for key in path {
        value = value.get(key)?;
    }
    Some(value)
}

/// Flattens a snapshot into `(model, test) -> per-test entry`.
fn test_entries(snapshot: &Json) -> Vec<(String, String, &Json)> {
    let mut out = Vec::new();
    let Some(models) = snapshot.get("per_model").and_then(Json::as_array) else {
        return out;
    };
    for section in models {
        let Some(model) = section.get("model").and_then(Json::as_str) else { continue };
        let Some(tests) = section.get("tests").and_then(Json::as_array) else { continue };
        for entry in tests {
            if let Some(test) = entry.get("test").and_then(Json::as_str) {
                out.push((model.to_string(), test.to_string(), entry));
            }
        }
    }
    out
}

/// Loads a snapshot for `--compare`, refusing anything but [`SCHEMA`].
fn load_snapshot(path: &str) -> Json {
    let payload = match std::fs::read_to_string(path) {
        Ok(payload) => payload,
        Err(err) => {
            eprintln!("perf_snapshot: cannot read {path}: {err}");
            std::process::exit(2);
        }
    };
    let snapshot = match Json::parse(&payload) {
        Ok(snapshot) => snapshot,
        Err(err) => {
            eprintln!("perf_snapshot: cannot parse {path}: {err}");
            std::process::exit(2);
        }
    };
    let schema = snapshot.get("schema").and_then(Json::as_str).unwrap_or("no schema");
    if schema != SCHEMA {
        eprintln!("perf_snapshot: {path} is {schema}; --compare reads {SCHEMA} only");
        std::process::exit(2);
    }
    snapshot
}

/// Prints every counter `--compare` gates, with the gate semantics — the
/// reference for debugging a failed comparison.
fn list_gates() {
    println!("perf_snapshot gated counters (per (model, test) entry; lower is better):");
    for (label, _) in GRADED {
        println!("  {label}");
    }
    println!("snapshot-level gate:");
    println!("  totals.wall_us_operational_parallel <= totals.wall_us_operational_sequential x threshold");
    println!(
        "  obs.library_wall_us_disarmed <= baseline disarmed wall x {OBS_OVERHEAD_THRESHOLD:.2}"
    );
    println!("    (only gated when both snapshots measured the same workload — same test");
    println!("    and model counts)");
    println!();
    println!("semantics: a counter regresses when candidate > baseline x threshold");
    println!("(default 1.25); improvements beyond 1/threshold are reported but never");
    println!("fail. --fail-threshold 0 switches to report-only mode: every difference");
    println!("is printed and the exit status stays 0. Wall times other than the");
    println!("parallel-vs-sequential gate are informational only (machine-dependent).");
}

/// The disarmed-instrumentation wall may regress by at most 2% before the
/// comparison fails — phase timers are contractually one relaxed load when
/// off, so any larger movement on the same workload is a broken disarm path,
/// not noise (the recorded wall is a best-of-three pass).
const OBS_OVERHEAD_THRESHOLD: f64 = 1.02;

/// The disarmed-overhead gate; pushes onto `regressions` when it fails.
fn gate_obs_overhead(old: &Json, new: &Json, regressions: &mut Vec<String>) {
    let Some(candidate) = lookup(new, &["obs", "library_wall_us_disarmed"]).and_then(Json::as_u64)
    else {
        println!("compare: obs gate skipped (candidate has no obs section)");
        return;
    };
    let same_workload = ["tests", "models"]
        .iter()
        .all(|key| old.get(key).is_some() && old.get(key) == new.get(key));
    if !same_workload {
        println!(
            "compare: obs gate skipped (snapshots measured different workloads — \
             disarmed walls are not comparable)"
        );
        return;
    }
    let Some(baseline) = lookup(old, &["obs", "library_wall_us_disarmed"]).and_then(Json::as_u64)
    else {
        println!("compare: obs gate skipped (baseline has no disarmed wall)");
        return;
    };
    #[allow(clippy::cast_precision_loss)]
    if candidate as f64 > baseline as f64 * OBS_OVERHEAD_THRESHOLD {
        regressions.push(format!(
            "obs.library_wall_us_disarmed: baseline {baseline}us, candidate {candidate}us \
             (beyond x{OBS_OVERHEAD_THRESHOLD:.2})"
        ));
        println!(
            "compare: REGRESSION obs.library_wall_us_disarmed: {candidate}us exceeds the \
             baseline {baseline}us beyond x{OBS_OVERHEAD_THRESHOLD:.2} — disarmed \
             instrumentation must stay free"
        );
    } else {
        println!(
            "compare: disarmed suite wall {candidate}us <= baseline {baseline}us x \
             {OBS_OVERHEAD_THRESHOLD:.2} (disarmed-overhead gate holds)"
        );
    }
}

/// Diffs two snapshots over the metrics they share; returns one description
/// per regression beyond `threshold` (empty = comparison passed).
/// `obs_gate: false` skips the absolute-wall instrumentation gate
/// (cross-machine comparisons).
fn compare_snapshots(old: &Json, new: &Json, threshold: f64, obs_gate: bool) -> Vec<String> {
    let old_schema = old.get("schema").and_then(Json::as_str).unwrap_or("?");
    let new_schema = new.get("schema").and_then(Json::as_str).unwrap_or("?");
    println!("compare: baseline schema {old_schema}, candidate schema {new_schema}");

    let new_entries = test_entries(new);
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    let mut improvements = 0usize;
    let mut total_old_wall = 0u64;
    let mut total_new_wall = 0u64;

    for (model, test, old_entry) in test_entries(old) {
        let Some((_, _, new_entry)) =
            new_entries.iter().find(|(m, t, _)| *m == model && *t == test)
        else {
            continue;
        };
        compared += 1;
        for (label, path) in GRADED {
            let (Some(old_value), Some(new_value)) = (
                lookup(old_entry, path).and_then(Json::as_u64),
                lookup(new_entry, path).and_then(Json::as_u64),
            ) else {
                continue;
            };
            #[allow(clippy::cast_precision_loss)]
            let factor = if old_value == 0 {
                if new_value == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                new_value as f64 / old_value as f64
            };
            if threshold > 0.0 && factor > threshold {
                regressions.push(format!(
                    "{model}/{test} {label}: baseline {old_value}, candidate {new_value} \
                     (x{factor:.2} > x{threshold:.2})"
                ));
                println!(
                    "compare: REGRESSION {model}/{test} {label}: {old_value} -> {new_value} \
                     (x{factor:.2})"
                );
            } else if threshold > 0.0 && factor < 1.0 / threshold {
                improvements += 1;
                println!(
                    "compare: improvement {model}/{test} {label}: {old_value} -> {new_value} \
                     (x{factor:.2})"
                );
            } else if threshold <= 0.0 && old_value != new_value {
                // Report-only mode: surface every difference, fail nothing.
                println!(
                    "compare: change {model}/{test} {label}: {old_value} -> {new_value} \
                     (x{factor:.2})"
                );
            }
        }
        if let (Some(old_wall), Some(new_wall)) = (
            lookup(old_entry, &["operational", "wall_us_sequential"]).and_then(Json::as_u64),
            lookup(new_entry, &["operational", "wall_us_sequential"]).and_then(Json::as_u64),
        ) {
            total_old_wall += old_wall;
            total_new_wall += new_wall;
        }
    }
    // The adaptive-parallelism gate: on the candidate snapshot the parallel
    // operational wall time must not exceed the sequential wall time beyond
    // the threshold factor. Wall times are noisy, hence the slack — but a
    // parallel mode that is systematically *slower* than sequential (the
    // pre-adaptive regression) trips this on every run.
    if threshold > 0.0 {
        if let (Some(seq), Some(par)) = (
            lookup(new, &["totals", "wall_us_operational_sequential"]).and_then(Json::as_u64),
            lookup(new, &["totals", "wall_us_operational_parallel"]).and_then(Json::as_u64),
        ) {
            #[allow(clippy::cast_precision_loss)]
            if par as f64 > seq as f64 * threshold {
                regressions.push(format!(
                    "totals.wall_us_operational_parallel: sequential {seq}us, parallel {par}us \
                     (beyond x{threshold:.2})"
                ));
                println!(
                    "compare: REGRESSION totals.wall_us_operational_parallel: {par}us exceeds \
                     the sequential {seq}us beyond x{threshold:.2} — adaptive sharding must \
                     keep parallel exploration no slower than sequential"
                );
            } else {
                println!(
                    "compare: parallel operational wall {par}us <= sequential {seq}us x \
                     {threshold:.2} (adaptive-parallelism gate holds)"
                );
            }
        }
        if obs_gate {
            gate_obs_overhead(old, new, &mut regressions);
        } else {
            println!("compare: obs gate skipped (--no-obs-gate)");
        }
    }
    println!(
        "compare: {compared} (model, test) pairs compared, {} regressions, \
         {improvements} improvements (threshold x{threshold:.2}); operational sequential wall \
         {total_old_wall}us -> {total_new_wall}us (informational)",
        regressions.len()
    );
    // A terminal summary naming every failed gate with both values, so a CI
    // log's last lines say exactly which counter moved and by how much
    // (`--list-gates` documents the full gate set).
    if !regressions.is_empty() {
        println!("compare: FAILED {} gate(s):", regressions.len());
        for line in &regressions {
            println!("  {line}");
        }
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if arg_flag(&args, "--list-gates") {
        list_gates();
        return;
    }
    let quick = arg_flag(&args, "--quick");
    let date = arg_value(&args, "--date").unwrap_or_else(today);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| format!("BENCH_{date}.json"));
    let compare = arg_value(&args, "--compare");
    let against = arg_value(&args, "--against");
    let threshold = arg_value(&args, "--fail-threshold")
        .map(|v| v.parse::<f64>().expect("--fail-threshold takes a number"))
        .unwrap_or(1.25);

    let obs_gate = !arg_flag(&args, "--no-obs-gate");

    if let (Some(old_path), Some(new_path)) = (&compare, &against) {
        // Pure diff mode: no benchmark run.
        let old = load_snapshot(old_path);
        let new = load_snapshot(new_path);
        let regressions = compare_snapshots(&old, &new, threshold, obs_gate);
        std::process::exit(i32::from(!regressions.is_empty()));
    }

    // At least two workers, so the sharded-frontier code path is always the
    // one measured and cross-checked (one worker falls back to sequential).
    let parallelism = arg_value(&args, "--parallelism")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(2);

    let tests = match arg_value(&args, "--corpus") {
        Some(dir) => {
            // A `.litmus` corpus as the workload source instead of the
            // in-code library — the same files `gam run` consumes.
            let corpus = gam_frontend::Corpus::load(&dir).unwrap_or_else(|err| {
                eprintln!("perf_snapshot: {err}");
                std::process::exit(2);
            });
            eprintln!("perf_snapshot: corpus {dir} ({} tests)", corpus.tests.len());
            corpus.tests()
        }
        None if quick => library::paper_tests(),
        None => library::all_tests(),
    };
    eprintln!(
        "perf_snapshot: {} tests x {} models, explorer parallelism {parallelism}",
        tests.len(),
        ModelKind::ALL.len()
    );

    let started = Instant::now();
    let mut model_sections = Vec::new();
    let mut total_naive = 0u128;
    let mut total_enumerated = 0u128;
    let mut total_states = 0u64;
    let mut total_peak_accounted = 0u64;
    let mut total_components = 0u64;
    let mut total_interned_bytes = 0u64;
    let mut total_states_reduced = 0u64;
    let mut total_pruned = 0u64;
    let mut total_ax_wall = Duration::ZERO;
    let mut total_seq_wall = Duration::ZERO;
    let mut total_par_wall = Duration::ZERO;
    let mut total_reduced_wall = Duration::ZERO;
    let mut five_fold: BTreeSet<String> = BTreeSet::new();
    let mut gam_two_fold: BTreeSet<String> = BTreeSet::new();

    for model_kind in ModelKind::ALL {
        let mut rows = Vec::new();
        for test in &tests {
            match check_one(model_kind, test, parallelism) {
                Ok(row) => {
                    total_naive = total_naive.saturating_add(row.stats.assignments_naive);
                    total_enumerated =
                        total_enumerated.saturating_add(row.stats.assignments_enumerated.into());
                    total_ax_wall += row.axiomatic_wall;
                    if let Some(op) = &row.operational {
                        total_states += op.states_visited as u64;
                        total_peak_accounted += op.memory.peak_bytes as u64;
                        total_components += op.occupancy.distinct_components() as u64;
                        total_interned_bytes += op.occupancy.interned_bytes as u64;
                        total_states_reduced += op.sleep_canon.states_visited as u64;
                        total_pruned += op.sleep_canon.transitions_pruned as u64;
                        total_seq_wall += op.sequential_wall;
                        total_par_wall += op.parallel_wall;
                        total_reduced_wall += op.sleep_canon.wall;
                        if model_kind == ModelKind::Gam
                            && op.sleep_canon.states_visited * 2 <= op.states_visited
                        {
                            gam_two_fold.insert(row.test.clone());
                        }
                    }
                    if row.stats.pruning_factor().is_some_and(|f| f >= 5.0) {
                        five_fold.insert(row.test.clone());
                    }
                    rows.push(row_json(&row));
                }
                Err(message) => {
                    eprintln!("perf_snapshot: FAILED: {message}");
                    std::process::exit(1);
                }
            }
        }
        model_sections.push(Json::object([
            ("model", Json::from(model_kind.to_string())),
            ("tests", Json::Array(rows)),
        ]));
    }

    let overhead = match measure_obs_overhead(&tests) {
        Ok(overhead) => overhead,
        Err(message) => {
            eprintln!("perf_snapshot: FAILED: {message}");
            std::process::exit(1);
        }
    };

    let snapshot = Json::object([
        ("schema", Json::from(SCHEMA)),
        ("date", Json::from(date.as_str())),
        ("quick", Json::from(quick)),
        ("explorer_parallelism", Json::UInt(parallelism as u64)),
        ("tests", Json::UInt(tests.len() as u64)),
        ("models", Json::UInt(ModelKind::ALL.len() as u64)),
        (
            "totals",
            Json::object([
                ("wall_us_axiomatic", micros(total_ax_wall)),
                ("wall_us_operational_sequential", micros(total_seq_wall)),
                ("wall_us_operational_parallel", micros(total_par_wall)),
                ("wall_us_operational_reduced", micros(total_reduced_wall)),
                ("assignments_naive", uint(total_naive)),
                ("assignments_enumerated", uint(total_enumerated)),
                ("assignments_pruned", uint(total_naive.saturating_sub(total_enumerated))),
                ("states_visited", Json::UInt(total_states)),
                ("peak_accounted_bytes", Json::UInt(total_peak_accounted)),
                ("arena_distinct_components", Json::UInt(total_components)),
                ("arena_interned_bytes", Json::UInt(total_interned_bytes)),
                ("states_visited_reduced", Json::UInt(total_states_reduced)),
                ("transitions_pruned", Json::UInt(total_pruned)),
                (
                    "tests_with_5x_pruning",
                    Json::array(five_fold.iter().map(|name| Json::from(name.as_str()))),
                ),
                (
                    "gam_tests_with_2x_state_reduction",
                    Json::array(gam_two_fold.iter().map(|name| Json::from(name.as_str()))),
                ),
            ]),
        ),
        (
            "obs",
            Json::object([
                ("library_wall_us_disarmed", micros(overhead.disarmed)),
                ("library_wall_us_armed", micros(overhead.armed)),
                ("armed_overhead_permille", Json::UInt(overhead.armed_overhead_permille())),
            ]),
        ),
        // Informational only: the OS view of the whole run's footprint.
        // Allocator- and platform-dependent, so it is never gated —
        // `peak_accounted_bytes` is the deterministic figure.
        (
            "resident_bytes",
            Json::UInt(
                gam_core::memory::process_resident_bytes()
                    .map_or(0, |b| u64::try_from(b).unwrap_or(u64::MAX)),
            ),
        ),
        ("per_model", Json::Array(model_sections)),
    ]);

    let payload = format!("{snapshot}\n");
    if let Err(err) = std::fs::write(&out_path, &payload) {
        eprintln!("perf_snapshot: cannot write {out_path}: {err}");
        std::process::exit(1);
    }

    let factor = if total_enumerated == 0 {
        1.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        {
            total_naive as f64 / total_enumerated as f64
        }
    };
    #[allow(clippy::cast_precision_loss)]
    let reduction_factor = if total_states_reduced == 0 {
        1.0
    } else {
        total_states as f64 / total_states_reduced as f64
    };
    println!(
        "perf_snapshot: OK in {:?} — {} assignments enumerated (naive space {}, {:.1}x pruned), \
         {} tests with a >=5x pruning factor, {} states visited ({} reduced, {:.2}x, \
         {} transitions pruned, {} GAM tests with >=2x state reduction); snapshot written to \
         {out_path}",
        started.elapsed(),
        total_enumerated,
        total_naive,
        factor,
        five_fold.len(),
        total_states,
        total_states_reduced,
        reduction_factor,
        total_pruned,
        gam_two_fold.len()
    );
    println!(
        "perf_snapshot: obs suite wall {:?} disarmed, {:?} armed \
         (+{} permille; best of 3 passes each)",
        overhead.disarmed,
        overhead.armed,
        overhead.armed_overhead_permille()
    );
    println!(
        "perf_snapshot: accounted exploration peak {total_peak_accounted} bytes summed over \
         all (model, test) pairs"
    );

    if let Some(old_path) = compare {
        let old = load_snapshot(&old_path);
        let regressions = compare_snapshots(&old, &snapshot, threshold, obs_gate);
        if !regressions.is_empty() {
            std::process::exit(1);
        }
    }
}
