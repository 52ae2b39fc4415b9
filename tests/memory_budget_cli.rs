//! End-to-end memory-pressure behaviour through the real binary.
//!
//! The contract under test, rung by rung of the degradation ladder:
//!
//! * a `--mem-budget` too small to finish and with nowhere to spill stops
//!   cleanly — exit 3, an inconclusive row naming the memory budget, never
//!   a panic or a wrong verdict;
//! * the same budget with a `--spill-dir` completes by moving cold arena
//!   segments to disk, and the verdict matches an uncapped run;
//! * injected spill faults (`spill.write`, `spill.read`) degrade the run
//!   back to a sound inconclusive at worst;
//! * a budgeted, spilling `gam check --checkpoint` killed (SIGKILL) after
//!   its first completed (model, backend) unit resumes from that unit and
//!   reports the rows of an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use gam_engine::{Json, RunCheckpoint};

/// A budget inside big-003's spill window under the default (reduced)
/// GAM search: below the uncapped peak of 176,657 accounted bytes, and
/// above the floor of about 140,000 under which spilling arena rows no
/// longer suffices, so the exploration can only finish by spilling.
const BIG_003_WINDOW_BUDGET: &str = "164000";

/// Pause before every checkpoint append of the resume test's victim, so
/// the kill that follows its first recorded unit lands before it can
/// record the second.
const VICTIM_APPEND_DELAY: &str = "checkpoint.write=delay:500";

/// A budget below any big test's floor: trips before the witness search
/// reaches a matching final state, so the verdict must be inconclusive.
const TINY_BUDGET: &str = "50000";

fn gam() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gam"));
    command.env_remove("GAM_FAULTS");
    command
}

fn big_test(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus-big").join(name)
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("gam-mem-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Every result row of a `gam check --json` report, in (model, backend)
/// order: each pair's suite report holds the one row of the checked test.
fn rows(report: &Json) -> Vec<&Json> {
    let reports = report.get("reports").and_then(Json::as_array).expect("reports");
    reports
        .iter()
        .flat_map(|pair| pair.get("tests").and_then(Json::as_array).expect("tests"))
        .collect()
}

/// The single result row of a one-test, one-pair `gam check --json` report.
fn only_row(report: &Json) -> &Json {
    let rows = rows(report);
    assert_eq!(rows.len(), 1, "expected exactly one (model, backend) row");
    rows[0]
}

fn parse_stdout(output: &Output) -> Json {
    Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("check report parses")
}

fn assert_no_panic(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "the binary must never panic: {stderr}");
    assert!(output.status.code().is_some(), "the binary must exit, not die on a signal");
}

#[test]
fn a_budget_too_small_to_finish_stops_with_a_clean_inconclusive() {
    let output = gam()
        .args(["check"])
        .arg(big_test("big-001.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--mem-budget", TINY_BUDGET])
        .args(["--json"])
        .output()
        .expect("gam check runs");
    assert_no_panic(&output);
    assert_eq!(output.status.code(), Some(3), "inconclusive exits 3");
    let report = parse_stdout(&output);
    let row = only_row(&report);
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some("inconclusive"));
    let reason = row.get("reason").and_then(Json::as_str).expect("reason");
    assert!(
        reason.contains("memory budget") && reason.contains(TINY_BUDGET),
        "the reason must name the exhausted budget: {reason}"
    );
    // A clean stop still reports the partial work it salvaged.
    assert!(row.get("states").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(row.get("partial_outcomes").and_then(Json::as_u64).is_some());
}

#[test]
fn the_same_budget_with_a_spill_dir_completes_with_the_uncapped_verdict() {
    // "Uncapped" here means a budget far above the peak: same sequential
    // code path and report shape, but the ceiling can never trip.
    let uncapped = gam()
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", "1073741824"])
        .output()
        .expect("gam check runs");
    assert!(uncapped.status.success());
    let uncapped_verdict = only_row(&parse_stdout(&uncapped))
        .get("verdict")
        .and_then(Json::as_str)
        .expect("verdict")
        .to_string();

    let spill = Scratch::new("spill");
    let capped = gam()
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(&spill.0)
        .output()
        .expect("gam check runs");
    assert_no_panic(&capped);
    assert!(
        capped.status.success(),
        "capped run must complete via spill: {}",
        String::from_utf8_lossy(&capped.stderr)
    );
    let row = parse_stdout(&capped);
    assert_eq!(
        only_row(&row).get("verdict").and_then(Json::as_str),
        Some(uncapped_verdict.as_str()),
        "a capped run that completes must agree with the uncapped verdict"
    );
    // The budget sits below the uncapped peak, so completing means the
    // ladder actually wrote spill segments.
    let segments = std::fs::read_dir(&spill.0)
        .map(|entries| entries.filter_map(Result::ok).count())
        .unwrap_or(0);
    assert!(segments > 0, "the capped run must have spilled at least one segment");
}

/// Injected spill faults must degrade to a sound answer: either the run
/// still completes with the true verdict, or it stops inconclusive naming
/// the memory budget — never a panic, never a wrong verdict.
fn spill_fault_degrades_soundly(fault: &str) {
    let spill = Scratch::new(&format!("fault-{}", fault.replace('.', "-")));
    let output = gam()
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(&spill.0)
        .env("GAM_FAULTS", format!("{fault}=kill@2"))
        .output()
        .expect("gam check runs");
    assert_no_panic(&output);
    let report = parse_stdout(&output);
    let row = only_row(&report);
    match output.status.code() {
        Some(0) => {
            // Recovered: the verdict must be the true one (big tests carry
            // SC-reachable conditions, so the truth is "allowed").
            assert_eq!(row.get("verdict").and_then(Json::as_str), Some("allowed"));
        }
        Some(3) => {
            let reason = row.get("reason").and_then(Json::as_str).expect("reason");
            assert!(
                reason.contains("memory budget"),
                "a spill-fault stop must surface as the memory-budget rung: {reason}"
            );
        }
        code => panic!(
            "spill fault must complete or degrade to inconclusive, got exit {code:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        ),
    }
}

#[test]
fn an_injected_spill_write_fault_degrades_soundly() {
    spill_fault_degrades_soundly("spill.write");
}

#[test]
fn an_injected_spill_read_fault_degrades_soundly() {
    spill_fault_degrades_soundly("spill.read");
}

/// A capped, spilling `gam check` of big-003 under SC and GAM on the
/// operational backend, logging each completed unit to `checkpoint`.
fn budgeted_checkpointed(spill: &Path, checkpoint: &Path) -> Command {
    let mut command = gam();
    command
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "sc,gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(spill)
        .args(["--checkpoint"])
        .arg(checkpoint);
    command
}

/// The report's rows without `wall_us`, which a replayed row carries from
/// the run that recorded it.
fn rows_without_walls(report: &Json) -> Vec<Json> {
    rows(report)
        .into_iter()
        .map(|row| match row {
            Json::Object(fields) => {
                Json::Object(fields.iter().filter(|(key, _)| key != "wall_us").cloned().collect())
            }
            other => panic!("a result row is an object: {other}"),
        })
        .collect()
}

fn resumed_units(report: &Json) -> u64 {
    report.get("resumed_units").and_then(Json::as_u64).expect("resumed_units")
}

#[test]
fn a_sigkilled_budgeted_check_resumes_per_unit_to_the_same_report() {
    // Ground truth: an uninterrupted capped run (spill makes the window
    // budget completable).
    let spill_a = Scratch::new("resume-truth-spill");
    let checkpoint_a = Scratch::new("resume-truth-ckpt");
    let truth =
        budgeted_checkpointed(&spill_a.0, &checkpoint_a.0).output().expect("gam check runs");
    assert!(truth.status.success(), "{}", String::from_utf8_lossy(&truth.stderr));
    let truth = parse_stdout(&truth);
    assert_eq!(resumed_units(&truth), 0);
    assert_eq!(rows_without_walls(&truth).len(), 2, "SC and GAM on the operational backend");

    // The victim: the same run, SIGKILLed once a recovered copy of its log
    // holds a completed unit. Every append of the victim waits first, so it
    // cannot record its second unit before the kill lands.
    let spill_b = Scratch::new("resume-victim-spill");
    let checkpoint = Scratch::new("resume-ckpt");
    let mut child = budgeted_checkpointed(&spill_b.0, &checkpoint.0)
        .env("GAM_FAULTS", VICTIM_APPEND_DELAY)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("gam check spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    let copy = Scratch::new("resume-ckpt-copy");
    loop {
        // Recover a copy, never the live file: opening truncates a torn tail.
        let progressed = std::fs::copy(&checkpoint.0, &copy.0).is_ok()
            && RunCheckpoint::open(&copy.0).is_ok_and(|(log, _)| !log.is_empty());
        if progressed {
            break;
        }
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "the victim exited before it recorded a unit"
        );
        assert!(Instant::now() < deadline, "check never recorded a unit");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Resume: the recorded unit replays from the log, the other restarts
    // from scratch under the same budget and spill directory.
    let resumed =
        budgeted_checkpointed(&spill_b.0, &checkpoint.0).output().expect("gam check resumes");
    assert_no_panic(&resumed);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let resumed = parse_stdout(&resumed);
    assert!(resumed_units(&resumed) >= 1, "the resume must replay the recorded unit");
    assert_eq!(
        rows_without_walls(&resumed),
        rows_without_walls(&truth),
        "the resumed run must reproduce the uninterrupted verdicts"
    );
}
