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
//! * a budgeted `gam check --checkpoint` killed (SIGKILL) mid-exploration
//!   resumes from its intra-exploration snapshot and reports the same
//!   verdict as an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use gam_engine::{Json, RunCheckpoint};

/// A budget inside big-003's spill window under the default (reduced)
/// GAM search: below the uncapped peak of 176,657 accounted bytes, and
/// above the floor of about 140,000 under which spilling arena rows no
/// longer suffices, so the exploration can only finish by spilling.
const BIG_003_WINDOW_BUDGET: &str = "164000";

/// Expansions between two intra-exploration snapshots of the resume test:
/// the capped big-003 GAM run (1,989 states) spans several of them.
const SNAPSHOT_EVERY: &str = "256";

/// Pause before every checkpoint append of the resume test's victim, so
/// the kill that follows its first snapshot lands mid-exploration: the
/// victim cannot record its completed unit sooner than this after it.
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

/// The single result row of a one-test, one-pair `gam check --json` report.
fn only_row(report: &Json) -> &Json {
    let rows = report.get("results").and_then(Json::as_array).expect("results");
    assert_eq!(rows.len(), 1, "expected exactly one (model, backend) row");
    &rows[0]
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
    assert!(row.get("states_visited").and_then(Json::as_u64).unwrap_or(0) > 0);
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

#[test]
fn a_sigkilled_budgeted_check_resumes_mid_exploration_to_the_same_report() {
    // Ground truth: an uninterrupted capped run (spill makes the window
    // budget completable).
    let spill_a = Scratch::new("resume-truth-spill");
    let truth = gam()
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(&spill_a.0)
        .output()
        .expect("gam check runs");
    assert!(truth.status.success(), "{}", String::from_utf8_lossy(&truth.stderr));
    let truth_verdict = only_row(&parse_stdout(&truth))
        .get("verdict")
        .and_then(Json::as_str)
        .expect("verdict")
        .to_string();

    // The victim: same run, checkpointed with frequent intra-exploration
    // snapshots, SIGKILLed once the checkpoint holds a complete snapshot
    // record. A size threshold is not enough: the kill could land inside
    // the first snapshot append, and the resume would restart from scratch.
    // Every append of the victim waits first, so it is still exploring
    // (or waiting to append its next snapshot) when the kill lands.
    let spill_b = Scratch::new("resume-victim-spill");
    let checkpoint = Scratch::new("resume-ckpt");
    let mut child = gam()
        .env("GAM_FAULTS", VICTIM_APPEND_DELAY)
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(&spill_b.0)
        .args(["--checkpoint"])
        .arg(&checkpoint.0)
        .args(["--checkpoint-every", SNAPSHOT_EVERY])
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
            "the victim exited before it snapshotted its exploration"
        );
        assert!(Instant::now() < deadline, "check never snapshotted its exploration");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    let resumed = gam()
        .args(["check"])
        .arg(big_test("big-003.litmus"))
        .args(["--models", "gam", "--backends", "operational", "--json"])
        .args(["--mem-budget", BIG_003_WINDOW_BUDGET, "--spill-dir"])
        .arg(&spill_b.0)
        .args(["--checkpoint"])
        .arg(&checkpoint.0)
        .args(["--checkpoint-every", SNAPSHOT_EVERY])
        .output()
        .expect("gam check resumes");
    assert_no_panic(&resumed);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(
        only_row(&parse_stdout(&resumed)).get("verdict").and_then(Json::as_str),
        Some(truth_verdict.as_str()),
        "the resumed run must reproduce the uninterrupted verdict"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("mid-exploration"),
        "the resume must continue from the victim's snapshot: {stderr}"
    );
}
