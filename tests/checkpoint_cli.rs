//! End-to-end checkpoint/resume through the real binary: a `gam check
//! --checkpoint` over every (model, backend) pair of a library test, killed
//! (SIGKILL — no cleanup, no flush) once its log holds a completed pair and
//! resumed from that log, must report the rows of an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gam_engine::{Json, RunCheckpoint};

/// Pause before every checkpoint append of the victim, so the kill that
/// follows its first recorded pair lands before the run can finish.
const VICTIM_APPEND_DELAY: &str = "checkpoint.write=delay:500";

fn gam() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gam"));
    command.env_remove("GAM_FAULTS");
    command
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus")
}

/// `gam check` of the library's IRIW under all five models and both
/// backends (nine supported pairs), logging each completed pair to
/// `checkpoint`. Every record on the log is a completed pair.
fn checked(checkpoint: &Path) -> Command {
    let mut command = gam();
    command
        .arg("check")
        .arg(corpus_dir().join("iriw.litmus"))
        .args(["--json", "--checkpoint"])
        .arg(checkpoint);
    command
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("gam-checkpoint-cli-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run_check(checkpoint: &Path) -> Json {
    let output = checked(checkpoint).output().expect("gam check runs");
    assert!(
        output.status.success(),
        "check failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("check report parses")
}

/// The report's rows without `wall_us`: a wall time is a measurement, not a
/// verdict, and a replayed row carries the wall of the run that recorded it.
fn rows_without_walls(report: &Json) -> Vec<Json> {
    let rows = report.get("results").and_then(Json::as_array).expect("results");
    rows.iter()
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
fn a_sigkilled_check_resumed_from_its_checkpoint_matches_an_uninterrupted_run() {
    // Ground truth: one uninterrupted checkpointed run.
    let uninterrupted = Scratch::new("uninterrupted");
    let baseline = run_check(&uninterrupted.0);
    assert!(matches!(baseline.get("ok"), Some(Json::Bool(true))));
    assert_eq!(resumed_units(&baseline), 0);
    assert_eq!(rows_without_walls(&baseline).len(), 9, "five models, nine supported pairs");

    // The victim: the same check, SIGKILLed once a recovered copy of its
    // log holds a completed pair. SIGKILL gives the process no chance to
    // flush or clean up — whatever the log holds is exactly what completed
    // appends left behind.
    let killed = Scratch::new("killed");
    let mut child = checked(&killed.0)
        .env("GAM_FAULTS", VICTIM_APPEND_DELAY)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("gam check spawns");
    let copy = Scratch::new("killed-copy");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        // Recover a copy, never the live file: opening truncates a torn tail.
        let progressed = std::fs::copy(&killed.0, &copy.0).is_ok()
            && RunCheckpoint::open(&copy.0).is_ok_and(|(log, _)| !log.is_empty());
        if progressed {
            break;
        }
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "the victim exited before it recorded a pair"
        );
        assert!(Instant::now() < deadline, "check never recorded a pair");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Resume. Recorded pairs replay from the log; the rest are recomputed —
    // determinism makes the union identical.
    let resumed = run_check(&killed.0);
    assert!(matches!(resumed.get("ok"), Some(Json::Bool(true))));
    assert!(resumed_units(&resumed) >= 1, "the resume must replay the recorded pair");
    assert_eq!(
        rows_without_walls(&baseline),
        rows_without_walls(&resumed),
        "a resumed run must reproduce the uninterrupted rows exactly"
    );
}

#[test]
fn bench_without_serve_is_a_usage_error_naming_run() {
    let output = gam().arg("bench").arg(corpus_dir()).output().expect("gam bench runs");
    assert_eq!(output.status.code(), Some(2), "a usage error exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--serve") && stderr.contains("gam run"), "{stderr}");
}
