//! End-to-end checkpoint/resume through the real binary: a `gam check
//! --checkpoint` over every (model, backend) pair of a library test, killed
//! (SIGKILL — no cleanup, no flush) once its log holds a completed pair and
//! resumed from that log, must report the rows of an uninterrupted run; and
//! a checkpoint, fresh or fully resumed, changes nothing in the report of
//! a plain check but the added `resumed_units`. Only conclusive rows are
//! replayed, and the resume notice counts the units this check replays.

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

/// The document without any `wall_us` field: a wall time is a
/// measurement, not a verdict, and a replayed row carries the wall of the
/// run that recorded it.
fn without_walls(json: &Json) -> Json {
    match json {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(key, _)| key != "wall_us")
                .map(|(key, value)| (key.clone(), without_walls(value)))
                .collect(),
        ),
        Json::Array(values) => Json::Array(values.iter().map(without_walls).collect()),
        other => other.clone(),
    }
}

/// The report's rows without `wall_us`, in (model, backend) order.
fn rows_without_walls(report: &Json) -> Vec<Json> {
    let reports = report.get("reports").and_then(Json::as_array).expect("reports");
    reports
        .iter()
        .flat_map(|pair| pair.get("tests").and_then(Json::as_array).expect("tests"))
        .map(without_walls)
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

/// `gam check FILE --json` plus `extra`: the exit code and the document.
fn check_json(file: &Path, extra: &[&std::ffi::OsStr]) -> (Option<i32>, Json) {
    let output = gam().arg("check").arg(file).arg("--json").args(extra).output().expect("runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    (output.status.code(), Json::parse(&stdout).expect("check report parses"))
}

#[test]
fn a_checkpoint_adds_resumed_units_and_changes_nothing_else() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "litmus"))
        .collect();
    files.sort();
    let stress = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus-stress");
    files.extend((0..10).map(|i| stress.join(format!("stress-{i:03}.litmus"))));
    // One log for every file: `resumed_units` counts the units this run
    // replayed, not the other files' units the log also holds.
    let log = Scratch::new("gate");
    let flag = [std::ffi::OsStr::new("--checkpoint"), log.0.as_os_str()];
    for file in &files {
        let (code, plain) = check_json(file, &[]);
        // Only conclusive rows are logged, so only they are replayed.
        let recorded = rows_without_walls(&plain)
            .iter()
            .filter(|row| matches!(row.get("verdict"), Some(Json::Str(v)) if v != "inconclusive"))
            .count() as u64;
        for resumed in [0, recorded] {
            let (checkpointed_code, checkpointed) = check_json(file, &flag);
            let Json::Object(mut fields) = checkpointed else { panic!("a report is an object") };
            let last = fields.pop().expect("a field");
            assert_eq!(last, ("resumed_units".to_string(), Json::UInt(resumed)), "{file:?}");
            assert_eq!(checkpointed_code, code, "{file:?}");
            assert_eq!(
                without_walls(&Json::Object(fields)),
                without_walls(&plain),
                "{file:?}: a checkpointed report must be the plain one plus resumed_units"
            );
        }
    }
}

#[test]
fn an_inconclusive_unit_is_checked_again_not_replayed() {
    // The first run stops at its first deadline poll: the injected kill
    // expires a generous budget, so the row is inconclusive, exit 3.
    let log = Scratch::new("inconclusive");
    let mp = corpus_dir().join("mp.litmus");
    let unit = ["--models", "gam", "--backends", "axiomatic", "--json", "--checkpoint"];
    let output = gam()
        .arg("check")
        .arg(&mp)
        .args(unit)
        .arg(&log.0)
        .args(["--time-budget", "60000"])
        .env("GAM_FAULTS", "interrupt.deadline=kill@1")
        .output()
        .expect("gam check runs");
    assert_eq!(output.status.code(), Some(3), "{}", String::from_utf8_lossy(&output.stderr));

    // The same unit on the same log with no fault and no budget: a stop
    // recorded under another budget must not be replayed as the answer.
    let output =
        gam().arg("check").arg(&mp).args(unit).arg(&log.0).output().expect("gam check runs");
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    let report = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("report parses");
    let rows = rows_without_walls(&report);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("verdict").and_then(Json::as_str), Some("allowed"), "{report}");
    assert_eq!(resumed_units(&report), 0, "nothing was replayed");
    assert!(!String::from_utf8_lossy(&output.stderr).contains("resuming"));
}

#[test]
fn the_resume_notice_counts_only_the_units_this_check_replays() {
    let log = Scratch::new("notice");
    let check = |file: &str| {
        let output = gam()
            .arg("check")
            .arg(corpus_dir().join(file))
            .arg("--checkpoint")
            .arg(&log.0)
            .output()
            .expect("gam check runs");
        assert!(output.status.success(), "{file}: {}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    assert!(!check("dekker.litmus").contains("resuming"), "a fresh log replays nothing");
    // The log now holds dekker's nine units, none of which is mp's.
    let stderr = check("mp.litmus");
    assert!(!stderr.contains("resuming"), "mp replays none of dekker's units: {stderr}");
    let stderr = check("dekker.litmus");
    assert!(stderr.contains("resuming 9 completed units"), "{stderr}");
}

#[test]
fn bench_without_serve_is_a_usage_error_naming_run() {
    let output = gam().arg("bench").arg(corpus_dir()).output().expect("gam bench runs");
    assert_eq!(output.status.code(), Some(2), "a usage error exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--serve") && stderr.contains("gam run"), "{stderr}");
}
