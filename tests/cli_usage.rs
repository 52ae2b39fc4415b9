//! Command-line contract of the `gam` binary beyond its reports: a flag a
//! subcommand does not read, or a value-taking flag without its value, is
//! a usage error (exit 2, naming the flag), and a reader that closes
//! stdout early ends the output, not the run.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn gam() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gam"));
    command.env_remove("GAM_FAULTS");
    command
}

fn corpus(dir: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join(dir)
}

/// Runs `gam check mp.litmus` with `extra` flags; it must exit 2 and name
/// `flag` on stderr.
fn assert_rejected(extra: &[&str], flag: &str) {
    let output = gam()
        .arg("check")
        .arg(corpus("corpus").join("mp.litmus"))
        .args(extra)
        .output()
        .expect("gam check runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{extra:?} is a usage error: {stderr}");
    assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
    assert!(output.stdout.is_empty(), "nothing is checked: {:?}", output.stdout);
}

#[test]
fn an_unknown_flag_is_a_usage_error_naming_it() {
    assert_rejected(&["--bogus-flag", "1"], "--bogus-flag");
}

#[test]
fn a_trailing_flag_without_its_value_is_a_usage_error() {
    assert_rejected(&["--time-budget"], "--time-budget");
}

#[test]
fn check_rejects_the_suite_worker_flags() {
    // A check runs its pairs one at a time: there is no suite to fan out.
    assert_rejected(&["--jobs", "2"], "--jobs");
    assert_rejected(&["--parallelism", "2"], "--parallelism");
}

#[test]
fn a_closed_stdout_ends_the_output_not_the_run() {
    let run = || {
        let mut command = gam();
        command.arg("run").arg(corpus("corpus-stress"));
        command.args(["--backends", "operational", "--json"]);
        command
    };
    let uninterrupted = run().output().expect("gam run runs");
    // The report is one line, longer than a pipe buffer (64 KiB), so the
    // writer is still blocked on it when the reader goes away.
    assert!(uninterrupted.stdout.len() > 65_536 + 100, "{} bytes", uninterrupted.stdout.len());

    let mut child =
        run().stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("gam run spawns");
    let mut head = [0u8; 100];
    child.stdout.take().expect("piped stdout").read_exact(&mut head).expect("100 bytes");
    let cut = child.wait_with_output().expect("gam run exits");
    let stderr = String::from_utf8_lossy(&cut.stderr);
    assert!(!stderr.contains("panicked"), "no panic on a closed pipe: {stderr}");
    assert!(!stderr.contains("Broken pipe"), "a closed pipe is not an error: {stderr}");
    assert_eq!(cut.status.code(), uninterrupted.status.code(), "the run's own status");
    assert_eq!(head, uninterrupted.stdout[..100], "the head is the report's");
}
