//! `gam-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints its metrics with units, and ends with one JSON
//! result line. Exits 1 on a wrong result or a failed operation, 2 on bad
//! arguments or a missing checkout, 3 when the hard timeout fires.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use gam_perfbench::{run_workload, Run, WORKLOADS};

/// A wedged run is stopped after this long, its scratch directory removed.
const HARD_TIMEOUT: Duration = Duration::from_secs(170);

fn usage() -> String {
    format!(
        "usage: gam-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".to_string());
    }
    // The checkout root: this package sits one directory below it.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let corpus_dir = root.join("tests").join("corpus");
    if !corpus_dir.is_dir() {
        return Err(format!("{} not found: run from a gam checkout", corpus_dir.display()));
    }
    let tmp = root.join(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    let run =
        Run { seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false), tmp, corpus_dir };
    Ok((workload, run))
}

fn remove_scratch(tmp: &std::path::Path) {
    let _ = std::fs::remove_dir_all(tmp);
    if let Some(parent) = tmp.parent() {
        // Succeeds only once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("gam-perfbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&run.tmp) {
        eprintln!("gam-perfbench: cannot create {}: {err}", run.tmp.display());
        return ExitCode::from(2);
    }
    // Left detached on purpose: it ends the process if the run wedges, and
    // ends with the process otherwise.
    let watchdog_tmp = run.tmp.clone();
    std::thread::spawn(move || {
        std::thread::sleep(HARD_TIMEOUT);
        eprintln!("gam-perfbench: hard timeout after {HARD_TIMEOUT:?}");
        remove_scratch(&watchdog_tmp);
        std::process::exit(3);
    });
    eprintln!(
        "gam-perfbench: {workload} seed {} for {} s, trace {}",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let outcome = run_workload(&workload, &run).expect("workload name was validated");
    remove_scratch(&run.tmp);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for metric in &outcome.metrics {
        println!("{:<36} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
