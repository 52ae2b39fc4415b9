//! `gam` — the litmus-test CLI.
//!
//! ```text
//! usage:
//!   gam check FILE [--models LIST] [--backends LIST]
//!                 [--explorer-threads N] [--time-budget MS]
//!                 [--mem-budget BYTES] [--spill-dir DIR]
//!                 [--checkpoint FILE] [--json] [--no-expectations]
//!   gam run DIR   [--models LIST] [--backends LIST] [--jobs N]
//!                 [--explorer-threads N] [--json] [--no-expectations]
//!   gam bench DIR --serve ADDR [--models LIST] [--jobs N]
//!                 [--min-hit-rate R] [--timeout-ms MS] [--retries N]
//!                 [--json] [--out PATH]
//!   gam serve [--addr ADDR] [--cache PATH] [--cache-capacity N]
//!             [--workers N] [--queue-depth N] [--read-timeout-ms MS]
//!             [--write-timeout-ms MS] [--compact-every N]
//!             [--overload-wall-ms MS]
//!   gam gen-corpus DIR [--count N] [--seed S] [--big]
//!   gam print FILE
//!   gam export-library DIR
//!   gam --version
//!
//!   --models LIST        comma-separated: sc,tso,gam,gam0,gam-arm
//!                        (default: sc,tso,gam,gam0 for `run`, gam for
//!                        `bench --serve`, all five for `check`)
//!   --backends LIST      comma-separated: axiomatic,operational (default:
//!                        both; model/backend pairs without semantics are
//!                        skipped)
//!   --jobs N             `run`/`bench`: suite worker threads (default: all
//!                        cores)
//!   --explorer-threads N worker threads *inside* each operational
//!                        exploration (default 1; sharding is adaptive and
//!                        only kicks in on state spaces past the threshold)
//!   --count N, --seed S  `gen-corpus`: corpus size (default 200) and
//!                        generator seed (default 2026)
//!   --json               machine-readable report on stdout
//!   --no-expectations    skip expectation diffing (`run`: the corpus
//!                        expectations.txt; `check`: the built-in paper table)
//! ```
//!
//! `check` parses one `.litmus` file, echoes the canonical form and prints
//! every requested verdict; when the file is byte-for-byte a library test
//! (same name *and* same structure) the verdicts are also diffed against
//! the paper's expectation table. `run` loads a whole corpus directory,
//! fans it out across the parallel engine for every `(model, backend)`
//! pair, prints a verdict matrix and diffs the verdicts against the corpus
//! `expectations.txt` (and against each backend pair) — failing also on
//! coverage gaps: corpus tests with no expectations row, or rows naming no
//! corpus test. `gen-corpus` writes a deterministic random corpus
//! (`gam_operational::stress_tests`) plus an `expectations.txt` computed —
//! and backend-cross-checked — by the engine. `print` normalizes a file to
//! canonical text. `export-library` writes the in-code library as a corpus.
//!
//! `serve` starts the long-running check service (`gam-serve`): an HTTP
//! API over a persistent, canonicalizing outcome cache whose every
//! mutation is write-ahead journaled (a `kill -9` loses at most the one
//! in-flight record; the journal is rewritten as one record per live entry
//! every `--compact-every` records and at graceful shutdown). It runs until a
//! client POSTs `/shutdown`, then drains and compacts. `bench --serve` is
//! its load-generating client: it replays a corpus concurrently against a
//! live server (with per-request `--timeout-ms` client timeouts and
//! bounded `--retries` with exponential backoff honoring `Retry-After`),
//! asserts every verdict against an in-process engine run, cross-checks
//! the server's `/metrics` deltas against what the client observed, and
//! reports throughput, cache hit rate, retry totals and shed counts — a
//! request the server sheds even after the retry budget is *counted*, not
//! an error.
//!
//! `check` and `run` report every (model, backend) answer as the engine's
//! one result row ([`ResultRow`]), and the budget alone picks what a check
//! asks for ([`CheckBudget::query`]). Without a budget a check decides the
//! verdict and stops at its first witness. `check --time-budget MS` (a wall
//! budget) and `check --mem-budget BYTES` (a cap on the operational
//! explorer's accounted in-RAM footprint) make it enumerate outcomes
//! instead, so a check that exhausts its budget reports INCONCLUSIVE with
//! its partial outcome count rather than running open-ended. Over the soft
//! watermark of a memory budget the explorer first degrades — with
//! `--spill-dir DIR`, cold visited-state rows spill to CRC-framed segment
//! files — and stops only when degradation cannot free enough. Spilling
//! changes nothing about the verdicts: a capped run that completes via
//! spill reports the verdicts of an uncapped run.
//!
//! `check --checkpoint FILE` appends every conclusive work unit — one
//! (model, backend) row with a verdict — to a crash-durable log, and
//! replays units already recorded there instead of checking them. It
//! changes no query and no row: the report is the one without the flag
//! plus `resumed_units`. A killed run relaunched with the same flag
//! recomputes only the unit the crash interrupted, from its start; because
//! checking is deterministic, the resumed report carries the rows of an
//! uninterrupted run. Checkpoint keys embed the canonical test hash, so a
//! checkpoint pointed at a different test matches nothing. They name no
//! budget, which is why an inconclusive row is never logged.
//!
//! Every subcommand rejects a flag it does not read ([`FLAGS`] lists them
//! all), or a value-taking flag given no value, with exit status 2.
//! Reports go to stdout; when a reader closes it early the command stops
//! writing and still exits with its own status.
//!
//! Exit status (all subcommands): 0 = clean, 1 = the command ran but found
//! mismatches, disagreements, coverage gaps or check errors, 2 = usage or
//! startup error (bad or unknown flags, unreadable input, `serve` bind failure),
//! 3 = `check` ran without those but a `--time-budget` or `--mem-budget`
//! ran out, leaving at least one verdict inconclusive.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gam_core::ModelKind;
use gam_engine::{Backend, CheckBudget, Engine, Json, ResultRow, SuiteReport, TestReport, ToJson};
use gam_frontend::{export_library, parse_litmus, print_litmus, Corpus};
use gam_verify::expectations::{render_expectations, OwnedExpectation};
use gam_verify::matrix::{
    diff_reports, render_matrix, run_matrix, verdict_word, Mismatch, Reports,
};

/// `println!` for reports: stops writing once stdout is closed, so a
/// reader that quits early (`gam run DIR --json | head`) ends the output,
/// not the run, which still exits with its own status.
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// Set once a write to stdout has failed; later writes are skipped.
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Writes to stdout. A closed pipe ends the output silently; any other
/// write error is reported once on stderr. Neither stops the command.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(err) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if err.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("gam: cannot write to stdout: {err}");
        }
    }
}

/// Terminal status of a subcommand.
enum Status {
    /// Everything checked out — exit 0.
    Clean,
    /// The command ran but found mismatches, disagreements or errors — exit 1.
    Findings,
    /// Every check ran error-free but at least one verdict is inconclusive
    /// (a `--time-budget` or `--mem-budget` ran out) — exit 3, distinct
    /// from both a mismatch (1) and a usage error (2) so scripts can retry
    /// with a bigger budget.
    Inconclusive,
}

impl Status {
    fn from_clean(clean: bool) -> Status {
        if clean {
            Status::Clean
        } else {
            Status::Findings
        }
    }

    /// The one exit rule of `check` and `run`: findings (mismatches, which
    /// include errors, and coverage gaps) first, then an inconclusive row.
    fn of_reports(reports: &Reports, clean: bool) -> Status {
        let mut rows = reports.values().flat_map(|suite| &suite.reports);
        if !clean {
            Status::Findings
        } else if rows.any(|report| report.row.is_inconclusive()) {
            Status::Inconclusive
        } else {
            Status::Clean
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Status::Clean) => ExitCode::SUCCESS,
        Ok(Status::Findings) => ExitCode::FAILURE,
        Ok(Status::Inconclusive) => ExitCode::from(3),
        Err(message) => {
            eprintln!("gam: {message}");
            ExitCode::from(2)
        }
    }
}

/// Dispatches a subcommand. `Ok(Status::Findings)` means the command ran
/// but found mismatches/errors (exit 1); `Err` is a usage or I/O problem
/// (exit 2).
fn run(args: &[String]) -> Result<Status, String> {
    let Some(command) = args.first() else {
        return Err(format!("missing subcommand\n\n{USAGE}"));
    };
    let subcommand: fn(&[String]) -> Result<Status, String> = match command.as_str() {
        "check" => cmd_check,
        "run" => cmd_run,
        "bench" => |args| cmd_bench(args).map(Status::from_clean),
        "serve" => |args| cmd_serve(args).map(Status::from_clean),
        "gen-corpus" => |args| cmd_gen_corpus(args).map(Status::from_clean),
        "print" => |args| cmd_print(args).map(Status::from_clean),
        "export-library" => |args| cmd_export(args).map(Status::from_clean),
        "--version" | "-V" | "version" => {
            outln!("gam {}", env!("CARGO_PKG_VERSION"));
            return Ok(Status::Clean);
        }
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            return Ok(Status::Clean);
        }
        other => return Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    check_flags(command, &args[1..])?;
    let trace_out = obs_setup(&args[1..]);
    let result = subcommand(&args[1..]);
    match (result, trace_out) {
        (Ok(status), Some(path)) => {
            write_trace(&path)?;
            Ok(status)
        }
        (result, _) => result,
    }
}

const USAGE: &str = "usage:
  gam check FILE [--models LIST] [--backends LIST] [--explorer-threads N]
                [--time-budget MS] [--mem-budget BYTES] [--spill-dir DIR]
                [--checkpoint FILE] [--json] [--no-expectations]
                [--trace-out FILE] [--progress]
  gam run DIR   [--models LIST] [--backends LIST] [--jobs N] [--explorer-threads N]
                [--json] [--no-expectations] [--trace-out FILE] [--progress]
  gam bench DIR --serve ADDR [--models LIST] [--jobs N] [--min-hit-rate R]
                [--timeout-ms MS] [--retries N] [--json] [--out PATH]
  gam serve [--addr ADDR] [--cache PATH] [--cache-capacity N] [--workers N]
            [--queue-depth N] [--read-timeout-ms MS] [--write-timeout-ms MS]
            [--compact-every N] [--overload-wall-ms MS]
            [--mem-watermark BYTES] [--overload-mem-bytes BYTES]
  gam gen-corpus DIR [--count N] [--seed S] [--big]
  gam print FILE
  gam export-library DIR
  gam --version

  --models LIST        comma-separated: sc,tso,gam,gam0,gam-arm
  --backends LIST      comma-separated: axiomatic,operational
  --jobs N             run/bench: suite worker threads (default: all cores)
  --explorer-threads N worker threads inside each operational exploration
                       (default 1; sharding kicks in adaptively)
  --count N, --seed S  gen-corpus: corpus size (default 200), seed (default 2026)
  --json               machine-readable report on stdout
  --no-expectations    skip expectation diffing (run: corpus expectations.txt;
                       check: built-in paper table)
  --time-budget MS     check: wall-clock budget per (model, backend) pair;
                       a check that exhausts it reports INCONCLUSIVE with
                       its partial outcomes and the command exits 3
  --mem-budget BYTES   check: accounted-byte budget per operational
                       exploration; over the soft watermark the explorer
                       spills cold states (with --spill-dir), over the hard
                       limit the check reports INCONCLUSIVE (memory budget)
                       and check exits 3
  --spill-dir DIR      check: directory for cold visited-state
                       segments spilled under memory pressure (needs
                       --mem-budget; without it the ladder skips spilling)
  --checkpoint FILE    check: log each conclusive work unit to FILE and
                       skip units already recorded there — a killed run
                       relaunched with the same FILE recomputes only the
                       unit the crash interrupted, from its start
  --serve ADDR         bench: replay the corpus against a live `gam serve`
                       at ADDR (required; `gam run DIR` checks in-process)
  --min-hit-rate R     bench --serve: fail unless the observed cache hit
                       rate is at least R (0.0-1.0, default 0)
  --timeout-ms MS      bench --serve: client connect/read timeout per
                       request (default: 10s connect, 600s read)
  --retries N          bench --serve: retries per request on 503 or
                       connection errors, exponential backoff + jitter
                       honoring Retry-After (default 4; 0 disables)
  --out PATH           bench --serve: also write the JSON report to PATH
  --addr ADDR          serve: bind address (default 127.0.0.1:7117)
  --cache PATH         serve: cache file, a write-ahead journal (default
                       gam-serve-cache.journal)
  --cache-capacity N   serve: max cache entries; the least recently used
                       is evicted first (default 4096)
  --workers N          serve: worker threads (default: all cores)
  --queue-depth N      serve: request queue bound; beyond it requests are
                       shed with 503 + Retry-After (default 64)
  --read-timeout-ms MS serve: per-socket read timeout; a stalled client
                       gets 408 instead of wedging a worker (default 10s)
  --write-timeout-ms MS serve: per-socket write timeout (default 10s)
  --compact-every N    serve: rewrite the cache journal as one record per
                       live entry after N appended records (default 4096)
  --overload-wall-ms MS serve: while the queue is half full, clamp each
                       request's wall budget to MS so the server degrades
                       before it sheds (default 2000)
  --mem-watermark BYTES serve: while the process RSS is at or over this,
                       clamp each request's explorer memory budget to
                       --overload-mem-bytes so checks degrade (spill, then
                       memory-budget inconclusive) before the OS intervenes
                       (default 0 = disabled)
  --overload-mem-bytes BYTES serve: the accounted-byte budget clamped onto
                       requests over the watermark (default 64 MiB)
  --big                gen-corpus: generate the large-state-space tier
                       (gam_operational::big_tests; defaults become
                       --count 4 --seed 2024) — tests big enough to need
                       memory budgets, for the spill/budget CI gates
  --trace-out FILE     check/run: record phase and engine spans and
                       write them as Chrome trace_event JSON to FILE on
                       exit (load in Perfetto or chrome://tracing)
  --progress           check/run: periodic exploration/search
                       progress lines on stderr (states/sec, frontier
                       depth, escalation)

exit status: 0 = clean; 1 = ran but found mismatches, disagreements,
coverage gaps or check errors; 2 = usage/startup error (bad or unknown flags,
unreadable input, serve bind failure); 3 = check ran without those but a
--time-budget or --mem-budget ran out, leaving at least one verdict
inconclusive";

// ---------------------------------------------------------------------------
// argument helpers
// ---------------------------------------------------------------------------

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Every flag `gam` knows: its name, whether it takes a value, and the
/// subcommands that read it. Anything else is a usage error, so a
/// misspelled or retired flag is never silently ignored.
const FLAGS: &[(&str, bool, &[&str])] = &[
    ("--models", true, &["check", "run", "bench"]),
    ("--backends", true, &["check", "run"]),
    ("--jobs", true, &["run", "bench"]),
    ("--explorer-threads", true, &["check", "run"]),
    ("--json", false, &["check", "run", "bench"]),
    ("--no-expectations", false, &["check", "run"]),
    ("--trace-out", true, &["check", "run"]),
    ("--progress", false, &["check", "run"]),
    ("--time-budget", true, &["check"]),
    ("--mem-budget", true, &["check"]),
    ("--spill-dir", true, &["check"]),
    ("--checkpoint", true, &["check"]),
    ("--serve", true, &["bench"]),
    ("--min-hit-rate", true, &["bench"]),
    ("--timeout-ms", true, &["bench"]),
    ("--retries", true, &["bench"]),
    ("--out", true, &["bench"]),
    ("--addr", true, &["serve"]),
    ("--cache", true, &["serve"]),
    ("--cache-capacity", true, &["serve"]),
    ("--workers", true, &["serve"]),
    ("--queue-depth", true, &["serve"]),
    ("--read-timeout-ms", true, &["serve"]),
    ("--write-timeout-ms", true, &["serve"]),
    ("--compact-every", true, &["serve"]),
    ("--overload-wall-ms", true, &["serve"]),
    ("--mem-watermark", true, &["serve"]),
    ("--overload-mem-bytes", true, &["serve"]),
    ("--count", true, &["gen-corpus"]),
    ("--seed", true, &["gen-corpus"]),
    ("--big", false, &["gen-corpus"]),
];

/// Rejects every `--flag` in `args` that `command` does not read, and a
/// value-taking flag with nothing after it.
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match FLAGS.iter().find(|&&(name, ..)| name == arg) {
            Some(&(_, value, commands)) if commands.contains(&command) => {
                if value && args.next().is_none() {
                    return Err(format!("{arg} needs a value (see `gam help`)"));
                }
            }
            Some(_) => return Err(format!("`gam {command}` does not take {arg} (see `gam help`)")),
            None => return Err(format!("unknown flag {arg} (see `gam help`)")),
        }
    }
    Ok(())
}

/// The first argument that is not a flag or a flag's value.
fn positional(args: &[String]) -> Option<&String> {
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            skip = FLAGS.iter().any(|&(name, value, _)| name == arg && value);
            continue;
        }
        return Some(arg);
    }
    None
}

/// Parses a comma-separated `flag` list with `parse`, dropping repeats.
fn parse_list<T: PartialEq>(
    list: &str,
    flag: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    for word in list.split(',').filter(|w| !w.is_empty()) {
        let item = parse(word)?;
        if !items.contains(&item) {
            items.push(item);
        }
    }
    if items.is_empty() {
        return Err(format!("empty {flag} list"));
    }
    Ok(items)
}

fn parse_models(list: &str) -> Result<Vec<ModelKind>, String> {
    parse_list(list, "--models", |word| {
        gam_serve::parse_model(word).ok_or_else(|| {
            let word = word.to_ascii_lowercase();
            format!("unknown model `{word}` (try sc,tso,gam,gam0,gam-arm)")
        })
    })
}

fn parse_backends(list: &str) -> Result<Vec<Backend>, String> {
    parse_list(list, "--backends", |word| {
        gam_serve::parse_backend(word).ok_or_else(|| {
            let word = word.to_ascii_lowercase();
            format!("unknown backend `{word}` (try axiomatic,operational)")
        })
    })
}

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn jobs(args: &[String]) -> Result<usize, String> {
    match arg_value(args, "--jobs") {
        None => Ok(all_cores()),
        Some(n) => n.parse::<usize>().map_err(|_| format!("invalid --jobs `{n}`")),
    }
}

fn explorer_threads(args: &[String]) -> Result<usize, String> {
    match arg_value(args, "--explorer-threads") {
        None => Ok(1),
        Some(n) => n.parse::<usize>().map_err(|_| format!("invalid --explorer-threads `{n}`")),
    }
}

/// Parses `--mem-budget BYTES` and `--spill-dir DIR`. The spill directory
/// only matters under a budget (nothing is ever spilled without one), so a
/// bare `--spill-dir` is a usage error rather than a silent no-op.
fn memory_flags(args: &[String]) -> Result<(Option<usize>, Option<std::path::PathBuf>), String> {
    let mem_budget = match arg_value(args, "--mem-budget") {
        None => None,
        Some(n) => {
            let bytes: usize = n.parse().map_err(|_| format!("invalid --mem-budget `{n}`"))?;
            if bytes == 0 {
                return Err("--mem-budget must be positive".to_string());
            }
            Some(bytes)
        }
    };
    let spill_dir = arg_value(args, "--spill-dir").map(std::path::PathBuf::from);
    if spill_dir.is_some() && mem_budget.is_none() {
        return Err(
            "--spill-dir needs --mem-budget (spilling only happens under a budget)".to_string()
        );
    }
    Ok((mem_budget, spill_dir))
}

/// Arms tracing (`--trace-out FILE`) and progress reporting (`--progress`)
/// before the subcommand runs. Returns the trace output path, if any; the
/// dispatcher writes it with [`write_trace`] once the command finishes.
fn obs_setup(args: &[String]) -> Option<String> {
    let trace_out = arg_value(args, "--trace-out");
    if trace_out.is_some() {
        gam_obs::trace::arm();
    }
    if arg_flag(args, "--progress") {
        gam_obs::progress::set_progress(true);
    }
    trace_out
}

/// Exports the recorded spans as Chrome `trace_event` JSON: tmp write, then
/// atomic rename, so the trace file is either absent or complete — never
/// torn. Fault-injection point `obs.export` kills the export between the
/// two, mirroring `cache.compact`.
fn write_trace(path: &str) -> Result<(), String> {
    let dropped = gam_obs::trace::dropped_records();
    if dropped > 0 {
        gam_obs::warn!("gam: trace ring overflowed; {dropped} oldest records were dropped");
    }
    let json = gam_obs::trace::export_chrome();
    let target = std::path::Path::new(path);
    let tmp = target.with_extension("trace-tmp");
    std::fs::write(&tmp, json.as_bytes())
        .map_err(|err| format!("cannot write trace {}: {err}", tmp.display()))?;
    if gam_core::fault::hit("obs.export") {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "trace export {path}: injected fault: obs.export killed before rename"
        ));
    }
    std::fs::rename(&tmp, target)
        .map_err(|err| format!("cannot rename trace into {path}: {err}"))?;
    Ok(())
}

/// Opens the `--checkpoint FILE` work-unit log when the flag is given.
/// Recovered damage is announced on stderr; only a genuine I/O failure to
/// open the file is a startup error.
fn open_checkpoint(args: &[String]) -> Result<Option<gam_engine::RunCheckpoint>, String> {
    let Some(path) = arg_value(args, "--checkpoint") else {
        return Ok(None);
    };
    let (checkpoint, warning) = gam_engine::RunCheckpoint::open(std::path::Path::new(&path))
        .map_err(|err| format!("cannot open checkpoint {path}: {err}"))?;
    if let Some(warning) = warning {
        gam_obs::warn!("gam check: {warning}");
    }
    Ok(Some(checkpoint))
}

/// Records one completed work unit, warning instead of failing: the
/// checkpoint exists to protect the run, so losing it must never sink the
/// run it protects.
fn record_unit(checkpoint: &mut Option<gam_engine::RunCheckpoint>, key: &str, row: &ResultRow) {
    if let Some(checkpoint) = checkpoint.as_mut() {
        if let Err(err) = checkpoint.record(key, row) {
            gam_obs::warn!(
                "gam: checkpoint {}: {err}; continuing without durability for this unit",
                checkpoint.path().display()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// the report shared by `check` and `run`
// ---------------------------------------------------------------------------

fn json_report(
    suite: &str,
    models: &[ModelKind],
    reports: &Reports,
    mismatches: &[Mismatch],
    coverage_gaps: &[String],
) -> Json {
    Json::object([
        ("suite", Json::from(suite)),
        ("models", Json::array(models.iter().map(|m| Json::from(m.to_string())))),
        ("reports", Json::array(reports.values().map(ToJson::to_json))),
        (
            "mismatches",
            Json::array(mismatches.iter().map(|m| {
                Json::object([
                    ("test", Json::from(m.test.as_str())),
                    ("model", Json::from(m.model.to_string())),
                    ("detail", Json::from(m.detail.as_str())),
                ])
            })),
        ),
        ("coverage_gaps", Json::array(coverage_gaps.iter().map(|gap| Json::from(gap.as_str())))),
        ("ok", Json::from(mismatches.is_empty() && coverage_gaps.is_empty())),
    ])
}

// ---------------------------------------------------------------------------
// subcommands
// ---------------------------------------------------------------------------

/// `gam check`: one sequential loop over the supported (model, backend)
/// pairs, each pair one [`Engine::answer`] of the parsed test under the
/// `--time-budget`/`--mem-budget` budget, reported as a single-test suite
/// report of its one row. Conclusive rows are diffed across backends and —
/// for an unmodified library test — against the paper's expectation table.
/// With `--checkpoint`, every finished pair is logged before the next one
/// starts, and pairs already on the log are replayed from it instead of
/// checked: rows are deterministic, so a resumed report is an
/// uninterrupted one.
fn cmd_check(args: &[String]) -> Result<Status, String> {
    let Some(path) = positional(args) else {
        return Err("`gam check` needs a FILE argument".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let test = match parse_litmus(&text) {
        Ok(test) => test,
        Err(err) => {
            eprintln!("{path}: {err}");
            return Ok(Status::Findings);
        }
    };
    let models = match arg_value(args, "--models") {
        Some(list) => parse_models(&list)?,
        None => ModelKind::ALL.to_vec(),
    };
    let backends = match arg_value(args, "--backends") {
        Some(list) => parse_backends(&list)?,
        None => Backend::ALL.to_vec(),
    };
    let explorer_workers = explorer_threads(args)?;
    let mut budget = CheckBudget::none();
    if let Some(ms) = arg_value(args, "--time-budget") {
        let ms = ms.parse().map_err(|_| format!("invalid --time-budget `{ms}`"))?;
        budget = budget.with_max_wall(Duration::from_millis(ms));
    }
    let (mem_budget, spill_dir) = memory_flags(args)?;
    if let Some(bytes) = mem_budget {
        budget = budget.with_max_bytes(bytes);
    }
    let mut checkpoint = open_checkpoint(args)?;
    let hash = gam_frontend::canonical_hash(&test).to_string();
    // One unit per supported (model, backend) pair. The key pins the unit
    // *and* the test's content: a checkpoint accidentally pointed at a
    // different test matches nothing.
    let units: Vec<(ModelKind, Backend, String)> = models
        .iter()
        .flat_map(|&model| backends.iter().map(move |&backend| (model, backend)))
        .filter(|(model, backend)| backend.supports(*model))
        .map(|(model, backend)| {
            (model, backend, format!("check/{model}/{}/{hash}", backend.name()))
        })
        .collect();
    let resumed_units = checkpoint
        .as_ref()
        .map_or(0, |log| units.iter().filter(|(_, _, key)| log.completed(key).is_some()).count());
    if let Some(log) = checkpoint.as_ref().filter(|_| resumed_units > 0) {
        eprintln!(
            "gam check: resuming {resumed_units} completed units from {}",
            log.path().display()
        );
    }
    let mut reports = BTreeMap::new();
    for (model, backend, key) in units {
        let row = match checkpoint.as_ref().and_then(|c| c.completed(&key)) {
            Some(row) => row.clone(),
            None => {
                let mut builder = Engine::builder()
                    .model(model)
                    .backend(backend)
                    .explorer_parallelism(explorer_workers);
                // The byte ceiling arrives through the check budget; the
                // builder only carries where to degrade to.
                if let Some(dir) = &spill_dir {
                    builder = builder.explorer_spill_dir(dir.clone());
                }
                let engine = builder.build().map_err(|err| err.to_string())?;
                let start = Instant::now();
                let result = engine.answer(&test, &budget);
                let row = ResultRow::new(model, backend, &result, start.elapsed());
                // Only conclusive rows are logged. An errored pair is
                // retried on resume; an inconclusive one is checked again
                // too, because the key names no budget and a resume may
                // run with a larger one or none.
                if row.verdict().is_some() {
                    record_unit(&mut checkpoint, &key, &row);
                }
                row
            }
        };
        let report = SuiteReport {
            suite: Some(path.clone()),
            backend,
            model,
            parallelism: 1,
            wall: Duration::from_micros(row.wall_us),
            reports: vec![TestReport {
                test: test.name().to_string(),
                row,
                outcomes: BTreeSet::new(),
            }],
        };
        reports.insert((model, backend), report);
    }
    if reports.is_empty() {
        return Err("no supported (model, backend) combination selected".to_string());
    }
    let use_expectations = !arg_flag(args, "--no-expectations");
    let mismatches = diff_reports(std::slice::from_ref(&test), &models, &reports, |name, model| {
        // The built-in paper table applies only when the parsed test *is*
        // the library test of that name — a user-written variant that merely
        // reuses a library name (e.g. a custom `dekker`) must not be diffed
        // against the paper's verdicts.
        if !use_expectations || gam_isa::litmus::library::by_name(name)? != test {
            return None;
        }
        gam_verify::expectations::expectation_for(name).map(|e| e.allowed(model))
    });
    if arg_flag(args, "--json") {
        let mut report = json_report(path, &models, &reports, &mismatches, &[]);
        if let (Some(_), Json::Object(fields)) = (&checkpoint, &mut report) {
            fields.push(("resumed_units".to_string(), Json::UInt(resumed_units as u64)));
        }
        outln!("{report}");
    } else {
        out!("{}", print_litmus(&test));
        outln!();
        for ((model, backend), report) in &reports {
            let model = model.to_string();
            outln!("{model:<8} {:<12} {}", backend.name(), report.reports[0].row);
        }
        for m in &mismatches {
            outln!("MISMATCH {m}");
        }
    }
    Ok(Status::of_reports(&reports, mismatches.is_empty()))
}

fn cmd_run(args: &[String]) -> Result<Status, String> {
    let Some(dir) = positional(args) else {
        return Err("`gam run` needs a corpus DIR argument".to_string());
    };
    let corpus = match Corpus::load(dir) {
        Ok(corpus) => corpus,
        Err(err) => {
            eprintln!("{err}");
            return Ok(Status::Findings);
        }
    };
    let models = match arg_value(args, "--models") {
        Some(list) => parse_models(&list)?,
        None => vec![ModelKind::Sc, ModelKind::Tso, ModelKind::Gam, ModelKind::Gam0],
    };
    let backends = match arg_value(args, "--backends") {
        Some(list) => parse_backends(&list)?,
        None => Backend::ALL.to_vec(),
    };
    let workers = jobs(args)?;
    let explorer_workers = explorer_threads(args)?;
    let use_expectations = !arg_flag(args, "--no-expectations");
    let tests = corpus.tests();
    let name = corpus.name();
    let reports = run_matrix(&tests, &name, &models, &backends, workers, explorer_workers)?;
    let mismatches = diff_reports(&tests, &models, &reports, |test, model| {
        if use_expectations {
            corpus.expectation_for(test).map(|row| row.allowed(model))
        } else {
            None
        }
    });
    // A test without an expectations row (or a row naming no test) would
    // silently drop out of verdict enforcement; treat both as failures so
    // the CI gate's contract holds.
    let coverage_gaps =
        if use_expectations { corpus.expectation_coverage_gaps() } else { Vec::new() };
    let clean = mismatches.is_empty() && coverage_gaps.is_empty();
    if arg_flag(args, "--json") {
        outln!("{}", json_report(&name, &models, &reports, &mismatches, &coverage_gaps));
    } else {
        let model_names: Vec<String> = models.iter().map(ToString::to_string).collect();
        let backend_names: Vec<String> = backends.iter().map(ToString::to_string).collect();
        let expectations = if use_expectations && !corpus.expectations.is_empty() {
            format!("{} expectation rows", corpus.expectations.len())
        } else {
            "no expectations".to_string()
        };
        outln!(
            "corpus {name}: {} tests; models {}; backends {}; {expectations}\n",
            tests.len(),
            model_names.join(", "),
            backend_names.join(", "),
        );
        out!("{}", render_matrix(&tests, &models, &reports, &mismatches));
        outln!();
        for m in &mismatches {
            outln!("MISMATCH {m}");
        }
        for gap in &coverage_gaps {
            outln!("COVERAGE {gap}");
        }
        let pairs = reports.len();
        if clean {
            outln!(
                "{} tests x {} (model, backend) pairs: all verdicts agree{}",
                tests.len(),
                pairs,
                if use_expectations && !corpus.expectations.is_empty() {
                    " and match expectations"
                } else {
                    ""
                }
            );
        } else {
            outln!(
                "{} tests x {} (model, backend) pairs: {} mismatches, {} coverage gaps",
                tests.len(),
                pairs,
                mismatches.len(),
                coverage_gaps.len()
            );
        }
    }
    Ok(Status::of_reports(&reports, clean))
}

fn micros(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

fn cmd_gen_corpus(args: &[String]) -> Result<bool, String> {
    let Some(dir) = positional(args) else {
        return Err("`gam gen-corpus` needs a DIR argument".to_string());
    };
    let big = arg_flag(args, "--big");
    let (default_count, default_seed) = if big { (4, 2024) } else { (200, 2026) };
    let count: usize = match arg_value(args, "--count") {
        None => default_count,
        Some(n) => n.parse().map_err(|_| format!("invalid --count `{n}`"))?,
    };
    let seed: u64 = match arg_value(args, "--seed") {
        None => default_seed,
        Some(n) => n.parse().map_err(|_| format!("invalid --seed `{n}`"))?,
    };
    // `--big` trades breadth for depth: a handful of 3-thread, 15-memory-event
    // tests whose state spaces run into the hundreds of thousands — large
    // enough to trip realistic `--mem-budget` settings, small enough for CI.
    let tests = if big {
        gam_operational::big_tests(seed, count)
    } else {
        gam_operational::stress_tests(seed, count)
    };
    std::fs::create_dir_all(dir).map_err(|err| format!("cannot create {dir}: {err}"))?;
    // Remove stale corpus files first: regenerating with a smaller --count
    // must not leave orphaned tests behind that the fresh expectations.txt
    // no longer covers. Only corpus-owned file types are touched.
    let entries = std::fs::read_dir(dir).map_err(|err| format!("cannot read {dir}: {err}"))?;
    for entry in entries {
        let path = entry.map_err(|err| format!("cannot read {dir}: {err}"))?.path();
        let is_corpus_file = path.extension().is_some_and(|ext| ext == "litmus")
            || path.file_name().is_some_and(|name| name == "expectations.txt");
        if is_corpus_file {
            std::fs::remove_file(&path)
                .map_err(|err| format!("cannot remove stale {}: {err}", path.display()))?;
        }
    }

    // Write every test first, then compute the expectations: a generation
    // interrupted mid-verdict still leaves the finished `.litmus` files
    // behind (without an expectations.txt nothing consumes them as a
    // corpus, so there is no torn-state hazard).
    for test in &tests {
        let path = std::path::Path::new(dir).join(format!("{}.litmus", test.name()));
        std::fs::write(&path, print_litmus(test))
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    }

    // Compute (and cross-check) every test's verdicts across all cores: the
    // axiomatic backend covers all five models; the operational backend must
    // agree wherever a machine exists.
    let reports = run_matrix(&tests, dir, &ModelKind::ALL, &Backend::ALL, all_cores(), 1)?;
    let mismatches = diff_reports(&tests, &ModelKind::ALL, &reports, |_, _| None);
    if !mismatches.is_empty() {
        let lines: Vec<String> = mismatches.iter().map(|m| format!("MISMATCH {m}")).collect();
        return Err(format!("the generated corpus does not check cleanly:\n{}", lines.join("\n")));
    }
    let rows: Vec<OwnedExpectation> = (0..tests.len())
        .map(|index| {
            // Unbudgeted rows are never inconclusive, and a clean diff has no
            // errors: every row is decided.
            let allowed = |model| {
                let row = &reports[&(model, Backend::Axiomatic)].reports[index].row;
                row.verdict().expect("a clean diff leaves every row decided").is_allowed()
            };
            OwnedExpectation {
                test: tests[index].name().to_string(),
                sc: allowed(ModelKind::Sc),
                tso: allowed(ModelKind::Tso),
                gam: allowed(ModelKind::Gam),
                gam0: allowed(ModelKind::Gam0),
                gam_arm: allowed(ModelKind::GamArm),
                source: format!("computed by both backends (seed {seed})"),
            }
        })
        .collect();
    let expectations_path = std::path::Path::new(dir).join("expectations.txt");
    std::fs::write(&expectations_path, render_expectations(&rows))
        .map_err(|err| format!("cannot write {}: {err}", expectations_path.display()))?;
    outln!(
        "wrote {count} tests (seed {seed}) + expectations.txt under {dir}; all verdicts \
         backend-agreed"
    );
    Ok(true)
}

fn cmd_print(args: &[String]) -> Result<bool, String> {
    let Some(path) = positional(args) else {
        return Err("`gam print` needs a FILE argument".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    match parse_litmus(&text) {
        Ok(test) => {
            out!("{}", print_litmus(&test));
            Ok(true)
        }
        Err(err) => {
            eprintln!("{path}: {err}");
            Ok(false)
        }
    }
}

fn cmd_export(args: &[String]) -> Result<bool, String> {
    let Some(dir) = positional(args) else {
        return Err("`gam export-library` needs a DIR argument".to_string());
    };
    let written = export_library(dir).map_err(|err| format!("cannot export to {dir}: {err}"))?;
    outln!("wrote {} files under {dir}", written.len());
    Ok(true)
}

// ---------------------------------------------------------------------------
// the check service and its bench client
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<bool, String> {
    let mut config = gam_serve::ServeConfig {
        cache_path: arg_value(args, "--cache")
            .map_or_else(|| "gam-serve-cache.journal".into(), std::path::PathBuf::from),
        ..gam_serve::ServeConfig::default()
    };
    if let Some(addr) = arg_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(n) = arg_value(args, "--cache-capacity") {
        config.cache_capacity = n.parse().map_err(|_| format!("invalid --cache-capacity `{n}`"))?;
    }
    if let Some(n) = arg_value(args, "--workers") {
        config.workers = n.parse().map_err(|_| format!("invalid --workers `{n}`"))?;
    }
    if let Some(n) = arg_value(args, "--queue-depth") {
        config.queue_depth = n.parse().map_err(|_| format!("invalid --queue-depth `{n}`"))?;
    }
    if let Some(ms) = arg_value(args, "--read-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("invalid --read-timeout-ms `{ms}`"))?;
        if ms == 0 {
            return Err("--read-timeout-ms must be positive".to_string());
        }
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = arg_value(args, "--write-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("invalid --write-timeout-ms `{ms}`"))?;
        if ms == 0 {
            return Err("--write-timeout-ms must be positive".to_string());
        }
        config.write_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = arg_value(args, "--compact-every") {
        config.compact_every = n.parse().map_err(|_| format!("invalid --compact-every `{n}`"))?;
        if config.compact_every == 0 {
            return Err("--compact-every must be positive".to_string());
        }
    }
    if let Some(ms) = arg_value(args, "--overload-wall-ms") {
        config.overload_wall_ms =
            ms.parse().map_err(|_| format!("invalid --overload-wall-ms `{ms}`"))?;
        if config.overload_wall_ms == 0 {
            return Err("--overload-wall-ms must be positive".to_string());
        }
    }
    if let Some(bytes) = arg_value(args, "--mem-watermark") {
        config.mem_watermark_bytes =
            bytes.parse().map_err(|_| format!("invalid --mem-watermark `{bytes}`"))?;
    }
    if let Some(bytes) = arg_value(args, "--overload-mem-bytes") {
        config.overload_mem_bytes =
            bytes.parse().map_err(|_| format!("invalid --overload-mem-bytes `{bytes}`"))?;
        if config.overload_mem_bytes == 0 {
            return Err("--overload-mem-bytes must be positive".to_string());
        }
    }
    // A bind failure is a startup error: `Err` exits 2 with the message.
    let (server, warning) = gam_serve::Server::start(&config).map_err(|err| err.to_string())?;
    if let Some(warning) = warning {
        gam_obs::warn!("gam serve: {warning}");
    }
    outln!(
        "gam serve: listening on {} ({} workers, queue {}, cache {} [capacity {}])",
        server.local_addr(),
        config.workers.max(1),
        config.queue_depth.max(1),
        config.cache_path.display(),
        config.cache_capacity.max(1),
    );
    // Serve until a client POSTs /shutdown, then drain gracefully: stop
    // accepting, join the workers and compact the journal. Every cache
    // mutation was already journaled when it happened, so an external
    // `kill -9` loses at most the one record that was mid-write.
    server.wait_for_shutdown_request();
    outln!("gam serve: shutdown requested; draining");
    server.shutdown();
    Ok(true)
}

/// Strips an optional `http://` scheme and trailing slashes from a server
/// address given on the command line.
fn server_addr(raw: &str) -> &str {
    raw.trim_start_matches("http://").trim_end_matches('/')
}

fn fetch_metrics(addr: &str, client: &gam_serve::ClientConfig) -> Result<Json, String> {
    let response = gam_serve::http::request_with(addr, "GET", "/metrics", None, client)
        .map_err(|err| format!("cannot reach {addr}: {err}"))?;
    if response.status != 200 {
        return Err(format!("{addr}/metrics answered {}", response.status));
    }
    Json::parse(&response.body).map_err(|err| format!("{addr}/metrics: bad JSON: {err}"))
}

/// What one replayed request came back with, verdicts aside.
enum ReplayOutcome {
    /// A checked result: `(allowed, cached)`.
    Verdict(bool, bool),
    /// The server was still shedding when the retry budget ran out. Not an
    /// error: under deliberate overload, bounded shedding is the server
    /// *working as designed*, and one unanswered request must not fail the
    /// whole replay.
    Shed,
}

/// One replayed request's observation, as seen by the bench client.
struct ReplayRow {
    test: String,
    model: ModelKind,
    outcome: Result<ReplayOutcome, String>,
    retry: gam_serve::RetryStats,
}

/// `gam bench DIR --serve ADDR`: replays the corpus against a live server.
/// Without `--serve` there is nothing to bench: `gam run DIR` checks a
/// corpus in-process.
fn cmd_bench(args: &[String]) -> Result<bool, String> {
    let Some(dir) = positional(args) else {
        return Err("`gam bench` needs a corpus DIR argument".to_string());
    };
    let Some(server) = arg_value(args, "--serve") else {
        return Err(format!(
            "`gam bench {dir}` needs --serve ADDR; check a corpus in-process with `gam run {dir}`"
        ));
    };
    let addr = server_addr(&server).to_string();
    let corpus = match Corpus::load(dir) {
        Ok(corpus) => corpus,
        Err(err) => {
            eprintln!("{err}");
            return Ok(false);
        }
    };
    let models = match arg_value(args, "--models") {
        Some(list) => parse_models(&list)?,
        None => vec![ModelKind::Gam],
    };
    for &model in &models {
        if !Backend::Operational.supports(model) {
            return Err(format!("--serve replays operationally; {model} has no machine"));
        }
    }
    let jobs = jobs(args)?.max(1);
    let min_hit_rate = match arg_value(args, "--min-hit-rate") {
        None => 0.0f64,
        Some(r) => {
            let rate: f64 = r.parse().map_err(|_| format!("invalid --min-hit-rate `{r}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--min-hit-rate `{r}` outside 0.0..=1.0"));
            }
            rate
        }
    };
    let client = match arg_value(args, "--timeout-ms") {
        None => gam_serve::ClientConfig::default(),
        Some(ms) => {
            let ms: u64 = ms.parse().map_err(|_| format!("invalid --timeout-ms `{ms}`"))?;
            if ms == 0 {
                return Err("--timeout-ms must be positive".to_string());
            }
            gam_serve::ClientConfig::with_timeout(std::time::Duration::from_millis(ms))
        }
    };
    let policy = match arg_value(args, "--retries") {
        None => gam_serve::RetryPolicy::default(),
        Some(n) => gam_serve::RetryPolicy {
            max_retries: n.parse().map_err(|_| format!("invalid --retries `{n}`"))?,
            ..gam_serve::RetryPolicy::default()
        },
    };
    let as_json = arg_flag(args, "--json");
    let out_path = arg_value(args, "--out");
    let tests = corpus.tests();
    let name = corpus.name();

    // Client-observed latency, per endpoint. Separate registry from the
    // server's: these are round-trip times as this client saw them,
    // including retries and backoff.
    let client_registry = gam_obs::metrics::Registry::new();
    let check_latency = client_registry.histogram("client.latency.check.us");
    let metrics_latency = client_registry.histogram("client.latency.metrics.us");
    let timed_metrics = |addr: &str| -> Result<Json, String> {
        let started = Instant::now();
        let doc = fetch_metrics(addr, &client)?;
        metrics_latency.observe(micros(started.elapsed()));
        Ok(doc)
    };

    // Ground truth: the same verdicts computed in-process.
    let mut expected: BTreeMap<(String, ModelKind), bool> = BTreeMap::new();
    let in_process = run_matrix(&tests, &name, &models, &[Backend::Operational], jobs, 1)?;
    for ((model, _), suite) in in_process {
        for report in &suite.reports {
            let verdict = report
                .row
                .verdict()
                .ok_or_else(|| format!("in-process {model}/{}: {}", report.test, report.row))?;
            expected.insert((report.test.clone(), model), verdict.is_allowed());
        }
    }

    let before = timed_metrics(&addr)?;

    // Replay: every (test, model) request, drained concurrently by `jobs`
    // client threads off a shared cursor.
    let work: Vec<(String, ModelKind, String)> = models
        .iter()
        .flat_map(|&model| {
            tests.iter().map(move |test| {
                let body = Json::object([
                    ("litmus", Json::from(print_litmus(test))),
                    ("models", Json::array([Json::from(gam_serve::model_name(model))])),
                    ("backends", Json::array([Json::from("operational")])),
                ]);
                (test.name().to_string(), model, body.to_string())
            })
        })
        .collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let rows = std::sync::Mutex::new(Vec::<ReplayRow>::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(work.len().max(1)) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((test, model, body)) = work.get(index) else { break };
                let request_started = Instant::now();
                let (outcome, retry) = replay_one(&addr, body, &client, &policy);
                check_latency.observe(micros(request_started.elapsed()));
                rows.lock().expect("rows lock").push(ReplayRow {
                    test: test.clone(),
                    model: *model,
                    outcome,
                    retry,
                });
            });
        }
    });
    let wall = started.elapsed();
    let rows = rows.into_inner().expect("rows lock");

    let after = timed_metrics(&addr)?;

    // Score the replay against the in-process verdicts.
    let mut disagreements = Vec::new();
    let mut errors = Vec::new();
    let mut hits = 0u64;
    let mut sheds = 0u64;
    let mut retried_requests = 0u64;
    let mut retries_total = 0u64;
    let mut backoff_us_total = 0u64;
    for row in &rows {
        if row.retry.retries > 0 {
            retried_requests += 1;
            retries_total += u64::from(row.retry.retries);
            backoff_us_total += micros(row.retry.backoff);
        }
        match &row.outcome {
            Ok(ReplayOutcome::Verdict(allowed, cached)) => {
                if *cached {
                    hits += 1;
                }
                let want = expected[&(row.test.clone(), row.model)];
                if *allowed != want {
                    disagreements.push(format!(
                        "{}/{}: server says {}, in-process says {}",
                        row.model,
                        row.test,
                        verdict_word(*allowed),
                        verdict_word(want)
                    ));
                }
            }
            Ok(ReplayOutcome::Shed) => sheds += 1,
            Err(err) => errors.push(format!("{}/{}: {err}", row.model, row.test)),
        }
    }
    let requests = rows.len() as u64;
    // Shed requests never reached a checker, so they can't hit the cache —
    // they drop out of the hit-rate denominator as well as the numerator.
    let answered = requests - sheds;
    let hit_permille = (hits * 1000).checked_div(answered).unwrap_or(0);
    let wall_us = micros(wall);
    let requests_per_sec =
        requests.saturating_mul(1_000_000).checked_div(wall_us.max(1)).unwrap_or(0);

    // The server's own accounting must match what this client observed.
    let delta = |key: &str| -> u64 {
        let read = |doc: &Json| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        read(&after).saturating_sub(read(&before))
    };
    let mut metric_faults = Vec::new();
    let checked = requests - errors.len() as u64 - sheds;
    if delta("checks_total") != checked {
        metric_faults.push(format!(
            "checks_total moved by {} for {checked} checked requests",
            delta("checks_total"),
        ));
    }
    if delta("cache_hits") != hits {
        metric_faults
            .push(format!("cache_hits moved by {} but client saw {hits}", delta("cache_hits")));
    }
    // The server's counters must reconcile among themselves too: every
    // check is exactly one of hit, miss, inconclusive or panicked.
    let accounted = delta("cache_hits")
        + delta("cache_misses")
        + delta("inconclusive_total")
        + delta("panics_total");
    if delta("checks_total") != accounted {
        metric_faults.push(format!(
            "checks_total moved by {} but hits+misses+inconclusive+panics moved by {accounted}",
            delta("checks_total")
        ));
    }

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let min_hit_permille = (min_hit_rate * 1000.0).round() as u64;
    let hit_rate_ok = hit_permille >= min_hit_permille;
    let clean =
        disagreements.is_empty() && errors.is_empty() && metric_faults.is_empty() && hit_rate_ok;

    // Client-side round-trip quantiles, per endpoint (v2 addition).
    let latency_json = |histogram: &gam_obs::metrics::Histogram| {
        let snapshot = histogram.snapshot();
        Json::object([
            ("count", Json::UInt(snapshot.count)),
            ("p50_us", Json::UInt(snapshot.p50)),
            ("p90_us", Json::UInt(snapshot.p90)),
            ("p99_us", Json::UInt(snapshot.p99)),
            ("max_us", Json::UInt(snapshot.max)),
        ])
    };
    let check_snapshot = check_latency.snapshot();

    let report = Json::object([
        // Strict superset of gam-serve-bench/v1: `latency_us` is the only
        // addition; every v1 field is unchanged.
        ("schema", Json::from("gam-serve-bench/v2")),
        ("suite", Json::from(name.as_str())),
        ("server", Json::from(addr.as_str())),
        ("tests", Json::UInt(tests.len() as u64)),
        ("models", Json::array(models.iter().map(|m| Json::from(m.to_string())))),
        ("jobs", Json::UInt(jobs as u64)),
        ("requests", Json::UInt(requests)),
        ("errors", Json::UInt(errors.len() as u64)),
        ("disagreements", Json::UInt(disagreements.len() as u64)),
        ("shed_requests", Json::UInt(sheds)),
        ("retried_requests", Json::UInt(retried_requests)),
        ("retries_total", Json::UInt(retries_total)),
        ("backoff_us_total", Json::UInt(backoff_us_total)),
        ("max_retries", Json::UInt(u64::from(policy.max_retries))),
        ("cache_hits", Json::UInt(hits)),
        ("hit_rate_permille", Json::UInt(hit_permille)),
        ("min_hit_rate_permille", Json::UInt(min_hit_permille)),
        ("wall_us", Json::UInt(wall_us)),
        ("requests_per_sec", Json::UInt(requests_per_sec)),
        ("metrics_delta_ok", Json::from(metric_faults.is_empty())),
        (
            "latency_us",
            Json::object([
                ("check", latency_json(&check_latency)),
                ("metrics", latency_json(&metrics_latency)),
            ]),
        ),
        ("ok", Json::from(clean)),
    ]);
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{report}\n"))
            .map_err(|err| format!("cannot write {path}: {err}"))?;
    }
    if as_json {
        outln!("{report}");
    } else {
        outln!(
            "serve bench {name} @ {addr}: {requests} requests ({} tests x {} models, {jobs} \
             jobs) in {wall_us}us ({requests_per_sec} req/s)",
            tests.len(),
            models.len()
        );
        outln!(
            "  verdicts: {} agree, {} disagree, {} errors; cache hits {hits} \
             ({hit_permille}%o, floor {min_hit_permille}%o)",
            answered - disagreements.len() as u64 - errors.len() as u64,
            disagreements.len(),
            errors.len()
        );
        outln!(
            "  overload: {sheds} shed after retries; {retried_requests} requests retried \
             ({retries_total} retries, {backoff_us_total}us backing off, budget {} per request)",
            policy.max_retries
        );
        outln!(
            "  latency: /check p50 {}us p90 {}us p99 {}us (max {}us)",
            check_snapshot.p50,
            check_snapshot.p90,
            check_snapshot.p99,
            check_snapshot.max
        );
        for line in disagreements.iter().chain(&errors).chain(&metric_faults) {
            outln!("  FAIL {line}");
        }
        if !hit_rate_ok {
            outln!("  FAIL hit rate {hit_permille}%o below floor {min_hit_permille}%o");
        }
    }
    Ok(clean)
}

/// Sends one `/check` request through the bounded-retry client and extracts
/// `(allowed, cached)` from the single result row. A `503` that outlives the
/// retry budget is a counted [`ReplayOutcome::Shed`], not an error.
fn replay_one(
    addr: &str,
    body: &str,
    client: &gam_serve::ClientConfig,
    policy: &gam_serve::RetryPolicy,
) -> (Result<ReplayOutcome, String>, gam_serve::RetryStats) {
    let (response, stats) =
        match gam_serve::http::request_retrying(addr, "POST", "/check", Some(body), client, policy)
        {
            Ok(pair) => pair,
            Err(err) => return (Err(err.to_string()), gam_serve::RetryStats::default()),
        };
    (replay_verdict(&response), stats)
}

/// The verdict-extraction half of [`replay_one`].
fn replay_verdict(response: &gam_serve::http::Response) -> Result<ReplayOutcome, String> {
    if response.status == 503 {
        return Ok(ReplayOutcome::Shed);
    }
    if response.status != 200 {
        return Err(format!("HTTP {}: {}", response.status, response.body.trim()));
    }
    let json = Json::parse(&response.body).map_err(|err| format!("bad JSON: {err}"))?;
    let results = json
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_array)
        .ok_or("response missing results")?;
    let row = results.first().ok_or("empty results")?;
    if let Some(err) = row.get("error").and_then(Json::as_str) {
        return Err(err.to_string());
    }
    let allowed = match row.get("verdict").and_then(Json::as_str) {
        Some("allowed") => true,
        Some("forbidden") => false,
        other => return Err(format!("bad verdict {other:?}")),
    };
    let cached = matches!(row.get("cached"), Some(Json::Bool(true)));
    Ok(ReplayOutcome::Verdict(allowed, cached))
}
