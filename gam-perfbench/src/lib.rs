//! One benchmark for `gam`, end to end and layer by layer.
//!
//! Three workloads (see `README.md` in this directory):
//!
//! * `stress-axiomatic` — paper corpus plus seeded stress programs on the
//!   axiomatic backend, under a per-check wall limit;
//! * `big-explore` — big three-thread programs on the operational backend,
//!   uncapped and capped with spill to disk;
//! * `serve-mixed` — an in-process `gam serve` fed a seeded stream of fresh,
//!   renamed and repeated programs over HTTP in a closed loop (traced runs
//!   add an open loop).
//!
//! A run prints the end-to-end metrics (`--trace 0`) or the per-layer table
//! from a traced run (`--trace 1`), checks every result against a reference
//! computed after the timed phase, and ends with one JSON result line.

pub mod big;
pub mod calib;
pub mod checks;
pub mod client;
pub mod inputs;
pub mod serve;
pub mod stats;
pub mod stress;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::calib::Calibration;
use crate::stats::Outcome;
use crate::trace::Tracer;

/// The CPU count of the machine the benchmark was tuned on (`nproc` = 2):
/// explorer threads of the traced run's sharding check and threads computing
/// the references, both outside the timed phases.
pub const THREADS: usize = 2;

/// Threads that work at once in a timed phase: serve workers, client
/// connections and explorer threads. On a shared 2-vCPU host a second busy
/// thread makes the figures measure the scheduler more than the program.
pub const TIMED_THREADS: usize = 1;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["stress-axiomatic", "big-explore", "serve-mixed"];

/// End-to-end metrics and units, printed by every untraced run.
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p90_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, printed by every traced run. A layer a
/// workload does not use reads 0 there.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("frontend.parse_us", "us"),
    ("frontend.canon_us", "us"),
    ("axiomatic.busy_s", "s"),
    ("axiomatic.assignments_enumerated", "count"),
    ("axiomatic.assignments_concretized", "count"),
    ("axiomatic.orders_visited", "count"),
    ("axiomatic.outcomes_per_kilo_order", "ratio"),
    ("operational.busy_s", "s"),
    ("operational.states_per_s", "1/s"),
    ("operational.states", "count"),
    ("operational.final_states", "count"),
    ("operational.transitions_pruned", "count"),
    ("operational.distinct_components", "count"),
    ("operational.interned_bytes", "bytes"),
    ("operational.peak_accounted_bytes", "bytes"),
    ("operational.spilled_bytes", "bytes"),
    ("operational.spill_segments", "count"),
    ("operational.sleep_flushes", "count"),
    ("operational.sharded_checks", "count"),
    ("engine.overhead_us", "us"),
    ("engine.inconclusive", "count"),
    ("serve.connect_us_p50", "us"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.variant_hit_share", "ratio"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.evictions", "count"),
    ("serve.journal_appends", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("client.gen_lag_p99_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The settings of one run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for cache, journal, spill and trace files.
    pub tmp: PathBuf,
    /// The paper corpus (`tests/corpus`).
    pub corpus_dir: PathBuf,
}

impl Run {
    /// Length of the untraced timed pass. A traced run spends half of it
    /// untraced and repeats the same work traced, so its wall stays near
    /// `seconds` and the two halves give the tracing overhead.
    #[must_use]
    pub fn measure(&self) -> Duration {
        let seconds = Duration::from_secs(self.seconds);
        if self.trace {
            seconds / 2
        } else {
            seconds
        }
    }

    /// Writes the spans and appends every per-layer metric, reading 0 for
    /// layers the workload does not use.
    ///
    /// # Panics
    ///
    /// If a workload reports a metric missing from [`LAYER_METRICS`].
    pub fn finish_trace(
        &self,
        tracer: &Tracer,
        values: BTreeMap<&'static str, f64>,
        outcome: &mut Outcome,
    ) {
        for name in values.keys() {
            assert!(LAYER_METRICS.iter().any(|(n, _)| n == name), "unlisted layer metric {name}");
        }
        let path = self.tmp.join("spans.jsonl");
        match tracer.write(&path) {
            Ok(()) => outcome.notes.push(format!("{} spans written", tracer.spans().len())),
            Err(err) => outcome.notes.push(format!("spans not written: {err}")),
        }
        for (name, unit) in LAYER_METRICS {
            outcome.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Runs `setup` [`SETUPS`] times, hands all but the last result to
/// `discard`, and returns the last with the median set-up time. Set-up time
/// is the CPU time of the whole process (server threads included), like the
/// timed metrics, read at the tuning machine's speed: `calibration` samples
/// the machine's speed before each set-up and after the last.
///
/// # Errors
///
/// The first set-up error.
pub fn median_setup<T>(
    calibration: &mut Calibration,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Duration), String> {
    let mut spans = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for attempt in 0..SETUPS {
        calibration.sample();
        let began = stats::process_cpu();
        let state = setup(attempt)?;
        let ended = stats::process_cpu();
        spans.push((ended, ended.saturating_sub(began)));
        if let Some(previous) = kept.replace(state) {
            discard(previous);
        }
    }
    calibration.sample();
    let times: Vec<f64> = spans
        .iter()
        .map(|&(ended, took)| took.as_secs_f64() * calibration.scale_at(ended))
        .collect();
    let median = Duration::from_secs_f64(stats::quantile(&times, 0.5));
    Ok((kept.expect("at least one set-up ran"), median))
}

/// Runs a workload by name; `None` for an unknown name.
///
/// # Panics
///
/// If a run that got past set-up prints other metrics than
/// [`E2E_METRICS`] (untraced) or [`LAYER_METRICS`] (traced), in order.
#[must_use]
pub fn run_workload(name: &str, run: &Run) -> Option<Outcome> {
    let outcome = match name {
        "stress-axiomatic" => stress::run(run),
        "big-explore" => big::run(run),
        "serve-mixed" => serve::run(run),
        _ => return None,
    };
    if !outcome.metrics.is_empty() {
        let expected: &[(&str, &str)] = if run.trace { &LAYER_METRICS } else { &E2E_METRICS };
        let printed: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, expected, "{name} printed other metrics than listed");
    }
    Some(outcome)
}

/// `engine.overhead_us`: the median, over `rounds` passes through `items`,
/// of (engine call − direct backend call) on the same item, in
/// microseconds. Consecutive pairs alternate which call runs first, so
/// neither call always runs on caches the other has just warmed.
pub fn engine_overhead_us<T>(
    items: &[T],
    rounds: usize,
    engine_call: impl Fn(&T),
    direct_call: impl Fn(&T),
) -> f64 {
    let time = |call: &dyn Fn(&T), item: &T| {
        let began = std::time::Instant::now();
        call(item);
        stats::us(began.elapsed())
    };
    let mut differences = Vec::with_capacity(items.len() * rounds);
    for _ in 0..rounds {
        for item in items {
            let difference = if differences.len() % 2 == 0 {
                let engine = time(&engine_call, item);
                engine - time(&direct_call, item)
            } else {
                let direct = time(&direct_call, item);
                time(&engine_call, item) - direct
            };
            differences.push(difference);
        }
    }
    stats::quantile(&differences, 0.5)
}

/// Mean microseconds to parse one of up to 200 texts.
#[must_use]
pub fn parse_us(inputs: &[inputs::Input]) -> f64 {
    let texts = &inputs[..inputs.len().min(200)];
    let began = std::time::Instant::now();
    for input in texts {
        let _ = std::hint::black_box(gam_frontend::parse_litmus(std::hint::black_box(&input.text)));
    }
    stats::share(stats::us(began.elapsed()), texts.len() as f64)
}

/// Mean microseconds to canonicalize one of up to 200 parsed texts.
#[must_use]
pub fn canon_us(inputs: &[inputs::Input]) -> f64 {
    let tests: Vec<_> = inputs
        .iter()
        .take(200)
        .filter_map(|input| gam_frontend::parse_litmus(&input.text).ok())
        .collect();
    let began = std::time::Instant::now();
    for test in &tests {
        std::hint::black_box(gam_frontend::canonical_hash(std::hint::black_box(test)));
    }
    stats::share(stats::us(began.elapsed()), tests.len() as f64)
}
