//! The timed check loop shared by `stress-axiomatic` and `big-explore`, and
//! the comparison of its verdicts with a reference computed afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gam_core::ModelKind;
use gam_engine::{CheckBudget, Engine, SessionVerdict};
use gam_frontend::parse_litmus;
use gam_isa::litmus::{LitmusTest, Outcome as Observed};

use crate::calib::Calibration;
use crate::inputs::Input;
use crate::stats::{self, Outcome};
use crate::trace::Tracer;

/// One check of a workload's list.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Index into the workload's inputs.
    pub input: usize,
    /// The model to decide it under.
    pub model: ModelKind,
    /// Which engine and budget of the workload to use.
    pub mode: usize,
}

/// A workload's checks, engines and budgets.
pub struct CheckList<'a> {
    /// The texts.
    pub inputs: &'a [Input],
    /// The checks, run in order and wrapped around.
    pub checks: Vec<Check>,
    /// The engine for a check.
    pub engine: &'a (dyn Fn(&Check) -> &'a Engine + Sync),
    /// The budget for a check.
    pub budget: &'a (dyn Fn(&Check) -> CheckBudget + Sync),
}

/// What one timed check gave.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the check list.
    pub check: usize,
    /// Parse plus engine call, wall time.
    pub latency: Duration,
    /// Parse plus engine call, CPU time of the process.
    pub cpu: Duration,
    /// The verdict, or the error text.
    pub verdict: Result<SessionVerdict, String>,
}

impl Record {
    /// Whether the check reached a verdict within its limit.
    #[must_use]
    pub fn decided(&self) -> bool {
        matches!(&self.verdict, Ok(v) if v.is_conclusive())
    }
}

/// A pass of the timed loop.
#[derive(Debug, Default)]
pub struct Pass {
    /// One record per check made.
    pub records: Vec<Record>,
    /// Wall time of the pass.
    pub wall: Duration,
}

/// Where a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many checks.
    Count(usize),
}

impl CheckList<'_> {
    /// Runs checks one at a time from the start of the list until `stop`.
    /// Each check parses its text, then decides it through the engine.
    /// Between checks, `calibration` samples the machine's speed.
    #[must_use]
    pub fn run(
        &self,
        stop: Stop,
        tracer: &Tracer,
        mut calibration: Option<&mut Calibration>,
    ) -> Pass {
        let start = Instant::now();
        let mut records = Vec::new();
        loop {
            let done = match stop {
                Stop::After(wall) => start.elapsed() >= wall,
                Stop::Count(count) => records.len() >= count,
            };
            if done {
                break;
            }
            let index = records.len() % self.checks.len();
            let check = &self.checks[index];
            let (engine, budget) = ((self.engine)(check), (self.budget)(check));
            let id = records.len();
            let root = tracer.open("check", None, id);
            let began = Instant::now();
            let cpu_began = stats::process_cpu();
            let parsed = tracer
                .call("frontend.parse", root, id, || parse_litmus(&self.inputs[check.input].text));
            let verdict = match parsed {
                Ok(test) => tracer
                    .call("engine.check_budgeted", root, id, || {
                        engine.check_budgeted(&test, &budget)
                    })
                    .map(|outcome| outcome.verdict)
                    .map_err(|err| err.to_string()),
                Err(err) => Err(format!("parse: {err}")),
            };
            let cpu = stats::process_cpu().saturating_sub(cpu_began);
            let latency = began.elapsed();
            tracer.close(root);
            records.push(Record { check: index, latency, cpu, verdict });
            if let Some(calibration) = calibration.as_deref_mut() {
                calibration.tick();
            }
        }
        Pass { records, wall: start.elapsed() }
    }

    /// The distinct (input, model) pairs a pass touched.
    #[must_use]
    pub fn touched(&self, pass: &Pass) -> BTreeSet<(usize, ModelKind)> {
        pass.records
            .iter()
            .map(|r| (self.checks[r.check].input, self.checks[r.check].model))
            .collect()
    }
}

/// The reference answer of one (input, model) pair.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The complete allowed-outcome set.
    pub outcomes: BTreeSet<Observed>,
    /// Whether the condition of interest is allowed.
    pub allowed: bool,
}

/// A reference backend: the complete allowed-outcome set of a test under a
/// model.
pub type ReferenceBackend =
    dyn Fn(&LitmusTest, ModelKind) -> Result<BTreeSet<Observed>, String> + Sync;

/// Computes the reference of every pair on up to two threads.
///
/// # Errors
///
/// The first pair whose reference could not be computed.
pub fn references(
    inputs: &[Input],
    pairs: &BTreeSet<(usize, ModelKind)>,
    backend: &ReferenceBackend,
) -> Result<BTreeMap<(usize, ModelKind), Reference>, String> {
    let pairs: Vec<_> = pairs.iter().copied().collect();
    let next = AtomicUsize::new(0);
    let found = Mutex::new(BTreeMap::new());
    let error = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..crate::THREADS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(input, model)) = pairs.get(index) else { break };
                let answer = parse_litmus(&inputs[input].text)
                    .map_err(|err| err.to_string())
                    .and_then(|test| {
                        let outcomes = backend(&test, model)?;
                        let allowed = outcomes.iter().any(|o| test.condition().matched_by(o));
                        Ok(Reference { outcomes, allowed })
                    });
                match answer {
                    Ok(reference) => {
                        found.lock().expect("reference lock").insert((input, model), reference);
                    }
                    Err(err) => {
                        let message = format!("{} under {model}: {err}", inputs[input].name);
                        error.lock().expect("reference lock").get_or_insert(message);
                    }
                }
            });
        }
    });
    match error.into_inner().expect("reference lock") {
        Some(err) => Err(err),
        None => Ok(found.into_inner().expect("reference lock")),
    }
}

/// Compares every record of a pass with the reference: a verdict must
/// match, and a limit-stopped check's partial outcomes must be a subset.
pub fn verify(
    list: &CheckList<'_>,
    pass: &Pass,
    reference: &BTreeMap<(usize, ModelKind), Reference>,
    outcome: &mut Outcome,
) {
    for record in &pass.records {
        let check = &list.checks[record.check];
        let name = &list.inputs[check.input].name;
        let expected = &reference[&(check.input, check.model)];
        match &record.verdict {
            Err(err) => {
                outcome.failed += 1;
                outcome.note(format!("ERROR {name} under {}: {err}", check.model));
            }
            Ok(SessionVerdict::Inconclusive { partial_outcomes, .. }) => {
                if !partial_outcomes.is_subset(&expected.outcomes) {
                    outcome.wrong(format!(
                        "{name} under {}: partial outcomes not allowed",
                        check.model
                    ));
                }
            }
            Ok(verdict) => {
                if verdict.as_verdict().map(|v| v.is_allowed()) != Some(expected.allowed) {
                    outcome.wrong(format!(
                        "{name} under {}: {verdict}, reference says allowed={}",
                        check.model, expected.allowed
                    ));
                }
            }
        }
    }
}

/// The quantile of `cpu_p90_ms`. Limit-stopped checks count at the limit,
/// above every decided check; while they are fewer than a tenth of the
/// checks, the p90 is a decided check's own cost, and a check that newly
/// reaches the limit moves it up.
const TAIL: f64 = 0.9;

/// `cpu_p90_ms` averages the per-check costs ranked from p87 to p93 (about
/// 60 checks on `stress-axiomatic`): the costs there climb steeply, and the
/// single check at rank p90 moved the figure by 13% between runs.
const TAIL_BAND: f64 = 0.03;

/// Each check's median over its records of `cost`, in milliseconds. The
/// list repeats within a run, so one disturbed repetition moves nothing.
fn per_check_medians<'a>(
    records: impl Iterator<Item = &'a Record>,
    cost: impl Fn(&Record) -> Duration,
) -> Vec<f64> {
    let mut per_check: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for record in records {
        per_check.entry(record.check).or_default().push(stats::ms(cost(record)));
    }
    per_check.values().map(|v| stats::quantile(v, 0.5)).collect()
}

/// The end-to-end metrics of a check pass, from the CPU time of each check
/// read at the tuning machine's speed (`calibration`). A check stopped by
/// its wall limit is charged `limit`, the limit at that speed: the CPU time
/// it got before the limit fired shrinks when the host is busy, and a check
/// that newly reaches the limit should cost the most a check can.
pub fn e2e(
    pass: &Pass,
    setup: Duration,
    limit: Option<Duration>,
    calibration: &Calibration,
    outcome: &mut Outcome,
) {
    let records = &pass.records;
    let scale = calibration.scale();
    let cpu = |r: &Record| match limit {
        Some(limit) if !r.decided() => limit,
        _ => r.cpu.mul_f64(scale),
    };
    let costs = per_check_medians(records.iter(), cpu);
    let throughput = |costs: &[f64]| stats::share(costs.len() as f64 * 1e3, costs.iter().sum());
    let walls = per_check_medians(records.iter(), |r| r.latency);
    outcome.notes.push(format!(
        "unscaled wall time: {:.1} checks/s, p50 {:.4} ms; reference work {:.1} us \
         over {} samples, scale {scale:.3}",
        throughput(&walls),
        stats::quantile(&walls, 0.5),
        stats::us(calibration.median()),
        calibration.samples()
    ));
    let decided = records.iter().filter(|r| r.decided()).count();
    outcome.metric("setup_s", setup.as_secs_f64(), "s");
    outcome.metric("throughput_per_cpu_s", throughput(&costs), "1/s");
    outcome.metric("cpu_p50_ms", stats::quantile(&costs, 0.5), "ms");
    outcome.metric("cpu_p90_ms", stats::band_quantile(&costs, TAIL, TAIL_BAND), "ms");
    outcome.metric("decided_share", stats::share(decided as f64, records.len() as f64), "ratio");
}

/// Inconclusive checks of a pass.
#[must_use]
pub fn inconclusive(pass: &Pass) -> usize {
    pass.records.iter().filter(|r| r.verdict.is_ok() && !r.decided()).count()
}
