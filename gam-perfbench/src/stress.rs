//! `stress-axiomatic`: the paper corpus and seeded stress programs, each
//! decided by the axiomatic backend under SC, TSO, GAM and GAM0 with a
//! per-check wall limit. The rf/mo search does almost all the work; the
//! explorer and serve do none.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use gam_axiomatic::AxiomaticChecker;
use gam_core::{model, Interrupt, ModelKind};
use gam_engine::{CheckBudget, Engine};
use gam_frontend::parse_litmus;
use gam_isa::litmus::LitmusTest;
use gam_operational::OperationalChecker;

use crate::calib::Calibration;
use crate::checks::{self, Check, CheckList, Stop};
use crate::inputs::{stress_inputs, Corpus, Input, MODELS};
use crate::stats::{self, Outcome};
use crate::trace::{Profile, Tracer};
use crate::Run;

/// Per-check wall limit at the tuning machine's speed, as `gam check
/// --time-budget 50` there. A run gives the engine this limit scaled by the
/// machine's speed in that run (see [`crate::calib`]), so the same checks
/// reach it on a slow host as on a fast one. Today only programs with ten or
/// more memory events reach it (about 3% of checks).
pub const CHECK_LIMIT: Duration = Duration::from_millis(50);

/// Programs with at most this many memory events finish in milliseconds
/// without a limit, so counters summed over them never depend on timing.
const COUNTER_MAX_EVENTS: usize = 8;

/// Safety cap on one unlimited counter check; reaching it is an error.
const COUNTER_CAP: Duration = Duration::from_secs(5);

/// What set-up builds.
struct Setup {
    corpus: Corpus,
    inputs: Vec<Input>,
    /// Inputs whose checks form the exact-counter set.
    counter_set: Vec<usize>,
    engines: Vec<Engine>,
}

/// Loads the corpus, draws and prints the stress programs, builds one engine
/// per model, and warms up on the corpus.
fn setup(run: &Run, limit: &CheckBudget) -> Result<Setup, String> {
    let corpus = Corpus::load(&run.corpus_dir)?;
    let mut inputs: Vec<Input> = corpus.inputs.clone();
    let mut counter_set: Vec<usize> = (0..inputs.len()).collect();
    for (input, events) in stress_inputs(run.seed) {
        if events <= COUNTER_MAX_EVENTS {
            counter_set.push(inputs.len());
        }
        inputs.push(input);
    }
    let engines: Vec<Engine> = MODELS.iter().map(|&m| Engine::axiomatic(m)).collect();
    for input in &corpus.inputs {
        let test = parse_litmus(&input.text).map_err(|err| format!("{}: {err}", input.name))?;
        for engine in &engines {
            let _ = engine.check_budgeted(&test, limit);
        }
    }
    Ok(Setup { corpus, inputs, counter_set, engines })
}

/// Runs the workload.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let pin = stats::OneCpu::pin();
    let mut calibration = Calibration::start();
    let limit = CheckBudget::none().with_max_wall(CHECK_LIMIT.div_f64(calibration.scale()));
    let (Setup { corpus, inputs, counter_set, engines }, setup) =
        match crate::median_setup(&mut calibration, |_| setup(run, &limit), drop) {
            Ok(done) => done,
            Err(err) => {
                outcome.failed += 1;
                outcome.note(format!("ERROR set-up: {err}"));
                return outcome;
            }
        };
    let checks: Vec<Check> = (0..inputs.len())
        .flat_map(|input| {
            MODELS.iter().enumerate().map(move |(mode, &model)| Check { input, model, mode })
        })
        .collect();
    let engine = |check: &Check| &engines[check.mode];
    let budget = |_: &Check| limit;
    let list = CheckList { inputs: &inputs, checks, engine: &engine, budget: &budget };
    stats::reset_peak_rss();

    let untraced =
        list.run(Stop::After(run.measure()), &Tracer::new(false), Some(&mut calibration));
    let peak_rss = stats::peak_rss_mb().unwrap_or(0.0);
    let tracer = Tracer::new(run.trace);
    // A traced run repeats the same checks traced, then untraced again: the
    // second untraced pass is as warm as the traced one, so the two give the
    // tracing overhead.
    let (traced, again) = if run.trace {
        let count = Stop::Count(untraced.records.len());
        (list.run(count, &tracer, None), list.run(count, &Tracer::new(false), None))
    } else {
        (checks::Pass::default(), checks::Pass::default())
    };

    // Exact counters and the engine's overhead over the direct backend call,
    // on the fixed counter set (traced runs only).
    let mut counters = Counters::default();
    if run.trace {
        counters = count(&inputs, &counter_set, &mut outcome);
    }

    // Reference: the operational backend, after the timed phase.
    drop(pin);
    let mut pairs = list.touched(&untraced);
    pairs.extend(list.touched(&traced));
    if run.trace {
        pairs.extend(counter_set.iter().flat_map(|&i| MODELS.iter().map(move |&m| (i, m))));
    }
    let operational = |test: &gam_isa::litmus::LitmusTest, model| {
        OperationalChecker::new(model).allowed_outcomes(test).map_err(|err| err.to_string())
    };
    let reference = match checks::references(&inputs, &pairs, &operational) {
        Ok(reference) => reference,
        Err(err) => {
            outcome.failed += 1;
            outcome.note(format!("ERROR reference: {err}"));
            return outcome;
        }
    };
    checks::verify(&list, &untraced, &reference, &mut outcome);
    checks::verify(&list, &traced, &reference, &mut outcome);
    checks::verify(&list, &again, &reference, &mut outcome);
    for (&(input, model), answer) in &reference {
        if let Some(expected) = corpus.expected(&inputs[input].name, model) {
            if expected != answer.allowed {
                outcome.wrong(format!(
                    "{} under {model}: operational reference disagrees with expectations.txt",
                    inputs[input].name
                ));
            }
        }
    }
    for pass in [&untraced, &traced, &again] {
        for record in &pass.records {
            let check = &list.checks[record.check];
            let Some(expected) = corpus.expected(&inputs[check.input].name, check.model) else {
                continue;
            };
            if let Ok(verdict) = &record.verdict {
                if verdict.as_verdict().is_some_and(|v| v.is_allowed() != expected) {
                    outcome.wrong(format!(
                        "{} under {}: {verdict}, expectations.txt says allowed={expected}",
                        inputs[check.input].name, check.model
                    ));
                }
            }
        }
    }
    for (key, outcomes) in &counters.outcomes {
        if reference.get(key).is_some_and(|r| &r.outcomes != outcomes) {
            outcome.wrong(format!(
                "{} under {}: axiomatic and operational outcome sets differ",
                inputs[key.0].name, key.1
            ));
        }
    }
    outcome.attempted = [&untraced, &traced, &again].iter().map(|p| p.records.len() as u64).sum();

    if run.trace {
        let profile = Profile::of(&tracer.spans());
        let mut layers = BTreeMap::new();
        layers.insert("frontend.parse_us", profile.mean_us("frontend.parse"));
        layers.insert("frontend.canon_us", crate::canon_us(&inputs));
        layers.insert("axiomatic.busy_s", profile.busy_s("engine.check_budgeted"));
        layers.insert("axiomatic.assignments_enumerated", counters.enumerated as f64);
        layers.insert("axiomatic.assignments_concretized", counters.concretized as f64);
        layers.insert("axiomatic.orders_visited", counters.orders as f64);
        layers.insert(
            "axiomatic.outcomes_per_kilo_order",
            stats::share(counters.outcome_count as f64 * 1e3, counters.orders as f64),
        );
        layers.insert("engine.overhead_us", counters.overhead_us);
        layers.insert("engine.inconclusive", checks::inconclusive(&traced) as f64);
        layers.insert("trace.unattributed_share", profile.unattributed_share());
        layers.insert(
            "trace.overhead_share",
            stats::share(traced.wall.as_secs_f64(), again.wall.as_secs_f64()) - 1.0,
        );
        run.finish_trace(&tracer, layers, &mut outcome);
    } else {
        checks::e2e(&untraced, setup, Some(CHECK_LIMIT), &calibration, &mut outcome);
        outcome.metric("peak_rss_mb", peak_rss, "MB");
    }
    outcome
}

/// Exact counters summed over the counter set.
#[derive(Debug, Default)]
struct Counters {
    enumerated: u64,
    concretized: u64,
    orders: u64,
    outcome_count: u64,
    overhead_us: f64,
    outcomes: BTreeMap<(usize, ModelKind), BTreeSet<gam_isa::litmus::Outcome>>,
}

/// Decides every counter-set check directly through
/// `allowed_outcomes_with_stats`, then times the engine's overhead over that
/// direct call on the same checks.
fn count(inputs: &[Input], set: &[usize], outcome: &mut Outcome) -> Counters {
    let mut counters = Counters::default();
    // Each decided check, with the index of its model in MODELS.
    let mut checked: Vec<(LitmusTest, usize)> = Vec::new();
    let direct = |test: &LitmusTest, model| {
        AxiomaticChecker::new(model::by_kind(model))
            .with_interrupt(Interrupt::none().with_wall_budget(COUNTER_CAP))
            .allowed_outcomes_with_stats(test)
    };
    for &input in set {
        let Ok(test) = parse_litmus(&inputs[input].text) else { continue };
        for (mode, &model) in MODELS.iter().enumerate() {
            match direct(&test, model) {
                Ok((outcomes, stats)) => {
                    counters.enumerated += stats.assignments_enumerated;
                    counters.concretized += stats.assignments_concretized;
                    counters.orders += stats.orders_visited;
                    counters.outcome_count += outcomes.len() as u64;
                    counters.outcomes.insert((input, model), outcomes);
                    checked.push((test.clone(), mode));
                }
                Err(err) => {
                    outcome.failed += 1;
                    outcome.note(format!(
                        "ERROR counter check {} under {model} (cap {COUNTER_CAP:?}): {err}",
                        inputs[input].name
                    ));
                }
            }
        }
    }
    let budget = CheckBudget::none().with_max_wall(COUNTER_CAP);
    let engines: Vec<Engine> = MODELS.iter().map(|&m| Engine::axiomatic(m)).collect();
    counters.overhead_us = crate::engine_overhead_us(
        &checked,
        1,
        |(test, mode)| {
            let _ = std::hint::black_box(engines[*mode].check_budgeted(test, &budget));
        },
        |(test, mode)| {
            let _ = std::hint::black_box(direct(test, MODELS[*mode]));
        },
    );
    counters
}
