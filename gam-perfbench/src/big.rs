//! `big-explore`: big three-thread programs decided by the operational
//! backend under SC, TSO, GAM and GAM0 uncapped, and under SC and TSO again
//! under a memory budget below the accounted peak, spilling to disk. The
//! explorer, arena and spill do almost all the work; the axiomatic backend
//! does none. The timed checks explore on one thread ([`TIMED_THREADS`]);
//! the traced run also explores every pair with `THREADS` explorer threads
//! to count the checks that escalate to adaptive sharding.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use gam_core::ModelKind;
use gam_engine::{Backend, CheckBudget, Engine};
use gam_frontend::parse_litmus;
use gam_isa::litmus::LitmusTest;
use gam_operational::{ExplorerConfig, MemoryConfig, OperationalChecker};

use crate::calib::Calibration;
use crate::checks::{self, Check, CheckList, Stop};
use crate::inputs::{big_inputs, Corpus, Input, MODELS};
use crate::stats::{self, Outcome};
use crate::trace::{Profile, Tracer};
use crate::{Run, THREADS, TIMED_THREADS};

/// The capped budget as a share of the check's accounted peak (in percent).
/// Low enough that every capped check spills, high enough that all complete.
const BUDGET_PERCENT: usize = 85;

/// Models checked capped as well. Capped GAM and GAM0 checks take 1 to 27 s
/// each today (spilled rows are re-read again and again), so one of them
/// would fill a whole run; they join once the spill path is fixed.
const CAPPED_MODELS: [ModelKind; 2] = [ModelKind::Sc, ModelKind::Tso];

/// Mode of a check: index into the two engines of a model.
const UNCAPPED: usize = 0;
const CAPPED: usize = 1;

/// What set-up builds.
struct Setup {
    inputs: Vec<Input>,
    tests: Vec<LitmusTest>,
    /// Per model: the uncapped and the capped engine.
    engines: Vec<[Engine; 2]>,
}

/// Prints and parses the population, builds the engines, and warms each
/// engine up on the paper corpus (small programs, milliseconds in all).
fn setup(spill_dir: &Path, corpus_dir: &Path) -> Result<Setup, String> {
    let parse = |i: &Input| parse_litmus(&i.text).map_err(|err| format!("{}: {err}", i.name));
    let inputs = big_inputs();
    let tests: Vec<LitmusTest> = inputs.iter().map(parse).collect::<Result<_, _>>()?;
    let warmup: Vec<LitmusTest> =
        Corpus::load(corpus_dir)?.inputs.iter().map(parse).collect::<Result<_, _>>()?;
    let engines: Vec<[Engine; 2]> = MODELS
        .iter()
        .map(|&model| {
            let builder = Engine::builder().model(model).backend(Backend::Operational);
            [
                builder.clone().explorer_parallelism(TIMED_THREADS).build(),
                builder.explorer_spill_dir(spill_dir.to_path_buf()).build(),
            ]
            .map(|engine| engine.expect("every model has an operational machine"))
        })
        .collect();
    for test in &warmup {
        for engine in engines.iter().flatten() {
            let _ = engine.check_budgeted(test, &CheckBudget::none());
        }
    }
    Ok(Setup { inputs, tests, engines })
}

/// The accounted peak of every capped pair: one budget-armed exploration
/// with room to spare. Byte accounting is length-based, so the peaks are
/// the same on every run; they are measured once, outside `setup_s`.
fn peaks(inputs: &[Input]) -> Result<BTreeMap<(usize, ModelKind), usize>, String> {
    let mut peaks = BTreeMap::new();
    for (index, input) in inputs.iter().enumerate() {
        let test = parse_litmus(&input.text).map_err(|err| format!("{}: {err}", input.name))?;
        for model in CAPPED_MODELS {
            let roomy = MemoryConfig { max_bytes: Some(usize::MAX / 4), ..MemoryConfig::default() };
            let exploration = OperationalChecker::new(model)
                .with_memory(roomy)
                .explore(&test)
                .map_err(|err| format!("peak of {}: {err}", input.name))?;
            peaks.insert((index, model), exploration.memory.map_or(0, |m| m.peak_bytes));
        }
    }
    Ok(peaks)
}

/// Runs the workload.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let spill_dir = run.tmp.join("spill");
    let pin = stats::OneCpu::pin();
    let mut calibration = Calibration::start();
    let prepared = peaks(&big_inputs()).and_then(|peaks| {
        crate::median_setup(&mut calibration, |_| setup(&spill_dir, &run.corpus_dir), drop)
            .map(|setup| (peaks, setup))
    });
    let (peaks, (Setup { inputs, tests, engines }, setup)) = match prepared {
        Ok(done) => done,
        Err(err) => {
            outcome.failed += 1;
            outcome.note(format!("ERROR set-up: {err}"));
            return outcome;
        }
    };
    let mut checks = Vec::new();
    for input in 0..inputs.len() {
        for (m, &model) in MODELS.iter().enumerate() {
            checks.push(Check { input, model, mode: m * 2 + UNCAPPED });
            if CAPPED_MODELS.contains(&model) {
                checks.push(Check { input, model, mode: m * 2 + CAPPED });
            }
        }
    }
    let engine = |check: &Check| &engines[check.mode / 2][check.mode % 2];
    let budget = |check: &Check| {
        if check.mode % 2 == CAPPED {
            CheckBudget::none()
                .with_max_bytes(peaks[&(check.input, check.model)] * BUDGET_PERCENT / 100)
        } else {
            CheckBudget::none()
        }
    };
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

    // Reference: the axiomatic backend, after the timed phase.
    drop(pin);
    let mut pairs = list.touched(&untraced);
    pairs.extend(list.touched(&traced));
    if run.trace {
        pairs.extend((0..inputs.len()).flat_map(|i| MODELS.iter().map(move |&m| (i, m))));
    }
    let axiomatic = |test: &LitmusTest, model| {
        Engine::axiomatic(model).allowed_outcomes(test).map_err(|err| err.to_string())
    };
    let reference = match checks::references(&inputs, &pairs, &axiomatic) {
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
    outcome.attempted = [&untraced, &traced, &again].iter().map(|p| p.records.len() as u64).sum();

    if run.trace {
        let mut layers = count(&inputs, &tests, &peaks, &spill_dir, &reference, &mut outcome);
        let profile = Profile::of(&tracer.spans());
        layers.insert("frontend.parse_us", profile.mean_us("frontend.parse"));
        layers.insert("frontend.canon_us", crate::canon_us(&inputs));
        layers.insert("operational.busy_s", profile.busy_s("engine.check_budgeted"));
        layers.insert("engine.inconclusive", checks::inconclusive(&traced) as f64);
        layers.insert("trace.unattributed_share", profile.unattributed_share());
        layers.insert(
            "trace.overhead_share",
            stats::share(traced.wall.as_secs_f64(), again.wall.as_secs_f64()) - 1.0,
        );
        run.finish_trace(&tracer, layers, &mut outcome);
    } else {
        checks::e2e(&untraced, setup, None, &calibration, &mut outcome);
        outcome.metric("peak_rss_mb", peak_rss, "MB");
    }
    outcome
}

/// Explores every (program, model) pair of the population directly, so the
/// exact counters cover the same work on every run whatever the timing:
/// sequentially (states, arena), with `THREADS` workers (did it shard?), and
/// capped with spill (spill counters). Outcome sets are compared with the
/// axiomatic reference.
fn count(
    inputs: &[Input],
    tests: &[LitmusTest],
    peaks: &BTreeMap<(usize, ModelKind), usize>,
    spill_dir: &Path,
    reference: &BTreeMap<(usize, ModelKind), checks::Reference>,
    outcome: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let mut sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, value: usize| *sum.entry(name).or_default() += value as f64;
    let mut direct_wall = Duration::ZERO;
    for (index, test) in tests.iter().enumerate() {
        for model in MODELS {
            let expected = &reference[&(index, model)].outcomes;
            let name = &inputs[index].name;
            let began = Instant::now();
            let sequential = OperationalChecker::new(model).explore(test);
            let direct = began.elapsed();
            let sharded = OperationalChecker::with_config(
                model,
                ExplorerConfig { parallelism: THREADS, ..ExplorerConfig::default() },
            )
            .explore(test);
            let capped = peaks
                .get(&(index, model))
                .map(|peak| {
                    let memory = MemoryConfig {
                        max_bytes: Some(peak * BUDGET_PERCENT / 100),
                        spill_dir: Some(spill_dir.to_path_buf()),
                        ..MemoryConfig::default()
                    };
                    OperationalChecker::new(model).with_memory(memory).explore(test)
                })
                .transpose();
            match (sequential, sharded, capped) {
                (Ok(seq), Ok(par), Ok(cap)) => {
                    let mut sets = vec![("sequential", &seq.outcomes), ("sharded", &par.outcomes)];
                    sets.extend(cap.as_ref().map(|cap| ("capped", &cap.outcomes)));
                    for (how, outcomes) in sets {
                        if outcomes != expected {
                            outcome.wrong(format!(
                                "{name} under {model}: {how} outcome set differs from axiomatic"
                            ));
                        }
                    }
                    direct_wall += direct;
                    add("operational.states", seq.states_visited);
                    add("operational.final_states", seq.final_states);
                    add("operational.transitions_pruned", seq.transitions_pruned);
                    let arena = seq.arena.unwrap_or_default();
                    add(
                        "operational.distinct_components",
                        arena.distinct_memories + arena.distinct_procs,
                    );
                    add("operational.interned_bytes", arena.interned_bytes);
                    add(
                        "operational.peak_accounted_bytes",
                        peaks.get(&(index, model)).copied().unwrap_or(0),
                    );
                    let spill = cap.and_then(|cap| cap.memory).unwrap_or_default();
                    add("operational.spilled_bytes", spill.spilled_bytes);
                    add("operational.spill_segments", spill.spill_segments);
                    add("operational.sleep_flushes", spill.sleep_flushes);
                    add("operational.sharded_checks", usize::from(par.arena.is_none()));
                }
                (seq, par, cap) => {
                    outcome.failed += 1;
                    let errors = [
                        seq.err().map(|e| e.to_string()),
                        par.err().map(|e| e.to_string()),
                        cap.err().map(|e| e.to_string()),
                    ];
                    outcome.note(format!("ERROR counters of {name} under {model}: {errors:?}"));
                }
            }
        }
    }
    let states = sum.get("operational.states").copied().unwrap_or(0.0);
    sum.insert("operational.states_per_s", stats::share(states, direct_wall.as_secs_f64()));
    // On the SC checks, the cheapest, where run-to-run noise hides the
    // overhead least.
    let engine = Engine::operational(ModelKind::Sc).expect("SC has an operational machine");
    let checker = OperationalChecker::new(ModelKind::Sc);
    let overhead = crate::engine_overhead_us(
        tests,
        OVERHEAD_ROUNDS,
        |test| {
            let _ = std::hint::black_box(engine.check_budgeted(test, &CheckBudget::none()));
        },
        |test| {
            let _ = std::hint::black_box(checker.explore(test));
        },
    );
    sum.insert("engine.overhead_us", overhead);
    sum
}

/// Passes through the population for `engine.overhead_us`.
const OVERHEAD_ROUNDS: usize = 10;
