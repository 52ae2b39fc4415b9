//! `serve-mixed`: an in-process `gam serve` (port 0, cache and journal in the
//! run's scratch directory, `TIMED_THREADS` workers) fed a seeded stream over
//! HTTP.
//! Fresh programs miss and run the engine and a journal insert; renamed
//! variants of recent programs hit through the canonicalizer and exact
//! repeats of recent requests hit, while their entries are cached. The
//! stream's distinct programs outnumber the cache capacity, so eviction runs.
//!
//! Today the cache evicts the entry that was cheapest to compute, and a new
//! entry is usually the cheapest, so once the cache is full almost every
//! request misses (about 3% of results hit). The hit and miss latencies of
//! the traced run therefore come from a probe on a second server after the
//! stream: each probe text is sent twice, a miss and then a hit.
//!
//! The end-to-end metrics come from a closed loop with `TIMED_THREADS`
//! connections, each sending its next request as soon as the previous one is
//! answered, so one request is in flight at a time and the process CPU time
//! spent while it is in flight (client, acceptor and worker) is its cost.
//! They are CPU times: on a shared 2-vCPU host, wall-clock request rates of
//! the same code moved by 40% between runs (time given to other guests, and
//! threads that wake slowly and unevenly). The closed loop's wall-clock rate
//! is the server's capacity, noted with its wall p50. A traced run adds an
//! open loop at [`OPEN_FRACTION`] of that capacity, timing each request from
//! when it was due; the run notes its p50 and p99 and reports how late the
//! generator sent.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gam_core::ModelKind;
use gam_engine::{CheckBudget, Engine};
use gam_frontend::parse_litmus;
use gam_operational::OperationalChecker;
use gam_serve::{ServeConfig, Server};

use crate::calib::Calibration;
use crate::checks::{self, Reference};
use crate::client;
use crate::inputs::{Input, Kind, Request, ServeStream, MODELS};
use crate::stats::{self, Outcome};
use crate::trace::{Profile, Tracer};
use crate::{Run, TIMED_THREADS};

/// Open-loop send rate as a share of the closed-loop rate (the capacity)
/// that the run's untraced phase measured: half, well below saturation.
pub const OPEN_FRACTION: f64 = 0.5;

/// Warm-up programs sent in set-up. At four cache entries each (one per
/// model) they fill a quarter of [`CACHE_CAPACITY`].
const WARMUP_PROGRAMS: usize = 16;

/// Texts sent twice by the hit/miss probe.
const PROBE_TEXTS: usize = 200;

/// Share of a traced phase spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.5;

/// Requests per window: closed-loop throughput and latency are medians over
/// windows of this many consecutive requests, so a burst of outside load
/// moves one window, not the result.
const WINDOW: usize = 200;

/// Request records reserved per second of a phase, well above the rate.
const RESERVED_PER_SECOND: usize = 20_000;

/// Cache capacity: well below the stream's distinct programs.
pub const CACHE_CAPACITY: usize = 256;

/// The tail quantile of closed-loop latency: p90, since a p99 moves with
/// every burst of outside load.
const TAIL: f64 = 0.9;

/// The body of a `/check` request: the text under all four models, on the
/// default (operational) backend, so a request does the work of four checks.
fn envelope(text: &str) -> String {
    format!(
        "{{\"litmus\":{},\"models\":[\"sc\",\"tso\",\"gam\",\"gam0\"]}}",
        client::json_string(text)
    )
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    kind: Kind,
    /// The stream request whose text was sent. Texts are made again from the
    /// seed after the run, so a run does not hold one per request: peak RSS
    /// then grew with the request count, and so with the machine's speed.
    id: usize,
    /// Open loop: when it was due. Closed loop: when it was sent.
    due: Instant,
    /// What latency is timed from: the due time when the sender was still
    /// busy with its previous request at that time (the system made it
    /// late), else the send time (sleep overshoot is the generator's own lag,
    /// reported as `client.gen_lag_p99_ms`).
    start: Instant,
    sent: Instant,
    done: Instant,
    /// Process CPU time from send to answer.
    cpu: Duration,
    open: bool,
    connect: Duration,
    /// Per model of [`MODELS`], whether the answer said allowed; `None`
    /// unless the answer was a 200 with a verdict for each.
    allowed: Option<[bool; MODELS.len()]>,
    /// Results answered from the cache (0 to 4).
    cached: usize,
    /// Status and body of an answer without a verdict.
    error: Option<String>,
}

/// Requests of one phase (an optional open loop, then a closed loop).
#[derive(Debug, Default)]
struct Phase {
    sent: Vec<Sent>,
}

impl Phase {
    /// Open-loop latencies.
    fn open_latencies(&self) -> Vec<f64> {
        self.sent.iter().filter(|s| s.open).map(|s| stats::ms(s.done - s.start)).collect()
    }

    /// Closed-loop requests in completion order.
    fn closed(&self) -> Vec<&Sent> {
        let mut closed: Vec<&Sent> = self.sent.iter().filter(|s| !s.open).collect();
        closed.sort_by_key(|s| s.done);
        closed
    }

    /// Median over windows of [`WINDOW`] consecutive closed-loop
    /// completions of the window's wall-clock rate: the server's capacity.
    fn closed_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .closed()
            .chunks_exact(WINDOW)
            .map(|w| {
                stats::share((WINDOW - 1) as f64, (w[WINDOW - 1].done - w[0].done).as_secs_f64())
            })
            .collect();
        stats::quantile(&rates, 0.5)
    }

    /// Median over windows of [`WINDOW`] consecutive closed-loop requests of
    /// the window's requests per second of `cost`.
    fn closed_cpu_rate(&self, cost: impl Fn(&Sent) -> Duration) -> f64 {
        let rates: Vec<f64> = self
            .closed()
            .chunks_exact(WINDOW)
            .map(|w| stats::share(WINDOW as f64, w.iter().map(|s| cost(s).as_secs_f64()).sum()))
            .collect();
        stats::quantile(&rates, 0.5)
    }

    /// Median over windows of [`WINDOW`] consecutive closed-loop requests of
    /// the window's `q`-quantile of `cost`, in milliseconds.
    fn closed_quantile(&self, q: f64, cost: impl Fn(&Sent) -> Duration) -> f64 {
        let per_window: Vec<f64> = self
            .closed()
            .chunks(WINDOW)
            .map(|w| stats::quantile(&w.iter().map(|s| stats::ms(cost(s))).collect::<Vec<_>>(), q))
            .collect();
        stats::quantile(&per_window, 0.5)
    }
}

/// Starts a server on its own cache file and warms it up with requests
/// disjoint from the stream, one at a time.
fn setup(run: &Run, attempt: usize, warmup: &[Input]) -> Result<Server, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: TIMED_THREADS,
        cache_path: run.tmp.join(format!("cache-{attempt}.json")),
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    };
    let (server, _) = Server::start(&config).map_err(|err| format!("serve start: {err}"))?;
    let addr = server.local_addr();
    let failure = warmup.iter().find_map(|input| {
        let body = envelope(&input.text);
        let reply = client::send(addr, "POST", "/check", &body, &Tracer::new(false), None, 0);
        (reply.status != 200).then(|| format!("{} {}", reply.status, reply.body))
    });
    match failure {
        Some(err) => {
            server.shutdown();
            Err(format!("warm-up: {err}"))
        }
        None => Ok(server),
    }
}

/// Runs the workload.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let stream = Mutex::new(ServeStream::new(run.seed));
    let warmup = stream.lock().expect("stream lock").warmup(WARMUP_PROGRAMS);
    let pin = stats::OneCpu::pin();
    let mut calibration = Calibration::start();
    let (server, setup) = match crate::median_setup(
        &mut calibration,
        |attempt| setup(run, attempt, &warmup),
        Server::shutdown,
    ) {
        Ok(done) => done,
        Err(err) => {
            outcome.failed += 1;
            outcome.note(format!("ERROR set-up: {err}"));
            return outcome;
        }
    };
    let addr = server.local_addr();
    let off = Tracer::new(false);
    stats::reset_peak_rss();

    let calibration = Mutex::new(calibration);
    let untraced = phase(addr, &stream, run.measure(), (0.0, 0.0), (&off, Some(&calibration)));
    let peak_rss = stats::peak_rss_mb().unwrap_or(0.0);
    let capacity = untraced.closed_rate();
    let open_rate = OPEN_FRACTION * capacity;
    let tracer = Tracer::new(run.trace);
    let before = metrics(addr);
    let traced = if run.trace {
        phase(addr, &stream, run.measure(), (OPEN_SHARE, open_rate), (&tracer, None))
    } else {
        Phase::default()
    };
    let after = metrics(addr);
    server.shutdown();
    drop(pin);
    let mut replay = ServeStream::new(run.seed);
    let sent_count = stream.lock().expect("stream lock").sent_count();
    let texts: Vec<Arc<str>> = (0..sent_count).map(|_| replay.next_request().input.text).collect();
    let probed = if run.trace {
        let fresh = traced.sent.iter().filter(|s| s.kind == Kind::Fresh).take(PROBE_TEXTS);
        match probe(run, &texts, &fresh.map(|s| s.id).collect::<Vec<_>>()) {
            Ok(probed) => probed,
            Err(err) => {
                outcome.failed += 1;
                outcome.note(format!("ERROR probe: {err}"));
                return outcome;
            }
        }
    } else {
        Vec::new()
    };
    let all = || untraced.sent.iter().chain(&traced.sent).chain(&probed);

    // Reference: an in-process engine on every distinct text, afterwards.
    let mut distinct: HashMap<Arc<str>, usize> = HashMap::new();
    let mut inputs: Vec<Input> = Vec::new();
    for sent in all() {
        distinct.entry(Arc::clone(&texts[sent.id])).or_insert_with(|| {
            inputs.push(Input {
                name: format!("request text {}", inputs.len()),
                text: Arc::clone(&texts[sent.id]),
            });
            inputs.len() - 1
        });
    }
    let pairs = (0..inputs.len()).flat_map(|i| MODELS.iter().map(move |&m| (i, m))).collect();
    let engine = |test: &gam_isa::litmus::LitmusTest, model| {
        Engine::operational(model)
            .and_then(|engine| engine.allowed_outcomes(test))
            .map_err(|err| err.to_string())
    };
    let reference = match checks::references(&inputs, &pairs, &engine) {
        Ok(reference) => reference,
        Err(err) => {
            outcome.failed += 1;
            outcome.note(format!("ERROR reference: {err}"));
            return outcome;
        }
    };
    for sent in all() {
        match (&sent.allowed, &sent.error) {
            (Some(allowed), _) => {
                for (&allowed, model) in allowed.iter().zip(MODELS) {
                    let expected: &Reference = &reference[&(distinct[&texts[sent.id]], model)];
                    if allowed != expected.allowed {
                        outcome.wrong(format!(
                            "{:?} request answered allowed={allowed} under {model}",
                            sent.kind
                        ));
                    }
                }
            }
            (None, error) => {
                outcome.failed += 1;
                outcome.note(format!("ERROR request: {}", error.as_deref().unwrap_or("")));
            }
        }
    }
    outcome.attempted = all().count() as u64;

    if run.trace {
        let profile = Profile::of(&tracer.spans());
        // A probe hit answers all four models from the cache; a probe miss
        // answers none.
        let probe_latencies = |kind: Kind, cached: usize| -> Vec<f64> {
            let probes = probed.iter().filter(|s| s.kind == kind && s.cached == cached);
            probes.map(|s| stats::ms(s.done - s.sent)).collect()
        };
        let hits = probe_latencies(Kind::Repeat, MODELS.len());
        let misses = probe_latencies(Kind::Fresh, 0);
        let results = |sent: &[&Sent]| (sent.len() * MODELS.len()) as f64;
        let cached = |sent: &[&Sent]| sent.iter().map(|s| s.cached).sum::<usize>() as f64;
        let answered: Vec<&Sent> = traced.sent.iter().filter(|s| s.allowed.is_some()).collect();
        let variants: Vec<&Sent> =
            answered.iter().copied().filter(|s| s.kind == Kind::Variant).collect();
        let connect: Vec<f64> = traced.sent.iter().map(|s| stats::us(s.connect)).collect();
        let lag: Vec<f64> =
            traced.sent.iter().filter(|s| s.open).map(|s| stats::ms(s.sent - s.due)).collect();
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0) as f64
                - before.get(key).copied().unwrap_or(0) as f64
        };
        let texts: Vec<Input> = inputs.iter().take(200).cloned().collect();
        let mut layers = BTreeMap::new();
        layers.insert("frontend.parse_us", crate::parse_us(&texts));
        layers.insert("frontend.canon_us", crate::canon_us(&texts));
        layers.insert("engine.overhead_us", engine_overhead_us(&texts));
        let open = traced.open_latencies();
        outcome.notes.push(format!(
            "closed-loop capacity {capacity:.0} requests/s; open loop at {open_rate:.0}/s: \
             p50 {:.3} ms, p99 {:.3} ms from due time; probe: {} misses, {} hits",
            stats::quantile(&open, 0.5),
            stats::quantile(&open, 0.99),
            misses.len(),
            hits.len()
        ));
        layers.insert("serve.connect_us_p50", stats::quantile(&connect, 0.5));
        layers.insert("serve.hit_p50_ms", stats::quantile(&hits, 0.5));
        layers.insert("serve.hit_p99_ms", stats::quantile(&hits, 0.99));
        layers.insert("serve.hit_rate", stats::share(cached(&answered), results(&answered)));
        layers
            .insert("serve.variant_hit_share", stats::share(cached(&variants), results(&variants)));
        layers.insert("serve.miss_p50_ms", stats::quantile(&misses, 0.5));
        layers.insert("serve.miss_p99_ms", stats::quantile(&misses, 0.99));
        layers.insert("serve.evictions", delta("cache_evictions"));
        layers.insert("serve.journal_appends", delta("journal_appends_total"));
        layers.insert("serve.shed", delta("shed_total"));
        layers.insert("serve.timeouts", delta("timeouts_total"));
        layers.insert("client.gen_lag_p99_ms", stats::quantile(&lag, 0.99));
        layers.insert("trace.unattributed_share", profile.unattributed_share());
        layers.insert(
            "trace.overhead_share",
            stats::share(untraced.closed_rate(), traced.closed_rate()) - 1.0,
        );
        run.finish_trace(&tracer, layers, &mut outcome);
    } else {
        let decided = untraced.sent.iter().filter(|s| s.allowed.is_some()).count();
        let calibration = calibration.into_inner().expect("calibration lock");
        let scale = calibration.scale();
        outcome.notes.push(format!(
            "unscaled wall time: {capacity:.1} requests/s, p50 {:.4} ms; reference work \
             {:.1} us over {} samples, scale {scale:.3}",
            untraced.closed_quantile(0.5, |s| s.done - s.sent),
            stats::us(calibration.median()),
            calibration.samples()
        ));

        let cpu = |s: &Sent| s.cpu.mul_f64(scale);
        outcome.metric("setup_s", setup.as_secs_f64(), "s");
        outcome.metric("throughput_per_cpu_s", untraced.closed_cpu_rate(cpu), "1/s");
        outcome.metric("cpu_p50_ms", untraced.closed_quantile(0.5, cpu), "ms");
        outcome.metric("cpu_p90_ms", untraced.closed_quantile(TAIL, cpu), "ms");
        outcome.metric(
            "decided_share",
            stats::share(decided as f64, untraced.sent.len() as f64),
            "ratio",
        );
        outcome.metric("peak_rss_mb", peak_rss, "MB");
        outcome.notes.push(format!(
            "{} requests, {} distinct programs",
            untraced.sent.len(),
            stream.lock().expect("stream lock").distinct_programs()
        ));
    }
    outcome
}

/// The hit/miss probe: a second server with room for every text, so
/// nothing is evicted, and each text sent twice over one connection at a
/// time. The first send is marked `Fresh` (a miss unless an earlier text was
/// the same program renamed), the second `Repeat` (a hit).
fn probe(run: &Run, texts: &[Arc<str>], ids: &[usize]) -> Result<Vec<Sent>, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: TIMED_THREADS,
        cache_path: run.tmp.join("cache-probe.json"),
        cache_capacity: ids.len().max(1) * MODELS.len(),
        ..ServeConfig::default()
    };
    let (server, _) = Server::start(&config).map_err(|err| format!("probe start: {err}"))?;
    let mut probed = Vec::with_capacity(ids.len() * 2);
    for kind in [Kind::Fresh, Kind::Repeat] {
        for &id in ids {
            let input = Input { name: format!("probe {id}"), text: Arc::clone(&texts[id]) };
            let request = Request { id, kind, program: id, input };
            probed.push(exchange(server.local_addr(), &request, None, &Tracer::new(false)));
        }
    }
    server.shutdown();
    Ok(probed)
}

/// One phase, `wall` long in total, of which `open_share` in the open loop
/// at `open_rate` requests per second, continuing the stream where it
/// stands. A `calibration` samples the machine's speed between closed-loop
/// requests.
fn phase(
    addr: SocketAddr,
    stream: &Mutex<ServeStream>,
    wall: Duration,
    (open_share, open_rate): (f64, f64),
    (tracer, calibration): (&Tracer, Option<&Mutex<Calibration>>),
) -> Phase {
    // Reserved, not touched: growing the vector would copy it, and peak RSS
    // would jump with the request count.
    let sent = Mutex::new(Vec::with_capacity(wall.as_secs() as usize * RESERVED_PER_SECOND));
    let start = Instant::now();
    let first = stream.lock().expect("stream lock").sent_count();
    let open_requests = (wall.mul_f64(open_share).as_secs_f64() * open_rate) as usize;
    // Open loop: request k of the phase is due at start + k / open_rate.
    std::thread::scope(|scope| {
        for _ in 0..TIMED_THREADS {
            scope.spawn(|| loop {
                let request = {
                    let mut stream = stream.lock().expect("stream lock");
                    if stream.sent_count() - first >= open_requests {
                        break;
                    }
                    stream.next_request()
                };
                let due = start + Duration::from_secs_f64((request.id - first) as f64 / open_rate);
                let wait = due.checked_duration_since(Instant::now());
                if let Some(wait) = wait {
                    std::thread::sleep(wait);
                }
                let record = exchange(addr, &request, Some((due, wait.is_none())), tracer);
                sent.lock().expect("record lock").push(record);
            });
        }
    });
    // Closed loop: each connection sends its next request as soon as the
    // previous one is answered.
    let closed_start = Instant::now();
    let closed_end = closed_start + wall.mul_f64(1.0 - open_share);
    std::thread::scope(|scope| {
        for _ in 0..TIMED_THREADS {
            scope.spawn(|| {
                while Instant::now() < closed_end {
                    let request = stream.lock().expect("stream lock").next_request();
                    let record = exchange(addr, &request, None, tracer);
                    sent.lock().expect("record lock").push(record);
                    if let Some(calibration) = calibration {
                        calibration.lock().expect("calibration lock").tick();
                    }
                }
            });
        }
    });
    Phase { sent: sent.into_inner().expect("record lock") }
}

/// Sends one request. An open-loop request carries its due time and whether
/// its sender was still busy when it fell due.
fn exchange(
    addr: SocketAddr,
    request: &Request,
    open_loop: Option<(Instant, bool)>,
    tracer: &Tracer,
) -> Sent {
    let root = tracer.open("request", None, request.id);
    let cpu_began = stats::process_cpu();
    let sent = Instant::now();
    let (due, start) = match open_loop {
        Some((due, true)) => (due, due),
        Some((due, false)) => (due, sent),
        None => (sent, sent),
    };
    let body = envelope(&request.input.text);
    let reply = client::send(addr, "POST", "/check", &body, tracer, root, request.id);
    let done = Instant::now();
    let cpu = stats::process_cpu().saturating_sub(cpu_began);
    tracer.close(root);
    let verdicts = reply.verdicts();
    let allowed = (reply.status == 200 && verdicts.len() == MODELS.len())
        .then(|| {
            verdicts
                .iter()
                .map(|v| match *v {
                    "allowed" => Some(true),
                    "forbidden" => Some(false),
                    _ => None,
                })
                .collect::<Option<Vec<bool>>>()
        })
        .flatten()
        .and_then(|allowed| allowed.try_into().ok());
    let error = allowed.is_none().then(|| format!("status {}: {}", reply.status, reply.body));
    Sent {
        kind: request.kind,
        id: request.id,
        due,
        start,
        sent,
        done,
        cpu,
        open: open_loop.is_some(),
        connect: reply.connect,
        allowed,
        cached: reply.cached(),
        error,
    }
}

/// The integer fields of `/metrics`.
fn metrics(addr: SocketAddr) -> BTreeMap<String, u64> {
    let reply = client::send(addr, "GET", "/metrics", "", &Tracer::new(false), None, 0);
    ["cache_evictions", "journal_appends_total", "shed_total", "timeouts_total"]
        .iter()
        .filter_map(|&key| reply.uint(key).map(|value| (key.to_string(), value)))
        .collect()
}

/// `engine.overhead_us` over the texts under GAM, two passes, so each text
/// runs once with either call first.
fn engine_overhead_us(texts: &[Input]) -> f64 {
    let engine = Engine::operational(ModelKind::Gam).expect("GAM has an operational machine");
    let checker = OperationalChecker::new(ModelKind::Gam);
    let tests: Vec<_> = texts.iter().filter_map(|input| parse_litmus(&input.text).ok()).collect();
    crate::engine_overhead_us(
        &tests,
        2,
        |test| {
            let _ = std::hint::black_box(engine.check_budgeted(test, &CheckBudget::none()));
        },
        |test| {
            let _ = std::hint::black_box(checker.explore(test));
        },
    )
}
