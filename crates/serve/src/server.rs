//! The `gam serve` HTTP service: a fixed worker pool draining a bounded
//! queue of connections, four endpoints, and the canonicalizing outcome
//! cache in front of the checker stack.
//!
//! * `GET  /healthz` — liveness probe.
//! * `GET  /metrics` — counters: requests, checks, hit rate, states/sec,
//!   queue depth, evictions, per-model counts.
//! * `POST /check`   — one test (raw `.litmus` text, or a JSON envelope
//!   with per-request models/backends/budget); answered from the cache
//!   keyed by the canonical hash whenever possible.
//! * `POST /batch`   — many tests; cache misses are fanned out through the
//!   engine's adaptive suite scheduler ([`Engine::run_suite_verdicts`]).
//! * `POST /shutdown` — graceful drain: the CLI observes the request, stops
//!   accepting, drains in-flight work and persists the cache.
//!
//! Overload is handled in two stages. Under sustained pressure (standing
//! queue at least half the configured depth) the service first *degrades*:
//! per-request wall budgets are tightened to [`ServeConfig::overload_wall_ms`]
//! so expensive checks come back `inconclusive` quickly instead of growing
//! the queue. Only when the queue is actually full does the acceptor *shed*
//! with `503` + `Retry-After` (which the in-tree client retries with
//! backoff), so latency stays bounded until a streaming API lands (ROADMAP
//! item 5).
//!
//! Persistence is write-ahead journaled ([`crate::journal`]): every cache
//! mutation appends one CRC-framed record, periodically folded into the
//! JSON snapshot — `kill -9` loses at most the in-flight record.
//!
//! Robustness contract: every check runs panic-isolated (a panicking checker
//! becomes a typed error row and a `panics_total` tick, never a dead
//! worker); requests carrying `budget_states`/`budget_wall_ms` that exhaust
//! their budget get an `inconclusive` row with partial outcomes; slow
//! clients hit server-side socket timeouts (`408`) instead of wedging the
//! pool.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gam_core::{ModelKind, StopReason};
use gam_engine::{Backend, CheckBudget, Engine, EngineError, Json, SessionVerdict};
use gam_frontend::{canonical_hash, parse_litmus};
use gam_isa::litmus::LitmusTest;
use gam_obs::metrics::{Counter, Histogram, Registry};
use gam_obs::trace;
use gam_operational::{ExplorerConfig, OperationalChecker};

use crate::cache::{CacheEntry, OutcomeCache};
use crate::http::{read_request, write_response, Request};
use crate::journal::JournaledCache;

/// Schema identifier of the `/metrics` document. The `/v2` document is a
/// strict superset of `/v1`: every v1 field keeps its name and meaning; the
/// additions (`warnings_total`, `slow_requests_total`, per-endpoint
/// `latency_us`) are new keys only. `/v3` is additive over `/v2` in the same
/// way: `memory_resident_bytes`, `memory_tightened_total` and
/// `memory_budget_stops_total` are new keys only.
pub const METRICS_SCHEMA: &str = "gam-serve-metrics/v3";

/// Schema identifier of the `GET /debug/slow` document.
pub const SLOW_LOG_SCHEMA: &str = "gam-serve-slow/v1";

/// Bound of the in-memory slow-request log served at `GET /debug/slow`.
const SLOW_LOG_CAPACITY: usize = 64;

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bound of the pending-connection queue; beyond it requests are shed
    /// with `503 Service Unavailable` + `Retry-After`.
    pub queue_depth: usize,
    /// Path of the persistent cache file.
    pub cache_path: PathBuf,
    /// Maximum number of cache entries before cost-based eviction.
    pub cache_capacity: usize,
    /// Server-side socket read timeout: the longest a worker waits for a
    /// slow (or half-open) client to deliver its request before answering
    /// `408 Request Timeout` and moving on.
    pub read_timeout: Duration,
    /// Server-side socket write timeout: the longest a worker blocks
    /// writing a response to a client that stopped reading.
    pub write_timeout: Duration,
    /// Journal records between compactions (folding the write-ahead journal
    /// into the snapshot).
    pub compact_every: u64,
    /// Wall budget (ms) imposed on checks while the service is overloaded
    /// (standing queue ≥ half [`ServeConfig::queue_depth`]) — the degrade
    /// stage before shedding. Generous enough that ordinary litmus checks
    /// still conclude; only state-explosion outliers are cut short.
    pub overload_wall_ms: u64,
    /// Requests slower than this land in the bounded in-memory slow-request
    /// log exposed at `GET /debug/slow`.
    pub slow_threshold: Duration,
    /// Process resident-set watermark (bytes). While the service's RSS is at
    /// or above it, each request's explorer memory budget is clamped to
    /// [`ServeConfig::overload_mem_bytes`] — the memory analogue of the
    /// overload wall clamp, degrading before the acceptor has to shed.
    /// `0` disables the watermark.
    pub mem_watermark_bytes: u64,
    /// Accounted-byte explorer budget imposed on checks while the service is
    /// over [`ServeConfig::mem_watermark_bytes`]. Generous enough that
    /// ordinary litmus checks still conclude; only state-explosion outliers
    /// come back `inconclusive` (memory budget) instead of growing the RSS.
    pub overload_mem_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7117".to_string(),
            workers: thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
            queue_depth: 64,
            cache_path: PathBuf::from("gam-serve-cache.json"),
            cache_capacity: 4096,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            compact_every: crate::journal::DEFAULT_COMPACT_EVERY,
            overload_wall_ms: 2_000,
            slow_threshold: Duration::from_millis(100),
            mem_watermark_bytes: 0,
            overload_mem_bytes: 64 << 20,
        }
    }
}

/// Startup failures.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind the requested address.
    Bind {
        /// The address that failed to bind.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The service's request endpoints, as latency-histogram labels.
const ENDPOINTS: [&str; 6] = ["healthz", "metrics", "check", "batch", "shutdown", "other"];

/// Service counters, shared across workers — handles into the server's own
/// [`Registry`] (per-server, so concurrent servers in one process never mix
/// counts). Everything is monotonic except `queue_depth`, which is sampled
/// from the live queue at render time. `/metrics` renders the registry as
/// JSON; `/metrics?format=prometheus` renders it as Prometheus text.
#[derive(Debug)]
struct Metrics {
    registry: Registry,
    requests_total: Counter,
    checks_total: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    shed_total: Counter,
    states_total: Counter,
    wall_us_total: Counter,
    /// Checks that ended inconclusive (budget exhausted or cancelled).
    /// Invariant: `checks_total == cache_hits + cache_misses +
    /// inconclusive_total + panics_total` — inconclusive and panicked
    /// checks count as checks but never as hits or misses (and are never
    /// cached).
    inconclusive_total: Counter,
    /// Checks whose checker panicked; the panic was caught, the worker
    /// survived, and the client got a typed error row.
    panics_total: Counter,
    /// Wall-budget-exhausted checks plus request reads that hit the
    /// server-side socket timeout.
    timeouts_total: Counter,
    /// Checks stopped by cancellation.
    cancelled_total: Counter,
    /// Requests whose budgets were tightened because the service was
    /// overloaded (the degrade stage before shedding).
    overload_tightened_total: Counter,
    /// Requests whose explorer memory budget was tightened because the
    /// process RSS was at or over the configured watermark.
    memory_tightened_total: Counter,
    /// Checks stopped by a memory budget (their inconclusive rows are never
    /// cached — a bigger budget could still conclude them).
    memory_budget_stops_total: Counter,
    /// Process resident-set size, sampled whenever admission control or a
    /// `/metrics` render reads it.
    memory_resident_bytes: gam_obs::metrics::Gauge,
    /// Warnings this server emitted through the `gam_obs::warn!` path.
    warnings_total: Counter,
    /// Requests that exceeded [`ServeConfig::slow_threshold`].
    slow_requests_total: Counter,
    /// Responses that could not be written back (the client went away or
    /// the write timed out). Registry-only: rendered by the Prometheus
    /// format, not part of the JSON document.
    write_errors_total: Counter,
    per_model: [Counter; ModelKind::ALL.len()],
    /// Per-endpoint request latency, microseconds.
    latency: [Histogram; ENDPOINTS.len()],
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        let counter = |name: &str| registry.counter(name);
        Metrics {
            requests_total: counter("serve.requests_total"),
            checks_total: counter("serve.checks_total"),
            cache_hits: counter("serve.cache_hits"),
            cache_misses: counter("serve.cache_misses"),
            shed_total: counter("serve.shed_total"),
            states_total: counter("serve.states_total"),
            wall_us_total: counter("serve.wall_us_total"),
            inconclusive_total: counter("serve.inconclusive_total"),
            panics_total: counter("serve.panics_total"),
            timeouts_total: counter("serve.timeouts_total"),
            cancelled_total: counter("serve.cancelled_total"),
            overload_tightened_total: counter("serve.overload_tightened_total"),
            memory_tightened_total: counter("serve.memory_tightened_total"),
            memory_budget_stops_total: counter("serve.memory_budget_stops_total"),
            memory_resident_bytes: registry.gauge("serve.memory_resident_bytes"),
            warnings_total: counter("serve.warnings_total"),
            slow_requests_total: counter("serve.slow_requests_total"),
            write_errors_total: counter("serve.write_errors_total"),
            per_model: std::array::from_fn(|i| {
                registry.counter(&format!("serve.checks.{}", model_name(ModelKind::ALL[i])))
            }),
            latency: std::array::from_fn(|i| {
                registry.histogram(&format!("serve.latency.{}.us", ENDPOINTS[i]))
            }),
            registry,
        }
    }

    fn record_hit(&self, model: ModelKind) {
        self.checks_total.inc();
        self.cache_hits.inc();
        self.bump_model(model);
    }

    fn record_miss(&self, model: ModelKind, states: u64, wall_us: u64) {
        self.checks_total.inc();
        self.cache_misses.inc();
        self.states_total.add(states);
        self.wall_us_total.add(wall_us);
        self.bump_model(model);
    }

    fn record_inconclusive(&self, model: ModelKind, reason: StopReason) {
        self.checks_total.inc();
        self.inconclusive_total.inc();
        match reason {
            StopReason::WallBudget { .. } => {
                self.timeouts_total.inc();
            }
            StopReason::Cancelled => {
                self.cancelled_total.inc();
            }
            StopReason::MemoryBudget { .. } => {
                self.memory_budget_stops_total.inc();
            }
            StopReason::StateBudget { .. } => {}
        }
        self.bump_model(model);
    }

    fn record_panicked(&self, model: ModelKind) {
        self.checks_total.inc();
        self.panics_total.inc();
        self.bump_model(model);
    }

    fn bump_model(&self, model: ModelKind) {
        let index = ModelKind::ALL.iter().position(|m| *m == model).unwrap_or(0);
        self.per_model[index].inc();
    }

    /// Records one finished request on the endpoint's latency histogram.
    fn record_latency(&self, endpoint: &str, wall_us: u64) {
        let index = ENDPOINTS.iter().position(|e| *e == endpoint).unwrap_or(ENDPOINTS.len() - 1);
        self.latency[index].observe(wall_us);
    }
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicUsize,
    queue_depth: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    metrics: Metrics,
    cache: Mutex<JournaledCache>,
    overload_wall_ms: u64,
    /// RSS admission watermark; 0 disables memory tightening.
    mem_watermark_bytes: u64,
    /// The explorer byte budget clamped onto requests over the watermark.
    overload_mem_bytes: u64,
    /// Requests slower than this are logged; served at `GET /debug/slow`.
    slow_threshold: Duration,
    /// Bounded log of the most recent slow requests (oldest dropped first).
    slow_log: Mutex<VecDeque<SlowEntry>>,
    /// Set by `POST /shutdown`; observed by [`Server::wait_for_shutdown_request`].
    shutdown_request: Mutex<bool>,
    shutdown_cond: Condvar,
}

/// One slow-request record.
#[derive(Debug, Clone)]
struct SlowEntry {
    trace_id: String,
    method: String,
    path: String,
    status: u16,
    wall_us: u64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) != 0
    }

    fn request_shutdown(&self) {
        *self.shutdown_request.lock().expect("shutdown lock") = true;
        self.shutdown_cond.notify_all();
    }

    /// Folds the journal into a fresh snapshot, warning on (but not
    /// propagating) I/O failure: a read-only filesystem degrades the
    /// service to memory-only caching. Called on graceful shutdown; steady
    /// state compacts automatically inside the journal layer.
    fn compact_cache(&self) {
        let mut cache = self.cache.lock().expect("cache lock");
        if let Err(err) = cache.compact() {
            self.metrics.warnings_total.inc();
            gam_obs::warn!("gam-serve: cannot compact cache: {err}");
        }
    }

    /// Records one finished request into the bounded slow-request log.
    fn note_slow(&self, entry: SlowEntry) {
        self.metrics.slow_requests_total.inc();
        let mut log = self.slow_log.lock().expect("slow log lock");
        if log.len() >= SLOW_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// The degrade stage: under sustained pressure (standing queue at least
    /// half the configured depth), clamp the request's wall budget so
    /// expensive checks come back `inconclusive` instead of growing the
    /// queue until the acceptor has to shed.
    fn tighten_for_overload(&self, options: &mut CheckOptions) {
        let standing = self.queue.lock().expect("queue lock").len();
        if standing.saturating_mul(2) < self.queue_depth {
            return;
        }
        let clamped = options
            .budget_wall_ms
            .map_or(self.overload_wall_ms, |requested| requested.min(self.overload_wall_ms));
        if options.budget_wall_ms != Some(clamped) {
            options.budget_wall_ms = Some(clamped);
            self.metrics.overload_tightened_total.inc();
        }
    }

    /// The memory analogue of [`Shared::tighten_for_overload`]: while the
    /// process RSS sits at or over the configured watermark, clamp the
    /// request's explorer memory budget so state-explosion checks degrade
    /// (spill, then stop with a memory-budget inconclusive) instead of
    /// growing the RSS until the OS kills the service. Memory-budget
    /// inconclusives are never cached, so a later, less-pressured request
    /// can still conclude the same test.
    fn tighten_for_memory(&self, options: &mut CheckOptions) {
        if self.mem_watermark_bytes == 0 {
            return;
        }
        let Some(resident) = gam_core::memory::process_resident_bytes() else { return };
        self.metrics.memory_resident_bytes.set(i64::try_from(resident).unwrap_or(i64::MAX));
        if u64::try_from(resident).unwrap_or(u64::MAX) < self.mem_watermark_bytes {
            return;
        }
        let clamp = usize::try_from(self.overload_mem_bytes).unwrap_or(usize::MAX);
        let clamped = options.budget_max_bytes.map_or(clamp, |requested| requested.min(clamp));
        if options.budget_max_bytes != Some(clamped) {
            options.budget_max_bytes = Some(clamped);
            self.metrics.memory_tightened_total.inc();
        }
    }
}

/// Emits journal-layer warnings (degradation to memory-only, failed
/// compactions) through the unified `gam_obs::warn!` path — stderr with a
/// stable `warn:` prefix, never stdout — without failing the request that
/// surfaced them.
fn warn_cache(metrics: &Metrics, warnings: impl IntoIterator<Item = String>) {
    for warning in warnings {
        metrics.warnings_total.inc();
        gam_obs::warn!("gam-serve: {warning}");
    }
}

/// A running check service; dropping it without [`Server::shutdown`] leaves
/// detached threads behind, so tests and the CLI both call `shutdown`.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the address and starts the acceptor + worker pool. Returns the
    /// server and an optional warning from recovering the cache (corrupt or
    /// mis-versioned snapshots start empty; torn journal tails are truncated
    /// to the longest valid prefix — neither keeps the service from
    /// starting).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn start(config: &ServeConfig) -> Result<(Server, Option<String>), ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|source| ServeError::Bind { addr: config.addr.clone(), source })?;
        let local_addr = listener
            .local_addr()
            .map_err(|source| ServeError::Bind { addr: config.addr.clone(), source })?;
        let (cache, warnings) =
            JournaledCache::open(&config.cache_path, config.cache_capacity, config.compact_every);
        let warning = (!warnings.is_empty()).then(|| warnings.join("; "));
        // Phase timers (cache_lookup, journal_append, persist, …) feed the
        // global registry's `phase.*.us` histograms while a server runs, so
        // the Prometheus scrape can report where request time goes.
        gam_obs::phase::arm_metrics();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicUsize::new(0),
            queue_depth: config.queue_depth.max(1),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            metrics: Metrics::new(),
            cache: Mutex::new(cache),
            overload_wall_ms: config.overload_wall_ms.max(1),
            mem_watermark_bytes: config.mem_watermark_bytes,
            overload_mem_bytes: config.overload_mem_bytes.max(1),
            slow_threshold: config.slow_threshold,
            slow_log: Mutex::new(VecDeque::new()),
            shutdown_request: Mutex::new(false),
            shutdown_cond: Condvar::new(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok((Server { local_addr, shared, acceptor: Some(acceptor), workers }, warning))
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a client has asked the service to stop via `POST /shutdown`.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        *self.shared.shutdown_request.lock().expect("shutdown lock")
    }

    /// Blocks until a client requests shutdown via `POST /shutdown`. The CLI
    /// parks here, then performs the graceful [`Server::shutdown`] (drain
    /// workers, persist cache) itself.
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self.shared.shutdown_request.lock().expect("shutdown lock");
        while !*requested {
            requested = self.shared.shutdown_cond.wait(requested).expect("shutdown lock");
        }
    }

    /// Stops accepting, drains the workers, and persists the cache.
    pub fn shutdown(mut self) {
        self.shared.stop.store(1, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.compact_cache();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.queue_depth {
            drop(queue);
            shared.metrics.shed_total.inc();
            shed(stream);
        } else {
            queue.push_back(stream);
            drop(queue);
            shared.ready.notify_one();
        }
    }
}

/// Graceful shedding: an immediate `503` with a retry hint.
fn shed(mut stream: TcpStream) {
    let body = Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::Str("request queue full; retry".to_string())),
    ])
    .to_string();
    let _ = write_response(
        &mut stream,
        503,
        "Service Unavailable",
        &[("Retry-After", "1")],
        "application/json",
        &body,
    );
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.stopping() {
                    break None;
                }
                queue = shared.ready.wait(queue).expect("queue lock");
            }
        };
        let Some(stream) = stream else { return };
        // A panic anywhere in request handling (including injected faults
        // firing outside the per-check isolation) must never take the worker
        // down — the connection is abandoned, the loop continues.
        let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, stream)));
    }
}

/// Handles one connection end to end: arm socket timeouts, assign the
/// request its trace id, read the request, route it, record the endpoint
/// latency and — past [`ServeConfig::slow_threshold`] — a slow-log entry,
/// then write the response (the trace id is echoed back in
/// `X-Gam-Trace-Id`). Recording comes first so that a client reading
/// `/metrics` or `/debug/slow` after its response always finds its own
/// request there; the recorded latency therefore ends when the response is
/// ready, and failed writes are counted on their own. A read that exceeds
/// the server-side timeout is answered with `408 Request Timeout` (and
/// counted) rather than holding the worker hostage to a slow or half-open
/// client.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.requests_total.inc();
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let trace_id = trace::next_trace_id();
    trace::set_trace_id(trace_id);
    let trace_hex = trace::format_trace_id(trace_id);
    let start = Instant::now();
    let mut span = trace::span("serve.request");
    let (endpoint, method, path, response) = match read_request(&mut stream) {
        Ok(request) => {
            let (endpoint, response) = route(shared, &request);
            (endpoint, request.method.clone(), request.path.clone(), response)
        }
        Err(err) if matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {
            shared.metrics.timeouts_total.inc();
            let response = error_response(408, format!("request read timed out: {err}"));
            ("other", String::new(), String::new(), response)
        }
        Err(err) => {
            let response = error_response(400, format!("bad request: {err}"));
            ("other", String::new(), String::new(), response)
        }
    };
    let wall = start.elapsed();
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_latency(endpoint, wall_us);
    if wall >= shared.slow_threshold {
        shared.note_slow(SlowEntry {
            trace_id: trace_hex.clone(),
            method,
            path,
            status: response.status,
            wall_us,
        });
    }
    let written = write_response(
        &mut stream,
        response.status,
        response.reason,
        &[("X-Gam-Trace-Id", &trace_hex)],
        response.content_type,
        &response.body,
    );
    if written.is_err() {
        shared.metrics.write_errors_total.inc();
    }
    span.arg("endpoint", endpoint);
    span.arg("status", response.status);
    drop(span);
    trace::set_trace_id(0);
}

struct RouteResponse {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

fn ok_response(body: &Json) -> RouteResponse {
    RouteResponse {
        status: 200,
        reason: "OK",
        content_type: "application/json",
        body: body.to_string(),
    }
}

fn error_response(status: u16, message: String) -> RouteResponse {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        _ => "Internal Server Error",
    };
    let body = Json::object([("ok", Json::Bool(false)), ("error", Json::Str(message))]);
    RouteResponse { status, reason, content_type: "application/json", body: body.to_string() }
}

/// Routes one request, returning the endpoint's latency label alongside the
/// response. Query strings are split off the path before matching, so
/// `/metrics?format=prometheus` routes like `/metrics`.
fn route(shared: &Shared, request: &Request) -> (&'static str, RouteResponse) {
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            ("healthz", ok_response(&Json::object([("status", Json::Str("ok".to_string()))])))
        }
        ("GET", "/metrics") => ("metrics", metrics_response(shared, query)),
        ("GET", "/debug/slow") => ("other", ok_response(&render_slow_log(shared))),
        ("POST", "/check") => ("check", handle_check(shared, request)),
        ("POST", "/batch") => ("batch", handle_batch(shared, request)),
        ("POST", "/shutdown") => {
            shared.request_shutdown();
            let response = ok_response(&Json::object([
                ("ok", Json::Bool(true)),
                ("status", Json::Str("draining".to_string())),
            ]));
            ("shutdown", response)
        }
        ("GET" | "POST", _) => {
            ("other", error_response(404, format!("no such endpoint: {}", request.path)))
        }
        (method, _) => ("other", error_response(405, format!("unsupported method: {method}"))),
    }
}

/// `GET /metrics`: the JSON document by default; with `format=prometheus`
/// in the query, the Prometheus text exposition of the server's registry
/// plus the process-global registry (phase timings, warning counts).
fn metrics_response(shared: &Shared, query: &str) -> RouteResponse {
    if query.split('&').any(|pair| pair == "format=prometheus") {
        let mut text = shared.metrics.registry.render_prometheus_text();
        text.push_str(&gam_obs::metrics::global().render_prometheus_text());
        return RouteResponse {
            status: 200,
            reason: "OK",
            content_type: "text/plain; version=0.0.4",
            body: text,
        };
    }
    ok_response(&render_metrics(shared))
}

/// The `GET /debug/slow` document: the bounded slow-request log, oldest
/// entry first.
fn render_slow_log(shared: &Shared) -> Json {
    let threshold_us = u64::try_from(shared.slow_threshold.as_micros()).unwrap_or(u64::MAX);
    let entries: Vec<Json> = shared
        .slow_log
        .lock()
        .expect("slow log lock")
        .iter()
        .map(|entry| {
            Json::object([
                ("trace_id", Json::Str(entry.trace_id.clone())),
                ("method", Json::Str(entry.method.clone())),
                ("path", Json::Str(entry.path.clone())),
                ("status", Json::UInt(u64::from(entry.status))),
                ("wall_us", Json::UInt(entry.wall_us)),
            ])
        })
        .collect();
    Json::object([
        ("schema", Json::Str(SLOW_LOG_SCHEMA.to_string())),
        ("threshold_us", Json::UInt(threshold_us)),
        ("entries", Json::Array(entries)),
    ])
}

fn render_metrics(shared: &Shared) -> Json {
    let metrics = &shared.metrics;
    // Refresh the resident-set gauge on every render; admission control also
    // samples it, but a scrape must see a current figure even when no check
    // has run since the last one.
    if let Some(resident) = gam_core::memory::process_resident_bytes() {
        metrics.memory_resident_bytes.set(i64::try_from(resident).unwrap_or(i64::MAX));
    }
    let hits = metrics.cache_hits.get();
    let misses = metrics.cache_misses.get();
    let states = metrics.states_total.get();
    let wall_us = metrics.wall_us_total.get();
    let (cache_entries, evictions, journal) = {
        let cache = shared.cache.lock().expect("cache lock");
        (cache.cache().len() as u64, cache.cache().evictions(), cache.stats())
    };
    let per_model = Json::Object(
        ModelKind::ALL
            .iter()
            .enumerate()
            .map(|(i, model)| {
                (model_name(*model).to_string(), Json::UInt(metrics.per_model[i].get()))
            })
            .collect(),
    );
    // Per-endpoint request latency quantiles (v2 addition).
    let latency = Json::Object(
        ENDPOINTS
            .iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let snapshot = metrics.latency[i].snapshot();
                (
                    (*endpoint).to_string(),
                    Json::object([
                        ("count", Json::UInt(snapshot.count)),
                        ("p50_us", Json::UInt(snapshot.p50)),
                        ("p90_us", Json::UInt(snapshot.p90)),
                        ("p99_us", Json::UInt(snapshot.p99)),
                        ("max_us", Json::UInt(snapshot.max)),
                    ]),
                )
            })
            .collect(),
    );
    Json::object([
        // The v1 fields below are bit-compatible with gam-serve-metrics/v1;
        // everything from `warnings_total` on is additive in v2.
        ("schema", Json::Str(METRICS_SCHEMA.to_string())),
        ("requests_total", Json::UInt(metrics.requests_total.get())),
        ("checks_total", Json::UInt(metrics.checks_total.get())),
        ("cache_hits", Json::UInt(hits)),
        ("cache_misses", Json::UInt(misses)),
        // Integer per-mille rate; the JSON layer is deliberately float-free.
        ("hit_rate_permille", Json::UInt((hits * 1000).checked_div(hits + misses).unwrap_or(0))),
        ("states_total", Json::UInt(states)),
        ("wall_us_total", Json::UInt(wall_us)),
        (
            "states_per_sec",
            Json::UInt(states.saturating_mul(1_000_000).checked_div(wall_us).unwrap_or(0)),
        ),
        ("queue_depth", Json::UInt(shared.queue.lock().expect("queue lock").len() as u64)),
        ("shed_total", Json::UInt(metrics.shed_total.get())),
        ("inconclusive_total", Json::UInt(metrics.inconclusive_total.get())),
        ("panics_total", Json::UInt(metrics.panics_total.get())),
        ("timeouts_total", Json::UInt(metrics.timeouts_total.get())),
        ("cancelled_total", Json::UInt(metrics.cancelled_total.get())),
        ("overload_tightened_total", Json::UInt(metrics.overload_tightened_total.get())),
        // v3 additions: memory-pressure admission control.
        (
            "memory_resident_bytes",
            Json::UInt(u64::try_from(metrics.memory_resident_bytes.get()).unwrap_or(0)),
        ),
        ("memory_tightened_total", Json::UInt(metrics.memory_tightened_total.get())),
        ("memory_budget_stops_total", Json::UInt(metrics.memory_budget_stops_total.get())),
        ("cache_entries", Json::UInt(cache_entries)),
        ("cache_evictions", Json::UInt(evictions)),
        ("journal_appends_total", Json::UInt(journal.appends)),
        ("journal_compactions_total", Json::UInt(journal.compactions)),
        ("journal_replayed_records", Json::UInt(journal.replayed)),
        ("per_model_checks", per_model),
        ("warnings_total", Json::UInt(metrics.warnings_total.get())),
        ("slow_requests_total", Json::UInt(metrics.slow_requests_total.get())),
        ("latency_us", latency),
    ])
}

/// The wire name of a model (also the cache-key component).
#[must_use]
pub fn model_name(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Sc => "sc",
        ModelKind::Tso => "tso",
        ModelKind::Gam => "gam",
        ModelKind::Gam0 => "gam0",
        ModelKind::GamArm => "gam-arm",
    }
}

/// Parses a wire model name (the CLI's `--models` vocabulary).
#[must_use]
pub fn parse_model(name: &str) -> Option<ModelKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "sc" => ModelKind::Sc,
        "tso" => ModelKind::Tso,
        "gam" => ModelKind::Gam,
        "gam0" => ModelKind::Gam0,
        "gam-arm" | "gamarm" | "gam_arm" => ModelKind::GamArm,
        _ => return None,
    })
}

/// The wire name of a backend (also the cache-key component).
#[must_use]
pub fn backend_name(backend: Backend) -> &'static str {
    match backend {
        Backend::Axiomatic => "axiomatic",
        Backend::Operational => "operational",
    }
}

/// Parses a wire backend name.
#[must_use]
pub fn parse_backend(name: &str) -> Option<Backend> {
    Some(match name.to_ascii_lowercase().as_str() {
        "axiomatic" | "ax" => Backend::Axiomatic,
        "operational" | "op" => Backend::Operational,
        _ => return None,
    })
}

/// Per-request options shared by `/check` and `/batch`.
struct CheckOptions {
    models: Vec<ModelKind>,
    backends: Vec<Backend>,
    /// Operational state budget (`max_states`), if the request set one.
    budget_states: Option<usize>,
    /// Per-check wall-clock budget in milliseconds, if the request set one.
    budget_wall_ms: Option<u64>,
    /// Operational explorer memory budget in accounted bytes, if the request
    /// set one (or admission control clamped one on).
    budget_max_bytes: Option<usize>,
}

impl CheckOptions {
    /// Whether any budget is armed — budgeted requests take the session path
    /// (budget exhaustion is an inconclusive row, not an error row).
    fn budgeted(&self) -> bool {
        self.budget_states.is_some()
            || self.budget_wall_ms.is_some()
            || self.budget_max_bytes.is_some()
    }

    fn budget(&self) -> CheckBudget {
        let mut budget = CheckBudget::none();
        if let Some(states) = self.budget_states {
            budget = budget.with_max_states(states);
        }
        if let Some(wall_ms) = self.budget_wall_ms {
            budget = budget.with_max_wall(Duration::from_millis(wall_ms));
        }
        if let Some(max_bytes) = self.budget_max_bytes {
            budget = budget.with_max_bytes(max_bytes);
        }
        budget
    }

    fn from_json(json: &Json) -> Result<CheckOptions, String> {
        let mut options = CheckOptions {
            models: vec![ModelKind::Gam],
            backends: vec![Backend::Operational],
            budget_states: None,
            budget_wall_ms: None,
            budget_max_bytes: None,
        };
        if let Some(models) = json.get("models") {
            let list = models.as_array().ok_or("`models` must be an array")?;
            options.models = list
                .iter()
                .map(|m| {
                    let name = m.as_str().ok_or("`models` entries must be strings")?;
                    parse_model(name).ok_or_else(|| format!("unknown model `{name}`"))
                })
                .collect::<Result<_, _>>()?;
            if options.models.is_empty() {
                return Err("`models` must not be empty".to_string());
            }
        }
        if let Some(backends) = json.get("backends") {
            let list = backends.as_array().ok_or("`backends` must be an array")?;
            options.backends = list
                .iter()
                .map(|b| {
                    let name = b.as_str().ok_or("`backends` entries must be strings")?;
                    parse_backend(name).ok_or_else(|| format!("unknown backend `{name}`"))
                })
                .collect::<Result<_, _>>()?;
            if options.backends.is_empty() {
                return Err("`backends` must not be empty".to_string());
            }
        }
        if let Some(budget) = json.get("budget_states") {
            let value = budget.as_u64().ok_or("`budget_states` must be an integer")?;
            options.budget_states =
                Some(usize::try_from(value).map_err(|_| "`budget_states` too large")?);
        }
        if let Some(budget) = json.get("budget_wall_ms") {
            options.budget_wall_ms =
                Some(budget.as_u64().ok_or("`budget_wall_ms` must be an integer")?);
        }
        if let Some(budget) = json.get("budget_max_bytes") {
            let value = budget.as_u64().ok_or("`budget_max_bytes` must be an integer")?;
            options.budget_max_bytes =
                Some(usize::try_from(value).map_err(|_| "`budget_max_bytes` too large")?);
        }
        Ok(options)
    }
}

fn handle_check(shared: &Shared, request: &Request) -> RouteResponse {
    let body = request.body_text();
    let trimmed = body.trim_start();
    let (litmus_text, options) = if trimmed.starts_with('{') {
        let json = match Json::parse(&body) {
            Ok(json) => json,
            Err(err) => return error_response(400, format!("bad JSON: {err}")),
        };
        let Some(litmus) = json.get("litmus").and_then(Json::as_str) else {
            return error_response(400, "missing `litmus` field".to_string());
        };
        match CheckOptions::from_json(&json) {
            Ok(options) => (litmus.to_string(), options),
            Err(err) => return error_response(400, err),
        }
    } else {
        (
            body,
            CheckOptions {
                models: vec![ModelKind::Gam],
                backends: vec![Backend::Operational],
                budget_states: None,
                budget_wall_ms: None,
                budget_max_bytes: None,
            },
        )
    };
    let mut options = options;
    let test = match parse_litmus(&litmus_text) {
        Ok(test) => test,
        Err(err) => return error_response(400, format!("litmus parse error: {err}")),
    };
    shared.tighten_for_overload(&mut options);
    shared.tighten_for_memory(&mut options);
    let result = check_one(shared, &test, &options);
    ok_response(&Json::object([("ok", Json::Bool(true)), ("result", result)]))
}

/// Checks one test against every requested (model, backend) pair, answering
/// from the cache when possible. Mutations are durable the moment the
/// journal append returns — no whole-cache rewrite on this path anymore.
fn check_one(shared: &Shared, test: &LitmusTest, options: &CheckOptions) -> Json {
    let hash = canonical_hash(test).to_string();
    let mut results = Vec::new();
    for &model in &options.models {
        for &backend in &options.backends {
            let base = [
                ("model", Json::Str(model_name(model).to_string())),
                ("backend", Json::Str(backend_name(backend).to_string())),
            ];
            if !backend.supports(model) {
                results.push(Json::object(base.into_iter().chain([(
                    "error",
                    Json::Str(format!(
                        "backend {} does not support {}",
                        backend_name(backend),
                        model
                    )),
                )])));
                continue;
            }
            let key = OutcomeCache::key(&hash, model_name(model), backend_name(backend));
            let cached = {
                let _phase = gam_obs::phase("cache_lookup");
                let (entry, warning) = shared.cache.lock().expect("cache lock").lookup(&key);
                warn_cache(&shared.metrics, warning);
                entry
            };
            if let Some(entry) = cached {
                shared.metrics.record_hit(model);
                results.push(Json::object(base.into_iter().chain([
                    ("verdict", verdict_json(entry.allowed)),
                    ("cached", Json::Bool(true)),
                    ("wall_us", Json::UInt(entry.wall_us)),
                    ("states", Json::UInt(entry.states)),
                ])));
                continue;
            }
            match compute_miss(test, model, backend, options) {
                MissOutcome::Conclusive(entry) => {
                    shared.metrics.record_miss(model, entry.states, entry.wall_us);
                    warn_cache(
                        &shared.metrics,
                        shared.cache.lock().expect("cache lock").insert(key, entry.clone()),
                    );
                    results.push(Json::object(base.into_iter().chain([
                        ("verdict", verdict_json(entry.allowed)),
                        ("cached", Json::Bool(false)),
                        ("wall_us", Json::UInt(entry.wall_us)),
                        ("states", Json::UInt(entry.states)),
                    ])));
                }
                MissOutcome::Inconclusive { reason, states_visited, partial_outcomes, wall_us } => {
                    shared.metrics.record_inconclusive(model, reason);
                    results.push(Json::object(base.into_iter().chain(inconclusive_fields(
                        reason,
                        states_visited,
                        partial_outcomes,
                        wall_us,
                    ))));
                }
                MissOutcome::Panicked(message) => {
                    shared.metrics.record_panicked(model);
                    results.push(Json::object(
                        base.into_iter().chain([("error", Json::Str(message))]),
                    ));
                }
                MissOutcome::Error(message) => {
                    results.push(Json::object(
                        base.into_iter().chain([("error", Json::Str(message))]),
                    ));
                }
            }
        }
    }
    Json::object([
        ("test", Json::Str(test.name().to_string())),
        ("canonical_hash", Json::Str(hash)),
        ("results", Json::Array(results)),
    ])
}

fn verdict_json(allowed: bool) -> Json {
    Json::Str(if allowed { "allowed" } else { "forbidden" }.to_string())
}

/// How one cache miss resolved.
enum MissOutcome {
    /// The check finished; the entry is cacheable.
    Conclusive(CacheEntry),
    /// A budget ran out or the check was cancelled before the verdict was
    /// known — reported to the client, counted, never cached.
    Inconclusive { reason: StopReason, states_visited: u64, partial_outcomes: u64, wall_us: u64 },
    /// The checker panicked; the panic was caught and rendered.
    Panicked(String),
    /// An ordinary checker error (unsupported feature, too many events, …).
    Error(String),
}

/// The JSON fields of an inconclusive result row.
fn inconclusive_fields(
    reason: StopReason,
    states_visited: u64,
    partial_outcomes: u64,
    wall_us: u64,
) -> [(&'static str, Json); 6] {
    [
        ("verdict", Json::Str("inconclusive".to_string())),
        ("reason", Json::Str(reason.to_string())),
        ("cached", Json::Bool(false)),
        ("wall_us", Json::UInt(wall_us)),
        ("states", Json::UInt(states_visited)),
        ("partial_outcomes", Json::UInt(partial_outcomes)),
    ]
}

/// Computes a cache miss.
///
/// Budgeted requests (`budget_states`/`budget_wall_ms`) take the engine's
/// session path ([`Engine::check_budgeted`]): budget exhaustion becomes an
/// [`MissOutcome::Inconclusive`] carrying partial outcomes instead of an
/// error. Unbudgeted requests keep the original path — the operational
/// backend goes through the explorer directly so the entry records real
/// `states_visited` (the engine's `Checker` trait deliberately hides them);
/// the axiomatic backend goes through the engine. Both paths are
/// panic-isolated: a panicking checker yields [`MissOutcome::Panicked`], not
/// a dead worker.
fn compute_miss(
    test: &LitmusTest,
    model: ModelKind,
    backend: Backend,
    options: &CheckOptions,
) -> MissOutcome {
    if options.budgeted() {
        let engine = match Engine::builder().model(model).backend(backend).build() {
            Ok(engine) => engine,
            Err(err) => return MissOutcome::Error(err.to_string()),
        };
        return match engine.check_budgeted(test, &options.budget()) {
            Ok(outcome) => {
                let wall_us = u64::try_from(outcome.wall.as_micros()).unwrap_or(u64::MAX);
                match outcome.verdict {
                    SessionVerdict::Inconclusive { partial_outcomes, states_visited, reason } => {
                        MissOutcome::Inconclusive {
                            reason,
                            states_visited: states_visited as u64,
                            partial_outcomes: partial_outcomes.len() as u64,
                            wall_us,
                        }
                    }
                    verdict => {
                        let allowed = verdict
                            .as_verdict()
                            .map(|v| v.is_allowed())
                            .expect("non-inconclusive session verdict is conclusive");
                        // The session path enumerates outcomes without
                        // reporting state counts; cost ranks by wall time.
                        MissOutcome::Conclusive(CacheEntry { allowed, wall_us, states: 0, hits: 0 })
                    }
                }
            }
            Err(EngineError::Panicked { payload }) => {
                MissOutcome::Panicked(EngineError::Panicked { payload }.to_string())
            }
            Err(err) => MissOutcome::Error(err.to_string()),
        };
    }
    let start = Instant::now();
    let computed = catch_unwind(AssertUnwindSafe(|| -> Result<(bool, u64), String> {
        match backend {
            Backend::Operational => {
                let checker = OperationalChecker::with_config(model, ExplorerConfig::default());
                let exploration = checker.explore(test).map_err(|err| err.to_string())?;
                let allowed =
                    exploration.outcomes.iter().any(|outcome| test.condition().matched_by(outcome));
                Ok((allowed, exploration.states_visited as u64))
            }
            Backend::Axiomatic => {
                let verdict =
                    Engine::axiomatic(model).check(test).map_err(|err| err.to_string())?;
                Ok((verdict.is_allowed(), 0))
            }
        }
    }));
    let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    match computed {
        Ok(Ok((allowed, states))) => {
            MissOutcome::Conclusive(CacheEntry { allowed, wall_us, states, hits: 0 })
        }
        Ok(Err(message)) => MissOutcome::Error(message),
        Err(payload) => MissOutcome::Panicked(EngineError::panicked(&*payload).to_string()),
    }
}

fn handle_batch(shared: &Shared, request: &Request) -> RouteResponse {
    let json = match Json::parse(&request.body_text()) {
        Ok(json) => json,
        Err(err) => return error_response(400, format!("bad JSON: {err}")),
    };
    let Some(entries) = json.get("tests").and_then(Json::as_array) else {
        return error_response(400, "missing `tests` array".to_string());
    };
    let mut options = match CheckOptions::from_json(&json) {
        Ok(options) => options,
        Err(err) => return error_response(400, err),
    };
    shared.tighten_for_overload(&mut options);
    shared.tighten_for_memory(&mut options);
    let mut tests = Vec::with_capacity(entries.len());
    for (index, entry) in entries.iter().enumerate() {
        let Some(text) = entry.as_str() else {
            return error_response(400, format!("`tests[{index}]` must be a litmus string"));
        };
        match parse_litmus(text) {
            Ok(test) => tests.push(test),
            Err(err) => {
                return error_response(400, format!("`tests[{index}]` parse error: {err}"));
            }
        }
    }
    let results = batch_check(shared, &tests, &options);
    ok_response(&Json::object([("ok", Json::Bool(true)), ("results", Json::Array(results))]))
}

/// The `/batch` core: per (model, backend) pair, split the tests into cache
/// hits and misses, fan the misses out through the engine's adaptive suite
/// scheduler (verdict-only mode stops each test at its first witness), then
/// assemble per-test results in input order.
fn batch_check(shared: &Shared, tests: &[LitmusTest], options: &CheckOptions) -> Vec<Json> {
    let hashes: Vec<String> = tests.iter().map(|t| canonical_hash(t).to_string()).collect();
    // results[test][pair] assembled as JSON rows at the end.
    let mut rows: Vec<Vec<Json>> = vec![Vec::new(); tests.len()];
    for &model in &options.models {
        for &backend in &options.backends {
            let base = |extra: Vec<(&str, Json)>| {
                Json::object(
                    [
                        ("model", Json::Str(model_name(model).to_string())),
                        ("backend", Json::Str(backend_name(backend).to_string())),
                    ]
                    .into_iter()
                    .chain(extra),
                )
            };
            if !backend.supports(model) {
                let message =
                    format!("backend {} does not support {}", backend_name(backend), model);
                for row in &mut rows {
                    row.push(base(vec![("error", Json::Str(message.clone()))]));
                }
                continue;
            }
            // Split hits from misses under one lock acquisition.
            let mut miss_indices = Vec::new();
            let mut hit_entries: Vec<Option<CacheEntry>> = Vec::with_capacity(tests.len());
            {
                let _phase = gam_obs::phase("cache_lookup");
                let mut cache = shared.cache.lock().expect("cache lock");
                for hash in &hashes {
                    let key = OutcomeCache::key(hash, model_name(model), backend_name(backend));
                    let (entry, warning) = cache.lookup(&key);
                    warn_cache(&shared.metrics, warning);
                    if entry.is_none() {
                        miss_indices.push(hit_entries.len());
                    }
                    hit_entries.push(entry);
                }
            }
            // Fan the misses out. Budgeted batches go test-by-test through
            // the session path (each test gets its own budget and its own
            // inconclusive/panicked accounting); unbudgeted batches keep the
            // adaptive suite scheduler.
            let mut miss_results: Vec<Option<MissOutcome>> =
                std::iter::repeat_with(|| None).take(tests.len()).collect();
            if options.budgeted() {
                for &index in &miss_indices {
                    miss_results[index] =
                        Some(compute_miss(&tests[index], model, backend, options));
                }
            } else if !miss_indices.is_empty() {
                let miss_tests: Vec<LitmusTest> =
                    miss_indices.iter().map(|&i| tests[i].clone()).collect();
                match Engine::builder().model(model).backend(backend).build() {
                    Ok(engine) => {
                        let report = engine.run_suite_verdicts(&miss_tests);
                        for (&index, test_report) in miss_indices.iter().zip(&report.reports) {
                            let wall_us =
                                u64::try_from(test_report.wall.as_micros()).unwrap_or(u64::MAX);
                            miss_results[index] =
                                Some(match (test_report.verdict, &test_report.error) {
                                    (Some(verdict), _) => MissOutcome::Conclusive(CacheEntry {
                                        allowed: verdict.is_allowed(),
                                        wall_us,
                                        // The scheduler's early-exit mode does not
                                        // report states; cost falls back to wall time.
                                        states: 0,
                                        hits: 0,
                                    }),
                                    // The suite runner renders caught panics
                                    // through `EngineError::Panicked` — detect
                                    // them by their stable prefix so the batch
                                    // path counts panics exactly like `/check`.
                                    (None, Some(error))
                                        if error.starts_with("the checker panicked") =>
                                    {
                                        MissOutcome::Panicked(error.clone())
                                    }
                                    (None, Some(error)) => MissOutcome::Error(error.clone()),
                                    (None, None) => MissOutcome::Error(
                                        "backend produced no verdict".to_string(),
                                    ),
                                });
                        }
                    }
                    Err(err) => {
                        let message = err.to_string();
                        for &index in &miss_indices {
                            miss_results[index] = Some(MissOutcome::Error(message.clone()));
                        }
                    }
                }
            }
            // Assemble this pair's column.
            for (index, row) in rows.iter_mut().enumerate() {
                if let Some(entry) = &hit_entries[index] {
                    shared.metrics.record_hit(model);
                    row.push(base(vec![
                        ("verdict", verdict_json(entry.allowed)),
                        ("cached", Json::Bool(true)),
                        ("wall_us", Json::UInt(entry.wall_us)),
                        ("states", Json::UInt(entry.states)),
                    ]));
                    continue;
                }
                match miss_results[index].take() {
                    Some(MissOutcome::Conclusive(entry)) => {
                        shared.metrics.record_miss(model, entry.states, entry.wall_us);
                        let key = OutcomeCache::key(
                            &hashes[index],
                            model_name(model),
                            backend_name(backend),
                        );
                        warn_cache(
                            &shared.metrics,
                            shared.cache.lock().expect("cache lock").insert(key, entry.clone()),
                        );
                        row.push(base(vec![
                            ("verdict", verdict_json(entry.allowed)),
                            ("cached", Json::Bool(false)),
                            ("wall_us", Json::UInt(entry.wall_us)),
                            ("states", Json::UInt(entry.states)),
                        ]));
                    }
                    Some(MissOutcome::Inconclusive {
                        reason,
                        states_visited,
                        partial_outcomes,
                        wall_us,
                    }) => {
                        shared.metrics.record_inconclusive(model, reason);
                        row.push(base(
                            inconclusive_fields(reason, states_visited, partial_outcomes, wall_us)
                                .into_iter()
                                .collect(),
                        ));
                    }
                    Some(MissOutcome::Panicked(message)) => {
                        shared.metrics.record_panicked(model);
                        row.push(base(vec![("error", Json::Str(message))]));
                    }
                    Some(MissOutcome::Error(message)) => {
                        row.push(base(vec![("error", Json::Str(message))]));
                    }
                    None => {
                        row.push(base(vec![(
                            "error",
                            Json::Str("internal: miss result missing".to_string()),
                        )]));
                    }
                }
            }
        }
    }
    tests
        .iter()
        .zip(hashes)
        .zip(rows)
        .map(|((test, hash), row)| {
            Json::object([
                ("test", Json::Str(test.name().to_string())),
                ("canonical_hash", Json::Str(hash)),
                ("results", Json::Array(row)),
            ])
        })
        .collect()
}
