//! End-to-end fault injection against a live server.
//!
//! Each test arms a deterministic `gam_core::fault` plan and drives the
//! real HTTP service through it, asserting the robustness contract of
//! `gam serve`: non-faulted requests keep getting correct verdicts,
//! faulted ones get *typed* errors (never a hang, never a dead worker),
//! the metrics counters reconcile exactly, and the persistent cache
//! survives a crash in the middle of its own compaction.
//!
//! The fault plan is process-global, so every test holds
//! [`fault::exclusive`] for its entire `install`..`reset` span, and the
//! injected panics' default reports are suppressed with a quiet hook.

use std::fs;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use gam_core::{fault, ModelKind};
use gam_engine::{Engine, Json};
use gam_frontend::print_litmus;
use gam_isa::litmus::library;
use gam_serve::http::{request, request_with, ClientConfig};
use gam_serve::{JournaledCache, ServeConfig, Server};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("gam-serve-fault-{}-{tag}.json", std::process::id()));
        let scratch = Scratch(path);
        let _ = fs::remove_file(&scratch.0);
        let _ = fs::remove_file(scratch.tmp_sibling());
        scratch
    }

    fn tmp_sibling(&self) -> PathBuf {
        let name = self.0.file_name().expect("scratch has a name").to_string_lossy();
        self.0.with_file_name(format!("{name}.tmp"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_file(self.tmp_sibling());
    }
}

fn start(cache_path: &Scratch) -> Server {
    start_with(cache_path, Duration::from_secs(10))
}

fn start_with(cache_path: &Scratch, read_timeout: Duration) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_path: cache_path.0.clone(),
        cache_capacity: 256,
        read_timeout,
        ..ServeConfig::default()
    };
    let (server, warning) = Server::start(&config).expect("server starts");
    assert!(warning.is_none(), "scratch cache must load silently: {warning:?}");
    server
}

/// Runs `body` with panic backtraces suppressed (workers catch the
/// injected panics; their default reports would spam the output).
fn quiet_panics<T>(body: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = body();
    std::panic::set_hook(hook);
    result
}

fn post_check(addr: &str, litmus: &str) -> (u16, Json) {
    let response = request(addr, "POST", "/check", Some(litmus)).expect("request succeeds");
    let json = Json::parse(&response.body).expect("well-formed JSON");
    (response.status, json)
}

fn only_row(json: &Json) -> &Json {
    let rows = json.get("result").and_then(|r| r.get("results")).and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    &rows[0]
}

fn metric(addr: &str, key: &str) -> u64 {
    let response = request(addr, "GET", "/metrics", None).expect("metrics reachable");
    Json::parse(&response.body)
        .expect("metrics JSON")
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics field {key}"))
}

/// The accounting invariant every test closes with: each check is exactly
/// one of hit, miss, inconclusive or panicked.
fn assert_metrics_reconcile(addr: &str) {
    let checks = metric(addr, "checks_total");
    let accounted = metric(addr, "cache_hits")
        + metric(addr, "cache_misses")
        + metric(addr, "inconclusive_total")
        + metric(addr, "panics_total");
    assert_eq!(checks, accounted, "checks_total must equal hits+misses+inconclusive+panics");
}

/// Reads one counter sample out of a Prometheus text exposition.
fn prom_metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("prometheus sample {name} missing:\n{text}"))
        .trim()
        .parse()
        .expect("prometheus counter value")
}

#[test]
fn registry_accounting_reconciles_under_faults_in_both_renderings() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("registry");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // A fault mix: panics on every 2nd exploration, plus journal-append
    // kills degrading the cache — the registry must stay balanced through
    // both.
    let tests =
        [library::corr(), library::mp(), library::dekker(), library::iriw(), library::wrc()];
    fault::install("explore=panic@2,cache.journal.append=kill@3").expect("valid fault spec");
    quiet_panics(|| {
        for test in &tests {
            let (status, _) = post_check(&addr, &print_litmus(test));
            assert_eq!(status, 200);
        }
    });
    fault::reset();

    // The invariant, read through the registry's Prometheus rendering.
    let response = request(&addr, "GET", "/metrics?format=prometheus", None)
        .expect("prometheus scrape answers");
    assert_eq!(response.status, 200);
    assert!(
        response.header("content-type").is_some_and(|ct| ct.starts_with("text/plain")),
        "prometheus exposition is text/plain"
    );
    let text = &response.body;
    let checks = prom_metric(text, "serve_checks_total");
    let accounted = prom_metric(text, "serve_cache_hits")
        + prom_metric(text, "serve_cache_misses")
        + prom_metric(text, "serve_inconclusive_total")
        + prom_metric(text, "serve_panics_total");
    assert_eq!(checks, accounted, "registry counters must reconcile under faults");
    assert_eq!(checks, tests.len() as u64);

    // Both renderings are views of the same registry: they must agree.
    assert_eq!(metric(&addr, "checks_total"), checks);
    assert_eq!(metric(&addr, "panics_total"), prom_metric(text, "serve_panics_total"));
    // The degraded cache surfaced warnings through the unified warn path,
    // and the JSON document's additive v2 field reports them too.
    let warnings = prom_metric(text, "serve_warnings_total");
    assert!(warnings > 0, "journal degradation must count warnings");
    assert_eq!(metric(&addr, "warnings_total"), warnings);
    assert_metrics_reconcile(&addr);

    server.shutdown();
}

#[test]
fn service_answers_correctly_while_explorer_panics_fire() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("panics");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // Distinct tests (no cache hits), every 2nd exploration panics.
    let tests =
        [library::corr(), library::mp(), library::dekker(), library::iriw(), library::wrc()];
    let expected: Vec<bool> = tests
        .iter()
        .map(|t| {
            Engine::operational(ModelKind::Gam)
                .expect("operational engine")
                .check(t)
                .expect("in-process verdict")
                .is_allowed()
        })
        .collect();

    fault::install("explore=panic@2").expect("valid fault spec");
    let mut panicked = 0u64;
    let mut answered = 0u64;
    quiet_panics(|| {
        for (test, &want) in tests.iter().zip(&expected) {
            let (status, json) = post_check(&addr, &print_litmus(test));
            assert_eq!(status, 200, "a panicking checker is a typed row, not a failed request");
            let row = only_row(&json);
            if let Some(error) = row.get("error").and_then(Json::as_str) {
                assert!(
                    error.starts_with("the checker panicked"),
                    "typed panic error, got: {error}"
                );
                assert!(error.contains("injected fault: explore"), "payload survives: {error}");
                panicked += 1;
            } else {
                let verdict = row.get("verdict").and_then(Json::as_str).expect("verdict row");
                assert_eq!(verdict, if want { "allowed" } else { "forbidden" }, "{}", test.name());
                answered += 1;
            }
        }
    });
    fault::reset();

    // The @2 cadence splits the five requests deterministically.
    assert_eq!(panicked, 2);
    assert_eq!(answered, 3);
    assert_eq!(metric(&addr, "panics_total"), panicked);
    assert_metrics_reconcile(&addr);

    // Workers survived: with the plan disarmed every test answers, and the
    // previously panicked ones are now cache *misses* (panics cached nothing).
    for (test, &want) in tests.iter().zip(&expected) {
        let (_, json) = post_check(&addr, &print_litmus(test));
        let row = only_row(&json);
        let verdict = row.get("verdict").and_then(Json::as_str).expect("verdict after reset");
        assert_eq!(verdict, if want { "allowed" } else { "forbidden" });
    }
    assert_metrics_reconcile(&addr);

    server.shutdown();
}

#[test]
fn batch_counts_panics_per_test_and_finishes() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("batch");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    let tests = [library::corr(), library::mp(), library::dekker(), library::iriw()];
    let body =
        Json::object([("tests", Json::array(tests.iter().map(|t| Json::Str(print_litmus(t)))))]);

    fault::install("explore=panic@2").expect("valid fault spec");
    let response = quiet_panics(|| {
        request(&addr, "POST", "/batch", Some(&body.to_string())).expect("batch answers")
    });
    fault::reset();

    assert_eq!(response.status, 200);
    let json = Json::parse(&response.body).expect("batch JSON");
    let mut panicked = 0u64;
    let mut answered = 0u64;
    for row in json.get("results").and_then(Json::as_array).expect("results") {
        let pair = &row.get("results").and_then(Json::as_array).expect("pair rows")[0];
        match pair.get("error").and_then(Json::as_str) {
            Some(error) => {
                assert!(error.starts_with("the checker panicked"), "typed error: {error}");
                panicked += 1;
            }
            None => {
                assert!(pair.get("verdict").is_some());
                answered += 1;
            }
        }
    }
    assert_eq!(panicked + answered, tests.len() as u64);
    assert!(panicked > 0, "the armed plan must catch some batch entries");
    assert!(answered > 0, "the plan must spare some batch entries");
    assert_eq!(metric(&addr, "panics_total"), panicked);
    assert_metrics_reconcile(&addr);

    server.shutdown();
}

#[test]
fn injected_write_delay_trips_the_client_timeout_not_a_hang() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("delay");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // The response path stalls 400 ms; a 100 ms client gives up with a
    // typed timeout error instead of hanging.
    fault::install("http.write=delay:400").expect("valid fault spec");
    let client = ClientConfig::with_timeout(Duration::from_millis(100));
    let err = request_with(&addr, "GET", "/healthz", None, &client)
        .expect_err("the slow response must trip the client read timeout");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock),
        "typed timeout, got: {err}"
    );
    fault::reset();

    // The worker finished its delayed write into a dead socket and moved
    // on — the next request is served normally.
    let response = request(&addr, "GET", "/healthz", None).expect("service recovered");
    assert_eq!(response.status, 200);

    server.shutdown();
}

#[test]
fn killed_response_write_is_a_clean_close_and_the_worker_survives() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("write-kill");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // Every 2nd response write is torn down: the client sees a clean
    // error (connection closed / no bytes), never a hang or a 0-byte OK.
    fault::install("http.write=kill@2").expect("valid fault spec");
    let client = ClientConfig::with_timeout(Duration::from_secs(5));
    let mut failures = 0;
    let mut successes = 0;
    for _ in 0..4 {
        match request_with(&addr, "GET", "/healthz", None, &client) {
            Ok(response) => {
                assert_eq!(response.status, 200);
                successes += 1;
            }
            Err(_) => failures += 1,
        }
    }
    fault::reset();
    assert_eq!(failures, 2, "the @2 cadence tears down every other response");
    assert_eq!(successes, 2);

    let response = request(&addr, "GET", "/healthz", None).expect("workers survived");
    assert_eq!(response.status, 200);

    server.shutdown();
}

#[test]
fn slow_client_gets_408_and_is_counted() {
    let _guard = fault::exclusive();
    fault::reset();
    let scratch = Scratch::new("slow-client");
    let server = start_with(&scratch, Duration::from_millis(200));
    let addr = server.local_addr().to_string();

    // A half-open client: connects, sends an incomplete request, stalls.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.write_all(b"POST /check HTTP/1.1\r\n").expect("partial request");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    stream.read_to_string(&mut response).expect("server answers before closing");
    assert!(response.starts_with("HTTP/1.1 408"), "expected 408, got: {response}");
    assert!(response.contains("timed out"), "typed reason in body: {response}");

    assert_eq!(metric(&addr, "timeouts_total"), 1);
    // The timed-out request never reached a checker: not a check.
    assert_eq!(metric(&addr, "checks_total"), 0);
    assert_metrics_reconcile(&addr);

    server.shutdown();
}

#[test]
fn cache_compact_crash_leaves_the_journal_whole_and_loses_no_committed_entries() {
    let _guard = fault::exclusive();
    fault::reset();
    let scratch = Scratch::new("compact");

    // Round 1, no faults: commit one entry (shutdown compacts the journal).
    let server = start(&scratch);
    let addr = server.local_addr().to_string();
    let (_, json) = post_check(&addr, &print_litmus(&library::corr()));
    assert_eq!(only_row(&json).get("cached"), Some(&Json::Bool(false)));
    server.shutdown();

    // Round 2: every compaction dies between writing the fresh log and
    // renaming it over the live one. Mutations still reach the journal.
    fault::install("cache.compact=kill").expect("valid fault spec");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();
    // The committed entry is still served warm.
    let (_, json) = post_check(&addr, &print_litmus(&library::corr()));
    assert_eq!(only_row(&json).get("cached"), Some(&Json::Bool(true)));
    // A new entry is journaled before its response goes out...
    let (_, json) = post_check(&addr, &print_litmus(&library::mp()));
    assert_eq!(only_row(&json).get("cached"), Some(&Json::Bool(false)));
    let acknowledged = fs::read(&scratch.0).expect("journal present");
    // ...and the shutdown compaction is killed before its rename.
    server.shutdown();
    fault::reset();

    // The live journal is byte-identical to what was acknowledged; the
    // orphaned tmp file marks the crash point.
    let after_crash = fs::read(&scratch.0).expect("journal still present");
    assert_eq!(after_crash, acknowledged, "a killed compaction must never touch the journal");
    assert!(scratch.tmp_sibling().exists(), "the orphaned tmp file marks the crash point");
    let (journaled, warnings) = JournaledCache::open(&scratch.0, 256, 4096);
    assert!(warnings.is_empty(), "journal recovery must be clean: {warnings:?}");
    assert_eq!(journaled.cache().len(), 2, "the journaled mp insert survives");
    drop(journaled);

    // Round 3, faults off: the recovered service serves both entries warm,
    // and its shutdown compaction replaces the orphan.
    let server = start(&scratch);
    let addr = server.local_addr().to_string();
    for test in [library::corr(), library::mp()] {
        let (_, json) = post_check(&addr, &print_litmus(&test));
        assert_eq!(only_row(&json).get("cached"), Some(&Json::Bool(true)), "{}", test.name());
    }
    server.shutdown();
    assert!(!scratch.tmp_sibling().exists(), "a completed compaction renames its tmp file");
    let (journaled, warnings) = JournaledCache::open(&scratch.0, 256, 4096);
    assert!(warnings.is_empty());
    assert_eq!(journaled.cache().len(), 2, "both entries are committed once compactions work");
}

#[test]
fn torn_request_reads_are_typed_errors_and_workers_survive() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("read-kill");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // Every 2nd request read is torn down server-side before parsing; the
    // client sees a clean close (the 400 it writes may or may not arrive),
    // and the service keeps answering in between.
    fault::install("http.read=kill@2").expect("valid fault spec");
    let client = ClientConfig::with_timeout(Duration::from_secs(5));
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        outcomes.push(request_with(&addr, "GET", "/healthz", None, &client).map(|r| r.status));
    }
    fault::reset();
    let healthy = outcomes.iter().filter(|o| matches!(o, Ok(200))).count();
    assert_eq!(healthy, 2, "the @2 cadence spares every other request: {outcomes:?}");

    let response = request(&addr, "GET", "/healthz", None).expect("workers survived");
    assert_eq!(response.status, 200);
    assert_metrics_reconcile(&addr);

    server.shutdown();
}
