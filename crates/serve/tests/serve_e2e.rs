//! End-to-end tests against a live server: health, raw-text and JSON
//! checks, canonicalizing cache hits, batch checking, metrics consistency,
//! persistence across a restart, bind-failure reporting, and a bounded
//! request head.

use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use gam_core::ModelKind;
use gam_engine::{Engine, Json};
use gam_frontend::{canonical_test, print_litmus};
use gam_isa::litmus::library;
use gam_serve::http::request;
use gam_serve::{ServeConfig, ServeError, Server};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("gam-serve-e2e-{}-{tag}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn start(cache_path: &Scratch) -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_path: cache_path.0.clone(),
        cache_capacity: 256,
        ..ServeConfig::default()
    };
    let (server, warning) = Server::start(&config).expect("server starts");
    assert!(warning.is_none(), "scratch cache must load silently: {warning:?}");
    server
}

fn json_body(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    let response = request(addr, method, path, body).expect("request succeeds");
    let json = Json::parse(&response.body)
        .unwrap_or_else(|err| panic!("bad JSON from {path}: {err}: {}", response.body));
    (response.status, json)
}

/// The single (model, backend) result row of a `/check` response.
fn only_result(json: &Json) -> &Json {
    let results =
        json.get("result").and_then(|r| r.get("results")).and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 1);
    &results[0]
}

#[test]
fn every_response_carries_a_unique_trace_id_and_slow_requests_are_logged() {
    let scratch = Scratch::new("trace-id");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_path: scratch.0.clone(),
        cache_capacity: 256,
        // Everything is "slow" at a zero threshold, so each request must
        // land in the slow log with its trace id.
        slow_threshold: std::time::Duration::ZERO,
        ..ServeConfig::default()
    };
    let (server, _) = Server::start(&config).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut trace_ids = Vec::new();
    for _ in 0..2 {
        let response = request(&addr, "GET", "/healthz", None).expect("healthz answers");
        let id = response
            .header("x-gam-trace-id")
            .expect("every response echoes X-Gam-Trace-Id")
            .to_string();
        assert_eq!(id.len(), 16, "trace id is 16 hex digits: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "hex trace id: {id}");
        trace_ids.push(id);
    }
    assert_ne!(trace_ids[0], trace_ids[1], "each request gets its own trace id");

    let (status, slow) = json_body(&addr, "GET", "/debug/slow", None);
    assert_eq!(status, 200);
    assert_eq!(slow.get("schema").and_then(Json::as_str), Some("gam-serve-slow/v1"));
    let entries = slow.get("entries").and_then(Json::as_array).expect("entries");
    assert!(entries.len() >= 2, "both healthz requests exceeded the zero threshold");
    for id in &trace_ids {
        assert!(
            entries.iter().any(|e| e.get("trace_id").and_then(Json::as_str) == Some(id)),
            "slow log lost trace id {id}"
        );
    }
    let logged_paths: Vec<_> =
        entries.iter().filter_map(|e| e.get("path").and_then(Json::as_str)).collect();
    assert!(logged_paths.contains(&"/healthz"), "slow entries name their path: {logged_paths:?}");

    // The additive v2 counter agrees with the log.
    let (_, metrics) = json_body(&addr, "GET", "/metrics", None);
    assert_eq!(metrics.get("schema").and_then(Json::as_str), Some("gam-serve-metrics/v3"));
    let slow_total = metrics.get("slow_requests_total").and_then(Json::as_u64).expect("v2 field");
    assert!(slow_total >= entries.len() as u64);

    server.shutdown();
}

#[test]
fn each_request_is_recorded_before_its_response_goes_out() {
    // A client that reads the slow log right after its response must find
    // its own request there, every time: the server records latency and the
    // slow-log entry before writing the response, not after.
    let scratch = Scratch::new("record-first");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_path: scratch.0.clone(),
        cache_capacity: 256,
        slow_threshold: std::time::Duration::ZERO,
        ..ServeConfig::default()
    };
    let (server, _) = Server::start(&config).expect("server starts");
    let addr = server.local_addr().to_string();

    for round in 0..50 {
        let response = request(&addr, "GET", "/healthz", None).expect("healthz answers");
        let id = response.header("x-gam-trace-id").expect("trace id").to_string();
        let (_, slow) = json_body(&addr, "GET", "/debug/slow", None);
        let entries = slow.get("entries").and_then(Json::as_array).expect("entries");
        assert!(
            entries.iter().any(|e| e.get("trace_id").and_then(Json::as_str) == Some(&id)),
            "round {round}: the slow log misses the request just answered ({id})"
        );
    }

    // Failed response writes have a counter of their own.
    let scrape = request(&addr, "GET", "/metrics?format=prometheus", None).expect("scrape");
    assert!(scrape.body.contains("serve_write_errors_total"), "{}", scrape.body);

    server.shutdown();
}

#[test]
fn healthz_and_unknown_routes() {
    let scratch = Scratch::new("health");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    let (status, json) = json_body(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));

    let (status, _) = json_body(&addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = json_body(&addr, "DELETE", "/healthz", None);
    assert_eq!(status, 405);
    let (status, _) = json_body(&addr, "POST", "/check", Some("not a litmus test"));
    assert_eq!(status, 400);

    server.shutdown();
}

#[test]
fn an_endless_header_line_is_refused_and_the_server_keeps_answering() {
    let scratch = Scratch::new("head-cap");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // One 1 MiB header line: the server must stop reading at its head cap
    // and answer 400, not buffer the line until its read timeout fires.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("client timeout");
    let mut head = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    head.resize(head.len() + (1 << 20), b'a');
    let mut writer = stream.try_clone().expect("clones");
    // The server may close mid-upload, so a failed write is expected.
    let upload = std::thread::spawn(move || {
        let _ = writer.write_all(&head);
    });
    let mut response = Vec::new();
    // A reset after the response arrived still leaves the response read.
    let _ = stream.read_to_end(&mut response);
    upload.join().expect("upload thread");
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 400"), "expected 400, got: {response:.200}");
    assert!(response.contains("request head too large"), "typed reason: {response:.200}");

    let (status, _) = json_body(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn check_caches_and_canonicalizes() {
    let scratch = Scratch::new("check");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    let mp = library::mp();
    let expected = Engine::operational(ModelKind::Gam)
        .expect("operational engine")
        .check(&mp)
        .expect("in-process verdict")
        .is_allowed();
    let verdict = if expected { "allowed" } else { "forbidden" };

    // Cold: raw litmus text, default model/backend (gam/operational).
    let (status, json) = json_body(&addr, "POST", "/check", Some(&print_litmus(&mp)));
    assert_eq!(status, 200);
    let row = only_result(&json);
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some(verdict));
    assert_eq!(row.get("cached"), Some(&Json::Bool(false)));
    let hash = json
        .get("result")
        .and_then(|r| r.get("canonical_hash"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Warm: byte-identical resubmission hits.
    let (_, json) = json_body(&addr, "POST", "/check", Some(&print_litmus(&mp)));
    assert_eq!(only_result(&json).get("cached"), Some(&Json::Bool(true)));

    // Canonicalizing: a fully renamed variant (the canonical form itself,
    // with fresh register/location names) still hits the same entry.
    let renamed = print_litmus(&canonical_test(&mp));
    assert_ne!(renamed, print_litmus(&mp), "renaming must change the text");
    let (_, json) = json_body(&addr, "POST", "/check", Some(&renamed));
    let row = only_result(&json);
    assert_eq!(row.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some(verdict));
    assert_eq!(
        json.get("result").and_then(|r| r.get("canonical_hash")).and_then(Json::as_str),
        Some(hash.as_str()),
        "renamed variant must share the canonical hash"
    );

    server.shutdown();
}

#[test]
fn check_json_envelope_selects_models_and_backends() {
    let scratch = Scratch::new("envelope");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    let sb = library::dekker();
    let envelope = Json::object([
        ("litmus", Json::Str(print_litmus(&sb))),
        ("models", Json::array([Json::Str("sc".into()), Json::Str("tso".into())])),
        ("backends", Json::array([Json::Str("axiomatic".into()), Json::Str("operational".into())])),
    ]);
    let (status, json) = json_body(&addr, "POST", "/check", Some(&envelope.to_string()));
    assert_eq!(status, 200);
    let results =
        json.get("result").and_then(|r| r.get("results")).and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 4, "2 models x 2 backends");
    for row in results {
        let model = row.get("model").and_then(Json::as_str).unwrap();
        let backend = row.get("backend").and_then(Json::as_str).unwrap();
        let verdict = row.get("verdict").and_then(Json::as_str);
        // Dekker (store buffering): its relaxed outcome is forbidden under
        // SC and allowed under TSO, on both backends.
        let expected = if model == "SC" { "forbidden" } else { "allowed" };
        assert_eq!(verdict, Some(expected), "{model}/{backend}");
    }

    // Unknown model names are a client error.
    let bad = Json::object([
        ("litmus", Json::Str(print_litmus(&sb))),
        ("models", Json::array([Json::Str("power".into())])),
    ]);
    let (status, _) = json_body(&addr, "POST", "/check", Some(&bad.to_string()));
    assert_eq!(status, 400);

    server.shutdown();
}

#[test]
fn batch_agrees_with_in_process_suite_and_metrics_add_up() {
    let scratch = Scratch::new("batch");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    let tests: Vec<_> = library::all_tests().into_iter().take(6).collect();
    let engine = Engine::operational(ModelKind::Gam).expect("operational engine");
    let suite = engine.run_suite_verdicts(&tests);

    let body =
        Json::object([("tests", Json::array(tests.iter().map(|t| Json::Str(print_litmus(t)))))]);
    let (status, json) = json_body(&addr, "POST", "/batch", Some(&body.to_string()));
    assert_eq!(status, 200);
    let results = json.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), tests.len());
    for (test, row) in tests.iter().zip(results) {
        let in_process = suite
            .report_for(test.name())
            .and_then(|r| r.row.verdict())
            .unwrap_or_else(|| panic!("in-process verdict for {}", test.name()));
        let expected = if in_process.is_allowed() { "allowed" } else { "forbidden" };
        let pair = &row.get("results").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            pair.get("verdict").and_then(Json::as_str),
            Some(expected),
            "verdict agreement for {}",
            test.name()
        );
        assert_eq!(pair.get("cached"), Some(&Json::Bool(false)));
    }

    // Second identical batch: all hits.
    let (_, json) = json_body(&addr, "POST", "/batch", Some(&body.to_string()));
    for row in json.get("results").and_then(Json::as_array).unwrap() {
        let pair = &row.get("results").and_then(Json::as_array).unwrap()[0];
        assert_eq!(pair.get("cached"), Some(&Json::Bool(true)));
    }

    // Metrics must account for exactly these checks — including the
    // robustness counters, all zero on this fault-free run.
    let (_, metrics) = json_body(&addr, "GET", "/metrics", None);
    let get = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(get("cache_misses"), tests.len() as u64);
    assert_eq!(get("cache_hits"), tests.len() as u64);
    assert_eq!(
        get("checks_total"),
        get("cache_hits") + get("cache_misses") + get("inconclusive_total") + get("panics_total")
    );
    assert_eq!(get("inconclusive_total"), 0);
    assert_eq!(get("panics_total"), 0);
    assert_eq!(get("timeouts_total"), 0);
    assert_eq!(get("cancelled_total"), 0);
    assert_eq!(get("hit_rate_permille"), 500);
    assert_eq!(get("cache_entries"), tests.len() as u64);
    assert_eq!(
        metrics.get("per_model_checks").and_then(|m| m.get("gam")).and_then(Json::as_u64),
        Some(2 * tests.len() as u64)
    );

    server.shutdown();
}

#[test]
fn budgeted_check_reports_inconclusive_and_is_not_cached() {
    let scratch = Scratch::new("budget");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    // A zero wall budget trips on the explorer's first interrupt poll.
    let iriw = library::iriw();
    let envelope = Json::object([
        ("litmus", Json::Str(print_litmus(&iriw))),
        ("budget_wall_ms", Json::UInt(0)),
    ]);
    let (status, json) = json_body(&addr, "POST", "/check", Some(&envelope.to_string()));
    assert_eq!(status, 200);
    let row = only_result(&json);
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some("inconclusive"));
    assert_eq!(row.get("cached"), Some(&Json::Bool(false)));
    let reason = row.get("reason").and_then(Json::as_str).expect("inconclusive rows carry reasons");
    assert!(reason.contains("wall budget"), "unexpected reason: {reason}");

    // Inconclusive results are counted but never cached: the unbudgeted
    // resubmission is a miss that produces the real verdict.
    let (_, json) = json_body(&addr, "POST", "/check", Some(&print_litmus(&iriw)));
    let row = only_result(&json);
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some("allowed"));
    assert_eq!(row.get("cached"), Some(&Json::Bool(false)));

    let (_, metrics) = json_body(&addr, "GET", "/metrics", None);
    let get = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(get("inconclusive_total"), 1);
    assert_eq!(get("timeouts_total"), 1, "wall-budget exhaustion counts as a timeout");
    assert_eq!(get("cancelled_total"), 0);
    assert_eq!(get("cache_misses"), 1);
    assert_eq!(
        get("checks_total"),
        get("cache_hits") + get("cache_misses") + get("inconclusive_total") + get("panics_total")
    );

    server.shutdown();
}

#[test]
fn shutdown_endpoint_requests_a_graceful_drain() {
    let scratch = Scratch::new("shutdown");
    let server = start(&scratch);
    let addr = server.local_addr().to_string();

    assert!(!server.shutdown_requested());
    let (status, json) = json_body(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("draining"));
    assert!(server.shutdown_requested());
    // The flag is observable without blocking once set.
    server.wait_for_shutdown_request();

    server.shutdown();
}

#[test]
fn cache_survives_a_restart() {
    let scratch = Scratch::new("restart");
    let mp = library::mp();

    let server = start(&scratch);
    let addr = server.local_addr().to_string();
    let (_, json) = json_body(&addr, "POST", "/check", Some(&print_litmus(&mp)));
    assert_eq!(only_result(&json).get("cached"), Some(&Json::Bool(false)));
    server.shutdown();

    // A new server over the same cache file answers warm immediately.
    let server = start(&scratch);
    let addr = server.local_addr().to_string();
    let (_, json) = json_body(&addr, "POST", "/check", Some(&print_litmus(&mp)));
    assert_eq!(only_result(&json).get("cached"), Some(&Json::Bool(true)));
    let (_, metrics) = json_body(&addr, "GET", "/metrics", None);
    assert_eq!(metrics.get("hit_rate_permille").and_then(Json::as_u64), Some(1000));
    server.shutdown();
}

#[test]
fn bind_failure_is_reported_not_panicked() {
    let occupied = TcpListener::bind("127.0.0.1:0").expect("probe listener");
    let addr = occupied.local_addr().unwrap().to_string();
    let scratch = Scratch::new("bind");
    let config =
        ServeConfig { addr: addr.clone(), cache_path: scratch.0.clone(), ..ServeConfig::default() };
    match Server::start(&config) {
        Err(ServeError::Bind { addr: reported, .. }) => assert_eq!(reported, addr),
        Ok(_) => panic!("binding an occupied port must fail"),
    }
}

#[test]
fn memory_watermark_tightens_admission_to_a_sound_uncached_inconclusive() {
    let scratch = Scratch::new("memory");
    // A one-byte watermark puts the server permanently "under pressure":
    // every request's explorer budget is clamped to overload_mem_bytes,
    // and a clamp this small trips before the first witness.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_path: scratch.0.clone(),
        cache_capacity: 256,
        mem_watermark_bytes: 1,
        overload_mem_bytes: 64,
        ..ServeConfig::default()
    };
    let (server, warning) = Server::start(&config).expect("server starts");
    assert!(warning.is_none(), "scratch cache must load silently: {warning:?}");
    let addr = server.local_addr().to_string();

    // IRIW is forbidden under SC on the operational backend, so the witness
    // search must exhaust the state space — guaranteeing the tiny clamp
    // trips before a witness can soundly upgrade the partial answer.
    let iriw = library::iriw();
    let envelope = Json::object([
        ("litmus", Json::Str(print_litmus(&iriw))),
        ("models", Json::array([Json::Str("sc".into())])),
        ("backends", Json::array([Json::Str("operational".into())])),
    ]);
    let (status, json) = json_body(&addr, "POST", "/check", Some(&envelope.to_string()));
    assert_eq!(status, 200, "pressure degrades the answer, not the protocol");
    let row = only_result(&json);
    assert_eq!(row.get("verdict").and_then(Json::as_str), Some("inconclusive"));
    assert_eq!(row.get("cached"), Some(&Json::Bool(false)));
    let reason = row.get("reason").and_then(Json::as_str).expect("inconclusive rows carry reasons");
    assert!(reason.contains("memory budget"), "unexpected reason: {reason}");

    let (_, metrics) = json_body(&addr, "GET", "/metrics", None);
    let get = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap();
    assert!(get("memory_resident_bytes") > 0, "watermark checks sample the RSS");
    assert!(get("memory_tightened_total") >= 1, "the request budget must have been clamped");
    assert!(get("memory_budget_stops_total") >= 1, "the clamped budget must have tripped");
    // Pressure inconclusives stay out of the cache: nothing to poison a
    // later, less-pressured request with.
    assert_eq!(get("cache_entries"), 0);

    server.shutdown();
}
