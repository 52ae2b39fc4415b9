//! Every conclusive cache miss records what it cost to compute.
//!
//! A hit answers with the `states` its entry recorded, and the journal
//! keeps them across restarts, so an entry stored with `states: 0` tells
//! every later client the check cost nothing. Budgeted `/check` misses and
//! `/batch` misses must persist the states their search visited, like
//! unbudgeted `/check` misses do.
//!
//! An unbudgeted miss asks for the verdict only, so the states it records
//! are the states the verdict needed: an allowed operational verdict stops
//! at its first witness, a forbidden one pays for the whole space.

use gam_core::ModelKind;
use gam_engine::Json;
use gam_frontend::print_litmus;
use gam_isa::litmus::library;
use gam_operational::OperationalChecker;
use gam_serve::http::request;
use gam_serve::{ServeConfig, Server};

/// `(cached, states, verdict)` of the first row of a `/check` or `/batch`
/// response.
fn post(server: &Server, path: &str, body: &Json) -> (bool, u64, String) {
    let addr = server.local_addr().to_string();
    let response = request(&addr, "POST", path, Some(&body.to_string())).expect("request");
    assert_eq!(response.status, 200, "{}", response.body);
    let json = Json::parse(&response.body).expect("JSON response");
    let result = match json.get("results").and_then(Json::as_array) {
        Some(tests) => &tests[0],
        None => json.get("result").expect("result"),
    };
    let row = &result.get("results").and_then(Json::as_array).expect("results")[0];
    (
        row.get("cached") == Some(&Json::Bool(true)),
        row.get("states").and_then(Json::as_u64).expect("states"),
        row.get("verdict").and_then(Json::as_str).expect("verdict").to_string(),
    )
}

/// A one-worker server over a fresh cache file named after `tag`, and the
/// closure that removes that file.
fn fresh_config(tag: &str) -> (ServeConfig, impl Fn()) {
    let cache_path =
        std::env::temp_dir().join(format!("gam-serve-{tag}-{}.json", std::process::id()));
    let clean = {
        let cache_path = cache_path.clone();
        move || {
            let _ = std::fs::remove_file(&cache_path);
        }
    };
    clean();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path,
        ..ServeConfig::default()
    };
    (config, clean)
}

#[test]
fn unbudgeted_operational_misses_record_the_states_their_verdict_needed() {
    let (config, clean) = fresh_config("verdict-costs");
    let server = Server::start(&config).expect("server starts").0;
    let explorer = OperationalChecker::new(ModelKind::Gam);
    // A bare litmus body checks GAM on the operational backend, unbudgeted.
    for (test, verdict) in [(library::mp(), "allowed"), (library::mp_addr(), "forbidden")] {
        let full = explorer.explore(&test).expect("explores").states_visited as u64;
        let body = Json::object([("litmus", Json::Str(print_litmus(&test)))]);
        let (cached, states, answer) = post(&server, "/check", &body);
        assert!(!cached, "{}: a cold check is a miss", test.name());
        assert_eq!(answer, verdict, "{}", test.name());
        if verdict == "allowed" {
            assert!(
                states > 0 && states < full,
                "{}: an allowed verdict stops at its witness ({states} of {full} states)",
                test.name()
            );
        } else {
            assert_eq!(states, full, "{}: a forbidden verdict explores everything", test.name());
        }
        // The verdict-only answer is conclusive, so it is cached as it was.
        assert_eq!(post(&server, "/check", &body), (true, states, answer), "{}", test.name());
    }
    server.shutdown();
    clean();
}

#[test]
fn budgeted_check_and_batch_misses_persist_their_state_counts() {
    let (config, clean) = fresh_config("costs");
    let budgeted = Json::object([
        ("litmus", Json::Str(print_litmus(&library::mp()))),
        ("budget_wall_ms", Json::UInt(60_000)),
    ]);
    let batch =
        Json::object([("tests", Json::array([Json::Str(print_litmus(&library::dekker()))]))]);

    let server = Server::start(&config).expect("server starts").0;
    let (cached, check_states, check_verdict) = post(&server, "/check", &budgeted);
    assert!(!cached && check_states > 0, "a budgeted operational miss reports its states");
    let (cached, batch_states, batch_verdict) = post(&server, "/batch", &batch);
    assert!(!cached && batch_states > 0, "a batch operational miss reports its states");
    server.shutdown();

    // After a restart both entries answer from the persisted cache with
    // the state counts their misses recorded.
    let server = Server::start(&config).expect("server restarts").0;
    assert_eq!(post(&server, "/check", &budgeted), (true, check_states, check_verdict));
    assert_eq!(post(&server, "/batch", &batch), (true, batch_states, batch_verdict));
    server.shutdown();
    clean();
}
