//! The unbudgeted `gam check --json` document, pinned through the real
//! binary: `gam check` reports one single-test suite report per supported
//! (model, backend) pair, each holding that pair's result row, diffed
//! across backends and against the paper's expectation table. The shape,
//! the per-pair verdicts and the exit codes (0 when clean, 1 on a
//! mismatch) are what scripts consume.

use std::path::Path;
use std::process::Command;

use gam_engine::Json;

/// Runs `gam check FILE --json`; returns the exit code and the document.
fn check_json(file: &Path) -> (Option<i32>, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_gam"))
        .env_remove("GAM_FAULTS")
        .arg("check")
        .arg(file)
        .arg("--json")
        .output()
        .expect("gam check runs");
    let document = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("report parses");
    assert_eq!(
        keys(&document),
        ["suite", "models", "reports", "mismatches", "coverage_gaps", "ok"]
    );
    (output.status.code(), document)
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Object(pairs) => pairs.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn text(json: &Json, key: &str) -> Option<String> {
    json.get(key).and_then(Json::as_str).map(str::to_string)
}

fn len(json: &Json, key: &str) -> Option<usize> {
    json.get(key).and_then(Json::as_array).map(<[Json]>::len)
}

/// `(model, backend, verdict, error)` of every report, in document order.
fn pairs(document: &Json) -> Vec<(String, String, Option<String>, Option<String>)> {
    let reports = document.get("reports").and_then(Json::as_array).expect("reports");
    let pair = |report: &Json| {
        assert_eq!(keys(report), ["suite", "backend", "model", "parallelism", "wall_us", "tests"]);
        assert_eq!(report.get("parallelism").and_then(Json::as_u64), Some(1));
        assert_eq!(len(report, "tests"), Some(1), "a single-test suite per pair");
        let row = &report.get("tests").and_then(Json::as_array).expect("tests")[0];
        assert_eq!(
            keys(row),
            [
                "test",
                "model",
                "backend",
                "verdict",
                "reason",
                "states",
                "partial_outcomes",
                "wall_us",
                "error"
            ]
        );
        assert_eq!(text(row, "model"), text(report, "model"), "the row names its pair");
        assert_eq!(text(row, "backend"), text(report, "backend"), "the row names its pair");
        assert_eq!(row.get("reason"), Some(&Json::Null), "an unbudgeted check concludes or errs");
        assert_eq!(row.get("partial_outcomes").and_then(Json::as_u64), Some(0));
        let model = text(report, "model").expect("model");
        (model, text(report, "backend").expect("backend"), text(row, "verdict"), text(row, "error"))
    };
    reports.iter().map(pair).collect()
}

#[test]
fn a_clean_check_reports_every_pair_and_exits_zero() {
    let dekker = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/dekker.litmus");
    let (code, document) = check_json(&dekker);
    assert_eq!(code, Some(0));
    assert_eq!(document.get("ok"), Some(&Json::Bool(true)));
    assert_eq!((len(&document, "mismatches"), len(&document, "coverage_gaps")), (Some(0), Some(0)));
    let models = document.get("models").and_then(Json::as_array).expect("models");
    let models: Vec<&str> = models.iter().filter_map(Json::as_str).collect();
    assert_eq!(models, ["SC", "TSO", "GAM", "GAM0", "GAM-ARM"]);
    // Pairs come model-major, axiomatic first; GAM-ARM has no machine.
    let expected: Vec<_> = [
        ("SC", "axiomatic", "forbidden"),
        ("SC", "operational", "forbidden"),
        ("TSO", "axiomatic", "allowed"),
        ("TSO", "operational", "allowed"),
        ("GAM", "axiomatic", "allowed"),
        ("GAM", "operational", "allowed"),
        ("GAM0", "axiomatic", "allowed"),
        ("GAM0", "operational", "allowed"),
        ("GAM-ARM", "axiomatic", "allowed"),
    ]
    .into_iter()
    .map(|(m, b, verdict)| (m.to_string(), b.to_string(), Some(verdict.to_string()), None))
    .collect();
    assert_eq!(pairs(&document), expected);
}

#[test]
fn a_backend_error_is_a_mismatch_and_exits_one() {
    // The axiomatic backend has no branch semantics, so every axiomatic
    // pair errors and each model reports a mismatch.
    let dir = std::env::temp_dir().join(format!("gam-check-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("branchy.litmus");
    let litmus = "GAM branchy\nP1 | P2 ;\nr1 = Ld [b] | St [b] 1 ;\nbeq r1, 0 -> end | ;\n\
                  St [a] 1 | ;\nend: | ;\nlocations (P1:r1)\nexists (P1:r1 = 1)\n";
    std::fs::write(&file, litmus).expect("write test");
    let (code, document) = check_json(&file);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1));
    assert_eq!(document.get("ok"), Some(&Json::Bool(false)));
    let mismatches = document.get("mismatches").and_then(Json::as_array).expect("mismatches");
    assert_eq!(mismatches.len(), 5, "one per model");
    for mismatch in mismatches {
        assert_eq!(keys(mismatch), ["test", "model", "detail"]);
        let detail = text(mismatch, "detail").expect("detail");
        assert!(detail.starts_with("axiomatic backend error: "), "{detail}");
    }
    for (model, backend, verdict, error) in pairs(&document) {
        if backend == "axiomatic" {
            assert_eq!(verdict, None, "{model}");
            assert!(error.expect("axiomatic error").contains("branches"), "{model}");
        } else {
            assert_eq!((verdict.as_deref(), error), (Some("allowed"), None), "{model}");
        }
    }
}
