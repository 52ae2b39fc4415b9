//! `BENCHMARK.json` lists exactly the workloads and metrics the runs use, in
//! order. (The in-tree JSON reader has no floats, so the names and units are
//! read by scanning the file's sections.)

use gam_perfbench::{E2E_METRICS, LAYER_METRICS, WORKLOADS};

/// The string values of `key` in `section`, in order.
fn values<'a>(section: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    section
        .match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &section[at + pattern.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = |key: &str| text.find(&format!("\"{key}\"")).expect("section");
    let workloads = &text[start("workloads")..start("end_to_end")];
    let end_to_end = &text[start("end_to_end")..start("per_layer")];
    let per_layer = &text[start("per_layer")..];
    assert_eq!(values(workloads, "name"), WORKLOADS);
    for (section, table) in [(end_to_end, &E2E_METRICS[..]), (per_layer, &LAYER_METRICS[..])] {
        let listed: Vec<(&str, &str)> =
            values(section, "name").into_iter().zip(values(section, "unit")).collect();
        assert_eq!(listed, table);
    }
}
