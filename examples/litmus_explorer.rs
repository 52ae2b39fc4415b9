//! Explore the full litmus-test library: print every model's verdict on
//! every test (the verdict matrix of both backends, diffed against the
//! paper), or one test with a witness execution for each allowed verdict.
//! Verdicts and witness outcomes come from the engine facade; the detailed
//! read-from relation and memory order are a backend-specific extra fetched
//! from the axiomatic checker directly (the soft-deprecated direct API
//! remains available exactly for such cases).
//!
//! Run with: `cargo run --example litmus_explorer [-- <test-name | file.litmus>]`
//!
//! The argument may be a library test name *or* a path to a `.litmus` file
//! (anything containing a path separator or ending in `.litmus`), which is
//! parsed through the text frontend — so the example exercises arbitrary
//! user-supplied workloads, not just the built-in library.

use gam::axiomatic::AxiomaticChecker;
use gam::core::{model, ModelKind};
use gam::engine::{Backend, Engine};
use gam::frontend::{parse_litmus, print_litmus};
use gam::isa::litmus::library;
use gam::isa::litmus::LitmusTest;
use gam::verify::expectations;
use gam::verify::matrix::{diff_reports, render_matrix, run_matrix};

/// Resolves the argument: a `.litmus` path goes through the text frontend,
/// anything else is looked up in the built-in library.
fn resolve(arg: &str) -> LitmusTest {
    if arg.ends_with(".litmus") || arg.contains(std::path::MAIN_SEPARATOR) {
        let text = std::fs::read_to_string(arg).unwrap_or_else(|err| {
            eprintln!("cannot read {arg}: {err}");
            std::process::exit(1);
        });
        parse_litmus(&text).unwrap_or_else(|err| {
            eprintln!("{arg}: {err}");
            std::process::exit(1);
        })
    } else if let Some(test) = library::by_name(arg) {
        test
    } else {
        eprintln!("unknown litmus test `{arg}`; available tests:");
        for test in library::all_tests() {
            eprintln!("  {}", test.name());
        }
        eprintln!("(or pass a path to a .litmus file)");
        std::process::exit(1);
    }
}

fn main() {
    let filter: Option<String> = std::env::args().nth(1);

    match filter {
        None => {
            let tests = library::all_tests();
            println!("{} litmus tests in the library\n", tests.len());
            let models = ModelKind::ALL;
            let reports = run_matrix(&tests, "library", &models, &Backend::ALL, 4, 1)
                .expect("every model has a backend");
            let mismatches = diff_reports(&tests, &models, &reports, |test, model| {
                expectations::expectation_for(test).map(|row| row.allowed(model))
            });
            print!("{}", render_matrix(&tests, &models, &reports, &mismatches));
            println!();
            for mismatch in &mismatches {
                println!("MISMATCH {mismatch}");
            }
            if !mismatches.is_empty() {
                std::process::exit(1);
            }
            println!("A = allowed, F = forbidden; both backends agree and match the paper.\n");
            println!(
                "Run `cargo run --example litmus_explorer -- <name | file.litmus>` for details \
                 on one test."
            );
        }
        Some(name) => {
            let test = resolve(&name);
            println!("{}", print_litmus(&test));
            for spec in model::all() {
                let engine = Engine::axiomatic(spec.kind());
                let verdict = engine.check(&test).expect("checkable");
                println!("{:<8} {}", spec.name(), verdict);
                if verdict.is_allowed() {
                    // Backend-specific detail: the axiomatic witness carries
                    // the read-from relation and the global memory order on
                    // top of the witnessing outcome.
                    let detailed =
                        AxiomaticChecker::new(spec.clone()).find_witness(&test).expect("checkable");
                    if let Some(witness) = detailed {
                        println!("  witness outcome : {}", witness.outcome);
                        let rf: Vec<String> = witness
                            .rf
                            .iter()
                            .map(|(load, src)| format!("{load} <- {src:?}"))
                            .collect();
                        println!("  read-from       : {}", rf.join(", "));
                        let mo: Vec<String> =
                            witness.memory_order.iter().map(ToString::to_string).collect();
                        println!("  memory order    : {}", mo.join(" -> "));
                    }
                }
            }
        }
    }
}
