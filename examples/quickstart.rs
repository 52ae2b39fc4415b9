//! Quickstart: build a litmus test by hand and check it against every memory
//! model through the unified engine facade — then confirm the GAM verdict
//! through the operational backend, using the *same* API.
//!
//! Run with: `cargo run --example quickstart`

use gam::core::{model, ModelKind};
use gam::engine::{Backend, CheckBudget, Engine, Query};
use gam::isa::litmus::LitmusTest;
use gam::isa::prelude::*;

fn main() {
    // The message-passing idiom: P1 publishes data then sets a flag,
    // P2 reads the flag then the data. No fences, no dependencies.
    let data = Loc::new("data");
    let flag = Loc::new("flag");

    let mut producer = ThreadProgram::builder(ProcId::new(0));
    producer.store(Addr::loc(data), Operand::imm(42)).store(Addr::loc(flag), Operand::imm(1));

    let mut consumer = ThreadProgram::builder(ProcId::new(1));
    consumer.load(Reg::new(1), Addr::loc(flag)).load(Reg::new(2), Addr::loc(data));

    let program = Program::new(vec![producer.build(), consumer.build()]);
    let test = LitmusTest::builder("mp-quickstart", program)
        .description(
            "message passing without fences: can the consumer see the flag but stale data?",
        )
        .expect_reg(ProcId::new(1), Reg::new(1), 1u64)
        .expect_reg(ProcId::new(1), Reg::new(2), 0u64)
        .build();

    println!("{test}");
    println!("Is the stale-data outcome allowed? (axiomatic engine)");
    for spec in model::all() {
        let engine = Engine::axiomatic(spec.kind());
        let verdict = engine.check(&test).expect("checkable");
        println!("  {:<8} {}", spec.name(), verdict);
    }

    // Cross-check GAM's verdict on the abstract machine: same facade, other
    // backend — the paper's Theorem 1 says the answers must coincide.
    let operational = Engine::builder()
        .model(ModelKind::Gam)
        .backend(Backend::Operational)
        .build()
        .expect("GAM has an abstract machine");
    let outcomes = operational.allowed_outcomes(&test).expect("explorable");
    // A verdict query stops at the first witness and answers with it.
    let answer = operational.run(&test, Query::Verdict, &CheckBudget::none()).expect("explorable");
    println!();
    println!(
        "GAM abstract machine ({} backend): {} reachable outcomes, stale-data outcome {}",
        operational.checker().name(),
        outcomes.len(),
        answer.verdict
    );
    for outcome in &answer.outcomes {
        println!("  witness outcome: {outcome}");
    }
    println!();
    println!("Fix: add a FenceSS on the producer and a FenceLL on the consumer,");
    println!("or make the second load depend on the first (see `mp+addr` in the library).");
}
