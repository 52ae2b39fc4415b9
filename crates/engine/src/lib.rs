//! # gam-engine
//!
//! The unified checking facade of the GAM reproduction.
//!
//! The paper's central claim is that the axiomatic and the operational
//! definitions of GAM are *equivalent* — so the two backends deserve one API.
//! This crate provides it:
//!
//! * [`Checker`] — an object-safe trait implemented by both
//!   [`gam_axiomatic::AxiomaticChecker`] and
//!   [`gam_operational::OperationalChecker`], with one check method,
//!   [`Checker::run`]: a [`Query`] (`Verdict` stops at the first witness,
//!   `Outcomes` enumerates the complete allowed set) under a
//!   [`CheckBudget`], answered by an [`Answer`];
//! * [`EngineError`] — the unified error type both backends convert into;
//! * [`Engine`] / [`EngineBuilder`] — backend and model selection, the one
//!   fenced entry point [`Engine::run`] every check goes through (the
//!   blocking, budgeted and suite APIs are thin calls into it), and a
//!   parallel suite runner that fans litmus tests out over a thread pool
//!   and returns a structured, JSON-serializable [`SuiteReport`];
//! * [`json`] — a dependency-free JSON tree ([`Json`], [`ToJson`]) used for
//!   machine-readable result export;
//! * [`session`] — per-check limits ([`CheckBudget`]) and the three-valued
//!   [`SessionVerdict`]: budget exhaustion is an *inconclusive verdict with
//!   partial outcomes*, not an error. [`Engine::check_budgeted`] is the
//!   budgeted shorthand of [`Engine::run`], whose panic fence turns a
//!   panicking checker into [`EngineError::Panicked`];
//! * [`report`] — [`ResultRow`], the one row of one (model, backend)
//!   answer that every check, suite, serve and checkpoint report prints,
//!   and the [`SuiteReport`] that groups a suite's rows;
//! * [`checkpoint`] — crash-durable run checkpoints ([`RunCheckpoint`]): an
//!   append-only CRC-framed log of completed work units' rows that lets
//!   `gam check --checkpoint` continue a killed run, skipping every unit
//!   that already finished.
//!
//! # Quick start
//!
//! ```
//! use gam_engine::{Backend, CheckBudget, Engine, Query, SessionVerdict};
//! use gam_core::ModelKind;
//! use gam_isa::litmus::library;
//!
//! // Check one test through each backend — same trait, same answers.
//! let test = library::dekker();
//! for backend in Backend::ALL {
//!     let engine = Engine::builder()
//!         .model(ModelKind::Gam)
//!         .backend(backend)
//!         .build()
//!         .unwrap();
//!     assert!(engine.check(&test).unwrap().is_allowed());
//!     // The same check through the one entry point: the verdict query
//!     // stops at its first witness and returns it.
//!     let answer = engine.run(&test, Query::Verdict, &CheckBudget::none()).unwrap();
//!     assert_eq!(answer.verdict, SessionVerdict::Allowed);
//!     assert!(test.condition().matched_by(answer.outcomes.first().unwrap()));
//! }
//!
//! // Run a whole suite in parallel and inspect the structured report.
//! let engine = Engine::builder().model(ModelKind::Gam).parallelism(4).build().unwrap();
//! let report = engine.run_suite(&library::paper_tests());
//! assert!(report.all_ok());
//! let json = report.to_json_string();
//! assert!(json.contains("\"model\":\"GAM\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod json;
pub mod report;
pub mod session;

pub use checker::{Answer, Checker, Query};
pub use checkpoint::{RunCheckpoint, CHECKPOINT_SCHEMA};
pub use engine::{Backend, Engine, EngineBuilder};
pub use error::EngineError;
pub use json::{Json, JsonParseError, ToJson};
pub use report::{ResultRow, RowAnswer, SuiteReport, TestReport};
pub use session::{CheckBudget, SessionVerdict};

// Re-exported so facade users can name verdicts and configs without
// depending on the backend crates directly.
pub use gam_axiomatic::{CheckerConfig, Verdict};
pub use gam_core::{CancelToken, Interrupt, StopReason};
pub use gam_operational::{ArenaOccupancy, ExplorerConfig, MemoryConfig, MemoryStats};
