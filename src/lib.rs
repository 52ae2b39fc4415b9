//! # gam
//!
//! Umbrella crate of the GAM reproduction: a Rust implementation of the
//! memory-model construction, formal definitions and evaluation of
//! *Constructing a Weak Memory Model* (Zhang, Vijayaraghavan, Wright,
//! Alipour, Arvind — ISCA 2018).
//!
//! The individual crates are re-exported under short module names:
//!
//! * [`isa`] — the instruction set, programs and the litmus-test library;
//! * [`core`] — dependencies, preserved program order and the model
//!   catalogue (SC, TSO, GAM, GAM0, GAM-ARM);
//! * [`engine`] — **the recommended entry point**: the unified
//!   [`Checker`](engine::Checker) trait over both formal backends and the
//!   parallel [`Engine`](engine::Engine) facade with structured,
//!   JSON-serializable suite reports;
//! * [`axiomatic`] — the axiomatic execution enumerator;
//! * [`operational`] — the abstract machines (SC, TSO, GAM/GAM0) and the
//!   exhaustive explorer;
//! * [`frontend`] — the litmus **text frontend**: a `.litmus` parser and
//!   pretty-printer with a round-trip guarantee, the corpus loader behind
//!   `tests/corpus/`, and the `gam` CLI binary that batch-runs corpora
//!   through the engine;
//! * [`verify`] — paper expectations and the verdict matrix: every
//!   (model, backend) pair over a suite, diffed across backends and against
//!   expectations (a thin layer over the engine);
//! * [`uarch`] — the out-of-order core timing simulator and the synthetic
//!   workload suite used to reproduce Figure 18 and Tables I–III.
//!
//! The direct checker constructors ([`axiomatic::AxiomaticChecker`],
//! [`operational::OperationalChecker`]) remain available for backend-specific
//! needs (e.g. detailed axiomatic witnesses), but new code should go through
//! the engine facade, which exposes both semantics behind one API.
//!
//! # Quick start
//!
//! ```
//! use gam::core::ModelKind;
//! use gam::engine::{Backend, Engine};
//! use gam::isa::litmus::library;
//!
//! // Does GAM allow the Dekker non-SC outcome? Ask either backend through
//! // the same facade. (Yes: store->load reordering.)
//! let engine = Engine::builder()
//!     .model(ModelKind::Gam)
//!     .backend(Backend::Axiomatic)
//!     .build()
//!     .unwrap();
//! assert!(engine.check(&library::dekker()).unwrap().is_allowed());
//!
//! // Run the whole paper suite in parallel and get a structured report.
//! let engine = Engine::builder().model(ModelKind::Gam).parallelism(4).build().unwrap();
//! let report = engine.run_suite(&library::paper_tests());
//! assert!(report.all_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gam_axiomatic as axiomatic;
pub use gam_core as core;
pub use gam_engine as engine;
pub use gam_frontend as frontend;
pub use gam_isa as isa;
pub use gam_operational as operational;
pub use gam_uarch as uarch;
pub use gam_verify as verify;
