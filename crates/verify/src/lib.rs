//! # gam-verify
//!
//! The verification layer of the GAM reproduction: what the two backends'
//! verdicts are checked against, and the one path that checks them.
//!
//! * [`expectations`] — the paper's (and the classical literature's) expected
//!   verdict of every model on every litmus test in the library, as a
//!   machine-readable table;
//! * [`matrix`] — runs a suite under every `(model, backend)` pair through
//!   the parallel [`gam_engine::Engine`] facade, diffs the verdicts across
//!   backends and against expectations, and renders the test × model
//!   verdict matrix. Every consumer that compares verdicts (`gam run`,
//!   `gam check`, `gam gen-corpus`, the serve bench's ground truth, the
//!   paper harness) goes through it.
//!
//! Complete outcome sets of the two backends (the machine-checkable
//! counterpart of the paper's Section IV equivalence proof) are compared by
//! the umbrella crate's `backend_agreement` test, not here.
//!
//! # Example
//!
//! ```
//! use gam_verify::expectations;
//! use gam_core::ModelKind;
//!
//! let table = expectations::paper_expectations();
//! let dekker = table.iter().find(|e| e.test == "dekker").unwrap();
//! assert!(!dekker.allowed(ModelKind::Sc));
//! assert!(dekker.allowed(ModelKind::Gam));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expectations;
pub mod matrix;

pub use expectations::{
    parse_expectations, render_expectations, Expectation, ExpectationParseError, OwnedExpectation,
};
