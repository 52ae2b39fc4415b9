//! # gam-axiomatic
//!
//! An axiomatic execution enumerator ("herd-like" checker) for the GAM
//! memory-model family.
//!
//! Given a litmus test and a [`gam_core::ModelSpec`], the checker computes the
//! exact set of final-state outcomes the model allows by enumerating the
//! axiomatic semantics of Section IV-A of *Constructing a Weak Memory Model*:
//!
//! 1. **read-from enumeration** — every load is assigned a source: the
//!    initial memory value or one of the program's stores ([`enumerate`]);
//! 2. **value propagation** — register and memory values are propagated
//!    through the assignment until every address and store datum is concrete;
//!    assignments with unresolvable (cyclic) value dependencies are rejected
//!    ([`propagate`]);
//! 3. **preserved program order** — `<ppo` is computed per thread by
//!    `gam-core` on the resolved instructions, once per distinct
//!    resolution of the thread within a check ([`checker`]);
//! 4. **memory-order search** — a backtracking search looks for a total
//!    global memory order `<mo` over all memory events that contains `<ppo`
//!    (axiom *InstOrder*) and satisfies the model's *LoadValue* axiom
//!    ([`mo`]);
//! 5. every consistent execution's observable outcome is collected
//!    ([`checker`]).
//!
//! This pipeline is the checker's one search. The test suites compare it with
//! `oracle`, a brute-force reading of the same two axioms that tries every
//! total memory order and derives each load's value from it. The oracle
//! shares none of the pipeline's code; the one definition both call is
//! `gam_core`'s preserved program order. It is exponential in the memory
//! events, so the tests run it on programs of at most eight.
//!
//! # Example
//!
//! ```
//! use gam_axiomatic::{AxiomaticChecker, Verdict};
//! use gam_core::model;
//! use gam_isa::litmus::library;
//!
//! // GAM forbids the CoRR non-SC behaviour, GAM0 allows it (Figure 14a).
//! let corr = library::corr();
//! assert_eq!(AxiomaticChecker::new(model::gam()).check(&corr).unwrap(), Verdict::Forbidden);
//! assert_eq!(AxiomaticChecker::new(model::gam0()).check(&corr).unwrap(), Verdict::Allowed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod enumerate;
pub mod error;
pub mod execution;
pub mod mo;
#[doc(hidden)]
pub mod oracle;
pub mod propagate;

pub use checker::{AxiomaticChecker, CheckStats, CheckerConfig, Verdict, Witness};
pub use enumerate::StaticAddrs;
pub use error::CheckError;
pub use execution::{ConcreteExecution, InstrRef, RfCandidate};
