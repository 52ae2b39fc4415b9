//! # gam-operational
//!
//! Operational (abstract-machine) definitions of the memory models in the GAM
//! reproduction, together with an exhaustive state-space explorer and a
//! random-walk executor.
//!
//! The centrepiece is the GAM abstract machine of Section IV-B of
//! *Constructing a Weak Memory Model* (Figures 16 and 17): every processor
//! owns a reorder buffer (ROB) and a PC register, all processors share a
//! monolithic memory, and execution proceeds by non-deterministically firing
//! one of the eight rules (Fetch, Execute-Reg-to-Reg, Execute-Branch,
//! Execute-Fence, Execute-Load, Compute-Store-Data, Execute-Store,
//! Compute-Mem-Addr) on one processor per step. The same machine with the
//! same-address load-load enforcement switched off is the operational model
//! of GAM0.
//!
//! The crate also contains the much simpler SC machine (Figure 1) and a TSO
//! machine (SC plus per-processor FIFO store buffers), so that the
//! verification crate can cross-check every model's axiomatic and operational
//! definitions against each other.
//!
//! # Example
//!
//! ```
//! use gam_operational::{Explorer, GamMachine};
//! use gam_isa::litmus::library;
//!
//! let test = library::dekker();
//! let machine = GamMachine::new(&test);
//! let exploration = Explorer::default().explore(&machine).unwrap();
//! // The non-SC outcome r1=0, r2=0 is reachable on the GAM machine.
//! assert!(exploration.outcomes.iter().any(|o| test.condition().matched_by(o)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod checker;
pub mod explore;
mod footprint;
pub mod gam;
pub mod machine;
pub mod mem;
#[doc(hidden)]
pub mod oracle;
pub mod random;
pub mod sc;
mod spill;
pub mod tso;

pub use arena::{ArenaOccupancy, ComposedState};
pub use checker::{OperationalChecker, OperationalError};
pub use explore::{Exploration, ExploreError, Explorer, ExplorerConfig, MemoryConfig, MemoryStats};
pub use gam::{GamConfig, GamMachine};
pub use machine::{AbstractMachine, Action, ActionKind, LabeledMachine};
pub use mem::{Memory, RegFile};
pub use random::{big_tests, stress_tests, RandomWalker};
pub use sc::ScMachine;
pub use tso::TsoMachine;
