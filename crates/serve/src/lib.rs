//! `gam-serve` — a long-running litmus-check service.
//!
//! Checking a litmus test is expensive (the operational explorer can visit
//! millions of states) but perfectly cacheable: the verdict depends only on
//! the test's semantics, the model and the backend. This crate turns the
//! checker stack into a small HTTP service whose front line is a
//! *canonicalizing* outcome cache — requests are hashed through
//! [`gam_frontend::canonical_hash`], so any renaming of threads, registers,
//! labels or (when provably sound) memory locations of a previously checked
//! test is a cache hit.
//!
//! Three layers, bottom-up:
//!
//! * [`cache`] — the outcome cache proper, in memory: least-recently-used
//!   eviction.
//! * [`journal`] — crash durability for the cache, in one file: every
//!   mutation is one appended CRC-framed record in a write-ahead journal,
//!   replayed at startup (tolerating a torn tail) and periodically
//!   rewritten as one record per live entry — `kill -9` loses at most the
//!   in-flight record.
//! * [`http`] — a minimal HTTP/1.1 server+client layer over `std::net`
//!   (the build environment is offline; no external dependencies), plus a
//!   retrying client (bounded exponential backoff + jitter, honoring
//!   `Retry-After`) for `gam bench --serve`.
//! * [`server`] — the service itself: a fixed worker pool draining a
//!   bounded queue, `/check`, `/batch` (via the engine's adaptive suite
//!   scheduler), `/metrics`, `/healthz` and `/shutdown` (graceful drain),
//!   with load shedding (`503` + `Retry-After`) when the queue is full,
//!   server-side socket timeouts, per-request budgets
//!   (`budget_states`/`budget_wall_ms` → `inconclusive` rows) and
//!   panic-isolated checking (a panicking checker is a typed error row and
//!   a metrics tick, never a dead worker).
//!
//! The `gam serve` and `gam bench --serve` subcommands are thin CLI
//! wrappers over [`server::Server`] and [`http::request`].

pub mod cache;
pub mod http;
pub mod journal;
pub mod server;

pub use cache::{CacheEntry, OutcomeCache};
pub use http::{ClientConfig, RetryPolicy, RetryStats};
pub use journal::{JournalStats, JournaledCache, JOURNAL_SCHEMA};
pub use server::{
    model_name, parse_backend, parse_model, ServeConfig, ServeError, Server, METRICS_SCHEMA,
};
