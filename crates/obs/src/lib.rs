//! # gam-obs
//!
//! The observability layer of the GAM reproduction: a hand-rolled, offline,
//! dependency-free stand-in for the metrics/tracing crates the build
//! environment cannot fetch, in the same spirit as `crates/compat/*`.
//!
//! Three cooperating pieces:
//!
//! * [`metrics`] — a registry of named counters, gauges and log-bucketed
//!   histograms (p50/p90/p99 snapshots). Registration takes a lock once;
//!   every update after that is a single atomic op on a kept handle.
//!   Renderers for the repo's integer-only JSON dialect and the Prometheus
//!   text exposition format. `gam serve` builds `/metrics` on a [`metrics::Registry`].
//! * [`trace`] — structured spans and instant events collected into a
//!   bounded ring buffer, with per-thread parent links and a per-operation
//!   `trace_id`, exported as Chrome `trace_event` JSON (`gam check
//!   --trace-out trace.json`, then load in Perfetto / `chrome://tracing`).
//! * [`mod@phase`] — named phase timers (`parse`, `canon`, `rf_enum`,
//!   `mo_search`, `explore_seq`, `explore_sharded`, `cache_lookup`,
//!   `journal_append`, `persist`) bracketing the pipeline's stages; they
//!   feed spans when tracing is armed and `phase.<name>.us` histograms when
//!   phase metrics are armed.
//!
//! Everything is disarmed by default and costs one or two relaxed atomic
//! loads per call site — the same "free when off" contract as
//! `gam_core::fault::hit`. The benchmark's traced runs report what arming
//! costs (`trace.overhead_share` in `gam-perfbench`).
//!
//! Two small cross-cutting channels ride along: [`progress!`] (periodic
//! `progress:` lines on stderr for `--progress`) and [`warn!`] — the single
//! runtime-warning path. Every recoverable-degradation message (WAL
//! truncation, cache fallback, checkpoint append failure) goes through
//! [`warn!`]: stderr only, stable `warn:` prefix, counted in the global
//! registry as `warnings_total`.
//!
//! # Example
//!
//! ```
//! use gam_obs::{metrics, trace};
//!
//! // Metrics: handles are cheap, updates are atomic.
//! let registry = metrics::Registry::new();
//! let hits = registry.counter("cache.hits");
//! hits.inc();
//! registry.histogram("latency.us").observe(1800);
//! assert!(registry.render_prometheus_text().contains("cache_hits 1"));
//!
//! // Tracing: spans nest per thread once armed.
//! trace::arm();
//! {
//!     let _check = trace::span("engine.check");
//!     let _inner = trace::span("phase.rf_enum");
//! }
//! trace::disarm();
//! let chrome = trace::export_chrome();
//! assert!(chrome.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod phase;
pub mod progress;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use phase::{phase, PhaseGuard};
pub use trace::Span;

/// Emits one runtime warning: stderr, stable `warn:` prefix, counted as
/// `warnings_total` in the global registry. Never writes to stdout.
pub fn warn_emit(args: std::fmt::Arguments<'_>) {
    eprintln!("warn: {args}");
    metrics::global().counter("warnings_total").inc();
    trace::event("warn", &[("message", args.to_string())]);
}

/// The single runtime-warning path: formats like `println!`, writes to
/// stderr with a stable `warn:` prefix, and bumps `warnings_total`.
///
/// ```
/// gam_obs::warn!("journal truncated at frame {}", 17);
/// ```
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {{
        $crate::warn_emit(::std::format_args!($($arg)*));
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn warn_counts_into_the_global_registry() {
        let before = crate::metrics::global().counter("warnings_total").get();
        crate::warn!("test warning {}", 1);
        let after = crate::metrics::global().counter("warnings_total").get();
        assert!(after > before);
    }
}
