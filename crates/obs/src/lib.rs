//! Std-only observability layer for the coldtall sweep engine.
//!
//! PR 1 made the explorer parallel; this crate makes it legible. It
//! provides the telemetry primitives NVMExplorer-class DSE frameworks
//! lean on to know which evaluations were memoized versus recomputed
//! and where sweep wall-clock goes, with zero external dependencies
//! (the build environment is offline):
//!
//! * [`Counter`] — a monotonic, relaxed-atomic event count. Counters
//!   record *logical work* (cache probes, pool items, sweep rows), so
//!   their values are deterministic under any thread count and can be
//!   asserted bit-identical in tests.
//! * [`Gauge`] — a point-in-time or run-dependent value (threads used,
//!   inline fallbacks, pool spin-ups). Anything whose value legitimately
//!   depends on scheduling belongs here, never in a counter.
//! * [`Histogram`] — a log₂-bucketed distribution with conserved total
//!   count, lossless merge, and monotone p50/p95/p99 estimates; used
//!   for span durations in nanoseconds ([`Registry::span`]) and for
//!   ratios in permille ([`Registry::permille`]), each exported under
//!   its own unit.
//! * [`Span`] — an RAII timer that records its elapsed time into a
//!   histogram on drop.
//! * [`Registry`] — a named collection of the above with [`Registry::render_text`]
//!   and [`Registry::render_json`] exporters and a test-friendly
//!   [`Registry::reset`]. A process-wide instance is available via
//!   [`global`]; library code that must stay testable under the
//!   parallel libtest harness accepts a `&Registry` instead.
//! * [`json`] — a minimal JSON parser so exports can be validated
//!   without external crates.
//!
//! The hot-path cost discipline: recording is a handful of relaxed
//! atomic adds (no locks, no allocation, no formatting); all rendering
//! cost is paid only when an export is requested.
//!
//! # Examples
//!
//! ```
//! use coldtall_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache.hits");
//! hits.inc();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//!
//! let span_hist = registry.span("characterize");
//! {
//!     let _timer = coldtall_obs::Span::enter(span_hist.clone());
//!     // ... timed work ...
//! }
//! assert_eq!(span_hist.count(), 1);
//! assert!(registry.render_text().contains("cache.hits"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
pub mod json;
mod metrics;
mod registry;
mod span;

pub use histogram::Histogram;
pub use metrics::{Counter, Gauge};
pub use registry::{global, Registry};
pub use span::{timed, Span};
