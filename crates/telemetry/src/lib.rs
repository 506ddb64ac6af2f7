//! Zero-dependency structured telemetry for the OLAP cube workspace.
//!
//! The paper's whole argument is a cost ledger — cell accesses per query
//! (`2^d` vs `3^d` regions, Theorem 3's node bound) — and every engine
//! already *measures* it one query at a time via `AccessStats`. This crate
//! is the persistence layer for those measurements at workload scale:
//!
//! - [`Registry`]: a thread-safe registry of named, labelled [`Counter`]s,
//!   [`Gauge`]s, and log2-bucketed [`Histogram`]s, renderable as
//!   Prometheus-style text or JSON,
//! - [`FlightRecorder`]: a fixed-capacity ring buffer of the last N query
//!   outcomes + route decisions ([`FlightRecord`]), dumpable as JSON,
//! - [`in_root_span`] / [`in_span`] / [`TraceSink`]: end-to-end
//!   per-query tracing — closure-scoped span trees on the serving thread,
//!   exportable as Chrome trace-event JSON (see the `trace` module docs),
//! - [`Telemetry`] + the dispatch layer ([`current`], [`with_scope`]):
//!   instrumented call sites ask for the current telemetry context; when
//!   none is entered anywhere the check is a single relaxed atomic load,
//!   so instrumentation in hot paths is free by default.
//!
//! # Cost model of the instrumentation itself
//!
//! Instrumentation sites follow the pattern
//!
//! ```
//! if let Some(ctx) = olap_telemetry::current() {
//!     ctx.registry().counter("queries_total", &[]).inc(1);
//! }
//! ```
//!
//! [`current`] first loads one global atomic; with telemetry disabled
//! (the default) it returns `None` immediately — no allocation, no lock,
//! no thread-local touch. Only when a context is active (entered with
//! [`with_scope`] on some thread) does the full lookup run.
//!
//! # Scoping and determinism
//!
//! [`with_scope`] installs a context for the duration of a closure on the
//! current thread. Code that hands work to worker threads re-enters the
//! captured context in each worker (see `olap-server`'s load driver), so
//! a scoped workload's metrics land in the scoped registry, isolated from
//! every other thread — which is what makes registry contents testable
//! under concurrency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors, so clippy denies every
// panicking escape hatch outside test builds. A site whose bound is an
// invariant carries `#[expect(clippy::…, reason = "…")]` on the narrowest
// item that holds it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod dispatch;
mod flight;
mod registry;
mod trace;

pub use dispatch::{current, enabled, with_scope, Telemetry};
pub use flight::{
    cache_outcome, CacheOutcomeScope, FlightRecord, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
};
pub use trace::{
    in_root_span, in_span, tracing_active, SlowTrace, SpanId, SpanRecord, SpanTree, TraceId,
    TraceSink, DEFAULT_SLOW_RING_CAPACITY, DEFAULT_TRACE_CAPACITY,
};

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
