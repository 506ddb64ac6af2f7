//! Instrumentation shims for the engine layer.
//!
//! Every [`crate::RangeEngine::read`] impl runs its one body through
//! [`observe_query`], which hands it the read's [`QueryCtx`], and every
//! `apply_updates` goes through an [`UpdateObservation`] guard. With no telemetry context active, the
//! cost per call is the one relaxed atomic load inside
//! `olap_telemetry::current`.
//!
//! Series recorded (all labelled `engine=<label>`):
//!
//! - `olap_engine_queries_total{engine, op}` / `olap_engine_errors_total`
//! - `olap_engine_accesses{engine, op}` — §8 element accesses per query
//! - `olap_engine_latency_nanos{engine, op}` — wall time per call
//! - `olap_engine_update_cells_total{engine}` — cells written by updates

use crate::{EngineError, EngineOp};
use olap_array::BudgetMeter;
use olap_query::{AccessStats, QueryCtx, QueryOutcome};

/// Runs `read` (one engine read) under a [`QueryCtx`] charging `meter`,
/// and records count, accesses and latency for it. `label` is only
/// invoked when a telemetry context is active, so the idle path
/// allocates nothing.
pub(crate) fn observe_query<T>(
    label: impl Fn() -> String,
    op: EngineOp,
    meter: &BudgetMeter,
    read: impl FnOnce(&mut QueryCtx<'_>) -> Result<QueryOutcome<T>, EngineError>,
) -> Result<QueryOutcome<T>, EngineError> {
    let f = || read(&mut QueryCtx::new(meter));
    let Some(ctx) = olap_telemetry::current() else {
        return f();
    };
    let start = std::time::Instant::now();
    let result = f();
    let nanos = elapsed_nanos(start);
    let label = label();
    let labels: &[(&str, &str)] = &[("engine", &label), ("op", op.name())];
    let reg = ctx.registry();
    reg.counter("olap_engine_queries_total", labels).inc(1);
    match &result {
        Ok(outcome) => {
            reg.histogram("olap_engine_accesses", labels)
                .observe(outcome.cost());
            reg.histogram("olap_engine_latency_nanos", labels)
                .observe(nanos);
        }
        Err(_) => {
            reg.counter("olap_engine_errors_total", labels).inc(1);
        }
    }
    result
}

/// Guard for instrumenting `apply_updates`, split into `start`/`finish`
/// so the mutable borrow of the engine between the two calls doesn't
/// collide with the label closure.
pub(crate) struct UpdateObservation {
    active: Option<(
        std::sync::Arc<olap_telemetry::Telemetry>,
        std::time::Instant,
    )>,
}

impl UpdateObservation {
    /// Captures the active context (if any) and a start time.
    pub(crate) fn start() -> Self {
        UpdateObservation {
            active: olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now())),
        }
    }

    /// Records one finished `apply_updates` call: cells written, accesses,
    /// latency, errors. `label` is only invoked when recording.
    pub(crate) fn finish(
        self,
        label: impl Fn() -> String,
        cells: usize,
        result: &Result<AccessStats, EngineError>,
    ) {
        let Some((ctx, start)) = self.active else {
            return;
        };
        let nanos = elapsed_nanos(start);
        let label = label();
        let labels: &[(&str, &str)] = &[("engine", &label), ("op", "apply_updates")];
        let reg = ctx.registry();
        reg.counter("olap_engine_queries_total", labels).inc(1);
        match result {
            Ok(stats) => {
                reg.counter("olap_engine_update_cells_total", &[("engine", &label)])
                    .inc(cells as u64);
                reg.histogram("olap_engine_accesses", labels)
                    .observe(stats.total_accesses());
                reg.histogram("olap_engine_latency_nanos", labels)
                    .observe(nanos);
            }
            Err(_) => {
                reg.counter("olap_engine_errors_total", labels).inc(1);
            }
        }
    }
}

/// Saturating nanoseconds since `start`.
pub(crate) fn elapsed_nanos(start: std::time::Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}
