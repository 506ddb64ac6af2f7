//! End-to-end query tracing: per-query span trees across threads.
//!
//! The registry's aggregates answer "how slow is the p99?"; this module
//! answers "where did *this* query spend its time?". A query is traced as
//! a tree of named spans rooted at the serving entry point:
//!
//! ```text
//! serve_query
//! ├─ shard_exec        (one per overlapping shard, in shard order)
//! │  ├─ cache_lookup
//! │  └─ router_dispatch
//! │     └─ kernel_exec
//! └─ merge             (folded partials → the served answer)
//! ```
//!
//! `CubeServer` answers a query on its caller's thread, so every span of
//! a served query carries the root's `tid`. Scopes are strictly
//! thread-local: a trace never continues on another thread.
//!
//! A span is a closure's extent: [`in_root_span`] runs a closure as the
//! root of a new trace against a [`TraceSink`], and [`in_span`] runs one
//! as a child of whatever span is open on the current thread. The span
//! itself is private to this crate and lives on those functions' stack
//! frames, so no field, static or other thread can hold one. When no
//! trace scope is entered on the current thread, [`in_span`] is a single
//! thread-local read before it calls its closure — cheaper than the
//! dispatch layer's relaxed atomic load, and free of shared-cache-line
//! traffic. The root installs a thread-local scope frame (trace id,
//! current span id, and sink), and nested spans parent themselves under
//! it *without* touching any cross-thread state: a child borrows the
//! sink from the root's frame, so the recording fast path performs no
//! reference-count or shared-counter writes.
//!
//! Completed spans land in the sink — a bounded store (drop-counted at
//! capacity, never reallocating past it) with a slow-query ring keeping
//! the *full tree* of any trace whose root exceeds a threshold — and are
//! exportable as Chrome trace-event JSON via [`TraceSink::to_chrome_json`]
//! (loadable in `chrome://tracing` or Perfetto). When a telemetry context
//! is also active, every completed span additionally feeds the
//! `olap_span_nanos{span=NAME}` histogram, so aggregate per-stage
//! latencies come from the same instrumentation points.

use crate::json_escape;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default number of span records a [`TraceSink`] retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default number of slow-query span trees retained by the slow ring.
pub const DEFAULT_SLOW_RING_CAPACITY: usize = 16;

/// Identifies one traced query; unique per [`TraceSink`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

/// Identifies one span within a sink; unique per [`TraceSink`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// The propagated trace position: which trace, and which span new child
/// spans should parent under. Copied by value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TraceContext {
    trace: TraceId,
    span: SpanId,
}

/// One completed span as stored by the sink.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, `None` for the trace root.
    pub parent: Option<SpanId>,
    /// Static span name (`serve_query`, `shard_exec`, …).
    pub name: &'static str,
    /// Start time in nanoseconds since the sink's creation.
    pub start_ns: u64,
    /// Elapsed wall time in nanoseconds.
    pub dur_ns: u64,
    /// Process-local id of the thread the span *ended* on (allocated
    /// lazily, stable per OS thread; Chrome export groups rows by it).
    pub tid: u64,
}

impl SpanRecord {
    /// End time in nanoseconds since the sink's creation (saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Monotone thread-id allocator for the Chrome export; ids are assigned
/// lazily and are stable for an OS thread's lifetime.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One entry of the thread-local trace scope stack.
///
/// Only a trace root owns the sink. A child span's entry is just its
/// [`TraceContext`]: the span is scoped strictly inside the root that
/// spawned it, so it borrows the sink (and its liveness) from the nearest
/// `Root` beneath it instead of bumping the `Arc` refcount. That keeps
/// starting and ending a child span free of shared-memory writes other
/// than the record itself.
enum ScopeEntry {
    /// A trace root opened by [`in_root_span`], owning its sink.
    Root(TraceContext, Arc<TraceSink>),
    /// A child span opened by [`in_span`].
    Child(TraceContext),
}

impl ScopeEntry {
    fn ctx(&self) -> TraceContext {
        match self {
            ScopeEntry::Root(c, _) | ScopeEntry::Child(c) => *c,
        }
    }
}

/// The nearest root's sink at or below the top of `stack`.
fn innermost_sink(stack: &[ScopeEntry]) -> Option<&Arc<TraceSink>> {
    stack.iter().rev().find_map(|e| match e {
        ScopeEntry::Root(_, sink) => Some(sink),
        ScopeEntry::Child(_) => None,
    })
}

thread_local! {
    static TRACE_SCOPES: RefCell<Vec<ScopeEntry>> = const { RefCell::new(Vec::new()) };
    /// Mirror of `TRACE_SCOPES.len()`, readable without a `RefCell`
    /// borrow — the instrumentation fast path.
    static SCOPE_DEPTH: Cell<usize> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        // ordering: Relaxed — pure id allocator; uniqueness comes from
        // the atomicity of fetch_add, no other memory hangs off the value.
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Whether a trace scope is entered on the *current thread*. One
/// thread-local read; the instrumentation fast path. Scopes are strictly
/// thread-local, so this is exactly the condition under which
/// [`in_span`] records.
#[inline]
pub fn tracing_active() -> bool {
    SCOPE_DEPTH.with(|d| d.get() != 0)
}

fn push_scope(entry: ScopeEntry) {
    TRACE_SCOPES.with(|s| s.borrow_mut().push(entry));
    SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
}

/// Feeds a completed span into the `olap_span_nanos{span=NAME}`
/// histogram, when a telemetry context is active.
fn forward_to_telemetry(name: &'static str, nanos: u64) {
    if let Some(ctx) = crate::current() {
        ctx.registry()
            .histogram("olap_span_nanos", &[("span", name)])
            .observe(nanos);
    }
}

/// Runs `f` inside a child span named `name`, parented under the span
/// open on the current thread; while `f` runs, further spans nest under
/// this one. Without an entered trace scope it records nothing and costs
/// one thread-local read before it calls `f`.
///
/// The span is closure-scoped: it is private to this crate, so it cannot
/// be stored in a field or a static, or sent to another thread.
///
/// ```compile_fail
/// struct Parked(olap_telemetry::TraceSpan);
/// ```
#[inline]
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !tracing_active() {
        return f();
    }
    let _span = TraceSpan::child(name);
    f()
}

/// Runs `f` as the root span `name` of a new trace recorded into `sink`;
/// spans opened by [`in_span`] while `f` runs form the trace's tree.
pub fn in_root_span<R>(sink: &Arc<TraceSink>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = TraceSpan::root(sink, name);
    f()
}

/// An open span; records into the sink on drop, on return and on unwind
/// alike. Only [`in_span`] and [`in_root_span`] make one, and each keeps
/// it on its own stack frame until its closure returns: the span's scope
/// entry lives on that thread's stack, and the drop pops it there.
struct TraceSpan {
    ctx: TraceContext,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl TraceSpan {
    fn root(sink: &Arc<TraceSink>, name: &'static str) -> TraceSpan {
        let ctx = TraceContext {
            trace: TraceId(sink.alloc_trace()),
            span: SpanId(sink.alloc_span()),
        };
        let start_ns = sink.now_ns();
        push_scope(ScopeEntry::Root(ctx, Arc::clone(sink)));
        TraceSpan {
            ctx,
            parent: None,
            name,
            start_ns,
        }
    }

    /// A child of the span on top of the current thread's scope stack;
    /// `None` when the stack holds no root. The sink is borrowed from the
    /// enclosing root's frame, not cloned.
    fn child(name: &'static str) -> Option<TraceSpan> {
        TRACE_SCOPES.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last()?.ctx();
            let sink = innermost_sink(&stack)?;
            let ctx = TraceContext {
                trace: parent.trace,
                span: SpanId(sink.alloc_span()),
            };
            let start_ns = sink.now_ns();
            stack.push(ScopeEntry::Child(ctx));
            SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
            Some(TraceSpan {
                ctx,
                parent: Some(parent.span),
                name,
                start_ns,
            })
        })
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        // Pop our own scope entry and resolve the sink: a root carries it
        // in the popped entry; a child borrows it from the nearest root
        // still on the stack (which outlives the child by RAII).
        let finished = TRACE_SCOPES.with(|s| {
            let mut stack = s.borrow_mut();
            let popped = stack.pop();
            if popped.is_some() {
                SCOPE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            }
            let dur_of = |sink: &TraceSink| {
                let dur_ns = sink.now_ns().saturating_sub(self.start_ns);
                sink.record(SpanRecord {
                    trace: self.ctx.trace,
                    span: self.ctx.span,
                    parent: self.parent,
                    name: self.name,
                    start_ns: self.start_ns,
                    dur_ns,
                    tid: thread_tid(),
                });
                if self.parent.is_none() {
                    sink.finish_root(self.ctx.trace, dur_ns);
                }
                dur_ns
            };
            match popped {
                Some(ScopeEntry::Root(_, sink)) => Some(dur_of(&sink)),
                Some(ScopeEntry::Child(_)) => innermost_sink(&stack).map(|sink| dur_of(sink)),
                None => None,
            }
        });
        if let Some(dur_ns) = finished {
            forward_to_telemetry(self.name, dur_ns);
        }
    }
}

/// Collects completed [`SpanRecord`]s and assembles them into per-query
/// trees. Bounded: past `capacity` records, new spans are counted in
/// [`TraceSink::dropped`] instead of stored. A slow-query ring keeps the
/// full span list of the last few traces whose root duration met a
/// threshold, surviving even after the main store fills.
pub struct TraceSink {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capacity: usize,
    slow_threshold_ns: u64,
    slow_capacity: usize,
    store: Mutex<SinkStore>,
}

#[derive(Default)]
struct SinkStore {
    records: Vec<SpanRecord>,
    dropped: u64,
    slow: VecDeque<SlowTrace>,
}

/// A retained slow query: its trace id, root duration, and every span of
/// the trace that was stored when the root completed.
#[derive(Clone, Debug)]
pub struct SlowTrace {
    /// The slow query's trace.
    pub trace: TraceId,
    /// Root span duration in nanoseconds.
    pub root_dur_ns: u64,
    /// All stored spans of the trace, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceSink {
    /// A sink with default capacity and no slow-query ring.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// A sink retaining at most `capacity` spans (minimum 1), with no
    /// slow-query ring.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            capacity: capacity.max(1),
            slow_threshold_ns: u64::MAX,
            slow_capacity: DEFAULT_SLOW_RING_CAPACITY,
            store: Mutex::new(SinkStore::default()),
        }
    }

    /// A sink whose slow-query ring keeps the span trees of the last
    /// `slow_capacity` traces (minimum 1) with a root duration of at
    /// least `threshold`.
    pub fn with_slow_ring(capacity: usize, threshold: Duration, slow_capacity: usize) -> Self {
        TraceSink {
            slow_threshold_ns: threshold.as_nanos().min(u64::MAX as u128) as u64,
            slow_capacity: slow_capacity.max(1),
            ..TraceSink::with_capacity(capacity)
        }
    }

    fn alloc_trace(&self) -> u64 {
        // ordering: Relaxed — pure id allocator; uniqueness comes from
        // the atomicity of fetch_add, no other memory hangs off it.
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    fn alloc_span(&self) -> u64 {
        // ordering: Relaxed — pure id allocator; see `alloc_trace`.
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the sink was created — the single monotonic
    /// time base for both span endpoints, so a span that drops before
    /// another (RAII nesting) is guaranteed to end no later.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn record(&self, rec: SpanRecord) {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        if store.records.len() >= self.capacity {
            store.dropped = store.dropped.saturating_add(1);
        } else {
            store.records.push(rec);
        }
    }

    /// Called once when a trace's root span completes; retains the full
    /// trace in the slow ring when it met the threshold.
    fn finish_root(&self, trace: TraceId, root_dur_ns: u64) {
        if root_dur_ns < self.slow_threshold_ns {
            return;
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let spans: Vec<SpanRecord> = store
            .records
            .iter()
            .filter(|r| r.trace == trace)
            .cloned()
            .collect();
        if store.slow.len() >= self.slow_capacity {
            store.slow.pop_front();
        }
        store.slow.push_back(SlowTrace {
            trace,
            root_dur_ns,
            spans,
        });
    }

    /// Number of spans currently stored.
    pub fn span_count(&self) -> usize {
        self.store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .len()
    }

    /// Spans discarded because the store was full.
    pub fn dropped(&self) -> u64 {
        self.store.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// All stored spans, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .clone()
    }

    /// The retained slow traces, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowTrace> {
        let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.slow.iter().cloned().collect()
    }

    /// Distinct trace ids with at least one stored span, ascending.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.records().iter().map(|r| r.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Assembles the stored spans of `trace` into a tree. `None` when the
    /// trace has no stored root span. Children are ordered by start time
    /// (ties broken by span id).
    pub fn trace_tree(&self, trace: TraceId) -> Option<SpanTree> {
        let records: Vec<SpanRecord> = self
            .records()
            .into_iter()
            .filter(|r| r.trace == trace)
            .collect();
        build_tree(&records)
    }

    /// Every stored span as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps), loadable in `chrome://tracing`
    /// and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let records = self.records();
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
        for (i, r) in records.iter().enumerate() {
            let sep = if i.saturating_add(1) == records.len() {
                ""
            } else {
                ","
            };
            let parent = r
                .parent
                .map_or_else(|| "null".to_string(), |p| p.0.to_string());
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cat\": \"olap\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"trace\": {}, \"span\": {}, \"parent\": {}}}}}{sep}\n",
                json_escape(r.name),
                r.tid,
                r.start_ns as f64 / 1e3,
                r.dur_ns as f64 / 1e3,
                r.trace.0,
                r.span.0,
                parent,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.capacity)
            .field("spans", &self.span_count())
            .finish()
    }
}

/// A span and its children, as assembled by [`TraceSink::trace_tree`].
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// The span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by `(start_ns, span)`.
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// Total spans in this subtree (including this node).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanTree::span_count)
            .sum::<usize>()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanTree> {
        if self.record.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Every `(name, parent name)` edge in the subtree, sorted — a
    /// thread-order-independent shape fingerprint for equivalence tests.
    pub fn edge_set(&self) -> Vec<(&'static str, &'static str)> {
        let mut edges = Vec::new();
        self.collect_edges(&mut edges);
        edges.sort_unstable();
        edges
    }

    fn collect_edges(&self, out: &mut Vec<(&'static str, &'static str)>) {
        for c in &self.children {
            out.push((c.record.name, self.record.name));
            c.collect_edges(out);
        }
    }

    /// An indented plain-text rendering (one span per line, durations in
    /// microseconds) for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{} {:.1}µs\n",
            "",
            self.record.name,
            self.record.dur_ns as f64 / 1e3,
            indent = depth.saturating_mul(2),
        ));
        for c in &self.children {
            c.render_into(depth.saturating_add(1), out);
        }
    }
}

fn build_tree(records: &[SpanRecord]) -> Option<SpanTree> {
    let root = records.iter().find(|r| r.parent.is_none())?.clone();
    let mut children: BTreeMap<SpanId, Vec<SpanRecord>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            children.entry(p).or_default().push(r.clone());
        }
    }
    Some(attach(root, &mut children))
}

fn attach(record: SpanRecord, children: &mut BTreeMap<SpanId, Vec<SpanRecord>>) -> SpanTree {
    let mut kids = children.remove(&record.span).unwrap_or_default();
    kids.sort_by_key(|r| (r.start_ns, r.span));
    SpanTree {
        children: kids.into_iter().map(|r| attach(r, children)).collect(),
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_scope, Telemetry};

    #[test]
    fn inert_without_scope() {
        // No root entered on this thread ⇒ a child records nothing, even
        // if other tests have traces active concurrently.
        assert!(!in_span("orphan", tracing_active));
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let sink = Arc::new(TraceSink::new());
        in_root_span(&sink, "serve_query", || {
            in_span("cache_lookup", || in_span("kernel_exec", || ()));
            in_span("merge", || ());
        });
        assert_eq!(sink.span_count(), 4);
        let trace = sink.trace_ids()[0];
        let tree = sink.trace_tree(trace).expect("tree assembles");
        assert_eq!(tree.record.name, "serve_query");
        assert_eq!(tree.record.parent, None);
        assert_eq!(tree.span_count(), 4);
        let mut edges = tree.edge_set();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![
                ("cache_lookup", "serve_query"),
                ("kernel_exec", "cache_lookup"),
                ("merge", "serve_query"),
            ]
        );
        // Containment: every child starts no earlier and ends no later
        // than its parent.
        fn contained(t: &SpanTree) {
            for c in &t.children {
                assert!(c.record.start_ns >= t.record.start_ns);
                assert!(c.record.end_ns() <= t.record.end_ns());
                contained(c);
            }
        }
        contained(&tree);
    }

    #[test]
    fn capacity_drops_are_counted() {
        let sink = Arc::new(TraceSink::with_capacity(2));
        in_root_span(&sink, "serve_query", || {
            for name in ["a", "b", "c"] {
                in_span(name, || ());
            }
        });
        assert_eq!(sink.span_count(), 2);
        assert_eq!(sink.dropped(), 2, "c and the root were dropped");
    }

    #[test]
    fn slow_ring_retains_full_trees() {
        let sink = Arc::new(TraceSink::with_slow_ring(1024, Duration::ZERO, 1));
        for _ in 0..2 {
            in_root_span(&sink, "serve_query", || in_span("kernel_exec", || ()));
        }
        let slow = sink.slow_traces();
        assert_eq!(slow.len(), 1, "ring bounded at 1");
        let last = slow.last().expect("one retained");
        assert_eq!(last.spans.len(), 2, "full tree retained");
        assert_eq!(
            sink.trace_ids().last().copied(),
            Some(last.trace),
            "the ring kept the most recent trace"
        );
        // A sink without a ring never retains slow traces.
        let plain = Arc::new(TraceSink::new());
        in_root_span(&plain, "q", || ());
        assert!(plain.slow_traces().is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let sink = Arc::new(TraceSink::new());
        in_root_span(&sink, "serve_query", || in_span("kernel_exec", || ()));
        let json = sink.to_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\": \"ns\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"name\": \"kernel_exec\""), "{json}");
        assert!(json.contains("\"parent\": null"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        assert_eq!(json.matches("\"ph\"").count(), 2, "one event per span");
    }

    #[test]
    fn spans_feed_the_span_histogram() {
        let ctx = Arc::new(Telemetry::new());
        let sink = Arc::new(TraceSink::new());
        with_scope(&ctx, || {
            in_root_span(&sink, "serve_query", || in_span("kernel_exec", || ()));
        });
        for name in ["kernel_exec", "serve_query"] {
            assert_eq!(
                ctx.registry()
                    .histogram("olap_span_nanos", &[("span", name)])
                    .count(),
                1,
                "{name}"
            );
        }
    }

    #[test]
    fn scope_unwinds_on_panic() {
        let sink = Arc::new(TraceSink::new());
        assert!(!tracing_active());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_root_span(&sink, "serve_query", || {
                in_span("kernel_exec", || {
                    assert!(tracing_active());
                    panic!("boom");
                })
            })
        }));
        assert!(r.is_err());
        assert!(!tracing_active(), "scopes popped during unwind");
        assert_eq!(sink.span_count(), 2, "both spans recorded on unwind");
    }
}
