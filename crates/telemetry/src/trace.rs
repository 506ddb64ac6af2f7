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
//! a served query carries the root's `tid`.
//!
//! The design mirrors the dispatch layer's cost model: when no trace
//! scope is entered on the current thread, [`TraceSpan::start`] is a
//! single thread-local read returning an inert guard — cheaper than the
//! dispatch layer's relaxed atomic load, and free of shared-cache-line
//! traffic. A trace is started with [`TraceSpan::root`] against a
//! [`TraceSink`]; the root installs a thread-local scope frame (trace
//! id, current span id, and sink), and nested [`TraceSpan::start`] calls
//! parent themselves under it automatically *without* touching any
//! cross-thread state: a child span borrows the sink from the enclosing
//! frame, so the recording fast path performs no reference-count or
//! shared-counter writes. One explicit propagation primitive crosses
//! threads: [`TraceHandle::enter`] re-enters a captured context
//! ([`current_trace`]) on another thread, so spans started there join the
//! same tree.
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
/// spans should parent under. Copied by value across queues and threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// The owning trace.
    pub trace: TraceId,
    /// The span new children parent under.
    pub span: SpanId,
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
/// Only *owning* entries — a trace root or a cross-thread re-entry —
/// carry the sink. A child span's entry is just its [`TraceContext`]:
/// the span is scoped strictly inside the frame that spawned it, so it
/// borrows the sink (and its liveness) from the nearest `Frame` beneath
/// it instead of bumping the `Arc` refcount. That keeps starting and
/// dropping a child span free of shared-memory writes other than the
/// record itself.
enum ScopeEntry {
    /// An owning frame: [`TraceSpan::root`] or [`TraceHandle::enter`].
    Frame(TraceHandle),
    /// A child span started by [`TraceSpan::start`].
    Child(TraceContext),
}

impl ScopeEntry {
    fn ctx(&self) -> TraceContext {
        match self {
            ScopeEntry::Frame(h) => h.ctx,
            ScopeEntry::Child(c) => *c,
        }
    }
}

/// The nearest owning frame's sink at or below the top of `stack`.
fn innermost_sink(stack: &[ScopeEntry]) -> Option<&Arc<TraceSink>> {
    stack.iter().rev().find_map(|e| match e {
        ScopeEntry::Frame(h) => Some(&h.sink),
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
/// [`TraceSpan::start`] would record.
#[inline]
pub fn tracing_active() -> bool {
    SCOPE_DEPTH.with(|d| d.get() != 0)
}

/// The innermost trace scope entered on this thread, if any. One
/// thread-local read when no scope is entered.
#[inline]
pub fn current_trace() -> Option<TraceHandle> {
    if !tracing_active() {
        return None;
    }
    current_trace_slow()
}

#[inline(never)]
fn current_trace_slow() -> Option<TraceHandle> {
    TRACE_SCOPES.with(|s| {
        let stack = s.borrow();
        let ctx = stack.last()?.ctx();
        let sink = innermost_sink(&stack)?;
        Some(TraceHandle {
            ctx,
            sink: Arc::clone(sink),
        })
    })
}

fn push_scope(entry: ScopeEntry) {
    TRACE_SCOPES.with(|s| s.borrow_mut().push(entry));
    SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
}

fn pop_scope() -> Option<ScopeEntry> {
    let popped = TRACE_SCOPES.with(|s| s.borrow_mut().pop());
    if popped.is_some() {
        SCOPE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
    popped
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

/// A cloneable capability to record into one trace: the [`TraceContext`]
/// plus the owning sink. `Send`, so it can be captured and re-entered by
/// fan-out workers ([`TraceHandle::enter`]).
#[derive(Clone)]
pub struct TraceHandle {
    ctx: TraceContext,
    sink: Arc<TraceSink>,
}

impl TraceHandle {
    /// The propagated trace position.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The sink completed spans are recorded into.
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Re-enters this context on the current thread: until the returned
    /// guard drops, [`TraceSpan::start`] parents under `context().span`.
    /// Nestable (innermost wins); unwound correctly on panic.
    pub fn enter(&self) -> EnteredTrace {
        push_scope(ScopeEntry::Frame(self.clone()));
        EnteredTrace(())
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("ctx", &self.ctx)
            .finish()
    }
}

/// Guard for a re-entered trace scope; pops it on drop.
#[derive(Debug)]
pub struct EnteredTrace(());

impl Drop for EnteredTrace {
    fn drop(&mut self) {
        let _ = pop_scope();
    }
}

/// An active span; records into the sink on drop. The root span of a
/// query comes from [`TraceSpan::root`]; everything below it from
/// [`TraceSpan::start`], which is inert (one thread-local read) when no
/// trace scope is entered on the current thread.
///
/// A span is pinned to the thread that started it (`!Send`): its scope
/// entry lives on that thread's stack, and the drop pops it there. Cross-
/// thread propagation goes through [`TraceHandle::enter`], which owns its
/// sink reference.
pub struct TraceSpan {
    state: Option<SpanState>,
    /// Spans manipulate the thread-local scope stack on drop, so moving
    /// one across threads would corrupt both threads' scoping.
    _not_send: std::marker::PhantomData<*const ()>,
}

struct SpanState {
    ctx: TraceContext,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    root: bool,
}

impl TraceSpan {
    // analyzer: allow(span-discipline, reason = "INERT has state: None by construction — it records nothing and is the documented no-op placeholder")
    const INERT: TraceSpan = TraceSpan {
        state: None,
        _not_send: std::marker::PhantomData,
    };

    /// Starts a new trace rooted at `name` against `sink`, entering it as
    /// the current thread's trace scope until the span drops.
    pub fn root(sink: &Arc<TraceSink>, name: &'static str) -> TraceSpan {
        let ctx = TraceContext {
            trace: TraceId(sink.alloc_trace()),
            span: SpanId(sink.alloc_span()),
        };
        let start_ns = sink.now_ns();
        push_scope(ScopeEntry::Frame(TraceHandle {
            ctx,
            sink: Arc::clone(sink),
        }));
        TraceSpan {
            state: Some(SpanState {
                ctx,
                parent: None,
                name,
                start_ns,
                root: true,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Starts a child span under the current thread's trace scope; inert
    /// when no scope is entered. While alive, it is itself the current
    /// scope, so further spans nest under it.
    ///
    /// The recording path touches no cross-thread state beyond the id
    /// allocation and the eventual record: the sink is borrowed from the
    /// enclosing scope frame, not cloned.
    pub fn start(name: &'static str) -> TraceSpan {
        if !tracing_active() {
            return TraceSpan::INERT;
        }
        TRACE_SCOPES.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(parent_ctx) = stack.last().map(ScopeEntry::ctx) else {
                return TraceSpan::INERT;
            };
            let Some(sink) = innermost_sink(&stack) else {
                return TraceSpan::INERT;
            };
            let ctx = TraceContext {
                trace: parent_ctx.trace,
                span: SpanId(sink.alloc_span()),
            };
            let start_ns = sink.now_ns();
            stack.push(ScopeEntry::Child(ctx));
            SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
            TraceSpan {
                state: Some(SpanState {
                    ctx,
                    parent: Some(parent_ctx.span),
                    name,
                    start_ns,
                    root: false,
                }),
                _not_send: std::marker::PhantomData,
            }
        })
    }

    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// The recording span's position, `None` when inert.
    pub fn context(&self) -> Option<TraceContext> {
        self.state.as_ref().map(|s| s.ctx)
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        // Pop our own scope entry and resolve the sink: a root carries it
        // in the popped frame; a child borrows it from the nearest frame
        // still on the stack (which outlives the child by RAII).
        let finished = TRACE_SCOPES.with(|s| {
            let mut stack = s.borrow_mut();
            let popped = stack.pop();
            if popped.is_some() {
                SCOPE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            }
            let dur_of = |sink: &TraceSink| {
                let dur_ns = sink.now_ns().saturating_sub(state.start_ns);
                sink.record(SpanRecord {
                    trace: state.ctx.trace,
                    span: state.ctx.span,
                    parent: state.parent,
                    name: state.name,
                    start_ns: state.start_ns,
                    dur_ns,
                    tid: thread_tid(),
                });
                if state.root {
                    sink.finish_root(state.ctx.trace, dur_ns);
                }
                dur_ns
            };
            match popped {
                Some(ScopeEntry::Frame(h)) => Some(dur_of(&h.sink)),
                Some(ScopeEntry::Child(_)) => innermost_sink(&stack).map(|sink| dur_of(sink)),
                None => None,
            }
        });
        if let Some(dur_ns) = finished {
            forward_to_telemetry(state.name, dur_ns);
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
        // No root entered on this thread ⇒ starting a child records
        // nothing, even if other tests have traces active concurrently.
        let span = TraceSpan::start("orphan");
        assert!(!span.is_recording());
        assert!(span.context().is_none());
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let sink = Arc::new(TraceSink::new());
        let trace = {
            let root = TraceSpan::root(&sink, "serve_query");
            let trace = root.context().expect("root records").trace;
            {
                let _lookup = TraceSpan::start("cache_lookup");
                drop(TraceSpan::start("kernel_exec")); // nests under lookup
            }
            drop(TraceSpan::start("merge"));
            trace
        };
        assert_eq!(sink.span_count(), 4);
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
    fn handle_reenters_in_workers() {
        let sink = Arc::new(TraceSink::new());
        let root = TraceSpan::root(&sink, "serve_query");
        let trace = root.context().expect("root records").trace;
        let handle = current_trace().expect("scope entered");
        let worker = std::thread::spawn(move || {
            assert!(current_trace_slow().is_none(), "scopes are thread-local");
            let _entered = handle.enter();
            drop(TraceSpan::start("exec_worker"));
        });
        worker.join().expect("worker");
        drop(root);
        let tree = sink.trace_tree(trace).expect("tree assembles");
        assert_eq!(tree.edge_set(), vec![("exec_worker", "serve_query")]);
    }

    #[test]
    fn capacity_drops_are_counted() {
        let sink = Arc::new(TraceSink::with_capacity(2));
        let root = TraceSpan::root(&sink, "serve_query");
        drop(TraceSpan::start("a"));
        drop(TraceSpan::start("b"));
        drop(TraceSpan::start("c"));
        drop(root);
        assert_eq!(sink.span_count(), 2);
        assert_eq!(sink.dropped(), 2, "c and the root were dropped");
    }

    #[test]
    fn slow_ring_retains_full_trees() {
        let sink = Arc::new(TraceSink::with_slow_ring(1024, Duration::ZERO, 1));
        for _ in 0..2 {
            let root = TraceSpan::root(&sink, "serve_query");
            drop(TraceSpan::start("kernel_exec"));
            drop(root);
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
        drop(TraceSpan::root(&plain, "q"));
        assert!(plain.slow_traces().is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let sink = Arc::new(TraceSink::new());
        let root = TraceSpan::root(&sink, "serve_query");
        drop(TraceSpan::start("kernel_exec"));
        drop(root);
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
            let root = TraceSpan::root(&sink, "serve_query");
            drop(TraceSpan::start("kernel_exec"));
            drop(root);
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
            let _root = TraceSpan::root(&sink, "serve_query");
            let _child = TraceSpan::start("kernel_exec");
            assert!(tracing_active());
            panic!("boom");
        }));
        assert!(r.is_err());
        assert!(!tracing_active(), "scopes popped during unwind");
        assert_eq!(sink.span_count(), 2, "both spans recorded on unwind");
    }
}
