//! [`CubeServer`]: slab-sharded serving over per-shard adaptive routers.
//!
//! # Partitioning
//!
//! The cube is split along the leading dimension into `shards` contiguous
//! slabs of near-equal row count (shard `i` owns rows
//! `⌊i·n₀/k⌋ .. ⌊(i+1)·n₀/k⌋`). Row-major layout makes every slab a
//! contiguous run of the base array, so shard engines build over a plain
//! sub-cube with the same trailing dimensions and queries translate by an
//! offset on axis 0 only.
//!
//! # Threads
//!
//! The server starts none. A query runs start to finish on the thread
//! that called [`CubeServer::range_sum`] / [`CubeServer::range_max`] /
//! [`CubeServer::range_min`]: for each overlapping shard, in shard order,
//! shed check → [`SemanticCache`] → [`AdaptiveRouter`] → kernel →
//! degradation fallback, each partial folded into the answer as it is
//! produced. Nothing on that path needs serialising — every engine is
//! `Send + Sync` with `&self` queries, and every update installs an
//! immutable snapshot, so a reader pins the version it started on and is
//! never blocked by a writer. Cost-ranked routing, failover, circuit
//! breakers and budget admission all apply per shard.
//!
//! The accepted trade-off: a query that spans several shards runs its
//! parts one after another, not in parallel. Concurrency comes from the
//! callers (one closed-loop client per core keeps every core busy). A
//! cross-thread hand-off costs tens of microseconds per part and a cached
//! part well under one, so intra-query fan-out would have to buy back
//! more than it spends.
//!
//! Each shard counts the parts currently executing on it — incremented on
//! entry to a part, decremented on every exit path, unwinding included.
//! That in-flight count is what [`ShardStats::queue_depth`] reports, what
//! [`ServeConfig::queue_depth_limit`] sheds on, and what the
//! `olap_shard_queue_depth` gauge exports under a telemetry context.
//! Telemetry records into the *calling* thread's context
//! (`olap_telemetry::current()` at the time of the call), not the one
//! active when the server was built.
//!
//! # Semantic caching
//!
//! Each shard answers sums through a per-shard [`SemanticCache`] wrapping
//! its router: a repeated region hits exactly, everything else falls
//! through. Updates route through the same cache, which invalidates
//! region-wise — only entries whose region holds an updated cell are
//! dropped. `ServeConfig::cache_size == 0` disables all of it.
//!
//! # Updates
//!
//! [`CubeServer::apply_updates`] validates the whole batch up front,
//! splits it by owning shard, and installs each shard's successor
//! snapshot under one server-wide writer mutex.
//!
//! # Consistency
//!
//! Every answer is the answer at one cube state that existed during the
//! call: the state after some whole number of batches, never a batch
//! half-applied and never a mix of shards from states that did not
//! coexist. A one-part query gets this from the snapshot its part pins.
//! A query with several parts pins each shard's snapshot only when that
//! part starts, so the server keeps an install sequence, checked like a
//! seqlock: under the writer mutex, a single-shard batch adds 2 after its
//! install, and a multi-shard batch adds 1 before its installs and 1
//! after. A multi-part read loads the sequence before its first part and
//! after its last, and runs again if it was odd or has moved. After three
//! tries it runs with the writer mutex held, where nothing can install.
//! So every batch, single- or multi-shard, is atomic to every reader.

use crate::ServerError;
use olap_array::{DegradePolicy, DenseArray, QueryBudget, Range, Region, Shape};
use olap_engine::{
    AdaptiveRouter, ApproxEngine, CacheStats, CubeIndex, DegradeReason, EngineError, EngineOp,
    EpochStats, FaultPlan, FaultyEngine, IndexConfig, NaiveEngine, RangeEngine, SemanticCache,
};
use olap_query::{AccessStats, Answer, Estimate, QueryOutcome, RangeQuery};
use std::sync::atomic::{fence, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a [`CubeServer`] is assembled.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count; clamped to the leading dimension's extent.
    pub shards: usize,
    /// Per-query budget every shard router admits queries under.
    pub budget: QueryBudget,
    /// Optional fault injection: wraps each shard's `CubeIndex` (never
    /// the naive fallback) so chaos drills can prove failover and
    /// snapshot installs keep answers exact.
    pub faults: Option<FaultPlan>,
    /// Per-shard semantic-cache capacity in entries; 0 disables caching
    /// (every lookup is a pure passthrough to the shard router).
    pub cache_size: usize,
    /// Declarative latency objective the operator holds this server to.
    /// The server only carries it ([`CubeServer::slo`]); evaluation
    /// against live quantiles is the scrape layer's job (`slo_report`).
    pub slo: Option<SloSpec>,
    /// In-flight threshold: a part arriving at a shard that already has
    /// more than this many parts executing is shed to the shard's
    /// degradation tier instead of joining them (the
    /// [`DegradeReason::QueueDepth`] path). `Some(0)` never sheds a lone
    /// caller; `None` never sheds.
    pub queue_depth_limit: Option<i64>,
}

impl ServeConfig {
    /// Whether this configuration arms the degradation tier: either the
    /// budget policy opts into falling back on exhaustion, or an
    /// in-flight limit asks for pre-dispatch shedding.
    pub fn degrade_enabled(&self) -> bool {
        self.budget.on_exhaustion == DegradePolicy::Degrade || self.queue_depth_limit.is_some()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            budget: QueryBudget::unlimited(),
            faults: None,
            cache_size: 256,
            slo: None,
            queue_depth_limit: None,
        }
    }
}

/// A declarative per-shard latency SLO: bounds on the serve-latency
/// quantiles (the `olap_serve_latency_ns` histogram family), each
/// optional. Plain data, carried by [`ServeConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloSpec {
    /// Median bound, nanoseconds.
    pub p50_ns: Option<u64>,
    /// 95th-percentile bound, nanoseconds.
    pub p95_ns: Option<u64>,
    /// 99th-percentile bound, nanoseconds.
    pub p99_ns: Option<u64>,
    /// Bound on the fraction of served answers that were degraded to the
    /// approximate tier, in permille (‰) so the spec stays `Eq`-able
    /// plain data. `Some(50)` = at most 5 % of answers may be estimates.
    /// Evaluated against the `olap_serve_answers_total` /
    /// `olap_serve_degraded_total` counters by `degraded_fraction_report`.
    pub max_degraded_per_mille: Option<u64>,
}

impl SloSpec {
    /// A spec bounding only the tail (p99).
    pub fn p99(limit: std::time::Duration) -> SloSpec {
        SloSpec {
            p99_ns: Some(limit.as_nanos().min(u128::from(u64::MAX)) as u64),
            ..SloSpec::default()
        }
    }

    /// A spec bounding only the degraded-answer fraction. `fraction` is
    /// clamped into `[0, 1]` and stored in permille.
    pub fn max_degraded_fraction(fraction: f64) -> SloSpec {
        SloSpec {
            max_degraded_per_mille: Some((fraction.clamp(0.0, 1.0) * 1000.0).round() as u64),
            ..SloSpec::default()
        }
    }

    /// Whether no bound is set.
    pub fn is_empty(&self) -> bool {
        self.p50_ns.is_none()
            && self.p95_ns.is_none()
            && self.p99_ns.is_none()
            && self.max_degraded_per_mille.is_none()
    }

    /// The configured bounds as `(name, quantile, limit_ns)` triples,
    /// in quantile order.
    pub fn bounds(&self) -> Vec<(&'static str, f64, u64)> {
        [
            ("p50", 0.50, self.p50_ns),
            ("p95", 0.95, self.p95_ns),
            ("p99", 0.99, self.p99_ns),
        ]
        .into_iter()
        .filter_map(|(name, q, limit)| limit.map(|l| (name, q, l)))
        .collect()
    }
}

/// A recombined answer from a fanned-out query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerAnswer {
    /// The aggregate or extremal value. Exact (bit-identical to the
    /// sequential oracle) when `estimate` is `None`; otherwise the point
    /// estimate, guaranteed inside `[estimate.lower, estimate.upper]`.
    pub value: i64,
    /// For max/min: where the extremum is attained, in *global*
    /// coordinates. `None` whenever any shard degraded — an interpolated
    /// extremum has no attained cell.
    pub at: Option<Vec<usize>>,
    /// Total elements accessed across every answering shard (the §8 cost
    /// proxy, summed).
    pub cost: u64,
    /// How many shards contributed.
    pub shards: usize,
    /// Degradation metadata when at least one shard answered from its
    /// approximate tier; `None` means every shard answered exactly.
    pub estimate: Option<ServedEstimate>,
}

impl ServerAnswer {
    /// Whether any contributing shard degraded to its approximate tier.
    pub fn is_degraded(&self) -> bool {
        self.estimate.is_some()
    }

    /// Whether this answer is consistent with `truth`: bit-identical when
    /// exact, interval containment when degraded. This is the oracle
    /// check the load driver and chaos drills assert on every answer.
    pub fn contains(&self, truth: i64) -> bool {
        match &self.estimate {
            Some(e) => e.lower <= truth && truth <= e.upper,
            None => self.value == truth,
        }
    }
}

/// Cross-shard degradation metadata on a [`ServerAnswer`]: the merged
/// guaranteed interval (shard bounds add for sums, fold for extrema) and
/// how much of the answer was exact. Plain `Eq`-able data, mirroring
/// [`olap_query::Estimate`] at the serving boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedEstimate {
    /// Guaranteed lower bound on the true answer.
    pub lower: i64,
    /// Guaranteed upper bound on the true answer.
    pub upper: i64,
    /// Worst-case absolute error of `ServerAnswer::value`:
    /// `max(value − lower, upper − value)`.
    pub error_bound: i64,
    /// How many of the contributing shards degraded.
    pub degraded_shards: usize,
    /// Why the first degraded shard fell back.
    pub reason: DegradeReason,
    /// Query cells answered exactly (aligned anchors plus fully exact
    /// shards), across all shards.
    pub exact_cells: u64,
    /// Total query cells across all contributing shards.
    pub total_cells: u64,
}

impl ServedEstimate {
    /// Fraction of the query volume answered exactly, in `[0, 1]`.
    pub fn fraction_exact(&self) -> f64 {
        if self.total_cells == 0 {
            1.0
        } else {
            self.exact_cells as f64 / self.total_cells as f64
        }
    }
}

/// One shard's reply: exact through the semantic cache, or a degraded
/// estimate from the shard router's approximate tier.
enum ShardOutcome {
    Exact(QueryOutcome<i64>),
    Degraded {
        estimate: Estimate<i64>,
        stats: AccessStats,
        reason: DegradeReason,
    },
}

impl ShardOutcome {
    fn cost(&self) -> u64 {
        match self {
            ShardOutcome::Exact(o) => o.cost(),
            ShardOutcome::Degraded { stats, .. } => stats.total_accesses(),
        }
    }
}

/// One shard's serving statistics, for operators and tests.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Global rows `[lo, hi]` of the slab on the leading dimension.
    pub rows: (usize, usize),
    /// Snapshot-liveness bookkeeping of the shard's router.
    pub epochs: EpochStats,
    /// Parts of fanned-out queries currently executing on the shard,
    /// across all calling threads.
    pub queue_depth: i64,
    /// The shard's semantic-cache counters.
    pub cache: CacheStats,
}

/// One slab of the cube: its row range, its cache-fronted router, and the
/// count of parts executing on it.
struct Shard {
    /// First global row of the slab.
    lo: usize,
    /// Rows in the slab.
    len: usize,
    /// Exact-result cache over the shard's router; all reads and all
    /// installs go through it so invalidation stays region-wise.
    /// The type is spelled out (not aliased) so the analyzer's nominal
    /// lock-field pass sees `SemanticCache` and keeps this field in the
    /// lock-order acquisition graph.
    cache: SemanticCache<i64, Arc<AdaptiveRouter<i64>>>,
    /// Parts in flight: see [`InFlight`].
    depth: InFlightCount,
    label: String,
}

/// Slots of an [`InFlightCount`]: callers beyond this many threads share.
const IN_FLIGHT_SLOTS: usize = 8;

/// One cache line of an [`InFlightCount`].
#[repr(align(64))]
#[derive(Default)]
struct Slot(AtomicI64);

/// A shard's count of parts in flight, striped so concurrent callers do
/// not write one cache line: each thread counts into its own slot, and a
/// read sums the slots. Every slot is ≥ 0 — a part's +1 and −1 land in
/// the slot of the thread that runs it — so the sum is never negative.
#[derive(Default)]
struct InFlightCount {
    slots: [Slot; IN_FLIGHT_SLOTS],
}

impl InFlightCount {
    /// The calling thread's slot, assigned round-robin on first use.
    #[expect(
        clippy::indexing_slicing,
        reason = "MINE is reduced modulo IN_FLIGHT_SLOTS, the length of slots"
    )]
    fn slot(&self) -> &AtomicI64 {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            // ordering: Relaxed — hands out distinct slot numbers; no
            // other memory hangs off the value.
            static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % IN_FLIGHT_SLOTS;
        }
        &self.slots[MINE.with(|i| *i)].0
    }

    fn add(&self, delta: i64) {
        // ordering: Relaxed — an advisory count that publishes no other
        // memory.
        self.slot().fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> i64 {
        self.slots
            .iter()
            // ordering: Relaxed — an advisory read, see `add`.
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// One part executing on a shard. Construction counts it into
/// [`Shard::depth`], drop counts it out — on return, on `?` and on unwind
/// alike, so the count cannot leak.
struct InFlight<'a>(&'a Shard);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.count_in_flight(-1);
    }
}

impl Shard {
    fn router(&self) -> &AdaptiveRouter<i64> {
        self.cache.backend()
    }

    fn enter(&self) -> InFlight<'_> {
        self.count_in_flight(1);
        InFlight(self)
    }

    /// Moves the in-flight count by `delta` and pushes the new total to
    /// the `olap_shard_queue_depth` gauge (no-op without an active
    /// context).
    fn count_in_flight(&self, delta: i64) {
        self.depth.add(delta);
        if let Some(ctx) = olap_telemetry::current() {
            ctx.registry()
                .gauge("olap_shard_queue_depth", &[("shard", self.label.as_str())])
                .set(self.depth.get() as f64);
        }
    }

    /// Answers one part of a fanned-out query on the calling thread.
    ///
    /// When more than `limit` parts are already executing here and the
    /// router has a degradation tier, the part is shed: answered from the
    /// tier ([`DegradeReason::QueueDepth`]) without joining them. A shard
    /// without a tier runs the part normally — shedding never turns an
    /// answerable query into an error.
    fn answer(
        &self,
        region: &Region,
        op: EngineOp,
        limit: Option<i64>,
    ) -> Result<ShardOutcome, EngineError> {
        // An advisory load-shedding read: a racing exit only shifts which
        // path answers, and both paths are sound.
        if limit.is_some_and(|limit| self.depth.get() > limit) {
            let reason = DegradeReason::QueueDepth;
            if let Ok((estimate, stats)) = self.router().degrade(region, op, reason) {
                return Ok(ShardOutcome::Degraded {
                    estimate,
                    stats,
                    reason,
                });
            }
        }
        let _in_flight = self.enter();
        let _exec_span = olap_telemetry::TraceSpan::start("shard_exec");
        match self.cache.read(region, op) {
            Ok(o) => Ok(ShardOutcome::Exact(o)),
            Err(e) => degrade_fallback(self.router(), region, op, e),
        }
    }
}

/// Tries a multi-part read makes against the install sequence before it
/// runs with the writer mutex held (see the module docs on consistency).
const CONSISTENT_TRIES: usize = 3;

/// Anchor-grid block size of every shard's degradation tier.
const DEGRADE_BLOCK: usize = 8;

/// The post-failure degradation gate: when the shard's budget policy is
/// [`DegradePolicy::Degrade`] and the exact failure is an eligible
/// exhaustion (deadline, access budget, every engine faulted), the shard
/// router's approximate tier answers instead. Cancellation and
/// validation errors pass through — [`DegradeReason::for_failure`] is
/// the eligibility matrix, shared with [`AdaptiveRouter::answer`]. A
/// tier failure (none registered, unsupported op) reports the original
/// exact error.
fn degrade_fallback(
    router: &AdaptiveRouter<i64>,
    region: &Region,
    op: EngineOp,
    exact_err: EngineError,
) -> Result<ShardOutcome, EngineError> {
    if router.budget().on_exhaustion != DegradePolicy::Degrade {
        return Err(exact_err);
    }
    let Some(reason) = DegradeReason::for_failure(&exact_err) else {
        return Err(exact_err);
    };
    match router.degrade(region, op, reason) {
        Ok((estimate, stats)) => Ok(ShardOutcome::Degraded {
            estimate,
            stats,
            reason,
        }),
        Err(_) => Err(exact_err),
    }
}

/// Accumulates cross-shard degradation metadata while a query folds its
/// partial answers; [`DegradeMerge::finish`] yields the
/// [`ServedEstimate`] (or `None` for a fully exact merge).
#[derive(Default)]
struct DegradeMerge {
    degraded_shards: usize,
    reason: Option<DegradeReason>,
    exact_cells: u64,
    total_cells: u64,
}

impl DegradeMerge {
    fn note_exact(&mut self, volume: u64) {
        self.exact_cells += volume;
        self.total_cells += volume;
    }

    fn note_degraded(&mut self, volume: u64, estimate: &Estimate<i64>, reason: DegradeReason) {
        self.degraded_shards += 1;
        self.reason.get_or_insert(reason);
        self.exact_cells += (estimate.fraction_exact * volume as f64).round() as u64;
        self.total_cells += volume;
    }

    fn finish(self, value: i64, lower: i64, upper: i64) -> Option<ServedEstimate> {
        let reason = self.reason?;
        Some(ServedEstimate {
            lower,
            upper,
            error_bound: value.saturating_sub(lower).max(upper.saturating_sub(value)),
            degraded_shards: self.degraded_shards,
            reason,
            exact_cells: self.exact_cells.min(self.total_cells),
            total_cells: self.total_cells,
        })
    }
}

/// What a range sum folds across its parts.
#[derive(Default)]
struct SumFold {
    value: i64,
    lower: i64,
    upper: i64,
    cost: u64,
    merge: DegradeMerge,
}

/// What a range max or min folds across its parts: the best exact part
/// with its global argmax, and the folded `(value, lower, upper)` — exact
/// parts are point intervals, degraded parts contribute their guaranteed
/// interval, and folding each component by max (resp. min) keeps the
/// global extremum inside `[lower, upper]`.
#[derive(Default)]
struct ExtremumFold {
    best: Option<(i64, Vec<usize>)>,
    cost: u64,
    folded: Option<(i64, i64, i64)>,
    merge: DegradeMerge,
}

/// Bumps the serve-level answer counters behind the degraded-fraction
/// SLO check (`olap_serve_answers_total` / `olap_serve_degraded_total`).
/// No-op without an active context.
fn record_served(degraded: bool) {
    if let Some(ctx) = olap_telemetry::current() {
        ctx.registry()
            .counter("olap_serve_answers_total", &[])
            .inc(1);
        if degraded {
            ctx.registry()
                .counter("olap_serve_degraded_total", &[])
                .inc(1);
        }
    }
}

/// A sharded, snapshot-isolated server over one dense `i64` cube.
///
/// Shareable across threads (`&self` everywhere); see the module docs
/// for the partitioning and atomicity contract.
pub struct CubeServer {
    shape: Shape,
    shards: Vec<Shard>,
    /// Serialises update batches so per-shard installs from different
    /// batches cannot interleave; a multi-part read that keeps losing the
    /// race with installs runs under it.
    writer: Mutex<()>,
    /// The install sequence multi-part reads validate against: odd while
    /// a multi-shard batch is installing, moved by every batch. Written
    /// only under `writer`.
    installs: AtomicU64,
    /// Latency objective carried from [`ServeConfig::slo`].
    slo: Option<SloSpec>,
    /// In-flight shed threshold from [`ServeConfig::queue_depth_limit`].
    queue_limit: Option<i64>,
    /// Destination for end-to-end query traces. `None` (the default)
    /// keeps tracing fully disabled: with no root span ever opened, the
    /// per-query cost of every instrumentation point downstream is one
    /// relaxed atomic load.
    tracer: Option<Arc<olap_telemetry::TraceSink>>,
    /// Head-sampling period: trace every `trace_sample`-th query (1 =
    /// every query). See [`CubeServer::enable_tracing_sampled`].
    trace_sample: u64,
    /// Round-robin query counter driving the head sample.
    trace_seq: std::sync::atomic::AtomicU64,
}

impl CubeServer {
    /// Partitions `cube` and builds one shard stack per slab. Starts no
    /// thread: queries run on their callers' threads.
    ///
    /// # Errors
    /// [`ServerError::Config`] when the cube or shard count is unusable.
    pub fn build(cube: &DenseArray<i64>, config: ServeConfig) -> Result<Self, ServerError> {
        let shape = cube.shape().clone();
        if shape.ndim() == 0 || shape.is_empty() {
            return Err(ServerError::Config("cannot serve an empty cube".into()));
        }
        let n0 = shape.dim(0);
        if config.shards == 0 {
            return Err(ServerError::Config("shard count must be at least 1".into()));
        }
        let k = config.shards.min(n0);
        let mut shards = Vec::with_capacity(k);
        for i in 0..k {
            let lo = i * n0 / k;
            let hi = (i + 1) * n0 / k;
            let shard = build_shard(cube, i, lo, hi, &config)?;
            shards.push(shard);
        }
        Ok(CubeServer {
            shape,
            shards,
            writer: Mutex::new(()),
            installs: AtomicU64::new(0),
            slo: config.slo,
            queue_limit: config.queue_depth_limit,
            tracer: None,
            trace_sample: 1,
            trace_seq: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The served cube's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The latency objective this server was configured with, if any.
    pub fn slo(&self) -> Option<SloSpec> {
        self.slo
    }

    /// Routes every subsequent query's span tree into `sink`: each
    /// `range_sum`/`range_max`/`range_min` opens a `serve_query` root
    /// span on the calling thread, and each shard part's execution spans
    /// nest under it (see the `olap_telemetry::trace` module docs for the
    /// tree shape).
    pub fn enable_tracing(&mut self, sink: Arc<olap_telemetry::TraceSink>) {
        self.tracer = Some(sink);
        self.trace_sample = 1;
    }

    /// [`CubeServer::enable_tracing`] with head sampling: only every
    /// `every`-th query (round-robin across all entry points; `0` is
    /// treated as `1`) opens a root span; the rest run the fully
    /// disabled path. This is the production configuration. A span costs
    /// two clock reads and one sink record, a traced query six or more
    /// spans — about 1 µs, three times a cached query itself — so a
    /// 1-in-N head sample adds about 1/N µs per query: choose N against
    /// the query cost being served, which the perf ledger (`benchmark/`)
    /// reports as `server.fanout1_p50_us`; its `client.trace_overhead`
    /// rung is the nearest ledger figure for what timing every op costs.
    ///
    /// Note the slow-query ring only sees sampled queries: head sampling
    /// decides before the outcome is known, which is the standard trade
    /// against the cost of tracing everything.
    pub fn enable_tracing_sampled(&mut self, sink: Arc<olap_telemetry::TraceSink>, every: u64) {
        self.tracer = Some(sink);
        self.trace_sample = every.max(1);
    }

    /// The installed trace sink, if any.
    pub fn tracer(&self) -> Option<&Arc<olap_telemetry::TraceSink>> {
        self.tracer.as_ref()
    }

    /// Opens the per-query root span when tracing is enabled. Held by
    /// the query entry points across fan-out and merge; inert (`None`)
    /// without an installed sink.
    fn root_span(&self) -> Option<olap_telemetry::TraceSpan> {
        use std::sync::atomic::Ordering;
        let sink = self.tracer.as_ref()?;
        if self.trace_sample > 1 {
            // ordering: Relaxed — a pure round-robin sample counter; no
            // other memory hangs off its value, and which queries get
            // picked under concurrency is sampling noise by definition.
            let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
            if !seq.is_multiple_of(self.trace_sample) {
                return None;
            }
        }
        Some(olap_telemetry::TraceSpan::root(sink, "serve_query"))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving statistics: slab extents, snapshot liveness,
    /// parts in flight.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                rows: (s.lo, s.lo + s.len - 1),
                epochs: s.router().epoch_stats(),
                queue_depth: s.depth.get(),
                cache: s.cache.stats(),
            })
            .collect()
    }

    /// Semantic-cache counters summed across every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let st = s.cache.stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.invalidations += st.invalidations;
            total.insertions += st.insertions;
            total.evictions += st.evictions;
            total.entries += st.entries;
        }
        total
    }

    /// Range sum over the global cube: answers every overlapping shard's
    /// part in shard order and adds the partial sums. Degraded shard
    /// answers merge by adding their guaranteed bounds — the result
    /// interval still contains the true global sum.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        let _root = self.root_span();
        let (acc, shards) =
            self.fan_out(query, EngineOp::Sum, |acc: &mut SumFold, _, volume, out| {
                acc.cost += out.cost();
                match out {
                    ShardOutcome::Exact(o) => {
                        let v = o.value().copied().unwrap_or(0);
                        acc.value += v;
                        acc.lower += v;
                        acc.upper += v;
                        acc.merge.note_exact(volume);
                    }
                    ShardOutcome::Degraded {
                        estimate, reason, ..
                    } => {
                        acc.value += estimate.value;
                        acc.lower += estimate.lower;
                        acc.upper += estimate.upper;
                        acc.merge.note_degraded(volume, &estimate, reason);
                    }
                }
            })?;
        let _merge = olap_telemetry::TraceSpan::start("merge");
        let estimate = acc.merge.finish(acc.value, acc.lower, acc.upper);
        record_served(estimate.is_some());
        Ok(ServerAnswer {
            value: acc.value,
            at: None,
            cost: acc.cost,
            shards,
            estimate,
        })
    }

    /// Range max with global argmax.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_max(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.extremum(query, EngineOp::Max)
    }

    /// Range min with global argmin.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_min(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.extremum(query, EngineOp::Min)
    }

    fn extremum(&self, query: &RangeQuery, op: EngineOp) -> Result<ServerAnswer, ServerError> {
        let _root = self.root_span();
        let (acc, shards) =
            self.fan_out(query, op, |acc: &mut ExtremumFold, shard, volume, out| {
                let ExtremumFold {
                    best,
                    cost,
                    folded,
                    merge,
                } = acc;
                *cost += out.cost();
                let (v, lo, hi) = match out {
                    ShardOutcome::Exact(o) => {
                        let Answer::Extremum { mut at, value } = o.answer else {
                            return; // empty slab intersection contributes nothing
                        };
                        if let Some(first) = at.first_mut() {
                            *first += shard.lo;
                        }
                        let better = match (&*best, op) {
                            (None, _) => true,
                            (Some((b, _)), EngineOp::Max) => value > *b,
                            (Some((b, _)), _) => value < *b,
                        };
                        if better {
                            *best = Some((value, at));
                        }
                        merge.note_exact(volume);
                        (value, value, value)
                    }
                    ShardOutcome::Degraded {
                        estimate, reason, ..
                    } => {
                        merge.note_degraded(volume, &estimate, reason);
                        (estimate.value, estimate.lower, estimate.upper)
                    }
                };
                *folded = Some(match *folded {
                    None => (v, lo, hi),
                    Some((fv, fl, fh)) => match op {
                        EngineOp::Max => (fv.max(v), fl.max(lo), fh.max(hi)),
                        _ => (fv.min(v), fl.min(lo), fh.min(hi)),
                    },
                });
            })?;
        let _merge = olap_telemetry::TraceSpan::start("merge");
        let (value, lower, upper) = acc
            .folded
            .ok_or_else(|| ServerError::Config("no shard produced an extremum".into()))?;
        let estimate = acc.merge.finish(value, lower, upper);
        // An interpolated extremum has no attained cell: `at` only
        // survives a fully exact merge.
        let at = if estimate.is_none() {
            acc.best.map(|(_, at)| at)
        } else {
            None
        };
        record_served(estimate.is_some());
        Ok(ServerAnswer {
            value,
            at,
            cost: acc.cost,
            shards,
            estimate,
        })
    }

    /// Applies one batch of absolute-value cell updates. Validates the
    /// whole batch first, then installs each touched shard's successor
    /// snapshot. Readers see the batch whole or not at all (module docs).
    ///
    /// # Errors
    /// Validation failures (nothing applied), shard derive failures (the
    /// failing shard and later ones keep their current snapshot).
    pub fn apply_updates(&self, updates: &[(Vec<usize>, i64)]) -> Result<AccessStats, ServerError> {
        let _writer = self.lock_writer();
        let mut batches: Vec<Vec<(Vec<usize>, i64)>> = vec![Vec::new(); self.shards.len()];
        for (idx, v) in updates {
            self.shape.check_index(idx)?;
            let row = idx.first().copied().unwrap_or(0);
            let (shard, lo) = self.owning_shard(row)?;
            let mut local = idx.clone();
            if let Some(first) = local.first_mut() {
                *first -= lo;
            }
            if let Some(batch) = batches.get_mut(shard) {
                batch.push((local, *v));
            }
        }
        let touched = batches.iter().filter(|b| !b.is_empty()).count();
        if touched == 0 {
            return Ok(AccessStats::new());
        }
        let multi = touched > 1;
        if multi {
            // ordering: Relaxed — the odd mark is ordered before the
            // installs by the Release fence below.
            self.installs.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Release fence — orders every earlier add to `installs`
        // (this batch's odd mark, or the previous batch's closing add)
        // before the snapshot stores below. A reader whose part observes
        // one of those snapshots fences Acquire, and so loads a sequence
        // past the one it started on.
        fence(Ordering::Release);
        let mut stats = AccessStats::new();
        let installed = self
            .shards
            .iter()
            .zip(&batches)
            .filter(|(_, batch)| !batch.is_empty())
            .try_for_each(|(shard, batch)| {
                stats.merge(&shard.cache.apply_updates(batch)?);
                Ok::<(), ServerError>(())
            });
        let closing = if multi { 1 } else { 2 };
        // ordering: Release — pairs with a reader's opening Acquire load:
        // a read that starts on the new, even sequence sees every
        // snapshot this batch installed. Added on failure too, so the
        // sequence never stays odd.
        self.installs.fetch_add(closing, Ordering::Release);
        installed.map(|()| stats)
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard owning global row `row`, with its slab offset.
    fn owning_shard(&self, row: usize) -> Result<(usize, usize), ServerError> {
        self.shards
            .iter()
            .enumerate()
            .find(|(_, s)| row >= s.lo && row < s.lo + s.len)
            .map(|(i, s)| (i, s.lo))
            .ok_or_else(|| ServerError::Config(format!("row {row} is outside every shard")))
    }

    /// Answers `query`'s part on every shard whose slab the region
    /// overlaps and folds the outcomes into a fresh `A`, validated against
    /// the install sequence when there is more than one part (module docs
    /// on consistency). Returns the fold and how many shards took part.
    /// The first failing part fails the query.
    fn fan_out<A: Default>(
        &self,
        query: &RangeQuery,
        op: EngineOp,
        mut fold: impl FnMut(&mut A, &Shard, u64, ShardOutcome),
    ) -> Result<(A, usize), ServerError> {
        let region = query.to_region(&self.shape)?;
        let r0 = region.range(0);
        if self.owning_shard(r0.lo())? == self.owning_shard(r0.hi())? {
            return self.parts(op, &region, &mut fold);
        }
        for _ in 0..CONSISTENT_TRIES {
            // ordering: Acquire — pairs with the writer's closing Release
            // add, so every snapshot the sequence covers is visible to
            // the parts below.
            let seq = self.installs.load(Ordering::Acquire);
            if !seq.is_multiple_of(2) {
                // A multi-shard batch is installing.
                std::hint::spin_loop();
                continue;
            }
            let answer = self.parts(op, &region, &mut fold)?;
            // ordering: Acquire fence — pairs with the writer's Release
            // fence: if a part observed a snapshot stored after it, the
            // add before that fence is visible to the load below.
            fence(Ordering::Acquire);
            // ordering: Relaxed — ordered after the parts by the fence.
            if self.installs.load(Ordering::Relaxed) == seq {
                return Ok(answer);
            }
        }
        // Installs kept landing mid-read: run once more with none able to.
        let _writer = self.lock_writer();
        self.parts(op, &region, &mut fold)
    }

    /// One pass of [`CubeServer::fan_out`]: the parts in shard order, on
    /// the calling thread, each outcome folded as soon as it is produced
    /// with the shard and the part's cell count.
    fn parts<A: Default>(
        &self,
        op: EngineOp,
        region: &Region,
        fold: &mut impl FnMut(&mut A, &Shard, u64, ShardOutcome),
    ) -> Result<(A, usize), ServerError> {
        let r0 = region.range(0);
        // Cells per leading row of the region: a part's volume is its row
        // count times this.
        let row_cells = (region.volume() / r0.len()) as u64;
        let telemetry = olap_telemetry::current();
        let mut acc = A::default();
        let mut parts = 0usize;
        for shard in &self.shards {
            let (slab_lo, slab_hi) = (shard.lo, shard.lo + shard.len - 1);
            if r0.lo() > slab_hi || r0.hi() < slab_lo {
                continue;
            }
            // The shard-local region: the caller's, with axis 0 clamped
            // to the slab and shifted to slab coordinates.
            let lo = r0.lo().max(slab_lo) - shard.lo;
            let hi = r0.hi().min(slab_hi) - shard.lo;
            let mut ranges = region.ranges().to_vec();
            if let Some(first) = ranges.first_mut() {
                *first = Range::new(lo, hi)?;
            }
            let local = Region::new(ranges)?;
            // Clock only under a context: an idle site is one atomic load.
            let observing = telemetry.as_ref().map(|ctx| (ctx, Instant::now()));
            let out = shard.answer(&local, op, self.queue_limit)?;
            if let Some((ctx, started)) = observing {
                ctx.registry()
                    .histogram("olap_serve_latency_ns", &[("shard", shard.label.as_str())])
                    .observe(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            fold(&mut acc, shard, (hi - lo + 1) as u64 * row_cells, out);
            parts += 1;
        }
        Ok((acc, parts))
    }
}

impl std::fmt::Debug for CubeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeServer")
            .field("shape", &self.shape)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Builds one shard: slab sub-cube, router, cache. The router holds two
/// exact engines over one shared sub-cube: a default [`CubeIndex`] (basic
/// prefix sums at `2^d` accesses per sum by Theorem 1, plus the §6 max
/// tree) and the [`NaiveEngine`] failover anchor. §8 prices no tree-sum
/// plan below the index, so none is built. When degradation is on, an
/// [`ApproxEngine`] tier sits beside them. A shard whose index is
/// quarantined answers by naive scan until it recovers.
fn build_shard(
    cube: &DenseArray<i64>,
    i: usize,
    lo: usize,
    hi: usize,
    config: &ServeConfig,
) -> Result<Shard, ServerError> {
    let shape = cube.shape();
    let mut dims = shape.dims().to_vec();
    if let Some(first) = dims.first_mut() {
        *first = hi - lo;
    }
    let local_shape = Shape::new(&dims)?;
    // Row-major layout: the slab is one contiguous run of the base array.
    let stride = shape.strides().first().copied().unwrap_or(1);
    let slab = cube
        .as_slice()
        .get(lo * stride..hi * stride)
        .ok_or_else(|| ServerError::Config(format!("slab {lo}..{hi} out of range")))?;
    // One base cube for the whole stack: every exact engine holds this
    // `Arc`, and each update batch replaces it with one post-batch copy
    // they all adopt (`BatchImage`).
    let sub = Arc::new(DenseArray::from_vec(local_shape, slab.to_vec())?);

    let index: Box<dyn RangeEngine<i64>> =
        Box::new(CubeIndex::build(Arc::clone(&sub), IndexConfig::default())?);
    let label = format!("shard-{i}");
    let router = AdaptiveRouter::labeled(&label);
    match &config.faults {
        Some(plan) => router.push(Box::new(FaultyEngine::new(index, *plan))),
        None => router.push(index),
    }
    // The degradation tier is built from the same slab snapshot as the
    // exact engines; router updates derive it in lockstep, so estimates
    // always bracket the snapshot the query pinned. Block size 8 keeps
    // the anchor grid ~2^-3d of the slab while bounding every partial
    // block's interpolation to 8^d cells.
    if config.degrade_enabled() {
        let private = DenseArray::clone(&sub);
        router.set_degrade_tier(Arc::new(ApproxEngine::build(private, DEGRADE_BLOCK)?));
    }
    // The naive scan is never fault-wrapped: it is the shard's last-resort
    // failover target, so chaos drills stay answerable.
    router.push(Box::new(NaiveEngine::new(sub)));
    router.set_budget(config.budget);
    let cache = SemanticCache::with_label(Arc::new(router), config.cache_size, &label);
    Ok(Shard {
        lo,
        len: hi - lo,
        cache,
        depth: InFlightCount::default(),
        label,
    })
}
