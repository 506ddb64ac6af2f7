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
//! shed check → [`SemanticCache`] → [`AdaptiveRouter`] → kernel → the
//! router's [`AdaptiveRouter::fall_back`], each part a [`Routed`] folded
//! into one per-op partial as it is produced. Nothing on that path needs
//! serialising — every engine is `Send + Sync` with `&self` queries, and
//! every update installs an immutable snapshot, so a reader pins the
//! version it started on and is never blocked by a writer. Cost-ranked
//! routing, failover, circuit breakers and budget admission all apply per
//! shard.
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
//! The count is striped by calling thread with the engine's stripe
//! primitive ([`olap_engine::stripe`]), the one the snapshot pins and the
//! cache tables use: each thread writes only its own stripe's slot, and a
//! read of the count sums the slots. That count is what
//! [`ShardStats::queue_depth`] reports, what
//! [`ServeConfig::queue_depth_limit`] sheds on, and what the
//! `olap_shard_queue_depth` gauge exports under a telemetry context.
//! Telemetry records into the *calling* thread's context
//! (`olap_telemetry::current()` at the time of the call), not the one
//! active when the server was built.
//!
//! # Semantic caching
//!
//! Each shard answers every part, sum, max or min, through a per-shard
//! [`SemanticCache`] wrapping its router: a region repeated at the
//! shard's epoch hits exactly (one entry per region holds its sum, max
//! and min), everything else falls through, and once a table is full a
//! new region goes in only on its second miss. A degraded answer is
//! never stored. The cache keeps one table per calling thread's stripe,
//! so concurrent hits write no shared line. Updates go through the same
//! cache straight to the router, which logs each batch's cells with the
//! engine set it installs; each table catches up from that log on its
//! next lookup and invalidates region-wise — only entries whose region
//! holds an updated cell are dropped — so an install visits no table.
//! `ServeConfig::cache_size == 0` disables all of it.
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
use olap_engine::stripe::Striped;
use olap_engine::{
    AdaptiveRouter, ApproxEngine, CacheStats, CubeIndex, DegradeReason, EngineError, EngineOp,
    EpochStats, FaultPlan, FaultyEngine, IndexConfig, NaiveEngine, RangeEngine, Routed,
    SemanticCache,
};
use olap_query::{AccessStats, Answer, RangeQuery};
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
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
    /// Per-shard semantic-cache capacity in entries per stripe table
    /// (each calling thread's stripe has its own table, so a shard read
    /// from `k` stripes holds up to `k × cache_size` entries); 0 disables
    /// caching (every lookup is a pure passthrough to the shard router).
    pub cache_size: usize,
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
            queue_depth_limit: None,
        }
    }
}

/// A declarative per-shard latency SLO: bounds on the serve-latency
/// quantiles (the `olap_serve_latency_ns` histogram family), each
/// optional. Plain data, evaluated by the scrape layer (`slo_report`).
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
    cache: SemanticCache<i64, Arc<AdaptiveRouter<i64>>>,
    /// Parts in flight: see [`InFlight`].
    depth: InFlightCount,
    label: String,
}

/// A shard's count of parts in flight, striped so concurrent callers do
/// not write one cache line: each thread counts into its own stripe's
/// slot ([`olap_engine::stripe`]), and a read sums the slots. Every slot
/// is ≥ 0 — a part's +1 and −1 land in the slot of the thread that runs
/// it, whose stripe is fixed for its life — so the sum is never negative.
#[derive(Default)]
struct InFlightCount(Striped<AtomicI64>);

impl InFlightCount {
    fn add(&self, delta: i64) {
        // ordering: Relaxed — an advisory count that publishes no other
        // memory.
        self.0.mine().fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> i64 {
        self.0
            .iter()
            // ordering: Relaxed — an advisory read, see `add`.
            .map(|(_, n)| n.load(Ordering::Relaxed))
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
    /// answerable query into an error. Otherwise the part reads exactly
    /// through the cache, and an exact failure goes to the router's
    /// [`AdaptiveRouter::fall_back`].
    fn answer(
        &self,
        region: &Region,
        op: EngineOp,
        limit: Option<i64>,
    ) -> Result<Routed<i64>, EngineError> {
        // An advisory load-shedding read: a racing exit only shifts which
        // path answers, and both paths are sound.
        if limit.is_some_and(|limit| self.depth.get() > limit) {
            let reason = DegradeReason::QueueDepth;
            if let Ok((estimate, stats)) = self.router().degrade(region, op, reason) {
                return Ok(Routed::Degraded {
                    estimate,
                    stats,
                    reason,
                });
            }
        }
        let _in_flight = self.enter();
        olap_telemetry::in_span("shard_exec", || match self.cache.read(region, op) {
            Ok(o) => Ok(Routed::Exact(o)),
            Err(e) => self.router().fall_back(region, op, e),
        })
    }
}

/// Tries a multi-part read makes against the install sequence before it
/// runs with the writer mutex held (see the module docs on consistency).
const CONSISTENT_TRIES: usize = 3;

/// Anchor-grid block size of every shard's degradation tier.
const DEGRADE_BLOCK: usize = 8;

/// A query's answer while its shard parts fold in, one shape for every
/// op. `folded` is `(value, lower, upper)`: an exact part is a point, a
/// degraded part its guaranteed interval. A sum adds the values with
/// wrapping, like every engine's sum, and the bounds exactly in `i128`;
/// a max or min folds each component by max or min, which keeps the
/// global extremum inside `[lower, upper]`. The argmax is kept only while
/// every part is exact: an interpolated extremum has no attained cell.
struct Partial {
    op: EngineOp,
    folded: Option<(i64, i128, i128)>,
    at: Option<Vec<usize>>,
    cost: u64,
    parts: usize,
    degraded: usize,
    reason: Option<DegradeReason>,
    exact_cells: u64,
    total_cells: u64,
}

impl Partial {
    fn new(op: EngineOp) -> Self {
        Partial {
            op,
            // A sum starts at zero; an extremum at its first part.
            folded: (op == EngineOp::Sum).then_some((0, 0, 0)),
            at: None,
            cost: 0,
            parts: 0,
            degraded: 0,
            reason: None,
            exact_cells: 0,
            total_cells: 0,
        }
    }

    /// Folds in one part of `volume` cells from the shard whose slab
    /// starts at global row `shard_lo`.
    fn add(&mut self, routed: Routed<i64>, shard_lo: usize, volume: u64) {
        self.cost += routed.cost();
        self.parts += 1;
        let (value, lower, upper, at) = match routed {
            Routed::Exact(o) => {
                let (value, at) = match (self.op, o.answer) {
                    (EngineOp::Sum, answer) => (answer.value().copied().unwrap_or(0), None),
                    (_, Answer::Extremum { mut at, value }) => {
                        if let Some(first) = at.first_mut() {
                            *first += shard_lo;
                        }
                        (value, Some(at))
                    }
                    // An empty slab intersection contributes nothing.
                    _ => return,
                };
                self.exact_cells += volume;
                (value, value, value, at)
            }
            Routed::Degraded {
                estimate, reason, ..
            } => {
                self.degraded += 1;
                self.reason.get_or_insert(reason);
                self.exact_cells += (estimate.fraction_exact * volume as f64).round() as u64;
                (estimate.value, estimate.lower, estimate.upper, None)
            }
        };
        self.total_cells += volume;
        let (lower, upper) = (i128::from(lower), i128::from(upper));
        self.folded = Some(match (self.folded, self.op) {
            (Some((v, l, h)), EngineOp::Sum) => (v.wrapping_add(value), l + lower, h + upper),
            (None, _) => {
                self.at = at;
                (value, lower, upper)
            }
            (Some((v, l, h)), op) => {
                let max = op == EngineOp::Max;
                if at.is_some() && (if max { value > v } else { value < v }) {
                    self.at = at;
                }
                if max {
                    (v.max(value), l.max(lower), h.max(upper))
                } else {
                    (v.min(value), l.min(lower), h.min(upper))
                }
            }
        });
    }

    /// The answer once every part is in.
    fn finish(self) -> Result<ServerAnswer, ServerError> {
        let (value, lower, upper) = self
            .folded
            .ok_or_else(|| ServerError::Config("no shard produced an extremum".into()))?;
        let estimate = self.reason.map(|reason| {
            // The value wrapped as exact sums do, so the true sum is inside
            // the bounds whenever both fit `i64`; past them it may have
            // wrapped anywhere, and only the whole range is guaranteed.
            let (lower, upper) = match (i64::try_from(lower), i64::try_from(upper)) {
                (Ok(lower), Ok(upper)) => (lower, upper),
                _ => (i64::MIN, i64::MAX),
            };
            ServedEstimate {
                lower,
                upper,
                error_bound: value.saturating_sub(lower).max(upper.saturating_sub(value)),
                degraded_shards: self.degraded,
                reason,
                exact_cells: self.exact_cells.min(self.total_cells),
                total_cells: self.total_cells,
            }
        });
        record_served(estimate.is_some());
        // The argmax survives only a fully exact merge.
        let at = if estimate.is_none() { self.at } else { None };
        Ok(ServerAnswer {
            value,
            at,
            cost: self.cost,
            shards: self.parts,
            estimate,
        })
    }
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

    /// The sink this query's root span records into: the installed one
    /// when this query is sampled, `None` otherwise.
    fn sampled_tracer(&self) -> Option<&Arc<olap_telemetry::TraceSink>> {
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
        Some(sink)
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
    /// part in shard order and adds the partial sums, wrapping like every
    /// engine's sum. Degraded shard answers merge by adding their
    /// guaranteed bounds — the result interval contains the true global
    /// sum whenever that sum fits `i64`.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.serve(query, EngineOp::Sum)
    }

    /// Range max with global argmax.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_max(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.serve(query, EngineOp::Max)
    }

    /// Range min with global argmin.
    ///
    /// # Errors
    /// Validation failures, shard router errors.
    pub fn range_min(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.serve(query, EngineOp::Min)
    }

    fn serve(&self, query: &RangeQuery, op: EngineOp) -> Result<ServerAnswer, ServerError> {
        // The root span covers fan-out and merge.
        let run = || {
            let partial = self.fan_out(query, op)?;
            olap_telemetry::in_span("merge", || partial.finish())
        };
        match self.sampled_tracer() {
            Some(sink) => olap_telemetry::in_root_span(sink, "serve_query", run),
            None => run(),
        }
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
    /// overlaps and folds them into one [`Partial`], validated against the
    /// install sequence when there is more than one part (module docs on
    /// consistency). The first failing part fails the query.
    fn fan_out(&self, query: &RangeQuery, op: EngineOp) -> Result<Partial, ServerError> {
        let region = query.to_region(&self.shape)?;
        let r0 = region.range(0);
        if self.owning_shard(r0.lo())? == self.owning_shard(r0.hi())? {
            return self.parts(op, &region);
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
            let answer = self.parts(op, &region)?;
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
        self.parts(op, &region)
    }

    /// One pass of [`CubeServer::fan_out`]: the parts in shard order, on
    /// the calling thread, each folded as soon as it is produced.
    fn parts(&self, op: EngineOp, region: &Region) -> Result<Partial, ServerError> {
        let r0 = region.range(0);
        // Cells per leading row of the region: a part's volume is its row
        // count times this.
        let row_cells = (region.volume() / r0.len()) as u64;
        let telemetry = olap_telemetry::current();
        let mut partial = Partial::new(op);
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
            partial.add(out, shard.lo, (hi - lo + 1) as u64 * row_cells);
        }
        Ok(partial)
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
    // The degradation tier holds the same base as the exact engines, and
    // router updates derive it from the same batch image, so estimates
    // always bracket the snapshot the query pinned. Block size 8 keeps
    // the anchor grid ~2^-3d of the slab while bounding every partial
    // block's interpolation to 8^d cells.
    if config.degrade_enabled() {
        router.set_degrade_tier(Arc::new(ApproxEngine::build(
            Arc::clone(&sub),
            DEGRADE_BLOCK,
        )?));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_degrade_tier_shares_the_exact_engines_base_across_batches() {
        let cube = DenseArray::from_fn(Shape::new(&[16, 16]).unwrap(), |i| {
            (i[0] * 16 + i[1]) as i64
        });
        let config = ServeConfig {
            shards: 2,
            budget: QueryBudget::unlimited().degrade(),
            ..ServeConfig::default()
        };
        let server = CubeServer::build(&cube, config).unwrap();
        let shares_one_base = |server: &CubeServer| {
            server.shards.iter().all(|s| {
                let router = s.router();
                let tier = router.degrade_tier().expect("degrade is on");
                (0..router.len()).all(|i| {
                    router
                        .engine(i)
                        .base()
                        .is_some_and(|base| Arc::ptr_eq(base, tier.base()))
                })
            })
        };
        assert!(shares_one_base(&server), "at build");
        server
            .apply_updates(&[(vec![3, 4], 5000), (vec![12, 9], -7)])
            .unwrap();
        assert!(shares_one_base(&server), "after a batch");
        // The tier estimates the post-batch cube.
        let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
        let (estimate, _) = server.shards[0]
            .router()
            .degrade(&region, EngineOp::Sum, DegradeReason::QueueDepth)
            .unwrap();
        let truth = cube.fold_region(&region, 0i64, |s, &x| s + x) - cube.get(&[3, 4]) + 5000;
        assert!(estimate.contains(truth), "{truth} outside {estimate}");
    }
}
