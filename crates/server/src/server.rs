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
//! # Threads and queues
//!
//! Each shard owns one worker thread draining an mpsc queue. A fanned-out
//! query enqueues one job per overlapping shard and collects the partial
//! answers; the per-shard queue depth is tracked in an atomic (exported
//! as the `olap_shard_queue_depth` gauge under a telemetry context).
//! Workers execute through the shard's [`AdaptiveRouter`] — cost-ranked
//! routing, failover, circuit breakers, and budget admission all apply
//! per shard, and every update installs an immutable snapshot, so worker
//! reads are never blocked by a writer.
//!
//! # Semantic caching
//!
//! Each shard worker answers sums through a per-shard
//! [`SemanticCache`] wrapping its router: repeated regions hit exactly,
//! contained regions assemble by ±-combination when the cost model prices
//! the residuals below direct execution, and everything else falls
//! through. The worker also batch-plans its queue: jobs already waiting
//! are drained together, overlapping sum queries are grouped, and when
//! one execution of the group's bounding super-region is estimated
//! cheaper than the members' direct executions the super-region is
//! primed once so members assemble from it. Updates route through the
//! same cache, which invalidates region-wise — entries in untouched
//! slabs survive the install. `ServeConfig::cache_size == 0` disables
//! all of it.
//!
//! # Updates
//!
//! [`CubeServer::apply_updates`] validates the whole batch up front,
//! splits it by owning shard, and installs each shard's successor
//! snapshot atomically under one server-wide writer mutex. A batch is
//! atomic *per shard*, not across shards: a concurrent fanned-out query
//! may combine pre-batch rows from one shard with post-batch rows from
//! another. Single-shard batches (any single-cell update is one) are
//! globally atomic — the discipline the load driver uses to assert
//! pre-or-post-oracle answers.

use crate::ServerError;
use olap_array::{DegradePolicy, DenseArray, QueryBudget, Region, Shape};
use olap_engine::{
    AdaptiveRouter, ApproxEngine, CacheBackend, CacheStats, CubeIndex, DegradeReason, EngineError,
    EngineOp, EpochStats, FaultPlan, FaultyEngine, IndexConfig, NaiveEngine, RangeEngine,
    SemanticCache, SumTreeEngine,
};
use olap_query::algebra::{bounding_union, difference};
use olap_query::{AccessStats, Answer, Estimate, QueryOutcome, RangeQuery};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// How a [`CubeServer`] is assembled.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shard count; clamped to the leading dimension's extent.
    pub shards: usize,
    /// Per-query budget every shard router admits queries under.
    pub budget: QueryBudget,
    /// Optional fault injection: wraps each shard's precomputed engines
    /// (never the naive fallback) so chaos drills can prove failover and
    /// snapshot installs keep answers exact.
    pub faults: Option<FaultPlan>,
    /// Per-shard semantic-cache capacity in entries; 0 disables caching
    /// (every lookup is a pure passthrough to the shard router).
    pub cache_size: usize,
    /// Declarative latency objective the operator holds this server to.
    /// The server only carries it ([`CubeServer::slo`]); evaluation
    /// against live quantiles is the scrape layer's job (`slo_report`).
    pub slo: Option<SloSpec>,
    /// Queue-depth threshold above which a fanned-out query is shed to
    /// the shard's degradation tier instead of enqueued (the
    /// [`DegradeReason::QueueDepth`] path). `None` never sheds.
    pub queue_depth_limit: Option<i64>,
}

impl ServeConfig {
    /// Whether this configuration arms the degradation tier: either the
    /// budget policy opts into falling back on exhaustion, or a queue
    /// depth limit asks for pre-dispatch shedding.
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

/// One fanned-out partial answer: the shard, its local query volume (for
/// exact-cell accounting in the merge), and the outcome.
struct ShardPart {
    shard: usize,
    volume: u64,
    out: ShardOutcome,
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
    /// Jobs currently enqueued (or in flight) on the shard's worker.
    pub queue_depth: i64,
    /// The shard's semantic-cache counters.
    pub cache: CacheStats,
}

/// One enqueued unit of work: a shard-local query plus the reply slot.
struct Job {
    shard: usize,
    op: EngineOp,
    query: RangeQuery,
    reply: mpsc::Sender<(usize, Result<ShardOutcome, EngineError>)>,
    /// Trace carrier across the queue: started on the submitting thread
    /// under the query's root span, finished by the worker — so the time
    /// a job sits on the mpsc queue is its own `queue_wait` span.
    trace: Option<olap_telemetry::PendingSpan>,
}

/// One slab of the cube: its row range, router, and worker queue.
/// The cache type every shard serves through: a semantic cache in front
/// of the shard's router.
type ShardCache = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

struct Shard {
    /// First global row of the slab.
    lo: usize,
    /// Rows in the slab.
    len: usize,
    router: Arc<AdaptiveRouter<i64>>,
    /// Subsumption-aware result cache over `router`; all worker reads
    /// and all installs go through it so invalidation stays region-wise.
    /// The type is spelled out (not the `ShardCache` alias) so the
    /// analyzer's nominal lock-field pass sees `SemanticCache` and keeps
    /// this field in the lock-order acquisition graph.
    cache: Arc<SemanticCache<i64, Arc<AdaptiveRouter<i64>>>>,
    /// `None` once the server is shutting down.
    tx: Option<mpsc::Sender<Job>>,
    depth: Arc<AtomicI64>,
    label: String,
    worker: Option<JoinHandle<()>>,
}

impl Shard {
    fn submit(&self, job: Job) -> Result<(), ServerError> {
        let shard = job.shard;
        let tx = self
            .tx
            .as_ref()
            .ok_or(ServerError::ShardUnavailable { shard })?;
        // ordering: AcqRel — the depth counter pairs increments here with
        // the worker's decrement so observers never see a negative depth.
        self.depth.fetch_add(1, Ordering::AcqRel);
        publish_depth(&self.label, &self.depth);
        tx.send(job).map_err(|_| {
            // ordering: AcqRel — roll back the optimistic increment when
            // the worker is gone and the send bounced.
            self.depth.fetch_sub(1, Ordering::AcqRel);
            ServerError::ShardUnavailable { shard }
        })
    }
}

/// Runs `f` under `scope` — the telemetry context (`olap_telemetry::current()`)
/// captured on the thread that spawned this one — so worker-side cache
/// counters and queue gauges publish to the same registry as the
/// spawner's.
pub(crate) fn enter_scope(scope: Option<Arc<olap_telemetry::Telemetry>>, f: impl FnOnce()) {
    match scope {
        Some(ctx) => olap_telemetry::with_scope(&ctx, f),
        None => f(),
    }
}

/// Pushes a shard's queue depth to the metric registry (no-op without
/// an active context).
fn publish_depth(label: &str, depth: &AtomicI64) {
    if let Some(ctx) = olap_telemetry::current() {
        ctx.registry()
            .gauge("olap_shard_queue_depth", &[("shard", label)])
            // ordering: Relaxed — reporting read; queue correctness is
            // carried by the channel, not this gauge.
            .set(depth.load(Ordering::Relaxed) as f64);
    }
}

/// Most queued jobs one worker iteration drains and batch-plans together.
const BATCH_DRAIN_LIMIT: usize = 32;

/// Anchor-grid block size of every shard's degradation tier.
const DEGRADE_BLOCK: usize = 8;

/// The worker loop: drain every job already queued (up to
/// [`BATCH_DRAIN_LIMIT`]), batch-plan overlapping sums, then answer each
/// job through the shard's semantic cache.
fn shard_worker(
    rx: mpsc::Receiver<Job>,
    cache: Arc<ShardCache>,
    depth: Arc<AtomicI64>,
    label: String,
) {
    while let Ok(job) = rx.recv() {
        let mut jobs = vec![job];
        while jobs.len() < BATCH_DRAIN_LIMIT {
            match rx.try_recv() {
                Ok(next) => jobs.push(next),
                Err(_) => break,
            }
        }
        // ordering: AcqRel — pairs with `Shard::submit`'s increment; the
        // whole drained batch is now in flight.
        depth.fetch_sub(jobs.len() as i64, Ordering::AcqRel);
        publish_depth(&label, &depth);
        if jobs.len() > 1 {
            plan_batch(&cache, &jobs);
        }
        for job in jobs {
            let Job {
                shard,
                op,
                query,
                reply,
                trace,
            } = job;
            // Re-enter the query's trace, if it carried one: finishing
            // the pending span records the queue wait, and entering the
            // returned scope parents the worker-side spans (shard_exec,
            // the cache's lookup/assembly, the router's dispatch) under
            // the same root.
            let entered = trace.map(olap_telemetry::PendingSpan::finish_and_enter);
            let out = {
                let _exec_span = olap_telemetry::TraceSpan::start("shard_exec");
                let exact = match op {
                    EngineOp::Sum => cache.range_sum(&query),
                    EngineOp::Max => cache.range_max(&query),
                    EngineOp::Min => cache.range_min(&query),
                    EngineOp::Update => Err(EngineError::unsupported(
                        "shard-worker",
                        EngineOp::Update.name(),
                    )),
                };
                match exact {
                    Ok(o) => Ok(ShardOutcome::Exact(o)),
                    Err(e) => degrade_fallback(&cache, &query, op, e),
                }
            };
            // Leave the trace scope *before* replying: every worker-side
            // span is then closed strictly before the submitter can
            // observe the reply and close the root, so child spans never
            // outlive their parent in the assembled tree.
            drop(entered);
            // A dropped reply receiver means the query already failed on
            // another shard; nothing to do with this partial answer.
            let _ = reply.send((shard, out));
        }
    }
}

/// The worker-side degradation gate: when the shard's budget policy is
/// [`DegradePolicy::Degrade`] and the exact failure is an eligible
/// exhaustion (deadline, access budget, every engine faulted), the shard
/// router's approximate tier answers instead. Cancellation and
/// validation errors pass through — same eligibility matrix as
/// [`AdaptiveRouter::answer`]. A tier failure (none registered,
/// unsupported op) reports the original exact error.
fn degrade_fallback(
    cache: &ShardCache,
    query: &RangeQuery,
    op: EngineOp,
    exact_err: EngineError,
) -> Result<ShardOutcome, EngineError> {
    let router = cache.backend();
    if router.budget().on_exhaustion != DegradePolicy::Degrade {
        return Err(exact_err);
    }
    let reason = match &exact_err {
        EngineError::DeadlineExceeded { .. } => DegradeReason::DeadlineExceeded,
        EngineError::BudgetExhausted { .. } => DegradeReason::BudgetExhausted,
        EngineError::NoCandidate { .. } => DegradeReason::NoCandidate,
        e if e.is_engine_fault() => DegradeReason::EngineFaults,
        _ => return Err(exact_err),
    };
    match router.degrade(query, op, reason) {
        Ok((estimate, stats)) => Ok(ShardOutcome::Degraded {
            estimate,
            stats,
            reason,
        }),
        Err(_) => Err(exact_err),
    }
}

/// Accumulates cross-shard degradation metadata while a merge folds the
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

/// Scans a drained job batch for overlapping sum queries and primes the
/// cache with each group's bounding super-region, so the group executes
/// once and its members answer by exact hit or ±-combination.
///
/// Priming is gated on the backend's own estimates: one super-region
/// execution must price below the members' direct executions. Over a
/// healthy prefix-sum backend direct costs `2^d` per member and the gate
/// stays shut; it opens exactly when the shard is degraded to tree or
/// naive serving, where shared work is worth real accesses.
fn plan_batch(cache: &ShardCache, jobs: &[Job]) {
    let shape = match cache.backend().shape() {
        Some(s) => s,
        None => return,
    };
    let sums: Vec<Region> = jobs
        .iter()
        .filter(|j| j.op == EngineOp::Sum)
        .filter_map(|j| j.query.to_region(&shape).ok())
        .collect();
    if sums.len() < 2 {
        return;
    }
    // Greedy overlap grouping: each region joins the first group whose
    // running bounding box it overlaps, widening that box.
    let mut groups: Vec<(Region, Vec<Region>)> = Vec::new();
    for r in sums {
        match groups.iter_mut().find(|(bbox, _)| bbox.overlaps(&r)) {
            Some((bbox, members)) => {
                if let Some(widened) = bounding_union(&[bbox.clone(), r.clone()]) {
                    *bbox = widened;
                }
                members.push(r);
            }
            None => groups.push((r.clone(), vec![r])),
        }
    }
    // The §3 combine term: 2^d corner lookups per assembled answer.
    let combine = (1u64 << shape.ndim().min(62)) as f64;
    for (bbox, members) in groups {
        if members.len() < 2 {
            continue;
        }
        let super_cost = cache.backend().estimate(&RangeQuery::from_region(&bbox));
        if !super_cost.is_finite() {
            continue;
        }
        // Each member's saving: direct execution versus assembling
        // `+super − Σ residual` out of the primed entry. The member-side
        // arbitration in the cache makes the same comparison, so a prime
        // is worth its one super execution exactly when the summed
        // positive savings exceed it.
        let savings: f64 = members
            .iter()
            .map(|m| {
                let direct = cache.backend().estimate(&RangeQuery::from_region(m));
                let assemble = combine
                    + difference(&bbox, m)
                        .iter()
                        .map(|r| cache.backend().estimate(&RangeQuery::from_region(r)))
                        .sum::<f64>();
                (direct - assemble).max(0.0)
            })
            .sum();
        if super_cost < savings {
            // Best-effort: a failed prime just means members fall back to
            // their own direct executions.
            let _ = cache.prime(&bbox);
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
    /// Serialises cross-shard update batches so per-shard installs from
    /// different batches cannot interleave.
    writer: Mutex<()>,
    /// Latency objective carried from [`ServeConfig::slo`].
    slo: Option<SloSpec>,
    /// Queue-depth shed threshold from [`ServeConfig::queue_depth_limit`].
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
    /// Partitions `cube` and boots one worker thread per shard.
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
    /// span, fans `queue_wait` spans across the shard queues, and the
    /// workers' execution spans land in the same tree (see the
    /// `olap_telemetry::trace` module docs for the tree shape).
    pub fn enable_tracing(&mut self, sink: Arc<olap_telemetry::TraceSink>) {
        self.tracer = Some(sink);
        self.trace_sample = 1;
    }

    /// [`CubeServer::enable_tracing`] with head sampling: only every
    /// `every`-th query (round-robin across all entry points; `0` is
    /// treated as `1`) opens a root span; the rest run the fully
    /// disabled path. This is the production configuration — a full
    /// per-query span tree costs a handful of timestamped records, which
    /// on a microsecond-scale dispatch-bound query is measurable, while
    /// a 1-in-N head sample amortises it to noise. The CI bench gate
    /// (`serve_throughput/sampled_trace_range_sum`) pins that amortised
    /// cost at ≤ 1.05× the untraced path.
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

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving statistics: slab extents, snapshot liveness,
    /// queue depths.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                rows: (s.lo, s.lo + s.len - 1),
                epochs: s.router.epoch_stats(),
                // ordering: Relaxed — reporting read.
                queue_depth: s.depth.load(Ordering::Relaxed),
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
            total.assemblies += st.assemblies;
            total.misses += st.misses;
            total.invalidations += st.invalidations;
            total.insertions += st.insertions;
            total.evictions += st.evictions;
            total.entries += st.entries;
        }
        total
    }

    /// Range sum over the global cube: fans out to every overlapping
    /// shard and adds the partial sums. Degraded shard answers merge by
    /// adding their guaranteed bounds — the result interval still
    /// contains the true global sum.
    ///
    /// # Errors
    /// Validation failures, shard router errors, dead shards.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        let _root = self.root_span();
        let parts = self.fan_out(query, EngineOp::Sum)?;
        let _merge = olap_telemetry::TraceSpan::start("merge");
        let shards = parts.len();
        let mut value = 0i64;
        let mut lower = 0i64;
        let mut upper = 0i64;
        let mut cost = 0u64;
        let mut merge = DegradeMerge::default();
        // analyzer: allow(budget-coverage, reason = "merge over per-shard partials: trip count = shard count; each shard charges its own meter")
        for part in &parts {
            cost += part.out.cost();
            match &part.out {
                ShardOutcome::Exact(o) => {
                    let v = o.value().copied().unwrap_or(0);
                    value += v;
                    lower += v;
                    upper += v;
                    merge.note_exact(part.volume);
                }
                ShardOutcome::Degraded {
                    estimate, reason, ..
                } => {
                    value += estimate.value;
                    lower += estimate.lower;
                    upper += estimate.upper;
                    merge.note_degraded(part.volume, estimate, *reason);
                }
            }
        }
        let estimate = merge.finish(value, lower, upper);
        record_served(estimate.is_some());
        Ok(ServerAnswer {
            value,
            at: None,
            cost,
            shards,
            estimate,
        })
    }

    /// Range max with global argmax.
    ///
    /// # Errors
    /// Validation failures, shard router errors, dead shards.
    pub fn range_max(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.extremum(query, EngineOp::Max)
    }

    /// Range min with global argmin.
    ///
    /// # Errors
    /// Validation failures, shard router errors, dead shards.
    pub fn range_min(&self, query: &RangeQuery) -> Result<ServerAnswer, ServerError> {
        self.extremum(query, EngineOp::Min)
    }

    fn extremum(&self, query: &RangeQuery, op: EngineOp) -> Result<ServerAnswer, ServerError> {
        let _root = self.root_span();
        let parts = self.fan_out(query, op)?;
        let _merge = olap_telemetry::TraceSpan::start("merge");
        let shards = parts.len();
        let mut best: Option<(i64, Vec<usize>)> = None;
        let mut cost = 0u64;
        // Folded `(value, lower, upper)` across parts: exact parts are
        // point intervals, degraded parts contribute their guaranteed
        // interval — folding each component by max (resp. min) keeps the
        // global extremum inside `[lower, upper]`.
        let mut folded: Option<(i64, i64, i64)> = None;
        let mut merge = DegradeMerge::default();
        for part in parts {
            cost += part.out.cost();
            let (v, lo, hi) = match part.out {
                ShardOutcome::Exact(o) => {
                    let Answer::Extremum { mut at, value } = o.answer else {
                        continue; // empty slab intersection contributes nothing
                    };
                    if let Some(first) = at.first_mut() {
                        *first += self.shard_row(part.shard);
                    }
                    let better = match (&best, op) {
                        (None, _) => true,
                        (Some((b, _)), EngineOp::Max) => value > *b,
                        (Some((b, _)), _) => value < *b,
                    };
                    if better {
                        best = Some((value, at));
                    }
                    merge.note_exact(part.volume);
                    (value, value, value)
                }
                ShardOutcome::Degraded {
                    estimate, reason, ..
                } => {
                    merge.note_degraded(part.volume, &estimate, reason);
                    (estimate.value, estimate.lower, estimate.upper)
                }
            };
            folded = Some(match folded {
                None => (v, lo, hi),
                Some((fv, fl, fh)) => match op {
                    EngineOp::Max => (fv.max(v), fl.max(lo), fh.max(hi)),
                    _ => (fv.min(v), fl.min(lo), fh.min(hi)),
                },
            });
        }
        let (value, lower, upper) =
            folded.ok_or_else(|| ServerError::Config("no shard produced an extremum".into()))?;
        let estimate = merge.finish(value, lower, upper);
        // An interpolated extremum has no attained cell: `at` only
        // survives a fully exact merge.
        let at = if estimate.is_none() {
            best.map(|(_, at)| at)
        } else {
            None
        };
        record_served(estimate.is_some());
        Ok(ServerAnswer {
            value,
            at,
            cost,
            shards,
            estimate,
        })
    }

    /// First global row of shard `i` (0 for an unknown index — callers
    /// only pass indices they received from a fan-out).
    fn shard_row(&self, i: usize) -> usize {
        self.shards.get(i).map(|s| s.lo).unwrap_or(0)
    }

    /// Applies one batch of absolute-value cell updates. Validates the
    /// whole batch first, then installs each touched shard's successor
    /// snapshot — per-shard atomic, cross-shard see the module docs.
    ///
    /// # Errors
    /// Validation failures (nothing applied), shard derive failures (the
    /// failing shard and later ones keep their current snapshot).
    pub fn apply_updates(&self, updates: &[(Vec<usize>, i64)]) -> Result<AccessStats, ServerError> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
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
        let mut stats = AccessStats::new();
        for (shard, batch) in batches.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let s = self
                .shards
                .get(shard)
                .ok_or(ServerError::ShardUnavailable { shard })?;
            stats.merge(&s.cache.apply_updates(batch)?);
        }
        Ok(stats)
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

    /// Fans `query` out to every shard whose slab the region overlaps and
    /// collects the per-shard outcomes, ordered by shard index.
    ///
    /// When a shard's queue is over [`ServeConfig::queue_depth_limit`]
    /// and its router has a degradation tier, the shard's part is shed:
    /// answered synchronously from the tier on the calling thread
    /// ([`DegradeReason::QueueDepth`]) instead of joining the queue. A
    /// shard without a tier is enqueued normally — shedding never turns
    /// an answerable query into an error.
    fn fan_out(&self, query: &RangeQuery, op: EngineOp) -> Result<Vec<ShardPart>, ServerError> {
        let region = query.to_region(&self.shape)?;
        let r0 = region.range(0);
        // Context and clock together: an idle site is one atomic load.
        let observing = olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now()));
        let (reply, replies) = mpsc::channel();
        let mut expected = 0usize;
        let mut parts: Vec<ShardPart> = Vec::new();
        let mut volumes: Vec<(usize, u64)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let (slab_lo, slab_hi) = (shard.lo, shard.lo + shard.len - 1);
            if r0.lo() > slab_hi || r0.hi() < slab_lo {
                continue;
            }
            let mut bounds: Vec<(usize, usize)> =
                region.ranges().iter().map(|r| (r.lo(), r.hi())).collect();
            if let Some(first) = bounds.first_mut() {
                *first = (
                    r0.lo().max(slab_lo) - shard.lo,
                    r0.hi().min(slab_hi) - shard.lo,
                );
            }
            let local = Region::from_bounds(&bounds)?;
            let volume = local.volume() as u64;
            let local_query = RangeQuery::from_region(&local);
            if let Some(limit) = self.queue_limit {
                // ordering: Relaxed — an advisory load-shedding read; a
                // racing drain only shifts which path answers, and both
                // paths are sound.
                if shard.depth.load(Ordering::Relaxed) > limit {
                    if let Ok((estimate, stats)) =
                        shard
                            .router
                            .degrade(&local_query, op, DegradeReason::QueueDepth)
                    {
                        parts.push(ShardPart {
                            shard: i,
                            volume,
                            out: ShardOutcome::Degraded {
                                estimate,
                                stats,
                                reason: DegradeReason::QueueDepth,
                            },
                        });
                        continue;
                    }
                }
            }
            shard.submit(Job {
                shard: i,
                op,
                query: local_query,
                reply: reply.clone(),
                // Inert (`None`) unless the caller holds an open root
                // span — i.e. tracing is enabled on this server.
                trace: olap_telemetry::PendingSpan::start("queue_wait"),
            })?;
            volumes.push((i, volume));
            expected += 1;
        }
        drop(reply);
        for _ in 0..expected {
            let (shard, out) = replies
                .recv()
                .map_err(|_| ServerError::ShardUnavailable { shard: usize::MAX })?;
            if let Some((ctx, started)) = &observing {
                self.observe_latency(ctx, shard, *started);
            }
            let volume = volumes
                .iter()
                .find(|(i, _)| *i == shard)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            parts.push(ShardPart {
                shard,
                volume,
                out: out?,
            });
        }
        parts.sort_by_key(|p| p.shard);
        Ok(parts)
    }

    /// Feeds one shard's reply-arrival latency (submit-to-reply, queue
    /// wait included) into the per-shard `olap_serve_latency_ns`
    /// histogram.
    fn observe_latency(
        &self,
        ctx: &olap_telemetry::Telemetry,
        shard: usize,
        started: std::time::Instant,
    ) {
        if let Some(s) = self.shards.get(shard) {
            ctx.registry()
                .histogram("olap_serve_latency_ns", &[("shard", &s.label)])
                .observe(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

impl Drop for CubeServer {
    fn drop(&mut self) {
        // Closing every queue ends the worker loops; then reap them.
        // analyzer: allow(budget-coverage, reason = "shutdown path: trip count = shard count, no query budget in scope")
        for s in &mut self.shards {
            s.tx = None;
        }
        // analyzer: allow(budget-coverage, reason = "shutdown path: joins one worker per shard")
        for s in &mut self.shards {
            if let Some(h) = s.worker.take() {
                let _ = h.join();
            }
        }
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

/// Builds one shard: slab sub-cube, engines, router, worker thread.
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
    let sub = DenseArray::from_vec(local_shape, slab.to_vec())?;

    let precomputed: Vec<Box<dyn RangeEngine<i64>>> = vec![
        Box::new(CubeIndex::build(sub.clone(), IndexConfig::default())?),
        Box::new(SumTreeEngine::build(sub.clone(), 4)?),
    ];
    let label = format!("shard-{i}");
    let router = AdaptiveRouter::labeled(&label);
    for engine in precomputed {
        match &config.faults {
            Some(plan) => router.push(Box::new(FaultyEngine::new(engine, *plan))),
            None => router.push(engine),
        }
    }
    // The degradation tier is built from the same slab snapshot as the
    // exact engines; router updates derive it in lockstep, so estimates
    // always bracket the snapshot the query pinned. Block size 8 keeps
    // the anchor grid ~2^-3d of the slab while bounding every partial
    // block's interpolation to 8^d cells.
    if config.degrade_enabled() {
        router.set_degrade_tier(Arc::new(ApproxEngine::build(sub.clone(), DEGRADE_BLOCK)?));
    }
    // The naive scan is never fault-wrapped: it is the shard's last-resort
    // failover target, so chaos drills stay answerable.
    router.push(Box::new(NaiveEngine::new(sub)));
    router.set_budget(config.budget);
    let router = Arc::new(router);
    let cache = Arc::new(SemanticCache::with_label(
        Arc::clone(&router),
        config.cache_size,
        &label,
    ));

    let depth = Arc::new(AtomicI64::new(0));
    let (tx, rx) = mpsc::channel();
    let scope = olap_telemetry::current();
    let worker = std::thread::Builder::new()
        .name(format!("olap-{label}"))
        .spawn({
            let cache = Arc::clone(&cache);
            let depth = Arc::clone(&depth);
            let label = label.clone();
            move || enter_scope(scope, move || shard_worker(rx, cache, depth, label))
        })
        .map_err(|e| ServerError::Config(format!("spawning shard worker {i}: {e}")))?;
    Ok(Shard {
        lo,
        len: hi - lo,
        router,
        cache,
        tx: Some(tx),
        depth,
        label,
        worker: Some(worker),
    })
}
