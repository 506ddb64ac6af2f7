//! The cost-calibrated adaptive router: §8/§9's "choose the structure by
//! its analytic cost" made operational.
//!
//! [`AdaptiveRouter`] holds several [`RangeEngine`]s, predicts each one's
//! cost for an incoming [`RangeQuery`] from the paper's analytic model
//! ([`RangeEngine::estimate`]), and routes to the argmin. Because the
//! analytic model has systematic error (it ignores constants, tree-node
//! overheads, and a structure's real boundary handling), the router keeps
//! one EWMA correction ratio per engine — observed cost (from
//! [`AccessStats::total_accesses`]) over predicted — and multiplies it
//! into future predictions, so routing decisions tighten as queries flow.
//!
//! [`AdaptiveRouter::explain`] exposes the whole decision: every
//! candidate's raw and calibrated prediction, the chosen route, and the
//! observed cost after execution.
//!
//! # Shareability and snapshot isolation
//!
//! The router is `Send + Sync`: every method takes `&self`, so one
//! router can serve queries from many threads at once. The engine set
//! lives in an epoch-stamped immutable snapshot (`EngineSet` behind
//! `RwLock<Arc<_>>`, the same discipline as [`crate::VersionCell`]):
//!
//! - **readers** pin the current snapshot with one brief read-lock clone
//!   and execute against it; an update installing a successor mid-query
//!   never tears or blocks them,
//! - **updates** ([`AdaptiveRouter::apply_updates`]) serialise on a
//!   writer mutex, derive a copy-on-write successor of *every* engine
//!   via [`RangeEngine::apply_updates`] with no lock held on the read
//!   path, then install the whole set in one pointer swap — a concurrent
//!   query always sees an all-pre-batch or all-post-batch candidate set,
//!   never a mix,
//! - mutable routing state (EWMA ratios, the decision cache, breaker
//!   state, fault counters, the budget) sits in one internal mutex held
//!   only for bookkeeping, never across a dispatched query.
//!
//! The decision cache is keyed on the **snapshot epoch** plus a
//! calibration generation: installing a new engine set bumps the epoch,
//! so stale decisions die with the snapshot they were computed against,
//! and a moved EWMA ratio bumps the generation.
//!
//! Lock order is `writer` → `engines` → `state`; no path acquires them
//! in any other order.
//!
//! # Fault tolerance
//!
//! The router guarantees **a correct answer or one typed error — never a
//! panic, never a hang**:
//!
//! - every dispatch runs under [`std::panic::catch_unwind`]; a panicking
//!   engine surfaces as [`EngineError::EnginePanicked`] and is marked
//!   [`EngineStatus::Poisoned`], never to be re-entered (its internal
//!   invariants may be broken mid-mutation),
//! - an engine fault ([`EngineError::is_engine_fault`]) triggers
//!   **failover**: the next-best candidate from the cost-ranked list
//!   answers instead, and the fault counts against the failing engine's
//!   circuit breaker — [`QUARANTINE_THRESHOLD`] consecutive faults
//!   quarantine it ([`EngineStatus::Quarantined`]) until a half-open
//!   probe after [`QUARANTINE_COOLDOWN_TICKS`] routing decisions,
//! - a budget interrupt ([`EngineError::is_interrupt`]) is **not** a
//!   fault: the engine was healthy and obeyed its deadline; the kill is
//!   counted and returned without failover,
//! - validation errors return immediately: they would fail identically
//!   on every engine.
//!
//! Breaker state outlives snapshots deliberately: a derived successor of
//! a flaky engine inherits its streak (the flakiness is in the engine's
//! code, not one snapshot's data), and a poisoned engine is never even
//! re-derived — updates carry its last good snapshot forward untouched.
//!
//! [`AdaptiveRouter::fault_stats`] and [`AdaptiveRouter::health`] expose
//! the resilience counters and per-engine breaker state; under an active
//! telemetry context the same events reach the metric registry and the
//! flight recorder.

use crate::approx::DegradeTier;
use crate::range_engine::{BatchImage, EngineOp, RangeEngine};
use crate::version::{EpochGuard, EpochTracker};
use crate::{EngineError, EpochStats};
use olap_aggregate::NumericValue;
use olap_array::{BudgetMeter, CancellationToken, DegradePolicy, QueryBudget};
use olap_query::{AccessStats, Estimate, QueryOutcome, RangeQuery};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default EWMA smoothing factor: recent queries dominate after ~10
/// observations, but a single outlier cannot swing the ratio.
pub const DEFAULT_ALPHA: f64 = 0.3;

/// Consecutive engine faults that open the circuit breaker.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Routing decisions an open breaker waits before admitting a half-open
/// probe. Ticks, not wall-clock, keep the breaker deterministic under
/// test and independent of query latency.
pub const QUARANTINE_COOLDOWN_TICKS: u64 = 16;

/// An engine's circuit-breaker standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineStatus {
    /// Breaker closed: routed to normally.
    #[default]
    Healthy,
    /// Breaker open after [`QUARANTINE_THRESHOLD`] consecutive faults:
    /// skipped until a half-open probe after
    /// [`QUARANTINE_COOLDOWN_TICKS`] decisions.
    Quarantined,
    /// The engine panicked. Permanently removed from routing — a panic
    /// mid-mutation may have torn internal invariants.
    Poisoned,
}

impl fmt::Display for EngineStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineStatus::Healthy => "healthy",
            EngineStatus::Quarantined => "quarantined",
            EngineStatus::Poisoned => "poisoned",
        })
    }
}

/// One engine's breaker state, as reported by [`AdaptiveRouter::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHealth {
    /// The engine's [`RangeEngine::label`].
    pub label: String,
    /// Breaker standing.
    pub status: EngineStatus,
    /// Consecutive faults so far (reset on every success).
    pub consecutive_faults: u32,
}

/// Resilience counters, maintained with or without a telemetry context
/// (the chaos harness reads them directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Engine faults that caused the router to try the next candidate.
    pub failovers: u64,
    /// Panics contained at the dispatch boundary.
    pub panics_contained: u64,
    /// Breaker-open events (an engine entering quarantine).
    pub quarantines: u64,
    /// Half-open probes dispatched to quarantined engines.
    pub probes: u64,
    /// Queries killed by deadline, access budget, or cancellation.
    pub budget_kills: u64,
}

/// Per-engine breaker bookkeeping (internal).
#[derive(Debug, Clone, Copy, Default)]
struct Health {
    status: Status,
    consecutive_faults: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    #[default]
    Closed,
    Open {
        since_tick: u64,
    },
    Poisoned,
}

impl Health {
    fn public_status(&self) -> EngineStatus {
        match self.status {
            Status::Closed => EngineStatus::Healthy,
            Status::Open { .. } => EngineStatus::Quarantined,
            Status::Poisoned => EngineStatus::Poisoned,
        }
    }

    /// Whether the engine may be dispatched to at `tick`; `true` for an
    /// open breaker past its cooldown means a half-open probe.
    fn admissible(&self, tick: u64) -> bool {
        match self.status {
            Status::Closed => true,
            Status::Poisoned => false,
            Status::Open { since_tick } => {
                tick.saturating_sub(since_tick) >= QUARANTINE_COOLDOWN_TICKS
            }
        }
    }

    fn is_probe(&self) -> bool {
        matches!(self.status, Status::Open { .. })
    }
}

/// One engine's standing in a routing decision, captured *before*
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the engine inside the router.
    pub index: usize,
    /// The engine's [`RangeEngine::label`].
    pub label: String,
    /// Raw analytic estimate (paper units, elements accessed).
    pub raw: f64,
    /// The engine's current EWMA observed/predicted ratio.
    pub ratio: f64,
    /// `raw × ratio` — what the router actually compares.
    pub calibrated: f64,
    /// Whether the engine's [`crate::Capabilities`] admit the operation.
    pub eligible: bool,
    /// The engine's circuit-breaker standing at decision time.
    pub status: EngineStatus,
}

/// A full routing decision: the candidate table, the chosen engine, and
/// the executed outcome with its observed cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain<V> {
    /// The operation that was routed.
    pub op: EngineOp,
    /// Every engine's predicted standing at decision time.
    pub candidates: Vec<Candidate>,
    /// Index (into `candidates`) of the engine that answered.
    pub chosen: usize,
    /// The executed answer, including observed [`AccessStats`].
    pub outcome: QueryOutcome<V>,
}

impl<V> Explain<V> {
    /// The chosen candidate row.
    pub fn chosen_candidate(&self) -> &Candidate {
        &self.candidates[self.chosen]
    }

    /// Observed cost of the executed query, in the same unit as the
    /// predictions.
    pub fn observed(&self) -> u64 {
        self.outcome.cost()
    }
}

impl<V: fmt::Display> fmt::Display for Explain<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} via {}", self.op, self.outcome.answered_by)?;
        writeln!(
            f,
            "  {:<28} {:>12} {:>8} {:>12}",
            "candidate", "raw", "ratio", "calibrated"
        )?;
        for c in &self.candidates {
            let mark = if c.index == self.chosen { "*" } else { " " };
            if c.eligible {
                writeln!(
                    f,
                    "{mark} {:<28} {:>12.1} {:>8.3} {:>12.1}",
                    c.label, c.raw, c.ratio, c.calibrated
                )?;
            } else {
                writeln!(
                    f,
                    "{mark} {:<28} {:>12} {:>8} {:>12}",
                    c.label, "-", "-", "-"
                )?;
            }
        }
        writeln!(f, "  observed: {} accesses", self.observed())?;
        write!(f, "  answer: {}", self.outcome.answer)
    }
}

/// One engine's numbers in a routing decision — [`Candidate`] without the
/// label, so the routing hot path never formats engine labels or touches
/// the allocator beyond one small `Vec` per cache miss.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prediction {
    raw: f64,
    ratio: f64,
    calibrated: f64,
    eligible: bool,
}

/// One memoised routing decision. Valid as long as the engine-set epoch
/// and the calibration generation both stand — i.e. no update installed
/// a new snapshot and no EWMA ratio moved — so consecutive identical
/// queries (and the candidates-then-execute pair inside one `explain`)
/// cost a single [`RangeEngine::estimate`] pass.
struct CachedDecision {
    query: RangeQuery,
    op: EngineOp,
    /// `EngineSet::epoch` the decision was computed against.
    epoch: u64,
    /// `RouterState::calibration_gen` at decision time.
    calibration_gen: u64,
    predictions: Vec<Prediction>,
    chosen: Option<usize>,
}

/// An immutable, epoch-stamped snapshot of the candidate engine set.
/// Queries pin one and run against it; updates install a successor.
struct EngineSet<V> {
    epoch: u64,
    engines: Vec<Arc<dyn RangeEngine<V>>>,
    /// The degradation tier, snapshot-consistent with the exact engines:
    /// an update batch derives it together with them, so a degraded
    /// answer never mixes pre- and post-batch data.
    approx: Option<Arc<dyn DegradeTier<V>>>,
    /// Keeps the epoch marked live (for the snapshot gauges) until the
    /// last pin of this set drops.
    _guard: EpochGuard,
}

/// The router's mutable bookkeeping, guarded by one mutex held only for
/// short decision/feedback sections — never across a dispatched query.
struct RouterState {
    /// Per-engine EWMA of observed/predicted; starts at 1.0 (trust the
    /// analytic model until evidence arrives).
    ratios: Vec<f64>,
    /// EWMA smoothing factor.
    alpha: f64,
    /// Bumped whenever an EWMA ratio actually moves; half of the
    /// decision cache's key (the other half is the engine-set epoch).
    calibration_gen: u64,
    cache: Option<CachedDecision>,
    /// Per-engine circuit breakers, parallel to the engine set. Breaker
    /// state does not affect prediction caching — it filters candidates
    /// at dispatch time.
    healths: Vec<Health>,
    /// Routing decisions taken; the breaker cooldown clock.
    ticks: u64,
    /// Per-query budget applied to every routed query.
    budget: QueryBudget,
    /// Cooperative cancellation shared with callers.
    token: Option<CancellationToken>,
    faults: FaultStats,
}

impl RouterState {
    /// Ensures the cache holds the decision for `query`/`op` against
    /// `set` (one estimate sweep on a miss, none on a hit) and returns
    /// the chosen engine index. The predictions stay in `self.cache`.
    fn ensure_decision<V>(
        &mut self,
        set: &EngineSet<V>,
        query: &RangeQuery,
        op: EngineOp,
    ) -> Option<usize> {
        if let Some(c) = &self.cache {
            if c.epoch == set.epoch
                && c.calibration_gen == self.calibration_gen
                && c.op == op
                && c.query == *query
            {
                if let Some(ctx) = olap_telemetry::current() {
                    ctx.registry()
                        .counter("olap_router_cache_hits_total", &[])
                        .inc(1);
                }
                return c.chosen;
            }
        }
        let predictions = predictions(set, &self.ratios, query, op);
        let chosen = choose(&predictions);
        self.cache = Some(CachedDecision {
            query: query.clone(),
            op,
            epoch: set.epoch,
            calibration_gen: self.calibration_gen,
            predictions,
            chosen,
        });
        chosen
    }

    /// Feeds one observation into engine `i`'s EWMA ratio. Skipped when the
    /// raw prediction is non-finite or non-positive (nothing to scale), or
    /// when the sample equals the current ratio — the EWMA's fixed point,
    /// where applying the update would only add rounding drift.
    fn observe(&mut self, i: usize, raw: f64, observed: u64) {
        if !raw.is_finite() || raw <= 0.0 {
            return;
        }
        let sample = observed as f64 / raw;
        if sample.to_bits() == self.ratios[i].to_bits() {
            return;
        }
        let next = (1.0 - self.alpha) * self.ratios[i] + self.alpha * sample;
        if next.to_bits() != self.ratios[i].to_bits() {
            self.ratios[i] = next;
            self.calibration_gen = self.calibration_gen.wrapping_add(1);
        }
    }

    /// Success closes the breaker and clears the fault streak.
    fn note_success(&mut self, i: usize) {
        self.healths[i].status = Status::Closed;
        self.healths[i].consecutive_faults = 0;
    }

    /// An engine fault: bump the streak; a panic poisons permanently, a
    /// failed probe re-opens immediately, and a streak reaching
    /// [`QUARANTINE_THRESHOLD`] opens the breaker.
    fn note_fault(&mut self, i: usize, tick: u64, panicked: bool) {
        let h = &mut self.healths[i];
        h.consecutive_faults = h.consecutive_faults.saturating_add(1);
        if panicked {
            self.faults.panics_contained += 1;
            if h.status != Status::Poisoned {
                h.status = Status::Poisoned;
                self.faults.quarantines += 1;
            }
        } else if h.is_probe() || h.consecutive_faults >= QUARANTINE_THRESHOLD {
            let was_open = h.is_probe();
            h.status = Status::Open { since_tick: tick };
            if !was_open {
                self.faults.quarantines += 1;
            }
        }
    }
}

/// The label-free estimate sweep against one engine-set snapshot: raw
/// estimate, current ratio, calibrated prediction, and eligibility per
/// engine.
fn predictions<V>(
    set: &EngineSet<V>,
    ratios: &[f64],
    query: &RangeQuery,
    op: EngineOp,
) -> Vec<Prediction> {
    set.engines
        .iter()
        .enumerate()
        .map(|(index, e)| {
            let eligible = e.capabilities().supports(op);
            let raw = if eligible {
                e.estimate(query)
            } else {
                f64::INFINITY
            };
            // analyzer: allow(panic-site, reason = "index comes from enumerating the engine set; ratios is kept parallel by push()")
            let ratio = ratios[index];
            Prediction {
                raw,
                ratio,
                calibrated: raw * ratio,
                eligible,
            }
        })
        .collect()
}

/// Argmin of the calibrated predictions among eligible candidates.
/// Strict `<` keeps the first index on ties, so routing is
/// deterministic for a fixed engine order, and rejects NaN, so a
/// poisoned estimate can never displace an incumbent.
fn choose(predictions: &[Prediction]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in predictions.iter().enumerate() {
        if !p.eligible {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, b)) => p.calibrated < b,
        };
        if better {
            best = Some((i, p.calibrated));
        }
    }
    best.map(|(i, _)| i)
}

/// Attaches engine labels and breaker status to a prediction sweep,
/// turning it into the public [`Candidate`] table.
fn label_predictions<V>(
    set: &EngineSet<V>,
    predictions: &[Prediction],
    healths: &[Health],
) -> Vec<Candidate> {
    predictions
        .iter()
        .enumerate()
        .map(|(index, p)| Candidate {
            index,
            // analyzer: allow(panic-site, reason = "index comes from enumerating the predictions of this very set")
            label: set.engines[index].label(),
            raw: p.raw,
            ratio: p.ratio,
            calibrated: p.calibrated,
            eligible: p.eligible,
            status: healths
                .get(index)
                .map(Health::public_status)
                .unwrap_or_default(),
        })
        .collect()
}

/// Why a query was answered by the degradation tier instead of exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The wall-clock deadline elapsed before an exact engine finished.
    DeadlineExceeded,
    /// The cell-access budget ran out mid-query.
    BudgetExhausted,
    /// Every admissible exact engine faulted, failover included.
    EngineFaults,
    /// No exact candidate was admissible: every breaker open or engine
    /// poisoned, or no engine supports the operation.
    NoCandidate,
    /// The serving layer shed the query before dispatch because its
    /// shard queue was over the configured depth threshold.
    QueueDepth,
}

impl DegradeReason {
    /// Stable label for telemetry and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::DeadlineExceeded => "deadline_exceeded",
            DegradeReason::BudgetExhausted => "budget_exhausted",
            DegradeReason::EngineFaults => "engine_faults",
            DegradeReason::NoCandidate => "no_candidate",
            DegradeReason::QueueDepth => "queue_depth",
        }
    }

    /// The degrade eligibility matrix: the reason an exact failure may
    /// be answered by the degradation tier, or `None` when it must not —
    /// cancellation is the caller's own abort, and validation errors
    /// fail identically on the degraded path.
    pub fn for_failure(err: &EngineError) -> Option<DegradeReason> {
        match err {
            EngineError::DeadlineExceeded { .. } => Some(DegradeReason::DeadlineExceeded),
            EngineError::BudgetExhausted { .. } => Some(DegradeReason::BudgetExhausted),
            EngineError::NoCandidate { .. } => Some(DegradeReason::NoCandidate),
            e if e.is_engine_fault() => Some(DegradeReason::EngineFaults),
            _ => None,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A routed answer that is allowed to degrade: either a normal exact
/// [`QueryOutcome`], or a bounded-error [`Estimate`] from the
/// degradation tier. The two are different types all the way down — a
/// degraded value cannot be mistaken for, or cached as, an exact one.
#[derive(Debug, Clone)]
pub enum Routed<V> {
    /// An exact answer from an exact engine.
    Exact(QueryOutcome<V>),
    /// A bounded-error estimate from the degradation tier.
    Degraded {
        /// The estimate, with its guaranteed enclosing interval.
        estimate: Estimate<V>,
        /// Accesses the degraded path performed (anchors and cached
        /// extrema).
        stats: AccessStats,
        /// What forced the degradation.
        reason: DegradeReason,
    },
}

impl<V> Routed<V> {
    /// Whether this answer came from the degradation tier.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Routed::Degraded { .. })
    }
}

/// Routes each query to the cheapest capable engine under the calibrated
/// §8/§9 cost model. Shareable across threads: see the module docs for
/// the snapshot-isolation and locking discipline.
pub struct AdaptiveRouter<V> {
    /// The current engine-set snapshot. Readers hold the read side only
    /// long enough to clone the `Arc`; the single writer holds the write
    /// side only for the install swap.
    engines: RwLock<Arc<EngineSet<V>>>,
    /// Serialises derive+install cycles (updates, pushes) so successors
    /// derive from the latest snapshot. Acquired before `engines`.
    writer: Mutex<()>,
    /// Routing bookkeeping; acquired after `engines`, never held across
    /// a dispatched query.
    state: Mutex<RouterState>,
    /// Liveness of engine-set snapshots, for the snapshot gauges.
    tracker: Arc<EpochTracker>,
    /// Twice the current set's epoch, odd while `install` swaps the next
    /// set in: [`AdaptiveRouter::epoch`] reads it like a seqlock, so
    /// reading the epoch writes no shared memory.
    seq: AtomicU64,
}

impl<V> AdaptiveRouter<V> {
    /// An empty router with the default smoothing factor.
    pub fn new() -> Self {
        AdaptiveRouter::with_alpha(DEFAULT_ALPHA)
    }

    /// An empty router named `label` in the exported snapshot gauges
    /// (`olap_snapshot_live{cell="…"}` — e.g. `shard-3` in a sharded
    /// server).
    pub fn labeled(label: &str) -> Self {
        AdaptiveRouter::with_alpha_labeled(DEFAULT_ALPHA, label)
    }

    /// An empty router with smoothing factor `alpha` in `(0, 1]`; higher
    /// values chase recent observations harder.
    pub fn with_alpha(alpha: f64) -> Self {
        AdaptiveRouter::with_alpha_labeled(alpha, "router")
    }

    fn with_alpha_labeled(alpha: f64, label: &str) -> Self {
        let tracker = Arc::new(EpochTracker::new(label.to_string()));
        tracker.register(0);
        AdaptiveRouter {
            engines: RwLock::new(Arc::new(EngineSet {
                epoch: 0,
                engines: Vec::new(),
                approx: None,
                _guard: EpochGuard {
                    epoch: 0,
                    tracker: Arc::clone(&tracker),
                },
            })),
            writer: Mutex::new(()),
            tracker,
            seq: AtomicU64::new(0),
            state: Mutex::new(RouterState {
                ratios: Vec::new(),
                alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
                calibration_gen: 0,
                cache: None,
                healths: Vec::new(),
                ticks: 0,
                budget: QueryBudget::unlimited(),
                token: None,
                faults: FaultStats::default(),
            }),
        }
    }

    /// Pins the current engine-set snapshot.
    fn load(&self) -> Arc<EngineSet<V>> {
        Arc::clone(&self.engines.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, RouterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `engines` as the next snapshot epoch. Caller holds the
    /// `writer` mutex.
    fn install(
        &self,
        engines: Vec<Arc<dyn RangeEngine<V>>>,
        approx: Option<Arc<dyn DegradeTier<V>>>,
    ) {
        // ordering: Relaxed — only the writer, under `writer`, stores it.
        let seq = self.seq.load(Ordering::Relaxed);
        let epoch = seq / 2 + 1;
        self.tracker.register(epoch);
        let next = Arc::new(EngineSet {
            epoch,
            engines,
            approx,
            _guard: EpochGuard {
                epoch,
                tracker: Arc::clone(&self.tracker),
            },
        });
        // ordering: Relaxed — the odd mark is ordered before the swap by
        // the `engines` write lock: a reader that pins the new set takes
        // the read lock after that release, so its next `epoch()` sees at
        // least the odd mark and waits for the new epoch.
        self.seq.store(seq + 1, Ordering::Relaxed);
        let old = std::mem::replace(
            &mut *self.engines.write().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        // ordering: Release — pairs with the Acquire load in `epoch()`: a
        // reader that sees the new epoch pins this set or a later one.
        self.seq.store(seq + 2, Ordering::Release);
        // The superseded set may be the last reference to its engines;
        // free them outside the window `epoch()` waits on.
        drop(old);
    }

    /// Adds an engine to the candidate set. Installs a new snapshot, so
    /// concurrent queries finish on the set they pinned.
    pub fn push(&self, engine: Box<dyn RangeEngine<V>>) {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.load();
        let mut engines: Vec<Arc<dyn RangeEngine<V>>> =
            cur.engines.iter().map(Arc::clone).collect();
        engines.push(Arc::from(engine));
        self.install(engines, cur.approx.clone());
        let mut st = self.lock_state();
        st.ratios.push(1.0);
        st.healths.push(Health::default());
    }

    /// Registers the degradation tier — the cheapest serving tier, e.g.
    /// an [`crate::ApproxEngine`] answering from anchors and cached
    /// extrema alone ([`DegradeTier::estimate_cost`] is its honest cost
    /// model). It is **not** a routing candidate: exact answering always
    /// wins when any exact engine can deliver within budget. It answers
    /// only through [`AdaptiveRouter::answer`] under
    /// [`DegradePolicy::Degrade`], or an explicit
    /// [`AdaptiveRouter::degrade`] call — and its answers are
    /// [`Estimate`]s, statically distinct from exact outcomes.
    ///
    /// Installs a new snapshot; subsequent update batches derive the tier
    /// together with the exact engines.
    pub fn set_degrade_tier(&self, tier: Arc<dyn DegradeTier<V>>) {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.load();
        let engines: Vec<Arc<dyn RangeEngine<V>>> = cur.engines.iter().map(Arc::clone).collect();
        self.install(engines, Some(tier));
    }

    /// Builder-style [`AdaptiveRouter::set_degrade_tier`].
    #[must_use]
    pub fn with_degrade_tier(self, tier: Arc<dyn DegradeTier<V>>) -> Self {
        self.set_degrade_tier(tier);
        self
    }

    /// The degradation tier's label, when one is registered.
    pub fn degrade_tier_label(&self) -> Option<String> {
        self.load().approx.as_ref().map(|t| t.label())
    }

    /// The degradation tier's honest predicted cost for `query`, in the
    /// paper's element-access unit — the cheapest tier's row in any
    /// explain view. `None` when no tier is registered.
    pub fn degrade_cost(&self, query: &RangeQuery) -> Option<f64> {
        self.load().approx.as_ref().map(|t| t.estimate_cost(query))
    }

    /// Sets the per-query [`QueryBudget`] every routed query runs under.
    /// The deadline spans failover attempts: retries never extend a
    /// query's time allowance.
    pub fn set_budget(&self, budget: QueryBudget) {
        self.lock_state().budget = budget;
    }

    /// Builder-style [`AdaptiveRouter::set_budget`].
    #[must_use]
    pub fn with_budget(self, budget: QueryBudget) -> Self {
        self.set_budget(budget);
        self
    }

    /// The budget applied to routed queries.
    pub fn budget(&self) -> QueryBudget {
        self.lock_state().budget
    }

    /// Installs (or clears) a [`CancellationToken`] checked by every
    /// subsequent routed query; cancel it from any thread to interrupt
    /// in-flight work at the next kernel checkpoint.
    pub fn set_cancellation_token(&self, token: Option<CancellationToken>) {
        self.lock_state().token = token;
    }

    /// Resilience counters accumulated since construction.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock_state().faults
    }

    /// Per-engine circuit-breaker state, in routing order.
    pub fn health(&self) -> Vec<EngineHealth> {
        let set = self.load();
        let st = self.lock_state();
        set.engines
            .iter()
            .zip(&st.healths)
            .map(|(e, h)| EngineHealth {
                label: e.label(),
                status: h.public_status(),
                consecutive_faults: h.consecutive_faults,
            })
            .collect()
    }

    /// Builder-style [`AdaptiveRouter::push`].
    #[must_use]
    pub fn with_engine(self, engine: Box<dyn RangeEngine<V>>) -> Self {
        self.push(engine);
        self
    }

    /// Number of candidate engines.
    pub fn len(&self) -> usize {
        self.load().engines.len()
    }

    /// Whether the router has no engines.
    pub fn is_empty(&self) -> bool {
        self.load().engines.is_empty()
    }

    /// The candidate engines' labels, in routing order.
    pub fn labels(&self) -> Vec<String> {
        self.load().engines.iter().map(|e| e.label()).collect()
    }

    /// The current engine-set snapshot epoch: 0 at construction, +1 per
    /// engine push and per installed update batch.
    ///
    /// A query that pins a set after reading epoch `e` pins set `e` or a
    /// later one, and once it has pinned a later one this returns more
    /// than `e`. So `epoch()` unchanged across a piece of work proves all
    /// of it ran on set `e` — the guard the semantic cache's inserts rely
    /// on. A caller arriving mid-swap waits it out; the swap is one
    /// pointer store.
    pub fn epoch(&self) -> u64 {
        loop {
            // ordering: Acquire — pairs with the Release store that ends
            // `install`, so the set this epoch names is the one a later
            // pin sees (or a newer one).
            let seq = self.seq.load(Ordering::Acquire);
            if seq.is_multiple_of(2) {
                return seq / 2;
            }
            std::thread::yield_now();
        }
    }

    /// Snapshot-liveness bookkeeping: current epoch, engine sets still
    /// pinned by in-flight queries, and the reclamation lag (how many
    /// installs behind the slowest pinned snapshot is).
    pub fn epoch_stats(&self) -> EpochStats {
        self.tracker.stats()
    }

    /// The current EWMA observed/predicted ratios, parallel to
    /// [`AdaptiveRouter::labels`].
    pub fn calibration(&self) -> Vec<f64> {
        self.lock_state().ratios.clone()
    }

    /// A pinned handle to engine `i` in the current snapshot.
    ///
    /// # Panics
    /// When `i` is not a registered engine index (see
    /// [`AdaptiveRouter::len`]).
    pub fn engine(&self, i: usize) -> Arc<dyn RangeEngine<V>> {
        // analyzer: allow(panic-site, reason = "pub accessor indexed by a caller-supplied engine id; out of range is a call-site programming error, documented under # Panics")
        Arc::clone(&self.load().engines[i])
    }

    /// The full candidate table for `query`/`op`: raw estimate, current
    /// ratio, calibrated prediction, and eligibility per engine. A fresh
    /// estimate sweep — routing itself goes through the decision cache.
    pub fn candidates(&self, query: &RangeQuery, op: EngineOp) -> Vec<Candidate> {
        let set = self.load();
        let st = self.lock_state();
        let preds = predictions(&set, &st.ratios, query, op);
        label_predictions(&set, &preds, &st.healths)
    }

    /// Dispatches one attempt to engine `i` of the pinned set with the
    /// panic boundary: a panicking engine surfaces as
    /// [`EngineError::EnginePanicked`] instead of unwinding through the
    /// router.
    ///
    /// `AssertUnwindSafe` is sound here because the closure only touches
    /// the pinned snapshot's engine and the meter: the caller poisons the
    /// engine on panic, so any state it tore mid-unwind is never
    /// observed again.
    fn dispatch(
        set: &EngineSet<V>,
        i: usize,
        query: &RangeQuery,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<V>, EngineError> {
        // analyzer: allow(panic-site, reason = "i is a ranked-candidate index derived from enumerating this pinned set")
        let engine = &set.engines[i];
        let result = catch_unwind(AssertUnwindSafe(|| match op {
            EngineOp::Sum => engine.range_sum_budgeted(query, meter),
            EngineOp::Max => {
                meter.check()?;
                let o = engine.range_max(query)?;
                meter.charge(o.cost())?;
                Ok(o)
            }
            EngineOp::Min => {
                meter.check()?;
                let o = engine.range_min(query)?;
                meter.charge(o.cost())?;
                Ok(o)
            }
            // analyzer: allow(panic-site, reason = "dispatch is only called with Sum/Max/Min; updates route through apply_updates, and the catch_unwind above contains a violation")
            EngineOp::Update => unreachable!("updates go through apply_updates"),
        }));
        result.unwrap_or_else(|payload| {
            Err(EngineError::EnginePanicked {
                engine: engine.label(),
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// The cost-ranked dispatch order: the cache's argmin first, then the
    /// remaining eligible candidates by ascending calibrated cost (stable
    /// on ties, so routing order stays deterministic for a fixed engine
    /// set). Breaker state is *not* applied here — admissibility is
    /// checked per attempt, so a quarantined argmin falls through to the
    /// next-best automatically.
    fn ranked_candidates(predictions: &[Prediction], first: usize) -> Vec<usize> {
        let mut rest: Vec<usize> = (0..predictions.len())
            .filter(|&i| i != first && predictions[i].eligible)
            .collect();
        rest.sort_by(|&a, &b| {
            predictions[a]
                .calibrated
                .partial_cmp(&predictions[b].calibrated)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut order = Vec::with_capacity(rest.len() + 1);
        order.push(first);
        order.extend(rest);
        order
    }

    fn execute(
        &self,
        query: &RangeQuery,
        op: EngineOp,
    ) -> Result<(usize, QueryOutcome<V>), EngineError> {
        // Covers decision, dispatch, and failover; inert (one relaxed
        // atomic load) unless a trace scope is entered on this thread.
        let _route_span = olap_telemetry::TraceSpan::start("router_dispatch");
        // Pin the snapshot first: the whole query — decision, dispatch,
        // failover — runs against this one consistent engine set even if
        // an update installs a successor mid-flight.
        let set = self.load();
        let (tick, meter, predictions, order) = {
            let mut st = self.lock_state();
            st.ticks += 1;
            let tick = st.ticks;
            // One meter for the whole query: the deadline spans failover
            // attempts, so retries never extend the time allowance. An
            // already-expired budget (a zero deadline, a fired
            // cancellation token) kills the query with its interrupt
            // *before* any routing work — even when no candidate would
            // have been admissible.
            let meter = st.budget.start(st.token.clone());
            if let Err(interrupt) = meter.check() {
                st.faults.budget_kills += 1;
                return Err(interrupt.into());
            }
            let chosen = st.ensure_decision(&set, query, op);
            let first = chosen.ok_or(EngineError::NoCandidate { op: op.name() })?;
            // `ensure_decision` just populated the cache; a missing table
            // is a routing bug, reported as the typed no-candidate error
            // rather than a panic.
            let predictions = match st.cache.as_ref() {
                Some(cache) => cache.predictions.clone(),
                None => return Err(EngineError::NoCandidate { op: op.name() }),
            };
            let order = Self::ranked_candidates(&predictions, first);
            (tick, meter, predictions, order)
        };
        let mut last_fault: Option<EngineError> = None;
        for &i in &order {
            {
                let mut st = self.lock_state();
                // analyzer: allow(panic-site, reason = "healths is kept parallel to the engine set by push(); i enumerates that set")
                if !st.healths[i].admissible(tick) {
                    continue;
                }
                // analyzer: allow(panic-site, reason = "healths is kept parallel to the engine set by push(); i enumerates that set")
                if st.healths[i].is_probe() {
                    st.faults.probes += 1;
                    record_fault_event(&set, "probe", i, op);
                }
                if last_fault.is_some() {
                    st.faults.failovers += 1;
                    record_fault_event(&set, "failover", i, op);
                }
            }
            let p = predictions[i];
            let observing = olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now()));
            // Dispatch with no router lock held: concurrent queries on
            // other threads proceed while this engine works.
            let dispatched = {
                let _kernel_span = olap_telemetry::TraceSpan::start("kernel_exec");
                Self::dispatch(&set, i, query, op, &meter)
            };
            match dispatched {
                Ok(outcome) => {
                    let mut st = self.lock_state();
                    st.note_success(i);
                    st.observe(i, p.raw, outcome.cost());
                    if let Some((ctx, start)) = observing {
                        // analyzer: allow(panic-site, reason = "ratios is kept parallel to the engine set by push(); i enumerates that set")
                        record_route(&ctx, start, &set, i, op, p, st.ratios[i], &outcome);
                    }
                    return Ok((i, outcome));
                }
                Err(e) if e.is_interrupt() => {
                    // The engine obeyed its budget: healthy, no failover
                    // (a retry would re-run the same doomed query).
                    let mut st = self.lock_state();
                    st.note_success(i);
                    st.faults.budget_kills += 1;
                    record_fault_event(&set, "budget_kill", i, op);
                    return Err(e);
                }
                Err(e) if e.is_engine_fault() => {
                    let panicked = matches!(e, EngineError::EnginePanicked { .. });
                    self.lock_state().note_fault(i, tick, panicked);
                    record_fault_event(&set, if panicked { "panic" } else { "fault" }, i, op);
                    last_fault = Some(e);
                }
                // Validation errors fail identically everywhere: return
                // without failover and without breaker counting.
                Err(e) => return Err(e),
            }
        }
        Err(last_fault.unwrap_or(EngineError::NoCandidate { op: op.name() }))
    }

    /// Routes and answers a range-sum query, feeding the observed cost back
    /// into the chosen engine's calibration.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] if no engine supports sums; otherwise
    /// whatever the chosen engine reports.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.execute(query, EngineOp::Sum).map(|(_, o)| o)
    }

    /// Routes and answers a range-max query. See [`AdaptiveRouter::range_sum`].
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.execute(query, EngineOp::Max).map(|(_, o)| o)
    }

    /// Routes and answers a range-min query. See [`AdaptiveRouter::range_sum`].
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.execute(query, EngineOp::Min).map(|(_, o)| o)
    }

    /// Routes `query` exactly like [`AdaptiveRouter::range_sum`] /
    /// [`AdaptiveRouter::range_max`] / [`AdaptiveRouter::range_min`] —
    /// but when the budget's policy is [`DegradePolicy::Degrade`] and
    /// exact answering is exhausted (deadline, access budget, every
    /// engine faulted or quarantined), the registered degradation tier
    /// answers instead with a bounded-error [`Routed::Degraded`]
    /// estimate.
    ///
    /// Cancellation ([`EngineError::Cancelled`]) never degrades — the
    /// caller asked the query to stop, not to get a cheaper answer — and
    /// neither do validation errors, which would fail identically on the
    /// degraded path. Under [`DegradePolicy::Fail`] (the default) this
    /// is exactly the plain routed call.
    ///
    /// # Errors
    /// Whatever exact routing reported, when the policy forbids
    /// degradation, the reason is ineligible, or no tier is registered.
    pub fn answer(&self, query: &RangeQuery, op: EngineOp) -> Result<Routed<V>, EngineError> {
        let exact_err = match self.execute(query, op) {
            Ok((_, outcome)) => return Ok(Routed::Exact(outcome)),
            Err(e) => e,
        };
        if self.lock_state().budget.on_exhaustion != DegradePolicy::Degrade {
            return Err(exact_err);
        }
        let Some(reason) = DegradeReason::for_failure(&exact_err) else {
            return Err(exact_err);
        };
        match self.degrade(query, op, reason) {
            Ok((estimate, stats)) => Ok(Routed::Degraded {
                estimate,
                stats,
                reason,
            }),
            // No tier registered, or the tier cannot answer this op: the
            // exact failure is the story to tell.
            Err(_) => Err(exact_err),
        }
    }

    /// Forces a degraded answer from the registered tier, bypassing
    /// exact routing entirely. Serving layers call this when shedding
    /// load *before* dispatch — a shard queue over its depth threshold,
    /// every breaker open — with the `reason` they observed.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] when no tier is registered;
    /// otherwise the tier's validation error.
    pub fn degrade(
        &self,
        query: &RangeQuery,
        op: EngineOp,
        reason: DegradeReason,
    ) -> Result<(Estimate<V>, AccessStats), EngineError> {
        let set = self.load();
        let tier = set
            .approx
            .as_ref()
            .ok_or(EngineError::NoCandidate { op: op.name() })?;
        let _degrade_span = olap_telemetry::TraceSpan::start("degrade");
        let (estimate, stats) = tier.degraded(query, op)?;
        if let Some(ctx) = olap_telemetry::current() {
            ctx.registry()
                .counter(
                    "olap_approx_answers_total",
                    &[("reason", reason.as_str()), ("op", op.name())],
                )
                .inc(1);
            let permille = (tier.relative_bound(&estimate) * 1000.0).round();
            ctx.registry()
                .histogram("olap_approx_relative_bound", &[])
                .observe(permille.clamp(0.0, u64::MAX as f64) as u64);
        }
        Ok((estimate, stats))
    }

    /// Applies absolute-value updates to **every** engine by deriving a
    /// successor of each and installing the whole set as one new
    /// snapshot. The batch is worked out once — a [`BatchImage`] from the
    /// first healthy engine's [`RangeEngine::base`] — and every engine
    /// derives onto it ([`RangeEngine::derive_onto`]), so engines built
    /// over one shared base copy the cube once between them. Concurrent
    /// queries are never blocked and never see a half-updated candidate
    /// set: they finish on the snapshot they pinned, or start on the
    /// fully-installed successor.
    ///
    /// A poisoned engine is never re-derived — its last good snapshot,
    /// old base included, is carried forward untouched. An engine whose
    /// derive fails or panics also keeps its pre-batch snapshot (and a
    /// panic poisons it); the first such failure is reported after the
    /// rest of the set has been derived, so healthy engines stay mutually
    /// consistent.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] naming the first engine that cannot
    /// take updates, or an index the image rejects (either way nothing is
    /// derived or installed), or the first derive failure.
    pub fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError>
    where
        V: NumericValue,
    {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.load();
        if let Some(e) = cur
            .engines
            .iter()
            .find(|e| !e.capabilities().supports(EngineOp::Update))
        {
            return Err(EngineError::unsupported(e.label(), "apply_updates"));
        }
        let poisoned: Vec<bool> = {
            let st = self.lock_state();
            (0..cur.engines.len())
                .map(|i| {
                    st.healths
                        .get(i)
                        .is_some_and(|h| h.status == Status::Poisoned)
                })
                .collect()
        };
        let image = cur
            .engines
            .iter()
            .zip(&poisoned)
            .find_map(|(e, &dead)| if dead { None } else { e.base() })
            .map(|base| BatchImage::derive(base, updates))
            .transpose()?;
        let mut stats = AccessStats::new();
        let mut first_err: Option<EngineError> = None;
        let mut next: Vec<Arc<dyn RangeEngine<V>>> = Vec::with_capacity(cur.engines.len());
        let mut newly_poisoned: Vec<usize> = Vec::new();
        for (i, engine) in cur.engines.iter().enumerate() {
            // A poisoned engine is never re-entered, not even to derive.
            // analyzer: allow(panic-site, reason = "poisoned was built by mapping 0..engines.len() just above")
            if poisoned[i] {
                next.push(Arc::clone(engine));
                continue;
            }
            let derive = || match &image {
                Some(image) => engine.derive_onto(image),
                None => engine.apply_updates(updates),
            };
            match catch_unwind(AssertUnwindSafe(derive)) {
                Ok(Ok(derived)) => {
                    stats += derived.stats;
                    next.push(Arc::from(derived.engine));
                }
                // Keep deriving the remaining engines so the healthy
                // candidate set stays mutually consistent; the first
                // failure is still reported to the caller.
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                    next.push(Arc::clone(engine));
                }
                Err(payload) => {
                    newly_poisoned.push(i);
                    first_err.get_or_insert(EngineError::EnginePanicked {
                        engine: engine.label(),
                        message: panic_message(payload.as_ref()),
                    });
                    next.push(Arc::clone(engine));
                }
            }
        }
        // The degradation tier derives with the same batch, so degraded
        // answers stay snapshot-consistent with the exact engines; on a
        // derive failure or panic it keeps its pre-batch snapshot like
        // any exact engine.
        let next_approx = cur.approx.as_ref().map(|tier| {
            match catch_unwind(AssertUnwindSafe(|| tier.derive_updated(updates))) {
                Ok(Ok(derived)) => derived,
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                    Arc::clone(tier)
                }
                Err(payload) => {
                    first_err.get_or_insert(EngineError::EnginePanicked {
                        engine: tier.label(),
                        message: panic_message(payload.as_ref()),
                    });
                    Arc::clone(tier)
                }
            }
        });
        // One atomic install; the epoch bump retires cached decisions
        // computed against the pre-batch snapshot (estimates may depend
        // on engine contents, e.g. the sparse engines' region counts).
        self.install(next, next_approx);
        let mut st = self.lock_state();
        for i in newly_poisoned {
            st.faults.panics_contained += 1;
            // analyzer: allow(panic-site, reason = "newly_poisoned holds indices enumerated from the engine set; healths is kept parallel by push()")
            if st.healths[i].status != Status::Poisoned {
                // analyzer: allow(panic-site, reason = "same parallel-array invariant as the check above")
                st.healths[i].status = Status::Poisoned;
                st.faults.quarantines += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Routes, executes, and reports the whole decision for a range-sum
    /// query: every candidate's predicted cost, the chosen route, and the
    /// observed cost. Feeds calibration like [`AdaptiveRouter::range_sum`].
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn explain(&self, query: &RangeQuery) -> Result<Explain<V>, EngineError> {
        self.explain_op(query, EngineOp::Sum)
    }

    /// [`AdaptiveRouter::explain`] for an arbitrary read operation.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`], or `op == Update` (not a query), or
    /// the chosen engine's error.
    pub fn explain_op(&self, query: &RangeQuery, op: EngineOp) -> Result<Explain<V>, EngineError> {
        if op == EngineOp::Update {
            return Err(EngineError::NoCandidate {
                op: "explain(update)",
            });
        }
        let set = self.load();
        // `ensure_decision` memoises, so this candidate table and the
        // routing pass inside `execute` share one estimate() sweep; the
        // labels only get formatted here, never on the plain query path.
        let candidates = {
            let mut st = self.lock_state();
            st.ensure_decision(&set, query, op);
            let Some(cache) = st.cache.as_ref() else {
                return Err(EngineError::NoCandidate { op: op.name() });
            };
            label_predictions(&set, &cache.predictions, &st.healths)
        };
        let (chosen, outcome) = self.execute(query, op)?;
        Ok(Explain {
            op,
            candidates,
            chosen,
            outcome,
        })
    }
}

/// Counts one fault-tolerance event in the telemetry registry (the
/// [`FaultStats`] counters are maintained unconditionally by the caller).
fn record_fault_event<V>(set: &EngineSet<V>, event: &'static str, i: usize, op: EngineOp) {
    if let Some(ctx) = olap_telemetry::current() {
        // analyzer: allow(panic-site, reason = "i enumerates the pinned engine set")
        let label = set.engines[i].label();
        ctx.registry()
            .counter(
                "olap_router_fault_events_total",
                &[("event", event), ("engine", &label), ("op", op.name())],
            )
            .inc(1);
    }
}

/// Records one routed execution: route-choice counter, the chosen
/// engine's post-observation EWMA ratio, the calibration drift, and a
/// flight record.
#[allow(clippy::too_many_arguments)]
fn record_route<V>(
    ctx: &olap_telemetry::Telemetry,
    start: std::time::Instant,
    set: &EngineSet<V>,
    i: usize,
    op: EngineOp,
    p: Prediction,
    ratio_after: f64,
    outcome: &QueryOutcome<V>,
) {
    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    // analyzer: allow(panic-site, reason = "i enumerates the pinned engine set")
    let label = set.engines[i].label();
    let observed = outcome.cost();
    let reg = ctx.registry();
    reg.counter(
        "olap_router_route_total",
        &[("engine", &label), ("op", op.name())],
    )
    .inc(1);
    reg.gauge("olap_router_ratio", &[("engine", &label)])
        .set(ratio_after);
    if p.calibrated.is_finite() && p.calibrated > 0.0 {
        let drift = ((observed as f64 / p.calibrated) - 1.0).abs() * 1000.0;
        reg.histogram("olap_router_drift_permille", &[("engine", &label)])
            .observe(drift.min(u64::MAX as f64) as u64);
    }
    ctx.recorder().record(olap_telemetry::FlightRecord {
        seq: 0,
        op: op.name(),
        engine: label,
        kind: outcome.answered_by.to_string(),
        raw: p.raw,
        predicted: p.calibrated,
        observed,
        a_cells: outcome.stats.a_cells,
        p_cells: outcome.stats.p_cells,
        tree_nodes: outcome.stats.tree_nodes,
        latency_ns: nanos,
        // The semantic cache annotates its backend calls on this thread;
        // no annotation means no cache sat above this dispatch.
        cache: olap_telemetry::cache_outcome().unwrap_or("bypass"),
    });
}

/// Renders a contained panic payload as a human-readable message for
/// [`EngineError::EnginePanicked`]. `panic!` with a literal yields `&str`,
/// `panic!` with a format string yields `String`; anything else (a custom
/// payload from `panic_any`) is summarised opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<V> Default for AdaptiveRouter<V> {
    fn default() -> Self {
        AdaptiveRouter::new()
    }
}

impl<V> fmt::Debug for AdaptiveRouter<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = self.load();
        let st = self.lock_state();
        f.debug_struct("AdaptiveRouter")
            .field("epoch", &set.epoch)
            .field(
                "engines",
                &set.engines.iter().map(|e| e.label()).collect::<Vec<_>>(),
            )
            .field("ratios", &st.ratios)
            .field("alpha", &st.alpha)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{NaiveEngine, SumTreeEngine};
    use crate::range_engine::Derived;
    use crate::{CubeIndex, IndexConfig};
    use olap_array::{DenseArray, Region, Shape};

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[64, 64]).unwrap(), |i| {
            (i[0] * 7 + i[1] * 13) as i64 % 23
        })
    }

    fn q(bounds: &[(usize, usize)]) -> RangeQuery {
        RangeQuery::from_region(&Region::from_bounds(bounds).unwrap())
    }

    fn router() -> AdaptiveRouter<i64> {
        let a = cube();
        AdaptiveRouter::new()
            .with_engine(Box::new(NaiveEngine::new(a.clone())))
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), IndexConfig::default()).unwrap(),
            ))
            .with_engine(Box::new(SumTreeEngine::build(a, 4).unwrap()))
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn router_is_shareable_across_threads() {
        assert_send_sync::<AdaptiveRouter<i64>>();
    }

    #[test]
    fn routes_to_cheapest_and_answers_correctly() {
        let r = router();
        let a = cube();
        // Large query: prefix sum (2^d = 4) must beat naive (volume) and
        // the tree.
        let big = q(&[(0, 60), (0, 60)]);
        let out = r.range_sum(&big).unwrap();
        let region = big.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(out.value(), Some(&expected));
        let cands = r.candidates(&big, EngineOp::Sum);
        let chosen = cands
            .iter()
            .filter(|c| c.eligible)
            .min_by(|x, y| x.calibrated.partial_cmp(&y.calibrated).unwrap())
            .unwrap();
        assert!(chosen.label.contains("prefix"), "{chosen:?}");
    }

    #[test]
    fn tiny_queries_route_to_naive() {
        let r = router();
        // A 1-cell query: naive costs 1, prefix costs 2^d = 4.
        let tiny = q(&[(5, 5), (9, 9)]);
        let e = r.explain(&tiny).unwrap();
        assert_eq!(e.chosen_candidate().label, "naive-scan");
        assert_eq!(e.candidates.len(), 3);
        assert!(e.observed() >= 1);
    }

    #[test]
    fn calibration_moves_toward_observed() {
        let r = router();
        assert!(r.calibration().iter().all(|&x| x == 1.0));
        let query = q(&[(0, 63), (0, 31)]);
        let out = r.range_sum(&query).unwrap();
        let cands = r.candidates(&query, EngineOp::Sum);
        let calibration = r.calibration();
        let chosen: Vec<_> = calibration
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x != 1.0)
            .collect();
        assert_eq!(chosen.len(), 1, "exactly one engine observed");
        let (i, &ratio) = chosen[0];
        let expected =
            (1.0 - DEFAULT_ALPHA) + DEFAULT_ALPHA * out.cost() as f64 / cands[i].raw * 1.0;
        assert!((ratio - expected).abs() < 1e-12);
    }

    #[test]
    fn updates_reach_every_engine() {
        let r = router();
        r.apply_updates(&[(vec![3, 4], 1000)]).unwrap();
        let probe = q(&[(3, 3), (4, 4)]);
        // Every engine must see the new value, whichever is routed to.
        for i in 0..r.len() {
            let out = r.engine(i).range_sum(&probe).unwrap();
            assert_eq!(out.value(), Some(&1000), "engine {}", r.engine(i).label());
        }
    }

    #[test]
    fn updates_bump_the_snapshot_epoch() {
        let r = router();
        let e0 = r.epoch();
        r.apply_updates(&[(vec![0, 0], 1)]).unwrap();
        assert_eq!(r.epoch(), e0 + 1);
        r.apply_updates(&[(vec![1, 1], 2)]).unwrap();
        assert_eq!(r.epoch(), e0 + 2);
    }

    #[test]
    fn queries_pinned_before_an_update_install_still_answer() {
        // An engine handle pinned before an update keeps answering with
        // its snapshot's values even after the install.
        let r = router();
        let pinned = r.engine(0);
        let probe = q(&[(3, 3), (4, 4)]);
        let old = *pinned.range_sum(&probe).unwrap().value().unwrap();
        r.apply_updates(&[(vec![3, 4], 1000)]).unwrap();
        assert_eq!(pinned.range_sum(&probe).unwrap().value(), Some(&old));
        assert_eq!(r.engine(0).range_sum(&probe).unwrap().value(), Some(&1000));
    }

    #[test]
    fn no_candidate_for_unsupported_op() {
        let a = cube();
        let r: AdaptiveRouter<i64> =
            AdaptiveRouter::new().with_engine(Box::new(SumTreeEngine::build(a, 4).unwrap()));
        let err = r.range_max(&q(&[(0, 5), (0, 5)])).unwrap_err();
        assert!(matches!(err, EngineError::NoCandidate { op: "range_max" }));
    }

    #[test]
    fn explain_display_lists_all_candidates() {
        let r = router();
        let e = r.explain(&q(&[(0, 31), (0, 31)])).unwrap();
        let text = e.to_string();
        for label in r.labels() {
            assert!(text.contains(&label), "missing {label} in:\n{text}");
        }
        assert!(text.contains("observed:"));
    }

    /// A pass-through engine that counts how often the router asks it for
    /// an estimate — the probe for the decision cache.
    struct CountingEngine {
        inner: Box<dyn RangeEngine<i64>>,
        estimates: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl RangeEngine<i64> for CountingEngine {
        fn label(&self) -> String {
            "counting-naive".to_string()
        }
        fn shape(&self) -> &Shape {
            self.inner.shape()
        }
        fn capabilities(&self) -> crate::Capabilities {
            self.inner.capabilities()
        }
        fn estimate(&self, query: &RangeQuery) -> f64 {
            self.estimates
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.estimate(query)
        }
        fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
            self.inner.range_sum(query)
        }
        fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
            self.inner.range_max(query)
        }
        fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
            self.inner.range_min(query)
        }
        fn apply_updates(
            &self,
            updates: &[(Vec<usize>, i64)],
        ) -> Result<Derived<i64>, EngineError> {
            let derived = self.inner.apply_updates(updates)?;
            Ok(Derived::new(
                Box::new(CountingEngine {
                    inner: derived.engine,
                    estimates: self.estimates.clone(),
                }),
                derived.stats,
            ))
        }
    }

    fn counting_router() -> (
        AdaptiveRouter<i64>,
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let estimates = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let a = cube();
        let r = AdaptiveRouter::new()
            .with_engine(Box::new(CountingEngine {
                inner: Box::new(NaiveEngine::new(a.clone())),
                estimates: estimates.clone(),
            }))
            .with_engine(Box::new(
                CubeIndex::build(a, IndexConfig::default()).unwrap(),
            ));
        (r, estimates)
    }

    #[test]
    fn consecutive_explains_reuse_one_estimate_pass() {
        let (r, estimates) = counting_router();
        // A 1-cell query routes to naive with observed == predicted == 1,
        // the EWMA fixed point, so nothing a decision depends on moves.
        let tiny = q(&[(5, 5), (9, 9)]);
        let e1 = r.explain(&tiny).unwrap();
        let after_first = estimates.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            after_first, 1,
            "candidates + route inside one explain must share one estimate sweep"
        );
        let e2 = r.explain(&tiny).unwrap();
        assert_eq!(
            estimates.load(std::sync::atomic::Ordering::Relaxed),
            after_first,
            "a repeat explain with no state change must hit the decision cache"
        );
        assert_eq!(e1.candidates, e2.candidates, "tables must be identical");
        assert_eq!(e1.chosen, e2.chosen);
    }

    #[test]
    fn cache_invalidated_by_calibration_and_snapshot_epoch() {
        let (r, estimates) = counting_router();
        let ord = std::sync::atomic::Ordering::Relaxed;
        // A big query moves the chosen engine's EWMA ratio, so the next
        // decision must re-estimate.
        let big = q(&[(0, 60), (0, 60)]);
        r.range_sum(&big).unwrap();
        let n1 = estimates.load(ord);
        r.range_sum(&big).unwrap();
        let n2 = estimates.load(ord);
        assert!(n2 > n1, "ratio moved, decision must be recomputed");
        // Once calibration settles (sample == ratio is skipped as the EWMA
        // fixed point may never hit exactly), a *tiny* query at its fixed
        // point caches; an update — which installs a new snapshot epoch —
        // then invalidates it.
        let tiny = q(&[(5, 5), (9, 9)]);
        r.range_sum(&tiny).unwrap();
        let n3 = estimates.load(ord);
        r.range_sum(&tiny).unwrap();
        assert_eq!(estimates.load(ord), n3, "fixed-point query must cache");
        let epoch_before = r.epoch();
        r.apply_updates(&[(vec![0, 0], 5)]).unwrap();
        assert_eq!(r.epoch(), epoch_before + 1);
        r.range_sum(&tiny).unwrap();
        assert!(
            estimates.load(ord) > n3,
            "a new snapshot epoch must invalidate the cache"
        );
    }

    #[test]
    fn routed_queries_reach_registry_and_flight_recorder() {
        use std::sync::Arc;
        let ctx = Arc::new(olap_telemetry::Telemetry::new());
        olap_telemetry::with_scope(&ctx, || {
            let r = router();
            r.range_sum(&q(&[(0, 60), (0, 60)])).unwrap();
            r.range_sum(&q(&[(2, 2), (3, 3)])).unwrap();
            r.range_max(&q(&[(0, 10), (0, 10)])).unwrap();
        });
        let snap = ctx.registry().snapshot();
        let routes: u64 = snap
            .iter()
            .filter(|m| m.name == "olap_router_route_total")
            .map(|m| match m.value {
                olap_telemetry::MetricValue::Counter(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(routes, 3, "one route-choice count per executed query");
        // Engine-level series exist for the engines that answered.
        assert!(
            snap.iter()
                .any(|m| m.name == "olap_engine_accesses" && m.label("op") == Some("range_sum")),
            "missing engine access histogram in {snap:?}"
        );
        let flights = ctx.recorder().snapshot();
        assert_eq!(flights.len(), 3);
        assert!(flights.iter().all(|f| f.observed > 0));
        assert_eq!(flights[2].op, "range_max");
        // The prefix-sum route's prediction is the paper's 2^d = 4.
        let big = &flights[0];
        assert!(big.engine.contains("prefix"), "{big:?}");
        assert_eq!(big.raw, 4.0);
    }

    #[test]
    fn explain_records_predictions() {
        let r = router();
        for k in 0..10 {
            let lo = k * 3;
            let ex = r.explain(&q(&[(lo, lo + 20), (0, 40)])).unwrap();
            assert!(ex.chosen_candidate().calibrated.is_finite());
            assert!(ex.observed() > 0);
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance: failover, quarantine, poisoning, budgets.
    // ------------------------------------------------------------------

    use crate::faults::{FaultPlan, FaultyEngine};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A faulty engine that lies it is cheapest (so it is always ranked
    /// first) in front of a healthy `CubeIndex`.
    fn faulty_router(plan: FaultPlan) -> AdaptiveRouter<i64> {
        let a = cube();
        AdaptiveRouter::new()
            .with_engine(Box::new(FaultyEngine::new(
                Box::new(NaiveEngine::new(a.clone())),
                plan,
            )))
            .with_engine(Box::new(
                CubeIndex::build(a, IndexConfig::default()).unwrap(),
            ))
    }

    #[test]
    fn failover_answers_from_the_next_best_engine() {
        // The first-ranked engine fails every call; the router must still
        // return the correct answer, silently, via the runner-up.
        let r = faulty_router(FaultPlan::seeded(1).errors(1000).lie_cheapest());
        let a = cube();
        let query = q(&[(0, 31), (0, 31)]);
        let out = r.range_sum(&query).unwrap();
        let region = query.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(out.value(), Some(&expected));
        assert!(r.fault_stats().failovers >= 1, "{:?}", r.fault_stats());
        assert_eq!(r.fault_stats().panics_contained, 0);
    }

    /// Fails its first `fail_first` query calls with a backend error, then
    /// recovers; always claims to be the cheapest candidate.
    struct FlakyEngine {
        inner: Box<dyn RangeEngine<i64>>,
        fail_first: usize,
        calls: Arc<AtomicUsize>,
    }

    impl RangeEngine<i64> for FlakyEngine {
        fn label(&self) -> String {
            "flaky".to_string()
        }
        fn shape(&self) -> &Shape {
            self.inner.shape()
        }
        fn capabilities(&self) -> crate::Capabilities {
            self.inner.capabilities()
        }
        fn estimate(&self, _query: &RangeQuery) -> f64 {
            0.0
        }
        fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.fail_first {
                return Err(EngineError::backend("flaky", format!("down for call {n}")));
            }
            self.inner.range_sum(query)
        }
        fn apply_updates(
            &self,
            updates: &[(Vec<usize>, i64)],
        ) -> Result<Derived<i64>, EngineError> {
            let derived = self.inner.apply_updates(updates)?;
            Ok(Derived::new(
                Box::new(FlakyEngine {
                    inner: derived.engine,
                    fail_first: self.fail_first,
                    calls: self.calls.clone(),
                }),
                derived.stats,
            ))
        }
    }

    fn flaky_router(fail_first: usize) -> (AdaptiveRouter<i64>, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let a = cube();
        let r = AdaptiveRouter::new()
            .with_engine(Box::new(FlakyEngine {
                inner: Box::new(NaiveEngine::new(a.clone())),
                fail_first,
                calls: calls.clone(),
            }))
            .with_engine(Box::new(
                CubeIndex::build(a, IndexConfig::default()).unwrap(),
            ));
        (r, calls)
    }

    #[test]
    fn quarantine_opens_after_threshold_and_probe_recovers() {
        let threshold = QUARANTINE_THRESHOLD as usize;
        let (r, calls) = flaky_router(threshold);
        let query = q(&[(0, 15), (0, 15)]);
        // Three consecutive faults: each query fails over and succeeds,
        // and the third trips the breaker.
        for _ in 0..threshold {
            r.range_sum(&query).unwrap();
        }
        assert_eq!(calls.load(Ordering::Relaxed), threshold);
        let h = &r.health()[0];
        assert_eq!(h.status, EngineStatus::Quarantined, "{h:?}");
        assert_eq!(h.consecutive_faults, QUARANTINE_THRESHOLD);
        assert_eq!(r.fault_stats().quarantines, 1);
        assert_eq!(r.fault_stats().failovers, threshold as u64);
        // The quarantine is visible in the candidate table.
        let cands = r.candidates(&query, EngineOp::Sum);
        assert_eq!(cands[0].status, EngineStatus::Quarantined);
        // During cooldown the engine is never re-entered (and skipping it
        // is not a failover — nothing failed).
        for _ in 0..(QUARANTINE_COOLDOWN_TICKS - 1) {
            r.range_sum(&query).unwrap();
        }
        assert_eq!(calls.load(Ordering::Relaxed), threshold, "not re-entered");
        assert_eq!(r.fault_stats().failovers, threshold as u64);
        // Cooldown over: the next decision sends a half-open probe, the
        // recovered engine answers, and the breaker closes.
        r.range_sum(&query).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), threshold + 1, "one probe");
        assert_eq!(r.fault_stats().probes, 1);
        assert_eq!(r.health()[0].status, EngineStatus::Healthy);
        assert_eq!(r.health()[0].consecutive_faults, 0);
    }

    #[test]
    fn failed_probe_reopens_the_quarantine_immediately() {
        let threshold = QUARANTINE_THRESHOLD as usize;
        // One more failure than the threshold: the probe itself fails.
        let (r, calls) = flaky_router(threshold + 1);
        let query = q(&[(0, 15), (0, 15)]);
        for _ in 0..threshold {
            r.range_sum(&query).unwrap();
        }
        for _ in 0..(QUARANTINE_COOLDOWN_TICKS - 1) {
            r.range_sum(&query).unwrap();
        }
        // The probe fails: back to quarantine without waiting for a new
        // streak of `QUARANTINE_THRESHOLD` faults.
        r.range_sum(&query).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), threshold + 1);
        assert_eq!(r.health()[0].status, EngineStatus::Quarantined);
        // One continuous quarantine episode, extended by the failed probe.
        assert_eq!(r.fault_stats().quarantines, 1);
        assert_eq!(r.fault_stats().probes, 1);
        r.range_sum(&query).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            threshold + 1,
            "re-opened breaker keeps the engine out"
        );
    }

    #[test]
    fn panics_are_contained_and_the_engine_poisoned_forever() {
        let r = faulty_router(FaultPlan::seeded(2).panics(1000).lie_cheapest());
        let a = cube();
        let query = q(&[(0, 20), (0, 20)]);
        // The panic is contained; the caller sees a correct answer.
        let out = r.range_sum(&query).unwrap();
        let region = query.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(out.value(), Some(&expected));
        assert_eq!(r.fault_stats().panics_contained, 1);
        assert_eq!(r.health()[0].status, EngineStatus::Poisoned);
        // Poisoned engines are permanently out: no probes, no more panics.
        for _ in 0..(QUARANTINE_COOLDOWN_TICKS + 2) {
            r.range_sum(&query).unwrap();
        }
        assert_eq!(r.fault_stats().panics_contained, 1, "never re-entered");
        assert_eq!(r.fault_stats().probes, 0);
        // Updates skip the poisoned engine but still reach the rest.
        r.apply_updates(&[(vec![0, 0], 7)]).unwrap();
        let probe = q(&[(0, 0), (0, 0)]);
        assert_eq!(r.range_sum(&probe).unwrap().value(), Some(&7));
    }

    #[test]
    fn budget_interrupts_return_typed_errors_without_failover() {
        let r = router().with_budget(QueryBudget::with_deadline(Duration::ZERO));
        let query = q(&[(0, 40), (0, 40)]);
        let err = r.range_sum(&query).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
        let stats = r.fault_stats();
        assert_eq!(stats.budget_kills, 1);
        assert_eq!(stats.failovers, 0, "interrupts must not fail over");
        assert!(
            r.health().iter().all(|h| h.status == EngineStatus::Healthy),
            "an engine honouring its deadline is not at fault"
        );
        // Lifting the budget restores service on the same router.
        r.set_budget(QueryBudget::unlimited());
        r.range_sum(&query).unwrap();
    }

    #[test]
    fn access_budget_kills_scans_mid_flight() {
        // A naive-only router must scan all 64*64 = 4096 cells; a
        // 100-access cap interrupts the scan mid-flight.
        let r: AdaptiveRouter<i64> = AdaptiveRouter::new()
            .with_engine(Box::new(NaiveEngine::new(cube())))
            .with_budget(QueryBudget::with_max_accesses(100));
        let err = r.range_sum(&q(&[(0, 63), (0, 63)])).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }), "{err}");
        assert_eq!(r.fault_stats().budget_kills, 1);
    }

    #[test]
    fn cancellation_token_kills_routed_queries() {
        let token = CancellationToken::new();
        let r = router();
        r.set_cancellation_token(Some(token.clone()));
        r.range_sum(&q(&[(0, 10), (0, 10)])).unwrap();
        token.cancel();
        let err = r.range_sum(&q(&[(0, 10), (0, 10)])).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(r.fault_stats().budget_kills, 1);
        // Detaching the token restores service.
        r.set_cancellation_token(None);
        r.range_sum(&q(&[(0, 10), (0, 10)])).unwrap();
    }

    #[test]
    fn validation_errors_do_not_trip_the_breaker() {
        let r = router();
        // Out of bounds for the 64x64 cube: a caller error, not an engine
        // fault — no failover, no breaker movement.
        assert!(r.range_sum(&q(&[(0, 100), (0, 100)])).is_err());
        assert_eq!(r.fault_stats(), FaultStats::default());
        assert!(r.health().iter().all(|h| h.status == EngineStatus::Healthy));
    }

    #[test]
    fn concurrent_queries_and_updates_never_tear() {
        // Readers hammering the shared router while a writer installs
        // update batches must only ever see a full pre- or post-batch
        // snapshot of the whole candidate set.
        let r = Arc::new(router());
        let probe = q(&[(0, 63), (0, 63)]);
        let a = cube();
        let region = probe.to_region(a.shape()).unwrap();
        let base = a.fold_region(&region, 0i64, |s, &x| s + x);
        // Batch k sets cell [0,0] to k*100; valid totals step by 100.
        let cell0 = a.fold_region(
            &Region::from_bounds(&[(0, 0), (0, 0)]).unwrap(),
            0i64,
            |s, &x| s + x,
        );
        let valid: Vec<i64> = (0..=8).map(|k| base - cell0 + k * 100).collect();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&r);
            let probe = probe.clone();
            let valid = valid.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let got = *r.range_sum(&probe).unwrap().value().unwrap();
                    assert!(valid.contains(&got), "torn read: {got} not in {valid:?}");
                }
            }));
        }
        for k in 1..=8i64 {
            r.apply_updates(&[(vec![0, 0], k * 100)]).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    // ------------------------------------------------------------------
    // Graceful degradation: the bounded-error approximate tier.
    // ------------------------------------------------------------------

    use crate::approx::ApproxEngine;

    fn degrading_router(budget: QueryBudget) -> AdaptiveRouter<i64> {
        let a = cube();
        router()
            .with_degrade_tier(Arc::new(ApproxEngine::build(a, 8).unwrap()))
            .with_budget(budget)
    }

    #[test]
    fn degrade_policy_off_still_fails_hard() {
        // Tiny access budget, default Fail policy: exhaustion surfaces.
        let r = degrading_router(QueryBudget::with_max_accesses(2));
        let err = r
            .answer(&q(&[(3, 61), (5, 57)]), EngineOp::Sum)
            .unwrap_err();
        assert!(err.is_interrupt(), "{err:?}");
    }

    #[test]
    fn budget_exhaustion_degrades_to_a_sound_estimate() {
        let a = cube();
        let r = degrading_router(QueryBudget::with_max_accesses(2).degrade());
        let bounds = [(3, 61), (5, 57)];
        let routed = r.answer(&q(&bounds), EngineOp::Sum).unwrap();
        let Routed::Degraded {
            estimate,
            stats,
            reason,
        } = routed
        else {
            panic!("a 2-access budget cannot answer a 59×53 sum exactly");
        };
        assert_eq!(reason, DegradeReason::BudgetExhausted);
        let region = Region::from_bounds(&bounds).unwrap();
        let truth = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert!(estimate.contains(truth), "{truth} outside {estimate}");
        assert!(estimate.fraction_exact > 0.0);
        assert!(stats.a_cells == 0, "degraded sums never touch base cells");
        // Extremum ops degrade too.
        for op in [EngineOp::Max, EngineOp::Min] {
            let routed = r.answer(&q(&bounds), op).unwrap();
            assert!(routed.is_degraded());
        }
    }

    #[test]
    fn within_budget_answers_stay_exact_and_bit_identical() {
        let a = cube();
        let r = degrading_router(QueryBudget::unlimited().degrade());
        let bounds = [(3, 61), (5, 57)];
        let routed = r.answer(&q(&bounds), EngineOp::Sum).unwrap();
        let Routed::Exact(out) = routed else {
            panic!("an unlimited budget must answer exactly");
        };
        let region = Region::from_bounds(&bounds).unwrap();
        let truth = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(out.value(), Some(&truth));
    }

    #[test]
    fn cancellation_never_degrades() {
        let r = degrading_router(QueryBudget::unlimited().degrade());
        let token = CancellationToken::new();
        token.cancel();
        r.set_cancellation_token(Some(token));
        let err = r
            .answer(&q(&[(3, 61), (5, 57)]), EngineOp::Sum)
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
    }

    #[test]
    fn degrade_without_tier_returns_the_exact_failure() {
        let r = router().with_budget(QueryBudget::with_max_accesses(2).degrade());
        let err = r
            .answer(&q(&[(3, 61), (5, 57)]), EngineOp::Sum)
            .unwrap_err();
        assert!(err.is_interrupt(), "{err:?}");
        assert!(r.degrade_tier_label().is_none());
    }

    #[test]
    fn explicit_degrade_and_honest_cost_model() {
        let r = degrading_router(QueryBudget::unlimited());
        let query = q(&[(1, 62), (1, 62)]);
        // Pre-dispatch shedding path: the serving layer's queue-depth cut.
        let (estimate, _) = r
            .degrade(&query, EngineOp::Sum, DegradeReason::QueueDepth)
            .unwrap();
        let a = cube();
        let region = query.to_region(a.shape()).unwrap();
        let truth = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert!(estimate.contains(truth));
        // The tier's honest model: a handful of anchor/extrema reads,
        // orders of magnitude under naive's volume estimate.
        let cost = r.degrade_cost(&query).unwrap();
        assert!(cost.is_finite() && cost < region.volume() as f64 / 10.0);
        assert!(r.degrade_tier_label().unwrap().contains("approx"));
    }

    #[test]
    fn updates_derive_the_degrade_tier_with_the_snapshot() {
        let r = degrading_router(QueryBudget::with_max_accesses(2).degrade());
        // Aligned to the tier's b=8 grid, so the degraded answer is an
        // exact estimate — any staleness would be visible exactly.
        let bounds = [(0, 7), (0, 7)];
        r.apply_updates(&[(vec![0, 0], 9999)]).unwrap();
        let mut shadow = cube();
        *shadow.get_mut(&[0, 0]) = 9999;
        let region = Region::from_bounds(&bounds).unwrap();
        let truth = shadow.fold_region(&region, 0i64, |s, &x| s + x);
        let routed = r.answer(&q(&bounds), EngineOp::Sum).unwrap();
        match routed {
            Routed::Degraded { estimate, .. } => {
                assert!(estimate.is_exact(), "aligned query: {estimate}");
                assert_eq!(estimate.value, truth);
            }
            Routed::Exact(out) => assert_eq!(out.value(), Some(&truth)),
        }
    }

    #[test]
    fn degraded_answers_reach_the_registry() {
        let ctx = Arc::new(olap_telemetry::Telemetry::new());
        olap_telemetry::with_scope(&ctx, || {
            let r = degrading_router(QueryBudget::with_max_accesses(2).degrade());
            let routed = r.answer(&q(&[(3, 61), (5, 57)]), EngineOp::Sum).unwrap();
            assert!(routed.is_degraded());
        });
        let snap = ctx.registry().snapshot();
        let degraded: u64 = snap
            .iter()
            .filter(|m| m.name == "olap_approx_answers_total")
            .map(|m| match m.value {
                olap_telemetry::MetricValue::Counter(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(degraded, 1);
        assert!(
            snap.iter().any(|m| m.name == "olap_approx_answers_total"
                && m.label("reason") == Some("budget_exhausted")),
            "missing reason label in {snap:?}"
        );
        assert!(
            snap.iter().any(|m| m.name == "olap_approx_relative_bound"),
            "missing relative-bound histogram in {snap:?}"
        );
    }
}
