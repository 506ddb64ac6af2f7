//! The adaptive router: §8/§9's "choose the structure by its analytic
//! cost" made operational.
//!
//! [`AdaptiveRouter`] holds several [`RangeEngine`]s, resolves an incoming
//! [`RangeQuery`] once against them, asks each for its one price of the
//! query's op over the resolved region ([`RangeEngine::cost`]), and
//! reads the first strict argmin among the engines that have a price.
//! The price is the paper's model of the structure that answers the op:
//! Equation 3 for a (blocked) prefix-sum read, the §8 tree cost of a §6
//! walk capped at the region's volume, the volume for a scan, and `None`
//! for an op the engine does not serve. The cap and the lower-index
//! tie-break keep every max on an index-first stack on the index.
//!
//! A query that fails to resolve has no region to price. Only then does
//! the router price the whole cube (`Shape::full_region`) to learn
//! whether any engine serves the op, so the query fails with its
//! validation error, or `NoCandidate` when nothing serves the op; a query
//! that resolves never pays for this probe.
//!
//! The prediction is used as written: nothing learned from past queries
//! moves it, so a decision depends only on the query, the op and the
//! pinned engine set. How far observed accesses drift from the model is
//! reported per engine and op (the `olap_router_drift_permille`
//! histogram and the flight recorder), not fed back.
//!
//! [`AdaptiveRouter::explain`] exposes the whole decision: every
//! candidate's predicted cost, the chosen route, and the observed cost
//! after execution.
//!
//! # Shareability and snapshot isolation
//!
//! The router is `Send + Sync`: every method takes `&self`, so one
//! router can serve queries from many threads at once. The engine set,
//! the degradation tier, the budget and the cancellation token live in
//! one epoch-stamped immutable snapshot (`EngineSet`), in the snapshot
//! slot [`crate::VersionCell`] uses too:
//!
//! - **readers** pin the current set through their own stripe of the
//!   slot, which writes only that stripe's cache lines; an install
//!   mid-query never tears or blocks them,
//! - **updates** ([`AdaptiveRouter::apply_updates`]) serialise on the
//!   slot's writer, derive *every* engine and the tier from one
//!   [`BatchImage`], then install the whole set with one swap per stripe
//!   inside one install window — a query sees an all-pre-batch or
//!   all-post-batch set, never a mix,
//! - every set logs its last [`LOGGED`] installs with the cells each one
//!   updated, written inside the same derive, so a semantic cache over
//!   the router catches up from the pinned set alone,
//! - mutable routing state (breaker state, fault counters, the decision
//!   clock) sits in one internal mutex held only for bookkeeping, never
//!   across the estimate sweep or a dispatched query.
//!
//! A read on a router whose breakers are all closed, with no fault
//! streak, takes no lock beyond its stripe's: one flag, maintained under
//! the mutex and read without a write, says so. Such a read enters the
//! mutex only if it faults or is interrupted. Every other read takes the
//! mutex to count its decision and check each candidate's breaker.
//!
//! Lock order is the slot's writer → a stripe of the slot, and the slot's
//! writer → `state`; a stripe lock is held only to clone or swap one
//! handle, with nothing else taken under it.
//!
//! # Degradation
//!
//! [`AdaptiveRouter::fall_back`] is the one "exact, else estimate" path,
//! for [`AdaptiveRouter::answer`] and every server shard part alike.
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
use crate::range_engine::{serves, BatchImage, EngineOp, RangeEngine};
use crate::version::{EpochGuard, SnapshotCell};
use crate::{EngineError, EpochStats};
use olap_aggregate::NumericValue;
use olap_array::{CancellationToken, DegradePolicy, QueryBudget, Region};
use olap_query::{AccessStats, Estimate, QueryOutcome, RangeQuery};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// [`RangeEngine::cost`] of the op over the query's region (paper
    /// units, elements accessed) — what the router compares, and for a
    /// sum what [`RangeEngine::estimate`] reports for the query; `+∞`
    /// when the engine is not eligible.
    pub predicted: f64,
    /// Whether the engine serves the operation: it has a price for it.
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
    #[expect(
        clippy::indexing_slicing,
        reason = "chosen is set from a position in candidates"
    )]
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
        writeln!(f, "  {:<28} {:>12}", "candidate", "predicted")?;
        for c in &self.candidates {
            let mark = if c.index == self.chosen { "*" } else { " " };
            if c.eligible {
                writeln!(f, "{mark} {:<28} {:>12.1}", c.label, c.predicted)?;
            } else {
                writeln!(f, "{mark} {:<28} {:>12}", c.label, "-")?;
            }
        }
        writeln!(f, "  observed: {} accesses", self.observed())?;
        write!(f, "  answer: {}", self.outcome.answer)
    }
}

/// Installs an engine set's log keeps: its own and the ones before it.
pub const LOGGED: usize = 8;

/// What one install changed: `Some(cells)` for a batch every engine
/// derived (a budget, token or tier install has no cells), `None` when it
/// may have changed any answer (a push, a batch some member failed).
pub(crate) type Changed = Option<Arc<[Vec<usize>]>>;

/// An immutable, epoch-stamped snapshot of the candidate engine set and
/// what every query over it runs under. Queries pin one and run against
/// it; updates and settings install a successor.
struct EngineSet<V> {
    engines: Vec<Arc<dyn RangeEngine<V>>>,
    /// The degradation tier, derived with the exact engines from each
    /// batch, so a degraded answer never mixes pre- and post-batch data.
    approx: Option<Arc<dyn DegradeTier<V>>>,
    /// Per-query budget applied to every routed query.
    budget: QueryBudget,
    /// Cooperative cancellation shared with callers.
    token: Option<CancellationToken>,
    /// The last [`LOGGED`] installs, oldest first, this set's own last:
    /// each one's epoch and what it changed. A semantic cache catches its
    /// tables up from it ([`AdaptiveRouter::changes`]).
    log: Arc<[(u64, Changed)]>,
    /// The set's epoch, live until the last pin of this set drops.
    guard: EpochGuard,
}

/// An [`EngineSet`]'s contents before the snapshot slot stamps them.
struct Draft<V> {
    engines: Vec<Arc<dyn RangeEngine<V>>>,
    approx: Option<Arc<dyn DegradeTier<V>>>,
    budget: QueryBudget,
    token: Option<CancellationToken>,
    /// The predecessor's log.
    log: Arc<[(u64, Changed)]>,
}

impl<V> Draft<V> {
    /// A copy of `set`'s contents, to edit into its successor.
    fn of(set: &EngineSet<V>) -> Self {
        Draft {
            engines: set.engines.clone(),
            approx: set.approx.clone(),
            budget: set.budget,
            token: set.token.clone(),
            log: Arc::clone(&set.log),
        }
    }

    /// Wraps the contents for installation under the guard the snapshot
    /// slot mints, logging the install as `changed` behind the newest of
    /// the predecessor's entries.
    fn stamped(self, changed: Changed) -> impl FnOnce(EpochGuard) -> EngineSet<V> {
        move |guard| {
            let older = self.log.get(self.log.len().saturating_sub(LOGGED - 1)..);
            let older = older.unwrap_or_default().iter().cloned();
            EngineSet {
                engines: self.engines,
                approx: self.approx,
                budget: self.budget,
                token: self.token,
                log: older.chain([(guard.epoch(), changed)]).collect(),
                guard,
            }
        }
    }
}

/// The router's mutable bookkeeping, guarded by one mutex held only for
/// short bookkeeping sections — never across the estimate sweep or a
/// dispatched query. A read enters it only when some breaker is not
/// closed and quiet (see [`RouterState::all_closed`]), or when it faults
/// or is interrupted.
struct RouterState {
    /// Per-engine circuit breakers, parallel to the engine set. They
    /// filter candidates at dispatch time, never the predictions.
    healths: Vec<Health>,
    /// Routing decisions taken while some breaker was not closed and
    /// quiet; the breaker cooldown clock. Decisions on an all-closed
    /// router need no clock and do not count.
    ticks: u64,
    faults: FaultStats,
}

impl RouterState {
    /// Whether every breaker is closed with no fault streak: a read may
    /// then skip the breaker checks, and nothing it does moves the clock.
    fn all_closed(&self) -> bool {
        self.healths
            .iter()
            .all(|h| h.status == Status::Closed && h.consecutive_faults == 0)
    }

    /// Success closes the breaker and clears the fault streak.
    #[expect(
        clippy::indexing_slicing,
        reason = "i is an engine position, and the router keeps one health slot per engine of its set"
    )]
    fn note_success(&mut self, i: usize) {
        self.healths[i].status = Status::Closed;
        self.healths[i].consecutive_faults = 0;
    }

    /// An engine fault: bump the streak; a panic poisons permanently, a
    /// failed probe re-opens immediately, and a streak reaching
    /// [`QUARANTINE_THRESHOLD`] opens the breaker.
    #[expect(
        clippy::indexing_slicing,
        reason = "i is an engine position, and the router keeps one health slot per engine of its set"
    )]
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

/// The estimate sweep against one engine-set snapshot: each engine's
/// [`RangeEngine::cost`] of `op` over `region`, `None` where it does not
/// serve `op`. A query that did not resolve prices each engine that
/// serves `op` at `+∞`; only then is the whole cube priced, to learn
/// which engines those are.
fn sweep<V>(set: &EngineSet<V>, region: Option<&Region>, op: EngineOp) -> Vec<Option<f64>> {
    set.engines
        .iter()
        .map(|e| match region {
            Some(region) => e.cost(region, op),
            None => serves(&**e, op).then_some(f64::INFINITY),
        })
        .collect()
}

/// `query` resolved against a pinned set: every engine of a set serves
/// one shape, so the first engine's is the set's.
fn resolve<V>(set: &EngineSet<V>, query: &RangeQuery, op: EngineOp) -> Result<Region, EngineError> {
    let engine = set
        .engines
        .first()
        .ok_or(EngineError::NoCandidate { op: op.name() })?;
    Ok(query.to_region(engine.shape())?)
}

/// The engine to try after `prev` in predicted-cost order, or the first
/// one when `prev` is `None`. The order is ascending estimate, ties to
/// the lower index, so the first is the first strict argmin and routing
/// is deterministic for a fixed engine order. A NaN estimate ranks as
/// `+∞`, so it can never jump the queue. Ineligible engines are never
/// ranked.
fn next_ranked(predictions: &[Option<f64>], prev: Option<usize>) -> Option<usize> {
    let key = |i: usize, p: f64| (if p.is_nan() { f64::INFINITY } else { p }, i);
    let floor = prev.and_then(|i| predictions.get(i).copied().flatten().map(|p| key(i, p)));
    predictions
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.map(|p| key(i, p)))
        .filter(|k| floor.is_none_or(|f| f < *k))
        .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(_, i)| i)
}

/// Attaches engine labels and breaker status to a prediction sweep,
/// turning it into the public [`Candidate`] table.
fn label_predictions<V>(
    set: &EngineSet<V>,
    predictions: &[Option<f64>],
    healths: &[Health],
) -> Vec<Candidate> {
    set.engines
        .iter()
        .zip(predictions)
        .enumerate()
        .map(|(index, (engine, p))| Candidate {
            index,
            label: engine.label(),
            predicted: p.unwrap_or(f64::INFINITY),
            eligible: p.is_some(),
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
/// degraded value cannot be mistaken for, or cached as, an exact one:
///
/// ```compile_fail
/// use olap_engine::Routed;
/// use olap_query::Estimate;
///
/// fn masquerade(estimate: Estimate<i64>) -> Routed<i64> {
///     Routed::Exact(estimate)
/// }
/// ```
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

    /// Elements accessed, exactly or by the degraded path.
    pub fn cost(&self) -> u64 {
        match self {
            Routed::Exact(outcome) => outcome.cost(),
            Routed::Degraded { stats, .. } => stats.total_accesses(),
        }
    }
}

/// Routes each query to the cheapest capable engine under the §8/§9 cost
/// model. Shareable across threads: see the module docs for
/// the snapshot-isolation and locking discipline.
pub struct AdaptiveRouter<V> {
    /// The current engine-set snapshot; updates and pushes install
    /// successors through it.
    snapshots: SnapshotCell<EngineSet<V>>,
    /// Routing bookkeeping; acquired after the slot's writer, never held
    /// across a dispatched query.
    state: Mutex<RouterState>,
    /// [`RouterState::all_closed`], republished each time `state` is
    /// unlocked, so a read can learn it without entering `state`.
    all_closed: AtomicBool,
}

/// `state`, locked. Dropping it republishes `all_closed` while the lock
/// is still held, so the flag always follows the last writer.
struct StateGuard<'a> {
    state: MutexGuard<'a, RouterState>,
    all_closed: &'a AtomicBool,
}

impl std::ops::Deref for StateGuard<'_> {
    type Target = RouterState;

    fn deref(&self) -> &RouterState {
        &self.state
    }
}

impl std::ops::DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut RouterState {
        &mut self.state
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        let closed = self.state.all_closed();
        // ordering: Relaxed — a routing hint that publishes no other
        // memory: a read that acts on a stale value either takes the slow
        // path needlessly or dispatches once to an engine whose breaker
        // another thread has just opened, as it could by racing that
        // thread under the lock.
        self.all_closed.store(closed, Ordering::Relaxed);
    }
}

impl<V> AdaptiveRouter<V> {
    /// An empty router.
    pub fn new() -> Self {
        AdaptiveRouter::labeled("router")
    }

    /// An empty router named `label` in the exported snapshot gauges
    /// (`olap_snapshot_live{cell="…"}` — e.g. `shard-3` in a sharded
    /// server).
    pub fn labeled(label: &str) -> Self {
        let empty = |guard| EngineSet {
            engines: Vec::new(),
            approx: None,
            budget: QueryBudget::unlimited(),
            token: None,
            log: Arc::new([]),
            guard,
        };
        AdaptiveRouter {
            snapshots: SnapshotCell::new(label, empty),
            state: Mutex::new(RouterState {
                healths: Vec::new(),
                ticks: 0,
                faults: FaultStats::default(),
            }),
            all_closed: AtomicBool::new(true),
        }
    }

    fn lock_state(&self) -> StateGuard<'_> {
        StateGuard {
            state: self.state.lock().unwrap_or_else(|e| e.into_inner()),
            all_closed: &self.all_closed,
        }
    }

    /// Adds an engine to the candidate set. Installs a new snapshot, so
    /// concurrent queries finish on the set they pinned.
    pub fn push(&self, engine: Box<dyn RangeEngine<V>>) {
        self.snapshots.update(|cur| {
            let mut next = Draft::of(cur);
            next.engines.push(Arc::from(engine));
            // The slot exists before any set can name the engine.
            self.lock_state().healths.push(Health::default());
            (Some(next.stamped(None)), ())
        });
    }

    /// Registers the degradation tier, e.g. an [`crate::ApproxEngine`]
    /// answering from anchors and cached extrema alone. It is **not** a
    /// routing candidate: it answers only through
    /// [`AdaptiveRouter::fall_back`] or [`AdaptiveRouter::degrade`], with
    /// [`Estimate`]s, statically distinct from exact outcomes. Installs a
    /// new snapshot; update batches derive the tier with the engines.
    pub fn set_degrade_tier(&self, tier: Arc<dyn DegradeTier<V>>) {
        self.snapshots.update(|cur| {
            let next = Draft {
                approx: Some(tier),
                ..Draft::of(cur)
            };
            (Some(next.stamped(unchanged())), ())
        });
    }

    /// Builder-style [`AdaptiveRouter::set_degrade_tier`].
    #[must_use]
    pub fn with_degrade_tier(self, tier: Arc<dyn DegradeTier<V>>) -> Self {
        self.set_degrade_tier(tier);
        self
    }

    /// The current snapshot's degradation tier, when one is registered.
    pub fn degrade_tier(&self) -> Option<Arc<dyn DegradeTier<V>>> {
        self.snapshots.pin().approx.clone()
    }

    /// The degradation tier's label, when one is registered.
    pub fn degrade_tier_label(&self) -> Option<String> {
        self.degrade_tier().map(|t| t.label())
    }

    /// Sets the per-query [`QueryBudget`] every routed query runs under.
    /// The deadline spans failover attempts: retries never extend a
    /// query's time allowance.
    ///
    /// The budget lives in the engine-set snapshot, so a budget that
    /// differs from the current one installs a new set and bumps
    /// [`AdaptiveRouter::epoch`]; queries already running keep the budget
    /// of the set they pinned. The install is logged as changing no cell,
    /// so a cache over the router keeps every entry across it.
    pub fn set_budget(&self, budget: QueryBudget) {
        self.snapshots.update(|cur| {
            let next = (cur.budget != budget).then(|| {
                Draft {
                    budget,
                    ..Draft::of(cur)
                }
                .stamped(unchanged())
            });
            (next, ())
        });
    }

    /// Builder-style [`AdaptiveRouter::set_budget`].
    #[must_use]
    pub fn with_budget(self, budget: QueryBudget) -> Self {
        self.set_budget(budget);
        self
    }

    /// The budget applied to routed queries.
    pub fn budget(&self) -> QueryBudget {
        self.snapshots.pin().budget
    }

    /// Installs (or clears) a [`CancellationToken`] checked by every
    /// subsequent routed query; cancel it from any thread to interrupt
    /// in-flight work at the next kernel checkpoint. Like
    /// [`AdaptiveRouter::set_budget`], it installs a new engine set that
    /// changes no cell, and bumps [`AdaptiveRouter::epoch`].
    pub fn set_cancellation_token(&self, token: Option<CancellationToken>) {
        self.snapshots.update(|cur| {
            let next = Draft {
                token,
                ..Draft::of(cur)
            };
            (Some(next.stamped(unchanged())), ())
        });
    }

    /// Resilience counters accumulated since construction.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock_state().faults
    }

    /// Per-engine circuit-breaker state, in routing order.
    pub fn health(&self) -> Vec<EngineHealth> {
        let set = self.snapshots.pin();
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
        self.snapshots.pin().engines.len()
    }

    /// Whether the router has no engines.
    pub fn is_empty(&self) -> bool {
        self.snapshots.pin().engines.is_empty()
    }

    /// The candidate engines' labels, in routing order.
    pub fn labels(&self) -> Vec<String> {
        self.snapshots
            .pin()
            .engines
            .iter()
            .map(|e| e.label())
            .collect()
    }

    /// The current engine-set snapshot epoch: 0 at construction, +1 per
    /// engine push, tier registration, budget or token change and
    /// installed update batch. A
    /// query that pins after reading `e` runs on set `e` or later, and
    /// then this returns more than `e` — the semantic cache's guard.
    pub fn epoch(&self) -> u64 {
        self.snapshots.epoch()
    }

    /// What each install in `(from, to]` changed, oldest first, read from
    /// the log of the set pinned now (epoch `to` or later); `None` once
    /// that log no longer reaches back to the install after `from`.
    pub(crate) fn changes(&self, from: u64, to: u64) -> Option<Vec<Changed>> {
        let set = self.snapshots.pin();
        let first = set.log.iter().position(|&(epoch, _)| epoch == from + 1)?;
        let installs = set.log.get(first..)?.iter();
        let installs = installs.take_while(|&&(epoch, _)| epoch <= to);
        Some(installs.map(|(_, changed)| changed.clone()).collect())
    }

    /// Snapshot-liveness bookkeeping: current epoch, engine sets still
    /// pinned by in-flight queries, and the reclamation lag (how many
    /// installs behind the slowest pinned snapshot is).
    pub fn epoch_stats(&self) -> EpochStats {
        self.snapshots.epoch_stats()
    }

    /// A pinned handle to engine `i` in the current snapshot.
    ///
    /// # Panics
    /// When `i` is not a registered engine index (see
    /// [`AdaptiveRouter::len`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "i < the engine count is the caller's contract, like slice indexing"
    )]
    pub fn engine(&self, i: usize) -> Arc<dyn RangeEngine<V>> {
        Arc::clone(&self.snapshots.pin().engines[i])
    }

    /// Pins the current set, resolves `query` against it once, and routes
    /// the read.
    fn route(
        &self,
        query: &RangeQuery,
        op: EngineOp,
        table: Option<&mut Vec<Candidate>>,
    ) -> Result<(usize, QueryOutcome<V>), EngineError> {
        let set = self.snapshots.pin();
        let region = resolve(&set, query, op);
        self.execute(&set, region.as_ref(), op, table)
    }

    /// Routes one read over the pinned `set`: a single estimate sweep,
    /// then dispatch in predicted-cost order ([`next_ranked`]) until an
    /// engine answers. Breaker state is *not* part of the order —
    /// admissibility is checked per attempt, so a quarantined argmin falls
    /// through to the next-best automatically. When `table` is given, the
    /// sweep is also written there as the [`Candidate`] table `explain`
    /// reports. A `region` that did not resolve fails where the first
    /// admissible engine would have run: after an expired budget, and
    /// only if some engine serves `op`.
    ///
    /// On an all-closed router (see [`RouterState::all_closed`]) every
    /// engine is admissible and none is a probe, so the read skips
    /// `state` until an engine faults or the budget interrupts it; the
    /// breaker clock then reads the current tick without counting one.
    #[expect(
        clippy::indexing_slicing,
        reason = "i is an engine position, and the router keeps one health slot per engine of its set"
    )]
    fn execute(
        &self,
        set: &EngineSet<V>,
        region: Result<&Region, &EngineError>,
        op: EngineOp,
        table: Option<&mut Vec<Candidate>>,
    ) -> Result<(usize, QueryOutcome<V>), EngineError> {
        // The span covers decision, dispatch and failover.
        olap_telemetry::in_span("router_dispatch", || {
            // The whole query runs against the one set the caller pinned,
            // even if an update installs a successor mid-flight.
            // ordering: Relaxed — see the store in `StateGuard::drop`.
            let quiet = self.all_closed.load(Ordering::Relaxed);
            // The decision's breaker clock: counted up front when some
            // breaker needs it, else read only if the read enters `state`.
            let mut tick = (!quiet).then(|| {
                let mut st = self.lock_state();
                st.ticks += 1;
                st.ticks
            });
            // One meter for the whole query: the deadline spans failover
            // attempts, so retries never extend the time allowance. An
            // already-expired budget (a zero deadline, a fired
            // cancellation token) kills the query with its interrupt
            // *before* any routing work — even when no candidate would
            // have been admissible.
            let meter = set.budget.start(set.token.clone());
            if let Err(interrupt) = meter.check() {
                self.lock_state().faults.budget_kills += 1;
                return Err(interrupt.into());
            }
            // The one estimate sweep of this query, with no router lock held.
            let predictions = sweep(set, region.ok(), op);
            if let Some(table) = table {
                *table = label_predictions(set, &predictions, &self.lock_state().healths);
            }
            let mut next = next_ranked(&predictions, None);
            let mut last_fault: Option<EngineError> = None;
            while let Some(i) = next {
                next = next_ranked(&predictions, Some(i));
                // After a fault the read is on the slow path too: the
                // breakers it saw as closed may have moved.
                let checked = !quiet || last_fault.is_some();
                if checked {
                    let mut st = self.lock_state();
                    let tick = *tick.get_or_insert(st.ticks);
                    if !st.healths[i].admissible(tick) {
                        continue;
                    }
                    if st.healths[i].is_probe() {
                        st.faults.probes += 1;
                        record_fault_event(set, "probe", i, op);
                    }
                    if last_fault.is_some() {
                        st.faults.failovers += 1;
                        record_fault_event(set, "failover", i, op);
                    }
                }
                let region = region.map_err(Clone::clone)?;
                let observing =
                    olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now()));
                // Dispatch with no router lock held: concurrent queries on
                // other threads proceed while this engine works.
                let dispatched = olap_telemetry::in_span("kernel_exec", || {
                    let engine = &set.engines[i];
                    guarded(|| engine.label(), || engine.read(region, op, &meter))
                });
                match dispatched {
                    Ok(outcome) => {
                        if checked {
                            self.lock_state().note_success(i);
                        }
                        if let Some((ctx, start)) = observing {
                            let predicted = predictions
                                .get(i)
                                .copied()
                                .flatten()
                                .unwrap_or(f64::INFINITY);
                            record_route(&ctx, start, set, i, op, predicted, &outcome);
                        }
                        return Ok((i, outcome));
                    }
                    Err(e) if e.is_interrupt() => {
                        // The engine obeyed its budget: healthy, no failover
                        // (a retry would re-run the same doomed query).
                        let mut st = self.lock_state();
                        st.note_success(i);
                        st.faults.budget_kills += 1;
                        record_fault_event(set, "budget_kill", i, op);
                        return Err(e);
                    }
                    Err(e) if e.is_engine_fault() => {
                        let panicked = matches!(e, EngineError::EnginePanicked { .. });
                        {
                            let mut st = self.lock_state();
                            let tick = *tick.get_or_insert(st.ticks);
                            st.note_fault(i, tick, panicked);
                        }
                        record_fault_event(set, if panicked { "panic" } else { "fault" }, i, op);
                        last_fault = Some(e);
                    }
                    // Validation fails identically everywhere (an unresolved
                    // region too): no failover, no breaker counting.
                    Err(e) => return Err(e),
                }
            }
            Err(last_fault.unwrap_or(EngineError::NoCandidate { op: op.name() }))
        })
    }

    /// Routes and answers a range-sum query.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] if no engine supports sums; otherwise
    /// whatever the chosen engine reports.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.route(query, EngineOp::Sum, None).map(|(_, o)| o)
    }

    /// Routes and answers a range-max query; errors as
    /// [`AdaptiveRouter::range_sum`].
    pub fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.route(query, EngineOp::Max, None).map(|(_, o)| o)
    }

    /// Routes and answers a range-min query; errors as
    /// [`AdaptiveRouter::range_sum`].
    pub fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.route(query, EngineOp::Min, None).map(|(_, o)| o)
    }

    /// Routes and answers `op` over a region already resolved against
    /// the router's shape — the entry a layer above that resolved the
    /// query itself (the semantic cache, a server shard) calls.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn read(&self, region: &Region, op: EngineOp) -> Result<QueryOutcome<V>, EngineError> {
        self.execute(&self.snapshots.pin(), Ok(region), op, None)
            .map(|(_, o)| o)
    }

    /// Routes `query` like [`AdaptiveRouter::range_sum`], then hands an
    /// exact failure to [`AdaptiveRouter::fall_back`].
    ///
    /// # Errors
    /// Whatever exact routing reported, unless the fallback answers.
    pub fn answer(&self, query: &RangeQuery, op: EngineOp) -> Result<Routed<V>, EngineError> {
        let set = self.snapshots.pin();
        let region = resolve(&set, query, op);
        match (self.execute(&set, region.as_ref(), op, None), region) {
            (Ok((_, outcome)), _) => Ok(Routed::Exact(outcome)),
            (Err(e), Ok(region)) => self.fall_back(&region, op, e),
            (Err(e), Err(_)) => Err(e),
        }
    }

    /// Exact, else estimate: under [`DegradePolicy::Degrade`], an exact
    /// failure that [`DegradeReason::for_failure`] admits is answered by
    /// the degradation tier instead. Cancellation and validation errors
    /// never degrade.
    ///
    /// # Errors
    /// `exact_err`, when the policy or the reason forbids degrading or
    /// the tier cannot answer.
    pub fn fall_back(
        &self,
        region: &Region,
        op: EngineOp,
        exact_err: EngineError,
    ) -> Result<Routed<V>, EngineError> {
        let reason = match DegradeReason::for_failure(&exact_err) {
            Some(reason) if self.budget().on_exhaustion == DegradePolicy::Degrade => reason,
            _ => return Err(exact_err),
        };
        let Ok((estimate, stats)) = self.degrade(region, op, reason) else {
            return Err(exact_err);
        };
        Ok(Routed::Degraded {
            estimate,
            stats,
            reason,
        })
    }

    /// Forces a degraded answer from the registered tier, bypassing exact
    /// routing: serving layers shed load *before* dispatch through it (a
    /// shard over its in-flight threshold) with the `reason` they saw.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] without a tier; otherwise the tier's
    /// error, a tier panic as [`EngineError::EnginePanicked`].
    pub fn degrade(
        &self,
        region: &Region,
        op: EngineOp,
        reason: DegradeReason,
    ) -> Result<(Estimate<V>, AccessStats), EngineError> {
        let set = self.snapshots.pin();
        let tier = set
            .approx
            .as_ref()
            .ok_or(EngineError::NoCandidate { op: op.name() })?;
        let (estimate, stats) = olap_telemetry::in_span("degrade", || {
            guarded(|| tier.label(), || tier.degraded(region, op))
        })?;
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

    /// Applies absolute-value updates to **every** engine and to the
    /// degradation tier, installing the derived set as one new snapshot:
    /// concurrent queries finish on the set they pinned or start on the
    /// successor, never a mix. The batch is worked out once — a
    /// [`BatchImage`] from the first healthy engine's
    /// [`RangeEngine::base`], else the tier's [`DegradeTier::base`] — and
    /// everything derives onto it, so a stack over one shared base copies
    /// the cube once between them.
    ///
    /// A poisoned engine is never re-derived: its last good snapshot, old
    /// base included, is carried forward. A member whose derive fails or
    /// panics keeps its pre-batch snapshot (a panic poisons an exact
    /// engine); the first failure is reported once the rest of the set
    /// has been derived, so healthy engines stay mutually consistent.
    ///
    /// # Errors
    /// An index the image rejects (nothing is derived or installed), or
    /// [`EngineError::Unsupported`] from the first engine whose derive
    /// refuses updates (nothing is installed), or the first other derive
    /// failure.
    pub fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError>
    where
        V: NumericValue,
    {
        self.snapshots.update(|cur| {
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
            let image = match cur
                .engines
                .iter()
                .zip(&poisoned)
                .find_map(|(e, &dead)| if dead { None } else { e.base() })
                .or_else(|| cur.approx.as_ref().map(|tier| tier.base()))
                .map(|base| BatchImage::derive(base, updates))
                .transpose()
            {
                Ok(image) => image,
                Err(e) => return (None, Err(e)),
            };
            let mut stats = AccessStats::new();
            let mut first_err: Option<EngineError> = None;
            let mut engines = Vec::with_capacity(cur.engines.len());
            for ((i, engine), &dead) in cur.engines.iter().enumerate().zip(&poisoned) {
                // A poisoned engine is never re-entered, not even to derive.
                let derived = (!dead).then(|| {
                    guarded(
                        || engine.label(),
                        || match &image {
                            Some(image) => engine.derive_onto(image),
                            None => engine.apply_updates(updates),
                        },
                    )
                });
                engines.push(match derived {
                    None => Arc::clone(engine),
                    Some(Ok(derived)) => {
                        stats += derived.stats;
                        Arc::from(derived.engine)
                    }
                    // An engine that takes no updates: installing the rest
                    // would leave it answering for a stale cube.
                    Some(Err(e @ EngineError::Unsupported { .. })) => return (None, Err(e)),
                    Some(Err(e)) => {
                        if matches!(e, EngineError::EnginePanicked { .. }) {
                            let mut st = self.lock_state();
                            let tick = st.ticks;
                            st.note_fault(i, tick, true);
                        }
                        first_err.get_or_insert(e);
                        Arc::clone(engine)
                    }
                });
            }
            // The tier derives onto the same image (there always is one
            // with a tier), so degraded answers match the exact engines.
            let approx = cur.approx.as_ref().map(|tier| {
                let derived = image.as_ref().map_or(Ok(Arc::clone(tier)), |image| {
                    guarded(|| tier.label(), || tier.derive_onto(image))
                });
                derived.unwrap_or_else(|e| {
                    first_err.get_or_insert(e);
                    Arc::clone(tier)
                })
            });
            // Every member derived: only a region holding an updated cell
            // can have a new answer.
            let changed = first_err
                .is_none()
                .then(|| updates.iter().map(|(idx, _)| idx.clone()).collect());
            let result = first_err.map_or(Ok(stats), Err);
            let next = Draft {
                engines,
                approx,
                budget: cur.budget,
                token: cur.token.clone(),
                log: Arc::clone(&cur.log),
            };
            (Some(next.stamped(changed)), result)
        })
    }

    /// Routes, executes, and reports the whole decision for a range-sum
    /// query: every candidate's predicted cost, the chosen route, and the
    /// observed cost. Routes exactly like [`AdaptiveRouter::range_sum`],
    /// from the same single estimate sweep.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn explain(&self, query: &RangeQuery) -> Result<Explain<V>, EngineError> {
        self.explain_op(query, EngineOp::Sum)
    }

    /// [`AdaptiveRouter::explain`] for an arbitrary read operation.
    ///
    /// # Errors
    /// [`EngineError::NoCandidate`] or the chosen engine's error.
    pub fn explain_op(&self, query: &RangeQuery, op: EngineOp) -> Result<Explain<V>, EngineError> {
        let mut candidates = Vec::new();
        let (chosen, outcome) = self.route(query, op, Some(&mut candidates))?;
        Ok(Explain {
            op,
            candidates,
            chosen,
            outcome,
        })
    }
}

/// What a budget, token or tier install changed: no exact answer.
fn unchanged() -> Changed {
    Some(Arc::from([]))
}

/// Counts one fault-tolerance event in the telemetry registry (the
/// [`FaultStats`] counters are maintained unconditionally by the caller).
#[expect(
    clippy::indexing_slicing,
    reason = "i is an engine position, and the router keeps one health slot per engine of its set"
)]
fn record_fault_event<V>(set: &EngineSet<V>, event: &'static str, i: usize, op: EngineOp) {
    if let Some(ctx) = olap_telemetry::current() {
        let label = set.engines[i].label();
        ctx.registry()
            .counter(
                "olap_router_fault_events_total",
                &[("event", event), ("engine", &label), ("op", op.name())],
            )
            .inc(1);
    }
}

/// Records one routed execution: route-choice counter, the drift of the
/// observed cost from the §8 prediction, and a flight record.
#[expect(
    clippy::indexing_slicing,
    reason = "i is an engine position, and the router keeps one health slot per engine of its set"
)]
fn record_route<V>(
    ctx: &olap_telemetry::Telemetry,
    start: std::time::Instant,
    set: &EngineSet<V>,
    i: usize,
    op: EngineOp,
    predicted: f64,
    outcome: &QueryOutcome<V>,
) {
    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let label = set.engines[i].label();
    let observed = outcome.cost();
    let reg = ctx.registry();
    reg.counter(
        "olap_router_route_total",
        &[("engine", &label), ("op", op.name())],
    )
    .inc(1);
    if predicted.is_finite() && predicted > 0.0 {
        let drift = ((observed as f64 / predicted) - 1.0).abs() * 1000.0;
        reg.histogram(
            "olap_router_drift_permille",
            &[("engine", &label), ("op", op.name())],
        )
        .observe(drift.min(u64::MAX as f64) as u64);
    }
    ctx.recorder().record(olap_telemetry::FlightRecord {
        seq: 0,
        op: op.name(),
        engine: label,
        kind: outcome.answered_by.to_string(),
        predicted,
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

/// Runs `work` for the engine `label` names behind the panic boundary: a
/// panic surfaces as [`EngineError::EnginePanicked`] instead of unwinding
/// through the router. Every dispatch, derive and tier estimate uses it.
///
/// `AssertUnwindSafe` is sound here because `work` only touches one
/// pinned engine (or tier) and the meter: the router poisons an engine
/// that panicked, keeps a tier's pre-batch snapshot when its derive
/// panics, and a tier estimate only reads, so no torn state is observed.
fn guarded<T>(
    label: impl FnOnce() -> String,
    work: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        Err(EngineError::EnginePanicked {
            engine: label(),
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Renders a contained panic payload for [`EngineError::EnginePanicked`]:
/// a `&str` or `String` verbatim, a `panic_any` payload opaquely.
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
        let set = self.snapshots.pin();
        f.debug_struct("AdaptiveRouter")
            .field("epoch", &set.guard.epoch())
            .field(
                "engines",
                &set.engines.iter().map(|e| e.label()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{NaiveEngine, SumTreeEngine};
    use crate::range_engine::Derived;
    use crate::{CubeIndex, IndexConfig};
    use olap_array::{BudgetMeter, DenseArray, Region, Shape};

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
        let ex = r.explain(&big).unwrap();
        let region = big.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(ex.outcome.value(), Some(&expected));
        let chosen = ex.chosen_candidate();
        assert!(chosen.label.contains("prefix"), "{chosen:?}");
        assert!(ex
            .candidates
            .iter()
            .all(|c| chosen.predicted <= c.predicted));
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

    #[test]
    fn ranking_is_ascending_estimate_with_ties_to_the_lower_index() {
        let predictions = [Some(4.0), None, Some(f64::NAN), Some(1.0), Some(4.0)];
        let mut order = Vec::new();
        let mut next = next_ranked(&predictions, None);
        while let Some(i) = next {
            order.push(i);
            next = next_ranked(&predictions, Some(i));
        }
        // The ineligible engine is never ranked; NaN ranks as +∞.
        assert_eq!(order, [3, 0, 4, 2]);
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
        // The model's drift is reported per engine and per op.
        for op in ["range_sum", "range_max"] {
            assert!(
                snap.iter().any(|m| m.name == "olap_router_drift_permille"
                    && m.label("op") == Some(op)
                    && m.label("engine").is_some()),
                "missing {op} drift in {snap:?}"
            );
        }
        let flights = ctx.recorder().snapshot();
        assert_eq!(flights.len(), 3);
        assert!(flights.iter().all(|f| f.observed > 0));
        assert_eq!(flights[2].op, "range_max");
        // The prefix-sum route's prediction is the paper's 2^d = 4.
        let big = &flights[0];
        assert!(big.engine.contains("prefix"), "{big:?}");
        assert_eq!(big.predicted, 4.0);
    }

    #[test]
    fn a_member_that_takes_no_updates_makes_the_router_install_nothing() {
        let a = cube();
        let r = router().with_engine(Box::new(crate::SparseMaxEngine::from_dense(&a)));
        let epoch = r.epoch();
        let before: Vec<_> = (0..r.len()).map(|i| r.engine(i)).collect();
        let err = r.apply_updates(&[(vec![1, 1], 500)]).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err:?}");
        assert_eq!(r.epoch(), epoch);
        for (i, engine) in before.iter().enumerate() {
            assert!(Arc::ptr_eq(engine, &r.engine(i)));
        }
        let everything = q(&[(0, 63), (0, 63)]);
        let total: i64 = a.as_slice().iter().sum();
        assert_eq!(r.range_sum(&everything).unwrap().value(), Some(&total));
    }

    #[test]
    fn explain_records_predictions() {
        let r = router();
        for k in 0..10 {
            let lo = k * 3;
            let ex = r.explain(&q(&[(lo, lo + 20), (0, 40)])).unwrap();
            assert!(ex.chosen_candidate().predicted.is_finite());
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
        fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
            self.inner.cost(region, op).map(|_| 0.0)
        }
        fn read(
            &self,
            region: &Region,
            op: EngineOp,
            meter: &BudgetMeter,
        ) -> Result<QueryOutcome<i64>, EngineError> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.fail_first {
                return Err(EngineError::backend("flaky", format!("down for call {n}")));
            }
            self.inner.read(region, op, meter)
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
        // During cooldown the engine is never re-entered (and skipping it
        // is not a failover — nothing failed). The quarantine is visible
        // in the candidate table of the first cooldown query.
        let ex = r.explain(&query).unwrap();
        assert_eq!(ex.candidates[0].status, EngineStatus::Quarantined);
        for _ in 0..(QUARANTINE_COOLDOWN_TICKS - 2) {
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
        let region = Region::from_bounds(&[(1, 62), (1, 62)]).unwrap();
        // Pre-dispatch shedding path: the serving layer's queue-depth cut.
        let (estimate, _) = r
            .degrade(&region, EngineOp::Sum, DegradeReason::QueueDepth)
            .unwrap();
        let a = cube();
        let truth = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert!(estimate.contains(truth));
        // The tier reads a handful of anchors and extrema, orders of
        // magnitude under the region's volume.
        let (_, stats) = ApproxEngine::build(cube(), 8)
            .unwrap()
            .estimate_sum(&region)
            .unwrap();
        assert!(stats.total_accesses() * 10 < region.volume() as u64);
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
