//! Query budgets: cooperative deadlines, cell-access limits, and
//! cancellation for long-running kernels.
//!
//! The paper's whole cost story is counted in *element accesses*; a budget
//! turns that unit into a runtime contract: "answer this query in at most
//! `max_accesses` element accesses and `deadline` wall time, or stop with
//! a typed interrupt". Enforcement is **cooperative** — kernels call
//! [`BudgetMeter::charge`] as they account accesses (the same places they
//! feed `AccessStats`) and [`BudgetMeter::check`] at chunk boundaries —
//! so there is no preemption, no threads to kill, and an uninterrupted
//! query computes exactly what it would without a budget.
//!
//! The split between [`QueryBudget`] and [`BudgetMeter`] matters:
//!
//! - [`QueryBudget`] is the declarative, `Copy` *spec* (a deadline as a
//!   duration-from-start, an access cap). It can live in configuration
//!   structs and be compared for equality.
//! - [`BudgetMeter`] is the *runtime handle* created per query execution
//!   by [`QueryBudget::start`]: it pins the start instant, carries the
//!   shared spent-access counter, and optionally a [`CancellationToken`].
//!   It is cheap to clone and safe to share between the threads that
//!   run and cancel one query.
//!
//! An unlimited budget costs one branch per check — the meter holds no
//! allocation and no clock reads happen.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Nanoseconds elapsed when the check fired.
        elapsed_ns: u64,
        /// The budgeted allowance in nanoseconds.
        limit_ns: u64,
    },
    /// The element-access allowance was spent.
    BudgetExhausted {
        /// Accesses charged so far (may exceed the limit by one chunk).
        spent: u64,
        /// The budgeted allowance.
        limit: u64,
    },
    /// The query's [`CancellationToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::DeadlineExceeded {
                elapsed_ns,
                limit_ns,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ns} ns elapsed of a {limit_ns} ns allowance"
            ),
            Interrupt::BudgetExhausted { spent, limit } => write!(
                f,
                "access budget exhausted: {spent} element accesses charged of a {limit} allowance"
            ),
            Interrupt::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// A shareable cancellation flag: clone it, hand one clone to the query,
/// keep the other, and [`CancellationToken::cancel`] from anywhere (another
/// thread, a signal handler shim, a timeout loop). Budgeted kernels observe
/// it at their next [`BudgetMeter::check`].
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        // ordering: Relaxed — a monotone one-way flag; no data is
        // published with it, and a kernel observing it one chunk late is
        // within the cancellation contract.
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — polling read of the one-way flag above.
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// What a serving layer should do when a query trips its budget
/// ([`Interrupt::DeadlineExceeded`] / [`Interrupt::BudgetExhausted`]) or
/// finds no healthy exact engine.
///
/// The policy rides on the [`QueryBudget`] spec because the two are one
/// contract: the budget says when a query is cut off, the policy says
/// what the caller gets instead. Budget *enforcement* (this crate's
/// meters and kernels) never looks at it — degradation is resolved by
/// the layers that own an approximate tier (the adaptive router, the
/// cube server). Cancellation is deliberately not degradable: a caller
/// who cancelled wants no answer at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradePolicy {
    /// Exhaustion surfaces as the typed interrupt error (the default).
    #[default]
    Fail,
    /// Exhaustion falls back to a bounded-error approximate answer when
    /// an approximate tier is available.
    Degrade,
}

/// The declarative budget spec: a wall-clock allowance measured from
/// [`QueryBudget::start`] and/or a cap on charged element accesses,
/// plus the [`DegradePolicy`] applied when the allowance is spent.
/// `Copy`, so it can ride inside configuration structs; the default is
/// unlimited on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Wall-clock allowance from query start; `None` = unlimited. A zero
    /// allowance kills any query at its first check, before kernel work.
    pub deadline: Option<Duration>,
    /// Element-access allowance; `None` = unlimited.
    pub max_accesses: Option<u64>,
    /// What exhaustion turns into: a typed error ([`DegradePolicy::Fail`],
    /// the default) or a degraded approximate answer.
    pub on_exhaustion: DegradePolicy,
}

impl QueryBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// A budget with only a wall-clock allowance.
    pub fn with_deadline(deadline: Duration) -> Self {
        QueryBudget {
            deadline: Some(deadline),
            ..QueryBudget::default()
        }
    }

    /// A budget with only an element-access allowance.
    pub fn with_max_accesses(max: u64) -> Self {
        QueryBudget {
            max_accesses: Some(max),
            ..QueryBudget::default()
        }
    }

    /// Builder-style deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style access cap.
    #[must_use]
    pub fn max_accesses(mut self, max: u64) -> Self {
        self.max_accesses = Some(max);
        self
    }

    /// Builder-style [`DegradePolicy`].
    #[must_use]
    pub fn on_exhaustion(mut self, policy: DegradePolicy) -> Self {
        self.on_exhaustion = policy;
        self
    }

    /// Builder-style shorthand for `on_exhaustion(DegradePolicy::Degrade)`.
    #[must_use]
    pub fn degrade(self) -> Self {
        self.on_exhaustion(DegradePolicy::Degrade)
    }

    /// Whether this budget can never interrupt anything.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_accesses.is_none()
    }

    /// Pins the start instant and returns the runtime meter for one query
    /// execution. `token` optionally attaches a cancellation flag; a token
    /// alone (on an otherwise unlimited budget) still arms the meter.
    pub fn start(&self, token: Option<CancellationToken>) -> BudgetMeter {
        if self.is_unlimited() && token.is_none() {
            return BudgetMeter { inner: None };
        }
        BudgetMeter {
            inner: Some(Arc::new(MeterInner {
                started: Instant::now(),
                deadline: self.deadline,
                max_accesses: self.max_accesses,
                spent: AtomicU64::new(0),
                token,
            })),
        }
    }
}

#[derive(Debug)]
struct MeterInner {
    started: Instant,
    deadline: Option<Duration>,
    max_accesses: Option<u64>,
    spent: AtomicU64,
    token: Option<CancellationToken>,
}

/// The runtime enforcement handle for one query execution: shared spent
/// counter, pinned start instant, optional cancellation flag. All clones
/// charge one counter, so a query retried across engines (router
/// failover) is metered as a whole, not per attempt.
///
/// An unarmed meter ([`BudgetMeter::unlimited`], or started from an
/// unlimited [`QueryBudget`] without a token) makes every call a single
/// `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct BudgetMeter {
    inner: Option<Arc<MeterInner>>,
}

impl BudgetMeter {
    /// A meter that never interrupts; all checks are one branch.
    pub const fn unlimited() -> Self {
        BudgetMeter { inner: None }
    }

    /// Whether this meter can ever interrupt.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Element accesses charged so far.
    pub fn spent(&self) -> u64 {
        match &self.inner {
            // ordering: Relaxed — per-query counter; charges need no
            // mutual order, the total is only read for reporting and
            // the (intentionally approximate) cap check.
            Some(m) => m.spent.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Accesses left before [`Interrupt::BudgetExhausted`], if capped.
    pub fn remaining_accesses(&self) -> Option<u64> {
        let m = self.inner.as_ref()?;
        let limit = m.max_accesses?;
        // ordering: Relaxed — same per-query counter as `spent`.
        Some(limit.saturating_sub(m.spent.load(Ordering::Relaxed)))
    }

    /// The chunk-boundary check: cancellation, then deadline, then the
    /// access cap against what has already been charged. Kernels call this
    /// before starting a part/chunk; it reads the clock, so call it per
    /// chunk, not per cell.
    ///
    /// # Errors
    /// The first [`Interrupt`] that applies.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        let Some(m) = &self.inner else {
            return Ok(());
        };
        if let Some(t) = &m.token {
            if t.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(d) = m.deadline {
            let elapsed = m.started.elapsed();
            if elapsed >= d {
                return Err(Interrupt::DeadlineExceeded {
                    elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                    limit_ns: d.as_nanos().min(u64::MAX as u128) as u64,
                });
            }
        }
        self.check_spent(m)
    }

    /// Charges `cells` element accesses and enforces the access cap. Does
    /// **not** read the clock — kernels charge per accounting unit (a
    /// part, a line, a node batch) and leave deadline checks to
    /// [`BudgetMeter::check`] at chunk boundaries.
    ///
    /// # Errors
    /// [`Interrupt::BudgetExhausted`] once the cap is crossed (the charge
    /// that crosses it is still recorded, so `spent` may exceed the limit
    /// by up to one chunk).
    #[inline]
    pub fn charge(&self, cells: u64) -> Result<(), Interrupt> {
        let Some(m) = &self.inner else {
            return Ok(());
        };
        // ordering: Relaxed — per-query counter; the cap contract allows
        // overshoot by one chunk, so charges need no mutual order.
        m.spent.fetch_add(cells, Ordering::Relaxed);
        self.check_spent(m)
    }

    fn check_spent(&self, m: &MeterInner) -> Result<(), Interrupt> {
        if let Some(limit) = m.max_accesses {
            // ordering: Relaxed — cap check against the approximate
            // counter; see `charge`.
            let spent = m.spent.load(Ordering::Relaxed);
            if spent > limit {
                return Err(Interrupt::BudgetExhausted { spent, limit });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_interrupts() {
        let m = BudgetMeter::unlimited();
        assert!(!m.is_armed());
        m.check().unwrap();
        m.charge(u64::MAX / 2).unwrap();
        assert_eq!(m.spent(), 0, "unarmed meters don't even count");
        assert_eq!(m.remaining_accesses(), None);
        assert!(QueryBudget::default().is_unlimited());
        assert!(!QueryBudget::unlimited().start(None).is_armed());
    }

    #[test]
    fn zero_deadline_kills_at_first_check() {
        let b = QueryBudget::with_deadline(Duration::ZERO);
        let m = b.start(None);
        assert!(matches!(
            m.check(),
            Err(Interrupt::DeadlineExceeded { limit_ns: 0, .. })
        ));
    }

    #[test]
    fn generous_deadline_passes() {
        let m = QueryBudget::with_deadline(Duration::from_secs(3600)).start(None);
        m.check().unwrap();
        m.charge(10).unwrap();
        assert_eq!(m.spent(), 10);
    }

    #[test]
    fn access_cap_trips_on_the_crossing_charge() {
        let m = QueryBudget::with_max_accesses(100).start(None);
        m.charge(60).unwrap();
        assert_eq!(m.remaining_accesses(), Some(40));
        m.charge(40).unwrap(); // exactly at the limit is still fine
        let err = m.charge(1).unwrap_err();
        assert_eq!(
            err,
            Interrupt::BudgetExhausted {
                spent: 101,
                limit: 100
            }
        );
        // check() keeps reporting it.
        assert!(matches!(m.check(), Err(Interrupt::BudgetExhausted { .. })));
    }

    #[test]
    fn charges_are_shared_across_clones() {
        let m = QueryBudget::with_max_accesses(10).start(None);
        let m2 = m.clone();
        m.charge(6).unwrap();
        m2.charge(4).unwrap();
        assert_eq!(m.spent(), 10);
        assert!(m2.charge(1).is_err(), "clones share one counter");
    }

    #[test]
    fn cancellation_observed_at_check() {
        let token = CancellationToken::new();
        let m = QueryBudget::unlimited().start(Some(token.clone()));
        assert!(m.is_armed(), "a token alone arms the meter");
        m.check().unwrap();
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(m.check(), Err(Interrupt::Cancelled));
        // Cancellation wins over other interrupts.
        let m = QueryBudget::with_deadline(Duration::ZERO).start(Some(token));
        assert_eq!(m.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn builder_combines_axes() {
        let b = QueryBudget::unlimited()
            .deadline(Duration::from_millis(5))
            .max_accesses(7);
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_accesses, Some(7));
        assert!(!b.is_unlimited());
        let m = b.start(None);
        assert!(m.charge(8).is_err());
    }

    #[test]
    fn degrade_policy_rides_the_spec_without_touching_enforcement() {
        assert_eq!(QueryBudget::default().on_exhaustion, DegradePolicy::Fail);
        let b = QueryBudget::with_max_accesses(5).degrade();
        assert_eq!(b.on_exhaustion, DegradePolicy::Degrade);
        assert_eq!(b.max_accesses, Some(5));
        // The meter enforces identically under either policy: degradation
        // is the caller's business, not the kernel's.
        let m = b.start(None);
        assert!(m.charge(6).is_err());
        let b = QueryBudget::unlimited().on_exhaustion(DegradePolicy::Degrade);
        assert!(b.is_unlimited(), "policy alone never arms the meter");
        assert!(!b.start(None).is_armed());
    }

    #[test]
    fn interrupt_displays() {
        let d = Interrupt::DeadlineExceeded {
            elapsed_ns: 5,
            limit_ns: 3,
        };
        assert!(d.to_string().contains("deadline"));
        let e = Interrupt::BudgetExhausted { spent: 9, limit: 8 };
        assert!(e.to_string().contains("exhausted"));
        assert!(Interrupt::Cancelled.to_string().contains("cancelled"));
    }
}
