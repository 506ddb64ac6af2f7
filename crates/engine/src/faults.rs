//! Seeded, deterministic fault injection for chaos testing.
//!
//! [`FaultyEngine`] wraps any [`RangeEngine`] and misbehaves on a schedule
//! derived *only* from a seed and a per-call counter — never from wall
//! clock or global state — so a chaos run is exactly reproducible: the
//! same seed over the same query sequence injects the same faults at the
//! same calls. The injected misbehaviours mirror the failure modes the
//! router's fault-tolerance layer must contain:
//!
//! - **typed errors** ([`EngineError::Backend`]) → router failover,
//! - **panics** → `catch_unwind` containment and engine poisoning,
//! - **latency** → deadline enforcement through the [`BudgetMeter`],
//! - **cost-model lies** (`cost() == 0`) → the liar is always ranked
//!   first, so every one of its faults exercises a failover.
//!
//! Updates are deliberately **never** injected: replicas must stay
//! mutually consistent or equivalence checks would compare different
//! cubes rather than different failure handling.

use crate::range_engine::{BatchImage, Derived};
use crate::{EngineError, EngineOp, RangeEngine};
use olap_array::{mix, BudgetMeter, PagedArray, Region, Shape};
use olap_query::QueryOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a [`FaultyEngine`] injects, and how often.
///
/// Rates are per-mille (out of 1000) per query call, decided by hashing
/// `seed ^ call_number` with splitmix64; bands are checked in the order
/// panic → error → delay, so the per-mille fields partition one roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic per-call fault schedule.
    pub seed: u64,
    /// Per-mille chance a query call panics.
    pub panic_per_mille: u16,
    /// Per-mille chance a query call returns [`EngineError::Backend`].
    pub error_per_mille: u16,
    /// Per-mille chance a query call sleeps for [`FaultPlan::delay`]
    /// before answering (exercises deadline enforcement).
    pub delay_per_mille: u16,
    /// Injected latency for delay faults.
    pub delay: Duration,
    /// Force exactly this query call (0-based) to return a backend error,
    /// independent of the random bands. The single-fault equivalence
    /// tests use this to place one fault precisely.
    pub fail_call: Option<u64>,
    /// Force exactly this query call (0-based) to panic, independent of
    /// the random bands.
    pub panic_call: Option<u64>,
    /// Report `cost() == 0.0` so the router always ranks this engine
    /// first and every injected fault exercises a failover.
    pub lie_cheapest: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (pass-through wrapper).
    pub fn benign() -> Self {
        FaultPlan::default()
    }

    /// Starts a plan from a seed with no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-mille backend-error rate.
    #[must_use]
    pub fn errors(mut self, per_mille: u16) -> Self {
        self.error_per_mille = per_mille;
        self
    }

    /// Sets the per-mille panic rate.
    #[must_use]
    pub fn panics(mut self, per_mille: u16) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// Sets the per-mille delay rate and the injected latency.
    #[must_use]
    pub fn delays(mut self, per_mille: u16, delay: Duration) -> Self {
        self.delay_per_mille = per_mille;
        self.delay = delay;
        self
    }

    /// Forces exactly query call `n` (0-based) to fail.
    #[must_use]
    pub fn fail_call(mut self, n: u64) -> Self {
        self.fail_call = Some(n);
        self
    }

    /// Forces exactly query call `n` (0-based) to panic.
    #[must_use]
    pub fn panic_call(mut self, n: u64) -> Self {
        self.panic_call = Some(n);
        self
    }

    /// Makes the wrapper lie that it is the cheapest candidate.
    #[must_use]
    pub fn lie_cheapest(mut self) -> Self {
        self.lie_cheapest = true;
        self
    }
}

/// A [`RangeEngine`] wrapper that injects deterministic faults into query
/// calls according to a [`FaultPlan`]. See the module docs for the threat
/// model it simulates.
pub struct FaultyEngine<V> {
    inner: Box<dyn RangeEngine<V>>,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl<V: 'static> FaultyEngine<V> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Box<dyn RangeEngine<V>>, plan: FaultPlan) -> Self {
        FaultyEngine {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// The fault plan in force.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// How many query calls the wrapper has intercepted so far.
    pub fn calls(&self) -> u64 {
        // ordering: Relaxed — reporting read of the call counter; the
        // schedule decisions happen in `inject`'s fetch_add.
        self.calls.load(Ordering::Relaxed)
    }

    /// Wraps the inner engine's successor in the same plan, carrying the
    /// call count forward so the fault schedule continues across installs.
    fn rewrap(&self, derived: Derived<V>) -> Derived<V> {
        Derived::new(
            Box::new(FaultyEngine {
                inner: derived.engine,
                plan: self.plan,
                // ordering: Relaxed — a point-in-time carry of the call
                // counter into the successor snapshot; the schedule only
                // needs per-call uniqueness, not cross-thread ordering.
                calls: AtomicU64::new(self.calls.load(Ordering::Relaxed)),
            }),
            derived.stats,
        )
    }

    /// Decides the fate of one read: counts it, then panics, errors,
    /// sleeps, or passes through per the plan's deterministic schedule.
    #[expect(
        clippy::panic,
        reason = "fault injection: the chaos drills need a real panic to prove containment and poisoning"
    )]
    fn inject(&self, op: EngineOp) -> Result<(), EngineError> {
        // ordering: Relaxed — the RMW already makes each call see a
        // unique n (the only property the deterministic schedule needs);
        // callers never publish data through this counter.
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.plan.panic_call == Some(n) {
            panic!("injected panic on call {n} ({op})");
        }
        if self.plan.fail_call == Some(n) {
            return Err(EngineError::backend(
                self.label(),
                format!("injected fault on call {n} ({op})"),
            ));
        }
        let roll = mix(self.plan.seed ^ n) % 1000;
        let panic_band = u64::from(self.plan.panic_per_mille);
        let error_band = panic_band + u64::from(self.plan.error_per_mille);
        let delay_band = error_band + u64::from(self.plan.delay_per_mille);
        if roll < panic_band {
            panic!("injected panic on call {n} ({op})");
        }
        if roll < error_band {
            return Err(EngineError::backend(
                self.label(),
                format!("injected error on call {n} ({op})"),
            ));
        }
        if roll < delay_band && !self.plan.delay.is_zero() {
            std::thread::sleep(self.plan.delay);
        }
        Ok(())
    }
}

impl<V: 'static> RangeEngine<V> for FaultyEngine<V> {
    fn label(&self) -> String {
        format!("faulty({})", self.inner.label())
    }

    fn shape(&self) -> &Shape {
        self.inner.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        let cost = self.inner.cost(region, op)?;
        Some(if self.plan.lie_cheapest { 0.0 } else { cost })
    }

    /// Every sum, max and min reaches the engine as this one read, so
    /// each counts exactly one call of the fault schedule.
    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<V>, EngineError> {
        self.inject(op)?;
        self.inner.read(region, op, meter)
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<Derived<V>, EngineError> {
        // Never injected: replicas must stay consistent (module docs).
        Ok(self.rewrap(self.inner.apply_updates(updates)?))
    }

    fn base(&self) -> Option<&Arc<PagedArray<V>>> {
        self.inner.base()
    }

    fn derive_onto(&self, image: &BatchImage<'_, V>) -> Result<Derived<V>, EngineError> {
        Ok(self.rewrap(self.inner.derive_onto(image)?))
    }
}

impl<V> std::fmt::Debug for FaultyEngine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyEngine")
            .field("inner", &self.inner.label())
            .field("plan", &self.plan)
            // ordering: Relaxed — debug-format read of the call counter.
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveEngine;
    use olap_array::DenseArray;
    use olap_query::RangeQuery;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[4, 4]).unwrap(), |i| (i[0] * 4 + i[1]) as i64)
    }

    fn query() -> RangeQuery {
        RangeQuery::from_region(&Region::from_bounds(&[(0, 3), (0, 3)]).unwrap())
    }

    fn fate(plan: FaultPlan, calls: u64) -> Vec<bool> {
        let e = FaultyEngine::new(Box::new(NaiveEngine::new(cube())), plan);
        (0..calls).map(|_| e.range_sum(&query()).is_err()).collect()
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let plan = FaultPlan::seeded(42).errors(300);
        let a = fate(plan, 64);
        let b = fate(plan, 64);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        assert!(a.iter().any(|&f| f), "a 30% rate should fire in 64 calls");
        assert!(a.iter().any(|&f| !f), "and should let some calls through");
        let c = fate(FaultPlan::seeded(43).errors(300), 64);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn fail_call_fires_exactly_once_at_the_named_call() {
        let plan = FaultPlan::seeded(7).fail_call(3);
        let fates = fate(plan, 8);
        let expected: Vec<bool> = (0..8).map(|n| n == 3).collect();
        assert_eq!(fates, expected);
    }

    #[test]
    fn updates_and_estimates_are_never_injected() {
        let e = FaultyEngine::new(
            Box::new(NaiveEngine::new(cube())),
            // Every query call fails, but updates must pass through.
            FaultPlan::seeded(1).errors(1000).lie_cheapest(),
        );
        assert_eq!(e.estimate(&query()), 0.0);
        let derived = e.apply_updates(&[(vec![0, 0], 99)]).unwrap();
        assert_eq!(e.calls(), 0, "updates and estimates are not query calls");
        assert!(e.range_sum(&query()).is_err());
        assert_eq!(e.calls(), 1);
        // The derived snapshot carries the plan forward: its queries are
        // injected on the same schedule, continuing from the call count
        // at derivation time (0 here).
        assert!(derived.engine.range_sum(&query()).is_err());
    }

    #[test]
    fn every_read_counts_one_call() {
        let e = FaultyEngine::new(Box::new(NaiveEngine::new(cube())), FaultPlan::benign());
        e.range_sum(&query()).unwrap();
        e.range_max(&query()).unwrap();
        e.range_min(&query()).unwrap();
        assert_eq!(e.calls(), 3);
        let region = query().to_region(e.shape()).unwrap();
        e.read(&region, EngineOp::Sum, &BudgetMeter::unlimited())
            .unwrap();
        assert_eq!(e.calls(), 4);
    }

    #[test]
    fn fail_call_hits_the_nth_routed_read_of_a_mixed_stream() {
        // The liar is ranked first, so every routed read reaches it once:
        // the read `fail_call(n)` names is the one that fails over to the
        // clean engine, whatever mix of ops came before it.
        let stream = [
            EngineOp::Sum,
            EngineOp::Max,
            EngineOp::Min,
            EngineOp::Sum,
            EngineOp::Min,
            EngineOp::Max,
        ];
        for n in 0..stream.len() {
            let plan = FaultPlan::seeded(9).fail_call(n as u64).lie_cheapest();
            let r = crate::AdaptiveRouter::new()
                .with_engine(Box::new(FaultyEngine::new(
                    Box::new(NaiveEngine::new(cube())),
                    plan,
                )))
                .with_engine(Box::new(NaiveEngine::new(cube())));
            for (k, &op) in stream.iter().enumerate() {
                let before = r.fault_stats().failovers;
                r.answer(&query(), op).unwrap();
                let failed_over = r.fault_stats().failovers > before;
                assert_eq!(failed_over, k == n, "read {k} ({op}) under fail_call({n})");
            }
        }
    }
}
