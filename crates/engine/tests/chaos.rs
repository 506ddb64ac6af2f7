//! Chaos equivalence: the router's fault-tolerance answer guarantee,
//! checked end to end. Under **any single injected engine fault** — a
//! backend error or a panic, at any position in the query stream — the
//! router's answers must be **bit-identical** to the fault-free run.
//!
//! Every test is named `chaos_…` so `cargo test -- chaos` runs exactly
//! this drill (the CI chaos leg).

use olap_array::{DenseArray, Region, Shape};
use olap_engine::{
    AdaptiveRouter, ApproxEngine, CubeIndex, EngineError, EngineOp, EngineStatus, FaultPlan,
    FaultyEngine, IndexConfig, NaiveEngine, QueryBudget, RangeEngine, Routed, SumTreeEngine,
};
use olap_query::RangeQuery;
use std::sync::Arc;
use std::time::Duration;

fn cube() -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(&[32, 32]).unwrap(), |i| {
        (i[0] * 31 + i[1] * 17) as i64 % 97 - 48
    })
}

/// A small deterministic mixed workload: large boxes, thin slabs, points.
fn workload() -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for k in 0..6 {
        let lo = k * 4;
        qs.push(RangeQuery::from_region(
            &Region::from_bounds(&[(lo, lo + 7), (0, 31 - lo)]).unwrap(),
        ));
        qs.push(RangeQuery::from_region(
            &Region::from_bounds(&[(0, 31), (lo, lo + 1)]).unwrap(),
        ));
        qs.push(RangeQuery::from_region(
            &Region::from_bounds(&[(lo, lo), (3 * k, 3 * k)]).unwrap(),
        ));
    }
    qs
}

/// A router whose first-ranked engine is a fault injector (it lies it is
/// cheapest, so every query tries it first) over healthy engines.
fn chaotic_router(plan: FaultPlan) -> AdaptiveRouter<i64> {
    let a = cube();
    AdaptiveRouter::new()
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(NaiveEngine::new(a.clone())),
            plan.lie_cheapest(),
        )))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), IndexConfig::default()).unwrap(),
        ))
        .with_engine(Box::new(SumTreeEngine::build(a, 4).unwrap()))
}

fn answers(router: &mut AdaptiveRouter<i64>) -> Vec<i64> {
    workload()
        .iter()
        .map(|q| *router.range_sum(q).unwrap().value().unwrap())
        .collect()
}

#[test]
fn chaos_single_error_fault_is_invisible_in_answers() {
    let baseline = answers(&mut chaotic_router(FaultPlan::benign()));
    // Place one backend-error fault at every position of the stream:
    // the answers must be bit-identical to the fault-free run.
    for k in 0..workload().len() as u64 {
        let mut r = chaotic_router(FaultPlan::benign().fail_call(k));
        assert_eq!(
            answers(&mut r),
            baseline,
            "error fault at call {k} changed an answer"
        );
        assert_eq!(r.fault_stats().failovers, 1);
    }
}

#[test]
fn chaos_single_panic_fault_is_contained_and_invisible() {
    let baseline = answers(&mut chaotic_router(FaultPlan::benign()));
    for k in [0u64, 3, 9] {
        let mut r = chaotic_router(FaultPlan::benign().panic_call(k));
        assert_eq!(
            answers(&mut r),
            baseline,
            "panic fault at call {k} changed an answer"
        );
        assert_eq!(r.fault_stats().panics_contained, 1);
        assert_eq!(
            r.health()[0].status,
            EngineStatus::Poisoned,
            "a panicking engine must be poisoned"
        );
    }
}

#[test]
fn chaos_zero_deadline_kills_before_kernel_work() {
    // Engine level: a read under a zero-allowance meter is refused with
    // the typed interrupt before the kernel is touched, for every op.
    let index = CubeIndex::build(cube(), IndexConfig::default()).unwrap();
    let meter = QueryBudget::with_deadline(Duration::ZERO).start(None);
    for q in workload() {
        let region = q.to_region(index.shape()).unwrap();
        for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
            let err = index.read(&region, op, &meter).unwrap_err();
            assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
        }
    }
    // Router level: the same budget on the router kills the routed query
    // and the injector underneath is never even dispatched.
    let r =
        chaotic_router(FaultPlan::benign()).with_budget(QueryBudget::with_deadline(Duration::ZERO));
    let err = r.range_sum(&workload()[0]).unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
    assert_eq!(r.fault_stats().budget_kills, 1);
    assert_eq!(r.fault_stats().failovers, 0, "interrupts never fail over");
    // Worst case: every candidate already poisoned AND a dead deadline —
    // the expired budget still wins over `NoCandidate`, because the meter
    // is checked before any routing work.
    let dead = AdaptiveRouter::new()
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(NaiveEngine::new(cube())),
            FaultPlan::benign().panic_call(0).lie_cheapest(),
        )))
        .with_budget(QueryBudget::unlimited());
    let _ = dead.range_sum(&workload()[0]); // poison the only engine
    assert_eq!(dead.health()[0].status, EngineStatus::Poisoned);
    dead.set_budget(QueryBudget::with_deadline(Duration::ZERO));
    let err = dead.range_sum(&workload()[0]).unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
}

#[test]
fn chaos_heavy_fault_mix_never_panics_or_wedges() {
    // A high-rate mixed fault plan over the whole workload, repeated: the
    // router must keep answering correctly from the healthy engines. Any
    // escaped panic fails this test by itself.
    let baseline = answers(&mut chaotic_router(FaultPlan::benign()));
    for seed in 0..8 {
        let plan = FaultPlan::seeded(seed).errors(400).panics(50);
        let mut r = chaotic_router(plan);
        assert_eq!(
            answers(&mut r),
            baseline,
            "seed {seed}: a fault leaked into an answer"
        );
    }
}

/// The sequential oracle for one query of the shared workload.
fn oracle(a: &DenseArray<i64>, q: &RangeQuery) -> i64 {
    let region = q.to_region(a.shape()).unwrap();
    a.fold_region(&region, 0i64, |s, &x| s + x)
}

/// A router where **every** exact engine is a fault injector, with the
/// anchor-only tier registered for degradation. With every candidate
/// able to fault on the same call, exhaustion is reachable — and under
/// `DegradePolicy::Degrade` it must turn into a bounded estimate, never
/// an error.
fn fully_chaotic_router(plans: [FaultPlan; 3]) -> AdaptiveRouter<i64> {
    let a = cube();
    let [p0, p1, p2] = plans;
    AdaptiveRouter::new()
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(NaiveEngine::new(a.clone())),
            p0,
        )))
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(CubeIndex::build(a.clone(), IndexConfig::default()).unwrap()),
            p1,
        )))
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()),
            p2,
        )))
        .with_degrade_tier(Arc::new(ApproxEngine::build(a, 8).unwrap()))
}

/// The degradation contract, checked for one routed answer: an exact
/// answer must be bit-identical to the sequential oracle, a degraded one
/// must carry an interval containing it. An error fails the test.
fn assert_exact_or_sound(a: &DenseArray<i64>, q: &RangeQuery, routed: &Routed<i64>) {
    let truth = oracle(a, q);
    match routed {
        Routed::Exact(out) => assert_eq!(out.value(), Some(&truth), "wrong exact answer"),
        Routed::Degraded { estimate, .. } => assert!(
            estimate.contains(truth),
            "degraded interval excludes the oracle: {truth} outside {estimate}"
        ),
    }
}

#[test]
fn chaos_degrade_under_fault_storm_never_errs_and_never_lies() {
    let a = cube();
    let mut degraded = 0usize;
    for seed in 0..6u64 {
        let plans = [
            FaultPlan::seeded(seed).errors(700),
            FaultPlan::seeded(seed.wrapping_add(101)).errors(700),
            FaultPlan::seeded(seed.wrapping_add(202)).errors(700),
        ];
        let r = fully_chaotic_router(plans).with_budget(QueryBudget::unlimited().degrade());
        for q in workload() {
            let routed = r
                .answer(&q, EngineOp::Sum)
                .expect("Degrade policy must never surface an error for a fault storm");
            if routed.is_degraded() {
                degraded += 1;
            }
            assert_exact_or_sound(&a, &q, &routed);
        }
    }
    assert!(
        degraded > 0,
        "a 70% per-engine fault rate never exhausted all candidates"
    );
}

#[test]
fn chaos_degrade_survives_total_poisoning() {
    // Every engine panics on its first dispatch; once all are poisoned,
    // every exact route is inadmissible (`NoCandidate`) — and every
    // subsequent query must still get a sound estimate.
    let a = cube();
    let plans = [
        FaultPlan::benign().panic_call(0).lie_cheapest(),
        FaultPlan::benign().panic_call(0),
        FaultPlan::benign().panic_call(0),
    ];
    let r = fully_chaotic_router(plans).with_budget(QueryBudget::unlimited().degrade());
    let mut late_degraded = 0usize;
    for (k, q) in workload().iter().enumerate() {
        let routed = r.answer(q, EngineOp::Sum).expect("never an error");
        assert_exact_or_sound(&a, q, &routed);
        if k >= 3 {
            // By now at most three dispatches can have happened
            // without exhausting the set; once all three engines are
            // poisoned every answer is degraded.
            if routed.is_degraded() {
                late_degraded += 1;
            }
        }
    }
    assert!(late_degraded > 0, "poisoning never forced degradation");
    assert!(r
        .health()
        .iter()
        .all(|h| h.status == EngineStatus::Poisoned));
}

#[test]
fn chaos_degrade_with_delays_and_deadline_stays_sound() {
    // Every engine injects a 5ms stall; the router deadline is 1ms. The
    // timing of *when* the interrupt fires is scheduler-dependent, but
    // the contract is timing-independent: every answer is either exact
    // and bit-identical or a sound estimate — never an error.
    let a = cube();
    let plans = [
        FaultPlan::seeded(1).delays(1000, Duration::from_millis(5)),
        FaultPlan::seeded(2).delays(1000, Duration::from_millis(5)),
        FaultPlan::seeded(3).delays(1000, Duration::from_millis(5)),
    ];
    let r = fully_chaotic_router(plans)
        .with_budget(QueryBudget::with_deadline(Duration::from_millis(1)).degrade());
    for q in workload() {
        let routed = r.answer(&q, EngineOp::Sum).expect("never an error");
        assert_exact_or_sound(&a, &q, &routed);
    }
}

#[test]
fn chaos_zero_deadline_with_degrade_answers_everything_approximately() {
    // The zero-deadline drill: exact answering is impossible (the meter
    // kills before any routing work), so under `Degrade` *every* query —
    // sums and extrema — returns an estimate with finite bounds.
    let a = cube();
    let r = fully_chaotic_router([
        FaultPlan::benign(),
        FaultPlan::benign(),
        FaultPlan::benign(),
    ])
    .with_budget(QueryBudget::with_deadline(Duration::ZERO).degrade());
    for q in workload() {
        for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
            let routed = r.answer(&q, op).expect("never an error");
            let Routed::Degraded {
                estimate, reason, ..
            } = routed
            else {
                panic!("a zero deadline cannot be answered exactly");
            };
            assert_eq!(reason, olap_engine::DegradeReason::DeadlineExceeded);
            assert!(estimate.lower <= estimate.upper);
            if op == EngineOp::Sum {
                assert!(estimate.contains(oracle(&a, &q)));
            }
        }
    }
}

#[test]
fn chaos_updates_stay_consistent_across_failover() {
    // Updates reach every non-poisoned engine, so whichever engine a
    // later query fails over to sees the same cube.
    let r = chaotic_router(FaultPlan::benign().panic_call(0));
    let probe = RangeQuery::from_region(&Region::from_bounds(&[(2, 2), (3, 3)]).unwrap());
    // Poison the injector with its one panic.
    let _ = r.range_sum(&probe).unwrap();
    r.apply_updates(&[(vec![2, 3], 4242)]).unwrap();
    assert_eq!(r.range_sum(&probe).unwrap().value(), Some(&4242));
    // Every still-standing engine agrees.
    for i in 1..r.len() {
        assert_eq!(
            r.engine(i).range_sum(&probe).unwrap().value(),
            Some(&4242),
            "engine {} missed the update",
            r.engine(i).label()
        );
    }
}
