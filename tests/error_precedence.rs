//! Which error a bad query gets, entry point by entry point: a query of
//! the wrong rank and a query outside the domain are refused with the
//! same variant however they arrive — at an engine, the router, the
//! semantic cache (enabled or not) or the server. Each entry resolves
//! the query once; resolving it there must not reorder the errors.

use olap_cube::aggregate::{AbelianGroup, Monoid, SumOp};
use olap_cube::array::{
    ArrayError, BudgetMeter, CancellationToken, DenseArray, Interrupt, QueryBudget, Region, Shape,
};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, EngineError, EngineOp, ExtendedCube, FaultPlan, FaultyEngine,
    IndexConfig, NaiveEngine, PlannedIndex, PrefixChoice, RangeEngine, SemanticCache,
    SparseMaxEngine, SparseSumEngine, SumTreeEngine,
};
use olap_cube::planner::PrefixSumChoice;
use olap_cube::prefix_sum::{BlockedPrefixSum, BoundaryPolicy};
use olap_cube::query::{CuboidId, DimSelection, QueryCtx, RangeQuery};
use olap_cube::server::{CubeServer, ServeConfig, ServerError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn cube() -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(&[8, 6]).unwrap(), |i| {
        (i[0] * 7 + i[1] * 3) as i64 % 11
    })
}

/// Rank 3 against a 2-d cube.
fn wrong_rank() -> RangeQuery {
    RangeQuery::all(3).unwrap()
}

/// Rows 2..=8 of an 8-row cube.
fn out_of_domain() -> RangeQuery {
    RangeQuery::new(vec![DimSelection::span(2, 8).unwrap(), DimSelection::All]).unwrap()
}

fn valid() -> RangeQuery {
    RangeQuery::new(vec![DimSelection::span(2, 5).unwrap(), DimSelection::All]).unwrap()
}

/// The variant, with the validation error inside it named.
fn kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Array(ArrayError::DimMismatch { .. }) => "dim-mismatch",
        EngineError::Array(ArrayError::OutOfBounds { .. }) => "out-of-bounds",
        EngineError::Unsupported { .. } => "unsupported",
        EngineError::NoCandidate { .. } => "no-candidate",
        EngineError::DeadlineExceeded { .. } => "deadline-exceeded",
        other => panic!("unexpected error {other:?}"),
    }
}

/// The variants a wrong-rank and an out-of-domain query get.
type Expected = [&'static str; 2];

fn router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new()
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), IndexConfig::default()).unwrap(),
        ))
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
}

/// How far a read of each op may overshoot an access cap: the accesses
/// between two of its kernel's checkpoints.
type Overshoot = fn(EngineOp) -> u64;

/// The naive scans, the extended cube's walk and a min over an index
/// with no min tree charge every 4096 cells.
const SCAN: u64 = 4096;
/// The §6 walk charges per expanded node: at most one node's `b^d`
/// children (`b = 4` for the index's trees).
const NODE: u64 = 4 * 4;
/// The corner gathers, the sum tree and the sparse trees charge per
/// `2^d`-corner read or per node visited.
const STEP: u64 = 4;
/// The §4 blocked kernel charges per part: a boundary part is under `b`
/// cells thick, so it (or its superblock complement) holds at most `b`
/// lines of a 256-cell axis (`b ≤ 4`).
const PART: u64 = 4 * 256;

/// One engine of every kind over `a`, each with the variants a
/// wrong-rank and an out-of-domain query get and its [`Overshoot`].
fn engines(a: &DenseArray<i64>) -> Vec<(Box<dyn RangeEngine<i64>>, Expected, Overshoot)> {
    // Every region has a structure, so no read falls back to a scan.
    let planned = PlannedIndex::build(
        a.clone(),
        &[
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0]),
                block: 2,
            },
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0, 1]),
                block: 2,
            },
        ],
    )
    .unwrap();
    let index = |config| Box::new(CubeIndex::build(a.clone(), config).unwrap());
    let validated: Expected = ["dim-mismatch", "out-of-bounds"];
    vec![
        (index(IndexConfig::default()), validated, |op| match op {
            EngineOp::Sum => STEP,
            EngineOp::Max => NODE,
            EngineOp::Min => SCAN,
        }),
        (
            index(IndexConfig {
                prefix: PrefixChoice::Blocked(4),
                ..IndexConfig::default()
            }),
            validated,
            |op| match op {
                EngineOp::Sum => PART,
                EngineOp::Max => NODE,
                EngineOp::Min => SCAN,
            },
        ),
        (
            index(IndexConfig {
                min_tree_fanout: Some(4),
                ..IndexConfig::default()
            }),
            validated,
            |op| if op == EngineOp::Sum { STEP } else { NODE },
        ),
        (Box::new(NaiveEngine::new(a.clone())), validated, |_| SCAN),
        (
            Box::new(SumTreeEngine::build(a.clone(), 2).unwrap()),
            validated,
            |_| STEP,
        ),
        (
            Box::new(SparseSumEngine::from_dense(a).unwrap()),
            validated,
            |_| STEP,
        ),
        (
            Box::new(ExtendedCube::build(a, SumOp::<i64>::new()).unwrap()),
            validated,
            |_| SCAN,
        ),
        (Box::new(planned), validated, |_| PART),
        (
            Box::new(FaultyEngine::new(
                Box::new(NaiveEngine::new(a.clone())),
                FaultPlan::benign(),
            )),
            validated,
            |_| SCAN,
        ),
        // It prices no sums, so it refuses them whatever the query.
        (
            Box::new(SparseMaxEngine::from_dense(a)),
            ["unsupported", "unsupported"],
            |op| if op == EngineOp::Min { SCAN } else { STEP },
        ),
    ]
}

#[test]
fn every_engine_refuses_a_bad_query_with_the_same_variant() {
    let a = cube();
    for (engine, expected, _) in &engines(&a) {
        let got = [wrong_rank(), out_of_domain()].map(|q| kind(&engine.range_sum(&q).unwrap_err()));
        assert_eq!(got, *expected, "{}", engine.label());
    }
    // An op the engine has no price for is refused whatever the query.
    let tree = SumTreeEngine::build(a, 2).unwrap();
    assert_eq!(
        kind(&tree.range_max(&wrong_rank()).unwrap_err()),
        "unsupported"
    );
}

#[test]
fn routed_cached_and_served_entries_refuse_with_the_engines_variant() {
    let a = cube();
    let server = CubeServer::build(&a, ServeConfig::default()).unwrap();
    for (query, expected) in [
        (wrong_rank(), "dim-mismatch"),
        (out_of_domain(), "out-of-bounds"),
    ] {
        assert_eq!(kind(&router(&a).range_sum(&query).unwrap_err()), expected);
        for capacity in [0, 64] {
            let cache = SemanticCache::new(router(&a), capacity);
            let err = cache.range_sum(&query).unwrap_err();
            assert_eq!(kind(&err), expected, "capacity {capacity}");
        }
        match server.range_sum(&query).unwrap_err() {
            ServerError::Validation(e) => assert_eq!(kind(&EngineError::Array(e)), expected),
            other => panic!("server: {other:?}"),
        }
    }
}

/// The chaos drill's deadline line depends on this order: an expired
/// budget is reported before the query is looked at and before the
/// router finds it has no engine for the op.
#[test]
fn an_expired_router_budget_wins_over_validation_and_no_candidate() {
    let a = cube();
    let dead = QueryBudget::with_deadline(Duration::ZERO);
    let r = router(&a).with_budget(dead);
    for query in [valid(), wrong_rank(), out_of_domain()] {
        assert_eq!(kind(&r.range_sum(&query).unwrap_err()), "deadline-exceeded");
    }
    let sums_only =
        AdaptiveRouter::new().with_engine(Box::new(SumTreeEngine::build(a, 2).unwrap()));
    let empty = AdaptiveRouter::<i64>::new();
    for query in [valid(), wrong_rank()] {
        assert_eq!(
            kind(&sums_only.range_max(&query).unwrap_err()),
            "no-candidate"
        );
        assert_eq!(kind(&empty.range_sum(&query).unwrap_err()), "no-candidate");
    }
    sums_only.set_budget(dead);
    empty.set_budget(dead);
    for query in [valid(), wrong_rank()] {
        let err = sums_only.range_max(&query).unwrap_err();
        assert_eq!(kind(&err), "deadline-exceeded");
        assert_eq!(
            kind(&empty.range_sum(&query).unwrap_err()),
            "deadline-exceeded"
        );
    }
}

/// A read under an access cap stops within one kernel checkpoint of the
/// cap, and an `Ok` read charges its meter exactly the accesses its
/// outcome reports and answers what an unmetered read answers: every
/// kernel charges the meter from the counter it fills, as it walks, not
/// once it has finished. The caps sweep from none at all to the read's
/// whole cost, on every engine, op and region.
#[test]
fn a_capped_read_stops_within_one_checkpoint_and_an_ok_read_charges_what_it_counts() {
    let a = DenseArray::from_fn(Shape::new(&[256, 256]).unwrap(), |i| {
        (i[0] * 7 + i[1] * 3) as i64 % 11
    });
    let regions = [
        a.shape().full_region(),
        Region::from_bounds(&[(3, 200), (17, 90)]).unwrap(),
        Region::from_bounds(&[(100, 100), (0, 255)]).unwrap(),
        Region::from_bounds(&[(5, 5), (9, 9)]).unwrap(),
    ];
    for (engine, _, overshoot) in &engines(&a) {
        let label = engine.label();
        for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
            if engine.cost(&regions[0], op).is_none() {
                continue;
            }
            for region in &regions {
                let unmetered = engine.read(region, op, &BudgetMeter::unlimited()).unwrap();
                let cost = unmetered.cost();
                let armed = QueryBudget::with_deadline(Duration::from_secs(3600)).start(None);
                let out = engine.read(region, op, &armed).unwrap();
                let at = format!("{label} {op} {region}");
                assert_eq!((armed.spent(), out.cost()), (cost, cost), "{at}");
                assert_eq!(out.answer, unmetered.answer, "{at}");
                let caps = [0, 1, 2, 10, 100, cost.saturating_sub(1), cost];
                for cap in caps {
                    let capped = QueryBudget::with_max_accesses(cap).start(None);
                    let at = format!("{label} {op} {region} under a cap of {cap}");
                    match engine.read(region, op, &capped) {
                        Ok(out) => {
                            assert!(cost <= cap, "{at}: answered at {cost} accesses");
                            assert_eq!((capped.spent(), out.cost()), (cost, cost), "{at}");
                            assert_eq!(out.answer, unmetered.answer, "{at}");
                        }
                        Err(err) => {
                            assert!(cost > cap, "{at}: {err}");
                            assert!(
                                matches!(err, EngineError::BudgetExhausted { .. }),
                                "{at}: {err}"
                            );
                            let spent = capped.spent();
                            assert!(spent <= cap + overshoot(op), "{at}: charged {spent}");
                        }
                    }
                }
            }
        }
    }
}

/// SUM over `i64` that cancels `token` on its first combine once `armed`
/// is set: a cancellation that arrives while a part is being evaluated.
#[derive(Clone)]
struct CancelMidWalk {
    armed: Arc<AtomicBool>,
    token: CancellationToken,
}

impl Monoid for CancelMidWalk {
    type Value = i64;
    fn identity(&self) -> i64 {
        0
    }
    fn combine(&self, a: &i64, b: &i64) -> i64 {
        if self.armed.load(Ordering::Relaxed) {
            self.token.cancel();
        }
        a.wrapping_add(*b)
    }
}

impl AbelianGroup for CancelMidWalk {
    fn uncombine(&self, a: &i64, b: &i64) -> i64 {
        a.wrapping_sub(*b)
    }
}

/// Deadlines and cancellation are cooperative: the §4 blocked kernel
/// looks at its meter before every part, so a read cancelled while one
/// part is evaluated stops before the next, and reads nothing past it.
#[test]
fn a_blocked_read_cancelled_mid_walk_stops_before_the_next_part() {
    let a = DenseArray::from_fn(Shape::new(&[64, 64]).unwrap(), |i| {
        (i[0] * 7 + i[1] * 3) as i64 % 11
    });
    let op = CancelMidWalk {
        armed: Arc::new(AtomicBool::new(false)),
        token: CancellationToken::new(),
    };
    let blocked = BlockedPrefixSum::with_op(&a, op.clone(), 4).unwrap();
    let region = Region::from_bounds(&[(3, 50), (17, 40)]).unwrap();
    let (sum, whole) =
        QueryCtx::measure(|ctx| blocked.read(&a, &region, BoundaryPolicy::Auto, ctx)).unwrap();
    assert_eq!(sum, a.fold_region(&region, 0, |s, &x| s + x));
    op.armed.store(true, Ordering::Relaxed);
    let meter = QueryBudget::unlimited().start(Some(op.token.clone()));
    let mut ctx = QueryCtx::new(&meter);
    let err = blocked
        .read(&a, &region, BoundaryPolicy::Auto, &mut ctx)
        .unwrap_err();
    assert_eq!(err, ArrayError::Interrupted(Interrupt::Cancelled));
    assert!(
        ctx.stats.total_accesses() < whole.total_accesses(),
        "the walk went on after the cancel: {} of {} accesses",
        ctx.stats.total_accesses(),
        whole.total_accesses()
    );
}
