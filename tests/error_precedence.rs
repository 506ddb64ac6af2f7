//! Which error a bad query gets, entry point by entry point: a query of
//! the wrong rank and a query outside the domain are refused with the
//! same variant however they arrive — at an engine, the router, the
//! semantic cache (enabled or not) or the server. Each entry resolves
//! the query once; resolving it there must not reorder the errors.

use olap_cube::aggregate::SumOp;
use olap_cube::array::{ArrayError, BudgetMeter, DenseArray, QueryBudget, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, EngineError, EngineOp, ExtendedCube, FaultPlan, FaultyEngine,
    IndexConfig, NaiveEngine, PlannedIndex, RangeEngine, SemanticCache, SparseMaxEngine,
    SparseSumEngine, SumTreeEngine,
};
use olap_cube::planner::PrefixSumChoice;
use olap_cube::query::{CuboidId, DimSelection, RangeQuery};
use olap_cube::server::{CubeServer, ServeConfig, ServerError};
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

/// One engine of every kind over `a`, each with the variants a
/// wrong-rank and an out-of-domain query get.
fn engines(a: &DenseArray<i64>) -> Vec<(Box<dyn RangeEngine<i64>>, Expected)> {
    let planned = PlannedIndex::build(
        a.clone(),
        &[PrefixSumChoice {
            cuboid: CuboidId::from_dims(&[0]),
            block: 2,
        }],
    )
    .unwrap();
    let validated: Expected = ["dim-mismatch", "out-of-bounds"];
    vec![
        (
            Box::new(CubeIndex::build(a.clone(), IndexConfig::default()).unwrap()),
            validated,
        ),
        (Box::new(NaiveEngine::new(a.clone())), validated),
        (
            Box::new(SumTreeEngine::build(a.clone(), 2).unwrap()),
            validated,
        ),
        (Box::new(SparseSumEngine::from_dense(a).unwrap()), validated),
        (
            Box::new(ExtendedCube::build(a, SumOp::<i64>::new()).unwrap()),
            validated,
        ),
        (Box::new(planned), validated),
        (
            Box::new(FaultyEngine::new(
                Box::new(NaiveEngine::new(a.clone())),
                FaultPlan::benign(),
            )),
            validated,
        ),
        // It prices no sums, so it refuses them whatever the query.
        (
            Box::new(SparseMaxEngine::from_dense(a)),
            ["unsupported", "unsupported"],
        ),
    ]
}

#[test]
fn every_engine_refuses_a_bad_query_with_the_same_variant() {
    let a = cube();
    for (engine, expected) in &engines(&a) {
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

/// The most a read may overshoot an access cap: the accesses between two
/// of its kernel's checkpoints. The naive scans (and the extended cube's
/// walk) charge every 4096 cells; the §6 walk per expanded node, so at
/// most one node's `b^d` children (`b = 4` for the index's max tree); the
/// sum tree and the sparse trees per node visited; the sparse sum also
/// per dense region's `2^d`-corner read; the blocked kernel per part.
fn checkpoint(label: &str, op: EngineOp) -> u64 {
    if label.contains("naive") || label.contains("extended") || op == EngineOp::Min {
        4096
    } else if label.starts_with("cube-index") && op == EngineOp::Max {
        4 * 4
    } else {
        4
    }
}

/// A read under an access cap stops within one kernel checkpoint of the
/// cap, and an `Ok` read charges its meter exactly the accesses its
/// outcome reports: every kernel charges the meter from the counter it
/// fills, as it walks, not once it has finished.
#[test]
fn a_capped_read_stops_within_one_checkpoint_and_an_ok_read_charges_what_it_counts() {
    const CAP: u64 = 10;
    let a = DenseArray::from_fn(Shape::new(&[256, 256]).unwrap(), |i| {
        (i[0] * 7 + i[1] * 3) as i64 % 11
    });
    let full = a.shape().full_region();
    let regions = [
        full.clone(),
        Region::from_bounds(&[(3, 200), (17, 90)]).unwrap(),
        Region::from_bounds(&[(100, 100), (0, 255)]).unwrap(),
    ];
    for (engine, _) in &engines(&a) {
        let label = engine.label();
        for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
            if engine.cost(&full, op).is_none() {
                continue;
            }
            for region in &regions {
                let armed = QueryBudget::with_deadline(Duration::from_secs(3600)).start(None);
                let out = engine.read(region, op, &armed).unwrap();
                assert_eq!(armed.spent(), out.cost(), "{label} {op} {region}");
            }
            let cost = engine
                .read(&full, op, &BudgetMeter::unlimited())
                .unwrap()
                .cost();
            let capped = QueryBudget::with_max_accesses(CAP).start(None);
            match engine.read(&full, op, &capped) {
                Ok(out) => {
                    assert!(
                        cost <= CAP,
                        "{label} {op}: answered at {cost} accesses under a cap of {CAP}"
                    );
                    assert_eq!(capped.spent(), out.cost(), "{label} {op}");
                }
                Err(err) => {
                    assert!(cost > CAP, "{label} {op}: {err}");
                    assert!(
                        matches!(err, EngineError::BudgetExhausted { .. }),
                        "{label} {op}: {err}"
                    );
                    let bound = CAP + checkpoint(&label, op);
                    let spent = capped.spent();
                    assert!(
                        spent <= bound,
                        "{label} {op}: charged {spent} of a {CAP} cap"
                    );
                }
            }
        }
    }
}
