//! `QueryOutcome` must carry the engine's `AccessStats` through
//! trait-object dispatch unchanged: the paper's §8 cost accounting is only
//! trustworthy if no layer between the algorithm and the caller rewrites
//! or drops counters.

use olap_array::{DenseArray, Region, Shape};
use olap_engine::{AdaptiveRouter, CubeIndex, IndexConfig, RangeEngine};
use olap_query::RangeQuery;

fn cube() -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(&[32, 24]).unwrap(), |i| {
        (i[0] * 5 + i[1] * 3) as i64 % 19
    })
}

fn query() -> RangeQuery {
    RangeQuery::from_region(&Region::from_bounds(&[(1, 30), (2, 20)]).unwrap())
}

#[test]
fn stats_survive_boxed_dispatch() {
    let a = cube();
    let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
    let q = query();
    let region = q.to_region(a.shape()).unwrap();
    let (direct_v, direct_stats) = idx.range_sum(&region).unwrap();

    let boxed: Box<dyn RangeEngine<i64>> = Box::new(idx);
    let outcome = boxed.range_sum(&q).unwrap();
    assert_eq!(outcome.value(), Some(&direct_v));
    assert_eq!(
        outcome.stats, direct_stats,
        "boxed dispatch must forward AccessStats field-for-field"
    );
    assert_eq!(outcome.cost(), direct_stats.total_accesses());
}

#[test]
fn stats_survive_router_dispatch() {
    let a = cube();
    let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
    let q = query();
    let region = q.to_region(a.shape()).unwrap();
    let (_, direct_stats) = idx.range_sum(&region).unwrap();

    let router = AdaptiveRouter::new().with_engine(Box::new(idx) as Box<dyn RangeEngine<i64>>);
    let outcome = router.range_sum(&q).unwrap();
    assert_eq!(
        outcome.stats, direct_stats,
        "routing must not perturb the observed stats its drift report reads"
    );
}

#[test]
fn stats_unchanged_with_telemetry_recording() {
    // Recording is observation only: the outcome with a telemetry context
    // active must be bit-identical to the outcome without one.
    let a = cube();
    let idx = CubeIndex::build(a, IndexConfig::default()).unwrap();
    let boxed: Box<dyn RangeEngine<i64>> = Box::new(idx);
    let q = query();
    let quiet = boxed.range_sum(&q).unwrap();
    let ctx = std::sync::Arc::new(olap_telemetry::Telemetry::new());
    let recorded = olap_telemetry::with_scope(&ctx, || boxed.range_sum(&q).unwrap());
    assert_eq!(quiet.stats, recorded.stats);
    assert_eq!(quiet.value(), recorded.value());
    // And the recorded access histogram saw exactly the outcome's cost.
    let h = ctx.registry().histogram(
        "olap_engine_accesses",
        &[("engine", "cube-index(basic-prefix)"), ("op", "range_sum")],
    );
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), recorded.cost());
}
