//! Robustness contract of the engine layer: **degenerate and malformed
//! inputs produce typed errors, never panics**, across every backend
//! behind the [`RangeEngine`] trait and through the [`AdaptiveRouter`].
//!
//! The deterministic cases below pin the exact error classes (bounds,
//! dimension mismatch, unsupported operations); the property tests then
//! hammer every backend with random malformed queries — proptest treats
//! any panic as a failure, so a green run *is* the never-panics proof.

use olap_aggregate::SumOp;
use olap_array::{ArrayError, DenseArray, QueryBudget, Region, Shape};
use olap_engine::{
    AdaptiveRouter, BatchImage, CubeIndex, DegradeReason, DegradeTier, EngineError, EngineOp,
    ExtendedCube, IndexConfig, NaiveEngine, RangeEngine, SparseMaxEngine, SparseSumEngine,
    SumTreeEngine,
};
use olap_query::{AccessStats, DimSelection, Estimate, RangeQuery};
use proptest::prelude::*;
use std::error::Error as _;
use std::sync::Arc;

fn cube() -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(&[8, 8]).unwrap(), |i| (i[0] * 8 + i[1]) as i64)
}

/// Every backend in the crate, behind the trait, over the same 8×8 cube.
fn all_engines() -> Vec<Box<dyn RangeEngine<i64>>> {
    let a = cube();
    vec![
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(CubeIndex::build(a.clone(), IndexConfig::default()).unwrap()),
        Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()),
        Box::new(SparseSumEngine::from_dense(&a).unwrap()),
        Box::new(SparseMaxEngine::from_dense(&a)),
        Box::new(ExtendedCube::build(&a, SumOp::<i64>::new()).unwrap()),
    ]
}

fn span(lo: usize, hi: usize) -> DimSelection {
    DimSelection::span(lo, hi).unwrap()
}

/// Whether `e` serves `op`: whether it prices the whole cube for it.
fn serves(e: &dyn RangeEngine<i64>, op: EngineOp) -> bool {
    e.cost(&e.shape().full_region(), op).is_some()
}

/// Whether `e` takes updates: a valid one-cell batch is not refused.
fn takes_updates(e: &dyn RangeEngine<i64>) -> bool {
    !matches!(
        e.apply_updates(&[(vec![0, 0], 1)]),
        Err(EngineError::Unsupported { .. })
    )
}

#[test]
fn out_of_bounds_queries_error_on_every_backend() {
    let q = RangeQuery::new(vec![span(0, 3), span(5, 12)]).unwrap();
    for e in all_engines() {
        let label = e.label();
        if serves(&*e, EngineOp::Sum) {
            let err = e.range_sum(&q).unwrap_err();
            assert!(
                matches!(err, EngineError::Array(ArrayError::OutOfBounds { .. })),
                "{label}: {err:?}"
            );
        }
        if serves(&*e, EngineOp::Max) {
            assert!(e.range_max(&q).is_err(), "{label}");
        }
        if serves(&*e, EngineOp::Min) {
            assert!(e.range_min(&q).is_err(), "{label}");
        }
    }
}

#[test]
fn dimension_mismatch_errors_on_every_backend() {
    // A 3-d query against 2-d engines.
    let q = RangeQuery::all(3).unwrap();
    for e in all_engines() {
        if !serves(&*e, EngineOp::Sum) {
            continue;
        }
        let err = e.range_sum(&q).unwrap_err();
        assert!(
            matches!(err, EngineError::Array(ArrayError::DimMismatch { .. })),
            "{}: {err:?}",
            e.label()
        );
    }
}

#[test]
fn out_of_domain_singletons_error() {
    let q = RangeQuery::new(vec![DimSelection::Single(99), DimSelection::All]).unwrap();
    for e in all_engines() {
        if serves(&*e, EngineOp::Sum) {
            assert!(e.range_sum(&q).is_err(), "{}", e.label());
        }
    }
}

#[test]
fn unsupported_operations_are_typed_not_panics() {
    for e in all_engines() {
        let q = RangeQuery::all(2).unwrap();
        if !serves(&*e, EngineOp::Max) {
            assert!(
                matches!(e.range_max(&q), Err(EngineError::Unsupported { .. })),
                "{}",
                e.label()
            );
        }
        if !serves(&*e, EngineOp::Min) {
            assert!(
                matches!(e.range_min(&q), Err(EngineError::Unsupported { .. })),
                "{}",
                e.label()
            );
        }
        // Updates on a read-only engine: a typed refusal, never a panic;
        // every other engine takes the batch.
        if let Err(err) = e.apply_updates(&[(vec![0, 0], 1)]) {
            assert!(
                matches!(err, EngineError::Unsupported { .. }),
                "{}: {err:?}",
                e.label()
            );
        }
    }
}

#[test]
fn out_of_bounds_updates_error_without_corrupting_state() {
    for e in all_engines() {
        if !takes_updates(&*e) {
            continue;
        }
        let label = e.label();
        let q = RangeQuery::all(2).unwrap();
        let before = e.range_sum(&q).unwrap();
        assert!(e.apply_updates(&[(vec![8, 0], 1)]).is_err(), "{label}");
        assert!(e.apply_updates(&[(vec![0], 1)]).is_err(), "{label}");
        let after = e.range_sum(&q).unwrap();
        assert_eq!(
            before.value(),
            after.value(),
            "{label}: rejected update must not change the cube"
        );
    }
}

#[test]
fn degenerate_constructors_are_typed_errors() {
    // Zero-length axes are rejected at shape construction.
    assert!(matches!(
        Shape::new(&[0, 5]),
        Err(ArrayError::ZeroDim { .. })
    ));
    assert!(matches!(Shape::new(&[]), Err(ArrayError::EmptyShape)));
    // Inverted spans are rejected at query construction.
    assert!(DimSelection::span(5, 2).is_err());
    // Empty selection lists are rejected.
    assert!(RangeQuery::new(vec![]).is_err());
    // Degenerate fanouts are rejected by the tree builders.
    assert!(SumTreeEngine::build(cube(), 1).is_err());
    assert!(CubeIndex::build(
        cube(),
        IndexConfig {
            max_tree_fanout: Some(1),
            ..IndexConfig::default()
        }
    )
    .is_err());
}

#[test]
fn engine_errors_expose_their_source_chain() {
    let e = NaiveEngine::new(cube());
    let q = RangeQuery::new(vec![span(0, 3), span(5, 12)]).unwrap();
    let err = e.range_sum(&q).unwrap_err();
    let source = err.source().expect("wrapped ArrayError must be the source");
    assert!(source.to_string().contains("out of bounds"), "{source}");
}

/// Any per-dimension selection, including deliberately out-of-domain
/// spans and singletons (the cube is 8×8; indices go up to 15).
fn arb_selection() -> impl Strategy<Value = DimSelection> {
    prop_oneof![
        Just(DimSelection::All),
        (0usize..16).prop_map(DimSelection::Single),
        (0usize..16, 0usize..16).prop_map(|(a, b)| span(a.min(b), a.max(b))),
    ]
}

/// Random queries of *any* dimensionality (1..=4 selections against the
/// 2-d engines), most of them invalid one way or another.
fn arb_query() -> impl Strategy<Value = RangeQuery> {
    prop::collection::vec(arb_selection(), 1..=4).prop_map(|sels| RangeQuery::new(sels).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The never-panics property: every backend answers every malformed
    /// query with `Ok` or a typed `Err` — proptest fails on any panic.
    #[test]
    fn no_backend_panics_on_malformed_queries(q in arb_query()) {
        for e in all_engines() {
            let _ = e.range_sum(&q);
            let _ = e.range_max(&q);
            let _ = e.range_min(&q);
        }
    }

    /// The router inherits the property, and its error (when all
    /// candidates reject the query) is a typed `EngineError`.
    #[test]
    fn router_never_panics_on_malformed_queries(q in arb_query()) {
        let mut r = AdaptiveRouter::new();
        for e in all_engines() {
            r = r.with_engine(e);
        }
        match r.range_sum(&q) {
            Ok(out) => prop_assert!(out.value().is_some()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        let _ = r.range_max(&q);
        let _ = r.range_min(&q);
    }

    /// Malformed update batches are typed errors on every updatable
    /// backend, whatever the index arity or position.
    #[test]
    fn no_backend_panics_on_malformed_updates(
        idx in prop::collection::vec(0usize..16, 0..=3),
        v in -1000i64..1000,
    ) {
        for e in all_engines() {
            let _ = e.apply_updates(&[(idx.clone(), v)]);
        }
    }
}

/// A degradation tier whose estimate panics, standing in for a tier bug.
struct PanickingTier(Arc<DenseArray<i64>>);

impl DegradeTier<i64> for PanickingTier {
    fn label(&self) -> String {
        "panicking-tier".into()
    }
    fn relative_bound(&self, _est: &Estimate<i64>) -> f64 {
        0.0
    }
    fn degraded(
        &self,
        _region: &Region,
        _op: EngineOp,
    ) -> Result<(Estimate<i64>, AccessStats), EngineError> {
        panic!("tier bug")
    }
    fn base(&self) -> &Arc<DenseArray<i64>> {
        &self.0
    }
    fn derive_onto(
        &self,
        _image: &BatchImage<'_, i64>,
    ) -> Result<Arc<dyn DegradeTier<i64>>, EngineError> {
        Ok(Arc::new(PanickingTier(Arc::clone(&self.0))))
    }
}

#[test]
fn a_panicking_degrade_tier_is_contained_and_the_exact_error_stands() {
    let a = Arc::new(cube());
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(Arc::clone(&a))))
        .with_degrade_tier(Arc::new(PanickingTier(a)))
        .with_budget(QueryBudget::with_max_accesses(2).degrade());
    let region = Region::from_bounds(&[(1, 6), (1, 6)]).unwrap();
    let err = router
        .degrade(&region, EngineOp::Sum, DegradeReason::QueueDepth)
        .unwrap_err();
    assert!(
        matches!(err, EngineError::EnginePanicked { ref engine, .. } if engine == "panicking-tier"),
        "{err:?}"
    );
    // The fallback cannot answer, so the budget's interrupt is the error.
    let err = router
        .answer(&RangeQuery::from_region(&region), EngineOp::Sum)
        .unwrap_err();
    assert!(err.is_interrupt(), "{err:?}");
}
