//! [`RangeEngine`] adapters for the backends that live in other crates:
//! the naive scans, the §8 tree-sum baseline, and the §10 sparse engines.
//!
//! Each wrapper owns whatever the underlying structure needs at query time
//! (the tree-sum and naive engines hold the base cube behind an `Arc` a
//! whole stack can share; the sparse engines are self-contained) so the
//! whole backend travels as one `Box<dyn RangeEngine<V>>`.

use crate::range_engine::{derive_shared, BatchImage, Derived, EngineOp, RangeEngine};
use crate::EngineError;
use olap_aggregate::{NaturalOrder, NumericValue, ReverseOrder, SumOp, TotalOrder};
use olap_array::{BudgetMeter, DenseArray, Region, Shape};
use olap_planner::cost;
use olap_query::{AccessStats, EngineKind, QueryCtx, QueryOutcome};
use olap_sparse::{SparseCube, SparseRangeMax, SparseRangeSum};
use olap_tree_sum::SumTreeCube;
use std::sync::Arc;

/// The no-precomputation baseline as an engine: scans the query sub-cube
/// for every operation. Cost = query volume `V` — the yardstick every
/// structure is measured against.
#[derive(Clone)]
pub struct NaiveEngine<T> {
    a: Arc<DenseArray<T>>,
}

impl<T> NaiveEngine<T> {
    /// Wraps a cube (owned, or an `Arc` shared with other engines).
    pub fn new(a: impl Into<Arc<DenseArray<T>>>) -> Self {
        NaiveEngine { a: a.into() }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &DenseArray<T> {
        &self.a
    }

    /// Nothing is precomputed: the post-batch cube is the whole update.
    fn adopt(&mut self, image: &BatchImage<'_, T>) -> Result<AccessStats, EngineError> {
        let mut stats = AccessStats::new();
        stats.read_a(image.updates().len() as u64);
        self.a = Arc::clone(image.cube());
        Ok(stats)
    }
}

impl<T> RangeEngine<T> for NaiveEngine<T>
where
    T: NumericValue + PartialOrd + Send + Sync + 'static,
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    fn label(&self) -> String {
        "naive-scan".to_string()
    }

    fn shape(&self) -> &Shape {
        self.a.shape()
    }

    fn cost(&self, region: &Region, _op: EngineOp) -> Option<f64> {
        Some(region.volume() as f64)
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<T>, EngineError> {
        let naive = EngineKind::NaiveScan;
        crate::telemetry::observe_query(
            || self.label(),
            op,
            meter,
            |ctx| match op {
                EngineOp::Sum => {
                    let v =
                        crate::naive::range_aggregate(&self.a, &SumOp::<T>::new(), region, ctx)?;
                    Ok(QueryOutcome::aggregate(v, ctx.stats, naive))
                }
                EngineOp::Max => {
                    let order = NaturalOrder::<T>::new();
                    let (at, v) = crate::naive::range_max(&self.a, &order, region, ctx)?;
                    Ok(QueryOutcome::extremum(at, v, ctx.stats, naive))
                }
                EngineOp::Min => {
                    let order = ReverseOrder::new(NaturalOrder::<T>::new());
                    let (at, v) = crate::naive::range_max(&self.a, &order, region, ctx)?;
                    Ok(QueryOutcome::extremum(at, v, ctx.stats, naive))
                }
            },
        )
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, T)]) -> Result<Derived<T>, EngineError> {
        self.derive_onto(&BatchImage::derive(&self.a, updates)?)
    }

    fn base(&self) -> Option<&Arc<DenseArray<T>>> {
        Some(&self.a)
    }

    fn derive_onto(&self, image: &BatchImage<'_, T>) -> Result<Derived<T>, EngineError> {
        derive_shared(self, &self.a, image, NaiveEngine::adopt)
    }
}

/// The §8 tree-sum baseline as a standalone engine: the hierarchical tree
/// plus the base cube its queries read boundary cells from. An update
/// adds each cell's delta to the nodes on its leaf-to-root path
/// (`k · height` node writes; the tree is never rebuilt).
#[derive(Clone)]
pub struct SumTreeEngine<T: NumericValue + PartialOrd> {
    a: Arc<DenseArray<T>>,
    tree: SumTreeCube<T>,
}

impl<T: NumericValue + PartialOrd> SumTreeEngine<T> {
    /// Builds the tree with per-dimension fanout `b` over the cube
    /// (owned, or an `Arc` shared with other engines).
    ///
    /// # Errors
    /// Rejects fanouts < 2.
    pub fn build(a: impl Into<Arc<DenseArray<T>>>, b: usize) -> Result<Self, EngineError> {
        let a = a.into();
        let tree = SumTreeCube::build(&a, b)?;
        Ok(SumTreeEngine { a, tree })
    }

    /// The tree's per-dimension fanout.
    pub fn fanout(&self) -> usize {
        self.tree.fanout()
    }

    /// Walks each delta up its leaf-to-root path, then adopts the image's
    /// post-batch cube. Reports the nodes actually written.
    fn adopt(&mut self, image: &BatchImage<'_, T>) -> Result<AccessStats, EngineError> {
        let mut stats = AccessStats::new();
        stats.read_a(image.updates().len() as u64);
        let paths = image
            .deltas()
            .iter()
            .map(|u| (u.index.as_slice(), &u.delta));
        stats.visit_nodes(self.tree.apply_deltas(paths)?);
        self.a = Arc::clone(image.cube());
        Ok(stats)
    }
}

impl<T> RangeEngine<T> for SumTreeEngine<T>
where
    T: NumericValue + PartialOrd + Send + Sync + 'static,
{
    fn label(&self) -> String {
        format!("tree-sum(b={})", self.tree.fanout())
    }

    fn shape(&self) -> &Shape {
        self.a.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        (op == EngineOp::Sum).then(|| {
            cost::tree_cost(
                region.ndim(),
                region.surface_area() as f64,
                self.tree.fanout(),
                self.tree.height(),
            )
        })
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<T>, EngineError> {
        crate::telemetry::observe_query(
            || self.label(),
            op,
            meter,
            |ctx| {
                if op != EngineOp::Sum {
                    return Err(EngineError::unsupported(self.label(), op.name()));
                }
                let v = self.tree.read(&self.a, region, true, ctx)?;
                Ok(QueryOutcome::aggregate(v, ctx.stats, EngineKind::TreeSum))
            },
        )
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, T)]) -> Result<Derived<T>, EngineError> {
        self.derive_onto(&BatchImage::derive(&self.a, updates)?)
    }

    fn base(&self) -> Option<&Arc<DenseArray<T>>> {
        Some(&self.a)
    }

    fn derive_onto(&self, image: &BatchImage<'_, T>) -> Result<Derived<T>, EngineError> {
        derive_shared(self, &self.a, image, SumTreeEngine::adopt)
    }
}

/// The §10.2 sparse range-sum engine behind the trait.
#[derive(Clone)]
pub struct SparseSumEngine<T: NumericValue> {
    inner: SparseRangeSum<SumOp<T>>,
}

impl<T: NumericValue> SparseSumEngine<T> {
    /// Builds the engine over a sparse cube.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn build(cube: &SparseCube<T>) -> Result<Self, EngineError> {
        Ok(SparseSumEngine {
            inner: SparseRangeSum::build(cube)?,
        })
    }

    /// Builds from a dense cube, treating zero cells as empty.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn from_dense(a: &DenseArray<T>) -> Result<Self, EngineError>
    where
        T: PartialEq,
    {
        SparseSumEngine::build(&SparseCube::from_dense(a, |v| *v == T::zero()))
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &SparseRangeSum<SumOp<T>> {
        &self.inner
    }

    /// Applies absolute-value updates in place — the single-owner
    /// primitive the copy-on-write [`RangeEngine::apply_updates`] builds
    /// on. The inner engine speaks deltas (value-to-add); this converts
    /// one update at a time against the current state so duplicate
    /// updates to a cell compose correctly.
    ///
    /// # Errors
    /// Index validation.
    pub fn apply_updates_in_place(
        &mut self,
        updates: &[(Vec<usize>, T)],
    ) -> Result<AccessStats, EngineError> {
        let mut stats = AccessStats::new();
        for (idx, new_v) in updates {
            let point = Region::point(idx)?;
            let (old, s) = QueryCtx::measure(|ctx| self.inner.read(&point, ctx))?;
            stats += s;
            self.inner
                .apply_updates(&[(idx.clone(), new_v.clone() - old)])?;
            stats.read_a(1);
        }
        Ok(stats)
    }
}

impl<T: NumericValue + Send + Sync + 'static> RangeEngine<T> for SparseSumEngine<T> {
    fn label(&self) -> String {
        "sparse-sum".to_string()
    }

    fn shape(&self) -> &Shape {
        self.inner.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        // §10.2 proxy: each intersecting dense region answers with a
        // 2^d-corner prefix lookup; outliers contribute individually in
        // proportion to the queried share of the cube. Crude: the router
        // compares it as is, and reports its drift from observed accesses.
        (op == EngineOp::Sum).then(|| {
            let shape = self.inner.shape();
            let frac = region.volume() as f64 / shape.len().max(1) as f64;
            self.inner.region_count() as f64 * cost::pow2(shape.ndim())
                + self.inner.outlier_count() as f64 * frac
        })
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<T>, EngineError> {
        crate::telemetry::observe_query(
            || self.label(),
            op,
            meter,
            |ctx| {
                if op != EngineOp::Sum {
                    return Err(EngineError::unsupported(self.label(), op.name()));
                }
                let v = self.inner.read(region, ctx)?;
                Ok(QueryOutcome::aggregate(v, ctx.stats, EngineKind::SparseSum))
            },
        )
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, T)]) -> Result<Derived<T>, EngineError> {
        let obs = crate::telemetry::UpdateObservation::start();
        let mut next = self.clone();
        let result = SparseSumEngine::apply_updates_in_place(&mut next, updates);
        obs.finish(|| self.label(), updates.len(), &result);
        let stats = result?;
        Ok(Derived::new(Box::new(next), stats))
    }
}

/// The §10.3 sparse range-max engine behind the trait.
#[derive(Clone)]
pub struct SparseMaxEngine<T>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
    T: Clone,
{
    inner: SparseRangeMax<NaturalOrder<T>>,
    /// Depth of the fanout-8 R-tree over the points, for the price.
    depth: usize,
    /// Points per cell of the cube, for the price.
    density: f64,
}

impl<T> SparseMaxEngine<T>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
    T: Clone,
{
    /// Builds the engine over a sparse cube.
    pub fn build(cube: &SparseCube<T>) -> Self {
        let points = cube.len();
        let mut depth = 1usize;
        let mut cover = 8usize;
        while cover < points.max(1) {
            cover = cover.saturating_mul(8);
            depth += 1;
        }
        let inner = SparseRangeMax::build(cube);
        let density = points as f64 / inner.shape().len().max(1) as f64;
        SparseMaxEngine {
            inner,
            depth,
            density,
        }
    }

    /// Builds from a dense cube (every cell is a point).
    pub fn from_dense(a: &DenseArray<T>) -> Self {
        SparseMaxEngine::build(&SparseCube::from_dense(a, |_| false))
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &SparseRangeMax<NaturalOrder<T>> {
        &self.inner
    }
}

impl<T> RangeEngine<T> for SparseMaxEngine<T>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
    T: Clone + Send + Sync + 'static,
{
    fn label(&self) -> String {
        "sparse-max".to_string()
    }

    fn shape(&self) -> &Shape {
        self.inner.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        // R-tree proxy: a root-to-leaf descent of the fanout-8 tree plus
        // the expected points inside the query. Crude: the router
        // compares it as is, and reports its drift from observed accesses.
        (op == EngineOp::Max)
            .then(|| 8.0 * self.depth as f64 + region.volume() as f64 * self.density)
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<T>, EngineError> {
        crate::telemetry::observe_query(
            || self.label(),
            op,
            meter,
            |ctx| {
                if op != EngineOp::Max {
                    return Err(EngineError::unsupported(self.label(), op.name()));
                }
                let result = self.inner.read(region, ctx)?;
                let stats = ctx.stats;
                Ok(match result {
                    Some((at, v)) => QueryOutcome::extremum(at, v, stats, EngineKind::SparseMax),
                    None => QueryOutcome::empty(stats, EngineKind::SparseMax),
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;
    use olap_query::{Answer, RangeQuery};

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[9, 7]).unwrap(), |i| {
            (i[0] * 11 + i[1] * 3) as i64 % 17 - 5
        })
    }

    fn q(bounds: &[(usize, usize)]) -> RangeQuery {
        RangeQuery::from_region(&Region::from_bounds(bounds).unwrap())
    }

    #[test]
    fn naive_engine_answers_all_ops() {
        let a = cube();
        let e = NaiveEngine::new(a.clone());
        let query = q(&[(1, 6), (2, 5)]);
        let region = query.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(e.range_sum(&query).unwrap().value(), Some(&expected));
        let emax = a.fold_region(&region, i64::MIN, |m, &x| m.max(x));
        assert_eq!(e.range_max(&query).unwrap().value(), Some(&emax));
        let emin = a.fold_region(&region, i64::MAX, |m, &x| m.min(x));
        assert_eq!(e.range_min(&query).unwrap().value(), Some(&emin));
        assert_eq!(e.estimate(&query), region.volume() as f64);
        let e = e.apply_updates(&[(vec![3, 3], 999)]).unwrap().engine;
        assert_eq!(e.range_max(&query).unwrap().value(), Some(&999));
    }

    #[test]
    fn sum_tree_engine_matches_naive_before_and_after_an_update() {
        let a = cube();
        let e = SumTreeEngine::build(a.clone(), 3).unwrap();
        let naive = NaiveEngine::new(a.clone());
        let query = q(&[(0, 8), (1, 5)]);
        assert_eq!(
            e.range_sum(&query).unwrap().value(),
            naive.range_sum(&query).unwrap().value()
        );
        assert!(e.estimate(&query) > 0.0);
        assert!(matches!(
            e.range_max(&query),
            Err(EngineError::Unsupported { .. })
        ));
        let e = e
            .apply_updates(&[(vec![0, 1], 40), (vec![0, 1], 50)])
            .unwrap()
            .engine;
        let mut shadow = a.clone();
        *shadow.get_mut(&[0, 1]) = 50;
        let region = query.to_region(shadow.shape()).unwrap();
        let expected = shadow.fold_region(&region, 0i64, |s, &x| s + x);
        assert_eq!(e.range_sum(&query).unwrap().value(), Some(&expected));
    }

    #[test]
    fn sparse_sum_engine_applies_absolute_updates() {
        let a = cube();
        let mut e = SparseSumEngine::from_dense(&a).unwrap();
        let query = q(&[(0, 8), (0, 6)]);
        let total: i64 = a.as_slice().iter().sum();
        assert_eq!(e.range_sum(&query).unwrap().value(), Some(&total));
        // Absolute semantics: set a cell twice; the last value wins and
        // the delta conversion must not double-count.
        e.apply_updates_in_place(&[(vec![2, 2], 100), (vec![2, 2], 7)])
            .unwrap();
        let old = *a.get(&[2, 2]);
        let expected = total - old + 7;
        assert_eq!(e.range_sum(&query).unwrap().value(), Some(&expected));
    }

    #[test]
    fn sparse_max_engine_reports_empty_regions() {
        let shape = Shape::new(&[30, 30]).unwrap();
        let cube = SparseCube::new(shape, vec![(vec![5, 5], 3i64), (vec![20, 20], 9)]).unwrap();
        let e = SparseMaxEngine::build(&cube);
        let hit = e.range_max(&q(&[(0, 29), (0, 29)])).unwrap();
        assert_eq!(hit.value(), Some(&9));
        let miss = e.range_max(&q(&[(10, 12), (10, 12)])).unwrap();
        assert_eq!(miss.answer, Answer::Empty);
        assert!(matches!(
            e.range_sum(&q(&[(0, 1), (0, 1)])),
            Err(EngineError::Unsupported { .. })
        ));
        let everything = q(&[(0, 29), (0, 29)]);
        let region = everything.to_region(e.shape()).unwrap();
        assert!(e.cost(&region, EngineOp::Max).is_some_and(f64::is_finite));
        assert_eq!(e.cost(&region, EngineOp::Sum), None);
        // `estimate` prices a sum, which it does not serve.
        assert_eq!(e.estimate(&everything), f64::INFINITY);
    }
}
