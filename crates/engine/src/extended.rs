//! The \[GBLP96\] **extended data cube** — the structure the paper's
//! introduction starts from and argues beyond.
//!
//! Each functional attribute's domain is augmented with an `all` value
//! holding the aggregate over that dimension, so the extended cube has
//! `(n_1+1) × … × (n_d+1)` cells. Any *singleton* query (every dimension a
//! single value or `all`) is answered in **one** cell access — e.g.
//! `(all, 1995, all, auto)` in §1. But a genuine range query must add one
//! cell per combination of the non-`all`, non-singleton values: the §1
//! example (16 ages × 9 years) costs `16·9·1·1 = 144` accesses, which is
//! exactly the gap Theorem 1's `2^d` closes.

use crate::naive::CHECK_EVERY;
use crate::range_engine::{Capabilities, EngineOp, RangeEngine};
use crate::EngineError;
use olap_aggregate::AbelianGroup;
use olap_array::{BudgetMeter, DenseArray, Region, Shape};
use olap_query::{AccessStats, EngineKind, QueryCtx, QueryOutcome, RangeQuery};

/// The extended cube: the original cells plus `all` margins on every
/// dimension (the last index of each dimension is its `all` slot).
#[derive(Clone)]
pub struct ExtendedCube<G: AbelianGroup> {
    op: G,
    /// Shape of the *original* cube.
    base_shape: Shape,
    /// The extended array, `(n_j + 1)` per dimension.
    cells: DenseArray<G::Value>,
}

impl<G: AbelianGroup> ExtendedCube<G> {
    /// Builds the extended cube in `d` passes: each pass appends, along
    /// one axis, the `all` margin (the axis total), so the margins of
    /// margins come out right (the grand total sits at `(all,…,all)`).
    ///
    /// # Errors
    /// Propagates shape validation.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < d, the rank of every intermediate and grown shape"
    )]
    pub fn build(a: &DenseArray<G::Value>, op: G) -> Result<Self, EngineError> {
        let base_shape = a.shape().clone();
        let d = base_shape.ndim();
        // Start from the original data, grow one axis at a time.
        let mut cur = a.clone();
        for axis in 0..d {
            let mut dims = cur.shape().dims().to_vec();
            dims[axis] += 1;
            let grown_shape = Shape::new(&dims)?;
            let n = cur.shape().dim(axis);
            let grown = DenseArray::from_fn(grown_shape, |idx| {
                if idx[axis] < n {
                    cur.get(idx).clone()
                } else {
                    // The `all` slot: total along `axis` at these coords.
                    let mut probe = idx.to_vec();
                    let mut acc = op.identity();
                    for x in 0..n {
                        probe[axis] = x;
                        acc = op.combine(&acc, cur.get(&probe));
                    }
                    acc
                }
            });
            cur = grown;
        }
        Ok(ExtendedCube {
            op,
            base_shape,
            cells: cur,
        })
    }

    /// The shape of the original cube.
    pub fn base_shape(&self) -> &Shape {
        &self.base_shape
    }

    /// Total cells of the extended cube, `∏ (n_j + 1)` — the storage the
    /// paper quotes for the §1 example (101 × 11 × 51 × 4).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads one extended cell; `None` per dimension selects its `all`
    /// slot.
    pub fn cell(&self, coords: &[Option<usize>]) -> &G::Value {
        let idx: Vec<usize> = coords
            .iter()
            .zip(self.base_shape.dims())
            .map(|(c, &n)| c.unwrap_or(n))
            .collect();
        self.cells.get(&idx)
    }

    /// Answers a query the way \[GBLP96\] can: one access for a singleton
    /// query; for a range query, one access per combination of values in
    /// the non-`all` selections (the §1 example's `16·9` cost). A span
    /// over a whole domain reads the `all` margin, as `all` does.
    ///
    /// # Errors
    /// Validates the query against the base shape.
    pub fn aggregate(&self, query: &RangeQuery) -> Result<(G::Value, AccessStats), EngineError> {
        QueryCtx::measure(|ctx| self.sum_over(&query.to_region(&self.base_shape)?, ctx))
    }

    /// Aggregates a region under `ctx`: an axis spanning its whole domain
    /// reads its `all` slot; any other axis enumerates its values. `ctx`
    /// is charged and checked every `CHECK_EVERY` cells and at the end.
    #[expect(
        clippy::indexing_slicing,
        reason = "iter_dims holds at most d entries, each an axis below d that idx has a slot for"
    )]
    fn sum_over(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<G::Value, EngineError> {
        ctx.check()?;
        self.base_shape.check_region(region)?;
        let mut iter_dims: Vec<(usize, usize, usize)> = Vec::new(); // (axis, lo, hi)
        let mut idx: Vec<usize> = Vec::with_capacity(region.ndim());
        // analyzer: allow(budget-coverage, reason = "per-axis setup: trip count = ndim")
        for (axis, (r, &n)) in region
            .ranges()
            .iter()
            .zip(self.base_shape.dims())
            .enumerate()
        {
            if r.len() == n {
                idx.push(n); // the `all` margin
                continue;
            }
            idx.push(r.lo());
            if r.len() > 1 {
                iter_dims.push((axis, r.lo(), r.hi()));
            }
        }
        // Odometer over the enumerated dimensions.
        let mut acc = self.op.identity();
        loop {
            acc = self.op.combine(&acc, self.cells.get(&idx));
            ctx.stats.read_a(1);
            ctx.stats.step(1);
            if ctx.stats.a_cells.is_multiple_of(CHECK_EVERY as u64) {
                ctx.charge()?;
                ctx.check()?;
            }
            let mut level = iter_dims.len();
            // analyzer: allow(budget-coverage, reason = "odometer advance: at most ndim steps per cell")
            loop {
                if level == 0 {
                    ctx.charge()?;
                    return Ok(acc);
                }
                level -= 1;
                let (axis, lo, hi) = iter_dims[level];
                if idx[axis] < hi {
                    idx[axis] += 1;
                    break;
                }
                idx[axis] = lo;
            }
        }
    }
}

impl<G> RangeEngine<G::Value> for ExtendedCube<G>
where
    G: AbelianGroup + Send + Sync,
    G::Value: Send + Sync,
{
    fn label(&self) -> String {
        "extended-cube".to_string()
    }

    fn shape(&self) -> &Shape {
        &self.base_shape
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::sum_only()
    }

    fn cost(&self, region: &Region) -> f64 {
        // [GBLP96] cost: one margin access per axis spanning its domain,
        // one access per value of every other axis (the §1 `16·9·1·1`
        // example).
        region
            .ranges()
            .iter()
            .zip(self.base_shape.dims())
            .map(|(r, &n)| if r.len() == n { 1.0 } else { r.len() as f64 })
            .product()
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<G::Value>, EngineError> {
        crate::telemetry::observe_query(
            || self.label(),
            op,
            meter,
            |ctx| {
                if op != EngineOp::Sum {
                    return Err(EngineError::unsupported(self.label(), op.name()));
                }
                let v = self.sum_over(region, ctx)?;
                Ok(QueryOutcome::aggregate(
                    v,
                    ctx.stats,
                    EngineKind::ExtendedCube,
                ))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_aggregate::SumOp;
    use olap_query::DimSelection;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[4, 3, 2]).unwrap(), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as i64
        })
    }

    fn extended() -> ExtendedCube<SumOp<i64>> {
        ExtendedCube::build(&cube(), SumOp::new()).unwrap()
    }

    #[test]
    fn size_matches_gblp96() {
        // (4+1)(3+1)(2+1), like the paper's 101·11·51·4 example.
        assert_eq!(extended().len(), 5 * 4 * 3);
    }

    #[test]
    fn margins_hold_axis_totals() {
        let a = cube();
        let e = extended();
        // (all, 1, 0): sum over dim 0.
        let expected: i64 = (0..4).map(|x| *a.get(&[x, 1, 0])).sum();
        assert_eq!(*e.cell(&[None, Some(1), Some(0)]), expected);
        // (2, all, all): sum over dims 1, 2.
        let expected: i64 = (0..3)
            .flat_map(|y| (0..2).map(move |z| (y, z)))
            .map(|(y, z)| *a.get(&[2, y, z]))
            .sum();
        assert_eq!(*e.cell(&[Some(2), None, None]), expected);
        // Grand total at (all, all, all).
        let total: i64 = a.as_slice().iter().sum();
        assert_eq!(*e.cell(&[None, None, None]), total);
    }

    #[test]
    fn singleton_query_is_one_access() {
        let e = extended();
        let q = RangeQuery::new(vec![
            DimSelection::All,
            DimSelection::Single(1),
            DimSelection::All,
        ])
        .unwrap();
        let (v, stats) = e.aggregate(&q).unwrap();
        assert_eq!(stats.total_accesses(), 1);
        assert_eq!(v, *e.cell(&[None, Some(1), None]));
    }

    #[test]
    fn range_query_costs_product_of_range_lengths() {
        // The §1 insurance pattern: ranges on two dims, all on the rest.
        let a = cube();
        let e = extended();
        let q = RangeQuery::new(vec![
            DimSelection::span(1, 3).unwrap(), // 3 values
            DimSelection::span(0, 1).unwrap(), // 2 values
            DimSelection::All,
        ])
        .unwrap();
        let (v, stats) = e.aggregate(&q).unwrap();
        assert_eq!(stats.total_accesses(), 3 * 2);
        let region = q.to_region(a.shape()).unwrap();
        assert_eq!(v, a.fold_region(&region, 0i64, |s, &x| s + x));
    }

    #[test]
    fn agrees_with_naive_on_mixed_queries() {
        let a = cube();
        let e = extended();
        let queries = [
            vec![
                DimSelection::span(0, 2).unwrap(),
                DimSelection::All,
                DimSelection::Single(1),
            ],
            vec![DimSelection::All, DimSelection::All, DimSelection::All],
            vec![
                DimSelection::Single(3),
                DimSelection::span(1, 2).unwrap(),
                DimSelection::All,
            ],
        ];
        for sels in queries {
            let q = RangeQuery::new(sels).unwrap();
            let region = q.to_region(a.shape()).unwrap();
            let naive = a.fold_region(&region, 0i64, |s, &x| s + x);
            assert_eq!(e.aggregate(&q).unwrap().0, naive, "{q:?}");
        }
    }

    #[test]
    fn rejects_out_of_domain_queries() {
        let e = extended();
        let q = RangeQuery::new(vec![
            DimSelection::span(0, 4).unwrap(),
            DimSelection::All,
            DimSelection::All,
        ])
        .unwrap();
        assert!(e.aggregate(&q).is_err());
    }
}
