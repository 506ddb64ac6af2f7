//! Executing a §9 plan: materialize the chosen cuboids, compute their
//! blocked prefix sums, and route each query to its cheapest applicable
//! structure — the end-to-end version of the paper's physical design.

use crate::cuboid::materialize_cuboid;
use crate::range_engine::{EngineOp, RangeEngine};
use crate::EngineError;
use olap_aggregate::{NumericValue, SumOp};
use olap_array::{BudgetMeter, DenseArray, Range, Region, Shape};
use olap_planner::PrefixSumChoice;
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy};
use olap_query::{AccessStats, CuboidId, EngineKind, QueryCtx, QueryOutcome, RangeQuery};

/// One materialized structure: a cuboid slice plus its blocked prefix sum
/// (block size 1 degenerates to the basic algorithm).
struct Structure<T: NumericValue> {
    choice: PrefixSumChoice,
    slice: DenseArray<T>,
    prefix: BlockedPrefixCube<T>,
}

/// A cube with the §9 planner's output materialized over it.
///
/// # Examples
///
/// ```
/// use olap_array::{DenseArray, Shape};
/// use olap_engine::PlannedIndex;
/// use olap_planner::PrefixSumChoice;
/// use olap_query::{CuboidId, DimSelection, RangeQuery};
///
/// let cube = DenseArray::from_fn(Shape::new(&[20, 10, 4]).unwrap(), |i| {
///     (i[0] + i[1] + i[2]) as i64
/// });
/// // Materialize a blocked prefix sum on the ⟨d1, d2⟩ cuboid.
/// let idx = PlannedIndex::build(
///     cube.clone(),
///     &[PrefixSumChoice { cuboid: CuboidId::from_dims(&[0, 1]), block: 4 }],
/// )
/// .unwrap();
/// // A query that is `all` on d3 routes to that structure.
/// let q = RangeQuery::new(vec![
///     DimSelection::span(2, 15).unwrap(),
///     DimSelection::span(1, 8).unwrap(),
///     DimSelection::All,
/// ])
/// .unwrap();
/// let region = q.to_region(cube.shape()).unwrap();
/// let expected = cube.fold_region(&region, 0i64, |s, &x| s + x);
/// assert_eq!(idx.range_sum(&q).unwrap().0, expected);
/// assert!(idx.route(&q).is_some());
/// ```
pub struct PlannedIndex<T: NumericValue> {
    a: DenseArray<T>,
    structures: Vec<Structure<T>>,
}

impl<T: NumericValue + PartialOrd> PlannedIndex<T> {
    /// Materializes every choice of a plan over the cube.
    ///
    /// # Errors
    /// Propagates shape/block validation.
    pub fn build(a: DenseArray<T>, choices: &[PrefixSumChoice]) -> Result<Self, EngineError> {
        let op = SumOp::<T>::new();
        let mut structures = Vec::with_capacity(choices.len());
        for &choice in choices {
            let slice = materialize_cuboid(&a, &op, choice.cuboid)?;
            let prefix = BlockedPrefixCube::build(&slice, choice.block.max(1))?;
            structures.push(Structure {
                choice,
                slice,
                prefix,
            });
        }
        Ok(PlannedIndex { a, structures })
    }

    /// The underlying cube.
    pub fn cube(&self) -> &DenseArray<T> {
        &self.a
    }

    /// Cells of precomputed storage across all structures (packed blocked
    /// arrays only; the slices themselves are reported separately by
    /// [`PlannedIndex::slice_cells`]).
    pub fn prefix_cells(&self) -> usize {
        self.structures
            .iter()
            .map(|s| s.prefix.packed_array().len())
            .sum()
    }

    /// Cells of materialized cuboid slices.
    pub fn slice_cells(&self) -> usize {
        self.structures.iter().map(|s| s.slice.len()).sum()
    }

    /// The structure (by choice) each query cuboid would route to, if any
    /// — exposed for tests and explain-style output.
    pub fn route(&self, query: &RangeQuery) -> Option<PrefixSumChoice> {
        let region = query.to_region(self.a.shape()).ok()?;
        self.pick(&region).map(|s| s.choice)
    }

    /// The cuboid a validated region is assigned to: the dimensions its
    /// ranges do not span whole (§9, as [`RangeQuery::cuboid`]).
    fn cuboid_of(&self, region: &Region) -> CuboidId {
        region
            .ranges()
            .iter()
            .zip(self.a.shape().dims())
            .enumerate()
            .filter(|(_, (r, &n))| r.len() != n)
            .fold(CuboidId::empty(), |id, (axis, _)| id.with_dim(axis))
    }

    /// The Equation-3 cost of answering a validated region from structure
    /// `s`.
    fn structure_cost(s: &Structure<T>, region: &Region) -> f64 {
        let cuboid = s.choice.cuboid;
        let sides = || {
            region
                .ranges()
                .iter()
                .enumerate()
                .filter(move |(j, _)| cuboid.contains_dim(*j))
                .map(|(_, r)| r.len() as f64)
        };
        let volume: f64 = sides().product();
        let surface: f64 = sides().map(|x| 2.0 * volume / x).sum();
        olap_planner::cost::prefix_sum_cost(cuboid.ndim(), surface, s.choice.block)
    }

    /// Chooses the cheapest structure applicable to a validated region by
    /// the Equation-3 model; the first of equals wins.
    fn pick(&self, region: &Region) -> Option<&Structure<T>> {
        let q_cuboid = self.cuboid_of(region);
        let mut best: Option<(&Structure<T>, f64)> = None;
        for s in &self.structures {
            if !s.choice.cuboid.is_ancestor_of(&q_cuboid) {
                continue;
            }
            let cost = Self::structure_cost(s, region);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((s, cost));
            }
        }
        best.map(|(s, _)| s)
    }

    /// Answers a range-sum query: routed to the cheapest applicable
    /// cuboid structure, or the naive scan of the base cube when no
    /// structure covers the query's cuboid.
    ///
    /// # Errors
    /// Validates the query against the cube shape.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<(T, AccessStats), EngineError> {
        let region = query.to_region(self.a.shape())?;
        let ((v, _), stats) = QueryCtx::measure(|ctx| self.sum(&region, ctx))?;
        Ok((v, stats))
    }

    /// The sum over a region under `ctx`, with the structure that
    /// answered it.
    fn sum(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<(T, EngineKind), EngineError> {
        ctx.check()?;
        self.a.shape().check_region(region)?;
        let Some(s) = self.pick(region) else {
            let v = crate::naive::range_aggregate(&self.a, &SumOp::<T>::new(), region, ctx)?;
            return Ok((v, EngineKind::NaiveScan));
        };
        // Project the query onto the structure's dimensions (the others
        // are `all` and were aggregated into the slice).
        let ranges: Vec<Range> = s
            .choice
            .cuboid
            .dims()
            .iter()
            .map(|&j| region.range(j))
            .collect();
        let ranges = if ranges.is_empty() {
            vec![Range::singleton(0)] // the grand-total slice
        } else {
            ranges
        };
        let sub = Region::new(ranges)?;
        let v = s.prefix.read(&s.slice, &sub, BoundaryPolicy::Auto, ctx)?;
        Ok((v, EngineKind::PlannedCuboid))
    }

    /// The shape of the underlying cube.
    pub fn shape(&self) -> &Shape {
        self.a.shape()
    }
}

impl<T: NumericValue + PartialOrd + Send + Sync + 'static> RangeEngine<T> for PlannedIndex<T> {
    fn label(&self) -> String {
        format!("planned-index({} structures)", self.structures.len())
    }

    fn shape(&self) -> &Shape {
        self.a.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        if op != EngineOp::Sum {
            return None;
        }
        if self.a.shape().check_region(region).is_err() {
            return Some(f64::INFINITY);
        }
        Some(match self.pick(region) {
            None => region.volume() as f64,
            Some(s) => Self::structure_cost(s, region),
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
                let (v, kind) = self.sum(region, ctx)?;
                Ok(QueryOutcome::aggregate(v, ctx.stats, kind))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_planner::GreedyPlanner;
    use olap_query::{DimSelection, QueryLog};
    use olap_workload::{synthetic_log, uniform_cube, CuboidMix};

    fn cube() -> DenseArray<i64> {
        uniform_cube(Shape::new(&[24, 16, 6]).unwrap(), 100, 3)
    }

    fn naive(a: &DenseArray<i64>, q: &RangeQuery) -> i64 {
        let region = q.to_region(a.shape()).unwrap();
        a.fold_region(&region, 0i64, |s, &x| s + x)
    }

    fn query(sels: Vec<DimSelection>) -> RangeQuery {
        RangeQuery::new(sels).unwrap()
    }

    #[test]
    fn routed_answers_match_naive() {
        let a = cube();
        let choices = [
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0, 1]),
                block: 4,
            },
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0]),
                block: 1,
            },
        ];
        let idx = PlannedIndex::build(a.clone(), &choices).unwrap();
        let queries = [
            // ⟨d0,d1⟩ query → the 2-d structure.
            query(vec![
                DimSelection::span(2, 20).unwrap(),
                DimSelection::span(3, 12).unwrap(),
                DimSelection::All,
            ]),
            // ⟨d0⟩ query → the 1-d structure (cheaper corners).
            query(vec![
                DimSelection::span(5, 19).unwrap(),
                DimSelection::All,
                DimSelection::All,
            ]),
            // ⟨d2⟩ query → no structure; naive fallback.
            query(vec![
                DimSelection::All,
                DimSelection::All,
                DimSelection::span(1, 4).unwrap(),
            ]),
            // Grand total.
            RangeQuery::all(3).unwrap(),
        ];
        for q in &queries {
            let (v, _) = idx.range_sum(q).unwrap();
            assert_eq!(v, naive(&a, q), "{q:?}");
        }
        assert_eq!(
            idx.route(&queries[0]).unwrap().cuboid,
            CuboidId::from_dims(&[0, 1])
        );
        assert_eq!(
            idx.route(&queries[1]).unwrap().cuboid,
            CuboidId::from_dims(&[0])
        );
        assert_eq!(idx.route(&queries[2]), None);
    }

    #[test]
    fn cuboid_structure_is_cheaper_than_base_cube() {
        // A ⟨d0⟩ query through its 1-d structure touches ≤ 2 prefix cells;
        // through the naive base cube it touches the whole sub-cube.
        let a = cube();
        let choices = [PrefixSumChoice {
            cuboid: CuboidId::from_dims(&[0]),
            block: 1,
        }];
        let idx = PlannedIndex::build(a, &choices).unwrap();
        let q = query(vec![
            DimSelection::span(3, 20).unwrap(),
            DimSelection::All,
            DimSelection::All,
        ]);
        let (_, stats) = idx.range_sum(&q).unwrap();
        // The b = 1 blocked decomposition splits the range into an aligned
        // middle (≤ 2 prefix lookups) plus a one-cell tail it reads
        // directly from the 24-cell slice.
        assert!(stats.total_accesses() <= 4, "{stats:?}");
        assert!(stats.a_cells <= 1, "{stats:?}");
    }

    #[test]
    fn planner_to_planned_index_end_to_end() {
        // Run the §9.2 planner on a log, materialize its plan, and verify
        // every logged query agrees with the naive answer and the plan's
        // space accounting matches the materialized structures.
        let a = uniform_cube(Shape::new(&[60, 40, 10]).unwrap(), 50, 9);
        let log: QueryLog = synthetic_log(
            a.shape(),
            &[
                CuboidMix {
                    dims: vec![0, 1],
                    side: 12,
                    count: 30,
                },
                CuboidMix {
                    dims: vec![2],
                    side: 4,
                    count: 10,
                },
            ],
            5,
        );
        let planner = GreedyPlanner::new(a.shape().clone(), log.cuboid_stats(), 5_000.0);
        let plan = planner.plan();
        assert!(!plan.choices.is_empty());
        let idx = PlannedIndex::build(a.clone(), &plan.choices).unwrap();
        assert!(
            (idx.prefix_cells() as f64) <= plan.space_used + 1.0,
            "packed {} vs planned {}",
            idx.prefix_cells(),
            plan.space_used
        );
        for q in log.queries() {
            let (v, _) = idx.range_sum(q).unwrap();
            assert_eq!(v, naive(&a, q));
        }
    }

    #[test]
    fn grand_total_choice_works() {
        let a = cube();
        let choices = [PrefixSumChoice {
            cuboid: CuboidId::empty(),
            block: 1,
        }];
        let idx = PlannedIndex::build(a.clone(), &choices).unwrap();
        let q = RangeQuery::all(3).unwrap();
        let (v, stats) = idx.range_sum(&q).unwrap();
        assert_eq!(v, a.as_slice().iter().sum::<i64>());
        assert!(stats.total_accesses() <= 1);
    }
}
