//! The d-dimensional sparse range-sum engine (§10.2).
//!
//! Build: find rectangular dense regions with the classifier, compute a
//! prefix sum for each dense region, and add the region boundaries — plus
//! every point in no dense region — to an R*-tree. Query: search the
//! R*-tree for intersecting entries; dense regions answer with their
//! prefix sums over the intersection, outlier points contribute directly.

use crate::cube::SparseCube;
use crate::regions::{DenseRegionFinder, RegionFinderParams};
use crate::rstar::RStarTree;
use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, DenseArray, Range, Region, Shape};
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::PrefixSumArray;
use olap_query::QueryCtx;

/// What an R*-tree entry points at.
#[derive(Debug, Clone)]
enum Payload<V> {
    /// Index into the dense-region table.
    Region(usize),
    /// An outlier point's value.
    Point(V),
}

/// A dense region materialized with its own (region-local) prefix sum.
#[derive(Clone)]
struct RegionData<G: AbelianGroup> {
    bounds: Region,
    prefix: PrefixSumArray<G>,
}

/// The sparse range-sum engine.
///
/// # Examples
///
/// ```
/// use olap_array::{Region, Shape};
/// use olap_sparse::{SparseCube, SparseRangeSum};
///
/// let shape = Shape::new(&[100, 100]).unwrap();
/// let mut points = Vec::new();
/// for x in 10..20usize {
///     for y in 10..20usize {
///         points.push((vec![x, y], 1i64)); // a dense 10×10 cluster
///     }
/// }
/// points.push((vec![90, 90], 5)); // an outlier
/// let cube = SparseCube::new(shape, points).unwrap();
/// let engine = SparseRangeSum::build(&cube).unwrap();
/// let q = Region::from_bounds(&[(0, 99), (0, 99)]).unwrap();
/// assert_eq!(engine.range_sum(&q).unwrap(), 100 + 5);
/// assert!(engine.region_count() >= 1);
/// ```
#[derive(Clone)]
pub struct SparseRangeSum<G: AbelianGroup> {
    op: G,
    shape: Shape,
    regions: Vec<RegionData<G>>,
    index: RStarTree<Payload<G::Value>>,
    outliers: usize,
}

impl<T: NumericValue> SparseRangeSum<SumOp<T>> {
    /// Builds the SUM engine with default region-finder parameters.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn build(cube: &SparseCube<T>) -> Result<Self, ArrayError> {
        SparseRangeSum::with_op(cube, SumOp::new(), RegionFinderParams::default())
    }
}

impl<G: AbelianGroup> SparseRangeSum<G> {
    /// Builds the engine under any invertible operator.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn with_op(
        cube: &SparseCube<G::Value>,
        op: G,
        params: RegionFinderParams,
    ) -> Result<Self, ArrayError> {
        let coords: Vec<Vec<usize>> = cube.points().iter().map(|(idx, _)| idx.clone()).collect();
        let finder = DenseRegionFinder::new(params);
        let (found, outlier_ids) = finder.find(cube.shape(), &coords);
        let mut index: RStarTree<Payload<G::Value>> = RStarTree::new(8);
        let mut regions = Vec::with_capacity(found.len());
        for dr in found {
            // Materialize the region-local dense array.
            let local_dims: Vec<usize> = dr.bounds.ranges().iter().map(|r| r.len()).collect();
            let local_shape = Shape::new(&local_dims)?;
            let mut local = DenseArray::filled(local_shape, op.identity());
            for (idx, v) in cube.points_in(&dr.bounds) {
                let local_idx: Vec<usize> = idx
                    .iter()
                    .zip(dr.bounds.ranges())
                    .map(|(&x, r)| x - r.lo())
                    .collect();
                *local.get_mut(&local_idx) = v.clone();
            }
            let prefix = PrefixSumArray::with_op(&local, op.clone());
            index.insert(dr.bounds.clone(), Payload::Region(regions.len()));
            regions.push(RegionData {
                bounds: dr.bounds,
                prefix,
            });
        }
        for (idx, v) in outlier_ids.iter().filter_map(|&oid| cube.points().get(oid)) {
            index.insert(Region::point(idx)?, Payload::Point(v.clone()));
        }
        Ok(SparseRangeSum {
            op,
            shape: cube.shape().clone(),
            regions,
            index,
            outliers: outlier_ids.len(),
        })
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dense regions found.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of outlier points.
    pub fn outlier_count(&self) -> usize {
        self.outliers
    }

    /// Total cells of precomputed prefix-sum storage — the space the
    /// engine saves versus densifying the whole cube.
    pub fn prefix_cells(&self) -> usize {
        self.regions.iter().map(|r| r.bounds.volume()).sum()
    }

    /// Applies point updates `(index, value-to-add)` incrementally:
    /// updates inside a dense region go to that region's prefix sum via
    /// the §5 batch algorithm (grouped per region so Theorem 2 applies);
    /// all others become additional outlier entries in the R*-tree
    /// (duplicates are fine — SUM queries combine every intersecting
    /// entry).
    ///
    /// # Errors
    /// Validates every index against the cube shape.
    pub fn apply_updates(&mut self, updates: &[(Vec<usize>, G::Value)]) -> Result<(), ArrayError> {
        for (idx, _) in updates {
            self.shape.check_index(idx)?;
        }
        // Group updates by the dense region containing them.
        let mut per_region: Vec<Vec<CellUpdate<G::Value>>> = vec![Vec::new(); self.regions.len()];
        let mut outliers: Vec<(Vec<usize>, G::Value)> = Vec::new();
        for (idx, delta) in updates {
            let mut slots = self.regions.iter().zip(per_region.iter_mut());
            match slots.find(|(rd, _)| rd.bounds.contains(idx)) {
                Some((rd, pending)) => {
                    let local: Vec<usize> = idx
                        .iter()
                        .zip(rd.bounds.ranges())
                        .map(|(&x, r)| x - r.lo())
                        .collect();
                    pending.push(CellUpdate::new(&local, delta.clone()));
                }
                None => outliers.push((idx.clone(), delta.clone())),
            }
        }
        for (rd, batch_updates) in self.regions.iter_mut().zip(per_region) {
            if !batch_updates.is_empty() {
                batch::apply_batch(&mut rd.prefix, &batch_updates)?;
            }
        }
        for (idx, delta) in outliers {
            self.index
                .insert(Region::point(&idx)?, Payload::Point(delta));
            self.outliers += 1;
        }
        Ok(())
    }

    /// Audits the engine's structural invariants: dense regions are
    /// pairwise disjoint and inside the cube, the R*-tree is structurally
    /// sound, and its entry count matches regions + outliers.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, a) in self.regions.iter().enumerate() {
            if self.shape.check_region(&a.bounds).is_err() {
                return Err(format!("region {i} outside the cube"));
            }
            for b in self.regions.iter().skip(i + 1) {
                if a.bounds.overlaps(&b.bounds) {
                    return Err(format!("region {i} overlaps another region"));
                }
            }
        }
        self.index.check_invariants()?;
        if self.index.len() != self.regions.len() + self.outliers {
            return Err(format!(
                "index holds {} entries but {} regions + {} outliers exist",
                self.index.len(),
                self.regions.len(),
                self.outliers
            ));
        }
        Ok(())
    }

    /// Answers a range-sum query.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_sum(&self, region: &Region) -> Result<G::Value, ArrayError> {
        self.read(region, &mut QueryCtx::unlimited())
    }

    /// The metered §10.2 read, counting R*-tree node visits and
    /// prefix-sum cell reads: `ctx` is checked first, then charged and
    /// checked at each R*-tree node the search visits and by each dense
    /// region's prefix-sum read.
    ///
    /// # Errors
    /// Validates the region; propagates budget interrupts as
    /// [`ArrayError::Interrupted`].
    #[expect(
        clippy::indexing_slicing,
        reason = "Payload::Region(i) is only ever built from a position in regions"
    )]
    pub fn read(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        self.shape.check_region(region)?;
        let mut hits = Vec::new();
        self.index.search_into(region, &mut hits, ctx)?;
        let mut acc = self.op.identity();
        for (_, payload) in hits {
            match payload {
                Payload::Point(v) => {
                    ctx.stats.read_a(1);
                    acc = self.op.combine(&acc, v);
                }
                Payload::Region(i) => {
                    let rd = &self.regions[*i];
                    // The R*-tree returns intersecting entries only; a region
                    // the query misses would contribute nothing.
                    let Some(inter) = rd.bounds.intersect(region) else {
                        continue;
                    };
                    let local = Region::new(
                        inter
                            .ranges()
                            .iter()
                            .zip(rd.bounds.ranges())
                            .map(|(q, b)| Range::new(q.lo() - b.lo(), q.hi() - b.lo()))
                            .collect::<Result<_, _>>()?,
                    )?;
                    let v = rd.prefix.read(&local, ctx)?;
                    acc = self.op.combine(&acc, &v);
                }
            }
            ctx.stats.step(1);
        }
        ctx.charge()?;
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clustered sparse cube: a dense 12×12 block, a dense 9×9 block,
    /// and scattered noise — the "dense sub-clusters" the paper says are
    /// typical.
    fn clustered_cube() -> SparseCube<i64> {
        let shape = Shape::new(&[200, 200]).unwrap();
        let mut pts = Vec::new();
        for x in 10..22usize {
            for y in 30..42usize {
                pts.push((vec![x, y], ((x * 7 + y) % 9) as i64 + 1));
            }
        }
        for x in 100..109usize {
            for y in 150..159usize {
                pts.push((vec![x, y], ((x + y * 3) % 5) as i64 + 1));
            }
        }
        for i in 0..25usize {
            let x = (i * 83) % 200;
            let y = (i * 59) % 200;
            if pts.iter().all(|(p, _)| p != &vec![x, y]) {
                pts.push((vec![x, y], (i % 7) as i64 + 1));
            }
        }
        SparseCube::new(shape, pts).unwrap()
    }

    fn naive(cube: &SparseCube<i64>, q: &Region) -> i64 {
        cube.points_in(q).map(|(_, v)| *v).sum()
    }

    #[test]
    fn finds_clusters_and_answers_queries() {
        let cube = clustered_cube();
        let engine = SparseRangeSum::build(&cube).unwrap();
        engine.check_invariants().unwrap();
        assert!(
            engine.region_count() >= 2,
            "{} regions",
            engine.region_count()
        );
        let queries = [
            [(0, 199), (0, 199)],
            [(10, 21), (30, 41)],
            [(0, 99), (0, 99)],
            [(15, 104), (35, 154)],
            [(199, 199), (199, 199)],
        ];
        for qb in queries {
            let q = Region::from_bounds(&qb).unwrap();
            assert_eq!(engine.range_sum(&q).unwrap(), naive(&cube, &q), "{q}");
        }
    }

    #[test]
    fn prefix_storage_is_much_smaller_than_dense() {
        let cube = clustered_cube();
        let engine = SparseRangeSum::build(&cube).unwrap();
        // Dense P would need 200·200 = 40000 cells; regions need ~225.
        assert!(
            engine.prefix_cells() < 2_000,
            "{} cells",
            engine.prefix_cells()
        );
    }

    #[test]
    fn cluster_query_uses_prefix_not_scan() {
        let cube = clustered_cube();
        let engine = SparseRangeSum::build(&cube).unwrap();
        let q = Region::from_bounds(&[(11, 20), (31, 40)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| engine.read(&q, ctx)).unwrap();
        assert_eq!(v, naive(&cube, &q));
        // 2^d = 4 prefix cells for the region, plus tree traversal.
        assert!(stats.p_cells <= 8, "{} P cells", stats.p_cells);
    }

    #[test]
    fn pure_noise_cube_works() {
        let shape = Shape::new(&[50, 50, 50]).unwrap();
        let pts: Vec<(Vec<usize>, i64)> = (0..40)
            .map(|i| {
                (
                    vec![(i * 7) % 50, (i * 11) % 50, (i * 13) % 50],
                    (i % 5) as i64 + 1,
                )
            })
            .collect();
        let cube = SparseCube::new(shape, pts).unwrap();
        let engine = SparseRangeSum::build(&cube).unwrap();
        let q = Region::from_bounds(&[(0, 49), (0, 24), (10, 40)]).unwrap();
        assert_eq!(engine.range_sum(&q).unwrap(), naive(&cube, &q));
    }

    #[test]
    fn empty_cube_sums_to_identity() {
        let shape = Shape::new(&[10, 10]).unwrap();
        let cube = SparseCube::new(shape, vec![] as Vec<(Vec<usize>, i64)>).unwrap();
        let engine = SparseRangeSum::build(&cube).unwrap();
        let q = Region::from_bounds(&[(0, 9), (0, 9)]).unwrap();
        assert_eq!(engine.range_sum(&q).unwrap(), 0);
    }

    #[test]
    fn incremental_updates_inside_and_outside_regions() {
        let cube = clustered_cube();
        let mut engine = SparseRangeSum::build(&cube).unwrap();
        let before_outliers = engine.outlier_count();
        // One update inside the first cluster, one at a fresh empty cell,
        // one stacked on an existing outlier location.
        let updates = vec![
            (vec![15usize, 35], 100i64), // inside the 12×12 cluster
            (vec![199, 0], 7),           // fresh cell
            (vec![15, 35], 11),          // same cluster cell again
        ];
        engine.apply_updates(&updates).unwrap();
        engine.check_invariants().unwrap();
        assert!(engine.outlier_count() > before_outliers);
        // Ground truth: the original points plus the deltas.
        let q = Region::from_bounds(&[(0, 199), (0, 199)]).unwrap();
        let expected = naive(&cube, &q) + 100 + 7 + 11;
        assert_eq!(engine.range_sum(&q).unwrap(), expected);
        // A query covering only the cluster sees only its deltas.
        let q = Region::from_bounds(&[(10, 21), (30, 41)]).unwrap();
        let expected = naive(&cube, &q) + 100 + 11;
        assert_eq!(engine.range_sum(&q).unwrap(), expected);
        // A disjoint window is untouched.
        let q = Region::from_bounds(&[(50, 90), (50, 90)]).unwrap();
        assert_eq!(engine.range_sum(&q).unwrap(), naive(&cube, &q));
    }

    #[test]
    fn update_rejects_out_of_shape() {
        let cube = clustered_cube();
        let mut engine = SparseRangeSum::build(&cube).unwrap();
        assert!(engine.apply_updates(&[(vec![200, 0], 1i64)]).is_err());
    }

    #[test]
    fn rejects_bad_region() {
        let cube = clustered_cube();
        let engine = SparseRangeSum::build(&cube).unwrap();
        assert!(engine
            .range_sum(&Region::from_bounds(&[(0, 200), (0, 10)]).unwrap())
            .is_err());
    }
}
