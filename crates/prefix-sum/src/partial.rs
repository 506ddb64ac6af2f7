//! Prefix sums along a **subset** of the dimensions (§9.1).
//!
//! When queries never (or rarely) range over some attributes, computing
//! prefix sums along them only adds corner terms: a query pays a
//! multiplicative factor of 2 per *chosen* dimension and `r_j` (its range
//! length) per *unchosen* one. §9.1's selection algorithms
//! (`olap-planner`) decide the subset `X′`; this structure executes it.
//!
//! With `X′` = all dimensions this is exactly the basic algorithm; with
//! `X′ = ∅` the array equals the cube and a query degenerates to the
//! naive scan — the two endpoints of the trade-off.

use crate::batch::CellUpdate;
use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, DenseArray, Range, Region, Shape};
use olap_query::QueryCtx;

/// A prefix-sum array computed only along the chosen dimensions `X′`.
#[derive(Debug, Clone)]
pub struct PartialPrefixSum<G: AbelianGroup> {
    op: G,
    /// Sorted chosen dimensions.
    dims: Vec<usize>,
    chosen: Vec<bool>,
    p: DenseArray<G::Value>,
}

/// The SUM-specialised partial prefix array.
pub type PartialPrefixCube<T> = PartialPrefixSum<SumOp<T>>;

impl<T: NumericValue> PartialPrefixCube<T> {
    /// Builds the SUM variant with prefix sums along `dims`.
    ///
    /// # Errors
    /// Rejects out-of-range or duplicate dimensions.
    pub fn build(cube: &DenseArray<T>, dims: &[usize]) -> Result<Self, ArrayError> {
        PartialPrefixSum::with_op(cube, SumOp::new(), dims)
    }
}

impl<G: AbelianGroup> PartialPrefixSum<G> {
    /// Builds the array under any invertible operator, scanning only the
    /// chosen axes (`|X′|·N` combine steps).
    ///
    /// # Errors
    /// Rejects out-of-range or duplicate dimensions.
    #[expect(
        clippy::indexing_slicing,
        reason = "j < d is checked before chosen[j] is touched"
    )]
    pub fn with_op(cube: &DenseArray<G::Value>, op: G, dims: &[usize]) -> Result<Self, ArrayError> {
        let d = cube.shape().ndim();
        let mut chosen = vec![false; d];
        for &j in dims {
            if j >= d {
                return Err(ArrayError::OutOfBounds {
                    axis: j,
                    index: j,
                    extent: d,
                });
            }
            if chosen[j] {
                return Err(ArrayError::DimMismatch {
                    expected: d,
                    actual: dims.len(),
                });
            }
            chosen[j] = true;
        }
        let mut p = cube.clone();
        let mut sorted: Vec<usize> = dims.to_vec();
        sorted.sort_unstable();
        for &axis in &sorted {
            p.scan_axis(axis, |a, b| op.combine(a, b));
        }
        Ok(PartialPrefixSum {
            op,
            dims: sorted,
            chosen,
            p,
        })
    }

    /// The chosen dimensions `X′` (sorted).
    pub fn chosen_dims(&self) -> &[usize] {
        &self.dims
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        self.p.shape()
    }

    /// Answers a range-sum query: for every coordinate combination of the
    /// *unchosen* dimensions, one Theorem-1 inclusion–exclusion over the
    /// chosen ones — the §9.1 cost model `∏_{j∉X′} r_j · 2^{|X′|}`.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_sum(&self, region: &Region) -> Result<G::Value, ArrayError> {
        self.read(region, &mut QueryCtx::unlimited())
    }

    /// The metered [`PartialPrefixSum::range_sum`]: checks `ctx` first,
    /// then charges and checks it after each passive cell's gather.
    ///
    /// # Errors
    /// Region validation, or a budget interrupt.
    #[expect(
        clippy::indexing_slicing,
        reason = "the region was checked against the shape, so every dimension j < d indexes chosen and corner; passive_coord has one slot per passive dim"
    )]
    pub fn read(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        self.p.shape().check_region(region)?;
        let d = region.ndim();
        let passive: Vec<usize> = (0..d).filter(|&j| !self.chosen[j]).collect();
        let k = self.dims.len();
        let mut acc = self.op.identity();
        // Odometer over the passive dims' coordinates.
        let mut passive_coord: Vec<usize> = passive.iter().map(|&j| region.range(j).lo()).collect();
        let mut corner = vec![0usize; d];
        'outer: loop {
            // Inclusion–exclusion over the chosen dims with the passive
            // coordinates pinned.
            // Theorem 1 corners over the chosen dims: 2^|X'| gathers, charged once per passive cell
            // below.
            'corners: for mask in 0u64..(1u64 << k) {
                for (pi, &j) in passive.iter().enumerate() {
                    corner[j] = passive_coord[pi];
                }
                for (ci, &j) in self.dims.iter().enumerate() {
                    let r = region.range(j);
                    if (mask >> ci) & 1 == 1 {
                        if r.lo() == 0 {
                            continue 'corners;
                        }
                        corner[j] = r.lo() - 1;
                    } else {
                        corner[j] = r.hi();
                    }
                }
                let term = self.p.get(&corner);
                ctx.stats.read_p(1);
                ctx.stats.step(1);
                if mask.count_ones() % 2 == 0 {
                    acc = self.op.combine(&acc, term);
                } else {
                    acc = self.op.uncombine(&acc, term);
                }
            }
            ctx.charge()?;
            ctx.check()?;
            // Advance the passive odometer.
            let mut axis = passive.len();
            // Odometer advance: at most ndim steps per passive cell.
            loop {
                if axis == 0 {
                    break 'outer;
                }
                axis -= 1;
                let r = region.range(passive[axis]);
                if passive_coord[axis] < r.hi() {
                    passive_coord[axis] += 1;
                    continue 'outer;
                }
                passive_coord[axis] = r.lo();
            }
        }
        Ok(acc)
    }
}

impl<G: AbelianGroup> PartialPrefixSum<G> {
    /// Applies queued updates with the §5 batch algorithm restricted to
    /// the chosen dimensions: an update of `A[x]` affects exactly the
    /// cells with `y_j ≥ x_j` on chosen dimensions and `y_j = x_j` on
    /// unchosen ones, so the Theorem-2 region partition runs on the
    /// chosen-dimension projection with the unchosen coordinates pinned.
    ///
    /// Returns the number of update regions applied.
    ///
    /// # Errors
    /// Rejects out-of-shape update indices.
    #[expect(
        clippy::indexing_slicing,
        reason = "update indices were checked against the shape, so every j < d indexes u.index and chosen; pi counts passive dims and ci chosen ones"
    )]
    pub fn apply_batch(&mut self, updates: &[CellUpdate<G::Value>]) -> Result<usize, ArrayError> {
        for u in updates {
            self.p.shape().check_index(&u.index)?;
        }
        // Group updates by their unchosen-coordinate signature; each group
        // is an independent Theorem-2 instance on the chosen subspace.
        let passive: Vec<usize> = (0..self.p.shape().ndim())
            .filter(|&j| !self.chosen[j])
            .collect();
        let mut groups: std::collections::BTreeMap<Vec<usize>, Vec<&CellUpdate<G::Value>>> =
            std::collections::BTreeMap::new();
        for u in updates {
            let key: Vec<usize> = passive.iter().map(|&j| u.index[j]).collect();
            groups.entry(key).or_default().push(u);
        }
        let chosen_dims: Vec<usize> = self.dims.iter().map(|&j| self.p.shape().dim(j)).collect();
        let mut regions_applied = 0usize;
        for (passive_coords, group) in groups {
            if self.dims.is_empty() {
                // No chosen dimensions: P == A; apply point-wise.
                for u in group {
                    let cur = self.p.get(&u.index).clone();
                    *self.p.get_mut(&u.index) = self.op.combine(&cur, &u.delta);
                    regions_applied += 1;
                }
                continue;
            }
            let chosen_shape = Shape::new(&chosen_dims)?;
            let projected: Vec<CellUpdate<G::Value>> = group
                .iter()
                .map(|u| {
                    let idx: Vec<usize> = self.dims.iter().map(|&j| u.index[j]).collect();
                    CellUpdate::new(&idx, u.delta.clone())
                })
                .collect();
            let plan = crate::batch::plan_regions(&chosen_shape, &self.op, &projected)?;
            regions_applied += plan.len();
            for (sub_region, delta) in plan {
                // Lift the chosen-subspace region into full coordinates.
                let mut ranges: Vec<Range> = Vec::with_capacity(self.p.shape().ndim());
                let mut ci = 0usize;
                let mut pi = 0usize;
                for j in 0..self.p.shape().ndim() {
                    if self.chosen[j] {
                        ranges.push(sub_region.range(ci));
                        ci += 1;
                    } else {
                        ranges.push(Range::singleton(passive_coords[pi]));
                        pi += 1;
                    }
                }
                let region = Region::new(ranges)?;
                for off in self.p.region_offsets(&region) {
                    let cur = self.p.get_flat(off).clone();
                    *self.p.get_flat_mut(off) = self.op.combine(&cur, &delta);
                }
            }
        }
        Ok(regions_applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[6, 5, 4]).unwrap(), |i| {
            (i[0] * 11 + i[1] * 5 + i[2] * 3) as i64 % 17 - 8
        })
    }

    fn naive(a: &DenseArray<i64>, q: &Region) -> i64 {
        a.fold_region(q, 0i64, |s, &x| s + x)
    }

    #[test]
    fn matches_naive_for_every_subset() {
        let a = cube();
        let queries = [
            [(0, 5), (0, 4), (0, 3)],
            [(1, 4), (2, 2), (1, 3)],
            [(5, 5), (0, 4), (2, 2)],
            [(0, 2), (3, 4), (0, 0)],
        ];
        for mask in 0u32..8 {
            let dims: Vec<usize> = (0..3).filter(|&j| (mask >> j) & 1 == 1).collect();
            let pp = PartialPrefixCube::build(&a, &dims).unwrap();
            for qb in queries {
                let q = Region::from_bounds(&qb).unwrap();
                assert_eq!(pp.range_sum(&q).unwrap(), naive(&a, &q), "X'={dims:?} {q}");
            }
        }
    }

    #[test]
    fn cost_matches_section_9_1_model() {
        // Factors: 2 per chosen dim (with interior bounds so no corner
        // vanishes), r_j per passive dim.
        let a = cube();
        let pp = PartialPrefixCube::build(&a, &[0, 2]).unwrap();
        let q = Region::from_bounds(&[(1, 4), (1, 3), (1, 2)]).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| pp.read(&q, ctx)).unwrap();
        // Passive dim 1 has r = 3; chosen dims contribute 2 each.
        assert_eq!(stats.p_cells, (3 * 2 * 2) as u64);
    }

    #[test]
    fn all_dims_equals_basic_algorithm() {
        let a = cube();
        let pp = PartialPrefixCube::build(&a, &[0, 1, 2]).unwrap();
        let basic = crate::PrefixSumCube::build(&a);
        let q = Region::from_bounds(&[(1, 4), (0, 3), (2, 3)]).unwrap();
        let (v1, s1) = QueryCtx::measure(|ctx| pp.read(&q, ctx)).unwrap();
        let (v2, s2) = QueryCtx::measure(|ctx| basic.read(&q, ctx)).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(s1.p_cells, s2.p_cells);
    }

    #[test]
    fn no_dims_is_a_scan() {
        let a = cube();
        let pp = PartialPrefixCube::build(&a, &[]).unwrap();
        let q = Region::from_bounds(&[(1, 2), (1, 2), (1, 2)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| pp.read(&q, ctx)).unwrap();
        assert_eq!(v, naive(&a, &q));
        assert_eq!(stats.p_cells, q.volume() as u64);
    }

    #[test]
    fn batch_update_equals_rebuild_for_every_subset() {
        let a = cube();
        let updates = [
            CellUpdate::new(&[0, 0, 0], 5),
            CellUpdate::new(&[5, 4, 3], -2),
            CellUpdate::new(&[2, 2, 1], 9),
            CellUpdate::new(&[2, 0, 1], 4),
        ];
        for mask in 0u32..8 {
            let dims: Vec<usize> = (0..3).filter(|&j| (mask >> j) & 1 == 1).collect();
            let mut pp = PartialPrefixCube::build(&a, &dims).unwrap();
            pp.apply_batch(&updates).unwrap();
            let mut a2 = a.clone();
            for u in &updates {
                *a2.get_mut(&u.index) += u.delta;
            }
            let rebuilt = PartialPrefixCube::build(&a2, &dims).unwrap();
            let q = a2.shape().full_region();
            assert_eq!(
                pp.range_sum(&q).unwrap(),
                rebuilt.range_sum(&q).unwrap(),
                "X'={dims:?}"
            );
            // Spot-check sub-queries too.
            let q = Region::from_bounds(&[(1, 4), (0, 3), (1, 2)]).unwrap();
            assert_eq!(pp.range_sum(&q).unwrap(), rebuilt.range_sum(&q).unwrap());
        }
    }

    #[test]
    fn rejects_bad_dims() {
        let a = cube();
        assert!(PartialPrefixCube::build(&a, &[3]).is_err());
        assert!(PartialPrefixCube::build(&a, &[1, 1]).is_err());
    }

    #[test]
    fn unsorted_dims_accepted() {
        let a = cube();
        let pp = PartialPrefixCube::build(&a, &[2, 0]).unwrap();
        assert_eq!(pp.chosen_dims(), &[0, 2]);
        let q = Region::from_bounds(&[(0, 5), (1, 3), (0, 3)]).unwrap();
        assert_eq!(pp.range_sum(&q).unwrap(), naive(&a, &q));
    }
}
