//! Tree hierarchies for range-**sum** queries — the baseline of §8.
//!
//! §8 asks whether the block tree used for range-max is a good structure
//! for range-sum too: each node stores the sum over the region it covers,
//! and a query adds (and, "for a fair comparison", subtracts) node values
//! that collectively tile the query region. Crucially the branch-and-bound
//! optimisation of §6 **cannot** apply to SUM, and the paper's cost
//! analysis shows the structure is strictly worse than prefix sums:
//!
//! - prefix-sum cost ≈ `2^d + S·F(b)`,
//! - tree cost ≈ `F(b) · Σ_{k=0}^{t−1} S / b^{k(d−1)}`,
//!
//! with `F(b) ≈ b/4`. This crate implements the tree so the comparison
//! (Figure 11) can be *measured*, not just modelled. The complement
//! optimisation ("subtraction may be used") is a toggle so the fair and
//! unfair variants can both be benchmarked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors, so clippy denies every
// panicking escape hatch outside test builds. A site whose bound is an
// invariant carries `#[expect(clippy::…, reason = "…")]` on the narrowest
// item that holds it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, DenseArray, Range, Region, Shape};
use olap_query::QueryCtx;

/// One level of the sum tree: a contracted array whose cells hold the sum
/// over the covered block.
#[derive(Debug, Clone)]
struct Level<V> {
    shape: Shape,
    sums: Box<[V]>,
}

/// A block tree whose nodes store region sums (§8).
///
/// # Examples
///
/// ```
/// use olap_array::{DenseArray, Region, Shape};
/// use olap_tree_sum::SumTreeCube;
///
/// let cube = DenseArray::from_fn(Shape::new(&[16]).unwrap(), |i| i[0] as i64);
/// let tree = SumTreeCube::build(&cube, 2).unwrap();
/// let q = Region::from_bounds(&[(3, 12)]).unwrap();
/// assert_eq!(tree.range_sum(&cube, &q).unwrap(), (3..=12).sum::<i64>());
/// ```
#[derive(Debug, Clone)]
pub struct SumTree<G: AbelianGroup> {
    op: G,
    shape: Shape,
    b: usize,
    levels: Vec<Level<G::Value>>,
}

/// The SUM-specialised tree.
pub type SumTreeCube<T> = SumTree<SumOp<T>>;

impl<T: NumericValue> SumTreeCube<T> {
    /// Builds the SUM tree with per-dimension fanout `b`.
    ///
    /// # Errors
    /// Rejects `b < 2` (the tree must shrink per level).
    pub fn build(a: &DenseArray<T>, b: usize) -> Result<Self, ArrayError> {
        SumTree::with_op(a, SumOp::new(), b)
    }
}

impl<G: AbelianGroup> SumTree<G> {
    /// Builds the tree bottom-up: level 1 contracts `A` by `b` (block
    /// sums), level `i+1` contracts level `i`.
    ///
    /// # Errors
    /// Rejects `b < 2` via [`ArrayError::ZeroBlock`]-style validation.
    pub fn with_op(a: &DenseArray<G::Value>, op: G, b: usize) -> Result<Self, ArrayError> {
        if b < 2 {
            return Err(ArrayError::ZeroBlock);
        }
        let shape = a.shape().clone();
        let mut levels: Vec<Level<G::Value>> = Vec::new();
        loop {
            let done = match levels.last() {
                None => shape.dims().iter().all(|&n| n == 1),
                Some(l) => l.shape.dims().iter().all(|&n| n == 1),
            };
            if done {
                break;
            }
            let next = match levels.last() {
                None => a.contract_blocks(b, op.identity(), |acc, x, _| op.combine(acc, x))?,
                Some(l) => {
                    let arr = DenseArray::from_vec(l.shape.clone(), l.sums.to_vec())?;
                    arr.contract_blocks(b, op.identity(), |acc, x, _| op.combine(acc, x))?
                }
            };
            let (s, v) = (next.shape().clone(), next.as_slice().to_vec());
            levels.push(Level {
                shape: s,
                sums: v.into(),
            });
        }
        Ok(SumTree {
            op,
            shape,
            b,
            levels,
        })
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Per-dimension fanout.
    pub fn fanout(&self) -> usize {
        self.b
    }

    /// Tree height (levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total precomputed nodes — the structure's space overhead, which §8
    /// compares against a blocked prefix sum of the same `b`.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(|l| l.sums.len()).sum()
    }

    /// The stored sum of the node with coordinates `coords` at `level`
    /// (1-based; level 0 is the cube itself), or `None` outside the tree.
    pub fn node_sum(&self, level: usize, coords: &[usize]) -> Option<&G::Value> {
        let l = self.levels.get(level.checked_sub(1)?)?;
        l.shape.check_index(coords).ok()?;
        l.sums.get(l.shape.flatten(coords))
    }

    /// Maintains the tree under point updates of the cube: each
    /// `(cell index, value-to-add)` is combined into the [`height`] nodes
    /// on that cell's leaf-to-root path — one node per level, so `k`
    /// deltas cost `k · height()` node writes however large the cube is.
    /// The cube itself is not stored here; the caller updates it. The
    /// result is the tree [`SumTree::with_op`] would build over the
    /// updated cube. Returns the number of nodes written.
    ///
    /// # Errors
    /// Validates every index before the first write.
    ///
    /// [`height`]: SumTree::height
    #[expect(
        clippy::indexing_slicing,
        reason = "indices were checked against the cube, so each contracted coordinate lies inside its level's shape"
    )]
    pub fn apply_deltas<'a, I>(&mut self, deltas: I) -> Result<u64, ArrayError>
    where
        I: IntoIterator<Item = (&'a [usize], &'a G::Value)>,
        I::IntoIter: Clone,
        G::Value: 'a,
    {
        let deltas = deltas.into_iter();
        for (index, _) in deltas.clone() {
            self.shape.check_index(index)?;
        }
        let b = self.b;
        let mut coords = vec![0usize; self.shape.ndim()];
        let mut written = 0u64;
        for (index, delta) in deltas {
            coords.copy_from_slice(index);
            for level in &mut self.levels {
                for c in coords.iter_mut() {
                    *c /= b;
                }
                let flat = level.shape.flatten(&coords);
                level.sums[flat] = self.op.combine(&level.sums[flat], delta);
                written += 1;
            }
        }
        Ok(written)
    }

    /// The region of `A` covered by a node (level 0 = a cell).
    fn node_region(&self, level: usize, coords: &[usize]) -> Result<Region, ArrayError> {
        let side = self.b.pow(level as u32);
        let ranges = coords
            .iter()
            .zip(self.shape.dims())
            .map(|(&c, &n)| Range::new(c * side, ((c + 1) * side - 1).min(n - 1)))
            .collect::<Result<Vec<_>, _>>()?;
        Region::new(ranges)
    }

    /// Answers a range-sum query by tree traversal.
    ///
    /// # Errors
    /// Validates the region and cube shape.
    pub fn range_sum(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
    ) -> Result<G::Value, ArrayError> {
        self.read(a, region, true, &mut QueryCtx::unlimited())
    }

    /// The metered traversal: `use_complement` enables the subtraction
    /// trick the paper grants the tree for a fair comparison. `ctx` is
    /// checked before the traversal and at every internal node, and
    /// charged one access per node visit or cube-cell read as it happens.
    ///
    /// # Errors
    /// Validates the region and cube shape; propagates budget interrupts
    /// as [`ArrayError::Interrupted`].
    pub fn read(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
        use_complement: bool,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        self.shape.check_same(a.shape())?;
        self.shape.check_region(region)?;
        // Start at the lowest node covering the query (same addressing as
        // the max tree).
        let mut level = 1;
        while level < self.height() {
            let side = self.b.pow(level as u32);
            if region
                .ranges()
                .iter()
                .all(|r| r.lo() / side == r.hi() / side)
            {
                break;
            }
            level += 1;
        }
        if self.height() == 0 {
            // Single-cell cube.
            ctx.stats.read_a(1);
            ctx.charge()?;
            return Ok(a.get_flat(0).clone());
        }
        let side = self.b.pow(level as u32);
        let coords: Vec<usize> = region.lower_corner().iter().map(|&l| l / side).collect();
        self.sum_in(a, level, &coords, region, use_complement, ctx)
    }

    /// Sum over `region`, which must be a non-empty box inside `C(node)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the §6 walk passes 1 <= level <= height and coordinates inside that level's shape"
    )]
    fn sum_in(
        &self,
        a: &DenseArray<G::Value>,
        level: usize,
        coords: &[usize],
        region: &Region,
        use_complement: bool,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<G::Value, ArrayError> {
        let covered = self.node_region(level, coords)?;
        debug_assert!(covered.contains_region(region));
        if &covered == region {
            if level == 0 {
                ctx.stats.read_a(1);
                ctx.charge()?;
                return Ok(a.get(coords).clone());
            }
            ctx.stats.visit_nodes(1);
            ctx.charge()?;
            let l = &self.levels[level - 1];
            return Ok(l.sums[l.shape.flatten(coords)].clone());
        }
        debug_assert!(level >= 1, "level-0 node region is a single cell");
        let vol = region.volume();
        let comp_vol = covered.volume() - vol;
        if use_complement && comp_vol < vol {
            // Node total minus the holes.
            ctx.stats.visit_nodes(1);
            ctx.charge()?;
            let l = &self.levels[level - 1];
            let mut acc = l.sums[l.shape.flatten(coords)].clone();
            for hole in covered.subtract(region) {
                let h = self.sum_children(a, level, coords, &hole, use_complement, ctx)?;
                acc = self.op.uncombine(&acc, &h);
            }
            Ok(acc)
        } else {
            self.sum_children(a, level, coords, region, use_complement, ctx)
        }
    }

    /// Sums `box_region` (⊆ `C(node)`) by recursing into the node's
    /// children that intersect it.
    #[expect(
        clippy::indexing_slicing,
        reason = "2 <= level <= height here, and the odometer's lo/hi/cur share the rank"
    )]
    fn sum_children(
        &self,
        a: &DenseArray<G::Value>,
        level: usize,
        coords: &[usize],
        box_region: &Region,
        use_complement: bool,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        let child_dims: Vec<usize> = if level == 1 {
            self.shape.dims().to_vec()
        } else {
            self.levels[level - 2].shape.dims().to_vec()
        };
        let lo: Vec<usize> = coords.iter().map(|&c| c * self.b).collect();
        let hi: Vec<usize> = coords
            .iter()
            .zip(&child_dims)
            .map(|(&c, &n)| ((c + 1) * self.b - 1).min(n - 1))
            .collect();
        let mut acc = self.op.identity();
        let mut cur = lo.clone();
        loop {
            let child_covered = if level == 1 {
                Region::point(&cur)?
            } else {
                self.node_region(level - 1, &cur)?
            };
            if let Some(inter) = child_covered.intersect(box_region) {
                let v = self.sum_in(a, level - 1, &cur, &inter, use_complement, ctx)?;
                acc = self.op.combine(&acc, &v);
                ctx.stats.step(1);
            }
            let mut axis = cur.len();
            // Odometer advance: at most ndim steps per child; sum_in charges the meter per node.
            loop {
                if axis == 0 {
                    return Ok(acc);
                }
                axis -= 1;
                if cur[axis] < hi[axis] {
                    cur[axis] += 1;
                    break;
                }
                cur[axis] = lo[axis];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube2d() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[9, 9]).unwrap(), |i| {
            (i[0] * 17 + i[1] * 5) as i64 % 13 - 6
        })
    }

    #[test]
    fn exhaustive_one_dim() {
        let a = DenseArray::from_fn(Shape::new(&[14]).unwrap(), |i| (i[0] * 7 % 11) as i64 - 5);
        let t = SumTreeCube::build(&a, 3).unwrap();
        for l in 0..14 {
            for h in l..14 {
                let q = Region::from_bounds(&[(l, h)]).unwrap();
                let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
                for comp in [true, false] {
                    let (v, _) = QueryCtx::measure(|ctx| t.read(&a, &q, comp, ctx)).unwrap();
                    assert_eq!(v, naive, "{q} complement={comp}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_two_dim() {
        let a = cube2d();
        for b in [2usize, 3] {
            let t = SumTreeCube::build(&a, b).unwrap();
            for l0 in 0..9 {
                for h0 in l0..9 {
                    for l1 in (0..9).step_by(2) {
                        for h1 in (l1..9).step_by(2) {
                            let q = Region::from_bounds(&[(l0, h0), (l1, h1)]).unwrap();
                            let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
                            assert_eq!(t.range_sum(&a, &q).unwrap(), naive, "b={b} {q}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node_count_is_geometric() {
        let a = DenseArray::filled(Shape::new(&[16, 16]).unwrap(), 1i64);
        let t = SumTreeCube::build(&a, 2).unwrap();
        // Levels: 8², 4², 2², 1² = 64 + 16 + 4 + 1.
        assert_eq!(t.height(), 4);
        assert_eq!(t.node_count(), 64 + 16 + 4 + 1);
    }

    #[test]
    fn aligned_node_query_is_one_access() {
        let a = DenseArray::filled(Shape::new(&[16]).unwrap(), 2i64);
        let t = SumTreeCube::build(&a, 2).unwrap();
        let q = Region::from_bounds(&[(8, 15)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, true, ctx)).unwrap();
        assert_eq!(v, 16);
        assert_eq!(stats.total_accesses(), 1);
    }

    #[test]
    fn complement_helps_near_full_queries() {
        let a = DenseArray::from_fn(Shape::new(&[81]).unwrap(), |i| i[0] as i64);
        let t = SumTreeCube::build(&a, 3).unwrap();
        let q = Region::from_bounds(&[(1, 79)]).unwrap();
        let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
        let (v1, with) = QueryCtx::measure(|ctx| t.read(&a, &q, true, ctx)).unwrap();
        let (v2, without) = QueryCtx::measure(|ctx| t.read(&a, &q, false, ctx)).unwrap();
        assert_eq!(v1, naive);
        assert_eq!(v2, naive);
        assert!(with.total_accesses() <= without.total_accesses());
    }

    #[test]
    fn three_dim_correctness() {
        let a = DenseArray::from_fn(Shape::new(&[5, 6, 7]).unwrap(), |i| {
            (i[0] * 3 + i[1] * 5 + i[2] * 7) as i64 % 11 - 5
        });
        let t = SumTreeCube::build(&a, 2).unwrap();
        let queries = [
            [(0, 4), (0, 5), (0, 6)],
            [(1, 3), (2, 4), (3, 5)],
            [(4, 4), (5, 5), (6, 6)],
            [(0, 0), (0, 5), (2, 3)],
        ];
        for qb in queries {
            let q = Region::from_bounds(&qb).unwrap();
            let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
            for comp in [true, false] {
                let (v, _) = QueryCtx::measure(|ctx| t.read(&a, &q, comp, ctx)).unwrap();
                assert_eq!(v, naive, "{q}");
            }
        }
    }

    #[test]
    fn rejects_bad_input() {
        let a = cube2d();
        let t = SumTreeCube::build(&a, 3).unwrap();
        assert!(t
            .range_sum(&a, &Region::from_bounds(&[(0, 9), (0, 8)]).unwrap())
            .is_err());
        assert!(SumTreeCube::build(&a, 1).is_err());
        let q = Region::from_bounds(&[(0, 2), (0, 2)]).unwrap();
        let other = DenseArray::filled(Shape::new(&[3]).unwrap(), 0i64);
        assert_eq!(
            t.range_sum(&other, &q),
            Err(ArrayError::DimMismatch {
                expected: 2,
                actual: 1
            })
        );
        // Same rank, different extents: the axis and both extents, not
        // "expected 2 dimensions, got 2".
        let other = DenseArray::filled(Shape::new(&[11, 9]).unwrap(), 0i64);
        assert_eq!(
            t.range_sum(&other, &q),
            Err(ArrayError::OutOfBounds {
                axis: 0,
                index: 11,
                extent: 9
            })
        );
    }

    #[test]
    fn budget_exhaustion_interrupts_traversal() {
        use olap_array::{Interrupt, QueryBudget};
        let a = cube2d();
        let t = SumTreeCube::build(&a, 3).unwrap();
        let q = Region::from_bounds(&[(1, 7), (2, 8)]).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, true, ctx)).unwrap();
        let needed = stats.a_cells + stats.tree_nodes;
        // One access short of what the traversal needs: must be cut off.
        let meter = QueryBudget::unlimited()
            .max_accesses(needed.saturating_sub(1))
            .start(None);
        let err = t
            .read(&a, &q, true, &mut QueryCtx::new(&meter))
            .unwrap_err();
        assert!(matches!(
            err,
            ArrayError::Interrupted(Interrupt::BudgetExhausted { .. })
        ));
        // A sufficient budget answers identically to the unbudgeted path.
        let meter = QueryBudget::unlimited().max_accesses(needed).start(None);
        let mut ctx = QueryCtx::new(&meter);
        let (v, s) = (t.read(&a, &q, true, &mut ctx).unwrap(), ctx.stats);
        let (v0, s0) = QueryCtx::measure(|ctx| t.read(&a, &q, true, ctx)).unwrap();
        assert_eq!(v, v0);
        assert_eq!(s.total_accesses(), s0.total_accesses());
    }

    #[test]
    fn zero_deadline_kills_before_traversal() {
        use olap_array::{Interrupt, QueryBudget};
        let a = cube2d();
        let t = SumTreeCube::build(&a, 3).unwrap();
        let q = Region::from_bounds(&[(0, 8), (0, 8)]).unwrap();
        let meter = QueryBudget::unlimited()
            .deadline(std::time::Duration::ZERO)
            .start(None);
        let err = t
            .read(&a, &q, true, &mut QueryCtx::new(&meter))
            .unwrap_err();
        assert!(matches!(
            err,
            ArrayError::Interrupted(Interrupt::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn single_cell_cube() {
        let a = DenseArray::filled(Shape::new(&[1]).unwrap(), 7i64);
        let t = SumTreeCube::build(&a, 2).unwrap();
        let q = Region::from_bounds(&[(0, 0)]).unwrap();
        assert_eq!(t.range_sum(&a, &q).unwrap(), 7);
    }
}
