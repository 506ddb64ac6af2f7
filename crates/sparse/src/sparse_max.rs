//! Range-max over sparse cubes (§10.3).
//!
//! The paper observes that for range-max the static fixed-fanout tree can
//! be replaced by "any other tree structure" without affecting
//! correctness, and recommends an R-tree for sparse cubes, traversed from
//! the root (the lowest-covering-node trick needs fixed fanout). This
//! module bulk-loads a balanced R-tree over the non-empty points, caches
//! the maximum value per node, and answers queries with the same
//! branch-and-bound rule as §6: a subtree is pruned when it cannot
//! intersect the query or cannot beat the running maximum.

use crate::cube::SparseCube;
use olap_aggregate::{NaturalOrder, TotalOrder};
use olap_array::{ArrayError, Interrupt, Region, Shape};
use olap_query::QueryCtx;

const FANOUT: usize = 8;

/// `(index, value)` of a maximal point, when the region holds any.
pub type MaxResult<V> = Option<(Vec<usize>, V)>;

#[derive(Debug, Clone)]
enum MNode<V> {
    Leaf(Vec<(Vec<usize>, V)>),
    Internal(Vec<Child<V>>),
}

#[derive(Debug, Clone)]
struct Child<V> {
    mbr: Region,
    max: V,
    node: MNode<V>,
}

/// The sparse range-max engine.
#[derive(Debug, Clone)]
pub struct SparseRangeMax<O: TotalOrder> {
    order: O,
    shape: Shape,
    root: Option<Child<O::Value>>,
}

impl<T> SparseRangeMax<NaturalOrder<T>>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
    T: Clone,
{
    /// Builds the engine under the natural order of the value type.
    pub fn build(cube: &SparseCube<T>) -> Self {
        SparseRangeMax::with_order(cube, NaturalOrder::new())
    }
}

impl<O: TotalOrder> SparseRangeMax<O> {
    /// Builds the engine under any total order.
    pub fn with_order(cube: &SparseCube<O::Value>, order: O) -> Self {
        let points: Vec<(Vec<usize>, O::Value)> = cube.points().to_vec();
        let root = if points.is_empty() {
            None
        } else {
            Some(Self::bulk_load(points, &order))
        };
        SparseRangeMax {
            order,
            shape: cube.shape().clone(),
            root,
        }
    }

    /// Recursive sort-tile bulk load: split the point set along its widest
    /// axis into up to `FANOUT` equal chunks until chunks fit in a leaf.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "bulk_load only runs on a non-empty point set whose points share a rank d >= 1"
    )]
    fn bulk_load(points: Vec<(Vec<usize>, O::Value)>, order: &O) -> Child<O::Value> {
        let mbr = points
            .iter()
            .map(|(p, _)| Region::point(p).expect("d ≥ 1"))
            .reduce(|a, b| a.bounding_union(&b))
            .expect("non-empty");
        let max = points
            .iter()
            .map(|(_, v)| v.clone())
            .reduce(|a, b| if order.ge(&a, &b) { a } else { b })
            .expect("non-empty");
        if points.len() <= FANOUT {
            return Child {
                mbr,
                max,
                node: MNode::Leaf(points),
            };
        }
        // Widest axis of the MBR.
        let axis = mbr
            .ranges()
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.len())
            .map(|(i, _)| i)
            .expect("d ≥ 1");
        let mut points = points;
        points.sort_by_key(|(p, _)| p[axis]);
        let chunks = FANOUT.min(points.len().div_ceil(FANOUT)).max(2);
        let per = points.len().div_ceil(chunks);
        let mut children = Vec::with_capacity(chunks);
        while !points.is_empty() {
            let rest = points.split_off(points.len().min(per));
            let chunk = std::mem::replace(&mut points, rest);
            children.push(Self::bulk_load(chunk, order));
        }
        Child {
            mbr,
            max,
            node: MNode::Internal(children),
        }
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Audits the tree's structural invariants: every node's MBR contains
    /// its children's, the cached max dominates the subtree, and every
    /// point is inside the cube.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk<O: TotalOrder>(
            order: &O,
            child: &Child<O::Value>,
            shape: &Shape,
        ) -> Result<(), String> {
            match &child.node {
                MNode::Leaf(points) => {
                    for (p, v) in points {
                        if !shape.contains(p) {
                            return Err(format!("point {p:?} outside the cube"));
                        }
                        if !child.mbr.contains(p) {
                            return Err(format!("point {p:?} outside its MBR"));
                        }
                        if order.gt(v, &child.max) {
                            return Err("cached max beaten by a leaf".into());
                        }
                    }
                }
                MNode::Internal(children) => {
                    for c in children {
                        if !child.mbr.contains_region(&c.mbr) {
                            return Err("child MBR escapes the parent".into());
                        }
                        if order.gt(&c.max, &child.max) {
                            return Err("cached max beaten by a child".into());
                        }
                        walk(order, c, shape)?;
                    }
                }
            }
            Ok(())
        }
        match &self.root {
            None => Ok(()),
            Some(root) => walk(&self.order, root, &self.shape),
        }
    }

    /// Finds the maximum value (and one of its indices) among the
    /// non-empty cells inside `region`; `None` when the region holds no
    /// points.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_max(&self, region: &Region) -> Result<MaxResult<O::Value>, ArrayError> {
        self.read(region, &mut QueryCtx::unlimited())
    }

    /// The metered [`SparseRangeMax::range_max`], counting node visits:
    /// `ctx` is checked first, then charged at every node the search
    /// visits and checked at every node it expands.
    ///
    /// # Errors
    /// Validates the region; propagates budget interrupts as
    /// [`ArrayError::Interrupted`].
    pub fn read(
        &self,
        region: &Region,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<MaxResult<O::Value>, ArrayError> {
        ctx.check()?;
        self.shape.check_region(region)?;
        let mut best: Option<(Vec<usize>, O::Value)> = None;
        if let Some(root) = &self.root {
            self.search(root, region, &mut best, ctx)?;
        }
        ctx.charge()?;
        Ok(best)
    }

    fn search(
        &self,
        child: &Child<O::Value>,
        region: &Region,
        best: &mut Option<(Vec<usize>, O::Value)>,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<(), Interrupt> {
        ctx.stats.visit_nodes(1);
        ctx.charge()?;
        if !child.mbr.overlaps(region) {
            return Ok(());
        }
        // Branch-and-bound: the cached max cannot beat the running best.
        if let Some((_, bv)) = best {
            if !self.order.gt(&child.max, bv) {
                return Ok(());
            }
        }
        ctx.check()?;
        match &child.node {
            MNode::Leaf(points) => {
                // One leaf's points, at most FANOUT; only the leaf's visit is an access, charged on
                // entry.
                for (p, v) in points {
                    ctx.stats.step(1);
                    if region.contains(p) {
                        let better = match best {
                            None => true,
                            Some((_, bv)) => self.order.gt(v, bv),
                        };
                        if better {
                            *best = Some((p.clone(), v.clone()));
                        }
                    }
                }
            }
            MNode::Internal(children) => {
                // Visit promising children first: decreasing cached max.
                let mut by_max: Vec<&Child<O::Value>> = children.iter().collect();
                by_max.sort_by(|x, y| self.order.cmp_values(&y.max, &x.max));
                for c in by_max {
                    self.search(c, region, best, ctx)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> SparseCube<i64> {
        let shape = Shape::new(&[300, 300]).unwrap();
        let mut pts = Vec::new();
        for i in 0..400usize {
            let x = (i * 83) % 300;
            let y = (i * 127) % 300;
            if pts
                .iter()
                .all(|(p, _): &(Vec<usize>, i64)| p != &vec![x, y])
            {
                pts.push((vec![x, y], ((i * 31) % 997) as i64 - 200));
            }
        }
        SparseCube::new(shape, pts).unwrap()
    }

    fn naive(cube: &SparseCube<i64>, q: &Region) -> Option<(Vec<usize>, i64)> {
        cube.points_in(q)
            .max_by_key(|(_, v)| *v)
            .map(|(p, v)| (p.clone(), *v))
    }

    #[test]
    fn matches_naive_on_many_queries() {
        let c = cube();
        let engine = SparseRangeMax::build(&c);
        engine.check_invariants().unwrap();
        for i in 0..40usize {
            let x0 = (i * 37) % 250;
            let y0 = (i * 53) % 250;
            let q = Region::from_bounds(&[(x0, x0 + 49), (y0, y0 + 49)]).unwrap();
            let got = engine.range_max(&q).unwrap();
            let want = naive(&c, &q);
            match (got, want) {
                (None, None) => {}
                (Some((gp, gv)), Some((_, wv))) => {
                    assert_eq!(gv, wv, "{q}");
                    assert!(q.contains(&gp));
                }
                (g, w) => panic!("{q}: got {g:?}, want {w:?}"),
            }
        }
    }

    #[test]
    fn full_region_finds_global_max() {
        let c = cube();
        let engine = SparseRangeMax::build(&c);
        let q = c.shape().full_region();
        let (got, stats) = QueryCtx::measure(|ctx| engine.read(&q, ctx)).unwrap();
        let want = naive(&c, &q).unwrap();
        assert_eq!(got.unwrap().1, want.1);
        // Branch-and-bound: nowhere near one visit per point.
        assert!(stats.tree_nodes < 100, "visited {}", stats.tree_nodes);
    }

    #[test]
    fn empty_region_returns_none() {
        let shape = Shape::new(&[100, 100]).unwrap();
        let c = SparseCube::new(shape, vec![(vec![0usize, 0], 1i64)]).unwrap();
        let engine = SparseRangeMax::build(&c);
        let q = Region::from_bounds(&[(50, 60), (50, 60)]).unwrap();
        assert_eq!(engine.range_max(&q).unwrap(), None);
    }

    #[test]
    fn empty_cube() {
        let shape = Shape::new(&[10]).unwrap();
        let c = SparseCube::new(shape, vec![] as Vec<(Vec<usize>, i64)>).unwrap();
        let engine = SparseRangeMax::build(&c);
        assert_eq!(
            engine
                .range_max(&Region::from_bounds(&[(0, 9)]).unwrap())
                .unwrap(),
            None
        );
    }

    #[test]
    fn min_via_reverse_order() {
        use olap_aggregate::ReverseOrder;
        let c = cube();
        let engine = SparseRangeMax::with_order(&c, ReverseOrder::new(NaturalOrder::<i64>::new()));
        let q = c.shape().full_region();
        let got = engine.range_max(&q).unwrap().unwrap();
        let want = c.points().iter().map(|(_, v)| *v).min().unwrap();
        assert_eq!(got.1, want);
    }

    #[test]
    fn three_dimensional_points() {
        let shape = Shape::new(&[40, 40, 40]).unwrap();
        // Deduplicate coordinates (the modular pattern wraps around).
        let mut by_coord = std::collections::BTreeMap::new();
        for i in 0..200usize {
            by_coord.insert(
                vec![(i * 7) % 40, (i * 11) % 40, (i * 17) % 40],
                ((i * 13) % 101) as i64,
            );
        }
        let pts: Vec<(Vec<usize>, i64)> = by_coord.into_iter().collect();
        let c = SparseCube::new(shape, pts).unwrap();
        let engine = SparseRangeMax::build(&c);
        let q = Region::from_bounds(&[(5, 30), (0, 39), (10, 20)]).unwrap();
        let got = engine.range_max(&q).unwrap();
        let want = naive(&c, &q);
        assert_eq!(got.map(|(_, v)| v), want.map(|(_, v)| v));
    }
}
