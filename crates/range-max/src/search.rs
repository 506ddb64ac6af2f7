//! The branch-and-bound range-max search (§6.1.2–§6.1.3, generalized to d
//! dimensions in §6.2).
//!
//! A node's children form a box of at most `b` per axis, and on each axis
//! the children that overlap the query `ℓ..=h` form one interval, as do
//! the children the query covers on that axis. So the search walks only
//! the overlap box, in row-major order, and classifies each child by
//! per-axis bounds checks: an external child is never enumerated, and no
//! child allocates.

use crate::tree::{first_max, MaxTree, MaxTreeError};
use olap_aggregate::TotalOrder;
use olap_array::{CellRead, Interrupt, Range, Region, Shape};
use olap_query::QueryCtx;

/// Knobs for the search — the defaults are the paper's algorithm; the
/// alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Start at the lowest-level node covering the query (§6.1.2). When
    /// `false` the search starts from the root, degrading the bound from
    /// `O(b log_b r)` to `O(b log_b n)` as the paper remarks.
    pub lowest_covering_start: bool,
    /// Prune `Bout` subtrees whose precomputed max cannot beat the current
    /// best (the branch-and-bound rule of lines (4)–(6)).
    pub branch_and_bound: bool,
    /// Visit `Bout` children in decreasing order of their precomputed max
    /// (an extra heuristic on top of the paper's arbitrary order).
    pub sort_boundary: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            lowest_covering_start: true,
            branch_and_bound: true,
            sort_boundary: false,
        }
    }
}

/// How a child relates to the query region (§6.1.3): internal
/// (`C(y) ⊆ R`), boundary (partial overlap), or external (disjoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildClasses {
    /// Children wholly inside the region.
    pub internal: Vec<Vec<usize>>,
    /// Children partially overlapping the region.
    pub boundary: Vec<Vec<usize>>,
    /// Children disjoint from the region.
    pub external: Vec<Vec<usize>>,
}

/// One axis of a node's children, classified against the same axis of the
/// query: children `first..=last` exist, `lo..=hi` overlap the query (none
/// when `lo > hi`), and `full_lo..full_end` lie inside it on this axis.
#[derive(Debug, Clone, Copy)]
struct ChildAxis {
    first: usize,
    last: usize,
    lo: usize,
    hi: usize,
    full_lo: usize,
    full_end: usize,
}

impl ChildAxis {
    fn overlaps(&self, k: usize) -> bool {
        self.lo <= k && k <= self.hi
    }

    fn covered(&self, k: usize) -> bool {
        self.full_lo <= k && k < self.full_end
    }
}

impl<O: TotalOrder> MaxTree<O> {
    /// Finds the maximum value and one of its indices in `region`
    /// (`Max_index` of §2, ties broken arbitrarily).
    ///
    /// # Errors
    /// Validates the region against the cube shape.
    pub fn range_max(
        &self,
        a: &impl CellRead<O::Value>,
        region: &Region,
    ) -> Result<(Vec<usize>, O::Value), MaxTreeError> {
        self.read(
            a,
            region,
            SearchOptions::default(),
            &mut QueryCtx::unlimited(),
        )
    }

    /// The metered §6 search under `opts` (the defaults are the paper's
    /// algorithm; the alternatives are the ablations). `ctx` is checked
    /// before the search and charged and checked at every node the walk
    /// expands, so an interrupt lands within one node's `b^d` children.
    ///
    /// # Errors
    /// Validates the region against the cube shape; propagates budget
    /// interrupts as [`ArrayError::Interrupted`](olap_array::ArrayError).
    pub fn read<A: CellRead<O::Value>>(
        &self,
        a: &A,
        region: &Region,
        opts: SearchOptions,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<(Vec<usize>, O::Value), MaxTreeError> {
        ctx.check()?;
        self.shape.check_region(region)?;
        // A singleton region is the cell itself.
        if region.volume() == 1 {
            let idx = region.lower_corner();
            ctx.stats.read_a(1);
            ctx.charge()?;
            let v = a.get(&idx).clone();
            return Ok((idx, v));
        }
        // Line (3) of Max_index: the lowest-level node x with R ⊆ C(x).
        let level = if opts.lowest_covering_start {
            self.lowest_covering_level(region)
        } else {
            self.height()
        };
        let side = self.side_at(level);
        let node = region
            .ranges()
            .iter()
            .zip(self.level_shape(level).strides())
            .map(|(r, &s)| r.lo() / side * s)
            .sum();
        ctx.stats.visit_nodes(1);
        let stored = self.stored_max(level, node);
        // Lines (4)–(5): the covering node's max might already be inside R.
        let best = if contains_flat(&self.shape, region.ranges(), stored) {
            ctx.stats.read_a(1);
            stored
        } else {
            // Line (2): current_max_index starts at ℓ (any index inside R).
            let d = self.shape.ndim();
            let mut search = Search {
                tree: self,
                a,
                q: region.ranges(),
                opts,
                best: region
                    .ranges()
                    .iter()
                    .zip(self.shape.strides())
                    .map(|(r, &s)| r.lo() * s)
                    .sum(),
                ctx: &mut *ctx,
                axes: Vec::with_capacity(d),
                lo: vec![0; d],
                hi: vec![0; d],
                cur: vec![0; d],
                bout: Vec::new(),
            };
            search.ctx.stats.read_a(1);
            search.get_max_index(level, node)?;
            search.best
        };
        ctx.charge()?;
        Ok((self.shape.unflatten(best), a.get_flat(best).clone()))
    }

    /// The smallest level `i ≥ 1` whose node containing `ℓ` also contains
    /// `h` on every dimension (the addressing scheme of §6.1.2: the common
    /// prefix of the base-`b` representations).
    pub(crate) fn lowest_covering_level(&self, region: &Region) -> usize {
        let mut level = 1;
        // Climbs at most the tree height.
        loop {
            let side = self.side_at(level);
            let covered = region
                .ranges()
                .iter()
                .all(|r| r.lo() / side == r.hi() / side);
            if covered || level >= self.height() {
                return level;
            }
            level += 1;
        }
    }

    /// How the children of the node at `level` with coordinate `coord` on
    /// `axis` meet the query range `q` on that axis. With `s = b^(level−1)`
    /// the child `k` covers `k·s ..= min((k+1)·s − 1, n − 1)`, so it
    /// overlaps `q` iff `⌊ℓ/s⌋ ≤ k ≤ ⌊h/s⌋`, and lies inside `q` iff
    /// `⌈ℓ/s⌉ ≤ k` and, unless `h` is the cube's last index, `k < ⌊(h+1)/s⌋`.
    fn child_axis(&self, level: usize, axis: usize, coord: usize, q: Range) -> ChildAxis {
        let side = self.side_at(level - 1);
        let first = coord * self.b;
        let last = (first + self.b - 1).min(self.level_shape(level - 1).dim(axis) - 1);
        let at_edge = q.hi() + 1 == self.shape.dim(axis);
        ChildAxis {
            first,
            last,
            lo: (q.lo() / side).max(first),
            hi: (q.hi() / side).min(last),
            full_lo: q.lo().div_ceil(side),
            full_end: if at_edge {
                usize::MAX
            } else {
                (q.hi() + 1) / side
            },
        }
    }

    /// Classifies the children of a node with respect to a region, by the
    /// per-axis rule the search uses — exposed for the Figure-10 tests.
    pub fn classify_children(
        &self,
        level: usize,
        coords: &[usize],
        region: &Region,
    ) -> ChildClasses {
        let axes: Vec<ChildAxis> = coords
            .iter()
            .zip(region.ranges())
            .enumerate()
            .map(|(axis, (&c, &r))| self.child_axis(level, axis, c, r))
            .collect();
        let children = Region::trusted(
            axes.iter()
                .map(|x| Range::trusted(x.first, x.last))
                .collect(),
        );
        let mut out = ChildClasses {
            internal: Vec::new(),
            boundary: Vec::new(),
            external: Vec::new(),
        };
        for child in children.iter_indices() {
            let mut per_axis = child.iter().zip(&axes);
            let class = if !per_axis.clone().all(|(&k, x)| x.overlaps(k)) {
                &mut out.external
            } else if per_axis.all(|(&k, x)| x.covered(k)) {
                &mut out.internal
            } else {
                &mut out.boundary
            };
            class.push(child);
        }
        out
    }
}

/// Whether the flat index `flat` lies inside the box `q` of `shape`: one
/// bounds check per axis, with no unflattened index.
fn contains_flat(shape: &Shape, q: &[Range], flat: usize) -> bool {
    shape
        .strides()
        .iter()
        .zip(shape.dims())
        .zip(q)
        .all(|((&s, &n), r)| r.contains(flat / s % n))
}

/// Steps the row-major odometer `cur` over the box `lo..=hi`, keeping
/// `flat` in step under `strides`. Returns false once the box is done.
fn advance(
    cur: &mut [usize],
    lo: &[usize],
    hi: &[usize],
    strides: &[usize],
    flat: &mut usize,
) -> bool {
    for (((c, &l), &h), &s) in cur.iter_mut().zip(lo).zip(hi).zip(strides).rev() {
        if *c < h {
            *c += 1;
            *flat += s;
            return true;
        }
        *flat -= (*c - l) * s;
        *c = l;
    }
    false
}

/// One query's search: the query box, `current_max_index`, the query's
/// ctx, and the scratch every node of the recursion reuses — the
/// per-axis child classes, the overlap box and its odometer, and one stack
/// of pending `B_out` children whose segments are the levels of the
/// current path. A query allocates these once; no node or child does.
struct Search<'t, 'c, 'm, O: TotalOrder, A> {
    tree: &'t MaxTree<O>,
    a: &'t A,
    q: &'t [Range],
    opts: SearchOptions,
    /// `current_max_index` of the paper, a flat index into `A`.
    best: usize,
    ctx: &'c mut QueryCtx<'m>,
    axes: Vec<ChildAxis>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    cur: Vec<usize>,
    /// `(child's flat index in its level, stored argmax)` per `B_out` child.
    bout: Vec<(usize, usize)>,
}

impl<O: TotalOrder, A: CellRead<O::Value>> Search<'_, '_, '_, O, A> {
    /// `get_max_index` of §6.1.3 at node `node` (a flat index into
    /// `level`): charges and checks the ctx, then scans internal and
    /// `B_in` children directly and recurses into `B_out` children unless
    /// pruned.
    fn get_max_index(&mut self, level: usize, node: usize) -> Result<(), Interrupt> {
        debug_assert!(level >= 1);
        self.ctx.charge()?;
        self.ctx.check()?;
        let tree = self.tree;
        let node_shape = tree.level_shape(level);
        let per_axis = node_shape.strides().iter().zip(node_shape.dims());
        self.axes.clear();
        self.axes.extend(
            per_axis
                .zip(self.q)
                .enumerate()
                .map(|(axis, ((&s, &n), &r))| tree.child_axis(level, axis, node / s % n, r)),
        );
        self.lo.clear();
        self.lo.extend(self.axes.iter().map(|x| x.lo));
        self.hi.clear();
        self.hi.extend(self.axes.iter().map(|x| x.hi));
        if level == 1 {
            // Children are cells of A, and the box is C(x) ∩ R: scan it as
            // contiguous runs, first maximum in row-major order wins.
            let (a, order) = (self.a, &tree.order);
            // The best cell so far and its value, read once per leaf box.
            let init = (self.best, a.get_flat(self.best));
            let (lo, hi) = (&self.lo, &self.hi);
            let (best, _) = a.fold_runs(lo, hi, &mut self.cur, init, |best, start, cells| {
                first_max(order, best, start, cells)
            });
            self.best = best;
            let cells = self
                .lo
                .iter()
                .zip(&self.hi)
                .map(|(l, h)| h - l + 1)
                .product::<usize>();
            self.ctx.stats.read_a(cells as u64);
            self.ctx.stats.step(cells as u64);
            return Ok(());
        }
        let Some(children) = tree.levels.get(level - 2) else {
            return Ok(());
        };
        let strides = children.shape.strides();
        let pending = self.bout.len();
        self.cur.copy_from_slice(&self.lo);
        let mut flat = children.shape.flatten(&self.lo);
        while let Some(&stored) = children.max_index.get(flat) {
            self.ctx.stats.visit_nodes(1);
            let internal = self.cur.iter().zip(&self.axes).all(|(&k, x)| x.covered(k));
            if internal || contains_flat(&tree.shape, self.q, stored) {
                // Internal or B_in: the stored argmax is usable directly.
                self.ctx.stats.step(1);
                if tree
                    .order
                    .gt(self.a.get_flat(stored), self.a.get_flat(self.best))
                {
                    self.best = stored;
                }
            } else {
                self.bout.push((flat, stored));
            }
            if !advance(&mut self.cur, &self.lo, &self.hi, strides, &mut flat) {
                break;
            }
        }
        let done = self.bout.len();
        if self.opts.sort_boundary {
            let (a, order) = (self.a, &tree.order);
            if let Some(segment) = self.bout.get_mut(pending..) {
                segment.sort_by(|x, y| order.cmp_values(a.get_flat(y.1), a.get_flat(x.1)));
            }
        }
        for at in pending..done {
            let Some(&(child, stored)) = self.bout.get(at) else {
                break;
            };
            self.ctx.stats.step(1);
            // Branch-and-bound (lines (4)–(6)): if the subtree's
            // precomputed max cannot beat the running max, skip it.
            if self.opts.branch_and_bound
                && !tree
                    .order
                    .gt(self.a.get_flat(stored), self.a.get_flat(self.best))
            {
                continue;
            }
            // A child's cover lies inside its parent's, so the query box
            // itself (not `C(child) ∩ R`) classifies the grandchildren.
            self.get_max_index(level - 1, child)?;
        }
        self.bout.truncate(pending);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaturalMaxTree;
    use olap_array::DenseArray;
    use olap_array::Shape;
    use olap_query::QueryCtx;

    fn arr14() -> DenseArray<i64> {
        DenseArray::from_vec(
            Shape::new(&[14]).unwrap(),
            vec![4, 1, 7, 2, 9, 3, 8, 5, 0, 6, 11, 2, 13, 10],
        )
        .unwrap()
    }

    fn naive_max(a: &DenseArray<i64>, q: &Region) -> i64 {
        a.fold_region(q, i64::MIN, |m, &x| m.max(x))
    }

    #[test]
    fn fig10_node_classes() {
        // Figure 10: R = (2:5); children of x2 (level 2 node 0, which
        // covers 0:8) are level-1 nodes x4, x5, x6 with x5 internal
        // (covers 3:5), x4 boundary (covers 0:2), x6 external (6:8).
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        let r = Region::from_bounds(&[(2, 5)]).unwrap();
        let classes = t.classify_children(2, &[0], &r);
        assert_eq!(classes.internal, vec![vec![1]]);
        assert_eq!(classes.boundary, vec![vec![0]]);
        assert_eq!(classes.external, vec![vec![2]]);
    }

    #[test]
    fn lowest_covering_level_examples() {
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        // 3:5 lives inside one level-1 node; 2:5 needs level 2; 2:10 level 3.
        assert_eq!(
            t.lowest_covering_level(&Region::from_bounds(&[(3, 5)]).unwrap()),
            1
        );
        assert_eq!(
            t.lowest_covering_level(&Region::from_bounds(&[(2, 5)]).unwrap()),
            2
        );
        assert_eq!(
            t.lowest_covering_level(&Region::from_bounds(&[(2, 10)]).unwrap()),
            3
        );
    }

    #[test]
    fn exhaustive_one_dim() {
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        for l in 0..14 {
            for h in l..14 {
                let q = Region::from_bounds(&[(l, h)]).unwrap();
                let (idx, v) = t.range_max(&a, &q).unwrap();
                assert_eq!(v, naive_max(&a, &q), "{q}");
                assert!(q.contains(&idx));
                assert_eq!(*a.get(&idx), v);
            }
        }
    }

    #[test]
    fn exhaustive_two_dim() {
        let a = DenseArray::from_fn(Shape::new(&[9, 7]).unwrap(), |i| {
            ((i[0] * 29 + i[1] * 13) % 31) as i64 - 15
        });
        for b in [2usize, 3] {
            let t = NaturalMaxTree::for_values(&a, b).unwrap();
            for l0 in 0..9 {
                for h0 in l0..9 {
                    for l1 in 0..7 {
                        for h1 in l1..7 {
                            let q = Region::from_bounds(&[(l0, h0), (l1, h1)]).unwrap();
                            let (idx, v) = t.range_max(&a, &q).unwrap();
                            assert_eq!(v, naive_max(&a, &q), "b={b} {q}");
                            assert!(q.contains(&idx));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_option_combinations_agree() {
        let a = DenseArray::from_fn(Shape::new(&[16, 16]).unwrap(), |i| {
            ((i[0] * 7 + i[1] * 11) % 37) as i64
        });
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        let queries = [
            [(1, 14), (2, 13)],
            [(0, 15), (0, 15)],
            [(5, 6), (7, 10)],
            [(3, 3), (0, 15)],
        ];
        for qb in queries {
            let q = Region::from_bounds(&qb).unwrap();
            let expected = naive_max(&a, &q);
            for lcs in [true, false] {
                for bb in [true, false] {
                    for sort in [true, false] {
                        let opts = SearchOptions {
                            lowest_covering_start: lcs,
                            branch_and_bound: bb,
                            sort_boundary: sort,
                        };
                        let ((_, v), _) =
                            QueryCtx::measure(|ctx| t.read(&a, &q, opts, ctx)).unwrap();
                        assert_eq!(v, expected, "{q} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn branch_and_bound_reduces_accesses() {
        // A random-ish cube where pruning must pay off on average.
        let a = DenseArray::from_fn(Shape::new(&[81]).unwrap(), |i| {
            ((i[0] * 2654435761usize) % 1000) as i64
        });
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        let mut with_bb = 0u64;
        let mut without = 0u64;
        for l in (0..70).step_by(7) {
            let q = Region::from_bounds(&[(l, l + 10)]).unwrap();
            let (_, s1) =
                QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
            let plain = SearchOptions {
                branch_and_bound: false,
                ..Default::default()
            };
            let (_, s2) = QueryCtx::measure(|ctx| t.read(&a, &q, plain, ctx)).unwrap();
            with_bb += s1.total_accesses();
            without += s2.total_accesses();
        }
        assert!(with_bb <= without, "bb {with_bb} vs plain {without}");
    }

    #[test]
    fn worst_case_scenario_from_paper() {
        // §6.1.3: the region covers all leaves of a complete subtree except
        // the first and last, which hold the two largest values.
        let mut data = vec![0i64; 27];
        data[0] = 100;
        data[26] = 99;
        for (i, v) in data.iter_mut().enumerate().skip(1).take(25) {
            *v = (i % 10) as i64;
        }
        let a = DenseArray::from_vec(Shape::new(&[27]).unwrap(), data).unwrap();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        let q = Region::from_bounds(&[(1, 25)]).unwrap();
        let ((_, v), stats) =
            QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
        assert_eq!(v, 9);
        // Worst case is O(b log_b r) ≈ 3·3 node groups, far below volume 25.
        assert!(stats.total_accesses() < 25);
    }

    #[test]
    fn covering_node_shortcut() {
        // When the covering node's stored max lies inside R, the query is
        // answered with a single node access (lines (4)–(5)).
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        // Query 3:5 — node x5 covers exactly 3:5 and its max (index 4) ∈ R.
        let q = Region::from_bounds(&[(3, 5)]).unwrap();
        let ((idx, v), stats) =
            QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
        assert_eq!((idx.as_slice(), v), (&[4usize][..], 9));
        assert_eq!(stats.tree_nodes, 1);
    }

    #[test]
    fn singleton_region_reads_one_cell() {
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        let q = Region::from_bounds(&[(7, 7)]).unwrap();
        let ((idx, v), stats) =
            QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
        assert_eq!((idx.as_slice(), v), (&[7usize][..], 5));
        assert_eq!(stats.total_accesses(), 1);
    }

    #[test]
    fn rejects_bad_region() {
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        assert!(t
            .range_max(&a, &Region::from_bounds(&[(0, 14)]).unwrap())
            .is_err());
    }
}
