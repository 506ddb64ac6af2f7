//! The block max-tree structure and its bottom-up construction (§6.1.1,
//! §6.2).

use olap_aggregate::{NaturalOrder, ReverseOrder, TotalOrder};
use olap_array::{ArrayError, CellRead, Interrupt, Range, Region, Shape};
use std::fmt;

/// Errors from building or querying a [`MaxTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaxTreeError {
    /// The fanout `b` must be at least 2 for the tree to shrink per level.
    FanoutTooSmall {
        /// The rejected fanout.
        b: usize,
    },
    /// An underlying shape/region error.
    Array(ArrayError),
}

impl fmt::Display for MaxTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxTreeError::FanoutTooSmall { b } => {
                write!(f, "max-tree fanout must be ≥ 2, got {b}")
            }
            MaxTreeError::Array(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaxTreeError {}

impl From<ArrayError> for MaxTreeError {
    fn from(e: ArrayError) -> Self {
        MaxTreeError::Array(e)
    }
}

impl From<Interrupt> for MaxTreeError {
    fn from(i: Interrupt) -> Self {
        MaxTreeError::Array(ArrayError::Interrupted(i))
    }
}

/// One level of the tree. Level `i` (1-based) is a contracted array of
/// shape `⌈n_1/b^i⌉ × … × ⌈n_d/b^i⌉`; each node stores the flat index (into
/// the cube `A`) of the maximum over the region it covers.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    pub(crate) shape: Shape,
    pub(crate) max_index: Box<[usize]>,
}

/// The precomputed max tree over a data cube (§6).
///
/// Generic over any [`TotalOrder`], so MIN is the same structure under
/// [`olap_aggregate::ReverseOrder`]. The cube itself is **not** stored;
/// queries take `&A` (level 0 *is* the cube).
#[derive(Debug, Clone)]
pub struct MaxTree<O: TotalOrder> {
    pub(crate) order: O,
    pub(crate) shape: Shape,
    pub(crate) b: usize,
    pub(crate) levels: Vec<Level>,
}

/// The common case: a max tree under the natural ascending order of `T`.
pub type NaturalMaxTree<T> = MaxTree<NaturalOrder<T>>;

impl<T> NaturalMaxTree<T>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    /// Builds a max tree under the natural order of the value type.
    ///
    /// # Examples
    ///
    /// ```
    /// use olap_array::{DenseArray, Region, Shape};
    /// use olap_range_max::NaturalMaxTree;
    ///
    /// let cube = DenseArray::from_vec(
    ///     Shape::new(&[9]).unwrap(),
    ///     vec![4i64, 1, 7, 2, 9, 3, 8, 5, 0],
    /// )
    /// .unwrap();
    /// let tree = NaturalMaxTree::for_values(&cube, 3).unwrap();
    /// let q = Region::from_bounds(&[(2, 6)]).unwrap();
    /// let (at, max) = tree.range_max(&cube, &q).unwrap();
    /// assert_eq!((at, max), (vec![4], 9));
    /// ```
    ///
    /// # Errors
    /// [`MaxTreeError::FanoutTooSmall`] when `b < 2`.
    pub fn for_values(a: &impl CellRead<T>, b: usize) -> Result<Self, MaxTreeError> {
        MaxTree::build(a, b, NaturalOrder::new())
    }
}

/// A range-**min** tree: the §6 structure under the reversed natural
/// order (the paper: "techniques for MAX straightforwardly apply to MIN").
pub type NaturalMinTree<T> = MaxTree<ReverseOrder<NaturalOrder<T>>>;

impl<T> NaturalMinTree<T>
where
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    /// Builds a min tree under the natural order of the value type.
    ///
    /// # Errors
    /// [`MaxTreeError::FanoutTooSmall`] when `b < 2`.
    pub fn for_min_values(a: &impl CellRead<T>, b: usize) -> Result<Self, MaxTreeError> {
        MaxTree::build(a, b, ReverseOrder::new(NaturalOrder::new()))
    }
}

impl<O: TotalOrder> MaxTree<O> {
    /// Builds the tree bottom-up with per-dimension fanout `b` (§6.1.1 and
    /// its d-dimensional generalization in §6.2): level 1 is contracted
    /// from `A` (children are cells); level `i + 1` from level `i`
    /// (children are nodes carrying argmax indices).
    ///
    /// # Errors
    /// [`MaxTreeError::FanoutTooSmall`] when `b < 2`.
    pub fn build(a: &impl CellRead<O::Value>, b: usize, order: O) -> Result<Self, MaxTreeError> {
        if b < 2 {
            return Err(MaxTreeError::FanoutTooSmall { b });
        }
        let shape = a.shape().clone();
        let mut levels: Vec<Level> = Vec::new();
        loop {
            let child = levels.last();
            let child_shape = child.map_or(&shape, |l| &l.shape);
            if child_shape.dims().iter().all(|&n| n == 1) {
                break;
            }
            let parent_shape = child_shape.contract(b)?;
            let child_of = child.map(|l| &*l.max_index);
            let max_index = fill_level(a, &order, b, child_shape, child_of, &parent_shape);
            levels.push(Level {
                shape: parent_shape,
                max_index,
            });
        }
        Ok(MaxTree {
            order,
            shape,
            b,
            levels,
        })
    }

    /// The cube shape the tree was built over.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The per-dimension fanout `b` (total fanout `b^d`).
    pub fn fanout(&self) -> usize {
        self.b
    }

    /// Height `H` of the tree: the number of levels above the leaves
    /// (`⌈log_b max_j n_j⌉`); 0 for a single-cell cube.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Number of precomputed nodes across all levels — the structure's
    /// space overhead (about `N/(b^d − 1)` cells).
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(|l| l.max_index.len()).sum()
    }

    /// The order used by the tree.
    pub fn order(&self) -> &O {
        &self.order
    }

    /// `b^level`, the side of the region a node at `level` covers.
    pub(crate) fn side_at(&self, level: usize) -> usize {
        self.b.pow(level as u32)
    }

    /// The shape of `level`; level 0 is the cube itself.
    pub(crate) fn level_shape(&self, level: usize) -> &Shape {
        match level.checked_sub(1).and_then(|i| self.levels.get(i)) {
            Some(l) => &l.shape,
            None => &self.shape,
        }
    }

    /// The stored arg-max of the node at flat index `node` of `level ≥ 1`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the §6 walk passes 1 <= level <= height and a node index inside that level's shape"
    )]
    pub(crate) fn stored_max(&self, level: usize, node: usize) -> usize {
        let l = &self.levels[level - 1];
        l.max_index[node]
    }

    /// The region of `A` covered by the node with coordinates `coords` at
    /// `level` (clipped at the cube boundary).
    pub fn node_region(&self, level: usize, coords: &[usize]) -> Region {
        let side = self.side_at(level);
        let ranges: Vec<Range> = coords
            .iter()
            .zip(self.shape.dims())
            .map(|(&c, &n)| Range::trusted(c * side, ((c + 1) * side - 1).min(n - 1)))
            .collect();
        Region::trusted(ranges)
    }

    /// The stored arg-max (flat index into `A`) of a node.
    pub fn node_max_index(&self, level: usize, coords: &[usize]) -> usize {
        self.stored_max(level, self.level_shape(level).flatten(coords))
    }

    /// Exports the per-level node tables (shape dims + stored arg-max
    /// indices) for persistence.
    pub fn export_levels(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        self.levels
            .iter()
            .map(|l| (l.shape.dims().to_vec(), l.max_index.to_vec()))
            .collect()
    }

    /// Reassembles a tree from exported levels (persistence support).
    /// Structural consistency is validated; value-correctness against a
    /// cube can be audited afterwards with [`MaxTree::check_invariants`].
    ///
    /// # Errors
    /// [`MaxTreeError::FanoutTooSmall`] for `b < 2`, or an
    /// [`ArrayError`](olap_array::ArrayError) when the level shapes do not
    /// form the contraction chain of `shape` under `b`.
    pub fn from_levels(
        shape: Shape,
        b: usize,
        order: O,
        levels: Vec<(Vec<usize>, Vec<usize>)>,
    ) -> Result<Self, MaxTreeError> {
        if b < 2 {
            return Err(MaxTreeError::FanoutTooSmall { b });
        }
        let mut rebuilt = Vec::with_capacity(levels.len());
        let mut expected = shape.clone();
        for (dims, max_index) in levels {
            expected = expected.contract(b)?;
            let level_shape = Shape::new(&dims)?;
            if level_shape != expected {
                return Err(MaxTreeError::Array(ArrayError::DimMismatch {
                    expected: expected.ndim(),
                    actual: level_shape.ndim(),
                }));
            }
            if max_index.len() != level_shape.len() {
                return Err(MaxTreeError::Array(ArrayError::StorageMismatch {
                    expected: level_shape.len(),
                    actual: max_index.len(),
                }));
            }
            if let Some(&bad) = max_index.iter().find(|&&i| i >= shape.len()) {
                return Err(MaxTreeError::Array(ArrayError::OutOfBounds {
                    axis: 0,
                    index: bad,
                    extent: shape.len(),
                }));
            }
            rebuilt.push(Level {
                shape: level_shape,
                max_index: max_index.into(),
            });
        }
        if !expected.dims().iter().all(|&n| n == 1) {
            return Err(MaxTreeError::Array(ArrayError::StorageMismatch {
                expected: 1,
                actual: expected.len(),
            }));
        }
        Ok(MaxTree {
            order,
            shape,
            b,
            levels: rebuilt,
        })
    }

    /// The §6.1.1 addressing scheme, generalized per dimension: a node at
    /// `level` is encoded, on each dimension, as a `λ_j`-digit base-`b`
    /// string (`λ_j = ⌈log_b n_j⌉`) whose trailing `level` digits are `*`
    /// — the common prefix of all leaves it covers. Figure 9's labels
    /// (`01*`, `1**`, `***`, …) come out verbatim for `d = 1`.
    pub fn node_address(&self, level: usize, coords: &[usize]) -> Vec<String> {
        self.shape
            .dims()
            .iter()
            .zip(coords)
            .map(|(&n, &c)| {
                // λ digits for this dimension.
                let mut lambda = 0usize;
                let mut cover = 1usize;
                while cover < n {
                    cover *= self.b;
                    lambda += 1;
                }
                let stars = level.min(lambda);
                let mut digits = vec!['*'; lambda];
                let mut rest = c;
                for slot in digits.iter_mut().take(lambda - stars).rev() {
                    *slot = char::from(b'0' + (rest % self.b) as u8);
                    rest /= self.b;
                }
                digits.into_iter().collect::<String>()
            })
            .collect()
    }

    /// Validates every node invariant against the cube: the stored index
    /// lies in the node's region and carries its true maximum value.
    /// Intended for tests and for auditing after batch updates.
    pub fn check_invariants(&self, a: &impl CellRead<O::Value>) -> Result<(), String> {
        if a.shape() != &self.shape {
            return Err("cube shape mismatch".into());
        }
        for (li, level) in self.levels.iter().enumerate() {
            let lvl = li + 1;
            for coords in level.shape.full_region().iter_indices() {
                let Some(&stored) = level.max_index.get(level.shape.flatten(&coords)) else {
                    return Err(format!("level {lvl} node {coords:?}: no stored index"));
                };
                let region = self.node_region(lvl, &coords);
                let stored_idx = self.shape.unflatten(stored);
                if !region.contains(&stored_idx) {
                    return Err(format!(
                        "level {lvl} node {coords:?}: stored index {stored_idx:?} outside {region}"
                    ));
                }
                let stored_val = a.get_flat(stored);
                let (lo, hi) = (region.lower_corner(), region.upper_corner());
                let mut beaten = None;
                a.for_each_run(&lo, &hi, &mut coords.clone(), |start, cells| {
                    let mut above = cells.iter().zip(start..);
                    let above = above.find(|(v, _)| self.order.gt(v, stored_val));
                    beaten = beaten.or(above.map(|(_, off)| off));
                });
                if let Some(off) = beaten {
                    return Err(format!(
                        "level {lvl} node {coords:?}: cell {off} beats stored max"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One level of [`MaxTree::build`]: the argmax of every node of
/// `parent_shape`, filled in one storage-order pass over its children in
/// `child_shape`. Each innermost line of children splits into runs of `b`
/// under consecutive parents; the first line under a parent seeds its
/// running maximum and later lines fold into it through [`argmax_run`].
/// A parent's children are thus compared in row-major order with strict
/// first-max-wins comparisons, exactly as [`ChildScan::argmax`] compares
/// them, so build and §7 rescans agree on every tie.
fn fill_level<O: TotalOrder>(
    a: &impl CellRead<O::Value>,
    order: &O,
    b: usize,
    child_shape: &Shape,
    child_of: Option<&[usize]>,
    parent_shape: &Shape,
) -> Box<[usize]> {
    // Trailing axes no longer than `b` lie under one parent coordinate,
    // so a parent's children are contiguous across them: fold them into
    // the line, whose runs grow by the same factor.
    let dims = child_shape.dims();
    let folded = dims.iter().rev().take_while(|&&n| n <= b).count();
    let (lines, tail) = dims.split_at(dims.len() - folded);
    let tail: usize = tail.iter().product();
    let (outer_dims, inner) = lines.split_at(lines.len().saturating_sub(1));
    let n = inner.first().copied().unwrap_or(1) * tail;
    let run_len = b * tail;
    let parent_strides = parent_shape.strides();
    let parent_line = n.div_ceil(run_len);
    let mut best = vec![0usize; parent_shape.len()];
    // Per outer axis, the current line's child coordinate as its parent
    // coordinate and its offset under that parent; `base` is the flat
    // offset of the parents' line. Kept incrementally: no division per line.
    let mut outer = vec![(0usize, 0usize); outer_dims.len()];
    let mut base = 0;
    let mut line = 0;
    loop {
        let first_line = outer.iter().all(|&(_, within)| within == 0);
        let parents = best.get_mut(base..base + parent_line).unwrap_or_default();
        for (slot, from) in parents.iter_mut().zip((line..line + n).step_by(run_len)) {
            let run = from..(from + run_len).min(line + n);
            let seed = if first_line {
                child_max(child_of, from)
            } else {
                *slot
            };
            *slot = argmax_run(a, order, child_of, run, seed);
        }
        line += n;
        // Odometer over the outer axes, the last one fastest.
        let mut advanced = false;
        let axes = outer.iter_mut().zip(outer_dims.iter().zip(parent_strides));
        for ((parent, within), (&extent, &stride)) in axes.rev() {
            if *parent * b + *within + 1 < extent {
                *within += 1;
                if *within == b {
                    (*parent, *within) = (*parent + 1, 0);
                    base += stride;
                }
                advanced = true;
                break;
            }
            base -= *parent * stride;
            (*parent, *within) = (0, 0);
        }
        if !advanced {
            return best.into();
        }
    }
}

/// The stored arg-max of the child at flat offset `child` of its level:
/// the child itself when the children are cells of `A`.
fn child_max(child_of: Option<&[usize]>, child: usize) -> usize {
    child_of.map_or(child, |m| m.get(child).copied().unwrap_or(child))
}

/// Folds one contiguous run of children (flat offsets into the child
/// level) into the running argmax `best`: a child replaces it only when
/// strictly greater, so the first of equal maxima wins. `child_of` holds
/// the children's stored arg-maxes, or is `None` when they are cells of
/// `A`. The per-run body of both [`fill_level`] and
/// [`ChildScan::argmax`].
fn argmax_run<O: TotalOrder>(
    a: &impl CellRead<O::Value>,
    order: &O,
    child_of: Option<&[usize]>,
    run: std::ops::Range<usize>,
    mut best: usize,
) -> usize {
    match child_of {
        // A run split at a page edge folds slice by slice, in order.
        None => {
            let init = (best, a.get_flat(best));
            best = a
                .fold_slices(run, init, |b, at, cells| first_max(order, b, at, cells))
                .0;
        }
        Some(m) => {
            let mut best_val = a.get_flat(best);
            for &cand in m.get(run).unwrap_or_default() {
                let v = a.get_flat(cand);
                if order.gt(v, best_val) {
                    best = cand;
                    best_val = v;
                }
            }
        }
    }
    best
}

/// Folds `cells`, the cells of `A` from flat offset `start` on, into the
/// running argmax `best` (an offset and its value): a cell replaces it
/// only when strictly greater, so the first of equal maxima in row-major
/// order wins. The body of every scan of `A`'s cells, build and search.
pub(crate) fn first_max<'a, O: TotalOrder>(
    order: &O,
    best: (usize, &'a O::Value),
    start: usize,
    cells: &'a [O::Value],
) -> (usize, &'a O::Value) {
    (start..).zip(cells).fold(best, |(at, val), (off, v)| {
        if order.gt(v, val) {
            (off, v)
        } else {
            (at, val)
        }
    })
}

/// The argmax over one parent node's children — the `tag = −1` rescan of
/// a batch update. It visits the children's box in row-major order, a
/// contiguous run at a time, through [`argmax_run`] (the body of the
/// level build's pass), so ties resolve to the first child in row-major
/// order. The box and its odometer live in this caller-owned scratch: a
/// loop over many parents allocates nothing.
pub(crate) struct ChildScan {
    b: usize,
    lo: Vec<usize>,
    hi: Vec<usize>,
    cur: Vec<usize>,
}

impl ChildScan {
    /// Scratch for a tree of per-dimension fanout `b` over `ndim` axes.
    pub(crate) fn new(b: usize, ndim: usize) -> Self {
        ChildScan {
            b,
            lo: vec![0; ndim],
            hi: vec![0; ndim],
            cur: vec![0; ndim],
        }
    }

    /// The argmax (a flat index into `A`) over the children of the node at
    /// flat index `pflat` of `parent_shape`, and how many children it
    /// compared. The children live in `child_shape`; `child_of` holds
    /// their stored arg-maxes, or is `None` when they are cells of `A`.
    pub(crate) fn argmax<O: TotalOrder>(
        &mut self,
        a: &impl CellRead<O::Value>,
        order: &O,
        child_shape: &Shape,
        child_of: Option<&[usize]>,
        parent_shape: &Shape,
        pflat: usize,
    ) -> (usize, u64) {
        let per_axis = parent_shape.strides().iter().zip(parent_shape.dims());
        let bounds = per_axis.zip(child_shape.dims());
        for ((l, h), ((&s, &pn), &cn)) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(bounds) {
            *l = pflat / s % pn * self.b;
            *h = (*l + self.b - 1).min(cn - 1);
        }
        let mut best = child_max(child_of, child_shape.flatten(&self.lo));
        let mut seen = 0u64;
        child_shape.for_each_run(&self.lo, &self.hi, &mut self.cur, |run| {
            seen += run.len() as u64;
            best = argmax_run(a, order, child_of, run, best);
        });
        (best, seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::DenseArray;

    fn arr14() -> DenseArray<i64> {
        // n = 14, b = 3 — the running example of Figures 9–10.
        DenseArray::from_vec(
            Shape::new(&[14]).unwrap(),
            vec![4, 1, 7, 2, 9, 3, 8, 5, 0, 6, 11, 2, 13, 10],
        )
        .unwrap()
    }

    #[test]
    fn fig9_tree_shape() {
        // Figure 9: n = 14, b = 3 ⇒ levels of 5, 2, 1 nodes; height 3.
        let t = NaturalMaxTree::for_values(&arr14(), 3).unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.levels[0].shape.dims(), &[5]);
        assert_eq!(t.levels[1].shape.dims(), &[2]);
        assert_eq!(t.levels[2].shape.dims(), &[1]);
        assert_eq!(t.node_count(), 8);
    }

    #[test]
    fn node_regions_clip_at_boundary() {
        let t = NaturalMaxTree::for_values(&arr14(), 3).unwrap();
        assert_eq!(
            t.node_region(1, &[4]),
            Region::from_bounds(&[(12, 13)]).unwrap()
        );
        assert_eq!(
            t.node_region(2, &[1]),
            Region::from_bounds(&[(9, 13)]).unwrap()
        );
        assert_eq!(
            t.node_region(3, &[0]),
            Region::from_bounds(&[(0, 13)]).unwrap()
        );
    }

    #[test]
    fn fig9_addressing_scheme() {
        // Figure 9's labels: leaves 000…, level-1 nodes 00*, 01*, …, 10*,
        // level-2 nodes 0**, 1**, root ***.
        let t = NaturalMaxTree::for_values(&arr14(), 3).unwrap();
        assert_eq!(t.node_address(1, &[0]), vec!["00*".to_string()]);
        assert_eq!(t.node_address(1, &[1]), vec!["01*".to_string()]);
        assert_eq!(t.node_address(1, &[3]), vec!["10*".to_string()]);
        assert_eq!(t.node_address(2, &[0]), vec!["0**".to_string()]);
        assert_eq!(t.node_address(2, &[1]), vec!["1**".to_string()]);
        assert_eq!(t.node_address(3, &[0]), vec!["***".to_string()]);
    }

    #[test]
    fn addressing_multi_dimensional() {
        let a = DenseArray::from_fn(Shape::new(&[8, 4]).unwrap(), |i| (i[0] + i[1]) as i64);
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        // λ = (3, 2); a level-1 node at (2, 1) covers rows 4:5, cols 2:3.
        assert_eq!(
            t.node_address(1, &[2, 1]),
            vec!["10*".to_string(), "1*".to_string()]
        );
        // At level 3 the second dimension has collapsed (λ_2 = 2 < 3).
        assert_eq!(
            t.node_address(3, &[0, 0]),
            vec!["***".to_string(), "**".to_string()]
        );
    }

    #[test]
    fn stored_maxima_are_correct() {
        let a = arr14();
        let t = NaturalMaxTree::for_values(&a, 3).unwrap();
        t.check_invariants(&a).unwrap();
        // Root holds the global argmax (value 13 at index 12).
        assert_eq!(t.node_max_index(3, &[0]), 12);
        // Level-1 node 1 covers 3:5 → max 9 at index 4.
        assert_eq!(t.node_max_index(1, &[1]), 4);
    }

    #[test]
    fn two_dimensional_build() {
        let a = DenseArray::from_fn(Shape::new(&[7, 5]).unwrap(), |i| {
            ((i[0] * 31 + i[1] * 17) % 23) as i64
        });
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        t.check_invariants(&a).unwrap();
        // Heights: ceil(log2 7) = 3.
        assert_eq!(t.height(), 3);
        assert_eq!(t.levels[0].shape.dims(), &[4, 3]);
        assert_eq!(t.levels[1].shape.dims(), &[2, 2]);
        assert_eq!(t.levels[2].shape.dims(), &[1, 1]);
    }

    #[test]
    fn degenerate_dimensions_collapse_first() {
        // §6.2: "the tree may degenerate into a lower dimension when it
        // grows higher" — a 16×2 cube with b = 2.
        let a = DenseArray::from_fn(Shape::new(&[16, 2]).unwrap(), |i| (i[0] + i[1]) as i64);
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        assert_eq!(t.height(), 4);
        assert_eq!(t.levels[0].shape.dims(), &[8, 1]);
        assert_eq!(t.levels[3].shape.dims(), &[1, 1]);
        t.check_invariants(&a).unwrap();
    }

    /// Every level of `t` equals a per-node [`ChildScan::argmax`] over the
    /// level below, the scan §7's rescans use.
    fn assert_levels_match_child_scan<O: TotalOrder>(t: &MaxTree<O>, a: &DenseArray<O::Value>) {
        let mut scan = ChildScan::new(t.b, a.shape().ndim());
        for (li, level) in t.levels.iter().enumerate() {
            let child_of = li.checked_sub(1).map(|i| &*t.levels[i].max_index);
            for p in 0..level.shape.len() {
                let (want, _) =
                    scan.argmax(a, &t.order, t.level_shape(li), child_of, &level.shape, p);
                assert_eq!(level.max_index[p], want, "level {} node {p}", li + 1);
            }
        }
    }

    #[test]
    fn one_pass_levels_match_child_scan_on_ties() {
        // Values 0..4 tie in nearly every node; no extent is a multiple
        // of every fanout, so edge nodes have fewer children.
        for dims in [&[13][..], &[7, 9], &[5, 4, 7], &[3, 5, 4, 3]] {
            let a = DenseArray::from_fn(Shape::new(dims).unwrap(), |i| {
                (i.iter().fold(7, |h, &x| h * 31 + x) % 4) as i64
            });
            for b in 2..=5 {
                assert_levels_match_child_scan(&NaturalMaxTree::for_values(&a, b).unwrap(), &a);
                assert_levels_match_child_scan(&NaturalMinTree::for_min_values(&a, b).unwrap(), &a);
            }
        }
    }

    #[test]
    fn rejects_small_fanout() {
        let a = arr14();
        assert_eq!(
            NaturalMaxTree::for_values(&a, 1).unwrap_err(),
            MaxTreeError::FanoutTooSmall { b: 1 }
        );
    }

    #[test]
    fn single_cell_cube_has_no_levels() {
        let a = DenseArray::filled(Shape::new(&[1, 1]).unwrap(), 5i64);
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        assert_eq!(t.height(), 0);
        t.check_invariants(&a).unwrap();
    }

    #[test]
    fn min_tree_via_reverse_order() {
        let a = arr14();
        let t = NaturalMinTree::for_min_values(&a, 3).unwrap();
        // Under the reversed order the "max" is the minimum (value 0 at 8).
        assert_eq!(t.node_max_index(3, &[0]), 8);
        t.check_invariants(&a).unwrap();
    }

    #[test]
    fn float_values_total_order() {
        let a = DenseArray::from_vec(
            Shape::new(&[6]).unwrap(),
            vec![0.5f64, -2.0, 9.25, 9.25, 3.0, -0.0],
        )
        .unwrap();
        let t = NaturalMaxTree::for_values(&a, 2).unwrap();
        t.check_invariants(&a).unwrap();
        let root = t.node_max_index(t.height(), &[0]);
        assert_eq!(*a.get_flat(root), 9.25);
    }
}
