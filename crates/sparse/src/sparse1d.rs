//! Range-sum over sparse one-dimensional cubes (§10.1).
//!
//! With `b = 1` the prefix-sum array `P` has the same sparse structure as
//! the cube, so only the prefixes at non-empty positions are stored, in a
//! B+-tree. A query `(ℓ:h)` needs the last defined prefix ≤ `h` and the
//! last defined prefix ≤ `ℓ − 1` (the paper phrases it with the first
//! non-zero `P[ℓ̂], ℓ̂ ≥ ℓ` — equivalent under subtraction).

use crate::btree::BPlusTree;
use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, Range};
use olap_query::QueryCtx;

/// Sparse one-dimensional prefix sums over a B+-tree.
///
/// # Examples
///
/// ```
/// use olap_array::Range;
/// use olap_sparse::Sparse1dPrefixSum;
///
/// // Three non-empty cells in a domain of a million.
/// let s = Sparse1dPrefixSum::build(1_000_000, &[(10usize, 5i64), (500_000, 7), (999_999, 1)])
///     .unwrap();
/// assert_eq!(s.range_sum(Range::new(0, 999_999).unwrap()).unwrap(), 13);
/// assert_eq!(s.range_sum(Range::new(11, 499_999).unwrap()).unwrap(), 0);
/// assert_eq!(s.len(), 3); // storage is proportional to the points
/// ```
#[derive(Debug, Clone)]
pub struct Sparse1dPrefixSum<G: AbelianGroup> {
    op: G,
    n: usize,
    /// index → prefix sum over all points ≤ index (defined at non-empty
    /// positions only).
    prefixes: BPlusTree<G::Value>,
}

impl<T: NumericValue> Sparse1dPrefixSum<SumOp<T>> {
    /// Builds the SUM variant from `(index, value)` points.
    ///
    /// # Errors
    /// Propagates index validation.
    pub fn build(n: usize, points: &[(usize, T)]) -> Result<Self, ArrayError> {
        Sparse1dPrefixSum::with_op(n, points, SumOp::new())
    }
}

impl<G: AbelianGroup> Sparse1dPrefixSum<G> {
    /// Builds from `(index, value)` points under any invertible operator.
    /// Duplicate indices are combined.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] for indices ≥ `n`.
    pub fn with_op(n: usize, points: &[(usize, G::Value)], op: G) -> Result<Self, ArrayError> {
        let mut sorted: Vec<(usize, G::Value)> = Vec::with_capacity(points.len());
        for (i, v) in points {
            if *i >= n {
                return Err(ArrayError::OutOfBounds {
                    axis: 0,
                    index: *i,
                    extent: n,
                });
            }
            sorted.push((*i, v.clone()));
        }
        sorted.sort_by_key(|(i, _)| *i);
        let mut prefixes = BPlusTree::default();
        let mut acc = op.identity();
        let mut iter = sorted.into_iter().peekable();
        while let Some((i, v)) = iter.next() {
            acc = op.combine(&acc, &v);
            // Combine duplicates before storing the prefix at i.
            while let Some((_, v2)) = iter.next_if(|(j, _)| *j == i) {
                acc = op.combine(&acc, &v2);
            }
            prefixes.insert(i, acc.clone());
        }
        Ok(Sparse1dPrefixSum { op, n, prefixes })
    }

    /// Domain size `n`.
    pub fn domain(&self) -> usize {
        self.n
    }

    /// Number of stored (non-empty) prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether the cube had no points.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Answers `Sum(ℓ:h)` with two B+-tree floor lookups.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] when `h ≥ n`.
    pub fn range_sum(&self, range: Range) -> Result<G::Value, ArrayError> {
        self.read(range, &mut QueryCtx::unlimited())
    }

    /// The metered [`Sparse1dPrefixSum::range_sum`] (each B+-tree lookup
    /// costs its node path): checks `ctx` first and charges it after the
    /// two lookups.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] when `h ≥ n`, or a budget interrupt.
    pub fn read(&self, range: Range, ctx: &mut QueryCtx<'_>) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        if range.hi() >= self.n {
            return Err(ArrayError::OutOfBounds {
                axis: 0,
                index: range.hi(),
                extent: self.n,
            });
        }
        let depth = self.prefixes.depth() as u64;
        let hi = self.floor_prefix(range.hi(), ctx, depth);
        let lo = if range.lo() == 0 {
            self.op.identity()
        } else {
            self.floor_prefix(range.lo() - 1, ctx, depth)
        };
        ctx.charge()?;
        Ok(self.op.uncombine(&hi, &lo))
    }

    fn floor_prefix(&self, index: usize, ctx: &mut QueryCtx<'_>, depth: u64) -> G::Value {
        ctx.stats.visit_nodes(depth);
        match self.prefixes.floor(index) {
            Some((_, v)) => v.clone(),
            None => self.op.identity(),
        }
    }
}

/// The `b > 1` variant §10.1 closes with ("a similar solution applies"):
/// cumulative sums are kept only at block anchors in a B+-tree, and the
/// unaligned edges of a query are answered from the sorted point list.
#[derive(Debug, Clone)]
pub struct Sparse1dBlocked<G: AbelianGroup> {
    op: G,
    n: usize,
    b: usize,
    /// block index → cumulative sum through the end of that block.
    anchors: BPlusTree<G::Value>,
    /// Sorted non-empty points for boundary scans.
    points: Vec<(usize, G::Value)>,
}

impl<T: NumericValue> Sparse1dBlocked<SumOp<T>> {
    /// Builds the SUM variant.
    ///
    /// # Errors
    /// Propagates index validation; rejects `b = 0`.
    pub fn build(n: usize, points: &[(usize, T)], b: usize) -> Result<Self, ArrayError> {
        Sparse1dBlocked::with_op(n, points, SumOp::new(), b)
    }
}

impl<G: AbelianGroup> Sparse1dBlocked<G> {
    /// Builds from `(index, value)` points with block size `b`; duplicate
    /// indices are combined.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] for indices ≥ `n`;
    /// [`ArrayError::ZeroBlock`] for `b = 0`.
    pub fn with_op(
        n: usize,
        points: &[(usize, G::Value)],
        op: G,
        b: usize,
    ) -> Result<Self, ArrayError> {
        if b == 0 {
            return Err(ArrayError::ZeroBlock);
        }
        let mut sorted: Vec<(usize, G::Value)> = Vec::with_capacity(points.len());
        for (i, v) in points {
            if *i >= n {
                return Err(ArrayError::OutOfBounds {
                    axis: 0,
                    index: *i,
                    extent: n,
                });
            }
            sorted.push((*i, v.clone()));
        }
        sorted.sort_by_key(|(i, _)| *i);
        // Coalesce duplicates.
        let mut coalesced: Vec<(usize, G::Value)> = Vec::with_capacity(sorted.len());
        for (i, v) in sorted {
            match coalesced.last_mut() {
                Some((j, acc)) if *j == i => *acc = op.combine(acc, &v),
                _ => coalesced.push((i, v)),
            }
        }
        let mut anchors = BPlusTree::default();
        let mut acc = op.identity();
        let mut iter = coalesced.iter().peekable();
        while let Some((i, v)) = iter.next() {
            acc = op.combine(&acc, v);
            let block = i / b;
            // Store only when the next point leaves this block (one anchor
            // per non-empty block).
            if iter.peek().is_none_or(|(j, _)| j / b != block) {
                anchors.insert(block, acc.clone());
            }
        }
        Ok(Sparse1dBlocked {
            op,
            n,
            b,
            anchors,
            points: coalesced,
        })
    }

    /// The block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Stored anchors (one per non-empty block).
    pub fn anchor_count(&self) -> usize {
        self.anchors.len()
    }

    /// Answers `Sum(ℓ:h)`: aligned middle from two anchor floor-lookups,
    /// unaligned edges from binary searches over the point list.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] when `h ≥ n`.
    pub fn range_sum(&self, range: Range) -> Result<G::Value, ArrayError> {
        self.read(range, &mut QueryCtx::unlimited())
    }

    /// The metered [`Sparse1dBlocked::range_sum`]: checks `ctx` first and
    /// charges it once the anchors and edges are read.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] when `h ≥ n`, or a budget interrupt.
    pub fn read(&self, range: Range, ctx: &mut QueryCtx<'_>) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        let (l, h) = (range.lo(), range.hi());
        if h >= self.n {
            return Err(ArrayError::OutOfBounds {
                axis: 0,
                index: h,
                extent: self.n,
            });
        }
        let b = self.b;
        let l_aligned = l.div_ceil(b) * b; // ℓ′
        let h_aligned = (h + 1) / b * b; // first index after the last full block
        if l_aligned >= h_aligned {
            // No full block inside: scan the points in [l, h].
            let v = self.scan_points(l, h, ctx);
            ctx.charge()?;
            return Ok(v);
        }
        let depth = self.anchors.depth() as u64;
        // Aligned middle: cumulative(h_aligned/b − 1) ⊖ cumulative(l′/b − 1).
        ctx.stats.visit_nodes(depth);
        let hi = self
            .anchors
            .floor(h_aligned / b - 1)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| self.op.identity());
        let lo = if l_aligned == 0 {
            self.op.identity()
        } else {
            ctx.stats.visit_nodes(depth);
            self.anchors
                .floor(l_aligned / b - 1)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| self.op.identity())
        };
        let mut acc = self.op.uncombine(&hi, &lo);
        // Unaligned edges from the point list.
        if l < l_aligned {
            let edge = self.scan_points(l, l_aligned - 1, ctx);
            acc = self.op.combine(&acc, &edge);
        }
        if h_aligned <= h {
            let edge = self.scan_points(h_aligned, h, ctx);
            acc = self.op.combine(&acc, &edge);
        }
        ctx.charge()?;
        Ok(acc)
    }

    /// Sums the stored points with indices in `[l, h]`.
    fn scan_points(&self, l: usize, h: usize, ctx: &mut QueryCtx<'_>) -> G::Value {
        let start = self.points.partition_point(|(i, _)| *i < l);
        let mut acc = self.op.identity();
        // Points of a span that holds no full block, so fewer than 2b of them; read charges them
        // after the scan.
        for (i, v) in self.points.iter().skip(start) {
            if *i > h {
                break;
            }
            ctx.stats.read_a(1);
            acc = self.op.combine(&acc, v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: usize, hi: usize) -> Range {
        Range::new(lo, hi).unwrap()
    }

    #[test]
    fn matches_dense_prefix_sums() {
        let n = 1000;
        let points: Vec<(usize, i64)> = (0..60)
            .map(|i| ((i * 97) % n, (i as i64 % 13) - 6))
            .collect();
        let s = Sparse1dPrefixSum::build(n, &points).unwrap();
        // Dense ground truth.
        let mut dense = vec![0i64; n];
        for &(i, v) in &points {
            dense[i] += v;
        }
        for (l, h) in [(0, 999), (100, 200), (97, 97), (500, 999), (0, 0)] {
            let naive: i64 = dense[l..=h].iter().sum();
            assert_eq!(s.range_sum(range(l, h)).unwrap(), naive, "({l},{h})");
        }
    }

    #[test]
    fn duplicates_combine() {
        let s = Sparse1dPrefixSum::build(10, &[(3usize, 5i64), (3, 7), (8, 1)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.range_sum(range(0, 9)).unwrap(), 13);
        assert_eq!(s.range_sum(range(3, 3)).unwrap(), 12);
    }

    #[test]
    fn empty_ranges_between_points() {
        let s = Sparse1dPrefixSum::build(100, &[(10usize, 4i64), (90, 6)]).unwrap();
        assert_eq!(s.range_sum(range(11, 89)).unwrap(), 0);
        assert_eq!(s.range_sum(range(0, 9)).unwrap(), 0);
        assert_eq!(s.range_sum(range(10, 90)).unwrap(), 10);
    }

    #[test]
    fn cost_is_logarithmic_not_linear() {
        let n = 100_000;
        let points: Vec<(usize, i64)> = (0..5000).map(|i| (i * 20, 1i64)).collect();
        let s = Sparse1dPrefixSum::build(n, &points).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| s.read(range(0, n - 1), ctx)).unwrap();
        assert_eq!(v, 5000);
        // Two floor lookups of B+-tree depth each.
        assert!(stats.tree_nodes <= 2 * 10, "visited {}", stats.tree_nodes);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Sparse1dPrefixSum::build(10, &[(10usize, 1i64)]).is_err());
        let s = Sparse1dPrefixSum::build(10, &[(1usize, 1i64)]).unwrap();
        assert!(s.range_sum(range(0, 10)).is_err());
    }

    #[test]
    fn empty_cube() {
        let s = Sparse1dPrefixSum::build(10, &[] as &[(usize, i64)]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.range_sum(range(0, 9)).unwrap(), 0);
    }

    #[test]
    fn blocked_matches_unblocked_exhaustively() {
        let n = 120;
        let points: Vec<(usize, i64)> = (0..25)
            .map(|i| ((i * 17) % n, (i as i64 % 11) - 5))
            .collect();
        let base = Sparse1dPrefixSum::build(n, &points).unwrap();
        for b in [1usize, 4, 7, 16, 200] {
            let blocked = Sparse1dBlocked::build(n, &points, b).unwrap();
            for l in (0..n).step_by(3) {
                for h in (l..n).step_by(5) {
                    assert_eq!(
                        blocked.range_sum(range(l, h)).unwrap(),
                        base.range_sum(range(l, h)).unwrap(),
                        "b={b} ({l},{h})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_stores_one_anchor_per_nonempty_block() {
        let points: Vec<(usize, i64)> = vec![(3, 1), (5, 2), (40, 3), (99, 4)];
        let s = Sparse1dBlocked::build(100, &points, 10).unwrap();
        // Non-empty blocks: 0 (3,5), 4 (40), 9 (99).
        assert_eq!(s.anchor_count(), 3);
        assert_eq!(s.range_sum(range(0, 99)).unwrap(), 10);
    }

    #[test]
    fn blocked_small_range_scans_points_only() {
        let points: Vec<(usize, i64)> = (0..50).map(|i| (i * 2, 1i64)).collect();
        let s = Sparse1dBlocked::build(100, &points, 25).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| s.read(range(10, 20), ctx)).unwrap();
        assert_eq!(v, 6);
        // Entirely inside one block: no anchor lookups, only point reads.
        assert_eq!(stats.tree_nodes, 0);
        assert_eq!(stats.a_cells, 6);
    }

    #[test]
    fn blocked_rejects_bad_input() {
        assert!(Sparse1dBlocked::build(10, &[(0usize, 1i64)], 0).is_err());
        assert!(Sparse1dBlocked::build(10, &[(10usize, 1i64)], 2).is_err());
    }

    #[test]
    fn blocked_duplicates_coalesce() {
        let s = Sparse1dBlocked::build(20, &[(4usize, 3i64), (4, 4)], 5).unwrap();
        assert_eq!(s.range_sum(range(0, 19)).unwrap(), 7);
        assert_eq!(s.range_sum(range(4, 4)).unwrap(), 7);
    }
}
