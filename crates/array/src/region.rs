use crate::{ArrayError, Range, RegionIndexIter};
use std::fmt;

/// A d-dimensional hyper-rectangle `Region(ℓ_1:h_1, …, ℓ_d:h_d)` (§2).
///
/// All bounds are inclusive. The *volume* of a region is the number of
/// integer points inside it, `∏ (h_j − ℓ_j + 1)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    ranges: Box<[Range]>,
}

impl Region {
    /// Builds a region from per-dimension ranges.
    ///
    /// # Errors
    /// [`ArrayError::EmptyShape`] when no ranges are supplied.
    pub fn new(ranges: Vec<Range>) -> Result<Self, ArrayError> {
        if ranges.is_empty() {
            return Err(ArrayError::EmptyShape);
        }
        Ok(Region {
            ranges: ranges.into(),
        })
    }

    /// Convenience constructor from inclusive `(lo, hi)` pairs.
    ///
    /// # Errors
    /// Propagates [`ArrayError::InvertedRange`] and rejects empty input.
    pub fn from_bounds(bounds: &[(usize, usize)]) -> Result<Self, ArrayError> {
        let ranges = bounds
            .iter()
            .map(|&(lo, hi)| Range::new(lo, hi))
            .collect::<Result<Vec<_>, _>>()?;
        Region::new(ranges)
    }

    /// The region consisting of the single point `index`.
    pub fn point(index: &[usize]) -> Result<Self, ArrayError> {
        Region::new(index.iter().map(|&x| Range::singleton(x)).collect())
    }

    /// Workspace-internal constructor for range lists the caller has
    /// already proven non-empty. Checked in debug builds; never panics in
    /// release. Not part of the public API — external callers use
    /// [`Region::new`].
    #[doc(hidden)]
    pub fn trusted(ranges: Vec<Range>) -> Self {
        debug_assert!(!ranges.is_empty(), "trusted region with no ranges");
        Region {
            ranges: ranges.into(),
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.ranges.len()
    }

    /// The per-dimension ranges.
    pub fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// The range along one dimension.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < ndim is the caller's contract, like slice indexing"
    )]
    pub fn range(&self, axis: usize) -> Range {
        self.ranges[axis]
    }

    /// Number of integer points in the region, `∏ (h_j − ℓ_j + 1)`.
    ///
    /// The paper calls this the *volume* of the region / query.
    pub fn volume(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).product()
    }

    /// The point `(ℓ_1, …, ℓ_d)`.
    pub fn lower_corner(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.lo()).collect()
    }

    /// The point `(h_1, …, h_d)`.
    pub fn upper_corner(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.hi()).collect()
    }

    /// Whether a point lies inside the region.
    pub fn contains(&self, index: &[usize]) -> bool {
        index.len() == self.ranges.len()
            && index
                .iter()
                .zip(self.ranges.iter())
                .all(|(&i, r)| r.contains(i))
    }

    /// Whether this region contains `other` entirely.
    pub fn contains_region(&self, other: &Region) -> bool {
        self.ndim() == other.ndim()
            && self
                .ranges
                .iter()
                .zip(other.ranges.iter())
                .all(|(a, b)| a.contains_range(b))
    }

    /// Intersection of two regions, or `None` when they are disjoint.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        if self.ndim() != other.ndim() {
            return None;
        }
        let mut out = Vec::with_capacity(self.ndim());
        for (a, b) in self.ranges.iter().zip(other.ranges.iter()) {
            out.push(a.intersect(b)?);
        }
        Some(Region { ranges: out.into() })
    }

    /// Whether the regions share at least one point.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.ndim() == other.ndim()
            && self
                .ranges
                .iter()
                .zip(other.ranges.iter())
                .all(|(a, b)| a.overlaps(b))
    }

    /// Iterates the points of the region in row-major order.
    pub fn iter_indices(&self) -> RegionIndexIter {
        RegionIndexIter::new(self)
    }

    /// Side lengths `x_i = h_i − ℓ_i + 1` of the query (Table 1).
    pub fn side_lengths(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.len()).collect()
    }

    /// Total surface area `S = Σ_i 2·V/x_i` of the query (Table 1).
    ///
    /// For `d = 1` this degenerates to `2` (the two endpoints), consistent
    /// with the formula.
    pub fn surface_area(&self) -> usize {
        let v = self.volume();
        self.ranges.iter().map(|r| 2 * (v / r.len())).sum()
    }

    /// The smallest region containing both regions (bounding-box union) —
    /// the MBR arithmetic R-trees are built on.
    ///
    /// # Panics
    /// Debug-asserts equal dimensionality.
    pub fn bounding_union(&self, other: &Region) -> Region {
        debug_assert_eq!(self.ndim(), other.ndim());
        Region {
            ranges: self
                .ranges
                .iter()
                .zip(other.ranges.iter())
                .map(|(a, b)| Range::trusted(a.lo().min(b.lo()), a.hi().max(b.hi())))
                .collect(),
        }
    }

    /// The set difference `self − other`, decomposed into at most `2d`
    /// disjoint hyper-rectangles via slab splitting.
    ///
    /// §4.2 defines, for every boundary region, a *complement region*
    /// (`superblock − boundary`); this decomposition lets the blocked
    /// algorithm enumerate exactly the complement's cells.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < ndim, and core, every slab and the intersection all have ndim ranges"
    )]
    pub fn subtract(&self, other: &Region) -> Vec<Region> {
        let inter = match self.intersect(other) {
            Some(i) => i,
            None => return vec![self.clone()],
        };
        let mut out = Vec::new();
        // Peel one axis at a time: everything below / above the
        // intersection along the axis becomes a slab; the remainder is
        // clamped to the intersection on that axis and recursed implicitly
        // by continuing the loop.
        let mut core: Vec<Range> = self.ranges.to_vec();
        for axis in 0..self.ndim() {
            let r = core[axis];
            let i = inter.range(axis);
            if r.lo() < i.lo() {
                let mut slab = core.clone();
                slab[axis] = Range::trusted(r.lo(), i.lo() - 1);
                out.push(Region {
                    ranges: slab.into(),
                });
            }
            if r.hi() > i.hi() {
                let mut slab = core.clone();
                slab[axis] = Range::trusted(i.hi() + 1, r.hi());
                out.push(Region {
                    ranges: slab.into(),
                });
            }
            core[axis] = i;
        }
        out
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region(")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(bounds: &[(usize, usize)]) -> Region {
        Region::from_bounds(bounds).unwrap()
    }

    #[test]
    fn volume_is_product_of_lengths() {
        // The paper's insurance query: ages 37–52, years 1988–1996 mapped to
        // ranks 1:9, one state value, one type value.
        let q = region(&[(37, 52), (1, 9), (7, 7), (0, 0)]);
        assert_eq!(q.volume(), 16 * 9);
    }

    #[test]
    fn point_region_has_volume_one() {
        let p = Region::point(&[3, 1, 4]).unwrap();
        assert_eq!(p.volume(), 1);
        assert!(p.contains(&[3, 1, 4]));
        assert!(!p.contains(&[3, 1, 5]));
    }

    #[test]
    fn contains_region_requires_full_inclusion() {
        let outer = region(&[(0, 9), (0, 9)]);
        assert!(outer.contains_region(&region(&[(2, 5), (0, 9)])));
        assert!(!outer.contains_region(&region(&[(2, 10), (0, 9)])));
        assert!(!outer.contains_region(&Region::point(&[1]).unwrap()));
    }

    #[test]
    fn intersect_componentwise() {
        let a = region(&[(0, 5), (2, 8)]);
        let b = region(&[(3, 9), (0, 4)]);
        assert_eq!(a.intersect(&b), Some(region(&[(3, 5), (2, 4)])));
        assert!(a.overlaps(&b));
        let c = region(&[(6, 9), (0, 4)]);
        assert_eq!(a.intersect(&c), None);
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn surface_area_matches_table1() {
        // V = x1·x2, S = 2V/x1 + 2V/x2.
        let q = region(&[(0, 3), (0, 9)]); // 4 × 10
        assert_eq!(q.volume(), 40);
        assert_eq!(q.surface_area(), 2 * 10 + 2 * 4);
    }

    #[test]
    fn surface_area_one_dim() {
        let q = region(&[(5, 9)]);
        assert_eq!(q.surface_area(), 2);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(region(&[(2, 3), (1, 2)]).to_string(), "Region(2:3, 1:2)");
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Region::new(vec![]), Err(ArrayError::EmptyShape));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = region(&[(0, 4), (0, 4)]);
        let b = region(&[(10, 12), (0, 4)]);
        assert_eq!(a.subtract(&b), vec![a.clone()]);
    }

    #[test]
    fn subtract_contained_leaves_nothing() {
        let a = region(&[(2, 5), (3, 7)]);
        assert!(a.subtract(&a).is_empty());
        let bigger = region(&[(0, 9), (0, 9)]);
        assert!(a.subtract(&bigger).is_empty());
    }

    fn check_partition(outer: &Region, hole: &Region) {
        let parts = outer.subtract(hole);
        // Parts are pairwise disjoint.
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                assert!(
                    !parts[i].overlaps(&parts[j]),
                    "{} overlaps {}",
                    parts[i],
                    parts[j]
                );
            }
        }
        // Parts are disjoint from the hole and inside the outer region.
        for p in &parts {
            assert!(outer.contains_region(p));
            assert!(!p.overlaps(&hole.intersect(outer).unwrap()));
        }
        // Volumes add up.
        let hole_vol = hole.intersect(outer).map_or(0, |i| i.volume());
        let parts_vol: usize = parts.iter().map(|p| p.volume()).sum();
        assert_eq!(parts_vol + hole_vol, outer.volume());
    }

    #[test]
    fn subtract_corner_hole_two_dims() {
        // The L-shaped complement of §4.2's corner boundary regions.
        check_partition(&region(&[(0, 9), (0, 9)]), &region(&[(0, 4), (0, 4)]));
    }

    #[test]
    fn subtract_central_hole_three_dims() {
        check_partition(
            &region(&[(0, 5), (0, 5), (0, 5)]),
            &region(&[(2, 3), (1, 4), (0, 5)]),
        );
        check_partition(
            &region(&[(0, 5), (0, 5), (0, 5)]),
            &region(&[(1, 1), (2, 2), (3, 3)]),
        );
    }

    #[test]
    fn subtract_partial_overlap() {
        check_partition(&region(&[(0, 9), (3, 8)]), &region(&[(5, 12), (0, 5)]));
    }
}
