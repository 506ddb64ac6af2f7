use crate::ArrayError;
use std::fmt;

/// An inclusive one-dimensional index range `ℓ:h` (the paper's notation).
///
/// The paper specifies every range query as a contiguous, inclusive range
/// per dimension; a singleton selection is `x:x`. Empty ranges are not
/// representable — algorithms that need "possibly empty" use
/// `Option<Range>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Range {
    lo: usize,
    hi: usize,
}

impl Range {
    /// Creates the inclusive range `lo:hi`.
    ///
    /// # Errors
    /// Returns [`ArrayError::InvertedRange`] if `lo > hi`.
    pub fn new(lo: usize, hi: usize) -> Result<Self, ArrayError> {
        if lo > hi {
            Err(ArrayError::InvertedRange { lo, hi })
        } else {
            Ok(Range { lo, hi })
        }
    }

    /// A singleton range `x:x`.
    pub fn singleton(x: usize) -> Self {
        Range { lo: x, hi: x }
    }

    /// Workspace-internal constructor for bounds the caller has already
    /// proven ordered (block clipping, bounding unions, slab splits).
    /// Checked in debug builds; never panics in release. Not part of the
    /// public API — external callers use [`Range::new`].
    #[doc(hidden)]
    pub fn trusted(lo: usize, hi: usize) -> Self {
        debug_assert!(lo <= hi, "trusted range inverted: {lo}:{hi}");
        Range { lo, hi }
    }

    /// Lower (inclusive) bound `ℓ`.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Upper (inclusive) bound `h`.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of indices covered, `h − ℓ + 1`.
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Always false — a [`Range`] covers at least one index. Provided for
    /// clippy-idiomatic pairing with [`Range::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether index `x` lies in the range.
    pub fn contains(&self, x: usize) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether this range contains `other` entirely.
    pub fn contains_range(&self, other: &Range) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection of two inclusive ranges, or `None` when disjoint.
    pub fn intersect(&self, other: &Range) -> Option<Range> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Range { lo, hi })
        } else {
            None
        }
    }

    /// Whether the two ranges share at least one index.
    pub fn overlaps(&self, other: &Range) -> bool {
        self.lo.max(other.lo) <= self.hi.min(other.hi)
    }

    /// Iterator over the covered indices `ℓ..=h`.
    pub fn iter(&self) -> std::ops::RangeInclusive<usize> {
        self.lo..=self.hi
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.lo, self.hi)
    }
}

impl From<std::ops::RangeInclusive<usize>> for Range {
    /// Converts `a..=b`; panics if the range is empty or inverted.
    #[expect(
        clippy::expect_used,
        reason = "the panic is this conversion's documented contract; fallible callers use Range::new"
    )]
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Range::new(*r.start(), *r.end()).expect("inverted RangeInclusive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_inverted() {
        assert_eq!(
            Range::new(5, 4),
            Err(ArrayError::InvertedRange { lo: 5, hi: 4 })
        );
        assert!(Range::new(4, 4).is_ok());
    }

    #[test]
    fn len_is_inclusive() {
        assert_eq!(Range::new(3, 7).unwrap().len(), 5);
        assert_eq!(Range::singleton(9).len(), 1);
    }

    #[test]
    fn contains_endpoints() {
        let r = Range::new(2, 6).unwrap();
        assert!(r.contains(2));
        assert!(r.contains(6));
        assert!(!r.contains(1));
        assert!(!r.contains(7));
    }

    #[test]
    fn intersect_overlapping() {
        let a = Range::new(2, 8).unwrap();
        let b = Range::new(5, 12).unwrap();
        assert_eq!(a.intersect(&b), Some(Range::new(5, 8).unwrap()));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn intersect_disjoint() {
        let a = Range::new(0, 3).unwrap();
        let b = Range::new(4, 9).unwrap();
        assert_eq!(a.intersect(&b), None);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersect_touching_single_index() {
        let a = Range::new(0, 4).unwrap();
        let b = Range::new(4, 9).unwrap();
        assert_eq!(a.intersect(&b), Some(Range::singleton(4)));
    }

    #[test]
    fn contains_range_inclusive() {
        let outer = Range::new(1, 10).unwrap();
        assert!(outer.contains_range(&Range::new(1, 10).unwrap()));
        assert!(outer.contains_range(&Range::new(3, 5).unwrap()));
        assert!(!outer.contains_range(&Range::new(0, 5).unwrap()));
        assert!(!outer.contains_range(&Range::new(5, 11).unwrap()));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Range::new(37, 52).unwrap().to_string(), "37:52");
    }

    #[test]
    fn from_range_inclusive() {
        let r: Range = (3..=9).into();
        assert_eq!((r.lo(), r.hi()), (3, 9));
    }
}
