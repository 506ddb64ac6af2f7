use crate::{Region, Shape};

/// Iterates the multi-indices of a [`Region`] in row-major order.
///
/// Yields an owned `Vec<usize>` per point; use [`FlatRegionIter`] in hot
/// loops where per-point allocation matters.
#[derive(Debug, Clone)]
pub struct RegionIndexIter {
    lo: Vec<usize>,
    hi: Vec<usize>,
    cur: Vec<usize>,
    done: bool,
}

impl RegionIndexIter {
    pub(crate) fn new(region: &Region) -> Self {
        let lo = region.lower_corner();
        let hi = region.upper_corner();
        RegionIndexIter {
            cur: lo.clone(),
            lo,
            hi,
            done: false,
        }
    }
}

impl Iterator for RegionIndexIter {
    type Item = Vec<usize>;

    #[expect(
        clippy::indexing_slicing,
        reason = "axis < cur.len() after the decrement; lo/hi/strides share cur's length by construction"
    )]
    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.cur.clone();
        // Row-major odometer increment: last dimension varies fastest.
        let mut axis = self.cur.len();
        loop {
            if axis == 0 {
                self.done = true;
                break;
            }
            axis -= 1;
            if self.cur[axis] < self.hi[axis] {
                self.cur[axis] += 1;
                break;
            }
            self.cur[axis] = self.lo[axis];
        }
        Some(out)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "axis < cur.len() after the decrement; lo/hi/strides share cur's length by construction"
    )]
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let mut remaining = 0usize;
        let mut scale = 1usize;
        for axis in (0..self.cur.len()).rev() {
            remaining += (self.hi[axis] - self.cur[axis]) * scale;
            scale *= self.hi[axis] - self.lo[axis] + 1;
        }
        (remaining + 1, Some(remaining + 1))
    }
}

impl ExactSizeIterator for RegionIndexIter {}

/// Iterates the row-major flat offsets of a [`Region`] within a [`Shape`]
/// without per-point allocation.
///
/// This is the workhorse of every "access cells of `A` in a sub-region"
/// step (naive scans, boundary regions of the blocked algorithm of §4.2).
/// Offsets along the last dimension are contiguous, so the traversal is
/// storage-order friendly exactly as §3.3 recommends.
#[derive(Debug, Clone)]
pub struct FlatRegionIter {
    lo: Vec<usize>,
    hi: Vec<usize>,
    strides: Vec<usize>,
    cur: Vec<usize>,
    flat: usize,
    done: bool,
}

impl FlatRegionIter {
    /// Creates the iterator.
    ///
    /// # Panics
    /// Debug-asserts that the region lies inside the shape; validate with
    /// [`Shape::check_region`] on untrusted input.
    pub fn new(shape: &Shape, region: &Region) -> Self {
        debug_assert!(shape.check_region(region).is_ok());
        let lo = region.lower_corner();
        let hi = region.upper_corner();
        let flat = shape.flatten(&lo);
        FlatRegionIter {
            cur: lo.clone(),
            lo,
            hi,
            strides: shape.strides().to_vec(),
            flat,
            done: false,
        }
    }
}

impl Iterator for FlatRegionIter {
    type Item = usize;

    #[expect(
        clippy::indexing_slicing,
        reason = "axis < cur.len() after the decrement; lo/hi/strides share cur's length by construction"
    )]
    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let out = self.flat;
        let mut axis = self.cur.len();
        loop {
            if axis == 0 {
                self.done = true;
                break;
            }
            axis -= 1;
            if self.cur[axis] < self.hi[axis] {
                self.cur[axis] += 1;
                self.flat += self.strides[axis];
                break;
            }
            // Roll this axis back to its lower bound.
            self.flat -= (self.cur[axis] - self.lo[axis]) * self.strides[axis];
            self.cur[axis] = self.lo[axis];
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    #[test]
    fn region_iter_row_major_order() {
        let r = Region::from_bounds(&[(1, 2), (0, 1)]).unwrap();
        let pts: Vec<Vec<usize>> = r.iter_indices().collect();
        assert_eq!(pts, vec![vec![1, 0], vec![1, 1], vec![2, 0], vec![2, 1]]);
    }

    #[test]
    fn region_iter_exact_size() {
        let r = Region::from_bounds(&[(0, 2), (0, 3), (1, 1)]).unwrap();
        let mut it = r.iter_indices();
        assert_eq!(it.len(), 12);
        it.next();
        assert_eq!(it.len(), 11);
        assert_eq!(it.count(), 11);
    }

    #[test]
    fn flat_iter_matches_flatten() {
        let shape = Shape::new(&[4, 5, 3]).unwrap();
        let r = Region::from_bounds(&[(1, 3), (2, 4), (0, 2)]).unwrap();
        let via_flat: Vec<usize> = FlatRegionIter::new(&shape, &r).collect();
        let via_index: Vec<usize> = r.iter_indices().map(|idx| shape.flatten(&idx)).collect();
        assert_eq!(via_flat, via_index);
        assert_eq!(via_flat.len(), r.volume());
    }

    #[test]
    fn flat_iter_single_point() {
        let shape = Shape::new(&[4, 5]).unwrap();
        let r = Region::point(&[3, 4]).unwrap();
        let offs: Vec<usize> = FlatRegionIter::new(&shape, &r).collect();
        assert_eq!(offs, vec![19]);
    }

    #[test]
    fn flat_iter_full_shape_is_identity() {
        let shape = Shape::new(&[3, 2, 2]).unwrap();
        let offs: Vec<usize> = FlatRegionIter::new(&shape, &shape.full_region()).collect();
        assert_eq!(offs, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn one_dimensional_iteration() {
        let shape = Shape::new(&[10]).unwrap();
        let r = Region::from_bounds(&[(3, 7)]).unwrap();
        let offs: Vec<usize> = FlatRegionIter::new(&shape, &r).collect();
        assert_eq!(offs, vec![3, 4, 5, 6, 7]);
    }
}
