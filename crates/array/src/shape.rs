use crate::{ArrayError, Range, Region};

/// The extents `n_1 × … × n_d` of a d-dimensional cube plus its row-major
/// strides.
///
/// The paper stores cubes in row-major ("natural") order and exploits that
/// during the prefix-sum computation (§3.3); all flat offsets produced here
/// follow the same convention: dimension `d` varies fastest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Box<[usize]>,
    strides: Box<[usize]>,
    len: usize,
}

impl Shape {
    /// Builds a shape from per-dimension extents.
    ///
    /// # Errors
    /// - [`ArrayError::EmptyShape`] when `dims` is empty,
    /// - [`ArrayError::ZeroDim`] when any extent is zero,
    /// - [`ArrayError::TooLarge`] when `∏ n_j` overflows `usize`.
    pub fn new(dims: &[usize]) -> Result<Self, ArrayError> {
        if dims.is_empty() {
            return Err(ArrayError::EmptyShape);
        }
        for (axis, &n) in dims.iter().enumerate() {
            if n == 0 {
                return Err(ArrayError::ZeroDim { axis });
            }
        }
        let mut strides = vec![0usize; dims.len()];
        let mut acc: usize = 1;
        for (stride, &n) in strides.iter_mut().zip(dims).rev() {
            *stride = acc;
            acc = acc.checked_mul(n).ok_or(ArrayError::TooLarge)?;
        }
        Ok(Shape {
            dims: dims.into(),
            strides: strides.into(),
            len: acc,
        })
    }

    /// Number of dimensions `d`.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of one dimension.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < ndim is the caller's contract, like slice indexing"
    )]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides (in cells, not bytes).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of cells `N = ∏ n_j`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a valid shape has at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether a multi-index lies inside the shape.
    pub fn contains(&self, index: &[usize]) -> bool {
        index.len() == self.dims.len() && index.iter().zip(self.dims.iter()).all(|(&i, &n)| i < n)
    }

    /// Validates a multi-index, reporting which axis is out of bounds.
    pub fn check_index(&self, index: &[usize]) -> Result<(), ArrayError> {
        if index.len() != self.dims.len() {
            return Err(ArrayError::DimMismatch {
                expected: self.dims.len(),
                actual: index.len(),
            });
        }
        for (axis, (&i, &n)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= n {
                return Err(ArrayError::OutOfBounds {
                    axis,
                    index: i,
                    extent: n,
                });
            }
        }
        Ok(())
    }

    /// Row-major flat offset of a multi-index.
    ///
    /// # Panics
    /// Debug-asserts bounds; use [`Shape::check_index`] first on untrusted
    /// input.
    pub fn flatten(&self, index: &[usize]) -> usize {
        debug_assert!(
            self.contains(index),
            "index {index:?} out of shape {:?}",
            self.dims
        );
        index
            .iter()
            .zip(self.strides.iter())
            .map(|(&i, &s)| i * s)
            .sum()
    }

    /// Inverse of [`Shape::flatten`], writing into `out`.
    pub fn unflatten_into(&self, mut flat: usize, out: &mut [usize]) {
        debug_assert!(flat < self.len);
        debug_assert_eq!(out.len(), self.dims.len());
        for (o, &s) in out.iter_mut().zip(self.strides.iter()) {
            *o = flat / s;
            flat %= s;
        }
    }

    /// Inverse of [`Shape::flatten`], allocating the result.
    pub fn unflatten(&self, flat: usize) -> Vec<usize> {
        let mut out = vec![0; self.dims.len()];
        self.unflatten_into(flat, &mut out);
        out
    }

    /// The region covering the whole cube, `Region(0:n_1−1, …, 0:n_d−1)`.
    pub fn full_region(&self) -> Region {
        Region::trusted(
            self.dims
                .iter()
                .map(|&n| Range::trusted(0, n - 1))
                .collect::<Vec<_>>(),
        )
    }

    /// Validates that `actual`, the shape of a cube handed to a structure
    /// built over this shape, is this shape: a rank difference is a
    /// [`ArrayError::DimMismatch`]; equal rank with different extents
    /// reports the first differing axis, the supplied extent (`index`) and
    /// the expected one (`extent`).
    pub fn check_same(&self, actual: &Shape) -> Result<(), ArrayError> {
        if actual.ndim() != self.ndim() {
            return Err(ArrayError::DimMismatch {
                expected: self.ndim(),
                actual: actual.ndim(),
            });
        }
        let mut dims = self.dims.iter().zip(actual.dims()).enumerate();
        match dims.find(|(_, (extent, index))| index != extent) {
            Some((axis, (&extent, &index))) => Err(ArrayError::OutOfBounds {
                axis,
                index,
                extent,
            }),
            None => Ok(()),
        }
    }

    /// Validates that a region lies entirely inside this shape.
    pub fn check_region(&self, region: &Region) -> Result<(), ArrayError> {
        if region.ndim() != self.ndim() {
            return Err(ArrayError::DimMismatch {
                expected: self.ndim(),
                actual: region.ndim(),
            });
        }
        for (axis, (r, &extent)) in region.ranges().iter().zip(self.dims.iter()).enumerate() {
            if r.hi() >= extent {
                return Err(ArrayError::OutOfBounds {
                    axis,
                    index: r.hi(),
                    extent,
                });
            }
        }
        Ok(())
    }

    /// Cells in one contiguous slab containing complete lines along
    /// `axis`: `n_axis · stride_axis`. The storage splits into
    /// `len / axis_slab_len` such slabs; an in-place scan along `axis`
    /// touches each slab independently.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < ndim is the caller's contract, like slice indexing"
    )]
    pub fn axis_slab_len(&self, axis: usize) -> usize {
        self.dims[axis] * self.strides[axis]
    }

    /// Walks the box `lo..=hi` as contiguous runs of flat offsets, one per
    /// line along the innermost axis, in row-major order — the same cells
    /// in the same order as [`crate::FlatRegionIter`], a slice at a time.
    /// `cur` is caller-owned odometer scratch of length `ndim`, so a loop
    /// over many boxes allocates nothing.
    ///
    /// # Panics
    /// Debug-asserts that the box lies inside the shape; validate with
    /// [`Shape::check_region`] on untrusted input.
    pub fn for_each_run(
        &self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        mut f: impl FnMut(std::ops::Range<usize>),
    ) {
        self.fold_runs(lo, hi, cur, (), |(), run| f(run));
    }

    /// [`Shape::for_each_run`] with an accumulator threaded through the
    /// runs: `f` takes the value so far and returns the next, so a
    /// kernel's running sum or argmax stays a local of the loop (in a
    /// register) instead of a captured variable stored back every run.
    ///
    /// # Panics
    /// As [`Shape::for_each_run`].
    pub fn fold_runs<B>(
        &self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        init: B,
        mut f: impl FnMut(B, std::ops::Range<usize>) -> B,
    ) -> B {
        let Some(run) = self.first_run(lo, hi, cur) else {
            return init;
        };
        let mut acc = f(init, run.clone());
        let mut base = run.start;
        // One run per call of f; callers charge the runs at their own checkpoint (a blocked part, a
        // max-tree node).
        while self.next_run(lo, hi, cur, &mut base) {
            acc = f(acc, base..base + run.len());
        }
        acc
    }

    /// The first run of the box `lo..=hi` (see [`Shape::for_each_run`]),
    /// with the odometer `cur` set to its start; `None` for a 0-d box.
    pub(crate) fn first_run(
        &self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
    ) -> Option<std::ops::Range<usize>> {
        debug_assert!(self.contains(hi) && lo.iter().zip(hi).all(|(l, h)| l <= h));
        debug_assert_eq!(cur.len(), self.dims.len());
        let (&inner_lo, &inner_hi) = (lo.last()?, hi.last()?);
        cur.copy_from_slice(lo);
        let base = self.flatten(lo);
        Some(base..base + (inner_hi - inner_lo + 1))
    }

    /// One odometer step of [`Shape::for_each_run`]: moves `cur` and its
    /// flat offset `base` to the start of the box's next run, or returns
    /// false after the last one.
    #[inline]
    pub(crate) fn next_run(
        &self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        base: &mut usize,
    ) -> bool {
        // Odometer over the outer axes; the innermost one is the run. At most ndim steps per run.
        let outer = cur
            .iter_mut()
            .zip(lo.iter().zip(hi))
            .zip(self.strides.iter());
        for ((c, (&l, &h)), &s) in outer.rev().skip(1) {
            if *c < h {
                *c += 1;
                *base += s;
                return true;
            }
            *base -= (*c - l) * s;
            *c = l;
        }
        false
    }

    /// Shape of the cube contracted by block size `b` on every dimension:
    /// `⌈n_1/b⌉ × … × ⌈n_d/b⌉`.
    ///
    /// This is the index space of the blocked prefix-sum array (§4) and of
    /// each level of the range-max tree (§6.2).
    pub fn contract(&self, b: usize) -> Result<Shape, ArrayError> {
        if b == 0 {
            return Err(ArrayError::ZeroBlock);
        }
        let dims: Vec<usize> = self.dims.iter().map(|&n| n.div_ceil(b)).collect();
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[3, 4, 5]).unwrap();
        assert_eq!(s.strides(), &[20, 5, 1]);
        assert_eq!(s.len(), 60);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(Shape::new(&[]), Err(ArrayError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0, 2]), Err(ArrayError::ZeroDim { axis: 1 }));
        assert_eq!(Shape::new(&[usize::MAX, 2]), Err(ArrayError::TooLarge));
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let s = Shape::new(&[3, 6]).unwrap();
        // Figure 1 of the paper uses a 3×6 array.
        assert_eq!(s.flatten(&[0, 0]), 0);
        assert_eq!(s.flatten(&[1, 2]), 8);
        assert_eq!(s.flatten(&[2, 5]), 17);
        for flat in 0..s.len() {
            assert_eq!(s.flatten(&s.unflatten(flat)), flat);
        }
    }

    #[test]
    fn check_index_reports_axis() {
        let s = Shape::new(&[3, 6]).unwrap();
        assert_eq!(
            s.check_index(&[1, 6]),
            Err(ArrayError::OutOfBounds {
                axis: 1,
                index: 6,
                extent: 6
            })
        );
        assert_eq!(
            s.check_index(&[0, 0, 0]),
            Err(ArrayError::DimMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert!(s.check_index(&[2, 5]).is_ok());
    }

    #[test]
    fn full_region_covers_everything() {
        let s = Shape::new(&[3, 6]).unwrap();
        let r = s.full_region();
        assert_eq!(r.volume(), 18);
        assert!(s.check_region(&r).is_ok());
    }

    #[test]
    fn check_region_rejects_out_of_bounds() {
        let s = Shape::new(&[3, 6]).unwrap();
        let r = Region::from_bounds(&[(0, 2), (0, 6)]).unwrap();
        assert_eq!(
            s.check_region(&r),
            Err(ArrayError::OutOfBounds {
                axis: 1,
                index: 6,
                extent: 6
            })
        );
    }

    #[test]
    fn contract_rounds_up() {
        let s = Shape::new(&[10, 7, 3]).unwrap();
        let c = s.contract(3).unwrap();
        assert_eq!(c.dims(), &[4, 3, 1]);
        assert_eq!(s.contract(0), Err(ArrayError::ZeroBlock));
        // b = 1 keeps the shape.
        assert_eq!(s.contract(1).unwrap(), s);
    }
}
