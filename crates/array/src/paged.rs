//! [`PagedArray`]: a row-major cube in shared, copy-on-write pages.

use crate::{ArrayError, CellRead, DenseArray, Shape};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// log2 of [`PAGE_LEN`].
const PAGE_SHIFT: u32 = 12;

/// Cells per page of a [`PagedArray`]: 4096, so 32 KiB of `i64`.
pub const PAGE_LEN: usize = 1 << PAGE_SHIFT;

/// A dense d-dimensional array in row-major order, cut into pages of
/// [`PAGE_LEN`] cells (the last one may be shorter) that clones share.
///
/// This is the base cube a stack of engines shares and versions. A clone
/// copies the page table, one reference per page, and no cell; a write
/// copies only the page it lands in, and only while another clone still
/// shares that page. So the successor of a cube after a batch of `k` cell
/// updates costs the page table plus at most `k` pages, however large the
/// cube — §5's "update in proportion to the batch" for the base cube
/// itself.
///
/// Equality is by shape and content, not by which pages are shared.
#[derive(Clone)]
pub struct PagedArray<T> {
    shape: Shape,
    /// Page `i` holds cells `i·PAGE_LEN..`, [`PAGE_LEN`] of them except
    /// in the last page.
    pages: Box<[Arc<[T]>]>,
}

impl<T: Clone> PagedArray<T> {
    /// Copies a row-major buffer into pages.
    ///
    /// # Errors
    /// [`ArrayError::StorageMismatch`] when `cells.len() ≠ shape.len()`.
    pub fn from_slice(shape: Shape, cells: &[T]) -> Result<Self, ArrayError> {
        if cells.len() != shape.len() {
            return Err(ArrayError::StorageMismatch {
                expected: shape.len(),
                actual: cells.len(),
            });
        }
        Ok(PagedArray {
            pages: cells.chunks(PAGE_LEN).map(Arc::from).collect(),
            shape,
        })
    }

    /// Mutable cell at a flat (row-major) offset inside the shape. Copies
    /// the cell's page first when a clone still shares it; no other page
    /// is touched.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flat offset inside the shape lies in page flat >> PAGE_SHIFT at flat % PAGE_LEN; callers validate with check_index first, like slice indexing"
    )]
    pub fn get_flat_mut(&mut self, flat: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.pages[flat >> PAGE_SHIFT])[flat & (PAGE_LEN - 1)]
    }
}

impl<T> PagedArray<T> {
    /// The array's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Always false (shapes have ≥ 1 cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell at a multi-index inside the shape.
    pub fn get(&self, index: &[usize]) -> &T {
        self.get_flat(self.shape.flatten(index))
    }

    /// Cell at a flat (row-major) offset inside the shape.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flat offset inside the shape lies in page flat >> PAGE_SHIFT at flat % PAGE_LEN; callers validate with check_index/check_region first, like slice indexing"
    )]
    pub fn get_flat(&self, flat: usize) -> &T {
        &self.pages[flat >> PAGE_SHIFT][flat & (PAGE_LEN - 1)]
    }

    /// Number of pages.
    #[cfg(test)]
    fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// How many pages `self` shares with `other` (the same allocation at
    /// the same position): all of them right after a clone, one fewer for
    /// each page a write has copied out since.
    #[cfg(test)]
    fn shared_pages(&self, other: &PagedArray<T>) -> usize {
        let pairs = self.pages.iter().zip(other.pages.iter());
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// The cells of page `i`; empty past the last page.
    fn page_cells(&self, i: usize) -> &[T] {
        self.pages.get(i).map_or(&[][..], |p| p)
    }

    /// Folds the cells of the flat offsets `cells` a page at a time, one
    /// slice per page the range touches: [`CellRead::fold_runs`]'s and
    /// [`CellRead::fold_slices`]' path for a range across a page edge.
    #[cold]
    fn fold_split<'a, B>(
        &'a self,
        cells: Range<usize>,
        mut acc: B,
        mut f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B {
        let mut at = cells.start;
        while at < cells.end {
            let off = at & (PAGE_LEN - 1);
            let page = self.page_cells(at >> PAGE_SHIFT);
            let take = (page.len().saturating_sub(off)).min(cells.end - at);
            let Some(slice) = page.get(off..off + take).filter(|s| !s.is_empty()) else {
                break;
            };
            acc = f(acc, at, slice);
            at += take;
        }
        acc
    }
}

impl<T> CellRead<T> for PagedArray<T> {
    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn get_flat(&self, flat: usize) -> &T {
        PagedArray::get_flat(self, flat)
    }

    /// A range inside one page, the common case, is one table lookup and
    /// one slice; only a range across a page edge is split.
    fn fold_slices<'a, B>(
        &'a self,
        cells: Range<usize>,
        init: B,
        mut f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a,
    {
        let off = cells.start & (PAGE_LEN - 1);
        let page = self.page_cells(cells.start >> PAGE_SHIFT);
        match page.get(off..off + cells.len()) {
            Some(slice) => f(init, cells.start, slice),
            None => self.fold_split(cells, init, f),
        }
    }

    /// The runs of one box mostly fall in the page of the run before
    /// (four 1024-cell rows share a page), so a page is looked up once
    /// and the runs inside it cost one bounds check each, as in a
    /// contiguous buffer; only a run across a page edge is split.
    fn fold_runs<'a, B>(
        &'a self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        init: B,
        mut f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a,
    {
        let Some(run) = self.shape.first_run(lo, hi, cur) else {
            return init;
        };
        let (mut start, len, mut acc) = (run.start, run.len(), init);
        loop {
            let i = start >> PAGE_SHIFT;
            let (first, page) = (i << PAGE_SHIFT, self.page_cells(i));
            while let Some(slice) = page.get(start - first..start - first + len) {
                acc = f(acc, start, slice);
                if !self.shape.next_run(lo, hi, cur, &mut start) {
                    return acc;
                }
            }
            // The run starts in a later page, or crosses this one's edge.
            if start >> PAGE_SHIFT == i {
                acc = self.fold_split(start..start + len, acc, &mut f);
                if !self.shape.next_run(lo, hi, cur, &mut start) {
                    return acc;
                }
            }
        }
    }
}

impl<T: PartialEq> PartialEq for PagedArray<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && (0..self.pages.len()).all(|i| self.page_cells(i) == other.page_cells(i))
    }
}

impl<T: Eq> Eq for PagedArray<T> {}

impl<T> fmt::Debug for PagedArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedArray")
            .field("shape", &self.shape)
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl<T: Clone> From<DenseArray<T>> for PagedArray<T> {
    /// Copies the dense array's cells into pages.
    fn from(a: DenseArray<T>) -> Self {
        PagedArray {
            pages: a.as_slice().chunks(PAGE_LEN).map(Arc::from).collect(),
            shape: a.shape().clone(),
        }
    }
}

impl<T: Clone> From<DenseArray<T>> for Arc<PagedArray<T>> {
    fn from(a: DenseArray<T>) -> Self {
        Arc::new(PagedArray::from(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    fn cube(dims: &[usize]) -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(dims).unwrap(), |idx| {
            idx.iter()
                .enumerate()
                .map(|(k, &x)| (k as i64 * 7 + 3) * x as i64)
                .sum::<i64>()
                % 1009
                - 500
        })
    }

    /// Shapes for d = 1..4 whose cell counts fall below, on and between
    /// page edges; the last is the insurance cube (innermost extent 3).
    const SHAPES: [&[usize]; 6] = [
        &[5],
        &[4096],
        &[9000],
        &[70, 130],
        &[17, 33, 11],
        &[100, 10, 50, 3],
    ];

    #[test]
    fn a_round_trip_through_pages_is_the_identity() {
        for dims in SHAPES {
            let a = cube(dims);
            let paged = PagedArray::from(a.clone());
            assert_eq!(paged.len(), a.len());
            assert_eq!(paged.page_count(), a.len().div_ceil(PAGE_LEN), "{dims:?}");
            assert_eq!(paged.to_dense(), a, "{dims:?}");
            let copied = PagedArray::from_slice(a.shape().clone(), a.as_slice()).unwrap();
            assert_eq!(copied, paged);
            for flat in [0, a.len() / 2, a.len() - 1] {
                assert_eq!(paged.get_flat(flat), a.get_flat(flat));
                let idx = a.shape().unflatten(flat);
                assert_eq!(paged.get(&idx), a.get(&idx));
            }
        }
    }

    #[test]
    fn from_slice_checks_length() {
        let shape = Shape::new(&[3, 3]).unwrap();
        assert_eq!(
            PagedArray::from_slice(shape, &[1i64, 2, 3]),
            Err(ArrayError::StorageMismatch {
                expected: 9,
                actual: 3
            })
        );
    }

    #[test]
    fn a_clone_shares_every_page() {
        let dense = cube(&[100, 10, 50, 3]);
        let paged = PagedArray::from(dense.clone());
        let copy = paged.clone();
        assert_eq!(paged.page_count(), 37);
        assert_eq!(copy.shared_pages(&paged), paged.page_count());
        // A conversion copies: two conversions of one array share nothing.
        assert_eq!(PagedArray::from(dense).shared_pages(&paged), 0);
    }

    #[test]
    fn one_write_copies_exactly_its_page() {
        let paged = PagedArray::from(cube(&[70, 130]));
        let pages = paged.page_count();
        for flat in [0, PAGE_LEN - 1, PAGE_LEN, 70 * 130 - 1] {
            let mut next = paged.clone();
            *next.get_flat_mut(flat) += 1;
            assert_eq!(next.shared_pages(&paged), pages - 1, "write at {flat}");
            assert_eq!(*next.get_flat(flat), paged.get_flat(flat) + 1);
            let mut want = paged.to_dense();
            *want.get_flat_mut(flat) += 1;
            assert_eq!(next.to_dense(), want);
            // A second write to the now private page copies nothing.
            *next.get_flat_mut(flat) += 1;
            assert_eq!(next.shared_pages(&paged), pages - 1);
        }
    }

    #[test]
    fn equality_is_by_content() {
        let a = PagedArray::from(cube(&[17, 33, 11]));
        let b = PagedArray::from(cube(&[17, 33, 11]));
        assert_eq!(b.shared_pages(&a), 0);
        assert_eq!(a, b);
        let mut c = a.clone();
        *c.get_flat_mut(5000) += 1;
        assert_ne!(a, c);
        *c.get_flat_mut(5000) -= 1;
        assert_eq!(a, c);
        // Same cells, another shape.
        let line = PagedArray::from_slice(Shape::new(&[17 * 33 * 11]).unwrap(), &{
            let dense = cube(&[17, 33, 11]);
            dense.as_slice().to_vec()
        })
        .unwrap();
        assert_ne!(line, a);
    }

    /// Every box of a few shapes, folded run by run through the pages,
    /// against the same fold over the contiguous array: a run that crosses
    /// a page edge arrives as two slices whose offsets continue each other.
    /// A fresh conversion, and a clone with every other page copied out.
    #[test]
    fn runs_split_at_page_edges_and_cover_the_box() {
        for dims in [&[9000][..], &[70, 130], &[100, 10, 50, 3]] {
            let a = cube(dims);
            let fresh = PagedArray::from(a.clone());
            let mut mixed = fresh.clone();
            for page in (0..mixed.page_count()).step_by(2) {
                *mixed.get_flat_mut(page * PAGE_LEN) += 0;
            }
            assert!(mixed.shared_pages(&fresh) < fresh.page_count());
            for paged in [&fresh, &mixed] {
                runs_cover_the_boxes(&a, paged);
            }
        }
    }

    /// Checks every run of three boxes of `a` that `paged` hands out.
    fn runs_cover_the_boxes(a: &DenseArray<i64>, paged: &PagedArray<i64>) {
        let (shape, dims) = (a.shape(), a.shape().dims());
        let boxes = [
            shape.full_region(),
            Region::from_bounds(&dims.iter().map(|&n| (n / 3, n - 1)).collect::<Vec<_>>()).unwrap(),
            Region::from_bounds(&dims.iter().map(|&n| (n / 2, n / 2)).collect::<Vec<_>>()).unwrap(),
        ];
        for region in boxes {
            let (lo, hi) = (region.lower_corner(), region.upper_corner());
            let mut cur = lo.clone();
            let mut seen = Vec::new();
            let mut crossed = 0;
            let mut next_run_start = None;
            paged.for_each_run(&lo, &hi, &mut cur, |start, cells| {
                assert!(!cells.is_empty());
                // No slice spans two pages.
                assert_eq!(start / PAGE_LEN, (start + cells.len() - 1) / PAGE_LEN);
                if next_run_start == Some(start) && start % PAGE_LEN == 0 {
                    crossed += 1;
                }
                next_run_start = Some(start + cells.len());
                seen.extend(cells.iter().zip(start..).map(|(&v, off)| (off, v)));
            });
            let want: Vec<(usize, i64)> = a
                .region_offsets(&region)
                .map(|off| (off, *a.get_flat(off)))
                .collect();
            assert_eq!(seen, want, "{dims:?} {region}");
            if region == shape.full_region() && a.len() > PAGE_LEN {
                assert!(crossed > 0, "{dims:?}: some run crosses a page edge");
            }
        }
    }

    #[test]
    fn a_partial_last_page_ends_the_cube() {
        let a = cube(&[9000]);
        let paged = PagedArray::from(a.clone());
        assert_eq!(paged.page_count(), 3);
        let push = |mut slices: Vec<(usize, usize)>, start, cells: &[i64]| {
            slices.push((start, cells.len()));
            slices
        };
        let slices = paged.fold_slices(PAGE_LEN - 2..9000 + 50, Vec::new(), push);
        assert_eq!(
            slices,
            [
                (PAGE_LEN - 2, 2),
                (PAGE_LEN, PAGE_LEN),
                (2 * PAGE_LEN, 9000 - 2 * PAGE_LEN)
            ]
        );
        assert_eq!(a.fold_slices(10..20, Vec::new(), push), [(10, 10)]);
    }

    #[test]
    fn contraction_over_pages_equals_the_contiguous_one() {
        for dims in SHAPES {
            let a = cube(dims);
            let paged = PagedArray::from(a.clone());
            for b in [1, 2, 3, 16] {
                let fold = |acc: &i64, &x: &i64, off: usize| {
                    acc.wrapping_mul(3).wrapping_add(x ^ off as i64)
                };
                assert_eq!(
                    paged.contract_blocks(b, 0, fold).unwrap(),
                    a.contract_blocks(b, 0, fold).unwrap(),
                    "{dims:?} b {b}"
                );
            }
        }
    }
}
