use crate::{ArrayError, CellRead, FlatRegionIter, Region, Shape};
use std::sync::Arc;

/// A dense d-dimensional array stored in row-major order — the cube `A` of
/// §2 and the prefix-sum array `P` of §3.
///
/// The cells sit in one reference-counted buffer: a clone shares it, and
/// the first write through a `&mut` accessor to a shared buffer copies it
/// (copy-on-write). A builder handed a clone it only reads copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseArray<T> {
    shape: Shape,
    data: Arc<[T]>,
}

impl<T: Clone> DenseArray<T> {
    /// An array of the given shape with every cell set to `fill`.
    pub fn filled(shape: Shape, fill: T) -> Self {
        let data = (0..shape.len()).map(|_| fill.clone()).collect();
        DenseArray { shape, data }
    }

    /// Builds an array from a row-major buffer.
    ///
    /// # Errors
    /// [`ArrayError::StorageMismatch`] when `data.len() ≠ shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Result<Self, ArrayError> {
        if data.len() != shape.len() {
            return Err(ArrayError::StorageMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(DenseArray {
            shape,
            data: data.into(),
        })
    }

    /// Builds an array by evaluating `f` at every multi-index, in row-major
    /// order.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut idx = vec![0usize; shape.ndim()];
        let data = (0..shape.len())
            .map(|flat| {
                shape.unflatten_into(flat, &mut idx);
                f(&idx)
            })
            .collect();
        DenseArray { shape, data }
    }

    /// Mutable view of the row-major backing storage. Copies the buffer
    /// first when a clone shares it; every `&mut` accessor goes through
    /// here.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data)
    }

    /// Mutable cell at a multi-index.
    #[expect(
        clippy::indexing_slicing,
        reason = "a multi-index or flat offset inside the shape is inside the row-major storage; callers validate with check_index/check_region first, like slice indexing"
    )]
    pub fn get_mut(&mut self, index: &[usize]) -> &mut T {
        let flat = self.shape.flatten(index);
        &mut self.as_mut_slice()[flat]
    }

    /// Mutable cell at a flat (row-major) offset.
    #[expect(
        clippy::indexing_slicing,
        reason = "a multi-index or flat offset inside the shape is inside the row-major storage; callers validate with check_index/check_region first, like slice indexing"
    )]
    pub fn get_flat_mut(&mut self, flat: usize) -> &mut T {
        &mut self.as_mut_slice()[flat]
    }

    /// Replaces the cell at `index`, returning the previous value.
    pub fn replace(&mut self, index: &[usize], value: T) -> T {
        std::mem::replace(self.get_mut(index), value)
    }

    /// Hands `f` every contiguous innermost-axis run of the box `lo..=hi`
    /// as a mutable slice, in row-major order: the cells
    /// [`DenseArray::region_offsets`] yields, a line at a time. `cur` is
    /// the odometer's scratch, one slot per axis.
    #[expect(
        clippy::indexing_slicing,
        reason = "for_each_run yields offsets inside the shape for a box inside it (debug-asserted)"
    )]
    pub fn for_each_run_mut(
        &mut self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        mut f: impl FnMut(&mut [T]),
    ) {
        let data = Arc::make_mut(&mut self.data);
        self.shape
            .for_each_run(lo, hi, cur, |run| f(&mut data[run]));
    }

    /// In-place inclusive scan along `axis`: every cell becomes
    /// `combine(previous_cell_along_axis, cell)`.
    ///
    /// With `combine = ⊕` this is one phase of the d-phase prefix-sum
    /// computation of §3.3. Cells are visited in storage order (the paper's
    /// paging recommendation): for each slab along `axis`, the inner loop
    /// walks contiguous memory.
    #[expect(
        clippy::indexing_slicing,
        reason = "axis < ndim is the caller's contract, like slice indexing"
    )]
    pub fn scan_axis(&mut self, axis: usize, mut combine: impl FnMut(&T, &T) -> T) {
        let n = self.shape.dim(axis);
        let stride = self.shape.strides()[axis];
        for slab in self.split_axis_lines(axis) {
            scan_slab(slab, n, stride, &mut combine);
        }
    }

    /// Disjoint contiguous slabs, each containing complete lines along
    /// `axis`, in storage order. An in-place scan (or any line-local
    /// kernel) along `axis` touches each slab independently, so the slabs
    /// may be processed in any order or concurrently. For `axis = 0` a
    /// single slab covers the whole array.
    pub fn split_axis_lines(&mut self, axis: usize) -> impl Iterator<Item = &mut [T]> {
        let slab = self.shape.axis_slab_len(axis);
        self.as_mut_slice().chunks_mut(slab)
    }
}

impl<T> DenseArray<T> {
    /// An array over a buffer already laid out row-major for `shape`.
    pub(crate) fn from_arc(shape: Shape, data: Arc<[T]>) -> Self {
        debug_assert_eq!(shape.len(), data.len());
        DenseArray { shape, data }
    }

    /// The array's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (shapes have ≥ 1 cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Cell at a multi-index.
    #[expect(
        clippy::indexing_slicing,
        reason = "a multi-index or flat offset inside the shape is inside the row-major storage; callers validate with check_index/check_region first, like slice indexing"
    )]
    pub fn get(&self, index: &[usize]) -> &T {
        &self.data[self.shape.flatten(index)]
    }

    /// Checked cell access.
    pub fn try_get(&self, index: &[usize]) -> Result<&T, ArrayError> {
        self.shape.check_index(index)?;
        Ok(self.get(index))
    }

    /// Cell at a flat (row-major) offset.
    #[expect(
        clippy::indexing_slicing,
        reason = "a multi-index or flat offset inside the shape is inside the row-major storage; callers validate with check_index/check_region first, like slice indexing"
    )]
    pub fn get_flat(&self, flat: usize) -> &T {
        &self.data[flat]
    }

    /// Iterates flat offsets of a region (row-major).
    pub fn region_offsets(&self, region: &Region) -> FlatRegionIter {
        FlatRegionIter::new(&self.shape, region)
    }

    /// Folds `f` over all cells of `region` in row-major order.
    #[expect(
        clippy::indexing_slicing,
        reason = "region offsets of a region inside the shape are inside the storage"
    )]
    pub fn fold_region<Acc>(
        &self,
        region: &Region,
        init: Acc,
        mut f: impl FnMut(Acc, &T) -> Acc,
    ) -> Acc {
        let mut acc = init;
        for off in self.region_offsets(region) {
            acc = f(acc, &self.data[off]);
        }
        acc
    }

    /// Applies `f` to every cell, producing a new array of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> DenseArray<U> {
        DenseArray {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T> CellRead<T> for DenseArray<T> {
    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn get_flat(&self, flat: usize) -> &T {
        DenseArray::get_flat(self, flat)
    }

    fn fold_slices<'a, B>(
        &'a self,
        cells: std::ops::Range<usize>,
        init: B,
        mut f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a,
    {
        f(init, cells.start, self.data.get(cells).unwrap_or_default())
    }

    fn to_dense(&self) -> DenseArray<T>
    where
        T: Clone,
    {
        self.clone()
    }

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
        self.shape.fold_runs(lo, hi, cur, init, |acc, r| {
            f(acc, r.start, self.data.get(r).unwrap_or_default())
        })
    }
}

/// The per-slab kernel of [`DenseArray::scan_axis`]: an in-place inclusive
/// scan of one contiguous slab holding complete lines along an axis of
/// extent `n` and inner stride `stride`.
#[expect(
    clippy::indexing_slicing,
    reason = "the slab holds n complete lines of stride cells, so k*stride <= len and each split has stride cells"
)]
fn scan_slab<T>(slab: &mut [T], n: usize, stride: usize, combine: &mut impl FnMut(&T, &T) -> T) {
    for k in 1..n {
        let (head, tail) = slab.split_at_mut(k * stride);
        let prev = &head[(k - 1) * stride..];
        for (dst, src) in tail[..stride].iter_mut().zip(prev) {
            *dst = combine(src, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Range;

    /// The 3×6 array `A` of Figure 1.
    pub(crate) fn figure1_a() -> DenseArray<i64> {
        DenseArray::from_vec(
            Shape::new(&[3, 6]).unwrap(),
            vec![
                3, 5, 1, 2, 2, 3, //
                7, 3, 2, 6, 8, 2, //
                2, 4, 2, 3, 3, 5,
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        let shape = Shape::new(&[2, 2]).unwrap();
        assert_eq!(
            DenseArray::from_vec(shape, vec![1, 2, 3]),
            Err(ArrayError::StorageMismatch {
                expected: 4,
                actual: 3
            })
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = figure1_a();
        assert_eq!(*a.get(&[1, 4]), 8);
        *a.get_mut(&[1, 4]) = 42;
        assert_eq!(*a.get(&[1, 4]), 42);
        assert_eq!(a.replace(&[1, 4], 8), 42);
        assert_eq!(*a.get(&[1, 4]), 8);
    }

    #[test]
    fn try_get_reports_errors() {
        let a = figure1_a();
        assert!(a.try_get(&[2, 5]).is_ok());
        assert!(a.try_get(&[3, 0]).is_err());
        assert!(a.try_get(&[0]).is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let shape = Shape::new(&[2, 3]).unwrap();
        let a = DenseArray::from_fn(shape, |idx| (idx[0] * 10 + idx[1]) as i64);
        assert_eq!(a.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn fold_region_sums() {
        let a = figure1_a();
        let r = Region::from_bounds(&[(2, 2), (1, 2)]).unwrap();
        let s = a.fold_region(&r, 0i64, |acc, &x| acc + x);
        assert_eq!(s, 4 + 2);
    }

    #[test]
    fn scan_axis_one_dim_prefix() {
        let mut a =
            DenseArray::from_vec(Shape::new(&[5]).unwrap(), vec![1i64, 2, 3, 4, 5]).unwrap();
        a.scan_axis(0, |p, c| p + c);
        assert_eq!(a.as_slice(), &[1, 3, 6, 10, 15]);
    }

    #[test]
    fn scan_both_axes_matches_figure1_prefix() {
        // Running the two phases of §3.3 on Figure 1's A must yield its P.
        let mut p = figure1_a();
        p.scan_axis(1, |a, b| a + b); // along dimension 2 first (order is irrelevant)
        p.scan_axis(0, |a, b| a + b);
        let expected = vec![
            3, 8, 9, 11, 13, 16, //
            10, 18, 21, 29, 39, 44, //
            12, 24, 29, 40, 53, 63,
        ];
        assert_eq!(p.as_slice(), expected.as_slice());
    }

    #[test]
    fn scan_axis_middle_dimension() {
        let shape = Shape::new(&[2, 3, 2]).unwrap();
        let mut a = DenseArray::from_fn(shape.clone(), |_| 1i64);
        a.scan_axis(1, |p, c| p + c);
        for idx in shape.full_region().iter_indices() {
            assert_eq!(*a.get(&idx), (idx[1] + 1) as i64, "at {idx:?}");
        }
    }

    #[test]
    fn contract_blocks_sums_blocks() {
        // 3×6 with b = 2 → 2×3 of block sums (last row is a partial block).
        let a = figure1_a();
        let c = a.contract_blocks(2, 0i64, |acc, &x, _| acc + x).unwrap();
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(
            c.as_slice(),
            &[
                3 + 5 + 7 + 3,
                1 + 2 + 2 + 6,
                2 + 3 + 8 + 2,
                2 + 4,
                2 + 3,
                3 + 5
            ]
        );
    }

    #[test]
    fn contract_blocks_b1_is_identity() {
        let a = figure1_a();
        let c = a.contract_blocks(1, 0i64, |acc, &x, _| acc + x).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    /// The allocation-per-output-cell formulation `contract_blocks` used
    /// to have: a fresh block `Region` and `FlatRegionIter` for every
    /// output cell. Kept as the order-and-value reference.
    fn contract_blocks_reference(
        a: &DenseArray<i64>,
        b: usize,
        mut fold: impl FnMut(&i64, &i64, usize) -> i64,
    ) -> DenseArray<i64> {
        let out_shape = a.shape.contract(b).unwrap();
        let data = (0..out_shape.len())
            .map(|out_flat| {
                let ranges: Vec<Range> = out_shape
                    .unflatten(out_flat)
                    .iter()
                    .zip(a.shape.dims())
                    .map(|(&bi, &n)| Range::new(bi * b, ((bi + 1) * b - 1).min(n - 1)).unwrap())
                    .collect();
                let block = Region::new(ranges).unwrap();
                let mut acc = 0i64;
                for off in FlatRegionIter::new(&a.shape, &block) {
                    acc = fold(&acc, &a.data[off], off);
                }
                acc
            })
            .collect();
        DenseArray::from_vec(out_shape, data).unwrap()
    }

    #[test]
    fn contract_blocks_visits_the_reference_cells_in_the_reference_order() {
        // Extents that are not multiples of `b` (ragged last blocks), an
        // extent below `b`, and b = 1, for d = 1..4.
        let cases: [(&[usize], &[usize]); 4] = [
            (&[11], &[1, 2, 3, 4, 16]),
            (&[7, 10], &[2, 3, 4, 8]),
            (&[5, 3, 9], &[2, 4]),
            (&[3, 5, 2, 7], &[2, 3]),
        ];
        for (dims, blocks) in cases {
            let a = DenseArray::from_fn(Shape::new(dims).unwrap(), |idx| {
                idx.iter()
                    .enumerate()
                    .map(|(k, &x)| (k as i64 + 3) * x as i64)
                    .sum::<i64>()
                    % 17
                    - 8
            });
            for &b in blocks {
                let (mut seen, mut seen_ref) = (Vec::new(), Vec::new());
                let got = a
                    .contract_blocks(b, 0i64, |acc, &x, off| {
                        seen.push(off);
                        acc.wrapping_mul(3).wrapping_add(x)
                    })
                    .unwrap();
                let want = contract_blocks_reference(&a, b, |acc, &x, off| {
                    seen_ref.push(off);
                    acc.wrapping_mul(3).wrapping_add(x)
                });
                assert_eq!(got, want, "dims {dims:?} b {b}");
                assert_eq!(seen, seen_ref, "dims {dims:?} b {b}");
                assert_eq!(seen.len(), a.len());
            }
        }
    }

    #[test]
    fn map_preserves_shape() {
        let a = figure1_a();
        let b = a.map(|&x| x * 2);
        assert_eq!(b.shape(), a.shape());
        assert_eq!(*b.get(&[1, 3]), 12);
    }

    #[test]
    fn split_axis_lines_are_disjoint_and_complete() {
        let shape = Shape::new(&[3, 4, 2]).unwrap();
        let mut a = DenseArray::filled(shape, 0i64);
        for (slab_no, slab) in a.split_axis_lines(1).enumerate() {
            for cell in slab.iter_mut() {
                *cell += 1 + slab_no as i64;
            }
        }
        // Every cell written exactly once, slab numbering follows axis 0.
        for idx in a.shape().full_region().iter_indices() {
            assert_eq!(*a.get(&idx), 1 + idx[0] as i64, "at {idx:?}");
        }
    }

    #[test]
    fn region_offsets_respects_ranges() {
        let a = figure1_a();
        let r = Region::new(vec![Range::new(0, 1).unwrap(), Range::new(4, 5).unwrap()]).unwrap();
        let vals: Vec<i64> = a.region_offsets(&r).map(|o| a.as_slice()[o]).collect();
        assert_eq!(vals, vec![2, 3, 8, 2]);
    }
}
