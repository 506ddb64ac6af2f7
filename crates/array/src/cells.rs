//! [`CellRead`]: the one read interface every cube kernel goes through.

use crate::{ArrayError, DenseArray, Shape};
use std::ops::Range;
use std::sync::Arc;

/// Read access to the cells of a row-major cube, whatever holds them: one
/// contiguous buffer ([`DenseArray`]) or shared pages
/// ([`crate::PagedArray`]).
///
/// The kernels that read the base cube (the blocked boundary scans, the §6
/// walk and its §7 rescans, the naive scans, the tree-sum leaves) are
/// written once against this trait. An implementor supplies four methods;
/// the rest are provided.
///
/// Cells come as slices, and a slice never crosses a storage boundary: a
/// contiguous buffer hands a run over whole, a paged one splits it at each
/// page edge. A caller must fold the slices of one run as one, which every
/// provided method does.
pub trait CellRead<T> {
    /// The cube's shape.
    fn shape(&self) -> &Shape;

    /// Cell at a flat (row-major) offset inside the shape.
    fn get_flat(&self, flat: usize) -> &T;

    /// Folds the cells of the flat offsets `cells`, in order, a slice at a
    /// time: `f` takes the value so far, the flat offset of a slice's
    /// first cell and the slice, and returns the next value. A range past
    /// the end of the cube yields nothing for the part past it.
    fn fold_slices<'a, B>(
        &'a self,
        cells: Range<usize>,
        init: B,
        f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a;

    /// Folds the cells of the box `lo..=hi` in row-major order, one
    /// innermost-axis run at a time (split at storage edges): `f` takes
    /// the value so far, the flat offset of a slice's first cell and the
    /// slice, and returns the next value. `cur` is the odometer's scratch,
    /// one slot per axis. The kernels' box scans go through here, so their
    /// running value stays a local of the loop.
    fn fold_runs<'a, B>(
        &'a self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        init: B,
        f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a;

    /// Cell at a multi-index inside the shape.
    fn get(&self, index: &[usize]) -> &T {
        self.get_flat(self.shape().flatten(index))
    }

    /// Hands `f` the cells of the box `lo..=hi` as [`CellRead::fold_runs`]
    /// walks them, each slice paired with the flat offset of its first
    /// cell.
    fn for_each_run<'a>(
        &'a self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        mut f: impl FnMut(usize, &'a [T]),
    ) where
        T: 'a,
    {
        self.fold_runs(lo, hi, cur, (), |(), start, cells| f(start, cells));
    }

    /// A contiguous copy of the cube.
    fn to_dense(&self) -> DenseArray<T>
    where
        T: Clone,
    {
        let shape = self.shape().clone();
        let cells: Arc<[T]> = (0..shape.len())
            .map(|flat| self.get_flat(flat).clone())
            .collect();
        DenseArray::from_arc(shape, cells)
    }

    /// Contracts the cube by block size `b` on every dimension, combining
    /// each `b × … × b` block (clipped at the edges) into one output cell
    /// with `fold` starting from `init`.
    ///
    /// This is the first phase of both the blocked prefix-sum computation
    /// (§4.3) and the level-by-level range-max tree construction (§6.2).
    /// Every output cell folds its own block of `A` in row-major order;
    /// `fold` receives the accumulator, the input cell and the input
    /// cell's flat offset.
    ///
    /// # Errors
    /// [`ArrayError::ZeroBlock`] when `b = 0`.
    fn contract_blocks<U: Clone>(
        &self,
        b: usize,
        init: U,
        mut fold: impl FnMut(&U, &T, usize) -> U,
    ) -> Result<DenseArray<U>, ArrayError> {
        let shape = self.shape();
        let out_shape = shape.contract(b)?;
        // One set of odometer buffers for the whole contraction: the block
        // of every output cell is walked over the same scratch.
        let mut out_idx = vec![0usize; shape.ndim()];
        let (mut lo, mut hi, mut cur) = (out_idx.clone(), out_idx.clone(), out_idx.clone());
        let cells: Arc<[U]> = (0..out_shape.len())
            .map(|out_flat| {
                out_shape.unflatten_into(out_flat, &mut out_idx);
                // The block under this output cell, clipped at the cube's
                // boundary.
                let corners = lo.iter_mut().zip(hi.iter_mut());
                for ((l, h), (&bi, &n)) in corners.zip(out_idx.iter().zip(shape.dims())) {
                    *l = bi * b;
                    *h = ((bi + 1) * b - 1).min(n - 1);
                }
                self.fold_runs(&lo, &hi, &mut cur, init.clone(), |acc, start, run| {
                    run.iter()
                        .zip(start..)
                        .fold(acc, |acc, (x, off)| fold(&acc, x, off))
                })
            })
            .collect();
        Ok(DenseArray::from_arc(out_shape, cells))
    }
}

/// A shared cube reads like the cube it points to, so a kernel takes an
/// `&Arc<DenseArray<T>>` as it took one when kernels read `&DenseArray`
/// (a generic `&impl CellRead` parameter gets no deref coercion).
impl<T, A: CellRead<T>> CellRead<T> for Arc<A> {
    fn shape(&self) -> &Shape {
        (**self).shape()
    }

    fn get_flat(&self, flat: usize) -> &T {
        (**self).get_flat(flat)
    }

    fn fold_slices<'a, B>(
        &'a self,
        cells: Range<usize>,
        init: B,
        f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a,
    {
        (**self).fold_slices(cells, init, f)
    }

    fn fold_runs<'a, B>(
        &'a self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut [usize],
        init: B,
        f: impl FnMut(B, usize, &'a [T]) -> B,
    ) -> B
    where
        T: 'a,
    {
        (**self).fold_runs(lo, hi, cur, init, f)
    }

    fn to_dense(&self) -> DenseArray<T>
    where
        T: Clone,
    {
        (**self).to_dense()
    }
}
