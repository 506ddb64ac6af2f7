//! The blocked range-sum algorithm (§4): prefix sums kept only at block
//! anchors, trading query time for a `1/b^d` space footprint.

use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, CellRead, DenseArray, Range, Region, Shape};
use olap_query::{AccessStats, QueryCtx};

/// How a single boundary region was (or must be) evaluated (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMethod {
    /// Sum the cells of `A` inside the boundary region directly.
    Direct,
    /// Sum the superblock from `P` and subtract the complement's `A` cells.
    Complement,
}

/// Evaluation policy for boundary regions. `Auto` is the paper's rule:
/// take `Direct` when `vol(R) ≤ vol(complement) + 2^d − 1`, else
/// `Complement`. The forced variants exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryPolicy {
    /// The paper's per-region cost rule.
    #[default]
    Auto,
    /// Always sum boundary cells directly (complement trick disabled).
    AlwaysDirect,
    /// Always use the superblock-minus-complement method.
    AlwaysComplement,
}

/// One piece of the `3^d` decomposition of a query (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPart {
    /// The sub-region itself.
    pub region: Region,
    /// Its superblock: the smallest block-aligned region containing it.
    pub superblock: Region,
    /// Whether this is the internal region (block-aligned on every
    /// dimension, answerable from `P` alone).
    pub internal: bool,
}

impl RegionPart {
    /// The complement region `superblock − region`, decomposed into
    /// disjoint boxes.
    pub fn complement(&self) -> Vec<Region> {
        self.superblock.subtract(&self.region)
    }

    /// The method the paper's cost rule selects for this part.
    pub fn preferred_method(&self, d: usize) -> BoundaryMethod {
        preferred_method(self.region.volume(), self.superblock.volume(), d)
    }
}

/// The paper's per-region cost rule: "choose the first method when the
/// volume of R is smaller than or equal to the volume of its complement
/// region plus 2^d − 1".
fn preferred_method(vol: usize, superblock_vol: usize, d: usize) -> BoundaryMethod {
    let complement_vol = superblock_vol - vol;
    if vol <= complement_vol + ((1usize << d) - 1) {
        BoundaryMethod::Direct
    } else {
        BoundaryMethod::Complement
    }
}

/// One axis's share of a §4.2 part: a subrange `lo..=hi` of the query,
/// its superblock range `sb_lo..=sb_hi`, and whether it is the
/// block-aligned middle.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    lo: usize,
    hi: usize,
    sb_lo: usize,
    sb_hi: usize,
    mid: bool,
}

/// The subranges of a query on one axis (§4.2): a low edge, the aligned
/// middle and a high edge (case 1), or one subrange inside a block
/// (case 2). Only the first `len` pieces are used.
#[derive(Debug, Clone, Copy, Default)]
struct AxisSplit {
    pieces: [Piece; 3],
    len: usize,
}

/// The per-axis split of one query. Its parts are the Cartesian product
/// of the axes' pieces, taken in row-major order (the last axis's piece
/// varies fastest): the one enumeration behind both
/// [`BlockedPrefixSum::decompose`] and the query kernel.
struct Split {
    axes: Vec<AxisSplit>,
}

/// Per-query scratch of the §4.2 kernel, carved from one buffer of
/// `ndim`-long slices: the part [`Split::for_each_part`] last wrote (its
/// box `lo..=hi`, its superblock `sb_lo..=sb_hi`, and the odometer
/// `choice` that picked it), the odometer `run` of [`Shape::for_each_run`],
/// and the box `hole_lo..=hole_hi` of the complement hole being read.
struct Cursor<'s> {
    lo: &'s mut [usize],
    hi: &'s mut [usize],
    sb_lo: &'s mut [usize],
    sb_hi: &'s mut [usize],
    choice: &'s mut [usize],
    run: &'s mut [usize],
    hole_lo: &'s mut [usize],
    hole_hi: &'s mut [usize],
}

impl<'s> Cursor<'s> {
    /// How many `ndim`-long slices a cursor takes from its buffer.
    const SLICES: usize = 8;

    /// Carves a cursor over `d` axes from `buf`, `SLICES · d` indices long.
    fn carve(buf: &'s mut [usize], d: usize) -> Self {
        let mut chunks = buf.chunks_exact_mut(d.max(1));
        let mut next = || chunks.next().unwrap_or_default();
        Cursor {
            lo: next(),
            hi: next(),
            sb_lo: next(),
            sb_hi: next(),
            choice: next(),
            run: next(),
            hole_lo: next(),
            hole_hi: next(),
        }
    }
}

impl Split {
    /// Splits `region`, which lies inside `shape`, with block size `b`.
    fn new(b: usize, shape: &Shape, region: &Region) -> Split {
        let axes = region.ranges().iter().zip(shape.dims());
        let axes = axes.map(|(r, &n)| {
            let (l, h) = (r.lo(), r.hi());
            let l_outer = b * (l / b); // ℓ″: start of the block containing ℓ
            let l_inner = b * l.div_ceil(b); // ℓ′: first block boundary ≥ ℓ
            let h_inner = b * (h / b); // h′: start of the block containing h
            let h_outer = (b * (h / b + 1)).min(n); // h″: end of that block, clipped
            let piece = |lo, hi, sb_lo, sb_hi, mid| Piece {
                lo,
                hi,
                sb_lo,
                sb_hi,
                mid,
            };
            let none = Piece::default();
            let (pieces, len) = if l_inner < h_inner {
                // Case 1: a non-empty aligned middle exists.
                let mid = piece(l_inner, h_inner - 1, l_inner, h_inner - 1, true);
                let high = piece(h_inner, h, h_inner, h_outer - 1, false);
                if l < l_inner {
                    let low = piece(l, l_inner - 1, l_outer, l_inner - 1, false);
                    ([low, mid, high], 3)
                } else {
                    ([mid, high, none], 2)
                }
            } else {
                // Case 2: the range does not span a full block boundary.
                ([piece(l, h, l_outer, h_outer - 1, false), none, none], 1)
            };
            AxisSplit { pieces, len }
        });
        Split {
            axes: axes.collect(),
        }
    }

    /// Number of parts, `∏` of the per-axis piece counts (`≤ 3^d`).
    fn parts(&self) -> usize {
        self.axes.iter().map(|a| a.len).product()
    }

    /// Writes each part in turn into one [`Cursor`], allocated once, and
    /// hands it to `f` with whether it is the internal region; stops at
    /// the first error.
    fn for_each_part<E>(
        &self,
        mut f: impl FnMut(&mut Cursor<'_>, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        let d = self.axes.len();
        let mut buf = vec![0usize; Cursor::SLICES * d];
        let part = &mut Cursor::carve(&mut buf, d);
        // The 3^d part odometer: f charges each part at the caller's checkpoint.
        loop {
            let mut internal = true;
            let slots = (part.lo.iter_mut().zip(part.hi.iter_mut()))
                .zip(part.sb_lo.iter_mut().zip(part.sb_hi.iter_mut()));
            for ((((lo, hi), (sb_lo, sb_hi)), axis), &c) in
                slots.zip(&self.axes).zip(part.choice.iter())
            {
                let p = axis.pieces.get(c).copied().unwrap_or_default();
                (*lo, *hi, *sb_lo, *sb_hi) = (p.lo, p.hi, p.sb_lo, p.sb_hi);
                internal &= p.mid;
            }
            f(part, internal)?;
            // Odometer over the choices, the last axis fastest.
            let mut advanced = false;
            for (c, axis) in part.choice.iter_mut().zip(&self.axes).rev() {
                *c += 1;
                if *c < axis.len {
                    advanced = true;
                    break;
                }
                *c = 0;
            }
            if !advanced {
                return Ok(());
            }
        }
    }
}

/// Number of cells in the box `lo..=hi`.
fn box_volume(lo: &[usize], hi: &[usize]) -> usize {
    lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).product()
}

/// The region `lo..=hi`.
fn region_of(lo: &[usize], hi: &[usize]) -> Result<Region, ArrayError> {
    let mut ranges = Vec::with_capacity(lo.len());
    for (&l, &h) in lo.iter().zip(hi) {
        ranges.push(Range::new(l, h)?);
    }
    Region::new(ranges)
}

/// A progressive answer to a range-sum query (§11): bounds computable
/// from the blocked `P` alone, each in at most `2^d − 1` steps per
/// region, returned before the exact sum is worth computing.
///
/// The bounds are valid for **non-negative** measures (checked by the
/// caller or guaranteed by the domain): every boundary region contributes
/// at least nothing and at most its whole superblock.
#[derive(Debug, Clone, PartialEq)]
pub struct SumBounds<V> {
    /// Sum of the internal (block-aligned) region — never overcounts.
    pub lower: V,
    /// Internal region plus every boundary region's full superblock —
    /// never undercounts.
    pub upper: V,
}

/// The blocked prefix-sum array (§4.1): `P` is stored only where every
/// index `i_j` satisfies `(i_j + 1) mod b = 0` or `i_j = n_j − 1`, packed
/// into a dense array of shape `⌈n_1/b⌉ × … × ⌈n_d/b⌉`.
///
/// Unlike the basic algorithm, the original cube `A` cannot be dropped
/// (§4.1); queries take `&A` explicitly.
#[derive(Debug, Clone)]
pub struct BlockedPrefixSum<G: AbelianGroup> {
    op: G,
    b: usize,
    shape: Shape,
    p: DenseArray<G::Value>,
}

/// The blocked array specialised to SUM.
pub type BlockedPrefixCube<T> = BlockedPrefixSum<SumOp<T>>;

impl<T: NumericValue> BlockedPrefixCube<T> {
    /// Builds the SUM blocked prefix array with block size `b`.
    ///
    /// # Examples
    ///
    /// ```
    /// use olap_array::{DenseArray, Region, Shape};
    /// use olap_prefix_sum::BlockedPrefixCube;
    ///
    /// let cube = DenseArray::from_fn(Shape::new(&[20, 20]).unwrap(), |i| {
    ///     (i[0] + i[1]) as i64
    /// });
    /// // 1/b² of the basic array's storage; queries may read some cube cells.
    /// let bp = BlockedPrefixCube::build(&cube, 5).unwrap();
    /// assert_eq!(bp.packed_array().len(), 16);
    /// let q = Region::from_bounds(&[(3, 17), (0, 12)]).unwrap();
    /// let naive = cube.fold_region(&q, 0i64, |s, &x| s + x);
    /// assert_eq!(bp.range_sum(&cube, &q).unwrap(), naive);
    /// ```
    pub fn build(cube: &impl CellRead<T>, b: usize) -> Result<Self, ArrayError> {
        BlockedPrefixSum::with_op(cube, SumOp::new(), b)
    }
}

impl<G: AbelianGroup> BlockedPrefixSum<G> {
    /// Builds the blocked array under any invertible operator using the
    /// two-phase algorithm of §4.3: contract `A` by `b` (one block → one
    /// cell), then prefix-scan the contracted array. Takes
    /// `N + d·N/b^d` combine steps and no extra buffer.
    pub fn with_op(cube: &impl CellRead<G::Value>, op: G, b: usize) -> Result<Self, ArrayError> {
        if b == 0 {
            return Err(ArrayError::ZeroBlock);
        }
        let mut p = cube.contract_blocks(b, op.identity(), |acc, x, _| op.combine(acc, x))?;
        for axis in 0..p.shape().ndim() {
            p.scan_axis(axis, |x, y| op.combine(x, y));
        }
        Ok(BlockedPrefixSum {
            op,
            b,
            shape: cube.shape().clone(),
            p,
        })
    }

    /// Reassembles a blocked array from its parts (persistence support).
    ///
    /// # Errors
    /// Validates that `packed` has exactly the contracted shape of
    /// `shape` under `b`.
    pub fn from_parts(
        shape: Shape,
        b: usize,
        packed: DenseArray<G::Value>,
        op: G,
    ) -> Result<Self, ArrayError> {
        if b == 0 {
            return Err(ArrayError::ZeroBlock);
        }
        let expected = shape.contract(b)?;
        if packed.shape() != &expected {
            return Err(ArrayError::StorageMismatch {
                expected: expected.len(),
                actual: packed.len(),
            });
        }
        Ok(BlockedPrefixSum {
            op,
            b,
            shape,
            p: packed,
        })
    }

    /// The block size `b`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// The shape of the underlying cube `A`.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The operator.
    pub fn op(&self) -> &G {
        &self.op
    }

    /// The packed blocked prefix array (shape `⌈n_j/b⌉` per dimension).
    pub fn packed_array(&self) -> &DenseArray<G::Value> {
        &self.p
    }

    /// Mutable access to the packed array (for batch updates).
    pub fn packed_array_mut(&mut self) -> &mut DenseArray<G::Value> {
        &mut self.p
    }

    /// The anchor index in `A`'s coordinates for packed coordinate `c` on
    /// dimension `axis`: `min((c+1)·b − 1, n_axis − 1)`.
    pub fn anchor_index(&self, axis: usize, c: usize) -> usize {
        ((c + 1) * self.b - 1).min(self.shape.dim(axis) - 1)
    }

    /// The precomputed prefix `Sum(0:anchor_1, …, 0:anchor_d)` at packed
    /// coordinates.
    pub fn anchor_prefix(&self, packed: &[usize]) -> &G::Value {
        self.p.get(packed)
    }

    /// Decomposes a query into its `≤ 3^d` disjoint parts (§4.2, cases 1
    /// and 2), each with its superblock, in the order the query kernel
    /// evaluates them. Exactly one part is internal when every dimension
    /// has a non-empty block-aligned middle.
    ///
    /// # Errors
    /// Validates the region against the structure's shape.
    pub fn decompose(&self, region: &Region) -> Result<Vec<RegionPart>, ArrayError> {
        self.shape.check_region(region)?;
        let split = Split::new(self.b, &self.shape, region);
        let mut parts = Vec::with_capacity(split.parts());
        split.for_each_part(|p, internal| {
            parts.push(RegionPart {
                region: region_of(p.lo, p.hi)?,
                superblock: region_of(p.sb_lo, p.sb_hi)?,
                internal,
            });
            Ok::<_, ArrayError>(())
        })?;
        Ok(parts)
    }

    /// Theorem-1 query over the blocked `P` for the **block-aligned** box
    /// `lo..=hi` (every `ℓ_j` a multiple of `b`; every `h_j + 1` a multiple
    /// of `b` or equal to `n_j`): `2^d` signed anchor reads, each corner's
    /// packed offset summed from `P`'s strides.
    fn aligned_sum(&self, lo: &[usize], hi: &[usize], stats: &mut AccessStats) -> G::Value {
        let b = self.b;
        let strides = self.p.shape().strides();
        let mut acc = self.op.identity();
        // Theorem 1 corner gather over superblock P: at most 2^d probes, charged per part by read.
        'corners: for mask in 0u64..(1u64 << lo.len()) {
            let mut flat = 0;
            let axes = lo.iter().zip(hi).zip(self.shape.dims()).zip(strides);
            for (j, (((&l, &h), &n), &s)) in axes.enumerate() {
                let c = if (mask >> j) & 1 == 1 {
                    if l == 0 {
                        continue 'corners;
                    }
                    debug_assert_eq!(l % b, 0, "unaligned low bound {l}");
                    l / b - 1
                } else {
                    debug_assert!(
                        (h + 1).is_multiple_of(b) || h == n - 1,
                        "unaligned high bound {h}"
                    );
                    h / b
                };
                flat += c * s;
            }
            let term = self.p.get_flat(flat);
            stats.read_p(1);
            stats.step(1);
            if mask.count_ones() % 2 == 0 {
                acc = self.op.combine(&acc, term);
            } else {
                acc = self.op.uncombine(&acc, term);
            }
        }
        acc
    }

    /// Theorem-1 query over the blocked `P` for a **block-aligned**
    /// region, answered from anchors alone (`2^d` reads of `P`, no access
    /// to `A`). This is the exact-tier primitive of anchor-only
    /// approximate answering: any region whose bounds sit on block
    /// boundaries (or the clipped array edge) has an exact sum without
    /// touching base cells.
    ///
    /// # Errors
    /// [`ArrayError`] when the region's dimensionality does not match, a
    /// bound exceeds the shape, or a bound is not block-aligned (`ℓ_j`
    /// a multiple of `b` and `h_j + 1` a multiple of `b` or `h_j` the
    /// last index of axis `j`).
    pub fn block_aligned_sum(
        &self,
        region: &Region,
        stats: &mut AccessStats,
    ) -> Result<G::Value, ArrayError> {
        if region.ndim() != self.shape.ndim() {
            return Err(ArrayError::DimMismatch {
                expected: self.shape.ndim(),
                actual: region.ndim(),
            });
        }
        for (axis, r) in region.ranges().iter().enumerate() {
            let n = self.shape.dim(axis);
            if r.hi() >= n {
                return Err(ArrayError::OutOfBounds {
                    axis,
                    index: r.hi(),
                    extent: n,
                });
            }
            let aligned = r.lo().is_multiple_of(self.b)
                && ((r.hi() + 1).is_multiple_of(self.b) || r.hi() == n - 1);
            if !aligned {
                return Err(ArrayError::OutOfBounds {
                    axis,
                    index: r.lo(),
                    extent: n,
                });
            }
        }
        Ok(self.aligned_sum(&region.lower_corner(), &region.upper_corner(), stats))
    }

    /// Answers a range query with the blocked algorithm (§4.2).
    ///
    /// # Errors
    /// Validates the region and that `a` has the shape the structure was
    /// built from.
    pub fn range_sum(
        &self,
        a: &impl CellRead<G::Value>,
        region: &Region,
    ) -> Result<G::Value, ArrayError> {
        self.read(a, region, BoundaryPolicy::Auto, &mut QueryCtx::unlimited())
    }

    /// The §11 progressive-answer primitive: lower and upper bounds on a
    /// range-sum computed **from `P` only** (no access to `A`), so an
    /// interactive user sees bounds immediately and the exact sum later.
    ///
    /// Sound for non-negative measures: `lower` counts only the internal
    /// region, `upper` additionally counts each boundary region's entire
    /// superblock.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_sum_bounds(
        &self,
        region: &Region,
    ) -> Result<(SumBounds<G::Value>, AccessStats), ArrayError> {
        self.shape.check_region(region)?;
        let mut stats = AccessStats::new();
        let mut lower = self.op.identity();
        let mut upper = self.op.identity();
        let split = Split::new(self.b, &self.shape, region);
        split.for_each_part(|p, internal| {
            let v = self.aligned_sum(p.sb_lo, p.sb_hi, &mut stats);
            // Exact from P: the internal region, or a boundary region
            // that happens to fill its whole superblock.
            if internal || (p.lo == p.sb_lo && p.hi == p.sb_hi) {
                lower = self.op.combine(&lower, &v);
            }
            upper = self.op.combine(&upper, &v);
            stats.step(2);
            Ok::<_, ArrayError>(())
        })?;
        Ok((SumBounds { lower, upper }, stats))
    }

    /// The per-part kernel of the §4.2 query: evaluates the part `part`
    /// holds under `policy`, recording its accesses. Boundary cells of
    /// `a` (a Direct part, or each hole of a Complement part's superblock)
    /// are folded a contiguous row at a time, in row-major order; the
    /// holes are [`Region::subtract`]'s slabs in its peel order.
    fn eval_part(
        &self,
        a: &impl CellRead<G::Value>,
        part: &mut Cursor<'_>,
        internal: bool,
        policy: BoundaryPolicy,
        stats: &mut AccessStats,
    ) -> G::Value {
        let Cursor {
            lo,
            hi,
            sb_lo,
            sb_hi,
            run,
            hole_lo,
            hole_hi,
            ..
        } = part;
        let v = if internal {
            self.aligned_sum(lo, hi, stats)
        } else {
            let method = match policy {
                BoundaryPolicy::Auto => {
                    preferred_method(box_volume(lo, hi), box_volume(sb_lo, sb_hi), lo.len())
                }
                BoundaryPolicy::AlwaysDirect => BoundaryMethod::Direct,
                BoundaryPolicy::AlwaysComplement => BoundaryMethod::Complement,
            };
            match method {
                BoundaryMethod::Direct => self.fold_box(a, lo, hi, run, stats),
                BoundaryMethod::Complement => {
                    let mut v = self.aligned_sum(sb_lo, sb_hi, stats);
                    hole_lo.copy_from_slice(sb_lo);
                    hole_hi.copy_from_slice(sb_hi);
                    // Peel one axis at a time: the superblock's cells below
                    // and above the part on this axis form a slab; then
                    // clamp the rest to the part on this axis.
                    let axes = lo.iter().zip(hi.iter());
                    let axes = axes.zip(sb_lo.iter().zip(sb_hi.iter()));
                    // Complement holes of one part: at most 2d, each a bounded box fold counted in
                    // stats.
                    for (axis, ((&l, &h), (&sb_l, &sb_h))) in axes.enumerate() {
                        if sb_l < l {
                            set_bound(hole_hi, axis, l - 1);
                            let hole = self.fold_box(a, hole_lo, hole_hi, run, stats);
                            v = self.op.uncombine(&v, &hole);
                        }
                        if sb_h > h {
                            set_bound(hole_lo, axis, h + 1);
                            set_bound(hole_hi, axis, sb_h);
                            let hole = self.fold_box(a, hole_lo, hole_hi, run, stats);
                            v = self.op.uncombine(&v, &hole);
                        }
                        set_bound(hole_lo, axis, l);
                        set_bound(hole_hi, axis, h);
                    }
                    v
                }
            }
        };
        stats.step(1);
        v
    }

    /// Folds the cells of `a` in the box `lo..=hi` in row-major order, a
    /// contiguous run at a time, recording one access and
    /// one step per cell.
    fn fold_box(
        &self,
        a: &impl CellRead<G::Value>,
        lo: &[usize],
        hi: &[usize],
        run: &mut [usize],
        stats: &mut AccessStats,
    ) -> G::Value {
        let vol = box_volume(lo, hi) as u64;
        stats.read_a(vol);
        stats.step(vol);
        a.fold_runs(lo, hi, run, self.op.identity(), |acc, _, cells| {
            cells.iter().fold(acc, |s, x| self.op.combine(&s, x))
        })
    }

    /// The metered §4.2 read under a boundary policy: `ctx` is checked
    /// before any kernel work and before each part, and charged with each
    /// part's accesses as it completes, so a deadline, access cap or
    /// cancellation cuts the query off between parts. The answer on the
    /// `Ok` path does not depend on the meter.
    ///
    /// # Errors
    /// Validates the region and the cube shape; propagates budget
    /// interrupts as [`ArrayError::Interrupted`].
    pub fn read(
        &self,
        a: &impl CellRead<G::Value>,
        region: &Region,
        policy: BoundaryPolicy,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        self.shape.check_same(a.shape())?;
        self.shape.check_region(region)?;
        let split = Split::new(self.b, &self.shape, region);
        let mut acc = self.op.identity();
        split.for_each_part(|p, internal| {
            ctx.check()?;
            let v = self.eval_part(a, p, internal, policy, &mut ctx.stats);
            ctx.charge()?;
            acc = self.op.combine(&acc, &v);
            Ok::<_, ArrayError>(())
        })?;
        Ok(acc)
    }
}

/// Writes `value` at `axis` of an `ndim`-long scratch box bound.
fn set_bound(bound: &mut [usize], axis: usize, value: usize) {
    if let Some(slot) = bound.get_mut(axis) {
        *slot = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> DenseArray<i64> {
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
    fn fig3_blocked_example() {
        // Figure 3: with b = 2 only P at odd indices (and last indices)
        // remains: rows {1,2} × cols {1,3,5} → 18,29,44 / 24,40,63.
        let a = figure1();
        let bp = BlockedPrefixCube::build(&a, 2).unwrap();
        assert_eq!(bp.packed_array().shape().dims(), &[2, 3]);
        assert_eq!(bp.packed_array().as_slice(), &[18, 29, 44, 24, 40, 63]);
        // Anchors: packed row 0 is original row 1; packed row 1 is the
        // clipped last row 2.
        assert_eq!(bp.anchor_index(0, 0), 1);
        assert_eq!(bp.anchor_index(0, 1), 2);
        assert_eq!(bp.anchor_index(1, 2), 5);
    }

    #[test]
    fn fig5_decomposition() {
        // Figure 5: Sum(50:349, 50:349) on a 400×400 cube with b = 100
        // splits into 3² = 9 regions, A5 = (100:299, 100:299) internal.
        let a = DenseArray::filled(Shape::new(&[400, 400]).unwrap(), 1i64);
        let bp = BlockedPrefixCube::build(&a, 100).unwrap();
        let q = Region::from_bounds(&[(50, 349), (50, 349)]).unwrap();
        let parts = bp.decompose(&q).unwrap();
        assert_eq!(parts.len(), 9);
        let internal: Vec<_> = parts.iter().filter(|p| p.internal).collect();
        assert_eq!(internal.len(), 1);
        assert_eq!(
            internal[0].region,
            Region::from_bounds(&[(100, 299), (100, 299)]).unwrap()
        );
        // Figure 5(c): each boundary superblock is block-aligned; e.g. the
        // top-left boundary A1 = (50:99, 50:99) has superblock (0:99, 0:99).
        let a1 = parts
            .iter()
            .find(|p| p.region == Region::from_bounds(&[(50, 99), (50, 99)]).unwrap())
            .unwrap();
        assert_eq!(
            a1.superblock,
            Region::from_bounds(&[(0, 99), (0, 99)]).unwrap()
        );
        // Figure 5(d): its complement has volume 100² − 50².
        let comp_vol: usize = a1.complement().iter().map(|r| r.volume()).sum();
        assert_eq!(comp_vol, 100 * 100 - 50 * 50);
    }

    #[test]
    fn fig6_method_choices() {
        // Figure 6: Sum(75:374, 100:354) with b = 100. The low-edge strip
        // (75:99 × 100:299) is cheaper directly; the high-edge strip
        // (300:374 × 100:299) is cheaper via its complement.
        let a = DenseArray::filled(Shape::new(&[400, 400]).unwrap(), 1i64);
        let bp = BlockedPrefixCube::build(&a, 100).unwrap();
        let q = Region::from_bounds(&[(75, 374), (100, 354)]).unwrap();
        let parts = bp.decompose(&q).unwrap();
        // Dim 0 has Low/Mid/High; dim 1's low subrange is empty (100 is a
        // block boundary), so 3 × 2 = 6 parts.
        assert_eq!(parts.len(), 6);
        assert_eq!(parts.iter().filter(|p| p.internal).count(), 1);
        let low_strip = parts
            .iter()
            .find(|p| p.region == Region::from_bounds(&[(75, 99), (100, 299)]).unwrap())
            .unwrap();
        assert_eq!(low_strip.preferred_method(2), BoundaryMethod::Direct);
        let high_strip = parts
            .iter()
            .find(|p| p.region == Region::from_bounds(&[(300, 374), (100, 299)]).unwrap())
            .unwrap();
        assert_eq!(high_strip.preferred_method(2), BoundaryMethod::Complement);
    }

    #[test]
    fn case2_unaligned_small_range() {
        // A range entirely inside one block (ℓ′ ≥ h′) takes the case-2
        // single-subrange path.
        let a = DenseArray::from_fn(Shape::new(&[20, 20]).unwrap(), |i| (i[0] + 2 * i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 8).unwrap();
        let q = Region::from_bounds(&[(9, 14), (2, 5)]).unwrap();
        let parts = bp.decompose(&q).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(!parts[0].internal);
        assert_eq!(
            parts[0].superblock,
            Region::from_bounds(&[(8, 15), (0, 7)]).unwrap()
        );
        let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
        assert_eq!(bp.range_sum(&a, &q).unwrap(), naive);
    }

    #[test]
    fn budget_cuts_off_blocked_query() {
        use olap_array::{BudgetMeter, Interrupt, QueryBudget};
        let a = DenseArray::from_fn(Shape::new(&[30, 30]).unwrap(), |i| (i[0] + i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 8).unwrap();
        let q = Region::from_bounds(&[(3, 27), (5, 29)]).unwrap();
        let (v0, s0) = QueryCtx::measure(|ctx| bp.read(&a, &q, BoundaryPolicy::Auto, ctx)).unwrap();
        let budgeted = |meter: &BudgetMeter| {
            let mut ctx = QueryCtx::new(meter);
            let out = bp.read(&a, &q, BoundaryPolicy::Auto, &mut ctx);
            (out.map(|v| (v, ctx.stats)), meter.spent())
        };
        let capped = |max: u64| QueryBudget::unlimited().max_accesses(max).start(None);
        let exhausted = |out: &Result<(i64, AccessStats), ArrayError>| {
            matches!(
                out,
                Err(ArrayError::Interrupted(Interrupt::BudgetExhausted { .. }))
            )
        };
        // Exactly enough: the unbudgeted answer and stats. One short: cut off.
        let (out, spent) = budgeted(&capped(s0.total_accesses()));
        assert_eq!(out.unwrap(), (v0, s0));
        assert_eq!(spent, s0.total_accesses());
        assert!(exhausted(&budgeted(&capped(s0.total_accesses() - 1)).0));
        // A zero-access cap is crossed by the first part's charge, so no
        // later part is evaluated; a meter that is already over its cap
        // stops before the first part and charges nothing more.
        // The first part, (3:7, 5:7), is read directly: its 15 cells.
        let parts = bp.decompose(&q).unwrap();
        assert_eq!(
            parts[0].region,
            Region::from_bounds(&[(3, 7), (5, 7)]).unwrap()
        );
        assert_eq!(parts[0].preferred_method(2), BoundaryMethod::Direct);
        let first = 15;
        let zero = capped(0);
        let (out, spent) = budgeted(&zero);
        assert!(exhausted(&out));
        assert_eq!(spent, first);
        let (out, spent) = budgeted(&zero);
        assert!(exhausted(&out));
        assert_eq!(spent, first);
    }

    #[test]
    fn zero_deadline_kills_blocked_query_before_work() {
        use olap_array::{Interrupt, QueryBudget};
        let a = DenseArray::from_fn(Shape::new(&[30, 30]).unwrap(), |i| (i[0] + i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 8).unwrap();
        let q = Region::from_bounds(&[(3, 27), (5, 29)]).unwrap();
        let meter = QueryBudget::unlimited()
            .deadline(std::time::Duration::ZERO)
            .start(None);
        let err = bp
            .read(&a, &q, BoundaryPolicy::Auto, &mut QueryCtx::new(&meter))
            .unwrap_err();
        assert!(matches!(
            err,
            ArrayError::Interrupted(Interrupt::DeadlineExceeded { .. })
        ));
        assert_eq!(meter.spent(), 0);
    }

    #[test]
    fn block_aligned_sum_answers_from_anchors_only() {
        let a = DenseArray::from_fn(Shape::new(&[7, 9]).unwrap(), |i| {
            (i[0] * 13 + i[1] * 31) as i64 % 23 - 11
        });
        for b in [1usize, 2, 3, 4] {
            let bp = BlockedPrefixCube::build(&a, b).unwrap();
            for q in [
                Region::from_bounds(&[(0, 6), (0, 8)]).unwrap(),
                Region::from_bounds(&[(0, b.min(7) - 1), (0, 8)]).unwrap(),
            ] {
                let mut stats = AccessStats::new();
                let v = bp.block_aligned_sum(&q, &mut stats).unwrap();
                assert_eq!(v, a.fold_region(&q, 0i64, |s, &x| s + x), "b={b} {q}");
                assert_eq!(stats.a_cells, 0, "no base-cell reads");
                assert!(stats.p_cells <= 4, "2^d anchor reads at most");
            }
        }
        // Unaligned bounds are rejected, as are out-of-shape regions.
        let bp = BlockedPrefixCube::build(&a, 2).unwrap();
        let mut stats = AccessStats::new();
        let unaligned = Region::from_bounds(&[(1, 6), (0, 8)]).unwrap();
        assert!(bp.block_aligned_sum(&unaligned, &mut stats).is_err());
        let tall = Region::from_bounds(&[(0, 8), (0, 8)]).unwrap();
        assert!(bp.block_aligned_sum(&tall, &mut stats).is_err());
    }

    #[test]
    fn matches_naive_exhaustively_2d() {
        // Every possible query on a small cube, several block sizes,
        // including b larger than a dimension and b = 1.
        let a = DenseArray::from_fn(Shape::new(&[7, 9]).unwrap(), |i| {
            (i[0] * 13 + i[1] * 31) as i64 % 23 - 11
        });
        for b in [1usize, 2, 3, 4, 8, 16] {
            let bp = BlockedPrefixCube::build(&a, b).unwrap();
            for l0 in 0..7 {
                for h0 in l0..7 {
                    for l1 in 0..9 {
                        for h1 in l1..9 {
                            let q = Region::from_bounds(&[(l0, h0), (l1, h1)]).unwrap();
                            let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
                            assert_eq!(bp.range_sum(&a, &q).unwrap(), naive, "b={b} query {q}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_policies_agree() {
        let a = DenseArray::from_fn(Shape::new(&[30, 30]).unwrap(), |i| {
            (i[0] * 7 + i[1]) as i64 % 19
        });
        let bp = BlockedPrefixCube::build(&a, 10).unwrap();
        let q = Region::from_bounds(&[(3, 27), (5, 29)]).unwrap();
        let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
        for policy in [
            BoundaryPolicy::Auto,
            BoundaryPolicy::AlwaysDirect,
            BoundaryPolicy::AlwaysComplement,
        ] {
            let (v, _) = QueryCtx::measure(|ctx| bp.read(&a, &q, policy, ctx)).unwrap();
            assert_eq!(v, naive, "{policy:?}");
        }
    }

    #[test]
    fn auto_never_accesses_more_than_forced_policies() {
        let a = DenseArray::from_fn(Shape::new(&[50, 50]).unwrap(), |i| (i[0] + i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 10).unwrap();
        let q = Region::from_bounds(&[(2, 48), (11, 39)]).unwrap();
        let (_, auto) =
            QueryCtx::measure(|ctx| bp.read(&a, &q, BoundaryPolicy::Auto, ctx)).unwrap();
        let (_, direct) =
            QueryCtx::measure(|ctx| bp.read(&a, &q, BoundaryPolicy::AlwaysDirect, ctx)).unwrap();
        let (_, comp) =
            QueryCtx::measure(|ctx| bp.read(&a, &q, BoundaryPolicy::AlwaysComplement, ctx))
                .unwrap();
        assert!(auto.a_cells <= direct.a_cells);
        assert!(auto.total_accesses() <= direct.total_accesses().max(comp.total_accesses()));
    }

    #[test]
    fn aligned_query_touches_no_a_cells() {
        // A fully block-aligned query is the internal region alone.
        let a = DenseArray::from_fn(Shape::new(&[40, 40]).unwrap(), |i| (i[0] * i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 10).unwrap();
        let q = Region::from_bounds(&[(10, 29), (20, 39)]).unwrap();
        let (v, stats) =
            QueryCtx::measure(|ctx| bp.read(&a, &q, BoundaryPolicy::Auto, ctx)).unwrap();
        assert_eq!(v, a.fold_region(&q, 0i64, |s, &x| s + x));
        // Block-aligned boundary parts have empty complements, so the Auto
        // policy answers every part from P alone: zero A-cells, and at most
        // 2^d P-lookups for each of the ≤ 3^d parts.
        assert_eq!(stats.a_cells, 0);
        assert!(stats.p_cells <= 4 * 9);
    }

    #[test]
    fn rejects_mismatched_cube() {
        let a = DenseArray::filled(Shape::new(&[10, 10]).unwrap(), 1i64);
        let bp = BlockedPrefixCube::build(&a, 4).unwrap();
        let other = DenseArray::filled(Shape::new(&[10]).unwrap(), 1i64);
        let q = Region::from_bounds(&[(0, 9), (0, 9)]).unwrap();
        assert_eq!(
            bp.range_sum(&other, &q),
            Err(ArrayError::DimMismatch {
                expected: 2,
                actual: 1
            })
        );
        // Same rank, different extents: name the axis and both extents
        // rather than "expected 2 dimensions, got 2".
        let other = DenseArray::filled(Shape::new(&[10, 12]).unwrap(), 1i64);
        assert_eq!(
            bp.range_sum(&other, &q),
            Err(ArrayError::OutOfBounds {
                axis: 1,
                index: 12,
                extent: 10
            })
        );
    }

    #[test]
    fn rejects_zero_block() {
        let a = DenseArray::filled(Shape::new(&[4]).unwrap(), 1i64);
        assert!(matches!(
            BlockedPrefixCube::build(&a, 0),
            Err(ArrayError::ZeroBlock)
        ));
    }

    #[test]
    fn progressive_bounds_bracket_the_exact_sum() {
        // §11: bounds from P only, exact later. Non-negative data.
        let a = DenseArray::from_fn(Shape::new(&[60, 60]).unwrap(), |i| {
            ((i[0] * 7 + i[1] * 13) % 50) as i64
        });
        for b in [5usize, 8, 16] {
            let bp = BlockedPrefixCube::build(&a, b).unwrap();
            for (l0, h0, l1, h1) in [
                (3, 47, 11, 59),
                (0, 59, 0, 59),
                (20, 29, 20, 29),
                (7, 8, 0, 59),
            ] {
                let q = Region::from_bounds(&[(l0, h0), (l1, h1)]).unwrap();
                let exact = a.fold_region(&q, 0i64, |s, &x| s + x);
                let (bounds, stats) = bp.range_sum_bounds(&q).unwrap();
                assert!(
                    bounds.lower <= exact && exact <= bounds.upper,
                    "b={b} {q}: {} ≤ {exact} ≤ {} violated",
                    bounds.lower,
                    bounds.upper
                );
                // Bounds never touch A.
                assert_eq!(stats.a_cells, 0);
            }
        }
    }

    #[test]
    fn progressive_bounds_tight_for_aligned_queries() {
        let a = DenseArray::filled(Shape::new(&[40, 40]).unwrap(), 2i64);
        let bp = BlockedPrefixCube::build(&a, 10).unwrap();
        let q = Region::from_bounds(&[(10, 29), (0, 39)]).unwrap();
        let (bounds, _) = bp.range_sum_bounds(&q).unwrap();
        let exact = a.fold_region(&q, 0i64, |s, &x| s + x);
        assert_eq!(bounds.lower, exact);
        assert_eq!(bounds.upper, exact);
    }

    #[test]
    fn three_dimensional_correctness() {
        let a = DenseArray::from_fn(Shape::new(&[9, 8, 7]).unwrap(), |i| {
            (i[0] * 5 + i[1] * 3 + i[2]) as i64 % 13 - 6
        });
        for b in [2usize, 3, 4] {
            let bp = BlockedPrefixCube::build(&a, b).unwrap();
            let queries = [
                [(0, 8), (0, 7), (0, 6)],
                [(1, 7), (2, 6), (1, 5)],
                [(4, 4), (3, 3), (2, 2)],
                [(0, 5), (5, 7), (6, 6)],
                [(2, 3), (0, 7), (1, 2)],
            ];
            for qb in queries {
                let q = Region::from_bounds(&qb).unwrap();
                let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
                assert_eq!(bp.range_sum(&a, &q).unwrap(), naive, "b={b} q={q}");
            }
        }
    }
}
