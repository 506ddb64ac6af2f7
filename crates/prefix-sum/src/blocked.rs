//! The blocked range-sum algorithm (§4): prefix sums kept only at block
//! anchors, trading query time for a `1/b^d` space footprint.

use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, BudgetMeter, DenseArray, Range, Region, Shape};
use olap_query::AccessStats;

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
        let vol = self.region.volume();
        let complement_vol = self.superblock.volume() - vol;
        // "choose the first method when the volume of R is smaller than or
        // equal to the volume of its complement region plus 2^d − 1".
        if vol <= complement_vol + ((1usize << d) - 1) {
            BoundaryMethod::Direct
        } else {
            BoundaryMethod::Complement
        }
    }
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
    pub fn build(cube: &DenseArray<T>, b: usize) -> Result<Self, ArrayError> {
        BlockedPrefixSum::with_op(cube, SumOp::new(), b)
    }
}

impl<G: AbelianGroup> BlockedPrefixSum<G> {
    /// Builds the blocked array under any invertible operator using the
    /// two-phase algorithm of §4.3: contract `A` by `b` (one block → one
    /// cell), then prefix-scan the contracted array. Takes
    /// `N + d·N/b^d` combine steps and no extra buffer.
    pub fn with_op(cube: &DenseArray<G::Value>, op: G, b: usize) -> Result<Self, ArrayError> {
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
    /// and 2), each with its superblock. Exactly one part is internal when
    /// every dimension has a non-empty block-aligned middle.
    ///
    /// # Errors
    /// Propagates range/region construction failures instead of panicking
    /// — unreachable for a region already validated against this
    /// structure's shape, but query paths must never abort the process.
    pub fn decompose(&self, region: &Region) -> Result<Vec<RegionPart>, ArrayError> {
        let d = region.ndim();
        // Per-dimension subranges, each tagged (range, superblock-range, is_mid).
        let mut per_dim: Vec<Vec<(Range, Range, bool)>> = Vec::with_capacity(d);
        let b = self.b;
        for (axis, r) in region.ranges().iter().enumerate() {
            let n = self.shape.dim(axis);
            let (l, h) = (r.lo(), r.hi());
            let l_outer = b * (l / b); // ℓ″: start of the block containing ℓ
            let l_inner = b * l.div_ceil(b); // ℓ′: first block boundary ≥ ℓ
            let h_inner = b * (h / b); // h′: start of the block containing h
            let h_outer = (b * (h / b + 1)).min(n); // h″: end of that block, clipped
            let mut subs = Vec::with_capacity(3);
            if l_inner < h_inner {
                // Case 1: a non-empty aligned middle exists.
                if l < l_inner {
                    subs.push((
                        Range::new(l, l_inner - 1)?,
                        Range::new(l_outer, l_inner - 1)?,
                        false,
                    ));
                }
                let mid = Range::new(l_inner, h_inner - 1)?;
                subs.push((mid, mid, true));
                subs.push((
                    Range::new(h_inner, h)?,
                    Range::new(h_inner, h_outer - 1)?,
                    false,
                ));
            } else {
                // Case 2: the range does not span a full block boundary.
                subs.push((Range::new(l, h)?, Range::new(l_outer, h_outer - 1)?, false));
            }
            per_dim.push(subs);
        }
        // Cartesian product of the per-dimension subranges.
        let mut parts = Vec::new();
        let mut choice = vec![0usize; d];
        loop {
            let mut ranges = Vec::with_capacity(d);
            let mut super_ranges = Vec::with_capacity(d);
            let mut internal = true;
            for (axis, &c) in choice.iter().enumerate() {
                let (r, sb, mid) = per_dim[axis][c];
                ranges.push(r);
                super_ranges.push(sb);
                internal &= mid;
            }
            parts.push(RegionPart {
                region: Region::new(ranges)?,
                superblock: Region::new(super_ranges)?,
                internal,
            });
            // Odometer over the choices.
            let mut axis = d;
            // analyzer: allow(budget-coverage, reason = "odometer advance: at most ndim steps per emitted part; parts are charged by the caller")
            loop {
                if axis == 0 {
                    return Ok(parts);
                }
                axis -= 1;
                choice[axis] += 1;
                if choice[axis] < per_dim[axis].len() {
                    break;
                }
                choice[axis] = 0;
            }
        }
    }

    /// Theorem-1 query over the blocked `P` for a **block-aligned** region
    /// (every `ℓ_j` a multiple of `b`; every `h_j + 1` a multiple of `b` or
    /// equal to `n_j`).
    fn aligned_sum(&self, region: &Region, stats: &mut AccessStats) -> G::Value {
        let d = region.ndim();
        let mut corner = vec![0usize; d];
        let mut acc = self.op.identity();
        // analyzer: allow(budget-coverage, reason = "Theorem 1 corner gather over superblock P: at most 2^d probes, charged per part by range_sum_with_budget")
        'corners: for mask in 0u64..(1u64 << d) {
            // analyzer: allow(budget-coverage, reason = "corner coordinate selection: trip count = ndim per corner")
            for (j, c) in corner.iter_mut().enumerate() {
                let r = region.range(j);
                if (mask >> j) & 1 == 1 {
                    if r.lo() == 0 {
                        continue 'corners;
                    }
                    debug_assert_eq!(r.lo() % self.b, 0, "unaligned low bound {r}");
                    *c = r.lo() / self.b - 1;
                } else {
                    debug_assert!(
                        (r.hi() + 1).is_multiple_of(self.b) || r.hi() == self.shape.dim(j) - 1,
                        "unaligned high bound {r}"
                    );
                    *c = r.hi() / self.b;
                }
            }
            let term = self.p.get(&corner);
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
        Ok(self.aligned_sum(region, stats))
    }

    /// Answers a range query with the blocked algorithm (§4.2).
    ///
    /// # Errors
    /// Validates the region and that `a` has the shape the structure was
    /// built from.
    pub fn range_sum(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
    ) -> Result<G::Value, ArrayError> {
        self.range_sum_with_policy(a, region, BoundaryPolicy::Auto)
            .map(|(v, _)| v)
    }

    /// Like [`BlockedPrefixSum::range_sum`], also reporting access counts.
    pub fn range_sum_with_stats(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
    ) -> Result<(G::Value, AccessStats), ArrayError> {
        self.range_sum_with_policy(a, region, BoundaryPolicy::Auto)
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
        for part in self.decompose(region)? {
            if part.internal || part.superblock == part.region {
                // Exact from P: the internal region, or a boundary region
                // that happens to fill its whole superblock.
                let v = self.aligned_sum(&part.superblock, &mut stats);
                lower = self.op.combine(&lower, &v);
                upper = self.op.combine(&upper, &v);
            } else {
                let v = self.aligned_sum(&part.superblock, &mut stats);
                upper = self.op.combine(&upper, &v);
            }
            stats.step(2);
        }
        Ok((SumBounds { lower, upper }, stats))
    }

    /// The per-part kernel of the §4.2 query: evaluates one piece of the
    /// `3^d` decomposition under `policy`, recording its accesses.
    fn eval_part(
        &self,
        a: &DenseArray<G::Value>,
        part: &RegionPart,
        policy: BoundaryPolicy,
        d: usize,
        stats: &mut AccessStats,
    ) -> G::Value {
        let v = if part.internal {
            self.aligned_sum(&part.region, stats)
        } else {
            let method = match policy {
                BoundaryPolicy::Auto => part.preferred_method(d),
                BoundaryPolicy::AlwaysDirect => BoundaryMethod::Direct,
                BoundaryPolicy::AlwaysComplement => BoundaryMethod::Complement,
            };
            match method {
                BoundaryMethod::Direct => {
                    stats.read_a(part.region.volume() as u64);
                    stats.step(part.region.volume() as u64);
                    a.fold_region(&part.region, self.op.identity(), |s, x| {
                        self.op.combine(&s, x)
                    })
                }
                BoundaryMethod::Complement => {
                    let mut v = self.aligned_sum(&part.superblock, stats);
                    for hole in part.complement() {
                        stats.read_a(hole.volume() as u64);
                        stats.step(hole.volume() as u64);
                        let h =
                            a.fold_region(&hole, self.op.identity(), |s, x| self.op.combine(&s, x));
                        v = self.op.uncombine(&v, &h);
                    }
                    v
                }
            }
        };
        stats.step(1);
        v
    }

    /// Full-control entry point: evaluates the query under a given
    /// boundary policy, reporting access counts.
    ///
    /// # Errors
    /// Validates the region and the cube shape.
    pub fn range_sum_with_policy(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
        policy: BoundaryPolicy,
    ) -> Result<(G::Value, AccessStats), ArrayError> {
        self.range_sum_with_budget(a, region, policy, &BudgetMeter::unlimited())
    }

    /// [`BlockedPrefixSum::range_sum_with_policy`] under a
    /// [`BudgetMeter`]: the meter is checked before any kernel work and at
    /// every part boundary, and each part's element accesses are charged
    /// against the budget as it completes. An exhausted budget, elapsed
    /// deadline, or cancelled token surfaces as
    /// [`ArrayError::Interrupted`]; the answer on the `Ok` path is
    /// bit-identical to the unbudgeted evaluation.
    ///
    /// # Errors
    /// Validates the region and the cube shape; propagates budget
    /// interrupts.
    pub fn range_sum_with_budget(
        &self,
        a: &DenseArray<G::Value>,
        region: &Region,
        policy: BoundaryPolicy,
        meter: &BudgetMeter,
    ) -> Result<(G::Value, AccessStats), ArrayError> {
        check_cube_shape(&self.shape, a.shape())?;
        self.shape.check_region(region)?;
        meter.check()?;
        let d = region.ndim();
        let mut acc = self.op.identity();
        let mut stats = AccessStats::new();
        for part in self.decompose(region)? {
            meter.check()?;
            let mut part_stats = AccessStats::new();
            let v = self.eval_part(a, &part, policy, d, &mut part_stats);
            meter.charge(part_stats.total_accesses())?;
            acc = self.op.combine(&acc, &v);
            stats.merge(&part_stats);
        }
        Ok((acc, stats))
    }
}

/// Validates that the cube handed to a query has the shape the structure
/// was built from: a rank difference is a [`ArrayError::DimMismatch`]; equal
/// rank with different extents reports the first differing axis, the
/// supplied extent (`index`) and the expected one (`extent`).
fn check_cube_shape(expected: &Shape, actual: &Shape) -> Result<(), ArrayError> {
    if actual.ndim() != expected.ndim() {
        return Err(ArrayError::DimMismatch {
            expected: expected.ndim(),
            actual: actual.ndim(),
        });
    }
    let mut dims = expected.dims().iter().zip(actual.dims()).enumerate();
    match dims.find(|(_, (extent, index))| index != extent) {
        Some((axis, (&extent, &index))) => Err(ArrayError::OutOfBounds {
            axis,
            index,
            extent,
        }),
        None => Ok(()),
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
        use olap_array::{Interrupt, QueryBudget};
        let a = DenseArray::from_fn(Shape::new(&[30, 30]).unwrap(), |i| (i[0] + i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 8).unwrap();
        let q = Region::from_bounds(&[(3, 27), (5, 29)]).unwrap();
        let (v0, s0) = bp.range_sum_with_stats(&a, &q).unwrap();
        let budgeted = |meter: &BudgetMeter| {
            let out = bp.range_sum_with_budget(&a, &q, BoundaryPolicy::Auto, meter);
            (out, meter.spent())
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
        let mut first = AccessStats::new();
        let parts = bp.decompose(&q).unwrap();
        bp.eval_part(&a, &parts[0], BoundaryPolicy::Auto, 2, &mut first);
        let zero = capped(0);
        let (out, spent) = budgeted(&zero);
        assert!(exhausted(&out));
        assert_eq!(spent, first.total_accesses());
        let (out, spent) = budgeted(&zero);
        assert!(exhausted(&out));
        assert_eq!(spent, first.total_accesses());
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
            .range_sum_with_budget(&a, &q, BoundaryPolicy::Auto, &meter)
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
            let (v, _) = bp.range_sum_with_policy(&a, &q, policy).unwrap();
            assert_eq!(v, naive, "{policy:?}");
        }
    }

    #[test]
    fn auto_never_accesses_more_than_forced_policies() {
        let a = DenseArray::from_fn(Shape::new(&[50, 50]).unwrap(), |i| (i[0] + i[1]) as i64);
        let bp = BlockedPrefixCube::build(&a, 10).unwrap();
        let q = Region::from_bounds(&[(2, 48), (11, 39)]).unwrap();
        let (_, auto) = bp
            .range_sum_with_policy(&a, &q, BoundaryPolicy::Auto)
            .unwrap();
        let (_, direct) = bp
            .range_sum_with_policy(&a, &q, BoundaryPolicy::AlwaysDirect)
            .unwrap();
        let (_, comp) = bp
            .range_sum_with_policy(&a, &q, BoundaryPolicy::AlwaysComplement)
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
        let (v, stats) = bp.range_sum_with_stats(&a, &q).unwrap();
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
