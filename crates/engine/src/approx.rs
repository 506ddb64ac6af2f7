//! Anchor-only approximate answering: the graceful-degradation tier.
//!
//! [`ApproxEngine`] answers range queries from **precomputed aggregates
//! alone** — the §4 blocked prefix-sum anchor grid plus cached per-block
//! extrema — never touching enough base cells to matter. Every part of a
//! query that is block-aligned is answered *exactly* from `2^d` anchor
//! reads (Theorem 1 over the blocked `P`); each partially covered
//! boundary superblock is interpolated uniformly from its exact block
//! total, and the cached per-block MIN/MAX tighten a **guaranteed
//! interval** around the true answer:
//!
//! For a part covering `v` of a superblock's `V` cells with exact total
//! `T`, per-cell minimum `mn` and maximum `mx` (both attained within the
//! superblock),
//!
//! ```text
//! lower = max(v·mn, T − (V−v)·mx)
//! upper = min(v·mx, T − (V−v)·mn)
//! estimate = clamp(T·v/V, lower, upper)
//! ```
//!
//! Both halves of each bound are sound for *signed* data: the part's sum
//! is at least `v` cells of at least `mn` each, and at most `T` minus the
//! uncovered `V−v` cells' least attainable mass `(V−v)·mn` — so the true
//! sum always lies in `[lower, upper]`, and the interval degenerates to a
//! point exactly when the part is aligned (`v = V`). Bounds add across
//! parts, and across shards in the serving layer.
//!
//! Sums wrap mod 2^64 like every exact sum, so the anchors hold `T` mod
//! 2^64; [`ApproxValue::partial_block`] recovers the true `T` from the
//! extrema when it can. The contract: an interval contains the true sum
//! whenever that sum fits the value type; an estimate whose interval
//! would leave the type is declined rather than given.
//!
//! The engine exists for one reason: it can **always** answer, in
//! microseconds, regardless of budgets, deadlines, open circuit
//! breakers, or queue depth — so [`crate::AdaptiveRouter`] registers it
//! as the cheapest serving tier and falls back to it (policy-gated by
//! [`olap_array::DegradePolicy::Degrade`]) instead of surfacing
//! exhaustion errors. Its answers are [`Estimate`]s, statically distinct
//! from exact [`olap_query::QueryOutcome`]s, so degraded values can never
//! be mistaken for — or cached as — exact ones.

use crate::range_engine::{BatchImage, EngineOp};
use crate::EngineError;
use olap_aggregate::NumericValue;
use olap_array::{DenseArray, Region};
use olap_prefix_sum::BlockedPrefixCube;
use olap_query::{AccessStats, Estimate};
use std::sync::Arc;

/// Values the anchor-only estimator can interpolate: group arithmetic
/// (via [`NumericValue`]), a total order for interval bounds, and
/// widened-intermediate block interpolation that cannot overflow or
/// panic on a query path.
pub trait ApproxValue: NumericValue + Copy + Ord + Send + Sync {
    /// The least representable value (identity for cached block maxima).
    const MIN_VALUE: Self;
    /// The greatest representable value (identity for cached minima).
    const MAX_VALUE: Self;

    /// Lossy conversion for telemetry ratios (relative error bounds).
    fn to_f64(self) -> f64;

    /// Point estimate and guaranteed bounds for a partially covered
    /// block: `covered` of `volume` cells, block total `total` (the
    /// anchors' sum, which for integers is the true total mod 2^w), and
    /// per-cell extrema `mn ≤ mx` attained within the block. Returns
    /// `(estimate, below, above)` with `below, above ≥ 0`: the true part
    /// sum, mod 2^w, lies in `estimate − below ..= estimate + above`.
    /// `None` when those widths do not fit the type. Implementations use
    /// widened, checked intermediates.
    fn partial_block(
        total: Self,
        covered: u64,
        volume: u64,
        mn: Self,
        mx: Self,
    ) -> Option<(Self, Self, Self)>;
}

impl ApproxValue for i64 {
    const MIN_VALUE: i64 = i64::MIN;
    const MAX_VALUE: i64 = i64::MAX;

    fn to_f64(self) -> f64 {
        self as f64
    }

    fn partial_block(
        total: i64,
        covered: u64,
        volume: u64,
        mn: i64,
        mx: i64,
    ) -> Option<(i64, i64, i64)> {
        let (v, vol) = (i128::from(covered), i128::from(volume.max(covered).max(1)));
        let (mn, mx) = (i128::from(mn), i128::from(mx));
        let (mut lower, mut upper) = (mn.checked_mul(v)?, mx.checked_mul(v)?);
        let mut est = lower.checked_add(upper)? / 2;
        // The block's true total lies in [vol·mn, vol·mx]. When that is
        // narrower than 2^64 it is the one value there congruent to the
        // wrapped `total`; otherwise only the extrema bound the part.
        let (least, most) = (mn.checked_mul(vol)?, mx.checked_mul(vol)?);
        if most.checked_sub(least)? < 1 << 64 {
            let t = least.checked_add(i128::from((total as u64).wrapping_sub(least as u64)))?;
            let rem = vol - v;
            lower = lower.max(t.checked_sub(mx.checked_mul(rem)?)?);
            upper = upper.min(t.checked_sub(mn.checked_mul(rem)?)?);
            // Uniform interpolation T·v/V, rounded toward zero.
            est = t.checked_mul(v)? / vol;
        }
        let est = est.max(lower).min(upper);
        let below = i64::try_from(est.checked_sub(lower)?).ok()?;
        let above = i64::try_from(upper.checked_sub(est)?).ok()?;
        // The estimate itself is reported mod 2^64, like every sum.
        (below >= 0 && above >= 0).then_some((est as i64, below, above))
    }
}

/// An engine-agnostic handle to an approximate tier, held by the router
/// as a trait object (the same erasure discipline as
/// [`crate::RangeEngine`], so the router stays bound-free over `V`).
pub trait DegradeTier<V>: Send + Sync {
    /// Human-readable label for reports and telemetry.
    fn label(&self) -> String;

    /// The interval half-width of `est` relative to its point value —
    /// the quantity the `olap_approx_relative_bound` histogram observes
    /// (in per-mille).
    fn relative_bound(&self, est: &Estimate<V>) -> f64;

    /// Answers `op` over `region` approximately with a guaranteed
    /// enclosing interval.
    ///
    /// # Errors
    /// Region validation, or [`EngineError::Unsupported`] when the tier
    /// has no sound interval for `op` over `region`. Never a budget
    /// interrupt: the whole point of this tier is that it answers when
    /// budgets cannot.
    fn degraded(
        &self,
        region: &Region,
        op: EngineOp,
    ) -> Result<(Estimate<V>, AccessStats), EngineError>;

    /// The base cube the tier estimates over — in a stack, the same `Arc`
    /// its exact engines read ([`crate::RangeEngine::base`]).
    fn base(&self) -> &Arc<DenseArray<V>>;

    /// Derives the successor tier for one update batch, copy-on-write like
    /// [`crate::RangeEngine::derive_onto`]: a tier over the image's source
    /// cube adopts the image's post-batch cube; any other derives an
    /// image of its own.
    ///
    /// # Errors
    /// Index validation.
    fn derive_onto(
        &self,
        image: &BatchImage<'_, V>,
    ) -> Result<Arc<dyn DegradeTier<V>>, EngineError>;
}

/// The §4-anchor approximate engine: a blocked prefix-sum grid for exact
/// aligned sums plus contracted per-block MIN/MAX grids for interval
/// bounds. See the module docs for the estimator math.
#[derive(Debug, Clone)]
pub struct ApproxEngine<V: NumericValue> {
    a: Arc<DenseArray<V>>,
    anchors: BlockedPrefixCube<V>,
    mins: DenseArray<V>,
    maxs: DenseArray<V>,
    b: usize,
}

impl<V: ApproxValue + 'static> ApproxEngine<V> {
    /// Builds the anchor grid and the cached per-block extrema from
    /// `cube` with block size `b` on every dimension. The engine holds
    /// `cube` itself, so a stack shares one base between its exact
    /// engines and this tier.
    ///
    /// # Errors
    /// [`olap_array::ArrayError::ZeroBlock`] when `b = 0`.
    pub fn build(cube: impl Into<Arc<DenseArray<V>>>, b: usize) -> Result<Self, EngineError> {
        let cube = cube.into();
        let anchors = BlockedPrefixCube::build(&cube, b)?;
        let mins = cube.contract_blocks(b, V::MAX_VALUE, |acc, x, _| (*acc).min(*x))?;
        let maxs = cube.contract_blocks(b, V::MIN_VALUE, |acc, x, _| (*acc).max(*x))?;
        Ok(ApproxEngine {
            a: cube,
            anchors,
            mins,
            maxs,
            b,
        })
    }

    /// Anchor-only range-sum estimate with a guaranteed interval: exact
    /// (zero-width) on block-aligned queries, interpolated with
    /// min/max-tightened bounds on boundary superblocks. The value wraps
    /// like every exact sum; the interval contains the true sum whenever
    /// that sum fits the type.
    ///
    /// # Errors
    /// Region validation against the engine's shape;
    /// [`EngineError::Unsupported`] when the interval does not fit the
    /// type, so no sound estimate can be given.
    pub fn estimate_sum(&self, region: &Region) -> Result<(Estimate<V>, AccessStats), EngineError> {
        self.a.shape().check_region(region)?;
        let unbounded = || EngineError::unsupported(self.label_text(), "sum past the value range");
        // Adds two non-negative widths, `None` past the type's range.
        let widen = |acc: V, w: V| (acc <= V::MAX_VALUE - w).then(|| acc + w);
        let mut stats = AccessStats::new();
        let mut value = V::zero();
        let mut below = V::zero();
        let mut above = V::zero();
        let mut exact_cells: u64 = 0;
        for part in self.anchors.decompose(region)? {
            let vol = part.region.volume() as u64;
            if part.internal || part.region == part.superblock {
                // Aligned: Theorem 1 over the blocked P, exact from 2^d
                // anchor reads.
                let t = self.anchors.block_aligned_sum(&part.region, &mut stats)?;
                value = value.wrapping_add(t);
                exact_cells = exact_cells.saturating_add(vol);
            } else {
                let t = self
                    .anchors
                    .block_aligned_sum(&part.superblock, &mut stats)?;
                let (mn, mx) = self.superblock_extrema(&part.superblock, &mut stats)?;
                let (est, low, high) =
                    V::partial_block(t, vol, part.superblock.volume() as u64, mn, mx)
                        .ok_or_else(unbounded)?;
                value = value.wrapping_add(est);
                below = widen(below, low).ok_or_else(unbounded)?;
                above = widen(above, high).ok_or_else(unbounded)?;
            }
        }
        // The true sum mod 2^w lies within the widths around `value`; when
        // that interval fits the type, a true sum that fits lies inside it.
        if value < V::MIN_VALUE + below || value > V::MAX_VALUE - above {
            return Err(unbounded());
        }
        let fraction = exact_cells as f64 / region.volume().max(1) as f64;
        Ok((
            Estimate::new(value, value - below, value + above, fraction),
            stats,
        ))
    }

    /// Anchor-only extremum estimate: the cached per-block extrema bound
    /// the true value from above (every covering block's max) and below
    /// (every *fully covered* block's max is attained inside the query,
    /// as is the one probed corner cell). Symmetric for `min`.
    ///
    /// # Errors
    /// Region validation against the engine's shape.
    pub fn estimate_extremum(
        &self,
        region: &Region,
        op: EngineOp,
    ) -> Result<(Estimate<V>, AccessStats), EngineError> {
        let is_max = match op {
            EngineOp::Max => true,
            EngineOp::Min => false,
            _ => return Err(EngineError::unsupported(self.label_text(), op.name())),
        };
        self.a.shape().check_region(region)?;
        let mut stats = AccessStats::new();
        let cover = self.cover_blocks(region)?;
        let interior = self.interior_blocks(region)?;
        // The loose side: no cell in any covering block exceeds its
        // cached block max (resp. falls below its block min).
        let grid = if is_max { &self.maxs } else { &self.mins };
        let loose = grid.fold_region(&cover, None::<V>, |acc, x| {
            Some(acc.map_or(*x, |a| if is_max { a.max(*x) } else { a.min(*x) }))
        });
        stats.read_p(cover.volume() as u64);
        // The attained side: the probed corner cell is inside the query,
        // and every fully covered block's extremum is attained inside it.
        let corner: Vec<usize> = region.ranges().iter().map(|r| r.lo()).collect();
        let mut attained = *self.a.get(&corner);
        stats.read_a(1);
        let mut exact_cells: u64 = 0;
        if let Some(ref int) = interior {
            let tight = grid.fold_region(int, attained, |acc, x| {
                if is_max {
                    acc.max(*x)
                } else {
                    acc.min(*x)
                }
            });
            stats.read_p(int.volume() as u64);
            attained = tight;
            // The base cells of the interior blocks; the last block on an
            // axis may be clipped by the cube's edge.
            exact_cells = int
                .ranges()
                .iter()
                .zip(self.a.shape().dims())
                .map(|(r, &n)| (((r.hi() + 1) * self.b).min(n) - r.lo() * self.b) as u64)
                .product();
        }
        let loose = loose.unwrap_or(attained);
        let (lower, upper) = if is_max {
            (attained, loose.max(attained))
        } else {
            (loose.min(attained), attained)
        };
        let value = if is_max { upper } else { lower };
        let fraction = exact_cells as f64 / region.volume().max(1) as f64;
        Ok((Estimate::new(value, lower, upper, fraction), stats))
    }

    fn label_text(&self) -> String {
        format!("approx(anchors b={})", self.b)
    }

    /// Min and max over every block of an aligned superblock, from the
    /// cached contracted extrema grids.
    fn superblock_extrema(
        &self,
        superblock: &Region,
        stats: &mut AccessStats,
    ) -> Result<(V, V), EngineError> {
        let creg = self.cover_blocks(superblock)?;
        let mn = self
            .mins
            .fold_region(&creg, V::MAX_VALUE, |acc, x| acc.min(*x));
        let mx = self
            .maxs
            .fold_region(&creg, V::MIN_VALUE, |acc, x| acc.max(*x));
        stats.read_p(2 * creg.volume() as u64);
        Ok((mn, mx))
    }

    /// The contracted region of every block overlapping `region`.
    fn cover_blocks(&self, region: &Region) -> Result<Region, EngineError> {
        let bounds: Vec<(usize, usize)> = region
            .ranges()
            .iter()
            .map(|r| (r.lo() / self.b, r.hi() / self.b))
            .collect();
        Ok(Region::from_bounds(&bounds)?)
    }

    /// The contracted region of blocks fully inside `region`, or `None`
    /// when some axis has no fully covered block.
    fn interior_blocks(&self, region: &Region) -> Result<Option<Region>, EngineError> {
        let mut bounds = Vec::with_capacity(region.ndim());
        for (axis, r) in region.ranges().iter().enumerate() {
            let n = self.a.shape().dim(axis);
            let lo = r.lo().div_ceil(self.b);
            let hi = if r.hi() == n - 1 {
                (n - 1) / self.b
            } else {
                match ((r.hi() + 1) / self.b).checked_sub(1) {
                    Some(h) => h,
                    None => return Ok(None),
                }
            };
            if lo > hi {
                return Ok(None);
            }
            bounds.push((lo, hi));
        }
        Ok(Some(Region::from_bounds(&bounds)?))
    }
}

impl<V: ApproxValue + 'static> DegradeTier<V> for ApproxEngine<V> {
    fn label(&self) -> String {
        self.label_text()
    }

    fn relative_bound(&self, est: &Estimate<V>) -> f64 {
        est.error_bound.to_f64() / est.value.to_f64().abs().max(1.0)
    }

    fn degraded(
        &self,
        region: &Region,
        op: EngineOp,
    ) -> Result<(Estimate<V>, AccessStats), EngineError> {
        match op {
            EngineOp::Sum => self.estimate_sum(region),
            EngineOp::Max | EngineOp::Min => self.estimate_extremum(region, op),
        }
    }

    fn base(&self) -> &Arc<DenseArray<V>> {
        &self.a
    }

    /// The anchor and extrema grids are rebuilt from the post-batch cube —
    /// one pass over `A`, the same order as construction.
    fn derive_onto(
        &self,
        image: &BatchImage<'_, V>,
    ) -> Result<Arc<dyn DegradeTier<V>>, EngineError> {
        let cube = if image.is_over(&self.a) {
            Arc::clone(image.cube())
        } else {
            Arc::clone(BatchImage::derive(&self.a, image.updates())?.cube())
        };
        Ok(Arc::new(ApproxEngine::build(cube, self.b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[13, 9]).unwrap(), |i| {
            (i[0] * 31 + i[1] * 17) as i64 % 97 - 48
        })
    }

    fn q(bounds: &[(usize, usize)]) -> Region {
        Region::from_bounds(bounds).unwrap()
    }

    fn oracle_sum(a: &DenseArray<i64>, bounds: &[(usize, usize)]) -> i64 {
        let r = Region::from_bounds(bounds).unwrap();
        a.fold_region(&r, 0i64, |s, &x| s + x)
    }

    #[test]
    fn every_interval_contains_the_oracle_sum() {
        let a = cube();
        for b in [1usize, 2, 3, 4, 8] {
            let e = ApproxEngine::build(a.clone(), b).unwrap();
            for l0 in 0..13 {
                for h0 in l0..13 {
                    for (l1, h1) in [(0, 8), (2, 5), (4, 4), (1, 7)] {
                        let bounds = [(l0, h0), (l1, h1)];
                        let (est, stats) = e.estimate_sum(&q(&bounds)).unwrap();
                        let truth = oracle_sum(&a, &bounds);
                        assert!(
                            est.contains(truth),
                            "b={b} {bounds:?}: {truth} outside {est}"
                        );
                        assert_eq!(stats.a_cells, 0, "sums never read base cells");
                    }
                }
            }
        }
    }

    #[test]
    fn aligned_queries_are_exact_with_zero_error_bound() {
        let a = cube();
        let e = ApproxEngine::build(a.clone(), 4).unwrap();
        // Block-aligned, including the clipped last blocks (13 and 9 are
        // not multiples of 4).
        for bounds in [
            [(0, 12), (0, 8)],
            [(4, 11), (0, 3)],
            [(0, 3), (4, 8)],
            [(8, 12), (4, 7)],
        ] {
            let (est, _) = e.estimate_sum(&q(&bounds)).unwrap();
            assert_eq!(est.error_bound, 0, "{bounds:?}");
            assert!(est.is_exact());
            assert_eq!(est.value, oracle_sum(&a, &bounds));
            assert_eq!(est.fraction_exact, 1.0);
        }
    }

    #[test]
    fn block_size_one_degenerates_to_exact_everywhere() {
        let a = cube();
        let e = ApproxEngine::build(a.clone(), 1).unwrap();
        for bounds in [[(0, 12), (0, 8)], [(3, 7), (2, 6)], [(5, 5), (3, 3)]] {
            let (est, _) = e.estimate_sum(&q(&bounds)).unwrap();
            assert!(est.is_exact(), "{bounds:?}: {est}");
            assert_eq!(est.value, oracle_sum(&a, &bounds));
        }
    }

    #[test]
    fn extremum_intervals_contain_the_oracle() {
        let a = cube();
        for b in [1usize, 3, 4] {
            let e = ApproxEngine::build(a.clone(), b).unwrap();
            for bounds in [[(0, 12), (0, 8)], [(3, 7), (2, 6)], [(5, 6), (3, 3)]] {
                let r = Region::from_bounds(&bounds).unwrap();
                let t_max = a.fold_region(&r, i64::MIN, |s, &x| s.max(x));
                let t_min = a.fold_region(&r, i64::MAX, |s, &x| s.min(x));
                let (emax, _) = e.estimate_extremum(&q(&bounds), EngineOp::Max).unwrap();
                let (emin, _) = e.estimate_extremum(&q(&bounds), EngineOp::Min).unwrap();
                assert!(emax.contains(t_max), "b={b} {bounds:?} max {t_max} {emax}");
                assert!(emin.contains(t_min), "b={b} {bounds:?} min {t_min} {emin}");
                if b == 1 {
                    assert!(emax.is_exact() && emin.is_exact());
                }
            }
        }
    }

    #[test]
    fn updates_rebuild_anchors_and_extrema() {
        let a = Arc::new(cube());
        let e = ApproxEngine::build(Arc::clone(&a), 4).unwrap();
        let batch = [(vec![3, 4], 5000), (vec![12, 8], -5000)];
        let image = BatchImage::derive(&a, &batch).unwrap();
        let e2 = e.derive_onto(&image).unwrap();
        // Over the image's source, the tier adopts the post-batch cube.
        assert!(Arc::ptr_eq(e2.base(), image.cube()));
        let mut shadow = cube();
        *shadow.get_mut(&[3, 4]) = 5000;
        *shadow.get_mut(&[12, 8]) = -5000;
        for bounds in [[(0, 12), (0, 8)], [(2, 5), (3, 6)], [(10, 12), (6, 8)]] {
            let r = Region::from_bounds(&bounds).unwrap();
            let truth = shadow.fold_region(&r, 0i64, |s, &x| s + x);
            let (est, _) = e2.degraded(&q(&bounds), EngineOp::Sum).unwrap();
            assert!(est.contains(truth), "{bounds:?}: {truth} outside {est}");
        }
        // The original is an untouched snapshot: its interval still
        // brackets the pre-update cell, not the 5000 written above.
        let (old, _) = e.estimate_sum(&q(&[(3, 3), (4, 4)])).unwrap();
        assert!(old.contains(*a.get(&[3, 4])));
        assert!(!old.contains(5000));
        // A tier over another copy derives an image of its own.
        let own = ApproxEngine::build(cube(), 4).unwrap();
        let e3 = own.derive_onto(&image).unwrap();
        assert!(!Arc::ptr_eq(e3.base(), image.cube()));
        assert_eq!(e3.base().as_slice(), image.cube().as_slice());
        // Bad indices are typed errors, not panics.
        assert!(BatchImage::derive(&a, &[(vec![99, 0], 1)]).is_err());
        assert!(BatchImage::derive(&a, &[(vec![0], 1)]).is_err());
    }

    #[test]
    fn degrade_tier_contract() {
        let e = ApproxEngine::build(cube(), 4).unwrap();
        let tier: &dyn DegradeTier<i64> = &e;
        assert!(tier.label().contains("approx"));
        let query = q(&[(1, 11), (1, 7)]);
        let (est, stats) = tier.degraded(&query, EngineOp::Sum).unwrap();
        assert!(est.lower <= est.value && est.value <= est.upper);
        assert!(stats.total_accesses() > 0);
        for op in [EngineOp::Max, EngineOp::Min] {
            let (est, _) = tier.degraded(&query, op).unwrap();
            assert!(est.lower <= est.value && est.value <= est.upper);
        }
    }
}
