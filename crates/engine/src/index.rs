//! The [`CubeIndex`] facade: one cube, several precomputed structures,
//! one query interface.

use crate::error::EngineError;
use crate::range_engine::{derive_shared, BatchImage, Derived, EngineOp, RangeEngine};
use olap_aggregate::ReverseOrder;
use olap_aggregate::{NaturalOrder, NumericValue, TotalOrder};
use olap_array::{BudgetMeter, PagedArray, Region, Shape};
use olap_prefix_sum::{batch, BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::{AccessStats, EngineKind, QueryCtx, QueryOutcome};
use olap_range_max::{MaxTree, NaturalMaxTree, SearchOptions};
use std::sync::Arc;

/// Which prefix-sum structure to maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefixChoice {
    /// The basic §3 array — fastest queries, same storage as the cube.
    #[default]
    Basic,
    /// The §4 blocked array with the given block size — `1/b^d` storage.
    Blocked(usize),
}

/// Index configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Prefix-sum structure for range-sum queries.
    pub prefix: PrefixChoice,
    /// Per-dimension fanout of the §6 range-max tree, if wanted.
    pub max_tree_fanout: Option<usize>,
    /// Per-dimension fanout of a range-min tree (the §6 structure under
    /// the reversed order), if wanted.
    pub min_tree_fanout: Option<usize>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            prefix: PrefixChoice::Basic,
            max_tree_fanout: Some(4),
            min_tree_fanout: None,
        }
    }
}

/// A dense cube plus its precomputed structures, with query routing and
/// consistent batched updates.
///
/// # Examples
///
/// ```
/// use olap_array::{DenseArray, Region, Shape};
/// use olap_engine::{CubeIndex, IndexConfig};
///
/// let cube = DenseArray::from_fn(Shape::new(&[8, 8]).unwrap(), |i| {
///     (i[0] * 8 + i[1]) as i64
/// });
/// let mut index = CubeIndex::build(cube, IndexConfig::default()).unwrap();
/// let q = Region::from_bounds(&[(2, 5), (1, 6)]).unwrap();
/// let (sum, stats) = index.range_sum(&q).unwrap();
/// assert!(stats.p_cells <= 4); // Theorem 1: at most 2^d lookups
/// let (_, max, _) = index.range_max(&q).unwrap();
/// assert_eq!(max, 46);
/// index.apply_updates_in_place(&[(vec![0, 0], 100)]).unwrap();
/// assert_eq!(index.range_max(&q).unwrap().1, 46); // [0,0] outside q
/// # let _ = sum;
/// ```
#[derive(Clone)]
pub struct CubeIndex<T>
where
    T: NumericValue + PartialOrd,
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    // Every structure sits behind an `Arc` so a clone of the index is a
    // handful of reference bumps. Deriving a snapshot clones the index,
    // copies (via `Arc::make_mut`) each maintained array the batch writes
    // into, and swaps in the batch image's post-batch cube for `a` — the
    // index itself copies no cube page; the image copied the few it
    // wrote.
    a: Arc<PagedArray<T>>,
    config: IndexConfig,
    prefix: Prefix<T>,
    max_tree: Option<Arc<NaturalMaxTree<T>>>,
    min_tree: Option<Arc<MaxTree<ReverseOrder<NaturalOrder<T>>>>>,
}

/// The prefix-sum structure a [`CubeIndex`] answers sums from, as
/// [`IndexConfig::prefix`] chose it.
#[derive(Clone)]
enum Prefix<T: NumericValue> {
    Basic(Arc<PrefixSumCube<T>>),
    Blocked(Arc<BlockedPrefixCube<T>>),
}

impl<T> CubeIndex<T>
where
    T: NumericValue + PartialOrd,
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    /// Builds the configured structures over a cube.
    ///
    /// # Errors
    /// Invalid block sizes / fanouts.
    pub fn build(
        a: impl Into<Arc<PagedArray<T>>>,
        config: IndexConfig,
    ) -> Result<Self, EngineError> {
        let a = a.into();
        let cells = &*a;
        let prefix = match config.prefix {
            PrefixChoice::Basic => Prefix::Basic(Arc::new(PrefixSumCube::build(cells))),
            PrefixChoice::Blocked(b) => {
                Prefix::Blocked(Arc::new(BlockedPrefixCube::build(cells, b)?))
            }
        };
        let max_tree = match config.max_tree_fanout {
            Some(b) => Some(Arc::new(NaturalMaxTree::for_values(cells, b)?)),
            None => None,
        };
        let min_tree = match config.min_tree_fanout {
            Some(b) => Some(Arc::new(MaxTree::build(
                cells,
                b,
                ReverseOrder::new(NaturalOrder::<T>::new()),
            )?)),
            None => None,
        };
        Ok(CubeIndex {
            a,
            config,
            prefix,
            max_tree,
            min_tree,
        })
    }

    /// The underlying cube.
    pub fn cube(&self) -> &PagedArray<T> {
        &self.a
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        self.a.shape()
    }

    /// The active configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Answers a range-sum query from the configured prefix-sum
    /// structure: basic (`2^d` lookups) or blocked. Runs unmetered; a
    /// budget reaches the kernels through [`RangeEngine::read`].
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_sum(&self, region: &Region) -> Result<(T, AccessStats), EngineError> {
        QueryCtx::measure(|ctx| self.sum(region, ctx))
    }

    /// The sum under `ctx`, read from the configured prefix structure:
    /// the blocked kernel checks and charges it part by part, the basic
    /// one around its constant-time gather.
    fn sum(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<T, EngineError> {
        Ok(match &self.prefix {
            Prefix::Basic(ps) => ps.read(region, ctx)?,
            Prefix::Blocked(bp) => bp.read(&*self.a, region, BoundaryPolicy::Auto, ctx)?,
        })
    }

    /// COUNT over a region of a dense cube: its volume (§1 notes COUNT is
    /// a special case of SUM; for a dense cube every cell counts).
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_count(&self, region: &Region) -> Result<u64, EngineError> {
        self.a.shape().check_region(region)?;
        Ok(region.volume() as u64)
    }

    /// Answers a range-max query with the §6 tree when present, else the
    /// naive scan. Returns `(index, value, stats)`.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_max(&self, region: &Region) -> Result<(Vec<usize>, T, AccessStats), EngineError> {
        let ((at, v), stats) = QueryCtx::measure(|ctx| self.max(region, ctx))?;
        Ok((at, v, stats))
    }

    /// Answers a range-**min** query: the §6 structure under the reversed
    /// order when configured (`min_tree_fanout`), else the naive scan.
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_min(&self, region: &Region) -> Result<(Vec<usize>, T, AccessStats), EngineError> {
        let ((at, v), stats) = QueryCtx::measure(|ctx| self.min(region, ctx))?;
        Ok((at, v, stats))
    }

    /// The max under `ctx`: the §6 walk when a max tree is kept, else the
    /// naive scan.
    fn max(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<(Vec<usize>, T), EngineError> {
        let opts = SearchOptions::default();
        Ok(match &self.max_tree {
            Some(t) => t.read(&*self.a, region, opts, ctx)?,
            None => crate::naive::range_max(&*self.a, &NaturalOrder::<T>::new(), region, ctx)?,
        })
    }

    /// The min under `ctx`: the reversed-order tree, else the naive scan.
    fn min(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<(Vec<usize>, T), EngineError> {
        let opts = SearchOptions::default();
        let order = ReverseOrder::new(NaturalOrder::<T>::new());
        Ok(match &self.min_tree {
            Some(t) => t.read(&*self.a, region, opts, ctx)?,
            None => crate::naive::range_max(&*self.a, &order, region, ctx)?,
        })
    }

    /// Explains how a range-sum query would be (and was) answered: the
    /// structure chosen, the model's predicted cost, and the measured
    /// accesses — the paper's cost story made visible.
    ///
    /// # Errors
    /// Validates the region.
    pub fn explain_sum(&self, region: &Region) -> Result<String, EngineError> {
        let engine = match &self.prefix {
            Prefix::Basic(_) => "basic prefix sums (§3)",
            Prefix::Blocked(_) => "blocked prefix sums (§4)",
        };
        let (_, stats) = self.range_sum(region)?;
        Ok(format!(
            "query {region} (volume {}): engine = {engine}; modelled cost ≈ {:.0}; measured accesses = {}",
            region.volume(),
            self.price(region, EngineOp::Sum),
            stats.total_accesses()
        ))
    }

    /// [`RangeEngine::cost`] of `op` over `region`, which the index
    /// serves for every op: Equation 3 for a sum from the configured
    /// prefix structure; for a max or min, the §8 tree cost of the §6
    /// walk capped at the region's volume, or the volume when no tree
    /// is kept and the read scans.
    fn price(&self, region: &Region, op: EngineOp) -> f64 {
        use olap_planner::cost;
        let d = region.ndim();
        let tree = match (op, &self.prefix) {
            (EngineOp::Sum, Prefix::Basic(_)) => return cost::pow2(d),
            (EngineOp::Sum, Prefix::Blocked(bp)) => {
                let surface = region.surface_area() as f64;
                return cost::prefix_sum_cost(d, surface, bp.block_size());
            }
            (EngineOp::Max, _) => self.max_tree.as_ref().map(|t| (t.fanout(), t.height())),
            (EngineOp::Min, _) => self.min_tree.as_ref().map(|t| (t.fanout(), t.height())),
        };
        let volume = region.volume() as f64;
        tree.map_or(volume, |(b, height)| {
            cost::tree_cost(d, region.surface_area() as f64, b, height).min(volume)
        })
    }

    /// Applies a batch of absolute-value updates `(index, new value)` to
    /// the cube and every maintained structure:
    ///
    /// - prefix sums via the Theorem-2 batched region update (§5),
    /// - the max and min trees via the tag protocol (§7).
    ///
    /// Later updates to the same cell win. Returns combined access
    /// statistics.
    ///
    /// # Errors
    /// Validates every index.
    pub fn apply_updates_in_place(
        &mut self,
        updates: &[(Vec<usize>, T)],
    ) -> Result<AccessStats, EngineError> {
        let base = Arc::clone(&self.a);
        self.adopt(&BatchImage::derive(&base, updates)?)
    }

    /// Brings every maintained structure from `self.a` to the image's
    /// post-batch cube, then adopts that cube. `Arc::make_mut` is the
    /// copy-on-write boundary: an array shared with a live snapshot is
    /// copied exactly once here; an unshared one is written in place.
    fn adopt(&mut self, image: &BatchImage<'_, T>) -> Result<AccessStats, EngineError> {
        let mut stats = AccessStats::new();
        match &mut self.prefix {
            Prefix::Basic(ps) => {
                batch::apply_batch(Arc::make_mut(ps), image.deltas())?;
            }
            Prefix::Blocked(bp) => {
                batch::apply_batch_blocked(Arc::make_mut(bp), image.deltas())?;
            }
        }
        // Both trees read old values from the pre-batch cube and rescan
        // the one post-batch cube; neither writes a cube.
        let (pre, post) = (&*self.a, &**image.cube());
        if let Some(t) = &mut self.min_tree {
            stats += Arc::make_mut(t).batch_update_onto(pre, post, image.updates())?;
        }
        if let Some(t) = &mut self.max_tree {
            stats += Arc::make_mut(t).batch_update_onto(pre, post, image.updates())?;
        }
        self.a = Arc::clone(image.cube());
        Ok(stats)
    }

    /// Which structure answers this index's sums.
    fn sum_kind(&self) -> EngineKind {
        match self.prefix {
            Prefix::Basic(_) => EngineKind::PrefixSum,
            Prefix::Blocked(_) => EngineKind::BlockedPrefix,
        }
    }
}

impl<T> RangeEngine<T> for CubeIndex<T>
where
    T: NumericValue + PartialOrd + Send + Sync + 'static,
    NaturalOrder<T>: TotalOrder<Value = T>,
{
    fn label(&self) -> String {
        match self.config.prefix {
            PrefixChoice::Basic => "cube-index(basic-prefix)".to_string(),
            PrefixChoice::Blocked(b) => format!("cube-index(blocked b={b})"),
        }
    }

    fn shape(&self) -> &Shape {
        self.a.shape()
    }

    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        Some(self.price(region, op))
    }

    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<T>, EngineError> {
        let label = || self.label();
        match op {
            EngineOp::Sum => crate::telemetry::observe_query(label, op, meter, |ctx| {
                let v = self.sum(region, ctx)?;
                Ok(QueryOutcome::aggregate(v, ctx.stats, self.sum_kind()))
            }),
            EngineOp::Max => crate::telemetry::observe_query(label, op, meter, |ctx| {
                let (at, v) = self.max(region, ctx)?;
                let kind = if self.max_tree.is_some() {
                    EngineKind::MaxTree
                } else {
                    EngineKind::NaiveScan
                };
                Ok(QueryOutcome::extremum(at, v, ctx.stats, kind))
            }),
            EngineOp::Min => crate::telemetry::observe_query(label, op, meter, |ctx| {
                let (at, v) = self.min(region, ctx)?;
                let kind = if self.min_tree.is_some() {
                    EngineKind::MinTree
                } else {
                    EngineKind::NaiveScan
                };
                Ok(QueryOutcome::extremum(at, v, ctx.stats, kind))
            }),
        }
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, T)]) -> Result<Derived<T>, EngineError> {
        self.derive_onto(&BatchImage::derive(&self.a, updates)?)
    }

    fn base(&self) -> Option<&Arc<PagedArray<T>>> {
        Some(&self.a)
    }

    fn derive_onto(&self, image: &BatchImage<'_, T>) -> Result<Derived<T>, EngineError> {
        derive_shared(self, &self.a, image, CubeIndex::adopt)
    }
}

impl CubeIndex<i64> {
    /// AVERAGE over a region: SUM / COUNT (§1: derived from the
    /// `(sum, count)` pair; for a dense cube the count is the volume).
    ///
    /// # Errors
    /// Validates the region.
    pub fn range_average(&self, region: &Region) -> Result<f64, EngineError> {
        let (sum, _) = self.range_sum(region)?;
        Ok(sum as f64 / region.volume() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::{CellRead, DenseArray};

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[12, 10]).unwrap(), |i| {
            (i[0] * 13 + i[1] * 7) as i64 % 31 - 15
        })
    }

    fn naive_sum(a: &DenseArray<i64>, q: &Region) -> i64 {
        a.fold_region(q, 0i64, |s, &x| s + x)
    }

    fn naive_max(a: &DenseArray<i64>, q: &Region) -> i64 {
        a.fold_region(q, i64::MIN, |m, &x| m.max(x))
    }

    #[test]
    fn default_config_routes_to_prefix_and_tree() {
        let a = cube();
        let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
        let q = Region::from_bounds(&[(2, 9), (3, 8)]).unwrap();
        let (s, stats) = idx.range_sum(&q).unwrap();
        assert_eq!(s, naive_sum(&a, &q));
        assert!(stats.p_cells <= 4);
        assert_eq!(stats.a_cells, 0);
        let (_, m, _) = idx.range_max(&q).unwrap();
        assert_eq!(m, naive_max(&a, &q));
    }

    #[test]
    fn every_config_answers_identically() {
        let a = cube();
        let q = Region::from_bounds(&[(1, 10), (2, 7)]).unwrap();
        let expected = naive_sum(&a, &q);
        let configs = [
            IndexConfig {
                prefix: PrefixChoice::Basic,
                max_tree_fanout: None,
                min_tree_fanout: None,
            },
            IndexConfig {
                prefix: PrefixChoice::Blocked(4),
                max_tree_fanout: Some(2),
                min_tree_fanout: Some(2),
            },
            IndexConfig {
                prefix: PrefixChoice::Blocked(3),
                max_tree_fanout: Some(3),
                min_tree_fanout: None,
            },
        ];
        for cfg in configs {
            let idx = CubeIndex::build(a.clone(), cfg).unwrap();
            let (s, _) = idx.range_sum(&q).unwrap();
            assert_eq!(s, expected, "{cfg:?}");
            let (_, m, _) = idx.range_max(&q).unwrap();
            assert_eq!(m, naive_max(&a, &q), "{cfg:?}");
        }
    }

    #[test]
    fn updates_keep_all_structures_consistent() {
        let a = cube();
        let cfg = IndexConfig {
            prefix: PrefixChoice::Basic,
            max_tree_fanout: Some(2),
            min_tree_fanout: Some(2),
        };
        let mut idx = CubeIndex::build(a, cfg).unwrap();
        idx.apply_updates_in_place(&[
            (vec![0, 0], 100),
            (vec![11, 9], -50),
            (vec![5, 5], 7),
            (vec![5, 5], 9), // duplicate: last wins
        ])
        .unwrap();
        assert_eq!(*idx.cube().get(&[5, 5]), 9);
        let q = idx.shape().full_region();
        let (s, _) = idx.range_sum(&q).unwrap();
        assert_eq!(s, naive_sum(&idx.cube().to_dense(), &q));
        let (_, m, _) = idx.range_max(&q).unwrap();
        assert_eq!(m, 100);
        // And a rebuilt index agrees everywhere.
        let fresh = CubeIndex::build(idx.cube().clone(), *idx.config()).unwrap();
        for l0 in (0..12).step_by(3) {
            for l1 in (0..10).step_by(3) {
                let q = Region::from_bounds(&[(l0, 11), (l1, 9)]).unwrap();
                assert_eq!(idx.range_sum(&q).unwrap().0, fresh.range_sum(&q).unwrap().0);
                assert_eq!(idx.range_max(&q).unwrap().1, fresh.range_max(&q).unwrap().1);
            }
        }
    }

    #[test]
    fn blocked_updates_stay_consistent() {
        let a = cube();
        let cfg = IndexConfig {
            prefix: PrefixChoice::Blocked(4),
            max_tree_fanout: None,
            min_tree_fanout: None,
        };
        let mut idx = CubeIndex::build(a, cfg).unwrap();
        idx.apply_updates_in_place(&[(vec![3, 3], 77), (vec![8, 1], -4)])
            .unwrap();
        let q = Region::from_bounds(&[(0, 11), (0, 9)]).unwrap();
        let (s, _) = idx.range_sum(&q).unwrap();
        assert_eq!(s, naive_sum(&idx.cube().to_dense(), &q));
    }

    #[test]
    fn rejects_invalid_updates() {
        let mut idx = CubeIndex::build(cube(), IndexConfig::default()).unwrap();
        assert!(idx.apply_updates_in_place(&[(vec![12, 0], 1)]).is_err());
    }

    #[test]
    fn count_and_average() {
        let a = cube();
        let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
        let q = Region::from_bounds(&[(0, 3), (0, 4)]).unwrap();
        assert_eq!(idx.range_count(&q).unwrap(), 20);
        let expected = a.fold_region(&q, 0i64, |s, &x| s + x) as f64 / 20.0;
        assert!((idx.range_average(&q).unwrap() - expected).abs() < 1e-12);
        assert!(idx
            .range_count(&Region::from_bounds(&[(0, 12), (0, 4)]).unwrap())
            .is_err());
    }

    #[test]
    fn range_min_via_reversed_tree() {
        let a = cube();
        let cfg = IndexConfig {
            prefix: PrefixChoice::Basic,
            max_tree_fanout: Some(2),
            min_tree_fanout: Some(2),
        };
        let mut idx = CubeIndex::build(a.clone(), cfg).unwrap();
        let q = Region::from_bounds(&[(2, 9), (1, 8)]).unwrap();
        let naive_min = a.fold_region(&q, i64::MAX, |m, &x| m.min(x));
        let (at, v, _) = idx.range_min(&q).unwrap();
        assert_eq!(v, naive_min);
        assert!(q.contains(&at));
        // Updates keep the min tree consistent.
        idx.apply_updates_in_place(&[(vec![5, 5], -999)]).unwrap();
        assert_eq!(idx.range_min(&q).unwrap().1, -999);
        assert_eq!(idx.range_max(&q).unwrap().1, {
            let mut shadow = a.clone();
            *shadow.get_mut(&[5, 5]) = -999;
            shadow.fold_region(&q, i64::MIN, |m, &x| m.max(x))
        });
    }

    #[test]
    fn range_min_naive_fallback() {
        let a = cube();
        let cfg = IndexConfig {
            max_tree_fanout: None,
            min_tree_fanout: None,
            ..IndexConfig::default()
        };
        let idx = CubeIndex::build(a.clone(), cfg).unwrap();
        let q = Region::from_bounds(&[(0, 11), (0, 9)]).unwrap();
        let naive_min = a.fold_region(&q, i64::MAX, |m, &x| m.min(x));
        assert_eq!(idx.range_min(&q).unwrap().1, naive_min);
    }

    #[test]
    fn explain_names_the_engine() {
        let a = cube();
        let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
        let q = Region::from_bounds(&[(1, 6), (2, 7)]).unwrap();
        let text = idx.explain_sum(&q).unwrap();
        assert!(text.contains("basic prefix sums"), "{text}");
        assert!(text.contains("measured accesses"), "{text}");
        let blocked_idx = CubeIndex::build(
            a,
            IndexConfig {
                prefix: PrefixChoice::Blocked(4),
                ..IndexConfig::default()
            },
        )
        .unwrap();
        let text = blocked_idx.explain_sum(&q).unwrap();
        assert!(text.contains("blocked prefix sums"), "{text}");
    }

    #[test]
    fn each_op_has_its_own_price() {
        use olap_planner::cost::{prefix_sum_cost, tree_cost};
        let a = cube(); // 12 × 10: each tree has height 2 at b = 4
        let q = Region::from_bounds(&[(1, 10), (2, 7)]).unwrap(); // V = 60, S = 32
        let price = |idx: &CubeIndex<i64>, region: &Region, op| idx.cost(region, op).unwrap();
        let basic = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
        assert_eq!(price(&basic, &q, EngineOp::Sum), 4.0);
        assert_eq!(price(&basic, &q, EngineOp::Max), tree_cost(2, 32.0, 4, 2));
        // No min tree: the read scans, so the price is the volume.
        assert_eq!(price(&basic, &q, EngineOp::Min), 60.0);
        // A tree walk is never priced above the scan it replaces.
        let cell = Region::from_bounds(&[(3, 3), (4, 4)]).unwrap();
        assert_eq!(price(&basic, &cell, EngineOp::Max), 1.0);
        let blocked = CubeIndex::build(
            a,
            IndexConfig {
                prefix: PrefixChoice::Blocked(4),
                max_tree_fanout: None,
                min_tree_fanout: Some(4),
            },
        )
        .unwrap();
        assert_eq!(
            price(&blocked, &q, EngineOp::Sum),
            prefix_sum_cost(2, 32.0, 4)
        );
        assert_eq!(price(&blocked, &q, EngineOp::Max), 60.0);
        assert_eq!(price(&blocked, &q, EngineOp::Min), tree_cost(2, 32.0, 4, 2));
        let text = blocked.explain_sum(&q).unwrap();
        assert!(text.contains("modelled cost ≈ 36;"), "{text}");
    }

    #[test]
    fn float_cubes_work() {
        let a = DenseArray::from_fn(Shape::new(&[8, 8]).unwrap(), |i| {
            (i[0] as f64) * 0.5 - (i[1] as f64) * 0.25
        });
        let idx = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
        let q = Region::from_bounds(&[(1, 6), (2, 5)]).unwrap();
        let (s, _) = idx.range_sum(&q).unwrap();
        let expected = a.fold_region(&q, 0.0f64, |acc, &x| acc + x);
        assert!((s - expected).abs() < 1e-9);
    }
}
