//! Behavioural and equivalence tests for [`SemanticCache`]: exact hits,
//! fall-through for every other region, per-cell invalidation across
//! snapshot installs, and the headline guarantee — cached sums
//! bit-identical to direct execution under random interleaved update
//! installs.

use olap_array::{DenseArray, Region, Shape};
use olap_engine::{
    AdaptiveRouter, Capabilities, CubeIndex, Derived, EngineError, IndexConfig, NaiveEngine,
    RangeEngine, SemanticCache, SumTreeEngine, VersionCell,
};
use olap_query::{EngineKind, QueryOutcome, RangeQuery};
use proptest::prelude::*;
use std::sync::Arc;

fn cube(shape: &[usize]) -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(shape).unwrap(), |i| {
        let mut h = 0i64;
        for (axis, &x) in i.iter().enumerate() {
            h = h * 31 + (x as i64 + 7) * (axis as i64 + 3);
        }
        h % 101 - 50
    })
}

fn q(bounds: &[(usize, usize)]) -> RangeQuery {
    RangeQuery::from_region(&Region::from_bounds(bounds).unwrap())
}

fn router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new()
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), IndexConfig::default()).unwrap(),
        ))
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
}

fn oracle(a: &DenseArray<i64>, region: &Region) -> i64 {
    a.fold_region(region, 0i64, |acc, &v| acc + v)
}

/// A router whose only engine is the naive scan: direct execution costs
/// the full region volume.
fn naive_router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new().with_engine(Box::new(NaiveEngine::new(a.clone())))
}

#[test]
fn exact_hit_answers_from_the_cache() {
    let a = cube(&[32, 16]);
    let cache = SemanticCache::new(router(&a), 64);
    let query = q(&[(4, 19), (2, 13)]);
    let expect = oracle(&a, &Region::from_bounds(&[(4, 19), (2, 13)]).unwrap());

    let first = cache.range_sum(&query).unwrap();
    assert_eq!(first.value(), Some(&expect));
    assert_ne!(first.answered_by, EngineKind::SemanticCache);

    let second = cache.range_sum(&query).unwrap();
    assert_eq!(second.value(), Some(&expect));
    assert_eq!(second.answered_by, EngineKind::SemanticCache);
    // A pure hit touches no elements — only one combine step.
    assert_eq!(second.cost(), 0);
    assert_eq!(second.stats.combine_steps, 1);

    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn contained_regions_fall_through_then_repeat_as_hits() {
    // Even over a naive-scan backend, where a thin residual frame would
    // be cheap, a region inside a cached one is a miss: only a repeat of
    // the same region is answered from the cache.
    let a = cube(&[32, 16]);
    let cache = SemanticCache::new(naive_router(&a), 64);
    cache.range_sum(&q(&[(0, 31), (0, 15)])).unwrap();
    for bounds in [[(1, 30), (1, 14)], [(5, 5), (5, 5)]] {
        let target = Region::from_bounds(&bounds).unwrap();
        let out = cache.range_sum(&RangeQuery::from_region(&target)).unwrap();
        assert_ne!(out.answered_by, EngineKind::SemanticCache);
        assert_eq!(out.value(), Some(&oracle(&a, &target)));
        let again = cache.range_sum(&RangeQuery::from_region(&target)).unwrap();
        assert_eq!(again.answered_by, EngineKind::SemanticCache);
        assert_eq!(again.value(), Some(&oracle(&a, &target)));
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.assemblies, stats.misses), (2, 0, 3));
    assert_eq!(stats.entries, 3);
}

#[test]
fn capacity_zero_is_a_pure_passthrough() {
    let a = cube(&[16, 8]);
    let cache = SemanticCache::new(router(&a), 0);
    let query = q(&[(0, 15), (0, 7)]);
    for _ in 0..3 {
        let out = cache.range_sum(&query).unwrap();
        assert_ne!(out.answered_by, EngineKind::SemanticCache);
    }
    let stats = cache.stats();
    assert_eq!(stats.lookups(), 0);
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.hit_rate(), 0.0);
}

#[test]
fn extrema_pass_through_uncached() {
    let a = cube(&[16, 8]);
    let cache = SemanticCache::new(router(&a), 16);
    let query = q(&[(0, 15), (0, 7)]);
    let max = cache.range_max(&query).unwrap();
    let min = cache.range_min(&query).unwrap();
    assert_ne!(max.answered_by, EngineKind::SemanticCache);
    assert_ne!(min.answered_by, EngineKind::SemanticCache);
    assert_eq!(cache.stats().lookups(), 0);
}

#[test]
fn updates_invalidate_region_wise_not_globally() {
    let a = cube(&[32, 16]);
    let cache = SemanticCache::new(router(&a), 64);
    // `low` holds both cells of the batch below and `high` lies far from
    // them. `beside` lies inside the batch's bounding box (rows 0..=1,
    // columns 1..=9) but holds neither cell: the install cannot change
    // its sum.
    let low = Region::from_bounds(&[(0, 3), (0, 15)]).unwrap();
    let high = Region::from_bounds(&[(28, 31), (0, 15)]).unwrap();
    let beside = Region::from_bounds(&[(0, 1), (3, 6)]).unwrap();
    for r in [&low, &high, &beside] {
        cache.range_sum(&RangeQuery::from_region(r)).unwrap();
    }
    assert_eq!(cache.stats().entries, 3);

    // Only the entry holding an updated cell may be dropped.
    let batch = [(vec![0, 1], 999), (vec![1, 9], -5)];
    cache.apply_updates(&batch).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.entries, 2);
    let mut shadow = a.clone();
    for (idx, v) in &batch {
        *shadow.get_mut(idx) = *v;
    }

    // The surviving entries answer at the *new* epoch with the post-batch
    // oracle's sums…
    for r in [&high, &beside] {
        let out = cache.range_sum(&RangeQuery::from_region(r)).unwrap();
        assert_eq!(out.answered_by, EngineKind::SemanticCache, "{r}");
        assert_eq!(out.value(), Some(&oracle(&shadow, r)), "{r}");
    }
    // …and the invalidated region reflects the update on re-execution.
    let out = cache.range_sum(&RangeQuery::from_region(&low)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &low)));

    // A batch with a malformed index is refused: no install, every entry
    // kept and still answering.
    let epoch = cache.epoch();
    assert!(cache
        .apply_updates(&[(vec![0, 4], 1), (vec![2], 7)])
        .is_err());
    assert_eq!(cache.epoch(), epoch);
    assert_eq!(cache.stats().entries, 3);
    for r in [&low, &high, &beside] {
        let out = cache.range_sum(&RangeQuery::from_region(r)).unwrap();
        assert_eq!(out.answered_by, EngineKind::SemanticCache, "{r}");
        assert_eq!(out.value(), Some(&oracle(&shadow, r)), "{r}");
    }
}

#[test]
fn failed_cell_updates_install_nothing_and_keep_entries() {
    // A VersionCell installs nothing on a failed derive, so current
    // entries stay valid and keep answering.
    let a = cube(&[16, 8]);
    let cell = VersionCell::new(Box::new(NaiveEngine::new(a.clone())) as Box<dyn RangeEngine<i64>>);
    let cache = SemanticCache::new(cell, 16);
    let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    let epoch = cache.epoch();
    assert!(cache.apply_updates(&[(vec![99, 99], 1)]).is_err());
    assert_eq!(cache.epoch(), epoch);
    assert_eq!(cache.stats().entries, 1);
    let out = cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    assert_eq!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&a, &region)));
}

/// Answers like the naive scan; every derive fails.
struct RefusesUpdates(NaiveEngine<i64>);

impl RangeEngine<i64> for RefusesUpdates {
    fn label(&self) -> String {
        "refuses-updates".to_string()
    }
    fn shape(&self) -> &Shape {
        self.0.shape()
    }
    fn capabilities(&self) -> Capabilities {
        self.0.capabilities()
    }
    fn estimate(&self, query: &RangeQuery) -> f64 {
        self.0.estimate(query)
    }
    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<i64>, EngineError> {
        self.0.range_sum(query)
    }
    fn apply_updates(&self, _: &[(Vec<usize>, i64)]) -> Result<Derived<i64>, EngineError> {
        Err(EngineError::backend(self.label(), "derive refused"))
    }
}

#[test]
fn failed_router_updates_flush_conservatively() {
    // The router installs a successor set even when one engine's derive
    // fails (the healthy engines stay mutually consistent), so pre-batch
    // sums may no longer describe the serving snapshot — the cache must
    // drop them.
    let a = cube(&[16, 8]);
    let backend = router(&a).with_engine(Box::new(RefusesUpdates(NaiveEngine::new(a.clone()))));
    let cache = SemanticCache::new(backend, 16);
    let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    let epoch = cache.epoch();
    assert!(cache.apply_updates(&[(vec![1, 1], 1)]).is_err());
    assert_eq!(cache.epoch(), epoch + 1);
    assert_eq!(cache.stats().entries, 0);
    let out = cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
}

#[test]
fn batches_the_router_rejects_install_nothing_and_keep_entries() {
    // An out-of-bounds index is refused while the batch image is worked
    // out, before any engine derives: no install, no epoch bump, and the
    // cached sums still describe the serving snapshot.
    let a = cube(&[16, 8]);
    let cache = SemanticCache::new(router(&a), 16);
    let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    let epoch = cache.epoch();
    assert!(cache
        .apply_updates(&[(vec![1, 1], 5), (vec![99, 99], 1)])
        .is_err());
    assert_eq!(cache.epoch(), epoch);
    assert_eq!(cache.stats().entries, 1);
    let out = cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    assert_eq!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&a, &region)));
}

#[test]
fn lru_eviction_bounds_the_table() {
    let a = cube(&[32, 16]);
    let cache = SemanticCache::new(router(&a), 2);
    for k in 0..5usize {
        cache.range_sum(&q(&[(k * 4, k * 4 + 3), (0, 15)])).unwrap();
    }
    let stats = cache.stats();
    assert!(stats.entries <= 2, "{stats:?}");
    assert_eq!(stats.insertions, 5);
    assert_eq!(stats.evictions, 3);
}

#[test]
fn installs_bypassing_the_cache_never_serve_stale_sums() {
    let a = cube(&[16, 8]);
    let cell = Arc::new(VersionCell::new(
        Box::new(NaiveEngine::new(a.clone())) as Box<dyn RangeEngine<i64>>
    ));
    let cache = SemanticCache::new(Arc::clone(&cell), 16);
    let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&region)).unwrap();

    // Out-of-band install, not routed through the cache.
    cell.update(&[(vec![0, 0], 12345)]).unwrap();
    let mut shadow = a.clone();
    *shadow.get_mut(&[0, 0]) = 12345;

    let out = cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &region)));
}

#[test]
fn version_cell_backend_supports_the_full_protocol() {
    let a = cube(&[24, 10]);
    let cell = VersionCell::new(Box::new(NaiveEngine::new(a.clone())) as Box<dyn RangeEngine<i64>>);
    let cache = SemanticCache::with_label(cell, 32, "cell-cache");
    let target = Region::from_bounds(&[(1, 22), (1, 8)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&target)).unwrap();
    let out = cache.range_sum(&RangeQuery::from_region(&target)).unwrap();
    assert_eq!(out.value(), Some(&oracle(&a, &target)));
    assert_eq!(out.answered_by, EngineKind::SemanticCache);
    cache.apply_updates(&[(vec![2, 2], -7)]).unwrap();
    let mut shadow = a.clone();
    *shadow.get_mut(&[2, 2]) = -7;
    let out = cache.range_sum(&RangeQuery::from_region(&target)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &target)));
}

#[test]
fn concurrent_installs_never_tear_cached_answers() {
    let a = cube(&[16, 16]);
    let probe = Region::from_bounds(&[(0, 15), (0, 15)]).unwrap();
    let pre = oracle(&a, &probe);
    let mut shadow = a.clone();
    *shadow.get_mut(&[3, 3]) = 7777;
    let post = oracle(&shadow, &probe);

    let cache = Arc::new(SemanticCache::new(router(&a), 32));
    cache.range_sum(&RangeQuery::from_region(&probe)).unwrap();
    // A full box and a sub-box, each cached after its first miss, read
    // while an install lands mid-stream: every answer must match the pre-
    // or post-update oracle exactly — never a mix of snapshots.
    let sub = Region::from_bounds(&[(1, 14), (1, 14)]).unwrap();
    let sub_pre = oracle(&a, &sub);
    let sub_post = oracle(&shadow, &sub);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let sub = sub.clone();
            let probe = probe.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let got = *cache
                        .range_sum(&RangeQuery::from_region(&probe))
                        .unwrap()
                        .value()
                        .unwrap();
                    assert!(got == pre || got == post, "torn full-box read: {got}");
                    let got = *cache
                        .range_sum(&RangeQuery::from_region(&sub))
                        .unwrap()
                        .value()
                        .unwrap();
                    assert!(
                        got == sub_pre || got == sub_post,
                        "torn sub-box read: {got} (pre {sub_pre}, post {sub_post})"
                    );
                }
            });
        }
        cache.apply_updates(&[(vec![3, 3], 7777)]).unwrap();
    });
}

/// One step of the randomised interleaving.
#[derive(Debug, Clone)]
enum Op {
    Query(Vec<(usize, usize)>),
    Update(Vec<(Vec<usize>, i64)>),
}

fn arb_bounds(shape: &'static [usize]) -> impl Strategy<Value = Vec<(usize, usize)>> {
    shape
        .iter()
        .map(|&n| (0..n, 0..n).prop_map(|(a, b)| (a.min(b), a.max(b))))
        .collect::<Vec<_>>()
}

fn arb_op(shape: &'static [usize]) -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is uniform; repeating the query arm
    // weights the mix ~3:1 queries to updates.
    prop_oneof![
        arb_bounds(shape).prop_map(Op::Query),
        arb_bounds(shape).prop_map(Op::Query),
        arb_bounds(shape).prop_map(Op::Query),
        prop::collection::vec(
            (
                shape.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                -100i64..100
            ),
            1..4
        )
        .prop_map(Op::Update),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline equivalence: across a random interleaving of queries
    /// and update installs, every answer the cache produces — exact hit or
    /// fall-through — is bit-identical to the sequential point-wise oracle
    /// on the current snapshot.
    #[test]
    fn cached_answers_match_the_oracle_under_interleaved_installs(
        ops in prop::collection::vec(arb_op(&[12, 10]), 1..40),
        cap in prop_oneof![Just(0usize), Just(4), Just(64)],
    ) {
        let mut shadow = cube(&[12, 10]);
        let cache = SemanticCache::new(
            AdaptiveRouter::new()
                .with_engine(Box::new(
                    CubeIndex::build(shadow.clone(), IndexConfig::default()).unwrap(),
                ))
                .with_engine(Box::new(SumTreeEngine::build(shadow.clone(), 4).unwrap()))
                .with_engine(Box::new(NaiveEngine::new(shadow.clone()))),
            cap,
        );
        for op in &ops {
            match op {
                Op::Query(bounds) => {
                    let region = Region::from_bounds(bounds).unwrap();
                    let out = cache
                        .range_sum(&RangeQuery::from_region(&region))
                        .unwrap();
                    prop_assert_eq!(
                        out.value(),
                        Some(&oracle(&shadow, &region)),
                        "bounds {:?} via {} (cap {})",
                        bounds,
                        out.answered_by,
                        cap
                    );
                }
                Op::Update(batch) => {
                    cache.apply_updates(batch).unwrap();
                    for (idx, v) in batch {
                        *shadow.get_mut(idx) = *v;
                    }
                }
            }
        }
    }
}
