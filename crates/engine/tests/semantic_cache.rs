//! Behavioural and equivalence tests for [`SemanticCache`]: exact hits of
//! sums, maxes and mins, fall-through for every other region, admission
//! on a repeat once a table is full, per-cell invalidation across
//! snapshot installs, and the headline guarantee — cached answers
//! bit-identical to direct execution under random interleaved update
//! installs.

use olap_array::{BudgetMeter, DenseArray, Region, Shape};
use olap_engine::{
    AdaptiveRouter, CancellationToken, CubeIndex, Derived, EngineError, EngineOp, IndexConfig,
    NaiveEngine, QueryBudget, RangeEngine, SemanticCache, SumTreeEngine, LOGGED,
};
use olap_query::{Answer, EngineKind, QueryOutcome, RangeQuery};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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
fn max_and_min_hits_equal_the_router_and_drop_only_with_their_region() {
    let a = cube(&[16, 8]);
    let router = Arc::new(router(&a));
    let cache = SemanticCache::new(Arc::clone(&router), 16);
    let region = Region::from_bounds(&[(2, 11), (1, 6)]).unwrap();
    let query = RangeQuery::from_region(&region);
    // Every cached answer, its argmax or argmin included, must be the
    // router's own answer on the same snapshot, bit for bit.
    let check = |cached: bool| {
        for op in [EngineOp::Max, EngineOp::Min] {
            let out = match op {
                EngineOp::Max => cache.range_max(&query),
                _ => cache.range_min(&query),
            }
            .unwrap();
            assert_eq!(out.answered_by == EngineKind::SemanticCache, cached, "{op}");
            assert_eq!(out.answer, router.read(&region, op).unwrap().answer, "{op}");
        }
    };
    check(false);
    check(true);
    // The sum fills the same entry: one entry per region.
    cache.range_sum(&query).unwrap();
    assert_eq!(cache.stats().entries, 1);

    // A batch that touches no cell of the region keeps every answer…
    cache.apply_updates(&[(vec![15, 7], 9999)]).unwrap();
    check(true);
    // …and one that touches a cell drops them all.
    cache.apply_updates(&[(vec![5, 3], 9999)]).unwrap();
    check(false);
    check(true);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (6, 5), "{stats:?}");
    assert_eq!((stats.insertions, stats.invalidations), (2, 1), "{stats:?}");
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

/// Answers like the naive scan; every derive fails.
struct RefusesUpdates(NaiveEngine<i64>);

impl RangeEngine<i64> for RefusesUpdates {
    fn label(&self) -> String {
        "refuses-updates".to_string()
    }
    fn shape(&self) -> &Shape {
        self.0.shape()
    }
    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        self.0.cost(region, op)
    }
    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<i64>, EngineError> {
        self.0.read(region, op, meter)
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
    // Five regions, each read twice in a row, through a table of two.
    // The first two go in on their first miss, while there is room, and
    // their repeats hit. Each later region misses twice: its first miss
    // only records its fingerprint, its second admits it and evicts the
    // least recently used entry.
    let a = cube(&[32, 16]);
    let cache = SemanticCache::new(router(&a), 2);
    for k in 0..5usize {
        for _ in 0..2 {
            cache.range_sum(&q(&[(k * 4, k * 4 + 3), (0, 15)])).unwrap();
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 2, "{stats:?}");
    assert_eq!((stats.hits, stats.misses), (2, 8), "{stats:?}");
    assert_eq!((stats.insertions, stats.evictions), (5, 3), "{stats:?}");
    // The last two admitted are the two held.
    for k in 3..5usize {
        let out = cache.range_sum(&q(&[(k * 4, k * 4 + 3), (0, 15)])).unwrap();
        assert_eq!(out.answered_by, EngineKind::SemanticCache, "{k}");
    }
}

#[test]
fn a_full_table_stores_nothing_from_a_stream_that_never_repeats_in_reach() {
    // Sixteen times the capacity in distinct regions, cycled three times
    // (sums, then maxes, then mins) through a table filled beforehand.
    // Between two misses of one region every other region of the cycle
    // misses, so its recent-miss slot always names another region by the
    // time it comes round again: nothing is admitted and nothing evicted.
    // Fingerprints are deterministic, so the counts are exact.
    const CAP: usize = 8;
    let a = cube(&[64, 16]);
    let cache = SemanticCache::new(router(&a), CAP);
    for k in 0..CAP {
        cache.range_sum(&q(&[(k, k), (0, 15)])).unwrap();
    }
    let cycle: Vec<Region> = (0..16 * CAP)
        .map(|k| Region::from_bounds(&[(k % 64, 63), (k / 64, 15)]).unwrap())
        .collect();
    for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
        for r in &cycle {
            let out = cache.read(r, op).unwrap();
            assert_ne!(out.answered_by, EngineKind::SemanticCache, "{op} {r}");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.insertions, CAP as u64, "{stats:?}");
    assert_eq!(stats.evictions, 0, "{stats:?}");
    assert_eq!(stats.entries, CAP, "{stats:?}");
    // Each op's first 64 reads of the cycle are lookups, all missing; from
    // then on the op is cold and one read in 64 looks up: the 65th of the
    // 128 does, the other 63 go straight to the router, counted nowhere.
    assert_eq!((stats.hits, stats.misses), (0, (CAP + 3 * 65) as u64));

    // A region that then repeats is admitted on the second sampled miss,
    // which ends the cold run: every later read of it hits.
    let hot = Region::from_bounds(&[(3, 60), (2, 13)]).unwrap();
    let answered: Vec<EngineKind> = (0..256)
        .map(|_| cache.read(&hot, EngineOp::Max).unwrap().answered_by)
        .collect();
    let first_hit = answered
        .iter()
        .position(|&by| by == EngineKind::SemanticCache)
        .unwrap();
    assert!(first_hit <= 2 * 64, "first hit at read {first_hit}");
    assert!(answered[first_hit..]
        .iter()
        .all(|&by| by == EngineKind::SemanticCache));
}

#[test]
fn installs_bypassing_the_cache_never_serve_stale_sums() {
    let a = cube(&[16, 8]);
    let router = Arc::new(naive_router(&a));
    let cache = SemanticCache::new(Arc::clone(&router), 16);
    let region = Region::from_bounds(&[(0, 7), (0, 7)]).unwrap();
    cache.range_sum(&RangeQuery::from_region(&region)).unwrap();

    // Out-of-band install, not routed through the cache.
    router.apply_updates(&[(vec![0, 0], 12345)]).unwrap();
    let mut shadow = a.clone();
    *shadow.get_mut(&[0, 0]) = 12345;

    let out = cache.range_sum(&RangeQuery::from_region(&region)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &region)));
}

#[test]
fn budget_and_token_installs_on_the_router_keep_entries_and_inserts() {
    // Neither install changes a cell: every entry stored before one keeps
    // answering after it, and new regions still go in.
    let a = cube(&[16, 8]);
    let router = Arc::new(router(&a));
    let cache = SemanticCache::new(Arc::clone(&router), 16);
    let regions: Vec<Region> = [[(0, 7), (0, 7)], [(8, 15), (0, 7)], [(2, 5), (1, 6)]]
        .iter()
        .map(|b| Region::from_bounds(b).unwrap())
        .collect();
    let read = |r: &Region| {
        let out = cache.range_sum(&RangeQuery::from_region(r)).unwrap();
        assert_eq!(out.value(), Some(&oracle(&a, r)), "{r}");
        out.answered_by
    };
    assert_ne!(read(&regions[0]), EngineKind::SemanticCache);
    let epoch = cache.epoch();

    router.set_budget(QueryBudget::with_max_accesses(1 << 20));
    assert_eq!(cache.epoch(), epoch + 1);
    assert_eq!(read(&regions[0]), EngineKind::SemanticCache);
    assert_ne!(read(&regions[1]), EngineKind::SemanticCache);
    assert_eq!(read(&regions[1]), EngineKind::SemanticCache);

    router.set_cancellation_token(Some(CancellationToken::new()));
    assert_eq!(cache.epoch(), epoch + 2);
    for r in &regions[..2] {
        assert_eq!(read(r), EngineKind::SemanticCache, "{r}");
    }
    assert_ne!(read(&regions[2]), EngineKind::SemanticCache);
    assert_eq!(read(&regions[2]), EngineKind::SemanticCache);

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (5, 3), "{stats:?}");
    assert_eq!((stats.insertions, stats.invalidations), (3, 0), "{stats:?}");
    assert_eq!(stats.entries, 3, "{stats:?}");
}

/// A cache over a router the test also writes to directly.
type SharedCache = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

/// A router over `a`, a cache over it, and two regions read into the
/// cache: `touched`, which holds row 0 of `a`, and `untouched`, which
/// holds none of it.
fn cached_pair(a: &DenseArray<i64>) -> (Arc<AdaptiveRouter<i64>>, SharedCache, Region, Region) {
    let router = Arc::new(router(a));
    let cache = SemanticCache::new(Arc::clone(&router), 16);
    let touched = Region::from_bounds(&[(0, 3), (0, 7)]).unwrap();
    let untouched = Region::from_bounds(&[(8, 15), (0, 7)]).unwrap();
    for r in [&touched, &untouched] {
        cache.range_sum(&RangeQuery::from_region(r)).unwrap();
    }
    (router, cache, touched, untouched)
}

#[test]
fn a_table_at_most_logged_installs_behind_keeps_every_untouched_entry() {
    // Every batch sets a cell of row 0, and every one but the first goes
    // straight to the router, past the cache.
    let a = cube(&[16, 8]);
    let (router, cache, touched, untouched) = cached_pair(&a);
    let mut shadow = a.clone();
    for k in 0..LOGGED {
        let batch = [(vec![0, k % 8], 100 + k as i64)];
        if k == 0 {
            cache.apply_updates(&batch).unwrap();
        } else {
            router.apply_updates(&batch).unwrap();
        }
        *shadow.get_mut(&[0, k % 8]) = 100 + k as i64;
    }
    let out = cache
        .range_sum(&RangeQuery::from_region(&untouched))
        .unwrap();
    assert_eq!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &untouched)));
    let out = cache.range_sum(&RangeQuery::from_region(&touched)).unwrap();
    assert_ne!(out.answered_by, EngineKind::SemanticCache);
    assert_eq!(out.value(), Some(&oracle(&shadow, &touched)));
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 1, "{stats:?}");
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 3, 2),
        "{stats:?}"
    );
}

#[test]
fn a_table_more_than_logged_installs_behind_drops_every_entry() {
    let a = cube(&[16, 8]);
    let (router, cache, touched, untouched) = cached_pair(&a);
    let mut shadow = a.clone();
    for k in 0..=LOGGED {
        let batch = [(vec![0, k % 8], 100 + k as i64)];
        router.apply_updates(&batch).unwrap();
        *shadow.get_mut(&[0, k % 8]) = 100 + k as i64;
    }
    for r in [&untouched, &touched] {
        let out = cache.range_sum(&RangeQuery::from_region(r)).unwrap();
        assert_ne!(out.answered_by, EngineKind::SemanticCache, "{r}");
        assert_eq!(out.value(), Some(&oracle(&shadow, r)), "{r}");
    }
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 2, "{stats:?}");
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 4, 2),
        "{stats:?}"
    );
}

#[test]
fn a_concurrent_reader_never_copies_a_peer_entry_from_before_a_batch() {
    // Thread A caches `region` in its own stripe's table and stays alive,
    // so thread B, started after a batch that touches the region, holds
    // another stripe and finds A's pre-batch entry as a peer's.
    let a = cube(&[16, 8]);
    let cache = SemanticCache::new(router(&a), 16);
    let region = Region::from_bounds(&[(2, 9), (1, 6)]).unwrap();
    let mut shadow = a.clone();
    *shadow.get_mut(&[3, 3]) = 4242;
    let (read_it, done) = (Barrier::new(2), Barrier::new(2));
    let (first, second) = std::thread::scope(|scope| {
        let reader_a = scope.spawn(|| {
            let first = cache.read(&region, EngineOp::Sum).unwrap();
            read_it.wait();
            done.wait();
            first
        });
        read_it.wait();
        cache.apply_updates(&[(vec![3, 3], 4242)]).unwrap();
        let second = scope
            .spawn(|| cache.read(&region, EngineOp::Sum).unwrap())
            .join()
            .unwrap();
        done.wait();
        (reader_a.join().unwrap(), second)
    });
    assert_ne!(first.answered_by, EngineKind::SemanticCache);
    assert_eq!(first.value(), Some(&oracle(&a, &region)));
    assert_ne!(second.answered_by, EngineKind::SemanticCache);
    assert_eq!(second.value(), Some(&oracle(&shadow, &region)));
}

#[test]
fn a_concurrent_reader_never_copies_a_peer_max_from_before_a_batch() {
    // The max twin of the test above: thread A's table holds the
    // region's pre-batch max, and thread B, started after a batch that
    // raises one of its cells above every other, must not copy it.
    let a = cube(&[16, 8]);
    let cache = SemanticCache::new(router(&a), 16);
    let region = Region::from_bounds(&[(2, 9), (1, 6)]).unwrap();
    let mut shadow = a.clone();
    *shadow.get_mut(&[3, 3]) = 4242;
    let (read_it, done) = (Barrier::new(2), Barrier::new(2));
    let (first, second) = std::thread::scope(|scope| {
        let reader_a = scope.spawn(|| {
            let first = cache.read(&region, EngineOp::Max).unwrap();
            read_it.wait();
            done.wait();
            first
        });
        read_it.wait();
        cache.apply_updates(&[(vec![3, 3], 4242)]).unwrap();
        let second = scope
            .spawn(|| cache.read(&region, EngineOp::Max).unwrap())
            .join()
            .unwrap();
        done.wait();
        (reader_a.join().unwrap(), second)
    });
    let direct = |cube: &DenseArray<i64>| router(cube).read(&region, EngineOp::Max).unwrap();
    assert_ne!(first.answered_by, EngineKind::SemanticCache);
    assert_eq!(first.answer, direct(&a).answer);
    assert_ne!(second.answered_by, EngineKind::SemanticCache);
    assert_eq!(second.answer, direct(&shadow).answer);
    assert_eq!(second.answer.value(), Some(&4242));
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

#[test]
fn a_failed_backend_read_counts_as_a_miss() {
    // A zero deadline fails every routed read before any kernel work.
    let a = cube(&[16, 8]);
    let backend = router(&a).with_budget(QueryBudget::with_deadline(Duration::ZERO));
    let cache = SemanticCache::new(backend, 16);
    let err = cache.range_sum(&q(&[(0, 7), (0, 7)])).unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.lookups(), 1, "{stats:?}");
    assert_eq!((stats.hits, stats.insertions, stats.entries), (0, 0, 0));
}

#[test]
fn concurrent_readers_share_entries_across_stripes_while_batches_install() {
    // Batch k sets cell [0, 0] to 1000·k, so the hot regions, which all
    // hold it, have one sum per installed batch.
    const BATCHES: i64 = 12;
    let a = cube(&[16, 16]);
    let cache = SemanticCache::new(router(&a), 64);
    let hot: Vec<Region> = [[(0, 15), (0, 15)], [(0, 3), (0, 9)], [(0, 0), (0, 11)]]
        .iter()
        .map(|b| Region::from_bounds(b).unwrap())
        .collect();
    // `oracles[k][j]`: region j's sum after k batches.
    let oracles: Vec<Vec<i64>> = (0..=BATCHES)
        .map(|k| {
            let mut shadow = a.clone();
            if k > 0 {
                *shadow.get_mut(&[0, 0]) = 1000 * k;
            }
            hot.iter().map(|r| oracle(&shadow, r)).collect()
        })
        .collect();
    let epoch0 = cache.epoch();
    let lookups = AtomicU64::new(0);
    // Every atomic here is Relaxed: a tally and a stop flag, read after
    // or ordered by the scopes' joins.
    let read = |j: usize| {
        lookups.fetch_add(1, Ordering::Relaxed);
        cache.read(&hot[j], EngineOp::Sum).unwrap()
    };

    // A region only one live thread has read is a hit on another
    // thread's first read: a copy from the first thread's table.
    let only = Region::from_bounds(&[(5, 9), (2, 7)]).unwrap();
    let (read_it, checked) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            lookups.fetch_add(1, Ordering::Relaxed);
            let first = cache.read(&only, EngineOp::Sum).unwrap();
            assert_ne!(first.answered_by, EngineKind::SemanticCache);
            read_it.wait();
            // Stay alive, so this thread's stripe is not handed on.
            checked.wait();
        });
        read_it.wait();
        lookups.fetch_add(1, Ordering::Relaxed);
        let second = cache.read(&only, EngineOp::Sum).unwrap();
        assert_eq!(second.answered_by, EngineKind::SemanticCache);
        assert_eq!(second.value(), Some(&oracle(&a, &only)));
        checked.wait();
    });

    // Two readers repeat the hot set while batches install through the
    // cache. Each answer is the oracle of a state between the epochs read
    // before and after it: the pre- or the post-batch sum.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (read, oracles, done, cache) = (&read, &oracles, &done, &cache);
            scope.spawn(move || {
                let mut rounds = 0;
                while rounds < 50 || !done.load(Ordering::Relaxed) {
                    for j in 0..3 {
                        let j = (j + t) % 3;
                        let before = cache.epoch() - epoch0;
                        let got = *read(j).value().unwrap();
                        let after = cache.epoch() - epoch0;
                        assert!(
                            (before..=after).any(|k| oracles[k as usize][j] == got),
                            "region {j}: {got} is no state's sum in {before}..={after}"
                        );
                    }
                    rounds += 1;
                }
            });
        }
        for k in 1..=BATCHES {
            cache.apply_updates(&[(vec![0, 0], 1000 * k)]).unwrap();
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });
    let stats = cache.stats();
    let issued = lookups.load(Ordering::Relaxed);
    assert_eq!(stats.hits + stats.misses, issued, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
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
    /// fall-through, sum, max or min — is bit-identical to the sequential
    /// point-wise oracle on the current snapshot.
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
                    // An extremum, hit or not, is the oracle's value at a
                    // cell of the region that holds it.
                    for (op, pick) in [(EngineOp::Max, i64::max as fn(i64, i64) -> i64), (EngineOp::Min, i64::min)] {
                        let out = cache.read(&region, op).unwrap();
                        let want = shadow.fold_region(&region, None, |acc: Option<i64>, &v| {
                            Some(acc.map_or(v, |acc| pick(acc, v)))
                        });
                        let Answer::Extremum { at, value } = &out.answer else {
                            panic!("{op} over {region}: {:?}", out.answer);
                        };
                        prop_assert_eq!(Some(*value), want, "{} over {} via {}", op, region, out.answered_by);
                        prop_assert!(region.contains(at) && shadow.get(at) == value, "{} at {:?}", op, at);
                    }
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
