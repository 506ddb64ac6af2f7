//! Cost contracts in the paper's own unit: §8 measures every algorithm
//! by **elements accessed**, and the properties that make the
//! degradation tier, the semantic cache and an armed budget worth having
//! are statements about that count — exact, seed-determined, and the same
//! on every machine. (Wall-clock for the same layers is the perf ledger's
//! `engine.cache.*` and `engine.router.*` rungs.)

use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, ApproxEngine, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, QueryBudget,
    SemanticCache, SumTreeEngine,
};
use olap_cube::query::{Answer, RangeQuery};
use olap_cube::workload::{sided_regions, uniform_cube, uniform_regions, zipf_regions};
use std::time::Duration;

fn index_config(prefix: PrefixChoice) -> IndexConfig {
    IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
        sum_tree_fanout: None,
        ..IndexConfig::default()
    }
}

/// The backend the cache is judged over deliberately has no prefix-sum
/// structure: a healthy §3 index answers any sum in `2^d` accesses, which
/// outprices every cache assembly. Tree + naive is the degraded-shard mix
/// where semantic caching earns accesses back.
fn tree_router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new()
        .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()))
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
}

/// Runs `queries` through a cache of `capacity` over a fresh
/// [`tree_router`]; returns the answers, the total accesses and the hit
/// rate.
fn run_cached(
    a: &DenseArray<i64>,
    queries: &[RangeQuery],
    capacity: usize,
) -> (Vec<Answer<i64>>, u64, f64) {
    let cache = SemanticCache::new(tree_router(a), capacity);
    let mut answers = Vec::with_capacity(queries.len());
    let mut cost = 0u64;
    for q in queries {
        let outcome = cache.range_sum(q).unwrap();
        cost += outcome.cost();
        answers.push(outcome.answer);
    }
    (answers, cost, cache.stats().hit_rate())
}

fn queries(regions: &[Region]) -> Vec<RangeQuery> {
    regions.iter().map(RangeQuery::from_region).collect()
}

/// A degraded answer only earns its place if answering from the anchor
/// grid is dramatically cheaper than the exact path it replaces: the
/// exact blocked path's boundary work grows with the query side, the
/// anchor path reads at most `3^d` superblocks' anchors and extrema.
#[test]
fn approx_tier_costs_a_tenth_of_exact_and_brackets_the_oracle() {
    let a = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 17);
    let exact = CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(32))).unwrap();
    let approx = ApproxEngine::build(a.clone(), 32).unwrap();
    for side in [16usize, 448] {
        let (mut exact_cost, mut approx_cost) = (0u64, 0u64);
        for region in sided_regions(a.shape(), side, 16, side as u64) {
            let oracle = a.fold_region(&region, 0i64, |acc, &x| acc + x);
            let (sum, stats) = exact.range_sum(&region).unwrap();
            assert_eq!(sum, oracle);
            exact_cost += stats.total_accesses();
            let (est, stats) = approx
                .estimate_sum(&RangeQuery::from_region(&region))
                .unwrap();
            assert!(
                est.lower <= oracle && oracle <= est.upper,
                "side {side}: [{}, {}] excludes {oracle}",
                est.lower,
                est.upper
            );
            approx_cost += stats.total_accesses();
        }
        assert!(
            approx_cost * 10 <= exact_cost,
            "side {side}: approx {approx_cost} vs exact {exact_cost} accesses"
        );
    }
}

/// The cache's reason to exist: on a Zipf-skewed repeat-heavy stream most
/// lookups hit, and the stream costs under half the accesses of the same
/// router with the cache switched off.
#[test]
fn zipf_stream_hits_the_cache_and_halves_the_accesses() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 17);
    let zipf = queries(&zipf_regions(a.shape(), 256, 16, 1.1, 23));
    let (cached_answers, cached_cost, hit_rate) = run_cached(&a, &zipf, 256);
    let (uncached_answers, uncached_cost, _) = run_cached(&a, &zipf, 0);
    assert_eq!(cached_answers, uncached_answers);
    assert!(hit_rate >= 0.6, "hit rate fell to {hit_rate:.3}");
    assert!(
        cached_cost * 2 <= uncached_cost,
        "cached {cached_cost} vs uncached {uncached_cost} accesses"
    );
}

/// The cache's worst case: 4× more distinct regions than it can hold, so
/// ~every lookup misses, inserts and evicts. It may never cost accesses.
/// (1 024 regions is ~2.5 s in the debug profile; the relation holds
/// unchanged at 4 096.)
#[test]
fn zero_locality_stream_costs_no_more_cached_than_uncached() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 17);
    let cold = queries(&uniform_regions(a.shape(), 1024, 29));
    let (cached_answers, cached_cost, _) = run_cached(&a, &cold, 256);
    let (uncached_answers, uncached_cost, _) = run_cached(&a, &cold, 0);
    assert_eq!(cached_answers, uncached_answers);
    assert!(
        cached_cost <= uncached_cost,
        "cached {cached_cost} vs uncached {uncached_cost} accesses"
    );
}

/// Having a deadline and an access cap that never fire changes nothing
/// the paper counts: every kernel charges the meter, and the route, the
/// answer and the accesses stay those of the unbudgeted router.
#[test]
fn armed_budget_that_never_fires_changes_neither_answer_nor_cost() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 13);
    let router = || {
        AdaptiveRouter::new()
            .with_engine(Box::new(NaiveEngine::new(a.clone())))
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap(),
            ))
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(16))).unwrap(),
            ))
            .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()))
    };
    let unbudgeted = router();
    let budgeted = router().with_budget(
        QueryBudget::unlimited()
            .deadline(Duration::from_secs(60))
            .max_accesses(u64::MAX),
    );
    for side in [4usize, 128] {
        for q in queries(&sided_regions(a.shape(), side, 16, side as u64)) {
            let plain = unbudgeted.range_sum(&q).unwrap();
            let armed = budgeted.range_sum(&q).unwrap();
            assert_eq!(armed.answer, plain.answer);
            assert_eq!(armed.cost(), plain.cost(), "side {side}");
        }
    }
}
