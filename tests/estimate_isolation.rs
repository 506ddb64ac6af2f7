//! A degraded answer stays an estimate: it never enters a shard's
//! semantic cache and never comes back as exact. The types keep an
//! `Estimate` out of `Routed::Exact` (the `compile_fail` example on
//! `Routed`), but an estimate's value is a plain `V` and an exact outcome
//! can be built from any `V`, so this holds the rule by behaviour: on a
//! cube whose estimates miss the truth, under a budget that forces
//! degradation, every exact answer is the oracle's, on the first read and
//! on the cached repeat, and the caches hold only what exact parts put in.

use olap_cube::array::{DenseArray, QueryBudget, Region, Shape};
use olap_cube::query::{DimSelection, RangeQuery};
use olap_cube::server::{CubeServer, ServeConfig};

/// A rough field, so that anchor interpolation misses most true sums.
fn cube() -> DenseArray<i64> {
    DenseArray::from_fn(Shape::new(&[64, 32]).unwrap(), |i| {
        let h = (i[0] as u64 * 2_654_435_761) ^ (i[1] as u64 * 40_503);
        (h >> 5) as i64 % 1000
    })
}

fn queries() -> Vec<(RangeQuery, Region)> {
    let mut out = Vec::new();
    for k in 0..24usize {
        let (r0, r1) = ((k * 7) % 40, (k * 7) % 40 + 3 + k % 21);
        let (c0, c1) = ((k * 5) % 20, (k * 5) % 20 + 1 + k % 11);
        let q = RangeQuery::new(vec![
            DimSelection::span(r0, r1).unwrap(),
            DimSelection::span(c0, c1).unwrap(),
        ])
        .unwrap();
        out.push((q, Region::from_bounds(&[(r0, r1), (c0, c1)]).unwrap()));
    }
    out
}

#[test]
fn no_degraded_answer_is_cached_or_served_as_exact() {
    let a = cube();
    let server = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            budget: QueryBudget::with_max_accesses(2).degrade(),
            cache_size: 256,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (mut degraded, mut missed_sums, mut exact, mut exact_parts) = (0, 0, 0, 0);
    // The second pass repeats every sum, so a cached estimate would be
    // served from the cache as an exact hit.
    for pass in 0..2 {
        for (q, region) in &queries() {
            let sum = a.fold_region(region, 0, |s, &x| s + x);
            let max = a.fold_region(region, i64::MIN, |m, &x| m.max(x));
            let min = a.fold_region(region, i64::MAX, |m, &x| m.min(x));
            let served = [
                ("sum", server.range_sum(q), sum),
                ("max", server.range_max(q), max),
                ("min", server.range_min(q), min),
            ];
            for (op, answer, truth) in served {
                let what = format!("{op} {region} pass {pass}");
                let answer = answer.unwrap();
                let degraded_parts = answer.estimate.as_ref().map_or(0, |e| e.degraded_shards);
                exact_parts += answer.shards - degraded_parts;
                if answer.is_degraded() {
                    assert!(
                        answer.contains(truth),
                        "{what}: {answer:?} excludes {truth}"
                    );
                    degraded += 1;
                    missed_sums += usize::from(op == "sum" && answer.value != truth);
                } else {
                    assert_eq!(answer.value, truth, "{what}: served as exact");
                    exact += 1;
                }
            }
        }
    }
    assert!(
        degraded > 0 && exact > 0,
        "{degraded} degraded, {exact} exact"
    );
    // Some estimate must miss the truth, or one served as exact would pass.
    assert!(missed_sums > 0, "no estimated sum differed from the oracle");
    // Each cache lookup that hit or inserted was an exact part, of any op.
    let cache = server.cache_stats();
    assert!(
        cache.hits + cache.insertions <= exact_parts as u64,
        "{cache:?} against {exact_parts} exact parts"
    );
}
