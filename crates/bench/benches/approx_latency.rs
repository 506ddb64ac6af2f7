//! What does a degraded answer cost relative to an exact one? The
//! degradation tier only earns its place as the last line of defence if
//! answering from the anchor grid alone is dramatically cheaper than the
//! exact path it replaces — otherwise a budget-tripped query may as well
//! have run to completion.
//!
//! Two engines over the same 512×512 cube: the exact blocked prefix-sum
//! index (`PrefixChoice::Blocked(32)`, the router's usual workhorse) and
//! the [`ApproxEngine`] that answers from block anchors plus cached
//! per-block extrema, at the matching anchor pitch `b = 32`. The exact
//! path's boundary work grows linearly with the query side (partial
//! strips of up to `b` cells per boundary face), while the anchor path
//! decomposes any range into at most `3^d` superblock parts of `2^d`
//! anchor reads plus a contracted extrema fold — near-constant in the
//! side. That asymmetry is the whole case for degrading, so CI gates it:
//! the within-dump ratio `approx_latency/approx/448` /
//! `approx_latency/exact/448` must stay at or below 0.1 (`bench_guard
//! --ratio`, machine-speed immune), and the geometric mean is held
//! against `results/approx_latency_baseline.json` with the usual 10%
//! tolerance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::{Region, Shape};
use olap_engine::{ApproxEngine, CubeIndex, IndexConfig, PrefixChoice};
use olap_query::RangeQuery;
use olap_workload::{sided_regions, uniform_cube};
use std::hint::black_box;

fn approx_latency(c: &mut Criterion) {
    let a = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 17);
    let exact = CubeIndex::build(
        a.clone(),
        IndexConfig {
            prefix: PrefixChoice::Blocked(32),
            max_tree_fanout: None,
            min_tree_fanout: None,
            sum_tree_fanout: None,
            ..IndexConfig::default()
        },
    )
    .unwrap();
    let approx = ApproxEngine::build(a.clone(), 32).unwrap();

    let mut group = c.benchmark_group("approx_latency");
    group.sample_size(20);
    for side in [16usize, 448] {
        let regions: Vec<Region> = sided_regions(a.shape(), side, 16, side as u64);
        let queries: Vec<RangeQuery> = regions.iter().map(RangeQuery::from_region).collect();
        group.bench_with_input(BenchmarkId::new("exact", side), &regions, |bch, rs| {
            bch.iter(|| {
                for r in rs {
                    black_box(exact.range_sum(r).unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("approx", side), &queries, |bch, qs| {
            bch.iter(|| {
                for q in qs {
                    black_box(approx.estimate_sum(q).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, approx_latency);
criterion_main!(benches);
