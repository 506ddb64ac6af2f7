//! What does adaptive routing cost per query? The router adds an
//! `estimate()` pass over every candidate plus one EWMA update on top of
//! the chosen engine's own work; this bench pins that overhead against
//! calling the winning engine directly, for a cheap query (where dispatch
//! overhead is proportionally worst) and an expensive one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::Shape;
use olap_engine::{
    AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine, SumTreeEngine,
};
use olap_query::RangeQuery;
use olap_workload::{sided_regions, uniform_cube};
use std::hint::black_box;

fn index_config(prefix: PrefixChoice) -> IndexConfig {
    IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
        sum_tree_fanout: None,
        ..IndexConfig::default()
    }
}

fn router_overhead(c: &mut Criterion) {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 13);
    let direct: Box<dyn RangeEngine<i64>> =
        Box::new(CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap());
    let router: AdaptiveRouter<i64> = AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap(),
        ))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(16))).unwrap(),
        ))
        .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()));

    let mut group = c.benchmark_group("router_overhead");
    group.sample_size(20);
    for side in [4usize, 128] {
        let queries: Vec<RangeQuery> = sided_regions(a.shape(), side, 16, side as u64)
            .iter()
            .map(RangeQuery::from_region)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("direct_prefix", side),
            &queries,
            |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(direct.range_sum(q).unwrap());
                    }
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("routed", side), &queries, |bch, qs| {
            bch.iter(|| {
                for q in qs {
                    black_box(router.range_sum(q).unwrap());
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("routed_explain", side),
            &queries,
            |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(router.explain(q).unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, router_overhead);
criterion_main!(benches);
