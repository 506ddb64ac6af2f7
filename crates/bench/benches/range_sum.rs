//! Wall-clock confirmation of the range-sum results: the volume sweep of
//! §11 (naive vs prefix vs blocked) and the §8 tree-vs-prefix comparison
//! behind Figure 11 — all backends driven through the [`RangeEngine`]
//! trait, exactly as the adaptive router sees them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::{Region, Shape};
use olap_engine::{CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine, SumTreeEngine};
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

fn to_queries(regions: &[Region]) -> Vec<RangeQuery> {
    regions.iter().map(RangeQuery::from_region).collect()
}

fn volume_sweep(c: &mut Criterion) {
    let a = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 1);
    let engines: Vec<(&str, Box<dyn RangeEngine<i64>>)> = vec![
        ("naive", Box::new(NaiveEngine::new(a.clone()))),
        (
            "prefix_b1",
            Box::new(CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap()),
        ),
        (
            "blocked_b16",
            Box::new(CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(16))).unwrap()),
        ),
    ];
    let mut group = c.benchmark_group("range_sum_volume_sweep");
    group.sample_size(20);
    for side in [8usize, 64, 256] {
        let queries = to_queries(&sided_regions(a.shape(), side, 16, side as u64));
        for (label, engine) in &engines {
            group.bench_with_input(BenchmarkId::new(*label, side), &queries, |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(engine.range_sum(q).unwrap());
                    }
                })
            });
        }
    }
    group.finish();
}

fn fig11_tree_vs_prefix(c: &mut Criterion) {
    let b = 16usize;
    let a = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 2);
    let engines: Vec<(&str, Box<dyn RangeEngine<i64>>)> = vec![
        (
            "blocked_prefix",
            Box::new(CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(b))).unwrap()),
        ),
        (
            "tree_sum",
            Box::new(SumTreeEngine::build(a.clone(), b).unwrap()),
        ),
    ];
    let mut group = c.benchmark_group("fig11_tree_vs_prefix");
    group.sample_size(20);
    for alpha in [2usize, 8, 16] {
        let queries = to_queries(&sided_regions(a.shape(), alpha * b, 16, alpha as u64));
        for (label, engine) in &engines {
            group.bench_with_input(BenchmarkId::new(*label, alpha), &queries, |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(engine.range_sum(q).unwrap());
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, volume_sweep, fig11_tree_vs_prefix);
criterion_main!(benches);
