//! Construction costs: the §3.3 d-phase prefix-sum build (dN steps), the
//! §4.3 blocked build (N + dN/b^d), and the tree builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::Shape;
use olap_prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_range_max::NaturalMaxTree;
use olap_tree_sum::SumTreeCube;
use olap_workload::uniform_cube;
use std::hint::black_box;

fn builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for n in [128usize, 256] {
        let a = uniform_cube(Shape::new(&[n, n]).unwrap(), 1000, 1);
        group.bench_with_input(BenchmarkId::new("prefix_sum_b1", n), &a, |b, a| {
            b.iter(|| black_box(PrefixSumCube::build(a)))
        });
        group.bench_with_input(BenchmarkId::new("blocked_b16", n), &a, |b, a| {
            b.iter(|| black_box(BlockedPrefixCube::build(a, 16).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("max_tree_b4", n), &a, |b, a| {
            b.iter(|| black_box(NaturalMaxTree::for_values(a, 4).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("sum_tree_b4", n), &a, |b, a| {
            b.iter(|| black_box(SumTreeCube::build(a, 4).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, builds);
criterion_main!(benches);
