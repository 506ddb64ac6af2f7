//! What does the fault-tolerance layer cost per query? Three prices are
//! pinned separately, over the same router and workload as the
//! `router_overhead` bench:
//!
//! - **armed budget**: every kernel charges a shared [`BudgetMeter`]
//!   (atomic adds plus periodic deadline checks) instead of running
//!   unmetered — the overhead of *having* a deadline and an access cap
//!   that never fire,
//! - **containment**: even the fault-free routed path now runs inside
//!   `catch_unwind` with health bookkeeping per dispatch,
//! - **failover**: a first-ranked engine that fails every call — the
//!   breaker quarantines it, so the steady state is per-query breaker
//!   bookkeeping plus a failed probe and retry every cooldown window.
//!
//! CI gates the geometric mean against `results/failover_overhead_baseline.json`
//! with the same 10% tolerance as the router-overhead gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::Shape;
use olap_engine::{
    AdaptiveRouter, CubeIndex, FaultPlan, FaultyEngine, IndexConfig, NaiveEngine, PrefixChoice,
    QueryBudget, SumTreeEngine,
};
use olap_query::RangeQuery;
use olap_workload::{sided_regions, uniform_cube};
use std::hint::black_box;
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

fn router(a: &olap_array::DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap(),
        ))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(16))).unwrap(),
        ))
        .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()))
}

fn failover_overhead(c: &mut Criterion) {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 13);
    let unbudgeted = router(&a);
    // A generous budget that never fires: the meter is armed (every kernel
    // charges it and checks the deadline) but no query comes near the cap.
    let budgeted = router(&a).with_budget(
        QueryBudget::unlimited()
            .deadline(Duration::from_secs(3600))
            .max_accesses(u64::MAX / 2),
    );
    // A first-ranked engine that fails every single call: the breaker
    // quarantines it after the threshold, so the steady state measures
    // admissibility bookkeeping plus a failed half-open probe (one
    // contained fault + one failover) every cooldown window.
    let failing = AdaptiveRouter::new()
        .with_engine(Box::new(FaultyEngine::new(
            Box::new(NaiveEngine::new(a.clone())),
            FaultPlan::seeded(7).errors(1000).lie_cheapest(),
        )))
        .with_engine(Box::new(
            CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap(),
        ))
        .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()));

    let mut group = c.benchmark_group("failover_overhead");
    group.sample_size(20);
    for side in [4usize, 128] {
        let queries: Vec<RangeQuery> = sided_regions(a.shape(), side, 16, side as u64)
            .iter()
            .map(RangeQuery::from_region)
            .collect();
        group.bench_with_input(BenchmarkId::new("routed", side), &queries, |bch, qs| {
            bch.iter(|| {
                for q in qs {
                    black_box(unbudgeted.range_sum(q).unwrap());
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("routed_budgeted", side),
            &queries,
            |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(budgeted.range_sum(q).unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("routed_failover", side),
            &queries,
            |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(failing.range_sum(q).unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, failover_overhead);
criterion_main!(benches);
