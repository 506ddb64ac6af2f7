//! What does sharded serving cost per query, and how fast do snapshot
//! installs turn over? Two prices are pinned:
//!
//! - **fan-out**: a `range_sum` through the `CubeServer` front door —
//!   region decomposition across shard slabs, each overlapping shard's
//!   part answered in turn on the calling thread, partials folded as they
//!   arrive — measured at one shard (pure dispatch overhead over a plain
//!   router) and at four (real fan-out);
//! - **install**: a full derive+install cycle for a small single-shard
//!   update batch — the copy-on-write successor derivation, the epoch
//!   registration, and the pointer swap that publishes it.
//!
//! CI gates the geometric mean against
//! `results/serve_throughput_baseline.json` with the same 10% tolerance
//! as the router- and failover-overhead gates.
//!
//! Two more prices isolate the tracing layer itself (no ambient
//! telemetry scope, so the metrics instrumentation — priced by its own
//! overhead benches — stays out of the delta):
//!
//! - `traced_range_sum/4`: every query traced — root span, one
//!   `shard_exec` per part with its cache/router/kernel spans, merge.
//!   Informational; the honest price of a full per-query span tree on a
//!   microsecond-scale dispatch-bound query.
//! - `sampled_trace_range_sum/4`: the production configuration, a 1-in-8
//!   head sample (`enable_tracing_sampled`). CI gates this at ≤ 1.05×
//!   `range_sum/4` within the same dump (`bench_guard --ratio`), pinning
//!   the amortised cost of always-on tracing in serving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olap_array::Shape;
use olap_query::RangeQuery;
use olap_server::{CubeServer, ServeConfig};
use olap_workload::{uniform_cube, uniform_regions};
use std::hint::black_box;

fn serve_throughput(c: &mut Criterion) {
    let a = uniform_cube(Shape::new(&[96, 96]).unwrap(), 1000, 17);
    let queries: Vec<RangeQuery> = uniform_regions(a.shape(), 16, 23)
        .iter()
        .map(RangeQuery::from_region)
        .collect();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);
    for shards in [1usize, 4] {
        let srv = CubeServer::build(
            &a,
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("range_sum", shards),
            &queries,
            |bch, qs| {
                bch.iter(|| {
                    for q in qs {
                        black_box(srv.range_sum(q).unwrap());
                    }
                })
            },
        );
    }

    // The same four-shard fan-out with tracing live: every query at
    // sample 1 (informational), a 1-in-8 head sample at production
    // settings (gated against `range_sum/4` at 1.05× by
    // bench_guard --ratio). No telemetry scope: the delta is the tracing
    // layer alone.
    for (label, every) in [("traced_range_sum", 1), ("sampled_trace_range_sum", 8)] {
        use std::sync::Arc;
        let mut srv = CubeServer::build(
            &a,
            ServeConfig {
                shards: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        srv.enable_tracing_sampled(Arc::new(olap_telemetry::TraceSink::new()), every);
        group.bench_with_input(BenchmarkId::new(label, 4), &queries, |bch, qs| {
            bch.iter(|| {
                for q in qs {
                    black_box(srv.range_sum(q).unwrap());
                }
            })
        });
    }

    // Install turnover: every iteration derives and publishes one
    // successor snapshot on the shard owning row 0.
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let batch: Vec<(Vec<usize>, i64)> = (0..4).map(|i| (vec![0, i * 7], i as i64)).collect();
    group.bench_function(BenchmarkId::new("install", 4), |bch| {
        bch.iter(|| black_box(srv.apply_updates(&batch).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, serve_throughput);
criterion_main!(benches);
