//! Acceptance: end-to-end query traces assemble into correctly nested
//! span trees whose stage durations account for the query's wall time.
//!
//! The shape under test (see `olap_telemetry::trace` module docs):
//!
//! ```text
//! serve_query
//! ├─ shard_exec      (per overlapping shard, in shard order)
//! │  ├─ cache_lookup
//! │  └─ router_dispatch
//! │     └─ kernel_exec
//! └─ merge
//! ```
//!
//! Every span is recorded on the thread that called the server.

use olap_array::{Region, Shape};
use olap_query::RangeQuery;
use olap_server::{CubeServer, ServeConfig};
use olap_telemetry::{MetricValue, SpanTree, Telemetry, TraceSink};
use olap_workload::{uniform_cube, uniform_regions};
use std::sync::Arc;
use std::time::Duration;

fn traced_server(cube_seed: u64, shards: usize) -> (CubeServer, Arc<TraceSink>) {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, cube_seed);
    let mut srv = CubeServer::build(
        &a,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let sink = Arc::new(TraceSink::new());
    srv.enable_tracing(Arc::clone(&sink));
    (srv, sink)
}

/// Every span in the tree was recorded on thread `tid`.
fn assert_on_thread(tree: &SpanTree, tid: u64) {
    assert_eq!(
        tree.record.tid,
        tid,
        "{}:\n{}",
        tree.record.name,
        tree.render()
    );
    for c in &tree.children {
        assert_on_thread(c, tid);
    }
}

/// Every span in the tree starts and ends inside its parent.
fn assert_contained(tree: &SpanTree) {
    for c in &tree.children {
        assert!(
            c.record.start_ns >= tree.record.start_ns,
            "child {} starts before parent {}:\n{}",
            c.record.name,
            tree.record.name,
            tree.render()
        );
        assert!(
            c.record.end_ns() <= tree.record.end_ns(),
            "child {} outlives parent {}:\n{}",
            c.record.name,
            tree.record.name,
            tree.render()
        );
        assert_contained(c);
    }
}

#[test]
fn single_shard_trace_has_the_documented_shape_and_adds_up() {
    let (srv, sink) = traced_server(91, 1);
    let q = RangeQuery::from_region(&Region::from_bounds(&[(2, 13), (1, 6)]).unwrap());
    srv.range_sum(&q).unwrap();

    let ids = sink.trace_ids();
    assert_eq!(ids.len(), 1, "one query, one trace");
    let tree = sink.trace_tree(ids[0]).expect("root span stored");
    assert_eq!(tree.record.name, "serve_query");
    assert_contained(&tree);

    // Every serving stage shows up as its own span, correctly parented.
    let edges = tree.edge_set();
    for expected in [
        ("cache_lookup", "shard_exec"),
        ("kernel_exec", "router_dispatch"),
        ("merge", "serve_query"),
        ("router_dispatch", "shard_exec"),
        ("shard_exec", "serve_query"),
    ] {
        assert!(
            edges.contains(&expected),
            "missing {expected:?} in {edges:?}"
        );
    }

    assert!(tree.find("queue_wait").is_none(), "{}", tree.render());

    // The root's direct children are disjoint in time (parts run one
    // after another; merge follows the last), so their durations sum to
    // at most the end-to-end latency…
    let child_sum: u64 = tree.children.iter().map(|c| c.record.dur_ns).sum();
    assert!(
        child_sum <= tree.record.dur_ns,
        "children sum {child_sum}ns > root {}ns:\n{}",
        tree.record.dur_ns,
        tree.render()
    );
    // …and the unattributed remainder is only the fan-out bookkeeping
    // between spans (validation, the shard-local query, the fold) —
    // bounded by a generous scheduling slop, not by another hidden stage.
    let slop_ns = 100_000_000;
    assert!(
        tree.record.dur_ns - child_sum < slop_ns,
        "unattributed gap {}ns:\n{}",
        tree.record.dur_ns - child_sum,
        tree.render()
    );

    // The query never left the calling thread.
    assert_on_thread(&tree, tree.record.tid);
}

#[test]
fn repeat_query_trace_shows_the_cache_short_circuit() {
    let (srv, sink) = traced_server(17, 1);
    let q = RangeQuery::from_region(&Region::from_bounds(&[(0, 9), (2, 7)]).unwrap());
    srv.range_sum(&q).unwrap();
    srv.range_sum(&q).unwrap();

    let ids = sink.trace_ids();
    assert_eq!(ids.len(), 2);
    let first = sink.trace_tree(ids[0]).unwrap();
    let second = sink.trace_tree(ids[1]).unwrap();
    // Cold query went to the router; the exact hit never did.
    assert!(
        first.find("router_dispatch").is_some(),
        "{}",
        first.render()
    );
    assert!(
        second.find("router_dispatch").is_none(),
        "{}",
        second.render()
    );
    assert!(second.find("cache_lookup").is_some(), "{}", second.render());
    assert!(second.span_count() < first.span_count());
}

#[test]
fn fan_out_traces_every_overlapping_shard_and_feeds_latency_histograms() {
    let ctx = Arc::new(Telemetry::new());
    let (trees, snap) = olap_telemetry::with_scope(&ctx, || {
        let (srv, sink) = traced_server(23, 2);
        for r in uniform_regions(srv.shape(), 4, 77) {
            srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
        }
        // A full-cube extremum crosses both shards.
        srv.range_max(&RangeQuery::from_region(
            &Region::from_bounds(&[(0, 15), (0, 7)]).unwrap(),
        ))
        .unwrap();
        let trees: Vec<_> = sink
            .trace_ids()
            .into_iter()
            .map(|id| sink.trace_tree(id).unwrap())
            .collect();
        (trees, ctx.registry().snapshot())
    });
    assert_eq!(trees.len(), 5);
    let max_tree = trees.last().unwrap();
    assert_contained(max_tree);
    let shard_execs = max_tree
        .children
        .iter()
        .filter(|c| c.record.name == "shard_exec")
        .count();
    assert_eq!(shard_execs, 2, "{}", max_tree.render());
    assert_on_thread(max_tree, max_tree.record.tid);

    // Each shard's reply latency landed in its own histogram series.
    let observed: Vec<(String, u64)> = snap
        .iter()
        .filter(|m| m.name == "olap_serve_latency_ns")
        .filter_map(|m| match &m.value {
            MetricValue::Histogram(h) => {
                Some((m.label("shard").unwrap_or("?").to_string(), h.count))
            }
            _ => None,
        })
        .collect();
    assert_eq!(observed.len(), 2, "{observed:?}");
    let total: u64 = observed.iter().map(|(_, n)| n).sum();
    // 4 sums (each hits ≥ 1 shard) + 1 max hitting both shards.
    assert!(total >= 6, "{observed:?}");
    // Spans fed the span-nanos family through the subscriber seam too.
    assert!(
        snap.iter()
            .any(|m| m.name == "olap_span_nanos" && m.label("span") == Some("serve_query")),
        "olap_span_nanos missing serve_query series"
    );
}

#[test]
fn slow_ring_keeps_full_trees_for_over_threshold_queries() {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 5);
    let mut srv = CubeServer::build(&a, ServeConfig::default()).unwrap();
    // Zero threshold: every query is "slow", so the ring sees them all.
    let sink = Arc::new(TraceSink::with_slow_ring(4096, Duration::ZERO, 2));
    srv.enable_tracing(Arc::clone(&sink));
    for r in uniform_regions(srv.shape(), 3, 11) {
        srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
    }
    let slow = sink.slow_traces();
    assert_eq!(slow.len(), 2, "ring capacity bounds retention");
    for t in &slow {
        assert!(
            t.spans.iter().any(|s| s.name == "serve_query"),
            "slow trace retains its root"
        );
        assert!(t.spans.iter().any(|s| s.name == "shard_exec"));
        assert!(t.root_dur_ns >= t.spans.iter().map(|s| s.dur_ns).max().unwrap_or(0));
    }
}

#[test]
fn untraced_server_records_nothing_and_exports_cleanly() {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 8);
    let srv = CubeServer::build(&a, ServeConfig::default()).unwrap();
    assert!(srv.tracer().is_none());
    srv.range_sum(&RangeQuery::from_region(
        &Region::from_bounds(&[(0, 15), (0, 7)]).unwrap(),
    ))
    .unwrap();
    assert!(!olap_telemetry::tracing_active());

    // And a sink that did see traffic exports loadable Chrome JSON.
    let (traced, sink) = traced_server(3, 2);
    traced
        .range_sum(&RangeQuery::from_region(
            &Region::from_bounds(&[(0, 15), (0, 7)]).unwrap(),
        ))
        .unwrap();
    let json = sink.to_chrome_json();
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"serve_query\""), "{json}");
    assert!(json.contains("\"ph\": \"X\""), "{json}");
}

#[test]
fn head_sampling_traces_every_nth_query_and_nothing_else() {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 5);
    let mut srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let sink = Arc::new(TraceSink::new());
    srv.enable_tracing_sampled(Arc::clone(&sink), 4);

    let regions = uniform_regions(srv.shape(), 10, 77);
    for r in &regions {
        srv.range_sum(&RangeQuery::from_region(r)).unwrap();
    }

    // Queries 0, 4, 8 of the 10 are sampled; each sampled trace is a
    // full tree, the rest leave no spans at all.
    let ids = sink.trace_ids();
    assert_eq!(ids.len(), 3, "1-in-4 sample of 10 queries");
    for id in ids {
        let tree = sink.trace_tree(id).expect("sampled trace assembles");
        assert_eq!(tree.record.name, "serve_query");
        assert!(tree.find("shard_exec").is_some(), "{}", tree.render());
        assert_contained(&tree);
    }

    // `enable_tracing` resets to tracing every query.
    srv.enable_tracing(Arc::clone(&sink));
    let before = sink.trace_ids().len();
    for r in &regions {
        srv.range_sum(&RangeQuery::from_region(r)).unwrap();
    }
    assert_eq!(sink.trace_ids().len(), before + regions.len());
}
