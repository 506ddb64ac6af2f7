//! The serving gauges are real, not decorative: with a telemetry scope
//! active, building a server, answering queries, and installing updates
//! must publish per-shard snapshot and queue metrics into the registry.

use olap_array::{Region, Shape};
use olap_query::RangeQuery;
use olap_server::{CubeServer, ServeConfig};
use olap_telemetry::{MetricValue, Telemetry};
use olap_workload::{uniform_cube, uniform_regions};
use std::sync::Arc;

#[test]
fn serving_publishes_snapshot_and_queue_gauges() {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 61);
    let ctx = Arc::new(Telemetry::new());
    // The registry is read while the server is still alive: dropping it
    // releases every epoch and the live gauges legitimately fall to zero.
    let snap = olap_telemetry::with_scope(&ctx, || {
        let srv = CubeServer::build(
            &a,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for r in uniform_regions(a.shape(), 5, 67) {
            srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
        }
        srv.apply_updates(&[(vec![3, 3], 9), (vec![12, 1], -2)])
            .unwrap();
        ctx.registry().snapshot()
    });
    let gauge = |name: &str, key: &str, label: &str| -> Option<f64> {
        snap.iter().find_map(|m| {
            let matches = m.name == name && m.labels.iter().any(|(k, v)| k == key && v == label);
            match (&m.value, matches) {
                (MetricValue::Gauge(v), true) => Some(*v),
                _ => None,
            }
        })
    };

    // The assertions are presence plus tight ranges: a superseded
    // snapshot may or may not have been reclaimed yet.
    for shard in ["shard-0", "shard-1"] {
        let live = gauge("olap_snapshot_live", "cell", shard)
            .unwrap_or_else(|| panic!("no olap_snapshot_live for {shard}"));
        assert!(
            (1.0..=2.0).contains(&live),
            "{shard}: live snapshots {live}"
        );
        let lag = gauge("olap_snapshot_epoch_lag", "cell", shard)
            .unwrap_or_else(|| panic!("no olap_snapshot_epoch_lag for {shard}"));
        assert!((0.0..=1.0).contains(&lag), "{shard}: lag {lag}");
        let depth = gauge("olap_shard_queue_depth", "shard", shard)
            .unwrap_or_else(|| panic!("no olap_shard_queue_depth for {shard}"));
        assert!((0.0..=1.0).contains(&depth), "{shard}: depth {depth}");
    }
}

#[test]
fn serving_publishes_semantic_cache_counters_and_entry_gauge() {
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 62);
    let ctx = Arc::new(Telemetry::new());
    let snap = olap_telemetry::with_scope(&ctx, || {
        let srv = CubeServer::build(
            &a,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Same full-cube sum twice: one miss + one exact hit per shard,
        // recorded into the scope the queries are issued under.
        let q = RangeQuery::from_region(&Region::from_bounds(&[(0, 15), (0, 7)]).unwrap());
        srv.range_sum(&q).unwrap();
        srv.range_sum(&q).unwrap();
        // An install overlapping shard-0's entry invalidates it region-wise.
        srv.apply_updates(&[(vec![3, 3], 9)]).unwrap();
        ctx.registry().snapshot()
    });
    let counter = |name: &str, label: &str| -> u64 {
        snap.iter()
            .find_map(|m| {
                let matches =
                    m.name == name && m.labels.iter().any(|(k, v)| k == "cache" && v == label);
                match (&m.value, matches) {
                    (MetricValue::Counter(v), true) => Some(*v),
                    _ => None,
                }
            })
            .unwrap_or_else(|| panic!("no {name} for {label}"))
    };
    for shard in ["shard-0", "shard-1"] {
        assert_eq!(counter("olap_cache_misses_total", shard), 1, "{shard}");
        assert_eq!(counter("olap_cache_hits_total", shard), 1, "{shard}");
        assert_eq!(counter("olap_cache_insertions_total", shard), 1, "{shard}");
    }
    // Only the updated shard invalidated, and its entry gauge fell back
    // to zero while the untouched shard still holds one.
    assert_eq!(counter("olap_cache_invalidations_total", "shard-0"), 1);
    assert!(
        snap.iter()
            .all(|m| m.name != "olap_cache_invalidations_total"
                || !m.labels.iter().any(|(k, v)| k == "cache" && v == "shard-1")),
        "shard-1 must not have invalidated"
    );
    let gauge = |label: &str| -> f64 {
        snap.iter()
            .find_map(|m| {
                let matches = m.name == "olap_cache_entries"
                    && m.labels.iter().any(|(k, v)| k == "cache" && v == label);
                match (&m.value, matches) {
                    (MetricValue::Gauge(v), true) => Some(*v),
                    _ => None,
                }
            })
            .unwrap_or_else(|| panic!("no olap_cache_entries for {label}"))
    };
    assert_eq!(gauge("shard-0"), 0.0);
    assert_eq!(gauge("shard-1"), 1.0);
}

#[test]
fn degraded_serving_publishes_approx_counters_and_slo_check() {
    use olap_array::QueryBudget;
    use olap_server::{degraded_fraction_report, SloSpec};

    let a = uniform_cube(Shape::new(&[24, 10]).unwrap(), 300, 63);
    let ctx = Arc::new(Telemetry::new());
    let queries = 12usize;
    let snap = olap_telemetry::with_scope(&ctx, || {
        let srv = CubeServer::build(
            &a,
            ServeConfig {
                shards: 2,
                budget: QueryBudget::with_deadline(std::time::Duration::ZERO).degrade(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for r in uniform_regions(a.shape(), queries, 69) {
            assert!(srv
                .range_sum(&RangeQuery::from_region(&r))
                .unwrap()
                .is_degraded());
        }
        ctx.registry().snapshot()
    });
    let counter_sum = |name: &str| -> u64 {
        snap.iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    };
    // Every query degraded, on at least one shard each.
    assert_eq!(counter_sum("olap_serve_answers_total"), queries as u64);
    assert_eq!(counter_sum("olap_serve_degraded_total"), queries as u64);
    let approx = counter_sum("olap_approx_answers_total");
    assert!(approx >= queries as u64, "per-shard tier answers: {approx}");
    // The per-shard counters carry the reason label.
    assert!(
        snap.iter().any(|m| m.name == "olap_approx_answers_total"
            && m.labels
                .iter()
                .any(|(k, v)| k == "reason" && v == "deadline_exceeded")),
        "reason label missing"
    );
    // The relative-bound histogram recorded one sample per tier answer.
    let bound_samples = snap
        .iter()
        .find_map(|m| match (&*m.name, &m.value) {
            ("olap_approx_relative_bound", MetricValue::Histogram(h)) => Some(h.count),
            _ => None,
        })
        .expect("olap_approx_relative_bound histogram present");
    assert_eq!(bound_samples, approx);
    // A 100% degraded run violates any finite degraded-fraction SLO…
    let v = degraded_fraction_report(ctx.registry(), &SloSpec::max_degraded_fraction(0.5))
        .expect("all answers degraded");
    assert_eq!(v.observed_per_mille, 1000);
    assert_eq!(v.total, queries as u64);
    // …and the counters render on the Prometheus exposition.
    let text = ctx.registry().render_prometheus();
    assert!(text.contains("olap_serve_degraded_total"), "{text}");
    assert!(text.contains("olap_approx_answers_total"), "{text}");
    assert!(text.contains("olap_approx_relative_bound"), "{text}");
}

#[test]
fn reads_record_into_the_callers_context_not_the_builders() {
    // A query runs on its caller's thread, so what it records goes to the
    // context that thread has entered when it calls — not to the one that
    // was active when the server was built.
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 65);
    let builder = Arc::new(Telemetry::new());
    let caller = Arc::new(Telemetry::new());
    let srv = olap_telemetry::with_scope(&builder, || {
        CubeServer::build(
            &a,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    });
    let q = RangeQuery::from_region(&Region::from_bounds(&[(0, 15), (0, 7)]).unwrap());
    olap_telemetry::with_scope(&caller, || srv.range_sum(&q).unwrap());
    let query_path = [
        "olap_serve_answers_total",
        "olap_serve_latency_ns",
        "olap_shard_queue_depth",
        "olap_cache_misses_total",
        "olap_engine_queries_total",
    ];
    let names = |ctx: &Telemetry| -> Vec<String> {
        ctx.registry()
            .snapshot()
            .iter()
            .map(|m| m.name.clone())
            .collect()
    };
    let (in_caller, in_builder) = (names(&caller), names(&builder));
    for name in query_path {
        assert!(in_caller.iter().any(|n| n == name), "{name} not recorded");
        assert!(!in_builder.iter().any(|n| n == name), "{name} in builder");
    }
    // With no context entered the same server records nowhere.
    let before = (caller.registry().snapshot(), builder.registry().snapshot());
    srv.range_sum(&q).unwrap();
    let after = (caller.registry().snapshot(), builder.registry().snapshot());
    assert_eq!(format!("{before:?}"), format!("{after:?}"));
}

#[test]
fn unscoped_server_records_nothing_beside_a_scoped_one() {
    // One build, so "no context ⇒ nothing recorded" is a runtime property:
    // a server built and queried outside any scope must leave no trace in
    // a registry a concurrent scoped server is filling.
    let a = uniform_cube(Shape::new(&[16, 8]).unwrap(), 300, 64);
    let config = || ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    // Distinct single columns: no region contains or equals another, so
    // every shard part is a cache miss and exactly one engine dispatch.
    // Rows 6..=9 straddle the shard boundary at row 8.
    let queries: Vec<RangeQuery> = (0..8)
        .map(|c| {
            let rows = if c % 2 == 0 { (6, 9) } else { (1, 5) };
            RangeQuery::from_region(&Region::from_bounds(&[rows, (c, c)]).unwrap())
        })
        .collect();
    let ctx = Arc::new(Telemetry::new());
    let scoped = olap_telemetry::with_scope(&ctx, || CubeServer::build(&a, config()).unwrap());
    let unscoped = CubeServer::build(&a, config()).unwrap();

    // Both threads issue query i together, so the two servers answer
    // interleaved.
    let barrier = std::sync::Barrier::new(2);
    let ask = |srv: &CubeServer| -> Vec<_> {
        queries
            .iter()
            .flat_map(|q| {
                barrier.wait();
                [srv.range_sum(q).unwrap(), srv.range_max(q).unwrap()]
            })
            .collect()
    };
    let (recorded, quiet) = std::thread::scope(|s| {
        let recorded = s.spawn(|| olap_telemetry::with_scope(&ctx, || ask(&scoped)));
        let quiet = s.spawn(|| ask(&unscoped));
        (recorded.join().unwrap(), quiet.join().unwrap())
    });

    assert_eq!(quiet, recorded, "recording must not perturb answers");
    let shard_ops: u64 = recorded.iter().map(|ans| ans.shards as u64).sum();
    let engine_queries: u64 = ctx
        .registry()
        .snapshot()
        .iter()
        .filter(|m| m.name == "olap_engine_queries_total")
        .filter_map(|m| match &m.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
        .sum();
    assert_eq!(engine_queries, shard_ops);
    assert_eq!(ctx.recorder().recorded(), shard_ops);
}
