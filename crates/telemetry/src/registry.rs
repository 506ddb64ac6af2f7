//! The metric registry: named, labelled counters, gauges, and
//! log2-bucketed histograms behind atomics.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones;
//! recording is lock-free. Registration (name + sorted label set → handle)
//! takes a mutex, so callers on hot paths should either cache handles or
//! accept one short critical section per recording — both are fine at
//! query granularity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: bucket 0 holds zeros, bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b - 1]`, bucket 64 holds the top of the u64
/// range.
const BUCKETS: usize = 65;

/// A monotone counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (saturating).
    pub fn inc(&self, n: u64) {
        // fetch_update to saturate instead of wrapping on overflow.
        let _ = self
            .0
            // ordering: Relaxed — statistical counter; readers only
            // report its value, no data is published through it.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — reporting read of a statistical counter.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — last-writer-wins gauge; the stored bits
        // are self-contained, nothing else is published alongside them.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // ordering: Relaxed — reporting read of a self-contained gauge.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram over `u64` samples with log2 buckets.
///
/// Designed for the workspace's two sample kinds — element accesses per
/// query and nanosecond latencies — where order of magnitude is the
/// interesting resolution.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        // ordering: Relaxed — bucket/count/sum are statistical cells; a
        // snapshot racing an observe may see the sample in one cell and
        // not another, which reporting tolerates by design.
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — see above; same statistical protocol.
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum so pathological accumulations pin instead of wrap.
        let _ = self
            .0
            .sum
            // ordering: Relaxed — see above; same statistical protocol.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — reporting read; see `observe`.
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — reporting read; see `observe`.
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (b, cell) in self.0.buckets.iter().enumerate() {
            // ordering: Relaxed — snapshot read; buckets may be mid-update
            // and the protocol tolerates the skew (see `observe`).
            let n = cell.load(Ordering::Relaxed);
            if n > 0 {
                let le = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                buckets.push((le, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, samples in bucket)`,
    /// in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The smallest bucket upper bound covering quantile `q` (clamped to
    /// `[0, 1]`): the first bound whose cumulative sample count reaches
    /// `⌈q·count⌉`. Resolution is the log2 bucket width — the true
    /// quantile lies somewhere inside the returned bucket. 0 with no
    /// samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(le, n) in &self.buckets {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return le;
            }
        }
        // A racing observe can make `count` run ahead of the bucket
        // cells; answer with the largest populated bound.
        self.buckets.last().map_or(0, |&(le, _)| le)
    }
}

/// A metric's current value in a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One registered metric's identity and current value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name, e.g. `olap_engine_queries_total`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A thread-safe collection of metrics. Cloning shares the underlying
/// storage; a fresh registry starts empty.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<MetricKey, Metric>>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    MetricKey {
        name: name.to_string(),
        labels,
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name` with the given labels, registering it on
    /// first use.
    ///
    /// # Panics
    /// If the same name + labels were registered as a different type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        // analyzer: allow(panic-site, reason = "mutex poisoning propagates a panic from another telemetry call; fail loud rather than silently drop metrics")
        let mut map = self.metrics.lock().expect("registry lock");
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))));
        match entry {
            Metric::Counter(c) => c.clone(),
            // analyzer: allow(panic-site, reason = "metric type mismatch is a programming error in the instrumentation itself; documented under # Panics")
            other => panic!("{name} already registered as {other:?}, not a counter"),
        }
    }

    /// The gauge named `name` with the given labels, registering it on
    /// first use.
    ///
    /// # Panics
    /// If the same name + labels were registered as a different type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        // analyzer: allow(panic-site, reason = "mutex poisoning propagates a panic from another telemetry call; fail loud rather than silently drop metrics")
        let mut map = self.metrics.lock().expect("registry lock");
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))));
        match entry {
            Metric::Gauge(g) => g.clone(),
            // analyzer: allow(panic-site, reason = "metric type mismatch is a programming error in the instrumentation itself; documented under # Panics")
            other => panic!("{name} already registered as {other:?}, not a gauge"),
        }
    }

    /// The histogram named `name` with the given labels, registering it on
    /// first use.
    ///
    /// # Panics
    /// If the same name + labels were registered as a different type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        // analyzer: allow(panic-site, reason = "mutex poisoning propagates a panic from another telemetry call; fail loud rather than silently drop metrics")
        let mut map = self.metrics.lock().expect("registry lock");
        let entry = map.entry(key(name, labels)).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        });
        match entry {
            Metric::Histogram(h) => h.clone(),
            // analyzer: allow(panic-site, reason = "metric type mismatch is a programming error in the instrumentation itself; documented under # Panics")
            other => panic!("{name} already registered as {other:?}, not a histogram"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        // analyzer: allow(panic-site, reason = "mutex poisoning propagates a panic from another telemetry call; fail loud rather than silently drop metrics")
        self.metrics.lock().expect("registry lock").len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of every metric, in deterministic
    /// (name, labels) order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        // analyzer: allow(panic-site, reason = "mutex poisoning propagates a panic from another telemetry call; fail loud rather than silently drop metrics")
        let map = self.metrics.lock().expect("registry lock");
        map.iter()
            .map(|(k, m)| MetricSnapshot {
                name: k.name.clone(),
                labels: k.labels.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Renders the registry in Prometheus text exposition style, with a
    /// `# HELP` / `# TYPE` comment pair per metric family (snapshots are
    /// name-sorted, so each family renders contiguously).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = String::new();
        for m in self.snapshot() {
            if m.name != family {
                family.clone_from(&m.name);
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", m.name, metric_help(&m.name)));
                out.push_str(&format!("# TYPE {} {kind}\n", m.name));
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, prom_labels(&m.labels, &[])));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, prom_labels(&m.labels, &[])));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0;
                    for &(le, n) in &h.buckets {
                        cumulative += n;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            m.name,
                            prom_labels(&m.labels, &[("le", &le.to_string())])
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        prom_labels(&m.labels, &[("le", "+Inf")]),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        prom_labels(&m.labels, &[]),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        prom_labels(&m.labels, &[]),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// Renders the registry as a JSON array of metric objects.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[\n");
        let snaps = self.snapshot();
        for (i, m) in snaps.iter().enumerate() {
            let labels: Vec<String> = m
                .labels
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{}\": \"{}\"",
                        crate::json_escape(k),
                        crate::json_escape(v)
                    )
                })
                .collect();
            let value = match &m.value {
                MetricValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
                MetricValue::Gauge(v) => {
                    let v = if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    };
                    format!("\"type\": \"gauge\", \"value\": {v}")
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .map(|&(le, n)| format!("[{le}, {n}]"))
                        .collect();
                    format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"mean\": {}, \"buckets\": [{}]",
                        h.count,
                        h.sum,
                        h.mean(),
                        buckets.join(", ")
                    )
                }
            };
            let sep = if i + 1 == snaps.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"labels\": {{{}}}, {value}}}{sep}\n",
                crate::json_escape(&m.name),
                labels.join(", ")
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// One-line `# HELP` text per metric family. The workspace's well-known
/// families get real descriptions; anything else a generic line, so the
/// exposition stays spec-shaped for names registered at runtime.
fn metric_help(name: &str) -> &'static str {
    match name {
        "olap_span_nanos" => "Wall time per completed span, by span name, in nanoseconds.",
        "olap_serve_latency_ns" => "Time one shard's part of a query took on the calling thread.",
        "olap_serve_latency_p50_ns" => {
            "Per-shard p50 latency extracted from olap_serve_latency_ns."
        }
        "olap_serve_latency_p95_ns" => {
            "Per-shard p95 latency extracted from olap_serve_latency_ns."
        }
        "olap_serve_latency_p99_ns" => {
            "Per-shard p99 latency extracted from olap_serve_latency_ns."
        }
        "olap_shard_queue_depth" => {
            "Query parts currently executing on a shard, across all callers."
        }
        "olap_snapshot_live" => "Live engine snapshot versions not yet reclaimed.",
        "olap_snapshot_epoch_lag" => "Oldest pinned epoch's distance behind the newest install.",
        "olap_cache_hits_total" => "Semantic-cache exact hits.",
        "olap_cache_misses_total" => "Semantic-cache misses answered by the backend.",
        "olap_cache_assemblies_total" => "Semantic-cache answers assembled from a super-region.",
        "olap_cache_invalidations_total" => "Semantic-cache entries invalidated by updates.",
        "olap_cache_entries" => "Semantic-cache entries currently resident.",
        _ => "OLAP workspace metric.",
    }
}

fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|&(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))),
    );
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("queries_total", &[("engine", "naive")]);
        c.inc(3);
        r.counter("queries_total", &[("engine", "naive")]).inc(2);
        assert_eq!(c.get(), 5);
        // A different label set is a different series.
        r.counter("queries_total", &[("engine", "prefix")]).inc(1);
        let g = r.gauge("ratio", &[]);
        g.set(1.25);
        assert_eq!(r.gauge("ratio", &[]).get(), 1.25);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn counter_saturates() {
        let r = Registry::new();
        let c = r.counter("big", &[]);
        c.inc(u64::MAX - 1);
        c.inc(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let r = Registry::new();
        let h = r.histogram("accesses", &[]);
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        let snap = h.snapshot();
        // Buckets: le=0 (one 0), le=1 (one 1), le=3 (2,3), le=7 (4,7),
        // le=15 (8), le=1023 (1000).
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1), (1023, 1)]
        );
        assert!((snap.mean() - 1025.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn prometheus_render_shape() {
        let r = Registry::new();
        r.counter("q_total", &[("engine", "naive")]).inc(7);
        r.gauge("ratio", &[]).set(0.5);
        r.histogram("lat", &[]).observe(3);
        let text = r.render_prometheus();
        assert!(text.contains("q_total{engine=\"naive\"} 7"), "{text}");
        assert!(text.contains("ratio 0.5"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lat_sum 3"), "{text}");
        assert!(text.contains("lat_count 1"), "{text}");
        // One HELP/TYPE pair per family, ahead of its samples.
        assert!(text.contains("# HELP q_total "), "{text}");
        assert!(text.contains("# TYPE q_total counter"), "{text}");
        assert!(text.contains("# TYPE ratio gauge"), "{text}");
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        let type_line = text.find("# TYPE lat histogram").expect("type line");
        let first_sample = text.find("lat_bucket").expect("sample line");
        assert!(type_line < first_sample, "comments precede samples: {text}");
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let r = Registry::new();
        r.counter("q_total", &[("engine", "naive")]).inc(1);
        r.counter("q_total", &[("engine", "prefix")]).inc(1);
        r.counter("olap_cache_hits_total", &[]).inc(1);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE q_total counter").count(), 1, "{text}");
        assert_eq!(text.matches("# HELP q_total ").count(), 1, "{text}");
        // Well-known families get real help text, not the fallback.
        assert!(
            text.contains("# HELP olap_cache_hits_total Semantic-cache exact hits."),
            "{text}"
        );
    }

    #[test]
    fn histogram_quantiles_at_log2_resolution() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        for _ in 0..98 {
            h.observe(100); // bucket le=127
        }
        h.observe(5_000); // bucket le=8191
        h.observe(70_000); // bucket le=131071
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 127);
        assert_eq!(snap.quantile(0.98), 127);
        assert_eq!(snap.quantile(0.99), 8_191);
        assert_eq!(snap.quantile(1.0), 131_071);
        assert_eq!(snap.quantile(0.0), 127, "rank clamps to the first sample");
        let empty = r.histogram("none", &[]).snapshot();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let r = Registry::new();
        r.counter("c", &[("k", "v")]).inc(1);
        r.histogram("h", &[]).observe(9);
        let json = r.render_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.contains("\"name\": \"c\""), "{json}");
        assert!(json.contains("\"k\": \"v\""), "{json}");
        assert!(json.contains("\"type\": \"histogram\""), "{json}");
        assert!(json.contains("\"buckets\": [[15, 1]]"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
    }

    #[test]
    fn snapshot_is_deterministic_and_labelled() {
        let r = Registry::new();
        r.counter("b", &[]).inc(1);
        r.counter("a", &[("x", "2")]).inc(2);
        r.counter("a", &[("x", "1")]).inc(3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a", "a", "b"]);
        assert_eq!(snap[0].label("x"), Some("1"));
        assert_eq!(snap[1].label("x"), Some("2"));
        assert_eq!(snap[0].value, MetricValue::Counter(3));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        r.counter("x", &[]).inc(1);
        r.gauge("x", &[]);
    }

    #[test]
    fn shared_storage_across_clones() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("n", &[]).inc(4);
        assert_eq!(r2.counter("n", &[]).get(), 4);
    }
}
