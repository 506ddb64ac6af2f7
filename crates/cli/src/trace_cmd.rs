//! The `trace` command: boot a traced [`CubeServer`], run a seeded
//! query workload through it, and export every query's span tree as
//! Chrome trace-event JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! Each query produces one trace rooted at `serve_query`, with the
//! serving stages — per-shard execution, cache lookup, router
//! dispatch, kernel execution, merge — as nested spans (see the
//! `olap_telemetry::trace` module docs for the tree shape). The first
//! region is queried twice, so a default run also shows the semantic
//! cache short-circuiting a repeat: the second tree has no
//! `router_dispatch` under its `shard_exec`.
//!
//! `--slow-ms MS` additionally retains the full trees of queries slower
//! than the threshold in a bounded slow-query ring and reports them.

use crate::args::{parse_dims, parse_usize, split_args, usage, CliError};
use crate::commands::open_reader;
use olap_query::RangeQuery;
use olap_server::{CubeServer, ServeConfig};
use olap_storage as storage;
use olap_telemetry::{TraceSink, DEFAULT_TRACE_CAPACITY};
use olap_workload::{uniform_cube, uniform_regions};
use std::sync::Arc;
use std::time::Duration;

/// How many slow traces the `--slow-ms` ring retains.
const SLOW_RING: usize = 16;

/// `trace`: traced serving drill + Chrome trace-event export. See the
/// module docs.
pub(crate) fn cmd_trace(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let out_path = p.require("--out")?;
    let queries = parse_usize(&p, "--queries", 12)?.max(1);
    let shards = parse_usize(&p, "--shards", 2)?;
    let seed: u64 = p
        .get("--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| usage("--seed must be an integer"))?;
    let slow_ms: Option<u64> = match p.get("--slow-ms") {
        Some(s) => Some(
            s.parse()
                .map_err(|_| usage("--slow-ms must be a millisecond count"))?,
        ),
        None => None,
    };
    let a = match p.get("--cube") {
        Some(path) => storage::read_dense_i64(&mut open_reader(path)?)?,
        None => {
            let dims = parse_dims(p.get("--dims").unwrap_or("64,64"))?;
            let shape =
                olap_array::Shape::new(&dims).map_err(|e| CliError::Query(e.to_string()))?;
            uniform_cube(shape, 1000, seed)
        }
    };

    let mut server = CubeServer::build(
        &a,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| CliError::Query(e.to_string()))?;
    let sink = Arc::new(match slow_ms {
        Some(ms) => {
            TraceSink::with_slow_ring(DEFAULT_TRACE_CAPACITY, Duration::from_millis(ms), SLOW_RING)
        }
        None => TraceSink::new(),
    });
    server.enable_tracing(Arc::clone(&sink));

    // Seeded mixed workload: mostly sums, every fourth query an
    // extremum, and the first region repeated at the end so the export
    // contains one cache-served tree.
    let regions = uniform_regions(a.shape(), queries, seed ^ 0x9e37_79b9_7f4a_7c15);
    for (i, r) in regions.iter().enumerate() {
        let q = RangeQuery::from_region(r);
        let res = match i % 4 {
            3 if i % 8 == 3 => server.range_max(&q).map(|ans| ans.value),
            3 => server.range_min(&q).map(|ans| ans.value),
            _ => server.range_sum(&q).map(|ans| ans.value),
        };
        res.map_err(|e| CliError::Query(e.to_string()))?;
    }
    if let Some(first) = regions.first() {
        server
            .range_sum(&RangeQuery::from_region(first))
            .map_err(|e| CliError::Query(e.to_string()))?;
    }

    let json = sink.to_chrome_json();
    std::fs::write(out_path, &json).map_err(storage::StorageError::Io)?;

    let ids = sink.trace_ids();
    let mut out = Vec::new();
    out.push(format!(
        "traced {} queries over a {:?} cube across {} shards (seed {seed})",
        ids.len(),
        a.shape().dims(),
        server.shards(),
    ));
    out.push(format!(
        "{} spans in {} traces ({} dropped at capacity)",
        sink.span_count(),
        ids.len(),
        sink.dropped(),
    ));
    if let Some(tree) = ids.first().and_then(|&id| sink.trace_tree(id)) {
        out.push(format!(
            "first trace ({} spans, {:.1}\u{3bc}s end to end):",
            tree.span_count(),
            tree.record.dur_ns as f64 / 1_000.0,
        ));
        out.push(tree.render().trim_end().to_string());
    }
    if let Some(ms) = slow_ms {
        let slow = sink.slow_traces();
        out.push(format!(
            "slow-query ring: {} traces over {ms}ms retained (capacity {SLOW_RING})",
            slow.len(),
        ));
    }
    out.push(format!(
        "wrote Chrome trace-event JSON to {out_path} (open in chrome://tracing or Perfetto)"
    ));
    Ok(out.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        cmd_trace(&owned)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("olap-cli-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn exports_chrome_json_and_summarises_the_trees() {
        let out_path = tmp("t1.json");
        let out = run(&[
            "--dims",
            "32,16",
            "--queries",
            "8",
            "--shards",
            "2",
            "--seed",
            "5",
            "--out",
            &out_path,
        ])
        .unwrap();
        // 8 seeded queries + the repeat of the first region.
        assert!(out.contains("traced 9 queries"), "{out}");
        assert!(out.contains("serve_query"), "{out}");
        assert!(out.contains("shard_exec"), "{out}");
        assert!(out.contains("wrote Chrome trace-event JSON"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\": \"ns\""), "{json}");
        assert!(json.contains("\"shard_exec\""), "{json}");
        assert!(!json.contains("\"queue_wait\""), "{json}");
        assert!(json.contains("\"merge\""), "{json}");
        // Braces balance — the export is at least structurally JSON.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn slow_ring_flag_reports_retention() {
        let out_path = tmp("t2.json");
        // Zero threshold: every query lands in the ring.
        let out = run(&[
            "--dims",
            "16,16",
            "--queries",
            "4",
            "--slow-ms",
            "0",
            "--out",
            &out_path,
        ])
        .unwrap();
        assert!(out.contains("slow-query ring: 5 traces"), "{out}");
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn trace_requires_an_output_path() {
        assert!(run(&["--dims", "8,8"]).is_err());
    }
}
