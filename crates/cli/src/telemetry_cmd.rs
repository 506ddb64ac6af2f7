//! The `metrics` and `flight-record` commands: run a seeded mixed
//! workload through the [`AdaptiveRouter`] inside a *scoped* telemetry
//! context, then dump what the instrumentation recorded.
//!
//! The workload interleaves three query shapes — large uniform boxes,
//! small fixed-side boxes, and point lookups — plus a few batched updates,
//! so every engine in the candidate set gets traffic and the registry ends
//! up holding per-engine access histograms, route-choice counters, and
//! batch-update metrics. For `metrics` the stream runs through a
//! [`SemanticCache`] in front of the router (sized by `--cache-size`,
//! default 256), so the registry also carries the
//! `olap_cache_*_total` counters and `olap_cache_entries` gauge. `metrics` renders the registry (Prometheus-style
//! text or JSON) and, in text form, appends a §8 cost-model check
//! comparing each engine's mean observed accesses against the mean
//! analytic `estimate()` over the queries actually routed to it.
//! `flight-record` dumps the recorder's last-N per-query decisions as
//! JSON.

use crate::args::{parse_usize, split_args, usage, CliError, ParsedArgs};
use crate::chaos_cmd::mixed_queries;
use crate::commands::{open_reader, prefix_engine};
use olap_array::{mix, DenseArray, Shape};
use olap_engine::{AdaptiveRouter, NaiveEngine, PrefixChoice, SemanticCache, SumTreeEngine};
use olap_storage as storage;
use olap_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Workload parameters shared by `metrics` and `flight-record`.
struct Workload {
    queries: usize,
    updates: usize,
    seed: u64,
    blocked: usize,
    tree: usize,
    /// Semantic-cache capacity in front of the router; 0 = passthrough.
    cache_size: usize,
}

fn parse_workload(p: &ParsedArgs, default_cache: usize) -> Result<Workload, CliError> {
    Ok(Workload {
        queries: parse_usize(p, "--queries", 1000)?,
        updates: parse_usize(p, "--updates", 4)?,
        seed: p
            .get("--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|_| usage("--seed must be an integer"))?,
        blocked: parse_usize(p, "--blocked", 16)?,
        tree: parse_usize(p, "--tree", 4)?,
        cache_size: parse_usize(p, "--cache-size", default_cache)?,
    })
}

/// The same candidate set as `explain`: naive scan, basic prefix sum,
/// blocked prefix sum, tree-sum baseline.
fn build_router(a: &DenseArray<i64>, w: &Workload) -> Result<AdaptiveRouter<i64>, CliError> {
    Ok(AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
        .with_engine(Box::new(prefix_engine(a, PrefixChoice::Basic)?))
        .with_engine(Box::new(prefix_engine(
            a,
            PrefixChoice::Blocked(w.blocked),
        )?))
        .with_engine(Box::new(
            SumTreeEngine::build(a.clone(), w.tree).map_err(|e| CliError::Query(e.to_string()))?,
        )))
}

/// Runs the workload: `queries` routed range sums with `updates` batched
/// point updates spread evenly through the stream, everything through the
/// semantic cache (a 0-capacity cache is a pure router passthrough).
fn run_workload(
    cache: &SemanticCache<i64, AdaptiveRouter<i64>>,
    shape: &Shape,
    w: &Workload,
) -> Result<(), CliError> {
    let queries = mixed_queries(shape, w.queries, w.seed);
    let every = if w.updates == 0 {
        usize::MAX
    } else {
        (w.queries / (w.updates + 1)).max(1)
    };
    let mut applied = 0usize;
    for (i, q) in queries.iter().enumerate() {
        cache
            .range_sum(q)
            .map_err(|e| CliError::Query(e.to_string()))?;
        if applied < w.updates && (i + 1) % every == 0 {
            let r = mix(w.seed ^ ((applied as u64) << 32));
            let idx: Vec<usize> = shape
                .dims()
                .iter()
                .enumerate()
                .map(|(d, &n)| (mix(r ^ d as u64) as usize) % n)
                .collect();
            let value = (r % 2000) as i64 - 1000;
            cache
                .apply_updates(&[(idx, value)])
                .map_err(|e| CliError::Query(e.to_string()))?;
            applied += 1;
        }
    }
    Ok(())
}

/// The §8 cost-model check appended to the Prometheus dump, as comment
/// lines: per engine, mean observed accesses vs mean analytic estimate
/// over the queries the router sent to it.
fn cost_model_report(ctx: &Telemetry) -> String {
    let mut by_engine: BTreeMap<String, (u64, f64, u64)> = BTreeMap::new();
    for r in ctx.recorder().snapshot() {
        if r.op != "range_sum" || !r.predicted.is_finite() {
            continue;
        }
        let e = by_engine.entry(r.engine).or_insert((0, 0.0, 0));
        e.0 += 1;
        e.1 += r.predicted;
        e.2 += r.observed;
    }
    let mut out = String::from(
        "# §8 cost-model check (from the flight recorder): mean observed accesses\n\
         # vs mean analytic estimate, per engine, over the queries routed to it.\n",
    );
    for (engine, (n, est_sum, obs_sum)) in by_engine {
        let mean_est = est_sum / n as f64;
        let mean_obs = obs_sum as f64 / n as f64;
        let ratio = if mean_est > 0.0 {
            mean_obs / mean_est
        } else {
            f64::NAN
        };
        out.push_str(&format!(
            "# cost-model{{engine=\"{engine}\"}} queries={n} \
             mean_observed={mean_obs:.2} mean_estimate={mean_est:.2} ratio={ratio:.3}\n"
        ));
    }
    out
}

/// `metrics`: run the workload, print the registry.
pub(crate) fn cmd_metrics(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let w = parse_workload(&p, 256)?;
    let format = p.get("--format").unwrap_or("prom");
    if format != "prom" && format != "json" {
        return Err(usage("--format must be prom or json"));
    }
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let cache = SemanticCache::new(build_router(&a, &w)?, w.cache_size);
    // Flight capacity covers the whole workload so the cost-model check
    // sees every routed query, not just the newest window.
    let ctx = Arc::new(Telemetry::with_flight_capacity(w.queries.max(1)));
    olap_telemetry::with_scope(&ctx, || run_workload(&cache, a.shape(), &w))?;
    if format == "json" {
        return Ok(ctx.registry().render_json());
    }
    let mut out = ctx.registry().render_prometheus();
    out.push_str(&cost_model_report(&ctx));
    Ok(out)
}

/// `flight-record`: run the workload, dump the recorder's last N
/// per-query decisions as JSON.
pub(crate) fn cmd_flight_record(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    // The recorder's subject is router decisions, so the cache defaults
    // off here (cache hits never reach the router).
    let w = parse_workload(&p, 0)?;
    let capacity = parse_usize(&p, "--capacity", olap_telemetry::DEFAULT_FLIGHT_CAPACITY)?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let cache = SemanticCache::new(build_router(&a, &w)?, w.cache_size);
    let ctx = Arc::new(Telemetry::with_flight_capacity(capacity));
    olap_telemetry::with_scope(&ctx, || run_workload(&cache, a.shape(), &w))?;
    Ok(ctx.recorder().to_json())
}
