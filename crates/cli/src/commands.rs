//! The CLI commands. Each returns its human-readable output as a string,
//! so tests can run commands without process spawning.

use crate::args::{parse_dims, parse_query, parse_set, split_args, usage, CliError};
use crate::csv::cube_from_csv;
use crate::telemetry_cmd::{cmd_flight_record, cmd_metrics};
use crate::trace_cmd::cmd_trace;
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::QueryCtx;
use olap_range_max::{NaturalMaxTree, PointUpdate, SearchOptions};
use olap_storage as storage;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "olap-cli — range queries over OLAP data cubes (SIGMOD'97)

commands:
  gen      --dims N,N[,N…] [--max V] [--seed S] --out FILE      generate a cube
  from-csv --dims N,N[,N…] --out FILE CSVFILE                   load a cube from CSV
  build    --cube FILE (--prefix | --blocked B | --max-tree B | --min-tree B) --out FILE
  sum      --index FILE [--cube FILE] --query Q [--stats] [--bounds] [--explain]
  max      --cube FILE --index FILE --query Q [--stats]
  min      --cube FILE --index FILE --query Q [--stats]
  update   --cube FILE [--index FILE…] --set i,j,…=v [--set …]
  estimate --cube FILE --query Q [--op sum|max|min] [--block B] [--stats]
           bounded-error approximate answer from the anchor grid alone: a
           point estimate plus a guaranteed [lower, upper] interval that
           always contains the exact answer (the serve --degrade tier)
  explain  --cube FILE --query Q [--blocked B] [--tree B]       routed query + cost table
  repl     --cube FILE [--index FILE…]                          interactive session
  plan     --dims N,N[,N…] --log FILE --budget CELLS            §9 physical design
  metrics  --cube FILE [--queries N] [--updates U] [--seed S] [--cache-size N]
           [--format prom|json]
           run a seeded mixed workload through a semantic cache in front of
           the router, dump the metric registry (cache counters included)
  flight-record --cube FILE [--queries N] [--seed S] [--capacity N] [--cache-size N]
           same workload, dump the last-N per-query flight records as JSON
           (each record carries its cache outcome: exact/miss/bypass)
  trace    --out FILE [--cube FILE | --dims N,N[,N…]] [--queries N] [--shards N]
           [--seed S] [--slow-ms MS]
           serve a traced seeded workload and export every query's span tree
           (shard exec, cache lookup, router dispatch, kernel exec, merge) as
           Chrome trace-event JSON for chrome://tracing or Perfetto;
           --slow-ms keeps full trees of over-threshold queries in a ring
  chaos    --cube FILE [--queries N] [--updates U] [--seed S] [--error-rate PM] [--panic-rate PM]
           [--degrade]
           run the workload with seeded fault injection on every engine and
           print a resilience report (failovers, quarantines, contained panics);
           --degrade arms the approximate tier so the zero-deadline drill
           returns bounded estimates instead of typed errors
  serve    --cube FILE [--shards N] [--phases P] [--queries N] [--readers R]
           [--batch B] [--seed S] [--error-rate PM] [--cache-size N]
           [--zipf-pool N] [--degrade] [--max-accesses N]
           boot the sharded snapshot-isolated server, drive concurrent readers
           against racing update installs, verify every answer is the pre- or
           post-update oracle, and print the serving report (per-shard
           semantic caches answer repeat sums; --cache-size 0 disables,
           --zipf-pool N draws queries Zipf-skewed from a pool of N regions;
           --degrade serves budget-tripped queries as bounded-error estimates
           checked against the oracle pair — pressure via --max-accesses N)
           [--metrics-addr HOST:PORT [--metrics-hold-ms MS]] [--slo-p99-ms MS]
           with telemetry: serve /metrics (Prometheus text, per-shard p50/p95/
           p99 latency gauges) and /metrics.json live during and MS after the
           drill; --slo-p99-ms fails the command when any shard's p99 exceeds it
  info     FILE

queries: per dimension `lo:hi`, a single index, or `all` — e.g. 3:17,all,5";

/// Dispatches a command line (without the binary name). Returns the
/// output to print.
///
/// # Errors
/// All usage, I/O, and validation failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| usage(format!("no command given\n\n{USAGE}")))?;
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "from-csv" => cmd_from_csv(rest),
        "build" => cmd_build(rest),
        "sum" => cmd_sum(rest),
        "max" => cmd_max(rest),
        "min" => cmd_min(rest),
        "update" => cmd_update(rest),
        "estimate" => cmd_estimate(rest),
        "explain" => cmd_explain(rest),
        "info" => cmd_info(rest),
        "plan" => cmd_plan(rest),
        "metrics" => cmd_metrics(rest),
        "flight-record" => cmd_flight_record(rest),
        "trace" => cmd_trace(rest),
        "chaos" => crate::chaos_cmd::cmd_chaos(rest),
        "serve" => crate::serve_cmd::cmd_serve(rest),
        "repl" => {
            let stdin = std::io::stdin();
            let mut input = stdin.lock();
            let mut output = Vec::new();
            let n = crate::repl::run_repl(rest, &mut input, &mut output)?;
            let mut text = String::from_utf8_lossy(&output).into_owned();
            text.push_str(&format!("\n({n} commands)"));
            Ok(text)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

pub(crate) fn open_reader(path: &str) -> Result<BufReader<File>, CliError> {
    Ok(BufReader::new(
        File::open(path).map_err(storage::StorageError::Io)?,
    ))
}

fn open_writer(path: &str) -> Result<BufWriter<File>, CliError> {
    Ok(BufWriter::new(
        File::create(path).map_err(storage::StorageError::Io)?,
    ))
}

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let dims = parse_dims(p.require("--dims")?)?;
    let max: i64 = p
        .get("--max")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| usage("--max must be an integer"))?;
    let seed: u64 = p
        .get("--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| usage("--seed must be an integer"))?;
    let out = p.require("--out")?;
    let shape = olap_array::Shape::new(&dims).map_err(|e| CliError::Query(e.to_string()))?;
    let a = olap_workload::uniform_cube(shape, max.max(1), seed);
    storage::write_dense_i64(&mut open_writer(out)?, &a)?;
    Ok(format!(
        "wrote {:?} cube ({} cells) to {out}",
        dims,
        a.len()
    ))
}

fn cmd_from_csv(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let dims = parse_dims(p.require("--dims")?)?;
    let out = p.require("--out")?;
    let input = p
        .positional
        .first()
        .ok_or_else(|| usage("from-csv needs a CSV file argument"))?;
    let mut text = String::new();
    open_reader(input)?
        .read_to_string(&mut text)
        .map_err(storage::StorageError::Io)?;
    let a = cube_from_csv(&dims, &text)?;
    let nonzero = a.as_slice().iter().filter(|&&v| v != 0).count();
    storage::write_dense_i64(&mut open_writer(out)?, &a)?;
    Ok(format!(
        "loaded {input}: {:?} cube, {nonzero} non-zero cells → {out}",
        dims
    ))
}

fn cmd_build(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let out = p.require("--out")?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    if p.has("--prefix") {
        let ps = PrefixSumCube::build(&a);
        storage::write_prefix_sum(&mut open_writer(out)?, &ps)?;
        return Ok(format!(
            "built basic prefix-sum array ({} cells) → {out}",
            ps.prefix_array().len()
        ));
    }
    if let Some(b) = p.get("--blocked") {
        let b: usize = b
            .parse()
            .map_err(|_| usage("--blocked needs a block size"))?;
        let bp = BlockedPrefixCube::build(&a, b).map_err(|e| CliError::Query(e.to_string()))?;
        storage::write_blocked_prefix(&mut open_writer(out)?, &bp)?;
        return Ok(format!(
            "built blocked prefix-sum array (b={b}, {} packed cells) → {out}",
            bp.packed_array().len()
        ));
    }
    if let Some(b) = p.get("--max-tree") {
        let b: usize = b.parse().map_err(|_| usage("--max-tree needs a fanout"))?;
        let t = NaturalMaxTree::for_values(&a, b).map_err(|e| CliError::Query(e.to_string()))?;
        storage::write_max_tree(&mut open_writer(out)?, &t)?;
        return Ok(format!(
            "built range-max tree (b={b}, height {}, {} nodes) → {out}",
            t.height(),
            t.node_count()
        ));
    }
    if let Some(b) = p.get("--min-tree") {
        let b: usize = b.parse().map_err(|_| usage("--min-tree needs a fanout"))?;
        let t = olap_range_max::NaturalMinTree::for_min_values(&a, b)
            .map_err(|e| CliError::Query(e.to_string()))?;
        storage::write_min_tree(&mut open_writer(out)?, &t)?;
        return Ok(format!(
            "built range-min tree (b={b}, height {}, {} nodes) → {out}",
            t.height(),
            t.node_count()
        ));
    }
    Err(usage(
        "build needs one of --prefix, --blocked B, --max-tree B, --min-tree B",
    ))
}

fn cmd_sum(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let index_path = p.require("--index")?;
    let query = p.require("--query")?;
    if p.has("--explain") {
        return explain_sum_via_index(&p, index_path, query);
    }
    // Peek at the kind by trying each reader.
    if let Ok(ps) = storage::read_prefix_sum(&mut open_reader(index_path)?) {
        let region = parse_query(query, ps.shape().dims())?;
        let (v, stats) = QueryCtx::measure(|ctx| ps.read(&region, ctx))
            .map_err(|e| CliError::Query(e.to_string()))?;
        let mut out = format!("sum = {v}");
        if p.has("--stats") {
            out.push_str(&format!(
                "\naccesses: {} prefix cells (query volume {})",
                stats.p_cells,
                region.volume()
            ));
        }
        return Ok(out);
    }
    // Blocked prefix sums need the cube too.
    let bp = storage::read_blocked_prefix(&mut open_reader(index_path)?)?;
    let region = parse_query(query, bp.shape().dims())?;
    if p.has("--bounds") {
        let (bounds, stats) = bp
            .range_sum_bounds(&region)
            .map_err(|e| CliError::Query(e.to_string()))?;
        return Ok(format!(
            "bounds = [{}, {}] from {} prefix cells (exact sum needs --cube)",
            bounds.lower, bounds.upper, stats.p_cells
        ));
    }
    let cube_path = p
        .require("--cube")
        .map_err(|_| usage("a blocked index needs --cube for boundary cells"))?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let (v, stats) = QueryCtx::measure(|ctx| bp.read(&a, &region, BoundaryPolicy::Auto, ctx))
        .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = format!("sum = {v}");
    if p.has("--stats") {
        out.push_str(&format!(
            "\naccesses: {} prefix cells + {} cube cells (query volume {})",
            stats.p_cells,
            stats.a_cells,
            region.volume()
        ));
    }
    Ok(out)
}

/// Builds a sequential `CubeIndex` engine over `a` with the given prefix
/// structure and nothing else.
pub(crate) fn prefix_engine(
    a: &olap_array::DenseArray<i64>,
    prefix: olap_engine::PrefixChoice,
) -> Result<olap_engine::CubeIndex<i64>, CliError> {
    let config = olap_engine::IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
    };
    olap_engine::CubeIndex::build(a.clone(), config).map_err(|e| CliError::Query(e.to_string()))
}

/// `sum --explain`: route between the naive scan and the structure stored
/// in `--index`, reporting predicted vs observed cost.
fn explain_sum_via_index(
    p: &crate::args::ParsedArgs,
    index_path: &str,
    query: &str,
) -> Result<String, CliError> {
    use olap_engine::{AdaptiveRouter, NaiveEngine, RangeEngine};
    let cube_path = p
        .require("--cube")
        .map_err(|_| usage("sum --explain needs --cube to build candidate engines"))?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let q = crate::args::parse_range_query(query, a.shape().dims())?;
    let indexed: Box<dyn RangeEngine<i64>> =
        if storage::read_prefix_sum(&mut open_reader(index_path)?).is_ok() {
            Box::new(prefix_engine(&a, olap_engine::PrefixChoice::Basic)?)
        } else {
            let bp = storage::read_blocked_prefix(&mut open_reader(index_path)?)?;
            Box::new(prefix_engine(
                &a,
                olap_engine::PrefixChoice::Blocked(bp.block_size()),
            )?)
        };
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(a)))
        .with_engine(indexed);
    let e = router
        .explain(&q)
        .map_err(|e| CliError::Query(e.to_string()))?;
    Ok(e.to_string())
}

/// `estimate`: answer from the blocked anchor grid alone — the degrade
/// tier's output, surfaced directly so operators can inspect what a
/// budget-pressured `serve --degrade` would return for a query.
fn cmd_estimate(args: &[String]) -> Result<String, CliError> {
    use olap_engine::{ApproxEngine, EngineOp};
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let query = p.require("--query")?;
    let op = match p.get("--op").unwrap_or("sum") {
        "sum" => EngineOp::Sum,
        "max" => EngineOp::Max,
        "min" => EngineOp::Min,
        other => {
            return Err(usage(format!(
                "--op must be sum, max, or min, not {other:?}"
            )))
        }
    };
    let block: usize = p
        .get("--block")
        .unwrap_or("8")
        .parse()
        .map_err(|_| usage("--block needs a positive block size"))?;
    if block == 0 {
        return Err(usage("--block must be at least 1"));
    }
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let region = parse_query(query, a.shape().dims())?;
    let engine = ApproxEngine::build(a, block).map_err(|e| CliError::Query(e.to_string()))?;
    let (est, stats) = match op {
        EngineOp::Sum => engine.estimate_sum(&region),
        _ => engine.estimate_extremum(&region, op),
    }
    .map_err(|e| CliError::Query(e.to_string()))?;
    let op_word = match op {
        EngineOp::Max => "max",
        EngineOp::Min => "min",
        _ => "sum",
    };
    let mut out = format!(
        "estimate {} = {} in [{}, {}] (±{}, {:.1}% of cells exact)",
        op_word,
        est.value,
        est.lower,
        est.upper,
        est.error_bound,
        est.fraction_exact * 100.0
    );
    if est.is_exact() {
        out.push_str("\nthe interval is tight: this estimate is exact");
    }
    if p.has("--stats") {
        out.push_str(&format!(
            "\naccesses: {} anchor cells + {} cube cells (query volume {}, b = {block})",
            stats.p_cells,
            stats.a_cells,
            region.volume()
        ));
    }
    Ok(out)
}

/// `explain`: build a candidate set over the raw cube (naive scan, basic
/// prefix sum, blocked prefix sum, tree-sum baseline), route the query,
/// and print the full decision table.
fn cmd_explain(args: &[String]) -> Result<String, CliError> {
    use olap_engine::{AdaptiveRouter, NaiveEngine, SumTreeEngine};
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let query = p.require("--query")?;
    let blocked: usize = p
        .get("--blocked")
        .unwrap_or("16")
        .parse()
        .map_err(|_| usage("--blocked needs a block size"))?;
    let tree: usize = p
        .get("--tree")
        .unwrap_or("4")
        .parse()
        .map_err(|_| usage("--tree needs a fanout"))?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let q = crate::args::parse_range_query(query, a.shape().dims())?;
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
        .with_engine(Box::new(prefix_engine(
            &a,
            olap_engine::PrefixChoice::Basic,
        )?))
        .with_engine(Box::new(prefix_engine(
            &a,
            olap_engine::PrefixChoice::Blocked(blocked),
        )?))
        .with_engine(Box::new(
            SumTreeEngine::build(a, tree).map_err(|e| CliError::Query(e.to_string()))?,
        ));
    let e = router
        .explain(&q)
        .map_err(|e| CliError::Query(e.to_string()))?;
    Ok(e.to_string())
}

fn cmd_max(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let index_path = p.require("--index")?;
    let query = p.require("--query")?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let t = storage::read_max_tree(&mut open_reader(index_path)?)?;
    let region = parse_query(query, a.shape().dims())?;
    let ((idx, v), stats) =
        QueryCtx::measure(|ctx| t.read(&a, &region, SearchOptions::default(), ctx))
            .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = format!("max = {v} at {idx:?}");
    if p.has("--stats") {
        out.push_str(&format!(
            "\naccesses: {} tree nodes + {} cube cells (query volume {})",
            stats.tree_nodes,
            stats.a_cells,
            region.volume()
        ));
    }
    Ok(out)
}

fn cmd_min(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let index_path = p.require("--index")?;
    let query = p.require("--query")?;
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let t = storage::read_min_tree(&mut open_reader(index_path)?)?;
    let region = parse_query(query, a.shape().dims())?;
    let ((idx, v), stats) =
        QueryCtx::measure(|ctx| t.read(&a, &region, SearchOptions::default(), ctx))
            .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = format!("min = {v} at {idx:?}");
    if p.has("--stats") {
        out.push_str(&format!(
            "\naccesses: {} tree nodes + {} cube cells (query volume {})",
            stats.tree_nodes,
            stats.a_cells,
            region.volume()
        ));
    }
    Ok(out)
}

fn cmd_update(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let mut a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;
    let sets = p.all("--set");
    if sets.is_empty() {
        return Err(usage("update needs at least one --set i,j,…=v"));
    }
    let updates: Result<Vec<(Vec<usize>, i64)>, CliError> = sets
        .iter()
        .map(|s| parse_set(s, a.shape().dims()))
        .collect();
    let updates = updates?;
    let mut report = Vec::new();
    // Update each supplied index file with the appropriate batch
    // algorithm, then the cube itself.
    for index_path in p.all("--index") {
        if let Ok(mut ps) = storage::read_prefix_sum(&mut open_reader(index_path)?) {
            let deltas: Vec<CellUpdate<i64>> = updates
                .iter()
                .map(|(idx, v)| CellUpdate::new(idx, v - a.get(idx)))
                .collect();
            let regions =
                batch::apply_batch(&mut ps, &deltas).map_err(|e| CliError::Query(e.to_string()))?;
            storage::write_prefix_sum(&mut open_writer(index_path)?, &ps)?;
            report.push(format!(
                "{index_path}: batched update in {regions} regions (§5)"
            ));
        } else if let Ok(mut bp) = storage::read_blocked_prefix(&mut open_reader(index_path)?) {
            let deltas: Vec<CellUpdate<i64>> = updates
                .iter()
                .map(|(idx, v)| CellUpdate::new(idx, v - a.get(idx)))
                .collect();
            let regions = batch::apply_batch_blocked(&mut bp, &deltas)
                .map_err(|e| CliError::Query(e.to_string()))?;
            storage::write_blocked_prefix(&mut open_writer(index_path)?, &bp)?;
            report.push(format!(
                "{index_path}: blocked batched update in {regions} regions (§5.2)"
            ));
        } else if let Ok(mut t) = storage::read_max_tree(&mut open_reader(index_path)?) {
            let pts: Vec<PointUpdate<i64>> = updates
                .iter()
                .map(|(idx, v)| PointUpdate::new(idx, *v))
                .collect();
            let mut a2 = a.clone();
            t.batch_update(&mut a2, &pts)
                .map_err(|e| CliError::Query(e.to_string()))?;
            storage::write_max_tree(&mut open_writer(index_path)?, &t)?;
            report.push(format!("{index_path}: tag-protocol batch update (§7)"));
        } else if let Ok(mut t) = storage::read_min_tree(&mut open_reader(index_path)?) {
            let pts: Vec<PointUpdate<i64>> = updates
                .iter()
                .map(|(idx, v)| PointUpdate::new(idx, *v))
                .collect();
            let mut a2 = a.clone();
            t.batch_update(&mut a2, &pts)
                .map_err(|e| CliError::Query(e.to_string()))?;
            storage::write_min_tree(&mut open_writer(index_path)?, &t)?;
            report.push(format!(
                "{index_path}: tag-protocol batch update (§7, reversed order)"
            ));
        } else {
            return Err(usage(format!("{index_path}: unrecognized index artifact")));
        }
    }
    for (idx, v) in &updates {
        *a.get_mut(idx) = *v;
    }
    storage::write_dense_i64(&mut open_writer(cube_path)?, &a)?;
    report.push(format!("{cube_path}: {} cells updated", updates.len()));
    Ok(report.join("\n"))
}

/// Runs the §9 planner over a query-log file (one query per line, same
/// syntax as --query) and prints the recommended prefix sums.
fn cmd_plan(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let dims = parse_dims(p.require("--dims")?)?;
    let log_path = p.require("--log")?;
    let budget: f64 = p
        .require("--budget")?
        .parse()
        .map_err(|_| usage("--budget must be a cell count"))?;
    let mut text = String::new();
    open_reader(log_path)?
        .read_to_string(&mut text)
        .map_err(storage::StorageError::Io)?;
    let shape = olap_array::Shape::new(&dims).map_err(|e| CliError::Query(e.to_string()))?;
    let mut log = olap_query::QueryLog::new(shape.clone());
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let q = crate::args::parse_range_query(line, &dims)
            .map_err(|e| usage(format!("log line {}: {e}", lineno + 1)))?;
        log.push(q);
    }
    if log.is_empty() {
        return Err(usage("the query log is empty"));
    }
    let mut out = Vec::new();
    // §9.1: which dimensions deserve prefix sums at all.
    let chosen = olap_planner::choose_dimensions_heuristic(&log);
    out.push(format!(
        "dimension selection (§9.1): X' = {:?} of {} dimensions",
        chosen.iter().map(|d| d + 1).collect::<Vec<_>>(),
        dims.len()
    ));
    // §9.2: cuboids and block sizes under the budget.
    let planner = olap_planner::GreedyPlanner::new(shape, log.cuboid_stats(), budget);
    let plan = planner.plan();
    if plan.choices.is_empty() {
        out.push("no prefix sum fits the budget — queries will scan".into());
    }
    for c in &plan.choices {
        out.push(format!(
            "materialize prefix sum on {} with block size {}",
            c.cuboid, c.block
        ));
    }
    out.push(format!(
        "expected cost {:.0} accesses for {} queries (naive: {:.0}); space {:.0}/{budget:.0} cells",
        plan.total_cost,
        log.len(),
        planner.total_cost(&[]),
        plan.space_used
    ));
    Ok(out.join("\n"))
}

fn cmd_info(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let path = p
        .positional
        .first()
        .ok_or_else(|| usage("info needs a file argument"))?;
    if !Path::new(path).exists() {
        return Err(usage(format!("{path}: no such file")));
    }
    if let Ok(a) = storage::read_dense_i64(&mut open_reader(path)?) {
        let total: i64 = a.as_slice().iter().sum();
        return Ok(format!(
            "dense i64 cube: dims {:?}, {} cells, total {total}",
            a.shape().dims(),
            a.len()
        ));
    }
    if let Ok(a) = storage::read_dense_f64(&mut open_reader(path)?) {
        return Ok(format!(
            "dense f64 cube: dims {:?}, {} cells",
            a.shape().dims(),
            a.len()
        ));
    }
    if let Ok(c) = storage::read_sparse_cube(&mut open_reader(path)?) {
        return Ok(format!(
            "sparse i64 cube: dims {:?}, {} points (density {:.2}%)",
            c.shape().dims(),
            c.len(),
            c.density() * 100.0
        ));
    }
    if let Ok(ps) = storage::read_prefix_sum(&mut open_reader(path)?) {
        return Ok(format!(
            "basic prefix-sum array (§3): dims {:?}, {} cells",
            ps.shape().dims(),
            ps.prefix_array().len()
        ));
    }
    if let Ok(bp) = storage::read_blocked_prefix(&mut open_reader(path)?) {
        return Ok(format!(
            "blocked prefix-sum array (§4): cube dims {:?}, b = {}, {} packed cells",
            bp.shape().dims(),
            bp.block_size(),
            bp.packed_array().len()
        ));
    }
    if let Ok(t) = storage::read_max_tree(&mut open_reader(path)?) {
        return Ok(format!(
            "range-max tree (§6): cube dims {:?}, fanout {}, height {}, {} nodes",
            t.shape().dims(),
            t.fanout(),
            t.height(),
            t.node_count()
        ));
    }
    if let Ok(t) = storage::read_min_tree(&mut open_reader(path)?) {
        return Ok(format!(
            "range-min tree (§6 reversed): cube dims {:?}, fanout {}, height {}, {} nodes",
            t.shape().dims(),
            t.fanout(),
            t.height(),
            t.node_count()
        ));
    }
    Err(usage(format!("{path}: not an OLAPCUBE artifact")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_s(parts: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run(&args)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("olap-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_build_query_roundtrip() {
        let cube = tmp("t1.olap");
        let psum = tmp("t1.psum");
        run_s(&[
            "gen", "--dims", "8,8", "--max", "50", "--seed", "3", "--out", &cube,
        ])
        .unwrap();
        run_s(&["build", "--cube", &cube, "--prefix", "--out", &psum]).unwrap();
        let out = run_s(&["sum", "--index", &psum, "--query", "1:6,2:5", "--stats"]).unwrap();
        assert!(out.starts_with("sum = "), "{out}");
        assert!(out.contains("prefix cells"), "{out}");
        // Against ground truth.
        let a = storage::read_dense_i64(&mut open_reader(&cube).unwrap()).unwrap();
        let region = parse_query("1:6,2:5", a.shape().dims()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        assert!(out.contains(&format!("sum = {expected}")), "{out}");
    }

    #[test]
    fn blocked_and_max_flow() {
        let cube = tmp("t2.olap");
        let bps = tmp("t2.bps");
        let maxt = tmp("t2.maxt");
        run_s(&["gen", "--dims", "12,12", "--seed", "9", "--out", &cube]).unwrap();
        run_s(&["build", "--cube", &cube, "--blocked", "4", "--out", &bps]).unwrap();
        run_s(&["build", "--cube", &cube, "--max-tree", "3", "--out", &maxt]).unwrap();
        let sum = run_s(&[
            "sum", "--index", &bps, "--cube", &cube, "--query", "2:9,all",
        ])
        .unwrap();
        assert!(sum.starts_with("sum = "));
        let bounds = run_s(&["sum", "--index", &bps, "--query", "2:9,all", "--bounds"]).unwrap();
        assert!(bounds.starts_with("bounds = ["), "{bounds}");
        let max = run_s(&[
            "max", "--cube", &cube, "--index", &maxt, "--query", "0:11,3:8",
        ])
        .unwrap();
        assert!(max.starts_with("max = "), "{max}");
    }

    #[test]
    fn min_tree_flow() {
        let cube = tmp("t7.olap");
        let mint = tmp("t7.mint");
        run_s(&["gen", "--dims", "10,10", "--seed", "2", "--out", &cube]).unwrap();
        run_s(&["build", "--cube", &cube, "--min-tree", "2", "--out", &mint]).unwrap();
        let out = run_s(&[
            "min", "--cube", &cube, "--index", &mint, "--query", "all,all",
        ])
        .unwrap();
        assert!(out.starts_with("min = "), "{out}");
        assert!(run_s(&["info", &mint]).unwrap().contains("range-min tree"));
        // Update keeps the min tree live.
        run_s(&[
            "update", "--cube", &cube, "--index", &mint, "--set", "3,3=-777",
        ])
        .unwrap();
        let out = run_s(&[
            "min", "--cube", &cube, "--index", &mint, "--query", "all,all",
        ])
        .unwrap();
        assert!(out.contains("min = -777"), "{out}");
    }

    #[test]
    fn csv_ingestion() {
        let csv = tmp("t3.csv");
        let cube = tmp("t3.olap");
        std::fs::write(&csv, "0,0,5\n1,1,7\n0,0,2\n").unwrap();
        let out = run_s(&["from-csv", "--dims", "2,2", "--out", &cube, &csv]).unwrap();
        assert!(out.contains("2 non-zero cells"), "{out}");
        let info = run_s(&["info", &cube]).unwrap();
        assert!(info.contains("total 14"), "{info}");
    }

    #[test]
    fn update_keeps_indexes_consistent() {
        let cube = tmp("t4.olap");
        let psum = tmp("t4.psum");
        let maxt = tmp("t4.maxt");
        run_s(&["gen", "--dims", "6,6", "--seed", "1", "--out", &cube]).unwrap();
        run_s(&["build", "--cube", &cube, "--prefix", "--out", &psum]).unwrap();
        run_s(&["build", "--cube", &cube, "--max-tree", "2", "--out", &maxt]).unwrap();
        let report = run_s(&[
            "update", "--cube", &cube, "--index", &psum, "--index", &maxt, "--set", "0,0=999",
            "--set", "5,5=-7",
        ])
        .unwrap();
        assert!(report.contains("regions"), "{report}");
        // The persisted prefix sum equals a rebuild of the persisted cube.
        let a = storage::read_dense_i64(&mut open_reader(&cube).unwrap()).unwrap();
        assert_eq!(*a.get(&[0, 0]), 999);
        let ps = storage::read_prefix_sum(&mut open_reader(&psum).unwrap()).unwrap();
        let rebuilt = PrefixSumCube::build(&a);
        assert_eq!(
            ps.prefix_array().as_slice(),
            rebuilt.prefix_array().as_slice()
        );
        // The persisted max tree answers correctly.
        let t = storage::read_max_tree(&mut open_reader(&maxt).unwrap()).unwrap();
        t.check_invariants(&a).unwrap();
        let out = run_s(&[
            "max", "--cube", &cube, "--index", &maxt, "--query", "all,all",
        ])
        .unwrap();
        assert!(out.contains("max = 999"), "{out}");
    }

    #[test]
    fn estimate_command_brackets_the_exact_answer() {
        let cube = tmp("t12.olap");
        run_s(&["gen", "--dims", "20,12", "--seed", "6", "--out", &cube]).unwrap();
        let a = storage::read_dense_i64(&mut open_reader(&cube).unwrap()).unwrap();
        let region = parse_query("3:17,2:9", a.shape().dims()).unwrap();
        let truth = a.fold_region(&region, 0i64, |s, &x| s + x);
        let out = run_s(&[
            "estimate", "--cube", &cube, "--query", "3:17,2:9", "--stats",
        ])
        .unwrap();
        assert!(out.starts_with("estimate sum = "), "{out}");
        assert!(out.contains("anchor cells"), "{out}");
        // The printed interval must contain the sequential oracle.
        let (lo, hi) = {
            let inner = out
                .split('[')
                .nth(1)
                .and_then(|s| s.split(']').next())
                .unwrap_or_else(|| panic!("no interval in {out}"));
            let mut parts = inner.split(',');
            let lo: i64 = parts.next().unwrap().trim().parse().unwrap();
            let hi: i64 = parts.next().unwrap().trim().parse().unwrap();
            (lo, hi)
        };
        assert!(lo <= truth && truth <= hi, "{truth} outside [{lo}, {hi}]");
        // An anchor-aligned query is exact — and says so.
        let exact = run_s(&[
            "estimate", "--cube", &cube, "--query", "all,all", "--block", "4",
        ])
        .unwrap();
        assert!(exact.contains("this estimate is exact"), "{exact}");
        let total: i64 = a.as_slice().iter().sum();
        assert!(exact.contains(&format!("= {total} in")), "{exact}");
        // Extrema degrade too.
        let max = run_s(&[
            "estimate",
            "--cube",
            &cube,
            "--query",
            "1:18,0:11",
            "--op",
            "max",
        ])
        .unwrap();
        assert!(max.starts_with("estimate max = "), "{max}");
        // Bad op and bad block are usage errors.
        let err = run_s(&[
            "estimate", "--cube", &cube, "--query", "all,all", "--op", "avg",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--op"), "{err}");
        let err = run_s(&[
            "estimate", "--cube", &cube, "--query", "all,all", "--block", "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--block"), "{err}");
    }

    #[test]
    fn explain_command_prints_cost_table() {
        let cube = tmp("t8.olap");
        run_s(&["gen", "--dims", "32,32", "--seed", "4", "--out", &cube]).unwrap();
        let out = run_s(&["explain", "--cube", &cube, "--query", "2:29,0:31"]).unwrap();
        assert!(out.contains("candidate"), "{out}");
        assert!(out.contains("naive-scan"), "{out}");
        assert!(out.contains("cube-index(basic-prefix)"), "{out}");
        assert!(out.contains("cube-index(blocked b=16)"), "{out}");
        assert!(out.contains("tree-sum(b=4)"), "{out}");
        assert!(out.contains("observed:"), "{out}");
        // A large query must route to the basic prefix sum (2^d accesses).
        assert!(out.contains("basic prefix sum"), "{out}");
    }

    #[test]
    fn sum_explain_reports_predicted_vs_observed() {
        let cube = tmp("t9.olap");
        let psum = tmp("t9.psum");
        run_s(&["gen", "--dims", "16,16", "--seed", "5", "--out", &cube]).unwrap();
        run_s(&["build", "--cube", &cube, "--prefix", "--out", &psum]).unwrap();
        let out = run_s(&[
            "sum",
            "--index",
            &psum,
            "--cube",
            &cube,
            "--query",
            "1:14,2:13",
            "--explain",
        ])
        .unwrap();
        assert!(out.contains("naive-scan"), "{out}");
        assert!(out.contains("cube-index(basic-prefix)"), "{out}");
        assert!(out.contains("observed:"), "{out}");
        assert!(out.contains("answer:"), "{out}");
        // Without --cube the flag is a usage error.
        let err = run_s(&["sum", "--index", &psum, "--query", "1:2,1:2", "--explain"]).unwrap_err();
        assert!(err.to_string().contains("--cube"), "{err}");
    }

    #[test]
    fn info_identifies_artifacts() {
        let cube = tmp("t5.olap");
        run_s(&["gen", "--dims", "4,4", "--out", &cube]).unwrap();
        assert!(run_s(&["info", &cube]).unwrap().contains("dense i64 cube"));
        assert!(run_s(&["info", "/nonexistent/x"]).is_err());
    }

    #[test]
    fn plan_command() {
        let log = tmp("t6.log");
        std::fs::write(&log, "10:200,all,50:79\n300:900,all,all\nall,3,all\n").unwrap();
        let out = run_s(&[
            "plan",
            "--dims",
            "1000,10,100",
            "--log",
            &log,
            "--budget",
            "20000",
        ])
        .unwrap();
        assert!(out.contains("dimension selection"), "{out}");
        assert!(out.contains("materialize prefix sum"), "{out}");
        assert!(out.contains("expected cost"), "{out}");
        // Bad log line reports its number.
        std::fs::write(&log, "10:2000,all,all\n").unwrap();
        let err = run_s(&[
            "plan",
            "--dims",
            "1000,10,100",
            "--log",
            &log,
            "--budget",
            "20000",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn metrics_command_validates_the_cost_model() {
        let cube = tmp("t10.olap");
        run_s(&["gen", "--dims", "48,48", "--seed", "11", "--out", &cube]).unwrap();
        let out = run_s(&[
            "metrics",
            "--cube",
            &cube,
            "--queries",
            "1000",
            "--seed",
            "7",
        ])
        .unwrap();
        // Per-engine access histograms made it into the dump.
        assert!(out.contains("olap_engine_accesses"), "{out}");
        assert!(out.contains("olap_router_route_total"), "{out}");
        assert!(out.contains("olap_batch_regions_total"), "{out}");
        // The semantic cache in front of the router surfaces its
        // counters and entry gauge.
        assert!(out.contains("olap_cache_misses_total"), "{out}");
        assert!(out.contains("olap_cache_entries"), "{out}");
        // The acceptance bar: over a 1000-query mixed
        // workload, each prefix-sum engine's mean observed accesses stays
        // within 2× of its mean analytic estimate.
        let mut prefix_lines = 0;
        for line in out.lines().filter(|l| l.starts_with("# cost-model{")) {
            let ratio: f64 = line
                .split("ratio=")
                .nth(1)
                .unwrap_or_else(|| panic!("no ratio in {line}"))
                .trim()
                .parse()
                .unwrap();
            if line.contains("prefix") {
                prefix_lines += 1;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "prefix engine drifted beyond 2× of estimate: {line}"
                );
            }
        }
        assert!(prefix_lines > 0, "no prefix engine got traffic:\n{out}");
    }

    #[test]
    fn metrics_json_and_flight_record() {
        let cube = tmp("t11.olap");
        run_s(&["gen", "--dims", "16,16", "--seed", "3", "--out", &cube]).unwrap();
        let json = run_s(&[
            "metrics",
            "--cube",
            &cube,
            "--queries",
            "60",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("olap_engine_queries_total"), "{json}");
        assert!(!json.contains("# cost-model"), "{json}");
        let flights = run_s(&[
            "flight-record",
            "--cube",
            &cube,
            "--queries",
            "60",
            "--capacity",
            "5",
        ])
        .unwrap();
        assert!(flights.contains("\"op\": \"range_sum\""), "{flights}");
        // Capacity bounds the dump: exactly 5 records survive of 60.
        assert_eq!(flights.matches("\"seq\":").count(), 5, "{flights}");
        assert!(flights.contains("\"seq\": 59"), "{flights}");
        // No cache on the default flight-record path: every record says so.
        assert!(flights.contains("\"cache\": \"bypass\""), "{flights}");
        assert!(!flights.contains("\"cache\": \"miss\""), "{flights}");
        // With a cache in front, each record carries its outcome.
        let cached = run_s(&[
            "flight-record",
            "--cube",
            &cube,
            "--queries",
            "40",
            "--cache-size",
            "64",
        ])
        .unwrap();
        assert!(cached.contains("\"cache\": \"miss\""), "{cached}");
        // Bad format is a usage error.
        let err = run_s(&["metrics", "--cube", &cube, "--format", "yaml"]).unwrap_err();
        assert!(err.to_string().contains("prom or json"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run_s(&[]).is_err());
        assert!(run_s(&["frobnicate"]).is_err());
        assert!(run_s(&["gen", "--dims", "4,4"]).is_err()); // missing --out
        let help = run_s(&["help"]).unwrap();
        assert!(help.contains("commands:"));
    }
}
