//! The `serve` command: boot a sharded [`CubeServer`] over a stored
//! cube, drive the seeded concurrent load driver against it, and print a
//! serving report — per-shard slab extents, snapshot epochs, reclamation
//! lag, parts in flight, and the oracle verdict. Every driver answer must be
//! bit-identical to the pre- or post-update sequential oracle; any torn
//! read fails the command with a non-zero exit, so it doubles as the CI
//! smoke leg for the snapshot-isolation contract.
//!
//! `--cache-size N` sizes the per-shard semantic result caches (0
//! disables them) and `--zipf-pool N` switches the driver to the
//! Zipf-skewed repeat-heavy workload those caches exploit; the report
//! gains a cache line (exact hits, hit rate, region-wise invalidations).
//!
//! `--degrade` arms graceful degradation ([`olap_array::DegradePolicy`]):
//! each shard registers an approximate answering tier, and queries that
//! trip the budget — pair it with `--max-accesses N` to apply pressure —
//! come back as bounded-error estimates instead of errors. The driver
//! then checks each estimate's guaranteed interval against the oracle
//! pair (exact answers stay bit-identical), and the report gains a
//! `degraded:` line. An interval that excludes both oracle states counts
//! as a mismatch and fails the command, so the degrade leg is as
//! CI-enforceable as the exact one.
//!
//! `--metrics-addr HOST:PORT` runs the drill inside a telemetry scope
//! and serves the live registry over HTTP (`/metrics` Prometheus text
//! with per-shard p50/p95/p99 latency gauges, `/metrics.json`) during
//! the drill and for `--metrics-hold-ms` afterwards — long enough for a
//! scraper to observe a finished run. `--slo-p99-ms MS` declares a
//! per-shard tail latency objective ([`olap_server::SloSpec`], carried
//! through [`ServeConfig::slo`]); any shard whose p99 exceeds it fails
//! the command with the violation report.

use crate::args::{split_args, usage, CliError};
use crate::chaos_cmd::mix;
use olap_array::{DenseArray, QueryBudget};
use olap_engine::FaultPlan;
use olap_server::{drive_load, CubeServer, LoadSpec, ServeConfig, SloSpec};
use olap_storage as storage;

fn parse_usize(
    args: &crate::args::ParsedArgs,
    flag: &str,
    default: usize,
) -> Result<usize, CliError> {
    match args.get(flag) {
        Some(s) => s
            .parse()
            .map_err(|_| usage(format!("{flag} must be a non-negative integer"))),
        None => Ok(default),
    }
}

/// Everything the serving drill needs, parsed once so the plain and the
/// telemetry-scoped paths share one entry point.
struct ServeParams {
    shards: usize,
    phases: usize,
    queries: usize,
    readers: usize,
    batch: usize,
    cache_size: usize,
    zipf_pool: usize,
    seed: u64,
    error_pm: u16,
    slo: Option<SloSpec>,
    degrade: bool,
    max_accesses: Option<u64>,
}

fn parse_params(p: &crate::args::ParsedArgs) -> Result<ServeParams, CliError> {
    let slo = match p.get("--slo-p99-ms") {
        Some(s) => {
            let ms: u64 = s
                .parse()
                .map_err(|_| usage("--slo-p99-ms must be a millisecond count"))?;
            Some(SloSpec::p99(std::time::Duration::from_millis(ms)))
        }
        None => None,
    };
    Ok(ServeParams {
        shards: parse_usize(p, "--shards", 4)?,
        phases: parse_usize(p, "--phases", 8)?,
        queries: parse_usize(p, "--queries", 48)?,
        readers: parse_usize(p, "--readers", 4)?,
        batch: parse_usize(p, "--batch", 3)?,
        cache_size: parse_usize(p, "--cache-size", 256)?,
        zipf_pool: parse_usize(p, "--zipf-pool", 0)?,
        seed: p
            .get("--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|_| usage("--seed must be an integer"))?,
        error_pm: match p.get("--error-rate") {
            Some(s) => s
                .parse()
                .map_err(|_| usage("--error-rate must be a per-mille rate (0..=1000)"))?,
            None => 0,
        },
        slo,
        degrade: p.has("--degrade"),
        max_accesses: match p.get("--max-accesses") {
            Some(s) => Some(
                s.parse()
                    .map_err(|_| usage("--max-accesses must be a positive access count"))?,
            ),
            None => None,
        },
    })
}

/// `serve`: sharded snapshot-isolated serving drill. See the module docs.
pub(crate) fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let params = parse_params(&p)?;
    let a = storage::read_dense_i64(&mut crate::commands::open_reader(cube_path)?)?;
    let metrics_addr = p.get("--metrics-addr");
    let hold_ms = parse_usize(&p, "--metrics-hold-ms", 0)? as u64;
    if metrics_addr.is_some() || params.slo.is_some() {
        return drill_observed(&a, &params, metrics_addr, hold_ms);
    }
    drill(&a, &params)
}

/// The drill inside a telemetry scope: optionally serve the registry
/// over HTTP while (and for `hold_ms` after) the load runs, then
/// evaluate the declared SLO against the recorded per-shard latency
/// quantiles.
fn drill_observed(
    a: &DenseArray<i64>,
    params: &ServeParams,
    metrics_addr: Option<&str>,
    hold_ms: u64,
) -> Result<String, CliError> {
    use olap_server::{publish_latency_quantiles, slo_report, MetricsServer};
    let ctx = std::sync::Arc::new(olap_telemetry::Telemetry::new());
    let endpoint = match metrics_addr {
        Some(addr) => Some(
            MetricsServer::bind(addr, std::sync::Arc::clone(&ctx))
                .map_err(|e| usage(format!("--metrics-addr {addr}: {e}")))?,
        ),
        None => None,
    };
    let mut text = olap_telemetry::with_scope(&ctx, || drill(a, params))?;
    publish_latency_quantiles(ctx.registry());
    if let Some(ep) = &endpoint {
        text.push_str(&format!(
            "\nmetrics: http://{}/metrics live for another {hold_ms}ms",
            ep.addr()
        ));
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    }
    if let Some(slo) = &params.slo {
        let violations = slo_report(ctx.registry(), slo);
        if violations.is_empty() {
            text.push_str("\nslo: every shard within objective");
        } else {
            let lines: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
            return Err(CliError::Query(format!(
                "latency SLO violated:\n{}\n{text}",
                lines.join("\n")
            )));
        }
    }
    Ok(text)
}

/// The core drill: boot the server, drive the load, render the report.
fn drill(a: &DenseArray<i64>, params: &ServeParams) -> Result<String, CliError> {
    let ServeParams {
        shards,
        phases,
        queries,
        readers,
        batch,
        cache_size,
        zipf_pool,
        seed,
        error_pm,
        slo,
        degrade,
        max_accesses,
    } = *params;
    let faults = (error_pm > 0).then(|| FaultPlan::seeded(mix(seed)).errors(error_pm));
    let mut budget = QueryBudget::unlimited();
    if let Some(n) = max_accesses {
        budget = budget.max_accesses(n);
    }
    if degrade {
        budget = budget.degrade();
    }
    let server = CubeServer::build(
        a,
        ServeConfig {
            shards,
            faults,
            cache_size,
            slo,
            budget,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| CliError::Query(e.to_string()))?;
    let spec = LoadSpec {
        phases,
        queries_per_phase: queries,
        readers,
        batch,
        seed,
        zipf_pool,
    };
    let report = drive_load(&server, a, &spec).map_err(|e| CliError::Query(e.to_string()))?;

    let mut out = Vec::new();
    out.push(format!(
        "serve: {} shards over a {:?} cube (seed {seed}{})",
        server.shards(),
        a.shape().dims(),
        if error_pm > 0 {
            format!(", error {error_pm}\u{2030} on precomputed engines")
        } else {
            String::new()
        }
    ));
    out.push(String::from(
        "shard  rows          epoch  live  lag  inflight",
    ));
    for s in server.shard_stats() {
        out.push(format!(
            "{:>5}  {:>4}..{:<6} {:>6} {:>5} {:>4} {:>9}",
            s.shard,
            s.rows.0,
            s.rows.1,
            s.epochs.epoch,
            s.epochs.live_snapshots,
            s.epochs.reclamation_lag,
            s.queue_depth,
        ));
    }
    out.push(format!(
        "load: {} phases x {} queries across {} readers, {} update installs",
        report.phases, queries, report.readers, report.updates
    ));
    if degrade {
        out.push(format!(
            "answers: {}/{} consistent with a pre- or post-update oracle \
             (exact bit-identical, estimates by interval), {} mismatches",
            report.answers - report.mismatches,
            report.answers,
            report.mismatches
        ));
        out.push(format!(
            "degraded: {}/{} answers served as bounded-error estimates, \
             every interval checked against the oracle pair",
            report.degraded, report.answers
        ));
    } else {
        out.push(format!(
            "answers: {}/{} bit-identical to a pre- or post-update oracle, {} mismatches",
            report.answers - report.mismatches,
            report.answers,
            report.mismatches
        ));
    }
    if cache_size == 0 {
        out.push(String::from("cache: disabled (--cache-size 0)"));
    } else {
        let c = report.cache;
        out.push(format!(
            "cache: {} exact hits / {} sum lookups ({:.1}% hit rate), \
             {} invalidations, {} entries live",
            c.hits,
            c.lookups(),
            c.hit_rate() * 100.0,
            c.invalidations,
            c.entries
        ));
    }
    let verdict = if report.passed() { "OK" } else { "FAIL" };
    out.push(format!("snapshot isolation: {verdict}"));
    let text = out.join("\n");
    if report.passed() {
        Ok(text)
    } else {
        Err(CliError::Query(format!(
            "snapshot-isolation contract violated\n{text}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;
    use olap_workload::uniform_cube;

    fn cube_file(seed: u64) -> std::path::PathBuf {
        let a = uniform_cube(Shape::new(&[24, 10]).unwrap(), 500, seed);
        let path = std::env::temp_dir().join(format!("olap-serve-test-{seed}.olap"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        storage::write_dense_i64(&mut f, &a).unwrap();
        path
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        cmd_serve(&owned)
    }

    #[test]
    fn serve_report_passes_on_a_clean_run() {
        let path = cube_file(71);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "4",
            "--phases",
            "4",
            "--queries",
            "24",
            "--readers",
            "3",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(out.contains("serve: 4 shards over"), "{out}");
        assert!(out.contains("0 mismatches"), "{out}");
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chaos_serve_report_survives_injected_errors() {
        let path = cube_file(73);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "3",
            "--phases",
            "3",
            "--queries",
            "18",
            "--readers",
            "2",
            "--seed",
            "5",
            "--error-rate",
            "150",
        ])
        .unwrap();
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zipf_workload_reports_cache_hits() {
        let path = cube_file(79);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--phases",
            "4",
            "--queries",
            "32",
            "--readers",
            "2",
            "--seed",
            "11",
            "--zipf-pool",
            "8",
        ])
        .unwrap();
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        assert!(out.contains("% hit rate"), "{out}");
        // A pool of 8 regions over 4×32 queries repeats heavily; the
        // caches must convert some of that into hits.
        assert!(!out.contains("(0.0% hit rate)"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cache_size_zero_disables_the_cache() {
        let path = cube_file(83);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--phases",
            "2",
            "--queries",
            "12",
            "--cache-size",
            "0",
        ])
        .unwrap();
        assert!(out.contains("cache: disabled"), "{out}");
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_requires_a_cube() {
        assert!(run(&["--shards", "4"]).is_err());
    }

    #[test]
    fn degrade_under_budget_pressure_passes_with_estimates() {
        let path = cube_file(101);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "3",
            "--phases",
            "4",
            "--queries",
            "24",
            "--seed",
            "13",
            "--max-accesses",
            "2",
            "--degrade",
        ])
        .unwrap();
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        assert!(out.contains("0 mismatches"), "{out}");
        let degraded: u64 = out
            .lines()
            .find(|l| l.starts_with("degraded: "))
            .and_then(|l| l.split(['/', ' ']).nth(1)?.parse().ok())
            .unwrap_or_else(|| panic!("no degraded line in {out}"));
        assert!(degraded > 0, "budget pressure produced no estimates: {out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn budget_pressure_without_degrade_fails_fast() {
        let path = cube_file(103);
        let err = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--phases",
            "2",
            "--queries",
            "12",
            "--max-accesses",
            "2",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn degrade_without_pressure_stays_exact() {
        let path = cube_file(107);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--phases",
            "2",
            "--queries",
            "12",
            "--degrade",
        ])
        .unwrap();
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        assert!(out.contains("degraded: 0/"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_endpoint_and_lax_slo_pass() {
        let path = cube_file(89);
        let out = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--phases",
            "2",
            "--queries",
            "12",
            "--metrics-addr",
            "127.0.0.1:0",
            "--slo-p99-ms",
            "60000",
        ])
        .unwrap();
        assert!(out.contains("metrics: http://127.0.0.1:"), "{out}");
        assert!(out.contains("slo: every shard within objective"), "{out}");
        assert!(out.contains("snapshot isolation: OK"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn impossible_slo_fails_with_the_violation_report() {
        let path = cube_file(97);
        let err = run(&[
            "--cube",
            path.to_str().unwrap(),
            "--phases",
            "2",
            "--queries",
            "12",
            "--slo-p99-ms",
            "0",
        ])
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("latency SLO violated"), "{text}");
        assert!(text.contains("exceeds SLO"), "{text}");
        std::fs::remove_file(path).ok();
    }
}
