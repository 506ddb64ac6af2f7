//! The `chaos` command: run a seeded mixed workload through a router
//! whose engines are wrapped in [`FaultyEngine`] injectors, and verify
//! the fault-tolerance contract end to end — **every query gets either a
//! bit-identical correct answer or one typed error; no panic escapes; no
//! query hangs**. The command prints a resilience report (per-engine
//! health, fault-event counters, answer verification) and fails with a
//! non-zero exit if the contract is violated, so it doubles as a CI leg.
//!
//! `--degrade` registers the approximate tier and strengthens the
//! zero-deadline drill: instead of proving the deadline kills queries
//! with a typed error, it proves every zero-deadline query still gets a
//! bounded-error estimate whose interval contains the fault-free oracle.

use crate::args::{parse_usize, split_args, usage, CliError, ParsedArgs};
use crate::commands::{open_reader, prefix_engine};
use olap_array::{mix, DenseArray, Shape};
use olap_engine::{
    AdaptiveRouter, ApproxEngine, CubeIndex, EngineError, EngineOp, FaultPlan, FaultyEngine,
    IndexConfig, NaiveEngine, PrefixChoice, QueryBudget, RangeEngine, Routed, SumTreeEngine,
};
use olap_query::RangeQuery;
use olap_storage as storage;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A mixed query stream: round-robin over large uniform boxes, small
/// fixed-side boxes, and point lookups, all seeded.
pub(crate) fn mixed_queries(shape: &Shape, count: usize, seed: u64) -> Vec<RangeQuery> {
    let third = count.div_ceil(3);
    let small_side = shape
        .dims()
        .iter()
        .copied()
        .min()
        .unwrap_or(1)
        .div_ceil(4)
        .max(1);
    let families = [
        olap_workload::uniform_regions(shape, third, seed),
        olap_workload::sided_regions(shape, small_side, third, mix(seed)),
        olap_workload::sided_regions(shape, 1, third, mix(seed ^ 1)),
    ];
    let mut its: Vec<_> = families.into_iter().map(|f| f.into_iter()).collect();
    let mut out = Vec::with_capacity(count);
    'fill: loop {
        for it in &mut its {
            match it.next() {
                Some(r) => out.push(RangeQuery::from_region(&r)),
                None => break 'fill,
            }
            if out.len() == count {
                break 'fill;
            }
        }
    }
    out
}

fn parse_u16(p: &ParsedArgs, flag: &str, default: u16) -> Result<u16, CliError> {
    match p.get(flag) {
        Some(s) => s
            .parse()
            .map_err(|_| usage(format!("{flag} must be a per-mille rate (0..=1000)"))),
        None => Ok(default),
    }
}

/// The same candidate set as `explain`, but every engine wrapped in a
/// seeded fault injector. The naive scan additionally lies that it is the
/// cheapest candidate, so its faults are guaranteed to exercise failover
/// on every query shape.
fn chaotic_router(
    a: &DenseArray<i64>,
    seed: u64,
    error_pm: u16,
    panic_pm: u16,
) -> Result<AdaptiveRouter<i64>, CliError> {
    let plan = |i: u64| {
        FaultPlan::seeded(mix(seed ^ i))
            .errors(error_pm)
            .panics(panic_pm)
    };
    let engines: Vec<Box<dyn RangeEngine<i64>>> = vec![
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(prefix_engine(a, PrefixChoice::Basic)?),
        Box::new(prefix_engine(a, PrefixChoice::Blocked(16))?),
        Box::new(SumTreeEngine::build(a.clone(), 4).map_err(|e| CliError::Query(e.to_string()))?),
    ];
    let mut r = AdaptiveRouter::new();
    for (i, inner) in engines.into_iter().enumerate() {
        let mut p = plan(i as u64);
        if i == 0 {
            p = p.lie_cheapest();
        }
        r = r.with_engine(Box::new(FaultyEngine::new(inner, p)));
    }
    Ok(r)
}

/// `chaos`: the fault-injection drill. See the module docs.
pub(crate) fn cmd_chaos(args: &[String]) -> Result<String, CliError> {
    let p = split_args(args)?;
    let cube_path = p.require("--cube")?;
    let queries = parse_usize(&p, "--queries", 500)?;
    let updates = parse_usize(&p, "--updates", 3)?;
    let seed: u64 = p
        .get("--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| usage("--seed must be an integer"))?;
    let error_pm = parse_u16(&p, "--error-rate", 100)?;
    let panic_pm = parse_u16(&p, "--panic-rate", 10)?;
    let degrade = p.has("--degrade");
    let a = storage::read_dense_i64(&mut open_reader(cube_path)?)?;

    let chaotic = chaotic_router(&a, seed, error_pm, panic_pm)?;
    if degrade {
        chaotic.set_degrade_tier(std::sync::Arc::new(
            ApproxEngine::build(a.clone(), 8).map_err(|e| CliError::Query(e.to_string()))?,
        ));
    }
    // The fault-free oracle: a plain prefix-sum index over the same cube.
    let reference = CubeIndex::build(a.clone(), IndexConfig::default())
        .map_err(|e| CliError::Query(e.to_string()))?;
    let mut reference: Box<dyn RangeEngine<i64>> = Box::new(reference);

    // The injector's panics are expected and contained; silence their
    // default-hook output so the report isn't buried under backtraces.
    // Anything else (a real bug) still reaches the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected panic"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected panic"));
        if !injected {
            prev(info);
        }
    }));

    let stream = mixed_queries(a.shape(), queries, seed);
    let every = if updates == 0 {
        usize::MAX
    } else {
        (queries / (updates + 1)).max(1)
    };
    let (mut correct, mut mismatches, mut unanswered, mut escaped_panics) =
        (0u64, 0u64, 0u64, 0u64);
    let mut applied = 0usize;
    for (i, q) in stream.iter().enumerate() {
        let expected = reference
            .range_sum(q)
            .map_err(|e| CliError::Query(format!("reference engine failed: {e}")))?;
        // The router must never let a panic escape; catch here so the
        // report can *prove* it rather than assume it.
        match catch_unwind(AssertUnwindSafe(|| chaotic.range_sum(q))) {
            Ok(Ok(out)) => {
                if out.value() == expected.value() {
                    correct += 1;
                } else {
                    mismatches += 1;
                }
            }
            Ok(Err(_)) => unanswered += 1,
            Err(_) => escaped_panics += 1,
        }
        if applied < updates && (i + 1) % every == 0 {
            let r = mix(seed ^ ((applied as u64) << 32));
            let idx: Vec<usize> = a
                .shape()
                .dims()
                .iter()
                .enumerate()
                .map(|(d, &n)| (mix(r ^ d as u64) as usize) % n)
                .collect();
            let value = (r % 2000) as i64 - 1000;
            // Updates are never fault-injected; both sides must accept.
            chaotic
                .apply_updates(&[(idx.clone(), value)])
                .map_err(|e| CliError::Query(format!("chaos update failed: {e}")))?;
            let derived = reference
                .apply_updates(&[(idx, value)])
                .map_err(|e| CliError::Query(format!("reference update failed: {e}")))?;
            reference = derived.engine;
            applied += 1;
        }
    }

    // Deadline drill. Without `--degrade`, a zero allowance must kill the
    // very next query with a typed interrupt before any kernel work. With
    // it, the same impossible deadline must *still answer* — every query
    // degrades to a bounded estimate whose guaranteed interval contains
    // the fault-free oracle's exact sum.
    let (drill, drill_ok) = if degrade {
        chaotic.set_budget(QueryBudget::with_deadline(Duration::ZERO).degrade());
        let sample = stream.len().min(32);
        let (mut estimates, mut contained) = (0usize, 0usize);
        for q in &stream[..sample] {
            let truth = reference
                .range_sum(q)
                .map_err(|e| CliError::Query(format!("reference engine failed: {e}")))?
                .value()
                .copied()
                .unwrap_or(0);
            if let Ok(Routed::Degraded { estimate, .. }) = chaotic.answer(q, EngineOp::Sum) {
                estimates += 1;
                if estimate.lower <= truth
                    && truth <= estimate.upper
                    && estimate.error_bound < i64::MAX
                {
                    contained += 1;
                }
            }
        }
        let line = format!(
            "deadline drill: {estimates}/{sample} zero-deadline queries degraded to bounded \
             estimates, {contained}/{sample} intervals contain the oracle"
        );
        (line, estimates == sample && contained == sample)
    } else {
        chaotic.set_budget(QueryBudget::with_deadline(Duration::ZERO));
        let line = match chaotic.range_sum(&stream[0]) {
            Err(EngineError::DeadlineExceeded {
                elapsed_ns,
                limit_ns,
            }) => format!(
                "deadline drill: DeadlineExceeded after {elapsed_ns} ns of a {limit_ns} ns allowance, before kernel work"
            ),
            other => format!("deadline drill FAILED: expected DeadlineExceeded, got {other:?}"),
        };
        let ok = line.starts_with("deadline drill: DeadlineExceeded");
        (line, ok)
    };
    chaotic.set_budget(QueryBudget::unlimited());

    let stats = chaotic.fault_stats();
    let mut out = Vec::new();
    out.push(format!(
        "chaos: {queries} queries + {applied} updates over a {:?} cube (seed {seed}, \
         error {error_pm}\u{2030}, panic {panic_pm}\u{2030} per engine call)",
        a.shape().dims()
    ));
    out.push(String::from("engine health:"));
    for h in chaotic.health() {
        out.push(format!(
            "  {:<40} {:<12} streak {}",
            h.label,
            h.status.to_string(),
            h.consecutive_faults
        ));
    }
    out.push(format!(
        "fault events: {} failovers, {} panics contained, {} quarantines, {} probes, {} budget kills",
        stats.failovers, stats.panics_contained, stats.quarantines, stats.probes, stats.budget_kills
    ));
    out.push(format!(
        "answers: {correct}/{queries} bit-identical to the fault-free oracle, \
         {mismatches} mismatches, {unanswered} typed errors, {escaped_panics} escaped panics"
    ));
    out.push(drill);
    let pass = mismatches == 0 && escaped_panics == 0 && drill_ok;
    out.push(if pass {
        "resilience: PASS — every query got a correct answer or one typed error; no panic escaped"
            .to_string()
    } else {
        "resilience: FAIL".to_string()
    });
    let report = out.join("\n");
    if pass {
        Ok(report)
    } else {
        Err(CliError::Query(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run;

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
    fn chaos_report_passes_under_heavy_faults() {
        let cube = tmp("chaos1.olap");
        run_s(&["gen", "--dims", "24,24", "--seed", "5", "--out", &cube]).unwrap();
        let out = run_s(&[
            "chaos",
            "--cube",
            &cube,
            "--queries",
            "120",
            "--seed",
            "7",
            "--error-rate",
            "200",
            "--panic-rate",
            "20",
        ])
        .unwrap();
        assert!(out.contains("resilience: PASS"), "{out}");
        assert!(out.contains("0 mismatches"), "{out}");
        assert!(out.contains("0 escaped panics"), "{out}");
        assert!(out.contains("deadline drill: DeadlineExceeded"), "{out}");
        assert!(out.contains("failovers"), "{out}");
    }

    #[test]
    fn zero_deadline_drill_degrades_under_degrade_flag() {
        let cube = tmp("chaos3.olap");
        run_s(&["gen", "--dims", "20,20", "--seed", "3", "--out", &cube]).unwrap();
        let out = run_s(&[
            "chaos",
            "--cube",
            &cube,
            "--queries",
            "60",
            "--seed",
            "9",
            "--degrade",
        ])
        .unwrap();
        assert!(out.contains("resilience: PASS"), "{out}");
        assert!(
            out.contains("32/32 zero-deadline queries degraded to bounded estimates"),
            "{out}"
        );
        assert!(out.contains("32/32 intervals contain the oracle"), "{out}");
    }

    #[test]
    fn chaos_is_deterministic_for_a_seed() {
        let cube = tmp("chaos2.olap");
        run_s(&["gen", "--dims", "16,16", "--seed", "2", "--out", &cube]).unwrap();
        let args = ["chaos", "--cube", &cube, "--queries", "60", "--seed", "11"];
        let a = run_s(&args).unwrap();
        let b = run_s(&args).unwrap();
        // Everything except the deadline drill's measured nanoseconds is a
        // pure function of the seed.
        let stable = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("deadline drill"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(stable(&a), stable(&b));
    }
}
