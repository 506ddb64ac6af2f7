//! End-to-end rule tests over the fixture files in `tests/fixtures/`.
//!
//! Each rule gets a positive fixture (violations the rule must catch),
//! an allowed fixture where relevant (inline `analyzer: allow` silences
//! the finding but the scan still sees it), and a false-positive guard
//! (near-miss constructs that must stay quiet). Fixtures run through
//! the same `analyze` entry point as the CLI, mapped onto in-scope
//! crate paths, so these tests cover the lexer → outline → call graph
//! → rule → allow pipeline, not a rule function in isolation.

use olap_analyzer::analyze;
use olap_analyzer::findings::{Finding, Report};
use olap_analyzer::model::Model;

/// Runs the full analysis over one fixture mapped to `rel`.
fn run(rel: &str, src: &str) -> Report {
    analyze(&Model::from_sources(&[(rel, src)]))
}

/// Active (non-allowed) findings for one rule.
fn active<'r>(report: &'r Report, rule: &str) -> Vec<&'r Finding> {
    report.active().filter(|f| f.rule == rule).collect()
}

/// All findings (allowed or not) for one rule.
fn all<'r>(report: &'r Report, rule: &str) -> Vec<&'r Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn atomic_ordering_positive_flags_untagged_and_seqcst() {
    let r = run(
        "crates/array/src/fx.rs",
        include_str!("fixtures/atomic_ordering_positive.rs"),
    );
    let f = active(&r, "atomic-ordering");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().any(|f| f.message.contains("justification")));
    assert!(f.iter().any(|f| f.message.contains("smell")));
}

#[test]
fn atomic_ordering_allowed_and_tagged_passes() {
    let r = run(
        "crates/array/src/fx.rs",
        include_str!("fixtures/atomic_ordering_allowed.rs"),
    );
    assert!(active(&r, "atomic-ordering").is_empty());
    // The SeqCst smell finding exists but is allowed with a reason.
    assert_eq!(all(&r, "atomic-ordering").len(), 1);
}

#[test]
fn atomic_ordering_guard_stays_quiet() {
    let r = run(
        "crates/array/src/fx.rs",
        include_str!("fixtures/atomic_ordering_guard.rs"),
    );
    assert!(active(&r, "atomic-ordering").is_empty());
}

#[test]
fn lock_order_positive_reports_the_cycle_once() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/lock_order_positive.rs"),
    );
    let f = active(&r, "lock-order");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("jobs") && f[0].message.contains("results"));
}

#[test]
fn lock_order_guard_stays_quiet() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/lock_order_guard.rs"),
    );
    assert!(active(&r, "lock-order").is_empty());
}

#[test]
fn error_surface_positive_flags_the_swallowed_result() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/error_surface_positive.rs"),
    );
    let f = active(&r, "error-surface");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("warm") && f[0].message.contains("load_page"));
}

#[test]
fn error_surface_guard_stays_quiet() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/error_surface_guard.rs"),
    );
    assert!(active(&r, "error-surface").is_empty());
}

#[test]
fn budget_coverage_positive_flags_direct_and_transitive_loops() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/budget_coverage_positive.rs"),
    );
    let f = active(&r, "budget-coverage");
    // The `for` in range_sum and the `while` in the helper it reaches.
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|f| f.message.contains("un-budgeted")));
}

#[test]
fn budget_coverage_positive_flags_loops_under_an_engine_read() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/budget_coverage_read_positive.rs"),
    );
    let f = active(&r, "budget-coverage");
    // The `for` in `read` and the `while` in the helper it reaches; the
    // loop behind the lock's `read()` is off the query path.
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|f| f.message.contains("un-budgeted")));
    assert!(f.iter().any(|f| f.message.contains("Scan::read")), "{f:#?}");
    assert!(f.iter().all(|f| !f.message.contains("report")), "{f:#?}");
}

#[test]
fn budget_coverage_allowed_findings_are_recorded_but_inactive() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/budget_coverage_allowed.rs"),
    );
    assert_eq!(
        all(&r, "budget-coverage").len(),
        1,
        "scan still sees the loop"
    );
    assert!(
        active(&r, "budget-coverage").is_empty(),
        "allow silences it"
    );
    assert!(active(&r, "malformed-allow").is_empty());
}

#[test]
fn budget_coverage_guard_stays_quiet() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/budget_coverage_guard.rs"),
    );
    assert!(
        active(&r, "budget-coverage").is_empty(),
        "{:#?}",
        all(&r, "budget-coverage")
    );
}

#[test]
fn budget_coverage_counts_a_query_ctx_charge_as_covering() {
    let r = run(
        "crates/prefix-sum/src/fx.rs",
        include_str!("fixtures/budget_coverage_ctx_guard.rs"),
    );
    assert!(
        active(&r, "budget-coverage").is_empty(),
        "{:#?}",
        all(&r, "budget-coverage")
    );
}

#[test]
fn budget_coverage_flags_a_read_that_only_counts_into_its_ctx() {
    let r = run(
        "crates/prefix-sum/src/fx.rs",
        include_str!("fixtures/budget_coverage_ctx_positive.rs"),
    );
    let f = active(&r, "budget-coverage");
    // The `for` and the `while` in `read`: each records accesses, and the
    // one charge after them covers neither loop.
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|f| f.message.contains("Scan::read")), "{f:#?}");
}

#[test]
fn pin_across_blocking_positive_flags_pin_and_lock_guard() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/pin_across_blocking_positive.rs"),
    );
    let f = active(&r, "pin-across-blocking");
    // The read-pin across `send` and the mutex guard across `join`.
    assert_eq!(f.len(), 2, "{f:#?}");
    let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("send")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("join")), "{msgs:?}");
}

#[test]
fn pin_across_blocking_allowed_findings_are_recorded_but_inactive() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/pin_across_blocking_allowed.rs"),
    );
    assert_eq!(all(&r, "pin-across-blocking").len(), 1);
    assert!(active(&r, "pin-across-blocking").is_empty());
    assert!(active(&r, "malformed-allow").is_empty());
}

#[test]
fn pin_across_blocking_guard_stays_quiet() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/pin_across_blocking_guard.rs"),
    );
    assert!(
        active(&r, "pin-across-blocking").is_empty(),
        "{:#?}",
        all(&r, "pin-across-blocking")
    );
}

#[test]
fn pin_across_blocking_sees_the_snapshot_cell() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/pin_across_blocking_snapshot_cell.rs"),
    );
    let f = active(&r, "pin-across-blocking");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("snapshot read-pin"), "{f:#?}");
    assert!(f[0].message.contains("snapshots.load()"), "{f:#?}");
}

#[test]
fn stale_allow_positive_fails_the_allow_that_suppresses_nothing() {
    let r = run(
        "crates/array/src/fx.rs",
        include_str!("fixtures/stale_allow_positive.rs"),
    );
    // The live allow covers its finding; the stale one is a finding of
    // its own, reported at the directive.
    assert_eq!(all(&r, "atomic-ordering").len(), 1);
    assert!(active(&r, "atomic-ordering").is_empty());
    let f = active(&r, "stale-allow");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].line, 14, "{f:#?}");
    assert!(f[0].message.contains("allow(atomic-ordering)"), "{f:#?}");
}

#[test]
fn span_discipline_positive_flags_the_stored_span() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/span_discipline_positive.rs"),
    );
    let f = active(&r, "span-discipline");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("stored in"), "{f:#?}");
}

#[test]
fn span_discipline_allowed_findings_are_recorded_but_inactive() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/span_discipline_allowed.rs"),
    );
    assert_eq!(all(&r, "span-discipline").len(), 1);
    assert!(active(&r, "span-discipline").is_empty());
    assert!(active(&r, "malformed-allow").is_empty());
}

#[test]
fn span_discipline_guard_stays_quiet() {
    let r = run(
        "crates/server/src/fx.rs",
        include_str!("fixtures/span_discipline_guard.rs"),
    );
    assert!(
        active(&r, "span-discipline").is_empty(),
        "{:#?}",
        all(&r, "span-discipline")
    );
}

#[test]
fn estimate_isolation_positive_flags_cache_and_exact_sinks() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/estimate_isolation_positive.rs"),
    );
    let f = active(&r, "estimate-isolation");
    // The transitive cache insert and the direct Routed::Exact.
    assert_eq!(f.len(), 2, "{f:#?}");
    let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("SemanticCache::insert") && m.contains("degrade → stash")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("Routed::Exact")), "{msgs:?}");
}

#[test]
fn estimate_isolation_allowed_findings_are_recorded_but_inactive() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/estimate_isolation_allowed.rs"),
    );
    assert_eq!(all(&r, "estimate-isolation").len(), 1);
    assert!(active(&r, "estimate-isolation").is_empty());
    assert!(active(&r, "malformed-allow").is_empty());
}

#[test]
fn estimate_isolation_guard_stays_quiet() {
    let r = run(
        "crates/engine/src/fx.rs",
        include_str!("fixtures/estimate_isolation_guard.rs"),
    );
    assert!(
        active(&r, "estimate-isolation").is_empty(),
        "{:#?}",
        all(&r, "estimate-isolation")
    );
}
