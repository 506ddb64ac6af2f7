//! `olap-analyzer` — a zero-dependency static-analysis pass over the
//! workspace's library sources.
//!
//! Clippy holds what *any* Rust project can check: every query-path
//! crate root denies `unwrap_used`, `expect_used`, `indexing_slicing` and
//! the panic-family macros outside test builds, so panic-freedom is the
//! compiler's job. This crate checks the protocols **this** project's
//! design demands and nothing off-the-shelf can express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `atomic-ordering` | every `Ordering::…` carries an `// ordering:` justification; `SeqCst` is a smell |
//! | `lock-order`      | the guard-held-while-acquiring graph across all `Mutex`/`RwLock` fields is acyclic |
//! | `error-surface`   | pub fns in `olap-engine`/`olap-array` don't silently swallow fallible internals |
//! | `budget-coverage` | every loop reachable from the `read`/`range_sum*` entry points charges the `BudgetMeter` (PR 4's deadlines stay cooperative) |
//! | `pin-across-blocking` | no `VersionCell` read-pin or lock guard live across `send`/`recv`/`join`/`sleep` (PR 6's installs can't stall) |
//! | `span-discipline` | `TraceSpan` never lives in a field (PR 8's thread-local frame stacks) |
//! | `estimate-isolation` | no call path from `Estimate`-producing fns into `SemanticCache::insert` or `Routed::Exact` (PR 9's tier separation) |
//!
//! The implementation is a hand-written lexer ([`lexer`]), a structural
//! outline pass ([`outline`]), a resolved cross-file call graph
//! ([`callgraph`]), a lightweight intra-fn CFG ([`mod@cfg`]), and
//! token-level rule passes ([`rules`]) — no `syn`, no `rustc` internals,
//! nothing to install. A finding is suppressed inline with
//! `// analyzer: allow(rule, reason = "…")` (reason mandatory); any other
//! finding — an allow that suppresses nothing included — fails `check`.
//! See `README.md` § "Static analysis".

pub mod callgraph;
pub mod cfg;
pub mod findings;
pub mod lexer;
pub mod model;
pub mod outline;
pub mod rules;

use findings::{apply_allows, Finding, Report};
use model::Model;
use std::path::Path;

/// Runs every rule over a model and assembles the report (allows
/// applied, findings sorted by file/line/col/rule).
pub fn analyze(model: &Model) -> Report {
    let graph = callgraph::CallGraph::build(model);
    let mut findings: Vec<Finding> = model
        .files
        .iter()
        .flat_map(|f| f.malformed_allows.iter().cloned())
        .collect();
    findings.extend(rules::atomics::check(model));
    findings.extend(rules::locks::check(model));
    findings.extend(rules::error_surface::check(model));
    findings.extend(rules::budget::check(model, &graph));
    findings.extend(rules::pins::check(model));
    findings.extend(rules::spans::check(model));
    findings.extend(rules::estimates::check(model, &graph));
    let mut stale = Vec::new();
    for fm in &model.files {
        stale.extend(apply_allows(&mut findings, &fm.rel, &fm.allows));
    }
    findings.extend(stale);
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Report { findings }
}

/// Scans the workspace at `root` and analyzes it.
///
/// # Errors
/// I/O failure while scanning, or no sources under `root`.
pub fn run_check(root: &Path) -> Result<Report, String> {
    let model = Model::scan_workspace(root).map_err(|e| format!("scan failed: {e}"))?;
    if model.files.is_empty() {
        return Err(format!(
            "no sources found under {} — wrong --root?",
            root.display()
        ));
    }
    Ok(analyze(&model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sorts_and_applies_allows() {
        let model = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "impl RangeEngine for E {\n  fn range_sum(&self) {\n    // analyzer: allow(budget-coverage, reason = \"trip count = ndim\")\n    for a in b {}\n    for c in d {}\n  }\n}\n",
        )]);
        let report = analyze(&model);
        let active: Vec<_> = report.active().collect();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 5);
    }
}
