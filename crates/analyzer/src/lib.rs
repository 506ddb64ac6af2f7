//! `olap-analyzer` — a zero-dependency static-analysis pass over the
//! workspace's library sources.
//!
//! The generic tooling already in CI (clippy's `unwrap_used`) checks
//! what *any* Rust project should check. This crate checks what **this**
//! project's design demands and nothing off-the-shelf can express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-site`      | no panicking construct on a query path reachable from a `RangeEngine` method (PR 4's `catch_unwind` containment must never fire) |
//! | `atomic-ordering` | every `Ordering::…` carries an `// ordering:` justification; `SeqCst` is a smell |
//! | `lock-order`      | the guard-held-while-acquiring graph across all `Mutex`/`RwLock` fields is acyclic |
//! | `error-surface`   | pub fns in `olap-engine`/`olap-array` don't silently swallow fallible internals |
//! | `budget-coverage` | every loop reachable from the `range_sum*` entry points charges the `BudgetMeter` (PR 4's deadlines stay cooperative) |
//! | `pin-across-blocking` | no `VersionCell` read-pin or lock guard live across `send`/`recv`/`join`/`sleep` (PR 6's installs can't stall) |
//! | `span-discipline` | `TraceSpan` never lives in a field (PR 8's thread-local frame stacks) |
//! | `estimate-isolation` | no call path from `Estimate`-producing fns into `SemanticCache::insert` or `Routed::Exact`/`ShardOutcome::Exact` (PR 9's tier separation) |
//!
//! The implementation is a hand-written lexer ([`lexer`]), a structural
//! outline pass ([`outline`]), name-based reachability
//! ([`reachability`]), a resolved cross-file call graph ([`callgraph`]),
//! a lightweight intra-fn CFG ([`mod@cfg`]), and token-level rule passes
//! ([`rules`]) — no `syn`, no `rustc` internals, nothing to install. Findings are
//! suppressed either inline (`// analyzer: allow(rule, reason = "…")`,
//! reason mandatory) or by the checked-in baseline
//! (`crates/analyzer/baseline.json`), so CI fails only on **new**
//! violations. See `README.md` § "Static analysis" for the workflow.

pub mod callgraph;
pub mod cfg;
pub mod findings;
pub mod json;
pub mod lexer;
pub mod model;
pub mod outline;
pub mod reachability;
pub mod rules;

use findings::{apply_allows, Baseline, Finding, Report};
use model::Model;
use std::path::Path;

/// Runs every rule over a model and assembles the report (allows
/// applied, findings sorted by file/line/col/rule).
pub fn analyze(model: &Model) -> Report {
    analyze_with(model, 1)
}

/// [`analyze`] with a thread budget: the rule passes are independent, so
/// with `jobs > 1` they run on scoped std threads. Findings are sorted at
/// the end either way — the output is byte-identical for every `jobs`.
pub fn analyze_with(model: &Model, jobs: usize) -> Report {
    let reach = reachability::compute(model);
    let graph = callgraph::CallGraph::build(model);
    type Pass<'a> = Box<dyn Fn() -> Vec<Finding> + Send + Sync + 'a>;
    let passes: Vec<Pass> = vec![
        Box::new(|| rules::panics::check(model, &reach)),
        Box::new(|| rules::atomics::check(model)),
        Box::new(|| rules::locks::check(model)),
        Box::new(|| rules::error_surface::check(model)),
        Box::new(|| rules::budget::check(model, &graph)),
        Box::new(|| rules::pins::check(model)),
        Box::new(|| rules::spans::check(model)),
        Box::new(|| rules::estimates::check(model, &graph)),
    ];
    let mut findings: Vec<Finding> = Vec::new();
    findings.extend(
        model
            .files
            .iter()
            .flat_map(|f| f.malformed_allows.iter().cloned()),
    );
    if jobs <= 1 {
        for p in &passes {
            findings.extend(p());
        }
    } else {
        // Work-stealing over the pass list; results land in their slot so
        // the collection order never depends on scheduling.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Vec<Finding>>> = passes
            .iter()
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..jobs.min(passes.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(p) = passes.get(i) else { break };
                    *slots[i].lock().unwrap() = p();
                });
            }
        });
        for slot in slots {
            findings.extend(slot.into_inner().unwrap());
        }
    }
    let by_rel: std::collections::BTreeMap<&str, &model::FileModel> =
        model.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    for f in findings.iter_mut() {
        if let Some(fm) = by_rel.get(f.file.as_str()) {
            apply_allows(std::slice::from_mut(f), &fm.allows);
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Report { findings }
}

/// The outcome of a `check` run, ready for the CLI to render.
pub struct CheckOutcome {
    /// The full report.
    pub report: Report,
    /// Findings new relative to the baseline (indices into
    /// `report.findings` would dangle; these are clones).
    pub new_findings: Vec<Finding>,
    /// Baseline keys no longer produced by a fresh scan.
    pub stale: Vec<(String, String, String)>,
    /// Number of entries in the parsed baseline.
    pub baseline_len: usize,
}

/// Scans the workspace at `root`, compares against the baseline file
/// (when present), and returns the outcome.
///
/// # Errors
/// I/O failure while scanning, or a malformed baseline file.
pub fn run_check(root: &Path, baseline_path: &Path) -> Result<CheckOutcome, String> {
    run_check_with(root, baseline_path, 1)
}

/// [`run_check`] with a thread budget: `jobs > 1` parallelizes both the
/// per-file scan and the rule passes. The outcome is identical for
/// every `jobs`.
///
/// # Errors
/// I/O failure while scanning, or a malformed baseline file.
pub fn run_check_with(
    root: &Path,
    baseline_path: &Path,
    jobs: usize,
) -> Result<CheckOutcome, String> {
    let model = Model::scan_workspace_with(root, jobs).map_err(|e| format!("scan failed: {e}"))?;
    if model.files.is_empty() {
        return Err(format!(
            "no sources found under {} — wrong --root?",
            root.display()
        ));
    }
    let report = analyze_with(&model, jobs);
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(src) => {
            Baseline::parse(&src).map_err(|e| format!("{}: {e}", baseline_path.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
    };
    let new_findings: Vec<Finding> = report
        .new_vs_baseline(&baseline)
        .into_iter()
        .cloned()
        .collect();
    let stale = baseline.stale_keys(&report);
    Ok(CheckOutcome {
        report,
        new_findings,
        stale,
        baseline_len: baseline.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sorts_and_applies_allows() {
        let model = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "impl RangeEngine for E {\n  fn range_sum(&self) {\n    a.unwrap(); // analyzer: allow(panic-site, reason = \"poisoning is fatal by design\")\n    b.unwrap();\n  }\n}\n",
        )]);
        let report = analyze(&model);
        let active: Vec<_> = report.active().collect();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 4);
    }
}
