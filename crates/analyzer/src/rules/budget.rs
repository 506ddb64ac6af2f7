//! Rule `budget-coverage`: every loop on a query path charges the meter.
//!
//! PR 4's deadlines, access caps, and cancellation are *cooperative*:
//! `QueryBudget` arms a shared `BudgetMeter` and the kernels are
//! expected to call `charge(cells)` / `check()` as they scan. A hot loop
//! that never touches the meter runs to completion regardless of the
//! deadline — the budget, the §4 access bounds it enforces, and the
//! server's queue-shedding admission all silently stop meaning anything
//! for that path.
//!
//! The rule walks the [call graph](crate::callgraph) forward from the
//! query entry points (every engine's one `read`, and the `range_sum*`
//! entries and kernels), and for each reachable function asks the
//! [CFG](crate::cfg) for its loops. A loop is
//! **covered** when its body
//!
//! * charges or checks a meter directly (`meter.charge(…)`,
//!   `self.budget.check()`, any `BudgetMeter`-resolved call), or
//! * calls a function that *may transitively* charge (backward closure
//!   over the call graph from the direct-charging set).
//!
//! Anything else on a query path is flagged. Loops with genuinely
//! bounded trip counts (the 2^d corner gather, per-dimension setup of a
//! fixed arity) are the expected inline-allow population — the point
//! is that *new* unbudgeted loops can't land silently.

use crate::callgraph::CallGraph;
use crate::cfg;
use crate::findings::Finding;
use crate::model::Model;

/// Whether a resolved call site is a direct meter charge/check.
fn is_charge_site(g: &CallGraph, s: &crate::callgraph::ResolvedSite) -> bool {
    if s.site.callee != "charge" && s.site.callee != "check" {
        return false;
    }
    // Type-narrowed to the real meter impl…
    if s.targets
        .iter()
        .any(|&t| g.nodes[t].self_type.as_deref() == Some("BudgetMeter"))
    {
        return true;
    }
    // …or an unambiguous receiver spelling (`meter.check()` where the
    // receiver type is opaque to the outline).
    s.site
        .receiver
        .as_deref()
        .is_some_and(|r| r.contains("meter") || r.contains("budget"))
}

/// Whether a fn named `name` is a query entry point: `read` (the one
/// metered read of every engine) or a `range_sum*` entry or kernel.
fn is_root(name: &str) -> bool {
    name == "read" || name.starts_with("range_sum")
}

/// Runs the rule over the model.
pub fn check(model: &Model, g: &CallGraph) -> Vec<Finding> {
    // Roots: the engines' one read and the `range_sum`-family entries.
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| is_root(&g.nodes[n].name))
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    // Trusted edges only: the name-fallback over-approximation would
    // pull CLI/report code into the "query path" via any shared method
    // name. Suppression (may_charge) below keeps the full graph.
    let reachable = g.reachable_trusted(&roots);
    // Direct chargers, then the backward closure "may transitively
    // charge" — recursion-safe (callers_closure is a BFS).
    let direct: Vec<bool> = (0..g.nodes.len())
        .map(|n| g.sites(n).iter().any(|s| is_charge_site(g, s)))
        .collect();
    let may_charge = g.callers_closure(&direct);

    let mut findings = Vec::new();
    for (n, node) in g.nodes.iter().enumerate() {
        if !reachable[n] {
            continue;
        }
        let file = &model.files[node.file];
        let f = &file.outline.fns[node.fn_id];
        let Some((a, b)) = f.body else { continue };
        let toks = &file.lexed.tokens;
        for lp in cfg::loops_in(toks, a, b) {
            let (la, lb) = lp.body;
            let covered = g.sites(n).iter().any(|s| {
                let within = la <= s.site.tok && s.site.tok <= lb;
                within && (is_charge_site(g, s) || s.targets.iter().any(|&t| may_charge[t]))
            });
            if !covered {
                findings.push(file.finding(
                    "budget-coverage",
                    lp.line,
                    lp.col,
                    format!(
                        "un-budgeted `{}` loop in `{}` (reachable from the \
                         read and range_sum entry points): the body never calls \
                         `BudgetMeter::charge`/`check`, directly or transitively, \
                         so deadlines and access caps cannot interrupt it",
                        lp.kind,
                        g.label(n),
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::model::Model;

    fn run(src: &str) -> Vec<Finding> {
        let model = Model::from_sources(&[("crates/engine/src/fx.rs", src)]);
        let g = CallGraph::build(&model);
        check(&model, &g)
    }

    #[test]
    fn uncharged_loop_on_a_query_path_is_flagged() {
        let f = run(
            "impl Engine {\n  pub fn range_sum(&self) {\n    for i in 0..n { acc += v(i); }\n  }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("un-budgeted"));
    }

    #[test]
    fn direct_and_transitive_charges_cover_the_loop() {
        // Direct: the body touches the meter. Transitive: the body calls
        // a helper that charges.
        let f = run("impl BudgetMeter {\n  pub fn charge(&self, n: u64) {}\n}\n\
             impl Engine {\n  pub fn range_sum(&self, meter: &BudgetMeter) {\n    \
             for i in 0..n { meter.charge(1); }\n    \
             for j in 0..n { step(meter); }\n  }\n}\n\
             fn step(meter: &BudgetMeter) { meter.charge(1); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn an_engine_read_is_a_root_and_a_lock_read_is_not_a_call_into_it() {
        // `read` is a query entry point; the zero-argument `lock.read()`
        // cannot resolve to it, so `stats` stays off the query path.
        let f = run("impl RangeEngine for Engine {\n  fn read(&self, region: &Region, op: Op, meter: &BudgetMeter) {\n    \
             for i in 0..n { acc += v(i); }\n  }\n}\n\
             fn stats(lock: &RwLock) { let g = lock.read(); for i in 0..n { acc += g(i); } }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Engine::read"), "{f:?}");
    }

    #[test]
    fn loops_off_the_query_path_are_ignored() {
        let f = run("pub fn build_index() {\n  for i in 0..n { acc += v(i); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn recursive_helpers_do_not_hang_and_still_count() {
        // `walk` recurses and charges; the loop calling it is covered,
        // and the analysis terminates.
        let f = run(
            "impl BudgetMeter {\n  pub fn charge(&self, n: u64) {}\n}\n\
             pub fn range_sum(meter: &BudgetMeter) {\n  for i in 0..n { walk(i, meter); }\n}\n\
             fn walk(d: usize, meter: &BudgetMeter) {\n  meter.charge(1);\n  if d > 0 { walk(d - 1, meter); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
