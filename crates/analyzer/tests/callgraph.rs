//! Integration tests for the call-graph layer: resolution across
//! files, through trait impls, and termination on recursive cycles.

use olap_analyzer::callgraph::CallGraph;
use olap_analyzer::model::Model;

/// Node id of `name` (optionally qualified by impl type) — panics if
/// absent or ambiguous so tests read as lookups.
fn node(g: &CallGraph, self_type: Option<&str>, name: &str) -> usize {
    let hits: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| g.nodes[n].name == name && g.nodes[n].self_type.as_deref() == self_type)
        .collect();
    assert_eq!(hits.len(), 1, "lookup {self_type:?}::{name}: {hits:?}");
    hits[0]
}

/// Target labels of every call site in `n`, flattened and sorted.
fn callees(g: &CallGraph, n: usize) -> Vec<String> {
    let mut out: Vec<String> = g
        .sites(n)
        .iter()
        .flat_map(|s| s.targets.iter().map(|&t| g.label(t)))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn methods_resolve_across_files_through_typed_params() {
    let model = Model::from_sources(&[
        (
            "crates/engine/src/caller.rs",
            "pub fn drive(meter: &BudgetMeter) {\n  meter.charge(1);\n  BudgetMeter::reset();\n}\n",
        ),
        (
            "crates/array/src/meter.rs",
            "impl BudgetMeter {\n  pub fn charge(&self, n: u64) {}\n  pub fn reset() {}\n}\n",
        ),
    ]);
    let g = CallGraph::build(&model);
    let drive = node(&g, None, "drive");
    let got = callees(&g, drive);
    assert_eq!(
        got,
        vec!["BudgetMeter::charge", "BudgetMeter::reset"],
        "{got:?}"
    );
    // Both resolutions are type-derived, not name fallbacks.
    assert!(
        g.sites(drive).iter().all(|s| s.narrowed),
        "{:?}",
        g.sites(drive)
    );
}

#[test]
fn trait_impl_edges_connect_the_caller_to_every_implementor() {
    let model = Model::from_sources(&[(
        "crates/engine/src/lib.rs",
        "trait RangeEngine {\n  fn range_sum(&self) -> u64;\n}\n\
             impl RangeEngine for Dense {\n  fn range_sum(&self) -> u64 { 1 }\n}\n\
             impl RangeEngine for Sparse {\n  fn range_sum(&self) -> u64 { 2 }\n}\n\
             pub fn answer(e: &Dense) -> u64 {\n  e.range_sum()\n}\n",
    )]);
    let g = CallGraph::build(&model);
    let answer = node(&g, None, "answer");
    // The typed receiver narrows to the Dense impl specifically.
    let got = callees(&g, answer);
    assert_eq!(got, vec!["Dense::range_sum"], "{got:?}");
    // Both impl methods exist as distinct nodes.
    node(&g, Some("Dense"), "range_sum");
    node(&g, Some("Sparse"), "range_sum");
}

#[test]
fn recursive_cycles_terminate_and_stay_reachable() {
    let model = Model::from_sources(&[(
        "crates/engine/src/walk.rs",
        "pub fn range_sum(n: u64) -> u64 {\n  descend(n)\n}\n\
         fn descend(n: u64) -> u64 {\n  if n == 0 { 0 } else { ascend(n - 1) }\n}\n\
         fn ascend(n: u64) -> u64 {\n  descend(n)\n}\n",
    )]);
    let g = CallGraph::build(&model);
    let root = node(&g, None, "range_sum");
    // BFS over the mutually recursive pair must terminate and mark
    // every member of the cycle reachable.
    let reach = g.reachable_trusted(&[root]);
    assert!(reach[node(&g, None, "descend")]);
    assert!(reach[node(&g, None, "ascend")]);
    // And a path query through the cycle terminates with a real path.
    let hit = node(&g, None, "ascend");
    let path = g.path_to_trusted(root, |x| x == hit).expect("path exists");
    let labels: Vec<String> = path.iter().map(|&x| g.label(x)).collect();
    assert_eq!(labels, vec!["range_sum", "descend", "ascend"], "{labels:?}");
}

#[test]
fn name_fallback_never_resolves_into_a_front_end_crate() {
    let engine = "pub fn range_sum(cells: &[u64]) -> bool {\n  cells.iter().all(|&c| c > 0) && all(cells)\n}\n";
    let helper = "pub fn all(cells: &[u64]) -> bool {\n  let mut n = 0;\n  while n < cells.len() {\n    n += 1;\n  }\n  n > 0\n}\n";
    let budget = |helper_rel: &str| -> Vec<String> {
        let model =
            Model::from_sources(&[("crates/engine/src/scan.rs", engine), (helper_rel, helper)]);
        olap_analyzer::analyze(&model)
            .active()
            .filter(|f| f.rule == "budget-coverage")
            .map(|f| f.file.clone())
            .collect()
    };
    // `olap-bench`'s `all` is a front end's: neither `.all(…)` nor the
    // bare `all(…)` call resolves to it, so its loop is off the query path.
    assert!(budget("crates/bench/src/paper.rs").is_empty());
    let model = Model::from_sources(&[
        ("crates/engine/src/scan.rs", engine),
        ("crates/bench/src/paper.rs", helper),
    ]);
    let g = CallGraph::build(&model);
    assert!(callees(&g, node(&g, None, "range_sum")).is_empty());
    // The same fn inside a library crate is a real candidate, and its
    // un-budgeted loop is reported.
    assert_eq!(
        budget("crates/engine/src/paper.rs"),
        vec!["crates/engine/src/paper.rs"]
    );
}
