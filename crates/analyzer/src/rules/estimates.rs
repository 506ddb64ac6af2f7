//! Rule `estimate-isolation`: approximate values never reach exact sinks.
//!
//! PR 9's `Estimate<V>` carries hard interval bounds precisely so the
//! type system separates the approximate tier from the exact one: an
//! estimate served as if it were exact silently violates Theorem 1's
//! contract, and an estimate *cached* poisons every later subsumption
//! hit. The crates keep this separation by construction today; this rule
//! checks it mechanically so a refactor can't quietly plumb a degraded
//! result into the cache or an exact-response constructor.
//!
//! The pass marks every non-test fn whose return type mentions
//! `Estimate`/`ServedEstimate` as a **producer**, walks the call graph
//! forward from them, and flags two sink shapes inside the reachable
//! region:
//!
//! * a type-narrowed call to `SemanticCache::insert` (narrowed only —
//!   the conservative name fallback would flag every `insert` on a
//!   `Vec`);
//! * construction of the exact response variant `Routed::Exact(…)`, which
//!   the router and every server shard part return.
//!
//! Diagnostics include the shortest producer → sink call path so the
//! leak is auditable from the finding alone. A sink that is genuinely
//! fine (e.g. a helper shared with exact paths whose estimate branch is
//! unreachable) takes an
//! `// analyzer: allow(estimate-isolation, reason = "…")`.

use crate::callgraph::{CallGraph, NodeId};
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model::Model;

/// Exact-response enums whose `Exact` variant is a sink.
const EXACT_ENUMS: &[&str] = &["Routed"];

/// Whether node `n`'s return type mentions an estimate type.
fn is_producer(model: &Model, g: &CallGraph, n: NodeId) -> bool {
    let node = &g.nodes[n];
    let file = &model.files[node.file];
    let f = &file.outline.fns[node.fn_id];
    let (sa, sb) = f.sig;
    let toks = &file.lexed.tokens;
    let mut after_arrow = false;
    for t in &toks[sa..sb.min(toks.len())] {
        if t.is_punct("->") {
            after_arrow = true;
        } else if after_arrow && t.kind == TokKind::Ident && t.text.contains("Estimate") {
            return true;
        }
    }
    false
}

/// Runs the rule over the model.
pub fn check(model: &Model, g: &CallGraph) -> Vec<Finding> {
    let producers: Vec<NodeId> = (0..g.nodes.len())
        .filter(|&n| is_producer(model, g, n))
        .collect();
    if producers.is_empty() {
        return Vec::new();
    }
    // Trusted edges only — a fallback-resolved `.max(…)` on a numeric
    // would otherwise connect the estimate tier to every fn named `max`.
    let reach = g.reachable_trusted(&producers);
    let mut findings = Vec::new();
    for (n, node) in g.nodes.iter().enumerate() {
        if !reach[n] {
            continue;
        }
        let file = &model.files[node.file];
        for s in g.sites(n) {
            let cache_sink = s.narrowed
                && s.site.callee == "insert"
                && s.targets
                    .iter()
                    .any(|&t| g.nodes[t].self_type.as_deref() == Some("SemanticCache"));
            let exact_sink = s.site.callee == "Exact"
                && s.site
                    .qualifier
                    .as_deref()
                    .is_some_and(|q| EXACT_ENUMS.contains(&q));
            if !cache_sink && !exact_sink {
                continue;
            }
            // Shortest producer → here path for the diagnostic.
            let path = producers
                .iter()
                .find_map(|&p| g.path_to_trusted(p, |x| x == n))
                .map(|p| {
                    p.iter()
                        .map(|&x| g.label(x))
                        .collect::<Vec<_>>()
                        .join(" → ")
                })
                .unwrap_or_else(|| g.label(n));
            let what = if cache_sink {
                format!("`SemanticCache::{}`", s.site.callee)
            } else {
                format!(
                    "exact-response constructor `{}::Exact`",
                    s.site.qualifier.as_deref().unwrap_or("")
                )
            };
            findings.push(file.finding(
                "estimate-isolation",
                s.site.line,
                s.site.col,
                format!(
                    "{what} reached from an `Estimate`-producing fn (call path: {path}) \
                     — approximate values must stay out of the cache and exact tier",
                ),
            ));
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
        let model = Model::from_sources(&[("crates/query/src/fx.rs", src)]);
        let g = CallGraph::build(&model);
        check(&model, &g)
    }

    #[test]
    fn estimate_path_into_the_cache_is_flagged_with_a_path() {
        let f = run("impl SemanticCache {\n  pub fn insert(&self) {}\n}\n\
             fn degrade(cache: &SemanticCache) -> Estimate<u32> {\n  stash(cache);\n  mk()\n}\n\
             fn stash(cache: &SemanticCache) { cache.insert(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SemanticCache::insert"));
        assert!(f[0].message.contains("degrade → stash"), "{}", f[0].message);
    }

    #[test]
    fn exact_constructor_from_an_estimate_fn_is_flagged() {
        let f =
            run("fn degrade(v: u32) -> Estimate<u32> {\n  let r = Routed::Exact(v);\n  mk(r)\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Routed::Exact"));
    }

    #[test]
    fn exact_paths_and_unrelated_inserts_are_clean() {
        let f = run(
            "impl SemanticCache {\n  pub fn insert(&self) {}\n}\n\
             fn exact_answer(cache: &SemanticCache, v: u32) -> u32 {\n  \
             cache.insert();\n  let r = Routed::Exact(v);\n  v\n}\n\
             fn degraded_only(rows: &mut Vec<u32>) -> Estimate<u32> {\n  rows.insert(0, 1);\n  mk()\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn name_fallback_insert_is_not_trusted() {
        // `thing` has no known type: `insert` resolves by name to
        // SemanticCache::insert but un-narrowed — no finding.
        let f = run("impl SemanticCache {\n  pub fn insert(&self) {}\n}\n\
             fn degrade(thing: &Opaque) -> Estimate<u32> {\n  thing.insert();\n  mk()\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
