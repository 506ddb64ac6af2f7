//! Name-based reachability from `RangeEngine` methods.
//!
//! The panic-site rule only applies to *library query paths* — code that
//! can run while answering a query. That set is "everything reachable
//! from a `RangeEngine` method". Without type information the call graph
//! is resolved **by name**: a call `foo(…)` or `x.foo(…)` may reach any
//! function named `foo` anywhere in the scanned workspace. This
//! over-approximates (a name collision pulls in an unrelated function,
//! which is the conservative direction for a lint: it can only flag
//! more, never miss reachable code) and never under-approximates within
//! the scanned sources.
//!
//! Roots are (a) every method defined in an `impl … RangeEngine … for …`
//! block or in the `trait RangeEngine` declaration itself, (b) every
//! function *named like* a `RangeEngine` method — which folds in the
//! router's and the concrete indexes' inherent entry points of the same
//! name (`AdaptiveRouter::range_sum` calls engines through the trait; a
//! future inherent `range_sum` on a new index is a query path by
//! definition) — and (c) every method of a serving-layer type named in
//! [`SERVING_TYPES`]: `CubeServer` fan-out helpers and the
//! `VersionCell` swap path run while answering queries even when their
//! names don't collide with the trait's vocabulary.

use crate::model::Model;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The trait's method names; used both for root detection and to fold in
/// same-named inherent entry points.
pub const ENGINE_METHODS: &[&str] = &[
    "read",
    "cost",
    "range_sum",
    "range_max",
    "range_min",
    "apply_updates",
    "estimate",
    "capabilities",
    "label",
    "shape",
];

/// Serving-layer types whose inherent methods are reachability roots:
/// their entry points run on the query path (shard fan-out, snapshot
/// loads and installs, semantic-cache lookups and invalidation sweeps,
/// trace-span records into the sink) without being named like a trait
/// method.
pub const SERVING_TYPES: &[&str] = &[
    "CubeServer",
    "VersionCell",
    "SemanticCache",
    "TraceSink",
    "ApproxEngine",
];

/// One function in the cross-file graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into `Model::files`.
    pub file: usize,
    /// Index into that file's `Outline::fns`.
    pub fn_id: usize,
}

/// The reachable set, queryable per function.
#[derive(Debug, Default)]
pub struct Reachability {
    reachable: BTreeSet<FnRef>,
}

impl Reachability {
    /// Whether the given function is on a query path.
    pub fn contains(&self, file: usize, fn_id: usize) -> bool {
        self.reachable.contains(&FnRef { file, fn_id })
    }

    /// Number of reachable functions (diagnostics only).
    pub fn len(&self) -> usize {
        self.reachable.len()
    }

    /// Whether nothing is reachable (no roots found).
    pub fn is_empty(&self) -> bool {
        self.reachable.is_empty()
    }
}

/// Computes reachability over non-test functions of the model.
pub fn compute(model: &Model) -> Reachability {
    // Name → definitions.
    let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        for (gi, f) in file.outline.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(FnRef {
                file: fi,
                fn_id: gi,
            });
        }
    }
    // Roots.
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    let mut reachable: BTreeSet<FnRef> = BTreeSet::new();
    for (fi, file) in model.files.iter().enumerate() {
        for (gi, f) in file.outline.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let in_engine_impl = f
                .impl_header
                .as_deref()
                .is_some_and(|h| h.contains("RangeEngine"));
            let in_serving_impl = f
                .impl_header
                .as_deref()
                .is_some_and(|h| SERVING_TYPES.iter().any(|t| h.contains(t)));
            let named_like_method = ENGINE_METHODS.contains(&f.name.as_str());
            if in_engine_impl || in_serving_impl || named_like_method {
                let r = FnRef {
                    file: fi,
                    fn_id: gi,
                };
                if reachable.insert(r) {
                    queue.push_back(r);
                }
            }
        }
    }
    // BFS over name-resolved call edges.
    while let Some(r) = queue.pop_front() {
        let file = &model.files[r.file];
        let Some(f) = file.outline.fns.get(r.fn_id) else {
            continue;
        };
        let Some((a, b)) = f.body else {
            continue;
        };
        for name in called_names(&file.lexed.tokens, a, b) {
            if let Some(defs) = by_name.get(name.as_str()) {
                for &d in defs {
                    if reachable.insert(d) {
                        queue.push_back(d);
                    }
                }
            }
        }
    }
    Reachability { reachable }
}

/// Names syntactically called inside a token range: `name(` and
/// `.name(`; macro invocations (`name!`) are not call edges here.
fn called_names(toks: &[crate::lexer::Token], a: usize, b: usize) -> BTreeSet<String> {
    use crate::lexer::TokKind;
    let mut out = BTreeSet::new();
    let end = b.min(toks.len().saturating_sub(1));
    for i in a..=end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1);
        let called = match next {
            Some(t) if t.is_punct("(") => true,
            // Turbofish: `name::<T>(…)`.
            Some(t) if t.is_punct("::") => toks.get(i + 2).is_some_and(|t| t.is_punct("<")),
            _ => false,
        };
        if called {
            out.insert(toks[i].text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn bfs_reaches_through_helpers_but_not_unrelated_code() {
        let model = Model::from_sources(&[
            (
                "crates/engine/src/a.rs",
                "impl<V> RangeEngine<V> for Cube<V> {\n  fn range_sum(&self) { helper(); }\n}\n\
                 fn helper() { deep(); }\nfn deep() {}\nfn unrelated() {}\n",
            ),
            (
                "crates/array/src/b.rs",
                "pub fn deep() {}\npub fn never_called() {}\n",
            ),
        ]);
        let r = compute(&model);
        let mut flat: Vec<&str> = Vec::new();
        for (fi, f) in model.files.iter().enumerate() {
            for (gi, g) in f.outline.fns.iter().enumerate() {
                if r.contains(fi, gi) {
                    flat.push(g.name.as_str());
                }
            }
        }
        assert!(flat.contains(&"range_sum"));
        assert!(flat.contains(&"helper"));
        // Name-based resolution reaches BOTH `deep` definitions.
        assert_eq!(flat.iter().filter(|n| **n == "deep").count(), 2);
        assert!(!flat.contains(&"unrelated"));
        assert!(!flat.contains(&"never_called"));
    }

    #[test]
    fn inherent_methods_named_like_the_trait_are_roots() {
        let model = Model::from_sources(&[(
            "crates/engine/src/r.rs",
            "impl Router {\n  pub fn range_sum(&mut self) { dispatch(); }\n}\nfn dispatch() {}\n",
        )]);
        let r = compute(&model);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn serving_impl_methods_are_roots_even_with_novel_names() {
        let model = Model::from_sources(&[(
            "crates/server/src/s.rs",
            "impl CubeServer {\n  pub fn fan_out(&self) { merge(); }\n}\n\
             impl<V> VersionCell<V> {\n  fn swap_in(&self) {}\n}\n\
             impl<V, B> SemanticCache<V, B> {\n  fn plan(&self) {}\n}\n\
             impl TraceSink {\n  fn record(&self) {}\n}\n\
             fn merge() {}\nfn unrelated() {}\n",
        )]);
        let r = compute(&model);
        let mut flat: Vec<&str> = Vec::new();
        for (fi, f) in model.files.iter().enumerate() {
            for (gi, g) in f.outline.fns.iter().enumerate() {
                if r.contains(fi, gi) {
                    flat.push(g.name.as_str());
                }
            }
        }
        assert!(flat.contains(&"fan_out"), "{flat:?}");
        assert!(flat.contains(&"swap_in"), "{flat:?}");
        assert!(flat.contains(&"plan"), "{flat:?}");
        assert!(flat.contains(&"record"), "{flat:?}");
        assert!(flat.contains(&"merge"), "{flat:?}");
        assert!(!flat.contains(&"unrelated"), "{flat:?}");
    }

    #[test]
    fn test_functions_are_never_roots_or_targets() {
        let model = Model::from_sources(&[(
            "crates/engine/src/t.rs",
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn range_sum() { helper(); }\n}\nfn helper() {}\n",
        )]);
        let r = compute(&model);
        assert!(r.is_empty(), "test code contributes no roots: {:?}", r);
    }
}
