//! Rule `lock-order`: no cycles in the guard-held-while-acquiring graph.
//!
//! The router, the telemetry registry, the span subscriber slot, and the
//! flight recorder each own a `Mutex`/`RwLock`. A deadlock needs two
//! functions acquiring two of them in opposite orders — easy to
//! introduce from either side of the `engine`/`telemetry` boundary,
//! invisible in any single diff, and only *probabilistically* caught by
//! the chaos suite. This rule keeps the whole-workspace acquisition
//! graph acyclic.
//!
//! The pass is token-level and deliberately over-approximate:
//!
//! - **lock identities** are field/static names whose declared type
//!   mentions `Mutex`, `RwLock`, `VersionCell`, or `SemanticCache`
//!   (from the outline);
//! - an **acquisition** is `name.lock(` / `name.read(` / `name.write(`
//!   on a `Mutex`/`RwLock` identity; `name.load(` / `name.update(` /
//!   `name.install(` / `name.swap_in(` on a `VersionCell` identity —
//!   every entry point of the snapshot swap path enters the cell's
//!   internal `writer`/`current` locks, so a call through the cell is an
//!   acquisition of the cell's own identity; or `name.range_sum(` /
//!   `name.read(` / `name.apply_updates(` / `name.clear(` /
//!   `name.stats(` / `name.len(` on a `SemanticCache` identity, whose
//!   entry points enter the cache's `update_lock`/`inner` mutexes;
//! - a guard bound with `let` is held to the end of its enclosing block,
//!   a temporary to the end of its statement;
//! - acquiring `b` while `a` is held adds the edge `a → b`.
//!
//! A false cycle from a guard the code drops early can be silenced with
//! `// analyzer: allow(lock-order, reason = "…")` at the acquisition
//! that closes the cycle.

use crate::findings::Finding;
use crate::lexer::{TokKind, Token};
use crate::model::Model;
use crate::outline::LockKind;
use std::collections::BTreeMap;

/// One `a → b` edge with the evidence needed for a diagnostic.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: usize,
    line: u32,
    col: u32,
    fn_name: String,
}

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    // Lock identities from every file (non-test declarations). A name
    // declared as both kinds anywhere keeps both vocabularies — the
    // conservative direction for a name-resolved pass.
    let mut locks: Vec<(String, LockKind)> = Vec::new();
    for file in &model.files {
        for l in &file.outline.lock_fields {
            if !l.in_test && !locks.contains(&(l.field.clone(), l.kind)) {
                locks.push((l.field.clone(), l.kind));
            }
        }
    }
    if locks.is_empty() {
        return Vec::new();
    }
    // Collect edges per function.
    let mut edges: Vec<Edge> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            let Some((a, b)) = f.body else { continue };
            let acqs = acquisitions(&file.lexed.tokens, a, b, &locks);
            for (i, first) in acqs.iter().enumerate() {
                for second in &acqs[i + 1..] {
                    if second.at <= first.held_until && second.name != first.name {
                        edges.push(Edge {
                            from: first.name.clone(),
                            to: second.name.clone(),
                            file: fi,
                            line: second.line,
                            col: second.col,
                            fn_name: f.name.clone(),
                        });
                    }
                }
            }
        }
    }
    // Cycle detection on the union graph.
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut reported: Vec<Vec<String>> = Vec::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<&Edge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        dfs(
            start,
            &adj,
            &mut on_path,
            &mut stack,
            &mut |cycle: &[&Edge]| {
                let mut names: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
                names.sort();
                if reported.contains(&names) {
                    return;
                }
                reported.push(names);
                let last = cycle[cycle.len() - 1];
                let path = cycle
                    .iter()
                    .map(|e| {
                        format!(
                            "{} → {} (in `{}` at {}:{})",
                            e.from, e.to, e.fn_name, model.files[e.file].rel, e.line
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                findings.push(model.files[last.file].finding(
                    "lock-order",
                    last.line,
                    last.col,
                    format!("lock-order cycle: {path}"),
                ));
            },
        );
    }
    findings
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    on_path: &mut Vec<&'a str>,
    stack: &mut Vec<&'a Edge>,
    report: &mut impl FnMut(&[&'a Edge]),
) {
    let Some(nexts) = adj.get(node) else { return };
    for e in nexts {
        if let Some(pos) = on_path.iter().position(|n| *n == e.to.as_str()) {
            if pos == 0 {
                // Closes a cycle back to the DFS start.
                stack.push(e);
                report(stack);
                stack.pop();
            }
            continue;
        }
        on_path.push(e.to.as_str());
        stack.push(e);
        dfs(e.to.as_str(), adj, on_path, stack, report);
        stack.pop();
        on_path.pop();
    }
}

#[derive(Debug)]
struct Acq {
    name: String,
    at: usize,
    held_until: usize,
    line: u32,
    col: u32,
}

/// Finds acquisitions in a body and computes their hold extents.
fn acquisitions(toks: &[Token], a: usize, b: usize, locks: &[(String, LockKind)]) -> Vec<Acq> {
    let end = b.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in a..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let dotted = toks.get(i + 1).is_some_and(|n| n.is_punct("."));
        let method = toks.get(i + 2);
        let called = toks.get(i + 3).is_some_and(|n| n.is_punct("("));
        let is_acq = dotted
            && called
            && method.is_some_and(|m| {
                locks.iter().any(|(name, kind)| {
                    name == &t.text
                        && match kind {
                            LockKind::Sync => {
                                matches!(m.text.as_str(), "lock" | "read" | "write")
                            }
                            LockKind::Cell => {
                                matches!(m.text.as_str(), "load" | "update" | "install" | "swap_in")
                            }
                            LockKind::Cache => {
                                matches!(
                                    m.text.as_str(),
                                    "range_sum"
                                        | "read"
                                        | "apply_updates"
                                        | "clear"
                                        | "stats"
                                        | "len"
                                )
                            }
                            LockKind::Sink => {
                                matches!(
                                    m.text.as_str(),
                                    "record"
                                        | "finish_root"
                                        | "span_count"
                                        | "dropped"
                                        | "records"
                                        | "slow_traces"
                                        | "trace_ids"
                                        | "trace_tree"
                                        | "to_chrome_json"
                                )
                            }
                        }
                })
            });
        if !is_acq {
            continue;
        }
        // Bound via `let` in this statement ⇒ held to end of enclosing
        // block; otherwise a temporary ⇒ held to end of statement.
        let bound = statement_has_let(toks, a, i);
        let held_until = if bound {
            enclosing_block_end(toks, i, end)
        } else {
            statement_end(toks, i, end)
        };
        out.push(Acq {
            name: t.text.clone(),
            at: i,
            held_until,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// Whether a `let` occurs between the start of the current statement and
/// token `i`.
fn statement_has_let(toks: &[Token], body_start: usize, i: usize) -> bool {
    let mut j = i;
    while j > body_start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false;
        }
        if t.is_ident("let") {
            return true;
        }
    }
    false
}

/// Token index ending the statement containing `i` (its depth-0 `;`, or
/// the `}` that closes the surrounding block).
fn statement_end(toks: &[Token], i: usize, body_end: usize) -> usize {
    let mut d = 0i32;
    let mut j = i;
    while j <= body_end {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            d -= 1;
            if d < 0 {
                return j;
            }
        } else if d <= 0 && t.is_punct(";") {
            return j;
        }
        j += 1;
    }
    body_end
}

/// Token index of the `}` closing the block containing `i`.
fn enclosing_block_end(toks: &[Token], i: usize, body_end: usize) -> usize {
    let mut d = 0i32;
    let mut j = i;
    while j <= body_end {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            d -= 1;
            if d < 0 {
                return j;
            }
        }
        j += 1;
    }
    body_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    const DECLS: &str = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n";

    #[test]
    fn opposite_orders_across_two_fns_form_a_cycle() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{\n  let ga = s.a.lock();\n  let gb = s.b.lock();\n}}\n\
             fn g(s: &S) {{\n  let gb = s.b.lock();\n  let ga = s.a.lock();\n}}\n"
        );
        let f = check(&Model::from_sources(&[("crates/x/src/l.rs", &src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock-order cycle"));
        assert!(f[0].message.contains("a") && f[0].message.contains("b"));
    }

    #[test]
    fn consistent_order_is_fine() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{\n  let ga = s.a.lock();\n  let gb = s.b.lock();\n}}\n\
             fn g(s: &S) {{\n  let ga = s.a.lock();\n  let gb = s.b.lock();\n}}\n"
        );
        let f = check(&Model::from_sources(&[("crates/x/src/l.rs", &src)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn temporaries_do_not_hold_across_statements() {
        // `a` is locked as a temporary (dropped at the `;`), so the later
        // `b` acquisition overlaps nothing.
        let src = format!(
            "{DECLS}fn f(s: &S) {{\n  s.a.lock().unwrap();\n  let gb = s.b.lock();\n}}\n\
             fn g(s: &S) {{\n  s.b.lock().unwrap();\n  let ga = s.a.lock();\n}}\n"
        );
        let f = check(&Model::from_sources(&[("crates/x/src/l.rs", &src)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_bound_guard_holds_to_block_end() {
        // Same statement shapes as above but `let`-bound: now both locks
        // overlap and the opposite orders cycle.
        let src = format!(
            "{DECLS}fn f(s: &S) {{\n  let ga = s.a.lock();\n  s.b.lock().unwrap();\n}}\n\
             fn g(s: &S) {{\n  let gb = s.b.lock();\n  s.a.lock().unwrap();\n}}\n"
        );
        let f = check(&Model::from_sources(&[("crates/x/src/l.rs", &src)]));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn cross_file_cycles_are_found() {
        let f = check(&Model::from_sources(&[
            (
                "crates/x/src/a.rs",
                "struct S { a: Mutex<u8>, b: Mutex<u8> }\nfn f(s: &S) { let g1 = s.a.lock(); let g2 = s.b.lock(); }\n",
            ),
            (
                "crates/y/src/b.rs",
                "fn g(s: &S) { let g1 = s.b.lock(); let g2 = s.a.lock(); }\n",
            ),
        ]));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn version_cell_swap_calls_join_the_acquisition_graph() {
        // Holding `m` while installing into the cell in one function and
        // holding the cell while taking `m` in another is the classic
        // opposite-order cycle — now visible across the swap path.
        let src = "struct S { m: Mutex<u8>, cell: VersionCell<i64> }\n\
                   fn f(s: &S) {\n  let g = s.m.lock();\n  s.cell.update(&[]);\n}\n\
                   fn g(s: &S) {\n  let v = s.cell.load();\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cell"), "{f:?}");
    }

    #[test]
    fn trace_sink_calls_join_the_acquisition_graph() {
        // Recording a span while holding `m` in one function and taking
        // `m` while assembling trees from the sink in another is an
        // opposite-order cycle across the sink's internal store mutex.
        let src = "struct S { m: Mutex<u8>, sink: Arc<TraceSink> }\n\
                   fn f(s: &S) {\n  let g = s.m.lock();\n  s.sink.record(rec);\n}\n\
                   fn g(s: &S) {\n  let t = s.sink.trace_tree(id);\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sink"), "{f:?}");
    }

    #[test]
    fn semantic_cache_calls_join_the_acquisition_graph() {
        // Holding `m` while driving an install through the cache in one
        // function, and holding the cache's locks (via a lookup) while
        // taking `m` in another, is the opposite-order cycle — visible
        // under the cache's own identity.
        let src = "struct S { m: Mutex<u8>, cache: Arc<SemanticCache<i64, R>> }\n\
                   fn f(s: &S) {\n  let g = s.m.lock();\n  s.cache.apply_updates(&[]);\n}\n\
                   fn g(s: &S) {\n  let v = s.cache.range_sum(&q);\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cache"), "{f:?}");
    }

    #[test]
    fn a_region_read_through_the_cache_is_an_acquisition() {
        // A server shard reads a resolved region through the cache: that
        // lookup holds the cache's locks like `range_sum` does.
        let src = "struct S { m: Mutex<u8>, cache: Arc<SemanticCache<i64, R>> }\n\
                   fn f(s: &S) {\n  let g = s.m.lock();\n  s.cache.apply_updates(&[]);\n}\n\
                   fn g(s: &S) {\n  let v = s.cache.read(&region, op);\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cache"), "{f:?}");
    }

    #[test]
    fn cell_vocabulary_does_not_apply_to_plain_mutexes() {
        // `.load(` on a Mutex-kind identity is not an acquisition (it is
        // the atomic vocabulary), so no overlap and no cycle.
        let src = "struct S { m: Mutex<u8>, n: Mutex<u8> }\n\
                   fn f(s: &S) {\n  let g = s.m.lock();\n  s.n.load(Ordering::Relaxed);\n}\n\
                   fn g(s: &S) {\n  let g = s.n.load(Ordering::Relaxed);\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn consistent_cell_then_lock_order_is_fine() {
        let src = "struct S { m: Mutex<u8>, cell: VersionCell<i64> }\n\
                   fn f(s: &S) {\n  let v = s.cell.load();\n  s.m.lock().unwrap();\n}\n\
                   fn g(s: &S) {\n  let v = s.cell.install(e);\n  s.m.lock().unwrap();\n}\n";
        let f = check(&Model::from_sources(&[("crates/x/src/c.rs", src)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn io_read_on_non_lock_names_is_ignored() {
        let src = "struct S { a: Mutex<u8> }\nfn f(r: &mut impl std::io::Read) { file.read(&mut buf); stdin.lock(); }\n";
        let f = check(&Model::from_sources(&[("crates/x/src/l.rs", src)]));
        assert!(f.is_empty(), "{f:?}");
    }
}
