//! Rule `error-surface`: public functions don't swallow fallibility.
//!
//! The fault-tolerance layer (PR 4) routes every failure through
//! `EngineError`; a `pub fn` in `olap-engine`/`olap-array` that calls a
//! fallible internal and returns a bare value has exactly two ways to
//! cope — panic or silently discard — and both undermine the error
//! surface the router's failover logic depends on.
//!
//! The rule builds a table of **unambiguously fallible** functions:
//! names whose every non-test definition in the scanned workspace
//! returns `Result`. A `pub` function in scope that does not itself
//! return `Result`/`Option` and calls one of them is flagged (once per
//! function) unless the call visibly handles the result:
//!
//! - the statement starts with / the call sits in `match`, `if let`,
//!   `while let`, or a `let Ok(…)`/`let Err(…)` binding;
//! - the call is followed by a result-consuming method
//!   (`.ok()`, `.err()`, `.is_ok()`, `.unwrap_or…`, `.map_err(…)`, …);
//! - the call is followed by `?` (the compiler then enforces the
//!   enclosing signature) or by `.unwrap()`/`.expect(…)` (a deliberate
//!   panic — clippy's `unwrap_used`/`expect_used` own that decision).

use crate::findings::Finding;
use crate::lexer::{TokKind, Token};
use crate::model::Model;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose public surface the rule audits.
const SCOPE: &[&str] = &["engine", "array"];

/// Method names that consume or transform a `Result`, counting as
/// explicit handling at the call site.
const HANDLERS: &[&str] = &[
    "ok",
    "err",
    "is_ok",
    "is_err",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_err",
    "and_then",
    "or_else",
    "map",
    "iter",
    "into_iter",
];

/// Names too generic to attribute by name alone, regardless of how
/// their definitions look.
const GENERIC_NAMES: &[&str] = &[
    "new", "default", "get", "from", "into", "clone", "build",
    // Names shadowing std methods (`.max()`, `.min()`, `.sum()`, …): a
    // bare workspace definition can't claim these call sites.
    "max", "min", "sum", "count", "len", "push", "insert", "take", "swap",
];

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    // Unambiguously fallible names: every non-test definition returns
    // Result, and at least one definition exists.
    let mut always: BTreeMap<&str, bool> = BTreeMap::new();
    for file in &model.files {
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            let e = always.entry(f.name.as_str()).or_insert(true);
            *e &= f.returns_result;
        }
    }
    let fallible: BTreeSet<&str> = always
        .iter()
        .filter(|(name, all)| **all && !GENERIC_NAMES.contains(*name))
        .map(|(name, _)| *name)
        .collect();
    if fallible.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for file in &model.files {
        if !SCOPE.contains(&file.crate_name.as_str()) {
            continue;
        }
        for f in &file.outline.fns {
            if f.in_test || !f.is_pub || f.returns_result || f.returns_option {
                continue;
            }
            let Some((a, b)) = f.body else { continue };
            if let Some((callee, line, col)) = unhandled_call(&file.lexed.tokens, a, b, &fallible) {
                out.push(file.finding(
                    "error-surface",
                    line,
                    col,
                    format!(
                        "pub fn `{}` returns no Result but calls fallible `{callee}` without handling it",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

/// First call to a fallible name inside `[a, b]` whose result is not
/// visibly handled, if any.
fn unhandled_call(
    toks: &[Token],
    a: usize,
    b: usize,
    fallible: &BTreeSet<&str>,
) -> Option<(String, u32, u32)> {
    let end = b.min(toks.len().saturating_sub(1));
    for i in a..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !fallible.contains(t.text.as_str()) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // `fn` definitions and struct literals are not calls.
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct("|")) {
            continue;
        }
        if statement_handles(toks, a, i) || call_is_consumed(toks, i + 1, end) {
            continue;
        }
        return Some((t.text.clone(), t.line, t.col));
    }
    None
}

/// Whether the statement containing the call starts with a handling
/// construct (`match`, `if let`, `while let`, `let Ok(…)`, `let Err(…)`,
/// or any `let` binding — a named result is the caller's to check).
fn statement_handles(toks: &[Token], body_start: usize, i: usize) -> bool {
    let mut j = i;
    while j > body_start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") {
            return false;
        }
        if t.is_ident("match") || t.is_ident("let") || t.is_ident("return") {
            return true;
        }
        if t.is_ident("if") || t.is_ident("while") {
            return toks.get(j + 1).is_some_and(|n| n.is_ident("let"));
        }
    }
    false
}

/// Whether the call's value is consumed right after its closing paren:
/// `?`, or `.handler(`-style result methods.
fn call_is_consumed(toks: &[Token], open: usize, end: usize) -> bool {
    // Find the matching `)`.
    let mut d = 0i32;
    let mut j = open;
    while j <= end {
        if toks[j].is_punct("(") || toks[j].is_punct("[") || toks[j].is_punct("{") {
            d += 1;
        } else if toks[j].is_punct(")") || toks[j].is_punct("]") || toks[j].is_punct("}") {
            d -= 1;
            if d == 0 {
                break;
            }
        }
        j += 1;
    }
    let after = toks.get(j + 1);
    match after {
        Some(t) if t.is_punct("?") => true,
        Some(t) if t.is_punct(".") => toks
            .get(j + 2)
            .is_some_and(|m| HANDLERS.contains(&m.text.as_str())),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    const FALLIBLE: &str = "fn load_page(i: usize) -> Result<Page, E> { body() }\n";

    fn run(caller: &str) -> Vec<Finding> {
        let src = format!("{FALLIBLE}{caller}");
        check(&Model::from_sources(&[("crates/engine/src/e.rs", &src)]))
    }

    #[test]
    fn swallowing_pub_fn_is_flagged() {
        let f = run("pub fn warm(i: usize) { load_page(i); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("warm") && f[0].message.contains("load_page"));
    }

    #[test]
    fn result_returning_and_private_fns_are_fine() {
        let f = run(
            "pub fn warm(i: usize) -> Result<(), E> { load_page(i)?; Ok(()) }\n\
             fn internal(i: usize) { load_page(i); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn visible_handling_escapes() {
        let f = run("pub fn a(i: usize) { match load_page(i) { _ => {} } }\n\
             pub fn b(i: usize) { if let Ok(p) = load_page(i) { use_it(p); } }\n\
             pub fn c(i: usize) { let r = load_page(i); log(r); }\n\
             pub fn d(i: usize) { load_page(i).ok(); }\n\
             pub fn e(i: usize) -> bool { load_page(i).is_ok() }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ambiguous_names_are_not_fallible() {
        // A second, infallible `load_page` definition makes the name
        // ambiguous — no finding.
        let f = run("fn load_page(i: u32) -> u32 { i }\npub fn warm(i: usize) { load_page(i); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_are_skipped() {
        let src = format!("{FALLIBLE}pub fn warm(i: usize) {{ load_page(i); }}\n");
        let f = check(&Model::from_sources(&[("crates/cli/src/c.rs", &src)]));
        assert!(f.is_empty(), "{f:?}");
    }
}
