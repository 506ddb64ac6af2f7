//! A lightweight intra-function CFG: loop extents and guard-binding
//! liveness spans.
//!
//! Like the outline, this is not a parser — it is brace/paren matching
//! over the token stream, leaning on two Rust grammar facts: struct
//! literals are banned in `if`/`while`/`for`/`match`-header expression
//! position (so the first depth-0 `{` after such a keyword opens the
//! construct's block), and every other statement ends at a depth-0 `;`
//! or at the end of its enclosing block (a trailing expression).
//!
//! Two consumers:
//!
//! * **budget-coverage** asks for the loops in a function body
//!   ([`loops_in`]) so it can check each body for a `BudgetMeter`
//!   charge;
//! * **pin-across-blocking** asks for guard bindings and their live
//!   spans ([`guard_bindings`]): `let g = x.lock()…;` is live from its
//!   statement's end to the end of the enclosing block, truncated at an
//!   explicit `drop(g)`.
//!
//! Constructs the pass cannot model (macro bodies that expand to control
//! flow, `loop` inside a macro invocation) simply produce no loops or
//! bindings; rules degrade toward silence, never toward false
//! positives.

use crate::lexer::{TokKind, Token};
use crate::outline::match_brace;

/// One `for`/`while`/`loop` construct inside a function body.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Which keyword introduced the loop (`"for"`, `"while"`, `"loop"`).
    pub kind: &'static str,
    /// Token index of the keyword.
    pub kw: usize,
    /// Token range `[open_brace, close_brace]` of the loop body.
    pub body: (usize, usize),
    /// 1-based position of the keyword.
    pub line: u32,
    /// 1-based column of the keyword.
    pub col: u32,
}

/// All loops (nested ones included) in the token range `[a, b]`.
pub fn loops_in(toks: &[Token], a: usize, b: usize) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    let end = b.min(toks.len().saturating_sub(1));
    let mut i = a;
    while i <= end {
        let t = &toks[i];
        let kind = match t.text.as_str() {
            "for" if t.kind == TokKind::Ident => "for",
            "while" if t.kind == TokKind::Ident => "while",
            "loop" if t.kind == TokKind::Ident => "loop",
            _ => {
                i += 1;
                continue;
            }
        };
        // `for<'a> Fn(…)` is a higher-ranked trait bound, not a loop.
        if kind == "for" && toks.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            i += 1;
            continue;
        }
        // Header runs to the first `{` at paren/bracket depth 0 (struct
        // literals are banned in this position; closures in the header
        // sit behind a `(`).
        let mut j = i + 1;
        let mut d = 0i32;
        let mut open = None;
        while j <= end {
            let tj = &toks[j];
            if tj.is_punct("(") || tj.is_punct("[") {
                d += 1;
            } else if tj.is_punct(")") || tj.is_punct("]") {
                d -= 1;
            } else if d <= 0 && tj.is_punct("{") {
                open = Some(j);
                break;
            } else if d <= 0 && tj.is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let close = match_brace(toks, open).min(end);
        out.push(LoopInfo {
            kind,
            kw: i,
            body: (open, close),
            line: t.line,
            col: t.col,
        });
        // Continue *inside* the body so nested loops are found too.
        i = open + 1;
    }
    out
}

/// End of the simple statement starting at `i`: its depth-0 `;`, or the
/// token before the enclosing block's close for a trailing expression.
pub(crate) fn simple_end(toks: &[Token], i: usize, close: usize) -> usize {
    let mut d = 0i32;
    let mut j = i;
    while j < close.min(toks.len()) {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            d -= 1;
            if d < 0 {
                return j.saturating_sub(1).max(i);
            }
        } else if d <= 0 && t.is_punct(";") {
            return j;
        }
        j += 1;
    }
    close.saturating_sub(1).max(i)
}

/// A `let`-bound guard with its live span.
#[derive(Debug, Clone)]
pub struct GuardBinding {
    /// The bound identifier.
    pub name: String,
    /// The receiver identity the guard was acquired from.
    pub recv: String,
    /// The acquiring method (`lock`, `read`, `write`, `load`, …).
    pub method: String,
    /// Token index of the bound identifier.
    pub bind_tok: usize,
    /// 1-based position of the binding.
    pub line: u32,
    /// 1-based column of the binding.
    pub col: u32,
    /// Live token span: from just past the binding statement to the end
    /// of the enclosing block, truncated at an explicit `drop(name)`.
    pub live: (usize, usize),
}

/// Finds `let g = …recv.method(…)…;` guard bindings in `[a, b]` where
/// `is_guard_acq(recv, method)` accepts the acquisition. The live span
/// runs from the binding statement's end to the end of the enclosing
/// block, truncated at a `drop(g)`.
pub fn guard_bindings(
    toks: &[Token],
    a: usize,
    b: usize,
    is_guard_acq: &dyn Fn(&str, &str) -> bool,
) -> Vec<GuardBinding> {
    let end = b.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    let mut i = a;
    while i <= end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        // Simple-ident bindings only: destructuring patterns start with
        // `(`/`[` or a capitalized path and are skipped.
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident
            || name_tok
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            i = j + 1;
            continue;
        }
        let name = name_tok.text.clone();
        let stmt_end = simple_end(toks, i, end + 1);
        // Look for `recv.method(` inside the initializer.
        let mut acq: Option<(String, String)> = None;
        let mut k = j + 1;
        while k + 3 <= stmt_end {
            if toks[k].kind == TokKind::Ident
                && toks[k + 1].is_punct(".")
                && toks[k + 2].kind == TokKind::Ident
                && toks.get(k + 3).is_some_and(|t| t.is_punct("("))
                && is_guard_acq(&toks[k].text, &toks[k + 2].text)
            {
                acq = Some((toks[k].text.clone(), toks[k + 2].text.clone()));
                break;
            }
            k += 1;
        }
        let Some((recv, method)) = acq else {
            i = stmt_end + 1;
            continue;
        };
        // Live to the end of the enclosing block…
        let mut d = 0i32;
        let mut live_end = end;
        let mut m = stmt_end + 1;
        while m <= end {
            let tm = &toks[m];
            if tm.is_punct("{") || tm.is_punct("(") || tm.is_punct("[") {
                d += 1;
            } else if tm.is_punct("}") || tm.is_punct(")") || tm.is_punct("]") {
                d -= 1;
                if d < 0 {
                    live_end = m;
                    break;
                }
            } else if tm.is_ident("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(m + 2).is_some_and(|t| t.is_ident(&name))
                && toks.get(m + 3).is_some_and(|t| t.is_punct(")"))
            {
                // …truncated at an explicit drop of this guard.
                live_end = m;
                break;
            }
            m += 1;
        }
        out.push(GuardBinding {
            name,
            recv,
            method,
            bind_tok: j,
            line: name_tok.line,
            col: name_tok.col,
            live: (stmt_end + 1, live_end),
        });
        i = stmt_end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn body_of(src: &str) -> (Vec<Token>, usize, usize) {
        let lx = lex(src);
        let open = lx.tokens.iter().position(|t| t.is_punct("{")).unwrap();
        let close = match_brace(&lx.tokens, open);
        (lx.tokens, open, close)
    }

    #[test]
    fn loops_are_found_with_bodies_including_nested() {
        let (toks, open, close) =
            body_of("fn f() {\n  for i in 0..n { while go() { step(); } }\n  loop { break; }\n}\n");
        let loops = loops_in(&toks, open, close);
        let kinds: Vec<&str> = loops.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec!["for", "while", "loop"]);
        // The while's body is inside the for's body.
        assert!(loops[1].body.0 > loops[0].body.0 && loops[1].body.1 < loops[0].body.1);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let (toks, open, close) =
            body_of("fn f() {\n  let g: Box<dyn for<'a> Fn(&'a u8)> = mk();\n  loop {}\n}\n");
        let loops = loops_in(&toks, open, close);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].kind, "loop");
    }

    #[test]
    fn guard_bindings_live_to_block_end_or_drop() {
        let src = "fn f() {\n  let g = cell.load();\n  work();\n  drop(g);\n  after();\n}\n";
        let (toks, open, close) = body_of(src);
        let gs = guard_bindings(&toks, open, close, &|r, m| r == "cell" && m == "load");
        assert_eq!(gs.len(), 1);
        let g = &gs[0];
        assert_eq!((g.name.as_str(), g.recv.as_str()), ("g", "cell"));
        // Live span ends at the drop, before `after()`.
        let after = toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(g.live.1 < after);
        // Without the drop it runs to the block end.
        let src2 = "fn f() {\n  let g = cell.load();\n  work();\n  after();\n}\n";
        let (toks2, open2, close2) = body_of(src2);
        let gs2 = guard_bindings(&toks2, open2, close2, &|r, m| r == "cell" && m == "load");
        let after2 = toks2.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(gs2[0].live.1 > after2);
    }

    #[test]
    fn non_matching_lets_and_destructures_are_skipped() {
        let src = "fn f() {\n  let x = other.load();\n  let (a, b) = pair();\n  let Some(v) = opt else { return };\n}\n";
        let (toks, open, close) = body_of(src);
        let gs = guard_bindings(&toks, open, close, &|r, m| r == "cell" && m == "load");
        assert!(gs.is_empty(), "{gs:?}");
    }
}
