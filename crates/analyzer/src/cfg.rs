//! A lightweight intra-function CFG: loop extents, a statement tree for
//! all-paths analyses, and guard-binding liveness spans.
//!
//! Like the outline, this is not a parser — it is brace/paren matching
//! over the token stream, leaning on two Rust grammar facts: struct
//! literals are banned in `if`/`while`/`for`/`match`-header expression
//! position (so the first depth-0 `{` after such a keyword opens the
//! construct's block), and every other statement ends at a depth-0 `;`
//! or at the end of its enclosing block (a trailing expression).
//!
//! Three consumers:
//!
//! * **budget-coverage** asks for the loops in a function body
//!   ([`loops_in`]) so it can check each body for a `BudgetMeter`
//!   charge;
//! * **span-discipline** asks whether every control-flow path from a
//!   binding to the end of its scope touches the bound name
//!   ([`parse_block`] + [`every_path_touches`]) — `if` without `else`,
//!   a non-exhaustive-looking match arm, and loop bodies (which may run
//!   zero times) all fail the "every path" test;
//! * **pin-across-blocking** asks for guard bindings and their live
//!   spans ([`guard_bindings`]): `let g = x.lock()…;` is live from its
//!   statement's end to the end of the enclosing block, truncated at an
//!   explicit `drop(g)`.
//!
//! Constructs the pass cannot model (macro bodies that expand to control
//! flow, `loop` inside a macro invocation) simply produce no loops or
//! statements; rules degrade toward silence, never toward false
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

/// One statement in the tree.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Full token extent of the statement, inclusive.
    pub range: (usize, usize),
    /// The statement's shape.
    pub kind: StmtKind,
}

/// Statement shapes the all-paths analysis distinguishes.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// Anything without modeled control flow (lets, calls, `return e;`,
    /// `expr;`, trailing expressions).
    Simple,
    /// A bare `{ … }` or `unsafe { … }` block.
    Block(Vec<Stmt>),
    /// `if header { then } [else { else_ }]` — an `else if` chain parses
    /// as a one-statement else block holding the next `if`.
    If {
        /// Token extent of the condition (`if`/`if let` header).
        header: (usize, usize),
        /// Then-branch statements.
        then_b: Vec<Stmt>,
        /// Else-branch statements, when an `else` is present.
        else_b: Option<Vec<Stmt>>,
    },
    /// `for`/`while`/`loop` — the body may execute zero times, so it
    /// never satisfies an all-paths requirement.
    Loop {
        /// Token extent of the loop header (keyword through pre-brace).
        header: (usize, usize),
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `match header { arms }` — each arm is a statement list.
    Match {
        /// Token extent of the scrutinee.
        header: (usize, usize),
        /// One statement list per arm.
        arms: Vec<Vec<Stmt>>,
    },
}

/// Parses the statements of the block whose braces sit at token indices
/// `open` and `close`.
pub fn parse_block(toks: &[Token], open: usize, close: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close.min(toks.len()) {
        let t = &toks[i];
        if t.is_punct(";") {
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            let end = match_brace(toks, i).min(close);
            out.push(Stmt {
                range: (i, end),
                kind: StmtKind::Block(parse_block(toks, i, end)),
            });
            i = end + 1;
            continue;
        }
        if t.is_ident("unsafe") && toks.get(i + 1).is_some_and(|n| n.is_punct("{")) {
            let end = match_brace(toks, i + 1).min(close);
            out.push(Stmt {
                range: (i, end),
                kind: StmtKind::Block(parse_block(toks, i + 1, end)),
            });
            i = end + 1;
            continue;
        }
        if t.is_ident("if") {
            let (stmt, next) = parse_if(toks, i, close);
            out.push(stmt);
            i = next;
            continue;
        }
        if (t.is_ident("while") || t.is_ident("loop"))
            || (t.is_ident("for") && !toks.get(i + 1).is_some_and(|n| n.is_punct("<")))
        {
            if let Some(body_open) = header_block(toks, i + 1, close) {
                let body_close = match_brace(toks, body_open).min(close);
                out.push(Stmt {
                    range: (i, body_close),
                    kind: StmtKind::Loop {
                        header: (i, body_open.saturating_sub(1)),
                        body: parse_block(toks, body_open, body_close),
                    },
                });
                i = body_close + 1;
                continue;
            }
        }
        if t.is_ident("match") {
            if let Some(body_open) = header_block(toks, i + 1, close) {
                let body_close = match_brace(toks, body_open).min(close);
                out.push(Stmt {
                    range: (i, body_close),
                    kind: StmtKind::Match {
                        header: (i, body_open.saturating_sub(1)),
                        arms: parse_arms(toks, body_open, body_close),
                    },
                });
                // A statement-position match can still be part of a larger
                // expression statement (`match … {}.foo();`) — rare; the
                // trailing tokens parse as the next Simple statement,
                // which is fine for an any-mention analysis.
                i = body_close + 1;
                continue;
            }
        }
        // Simple statement: to the depth-0 `;` or the end of the block.
        let end = simple_end(toks, i, close);
        out.push(Stmt {
            range: (i, end),
            kind: StmtKind::Simple,
        });
        i = end + 1;
    }
    out
}

/// Parses `if … { … } [else if … | else { … }]` starting at the `if`
/// keyword; returns the statement and the index just past it.
fn parse_if(toks: &[Token], if_kw: usize, close: usize) -> (Stmt, usize) {
    let Some(then_open) = header_block(toks, if_kw + 1, close) else {
        // Malformed / macro-mangled: degrade to a simple statement.
        let end = simple_end(toks, if_kw, close);
        return (
            Stmt {
                range: (if_kw, end),
                kind: StmtKind::Simple,
            },
            end + 1,
        );
    };
    let then_close = match_brace(toks, then_open).min(close);
    let then_b = parse_block(toks, then_open, then_close);
    let mut end = then_close;
    let mut else_b = None;
    if toks.get(then_close + 1).is_some_and(|t| t.is_ident("else")) {
        if toks.get(then_close + 2).is_some_and(|t| t.is_ident("if")) {
            let (nested, next) = parse_if(toks, then_close + 2, close);
            end = nested.range.1;
            else_b = Some(vec![nested]);
            return (
                Stmt {
                    range: (if_kw, end),
                    kind: StmtKind::If {
                        header: (if_kw, then_open.saturating_sub(1)),
                        then_b,
                        else_b,
                    },
                },
                next,
            );
        }
        if toks.get(then_close + 2).is_some_and(|t| t.is_punct("{")) {
            let else_close = match_brace(toks, then_close + 2).min(close);
            else_b = Some(parse_block(toks, then_close + 2, else_close));
            end = else_close;
        }
    }
    (
        Stmt {
            range: (if_kw, end),
            kind: StmtKind::If {
                header: (if_kw, then_open.saturating_sub(1)),
                then_b,
                else_b,
            },
        },
        end + 1,
    )
}

/// Splits a match body `[open, close]` into arm statement lists. Each
/// arm is `pattern [if guard] => expr-or-block`, separated by depth-0
/// commas after expression arms.
fn parse_arms(toks: &[Token], open: usize, close: usize) -> Vec<Vec<Stmt>> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close.min(toks.len()) {
        // Skip the pattern: forward to the depth-0 `=>`.
        let mut d = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < close {
            let tj = &toks[j];
            if tj.is_punct("(") || tj.is_punct("[") || tj.is_punct("{") {
                d += 1;
            } else if tj.is_punct(")") || tj.is_punct("]") || tj.is_punct("}") {
                d -= 1;
            } else if d <= 0 && tj.is_punct("=>") {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let body_start = arrow + 1;
        if toks.get(body_start).is_some_and(|t| t.is_punct("{")) {
            let body_close = match_brace(toks, body_start).min(close);
            arms.push(parse_block(toks, body_start, body_close));
            i = body_close + 1;
            if toks.get(i).is_some_and(|t| t.is_punct(",")) {
                i += 1;
            }
        } else {
            // Expression arm: to the depth-0 `,` or the match close.
            let mut d = 0i32;
            let mut k = body_start;
            while k < close {
                let tk = &toks[k];
                if tk.is_punct("(") || tk.is_punct("[") || tk.is_punct("{") {
                    d += 1;
                } else if tk.is_punct(")") || tk.is_punct("]") || tk.is_punct("}") {
                    d -= 1;
                } else if d <= 0 && tk.is_punct(",") {
                    break;
                }
                k += 1;
            }
            arms.push(vec![Stmt {
                range: (body_start, k.saturating_sub(1).max(body_start)),
                kind: StmtKind::Simple,
            }]);
            i = k + 1;
        }
    }
    arms
}

/// First `{` at paren/bracket depth 0 in `[from, close)` — the block a
/// control-flow header opens. `None` when the construct has no block
/// before the enclosing close (macro-mangled input).
fn header_block(toks: &[Token], from: usize, close: usize) -> Option<usize> {
    let mut d = 0i32;
    let mut j = from;
    while j < close.min(toks.len()) {
        let tj = &toks[j];
        if tj.is_punct("(") || tj.is_punct("[") {
            d += 1;
        } else if tj.is_punct(")") || tj.is_punct("]") {
            d -= 1;
        } else if d <= 0 && tj.is_punct("{") {
            return Some(j);
        } else if d <= 0 && tj.is_punct(";") {
            return None;
        }
        j += 1;
    }
    None
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

/// Whether identifier `name` occurs in the token range `[a, b]`.
pub fn mentions(toks: &[Token], range: (usize, usize), name: &str) -> bool {
    let (a, b) = range;
    toks[a..=b.min(toks.len().saturating_sub(1))]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == name)
}

/// Whether **every** control-flow path through `stmts` mentions `name`.
///
/// Loops never satisfy the requirement through their bodies (zero
/// iterations is a path), `if` needs both branches (or a mention in the
/// header), `match` needs every arm.
pub fn every_path_touches(stmts: &[Stmt], toks: &[Token], name: &str) -> bool {
    stmts.iter().any(|s| must_touch(s, toks, name))
}

fn must_touch(s: &Stmt, toks: &[Token], name: &str) -> bool {
    match &s.kind {
        StmtKind::Simple => mentions(toks, s.range, name),
        StmtKind::Block(b) => every_path_touches(b, toks, name),
        StmtKind::If {
            header,
            then_b,
            else_b,
        } => {
            mentions(toks, *header, name)
                || (else_b.as_ref().is_some_and(|e| {
                    every_path_touches(then_b, toks, name) && every_path_touches(e, toks, name)
                }))
        }
        StmtKind::Loop { header, .. } => mentions(toks, *header, name),
        StmtKind::Match { header, arms } => {
            mentions(toks, *header, name)
                || (!arms.is_empty() && arms.iter().all(|a| every_path_touches(a, toks, name)))
        }
    }
}

/// Locates the statement list directly containing token `tok` and the
/// index of the containing statement within it — the scope whose
/// remaining statements an all-paths analysis must examine.
pub fn containing_list(stmts: &[Stmt], tok: usize) -> Option<(&[Stmt], usize)> {
    for (i, s) in stmts.iter().enumerate() {
        if !(s.range.0 <= tok && tok <= s.range.1) {
            continue;
        }
        let deeper = match &s.kind {
            StmtKind::Simple => None,
            StmtKind::Block(b) => containing_list(b, tok),
            StmtKind::If { then_b, else_b, .. } => containing_list(then_b, tok)
                .or_else(|| else_b.as_ref().and_then(|e| containing_list(e, tok))),
            StmtKind::Loop { body, .. } => containing_list(body, tok),
            StmtKind::Match { arms, .. } => arms.iter().find_map(|a| containing_list(a, tok)),
        };
        return deeper.or(Some((stmts, i)));
    }
    None
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
    fn statement_tree_models_if_else_and_match() {
        let (toks, open, close) = body_of(
            "fn f() {\n  let x = 1;\n  if a { b(); } else { c(); }\n  match v { A => d(), B => { e(); } }\n  tail()\n}\n",
        );
        let stmts = parse_block(&toks, open, close);
        assert_eq!(stmts.len(), 4, "{stmts:#?}");
        assert!(matches!(stmts[0].kind, StmtKind::Simple));
        assert!(matches!(
            &stmts[1].kind,
            StmtKind::If {
                else_b: Some(_),
                ..
            }
        ));
        match &stmts[2].kind {
            StmtKind::Match { arms, .. } => assert_eq!(arms.len(), 2),
            k => panic!("expected match, got {k:?}"),
        }
        assert!(matches!(stmts[3].kind, StmtKind::Simple));
    }

    #[test]
    fn every_path_needs_both_if_branches() {
        let check = |src: &str| {
            let (toks, open, close) = body_of(src);
            let stmts = parse_block(&toks, open, close);
            every_path_touches(&stmts, &toks, "p")
        };
        // Both branches touch `p`.
        assert!(check("fn f() { if a { p.go(); } else { drop(p); } }"));
        // Missing else: the fall-through path never touches `p`.
        assert!(!check("fn f() { if a { p.go(); } }"));
        // One branch misses it.
        assert!(!check("fn f() { if a { p.go(); } else { other(); } }"));
        // A later unconditional statement covers all paths.
        assert!(check("fn f() { if a { other(); }\n  p.go(); }"));
        // Loop bodies never guarantee execution…
        assert!(!check("fn f() { while a { p.go(); } }"));
        // …but a mention in the loop header does.
        assert!(check("fn f() { for x in p.iter() { use_(x); } }"));
        // Match needs every arm.
        assert!(check("fn f() { match a { A => p.go(), B => drop(p) } }"));
        assert!(!check("fn f() { match a { A => p.go(), B => other() } }"));
    }

    #[test]
    fn containing_list_finds_the_binding_scope() {
        let (toks, open, close) = body_of("fn f() { if a { let p = mk(); use_(p); } tail(); }");
        let stmts = parse_block(&toks, open, close);
        let p_tok = toks.iter().position(|t| t.is_ident("p")).unwrap();
        let (list, idx) = containing_list(&stmts, p_tok).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(list.len(), 2, "the then-branch list, not the outer one");
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
