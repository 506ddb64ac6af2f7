//! Rule `span-discipline`: trace frames are entered or dropped on every
//! path, and `TraceSpan` never lives in a field.
//!
//! PR 8's tracer is a thread-local RAII design: a `TraceSpan` pushes a
//! frame onto the calling thread's stack and pops it on drop, so it is
//! deliberately `!Send` and must never be stored — a span in a struct
//! field outlives its stack discipline and corrupts the frame tree the
//! moment the struct crosses a thread. The cross-thread story is
//! `PendingSpan`: created where the work is *enqueued*, carried by
//! value in the job envelope, and consumed on the worker via
//! `finish_and_enter`. A `PendingSpan` bound to a local and then
//! forgotten on some control-flow path produces a queue-wait frame that
//! is never closed into the tree — the trace shows a query that entered
//! the queue and vanished.
//!
//! Two checks:
//!
//! * **all-paths consumption** — a `let p = …PendingSpan…;` binding
//!   (that does not already consume the span via
//!   `finish`/`finish_and_enter`/`enter` in its initializer) must be
//!   mentioned on every path through the rest of its scope
//!   ([`crate::cfg::every_path_touches`]): moved into an envelope,
//!   consumed, or explicitly dropped. `_`-prefixed bindings opt out —
//!   that spelling *is* the explicit hold-to-scope-end idiom.
//! * **no stored `TraceSpan`** — any struct field or static whose
//!   declared type mentions `TraceSpan` is flagged at the declaration.

use crate::cfg;
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model::Model;

/// Initializer idents that already consume the span.
const CONSUMERS: &[&str] = &["finish", "finish_and_enter", "enter"];

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &model.files {
        // Part B: TraceSpan stored in a field/static.
        for fd in &file.outline.fields {
            if !fd.in_test && fd.type_idents.iter().any(|t| t == "TraceSpan") {
                findings.push(file.finding(
                    "span-discipline",
                    fd.line,
                    1,
                    format!(
                        "`TraceSpan` stored in `{}.{}` — spans are thread-local RAII \
                         frames and must live on the stack; carry `PendingSpan` by \
                         value instead and `finish_and_enter` it on the worker",
                        fd.holder, fd.field,
                    ),
                ));
            }
        }
        // Part A: PendingSpan bindings consumed on every path.
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            let Some((a, b)) = f.body else { continue };
            let toks = &file.lexed.tokens;
            let end = b.min(toks.len().saturating_sub(1));
            let stmts = cfg::parse_block(toks, a, b);
            let mut i = a + 1;
            while i <= end {
                if !toks[i].is_ident("let") {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let Some(name_tok) = toks.get(j) else { break };
                let stmt_end = cfg::simple_end(toks, i, end + 1);
                if name_tok.kind != TokKind::Ident
                    || name_tok.text.starts_with('_')
                    || name_tok
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                {
                    i = stmt_end + 1;
                    continue;
                }
                let init = &toks[j + 1..=stmt_end.min(end)];
                let pending = init
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "PendingSpan");
                let consumed = init
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && CONSUMERS.contains(&t.text.as_str()));
                if pending && !consumed {
                    let name = name_tok.text.clone();
                    let ok = cfg::containing_list(&stmts, j).is_some_and(|(list, idx)| {
                        cfg::every_path_touches(&list[idx + 1..], toks, &name)
                    });
                    if !ok {
                        findings.push(file.finding(
                            "span-discipline",
                            name_tok.line,
                            name_tok.col,
                            format!(
                                "`PendingSpan` bound to `{}` in `{}` is not consumed on \
                                 every path — a fall-through path leaks an open \
                                 queue-wait frame; move it into the envelope, \
                                 `finish_and_enter` it, or `drop` it on each branch",
                                name, f.name,
                            ),
                        ));
                    }
                }
                i = stmt_end + 1;
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn run(src: &str) -> Vec<Finding> {
        let model = Model::from_sources(&[("crates/telemetry/src/fx.rs", src)]);
        check(&model)
    }

    #[test]
    fn span_forgotten_on_one_path_is_flagged() {
        let f = run(
            "fn enqueue(q: &Queue, deep: bool) {\n  let span = PendingSpan::start(\"queue_wait\");\n  \
             if deep { q.push(span); }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`span`"));
    }

    #[test]
    fn consumed_or_moved_on_every_path_is_clean() {
        let f = run(
            "fn enqueue(q: &Queue, deep: bool) {\n  let span = PendingSpan::start(\"queue_wait\");\n  \
             if deep { q.push(span); } else { drop(span); }\n}\n\
             fn immediate() {\n  let entered = PendingSpan::start(\"x\").finish_and_enter();\n  work(&entered);\n}\n\
             fn held() {\n  let _hold = PendingSpan::start(\"y\");\n  work2();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unrelated_bindings_are_ignored() {
        let f = run("fn other(cond: bool) {\n  let x = compute();\n  if cond { use_(x); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trace_span_in_a_field_is_flagged() {
        let f = run("pub struct Job {\n  span: Option<TraceSpan>,\n}\n\
             pub struct Ok1 {\n  trace: Option<PendingSpan>,\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Job.span"));
    }
}
