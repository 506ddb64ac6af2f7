//! Rule `span-discipline`: `TraceSpan` never lives in a field.
//!
//! PR 8's tracer is a thread-local RAII design: a `TraceSpan` pushes a
//! frame onto the calling thread's stack and pops it on drop, so it is
//! deliberately `!Send` and must never be stored — a span in a struct
//! field outlives its stack discipline and corrupts the frame tree the
//! moment the struct crosses a thread. Any struct field or static whose
//! declared type mentions `TraceSpan` is flagged at the declaration.
//! A trace never continues on another thread: spans start where the
//! work runs.

use crate::findings::Finding;
use crate::model::Model;

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &model.files {
        for fd in &file.outline.fields {
            if !fd.in_test && fd.type_idents.iter().any(|t| t == "TraceSpan") {
                findings.push(file.finding(
                    "span-discipline",
                    fd.line,
                    1,
                    format!(
                        "`TraceSpan` stored in `{}.{}` — spans are thread-local RAII \
                         frames and must live on the stack of the thread that \
                         started them; start the span where the work runs",
                        fd.holder, fd.field,
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
    use crate::model::Model;

    fn run(src: &str) -> Vec<Finding> {
        let model = Model::from_sources(&[("crates/telemetry/src/fx.rs", src)]);
        check(&model)
    }

    #[test]
    fn trace_span_in_a_field_is_flagged() {
        let f = run("pub struct Job {\n  span: Option<TraceSpan>,\n}\n\
             pub struct Ok1 {\n  trace: Option<TraceContext>,\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Job.span"));
    }

    #[test]
    fn spans_on_the_stack_are_ignored() {
        let f = run("fn work() {\n  let _span = TraceSpan::start(\"x\");\n  go();\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
