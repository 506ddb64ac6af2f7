//! Fixture: span-discipline false-positive guard — spans held on the
//! stack and field types that merely mention spans in their name must
//! stay quiet.

pub struct Worker {
    name: SpanName,
    trace: Option<TraceContext>,
}

/// A stack-held RAII span is the intended use.
pub fn run(job: Job) {
    let _span = TraceSpan::start("run");
    push(job);
}
