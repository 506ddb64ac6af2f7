//! Fixture: span-discipline allowed — the stored span carries a reasoned
//! inline allow, so the finding is recorded but inactive.

pub struct Worker {
    // analyzer: allow(span-discipline, reason = "inert placeholder: never records, kept for layout compatibility")
    span: TraceSpan,
}
