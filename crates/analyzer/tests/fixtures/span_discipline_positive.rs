//! Fixture: span-discipline positive — a `TraceSpan` parked in a struct
//! field.

pub struct Worker {
    span: TraceSpan,
}
