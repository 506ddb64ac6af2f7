//! Scoped telemetry contexts, and the one-atomic-load fast path
//! instrumented code relies on.
//!
//! A [`Telemetry`] context bundles a [`Registry`] and a
//! [`FlightRecorder`]. Instrumented call sites ask [`current`] for the
//! active context:
//!
//! - if **no** context is active anywhere in the process, [`current`] is a
//!   single relaxed atomic load returning `None` — the disabled cost,
//!   the denominator of the perf ledger's `telemetry.active_tax` rung,
//! - otherwise the innermost context entered with [`with_scope`] on the
//!   calling thread answers.
//!
//! Scopes are how tests and the CLI isolate a workload's metrics from
//! everything else running in the process.

use crate::flight::FlightRecorder;
use crate::registry::Registry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A bundle of telemetry sinks: metric registry and flight recorder.
#[derive(Default)]
pub struct Telemetry {
    registry: Registry,
    recorder: FlightRecorder,
}

impl Telemetry {
    /// A fresh context with an empty registry and a default-capacity
    /// flight recorder.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A fresh context whose flight recorder keeps the last `capacity`
    /// records.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            recorder: FlightRecorder::with_capacity(capacity),
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.registry.len())
            .field("flight_records", &self.recorder.len())
            .finish()
    }
}

/// Number of scopes entered on any thread. Zero ⇒ the fast path:
/// instrumentation is a single load of this atomic.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SCOPES: RefCell<Vec<Arc<Telemetry>>> = const { RefCell::new(Vec::new()) };
}

/// Whether any telemetry context is active anywhere in the process. One
/// relaxed atomic load; instrumentation's fast path.
#[inline]
pub fn enabled() -> bool {
    // ordering: Relaxed — ACTIVE is a hint, not a publication channel.
    // The context itself lives in a thread-local; a stale zero here only
    // delays the first recording by one query, which the protocol
    // tolerates.
    ACTIVE.load(Ordering::Relaxed) != 0
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
        // ordering: Relaxed — counter hint only (see `enabled()`); the
        // scope stack itself is thread-local, so no cross-thread data
        // hangs off this decrement.
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` with `ctx` installed as the current thread's telemetry
/// context. Nestable (innermost wins); unwound correctly on panic.
///
/// Worker threads spawned inside `f` do **not** inherit the scope
/// automatically — code that spawns threads must capture [`current`] and
/// re-enter it per worker (as `olap-server`'s load driver does for its
/// reader threads).
pub fn with_scope<R>(ctx: &Arc<Telemetry>, f: impl FnOnce() -> R) -> R {
    SCOPES.with(|s| s.borrow_mut().push(ctx.clone()));
    // ordering: Relaxed — counter hint only (see `enabled()`); the
    // pushed context is visible to `current()` through the thread-local
    // SCOPES, never through this atomic.
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let _guard = ScopeGuard;
    f()
}

/// The active telemetry context for this thread: the innermost
/// [`with_scope`] context, else `None`. When no scope is entered
/// anywhere this is one atomic load.
#[inline]
pub fn current() -> Option<Arc<Telemetry>> {
    if !enabled() {
        return None;
    }
    current_slow()
}

#[inline(never)]
fn current_slow() -> Option<Arc<Telemetry>> {
    SCOPES.with(|s| s.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global ACTIVE counter with every
    // other test in this binary, so they only assert on *scoped* state
    // and on relative transitions, never on absolute disabled-ness.

    #[test]
    fn scoped_context_wins_and_unwinds() {
        let a = Arc::new(Telemetry::new());
        let b = Arc::new(Telemetry::new());
        with_scope(&a, || {
            a.registry().counter("outer", &[]).inc(1);
            let cur = current().expect("scope active");
            cur.registry().counter("via_current", &[]).inc(1);
            with_scope(&b, || {
                let cur = current().expect("scope active");
                cur.registry().counter("inner", &[]).inc(1);
            });
            // Back to the outer scope after the inner one ends.
            let cur = current().expect("scope active");
            cur.registry().counter("outer_again", &[]).inc(1);
        });
        assert_eq!(a.registry().counter("outer", &[]).get(), 1);
        assert_eq!(a.registry().counter("via_current", &[]).get(), 1);
        assert_eq!(a.registry().counter("outer_again", &[]).get(), 1);
        assert_eq!(b.registry().counter("inner", &[]).get(), 1);
        // Nothing leaked across contexts.
        assert_eq!(a.registry().counter("inner", &[]).get(), 0);
    }

    #[test]
    fn scope_survives_panic() {
        // Only this thread's scope stack is asserted on: concurrently
        // running tests move the process-global ACTIVE counter.
        let a = Arc::new(Telemetry::new());
        let depth = || SCOPES.with(|s| s.borrow().len());
        let is_a = |ctx: Option<Arc<Telemetry>>| ctx.is_some_and(|c| Arc::ptr_eq(&c, &a));
        let before = depth();
        let mut inside = None;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scope(&a, || {
                inside = Some((depth(), is_a(current())));
                panic!("boom")
            });
        }));
        assert!(r.is_err());
        assert_eq!(inside, Some((before + 1, true)), "scope not entered");
        assert_eq!(depth(), before, "scope not popped");
        assert!(!is_a(current()), "panicked scope still current");
    }

    #[test]
    fn scopes_are_thread_local() {
        let a = Arc::new(Telemetry::new());
        with_scope(&a, || {
            let handle = std::thread::spawn(|| {
                // The spawned thread has no scoped context, even though
                // ACTIVE is nonzero because of our scope.
                SCOPES.with(|s| s.borrow().len())
            });
            assert_eq!(handle.join().unwrap(), 0);
        });
    }
}
