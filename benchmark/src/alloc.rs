//! A counting global allocator: the source of `allocs_per_op` and
//! `space_ratio`. It forwards to [`System`] and, while switched on, keeps
//! an exact count of allocations and of live bytes. It is switched off
//! during the end-to-end timed windows, so two contended atomics per
//! allocation do not sit inside the numbers that are gated.
//!
//! The only `unsafe` in the benchmark is the `GlobalAlloc` impl below.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

#[inline]
fn note(allocs: u64, bytes: i64) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(allocs, Relaxed);
        LIVE.fetch_add(bytes, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to the same method
// of `System`, which upholds the `GlobalAlloc` contract; the counters are
// statistics only and never influence the pointers or layouts involved.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off. Deltas are meaningful only between two
/// reads taken while counting stayed on.
pub fn counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Live heap bytes, relative to an arbitrary origin.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations it made (on every thread) and the live bytes it left.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let was = ON.swap(true, Relaxed);
    let (a0, b0) = (allocs(), live_bytes());
    let out = f();
    let (a1, b1) = (allocs(), live_bytes());
    ON.store(was, Relaxed);
    (out, a1 - a0, b1 - b0)
}
