//! Fixture: stale-allow positive — one allow still suppresses a real
//! finding; the other names a line that no longer has one.

use std::sync::atomic::{AtomicU64, Ordering};

static HITS: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    // analyzer: allow(atomic-ordering, reason = "kept to show a live allow")
    HITS.fetch_add(1, Ordering::Relaxed);
}

pub fn read() -> u64 {
    // analyzer: allow(atomic-ordering, reason = "the ordering this covered is gone")
    7
}
