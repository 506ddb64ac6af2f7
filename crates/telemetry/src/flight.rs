//! The query flight recorder: a fixed-capacity ring buffer of the last N
//! query outcomes and route decisions.
//!
//! Each [`FlightRecord`] captures one routed query end to end: which
//! operation, which engine answered, what the §8 cost model predicted,
//! what was observed (total and per access class), and how long it took. The recorder is the post-hoc debugging view the
//! registry's aggregates can't give — "what were the last 64 decisions
//! and were any of them mispredicted?" — and tests assert on it
//! programmatically via [`FlightRecorder::snapshot`].

use crate::json_escape;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default number of records kept by a fresh recorder.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One routed query's record.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecord {
    /// Monotone sequence number assigned by the recorder (0-based over
    /// the recorder's lifetime, so gaps reveal evicted records).
    pub seq: u64,
    /// Operation name (`range_sum`, `range_max`, …).
    pub op: &'static str,
    /// Label of the engine that answered.
    pub engine: String,
    /// The structure that answered (`EngineKind` display form).
    pub kind: String,
    /// The analytic estimate the router compared at decision time
    /// (paper units, elements accessed).
    pub predicted: f64,
    /// Observed total accesses (the §8 cost).
    pub observed: u64,
    /// Cells of the base cube `A` read.
    pub a_cells: u64,
    /// Precomputed cells read.
    pub p_cells: u64,
    /// Tree nodes visited.
    pub tree_nodes: u64,
    /// Wall time of the engine call, in nanoseconds.
    pub latency_ns: u64,
    /// How the semantic cache was involved: `"exact"` (served from a
    /// cached entry), `"miss"` (cache consulted, backend answered), or
    /// `"bypass"` (no cache on the path). See [`CacheOutcomeScope`].
    pub cache: &'static str,
}

impl FlightRecord {
    /// `observed / predicted` — the §8 model's misprediction factor (1.0
    /// is a perfect prediction). `None` when the prediction was
    /// non-positive or non-finite.
    pub fn misprediction(&self) -> Option<f64> {
        (self.predicted.is_finite() && self.predicted > 0.0)
            .then(|| self.observed as f64 / self.predicted)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"op\": \"{}\", \"engine\": \"{}\", \"kind\": \"{}\", \
             \"cache\": \"{}\", \
             \"predicted\": {}, \"observed\": {}, \
             \"a_cells\": {}, \"p_cells\": {}, \"tree_nodes\": {}, \"latency_ns\": {}}}",
            self.seq,
            json_escape(self.op),
            json_escape(&self.engine),
            json_escape(&self.kind),
            json_escape(self.cache),
            json_number(self.predicted),
            self.observed,
            self.a_cells,
            self.p_cells,
            self.tree_nodes,
            self.latency_ns,
        )
    }
}

thread_local! {
    static CACHE_OUTCOME: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// The cache-outcome annotation in effect on the current thread, `None`
/// outside any [`CacheOutcomeScope`]. Consumers building a
/// [`FlightRecord`] downstream of a cache (the router) read it with
/// `cache_outcome().unwrap_or("bypass")`.
pub fn cache_outcome() -> Option<&'static str> {
    CACHE_OUTCOME.with(Cell::get)
}

/// Annotates the current thread with a cache outcome for the duration of
/// a backend call, so a [`FlightRecord`] built *under* the cache (by the
/// router, several frames down) can say how the cache was involved.
/// Nestable — the innermost scope wins and the previous annotation is
/// restored on drop (panic-safe).
#[derive(Debug)]
pub struct CacheOutcomeScope {
    prev: Option<&'static str>,
}

impl CacheOutcomeScope {
    /// Installs `outcome` (`"exact"`, `"miss"`, …) as the
    /// thread's annotation until the guard drops.
    pub fn set(outcome: &'static str) -> CacheOutcomeScope {
        CacheOutcomeScope {
            prev: CACHE_OUTCOME.with(|c| c.replace(Some(outcome))),
        }
    }
}

impl Drop for CacheOutcomeScope {
    fn drop(&mut self) {
        CACHE_OUTCOME.with(|c| c.set(self.prev));
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A thread-safe ring buffer of the last N [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    next_seq: u64,
    records: VecDeque<FlightRecord>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum number of records kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .len()
    }

    /// Whether no record has been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_seq
    }

    /// Appends a record, evicting the oldest at capacity. The record's
    /// `seq` is overwritten with the recorder's next sequence number.
    pub fn record(&self, mut record: FlightRecord) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        record.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
        }
        inner.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Drops every retained record (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .clear();
    }

    /// The retained records as a JSON array, oldest first.
    pub fn to_json(&self) -> String {
        let records = self.snapshot();
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            let sep = if i + 1 == records.len() { "" } else { "," };
            out.push_str(&format!("  {}{sep}\n", r.to_json()));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(engine: &str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            op: "range_sum",
            engine: engine.to_string(),
            kind: "basic prefix sum (§3)".to_string(),
            predicted: 4.2,
            observed: 4,
            a_cells: 0,
            p_cells: 4,
            tree_nodes: 0,
            latency_ns: 1200,
            cache: "bypass",
        }
    }

    #[test]
    fn ring_evicts_oldest_and_sequences() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            rec.record(record(&format!("e{i}")));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        let snap = rec.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(snap[0].engine, "e2");
        assert_eq!(snap[2].engine, "e4");
    }

    #[test]
    fn misprediction_factor() {
        let mut r = record("x");
        assert!((r.misprediction().unwrap() - 4.0 / 4.2).abs() < 1e-12);
        r.predicted = f64::INFINITY;
        assert_eq!(r.misprediction(), None);
        r.predicted = 0.0;
        assert_eq!(r.misprediction(), None);
    }

    #[test]
    fn json_dump_shape() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(record("naive-scan"));
        rec.record(FlightRecord {
            predicted: f64::INFINITY,
            ..record("cube-index(blocked b=8)")
        });
        let json = rec.to_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.contains("\"engine\": \"naive-scan\""), "{json}");
        assert!(json.contains("\"predicted\": null"), "{json}");
        assert!(json.contains("\"observed\": 4"), "{json}");
        assert!(json.contains("\"seq\": 1"), "{json}");
        assert!(json.contains("\"cache\": \"bypass\""), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
    }

    #[test]
    fn cache_outcome_scope_nests_and_restores() {
        assert_eq!(cache_outcome(), None);
        {
            let _miss = CacheOutcomeScope::set("miss");
            assert_eq!(cache_outcome(), Some("miss"));
            {
                let _exact = CacheOutcomeScope::set("exact");
                assert_eq!(cache_outcome(), Some("exact"));
            }
            assert_eq!(cache_outcome(), Some("miss"));
        }
        assert_eq!(cache_outcome(), None);
        // Restored even when the scope unwinds.
        let r = std::panic::catch_unwind(|| {
            let _g = CacheOutcomeScope::set("exact");
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(cache_outcome(), None);
    }

    #[test]
    fn clear_keeps_sequencing() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(record("a"));
        rec.clear();
        assert!(rec.is_empty());
        rec.record(record("b"));
        assert_eq!(rec.snapshot()[0].seq, 1);
        assert_eq!(rec.capacity(), 2);
    }
}
