//! An exact-result cache: [`SemanticCache`].
//!
//! The cache stores `(region, epoch, sum)` entries in a bounded LRU. A
//! lookup answers from an entry only when the query's region equals the
//! entry's and the entry is stamped with the snapshot epoch the lookup
//! pinned; every other lookup falls through to the wrapped backend and
//! inserts the fresh answer.
//!
//! Why nothing more: with the basic prefix-sum array a range sum costs
//! `2^d` accesses (Theorem 1), and §8 shows no plan that combines other
//! sums undercuts that. Assembling a contained query as a cached superset
//! minus its residual boxes never paid on the perf ledger's four
//! workloads (0 assemblies per 1000 lookups on each), while pricing the
//! residuals taxed every miss.
//!
//! # Consistency under snapshot installs
//!
//! Entries are keyed on the backend's snapshot epoch
//! ([`CacheBackend::epoch`], the [`crate::VersionCell`] /
//! [`crate::AdaptiveRouter`] install counter), and a lookup only consults
//! entries stamped with the epoch it pinned. Updates applied *through*
//! the cache ([`SemanticCache::apply_updates`]) invalidate region-wise:
//! an install drops exactly the entries whose region contains an updated
//! cell; everything else is re-stamped to the new epoch and survives — no
//! global flush.
//!
//! Installs that bypass the cache (callers talking to the backend
//! directly) are tolerated — stale entries are skipped (their epoch never
//! matches again) and age out via LRU — but region-wise survival is only
//! provided for updates routed through [`SemanticCache::apply_updates`].
//!
//! # Locking
//!
//! Two locks, ordered `update_lock → inner`: `update_lock` serialises
//! update/invalidation cycles, `inner` guards the entry table. The
//! backend is **never** called with `inner` held — a lookup probes under
//! the lock, releases it, then executes on a miss — so cached reads never
//! wait on engine work, matching the reader/writer discipline of
//! [`crate::VersionCell`].

use crate::{AdaptiveRouter, EngineError, VersionCell};
use olap_aggregate::NumericValue;
use olap_array::{Region, Shape};
use olap_query::{AccessStats, Answer, EngineKind, QueryOutcome, RangeQuery};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The backend a [`SemanticCache`] fronts: anything that answers range
/// sums against an epoch-stamped snapshot. Implemented for
/// [`AdaptiveRouter`] and [`VersionCell`] (and `Arc`s of either), which
/// covers any [`crate::RangeEngine`] by wrapping it in a cell.
pub trait CacheBackend<V>: Send + Sync {
    /// The shape of the cube served, when one is known. `None` (e.g. an
    /// empty router) puts the cache in pure passthrough mode.
    fn shape(&self) -> Option<Shape>;

    /// Direct range-sum execution.
    ///
    /// # Errors
    /// Whatever the backend reports.
    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError>;

    /// Direct range-max execution (the cache always passes extrema
    /// through).
    ///
    /// # Errors
    /// Whatever the backend reports.
    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError>;

    /// Direct range-min execution.
    ///
    /// # Errors
    /// Whatever the backend reports.
    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError>;

    /// Applies a batch of absolute-value updates, installing a successor
    /// snapshot (bumping [`CacheBackend::epoch`] by one on success).
    ///
    /// # Errors
    /// Whatever the backend reports; nothing is installed on error.
    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError>;

    /// The current snapshot epoch (monotone, +1 per install).
    fn epoch(&self) -> u64;
}

impl<V: NumericValue> CacheBackend<V> for AdaptiveRouter<V> {
    fn shape(&self) -> Option<Shape> {
        if self.is_empty() {
            None
        } else {
            Some(self.engine(0).shape().clone())
        }
    }

    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        AdaptiveRouter::range_sum(self, query)
    }

    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        AdaptiveRouter::range_max(self, query)
    }

    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        AdaptiveRouter::range_min(self, query)
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        AdaptiveRouter::apply_updates(self, updates)
    }

    fn epoch(&self) -> u64 {
        AdaptiveRouter::epoch(self)
    }
}

impl<V: 'static> CacheBackend<V> for VersionCell<V> {
    fn shape(&self) -> Option<Shape> {
        Some(self.load().engine().shape().clone())
    }

    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.load().engine().range_sum(query)
    }

    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.load().engine().range_max(query)
    }

    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.load().engine().range_min(query)
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        self.update(updates)
    }

    fn epoch(&self) -> u64 {
        VersionCell::epoch(self)
    }
}

impl<V, B: CacheBackend<V> + ?Sized> CacheBackend<V> for Arc<B> {
    fn shape(&self) -> Option<Shape> {
        (**self).shape()
    }

    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        (**self).range_sum(query)
    }

    fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        (**self).range_max(query)
    }

    fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        (**self).range_min(query)
    }

    fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        (**self).apply_updates(updates)
    }

    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

/// A point-in-time view of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered exactly from a stored entry.
    pub hits: u64,
    /// Always 0: the cache answers exact repeats only. Kept while the
    /// perf ledger (`benchmark/`) still reads it.
    pub assemblies: u64,
    /// Lookups that fell through to the backend.
    pub misses: u64,
    /// Entries dropped by update invalidation (region holds an updated
    /// cell, stale epoch, or a conservative flush).
    pub invalidations: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room (LRU).
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups that went through the cached sum path.
    pub fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of lookups answered from a stored entry. 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// One stored result.
struct Entry<V> {
    region: Region,
    epoch: u64,
    sum: V,
}

/// The entry table: a slot arena plus the exact-region index.
struct CacheInner<V> {
    slots: Vec<Option<Entry<V>>>,
    /// LRU stamps, parallel to `slots` (valid where the slot is
    /// occupied). Kept dense and separate so the eviction scan reads 8
    /// bytes per slot instead of dragging whole entries through cache.
    used: Vec<u64>,
    free: Vec<usize>,
    /// Region fingerprint ([`fingerprint`]) → slot of the region's newest
    /// entry, so a lookup is one probe. A probe confirms the slot's
    /// region, so two regions that share a fingerprint cost a hit, never
    /// a wrong answer.
    exact: HashMap<u64, usize, BuildHasherDefault<BoundsHasher>>,
    len: usize,
    /// LRU clock, bumped per lookup.
    tick: u64,
    /// The epoch the table was last reconciled with. Diverges from the
    /// backend epoch only across installs that bypassed the cache.
    synced_epoch: u64,
    /// True while [`SemanticCache::apply_updates`] is between the backend
    /// install and the region-wise invalidation sweep; inserts are refused
    /// meanwhile, so every entry the sweep re-stamps was checked against
    /// the batch.
    pending_install: bool,
}

/// A bounded, snapshot-consistent exact-result cache in front of a
/// [`CacheBackend`]. See the module docs for the answering and
/// invalidation protocol.
///
/// `capacity == 0` disables the cache entirely: every call is a pure
/// passthrough and no counter moves, so a disabled cache costs one
/// branch.
pub struct SemanticCache<V, B> {
    backend: B,
    shape: Option<Shape>,
    capacity: usize,
    label: String,
    /// Serialises update/invalidation cycles. Ordered before `inner`.
    update_lock: Mutex<()>,
    /// The entry table. Never held across a backend call.
    inner: Mutex<CacheInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V, B> SemanticCache<V, B>
where
    V: NumericValue,
    B: CacheBackend<V>,
{
    /// Wraps `backend` with an LRU of at most `capacity` entries under
    /// the default label.
    pub fn new(backend: B, capacity: usize) -> Self {
        SemanticCache::with_label(backend, capacity, "cache")
    }

    /// Wraps `backend`; `label` names the cache in the exported
    /// `olap_cache_*` series (e.g. `shard-3`).
    pub fn with_label(backend: B, capacity: usize, label: &str) -> Self {
        let shape = backend.shape();
        let epoch = backend.epoch();
        SemanticCache {
            backend,
            shape,
            capacity,
            label: label.to_string(),
            update_lock: Mutex::new(()),
            inner: Mutex::new(CacheInner {
                slots: Vec::new(),
                used: Vec::new(),
                free: Vec::new(),
                exact: HashMap::default(),
                len: 0,
                tick: 0,
                synced_epoch: epoch,
                pending_install: false,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The cache's label in exported metrics.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Maximum stored entries (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.lock_inner().len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backend's current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.backend.epoch()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        fn stat(counter: &AtomicU64) -> u64 {
            // ordering: Relaxed — statistics counter, no synchronisation.
            counter.load(Ordering::Relaxed)
        }
        CacheStats {
            hits: stat(&self.hits),
            assemblies: 0,
            misses: stat(&self.misses),
            invalidations: stat(&self.invalidations),
            insertions: stat(&self.insertions),
            evictions: stat(&self.evictions),
            entries: self.len(),
        }
    }

    /// Drops every entry (counted as invalidations).
    pub fn clear(&self) {
        let _update = self.update_lock.lock().unwrap_or_else(|e| e.into_inner());
        let dropped = {
            let mut inner = self.lock_inner();
            let dropped = inner.len as u64;
            for slot in &mut inner.slots {
                *slot = None;
            }
            for used in &mut inner.used {
                *used = VACANT;
            }
            inner.free = (0..inner.slots.len()).collect();
            inner.exact.clear();
            inner.len = 0;
            dropped
        };
        if dropped > 0 {
            self.bump(
                "olap_cache_invalidations_total",
                &self.invalidations,
                dropped,
            );
        }
        self.publish_entries(0);
    }

    /// Answers a range-sum query through the cache: from the stored entry
    /// when the region repeats at the current epoch, by the backend
    /// otherwise (inserting the fresh answer). Cached answers report
    /// [`EngineKind::SemanticCache`]; fall-throughs keep the backend's
    /// attribution.
    ///
    /// # Errors
    /// Whatever the backend reports; the cache itself never fails a
    /// query.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        let Some(region) = self.resolve(query) else {
            return self.backend.range_sum(query);
        };
        // Context and clock together: an idle site is one atomic load.
        let observing = olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now()));
        let epoch0 = self.backend.epoch();
        let hit = {
            let _lookup_span = olap_telemetry::TraceSpan::start("cache_lookup");
            self.lookup(&region, epoch0)
        };
        let Some(sum) = hit else {
            return self.miss(query, region, epoch0);
        };
        self.bump("olap_cache_hits_total", &self.hits, 1);
        let mut stats = AccessStats::new();
        stats.step(1);
        // A hit never reaches the router, so it writes its own flight
        // record (the only place that knows it happened).
        if let Some((ctx, started)) = observing {
            self.record_exact_hit(&ctx, started);
        }
        Ok(QueryOutcome::aggregate(
            sum,
            stats,
            EngineKind::SemanticCache,
        ))
    }

    /// Passes a range-max query straight to the backend.
    ///
    /// # Errors
    /// Whatever the backend reports.
    pub fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.backend.range_max(query)
    }

    /// Passes a range-min query straight to the backend.
    ///
    /// # Errors
    /// Whatever the backend reports.
    pub fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.backend.range_min(query)
    }

    /// Applies an update batch through the backend and invalidates
    /// region-wise: entries whose region contains an updated cell are
    /// dropped, every other current entry is re-stamped to the new epoch
    /// and stays answerable — no global flush.
    ///
    /// # Errors
    /// Whatever the backend reports; on error nothing is installed and
    /// current entries stay valid.
    pub fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        if self.capacity == 0 || self.shape.is_none() {
            return self.backend.apply_updates(updates);
        }
        let _update = self.update_lock.lock().unwrap_or_else(|e| e.into_inner());
        let epoch_before = self.backend.epoch();
        self.lock_inner().pending_install = true;
        let result = self.backend.apply_updates(updates);
        let epoch_after = self.backend.epoch();
        let installed = result.is_ok() && epoch_after == epoch_before + 1;
        let unchanged = result.is_err() && epoch_after == epoch_before;
        let (dropped, remaining) = {
            let mut inner = self.lock_inner();
            inner.pending_install = false;
            let mut dropped = 0u64;
            for id in 0..inner.slots.len() {
                let keep = match inner.slots.get(id).and_then(Option::as_ref) {
                    None => continue,
                    Some(e) if e.epoch != epoch_before => false,
                    Some(_) if unchanged => true,
                    Some(e) if installed => !holds_an_update(&e.region, updates),
                    // Backend epoch moved unexpectedly (an install raced
                    // past the cache): conservative flush.
                    Some(_) => false,
                };
                if keep {
                    if let Some(e) = inner.slots.get_mut(id).and_then(Option::as_mut) {
                        e.epoch = epoch_after;
                    }
                } else {
                    Self::detach(&mut inner, id);
                    dropped = dropped.saturating_add(1);
                }
            }
            inner.synced_epoch = epoch_after;
            (dropped, inner.len)
        };
        if dropped > 0 {
            self.bump(
                "olap_cache_invalidations_total",
                &self.invalidations,
                dropped,
            );
        }
        self.publish_entries(remaining);
        result
    }

    /// The query's region, when the cache is enabled and the query
    /// resolves against the backend's shape. `None` → passthrough.
    fn resolve(&self, query: &RangeQuery) -> Option<Region> {
        if self.capacity == 0 {
            return None;
        }
        let shape = self.shape.as_ref()?;
        query.to_region(shape).ok()
    }

    /// The stored sum for `region` at `epoch`, found by one index probe
    /// under the `inner` lock and stamped most recently used. The backend
    /// is never called here.
    fn lookup(&self, region: &Region, epoch: u64) -> Option<V> {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        let id = Self::current_exact(&inner, region, fingerprint(region), epoch)?;
        if let Some(u) = inner.used.get_mut(id) {
            *u = tick;
        }
        inner
            .slots
            .get(id)
            .and_then(Option::as_ref)
            .map(|e| e.sum.clone())
    }

    /// Direct execution with insert-on-miss.
    fn miss(
        &self,
        query: &RangeQuery,
        region: Region,
        epoch0: u64,
    ) -> Result<QueryOutcome<V>, EngineError> {
        // The backend dispatch records the flight record; annotate it as
        // a consulted-but-missed cache path.
        let _outcome = olap_telemetry::CacheOutcomeScope::set("miss");
        let out = self.backend.range_sum(query)?;
        self.bump("olap_cache_misses_total", &self.misses, 1);
        if let Answer::Aggregate(v) = &out.answer {
            self.insert(region, epoch0, v.clone());
        }
        Ok(out)
    }

    /// Inserts `(region, epoch, sum)` unless an install raced the
    /// computation (the sum would describe a superseded snapshot), the
    /// table already holds the region, or the cache is reconciling.
    fn insert(&self, region: Region, epoch: u64, sum: V) {
        // Epoch check *before* taking `inner` — the backend is never
        // called under the table lock.
        if self.backend.epoch() != epoch {
            return;
        }
        let (evicted, len) = {
            let mut guard = self.lock_inner();
            let inner = &mut *guard;
            if inner.synced_epoch != epoch || inner.pending_install {
                return;
            }
            let fp = fingerprint(&region);
            if Self::current_exact(inner, &region, fp, epoch).is_some() {
                return; // already stored
            }
            let mut evicted = 0u64;
            if inner.len >= self.capacity {
                if let Some(victim) = oldest(&inner.used) {
                    Self::detach(inner, victim);
                    evicted = 1;
                }
            }
            let tick = inner.tick;
            let entry = Entry { region, epoch, sum };
            let id = match inner.free.pop() {
                Some(id) => id,
                None => {
                    inner.slots.push(None);
                    inner.used.push(VACANT);
                    inner.slots.len().saturating_sub(1)
                }
            };
            match (inner.slots.get_mut(id), inner.used.get_mut(id)) {
                (Some(slot), Some(u)) => {
                    *slot = Some(entry);
                    *u = tick;
                }
                // A free-list id outside the arena cannot happen; drop
                // the insert rather than corrupt the table.
                _ => return,
            }
            inner.exact.insert(fp, id);
            inner.len = inner.len.saturating_add(1);
            (evicted, inner.len)
        };
        self.bump("olap_cache_insertions_total", &self.insertions, 1);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed); // ordering: Relaxed — statistics counter
        }
        self.publish_entries(len);
    }

    /// The slot holding `region` (fingerprint `fp`) stamped `epoch`, when
    /// there is one.
    fn current_exact(inner: &CacheInner<V>, region: &Region, fp: u64, epoch: u64) -> Option<usize> {
        let &id = inner.exact.get(&fp)?;
        let e = inner.slots.get(id).and_then(Option::as_ref)?;
        (e.epoch == epoch && e.region == *region).then_some(id)
    }

    /// Removes slot `id` from the table and the index.
    fn detach(inner: &mut CacheInner<V>, id: usize) {
        let Some(e) = inner.slots.get_mut(id).and_then(Option::take) else {
            return;
        };
        if let Some(u) = inner.used.get_mut(id) {
            *u = VACANT;
        }
        // The index may name a newer entry for the same fingerprint: put
        // it back.
        let fp = fingerprint(&e.region);
        if let Some(newer) = inner.exact.remove(&fp).filter(|&other| other != id) {
            inner.exact.insert(fp, newer);
        }
        inner.free.push(id);
        inner.len = inner.len.saturating_sub(1);
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, CacheInner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bumps a local counter and mirrors it to the telemetry registry
    /// when a context is active.
    fn bump(&self, name: &'static str, local: &AtomicU64, n: u64) {
        // ordering: Relaxed — statistics counter, no synchronisation.
        local.fetch_add(n, Ordering::Relaxed);
        if let Some(ctx) = olap_telemetry::current() {
            ctx.registry()
                .counter(name, &[("cache", &self.label)])
                .inc(n);
        }
    }

    /// Writes the flight record for a cache hit — the one serving outcome
    /// the router never sees.
    fn record_exact_hit(&self, ctx: &olap_telemetry::Telemetry, started: std::time::Instant) {
        ctx.recorder().record(olap_telemetry::FlightRecord {
            seq: 0,
            op: "range_sum",
            engine: self.label.clone(),
            kind: EngineKind::SemanticCache.to_string(),
            raw: 1.0,
            predicted: 1.0,
            observed: 1,
            a_cells: 0,
            p_cells: 0,
            tree_nodes: 0,
            latency_ns: crate::telemetry::elapsed_nanos(started),
            cache: "exact",
        });
    }

    fn publish_entries(&self, len: usize) {
        if let Some(ctx) = olap_telemetry::current() {
            ctx.registry()
                .gauge("olap_cache_entries", &[("cache", &self.label)])
                .set(len as f64);
        }
    }
}

impl<V, B> std::fmt::Debug for SemanticCache<V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("SemanticCache")
            .field("label", &self.label)
            .field("capacity", &self.capacity)
            .field("entries", &inner.len)
            .field("synced_epoch", &inner.synced_epoch)
            .finish()
    }
}

/// Whether an installed batch can have changed the sum over `region`:
/// the region contains one of its cells. A point of the wrong rank (the
/// backend refuses those) counts as inside every region, so invalidation
/// stays conservative.
fn holds_an_update<V>(region: &Region, updates: &[(Vec<usize>, V)]) -> bool {
    updates
        .iter()
        .any(|(idx, _)| idx.len() != region.ndim() || region.contains(idx))
}

/// A region's key in the exact index: its bounds folded by
/// [`BoundsHasher`].
fn fingerprint(region: &Region) -> u64 {
    let mut h = BoundsHasher::default();
    region.hash(&mut h);
    h.finish()
}

/// The exact index's hasher: a multiply-rotate fold, a few nanoseconds
/// against SipHash's tens. Regions come from queries, so they could be
/// crafted to collide, but the index never holds more than `capacity`
/// entries: the worst case is one probe over the whole table. A
/// product's well-mixed bits are its high ones and the table indexes by
/// the low ones, so `finish` rotates the first onto the second.
#[derive(Default)]
struct BoundsHasher(u64);

impl Hasher for BoundsHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// The slot with the smallest stamp in the dense `used` array, unless
/// every slot is free. Freed slots carry [`VACANT`], so the scan is a
/// branch-free walk over 8 bytes per slot. Kept out of line and free of
/// the cache's type parameters: inlined into `insert`, the same loop
/// compiled to a scan four times slower on an x86-64 build.
#[inline(never)]
fn oldest(used: &[u64]) -> Option<usize> {
    used.iter()
        .enumerate()
        .min_by_key(|&(_, used)| *used)
        .filter(|&(_, used)| *used != VACANT)
        .map(|(id, _)| id)
}

/// The `used` stamp of an unoccupied slot — [`u64::MAX`], so an LRU
/// minimum scan only lands on it when every slot is free.
const VACANT: u64 = u64::MAX;
