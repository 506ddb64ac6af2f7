//! A subsumption-aware semantic result cache: [`SemanticCache`].
//!
//! The paper's §3 corner identity makes range sums **±-combinable**, and
//! sums are taken in a *group* (subtraction exists), so a cached answer is
//! useful far beyond an exact repeat: for a query `Q` contained in a
//! cached region `C`,
//!
//! ```text
//! sum(Q) = sum(C) − Σ_i sum(R_i),    {R_i} = C \ Q  (≤ 2d disjoint boxes)
//! ```
//!
//! The cache stores `(region, epoch, sum)` entries in a bounded LRU
//! indexed per leading-dimension slab. A lookup answers
//!
//! - **exactly** on a region match at the current snapshot epoch,
//! - **by subtraction** on a containment hit, when the §8 cost model
//!   (`olap_planner::cost`) prices the residual executions plus the
//!   `2^d` combine overhead below the direct execution,
//! - and **falls through** to the wrapped backend otherwise, inserting
//!   the fresh answer.
//!
//! # Consistency under snapshot installs
//!
//! Entries are keyed on the backend's snapshot epoch
//! ([`CacheBackend::epoch`], the [`crate::VersionCell`] /
//! [`crate::AdaptiveRouter`] install counter), and a lookup only consults
//! entries stamped with the epoch it pinned. Updates applied *through*
//! the cache ([`SemanticCache::apply_updates`]) invalidate region-wise:
//! entries overlapping the batch's per-slab bounding boxes are dropped,
//! everything else is re-stamped to the new epoch and survives — no
//! global flush. An assembly that straddles a concurrent install is
//! detected by re-reading the epoch after the residual executions and is
//! discarded in favour of direct execution, so an assembled answer is
//! always bit-identical to a single-snapshot answer.
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
//! backend is **never** called with `inner` held — lookups plan under the
//! lock, release it, then execute — so cached reads never wait on engine
//! work, matching the reader/writer discipline of [`crate::VersionCell`].

use crate::{AdaptiveRouter, EngineError, EngineOp, VersionCell};
use olap_aggregate::NumericValue;
use olap_array::{Region, Shape};
use olap_planner::cost::pow2;
use olap_query::algebra;
use olap_query::{AccessStats, Answer, EngineKind, QueryOutcome, RangeQuery};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many leading-dimension slabs the entry index is bucketed into.
const SLAB_BUCKETS: usize = 16;

/// The backend a [`SemanticCache`] fronts: anything that answers range
/// sums against an epoch-stamped snapshot. Implemented for
/// [`AdaptiveRouter`] and [`VersionCell`] (and `Arc`s of either), which
/// covers any [`crate::RangeEngine`] by wrapping it in a cell.
pub trait CacheBackend<V>: Send + Sync {
    /// The shape of the cube served, when one is known. `None` (e.g. an
    /// empty router) puts the cache in pure passthrough mode.
    fn shape(&self) -> Option<Shape>;

    /// Predicted cost of a direct execution, in the paper's §8 unit.
    fn estimate(&self, query: &RangeQuery) -> f64;

    /// Direct range-sum execution.
    ///
    /// # Errors
    /// Whatever the backend reports.
    fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError>;

    /// Direct range-max execution (extrema are not ±-combinable, so the
    /// cache always passes these through).
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

    fn estimate(&self, query: &RangeQuery) -> f64 {
        self.candidates(query, EngineOp::Sum)
            .iter()
            .filter(|c| c.eligible)
            .map(|c| c.calibrated)
            .fold(f64::INFINITY, f64::min)
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

    fn estimate(&self, query: &RangeQuery) -> f64 {
        self.load().engine().estimate(query)
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

    fn estimate(&self, query: &RangeQuery) -> f64 {
        (**self).estimate(query)
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
    /// Lookups answered by ±-combination over a containing entry.
    pub assemblies: u64,
    /// Lookups that fell through to the backend.
    pub misses: u64,
    /// Entries dropped by update invalidation (region overlap, stale
    /// epoch, or a conservative flush).
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
        self.hits
            .saturating_add(self.assemblies)
            .saturating_add(self.misses)
    }

    /// Fraction of lookups answered without a direct backend execution
    /// of the full query (exact hits + assemblies). 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.hits.saturating_add(self.assemblies)) as f64 / lookups as f64
    }
}

/// One stored result.
struct Entry<V> {
    region: Region,
    epoch: u64,
    sum: V,
}

/// A bucket index record: the slot id plus the entry's packed
/// bounding-box fingerprint ([`bbox_key`]), so a scan rejects almost
/// every non-containing candidate with two integer compares and never
/// touches the slot arena for them. This is what keeps the miss path
/// within a few percent of the uncached backend.
#[derive(Clone, Copy)]
struct BucketRef {
    id: u32,
    key: u64,
}

/// The entry table: a slot arena plus the per-slab bucket index.
struct CacheInner<V> {
    slots: Vec<Option<Entry<V>>>,
    /// LRU stamps, parallel to `slots` (valid where the slot is
    /// occupied). Kept dense and separate so the eviction scan reads 8
    /// bytes per slot instead of dragging whole entries through cache.
    used: Vec<u64>,
    free: Vec<usize>,
    /// Bucket `b` lists the slots whose region's leading range **starts**
    /// in slab `b` — exactly one bucket per entry. A containment search
    /// starting in slab `q` walks buckets `0..=q`: an entry containing
    /// the query cannot start in a later slab.
    buckets: Vec<Vec<BucketRef>>,
    /// Region fingerprint ([`fingerprint`]) → slot of the region's newest
    /// entry, so an exact hit is one probe and never walks the buckets —
    /// whose lines every insert and eviction rewrites, on whichever thread
    /// made it. A probe confirms the slot's region, so two regions that
    /// share a fingerprint cost a hit, never a wrong answer.
    exact: HashMap<u64, usize, BuildHasherDefault<BoundsHasher>>,
    len: usize,
    /// LRU clock, bumped per lookup.
    tick: u64,
    /// The epoch the table was last reconciled with. Diverges from the
    /// backend epoch only across installs that bypassed the cache.
    synced_epoch: u64,
    /// True while [`SemanticCache::apply_updates`] is between the backend
    /// install and the region-wise invalidation sweep; lookups then skip
    /// (rather than purge) mismatched entries so survivors reach the
    /// re-stamp.
    pending_install: bool,
}

/// What a lookup decided under the `inner` lock, executed after release.
enum Plan<V> {
    /// Exact entry match: the stored sum is the answer.
    Exact(V),
    /// Containment hit: assemble `+base − Σ residual` via the backend.
    Assemble { base: V, residual: Vec<Region> },
    /// No usable entry: direct execution.
    Miss,
}

/// A bounded, snapshot-consistent semantic result cache in front of a
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
    /// Leading-dimension width of one index slab.
    slab_width: usize,
    /// True when [`bbox_key`] encodes regions of this cube losslessly
    /// (≤ 2 dimensions, every extent under the 16-bit lane limit): key
    /// equality is then region equality and [`key_contains`] is exact
    /// containment, so scans never touch the slot arena to rule a
    /// candidate in or out.
    keys_exact: bool,
    label: String,
    /// Serialises update/invalidation cycles. Ordered before `inner`.
    update_lock: Mutex<()>,
    /// The entry table. Never held across a backend call.
    inner: Mutex<CacheInner<V>>,
    hits: AtomicU64,
    assemblies: AtomicU64,
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
        let (slab_width, n_buckets) = match &shape {
            Some(s) if s.ndim() > 0 => {
                let extent = s.dims().first().copied().unwrap_or(1).max(1);
                let width = extent.div_ceil(SLAB_BUCKETS).max(1);
                (width, extent.div_ceil(width))
            }
            _ => (1, 1),
        };
        let keys_exact = shape
            .as_ref()
            .is_some_and(|s| s.ndim() <= 2 && s.dims().iter().all(|&n| n <= 0x1_0000));
        SemanticCache {
            backend,
            shape,
            capacity,
            slab_width,
            keys_exact,
            label: label.to_string(),
            update_lock: Mutex::new(()),
            inner: Mutex::new(CacheInner {
                slots: Vec::new(),
                used: Vec::new(),
                free: Vec::new(),
                buckets: vec![Vec::new(); n_buckets],
                exact: HashMap::default(),
                len: 0,
                tick: 0,
                synced_epoch: epoch,
                pending_install: false,
            }),
            hits: AtomicU64::new(0),
            assemblies: AtomicU64::new(0),
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
            assemblies: stat(&self.assemblies),
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
            for bucket in &mut inner.buckets {
                bucket.clear();
            }
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

    /// Answers a range-sum query through the cache: exactly on a region
    /// hit, by ±-combination on a containment hit the cost model prices
    /// below direct execution, by the backend otherwise (inserting the
    /// fresh answer). Cached and assembled answers report
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
        let plan = {
            let _lookup_span = olap_telemetry::TraceSpan::start("cache_lookup");
            self.plan(&region, epoch0)
        };
        match plan {
            Plan::Exact(sum) => {
                self.bump("olap_cache_hits_total", &self.hits, 1);
                let mut stats = AccessStats::new();
                stats.step(1);
                // An exact hit never reaches the router, so it writes its
                // own flight record (the only place that knows it happened).
                if let Some((ctx, started)) = observing {
                    self.record_exact_hit(&ctx, started);
                }
                Ok(QueryOutcome::aggregate(
                    sum,
                    stats,
                    EngineKind::SemanticCache,
                ))
            }
            Plan::Assemble { base, residual } => {
                let assembled = {
                    let _assembly_span = olap_telemetry::TraceSpan::start("cache_assembly");
                    // Residual backend dispatches below record flight
                    // records; annotate them as assembly legs.
                    let _outcome = olap_telemetry::CacheOutcomeScope::set("assembled");
                    self.assemble(query, &region, epoch0, base, &residual)?
                };
                match assembled {
                    Some(outcome) => Ok(outcome),
                    None => self.miss(query, &region, epoch0),
                }
            }
            Plan::Miss => self.miss(query, &region, epoch0),
        }
    }

    /// Passes a range-max query straight to the backend (extrema form a
    /// semilattice, not a group — no subtraction, no ±-combination).
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
    /// region-wise: entries overlapping the batch's per-slab bounding
    /// boxes are dropped, every other current entry is re-stamped to the
    /// new epoch and stays answerable — no global flush.
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
        let boxes = self.update_boxes(updates);
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
                    Some(e) if unchanged => {
                        let _ = e;
                        true
                    }
                    Some(e) if installed => !boxes.iter().any(|b| e.region.overlaps(b)),
                    // Backend epoch moved unexpectedly (an install raced
                    // past the cache): conservative flush.
                    Some(_) => false,
                };
                if keep {
                    if let Some(e) = inner.slots.get_mut(id).and_then(Option::as_mut) {
                        e.epoch = epoch_after;
                    }
                } else {
                    Self::detach(&mut inner, id, self.slab_width);
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

    /// Consults the entry table under the `inner` lock: an exact match
    /// (one index probe) wins, else the strictly containing entry with
    /// the smallest residual volume. The backend is never called here.
    /// Containment candidates are pre-filtered on the packed bounding-box
    /// key, so a scan over a full table of non-containing entries costs
    /// two compares per candidate.
    fn plan(&self, region: &Region, epoch: u64) -> Plan<V> {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(id) = Self::current_exact(&inner, region, fingerprint(region), epoch) {
            if let Some(u) = inner.used.get_mut(id) {
                *u = tick;
            }
            if let Some(e) = inner.slots.get(id).and_then(Option::as_ref) {
                return Plan::Exact(e.sum.clone());
            }
        }
        let qkey = bbox_key(region);
        let q_start = self.start_bucket(region, inner.buckets.len());
        let mut best: Option<(usize, usize)> = None; // (slot, residual volume)
        for bucket in inner.buckets.iter().take(q_start.saturating_add(1)) {
            for r in bucket {
                let r = *r;
                if !key_contains(r.key, qkey) {
                    continue;
                }
                let id = r.id as usize;
                let Some(e) = inner.slots.get(id).and_then(Option::as_ref) else {
                    continue;
                };
                if e.epoch != epoch {
                    continue;
                }
                if self.keys_exact {
                    // Keys are lossless here: containment is already
                    // decided, and the candidate's volume falls out of
                    // the packed lanes. An equal key is the exact entry,
                    // which the index already ruled out.
                    if r.key == qkey {
                        continue;
                    }
                    let volume = key_volume(r.key);
                    if best.is_none_or(|(_, v)| volume < v) {
                        best = Some((id, volume));
                    }
                    continue;
                }
                if e.region != *region && e.region.contains_region(region) {
                    let residual = e.region.volume().saturating_sub(region.volume());
                    if best.is_none_or(|(_, v)| residual < v) {
                        best = Some((id, residual));
                    }
                }
            }
        }
        let Some((id, _)) = best else {
            return Plan::Miss;
        };
        if let Some(u) = inner.used.get_mut(id) {
            *u = tick;
        }
        let Some(e) = inner.slots.get(id).and_then(Option::as_ref) else {
            return Plan::Miss;
        };
        let sum = e.sum.clone();
        let cached_region = e.region.clone();
        drop(inner);
        // `contains_region` held under the lock, so `subsume` is Some.
        match algebra::subsume(region, &cached_region) {
            Some(plan) => Plan::Assemble {
                base: sum,
                residual: plan.residual().to_vec(),
            },
            None => Plan::Miss,
        }
    }

    /// Prices and executes a ±-assembly. Returns `Ok(None)` when the cost
    /// model prefers direct execution, a residual answer is unusable, or
    /// an install raced the assembly (the caller then takes the miss
    /// path).
    ///
    /// # Errors
    /// Interrupts (budget/cancellation) from residual executions are
    /// surfaced; engine faults fall back to direct execution instead.
    fn assemble(
        &self,
        query: &RangeQuery,
        region: &Region,
        epoch0: u64,
        base: V,
        residual: &[Region],
    ) -> Result<Option<QueryOutcome<V>>, EngineError> {
        // §8 arbitration: residual executions plus the 2^d combine
        // overhead of the ±-identity must beat the direct plan.
        let direct = self.backend.estimate(query);
        let mut priced = pow2(region.ndim());
        for r in residual {
            priced += self.backend.estimate(&RangeQuery::from_region(r));
        }
        if priced > direct {
            return Ok(None);
        }
        let mut total = base;
        let mut stats = AccessStats::new();
        stats.step(1 + residual.len() as u64);
        for r in residual {
            let out = match self.backend.range_sum(&RangeQuery::from_region(r)) {
                Ok(out) => out,
                Err(e) if e.is_interrupt() => return Err(e),
                Err(_) => return Ok(None),
            };
            stats.merge(&out.stats);
            match out.answer {
                Answer::Aggregate(v) => total = total - v,
                // An empty residual contributes zero to the sum.
                Answer::Empty => {}
                // A backend that answers sums with extrema is not
                // ±-combinable; bail to direct execution.
                Answer::Extremum { .. } => return Ok(None),
            }
        }
        // Torn-assembly guard: if an install landed while the residuals
        // ran, the base and residual sums may span different snapshots.
        if self.backend.epoch() != epoch0 {
            return Ok(None);
        }
        self.bump("olap_cache_assemblies_total", &self.assemblies, 1);
        self.insert(region.clone(), epoch0, total.clone());
        Ok(Some(QueryOutcome::aggregate(
            total,
            stats,
            EngineKind::SemanticCache,
        )))
    }

    /// Direct execution with insert-on-miss.
    fn miss(
        &self,
        query: &RangeQuery,
        region: &Region,
        epoch0: u64,
    ) -> Result<QueryOutcome<V>, EngineError> {
        // The backend dispatch records the flight record; annotate it as
        // a consulted-but-missed cache path.
        let _outcome = olap_telemetry::CacheOutcomeScope::set("miss");
        let out = self.backend.range_sum(query)?;
        self.bump("olap_cache_misses_total", &self.misses, 1);
        if let Answer::Aggregate(v) = &out.answer {
            self.insert(region.clone(), epoch0, v.clone());
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
        let key = bbox_key(&region);
        let (inserted, evicted, len) = {
            let mut guard = self.lock_inner();
            let inner = &mut *guard;
            if inner.synced_epoch != epoch || inner.pending_install {
                return;
            }
            let fp = fingerprint(&region);
            if Self::current_exact(inner, &region, fp, epoch).is_some() {
                return; // already stored
            }
            let owner = self.start_bucket(&region, inner.buckets.len());
            let mut evicted = 0u64;
            if inner.len >= self.capacity {
                if let Some(victim) = oldest(&inner.used) {
                    Self::detach(inner, victim, self.slab_width);
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
            if let Some(bucket) = inner.buckets.get_mut(owner) {
                bucket.push(BucketRef { id: id as u32, key });
            }
            inner.exact.insert(fp, id);
            inner.len = inner.len.saturating_add(1);
            (1u64, evicted, inner.len)
        };
        self.bump("olap_cache_insertions_total", &self.insertions, inserted);
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

    /// Removes slot `id` from the table and the bucket index.
    fn detach(inner: &mut CacheInner<V>, id: usize, slab_width: usize) {
        let Some(e) = inner.slots.get_mut(id).and_then(Option::take) else {
            return;
        };
        if let Some(u) = inner.used.get_mut(id) {
            *u = VACANT;
        }
        let owner = start_of(&e.region, slab_width, inner.buckets.len());
        let id32 = id as u32;
        if let Some(bucket) = inner.buckets.get_mut(owner) {
            bucket.retain(|r| r.id != id32);
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

    /// The bucket the region's leading range starts in.
    fn start_bucket(&self, region: &Region, n_buckets: usize) -> usize {
        start_of(region, self.slab_width, n_buckets)
    }

    /// One bounding box per leading-dimension slab the batch touches —
    /// tighter than a single whole-batch box, so entries in untouched
    /// slabs always survive.
    fn update_boxes(&self, updates: &[(Vec<usize>, V)]) -> Vec<Region> {
        let Some(shape) = &self.shape else {
            return Vec::new();
        };
        let ndim = shape.ndim();
        let mut groups: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for (idx, _) in updates {
            if idx.len() != ndim || ndim == 0 {
                // Malformed point: the backend will reject the batch; a
                // whole-cube box keeps invalidation conservative anyway.
                return shape_box(shape).into_iter().collect();
            }
            let slab = idx.first().map_or(0, |&x| x / self.slab_width);
            match groups.get_mut(&slab) {
                Some((lo, hi)) => {
                    for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(idx) {
                        *l = (*l).min(x);
                        *h = (*h).max(x);
                    }
                }
                None => {
                    groups.insert(slab, (idx.clone(), idx.clone()));
                }
            }
        }
        groups
            .into_values()
            .filter_map(|(lo, hi)| {
                let bounds: Vec<(usize, usize)> = lo.into_iter().zip(hi).collect();
                Region::from_bounds(&bounds).ok()
            })
            .collect()
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

    /// Writes the flight record for an exact cache hit — the one serving
    /// outcome the router never sees.
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
/// entries: the worst case is one probe over the whole table, no more
/// than the bucket walk an exact hit made before the index. A product's
/// well-mixed bits are its high ones and the table indexes by the low
/// ones, so `finish` rotates the first onto the second.
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

/// The volume a lossless fingerprint encodes (product of the per-axis
/// extents; missing axes pack as `(0, 0)` and contribute a factor 1).
/// Only meaningful when the cache's `keys_exact` flag holds.
fn key_volume(key: u64) -> usize {
    let d0 = ((key >> 32 & 0xFFFF) - (key >> 48 & 0xFFFF) + 1) as usize;
    let d1 = ((key & 0xFFFF) - (key >> 16 & 0xFFFF) + 1) as usize;
    d0 * d1
}

/// Packs a region's first two bounds into a 64-bit fingerprint:
/// `[lo0:16][hi0:16][lo1:16][hi1:16]`, each lane saturating at
/// `u16::MAX`. Saturation is monotone, so the lane compares in
/// [`key_contains`] stay **conservative** on cubes wider than 65 536:
/// a key rejection is always sound, a pass still gets the full
/// `contains_region` check. Missing axes pack as `(0, 0)`, which every
/// query passes.
fn bbox_key(region: &Region) -> u64 {
    let mut key = 0u64;
    // analyzer: allow(budget-coverage, reason = "fixed trip count of 2: packs the first two axes into a bbox key")
    for axis in 0..2 {
        let (lo, hi) = if axis < region.ndim() {
            let r = region.range(axis);
            (r.lo().min(0xFFFF) as u64, r.hi().min(0xFFFF) as u64)
        } else {
            (0, 0)
        };
        key = key << 32 | lo << 16 | hi;
    }
    key
}

/// Whether the entry fingerprint *may* describe a region containing the
/// query fingerprint's region: per axis, `entry.lo ≤ query.lo` and
/// `entry.hi ≥ query.hi` on the packed lanes. False → the entry cannot
/// contain (or equal) the query, so the scan skips it without touching
/// the slot arena.
#[inline]
fn key_contains(entry: u64, query: u64) -> bool {
    let lanes = |k: u64| {
        (
            k >> 48 & 0xFFFF,
            k >> 32 & 0xFFFF,
            k >> 16 & 0xFFFF,
            k & 0xFFFF,
        )
    };
    let (e_lo0, e_hi0, e_lo1, e_hi1) = lanes(entry);
    let (q_lo0, q_hi0, q_lo1, q_hi1) = lanes(query);
    e_lo0 <= q_lo0 && e_hi0 >= q_hi0 && e_lo1 <= q_lo1 && e_hi1 >= q_hi1
}

/// The bucket a region's leading range starts in (clamped). The clamp
/// is monotone, so `a.lo ≤ b.lo` still implies `start_of(a) ≤
/// start_of(b)` — the invariant the `0..=q` containment scan rests on.
fn start_of(region: &Region, slab_width: usize, n_buckets: usize) -> usize {
    if region.ndim() == 0 || n_buckets == 0 {
        return 0;
    }
    (region.range(0).lo() / slab_width).min(n_buckets - 1)
}

/// The whole-cube region, when the shape has at least one dimension.
fn shape_box(shape: &Shape) -> Option<Region> {
    let bounds: Vec<(usize, usize)> = shape
        .dims()
        .iter()
        .map(|&n| (0, n.saturating_sub(1)))
        .collect();
    if bounds.is_empty() {
        None
    } else {
        Region::from_bounds(&bounds).ok()
    }
}
