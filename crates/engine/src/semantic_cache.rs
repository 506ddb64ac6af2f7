//! An exact-result cache: [`SemanticCache`].
//!
//! The cache stores `(region, sum)` entries in bounded LRU tables in front
//! of an [`AdaptiveRouter`]. A lookup answers from an entry only when the
//! query's region equals the entry's and the entry's table is stamped with
//! the router epoch the lookup read; every other lookup falls through to
//! the router and inserts the fresh answer.
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
//! The cache is a memo over the router's engine-set snapshot and runs no
//! install protocol of its own. Each table is stamped with one router
//! epoch ([`AdaptiveRouter::epoch`]), and every entry it holds is the sum
//! at that epoch. The router's engine set logs its last
//! [`LOGGED`](crate::LOGGED) installs with the cells each one updated. A
//! lookup that reads epoch `e` and finds its table behind replays the
//! installs in between before it probes: it drops exactly the entries
//! whose region contains an updated cell and keeps the rest (a budget,
//! token or tier install updates none), and drops every entry for an
//! install that may have changed anything (an engine push, a batch some
//! engine failed to derive) or once the log no longer reaches back. So
//! installs through [`SemanticCache::apply_updates`] and installs made on
//! the router directly invalidate alike, region-wise, and the writer never
//! visits a table.
//!
//! The router's `epoch()` is a seqlock read: an epoch unchanged across a
//! router read proves the read ran on that epoch's snapshot, so an insert
//! is refused whenever an install raced the computation, and goes only
//! into a table stamped with that epoch. An install that lands after that
//! check is replayed onto the new entry like onto any other.
//!
//! # Tables and capacity
//!
//! Each stripe ([`crate::stripe`]) has its own entry table, created on
//! the stripe's first lookup, so a hit locks and writes only its own
//! thread's table: its LRU clock and stamp and its counters are fields
//! of that table, and its catch-up runs on that stripe's cache lines. A
//! lookup that misses its own table asks the other stripes' tables, one
//! lock at a time; an entry one of them holds in a table stamped with the
//! lookup's epoch is copied into the lookup's own table and answers as a
//! hit. Only then does the lookup read from the router, inserting the
//! answer into its own table. So one client's entries stay usable by
//! another. [`SemanticCache::stats`], [`SemanticCache::len`] and
//! [`SemanticCache::clear`] first bring every table up to the router's
//! epoch, so a table whose thread has gone is caught up there.
//!
//! The capacity bounds each table, not the cache: a cache read from `k`
//! stripes holds up to `k × capacity` entries. [`SemanticCache::stats`]
//! sums the tables. A copy counts as the hit it answered, never as an
//! insertion, and dropping it later counts as no eviction or
//! invalidation; `entries` counts every stored entry, copies included.
//!
//! # Locking
//!
//! Each table's own mutex guards that table, and no path holds two tables
//! at once. A table catches up under its own lock, which pins the router's
//! snapshot through the caller's stripe of the snapshot slot: that is the
//! one edge out of a table, table → slot stripe, and no writer takes a
//! table, so it closes no cycle. The router never reads with a table held
//! — a lookup probes under the lock, releases it, then reads on a miss —
//! so cached reads never wait on engine work, like readers of the snapshot
//! slot beneath.

use crate::stripe::{self, Striped};
use crate::{AdaptiveRouter, EngineError, EngineOp};
use olap_aggregate::NumericValue;
use olap_array::{Region, Shape};
use olap_query::{AccessStats, Answer, EngineKind, QueryOutcome, RangeQuery};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// One stored result: the sum over `region` at its table's epoch.
struct Entry<V> {
    /// The region's fingerprint: its key in the table's `exact` index.
    fp: u64,
    region: Region,
    sum: V,
    /// Copied from another stripe's table: its taking counted as a hit,
    /// so dropping it counts as no eviction or invalidation.
    copy: bool,
}

/// One stripe's counters, summed by [`SemanticCache::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    hits: u64,
    misses: u64,
    invalidations: u64,
    insertions: u64,
    evictions: u64,
}

/// One stripe's entry table: a slot arena, the exact-region index, the
/// router epoch its entries hold at, and the stripe's counters. Aligned
/// to a cache line, so its hot fields share no line with another
/// allocation.
#[repr(align(64))]
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
    /// The router epoch every entry's sum is taken at; only ever moves
    /// forward, by [`CacheInner::catch_up`].
    epoch: u64,
    counts: Counts,
}

impl<V> CacheInner<V> {
    /// An empty table stamped `epoch`.
    fn new(epoch: u64) -> Self {
        CacheInner {
            slots: Vec::new(),
            used: Vec::new(),
            free: Vec::new(),
            exact: HashMap::default(),
            len: 0,
            tick: 0,
            epoch,
            counts: Counts::default(),
        }
    }

    /// Brings the table up to epoch `to` by replaying `router`'s log of
    /// the installs in between: drops the entries whose region holds a
    /// cell one of them updated, or every entry when one of them may have
    /// changed anything or the log no longer reaches back. An empty table
    /// skips the log. Returns the invalidations counted (a dropped copy
    /// counts none).
    fn catch_up(&mut self, router: &AdaptiveRouter<V>, to: u64) -> u64 {
        if self.epoch >= to {
            return 0;
        }
        let from = std::mem::replace(&mut self.epoch, to);
        if self.len == 0 {
            return 0;
        }
        // `None`: an install may have changed anything, or the log no
        // longer reaches back.
        let batches: Option<Vec<_>> = router
            .changes(from, to)
            .and_then(|changes| changes.into_iter().collect());
        let stale = |e: &Entry<V>| {
            batches.as_ref().is_none_or(|batches| {
                batches
                    .iter()
                    .any(|cells| holds_an_update(&e.region, cells))
            })
        };
        let mut counted = 0u64;
        for id in 0..self.slots.len() {
            let slot = self.slots.get(id).and_then(Option::as_ref);
            if slot.is_some_and(&stale) && self.detach(id).is_some_and(|copy| !copy) {
                counted += 1;
            }
        }
        self.counts.invalidations += counted;
        counted
    }

    /// The slot holding `region` (fingerprint `fp`), and its sum, when
    /// there is one and the table is stamped `epoch`.
    fn stored(&self, region: &Region, fp: u64, epoch: u64) -> Option<(usize, V)>
    where
        V: Clone,
    {
        if self.epoch != epoch {
            return None;
        }
        let &id = self.exact.get(&fp)?;
        let e = self.slots.get(id).and_then(Option::as_ref)?;
        (e.region == *region).then(|| (id, e.sum.clone()))
    }

    /// [`CacheInner::stored`]'s sum, with the slot stamped most recently
    /// used.
    fn touch(&mut self, region: &Region, fp: u64, epoch: u64) -> Option<V>
    where
        V: Clone,
    {
        let (id, sum) = self.stored(region, fp, epoch)?;
        if let Some(u) = self.used.get_mut(id) {
            *u = self.tick;
        }
        Some(sum)
    }

    /// Stores `entry`, computed at `epoch`, unless the table is stamped
    /// another epoch or already holds its region. Evicts the least
    /// recently used entry when the table holds `capacity`, and returns
    /// whether `entry` went in.
    fn place(&mut self, entry: Entry<V>, epoch: u64, capacity: usize) -> bool
    where
        V: Clone,
    {
        if self.epoch != epoch || self.stored(&entry.region, entry.fp, epoch).is_some() {
            return false;
        }
        if self.len >= capacity {
            if let Some(victim) = oldest(&self.used) {
                if self.detach(victim).is_some_and(|copy| !copy) {
                    self.counts.evictions += 1;
                }
            }
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.used.push(VACANT);
                self.slots.len().saturating_sub(1)
            }
        };
        let tick = self.tick;
        let fp = entry.fp;
        match (self.slots.get_mut(id), self.used.get_mut(id)) {
            (Some(slot), Some(u)) => {
                *slot = Some(entry);
                *u = tick;
            }
            // A free-list id outside the arena cannot happen; drop the
            // entry rather than corrupt the table.
            _ => return false,
        }
        self.exact.insert(fp, id);
        self.len = self.len.saturating_add(1);
        true
    }

    /// Removes slot `id` from the table and the index, returning whether
    /// the removed entry was a copy (`None` when the slot was empty).
    fn detach(&mut self, id: usize) -> Option<bool> {
        let e = self.slots.get_mut(id).and_then(Option::take)?;
        if let Some(u) = self.used.get_mut(id) {
            *u = VACANT;
        }
        // The index may name a newer entry for the same fingerprint: put
        // it back.
        if let Some(newer) = self.exact.remove(&e.fp).filter(|&other| other != id) {
            self.exact.insert(e.fp, newer);
        }
        self.free.push(id);
        self.len = self.len.saturating_sub(1);
        Some(e.copy)
    }

    /// Drops every entry, returning how many counted as invalidations.
    fn drop_all(&mut self) -> u64 {
        let dropped = self.slots.iter().flatten().filter(|e| !e.copy).count() as u64;
        for slot in &mut self.slots {
            *slot = None;
        }
        for used in &mut self.used {
            *used = VACANT;
        }
        self.free = (0..self.slots.len()).collect();
        self.exact.clear();
        self.len = 0;
        dropped
    }
}

/// One stripe's slot: its table, once the stripe has looked something up.
type Table<V> = Mutex<Option<Box<CacheInner<V>>>>;

/// What a lookup's probe of its own table found.
enum Probe<V> {
    Hit(V),
    Miss,
    /// Not here; another stripe's table may hold it.
    AskPeers,
}

/// A bounded, snapshot-consistent exact-result cache in front of an
/// [`AdaptiveRouter`], owned or shared (`B` is the router or an `Arc` of
/// it). See the module docs for the answering and invalidation protocol.
///
/// `capacity == 0` disables the cache entirely: every call is a pure
/// passthrough and no counter moves, so a disabled cache costs one
/// branch.
pub struct SemanticCache<V, B> {
    backend: B,
    shape: Option<Shape>,
    capacity: usize,
    label: String,
    /// One entry table per stripe, created on the stripe's first lookup.
    /// None is ever held across a router read.
    tables: Striped<Table<V>>,
    /// Bit `i` is set once stripe `i`'s table exists, so a lookup that
    /// misses its own table asks only peers that have one.
    created: AtomicUsize,
}

impl<V, B> SemanticCache<V, B>
where
    V: NumericValue,
    B: Borrow<AdaptiveRouter<V>>,
{
    /// Wraps `backend` with an LRU of at most `capacity` entries per
    /// stripe table (see the module docs) under the default label.
    pub fn new(backend: B, capacity: usize) -> Self {
        SemanticCache::with_label(backend, capacity, "cache")
    }

    /// Wraps `backend`; `label` names the cache in the exported
    /// `olap_cache_*` series (e.g. `shard-3`). No table is allocated
    /// until a stripe first looks something up.
    pub fn with_label(backend: B, capacity: usize, label: &str) -> Self {
        let shape = shape_of(backend.borrow());
        SemanticCache {
            backend,
            shape,
            capacity,
            label: label.to_string(),
            tables: Striped::default(),
            created: AtomicUsize::new(0),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    fn router(&self) -> &AdaptiveRouter<V> {
        self.backend.borrow()
    }

    /// The cache's label in exported metrics.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Maximum entries per stripe table (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently stored, across every stripe's table.
    pub fn len(&self) -> usize {
        self.fold_tables(0, |n, t| n + t.len)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The router's current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.router().epoch()
    }

    /// Counter snapshot, summed over every stripe's table.
    pub fn stats(&self) -> CacheStats {
        self.fold_tables(CacheStats::default(), |s, t| CacheStats {
            hits: s.hits + t.counts.hits,
            assemblies: 0,
            misses: s.misses + t.counts.misses,
            invalidations: s.invalidations + t.counts.invalidations,
            insertions: s.insertions + t.counts.insertions,
            evictions: s.evictions + t.counts.evictions,
            entries: s.entries + t.len,
        })
    }

    /// Drops every entry (counted as invalidations).
    pub fn clear(&self) {
        let dropped = self.fold_tables(0, |n, t| {
            let dropped = t.drop_all();
            t.counts.invalidations += dropped;
            n + dropped
        });
        self.count("olap_cache_invalidations_total", dropped);
        self.publish_entries();
    }

    /// Answers a range-sum query through the cache: from the stored entry
    /// when the region repeats at the current epoch, by the router
    /// otherwise (inserting the fresh answer). Cached answers report
    /// [`EngineKind::SemanticCache`]; fall-throughs keep the router's
    /// attribution.
    ///
    /// # Errors
    /// Query validation, or whatever the router reports; the cache
    /// itself never fails a query.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        let region = self.resolve(query, EngineOp::Sum)?;
        self.sum(&region)
    }

    /// Passes a range-max query straight to the router.
    ///
    /// # Errors
    /// Query validation, or whatever the router reports.
    pub fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.router()
            .read(&self.resolve(query, EngineOp::Max)?, EngineOp::Max)
    }

    /// Passes a range-min query straight to the router.
    ///
    /// # Errors
    /// Query validation, or whatever the router reports.
    pub fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.router()
            .read(&self.resolve(query, EngineOp::Min)?, EngineOp::Min)
    }

    /// Answers `op` over an already resolved region: a sum through the
    /// cache as [`SemanticCache::range_sum`] does, an extremum straight
    /// from the router.
    ///
    /// # Errors
    /// Whatever the router reports.
    pub fn read(&self, region: &Region, op: EngineOp) -> Result<QueryOutcome<V>, EngineError> {
        match op {
            EngineOp::Sum => self.sum(region),
            _ => self.router().read(region, op),
        }
    }

    /// The sum over `region`: a table hit, or a router read inserted on
    /// the way back. A disabled cache passes straight through.
    fn sum(&self, region: &Region) -> Result<QueryOutcome<V>, EngineError> {
        if self.capacity == 0 || self.shape.is_none() {
            return self.router().read(region, EngineOp::Sum);
        }
        // Context and clock together: an idle site is one atomic load.
        let observing = olap_telemetry::current().map(|ctx| (ctx, std::time::Instant::now()));
        let epoch0 = self.router().epoch();
        // Hashed once: a miss inserts under the same fingerprint.
        let fp = fingerprint(region);
        let hit = olap_telemetry::in_span("cache_lookup", || self.lookup(region, fp, epoch0));
        let Some(sum) = hit else {
            // The lookup counted the miss, so a router read that fails
            // below is still one.
            self.count("olap_cache_misses_total", 1);
            // Direct execution with insert-on-miss. The router's dispatch
            // records the flight record; annotate it as a consulted-but-
            // missed cache path.
            let _outcome = olap_telemetry::CacheOutcomeScope::set("miss");
            let out = self.router().read(region, EngineOp::Sum)?;
            if let Answer::Aggregate(v) = &out.answer {
                self.insert(region, fp, epoch0, v.clone());
            }
            return Ok(out);
        };
        self.count("olap_cache_hits_total", 1);
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

    /// Applies an update batch through the router. No table is visited:
    /// each catches up from the router's install log on its next lookup
    /// (see the module docs), dropping only the entries whose region
    /// contains an updated cell.
    ///
    /// # Errors
    /// Whatever the router reports; a batch it refuses installs nothing
    /// and current entries stay valid.
    pub fn apply_updates(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        let result = self.router().apply_updates(updates);
        if self.capacity > 0 && self.shape.is_some() {
            self.publish_entries();
        }
        result
    }

    /// Resolves `query` once, against the router's shape — asked again
    /// if the router served no cube when the cache was built.
    fn resolve(&self, query: &RangeQuery, op: EngineOp) -> Result<Region, EngineError> {
        match &self.shape {
            Some(shape) => Ok(query.to_region(shape)?),
            None => match shape_of(self.router()) {
                Some(shape) => Ok(query.to_region(&shape)?),
                None => Err(EngineError::NoCandidate { op: op.name() }),
            },
        }
    }

    /// The stored sum for `region` (fingerprint `fp`) at `epoch`: one
    /// index probe of the calling stripe's table, stamped most recently
    /// used, else a copy of a peer table's entry. Counts the hit or the
    /// miss in the caller's table. The router never reads here.
    fn lookup(&self, region: &Region, fp: u64, epoch: u64) -> Option<V> {
        let own = stripe::index();
        // ordering: Relaxed — a hint of which peers to ask; a table is
        // published by its own mutex, and a lookup that misses a fresh
        // table's bit only reads from the router instead of copying.
        let peers = self.created.load(Ordering::Relaxed) & !(1 << own);
        let probe = self.with_table(own, epoch, |t| {
            t.tick += 1;
            if let Some(sum) = t.touch(region, fp, epoch) {
                t.counts.hits += 1;
                Probe::Hit(sum)
            } else if peers == 0 {
                t.counts.misses += 1;
                Probe::Miss
            } else {
                Probe::AskPeers
            }
        });
        match probe {
            Probe::Hit(sum) => return Some(sum),
            Probe::Miss => return None,
            Probe::AskPeers => {}
        }
        let copied = self.peer_entry(peers, region, fp, epoch);
        self.with_table(own, epoch, |t| match copied {
            Some(sum) => {
                t.counts.hits += 1;
                let entry = Entry {
                    fp,
                    region: region.clone(),
                    sum: sum.clone(),
                    copy: true,
                };
                t.place(entry, epoch, self.capacity);
                Some(sum)
            }
            None => {
                t.counts.misses += 1;
                None
            }
        })
    }

    /// The sum a peer table (a stripe whose bit is set in `peers`) holds
    /// for `region`, when that table is stamped `epoch`, asking one table
    /// at a time and stamping none of them.
    fn peer_entry(&self, peers: usize, region: &Region, fp: u64, epoch: u64) -> Option<V> {
        self.tables
            .iter()
            .filter(|&(i, _)| peers & (1 << i) != 0)
            .find_map(|(_, table)| {
                let guard = lock_table(table);
                guard
                    .as_deref()?
                    .stored(region, fp, epoch)
                    .map(|(_, sum)| sum)
            })
    }

    /// Inserts `region`'s `sum` at `epoch` into the calling stripe's table
    /// under the region's fingerprint `fp`, unless an install raced the
    /// computation (the sum would describe a superseded snapshot), the
    /// table is stamped another epoch, or it already holds the region.
    fn insert(&self, region: &Region, fp: u64, epoch: u64, sum: V) {
        // Checked before the table is taken, like every router call.
        if self.router().epoch() != epoch {
            return;
        }
        let entry = Entry {
            fp,
            region: region.clone(),
            sum,
            copy: false,
        };
        let inserted = self.with_table(stripe::index(), epoch, |t| {
            let inserted = t.place(entry, epoch, self.capacity);
            t.counts.insertions += u64::from(inserted);
            inserted
        });
        if inserted {
            self.count("olap_cache_insertions_total", 1);
            self.publish_entries();
        }
    }

    /// Runs `f` on stripe `own`'s table, caught up to `epoch` first, and
    /// creates the table, stamped `epoch`, on the stripe's first use.
    fn with_table<R>(&self, own: usize, epoch: u64, f: impl FnOnce(&mut CacheInner<V>) -> R) -> R {
        let mut guard = lock_table(self.tables.slot(own));
        let t = guard.get_or_insert_with(|| {
            // ordering: Relaxed — see `lookup`: the bit is a hint, the
            // table itself is published by its mutex.
            self.created.fetch_or(1 << own, Ordering::Relaxed);
            Box::new(CacheInner::new(epoch))
        });
        let swept = t.catch_up(self.router(), epoch);
        let out = f(t);
        drop(guard);
        self.count("olap_cache_invalidations_total", swept);
        out
    }

    /// Folds `f` over every stripe's table that exists, one lock at a
    /// time, each caught up to the router's current epoch first so that
    /// its entries and counters are current.
    fn fold_tables<A>(&self, init: A, mut f: impl FnMut(A, &mut CacheInner<V>) -> A) -> A {
        let epoch = self.router().epoch();
        let (mut acc, mut swept) = (init, 0u64);
        for (_, table) in self.tables.iter() {
            if let Some(t) = lock_table(table).as_deref_mut() {
                swept += t.catch_up(self.router(), epoch);
                acc = f(acc, t);
            }
        }
        self.count("olap_cache_invalidations_total", swept);
        acc
    }

    /// Mirrors `n` events of the counter `name` to the telemetry registry
    /// when a context is active (the tables keep their own counts).
    fn count(&self, name: &'static str, n: u64) {
        if n == 0 {
            return;
        }
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
            predicted: 1.0,
            observed: 1,
            a_cells: 0,
            p_cells: 0,
            tree_nodes: 0,
            latency_ns: crate::telemetry::elapsed_nanos(started),
            cache: "exact",
        });
    }

    /// Sets the `olap_cache_entries` gauge to the entries across every
    /// table; only under an active context does it visit the tables.
    fn publish_entries(&self) {
        if let Some(ctx) = olap_telemetry::current() {
            ctx.registry()
                .gauge("olap_cache_entries", &[("cache", &self.label)])
                .set(self.len() as f64);
        }
    }
}

/// The shape of the cube `router` serves: `None` for an empty router,
/// which puts a cache over it in pure passthrough mode.
fn shape_of<V>(router: &AdaptiveRouter<V>) -> Option<Shape> {
    (!router.is_empty()).then(|| router.engine(0).shape().clone())
}

/// Locks one stripe's table slot.
fn lock_table<V>(table: &Table<V>) -> MutexGuard<'_, Option<Box<CacheInner<V>>>> {
    table.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V, B> std::fmt::Debug for SemanticCache<V, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mut tables, mut entries) = (0, 0);
        for (_, table) in self.tables.iter() {
            if let Some(t) = lock_table(table).as_deref() {
                tables += 1;
                entries += t.len;
            }
        }
        f.debug_struct("SemanticCache")
            .field("label", &self.label)
            .field("capacity", &self.capacity)
            .field("tables", &tables)
            .field("entries", &entries)
            .finish()
    }
}

/// Whether an installed batch can have changed the sum over `region`:
/// the region contains one of its `cells`. A point of the wrong rank (the
/// router refuses those) counts as inside every region, so invalidation
/// stays conservative.
fn holds_an_update(region: &Region, cells: &[Vec<usize>]) -> bool {
    cells
        .iter()
        .any(|idx| idx.len() != region.ndim() || region.contains(idx))
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
