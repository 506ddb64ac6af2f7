//! An exact-result cache: [`SemanticCache`].
//!
//! The cache keeps one entry per region in bounded LRU tables in front of
//! an [`AdaptiveRouter`]: the region's sum, max and min (with the argmax
//! or argmin), each once read. A lookup answers from an entry only when
//! the query's region equals the entry's, the entry holds the op's answer
//! and its table is stamped with the router epoch the lookup read; every
//! other lookup falls through to the router.
//!
//! Why nothing more: with the basic prefix-sum array a range sum costs
//! `2^d` accesses (Theorem 1), and §8 shows no plan that combines other
//! sums undercuts that. Assembling a contained query as a cached superset
//! minus its residual boxes never paid on the perf ledger's four
//! workloads (0 assemblies per 1000 lookups on each), while pricing the
//! residuals taxed every miss.
//!
//! # Admission
//!
//! A router answer fills its region's entry, or starts one while the
//! table has room. A full table stores a new region only on its second
//! miss, remembered in a direct-mapped array of the table's capacity
//! (rounded up to a power of two) of recent-miss fingerprints. The lookup
//! decides under the lock it holds, so a miss turned away builds, clones
//! and evicts nothing and takes no second lock. A stripe whose lookups of
//! an op find and store nothing [`COLD`] times running skips them,
//! sampling one read in [`COLD`]; a skip is no lookup.
//!
//! # Consistency under snapshot installs
//!
//! The cache is a memo over the router's engine-set snapshot and runs no
//! install protocol of its own. Each table is stamped with one router
//! epoch ([`AdaptiveRouter::epoch`]), and every answer it holds is taken
//! at that epoch. The router's engine set logs its last
//! [`LOGGED`](crate::LOGGED) installs with the cells each one updated. A
//! lookup that reads epoch `e` and finds its table behind replays the
//! installs in between before it probes: it drops exactly the entries
//! whose region contains an updated cell and keeps the rest (a budget,
//! token or tier install updates none: an update outside a region can no
//! more change its max or min than its sum), and drops every entry for an
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
//! lock at a time; an answer one of them holds at the lookup's epoch is
//! copied into the lookup's own table and answers as a hit, so one
//! client's entries stay usable by another. [`SemanticCache::stats`],
//! [`SemanticCache::len`] and [`SemanticCache::clear`] first bring every
//! table up to the router's epoch, so a table whose thread has gone is
//! caught up there.
//!
//! The capacity bounds each table, not the cache: a cache read from `k`
//! stripes holds up to `k × capacity` entries. [`SemanticCache::stats`]
//! sums the tables. A copy counts as the hit it answered, never as an
//! insertion, and dropping it later counts as no eviction or
//! invalidation; `entries` counts every stored entry, copies included,
//! and filling in a held entry counts as no insertion.
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
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

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
    /// Total lookups that went through the cache, of every op.
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

/// One stored region: the answers read over it so far, at its table's
/// epoch. The extrema sit in the table's `extrema`, so a sum hit reads no
/// more than an entry of sums alone.
struct Entry<V> {
    /// The region's fingerprint: its key in the table's `exact` index.
    fp: u64,
    region: Region,
    sum: V,
    /// Bit `1 << op as u8` is set for each op whose answer it holds.
    held: u8,
    /// Copied from another stripe's table: its taking counted as a hit,
    /// so dropping it counts as no eviction or invalidation.
    copy: bool,
}

/// An answer as an entry stores it, with no heap allocation: the value
/// and an extremum's row-major offset inside the region (0 for a sum).
type Stored<V> = (V, usize);

/// One stripe's entry table: a slot arena, the exact-region index, the
/// router epoch its entries hold at, and the stripe's counters; aligned
/// to a cache line, so its hot fields share no line with another value.
#[repr(align(64))]
struct CacheInner<V> {
    slots: Vec<Option<Entry<V>>>,
    /// The max and min of each slot's entry (where its `held` says so).
    extrema: Vec<[Stored<V>; 2]>,
    /// LRU stamps, parallel to `slots` (valid where occupied). Kept dense
    /// and apart so the eviction scan reads 8 bytes per slot.
    used: Vec<u64>,
    free: Vec<usize>,
    /// Region fingerprint ([`fingerprint`]) → slot of the region's newest
    /// entry, so a lookup is one probe. A probe confirms the slot's
    /// region, so two regions that share a fingerprint cost a hit, never
    /// a wrong answer.
    exact: HashMap<u64, usize, BuildHasherDefault<BoundsHasher>>,
    len: usize,
    capacity: usize,
    /// Recent-miss fingerprints, direct-mapped, allocated when the table
    /// first fills: a full table stores only a region found here.
    seen: Option<Box<[u64]>>,
    /// LRU clock, bumped per lookup.
    tick: u64,
    /// The router epoch every entry's answers are taken at; only ever moves
    /// forward, by [`CacheInner::catch_up`].
    epoch: u64,
    /// The table's counters; [`SemanticCache::stats`] sums them and fills
    /// in `entries`.
    counts: CacheStats,
}

impl<V: NumericValue> CacheInner<V> {
    /// An empty table of `capacity` entries stamped `epoch`.
    fn new(epoch: u64, capacity: usize) -> Self {
        CacheInner {
            slots: Vec::new(),
            extrema: Vec::new(),
            used: Vec::new(),
            free: Vec::new(),
            exact: HashMap::default(),
            len: 0,
            capacity,
            seen: None,
            tick: 0,
            epoch,
            counts: CacheStats::default(),
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
                    .any(|(d, cells)| holds_an_update(&e.region, *d, cells))
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

    /// The slot holding `region` (fingerprint `fp`), when there is one and
    /// the table is stamped `epoch`.
    fn find(&self, region: &Region, fp: u64, epoch: u64) -> Option<usize> {
        if self.epoch != epoch {
            return None;
        }
        let &id = self.exact.get(&fp)?;
        let e = self.slots.get(id).and_then(Option::as_ref)?;
        (e.region == *region).then_some(id)
    }

    /// `op`'s answer in slot `id`, when its entry holds one.
    fn get(&self, id: usize, op: EngineOp) -> Option<Stored<V>> {
        let e = self.slots.get(id).and_then(Option::as_ref)?;
        let [max, min] = self.extrema.get(id)?;
        (e.held & (1 << op as u8) != 0).then(|| match op {
            EngineOp::Sum => (e.sum.clone(), 0),
            EngineOp::Max => max.clone(),
            EngineOp::Min => min.clone(),
        })
    }

    /// Counts a miss, and says whether its answer is to be stored: when the
    /// table has room or `holds` the region, or else when `fp` is already
    /// in its recent-miss slot (where it is written for next time).
    fn admits(&mut self, holds: bool, fp: u64) -> bool {
        self.counts.misses += 1;
        if holds || self.len < self.capacity {
            return true;
        }
        let size = self.capacity.next_power_of_two();
        let seen = self
            .seen
            .get_or_insert_with(|| vec![0; size].into_boxed_slice());
        let slot = seen.get_mut(fp as usize & (size - 1));
        slot.is_some_and(|slot| std::mem::replace(slot, fp) == fp)
    }

    /// Stores `op`'s `answer` over `region` (fingerprint `fp`) computed at
    /// `epoch`, unless the table is stamped another: into the region's
    /// entry, or a new one. Returns whether a new entry went in.
    fn place(
        &mut self,
        fp: u64,
        region: &Region,
        op: EngineOp,
        answer: Stored<V>,
        copy: bool,
        epoch: u64,
    ) -> bool {
        if self.epoch != epoch {
            return false;
        }
        let held = self.find(region, fp, epoch);
        let Some(id) = held.or_else(|| self.add(fp, region, copy)) else {
            return false;
        };
        if let Some(u) = self.used.get_mut(id) {
            *u = self.tick;
        }
        if let (Some(Some(e)), Some([max, min])) =
            (self.slots.get_mut(id), self.extrema.get_mut(id))
        {
            e.held |= 1 << op as u8;
            match op {
                EngineOp::Sum => e.sum = answer.0,
                EngineOp::Max => *max = answer,
                EngineOp::Min => *min = answer,
            }
        }
        held.is_none()
    }

    /// Adds an empty entry over `region`, evicting the least recently used
    /// one when the table is full, and returns its slot.
    fn add(&mut self, fp: u64, region: &Region, copy: bool) -> Option<usize> {
        if self.len >= self.capacity {
            let evicted = oldest(&self.used).and_then(|id| self.detach(id));
            self.counts.evictions += u64::from(evicted == Some(false));
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.extrema.push([(V::zero(), 0), (V::zero(), 0)]);
            self.used.push(VACANT);
            self.slots.len().saturating_sub(1)
        });
        // A free-list id outside the arena cannot happen: store nothing.
        *self.slots.get_mut(id)? = Some(Entry {
            fp,
            region: region.clone(),
            sum: V::zero(),
            held: 0,
            copy,
        });
        self.exact.insert(fp, id);
        self.len = self.len.saturating_add(1);
        Some(id)
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
        self.slots.fill_with(|| None);
        self.used.fill(VACANT);
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
    Hit(Stored<V>),
    /// A miss, and whether the router's answer is to be stored.
    Miss(bool),
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
    /// Per stripe and op: lookups since the stripe last hit or stored an
    /// answer of that op (see [`COLD`]).
    streaks: Striped<[AtomicU32; 3]>,
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
            streaks: Striped::default(),
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

    /// Answers a range-sum query through the cache (see
    /// [`SemanticCache::read`]).
    ///
    /// # Errors
    /// Query validation, or whatever the router reports; the cache
    /// itself never fails a query.
    pub fn range_sum(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.read(&self.resolve(query, EngineOp::Sum)?, EngineOp::Sum)
    }

    /// Answers a range-max query through the cache.
    ///
    /// # Errors
    /// Query validation, or whatever the router reports.
    pub fn range_max(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.read(&self.resolve(query, EngineOp::Max)?, EngineOp::Max)
    }

    /// Answers a range-min query through the cache.
    ///
    /// # Errors
    /// Query validation, or whatever the router reports.
    pub fn range_min(&self, query: &RangeQuery) -> Result<QueryOutcome<V>, EngineError> {
        self.read(&self.resolve(query, EngineOp::Min)?, EngineOp::Min)
    }

    /// Answers `op` over an already resolved region: from the stored entry
    /// when the region repeats at the current epoch, reporting
    /// [`EngineKind::SemanticCache`] (an extremum rebuilds its cell), by
    /// the router otherwise, storing it when admitted. A disabled cache,
    /// and a stripe cold for `op` (see the module docs), pass straight through.
    ///
    /// # Errors
    /// Whatever the router reports.
    pub fn read(&self, region: &Region, op: EngineOp) -> Result<QueryOutcome<V>, EngineError> {
        if self.capacity == 0 || self.shape.is_none() {
            return self.router().read(region, op);
        }
        let own = stripe::index();
        let streak = self.streaks.slot(own).get(op as usize);
        // ordering: Relaxed — the stripe's own tally; a thread sharing the
        // stripe can only make one read skip or probe when it would not.
        let n = streak.map_or(0, |s| s.load(Ordering::Relaxed));
        let tally = |fresh: bool| {
            let next = if fresh { 0 } else { n.wrapping_add(1) };
            if let Some(s) = streak.filter(|_| next != n) {
                // ordering: Relaxed — as the load above.
                s.store(next, Ordering::Relaxed);
            }
        };
        if n >= COLD && !n.is_multiple_of(COLD) {
            tally(false);
            return self.router().read(region, op);
        }
        // Context and clock together: an idle site is one atomic load.
        let observing = olap_telemetry::current().map(|ctx| (ctx, Instant::now()));
        let epoch0 = self.router().epoch();
        // Hashed once: a miss stores under the same fingerprint.
        let fp = fingerprint(region);
        let probe =
            olap_telemetry::in_span("cache_lookup", || self.lookup(own, region, fp, op, epoch0));
        tally(matches!(probe, Probe::Hit(_) | Probe::Miss(true)));
        let Probe::Hit((value, off)) = probe else {
            // The lookup counted the miss, so a router read that fails
            // below is still one.
            self.count("olap_cache_misses_total", 1);
            // Direct execution. The router's dispatch records the flight
            // record; annotate it as a consulted-but-missed cache path.
            let _outcome = olap_telemetry::CacheOutcomeScope::set("miss");
            let out = self.router().read(region, op)?;
            if let Probe::Miss(true) = probe {
                if let Some(answer) = stored_form(region, op, &out.answer) {
                    self.insert(region, fp, op, epoch0, answer);
                }
            }
            return Ok(out);
        };
        self.count("olap_cache_hits_total", 1);
        let mut stats = AccessStats::new();
        stats.step(1);
        // A hit never reaches the router, so it writes its own flight
        // record (the only place that knows it happened).
        if let Some((ctx, started)) = observing {
            self.record_exact_hit(&ctx, started, op);
        }
        let by = EngineKind::SemanticCache;
        Ok(match op {
            EngineOp::Sum => QueryOutcome::aggregate(value, stats, by),
            _ => QueryOutcome::extremum(cell_at(region, off), value, stats, by),
        })
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

    /// `op`'s stored answer over `region` (fingerprint `fp`) at `epoch`:
    /// one index probe of stripe `own`'s table, else a copy of a peer's.
    /// Counts the hit or the miss in `own`'s table, and on a miss decides
    /// whether the answer is to be stored. The router never reads here.
    fn lookup(&self, own: usize, region: &Region, fp: u64, op: EngineOp, epoch: u64) -> Probe<V> {
        // ordering: Relaxed — a hint of which peers to ask; a table is
        // published by its own mutex, and a lookup that misses a fresh
        // table's bit only reads from the router instead of copying.
        let peers = self.created.load(Ordering::Relaxed) & !(1 << own);
        let probe = self.with_table(own, epoch, |t| {
            t.tick += 1;
            let id = t.find(region, fp, epoch);
            match id.and_then(|id| Some((id, t.get(id, op)?))) {
                Some((id, hit)) => {
                    if let Some(u) = t.used.get_mut(id) {
                        *u = t.tick;
                    }
                    t.counts.hits += 1;
                    Probe::Hit(hit)
                }
                None if peers == 0 => Probe::Miss(t.admits(id.is_some(), fp)),
                None => Probe::AskPeers,
            }
        });
        let Probe::AskPeers = probe else {
            return probe;
        };
        // Ask the peers' tables one lock at a time, stamping none of them.
        let copied = (self.tables.iter())
            .filter(|&(i, _)| peers & (1 << i) != 0)
            .find_map(|(_, table)| {
                let guard = lock_table(table);
                let t = guard.as_deref()?;
                t.get(t.find(region, fp, epoch)?, op)
            });
        self.with_table(own, epoch, |t| match copied {
            Some(hit) => {
                t.counts.hits += 1;
                t.place(fp, region, op, hit.clone(), true, epoch);
                Probe::Hit(hit)
            }
            None => Probe::Miss(t.admits(t.find(region, fp, epoch).is_some(), fp)),
        })
    }

    /// Stores `op`'s `answer` over `region` at `epoch` in the calling
    /// stripe's table under the region's fingerprint `fp`, unless an
    /// install raced the computation (the answer would describe a
    /// superseded snapshot) or the table is stamped another epoch.
    fn insert(&self, region: &Region, fp: u64, op: EngineOp, epoch: u64, answer: Stored<V>) {
        // Checked before the table is taken, like every router call.
        if self.router().epoch() != epoch {
            return;
        }
        let inserted = self.with_table(stripe::index(), epoch, |t| {
            let inserted = t.place(fp, region, op, answer, false, epoch);
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
            Box::new(CacheInner::new(epoch, self.capacity))
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
    fn record_exact_hit(&self, ctx: &olap_telemetry::Telemetry, started: Instant, op: EngineOp) {
        ctx.recorder().record(olap_telemetry::FlightRecord {
            seq: 0,
            op: op.name(),
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
        let lens: Vec<usize> = (self.tables.iter())
            .filter_map(|(_, table)| lock_table(table).as_deref().map(|t| t.len))
            .collect();
        f.debug_struct("SemanticCache")
            .field("label", &self.label)
            .field("capacity", &self.capacity)
            .field("tables", &lens.len())
            .field("entries", &lens.iter().sum::<usize>())
            .finish()
    }
}

/// Whether an installed batch can have changed an answer over `region`:
/// the region contains one of its `cells`, laid end to end `d`
/// coordinates apiece. Points of the wrong rank (the router refuses
/// those) count as inside every region, so invalidation stays
/// conservative.
fn holds_an_update(region: &Region, d: usize, cells: &[usize]) -> bool {
    if cells.is_empty() {
        return false;
    }
    d != region.ndim() || cells.chunks_exact(d).any(|idx| region.contains(idx))
}

/// `answer` to `op` over `region` as an entry stores it; `None` for any
/// other shape (an empty region), which is not stored.
fn stored_form<V: Clone>(region: &Region, op: EngineOp, answer: &Answer<V>) -> Option<Stored<V>> {
    match (op, answer) {
        (EngineOp::Sum, Answer::Aggregate(v)) => Some((v.clone(), 0)),
        (EngineOp::Max | EngineOp::Min, Answer::Extremum { at, value }) if region.contains(at) => {
            let cells = at.iter().zip(region.ranges());
            let off = cells.fold(0, |off, (&x, r)| off * r.len() + (x - r.lo()));
            Some((value.clone(), off))
        }
        _ => None,
    }
}

/// The cell at row-major offset `off` inside `region`: the inverse of
/// [`stored_form`]'s offset, and a hit's one allocation.
fn cell_at(region: &Region, mut off: usize) -> Vec<usize> {
    let mut at = vec![0; region.ndim()];
    for (x, r) in at.iter_mut().zip(region.ranges()).rev() {
        *x = r.lo() + off % r.len().max(1);
        off /= r.len().max(1);
    }
    at
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

/// A stripe whose lookups of an op have neither hit nor stored an answer
/// `COLD` times running (a stream that does not repeat within a full
/// table's reach) skips that op's lookup, sampling one read in `COLD`.
const COLD: u32 = 64;

/// The `used` stamp of an unoccupied slot — [`u64::MAX`], so an LRU
/// minimum scan only lands on it when every slot is free.
const VACANT: u64 = u64::MAX;
