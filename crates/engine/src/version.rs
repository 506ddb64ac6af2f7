//! Versioned immutable engine snapshots: [`EngineVersion`] and the
//! atomically-swapped [`VersionCell`], both built on the crate's one
//! snapshot slot, `SnapshotCell`.
//!
//! The paper's Theorem-2 batch update rebuilds prefix-sum regions in
//! place, which makes every engine single-caller: updates block readers.
//! This module removes that exclusivity. An engine is wrapped in an
//! epoch-stamped [`EngineVersion`]; updates *derive* a successor snapshot
//! ([`RangeEngine::apply_updates`] is copy-on-write) and a [`VersionCell`]
//! installs it atomically. In-flight queries finish on the snapshot they
//! pinned with [`VersionCell::load`] — never a torn read, never blocked
//! by a writer. `AdaptiveRouter` keeps its engine set in the same slot.
//!
//! - **readers** pin through their own stripe ([`crate::stripe`]): each
//!   stripe keeps, under its own lock, its own `Arc` of the current
//!   snapshot's `Arc`, and a pin clones that outer `Arc`. A pin writes
//!   only its stripe's cache lines, so readers on different stripes never
//!   contend, and a reader can only ever wait on the writer's swap of its
//!   own stripe,
//! - **writers** serialise on a writer mutex, derive the successor
//!   against the pinned current snapshot, then repoint every stripe's
//!   handle, one stripe lock at a time,
//! - **`epoch()`** reads an install sequence like a seqlock, writing no
//!   shared memory.
//!
//! Every snapshot carries an epoch (0 for the seed, +1 per install),
//! live until the last `Arc` of it drops. [`VersionCell::epoch_stats`]
//! reports the live-snapshot count and the reclamation lag (newest epoch
//! minus oldest live one); under an active telemetry context the same
//! numbers reach the `olap_snapshot_live` and `olap_snapshot_epoch_lag`
//! gauges, labelled by the cell's name.

use crate::range_engine::RangeEngine;
use crate::stripe::{Padded, Striped, STRIPES};
use crate::EngineError;
use olap_query::AccessStats;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A point-in-time view of a [`VersionCell`]'s epoch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// The newest installed epoch.
    pub epoch: u64,
    /// Snapshots not yet reclaimed (still pinned somewhere, or current).
    pub live_snapshots: usize,
    /// Newest installed epoch minus the oldest still-live epoch: how far
    /// behind the slowest reader is. 0 when only the current snapshot is
    /// live.
    pub reclamation_lag: u64,
}

/// The epochs of one [`SnapshotCell`] that still have live snapshots,
/// for the snapshot gauges; shared by the cell and every snapshot it
/// stamped.
struct EpochTracker {
    /// Cell name, the `cell` label on the exported gauges.
    label: String,
    /// The newest epoch ever stamped, and the epochs still live.
    epochs: Mutex<(u64, BTreeSet<u64>)>,
}

impl EpochTracker {
    /// Marks `epoch` live (at install, before the swap) or reclaimed (its
    /// last snapshot dropped), and pushes the gauges to the telemetry
    /// registry (no-op without an active context).
    fn mark(&self, epoch: u64, live: bool) {
        let mut epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
        if live {
            epochs.0 = epochs.0.max(epoch);
            epochs.1.insert(epoch);
        } else {
            epochs.1.remove(&epoch);
        }
        if let Some(ctx) = olap_telemetry::current() {
            let stats = stats_of(&epochs);
            let labels = [("cell", self.label.as_str())];
            let reg = ctx.registry();
            reg.gauge("olap_snapshot_live", &labels)
                .set(stats.live_snapshots as f64);
            reg.gauge("olap_snapshot_epoch_lag", &labels)
                .set(stats.reclamation_lag as f64);
        }
    }

    fn stats(&self) -> EpochStats {
        stats_of(&self.epochs.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

fn stats_of((latest, live): &(u64, BTreeSet<u64>)) -> EpochStats {
    EpochStats {
        epoch: *latest,
        live_snapshots: live.len(),
        reclamation_lag: live.first().map_or(0, |&oldest| latest - oldest),
    }
}

/// A snapshot's stamp: its install epoch, kept marked live until the
/// snapshot that owns the guard drops. Only [`SnapshotCell`] mints one.
pub(crate) struct EpochGuard {
    epoch: u64,
    tracker: Arc<EpochTracker>,
}

impl EpochGuard {
    /// The epoch the owning snapshot was installed at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        self.tracker.mark(self.epoch, false);
    }
}

/// One stripe's handle on a snapshot: its own allocation, padded to a
/// cache line, so cloning and dropping it writes only that line.
type Handle<S> = Arc<Padded<Arc<S>>>;

/// A snapshot pinned through the calling thread's stripe: it derefs to
/// the snapshot and keeps it alive until dropped, like the `Arc` that
/// [`SnapshotCell::load`] returns, but taking and dropping it writes
/// only the stripe's own cache lines.
pub(crate) struct Pinned<S>(Handle<S>);

impl<S> std::ops::Deref for Pinned<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.0 .0
    }
}

/// The crate's one snapshot slot: the current `Arc<S>`, swapped whole on
/// each install. [`VersionCell`] holds an [`EngineVersion`] in one, and
/// `AdaptiveRouter` its engine set. Every `S` owns the [`EpochGuard`] the
/// cell minted for it. See the module docs for the discipline.
pub(crate) struct SnapshotCell<S> {
    /// Each stripe's handle on the current snapshot. A reader holds its
    /// stripe's lock only long enough to clone the handle; the single
    /// writer holds each stripe's lock only to repoint that handle.
    stripes: Striped<Mutex<Handle<S>>>,
    /// Serialises derive+install cycles so successors are derived against
    /// the latest snapshot. Held *while* acquiring each stripe lock for
    /// the swap (writer → stripe is the only cross-lock edge of the cell).
    writer: Mutex<()>,
    tracker: Arc<EpochTracker>,
    /// Twice the current epoch, odd while `install` swaps the next
    /// snapshot in: [`SnapshotCell::epoch`] reads it like a seqlock.
    seq: AtomicU64,
}

impl<S> SnapshotCell<S> {
    /// A cell named `label` in the snapshot gauges, holding `seed(guard)`
    /// as epoch 0.
    pub(crate) fn new(label: &str, seed: impl FnOnce(EpochGuard) -> S) -> Self {
        let tracker = Arc::new(EpochTracker {
            label: label.to_string(),
            epochs: Mutex::default(),
        });
        let seed = Arc::new(seed(Self::stamp(&tracker, 0)));
        SnapshotCell {
            stripes: Striped::new(|| Mutex::new(Arc::new(Padded(Arc::clone(&seed))))),
            writer: Mutex::new(()),
            tracker,
            seq: AtomicU64::new(0),
        }
    }

    /// Registers `epoch` as live and mints its guard.
    fn stamp(tracker: &Arc<EpochTracker>, epoch: u64) -> EpochGuard {
        tracker.mark(epoch, true);
        EpochGuard {
            epoch,
            tracker: Arc::clone(tracker),
        }
    }

    /// The calling thread's stripe handle, locked.
    fn handle(&self) -> MutexGuard<'_, Handle<S>> {
        self.stripes
            .mine()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Pins the current snapshot through the calling thread's stripe.
    pub(crate) fn pin(&self) -> Pinned<S> {
        Pinned(Arc::clone(&self.handle()))
    }

    /// Pins and returns the current snapshot as a plain `Arc`. Cloning it
    /// writes the count every stripe shares; [`SnapshotCell::pin`] is the
    /// read path's pin.
    pub(crate) fn load(&self) -> Arc<S> {
        Arc::clone(&self.handle().0)
    }

    /// The current snapshot's epoch: 0 at construction, +1 per install.
    ///
    /// A reader that pins after reading epoch `e` pins snapshot `e` or a
    /// later one, and once it has pinned a later one this returns more
    /// than `e`. So `epoch()` unchanged across a piece of work proves all
    /// of it ran on snapshot `e` — the guard the semantic cache's inserts
    /// rely on. A caller arriving mid-swap waits the stripe swaps out.
    pub(crate) fn epoch(&self) -> u64 {
        loop {
            // ordering: Acquire — pairs with the Release store that ends
            // `install`, so the snapshot this epoch names is the one a
            // later pin sees (or a newer one).
            let seq = self.seq.load(Ordering::Acquire);
            if seq.is_multiple_of(2) {
                return seq / 2;
            }
            std::thread::yield_now();
        }
    }

    /// Live-snapshot bookkeeping: current epoch, live count, and
    /// reclamation lag.
    pub(crate) fn epoch_stats(&self) -> EpochStats {
        self.tracker.stats()
    }

    /// One derive+install cycle, serialised against every other writer.
    /// `derive` runs against the pinned current snapshot with no lock
    /// held on the read path, and returns the successor — a builder that
    /// wraps it around the guard of the next epoch — or `None` to install
    /// nothing, together with the caller's result.
    pub(crate) fn update<F, R>(&self, derive: impl FnOnce(&S) -> (Option<F>, R)) -> R
    where
        F: FnOnce(EpochGuard) -> S,
    {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let (next, out) = derive(&self.pin());
        let Some(next) = next else {
            return out;
        };
        // ordering: Relaxed — only the writer, under `writer`, stores it.
        let seq = self.seq.load(Ordering::Relaxed);
        let next = Arc::new(next(Self::stamp(&self.tracker, seq / 2 + 1)));
        // What the swaps replace, kept until the window closes.
        let mut superseded: Vec<Arc<S>> = Vec::with_capacity(STRIPES);
        let mut pinned: Vec<Handle<S>> = Vec::new();
        // ordering: Relaxed — the odd mark is ordered before every swap by
        // that stripe's lock: a reader that pins the new snapshot takes its
        // stripe lock after the writer's release of it, so its next
        // `epoch()` sees at least the odd mark and waits for the new epoch.
        self.seq.store(seq + 1, Ordering::Relaxed);
        for (_, stripe) in self.stripes.iter() {
            let mut handle = stripe.lock().unwrap_or_else(|e| e.into_inner());
            match Arc::get_mut(&mut handle) {
                // No pin holds the stripe's handle (pins are cloned only
                // under this lock): repoint it in place.
                Some(Padded(current)) => {
                    superseded.push(std::mem::replace(current, Arc::clone(&next)));
                }
                // A pin still holds it: the stripe gets a fresh handle.
                None => pinned.push(std::mem::replace(
                    &mut handle,
                    Arc::new(Padded(Arc::clone(&next))),
                )),
            }
        }
        // ordering: Release — pairs with the Acquire load in `epoch()`: a
        // reader that sees the new epoch pins this snapshot or a later one
        // on every stripe.
        self.seq.store(seq + 2, Ordering::Release);
        // The superseded references may be the last to the old snapshot's
        // engines; free them outside the window `epoch()` waits on. The
        // old snapshot drops with them, or with its last pin.
        drop((superseded, pinned));
        out
    }
}

/// One immutable engine snapshot stamped with its install epoch.
///
/// Obtained from [`VersionCell::load`]; holding the returned `Arc` pins
/// the snapshot — queries against it stay consistent no matter how many
/// successors are installed meanwhile. Dropping the last reference
/// reclaims the epoch.
pub struct EngineVersion<V> {
    engine: Arc<dyn RangeEngine<V>>,
    /// Keeps the epoch marked live until this version drops.
    guard: EpochGuard,
}

impl<V> EngineVersion<V> {
    /// The epoch this snapshot was installed at (0 for the seed).
    pub fn epoch(&self) -> u64 {
        self.guard.epoch()
    }

    /// The snapshot's engine: query it with plain `&self` calls.
    pub fn engine(&self) -> &dyn RangeEngine<V> {
        self.engine.as_ref()
    }

    /// Wraps `engine` for installation under the guard the cell mints.
    fn stamped(engine: Arc<dyn RangeEngine<V>>) -> impl FnOnce(EpochGuard) -> Self {
        move |guard| EngineVersion { engine, guard }
    }
}

impl<V> std::fmt::Debug for EngineVersion<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineVersion")
            .field("epoch", &self.epoch())
            .field("engine", &self.engine.label())
            .finish()
    }
}

/// An atomically-swapped slot holding the current [`EngineVersion`].
///
/// The serving primitive of the snapshot-isolation refactor: readers
/// [`VersionCell::load`] a pinned snapshot and query it lock-free;
/// writers [`VersionCell::update`] derive a copy-on-write successor and
/// install it with one pointer swap. See the module docs for the locking
/// discipline.
pub struct VersionCell<V> {
    snapshots: SnapshotCell<EngineVersion<V>>,
}

impl<V: 'static> VersionCell<V> {
    /// Wraps a seed engine as epoch 0 with the default cell label.
    pub fn new(engine: Box<dyn RangeEngine<V>>) -> Self {
        VersionCell::with_label(engine, "cell")
    }

    /// Wraps a seed engine as epoch 0; `label` names the cell in the
    /// exported snapshot gauges (e.g. `shard-3`).
    pub fn with_label(engine: Box<dyn RangeEngine<V>>, label: &str) -> Self {
        VersionCell {
            snapshots: SnapshotCell::new(label, EngineVersion::stamped(Arc::from(engine))),
        }
    }

    /// Pins and returns the current snapshot. In-flight queries against
    /// the returned version are isolated from any concurrent install.
    ///
    /// The returned `Arc` shares one count among every caller.
    pub fn load(&self) -> Arc<EngineVersion<V>> {
        self.snapshots.load()
    }

    /// The current snapshot's epoch, read without pinning it: a query
    /// that pins after reading epoch `e` runs on epoch `e` or later.
    pub fn epoch(&self) -> u64 {
        self.snapshots.epoch()
    }

    /// Live-snapshot bookkeeping: current epoch, live count, and
    /// reclamation lag.
    pub fn epoch_stats(&self) -> EpochStats {
        self.snapshots.epoch_stats()
    }

    /// Derives a successor snapshot with `updates` applied (copy-on-write,
    /// via [`RangeEngine::apply_updates`]) and installs it. Readers are
    /// never blocked: the derive runs against a pinned snapshot with no
    /// lock held on the read path, and the install is one pointer swap.
    /// Concurrent writers serialise, so every batch derives from the
    /// latest version.
    ///
    /// # Errors
    /// Whatever the engine's derive reports; on error nothing is
    /// installed.
    pub fn update(&self, updates: &[(Vec<usize>, V)]) -> Result<AccessStats, EngineError> {
        self.snapshots
            .update(|cur| match cur.engine.apply_updates(updates) {
                Ok(derived) => (
                    Some(EngineVersion::stamped(Arc::from(derived.engine))),
                    Ok(derived.stats),
                ),
                Err(e) => (None, Err(e)),
            })
    }

    /// Replaces the current engine wholesale (e.g. after an offline
    /// rebuild) and returns the new epoch.
    pub fn install(&self, engine: Box<dyn RangeEngine<V>>) -> u64 {
        let next = EngineVersion::stamped(Arc::from(engine));
        self.snapshots.update(|cur| (Some(next), cur.epoch() + 1))
    }
}

impl<V> std::fmt::Debug for VersionCell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cur = self.snapshots.pin();
        f.debug_struct("VersionCell")
            .field("epoch", &cur.epoch())
            .field("engine", &cur.engine.label())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CubeIndex, IndexConfig, NaiveEngine};
    use olap_array::{DenseArray, Region, Shape};
    use olap_query::RangeQuery;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[8, 8]).unwrap(), |i| (i[0] * 8 + i[1]) as i64)
    }

    fn q(bounds: &[(usize, usize)]) -> RangeQuery {
        RangeQuery::from_region(&Region::from_bounds(bounds).unwrap())
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn cell_is_shareable_across_threads() {
        assert_send_sync::<VersionCell<i64>>();
        assert_send_sync::<Arc<EngineVersion<i64>>>();
    }

    #[test]
    fn pinned_snapshots_are_isolated_from_installs() {
        let cell = VersionCell::new(Box::new(
            CubeIndex::build(cube(), IndexConfig::default()).unwrap(),
        ));
        let probe = q(&[(0, 0), (0, 0)]);
        let before = cell.load();
        assert_eq!(before.epoch(), 0);
        cell.update(&[(vec![0, 0], 500)]).unwrap();
        let after = cell.load();
        assert_eq!(after.epoch(), 1);
        // The pinned pre-update snapshot still answers with the old value;
        // the installed successor sees the new one.
        assert_eq!(before.engine().range_sum(&probe).unwrap().value(), Some(&0));
        assert_eq!(
            after.engine().range_sum(&probe).unwrap().value(),
            Some(&500)
        );
    }

    #[test]
    fn epochs_are_reclaimed_when_the_last_pin_drops() {
        let cell = VersionCell::new(Box::new(NaiveEngine::new(cube())));
        let pinned = cell.load();
        cell.update(&[(vec![1, 1], 7)]).unwrap();
        cell.update(&[(vec![2, 2], 9)]).unwrap();
        let stats = cell.epoch_stats();
        assert_eq!(stats.epoch, 2);
        // Pinned epoch 0 and current epoch 2 are live; epoch 1 was
        // reclaimed the moment epoch 2 replaced it.
        assert_eq!(stats.live_snapshots, 2);
        assert_eq!(stats.reclamation_lag, 2);
        drop(pinned);
        let stats = cell.epoch_stats();
        assert_eq!(stats.live_snapshots, 1);
        assert_eq!(stats.reclamation_lag, 0);
    }

    #[test]
    fn update_errors_install_nothing() {
        let cell = VersionCell::new(Box::new(NaiveEngine::new(cube())));
        assert!(cell.update(&[(vec![99, 99], 1)]).is_err());
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.epoch_stats().live_snapshots, 1);
    }

    #[test]
    fn install_replaces_wholesale() {
        let cell: VersionCell<i64> = VersionCell::new(Box::new(NaiveEngine::new(cube())));
        let epoch = cell.install(Box::new(
            CubeIndex::build(cube(), IndexConfig::default()).unwrap(),
        ));
        assert_eq!(epoch, 1);
        assert!(cell.load().engine().label().contains("cube-index"));
    }

    #[test]
    fn concurrent_pins_answer_for_their_own_epoch_while_the_writer_installs() {
        // Install k writes 1000·k into cell [0, 0] (which starts at 0), so
        // every snapshot's whole-cube sum names its own epoch.
        const INSTALLS: u64 = 60;
        let cell = Arc::new(VersionCell::new(Box::new(
            CubeIndex::build(cube(), IndexConfig::default()).unwrap(),
        )));
        let probe = q(&[(0, 7), (0, 7)]);
        let base: i64 = (0..64).sum();
        let sum_at = move |epoch: u64| base + 1000 * epoch as i64;
        // The newest epoch any reader has checked: the writer waits for it
        // before each install, so every install lands among live pins.
        let seen = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let probe = probe.clone();
            let seen = Arc::clone(&seen);
            readers.push(std::thread::spawn(move || {
                let mut last = 0;
                let mut held: Vec<Arc<EngineVersion<i64>>> = Vec::new();
                while last < INSTALLS {
                    let before = cell.epoch();
                    assert!(before >= last, "epoch went back: {last} → {before}");
                    let pinned = cell.load();
                    // A pin taken after reading `before` is that epoch or
                    // later, and `epoch()` never trails a pinned snapshot
                    // (it is never seen mid-install).
                    assert!(pinned.epoch() >= before);
                    last = cell.epoch();
                    assert!(last >= pinned.epoch(), "{last} < {}", pinned.epoch());
                    if held.len() < 8 {
                        held.push(pinned);
                    }
                    // Every pin still answers for its own epoch, however
                    // many installs ran since it was taken.
                    for v in &held {
                        let got = *v.engine().range_sum(&probe).unwrap().value().unwrap();
                        assert_eq!(got, sum_at(v.epoch()), "epoch {}", v.epoch());
                    }
                    // ordering: Relaxed — a progress hint; the pins carry
                    // their own synchronisation.
                    seen.fetch_max(last, Ordering::Relaxed);
                }
            }));
        }
        for k in 1..=INSTALLS {
            // ordering: Relaxed — see the readers' `fetch_max`. (A reader
            // that failed stops advancing it; the join below reports it.)
            while seen.load(Ordering::Relaxed) < k - 1 && !readers.iter().any(|r| r.is_finished()) {
                std::thread::yield_now();
            }
            cell.update(&[(vec![0, 0], 1000 * k as i64)]).unwrap();
            assert_eq!(cell.epoch(), k);
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.epoch_stats().live_snapshots, 1, "every pin released");
    }

    #[test]
    fn concurrent_readers_see_pre_or_post_update_values() {
        let cell = Arc::new(VersionCell::new(Box::new(
            CubeIndex::build(cube(), IndexConfig::default()).unwrap(),
        )));
        let probe = q(&[(0, 7), (0, 7)]);
        let base: i64 = (0..64).sum();
        let updated = base + 1000; // cell [0,0] starts at 0, absolute-set to 1000
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let probe = probe.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let v = cell.load();
                    let out = v.engine().range_sum(&probe).unwrap();
                    let got = *out.value().unwrap();
                    assert!(
                        got == base || got == updated,
                        "torn read: {got} is neither pre ({base}) nor post ({updated})"
                    );
                }
            }));
        }
        cell.update(&[(vec![0, 0], 1000)]).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }
}
