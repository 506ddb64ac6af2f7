//! Versioned immutable engine snapshots: [`EngineVersion`] and the
//! atomically-swapped [`VersionCell`].
//!
//! The paper's Theorem-2 batch update rebuilds prefix-sum regions in
//! place, which makes every engine single-caller: updates block readers.
//! This module removes that exclusivity. An engine is wrapped in an
//! epoch-stamped [`EngineVersion`]; updates *derive* a successor snapshot
//! ([`RangeEngine::apply_updates`] is copy-on-write) and a [`VersionCell`]
//! installs it atomically. In-flight queries finish on the snapshot they
//! pinned with [`VersionCell::load`] — never a torn read, never blocked
//! by a writer:
//!
//! - **readers** take one brief `RwLock` read to clone the current
//!   `Arc<EngineVersion>`; the derive and install happen entirely outside
//!   that lock, so a reader can only ever contend with the pointer swap
//!   itself,
//! - **writers** serialise on a dedicated writer mutex, derive the
//!   successor against the pinned current snapshot (no locks held on the
//!   read path), then swap the `Arc` under a short write lock.
//!
//! # Epoch lifecycle
//!
//! Every version carries an epoch (0 for the seed snapshot, +1 per
//! install). A shared tracker records which epochs still have live
//! pinned references; when the last `Arc<EngineVersion>` for an epoch
//! drops, the epoch is reclaimed. [`VersionCell::epoch_stats`] exposes
//! the live-snapshot count and the reclamation lag (newest installed
//! epoch minus oldest still-live epoch), and — with the `telemetry`
//! feature — the same numbers reach the metric registry as the
//! `olap_snapshot_live` and `olap_snapshot_epoch_lag` gauges, labelled by
//! the cell's name.

use crate::range_engine::RangeEngine;
use crate::EngineError;
use olap_query::AccessStats;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

/// Tracks which epochs still have live [`EngineVersion`]s, for the
/// snapshot gauges. Shared between a [`VersionCell`] and every version it
/// ever installed. Also used by `AdaptiveRouter` to track the liveness of
/// its engine-set snapshots under the same gauges.
pub(crate) struct EpochTracker {
    /// Cell name, the `cell` label on the exported gauges.
    label: String,
    /// Epochs with at least one live [`EngineVersion`].
    live: Mutex<BTreeSet<u64>>,
    /// Newest epoch ever registered.
    latest: AtomicU64,
}

impl EpochTracker {
    pub(crate) fn new(label: String) -> Self {
        EpochTracker {
            label,
            live: Mutex::new(BTreeSet::new()),
            latest: AtomicU64::new(0),
        }
    }

    /// A new epoch becomes live (called at install time, before the swap).
    pub(crate) fn register(&self, epoch: u64) {
        // ordering: Relaxed — `latest` is a monotone watermark read only
        // for reporting; the install itself synchronises via the cell's
        // RwLock.
        self.latest.fetch_max(epoch, Ordering::Relaxed);
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        live.insert(epoch);
        self.publish(&live);
    }

    /// The last reference to an epoch's snapshot dropped.
    fn release(&self, epoch: u64) {
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        live.remove(&epoch);
        self.publish(&live);
    }

    pub(crate) fn stats(&self) -> EpochStats {
        // ordering: Relaxed — reporting read of the watermark.
        let latest = self.latest.load(Ordering::Relaxed);
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        EpochStats {
            epoch: latest,
            live_snapshots: live.len(),
            reclamation_lag: live
                .first()
                .map(|&oldest| latest.saturating_sub(oldest))
                .unwrap_or(0),
        }
    }

    /// Pushes the live-snapshot gauges to the telemetry registry (no-op
    /// without an active context).
    fn publish(&self, live: &BTreeSet<u64>) {
        if let Some(ctx) = olap_telemetry::current() {
            let reg = ctx.registry();
            let labels = [("cell", self.label.as_str())];
            reg.gauge("olap_snapshot_live", &labels)
                .set(live.len() as f64);
            // ordering: Relaxed — reporting read of the watermark.
            let latest = self.latest.load(Ordering::Relaxed);
            let lag = live
                .first()
                .map(|&oldest| latest.saturating_sub(oldest))
                .unwrap_or(0);
            reg.gauge("olap_snapshot_epoch_lag", &labels)
                .set(lag as f64);
        }
    }
}

/// Releases the epoch when the owning snapshot (an [`EngineVersion`], or
/// the router's engine set) drops.
pub(crate) struct EpochGuard {
    pub(crate) epoch: u64,
    pub(crate) tracker: Arc<EpochTracker>,
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        self.tracker.release(self.epoch);
    }
}

/// One immutable engine snapshot stamped with its install epoch.
///
/// Obtained from [`VersionCell::load`]; holding the returned `Arc` pins
/// the snapshot — queries against it stay consistent no matter how many
/// successors are installed meanwhile. Dropping the last reference
/// reclaims the epoch.
pub struct EngineVersion<V> {
    epoch: u64,
    engine: Arc<dyn RangeEngine<V>>,
    /// Keeps the epoch marked live until this version drops.
    _guard: EpochGuard,
}

impl<V> EngineVersion<V> {
    /// The epoch this snapshot was installed at (0 for the seed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's engine: query it with plain `&self` calls.
    pub fn engine(&self) -> &dyn RangeEngine<V> {
        self.engine.as_ref()
    }

    /// A shareable handle to the snapshot's engine.
    pub fn engine_arc(&self) -> Arc<dyn RangeEngine<V>> {
        Arc::clone(&self.engine)
    }
}

impl<V> std::fmt::Debug for EngineVersion<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineVersion")
            .field("epoch", &self.epoch)
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
    /// The current version. Readers hold the read side only long enough
    /// to clone the `Arc`; the single writer holds the write side only
    /// for the swap itself.
    current: RwLock<Arc<EngineVersion<V>>>,
    /// Serialises derive+install cycles so successors are derived against
    /// the latest snapshot. Held *while* acquiring `current` for the swap
    /// (writer → current is the only cross-lock edge in this module).
    writer: Mutex<()>,
    tracker: Arc<EpochTracker>,
}

impl<V: 'static> VersionCell<V> {
    /// Wraps a seed engine as epoch 0 with the default cell label.
    pub fn new(engine: Box<dyn RangeEngine<V>>) -> Self {
        VersionCell::with_label(engine, "cell")
    }

    /// Wraps a seed engine as epoch 0; `label` names the cell in the
    /// exported snapshot gauges (e.g. `shard-3`).
    pub fn with_label(engine: Box<dyn RangeEngine<V>>, label: &str) -> Self {
        let tracker = Arc::new(EpochTracker::new(label.to_string()));
        tracker.register(0);
        let seed = Arc::new(EngineVersion {
            epoch: 0,
            engine: Arc::from(engine),
            _guard: EpochGuard {
                epoch: 0,
                tracker: Arc::clone(&tracker),
            },
        });
        VersionCell {
            current: RwLock::new(seed),
            writer: Mutex::new(()),
            tracker,
        }
    }

    /// Pins and returns the current snapshot. In-flight queries against
    /// the returned version are isolated from any concurrent install.
    pub fn load(&self) -> Arc<EngineVersion<V>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current snapshot's epoch.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// Live-snapshot bookkeeping: current epoch, live count, and
    /// reclamation lag.
    pub fn epoch_stats(&self) -> EpochStats {
        self.tracker.stats()
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
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.load();
        let derived = cur.engine.apply_updates(updates)?;
        self.swap_in(cur.epoch + 1, Arc::from(derived.engine));
        Ok(derived.stats)
    }

    /// Replaces the current engine wholesale (e.g. after an offline
    /// rebuild) and returns the new epoch.
    pub fn install(&self, engine: Box<dyn RangeEngine<V>>) -> u64 {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = self.load().epoch + 1;
        self.swap_in(epoch, Arc::from(engine));
        epoch
    }

    /// Publishes `engine` as `epoch`. Caller holds the writer mutex.
    fn swap_in(&self, epoch: u64, engine: Arc<dyn RangeEngine<V>>) {
        self.tracker.register(epoch);
        let next = Arc::new(EngineVersion {
            epoch,
            engine,
            _guard: EpochGuard {
                epoch,
                tracker: Arc::clone(&self.tracker),
            },
        });
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = next;
    }
}

impl<V> std::fmt::Debug for VersionCell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cur = self.current.read().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("VersionCell")
            .field("epoch", &cur.epoch)
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
