//! Fixture: pin-across-blocking on the crate-private snapshot slot — a
//! `SnapshotCell` read-pin held across `sleep` stalls installs exactly
//! like a `VersionCell` pin does.

pub struct Router {
    snapshots: SnapshotCell<EngineSet>,
}

impl Router {
    pub fn slow_read(&self) -> usize {
        let set = self.snapshots.load();
        std::thread::sleep(PAUSE);
        set.len()
    }
}
