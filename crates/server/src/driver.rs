//! The seeded mixed-workload load driver behind `olap-cli serve`.
//!
//! [`drive_load`] runs `phases` rounds against a [`CubeServer`]. Each
//! phase pins the pre-update cube state, launches `readers` concurrent
//! reader threads over a seeded mix of sum/max/min range queries, and —
//! while those readers are in flight — installs one seeded update batch
//! through [`CubeServer::apply_updates`]. Every batch is atomic to every
//! reader (see the `server` module docs on consistency), so every reader
//! answer must be bit-identical to the **pre-** or **post-update
//! sequential oracle** — a naive fold over a shadow copy of the cube. Any
//! third value is a torn read and is counted as a mismatch. The batch
//! stays inside one shard's slab, a different shard each phase, so the
//! per-shard install counts in the `olap-cli serve` table stay readable.
//!
//! The driver never blocks readers on the install: writers derive
//! copy-on-write successors off the serving path, which is the property
//! the whole snapshot refactor exists to provide.
//!
//! With the per-shard semantic caches in the serving path, the same
//! oracle pair also proves every cached answer bit-identical across
//! installs: a cache entry only survives an install when its region holds
//! none of the batch's cells, in which case pre and post oracles agree on
//! it. Setting [`LoadSpec::zipf_pool`] switches the query stream from
//! uniform to Zipf-skewed repeats, the locality the cache exists to
//! exploit; the final [`LoadReport::cache`] counters record what it did.

use crate::{CubeServer, ServerAnswer, ServerError};
use olap_array::{mix, DenseArray, Region};
use olap_engine::CacheStats;
use olap_query::RangeQuery;
use olap_workload::{uniform_regions, zipf_regions};
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload parameters for [`drive_load`].
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Rounds of (concurrent readers + one update install).
    pub phases: usize,
    /// Queries per phase, split across the reader threads.
    pub queries_per_phase: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Cells per update batch (all within one shard's slab).
    pub batch: usize,
    /// Seeds queries, update sites, and values.
    pub seed: u64,
    /// When nonzero, draw each phase's queries Zipf-skewed from a pool of
    /// this many distinct regions (exponent 1.1) instead of uniformly —
    /// the repeat-heavy locality workload the semantic cache exploits.
    pub zipf_pool: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            phases: 8,
            queries_per_phase: 48,
            readers: 4,
            batch: 3,
            seed: 7,
            zipf_pool: 0,
        }
    }
}

/// What a [`drive_load`] run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Answers returned by the server.
    pub answers: u64,
    /// Answers equal to neither the pre- nor the post-update oracle.
    pub mismatches: u64,
    /// Update batches installed.
    pub updates: u64,
    /// Phases driven.
    pub phases: usize,
    /// Reader threads per phase.
    pub readers: usize,
    /// Answers served from a degradation tier (a bounded-error
    /// [`crate::ServedEstimate`] whose interval was checked against the
    /// oracle pair instead of bit-identity).
    pub degraded: u64,
    /// Aggregated semantic-cache counters at the end of the run.
    pub cache: CacheStats,
}

impl LoadReport {
    /// Whether every answer matched an oracle state: exact answers
    /// bit-identical, degraded answers' intervals containing an oracle.
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && self.answers > 0
    }
}

/// The sequential oracle for one query on one cube state.
fn oracle(cube: &DenseArray<i64>, region: &Region, op: u64) -> i64 {
    match op {
        0 => cube.fold_region(region, i64::MIN, |m, &x| m.max(x)),
        1 => cube.fold_region(region, i64::MAX, |m, &x| m.min(x)),
        _ => cube.fold_region(region, 0i64, |s, &x| s.wrapping_add(x)),
    }
}

/// The answer the server gives for the same query.
fn served(server: &CubeServer, q: &RangeQuery, op: u64) -> Result<ServerAnswer, ServerError> {
    match op {
        0 => server.range_max(q),
        1 => server.range_min(q),
        _ => server.range_sum(q),
    }
}

/// One phase's seeded single-shard update batch, in global coordinates.
fn phase_batch(server: &CubeServer, spec: &LoadSpec, phase: usize) -> Vec<(Vec<usize>, i64)> {
    let stats = server.shard_stats();
    let Some(shard) = stats.get(phase % stats.len().max(1)) else {
        return Vec::new();
    };
    let (row_lo, row_hi) = shard.rows;
    let shape = server.shape();
    let mut batch = Vec::with_capacity(spec.batch);
    for j in 0..spec.batch {
        let r = mix(spec.seed ^ ((phase as u64) << 24) ^ ((j as u64) << 8));
        let mut idx = Vec::with_capacity(shape.ndim());
        for (d, &n) in shape.dims().iter().enumerate() {
            let v = mix(r ^ (d as u64)) as usize;
            if d == 0 {
                idx.push(row_lo + v % (row_hi - row_lo + 1));
            } else {
                idx.push(v % n);
            }
        }
        batch.push((idx, (r % 2001) as i64 - 1000));
    }
    batch
}

/// Runs `f` under `scope` — the telemetry context captured on the thread
/// that spawned this one — so a reader thread's queries record into the
/// driving thread's registry (the server records into whatever context
/// its *caller* has entered).
fn enter_scope(scope: Option<std::sync::Arc<olap_telemetry::Telemetry>>, f: impl FnOnce()) {
    match scope {
        Some(ctx) => olap_telemetry::with_scope(&ctx, f),
        None => f(),
    }
}

/// Drives the seeded concurrent workload and tallies oracle agreement.
///
/// `cube` must be the exact array the server was built from; the driver
/// maintains its own sequential shadow from it.
///
/// # Errors
/// Build/validation/engine failures from the server. Oracle
/// *disagreement* is not an error — it is counted in
/// [`LoadReport::mismatches`] so callers can report it.
pub fn drive_load(
    server: &CubeServer,
    cube: &DenseArray<i64>,
    spec: &LoadSpec,
) -> Result<LoadReport, ServerError> {
    let mut shadow = cube.clone();
    let answers = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let mut updates = 0u64;
    let readers = spec.readers.max(1);
    let first_error: std::sync::Mutex<Option<ServerError>> = std::sync::Mutex::new(None);

    for phase in 0..spec.phases {
        let phase_seed = mix(spec.seed ^ ((phase as u64) << 40));
        let regions = if spec.zipf_pool > 0 {
            // Seeded off `seed` alone so the pool — and the hot head of
            // the distribution — is the same in every phase; what varies
            // across phases is the op mix and the update batch.
            zipf_regions(
                server.shape(),
                spec.queries_per_phase,
                spec.zipf_pool,
                1.1,
                mix(spec.seed),
            )
        } else {
            uniform_regions(server.shape(), spec.queries_per_phase, phase_seed)
        };
        let batch = phase_batch(server, spec, phase);
        let mut post = shadow.clone();
        for (idx, v) in &batch {
            *post.get_mut(idx) = *v;
        }
        // Per-query oracle pair: the answer must be one of these two.
        let cases: Vec<(RangeQuery, u64, i64, i64)> = regions
            .iter()
            .enumerate()
            .map(|(i, region)| {
                let op = mix(spec.seed ^ ((phase as u64) << 16) ^ (i as u64)) % 4;
                let pre = oracle(&shadow, region, op);
                let after = oracle(&post, region, op);
                (RangeQuery::from_region(region), op, pre, after)
            })
            .collect();

        // Readers re-enter the driving thread's telemetry scope, so
        // everything the server records while answering them lands in
        // the caller's registry, not nowhere.
        let telemetry = olap_telemetry::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let cases = &cases;
                    let answers = &answers;
                    let mismatches = &mismatches;
                    let degraded = &degraded;
                    let first_error = &first_error;
                    let telemetry = telemetry.clone();
                    scope.spawn(move || {
                        enter_scope(telemetry, move || {
                            for (q, op, pre, after) in cases.iter().skip(r).step_by(readers) {
                                match served(server, q, *op) {
                                    Ok(got) => {
                                        // ordering: Relaxed — monotonic tallies read
                                        // only after the scope joins every reader.
                                        answers.fetch_add(1, Ordering::Relaxed);
                                        if got.is_degraded() {
                                            // ordering: Relaxed — same tally contract.
                                            degraded.fetch_add(1, Ordering::Relaxed);
                                        }
                                        // Exact answers must be bit-identical
                                        // to an oracle state; degraded answers
                                        // must bracket one with their
                                        // guaranteed interval.
                                        if !got.contains(*pre) && !got.contains(*after) {
                                            // ordering: Relaxed — same tally contract.
                                            mismatches.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    Err(e) => {
                                        let mut slot =
                                            first_error.lock().unwrap_or_else(|p| p.into_inner());
                                        slot.get_or_insert(e);
                                    }
                                }
                            }
                        })
                    })
                })
                .collect();
            // Install the batch while the readers are mid-flight: the
            // whole point is that nothing blocks and nothing tears.
            if !batch.is_empty() {
                match server.apply_updates(&batch) {
                    Ok(_) => updates += 1,
                    Err(e) => {
                        let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                        slot.get_or_insert(e);
                    }
                }
            }
            // Joined here, not at the scope's end: a join waits for the
            // reader's thread-locals too, so each reader has given back its
            // stripe (`olap_engine::stripe`) before the next phase's readers
            // take theirs, and every phase reads through the same tables.
            for reader in handles {
                if let Err(panic) = reader.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        if let Some(e) = first_error.lock().unwrap_or_else(|p| p.into_inner()).take() {
            return Err(e);
        }
        shadow = post;
    }

    Ok(LoadReport {
        // ordering: Relaxed — every writer thread joined at the end of
        // its scope, so these reads are already synchronized.
        answers: answers.load(Ordering::Relaxed),
        // ordering: Relaxed — same post-join read as `answers` above.
        mismatches: mismatches.load(Ordering::Relaxed),
        updates,
        phases: spec.phases,
        readers,
        // ordering: Relaxed — same post-join read as `answers` above.
        degraded: degraded.load(Ordering::Relaxed),
        cache: server.cache_stats(),
    })
}
