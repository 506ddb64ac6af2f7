//! The sharded, snapshot-isolated serving layer over the engine crate.
//!
//! [`CubeServer`] partitions a dense cube into contiguous slabs along the
//! leading dimension and gives each slab its own
//! [`olap_engine::AdaptiveRouter`] — the PR-4 failover/circuit-breaker
//! machinery, shareable because every router method takes `&self`. The
//! server starts no thread: a query runs on its caller's thread, visits
//! the shards its region overlaps in shard order, and folds the partial
//! answers as they are produced (sums add; argmax/argmin map back to
//! global coordinates). Batched updates derive copy-on-write successor
//! snapshots per shard and install them, so in-flight queries finish on
//! the snapshot they pinned — readers are never blocked by a writer — and
//! an install sequence checked like a seqlock keeps a query that spans
//! shards from mixing states: every batch is atomic to every reader.
//!
//! Each shard answers sums through a per-shard
//! [`olap_engine::SemanticCache`] (repeat regions hit, contained regions
//! assemble by ±-combination, installs invalidate region-wise); see the
//! `server` module docs.
//!
//! [`drive_load`] is the seeded mixed-workload driver behind
//! `olap-cli serve`: phases of concurrent readers racing one update
//! batch, every answer asserted bit-identical to the pre- or post-update
//! sequential oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors; panicking escape
// hatches are denied outside test builds (tests may unwrap). See the
// matching attribute in olap-engine.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod driver;
mod error;
mod metrics_http;
mod server;

pub use driver::{drive_load, LoadReport, LoadSpec};
pub use error::ServerError;
pub use metrics_http::{
    degraded_fraction_report, publish_latency_quantiles, slo_report, DegradedFractionViolation,
    MetricsServer, SloViolation,
};
pub use olap_engine::CacheStats;
pub use server::{CubeServer, ServeConfig, ServedEstimate, ServerAnswer, ShardStats, SloSpec};
