//! Unified query engines over a data cube.
//!
//! This crate is the "product" layer a downstream user talks to. Every
//! backend implements the [`RangeEngine`] trait — the lingua franca of
//! [`olap_query::RangeQuery`] in, [`olap_query::QueryOutcome`] out. A
//! query is resolved into an [`olap_array::Region`] once, at whichever
//! entry point it arrives through; below it each engine prices that
//! region with one [`RangeEngine::cost`] and answers it with one budgeted
//! [`RangeEngine::read`]. The [`AdaptiveRouter`] picks among engines with
//! the paper's §8/§9 cost model as written, reporting how far observed
//! access counts drift from it:
//!
//! - [`CubeIndex`]: holds a dense cube plus whichever precomputed
//!   structures an [`IndexConfig`] requests (basic prefix sum §3 or
//!   blocked prefix sum §4, range-max and range-min trees §6), routes
//!   every query to the best available structure, and keeps all
//!   structures consistent under batched updates (§5, §7),
//! - [`PlannedIndex`]: the §9-planned set of per-cuboid structures,
//! - [`ExtendedCube`]: the \[GBLP96\] baseline the paper starts from,
//! - [`NaiveEngine`] / [`naive`]: the no-precomputation baselines every
//!   experiment compares against,
//! - [`SumTreeEngine`], [`SparseSumEngine`], [`SparseMaxEngine`]: the §8
//!   tree baseline and the §10 sparse engines behind the trait,
//! - [`AdaptiveRouter`]: cost-based routing over any set of the above,
//!   with an [`AdaptiveRouter::explain`] view of every decision,
//! - [`SemanticCache`]: an exact-result cache in front of a router or
//!   version cell, answering repeated regions from stored sums and
//!   dropping only the entries an installed batch touches,
//! - [`ApproxEngine`]: the anchor-only bounded-error tier the router
//!   degrades to (policy-gated) when budgets, breakers, or queues make
//!   exact answering impossible,
//! - [`rolling`]: ROLLING SUM / ROLLING AVERAGE, which §1 notes are
//!   special cases of range-sum and range-average.
//!
//! All fallible operations report one [`EngineError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors, so clippy denies every
// panicking escape hatch outside test builds. A site whose bound is an
// invariant carries `#[expect(clippy::…, reason = "…")]` on the narrowest
// item that holds it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod approx;
mod backends;
pub mod cuboid;
mod error;
mod extended;
pub mod faults;
mod index;
pub mod naive;
mod planned;
mod range_engine;
pub mod rolling;
mod router;
mod semantic_cache;
mod telemetry;
mod version;

pub use approx::{ApproxEngine, ApproxValue, DegradeTier};
pub use backends::{NaiveEngine, SparseMaxEngine, SparseSumEngine, SumTreeEngine};
pub use error::EngineError;
pub use extended::ExtendedCube;
pub use faults::{FaultPlan, FaultyEngine};
pub use index::{CubeIndex, IndexConfig, PrefixChoice};
pub use olap_array::{BudgetMeter, CancellationToken, DegradePolicy, Interrupt, QueryBudget};
pub use planned::PlannedIndex;
pub use range_engine::{BatchImage, Capabilities, Derived, EngineOp, RangeEngine};
pub use router::{
    AdaptiveRouter, Candidate, DegradeReason, EngineHealth, EngineStatus, Explain, FaultStats,
    Routed, QUARANTINE_COOLDOWN_TICKS, QUARANTINE_THRESHOLD,
};
pub use semantic_cache::{CacheBackend, CacheStats, SemanticCache};
pub use version::{EngineVersion, EpochStats, VersionCell};
