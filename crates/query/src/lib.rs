//! Range-query model, query statistics, and query logs.
//!
//! §2 of the paper defines a range query by an inclusive range `ℓ_j:h_j`
//! per dimension; §9 additionally distinguishes, per attribute, between
//! *active* selections (a genuine range), singletons, and `all`, because
//! the physical-design algorithms assign each query to the **cuboid** of
//! its non-`all` dimensions and consume per-cuboid aggregate statistics
//! (Table 1: volume `V`, side lengths `x_i`, surface area
//! `S = Σ_i 2V/x_i`).
//!
//! This crate provides:
//!
//! - [`DimSelection`] / [`RangeQuery`]: the user-facing query model,
//! - [`AccessStats`] / [`QueryCtx`]: the §8 access counts, and one
//!   query's accounting that charges its budget from them,
//! - [`Answer`] / [`QueryOutcome`] / [`EngineKind`]: the unified answer
//!   vocabulary every engine returns (value + access stats + which
//!   structure answered),
//! - [`Estimate`]: the bounded-error approximate answer a degraded
//!   serving tier returns — statically distinct from exact outcomes,
//!   carrying a guaranteed interval around the true value,
//! - [`CuboidId`]: a bitmask identifying a cuboid (a subset of dimensions),
//! - [`QueryStats`] and [`CuboidStats`]: Table-1 statistics for a single
//!   query and averaged over a log,
//! - [`QueryLog`]: a collection of queries with per-cuboid grouping, the
//!   input to the §9 planner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod cuboid;
mod estimate;
mod log;
mod outcome;
mod query;
mod schema;
mod stats;

pub use access::{AccessStats, QueryCtx};
pub use cuboid::CuboidId;
pub use estimate::Estimate;
pub use log::{CuboidStats, QueryLog};
pub use outcome::{Answer, EngineKind, QueryOutcome};
pub use query::{DimSelection, RangeQuery};
pub use schema::{AttrDomain, Attribute, CubeSchema, QueryBuilder, SchemaError};
pub use stats::QueryStats;
