//! Dense d-dimensional array substrate for OLAP data cubes.
//!
//! The paper ("Range Queries in OLAP Data Cubes", SIGMOD 1997, §2) models a
//! data cube as a d-dimensional array `A` of size `n_1 × n_2 × … × n_d`
//! with 0-based indices, stored in row-major order. This crate provides that
//! substrate, built from scratch:
//!
//! - [`Shape`]: dimension extents plus row-major strides and index/offset
//!   arithmetic,
//! - [`Range`] and [`Region`]: the inclusive `ℓ:h` per-dimension ranges and
//!   the hyper-rectangles (`Region(ℓ_1:h_1, …, ℓ_d:h_d)`) that define range
//!   queries,
//! - [`DenseArray`]: the cube storage itself, with region iteration, axis
//!   scans (the building block of the d-phase prefix-sum computation of
//!   §3.3), and block contraction (the first phase of the blocked algorithms
//!   of §4.3 and the tree construction of §6.2).
//!
//! Everything is deliberately free of aggregation semantics: operators live
//! in `olap-aggregate`, and algorithms in the crates layered above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors; panicking escape
// hatches are denied outside test builds (tests and benches may unwrap).
// Clippy catches unwrap/expect; `olap-analyzer`'s panic-site rule covers
// what it can't — indexing, slicing, panic-family macros, and unchecked
// index arithmetic on query paths (see crates/analyzer).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
mod dense;
mod error;
mod iter;
mod range;
mod region;
mod shape;

pub use budget::{BudgetMeter, CancellationToken, DegradePolicy, Interrupt, QueryBudget};
pub use dense::DenseArray;
pub use error::ArrayError;
pub use iter::{FlatRegionIter, RegionIndexIter};
pub use range::Range;
pub use region::Region;
pub use shape::Shape;
