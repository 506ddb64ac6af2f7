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
//! - [`DenseArray`]: the cube storage itself, one contiguous buffer, with
//!   region iteration and axis scans (the building block of the d-phase
//!   prefix-sum computation of §3.3),
//! - [`PagedArray`]: the same cube in copy-on-write pages that clones
//!   share, the base cube a stack of engines versions batch by batch,
//! - [`CellRead`]: the read interface both implement, over which every
//!   kernel that reads the cube is written once, block contraction (the
//!   first phase of the blocked algorithms of §4.3 and the tree
//!   construction of §6.2) included.
//!
//! Everything is deliberately free of aggregation semantics: operators live
//! in `olap-aggregate`, and algorithms in the crates layered above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors, so clippy denies every
// panicking escape hatch outside test builds. A site whose bound is an
// invariant carries `#[expect(clippy::…, reason = "…")]` on the narrowest
// item that holds it. Nor may it discard an error: `let _ =` on a
// `#[must_use]` value (a `Result` included) is denied too.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use
    )
)]

pub mod budget;
mod cells;
mod dense;
mod error;
mod iter;
mod paged;
mod range;
mod region;
mod shape;

pub use budget::{BudgetMeter, CancellationToken, DegradePolicy, Interrupt, QueryBudget};
pub use cells::CellRead;
pub use dense::DenseArray;
pub use error::ArrayError;
pub use iter::{FlatRegionIter, RegionIndexIter};
pub use paged::{PagedArray, PAGE_LEN};
pub use range::Range;
pub use region::Region;
pub use shape::Shape;

/// SplitMix64: a stateless 64-bit mixer, the workspace's seeded-stream
/// idiom — `mix(seed ^ i)` gives the `i`-th value of a reproducible
/// stream without carrying RNG state.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
