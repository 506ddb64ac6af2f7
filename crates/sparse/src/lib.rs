//! Sparse data cubes (§10).
//!
//! Dense-array prefix sums waste space when the cube is sparse (the paper
//! cites ~20% canonical OLAP density with dense sub-clusters). This crate
//! builds the three substrates §10 relies on and the sparse engines on top
//! of them:
//!
//! - [`BPlusTree`]: a from-scratch B+-tree with floor/ceiling lookups —
//!   the index the paper puts over a sparse one-dimensional prefix array
//!   (§10.1, citing \[Com79\]),
//! - [`RStarTree`]: a from-scratch d-dimensional R*-tree (insertion with
//!   forced reinsert and margin-based splits, per \[BKSS90\]) that indexes
//!   dense-region boundaries and outlier points (§10.2) and, with cached
//!   per-node maxima, answers branch-and-bound range-max queries (§10.3),
//! - [`DenseRegionFinder`]: a decision-tree-style classifier that finds
//!   rectangular dense regions, counting empty cells as
//!   `volume − non-empty` so the full cube is never materialized (§10.2's
//!   modification of \[SAM96\]),
//! - [`SparseCube`], [`SparseRangeSum`], [`SparseRangeMax`],
//!   [`Sparse1dPrefixSum`]: the cube representation and the three engines.

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

mod btree;
mod cube;
mod regions;
mod rstar;
mod sparse1d;
mod sparse_max;
mod sparse_sum;

pub use btree::BPlusTree;
pub use cube::SparseCube;
pub use regions::{DenseRegion, DenseRegionFinder, RegionFinderParams};
pub use rstar::RStarTree;
pub use sparse1d::{Sparse1dBlocked, Sparse1dPrefixSum};
pub use sparse_max::SparseRangeMax;
pub use sparse_sum::SparseRangeSum;
