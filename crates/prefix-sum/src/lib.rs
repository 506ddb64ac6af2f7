//! Prefix-sum range-sum algorithms — the paper's primary contribution.
//!
//! - [`PrefixSumArray`] (§3): precompute the d-dimensional prefix-sum array
//!   `P` (same size as the cube); any range-sum is then at most `2^d`
//!   signed lookups into `P` (Theorem 1). The cube `A` may be discarded
//!   because every cell is itself a (degenerate) range-sum (§3.4).
//! - [`BlockedPrefixSum`] (§4): store `P` only at block anchors — `1/b^d`
//!   the space — and answer a query by splitting it into `3^d` disjoint
//!   sub-regions: one block-aligned *internal* region answered from `P`
//!   plus *boundary* regions answered from `A`, either directly or via the
//!   complement trick (superblock minus complement), whichever is cheaper.
//! - [`batch`] (§5): merge `k` queued updates into at most
//!   `∏_{j=0}^{d−1}(k+j)/d!` disjoint rectangular update regions
//!   (Theorem 2) and apply them to `P` in one pass per region; the blocked
//!   variant first contracts update locations to block coordinates.
//!
//! All algorithms are generic over any invertible operator
//! ([`olap_aggregate::AbelianGroup`]): SUM, COUNT, AVERAGE pairs, XOR,
//! PRODUCT on a zero-free domain.

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

mod basic;
mod blocked;
mod partial;

pub mod batch;
pub mod paging;

pub use basic::{PrefixSumArray, PrefixSumCube};
pub use blocked::{
    BlockedPrefixCube, BlockedPrefixSum, BoundaryMethod, BoundaryPolicy, RegionPart, SumBounds,
};
pub use partial::{PartialPrefixCube, PartialPrefixSum};
