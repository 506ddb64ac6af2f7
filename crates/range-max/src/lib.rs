//! Branch-and-bound range-max queries over data cubes (§6–§7).
//!
//! The data structure is a generalized quad-tree: a balanced tree of
//! fanout `b^d` built bottom-up over the cube, where every node stores the
//! **index of the maximum value** in the region it covers. Queries walk
//! from the lowest-level node covering the query region and use a
//! branch-and-bound rule — a subtree whose precomputed max cannot beat the
//! best value found so far is pruned — exploiting the MAX property that
//! `max(S2) = max(S2 − S1)` whenever some `i ∈ S2` has `i ≥ max(S1)`.
//!
//! The worst case visits `O(b log_b r)` nodes in one dimension (`r` the
//! range size); the average case is bounded by `b + 7 + 1/b` (Theorem 3).
//!
//! [`MaxTree::batch_update`] implements the §7 tag protocol: updates are
//! scanned once per level; a node rescans its children only when its
//! current maximum was decreased and no later increase recovered it.

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

mod search;
mod tree;
mod update;

pub use search::SearchOptions;
pub use tree::{MaxTree, MaxTreeError, NaturalMaxTree, NaturalMinTree};
pub use update::PointUpdate;
