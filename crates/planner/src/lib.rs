//! Cost models and physical-design planning (§8–§9).
//!
//! Three decisions, in the paper's order:
//!
//! 1. **Choosing dimensions** (§9.1): drop the prefix sum along attributes
//!    that queries rarely range over — [`dimensions`] has the `R_j ≥ 2m`
//!    heuristic, the exact Gray-code `O(m·2^d)` optimizer, and the cost
//!    function both optimize.
//! 2. **Choosing cuboids** (§9.2): under a space budget, greedily pick the
//!    cuboids to materialize prefix sums for (with per-cuboid block
//!    sizes), then fine-tune by drop-and-replace — [`cuboids`].
//! 3. **Choosing block sizes** (§9.3): the closed-form maximiser of the
//!    benefit/space ratio, `b* = (V − 2^d)/(S/4) · d/(d+1)` — [`cost`].
//!
//! [`cost`] also carries the §8 comparison between prefix sums and tree
//! hierarchies that Figure 11 plots.

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

pub mod cost;
pub mod cuboids;
pub mod dimensions;

pub use cost::{
    benefit_space_ratio, f_of_b, fig11_difference, optimal_block_size,
    optimal_block_size_under_ancestor, pow2, prefix_sum_cost, tree_cost, tree_depth, CostError,
};
pub use cuboids::{GreedyPlanner, Plan, PrefixSumChoice};
pub use dimensions::{choose_dimensions_exact, choose_dimensions_heuristic, selection_cost};
