//! Binary persistence for data cubes and their precomputed structures.
//!
//! In the OLAP setting the paper targets, the prefix-sum array and the
//! max tree are computed once (a `dN`-step pass over the cube, §3.3) and
//! then served for a long query period — so a production deployment
//! persists them rather than rebuilding on every start. This crate
//! provides a small, dependency-free, little-endian binary format:
//!
//! ```text
//! magic "OLAPCUBE" | u16 version | u8 kind | payload
//! ```
//!
//! Supported artifacts: [`DenseArray`](olap_array::DenseArray)`<i64>`/`<f64>`,
//! [`SparseCube`](olap_sparse::SparseCube)`<i64>`, the basic prefix-sum array, the blocked
//! prefix-sum array, and the range-max tree. Every reader validates
//! structure (magic, version, kind, shapes) and fails loudly on
//! corruption; it never panics on malformed input.

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

mod codec;
mod formats;

pub use codec::StorageError;
pub use formats::{
    read_blocked_prefix, read_dense_f64, read_dense_i64, read_max_tree, read_min_tree,
    read_prefix_sum, read_sparse_cube, write_blocked_prefix, write_dense_f64, write_dense_i64,
    write_max_tree, write_min_tree, write_prefix_sum, write_sparse_cube,
};
