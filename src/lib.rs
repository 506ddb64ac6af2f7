//! # olap-cube
//!
//! A production-quality Rust reproduction of **"Range Queries in OLAP Data
//! Cubes"** (Ching-Tien Ho, Rakesh Agrawal, Nimrod Megiddo, Ramakrishnan
//! Srikant; SIGMOD 1997).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! | Module | Contents | Paper section |
//! |---|---|---|
//! | [`array`](mod@array) | dense d-dimensional array substrate | §2 |
//! | [`aggregate`] | operator algebra (SUM/COUNT/AVG/XOR/PRODUCT/MAX/MIN) | §1–§2 |
//! | [`query`] | ranges, regions, query statistics and logs | §2, Table 1 |
//! | [`prefix_sum`] | prefix-sum & blocked prefix-sum range-sum, batch updates | §3–§5 |
//! | [`range_max`] | branch-and-bound block-tree range-max, batch updates | §6–§7 |
//! | [`tree_sum`] | tree-hierarchy range-sum baseline | §8 |
//! | [`planner`] | cost models, dimension/cuboid/block-size selection | §8–§9 |
//! | [`sparse`] | R*-tree, B+-tree, dense-region finder, sparse engines | §10 |
//! | [`workload`] | seeded cube and query generators | evaluation |
//! | [`engine`] | unified engines, planned indexes, naive baselines | all |
//! | [`server`] | sharded snapshot-isolated serving, load driver | deployment |
//! | [`storage`] | binary persistence for cubes and structures | deployment |
//!
//! ## Quickstart
//!
//! ```
//! use olap_cube::array::{DenseArray, Region, Shape};
//! use olap_cube::prefix_sum::PrefixSumCube;
//!
//! // Figure 1 of the paper: a 3×6 cube.
//! let a = DenseArray::from_vec(
//!     Shape::new(&[3, 6]).unwrap(),
//!     vec![3i64, 5, 1, 2, 2, 3, 7, 3, 2, 6, 8, 2, 2, 4, 2, 3, 3, 5],
//! )
//! .unwrap();
//! let ps = PrefixSumCube::build(&a);
//! // Sum(2:3, 1:2) — the worked example below Theorem 1 (note the paper
//! // indexes dimension 1 along the horizontal axis of Figure 1).
//! let q = Region::from_bounds(&[(1, 2), (2, 3)]).unwrap();
//! assert_eq!(ps.range_sum(&q).unwrap(), 13);
//! ```

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

pub use olap_aggregate as aggregate;
pub use olap_array as array;
pub use olap_engine as engine;
pub use olap_planner as planner;
pub use olap_prefix_sum as prefix_sum;
pub use olap_query as query;
pub use olap_range_max as range_max;
pub use olap_server as server;
pub use olap_sparse as sparse;
pub use olap_storage as storage;
pub use olap_tree_sum as tree_sum;
pub use olap_workload as workload;
