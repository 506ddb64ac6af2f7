//! Seeded synthetic cubes and query workloads for tests, examples, and
//! benchmarks.
//!
//! The paper's own evaluation is analytic plus a prototype run on
//! unspecified data; these generators provide the reproducible stand-ins:
//! uniform and skewed dense cubes, the clustered ~20%-density sparse cubes
//! the paper calls canonical for OLAP (§1, §10), the motivating insurance
//! cube of §1, and query workloads (uniform regions, fixed-side `α·b`
//! regions for the Figure-11 sweep, Zipf-skewed repeat-heavy regions for
//! semantic-cache studies, and multi-cuboid logs for §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cubes;
mod queries;

pub use cubes::{
    clustered_sparse_cube, seasonal_cube, skewed_cube, uniform_cube, InsuranceCube,
    INSURANCE_TYPES, STATES,
};
pub use queries::{sided_regions, synthetic_log, uniform_regions, zipf_regions, CuboidMix};
