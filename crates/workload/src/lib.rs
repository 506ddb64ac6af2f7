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

/// SplitMix64: a stateless 64-bit mixer, the workspace's seeded-stream
/// idiom — `mix(seed ^ i)` gives the `i`-th value of a reproducible
/// stream without carrying RNG state.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
