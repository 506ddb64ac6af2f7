//! Shared measurement helpers for the experiment harness.
//!
//! The unit of measurement throughout is the paper's own proxy for
//! response time: the **number of elements accessed** (§8). Wall-clock
//! figures live in the perf ledger (`benchmark/`), one rung per layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use olap_aggregate::SumOp;
use olap_array::{DenseArray, Region, Shape};
use olap_engine::naive;
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::QueryCtx;
use olap_tree_sum::SumTreeCube;

/// Mean accesses per query of one metered read, run unmetered.
fn mean_accesses<T, E: std::fmt::Debug>(
    queries: &[Region],
    mut read: impl FnMut(&Region, &mut QueryCtx<'_>) -> Result<T, E>,
) -> f64 {
    let mut total = 0u64;
    for q in queries {
        let (_, s) = QueryCtx::measure(|ctx| read(q, ctx)).expect("valid query");
        total += s.total_accesses();
    }
    total as f64 / queries.len() as f64
}

/// Mean accesses per query for the naive scan.
pub fn naive_cost(a: &DenseArray<i64>, queries: &[Region]) -> f64 {
    let sum = SumOp::<i64>::new();
    mean_accesses(queries, |q, ctx| naive::range_aggregate(a, &sum, q, ctx))
}

/// Mean accesses per query for the basic prefix-sum algorithm (§3).
pub fn prefix_cost(ps: &PrefixSumCube<i64>, queries: &[Region]) -> f64 {
    mean_accesses(queries, |q, ctx| ps.read(q, ctx))
}

/// Mean accesses per query for the blocked algorithm (§4) under a policy.
pub fn blocked_cost(
    bp: &BlockedPrefixCube<i64>,
    a: &DenseArray<i64>,
    queries: &[Region],
    policy: BoundaryPolicy,
) -> f64 {
    mean_accesses(queries, |q, ctx| bp.read(a, q, policy, ctx))
}

/// Mean accesses per query for the tree-sum baseline (§8).
pub fn tree_sum_cost(
    st: &SumTreeCube<i64>,
    a: &DenseArray<i64>,
    queries: &[Region],
    complement: bool,
) -> f64 {
    mean_accesses(queries, |q, ctx| st.read(a, q, complement, ctx))
}

/// Formats one table row of `f64` cells with a label.
pub fn row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for c in cells {
        s.push_str(&format!(" {c:>12.1}"));
    }
    s
}

/// Formats a table header.
pub fn header(label: &str, cols: &[String]) -> String {
    let mut s = format!("{label:<24}");
    for c in cols {
        s.push_str(&format!(" {c:>12}"));
    }
    s
}

/// A standard 2-d test cube for the measured experiments.
pub fn standard_cube(n: usize, seed: u64) -> DenseArray<i64> {
    olap_workload::uniform_cube(Shape::new(&[n, n]).expect("valid"), 1000, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_workload::uniform_regions;

    #[test]
    fn costs_are_ordered_sensibly() {
        let a = standard_cube(128, 1);
        let ps = PrefixSumCube::build(&a);
        let bp = BlockedPrefixCube::build(&a, 8).unwrap();
        let queries = uniform_regions(a.shape(), 30, 2);
        let n = naive_cost(&a, &queries);
        let p = prefix_cost(&ps, &queries);
        let b = blocked_cost(&bp, &a, &queries, BoundaryPolicy::Auto);
        assert!(p <= 4.0);
        assert!(b < n, "blocked {b} should beat naive {n}");
        assert!(p <= b);
    }

    #[test]
    fn row_formatting() {
        let s = row("x", &[1.0, 2.5]);
        assert!(s.starts_with('x'));
        assert!(s.contains("2.5"));
    }
}
