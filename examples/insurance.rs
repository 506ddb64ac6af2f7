//! The paper's §1 motivating scenario: an insurance data cube with
//! dimensions age × year × state × type, and the range query
//! "revenue from customers aged 37–52, years 1988–1996, all of the U.S.,
//! auto insurance".
//!
//! Shows the cost gap the paper opens with: the extended-cube approach
//! needs 16·9 = 144 cell accesses, the prefix-sum approach at most 2^d.
//!
//! ```text
//! cargo run --example insurance
//! ```

use olap_aggregate::SumOp;
use olap_cube::engine::naive;
use olap_cube::prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_cube::query::{DimSelection, QueryCtx, RangeQuery};
use olap_cube::workload::InsuranceCube;

fn main() {
    let cube = InsuranceCube::generate(42);
    let a = &cube.revenue;
    println!(
        "insurance cube: {:?} = {} cells",
        a.shape().dims(),
        a.shape().len()
    );

    // The paper's query, written against attribute domains and mapped to
    // rank domains exactly as §2 prescribes.
    let query = RangeQuery::new(vec![
        DimSelection::span(InsuranceCube::age_rank(37), InsuranceCube::age_rank(52))
            .expect("age range"),
        DimSelection::span(
            InsuranceCube::year_rank(1988),
            InsuranceCube::year_rank(1996),
        )
        .expect("year range"),
        DimSelection::All,
        DimSelection::Single(InsuranceCube::type_rank("auto").expect("known type")),
    ])
    .expect("4 selections");
    let region = query.to_region(a.shape()).expect("in domain");
    println!("query: {region} (volume {})", region.volume());

    // Naive: scan every selected cell.
    let sum = SumOp::<i64>::new();
    let (naive_sum, naive_stats) =
        QueryCtx::measure(|ctx| naive::range_aggregate(a, &sum, &region, ctx))
            .expect("valid region");
    println!(
        "naive scan:        revenue = {naive_sum:>12}   cells accessed = {}",
        naive_stats.total_accesses()
    );

    // Basic prefix sums (§3): at most 2^d = 16 accesses, any query size.
    let ps = PrefixSumCube::build(a);
    let (ps_sum, ps_stats) = QueryCtx::measure(|ctx| ps.read(&region, ctx)).expect("valid region");
    println!(
        "prefix sum (§3):   revenue = {ps_sum:>12}   cells accessed = {}",
        ps_stats.total_accesses()
    );
    assert_eq!(ps_sum, naive_sum);

    // Blocked prefix sums (§4) with b = 10: 1/10^4 of the space… but the
    // cube has small dimensions, so storage is ⌈n_j/b⌉ per dimension.
    let bp = BlockedPrefixCube::build(a, 10).expect("valid block");
    let (bp_sum, bp_stats) =
        QueryCtx::measure(|ctx| bp.read(a, &region, BoundaryPolicy::Auto, ctx))
            .expect("valid region");
    println!(
        "blocked b=10 (§4): revenue = {bp_sum:>12}   cells accessed = {}   (P storage: {} cells vs {} basic)",
        bp_stats.total_accesses(),
        bp.packed_array().len(),
        ps.prefix_array().len(),
    );
    assert_eq!(bp_sum, naive_sum);
    // Note: b = 10 meets or exceeds three of this cube's four dimension
    // sizes (10, 50, 3), so almost no query sub-cube contains a complete
    // block and the blocked algorithm degrades toward the naive scan —
    // exactly why §9.3 chooses block sizes from the query statistics
    // rather than fixing one. See `examples/advisor.rs`.

    // The paper's singleton query "(all, 1995, all, auto)" — one cell in
    // the extended cube; here a range query over the rank domains.
    let singleton = RangeQuery::new(vec![
        DimSelection::All,
        DimSelection::Single(InsuranceCube::year_rank(1995)),
        DimSelection::All,
        DimSelection::Single(InsuranceCube::type_rank("auto").expect("known type")),
    ])
    .expect("4 selections");
    let sregion = singleton.to_region(a.shape()).expect("in domain");
    let (srev, sstats) = QueryCtx::measure(|ctx| ps.read(&sregion, ctx)).expect("valid region");
    println!(
        "(all, 1995, all, auto): revenue = {srev}   prefix accesses = {}",
        sstats.total_accesses()
    );

    println!("insurance example OK");
}
