//! A retail "dashboard" session: an attribute schema over a sales cube,
//! attribute-level queries (the §2 rank mapping), rolling windows, MIN and
//! MAX, and the §11 progressive bounds — the interactive exploration
//! setting the paper's introduction motivates.
//!
//! ```text
//! cargo run --example retail_dashboard
//! ```

use olap_cube::array::Shape;
use olap_cube::engine::rolling::rolling_aggregate;
use olap_cube::engine::{CubeIndex, IndexConfig, PrefixChoice};
use olap_cube::prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_cube::query::CubeSchema;
use olap_cube::workload::seasonal_cube;

fn main() {
    // Schema: day (1..=364) × store (12) × category (8).
    let schema = CubeSchema::new(vec![
        CubeSchema::integer("day", 1, 364),
        CubeSchema::categorical(
            "store",
            &[
                "SEA-1", "SEA-2", "PDX-1", "SFO-1", "SFO-2", "LAX-1", "LAX-2", "DEN-1", "CHI-1",
                "NYC-1", "NYC-2", "BOS-1",
            ],
        ),
        CubeSchema::categorical(
            "category",
            &[
                "produce",
                "dairy",
                "bakery",
                "meat",
                "frozen",
                "household",
                "beauty",
                "pharmacy",
            ],
        ),
    ]);
    let shape: Shape = schema.shape().expect("valid schema");
    println!(
        "sales cube: {:?} = {} cells ({} attributes)",
        shape.dims(),
        shape.len(),
        schema.attributes().len()
    );
    let sales = seasonal_cube(shape.clone(), 1_000, 7);

    // Index: basic prefix sums + max and min trees.
    let index = CubeIndex::build(
        sales.clone(),
        IndexConfig {
            prefix: PrefixChoice::Basic,
            max_tree_fanout: Some(4),
            min_tree_fanout: Some(4),
            ..IndexConfig::default()
        },
    )
    .expect("valid config");

    // Q1: total Q1 revenue for dairy across all stores.
    let q1 = schema
        .query()
        .range("day", 1, 90)
        .expect("in domain")
        .eq("category", "dairy")
        .expect("known category")
        .build()
        .expect("valid query")
        .to_region(&shape)
        .expect("in shape");
    let (total, stats) = index.range_sum(&q1).expect("valid region");
    println!(
        "Q1 dairy, all stores: {total} ({} lookups for a {}-cell region)",
        stats.total_accesses(),
        q1.volume()
    );
    println!("  {}", index.explain_sum(&q1).expect("valid region"));

    // Q2: best and worst single day×store cell for produce in summer.
    let summer = schema
        .query()
        .range("day", 152, 243)
        .expect("in domain")
        .eq("category", "produce")
        .expect("known category")
        .build()
        .expect("valid query")
        .to_region(&shape)
        .expect("in shape");
    let (at_max, best, _) = index.range_max(&summer).expect("valid region");
    let (at_min, worst, _) = index.range_min(&summer).expect("valid region");
    let store_name = |i: usize| schema.attributes()[1].name.clone() + ":" + &i.to_string();
    println!(
        "summer produce: best cell {best} at day {} {}, worst {worst} at day {} {}",
        at_max[0] + 1,
        store_name(at_max[1]),
        at_min[0] + 1,
        store_name(at_min[1])
    );

    // Q3: 7-day rolling revenue for one store, all categories (ROLLING
    // SUM is a special case of range-sum, §1).
    let ps = PrefixSumCube::build(&sales);
    let nyc = schema.rank_category("store", "NYC-1").expect("known store");
    let base =
        olap_cube::array::Region::from_bounds(&[(0, 27), (nyc, nyc), (0, 7)]).expect("in bounds");
    let (weekly, _) = rolling_aggregate(&ps, &base, 0, 7).expect("window fits");
    println!(
        "NYC-1 7-day rolling revenue, first 4 weeks: {:?} …",
        &weekly[..4.min(weekly.len())]
    );

    // Q4: progressive answer on a space-constrained replica (§11).
    let bp = BlockedPrefixCube::build(&sales, 16).expect("valid block");
    let (bounds, s) = bp.range_sum_bounds(&q1).expect("valid region");
    println!(
        "progressive Q1 bounds from a 1/16³-space replica: [{}, {}] after {} lookups",
        bounds.lower,
        bounds.upper,
        s.total_accesses()
    );
    assert!(bounds.lower <= total && total <= bounds.upper);

    println!("retail dashboard OK");
}
