//! Sparse cubes (§10): dense-region discovery, region-local prefix sums
//! behind an R*-tree, and branch-and-bound range-max over an R-tree.
//!
//! ```text
//! cargo run --example sparse_cube
//! ```

use olap_array::Range;
use olap_cube::array::{Region, Shape};
use olap_cube::query::QueryCtx;
use olap_cube::sparse::{Sparse1dPrefixSum, SparseCube, SparseRangeMax, SparseRangeSum};
use olap_cube::workload::clustered_sparse_cube;

fn main() {
    // A 500×500 cube with 4 dense 20×20 clusters plus background noise —
    // the "dense sub-clusters" shape the paper calls canonical (§1).
    let shape = Shape::new(&[500, 500]).expect("valid shape");
    let points = clustered_sparse_cube(&shape, 4, 20, 400, 100, 99);
    let cube = SparseCube::new(shape.clone(), points).expect("valid points");
    println!(
        "sparse cube: {} points in {} cells (density {:.2}%)",
        cube.len(),
        shape.len(),
        cube.density() * 100.0
    );

    // §10.2: dense regions + R*-tree + per-region prefix sums.
    let sum_engine = SparseRangeSum::build(&cube).expect("valid cube");
    println!(
        "found {} dense regions ({} outliers); prefix storage {} cells vs {} if densified",
        sum_engine.region_count(),
        sum_engine.outlier_count(),
        sum_engine.prefix_cells(),
        shape.len()
    );

    let queries = [
        Region::from_bounds(&[(0, 499), (0, 499)]).expect("in bounds"),
        Region::from_bounds(&[(100, 299), (100, 299)]).expect("in bounds"),
        Region::from_bounds(&[(0, 49), (450, 499)]).expect("in bounds"),
    ];
    for q in &queries {
        let (sum, stats) = QueryCtx::measure(|ctx| sum_engine.read(q, ctx)).expect("valid query");
        let naive: i64 = cube.points_in(q).map(|(_, v)| *v).sum();
        assert_eq!(sum, naive);
        println!(
            "Sum{q} = {sum}  (R*-tree nodes: {}, prefix cells: {})",
            stats.tree_nodes, stats.p_cells
        );
    }

    // §10.3: range-max via a max-annotated R-tree with branch-and-bound.
    let max_engine = SparseRangeMax::build(&cube);
    for q in &queries {
        let (result, stats) =
            QueryCtx::measure(|ctx| max_engine.read(q, ctx)).expect("valid query");
        match result {
            Some((at, v)) => println!(
                "Max{q} = {v} at {at:?}  ({} nodes visited)",
                stats.tree_nodes
            ),
            None => println!("Max{q}: region holds no points"),
        }
    }

    // §10.1: the one-dimensional case over a B+-tree of sparse prefixes.
    let n = 1_000_000;
    let pts: Vec<(usize, i64)> = (0..2000).map(|i| (i * 499, (i % 97) as i64)).collect();
    let one_d = Sparse1dPrefixSum::build(n, &pts).expect("valid points");
    let (v, stats) =
        QueryCtx::measure(|ctx| one_d.read(Range::new(250_000, 750_000).expect("ordered"), ctx))
            .expect("in domain");
    println!(
        "1-d sparse: Sum(250000:750000) = {v} with {} B+-tree node visits over {} stored prefixes",
        stats.tree_nodes,
        one_d.len()
    );

    println!("sparse cube example OK");
}
