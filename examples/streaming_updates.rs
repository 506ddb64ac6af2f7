//! The §5/§7 OLAP update model: queries all day, one combined batch of
//! updates at midnight.
//!
//! Compares the Theorem-2 batched prefix-sum update against applying the
//! same updates one at a time, and shows the max tree absorbing the batch
//! via the tag protocol.
//!
//! ```text
//! cargo run --example streaming_updates
//! ```

use olap_cube::array::Shape;
use olap_cube::prefix_sum::batch::{self, CellUpdate};
use olap_cube::prefix_sum::PrefixSumCube;
use olap_cube::query::QueryCtx;
use olap_cube::range_max::{NaturalMaxTree, PointUpdate};
use olap_cube::workload::{uniform_cube, uniform_regions};

fn main() {
    let shape = Shape::new(&[64, 64, 16]).expect("valid shape");
    let mut a = uniform_cube(shape.clone(), 1000, 7);
    let mut ps = PrefixSumCube::build(&a);
    let mut tree = NaturalMaxTree::for_values(&a, 4).expect("fanout ≥ 2");

    // Simulate 5 "days": daytime queries, then a nightly update batch.
    for day in 1..=5u64 {
        // Daytime: answer some ad-hoc range queries.
        let queries = uniform_regions(&shape, 50, day);
        let mut total_accesses = 0u64;
        for q in &queries {
            let (_, s) = QueryCtx::measure(|ctx| ps.read(q, ctx)).expect("valid query");
            total_accesses += s.total_accesses();
        }
        println!(
            "day {day}: answered {} queries with {} total accesses ({}/query; naive would need {} cells/query on average)",
            queries.len(),
            total_accesses,
            total_accesses / queries.len() as u64,
            queries.iter().map(|q| q.volume()).sum::<usize>() / queries.len(),
        );

        // Midnight: k updates cumulated during the day.
        let k = 8;
        let updates: Vec<CellUpdate<i64>> = (0..k)
            .map(|i| {
                let idx = vec![
                    ((day * 13 + i * 7) % 64) as usize,
                    ((day * 29 + i * 3) % 64) as usize,
                    ((day * 5 + i) % 16) as usize,
                ];
                CellUpdate::new(&idx, (day as i64 * 10 + i as i64) - 25)
            })
            .collect();

        // Theorem-2 bound vs actual region count.
        let regions = batch::apply_batch(&mut ps, &updates).expect("valid updates");
        println!(
            "  nightly batch: k={k} updates → {regions} update regions (Theorem 2 bound: {:.0})",
            batch::max_regions(k as usize, 3)
        );

        // The max tree takes (index, new-value) points; reuse the deltas as
        // absolute assignments relative to the current cube.
        let points: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|u| PointUpdate::new(&u.index, *a.get(&u.index) + u.delta))
            .collect();
        // Keep the cube in sync for the prefix structure's ground truth.
        let stats = tree.batch_update(&mut a, &points).expect("valid updates");
        println!(
            "  max tree: absorbed the batch touching {} nodes (height {})",
            stats.total_accesses(),
            tree.height()
        );
        tree.check_invariants(&a).expect("tree stays consistent");

        // Verify consistency: prefix-sum results equal a fresh rebuild.
        let fresh = PrefixSumCube::build(&a);
        assert_eq!(
            ps.prefix_array().as_slice(),
            fresh.prefix_array().as_slice(),
            "incremental P must equal rebuilt P"
        );
    }

    println!("streaming updates OK");
}
