//! Property tests: the tree-sum baseline agrees with a naive scan for
//! arbitrary cubes, fanouts, and queries, with and without the complement
//! optimisation, and its cost never exceeds the naive cost by more than
//! the tree-walk overhead.

use olap_array::{DenseArray, Region, Shape};
use olap_query::QueryCtx;
use olap_tree_sum::SumTreeCube;
use proptest::prelude::*;

fn arb_cube() -> impl Strategy<Value = DenseArray<i64>> {
    prop::collection::vec(2usize..9, 1..=3).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-100i64..100, len)
            .prop_map(move |data| DenseArray::from_vec(Shape::new(&dims).unwrap(), data).unwrap())
    })
}

fn arb_region(shape: &Shape) -> impl Strategy<Value = Region> {
    let dims = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&n| (0..n, 0..n).prop_map(|(a, b)| (a.min(b), a.max(b))))
        .collect();
    per_dim.prop_map(|bounds| Region::from_bounds(&bounds).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matches_naive_under_both_modes(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 2usize..5)
        })
    ) {
        let t = SumTreeCube::build(&a, b).unwrap();
        let expected = a.fold_region(&q, 0i64, |s, &x| s + x);
        for complement in [true, false] {
            let (v, _) = QueryCtx::measure(|ctx| t.read(&a, &q, complement, ctx)).unwrap();
            prop_assert_eq!(v, expected, "b={} complement={}", b, complement);
        }
    }

    #[test]
    fn access_cost_is_bounded(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 2usize..5)
        })
    ) {
        // The direct tree walk never reads more leaves than the query
        // volume, and node overhead is bounded by the tree size.
        let t = SumTreeCube::build(&a, b).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, false, ctx)).unwrap();
        prop_assert!(stats.a_cells <= q.volume() as u64);
        prop_assert!(stats.tree_nodes <= (t.node_count() + 1) as u64);
    }

    #[test]
    fn complement_mode_never_reads_more_leaves_than_node_region(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 2usize..4)
        })
    ) {
        let t = SumTreeCube::build(&a, b).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, true, ctx)).unwrap();
        prop_assert!(stats.a_cells <= a.len() as u64);
    }

    #[test]
    fn apply_deltas_equals_build_on_the_updated_cube(
        (a, b, deltas) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            // Repeated cells and zero deltas are both in range.
            let deltas = prop::collection::vec(
                (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), -50i64..50),
                0..8,
            );
            (Just(a), 2usize..5, deltas)
        })
    ) {
        let mut t = SumTreeCube::build(&a, b).unwrap();
        let written = t
            .apply_deltas(deltas.iter().map(|(idx, v)| (idx.as_slice(), v)))
            .unwrap();
        // One node per level per delta: the leaf-to-root path, nothing else.
        prop_assert_eq!(written, (deltas.len() * t.height()) as u64);
        let mut updated = a.clone();
        for (idx, v) in &deltas {
            *updated.get_mut(idx) += v;
        }
        let fresh = SumTreeCube::build(&updated, b).unwrap();
        prop_assert_eq!(t.height(), fresh.height());
        let mut level_shape = a.shape().clone();
        for level in 1..=fresh.height() {
            level_shape = level_shape.contract(b).unwrap();
            for coords in level_shape.full_region().iter_indices() {
                prop_assert_eq!(
                    t.node_sum(level, &coords),
                    fresh.node_sum(level, &coords),
                    "level {} node {:?}", level, coords
                );
                prop_assert!(fresh.node_sum(level, &coords).is_some());
            }
        }
        // An out-of-bounds delta is rejected before anything is written.
        let mut bad = deltas.clone();
        bad.push((a.shape().dims().to_vec(), 1));
        prop_assert!(t.apply_deltas(bad.iter().map(|(idx, v)| (idx.as_slice(), v))).is_err());
        let level1 = a.shape().contract(b).unwrap();
        for coords in level1.full_region().iter_indices() {
            prop_assert_eq!(t.node_sum(1, &coords), fresh.node_sum(1, &coords));
        }
    }
}
