//! Property-based tests for the prefix-sum algorithms: Theorem 1 and the
//! blocked algorithm agree with a naive scan on arbitrary cubes, and the
//! Theorem-2 batch update is equivalent to rebuilding from scratch.

use olap_array::{DenseArray, Region, Shape};
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use proptest::prelude::*;

/// A random cube of 1–4 dimensions with small extents, plus its contents.
fn arb_cube() -> impl Strategy<Value = DenseArray<i64>> {
    prop::collection::vec(2usize..7, 1..=4).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-100i64..100, len)
            .prop_map(move |data| DenseArray::from_vec(Shape::new(&dims).unwrap(), data).unwrap())
    })
}

/// A random region inside the cube's shape (two draws per dimension).
fn arb_region(shape: &Shape) -> impl Strategy<Value = Region> {
    let dims = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&n| (0..n, 0..n).prop_map(|(a, b)| (a.min(b), a.max(b))))
        .collect();
    per_dim.prop_map(|bounds| Region::from_bounds(&bounds).unwrap())
}

fn naive(a: &DenseArray<i64>, q: &Region) -> i64 {
    a.fold_region(q, 0i64, |s, &x| s + x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn theorem1_matches_naive(
        (a, q) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q)
        })
    ) {
        let ps = PrefixSumCube::build(&a);
        prop_assert_eq!(ps.range_sum(&q).unwrap(), naive(&a, &q));
    }

    #[test]
    fn blocked_matches_naive_under_every_policy(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 1usize..6)
        })
    ) {
        let bp = BlockedPrefixCube::build(&a, b).unwrap();
        let expected = naive(&a, &q);
        for policy in [
            BoundaryPolicy::Auto,
            BoundaryPolicy::AlwaysDirect,
            BoundaryPolicy::AlwaysComplement,
        ] {
            let (v, _) = bp.range_sum_with_policy(&a, &q, policy).unwrap();
            prop_assert_eq!(v, expected, "b={} policy={:?}", b, policy);
        }
    }

    #[test]
    fn decomposition_partitions_the_query(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 1usize..6)
        })
    ) {
        let bp = BlockedPrefixCube::build(&a, b).unwrap();
        let parts = bp.decompose(&q).unwrap();
        // Disjoint…
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                prop_assert!(!parts[i].region.overlaps(&parts[j].region));
            }
        }
        // …and covering: volumes add to the query volume, every part inside.
        let vol: usize = parts.iter().map(|p| p.region.volume()).sum();
        prop_assert_eq!(vol, q.volume());
        for p in &parts {
            prop_assert!(q.contains_region(&p.region));
            prop_assert!(p.superblock.contains_region(&p.region));
        }
        let d = q.ndim();
        prop_assert!(parts.len() <= 3usize.pow(d as u32));
    }

    #[test]
    fn cell_reconstruction_is_exact(a in arb_cube()) {
        let ps = PrefixSumCube::build(&a);
        // §3.4: A can be discarded. Check a sample of cells.
        for (i, idx) in a.shape().full_region().iter_indices().enumerate() {
            if i % 7 == 0 {
                prop_assert_eq!(ps.cell(&idx).unwrap(), *a.get(&idx));
            }
        }
    }

    #[test]
    fn batch_update_equals_rebuild(
        (a, raw_updates) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (
                    dims.iter()
                        .map(|&n| 0..n)
                        .collect::<Vec<_>>(),
                    -50i64..50,
                ),
                0..8,
            );
            (Just(a), upd)
        })
    ) {
        let updates: Vec<CellUpdate<i64>> = raw_updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, *v))
            .collect();
        let mut ps = PrefixSumCube::build(&a);
        let regions = batch::apply_batch(&mut ps, &updates).unwrap();
        // Theorem 2 bound (duplicates only reduce the count).
        prop_assert!(
            regions as f64 <= batch::max_regions(updates.len(), a.shape().ndim()),
            "{} regions for k={} d={}", regions, updates.len(), a.shape().ndim()
        );
        let mut a2 = a.clone();
        for u in &updates {
            *a2.get_mut(&u.index) += u.delta;
        }
        let rebuilt = PrefixSumCube::build(&a2);
        prop_assert_eq!(ps.prefix_array().as_slice(), rebuilt.prefix_array().as_slice());
    }

    #[test]
    fn blocked_batch_update_equals_rebuild(
        (a, raw_updates, b) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (
                    dims.iter()
                        .map(|&n| 0..n)
                        .collect::<Vec<_>>(),
                    -50i64..50,
                ),
                0..8,
            );
            (Just(a), upd, 1usize..5)
        })
    ) {
        let updates: Vec<CellUpdate<i64>> = raw_updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, *v))
            .collect();
        let mut bp = BlockedPrefixCube::build(&a, b).unwrap();
        batch::apply_batch_blocked(&mut bp, &updates).unwrap();
        let mut a2 = a.clone();
        for u in &updates {
            *a2.get_mut(&u.index) += u.delta;
        }
        let rebuilt = BlockedPrefixCube::build(&a2, b).unwrap();
        prop_assert_eq!(bp.packed_array().as_slice(), rebuilt.packed_array().as_slice());
        // And queries against the updated cube are consistent.
        let q = a2.shape().full_region();
        prop_assert_eq!(bp.range_sum(&a2, &q).unwrap(), naive(&a2, &q));
    }

    #[test]
    fn update_plans_are_disjoint_and_complete(
        (dims, raw_updates) in prop::collection::vec(2usize..6, 1..=3).prop_flat_map(|dims| {
            let upd = prop::collection::vec(
                (
                    dims.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                    -50i64..50,
                ),
                1..6,
            );
            (Just(dims), upd)
        })
    ) {
        let shape = Shape::new(&dims).unwrap();
        let op = olap_aggregate::SumOp::<i64>::new();
        let updates: Vec<CellUpdate<i64>> = raw_updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, *v))
            .collect();
        let plan = batch::plan_regions(&shape, &op, &updates).unwrap();
        // Disjoint regions…
        for i in 0..plan.len() {
            for j in (i + 1)..plan.len() {
                prop_assert!(!plan[i].0.overlaps(&plan[j].0));
            }
        }
        // …whose combined deltas equal, at each P element, the sum of the
        // deltas of the updates dominating it (Property 1 of §5.1).
        for y in shape.full_region().iter_indices() {
            let expected: i64 = updates
                .iter()
                .filter(|u| u.index.iter().zip(&y).all(|(&x, &yy)| x <= yy))
                .map(|u| u.delta)
                .sum();
            let got: i64 = plan
                .iter()
                .filter(|(r, _)| r.contains(&y))
                .map(|(_, v)| *v)
                .sum();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn run_wise_apply_equals_the_offset_iterator_apply(
        // d = 1..5; extents start at 1 so the innermost axis is sometimes
        // a single column (every run is one cell long).
        (a, raw_updates) in prop::collection::vec(1usize..5, 1..=5).prop_flat_map(|dims| {
            let len: usize = dims.iter().product();
            let upd = prop::collection::vec(
                (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), -50i64..50),
                0..7,
            );
            let cube = prop::collection::vec(-100i64..100, len).prop_map(move |data| {
                DenseArray::from_vec(Shape::new(&dims).unwrap(), data).unwrap()
            });
            (cube, upd)
        })
    ) {
        let updates: Vec<CellUpdate<i64>> = raw_updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, *v))
            .collect();
        let mut ps = PrefixSumCube::build(&a);
        // The reference: one flat offset at a time over each planned region.
        let mut by_offset = ps.prefix_array().clone();
        let op = olap_aggregate::SumOp::<i64>::new();
        for (region, delta) in batch::plan_regions(a.shape(), &op, &updates).unwrap() {
            for off in by_offset.region_offsets(&region) {
                *by_offset.get_flat_mut(off) += delta;
            }
        }
        batch::apply_batch(&mut ps, &updates).unwrap();
        prop_assert_eq!(ps.prefix_array().as_slice(), by_offset.as_slice());
    }
}
