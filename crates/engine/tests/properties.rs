//! Property tests for the facade: every configuration answers like the
//! naive baselines before and after arbitrary update batches, and the
//! planned index answers every query shape correctly.

use olap_array::{DenseArray, Region, Shape};
use olap_engine::{
    ApproxEngine, CubeIndex, EngineOp, IndexConfig, PlannedIndex, PrefixChoice, RangeEngine,
    SumTreeEngine,
};
use olap_planner::PrefixSumChoice;
use olap_query::{CuboidId, DimSelection, RangeQuery};
use proptest::prelude::*;

fn arb_cube() -> impl Strategy<Value = DenseArray<i64>> {
    prop::collection::vec(2usize..7, 2..=3).prop_flat_map(|dims| {
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
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn index_stays_correct_through_updates(
        (a, q, updates) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (
                    dims.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                    -100i64..100,
                ),
                0..6,
            );
            (Just(a), q, upd)
        }),
        blocked in 1usize..5,
    ) {
        let configs = [
            IndexConfig { prefix: PrefixChoice::Basic, max_tree_fanout: Some(2), min_tree_fanout: None },
            IndexConfig {
                prefix: PrefixChoice::Blocked(blocked),
                max_tree_fanout: Some(3),
                min_tree_fanout: Some(2),
            },
        ];
        let batch: Vec<(Vec<usize>, i64)> =
            updates.iter().map(|(i, v)| (i.clone(), *v)).collect();
        let mut shadow = a.clone();
        for (i, v) in &batch {
            *shadow.get_mut(i) = *v;
        }
        let expected = shadow.fold_region(&q, 0i64, |acc, &x| acc + x);
        for cfg in configs {
            let mut idx = CubeIndex::build(a.clone(), cfg).unwrap();
            idx.apply_updates_in_place(&batch).unwrap();
            let (s, _) = idx.range_sum(&q).unwrap();
            prop_assert_eq!(s, expected);
            let (_, m, _) = idx.range_max(&q).unwrap();
            prop_assert_eq!(m, shadow.fold_region(&q, i64::MIN, |acc, &x| acc.max(x)));
        }
        // The §8 tree-sum baseline, derived through the engine trait.
        let tree = SumTreeEngine::build(a.clone(), 2).unwrap().apply_updates(&batch).unwrap().engine;
        let routed = tree.range_sum(&RangeQuery::from_region(&q)).unwrap();
        prop_assert_eq!(routed.value(), Some(&expected));
    }

    #[test]
    fn planned_index_answers_every_cuboid_shape(
        (a, sel_mask, bounds) in arb_cube().prop_flat_map(|a| {
            let d = a.shape().ndim();
            let dims = a.shape().dims().to_vec();
            let bounds: Vec<_> = dims
                .iter()
                .map(|&n| (0..n, 0..n).prop_map(|(x, y)| (x.min(y), x.max(y))))
                .collect();
            (Just(a), 0u32..(1 << d), bounds)
        }),
    ) {
        let d = a.shape().ndim();
        // Structures: the full cube blocked, and a couple of sub-cuboids.
        let choices = [
            PrefixSumChoice { cuboid: CuboidId::full(d), block: 2 },
            PrefixSumChoice { cuboid: CuboidId::from_dims(&[0]), block: 1 },
            PrefixSumChoice { cuboid: CuboidId::from_dims(&[1]), block: 1 },
        ];
        let idx = PlannedIndex::build(a.clone(), &choices).unwrap();
        // Build a query with ranges on the masked dims, all elsewhere.
        let sels: Vec<DimSelection> = (0..d)
            .map(|j| {
                if (sel_mask >> j) & 1 == 1 {
                    let (lo, hi) = bounds[j];
                    DimSelection::span(lo, hi).unwrap()
                } else {
                    DimSelection::All
                }
            })
            .collect();
        let q = RangeQuery::new(sels).unwrap();
        let region = q.to_region(a.shape()).unwrap();
        let expected = a.fold_region(&region, 0i64, |s, &x| s + x);
        let (v, _) = idx.range_sum(&q).unwrap();
        prop_assert_eq!(v, expected);
        // Some structure always applies (the full cube is an ancestor of
        // every cuboid).
        prop_assert!(idx.route(&q).is_some());
    }

    /// The degradation tier's core soundness property: for any cube, any
    /// region, and any block size, the estimate's interval contains the
    /// sequential oracle — for sums and both extrema — and `b = 1` makes
    /// every query exact.
    #[test]
    fn approx_estimates_always_bracket_the_oracle(
        (a, q) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q)
        }),
        b in 1usize..5,
    ) {
        let e = ApproxEngine::build(a.clone(), b).unwrap();
        let truth = a.fold_region(&q, 0i64, |s, &x| s + x);
        let (est, stats) = e.estimate_sum(&q).unwrap();
        prop_assert!(est.contains(truth), "{} outside {}", truth, est);
        prop_assert!(est.lower <= est.value && est.value <= est.upper);
        prop_assert_eq!(stats.a_cells, 0, "sums answer from anchors alone");
        if b == 1 {
            prop_assert!(est.is_exact());
            prop_assert_eq!(est.value, truth);
            prop_assert_eq!(est.fraction_exact, 1.0);
        }
        let t_max = a.fold_region(&q, i64::MIN, |s, &x| s.max(x));
        let t_min = a.fold_region(&q, i64::MAX, |s, &x| s.min(x));
        let (emax, _) = e.estimate_extremum(&q, EngineOp::Max).unwrap();
        let (emin, _) = e.estimate_extremum(&q, EngineOp::Min).unwrap();
        prop_assert!(emax.contains(t_max), "max {} outside {}", t_max, emax);
        prop_assert!(emin.contains(t_min), "min {} outside {}", t_min, emin);
        if b == 1 {
            prop_assert!(emax.is_exact() && emin.is_exact());
        }
    }

    /// Block-anchor-aligned queries degrade losslessly: zero error bound
    /// and a value bit-identical to the exact blocked `CubeIndex`.
    #[test]
    fn aligned_approx_answers_are_exact_and_bit_identical(
        (a, q) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q)
        }),
        b in 1usize..5,
    ) {
        // Snap the arbitrary region outward to the anchor grid.
        let bounds: Vec<(usize, usize)> = q
            .ranges()
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let n = a.shape().dim(j);
                ((r.lo() / b) * b, (((r.hi() / b) + 1) * b - 1).min(n - 1))
            })
            .collect();
        let aligned = Region::from_bounds(&bounds).unwrap();
        let e = ApproxEngine::build(a.clone(), b).unwrap();
        let (est, _) = e.estimate_sum(&aligned).unwrap();
        prop_assert_eq!(est.error_bound, 0);
        prop_assert!(est.is_exact());
        prop_assert_eq!(est.fraction_exact, 1.0);
        let cfg = IndexConfig {
            prefix: PrefixChoice::Blocked(b),
            ..IndexConfig::default()
        };
        let idx = CubeIndex::build(a.clone(), cfg).unwrap();
        let (exact, _) = idx.range_sum(&aligned).unwrap();
        prop_assert_eq!(est.value, exact, "aligned estimate must be bit-identical");
    }
}
