//! Edge cases across the whole stack: degenerate shapes, extreme block
//! sizes, float pathologies, and hostile inputs.

use olap_cube::aggregate::NaturalOrder;
use olap_cube::array::{mix, ArrayError, DenseArray, PagedArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, QueryBudget, RangeEngine,
    SemanticCache, SumTreeEngine,
};
use olap_cube::prefix_sum::{batch, BlockedPrefixCube, PrefixSumCube};
use olap_cube::query::{QueryCtx, RangeQuery};
use olap_cube::range_max::{MaxTree, NaturalMaxTree};
use olap_cube::server::{CubeServer, ServeConfig};
use olap_cube::sparse::{SparseCube, SparseRangeSum};
use olap_cube::tree_sum::SumTreeCube;
use olap_cube::workload::uniform_regions;
use std::sync::Arc;

#[test]
fn single_cell_cube_everywhere() {
    let a = DenseArray::from_vec(Shape::new(&[1]).unwrap(), vec![42i64]).unwrap();
    let q = Region::from_bounds(&[(0, 0)]).unwrap();
    assert_eq!(PrefixSumCube::build(&a).range_sum(&q).unwrap(), 42);
    let bp = BlockedPrefixCube::build(&a, 5).unwrap();
    assert_eq!(bp.range_sum(&a, &q).unwrap(), 42);
    let t = NaturalMaxTree::for_values(&a, 2).unwrap();
    assert_eq!(t.range_max(&a, &q).unwrap(), (vec![0], 42));
    let st = SumTreeCube::build(&a, 2).unwrap();
    assert_eq!(st.range_sum(&a, &q).unwrap(), 42);
}

#[test]
fn one_by_n_ribbon_cubes() {
    // Dimensions of extent 1 exercise the degenerate-collapse paths.
    let a = DenseArray::from_fn(Shape::new(&[1, 17, 1]).unwrap(), |i| i[1] as i64);
    let ps = PrefixSumCube::build(&a);
    let bp = BlockedPrefixCube::build(&a, 4).unwrap();
    let t = NaturalMaxTree::for_values(&a, 3).unwrap();
    for lo in 0..17 {
        for hi in lo..17 {
            let q = Region::from_bounds(&[(0, 0), (lo, hi), (0, 0)]).unwrap();
            let expected: i64 = (lo..=hi).map(|x| x as i64).sum();
            assert_eq!(ps.range_sum(&q).unwrap(), expected);
            assert_eq!(bp.range_sum(&a, &q).unwrap(), expected);
            assert_eq!(t.range_max(&a, &q).unwrap().1, hi as i64);
        }
    }
}

#[test]
fn block_size_larger_than_every_dimension() {
    let a = DenseArray::from_fn(Shape::new(&[5, 7]).unwrap(), |i| (i[0] * 7 + i[1]) as i64);
    let bp = BlockedPrefixCube::build(&a, 1000).unwrap();
    assert_eq!(bp.packed_array().len(), 1);
    for q in [
        Region::from_bounds(&[(0, 4), (0, 6)]).unwrap(),
        Region::from_bounds(&[(1, 3), (2, 5)]).unwrap(),
        Region::from_bounds(&[(4, 4), (6, 6)]).unwrap(),
    ] {
        let naive = a.fold_region(&q, 0i64, |s, &x| s + x);
        assert_eq!(bp.range_sum(&a, &q).unwrap(), naive, "{q}");
    }
}

#[test]
fn extreme_values_do_not_wrap_in_practice() {
    // Large magnitudes close to the i64 range of real aggregates.
    let a = DenseArray::from_vec(
        Shape::new(&[2, 2]).unwrap(),
        vec![1_000_000_007i64, -999_999_937, 3, -11],
    )
    .unwrap();
    let ps = PrefixSumCube::build(&a);
    let q = a.shape().full_region();
    assert_eq!(
        ps.range_sum(&q).unwrap(),
        1_000_000_007 - 999_999_937 + 3 - 11
    );
}

#[test]
fn unsigned_count_wraps_back_through_the_subtracting_corners() {
    // §1's COUNT over a 4×4 cube of ones: Theorem 1 subtracts corners 1
    // and 2 of Sum(3:3, 3:3) before it adds corner 3, so the `u64`
    // partial result dips below zero and must wrap back to 1.
    let a = DenseArray::filled(Shape::new(&[4, 4]).unwrap(), 1u64);
    let q = Region::from_bounds(&[(3, 3), (3, 3)]).unwrap();
    assert_eq!(PrefixSumCube::build(&a).range_sum(&q).unwrap(), 1);
    let bp = BlockedPrefixCube::build(&a, 2).unwrap();
    assert_eq!(bp.range_sum(&a, &q).unwrap(), 1);
    let t = SumTreeCube::build(&a, 2).unwrap();
    assert_eq!(t.range_sum(&a, &q).unwrap(), 1);
}

#[test]
fn prefix_sums_past_i64_max_still_answer_exactly() {
    // P[1] = 5 + i64::MAX wraps; Sum(1:1) = P[1] − P[0] wraps back.
    let a = DenseArray::from_vec(Shape::new(&[2]).unwrap(), vec![5i64, i64::MAX]).unwrap();
    let q = Region::from_bounds(&[(1, 1)]).unwrap();
    assert_eq!(PrefixSumCube::build(&a).range_sum(&q).unwrap(), i64::MAX);
}

/// The exact-sum contract against an `i128` oracle: the true sum when it
/// fits in `i64`, the true sum mod 2^64 otherwise.
fn oracle_sum(a: &DenseArray<i64>, region: &Region) -> i64 {
    a.fold_region(region, 0i128, |s, &x| s + x as i128) as i64
}

/// Every region of `a` whose extent on each axis is either the full axis
/// or one cell, paired with its query.
fn probe_regions(a: &DenseArray<i64>) -> Vec<(Region, RangeQuery)> {
    let dims = a.shape().dims().to_vec();
    let mut out = Vec::new();
    for lo in 0..dims[0] {
        for hi in lo..dims[0] {
            for cols in [(0, dims[1] - 1), (2, 2), (0, 2)] {
                let r = Region::from_bounds(&[(lo, hi), cols]).unwrap();
                out.push((r.clone(), RangeQuery::from_region(&r)));
            }
        }
    }
    out
}

#[test]
fn served_sums_wrap_across_shards_to_the_true_total() {
    // One row per shard: the slabs sum to i64::MAX, 10 and -20, so the
    // total fits in i64 while the running fold over the partials does not.
    let a = DenseArray::from_vec(
        Shape::new(&[3, 4]).unwrap(),
        vec![i64::MAX, 0, 0, 0, 4, 0, 6, 0, -20, 0, 0, 0],
    )
    .unwrap();
    let config = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let server = CubeServer::build(&a, config).unwrap();
    let all = Region::from_bounds(&[(0, 2), (0, 3)]).unwrap();
    assert_eq!(oracle_sum(&a, &all), i64::MAX - 10);
    for (region, query) in probe_regions(&a) {
        let got = server.range_sum(&query).unwrap().value;
        assert_eq!(got, oracle_sum(&a, &region), "{region:?}");
    }
}

#[test]
fn a_batch_from_i64_min_to_i64_max_answers_through_router_and_server() {
    let a = DenseArray::from_fn(Shape::new(&[4, 4]).unwrap(), |i| {
        if i == [1, 2] {
            i64::MIN
        } else {
            (i[0] * 4 + i[1]) as i64
        }
    });
    let batch = [(vec![1, 2], i64::MAX)];
    let mut after = a.clone();
    *after.get_mut(&[1, 2]) = i64::MAX;

    let base: Arc<PagedArray<i64>> = a.clone().into();
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(
            CubeIndex::build(Arc::clone(&base), IndexConfig::default()).unwrap(),
        ))
        .with_engine(Box::new(NaiveEngine::new(base)));
    router.apply_updates(&batch).unwrap();
    let server = CubeServer::build(&a, ServeConfig::default()).unwrap();
    server.apply_updates(&batch).unwrap();

    for (region, query) in probe_regions(&after) {
        let truth = oracle_sum(&after, &region);
        let routed = router.range_sum(&query).unwrap();
        assert_eq!(routed.value(), Some(&truth), "router {region:?}");
        assert_eq!(
            server.range_sum(&query).unwrap().value,
            truth,
            "server {region:?}"
        );
    }
    let whole = RangeQuery::from_region(&Region::from_bounds(&[(0, 3), (0, 3)]).unwrap());
    assert_eq!(router.range_max(&whole).unwrap().value(), Some(&i64::MAX));
    assert_eq!(server.range_max(&whole).unwrap().value, i64::MAX);
}

/// Cells within 1000 of `±2^62`, seeded; `mixed` picks each sign at
/// random, otherwise every cell is positive and most sums wrap.
fn cube_near_2_62(dims: &[usize], seed: u64, mixed: bool) -> DenseArray<i64> {
    let mut i = 0u64;
    DenseArray::from_fn(Shape::new(dims).unwrap(), |_| {
        i += 1;
        let r = mix(seed ^ i);
        let v = (1i64 << 62) - (r % 1000) as i64;
        if mixed && r >> 63 == 1 {
            -v
        } else {
            v
        }
    })
}

#[test]
fn exact_sums_near_2_62_match_the_wrapped_oracle_through_every_stack() {
    for (d, dims) in [vec![40], vec![12, 9], vec![6, 5, 4], vec![4, 3, 3, 4]]
        .into_iter()
        .enumerate()
    {
        for mixed in [false, true] {
            let a = cube_near_2_62(&dims, d as u64, mixed);
            let base: Arc<PagedArray<i64>> = a.clone().into();
            let basic = CubeIndex::build(Arc::clone(&base), IndexConfig::default()).unwrap();
            let blocked = CubeIndex::build(
                Arc::clone(&base),
                IndexConfig {
                    prefix: PrefixChoice::Blocked(2),
                    ..IndexConfig::default()
                },
            )
            .unwrap();
            let naive = NaiveEngine::new(Arc::clone(&base));
            let tree = SumTreeEngine::build(Arc::clone(&base), 2).unwrap();
            let router = AdaptiveRouter::new()
                .with_engine(Box::new(
                    CubeIndex::build(Arc::clone(&base), IndexConfig::default()).unwrap(),
                ))
                .with_engine(Box::new(NaiveEngine::new(Arc::clone(&base))));
            let cache = SemanticCache::new(router, 64);
            let config = ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            };
            let server = CubeServer::build(&a, config).unwrap();
            let engines: [(&str, &dyn RangeEngine<i64>); 4] = [
                ("basic", &basic),
                ("blocked", &blocked),
                ("naive", &naive),
                ("tree", &tree),
            ];
            let whole =
                Region::from_bounds(&dims.iter().map(|&n| (0, n - 1)).collect::<Vec<_>>()).unwrap();
            let mut regions = uniform_regions(a.shape(), 24, d as u64);
            regions.push(whole);
            for region in regions {
                let truth = oracle_sum(&a, &region);
                let query = RangeQuery::from_region(&region);
                for (label, engine) in engines {
                    let got = engine.range_sum(&query).unwrap();
                    assert_eq!(got.value(), Some(&truth), "{label} d={} {region:?}", d + 1);
                }
                // Twice through the cache: a miss, then a hit.
                for _ in 0..2 {
                    let got = cache.range_sum(&query).unwrap();
                    assert_eq!(got.value(), Some(&truth), "cache d={} {region:?}", d + 1);
                }
                let served = server.range_sum(&query).unwrap();
                assert_eq!(served.value, truth, "server d={} {region:?}", d + 1);
            }
        }
    }
}

#[test]
fn degraded_sums_over_wrapped_block_totals_bracket_the_true_sum() {
    // About 2^61 in the left half and -2^61 in the right: every 8×8 block
    // of the degrade tier totals about ±2^67, which wraps in its anchors.
    let a = DenseArray::from_fn(Shape::new(&[16, 16]).unwrap(), |i| {
        let v = (1i64 << 61) + (i[0] * 16 + i[1]) as i64;
        if i[1] < 8 {
            v
        } else {
            -v
        }
    });
    let config = ServeConfig {
        shards: 2,
        // A 2-d sum reads up to 4 cells of P; 2 makes most sums degrade.
        budget: QueryBudget::with_max_accesses(2).degrade(),
        ..ServeConfig::default()
    };
    let server = CubeServer::build(&a, config).unwrap();
    // Three cells inside one block: every true sum fits in i64
    // while every block total wraps. The naive scan would read as many
    // cells as the region has, `P` four, so each read exhausts the budget.
    for (rows, cols) in [
        ((1, 1), (3, 5)),
        ((5, 5), (1, 3)),
        ((5, 7), (7, 7)),
        ((10, 10), (9, 11)),
        ((9, 11), (14, 14)),
        ((12, 14), (9, 9)),
        ((2, 4), (6, 6)),
    ] {
        let region = Region::from_bounds(&[rows, cols]).unwrap();
        let answer = server.range_sum(&RangeQuery::from_region(&region)).unwrap();
        let truth = a.fold_region(&region, 0i128, |s, &x| s + i128::from(x));
        let truth = i64::try_from(truth).unwrap();
        assert!(answer.is_degraded(), "{region:?}");
        assert!(
            answer.contains(truth),
            "{region:?}: {truth} outside {answer:?}"
        );
    }
    // A part whose blocks hold both signs cannot tell a wrapped total from
    // an unwrapped one, and its interval would leave i64: the tier
    // declines and the exact error stands — typed, not a panic.
    let row = Region::from_bounds(&[(5, 5), (1, 15)]).unwrap();
    let err = server
        .range_sum(&RangeQuery::from_region(&row))
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
}

#[test]
fn nan_and_infinity_in_max_trees() {
    // total_cmp puts NaN above +inf; the tree must stay consistent.
    let a = DenseArray::from_vec(
        Shape::new(&[6]).unwrap(),
        vec![
            1.0f64,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            f64::INFINITY,
            -5.0,
        ],
    )
    .unwrap();
    let t = MaxTree::build(&a, 2, NaturalOrder::<f64>::new()).unwrap();
    t.check_invariants(&a).unwrap();
    let q = Region::from_bounds(&[(0, 5)]).unwrap();
    let (idx, v) = t.range_max(&a, &q).unwrap();
    assert_eq!(idx, vec![2]);
    assert!(v.is_nan());
    // Excluding the NaN: +inf wins.
    let q = Region::from_bounds(&[(3, 5)]).unwrap();
    assert_eq!(t.range_max(&a, &q).unwrap().1, f64::INFINITY);
}

#[test]
fn empty_update_batches_and_identity_deltas() {
    let a = DenseArray::from_fn(Shape::new(&[4, 4]).unwrap(), |i| (i[0] + i[1]) as i64);
    let mut ps = PrefixSumCube::build(&a);
    let before = ps.prefix_array().as_slice().to_vec();
    // Zero-delta updates leave P unchanged.
    batch::apply_batch(&mut ps, &[batch::CellUpdate::new(&[2, 2], 0)]).unwrap();
    assert_eq!(ps.prefix_array().as_slice(), before.as_slice());
}

#[test]
fn shape_validation_reports_the_exact_problem() {
    assert_eq!(Shape::new(&[]), Err(ArrayError::EmptyShape));
    assert_eq!(Shape::new(&[4, 0]), Err(ArrayError::ZeroDim { axis: 1 }));
    let s = Shape::new(&[3, 3]).unwrap();
    assert_eq!(
        s.check_region(&Region::from_bounds(&[(0, 3), (0, 2)]).unwrap()),
        Err(ArrayError::OutOfBounds {
            axis: 0,
            index: 3,
            extent: 3
        })
    );
}

#[test]
fn sparse_engine_with_one_point() {
    let shape = Shape::new(&[100, 100]).unwrap();
    let cube = SparseCube::new(shape, vec![(vec![37, 42], 7i64)]).unwrap();
    let engine = SparseRangeSum::build(&cube).unwrap();
    assert_eq!(
        engine
            .range_sum(&Region::from_bounds(&[(0, 99), (0, 99)]).unwrap())
            .unwrap(),
        7
    );
    assert_eq!(
        engine
            .range_sum(&Region::from_bounds(&[(0, 36), (0, 99)]).unwrap())
            .unwrap(),
        0
    );
}

#[test]
fn many_duplicate_updates_last_wins() {
    let a = DenseArray::filled(Shape::new(&[4, 4]).unwrap(), 0i64);
    let mut idx = CubeIndex::build(
        a,
        IndexConfig {
            prefix: PrefixChoice::Basic,
            max_tree_fanout: Some(2),
            min_tree_fanout: None,
        },
    )
    .unwrap();
    let updates: Vec<(Vec<usize>, i64)> = (0..20).map(|k| (vec![1, 1], k as i64)).collect();
    idx.apply_updates_in_place(&updates).unwrap();
    assert_eq!(*idx.cube().get(&[1, 1]), 19);
    let q = idx.shape().full_region();
    assert_eq!(idx.range_sum(&q).unwrap().0, 19);
    assert_eq!(idx.range_max(&q).unwrap().1, 19);
}

#[test]
fn high_dimensional_small_cube() {
    // d = 6 exercises the 2^d corner machinery (64 corners).
    let dims = vec![2usize; 6];
    let a = DenseArray::from_fn(Shape::new(&dims).unwrap(), |i| {
        i.iter().sum::<usize>() as i64
    });
    let ps = PrefixSumCube::build(&a);
    let q = Region::from_bounds(&[(1, 1); 6]).unwrap();
    let (v, stats) = QueryCtx::measure(|ctx| ps.read(&q, ctx)).unwrap();
    assert_eq!(v, 6);
    assert_eq!(stats.p_cells, 64);
    let full = a.shape().full_region();
    let expected: i64 = a.as_slice().iter().sum();
    assert_eq!(ps.range_sum(&full).unwrap(), expected);
}

#[test]
fn batched_updates_at_every_corner_of_the_cube() {
    let a = DenseArray::filled(Shape::new(&[3, 3, 3]).unwrap(), 1i64);
    let mut ps = PrefixSumCube::build(&a);
    // Update all 8 corners at once.
    let corners: Vec<batch::CellUpdate<i64>> = [0usize, 2]
        .iter()
        .flat_map(|&x| {
            [0usize, 2].iter().flat_map(move |&y| {
                [0usize, 2]
                    .iter()
                    .map(move |&z| batch::CellUpdate::new(&[x, y, z], 10))
            })
        })
        .collect();
    batch::apply_batch(&mut ps, &corners).unwrap();
    let mut a2 = a.clone();
    for c in &corners {
        *a2.get_mut(&c.index) += 10;
    }
    assert_eq!(
        ps.prefix_array().as_slice(),
        PrefixSumCube::build(&a2).prefix_array().as_slice()
    );
}
