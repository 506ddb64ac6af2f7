//! Edge cases across the whole stack: degenerate shapes, extreme block
//! sizes, float pathologies, and hostile inputs.

use olap_cube::aggregate::NaturalOrder;
use olap_cube::array::{ArrayError, DenseArray, Region, Shape};
use olap_cube::engine::{CubeIndex, IndexConfig, PrefixChoice};
use olap_cube::prefix_sum::{batch, BlockedPrefixCube, PrefixSumCube};
use olap_cube::query::QueryCtx;
use olap_cube::range_max::{MaxTree, NaturalMaxTree};
use olap_cube::sparse::{SparseCube, SparseRangeSum};
use olap_cube::tree_sum::SumTreeCube;

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
