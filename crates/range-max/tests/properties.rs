//! Property-based tests: the branch-and-bound search equals a naive scan
//! under every option combination, and batch updates preserve every node
//! invariant.

use olap_aggregate::{NaturalOrder, ReverseOrder, TotalOrder};
use olap_array::{DenseArray, Region, Shape};
use olap_query::QueryCtx;
use olap_range_max::{MaxTree, NaturalMaxTree, NaturalMinTree, PointUpdate, SearchOptions};
use proptest::prelude::*;
use std::ops::{Range, RangeInclusive};

fn arb_cube() -> impl Strategy<Value = DenseArray<i64>> {
    arb_cube_in(1..=3, -1000..1000)
}

/// A cube of `ndim` axes, each 2..8 long, with values drawn from `values`.
fn arb_cube_in(
    ndim: RangeInclusive<usize>,
    values: Range<i64>,
) -> impl Strategy<Value = DenseArray<i64>> {
    prop::collection::vec(2usize..8, ndim).prop_flat_map(move |dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(values.clone(), len)
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

fn naive_max(a: &DenseArray<i64>, q: &Region) -> i64 {
    a.fold_region(q, i64::MIN, |m, &x| m.max(x))
}

/// `batch_update_onto` over separate pre- and post-batch cubes must
/// leave the same tree and report the same statistics as the in-place
/// `batch_update`, and must write neither cube.
fn assert_split_equals_in_place<O: TotalOrder<Value = i64> + Clone>(
    order: O,
    pre: &DenseArray<i64>,
    b: usize,
    updates: &[PointUpdate<i64>],
) {
    let mut in_place_cube = pre.clone();
    let mut in_place = MaxTree::build(pre, b, order.clone()).unwrap();
    let in_place_stats = in_place.batch_update(&mut in_place_cube, updates).unwrap();

    let mut post = pre.clone();
    for u in updates {
        *post.get_mut(&u.index) = u.value; // last value wins
    }
    assert_eq!(post, in_place_cube);
    let (pre_before, post_before) = (pre.clone(), post.clone());
    let mut split = MaxTree::build(pre, b, order).unwrap();
    let split_stats = split.batch_update_onto(pre, &post, updates).unwrap();
    assert_eq!(split.export_levels(), in_place.export_levels());
    assert_eq!(split_stats, in_place_stats);
    assert_eq!((pre, &post), (&pre_before, &post_before));
    split.check_invariants(&post).unwrap();
}

/// A tie-heavy cube (values 0..4) of 1–4 axes whose extents the fanout,
/// drawn from 2..=5, does not divide.
fn arb_tie_heavy() -> impl Strategy<Value = (DenseArray<i64>, usize)> {
    (prop::collection::vec(2usize..8, 1..=4), 2usize..6).prop_flat_map(|(dims, b)| {
        let dims: Vec<usize> = dims
            .into_iter()
            .map(|n| if n % b == 0 { n + 1 } else { n })
            .collect();
        let len: usize = dims.iter().product();
        let cube = prop::collection::vec(0i64..4, len)
            .prop_map(move |data| DenseArray::from_vec(Shape::new(&dims).unwrap(), data).unwrap());
        (cube, Just(b))
    })
}

/// The shape of `level` of a tree over `shape` with fanout `b`.
fn level_shape(shape: &Shape, b: usize, level: usize) -> Shape {
    let side = b.pow(level as u32);
    let dims: Vec<usize> = shape.dims().iter().map(|&n| n.div_ceil(side)).collect();
    Shape::new(&dims).unwrap()
}

/// Asserts that every node of `t` holds the per-node argmax of its
/// children: their stored arg-maxes (cells of `A` at level 1) compared
/// in row-major order, a child replacing the best only when strictly
/// greater under the tree's order.
fn assert_levels_are_per_node_argmax<O: TotalOrder<Value = i64>>(
    t: &MaxTree<O>,
    a: &DenseArray<i64>,
) {
    let (shape, b) = (a.shape(), t.fanout());
    for level in 1..=t.height() {
        let child_shape = level_shape(shape, b, level - 1);
        let child_max = |c: &[usize]| match level {
            1 => shape.flatten(c),
            _ => t.node_max_index(level - 1, c),
        };
        for node in level_shape(shape, b, level).full_region().iter_indices() {
            let children = node
                .iter()
                .zip(child_shape.dims())
                .map(|(&p, &n)| (p * b, (p * b + b - 1).min(n - 1)));
            let children = Region::from_bounds(&children.collect::<Vec<_>>()).unwrap();
            let mut best = None;
            for c in children.iter_indices() {
                let cand = child_max(&c);
                if best.is_none_or(|at| t.order().gt(a.get_flat(cand), a.get_flat(at))) {
                    best = Some(cand);
                }
            }
            assert_eq!(
                Some(t.node_max_index(level, &node)),
                best,
                "level {level} node {node:?} of {:?}, b = {b}",
                shape.dims()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn one_pass_level_build_equals_a_per_node_argmax_build((a, b) in arb_tie_heavy()) {
        assert_levels_are_per_node_argmax(&NaturalMaxTree::for_values(&a, b).unwrap(), &a);
        assert_levels_are_per_node_argmax(&NaturalMinTree::for_min_values(&a, b).unwrap(), &a);
    }

    #[test]
    fn section7_updates_agree_with_a_fresh_build_on_tie_heavy_cubes(
        ((a, b), updates, min) in arb_tie_heavy().prop_flat_map(|(a, b)| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (dims.iter().map(|&n| 0..n).collect::<Vec<_>>(), 0i64..4),
                1..10,
            );
            (Just((a, b)), upd, 0usize..2)
        })
    ) {
        // §7 keeps a stored maximum that an equal value joins, where a
        // fresh build takes the first of equal maxima; so the two agree
        // on every node's value, and both satisfy every node invariant.
        let updates: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|(idx, v)| PointUpdate::new(idx, *v))
            .collect();
        let mut post = a.clone();
        let (updated, fresh) = if min == 1 {
            let mut t = NaturalMinTree::for_min_values(&a, b).unwrap();
            t.batch_update(&mut post, &updates).unwrap();
            t.check_invariants(&post).unwrap();
            (t.export_levels(), NaturalMinTree::for_min_values(&post, b).unwrap().export_levels())
        } else {
            let mut t = NaturalMaxTree::for_values(&a, b).unwrap();
            t.batch_update(&mut post, &updates).unwrap();
            t.check_invariants(&post).unwrap();
            (t.export_levels(), NaturalMaxTree::for_values(&post, b).unwrap().export_levels())
        };
        prop_assert_eq!(updated.len(), fresh.len());
        for (level, ((dims, got), (_, want))) in updated.iter().zip(&fresh).enumerate() {
            for (node, (&g, &w)) in got.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    post.get_flat(g),
                    post.get_flat(w),
                    "level {} {:?} node {}",
                    level + 1,
                    dims,
                    node
                );
            }
        }
    }

    #[test]
    fn search_matches_naive(
        // Besides the default cubes: 4-d ones, and tie-heavy ones whose
        // values 0..4 make equal maxima in most regions.
        (a, q, b) in prop_oneof![
            arb_cube(),
            arb_cube_in(4..=4, -1000..1000),
            arb_cube_in(1..=4, 0..4),
        ]
        .prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 2usize..5)
        })
    ) {
        let t = NaturalMaxTree::for_values(&a, b).unwrap();
        let expected = naive_max(&a, &q);
        for bb in [true, false] {
            for lcs in [true, false] {
                for sort in [true, false] {
                    let opts = SearchOptions {
                        lowest_covering_start: lcs,
                        branch_and_bound: bb,
                        sort_boundary: sort,
                    };
                    let ((idx, v), _) = QueryCtx::measure(|ctx| t.read(&a, &q, opts, ctx)).unwrap();
                    prop_assert_eq!(v, expected);
                    prop_assert!(q.contains(&idx));
                    prop_assert_eq!(*a.get(&idx), expected);
                }
            }
        }
    }

    #[test]
    fn search_never_beats_volume(
        (a, q, b) in arb_cube().prop_flat_map(|a| {
            let q = arb_region(a.shape());
            (Just(a), q, 2usize..5)
        })
    ) {
        // Sanity on the cost model: the search touches at most a constant
        // factor of the query volume plus the path down the tree.
        let t = NaturalMaxTree::for_values(&a, b).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
        let budget = (q.volume() as u64 + 2) * 4 + 8 * (t.height() as u64 + 1);
        prop_assert!(
            stats.total_accesses() <= budget,
            "{} accesses for volume {}", stats.total_accesses(), q.volume()
        );
    }

    #[test]
    fn one_dim_worst_case_is_logarithmic_in_r(
        seed in 0u64..50,
    ) {
        // §6.1.3: the 1-d search accesses O(b·log_b r) nodes. Check the
        // concrete bound 3·b·(log_b r + 2) over random data and ranges.
        let b = 3usize;
        let n = 2187; // 3^7
        let a = DenseArray::from_fn(Shape::new(&[n]).unwrap(), |i| {
            ((i[0] as u64).wrapping_mul(2654435761).wrapping_add(seed) % 100_000) as i64
        });
        let t = NaturalMaxTree::for_values(&a, b).unwrap();
        for k in 0..20u64 {
            let r = 2usize + ((seed * 31 + k * 97) as usize % (n / 2));
            let lo = ((seed * 13 + k * 41) as usize) % (n - r);
            let q = Region::from_bounds(&[(lo, lo + r - 1)]).unwrap();
            let (_, stats) = QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx)).unwrap();
            let budget = 3.0 * b as f64 * ((r as f64).log(b as f64) + 2.0);
            prop_assert!(
                (stats.total_accesses() as f64) <= budget,
                "r={} accesses={} budget={:.0}",
                r,
                stats.total_accesses(),
                budget
            );
        }
    }

    #[test]
    fn batch_update_preserves_invariants(
        (a, b, updates) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (
                    dims.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                    -2000i64..2000,
                ),
                0..10,
            );
            (Just(a), 2usize..4, upd)
        })
    ) {
        let mut a = a;
        let mut t = NaturalMaxTree::for_values(&a, b).unwrap();
        let updates: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|(idx, v)| PointUpdate::new(idx, *v))
            .collect();
        t.batch_update(&mut a, &updates).unwrap();
        prop_assert!(t.check_invariants(&a).is_ok(), "{:?}", t.check_invariants(&a));
        // And a full-cube query returns the global maximum.
        let q = a.shape().full_region();
        let (_, v) = t.range_max(&a, &q).unwrap();
        prop_assert_eq!(v, naive_max(&a, &q));
    }

    #[test]
    fn incremental_equals_rebuild_semantics(
        (a, b, updates) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            let upd = prop::collection::vec(
                (
                    dims.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                    -2000i64..2000,
                ),
                1..6,
            );
            (Just(a), 2usize..4, upd)
        })
    ) {
        // The incrementally-updated tree answers every query like a tree
        // rebuilt from scratch (indices may differ on ties; values match).
        let mut a = a;
        let mut t = NaturalMaxTree::for_values(&a, b).unwrap();
        let updates: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|(idx, v)| PointUpdate::new(idx, *v))
            .collect();
        t.batch_update(&mut a, &updates).unwrap();
        let fresh = NaturalMaxTree::for_values(&a, b).unwrap();
        for level in 1..=t.height() {
            let dims: Vec<usize> = a
                .shape()
                .dims()
                .iter()
                .map(|&n| n.div_ceil(b.pow(level as u32)))
                .collect();
            for coords in Shape::new(&dims).unwrap().full_region().iter_indices() {
                let vi = *a.get_flat(t.node_max_index(level, &coords));
                let vf = *a.get_flat(fresh.node_max_index(level, &coords));
                prop_assert_eq!(vi, vf, "level {} node {:?}", level, coords);
            }
        }
    }

    #[test]
    fn split_update_equals_in_place_update_for_max_and_min_trees(
        (a, b, updates, drop_max) in arb_cube().prop_flat_map(|a| {
            let dims = a.shape().dims().to_vec();
            // A narrow value range makes ties, repeated indices and
            // no-op sets (new = old) common.
            let upd = prop::collection::vec(
                (
                    dims.iter().map(|&n| 0..n).collect::<Vec<_>>(),
                    -3i64..3,
                ),
                0..10,
            );
            (Just(a), 2usize..4, upd, 0usize..2)
        })
    ) {
        let mut updates: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|(idx, v)| PointUpdate::new(idx, *v))
            .collect();
        if drop_max == 1 {
            // Decrease the current global maximum: forces tag = −1 rescans
            // against the post-batch cube at every level.
            let q = a.shape().full_region();
            let (at, _) = NaturalMaxTree::for_values(&a, b).unwrap().range_max(&a, &q).unwrap();
            updates.push(PointUpdate::new(&at, -5000));
        }
        assert_split_equals_in_place(NaturalOrder::<i64>::new(), &a, b, &updates);
        assert_split_equals_in_place(ReverseOrder::new(NaturalOrder::<i64>::new()), &a, b, &updates);
    }
}
