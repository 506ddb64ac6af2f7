//! Property tests for the array substrate: index arithmetic, region
//! algebra, and iteration order.

use olap_array::{CellRead, DenseArray, FlatRegionIter, Region, Shape};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..8, 1..=4).prop_map(|dims| Shape::new(&dims).unwrap())
}

fn arb_region_in(shape: &Shape) -> impl Strategy<Value = Region> {
    let dims = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&n| (0..n, 0..n).prop_map(|(a, b)| (a.min(b), a.max(b))))
        .collect();
    per_dim.prop_map(|bounds| Region::from_bounds(&bounds).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn flatten_unflatten_roundtrip(shape in arb_shape(), salt in 0usize..1000) {
        let flat = salt % shape.len();
        let idx = shape.unflatten(flat);
        prop_assert!(shape.contains(&idx));
        prop_assert_eq!(shape.flatten(&idx), flat);
    }

    #[test]
    fn flatten_is_monotone_in_each_coordinate(shape in arb_shape(), salt in 0usize..1000) {
        let flat = salt % shape.len();
        let idx = shape.unflatten(flat);
        for axis in 0..shape.ndim() {
            if idx[axis] + 1 < shape.dim(axis) {
                let mut next = idx.clone();
                next[axis] += 1;
                prop_assert!(shape.flatten(&next) > flat);
            }
        }
    }

    #[test]
    fn region_subtract_partitions(
        (shape, outer, hole) in arb_shape().prop_flat_map(|s| {
            let a = arb_region_in(&s);
            let b = arb_region_in(&s);
            (Just(s), a, b)
        })
    ) {
        let parts = outer.subtract(&hole);
        // Pairwise disjoint, inside outer, disjoint from the hole.
        for i in 0..parts.len() {
            prop_assert!(outer.contains_region(&parts[i]));
            if let Some(inter) = hole.intersect(&outer) {
                prop_assert!(!parts[i].overlaps(&inter));
            }
            for j in (i + 1)..parts.len() {
                prop_assert!(!parts[i].overlaps(&parts[j]));
            }
        }
        // Volume identity.
        let hole_vol = hole.intersect(&outer).map_or(0, |i| i.volume());
        let sum: usize = parts.iter().map(|p| p.volume()).sum();
        prop_assert_eq!(sum + hole_vol, outer.volume());
        prop_assert!(parts.len() <= 2 * shape.ndim());
        // Exact coverage against a point-membership oracle: each point of
        // `outer` lies in exactly one part iff it is outside the hole.
        for pt in outer.iter_indices() {
            let covering = parts.iter().filter(|p| p.contains(&pt)).count();
            prop_assert_eq!(covering, usize::from(!hole.contains(&pt)), "point {:?}", pt);
        }
    }

    /// `contains_region`, `overlaps` and `intersect` agree with a
    /// point-membership oracle: every point of `a` classified against `b`
    /// by `Region::contains`.
    #[test]
    fn predicates_match_point_membership(
        (a, b) in arb_shape().prop_flat_map(|s| {
            let a = arb_region_in(&s);
            let b = arb_region_in(&s);
            (a, b)
        })
    ) {
        let in_b: Vec<bool> = a.iter_indices().map(|p| b.contains(&p)).collect();
        prop_assert_eq!(b.contains_region(&a), in_b.iter().all(|&x| x));
        prop_assert_eq!(a.overlaps(&b), in_b.iter().any(|&x| x));
        let shared = in_b.iter().filter(|&&x| x).count();
        match a.intersect(&b) {
            Some(i) => {
                prop_assert!(i.iter_indices().all(|p| a.contains(&p) && b.contains(&p)));
                prop_assert_eq!(i.volume(), shared);
            }
            None => prop_assert_eq!(shared, 0),
        }
    }

    #[test]
    fn bounding_union_contains_both(
        (a, b) in arb_shape().prop_flat_map(|s| {
            let a = arb_region_in(&s);
            let b = arb_region_in(&s);
            (a, b)
        })
    ) {
        let u = a.bounding_union(&b);
        prop_assert!(u.contains_region(&a));
        prop_assert!(u.contains_region(&b));
        // Minimality per dimension.
        for j in 0..u.ndim() {
            prop_assert_eq!(u.range(j).lo(), a.range(j).lo().min(b.range(j).lo()));
            prop_assert_eq!(u.range(j).hi(), a.range(j).hi().max(b.range(j).hi()));
        }
    }

    #[test]
    fn intersect_commutes_and_shrinks(
        (a, b) in arb_shape().prop_flat_map(|s| {
            let a = arb_region_in(&s);
            let b = arb_region_in(&s);
            (a, b)
        })
    ) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains_region(&i));
            prop_assert!(b.contains_region(&i));
            prop_assert!(i.volume() <= a.volume().min(b.volume()));
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
    }

    #[test]
    fn flat_iteration_is_sorted_and_complete(
        (shape, region) in arb_shape().prop_flat_map(|s| {
            let r = arb_region_in(&s);
            (Just(s), r)
        })
    ) {
        let offs: Vec<usize> = FlatRegionIter::new(&shape, &region).collect();
        prop_assert_eq!(offs.len(), region.volume());
        // Strictly increasing (row-major order) and consistent with
        // index-space iteration.
        for w in offs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        let via_index: Vec<usize> =
            region.iter_indices().map(|i| shape.flatten(&i)).collect();
        prop_assert_eq!(offs, via_index);
    }

    #[test]
    fn scan_axis_matches_reference(
        (shape, axis, data) in arb_shape().prop_flat_map(|s| {
            let len = s.len();
            let d = s.ndim();
            (Just(s), 0..d, prop::collection::vec(-50i64..50, len))
        })
    ) {
        let mut a = DenseArray::from_vec(shape.clone(), data).unwrap();
        let reference = a.clone();
        a.scan_axis(axis, |x, y| x + y);
        // Every cell equals the prefix along `axis` of the original.
        for idx in shape.full_region().iter_indices() {
            let mut expect = 0i64;
            let mut probe = idx.clone();
            for x in 0..=idx[axis] {
                probe[axis] = x;
                expect += *reference.get(&probe);
            }
            prop_assert_eq!(*a.get(&idx), expect);
        }
    }

    /// `contract_blocks` against a naive per-block `fold_region`: d = 1..4,
    /// extents not divisible by `b`, and `b` from 1 (identity) past every
    /// extent (one block). The accumulator also hashes the `flat` offsets
    /// `fold` is handed, in order, so a wrong offset or a wrong visit order
    /// inside a block fails too.
    #[test]
    fn contract_blocks_matches_per_block_fold(
        (shape, b, data) in (1usize..=4).prop_flat_map(|d| {
            let max = [40usize, 20, 9, 6][d - 1];
            prop::collection::vec(1..=max, d)
        }).prop_flat_map(|dims| {
            let s = Shape::new(&dims).unwrap();
            let past_every_extent = dims.iter().max().unwrap() + 1;
            let b = prop_oneof![Just(1usize), Just(2), Just(3), Just(16), Just(past_every_extent)];
            let len = s.len();
            (Just(s), b, prop::collection::vec(-50i64..50, len))
        })
    ) {
        let a = DenseArray::from_vec(shape.clone(), data).unwrap();
        let step = |(sum, hash): (i64, u64), x: i64, flat: usize| {
            (sum + x, hash.wrapping_mul(31).wrapping_add(flat as u64 + 1))
        };
        let c = a
            .contract_blocks(b, (0i64, 0u64), |&acc, &x, flat| {
                assert_eq!(a.as_slice()[flat], x, "flat is the input cell's offset");
                step(acc, x, flat)
            })
            .unwrap();
        prop_assert_eq!(c.shape(), &shape.contract(b).unwrap());
        for block_idx in c.shape().full_region().iter_indices() {
            let bounds: Vec<(usize, usize)> = block_idx
                .iter()
                .zip(shape.dims())
                .map(|(&bi, &n)| (bi * b, ((bi + 1) * b - 1).min(n - 1)))
                .collect();
            let block = Region::from_bounds(&bounds).unwrap();
            let naive = a
                .region_offsets(&block)
                .fold((0i64, 0u64), |acc, off| step(acc, a.as_slice()[off], off));
            prop_assert_eq!(*c.get(&block_idx), naive);
            prop_assert_eq!(naive.0, a.fold_region(&block, 0i64, |s, &x| s + x));
        }
        prop_assert!(a.contract_blocks(0, 0i64, |s, &x, _| s + x).is_err());
    }
}
