//! Property-based tests for the prefix-sum algorithms: Theorem 1 and the
//! blocked algorithm agree with a naive scan on arbitrary cubes, and the
//! Theorem-2 batch update is equivalent to rebuilding from scratch.

use olap_aggregate::AbelianGroup;
use olap_array::{ArrayError, BudgetMeter, DenseArray, Interrupt, QueryBudget, Region, Shape};
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::{
    BlockedPrefixCube, BlockedPrefixSum, BoundaryMethod, BoundaryPolicy, PrefixSumCube,
};
use olap_query::{AccessStats, QueryCtx};
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

/// Cell values whose sums depend on the order they are added in: `1e16`
/// absorbs a following `1.0`, so any reassociation of a fold shows in
/// the answer's bits.
const REASSOCIATING: [f64; 6] = [1e16, -1e16, 1.0, 0.25, 3.0, -7.5];

/// A block size from {1, 2, 3, 5, 16} and a cube of 1–4 dimensions whose
/// extents that block size does not divide (unless it is 1), with each
/// cell an index into [`REASSOCIATING`].
fn arb_ragged_cube() -> impl Strategy<Value = (usize, Shape, Vec<usize>)> {
    (1usize..=4, 0usize..5).prop_flat_map(|(d, pick)| {
        let b = [1, 2, 3, 5, 16][pick];
        let max = [0, 60, 40, 12, 7][d];
        prop::collection::vec(2usize..max, d).prop_flat_map(move |dims| {
            let dims: Vec<usize> = dims
                .into_iter()
                .map(|n| if b > 1 && n % b == 0 { n + 1 } else { n })
                .collect();
            let shape = Shape::new(&dims).unwrap();
            let cells = prop::collection::vec(0usize..REASSOCIATING.len(), shape.len());
            (Just(b), Just(shape), cells)
        })
    })
}

/// Theorem 1 over the packed anchors of `bp` for a block-aligned region,
/// one `anchor_prefix` read per corner.
fn anchor_sum<G: AbelianGroup>(
    bp: &BlockedPrefixSum<G>,
    r: &Region,
    stats: &mut AccessStats,
) -> G::Value {
    let (op, b) = (bp.op(), bp.block_size());
    let mut acc = op.identity();
    'corners: for mask in 0u64..(1 << r.ndim()) {
        let mut corner = Vec::new();
        for (j, range) in r.ranges().iter().enumerate() {
            if (mask >> j) & 1 == 1 {
                if range.lo() == 0 {
                    continue 'corners;
                }
                corner.push(range.lo() / b - 1);
            } else {
                corner.push(range.hi() / b);
            }
        }
        stats.read_p(1);
        stats.step(1);
        let term = bp.anchor_prefix(&corner);
        acc = if mask.count_ones() % 2 == 0 {
            op.combine(&acc, term)
        } else {
            op.uncombine(&acc, term)
        };
    }
    acc
}

/// The §4.2 query the blocked kernel's metered `read` must reproduce: the
/// parts of `decompose` in order, each read from anchors and `fold_region`
/// (a Complement part subtracts `RegionPart::complement`'s holes in
/// order), with the meter checked before each part and charged after it.
/// Pushes each completed part's accesses onto `part_accesses`.
fn reference<G: AbelianGroup>(
    bp: &BlockedPrefixSum<G>,
    a: &DenseArray<G::Value>,
    q: &Region,
    policy: BoundaryPolicy,
    meter: &BudgetMeter,
    part_accesses: &mut Vec<u64>,
) -> Result<(G::Value, AccessStats), ArrayError> {
    let op = bp.op();
    let fold = |r: &Region, stats: &mut AccessStats| {
        stats.read_a(r.volume() as u64);
        stats.step(r.volume() as u64);
        a.fold_region(r, op.identity(), |s, x| op.combine(&s, x))
    };
    meter.check()?;
    let mut acc = op.identity();
    let mut stats = AccessStats::new();
    for part in bp.decompose(q)? {
        meter.check()?;
        let mut part_stats = AccessStats::new();
        let method = match policy {
            BoundaryPolicy::Auto => part.preferred_method(q.ndim()),
            BoundaryPolicy::AlwaysDirect => BoundaryMethod::Direct,
            BoundaryPolicy::AlwaysComplement => BoundaryMethod::Complement,
        };
        let v = match (part.internal, method) {
            (true, _) => anchor_sum(bp, &part.region, &mut part_stats),
            (false, BoundaryMethod::Direct) => fold(&part.region, &mut part_stats),
            (false, BoundaryMethod::Complement) => {
                let mut v = anchor_sum(bp, &part.superblock, &mut part_stats);
                for hole in part.complement() {
                    v = op.uncombine(&v, &fold(&hole, &mut part_stats));
                }
                v
            }
        };
        part_stats.step(1);
        meter.charge(part_stats.total_accesses())?;
        part_accesses.push(part_stats.total_accesses());
        acc = op.combine(&acc, &v);
        stats.merge(&part_stats);
    }
    Ok((acc, stats))
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
            let (v, _) = QueryCtx::measure(|ctx| bp.read(&a, &q, policy, ctx)).unwrap();
            prop_assert_eq!(v, expected, "b={} policy={:?}", b, policy);
        }
    }

    #[test]
    fn blocked_kernel_matches_the_decompose_reference(
        ((b, shape, cells), q) in arb_ragged_cube().prop_flat_map(|(b, shape, cells)| {
            let q = arb_region(&shape);
            (Just((b, shape, cells)), q)
        })
    ) {
        let ints = cells.iter().map(|&c| c as i64 * 37 - 50).collect();
        let ints = DenseArray::from_vec(shape.clone(), ints).unwrap();
        let floats = cells.iter().map(|&c| REASSOCIATING[c]).collect();
        let floats = DenseArray::from_vec(shape, floats).unwrap();
        let bp = BlockedPrefixCube::build(&ints, b).unwrap();
        let fp = BlockedPrefixCube::build(&floats, b).unwrap();
        let unlimited = BudgetMeter::unlimited();
        for policy in [
            BoundaryPolicy::Auto,
            BoundaryPolicy::AlwaysDirect,
            BoundaryPolicy::AlwaysComplement,
        ] {
            let at = format!("b={b} {q} {policy:?}");
            let mut parts = Vec::new();
            let want = reference(&bp, &ints, &q, policy, &unlimited, &mut parts).unwrap();
            let got = QueryCtx::measure(|ctx| bp.read(&ints, &q, policy, ctx)).unwrap();
            prop_assert_eq!(got, want, "{}", &at);
            let (v, stats) = QueryCtx::measure(|ctx| fp.read(&floats, &q, policy, ctx)).unwrap();
            let (want_v, want_stats) =
                reference(&fp, &floats, &q, policy, &unlimited, &mut Vec::new()).unwrap();
            prop_assert_eq!(v.to_bits(), want_v.to_bits(), "{}: {} vs {}", &at, v, want_v);
            prop_assert_eq!(stats, want_stats, "{}", &at);
            // A cap at each part's cumulative total, and one below it,
            // cuts both off at the same part with the same spend.
            let mut cumulative = 0;
            for accesses in parts {
                cumulative += accesses;
                for cap in [cumulative - 1, cumulative] {
                    let capped = || QueryBudget::unlimited().max_accesses(cap).start(None);
                    let (got_meter, want_meter) = (capped(), capped());
                    let mut ctx = QueryCtx::new(&got_meter);
                    let got = bp.read(&ints, &q, policy, &mut ctx).map(|v| (v, ctx.stats));
                    let want = reference(&bp, &ints, &q, policy, &want_meter, &mut Vec::new());
                    let exhausted = |r: &Result<_, ArrayError>| {
                        matches!(r, Err(ArrayError::Interrupted(Interrupt::BudgetExhausted { .. })))
                    };
                    prop_assert_eq!(got.is_ok(), want.is_ok(), "{} cap {}", &at, cap);
                    prop_assert_eq!(exhausted(&got), exhausted(&want), "{} cap {}", &at, cap);
                    prop_assert_eq!(got_meter.spent(), want_meter.spent(), "{} cap {}", &at, cap);
                    if let (Ok(got), Ok(want)) = (got, want) {
                        prop_assert_eq!(got, want, "{} cap {}", &at, cap);
                    }
                }
            }
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
