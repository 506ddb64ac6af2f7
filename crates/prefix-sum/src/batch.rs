//! Batch updates to prefix-sum arrays (§5).
//!
//! In a typical OLAP environment updates are cumulated (say, for a day) and
//! applied together. A single update of `A[x]` affects every
//! `P[y], y ≥ x` — `O(N)` in the worst case — so the paper's algorithm
//! groups the affected elements of `P` of `k` queued updates into at most
//! `∏_{j=0}^{d−1}(k+j)/d!` disjoint rectangular regions (Theorem 2), each
//! carrying one combined value-to-add.

use crate::{BlockedPrefixSum, PrefixSumArray};
use olap_aggregate::AbelianGroup;
use olap_array::{ArrayError, DenseArray, Range, Region, Shape};

/// A queued update: `(location of an A element, value-to-add)`.
///
/// The value-to-add is *new value ⊖ previous value*; the paper updates the
/// `A` element right away and queues this delta for the combined update of
/// `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellUpdate<V> {
    /// The updated cell of `A`.
    pub index: Vec<usize>,
    /// The value-to-add under the structure's operator.
    pub delta: V,
}

impl<V> CellUpdate<V> {
    /// Convenience constructor.
    pub fn new(index: &[usize], delta: V) -> Self {
        CellUpdate {
            index: index.to_vec(),
            delta,
        }
    }
}

/// The Theorem-2 bound on the number of update regions:
/// `∏_{j=0}^{d−1}(k+j) / d!`.
pub fn max_regions(k: usize, d: usize) -> f64 {
    let mut v = 1.0f64;
    for j in 0..d {
        // Add in f64: `k + j` in usize overflows (and panics under
        // `overflow-checks`) for k near usize::MAX, while the bound
        // itself is only ever consumed as a float.
        // analyzer: allow(panic-site, reason = "operands are f64 here, not indices; float addition cannot overflow")
        v *= k as f64 + j as f64;
        v /= (j + 1) as f64;
    }
    v
}

/// Plans the combined update: partitions the affected elements of `P` into
/// disjoint rectangular regions, each in a single update-class (Properties
/// 1 and 2 of §5.1), and returns `(region, combined value-to-add)` pairs.
///
/// # Errors
/// Rejects updates whose index does not match `shape`.
pub fn plan_regions<G: AbelianGroup>(
    shape: &Shape,
    op: &G,
    updates: &[CellUpdate<G::Value>],
) -> Result<Vec<(Region, G::Value)>, ArrayError> {
    for u in updates {
        shape.check_index(&u.index)?;
    }
    let entries: Vec<(&[usize], G::Value)> = updates
        .iter()
        .map(|u| (u.index.as_slice(), u.delta.clone()))
        .collect();
    let mut out = Vec::new();
    recurse(shape.dims(), op, entries, &mut Vec::new(), &mut out);
    // Every batch path (basic and blocked) plans here, so this is the one
    // choke point for the regions-vs-Theorem-2 accounting.
    if let Some(ctx) = olap_telemetry::current() {
        let reg = ctx.registry();
        reg.counter("olap_batch_plans_total", &[]).inc(1);
        reg.counter("olap_batch_updates_total", &[])
            .inc(updates.len() as u64);
        reg.counter("olap_batch_regions_total", &[])
            .inc(out.len() as u64);
        if !updates.is_empty() {
            let bound = max_regions(updates.len(), shape.dims().len());
            if bound.is_finite() && bound > 0.0 {
                // Planned regions as a share of the worst-case bound, in
                // permille: 1000 = the bound was hit, lower = coalescing won.
                let permille = (out.len() as f64 / bound * 1000.0).min(u64::MAX as f64) as u64;
                reg.histogram("olap_batch_region_bound_permille", &[])
                    .observe(permille);
            }
        }
    }
    Ok(out)
}

/// Recursion of §5.1: `dims` are the extents of the remaining dimensions,
/// `entries` the updates projected onto them (first coordinate =
/// `dims[0]`'s axis), `prefix` the ranges fixed by enclosing levels.
fn recurse<G: AbelianGroup>(
    dims: &[usize],
    op: &G,
    mut entries: Vec<(&[usize], G::Value)>,
    prefix: &mut Vec<Range>,
    out: &mut Vec<(Region, G::Value)>,
) {
    let n = dims[0];
    // Sort by the first coordinate and coalesce groups sharing it — the
    // "combining effect" of Figure 7(c).
    entries.sort_by_key(|(idx, _)| idx[0]);
    if dims.len() == 1 {
        // Base case: k+1 adjoining regions; region 0 (before the first
        // update index) is unaffected. V_i = v_1 ⊕ … ⊕ v_i accumulates.
        let mut acc: Option<G::Value> = None;
        let mut i = 0;
        while i < entries.len() {
            let u = entries[i].0[0];
            let mut v = match acc {
                Some(ref a) => a.clone(),
                None => op.identity(),
            };
            while i < entries.len() && entries[i].0[0] == u {
                v = op.combine(&v, &entries[i].1);
                i += 1;
            }
            let next = if i < entries.len() {
                entries[i].0[0]
            } else {
                n
            };
            acc = Some(v.clone());
            prefix.push(Range::trusted(u, next - 1));
            out.push((Region::trusted(prefix.clone()), v));
            prefix.pop();
        }
        return;
    }
    // d > 1: partition the first dimension's index space into slabs at each
    // distinct update coordinate; slab i is affected by the first i update
    // groups, so recurse on their (d−1)-dimensional projections.
    let mut group_starts: Vec<usize> = Vec::new();
    for (pos, (idx, _)) in entries.iter().enumerate() {
        if pos == 0 || idx[0] != entries[pos - 1].0[0] {
            group_starts.push(pos);
        }
    }
    for (g, &start) in group_starts.iter().enumerate() {
        let u = entries[start].0[0];
        let next = group_starts
            .get(g + 1)
            .map(|&s| entries[s].0[0])
            .unwrap_or(n);
        let slab = Range::trusted(u, next - 1);
        // All updates with first coordinate ≤ u, projected one dimension
        // down. Duplicate projections are coalesced inside the recursion.
        let end = group_starts.get(g + 1).copied().unwrap_or(entries.len());
        let projected: Vec<(&[usize], G::Value)> = entries[..end]
            .iter()
            .map(|(idx, v)| (&idx[1..], v.clone()))
            .collect();
        prefix.push(slab);
        recurse(&dims[1..], op, projected, prefix, out);
        prefix.pop();
    }
}

/// Applies `k` queued updates to a basic prefix-sum array (`b = 1`, §5.1),
/// returning the number of update regions used.
///
/// # Errors
/// Rejects out-of-shape update indices.
pub fn apply_batch<G: AbelianGroup>(
    ps: &mut PrefixSumArray<G>,
    updates: &[CellUpdate<G::Value>],
) -> Result<usize, ArrayError> {
    let op = ps.op().clone();
    let plan = plan_regions(ps.shape(), &op, updates)?;
    apply_plan_seq(ps.prefix_array_mut(), &op, &plan);
    Ok(plan.len())
}

/// The region-application kernel: combines each planned region's delta
/// into every covered cell of `p`, one contiguous innermost-axis slice at
/// a time (a straight-line loop over `row[lo..=hi]` the compiler can
/// vectorise). The plan's regions are pairwise disjoint (Theorem 2), so
/// each cell is written at most once.
fn apply_plan_seq<G: AbelianGroup>(
    p: &mut DenseArray<G::Value>,
    op: &G,
    plan: &[(Region, G::Value)],
) {
    for (region, delta) in plan {
        p.for_each_run_mut(region, |row| {
            for cell in row {
                *cell = op.combine(cell, delta);
            }
        });
    }
}

/// Applies one update the naive way: combines the delta into every
/// `P[y], y ≥ x` (the `O(N)` baseline the batch algorithm improves on).
///
/// # Errors
/// Rejects out-of-shape update indices.
pub fn apply_single_naive<G: AbelianGroup>(
    ps: &mut PrefixSumArray<G>,
    update: &CellUpdate<G::Value>,
) -> Result<(), ArrayError> {
    ps.shape().check_index(&update.index)?;
    let ranges: Vec<Range> = update
        .index
        .iter()
        .zip(ps.shape().dims())
        .map(|(&x, &n)| Range::trusted(x, n - 1))
        .collect();
    let region = Region::new(ranges)?;
    let op = ps.op().clone();
    let p = ps.prefix_array_mut();
    for off in p.region_offsets(&region) {
        let cur = p.get_flat(off);
        *p.get_flat_mut(off) = op.combine(cur, &update.delta);
    }
    Ok(())
}

/// Applies `k` queued updates to a blocked prefix-sum array (§5.2): the
/// update locations are first contracted to block coordinates (one
/// combined value-to-add per touched block), then the basic algorithm runs
/// on the contracted index space. Returns the region count.
///
/// # Errors
/// Rejects out-of-shape update indices.
pub fn apply_batch_blocked<G: AbelianGroup>(
    bp: &mut BlockedPrefixSum<G>,
    updates: &[CellUpdate<G::Value>],
) -> Result<usize, ArrayError> {
    let plan = plan_blocked(bp, updates)?;
    let op = bp.op().clone();
    apply_plan_seq(bp.packed_array_mut(), &op, &plan);
    Ok(plan.len())
}

/// Contracts update locations to block coordinates and plans the regions
/// over the packed index space (§5.2).
fn plan_blocked<G: AbelianGroup>(
    bp: &BlockedPrefixSum<G>,
    updates: &[CellUpdate<G::Value>],
) -> Result<Vec<(Region, G::Value)>, ArrayError> {
    for u in updates {
        bp.shape().check_index(&u.index)?;
    }
    let b = bp.block_size();
    let contracted: Vec<CellUpdate<G::Value>> = updates
        .iter()
        .map(|u| CellUpdate {
            index: u.index.iter().map(|&x| x / b).collect(),
            delta: u.delta.clone(),
        })
        .collect();
    plan_regions(bp.packed_array().shape(), &bp.op().clone(), &contracted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockedPrefixCube, PrefixSumCube};
    use olap_aggregate::SumOp;
    use olap_array::DenseArray;

    fn cube(dims: &[usize]) -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(dims).unwrap(), |idx| {
            idx.iter()
                .enumerate()
                .map(|(a, &x)| (a as i64 + 2) * x as i64)
                .sum::<i64>()
                % 9
        })
    }

    /// Applies updates to the raw cube for ground truth.
    fn apply_to_cube(a: &mut DenseArray<i64>, updates: &[CellUpdate<i64>]) {
        for u in updates {
            *a.get_mut(&u.index) += u.delta;
        }
    }

    #[test]
    fn max_regions_matches_closed_forms() {
        // NR(k,1) = k; NR(k,2) = k(k+1)/2; NR(k,3) = k(k+1)(k+2)/6.
        assert_eq!(max_regions(5, 1), 5.0);
        assert_eq!(max_regions(5, 2), 15.0);
        assert_eq!(max_regions(5, 3), 35.0);
        assert_eq!(max_regions(3, 2), 6.0);
    }

    #[test]
    fn max_regions_survives_huge_inputs() {
        // `k + j` in usize would overflow here; the bound must come back
        // as a (possibly infinite) float, not panic under overflow-checks.
        let v = max_regions(usize::MAX, 8);
        assert!(v.is_infinite() || v > 0.0);
        assert!(max_regions(usize::MAX - 1, 2) > 0.0);
    }

    #[test]
    fn one_dimensional_plan_shape() {
        // d = 1: k sorted updates produce k affected regions with
        // cumulative deltas (region 0 is unaffected and absent).
        let shape = Shape::new(&[10]).unwrap();
        let op = SumOp::<i64>::new();
        let updates = [
            CellUpdate::new(&[7], 100),
            CellUpdate::new(&[2], 10),
            CellUpdate::new(&[4], 1),
        ];
        let plan = plan_regions(&shape, &op, &updates).unwrap();
        assert_eq!(
            plan,
            vec![
                (Region::from_bounds(&[(2, 3)]).unwrap(), 10),
                (Region::from_bounds(&[(4, 6)]).unwrap(), 11),
                (Region::from_bounds(&[(7, 9)]).unwrap(), 111),
            ]
        );
    }

    #[test]
    fn duplicate_locations_coalesce() {
        let shape = Shape::new(&[10]).unwrap();
        let op = SumOp::<i64>::new();
        let updates = [CellUpdate::new(&[3], 5), CellUpdate::new(&[3], -2)];
        let plan = plan_regions(&shape, &op, &updates).unwrap();
        assert_eq!(plan, vec![(Region::from_bounds(&[(3, 9)]).unwrap(), 3)]);
    }

    #[test]
    fn fig8_k3_d2_region_count() {
        // Figures 7–8: k = 3, d = 2 partitions into ≤ NR(3,2) = 6 regions.
        let shape = Shape::new(&[8, 8]).unwrap();
        let op = SumOp::<i64>::new();
        let updates = [
            CellUpdate::new(&[1, 5], 1),
            CellUpdate::new(&[3, 2], 2),
            CellUpdate::new(&[6, 6], 3),
        ];
        let plan = plan_regions(&shape, &op, &updates).unwrap();
        assert!(plan.len() <= 6, "got {} regions", plan.len());
        // Regions are pairwise disjoint (Property 1 needs disjointness).
        for i in 0..plan.len() {
            for j in (i + 1)..plan.len() {
                assert!(
                    !plan[i].0.overlaps(&plan[j].0),
                    "{} vs {}",
                    plan[i].0,
                    plan[j].0
                );
            }
        }
    }

    #[test]
    fn plan_covers_exactly_affected_cells() {
        // Every P[y] with y ≥ some update x must receive exactly the sum of
        // deltas of updates dominating it; everything else stays untouched.
        let shape = Shape::new(&[6, 5]).unwrap();
        let op = SumOp::<i64>::new();
        let updates = [
            CellUpdate::new(&[2, 3], 7),
            CellUpdate::new(&[4, 1], -3),
            CellUpdate::new(&[2, 1], 11),
        ];
        let plan = plan_regions(&shape, &op, &updates).unwrap();
        for y in shape.full_region().iter_indices() {
            let expected: i64 = updates
                .iter()
                .filter(|u| u.index.iter().zip(&y).all(|(&x, &yy)| x <= yy))
                .map(|u| u.delta)
                .sum();
            let from_plan: i64 = plan
                .iter()
                .filter(|(r, _)| r.contains(&y))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(from_plan, expected, "at {y:?}");
        }
    }

    #[test]
    fn batch_equals_rebuild_2d() {
        let mut a = cube(&[9, 7]);
        let mut ps = PrefixSumCube::build(&a);
        let updates = [
            CellUpdate::new(&[0, 0], 5),
            CellUpdate::new(&[8, 6], -2),
            CellUpdate::new(&[4, 3], 9),
            CellUpdate::new(&[4, 5], 1),
            CellUpdate::new(&[2, 3], -7),
        ];
        let regions = apply_batch(&mut ps, &updates).unwrap();
        assert!(regions as f64 <= max_regions(5, 2));
        apply_to_cube(&mut a, &updates);
        let rebuilt = PrefixSumCube::build(&a);
        assert_eq!(
            ps.prefix_array().as_slice(),
            rebuilt.prefix_array().as_slice()
        );
    }

    #[test]
    fn batch_equals_rebuild_3d() {
        let mut a = cube(&[5, 6, 4]);
        let mut ps = PrefixSumCube::build(&a);
        let updates = [
            CellUpdate::new(&[0, 5, 3], 4),
            CellUpdate::new(&[4, 0, 0], 13),
            CellUpdate::new(&[2, 2, 2], -8),
            CellUpdate::new(&[2, 2, 2], 3), // duplicate location
        ];
        let regions = apply_batch(&mut ps, &updates).unwrap();
        assert!(regions as f64 <= max_regions(4, 3));
        apply_to_cube(&mut a, &updates);
        let rebuilt = PrefixSumCube::build(&a);
        assert_eq!(
            ps.prefix_array().as_slice(),
            rebuilt.prefix_array().as_slice()
        );
    }

    #[test]
    fn single_naive_matches_batch() {
        let mut a = cube(&[6, 6]);
        let mut ps1 = PrefixSumCube::build(&a);
        let mut ps2 = ps1.clone();
        let u = CellUpdate::new(&[3, 4], 21);
        apply_single_naive(&mut ps1, &u).unwrap();
        apply_batch(&mut ps2, std::slice::from_ref(&u)).unwrap();
        assert_eq!(ps1.prefix_array().as_slice(), ps2.prefix_array().as_slice());
        apply_to_cube(&mut a, std::slice::from_ref(&u));
        assert_eq!(
            ps1.prefix_array().as_slice(),
            PrefixSumCube::build(&a).prefix_array().as_slice()
        );
    }

    #[test]
    fn worst_case_update_touches_whole_p() {
        // Updating A[0,…,0] affects every element of P (§5.1).
        let a = cube(&[4, 4]);
        let mut ps = PrefixSumCube::build(&a);
        let before = ps.prefix_array().as_slice().to_vec();
        apply_batch(&mut ps, &[CellUpdate::new(&[0, 0], 1)]).unwrap();
        for (x, y) in before.iter().zip(ps.prefix_array().as_slice()) {
            assert_eq!(x + 1, *y);
        }
    }

    #[test]
    fn blocked_batch_equals_rebuild() {
        let mut a = cube(&[11, 13]);
        for b in [2usize, 3, 5] {
            let mut bp = BlockedPrefixCube::build(&a, b).unwrap();
            let updates = [
                CellUpdate::new(&[0, 12], 6),
                CellUpdate::new(&[10, 0], -4),
                CellUpdate::new(&[5, 5], 2),
                CellUpdate::new(&[5, 6], 2), // same block as the previous
            ];
            apply_batch_blocked(&mut bp, &updates).unwrap();
            let mut a2 = a.clone();
            apply_to_cube(&mut a2, &updates);
            let rebuilt = BlockedPrefixCube::build(&a2, b).unwrap();
            assert_eq!(
                bp.packed_array().as_slice(),
                rebuilt.packed_array().as_slice(),
                "b = {b}"
            );
        }
        // Keep `a` mutable usage meaningful: apply once for a final query check.
        let updates = [CellUpdate::new(&[1, 1], 100)];
        let mut bp = BlockedPrefixCube::build(&a, 4).unwrap();
        apply_batch_blocked(&mut bp, &updates).unwrap();
        apply_to_cube(&mut a, &updates);
        let q = Region::from_bounds(&[(0, 10), (0, 12)]).unwrap();
        assert_eq!(
            bp.range_sum(&a, &q).unwrap(),
            a.fold_region(&q, 0i64, |s, &x| s + x)
        );
    }

    #[test]
    fn planning_records_regions_vs_bound() {
        let ctx = std::sync::Arc::new(olap_telemetry::Telemetry::new());
        olap_telemetry::with_scope(&ctx, || {
            let a = cube(&[8, 8]);
            let mut ps = PrefixSumCube::build(&a);
            let updates = [
                CellUpdate::new(&[1, 5], 1),
                CellUpdate::new(&[3, 2], 2),
                CellUpdate::new(&[6, 6], 3),
            ];
            let regions = apply_batch(&mut ps, &updates).unwrap();
            let reg = ctx.registry();
            assert_eq!(reg.counter("olap_batch_plans_total", &[]).get(), 1);
            assert_eq!(reg.counter("olap_batch_updates_total", &[]).get(), 3);
            assert_eq!(
                reg.counter("olap_batch_regions_total", &[]).get(),
                regions as u64
            );
            let h = reg.histogram("olap_batch_region_bound_permille", &[]);
            assert_eq!(h.count(), 1);
            // NR(3,2) = 6; the plan can never exceed the Theorem 2 bound.
            assert!(h.sum() <= 1000, "regions exceeded the bound: {}", h.sum());
        });
    }

    #[test]
    fn rejects_out_of_shape_updates() {
        let a = cube(&[4, 4]);
        let mut ps = PrefixSumCube::build(&a);
        assert!(apply_batch(&mut ps, &[CellUpdate::new(&[4, 0], 1)]).is_err());
        assert!(apply_single_naive(&mut ps, &CellUpdate::new(&[0], 1)).is_err());
    }

    #[test]
    fn empty_batch_is_noop() {
        let a = cube(&[4, 4]);
        let mut ps = PrefixSumCube::build(&a);
        let before = ps.prefix_array().as_slice().to_vec();
        let regions = apply_batch::<SumOp<i64>>(&mut ps, &[]).unwrap();
        assert_eq!(regions, 0);
        assert_eq!(ps.prefix_array().as_slice(), before.as_slice());
    }
}
