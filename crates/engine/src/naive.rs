//! No-precomputation baselines: scan every cell of the query sub-cube.
//!
//! These are the algorithms the paper's techniques are measured against —
//! cost equal to the query volume `V`.

use olap_aggregate::{Monoid, TotalOrder};
use olap_array::{ArrayError, CellRead, FlatRegionIter, Region};
use olap_query::QueryCtx;

/// Cells scanned between budget checkpoints: the charge is an atomic add
/// per batch and the deadline/cancellation check a clock read per batch,
/// so a runaway scan is cut off within `CHECK_EVERY` cells.
pub(crate) const CHECK_EVERY: usize = 4096;

/// The scan both baselines share: checks `ctx`, validates `region`, then
/// hands `visit` the flat offset of each of its cells in row-major order,
/// recording one access and one step per cell and charging and checking
/// `ctx` every `CHECK_EVERY` cells and once more at the end.
fn scan<V>(
    a: &impl CellRead<V>,
    region: &Region,
    ctx: &mut QueryCtx<'_>,
    mut visit: impl FnMut(usize),
) -> Result<(), ArrayError> {
    ctx.check()?;
    a.shape().check_region(region)?;
    for (n, off) in (1usize..).zip(FlatRegionIter::new(a.shape(), region)) {
        ctx.stats.read_a(1);
        ctx.stats.step(1);
        visit(off);
        if n.is_multiple_of(CHECK_EVERY) {
            ctx.charge()?;
            ctx.check()?;
        }
    }
    ctx.charge()?;
    Ok(())
}

/// Range aggregation by scanning the region (cost `V`), under `ctx`: a
/// query over a huge region is interrupted mid-scan, within
/// `CHECK_EVERY` (4096) cells, rather than after it.
///
/// # Errors
/// Validates the region; propagates budget interrupts.
pub fn range_aggregate<M: Monoid>(
    a: &impl CellRead<M::Value>,
    op: &M,
    region: &Region,
    ctx: &mut QueryCtx<'_>,
) -> Result<M::Value, ArrayError> {
    let mut acc = op.identity();
    scan(a, region, ctx, |off| {
        acc = op.combine(&acc, a.get_flat(off))
    })?;
    Ok(acc)
}

/// Range-max by scanning the region (cost `V`) under `ctx`, returning
/// the first argmax in row-major order.
///
/// # Errors
/// Validates the region; propagates budget interrupts.
pub fn range_max<O: TotalOrder>(
    a: &impl CellRead<O::Value>,
    order: &O,
    region: &Region,
    ctx: &mut QueryCtx<'_>,
) -> Result<(Vec<usize>, O::Value), ArrayError> {
    // The best cell so far with its value, so each cell is read once.
    let mut best: Option<(usize, &O::Value)> = None;
    scan(a, region, ctx, |off| {
        let v = a.get_flat(off);
        match best {
            Some((_, b)) if !order.gt(v, b) => {}
            _ => best = Some((off, v)),
        }
    })?;
    // Regions are non-empty by construction (inclusive bounds), so a
    // validated scan always sees at least one cell; report the
    // impossible case as a typed error rather than panicking.
    let (flat, v) = best.ok_or(ArrayError::EmptyShape)?;
    Ok((a.shape().unflatten(flat), v.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_aggregate::{NaturalOrder, SumOp};
    use olap_array::{DenseArray, Shape};

    #[test]
    fn naive_sum_cost_equals_volume() {
        let a = DenseArray::from_fn(Shape::new(&[6, 6]).unwrap(), |i| (i[0] + i[1]) as i64);
        let q = Region::from_bounds(&[(1, 4), (2, 3)]).unwrap();
        let (v, stats) =
            QueryCtx::measure(|ctx| range_aggregate(&a, &SumOp::new(), &q, ctx)).unwrap();
        assert_eq!(stats.a_cells, q.volume() as u64);
        let expected: i64 = q.iter_indices().map(|i| (i[0] + i[1]) as i64).sum();
        assert_eq!(v, expected);
    }

    #[test]
    fn naive_scan_respects_access_budget() {
        use olap_array::{Interrupt, QueryBudget};
        let a = DenseArray::from_fn(Shape::new(&[100, 100]).unwrap(), |i| (i[0] + i[1]) as i64);
        let q = a.shape().full_region();
        // 10 000 cells but only 4 096 allowed: the batched charge fires.
        let meter = QueryBudget::unlimited().max_accesses(4096).start(None);
        let mut ctx = QueryCtx::new(&meter);
        let err = range_aggregate(&a, &SumOp::<i64>::new(), &q, &mut ctx).unwrap_err();
        assert!(matches!(
            err,
            ArrayError::Interrupted(Interrupt::BudgetExhausted { .. })
        ));
        // An exact budget completes with the unbudgeted answer.
        let meter = QueryBudget::unlimited().max_accesses(10_000).start(None);
        let mut ctx = QueryCtx::new(&meter);
        let v = range_aggregate(&a, &SumOp::<i64>::new(), &q, &mut ctx).unwrap();
        let (v0, _) =
            QueryCtx::measure(|ctx| range_aggregate(&a, &SumOp::<i64>::new(), &q, ctx)).unwrap();
        assert_eq!(v, v0);
    }

    #[test]
    fn naive_max_scan_respects_access_budget() {
        use olap_array::{Interrupt, QueryBudget};
        let a = DenseArray::from_fn(Shape::new(&[100, 100]).unwrap(), |i| (i[0] * i[1]) as i64);
        let q = a.shape().full_region();
        let order = NaturalOrder::<i64>::new();
        let meter = QueryBudget::unlimited().max_accesses(10).start(None);
        let err = range_max(&a, &order, &q, &mut QueryCtx::new(&meter)).unwrap_err();
        assert!(matches!(
            err,
            ArrayError::Interrupted(Interrupt::BudgetExhausted { .. })
        ));
        assert_eq!(
            meter.spent(),
            CHECK_EVERY as u64,
            "cut off at the first checkpoint"
        );
        let meter = QueryBudget::unlimited().max_accesses(10_000).start(None);
        let mut ctx = QueryCtx::new(&meter);
        let (at, v) = range_max(&a, &order, &q, &mut ctx).unwrap();
        assert_eq!((at, v), (vec![99, 99], 99 * 99));
        assert_eq!(meter.spent(), ctx.stats.total_accesses());
    }

    #[test]
    fn naive_max_finds_argmax() {
        let a =
            DenseArray::from_vec(Shape::new(&[2, 3]).unwrap(), vec![1i64, 9, 2, 5, 9, 0]).unwrap();
        let q = Region::from_bounds(&[(0, 1), (0, 2)]).unwrap();
        let ((idx, v), stats) =
            QueryCtx::measure(|ctx| range_max(&a, &NaturalOrder::<i64>::new(), &q, ctx)).unwrap();
        assert_eq!(v, 9);
        assert!(idx == vec![0, 1] || idx == vec![1, 1]);
        assert_eq!(stats.a_cells, 6);
    }
}
