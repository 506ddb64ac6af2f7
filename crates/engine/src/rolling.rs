//! ROLLING SUM and ROLLING AVERAGE (§1: "special cases of range-sum and
//! range-average").
//!
//! A rolling aggregate slides a window of width `w` along one dimension;
//! each window position is one range-sum, so with a prefix-sum array every
//! position costs `2^d` lookups regardless of `w`.

use crate::EngineError;
use olap_aggregate::AbelianGroup;
use olap_array::{Range, Region};
use olap_prefix_sum::PrefixSumArray;
use olap_query::{AccessStats, QueryCtx};

/// Computes the rolling aggregate of width `window` along `axis`, with the
/// other dimensions fixed to `base`'s ranges. Returns one value per window
/// position (`len(axis range) − window + 1` of them).
///
/// # Errors
/// Validates `base` and `axis`; a window of 0 or wider than the axis
/// range is [`EngineError::WindowTooLarge`].
pub fn rolling_aggregate<G: AbelianGroup>(
    ps: &PrefixSumArray<G>,
    base: &Region,
    axis: usize,
    window: usize,
) -> Result<(Vec<G::Value>, AccessStats), EngineError> {
    ps.shape().check_region(base)?;
    let Some(&r) = base.ranges().get(axis) else {
        return Err(EngineError::Array(olap_array::ArrayError::OutOfBounds {
            axis,
            index: axis,
            extent: base.ndim(),
        }));
    };
    if window == 0 || window > r.len() {
        return Err(EngineError::WindowTooLarge {
            window,
            len: r.len(),
        });
    }
    let mut out = Vec::with_capacity(r.len() - window + 1);
    let mut ctx = QueryCtx::unlimited();
    for start in r.lo()..=(r.hi() - window + 1) {
        let mut ranges = base.ranges().to_vec();
        if let Some(slot) = ranges.get_mut(axis) {
            *slot = Range::new(start, start + window - 1)?;
        }
        let region = Region::new(ranges)?;
        out.push(ps.read(&region, &mut ctx)?);
    }
    Ok((out, ctx.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_aggregate::{AvgOp, AvgPair};
    use olap_array::{DenseArray, Shape};
    use olap_prefix_sum::PrefixSumCube;

    #[test]
    fn rolling_sum_one_dim() {
        let a = DenseArray::from_vec(Shape::new(&[8]).unwrap(), vec![1i64, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let ps = PrefixSumCube::build(&a);
        let base = Region::from_bounds(&[(0, 7)]).unwrap();
        let (sums, stats) = rolling_aggregate(&ps, &base, 0, 3).unwrap();
        assert_eq!(sums, vec![6, 9, 12, 15, 18, 21]);
        // Each window costs at most 2 lookups in one dimension.
        assert!(stats.p_cells <= 2 * 6);
    }

    #[test]
    fn rolling_sum_along_axis_of_2d() {
        let a = DenseArray::from_fn(Shape::new(&[3, 5]).unwrap(), |i| (i[0] * 5 + i[1]) as i64);
        let ps = PrefixSumCube::build(&a);
        // Roll over columns 0..4 for row 1 only.
        let base = Region::from_bounds(&[(1, 1), (0, 4)]).unwrap();
        let (sums, _) = rolling_aggregate(&ps, &base, 1, 2).unwrap();
        assert_eq!(sums, vec![5 + 6, 6 + 7, 7 + 8, 8 + 9]);
    }

    #[test]
    fn rolling_average_via_pairs() {
        let a = DenseArray::from_fn(Shape::new(&[6]).unwrap(), |i| {
            AvgPair::of(i[0] as f64 * 2.0)
        });
        let ps = olap_prefix_sum::PrefixSumArray::with_op(&a, AvgOp::<f64>::new());
        let base = Region::from_bounds(&[(0, 5)]).unwrap();
        let (avgs, _) = rolling_aggregate(&ps, &base, 0, 2).unwrap();
        let means: Vec<f64> = avgs.iter().map(|p| p.mean().unwrap()).collect();
        assert_eq!(means, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn oversized_window_is_window_too_large_not_inverted_range() {
        let a = DenseArray::filled(Shape::new(&[4]).unwrap(), 1i64);
        let ps = PrefixSumCube::build(&a);
        let base = Region::from_bounds(&[(0, 3)]).unwrap();
        assert_eq!(
            rolling_aggregate(&ps, &base, 0, 5).unwrap_err(),
            EngineError::WindowTooLarge { window: 5, len: 4 }
        );
        assert_eq!(
            rolling_aggregate(&ps, &base, 0, 0).unwrap_err(),
            EngineError::WindowTooLarge { window: 0, len: 4 }
        );
    }
}
