//! Cuboid materialization: the group-by slices of §9.
//!
//! A cuboid on dimensions `{d_i1, …, d_ik}` is the slice of the cube where
//! every other dimension has the value `all` — i.e. the cube aggregated
//! down to those k dimensions. The §9 planner decides which cuboids get
//! prefix sums; this module builds the slices they are computed over.

use olap_aggregate::AbelianGroup;
use olap_array::{ArrayError, DenseArray, Shape};
use olap_query::CuboidId;

/// Aggregates a cube down to `cuboid`'s dimensions. The result's axes are
/// the cuboid's dimensions in ascending order; the empty cuboid yields a
/// one-cell array holding the grand total.
///
/// # Errors
/// Rejects cuboids referencing dimensions the cube does not have.
#[expect(
    clippy::indexing_slicing,
    reason = "dims were checked to be distinct axes below d, and idx has d slots"
)]
pub fn materialize_cuboid<G: AbelianGroup>(
    a: &DenseArray<G::Value>,
    op: &G,
    cuboid: CuboidId,
) -> Result<DenseArray<G::Value>, ArrayError> {
    let d = a.shape().ndim();
    let dims = cuboid.dims();
    if let Some(&bad) = dims.iter().find(|&&j| j >= d) {
        return Err(ArrayError::OutOfBounds {
            axis: bad,
            index: bad,
            extent: d,
        });
    }
    let out_dims: Vec<usize> = if dims.is_empty() {
        vec![1]
    } else {
        dims.iter().map(|&j| a.shape().dim(j)).collect()
    };
    let out_shape = Shape::new(&out_dims)?;
    let mut out = DenseArray::filled(out_shape.clone(), op.identity());
    let mut idx = vec![0usize; d];
    let mut out_idx = vec![0usize; out_shape.ndim()];
    for flat in 0..a.len() {
        a.shape().unflatten_into(flat, &mut idx);
        if dims.is_empty() {
            out_idx.fill(0);
        } else {
            for (o, &j) in out_idx.iter_mut().zip(&dims) {
                *o = idx[j];
            }
        }
        let oflat = out_shape.flatten(&out_idx);
        let merged = op.combine(out.get_flat(oflat), a.get_flat(flat));
        *out.get_flat_mut(oflat) = merged;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_aggregate::SumOp;

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[3, 4, 2]).unwrap(), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as i64
        })
    }

    #[test]
    fn full_cuboid_is_identity() {
        let a = cube();
        let m =
            materialize_cuboid(&a, &SumOp::<i64>::new(), CuboidId::from_dims(&[0, 1, 2])).unwrap();
        assert_eq!(m.as_slice(), a.as_slice());
    }

    #[test]
    fn single_dimension_cuboid() {
        let a = cube();
        let m = materialize_cuboid(&a, &SumOp::<i64>::new(), CuboidId::from_dims(&[1])).unwrap();
        assert_eq!(m.shape().dims(), &[4]);
        // Entry j = Σ over i,k of (100i + 10j + k) = 3·2·10j + 100·(0+1+2)·2 + (0+1)·3.
        for j in 0..4usize {
            let expected: i64 = (0..3)
                .flat_map(|i| (0..2).map(move |k| (i * 100 + j * 10 + k) as i64))
                .sum();
            assert_eq!(*m.get(&[j]), expected);
        }
    }

    #[test]
    fn two_dimension_cuboid_keeps_order() {
        let a = cube();
        let m = materialize_cuboid(&a, &SumOp::<i64>::new(), CuboidId::from_dims(&[0, 2])).unwrap();
        assert_eq!(m.shape().dims(), &[3, 2]);
        for i in 0..3usize {
            for k in 0..2usize {
                let expected: i64 = (0..4).map(|j| (i * 100 + j * 10 + k) as i64).sum();
                assert_eq!(*m.get(&[i, k]), expected);
            }
        }
    }

    #[test]
    fn empty_cuboid_is_grand_total() {
        let a = cube();
        let m = materialize_cuboid(&a, &SumOp::<i64>::new(), CuboidId::empty()).unwrap();
        assert_eq!(m.shape().dims(), &[1]);
        let total: i64 = a.as_slice().iter().sum();
        assert_eq!(*m.get(&[0]), total);
    }

    #[test]
    fn rejects_out_of_range_dims() {
        let a = cube();
        assert!(materialize_cuboid(&a, &SumOp::<i64>::new(), CuboidId::from_dims(&[3])).is_err());
    }
}
