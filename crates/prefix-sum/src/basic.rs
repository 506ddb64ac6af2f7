//! The basic range-sum algorithm (§3): full prefix-sum array + Theorem 1.

use olap_aggregate::{AbelianGroup, NumericValue, SumOp};
use olap_array::{ArrayError, DenseArray, Region, Shape};
use olap_query::QueryCtx;

/// The precomputed prefix-sum array `P` of a data cube (§3.1):
/// `P[x_1,…,x_d] = Sum(0:x_1, …, 0:x_d)`, same shape as the cube.
///
/// Built in `dN` combine steps by `d` one-dimensional scan phases visiting
/// memory in storage order (§3.3). Any range-sum is answered with at most
/// `2^d` lookups and `2^d − 1` combines (Theorem 1), independent of the
/// query volume.
#[derive(Debug, Clone)]
pub struct PrefixSumArray<G: AbelianGroup> {
    op: G,
    p: DenseArray<G::Value>,
}

/// The prefix-sum array specialised to SUM — the common OLAP case.
pub type PrefixSumCube<T> = PrefixSumArray<SumOp<T>>;

impl<T: NumericValue> PrefixSumCube<T> {
    /// Builds the SUM prefix-sum array of a cube.
    ///
    /// # Examples
    ///
    /// ```
    /// use olap_array::{DenseArray, Region, Shape};
    /// use olap_prefix_sum::PrefixSumCube;
    ///
    /// let cube = DenseArray::from_vec(
    ///     Shape::new(&[2, 3]).unwrap(),
    ///     vec![1i64, 2, 3, 4, 5, 6],
    /// )
    /// .unwrap();
    /// let ps = PrefixSumCube::build(&cube);
    /// let q = Region::from_bounds(&[(0, 1), (1, 2)]).unwrap();
    /// assert_eq!(ps.range_sum(&q).unwrap(), 2 + 3 + 5 + 6);
    /// ```
    pub fn build(cube: &DenseArray<T>) -> Self {
        PrefixSumArray::with_op(cube, SumOp::new())
    }
}

impl<G: AbelianGroup> PrefixSumArray<G> {
    /// Builds `P` from the cube under any invertible operator, using the
    /// d-phase algorithm of §3.3 (`dN` combine steps).
    pub fn with_op(cube: &DenseArray<G::Value>, op: G) -> Self {
        let mut p = cube.clone();
        for axis in 0..p.shape().ndim() {
            p.scan_axis(axis, |a, b| op.combine(a, b));
        }
        PrefixSumArray { op, p }
    }

    /// Wraps an already-computed prefix array (used by the batch-update
    /// machinery and tests).
    pub fn from_prefix_array(p: DenseArray<G::Value>, op: G) -> Self {
        PrefixSumArray { op, p }
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        self.p.shape()
    }

    /// The operator.
    pub fn op(&self) -> &G {
        &self.op
    }

    /// Read-only view of the raw prefix array.
    pub fn prefix_array(&self) -> &DenseArray<G::Value> {
        &self.p
    }

    /// Mutable view of the raw prefix array (for batch updates).
    pub fn prefix_array_mut(&mut self) -> &mut DenseArray<G::Value> {
        &mut self.p
    }

    /// The precomputed prefix `P[x_1,…,x_d] = Sum(0:x_1,…,0:x_d)`.
    pub fn prefix(&self, index: &[usize]) -> &G::Value {
        self.p.get(index)
    }

    /// Answers `Sum(ℓ_1:h_1, …, ℓ_d:h_d)` via Theorem 1.
    ///
    /// # Errors
    /// Propagates region-validation errors.
    pub fn range_sum(&self, region: &Region) -> Result<G::Value, ArrayError> {
        self.read(region, &mut QueryCtx::unlimited())
    }

    /// The metered Theorem-1 read: checks `ctx` before the gather and
    /// charges it after. `ctx` counts each *real* `P` access (corners with
    /// some `ℓ_j − 1 = −1` contribute the identity without touching
    /// memory, which is why the paper says "up to" `2^d`).
    ///
    /// # Errors
    /// Region validation, or a budget interrupt.
    pub fn read(&self, region: &Region, ctx: &mut QueryCtx<'_>) -> Result<G::Value, ArrayError> {
        ctx.check()?;
        self.p.shape().check_region(region)?;
        let d = region.ndim();
        let mut corner = vec![0usize; d];
        let mut acc = self.op.identity();
        // Theorem 1 corner gather: at most 2^d probes, charged after the gather.
        'corners: for mask in 0u64..(1u64 << d) {
            // Bit j set ⇒ pick x_j = ℓ_j − 1 (sign −1); clear ⇒ x_j = h_j.
            for (j, c) in corner.iter_mut().enumerate() {
                let r = region.range(j);
                if (mask >> j) & 1 == 1 {
                    if r.lo() == 0 {
                        // P[…, −1, …] = 0 by convention: term vanishes.
                        continue 'corners;
                    }
                    *c = r.lo() - 1;
                } else {
                    *c = r.hi();
                }
            }
            let term = self.p.get(&corner);
            ctx.stats.read_p(1);
            ctx.stats.step(1);
            if mask.count_ones() % 2 == 0 {
                acc = self.op.combine(&acc, term);
            } else {
                acc = self.op.uncombine(&acc, term);
            }
        }
        ctx.charge()?;
        Ok(acc)
    }

    /// Reconstructs the original cell `A[index]` from `P` alone (§3.4:
    /// the cube can be discarded because a cell is the degenerate
    /// range-sum `Sum(x_1:x_1, …, x_d:x_d)`).
    pub fn cell(&self, index: &[usize]) -> Result<G::Value, ArrayError> {
        self.p.shape().check_index(index)?;
        self.range_sum(&Region::point(index)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_aggregate::{AvgOp, AvgPair, XorOp};
    use olap_array::Range;

    /// Figure 1's 3×6 array (rows = the paper's second dimension).
    fn figure1() -> DenseArray<i64> {
        DenseArray::from_vec(
            Shape::new(&[3, 6]).unwrap(),
            vec![
                3, 5, 1, 2, 2, 3, //
                7, 3, 2, 6, 8, 2, //
                2, 4, 2, 3, 3, 5,
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig1_paper_example() {
        // The prefix array of Figure 1 (bottom table, transposed into our
        // row-major [row][col] layout).
        let ps = PrefixSumCube::build(&figure1());
        let expected = [
            [3, 8, 9, 11, 13, 16],
            [10, 18, 21, 29, 39, 44],
            [12, 24, 29, 40, 53, 63],
        ];
        for (r, row) in expected.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(*ps.prefix(&[r, c]), v, "P[{r},{c}]");
            }
        }
    }

    #[test]
    fn fig2_inclusion_exclusion() {
        // Sum(2:3, 1:2) = P[3,2] − P[3,0] − P[1,2] + P[1,0] = 40−11−24+8 = 13.
        // The paper's first coordinate runs along Figure 1's columns, so in
        // our [row, col] layout the query is rows 1:2 × cols 2:3.
        let ps = PrefixSumCube::build(&figure1());
        let q = Region::from_bounds(&[(1, 2), (2, 3)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| ps.read(&q, ctx)).unwrap();
        assert_eq!(v, 13);
        assert_eq!(stats.p_cells, 4); // all 2^d corners are real here
    }

    #[test]
    fn corner_terms_skip_negative_index() {
        let ps = PrefixSumCube::build(&figure1());
        // ℓ = 0 on both dims: only the P[h1,h2] corner is a real access.
        let q = Region::from_bounds(&[(0, 1), (0, 2)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| ps.read(&q, ctx)).unwrap();
        assert_eq!(v, 3 + 5 + 1 + 7 + 3 + 2);
        assert_eq!(stats.p_cells, 1);
    }

    #[test]
    fn full_cube_sum() {
        let a = figure1();
        let ps = PrefixSumCube::build(&a);
        let total: i64 = a.as_slice().iter().sum();
        assert_eq!(ps.range_sum(&a.shape().full_region()).unwrap(), total);
        assert_eq!(total, 63); // P's last entry in Figure 1
    }

    #[test]
    fn matches_naive_on_3d_cube() {
        let shape = Shape::new(&[4, 5, 6]).unwrap();
        let a = DenseArray::from_fn(shape.clone(), |idx| {
            (idx[0] * 31 + idx[1] * 7 + idx[2] * 3) as i64 % 17 - 5
        });
        let ps = PrefixSumCube::build(&a);
        let queries = [
            [(0, 3), (0, 4), (0, 5)],
            [(1, 2), (2, 2), (3, 5)],
            [(3, 3), (4, 4), (0, 0)],
            [(0, 0), (1, 4), (2, 3)],
        ];
        for q in queries {
            let region = Region::from_bounds(&q).unwrap();
            let naive = a.fold_region(&region, 0i64, |acc, &x| acc + x);
            assert_eq!(ps.range_sum(&region).unwrap(), naive, "query {region}");
        }
    }

    #[test]
    fn seven_step_three_dim_identity() {
        // The d = 3 expansion below Theorem 1 has 2^3 = 8 terms.
        let shape = Shape::new(&[3, 3, 3]).unwrap();
        let a = DenseArray::from_fn(shape, |idx| (idx[0] + idx[1] + idx[2]) as i64);
        let ps = PrefixSumCube::build(&a);
        let q = Region::from_bounds(&[(1, 2), (1, 2), (1, 2)]).unwrap();
        let (v, stats) = QueryCtx::measure(|ctx| ps.read(&q, ctx)).unwrap();
        let naive = a.fold_region(&q, 0i64, |acc, &x| acc + x);
        assert_eq!(v, naive);
        assert_eq!(stats.p_cells, 8);
    }

    #[test]
    fn cell_reconstruction_storage_tradeoff() {
        // §3.4: A can be discarded; every cell is recoverable from P.
        let a = figure1();
        let ps = PrefixSumCube::build(&a);
        for idx in a.shape().full_region().iter_indices() {
            assert_eq!(ps.cell(&idx).unwrap(), *a.get(&idx), "at {idx:?}");
        }
    }

    #[test]
    fn range_sum_validates_region() {
        let ps = PrefixSumCube::build(&figure1());
        let q = Region::from_bounds(&[(0, 2), (0, 6)]).unwrap();
        assert!(ps.range_sum(&q).is_err());
        let q = Region::new(vec![Range::new(0, 1).unwrap()]).unwrap();
        assert!(ps.range_sum(&q).is_err());
    }

    #[test]
    fn works_with_xor_group() {
        // §1: any (⊕, ⊖) pair works; xor is self-inverse.
        let shape = Shape::new(&[4, 4]).unwrap();
        let a = DenseArray::from_fn(shape, |idx| ((idx[0] * 13 + idx[1] * 5) % 256) as u32);
        let ps = PrefixSumArray::with_op(&a, XorOp::<u32>::new());
        let q = Region::from_bounds(&[(1, 2), (0, 3)]).unwrap();
        let naive = a.fold_region(&q, 0u32, |acc, &x| acc ^ x);
        assert_eq!(ps.range_sum(&q).unwrap(), naive);
    }

    #[test]
    fn works_with_avg_pairs() {
        // §1: AVERAGE via the (sum, count) 2-tuple.
        let shape = Shape::new(&[3, 4]).unwrap();
        let a = DenseArray::from_fn(shape, |idx| AvgPair::of((idx[0] * 4 + idx[1]) as f64));
        let ps = PrefixSumArray::with_op(&a, AvgOp::<f64>::new());
        let q = Region::from_bounds(&[(1, 2), (1, 3)]).unwrap();
        let got = ps.range_sum(&q).unwrap();
        assert_eq!(got.count, 6);
        assert_eq!(got.mean(), Some((5 + 6 + 7 + 9 + 10 + 11) as f64 / 6.0));
    }

    #[test]
    fn one_dimensional_prefix() {
        let a = DenseArray::from_vec(Shape::new(&[8]).unwrap(), vec![5i64, -2, 9, 0, 3, 3, -7, 1])
            .unwrap();
        let ps = PrefixSumCube::build(&a);
        let q = Region::from_bounds(&[(2, 6)]).unwrap();
        assert_eq!(ps.range_sum(&q).unwrap(), 9 + 3 + 3 - 7);
    }
}
