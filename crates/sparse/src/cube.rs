//! A sparse data-cube representation: only non-empty cells are stored.

use olap_array::{ArrayError, DenseArray, Region, Shape};

/// A sparse cube: a shape plus a list of `(index, value)` points for the
/// non-empty cells. Cells not listed hold the aggregation identity
/// (0 for SUM).
#[derive(Debug, Clone)]
pub struct SparseCube<T> {
    shape: Shape,
    /// Sorted by flattened index; unique indices.
    points: Vec<(Vec<usize>, T)>,
}

impl<T: Clone> SparseCube<T> {
    /// Builds from points, validating, sorting, and rejecting duplicates.
    ///
    /// # Errors
    /// Out-of-shape indices; duplicate indices are rejected as
    /// [`ArrayError::StorageMismatch`]-style errors.
    pub fn new(shape: Shape, mut points: Vec<(Vec<usize>, T)>) -> Result<Self, ArrayError> {
        // analyzer: allow(budget-coverage, reason = "construction-time validation, not a query path; no meter exists yet")
        for (idx, _) in &points {
            shape.check_index(idx)?;
        }
        points.sort_by_key(|(idx, _)| shape.flatten(idx));
        // analyzer: allow(budget-coverage, reason = "construction-time duplicate check, not a query path; no meter exists yet")
        for w in points.windows(2) {
            if w.first().map(|p| &p.0) == w.last().map(|p| &p.0) {
                return Err(ArrayError::StorageMismatch {
                    expected: points.len(),
                    actual: points.len() - 1,
                });
            }
        }
        Ok(SparseCube { shape, points })
    }

    /// Extracts the non-identity cells of a dense cube.
    pub fn from_dense(a: &DenseArray<T>, is_empty: impl Fn(&T) -> bool) -> Self {
        let mut points = Vec::new();
        for idx in a.shape().full_region().iter_indices() {
            let v = a.get(&idx);
            if !is_empty(v) {
                points.push((idx, v.clone()));
            }
        }
        SparseCube {
            shape: a.shape().clone(),
            points,
        }
    }

    /// Materializes the dense cube (for testing/small cubes only).
    pub fn to_dense(&self, fill: T) -> DenseArray<T> {
        let mut a = DenseArray::filled(self.shape.clone(), fill);
        for (idx, v) in &self.points {
            *a.get_mut(idx) = v.clone();
        }
        a
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The non-empty points, sorted by row-major index.
    pub fn points(&self) -> &[(Vec<usize>, T)] {
        &self.points
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cube has no non-empty cells.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Fraction of non-empty cells (the paper cites ~20% as canonical for
    /// OLAP).
    pub fn density(&self) -> f64 {
        self.points.len() as f64 / self.shape.len() as f64
    }

    /// The points lying inside a region.
    pub fn points_in(&self, region: &Region) -> impl Iterator<Item = &(Vec<usize>, T)> {
        let region = region.clone();
        self.points
            .iter()
            .filter(move |(idx, _)| region.contains(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_validates() {
        let shape = Shape::new(&[4, 4]).unwrap();
        let cube = SparseCube::new(
            shape,
            vec![(vec![3, 3], 9i64), (vec![0, 1], 1), (vec![2, 0], 4)],
        )
        .unwrap();
        assert_eq!(cube.len(), 3);
        assert_eq!(cube.points()[0].0, vec![0, 1]);
        assert_eq!(cube.density(), 3.0 / 16.0);
    }

    #[test]
    fn rejects_duplicates_and_out_of_bounds() {
        let shape = Shape::new(&[4, 4]).unwrap();
        assert!(SparseCube::new(shape.clone(), vec![(vec![0, 4], 1i64)]).is_err());
        assert!(SparseCube::new(shape, vec![(vec![1, 1], 1i64), (vec![1, 1], 2)],).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let shape = Shape::new(&[3, 3]).unwrap();
        let a = DenseArray::from_fn(shape, |i| if (i[0] + i[1]) % 2 == 0 { 5i64 } else { 0 });
        let sparse = SparseCube::from_dense(&a, |&v| v == 0);
        assert_eq!(sparse.len(), 5);
        assert_eq!(sparse.to_dense(0).as_slice(), a.as_slice());
    }

    #[test]
    fn points_in_region() {
        let shape = Shape::new(&[10]).unwrap();
        let cube =
            SparseCube::new(shape, vec![(vec![1], 1i64), (vec![5], 2), (vec![9], 3)]).unwrap();
        let q = Region::from_bounds(&[(2, 9)]).unwrap();
        let vals: Vec<i64> = cube.points_in(&q).map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![2, 3]);
    }
}
