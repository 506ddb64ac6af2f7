use crate::CuboidId;
use olap_array::{ArrayError, Range, Region, Shape};

/// The selection a query makes on one dimension.
///
/// §9.1: an attribute is **active** w.r.t. a query when its selection is a
/// contiguous range that is neither a singleton nor `all`; otherwise it is
/// **passive**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimSelection {
    /// The whole domain of the attribute (the `all` value of \[GBLP96\]).
    All,
    /// One value of the domain — a singleton query component.
    Single(usize),
    /// A contiguous inclusive range of the domain.
    Span(Range),
}

impl DimSelection {
    /// Builds a span, collapsing `lo == hi` to [`DimSelection::Single`].
    pub fn span(lo: usize, hi: usize) -> Result<Self, ArrayError> {
        let r = Range::new(lo, hi)?;
        Ok(if r.len() == 1 {
            DimSelection::Single(lo)
        } else {
            DimSelection::Span(r)
        })
    }

    /// Resolves the selection against the extent `n` of its dimension.
    ///
    /// `All` becomes `0:n−1`; a span covering the full domain is treated
    /// identically.
    pub fn resolve(&self, n: usize) -> Result<Range, ArrayError> {
        match *self {
            DimSelection::All => Range::new(0, n - 1),
            DimSelection::Single(x) => {
                if x >= n {
                    Err(ArrayError::OutOfBounds {
                        axis: 0,
                        index: x,
                        extent: n,
                    })
                } else {
                    Ok(Range::singleton(x))
                }
            }
            DimSelection::Span(r) => {
                if r.hi() >= n {
                    Err(ArrayError::OutOfBounds {
                        axis: 0,
                        index: r.hi(),
                        extent: n,
                    })
                } else {
                    Ok(r)
                }
            }
        }
    }

    /// Whether the attribute is active (a non-singleton, non-`all` range)
    /// with respect to a domain of extent `n`.
    pub fn is_active(&self, n: usize) -> bool {
        match *self {
            DimSelection::All | DimSelection::Single(_) => false,
            DimSelection::Span(r) => r.len() > 1 && r.len() < n,
        }
    }

    /// The range length `r_ij` the §9.1 heuristic uses: the span length for
    /// an active attribute, `1` for a passive one.
    pub fn heuristic_length(&self, n: usize) -> usize {
        match *self {
            DimSelection::All | DimSelection::Single(_) => 1,
            DimSelection::Span(r) => {
                if r.len() < n {
                    r.len()
                } else {
                    1 // a span covering `all` is passive
                }
            }
        }
    }
}

/// A d-dimensional range query: one [`DimSelection`] per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RangeQuery {
    sels: Box<[DimSelection]>,
}

impl RangeQuery {
    /// Builds a query from per-dimension selections.
    ///
    /// # Errors
    /// [`ArrayError::EmptyShape`] when no selections are supplied.
    pub fn new(sels: Vec<DimSelection>) -> Result<Self, ArrayError> {
        if sels.is_empty() {
            return Err(ArrayError::EmptyShape);
        }
        Ok(RangeQuery { sels: sels.into() })
    }

    /// A query that is `all` on every dimension of a `d`-dimensional cube.
    pub fn all(d: usize) -> Result<Self, ArrayError> {
        RangeQuery::new(vec![DimSelection::All; d])
    }

    /// Builds the query equivalent to a concrete [`Region`]: one span (or
    /// singleton) per dimension. Spans that happen to cover a whole domain
    /// are classified as `all` later, by [`RangeQuery::cuboid`] against a
    /// shape; the region itself does not know the domain extents.
    pub fn from_region(region: &Region) -> Self {
        let sels: Vec<DimSelection> = region
            .ranges()
            .iter()
            .map(|r| {
                if r.len() == 1 {
                    DimSelection::Single(r.lo())
                } else {
                    DimSelection::Span(*r)
                }
            })
            .collect();
        RangeQuery { sels: sels.into() }
    }

    /// The per-dimension selections.
    pub fn selections(&self) -> &[DimSelection] {
        &self.sels
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.sels.len()
    }

    /// Resolves the query into a concrete [`Region`] of the given shape.
    ///
    /// # Errors
    /// Reports dimension mismatches and out-of-domain selections.
    pub fn to_region(&self, shape: &Shape) -> Result<Region, ArrayError> {
        if self.sels.len() != shape.ndim() {
            return Err(ArrayError::DimMismatch {
                expected: shape.ndim(),
                actual: self.sels.len(),
            });
        }
        let mut ranges = Vec::with_capacity(self.sels.len());
        // analyzer: allow(budget-coverage, reason = "per-axis selection resolution: trip count = ndim")
        for (axis, (sel, &n)) in self.sels.iter().zip(shape.dims()).enumerate() {
            let r = sel.resolve(n).map_err(|e| match e {
                ArrayError::OutOfBounds { index, extent, .. } => ArrayError::OutOfBounds {
                    axis,
                    index,
                    extent,
                },
                other => other,
            })?;
            ranges.push(r);
        }
        Region::new(ranges)
    }

    /// Whether this is a singleton query (every dimension `all` or a single
    /// value) — answerable from one cell of the \[GBLP96\] extended cube.
    pub fn is_singleton(&self, shape: &Shape) -> bool {
        self.sels
            .iter()
            .zip(shape.dims())
            .all(|(s, &n)| !s.is_active(n))
    }

    /// The cuboid this query is assigned to: the set of dimensions on which
    /// the query is **not** `all` (§9: "queries with ranges on dimensions
    /// d1 and d2 and `all` on dimension d3 will be assigned to the cuboid
    /// ⟨d1, d2⟩").
    pub fn cuboid(&self, shape: &Shape) -> CuboidId {
        let mut id = CuboidId::empty();
        // analyzer: allow(budget-coverage, reason = "cuboid assignment: trip count = ndim, not data volume")
        for (axis, (sel, &n)) in self.sels.iter().zip(shape.dims()).enumerate() {
            let covers_all = match *sel {
                DimSelection::All => true,
                DimSelection::Single(_) => false,
                DimSelection::Span(r) => r.len() == n,
            };
            if !covers_all {
                id = id.with_dim(axis);
            }
        }
        id
    }

    /// The set of active dimensions with respect to the cube shape.
    pub fn active_dims(&self, shape: &Shape) -> Vec<usize> {
        self.sels
            .iter()
            .zip(shape.dims())
            .enumerate()
            .filter_map(|(axis, (s, &n))| s.is_active(n).then_some(axis))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape4() -> Shape {
        // The paper's insurance cube: age × year × state × type.
        Shape::new(&[100, 10, 50, 3]).unwrap()
    }

    #[test]
    fn insurance_query_resolves() {
        // "age 37 to 52, year 1988–1996 (ranks 1:9), all of U.S., auto".
        let q = RangeQuery::new(vec![
            DimSelection::span(37, 52).unwrap(),
            DimSelection::span(1, 9).unwrap(),
            DimSelection::All,
            DimSelection::Single(1),
        ])
        .unwrap();
        let region = q.to_region(&shape4()).unwrap();
        assert_eq!(region.volume(), (16 * 9 * 50));
    }

    #[test]
    fn active_and_passive_dims() {
        let shape = shape4();
        let q = RangeQuery::new(vec![
            DimSelection::span(37, 52).unwrap(),
            DimSelection::span(1, 9).unwrap(),
            DimSelection::All,
            DimSelection::Single(1),
        ])
        .unwrap();
        assert_eq!(q.active_dims(&shape), vec![0, 1]);
        assert!(!q.is_singleton(&shape));
    }

    #[test]
    fn span_covering_domain_is_passive() {
        let shape = Shape::new(&[10, 10]).unwrap();
        let q = RangeQuery::new(vec![
            DimSelection::span(0, 9).unwrap(),
            DimSelection::Single(3),
        ])
        .unwrap();
        assert!(q.active_dims(&shape).is_empty());
        assert!(q.is_singleton(&shape));
    }

    #[test]
    fn cuboid_assignment_ignores_all() {
        let shape = Shape::new(&[10, 10, 10]).unwrap();
        let q = RangeQuery::new(vec![
            DimSelection::span(2, 5).unwrap(),
            DimSelection::All,
            DimSelection::Single(7),
        ])
        .unwrap();
        // Ranges on d0, all on d1, singleton on d2 → cuboid {d0, d2}.
        assert_eq!(q.cuboid(&shape), CuboidId::from_dims(&[0, 2]));
    }

    #[test]
    fn full_span_assigned_like_all() {
        let shape = Shape::new(&[10, 10]).unwrap();
        let q = RangeQuery::new(vec![
            DimSelection::Span(Range::new(0, 9).unwrap()),
            DimSelection::Single(0),
        ])
        .unwrap();
        assert_eq!(q.cuboid(&shape), CuboidId::from_dims(&[1]));
    }

    #[test]
    fn to_region_rejects_out_of_domain() {
        let shape = Shape::new(&[10, 10]).unwrap();
        let q =
            RangeQuery::new(vec![DimSelection::span(5, 12).unwrap(), DimSelection::All]).unwrap();
        assert_eq!(
            q.to_region(&shape),
            Err(ArrayError::OutOfBounds {
                axis: 0,
                index: 12,
                extent: 10
            })
        );
    }

    #[test]
    fn dim_mismatch_detected() {
        let q = RangeQuery::all(3).unwrap();
        let shape = Shape::new(&[10, 10]).unwrap();
        assert_eq!(
            q.to_region(&shape),
            Err(ArrayError::DimMismatch {
                expected: 2,
                actual: 3
            })
        );
    }

    #[test]
    fn span_collapses_singleton() {
        assert_eq!(DimSelection::span(4, 4).unwrap(), DimSelection::Single(4));
    }

    #[test]
    fn from_region_round_trips() {
        let shape = Shape::new(&[10, 10, 10]).unwrap();
        let region = Region::from_bounds(&[(2, 5), (7, 7), (0, 9)]).unwrap();
        let q = RangeQuery::from_region(&region);
        assert_eq!(q.to_region(&shape).unwrap(), region);
        assert_eq!(q.selections()[1], DimSelection::Single(7));
        // The full-domain span is classified as `all` for cuboid purposes.
        assert_eq!(q.cuboid(&shape), CuboidId::from_dims(&[0, 1]));
    }

    #[test]
    fn heuristic_length_rules() {
        // Active attribute contributes its range length; passive contributes 1.
        assert_eq!(
            DimSelection::span(0, 99).unwrap().heuristic_length(1000),
            100
        );
        assert_eq!(DimSelection::Single(5).heuristic_length(1000), 1);
        assert_eq!(DimSelection::All.heuristic_length(1000), 1);
        assert_eq!(DimSelection::span(0, 9).unwrap().heuristic_length(10), 1);
    }
}
