use crate::{CuboidId, QueryStats, RangeQuery};
use olap_array::Shape;
use std::collections::BTreeMap;

/// Aggregate statistics for the queries assigned to one cuboid — what §9
/// assumes is "given either a query log, or statistics which capture the
/// average query statistics for each cuboid as well as the number of
/// queries (N_Q)".
#[derive(Debug, Clone, PartialEq)]
pub struct CuboidStats {
    /// The cuboid these statistics describe.
    pub cuboid: CuboidId,
    /// Number of queries assigned to the cuboid, `N_Q`.
    pub num_queries: usize,
    /// Average Table-1 statistics across those queries, with side lengths
    /// ordered by the cuboid's dimensions.
    pub avg: QueryStats,
}

/// A collection of range queries against one cube shape — the OLAP log the
/// §9 planner consumes.
#[derive(Debug, Clone)]
pub struct QueryLog {
    shape: Shape,
    queries: Vec<RangeQuery>,
}

impl QueryLog {
    /// An empty log for a cube shape.
    pub fn new(shape: Shape) -> Self {
        QueryLog {
            shape,
            queries: Vec::new(),
        }
    }

    /// Builds a log from existing queries.
    pub fn from_queries(shape: Shape, queries: Vec<RangeQuery>) -> Self {
        QueryLog { shape, queries }
    }

    /// The cube shape the log targets.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Appends a query.
    pub fn push(&mut self, q: RangeQuery) {
        self.queries.push(q);
    }

    /// The recorded queries.
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// Number of recorded queries, `m`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Groups queries by the cuboid they are assigned to (§9) and averages
    /// their Table-1 statistics.
    ///
    /// The side lengths of each average are reported **per cuboid
    /// dimension**, in ascending dimension order; `all` dimensions do not
    /// contribute (the query runs on the cuboid slice, where they have been
    /// aggregated away).
    #[expect(
        clippy::expect_used,
        reason = "every logged query was validated against the shape on insertion"
    )]
    pub fn cuboid_stats(&self) -> BTreeMap<CuboidId, CuboidStats> {
        let mut acc: BTreeMap<CuboidId, (usize, Vec<f64>)> = BTreeMap::new();
        for q in &self.queries {
            let cuboid = q.cuboid(&self.shape);
            let dims = cuboid.dims();
            let region = q
                .to_region(&self.shape)
                .expect("log queries validated on insertion against shape");
            let sides: Vec<f64> = dims.iter().map(|&d| region.range(d).len() as f64).collect();
            let entry = acc
                .entry(cuboid)
                .or_insert_with(|| (0, vec![0.0; sides.len()]));
            entry.0 += 1;
            for (s, x) in entry.1.iter_mut().zip(sides.iter()) {
                *s += x;
            }
        }
        acc.into_iter()
            .map(|(cuboid, (n, side_sums))| {
                let sides: Vec<f64> = side_sums.iter().map(|s| s / n as f64).collect();
                let avg = if sides.is_empty() {
                    // The empty cuboid (all-`all` queries): a point query.
                    QueryStats {
                        volume: 1.0,
                        side_lengths: vec![],
                        surface: 0.0,
                    }
                } else {
                    QueryStats::from_sides(&sides)
                };
                (
                    cuboid,
                    CuboidStats {
                        cuboid,
                        num_queries: n,
                        avg,
                    },
                )
            })
            .collect()
    }

    /// The `r_ij` matrix of §9.1 (rows = queries, columns = dimensions):
    /// the range length for active attributes, `1` for passive ones.
    pub fn heuristic_lengths(&self) -> Vec<Vec<usize>> {
        self.queries
            .iter()
            .map(|q| {
                q.selections()
                    .iter()
                    .zip(self.shape.dims())
                    .map(|(s, &n)| s.heuristic_length(n))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimSelection;

    fn shape() -> Shape {
        Shape::new(&[1000, 1000, 1000]).unwrap()
    }

    fn q(sels: Vec<DimSelection>) -> RangeQuery {
        RangeQuery::new(sels).unwrap()
    }

    #[test]
    fn groups_by_cuboid() {
        let mut log = QueryLog::new(shape());
        log.push(q(vec![
            DimSelection::span(0, 99).unwrap(),
            DimSelection::span(0, 199).unwrap(),
            DimSelection::All,
        ]));
        log.push(q(vec![
            DimSelection::span(100, 299).unwrap(),
            DimSelection::span(0, 99).unwrap(),
            DimSelection::All,
        ]));
        log.push(q(vec![
            DimSelection::All,
            DimSelection::All,
            DimSelection::Single(5),
        ]));
        let stats = log.cuboid_stats();
        assert_eq!(stats.len(), 2);
        let c01 = &stats[&CuboidId::from_dims(&[0, 1])];
        assert_eq!(c01.num_queries, 2);
        // Average sides: (100+200)/2 = 150 on d0, (200+100)/2 = 150 on d1.
        assert_eq!(c01.avg.side_lengths, vec![150.0, 150.0]);
        assert_eq!(c01.avg.volume, 150.0 * 150.0);
        let c2 = &stats[&CuboidId::from_dims(&[2])];
        assert_eq!(c2.num_queries, 1);
        assert_eq!(c2.avg.side_lengths, vec![1.0]);
    }

    #[test]
    fn heuristic_lengths_match_figure12_semantics() {
        // Build the Figure 12 example: 3 queries over 5 attributes.
        let shape = Shape::new(&[1000, 1000, 1000, 1000, 1000]).unwrap();
        let rows = [
            [1usize, 100, 1, 3, 1],
            [200, 1, 100, 1, 1],
            [500, 500, 1, 1, 1],
        ];
        let mut log = QueryLog::new(shape);
        for row in rows {
            log.push(q(row
                .iter()
                .map(|&len| {
                    if len == 1 {
                        DimSelection::Single(0)
                    } else {
                        DimSelection::span(0, len - 1).unwrap()
                    }
                })
                .collect()));
        }
        let r = log.heuristic_lengths();
        assert_eq!(r[0], vec![1, 100, 1, 3, 1]);
        assert_eq!(r[1], vec![200, 1, 100, 1, 1]);
        assert_eq!(r[2], vec![500, 500, 1, 1, 1]);
    }

    #[test]
    fn empty_cuboid_stats() {
        let mut log = QueryLog::new(shape());
        log.push(RangeQuery::all(3).unwrap());
        let stats = log.cuboid_stats();
        let grand = &stats[&CuboidId::empty()];
        assert_eq!(grand.num_queries, 1);
        assert_eq!(grand.avg.volume, 1.0);
    }
}
