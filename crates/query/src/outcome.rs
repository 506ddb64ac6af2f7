//! The unified answer vocabulary every engine speaks.
//!
//! A query's result is more than a number: the paper's whole argument is
//! about *which structure* answered and *what it cost* (§8's element-access
//! metric). [`QueryOutcome`] carries all three — the [`Answer`], the
//! measured [`AccessStats`], and the [`EngineKind`] that produced them — so
//! heterogeneous backends become comparable and routable.

use crate::AccessStats;
use std::fmt;

/// The structure (paper section) that actually answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The basic §3 prefix-sum array (`2^d` lookups).
    PrefixSum,
    /// The §4 blocked prefix-sum array.
    BlockedPrefix,
    /// The §8 hierarchical tree-sum baseline.
    TreeSum,
    /// The §6 range-max tree.
    MaxTree,
    /// The §6 structure under the reversed order (range-min).
    MinTree,
    /// The \[GBLP96\] extended data cube of §1.
    ExtendedCube,
    /// A §9-planned cuboid structure (blocked prefix sum over a slice).
    PlannedCuboid,
    /// The no-precomputation scan of the base cube.
    NaiveScan,
    /// The §10.2 sparse range-sum engine (dense regions + R*-tree).
    SparseSum,
    /// The §10.3 sparse range-max engine (R-tree with cached maxima).
    SparseMax,
    /// A result cache answering a repeated region from its stored sum.
    SemanticCache,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EngineKind::PrefixSum => "basic prefix sum (§3)",
            EngineKind::BlockedPrefix => "blocked prefix sum (§4)",
            EngineKind::TreeSum => "tree sum (§8)",
            EngineKind::MaxTree => "range-max tree (§6)",
            EngineKind::MinTree => "range-min tree (§6, reversed order)",
            EngineKind::ExtendedCube => "extended cube [GBLP96]",
            EngineKind::PlannedCuboid => "planned cuboid (§9)",
            EngineKind::NaiveScan => "naive scan",
            EngineKind::SparseSum => "sparse range-sum (§10.2)",
            EngineKind::SparseMax => "sparse range-max (§10.3)",
            EngineKind::SemanticCache => "semantic cache (exact repeat)",
        };
        f.write_str(name)
    }
}

/// The value part of a query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer<V> {
    /// An aggregate value (SUM, COUNT, any group/monoid combine).
    Aggregate(V),
    /// An extremum with the index where it is attained (MAX/MIN).
    Extremum {
        /// Cell index of the extremal value.
        at: Vec<usize>,
        /// The extremal value itself.
        value: V,
    },
    /// The region holds no data (sparse engines over empty regions).
    Empty,
}

impl<V> Answer<V> {
    /// The carried value, if any.
    pub fn value(&self) -> Option<&V> {
        match self {
            Answer::Aggregate(v) | Answer::Extremum { value: v, .. } => Some(v),
            Answer::Empty => None,
        }
    }
}

impl<V: fmt::Display> fmt::Display for Answer<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Aggregate(v) => write!(f, "{v}"),
            Answer::Extremum { at, value } => write!(f, "{value} at {at:?}"),
            Answer::Empty => f.write_str("(empty)"),
        }
    }
}

/// What a [`crate::RangeQuery`] produced: the answer, the measured access
/// statistics, and the structure that answered — the lingua franca between
/// engines, the adaptive router, and `explain` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome<V> {
    /// The answer value.
    pub answer: Answer<V>,
    /// Elements accessed while answering (the §8 cost proxy).
    pub stats: AccessStats,
    /// Which structure answered.
    pub answered_by: EngineKind,
}

impl<V> QueryOutcome<V> {
    /// An aggregate outcome.
    pub fn aggregate(value: V, stats: AccessStats, answered_by: EngineKind) -> Self {
        QueryOutcome {
            answer: Answer::Aggregate(value),
            stats,
            answered_by,
        }
    }

    /// An extremum outcome.
    pub fn extremum(at: Vec<usize>, value: V, stats: AccessStats, answered_by: EngineKind) -> Self {
        QueryOutcome {
            answer: Answer::Extremum { at, value },
            stats,
            answered_by,
        }
    }

    /// An empty outcome (no data in the region).
    pub fn empty(stats: AccessStats, answered_by: EngineKind) -> Self {
        QueryOutcome {
            answer: Answer::Empty,
            stats,
            answered_by,
        }
    }

    /// The answer value, if any.
    pub fn value(&self) -> Option<&V> {
        self.answer.value()
    }

    /// The §8 cost of this answer: total elements accessed.
    pub fn cost(&self) -> u64 {
        self.stats.total_accesses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_carries_value_stats_and_kind() {
        let mut stats = AccessStats::new();
        stats.read_p(4);
        let o = QueryOutcome::aggregate(42i64, stats, EngineKind::PrefixSum);
        assert_eq!(o.value(), Some(&42));
        assert_eq!(o.cost(), 4);
        assert_eq!(o.answered_by, EngineKind::PrefixSum);
    }

    #[test]
    fn extremum_and_empty_answers() {
        let o = QueryOutcome::extremum(vec![3, 1], 9i64, AccessStats::new(), EngineKind::MaxTree);
        assert_eq!(o.value(), Some(&9));
        assert_eq!(format!("{}", o.answer), "9 at [3, 1]");
        let e: QueryOutcome<i64> = QueryOutcome::empty(AccessStats::new(), EngineKind::SparseMax);
        assert_eq!(e.value(), None);
        assert_eq!(format!("{}", e.answer), "(empty)");
    }

    #[test]
    fn kinds_display_their_paper_sections() {
        assert_eq!(EngineKind::PrefixSum.to_string(), "basic prefix sum (§3)");
        assert_eq!(
            EngineKind::SparseSum.to_string(),
            "sparse range-sum (§10.2)"
        );
    }
}
