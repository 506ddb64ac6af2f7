//! Choosing cuboids and block sizes under a space budget (§9.2, Figure 13).
//!
//! The problem is NP-complete (reduction from Set-Cover), so the paper
//! uses a greedy search — repeatedly add the cuboid whose best-block-size
//! prefix sum maximises benefit/space — followed by a drop-and-replace
//! fine-tuning loop.

use crate::cost;
use olap_array::Shape;
use olap_query::{CuboidId, CuboidStats};
use std::collections::BTreeMap;

/// A materialization decision: a prefix sum on `cuboid` with block size
/// `block` (1 = unblocked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixSumChoice {
    /// The cuboid to compute the prefix sum for.
    pub cuboid: CuboidId,
    /// Its block size.
    pub block: usize,
}

impl PrefixSumChoice {
    /// Storage cost in cells of the packed blocked array:
    /// `∏ ⌈n_j / b⌉` (asymptotically `N_c / b^{d_c}`).
    pub fn space(&self, shape: &Shape) -> f64 {
        self.cuboid
            .dims()
            .iter()
            .map(|&j| shape.dim(j).div_ceil(self.block.max(1)) as f64)
            .product()
    }
}

/// The planner's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen prefix sums.
    pub choices: Vec<PrefixSumChoice>,
    /// Expected total cost (elements accessed) of the whole log under the
    /// plan.
    pub total_cost: f64,
    /// Cells of storage consumed.
    pub space_used: f64,
}

/// Greedy cuboid/block-size selection (Figure 13).
///
/// # Examples
///
/// ```
/// use olap_array::Shape;
/// use olap_planner::GreedyPlanner;
/// use olap_query::{DimSelection, QueryLog, RangeQuery};
///
/// let shape = Shape::new(&[1000, 1000]).unwrap();
/// let mut log = QueryLog::new(shape.clone());
/// for _ in 0..50 {
///     log.push(RangeQuery::new(vec![
///         DimSelection::span(100, 299).unwrap(),
///         DimSelection::All,
///     ]).unwrap());
/// }
/// let planner = GreedyPlanner::new(shape, log.cuboid_stats(), 10_000.0);
/// let plan = planner.plan();
/// assert!(!plan.choices.is_empty());
/// assert!(plan.total_cost < planner.total_cost(&[]));
/// ```
#[derive(Debug, Clone)]
pub struct GreedyPlanner {
    shape: Shape,
    stats: BTreeMap<CuboidId, CuboidStats>,
    space_limit: f64,
    /// Candidate block sizes tried for every cuboid (plus the analytic
    /// optimum of §9.3).
    candidate_blocks: Vec<usize>,
}

impl GreedyPlanner {
    /// Creates a planner for a cube shape, per-cuboid query statistics
    /// (see [`olap_query::QueryLog::cuboid_stats`]) and a space budget in
    /// cells.
    pub fn new(shape: Shape, stats: BTreeMap<CuboidId, CuboidStats>, space_limit: f64) -> Self {
        GreedyPlanner {
            shape,
            stats,
            space_limit,
            candidate_blocks: vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100],
        }
    }

    /// Cost of answering one cuboid's average query with a prefix sum on
    /// `structure` (an ancestor-or-self cuboid) with block `b`:
    /// `2^{d_struct} + S·F(b)` — the Equation-3 model, with the corner
    /// count paid on the structure's dimensionality. Capped at the naive
    /// volume `V`: when the block dwarfs the query no complete block fits
    /// inside it and the blocked algorithm degrades to the scan (the
    /// §8 caveat for very small queries, in the pessimistic direction).
    fn query_cost_with(&self, q: &CuboidStats, structure: CuboidId, b: usize) -> f64 {
        let modelled = cost::prefix_sum_cost(structure.ndim(), q.avg.surface, b);
        modelled.min(q.avg.volume)
    }

    /// Cost of answering a cuboid's average query without any prefix sum:
    /// scan the `V` cells of the query sub-cube.
    fn naive_cost(q: &CuboidStats) -> f64 {
        q.avg.volume
    }

    /// Expected cost of the whole log under a set of choices: each query
    /// cuboid uses its cheapest applicable structure (an ancestor or
    /// itself) or falls back to the naive scan.
    pub fn total_cost(&self, choices: &[PrefixSumChoice]) -> f64 {
        self.stats
            .values()
            .map(|q| {
                let mut best = Self::naive_cost(q);
                for c in choices {
                    if c.cuboid.is_ancestor_of(&q.cuboid) {
                        best = best.min(self.query_cost_with(q, c.cuboid, c.block));
                    }
                }
                q.num_queries as f64 * best
            })
            .sum()
    }

    /// Space consumed by a set of choices.
    pub fn space_used(&self, choices: &[PrefixSumChoice]) -> f64 {
        choices.iter().map(|c| c.space(&self.shape)).sum()
    }

    /// The candidate cuboids: every ancestor (in the full lattice when the
    /// cube is small, otherwise ancestors of logged cuboids) of a logged
    /// cuboid, excluding the empty cuboid.
    fn candidates(&self) -> Vec<CuboidId> {
        let d = self.shape.ndim();
        if d <= 12 {
            CuboidId::lattice(d)
                .filter(|c| c.ndim() > 0)
                .filter(|c| self.stats.keys().any(|q| c.is_ancestor_of(q)))
                .collect()
        } else {
            // Large cubes: the logged cuboids plus the full cube.
            let mut v: Vec<CuboidId> = self
                .stats
                .keys()
                .copied()
                .filter(|c| c.ndim() > 0)
                .collect();
            v.push(CuboidId::full(d));
            v.sort();
            v.dedup();
            v
        }
    }

    /// The best (block size, benefit/space ratio, benefit) for adding
    /// `cuboid` given the current choices, or `None` when nothing fits or
    /// pays off.
    fn best_block_for(
        &self,
        cuboid: CuboidId,
        current: &[PrefixSumChoice],
        remaining: f64,
    ) -> Option<(usize, f64, f64)> {
        let base = self.total_cost(current);
        let mut blocks = self.candidate_blocks.clone();
        // Add the analytic §9.3 optimum for each affected descendant.
        for q in self.stats.values() {
            if cuboid.is_ancestor_of(&q.cuboid) {
                if let Some(b) =
                    cost::optimal_block_size(q.avg.volume, q.avg.surface, cuboid.ndim())
                {
                    blocks.push(b);
                }
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        let mut best: Option<(usize, f64, f64)> = None;
        for b in blocks {
            let choice = PrefixSumChoice { cuboid, block: b };
            let space = choice.space(&self.shape);
            if space > remaining || space <= 0.0 {
                continue;
            }
            let mut with = current.to_vec();
            with.push(choice);
            let benefit = base - self.total_cost(&with);
            if benefit <= 0.0 {
                continue;
            }
            let ratio = benefit / space;
            if best.is_none_or(|(_, br, _)| ratio > br) {
                best = Some((b, ratio, benefit));
            }
        }
        best
    }

    /// The best block-size *upgrade* of an already-chosen cuboid: replace
    /// its prefix sum with a smaller block size (more space, lower cost).
    /// This move is not spelled out in Figure 13 but is needed for the
    /// greedy to converge when space is plentiful: ratio-greedy otherwise
    /// locks in an early coarse block forever.
    fn best_upgrade_for(
        &self,
        pos: usize,
        current: &[PrefixSumChoice],
        remaining: f64,
    ) -> Option<(usize, f64)> {
        let base = self.total_cost(current);
        let old = *current.get(pos)?;
        let old_space = old.space(&self.shape);
        let mut best: Option<(usize, f64)> = None;
        for &b in self.candidate_blocks.iter().filter(|&&b| b < old.block) {
            let choice = PrefixSumChoice {
                cuboid: old.cuboid,
                block: b,
            };
            let delta_space = choice.space(&self.shape) - old_space;
            if delta_space > remaining {
                continue;
            }
            let mut with = current.to_vec();
            if let Some(slot) = with.get_mut(pos) {
                *slot = choice;
            }
            let benefit = base - self.total_cost(&with);
            if benefit <= 0.0 {
                continue;
            }
            let ratio = benefit / delta_space.max(1.0);
            if best.is_none_or(|(_, br)| ratio > br) {
                best = Some((b, ratio));
            }
        }
        best
    }

    /// One full greedy pass starting from `start` (Figure 13, first half,
    /// extended with block-size upgrades of already-chosen cuboids).
    fn greedy_from(&self, mut choices: Vec<PrefixSumChoice>) -> Vec<PrefixSumChoice> {
        enum Move {
            Add(CuboidId, usize),
            Upgrade(usize, usize),
        }
        loop {
            let remaining = self.space_limit - self.space_used(&choices);
            if remaining <= 0.0 {
                break;
            }
            let mut best: Option<(Move, f64)> = None;
            for cuboid in self.candidates() {
                if choices.iter().any(|c| c.cuboid == cuboid) {
                    continue;
                }
                if let Some((b, ratio, _)) = self.best_block_for(cuboid, &choices, remaining) {
                    if best.as_ref().is_none_or(|(_, br)| ratio > *br) {
                        best = Some((Move::Add(cuboid, b), ratio));
                    }
                }
            }
            for pos in 0..choices.len() {
                if let Some((b, ratio)) = self.best_upgrade_for(pos, &choices, remaining) {
                    if best.as_ref().is_none_or(|(_, br)| ratio > *br) {
                        best = Some((Move::Upgrade(pos, b), ratio));
                    }
                }
            }
            match best {
                Some((Move::Add(cuboid, block), _)) => {
                    choices.push(PrefixSumChoice { cuboid, block })
                }
                Some((Move::Upgrade(pos, block), _)) => {
                    if let Some(c) = choices.get_mut(pos) {
                        c.block = block;
                    }
                }
                None => break,
            }
        }
        choices
    }

    /// Runs the greedy algorithm plus the drop-and-replace fine-tuning
    /// loop (Figure 13, second half).
    pub fn plan(&self) -> Plan {
        let mut choices = self.greedy_from(Vec::new());
        // Fine-tuning: try dropping each choice and re-running the greedy
        // completion; keep any strict improvement. Bounded iterations.
        for _ in 0..8 {
            let cur_cost = self.total_cost(&choices);
            let mut improved = false;
            for i in 0..choices.len() {
                let mut without: Vec<PrefixSumChoice> = choices.clone();
                without.remove(i);
                let alt = self.greedy_from(without);
                if self.total_cost(&alt) < cur_cost {
                    choices = alt;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        Plan {
            total_cost: self.total_cost(&choices),
            space_used: self.space_used(&choices),
            choices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_query::{DimSelection, QueryLog, RangeQuery};

    /// A 3-d cube with ranges on ⟨d1,d2⟩ and on ⟨d1⟩.
    fn setup(space_limit: f64) -> GreedyPlanner {
        let shape = Shape::new(&[1000, 1000, 1000]).unwrap();
        let mut log = QueryLog::new(shape.clone());
        for _ in 0..80 {
            log.push(
                RangeQuery::new(vec![
                    DimSelection::span(100, 299).unwrap(),
                    DimSelection::span(0, 99).unwrap(),
                    DimSelection::All,
                ])
                .unwrap(),
            );
        }
        for _ in 0..20 {
            log.push(
                RangeQuery::new(vec![
                    DimSelection::span(50, 849).unwrap(),
                    DimSelection::All,
                    DimSelection::All,
                ])
                .unwrap(),
            );
        }
        GreedyPlanner::new(shape, log.cuboid_stats(), space_limit)
    }

    #[test]
    fn unlimited_space_gets_unblocked_prefix_sums() {
        let planner = setup(1e12);
        let plan = planner.plan();
        // With space to spare, b = 1 on the queried cuboids beats
        // everything (cost = 2^d per query).
        assert!(plan.total_cost <= 100.0 * 8.0);
        assert!(plan.choices.iter().any(|c| c.block == 1));
    }

    #[test]
    fn tight_space_forces_blocking() {
        // Budget far below N_{d1,d2} = 10^6 cells forces a blocked array.
        let planner = setup(20_000.0);
        let plan = planner.plan();
        assert!(plan.space_used <= 20_000.0);
        assert!(!plan.choices.is_empty());
        // The two-dimensional cuboid (10^6 cells) can only fit blocked;
        // smaller cuboids may still be unblocked.
        for c in plan.choices.iter().filter(|c| c.cuboid.ndim() >= 2) {
            assert!(c.block > 1, "{c:?} cannot fit unblocked in 20k cells");
        }
        // And the plan still beats the naive cost.
        assert!(plan.total_cost < planner.total_cost(&[]));
    }

    #[test]
    fn zero_space_yields_empty_plan() {
        let planner = setup(0.0);
        let plan = planner.plan();
        assert!(plan.choices.is_empty());
        assert_eq!(plan.total_cost, planner.total_cost(&[]));
    }

    #[test]
    fn ancestor_structure_serves_descendant_queries() {
        // Only the ⟨d1,d2⟩ structure fits; ⟨d1⟩ queries should still use it.
        let planner = setup(1e7);
        let plan = planner.plan();
        let naive = planner.total_cost(&[]);
        assert!(plan.total_cost < naive / 10.0);
    }

    #[test]
    fn total_cost_monotone_in_choices() {
        let planner = setup(1e9);
        let base = planner.total_cost(&[]);
        let one = planner.total_cost(&[PrefixSumChoice {
            cuboid: CuboidId::from_dims(&[0, 1]),
            block: 10,
        }]);
        let two = planner.total_cost(&[
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0, 1]),
                block: 10,
            },
            PrefixSumChoice {
                cuboid: CuboidId::from_dims(&[0]),
                block: 1,
            },
        ]);
        assert!(one <= base);
        assert!(two <= one);
    }

    #[test]
    fn space_accounting() {
        let shape = Shape::new(&[100, 200]).unwrap();
        let c = PrefixSumChoice {
            cuboid: CuboidId::from_dims(&[0, 1]),
            block: 10,
        };
        assert_eq!(c.space(&shape), 20_000.0 / 100.0);
        let c1 = PrefixSumChoice {
            cuboid: CuboidId::from_dims(&[1]),
            block: 1,
        };
        assert_eq!(c1.space(&shape), 200.0);
    }
}
