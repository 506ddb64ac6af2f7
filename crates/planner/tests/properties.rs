//! Property tests for the planner: cost-model sanity and greedy-search
//! monotonicity.

use olap_array::Shape;
use olap_planner::{
    benefit_space_ratio, choose_dimensions_exact, choose_dimensions_heuristic, f_of_b,
    optimal_block_size, prefix_sum_cost, selection_cost, tree_cost, tree_depth, GreedyPlanner,
    PrefixSumChoice,
};
use olap_query::{CuboidId, DimSelection, QueryLog, RangeQuery};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn f_of_b_is_monotone_and_close_to_quarter(b in 1usize..500) {
        prop_assert!(f_of_b(b) <= f_of_b(b + 1));
        prop_assert!((f_of_b(b) - b as f64 / 4.0).abs() <= 0.25);
    }

    #[test]
    fn prefix_cost_beats_tree_cost(
        d in 2usize..5,
        b in 2usize..40,
        surface in 10.0f64..10_000.0,
        n in 64usize..100_000,
    ) {
        // §8's conclusion, as an inequality over the whole model domain:
        // with equal storage the tree pays the blocked prefix's boundary
        // cost at every level, so it can be cheaper only by the 2^d corner
        // term.
        let depth = tree_depth(n, b).unwrap();
        let p = prefix_sum_cost(d, surface, b);
        let t = tree_cost(d, surface, b, depth);
        prop_assert!(t + (1u64 << d) as f64 >= p - 1e-9);
    }

    #[test]
    fn optimal_block_size_is_the_argmax(
        v in 10.0f64..100_000.0,
        s in 4.0f64..10_000.0,
        d in 1usize..5,
    ) {
        if let Some(b) = optimal_block_size(v, s, d) {
            let r = |b: usize| benefit_space_ratio(1.0, v, s, d, b);
            // Better than both integer neighbours (allowing ties).
            prop_assert!(r(b) >= r(b + 1) - 1e-9);
            if b > 1 {
                prop_assert!(r(b) >= r(b - 1) - 1e-9);
            }
        }
    }

    #[test]
    fn exact_dimension_selection_is_optimal(
        rows in prop::collection::vec(
            prop::collection::vec(1usize..200, 4),
            1..6,
        )
    ) {
        let shape = Shape::new(&[500; 4]).unwrap();
        let mut log = QueryLog::new(shape);
        for row in &rows {
            log.push(
                RangeQuery::new(
                    row.iter()
                        .map(|&len| {
                            if len == 1 {
                                DimSelection::Single(0)
                            } else {
                                DimSelection::span(0, len - 1).unwrap()
                            }
                        })
                        .collect(),
                )
                .unwrap(),
            );
        }
        let exact = choose_dimensions_exact(&log);
        let exact_cost = selection_cost(&log, &exact);
        // Beats every subset, including the heuristic's.
        for mask in 0u32..16 {
            let dims: Vec<usize> = (0..4).filter(|&j| (mask >> j) & 1 == 1).collect();
            prop_assert!(exact_cost <= selection_cost(&log, &dims) + 1e-9);
        }
        let h = choose_dimensions_heuristic(&log);
        prop_assert!(exact_cost <= selection_cost(&log, &h) + 1e-9);
    }

    #[test]
    fn more_budget_never_hurts(
        (side, count, b1, b2) in (5usize..200, 5usize..60, 1e3f64..1e6, 1e3f64..1e6)
    ) {
        let shape = Shape::new(&[1000, 500]).unwrap();
        let mut log = QueryLog::new(shape.clone());
        for _ in 0..count {
            log.push(
                RangeQuery::new(vec![
                    DimSelection::span(0, side).unwrap(),
                    DimSelection::All,
                ])
                .unwrap(),
            );
        }
        let stats = log.cuboid_stats();
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        let plan_lo = GreedyPlanner::new(shape.clone(), stats.clone(), lo).plan();
        let plan_hi = GreedyPlanner::new(shape, stats, hi).plan();
        prop_assert!(plan_hi.total_cost <= plan_lo.total_cost + 1e-9);
    }

    #[test]
    fn plan_respects_its_budget(
        budget in 10.0f64..1e6,
    ) {
        let shape = Shape::new(&[800, 400, 50]).unwrap();
        let mut log = QueryLog::new(shape.clone());
        for k in 0..30usize {
            log.push(
                RangeQuery::new(vec![
                    DimSelection::span(k, k + 99).unwrap(),
                    DimSelection::span(0, 49).unwrap(),
                    DimSelection::All,
                ])
                .unwrap(),
            );
        }
        let planner = GreedyPlanner::new(shape.clone(), log.cuboid_stats(), budget);
        let plan = planner.plan();
        prop_assert!(plan.space_used <= budget + 1e-9);
        // Space accounting matches per-choice sums.
        let manual: f64 = plan.choices.iter().map(|c| c.space(&shape)).sum();
        prop_assert!((manual - plan.space_used).abs() < 1e-9);
        // No duplicate cuboids in a plan.
        let mut cuboids: Vec<CuboidId> = plan.choices.iter().map(|c| c.cuboid).collect();
        cuboids.sort();
        let before = cuboids.len();
        cuboids.dedup();
        prop_assert_eq!(before, cuboids.len());
        // The reported cost is the model's cost of the choices.
        prop_assert!((planner.total_cost(&plan.choices) - plan.total_cost).abs() < 1e-9);
        let _ = PrefixSumChoice { cuboid: CuboidId::empty(), block: 1 };
    }
}

/// The case a real proptest run once shrank `optimal_block_size_is_the_argmax`
/// to. The vendored shim neither shrinks nor reads regression files, so
/// the case runs here by name.
#[test]
fn optimal_block_size_is_the_argmax_at_a_recorded_case() {
    let (v, s, d) = (1296.5952998957578, 3696.8309947017347, 1);
    // b* = (V − 2^d)/(S/4) · d/(d+1) ≈ 0.70: the maximiser is below 2, so
    // blocking never beats the basic algorithm and there is no `b − 1`.
    assert_eq!(optimal_block_size(v, s, d), None);
}
