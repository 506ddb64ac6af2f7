//! Model calibration: the §9 planner's Equation-3 predictions vs the
//! accesses a materialized plan actually performs — the check that the
//! analytic machinery the paper plans with describes the implementation
//! it plans for.

use olap_cube::array::Shape;
use olap_cube::engine::PlannedIndex;
use olap_cube::planner::{cost, GreedyPlanner};
use olap_cube::workload::{synthetic_log, uniform_cube, CuboidMix};

#[test]
fn planned_cost_tracks_measured_accesses() {
    let shape = Shape::new(&[120, 80, 10]).unwrap();
    let cube = uniform_cube(shape.clone(), 100, 21);
    let log = synthetic_log(
        &shape,
        &[
            CuboidMix {
                dims: vec![0, 1],
                side: 24,
                count: 40,
            },
            CuboidMix {
                dims: vec![0],
                side: 60,
                count: 20,
            },
        ],
        22,
    );
    let planner = GreedyPlanner::new(shape, log.cuboid_stats(), 3_000.0);
    let plan = planner.plan();
    assert!(!plan.choices.is_empty());
    let index = PlannedIndex::build(cube.clone(), &plan.choices).unwrap();
    let mut measured = 0u64;
    for q in log.queries() {
        let (v, s) = index.range_sum(q).unwrap();
        let region = q.to_region(cube.shape()).unwrap();
        assert_eq!(v, cube.fold_region(&region, 0i64, |acc, &x| acc + x));
        measured += s.total_accesses();
    }
    // The model is an average-case approximation (F(b) ≈ b/4 of the
    // surface); require agreement within a factor of 3 in both directions.
    let predicted = plan.total_cost;
    let measured = measured as f64;
    assert!(
        measured <= predicted * 3.0 && predicted <= measured * 3.0,
        "predicted {predicted:.0} vs measured {measured:.0}"
    );
}

#[test]
fn equation3_describes_the_blocked_implementation() {
    use olap_cube::prefix_sum::{BlockedPrefixCube, BoundaryPolicy};
    use olap_cube::query::QueryCtx;
    use olap_cube::workload::sided_regions;
    // Fixed-side queries so Table-1 statistics are exact, not averaged.
    let shape = Shape::new(&[400, 400]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 31);
    for (b, side) in [(8usize, 64usize), (16, 96), (32, 128)] {
        let bp = BlockedPrefixCube::build(&a, b).unwrap();
        let queries = sided_regions(&shape, side, 40, (b + side) as u64);
        let mut total = 0u64;
        for q in &queries {
            let (_, s) =
                QueryCtx::measure(|ctx| bp.read(&a, q, BoundaryPolicy::Auto, ctx)).unwrap();
            total += s.total_accesses();
        }
        let measured = total as f64 / queries.len() as f64;
        let surface = 4.0 * side as f64; // 2d · V / x, d = 2, square query
        let predicted = cost::prefix_sum_cost(2, surface, b);
        assert!(
            measured <= predicted * 2.0 && predicted <= measured * 2.0,
            "b={b} side={side}: predicted {predicted:.0}, measured {measured:.0}"
        );
    }
}
