//! Regenerates every figure and table of the paper, plus the ablations
//! DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p olap-bench --bin experiments            # everything
//! cargo run --release -p olap-bench --bin experiments -- fig11   # one experiment
//! ```
//!
//! Experiments: intro, fig11, fig12, fig14, thm2, thm3, volume-sweep,
//! greedy, sparse, update-batch, paging, partial-dims, max-aspect,
//! progressive, ablation-bb, ablation-blocked, ablation-start.

use olap_aggregate::SumOp;
use olap_array::{Region, Shape};
use olap_bench::{
    blocked_cost, header, naive_cost, prefix_cost, row, standard_cube, tree_sum_cost,
};
use olap_engine::naive;
use olap_planner as planner;
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_query::{DimSelection, QueryCtx, QueryLog, RangeQuery};
use olap_range_max::{NaturalMaxTree, SearchOptions};
use olap_sparse::{SparseCube, SparseRangeMax, SparseRangeSum};
use olap_tree_sum::SumTreeCube;
use olap_workload::{
    clustered_sparse_cube, sided_regions, synthetic_log, uniform_cube, uniform_regions, CuboidMix,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("intro") {
        intro();
    }
    if want("fig11") {
        fig11();
    }
    if want("fig12") {
        fig12();
    }
    if want("fig14") {
        fig14();
    }
    if want("thm2") {
        thm2();
    }
    if want("thm3") {
        thm3();
    }
    if want("volume-sweep") {
        volume_sweep();
    }
    if want("greedy") {
        greedy();
    }
    if want("sparse") {
        sparse();
    }
    if want("update-batch") {
        update_batch();
    }
    if want("paging") {
        paging();
    }
    if want("partial-dims") {
        partial_dims();
    }
    if want("max-aspect") {
        max_aspect();
    }
    if want("progressive") {
        progressive();
    }
    if want("ablation-bb") {
        ablation_bb();
    }
    if want("ablation-blocked") {
        ablation_blocked();
    }
    if want("ablation-start") {
        ablation_start();
    }
}

/// The §1 motivating comparison on the insurance cube: the \[GBLP96\]
/// extended cube answers singleton queries in 1 access but pays 16·9 for
/// the intro's range query; prefix sums pay ≤ 2^d for both.
fn intro() {
    use olap_engine::ExtendedCube;
    use olap_workload::InsuranceCube;
    println!("\n=== §1 intro: extended data cube vs prefix sums ===");
    let cube = InsuranceCube::generate(1997);
    let a = &cube.revenue;
    let extended = ExtendedCube::build(a, SumOp::<i64>::new()).expect("valid cube");
    let ps = PrefixSumCube::build(a);
    println!(
        "storage: cube {} cells; extended cube {} cells (paper: 101·11·51·4); prefix array {} cells",
        a.len(),
        extended.len(),
        ps.prefix_array().len()
    );
    // The singleton query (all, 1995, all, auto).
    let singleton = RangeQuery::new(vec![
        DimSelection::All,
        DimSelection::Single(InsuranceCube::year_rank(1995)),
        DimSelection::All,
        DimSelection::Single(InsuranceCube::type_rank("auto").expect("known")),
    ])
    .expect("4 dims");
    let (v1, s1) = extended.aggregate(&singleton).expect("valid");
    let (v2, s2) =
        QueryCtx::measure(|ctx| ps.read(&singleton.to_region(a.shape()).expect("in domain"), ctx))
            .expect("valid");
    assert_eq!(v1, v2);
    println!(
        "(all, 1995, all, auto):       extended cube {} access, prefix sums {} accesses",
        s1.total_accesses(),
        s2.total_accesses()
    );
    // The range query (37:52, 1988:1996, all, auto).
    let range_q = RangeQuery::new(vec![
        DimSelection::span(InsuranceCube::age_rank(37), InsuranceCube::age_rank(52))
            .expect("ordered"),
        DimSelection::span(
            InsuranceCube::year_rank(1988),
            InsuranceCube::year_rank(1996),
        )
        .expect("ordered"),
        DimSelection::All,
        DimSelection::Single(InsuranceCube::type_rank("auto").expect("known")),
    ])
    .expect("4 dims");
    let (v1, s1) = extended.aggregate(&range_q).expect("valid");
    let (v2, s2) =
        QueryCtx::measure(|ctx| ps.read(&range_q.to_region(a.shape()).expect("in domain"), ctx))
            .expect("valid");
    assert_eq!(v1, v2);
    println!(
        "(37:52, 1988:1996, all, auto): extended cube {} accesses (paper: 16·9 = 144), prefix sums {} accesses",
        s1.total_accesses(),
        s2.total_accesses()
    );
}

/// Figure 11: Cost(hierarchical tree) − Cost(prefix sum) vs α.
/// Analytic closed form for d ∈ {2,3,4}, b ∈ {10,20}; measured (cells
/// accessed) for d = 2 on a real cube.
fn fig11() {
    println!("\n=== Figure 11: Cost(tree) − Cost(prefix sum) vs α ===");
    println!("--- analytic: d·α^(d−1)·b/2 − 2^d ---");
    let alphas: Vec<usize> = vec![1, 2, 5, 10, 15, 20];
    let cols: Vec<String> = alphas.iter().map(|a| format!("α={a}")).collect();
    println!("{}", header("series", &cols));
    for (d, b) in [(4, 20), (4, 10), (3, 20), (3, 10), (2, 20), (2, 10)] {
        let cells: Vec<f64> = alphas
            .iter()
            .map(|&a| planner::fig11_difference(d, b, a as f64))
            .collect();
        println!("{}", row(&format!("d={d}, b={b}"), &cells));
    }
    println!("--- measured (d=2, 1024² uniform cube, 40 queries/point, cells accessed) ---");
    let a = standard_cube(1024, 11);
    let meas_alphas: Vec<usize> = vec![1, 2, 5, 10, 15, 20];
    let cols: Vec<String> = meas_alphas.iter().map(|a| format!("α={a}")).collect();
    println!("{}", header("series", &cols));
    for b in [10usize, 20] {
        let bp = BlockedPrefixCube::build(&a, b).expect("valid block");
        let st = SumTreeCube::build(&a, b).expect("valid fanout");
        let cells: Vec<f64> = meas_alphas
            .iter()
            .map(|&alpha| {
                let qs = sided_regions(a.shape(), alpha * b, 40, alpha as u64);
                tree_sum_cost(&st, &a, &qs, true) - blocked_cost(&bp, &a, &qs, BoundaryPolicy::Auto)
            })
            .collect();
        println!("{}", row(&format!("d=2, b={b} (measured)"), &cells));
    }
}

/// Figure 12: the §9.1 dimension-selection heuristic example.
fn fig12() {
    println!("\n=== Figure 12: choosing dimensions (§9.1) ===");
    let shape = Shape::new(&[1000; 5]).expect("valid");
    let rows = [
        [1usize, 100, 1, 3, 1],
        [200, 1, 100, 1, 1],
        [500, 500, 1, 1, 1],
    ];
    let mut log = QueryLog::new(shape);
    for r in rows {
        log.push(
            RangeQuery::new(
                r.iter()
                    .map(|&len| {
                        if len == 1 {
                            DimSelection::Single(0)
                        } else {
                            DimSelection::span(0, len - 1).expect("ordered")
                        }
                    })
                    .collect(),
            )
            .expect("5 dims"),
        );
    }
    let lengths = log.heuristic_lengths();
    println!("attribute      1      2      3      4      5");
    for (i, r) in lengths.iter().enumerate() {
        println!(
            "q{}        {:>5} {:>6} {:>6} {:>6} {:>6}",
            i + 1,
            r[0],
            r[1],
            r[2],
            r[3],
            r[4]
        );
    }
    let mut rj = [0usize; 5];
    for r in &lengths {
        for (j, &x) in r.iter().enumerate() {
            rj[j] += x;
        }
    }
    println!(
        "Rj        {:>5} {:>6} {:>6} {:>6} {:>6}",
        rj[0], rj[1], rj[2], rj[3], rj[4]
    );
    let h = planner::choose_dimensions_heuristic(&log);
    let e = planner::choose_dimensions_exact(&log);
    println!(
        "heuristic X' = {:?} (paper: {{1,2,3}}), cost {:.0}",
        h.iter().map(|d| d + 1).collect::<Vec<_>>(),
        planner::selection_cost(&log, &h)
    );
    println!(
        "exact     X' = {:?}, cost {:.0}",
        e.iter().map(|d| d + 1).collect::<Vec<_>>(),
        planner::selection_cost(&log, &e)
    );
}

/// Figure 14: benefit/space as a function of block size.
fn fig14() {
    println!("\n=== Figure 14: benefit/space vs block size (§9.3) ===");
    println!("--- the figure's label curve 100b² − 10b³ (d=2 instance) ---");
    for b in 1..=10usize {
        let v = 100.0 * (b * b) as f64 - 10.0 * (b * b * b) as f64;
        println!("b={b:>2}  benefit/space = {v:>8.0}  {}", bar(v / 40.0));
    }
    let b_star = planner::optimal_block_size(10004.0, 4000.0, 2).expect("pays off");
    println!("closed-form maximum: b* = 10·d/(d+1) = 6.67 → integer {b_star}");
    println!("--- the paper's §9.3 text example: d=3, V−2^d=1000, S=400 ---");
    for b in 1..=12usize {
        let r = planner::benefit_space_ratio(0.01, 1008.0, 400.0, 3, b);
        println!("b={b:>2}  benefit/space = {r:>10.0}");
    }
    let b3 = planner::optimal_block_size(1008.0, 400.0, 3).expect("pays off");
    println!("closed-form maximum: b* = 10·3/4 = 7.5 → integer {b3}");
}

fn bar(v: f64) -> String {
    "#".repeat(v.max(0.0) as usize)
}

/// Theorem 2: measured update-region counts vs the bound ∏(k+j)/d!.
fn thm2() {
    println!("\n=== Theorem 2: batch-update region counts ===");
    println!(
        "{}",
        header("k", &(1..=10).map(|k| format!("k={k}")).collect::<Vec<_>>())
    );
    for d in 1..=4usize {
        let dims = vec![32usize; d];
        let shape = Shape::new(&dims).expect("valid");
        let op = SumOp::<i64>::new();
        let mut worst: Vec<f64> = Vec::new();
        for k in 1..=10usize {
            let mut max_regions = 0usize;
            for trial in 0..30u64 {
                let updates: Vec<CellUpdate<i64>> = (0..k)
                    .map(|i| {
                        let idx: Vec<usize> = (0..d)
                            .map(|j| ((trial as usize + 1) * (i + 1) * (31 + 7 * j)) % 32)
                            .collect();
                        CellUpdate::new(&idx, 1)
                    })
                    .collect();
                let plan = batch::plan_regions(&shape, &op, &updates).expect("valid");
                max_regions = max_regions.max(plan.len());
            }
            worst.push(max_regions as f64);
        }
        println!("{}", row(&format!("d={d} measured max"), &worst));
        let bounds: Vec<f64> = (1..=10).map(|k| batch::max_regions(k, d)).collect();
        println!("{}", row(&format!("d={d} bound"), &bounds));
    }
}

/// Theorem 3: measured average accesses of the max-tree search vs the
/// bound b + 7 + 1/b.
fn thm3() {
    println!("\n=== Theorem 3: average-case max-tree accesses vs b + 7 + 1/b ===");
    println!(
        "{:>4} {:>14} {:>14} {:>14}",
        "b", "measured avg", "bound", "worst seen"
    );
    let n = 8192;
    let a = uniform_cube(Shape::new(&[n]).expect("valid"), 1_000_000, 99);
    for b in [2usize, 3, 4, 6, 8, 12, 16] {
        let t = NaturalMaxTree::for_values(&a, b).expect("fanout ≥ 2");
        let mut total = 0u64;
        let mut worst = 0u64;
        let queries = uniform_regions(a.shape(), 2000, b as u64 * 7 + 1);
        for q in &queries {
            let (_, s) = QueryCtx::measure(|ctx| t.read(&a, q, SearchOptions::default(), ctx))
                .expect("valid");
            total += s.total_accesses();
            worst = worst.max(s.total_accesses());
        }
        let avg = total as f64 / queries.len() as f64;
        let bound = b as f64 + 7.0 + 1.0 / b as f64;
        println!("{b:>4} {avg:>14.2} {bound:>14.2} {worst:>14}");
    }
}

/// The §11 prototype claim: advantage of precomputation grows with the
/// volume of the query sub-cube.
fn volume_sweep() {
    println!("\n=== Volume sweep (§11): cells accessed per query vs query side ===");
    let a = standard_cube(1024, 5);
    let ps = PrefixSumCube::build(&a);
    let bp10 = BlockedPrefixCube::build(&a, 10).expect("valid");
    let bp40 = BlockedPrefixCube::build(&a, 40).expect("valid");
    let st10 = SumTreeCube::build(&a, 10).expect("valid");
    let sides = [4usize, 16, 64, 128, 256, 512, 1000];
    let cols: Vec<String> = sides.iter().map(|s| format!("side={s}")).collect();
    println!("{}", header("engine", &cols));
    #[allow(clippy::type_complexity)]
    let per_engine: Vec<(&str, Box<dyn Fn(&[Region]) -> f64>)> = vec![
        ("naive scan", Box::new(|qs: &[Region]| naive_cost(&a, qs))),
        (
            "prefix sum (b=1)",
            Box::new(|qs: &[Region]| prefix_cost(&ps, qs)),
        ),
        (
            "blocked b=10",
            Box::new(|qs: &[Region]| blocked_cost(&bp10, &a, qs, BoundaryPolicy::Auto)),
        ),
        (
            "blocked b=40",
            Box::new(|qs: &[Region]| blocked_cost(&bp40, &a, qs, BoundaryPolicy::Auto)),
        ),
        (
            "tree-sum b=10 (§8)",
            Box::new(|qs: &[Region]| tree_sum_cost(&st10, &a, qs, true)),
        ),
    ];
    for (name, f) in &per_engine {
        let cells: Vec<f64> = sides
            .iter()
            .map(|&s| {
                let qs = sided_regions(a.shape(), s, 25, s as u64);
                f(&qs)
            })
            .collect();
        println!("{}", row(name, &cells));
    }
}

/// The §9.2 greedy cuboid/block-size planner on a synthetic log.
fn greedy() {
    println!("\n=== Greedy cuboid + block-size selection (§9.2, Figure 13) ===");
    let shape = Shape::new(&[1000, 500, 100, 50]).expect("valid");
    let log = synthetic_log(
        &shape,
        &[
            CuboidMix {
                dims: vec![0, 1],
                side: 100,
                count: 50,
            },
            CuboidMix {
                dims: vec![0],
                side: 300,
                count: 30,
            },
            CuboidMix {
                dims: vec![1, 2],
                side: 20,
                count: 20,
            },
        ],
        7,
    );
    let stats = log.cuboid_stats();
    for budget in [1e10, 1e6, 1e5, 1e4] {
        let p = planner::GreedyPlanner::new(shape.clone(), stats.clone(), budget);
        let plan = p.plan();
        println!(
            "budget {budget:>12.0} cells → cost {:>12.0} (naive {:>12.0})",
            plan.total_cost,
            p.total_cost(&[])
        );
        for c in &plan.choices {
            println!("    prefix sum on {} with b = {}", c.cuboid, c.block);
        }
    }
}

/// §10: sparse engines on a clustered ~dense-subcluster cube.
fn sparse() {
    println!("\n=== Sparse cubes (§10) ===");
    let shape = Shape::new(&[1000, 1000]).expect("valid");
    let pts = clustered_sparse_cube(&shape, 6, 40, 3000, 1000, 13);
    let cube = SparseCube::new(shape.clone(), pts).expect("valid points");
    println!(
        "cube: {} points / {} cells (density {:.2}%)",
        cube.len(),
        shape.len(),
        cube.density() * 100.0
    );
    let sum_engine = SparseRangeSum::build(&cube).expect("valid");
    println!(
        "dense regions: {} ({} outliers); prefix storage {} cells vs {} dense",
        sum_engine.region_count(),
        sum_engine.outlier_count(),
        sum_engine.prefix_cells(),
        shape.len()
    );
    let max_engine = SparseRangeMax::build(&cube);
    let queries = uniform_regions(&shape, 100, 17);
    let mut sum_nodes = 0u64;
    let mut max_nodes = 0u64;
    for q in &queries {
        let (v, s) = QueryCtx::measure(|ctx| sum_engine.read(q, ctx)).expect("valid");
        let expected: i64 = cube.points_in(q).map(|(_, v)| *v).sum();
        assert_eq!(v, expected);
        sum_nodes += s.total_accesses();
        let (_, s) = QueryCtx::measure(|ctx| max_engine.read(q, ctx)).expect("valid");
        max_nodes += s.total_accesses();
    }
    println!(
        "avg accesses/query: sparse-sum {:.1}, sparse-max {:.1} (naive scan of points: {:.1})",
        sum_nodes as f64 / queries.len() as f64,
        max_nodes as f64 / queries.len() as f64,
        cube.len() as f64
    );
}

/// §5: batched vs one-at-a-time prefix-sum maintenance.
fn update_batch() {
    println!("\n=== Batch updates (§5): cells written, batched vs one-at-a-time ===");
    let shape = Shape::new(&[256, 256]).expect("valid");
    let a = uniform_cube(shape.clone(), 100, 3);
    println!(
        "{:>4} {:>16} {:>16} {:>10}",
        "k", "batched cells", "naive cells", "ratio"
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let updates: Vec<CellUpdate<i64>> = (0..k)
            .map(|i| CellUpdate::new(&[(i * 37) % 256, (i * 61) % 256], 1))
            .collect();
        // Batched: cells covered by the planned regions.
        let op = SumOp::<i64>::new();
        let plan = batch::plan_regions(&shape, &op, &updates).expect("valid");
        let batched: u64 = plan.iter().map(|(r, _)| r.volume() as u64).sum();
        // One-at-a-time: each update touches all P[y ≥ x].
        let naive: u64 = updates
            .iter()
            .map(|u| {
                u.index
                    .iter()
                    .zip(shape.dims())
                    .map(|(&x, &n)| (n - x) as u64)
                    .product::<u64>()
            })
            .sum();
        println!(
            "{k:>4} {batched:>16} {naive:>16} {:>10.2}",
            naive as f64 / batched as f64
        );
        // Correctness spot check.
        let mut ps = PrefixSumCube::build(&a);
        batch::apply_batch(&mut ps, &updates).expect("valid");
    }
}

/// §3.3's implementation note: storage-order vs dimension-order traversal
/// during the d-phase prefix-sum computation, measured in page faults.
fn paging() {
    use olap_prefix_sum::paging::{simulate_build_faults, storage_order_bound, ScanOrder};
    println!("\n=== Paging (§3.3): page faults during the P computation ===");
    println!(
        "{:<16} {:>8} {:>14} {:>16} {:>14}",
        "shape", "cache", "storage order", "dimension order", "2·pages·d bound"
    );
    for (dims, page, cache) in [
        (vec![256usize, 256], 64usize, 4usize),
        (vec![256, 256], 64, 16),
        (vec![64, 64, 16], 64, 4),
        (vec![1024, 64], 64, 8),
    ] {
        let shape = Shape::new(&dims).expect("valid");
        let s = simulate_build_faults(&shape, ScanOrder::Storage, page, cache);
        let d = simulate_build_faults(&shape, ScanOrder::Dimension, page, cache);
        let bound = storage_order_bound(&shape, page);
        println!(
            "{:<16} {:>8} {:>14} {:>16} {:>14}",
            format!("{dims:?}"),
            cache,
            s,
            d,
            bound
        );
    }
}

/// §9.1 executed: prefix sums along a subset of dimensions, measured
/// access counts per selection.
fn partial_dims() {
    use olap_prefix_sum::PartialPrefixCube;
    println!("\n=== Partial prefix sums (§9.1): accesses per dimension subset ===");
    // A cube whose queries range over d0,d1 but always pin d2.
    let shape = Shape::new(&[64, 64, 16]).expect("valid");
    let a = uniform_cube(shape.clone(), 100, 3);
    let queries: Vec<Region> = (0..50)
        .map(|i| {
            Region::from_bounds(&[
                ((i * 3) % 30, (i * 3) % 30 + 20),
                ((i * 7) % 30, (i * 7) % 30 + 25),
                ((i * 5) % 16, (i * 5) % 16), // singleton on d2
            ])
            .expect("in bounds")
        })
        .collect();
    for dims in [vec![], vec![0], vec![0, 1], vec![0, 1, 2]] {
        let pp = PartialPrefixCube::build(&a, &dims).expect("valid dims");
        let mut total = 0u64;
        for q in &queries {
            let (_, s) = QueryCtx::measure(|ctx| pp.read(q, ctx)).expect("valid query");
            total += s.total_accesses();
        }
        println!(
            "X' = {:?}: avg accesses/query = {:.1}",
            dims.iter().map(|d| d + 1).collect::<Vec<_>>(),
            total as f64 / queries.len() as f64
        );
    }
    println!("(ranges on d1,d2; singleton on d3 — X'={{1,2}} avoids the wasted d3 corners)");
}

/// §6.2's remark on d-dimensional range-max: savings "depend mostly on
/// r_min and r_max"; "if r_min > 2b − 2 then there always exists a
/// reduction". Sweeps query aspect ratios at fixed volume.
fn max_aspect() {
    use olap_range_max::NaturalMaxTree;
    println!("\n=== Range-max vs query aspect ratio (§6.2) ===");
    let b = 4usize;
    let a = uniform_cube(Shape::new(&[512, 512]).expect("valid"), 1_000_000, 7);
    let t = NaturalMaxTree::for_values(&a, b).expect("fanout ≥ 2");
    // Fixed volume ≈ 4096 cells, varying r_min × r_max split.
    println!(
        "{:>8} {:>8} {:>10} {:>16} {:>14}",
        "r_min", "r_max", "volume", "avg accesses", "r_min > 2b−2?"
    );
    for (rmin, rmax) in [(4usize, 1024usize), (8, 512), (16, 256), (64, 64)] {
        let rmax = rmax.min(512);
        let mut total = 0u64;
        let count = 200u64;
        for i in 0..count {
            let x0 = ((i * 37) as usize) % (512 - rmin);
            let y0 = ((i * 53) as usize) % (512 - rmax + 1);
            let q = Region::from_bounds(&[(x0, x0 + rmin - 1), (y0, y0 + rmax - 1)])
                .expect("in bounds");
            let (_, s) = QueryCtx::measure(|ctx| t.read(&a, &q, SearchOptions::default(), ctx))
                .expect("valid");
            total += s.total_accesses();
        }
        println!(
            "{rmin:>8} {rmax:>8} {:>10} {:>16.1} {:>14}",
            rmin * rmax,
            total as f64 / count as f64,
            if rmin > 2 * b - 2 { "yes" } else { "no" }
        );
    }
    println!("(square queries — r_min close to r_max — prune best, as §6.2 predicts)");
}

/// §11's progressive answers: how tight are the instant bounds (from P
/// alone) as a function of the block size, before the exact sum arrives?
fn progressive() {
    println!("\n=== Progressive answers (§11): bound tightness vs block size ===");
    let a = uniform_cube(Shape::new(&[512, 512]).expect("valid"), 1000, 3);
    let queries = uniform_regions(a.shape(), 200, 4);
    println!(
        "{:>4} {:>16} {:>16} {:>14}",
        "b", "avg rel. gap", "bound lookups", "exact accesses"
    );
    for b in [4usize, 8, 16, 32, 64] {
        let bp = BlockedPrefixCube::build(&a, b).expect("valid block");
        let mut gap = 0.0f64;
        let mut bound_cost = 0u64;
        let mut exact_cost = 0u64;
        let mut counted = 0usize;
        for q in &queries {
            let (bounds, s1) = bp.range_sum_bounds(q).expect("valid");
            let (exact, s2) =
                QueryCtx::measure(|ctx| bp.read(&a, q, BoundaryPolicy::Auto, ctx)).expect("valid");
            assert!(bounds.lower <= exact && exact <= bounds.upper);
            if exact > 0 {
                gap += (bounds.upper - bounds.lower) as f64 / exact as f64;
                counted += 1;
            }
            bound_cost += s1.total_accesses();
            exact_cost += s2.total_accesses();
        }
        println!(
            "{b:>4} {:>15.1}% {:>16.1} {:>14.1}",
            gap / counted as f64 * 100.0,
            bound_cost as f64 / queries.len() as f64,
            exact_cost as f64 / queries.len() as f64
        );
    }
    println!(
        "(smaller blocks → tighter instant bounds but more storage; the bounds never touch A)"
    );
}

/// Ablation: branch-and-bound and boundary-sorting in the max tree.
fn ablation_bb() {
    println!("\n=== Ablation: branch-and-bound in the range-max search (§6) ===");
    let a = standard_cube(512, 21);
    let t = NaturalMaxTree::for_values(&a, 4).expect("fanout ≥ 2");
    let queries = uniform_regions(a.shape(), 300, 22);
    let variants = [
        (
            "B&B on, unsorted (paper)",
            SearchOptions {
                sort_boundary: false,
                ..Default::default()
            },
        ),
        (
            "B&B on, sorted Bout",
            SearchOptions {
                sort_boundary: true,
                ..Default::default()
            },
        ),
        (
            "B&B off",
            SearchOptions {
                branch_and_bound: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in variants {
        let mut total = 0u64;
        for q in &queries {
            let (_, s) = QueryCtx::measure(|ctx| t.read(&a, q, opts, ctx)).expect("valid");
            total += s.total_accesses();
        }
        println!(
            "{name:<28} avg accesses/query = {:.1}",
            total as f64 / queries.len() as f64
        );
    }
    let mut total = 0u64;
    for q in &queries {
        let order = olap_aggregate::NaturalOrder::<i64>::new();
        let (_, s) = QueryCtx::measure(|ctx| naive::range_max(&a, &order, q, ctx)).expect("valid");
        total += s.total_accesses();
    }
    println!(
        "{:<28} avg accesses/query = {:.1}",
        "naive scan",
        total as f64 / queries.len() as f64
    );
}

/// Ablation: the complement trick in the blocked algorithm (§4.2).
fn ablation_blocked() {
    println!("\n=== Ablation: boundary-region method in the blocked algorithm (§4.2) ===");
    let a = standard_cube(512, 31);
    let bp = BlockedPrefixCube::build(&a, 16).expect("valid");
    let queries = uniform_regions(a.shape(), 200, 32);
    for (name, policy) in [
        ("auto (paper's rule)", BoundaryPolicy::Auto),
        ("always direct", BoundaryPolicy::AlwaysDirect),
        ("always complement", BoundaryPolicy::AlwaysComplement),
    ] {
        let c = blocked_cost(&bp, &a, &queries, policy);
        println!("{name:<24} avg accesses/query = {c:.1}");
    }
}

/// Ablation: lowest-covering-node start vs always starting at the root
/// (§6.1.2's remark).
fn ablation_start() {
    println!("\n=== Ablation: lowest-covering-node start (§6.1.2) ===");
    let n = 16384;
    let a = uniform_cube(Shape::new(&[n]).expect("valid"), 1_000_000, 41);
    let t = NaturalMaxTree::for_values(&a, 4).expect("fanout ≥ 2");
    // Small ranges (r ≪ n) are where the lowest-covering start pays.
    let queries = sided_regions(a.shape(), 32, 500, 42);
    for (name, opts) in [
        ("lowest covering node", SearchOptions::default()),
        (
            "start at root",
            SearchOptions {
                lowest_covering_start: false,
                ..Default::default()
            },
        ),
    ] {
        let mut total = 0u64;
        for q in &queries {
            let (_, s) = QueryCtx::measure(|ctx| t.read(&a, q, opts, ctx)).expect("valid");
            total += s.total_accesses();
        }
        println!(
            "{name:<24} avg accesses/query = {:.2}",
            total as f64 / queries.len() as f64
        );
    }
}
