//! One function per figure, theorem or remark of the paper, plus the
//! ablations DESIGN.md calls out. Each computes its table once, with one
//! seeded parameter set.

use crate::Table;
use olap_aggregate::{NaturalOrder, SumOp};
use olap_array::{DenseArray, Region, Shape};
use olap_engine::{naive, ExtendedCube};
use olap_planner as planner;
use olap_prefix_sum::batch::{self, CellUpdate};
use olap_prefix_sum::paging::{simulate_build_faults, storage_order_bound, ScanOrder};
use olap_prefix_sum::BoundaryPolicy::{AlwaysComplement, AlwaysDirect, Auto};
use olap_prefix_sum::{BlockedPrefixCube, PartialPrefixCube, PrefixSumCube};
use olap_query::{DimSelection, QueryCtx, QueryLog, RangeQuery};
use olap_range_max::{NaturalMaxTree, SearchOptions};
use olap_sparse::{SparseCube, SparseRangeMax, SparseRangeSum};
use olap_tree_sum::SumTreeCube;
use olap_workload::{
    clustered_sparse_cube, sided_regions, synthetic_log, uniform_cube, uniform_regions, CuboidMix,
    InsuranceCube,
};

/// Every table, in EXPERIMENTS.md order.
pub fn tables() -> Vec<Table> {
    let mut tables = vec![intro(), thm2(), update_batch(), thm3(), fig11()];
    tables.extend(fig12());
    tables.push(greedy());
    tables.extend(fig14());
    tables.extend([volume_sweep(), sparse(), paging(), partial_dims()]);
    tables.extend([max_aspect(), progressive(), ablations()]);
    tables
}

/// The accesses of one metered read per query, each run unmetered.
fn accesses<T, E: std::fmt::Debug>(
    queries: &[Region],
    mut read: impl FnMut(&Region, &mut QueryCtx<'_>) -> Result<T, E>,
) -> Vec<u64> {
    queries
        .iter()
        .map(|q| {
            let (_, s) = QueryCtx::measure(|ctx| read(q, ctx)).expect("valid query");
            s.total_accesses()
        })
        .collect()
}

fn mean(counts: &[u64]) -> f64 {
    counts.iter().sum::<u64>() as f64 / counts.len() as f64
}

/// A cube of the given shape with uniform values in `0..max`.
fn seeded_cube(dims: &[usize], max: i64, seed: u64) -> DenseArray<i64> {
    uniform_cube(Shape::new(dims).expect("valid"), max, seed)
}

/// `{1, 2, 3}` for the 0-based dimensions `[0, 1, 2]`.
fn dim_set(dims: &[usize]) -> String {
    let names: Vec<String> = dims.iter().map(|d| (d + 1).to_string()).collect();
    format!("{{{}}}", names.join(", "))
}

/// §1 on the insurance cube: the \[GBLP96\] extended cube answers the
/// singleton query in 1 access but pays 16·9 for the range query; prefix
/// sums pay ≤ 2^d for both.
pub fn intro() -> Table {
    let cube = InsuranceCube::generate(1997);
    let a = &cube.revenue;
    let extended = ExtendedCube::build(a, SumOp::<i64>::new()).expect("valid cube");
    let ps = PrefixSumCube::build(a);
    let (all, year) = (DimSelection::All, InsuranceCube::year_rank);
    let auto = DimSelection::Single(InsuranceCube::type_rank("auto").expect("known"));
    let span = |lo, hi| DimSelection::span(lo, hi).expect("ordered");
    let ages = span(InsuranceCube::age_rank(37), InsuranceCube::age_rank(52));
    let singleton = vec![all, DimSelection::Single(year(1995)), all, auto];
    let range = vec![ages, span(year(1988), year(1996)), all, auto];
    let mut t = Table::new("intro", "query,extended cube,prefix sums");
    t.push(row![
        "storage (cells)",
        extended.len(),
        ps.prefix_array().len()
    ]);
    for (label, dims) in [
        ("(all, 1995, all, auto)", singleton),
        ("(37:52, 1988:1996, all, auto)", range),
    ] {
        let q = RangeQuery::new(dims).expect("4 dims");
        let (v1, s1) = extended.aggregate(&q).expect("valid");
        let region = q.to_region(a.shape()).expect("in domain");
        let (v2, s2) = QueryCtx::measure(|ctx| ps.read(&region, ctx)).expect("valid");
        assert_eq!(v1, v2);
        t.push(row![label, s1.total_accesses(), s2.total_accesses()]);
    }
    t
}

/// Theorem 2: the most regions any of 30 batches of `k` updates splits
/// P into, on a 32^d cube, vs the bound ∏(k+j)/d!.
pub fn thm2() -> Table {
    let mut t = Table::new(
        "thm2",
        "k,d=1 max,d=1 bound,d=2 max,d=2 bound,d=3 max,d=3 bound,d=4 max,d=4 bound",
    );
    let op = SumOp::<i64>::new();
    for k in 1..=10usize {
        let mut row = vec![k.to_string()];
        for d in 1..=4usize {
            let shape = Shape::new(&vec![32usize; d]).expect("valid");
            let regions = |trial: usize| {
                let cell = |i: usize| -> Vec<usize> {
                    (0..d)
                        .map(|j| (trial * (i + 1) * (31 + 7 * j)) % 32)
                        .collect()
                };
                let updates: Vec<_> = (0..k).map(|i| CellUpdate::new(&cell(i), 1)).collect();
                batch::plan_regions(&shape, &op, &updates)
                    .expect("valid")
                    .len()
            };
            let worst = (1..=30).map(regions).max().expect("30 trials");
            row.push(worst.to_string());
            row.push(format!("{:.0}", batch::max_regions(k, d)));
        }
        t.push(row);
    }
    t
}

/// §5: cells written by one batched update vs `k` one-at-a-time updates,
/// on a 256² cube.
pub fn update_batch() -> Table {
    let shape = Shape::new(&[256, 256]).expect("valid");
    let op = SumOp::<i64>::new();
    let mut t = Table::new("update_batch", "k,batched cells,one-at-a-time cells,ratio");
    for k in [1usize, 2, 4, 8, 16, 32] {
        let updates: Vec<CellUpdate<i64>> = (0..k)
            .map(|i| CellUpdate::new(&[(i * 37) % 256, (i * 61) % 256], 1))
            .collect();
        let plan = batch::plan_regions(&shape, &op, &updates).expect("valid");
        let batched: u64 = plan.iter().map(|(r, _)| r.volume() as u64).sum();
        // One at a time, each update rewrites every P[y ≥ x].
        let single: u64 = updates
            .iter()
            .map(|u| u.index.iter().map(|&x| (256 - x) as u64).product::<u64>())
            .sum();
        let ratio = format!("{:.2}", single as f64 / batched as f64);
        t.push(row![k, batched, single, ratio]);
    }
    t
}

/// Theorem 3: average and worst accesses of the max-tree search on an
/// 8192-cell array, 2000 random ranges per fanout, vs b + 7 + 1/b.
pub fn thm3() -> Table {
    let a = seeded_cube(&[8192], 1_000_000, 99);
    let mut t = Table::plotted("thm3", "b,measured_avg,bound,worst_seen");
    let opts = SearchOptions::default();
    for b in [2usize, 3, 4, 6, 8, 12, 16, 24, 32] {
        let tree = NaturalMaxTree::for_values(&a, b).expect("fanout ≥ 2");
        let queries = uniform_regions(a.shape(), 2000, b as u64 * 7 + 1);
        let counts = accesses(&queries, |q, ctx| tree.read(&a, q, opts, ctx));
        let bound = b as f64 + 7.0 + 1.0 / b as f64;
        let worst = counts.iter().max().expect("2000 queries");
        let avg = format!("{:.2}", mean(&counts));
        t.push(row![b, avg, format!("{bound:.2}"), worst]);
    }
    t
}

/// Figure 11: Cost(tree) − Cost(prefix sum) for queries of side α·b —
/// the closed form d·α^(d−1)·b/2 − 2^d for d ∈ {2, 3, 4}, and the
/// measured difference on a 1024² cube (d = 2, 40 queries per point).
pub fn fig11() -> Table {
    let mut t = Table::plotted(
        "fig11",
        "alpha,d2_b10,d2_b20,d3_b10,d3_b20,d4_b10,d4_b20,measured_d2_b10,measured_d2_b20",
    );
    let a = seeded_cube(&[1024, 1024], 1000, 11);
    let structures = [10usize, 20].map(|b| {
        let bp = BlockedPrefixCube::build(&a, b).expect("valid block");
        (b, bp, SumTreeCube::build(&a, b).expect("valid fanout"))
    });
    for alpha in 1..=20usize {
        let mut row = vec![alpha.to_string()];
        for d in [2usize, 3, 4] {
            for b in [10usize, 20] {
                let diff = planner::fig11_difference(d, b, alpha as f64);
                row.push(format!("{diff:.1}"));
            }
        }
        for (b, bp, st) in &structures {
            let qs = sided_regions(a.shape(), alpha * b, 40, alpha as u64);
            let tree = mean(&accesses(&qs, |q, ctx| st.read(&a, q, true, ctx)));
            let prefix = mean(&accesses(&qs, |q, ctx| bp.read(&a, q, Auto, ctx)));
            row.push(format!("{:.1}", tree - prefix));
        }
        t.push(row);
    }
    t
}

/// Figure 12: the §9.1 dimension-selection heuristic on the paper's
/// 3-query log, and the dimensions it and the exact optimizer choose.
pub fn fig12() -> Vec<Table> {
    let shape = Shape::new(&[1000; 5]).expect("valid");
    let mut log = QueryLog::new(shape);
    for lens in [
        [1usize, 100, 1, 3, 1],
        [200, 1, 100, 1, 1],
        [500, 500, 1, 1, 1],
    ] {
        let dims = lens
            .iter()
            .map(|&len| match len {
                1 => DimSelection::Single(0),
                _ => DimSelection::span(0, len - 1).expect("ordered"),
            })
            .collect();
        log.push(RangeQuery::new(dims).expect("5 dims"));
    }
    let mut lengths = Table::new("fig12", "query,1,2,3,4,5");
    let r = log.heuristic_lengths();
    let rj = (0..5).map(|j| r.iter().map(|lens| lens[j]).sum::<usize>());
    for (label, lens) in (1..=3).map(|i| format!("q{i}")).zip(&r) {
        lengths.push([vec![label], lens.iter().map(usize::to_string).collect()].concat());
    }
    lengths.push([vec!["Rj".to_string()], rj.map(|x| x.to_string()).collect()].concat());

    let mut choice = Table::new("fig12_choice", "method,X′,cost");
    for (method, dims) in [
        ("heuristic", planner::choose_dimensions_heuristic(&log)),
        ("exact", planner::choose_dimensions_exact(&log)),
    ] {
        let cost = planner::selection_cost(&log, &dims);
        choice.push(row![method, dim_set(&dims), format!("{cost:.0}")]);
    }
    vec![lengths, choice]
}

/// Figure 13: the §9.2 greedy cuboid and block-size planner on a
/// synthetic 3-class log over a 4-d cube, at shrinking space budgets.
pub fn greedy() -> Table {
    let shape = Shape::new(&[1000, 500, 100, 50]).expect("valid");
    let mix = |dims: Vec<usize>, side, count| CuboidMix { dims, side, count };
    let mixes = [
        mix(vec![0, 1], 100, 50),
        mix(vec![0], 300, 30),
        mix(vec![1, 2], 20, 20),
    ];
    let log = synthetic_log(&shape, &mixes, 7);
    let stats = log.cuboid_stats();
    let mut t = Table::new(
        "greedy",
        "budget (cells),cost,naive cost,prefix sums chosen",
    );
    for budget in [1e10, 1e6, 1e5, 1e4] {
        let p = planner::GreedyPlanner::new(shape.clone(), stats.clone(), budget);
        let plan = p.plan();
        let choices: Vec<String> = plan
            .choices
            .iter()
            .map(|c| format!("{} b={}", c.cuboid, c.block))
            .collect();
        t.push(row![
            format!("{budget:.0}"),
            format!("{:.0}", plan.total_cost),
            format!("{:.0}", p.total_cost(&[])),
            choices.join("; ")
        ]);
    }
    t
}

/// Figure 14 / §9.3: benefit/space vs block size for the figure's label
/// curve 100b² − 10b³ (a d = 2 instance) and the text's d = 3 example,
/// and the integer block size each is maximised at.
pub fn fig14() -> Vec<Table> {
    // (label, N_Q/N, V, S, d): the label curve is 0.01·(10000b² − 1000b³).
    let instances = [
        ("label curve 100b² − 10b³", 0.01, 10004.0, 4000.0, 2usize),
        ("§9.3 text example", 0.01, 1008.0, 400.0, 3),
    ];
    let mut curves = Table::plotted("fig14", "b,label_curve_100b2_minus_10b3,d3_text_example");
    for b in 1..=12usize {
        let mut row = vec![b.to_string()];
        for (_, nq, v, s, d) in instances {
            let ratio = planner::benefit_space_ratio(nq, v, s, d, b);
            row.push(format!("{ratio:.0}"));
        }
        curves.push(row);
    }
    let mut optimum = Table::new("fig14_optimum", "instance,V,S,d,b*");
    for (label, _, v, s, d) in instances {
        let b = planner::optimal_block_size(v, s, d).expect("pays off");
        optimum.push(row![label, v, s, d, b]);
    }
    vec![curves, optimum]
}

/// §11's prototype claim: accesses per query vs query side on a 1024²
/// cube, 25 queries per side, per engine.
pub fn volume_sweep() -> Table {
    let a = seeded_cube(&[1024, 1024], 1000, 5);
    let ps = PrefixSumCube::build(&a);
    let bp10 = BlockedPrefixCube::build(&a, 10).expect("valid");
    let bp40 = BlockedPrefixCube::build(&a, 40).expect("valid");
    let st10 = SumTreeCube::build(&a, 10).expect("valid");
    let sum = SumOp::<i64>::new();
    let mut t = Table::plotted(
        "volume_sweep",
        "side,naive,prefix_b1,blocked_b10,blocked_b40,tree_sum_b10",
    );
    for side in [4usize, 8, 16, 32, 64, 128, 256, 512, 1000] {
        let qs = sided_regions(a.shape(), side, 25, side as u64);
        let costs = [
            accesses(&qs, |q, ctx| naive::range_aggregate(&a, &sum, q, ctx)),
            accesses(&qs, |q, ctx| ps.read(q, ctx)),
            accesses(&qs, |q, ctx| bp10.read(&a, q, Auto, ctx)),
            accesses(&qs, |q, ctx| bp40.read(&a, q, Auto, ctx)),
            accesses(&qs, |q, ctx| st10.read(&a, q, true, ctx)),
        ];
        let mut row = vec![side.to_string()];
        row.extend(costs.iter().map(|c| format!("{:.1}", mean(c))));
        t.push(row);
    }
    t
}

/// §10: the sparse engines on a 1000² cube of planted clusters. Every
/// answer, and one region holding no point, is checked against the
/// points themselves.
pub fn sparse() -> Table {
    let shape = Shape::new(&[1000, 1000]).expect("valid");
    let pts = clustered_sparse_cube(&shape, 6, 40, 3000, 1000, 13);
    let cube = SparseCube::new(shape.clone(), pts).expect("valid points");
    let sum_engine = SparseRangeSum::build(&cube).expect("valid");
    let max_engine = SparseRangeMax::build(&cube);
    let answers_match = |q: &Region| -> (u64, u64) {
        let (sum, s1) = QueryCtx::measure(|ctx| sum_engine.read(q, ctx)).expect("valid");
        let (max, s2) = QueryCtx::measure(|ctx| max_engine.read(q, ctx)).expect("valid");
        assert_eq!(sum, cube.points_in(q).map(|(_, v)| *v).sum::<i64>());
        let truth = cube.points_in(q).map(|(_, v)| *v).max();
        assert_eq!(max.as_ref().map(|(_, v)| *v), truth);
        if let Some((at, v)) = max {
            assert!(cube.points_in(q).any(|(p, pv)| *p == at && *pv == v));
        }
        (s1.total_accesses(), s2.total_accesses())
    };
    let empty = (0..1000)
        .map(|i| Region::from_bounds(&[(i, i), (0, 0)]).expect("in bounds"))
        .find(|q| cube.points_in(q).next().is_none())
        .expect("a cell holding no point");
    answers_match(&empty);
    let queries = uniform_regions(&shape, 100, 17);
    let (sums, maxes): (Vec<u64>, Vec<u64>) = queries.iter().map(answers_match).unzip();
    let mut t = Table::new("sparse", "quantity,value");
    for (label, value) in [
        ("points", cube.len().to_string()),
        ("cells", shape.len().to_string()),
        ("density (%)", format!("{:.2}", cube.density() * 100.0)),
        ("dense regions", sum_engine.region_count().to_string()),
        ("outliers", sum_engine.outlier_count().to_string()),
        ("prefix cells", sum_engine.prefix_cells().to_string()),
        ("sparse-sum accesses/query", format!("{:.1}", mean(&sums))),
        ("sparse-max accesses/query", format!("{:.1}", mean(&maxes))),
    ] {
        t.push(row![label, value]);
    }
    t
}

/// §3.3's note: page faults while computing P, visiting it in storage
/// order vs in the order of the scanned dimension (LRU, 64-cell pages).
pub fn paging() -> Table {
    let mut t = Table::new(
        "paging",
        "shape,cache pages,storage order,dimension order,2·pages·d bound",
    );
    for (dims, cache) in [
        (vec![256usize, 256], 4usize),
        (vec![256, 256], 16),
        (vec![64, 64, 16], 4),
        (vec![1024, 64], 8),
    ] {
        let shape = Shape::new(&dims).expect("valid");
        let names: Vec<String> = dims.iter().map(usize::to_string).collect();
        t.push(row![
            names.join("×"),
            cache,
            simulate_build_faults(&shape, ScanOrder::Storage, 64, cache),
            simulate_build_faults(&shape, ScanOrder::Dimension, 64, cache),
            storage_order_bound(&shape, 64)
        ]);
    }
    t
}

/// §9.1 executed: prefix sums along a subset X′ of the dimensions, on
/// queries that range over d1 and d2 and pin d3.
pub fn partial_dims() -> Table {
    let a = seeded_cube(&[64, 64, 16], 100, 3);
    let queries: Vec<Region> = (0..50)
        .map(|i| {
            Region::from_bounds(&[
                ((i * 3) % 30, (i * 3) % 30 + 20),
                ((i * 7) % 30, (i * 7) % 30 + 25),
                ((i * 5) % 16, (i * 5) % 16),
            ])
            .expect("in bounds")
        })
        .collect();
    let mut t = Table::new("partial_dims", "X′,accesses/query");
    for dims in [vec![], vec![0], vec![0, 1], vec![0, 1, 2]] {
        let pp = PartialPrefixCube::build(&a, &dims).expect("valid dims");
        let cost = mean(&accesses(&queries, |q, ctx| pp.read(q, ctx)));
        t.push(row![dim_set(&dims), format!("{cost:.1}")]);
    }
    t
}

/// §6.2's remark: range-max savings "depend mostly on r_min and r_max",
/// with a reduction guaranteed when r_min > 2b − 2. 200 queries per
/// shape on a 512² cube, b = 4.
pub fn max_aspect() -> Table {
    let b = 4usize;
    let a = seeded_cube(&[512, 512], 1_000_000, 7);
    let tree = NaturalMaxTree::for_values(&a, b).expect("fanout ≥ 2");
    let opts = SearchOptions::default();
    let mut t = Table::new(
        "max_aspect",
        "r_min,r_max,volume,accesses/query,r_min > 2b−2",
    );
    for (rmin, rmax) in [(4usize, 512usize), (8, 512), (16, 256), (64, 64)] {
        let queries: Vec<Region> = (0..200usize)
            .map(|i| {
                let x0 = (i * 37) % (512 - rmin);
                let y0 = (i * 53) % (512 - rmax + 1);
                Region::from_bounds(&[(x0, x0 + rmin - 1), (y0, y0 + rmax - 1)]).expect("in bounds")
            })
            .collect();
        let counts = accesses(&queries, |q, ctx| tree.read(&a, q, opts, ctx));
        let avg = format!("{:.1}", mean(&counts));
        let prunes = if rmin > 2 * b - 2 { "yes" } else { "no" };
        t.push(row![rmin, rmax, rmin * rmax, avg, prunes]);
    }
    t
}

/// §11's progressive answers: the tightness and cost of the instant
/// bounds from P alone vs the exact blocked sum, per block size, on 200
/// random queries over a 512² cube.
pub fn progressive() -> Table {
    let a = seeded_cube(&[512, 512], 1000, 3);
    let queries = uniform_regions(a.shape(), 200, 4);
    let mut t = Table::new(
        "progressive",
        "b,avg relative gap (%),bound lookups,exact accesses",
    );
    for b in [4usize, 8, 16, 32, 64] {
        let bp = BlockedPrefixCube::build(&a, b).expect("valid block");
        let (mut gap, mut counted) = (0.0f64, 0usize);
        let mut bound_cost = 0u64;
        let exact_cost = accesses(&queries, |q, ctx| {
            let exact = bp.read(&a, q, Auto, ctx)?;
            let (bounds, s) = bp.range_sum_bounds(q)?;
            assert!(bounds.lower <= exact && exact <= bounds.upper);
            if exact > 0 {
                gap += (bounds.upper - bounds.lower) as f64 / exact as f64;
                counted += 1;
            }
            bound_cost += s.total_accesses();
            Ok::<_, olap_array::ArrayError>(())
        });
        let gap = format!("{:.1}", gap / counted as f64 * 100.0);
        let lookups = format!("{:.1}", bound_cost as f64 / queries.len() as f64);
        t.push(row![b, gap, lookups, format!("{:.1}", mean(&exact_cost))]);
    }
    t
}

/// DESIGN.md §5's ablations: branch-and-bound and boundary sorting in
/// the §6 search, the §4.2 per-region boundary method, and §6.1.2's
/// lowest-covering-node start.
pub fn ablations() -> Table {
    let mut t = Table::new("ablations", "variant,accesses/query");

    let a = seeded_cube(&[512, 512], 1000, 21);
    let tree = NaturalMaxTree::for_values(&a, 4).expect("fanout ≥ 2");
    let queries = uniform_regions(a.shape(), 300, 22);
    let bb = |branch_and_bound, sort_boundary| SearchOptions {
        branch_and_bound,
        sort_boundary,
        ..Default::default()
    };
    for (name, opts) in [
        ("range-max: B&B on, unsorted (paper)", bb(true, false)),
        ("range-max: B&B on, sorted Bout", bb(true, true)),
        ("range-max: B&B off", bb(false, false)),
    ] {
        let cost = mean(&accesses(&queries, |q, ctx| tree.read(&a, q, opts, ctx)));
        t.push(row![name, format!("{cost:.1}")]);
    }
    let order = NaturalOrder::<i64>::new();
    let cost = mean(&accesses(&queries, |q, ctx| {
        naive::range_max(&a, &order, q, ctx)
    }));
    t.push(row!["range-max: naive scan", format!("{cost:.1}")]);

    let a = seeded_cube(&[512, 512], 1000, 31);
    let bp = BlockedPrefixCube::build(&a, 16).expect("valid");
    let queries = uniform_regions(a.shape(), 200, 32);
    for (name, policy) in [
        ("blocked: Auto boundary rule (paper)", Auto),
        ("blocked: always Direct", AlwaysDirect),
        ("blocked: always Complement", AlwaysComplement),
    ] {
        let cost = mean(&accesses(&queries, |q, ctx| bp.read(&a, q, policy, ctx)));
        t.push(row![name, format!("{cost:.1}")]);
    }

    let a = seeded_cube(&[16384], 1_000_000, 41);
    let tree = NaturalMaxTree::for_values(&a, 4).expect("fanout ≥ 2");
    let queries = sided_regions(a.shape(), 32, 500, 42);
    for (name, lowest_covering_start) in [
        ("max-tree: lowest-covering start (paper)", true),
        ("max-tree: start at root", false),
    ] {
        let opts = SearchOptions {
            lowest_covering_start,
            ..Default::default()
        };
        let cost = mean(&accesses(&queries, |q, ctx| tree.read(&a, q, opts, ctx)));
        t.push(row![name, format!("{cost:.2}")]);
    }
    t
}
