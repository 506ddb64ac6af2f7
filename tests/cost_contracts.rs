//! Cost contracts in the paper's own unit: §8 measures every algorithm
//! by **elements accessed**, and the properties that make the
//! degradation tier, the semantic cache and an armed budget worth having
//! are statements about that count — exact, seed-determined, and the same
//! on every machine. (Wall-clock for the same layers is the perf ledger's
//! `engine.cache.*` and `engine.router.*` rungs.)

use olap_cube::aggregate::{SumOp, TotalOrder};
use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, ApproxEngine, CubeIndex, EngineOp, IndexConfig, NaiveEngine, PrefixChoice,
    QueryBudget, RangeEngine, SemanticCache, SumTreeEngine,
};
use olap_cube::prefix_sum::batch::{self, CellUpdate};
use olap_cube::prefix_sum::{BlockedPrefixCube, BoundaryPolicy, PrefixSumCube};
use olap_cube::query::{AccessStats, Answer, QueryCtx, RangeQuery};
use olap_cube::range_max::{MaxTree, NaturalMaxTree, NaturalMinTree, SearchOptions};
use olap_cube::tree_sum::SumTreeCube;
use olap_cube::workload::{
    sided_regions, uniform_cube, uniform_regions, zipf_regions, InsuranceCube,
};
use std::time::Duration;

fn index_config(prefix: PrefixChoice) -> IndexConfig {
    IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
    }
}

/// The backend the cache is judged over deliberately has no prefix-sum
/// structure: a healthy §3 index answers any sum in `2^d` accesses, which
/// leaves a hit almost nothing to save. Over tree + naive a hit saves a
/// whole traversal, so what the cache earns shows in the access count.
fn tree_router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    AdaptiveRouter::new()
        .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()))
        .with_engine(Box::new(NaiveEngine::new(a.clone())))
}

/// Runs `queries` through a cache of `capacity` over a fresh
/// [`tree_router`]; returns the answers, the total accesses and the hit
/// rate.
fn run_cached(
    a: &DenseArray<i64>,
    queries: &[RangeQuery],
    capacity: usize,
) -> (Vec<Answer<i64>>, u64, f64) {
    let cache = SemanticCache::new(tree_router(a), capacity);
    let mut answers = Vec::with_capacity(queries.len());
    let mut cost = 0u64;
    for q in queries {
        let outcome = cache.range_sum(q).unwrap();
        cost += outcome.cost();
        answers.push(outcome.answer);
    }
    (answers, cost, cache.stats().hit_rate())
}

fn queries(regions: &[Region]) -> Vec<RangeQuery> {
    regions.iter().map(RangeQuery::from_region).collect()
}

/// A degraded answer only earns its place if answering from the anchor
/// grid is dramatically cheaper than the exact path it replaces: the
/// exact blocked path's boundary work grows with the query side, the
/// anchor path reads at most `3^d` superblocks' anchors and extrema.
#[test]
fn approx_tier_costs_a_tenth_of_exact_and_brackets_the_oracle() {
    let a = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 17);
    let exact = CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(32))).unwrap();
    let approx = ApproxEngine::build(a.clone(), 32).unwrap();
    for side in [16usize, 448] {
        let (mut exact_cost, mut approx_cost) = (0u64, 0u64);
        for region in sided_regions(a.shape(), side, 16, side as u64) {
            let oracle = a.fold_region(&region, 0i64, |acc, &x| acc + x);
            let (sum, stats) = exact.range_sum(&region).unwrap();
            assert_eq!(sum, oracle);
            exact_cost += stats.total_accesses();
            let (est, stats) = approx.estimate_sum(&region).unwrap();
            assert!(
                est.lower <= oracle && oracle <= est.upper,
                "side {side}: [{}, {}] excludes {oracle}",
                est.lower,
                est.upper
            );
            approx_cost += stats.total_accesses();
        }
        assert!(
            approx_cost * 10 <= exact_cost,
            "side {side}: approx {approx_cost} vs exact {exact_cost} accesses"
        );
    }
}

/// The cache's reason to exist: on a Zipf-skewed repeat-heavy stream most
/// lookups hit, and the stream costs under half the accesses of the same
/// router with the cache switched off.
#[test]
fn zipf_stream_hits_the_cache_and_halves_the_accesses() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 17);
    let zipf = queries(&zipf_regions(a.shape(), 256, 16, 1.1, 23));
    let (cached_answers, cached_cost, hit_rate) = run_cached(&a, &zipf, 256);
    let (uncached_answers, uncached_cost, _) = run_cached(&a, &zipf, 0);
    assert_eq!(cached_answers, uncached_answers);
    assert!(hit_rate >= 0.6, "hit rate fell to {hit_rate:.3}");
    assert!(
        cached_cost * 2 <= uncached_cost,
        "cached {cached_cost} vs uncached {uncached_cost} accesses"
    );
}

/// The cache's worst case: 4× more distinct regions than it can hold, so
/// ~every lookup misses, inserts and evicts. It may never cost accesses.
/// (1 024 regions is ~2.5 s in the debug profile; the relation holds
/// unchanged at 4 096.)
#[test]
fn zero_locality_stream_costs_no_more_cached_than_uncached() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 17);
    let cold = queries(&uniform_regions(a.shape(), 1024, 29));
    let (cached_answers, cached_cost, _) = run_cached(&a, &cold, 256);
    let (uncached_answers, uncached_cost, _) = run_cached(&a, &cold, 0);
    assert_eq!(cached_answers, uncached_answers);
    assert!(
        cached_cost <= uncached_cost,
        "cached {cached_cost} vs uncached {uncached_cost} accesses"
    );
}

/// Having a deadline and an access cap that never fire changes nothing
/// the paper counts: every kernel charges the meter, and the route, the
/// answer and the accesses stay those of the unbudgeted router.
#[test]
fn armed_budget_that_never_fires_changes_neither_answer_nor_cost() {
    let a = uniform_cube(Shape::new(&[256, 256]).unwrap(), 1000, 13);
    let router = || {
        AdaptiveRouter::new()
            .with_engine(Box::new(NaiveEngine::new(a.clone())))
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), index_config(PrefixChoice::Basic)).unwrap(),
            ))
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), index_config(PrefixChoice::Blocked(16))).unwrap(),
            ))
            .with_engine(Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()))
    };
    let unbudgeted = router();
    let budgeted = router().with_budget(
        QueryBudget::unlimited()
            .deadline(Duration::from_secs(60))
            .max_accesses(u64::MAX),
    );
    for side in [4usize, 128] {
        for q in queries(&sided_regions(a.shape(), side, 16, side as u64)) {
            let plain = unbudgeted.range_sum(&q).unwrap();
            let armed = budgeted.range_sum(&q).unwrap();
            assert_eq!(armed.answer, plain.answer);
            assert_eq!(armed.cost(), plain.cost(), "side {side}");
        }
    }
}

/// The perf ledger's `[Sum, Sum, Sum, Max]` read stream, 2 048 reads
/// long: the n-th sum reads the n-th region of `sums`, the n-th max the
/// n-th of `maxes`, each pool wrapping.
fn ledger_mix(sums: &[Region], maxes: &[Region]) -> Vec<(EngineOp, RangeQuery)> {
    let (mut sums, mut maxes) = (sums.iter().cycle(), maxes.iter().cycle());
    (0..2048)
        .map(|i| match i % 4 {
            3 => (EngineOp::Max, maxes.next().unwrap()),
            _ => (EngineOp::Sum, sums.next().unwrap()),
        })
        .map(|(op, r)| (op, RangeQuery::from_region(r)))
        .collect()
}

/// What one routed stream cost: the routed accesses, and per op the
/// drift of the model, mean observed ÷ mean predicted accesses of the
/// engine each query was routed to.
struct Routing {
    routed: u64,
    sum_drift: f64,
    max_drift: f64,
}

/// Routes `stream` through `router()` and asserts the routed accesses stay
/// within 1 % of the per-query minimum across its registered engines.
/// Then replays the stream's sums, which must route as on a fresh router:
/// what the router answered before never moves a decision.
fn route_near_best(
    router: impl Fn() -> AdaptiveRouter<i64>,
    stream: &[(EngineOp, RangeQuery)],
) -> Routing {
    let warm = router();
    let (mut routed, mut best) = (0u64, 0u64);
    // Per op: (observed, predicted) accesses of the routed engine.
    let (mut sums, mut maxes) = ((0u64, 0.0f64), (0u64, 0.0f64));
    for (op, q) in stream {
        let run = |e: &dyn RangeEngine<i64>| match op {
            EngineOp::Max => e.range_max(q),
            _ => e.range_sum(q),
        };
        best += (0..warm.len())
            .map(|i| run(&*warm.engine(i)).unwrap().cost())
            .min()
            .unwrap();
        let explain = warm.explain_op(q, *op).unwrap();
        routed += explain.observed();
        let drift = if *op == EngineOp::Max {
            &mut maxes
        } else {
            &mut sums
        };
        drift.0 += explain.observed();
        drift.1 += explain.chosen_candidate().predicted;
    }
    let ratio = routed as f64 / best as f64;
    assert!(ratio <= 1.01, "routed {routed} = {ratio:.4} × best {best}");
    let fresh = router();
    for (_, q) in stream.iter().filter(|(op, _)| *op == EngineOp::Sum) {
        let (w, f) = (warm.explain(q).unwrap(), fresh.explain(q).unwrap());
        assert_eq!(w.chosen, f.chosen, "{q:?}");
    }
    let routing = Routing {
        routed,
        sum_drift: sums.0 as f64 / sums.1,
        max_drift: maxes.0 as f64 / maxes.1,
    };
    println!(
        "routed {routed} accesses (best {best}); observed ÷ predicted: sums {:.3}, maxes {:.3}",
        routing.sum_drift, routing.max_drift
    );
    routing
}

/// §8 prices each structure in elements accessed, and the router routes
/// on that price as written: per query, the routed cost stays within 1 %
/// of the cheapest registered engine's. Each op has its own price: §3's
/// `2^d` for a sum, and for a max the §8 tree cost of the §6 walk capped
/// at the region's volume. The routed total is pinned, and each op's
/// drift is bounded: the sums read about 0.63 of `2^d` (corners at a
/// zero lower bound are not read), and the §8 tree formula prices the
/// §6 walk at about 9× what it reads.
#[test]
fn routed_insurance_stream_costs_within_a_percent_of_the_best_engine() {
    // The ledger's `served_rw_4d` stream: one 512-region pool for both.
    let cube = InsuranceCube::generate(3).revenue;
    let pool = uniform_regions(cube.shape(), 512, 11);
    let routing = route_near_best(
        || {
            AdaptiveRouter::new()
                .with_engine(Box::new(
                    CubeIndex::build(cube.clone(), IndexConfig::default()).unwrap(),
                ))
                .with_engine(Box::new(NaiveEngine::new(cube.clone())))
        },
        &ledger_mix(&pool, &pool),
    );
    assert_eq!(routing.routed, 324_529);
    assert!((0.6..0.7).contains(&routing.sum_drift));
    assert!((0.1..0.13).contains(&routing.max_drift));
}

/// The same contract on a blocked (`b = 16`) 2-d stack: the ledger's
/// `lib_kernel_2d` at half its side, with quarter-side sums and uniform
/// maxes. Equation 3 prices the blocked sums within 3 % of what they
/// read; on uniform data the §6 walk reads under 2 % of its §8 price.
#[test]
fn routed_blocked_stream_costs_within_a_percent_of_the_best_engine() {
    let cube = uniform_cube(Shape::new(&[512, 512]).unwrap(), 1000, 5);
    let sums = sided_regions(cube.shape(), 128, 1536, 6);
    let maxes = uniform_regions(cube.shape(), 512, 7);
    let blocked = IndexConfig {
        prefix: PrefixChoice::Blocked(16),
        ..IndexConfig::default()
    };
    let routing = route_near_best(
        || {
            AdaptiveRouter::new()
                .with_engine(Box::new(CubeIndex::build(cube.clone(), blocked).unwrap()))
                .with_engine(Box::new(NaiveEngine::new(cube.clone())))
        },
        &ledger_mix(&sums, &maxes),
    );
    assert_eq!(routing.routed, 3_067_652);
    assert!((0.95..1.0).contains(&routing.sum_drift));
    assert!((0.01..0.02).contains(&routing.max_drift));
}

/// The cubes and batches of the two update-side contracts: d = 1..4,
/// `k` distinct-or-not cells chosen by a fixed stride walk (so the last
/// one repeats the first when `k` exceeds the walk's period).
fn update_cases() -> Vec<(DenseArray<i64>, Vec<Vec<usize>>)> {
    let shapes: [&[usize]; 4] = [&[200], &[40, 30], &[12, 10, 9], &[6, 5, 7, 4]];
    shapes
        .iter()
        .enumerate()
        .map(|(d, dims)| {
            let a = uniform_cube(Shape::new(dims).unwrap(), 1000, 90 + d as u64);
            let cells = (0..6usize)
                .map(|i| a.shape().unflatten((i % 5) * 37 % a.len()))
                .collect();
            (a, cells)
        })
        .collect()
}

/// §8's tree pays for an update by the path it climbs, not by its size:
/// a batch of `k` sets writes at most `k · height` nodes — exactly
/// `height` per distinct cell — and the engine reports what it wrote.
#[test]
fn sum_tree_update_writes_one_path_per_cell() {
    for (a, cells) in update_cases() {
        let height = SumTreeCube::build(&a, 4).unwrap().height() as u64;
        let engine = SumTreeEngine::build(a.clone(), 4).unwrap();
        for k in 1..=cells.len() {
            let updates: Vec<(Vec<usize>, i64)> = cells[..k]
                .iter()
                .enumerate()
                .map(|(i, c)| (c.clone(), 7 * i as i64 - 3))
                .collect();
            let mut distinct: Vec<&Vec<usize>> = cells[..k].iter().collect();
            distinct.sort();
            distinct.dedup();
            let stats = engine.apply_updates(&updates).unwrap().stats;
            assert!(stats.tree_nodes <= k as u64 * height);
            assert_eq!(stats.tree_nodes, distinct.len() as u64 * height);
            assert!(stats.tree_nodes < a.len() as u64, "d={}", a.shape().ndim());
        }
    }
}

/// Theorem 2: `k` updates touch `P` in at most `∏_{j<d}(k+j)/d!` disjoint
/// regions, and applying the batch writes exactly the cells of those
/// regions — each once, each by its region's combined value-to-add.
#[test]
fn theorem2_batch_writes_each_region_cell_exactly_once() {
    let op = SumOp::<i64>::new();
    for (a, cells) in update_cases() {
        let d = a.shape().ndim();
        for k in 1..=cells.len() {
            // Positive deltas: every region's combined delta is non-zero,
            // so a written cell is a changed cell.
            let updates: Vec<CellUpdate<i64>> = cells[..k]
                .iter()
                .enumerate()
                .map(|(i, c)| CellUpdate::new(c, 1 + i as i64))
                .collect();
            let plan = batch::plan_regions(a.shape(), &op, &updates).unwrap();
            assert!(plan.len() as f64 <= batch::max_regions(k, d), "k={k} d={d}");
            let mut ps = PrefixSumCube::build(&a);
            let before = ps.prefix_array().clone();
            assert_eq!(batch::apply_batch(&mut ps, &updates).unwrap(), plan.len());
            let mut expected = before.clone();
            for (region, delta) in &plan {
                for off in before.region_offsets(region) {
                    // Written once: the cell still holds its pre-batch
                    // value when its (only) region reaches it.
                    assert_eq!(expected.get_flat(off), before.get_flat(off));
                    *expected.get_flat_mut(off) += delta;
                }
            }
            assert_eq!(ps.prefix_array(), &expected);
            let written = before
                .as_slice()
                .iter()
                .zip(ps.prefix_array().as_slice())
                .filter(|(x, y)| x != y)
                .count();
            let volumes: usize = plan.iter().map(|(r, _)| r.volume()).sum();
            assert_eq!(written, volumes, "k={k} d={d}");
        }
    }
}

/// Summed `(A cells, tree nodes, compare steps, Σ flat argmax)` of `tree`'s
/// search over `regions`. The argmax sum pins which of several equal
/// maxima the search returns.
fn range_max_totals<O: TotalOrder<Value = i64>>(
    tree: &MaxTree<O>,
    a: &DenseArray<i64>,
    regions: &[Region],
) -> (u64, u64, u64, u64) {
    let mut total = AccessStats::new();
    let mut at = 0u64;
    for region in regions {
        let ((idx, _), stats) =
            QueryCtx::measure(|ctx| tree.read(a, region, SearchOptions::default(), ctx)).unwrap();
        total.merge(&stats);
        at += a.shape().flatten(&idx) as u64;
    }
    assert_eq!(total.p_cells, 0);
    (total.a_cells, total.tree_nodes, total.combine_steps, at)
}

/// Theorem 3 prices the §6 search in elements accessed. These are the
/// exact counts, and the tie order, of the search on the paper's 4-d
/// insurance cube (and on a tie-heavy copy, values mod 4) over 512 uniform
/// regions, for the max and the min tree at b = 2 and b = 4. Any change in
/// them changes what the search visits or which equal maximum it returns.
#[test]
fn range_max_accesses_and_ties_on_the_insurance_cube_are_pinned() {
    let cube = InsuranceCube::generate(5).revenue;
    let ties = cube.map(|v| v % 4);
    let regions = uniform_regions(cube.shape(), 512, 3);
    let max = |a: &DenseArray<i64>, b| {
        range_max_totals(&NaturalMaxTree::for_values(a, b).unwrap(), a, &regions)
    };
    let min = |a: &DenseArray<i64>, b| {
        range_max_totals(&NaturalMinTree::for_min_values(a, b).unwrap(), a, &regions)
    };
    assert_eq!(max(&cube, 2), (41393, 62631, 103000, 36578643));
    assert_eq!(max(&ties, 2), (1267, 5981, 6224, 26719941));
    assert_eq!(min(&ties, 2), (1241, 6024, 6241, 26695579));
    assert_eq!(max(&cube, 4), (247696, 28901, 275573, 36571193));
    assert_eq!(max(&ties, 4), (3938, 6659, 9573, 26990235));
    assert_eq!(min(&ties, 4), (4274, 6529, 9779, 27046490));
}

/// Summed `(A cells, P cells, combine steps, Σ answer)` of the §4.2
/// blocked kernel over `regions` under `policy`.
fn blocked_totals(
    a: &DenseArray<i64>,
    b: usize,
    policy: BoundaryPolicy,
    regions: &[Region],
) -> (u64, u64, u64, i64) {
    let bp = BlockedPrefixCube::build(a, b).unwrap();
    let mut total = AccessStats::new();
    let mut sum = 0i64;
    for region in regions {
        let (v, stats) = QueryCtx::measure(|ctx| bp.read(a, region, policy, ctx)).unwrap();
        total.merge(&stats);
        sum = sum.wrapping_add(v);
    }
    assert_eq!(total.tree_nodes, 0);
    (total.a_cells, total.p_cells, total.combine_steps, sum)
}

/// §8 prices the blocked algorithm in elements accessed. These are the
/// exact counts, and the answers, of the §4.2 kernel on a ragged 2-d cube
/// (extents `b` does not divide, 512 regions of side 96) and on the
/// paper's 4-d insurance cube (512 uniform regions), at b = 4 and b = 16,
/// under each boundary policy. Any change in them changes which cells a
/// part reads or how the parts are split.
#[test]
fn blocked_sum_accesses_and_answers_are_pinned() {
    use BoundaryPolicy::{AlwaysComplement as Complement, AlwaysDirect as Direct, Auto};
    let flat = uniform_cube(Shape::new(&[203, 317]).unwrap(), 1000, 11);
    let sided = sided_regions(flat.shape(), 96, 512, 12);
    let insurance = InsuranceCube::generate(5).revenue;
    let uniform = uniform_regions(insurance.shape(), 512, 13);
    let pinned = [
        (4, Auto, (196980, 5714, 206575), (1883052, 2044, 1889525)),
        (4, Direct, (385024, 2034, 390939), (2479596, 0, 2484025)),
        (
            4,
            Complement,
            (299380, 15350, 318611),
            (5091396, 25910, 5121735),
        ),
        (16, Auto, (753920, 7036, 765400), (2389458, 91, 2391168)),
        (16, Direct, (1441792, 2034, 1448270), (2479596, 0, 2481215)),
        (
            16,
            Complement,
            (1567902, 17156, 1589502),
            (19545204, 5006, 19551829),
        ),
    ];
    for (b, policy, (fa, fp, fc), (ia, ip, ic)) in pinned {
        let at = format!("b = {b}, {policy:?}");
        assert_eq!(
            blocked_totals(&flat, b, policy, &sided),
            (fa, fp, fc, 2357761456),
            "2-d, {at}"
        );
        assert_eq!(
            blocked_totals(&insurance, b, policy, &uniform),
            (ia, ip, ic, 625125685),
            "insurance, {at}"
        );
    }
}
