//! The adaptive router's two promises, checked end to end:
//!
//! 1. On a mixed workload, routing per query is never much worse than the
//!    best *static* single-structure choice — the whole point of carrying
//!    several structures and the §8/§9 cost model.
//! 2. Its choice is the first strict argmin of the engines' own
//!    [`RangeEngine::estimate`], whatever queries came before: nothing it
//!    observes moves a later decision.
//!
//! And the contract that makes the choice cheap: a query is resolved
//! once, and each engine is priced once and read at most once, over that
//! one region.

use olap_cube::array::{BudgetMeter, DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, EngineError, EngineOp, IndexConfig, NaiveEngine, PrefixChoice,
    RangeEngine, SemanticCache, SumTreeEngine,
};
use olap_cube::query::{QueryOutcome, RangeQuery};
use olap_cube::workload::{sided_regions, uniform_cube, uniform_regions};
use std::sync::{Arc, Mutex};

/// Router ≤ BOUND × best static engine, in total observed accesses: the
/// measured ratio on this workload (6 158 / 6 158 = 1.000). Routing on
/// the raw model has no warm-up, so there is no slack to allow for one.
const BOUND: f64 = 1.0;

fn engines(a: &DenseArray<i64>) -> Vec<Box<dyn RangeEngine<i64>>> {
    let cfg = |prefix| IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
    };
    vec![
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(CubeIndex::build(a.clone(), cfg(PrefixChoice::Blocked(4))).unwrap()),
        Box::new(CubeIndex::build(a.clone(), cfg(PrefixChoice::Blocked(16))).unwrap()),
        Box::new(SumTreeEngine::build(a.clone(), 4).unwrap()),
    ]
}

fn router(a: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    engines(a)
        .into_iter()
        .fold(AdaptiveRouter::new(), AdaptiveRouter::with_engine)
}

/// A mixed workload: uniformly random boxes (favouring precomputation)
/// plus small `b`-sided boxes (favouring the naive scan) — no single
/// static structure wins both halves.
fn mixed_workload(shape: &Shape) -> Vec<RangeQuery> {
    let mut queries = Vec::new();
    for region in uniform_regions(shape, 40, 21) {
        queries.push(RangeQuery::from_region(&region));
    }
    for region in sided_regions(shape, 3, 40, 22) {
        queries.push(RangeQuery::from_region(&region));
    }
    // Interleave so both kinds run throughout.
    let (a, b) = queries.split_at(40);
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| [x.clone(), y.clone()])
        .collect()
}

#[test]
fn router_tracks_best_static_choice_on_mixed_workload() {
    let shape = Shape::new(&[96, 96]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 20);
    let queries = mixed_workload(&shape);

    // Total observed cost of each engine answering the whole workload
    // alone (the static alternatives).
    let statics = engines(&a);
    let mut static_totals = Vec::new();
    for e in &statics {
        let total: u64 = queries.iter().map(|q| e.range_sum(q).unwrap().cost()).sum();
        static_totals.push((e.label(), total));
    }
    let best_static = static_totals.iter().map(|&(_, t)| t).min().unwrap();

    // The router over the same engine set; `explain` routes exactly like
    // `range_sum` and names the engine it chose.
    let router = router(&a);
    let mut routed_total = 0u64;
    let mut chosen = std::collections::BTreeSet::new();
    for q in &queries {
        let ex = router.explain(q).unwrap();
        routed_total += ex.observed();
        chosen.insert(ex.chosen_candidate().label.clone());
    }

    let ratio = routed_total as f64 / best_static as f64;
    assert!(
        ratio <= BOUND,
        "router spent {routed_total} = {ratio:.3} × best static {best_static} ({static_totals:?})"
    );
    // Sanity: the workload is genuinely mixed — each half has a different
    // best static engine, so routing must actually switch.
    assert!(chosen.len() >= 2, "routing never switched: {chosen:?}");
}

/// Every candidate's `predicted` is the engine's own estimate, and the
/// chosen engine is their first strict argmin — on a fresh router and on
/// one that has already answered the whole mixed workload.
#[test]
fn explain_candidates_match_direct_estimates() {
    let shape = Shape::new(&[64, 64]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 40);
    let probes: Vec<RangeQuery> = [[(4, 51), (8, 55)], [(3, 5), (60, 62)], [(0, 63), (9, 9)]]
        .iter()
        .map(|b| RangeQuery::from_region(&Region::from_bounds(b).unwrap()))
        .collect();
    let check = |router: &AdaptiveRouter<i64>, when: &str| {
        for q in &probes {
            let explain = router.explain(q).unwrap();
            assert_eq!(explain.candidates.len(), 4);
            for c in &explain.candidates {
                assert_eq!(c.predicted, router.engine(c.index).estimate(q), "{when}");
            }
            let mut argmin = 0;
            for (i, c) in explain.candidates.iter().enumerate() {
                if c.predicted < explain.candidates[argmin].predicted {
                    argmin = i;
                }
            }
            assert_eq!(explain.chosen, argmin, "{when}: {q:?}");
            assert!(explain.observed() > 0);
        }
    };
    let router = router(&a);
    check(&router, "fresh");
    for q in mixed_workload(&shape) {
        router.range_sum(&q).unwrap();
    }
    check(&router, "warmed");
}

/// The regions an engine was priced over and read over, in call order.
#[derive(Default)]
struct Calls {
    costs: Vec<Region>,
    reads: Vec<Region>,
}

/// A pass-through engine that records every region the stack above it
/// hands to `cost` and `read`.
struct Recording {
    inner: Box<dyn RangeEngine<i64>>,
    calls: Arc<Mutex<Calls>>,
}

impl RangeEngine<i64> for Recording {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn shape(&self) -> &Shape {
        self.inner.shape()
    }
    fn cost(&self, region: &Region, op: EngineOp) -> Option<f64> {
        self.calls.lock().unwrap().costs.push(region.clone());
        self.inner.cost(region, op)
    }
    fn read(
        &self,
        region: &Region,
        op: EngineOp,
        meter: &BudgetMeter,
    ) -> Result<QueryOutcome<i64>, EngineError> {
        self.calls.lock().unwrap().reads.push(region.clone());
        self.inner.read(region, op, meter)
    }
}

/// The resolve-once contract, through every layer that takes a query:
/// one `explain` and each routed query run one estimate sweep (a `cost`
/// per engine), the chosen engine is read once, and every region any
/// engine sees equals `query.to_region(shape)`. A cache hit asks the
/// engines nothing.
#[test]
fn one_explain_and_each_routed_query_run_one_estimate_sweep() {
    let shape = Shape::new(&[64, 64]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 7);
    let logs: Vec<Arc<Mutex<Calls>>> = (0..2).map(|_| Arc::default()).collect();
    let inners: [Box<dyn RangeEngine<i64>>; 2] = [
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(CubeIndex::build(a, IndexConfig::default()).unwrap()),
    ];
    let router = Arc::new(inners.into_iter().zip(&logs).fold(
        AdaptiveRouter::new(),
        |r, (inner, calls)| {
            r.with_engine(Box::new(Recording {
                inner,
                calls: Arc::clone(calls),
            }))
        },
    ));
    let cache = SemanticCache::new(Arc::clone(&router), 16);
    // Per engine: (regions priced, regions read) since the last drain.
    let drain = || -> Vec<(Vec<Region>, Vec<Region>)> {
        logs.iter()
            .map(|l| {
                let mut calls = l.lock().unwrap();
                (
                    std::mem::take(&mut calls.costs),
                    std::mem::take(&mut calls.reads),
                )
            })
            .collect()
    };
    let q = |b: [(usize, usize); 2]| RangeQuery::from_region(&Region::from_bounds(&b).unwrap());
    let (tiny, big) = (q([(5, 5), (9, 9)]), q([(0, 60), (0, 60)]));
    let (tiny_region, big_region) = (
        tiny.to_region(&shape).unwrap(),
        big.to_region(&shape).unwrap(),
    );

    // The table and the route share one sweep; the naive scan (1 cell
    // against 2^d = 4) answers.
    let once = vec![tiny_region];
    let tiny_calls = [(once.clone(), once.clone()), (once, vec![])];
    let e1 = router.explain(&tiny).unwrap();
    assert_eq!(drain(), tiny_calls);
    let e2 = router.explain(&tiny).unwrap();
    assert_eq!(drain(), tiny_calls, "nothing is remembered between queries");
    assert_eq!(e1.candidates, e2.candidates, "tables must be identical");
    assert_eq!(e1.chosen, e2.chosen);

    // A routed sum through the cache: resolved once by the cache, priced
    // once per engine and read once on the index, all over one region.
    let miss = cache.range_sum(&big).unwrap();
    let once = vec![big_region.clone()];
    assert_eq!(drain(), [(once.clone(), vec![]), (once.clone(), once)]);
    // The repeat is a hit: no engine is asked anything.
    let hit = cache.range_sum(&big).unwrap();
    assert_eq!(hit.value(), miss.value());
    assert_eq!(drain(), [(vec![], vec![]), (vec![], vec![])]);
    // Straight to the router: one sweep per routed query, each engine
    // priced once whichever answers.
    for query in [&big, &big, &tiny] {
        router.range_sum(query).unwrap();
        assert!(drain()
            .iter()
            .all(|(costs, reads)| costs.len() == 1 && reads.len() <= 1));
    }
}
