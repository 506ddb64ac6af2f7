//! The adaptive router's two promises, checked end to end:
//!
//! 1. On a mixed workload, routing per query is never much worse than the
//!    best *static* single-structure choice — the whole point of carrying
//!    several structures and the §8/§9 cost model.
//! 2. Its choice is the first strict argmin of the engines' own
//!    [`RangeEngine::estimate`], whatever queries came before: nothing it
//!    observes moves a later decision.

use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine, SumTreeEngine,
};
use olap_cube::query::RangeQuery;
use olap_cube::workload::{sided_regions, uniform_cube, uniform_regions};

/// Router ≤ BOUND × best static engine, in total observed accesses: the
/// measured ratio on this workload (6 158 / 6 158 = 1.000). Routing on
/// the raw model has no warm-up, so there is no slack to allow for one.
const BOUND: f64 = 1.0;

fn engines(a: &DenseArray<i64>) -> Vec<Box<dyn RangeEngine<i64>>> {
    let cfg = |prefix| IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
        ..IndexConfig::default()
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
