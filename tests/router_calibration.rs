//! The adaptive router's two promises, checked end to end:
//!
//! 1. On a mixed workload, routing per query is never much worse than the
//!    best *static* single-structure choice — the whole point of carrying
//!    several structures and the §8/§9 cost model.
//! 2. Re-issuing a recurring workload demonstrably tightens the EWMA
//!    calibration: late predictions track observed access counts better
//!    than early ones.

use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine, SumTreeEngine,
};
use olap_cube::query::RangeQuery;
use olap_cube::workload::{sided_regions, uniform_cube, uniform_regions};

/// Router ≤ BOUND × best static engine, in total observed accesses. The
/// slack covers calibration warm-up (the first queries route on the
/// uncorrected analytic model) plus residual model error.
const BOUND: f64 = 1.25;

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
    // Interleave so calibration sees both kinds throughout.
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

    // The router over the same engine set.
    let router = AdaptiveRouter::new();
    for e in engines(&a) {
        router.push(e);
    }
    let mut routed_total = 0u64;
    for q in &queries {
        routed_total += router.range_sum(q).unwrap().cost();
    }

    assert!(
        (routed_total as f64) <= BOUND * best_static as f64,
        "router spent {routed_total}, best static {best_static} ({static_totals:?})"
    );
    // Sanity: the workload is genuinely mixed — each half has a different
    // best static engine, so routing must actually switch.
    let labels = router.labels();
    let chosen: Vec<&str> = queries
        .iter()
        .map(|q| {
            let cands = router.candidates(q, olap_cube::engine::EngineOp::Sum);
            let best = cands
                .iter()
                .min_by(|x, y| x.calibrated.partial_cmp(&y.calibrated).unwrap())
                .unwrap();
            labels[best.index].as_str()
        })
        .collect();
    let distinct: std::collections::BTreeSet<&str> = chosen.into_iter().collect();
    assert!(distinct.len() >= 2, "routing never switched: {distinct:?}");
}

#[test]
fn replay_tightens_predicted_vs_observed() {
    let shape = Shape::new(&[128, 128]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 30);
    // One engine whose analytic model has systematic error the EWMA must
    // learn: the §8 tree cost formula is an average-case surface bound.
    let router: AdaptiveRouter<i64> =
        AdaptiveRouter::new().with_engine(Box::new(SumTreeEngine::build(a, 4).unwrap()));

    // An OLAP dashboard's steady state: the same handful of report
    // queries re-issued over and over. Re-issuing them lets the EWMA learn
    // each recurring shape's true cost.
    let base = sided_regions(&shape, 40, 3, 31);
    // |observed − predicted| / observed for each query, where "predicted"
    // is the chosen candidate's calibrated cost at decision time (before
    // this query's own observation fed back).
    let errs: Vec<f64> = (0..20)
        .map(|round| {
            let q = RangeQuery::from_region(&base[round % base.len()]);
            let ex = router.explain(&q).unwrap();
            let observed = ex.observed() as f64;
            (observed - ex.chosen_candidate().calibrated).abs() / observed
        })
        .collect();

    let mean_err = |slice: &[f64]| -> f64 { slice.iter().sum::<f64>() / slice.len() as f64 };
    let early = mean_err(&errs[..5]);
    let late = mean_err(&errs[15..]);
    assert!(
        late < early,
        "calibration did not tighten: early err {early:.4}, late err {late:.4}"
    );
    // And the learned ratio is no longer the uninformed 1.0.
    let ratio = router.calibration()[0];
    assert!((ratio - 1.0).abs() > 1e-3, "ratio stayed at 1.0: {ratio}");
}

#[test]
fn explain_candidates_match_direct_estimates() {
    let shape = Shape::new(&[64, 64]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 40);
    let router = AdaptiveRouter::new();
    for e in engines(&a) {
        router.push(e);
    }
    let q = RangeQuery::from_region(&Region::from_bounds(&[(4, 51), (8, 55)]).unwrap());
    let explain = router.explain(&q).unwrap();
    assert_eq!(explain.candidates.len(), 4);
    // Fresh router: ratios are all 1.0, so calibrated == raw, and the
    // chosen engine is the raw argmin.
    for c in &explain.candidates {
        assert_eq!(c.ratio, 1.0);
        assert_eq!(c.calibrated, c.raw);
    }
    let argmin = explain
        .candidates
        .iter()
        .min_by(|x, y| x.calibrated.partial_cmp(&y.calibrated).unwrap())
        .unwrap();
    assert_eq!(explain.chosen, argmin.index);
    assert!(explain.observed() > 0);
}
