//! Cross-crate integration: every backend family answers the same
//! [`RangeQuery`] through the [`RangeEngine`] trait, and they must all
//! agree — on sums, extrema, and after updates applied through the trait.

use olap_cube::aggregate::SumOp;
use olap_cube::array::BudgetMeter;
use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    CubeIndex, EngineError, EngineOp, ExtendedCube, IndexConfig, NaiveEngine, PlannedIndex,
    PrefixChoice, RangeEngine, SparseMaxEngine, SparseSumEngine, SumTreeEngine,
};
use olap_cube::planner::PrefixSumChoice;
use olap_cube::query::{CuboidId, RangeQuery};
use olap_cube::workload::{skewed_cube, uniform_cube, uniform_regions};

type Engines = Vec<Box<dyn RangeEngine<i64>>>;

fn config(prefix: PrefixChoice) -> IndexConfig {
    IndexConfig {
        prefix,
        max_tree_fanout: None,
        min_tree_fanout: None,
    }
}

/// Every range-sum backend family over one dense cube: the naive scan,
/// `CubeIndex` in each §3/§4 configuration, the §8 tree-sum engine, the \[GBLP96\] extended cube, the §9 planned index, and the
/// §10.2 sparse engine.
fn sum_engines(a: &DenseArray<i64>) -> Engines {
    let full_cuboid: Vec<usize> = (0..a.shape().ndim()).collect();
    let mut engines: Engines = vec![
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(CubeIndex::build(a.clone(), config(PrefixChoice::Basic)).unwrap()),
        Box::new(SumTreeEngine::build(a.clone(), 3).unwrap()),
        Box::new(ExtendedCube::build(a, SumOp::new()).unwrap()),
        Box::new(
            PlannedIndex::build(
                a.clone(),
                &[PrefixSumChoice {
                    cuboid: CuboidId::from_dims(&full_cuboid),
                    block: 4,
                }],
            )
            .unwrap(),
        ),
        Box::new(SparseSumEngine::from_dense(a).unwrap()),
    ];
    for b in [2usize, 5, 8, 16] {
        engines.push(Box::new(
            CubeIndex::build(a.clone(), config(PrefixChoice::Blocked(b))).unwrap(),
        ));
    }
    engines
}

fn ground_truth_sum(a: &DenseArray<i64>, region: &Region) -> i64 {
    a.fold_region(region, 0i64, |s, &x| s + x)
}

#[test]
fn all_sum_engines_agree_2d() {
    let shape = Shape::new(&[40, 33]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 1);
    let engines = sum_engines(&a);
    for region in uniform_regions(&shape, 60, 2) {
        let q = RangeQuery::from_region(&region);
        let expected = ground_truth_sum(&a, &region);
        for e in &engines {
            let out = e.range_sum(&q).unwrap();
            assert_eq!(out.value(), Some(&expected), "{} {region}", e.label());
            assert!(
                e.estimate(&q).is_finite() && e.estimate(&q) > 0.0,
                "{} estimate for {region}",
                e.label()
            );
        }
    }
}

#[test]
fn all_sum_engines_agree_4d() {
    let shape = Shape::new(&[7, 6, 5, 4]).unwrap();
    let a = uniform_cube(shape.clone(), 50, 3);
    let engines = sum_engines(&a);
    for region in uniform_regions(&shape, 80, 4) {
        let q = RangeQuery::from_region(&region);
        let expected = ground_truth_sum(&a, &region);
        for e in &engines {
            let out = e.range_sum(&q).unwrap();
            assert_eq!(out.value(), Some(&expected), "{} {region}", e.label());
        }
    }
}

#[test]
fn all_extremum_engines_agree() {
    let shape = Shape::new(&[50, 30]).unwrap();
    let a = skewed_cube(shape.clone(), 10_000, 5);
    let mut max_engines: Engines = vec![
        Box::new(NaiveEngine::new(a.clone())),
        Box::new(SparseMaxEngine::from_dense(&a)),
    ];
    for b in [2usize, 3, 4] {
        let cfg = IndexConfig {
            max_tree_fanout: Some(b),
            min_tree_fanout: Some(b),
            ..IndexConfig::default()
        };
        max_engines.push(Box::new(CubeIndex::build(a.clone(), cfg).unwrap()));
    }
    for region in uniform_regions(&shape, 60, 6) {
        let q = RangeQuery::from_region(&region);
        let emax = a.fold_region(&region, i64::MIN, |m, &x| m.max(x));
        let emin = a.fold_region(&region, i64::MAX, |m, &x| m.min(x));
        for e in &max_engines {
            let out = e.range_max(&q).unwrap();
            assert_eq!(out.value(), Some(&emax), "max {} {region}", e.label());
            if e.cost(&region, EngineOp::Min).is_some() {
                let out = e.range_min(&q).unwrap();
                assert_eq!(out.value(), Some(&emin), "min {} {region}", e.label());
            }
        }
    }
}

/// Every engine of both families, with and without min trees.
fn every_engine(a: &DenseArray<i64>) -> Engines {
    let mut engines = sum_engines(a);
    engines.push(Box::new(SparseMaxEngine::from_dense(a)));
    for min_tree_fanout in [None, Some(3)] {
        let cfg = IndexConfig {
            min_tree_fanout,
            ..IndexConfig::default()
        };
        engines.push(Box::new(CubeIndex::build(a.clone(), cfg).unwrap()));
    }
    engines
}

/// The price is the one statement of what an engine serves: for every
/// engine and op, `cost` is `Some` exactly when `read` does not refuse
/// the op as `Unsupported`, on every region alike, and a served op is
/// priced finite and positive.
#[test]
fn prices_are_honest() {
    let a = uniform_cube(Shape::new(&[12, 12]).unwrap(), 100, 7);
    let regions = [
        a.shape().full_region(),
        Region::from_bounds(&[(1, 8), (2, 9)]).unwrap(),
        Region::from_bounds(&[(5, 5), (0, 11)]).unwrap(),
        Region::from_bounds(&[(3, 3), (4, 4)]).unwrap(),
    ];
    for e in &every_engine(&a) {
        for op in [EngineOp::Sum, EngineOp::Max, EngineOp::Min] {
            let served = e.cost(&regions[0], op).is_some();
            for region in &regions {
                let at = format!("{} {op} {region}", e.label());
                let price = e.cost(region, op);
                assert_eq!(price.is_some(), served, "{at}: priced on some regions only");
                let read = e.read(region, op, &BudgetMeter::unlimited());
                let refused = matches!(read, Err(EngineError::Unsupported { .. }));
                assert_eq!(price.is_some(), !refused, "{at}: price vs read");
                if let Some(p) = price {
                    assert!(p.is_finite() && p > 0.0, "{at}: {p}");
                }
            }
        }
    }
}

#[test]
fn updates_flow_through_the_trait() {
    let shape = Shape::new(&[16, 12]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 8);
    let mut engines: Engines = sum_engines(&a)
        .into_iter()
        .filter(|e| e.apply_updates(&[]).is_ok())
        .collect();
    assert!(engines.len() >= 4, "naive, cube-index, tree-sum, sparse");
    let updates: Vec<(Vec<usize>, i64)> = vec![
        (vec![0, 0], 5000),
        (vec![15, 11], -77),
        (vec![7, 7], 0),
        (vec![7, 7], 123), // later update to the same cell wins
    ];
    let mut shadow = a.clone();
    for (idx, v) in &updates {
        *shadow.get_mut(idx) = *v;
    }
    for e in &mut engines {
        let derived = e.apply_updates(&updates).unwrap();
        *e = derived.engine;
    }
    for region in uniform_regions(&shape, 30, 9) {
        let q = RangeQuery::from_region(&region);
        let expected = ground_truth_sum(&shadow, &region);
        for e in &engines {
            let out = e.range_sum(&q).unwrap();
            assert_eq!(out.value(), Some(&expected), "{} {region}", e.label());
        }
    }
}

#[test]
fn prefix_sum_cost_is_constant_while_naive_grows() {
    // The §11 claim, observed through the trait's AccessStats: the naive
    // scan's cost grows with query volume while the §3 prefix sum stays at
    // 2^d, and the analytic estimates track the same shape.
    let shape = Shape::new(&[256, 256]).unwrap();
    let a = uniform_cube(shape, 100, 11);
    let naive: Box<dyn RangeEngine<i64>> = Box::new(NaiveEngine::new(a.clone()));
    let prefix: Box<dyn RangeEngine<i64>> =
        Box::new(CubeIndex::build(a, config(PrefixChoice::Basic)).unwrap());
    let mut last_naive = 0u64;
    for side in [4usize, 16, 64, 192] {
        let region = Region::from_bounds(&[(10, 9 + side), (20, 19 + side)]).unwrap();
        let q = RangeQuery::from_region(&region);
        let ncost = naive.range_sum(&q).unwrap().cost();
        assert!(ncost > last_naive);
        last_naive = ncost;
        assert!(naive.estimate(&q) >= (side * side) as f64);
        let pout = prefix.range_sum(&q).unwrap();
        assert!(pout.cost() <= 4, "prefix stays ≤ 2^d");
        assert_eq!(prefix.estimate(&q), 4.0);
    }
}
