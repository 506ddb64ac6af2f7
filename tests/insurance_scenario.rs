//! The paper's §1 insurance scenario as a deep integration test: the
//! extended cube, the prefix-sum approaches, the schema layer, and the
//! engines must all tell the same story with the paper's exact costs.

use olap_cube::aggregate::SumOp;
use olap_cube::engine::{CubeIndex, ExtendedCube, IndexConfig};
use olap_cube::prefix_sum::PrefixSumCube;
use olap_cube::query::{CubeSchema, DimSelection, QueryCtx, RangeQuery};
use olap_cube::workload::{InsuranceCube, INSURANCE_TYPES, STATES};

fn schema() -> CubeSchema {
    CubeSchema::new(vec![
        CubeSchema::integer("age", 1, 100),
        CubeSchema::integer("year", 1987, 1996),
        CubeSchema::categorical("state", &STATES),
        CubeSchema::categorical("type", &INSURANCE_TYPES),
    ])
}

#[test]
fn schema_matches_the_generated_cube() {
    let s = schema();
    let cube = InsuranceCube::generate(3);
    assert_eq!(s.shape().unwrap().dims(), cube.revenue.shape().dims());
    assert_eq!(s.rank_int("age", 37).unwrap(), InsuranceCube::age_rank(37));
    assert_eq!(
        s.rank_category("type", "auto").unwrap(),
        InsuranceCube::type_rank("auto").unwrap()
    );
}

#[test]
fn paper_costs_reproduce_exactly() {
    let s = schema();
    let cube = InsuranceCube::generate(1997);
    let a = &cube.revenue;
    let extended = ExtendedCube::build(a, SumOp::<i64>::new()).unwrap();
    // "the data cube will be extended to 101 × 11 × 51 × 4".
    assert_eq!(extended.len(), 101 * 11 * 51 * 4);

    // The singleton query (all, 1995, all, auto): one cell access.
    let singleton = s
        .query()
        .eq_int("year", 1995)
        .unwrap()
        .eq("type", "auto")
        .unwrap()
        .build()
        .unwrap();
    let (v_ext, stats) = extended.aggregate(&singleton).unwrap();
    assert_eq!(stats.total_accesses(), 1);

    // "one needs to access 16·9·1·1 cells in the extended data cube".
    let range_q = s
        .query()
        .range("age", 37, 52)
        .unwrap()
        .range("year", 1988, 1996)
        .unwrap()
        .eq("type", "auto")
        .unwrap()
        .build()
        .unwrap();
    let (v_range, stats) = extended.aggregate(&range_q).unwrap();
    assert_eq!(stats.total_accesses(), 16 * 9);

    // Prefix sums answer both within 2^d accesses, same values.
    let ps = PrefixSumCube::build(a);
    let r1 = singleton.to_region(a.shape()).unwrap();
    let r2 = range_q.to_region(a.shape()).unwrap();
    let (p1, s1) = QueryCtx::measure(|ctx| ps.read(&r1, ctx)).unwrap();
    let (p2, s2) = QueryCtx::measure(|ctx| ps.read(&r2, ctx)).unwrap();
    assert_eq!(p1, v_ext);
    assert_eq!(p2, v_range);
    assert!(s1.total_accesses() <= 16);
    assert!(s2.total_accesses() <= 16);
}

#[test]
fn the_full_stack_agrees_on_many_insurance_queries() {
    let s = schema();
    let cube = InsuranceCube::generate(8);
    let a = cube.revenue.clone();
    let extended = ExtendedCube::build(&a, SumOp::<i64>::new()).unwrap();
    let index = CubeIndex::build(a.clone(), IndexConfig::default()).unwrap();
    // A spread of query shapes: every combination of
    // (age range / all) × (year range / singleton / all) × state × type.
    let mut queries: Vec<RangeQuery> = Vec::new();
    for age in [
        DimSelection::All,
        DimSelection::span(InsuranceCube::age_rank(20), InsuranceCube::age_rank(65)).unwrap(),
    ] {
        for year in [
            DimSelection::All,
            DimSelection::Single(InsuranceCube::year_rank(1990)),
            DimSelection::span(
                InsuranceCube::year_rank(1988),
                InsuranceCube::year_rank(1993),
            )
            .unwrap(),
        ] {
            for state in [
                DimSelection::All,
                DimSelection::Single(s.rank_category("state", "CA").unwrap()),
            ] {
                for kind in [
                    DimSelection::All,
                    DimSelection::Single(s.rank_category("type", "health").unwrap()),
                ] {
                    queries.push(RangeQuery::new(vec![age, year, state, kind]).unwrap());
                }
            }
        }
    }
    assert_eq!(queries.len(), 24);
    for q in &queries {
        let region = q.to_region(a.shape()).unwrap();
        let naive = a.fold_region(&region, 0i64, |acc, &x| acc + x);
        assert_eq!(extended.aggregate(q).unwrap().0, naive, "{q:?}");
        assert_eq!(index.range_sum(&region).unwrap().0, naive, "{q:?}");
    }
}
