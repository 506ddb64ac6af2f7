//! Long-running interleavings of queries and batched updates across every
//! maintained structure — the §5/§7 OLAP day/night cycle, hammered.
//!
//! The `concurrent_*` property tests at the bottom drive real threads
//! against the snapshot-isolation machinery (`VersionCell`, the sharded
//! `CubeServer`) and belong to the ThreadSanitizer CI leg.

use olap_cube::array::{CellRead, Shape};
use olap_cube::engine::{CubeIndex, IndexConfig, PrefixChoice, RangeEngine, SumTreeEngine};
use olap_cube::query::RangeQuery;
use olap_cube::workload::{uniform_cube, uniform_regions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn naive_sum(a: &olap_cube::array::DenseArray<i64>, q: &olap_cube::array::Region) -> i64 {
    a.fold_region(q, 0i64, |s, &x| s + x)
}

fn naive_max(a: &olap_cube::array::DenseArray<i64>, q: &olap_cube::array::Region) -> i64 {
    a.fold_region(q, i64::MIN, |m, &x| m.max(x))
}

#[test]
fn twenty_rounds_of_mixed_queries_and_updates() {
    let shape = Shape::new(&[32, 24, 6]).unwrap();
    let a = uniform_cube(shape.clone(), 500, 100);
    let mut shadow = a.clone(); // ground truth maintained naively
    let cfg = IndexConfig {
        prefix: PrefixChoice::Basic,
        max_tree_fanout: Some(3),
        min_tree_fanout: None,
    };
    let mut index = CubeIndex::build(a.clone(), cfg).unwrap();
    // The §8 tree-sum baseline beside the index, derived through the
    // engine trait each round.
    let mut tree: Box<dyn RangeEngine<i64>> = Box::new(SumTreeEngine::build(a, 2).unwrap());
    let mut rng = StdRng::seed_from_u64(7);

    for round in 0..20u64 {
        // Queries.
        for q in uniform_regions(&shape, 10, 1000 + round) {
            let (s, _) = index.range_sum(&q).unwrap();
            assert_eq!(s, naive_sum(&shadow, &q), "round {round} {q}");
            let routed = tree.range_sum(&RangeQuery::from_region(&q)).unwrap();
            assert_eq!(routed.value(), Some(&s), "tree-sum round {round} {q}");
            let (at, m, _) = index.range_max(&q).unwrap();
            assert_eq!(m, naive_max(&shadow, &q), "round {round} {q}");
            assert!(q.contains(&at));
            assert_eq!(*shadow.get(&at), m);
        }
        // A batch of updates (with occasional duplicates).
        let k = rng.random_range(1..10usize);
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            let idx = vec![
                rng.random_range(0..32usize),
                rng.random_range(0..24usize),
                rng.random_range(0..6usize),
            ];
            let v = rng.random_range(-500i64..500);
            batch.push((idx, v));
        }
        if k > 2 {
            // Force a duplicate: last entry overwrites the first.
            let first = batch[0].0.clone();
            batch.push((first, rng.random_range(-500i64..500)));
        }
        index.apply_updates_in_place(&batch).unwrap();
        tree = tree.apply_updates(&batch).unwrap().engine;
        for (idx, v) in &batch {
            *shadow.get_mut(idx) = *v;
        }
    }

    // Final deep check: both cubes equal the shadow exactly.
    assert_eq!(index.cube().to_dense().as_slice(), shadow.as_slice());
    assert_eq!(
        tree.base().unwrap().to_dense().as_slice(),
        shadow.as_slice()
    );
}

#[test]
fn blocked_index_update_cycle() {
    let shape = Shape::new(&[45, 45]).unwrap();
    let a = uniform_cube(shape.clone(), 100, 5);
    let mut shadow = a.clone();
    let cfg = IndexConfig {
        prefix: PrefixChoice::Blocked(7),
        max_tree_fanout: None,
        min_tree_fanout: None,
    };
    let mut index = CubeIndex::build(a, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    for round in 0..15u64 {
        let batch: Vec<(Vec<usize>, i64)> = (0..5)
            .map(|_| {
                (
                    vec![rng.random_range(0..45usize), rng.random_range(0..45usize)],
                    rng.random_range(0..100i64),
                )
            })
            .collect();
        index.apply_updates_in_place(&batch).unwrap();
        for (idx, v) in &batch {
            *shadow.get_mut(idx) = *v;
        }
        for q in uniform_regions(&shape, 8, 2000 + round) {
            let (s, _) = index.range_sum(&q).unwrap();
            assert_eq!(s, naive_sum(&shadow, &q), "round {round} {q}");
        }
    }
}

mod concurrent {
    //! Threads hammering snapshot installs: any answer observed while an
    //! update batch is in flight must be bit-identical to the pre- or
    //! post-update sequential oracle — never a mix.

    use super::naive_sum;
    use olap_cube::array::{Region, Shape};
    use olap_cube::engine::{CubeIndex, IndexConfig, RangeEngine, VersionCell};
    use olap_cube::query::RangeQuery;
    use olap_cube::server::{CubeServer, ServeConfig};
    use olap_cube::workload::{uniform_cube, uniform_regions};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Cube dims, an update batch inside them, and a region seed.
    type UpdateCase = (Vec<usize>, Vec<(Vec<usize>, i64)>, u64);

    fn arb_case() -> impl Strategy<Value = UpdateCase> {
        prop::collection::vec(3usize..9, 2..=3).prop_flat_map(|dims| {
            let cell: Vec<_> = dims.iter().map(|&n| 0..n).collect();
            let batch = prop::collection::vec((cell, -900i64..900), 1..6);
            (Just(dims), batch, any::<u64>())
        })
    }

    fn sum_through(engine: &dyn RangeEngine<i64>, r: &Region) -> i64 {
        let out = engine.range_sum(&RangeQuery::from_region(r)).unwrap();
        *out.answer.value().expect("sum answers carry a value")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Readers loading live snapshots from a [`VersionCell`] while a
        /// writer installs a successor: every observed sum is the pre- or
        /// post-update oracle, a snapshot pinned before the install keeps
        /// answering pre exactly, and the install is visible afterwards.
        #[test]
        fn concurrent_snapshot_readers_see_pre_or_post_values(
            (dims, batch, seed) in arb_case(),
            readers in 2usize..4,
        ) {
            let shape = Shape::new(&dims).unwrap();
            let pre = uniform_cube(shape.clone(), 700, seed);
            let mut post = pre.clone();
            for (idx, v) in &batch {
                *post.get_mut(idx) = *v;
            }
            let index = CubeIndex::build(pre.clone(), IndexConfig::default()).unwrap();
            let cell = VersionCell::new(Box::new(index));
            let pinned = cell.load();
            let regions = uniform_regions(&shape, 12, seed ^ 0x5eed);
            let observed: Mutex<Vec<(usize, i64)>> = Mutex::new(Vec::new());

            std::thread::scope(|scope| {
                for r in 0..readers {
                    let cell = &cell;
                    let regions = &regions;
                    let observed = &observed;
                    scope.spawn(move || {
                        for (i, region) in
                            regions.iter().enumerate().skip(r).step_by(readers)
                        {
                            let got = sum_through(cell.load().engine(), region);
                            observed.lock().unwrap().push((i, got));
                        }
                    });
                }
                scope.spawn(|| {
                    cell.update(&batch).unwrap();
                });
            });

            for (i, got) in observed.into_inner().unwrap() {
                let (a, b) = (naive_sum(&pre, &regions[i]), naive_sum(&post, &regions[i]));
                prop_assert!(got == a || got == b, "region {i}: {got} ∉ {{{a}, {b}}}");
            }
            // Snapshot isolation proper: the pinned pre-install version is
            // untouched by the concurrent install.
            for region in &regions {
                prop_assert_eq!(sum_through(pinned.engine(), region), naive_sum(&pre, region));
            }
            prop_assert_eq!(cell.epoch(), 1);
            for region in &regions {
                prop_assert_eq!(
                    sum_through(cell.load().engine(), region),
                    naive_sum(&post, region)
                );
            }
        }

        /// The sharded server under a mid-flight single-shard batch (one
        /// snapshot swap ⇒ globally atomic): concurrent readers never see
        /// a torn sum.
        #[test]
        fn concurrent_sharded_server_updates_never_tear_answers(
            (dims, mut batch, seed) in arb_case(),
            shards in 2usize..5,
            readers in 2usize..4,
        ) {
            let shape = Shape::new(&dims).unwrap();
            let pre = uniform_cube(shape.clone(), 700, seed);
            // Confine the batch to one row of axis 0 so it lands in a
            // single shard and the install is one atomic swap.
            let row = batch[0].0[0];
            for (idx, _) in &mut batch {
                idx[0] = row;
            }
            let mut post = pre.clone();
            for (idx, v) in &batch {
                *post.get_mut(idx) = *v;
            }
            let srv = CubeServer::build(
                &pre,
                ServeConfig { shards, ..ServeConfig::default() },
            )
            .unwrap();
            let regions = uniform_regions(&shape, 12, seed ^ 0xca11);
            let observed: Mutex<Vec<(usize, i64)>> = Mutex::new(Vec::new());

            std::thread::scope(|scope| {
                for r in 0..readers {
                    let srv = &srv;
                    let regions = &regions;
                    let observed = &observed;
                    scope.spawn(move || {
                        for (i, region) in
                            regions.iter().enumerate().skip(r).step_by(readers)
                        {
                            let got = srv
                                .range_sum(&RangeQuery::from_region(region))
                                .unwrap()
                                .value;
                            observed.lock().unwrap().push((i, got));
                        }
                    });
                }
                scope.spawn(|| {
                    srv.apply_updates(&batch).unwrap();
                });
            });

            for (i, got) in observed.into_inner().unwrap() {
                let (a, b) = (naive_sum(&pre, &regions[i]), naive_sum(&post, &regions[i]));
                prop_assert!(got == a || got == b, "region {i}: {got} ∉ {{{a}, {b}}}");
            }
            for region in &regions {
                prop_assert_eq!(
                    srv.range_sum(&RangeQuery::from_region(region)).unwrap().value,
                    naive_sum(&post, region)
                );
            }
        }
    }
}
