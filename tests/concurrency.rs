//! Read-path concurrency: the OLAP setting is read-mostly, so all query
//! structures must be shareable across threads (`Send + Sync`) and give
//! identical answers under concurrent access. No locking is involved —
//! queries take `&self`.

use olap_cube::array::{mix, CellRead, DenseArray, PagedArray, Region, Shape};
use olap_cube::engine::{AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice};
use olap_cube::prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_cube::query::RangeQuery;
use olap_cube::range_max::NaturalMaxTree;
use olap_cube::sparse::{SparseCube, SparseRangeSum};
use olap_cube::workload::{uniform_cube, uniform_regions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn structures_are_send_and_sync() {
    assert_send_sync::<DenseArray<i64>>();
    assert_send_sync::<PagedArray<i64>>();
    assert_send_sync::<PrefixSumCube<i64>>();
    assert_send_sync::<BlockedPrefixCube<i64>>();
    assert_send_sync::<NaturalMaxTree<i64>>();
    assert_send_sync::<SparseRangeSum<olap_cube::aggregate::SumOp<i64>>>();
}

#[test]
fn concurrent_queries_agree_with_serial() {
    let shape = Shape::new(&[128, 96]).unwrap();
    let a = Arc::new(uniform_cube(shape.clone(), 1000, 77));
    let ps = Arc::new(PrefixSumCube::build(&a));
    let bp = Arc::new(BlockedPrefixCube::build(&a, 8).unwrap());
    let tree = Arc::new(NaturalMaxTree::for_values(&a, 4).unwrap());
    let queries = Arc::new(uniform_regions(&shape, 200, 78));

    // Serial ground truth.
    let expected: Vec<(i64, i64)> = queries
        .iter()
        .map(|q| {
            (
                a.fold_region(q, 0i64, |s, &x| s + x),
                a.fold_region(q, i64::MIN, |m, &x| m.max(x)),
            )
        })
        .collect();
    let expected = Arc::new(expected);

    let mut handles = Vec::new();
    for t in 0..4usize {
        let (a, ps, bp, tree, queries, expected) = (
            Arc::clone(&a),
            Arc::clone(&ps),
            Arc::clone(&bp),
            Arc::clone(&tree),
            Arc::clone(&queries),
            Arc::clone(&expected),
        );
        handles.push(std::thread::spawn(move || {
            // Each thread walks the queries from a different offset.
            for i in 0..queries.len() {
                let k = (i + t * 53) % queries.len();
                let q: &Region = &queries[k];
                let (want_sum, want_max) = expected[k];
                assert_eq!(ps.range_sum(q).unwrap(), want_sum);
                assert_eq!(bp.range_sum(&a, q).unwrap(), want_sum);
                assert_eq!(tree.range_max(&a, q).unwrap().1, want_max);
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

#[test]
fn concurrent_sparse_queries() {
    let shape = Shape::new(&[200, 200]).unwrap();
    let pts = olap_cube::workload::clustered_sparse_cube(&shape, 3, 15, 300, 50, 5);
    let cube = Arc::new(SparseCube::new(shape.clone(), pts).unwrap());
    let engine = Arc::new(SparseRangeSum::build(&cube).unwrap());
    let queries = Arc::new(uniform_regions(&shape, 60, 6));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let (cube, engine, queries) =
            (Arc::clone(&cube), Arc::clone(&engine), Arc::clone(&queries));
        handles.push(std::thread::spawn(move || {
            for q in queries.iter() {
                let expected: i64 = cube.points_in(q).map(|(_, v)| *v).sum();
                assert_eq!(engine.range_sum(q).unwrap(), expected);
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

/// Readers pinned on old snapshots while a writer derives new ones. Every
/// snapshot shares the pages no batch has written with its successors, so
/// a writer that wrote into a shared page in place, rather than copying it
/// first, would change what a pinned reader sees. Each reader pins the
/// index, finds which version of the cube its base holds, checks every
/// sum, max and min against that version, and checks that the base still
/// holds it afterwards.
#[test]
fn concurrent_readers_keep_their_pages_while_a_writer_copies_on_write() {
    let shape = Shape::new(&[96, 128]).unwrap(); // three pages
    let cube = uniform_cube(shape.clone(), 1000, 91);
    let batches: Vec<Vec<(Vec<usize>, i64)>> = (0..48u64)
        .map(|k| {
            (0..4u64)
                .map(|i| {
                    let r = mix(k << 8 | i);
                    let at = (r as usize % shape.len()) & !3;
                    (shape.unflatten(at), (r >> 32) as i64 % 5000)
                })
                .collect()
        })
        .collect();
    let mut versions = vec![cube.clone()];
    for batch in &batches {
        let mut next = versions.last().unwrap().clone();
        for (idx, v) in batch {
            *next.get_mut(idx) = *v;
        }
        versions.push(next);
    }
    let base: Arc<PagedArray<i64>> = cube.into();
    let config = IndexConfig {
        prefix: PrefixChoice::Blocked(8),
        max_tree_fanout: Some(4),
        min_tree_fanout: Some(4),
    };
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(
            CubeIndex::build(Arc::clone(&base), config).unwrap(),
        ))
        .with_engine(Box::new(NaiveEngine::new(base)));
    let regions = uniform_regions(&shape, 16, 92);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for batch in &batches {
                router.apply_updates(batch).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = false;
                while !last {
                    last = done.load(Ordering::Acquire);
                    let index = router.engine(0);
                    let base = index.base().expect("the index exposes its base");
                    let at_pin = base.to_dense();
                    let version = versions
                        .iter()
                        .position(|v| *v == at_pin)
                        .expect("a pinned base holds some version of the cube");
                    let cube = &versions[version];
                    for region in &regions {
                        let q = RangeQuery::from_region(region);
                        let sum = cube.fold_region(region, 0i64, |s, &x| s + x);
                        let max = cube.fold_region(region, i64::MIN, |m, &x| m.max(x));
                        let min = cube.fold_region(region, i64::MAX, |m, &x| m.min(x));
                        let value = |o: olap_cube::query::QueryOutcome<i64>| *o.value().unwrap();
                        assert_eq!(value(index.range_sum(&q).unwrap()), sum, "v{version}");
                        assert_eq!(value(index.range_max(&q).unwrap()), max, "v{version}");
                        assert_eq!(value(index.range_min(&q).unwrap()), min, "v{version}");
                    }
                    assert!(
                        base.to_dense() == at_pin,
                        "version {version} changed under a reader"
                    );
                }
            });
        }
    });
    assert_eq!(router.engine(1).base().unwrap().to_dense(), versions[48]);
}
