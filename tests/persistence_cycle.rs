//! The full deployment cycle across crates: build structures, update them
//! incrementally, persist everything, reload in "another process", and
//! verify each reloaded structure answers exactly like a shadow cube.

use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::prefix_sum::batch::{self, CellUpdate};
use olap_cube::prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_cube::range_max::{NaturalMaxTree, NaturalMinTree, PointUpdate};
use olap_cube::sparse::SparseCube;
use olap_cube::storage;
use olap_cube::workload::{uniform_cube, uniform_regions};

fn roundtrip<T>(
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), storage::StorageError>,
    read: impl FnOnce(&mut &[u8]) -> Result<T, storage::StorageError>,
) -> T {
    let mut buf = Vec::new();
    write(&mut buf).expect("write");
    read(&mut buf.as_slice()).expect("read")
}

#[test]
fn update_persist_reload_query() {
    let shape = Shape::new(&[48, 36]).unwrap();
    let mut a = uniform_cube(shape.clone(), 500, 11);
    let mut ps = PrefixSumCube::build(&a);
    let mut bp = BlockedPrefixCube::build(&a, 6).unwrap();
    let mut maxt = NaturalMaxTree::for_values(&a, 3).unwrap();
    let mut mint = NaturalMinTree::for_min_values(&a, 3).unwrap();

    // Several update rounds before persisting.
    for round in 0..5i64 {
        let updates: Vec<(Vec<usize>, i64)> = (0..6)
            .map(|k| {
                (
                    vec![
                        ((round * 17 + k * 7) % 48) as usize,
                        ((round * 5 + k) % 36) as usize,
                    ],
                    round * 100 - k * 13,
                )
            })
            .collect();
        let deltas: Vec<CellUpdate<i64>> = updates
            .iter()
            .map(|(idx, v)| CellUpdate::new(idx, v - a.get(idx)))
            .collect();
        batch::apply_batch(&mut ps, &deltas).unwrap();
        batch::apply_batch_blocked(&mut bp, &deltas).unwrap();
        let pts: Vec<PointUpdate<i64>> = updates
            .iter()
            .map(|(i, v)| PointUpdate::new(i, *v))
            .collect();
        let mut shadow_for_min = a.clone();
        mint.batch_update(&mut shadow_for_min, &pts).unwrap();
        maxt.batch_update(&mut a, &pts).unwrap(); // applies writes to `a`
    }

    // Persist and reload everything.
    let a2: DenseArray<i64> = roundtrip(
        |w| storage::write_dense_i64(w, &a),
        |r| storage::read_dense_i64(r),
    );
    let ps2 = roundtrip(
        |w| storage::write_prefix_sum(w, &ps),
        |r| storage::read_prefix_sum(r),
    );
    let bp2 = roundtrip(
        |w| storage::write_blocked_prefix(w, &bp),
        |r| storage::read_blocked_prefix(r),
    );
    let maxt2 = roundtrip(
        |w| storage::write_max_tree(w, &maxt),
        |r| storage::read_max_tree(r),
    );
    let mint2 = roundtrip(
        |w| storage::write_min_tree(w, &mint),
        |r| storage::read_min_tree(r),
    );

    maxt2.check_invariants(&a2).unwrap();
    mint2.check_invariants(&a2).unwrap();
    assert_eq!(a2.as_slice(), a.as_slice());

    for q in uniform_regions(&shape, 80, 12) {
        let sum = a2.fold_region(&q, 0i64, |s, &x| s + x);
        let max = a2.fold_region(&q, i64::MIN, |m, &x| m.max(x));
        let min = a2.fold_region(&q, i64::MAX, |m, &x| m.min(x));
        assert_eq!(ps2.range_sum(&q).unwrap(), sum, "{q}");
        assert_eq!(bp2.range_sum(&a2, &q).unwrap(), sum, "{q}");
        assert_eq!(maxt2.range_max(&a2, &q).unwrap().1, max, "{q}");
        assert_eq!(mint2.range_max(&a2, &q).unwrap().1, min, "{q}");
    }
}

#[test]
fn cross_kind_reads_fail_cleanly() {
    let a = uniform_cube(Shape::new(&[8, 8]).unwrap(), 100, 1);
    let maxt = NaturalMaxTree::for_values(&a, 2).unwrap();
    let mint = NaturalMinTree::for_min_values(&a, 2).unwrap();
    let mut max_buf = Vec::new();
    storage::write_max_tree(&mut max_buf, &maxt).unwrap();
    let mut min_buf = Vec::new();
    storage::write_min_tree(&mut min_buf, &mint).unwrap();
    // A min tree must never deserialize as a max tree (the order would be
    // silently wrong) and vice versa.
    assert!(storage::read_max_tree(&mut min_buf.as_slice()).is_err());
    assert!(storage::read_min_tree(&mut max_buf.as_slice()).is_err());
    // And neither reads as a cube.
    assert!(storage::read_dense_i64(&mut max_buf.as_slice()).is_err());
}

#[test]
fn reloaded_structures_keep_accepting_updates() {
    let shape = Shape::new(&[20, 20]).unwrap();
    let mut a = uniform_cube(shape.clone(), 100, 9);
    let ps = PrefixSumCube::build(&a);
    let mut ps2 = roundtrip(
        |w| storage::write_prefix_sum(w, &ps),
        |r| storage::read_prefix_sum(r),
    );
    let u = CellUpdate::new(&[5, 5], 42);
    batch::apply_batch(&mut ps2, std::slice::from_ref(&u)).unwrap();
    *a.get_mut(&[5, 5]) += 42;
    let q = Region::from_bounds(&[(0, 19), (0, 19)]).unwrap();
    assert_eq!(
        ps2.range_sum(&q).unwrap(),
        a.fold_region(&q, 0i64, |s, &x| s + x)
    );
}

/// Reads `bytes` with every truncation and every single-bit flip: each
/// truncation must fail, and each flip must fail or read an artifact
/// that `valid` accepts. A panic on any of them fails the test with the
/// offending case.
fn corruption_sweep<T>(
    what: &str,
    bytes: &[u8],
    read: impl Fn(&mut &[u8]) -> Result<T, storage::StorageError>,
    valid: impl Fn(&T) -> bool,
) {
    let run = |case: &str, input: &[u8]| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            read(&mut &input[..]).map(|t| valid(&t))
        }))
        .unwrap_or_else(|_| panic!("{what}: {case} panicked"))
    };
    assert_eq!(run("the fixture", bytes).ok(), Some(true), "{what}");
    for cut in 0..bytes.len() {
        assert!(
            run(&format!("a cut at {cut}"), &bytes[..cut]).is_err(),
            "{what}: cut at {cut}"
        );
    }
    let mut flipped = bytes.to_vec();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            let case = format!("bit {bit} of byte {pos} flipped");
            let read = run(&case, &flipped);
            assert!(!matches!(read, Ok(false)), "{what}: {case} read as invalid");
            flipped[pos] ^= 1 << bit;
        }
    }
}

#[test]
fn persisted_bytes_fail_cleanly_under_every_truncation_and_bit_flip() {
    let a = DenseArray::from_vec(
        Shape::new(&[3, 4]).unwrap(),
        vec![5, -3, 8, 0, 2, 9, -7, 4, 1, 6, 3, -2],
    )
    .unwrap();
    let full = a.shape().full_region();
    let bytes = |write: &dyn Fn(&mut Vec<u8>) -> Result<(), storage::StorageError>| {
        let mut buf = Vec::new();
        write(&mut buf).unwrap();
        buf
    };
    let dense = bytes(&|w| storage::write_dense_i64(w, &a));
    corruption_sweep(
        "dense i64",
        &dense,
        |r| storage::read_dense_i64(r),
        |d| d.as_slice().len() == d.shape().len(),
    );
    let f = DenseArray::from_vec(
        Shape::new(&[2, 3]).unwrap(),
        vec![0.5, -1.0, 2.25, 3.0, 0.0, 9.5],
    )
    .unwrap();
    let dense_f64 = bytes(&|w| storage::write_dense_f64(w, &f));
    corruption_sweep(
        "dense f64",
        &dense_f64,
        |r| storage::read_dense_f64(r),
        |d| d.as_slice().len() == d.shape().len(),
    );
    let sparse = SparseCube::new(
        Shape::new(&[4, 4]).unwrap(),
        vec![(vec![0, 1], 7), (vec![2, 3], -4), (vec![3, 0], 11)],
    )
    .unwrap();
    let sparse = bytes(&|w| storage::write_sparse_cube(w, &sparse));
    corruption_sweep(
        "sparse cube",
        &sparse,
        |r| storage::read_sparse_cube(r),
        |s| {
            s.points()
                .iter()
                .all(|(i, _)| s.shape().check_index(i).is_ok())
        },
    );
    let prefix = bytes(&|w| storage::write_prefix_sum(w, &PrefixSumCube::build(&a)));
    corruption_sweep(
        "prefix sum",
        &prefix,
        |r| storage::read_prefix_sum(r),
        |ps| ps.range_sum(&ps.shape().full_region()).is_ok(),
    );
    let blocked = BlockedPrefixCube::build(&a, 2).unwrap();
    let blocked = bytes(&|w| storage::write_blocked_prefix(w, &blocked));
    corruption_sweep(
        "blocked prefix",
        &blocked,
        |r| storage::read_blocked_prefix(r),
        |bp| bp.shape() != a.shape() || bp.range_sum(&a, &full).is_ok(),
    );
    let max_tree = NaturalMaxTree::for_values(&a, 2).unwrap();
    let max_tree = bytes(&|w| storage::write_max_tree(w, &max_tree));
    corruption_sweep(
        "max tree",
        &max_tree,
        |r| storage::read_max_tree(r),
        |t| t.shape() != a.shape() || t.range_max(&a, &full).is_ok(),
    );
    let min_tree = NaturalMinTree::for_min_values(&a, 2).unwrap();
    let min_tree = bytes(&|w| storage::write_min_tree(w, &min_tree));
    corruption_sweep(
        "min tree",
        &min_tree,
        |r| storage::read_min_tree(r),
        |t| t.shape() != a.shape() || t.range_max(&a, &full).is_ok(),
    );
}
