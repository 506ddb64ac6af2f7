//! Aggregation operator algebra for OLAP range queries.
//!
//! §1 of the paper observes that the prefix-sum technique works for **any
//! binary operator ⊕ that has an inverse ⊖** with `a ⊕ b ⊖ b = a` — e.g.
//! `(+, −)`, `(xor, xor)`, `(×, ÷)` on a zero-free domain — while the tree
//! technique only needs a total order (MAX/MIN). COUNT is a special case of
//! SUM and AVERAGE is obtained from the `(sum, count)` pair.
//!
//! This crate encodes that type-class hierarchy:
//!
//! - [`Monoid`]: associative combine with identity (enough for tree-based
//!   aggregation, §8),
//! - [`AbelianGroup`]: a commutative monoid with an inverse combine ⊖
//!   (what Theorem 1 requires),
//! - [`TotalOrder`]: a total order on cell values (what the range-max tree
//!   of §6 requires).
//!
//! Concrete operators: [`SumOp`], [`CountOp`], [`AvgOp`] (with the
//! [`AvgPair`] value type), [`XorOp`], [`ProductOp`], [`MaxOp`], [`MinOp`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed errors, so clippy denies every
// panicking escape hatch outside test builds. A site whose bound is an
// invariant carries `#[expect(clippy::…, reason = "…")]` on the narrowest
// item that holds it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod numeric;
mod ops;
mod order;

pub use numeric::{Bounded, NumericValue, One, Zero};
pub use ops::{AvgOp, AvgPair, CountOp, ProductOp, SumOp, XorOp};
pub use order::{MaxOp, MinOp, NaturalOrder, ReverseOrder, TotalOrder};

/// An associative binary operator with an identity element.
///
/// Implementations are usually zero-sized "operator tags" (e.g.
/// [`SumOp`]), carried by value so that algorithms stay monomorphised;
/// `Clone` is required so structures can hand the tag around freely.
pub trait Monoid: Clone {
    /// The cell value type the operator combines.
    type Value: Clone;

    /// The identity element: `combine(identity(), x) == x`.
    fn identity(&self) -> Self::Value;

    /// The associative combine `a ⊕ b`.
    fn combine(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Folds an iterator with the operator.
    fn combine_all<'a, I>(&self, iter: I) -> Self::Value
    where
        Self::Value: 'a,
        I: IntoIterator<Item = &'a Self::Value>,
    {
        iter.into_iter()
            .fold(self.identity(), |acc, x| self.combine(&acc, x))
    }
}

/// A commutative [`Monoid`] with an inverse combine ⊖ satisfying
/// `uncombine(combine(a, b), b) == a` — the paper's requirement for the
/// prefix-sum technique.
pub trait AbelianGroup: Monoid {
    /// The inverse combine `a ⊖ b`.
    fn uncombine(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// The inverse element `⊖x` (i.e. `uncombine(identity(), x)`).
    fn invert(&self, x: &Self::Value) -> Self::Value {
        self.uncombine(&self.identity(), x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the group laws on a handful of values.
    fn check_group_laws<G: AbelianGroup>(g: &G, values: &[G::Value])
    where
        G::Value: PartialEq + std::fmt::Debug,
    {
        let id = g.identity();
        for a in values {
            assert_eq!(&g.combine(&id, a), a, "left identity");
            assert_eq!(&g.combine(a, &id), a, "right identity");
            for b in values {
                assert_eq!(&g.uncombine(&g.combine(a, b), b), a, "a ⊕ b ⊖ b = a");
                assert_eq!(g.combine(a, b), g.combine(b, a), "commutativity");
                for c in values {
                    assert_eq!(
                        g.combine(&g.combine(a, b), c),
                        g.combine(a, &g.combine(b, c)),
                        "associativity"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_is_a_group() {
        check_group_laws(&SumOp::<i64>::new(), &[-3, 0, 1, 7, 100]);
    }

    #[test]
    fn xor_is_a_self_inverse_group() {
        let g = XorOp::<u32>::new();
        check_group_laws(&g, &[0, 1, 0xdead, u32::MAX]);
        // xor is its own inverse.
        assert_eq!(g.combine(&5, &5), 0);
        assert_eq!(g.uncombine(&5, &5), 0);
    }

    #[test]
    fn product_group_on_nonzero_domain() {
        let g = ProductOp::new();
        let vals = [1.0, 2.0, -0.5, 8.0];
        let id = g.identity();
        for a in &vals {
            assert_eq!(g.combine(&id, a), *a);
            for b in &vals {
                let back = g.uncombine(&g.combine(a, b), b);
                assert!((back - a).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn avg_pair_group() {
        let g = AvgOp::<f64>::new();
        let a = AvgPair::of(10.0);
        let b = AvgPair::of(20.0);
        let ab = g.combine(&a, &b);
        assert_eq!(ab.count, 2);
        assert_eq!(ab.mean(), Some(15.0));
        let back = g.uncombine(&ab, &b);
        assert_eq!(back.count, 1);
        assert_eq!(back.mean(), Some(10.0));
        assert_eq!(g.identity().mean(), None);
    }

    #[test]
    fn count_is_sum_of_ones() {
        // COUNT is a special case of SUM (§1).
        let g = CountOp::new();
        let cells = [1u64, 1, 1, 1];
        assert_eq!(g.combine_all(cells.iter()), 4);
    }

    #[test]
    fn combine_all_on_empty_is_identity() {
        let g = SumOp::<i32>::new();
        assert_eq!(g.combine_all(std::iter::empty()), 0);
    }
}
