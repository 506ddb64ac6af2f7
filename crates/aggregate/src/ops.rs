//! Concrete operator instances: SUM, COUNT, AVERAGE, XOR, PRODUCT.

use crate::numeric::{NumericValue, Zero};
use crate::{AbelianGroup, Monoid};
use std::marker::PhantomData;

/// The SUM operator — the paper's primary example of an invertible ⊕.
///
/// Works for every numeric value type (signed/unsigned integers, floats).
/// Integers combine with [`NumericValue::wrapping_add`] and
/// [`NumericValue::wrapping_sub`], so the sum is taken in `Z/2^n` under
/// every build profile. That makes ⊖ a true inverse: for d ≥ 2 the
/// Theorem 1 gather subtracts corners 1 and 2 before it adds corner 3,
/// and an unsigned partial result that dips below zero wraps back to the
/// exact answer. A sum whose true value leaves the type's range wraps
/// too; widen the value type when that can happen.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SumOp<T>(PhantomData<T>);

impl<T> SumOp<T> {
    /// Creates the operator tag.
    pub fn new() -> Self {
        SumOp(PhantomData)
    }
}

impl<T: NumericValue> Monoid for SumOp<T> {
    type Value = T;

    fn identity(&self) -> T {
        T::zero()
    }

    fn combine(&self, a: &T, b: &T) -> T {
        a.clone().wrapping_add(b.clone())
    }
}

impl<T: NumericValue> AbelianGroup for SumOp<T> {
    fn uncombine(&self, a: &T, b: &T) -> T {
        a.clone().wrapping_sub(b.clone())
    }
}

/// COUNT, a special case of SUM over `u64` cell counts (§1).
pub type CountOp = SumOp<u64>;

/// Bitwise exclusive-or — a self-inverse group, one of the paper's example
/// `(⊕, ⊖)` pairs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct XorOp<T>(PhantomData<T>);

impl<T> XorOp<T> {
    /// Creates the operator tag.
    pub fn new() -> Self {
        XorOp(PhantomData)
    }
}

impl<T> Monoid for XorOp<T>
where
    T: Clone + Zero + std::ops::BitXor<Output = T>,
{
    type Value = T;

    fn identity(&self) -> T {
        T::zero()
    }

    fn combine(&self, a: &T, b: &T) -> T {
        a.clone() ^ b.clone()
    }
}

impl<T> AbelianGroup for XorOp<T>
where
    T: Clone + Zero + std::ops::BitXor<Output = T>,
{
    fn uncombine(&self, a: &T, b: &T) -> T {
        a.clone() ^ b.clone()
    }
}

/// Floating-point multiplication with division as the inverse — valid on a
/// domain excluding zero, exactly as §1 states.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ProductOp;

impl ProductOp {
    /// Creates the operator tag.
    pub fn new() -> Self {
        ProductOp
    }
}

impl Monoid for ProductOp {
    type Value = f64;

    fn identity(&self) -> f64 {
        1.0
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a * b
    }
}

impl AbelianGroup for ProductOp {
    fn uncombine(&self, a: &f64, b: &f64) -> f64 {
        a / b
    }
}

/// The `(sum, count)` pair from which AVERAGE is derived (§1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgPair<T> {
    /// Sum of the contributing measures.
    pub sum: T,
    /// Number of contributing cells. Signed: inclusion–exclusion
    /// intermediates (Theorem 1's ⊖ corners) legitimately dip below zero
    /// before the remaining corners are added back.
    pub count: i64,
}

impl<T> AvgPair<T> {
    /// The pair for a single measure value.
    pub fn of(value: T) -> Self {
        AvgPair {
            sum: value,
            count: 1,
        }
    }
}

impl<T: Into<f64> + Clone> AvgPair<T> {
    /// The average, or `None` for an empty aggregate.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum.clone().into() / self.count as f64)
        }
    }
}

/// AVERAGE via the `(sum, count)` 2-tuple (§1). Forms a group because both
/// components do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AvgOp<T>(PhantomData<T>);

impl<T> AvgOp<T> {
    /// Creates the operator tag.
    pub fn new() -> Self {
        AvgOp(PhantomData)
    }
}

impl<T: NumericValue> Monoid for AvgOp<T> {
    type Value = AvgPair<T>;

    fn identity(&self) -> AvgPair<T> {
        AvgPair {
            sum: T::zero(),
            count: 0,
        }
    }

    fn combine(&self, a: &AvgPair<T>, b: &AvgPair<T>) -> AvgPair<T> {
        AvgPair {
            sum: a.sum.clone().wrapping_add(b.sum.clone()),
            count: a.count.wrapping_add(b.count),
        }
    }
}

impl<T: NumericValue> AbelianGroup for AvgOp<T> {
    fn uncombine(&self, a: &AvgPair<T>, b: &AvgPair<T>) -> AvgPair<T> {
        AvgPair {
            sum: a.sum.clone().wrapping_sub(b.sum.clone()),
            count: a.count.wrapping_sub(b.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_combines() {
        let g = SumOp::<f64>::new();
        assert_eq!(g.combine(&1.5, &2.5), 4.0);
        assert_eq!(g.uncombine(&4.0, &2.5), 1.5);
    }

    #[test]
    fn xor_on_u8() {
        let g = XorOp::<u8>::new();
        assert_eq!(g.combine(&0b1010, &0b0110), 0b1100);
        assert_eq!(g.identity(), 0);
    }

    #[test]
    fn product_identity_is_one() {
        let g = ProductOp::new();
        assert_eq!(g.identity(), 1.0);
        assert_eq!(g.combine(&3.0, &4.0), 12.0);
        assert_eq!(g.uncombine(&12.0, &4.0), 3.0);
    }

    #[test]
    fn avg_of_single_value() {
        let p = AvgPair::of(7.0f64);
        assert_eq!(p.mean(), Some(7.0));
    }

    #[test]
    fn avg_integer_measures() {
        let g = AvgOp::<i32>::new();
        let merged = g.combine(&AvgPair::of(3), &AvgPair::of(5));
        assert_eq!(merged.mean(), Some(4.0));
    }
}
