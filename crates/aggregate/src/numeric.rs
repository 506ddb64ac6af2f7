//! Minimal numeric type-classes so the operator instances stay dependency
//! free (no `num-traits`).

/// Types with an additive identity.
pub trait Zero {
    /// The additive identity.
    fn zero() -> Self;
}

/// Types with a multiplicative identity.
pub trait One {
    /// The multiplicative identity.
    fn one() -> Self;
}

/// Types with least and greatest elements — used as MAX/MIN identities.
pub trait Bounded {
    /// The least value of the type.
    fn min_value() -> Self;
    /// The greatest value of the type.
    fn max_value() -> Self;
}

/// The closed set of cell-value capabilities the SUM operator needs:
/// addition, subtraction, and a zero.
///
/// SUM combines through [`NumericValue::wrapping_add`] and
/// [`NumericValue::wrapping_sub`]: on integers they wrap, so sums live in
/// the group `Z/2^n` and Theorem 1's ⊖ corners may leave the value range
/// mid-gather without a panic; on floats they are plain `+` and `−`.
pub trait NumericValue:
    Clone + Zero + std::ops::Add<Output = Self> + std::ops::Sub<Output = Self>
{
    /// `self + rhs`, wrapping at the type's bounds for integers.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// `self − rhs`, wrapping at the type's bounds for integers.
    fn wrapping_sub(self, rhs: Self) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Zero for $t {
            fn zero() -> Self { 0 }
        }
        impl One for $t {
            fn one() -> Self { 1 }
        }
        impl Bounded for $t {
            fn min_value() -> Self { <$t>::MIN }
            fn max_value() -> Self { <$t>::MAX }
        }
        impl NumericValue for $t {
            fn wrapping_add(self, rhs: Self) -> Self { <$t>::wrapping_add(self, rhs) }
            fn wrapping_sub(self, rhs: Self) -> Self { <$t>::wrapping_sub(self, rhs) }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Zero for $t {
            fn zero() -> Self { 0.0 }
        }
        impl One for $t {
            fn one() -> Self { 1.0 }
        }
        impl Bounded for $t {
            // For MAX/MIN identities the infinities are the true bounds.
            fn min_value() -> Self { <$t>::NEG_INFINITY }
            fn max_value() -> Self { <$t>::INFINITY }
        }
        impl NumericValue for $t {
            fn wrapping_add(self, rhs: Self) -> Self { self + rhs }
            fn wrapping_sub(self, rhs: Self) -> Self { self - rhs }
        }
    )*};
}

impl_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_identities() {
        assert_eq!(i32::zero(), 0);
        assert_eq!(u64::one(), 1);
        assert_eq!(<i16 as Bounded>::min_value(), i16::MIN);
        assert_eq!(<u8 as Bounded>::max_value(), 255);
    }

    #[test]
    fn float_bounds_are_infinities() {
        assert_eq!(f64::min_value(), f64::NEG_INFINITY);
        assert_eq!(f32::max_value(), f32::INFINITY);
    }
}
