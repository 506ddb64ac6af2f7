//! The analytic cost models of §8 and §9.3.
//!
//! All costs are in the paper's unit: *number of elements accessed* to
//! answer a query, using the query statistics of Table 1 (volume `V`,
//! surface area `S`).
//!
//! Every function here is **total**: the `2^d` terms are computed in f64
//! (saturating to `+∞` beyond the exponent range instead of overflowing a
//! shift), and the one genuinely partial operation — a tree depth with a
//! fanout that cannot shrink the domain — reports a [`CostError`] instead
//! of panicking.

use std::fmt;

/// Errors from the cost model's partial inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostError {
    /// A tree of fanout `b < 2` never shrinks its domain, so it has no
    /// finite depth.
    FanoutTooSmall {
        /// The offending fanout.
        b: usize,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::FanoutTooSmall { b } => {
                write!(f, "tree fanout must be ≥ 2, got {b}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// `2^d` as an f64, for any `d`: exact for `d ≤ 52`, and saturating to
/// `+∞` once `d` exceeds the exponent range — no shift overflow.
pub fn pow2(d: usize) -> f64 {
    (d as f64).exp2()
}

/// `b^e` in f64 with a clamped integer exponent, saturating instead of
/// overflowing the `i32` exponent of `powi`.
fn powu(b: f64, e: usize) -> f64 {
    b.powi(e.min(i32::MAX as usize) as i32)
}

/// `F(b)`: the expected number of boundary cells accessed per unit of
/// query surface (§8): `b/4` for even `b`, `b/4 − 1/(4b)` for odd `b`
/// (and 0 for `b = 1`, which is the basic algorithm).
pub fn f_of_b(b: usize) -> f64 {
    let bf = b as f64;
    if b.is_multiple_of(2) {
        bf / 4.0
    } else {
        bf / 4.0 - 1.0 / (4.0 * bf)
    }
}

/// Average cost of the (blocked) prefix-sum algorithm, Equation 3:
/// `2^d + S·F(b)`.
pub fn prefix_sum_cost(d: usize, surface: f64, b: usize) -> f64 {
    pow2(d) + surface * f_of_b(b)
}

/// Depth `t` of a tree of fanout `b` per dimension over a domain of
/// maximum extent `n`: `⌈log_b n⌉`.
///
/// # Errors
/// [`CostError::FanoutTooSmall`] for `b < 2` (such a tree never shrinks
/// the domain, so it has no finite depth).
pub fn tree_depth(n: usize, b: usize) -> Result<usize, CostError> {
    if b < 2 {
        return Err(CostError::FanoutTooSmall { b });
    }
    let mut t = 0;
    let mut cover = 1usize;
    while cover < n {
        cover = cover.saturating_mul(b);
        t += 1;
    }
    Ok(t.max(1))
}

/// Average cost of the hierarchical-tree range-sum (§8):
/// `F(b) · Σ_{k=0}^{t−1} S / b^{k(d−1)}`.
///
/// Total in `d`: a (degenerate) `d = 0` is treated like `d = 1`, where
/// every level contributes the full surface term.
pub fn tree_cost(d: usize, surface: f64, b: usize, depth: usize) -> f64 {
    let f = f_of_b(b);
    // `b^{k(d−1)}` one multiply per level: exact wherever `powi` is (the
    // powers of an integer below 2^53), and routers price every routed
    // max with this, so it stays off `powi`.
    let step = powu(b as f64, d.saturating_sub(1));
    let (mut total, mut scale) = (0.0, 1.0);
    for _ in 0..depth {
        total += surface / scale;
        scale *= step;
    }
    f * total
}

/// The Figure-11 closed form: for queries of side `α·b` in every
/// dimension, `Cost(tree) − Cost(prefix sum) ≈ d·α^{d−1}·b/2 − 2^d`.
pub fn fig11_difference(d: usize, b: usize, alpha: f64) -> f64 {
    d as f64 * powu(alpha, d.saturating_sub(1)) * b as f64 / 2.0 - pow2(d)
}

/// Benefit/space ratio of materializing a blocked prefix sum (§9.3):
/// `(N_Q/N) · [(V − 2^d)·b^d − (S/4)·b^{d+1}]`.
///
/// `nq_over_n` is the query count divided by the cuboid size.
pub fn benefit_space_ratio(nq_over_n: f64, v: f64, s: f64, d: usize, b: usize) -> f64 {
    let bf = b as f64;
    nq_over_n * ((v - pow2(d)) * powu(bf, d) - (s / 4.0) * powu(bf, d.saturating_add(1)))
}

/// The block size maximising benefit/space (§9.3):
/// `b* = (V − 2^d)/(S/4) · d/(d+1)`, rounded to whichever neighbouring
/// integer gives the better ratio.
///
/// Returns `None` when blocking cannot pay off: `V − 2^d ≤ S/4` (the paper:
/// "there is no benefit to computing the prefix sum with blocking"), in
/// which case the caller should consider `b = 1`.
pub fn optimal_block_size(v: f64, s: f64, d: usize) -> Option<usize> {
    let v_eff = v - pow2(d);
    if v_eff <= s / 4.0 || s <= 0.0 {
        return None;
    }
    let b_star = v_eff / (s / 4.0) * d as f64 / (d as f64 + 1.0);
    let lo = (b_star.floor() as usize).max(1);
    let hi = (b_star.ceil() as usize).max(1);
    let ratio = |b: usize| benefit_space_ratio(1.0, v, s, d, b);
    let best = if ratio(lo) >= ratio(hi) { lo } else { hi };
    // A maximiser below 2 means blocking never beats the basic algorithm.
    if best < 2 {
        None
    } else {
        Some(best)
    }
}

/// §9.3, "Incorporating the effect of prefix sums on ancestor cuboids":
/// when an ancestor already has a prefix sum with block size `b0`, the
/// benefit is `N_Q·(S/4)(b0 − b)` for `b < b0` and 0 otherwise, whose
/// benefit/space maximiser is `b = b0·d/(d+1)`.
pub fn optimal_block_size_under_ancestor(b0: usize, d: usize) -> usize {
    ((b0 as f64 * d as f64 / (d as f64 + 1.0)).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_of_b_basic_cases() {
        assert_eq!(f_of_b(1), 0.0); // basic algorithm: no boundary cells
        assert_eq!(f_of_b(4), 1.0);
        assert_eq!(f_of_b(100), 25.0);
        // Odd b: b/4 − 1/(4b).
        assert!((f_of_b(5) - (1.25 - 0.05)).abs() < 1e-12);
    }

    #[test]
    fn prefix_cost_reduces_to_basic() {
        // F(1) = 0 ⇒ cost = 2^d exactly (the paper notes the formula is
        // right for the basic algorithm).
        assert_eq!(prefix_sum_cost(3, 600.0, 1), 8.0);
        assert_eq!(prefix_sum_cost(2, 40.0, 4), 4.0 + 40.0);
    }

    #[test]
    fn tree_depth_examples() {
        assert_eq!(tree_depth(14, 3).unwrap(), 3); // Figure 9
        assert_eq!(tree_depth(1000, 10).unwrap(), 3);
        assert_eq!(tree_depth(1001, 10).unwrap(), 4);
        assert_eq!(tree_depth(1, 2).unwrap(), 1);
    }

    #[test]
    fn tree_depth_rejects_degenerate_fanouts() {
        assert_eq!(tree_depth(100, 0), Err(CostError::FanoutTooSmall { b: 0 }));
        assert_eq!(tree_depth(100, 1), Err(CostError::FanoutTooSmall { b: 1 }));
        assert!(tree_depth(100, 1).unwrap_err().to_string().contains("≥ 2"));
    }

    #[test]
    fn pow2_is_exact_then_saturates() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(10), 1024.0);
        assert_eq!(pow2(63), 9_223_372_036_854_775_808.0);
        // Beyond the u64 shift range: finite up to the f64 exponent limit,
        // then +∞ — never an overflow panic or a wrapped shift.
        assert_eq!(pow2(64), 2.0f64.powi(32).powi(2));
        assert!(pow2(1023).is_finite());
        assert_eq!(pow2(1024), f64::INFINITY);
        assert_eq!(pow2(usize::MAX), f64::INFINITY);
    }

    #[test]
    fn high_dimension_costs_saturate_instead_of_overflowing() {
        // d ≥ 64 used to overflow `1u64 << d`; now the 2^d term saturates.
        assert!(prefix_sum_cost(64, 100.0, 4).is_finite());
        assert_eq!(prefix_sum_cost(2000, 100.0, 4), f64::INFINITY);
        assert_eq!(fig11_difference(2000, 10, 1.0), f64::NEG_INFINITY);
        assert!(fig11_difference(64, 10, 2.0).is_finite());
        // Tree cost is total in d (d = 0 treated like d = 1) and in depth.
        assert!(tree_cost(0, 100.0, 4, 3).is_finite());
        assert!(tree_cost(70, 100.0, 4, 64).is_finite());
        // Benefit/space and b* stay total too.
        assert!(benefit_space_ratio(1.0, 1e6, 100.0, 70, 3).is_finite());
        assert_eq!(optimal_block_size(1e6, 100.0, 2000), None);
    }

    #[test]
    fn tree_cost_first_term_matches_blocked_prefix() {
        // §8: "at the lowest level of the tree, the number of elements that
        // have to be accessed is the same as for a blocked prefix sum with
        // a block size of b (ignoring the 2^d cost)".
        let s = 500.0;
        let t1 = tree_cost(3, s, 10, 1);
        assert!((t1 - s * f_of_b(10)).abs() < 1e-9);
        // Deeper trees only add cost.
        assert!(tree_cost(3, s, 10, 4) > t1);
    }

    #[test]
    fn tree_always_loses_to_prefix_for_big_queries() {
        // §8's conclusion: for α·b ≫ b the prefix sum is clearly faster.
        for d in [2usize, 3, 4] {
            for b in [10usize, 20] {
                for alpha in [4.0f64, 8.0, 16.0] {
                    let side = alpha * b as f64;
                    let v: f64 = side.powi(d as i32);
                    let s = 2.0 * d as f64 * v / side;
                    let depth = tree_depth(4096, b).unwrap();
                    assert!(
                        tree_cost(d, s, b, depth) > prefix_sum_cost(d, s, b),
                        "d={d} b={b} α={alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig11_difference_is_positive_and_monotone() {
        for d in [2usize, 3, 4] {
            for b in [10usize, 20] {
                let mut prev = fig11_difference(d, b, 1.0);
                for a in 2..=20 {
                    let cur = fig11_difference(d, b, a as f64);
                    assert!(cur >= prev, "d={d} b={b} α={a}");
                    prev = cur;
                }
                // For α ≥ 2 the tree is always worse.
                assert!(fig11_difference(d, b, 2.0) > 0.0);
            }
        }
    }

    #[test]
    fn fig14_maximum_matches_closed_form() {
        // The figure's curve 100b² − 10b³ is benefit/space for d = 2 with
        // (N_Q/N)(V − 2^d) = 100 and (N_Q/N)(S/4) = 10; its maximum is at
        // b* = 10 · 2/3 = 6.67 → integer 7.
        let v = 10000.0 + 4.0;
        let s = 4000.0;
        let b = optimal_block_size(v, s, 2).unwrap();
        assert_eq!(b, 7);
        // Ratio at 7 beats 6 and 8.
        let r = |b| benefit_space_ratio(0.01, v, s, 2, b);
        assert!(r(7) >= r(6) && r(7) >= r(8));
    }

    #[test]
    fn paper_example_d3() {
        // §9.3 example: d = 3, V − 2^d = 1000, S = 400 ⇒ b* = 10·3/4 = 7.5.
        let v = 1000.0 + 8.0;
        let s = 400.0;
        let b = optimal_block_size(v, s, 3).unwrap();
        assert!(b == 7 || b == 8);
    }

    #[test]
    fn no_blocking_benefit_for_tiny_queries() {
        // V − 2^d ≤ S/4 ⇒ None.
        assert_eq!(optimal_block_size(8.0, 40.0, 2), None);
        assert_eq!(optimal_block_size(5.0, 4.0, 3), None);
    }

    #[test]
    fn ancestor_constrained_block_size() {
        assert_eq!(optimal_block_size_under_ancestor(12, 3), 9);
        assert_eq!(optimal_block_size_under_ancestor(2, 1), 1);
    }

    #[test]
    fn benefit_zero_crossing() {
        // Benefit hits 0 at b = 4(V − 2^d)/S (the paper's remark).
        let v = 1008.0;
        let s = 400.0;
        let b0 = 4.0 * (v - 8.0) / s; // = 10
        let at_cross = benefit_space_ratio(1.0, v, s, 3, b0 as usize);
        assert!(at_cross.abs() < 1e-6);
    }
}
