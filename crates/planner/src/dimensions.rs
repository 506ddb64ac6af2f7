//! Choosing the subset of dimensions to compute prefix sums along (§9.1).
//!
//! With prefix sums on `X′ ⊆ X`, a query pays a multiplicative factor of
//! `2` per chosen attribute and `r_ij` (its range length) per unchosen
//! one. Minimising the total over a log is an optimisation problem; the
//! paper gives an exact `O(m·2^d)` algorithm using a Gray-code walk of the
//! `2^d` subsets and an `O(m·d)` heuristic (`R_j = Σ_i r_ij ≥ 2m`).

use olap_query::QueryLog;

/// The cost of a dimension selection over a log: for each query,
/// `∏_j (2 if j ∈ X′ else r_ij)` — the time-complexity factors of §9.1 —
/// summed over the log.
pub fn selection_cost(log: &QueryLog, dims: &[usize]) -> f64 {
    let lengths = log.heuristic_lengths();
    lengths
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, &r)| if dims.contains(&j) { 2.0 } else { r as f64 })
                .product::<f64>()
        })
        .sum()
}

/// The `O(m·d)` heuristic of §9.1: choose `X′ = { d_j | R_j ≥ 2m }` where
/// `R_j = Σ_i r_ij`.
pub fn choose_dimensions_heuristic(log: &QueryLog) -> Vec<usize> {
    let lengths = log.heuristic_lengths();
    let d = log.shape().ndim();
    let m = log.len();
    let mut r = vec![0usize; d];
    for row in &lengths {
        for (rj, &x) in r.iter_mut().zip(row) {
            *rj += x;
        }
    }
    (0..d)
        .filter(|&j| r.get(j).is_some_and(|&rj| rj >= 2 * m))
        .collect()
}

/// The exact `O(m·2^d)` algorithm of §9.1: walks the `2^d` subsets in
/// binary-reflected Gray-code order so each step toggles one attribute,
/// updating every query's product term in `O(1)` (an `O(m)` step).
///
/// # Panics
/// Panics when `d > 24` (the subset walk would be prohibitive; use the
/// heuristic there — the paper notes real cubes have 5–10 dimensions).
#[expect(
    clippy::indexing_slicing,
    reason = "the Gray-code bit is below d, and every log row holds one side length per dimension"
)]
pub fn choose_dimensions_exact(log: &QueryLog) -> Vec<usize> {
    let d = log.shape().ndim();
    assert!(
        d <= 24,
        "exact dimension selection is O(m·2^d); d = {d} is too large"
    );
    let lengths = log.heuristic_lengths();
    // terms[i] = current product for query i; start with X′ = ∅.
    let mut terms: Vec<f64> = lengths
        .iter()
        .map(|row| row.iter().map(|&r| r as f64).product())
        .collect();
    let mut cost: f64 = terms.iter().sum();
    let mut best_cost = cost;
    let mut best_mask = 0u32;
    let mut mask = 0u32;
    // Standard Gray-code walk: step k toggles bit = trailing ones of k.
    for k in 1u64..(1u64 << d) {
        let bit = k.trailing_zeros() as usize;
        let adding = (mask >> bit) & 1 == 0;
        mask ^= 1 << bit;
        for (term, row) in terms.iter_mut().zip(&lengths) {
            let r = row[bit] as f64;
            cost -= *term;
            if adding {
                *term = *term / r * 2.0;
            } else {
                *term = *term / 2.0 * r;
            }
            cost += *term;
        }
        if cost < best_cost {
            best_cost = cost;
            best_mask = mask;
        }
    }
    (0..d).filter(|&j| (best_mask >> j) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;
    use olap_query::{DimSelection, RangeQuery};

    /// Builds the Figure 12 log: r_ij rows over 5 attributes.
    fn fig12_log() -> QueryLog {
        let shape = Shape::new(&[1000; 5]).unwrap();
        let rows = [
            [1usize, 100, 1, 3, 1],
            [200, 1, 100, 1, 1],
            [500, 500, 1, 1, 1],
        ];
        let mut log = QueryLog::new(shape);
        for row in rows {
            log.push(
                RangeQuery::new(
                    row.iter()
                        .map(|&len| {
                            if len == 1 {
                                DimSelection::Single(0)
                            } else {
                                DimSelection::span(0, len - 1).unwrap()
                            }
                        })
                        .collect(),
                )
                .unwrap(),
            );
        }
        log
    }

    #[test]
    fn fig12_heuristic_example() {
        // R = (701, 601, 102, 5, 3); threshold 2m = 6 ⇒ X′ = {d1, d2, d3}.
        let log = fig12_log();
        assert_eq!(choose_dimensions_heuristic(&log), vec![0, 1, 2]);
    }

    #[test]
    fn exact_never_worse_than_heuristic() {
        let log = fig12_log();
        let h = choose_dimensions_heuristic(&log);
        let e = choose_dimensions_exact(&log);
        assert!(selection_cost(&log, &e) <= selection_cost(&log, &h));
    }

    #[test]
    fn exact_equals_brute_force() {
        let log = fig12_log();
        let d = log.shape().ndim();
        let mut best: Option<(f64, Vec<usize>)> = None;
        for mask in 0u32..(1 << d) {
            let dims: Vec<usize> = (0..d).filter(|&j| (mask >> j) & 1 == 1).collect();
            let c = selection_cost(&log, &dims);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, dims));
            }
        }
        let (bc, _) = best.unwrap();
        let e = choose_dimensions_exact(&log);
        assert_eq!(selection_cost(&log, &e), bc);
    }

    #[test]
    fn selection_cost_basics() {
        let log = fig12_log();
        // Empty selection: Σ ∏ r_ij = 300 + 20000 + 250000.
        assert_eq!(selection_cost(&log, &[]), 300.0 + 20_000.0 + 250_000.0);
        // All selected: m · 2^d = 3 · 32.
        assert_eq!(selection_cost(&log, &[0, 1, 2, 3, 4]), 96.0);
    }

    #[test]
    fn passive_only_log_chooses_nothing() {
        let shape = Shape::new(&[10, 10]).unwrap();
        let mut log = QueryLog::new(shape);
        log.push(RangeQuery::new(vec![DimSelection::Single(1), DimSelection::All]).unwrap());
        log.push(RangeQuery::new(vec![DimSelection::All, DimSelection::Single(2)]).unwrap());
        assert!(choose_dimensions_heuristic(&log).is_empty());
        assert!(choose_dimensions_exact(&log).is_empty());
    }

    #[test]
    fn single_heavy_dimension_is_selected() {
        let shape = Shape::new(&[100, 100]).unwrap();
        let mut log = QueryLog::new(shape);
        for _ in 0..5 {
            log.push(
                RangeQuery::new(vec![
                    DimSelection::span(0, 49).unwrap(),
                    DimSelection::Single(3),
                ])
                .unwrap(),
            );
        }
        assert_eq!(choose_dimensions_heuristic(&log), vec![0]);
        assert_eq!(choose_dimensions_exact(&log), vec![0]);
    }
}
