//! Median and percentile arithmetic.

/// Median of `values` (sorted in place); the mean of the two middle
/// values when the count is even. `NaN` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it. `NaN` when empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of latency samples in nanoseconds (sorted in place), in µs.
pub fn p50_us(ns: &mut [u32]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 0.5) / 1e3
}

/// A layer's self time: each rung's time minus the rung beneath it, the
/// bottom rung keeping its own. `rungs` runs bottom to top; the result
/// sums to the top rung.
pub fn self_times(rungs: &[f64]) -> Vec<f64> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &t)| if i == 0 { t } else { t - rungs[i - 1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5u32], 0.5), 5.0);
        assert!(percentile::<u32>(&[], 0.5).is_nan());
    }

    #[test]
    fn p50_us_sorts_and_scales() {
        assert_eq!(p50_us(&mut [3000, 1000, 2000]), 2.0);
    }

    #[test]
    fn self_times_sum_to_the_top_rung() {
        let rungs = [80.0, 130.0, 410.0, 2900.0, 48000.0];
        let selfs = self_times(&rungs);
        assert_eq!(selfs, vec![80.0, 50.0, 280.0, 2490.0, 45100.0]);
        assert_eq!(selfs.iter().sum::<f64>(), 48000.0);
        // A rung faster than the one beneath it yields a negative self
        // time, and the sum still telescopes.
        let odd = [100.0, 90.0, 300.0];
        assert_eq!(self_times(&odd).iter().sum::<f64>(), 300.0);
    }
}
