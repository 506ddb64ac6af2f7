//! The sequential naive oracle every answer is checked against.
//!
//! It keeps one row of expected answers per cube state: state `k` is the
//! cube after the first `k` update batches. A read-only phase has the
//! single state 0. Under writes, sums move by the batch's deltas and an
//! extremum is rescanned only for regions in which a cell that held it
//! was lowered.

use crate::workload::{Batch, Kind};
use olap_array::{DenseArray, Region};

/// Calls `f` on each contiguous innermost-axis run of `region`. The cube
/// is row-major, so the last axis has stride 1.
fn for_each_row(cube: &DenseArray<i64>, region: &Region, mut f: impl FnMut(&[i64])) {
    let strides = cube.shape().strides();
    let d = strides.len();
    let data = cube.as_slice();
    let last = region.range(d - 1);
    let mut idx = region.lower_corner();
    loop {
        let base: usize = (0..d - 1).map(|k| idx[k] * strides[k]).sum();
        f(&data[base + last.lo()..=base + last.hi()]);
        // Odometer step over the leading axes.
        let mut k = d - 1;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            if idx[k] < region.range(k).hi() {
                idx[k] += 1;
                break;
            }
            idx[k] = region.range(k).lo();
        }
    }
}

pub fn naive_sum(cube: &DenseArray<i64>, region: &Region) -> i64 {
    let mut total = 0i64;
    for_each_row(cube, region, |row| total += row.iter().sum::<i64>());
    total
}

pub fn naive_max(cube: &DenseArray<i64>, region: &Region) -> i64 {
    let mut best = i64::MIN;
    for_each_row(cube, region, |row| {
        best = best.max(row.iter().copied().max().unwrap_or(i64::MIN));
    });
    best
}

pub struct Oracle {
    cube: DenseArray<i64>,
    sum_pool: Vec<Region>,
    max_pool: Vec<Region>,
    /// `sums[state][idx]`, `maxes[state][idx]`.
    sums: Vec<Vec<i64>>,
    maxes: Vec<Vec<i64>>,
}

impl Oracle {
    /// Precomputes state 0 from `cube`.
    pub fn new(cube: DenseArray<i64>, sum_pool: &[Region], max_pool: &[Region]) -> Oracle {
        let sums = sum_pool.iter().map(|r| naive_sum(&cube, r)).collect();
        let maxes = max_pool.iter().map(|r| naive_max(&cube, r)).collect();
        Oracle {
            cube,
            sum_pool: sum_pool.to_vec(),
            max_pool: max_pool.to_vec(),
            sums: vec![sums],
            maxes: vec![maxes],
        }
    }

    /// Batches applied so far; also the index of the newest state.
    pub fn state(&self) -> u32 {
        (self.sums.len() - 1) as u32
    }

    /// Applies one batch of absolute sets, later sets to a cell winning,
    /// and appends the resulting state.
    pub fn apply(&mut self, batch: &Batch) {
        let mut sums = self.sums.last().expect("state 0 exists").clone();
        let mut maxes = self.maxes.last().expect("state 0 exists").clone();
        let mut rescan = vec![false; maxes.len()];
        for (idx, value) in batch {
            let old = self.cube.replace(idx, *value);
            for (sum, region) in sums.iter_mut().zip(&self.sum_pool) {
                if region.contains(idx) {
                    *sum += value - old;
                }
            }
            for ((max, rescan), region) in maxes.iter_mut().zip(&mut rescan).zip(&self.max_pool) {
                if region.contains(idx) {
                    // A set at or above the extremum becomes it. Lowering
                    // a cell that held it may leave another holder or
                    // not: only a scan of the final cube tells.
                    if *value >= *max {
                        *max = *value;
                    } else if old == *max {
                        *rescan = true;
                    }
                }
            }
        }
        for ((max, _), region) in maxes
            .iter_mut()
            .zip(&rescan)
            .zip(&self.max_pool)
            .filter(|((_, &r), _)| r)
        {
            *max = naive_max(&self.cube, region);
        }
        self.sums.push(sums);
        self.maxes.push(maxes);
    }

    /// Whether `value` is the answer to read `(kind, idx)` at some state
    /// in `lo..=hi`: the states the read may have overlapped.
    pub fn accepts(&self, kind: Kind, idx: u32, value: i64, lo: u32, hi: u32) -> bool {
        let table = match kind {
            Kind::Sum => &self.sums,
            Kind::Max => &self.maxes,
        };
        (lo..=hi.min(self.state())).any(|s| table[s as usize][idx as usize] == value)
    }

    /// The cube at the newest state.
    #[cfg(test)]
    pub fn cube(&self) -> &DenseArray<i64> {
        &self.cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use olap_array::Shape;

    #[test]
    fn naive_scans_match_a_cell_by_cell_fold() {
        let cube = DenseArray::from_fn(Shape::new(&[5, 4, 3]).unwrap(), |i| {
            (i[0] * 31 + i[1] * 7 + i[2] * 13) as i64 % 17
        });
        for bounds in [
            [(0, 4), (0, 3), (0, 2)],
            [(1, 3), (2, 2), (0, 1)],
            [(4, 4), (0, 3), (2, 2)],
        ] {
            let r = Region::from_bounds(&bounds).unwrap();
            let cells: Vec<i64> = r.iter_indices().map(|i| *cube.get(&i)).collect();
            assert_eq!(naive_sum(&cube, &r), cells.iter().sum::<i64>());
            assert_eq!(naive_max(&cube, &r), *cells.iter().max().unwrap());
        }
        let line = DenseArray::from_vec(Shape::new(&[4]).unwrap(), vec![3, 9, 2, 5]).unwrap();
        let r = Region::from_bounds(&[(1, 2)]).unwrap();
        assert_eq!((naive_sum(&line, &r), naive_max(&line, &r)), (11, 9));
    }

    /// The served_rw_4d table on a toy run of five batches: every state's row
    /// equals a from-scratch scan of the cube with that many batches
    /// applied.
    #[test]
    fn state_table_matches_rescans_batch_by_batch() {
        let w = Workload::generate("served_rw_4d", 5).unwrap();
        let pool = &w.main.sum_pool[..48];
        let mut oracle = Oracle::new(w.cube.clone(), pool, pool);
        let mut cube = w.cube.clone();
        let mut batches: Vec<_> = w.batches[..3].to_vec();
        // A batch that sets one cell twice: the later set wins.
        let cell = pool[0].lower_corner();
        batches.push(vec![(cell.clone(), 7), (cell.clone(), 999_999)]);
        // Raise a cell above everything and lower it again in one batch,
        // then lower the holder of region 0's extremum: both need a scan.
        batches.push(vec![(cell.clone(), 2_000_000), (cell.clone(), 3)]);
        for (k, batch) in batches.iter().enumerate() {
            oracle.apply(batch);
            for (idx, v) in batch {
                cube.replace(idx, *v);
            }
            assert_eq!(oracle.state(), k as u32 + 1);
            for (i, r) in pool.iter().enumerate() {
                let (s, m) = (naive_sum(&cube, r), naive_max(&cube, r));
                let now = oracle.state();
                assert!(oracle.accepts(Kind::Sum, i as u32, s, now, now));
                assert!(oracle.accepts(Kind::Max, i as u32, m, now, now));
            }
        }
        assert_eq!(oracle.cube().as_slice(), cube.as_slice());
        // Region 0 holds the twice-set cell: its last-state answers are
        // not accepted at state 0, but are in a window that reaches state 5.
        let (s, m) = (naive_sum(&cube, &pool[0]), naive_max(&cube, &pool[0]));
        assert!(
            m < 999_999,
            "the lowered holder no longer sets the extremum"
        );
        assert!(oracle.accepts(Kind::Max, 0, 999_999, 4, 4));
        assert!(!oracle.accepts(Kind::Sum, 0, s, 0, 0));
        assert!(!oracle.accepts(Kind::Max, 0, m, 4, 4));
        assert!(oracle.accepts(Kind::Max, 0, m, 4, 5));
        assert!(oracle.accepts(Kind::Sum, 0, s, 0, 9));
    }
}
