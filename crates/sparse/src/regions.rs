//! Finding rectangular dense regions in a sparse cube (§10.2).
//!
//! The paper uses a modified decision-tree classifier (\[SAM96\]) where
//! non-empty cells are one class and empty cells the other, with the key
//! modification that **empty cells are counted as `volume − non-empty`**
//! so the full cube is never materialized. This module implements the core
//! of that classifier family: a greedy recursive axis-cut partitioner that
//! minimizes Gini impurity, emitting the pure-enough boxes as dense
//! regions.

use olap_array::{Range, Region, Shape};

/// Tuning knobs for the region finder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionFinderParams {
    /// A box is declared dense when its fill fraction reaches this value.
    pub min_density: f64,
    /// Boxes with fewer points than this become outliers instead of
    /// regions (indexing a 2-point "region" is worse than 2 points).
    pub min_points: usize,
    /// Recursion depth cap (each level splits one axis once).
    pub max_depth: usize,
}

impl Default for RegionFinderParams {
    fn default() -> Self {
        RegionFinderParams {
            min_density: 0.5,
            min_points: 8,
            max_depth: 24,
        }
    }
}

/// A discovered dense region: its bounding box and how many points fell in
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseRegion {
    /// The rectangular boundary added to the R*-tree.
    pub bounds: Region,
    /// Number of non-empty cells inside.
    pub points: usize,
}

/// The classifier.
#[derive(Debug, Clone)]
pub struct DenseRegionFinder {
    params: RegionFinderParams,
}

impl Default for DenseRegionFinder {
    fn default() -> Self {
        DenseRegionFinder::new(RegionFinderParams::default())
    }
}

impl DenseRegionFinder {
    /// Creates a finder with explicit parameters.
    pub fn new(params: RegionFinderParams) -> Self {
        DenseRegionFinder { params }
    }

    /// Partitions the points of a cube into dense regions and outliers.
    /// Returns `(regions, outlier point indices)`; `indices` index into
    /// `points`.
    pub fn find(&self, _shape: &Shape, points: &[Vec<usize>]) -> (Vec<DenseRegion>, Vec<usize>) {
        let all: Vec<usize> = (0..points.len()).collect();
        let mut regions = Vec::new();
        let mut outliers = Vec::new();
        // Start from the points' bounding box, not the whole cube — empty
        // margins would only dilute density.
        match Self::bounding_box(points, &all) {
            None => (regions, outliers),
            Some(bbox) => {
                self.recurse(points, all, bbox, 0, &mut regions, &mut outliers);
                (regions, outliers)
            }
        }
    }

    fn bounding_box(points: &[Vec<usize>], members: &[usize]) -> Option<Region> {
        let mut lo = points.get(*members.first()?)?.clone();
        let mut hi = lo.clone();
        for p in members.iter().filter_map(|&i| points.get(i)) {
            for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
                *l = (*l).min(x);
                *h = (*h).max(x);
            }
        }
        let ranges = lo.iter().zip(&hi).map(|(&l, &h)| Range::new(l, h));
        Region::new(ranges.collect::<Result<_, _>>().ok()?).ok()
    }

    /// Gini impurity of a box holding `n1` points: with
    /// `n0 = volume − n1` (the paper's counting trick),
    /// `gini = 1 − p0² − p1²`.
    fn gini(n1: usize, volume: usize) -> f64 {
        let p1 = n1 as f64 / volume as f64;
        let p0 = 1.0 - p1;
        1.0 - p0 * p0 - p1 * p1
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "members index points, and every point has the bounding box's rank, so axis < ndim indexes each"
    )]
    fn recurse(
        &self,
        points: &[Vec<usize>],
        members: Vec<usize>,
        bbox: Region,
        depth: usize,
        regions: &mut Vec<DenseRegion>,
        outliers: &mut Vec<usize>,
    ) {
        let vol = bbox.volume();
        let n1 = members.len();
        let density = n1 as f64 / vol as f64;
        if density >= self.params.min_density {
            if n1 >= self.params.min_points {
                regions.push(DenseRegion {
                    bounds: bbox,
                    points: n1,
                });
            } else {
                outliers.extend(members);
            }
            return;
        }
        if depth >= self.params.max_depth || n1 < 2 * self.params.min_points.max(1) {
            // Too small or too deep to keep splitting: everything here is
            // an outlier unless already dense.
            outliers.extend(members);
            return;
        }
        // Greedy axis cut minimizing weighted Gini impurity; candidate
        // cuts at midpoints between consecutive distinct coordinates.
        // Axes are scored in order under a strict-less rule, so ties go to
        // the lowest axis, then the lowest cut.
        let parent_gini = Self::gini(n1, vol);
        let mut best: Option<(usize, usize, f64)> = None; // (axis, cut, score)
        for axis in 0..bbox.ndim() {
            if let Some((c, w)) = best_cut_on_axis(points, &members, &bbox, axis) {
                if best.is_none_or(|(_, _, s)| w < s) {
                    best = Some((axis, c, w));
                }
            }
        }
        match best {
            Some((axis, cut, score)) if score < parent_gini - 1e-12 => {
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for &i in &members {
                    if points[i][axis] <= cut {
                        left.push(i);
                    } else {
                        right.push(i);
                    }
                }
                for part in [left, right] {
                    // Shrink a non-empty part to its own bounding box.
                    if let Some(sub) = Self::bounding_box(points, &part) {
                        self.recurse(points, part, sub, depth + 1, regions, outliers);
                    }
                }
            }
            _ => outliers.extend(members),
        }
    }
}

/// The per-axis cut kernel: scores every candidate cut on `axis` (after
/// each distinct member coordinate below the box's upper bound) by weighted
/// Gini impurity and returns the best `(cut, score)`, or `None` when the
/// axis is too thin to cut. Strict-less replacement keeps the lowest
/// winning cut, matching the original single-threaded scan order.
#[expect(
    clippy::indexing_slicing,
    reason = "members index points, and every point has the bounding box's rank, so axis < ndim indexes each"
)]
fn best_cut_on_axis(
    points: &[Vec<usize>],
    members: &[usize],
    bbox: &Region,
    axis: usize,
) -> Option<(usize, f64)> {
    let r = bbox.range(axis);
    if r.len() < 2 {
        return None;
    }
    let vol = bbox.volume();
    let n1 = members.len();
    let mut coords: Vec<usize> = members.iter().map(|&i| points[i][axis]).collect();
    coords.sort_unstable();
    coords.dedup();
    let side_volume = vol / r.len();
    // Candidate cut after coordinate c: left = [lo, c], right = [c+1, hi].
    let mut best: Option<(usize, f64)> = None;
    let mut left_count = 0usize;
    let mut ci = 0usize;
    let mut sorted_members: Vec<usize> = members.to_vec();
    sorted_members.sort_by_key(|&i| points[i][axis]);
    for &c in coords.iter().take_while(|&&c| c < r.hi()) {
        while ci < sorted_members.len() && points[sorted_members[ci]][axis] <= c {
            left_count += 1;
            ci += 1;
        }
        let left_vol = side_volume * (c - r.lo() + 1);
        let right_vol = vol - left_vol;
        let right_count = n1 - left_count;
        let w = (left_vol as f64 * DenseRegionFinder::gini(left_count, left_vol)
            + right_vol as f64 * DenseRegionFinder::gini(right_count, right_vol))
            / vol as f64;
        if best.is_none_or(|(_, s)| w < s) {
            best = Some((c, w));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(
        shape: &[usize],
        points: Vec<Vec<usize>>,
    ) -> (Vec<DenseRegion>, Vec<usize>, Vec<Vec<usize>>) {
        let shape = Shape::new(shape).unwrap();
        let finder = DenseRegionFinder::default();
        let (r, o) = finder.find(&shape, &points);
        (r, o, points)
    }

    #[test]
    fn single_full_cluster_is_one_region() {
        // A fully dense 10×10 block in a 100×100 cube.
        let mut pts = Vec::new();
        for x in 20..30 {
            for y in 40..50 {
                pts.push(vec![x, y]);
            }
        }
        let (regions, outliers, _) = find(&[100, 100], pts);
        assert_eq!(outliers.len(), 0);
        assert_eq!(regions.len(), 1);
        assert_eq!(
            regions[0].bounds,
            Region::from_bounds(&[(20, 29), (40, 49)]).unwrap()
        );
        assert_eq!(regions[0].points, 100);
    }

    #[test]
    fn two_clusters_are_separated() {
        let mut pts = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                pts.push(vec![x, y]);
                pts.push(vec![x + 80, y + 80]);
            }
        }
        let (regions, outliers, _) = find(&[100, 100], pts);
        assert!(outliers.is_empty());
        assert_eq!(regions.len(), 2);
        let mut bounds: Vec<Region> = regions.iter().map(|r| r.bounds.clone()).collect();
        bounds.sort_by_key(|r| r.lower_corner());
        assert_eq!(bounds[0], Region::from_bounds(&[(0, 7), (0, 7)]).unwrap());
        assert_eq!(
            bounds[1],
            Region::from_bounds(&[(80, 87), (80, 87)]).unwrap()
        );
    }

    #[test]
    fn scattered_points_become_outliers() {
        let pts: Vec<Vec<usize>> = (0..20)
            .map(|i| vec![(i * 487) % 1000, (i * 313) % 1000])
            .collect();
        let (regions, outliers, pts) = find(&[1000, 1000], pts);
        assert!(regions.is_empty(), "{regions:?}");
        assert_eq!(outliers.len(), pts.len());
    }

    #[test]
    fn clusters_plus_noise() {
        let mut pts = Vec::new();
        for x in 10..20 {
            for y in 10..20 {
                pts.push(vec![x, y]);
            }
        }
        for i in 0..10 {
            pts.push(vec![500 + i * 37 % 400, (i * 119) % 900]);
        }
        let (regions, outliers, _) = find(&[1000, 1000], pts);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].points, 100);
        assert_eq!(outliers.len(), 10);
    }

    #[test]
    fn every_point_is_region_or_outlier_exactly_once() {
        let mut pts = Vec::new();
        for x in 0..30 {
            for y in 0..30 {
                if (x / 10 + y / 10) % 2 == 0 {
                    pts.push(vec![x, y]);
                }
            }
        }
        let n = pts.len();
        let (regions, outliers, pts) = find(&[40, 40], pts);
        let in_regions: usize = pts
            .iter()
            .filter(|p| regions.iter().any(|r| r.bounds.contains(p)))
            .count();
        // Outliers are disjoint from regions.
        for &o in &outliers {
            assert!(!regions.iter().any(|r| r.bounds.contains(&pts[o])));
        }
        assert_eq!(in_regions + outliers.len(), n);
    }

    #[test]
    fn empty_input() {
        let (regions, outliers, _) = find(&[10, 10], vec![]);
        assert!(regions.is_empty());
        assert!(outliers.is_empty());
    }

    #[test]
    fn one_dimensional_clusters() {
        let mut pts: Vec<Vec<usize>> = (100..150).map(|x| vec![x]).collect();
        pts.extend((700..760).map(|x| vec![x]));
        let (regions, outliers, _) = find(&[1000], pts);
        // The greedy cut may peel a boundary point or two into outliers;
        // both clusters must still surface as dense regions.
        assert_eq!(regions.len(), 2);
        assert!(regions.iter().all(|r| r.points >= 49), "{regions:?}");
        assert!(outliers.len() <= 2, "{} outliers", outliers.len());
    }
}
