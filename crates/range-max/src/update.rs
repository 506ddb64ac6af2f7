//! Batch updates for the range-max tree (§7).
//!
//! The algorithm runs up to `H` phases. Phase `i` scans the update list
//! for level `i` once, maintaining per-parent auxiliary state
//! (`tag`, `new_max_index`, `max_value`): `tag = 0` means the parent is
//! untouched, `tag = 1` means its new maximum is already known
//! (`new_max_index`), and `tag = −1` means its maximum was decreased and
//! only a full rescan of the sibling set can recover it. Passive updates
//! are ignored; a decrease is *active* only when it hits the cell holding
//! the parent's current maximum, and any later active increase cancels the
//! pending rescan.
//!
//! One extension beyond the paper's presentation: when a child's maximum
//! *index* moves while its *value* stays equal, we still propagate a
//! "repoint" record so ancestors never hold a stale index (the paper's
//! update list, which carries only new values, would silently skip this).

use crate::tree::{ChildScan, MaxTree, MaxTreeError};
use olap_aggregate::TotalOrder;
use olap_array::DenseArray;
use olap_query::AccessStats;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One update point: `⟨index, value⟩` — the cell at `index` is assigned
/// `value` (an absolute value, not a delta: MAX has no inverse).
#[derive(Debug, Clone, PartialEq)]
pub struct PointUpdate<V> {
    /// The updated cell of `A`.
    pub index: Vec<usize>,
    /// The new value.
    pub value: V,
}

impl<V> PointUpdate<V> {
    /// Convenience constructor.
    pub fn new(index: &[usize], value: V) -> Self {
        PointUpdate {
            index: index.to_vec(),
            value,
        }
    }
}

/// A change that one level reports to the next: the child's maximum moved
/// from `(old_max, old_val)` to `(new_max, new_val)` (indices are flat
/// indices into `A`).
#[derive(Debug, Clone)]
struct Change<V> {
    /// Flat coordinate of the child in its own level's index space.
    child_flat: usize,
    old_max: usize,
    old_val: V,
    new_max: usize,
    new_val: V,
}

impl<O: TotalOrder> MaxTree<O> {
    /// Applies a batch of point updates to the cube **and** the tree,
    /// phase by phase (§7). The paper assumes distinct indices; duplicate
    /// indices are coalesced here by keeping the last value.
    ///
    /// Returns access statistics (rescans dominate the cost).
    ///
    /// # Errors
    /// Validates every index against the cube shape.
    pub fn batch_update(
        &mut self,
        a: &mut DenseArray<O::Value>,
        updates: &[PointUpdate<O::Value>],
    ) -> Result<AccessStats, MaxTreeError> {
        let mut stats = AccessStats::new();
        let changes = self.record_changes(a, updates, &mut stats)?;
        for ch in &changes {
            *a.get_flat_mut(ch.child_flat) = ch.new_val.clone();
        }
        self.propagate_all(a, changes, &mut stats);
        Ok(stats)
    }

    /// [`MaxTree::batch_update`] for a cube that is shared rather than
    /// owned: old values are read from the pre-batch cube `pre`, and the
    /// phases (`tag = −1` rescans included) run against `post`, which the
    /// caller has already brought to the post-batch state — `pre` with
    /// every update applied, the last value winning for a repeated index.
    /// Neither cube is written, so one post-batch cube can serve several
    /// trees (a max and a min tree, say) and every other structure built
    /// over it. The tree and the returned statistics are exactly those
    /// of the in-place call.
    ///
    /// # Errors
    /// Validates every index against the cube shape.
    pub fn batch_update_onto(
        &mut self,
        pre: &DenseArray<O::Value>,
        post: &DenseArray<O::Value>,
        updates: &[PointUpdate<O::Value>],
    ) -> Result<AccessStats, MaxTreeError> {
        let mut stats = AccessStats::new();
        let changes = self.record_changes(pre, updates, &mut stats)?;
        self.propagate_all(post, changes, &mut stats);
        Ok(stats)
    }

    /// Phase 0, read side: coalesces duplicate indices (last value wins)
    /// and records old → new for every cell of `pre` whose value the
    /// batch changes — the first tree level's update list.
    fn record_changes(
        &self,
        pre: &DenseArray<O::Value>,
        updates: &[PointUpdate<O::Value>],
        stats: &mut AccessStats,
    ) -> Result<Vec<Change<O::Value>>, MaxTreeError> {
        for u in updates {
            self.shape.check_index(&u.index)?;
        }
        let mut dedup: BTreeMap<usize, O::Value> = BTreeMap::new();
        for u in updates {
            dedup.insert(self.shape.flatten(&u.index), u.value.clone());
        }
        let mut changes: Vec<Change<O::Value>> = Vec::new();
        for (flat, value) in dedup {
            let old = pre.get_flat(flat).clone();
            stats.read_a(1);
            if self.order.cmp_values(&old, &value) == Ordering::Equal {
                continue; // "we ignore an update that does not change the value"
            }
            changes.push(Change {
                child_flat: flat,
                old_max: flat,
                old_val: old,
                new_max: flat,
                new_val: value,
            });
        }
        Ok(changes)
    }

    /// Phases 1..=H over the post-batch cube `a`: propagates level by
    /// level, terminating early when a level absorbs every change.
    fn propagate_all(
        &mut self,
        a: &DenseArray<O::Value>,
        mut changes: Vec<Change<O::Value>>,
        stats: &mut AccessStats,
    ) {
        for parent_level in 1..=self.height() {
            if changes.is_empty() {
                break;
            }
            changes = self.propagate(a, parent_level, changes, stats);
        }
    }

    /// Runs one phase: applies the level-`parent_level − 1` changes to the
    /// `parent_level` nodes and returns the changes to report upward.
    fn propagate(
        &mut self,
        a: &DenseArray<O::Value>,
        parent_level: usize,
        changes: Vec<Change<O::Value>>,
        stats: &mut AccessStats,
    ) -> Vec<Change<O::Value>> {
        let b = self.b;
        let child_shape = if parent_level == 1 {
            self.shape.clone()
        } else {
            self.levels[parent_level - 2].shape.clone()
        };
        let parent_shape = self.levels[parent_level - 1].shape.clone();
        // Group the changes by parent node, preserving list order.
        let mut groups: BTreeMap<usize, Vec<Change<O::Value>>> = BTreeMap::new();
        let mut child_idx = vec![0usize; child_shape.ndim()];
        let mut parent_idx = vec![0usize; parent_shape.ndim()];
        for ch in changes {
            child_shape.unflatten_into(ch.child_flat, &mut child_idx);
            for (p, &c) in parent_idx.iter_mut().zip(child_idx.iter()) {
                *p = c / b;
            }
            groups
                .entry(parent_shape.flatten(&parent_idx))
                .or_default()
                .push(ch);
        }
        let mut out = Vec::new();
        let mut scan = ChildScan::new(b, child_shape.ndim());
        for (pflat, group) in groups {
            let stored = self.levels[parent_level - 1].max_index[pflat];
            stats.visit_nodes(1);
            // v0: the parent's pre-batch max value. If the cell holding it
            // was touched this batch, exactly one change records its old
            // value; otherwise A still holds it.
            let orig_val = group
                .iter()
                .find(|c| c.old_max == stored)
                .map(|c| c.old_val.clone())
                .unwrap_or_else(|| a.get_flat(stored).clone());
            let mut tag: i8 = 0;
            let mut nmi = stored;
            let mut max_val = orig_val.clone();
            for ch in &group {
                match self.order.cmp_values(&ch.new_val, &ch.old_val) {
                    Ordering::Greater => {
                        // Rules 1(b)/1(c): an active increase beats the
                        // best known, or recovers an equal value after a
                        // pending rescan.
                        match self.order.cmp_values(&ch.new_val, &max_val) {
                            Ordering::Greater => {
                                tag = 1;
                                nmi = ch.new_max;
                                max_val = ch.new_val.clone();
                            }
                            Ordering::Equal if tag == -1 => {
                                tag = 1;
                                nmi = ch.new_max;
                            }
                            _ => {}
                        }
                    }
                    Ordering::Less => {
                        // Rule 2(b): active only against the tracked max.
                        if ch.old_max == nmi && tag == 0 {
                            tag = -1;
                        }
                    }
                    Ordering::Equal => {
                        // Repoint: same value, new index (see module docs).
                        if ch.old_max == nmi {
                            nmi = ch.new_max;
                        }
                    }
                }
            }
            let (new_y, new_val) = if tag == -1 {
                // Rescan the whole sibling set S covered by this parent.
                let child_of = parent_level
                    .checked_sub(2)
                    .and_then(|i| self.levels.get(i))
                    .map(|l| &*l.max_index);
                let (y, seen) =
                    scan.argmax(a, &self.order, &child_shape, child_of, &parent_shape, pflat);
                match child_of {
                    None => stats.read_a(seen),
                    Some(_) => stats.visit_nodes(seen),
                }
                (y, a.get_flat(y).clone())
            } else {
                (nmi, max_val)
            };
            let index_changed = new_y != stored;
            let value_changed = self.order.cmp_values(&new_val, &orig_val) != Ordering::Equal;
            if index_changed || value_changed {
                self.levels[parent_level - 1].max_index[pflat] = new_y;
                // Even an equal-value index move must propagate: an
                // ancestor may point at the abandoned index (see module
                // docs on repointing).
                out.push(Change {
                    child_flat: pflat,
                    old_max: stored,
                    old_val: orig_val,
                    new_max: new_y,
                    new_val,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaturalMaxTree;
    use olap_array::{Region, Shape};

    fn build(data: Vec<i64>, n: usize, b: usize) -> (DenseArray<i64>, NaturalMaxTree<i64>) {
        let a = DenseArray::from_vec(Shape::new(&[n]).unwrap(), data).unwrap();
        let t = NaturalMaxTree::for_values(&a, b).unwrap();
        (a, t)
    }

    #[test]
    fn increase_propagates_to_root() {
        let (mut a, mut t) = build(vec![4, 1, 7, 2, 9, 3, 8, 5, 0, 6, 11, 2, 13, 10], 14, 3);
        t.batch_update(&mut a, &[PointUpdate::new(&[1], 99)])
            .unwrap();
        t.check_invariants(&a).unwrap();
        assert_eq!(t.node_max_index(3, &[0]), 1);
        assert_eq!(*a.get(&[1]), 99);
    }

    #[test]
    fn decrease_of_global_max_triggers_rescan() {
        let (mut a, mut t) = build(vec![4, 1, 7, 2, 9, 3, 8, 5, 0, 6, 11, 2, 13, 10], 14, 3);
        // 13 at index 12 is the global max; drop it below everything.
        let stats = t
            .batch_update(&mut a, &[PointUpdate::new(&[12], -1)])
            .unwrap();
        t.check_invariants(&a).unwrap();
        // New global max is 11 at index 10.
        assert_eq!(t.node_max_index(3, &[0]), 10);
        // The rescans actually touched nodes.
        assert!(stats.total_accesses() > 1);
    }

    #[test]
    fn passive_updates_do_not_propagate() {
        let (mut a, mut t) = build(vec![4, 1, 7, 2, 9, 3, 8, 5, 0, 6, 11, 2, 13, 10], 14, 3);
        let snapshot: Vec<usize> = (1..=3).map(|l| t.node_max_index(l, &[0; 1])).collect();
        // Increase a non-max cell to a still-passive value.
        t.batch_update(&mut a, &[PointUpdate::new(&[1], 2)])
            .unwrap();
        t.check_invariants(&a).unwrap();
        let after: Vec<usize> = (1..=3).map(|l| t.node_max_index(l, &[0; 1])).collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn increase_then_decrease_cancels_rescan() {
        // Rule 2(b): the decrease of the old max is ignored when an active
        // increase came first.
        let (mut a, mut t) = build(vec![1, 2, 3, 4, 5, 6, 7, 8, 9], 9, 3);
        let updates = [PointUpdate::new(&[0], 100), PointUpdate::new(&[8], 0)];
        t.batch_update(&mut a, &updates).unwrap();
        t.check_invariants(&a).unwrap();
        assert_eq!(t.node_max_index(2, &[0]), 0);
    }

    #[test]
    fn decrease_then_equal_increase_recovers() {
        // Rule 1(c): after the max is decreased (tag = −1), a later
        // increase reaching the same tracked value recovers without rescan.
        let (mut a, mut t) = build(vec![5, 1, 1, 1, 1, 1, 1, 1, 1], 9, 3);
        let updates = [PointUpdate::new(&[0], 2), PointUpdate::new(&[1], 5)];
        t.batch_update(&mut a, &updates).unwrap();
        t.check_invariants(&a).unwrap();
    }

    #[test]
    fn equal_value_repoint_keeps_ancestors_fresh() {
        // Two cells share the max value; the stored one is decreased while
        // an equal holder exists. Ancestors must repoint, not dangle.
        let (mut a, mut t) = build(vec![9, 1, 1, 1, 1, 1, 1, 1, 9], 9, 3);
        let root_before = t.node_max_index(2, &[0]);
        let dropped = root_before; // whichever copy of 9 the root points at
        t.batch_update(&mut a, &[PointUpdate::new(&[dropped], 0)])
            .unwrap();
        t.check_invariants(&a).unwrap();
        let root_after = t.node_max_index(2, &[0]);
        assert_eq!(*a.get_flat(root_after), 9);
        assert_ne!(root_after, dropped);
    }

    #[test]
    fn duplicate_indices_keep_last() {
        let (mut a, mut t) = build(vec![1, 1, 1, 1], 4, 2);
        let updates = [PointUpdate::new(&[2], 50), PointUpdate::new(&[2], 7)];
        t.batch_update(&mut a, &updates).unwrap();
        assert_eq!(*a.get(&[2]), 7);
        t.check_invariants(&a).unwrap();
    }

    #[test]
    fn two_dimensional_batch() {
        let shape = Shape::new(&[6, 6]).unwrap();
        let mut a = DenseArray::from_fn(shape, |i| ((i[0] * 7 + i[1] * 5) % 11) as i64);
        let mut t = NaturalMaxTree::for_values(&a, 2).unwrap();
        let updates = [
            PointUpdate::new(&[0, 0], 40),
            PointUpdate::new(&[5, 5], -3),
            PointUpdate::new(&[3, 2], 41),
            PointUpdate::new(&[0, 0], 1), // duplicate; keeps 1
        ];
        t.batch_update(&mut a, &updates).unwrap();
        t.check_invariants(&a).unwrap();
        let q = Region::from_bounds(&[(0, 5), (0, 5)]).unwrap();
        let (idx, v) = t.range_max(&a, &q).unwrap();
        assert_eq!((idx, v), (vec![3, 2], 41));
    }

    #[test]
    fn rejects_out_of_bounds_update() {
        let (mut a, mut t) = build(vec![1, 2, 3, 4], 4, 2);
        assert!(t
            .batch_update(&mut a, &[PointUpdate::new(&[4], 9)])
            .is_err());
    }

    #[test]
    fn queries_after_many_batches_stay_correct() {
        let (mut a, mut t) = build((0..27).map(|x| (x * 17 % 23) as i64).collect(), 27, 3);
        for round in 0..10 {
            let updates: Vec<PointUpdate<i64>> = (0..5)
                .map(|k| {
                    let idx = (round * 11 + k * 7) % 27;
                    PointUpdate::new(&[idx], ((round * k) as i64 % 13) - 6)
                })
                .collect();
            t.batch_update(&mut a, &updates).unwrap();
            t.check_invariants(&a).unwrap();
        }
        for l in 0..27 {
            for h in l..27 {
                let q = Region::from_bounds(&[(l, h)]).unwrap();
                let naive = a.fold_region(&q, i64::MIN, |m, &x| m.max(x));
                assert_eq!(t.range_max(&a, &q).unwrap().1, naive);
            }
        }
    }
}
