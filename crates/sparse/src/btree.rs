//! A from-scratch B+-tree keyed by `usize` (§10.1's index over the sparse
//! one-dimensional prefix array, per \[Com79\]).
//!
//! Keys live only in the leaves; internal nodes carry separator keys (the
//! smallest key of each right sibling subtree). Besides exact lookup, the
//! tree supports the two queries §10.1 needs: `floor` (the last defined
//! entry ≤ k, for `P[ĥ]`) and `ceiling` (the first defined entry ≥ k).

/// A B+-tree from `usize` keys to values.
///
/// # Examples
///
/// ```
/// use olap_sparse::BPlusTree;
///
/// let mut t = BPlusTree::new(8);
/// for k in [10usize, 20, 30] {
///     t.insert(k, k * 100);
/// }
/// // §10.1's floor lookup: the last defined prefix ≤ a bound.
/// assert_eq!(t.floor(25), Some((20, &2000)));
/// assert_eq!(t.ceiling(25), Some((30, &3000)));
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree<V> {
    root: Node<V>,
    /// Maximum entries per node; nodes split at `order` entries.
    order: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node<V> {
    Leaf {
        keys: Vec<usize>,
        vals: Vec<V>,
    },
    Internal {
        seps: Vec<usize>,
        children: Vec<Node<V>>,
    },
}

impl<V> Default for BPlusTree<V> {
    fn default() -> Self {
        BPlusTree::new(16)
    }
}

impl<V> BPlusTree<V> {
    /// Creates an empty tree with the given node capacity; a capacity
    /// below 4 is raised to 4.
    pub fn new(order: usize) -> Self {
        let order = order.max(4);
        BPlusTree {
            root: Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            },
            order,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces; returns the previous value for the key.
    pub fn insert(&mut self, key: usize, value: V) -> Option<V> {
        let order = self.order;
        let (old, split) = self.root.insert(key, value, order);
        if old.is_none() {
            self.len += 1;
        }
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    keys: Vec::new(),
                    vals: Vec::new(),
                },
            );
            self.root = Node::Internal {
                seps: vec![sep],
                children: vec![old_root, right],
            };
        }
        old
    }

    /// Exact lookup.
    pub fn get(&self, key: usize) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(&key).ok().and_then(|i| vals.get(i));
                }
                Node::Internal { seps, children } => {
                    let i = seps.partition_point(|s| *s <= key);
                    node = children.get(i)?;
                }
            }
        }
    }

    /// The entry with the greatest key `≤ key` (the `P[ĥ]` lookup of
    /// §10.1).
    pub fn floor(&self, key: usize) -> Option<(usize, &V)> {
        Self::floor_in(&self.root, key)
    }

    fn floor_in(node: &Node<V>, key: usize) -> Option<(usize, &V)> {
        match node {
            Node::Leaf { keys, vals } => {
                let i = keys.partition_point(|k| *k <= key).checked_sub(1)?;
                Some((*keys.get(i)?, vals.get(i)?))
            }
            Node::Internal { seps, children } => {
                let mut i = seps.partition_point(|s| *s <= key);
                // analyzer: allow(budget-coverage, reason = "descent within one node: bounded by B-tree fan-out; callers charge per key probed")
                loop {
                    if let Some(found) = Self::floor_in(children.get(i)?, key) {
                        return Some(found);
                    }
                    if i == 0 {
                        return None;
                    }
                    i -= 1; // key smaller than everything in child i
                }
            }
        }
    }

    /// The entry with the smallest key `≥ key` (the `P[ℓ̂]` lookup of
    /// §10.1).
    pub fn ceiling(&self, key: usize) -> Option<(usize, &V)> {
        Self::ceiling_in(&self.root, key)
    }

    fn ceiling_in(node: &Node<V>, key: usize) -> Option<(usize, &V)> {
        match node {
            Node::Leaf { keys, vals } => {
                let i = keys.partition_point(|k| *k < key);
                Some((*keys.get(i)?, vals.get(i)?))
            }
            Node::Internal { seps, children } => {
                let mut i = seps.partition_point(|s| *s <= key);
                loop {
                    if let Some(found) = Self::ceiling_in(children.get(i)?, key) {
                        return Some(found);
                    }
                    i += 1;
                }
            }
        }
    }

    /// In-order iteration over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        let mut stack = vec![(&self.root, 0usize)];
        std::iter::from_fn(move || loop {
            let (node, pos) = stack.pop()?;
            match node {
                Node::Leaf { keys, vals } => {
                    if let (Some(&k), Some(v)) = (keys.get(pos), vals.get(pos)) {
                        stack.push((node, pos + 1));
                        return Some((k, v));
                    }
                }
                Node::Internal { children, .. } => {
                    if let Some(child) = children.get(pos) {
                        stack.push((node, pos + 1));
                        stack.push((child, 0));
                    }
                }
            }
        })
    }

    /// Depth of the tree (1 for a single leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = &self.root;
        // analyzer: allow(budget-coverage, reason = "walks one root-to-leaf spine: trip count = O(log N) tree height")
        while let Some(first) = match node {
            Node::Internal { children, .. } => children.first(),
            Node::Leaf { .. } => None,
        } {
            d += 1;
            node = first;
        }
        d
    }
}

impl<V> Node<V> {
    /// Inserts into the subtree; returns (replaced value, split info).
    #[expect(
        clippy::indexing_slicing,
        reason = "binary_search and partition_point return positions inside keys/vals and children (seps has one fewer entry than children); a split leaves both halves non-empty"
    )]
    fn insert(
        &mut self,
        key: usize,
        value: V,
        order: usize,
    ) -> (Option<V>, Option<(usize, Node<V>)>) {
        match self {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => (Some(std::mem::replace(&mut vals[i], value)), None),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, value);
                    if keys.len() >= order {
                        let mid = keys.len() / 2;
                        let rk: Vec<usize> = keys.split_off(mid);
                        let rv: Vec<V> = vals.split_off(mid);
                        let sep = rk[0];
                        (None, Some((sep, Node::Leaf { keys: rk, vals: rv })))
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { seps, children } => {
                let i = seps.partition_point(|s| *s <= key);
                let (old, split) = children[i].insert(key, value, order);
                if let Some((sep, right)) = split {
                    seps.insert(i, sep);
                    children.insert(i + 1, right);
                    if children.len() > order {
                        let mid = children.len() / 2;
                        let rsep = seps[mid - 1];
                        let r_seps: Vec<usize> = seps.split_off(mid);
                        seps.pop(); // rsep moves up
                        let r_children: Vec<Node<V>> = children.split_off(mid);
                        return (
                            old,
                            Some((
                                rsep,
                                Node::Internal {
                                    seps: r_seps,
                                    children: r_children,
                                },
                            )),
                        );
                    }
                }
                (old, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new(4);
        for k in [5usize, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            assert_eq!(t.insert(k, k * 10), None);
        }
        assert_eq!(t.len(), 10);
        for k in 0..10 {
            assert_eq!(t.get(k), Some(&(k * 10)));
        }
        assert_eq!(t.get(10), None);
    }

    #[test]
    fn replace_returns_old() {
        let mut t = BPlusTree::new(4);
        t.insert(3, "a");
        assert_eq!(t.insert(3, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3), Some(&"b"));
    }

    #[test]
    fn floor_and_ceiling() {
        let mut t = BPlusTree::new(4);
        for k in [10usize, 20, 30, 40] {
            t.insert(k, k);
        }
        assert_eq!(t.floor(25), Some((20, &20)));
        assert_eq!(t.floor(20), Some((20, &20)));
        assert_eq!(t.floor(9), None);
        assert_eq!(t.floor(1000), Some((40, &40)));
        assert_eq!(t.ceiling(25), Some((30, &30)));
        assert_eq!(t.ceiling(30), Some((30, &30)));
        assert_eq!(t.ceiling(41), None);
        assert_eq!(t.ceiling(0), Some((10, &10)));
    }

    #[test]
    fn iter_is_sorted() {
        let mut t = BPlusTree::new(5);
        let mut keys: Vec<usize> = (0..200).map(|i| (i * 37) % 1000).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        keys.sort_unstable();
        keys.dedup();
        let got: Vec<usize> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn grows_in_depth_and_stays_correct() {
        let mut t = BPlusTree::new(4);
        for k in 0..5000usize {
            t.insert(k * 2, k);
        }
        assert!(t.depth() > 3);
        assert_eq!(t.len(), 5000);
        // Odd keys are absent; floor/ceiling bracket them.
        assert_eq!(t.get(999), None);
        assert_eq!(t.floor(999).unwrap().0, 998);
        assert_eq!(t.ceiling(999).unwrap().0, 1000);
    }

    #[test]
    fn exhaustive_floor_ceiling_against_btreemap() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::new(4);
        let mut reference = BTreeMap::new();
        for i in 0..500usize {
            let k = (i * 811) % 2039;
            t.insert(k, i);
            reference.insert(k, i);
        }
        for probe in 0..2100 {
            let f = t.floor(probe).map(|(k, v)| (k, *v));
            let rf = reference.range(..=probe).next_back().map(|(k, v)| (*k, *v));
            assert_eq!(f, rf, "floor({probe})");
            let c = t.ceiling(probe).map(|(k, v)| (k, *v));
            let rc = reference.range(probe..).next().map(|(k, v)| (*k, *v));
            assert_eq!(c, rc, "ceiling({probe})");
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t: BPlusTree<i32> = BPlusTree::default();
        assert!(t.is_empty());
        assert_eq!(t.floor(5), None);
        assert_eq!(t.ceiling(5), None);
        assert_eq!(t.get(5), None);
        assert_eq!(t.iter().count(), 0);
    }
}
