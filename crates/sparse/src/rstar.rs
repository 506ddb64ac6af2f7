//! A from-scratch d-dimensional R*-tree (\[BKSS90\]) over integer
//! rectangles — the index §10.2 puts over dense-region boundaries and
//! outlier points.
//!
//! Implements the R* insertion heuristics: subtree choice by least overlap
//! enlargement at the leaf level (least area enlargement above), splits by
//! margin-minimal axis then overlap-minimal distribution, and forced
//! reinsertion of the 30% most-distant entries on the first overflow of
//! each level per insertion.

use olap_array::{Interrupt, Region};
use olap_query::QueryCtx;

/// Fraction of entries evicted on a forced reinsert (the R* paper's 30%).
const REINSERT_FRACTION: f64 = 0.3;

/// A dynamic R*-tree mapping rectangles to payloads.
///
/// # Examples
///
/// ```
/// use olap_array::Region;
/// use olap_sparse::RStarTree;
///
/// let mut t = RStarTree::new(8);
/// t.insert(Region::point(&[3, 4]).unwrap(), "a");
/// t.insert(Region::from_bounds(&[(10, 19), (10, 19)]).unwrap(), "b");
/// let hits = t.search(&Region::from_bounds(&[(0, 12), (0, 12)]).unwrap());
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    max_entries: usize,
    min_entries: usize,
    root: Node<T>,
    /// Level of the root (leaves are level 0).
    root_level: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(Region, T)>),
    Internal(Vec<(Region, Node<T>)>),
}

/// Work queued during an insertion (forced reinsert carries whole subtrees
/// at internal levels).
enum Pending<T> {
    Data(Region, T),
    Subtree(Region, Node<T>, usize),
}

enum Outcome<T> {
    Done,
    Split(Region, Node<T>),
    Reinsert(Vec<Pending<T>>),
}

impl<T> RStarTree<T> {
    /// Creates an empty tree with node capacity `max_entries` (a capacity
    /// below 4 is raised to 4); minimum fill is 40%.
    pub fn new(max_entries: usize) -> Self {
        let max_entries = max_entries.max(4);
        RStarTree {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            root: Node::Leaf(Vec::new()),
            root_level: 0,
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.root_level + 1
    }

    /// Inserts a rectangle with its payload.
    #[expect(
        clippy::expect_used,
        reason = "a root that has just split holds at least min >= 1 entries, so it has an MBR"
    )]
    pub fn insert(&mut self, region: Region, value: T) {
        self.len += 1;
        let mut queue: Vec<Pending<T>> = vec![Pending::Data(region, value)];
        // One forced reinsert allowed per level per insertion.
        let mut reinserted = vec![false; self.root_level + 2];
        while let Some(item) = queue.pop() {
            let (mbr, target_level) = match &item {
                Pending::Data(r, _) => (r.clone(), 0),
                Pending::Subtree(r, _, lvl) => (r.clone(), *lvl),
            };
            let root_level = self.root_level;
            let min = self.min_entries;
            let max = self.max_entries;
            let outcome = Self::insert_rec(
                &mut self.root,
                root_level,
                item,
                mbr,
                target_level,
                max,
                min,
                true,
                &mut reinserted,
            );
            match outcome {
                Outcome::Done => {}
                Outcome::Reinsert(items) => queue.extend(items),
                Outcome::Split(right_mbr, right) => {
                    // Grow the root.
                    let old = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
                    let left_mbr = Self::node_mbr(&old).expect("non-empty");
                    self.root = Node::Internal(vec![(left_mbr, old), (right_mbr, right)]);
                    self.root_level += 1;
                    reinserted.push(false);
                }
            }
        }
    }

    /// Collects all leaf entries whose rectangle intersects `query`.
    pub fn search(&self, query: &Region) -> Vec<(&Region, &T)> {
        let mut out = Vec::new();
        // An unlimited ctx never interrupts.
        let _ = self.search_into(query, &mut out, &mut QueryCtx::unlimited());
        out
    }

    /// [`RStarTree::search`] into `out` under `ctx`: records one access
    /// per visited node and charges and checks `ctx` at each, so an
    /// interrupt lands within one node's entries.
    ///
    /// # Errors
    /// A budget interrupt; `out` then holds the hits found so far.
    pub fn search_into<'a>(
        &'a self,
        query: &Region,
        out: &mut Vec<(&'a Region, &'a T)>,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<(), Interrupt> {
        Self::search_rec(&self.root, query, out, ctx)
    }

    fn search_rec<'a>(
        node: &'a Node<T>,
        query: &Region,
        out: &mut Vec<(&'a Region, &'a T)>,
        ctx: &mut QueryCtx<'_>,
    ) -> Result<(), Interrupt> {
        ctx.stats.visit_nodes(1);
        ctx.charge()?;
        ctx.check()?;
        match node {
            Node::Leaf(entries) => {
                // analyzer: allow(budget-coverage, reason = "one leaf's entries, at most max_entries; only the leaf's visit is an access, charged above")
                for (r, v) in entries {
                    ctx.stats.step(1);
                    if r.overlaps(query) {
                        out.push((r, v));
                    }
                }
            }
            Node::Internal(children) => {
                for (mbr, child) in children {
                    ctx.stats.step(1);
                    if mbr.overlaps(query) {
                        Self::search_rec(child, query, out, ctx)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Visits every leaf entry (no spatial filter).
    pub fn for_each(&self, mut f: impl FnMut(&Region, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Region, &T)) {
            match node {
                Node::Leaf(entries) => {
                    for (r, v) in entries {
                        f(r, v);
                    }
                }
                Node::Internal(children) => {
                    for (_, child) in children {
                        walk(child, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Checks the structural invariants (MBR containment, fill factors).
    /// Test/audit helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk<T>(
            node: &Node<T>,
            is_root: bool,
            min: usize,
            max: usize,
        ) -> Result<(Option<Region>, usize), String> {
            match node {
                Node::Leaf(entries) => {
                    if !is_root && (entries.len() < min || entries.len() > max) {
                        return Err(format!("leaf fill {} outside [{min},{max}]", entries.len()));
                    }
                    let mbr = entries
                        .iter()
                        .map(|(r, _)| r.clone())
                        .reduce(|a, b| a.bounding_union(&b));
                    Ok((mbr, 0))
                }
                Node::Internal(children) => {
                    if children.is_empty() || (!is_root && children.len() < min) {
                        return Err("underfull internal node".into());
                    }
                    if children.len() > max {
                        return Err("overfull internal node".into());
                    }
                    let mut mbr: Option<Region> = None;
                    let mut depth = None;
                    for (stored, child) in children {
                        let (child_mbr, child_depth) = walk(child, false, min, max)?;
                        let child_mbr = child_mbr.ok_or_else(|| "empty child".to_string())?;
                        if &child_mbr != stored {
                            return Err(format!("stale MBR: stored {stored}, actual {child_mbr}"));
                        }
                        match depth {
                            None => depth = Some(child_depth),
                            Some(d) if d != child_depth => return Err("unbalanced tree".into()),
                            _ => {}
                        }
                        mbr = Some(match mbr {
                            None => child_mbr,
                            Some(m) => m.bounding_union(&child_mbr),
                        });
                    }
                    let depth = depth.ok_or_else(|| "underfull internal node".to_string())?;
                    Ok((mbr, depth + 1))
                }
            }
        }
        walk(&self.root, true, self.min_entries, self.max_entries).map(|_| ())
    }

    fn node_mbr(node: &Node<T>) -> Option<Region> {
        match node {
            Node::Leaf(entries) => entries
                .iter()
                .map(|(r, _)| r.clone())
                .reduce(|a, b| a.bounding_union(&b)),
            Node::Internal(children) => children
                .iter()
                .map(|(r, _)| r.clone())
                .reduce(|a, b| a.bounding_union(&b)),
        }
    }

    fn area(r: &Region) -> f64 {
        r.ranges().iter().map(|x| x.len() as f64).product()
    }

    fn margin(r: &Region) -> f64 {
        r.ranges().iter().map(|x| x.len() as f64).sum()
    }

    fn overlap(a: &Region, b: &Region) -> f64 {
        match a.intersect(b) {
            Some(i) => Self::area(&i),
            None => 0.0,
        }
    }

    fn enlargement(mbr: &Region, add: &Region) -> f64 {
        Self::area(&mbr.bounding_union(add)) - Self::area(mbr)
    }

    /// R* ChooseSubtree: least overlap enlargement when children are
    /// leaves, least area enlargement otherwise (ties by area).
    #[expect(
        clippy::indexing_slicing,
        reason = "an internal node always holds at least one child"
    )]
    fn choose_child(children: &[(Region, Node<T>)], mbr: &Region) -> usize {
        let leaves_below = matches!(children[0].1, Node::Leaf(_));
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, (child_mbr, _)) in children.iter().enumerate() {
            let enlarged = child_mbr.bounding_union(mbr);
            let key = if leaves_below {
                // Overlap enlargement against the siblings.
                let mut before = 0.0;
                let mut after = 0.0;
                for (j, (other, _)) in children.iter().enumerate() {
                    if i != j {
                        before += Self::overlap(child_mbr, other);
                        after += Self::overlap(&enlarged, other);
                    }
                }
                (
                    after - before,
                    Self::enlargement(child_mbr, mbr),
                    Self::area(child_mbr),
                )
            } else {
                (
                    Self::enlargement(child_mbr, mbr),
                    Self::area(child_mbr),
                    0.0,
                )
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// R* split over generic `(Region, E)` entries: margin-minimal axis,
    /// then overlap-minimal (area tie-break) distribution.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "an overfull node holds max + 1 >= 5 entries and min <= max / 2, so every candidate split leaves both groups non-empty"
    )]
    fn split_entries<E>(entries: &mut Vec<(Region, E)>, min: usize) -> Vec<(Region, E)> {
        let d = entries[0].0.ndim();
        let total = entries.len();
        let mut best_axis = 0;
        let mut best_margin = f64::INFINITY;
        for axis in 0..d {
            entries.sort_by_key(|(r, _)| (r.range(axis).lo(), r.range(axis).hi()));
            let mut margin_sum = 0.0;
            for k in min..=(total - min) {
                let left = entries[..k]
                    .iter()
                    .map(|(r, _)| r.clone())
                    .reduce(|a, b| a.bounding_union(&b))
                    .expect("k ≥ 1");
                let right = entries[k..]
                    .iter()
                    .map(|(r, _)| r.clone())
                    .reduce(|a, b| a.bounding_union(&b))
                    .expect("k < total");
                margin_sum += Self::margin(&left) + Self::margin(&right);
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }
        entries.sort_by_key(|(r, _)| (r.range(best_axis).lo(), r.range(best_axis).hi()));
        let mut best_k = min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in min..=(total - min) {
            let left = entries[..k]
                .iter()
                .map(|(r, _)| r.clone())
                .reduce(|a, b| a.bounding_union(&b))
                .expect("k ≥ 1");
            let right = entries[k..]
                .iter()
                .map(|(r, _)| r.clone())
                .reduce(|a, b| a.bounding_union(&b))
                .expect("k < total");
            let key = (
                Self::overlap(&left, &right),
                Self::area(&left) + Self::area(&right),
            );
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }
        entries.split_off(best_k)
    }

    /// Picks the `p` entries farthest (by MBR center distance) from the
    /// node center for forced reinsertion.
    #[expect(
        clippy::expect_used,
        reason = "an overfull node holds max + 1 >= 5 entries, so it has an MBR"
    )]
    fn pick_reinsert<E>(entries: &mut Vec<(Region, E)>, p: usize) -> Vec<(Region, E)> {
        let node_mbr = entries
            .iter()
            .map(|(r, _)| r.clone())
            .reduce(|a, b| a.bounding_union(&b))
            .expect("non-empty");
        let center: Vec<f64> = node_mbr
            .ranges()
            .iter()
            .map(|r| (r.lo() + r.hi()) as f64 / 2.0)
            .collect();
        let dist = |r: &Region| -> f64 {
            r.ranges()
                .iter()
                .zip(&center)
                .map(|(x, c)| {
                    let m = (x.lo() + x.hi()) as f64 / 2.0 - c;
                    m * m
                })
                .sum()
        };
        // Sort ascending by distance; the tail is evicted.
        entries.sort_by(|a, b| dist(&a.0).total_cmp(&dist(&b.0)));
        entries.split_off(entries.len() - p)
    }

    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::unreachable,
        reason = "level bookkeeping: a node above the target level is internal and has children; choose_child returns a position among them"
    )]
    fn insert_rec(
        node: &mut Node<T>,
        node_level: usize,
        item: Pending<T>,
        item_mbr: Region,
        target_level: usize,
        max: usize,
        min: usize,
        is_root: bool,
        reinserted: &mut [bool],
    ) -> Outcome<T> {
        if node_level == target_level {
            // Place the entry here.
            let overflow = match (&mut *node, item) {
                (Node::Leaf(entries), Pending::Data(r, v)) => {
                    entries.push((r, v));
                    entries.len() > max
                }
                (Node::Internal(children), Pending::Subtree(r, sub, _)) => {
                    children.push((r, sub));
                    children.len() > max
                }
                _ => unreachable!("level/type mismatch in R*-tree insertion"),
            };
            if !overflow {
                return Outcome::Done;
            }
            // Overflow treatment: forced reinsert once per level (never at
            // the root), else split.
            if !is_root && !reinserted[node_level] {
                reinserted[node_level] = true;
                let p = ((max as f64) * REINSERT_FRACTION).ceil() as usize;
                let evicted: Vec<Pending<T>> = match node {
                    Node::Leaf(entries) => Self::pick_reinsert(entries, p)
                        .into_iter()
                        .map(|(r, v)| Pending::Data(r, v))
                        .collect(),
                    Node::Internal(children) => Self::pick_reinsert(children, p)
                        .into_iter()
                        .map(|(r, sub)| Pending::Subtree(r, sub, node_level))
                        .collect(),
                };
                return Outcome::Reinsert(evicted);
            }
            let (right_mbr, right) = match node {
                Node::Leaf(entries) => {
                    let right = Self::split_entries(entries, min);
                    let mbr = right
                        .iter()
                        .map(|(r, _)| r.clone())
                        .reduce(|a, b| a.bounding_union(&b))
                        .expect("non-empty split");
                    (mbr, Node::Leaf(right))
                }
                Node::Internal(children) => {
                    let right = Self::split_entries(children, min);
                    let mbr = right
                        .iter()
                        .map(|(r, _)| r.clone())
                        .reduce(|a, b| a.bounding_union(&b))
                        .expect("non-empty split");
                    (mbr, Node::Internal(right))
                }
            };
            return Outcome::Split(right_mbr, right);
        }
        // Descend.
        let children = match node {
            Node::Internal(children) => children,
            Node::Leaf(_) => unreachable!("target level below a leaf"),
        };
        let i = Self::choose_child(children, &item_mbr);
        let outcome = Self::insert_rec(
            &mut children[i].1,
            node_level - 1,
            item,
            item_mbr,
            target_level,
            max,
            min,
            false,
            reinserted,
        );
        match outcome {
            Outcome::Done => {
                children[i].0 = Self::node_mbr(&children[i].1).expect("non-empty child");
                Outcome::Done
            }
            Outcome::Reinsert(items) => {
                children[i].0 = Self::node_mbr(&children[i].1).expect("non-empty child");
                Outcome::Reinsert(items)
            }
            Outcome::Split(right_mbr, right) => {
                children[i].0 = Self::node_mbr(&children[i].1).expect("non-empty child");
                children.push((right_mbr, right));
                if children.len() > max {
                    if !is_root && !reinserted[node_level] {
                        reinserted[node_level] = true;
                        let p = ((max as f64) * REINSERT_FRACTION).ceil() as usize;
                        let evicted: Vec<Pending<T>> = Self::pick_reinsert(children, p)
                            .into_iter()
                            .map(|(r, sub)| Pending::Subtree(r, sub, node_level))
                            .collect();
                        return Outcome::Reinsert(evicted);
                    }
                    let right = Self::split_entries(children, min);
                    let mbr = right
                        .iter()
                        .map(|(r, _)| r.clone())
                        .reduce(|a, b| a.bounding_union(&b))
                        .expect("non-empty split");
                    return Outcome::Split(mbr, Node::Internal(right));
                }
                Outcome::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[usize]) -> Region {
        Region::point(coords).unwrap()
    }

    #[test]
    fn insert_and_search_points() {
        let mut t = RStarTree::new(4);
        for x in 0..20usize {
            for y in 0..20usize {
                if (x + y) % 3 == 0 {
                    t.insert(pt(&[x, y]), (x, y));
                }
            }
        }
        t.check_invariants().unwrap();
        let q = Region::from_bounds(&[(5, 9), (5, 9)]).unwrap();
        let mut found: Vec<(usize, usize)> = t.search(&q).iter().map(|(_, v)| **v).collect();
        found.sort_unstable();
        let mut expected = Vec::new();
        for x in 5..=9 {
            for y in 5..=9 {
                if (x + y) % 3 == 0 {
                    expected.push((x, y));
                }
            }
        }
        assert_eq!(found, expected);
    }

    #[test]
    fn search_rectangles_by_intersection() {
        let mut t = RStarTree::new(4);
        t.insert(Region::from_bounds(&[(0, 9), (0, 9)]).unwrap(), "a");
        t.insert(Region::from_bounds(&[(20, 29), (20, 29)]).unwrap(), "b");
        t.insert(Region::from_bounds(&[(5, 24), (5, 24)]).unwrap(), "c");
        let q = Region::from_bounds(&[(8, 10), (8, 10)]).unwrap();
        let mut hits: Vec<&str> = t.search(&q).iter().map(|(_, v)| **v).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec!["a", "c"]);
    }

    #[test]
    fn grows_beyond_one_level_with_invariants() {
        let mut t = RStarTree::new(5);
        for i in 0..500usize {
            let x = (i * 37) % 100;
            let y = (i * 61) % 100;
            t.insert(pt(&[x, y]), i);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3);
        t.check_invariants().unwrap();
        // Every entry is findable.
        let all = t.search(&Region::from_bounds(&[(0, 99), (0, 99)]).unwrap());
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let mut t = RStarTree::new(4);
        for x in 0..10usize {
            t.insert(pt(&[x, x]), x);
        }
        let q = Region::from_bounds(&[(50, 60), (0, 9)]).unwrap();
        assert!(t.search(&q).is_empty());
    }

    #[test]
    fn search_counts_node_accesses() {
        let mut t = RStarTree::new(4);
        for x in 0..200usize {
            t.insert(pt(&[x]), x);
        }
        let mut out = Vec::new();
        let q = Region::from_bounds(&[(10, 12)]).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.search_into(&q, &mut out, ctx)).unwrap();
        assert_eq!(out.len(), 3);
        // A small window must not scan the whole tree.
        assert!(stats.tree_nodes < 30, "visited {}", stats.tree_nodes);
    }

    #[test]
    fn clustered_data_stays_balanced() {
        let mut t = RStarTree::new(6);
        // Three dense clusters plus scattered noise.
        let mut n = 0;
        for cluster in [(100usize, 100usize), (500, 500), (900, 100)] {
            for dx in 0..12usize {
                for dy in 0..12usize {
                    t.insert(pt(&[cluster.0 + dx, cluster.1 + dy]), n);
                    n += 1;
                }
            }
        }
        for i in 0..50usize {
            t.insert(pt(&[(i * 97) % 1000, (i * 13) % 1000]), n + i);
        }
        t.check_invariants().unwrap();
        // Querying one cluster visits few nodes.
        let mut out = Vec::new();
        let q = Region::from_bounds(&[(100, 111), (100, 111)]).unwrap();
        let (_, stats) = QueryCtx::measure(|ctx| t.search_into(&q, &mut out, ctx)).unwrap();
        assert_eq!(out.len(), 144);
        assert!(stats.tree_nodes < 80);
    }

    #[test]
    fn for_each_visits_everything() {
        let mut t = RStarTree::new(4);
        for i in 0..77usize {
            t.insert(pt(&[i, 76 - i]), i);
        }
        let mut seen = 0usize;
        t.for_each(|_, _| seen += 1);
        assert_eq!(seen, 77);
    }
}
