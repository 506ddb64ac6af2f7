//! Page-access simulation for the prefix-sum computation (§3.3).
//!
//! §3.3's implementation note: during each phase, "the order of `P_i`
//! elements visited should follow the natural order in storage as opposed
//! to following the dimension along which the prefix-sum is performed.
//! With such an implementation, each page of `P` will be paged in at most
//! twice for each phase."
//!
//! This module simulates both traversal orders against an LRU page cache
//! and counts the page faults, so the claim can be *measured*: the
//! `olap_bench::paper::paging` table, which the argument-free
//! `experiments` binary prints and checks in.

use olap_array::Shape;
use std::collections::HashMap;

/// Which order a phase visits the cells in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Row-major storage order with the scan interleaved (the paper's
    /// recommendation).
    Storage,
    /// Line by line along the scanned dimension (the naive order the
    /// paper warns against).
    Dimension,
}

/// A simple LRU page cache counting faults.
struct LruPages {
    capacity: usize,
    clock: u64,
    /// page id → last-touch clock.
    pages: HashMap<usize, u64>,
    faults: u64,
}

impl LruPages {
    fn new(capacity: usize) -> Self {
        LruPages {
            capacity,
            clock: 0,
            pages: HashMap::new(),
            faults: 0,
        }
    }

    fn touch(&mut self, page: usize) {
        self.clock += 1;
        if let std::collections::hash_map::Entry::Vacant(e) = self.pages.entry(page) {
            self.faults += 1;
            e.insert(self.clock);
            if self.pages.len() > self.capacity {
                // Evict the least recently used page.
                if let Some((&victim, _)) = self.pages.iter().min_by_key(|(_, &t)| t) {
                    self.pages.remove(&victim);
                }
            }
        } else {
            self.pages.insert(page, self.clock);
        }
    }
}

/// Simulates the d-phase prefix-sum computation over `shape`, returning
/// the total page faults under an LRU cache of `cache_pages` pages of
/// `page_size` cells each (a `page_size` of 0 counts as 1 and a
/// `cache_pages` below 2 as 2).
///
/// Only the access *pattern* is simulated (each combine reads the
/// predecessor cell along the phase's axis and reads+writes the current
/// cell); no values are computed.
pub fn simulate_build_faults(
    shape: &Shape,
    order: ScanOrder,
    page_size: usize,
    cache_pages: usize,
) -> u64 {
    // The simulation needs a non-empty page and room for two of them.
    let (page_size, cache_pages) = (page_size.max(1), cache_pages.max(2));
    let mut cache = LruPages::new(cache_pages);
    let mut touch = |flat: usize| cache.touch(flat / page_size);
    for (&n, &stride) in shape.dims().iter().zip(shape.strides()) {
        let slab = n * stride;
        match order {
            ScanOrder::Storage => {
                // Identical pattern to `DenseArray::scan_axis`: slabs in
                // order; within a slab, rows k = 1..n in storage order.
                let mut base = 0;
                while base < shape.len() {
                    for k in 1..n {
                        let row = base + k * stride;
                        for inner in 0..stride {
                            touch(row - stride + inner); // predecessor
                            touch(row + inner); // current (read + write)
                        }
                    }
                    base += slab;
                }
            }
            ScanOrder::Dimension => {
                // Whole lines along the axis, one at a time.
                let mut base = 0;
                while base < shape.len() {
                    for inner in 0..stride {
                        for k in 1..n {
                            let cur = base + k * stride + inner;
                            touch(cur - stride);
                            touch(cur);
                        }
                    }
                    base += slab;
                }
            }
        }
    }
    cache.faults
}

/// The §3.3 bound: pages of `P` × 2 page-ins per phase × `d` phases
/// (an upper bound for the storage-order traversal whenever the cache
/// holds at least two pages).
pub fn storage_order_bound(shape: &Shape, page_size: usize) -> u64 {
    let pages = shape.len().div_ceil(page_size) as u64;
    2 * pages * shape.ndim() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_order_meets_paper_bound() {
        for dims in [vec![64usize, 64], vec![16, 16, 16], vec![256, 8]] {
            let shape = Shape::new(&dims).unwrap();
            let faults = simulate_build_faults(&shape, ScanOrder::Storage, 64, 4);
            assert!(
                faults <= storage_order_bound(&shape, 64),
                "{dims:?}: {faults} > bound {}",
                storage_order_bound(&shape, 64)
            );
        }
    }

    #[test]
    fn dimension_order_thrashes_small_caches() {
        // Scanning along the slow axis strides across pages; a small cache
        // must fault far more than the storage order.
        let shape = Shape::new(&[128, 128]).unwrap();
        let storage = simulate_build_faults(&shape, ScanOrder::Storage, 64, 4);
        let dimension = simulate_build_faults(&shape, ScanOrder::Dimension, 64, 4);
        assert!(
            dimension > storage * 10,
            "dimension {dimension} vs storage {storage}"
        );
    }

    #[test]
    fn both_orders_equal_with_unbounded_cache() {
        // With a cache holding everything, both orders fault exactly once
        // per page.
        let shape = Shape::new(&[64, 64]).unwrap();
        let pages = shape.len().div_ceil(64);
        let storage = simulate_build_faults(&shape, ScanOrder::Storage, 64, pages + 1);
        let dimension = simulate_build_faults(&shape, ScanOrder::Dimension, 64, pages + 1);
        assert_eq!(storage, pages as u64);
        assert_eq!(dimension, pages as u64);
    }

    #[test]
    fn one_dimensional_orders_coincide() {
        let shape = Shape::new(&[4096]).unwrap();
        let a = simulate_build_faults(&shape, ScanOrder::Storage, 64, 2);
        let b = simulate_build_faults(&shape, ScanOrder::Dimension, 64, 2);
        assert_eq!(a, b);
    }
}
