//! Contracts of the update path that need no clock: bytes allocated per
//! batch, counted exactly on the calling thread, and snapshot answers
//! that no later batch moves.
//!
//! - One 4-cell batch through the perf ledger's `lib_kernel_2d` stack
//!   (`SemanticCache → AdaptiveRouter{CubeIndex Blocked(16), NaiveEngine}`,
//!   each engine built from its own clone of the cube) allocates at most
//!   the cube pages it writes, once per image, plus a copy of the index's
//!   `P` and max tree, plus 4 KiB for everything else. Each engine holds
//!   its own base, so there are two images: the router's, which the index
//!   adopts, and the one the naive engine derives for its own base. A
//!   batch that copied the cube would allocate twice the cube's bytes.
//! - A snapshot pinned before 64 batches answers every sum, max and min
//!   bit-identically after them: a successor copies a page before it
//!   writes it, and never writes one a snapshot still reads.
//!
//! The counting allocator below is the only `unsafe` code here; the
//! library crates keep `forbid(unsafe_code)`.

use olap_cube::array::{mix, DenseArray, PagedArray, Region, Shape, PAGE_LEN};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine, SemanticCache,
};
use olap_cube::query::RangeQuery;
use olap_cube::range_max::NaturalMaxTree;
use olap_cube::workload::{uniform_cube, uniform_regions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Forwards to [`System`], adding up the bytes each allocation on the
/// calling thread asks for.
struct Counting;

thread_local! {
    /// Bytes this thread has allocated; a reallocation counts what it
    /// grew by.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A thread tearing down its locals is past every measured batch.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method passes its arguments unchanged to the same method
// of `System`, which upholds the `GlobalAlloc` contract; the count is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the bytes it allocated on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

type Batch = Vec<(Vec<usize>, i64)>;

/// The index of the ledger's `lib_kernel_2d` stack.
const CONFIG: IndexConfig = IndexConfig {
    prefix: PrefixChoice::Blocked(16),
    max_tree_fanout: Some(4),
    min_tree_fanout: None,
};

/// The ledger's library stack: a cache over a shared router.
type Stack = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

/// The ledger's library stack over `cube`, each engine from its own
/// clone, and the router under the cache.
fn stack(cube: &DenseArray<i64>) -> (Stack, Arc<AdaptiveRouter<i64>>) {
    let router = Arc::new(
        AdaptiveRouter::new()
            .with_engine(Box::new(CubeIndex::build(cube.clone(), CONFIG).unwrap()))
            .with_engine(Box::new(NaiveEngine::new(cube.clone()))),
    );
    (SemanticCache::new(Arc::clone(&router), 256), router)
}

/// Batch `k` of a seeded stream: 4 cells anywhere in the cube.
fn batch(shape: &Shape, k: u64) -> Batch {
    (0..4u64)
        .map(|i| {
            let r = mix(k << 8 | i);
            let idx = shape
                .dims()
                .iter()
                .enumerate()
                .map(|(axis, &n)| (mix(r ^ axis as u64) % n as u64) as usize)
                .collect();
            (idx, (r % 2000) as i64 - 1000)
        })
        .collect()
}

#[test]
fn a_batch_allocates_the_pages_it_writes_not_the_cube() {
    let shape = Shape::new(&[256, 256]).unwrap();
    let cube = uniform_cube(shape.clone(), 1000, 48);
    let (cache, router) = stack(&cube);
    // A warm-up batch: whatever a first install sets up is not the
    // batch's cost.
    cache.apply_updates(&batch(&shape, 0)).unwrap();

    let cube_bytes = cube.len() * std::mem::size_of::<i64>();
    let page_bytes = PAGE_LEN * std::mem::size_of::<i64>();
    let p_bytes = shape.contract(16).unwrap().len() * std::mem::size_of::<i64>();
    // What one copy of the index's max tree allocates: a stored argmax
    // per node of every level, and the table of levels.
    let tree = NaturalMaxTree::for_values(&cube, 4).unwrap();
    let (_, tree_bytes) = counted(|| tree.clone());
    let tree_bytes = tree_bytes as usize;
    // One image per distinct base: the router derives one from the first
    // engine's base, and an engine holding another base derives its own.
    let mut bases: Vec<Arc<PagedArray<i64>>> = Vec::new();
    for i in 0..router.len() {
        if let Some(base) = router.engine(i).base() {
            if !bases.iter().any(|b| Arc::ptr_eq(b, base)) {
                bases.push(Arc::clone(base));
            }
        }
    }
    let images = bases.len();
    assert_eq!(images, 2, "each engine holds its own clone of the cube");
    drop(bases);
    for k in 1..=8 {
        let batch = batch(&shape, k);
        let pages: BTreeSet<usize> = batch
            .iter()
            .map(|(idx, _)| shape.flatten(idx) / PAGE_LEN)
            .collect();
        let (_, bytes) = counted(|| cache.apply_updates(&batch).unwrap());
        // The 4 KiB is the router's and the cache's bookkeeping: about
        // 70 small allocations (the install log, the successor set, the
        // derived engines' boxes and their `Arc`s, each page's `Arc`
        // header) that come to 3.7–3.9 KB per batch, so the worst of
        // these batches sits ≈ 230 B under the bound. A trip means a new
        // allocation on the update path (or a std change in how a
        // collection grows): list the batch's allocation sizes before
        // moving the bound.
        let bound = pages.len() * images * page_bytes + p_bytes + tree_bytes + 4096;
        assert!(
            bytes as usize <= bound,
            "batch {k}: {bytes} bytes allocated, bound {bound} ({} pages × {images} images × \
             {page_bytes} + P {p_bytes} + tree {tree_bytes} + 4096); the cube is {cube_bytes}",
            pages.len()
        );
    }
}

/// `[sum, max, min]` of `engine` over every region, `None` where it
/// serves no such op.
fn answers(engine: &Arc<dyn RangeEngine<i64>>, regions: &[Region]) -> Vec<[Option<i64>; 3]> {
    regions
        .iter()
        .map(|region| {
            let q = RangeQuery::from_region(region);
            [
                engine.range_sum(&q).ok().and_then(|o| o.value().copied()),
                engine.range_max(&q).ok().and_then(|o| o.value().copied()),
                engine.range_min(&q).ok().and_then(|o| o.value().copied()),
            ]
        })
        .collect()
}

/// The true `[sum, max, min]` over every region of `cube`.
fn oracle(cube: &DenseArray<i64>, regions: &[Region]) -> Vec<[Option<i64>; 3]> {
    regions
        .iter()
        .map(|r| {
            [
                Some(cube.fold_region(r, 0i64, |s, &x| s.wrapping_add(x))),
                Some(cube.fold_region(r, i64::MIN, |m, &x| m.max(x))),
                Some(cube.fold_region(r, i64::MAX, |m, &x| m.min(x))),
            ]
        })
        .collect()
}

#[test]
fn a_snapshot_pinned_before_64_batches_answers_as_it_did() {
    let shape = Shape::new(&[256, 256]).unwrap();
    let cube = uniform_cube(shape.clone(), 1000, 49);
    let (cache, router) = stack(&cube);
    let regions = uniform_regions(&shape, 32, 50);
    let pinned: Vec<Arc<dyn RangeEngine<i64>>> =
        (0..router.len()).map(|i| router.engine(i)).collect();
    let before = oracle(&cube, &regions);
    for engine in &pinned {
        assert_eq!(answers(engine, &regions), before, "{}", engine.label());
    }

    let mut shadow = cube.clone();
    for k in 1..=64 {
        let batch = batch(&shape, k);
        cache.apply_updates(&batch).unwrap();
        for (idx, v) in &batch {
            *shadow.get_mut(idx) = *v;
        }
    }
    for engine in &pinned {
        assert_eq!(
            answers(engine, &regions),
            before,
            "{} (pinned)",
            engine.label()
        );
    }
    // The stack itself moved on.
    let after = oracle(&shadow, &regions);
    assert_ne!(after, before);
    for i in 0..router.len() {
        let engine = router.engine(i);
        assert_eq!(answers(&engine, &regions), after, "{}", engine.label());
    }
}
