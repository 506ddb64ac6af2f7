//! Allocation contracts of the semantic cache, counted exactly per read
//! on the calling thread, so neither a clock nor another test moves them:
//!
//! - a sum hit allocates nothing;
//! - a max or min hit allocates at most once: the `Vec` that
//!   `Answer::Extremum` carries its cell in;
//! - a miss the cache does not store allocates exactly what the same
//!   `AdaptiveRouter::read` does: turning a region away builds, clones
//!   and evicts nothing.
//!
//! Each count is taken after a warm-up pass over the same reads. The
//! counting allocator below is the only `unsafe` code here; the library
//! crates keep `forbid(unsafe_code)`.

use olap_cube::array::{DenseArray, Region, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, EngineOp, IndexConfig, NaiveEngine, SemanticCache,
};
use olap_cube::query::EngineKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to [`System`], counting each allocation on the thread that
/// makes it.
struct Counting;

thread_local! {
    /// Allocations this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A thread tearing down its locals is past every measured read.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to the same method
// of `System`, which upholds the `GlobalAlloc` contract; the count is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Entries per stripe table.
const CAP: usize = 8;

const OPS: [EngineOp; 3] = [EngineOp::Sum, EngineOp::Max, EngineOp::Min];

type Cache = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

/// A 64×64 cube behind the default index (prefix sums and max/min trees)
/// and the naive scan, and a cache of [`CAP`] entries per table over it.
fn stack() -> (Arc<AdaptiveRouter<i64>>, Cache) {
    let a = DenseArray::from_fn(Shape::new(&[64, 64]).unwrap(), |i| {
        ((i[0] * 7919 + i[1] * 104_729) % 1000) as i64
    });
    let router = Arc::new(
        AdaptiveRouter::new()
            .with_engine(Box::new(
                CubeIndex::build(a.clone(), IndexConfig::default()).unwrap(),
            ))
            .with_engine(Box::new(NaiveEngine::new(a))),
    );
    (Arc::clone(&router), SemanticCache::new(router, CAP))
}

/// The `k`-th of a run of distinct regions.
fn region(k: usize) -> Region {
    Region::from_bounds(&[(k % 64, 63), (k / 64, 40 + k % 24)]).unwrap()
}

#[test]
fn a_sum_hit_allocates_nothing_and_an_extremum_hit_only_its_cell() {
    let (_, cache) = stack();
    let regions: Vec<Region> = (0..CAP).map(region).collect();
    // Pass 0 stores every answer (the table has room for one entry per
    // region), pass 1 warms the hits, pass 2 is counted.
    for pass in 0..3 {
        for r in &regions {
            for op in OPS {
                let (out, allocs) = counted(|| cache.read(r, op).unwrap());
                assert_eq!(out.answered_by == EngineKind::SemanticCache, pass > 0);
                if pass == 2 {
                    let bound = u64::from(op != EngineOp::Sum);
                    assert!(allocs <= bound, "{op} hit made {allocs} allocations");
                }
            }
        }
    }
    assert_eq!(cache.stats().entries, CAP);
}

#[test]
fn a_miss_the_full_table_does_not_store_allocates_what_the_router_read_does() {
    let (router, cache) = stack();
    for k in 0..CAP {
        cache.read(&region(k), EngineOp::Sum).unwrap();
    }
    // Sixteen times the capacity in distinct regions, op by op: no region
    // comes round again before another has taken its recent-miss slot,
    // so none is admitted. Pass 0 warms up, pass 1 is counted.
    let stream: Vec<Region> = (CAP..17 * CAP).map(region).collect();
    for pass in 0..2 {
        for op in OPS {
            for r in &stream {
                let (cached, via_cache) = counted(|| cache.read(r, op).unwrap());
                let (direct, via_router) = counted(|| router.read(r, op).unwrap());
                assert_ne!(cached.answered_by, EngineKind::SemanticCache, "{op} {r}");
                assert_eq!(cached.answer, direct.answer, "{op} {r}");
                if pass == 1 {
                    assert_eq!(via_cache, via_router, "{op} {r}");
                }
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.insertions, stats.evictions),
        (CAP as u64, 0),
        "{stats:?}"
    );
}
