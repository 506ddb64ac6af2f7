//! Readers that scale with cores: the cheap served reads on one thread
//! and on two threads that share one stack.
//!
//! ```text
//! cargo run --release --example readers_scale            # 100 ms per pass
//! cargo run --release --example readers_scale -- 1500    # 1.5 s per pass
//! ```
//!
//! On a 512² cube under a basic prefix-sum index (Theorem 1: a sum reads
//! 2^d = 4 prefix cells), it times two reads over a pool of uniform
//! regions:
//!
//! - **routed sum**: `AdaptiveRouter::read`, which pins the engine set
//!   and routes to the index,
//! - **cache hit**: `SemanticCache::read` on a region every reading
//!   thread has already looked up.
//!
//! Each is run for a fixed time on one thread, then on two threads at
//! once; the best of three passes is kept. It prints ns per op (for two
//! threads, the aggregate: wall time over the ops of both) and the
//! throughput ratio, two threads over one. A read that writes only its
//! own thread's cache lines approaches 2× on two free cores; one that
//! writes a line every reader shares falls below 1×. Nothing is asserted
//! about timing: the figures belong to the machine that ran them.

use olap_cube::array::{Region, Shape};
use olap_cube::engine::{AdaptiveRouter, CubeIndex, EngineOp, IndexConfig, SemanticCache};
use olap_cube::workload::{uniform_cube, uniform_regions};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Regions in the pool each reader cycles through.
const POOL: usize = 1024;

/// Passes per cell; the best one is reported.
const PASSES: usize = 3;

type Stack = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

/// Runs `read` over the pool on `threads` threads at once for `span`,
/// and returns the aggregate ns per op.
fn pass(
    threads: usize,
    span: Duration,
    regions: &[Region],
    read: &(dyn Fn(&Region) + Sync),
) -> f64 {
    let start = Barrier::new(threads + 1);
    let (ops, elapsed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    // A thread reads its whole pool once before timing, so
                    // a cache hit is a hit in its own table.
                    regions.iter().for_each(read);
                    start.wait();
                    let until = Instant::now() + span;
                    let mut ops = 0u64;
                    let mut i = t * regions.len() / threads;
                    while Instant::now() < until {
                        for _ in 0..64 {
                            read(&regions[i % regions.len()]);
                            i += 1;
                        }
                        ops += 64;
                    }
                    ops
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let ops: u64 = workers.into_iter().map(|w| w.join().expect("reader")).sum();
        (ops, t0.elapsed())
    });
    elapsed.as_nanos() as f64 / ops as f64
}

/// Best-of-`PASSES` ns per op on one thread and on two.
fn cell(span: Duration, regions: &[Region], read: &(dyn Fn(&Region) + Sync)) -> (f64, f64) {
    let best = |threads| {
        (0..PASSES)
            .map(|_| pass(threads, span, regions, read))
            .fold(f64::INFINITY, f64::min)
    };
    (best(1), best(2))
}

fn main() {
    let span = Duration::from_millis(
        std::env::args()
            .nth(1)
            .map(|ms| ms.parse().expect("pass length in ms"))
            .unwrap_or(100),
    );
    let cube = uniform_cube(Shape::new(&[512, 512]).expect("valid shape"), 1000, 1);
    let regions = uniform_regions(cube.shape(), POOL, 2);
    let router = AdaptiveRouter::new().with_engine(Box::new(
        CubeIndex::build(cube, IndexConfig::default()).expect("index builds"),
    ));
    let stack: Stack = SemanticCache::new(Arc::new(router), 2 * POOL);

    let routed = |r: &Region| {
        black_box(
            stack
                .backend()
                .read(black_box(r), EngineOp::Sum)
                .expect("routed sum"),
        );
    };
    let hit = |r: &Region| {
        black_box(stack.read(black_box(r), EngineOp::Sum).expect("cached sum"));
    };
    println!("512x512 cube, {POOL}-region pool, best of {PASSES} passes of {span:?}");
    println!(
        "{:<12} {:>14} {:>22} {:>10}",
        "read", "1 thread ns/op", "2 threads agg. ns/op", "2 / 1"
    );
    for (name, read) in [
        ("routed sum", &routed as &(dyn Fn(&Region) + Sync)),
        ("cache hit", &hit),
    ] {
        let (one, two) = cell(span, &regions, read);
        println!("{name:<12} {one:>14.1} {two:>22.1} {:>9.2}x", one / two);
    }
    let stats = stack.stats();
    println!(
        "cache: {} hits, {} misses, {} entries",
        stats.hits, stats.misses, stats.entries
    );
}
