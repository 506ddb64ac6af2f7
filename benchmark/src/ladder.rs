//! The traced run: sampled ops pushed through every rung of the stack in
//! turn, each call timed from outside the layer it enters.
//!
//! Rungs, bottom to top: kernel → `engine.index` → `engine.router` →
//! `engine.cache` → `server`. A `*_tax_ns` is a rung's median minus the
//! median of the rung beneath it on the same ops, so the clock's own cost
//! cancels. The rungs take turns over a few rounds and each op keeps its
//! fastest execution per rung: a slow spell of the machine would
//! otherwise land on one rung and show up as a tax, or a negative one,
//! on its neighbours. The update rungs follow the read rungs. The
//! program's own `TraceSink` stays off: every span here is recorded by
//! the harness.

use crate::alloc;
use crate::json::Json;
use crate::oracle::{naive_max, naive_sum};
use crate::stats::{median, percentile, self_times};
use crate::workload::{
    build_lib, build_router, shard_engines, Batch, EngineSpec, Kind, LibStack, StackSpec, Workload,
    CACHE_ENTRIES,
};
use olap_array::{DenseArray, Region};
use olap_engine::{EngineError, PrefixChoice, RangeEngine, SumTreeEngine, VersionCell};
use olap_prefix_sum::batch::{apply_batch, CellUpdate};
use olap_prefix_sum::{BlockedPrefixCube, PrefixSumCube};
use olap_query::{Answer, EngineKind, QueryOutcome, RangeQuery};
use olap_range_max::{NaturalMaxTree, PointUpdate};
use olap_server::{CubeServer, ServerAnswer, ServerError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads sampled from the workload's stream.
const SAMPLE: usize = 2048;
/// Range-max ops added when the sample holds none.
const EXTRA_MAX: usize = 512;
/// Update batches pushed through each update rung.
const UPDATE_BATCHES: usize = 32;
/// Rounds in which the read rungs take turns; each op keeps its fastest
/// execution per rung.
const ROUNDS: usize = 5;
/// Sums re-read after the update rungs, per structure.
const RECHECK: usize = 64;
/// Chain rungs, bottom to top.
pub const RUNGS: [&str; 5] = [
    "kernel",
    "engine.index",
    "engine.router",
    "engine.cache",
    "server",
];

struct LadderOp {
    kind: Kind,
    region: Region,
    query: RangeQuery,
    truth: i64,
}

/// What one timed call returned.
#[derive(Default)]
struct Out {
    value: Option<i64>,
    /// Where an extremum was reported.
    at: Option<Vec<usize>>,
    /// Elements accessed (the §8 proxy), where the layer reports it.
    cost: u64,
    /// Answered from the semantic cache.
    cached: bool,
    /// Shards that contributed, on the server rung.
    shards: usize,
}

impl Out {
    fn value(value: Option<i64>) -> Out {
        Out {
            value,
            ..Out::default()
        }
    }

    fn engine(outcome: Result<QueryOutcome<i64>, EngineError>) -> Out {
        let Ok(o) = outcome else {
            return Out::default();
        };
        Out {
            value: o.value().copied(),
            cost: o.cost(),
            cached: o.answered_by == EngineKind::SemanticCache,
            at: match o.answer {
                Answer::Extremum { at, .. } => Some(at),
                _ => None,
            },
            shards: 0,
        }
    }

    fn server(answer: Result<ServerAnswer, ServerError>) -> Out {
        match answer {
            Ok(a) if !a.is_degraded() => Out {
                value: Some(a.value),
                at: a.at,
                cost: a.cost,
                cached: false,
                shards: a.shards,
            },
            _ => Out::default(),
        }
    }
}

/// One timed pass of a rung over a list of ops. Buffers are allocated
/// up front so a counted pass sees only the layer's own allocations.
struct Pass {
    /// `(start, end)` in ns since the ladder's origin, one per op.
    times: Vec<(u64, u64)>,
    outs: Vec<Out>,
}

impl Pass {
    fn with_capacity(n: usize) -> Pass {
        Pass {
            times: Vec::with_capacity(n),
            outs: Vec::with_capacity(n),
        }
    }

    fn fill(&mut self, origin: Instant, ops: &[&LadderOp], mut f: impl FnMut(&LadderOp) -> Out) {
        for op in ops {
            let start = origin.elapsed();
            let out = f(op);
            let end = origin.elapsed();
            self.times
                .push((start.as_nanos() as u64, end.as_nanos() as u64));
            self.outs.push(out);
        }
    }

    /// Op by op, keeps whichever of `self` and `other` ran it faster.
    fn keep_faster(&mut self, other: Pass) {
        if self.times.is_empty() {
            *self = other;
            return;
        }
        let slots = self.times.iter_mut().zip(&mut self.outs);
        for ((time, out), (new_time, new_out)) in slots.zip(other.times.into_iter().zip(other.outs))
        {
            if new_time.1 - new_time.0 < time.1 - time.0 {
                (*time, *out) = (new_time, new_out);
            }
        }
    }

    /// Latencies in ns of the ops `keep` selects, ascending.
    fn ns(&self, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        let mut ns: Vec<u32> = (0..self.times.len())
            .filter(|&i| keep(i))
            .map(|i| (self.times[i].1 - self.times[i].0).min(u64::from(u32::MAX)) as u32)
            .collect();
        ns.sort_unstable();
        ns
    }

    fn p50(&self, keep: impl Fn(usize) -> bool) -> f64 {
        percentile(&self.ns(keep), 0.5)
    }
}

/// One recorded call into a layer. Spans of one op share `trace_id`;
/// `parent` names the span of the rung above (0 for the root). Each rung
/// executes the op afresh, so a child's interval lies outside its
/// parent's in wall time: the link carries the layering, and a layer's
/// self time is its duration minus its child's.
pub struct Span {
    pub trace_id: u32,
    pub span_id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Median per rung of the chain, bottom to top, for one op kind.
pub struct Chain {
    pub kind: &'static str,
    pub p50_ns: Vec<f64>,
}

impl Chain {
    pub fn self_ns(&self) -> Vec<f64> {
        self_times(&self.p50_ns)
    }
}

pub struct Report {
    /// Every per-layer metric the ladder measures, by name.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub ops: usize,
    pub chains: Vec<Chain>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn trace_json(&self, workload: &str, seed: u64) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", num(seed)),
            ("ops", num(self.ops as u64)),
            (
                "chains",
                Json::Arr(
                    self.chains
                        .iter()
                        .map(|c| {
                            let floats =
                                |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
                            Json::obj([
                                ("kind", Json::str(c.kind)),
                                (
                                    "rungs",
                                    Json::Arr(RUNGS.iter().map(|r| Json::str(*r)).collect()),
                                ),
                                ("p50_ns", floats(&c.p50_ns)),
                                ("self_ns", floats(&c.self_ns())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("trace_id", num(u64::from(s.trace_id))),
                                ("span_id", num(u64::from(s.span_id))),
                                ("parent", num(u64::from(s.parent))),
                                ("name", Json::str(s.name)),
                                ("start_ns", num(s.start_ns)),
                                ("end_ns", num(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Builds with `f` three times and returns the last build with the
/// median build time in ms.
fn build_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    let mut ms = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("built three times"), median(&mut ms))
}

/// Median time of `f` over `batches`, in µs; `before_each` runs untimed
/// ahead of every batch. An `f` that returns `false` counts in `failed`.
fn update_us(
    batches: &[Batch],
    mut f: impl FnMut(&Batch) -> bool,
    mut before_each: impl FnMut(),
    failed: &mut u64,
) -> f64 {
    let mut us: Vec<f64> = batches
        .iter()
        .map(|b| {
            before_each();
            let t = Instant::now();
            let ok = f(b);
            let dt = t.elapsed();
            *failed += u64::from(!ok);
            dt.as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// Checks a pass against the oracle after its clock has stopped: the
/// value, and for an extremum that the reported cell lies in the region
/// and holds that value. Returns `(attempted, failed)`.
fn check(ops: &[&LadderOp], outs: &[Out], cube: &DenseArray<i64>) -> (u64, u64) {
    let failed = ops
        .iter()
        .zip(outs)
        .filter(|(op, out)| {
            let at_wrong = out
                .at
                .as_ref()
                .is_some_and(|at| !op.region.contains(at) || *cube.get(at) != op.truth);
            out.value != Some(op.truth) || at_wrong
        })
        .count();
    (ops.len() as u64, failed as u64)
}

/// Allocations per `range_sum` op, exactly, in a pass of its own: the
/// counter's two atomics per allocation stay out of the timed passes.
/// Every op runs, so a stateful layer sees the sequence it was timed on.
fn sum_allocs(ops: &[&LadderOp], mut f: impl FnMut(&LadderOp) -> Out) -> f64 {
    let (mut allocs, mut sums) = (0u64, 0u64);
    alloc::counting(true);
    for op in ops {
        let before = alloc::allocs();
        drop(black_box(f(op)));
        if op.kind == Kind::Sum {
            allocs += alloc::allocs() - before;
            sums += 1;
        }
    }
    alloc::counting(false);
    allocs as f64 / sums.max(1) as f64
}

struct Ladder {
    origin: Instant,
    metrics: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
}

/// Runs the whole ladder for `w`.
pub fn run(w: &Workload, seed: u64, clients: usize) -> Report {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1add_e500_0000_0000);
    let mut ops: Vec<LadderOp> = (0..SAMPLE)
        .map(|_| {
            let read = w.main.stream[rng.random_range(0..w.main.stream.len())];
            let region = w.main.region(read).clone();
            LadderOp {
                kind: read.kind,
                query: RangeQuery::from_region(&region),
                region,
                truth: 0,
            }
        })
        .collect();
    if ops.iter().all(|op| op.kind == Kind::Sum) {
        let extra: Vec<LadderOp> = ops[..EXTRA_MAX]
            .iter()
            .map(|op| LadderOp {
                kind: Kind::Max,
                region: op.region.clone(),
                query: op.query.clone(),
                truth: 0,
            })
            .collect();
        ops.extend(extra);
    }
    for op in &mut ops {
        op.truth = match op.kind {
            Kind::Sum => naive_sum(&w.cube, &op.region),
            Kind::Max => naive_max(&w.cube, &op.region),
        };
    }
    let mut ladder = Ladder {
        origin: Instant::now(),
        metrics: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let chains = ladder.climb(w, &ops, clients);
    Report {
        metrics: ladder.metrics,
        attempted: ladder.attempted,
        failed: ladder.failed,
        ops: ops.len(),
        chains,
        spans: ladder.spans,
    }
}

fn span_id(n: usize, slot: usize, i: usize) -> u32 {
    (1 + n * (1 + slot) + i) as u32
}

impl Ladder {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn tally(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One timed and checked pass of `f` over `ops`, kept in `best` op by
    /// op where it was the faster execution so far. The rungs take turns
    /// over [`ROUNDS`] rounds, so a slow spell of the machine that covers
    /// one pass of a rung rarely covers them all.
    fn timed(
        &mut self,
        best: &mut Pass,
        ops: &[&LadderOp],
        cube: &DenseArray<i64>,
        f: impl FnMut(&LadderOp) -> Out,
    ) {
        let mut pass = Pass::with_capacity(ops.len());
        pass.fill(self.origin, ops, f);
        self.tally(check(ops, &pass.outs, cube));
        best.keep_faster(pass);
    }

    /// Turns the best pass of a chain rung into spans.
    fn record(&mut self, slot: usize, pass: &Pass) {
        let n = pass.times.len();
        self.spans.extend(
            pass.times
                .iter()
                .enumerate()
                .map(|(i, &(start_ns, end_ns))| Span {
                    trace_id: i as u32,
                    span_id: span_id(n, slot, i),
                    parent: span_id(n, slot + 1, i),
                    name: RUNGS[slot],
                    start_ns,
                    end_ns,
                }),
        );
    }

    fn climb(&mut self, w: &Workload, ops: &[LadderOp], clients: usize) -> Vec<Chain> {
        let cube = &w.cube;
        let engines = match &w.spec {
            StackSpec::Lib(engines) => engines.clone(),
            StackSpec::Served(_) => shard_engines(),
        };
        let index_spec = *engines
            .iter()
            .find(|e| matches!(e, EngineSpec::Index(_)))
            .expect("every stack has a CubeIndex");
        let (block, blocked_chain) = match index_spec {
            EngineSpec::Index(c) => match c.prefix {
                PrefixChoice::Blocked(b) => (b, true),
                _ => (16, false),
            },
            _ => (16, false),
        };
        let all: Vec<&LadderOp> = ops.iter().collect();
        let sums: Vec<&LadderOp> = ops.iter().filter(|op| op.kind == Kind::Sum).collect();
        let tail: Vec<&LadderOp> = sums.iter().rev().take(CACHE_ENTRIES / 2).copied().collect();
        let sum = |i: usize| ops[i].kind == Kind::Sum;
        let max = |i: usize| ops[i].kind == Kind::Max;
        let n = ops.len();

        // Every structure is built once, up front.
        let (mut prefix, ms) = build_ms(|| PrefixSumCube::build(cube));
        self.put("prefix_sum.build_ms", ms);
        let blocked = BlockedPrefixCube::build(cube, block).expect("blocked prefix builds");
        let (mut tree, ms) =
            build_ms(|| NaturalMaxTree::for_values(cube, 4).expect("max tree builds"));
        self.put("range_max.build_ms", ms);
        let (_, ms) = build_ms(|| SumTreeEngine::build(cube.clone(), 4).expect("sum tree builds"));
        self.put("tree_sum.build_ms", ms);
        let mut index: Box<dyn RangeEngine<i64>> = index_spec.build(cube);
        let router = Arc::new(build_router(&engines, cube));
        let (server, ms) =
            build_ms(|| CubeServer::build(cube, w.serve_config()).expect("server builds"));
        self.put("server.build_ms", ms);
        let telemetry = Arc::new(olap_telemetry::Telemetry::new());

        // What each rung calls. The chain's sum kernel is the one the
        // stack's index uses; both sum kernels also get passes of their
        // own over the sums alone.
        let prefix_sum = |op: &LadderOp| Out::value(prefix.range_sum(&op.region).ok());
        let blocked_sum = |op: &LadderOp| Out::value(blocked.range_sum(cube, &op.region).ok());
        let kernel = |op: &LadderOp| match (op.kind, blocked_chain) {
            (Kind::Max, _) => match tree.range_max(cube, &op.region) {
                Ok((at, v)) => Out {
                    value: Some(v),
                    at: Some(at),
                    ..Out::default()
                },
                Err(_) => Out::default(),
            },
            (Kind::Sum, false) => prefix_sum(op),
            (Kind::Sum, true) => blocked_sum(op),
        };
        let indexed = |op: &LadderOp| {
            Out::engine(match op.kind {
                Kind::Sum => index.range_sum(&op.query),
                Kind::Max => index.range_max(&op.query),
            })
        };
        let routed = |op: &LadderOp| {
            Out::engine(match op.kind {
                Kind::Sum => router.range_sum(&op.query),
                Kind::Max => router.range_max(&op.query),
            })
        };
        // A cold cache over a warm router, so a pass over it shows the
        // workload's own hit rate.
        let cold_cache = || {
            let cache = build_lib(&engines, cube);
            for op in ops {
                black_box(cache.backend().range_sum(&op.query).is_ok());
            }
            cache
        };
        let through = |cache: &LibStack, op: &LadderOp| {
            Out::engine(match op.kind {
                Kind::Sum => cache.range_sum(&op.query),
                Kind::Max => cache.range_max(&op.query),
            })
        };
        let served = |op: &LadderOp| {
            Out::server(match op.kind {
                Kind::Sum => server.range_sum(&op.query),
                Kind::Max => server.range_max(&op.query),
            })
        };
        // The server rung runs with the workload's client count, every
        // client pushing every op from its own point of the list.
        let origin = self.origin;
        let serve_pass = |timed: bool| -> Vec<Pass> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (all, served) = (&all, &served);
                        scope.spawn(move || {
                            let mut mine = all.clone();
                            mine.rotate_left(c * n / clients);
                            let mut pass = Pass::with_capacity(n);
                            if timed {
                                pass.fill(origin, &mine, served);
                                // Back to list order: index i is op i.
                                pass.times.rotate_right(c * n / clients);
                                pass.outs.rotate_right(c * n / clients);
                            } else {
                                mine.iter().for_each(|op| drop(black_box(served(op))));
                            }
                            pass
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("server client"))
                    .collect()
            })
        };

        // Warm passes; the server's also samples its queue depth, here
        // only, so the sampler does not compete with a timed pass.
        for op in &all {
            black_box((kernel(op), indexed(op), routed(op)));
        }
        for op in &sums {
            black_box((prefix_sum(op), blocked_sum(op)));
        }
        let warming = AtomicBool::new(true);
        let depth_max = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut depth_max = 0i64;
                while warming.load(SeqCst) {
                    let depth = server.shard_stats().iter().map(|s| s.queue_depth).max();
                    depth_max = depth_max.max(depth.unwrap_or(0));
                    std::thread::sleep(Duration::from_micros(100));
                }
                depth_max
            });
            serve_pass(false);
            warming.store(false, SeqCst);
            sampler.join().expect("depth sampler")
        });

        let empty = || Pass::with_capacity(0);
        let mut chain = [empty(), empty(), empty(), empty()];
        let (mut prefix_side, mut blocked_side) = (empty(), empty());
        let (mut scoped, mut again) = (empty(), empty());
        let mut served_best: Vec<Pass> = (0..clients).map(|_| empty()).collect();
        let mut cache_stats = None;
        for _ in 0..ROUNDS {
            self.timed(&mut chain[0], &all, cube, kernel);
            self.timed(&mut prefix_side, &sums, cube, prefix_sum);
            self.timed(&mut blocked_side, &sums, cube, blocked_sum);
            self.timed(&mut chain[1], &all, cube, indexed);
            self.timed(&mut chain[2], &all, cube, routed);
            olap_telemetry::with_scope(&telemetry, || self.timed(&mut scoped, &all, cube, routed));
            let cache = cold_cache();
            let before = cache.stats();
            self.timed(&mut chain[3], &all, cube, |op| through(&cache, op));
            // The same hits and misses every round: the first will do.
            cache_stats.get_or_insert((before, cache.stats()));
            // The tail of the pass again: it is resident, so all hits.
            self.timed(&mut again, &tail, cube, |op| through(&cache, op));
            for (best, pass) in served_best.iter_mut().zip(serve_pass(true)) {
                self.tally(check(&all, &pass.outs, cube));
                best.keep_faster(pass);
            }
        }
        let [kernel_pass, index_pass, router_pass, cache_pass] = &chain;
        for (slot, pass) in chain.iter().enumerate() {
            self.record(slot, pass);
        }
        let mut sum_chain: Vec<f64> = chain.iter().map(|p| p.p50(sum)).collect();
        let mut max_chain: Vec<f64> = chain.iter().map(|p| p.p50(max)).collect();
        let (index_sum_ns, router_sum_ns, cache_sum_ns) =
            (sum_chain[1], sum_chain[2], sum_chain[3]);

        self.put("prefix_sum.sum_ns", prefix_side.p50(|_| true));
        self.put("prefix_sum.allocs_per_op", sum_allocs(&sums, prefix_sum));
        self.put("prefix_sum.blocked_sum_ns", blocked_side.p50(|_| true));
        self.put("range_max.max_ns", kernel_pass.p50(max));

        self.put("engine.index.sum_ns", index_sum_ns);
        self.put("engine.index.max_ns", index_pass.p50(max));
        self.put("engine.index.allocs_per_op", sum_allocs(&all, indexed));
        let accesses: u64 = index_pass.outs.iter().map(|o| o.cost).sum();
        self.put("engine.index.accesses_per_op", accesses as f64 / n as f64);

        // planner: one cost estimate per candidate engine per op.
        {
            let candidates: Vec<Box<dyn RangeEngine<i64>>> =
                engines.iter().map(|e| e.build(cube)).collect();
            let mut ns = Vec::with_capacity(n * candidates.len());
            for op in ops {
                for engine in &candidates {
                    let t = Instant::now();
                    black_box(engine.estimate(black_box(&op.query)));
                    ns.push(t.elapsed().as_nanos() as u32);
                }
            }
            ns.sort_unstable();
            self.put("planner.estimate_ns", percentile(&ns, 0.5));
        }

        self.put("engine.router.sum_ns", router_sum_ns);
        self.put("engine.router.max_ns", router_pass.p50(max));
        self.put("engine.router.tax_ns", router_sum_ns - index_sum_ns);
        self.put("engine.router.allocs_per_op", sum_allocs(&all, routed));
        self.put("telemetry.active_tax", scoped.p50(sum) / router_sum_ns);

        let (before, after) = cache_stats.expect("at least one round");
        let lookups = (after.lookups() - before.lookups()).max(1) as f64;
        let hits = (after.hits - before.hits) + (after.assemblies - before.assemblies);
        self.put("engine.cache.hit_rate", hits as f64 / lookups);
        self.put(
            "engine.cache.evictions_per_op",
            (after.evictions - before.evictions) as f64 / lookups,
        );
        self.put(
            "engine.cache.assemblies_per_kop",
            (after.assemblies - before.assemblies) as f64 * 1e3 / lookups,
        );
        let cache = cold_cache();
        self.put(
            "engine.cache.allocs_per_op",
            sum_allocs(&all, |op| through(&cache, op)),
        );
        let mut hit_ns = cache_pass.ns(|i| sum(i) && cache_pass.outs[i].cached);
        hit_ns.extend(again.ns(|i| again.outs[i].cached));
        hit_ns.sort_unstable();
        self.put("engine.cache.hit_ns", percentile(&hit_ns, 0.5));
        let miss_ns = cache_pass.p50(|i| sum(i) && !cache_pass.outs[i].cached);
        self.put("engine.cache.miss_tax_ns", miss_ns - router_sum_ns);

        for (c, pass) in served_best.iter().enumerate() {
            // Client 0 carries the chain; the others hang off the root.
            let slot = if c == 0 {
                RUNGS.len() - 1
            } else {
                RUNGS.len() + c
            };
            for (i, &(start_ns, end_ns)) in pass.times.iter().enumerate() {
                let root = 1 + i as u32;
                if c == 0 {
                    self.spans.push(Span {
                        trace_id: i as u32,
                        span_id: root,
                        parent: 0,
                        name: "op",
                        start_ns,
                        end_ns,
                    });
                }
                self.spans.push(Span {
                    trace_id: i as u32,
                    span_id: span_id(n, slot, i),
                    parent: root,
                    name: RUNGS[RUNGS.len() - 1],
                    start_ns,
                    end_ns,
                });
            }
        }
        let merged = |keep: &dyn Fn(usize, &Out) -> bool| {
            let mut ns: Vec<u32> = served_best
                .iter()
                .flat_map(|p| p.ns(|i| keep(i, &p.outs[i])))
                .collect();
            ns.sort_unstable();
            ns
        };
        let server_sum_ns = percentile(&merged(&|i, _| sum(i)), 0.5);
        let server_max_ns = percentile(&merged(&|i, _| max(i)), 0.5);
        let all_ns = percentile(&merged(&|_, _| true), 0.5);
        // A fan-out class the sample does not reach reads as the overall
        // median rather than as nothing.
        let or_all = |ns: Vec<u32>| {
            if ns.is_empty() {
                all_ns
            } else {
                percentile(&ns, 0.5)
            }
        };
        self.put("server.tax_us", (server_sum_ns - cache_sum_ns) / 1e3);
        self.put(
            "server.fanout1_p50_us",
            or_all(merged(&|_, o| o.shards == 1)) / 1e3,
        );
        self.put(
            "server.fanoutN_p50_us",
            or_all(merged(&|_, o| o.shards > 1)) / 1e3,
        );
        let shards: usize = served_best
            .iter()
            .flat_map(|p| &p.outs)
            .map(|o| o.shards)
            .sum();
        self.put("server.shards_per_op", shards as f64 / (n * clients) as f64);
        self.put("server.queue_depth_max", depth_max as f64);
        self.put("server.allocs_per_op", sum_allocs(&all, served));
        sum_chain.push(server_sum_ns);
        max_chain.push(server_max_ns);

        // Update rungs: the same batches through each layer's own update
        // entry point, every structure starting from the pristine cube.
        let batches = &w.batches[..UPDATE_BATCHES];
        let mut failed = 0u64;
        let mut current = cube.clone();
        let us = update_us(
            batches,
            |batch| {
                // Deltas against the running cube; a later set to a cell
                // in the same batch sees the earlier one.
                let cells: Vec<CellUpdate<i64>> = batch
                    .iter()
                    .map(|(idx, v)| CellUpdate::new(idx, v - current.replace(idx, *v)))
                    .collect();
                apply_batch(&mut prefix, &cells).is_ok()
            },
            || (),
            &mut failed,
        );
        self.put("prefix_sum.batch_update_us", us);
        let mut tree_cube = cube.clone();
        let us = update_us(
            batches,
            |batch| {
                let points: Vec<PointUpdate<i64>> = batch
                    .iter()
                    .map(|(idx, v)| PointUpdate::new(idx, *v))
                    .collect();
                tree.batch_update(&mut tree_cube, &points).is_ok()
            },
            || (),
            &mut failed,
        );
        self.put("range_max.update_us", us);
        let us = update_us(
            batches,
            |batch| match index.apply_updates(batch) {
                Ok(derived) => {
                    index = derived.engine;
                    true
                }
                Err(_) => false,
            },
            || (),
            &mut failed,
        );
        self.put("engine.index.derive_us", us);
        let cell = VersionCell::new(index_spec.build(cube));
        let us = update_us(
            batches,
            |batch| cell.update(batch).is_ok(),
            || (),
            &mut failed,
        );
        self.put("engine.version.install_us", us);
        let us = update_us(
            batches,
            |batch| router.apply_updates(batch).is_ok(),
            || (),
            &mut failed,
        );
        self.put("engine.router.update_us", us);
        // The cache is refilled, untimed, before each batch so an install
        // has entries to invalidate or re-stamp.
        let before = cache.stats();
        let us = update_us(
            batches,
            |batch| cache.apply_updates(batch).is_ok(),
            || {
                for op in sums.iter().take(CACHE_ENTRIES) {
                    black_box(cache.range_sum(&op.query).is_ok());
                }
            },
            &mut failed,
        );
        self.put("engine.cache.update_us", us);
        let invalidations = cache.stats().invalidations - before.invalidations;
        self.put(
            "engine.cache.invalidations_per_update",
            invalidations as f64 / batches.len() as f64,
        );
        let us = update_us(
            batches,
            |batch| server.apply_updates(batch).is_ok(),
            || (),
            &mut failed,
        );
        self.put("server.update_us", us);
        self.tally((7 * batches.len() as u64, failed));

        // Every updated structure must now answer for the updated cube.
        for op in &ops[..RECHECK] {
            let answers: [Option<i64>; 6] = match op.kind {
                Kind::Sum => [
                    prefix.range_sum(&op.region).ok(),
                    Out::engine(index.range_sum(&op.query)).value,
                    Out::engine(cell.load().engine().range_sum(&op.query)).value,
                    Out::engine(router.range_sum(&op.query)).value,
                    Out::engine(cache.range_sum(&op.query)).value,
                    Out::server(server.range_sum(&op.query)).value,
                ],
                Kind::Max => [
                    tree.range_max(&tree_cube, &op.region).ok().map(|(_, v)| v),
                    Out::engine(index.range_max(&op.query)).value,
                    Out::engine(cell.load().engine().range_max(&op.query)).value,
                    Out::engine(router.range_max(&op.query)).value,
                    Out::engine(cache.range_max(&op.query)).value,
                    Out::server(server.range_max(&op.query)).value,
                ],
            };
            let truth = match op.kind {
                Kind::Sum => naive_sum(&current, &op.region),
                Kind::Max => naive_max(&current, &op.region),
            };
            let wrong = answers.iter().filter(|&&a| a != Some(truth)).count();
            self.tally((answers.len() as u64, wrong as u64));
        }

        vec![
            Chain {
                kind: "range_sum",
                p50_ns: sum_chain,
            },
            Chain {
                kind: "range_max",
                p50_ns: max_chain,
            },
        ]
    }
}

/// Median cost in ns of reading the clock twice around nothing.
pub fn clock_overhead_ns() -> f64 {
    let mut ns: Vec<u32> = (0..10_000)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as u32
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5)
}
