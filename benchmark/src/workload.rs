//! The four workloads: each is a seeded cube, the stack it is served by,
//! and the op streams its clients cycle through. Everything the program
//! under test receives is generated here from `--seed`.

use olap_array::{DenseArray, Region, Shape};
use olap_engine::{
    AdaptiveRouter, CacheStats, CubeIndex, IndexConfig, NaiveEngine, PrefixChoice, RangeEngine,
    SemanticCache, SumTreeEngine,
};
use olap_query::RangeQuery;
use olap_server::{CubeServer, ServeConfig};
use olap_workload::{sided_regions, uniform_cube, uniform_regions, zipf_regions, InsuranceCube};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// One `apply_updates` batch of absolute sets.
pub type Batch = Vec<(Vec<usize>, i64)>;

/// Entries in the semantic cache of a library stack; `ServeConfig::default`
/// gives each shard the same.
pub const CACHE_ENTRIES: usize = 256;
/// Cells per update batch.
const BATCH_CELLS: usize = 4;
/// Client 0 replaces every this-many-th op with an update batch.
const UPDATE_EVERY: u64 = 64;
/// Regions per kind a probe phase reads, and how often its client 0
/// writes.
const PROBE_POOL: usize = 512;
const PROBE_UPDATE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sum,
    Max,
}
use Kind::{Max, Sum};

/// One read of the stream: the `idx`-th region of its kind's pool.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub kind: Kind,
    pub idx: u32,
}

/// A region pool per kind and the stream of reads over them that every
/// client cycles through, plus how often client 0 writes.
#[derive(Clone)]
pub struct Phase {
    pub sum_pool: Vec<Region>,
    pub max_pool: Vec<Region>,
    pub sum_q: Vec<RangeQuery>,
    pub max_q: Vec<RangeQuery>,
    pub stream: Vec<Read>,
    pub update_every: Option<u64>,
}

impl Phase {
    /// `mix` repeats over the stream; the n-th read of a kind takes the
    /// n-th region of that kind's pool, wrapping.
    fn new(
        sum_pool: Vec<Region>,
        max_pool: Vec<Region>,
        mix: [Kind; 4],
        len: usize,
        update_every: Option<u64>,
    ) -> Phase {
        let (mut sums, mut maxes) = (0usize, 0usize);
        let stream = (0..len)
            .map(|i| match mix[i % 4] {
                Sum => {
                    sums += 1;
                    Read {
                        kind: Sum,
                        idx: ((sums - 1) % sum_pool.len()) as u32,
                    }
                }
                Max => {
                    maxes += 1;
                    Read {
                        kind: Max,
                        idx: ((maxes - 1) % max_pool.len()) as u32,
                    }
                }
            })
            .collect();
        Phase {
            sum_q: sum_pool.iter().map(RangeQuery::from_region).collect(),
            max_q: max_pool.iter().map(RangeQuery::from_region).collect(),
            sum_pool,
            max_pool,
            stream,
            update_every,
        }
    }

    /// The same reads with no client writing.
    pub fn without_writes(&self) -> Phase {
        Phase {
            update_every: None,
            ..self.clone()
        }
    }

    pub fn region(&self, read: Read) -> &Region {
        match read.kind {
            Sum => &self.sum_pool[read.idx as usize],
            Max => &self.max_pool[read.idx as usize],
        }
    }
}

/// An engine a library stack registers with its router.
#[derive(Debug, Clone, Copy)]
pub enum EngineSpec {
    Index(IndexConfig),
    SumTree(usize),
    Naive,
}

impl EngineSpec {
    pub fn build(&self, cube: &DenseArray<i64>) -> Box<dyn RangeEngine<i64>> {
        match *self {
            EngineSpec::Index(config) => {
                Box::new(CubeIndex::build(cube.clone(), config).expect("index builds"))
            }
            EngineSpec::SumTree(fanout) => {
                Box::new(SumTreeEngine::build(cube.clone(), fanout).expect("sum tree builds"))
            }
            EngineSpec::Naive => Box::new(NaiveEngine::new(cube.clone())),
        }
    }
}

/// What serves a workload: a library stack on the caller's thread, or
/// the sharded server.
#[derive(Debug, Clone)]
pub enum StackSpec {
    Lib(Vec<EngineSpec>),
    Served(ServeConfig),
}

/// What a server shard assembles (`build_shard`), as a library stack.
pub fn shard_engines() -> Vec<EngineSpec> {
    vec![
        EngineSpec::Index(IndexConfig::default()),
        EngineSpec::SumTree(4),
        EngineSpec::Naive,
    ]
}

pub type LibStack = SemanticCache<i64, Arc<AdaptiveRouter<i64>>>;

pub fn build_router(engines: &[EngineSpec], cube: &DenseArray<i64>) -> AdaptiveRouter<i64> {
    engines.iter().fold(AdaptiveRouter::new(), |router, e| {
        router.with_engine(e.build(cube))
    })
}

pub fn build_lib(engines: &[EngineSpec], cube: &DenseArray<i64>) -> LibStack {
    SemanticCache::new(Arc::new(build_router(engines, cube)), CACHE_ENTRIES)
}

/// A built stack. Every op returns `None`/`false` on an error, which the
/// verifier then counts as a failed op.
pub enum Stack {
    Lib(LibStack),
    Served(CubeServer),
}

impl Stack {
    pub fn build(spec: &StackSpec, cube: &DenseArray<i64>) -> Stack {
        match spec {
            StackSpec::Lib(engines) => Stack::Lib(build_lib(engines, cube)),
            StackSpec::Served(config) => {
                Stack::Served(CubeServer::build(cube, config.clone()).expect("server builds"))
            }
        }
    }

    #[inline]
    pub fn read(&self, kind: Kind, q: &RangeQuery) -> Option<i64> {
        match (self, kind) {
            (Stack::Lib(cache), Sum) => cache.range_sum(q).ok()?.value().copied(),
            (Stack::Lib(cache), Max) => cache.range_max(q).ok()?.value().copied(),
            // A degraded answer is an estimate, not the exact value.
            (Stack::Served(srv), Sum) => srv
                .range_sum(q)
                .ok()
                .filter(|a| !a.is_degraded())
                .map(|a| a.value),
            (Stack::Served(srv), Max) => srv
                .range_max(q)
                .ok()
                .filter(|a| !a.is_degraded())
                .map(|a| a.value),
        }
    }

    pub fn update(&self, batch: &Batch) -> bool {
        match self {
            Stack::Lib(cache) => cache.apply_updates(batch).is_ok(),
            Stack::Served(srv) => srv.apply_updates(batch).is_ok(),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Stack::Lib(cache) => cache.stats(),
            Stack::Served(srv) => srv.cache_stats(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub cube: DenseArray<i64>,
    pub spec: StackSpec,
    pub clients: usize,
    /// The workload's own mix.
    pub main: Phase,
    /// A phase run in short slices between the timed windows, issuing
    /// the op kinds `main` lacks so that `max_p50_us` and `update_p50_us`
    /// are defined on every workload. `None` when `main` has them all.
    pub probe: Option<Phase>,
    /// The probe's batches: each batch of `batches` followed by one that
    /// sets the same cells back, so an even number of them leaves the
    /// cube, and with it `main`'s oracle, as it was.
    pub probe_batches: Vec<Batch>,
    /// Update batches, cycled. The cells of a batch share their leading
    /// coordinate, so a batch lands in one shard however the server
    /// slabs the cube and is atomic across the whole server.
    pub batches: Vec<Batch>,
}

/// Closed-loop clients of a served workload. One unpinned client is
/// bimodal (see README), so a served workload never runs with fewer than
/// the cores allow, up to 4.
pub fn served_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
}

fn gen_batches(shape: &Shape, count: usize, seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let row = rng.random_range(0..shape.dim(0));
            (0..BATCH_CELLS)
                .map(|_| {
                    let mut idx: Vec<usize> = shape
                        .dims()
                        .iter()
                        .map(|&n| rng.random_range(0..n))
                        .collect();
                    idx[0] = row;
                    (idx, rng.random_range(0..=1000i64))
                })
                .collect()
        })
        .collect()
}

/// The slabs of a `shards`-way server that `region` spans, as the first
/// one and how many: slab `i` holds rows `⌊i·n₀/k⌋ .. ⌊(i+1)·n₀/k⌋` of
/// the leading axis.
fn slabs(region: &Region, n0: usize, shards: usize) -> (usize, usize) {
    let slab = |row: usize| {
        (0..shards)
            .position(|i| row < (i + 1) * n0 / shards)
            .expect("row in cube")
    };
    let first = slab(region.range(0).lo());
    (first, slab(region.range(0).hi()) - first + 1)
}

/// `(first slab, slabs spanned)` of the Zipf pool's regions by rank,
/// repeating. The eight entries hold each span in the share uniform
/// regions have it over four slabs (2, 3, 2 and 1 eighths), placed so
/// the hot ranks do not pile onto one shard.
const ZIPF_SLABS: [(usize, usize); 8] = [
    (0, 2),
    (2, 1),
    (1, 3),
    (2, 2),
    (0, 4),
    (3, 1),
    (1, 2),
    (0, 3),
];

/// The stream `zipf_regions` draws, over a pool whose rank-`r` region
/// spans the slabs `ZIPF_SLABS[r % 8]`. The hottest few regions carry
/// most of a Zipf stream; left to the seed, the shards they happen to
/// span, and share, move the cost of an op by a quarter from one seed to
/// the next.
fn zipf_stream(shape: &Shape, shards: usize, seed: u64) -> (Vec<Region>, Vec<Read>) {
    assert_eq!(shards, 4, "ZIPF_SLABS is laid out for four shards");
    let drawn = zipf_regions(shape, 8192, 64, 1.1, seed);
    let mut distinct: Vec<&Region> = Vec::new();
    let mut stream = Vec::with_capacity(drawn.len());
    let mut counts: Vec<usize> = Vec::new();
    for r in &drawn {
        let idx = distinct.iter().position(|d| *d == r).unwrap_or_else(|| {
            distinct.push(r);
            counts.push(0);
            distinct.len() - 1
        });
        counts[idx] += 1;
        stream.push(Read {
            kind: Sum,
            idx: idx as u32,
        });
    }
    // Hottest first; ties keep their order of first appearance.
    let mut by_rank: Vec<usize> = (0..distinct.len()).collect();
    by_rank.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let mut candidates = uniform_regions(shape, 1 << 14, seed ^ 0x5eed).into_iter();
    let mut pool: Vec<Region> = distinct.iter().map(|r| (*r).clone()).collect();
    for (rank, &idx) in by_rank.iter().enumerate() {
        let want = ZIPF_SLABS[rank % ZIPF_SLABS.len()];
        pool[idx] = candidates
            .by_ref()
            .find(|c| slabs(c, shape.dim(0), shards) == want && !pool.contains(c))
            .expect("the candidates hold every span many times over");
    }
    (pool, stream)
}

/// A probe over the head of `main`'s pools: mostly range-max, with a sum
/// every fourth read so the sum path is checked after installs too.
fn probe_of(main: &Phase) -> Phase {
    let head = |pool: &[Region]| pool[..pool.len().min(PROBE_POOL)].to_vec();
    let sums = head(&main.sum_pool);
    let maxes = if main.max_pool.is_empty() {
        sums.clone()
    } else {
        head(&main.max_pool)
    };
    Phase::new(
        sums,
        maxes,
        [Max, Max, Max, Sum],
        4 * PROBE_POOL,
        Some(PROBE_UPDATE_EVERY),
    )
}

impl Workload {
    /// The server configuration of a served workload; the default one
    /// for a library workload, whose stack is what a default shard holds.
    pub fn serve_config(&self) -> ServeConfig {
        match &self.spec {
            StackSpec::Served(config) => config.clone(),
            StackSpec::Lib(_) => ServeConfig::default(),
        }
    }

    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let s = |stream| sub_seed(seed, stream);
        let shape = |dims: &[usize]| Shape::new(dims).expect("static dims");
        let mut w = match name {
            "lib_tax_2d" => {
                let cube = uniform_cube(shape(&[512, 512]), 1000, s(0));
                // 32x the cache capacity, so every lookup misses and evicts.
                let pool = uniform_regions(cube.shape(), 8192, s(1));
                Workload {
                    name: "lib_tax_2d",
                    spec: StackSpec::Lib(shard_engines()),
                    clients: 1,
                    main: Phase::new(pool, vec![], [Sum; 4], 8192, None),
                    probe: None,
                    probe_batches: vec![],
                    batches: vec![],
                    cube,
                }
            }
            "lib_kernel_2d" => {
                // An 8 MB base cube: it does not fit L2.
                let cube = uniform_cube(shape(&[1024, 1024]), 1000, s(0));
                let sums = sided_regions(cube.shape(), 256, 4096, s(1));
                let maxes = uniform_regions(cube.shape(), 4096, s(2));
                let index = IndexConfig {
                    prefix: PrefixChoice::Blocked(16),
                    ..IndexConfig::default()
                };
                Workload {
                    name: "lib_kernel_2d",
                    spec: StackSpec::Lib(vec![EngineSpec::Index(index), EngineSpec::Naive]),
                    clients: 1,
                    main: Phase::new(sums, maxes, [Sum, Sum, Sum, Max], 16384, None),
                    probe: None,
                    probe_batches: vec![],
                    batches: vec![],
                    cube,
                }
            }
            "served_zipf_2d" => {
                let cube = uniform_cube(shape(&[512, 512]), 1000, s(0));
                // A 64-region pool fits every shard's 256-entry cache.
                let config = ServeConfig::default();
                let (pool, stream) = zipf_stream(cube.shape(), config.shards, s(1));
                let mut main = Phase::new(pool, vec![], [Sum; 4], 0, None);
                main.stream = stream;
                Workload {
                    name: "served_zipf_2d",
                    spec: StackSpec::Served(config),
                    clients: served_clients(),
                    main,
                    probe: None,
                    probe_batches: vec![],
                    batches: vec![],
                    cube,
                }
            }
            "served_rw_4d" => {
                let cube = InsuranceCube::generate(s(0)).revenue;
                let pool = uniform_regions(cube.shape(), 512, s(1));
                Workload {
                    name: "served_rw_4d",
                    spec: StackSpec::Served(ServeConfig::default()),
                    clients: served_clients(),
                    main: Phase::new(
                        pool.clone(),
                        pool,
                        [Sum, Sum, Sum, Max],
                        2048,
                        Some(UPDATE_EVERY),
                    ),
                    probe: None,
                    probe_batches: vec![],
                    batches: vec![],
                    cube,
                }
            }
            _ => return None,
        };
        w.batches = gen_batches(w.cube.shape(), 4096, s(3));
        if w.main.update_every.is_none() || w.main.max_pool.is_empty() {
            w.probe = Some(probe_of(&w.main));
            w.probe_batches = w.batches[..64]
                .iter()
                .flat_map(|set| {
                    let restore = set
                        .iter()
                        .map(|(idx, _)| (idx.clone(), *w.cube.get(idx)))
                        .collect();
                    [set.clone(), restore]
                })
                .collect();
        }
        Some(w)
    }

    /// FNV-1a over everything generated from the seed: cube values, region
    /// pools, read streams and update sites. Equal seeds give equal
    /// hashes; it is recorded with every result.
    pub fn ops_hash(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for v in self.cube.as_slice() {
            h.word(*v as u64);
        }
        for phase in std::iter::once(&self.main).chain(&self.probe) {
            for r in phase.sum_pool.iter().chain(&phase.max_pool) {
                for range in r.ranges() {
                    h.word(range.lo() as u64);
                    h.word(range.hi() as u64);
                }
            }
            for read in &phase.stream {
                h.word(u64::from(read.idx) << 1 | (read.kind == Max) as u64);
            }
            h.word(phase.update_every.unwrap_or(0));
        }
        for (idx, v) in self.batches.iter().chain(&self.probe_batches).flatten() {
            for &i in idx {
                h.word(i as u64);
            }
            h.word(*v as u64);
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_hash_follows_the_seed() {
        for name in ["served_zipf_2d", "served_rw_4d"] {
            let a = Workload::generate(name, 1).unwrap().ops_hash();
            let b = Workload::generate(name, 1).unwrap().ops_hash();
            let c = Workload::generate(name, 2).unwrap().ops_hash();
            assert_eq!(a, b, "{name}: same seed, different stream");
            assert_ne!(a, c, "{name}: different seeds, same stream");
        }
    }

    #[test]
    fn streams_cover_their_pools_in_the_stated_mix() {
        let w = Workload::generate("served_rw_4d", 3).unwrap();
        let maxes = w.main.stream.iter().filter(|r| r.kind == Max).count();
        assert_eq!(maxes * 4, w.main.stream.len());
        let mut seen = vec![false; w.main.sum_pool.len()];
        for r in w.main.stream.iter().filter(|r| r.kind == Sum) {
            seen[r.idx as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(w.probe.is_none());
        for batch in &w.batches {
            assert_eq!(batch.len(), BATCH_CELLS);
            assert!(batch.iter().all(|(idx, _)| idx[0] == batch[0].0[0]));
        }
        let z = Workload::generate("served_zipf_2d", 3).unwrap();
        assert!(z.main.sum_pool.len() <= 64);
        assert_eq!(z.main.stream.len(), 8192);
        assert!(z.probe.is_some());
        // Every second probe batch undoes the one before it.
        let mut cube = z.cube.clone();
        for pair in z.probe_batches.chunks(2) {
            for (idx, v) in pair.iter().flatten() {
                cube.replace(idx, *v);
            }
            assert_eq!(cube.as_slice(), z.cube.as_slice());
        }
        assert_eq!(z.probe_batches.len(), 128);
    }
}
