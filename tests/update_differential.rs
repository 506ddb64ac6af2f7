//! Differential test of the update path over the engine set the perf
//! ledger's `lib_tax_2d` workload serves (`shard_engines()` in
//! `benchmark/src/workload.rs`): `CubeIndex` (default config) +
//! `SumTreeEngine` (fanout 4) + `NaiveEngine` behind an `AdaptiveRouter`,
//! all holding one shared base cube the way a server shard's engines do.
//! A server shard (`olap_server`'s `build_shard`) registers only the
//! index and the naive scan; the sum tree stays here so its path-walk
//! derive is checked too.
//!
//! After every `router.apply_updates` each engine must answer exactly like
//! a stack freshly built over the post-batch cube, every engine must hold
//! the *same* post-batch cube (`Arc::ptr_eq`: the batch copied the cube
//! once, not once per engine), a reader that pinned the pre-batch engines
//! must keep getting pre-batch answers, and a batch with an invalid index
//! must change nothing. One more pass sends the same batches through a
//! `SemanticCache` in front of the stack, over regions that repeat, and
//! checks every answer — hits included — against a fresh build.

use olap_cube::array::{CellRead, DenseArray, PagedArray, Shape};
use olap_cube::engine::{
    AdaptiveRouter, CubeIndex, EngineOp, EngineStatus, FaultPlan, FaultyEngine, IndexConfig,
    NaiveEngine, RangeEngine, SemanticCache, SumTreeEngine,
};
use olap_cube::query::RangeQuery;
use olap_cube::server::{CubeServer, ServeConfig, ServerAnswer, ServerError};
use olap_cube::workload::{uniform_cube, uniform_regions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

type Engine = Arc<dyn RangeEngine<i64>>;
type Batch = Vec<(Vec<usize>, i64)>;

/// The ledger's library shard stack over one shared base. `plans[i]`
/// fault-wraps precomputed engine `i`; the naive failover anchor is never
/// wrapped.
fn shard_stack(base: &Arc<PagedArray<i64>>, plans: [Option<FaultPlan>; 2]) -> AdaptiveRouter<i64> {
    let precomputed: [Box<dyn RangeEngine<i64>>; 2] = [
        Box::new(CubeIndex::build(Arc::clone(base), IndexConfig::default()).unwrap()),
        Box::new(SumTreeEngine::build(Arc::clone(base), 4).unwrap()),
    ];
    let router = AdaptiveRouter::labeled("shard-0");
    for (engine, plan) in precomputed.into_iter().zip(plans) {
        match plan {
            Some(plan) => router.push(Box::new(FaultyEngine::new(engine, plan))),
            None => router.push(engine),
        }
    }
    router.push(Box::new(NaiveEngine::new(Arc::clone(base))));
    router
}

fn engines(router: &AdaptiveRouter<i64>) -> Vec<Engine> {
    (0..router.len()).map(|i| router.engine(i)).collect()
}

/// `[sum, max, min]` per query, `None` where the engine does not serve
/// the op (it has no price for it).
fn answers(engine: &Engine, queries: &[RangeQuery]) -> Vec<[Option<i64>; 3]> {
    let everything = engine.shape().full_region();
    queries
        .iter()
        .map(|q| {
            [EngineOp::Sum, EngineOp::Max, EngineOp::Min].map(|op| {
                engine.cost(&everything, op)?;
                let out = match op {
                    EngineOp::Sum => engine.range_sum(q),
                    EngineOp::Max => engine.range_max(q),
                    EngineOp::Min => engine.range_min(q),
                };
                Some(*out.unwrap().value().unwrap())
            })
        })
        .collect()
}

fn base_of(engine: &Engine) -> &Arc<PagedArray<i64>> {
    engine.base().expect("every shard engine exposes its base")
}

/// A batch with everything the update path special-cases: random sets, a
/// repeated cell (last value wins), a no-op set (new = old) and a
/// decrease of the current maximum.
fn hostile_batch(cube: &DenseArray<i64>, rng: &mut StdRng) -> Batch {
    let shape = cube.shape();
    let random_cell = |rng: &mut StdRng| -> Vec<usize> {
        shape
            .dims()
            .iter()
            .map(|&n| rng.random_range(0..n))
            .collect()
    };
    let mut batch: Batch = (0..rng.random_range(1..6usize))
        .map(|_| (random_cell(rng), rng.random_range(-500i64..500)))
        .collect();
    let repeated = batch[0].0.clone();
    batch.push((repeated, rng.random_range(-500i64..500)));
    let unchanged = random_cell(rng);
    let current = *cube.get(&unchanged);
    batch.push((unchanged, current));
    let (argmax, max) = cube
        .as_slice()
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(flat, &v)| (shape.unflatten(flat), v))
        .unwrap();
    batch.push((argmax, max - 1000));
    batch
}

fn apply_to(cube: &mut DenseArray<i64>, batch: &Batch) {
    for (idx, v) in batch {
        *cube.get_mut(idx) = *v;
    }
}

/// Drives `rounds` hostile batches (and one invalid batch per round)
/// through `router`, checking the whole contract after each.
fn drive(router: &AdaptiveRouter<i64>, start: &DenseArray<i64>, rounds: u64, seed: u64) {
    let shape = start.shape().clone();
    let mut shadow = start.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let queries: Vec<RangeQuery> = uniform_regions(&shape, 12, seed * 100 + round)
            .iter()
            .map(RangeQuery::from_region)
            .collect();
        let pinned = engines(router);
        let pinned_answers: Vec<_> = pinned.iter().map(|e| answers(e, &queries)).collect();
        let pre_base = Arc::clone(base_of(&pinned[0]));
        let epoch = router.epoch();

        // An out-of-bounds index anywhere in the batch: nothing changes.
        let mut invalid = hostile_batch(&shadow, &mut rng);
        invalid.push((shape.dims().to_vec(), 1));
        assert!(router.apply_updates(&invalid).is_err());
        assert_eq!(router.epoch(), epoch, "an invalid batch must not install");
        for (now, then) in engines(router).iter().zip(&pinned) {
            assert!(Arc::ptr_eq(now, then));
        }

        let batch = hostile_batch(&shadow, &mut rng);
        router.apply_updates(&batch).unwrap();
        apply_to(&mut shadow, &batch);
        assert_eq!(router.epoch(), epoch + 1);

        // Every engine ≡ a fresh build over the post-batch cube.
        let fresh = shard_stack(&shadow.clone().into(), [None, None]);
        let current = engines(router);
        for (derived, rebuilt) in current.iter().zip(&engines(&fresh)) {
            assert_eq!(
                answers(derived, &queries),
                answers(rebuilt, &queries),
                "{} d={} round {round}",
                derived.label(),
                shape.ndim()
            );
        }
        // One post-batch cube, shared by all, and it is the right one.
        let post_base = base_of(&current[0]);
        assert_eq!(post_base.to_dense().as_slice(), shadow.as_slice());
        assert!(!Arc::ptr_eq(post_base, &pre_base));
        for e in &current {
            assert!(Arc::ptr_eq(base_of(e), post_base), "{}", e.label());
        }
        // The pinned pre-batch snapshot is untouched.
        for (e, before) in pinned.iter().zip(&pinned_answers) {
            assert!(Arc::ptr_eq(base_of(e), &pre_base));
            assert_eq!(&answers(e, &queries), before, "{} (pinned)", e.label());
        }
    }
}

fn cube_of(dims: &[usize], seed: u64) -> DenseArray<i64> {
    uniform_cube(Shape::new(dims).unwrap(), 1000, seed)
}

const SHAPES: [&[usize]; 4] = [&[97], &[23, 19], &[9, 8, 7], &[5, 6, 4, 5]];

#[test]
fn shard_stack_updates_equal_a_fresh_build_and_share_one_cube() {
    for (d, dims) in SHAPES.iter().enumerate() {
        let cube = cube_of(dims, 40 + d as u64);
        let router = shard_stack(&cube.clone().into(), [None, None]);
        drive(&router, &cube, 4, 7 + d as u64);
    }
}

/// The served path under installs, min included: a 2-shard and a
/// 4-shard `CubeServer` take the same hostile batches, and after each one
/// every sum, max and min equals a fresh server's over the post-batch
/// cube, and each argmax and argmin lies in its region and holds the
/// value returned.
#[test]
fn served_sums_maxes_and_mins_equal_a_fresh_build_across_installs() {
    type Read = fn(&CubeServer, &RangeQuery) -> Result<ServerAnswer, ServerError>;
    let reads: [(&str, Read); 3] = [
        ("sum", CubeServer::range_sum),
        ("max", CubeServer::range_max),
        ("min", CubeServer::range_min),
    ];
    let config = |shards| ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    for (d, dims) in SHAPES.iter().enumerate() {
        let cube = cube_of(dims, 80 + d as u64);
        let shape = cube.shape().clone();
        let servers = [2, 4].map(|k| CubeServer::build(&cube, config(k)).unwrap());
        let mut shadow = cube.clone();
        let mut rng = StdRng::seed_from_u64(81 + d as u64);
        for round in 0..4 {
            let batch = hostile_batch(&shadow, &mut rng);
            for server in &servers {
                server.apply_updates(&batch).unwrap();
            }
            apply_to(&mut shadow, &batch);
            let regions = uniform_regions(&shape, 12, 820 + 10 * d as u64 + round);
            for server in &servers {
                let fresh = CubeServer::build(&shadow, config(server.shards())).unwrap();
                for region in &regions {
                    let q = RangeQuery::from_region(region);
                    for (op, read) in reads {
                        let at =
                            format!("{op} {region} on {} shards, round {round}", server.shards());
                        let got = read(server, &q).unwrap();
                        assert!(!got.is_degraded(), "{at}");
                        assert_eq!(got.value, read(&fresh, &q).unwrap().value, "{at}");
                        if op == "sum" {
                            continue;
                        }
                        let arg = got.at.as_ref().expect("an extremum has its cell");
                        assert!(region.contains(arg), "{at}: {arg:?}");
                        assert_eq!(*shadow.get(arg), got.value, "{at}: {arg:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn cached_stack_answers_equal_a_fresh_build_and_hit() {
    for (d, dims) in SHAPES.iter().enumerate() {
        let cube = cube_of(dims, 40 + d as u64);
        let shape = cube.shape().clone();
        let cache = SemanticCache::new(shard_stack(&cube.clone().into(), [None, None]), 64);
        let queries: Vec<RangeQuery> = uniform_regions(&shape, 8, 90 + d as u64)
            .iter()
            .map(RangeQuery::from_region)
            .collect();
        let mut shadow = cube.clone();
        // The seed and draw order of `drive` in the shard-stack test above,
        // so these are the same batches.
        let mut rng = StdRng::seed_from_u64(7 + d as u64);
        for round in 0..4 {
            let fresh = shard_stack(&shadow.clone().into(), [None, None]);
            // Twice over: the first pass re-inserts what the last install
            // dropped, the second hits every region.
            for q in queries.iter().chain(&queries) {
                let got = cache.range_sum(q).unwrap();
                let want = fresh.range_sum(q).unwrap();
                assert_eq!(
                    got.value(),
                    want.value(),
                    "{q:?} via {} d={} round {round}",
                    got.answered_by,
                    shape.ndim()
                );
            }
            let mut invalid = hostile_batch(&shadow, &mut rng);
            invalid.push((shape.dims().to_vec(), 1));
            assert!(cache.apply_updates(&invalid).is_err());
            let batch = hostile_batch(&shadow, &mut rng);
            cache.apply_updates(&batch).unwrap();
            apply_to(&mut shadow, &batch);
        }
        assert!(
            cache.stats().hits > 0,
            "d={} {:?}",
            shape.ndim(),
            cache.stats()
        );
    }
}

#[test]
fn fault_wrapped_stack_forwards_the_shared_base() {
    // Benign wrappers: `FaultyEngine` must forward `base()` and
    // `derive_onto`, or the wrapped engines would each copy the cube.
    let benign = Some(FaultPlan::benign());
    for (d, dims) in SHAPES.iter().enumerate() {
        let cube = cube_of(dims, 50 + d as u64);
        let router = shard_stack(&cube.clone().into(), [benign, benign]);
        drive(&router, &cube, 2, 11 + d as u64);
    }
}

#[test]
fn a_poisoned_engine_is_carried_forward_with_its_old_base() {
    let cube = cube_of(&[23, 19], 60);
    let base: Arc<PagedArray<i64>> = cube.clone().into();
    // The index lies cheapest and panics on its first query.
    let bomb = FaultPlan {
        panic_call: Some(0),
        lie_cheapest: true,
        ..FaultPlan::benign()
    };
    let router = shard_stack(&base, [Some(bomb), None]);
    let everything = RangeQuery::from_region(&cube.shape().full_region());
    let total: i64 = cube.as_slice().iter().sum();
    assert_eq!(router.range_sum(&everything).unwrap().value(), Some(&total));
    assert_eq!(router.health()[0].status, EngineStatus::Poisoned);

    let mut shadow = cube.clone();
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..3 {
        let poisoned_before = router.engine(0);
        let batch = hostile_batch(&shadow, &mut rng);
        router.apply_updates(&batch).unwrap();
        apply_to(&mut shadow, &batch);
        let current = engines(&router);
        // The poisoned engine was not entered: same allocation, old base.
        assert!(Arc::ptr_eq(&current[0], &poisoned_before));
        assert!(Arc::ptr_eq(base_of(&current[0]), &base));
        // The image came from the first *healthy* engine; both healthy
        // engines share it.
        assert_eq!(
            base_of(&current[1]).to_dense().as_slice(),
            shadow.as_slice()
        );
        assert!(Arc::ptr_eq(base_of(&current[1]), base_of(&current[2])));
        // Routed answers are the post-batch oracle's.
        let total: i64 = shadow.as_slice().iter().sum();
        assert_eq!(router.range_sum(&everything).unwrap().value(), Some(&total));
        let max = *shadow.as_slice().iter().max().unwrap();
        assert_eq!(router.range_max(&everything).unwrap().value(), Some(&max));
    }
}

#[test]
fn engines_built_from_their_own_clones_stay_self_consistent() {
    // Not the shard stack: each engine owns a separate copy of the cube,
    // so none may adopt an image derived from another's base.
    let cube = cube_of(&[23, 19], 70);
    let router = AdaptiveRouter::new()
        .with_engine(Box::new(
            CubeIndex::build(cube.clone(), IndexConfig::default()).unwrap(),
        ))
        .with_engine(Box::new(SumTreeEngine::build(cube.clone(), 4).unwrap()))
        .with_engine(Box::new(NaiveEngine::new(cube.clone())));
    let mut shadow = cube.clone();
    let mut rng = StdRng::seed_from_u64(71);
    let queries: Vec<RangeQuery> = uniform_regions(cube.shape(), 12, 72)
        .iter()
        .map(RangeQuery::from_region)
        .collect();
    for _ in 0..3 {
        let batch = hostile_batch(&shadow, &mut rng);
        router.apply_updates(&batch).unwrap();
        apply_to(&mut shadow, &batch);
        let fresh = shard_stack(&shadow.clone().into(), [None, None]);
        for (derived, rebuilt) in engines(&router).iter().zip(&engines(&fresh)) {
            assert_eq!(answers(derived, &queries), answers(rebuilt, &queries));
            assert_eq!(base_of(derived).to_dense().as_slice(), shadow.as_slice());
        }
    }
}
