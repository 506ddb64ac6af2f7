//! End-to-end coverage of the sharded snapshot-isolated server: fan-out
//! correctness against the sequential oracle, global coordinate mapping,
//! update partitioning, concurrent pre-or-post isolation, chaos drills
//! over snapshot installs, and budget admission.

use olap_array::{DenseArray, QueryBudget, Region, Shape};
use olap_engine::{DegradeReason, FaultPlan};
use olap_query::RangeQuery;
use olap_server::{drive_load, CubeServer, LoadSpec, ServeConfig, ServerError};
use olap_workload::{uniform_cube, uniform_regions};

fn cube(dims: &[usize], seed: u64) -> DenseArray<i64> {
    uniform_cube(Shape::new(dims).unwrap(), 1000, seed)
}

fn server(a: &DenseArray<i64>, shards: usize) -> CubeServer {
    CubeServer::build(
        a,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn naive_sum(a: &DenseArray<i64>, r: &Region) -> i64 {
    a.fold_region(r, 0i64, |s, &x| s + x)
}

fn naive_max(a: &DenseArray<i64>, r: &Region) -> i64 {
    a.fold_region(r, i64::MIN, |m, &x| m.max(x))
}

fn naive_min(a: &DenseArray<i64>, r: &Region) -> i64 {
    a.fold_region(r, i64::MAX, |m, &x| m.min(x))
}

#[test]
fn sharded_sums_match_the_sequential_oracle() {
    let a = cube(&[32, 16], 11);
    let srv = server(&a, 4);
    assert_eq!(srv.shards(), 4);
    for r in uniform_regions(a.shape(), 60, 3) {
        let got = srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
        assert_eq!(got.value, naive_sum(&a, &r), "{r}");
        assert!(got.shards >= 1 && got.shards <= 4);
    }
}

#[test]
fn extrema_map_argmax_back_to_global_coordinates() {
    let a = cube(&[30, 12, 5], 17);
    let srv = server(&a, 5);
    for r in uniform_regions(a.shape(), 40, 5) {
        let max = srv.range_max(&RangeQuery::from_region(&r)).unwrap();
        assert_eq!(max.value, naive_max(&a, &r), "{r}");
        let at = max.at.expect("max carries argmax");
        assert!(r.contains(&at), "argmax {at:?} outside {r}");
        assert_eq!(*a.get(&at), max.value);

        let min = srv.range_min(&RangeQuery::from_region(&r)).unwrap();
        assert_eq!(min.value, naive_min(&a, &r), "{r}");
        let at = min.at.expect("min carries argmin");
        assert!(r.contains(&at), "argmin {at:?} outside {r}");
        assert_eq!(*a.get(&at), min.value);
    }
}

#[test]
fn single_row_cube_clamps_shard_count() {
    let a = cube(&[1, 40], 23);
    let srv = server(&a, 8);
    assert_eq!(srv.shards(), 1);
    let all = Region::from_bounds(&[(0, 0), (0, 39)]).unwrap();
    let got = srv.range_sum(&RangeQuery::from_region(&all)).unwrap();
    assert_eq!(got.value, naive_sum(&a, &all));
}

#[test]
fn cross_shard_updates_partition_and_bump_epochs() {
    let a = cube(&[24, 10], 29);
    let srv = server(&a, 4);
    // Engine pushes at build time already installed snapshots; updates
    // are measured as epoch deltas from here.
    let base: Vec<u64> = srv.shard_stats().iter().map(|s| s.epochs.epoch).collect();
    let mut shadow = a.clone();
    // One cell in every shard's slab, plus a duplicate (later wins).
    let batch = vec![
        (vec![0, 0], 555),
        (vec![7, 3], -4),
        (vec![13, 9], 0),
        (vec![23, 1], 77),
        (vec![0, 0], 556),
    ];
    for (idx, v) in &batch {
        *shadow.get_mut(idx) = *v;
    }
    srv.apply_updates(&batch).unwrap();
    for r in uniform_regions(a.shape(), 40, 31) {
        let got = srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
        assert_eq!(got.value, naive_sum(&shadow, &r), "{r}");
    }
    // Every shard was touched, so every shard installed one successor.
    for (s, base) in srv.shard_stats().iter().zip(&base) {
        assert_eq!(s.epochs.epoch, base + 1, "shard {}", s.shard);
        assert_eq!(s.queue_depth, 0, "shard {}", s.shard);
    }
}

#[test]
fn malformed_queries_and_updates_are_typed_errors() {
    let a = cube(&[16, 8], 37);
    let srv = server(&a, 4);
    let base: Vec<u64> = srv.shard_stats().iter().map(|s| s.epochs.epoch).collect();
    // Wrong arity.
    let bad = RangeQuery::all(3).unwrap();
    assert!(matches!(
        srv.range_sum(&bad),
        Err(ServerError::Validation(_))
    ));
    // Out-of-bounds update: nothing applied anywhere.
    assert!(matches!(
        srv.apply_updates(&[(vec![0, 0], 1), (vec![16, 0], 1)]),
        Err(ServerError::Validation(_))
    ));
    for (s, base) in srv.shard_stats().iter().zip(&base) {
        assert_eq!(
            s.epochs.epoch, *base,
            "shard {} must not have installed",
            s.shard
        );
    }
    // The server still answers afterwards.
    let all = Region::from_bounds(&[(0, 15), (0, 7)]).unwrap();
    let got = srv.range_sum(&RangeQuery::from_region(&all)).unwrap();
    assert_eq!(got.value, naive_sum(&a, &all));
}

#[test]
fn budget_admission_kills_over_limit_queries() {
    let a = cube(&[16, 16], 41);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            budget: QueryBudget::with_deadline(std::time::Duration::ZERO),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let all = Region::from_bounds(&[(0, 15), (0, 15)]).unwrap();
    match srv.range_sum(&RangeQuery::from_region(&all)) {
        Err(ServerError::Engine(e)) => assert!(e.is_interrupt(), "{e}"),
        other => panic!("expected a budget interrupt, got {other:?}"),
    }
}

#[test]
fn concurrent_load_driver_sees_only_pre_or_post_snapshots() {
    let a = cube(&[32, 12], 43);
    let srv = server(&a, 4);
    let base: u64 = srv.shard_stats().iter().map(|s| s.epochs.epoch).sum();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 10,
            queries_per_phase: 40,
            readers: 4,
            batch: 3,
            seed: 99,
            ..LoadSpec::default()
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.updates, 10);
    assert_eq!(report.answers, 400);
    // Ten single-shard batches over four round-robin shards.
    let stats = srv.shard_stats();
    let installs: u64 = stats.iter().map(|s| s.epochs.epoch).sum::<u64>() - base;
    assert_eq!(installs, 10);
    for s in &stats {
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.epochs.reclamation_lag, 0, "no pins left after joining");
    }
}

#[test]
fn concurrent_readers_on_one_shard_see_only_pre_or_post_snapshots_and_share_its_cache() {
    // One shard, so every reader thread is inside the same
    // `SemanticCache` and `AdaptiveRouter` at once, with nothing between
    // them and the callers to serialise the traffic. Each phase races four
    // readers over a hot Zipf pool against one single-cell (hence
    // single-row) install; `drive_load` holds every answer to the pre- or
    // post-batch naive oracle.
    let a = cube(&[32, 12], 107);
    let srv = server(&a, 1);
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 12,
            queries_per_phase: 64,
            readers: 4,
            batch: 1,
            seed: 2024,
            zipf_pool: 8,
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.answers, 12 * 64);
    assert_eq!(report.updates, 12);
    assert!(srv.cache_stats().hits > 0, "{:?}", srv.cache_stats());
    let stats = srv.shard_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].queue_depth, 0);
    assert_eq!(stats[0].epochs.reclamation_lag, 0);
}

#[test]
fn chaos_snapshot_installs_stay_exact_under_injected_faults() {
    // Precomputed engines error and panic at high rates; the un-faulted
    // naive fallback plus failover keeps every answer oracle-exact, and
    // snapshot installs during the chaos never tear a reader.
    let a = cube(&[24, 10], 47);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            faults: Some(FaultPlan::seeded(5).errors(120).panics(15)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 6,
            queries_per_phase: 30,
            readers: 3,
            batch: 2,
            seed: 1234,
            ..LoadSpec::default()
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
}

#[test]
fn repeat_sum_queries_hit_the_per_shard_caches() {
    let a = cube(&[24, 10], 61);
    let srv = server(&a, 3);
    let r = Region::from_bounds(&[(2, 20), (1, 8)]).unwrap();
    let q = RangeQuery::from_region(&r);
    let first = srv.range_sum(&q).unwrap();
    let second = srv.range_sum(&q).unwrap();
    assert_eq!(first.value, second.value);
    assert_eq!(first.value, naive_sum(&a, &r));
    let stats = srv.cache_stats();
    // The repeat fanned out to every overlapping shard and each answered
    // from its cache.
    assert!(stats.hits >= 3, "{stats:?}");
    assert!(stats.entries >= 3, "{stats:?}");
    // The exact-hit path reports a token cost, far below a real
    // execution's.
    assert!(
        second.cost < first.cost,
        "{} !< {}",
        second.cost,
        first.cost
    );
}

#[test]
fn cache_disabled_server_stays_oracle_exact_with_idle_counters() {
    let a = cube(&[20, 8], 67);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            cache_size: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 4,
            queries_per_phase: 24,
            readers: 2,
            zipf_pool: 6,
            ..LoadSpec::default()
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    let c = report.cache;
    assert_eq!((c.hits, c.assemblies, c.misses, c.entries), (0, 0, 0, 0));
}

#[test]
fn zipf_load_hits_the_cache_and_stays_oracle_exact_across_installs() {
    let a = cube(&[32, 12], 71);
    let srv = server(&a, 4);
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 8,
            queries_per_phase: 40,
            readers: 4,
            batch: 3,
            seed: 404,
            zipf_pool: 10,
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.updates, 8);
    let c = report.cache;
    // Half the op mix is sums over a 10-region pool repeated each phase:
    // the caches must serve a solid fraction of those without a direct
    // execution, and installs must have invalidated region-wise rather
    // than flushing (entries survive to the end).
    assert!(c.hits > 0, "{c:?}");
    assert!(c.hit_rate() > 0.3, "{c:?}");
    assert!(c.entries > 0, "{c:?}");
    assert!(c.invalidations < c.insertions, "{c:?}");
}

#[test]
fn chaos_with_caches_and_zipf_locality_stays_oracle_exact() {
    // Fault injection degrades shards to naive serving while installs
    // race readers and the caches hit and invalidate. Every answer must
    // still match an oracle.
    let a = cube(&[24, 10], 73);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            faults: Some(FaultPlan::seeded(9).errors(120).panics(15)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 6,
            queries_per_phase: 30,
            readers: 3,
            batch: 2,
            seed: 777,
            zipf_pool: 8,
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
}

#[test]
fn pinned_answers_survive_many_generations_of_installs() {
    // Serial sanity for the epoch machinery at the server level: after
    // many installs the oracle still agrees and the live-snapshot count
    // settles back to one per shard.
    let a = cube(&[16, 6], 53);
    let srv = server(&a, 4);
    let mut shadow = a.clone();
    for gen in 0..12u64 {
        let idx = vec![(gen as usize * 5) % 16, (gen as usize * 3) % 6];
        let v = gen as i64 * 100 - 300;
        *shadow.get_mut(&idx) = v;
        srv.apply_updates(&[(idx, v)]).unwrap();
    }
    for r in uniform_regions(a.shape(), 30, 59) {
        let got = srv.range_sum(&RangeQuery::from_region(&r)).unwrap();
        assert_eq!(got.value, naive_sum(&shadow, &r), "{r}");
    }
    for s in srv.shard_stats() {
        assert_eq!(s.epochs.live_snapshots, 1, "shard {}", s.shard);
    }
}

// ---- graceful degradation -----------------------------------------------

/// A config whose budget trips on nearly every query but whose policy
/// degrades to the per-shard approximate tier instead of failing.
fn degrading_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        budget: QueryBudget::with_max_accesses(2).degrade(),
        ..ServeConfig::default()
    }
}

#[test]
fn zero_deadline_with_degrade_answers_every_query_approximately() {
    // The hardest budget there is: a deadline that has already passed.
    // Under DegradePolicy::Degrade every answer must still arrive, as an
    // estimate whose guaranteed interval contains the sequential oracle.
    let a = cube(&[24, 16], 71);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            budget: QueryBudget::with_deadline(std::time::Duration::ZERO).degrade(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for r in uniform_regions(a.shape(), 40, 73) {
        let q = RangeQuery::from_region(&r);
        let sum = srv.range_sum(&q).unwrap();
        let est = sum.estimate.as_ref().expect("zero deadline must degrade");
        assert!(sum.contains(naive_sum(&a, &r)), "{r}: {sum:?}");
        assert!(est.lower <= sum.value && sum.value <= est.upper);
        assert!(est.degraded_shards >= 1 && est.degraded_shards <= sum.shards);
        assert!(est.exact_cells <= est.total_cells);
        assert_eq!(est.total_cells, r.volume() as u64);
        let max = srv.range_max(&q).unwrap();
        assert!(max.contains(naive_max(&a, &r)), "{r}: {max:?}");
        assert!(max.at.is_none(), "degraded extremum has no attained cell");
        let min = srv.range_min(&q).unwrap();
        assert!(min.contains(naive_min(&a, &r)), "{r}: {min:?}");
    }
}

#[test]
fn degraded_answers_are_deterministic_and_eq_comparable() {
    let a = cube(&[20, 12], 79);
    // Cache disabled so both runs take the identical path — a cache hit
    // would change the cost field between otherwise-equal answers.
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            cache_size: 0,
            ..degrading_config(2)
        },
    )
    .unwrap();
    let r = Region::from_bounds(&[(3, 17), (2, 10)]).unwrap();
    let q = RangeQuery::from_region(&r);
    let first = srv.range_sum(&q).unwrap();
    let second = srv.range_sum(&q).unwrap();
    assert!(first.is_degraded(), "{first:?}");
    // ServerAnswer (estimate included) derives Eq: the degraded path is
    // deterministic for a fixed snapshot.
    assert_eq!(first, second);
    assert!(first.contains(naive_sum(&a, &r)));
}

#[test]
fn degraded_load_under_budget_pressure_completes_with_zero_errors() {
    // The acceptance drill: a mixed Zipf workload under a budget that
    // kills nearly every exact query. With DegradePolicy::Degrade the run
    // completes with zero errors, every estimate interval contains an
    // oracle state, and exact answers stay bit-identical (the driver's
    // `ServerAnswer::contains` check covers both).
    let a = cube(&[32, 12], 83);
    let srv = CubeServer::build(&a, degrading_config(4)).unwrap();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 8,
            queries_per_phase: 40,
            readers: 4,
            batch: 3,
            seed: 311,
            zipf_pool: 24,
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    assert!(report.degraded > 0, "pressure must trigger the tier");
    assert!(report.degraded <= report.answers);
}

#[test]
fn chaos_with_degrade_under_installs_never_errs_and_never_lies() {
    // Fault storms on every precomputed engine *plus* an exhausted access
    // budget, with update batches installing mid-flight: the degrade path
    // must keep the run error-free, and every answer — exact or estimate —
    // must agree with a pre- or post-install oracle state.
    let a = cube(&[24, 10], 89);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 4,
            budget: QueryBudget::with_max_accesses(3).degrade(),
            faults: Some(FaultPlan::seeded(13).errors(150).panics(20)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = drive_load(
        &srv,
        &a,
        &LoadSpec {
            phases: 6,
            queries_per_phase: 30,
            readers: 3,
            batch: 2,
            seed: 977,
            ..LoadSpec::default()
        },
    )
    .unwrap();
    assert!(report.passed(), "{report:?}");
    assert!(report.degraded > 0, "{report:?}");
    assert_eq!(report.updates, 6, "installs kept landing during chaos");
}

#[test]
fn queue_depth_shedding_degrades_without_a_degrade_budget_policy() {
    // queue_depth_limit arms the tier on its own: with a threshold every
    // current depth exceeds, every fanned-out part is shed to the tier
    // pre-dispatch and tagged QueueDepth — even though the budget policy
    // is the default hard-fail.
    let a = cube(&[24, 16], 97);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            queue_depth_limit: Some(-1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for r in uniform_regions(a.shape(), 25, 101) {
        let q = RangeQuery::from_region(&r);
        let sum = srv.range_sum(&q).unwrap();
        let est = sum.estimate.as_ref().expect("all shards shed");
        assert_eq!(est.degraded_shards, sum.shards);
        assert!(sum.contains(naive_sum(&a, &r)), "{r}: {sum:?}");
        assert!(est.fraction_exact() >= 0.0 && est.fraction_exact() <= 1.0);
    }
    // An idle queue with a generous limit never sheds.
    let relaxed = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            queue_depth_limit: Some(1_000),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let r = Region::from_bounds(&[(1, 20), (2, 13)]).unwrap();
    let ans = relaxed.range_sum(&RangeQuery::from_region(&r)).unwrap();
    assert!(!ans.is_degraded());
    assert_eq!(ans.value, naive_sum(&a, &r));
}

#[test]
fn in_flight_limit_zero_sheds_only_a_second_concurrent_caller() {
    // Wall-time dependent: the first caller's part is held open by a
    // 400 ms injected engine delay, and the second caller — released only
    // once it has *seen* that part in flight — must run its shed check
    // inside that window. A stall of 400 ms between the two statements
    // would fail the test without a bug.
    let a = cube(&[16, 16], 109);
    let all = Region::from_bounds(&[(0, 15), (0, 15)]).unwrap();
    let q = RangeQuery::from_region(&all);
    let truth = naive_sum(&a, &all);
    let config = |faults| ServeConfig {
        shards: 1,
        queue_depth_limit: Some(0),
        cache_size: 0,
        faults,
        ..ServeConfig::default()
    };

    // A lone caller finds nothing in flight ahead of itself: never shed.
    let lone = CubeServer::build(&a, config(None)).unwrap();
    for _ in 0..8 {
        let ans = lone.range_sum(&q).unwrap();
        assert!(!ans.is_degraded(), "{ans:?}");
        assert_eq!(ans.value, truth);
    }

    let delay = std::time::Duration::from_millis(400);
    let plan = FaultPlan::seeded(3).delays(1000, delay);
    let srv = CubeServer::build(&a, config(Some(plan))).unwrap();
    std::thread::scope(|s| {
        let slow = s.spawn(|| srv.range_sum(&q).unwrap());
        while srv.shard_stats()[0].queue_depth == 0 {
            assert!(!slow.is_finished(), "first caller finished unobserved");
            std::thread::yield_now();
        }
        let shed = srv.range_sum(&q).unwrap();
        let est = shed.estimate.as_ref().expect("second caller is shed");
        assert_eq!(est.reason, DegradeReason::QueueDepth);
        assert!(shed.contains(truth), "{shed:?}");
        let first = slow.join().unwrap();
        assert!(!first.is_degraded(), "{first:?}");
        assert_eq!(first.value, truth);
    });
    assert_eq!(srv.shard_stats()[0].queue_depth, 0);
}

#[test]
fn in_flight_count_returns_to_zero_after_panicking_and_failing_parts() {
    let a = cube(&[24, 10], 113);
    let r = Region::from_bounds(&[(1, 22), (2, 8)]).unwrap();
    let q = RangeQuery::from_region(&r);
    let idle = |srv: &CubeServer| srv.shard_stats().iter().all(|s| s.queue_depth == 0);

    // Every precomputed engine panics on every call; the router contains
    // the unwind and fails over to the naive scan.
    let panicking = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            faults: Some(FaultPlan::seeded(7).panics(1000)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(panicking.range_sum(&q).unwrap().value, naive_sum(&a, &r));
    assert_eq!(panicking.range_max(&q).unwrap().value, naive_max(&a, &r));
    assert!(idle(&panicking), "{:?}", panicking.shard_stats());

    // A part that fails outright (hard budget, no degrade tier) leaves
    // through `?`.
    let failing = CubeServer::build(
        &a,
        ServeConfig {
            shards: 3,
            budget: QueryBudget::with_deadline(std::time::Duration::ZERO),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(failing.range_sum(&q), Err(ServerError::Engine(_))));
    assert!(matches!(failing.range_min(&q), Err(ServerError::Engine(_))));
    assert!(idle(&failing), "{:?}", failing.shard_stats());
}

#[test]
fn degraded_estimates_are_never_cached_as_exact() {
    // A degraded answer must not poison the semantic cache: lifting the
    // budget after degraded queries must yield exact answers again.
    let a = cube(&[20, 10], 103);
    let srv = CubeServer::build(&a, degrading_config(2)).unwrap();
    let r = Region::from_bounds(&[(2, 17), (1, 8)]).unwrap();
    let q = RangeQuery::from_region(&r);
    let degraded = srv.range_sum(&q).unwrap();
    assert!(degraded.is_degraded(), "{degraded:?}");
    // Re-querying must still report degradation: had the estimate been
    // inserted into a shard cache as an exact sum, the repeat would come
    // back as a non-degraded answer carrying an approximate value. (The
    // cache only inserts on its own exact path — a shard that answered
    // within budget may cache, a degraded shard never does.)
    let again = srv.range_sum(&q).unwrap();
    assert!(again.is_degraded(), "{again:?}");
    assert!(again.contains(naive_sum(&a, &r)));
    let exact_srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let exact = exact_srv.range_sum(&q).unwrap();
    assert!(!exact.is_degraded());
    assert_eq!(exact.value, naive_sum(&a, &r));
}

#[test]
fn wall_time_two_shard_sum_sees_one_state_across_single_and_multi_shard_installs() {
    // Wall-time dependent: a 300 ms injected engine delay holds the read's
    // part on shard 0 open while three batches install. A stall of that
    // long between the read reaching shard 0 and the installs would let
    // it miss them, and pass without exercising the race.
    let a = cube(&[16, 8], 131);
    let rows = |lo, hi| Region::from_bounds(&[(lo, hi), (0, 7)]).unwrap();
    let q = RangeQuery::from_region(&rows(0, 15));
    let delay = std::time::Duration::from_millis(300);
    let srv = CubeServer::build(
        &a,
        ServeConfig {
            shards: 2,
            cache_size: 0,
            faults: Some(FaultPlan::seeded(5).delays(1000, delay)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Shard 0 owns rows 0..=7, shard 1 rows 8..=15.
    let batches: [Vec<(Vec<usize>, i64)>; 3] = [
        vec![(vec![2, 3], 5_000)],
        vec![(vec![12, 1], -7_000)],
        vec![(vec![5, 5], 11_000), (vec![9, 6], 13_000)],
    ];
    let mut states = vec![a.clone()];
    for batch in &batches {
        let mut next = states.last().unwrap().clone();
        for (idx, v) in batch {
            *next.get_mut(idx) = *v;
        }
        states.push(next);
    }
    let sums: Vec<i64> = states.iter().map(|s| naive_sum(s, &rows(0, 15))).collect();
    // What the read returns if each part pins its shard when it starts:
    // shard 0 before every install, shard 1 after all of them.
    let torn = naive_sum(&states[0], &rows(0, 7)) + naive_sum(&states[3], &rows(8, 15));
    assert!(!sums.contains(&torn), "the torn mix must match no state");
    std::thread::scope(|s| {
        let read = s.spawn(|| srv.range_sum(&q).unwrap());
        while srv.shard_stats()[0].queue_depth == 0 {
            assert!(!read.is_finished(), "read finished unobserved");
            std::thread::yield_now();
        }
        // Let the part pin shard 0's snapshot and enter its delay.
        std::thread::sleep(std::time::Duration::from_millis(50));
        for batch in &batches {
            srv.apply_updates(batch).unwrap();
        }
        let ans = read.join().unwrap();
        assert_eq!(ans.shards, 2);
        assert!(
            sums.contains(&ans.value),
            "{} is no state's sum (states {sums:?}, torn {torn})",
            ans.value
        );
    });
    assert_eq!(srv.range_sum(&q).unwrap().value, sums[3]);
}
