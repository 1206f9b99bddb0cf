//! Deterministic gate on the analytic point path: heap allocations per
//! `ScalingEngine::point` call, per `SweepMemo` hit and per `FlightMemo`
//! miss, counted by a counting global allocator.  A per-loop `String` or
//! `Vec`, or a per-flight `Arc`, creeping back into the path moves these
//! counts and fails here, where a timing would drown in host noise.

mod common;

use cloverleaf_wa::cachesim::FlightMemo;
use cloverleaf_wa::core::{ScalingEngine, SweepMemo, TrafficOptions, TINY_GRID};
use cloverleaf_wa::machine::{icelake_sp_8360y, ReplacementPolicyKind, WritePolicyKind};
use common::allocations;

/// Points across every branch of the traffic formula: serial, a prime
/// count, a partially filled domain and the full node, each stage, the
/// default and a non-default policy pair, layer condition held and broken.
fn sample_points() -> Vec<(usize, TrafficOptions)> {
    let mut points = Vec::new();
    for ranks in [1usize, 19, 40, 72] {
        for base in [
            TrafficOptions::original(ranks),
            TrafficOptions::speci2m_off(ranks),
            TrafficOptions::optimized(ranks),
        ] {
            points.push((ranks, base));
            points.push((
                ranks,
                base.with_layer_condition(false)
                    .with_replacement(ReplacementPolicyKind::Srrip)
                    .with_write_policy(WritePolicyKind::NonTemporal),
            ));
        }
    }
    points
}

#[test]
fn one_point_costs_one_allocation() {
    let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
    // The process-wide loop tables are built by the first evaluation.
    let _ = engine.point(1, &TrafficOptions::original(1));
    for (ranks, opts) in sample_points() {
        let (point, (allocs, _)) = allocations(|| engine.point(ranks, &opts));
        assert_eq!(point.loop_balances.len(), 22);
        // The point's own balances.
        assert_eq!(allocs, 1, "ranks {ranks}, {opts:?}");
    }
}

#[test]
fn one_memo_hit_costs_no_allocation() {
    let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
    let memo = SweepMemo::new();
    for (ranks, opts) in sample_points() {
        let cold = engine.point_memo(ranks, &opts, &memo);
        let (warm, (allocs, _)) = allocations(|| engine.point_memo(ranks, &opts, &memo));
        assert_eq!(warm, cold);
        // The curve key shares the engine's machine id, the curve is
        // shared by reference count, and the returned copy shares the
        // memoized point's balances.
        assert_eq!(allocs, 0, "ranks {ranks}, {opts:?}");
    }
    let n = sample_points().len() as u64;
    assert_eq!(memo.stats(), (n, n), "every second lookup was a hit");
}

#[test]
fn a_memo_miss_allocates_only_what_the_map_grows_by() {
    // Sixteen shard maps growing to 256 entries each reallocate about
    // eight times; an allocation per flight (a shared state, a boxed key)
    // would add one per miss on top.
    const MISSES: u64 = 4096;
    let memo: FlightMemo<u64, u64> = FlightMemo::new();
    let ((), (allocs, _)) = allocations(|| {
        for key in 0..MISSES {
            assert_eq!(memo.get_or_insert_with(key, || key + 1), key + 1);
        }
    });
    assert_eq!(memo.stats(), (0, MISSES));
    assert!(
        allocs < MISSES / 16,
        "{allocs} allocations for {MISSES} misses"
    );

    // Through the sweep memo a miss costs what its point costs, plus the
    // slot table of each new curve.
    let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
    let _ = engine.point(1, &TrafficOptions::original(1));
    let memo = SweepMemo::new();
    let points = sample_points();
    let ((), (allocs, _)) = allocations(|| {
        for (ranks, opts) in &points {
            engine.point_memo(*ranks, opts, &memo);
        }
    });
    // Its point; per new curve (six here, one per option set) its slots
    // and at most one growth of the shard map it lands in.
    assert!(
        allocs <= 2 * points.len() as u64,
        "{allocs} allocations for {} cold points",
        points.len()
    );
}
