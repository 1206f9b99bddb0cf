//! Deterministic gate on the analytic point path: heap allocations per
//! `ScalingEngine::point` call and per `SweepMemo` hit, counted by a
//! counting global allocator.  A per-loop `String` or `Vec` creeping back
//! into the path moves these counts by tens and fails here, where a timing
//! would drown in host noise.

mod common;

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
fn one_point_costs_four_allocations() {
    let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
    // The process-wide loop tables are built by the first evaluation.
    let _ = engine.point(1, &TrafficOptions::original(1));
    for (ranks, opts) in sample_points() {
        let (point, (allocs, _)) = allocations(|| engine.point(ranks, &opts));
        assert_eq!(point.loop_balances.len(), 22);
        // The active-cores-per-domain table (read by the occupancy context
        // and again by the bandwidths), the per-rank bandwidths, and the
        // point's own balances.
        assert_eq!(allocs, 4, "ranks {ranks}, {opts:?}");
    }
}

#[test]
fn one_memo_hit_costs_two_allocations() {
    let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
    let memo = SweepMemo::new();
    for (ranks, opts) in sample_points() {
        let cold = engine.point_memo(ranks, &opts, &memo);
        let (warm, (allocs, _)) = allocations(|| engine.point_memo(ranks, &opts, &memo));
        assert_eq!(warm, cold);
        // The key's machine id and the returned copy's balances.
        assert_eq!(allocs, 2, "ranks {ranks}, {opts:?}");
    }
    let n = sample_points().len() as u64;
    assert_eq!(memo.stats(), (n, n), "every second lookup was a hit");
}
