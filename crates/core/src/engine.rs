//! Scaling engine: the node-level point evaluator (Figs. 2 and 3) and its
//! cross-sweep memo.
//!
//! A scaling point is a pure function of `(machine, grid, rank count,
//! traffic options)`, and a sweep evaluates many points of one machine and
//! grid — `figures all` sweeps the identical 72-point curve for Fig. 2 and
//! Fig. 3, and a [`SweepPlan`] whose rank ranges overlap re-visits every
//! shared rank count per stage.
//!
//! This module provides
//!
//! * [`ScalingEngine`] — the evaluator.  What no point can change about a
//!   loop is a process-wide table, and what no option can change about a
//!   point — the decomposition, the bandwidth of each domain load, the
//!   SpecI2M response — is an engine's table, one slot per rank count,
//!   filled the first time that count is evaluated.  So
//!   [`point`](ScalingEngine::point) is a few flops per loop and allocates
//!   only its result.
//!   [`ScalingModel`](crate::ScalingModel) is its one-shot front;
//! * [`SweepMemo`] — a sharded concurrent memo of evaluated points keyed by
//!   `(machine id, grid, ranks, options)`, meant to span a whole sweep
//!   plan: overlapping rank ranges, repeated stages and repeated artifact
//!   generations all collapse onto one evaluation per distinct point.
//!
//! Points are stored *before* speedup normalisation (speedup is a property
//! of a sweep range, not of a point); a caller normalises its own copy with
//! [`normalise_speedups`](crate::normalise_speedups), exactly like
//! `ScalingModel::sweep_range`.
//!
//! [`SweepPlan`]: ../../clover_scenario/struct.SweepPlan.html

use std::sync::{Arc, OnceLock};

use clover_cachesim::FlightMemo;
use clover_machine::Machine;

use crate::decomp::{is_prime, Decomposition};
use crate::scaling::{ScalingPoint, NON_HOTSPOT_FRACTION};
use crate::traffic::{
    loop_traffic, roofline_time, LoopInvariants, RankContext, TrafficModel, TrafficOptions,
};

/// Identity of one scaling point.  Machines are identified by their preset
/// id (`Machine::id`); preset machines with equal ids are structurally
/// identical, so equal keys imply bit-identical points: everything a point
/// depends on is in here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey {
    /// `Machine::id` of the evaluated machine, shared with the
    /// [`ScalingEngine`] that built the key: cloning a key allocates
    /// nothing.
    pub machine: Arc<str>,
    /// Square grid size in cells.
    pub grid: usize,
    /// Evaluated rank count.
    pub ranks: usize,
    /// Traffic-model options of the evaluation.
    pub opts: TrafficOptions,
}

/// Sharded concurrent memo of evaluated [`ScalingPoint`]s, spanning a whole
/// sweep plan (or a whole `figures serve` daemon lifetime).  Lookups and
/// inserts lock only the shard the key hashes to; evaluation runs outside
/// any lock.  Concurrent lookups of the same missing key are
/// *single-flight* (via [`FlightMemo`]): one worker evaluates, every other
/// worker waits for that result and counts as a hit, so hit/miss
/// statistics are exact even under races.
#[derive(Debug, Default)]
pub struct SweepMemo {
    inner: FlightMemo<PointKey, ScalingPoint>,
}

impl SweepMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert_with(
        &self,
        key: PointKey,
        evaluate: impl FnOnce() -> ScalingPoint,
    ) -> ScalingPoint {
        self.inner.get_or_insert_with(key, evaluate)
    }

    /// Number of memoized points.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// `(hits, misses)` since construction.  Waiters of an in-flight
    /// evaluation count as hits, so `misses` is exactly the number of
    /// evaluations run.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }
}

/// Everything of a point that depends on the rank count but on no option:
/// the twin of [`LoopInvariants`], derived at most once per engine and rank
/// count.
#[derive(Debug, Clone)]
struct RankInvariants {
    prime: bool,
    local_inner: usize,
    /// Per-rank bandwidth of each distinct domain load: compact pinning
    /// fills whole domains and leaves at most one partly filled.
    per_rank_bws: [Option<f64>; 2],
    context: RankContext,
}

/// Scaling evaluator for one machine and grid.
#[derive(Debug, Clone)]
pub struct ScalingEngine {
    traffic: TrafficModel,
    /// The machine's id, as every [`PointKey`] of this engine carries it.
    machine_id: Arc<str>,
    grid: usize,
    /// Slot `r - 1` holds the invariants of `r` ranks once a point on `r`
    /// ranks has been evaluated.  The slots are allocated by the first
    /// point, so an engine that only serves memo hits allocates none.
    by_rank: OnceLock<Box<[OnceLock<RankInvariants>]>>,
}

impl ScalingEngine {
    /// Engine for `machine` on a square `grid`.
    pub fn new(machine: Machine, grid: usize) -> Self {
        Self {
            machine_id: machine.id.as_str().into(),
            by_rank: OnceLock::new(),
            traffic: TrafficModel::new(machine),
            grid,
        }
    }

    /// The same engine on a different square grid.
    pub(crate) fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        // Every invariant but the bandwidths depends on the grid.
        self.by_rank.take();
        self
    }

    /// The machine the engine evaluates.
    pub fn machine(&self) -> &Machine {
        self.traffic.machine()
    }

    /// The grid size the engine evaluates.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// The invariants of `ranks` ranks, derived by the first caller.
    fn rank_invariants(&self, ranks: usize) -> &RankInvariants {
        let slots = self.by_rank.get_or_init(|| {
            (0..self.machine().total_cores())
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[ranks - 1].get_or_init(|| {
            let machine = self.machine();
            let decomp = Decomposition::new(ranks, self.grid, self.grid);
            let (full_domains, cores_per_domain, remainder) = machine.topology.compact_loads(ranks);
            let per_rank_bw =
                |cores: usize| machine.bandwidth.domain_bandwidth(cores) / cores as f64;
            RankInvariants {
                prime: is_prime(ranks),
                local_inner: decomp.typical_local_inner(),
                per_rank_bws: [
                    (full_domains > 0).then(|| per_rank_bw(cores_per_domain)),
                    (remainder > 0).then(|| per_rank_bw(remainder)),
                ],
                context: self.traffic.rank_context(ranks, &decomp),
            }
        })
    }

    /// Evaluate one rank count (`opts.ranks` must be `ranks`): the per-loop
    /// traffic model combined with the domain decomposition and the
    /// bandwidth saturation curve into a time and a memory volume per
    /// timestep.
    pub fn point(&self, ranks: usize, opts: &TrafficOptions) -> ScalingPoint {
        let machine = self.machine();
        assert!(ranks >= 1 && ranks <= machine.total_cores());
        assert_eq!(opts.ranks, ranks, "options of another rank count");
        let rank = self.rank_invariants(ranks);
        let ctx = self.traffic.point_context(&rank.context, opts);

        let iterations = (self.grid as f64) * (self.grid as f64);
        // Per-rank iterations; every loop sweeps the whole local domain.
        let per_rank_iterations = iterations / ranks as f64;
        let peak = machine.core_peak_flops();
        let loops = LoopInvariants::of_catalogue();
        // The point's one allocation.
        let loop_balances: Arc<[f64]> = loops
            .iter()
            .map(|inv| {
                let bytes = loop_traffic(inv, opts, &ctx);
                bytes.read + bytes.write
            })
            .collect();
        let mut time = 0.0;
        let mut volume = 0.0;
        for (inv, &balance) in loops.iter().zip(loop_balances.iter()) {
            // The code is bulk-synchronous (halo exchange after every
            // kernel): each loop finishes when the most loaded ccNUMA
            // domain finishes.  Equally loaded domains finish together,
            // so the distinct loads decide the maximum.
            let loop_time = rank
                .per_rank_bws
                .iter()
                .flatten()
                .map(|&bw| per_rank_iterations * roofline_time(balance, inv.bounds.flops, bw, peak))
                .fold(0.0, f64::max);
            time += loop_time;
            volume += iterations * balance;
        }
        // The non-hotspot 31 % scale the same way (memory bound).
        let time_per_step = time / (1.0 - NON_HOTSPOT_FRACTION);
        let volume_per_step = volume / (1.0 - NON_HOTSPOT_FRACTION);
        ScalingPoint {
            ranks,
            prime: rank.prime,
            local_inner: rank.local_inner,
            time_per_step,
            speedup: 0.0, // filled in by the range normalisation
            memory_bandwidth: volume_per_step / time_per_step,
            volume_per_step,
            loop_balances,
        }
    }

    /// Evaluate one rank count through a cross-sweep memo.
    pub fn point_memo(
        &self,
        ranks: usize,
        opts: &TrafficOptions,
        memo: &SweepMemo,
    ) -> ScalingPoint {
        let key = PointKey {
            machine: Arc::clone(&self.machine_id),
            grid: self.grid,
            ranks,
            opts: *opts,
        };
        memo.get_or_insert_with(key, || self.point(ranks, opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TINY_GRID;
    use clover_machine::{
        icelake_sp_8360y, sapphire_rapids_8480, ReplacementPolicyKind, WritePolicyKind,
    };

    #[test]
    fn memo_distinguishes_stage_grid_and_machine() {
        let memo = SweepMemo::new();
        let icx = ScalingEngine::new(icelake_sp_8360y(), 1920);
        let icx_small = ScalingEngine::new(icelake_sp_8360y(), 960);
        let spr = ScalingEngine::new(sapphire_rapids_8480(), 1920);
        let _ = icx.point_memo(18, &TrafficOptions::original(18), &memo);
        let _ = icx.point_memo(18, &TrafficOptions::optimized(18), &memo);
        let _ = icx_small.point_memo(18, &TrafficOptions::original(18), &memo);
        let _ = spr.point_memo(18, &TrafficOptions::original(18), &memo);
        assert_eq!(memo.len(), 4);
        assert!(!memo.is_empty());
    }

    #[test]
    fn normalisation_happens_per_range_not_in_the_memo() {
        // A memo hit must not leak another range's speedup normalisation:
        // points are memoized un-normalised and each range scales its own
        // copy.
        let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
        let memo = SweepMemo::new();
        let sweep = |ranks: std::ops::RangeInclusive<usize>| {
            let mut points: Vec<ScalingPoint> = ranks
                .map(|r| engine.point_memo(r, &TrafficOptions::original(r), &memo))
                .collect();
            crate::normalise_speedups(&mut points);
            points
        };
        let full = sweep(1..=18);
        let partial = sweep(9..=18);
        assert_eq!(memo.stats(), (10, 18), "the sub-range is all hits");
        let held = |r| engine.point_memo(r, &TrafficOptions::original(r), &memo);
        assert!((1..=18).all(|r| held(r).speedup == 0.0));
        assert!((partial[0].speedup - 1.0).abs() < 1e-12);
        let expected = full[8].time_per_step / full[17].time_per_step;
        assert!((partial[9].speedup - expected).abs() < 1e-12);
    }

    #[test]
    fn a_rank_count_fills_its_slot_once_under_every_option() {
        let mut engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
        let filled = |engine: &ScalingEngine| {
            let slots = engine.by_rank.get().map_or(&[][..], |slots| &slots[..]);
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.get().map(|_| i + 1))
                .collect::<Vec<_>>()
        };
        assert!(engine.by_rank.get().is_none(), "built without slots");
        assert_eq!(
            engine.point(19, &TrafficOptions::original(19)).local_inner,
            808
        );
        // Mark the filled slot: a point that derived the invariants again
        // would report the true local inner extent.
        let slot = &mut engine.by_rank.get_mut().unwrap()[18];
        let mut marked = slot.take().unwrap();
        marked.local_inner = usize::MAX;
        slot.set(marked).unwrap();
        for opts in [
            TrafficOptions::original(19),
            TrafficOptions::speci2m_off(19),
            TrafficOptions::optimized(19),
            TrafficOptions::original(19).with_layer_condition(false),
            TrafficOptions::original(19).with_replacement(ReplacementPolicyKind::Random),
            TrafficOptions::original(19).with_write_policy(WritePolicyKind::NonTemporal),
        ] {
            assert_eq!(engine.point(19, &opts).local_inner, usize::MAX, "{opts:?}");
        }
        assert_eq!(filled(&engine), vec![19]);
        let _ = engine.point(72, &TrafficOptions::original(72));
        assert_eq!(filled(&engine), vec![19, 72]);
        // Another grid starts from an empty table.
        let engine = engine.with_grid(1920);
        assert!(engine.by_rank.get().is_none());
        assert_eq!(
            engine.point(19, &TrafficOptions::original(19)).local_inner,
            101
        );
    }
}
