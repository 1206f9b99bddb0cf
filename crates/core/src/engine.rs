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
//! * [`SweepMemo`] — a sharded concurrent memo of evaluated points, held
//!   as rank curves keyed by `(machine id, grid, options)` with one slot
//!   per rank count, meant to span a whole sweep plan: overlapping rank
//!   ranges, repeated stages and repeated artifact generations all
//!   collapse onto one evaluation per distinct point, and a run of rank
//!   counts pays for one keyed lookup.
//!
//! Points are stored *before* speedup normalisation (speedup is a property
//! of a sweep range, not of a point); a caller normalises its own copy with
//! [`normalise_speedups`](crate::normalise_speedups), exactly like
//! [`ScalingModel::sweep`](crate::ScalingModel::sweep).
//!
//! [`SweepPlan`]: ../../clover_scenario/struct.SweepPlan.html

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use clover_cachesim::FlightMemo;
use clover_machine::Machine;

use crate::decomp::{is_prime, Decomposition};
use crate::scaling::{ScalingPoint, NON_HOTSPOT_FRACTION};
use crate::traffic::{
    loop_traffic, roofline_time, LoopInvariants, RankContext, TrafficModel, TrafficOptions,
};

/// Identity of one rank curve: everything a point depends on but its rank
/// count.  Machines are identified by their preset id (`Machine::id`);
/// preset machines with equal ids are structurally identical, so equal keys
/// and equal rank counts imply bit-identical points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CurveKey {
    /// `Machine::id` of the evaluated machine, shared with the
    /// [`ScalingEngine`] that built the key: cloning a key allocates
    /// nothing.
    machine: Arc<str>,
    /// Square grid size in cells.
    grid: usize,
    /// Traffic-model options of the curve's points, `ranks` cleared to 0.
    opts: TrafficOptions,
}

/// One memoized rank curve: slot `r - 1` holds the point on `r` ranks once
/// it has been evaluated.  It has a slot for every rank count of the
/// machine, allocated by the curve's first lookup.
type Curve = Arc<[OnceLock<ScalingPoint>]>;

/// Sharded concurrent memo of evaluated [`ScalingPoint`]s, spanning a whole
/// sweep plan (or a whole `figures serve` daemon lifetime).
///
/// Points are held per rank curve: a [`FlightMemo`] maps each curve key
/// (machine, grid, options without the rank count) to a table with one slot
/// per rank count.  A run of consecutive rank counts
/// ([`ScalingEngine::run_memo`]) pays the keyed hash and the shard lock
/// once, then reads or fills its slots by index.  A slot is filled by the
/// first lookup that reaches it, outside every lock; concurrent lookups of
/// the same point wait for that evaluation and count as hits, so the
/// per-point hit/miss statistics are exact even under races, and an
/// evaluation that panics leaves its slot empty for the next lookup.
#[derive(Debug, Default)]
pub struct SweepMemo {
    curves: FlightMemo<CurveKey, Curve>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SweepMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The curve of `key`, with `slots` empty slots if it is new.
    fn curve(&self, key: CurveKey, slots: usize) -> Curve {
        self.curves
            .get_or_insert_with(key, || (0..slots).map(|_| OnceLock::new()).collect())
    }

    /// Number of memoized points.  Slots are never emptied, so this is the
    /// number of evaluations run.
    pub fn len(&self) -> usize {
        self.misses.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` of point lookups since construction.  Waiters of an
    /// in-flight evaluation count as hits, so `misses` is exactly the
    /// number of evaluations run.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// A tally of the point lookups of one curve lookup.
    fn tally(&self) -> Tally<'_> {
        Tally {
            memo: self,
            hits: 0,
            misses: 0,
        }
    }
}

/// The point lookups of one curve lookup, added to the memo's statistics
/// once, when the run ends — or unwinds from a panicking evaluation, so
/// that the points it did fill are counted.
struct Tally<'a> {
    memo: &'a SweepMemo,
    hits: u64,
    misses: u64,
}

impl Tally<'_> {
    /// The point in `slot`, evaluated by `evaluate` unless another lookup
    /// did (or is doing) so; a miss only if this lookup evaluated it.
    fn point(
        &mut self,
        slot: &OnceLock<ScalingPoint>,
        evaluate: impl FnOnce() -> ScalingPoint,
    ) -> ScalingPoint {
        let mut evaluated = false;
        let point = slot.get_or_init(|| {
            let point = evaluate();
            evaluated = true;
            point
        });
        if evaluated {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        point.clone()
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.memo.hits.fetch_add(self.hits, Ordering::Relaxed);
        self.memo.misses.fetch_add(self.misses, Ordering::Relaxed);
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
    /// The machine's id, as every curve key of this engine carries it.
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

    /// The machine the engine evaluates.
    pub fn machine(&self) -> &Machine {
        self.traffic.machine()
    }

    /// The grid size the engine evaluates.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// The slot of `ranks` in a per-rank table: `ranks - 1`, once the
    /// count is known to fit the machine.
    fn rank_slot(&self, ranks: usize) -> usize {
        let cores = self.machine().total_cores();
        assert!(
            (1..=cores).contains(&ranks),
            "{ranks} ranks on a {cores}-core machine"
        );
        ranks - 1
    }

    /// The invariants of `ranks` ranks, derived by the first caller.
    fn rank_invariants(&self, ranks: usize) -> &RankInvariants {
        let slot = self.rank_slot(ranks);
        let slots = self.by_rank.get_or_init(|| {
            (0..self.machine().total_cores())
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[slot].get_or_init(|| {
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
        assert_eq!(opts.ranks, ranks, "options of another rank count");
        let rank = self.rank_invariants(ranks);
        let machine = self.machine();
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

    /// The memoized curve `opts` lies on (`opts.ranks` is ignored).
    fn memo_curve(&self, opts: &TrafficOptions, memo: &SweepMemo) -> Curve {
        let key = CurveKey {
            machine: Arc::clone(&self.machine_id),
            grid: self.grid,
            opts: TrafficOptions { ranks: 0, ..*opts },
        };
        memo.curve(key, self.machine().total_cores())
    }

    /// The point of `curve` on `ranks` ranks (`opts.ranks` must be
    /// `ranks`), evaluated by the first lookup of its slot.
    fn curve_point(
        &self,
        curve: &Curve,
        ranks: usize,
        opts: &TrafficOptions,
        tally: &mut Tally,
    ) -> ScalingPoint {
        tally.point(&curve[self.rank_slot(ranks)], || self.point(ranks, opts))
    }

    /// Evaluate one rank count through a cross-sweep memo: one curve
    /// lookup and one slot.
    pub fn point_memo(
        &self,
        ranks: usize,
        opts: &TrafficOptions,
        memo: &SweepMemo,
    ) -> ScalingPoint {
        assert_eq!(opts.ranks, ranks, "options of another rank count");
        let curve = self.memo_curve(opts, memo);
        self.curve_point(&curve, ranks, opts, &mut memo.tally())
    }

    /// Evaluate the consecutive rank counts `ranks` under `opts` (its
    /// `ranks` is ignored; each point gets its own) through a cross-sweep
    /// memo: one curve lookup for the whole run, then one slot per point.
    /// Equal to [`point_memo`](Self::point_memo) of every rank count.
    pub fn run_memo(
        &self,
        ranks: RangeInclusive<usize>,
        opts: &TrafficOptions,
        memo: &SweepMemo,
    ) -> Vec<ScalingPoint> {
        let curve = self.memo_curve(opts, memo);
        let mut tally = memo.tally();
        ranks
            .map(|r| self.curve_point(&curve, r, &TrafficOptions { ranks: r, ..*opts }, &mut tally))
            .collect()
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
    fn a_panicked_evaluation_leaves_its_slot_to_the_next_lookup() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Barrier;
        use std::time::Duration;

        let engine = ScalingEngine::new(icelake_sp_8360y(), TINY_GRID);
        let memo = SweepMemo::new();
        let curve = engine.memo_curve(&TrafficOptions::original(1), &memo);
        let dies = || -> ScalingPoint { panic!("evaluation dies") };

        // Alone: the slot stays empty, nothing is counted, and the next
        // lookup evaluates the point.
        let died = catch_unwind(AssertUnwindSafe(|| memo.tally().point(&curve[18], dies)));
        assert!(died.is_err());
        assert!(curve[18].get().is_none());
        assert_eq!((memo.stats(), memo.len()), ((0, 0), 0));
        let opts = TrafficOptions::original(19);
        assert_eq!(engine.point_memo(19, &opts, &memo), engine.point(19, &opts));
        assert_eq!((memo.stats(), memo.len()), ((0, 1), 1));

        // With a lookup waiting on it: the waiter evaluates in its place.
        // Whether it blocks on the doomed evaluation or arrives after its
        // panic, the outcome is the same; the nap makes blocking likely.
        let opts = TrafficOptions::original(20);
        let in_flight = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let died = catch_unwind(AssertUnwindSafe(|| {
                    memo.tally().point(&curve[19], || {
                        in_flight.wait();
                        std::thread::sleep(Duration::from_millis(10));
                        panic!("evaluation dies mid-flight")
                    })
                }));
                assert!(died.is_err());
            });
            let waiter = scope.spawn(|| {
                in_flight.wait(); // the doomed evaluation is running
                engine.point_memo(20, &opts, &memo)
            });
            assert_eq!(waiter.join().unwrap(), engine.point(20, &opts));
        });
        assert_eq!((memo.stats(), memo.len()), ((0, 2), 2));
        let _ = engine.point_memo(20, &opts, &memo);
        assert_eq!(memo.stats(), (1, 2));
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
    }
}
