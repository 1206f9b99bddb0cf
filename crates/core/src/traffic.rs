//! Per-loop memory traffic / code balance model.
//!
//! For every hotspot loop the model combines
//!
//! * the structural bounds from the loop descriptor (layer condition,
//!   write-allocate candidates — Table I),
//! * the machine's SpecI2M behaviour (activation with bandwidth
//!   utilisation, streak-length response driven by the local inner
//!   dimension, stream-count response, node-population penalty),
//! * the chosen code variant (original, SpecI2M off, non-temporal stores +
//!   loop restructuring),
//!
//! into a predicted code balance in byte per iteration.  The refined
//! full-node model of Fig. 7 and the per-rank curves of Fig. 3 are both
//! produced by this module.  [`loop_kernel`] is the other side of Table I:
//! the same loop descriptor as a simulator kernel, whose measured balance
//! the prediction is checked against.

use std::sync::OnceLock;

use clover_cachesim::{AccessKind, KernelSpec, RankBase, SpecOperand};
use clover_machine::speci2m::SpecI2MResponse;
use clover_machine::{Machine, ReplacementPolicyKind, SpecI2MParams, WritePolicyKind};
use clover_stencil::{loop_catalogue, AccessMode, CodeBalance, LoopSpec};

use crate::decomp::Decomposition;

/// Code variant being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CodeVariant {
    /// The unmodified SPEChpc code: plain stores, hardware may apply
    /// SpecI2M where it can.
    Original,
    /// SpecI2M switched off via the MSR bit (plain stores, full
    /// write-allocates).
    SpecI2MOff,
    /// The paper's optimized version: `!DIR$ vector nontemporal` on each
    /// hotspot loop (one write stream per loop becomes NT) plus the
    /// restructuring of ac01/ac05 so SpecI2M applies to the second stream.
    Optimized,
}

/// Options of one traffic-model evaluation.  All fields are discrete, so
/// the options double as (part of) a memo key in the cross-sweep scaling
/// engine (`crate::engine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TrafficOptions {
    /// Code variant.
    pub variant: CodeVariant,
    /// Number of ranks (compact pinning).
    pub ranks: usize,
    /// Whether the layer condition is fulfilled.  `true` is what
    /// `LayerCondition::evaluate` finds for every catalogue loop at every
    /// rank count of every preset on the Tiny grid
    /// (`tests/integration.rs::layer_condition_holds_at_every_rank_count_of_every_preset`);
    /// `false` is a what-if.
    pub layer_condition_ok: bool,
    /// Cache replacement policy of the modelled hierarchy.  Non-LRU
    /// policies hold stencil rows less reliably, pushing the read balance
    /// from the LC-fulfilled towards the LC-broken value.
    pub replacement: ReplacementPolicyKind,
    /// Store-miss policy of the modelled hierarchy.
    pub write_policy: WritePolicyKind,
}

impl TrafficOptions {
    /// Original code on `ranks` ranks with the layer condition satisfied.
    pub fn original(ranks: usize) -> Self {
        Self::for_variant(CodeVariant::Original, ranks)
    }

    /// Optimized code (NT stores + restructuring) on `ranks` ranks.
    pub fn optimized(ranks: usize) -> Self {
        Self::for_variant(CodeVariant::Optimized, ranks)
    }

    /// Original code with SpecI2M disabled.
    pub fn speci2m_off(ranks: usize) -> Self {
        Self::for_variant(CodeVariant::SpecI2MOff, ranks)
    }

    /// Options for an arbitrary code variant on `ranks` ranks — the hook the
    /// sweep engine uses to map a scenario stage onto the traffic model.
    /// The layer condition defaults to satisfied (true for the Tiny working
    /// set on all evaluated machines).
    pub fn for_variant(variant: CodeVariant, ranks: usize) -> Self {
        Self {
            variant,
            ranks,
            layer_condition_ok: true,
            replacement: ReplacementPolicyKind::default(),
            write_policy: WritePolicyKind::default(),
        }
    }

    /// Override the layer-condition assumption (what-if sweeps on grids too
    /// large for the caches).
    pub fn with_layer_condition(mut self, ok: bool) -> Self {
        self.layer_condition_ok = ok;
        self
    }

    /// Model a different cache replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicyKind) -> Self {
        self.replacement = replacement;
        self
    }

    /// Model a different store-miss policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicyKind) -> Self {
        self.write_policy = write_policy;
        self
    }
}

/// Traffic prediction for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopTraffic {
    /// Loop label.
    pub name: String,
    /// Structural code-balance bounds (Table I).
    pub bounds: CodeBalance,
    /// Predicted read traffic per iteration (bytes).
    pub read_bytes_per_it: f64,
    /// Predicted write traffic per iteration (bytes).
    pub write_bytes_per_it: f64,
    /// Fraction of evadable write-allocates actually evaded.
    pub evasion_fraction: f64,
    /// Flops per iteration.
    pub flops_per_it: f64,
}

impl LoopTraffic {
    /// Total predicted code balance (byte/it).
    pub fn code_balance(&self) -> f64 {
        self.read_bytes_per_it + self.write_bytes_per_it
    }

    /// Roofline time per iteration (seconds) at memory bandwidth `bw`
    /// (byte/s) and peak in-core performance `peak_flops` (flop/s).
    pub fn time_per_iteration(&self, bw: f64, peak_flops: f64) -> f64 {
        roofline_time(self.code_balance(), self.flops_per_it, bw, peak_flops)
    }
}

/// Roofline time per iteration (seconds) of a loop moving `balance` byte/it
/// and executing `flops` flop/it.
pub(crate) fn roofline_time(balance: f64, flops: f64, bw: f64, peak_flops: f64) -> f64 {
    let mem = balance / bw.max(1.0);
    let core = flops / peak_flops.max(1.0);
    mem.max(core)
}

/// Everything of a loop-traffic prediction that depends on the loop but on
/// no evaluated point: the Table I model inputs and bounds of its
/// descriptor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopInvariants {
    rd_lcf: f64,
    rd_lcb: f64,
    wr: f64,
    evadable: f64,
    has_branches: bool,
    speci2m_blocked: bool,
    /// Structural code-balance bounds (carry the flops per iteration).
    pub(crate) bounds: CodeBalance,
}

impl LoopInvariants {
    pub(crate) fn from_spec(spec: &LoopSpec) -> Self {
        Self {
            rd_lcf: spec.rd_lcf() as f64,
            rd_lcb: spec.rd_lcb() as f64,
            wr: spec.wr() as f64,
            evadable: spec.evadable_write_streams() as f64,
            has_branches: spec.has_branches,
            speci2m_blocked: spec.speci2m_blocked,
            bounds: CodeBalance::from_spec(spec),
        }
    }

    /// The invariants of every loop of `clover_stencil::loop_catalogue`, in
    /// catalogue order, derived once per process.
    pub(crate) fn of_catalogue() -> &'static [LoopInvariants] {
        static TABLE: OnceLock<Vec<LoopInvariants>> = OnceLock::new();
        TABLE.get_or_init(|| loop_catalogue().iter().map(Self::from_spec).collect())
    }
}

/// Everything of a loop-traffic prediction that depends on the rank count
/// (and, through its decomposition, the grid) but on neither the loop nor
/// the options: derived once per `(machine, grid, ranks)` and shared by
/// every loop and option combination evaluated there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankContext {
    /// Short-row halo overhead factor (one extra line per row and stream).
    row_overhead: f64,
    /// SpecI2M response at the rank count's occupancy and store streak
    /// length (a grid row of `local_inner` doubles); only the stream count
    /// is left to the loop.
    response: SpecI2MResponse,
    /// Speculative-read fraction of an unblocked loop.
    speculative_reads: f64,
    /// Early-flush read fraction of non-temporal stores.
    nt_flush: f64,
}

/// A [`RankContext`] with what the options add to it: everything of a
/// loop-traffic prediction that does not depend on the loop, shared by all
/// 22 catalogue loops of one point.
pub(crate) struct PointContext<'a> {
    rank: &'a RankContext,
    /// SpecI2M parameter block of the machine.
    params: &'a SpecI2MParams,
    /// Reuse efficiency of the modelled replacement policy.
    reuse_efficiency: f64,
}

/// Predicted traffic of one loop at one point.
pub(crate) struct LoopBytes {
    /// Read traffic per iteration (bytes).
    pub(crate) read: f64,
    /// Write traffic per iteration (bytes).
    pub(crate) write: f64,
    /// Fraction of evadable write-allocates actually evaded.
    pub(crate) evasion: f64,
}

/// The paper's first-principles traffic formula for one hotspot loop: the
/// structural inputs of `inv` refined by the SpecI2M response, the code
/// variant and the cache policies of `opts` at the point described by
/// `ctx`.
pub(crate) fn loop_traffic(
    inv: &LoopInvariants,
    opts: &TrafficOptions,
    ctx: &PointContext<'_>,
) -> LoopBytes {
    let elem = 8.0;

    // An imperfect replacement policy evicts held stencil rows with
    // probability (1 - reuse efficiency), blending the read balance
    // from the LC-fulfilled towards the LC-broken value.  LRU has
    // efficiency 1, so the default takes the exact LCF branch.
    let eff = ctx.reuse_efficiency;
    let rd_base = if opts.layer_condition_ok {
        if eff >= 1.0 {
            inv.rd_lcf
        } else {
            inv.rd_lcf + (inv.rd_lcb - inv.rd_lcf) * (1.0 - eff)
        }
    } else {
        inv.rd_lcb
    };
    let mut evadable = inv.evadable;
    let rank = ctx.rank;

    // Halo overhead of short rows: each read stream fetches up to one
    // extra cache line per row (Sec. V-C); partial first/last lines of
    // the written rows add the same overhead on the write-allocate side.
    let read_halo_overhead = rd_base * elem * rank.row_overhead;

    // Loops whose stores the hardware fails to recognise (ac01/ac05 in
    // the original code) and branchy loops (ac02/ac06) see no SpecI2M in
    // the original variant; the optimized variant restructures ac01/ac05.
    let blocked = match opts.variant {
        CodeVariant::Original => inv.speci2m_blocked || inv.has_branches,
        CodeVariant::Optimized => inv.has_branches,
        CodeVariant::SpecI2MOff => true,
    };

    let mut nt_streams = 0.0;
    if opts.variant == CodeVariant::Optimized && evadable >= 1.0 {
        // The compiler applies the NT directive to exactly one
        // (alignable) write stream; the rest stays with SpecI2M.
        nt_streams = 1.0;
        evadable -= 1.0;
    }

    match opts.write_policy {
        // The paper machines: store misses allocate, SpecI2M may evade.
        WritePolicyKind::Allocate => {}
        // No-write-allocate hardware never reads for ownership: no WA
        // reads, no speculative reads, and the NT directive is moot.
        WritePolicyKind::NoAllocate => {
            nt_streams = 0.0;
            evadable = 0.0;
        }
        // Every store behaves like a streaming store: all evadable
        // streams move to the NT path (partial-flush reads only).
        WritePolicyKind::NonTemporal => {
            nt_streams += evadable;
            evadable = 0.0;
        }
    }

    let (evasion, spec_read) = if blocked {
        (0.0, 0.0)
    } else {
        // SpecI2M sees every written array as one concurrent store stream.
        let store_streams = (inv.wr as usize).max(1);
        (
            ctx.params.evasion_at(&rank.response, store_streams),
            rank.speculative_reads,
        )
    };

    // Reads: leading elements + non-evaded write-allocates + speculative
    // reads + NT partial flushes + short-row halo overhead.
    let wa_reads = evadable * elem * (1.0 - evasion);
    let speculative = evadable * elem * spec_read;
    let nt_reads = nt_streams * elem * rank.nt_flush;
    let read = rd_base * elem + wa_reads + speculative + nt_reads + read_halo_overhead;

    // Writes: every written element reaches memory once; partial lines
    // at row boundaries add up to one extra line per row and stream.
    let write_halo_overhead = inv.wr * elem * rank.row_overhead * 0.5;
    let write = inv.wr * elem + write_halo_overhead;

    LoopBytes {
        read,
        write,
        evasion,
    }
}

/// The per-loop traffic model for one machine.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    machine: Machine,
}

impl TrafficModel {
    /// Create a model for `machine`.
    pub fn new(machine: Machine) -> Self {
        Self { machine }
    }

    /// Borrow the machine description.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The option- and loop-independent state of a prediction on `ranks`
    /// compactly pinned ranks with the local domains of `decomp`.
    pub(crate) fn rank_context(&self, ranks: usize, decomp: &Decomposition) -> RankContext {
        let machine = &self.machine;
        // The MSR switch of `CodeVariant::SpecI2MOff` is `loop_traffic`'s
        // `blocked`: that variant never reads the response.
        let params = &machine.speci2m;
        let local_inner = decomp.typical_local_inner().max(1);
        let (full_domains, cores_per_domain, remainder) = machine.topology.compact_loads(ranks);
        let active_domains = (full_domains + usize::from(remainder > 0)).max(1);
        let busiest = if full_domains > 0 {
            cores_per_domain
        } else {
            remainder
        };
        let domain_utilization = machine.domain_utilization(busiest);
        let total_domains = machine.topology.domains.len();
        let response = params.response(
            domain_utilization,
            active_domains,
            total_domains,
            (local_inner as f64 * 8.0 / 64.0).max(1.0),
        );
        RankContext {
            row_overhead: 8.0 / (local_inner as f64 + 8.0),
            response,
            speculative_reads: params.speculative_reads_at(&response),
            nt_flush: params.nt_partial_flush_fraction(
                domain_utilization,
                active_domains,
                total_domains,
            ),
        }
    }

    /// `rank` completed by the options of one point.
    pub(crate) fn point_context<'a>(
        &'a self,
        rank: &'a RankContext,
        opts: &TrafficOptions,
    ) -> PointContext<'a> {
        PointContext {
            rank,
            params: &self.machine.speci2m,
            reuse_efficiency: opts.replacement.reuse_efficiency(),
        }
    }

    /// The prediction for `spec`, whose model inputs are derived from the
    /// descriptor here, at call time.
    fn predict_in(spec: &LoopSpec, opts: &TrafficOptions, ctx: &PointContext<'_>) -> LoopTraffic {
        let inv = LoopInvariants::from_spec(spec);
        let bytes = loop_traffic(&inv, opts, ctx);
        LoopTraffic {
            name: spec.name.clone(),
            bounds: inv.bounds,
            read_bytes_per_it: bytes.read,
            write_bytes_per_it: bytes.write,
            evasion_fraction: bytes.evasion,
            flops_per_it: inv.bounds.flops,
        }
    }

    /// Predict the traffic of a single loop for the given options and
    /// decomposition.
    pub fn predict_loop(
        &self,
        spec: &LoopSpec,
        opts: &TrafficOptions,
        decomp: &Decomposition,
    ) -> LoopTraffic {
        let rank = self.rank_context(opts.ranks, decomp);
        Self::predict_in(spec, opts, &self.point_context(&rank, opts))
    }

    /// Predict the traffic of every catalogue loop.
    pub fn predict_all(&self, opts: &TrafficOptions, decomp: &Decomposition) -> Vec<LoopTraffic> {
        let rank = self.rank_context(opts.ranks, decomp);
        let ctx = self.point_context(&rank, opts);
        loop_catalogue()
            .iter()
            .map(|spec| Self::predict_in(spec, opts, &ctx))
            .collect()
    }
}

/// Hotspot loop `spec` as a simulator kernel: its arrays and stencil points
/// swept over a band of `rows` grid rows of `local_inner` elements — what
/// the simulator "measures" where the paper measured Table I.
///
/// Tracing all 15360² iterations of the Tiny working set is infeasible, and
/// a streaming stencil's traffic is periodic in the rows, so a band
/// suffices.  Each array is its own page-aligned allocation, one page or
/// more apart, at an address every rank shares; an array the loop reads and
/// writes is loaded, then stored, at each of its points.  The busiest core
/// of `ranks` compactly pinned ranks measures
/// `NodeSim::new(SimConfig::new(machine, ranks)).run_spmd_memo(&kernel,
/// &memo).per_rank`.
pub fn loop_kernel(spec: &LoopSpec, local_inner: u64, rows: u64) -> KernelSpec {
    // Halo elements on each side of a row, and halo rows around the band.
    const HALO: u64 = 2;
    let row_stride = local_inner + 2 * HALO;
    let array_bytes = row_stride * (rows + 2 * HALO) * 8;
    let gap = (array_bytes / 4096 + 2) * 4096;
    let operands = spec
        .arrays
        .iter()
        .enumerate()
        .flat_map(|(idx, arr)| {
            // `+`, not `|`: a full Tiny band's arrays reach past bit 33.
            let offset = (1u64 << 33) + idx as u64 * gap;
            let points: Vec<(i64, i64)> = arr
                .offsets
                .iter()
                .map(|&(di, dk)| (di.into(), dk.into()))
                .collect();
            let kinds: &[AccessKind] = match arr.mode {
                AccessMode::Read => &[AccessKind::Load],
                AccessMode::Write => &[AccessKind::Store],
                AccessMode::ReadWrite => &[AccessKind::Load, AccessKind::Store],
            };
            kinds.iter().map(move |&kind| SpecOperand {
                offset,
                points: points.clone(),
                kind,
            })
        })
        .collect();
    KernelSpec {
        rank_base: RankBase::Shared,
        operands,
        row_stride,
        i0: HALO,
        inner: local_inner,
        k0: HALO,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TINY_GRID;
    use clover_cachesim::hierarchy::{CoreSimOptions, DomainOccupancy, OccupancyContext};
    use clover_cachesim::{AccessRun, CoreSim, NodeSim, SimConfig, SimMemo};
    use clover_machine::icelake_sp_8360y;
    use clover_stencil::{cloverleaf_loops, loop_by_name, ArrayAccess};

    fn model() -> TrafficModel {
        TrafficModel::new(icelake_sp_8360y())
    }

    fn decomp(ranks: usize) -> Decomposition {
        Decomposition::new(ranks, TINY_GRID, TINY_GRID)
    }

    /// Simulated code balance (byte/it) of the busiest of `ranks` compactly
    /// pinned ICX cores sweeping `spec` over `rows` rows of `local_inner`
    /// elements.
    fn replayed_balance(spec: &LoopSpec, local_inner: u64, rows: u64, ranks: usize) -> f64 {
        let kernel = loop_kernel(spec, local_inner, rows);
        let sim = NodeSim::new(SimConfig::new(icelake_sp_8360y(), ranks));
        let counters = sim.run_spmd_memo(&kernel, &SimMemo::new()).per_rank;
        counters.total_bytes() / kernel.iterations() as f64
    }

    #[test]
    fn replay_matches_scalar_reference() {
        // The replay runs on the batched line-run path; it must be
        // bit-identical to feeding every hotspot loop element by element.
        let m = icelake_sp_8360y();
        for spec in cloverleaf_loops() {
            let sweep = loop_kernel(&spec, 216, 16).sweep(0);
            let mk = || -> CoreSim {
                CoreSim::new(
                    &m,
                    OccupancyContext::compact(&m, m.total_cores()),
                    CoreSimOptions {
                        l3_sharers: 36,
                        ..Default::default()
                    },
                )
            };
            let mut fast = mk();
            let mut slow = mk();
            sweep.drive(&mut fast);
            // The same accesses one element at a time, in loop order.
            for k in sweep.k0..sweep.k0 + sweep.rows {
                for i in sweep.i0..sweep.i0 + sweep.inner {
                    for op in &sweep.operands {
                        for &(di, dk) in &op.offsets {
                            let idx = (k as i64 + dk) * sweep.row_stride as i64 + i as i64 + di;
                            slow.drive_run(AccessRun {
                                base: op.base + 8 * idx as u64,
                                elements: 1,
                                kind: op.kind,
                            });
                        }
                    }
                }
            }
            assert_eq!(fast.cache_stats(), slow.cache_stats(), "{}", spec.name);
            assert_eq!(fast.flush(), slow.flush(), "{}", spec.name);
        }
    }

    #[test]
    fn reset_field_balance_matches_hand_count() {
        // CloverLeaf's reset_field copies four arrays (density, energy and
        // both velocities: `*0 = *1`).  Serial, without evasion: 8 B read +
        // 8 B write-allocate + 8 B write per array pair → 4 × 24 = 96 B/it.
        let reset_field = LoopSpec {
            name: "reset_field".into(),
            function: "reset_field".into(),
            arrays: ["density", "energy", "xvel", "yvel"]
                .iter()
                .flat_map(|f| {
                    [
                        ArrayAccess::read(&format!("{f}1"), &[(0, 0)]),
                        ArrayAccess::write(&format!("{f}0")),
                    ]
                })
                .collect(),
            flops: 0,
            has_branches: false,
            speci2m_blocked: false,
        };
        let b = replayed_balance(&reset_field, 1920, 24, 1);
        assert!((90.0..=102.0).contains(&b), "reset_field {b} byte/it");
    }

    #[test]
    fn full_node_occupancy_lowers_the_balance() {
        let total = |ranks: usize| -> f64 {
            cloverleaf_loops()
                .iter()
                .map(|spec| replayed_balance(spec, 1920, 12, ranks))
                .sum()
        };
        let (serial, node) = (total(1), total(72));
        assert!(node < serial - 10.0, "node {node} vs serial {serial}");
    }

    #[test]
    fn every_timestep_kernel_is_replayed() {
        // Every hotspot loop of the timestep becomes a kernel the simulator
        // replays with traffic on both sides of the memory interface.
        let m = icelake_sp_8360y();
        let loops = cloverleaf_loops();
        assert_eq!(loops.len(), 22);
        for spec in &loops {
            let kernel = loop_kernel(spec, 256, 8);
            assert_eq!(kernel.iterations(), 256 * 8, "{}", spec.name);
            let counters = NodeSim::new(SimConfig::new(m.clone(), 4))
                .run_spmd_memo(&kernel, &SimMemo::new())
                .per_rank;
            assert!(counters.read_bytes() > 0.0, "{}", spec.name);
            assert!(counters.write_bytes() > 0.0, "{}", spec.name);
            let b = counters.total_bytes() / kernel.iterations() as f64;
            assert!(b > 8.0, "{}: {b} byte/it", spec.name);
        }
    }

    #[test]
    fn memoized_replay_is_bit_identical() {
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let loops = cloverleaf_loops();
        for ranks in [1usize, 18, 19, 72] {
            let sim = NodeSim::new(SimConfig::new(m.clone(), ranks));
            for spec in &loops {
                let kernel = loop_kernel(spec, 256, 8);
                let memoized = sim.run_spmd_memo(&kernel, &memo).per_rank;
                // The unmemoized reference: a fresh core driven directly.
                let occ = DomainOccupancy::compact(&m, ranks);
                let mut core: CoreSim = CoreSim::new(
                    &m,
                    OccupancyContext::compact(&m, ranks),
                    CoreSimOptions {
                        l3_sharers: DomainOccupancy::l3_sharers(&m, occ.busiest),
                        ..Default::default()
                    },
                );
                kernel.drive(0, &mut core);
                assert_eq!(core.flush(), memoized, "{} ranks={ranks}", spec.name);
            }
        }
        // Ranks 19 and 72 share no context, but a second pass over any rank
        // count is free.
        let before = memo.stats().misses;
        let sim = NodeSim::new(SimConfig::new(m.clone(), 18));
        for spec in &loops {
            let _ = sim.run_spmd_memo(&loop_kernel(spec, 256, 8), &memo);
        }
        assert_eq!(memo.stats().misses, before, "second pass must be hits");
    }

    #[test]
    fn sweeps_respect_field_layout() {
        // ac03 updates density1 and energy1 in place.
        let spec = loop_by_name("ac03").unwrap();
        let sweep = loop_kernel(&spec, 100, 10).sweep(0);
        // Two halo elements on each side of a row, two halo rows above.
        assert_eq!(sweep.row_stride, 104);
        assert_eq!(sweep.inner, 100);
        assert_eq!(sweep.rows, 10);
        assert_eq!(sweep.i0, 2);
        assert_eq!(sweep.k0, 2);
        // One page-aligned base per array; a read-modify-write array is one
        // load followed by one store at the same base.
        let rw = spec
            .arrays
            .iter()
            .filter(|a| a.mode == AccessMode::ReadWrite)
            .count();
        assert_eq!(rw, 2);
        assert_eq!(sweep.operands.len(), spec.arrays.len() + rw);
        for pair in sweep.operands.windows(2) {
            if pair[0].base == pair[1].base {
                assert_eq!(
                    (pair[0].kind, pair[1].kind),
                    (AccessKind::Load, AccessKind::Store)
                );
            }
        }
        let mut bases: Vec<u64> = sweep.operands.iter().map(|o| o.base).collect();
        assert!(bases.iter().all(|b| b % 4096 == 0));
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), spec.arrays.len());
    }

    #[test]
    fn loop_kernel_arrays_never_overlap_on_the_full_tiny_grid() {
        // pdv01 has 13 arrays; one band of 15360 rows of 15360 elements
        // puts the last of them past bit 33 of the address, where an `|`
        // in place of the `+` made neighbours overlap.  An array spans its
        // halo'd rows, two halo rows above and below the band included.
        let k = loop_kernel(&loop_by_name("pdv01").unwrap(), 15_360, 15_360);
        let array_bytes = k.row_stride * (k.rows + 4) * 8;
        let mut bases: Vec<u64> = k.operands.iter().map(|op| op.offset).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 13);
        for pair in bases.windows(2) {
            assert!(
                pair[1] - pair[0] >= array_bytes,
                "arrays at {:#x} and {:#x} overlap ({array_bytes} bytes each)",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn single_core_matches_lcf_wa_bound() {
        // Table I: the single-core measurement equals the LCF+WA case within
        // a few percent for every loop.
        let m = model();
        for spec in clover_stencil::cloverleaf_loops() {
            let t = m.predict_loop(&spec, &TrafficOptions::original(1), &decomp(1));
            let rel = (t.code_balance() - t.bounds.lcf_wa).abs() / t.bounds.lcf_wa;
            assert!(
                rel < 0.03,
                "{}: predicted {} vs LCF,WA {}",
                spec.name,
                t.code_balance(),
                t.bounds.lcf_wa
            );
        }
    }

    #[test]
    fn full_node_am04_drops_towards_minimum() {
        let m = model();
        let spec = loop_by_name("am04").unwrap();
        let serial = m.predict_loop(&spec, &TrafficOptions::original(1), &decomp(1));
        let node = m.predict_loop(&spec, &TrafficOptions::original(72), &decomp(72));
        assert!(node.code_balance() < serial.code_balance());
        // The refined model lands between the min (16) and LCF+WA (24).
        assert!(node.code_balance() > node.bounds.min);
        assert!(node.code_balance() < node.bounds.lcf_wa);
    }

    #[test]
    fn speci2m_off_keeps_single_core_balance_at_all_rank_counts() {
        let m = model();
        let spec = loop_by_name("am04").unwrap();
        let node = m.predict_loop(&spec, &TrafficOptions::speci2m_off(72), &decomp(72));
        // Without SpecI2M the balance stays near the LCF+WA value (modulo
        // the small halo overhead of the 1920-element rows).
        assert!((node.code_balance() - node.bounds.lcf_wa).abs() / node.bounds.lcf_wa < 0.05);
        assert_eq!(node.evasion_fraction, 0.0);
    }

    #[test]
    fn prime_rank_counts_have_higher_balance_than_neighbours() {
        let m = model();
        let spec = loop_by_name("am04").unwrap();
        let balance = |ranks: usize| {
            m.predict_loop(&spec, &TrafficOptions::original(ranks), &decomp(ranks))
                .code_balance()
        };
        // 71 is prime (216-element rows); 72 decomposes 8×9 (1920-element rows).
        assert!(
            balance(71) > balance(72) * 1.05,
            "71: {} vs 72: {}",
            balance(71),
            balance(72)
        );
        assert!(
            balance(37) > balance(36) * 1.04,
            "37: {} vs 36: {}",
            balance(37),
            balance(36)
        );
    }

    #[test]
    fn class_iii_loops_are_insensitive_to_speci2m() {
        // am07, am11, ac03, ac07 have no evadable write stream: their
        // balance must be identical with and without SpecI2M.
        let m = model();
        for name in ["am07", "am11", "ac03", "ac07"] {
            let spec = loop_by_name(name).unwrap();
            let on = m.predict_loop(&spec, &TrafficOptions::original(72), &decomp(72));
            let off = m.predict_loop(&spec, &TrafficOptions::speci2m_off(72), &decomp(72));
            assert!(
                (on.code_balance() - off.code_balance()).abs() < 1e-9,
                "{name}: {} vs {}",
                on.code_balance(),
                off.code_balance()
            );
        }
    }

    #[test]
    fn blocked_loops_do_not_profit_in_original_but_do_when_optimized() {
        let m = model();
        for name in ["ac01", "ac05"] {
            let spec = loop_by_name(name).unwrap();
            let orig = m.predict_loop(&spec, &TrafficOptions::original(72), &decomp(72));
            let opt = m.predict_loop(&spec, &TrafficOptions::optimized(72), &decomp(72));
            assert_eq!(
                orig.evasion_fraction, 0.0,
                "{name} blocked in original code"
            );
            assert!(
                opt.code_balance() < orig.code_balance(),
                "{name} must improve when optimized"
            );
        }
    }

    #[test]
    fn optimized_variant_improves_average_balance_by_a_few_percent() {
        // Fig. 7: the optimized version achieves on average 5.8 % lower code
        // balance (maximum 23.2 %).
        let m = model();
        let d = decomp(72);
        let orig = m.predict_all(&TrafficOptions::original(72), &d);
        let opt = m.predict_all(&TrafficOptions::optimized(72), &d);
        let rel_impr: Vec<f64> = orig
            .iter()
            .zip(&opt)
            .map(|(o, n)| (o.code_balance() - n.code_balance()) / o.code_balance())
            .collect();
        let avg = rel_impr.iter().sum::<f64>() / rel_impr.len() as f64;
        let max = rel_impr.iter().cloned().fold(f64::MIN, f64::max);
        assert!(avg > 0.02 && avg < 0.12, "average improvement {avg}");
        assert!(max > 0.10 && max < 0.30, "max improvement {max}");
        assert!(
            rel_impr.iter().all(|&r| r > -1e-9),
            "optimization must never hurt"
        );
    }

    #[test]
    fn policy_axes_shift_the_balance_in_the_expected_direction() {
        let m = model();
        let spec = loop_by_name("am04").unwrap();
        let base = TrafficOptions::original(1);
        let lru = m.predict_loop(&spec, &base, &decomp(1));
        // Imperfect replacement: balance rises towards the LC-broken value
        // but never beyond it.
        let random = m.predict_loop(
            &spec,
            &base.with_replacement(ReplacementPolicyKind::Random),
            &decomp(1),
        );
        let broken = m.predict_loop(&spec, &base.with_layer_condition(false), &decomp(1));
        assert!(random.code_balance() > lru.code_balance());
        assert!(random.code_balance() <= broken.code_balance() + 1e-9);
        // Policy ordering follows the reuse efficiencies.
        let plru = m.predict_loop(
            &spec,
            &base.with_replacement(ReplacementPolicyKind::Plru),
            &decomp(1),
        );
        assert!(plru.code_balance() < random.code_balance());
        // No-write-allocate removes the WA reads entirely: serial balance
        // drops below the LRU+WA value.
        let nowa = m.predict_loop(
            &spec,
            &base.with_write_policy(WritePolicyKind::NoAllocate),
            &decomp(1),
        );
        assert!(nowa.code_balance() < lru.code_balance());
        // Forcing all stores non-temporal also avoids WA reads serially.
        let nt = m.predict_loop(
            &spec,
            &base.with_write_policy(WritePolicyKind::NonTemporal),
            &decomp(1),
        );
        assert!(nt.code_balance() < lru.code_balance());
        assert!(nt.code_balance() >= nowa.code_balance() - 1e-9);
    }

    #[test]
    fn roofline_time_is_memory_bound_for_hotspot_loops() {
        let m = model();
        let spec = loop_by_name("pdv00").unwrap();
        let t = m.predict_loop(&spec, &TrafficOptions::original(18), &decomp(18));
        let machine = icelake_sp_8360y();
        let bw_per_rank = machine.domain_bandwidth() / 18.0;
        let mem_time = t.code_balance() / bw_per_rank;
        assert!(
            (t.time_per_iteration(bw_per_rank, machine.core_peak_flops()) - mem_time).abs() < 1e-15
        );
    }

    #[test]
    fn predict_all_covers_all_loops() {
        let m = model();
        let all = m.predict_all(&TrafficOptions::original(36), &decomp(36));
        assert_eq!(all.len(), 22);
        assert!(all.iter().all(|t| t.code_balance() > 0.0));
    }
}
