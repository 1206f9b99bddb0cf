//! Shared-LLC interference evaluation for contended scenarios.
//!
//! A scenario with a non-default [`Aggressor`] models a *multi-tenant*
//! node: next to each CloverLeaf rank, a competing kernel stream runs on a
//! sibling core of the same ccNUMA domain and fights for the shared
//! last-level cache.  The analytic scaling model knows nothing about
//! cache contention, so this module derives a per-scenario **victim
//! traffic inflation factor** from first principles: a two-tenant co-run
//! of the cache simulator ([`NodeSim::run_corun`]) pits a CloverLeaf-like
//! reuse proxy against the scenario's aggressor on one shared LLC, and the
//! ratio of the victim's memory traffic there to its traffic alone on the
//! same tenancy ([`victim_contention`] pairs the two passes) scales the
//! model's per-step volume and time.
//!
//! The proxy footprints are derived from the machine's LLC capacity, so
//! the same aggressor thrashes a 54 MiB Ice Lake LLC and a 2 MiB CVA6 LLC
//! alike; the simulation is deterministic, so the factor — and every
//! artifact byte derived from it — is reproducible.

use clover_cachesim::{
    AccessKind, KernelSpec, NodeSim, RankBase, SimConfig, SimMemo, SpecOperand, TenantReport,
    LINE_BYTES,
};
use clover_machine::Machine;

use crate::plan::Aggressor;

/// Rank-window shift of the tenant kernels: 2^40 bytes per tenant, far
/// above every proxy footprint, so the windows are always disjoint (and
/// memo-exact, being above `MIN_MEMO_SHIFT`).
pub const TENANT_SHIFT: u32 = 40;

/// A reuse kernel: `passes` sweeps over the same `bytes`-sized window.
fn reuse_kernel(bytes: u64, passes: u64, kind: AccessKind) -> KernelSpec {
    let elements = (bytes / 8).max(1);
    KernelSpec {
        rank_base: RankBase::Shifted {
            shift: TENANT_SHIFT,
            plus: 0,
        },
        operands: vec![SpecOperand {
            offset: 0,
            points: vec![(0, 0)],
            kind,
        }],
        // A zero row stride makes every row revisit the same elements.
        row_stride: 0,
        i0: 0,
        inner: elements,
        k0: 0,
        rows: passes.max(1),
    }
}

/// A single-pass streaming kernel over `bytes` per operand.
fn stream_kernel(bytes: u64, kinds: &[AccessKind]) -> KernelSpec {
    let elements = (bytes / 8).max(1);
    KernelSpec {
        rank_base: RankBase::Shifted {
            shift: TENANT_SHIFT,
            plus: 0,
        },
        operands: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| SpecOperand {
                // Separate sub-windows per stream, line-aligned.
                offset: i as u64 * bytes.next_multiple_of(LINE_BYTES) * 2,
                points: vec![(0, 0)],
                kind,
            })
            .collect(),
        row_stride: elements.max(1),
        i0: 0,
        inner: elements,
        k0: 0,
        rows: 1,
    }
}

/// The victim proxy: a read-reuse working set of a quarter of the LLC —
/// larger than any private level, solo-resident in the shared LLC, and the
/// shape CloverLeaf's field arrays take under the paper's layer condition.
pub fn victim_kernel(machine: &Machine) -> KernelSpec {
    reuse_kernel(
        machine.caches.l3.capacity_bytes as u64 / 4,
        3,
        AccessKind::Load,
    )
}

/// The aggressor kernel of `aggressor` on `machine`, or `None` for the
/// exclusive-node default.
pub fn aggressor_kernel(machine: &Machine, aggressor: Aggressor) -> Option<KernelSpec> {
    let llc = machine.caches.l3.capacity_bytes as u64;
    match aggressor {
        Aggressor::None => None,
        Aggressor::Stream => Some(stream_kernel(llc, &[AccessKind::Load])),
        Aggressor::StreamHeavy => {
            Some(stream_kernel(llc, &[AccessKind::Load, AccessKind::StoreNT]))
        }
        Aggressor::Thrash => Some(reuse_kernel(llc, 2, AccessKind::Load)),
    }
}

/// A victim beside an aggressor and alone: two passes on the same
/// two-core tenancy, so every delta isolates pure interference
/// (competition for the shared level) from capacity effects.
#[derive(Debug, Clone, PartialEq)]
pub struct Contention {
    /// The victim co-run with the aggressor.
    pub contended: TenantReport,
    /// The victim alone on the tenancy's LLC.
    pub solo: TenantReport,
    /// Capacity of the tenancy's shared LLC in lines.
    pub llc_lines: u64,
}

impl Contention {
    /// Extra shared-LLC misses caused by contention (negative when the
    /// co-run happened to hit more, which disjoint windows make rare).
    pub fn extra_llc_misses(&self) -> f64 {
        self.contended.llc_misses as f64 - self.solo.llc_misses as f64
    }

    /// Extra memory read lines caused by contention.
    pub fn extra_read_lines(&self) -> f64 {
        self.contended.counters.read_lines - self.solo.counters.read_lines
    }

    /// Extra write-allocate traffic caused by contention: what the paper's
    /// evasion machinery keeps low and an aggressor's flushing erodes.
    pub fn extra_write_allocate_lines(&self) -> f64 {
        self.contended.counters.write_allocate_lines - self.solo.counters.write_allocate_lines
    }

    /// Fraction of the shared LLC the contended victim holds at the end.
    pub fn occupancy_fraction(&self) -> f64 {
        self.contended.occupancy_lines as f64 / self.llc_lines.max(1) as f64
    }
}

/// Simulate `victim` beside `aggressor`'s kernel and alone on `machine`'s
/// two-core tenancy — the one place that pairs a contended tenant with its
/// baseline.  The victim is the primary of both passes: the contended one
/// stops once the victim's report is final, whatever the aggressor has
/// left to do.  The baseline is one memo entry per victim, shared by every
/// aggressor and interleave; for [`Aggressor::None`] it is both halves.
pub fn victim_contention(
    machine: &Machine,
    victim: &KernelSpec,
    aggressor: Aggressor,
    interleave: u64,
    memo: &SimMemo,
) -> Contention {
    let sim = NodeSim::new(SimConfig::new(machine.clone(), 2));
    let pass = |tenants: &[KernelSpec]| sim.run_corun(tenants, interleave, memo);
    let alone = pass(std::slice::from_ref(victim));
    let contended = match aggressor_kernel(machine, aggressor) {
        None => alone.primary.clone(),
        Some(a) => pass(&[victim.clone(), a]).primary,
    };
    Contention {
        contended,
        solo: alone.primary,
        llc_lines: alone.llc_lines,
    }
}

/// The victim traffic inflation factor of running `aggressor` next to a
/// CloverLeaf-like reuse tenant on `machine`'s shared LLC: contended over
/// solo memory bytes of the victim, `>= 1.0` (`1.0` exactly for
/// [`Aggressor::None`], without simulating).
///
/// Deterministic in all inputs; `memo` carries the two underlying passes
/// across calls (e.g. across the scenarios of one plan).
pub fn interference_factor(
    machine: &Machine,
    aggressor: Aggressor,
    interleave: u64,
    memo: &SimMemo,
) -> f64 {
    if aggressor == Aggressor::None {
        return 1.0;
    }
    let victim = victim_kernel(machine);
    let v = victim_contention(machine, &victim, aggressor, interleave, memo);
    let solo = v.solo.counters.total_bytes();
    if solo <= 0.0 {
        return 1.0;
    }
    (v.contended.counters.total_bytes() / solo).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::{cva6_like, icelake_sp_8360y};

    #[test]
    fn no_aggressor_is_exactly_neutral() {
        let memo = SimMemo::new();
        let f = interference_factor(&icelake_sp_8360y(), Aggressor::None, 64, &memo);
        assert_eq!(f, 1.0);
        assert_eq!(memo.corun_len(), 0, "the neutral case must not simulate");
    }

    #[test]
    fn aggressors_inflate_victim_traffic_in_intensity_order() {
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let stream = interference_factor(&m, Aggressor::Stream, 64, &memo);
        let thrash = interference_factor(&m, Aggressor::Thrash, 64, &memo);
        assert!(
            stream > 1.0,
            "a stream must inflict extra traffic, got {stream}"
        );
        assert!(
            thrash >= stream,
            "thrash ({thrash}) must be at least as hostile as stream ({stream})"
        );
        // Deterministic and memoized: a repeat costs no simulation.
        let misses = memo.corun_stats().misses;
        assert_eq!(
            interference_factor(&m, Aggressor::Stream, 64, &memo),
            stream
        );
        assert_eq!(memo.corun_stats().misses, misses);
    }

    #[test]
    fn the_none_row_is_the_baseline_twice_and_every_aggressor_shares_it() {
        let m = cva6_like();
        let memo = SimMemo::new();
        let victim = victim_kernel(&m);
        let alone = victim_contention(&m, &victim, Aggressor::None, 16, &memo);
        assert_eq!(alone.contended, alone.solo);
        assert_eq!(alone.extra_llc_misses(), 0.0);
        assert_eq!(memo.corun_stats().misses, 1);
        // Another aggressor, another interleave: the same baseline entry.
        let thrashed = victim_contention(&m, &victim, Aggressor::Thrash, 64, &memo);
        assert_eq!(thrashed.solo, alone.solo);
        assert_eq!(thrashed.llc_lines, alone.llc_lines);
        assert_eq!(memo.corun_stats().misses, 2);
        assert!((0.0..=1.0).contains(&thrashed.occupancy_fraction()));
    }

    #[test]
    fn both_halves_reproduce_what_the_three_pass_co_run_reported() {
        // Recorded from the commit before a co-run became one pass (PR 19,
        // `a574883`), whose `run_corun` simulated the victim beside the
        // aggressor and then alone on the drained LLC: the victim's
        // `TenantReport` on `cva6-nowa` at `DEFAULT_INTERLEAVE`, counters as
        // `f64::to_bits`.  The contended half then, the contended pass now;
        // the `solo*` half then, the shared baseline now.
        let traffic = [0x40c0000000000000, 0, 0, 0, 0x40b0000000000000, 0];
        // (aggressor, contended occupancy); hits, misses and the solo
        // occupancy were the same against both.
        let recorded = [(Aggressor::Thrash, 0), (Aggressor::StreamHeavy, 2048)];
        let m = cva6_like();
        let memo = SimMemo::new();
        let facts = |t: &TenantReport| {
            let c = &t.counters;
            let counters = [
                c.read_lines,
                c.write_lines,
                c.itom_lines,
                c.write_allocate_lines,
                c.prefetch_lines,
                c.speculative_read_lines,
            ];
            (
                counters.map(f64::to_bits),
                t.llc_hits,
                t.llc_misses,
                t.occupancy_lines,
            )
        };
        for (aggressor, occupancy) in recorded {
            let v = victim_contention(
                &m,
                &victim_kernel(&m),
                aggressor,
                crate::DEFAULT_INTERLEAVE,
                &memo,
            );
            assert_eq!(facts(&v.contended), (traffic, 4096, 4096, occupancy));
            assert_eq!(facts(&v.solo), (traffic, 4096, 4096, 8192));
            assert_eq!(v.llc_lines, 32768);
        }
    }

    #[test]
    fn factor_scales_to_small_machines_too() {
        // The CVA6's 2 MiB LLC gets footprints derived from *its* capacity;
        // the factor stays finite and >= 1.
        let f = interference_factor(&cva6_like(), Aggressor::StreamHeavy, 16, &SimMemo::new());
        assert!(f.is_finite() && f >= 1.0, "got {f}");
    }
}
