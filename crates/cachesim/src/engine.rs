//! Node-level simulation: SPMD kernels across ranks with compact pinning.
//!
//! The microbenchmarks and the CloverLeaf traffic measurements run the same
//! kernel on every rank (SPMD).  Ranks pinned to the same ccNUMA domain see
//! the same occupancy, so their memory traffic is identical; the node
//! simulator therefore simulates one *representative* core per distinct
//! domain load and scales the counters.  That every rank of a kernel
//! drives the same counters is what
//! `every_rank_of_a_domain_drives_what_its_representative_core_reports`
//! (`tests/batched_equivalence.rs`) checks rank by rank.

use clover_machine::{Machine, WritePolicyKind};

use crate::access::LINE_BYTES;
use crate::cache::WindowedCache;
use crate::counters::MemCounters;
use crate::hierarchy::{
    l3_share_bytes, CoreSimOptions, DomainOccupancy, OccupancyContext, PrivateCore,
};
use crate::memo::{CoRunKey, KernelSpec, LastLevelUse, SimMemo};
use crate::patterns::{StencilRowSweep, SweepCursor};
use crate::prefetch::PrefetcherConfig;

/// Configuration of one node-level simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine to simulate.
    pub machine: Machine,
    /// Number of ranks, pinned compactly (domain 0 fills first).
    pub ranks: usize,
    /// SpecI2M MSR switch.
    pub speci2m_enabled: bool,
    /// Hardware prefetcher configuration.
    pub prefetchers: PrefetcherConfig,
    /// Store-miss policy of the simulated hierarchy.
    pub write_policy: WritePolicyKind,
}

impl SimConfig {
    /// Default configuration: all features on, `ranks` ranks on `machine`,
    /// whose hierarchy misses stores under the policy it declares
    /// (`caches.write_policy`).
    pub fn new(machine: Machine, ranks: usize) -> Self {
        Self {
            write_policy: machine.caches.write_policy,
            machine,
            ranks,
            speci2m_enabled: true,
            prefetchers: PrefetcherConfig::enabled(),
        }
    }

    /// Disable SpecI2M (models clearing the MSR bit).
    pub fn without_speci2m(mut self) -> Self {
        self.speci2m_enabled = false;
        self
    }

    /// Disable all hardware prefetchers.
    pub fn without_prefetchers(mut self) -> Self {
        self.prefetchers = PrefetcherConfig::disabled();
        self
    }

    /// Select the store-miss policy of the hierarchy.
    pub fn with_write_policy(mut self, write_policy: WritePolicyKind) -> Self {
        self.write_policy = write_policy;
        self
    }

    fn core_options(&self, cores_in_domain: usize) -> CoreSimOptions {
        // Cores in the same socket share the L3; the share shrinks with the
        // number of active cores on the socket (see
        // `DomainOccupancy::l3_sharers` for the approximation).
        CoreSimOptions {
            speci2m_enabled: self.speci2m_enabled,
            prefetchers: self.prefetchers,
            l3_sharers: DomainOccupancy::l3_sharers(&self.machine, cores_in_domain),
            write_policy: self.write_policy,
        }
    }
}

/// Aggregated result of a node-level simulation.
#[derive(Debug, Clone)]
pub struct NodeSimReport {
    /// Number of ranks simulated.
    pub ranks: usize,
    /// Traffic counters summed over all ranks.
    pub total: MemCounters,
    /// Traffic counters of a single rank in the most loaded domain.
    pub per_rank: MemCounters,
}

impl NodeSimReport {
    /// Total memory data volume in bytes (read + write).
    pub fn total_bytes(&self) -> f64 {
        self.total.total_bytes()
    }

    /// Node-wide read-to-write ratio.
    ///
    /// A report of a write-free kernel has no meaningful ratio; this
    /// returns `0.0` for it instead of propagating the raw counters'
    /// `INFINITY` (which poisons downstream arithmetic and serialises to
    /// `null` in JSON).  Callers that want the raw semantics can still ask
    /// `self.total.read_write_ratio()`.
    pub fn read_write_ratio(&self) -> f64 {
        if self.total.write_lines <= 0.0 {
            0.0
        } else {
            self.total.read_write_ratio()
        }
    }
}

/// Node-level SPMD simulator.
#[derive(Debug, Clone)]
pub struct NodeSim {
    config: SimConfig,
}

impl NodeSim {
    /// Create a simulator from a configuration.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.ranks >= 1, "need at least one rank");
        assert!(
            config.ranks <= config.machine.total_cores(),
            "cannot oversubscribe the node"
        );
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run an SPMD [`KernelSpec`], simulating one representative core per
    /// distinct domain occupancy — the domain's first rank — and scaling its
    /// counters by the number of ranks at that occupancy, through a
    /// cross-sweep [`SimMemo`]: each distinct `(occupancy context, core
    /// options, kernel)` level is simulated at most once per memo lifetime
    /// and shared across every rank count of a sweep — bit-identical to a
    /// fresh memo's simulation (see `crate::memo` for why memo hits are
    /// exact).  Misses simulate on the thread-local pooled core, so the
    /// cache arenas are reused across calls as well.  A kernel whose
    /// private levels can never hit but on the line it loaded last
    /// ([`KernelSpec::never_hits_private`]; the paper's store, copy-volume
    /// and copy-halo kernels, not the CloverLeaf hotspot loops) is
    /// simulated against the L3 share alone, to the same bits; a debug
    /// build runs its L1 and L2 beside that path and asserts that they
    /// would only have missed.
    ///
    /// Honours the configuration's [`write_policy`](SimConfig::write_policy)
    /// through the core options.
    pub fn run_spmd_memo(&self, kernel: &KernelSpec, memo: &SimMemo) -> NodeSimReport {
        let machine = &self.config.machine;
        let occ = DomainOccupancy::compact(machine, self.config.ranks);

        let mut total = MemCounters::new();
        let mut per_rank = MemCounters::new();
        let mut first = true;
        // Per-load dedup indexed by the domain load itself: O(1) per level
        // instead of a linear scan over every previously simulated load.
        let mut by_load: Vec<Option<MemCounters>> = vec![None; occ.busiest + 1];
        let mut first_rank_of_domain = 0usize;
        for &count in &occ.cores_per_domain {
            if count == 0 {
                break;
            }
            let counters = *by_load[count].get_or_insert_with(|| {
                let ctx = OccupancyContext::domain_load(machine, count, occ.active_domains);
                let options = self.config.core_options(count);
                memo.counters(machine, ctx, options, kernel, first_rank_of_domain)
            });
            if first {
                per_rank = counters;
                first = false;
            }
            total.merge(&counters.scaled(count as f64));
            first_rank_of_domain += count;
        }

        NodeSimReport {
            ranks: self.config.ranks,
            total,
            per_rank,
        }
    }

    /// Simulate `tenants[0]` (the *primary*) on cores of one ccNUMA domain
    /// sharing the last-level cache with the other tenants, its
    /// environment, interleaving their line streams at the shared level in
    /// round-robin turns of `interleave_lines` line-granular operations,
    /// and report what the primary did.
    ///
    /// The tenancy is [`SimConfig::ranks`] cores (`tenants.len() <= ranks`):
    /// the occupancy context, the core options and the LLC — one
    /// [`SetAssocCache`](crate::SetAssocCache) of `ranks` per-core shares —
    /// come from it, not from how many of its cores `tenants` occupies;
    /// each tenant keeps a private L1/L2 half ([`PrivateCore`]).  The
    /// report says what the primary did together with the rest and nothing
    /// else: *a baseline is the same call with one tenant*, alone on the
    /// same tenancy, so a delta between the two isolates pure interference
    /// from capacity effects.  One tenant on a tenancy of one sees exactly
    /// the solo geometry, bit-identical to [`run_spmd_memo`] of the same
    /// spec on one rank: `tests/reference_hierarchy.rs` holds both, the
    /// co-run at a random interleave, to one naive hierarchy of that
    /// geometry.  Another tenant's report is another call, with that tenant
    /// first.
    ///
    /// The pass stops at the first round after which nothing left to
    /// simulate can change the primary's report: its sweep has finished,
    /// neither of its coalescers holds an open stream, the LLC holds no
    /// line of its window, and no other tenant's window shares a buddy pair
    /// (`line ^ 1`) with it, so no prefetch can bring one back.  Until then,
    /// or to the end if that never happens, it is the pass that simulates
    /// every tenant to the end, bit for bit.
    ///
    /// A tenant whose private levels can never hit but on the line it
    /// loaded last ([`KernelSpec::never_hits_private`], the proof the solo
    /// [`run_spmd_memo`] uses too) is simulated against the LLC alone: the
    /// repeat is an L1 hit, and every other access does at the LLC what
    /// the full path does there, in the same order.  Its L1 and L2 would
    /// only have missed, and their fills of a clean line evict no dirty
    /// one, so no bit of any report changes.  A release build gives such a
    /// tenant one-line L1 and L2 lanes, which it never fills; a debug build
    /// runs full ones beside it and asserts those misses.  The
    /// `--aggressor` victim and all three aggressors are such tenants on
    /// the Ice Lake and Sapphire Rapids presets.  Unless another tenant's
    /// window shares a buddy pair with its own, whose prefetches could
    /// insert a line of it, such a tenant also takes a load above every
    /// line its loads have put into the fresh LLC for a miss without a
    /// probe, and its buddy for absent, and so a store line above every
    /// line its stores have put there (`PrivateCore`'s load and store
    /// frontiers).
    ///
    /// A pass is memoized under its [`CoRunKey`] in a table disjoint from
    /// the solo memo, so a shared [`SimMemo`] can never serve a solo result
    /// for a contended run, or one interleave's result for another.
    ///
    /// Tenants are identified by their canonical rank (index after a stable
    /// sort), which fixes both their windows and their turn order, so their
    /// kernels must occupy pairwise-disjoint address windows under that
    /// rank assignment — rank-private bases
    /// ([`RankBase::Shifted`](crate::memo::RankBase)) guarantee this;
    /// overlapping windows panic.  The other tenants' order is no part of
    /// the identity; the primary's canonical rank is.
    ///
    /// [`run_spmd_memo`]: Self::run_spmd_memo
    pub fn run_corun(
        &self,
        tenants: &[KernelSpec],
        interleave_lines: u64,
        memo: &SimMemo,
    ) -> CoRunReport {
        let pass = CoRunPass::new(&self.config, tenants, interleave_lines);
        let report = memo.corun_get_or_insert_with(pass.key(), || pass.run().0);
        CoRunReport {
            primary: report,
            llc_lines: pass.llc_bytes as u64 / LINE_BYTES,
        }
    }
}

/// What one tenant of a [`NodeSim::run_corun`] pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Memory traffic of this tenant.
    pub counters: MemCounters,
    /// Shared-LLC hits attributed to this tenant's turns.
    pub llc_hits: u64,
    /// Shared-LLC misses attributed to this tenant's turns.
    pub llc_misses: u64,
    /// Lines of this tenant's address window resident in the shared LLC at
    /// the end of the run (before the flush).
    pub occupancy_lines: u64,
}

/// Result of [`NodeSim::run_corun`]: what the primary tenant did.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunReport {
    /// The report of `tenants[0]`.
    pub primary: TenantReport,
    /// Capacity of the tenancy's shared LLC in lines (for occupancy
    /// fractions).
    pub llc_lines: u64,
}

/// Is `line` inside tenant `j`'s address window?
fn owner_of(line: u64, spans: &[Option<(u64, u64)>]) -> Option<usize> {
    spans
        .iter()
        .position(|s| s.is_some_and(|(lo, hi)| (lo..=hi).contains(&line)))
}

/// Do two windows hold the two lines of one buddy pair (`line ^ 1`), so
/// that an adjacent-line prefetch for one can insert a line of the other?
fn share_buddy_pair(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.0 >> 1 <= b.1 >> 1 && b.0 >> 1 <= a.1 >> 1,
        _ => false,
    }
}

/// One co-run simulation: a private half per tenant sweep round-robins, in
/// turns of `interleave_lines`, over one shared LLC of `llc_bytes`, flushed
/// at the end, and the primary's report comes out.
struct CoRunPass<'a> {
    machine: &'a Machine,
    ctx: OccupancyContext,
    options: CoreSimOptions,
    /// Cores of the tenancy.
    cores: usize,
    llc_bytes: usize,
    /// The tenants' kernels in canonical order.
    sorted: Vec<KernelSpec>,
    /// Their windows, each at its canonical rank.
    spans: Vec<Option<(u64, u64)>>,
    /// The canonical index of `tenants[0]`.
    primary: usize,
    interleave_lines: u64,
}

impl<'a> CoRunPass<'a> {
    /// The pass of `tenants` on `config`'s tenancy (see
    /// [`NodeSim::run_corun`] for what is asserted).
    fn new(config: &'a SimConfig, tenants: &[KernelSpec], interleave_lines: u64) -> Self {
        let machine = &config.machine;
        let (n, cores) = (tenants.len(), config.ranks);
        assert!(n >= 1, "need at least one tenant");
        assert!(
            n <= cores,
            "{n} tenants on a tenancy of {cores} cores (SimConfig::ranks)"
        );
        assert!(
            cores <= machine.topology.cores_per_domain(),
            "a co-run tenancy is pinned within one ccNUMA domain \
             ({} cores on {})",
            machine.topology.cores_per_domain(),
            machine.id
        );
        let options = config.core_options(cores);

        // Canonical tenant order: sort (stably) so permutations of the
        // other tenants share one memo entry; `order[j]` is the input index
        // simulated as canonical rank `j`.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| tenants[a].cmp(&tenants[b]));
        let sorted: Vec<KernelSpec> = order.iter().map(|&i| tenants[i].clone()).collect();
        let primary = order
            .iter()
            .position(|&i| i == 0)
            .expect("the order is a permutation");

        // The attribution of shared-level state needs each tenant to own a
        // private address window under its canonical rank.
        let spans: Vec<Option<(u64, u64)>> = sorted
            .iter()
            .enumerate()
            .map(|(j, t)| t.line_span(j))
            .collect();
        for a in 0..n {
            for b in a + 1..n {
                if let (Some(x), Some(y)) = (spans[a], spans[b]) {
                    assert!(
                        x.1 < y.0 || y.1 < x.0,
                        "co-run tenants must occupy disjoint address windows \
                         (lines {x:?} vs {y:?})"
                    );
                }
            }
        }
        Self {
            machine,
            ctx: OccupancyContext::domain_load(machine, cores, 1),
            options,
            cores,
            llc_bytes: l3_share_bytes(machine.caches.l3.capacity_bytes, options.l3_sharers) * cores,
            sorted,
            spans,
            primary,
            interleave_lines: interleave_lines.max(1),
        }
    }

    /// The memo identity of this pass.
    fn key(&self) -> CoRunKey {
        CoRunKey::new(
            self.machine,
            self.ctx,
            self.options,
            self.cores,
            &self.sorted,
            self.primary,
            self.interleave_lines,
        )
    }

    /// Simulate until the primary's report is final (see
    /// [`NodeSim::run_corun`]) and return it with the number of rounds run.
    fn run(&self) -> (TenantReport, u64) {
        let (n, p, spans) = (self.sorted.len(), self.primary, &self.spans[..]);
        // A primary without a line gets a window no line index reaches.
        let (lo, hi) = spans[p].unwrap_or((u64::MAX, u64::MAX));
        let ways = self.machine.caches.l3.associativity;
        let llc = &mut WindowedCache::with_window(self.llc_bytes, ways, lo, hi);
        // Whether no other tenant's window shares a buddy pair with tenant
        // `j`'s: then only `j` itself can put a line of its window into the
        // (fresh) LLC, since another's adjacent-line prefetch inserts a
        // line of its own window or of none.
        let alone_in_its_pairs =
            |j: usize| (0..n).all(|k| k == j || !share_buddy_pair(spans[j], spans[k]));
        let mut cores: Vec<PrivateCore> = self
            .sorted
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let (machine, ctx, options) = (self.machine, self.ctx, self.options);
                let llc = if alone_in_its_pairs(j) {
                    LastLevelUse::OwnLines
                } else {
                    LastLevelUse::Shared
                };
                let reach = t.reach(machine, &options, j, llc);
                PrivateCore::with_reach(machine, ctx, options, reach)
            })
            .collect();
        let sweeps: Vec<StencilRowSweep> = self
            .sorted
            .iter()
            .enumerate()
            .map(|(j, t)| t.sweep(j))
            .collect();
        let mut cursors: Vec<SweepCursor> = sweeps.iter().map(SweepCursor::new).collect();
        // Once no line of its window is in the LLC, only the primary itself
        // or a buddy prefetch of a neighbouring window can put one back.
        let primary_alone = alone_in_its_pairs(p);
        let (mut llc_hits, mut llc_misses) = (0u64, 0u64);
        let mut rounds = 0u64;
        loop {
            let settled = primary_alone
                && cursors[p].finished()
                && cores[p].streams_closed()
                && llc.window_lines() == 0;
            if settled || cursors.iter().all(SweepCursor::finished) {
                break;
            }
            rounds += 1;
            for (j, (cursor, core)) in cursors.iter_mut().zip(&mut cores).enumerate() {
                if cursor.finished() {
                    continue;
                }
                let (h0, m0) = (llc.hits(), llc.misses());
                cursor.advance(core, llc, self.interleave_lines);
                if j == p {
                    llc_hits += llc.hits() - h0;
                    llc_misses += llc.misses() - m0;
                }
            }
        }

        // End-of-run occupancy of the primary's window.  A prefetched buddy
        // just outside it is not counted (consistently so in a one-tenant
        // baseline).
        let occupancy_lines = llc.window_lines();

        // Flush: finalize the store streams (which still contend at the
        // shared level) in canonical order, then drain the shared LLC once
        // and hand the primary its own dirty lines for write-back
        // accounting.
        let mut upper_dirty = (Vec::new(), Vec::new());
        for (j, core) in cores.iter_mut().enumerate() {
            let (h0, m0) = (llc.hits(), llc.misses());
            let dirty = core.flush_streams_and_upper(llc);
            if j == p {
                upper_dirty = dirty;
                llc_hits += llc.hits() - h0;
                llc_misses += llc.misses() - m0;
            }
        }
        let mut l3_dirty = Vec::new();
        for line in llc.flush_dirty() {
            match owner_of(line, spans) {
                Some(j) if j == p => l3_dirty.push(line),
                Some(_) => {}
                // A dirty line only ever comes from a store, and every store
                // address lies inside its tenant's (exact) window.
                None => unreachable!("dirty LLC line outside every tenant window"),
            }
        }
        let (l1_dirty, l2_dirty) = upper_dirty;
        let report = TenantReport {
            counters: cores[p].account_writebacks(l1_dirty, l2_dirty, l3_dirty),
            llc_hits,
            llc_misses,
            occupancy_lines,
        };
        (report, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::hierarchy::CoreSim;
    use crate::memo::RankBase;
    use clover_machine::icelake_sp_8360y;

    /// `n` stores of 8 bytes from the rank's base `rank << 36`.
    fn store_kernel(n: u64) -> KernelSpec {
        KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            n,
            AccessKind::Store,
        )
    }

    /// `kernel` on `ranks` ranks of `m` through a fresh memo.
    fn run(m: &Machine, ranks: usize, kernel: &KernelSpec) -> NodeSimReport {
        NodeSim::new(SimConfig::new(m.clone(), ranks)).run_spmd_memo(kernel, &SimMemo::new())
    }

    /// What simulating every rank individually gives: each rank's kernel on
    /// a fresh core of its domain's occupancy, summed over the node.
    fn every_rank(sim: &NodeSim, kernel: &KernelSpec) -> NodeSimReport {
        let config = sim.config();
        let occ = DomainOccupancy::compact(&config.machine, config.ranks);
        let mut total = MemCounters::new();
        let mut per_rank = Vec::new();
        for &count in occ.cores_per_domain.iter().filter(|&&c| c > 0) {
            let ctx = OccupancyContext::domain_load(&config.machine, count, occ.active_domains);
            for _ in 0..count {
                let mut core = CoreSim::new(&config.machine, ctx, config.core_options(count));
                kernel.drive(per_rank.len(), &mut core);
                per_rank.push(core.flush());
                total.merge(per_rank.last().expect("pushed"));
            }
        }
        NodeSimReport {
            ranks: config.ranks,
            total,
            per_rank: per_rank[0],
        }
    }

    #[test]
    fn repeated_runs_are_deterministic_despite_core_reuse() {
        // The reused core must carry no state between domain-load levels or
        // between whole runs.
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m, 20));
        let fresh = || sim.run_spmd_memo(&store_kernel(2048), &SimMemo::without_differential());
        let (a, b) = (fresh(), fresh());
        assert_eq!(a.total, b.total);
        assert_eq!(a.per_rank, b.per_rank);
    }

    #[test]
    fn representative_matches_exact_for_uniform_kernel() {
        let m = icelake_sp_8360y();
        let cfg = SimConfig::new(m, 4);
        let sim = NodeSim::new(cfg);
        let fast = sim.run_spmd_memo(&store_kernel(4096), &SimMemo::new());
        let exact = every_rank(&sim, &store_kernel(4096));
        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-12);
        assert!(rel(fast.total.read_lines, exact.total.read_lines) < 1e-9);
        assert!(rel(fast.total.write_lines, exact.total.write_lines) < 1e-9);
        assert!(rel(fast.total.itom_lines, exact.total.itom_lines.max(1e-12)) < 1e-9);
    }

    #[test]
    fn scaling_store_ratio_drops_with_cores() {
        let m = icelake_sp_8360y();
        let ratio = |ranks: usize| {
            let rep = run(&m, ranks, &store_kernel(4096));
            rep.total_bytes() / rep.total.write_bytes()
        };
        let serial = ratio(1);
        let saturated = ratio(18);
        assert!(serial > 1.9, "serial store ratio ≈ 2, got {serial}");
        assert!(
            saturated < 1.3,
            "saturated store ratio must drop, got {saturated}"
        );
    }

    #[test]
    fn new_domain_worsens_the_ratio_again() {
        let m = icelake_sp_8360y();
        let ratio = |ranks: usize| {
            let rep = run(&m, ranks, &store_kernel(4096));
            rep.total_bytes() / rep.total.write_bytes()
        };
        // 18 ranks saturate domain 0; 20 ranks put two lonely ranks on
        // domain 1 whose stores cannot be evaded → node ratio rises.
        assert!(ratio(20) > ratio(18));
    }

    #[test]
    fn speci2m_off_keeps_ratio_at_two() {
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m, 36).without_speci2m());
        let rep = sim.run_spmd_memo(&store_kernel(4096), &SimMemo::new());
        let ratio = rep.total_bytes() / rep.total.write_bytes();
        assert!(
            ratio > 1.95,
            "without SpecI2M all stores write-allocate, got {ratio}"
        );
    }

    #[test]
    fn policy_selectors_change_the_memoized_simulation() {
        let m = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            4096,
            AccessKind::Store,
        );
        let memo = SimMemo::new();
        let run = |cfg: SimConfig| NodeSim::new(cfg).run_spmd_memo(&spec, &memo);
        let wa = run(SimConfig::new(m.clone(), 1));
        let nowa = run(SimConfig::new(m.clone(), 1).with_write_policy(WritePolicyKind::NoAllocate));
        let nt = run(SimConfig::new(m, 1).with_write_policy(WritePolicyKind::NonTemporal));
        // Serial write-allocate reads every store line back; no-allocate
        // writes it through without a read; the NT policy also avoids the
        // read-for-ownership on full lines.
        assert!(wa.total.read_lines > 0.9 * 512.0);
        assert!(nowa.total.read_lines < 1.0, "{}", nowa.total.read_lines);
        assert!(nt.total.read_lines < 0.2 * 512.0, "{}", nt.total.read_lines);
        assert!(nowa.total.write_lines > 0.95 * 512.0);
        // Each store-miss policy is a distinct memo entry of the one kernel.
        assert_eq!(memo.len(), 3);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscription_panics() {
        let m = icelake_sp_8360y();
        let cores = m.total_cores();
        let _ = NodeSim::new(SimConfig::new(m, cores + 1));
    }

    #[test]
    fn report_ratio_of_write_free_kernel_is_zero_not_infinite() {
        // Satellite guard: the raw counters keep the INFINITY semantics,
        // the node report clamps to 0.0 so downstream arithmetic and JSON
        // stay finite.
        let m = icelake_sp_8360y();
        let loads = KernelSpec {
            operands: vec![crate::memo::SpecOperand {
                offset: 0,
                points: vec![(0, 0)],
                kind: AccessKind::Load,
            }],
            ..store_kernel(1024)
        };
        let rep = run(&m, 1, &loads);
        assert!(rep.total.write_lines <= 0.0);
        assert!(rep.total.read_write_ratio().is_infinite());
        assert_eq!(rep.read_write_ratio(), 0.0);
    }

    fn corun_spec(kind: AccessKind, elements: u64, rows: u64) -> KernelSpec {
        use crate::memo::SpecOperand;
        KernelSpec {
            rank_base: RankBase::Shifted { shift: 36, plus: 0 },
            operands: vec![SpecOperand {
                offset: 0,
                points: vec![(0, 0)],
                kind,
            }],
            // `row_stride: 0` makes every row revisit the same elements — a
            // pure reuse kernel, the shape most sensitive to LLC eviction.
            row_stride: if rows > 1 { 0 } else { elements.max(1) },
            i0: 0,
            inner: elements,
            k0: 0,
            rows,
        }
    }

    #[test]
    fn thrashing_aggressor_inflicts_extra_misses_on_a_reuse_victim() {
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m.clone(), 2));
        let memo = SimMemo::new();
        // Victim: 16 MiB reused four times — larger than the private L2 and
        // resident in its solo LLC (27 MiB), but with an aggressor stream
        // interleaved the LRU reuse distance exceeds the shared capacity.
        let victim = corun_spec(AccessKind::Load, 16 * 1024 * 1024 / 8, 4);
        // Aggressor: a 64 MiB single-pass stream — larger than the whole
        // shared LLC, evicting the victim's working set as it goes.
        let aggressor = corun_spec(AccessKind::Load, 64 * 1024 * 1024 / 8, 1);
        let tenants = [victim.clone(), aggressor.clone()];
        // A report is the first tenant's: the aggressor's side of the same
        // co-run is the call with the aggressor first.
        let rep = [
            sim.run_corun(&tenants, 64, &memo),
            sim.run_corun(&[aggressor, victim], 64, &memo),
        ];
        // A baseline is the same call with one tenant.
        let alone = |i: usize| sim.run_corun(&tenants[i..=i], 64, &memo).primary;
        let extra_misses = |i: usize| rep[i].primary.llc_misses as i64 - alone(i).llc_misses as i64;
        let (v, v_alone) = (&rep[0].primary, alone(0));
        assert!(
            extra_misses(0) > 0,
            "contention must cost the victim LLC misses, got {}",
            extra_misses(0)
        );
        assert!(
            v.counters.read_lines > v_alone.counters.read_lines,
            "extra misses must surface as memory reads: {} vs {} alone",
            v.counters.read_lines,
            v_alone.counters.read_lines
        );
        assert!(
            v.occupancy_lines < v_alone.occupancy_lines,
            "the aggressor must displace victim lines: {} vs {} alone",
            v.occupancy_lines,
            v_alone.occupancy_lines
        );
        // The streaming aggressor barely notices the victim.
        assert!(extra_misses(1) <= extra_misses(0));
        // Nobody holds more of the shared LLC than there is.
        assert!(rep.iter().all(|r| r.primary.occupancy_lines <= r.llc_lines));
        // Four passes: the co-run once per primary and the two baselines
        // asked for.
        assert_eq!(memo.corun_stats().misses, 4);
    }

    #[test]
    fn the_tenancy_size_is_in_the_key_where_nothing_else_tells_two_apart() {
        use clover_machine::{cva6_like, SaturationCurve};
        // A CVA6 whose per-core L3 share is the whole L3 at any core count
        // and whose bandwidth one core saturates: a one- and a two-core
        // tenancy have the same dynamics and the same accounting, and
        // differ in the LLC they share — one share or two.
        let mut m = cva6_like();
        m.caches.l3_sharers = 1;
        m.bandwidth.curve = SaturationCurve::new(1e-6, 4.0);
        // 3 MiB read twice: resident in 4 MiB, not in 2.
        let spec = corun_spec(AccessKind::Load, 3 * 1024 * 1024 / 8, 2);
        let memo = SimMemo::new();
        let on = |cores| {
            let sim = NodeSim::new(SimConfig::new(m.clone(), cores));
            sim.run_corun(std::slice::from_ref(&spec), 64, &memo)
        };
        let (one, two) = (on(1), on(2));
        assert_eq!(memo.corun_stats().misses, 2, "never one entry");
        assert_eq!(two.llc_lines, 2 * one.llc_lines);
        assert!(two.primary.llc_misses < one.primary.llc_misses);
        let mut keys: Vec<CoRunKey> = memo
            .corun_entries_stamped()
            .into_iter()
            .map(|(key, _, _)| key)
            .collect();
        keys.sort_by_key(|key| key.cores);
        assert_eq!((keys[0].cores, keys[1].cores), (1, 2));
        keys[1].cores = 1;
        assert_eq!(keys[0], keys[1], "every other key field coincides");
    }

    #[test]
    fn corun_memo_never_crosses_tenant_order_or_interleave() {
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m, 3));
        let memo = SimMemo::new();
        let misses = || memo.corun_stats().misses;
        let a = corun_spec(AccessKind::Load, 32 * 1024, 2);
        let b = corun_spec(AccessKind::Store, 64 * 1024, 1);
        let c = corun_spec(AccessKind::Load, 8 * 1024, 3);
        let abc = sim.run_corun(&[a.clone(), b.clone(), c.clone()], 8, &memo);
        assert_eq!(misses(), 1);
        // The other tenants in another order are the same co-run: a memo
        // hit with the same report.
        let acb = sim.run_corun(&[a.clone(), c.clone(), b.clone()], 8, &memo);
        assert_eq!(misses(), 1);
        assert_eq!(acb, abc);
        // Another primary is another pass, whose other tenants' order is
        // again no part of it.
        let bac = sim.run_corun(&[b.clone(), a.clone(), c.clone()], 8, &memo);
        assert_eq!(misses(), 2);
        assert_ne!(bac.primary, abc.primary);
        let bca = sim.run_corun(&[b.clone(), c.clone(), a.clone()], 8, &memo);
        assert_eq!(misses(), 2);
        assert_eq!(bca, bac);
        // Two tenants swapped change the primary: a miss.
        let ab = sim.run_corun(&[a.clone(), b.clone()], 8, &memo);
        let ba = sim.run_corun(&[b.clone(), a.clone()], 8, &memo);
        assert_eq!(misses(), 4);
        assert_ne!(ab.primary, ba.primary);
        // A different interleave is a different key (turn boundaries move,
        // so sharing would be unsound).
        let _ = sim.run_corun(&[a, b, c], 16, &memo);
        assert_eq!(misses(), 5);
    }

    /// An `--aggressor` tenant on the ICX: `rows` loads over `1 / part`
    /// of its L3 (see `corun_spec`), 2^40 bytes per rank.
    fn icx_tenant(part: u64, rows: u64) -> KernelSpec {
        let elements = icelake_sp_8360y().caches.l3.capacity_bytes as u64 / 8 / part;
        KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus: 0 },
            ..corun_spec(AccessKind::Load, elements, rows)
        }
    }

    /// Rounds the pass of `tenants` at turns of 64 runs, and its report.
    fn rounds_of(tenants: &[KernelSpec]) -> (TenantReport, u64) {
        let config = SimConfig::new(icelake_sp_8360y(), 2);
        CoRunPass::new(&config, tenants, 64).run()
    }

    #[test]
    fn the_thrash_pass_settles_once_the_victim_is_gone_and_the_stream_pass_never() {
        // Whether a pass stops early is a count, not a wall clock: the
        // victim finishes in round 10 368, the thrash aggressor evicts the
        // victim's last LLC line in round 16 768, and the pass settles at round
        // 16 769, which it does not run — of the 27 648 rounds the
        // aggressor's 1 769 472 lines take.
        let victim = icx_tenant(4, 3);
        let (settled, rounds) = rounds_of(&[victim.clone(), icx_tenant(1, 2)]);
        assert_eq!(rounds, 16_768);
        assert_eq!(settled.occupancy_lines, 0);
        // The stream leaves victim lines resident to its end: all 13 824
        // rounds of its 884 736 lines.
        let (kept, rounds) = rounds_of(&[victim, icx_tenant(1, 1)]);
        assert_eq!(rounds, 13_824);
        assert!(kept.occupancy_lines > 0);
    }

    #[test]
    fn windows_share_a_buddy_pair_only_across_an_even_odd_boundary() {
        // It gates two rules: a pass's stop, and a tenant's frontiers.
        let share = |a, b| {
            let pair = share_buddy_pair(Some(a), Some(b));
            assert_eq!(pair, share_buddy_pair(Some(b), Some(a)), "{a:?} {b:?}");
            pair
        };
        // Ending on an even line, the window holds half of the pair
        // {4, 5}: a neighbour from line 5 holds the other half, one from
        // line 6 none.
        assert!(share((0, 4), (5, 9)));
        assert!(!share((0, 4), (6, 9)));
        // Ending on an odd line, it holds the whole pair {2, 3}: even an
        // abutting neighbour starts a pair of its own.
        assert!(!share((0, 3), (4, 9)));
        // One line each, the two halves of one pair, or of two.
        assert!(share((6, 6), (7, 7)));
        assert!(!share((7, 7), (8, 8)));
        // A tenant without a line shares nothing.
        for w in [Some((0, 4)), None] {
            assert!(!share_buddy_pair(w, None) && !share_buddy_pair(None, w));
        }
    }

    #[test]
    fn report_helpers() {
        let m = icelake_sp_8360y();
        let rep = run(&m, 2, &store_kernel(1024));
        assert_eq!(rep.ranks, 2);
        let occ = DomainOccupancy::compact(&m, rep.ranks);
        assert_eq!(occ.cores_per_domain.iter().sum::<usize>(), 2);
        assert!(rep.total_bytes() > 0.0);
        assert!(rep.read_write_ratio() > 0.0);
    }
}
