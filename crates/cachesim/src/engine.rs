//! Node-level simulation: SPMD kernels across ranks with compact pinning.
//!
//! The microbenchmarks and the CloverLeaf traffic measurements run the same
//! kernel on every rank (SPMD).  Ranks pinned to the same ccNUMA domain see
//! the same occupancy, so their memory traffic is identical; the node
//! simulator therefore simulates one *representative* core per distinct
//! domain load and scales the counters.  That every rank of a kernel
//! drives the same counters is what `tests/batched_equivalence.rs` checks
//! rank by rank.

use clover_machine::{Machine, WritePolicyKind};

use crate::access::LINE_BYTES;
use crate::cache::SetAssocCache;
use crate::counters::MemCounters;
use crate::hierarchy::{
    l3_share_bytes, CoreSimOptions, DomainOccupancy, OccupancyContext, PrivateCore,
};
use crate::memo::{CoRunKey, KernelSpec, SimMemo};
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
    /// Active cores per ccNUMA domain (compact pinning).
    pub cores_per_domain: Vec<usize>,
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
    /// cache arenas are reused across calls as well.
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
            cores_per_domain: occ.cores_per_domain,
        }
    }

    /// Simulate `tenants`, once, on cores of one ccNUMA domain sharing the
    /// last-level cache, interleaving their line streams at the shared
    /// level in round-robin turns of `interleave_lines` line-granular
    /// operations.
    ///
    /// The tenancy is [`SimConfig::ranks`] cores (`tenants.len() <= ranks`):
    /// the occupancy context, the core options and the LLC — one
    /// [`SetAssocCache`] of `ranks` per-core shares — come from it, not from
    /// how many of its cores `tenants` occupies; each tenant keeps a private
    /// L1/L2 half ([`PrivateCore`]).  The report says what was simulated
    /// together and nothing else: *a baseline is the same call with one
    /// tenant*, alone on the same tenancy, so a delta between the two
    /// isolates pure interference from capacity effects.  One tenant on a
    /// tenancy of one sees exactly the solo geometry, bit-identical to
    /// [`run_spmd_memo`] of the same spec on one rank (a tested property).
    ///
    /// A pass is memoized under its [`CoRunKey`] in a table disjoint from
    /// the solo memo, so a shared [`SimMemo`] can never serve a solo result
    /// for a contended run, or one interleave's result for another.
    ///
    /// Tenants are identified by their canonical rank (index after
    /// sorting), so their kernels must occupy pairwise-disjoint address
    /// windows under that rank assignment — rank-private bases
    /// ([`RankBase::Shifted`](crate::memo::RankBase)) guarantee this;
    /// overlapping windows panic.
    ///
    /// [`run_spmd_memo`]: Self::run_spmd_memo
    pub fn run_corun(
        &self,
        tenants: &[KernelSpec],
        interleave_lines: u64,
        memo: &SimMemo,
    ) -> CoRunReport {
        let machine = &self.config.machine;
        let (n, cores) = (tenants.len(), self.config.ranks);
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
        let interleave = interleave_lines.max(1);
        let ctx = OccupancyContext::domain_load(machine, cores, 1);
        let options = self.config.core_options(cores);

        // Canonical tenant order: sort (stably) so permutations of the same
        // tenant multiset share one memo entry; `order[j]` is the input
        // index simulated as canonical rank `j`.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| tenants[a].cmp(&tenants[b]));
        let sorted: Vec<KernelSpec> = order.iter().map(|&i| tenants[i].clone()).collect();

        // The per-tenant attribution of shared-level state needs each
        // tenant to own a private address window under its canonical rank.
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

        let key = CoRunKey::new(machine, ctx, options, cores, &sorted, interleave);
        let llc_bytes =
            l3_share_bytes(machine.caches.l3.capacity_bytes, options.l3_sharers) * cores;
        let sorted_reports = memo.corun_get_or_insert_with(key, || {
            let sweeps: Vec<StencilRowSweep> =
                sorted.iter().enumerate().map(|(j, t)| t.sweep(j)).collect();
            corun_pass(
                machine, ctx, options, llc_bytes, &sweeps, &spans, interleave,
            )
        });

        // Back to input order (`order` is a permutation).
        let mut tenants = sorted_reports.clone();
        for (rep, &i) in sorted_reports.into_iter().zip(&order) {
            tenants[i] = rep;
        }
        CoRunReport {
            tenants,
            llc_lines: llc_bytes as u64 / LINE_BYTES,
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

/// Result of [`NodeSim::run_corun`]: what each tenant of the pass did, in
/// the caller's tenant order.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunReport {
    /// Per-tenant reports, in input order.
    pub tenants: Vec<TenantReport>,
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

/// The co-run simulation proper: one private half per tenant sweep
/// round-robins, in turns of `interleave_lines`, over one shared LLC of
/// `llc_bytes`, flushed at the end.  `sweeps` are the tenants' kernels in
/// canonical order, each materialised at its canonical rank; the returned
/// reports match that order.
fn corun_pass(
    machine: &Machine,
    ctx: OccupancyContext,
    options: CoreSimOptions,
    llc_bytes: usize,
    sweeps: &[StencilRowSweep],
    spans: &[Option<(u64, u64)>],
    interleave_lines: u64,
) -> Vec<TenantReport> {
    let n = sweeps.len();
    let llc = &mut SetAssocCache::new(llc_bytes, machine.caches.l3.associativity);
    let mut cores: Vec<PrivateCore> = (0..n)
        .map(|_| PrivateCore::new(machine, ctx, options))
        .collect();
    let mut cursors: Vec<SweepCursor> = sweeps.iter().map(SweepCursor::new).collect();
    let mut llc_hits = vec![0u64; n];
    let mut llc_misses = vec![0u64; n];
    while cursors.iter().any(|c| !c.finished()) {
        for j in 0..n {
            if cursors[j].finished() {
                continue;
            }
            let (h0, m0) = (llc.hits(), llc.misses());
            cursors[j].advance(&mut cores[j], llc, interleave_lines);
            llc_hits[j] += llc.hits() - h0;
            llc_misses[j] += llc.misses() - m0;
        }
    }

    // End-of-run occupancy, attributed by address window.  Prefetched
    // buddy lines can fall just outside every window; they are simply not
    // attributed (consistently so in a one-tenant baseline).
    let mut occupancy = vec![0u64; n];
    llc.for_each_resident(|line, _dirty| {
        if let Some(j) = owner_of(line, spans) {
            occupancy[j] += 1;
        }
    });

    // Flush in canonical order: finalize each tenant's store streams (which
    // still contend at the shared level), then drain the shared LLC once
    // and hand each tenant its own dirty lines for write-back accounting.
    let mut upper_dirty: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(n);
    for j in 0..n {
        let (h0, m0) = (llc.hits(), llc.misses());
        upper_dirty.push(cores[j].flush_streams_and_upper(llc));
        llc_hits[j] += llc.hits() - h0;
        llc_misses[j] += llc.misses() - m0;
    }
    let mut l3_by_tenant: Vec<Vec<u64>> = vec![Vec::new(); n];
    for line in llc.flush_dirty() {
        match owner_of(line, spans) {
            Some(j) => l3_by_tenant[j].push(line),
            // A dirty line only ever comes from a store, and every store
            // address lies inside its tenant's (exact) window.
            None => unreachable!("dirty LLC line outside every tenant window"),
        }
    }

    let mut reports = Vec::with_capacity(n);
    for (j, ((l1_dirty, l2_dirty), l3_dirty)) in
        upper_dirty.into_iter().zip(l3_by_tenant).enumerate()
    {
        let counters = cores[j].account_writebacks(l1_dirty, l2_dirty, l3_dirty);
        reports.push(TenantReport {
            counters,
            llc_hits: llc_hits[j],
            llc_misses: llc_misses[j],
            occupancy_lines: occupancy[j],
        });
    }
    reports
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
            cores_per_domain: occ.cores_per_domain,
        }
    }

    #[test]
    fn representative_matches_exact_on_uniform_occupancy() {
        // 72 ranks load every ICX domain with exactly 18 cores; with one
        // distinct domain load the representative core must reproduce the
        // per-rank simulation of every rank bit for bit (a guard for the
        // pooled core's `CoreSim::reset` reuse too).
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m, 72));
        let fast = sim.run_spmd_memo(&store_kernel(2048), &SimMemo::new());
        let exact = every_rank(&sim, &store_kernel(2048));
        // The representative core is bit-identical; the node totals only up
        // to summation order (one `c * 18` versus eighteen additions).
        assert_eq!(fast.per_rank, exact.per_rank);
        assert_eq!(fast.cores_per_domain, exact.cores_per_domain);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
        assert!(rel(fast.total.read_lines, exact.total.read_lines) < 1e-12);
        assert!(rel(fast.total.write_lines, exact.total.write_lines) < 1e-12);
        assert!(rel(fast.total.itom_lines, exact.total.itom_lines) < 1e-12);
        assert!(
            rel(
                fast.total.write_allocate_lines,
                exact.total.write_allocate_lines
            ) < 1e-12
        );
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
    fn batched_kernel_matches_scalar_kernel_node_wide() {
        // One row of 4096 stores, batched by the sweep cursor, against the
        // same stores as 4096 rows of one element each (a one-element
        // segment per row: element by element).
        let m = icelake_sp_8360y();
        let batched = run(&m, 19, &store_kernel(4096));
        let scalar = run(
            &m,
            19,
            &KernelSpec {
                row_stride: 1,
                inner: 1,
                rows: 4096,
                ..store_kernel(4096)
            },
        );
        assert_eq!(scalar.total, batched.total);
        assert_eq!(scalar.per_rank, batched.per_rank);
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
    fn single_tenant_corun_is_bit_identical_to_run_spmd() {
        let m = icelake_sp_8360y();
        let sim = NodeSim::new(SimConfig::new(m, 1));
        let memo = SimMemo::new();
        let spec = corun_spec(AccessKind::Store, 8192, 1);
        let solo = sim.run_spmd_memo(&spec, &memo);
        let corun = sim.run_corun(std::slice::from_ref(&spec), 64, &memo);
        assert_eq!(corun.tenants.len(), 1);
        let t = &corun.tenants[0];
        assert_eq!(t.counters, solo.per_rank);
        // Solo and co-run entries live in disjoint memo tables.
        assert_eq!(memo.corun_len(), 1);
        assert!(!memo.is_empty());
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
        let tenants = [victim, aggressor];
        let rep = sim.run_corun(&tenants, 64, &memo);
        // A baseline is the same call with one tenant.
        let alone = |i: usize| sim.run_corun(&tenants[i..=i], 64, &memo).tenants.remove(0);
        let extra_misses = |i: usize| rep.tenants[i].llc_misses as i64 - alone(i).llc_misses as i64;
        let (v, v_alone) = (&rep.tenants[0], alone(0));
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
        assert!(rep
            .tenants
            .iter()
            .all(|t| t.occupancy_lines <= rep.llc_lines));
        // Three passes: the co-run and the two baselines asked for.
        assert_eq!(memo.corun_stats().misses, 3);
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
        assert!(two.tenants[0].llc_misses < one.tenants[0].llc_misses);
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
        let sim = NodeSim::new(SimConfig::new(m, 2));
        let memo = SimMemo::new();
        let a = corun_spec(AccessKind::Load, 32 * 1024, 2);
        let b = corun_spec(AccessKind::Store, 64 * 1024, 1);
        let ab = sim.run_corun(&[a.clone(), b.clone()], 8, &memo);
        assert_eq!(memo.corun_stats().misses, 1);
        // Swapped tenant order is the same co-run: a memo hit, with the
        // per-tenant reports permuted back to input order.
        let ba = sim.run_corun(&[b.clone(), a.clone()], 8, &memo);
        assert_eq!(memo.corun_stats().misses, 1);
        assert_eq!(ab.tenants[0], ba.tenants[1]);
        assert_eq!(ab.tenants[1], ba.tenants[0]);
        // A different interleave is a different key (turn boundaries move,
        // so sharing would be unsound).
        let _ = sim.run_corun(&[a, b], 16, &memo);
        assert_eq!(memo.corun_stats().misses, 2);
    }

    #[test]
    fn report_helpers() {
        let m = icelake_sp_8360y();
        let rep = run(&m, 2, &store_kernel(1024));
        assert_eq!(rep.ranks, 2);
        assert_eq!(rep.cores_per_domain.iter().sum::<usize>(), 2);
        assert!(rep.total_bytes() > 0.0);
        assert!(rep.read_write_ratio() > 0.0);
    }
}
