//! Per-core cache hierarchy simulation with write-allocate evasion.
//!
//! A [`CoreSim`] models one core's private L1/L2 caches plus its share of
//! the socket's L3 cache, a write-coalescing store path with the SpecI2M
//! engine, a non-temporal store path, and the adjacent-line prefetcher.  It
//! produces the memory-controller counters ([`MemCounters`]) for the access
//! stream fed to it.
//!
//! A core is driven by a stencil sweep ([`crate::patterns`]), whose one
//! driver, the sweep cursor, turns 8-byte elements into one hierarchy
//! operation per 64-byte cache line (the granularity at which traffic is
//! decided); [`CoreSim::drive_run`] is the sweep of one contiguous run.
//! The counters and per-level hits and misses must be those of feeding
//! the same elements one at a time; `tests/reference_hierarchy.rs` holds
//! the cursor to a naive hierarchy that shares none of this code, element
//! by element.
//!
//! Probabilistic micro-architectural events (evasion success, speculative
//! reads, partial write-combine flushes) use fractional accounting so the
//! results are deterministic.
//!
//! The paper keeps *what the caches do* (layer conditions, write-allocates)
//! apart from *how SpecI2M weights it* (the evasion fraction under load),
//! and so does the simulator, in one vocabulary: the `Event`.  The cache
//! dynamics of this module — [`PrivateCore`] driving its banks — never
//! touch a counter: at each of the eight sites where memory traffic
//! happens they emit one event, a store line's carrying its streak
//! *response*, the one factor of its weight the occupancy cannot change.
//! The `Accountant` (`accountant.rs`) is the only code that turns an
//! event into [`MemCounters`]; it owns everything that weights one (the
//! SpecI2M parameters, the occupancy context, the prefetch-off factor) and
//! splits what it can once per occupancy.  A trace (`trace.rs`) stores the
//! emitted events themselves, equal consecutive ones merged into runs, and
//! `replay_trace` weighs each through the same `Accountant::weigh` a
//! live event goes through, so it is exact by shared formulas; a run of
//! `n` is added in O(binades), bit for bit the naive loop.  Every level is
//! a true-LRU [`SetAssocCache`], so nothing here is a type parameter; the
//! store-miss policy is read once per finalized store line and is a field
//! of [`CoreSimOptions`].

use clover_machine::{Machine, WritePolicyKind};

use crate::access::AccessRun;
use crate::accountant::Accountant;
use crate::cache::{LookupResult, SetAssocCache};
use crate::coalescer::{FinalizedLine, WriteCoalescer};
use crate::counters::MemCounters;
use crate::memo::{KernelSpec, RankBase};
use crate::prefetch::PrefetcherConfig;
use crate::trace::{Event, TraceRecorder};

/// Per-domain activity of a compactly pinned job — the statistics that
/// every occupancy-dependent component (evasion context, L3 sharing, the
/// node simulator's representative-core loop) derives its numbers from.
/// Previously each caller re-derived these from the topology on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainOccupancy {
    /// Active cores per ccNUMA domain (compact pinning, domain 0 first).
    pub cores_per_domain: Vec<usize>,
    /// Number of domains with at least one active core (at least 1).
    pub active_domains: usize,
    /// Active cores in the most loaded domain (at least 1).
    pub busiest: usize,
}

impl DomainOccupancy {
    /// Statistics for compact pinning of `total_ranks` ranks on `machine`.
    pub fn compact(machine: &Machine, total_ranks: usize) -> Self {
        let cores_per_domain = machine.topology.active_cores_per_domain(total_ranks);
        let active_domains = cores_per_domain.iter().filter(|&&c| c > 0).count().max(1);
        let busiest = cores_per_domain.iter().copied().max().unwrap_or(1).max(1);
        Self {
            cores_per_domain,
            active_domains,
            busiest,
        }
    }

    /// Number of cores sharing the L3 with a core in a domain that has
    /// `cores_in_domain` active cores: the active cores of the socket under
    /// compact pinning, capped at the hardware sharer count.
    pub fn l3_sharers(machine: &Machine, cores_in_domain: usize) -> usize {
        (cores_in_domain * machine.topology.domains_per_socket())
            .clamp(1, machine.caches.l3_sharers)
    }
}

/// Occupancy of the machine while this core runs: how loaded its ccNUMA
/// domain is and how many domains of the node are populated.  This is what
/// makes SpecI2M "dynamic-adaptive".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyContext {
    /// Bandwidth utilisation (0..=1) of the core's ccNUMA domain.
    pub domain_utilization: f64,
    /// Number of ccNUMA domains with at least one active core.
    pub active_domains: usize,
    /// Total ccNUMA domains in the node.
    pub total_domains: usize,
}

impl OccupancyContext {
    /// Context of a single active core on an otherwise idle node.
    pub fn serial(machine: &Machine) -> Self {
        Self {
            domain_utilization: machine.domain_utilization(1),
            active_domains: 1,
            total_domains: machine.topology.domains.len(),
        }
    }

    /// Context for compact pinning of `total_ranks` ranks, seen from a core
    /// in the most loaded domain.
    pub fn compact(machine: &Machine, total_ranks: usize) -> Self {
        let occ = DomainOccupancy::compact(machine, total_ranks);
        Self {
            domain_utilization: machine.domain_utilization(occ.busiest),
            active_domains: occ.active_domains,
            total_domains: machine.topology.domains.len(),
        }
    }

    /// Context for a core running in a domain with `cores_in_domain` active
    /// cores while `active_domains` domains of the node are populated.
    pub fn domain_load(machine: &Machine, cores_in_domain: usize, active_domains: usize) -> Self {
        Self {
            domain_utilization: machine.domain_utilization(cores_in_domain),
            active_domains: active_domains.max(1),
            total_domains: machine.topology.domains.len(),
        }
    }
}

/// Simulation switches for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSimOptions {
    /// Whether the SpecI2M feature is enabled (MSR bit).
    pub speci2m_enabled: bool,
    /// Hardware prefetcher configuration.
    pub prefetchers: PrefetcherConfig,
    /// Number of cores actively sharing the L3 (determines this core's L3
    /// share).  `1` gives the full L3 to this core.
    pub l3_sharers: usize,
    /// What a store that misses the hierarchy does.
    pub write_policy: WritePolicyKind,
}

impl Default for CoreSimOptions {
    fn default() -> Self {
        Self {
            speci2m_enabled: true,
            prefetchers: PrefetcherConfig::enabled(),
            l3_sharers: 1,
            write_policy: WritePolicyKind::Allocate,
        }
    }
}

/// The per-core L3 share for a sharer count, floored at 64 lines.
pub(crate) fn l3_share_bytes(l3_full_bytes: usize, sharers: usize) -> usize {
    (l3_full_bytes / sharers.max(1)).max(64 * 64)
}

/// The private half of one core's hierarchy: L1 + L2 + the store paths
/// (coalescers), the adjacent-line prefetcher and the `Accountant` of
/// this core's traffic — everything *except* the last level.
///
/// Every driving method takes the last-level cache as a parameter: the solo
/// [`CoreSim`] passes its own per-core L3 share, the co-run engine passes
/// the tenant-shared LLC.
#[derive(Debug, Clone)]
pub struct PrivateCore {
    l1: SetAssocCache,
    l2: SetAssocCache,
    coalescer: WriteCoalescer,
    nt_coalescer: WriteCoalescer,
    options: CoreSimOptions,
    account: Accountant,
    /// Differential-re-simulation recorder; idle (the default) costs one
    /// predictable branch per event.
    pub(crate) trace: TraceRecorder,
}

impl PrivateCore {
    /// Build the private half for `machine`.
    pub fn new(machine: &Machine, ctx: OccupancyContext, options: CoreSimOptions) -> Self {
        let caches = &machine.caches;
        Self {
            l1: SetAssocCache::new(caches.l1.capacity_bytes, caches.l1.associativity),
            l2: SetAssocCache::new(caches.l2.capacity_bytes, caches.l2.associativity),
            coalescer: WriteCoalescer::default(),
            nt_coalescer: WriteCoalescer::default(),
            options,
            account: Accountant::new(&machine.speci2m, ctx, options),
            trace: TraceRecorder::default(),
        }
    }

    /// Re-arm the private half for a fresh measurement under a (possibly
    /// different) occupancy and option set, reusing the bank allocations.
    pub fn reset(&mut self, ctx: OccupancyContext, options: CoreSimOptions) {
        self.l1.reset();
        self.l2.reset();
        self.coalescer.reset();
        self.nt_coalescer.reset();
        self.options = options;
        self.account.arm(ctx, options);
        self.trace.finish();
    }

    /// One event of memory traffic: account it and, if a trace is active,
    /// record it.
    #[inline]
    fn emit(&mut self, event: Event) {
        self.account.apply(event);
        if self.trace.is_recording() {
            self.trace.push(event);
        }
    }

    /// The occupancy context this core was configured with.
    pub fn context(&self) -> OccupancyContext {
        self.account.context()
    }

    /// Current counter snapshot (without flushing pending state).
    pub fn counters(&self) -> MemCounters {
        self.account.counters
    }

    /// `(hits, misses)` of the private L1 and L2 banks.
    pub fn upper_cache_stats(&self) -> [(u64, u64); 2] {
        [
            (self.l1.hits(), self.l1.misses()),
            (self.l2.hits(), self.l2.misses()),
        ]
    }

    /// Feed one single-line store segment to the matching coalescer and
    /// handle the at most one line it finalizes.
    pub(crate) fn store_line_segment(
        &mut self,
        llc: &mut SetAssocCache,
        line: u64,
        offset: u64,
        len: u64,
        nt: bool,
    ) {
        if nt {
            if let Some(ev) = self.nt_coalescer.store_segment(line, offset, len) {
                self.handle_nt_line(llc, ev);
            }
        } else if let Some(ev) = self.coalescer.store_segment(line, offset, len) {
            self.handle_store_line(llc, ev);
        }
    }

    /// True if `line` is resident in the L1 (no LRU or counter effect).
    pub(crate) fn l1_contains(&self, line: u64) -> bool {
        self.l1.contains(line)
    }

    /// Account `n` guaranteed L1 hits on a resident line (see
    /// [`SetAssocCache::touch_repeat`]); `false` if the line is not
    /// resident and nothing was counted.
    pub(crate) fn l1_touch_repeat(&mut self, line: u64, n: u64) -> bool {
        self.l1.touch_repeat(line, n)
    }

    /// True if the (normal or NT) write coalescer has an open stream on
    /// `line`, i.e. a further store segment to it is a pure coverage merge.
    pub(crate) fn coalescer_at_line(&self, line: u64, nt: bool) -> bool {
        if nt {
            self.nt_coalescer.stream_at_line(line)
        } else {
            self.coalescer.stream_at_line(line)
        }
    }

    /// The L1's recency changes so far (see [`SetAssocCache`]'s
    /// `reorders`).
    #[inline]
    pub(crate) fn l1_reorders(&self) -> u64 {
        self.l1.reorders()
    }

    /// Count `n` L1 hits on lines the caller knows are resident and
    /// already where a touch would put them.
    #[inline]
    pub(crate) fn l1_settled_hits(&mut self, n: u64) {
        self.l1.settled_hits(n);
    }

    /// A snapshot for [`undisturbed_since`](Self::undisturbed_since).
    #[inline]
    pub(crate) fn mark(&self) -> SegmentMark {
        SegmentMark {
            l1_reorders: self.l1.reorders(),
            l1_invalidations: self.l1.invalidations(),
            store_stamp: self.coalescer.stamp(),
            nt_stamp: self.nt_coalescer.stamp(),
        }
    }

    /// True if every line loaded since `mark` is still L1-resident and
    /// every line stored to since then still has an open stream: no L1
    /// line was invalidated, fewer than `ways` L1 recency changes happened
    /// (a line made the most recent of its set leaves only after `ways`),
    /// and neither coalescer moved a stream stored to since.  O(1): it
    /// looks at no line.
    #[inline]
    pub(crate) fn undisturbed_since(&self, mark: SegmentMark) -> bool {
        self.l1.invalidations() == mark.l1_invalidations
            && self.l1.reorders() - mark.l1_reorders < self.l1.ways() as u64
            && self.coalescer.settled_since(mark.store_stamp)
            && self.nt_coalescer.settled_since(mark.nt_stamp)
    }

    /// First half of a flush: finalize pending store streams (which may
    /// still generate traffic against `llc`) and drain the private banks,
    /// returning their dirty lines.  The caller drains the last level —
    /// once per *core* on the solo path, once per *node* on a co-run —
    /// and completes the accounting with [`account_writebacks`].
    ///
    /// [`account_writebacks`]: Self::account_writebacks
    pub(crate) fn flush_streams_and_upper(
        &mut self,
        llc: &mut SetAssocCache,
    ) -> (Vec<u64>, Vec<u64>) {
        let events = self.coalescer.flush();
        for ev in events {
            self.handle_store_line(llc, ev);
        }
        let nt_events = self.nt_coalescer.flush();
        for ev in nt_events {
            self.handle_nt_line(llc, ev);
        }
        (self.l1.flush_dirty(), self.l2.flush_dirty())
    }

    /// Second half of a flush: write back every dirty line exactly once
    /// (inclusive hierarchy).  Each level's own list is duplicate-free;
    /// the sort-based dedup is only needed when a line could be dirty at
    /// several levels at once, i.e. when more than one level has dirty
    /// lines at all — streaming kernels keep the dirty bit at L3 only and
    /// skip it.  Returns the final counters.
    pub(crate) fn account_writebacks(
        &mut self,
        l1_dirty: Vec<u64>,
        l2_dirty: Vec<u64>,
        l3_dirty: Vec<u64>,
    ) -> MemCounters {
        let levels_with_dirty = [&l1_dirty, &l2_dirty, &l3_dirty]
            .iter()
            .filter(|d| !d.is_empty())
            .count();
        let distinct = if levels_with_dirty > 1 {
            let mut dirty = l1_dirty;
            dirty.extend(l2_dirty);
            dirty.extend(l3_dirty);
            dirty.sort_unstable();
            dirty.dedup();
            dirty.len()
        } else {
            l1_dirty.len() + l2_dirty.len() + l3_dirty.len()
        };
        self.emit(Event::WritebackBulk {
            distinct: distinct as u64,
        });
        self.account.counters
    }

    fn hierarchy_hit(&mut self, llc: &mut SetAssocCache, line: u64, write: bool) -> bool {
        if self.l1.touch(line, write) == LookupResult::Hit {
            return true;
        }
        if self.l2.touch(line, write) == LookupResult::Hit {
            // Promote to L1 (clean copy; the dirty bit stays in L2).
            self.fill_upper(llc, line, false, 1);
            return true;
        }
        if llc.touch(line, write) == LookupResult::Hit {
            self.fill_upper(llc, line, false, 2);
            return true;
        }
        false
    }

    /// Land a dirty line evicted from an upper level in the last level
    /// (present or not), counting the write-back its own victim may cause.
    /// One combined probe instead of a touch followed by a fill.
    fn sink_dirty_into_llc(&mut self, llc: &mut SetAssocCache, line: u64) {
        let (_, evicted) = llc.probe_fill(line, true);
        if let Some(ev3) = evicted {
            if ev3.dirty {
                self.emit(Event::Writeback);
            }
        }
    }

    /// Fill a line into the upper levels (L1 and optionally L2), cascading
    /// dirty evictions downwards without generating memory traffic.
    fn fill_upper(&mut self, llc: &mut SetAssocCache, line: u64, dirty: bool, levels: usize) {
        if levels >= 2 {
            if let Some(ev) = self.l2.fill(line, dirty) {
                if ev.dirty {
                    // Dirty eviction from L2 lands in the LLC (present or
                    // not).
                    self.sink_dirty_into_llc(llc, ev.line);
                }
            }
        }
        if let Some(ev) = self.l1.fill(line, dirty) {
            if ev.dirty {
                let (_, evicted) = self.l2.probe_fill(ev.line, true);
                if let Some(ev2) = evicted {
                    if ev2.dirty {
                        self.sink_dirty_into_llc(llc, ev2.line);
                    }
                }
            }
        }
    }

    /// Fill a line into the whole hierarchy after a memory read or an ITOM
    /// claim.  The dirty bit is kept at the last level only so the eventual
    /// write-back is counted exactly once.
    fn fill_all(&mut self, llc: &mut SetAssocCache, line: u64, dirty: bool) {
        if let Some(ev) = llc.fill(line, dirty) {
            if ev.dirty {
                self.emit(Event::Writeback);
            }
        }
        self.fill_upper(llc, line, false, 2);
    }

    /// Fill a prefetched line into the last level only; a line already
    /// there is left as it is, and costs no traffic.
    fn fill_prefetch(&mut self, llc: &mut SetAssocCache, line: u64) {
        let (LookupResult::Miss, evicted) = llc.fill_if_absent(line) else {
            return;
        };
        self.emit(Event::PrefetchRead);
        if evicted.is_some_and(|ev| ev.dirty) {
            self.emit(Event::Writeback);
        }
    }

    /// One demand load of `line`.
    pub(crate) fn load_line(&mut self, llc: &mut SetAssocCache, line: u64) {
        if self.hierarchy_hit(llc, line, false) {
            return;
        }
        // Demand miss: read from memory.
        self.emit(Event::DemandRead);
        self.fill_all(llc, line, false);
        // The adjacent-line prefetcher reacts to the demand miss.
        if self.options.prefetchers.adjacent_line {
            let buddy = line ^ 1;
            self.fill_prefetch(llc, buddy);
        }
    }

    /// Retire one coalesced line of regular stores as the options'
    /// [`write_policy`](CoreSimOptions::write_policy) says.
    // Once per stored line: left to the inliner's size heuristics this has
    // fallen out of `store_line_segment` and cost the store path ~15 %.
    #[inline]
    fn handle_store_line(&mut self, llc: &mut SetAssocCache, ev: FinalizedLine) {
        let policy = self.options.write_policy;
        if policy == WritePolicyKind::NonTemporal {
            // Every regular store behaves like a non-temporal streaming
            // store: the coalesced line bypasses the hierarchy entirely.
            return self.handle_nt_line(llc, ev);
        }
        if self.hierarchy_hit(llc, ev.line, true) {
            // Store hit: no memory traffic now; the dirty line is written
            // back on eviction.
            return;
        }
        if policy == WritePolicyKind::NoAllocate {
            // The line is written through to memory without claiming it in
            // the hierarchy — no read-for-ownership, no fill, no SpecI2M
            // involvement.
            return self.emit(Event::Writeback);
        }
        // The paper machines' store-miss path: a write-allocate read unless
        // SpecI2M claims the line without one (ITOM).
        let response = self.account.streak_response(ev.streak_estimate);
        self.emit(Event::WaStore {
            full: ev.full,
            streams: ev.active_streams as u32,
            response: response.to_bits(),
        });
        // The line now lives dirty in the hierarchy either way.
        self.fill_all(llc, ev.line, true);
    }

    fn handle_nt_line(&mut self, llc: &mut SetAssocCache, ev: FinalizedLine) {
        // NT stores bypass the hierarchy; stale copies must be invalidated.
        self.l1.invalidate(ev.line);
        self.l2.invalidate(ev.line);
        llc.invalidate(ev.line);
        self.emit(Event::NtLine { full: ev.full });
    }
}

/// What [`PrivateCore::undisturbed_since`] compares against: the L1's
/// recency log and the coalescers' stamps at one moment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentMark {
    l1_reorders: u64,
    l1_invalidations: u64,
    store_stamp: u64,
    nt_stamp: u64,
}

/// Cache hierarchy + store path of a single core.
///
/// A thin facade: the L1/L2 banks, store paths and counters live in a
/// [`PrivateCore`] and the per-core L3 share is the last-level bank it is
/// driven against — the same composition the co-run engine builds with a
/// *tenant-shared* LLC instead.
#[derive(Debug, Clone)]
pub struct CoreSim {
    private: PrivateCore,
    l3: SetAssocCache,
    /// Full (unshared) L3 capacity, kept so [`reset`](Self::reset) can
    /// re-derive the per-core share for a different sharer count.
    l3_full_bytes: usize,
    l3_ways: usize,
}

impl CoreSim {
    /// Build a core simulator for `machine` under the given occupancy and
    /// options.
    pub fn new(machine: &Machine, ctx: OccupancyContext, options: CoreSimOptions) -> Self {
        let caches = &machine.caches;
        let l3_share = l3_share_bytes(caches.l3.capacity_bytes, options.l3_sharers);
        Self {
            private: PrivateCore::new(machine, ctx, options),
            l3: SetAssocCache::new(l3_share, caches.l3.associativity),
            l3_full_bytes: caches.l3.capacity_bytes,
            l3_ways: caches.l3.associativity,
        }
    }

    /// Re-arm the simulator for a fresh measurement under a (possibly
    /// different) occupancy and option set, reusing the cache arena
    /// allocations.  Afterwards the state is indistinguishable from
    /// `CoreSim::new` on the same machine — only cheaper: the L3 share of a
    /// different sharer count is a new geometry over the same lanes, which
    /// grow only for a share larger than any before.
    pub fn reset(&mut self, ctx: OccupancyContext, options: CoreSimOptions) {
        let l3_share = l3_share_bytes(self.l3_full_bytes, options.l3_sharers);
        self.l3.reshape(l3_share, self.l3_ways);
        self.private.reset(ctx, options);
    }

    /// The occupancy context this core was configured with.
    pub fn context(&self) -> OccupancyContext {
        self.private.context()
    }

    /// Current counter snapshot (without flushing pending state).
    pub fn counters(&self) -> MemCounters {
        self.private.counters()
    }

    /// Per-level `(hits, misses)` of the L1, L2 and L3 caches — exposed so
    /// the reference-hierarchy tests can hold not just the memory counters
    /// but the full cache behaviour to an independent model.
    pub fn cache_stats(&self) -> [(u64, u64); 3] {
        let [l1, l2] = self.private.upper_cache_stats();
        [l1, l2, (self.l3.hits(), self.l3.misses())]
    }

    /// Drive a contiguous run of 8-byte elements through the hierarchy:
    /// the run is a one-operand, one-row [`KernelSpec`], driven like every
    /// other kernel by the [`SweepCursor`](crate::SweepCursor) at
    /// cache-line granularity.  Produces the [`MemCounters`] and per-level
    /// hit/miss counts of feeding the same elements one by one (a run of
    /// one element is one access).
    pub fn drive_run(&mut self, run: AccessRun) {
        KernelSpec::contiguous(RankBase::Shared, run.base, run.elements, run.kind).drive(0, self);
    }

    /// The private half and the L3 share it is driven against — what the
    /// stencil cursor advances on (the co-run engine hands it a
    /// tenant-shared LLC instead).
    pub(crate) fn split(&mut self) -> (&mut PrivateCore, &mut SetAssocCache) {
        (&mut self.private, &mut self.l3)
    }

    /// Finalize pending store streams and flush dirty cache lines to memory.
    /// Must be called at the end of a measurement region; returns the final
    /// counters.
    pub fn flush(&mut self) -> MemCounters {
        let (l1_dirty, l2_dirty) = self.private.flush_streams_and_upper(&mut self.l3);
        let l3_dirty = self.l3.flush_dirty();
        self.private
            .account_writebacks(l1_dirty, l2_dirty, l3_dirty)
    }

    /// Lines the L3 share has evicted since construction or the last
    /// [`reset`](Self::reset).
    pub(crate) fn l3_evictions(&self) -> u64 {
        self.l3.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::trace::{replay_trace, Trace};
    use clover_machine::icelake_sp_8360y;

    fn serial_core(machine: &Machine) -> CoreSim {
        CoreSim::new(
            machine,
            OccupancyContext::serial(machine),
            CoreSimOptions::default(),
        )
    }

    fn loaded_core(machine: &Machine) -> CoreSim {
        // Full node: every domain saturated.
        let ctx = OccupancyContext::compact(machine, machine.total_cores());
        CoreSim::new(
            machine,
            ctx,
            CoreSimOptions {
                l3_sharers: 36,
                ..Default::default()
            },
        )
    }

    /// Stream `n` doubles element by element: load from `src`, store to
    /// `dst`.
    fn copy_kernel(core: &mut CoreSim, src: u64, dst: u64, n: u64, nt: bool) {
        for i in 0..n {
            core.drive_run(AccessRun::load(src + 8 * i, 1));
            core.drive_run(if nt {
                AccessRun::store_nt(dst + 8 * i, 1)
            } else {
                AccessRun::store(dst + 8 * i, 1)
            });
        }
    }

    #[test]
    fn pure_load_sweep_reads_each_line_once() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        let n = 8 * 1024u64; // 64 KiB of doubles = 1024 lines
        core.drive_run(AccessRun::load(0, n));
        let c = core.flush();
        // Prefetchers may overfetch a few lines past the end, but the order
        // of magnitude must be exactly one read per line and no writes.
        assert!(c.read_lines >= 1024.0);
        assert!(c.read_lines <= 1100.0, "read lines = {}", c.read_lines);
        assert_eq!(c.write_lines, 0.0);
    }

    #[test]
    fn serial_copy_has_write_allocates() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        let n = 8 * 4096u64;
        copy_kernel(&mut core, 0, 1 << 30, n, false);
        let c = core.flush();
        let lines = (n / 8) as f64;
        // Serial: SpecI2M inactive → every store line needs a write-allocate.
        // Read = source + WA ≈ 2 lines/iteration-line, write = 1.
        assert!(
            c.write_allocate_lines > 0.95 * lines,
            "WA = {}",
            c.write_allocate_lines
        );
        assert!(
            (c.read_lines / lines - 2.0).abs() < 0.15,
            "reads/line = {}",
            c.read_lines / lines
        );
        assert!((c.write_lines / lines - 1.0).abs() < 0.05);
        assert!(c.itom_lines < 0.05 * lines);
    }

    #[test]
    fn loaded_copy_evades_write_allocates() {
        let m = icelake_sp_8360y();
        let mut core = loaded_core(&m);
        let n = 8 * 4096u64;
        copy_kernel(&mut core, 0, 1 << 30, n, false);
        let c = core.flush();
        let lines = (n / 8) as f64;
        // Under full-node load SpecI2M claims most store lines via ITOM.
        assert!(
            c.itom_lines > 0.6 * lines,
            "itom = {} of {}",
            c.itom_lines,
            lines
        );
        assert!(c.read_lines / lines < 1.5);
        // The read/write ratio approaches 1 (paper Fig. 6 / Fig. 8).
        assert!(c.read_write_ratio() < 1.5);
    }

    #[test]
    fn speci2m_disabled_restores_write_allocates() {
        let m = icelake_sp_8360y();
        let ctx = OccupancyContext::compact(&m, m.total_cores());
        let mut core = CoreSim::new(
            &m,
            ctx,
            CoreSimOptions {
                speci2m_enabled: false,
                l3_sharers: 36,
                ..Default::default()
            },
        );
        let n = 8 * 4096u64;
        copy_kernel(&mut core, 0, 1 << 30, n, false);
        let c = core.flush();
        let lines = (n / 8) as f64;
        assert!(c.itom_lines < 1e-9);
        assert!(
            c.read_lines / lines > 1.9,
            "without SpecI2M every store needs a WA"
        );
    }

    #[test]
    fn nt_stores_avoid_write_allocates_when_serial() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        let n = 8 * 4096u64;
        copy_kernel(&mut core, 0, 1 << 30, n, true);
        let c = core.flush();
        let lines = (n / 8) as f64;
        // NT stores: read only the source, write the destination once.
        assert!(
            (c.read_lines / lines - 1.0).abs() < 0.1,
            "reads/line = {}",
            c.read_lines / lines
        );
        assert!((c.write_lines / lines - 1.0).abs() < 0.05);
        assert_eq!(c.write_allocate_lines, 0.0);
    }

    #[test]
    fn nt_stores_degrade_slightly_under_full_node_load() {
        let m = icelake_sp_8360y();
        let mut serial = serial_core(&m);
        let mut loaded = loaded_core(&m);
        let n = 8 * 4096u64;
        copy_kernel(&mut serial, 0, 1 << 30, n, true);
        copy_kernel(&mut loaded, 0, 1 << 30, n, true);
        let cs = serial.flush();
        let cl = loaded.flush();
        // Store ratio (traffic per byte written): rises from ~1.0 towards
        // ~1.16 on the full node (Fig. 5 NT curves).
        let extra_serial = cs.read_lines / cs.write_lines;
        let extra_loaded = cl.read_lines / cl.write_lines;
        assert!(extra_loaded > extra_serial);
        assert!(extra_loaded - 1.0 < 0.4);
    }

    #[test]
    fn short_rows_evade_less_than_long_rows() {
        let m = icelake_sp_8360y();
        let n_rows = 64u64;
        let mut ratios = Vec::new();
        for inner in [216u64, 1920u64] {
            let mut core = loaded_core(&m);
            // Copy row by row with a 5-element halo gap between rows, as the
            // prime-rank decomposition produces.
            for row in 0..n_rows {
                let src = row * (inner + 5) * 8;
                let dst = (1 << 32) + row * (inner + 5) * 8;
                copy_kernel(&mut core, src, dst, inner, false);
            }
            let c = core.flush();
            ratios.push(c.read_write_ratio());
        }
        assert!(
            ratios[0] > ratios[1] + 0.05,
            "short inner dimension must have a worse read/write ratio: {ratios:?}"
        );
    }

    #[test]
    fn store_hit_generates_no_memory_read() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        // Load a small array (fits in L1), then overwrite it.
        core.drive_run(AccessRun::load(0, 64));
        let after_loads = core.counters();
        core.drive_run(AccessRun::store(0, 64));
        let c = core.flush();
        assert_eq!(
            c.read_lines, after_loads.read_lines,
            "stores hit in cache: no extra reads"
        );
        assert!(c.write_lines >= 8.0, "dirty lines must be written back");
    }

    #[test]
    fn flush_is_idempotent_for_writes() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        core.drive_run(AccessRun::store(0, 512));
        let c1 = core.flush();
        let c2 = core.flush();
        assert_eq!(
            c1.write_lines, c2.write_lines,
            "second flush must not add writes"
        );
    }

    #[test]
    fn prefetchers_off_increase_wa_for_partial_lines() {
        let m = icelake_sp_8360y();
        let mk = |pf: PrefetcherConfig| {
            let ctx = OccupancyContext::compact(&m, m.total_cores());
            CoreSim::new(
                &m,
                ctx,
                CoreSimOptions {
                    prefetchers: pf,
                    l3_sharers: 36,
                    ..Default::default()
                },
            )
        };
        let run = |core: &mut CoreSim| {
            for row in 0..64u64 {
                let base = row * (216 + 3) * 8;
                for i in 0..216u64 {
                    core.drive_run(AccessRun::load((1 << 33) + base + i * 8, 1));
                    core.drive_run(AccessRun::store(base + i * 8, 1));
                }
            }
            core.flush()
        };
        let on = run(&mut mk(PrefetcherConfig::enabled()));
        let off = run(&mut mk(PrefetcherConfig::disabled()));
        assert!(
            off.read_write_ratio() > on.read_write_ratio(),
            "PF off must increase the read/write ratio: on={} off={}",
            on.read_write_ratio(),
            off.read_write_ratio()
        );
    }

    /// Drive the same accesses as whole runs and element by element (runs
    /// of one): one driver, segmented two ways.  The counters and the
    /// per-level cache statistics must not depend on the segmentation.
    fn assert_equivalent(runs: &[AccessRun], mk: impl Fn() -> CoreSim) {
        let mut scalar = mk();
        let mut batched = mk();
        for run in runs {
            for i in 0..run.elements {
                scalar.drive_run(AccessRun {
                    base: run.base + i * 8,
                    elements: 1,
                    kind: run.kind,
                });
            }
            batched.drive_run(*run);
        }
        assert_eq!(scalar.cache_stats(), batched.cache_stats());
        assert_eq!(scalar.flush(), batched.flush());
    }

    #[test]
    fn drive_run_matches_scalar_for_aligned_and_misaligned_runs() {
        let m = icelake_sp_8360y();
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::StoreNT] {
            for base in [0u64, 8, 24, 60, 63, 4096 - 4] {
                for elements in [0u64, 1, 7, 8, 9, 64, 513] {
                    assert_equivalent(
                        &[AccessRun {
                            base,
                            elements,
                            kind,
                        }],
                        || serial_core(&m),
                    );
                }
            }
        }
    }

    #[test]
    fn drive_run_matches_scalar_for_row_patterns_under_load() {
        let m = icelake_sp_8360y();
        // Rows with an unaligned halo gap, alternating load and store
        // arrays — the Fig. 8 pattern shape.
        let mut runs = Vec::new();
        for row in 0..24u64 {
            let off = row * (216 + 3) * 8;
            runs.push(AccessRun::load((1 << 33) + off, 216));
            runs.push(AccessRun::store(off, 216));
        }
        assert_equivalent(&runs, || loaded_core(&m));
    }

    #[test]
    fn reset_reproduces_a_fresh_core() {
        use clover_machine::sapphire_rapids_8480;
        // A working set that outgrows the smallest L3 shares, so the runs
        // differ by geometry and evict where the share is small.
        let lines = 40 * 1024u64;
        let run = |core: &mut CoreSim| {
            core.drive_run(AccessRun::load(0, 8 * lines));
            core.drive_run(AccessRun::store(1 << 30, 8 * lines));
            copy_kernel(core, 1 << 33, 1 << 34, 512, true);
            // `flush`, step by step, to see the dirty lists themselves.
            let (l1, l2) = core.private.flush_streams_and_upper(&mut core.l3);
            let dirty = [l1, l2, core.l3.flush_dirty()];
            let [l1, l2, l3] = dirty.clone();
            let counters = core.private.account_writebacks(l1, l2, l3);
            (counters, core.cache_stats(), dirty)
        };
        // One core walks a shrinking and growing sharer sequence — every
        // reset re-shapes the L3 lanes in place, smaller or larger — and
        // must reproduce a fresh core of that share each time.
        for m in [icelake_sp_8360y(), sapphire_rapids_8480()] {
            let max = m.caches.l3_sharers;
            let mut reused = loaded_core(&m);
            let _ = run(&mut reused);
            for l3_sharers in [1, max, 2, max / 2, 1] {
                let ctx = OccupancyContext::compact(&m, l3_sharers);
                let options = CoreSimOptions {
                    l3_sharers,
                    ..Default::default()
                };
                reused.reset(ctx, options);
                let mut fresh: CoreSim = CoreSim::new(&m, ctx, options);
                assert_eq!(
                    reused.l3.capacity_lines(),
                    fresh.l3.capacity_lines(),
                    "{} sharers={l3_sharers}",
                    m.id
                );
                assert_eq!(
                    run(&mut reused),
                    run(&mut fresh),
                    "{} sharers={l3_sharers}",
                    m.id
                );
            }
        }
    }

    #[test]
    fn a_prefetch_costs_traffic_only_for_an_absent_line() {
        let m = icelake_sp_8360y();
        let mut core = loaded_core(&m);
        let (sets, ways) = SetAssocCache::geometry(
            l3_share_bytes(m.caches.l3.capacity_bytes, 36),
            m.caches.l3.associativity,
        );
        let congruent = |k: usize| (1 << 20) + (k * sets) as u64;
        // One L3 set full of dirty lines, `congruent(0)` the oldest.
        for k in 0..ways {
            assert!(core.l3.fill(congruent(k), true).is_none());
        }
        let stats = core.cache_stats();
        core.private.trace.start();
        // Of a resident line: no event, and no refresh either — the oldest
        // line is still the next victim.
        core.private.fill_prefetch(&mut core.l3, congruent(0));
        // Of an absent line: the read, and the write-back of its dirty
        // victim.
        core.private.fill_prefetch(&mut core.l3, congruent(ways));
        assert!(!core.l3.contains(congruent(0)) && core.l3.contains(congruent(1)));
        // Into a set with room: the read alone.
        core.private.fill_prefetch(&mut core.l3, congruent(0) + 1);
        // A prefetch is no demand access, whatever it finds.
        assert_eq!(core.cache_stats(), stats);
        assert_eq!(
            core.private.trace.finish().as_deref(),
            Some(&[Event::PrefetchRead, Event::Writeback, Event::PrefetchRead][..])
        );
        let c = core.counters();
        assert_eq!(
            (c.read_lines, c.prefetch_lines, c.write_lines),
            (2.0, 2.0, 1.0)
        );
    }

    #[test]
    fn domain_occupancy_matches_manual_derivation() {
        let m = icelake_sp_8360y();
        for ranks in [1usize, 17, 18, 19, 37, 72] {
            let occ = DomainOccupancy::compact(&m, ranks);
            let per = m.topology.active_cores_per_domain(ranks);
            assert_eq!(occ.cores_per_domain, per);
            assert_eq!(
                occ.active_domains,
                per.iter().filter(|&&c| c > 0).count().max(1)
            );
            assert_eq!(occ.busiest, per.iter().copied().max().unwrap().max(1));
        }
        assert_eq!(DomainOccupancy::l3_sharers(&m, 1), 2);
        assert_eq!(
            DomainOccupancy::l3_sharers(&m, 18),
            m.caches.l3_sharers.min(36)
        );
    }

    /// Run the Fig.-8-shaped row kernel (loads, stores and NT stores so
    /// every event variant is recorded) under `ctx`/`options`, returning the
    /// final counters and the recorded trace.
    fn traced_run(
        m: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
    ) -> (MemCounters, Trace) {
        let mut core: CoreSim = CoreSim::new(m, ctx, options);
        core.private.trace.start();
        for row in 0..16u64 {
            let off = row * (216 + 3) * 8;
            core.drive_run(AccessRun::load((1 << 33) + off, 216));
            core.drive_run(AccessRun::store(off, 216));
        }
        core.drive_run(AccessRun::store_nt(1 << 35, 64));
        let c = core.flush();
        let trace = core
            .private
            .trace
            .finish()
            .expect("trace fits well under the cap");
        (c, trace)
    }

    #[test]
    fn trace_replay_reproduces_live_counters_across_neighbour_axes() {
        // The recorded dynamics of ONE simulation must replay bit-exactly
        // under every "neighbour" configuration — axes that only scale the
        // fractional accounting: occupancy context, the SpecI2M MSR switch
        // — whatever the store-miss policy put into the trace (`WaStore`,
        // `Writeback` or `NtLine` events).  (The trace itself is recorded once
        // per axis value here purely to obtain the live reference; replay
        // always uses the leader's trace.)
        let m = icelake_sp_8360y();
        for write_policy in WritePolicyKind::all() {
            let base_opts = CoreSimOptions {
                l3_sharers: 36,
                write_policy,
                ..Default::default()
            };
            let (_, leader_trace) = traced_run(&m, OccupancyContext::serial(&m), base_opts);
            for ranks in [1usize, 7, 18, 72] {
                for speci2m in [true, false] {
                    let at = format!("{write_policy} ranks={ranks} s2m={speci2m}");
                    let ctx = OccupancyContext::compact(&m, ranks);
                    let options = CoreSimOptions {
                        speci2m_enabled: speci2m,
                        ..base_opts
                    };
                    let (live, live_trace) = traced_run(&m, ctx, options);
                    // Same dynamics class ⇒ identical traces...
                    assert_eq!(live_trace, leader_trace, "{at}");
                    // ...and replaying the leader's trace under this
                    // neighbour's context reproduces the live counters bit
                    // for bit.
                    let replayed = replay_trace(&m.speci2m, ctx, options, &leader_trace);
                    assert_eq!(replayed, live, "{at}");
                }
            }
        }
    }

    #[test]
    fn trace_replay_tracks_the_prefetch_evasion_factor() {
        // Prefetcher config changes the dynamics (different trace), so a
        // replay is only valid against a trace recorded under the same
        // config — verify the pf-off factor is honoured within the class.
        let m = icelake_sp_8360y();
        let options = CoreSimOptions {
            prefetchers: PrefetcherConfig::disabled(),
            l3_sharers: 36,
            ..Default::default()
        };
        let ctx = OccupancyContext::compact(&m, 72);
        let (live, trace) = traced_run(&m, ctx, options);
        assert_eq!(replay_trace(&m.speci2m, ctx, options, &trace), live);
    }

    /// Every counter's bits: NaN counters compare too.
    fn counter_bits(c: MemCounters) -> [u64; 6] {
        [
            c.read_lines,
            c.write_lines,
            c.itom_lines,
            c.write_allocate_lines,
            c.prefetch_lines,
            c.speculative_read_lines,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn every_streak_records_and_replays_to_the_bits_of_an_unrecorded_core() {
        // A store line's event carries its streak response, computed as it
        // is emitted, so any streak records — fractional, negative, NaN,
        // past `u32::MAX` — and its replay is the live run's bits, whether
        // SpecI2M is ramped up or not.  Recording changes no live counter:
        // the recorded core's bits are those of the same core unrecorded.
        let m = icelake_sp_8360y();
        let ev = FinalizedLine {
            line: 1 << 20,
            full: true,
            streak_estimate: 27.0,
            active_streams: 2,
        };
        let loaded = loaded_core(&m);
        let serial = serial_core(&m);
        for streak in [27.0, 27.5, -1.0, f64::NAN, u32::MAX as f64 + 1.0, 1e300] {
            for template in [&loaded, &serial] {
                let (ctx, options) = (template.context(), template.private.options);
                let line = FinalizedLine {
                    streak_estimate: streak,
                    ..ev
                };
                let mut recorded = template.clone();
                let mut plain = template.clone();
                recorded.private.trace.start();
                for core in [&mut recorded, &mut plain] {
                    core.drive_run(AccessRun::load(0, 1));
                    core.private.handle_store_line(&mut core.l3, line);
                }
                let live = recorded.flush();
                assert_eq!(counter_bits(live), counter_bits(plain.flush()), "{line:?}");
                let trace = recorded
                    .private
                    .trace
                    .finish()
                    .expect("every streak records");
                let replayed = replay_trace(&m.speci2m, ctx, options, &trace);
                assert_eq!(counter_bits(replayed), counter_bits(live), "{line:?}");
                if streak == 27.0 {
                    let response = m.speci2m.streak_response(27.0).to_bits();
                    assert!(trace.contains(&Event::WaStore {
                        full: true,
                        streams: 2,
                        response
                    }));
                }
            }
        }
    }

    #[test]
    fn a_store_stream_past_its_saturation_streak_is_a_run() {
        // From the streak at which `1 − e^(−s/scale)` rounds to 1.0 every
        // line of a stream weighs the same: the rest of the stream is one
        // event and one run, so the trace holds the streaks below saturation,
        // those two entries and the flush's bulk write-back.
        let mut saturations = Vec::new();
        for m in [icelake_sp_8360y(), clover_machine::sapphire_rapids_8480()] {
            let p = &m.speci2m;
            let saturation = (1..)
                .find(|&s| p.streak_response(f64::from(s)) == 1.0)
                .expect("the response saturates");
            saturations.push(saturation);
            let ctx = OccupancyContext::compact(&m, m.total_cores());
            let options = CoreSimOptions {
                l3_sharers: m.caches.l3_sharers,
                ..Default::default()
            };
            let mut core: CoreSim = CoreSim::new(&m, ctx, options);
            core.private.trace.start();
            core.drive_run(AccessRun::store(1 << 30, 8 * 3 * u64::from(saturation)));
            let live = core.flush();
            let trace = core.private.trace.finish().expect("fits");
            assert!(
                trace.len() <= saturation as usize + 2,
                "{}: {} entries for a saturation streak of {saturation}",
                m.id,
                trace.len()
            );
            // Lines `saturation ..= 3 · saturation` are the last run.
            let saturated = Event::WaStore {
                full: true,
                streams: 1,
                response: 1f64.to_bits(),
            };
            assert_eq!(
                trace[trace.len() - 3..trace.len() - 1],
                [
                    saturated,
                    Event::Repeat {
                        count: 2 * saturation
                    }
                ],
                "{}",
                m.id
            );
            assert_eq!(replay_trace(p, ctx, options, &trace), live, "{}", m.id);
        }
        assert_eq!(saturations, [974, 674]);
    }

    #[test]
    fn reset_clears_an_active_trace() {
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        core.private.trace.start();
        core.drive_run(AccessRun::load(0, 1));
        core.reset(OccupancyContext::serial(&m), CoreSimOptions::default());
        assert!(
            core.private.trace.finish().is_none(),
            "a pooled core must not leak a stale trace across resets"
        );
    }

    #[test]
    fn repeated_stores_to_a_resident_line_stay_dirty() {
        // `touch_repeat` is a load-only fast path; repeated *stores* to an
        // already-resident line must keep flowing through the write path so
        // the dirty bit survives and the write-back is accounted.
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        core.drive_run(AccessRun::load(0, 8)); // line 0 resident and clean
        for _ in 0..3 {
            for i in 0..8u64 {
                // Repeated stores, always hitting.
                core.drive_run(AccessRun::store(i * 8, 1));
            }
        }
        let c = core.flush();
        assert!(
            c.write_lines >= 1.0,
            "the stored line must be written back, got {}",
            c.write_lines
        );
        // And whole runs agree with single elements on the same
        // repeated-resident-store pattern.
        let runs: Vec<AccessRun> = std::iter::once(AccessRun::load(0, 8))
            .chain((0..3).map(|_| AccessRun::store(0, 8)))
            .collect();
        assert_equivalent(&runs, || serial_core(&m));
    }
}
