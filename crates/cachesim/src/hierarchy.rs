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
//! emitted events themselves, equal consecutive ones merged into runs and
//! a counted core's repeat of a measured period as one entry after the
//! period's events, and `replay_trace` weighs each through the same
//! `Accountant::weigh` a live event goes through, so it is exact by
//! shared formulas; a run of `n` (or `n` periods) is added in
//! O(binades), bit for bit the naive loop.  Every level is
//! a true-LRU [`SetAssocCache`], so nothing here is a type parameter but
//! whether the last level a [`PrivateCore`] misses into counts a window
//! (only the co-run's shared LLC does); the store-miss policy is read once
//! per finalized store line and is a field of [`CoreSimOptions`].

use clover_machine::{Machine, WritePolicyKind};

use crate::access::AccessRun;
use crate::accountant::{Accountant, Weight, PERIOD_EVENTS};
use crate::cache::{LastLevel, LookupResult, SetAssocCache};
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

/// No line index: what a [`Reach`] holds for a line not loaded or
/// prefetched yet.  Line indices are `addr / 64 <= 2^58`.
const NO_LINE: u64 = u64::MAX;

/// What a [`PrivateCore`] simulates of its hierarchy.  The proofs on its
/// kernel decide it (`KernelSpec::reach`) and
/// [`set_reach`](PrivateCore::set_reach) sets it before the core runs; a
/// [`reset`](PrivateCore::reset) makes it `Full` again.
///
/// A core that is not `Full` is *marked*: its kernel never hits its L1 or
/// L2 but on the line it loaded last (`KernelSpec::never_hits_private`),
/// so a repeat of `last_load` is an L1 hit and every other access happens
/// at the last level alone.  A debug build drives the real L1 and L2
/// beside a marked core, and the real last level beside a `Counted` one,
/// and asserts every hit and miss they see against what the core decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// Every access looks the L1 up, then the L2, then the last level.
    Full,
    /// Every access but the repeat looks the last level up, except a line
    /// that `frontiers` prove absent.  `frontiers` is armed where the
    /// last level holds no line of the core's windows but what its own
    /// accesses put there.
    LastLevel {
        /// The line loaded last (`NO_LINE` before the first load).
        last_load: u64,
        /// The load and store frontiers, if armed.
        frontiers: Option<Frontiers>,
    },
    /// No cache is looked at: the kernel's rows never step back, so every
    /// line is loaded or stored for the first time but the repeat and a
    /// prefetched buddy, which `KernelSpec::counts_last_level` proves
    /// still resident when it is loaded.  A load is the repeat, the hit
    /// on `pending_buddy` or a miss; a store line is a miss.
    ///
    /// So what a row does from its third line on repeats every
    /// [`PERIOD_LINES`] lines but for its lines and streaks, and the core
    /// does it once per row and then repeats it
    /// ([`PrivateCore::repeat_period`]) for as long as the store lines'
    /// streak estimates stay those of that period, and measures it once
    /// more where they all saturate: see `SweepCursor`.  A core that
    /// records a trace records the period's events and then one
    /// [`Event::Period`] for the repeat, which holds for every neighbour
    /// the trace serves: whether and how far a period repeats depends on
    /// its events and the machine's streak scale alone.
    Counted {
        /// The line loaded last (`NO_LINE` before the first load).
        last_load: u64,
        /// The buddy the last load miss prefetched (`NO_LINE`: none).
        pending_buddy: u64,
        /// Dirty lines the last level has taken.  Each is a line stored
        /// once, so each is written back once: all of them at the flush.
        dirty_fills: u64,
    },
}

/// The frontiers of a [`Reach::LastLevel`] core whose last level holds no
/// line of its windows but what its own accesses put there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frontiers {
    /// Every line the loads and their buddy prefetches have put into the
    /// last level lies below it, so a load from it up misses there, and so
    /// does its buddy, without a probe.  It is 0 or `(line | 1) + 1`, even,
    /// so an odd line from it up has its buddy `line - 1` from it up too.
    load: u64,
    /// The load frontier's twin for the store windows: every line a
    /// finalized store line has put into the last level lies below it.
    store: u64,
}

impl Reach {
    /// A marked core that looks its lines up at the last level, with
    /// frontiers from line 0 if `own_lines`.
    pub(crate) fn last_level(own_lines: bool) -> Self {
        Reach::LastLevel {
            last_load: NO_LINE,
            frontiers: own_lines.then_some(Frontiers { load: 0, store: 0 }),
        }
    }

    /// A marked core that counts its last level.
    pub(crate) fn counted() -> Self {
        Reach::Counted {
            last_load: NO_LINE,
            pending_buddy: NO_LINE,
            dirty_fills: 0,
        }
    }

    /// The line a marked core loaded last; `None` on a `Full` core.
    #[inline]
    fn last_load(self) -> Option<u64> {
        match self {
            Reach::Full => None,
            Reach::LastLevel { last_load, .. } | Reach::Counted { last_load, .. } => {
                Some(last_load)
            }
        }
    }
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
    /// What the core simulates of its hierarchy.
    reach: Reach,
    /// The weights of the events of the period measured last.
    period: PeriodLog,
    /// Store lines finalized one by one, and repeated by
    /// [`repeat_period`](Self::repeat_period), since the core was built.
    store_lines: StoreLines,
    /// The lines a counted core filled into its last level, where counted.
    fills: Fills,
    /// The least streak whose store lines all weigh alike
    /// (`Accountant::saturation`).
    saturation: u64,
}

/// Lines a steady period of a [`Reach::Counted`] core spans in each of its
/// streams: two, so that every line keeps its parity and a load's buddy
/// pattern (an even line's miss prefetching the odd line after it) repeats
/// too.
pub(crate) const PERIOD_LINES: u64 = 2;

/// The weights of the events a core emitted while a period was measured,
/// and the lines it filled into its last level, where counted.
#[derive(Debug, Clone, Copy)]
struct PeriodLog {
    weights: [Weight; PERIOD_EVENTS],
    /// Events emitted, past `PERIOD_EVENTS` if they did not all fit.
    len: usize,
    /// Every line but the repeat and the buddy's hit is a fill, so a
    /// period that keeps its events keeps its fills.
    fills: [u64; PERIOD_EVENTS],
    fill_len: usize,
    /// Whether a period is being measured.
    measuring: bool,
}

impl PeriodLog {
    fn weights(&self) -> &[Weight] {
        &self.weights[..self.len]
    }

    fn push_fill(&mut self, line: u64) {
        if let Some(slot) = self.fills.get_mut(self.fill_len) {
            *slot = line;
            self.fill_len += 1;
        }
    }

    /// Keep one more weight.  Out of line, so that emitting an event stays
    /// one predictable branch when no period is measured.
    #[cold]
    #[inline(never)]
    fn push(&mut self, weight: Weight) {
        if let Some(slot) = self.weights.get_mut(self.len) {
            *slot = weight;
        }
        self.len += 1;
    }
}

/// Where a measured period of a counted core began (see
/// [`PrivateCore::begin_period`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeriodMark {
    /// The coalescers' stamps.
    stamps: [u64; 2],
    l1_hits: u64,
    dirty_fills: u64,
    stepped: u64,
}

/// What the period a counted core measured last did, besides its events'
/// weights, and how many more times it may be repeated (see
/// [`PrivateCore::end_period`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Period {
    /// The coalescers' stamps where it began.
    stamps: [u64; 2],
    /// The period's L1 hits, dirty fills and finalized store lines.
    l1_hits: u64,
    dirty_fills: u64,
    store_lines: u64,
    /// How many more periods make the same events.
    pub(crate) repeats: u64,
    /// How many more periods pass before one whose store lines' streak
    /// estimates are all saturated, which would repeat for ever.
    pub(crate) saturated_in: u64,
}

/// What a [`Period`]'s repeat changes of a core: its counters, both
/// coalescers, its [`Reach`] and its L1's hits.  A plain value, so that a
/// debug build compares stepping with repeating without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Steady {
    counters: MemCounters,
    coalescers: [WriteCoalescer; 2],
    reach: Reach,
    l1_hits: u64,
}

impl PartialEq for Steady {
    /// Equal counters by bits.
    fn eq(&self, other: &Self) -> bool {
        self.counters.bits() == other.counters.bits()
            && (self.coalescers, self.reach, self.l1_hits)
                == (other.coalescers, other.reach, other.l1_hits)
    }
}

impl Steady {
    /// Account `n` more periods like `period`, whose events weighed
    /// `weights`.
    fn repeat(&mut self, weights: &[Weight], period: &Period, n: u64) {
        debug_assert!(n <= period.repeats);
        Accountant::add_periods(&mut self.counters, weights, n);
        self.l1_hits += n * period.l1_hits;
        for (coalescer, since) in self.coalescers.iter_mut().zip(period.stamps) {
            coalescer.repeat_since(since, PERIOD_LINES, n);
        }
        let Reach::Counted {
            last_load,
            pending_buddy,
            dirty_fills,
        } = &mut self.reach
        else {
            unreachable!("a period is repeated on a counted core")
        };
        for line in [last_load, pending_buddy] {
            if *line != NO_LINE {
                *line += PERIOD_LINES * n;
            }
        }
        *dirty_fills += n * period.dirty_fills;
    }
}

/// The lines a counted core has filled into its last level, armed where
/// the caller asks whether a simulated level would have evicted
/// ([`CoreSim::l3_most_fills_per_set`]): as runs of consecutive lines, each
/// line filled one by one and each stream's lines of a repeat at once.  A
/// counted core fills no line twice, so its level evicts exactly when one
/// of its sets receives more lines than it has ways.
#[derive(Debug, Clone, Default)]
struct Fills {
    armed: bool,
    /// Inclusive `[first, last]` runs, in the order they were opened.
    runs: Vec<(u64, u64)>,
}

impl Fills {
    /// Runs a fill may extend, the newest: a counted kernel's at most 8
    /// streams each fill one run at a time.
    const OPEN: usize = 8;

    /// Lines `first..=last` were filled.
    fn add(&mut self, first: u64, last: u64) {
        let open = self.runs.len().saturating_sub(Self::OPEN);
        for run in self.runs[open..].iter_mut().rev() {
            if first == run.1 + 1 {
                run.1 = last;
                return;
            } else if last + 1 == run.0 {
                run.0 = first;
                return;
            }
        }
        self.runs.push((first, last));
    }

    /// The most lines one set of a level of `sets` sets (a power of two)
    /// received: a run of `n` lines gives every set `n / sets` of them and
    /// the `n % sets` sets from its first line's on (round the end) one
    /// more, so the most is the whole rounds plus the deepest overlap of
    /// those arcs.
    fn most_per_set(&self, sets: u64) -> u64 {
        let mut whole = 0;
        let mut bounds = Vec::with_capacity(4 * self.runs.len());
        for &(first, last) in &self.runs {
            let lines = last - first + 1;
            whole += lines / sets;
            let (from, to) = (first % sets, first % sets + lines % sets);
            if to > sets {
                bounds.extend([(0, 1), (to - sets, -1), (from, 1), (sets, -1)]);
            } else if to > from {
                bounds.extend([(from, 1), (to, -1)]);
            }
        }
        // An arc ends before the one that starts where it ends.
        bounds.sort_unstable();
        let mut depth = 0i64;
        let deepest = bounds.iter().fold(0, |deepest, &(_, step)| {
            depth += step;
            deepest.max(depth)
        });
        whole + deepest as u64
    }
}

/// Store lines a core has finalized since it was built, over every reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLines {
    /// Finalized one by one, each through the store path.
    pub stepped: u64,
    /// Accounted by a counted core's repeat of a row's steady period.
    pub repeated: u64,
}

impl PrivateCore {
    /// Build the private half for `machine`.
    pub fn new(machine: &Machine, ctx: OccupancyContext, options: CoreSimOptions) -> Self {
        let caches = &machine.caches;
        Self::with_banks(
            SetAssocCache::new(caches.l1.capacity_bytes, caches.l1.associativity),
            SetAssocCache::new(caches.l2.capacity_bytes, caches.l2.associativity),
            machine,
            ctx,
            options,
        )
    }

    /// A private half of `reach` from the start.  Only a `Full` core, and
    /// a debug build, which runs the L1 and L2 beside a marked core to
    /// check it, get an L1 and an L2 of the machine's size; a marked core
    /// in a release build never fills either, so each is one line.
    pub(crate) fn with_reach(
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
        reach: Reach,
    ) -> Self {
        let mut core = if reach == Reach::Full || cfg!(debug_assertions) {
            Self::new(machine, ctx, options)
        } else {
            let line = || SetAssocCache::new(64, 1);
            Self::with_banks(line(), line(), machine, ctx, options)
        };
        core.set_reach(reach);
        core
    }

    fn with_banks(
        l1: SetAssocCache,
        l2: SetAssocCache,
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
    ) -> Self {
        Self {
            l1,
            l2,
            coalescer: WriteCoalescer::default(),
            nt_coalescer: WriteCoalescer::default(),
            options,
            account: Accountant::new(&machine.speci2m, ctx, options),
            trace: TraceRecorder::default(),
            reach: Reach::Full,
            period: PeriodLog {
                weights: [Weight::Read; PERIOD_EVENTS],
                len: 0,
                fills: [0; PERIOD_EVENTS],
                fill_len: 0,
                measuring: false,
            },
            store_lines: StoreLines::default(),
            fills: Fills::default(),
            saturation: Accountant::saturation(&machine.speci2m),
        }
    }

    /// Set what the core simulates, as the proofs on its kernel decided
    /// (`KernelSpec::reach`), before it runs.  Only `SimMemo`'s simulation
    /// and a co-run pass mark a core; one driven directly keeps its whole
    /// hierarchy, and a [`reset`](Self::reset) makes it `Full` again.
    ///
    /// Frontiers vouch that the last level holds no line of the core's
    /// windows now and that nothing but this core's own accesses will put
    /// one there.  The proof keeps its windows apart: its load window
    /// lies more than 4 lines from every store window
    /// (`WriteCoalescer::one_stream_per_window`), so no store line is a
    /// load line, and no buddy prefetch of a load line a store line; a
    /// line of a store window enters the last level only as the fill of a
    /// finalized store line, since the private levels it skips hold no
    /// dirty line to sink there; and a line of an NT window never does.
    pub(crate) fn set_reach(&mut self, reach: Reach) {
        self.reach = reach;
    }

    /// Whether the core is marked: it skips its private levels.
    #[inline]
    pub(crate) fn is_marked(&self) -> bool {
        self.reach != Reach::Full
    }

    /// Whether the L1 and L2 are driven: on every core but a marked one in
    /// a release build.  A debug build drives a marked core's too, to
    /// check what the mark claims.
    #[inline]
    fn drives_private_levels(&self) -> bool {
        self.reach == Reach::Full || cfg!(debug_assertions)
    }

    /// Whether the last level is driven: on every core but a counted one
    /// in a release build.  A debug build drives a counted core's too.
    #[inline]
    pub(crate) fn drives_last_level(&self) -> bool {
        !matches!(self.reach, Reach::Counted { .. }) || cfg!(debug_assertions)
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
        self.reach = Reach::Full;
        self.period.measuring = false;
        self.fills.armed = false;
        self.fills.runs.clear();
    }

    /// Count the lines a counted core fills into its last level from here
    /// on, which [`CoreSim::l3_most_fills_per_set`] reads.
    pub(crate) fn count_fills(&mut self) {
        self.fills.armed = true;
        self.fills.runs.clear();
    }

    /// A counted core filled `line` into its last level.
    #[inline(always)]
    fn count_fill(&mut self, line: u64) {
        if self.fills.armed {
            self.fills.add(line, line);
            if self.period.measuring {
                self.period.push_fill(line);
            }
        }
    }

    /// One event of memory traffic: account it and, if a trace is active,
    /// record it, or if a period is measured, keep its weight.
    // `always`: each site passes a literal event, so that `apply`'s match
    // folds to its arm.  Left to the inliner, the period log's branch kept
    // it out of line, which cost a cold `thrash` co-run ≈ 8 %.
    #[inline(always)]
    fn emit(&mut self, event: Event) {
        let weight = self.account.apply(event);
        if self.trace.is_recording() {
            self.trace.push(event);
        }
        if self.period.measuring {
            self.period.push(weight);
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
    pub(crate) fn store_line_segment<const W: bool>(
        &mut self,
        llc: &mut LastLevel<W>,
        line: u64,
        offset: u64,
        len: u64,
        nt: bool,
    ) {
        if nt {
            if let Some(ev) = self.nt_coalescer.store_segment(line, offset, len) {
                self.store_lines.stepped += 1;
                self.handle_nt_line(llc, ev);
            }
        } else if let Some(ev) = self.coalescer.store_segment(line, offset, len) {
            self.store_lines.stepped += 1;
            self.handle_store_line(llc, ev);
        }
    }

    /// Whether the core may repeat its sweep rows' steady periods: it is
    /// counted.  A trace it records holds each repeat as one entry.
    pub(crate) fn repeats_periods(&self) -> bool {
        matches!(self.reach, Reach::Counted { .. })
    }

    /// Begin measuring a period of a sweep row's steady state, to repeat
    /// it, on a core that [`repeats_periods`](Self::repeats_periods).
    pub(crate) fn begin_period(&mut self) -> PeriodMark {
        let Reach::Counted { dirty_fills, .. } = self.reach else {
            unreachable!("a period is measured on a counted core")
        };
        self.period.len = 0;
        self.period.fill_len = 0;
        self.period.measuring = true;
        if self.trace.is_recording() {
            self.trace.begin_period();
        }
        PeriodMark {
            stamps: [self.coalescer.stamp(), self.nt_coalescer.stamp()],
            l1_hits: self.l1.hits(),
            dirty_fills,
            stepped: self.store_lines.stepped,
        }
    }

    /// End the period begun at `start`: what it did, and how many more
    /// such periods make the same events, as far as the store lines'
    /// streak estimates decide it — the caller bounds them by its row.
    /// `None` if it emitted more events than a period keeps.
    ///
    /// The caller vouches that every stream stored to in the period moved
    /// on exactly [`PERIOD_LINES`] lines, finalizing each as full, and
    /// that the next periods' lines lie in the same rows of the sweep.
    /// Then only the streak estimates of a write-allocate store line can
    /// tell one period's events from the next ([`Event::WaStore`] carries
    /// their response; no other event depends on them), which
    /// `WriteCoalescer::steady_periods` bounds, and where they are all
    /// saturated the period repeats for ever, which
    /// `WriteCoalescer::periods_to_saturation` tells the distance to.
    /// Both read the streaks and the machine's streak scale alone.
    pub(crate) fn end_period(&mut self, start: PeriodMark) -> Option<Period> {
        self.period.measuring = false;
        let Reach::Counted { dirty_fills, .. } = self.reach else {
            unreachable!("a period is measured on a counted core")
        };
        if self.period.len > PERIOD_EVENTS {
            return None;
        }
        let (since, saturation) = (start.stamps[0], self.saturation);
        let (repeats, saturated_in) = if self.options.write_policy == WritePolicyKind::Allocate {
            let c = &self.coalescer;
            (
                c.steady_periods(since, PERIOD_LINES, saturation),
                c.periods_to_saturation(since, PERIOD_LINES, saturation),
            )
        } else {
            (u64::MAX, 0)
        };
        Some(Period {
            stamps: start.stamps,
            l1_hits: self.l1.hits() - start.l1_hits,
            dirty_fills: dirty_fills - start.dirty_fills,
            store_lines: self.store_lines.stepped - start.stepped,
            repeats,
            saturated_in,
        })
    }

    /// Account `n` more periods like `period`, which must have just ended,
    /// where `n <= period.repeats` and the caller's rows hold them: what
    /// stepping them would do, in O(1) ([`repeated`](Self::repeated)).
    /// A trace being recorded takes the repeat as one entry
    /// (`TraceRecorder::repeat_period`), and counted fills take each
    /// stream's `PERIOD_LINES · n` lines as one run.
    pub(crate) fn repeat_period(&mut self, period: &Period, n: u64) {
        let after = self.repeated(period, n);
        self.l1.settled_hits(after.l1_hits - self.l1.hits());
        self.account.counters = after.counters;
        [self.coalescer, self.nt_coalescer] = after.coalescers;
        self.reach = after.reach;
        self.store_lines.repeated += n * period.store_lines;
        if self.trace.is_recording() {
            self.trace.repeat_period(n);
        }
        if self.fills.armed {
            // Each stream the period filled took two consecutive lines,
            // and each repeat takes the next two.
            let lines = &mut self.period.fills[..self.period.fill_len];
            lines.sort_unstable();
            let streams = lines.chunks_exact(PERIOD_LINES as usize);
            assert!(
                streams.remainder().is_empty()
                    && streams
                        .clone()
                        .all(|s| s.windows(2).all(|w| w[1] == w[0] + 1)),
                "a period filled other lines than two of each stream: {lines:?}"
            );
            for stream in streams {
                let last = stream[stream.len() - 1];
                self.fills.add(last + 1, last + PERIOD_LINES * n);
            }
        }
    }

    /// What [`repeat_period`](Self::repeat_period) would leave, for a
    /// debug build that steps the `n` periods instead and compares: a
    /// trace being recorded takes the same entry, and checks the events
    /// the stepped periods emit against the period's until
    /// [`end_check`](Self::end_check).
    pub(crate) fn check_repeat(&mut self, period: &Period, n: u64) -> Steady {
        if self.trace.is_recording() {
            self.trace.check_period(n);
        }
        self.repeated(period, n)
    }

    /// The end of the periods [`check_repeat`](Self::check_repeat)
    /// checks.
    pub(crate) fn end_check(&mut self) {
        self.trace.end_check();
    }

    /// What `n` more periods like `period`, which must have just ended,
    /// leave of the core: every counter field takes the period's
    /// increments `n` times over through `repeat_add`
    /// (`Accountant::add_periods`), bit for bit the events one at a time;
    /// the L1 takes `n` times the period's settled hits, and the `Reach`
    /// its dirty fills; and every line the core holds — the line loaded
    /// last, the pending buddy, each store stream's line and streak —
    /// moves on `n` periods of lines, every stamp `n` periods of stamps.
    /// A debug build compares it with stepping those periods.
    pub(crate) fn repeated(&self, period: &Period, n: u64) -> Steady {
        let mut steady = self.steady();
        steady.repeat(self.period.weights(), period, n);
        steady
    }

    /// What a [`Period`]'s repeat changes of the core, as it is.
    pub(crate) fn steady(&self) -> Steady {
        Steady {
            counters: self.account.counters,
            coalescers: [self.coalescer, self.nt_coalescer],
            reach: self.reach,
            l1_hits: self.l1.hits(),
        }
    }

    /// True if `line` is resident in the L1 (no LRU or counter effect);
    /// for a core that skips its private levels, if it is the line loaded
    /// last.
    pub(crate) fn l1_contains(&self, line: u64) -> bool {
        if let Some(last) = self.reach.last_load() {
            debug_assert!(line != last || self.l1.contains(line), "{PROVED_RESIDENT}");
            return line == last;
        }
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

    /// True if neither coalescer has an open stream: a flush then
    /// finalizes no line and leaves the last level untouched.
    pub(crate) fn streams_closed(&self) -> bool {
        self.coalescer.active_streams() == 0 && self.nt_coalescer.active_streams() == 0
    }

    /// The L1's recency changes so far (see [`SetAssocCache`]'s
    /// `reorders`).
    #[inline]
    pub(crate) fn l1_reorders(&self) -> u64 {
        self.l1.reorders()
    }

    /// Count `n` L1 hits on lines the caller knows are resident and
    /// already where a touch would put them; on a core that skips its
    /// private levels, `n` repeats of the line loaded last, which a debug
    /// build touches in the L1 it runs beside that path, so that its
    /// recency order stays the full path's.
    #[inline]
    pub(crate) fn l1_settled_hits(&mut self, n: u64) {
        match self.reach.last_load() {
            Some(last) if cfg!(debug_assertions) => {
                let resident = self.l1.touch_repeat(last, n);
                assert!(resident, "{PROVED_RESIDENT}");
            }
            _ => self.l1.settled_hits(n),
        }
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
    pub(crate) fn flush_streams_and_upper<const W: bool>(
        &mut self,
        llc: &mut LastLevel<W>,
    ) -> (Vec<u64>, Vec<u64>) {
        let events = self.coalescer.flush();
        let nt_events = self.nt_coalescer.flush();
        self.store_lines.stepped += (events.len() + nt_events.len()) as u64;
        for ev in events {
            self.handle_store_line(llc, ev);
        }
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
    ///
    /// A counted core writes back every dirty line its last level took,
    /// where the real level (which a debug build passes as `l3_dirty`)
    /// wrote back some of them at their evictions, one `Writeback` each.
    /// `write_lines` only ever adds whole lines, exactly, so the sum is the
    /// same bits in either order; the trace a counted core records holds
    /// fewer events, which replay to the same counters.
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
        let distinct = if let Reach::Counted { dirty_fills, .. } = self.reach {
            debug_assert!(
                levels_with_dirty <= 1 && l3_dirty.len() as u64 <= dirty_fills,
                "{COUNTED}"
            );
            dirty_fills as usize
        } else if levels_with_dirty > 1 {
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

    /// Look `line` up from the L1 down, filling the levels above a hit;
    /// [`hit_at_llc`](Self::hit_at_llc) is this lookup on a marked core.
    fn hierarchy_hit<const W: bool>(
        &mut self,
        llc: &mut LastLevel<W>,
        line: u64,
        write: bool,
    ) -> bool {
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

    /// [`hierarchy_hit`](Self::hierarchy_hit) of a marked core: the
    /// private levels' lookups would miss, so the last level's is the
    /// lookup, unless the core `known`s what it finds: a line the
    /// frontiers prove absent is a miss counted without a probe, and a
    /// counted core's verdict is all there is, which a debug build asserts
    /// against the real last level.
    // Once per line a marked core loads or stores: called out of line, it
    // cost a cold `thrash` co-run, all of whose tenants are marked, ~4 %.
    #[inline(always)]
    fn hit_at_llc<const W: bool>(
        &mut self,
        llc: &mut LastLevel<W>,
        line: u64,
        write: bool,
        known: Option<bool>,
    ) -> bool {
        self.check_private_miss(line, write);
        let hit = match (known, self.reach) {
            (None, _) => llc.touch(line, write) == LookupResult::Hit,
            (Some(hit), Reach::Counted { .. }) => {
                if cfg!(debug_assertions) {
                    let found = llc.touch(line, write) == LookupResult::Hit;
                    assert_eq!(found, hit, "line {line:#x}: {COUNTED}");
                }
                hit
            }
            (Some(_), _) => {
                llc.miss_proved(line);
                false
            }
        };
        if hit && self.drives_private_levels() {
            self.fill_upper(llc, line, false, 2);
        }
        hit
    }

    /// In a debug build, look `line` up in the L1 and L2 of a core that
    /// skips them, as the full path would, and assert that both miss.
    fn check_private_miss(&mut self, line: u64, write: bool) {
        if cfg!(debug_assertions) {
            let missed = self.l1.touch(line, write) == LookupResult::Miss
                && self.l2.touch(line, write) == LookupResult::Miss;
            assert!(
                missed,
                "line {line:#x} hit a private level proved never to hit"
            );
        }
    }

    /// Land a dirty line evicted from an upper level in the last level
    /// (present or not), counting the write-back its own victim may cause.
    /// One combined probe instead of a touch followed by a fill.
    fn sink_dirty_into_llc<const W: bool>(&mut self, llc: &mut LastLevel<W>, line: u64) {
        let (_, evicted) = llc.probe_fill(line, true);
        if let Some(ev3) = evicted {
            if ev3.dirty {
                self.emit(Event::Writeback);
            }
        }
    }

    /// Fill a line into the upper levels (L1 and optionally L2), cascading
    /// dirty evictions downwards without generating memory traffic.  Only
    /// for a core that [`drives_private_levels`](Self::drives_private_levels),
    /// which each caller tests first.
    // Out of line, and tested at the call: on a marked core's path
    // (`fill_all`, `hit_at_llc`) a release build never calls it, where a
    // call that only returned at the test took ~7 % of a cold `thrash`
    // co-run's samples.
    #[inline(never)]
    fn fill_upper<const W: bool>(
        &mut self,
        llc: &mut LastLevel<W>,
        line: u64,
        dirty: bool,
        levels: usize,
    ) {
        debug_assert!(self.drives_private_levels());
        if levels >= 2 {
            if let Some(ev) = self.l2.fill(line, dirty) {
                if ev.dirty {
                    debug_assert!(self.reach == Reach::Full, "{PROVED_CLEAN}");
                    // Dirty eviction from L2 lands in the LLC (present or
                    // not).
                    self.sink_dirty_into_llc(llc, ev.line);
                }
            }
        }
        if let Some(ev) = self.l1.fill(line, dirty) {
            if ev.dirty {
                debug_assert!(self.reach == Reach::Full, "{PROVED_CLEAN}");
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
    ///
    /// A counted core fills nothing: every line it fills is new to the
    /// last level, so it counts a dirty one to write back at the flush,
    /// where the real level writes each back once too, some at their
    /// evictions.  A debug build fills the real level beside it.
    fn fill_all<const W: bool>(&mut self, llc: &mut LastLevel<W>, line: u64, dirty: bool) {
        if let Reach::Counted { dirty_fills, .. } = &mut self.reach {
            *dirty_fills += u64::from(dirty);
            self.count_fill(line);
            if cfg!(debug_assertions) {
                llc.fill(line, dirty);
            }
        } else if let Some(ev) = llc.fill(line, dirty) {
            if ev.dirty {
                self.emit(Event::Writeback);
            }
        }
        if self.drives_private_levels() {
            self.fill_upper(llc, line, false, 2);
        }
    }

    /// Fill a prefetched line into the last level only; a line already
    /// there is left as it is, and costs no traffic.  A line the caller
    /// has proved `absent` is inserted without a probe.  On a counted
    /// core the line is absent (its buddy was never loaded before it) and
    /// becomes the pending buddy; a debug build asserts it absent from the
    /// real level as it fills it.
    fn fill_prefetch<const W: bool>(&mut self, llc: &mut LastLevel<W>, line: u64, absent: bool) {
        let evicted = if let Reach::Counted { pending_buddy, .. } = &mut self.reach {
            *pending_buddy = line;
            self.count_fill(line);
            if cfg!(debug_assertions) {
                let (found, _) = llc.fill_if_absent(line);
                assert_eq!(found, LookupResult::Miss, "buddy {line:#x}: {COUNTED}");
            }
            None
        } else if absent {
            llc.insert_absent(line, false)
        } else {
            let (LookupResult::Miss, evicted) = llc.fill_if_absent(line) else {
                return;
            };
            evicted
        };
        self.emit(Event::PrefetchRead);
        if evicted.is_some_and(|ev| ev.dirty) {
            self.emit(Event::Writeback);
        }
    }

    /// One demand load of `line`.  On a marked core a repeat of the line
    /// loaded last is an L1 hit, and any other load is looked up at the
    /// last level alone, or not at all from its load frontier up or on a
    /// counted core; a miss then takes the same path on every core.
    pub(crate) fn load_line<const W: bool>(&mut self, llc: &mut LastLevel<W>, line: u64) {
        let known = match &mut self.reach {
            Reach::Full => {
                if self.hierarchy_hit(llc, line, false) {
                    return;
                }
                None
            }
            Reach::LastLevel { last_load, .. } | Reach::Counted { last_load, .. }
                if *last_load == line =>
            {
                return self.repeat_load(line);
            }
            Reach::LastLevel {
                last_load,
                frontiers,
            } => {
                *last_load = line;
                match frontiers {
                    Some(f) if line >= f.load => {
                        f.load = (line | 1) + 1;
                        Some(false)
                    }
                    _ => None,
                }
            }
            Reach::Counted {
                last_load,
                pending_buddy,
                ..
            } => {
                *last_load = line;
                Some(line == *pending_buddy)
            }
        };
        if self.reach != Reach::Full && self.hit_at_llc(llc, line, false, known) {
            return;
        }
        // Demand miss: read from memory.
        self.emit(Event::DemandRead);
        self.fill_all(llc, line, false);
        // The adjacent-line prefetcher reacts to the demand miss.  Below a
        // load frontier's line its buddy is absent too.
        if self.options.prefetchers.adjacent_line {
            self.fill_prefetch(llc, line ^ 1, known == Some(false));
        }
    }

    /// A load of the line loaded last, on a core that skips its private
    /// levels: an L1 hit.  A debug build checks that its L1 still holds
    /// the line.
    fn repeat_load(&mut self, line: u64) {
        if cfg!(debug_assertions) {
            let hit = self.l1.touch(line, false) == LookupResult::Hit;
            assert!(hit, "line {line:#x}: {PROVED_RESIDENT}");
        } else {
            self.l1.settled_hits(1);
        }
    }

    /// Retire one coalesced line of regular stores as the options'
    /// [`write_policy`](CoreSimOptions::write_policy) says.  On a marked
    /// core the line is looked up at the last level alone, or not at all
    /// from its store frontier up or on a counted core, which stores no
    /// line twice and loads none it stores.
    // Once per stored line: left to the inliner's size heuristics this has
    // fallen out of `store_line_segment` and cost the store path ~15 %.
    #[inline]
    fn handle_store_line<const W: bool>(&mut self, llc: &mut LastLevel<W>, ev: FinalizedLine) {
        let policy = self.options.write_policy;
        if policy == WritePolicyKind::NonTemporal {
            // Every regular store behaves like a non-temporal streaming
            // store: the coalesced line bypasses the hierarchy entirely.
            return self.handle_nt_line(llc, ev);
        }
        let known = match &mut self.reach {
            Reach::Full => {
                if self.hierarchy_hit(llc, ev.line, true) {
                    return;
                }
                None
            }
            // From the store frontier up the line is absent: no finalized
            // store line has reached it.
            Reach::LastLevel {
                frontiers: Some(f), ..
            } if ev.line >= f.store => {
                f.store = ev.line + 1;
                Some(false)
            }
            Reach::LastLevel { .. } => None,
            Reach::Counted { .. } => Some(false),
        };
        if self.reach != Reach::Full && self.hit_at_llc(llc, ev.line, true, known) {
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

    fn handle_nt_line<const W: bool>(&mut self, llc: &mut LastLevel<W>, ev: FinalizedLine) {
        // NT stores bypass the hierarchy; stale copies must be invalidated.
        if self.drives_private_levels() {
            self.l1.invalidate(ev.line);
            self.l2.invalidate(ev.line);
        }
        match self.reach {
            // Where frontiers could be armed, nothing puts a line of an NT
            // window into the last level (see `set_reach`): none to find.
            Reach::LastLevel {
                frontiers: Some(_), ..
            }
            | Reach::Counted { .. } => debug_assert!(
                !llc.contains(ev.line),
                "NT line {:#x} is in a last level proved to hold none",
                ev.line
            ),
            _ => {
                llc.invalidate(ev.line);
            }
        }
        self.emit(Event::NtLine { full: ev.full });
    }
}

/// What a debug build asserts of a core that skips its private levels.
const PROVED_CLEAN: &str = "a private level proved never to hit evicted a dirty line";
const PROVED_RESIDENT: &str = "the line loaded last left an L1 proved to keep it";
/// What a debug build asserts of a counted core's last-level verdicts.
const COUNTED: &str = "the last level disagrees with the core that counts it";

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
    /// Lookups and fills of the L3 share before the last reset (see
    /// [`l3_share_work`](Self::l3_share_work)).
    l3_work: u64,
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
            l3_work: 0,
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
        self.l3_work = self.l3_share_work();
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
        let l3_dirty = if self.private.drives_last_level() {
            self.l3.flush_dirty()
        } else {
            Vec::new()
        };
        self.private
            .account_writebacks(l1_dirty, l2_dirty, l3_dirty)
    }

    /// Lookups (hits and misses) and recency changes (inserts, and hits
    /// that moved a line) of the L3 share since the core was built, over
    /// every [`reset`](Self::reset): 0 while every simulation it ran
    /// counted its last level in a release build.
    pub fn l3_share_work(&self) -> u64 {
        self.l3_work + self.l3.hits() + self.l3.misses() + self.l3.reorders()
    }

    /// Store lines the core has finalized since it was built, over every
    /// [`reset`](Self::reset), one by one and by a counted core's repeats.
    pub fn store_lines(&self) -> StoreLines {
        self.private.store_lines
    }

    /// Lines the L3 share has evicted since construction or the last
    /// [`reset`](Self::reset).
    pub(crate) fn l3_evictions(&self) -> u64 {
        self.l3.evictions()
    }

    /// Count the lines a counted core fills into its L3 share from here
    /// on, for [`l3_most_fills_per_set`](Self::l3_most_fills_per_set).
    pub(crate) fn count_l3_fills(&mut self) {
        self.private.count_fills();
    }

    /// The most lines a counted core has filled into one set of its L3
    /// share since [`count_l3_fills`](Self::count_l3_fills) (0 for a core
    /// that is not counted, which fills the real share), and the share's
    /// ways.  A counted core fills no line twice, so a simulated share
    /// evicts exactly when the first exceeds the second.
    pub(crate) fn l3_most_fills_per_set(&self) -> (u64, u64) {
        let fills = &self.private.fills;
        let most = fills.most_per_set(self.l3.sets() as u64);
        (most, self.l3.ways() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        core.private
            .fill_prefetch(&mut core.l3, congruent(0), false);
        // Of an absent line: the read, and the write-back of its dirty
        // victim.
        core.private
            .fill_prefetch(&mut core.l3, congruent(ways), false);
        assert!(!core.l3.contains(congruent(0)) && core.l3.contains(congruent(1)));
        // Into a set with room: the read alone.
        core.private
            .fill_prefetch(&mut core.l3, congruent(0) + 1, false);
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
    fn a_re_marked_core_keeps_its_load_frontier_from_line_0() {
        // The frontier says which loads miss the last level unlooked: a
        // pooled core must not carry one over from an earlier simulation.
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        // Own load lines or not, the lines loaded, the frontier after.
        for (own, lines, frontier) in [
            (true, 3..7, Some(8)),
            (true, 0..1, Some(2)),
            (false, 0..1, None),
            (true, 5..6, Some(6)),
        ] {
            core.reset(OccupancyContext::serial(&m), CoreSimOptions::default());
            core.private.set_reach(Reach::last_level(own));
            let elements = 8 * (lines.end - lines.start);
            core.drive_run(AccessRun::load(64 * lines.start, elements));
            let frontiers = frontiers(&core.private);
            assert_eq!(frontiers.map(|f| f.load), frontier, "{lines:?}");
        }
    }

    #[test]
    fn a_re_marked_core_keeps_its_store_frontier_from_line_0() {
        // The store frontier's twin of the test above.  A run of stores
        // leaves its stream open on its last line, so the lines finalized
        // are all but that one, and the frontier is the line above them.
        let m = icelake_sp_8360y();
        let mut core = serial_core(&m);
        // Own lines or not, the lines stored, the frontier after.
        for (own, lines, frontier) in [
            (true, 3..7, Some(6)),
            (true, 0..2, Some(1)),
            (false, 0..2, None),
            (true, 5..7, Some(6)),
        ] {
            core.reset(OccupancyContext::serial(&m), CoreSimOptions::default());
            core.private.set_reach(Reach::last_level(own));
            let elements = 8 * (lines.end - lines.start);
            core.drive_run(AccessRun::store(64 * lines.start, elements));
            let frontiers = frontiers(&core.private);
            assert_eq!(frontiers.map(|f| f.store), frontier, "{lines:?}");
        }
    }

    /// The frontiers of a core that looks its lines up at the last level.
    fn frontiers(core: &PrivateCore) -> Option<Frontiers> {
        let Reach::LastLevel { frontiers, .. } = core.reach else {
            panic!("{:?} is not a last-level reach", core.reach);
        };
        frontiers
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
                assert_eq!(live.bits(), plain.flush().bits(), "{line:?}");
                let trace = recorded
                    .private
                    .trace
                    .finish()
                    .expect("every streak records");
                let replayed = replay_trace(&m.speci2m, ctx, options, &trace);
                assert_eq!(replayed.bits(), live.bits(), "{line:?}");
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
    }
}
