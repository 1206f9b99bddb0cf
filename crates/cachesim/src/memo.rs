//! Cross-sweep simulation memoization.
//!
//! The node simulator runs one *representative* core per distinct ccNUMA
//! domain load ([`NodeSim::run_spmd_memo`]), but a scaling curve evaluates dozens
//! of neighbouring rank counts whose domain-load contexts overlap massively:
//! on an 18-core-per-domain machine the full-domain level `(18 cores,
//! 2 active domains)` recurs for every rank count from 19 to 36.  Without a
//! memo each of those rank points re-simulates the identical workload.
//!
//! This module makes the representative-core simulation the cached unit of
//! work:
//!
//! * [`KernelSpec`] — a typed, hashable description of an SPMD kernel,
//! * [`Dynamics`] and [`Accounting`] — the simulation environment, declared
//!   once: what can change the event sequence, and what only scales the
//!   fractional accounting of those events,
//! * [`SimKey`] (dynamics + accounting + kernel), [`CoRunKey`] (dynamics +
//!   accounting + tenancy cores + sorted tenants + the reported tenant's
//!   index among them + interleave) and the
//!   trace key `DiffKey` (dynamics + kernel) — the three memo identities
//!   built from them,
//! * [`SimMemo`] — a sharded, concurrently usable map from [`SimKey`] to
//!   [`MemCounters`], shared across a whole sweep (or several sweeps) so a
//!   72-point curve performs O(distinct contexts) core simulations instead
//!   of O(points × levels),
//! * [`with_pooled_core`] — a thread-local [`CoreSim`] pool that reuses the
//!   cache arenas across memo misses instead of reallocating (and zeroing)
//!   multi-megabyte arenas per simulation.
//!
//! Memoization is exact, not approximate: a memo hit returns the
//! bit-identical [`MemCounters`] the simulation would produce, because the
//! key captures everything the simulation depends on.  Kernel address bases
//! may differ per rank ([`RankBase`]), but all rank bases are aligned far
//! beyond any cache's set-index range, so the counters are rank-invariant —
//! a property the tier-1 equivalence proptests assert.
//!
//! [`NodeSim::run_spmd_memo`]: crate::engine::NodeSim::run_spmd_memo

use std::cell::RefCell;

use clover_machine::{Machine, WritePolicyKind};

use crate::access::AccessKind;
use crate::cache::SetAssocCache;
use crate::coalescer::WriteCoalescer;
use crate::counters::MemCounters;
use crate::engine::TenantReport;
use crate::flight::FlightMemo;
use crate::hierarchy::{l3_share_bytes, CoreSim, CoreSimOptions, OccupancyContext, Reach};
use crate::patterns::{StencilOperand, StencilRowSweep};
use crate::trace::{replay_trace, Trace};

/// Smallest [`RankBase::Shifted`] shift the memo accepts: 2^30-aligned
/// rank windows are a multiple of every cache level's `sets × line` span
/// (sets are power-of-two and far below 2^24), so shifting the base moves
/// the tags but not the set indices — the property that makes counters
/// rank-invariant and memo hits exact.
pub const MIN_MEMO_SHIFT: u32 = 30;

/// How an operand's base address depends on the simulated rank.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum RankBase {
    /// Every rank uses the same addresses (e.g. the CloverLeaf hotspot
    /// loops of `clover_core::loop_kernel`, whose array bases are fixed
    /// offsets in a private address space).
    Shared,
    /// `(rank + plus) << shift` — the convention of the microbenchmarks,
    /// which place each rank's streams in a private high-address window.
    ///
    /// For memoized use the shift must be at least [`MIN_MEMO_SHIFT`]: a
    /// smaller shift puts rank bases inside the caches' set-index range,
    /// making counters genuinely rank-dependent, which would break the
    /// memo's bit-exactness contract ([`SimKey::new`] debug-asserts
    /// this).
    Shifted {
        /// Left shift applied to `rank + plus`.
        shift: u32,
        /// Offset added to the rank id before shifting.
        plus: u64,
    },
}

impl RankBase {
    /// The base address of `rank` under this scheme.
    pub fn base(self, rank: usize) -> u64 {
        match self {
            RankBase::Shared => 0,
            RankBase::Shifted { shift, plus } => (rank as u64 + plus) << shift,
        }
    }
}

/// One array operand of a [`KernelSpec`]: a byte offset relative to the
/// rank base plus the stencil points and access kind of the stream.
#[derive(
    Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct SpecOperand {
    /// Byte offset added to the rank base.
    pub offset: u64,
    /// Stencil points `(di, dk)` in element units (see
    /// [`StencilOperand::offsets`]).
    pub points: Vec<(i64, i64)>,
    /// Access kind of this operand.
    pub kind: AccessKind,
}

/// A typed, hashable SPMD kernel: the stencil row sweep an SPMD rank
/// drives through its core simulator, parameterised over the rank id only
/// through the [`RankBase`] of its operands.
///
/// Every kernel the node simulator runs (the store/copy microbenchmark
/// kernels, the CloverLeaf hotspot loops, plain contiguous runs) is a
/// `KernelSpec`.
#[derive(
    Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct KernelSpec {
    /// Rank-dependence of the operand base addresses.
    pub rank_base: RankBase,
    /// Array operands in the access order of the loop body.
    pub operands: Vec<SpecOperand>,
    /// Row stride of the logical grid in elements.
    pub row_stride: u64,
    /// First inner index of the sweep.
    pub i0: u64,
    /// Inner iterations per row.
    pub inner: u64,
    /// First row of the sweep.
    pub k0: u64,
    /// Number of rows.
    pub rows: u64,
}

impl KernelSpec {
    /// A single contiguous run of `elements` accesses of `kind` at
    /// `offset` relative to the rank base.
    pub fn contiguous(rank_base: RankBase, offset: u64, elements: u64, kind: AccessKind) -> Self {
        Self {
            rank_base,
            operands: vec![SpecOperand {
                offset,
                points: vec![(0, 0)],
                kind,
            }],
            row_stride: elements.max(1),
            i0: 0,
            inner: elements,
            k0: 0,
            rows: 1,
        }
    }

    /// Materialise the sweep this kernel drives on `rank`.
    pub fn sweep(&self, rank: usize) -> StencilRowSweep {
        let base = self.rank_base.base(rank);
        StencilRowSweep {
            operands: self
                .operands
                .iter()
                .map(|op| StencilOperand {
                    base: base + op.offset,
                    offsets: op.points.clone(),
                    kind: op.kind,
                })
                .collect(),
            row_stride: self.row_stride,
            i0: self.i0,
            inner: self.inner,
            k0: self.k0,
            rows: self.rows,
        }
    }

    /// Drive the kernel through `core` as rank `rank`.
    pub fn drive(&self, rank: usize, core: &mut CoreSim) {
        self.sweep(rank).drive(core);
    }

    /// Grid-point updates performed per rank.
    pub fn iterations(&self) -> u64 {
        self.inner * self.rows
    }

    /// Inclusive cache-line window `[first, last]` of each operand that has
    /// stencil points, when the kernel is driven as `rank`; nothing for a
    /// zero-trip sweep.
    ///
    /// Every access address is affine in `(i, k)` with non-negative
    /// coefficients (`row_stride`, element size), so the extrema lie at the
    /// sweep corners: a window is the exact hull of its operand's accesses.
    fn operand_windows(&self, rank: usize) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        use crate::access::{ELEM_BYTES, LINE_BYTES};
        let trips = self.inner > 0 && self.rows > 0;
        let base = self.rank_base.base(rank) as i128;
        let stride = self.row_stride as i128;
        self.operands
            .iter()
            .filter(move |op| trips && !op.points.is_empty())
            .map(move |op| {
                let (mut lo, mut hi) = (i128::MAX, i128::MIN);
                for &(di, dk) in &op.points {
                    let term = dk as i128 * stride + di as i128;
                    let min_idx = self.k0 as i128 * stride + self.i0 as i128 + term;
                    let max_idx = (self.k0 + self.rows - 1) as i128 * stride
                        + (self.i0 + self.inner - 1) as i128
                        + term;
                    lo = lo.min(base + op.offset as i128 + min_idx * ELEM_BYTES as i128);
                    hi = hi.max(
                        base + op.offset as i128
                            + max_idx * ELEM_BYTES as i128
                            + (ELEM_BYTES - 1) as i128,
                    );
                }
                debug_assert!(lo >= 0, "stencil kernel reaches below address zero");
                (lo as u64 / LINE_BYTES, hi as u64 / LINE_BYTES)
            })
    }

    /// Inclusive cache-line window `[first, last]` this kernel touches when
    /// driven as `rank` (the hull of its operands' windows), or `None` for
    /// an empty kernel (no operands or a zero-trip sweep).
    pub fn line_span(&self, rank: usize) -> Option<(u64, u64)> {
        self.operand_windows(rank)
            .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))
    }

    /// Whether this kernel, driven as `rank` on `machine`, can never hit
    /// its private L1 or L2 but on the line it loaded last: then the memo's
    /// solo simulation and a co-run both simulate it against the last
    /// level alone, bit for bit.
    ///
    /// Under true LRU a line hits only if fewer than `ways` other lines of
    /// its set were touched since its last use (Mattson et al., 1970).  A
    /// line enters the L1 and L2 when it is loaded and when a store stream
    /// retires it, so the proof asks that no line is loaded or retired
    /// twice within that distance, except that a load may repeat the line
    /// loaded last, and that this repeat is an L1 hit.  Each condition
    /// closes one way that could fail:
    ///
    /// * **Every operand has one point.**  Two points of one array touch
    ///   each other's lines within a row.
    /// * **At most one operand loads.**  The line loaded last is the one
    ///   line the L1 is taken to hold; a second load stream would return to
    ///   its own line after a load of the other.
    /// * **At most L1 `ways` operands.**  Between two loads of one line
    ///   every other operand retires at most one line into the L1, so with
    ///   fewer than `ways` of them the repeat is still resident, the hit the
    ///   full path counts.
    /// * **The write coalescer keeps one stream per operand**
    ///   (`WriteCoalescer::one_stream_per_window`: at most its 8 streams,
    ///   and operand line windows pairwise more than its gap tolerance of
    ///   4 lines apart).  So no stream displaces another, which retires a
    ///   partial line that a later store opens and retires again; a store
    ///   line is never a load line; and no store stream continues onto
    ///   another operand's line, which would retire that line a second
    ///   time.
    /// * **Rows never step back** (one row, or `row_stride >= inner`): every
    ///   stream then visits its lines in address order, a load its line
    ///   again only right after itself and a store stream not at all once
    ///   it moved on.  **Or every row sweeps the same window** (`row_stride
    ///   == 0`) and each operand's window of `n` lines puts more than `ways`
    ///   lines into every set of both levels (`n / sets > ways` at
    ///   `SetAssocCache::geometry`, a contiguous window puts at least `n /
    ///   sets` into each): a line then comes back only after every other
    ///   line of its window.  A store window needs one line more per set
    ///   (`n / sets > ways + 1`): each sweep leaves a stream open on one of
    ///   the window's last 8 lines (the first sweep's on the last line,
    ///   each later sweep's one line lower), which is not retired until the
    ///   flush, so between two retirements of a line one other line of its
    ///   set may stay out.
    ///
    /// So no private line is ever stored to, none is dirty, and no fill of
    /// the L1 or L2 writes one back.  The proof is sufficient, not
    /// necessary; every other kernel is refused.  It allocates nothing.  A
    /// debug build runs the real L1 and L2 beside every marked core and
    /// asserts what it claims, line by line.
    ///
    /// The same conditions prove two things more, which a marked core
    /// uses.  Its loads are one stream whose window lies more than 4 lines
    /// from every store window, so no store line is a load line and no
    /// buddy prefetch of a load line a store line: a line of the load
    /// window reaches the last level only through its loads and their
    /// prefetches, and a line of a store window only as the fill of a
    /// finalized store line (the private levels hold no dirty line to sink
    /// there), where no other tenant's prefetch can reach either and the
    /// level starts without one.  Then a load above every line the loads
    /// have put there misses without a look, and so does a store line
    /// above every line the stores have put there (`PrivateCore`'s load
    /// and store frontiers).  And a sweep segment needs no proof
    /// (`SweepCursor`): the one L1 line is the line loaded last, which the
    /// segment's bulk loads repeat, and no store of a segment moves the
    /// stream another store of it is open on, since the operands' windows
    /// lie apart; so a stream's whole segment is one store.
    pub fn never_hits_private(&self, machine: &Machine, rank: usize) -> bool {
        let [l1, l2] = [&machine.caches.l1, &machine.caches.l2]
            .map(|level| SetAssocCache::geometry(level.capacity_bytes, level.associativity));
        let ops = &self.operands;
        let loads = ops.iter().filter(|op| op.kind == AccessKind::Load).count();
        if ops.iter().any(|op| op.points.len() != 1)
            || loads > 1
            || ops.len() > l1.1
            || !WriteCoalescer::one_stream_per_window(self.operand_windows(rank))
        {
            return false;
        }
        if self.rows <= 1 || self.row_stride >= self.inner {
            return true;
        }
        // Every operand has its one point, so the windows are the
        // operands' in order (or none, for a kernel that never runs).
        self.row_stride == 0
            && ops
                .iter()
                .zip(self.operand_windows(rank))
                .all(|(op, (first, last))| {
                    let parked = u64::from(op.kind == AccessKind::Store);
                    [l1, l2].iter().all(|&(sets, ways)| {
                        (last - first + 1) / sets as u64 > ways as u64 + parked
                    })
                })
    }

    /// Whether a core of its own, driving this kernel as `rank` on
    /// `machine` under `options`, can count its L3 share instead of
    /// simulating it: which line hits there, which is filled and which is
    /// written back, is then a function of the line stream alone.  It
    /// holds where [`never_hits_private`](Self::never_hits_private) does
    /// and, besides:
    ///
    /// * **Rows never step back** (one row, or `row_stride >= inner`; not
    ///   the `row_stride == 0` windows).  With one point per operand, every
    ///   stream visits its lines in address order, so no line is loaded or
    ///   retired twice but the repeat of the line loaded last, and under
    ///   LRU a first touch misses at every capacity (Mattson et al., 1970).
    ///   A store line is a miss; its fill is a line new to the level, so a
    ///   dirty one is written back exactly once, at its eviction or at the
    ///   flush: a counted core writes all of them back at the flush, and
    ///   the sum of whole lines is the same bits.  An NT line is never in
    ///   the level.  A load is a miss but for one line: the odd buddy
    ///   `line + 1` that the miss of an even `line` prefetched, if the
    ///   loads go on to it before any other line.
    /// * **Every operand's base is element-aligned**, so no element
    ///   straddles two lines (the misaligned sweep runs element by
    ///   element, one line operation per line it covers).
    /// * **The buddy is still resident when it is loaded.**  The prefetch
    ///   inserts it as the most recent line of its set, and only a fill
    ///   into that set can push it out: the loads in between repeat the
    ///   line loaded last, a prefetch follows a load miss, and a store line
    ///   is the only other fill.  Every operand's element is the load's
    ///   shifted by a constant (one point each, one `row_stride`), and the
    ///   loads in between lie on `line` and the first on `line + 1`, so
    ///   each store stream's stores in between lie within 128 bytes: at
    ///   most three lines, in address order.  A stream finalizes a line
    ///   only when a store moves it to a new line, so it fills at most
    ///   three lines in between: the one it leaves on entering the first
    ///   (or the oldest stream it displaces, in any set) and the two it
    ///   leaves inside, which lie in different sets unless the level has
    ///   one.  So with `stores` operands of `AccessKind::Store` at most
    ///   `2 × stores` lines (`3 × stores` in one set) enter the buddy's set,
    ///   and it stays if that is less than the level's `ways`.  A kernel
    ///   without a load has no buddy to keep.
    ///
    /// The bound holds for every paper kernel on every preset: every
    /// preset's L3 share has at least 12 ways and more than one set at any
    /// sharer count (at least 64 lines, 12 ways on the Ice Lake and
    /// Sapphire Rapids, 16 on the CVA6), so it admits five store streams
    /// beside a load, and the copy kernels have one.  The proof is
    /// sufficient, not necessary, and allocates nothing.  A debug build
    /// runs the real L3 share beside a counted core and asserts every
    /// verdict against it.
    pub fn counts_last_level(
        &self,
        machine: &Machine,
        options: &CoreSimOptions,
        rank: usize,
    ) -> bool {
        use crate::access::ELEM_BYTES;
        let l3 = &machine.caches.l3;
        let (sets, ways) = SetAssocCache::geometry(
            l3_share_bytes(l3.capacity_bytes, options.l3_sharers),
            l3.associativity,
        );
        let kinds = |kind| self.operands.iter().filter(|op| op.kind == kind).count();
        let per_store = if sets > 1 { 2 } else { 3 };
        let base = self.rank_base.base(rank);
        (self.rows <= 1 || self.row_stride >= self.inner)
            && self
                .operands
                .iter()
                .all(|op| (base + op.offset) % ELEM_BYTES == 0)
            && (kinds(AccessKind::Load) == 0 || per_store * kinds(AccessKind::Store) < ways)
            && self.never_hits_private(machine, rank)
    }

    /// What a core driving this kernel as `rank` on `machine` under
    /// `options` simulates, where its last level is `llc`: the one place
    /// the proofs' verdicts become a [`Reach`].
    pub(crate) fn reach(
        &self,
        machine: &Machine,
        options: &CoreSimOptions,
        rank: usize,
        llc: LastLevelUse,
    ) -> Reach {
        match llc {
            LastLevelUse::Own if self.counts_last_level(machine, options, rank) => Reach::counted(),
            _ if !self.never_hits_private(machine, rank) => Reach::Full,
            LastLevelUse::Shared => Reach::last_level(false),
            LastLevelUse::Own | LastLevelUse::OwnLines => Reach::last_level(true),
        }
    }
}

/// What the last level a core misses into holds besides what the core
/// puts there, and who reads it: the caller's part of
/// [`KernelSpec::reach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LastLevelUse {
    /// The core's own L3 share, just emptied, which nothing else fills and
    /// whose evictions nobody counts: it may be counted, not simulated.
    /// A counted core's events are then the same at every share where
    /// [`KernelSpec::counts_last_level`] holds, which is what lets one
    /// trace serve them all ([`LlcClass::Counted`]).
    Own,
    /// No line of the core's windows now, and none later but what the
    /// core's own accesses put there, but other tenants' lines may evict
    /// them (a co-run tenant alone in its buddy pairs): frontiers.
    OwnLines,
    /// Other tenants may put lines of the core's windows there.
    Shared,
}

/// Everything of a simulation's environment that *can change the event
/// sequence* — which lines hit, miss, evict, prefetch or write back: the
/// machine (identified by its preset id — preset machines with equal ids
/// are structurally identical, cache geometry included), the
/// adjacent-line prefetcher switch, the L3 sharer count and the store-miss
/// policy.  Every memo identity carries it, the trace key included: that
/// is the differential-replay soundness rule, as a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Dynamics {
    /// `Machine::id` of the simulated machine.
    pub machine: String,
    /// Adjacent-line prefetcher switch.
    pub adjacent_line: bool,
    /// Cores sharing the L3.
    pub l3_sharers: usize,
    /// Store-miss policy of the simulated hierarchy.
    pub write_policy: WritePolicyKind,
}

impl Dynamics {
    fn of(machine: &Machine, options: CoreSimOptions) -> Self {
        Self {
            machine: machine.id.clone(),
            adjacent_line: options.prefetchers.adjacent_line,
            l3_sharers: options.l3_sharers,
            write_policy: options.write_policy,
        }
    }
}

/// Everything of a simulation's environment that *only scales the
/// accounting* of an unchanged event sequence: the occupancy context, the
/// SpecI2M MSR switch and the prefetch-off evasion factor weight
/// fractional counter terms and decide nothing about the caches (floats
/// keyed by their bit patterns).  Sweep points that differ only here are
/// "neighbours": they share one event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Accounting {
    /// `OccupancyContext::domain_utilization` bit pattern.
    pub utilization_bits: u64,
    /// Populated ccNUMA domains.
    pub active_domains: usize,
    /// Total ccNUMA domains.
    pub total_domains: usize,
    /// SpecI2M MSR switch.
    pub speci2m_enabled: bool,
    /// `PrefetcherConfig::pf_off_evasion_factor` bit pattern.
    pub pf_off_evasion_bits: u64,
}

impl Accounting {
    fn of(ctx: OccupancyContext, options: CoreSimOptions) -> Self {
        Self {
            utilization_bits: ctx.domain_utilization.to_bits(),
            active_domains: ctx.active_domains,
            total_domains: ctx.total_domains,
            speci2m_enabled: options.speci2m_enabled,
            pf_off_evasion_bits: options.prefetchers.pf_off_evasion_factor.to_bits(),
        }
    }
}

/// A key that omits its kernel's rank is only sound when the rank base
/// cannot change any set index (see [`MIN_MEMO_SHIFT`]).
fn debug_assert_rank_invariant(kernel: &KernelSpec) {
    if let RankBase::Shifted { shift, .. } = kernel.rank_base {
        debug_assert!(
            shift >= MIN_MEMO_SHIFT,
            "RankBase::Shifted {{ shift: {shift} }} is below MIN_MEMO_SHIFT \
             ({MIN_MEMO_SHIFT}): counters would be rank-dependent and \
             memoization inexact"
        );
    }
}

/// Identity of one representative-core simulation.  Two simulations with
/// equal keys produce bit-identical counters, so the key is exactly what a
/// memo may share.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SimKey {
    /// What decides the event sequence.
    pub dynamics: Dynamics,
    /// What weights the events.
    pub accounting: Accounting,
    /// The SPMD kernel.
    pub kernel: KernelSpec,
}

impl SimKey {
    /// Key of the simulation of `kernel` on `machine` under `ctx` and
    /// `options` (which name the store-miss policy).  Keys of distinct
    /// policies never collide, so one memo can span a sweep that mixes
    /// policy configurations.
    pub fn new(
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
        kernel: &KernelSpec,
    ) -> Self {
        debug_assert_rank_invariant(kernel);
        Self {
            dynamics: Dynamics::of(machine, options),
            accounting: Accounting::of(ctx, options),
            kernel: kernel.clone(),
        }
    }
}

/// Identity of one co-run pass (see
/// [`NodeSim::run_corun`](crate::engine::NodeSim::run_corun)): the whole
/// environment of a [`SimKey`] plus the tenancy's cores, the *sorted* tenant
/// kernels, which of them the pass reports (the *primary*) and the
/// interleave granularity.  Co-run keys live in a table of their own — a
/// solo result is never served for a contended run or vice versa — and two
/// passes share an entry only when all of that matches: the same tenants
/// with another primary are another pass, since a pass may stop once its
/// primary's report is final.
///
/// A one-tenant key (a baseline) carries neither an interleave — turn
/// boundaries decide nothing for one tenant
/// (`a_baseline_is_the_same_at_any_interleave_and_either_rank` in
/// `tests/batched_equivalence.rs` checks it at several interleaves and
/// either rank, `tests/reference_hierarchy.rs` at a random interleave
/// against a naive hierarchy), so it stores `u64::MAX` — nor a rank: the
/// pass runs at rank 0 whatever rank its kernel has in the co-runs it is
/// the baseline of, exact under the [`MIN_MEMO_SHIFT`] rule as for [`SimKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CoRunKey {
    /// What decides the event sequence.
    pub dynamics: Dynamics,
    /// What weights the events.
    pub accounting: Accounting,
    /// Cores of the tenancy: the LLC is this many per-core shares.  The
    /// share is in `dynamics.l3_sharers`; once that and the saturation
    /// curve clamp, nothing else tells two tenancy sizes apart.
    pub cores: usize,
    /// Tenant kernels in canonical (sorted) order.
    pub tenants: Vec<KernelSpec>,
    /// Index in `tenants` of the primary, the tenant the pass reports (0
    /// for one tenant).
    pub primary: usize,
    /// Lines each tenant streams per round-robin turn at the shared LLC
    /// (`u64::MAX` for one tenant).
    pub interleave_lines: u64,
}

impl CoRunKey {
    /// Key of the pass of `tenants` on `cores` cores under `options` (which
    /// name the store-miss policy) that reports `tenants[primary]`.
    /// `tenants` must already be in canonical (sorted) order.
    pub fn new(
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
        cores: usize,
        tenants: &[KernelSpec],
        primary: usize,
        interleave_lines: u64,
    ) -> Self {
        debug_assert!(
            tenants.windows(2).all(|w| w[0] <= w[1]),
            "CoRunKey tenants must be in canonical sorted order"
        );
        assert!(primary < tenants.len(), "the primary is one of the tenants");
        let interleave_lines = match tenants {
            [alone] => {
                debug_assert_rank_invariant(alone);
                u64::MAX
            }
            _ => interleave_lines,
        };
        Self {
            dynamics: Dynamics::of(machine, options),
            accounting: Accounting::of(ctx, options),
            cores,
            tenants: tenants.to_vec(),
            primary,
            interleave_lines,
        }
    }
}

/// The last level's part of a trace identity, read off the [`Reach`] the
/// point's own core simulates (`KernelSpec::reach` at
/// [`LastLevelUse::Own`]), so that the class and the core cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LlcClass {
    /// The core counts its L3 share ([`Reach::Counted`]): no line is
    /// loaded or retired twice but the repeat and a buddy proved
    /// resident, and under LRU a first touch misses at every capacity
    /// (Mattson et al., 1970), so the core looks nothing up and emits the
    /// same events at every share where [`KernelSpec::counts_last_level`]
    /// holds.  The sharer count is no part of the identity.
    Counted,
    /// The core simulates its share: the sharer count, which sets the
    /// share's geometry, may decide which lines survive.
    Sharers(usize),
}

/// Identity of one *cache-dynamics* trace: the [`Dynamics`] of a
/// [`SimKey`] with the sharer count reduced to its [`LlcClass`], and the
/// kernel — no [`Accounting`].  The memo records the trace once per
/// `DiffKey` and replays it (bit-identically — same floating-point addition
/// order per counter field) under each neighbour's accounting instead of
/// re-simulating the cache dynamics from scratch.  Because the key holds
/// the whole [`Dynamics`], a replay can never be served across machines,
/// prefetcher switches, store-miss policies or kernels, nor across L3
/// shares unless the kernel is counted at each.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct DiffKey {
    /// `l3_sharers` is zeroed here: the count lives in `llc`, or nowhere.
    dynamics: Dynamics,
    llc: LlcClass,
    kernel: KernelSpec,
}

impl DiffKey {
    /// The trace identity of `kernel` under `options`, whose core
    /// simulates `reach`.
    fn of(machine: &Machine, options: CoreSimOptions, kernel: &KernelSpec, reach: Reach) -> Self {
        let llc = match reach {
            Reach::Counted { .. } => LlcClass::Counted,
            _ => LlcClass::Sharers(options.l3_sharers),
        };
        Self {
            dynamics: Dynamics {
                l3_sharers: 0,
                ..Dynamics::of(machine, options)
            },
            llc,
            kernel: kernel.clone(),
        }
    }
}

/// Sharded concurrent memo of representative-core simulations.
///
/// One `SimMemo` is meant to span a whole sweep (or a whole plan of
/// sweeps, or a whole `figures serve` daemon lifetime): every evaluation
/// point consults it before simulating and publishes its result
/// afterwards.  Lookups and inserts lock only the shard the key hashes
/// to; the simulation itself runs outside any lock.  Concurrent lookups
/// of the same missing key are *single-flight* (via [`FlightMemo`]): one
/// worker simulates, every other worker waits for that result and counts
/// as a hit, so the duplicate simulation of the old racing path — and its
/// double-counted miss — cannot occur.
#[derive(Debug)]
pub struct SimMemo {
    inner: FlightMemo<SimKey, MemCounters>,
    /// Co-run passes, keyed separately from solo simulations: a
    /// [`CoRunKey`] and a [`SimKey`] live in disjoint tables, so a memo
    /// shared across solo and contended sweeps can never serve a solo
    /// result for a co-run (or one interleave's result for another).
    corun: FlightMemo<CoRunKey, TenantReport>,
    /// Cache-dynamics traces keyed by [`DiffKey`]: the differential
    /// re-simulation layer underneath `inner`.  A [`SimKey`] miss whose
    /// [`DiffKey`] already holds a trace replays it under the point's own
    /// accounting context instead of re-simulating — and the replayed
    /// counters are published into `inner` under the full [`SimKey`], so
    /// differential and from-scratch results can never mix.
    /// `None` for a key whose recording was abandoned.
    diff: FlightMemo<DiffKey, Option<Trace>>,
    /// Whether misses record/replay traces.  `false` forces every miss
    /// down the from-scratch path (used by the equivalence tests and
    /// available for debugging); results are bit-identical either way.
    differential: bool,
}

impl Default for SimMemo {
    fn default() -> Self {
        Self {
            inner: FlightMemo::default(),
            corun: FlightMemo::default(),
            diff: FlightMemo::default(),
            differential: true,
        }
    }
}

/// Hit/miss statistics of a [`SimMemo`] (or [`with_pooled_core`]'s pool):
/// how many simulations the memo avoided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of lookups answered from the memo (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl SimMemo {
    /// An empty memo (differential re-simulation enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo with differential re-simulation disabled: every miss
    /// simulates from scratch and records no trace.  Counters are
    /// bit-identical to the differential path (a tested property).  For a
    /// caller that knows every point it looks up is its own cache-dynamics
    /// class — a trace it recorded would be kept and replayed by nobody —
    /// such as the copy-halo figures, which `tests/sim_work.rs`
    /// (`each_figure_simulates_once_per_dynamics_class_and_allocates_little`)
    /// holds to that: as many classes as points.  The equivalence tests
    /// use it as the from-scratch reference.
    pub fn without_differential() -> Self {
        Self {
            differential: false,
            ..Self::default()
        }
    }

    /// Look up `key`, simulating with `simulate` on a miss and publishing
    /// the result.  The simulation runs outside every lock; concurrent
    /// lookups of the same key wait for the one in-flight simulation
    /// (single-flight) instead of repeating it, and exactly one miss is
    /// counted per simulation actually run.
    pub fn get_or_insert_with(
        &self,
        key: SimKey,
        simulate: impl FnOnce() -> MemCounters,
    ) -> MemCounters {
        self.inner.get_or_insert_with(key, simulate)
    }

    /// Counters of `kernel` on `machine` under `ctx`/`options`, simulated
    /// as rank `rank` on a miss (via the thread-local core pool).  The key
    /// carries the store-miss policy, so a hit can never be served from a
    /// different policy's entry.
    pub fn counters(
        &self,
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
        kernel: &KernelSpec,
        rank: usize,
    ) -> MemCounters {
        let key = SimKey::new(machine, ctx, options, kernel);
        self.get_or_insert_with(key, || {
            let reach = kernel.reach(machine, &options, rank, LastLevelUse::Own);
            let simulate =
                |record| Self::simulate(machine, ctx, options, kernel, rank, reach, record);
            if !self.differential {
                return simulate(false).0;
            }
            // Differential path: one trace per DiffKey.  The first miss on
            // a trace key simulates live *with recording* and keeps its
            // own counters; every neighbour replays the recorded events
            // under its own accounting instead of re-simulating.  Both
            // memo layers are single-flight and the simulation/replay runs
            // outside every lock; the diff lookup never waits on an
            // `inner` flight (only the reverse), so the nesting cannot
            // deadlock.
            let dkey = DiffKey::of(machine, options, kernel, reach);
            let mut live: Option<MemCounters> = None;
            let entry = self.diff.get_or_insert_with(dkey, || {
                let (counters, trace) = simulate(true);
                live = Some(counters);
                trace
            });
            if let Some(counters) = live {
                // Trace leader: its live counters are the result.
                return counters;
            }
            match entry {
                Some(trace) => replay_trace(&machine.speci2m, ctx, options, &trace),
                None => simulate(false).0,
            }
        })
    }

    /// From-scratch simulation of one representative core on the
    /// thread-local core pool, which simulates `reach` of its hierarchy:
    /// what [`KernelSpec::reach`] decided for the kernel at its own L3
    /// share.  A kernel that [`KernelSpec::never_hits_private`] proves
    /// runs against the L3 share alone, to the same events, and one that
    /// [`KernelSpec::counts_last_level`] proves against no cache at all,
    /// to the same counters, recording or not.  With `record`, as the
    /// leader of its trace class, it records the event trace; the
    /// returned trace is `None` when recording was off or abandoned (the
    /// counters are exact either way).
    fn simulate(
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
        kernel: &KernelSpec,
        rank: usize,
        reach: Reach,
        record: bool,
    ) -> (MemCounters, Option<Trace>) {
        with_pooled_core(machine, ctx, options, |core| {
            // The pooled core's L3 share was just emptied, and nothing but
            // this core fills it.
            let private = core.split().0;
            private.set_reach(reach);
            if record {
                private.trace.start();
            }
            kernel.drive(rank, core);
            let counters = core.flush();
            (counters, core.split().0.trace.finish())
        })
    }

    /// Number of memoized simulations.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Hit/miss statistics since construction.  Waiters of an in-flight
    /// simulation count as hits, so `misses` is exactly the number of
    /// simulations run.
    pub fn stats(&self) -> MemoStats {
        let (hits, misses) = self.inner.stats();
        MemoStats { hits, misses }
    }

    /// Look up the co-run `key`, simulating with `simulate` on a miss and
    /// publishing the report of the key's primary.  Same single-flight
    /// semantics as [`get_or_insert_with`](Self::get_or_insert_with), over
    /// a table disjoint from the solo one.
    pub fn corun_get_or_insert_with(
        &self,
        key: CoRunKey,
        simulate: impl FnOnce() -> TenantReport,
    ) -> TenantReport {
        self.corun.get_or_insert_with(key, simulate)
    }

    /// Number of memoized co-run simulations.
    pub fn corun_len(&self) -> usize {
        self.corun.len()
    }

    /// Hit/miss statistics of the co-run table since construction.
    pub fn corun_stats(&self) -> MemoStats {
        let (hits, misses) = self.corun.stats();
        MemoStats { hits, misses }
    }

    /// Number of memoized cache-dynamics traces (including keys recorded
    /// as oversized).  Always 0 when differential re-simulation is off.
    pub fn diff_len(&self) -> usize {
        self.diff.len()
    }

    /// Hit/miss statistics of the trace table since construction.  A
    /// `hit` is a sweep point answered by replaying a neighbour's trace
    /// instead of re-simulating the cache dynamics.
    pub fn diff_stats(&self) -> MemoStats {
        let (hits, misses) = self.diff.stats();
        MemoStats { hits, misses }
    }

    /// Snapshot every memoized co-run with its access stamp (see
    /// [`FlightMemo::entries_stamped`]): higher stamp ⇒ more recently
    /// touched.  This is what a persistent store writes; a capped
    /// persistence pass keeps the highest-stamped entries and evicts the
    /// rest.  Co-runs still in flight are skipped; the order is
    /// unspecified.
    pub fn corun_entries_stamped(&self) -> Vec<(CoRunKey, TenantReport, u64)> {
        self.corun.entries_stamped()
    }

    /// Publish previously snapshotted co-runs (warm-loading a persisted
    /// store).  Keys already present are left untouched and the hit/miss
    /// statistics are unchanged — preloaded entries surface as hits only
    /// once a lookup finds them.
    pub fn corun_preload(&self, entries: impl IntoIterator<Item = (CoRunKey, TenantReport)>) {
        self.corun.preload(entries);
    }
}

thread_local! {
    /// One reusable true-LRU [`CoreSim`] per machine (identified by
    /// `Machine::id`) per worker thread.
    static CORE_POOL: RefCell<Vec<(String, CoreSim)>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on a pooled, freshly [`reset`](CoreSim::reset) core simulator
/// for `machine` under `ctx`/`options`.
///
/// A reset core is indistinguishable from `CoreSim::new` (a tested
/// property), so pooling changes no counter bit — it only skips the
/// allocation and zeroing of the multi-megabyte cache arenas on every
/// simulation after a thread's first one on that machine.  `f` must not
/// re-enter the pool (no nested `with_pooled_core` on the same thread).
pub fn with_pooled_core<R>(
    machine: &Machine,
    ctx: OccupancyContext,
    options: CoreSimOptions,
    f: impl FnOnce(&mut CoreSim) -> R,
) -> R {
    CORE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let idx = match pool.iter().position(|(id, _)| id == &machine.id) {
            Some(i) => {
                pool[i].1.reset(ctx, options);
                i
            }
            None => {
                pool.push((machine.id.clone(), CoreSim::new(machine, ctx, options)));
                pool.len() - 1
            }
        };
        f(&mut pool[idx].1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NodeSim, SimConfig};
    use clover_machine::{icelake_sp_8360y, sapphire_rapids_8480};

    fn store_spec(elements: u64) -> KernelSpec {
        KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            AccessKind::Store,
        )
    }

    #[test]
    fn rank_base_addressing() {
        assert_eq!(RankBase::Shared.base(7), 0);
        assert_eq!(RankBase::Shifted { shift: 40, plus: 1 }.base(0), 1 << 40);
        assert_eq!(RankBase::Shifted { shift: 36, plus: 0 }.base(3), 3 << 36);
    }

    #[test]
    fn a_spec_sweep_places_every_operand_at_its_rank_base() {
        let spec = KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus: 1 },
            operands: vec![
                SpecOperand {
                    offset: 0,
                    points: vec![(0, 0)],
                    kind: AccessKind::Load,
                },
                SpecOperand {
                    offset: 1 << 30,
                    points: vec![(0, 0)],
                    kind: AccessKind::Store,
                },
            ],
            row_stride: 221,
            i0: 0,
            inner: 216,
            k0: 0,
            rows: 4,
        };
        let sweep = spec.sweep(2);
        assert_eq!(sweep.operands.len(), 2);
        assert_eq!(sweep.operands[0].base, 3 << 40);
        assert_eq!(sweep.operands[1].base, (3 << 40) + (1 << 30));
        assert_eq!(sweep.row_stride, 221);
        assert_eq!(sweep.rows, 4);
        assert_eq!(spec.iterations(), 216 * 4);
    }

    #[test]
    fn memo_hit_returns_the_identical_counters() {
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let spec = store_spec(2048);
        let ctx = OccupancyContext::compact(&m, 18);
        let options = CoreSimOptions::default();
        let first = memo.counters(&m, ctx, options, &spec, 0);
        let second = memo.counters(&m, ctx, options, &spec, 0);
        assert_eq!(first, second);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(memo.len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memo_distinguishes_contexts_options_and_kernels() {
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let options = CoreSimOptions::default();
        let serial = OccupancyContext::serial(&m);
        let loaded = OccupancyContext::compact(&m, m.total_cores());
        let _ = memo.counters(&m, serial, options, &store_spec(512), 0);
        let _ = memo.counters(&m, loaded, options, &store_spec(512), 0);
        let _ = memo.counters(&m, serial, options, &store_spec(513), 0);
        let off = CoreSimOptions {
            speci2m_enabled: false,
            ..Default::default()
        };
        let _ = memo.counters(&m, serial, off, &store_spec(512), 0);
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.stats().misses, 4);
    }

    #[test]
    fn memoized_counters_are_rank_invariant() {
        // The memo shares results across ranks: rank bases are aligned far
        // beyond the set-index range, so simulating as rank 0 or rank 40
        // produces the same counters bit for bit.
        let m = icelake_sp_8360y();
        let spec = store_spec(4096);
        let ctx = OccupancyContext::domain_load(&m, 18, 3);
        let options = CoreSimOptions {
            l3_sharers: 36,
            ..Default::default()
        };
        let a = SimMemo::new().counters(&m, ctx, options, &spec, 0);
        let b = SimMemo::new().counters(&m, ctx, options, &spec, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_core_matches_a_fresh_core_across_machines() {
        let icx = icelake_sp_8360y();
        let spr = sapphire_rapids_8480();
        let spec = store_spec(2048);
        for machine in [&icx, &spr, &icx] {
            let ctx = OccupancyContext::serial(machine);
            let options = CoreSimOptions::default();
            let pooled = with_pooled_core(machine, ctx, options, |core| {
                spec.drive(0, core);
                core.flush()
            });
            let mut fresh: CoreSim = CoreSim::new(machine, ctx, options);
            spec.drive(0, &mut fresh);
            assert_eq!(pooled, fresh.flush(), "machine {}", machine.id);
        }
    }

    #[test]
    fn differential_replay_matches_from_scratch_across_neighbour_axes() {
        // Neighbour axes: occupancy context, SpecI2M switch, prefetch-off
        // evasion factor.  Every point after the first per (machine,
        // prefetchers, l3_sharers, policies, kernel) replays the leader's
        // trace — of write-allocate store, write-back or NT line events, by
        // store-miss policy; counters must equal the from-scratch memo's bit
        // for bit.
        let m = icelake_sp_8360y();
        let diff = SimMemo::new();
        let scratch = SimMemo::without_differential();
        let spec = store_spec(4096);
        let contexts = [
            OccupancyContext::serial(&m),
            OccupancyContext::compact(&m, 7),
            OccupancyContext::domain_load(&m, 18, 2),
            OccupancyContext::domain_load(&m, 18, 4),
        ];
        let policies = WritePolicyKind::all();
        for &write_policy in &policies {
            for ctx in contexts {
                for speci2m_enabled in [true, false] {
                    let options = CoreSimOptions {
                        speci2m_enabled,
                        l3_sharers: 36,
                        write_policy,
                        ..Default::default()
                    };
                    let a = diff.counters(&m, ctx, options, &spec, 0);
                    let b = scratch.counters(&m, ctx, options, &spec, 0);
                    assert_eq!(a, b, "{write_policy} ctx={ctx:?} speci2m={speci2m_enabled}");
                }
            }
        }
        // One trace per policy serves all eight of its neighbour points.
        let n = policies.len();
        assert_eq!(diff.diff_len(), n);
        let dstats = diff.diff_stats();
        assert_eq!((dstats.hits, dstats.misses), (7 * n as u64, n as u64));
        // The from-scratch memo recorded no traces.
        assert_eq!(scratch.diff_len(), 0);
        // Both memos hold the same eight full-key entries per policy.
        assert_eq!(diff.len(), 8 * n);
        assert_eq!(scratch.len(), 8 * n);
    }

    /// 4 MiB of stores: more than an 18- or 36-sharer L3 share of the ICX
    /// holds, so the kernel evicts there (and not in the whole 54 MiB).
    const EVICTING_ELEMENTS: u64 = 512 * 1024;

    /// `store_spec(elements)` half an element off its line: no longer
    /// counted (`KernelSpec::counts_last_level` wants element-aligned
    /// operands), though it still skips its private levels.
    fn misaligned_store_spec(elements: u64) -> KernelSpec {
        let mut spec = store_spec(elements);
        spec.operands[0].offset = 4;
        spec
    }

    /// The trace identity of `spec` at rank 0 under `options`.
    fn diff_key(m: &Machine, options: CoreSimOptions, spec: &KernelSpec) -> DiffKey {
        let reach = spec.reach(m, &options, 0, LastLevelUse::Own);
        DiffKey::of(m, options, spec, reach)
    }

    #[test]
    fn differential_traces_never_mix_across_dynamics_axes() {
        use crate::prefetch::PrefetcherConfig;
        // Anything that can change the event sequence — kernel, prefetcher
        // switches, policies — gets its own trace key, and so does the L3
        // sharer count of a kernel whose core simulates its share: a
        // counted core's traffic does not depend on the size of the share,
        // even where the share evicts.
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let ctx = OccupancyContext::serial(&m);
        let options = CoreSimOptions::default();
        let sharers = |l3_sharers| CoreSimOptions {
            l3_sharers,
            ..Default::default()
        };
        let no_pf = CoreSimOptions {
            prefetchers: PrefetcherConfig::disabled(),
            ..Default::default()
        };
        let no_allocate = CoreSimOptions {
            write_policy: WritePolicyKind::NoAllocate,
            ..Default::default()
        };
        let simulated = misaligned_store_spec(1024);
        // A load beside six store streams is counted only where the share
        // has more than twelve ways: at 1 sharer (13), not at 36 (12).
        let six_stores = KernelSpec {
            operands: (0..7u64)
                .map(|s| SpecOperand {
                    offset: s << 30,
                    points: vec![(0, 0)],
                    kind: [AccessKind::Load, AccessKind::Store][usize::from(s > 0)],
                })
                .collect(),
            ..store_spec(1024)
        };
        assert!(six_stores.counts_last_level(&m, &options, 0));
        assert!(!six_stores.counts_last_level(&m, &sharers(36), 0));
        let distinct = [
            (options, store_spec(1024)),
            (options, store_spec(1025)),
            (no_pf, store_spec(1024)),
            (no_allocate, store_spec(1024)),
            (sharers(36), simulated.clone()),
            (sharers(18), simulated.clone()),
            (options, simulated),
            (options, six_stores.clone()),
            (sharers(36), six_stores),
        ];
        for (opts, spec) in &distinct {
            let _ = memo.counters(&m, ctx, *opts, spec, 0);
        }
        // Nine distinct dynamics identities, zero replays.
        assert_eq!(memo.diff_len(), 9);
        assert_eq!(memo.diff_stats().hits, 0);

        // Counted kernels under other sharer counts: new `SimKey`s, the
        // trace of the first; one that evicts at 36 and 18 sharers and not
        // at 1 is one trace too.
        let big = store_spec(EVICTING_ELEMENTS);
        let counted = [
            (sharers(36), store_spec(1024)),
            (sharers(2), store_spec(1024)),
            (sharers(36), big.clone()),
            (sharers(18), big.clone()),
            (options, big),
        ];
        for (opts, spec) in &counted {
            let _ = memo.counters(&m, ctx, *opts, spec, 0);
        }
        assert_eq!(memo.diff_len(), 10);
        assert_eq!(memo.diff_stats().hits, 4);
        assert_eq!(memo.len(), 14);

        // And every result still equals the from-scratch reference.
        let scratch = SimMemo::without_differential();
        for (opts, spec) in distinct.iter().chain(&counted) {
            assert_eq!(
                memo.counters(&m, ctx, *opts, spec, 0),
                scratch.counters(&m, ctx, *opts, spec, 0)
            );
        }
    }

    #[test]
    fn diff_key_ignores_every_accounting_field_and_no_dynamics_field() {
        type Vary = fn(&mut OccupancyContext, &mut CoreSimOptions);
        let m = icelake_sp_8360y();
        let spec = store_spec(1024);
        let keys = |machine: &Machine, vary: Vary, spec: &KernelSpec| {
            let mut ctx = OccupancyContext::domain_load(&m, 18, 2);
            let mut options = CoreSimOptions::default();
            vary(&mut ctx, &mut options);
            let full = SimKey::new(machine, ctx, options, spec);
            (full, diff_key(machine, options, spec))
        };
        let vary = |vary: Vary| keys(&m, vary, &spec);
        let (base_full, base_diff) = vary(|_, _| {});
        assert_eq!(base_diff.llc, LlcClass::Counted);

        // One accounting field at a time — and the sharer count of this
        // counted kernel: a different SimKey, the same trace.
        let accounting: [Vary; 6] = [
            |c, _| c.domain_utilization = 0.25,
            |c, _| c.active_domains = 3,
            |c, _| c.total_domains = 8,
            |_, o| o.speci2m_enabled = false,
            |_, o| o.prefetchers.pf_off_evasion_factor = 0.5,
            |_, o| o.l3_sharers = 36,
        ];
        for (i, (full, diff)) in accounting.into_iter().map(vary).enumerate() {
            assert_ne!(full, base_full, "accounting field {i} is in the SimKey");
            assert_eq!(diff, base_diff, "accounting field {i} splits no trace");
        }

        // One dynamics field (or the kernel) at a time: a different trace.
        let dynamics = [
            keys(&sapphire_rapids_8480(), |_, _| {}, &spec),
            vary(|_, o| o.prefetchers.adjacent_line = false),
            vary(|_, o| o.write_policy = WritePolicyKind::NoAllocate),
            vary(|_, o| o.write_policy = WritePolicyKind::NonTemporal),
            keys(&m, |_, _| {}, &store_spec(1025)),
        ];
        for (i, (full, diff)) in dynamics.into_iter().enumerate() {
            assert_ne!(full, base_full, "dynamics field {i}");
            assert_ne!(diff, base_diff, "dynamics field {i} must split traces");
        }

        // A counted kernel that evicts at 36 and 18 sharers is still one
        // class at every sharer count.
        let big = store_spec(EVICTING_ELEMENTS);
        let at = |vary: Vary, spec: &KernelSpec| keys(&m, vary, spec).1;
        let (s36, s18) = (
            at(|_, o| o.l3_sharers = 36, &big),
            at(|_, o| o.l3_sharers = 18, &big),
        );
        assert_eq!(s36.llc, LlcClass::Counted);
        assert_eq!(s36, s18);
        assert_eq!(s36, at(|_, _| {}, &big));

        // The sharer count is a dynamics field of a kernel that is not
        // counted, whatever its share holds.
        let simulated = misaligned_store_spec(1024);
        let (s36, s18) = (
            at(|_, o| o.l3_sharers = 36, &simulated),
            at(|_, o| o.l3_sharers = 18, &simulated),
        );
        assert_eq!(s36.llc, LlcClass::Sharers(36));
        assert_eq!(s18.llc, LlcClass::Sharers(18));
        assert_ne!(s36, s18);
    }

    #[test]
    fn a_counted_leader_filling_each_set_to_its_ways_or_past_serves_every_share() {
        // On the ICX at 36 sharers the L3 share is 2 048 sets of 12 ways.
        // A store stream of 12 lines per set fills each set to the last
        // way there, one of 13 evicts; at 18 and 1 sharers neither does.
        // Both are counted at every sharer count, so each is one trace
        // class whose leader and replays equal simulating from scratch.
        let m = icelake_sp_8360y();
        let options = |l3_sharers| CoreSimOptions {
            l3_sharers,
            ..Default::default()
        };
        for per_set in [12, 13] {
            let spec = store_spec(8 * 2048 * per_set);
            let (diff, scratch) = (SimMemo::new(), SimMemo::without_differential());
            for l3_sharers in [36, 18, 36, 1] {
                assert_eq!(
                    diff_key(&m, options(l3_sharers), &spec).llc,
                    LlcClass::Counted
                );
                let ctx = OccupancyContext::compact(&m, 2 * l3_sharers);
                let a = diff.counters(&m, ctx, options(l3_sharers), &spec, 0);
                let b = scratch.counters(&m, ctx, options(l3_sharers), &spec, 0);
                assert_eq!(
                    a.bits(),
                    b.bits(),
                    "{per_set} lines per set, {l3_sharers} sharers"
                );
            }
            assert_eq!(diff.diff_stats().misses, 1, "{per_set} lines per set");
        }
    }

    #[test]
    fn an_abandoned_recording_makes_the_class_oversized_and_stays_exact() {
        // An NT stream of full lines is one event and one run, however
        // long.  Rows of one full and one partial line (12 of 16 elements)
        // are an entry per line: more lines than a trace's 2^19 entries
        // abandon the leader's recording, so the neighbour re-simulates.
        let m = icelake_sp_8360y();
        let rows = (1 << 18) + 8;
        let spec = KernelSpec {
            row_stride: 16,
            inner: 12,
            rows,
            ..KernelSpec::contiguous(
                RankBase::Shifted { shift: 36, plus: 0 },
                0,
                0,
                AccessKind::StoreNT,
            )
        };
        let diff = SimMemo::new();
        let scratch = SimMemo::without_differential();
        let options = CoreSimOptions::default();
        for ctx in [
            OccupancyContext::serial(&m),
            OccupancyContext::compact(&m, 36),
        ] {
            assert_eq!(
                diff.counters(&m, ctx, options, &spec, 0),
                scratch.counters(&m, ctx, options, &spec, 0)
            );
        }
        let dkey = diff_key(&m, options, &spec);
        let entry = diff
            .diff
            .get_or_insert_with(dkey, || unreachable!("recorded above"));
        assert!(entry.is_none(), "the recording was abandoned");
        let dstats = diff.diff_stats();
        assert_eq!((dstats.hits, dstats.misses), (2, 1));
    }

    /// Entries and events the points of `memo` replay, each point past
    /// the first of its trace once: `traces` traces, all on `m` under the
    /// default options at the point's sharer count.
    fn replayed(m: &Machine, memo: &SimMemo, traces: usize) -> (u64, u64) {
        let mut points: std::collections::HashMap<DiffKey, u64> = Default::default();
        for (key, _, _) in memo.inner.entries_stamped() {
            let options = CoreSimOptions {
                l3_sharers: key.dynamics.l3_sharers,
                ..Default::default()
            };
            let dkey = diff_key(m, options, &key.kernel);
            *points.entry(dkey).or_default() += 1;
        }
        let (mut entries, mut events) = (0, 0);
        let recorded = memo.diff.entries_stamped();
        assert_eq!(recorded.len(), traces);
        for (dkey, trace, _) in recorded {
            let trace = trace.expect("the traces fit the cap");
            let replays = points[&dkey] - 1;
            entries += replays * trace.len() as u64;
            events += replays * crate::trace::events_in(&trace);
        }
        assert_eq!(
            points.values().sum::<u64>() - traces as u64,
            memo.diff_stats().hits,
            "one replay per point after a trace's leader"
        );
        (entries, events)
    }

    /// `streams` operands of `kind`, each 32 Ki elements of one row, 1 GiB
    /// apart in a rank's window: fig. 5's kernel, and with a load first
    /// fig. 6's.
    fn figure_kernel(operands: &[AccessKind]) -> KernelSpec {
        KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus: 1 },
            operands: (0..)
                .zip(operands)
                .map(|(s, &kind)| SpecOperand {
                    offset: s << 30,
                    points: vec![(0, 0)],
                    kind,
                })
                .collect(),
            ..KernelSpec::contiguous(RankBase::Shared, 0, 32 * 1024, AccessKind::Store)
        }
    }

    #[test]
    fn fig5_replays_an_eighth_as_many_entries_as_events() {
        // Fig. 5's curve as `clover-ubench` walks it: the ICX at every
        // third core count, one to three normal, then NT store streams of
        // 32 Ki elements.  Six traces; a saturated stream is one run, also
        // where the leader repeated its period instead of stepping it.
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        for cores in (1..=m.total_cores()).step_by(3) {
            let sim = NodeSim::new(SimConfig::new(m.clone(), cores));
            for kind in [AccessKind::Store, AccessKind::StoreNT] {
                for streams in 1..=3 {
                    sim.run_spmd_memo(&figure_kernel(&vec![kind; streams]), &memo);
                }
            }
        }
        // Under an eighth, and exactly: a vocabulary that weighs the same
        // but records other runs moves these.
        assert_eq!(replayed(&m, &memo, 6), (117_286, 1_278_108));
    }

    #[test]
    fn fig6_replays_a_quarter_of_its_events_as_entries() {
        // Fig. 6's curve: the ICX's copy of 32 Ki elements at 1 to 36
        // threads, 36 points of one trace.  A load miss, its buddy's
        // prefetch and two store lines alternate, so no run forms: a
        // stepped leader recorded 8 192 entries for the 8 193 events, and
        // each of the 35 replays walked them all.  The leader steps the
        // row to where the store streak saturates (1 001 lines) and records
        // the repeat of the rest as one `Period` entry.
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        let copy = figure_kernel(&[AccessKind::Load, AccessKind::Store]);
        for threads in 1..=36 {
            NodeSim::new(SimConfig::new(m.clone(), threads)).run_spmd_memo(&copy, &memo);
        }
        let (entries, events) = replayed(&m, &memo, 1);
        assert_eq!(events, 35 * 8_193, "the events of 4 096 lines");
        assert!(3 * entries < 35 * 8_192, "{entries} entries");
        assert_eq!(entries, 35 * 2_013);
    }

    #[test]
    fn differential_memo_matches_across_a_rank_curve() {
        // End-to-end through `run_spmd_memo`: a differential memo and a
        // from-scratch memo walk the same rank curve and every node report
        // stays bit-identical, while the differential memo actually
        // replays (diff hits > 0 once several domain-load levels share a
        // trace key).
        let m = icelake_sp_8360y();
        let spec = store_spec(2048);
        let diff = SimMemo::new();
        let scratch = SimMemo::without_differential();
        for ranks in [1usize, 7, 18, 19, 36, 54, 72] {
            let sim = NodeSim::new(SimConfig::new(m.clone(), ranks));
            let a = sim.run_spmd_memo(&spec, &diff);
            let b = sim.run_spmd_memo(&spec, &scratch);
            assert_eq!(a.total, b.total, "ranks={ranks}");
            assert_eq!(a.per_rank, b.per_rank, "ranks={ranks}");
        }
        assert!(
            diff.diff_stats().hits > 0,
            "expected trace replays across the curve: {:?}",
            diff.diff_stats()
        );
    }

    #[test]
    fn memo_respects_config_switches() {
        let m = icelake_sp_8360y();
        let spec = store_spec(2048);
        let memo = SimMemo::new();
        let on = NodeSim::new(SimConfig::new(m.clone(), 36)).run_spmd_memo(&spec, &memo);
        let off = NodeSim::new(SimConfig::new(m.clone(), 36).without_speci2m())
            .run_spmd_memo(&spec, &memo);
        // SpecI2M off must not be served from the SpecI2M-on entry.
        assert!(off.total.itom_lines < 1e-9);
        assert!(on.total.itom_lines > 0.0);
    }
}
