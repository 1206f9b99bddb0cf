//! An oracle for the composed cache hierarchy that shares none of the
//! simulator's code: a naive L1 → L2 → L3-share hierarchy in the shape of a
//! pin-tool model, built from each mechanism's definition.  Every level is
//! a `NaiveCache` (`tests/naive_cache`: a `Vec<Vec<Way { valid, dirty,
//! lru, tag }>>` with a global LRU clock and linear scans); the store
//! streams are a list of open streams with a byte map per line; every
//! access is fed one 8-byte element at a time.  No batching, no bulk
//! phase, no ring, no trace.
//!
//! The product's drivers — `CoreSim::drive_run`, `StencilRowSweep::drive`,
//! the `SweepCursor` advanced in turns (a one-tenant `NodeSim::run_corun`
//! at a random interleave) and `NodeSim::run_spmd_memo(..).per_rank` —
//! must equal it count for count on random short kernels, on every preset
//! under every store-miss policy with the adjacent-line prefetcher on and
//! off, and on hand-made kernels that reach corners the drawn ones reach
//! rarely or never (`fixed_kernels`, the paper's ICX configuration):
//!
//! * with SpecI2M off on a machine whose NT partial-flush fraction is 0,
//!   integer for integer on all six `MemCounters` (read = demand reads +
//!   prefetches + write-allocates + partial NT lines, write = write-backs +
//!   NT lines + the flush) and on every level's hits and misses;
//! * with SpecI2M on, bit for bit, the oracle weighing its own store lines
//!   through `SpecI2MParams`' public response functions — the only way a
//!   store line's streak or stream count can show.
//!
//! # The hierarchy, as this model defines it
//!
//! * **Geometry.**  Each level has the preset's capacity and nominal ways,
//!   64-byte lines, the largest power-of-two set count that leaves at least
//!   the nominal ways, the ways widened to keep the capacity (the rule
//!   `SetAssocCache::new`'s documentation states).  The L3 share of a core
//!   is the L3 capacity divided by the sharer count, and at least 64
//!   lines.
//! * **Lookups.**  A demand access looks up L1, then L2, then the L3 share,
//!   and stops at the first hit.  Every level it looks up counts a hit or
//!   a miss there, and a hit refreshes the line's LRU stamp; a store marks
//!   the copy it hits dirty.
//! * **Inclusion.**  None is enforced (non-inclusive, non-exclusive).  A
//!   hit in a lower level copies the line clean into every level above it,
//!   L2 before L1; a memory read fills all three, L3 first.  An eviction
//!   never invalidates a copy in another level.
//! * **Dirty victims.**  A clean victim is dropped.  A dirty victim of L1 is
//!   written into L2 and a dirty victim of L2 into the L3 share: a lookup
//!   there, counted as a hit or a miss, that marks a resident copy dirty or
//!   inserts the line dirty.  A dirty victim of the L3 share is a write-back
//!   to memory.
//! * **Load miss.**  A demand read from memory.  With the prefetcher on,
//!   the adjacent line `line ^ 1` is then prefetched into the last level
//!   only: if the L3 share does not hold it, it is read from memory and
//!   inserted clean; if it does, nothing happens (no LRU refresh).  The
//!   prefetch counts no hit or miss anywhere.  Store misses prefetch
//!   nothing.
//! * **Store streams.**  Regular and non-temporal stores each have a table
//!   of at most 8 open streams (`MAX_STREAMS` in `coalescer.rs`), each
//!   assembling one line.  A store to a line a stream is on merges into it.
//!   Else a stream on a line at most 4 lines behind (`GAP_TOLERANCE`)
//!   advances to the store's line, handing on the line it leaves — the
//!   earliest opened such stream, if several qualify.  Else a new stream
//!   opens; with 8 open, the least recently stored-to one is closed first.
//!   A line handed on is *full* if its stores covered all 64 bytes.  A
//!   stream's run counts its full lines one after another: a partial line
//!   ends the run, and a run of at least one line becomes its last run.
//!   The streak of a handed-on line is the longer of the run (this line
//!   included, when full) and the last run; its stream count is the number
//!   of open streams (for a closed stream: before it closed).
//! * **Regular store line.**  Under the non-temporal policy it is an NT
//!   line.  Else a lookup (as above, as a store); on a miss the
//!   no-allocate policy writes the line through to memory and fills
//!   nothing, and the allocate policy reads it for ownership (a
//!   write-allocate) and fills all three levels, the L3 copy dirty and the
//!   upper ones clean.
//! * **NT line.**  Every level's copy is invalidated — its dirty data is
//!   superseded, not written back — and the line is written to memory; a
//!   partial line also reads it (read-modify-write).  No hit or miss
//!   counts.
//! * **Final flush.**  The regular streams close in the order they were
//!   opened, then the NT ones; then every line dirty in any level is
//!   written back once.

mod naive_cache;

use std::collections::BTreeSet;
use std::ops::Range;

use cloverleaf_wa::cachesim::hierarchy::{CoreSimOptions, DomainOccupancy, OccupancyContext};
use cloverleaf_wa::cachesim::patterns::StencilRowSweep;
use cloverleaf_wa::cachesim::{
    AccessKind, AccessRun, CoreSim, KernelSpec, MemCounters, NodeSim, PrefetcherConfig, RankBase,
    SimConfig, SimMemo, SpecOperand,
};
use cloverleaf_wa::machine::{Machine, MachinePreset, WritePolicyKind};

use naive_cache::NaiveCache;

const LINE: u64 = 64;
/// Open streams per store table.
const STORE_STREAMS: usize = 8;
/// Lines a store may lie ahead of a stream and still continue it.
const STREAM_GAP: u64 = 4;

/// A line a store table hands on.
#[derive(Debug, Clone, Copy)]
struct StoreLine {
    line: u64,
    full: bool,
    streak: u64,
    streams: usize,
}

struct Stream {
    line: u64,
    written: [bool; LINE as usize],
    run: u64,
    last_run: u64,
    opened: u64,
    used: u64,
}

impl Stream {
    fn full(&self) -> bool {
        self.written.iter().all(|&b| b)
    }

    fn cover(&mut self, bytes: Range<u64>) {
        for b in bytes {
            self.written[b as usize] = true;
        }
    }

    fn close(&self, streams: usize) -> StoreLine {
        let full = self.full();
        StoreLine {
            line: self.line,
            full,
            streak: (self.run + u64::from(full)).max(self.last_run),
            streams,
        }
    }
}

#[derive(Default)]
struct StreamTable {
    open: Vec<Stream>,
    clock: u64,
}

impl StreamTable {
    /// Stores to `bytes` of `line`; the line handed on, if any.
    fn store(&mut self, line: u64, bytes: Range<u64>) -> Option<StoreLine> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(s) = self.open.iter_mut().find(|s| s.line == line) {
            s.cover(bytes);
            s.used = clock;
            return None;
        }
        let streams = self.open.len();
        let behind = self
            .open
            .iter_mut()
            .filter(|s| s.line < line && line - s.line <= STREAM_GAP)
            .min_by_key(|s| s.opened);
        if let Some(s) = behind {
            let full = s.full();
            if full {
                s.run += 1;
            } else {
                if s.run > 0 {
                    s.last_run = s.run;
                }
                s.run = 0;
            }
            let left = StoreLine {
                line: s.line,
                full,
                streak: s.run.max(s.last_run),
                streams,
            };
            s.line = line;
            s.written = [false; LINE as usize];
            s.cover(bytes);
            s.used = clock;
            return Some(left);
        }
        let closed = (streams == STORE_STREAMS).then(|| {
            let lru = (0..streams)
                .min_by_key(|&i| self.open[i].used)
                .expect("a full table");
            self.open.remove(lru).close(streams)
        });
        let mut s = Stream {
            line,
            written: [false; LINE as usize],
            run: 0,
            last_run: 0,
            opened: clock,
            used: clock,
        };
        s.cover(bytes);
        self.open.push(s);
        closed
    }

    /// Close every open stream, in the order they were opened.
    fn close_all(&mut self) -> Vec<StoreLine> {
        let streams = self.open.len();
        self.open.sort_by_key(|s| s.opened);
        self.open.drain(..).map(|s| s.close(streams)).collect()
    }
}

/// One memory transaction, in the order the hierarchy issues them.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    DemandRead,
    Prefetch,
    Writeback,
    /// A store line read for ownership (a write-allocate).
    Allocate(StoreLine),
    NonTemporal {
        full: bool,
    },
    /// The final flush's write-backs.
    Flush(u64),
}

struct Hierarchy {
    l1: NaiveCache,
    l2: NaiveCache,
    l3: NaiveCache,
    stores: StreamTable,
    nt_stores: StreamTable,
    policy: WritePolicyKind,
    prefetch: bool,
    traffic: Vec<Traffic>,
    /// The line the last load miss prefetched, if any.
    prefetched: Option<u64>,
    /// Loads that missed a line the load miss before them prefetched.
    lost_buddies: u64,
}

impl Hierarchy {
    fn new(machine: &Machine, l3_sharers: usize, policy: WritePolicyKind, prefetch: bool) -> Self {
        let c = &machine.caches;
        Self {
            l1: NaiveCache::new(c.l1.capacity_bytes, c.l1.associativity),
            l2: NaiveCache::new(c.l2.capacity_bytes, c.l2.associativity),
            l3: NaiveCache::new(
                (c.l3.capacity_bytes / l3_sharers).max(64 * LINE as usize),
                c.l3.associativity,
            ),
            stores: StreamTable::default(),
            nt_stores: StreamTable::default(),
            policy,
            prefetch,
            traffic: Vec::new(),
            prefetched: None,
            lost_buddies: 0,
        }
    }

    fn stats(&self) -> [(u64, u64); 3] {
        [&self.l1, &self.l2, &self.l3].map(|c| (c.hits, c.misses))
    }

    /// One 8-byte element at `addr`.
    fn element(&mut self, addr: u64, kind: AccessKind) {
        let end = addr + 8;
        for line in addr / LINE..=(end - 1) / LINE {
            let bytes =
                addr.max(line * LINE) - line * LINE..end.min((line + 1) * LINE) - line * LINE;
            match kind {
                AccessKind::Load => self.load(line),
                AccessKind::Store => {
                    if let Some(done) = self.stores.store(line, bytes) {
                        self.store_line(done);
                    }
                }
                AccessKind::StoreNT => {
                    if let Some(done) = self.nt_stores.store(line, bytes) {
                        self.nt_line(done);
                    }
                }
            }
        }
    }

    /// A demand lookup; on a hit the line is copied into the levels above.
    fn lookup(&mut self, line: u64, write: bool) -> bool {
        if self.l1.touch(line, write) {
            true
        } else if self.l2.touch(line, write) {
            self.copy_up(line, false);
            true
        } else if self.l3.touch(line, write) {
            self.copy_up(line, true);
            true
        } else {
            false
        }
    }

    /// Clean copies into L2 (if `into_l2`) and L1, their dirty victims
    /// written one level down.
    fn copy_up(&mut self, line: u64, into_l2: bool) {
        if into_l2 {
            if let Some((victim, true)) = self.l2.fill(line, false) {
                self.write_into_l3(victim);
            }
        }
        if let Some((victim, true)) = self.l1.fill(line, false) {
            if let (_, Some((victim, true))) = self.l2.probe_fill(victim, true) {
                self.write_into_l3(victim);
            }
        }
    }

    fn write_into_l3(&mut self, line: u64) {
        if let (_, Some((_, true))) = self.l3.probe_fill(line, true) {
            self.traffic.push(Traffic::Writeback);
        }
    }

    /// A line read from memory into all three levels.
    fn fill_from_memory(&mut self, line: u64, dirty: bool) {
        if let Some((_, true)) = self.l3.fill(line, dirty) {
            self.traffic.push(Traffic::Writeback);
        }
        self.copy_up(line, true);
    }

    fn load(&mut self, line: u64) {
        if self.lookup(line, false) {
            return;
        }
        self.traffic.push(Traffic::DemandRead);
        self.lost_buddies += u64::from(self.prefetched == Some(line));
        self.fill_from_memory(line, false);
        let buddy = line ^ 1;
        self.prefetched = self.prefetch.then_some(buddy);
        if self.prefetch && !self.l3.contains(buddy) {
            self.traffic.push(Traffic::Prefetch);
            if let Some((_, true)) = self.l3.fill(buddy, false) {
                self.traffic.push(Traffic::Writeback);
            }
        }
    }

    fn store_line(&mut self, done: StoreLine) {
        if self.policy == WritePolicyKind::NonTemporal {
            return self.nt_line(done);
        }
        if self.lookup(done.line, true) {
            return;
        }
        if self.policy == WritePolicyKind::NoAllocate {
            return self.traffic.push(Traffic::Writeback);
        }
        self.traffic.push(Traffic::Allocate(done));
        self.fill_from_memory(done.line, true);
    }

    fn nt_line(&mut self, done: StoreLine) {
        for level in [&mut self.l1, &mut self.l2, &mut self.l3] {
            level.invalidate(done.line);
        }
        self.traffic.push(Traffic::NonTemporal { full: done.full });
    }

    fn flush(&mut self) {
        for done in self.stores.close_all() {
            self.store_line(done);
        }
        for done in self.nt_stores.close_all() {
            self.nt_line(done);
        }
        let dirty: BTreeSet<u64> = [&mut self.l1, &mut self.l2, &mut self.l3]
            .into_iter()
            .flat_map(|level| level.flush_dirty())
            .collect();
        self.traffic.push(Traffic::Flush(dirty.len() as u64));
    }

    /// The counters with SpecI2M off and no NT partial flushes: counts.
    fn counts(&self) -> MemCounters {
        let mut n = [0u64; 6];
        let [read, write, _itom, allocate, prefetch, _speculative] = &mut n;
        for &t in &self.traffic {
            match t {
                Traffic::DemandRead => *read += 1,
                Traffic::Prefetch => {
                    *read += 1;
                    *prefetch += 1;
                }
                Traffic::Writeback => *write += 1,
                Traffic::Allocate(_) => {
                    *read += 1;
                    *allocate += 1;
                }
                Traffic::NonTemporal { full } => {
                    *write += 1;
                    *read += u64::from(!full);
                }
                Traffic::Flush(lines) => *write += lines,
            }
        }
        let [read_lines, write_lines, itom_lines, write_allocate_lines, prefetch_lines, speculative_read_lines] =
            n.map(|c| c as f64);
        MemCounters {
            read_lines,
            write_lines,
            itom_lines,
            write_allocate_lines,
            prefetch_lines,
            speculative_read_lines,
        }
    }

    /// The counters SpecI2M weighs the traffic to under `ctx` and
    /// `options`, through the machine's public response functions: a store
    /// line's evaded fraction is claimed without a read (full lines only,
    /// scaled by the prefetch-off factor), its speculative-read fraction is
    /// read on top, and a full NT line reads the partial-flush fraction.
    /// Each counter adds its terms in the order the traffic happened.
    fn weighed(
        &self,
        machine: &Machine,
        ctx: OccupancyContext,
        options: CoreSimOptions,
    ) -> MemCounters {
        let mut p = machine.speci2m.clone();
        p.enabled &= options.speci2m_enabled;
        let (u, active, total) = (
            ctx.domain_utilization,
            ctx.active_domains,
            ctx.total_domains,
        );
        let mut c = MemCounters::new();
        for &t in &self.traffic {
            match t {
                Traffic::DemandRead => c.read_lines += 1.0,
                Traffic::Prefetch => {
                    c.read_lines += 1.0;
                    c.prefetch_lines += 1.0;
                }
                Traffic::Writeback => c.write_lines += 1.0,
                Traffic::Allocate(line) => {
                    let response = p.response(u, active, total, line.streak.max(1) as f64);
                    let evaded = if line.full {
                        let evaded = p.evasion_at(&response, line.streams);
                        (evaded * options.prefetchers.evasion_factor()).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let speculative = p.speculative_reads_at(&response);
                    c.itom_lines += evaded;
                    c.write_allocate_lines += 1.0 - evaded;
                    c.read_lines += 1.0 - evaded;
                    c.read_lines += speculative;
                    c.speculative_read_lines += speculative;
                }
                Traffic::NonTemporal { full } => {
                    c.write_lines += 1.0;
                    c.read_lines += if full {
                        p.nt_partial_flush_fraction(u, active, total)
                    } else {
                        1.0
                    };
                }
                Traffic::Flush(lines) => c.write_lines += lines as f64,
            }
        }
        c
    }
}

/// Every counter's bits.
fn bits(c: &MemCounters) -> [u64; 6] {
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

/// Each access of `sweep` in its loop order (rows, inner index, operands,
/// stencil points).
fn sweep_elements(sweep: &StencilRowSweep) -> impl Iterator<Item = (u64, AccessKind)> + '_ {
    let stride = sweep.row_stride as i64;
    (sweep.k0..sweep.k0 + sweep.rows).flat_map(move |k| {
        (sweep.i0..sweep.i0 + sweep.inner).flat_map(move |i| {
            sweep.operands.iter().flat_map(move |op| {
                op.offsets.iter().map(move |&(di, dk)| {
                    let idx = (k as i64 + dk) * stride + i as i64 + di;
                    (op.base + 8 * idx as u64, op.kind)
                })
            })
        })
    })
}

/// A seeded random draw below `n`.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// One test case: a machine × policy × prefetcher combination and a
/// kernel, drawn or hand-made.
struct Case {
    /// What the kernel is, for failure messages.
    name: &'static str,
    preset: MachinePreset,
    policy: WritePolicyKind,
    prefetch: bool,
    kernel: KernelSpec,
    draw: Draw,
    /// The preset's L1 and L2 narrowed to this many ways of their sets,
    /// if any.
    ways: [Option<usize>; 2],
    /// The preset's L3 narrowed to 64 lines, the least share a core has
    /// at any sharer count, of this many ways, if any.
    l3_ways: Option<usize>,
}

impl Case {
    /// The combination `index` names and a kernel of a few thousand lines
    /// drawn from `seed`.
    fn new(index: usize, seed: u64) -> Self {
        let presets = MachinePreset::all();
        let preset = presets[index % presets.len()];
        let policy = WritePolicyKind::all()[index / presets.len() % 3];
        let prefetch = index / (3 * presets.len()) % 2 == 0;
        let mut draw = Draw(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // 1–3 load and 1–3 store operands of 1–3 stencil points, 4 MiB
        // apart (a multiple of every level's set span, so equal offsets
        // collide in one set) plus a skew: none, an element, a line, a page
        // and then some, a random 8-byte-aligned one, or a misaligned one.
        // One case in four crowds the L1 instead: skews below a line, rows
        // a multiple of a page apart and the points a column of 3–5 rows,
        // so that every point of every operand falls into one L1 set or
        // its neighbour — often more lines than it has ways within one
        // iteration of the loop — and the operands' streams cross lines in
        // different iterations, so that one crossing reorders a set the
        // others are still reading.
        let crowded = draw.below(4) == 0;
        let loads = 1 + draw.below(3);
        let stores = 1 + draw.below(3);
        let skews = [
            0,
            8,
            64,
            4096 + 24,
            8 * draw.below(4096),
            4 + 8 * draw.below(64),
        ];
        let mut offsets: Vec<u64> = (0..loads + stores)
            .map(|j| {
                (j << 22)
                    + if crowded {
                        8 * draw.below(8)
                    } else {
                        draw.pick(&skews)
                    }
            })
            .collect();
        // A store operand may update a load operand's array in place, 0–3
        // elements ahead, so that stores, NT ones included, meet lines the
        // loads brought in — and an NT line can leave the L1 in the middle
        // of a load stream's line.
        for j in loads..loads + stores {
            if draw.below(3) == 0 {
                offsets[j as usize] = offsets[draw.below(loads) as usize] + 8 * draw.below(4);
            }
        }
        let operands: Vec<SpecOperand> = (0..loads + stores)
            .map(|j| SpecOperand {
                offset: offsets[j as usize],
                points: match crowded {
                    true => (0..3 + draw.below(3))
                        .map(|dk| (0, dk as i64 - 1))
                        .collect(),
                    false => (0..1 + draw.below(3))
                        .map(|_| (draw.below(3) as i64 - 1, draw.below(3) as i64 - 1))
                        .collect(),
                },
                kind: if j < loads {
                    AccessKind::Load
                } else {
                    draw.pick(&[AccessKind::Store, AccessKind::StoreNT])
                },
            })
            .collect();
        let points: u64 = operands.iter().map(|op| op.points.len() as u64).sum();
        let inner = 8 + draw.below(400);
        // A few thousand lines of accesses in all.
        let rows = (1 + draw.below(3000) * 8 / (inner * points)).min(40);
        // Halos of 0–19 elements, or rows a multiple of a page apart, or
        // every row over the same elements.
        let row_stride = match draw.below(8) {
            _ if crowded => inner.next_multiple_of(512),
            0 => 0,
            1 => inner.next_multiple_of(512),
            _ => inner + draw.below(20),
        };
        let kernel = KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus: 1 },
            operands,
            row_stride,
            i0: 1,
            inner,
            k0: 1,
            rows,
        };
        Self {
            name: "drawn",
            preset,
            policy,
            prefetch,
            kernel,
            draw,
            ways: [None; 2],
            l3_ways: None,
        }
    }

    /// The case with its stores replaced by one array stored twice per
    /// iteration, `4 + 8m` bytes apart (`m < 4`): the first store
    /// misaligned so that the first row's last element straddles two
    /// lines, rows `m + 1` elements of halo apart.  The next row then
    /// stores the second of those lines from byte 8 on, so whether it is
    /// full turns on the 4 bytes the straddling element put at its start:
    /// a line that collects stores of two alignments, which no other case
    /// builds.
    fn overlaid(mut self) -> Self {
        self.name = "overlaid";
        let k = &mut self.kernel;
        let m = self.draw.below(4);
        let kind = self.draw.pick(&[AccessKind::Store, AccessKind::StoreNT]);
        k.operands.retain(|op| op.kind == AccessKind::Load);
        k.row_stride = k.inner + m + 1;
        k.rows = k.rows.max(2);
        let last = 8 * (k.k0 * k.row_stride + k.i0 + k.inner - 1);
        let first = ((k.operands.len() as u64) << 22) + (60 + 64 - last % 64) % 64;
        for offset in [first, first - 4 - 8 * m] {
            k.operands.push(SpecOperand {
                offset,
                points: vec![(0, 0)],
                kind,
            });
        }
        self
    }

    /// A hand-made `kernel` on the ICX under write-allocate with the
    /// prefetcher on — the paper's configuration — its occupancies drawn
    /// from `index`.
    fn fixed(index: usize, (name, kernel): (&'static str, KernelSpec)) -> Self {
        Self {
            name,
            preset: MachinePreset::IceLakeSp8360y,
            policy: WritePolicyKind::Allocate,
            prefetch: true,
            kernel,
            draw: Draw(index as u64),
            ways: [None; 2],
            l3_ways: None,
        }
    }

    /// A fixed case on an ICX whose L1 has 4 ways, fewer than the
    /// coalescer's 8 streams (every preset's L1 has at least 8): one load
    /// and four stores 40 bytes into their lines, each store retiring a
    /// line into the set of the line the load is on, so that the load's
    /// line leaves the L1 between two loads of it.  It is the one case
    /// where `KernelSpec::never_hits_private`'s operand bound is the L1's
    /// ways and not the streams.
    fn narrow_l1(index: usize) -> Self {
        let operands: Vec<FixedOperand> = (1..=4)
            .map(|k| ((k << 22) + 40, &[(0, 0)][..], AccessKind::Store))
            .chain([(0, &[(0, 0)][..], AccessKind::Load)])
            .collect();
        let kernel = fixed_sweep(&operands, 64, 0, 64, 1);
        Self {
            ways: [Some(4), None],
            ..Self::fixed(index, ("one load and four stores, a 4-way L1", kernel))
        }
    }

    /// A fixed case on an ICX whose L2 has 4 ways (1 024 sets): a store
    /// window of `per_set` lines per L2 set, swept twice (`row_stride ==
    /// 0`).  At 6 per set `KernelSpec::never_hits_private` proves it: the
    /// first sweep moves the store frontier past the window, every line of
    /// the second lies below it and must be looked up, and it is still in
    /// the last level wherever the share holds the window.  At 5 per set it
    /// is refused: the first sweep leaves its stream open on the window's
    /// last line, so only 3 other lines of that line's L2 set are retired
    /// before the second sweep retires line 1 023 of the window again, and
    /// it hits the L2.
    fn store_window_swept_twice(index: usize, (name, per_set): (&'static str, u64)) -> Self {
        let kernel = fixed_sweep(
            &[(1 << 30, &[(0, 0)], AccessKind::Store)],
            0,
            0,
            8 * 1024 * per_set,
            2,
        );
        Self {
            ways: [None, Some(4)],
            ..Self::fixed(index, (name, kernel))
        }
    }

    /// The case, asserted to be one that `KernelSpec::never_hits_private`
    /// proves: a case built to reach a corner of the path that skips the
    /// private levels must take it.
    fn proved(self) -> Self {
        let machine = self.machine(true);
        assert!(
            self.kernel.never_hits_private(&machine, 0),
            "{} is refused",
            self.name
        );
        self
    }

    /// A fixed case on an ICX whose L3 is 64 lines of 8 ways (8 sets),
    /// asserted to be one that `KernelSpec::counts_last_level` proves
    /// (`counted`) or refuses.
    fn narrow_l3(index: usize, (name, kernel, counted): (&'static str, KernelSpec, bool)) -> Self {
        Self {
            l3_ways: Some(8),
            ..Self::fixed(index, (name, kernel))
        }
        .counted(counted)
    }

    /// The case, asserted to be one that `KernelSpec::counts_last_level`
    /// proves (`counted`) or refuses at every sharer count, on a core of
    /// its own: a case built to reach a corner of the path that counts its
    /// last level must take it, or stay off it.
    fn counted(self, counted: bool) -> Self {
        let machine = self.machine(true);
        for l3_sharers in 1..=machine.caches.l3_sharers {
            let options = self.options(l3_sharers, true);
            assert_eq!(
                self.kernel.counts_last_level(&machine, &options, 0),
                counted,
                "{} at {l3_sharers} sharers",
                self.name
            );
        }
        self
    }

    /// The preset as simulated: SpecI2M on, or off with no NT partial
    /// flushes (so that every counter is a count).  The second machine
    /// gets an id of its own: the simulator pools cores by machine id.
    fn machine(&self, speci2m: bool) -> Machine {
        let mut m = self.preset.machine();
        let caches = &mut m.caches;
        for (level, (spec, ways)) in [&mut caches.l1, &mut caches.l2]
            .into_iter()
            .zip(self.ways)
            .enumerate()
        {
            if let Some(ways) = ways {
                spec.capacity_bytes = spec.sets() * ways * spec.line_bytes;
                spec.associativity = ways;
                m.id.push_str(&format!("-l{}-{ways}-way", level + 1));
            }
        }
        if let Some(ways) = self.l3_ways {
            caches.l3.capacity_bytes = 64 * LINE as usize;
            caches.l3.associativity = ways;
            m.id.push_str(&format!("-l3-64-lines-{ways}-way"));
        }
        if !speci2m {
            m.speci2m.nt_partial_flush_max = 0.0;
            m.id.push_str("-without-nt-flushes");
        }
        m
    }

    fn config(&self, machine: Machine, ranks: usize, speci2m: bool) -> SimConfig {
        let config = SimConfig::new(machine, ranks).with_write_policy(self.policy);
        let config = if speci2m {
            config
        } else {
            config.without_speci2m()
        };
        if self.prefetch {
            config
        } else {
            config.without_prefetchers()
        }
    }

    fn options(&self, l3_sharers: usize, speci2m: bool) -> CoreSimOptions {
        CoreSimOptions {
            speci2m_enabled: speci2m,
            prefetchers: if self.prefetch {
                PrefetcherConfig::enabled()
            } else {
                PrefetcherConfig::disabled()
            },
            l3_sharers,
            write_policy: self.policy,
        }
    }

    fn oracle(&self, machine: &Machine, l3_sharers: usize) -> Hierarchy {
        Hierarchy::new(machine, l3_sharers, self.policy, self.prefetch)
    }

    /// The oracle fed the kernel's sweep, flushed.
    fn swept_oracle(&self, machine: &Machine, l3_sharers: usize) -> Hierarchy {
        let mut oracle = self.oracle(machine, l3_sharers);
        for (addr, kind) in sweep_elements(&self.kernel.sweep(0)) {
            oracle.element(addr, kind);
        }
        oracle.flush();
        oracle
    }

    /// `counters` are what the flushed `oracle` counts (SpecI2M off) or
    /// weighs (on) under `ctx` and `options`, to the bit.
    fn assert_counters(
        &self,
        counters: &MemCounters,
        oracle: &Hierarchy,
        (machine, ctx, options): (&Machine, OccupancyContext, CoreSimOptions),
        what: &str,
    ) {
        let expected = if options.speci2m_enabled {
            oracle.weighed(machine, ctx, options)
        } else {
            oracle.counts()
        };
        let at = format!(
            "{:?} {:?} pf={} ({})",
            self.preset, self.policy, self.prefetch, self.name
        );
        assert_eq!(
            bits(counters),
            bits(&expected),
            "{what} {at} s2m={}\n{counters:?}\n{expected:?}",
            options.speci2m_enabled
        );
    }

    /// Every driver against the oracle, with SpecI2M off (counts) or on
    /// (weighed).
    fn check(&mut self, speci2m: bool) {
        self.check_core_drivers(speci2m);
        self.check_node_drivers(speci2m);
    }

    /// `CoreSim::drive_run` over the kernel's rows as runs, one per stencil
    /// point of each operand, and `StencilRowSweep::drive` over its sweep,
    /// at a random occupancy and L3 share — per-level hits and misses
    /// before and after the flush too.
    fn check_core_drivers(&mut self, speci2m: bool) {
        let machine = self.machine(speci2m);
        let max = machine.caches.l3_sharers;
        let l3_sharers = self.draw.pick(&[1, 2, (max / 2).max(1), max, max]);
        let ranks = 1 + self.draw.below(machine.total_cores() as u64) as usize;
        let ctx = OccupancyContext::compact(&machine, ranks);
        let options = self.options(l3_sharers, speci2m);
        let sweep = self.kernel.sweep(0);
        let runs: Vec<AccessRun> = (sweep.k0..sweep.k0 + sweep.rows)
            .flat_map(|k| {
                let row_start = StencilRowSweep {
                    k0: k,
                    rows: 1,
                    inner: 1,
                    ..sweep.clone()
                };
                sweep_elements(&row_start)
                    .map(|(base, kind)| AccessRun {
                        base,
                        elements: sweep.inner,
                        kind,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for what in ["drive_run", "drive"] {
            let mut core = CoreSim::new(&machine, ctx, options);
            let mut oracle = self.oracle(&machine, l3_sharers);
            if what == "drive_run" {
                for &run in &runs {
                    core.drive_run(run);
                    for e in 0..run.elements {
                        oracle.element(run.base + 8 * e, run.kind);
                    }
                }
            } else {
                sweep.drive(&mut core);
                for (addr, kind) in sweep_elements(&sweep) {
                    oracle.element(addr, kind);
                }
            }
            let at = format!("{what} at {l3_sharers} sharers ({})", self.name);
            assert_eq!(core.cache_stats(), oracle.stats(), "{at}");
            let counters = core.flush();
            oracle.flush();
            assert_eq!(core.cache_stats(), oracle.stats(), "{at}, flushed");
            self.assert_counters(&counters, &oracle, (&machine, ctx, options), &at);
        }
    }

    /// The cursor advanced in random turns (a one-tenant co-run) and the
    /// representative core of `run_spmd_memo`, each against the oracle at
    /// the occupancy the node simulator derives.
    fn check_node_drivers(&mut self, speci2m: bool) {
        let machine = self.machine(speci2m);
        let tenant = std::slice::from_ref(&self.kernel);
        let interleave = self.draw.pick(&[1, 2, 3, 7, 64, 1000, u64::MAX]);
        let sim = NodeSim::new(self.config(machine.clone(), 1, speci2m));
        let corun = sim.run_corun(tenant, interleave, &SimMemo::new());
        let sharers = DomainOccupancy::l3_sharers(&machine, 1);
        let ctx = OccupancyContext::domain_load(&machine, 1, 1);
        let oracle = self.swept_oracle(&machine, sharers);
        let env = (&machine, ctx, self.options(sharers, speci2m));
        let at = format!("cursor in turns of {interleave}");
        let t = &corun.primary;
        self.assert_counters(&t.counters, &oracle, env, &at);
        assert_eq!((t.llc_hits, t.llc_misses), oracle.stats()[2], "{at}");

        // Through a memo that records traces, whose leader keeps its L3
        // share when every share of its class replays the trace, and one
        // that records none, where a kernel the rule proves counts it.
        let ranks = 1 + self.draw.below(machine.total_cores() as u64) as usize;
        let occ = DomainOccupancy::compact(&machine, ranks);
        let count = occ.cores_per_domain[0];
        let sharers = DomainOccupancy::l3_sharers(&machine, count);
        let ctx = OccupancyContext::domain_load(&machine, count, occ.active_domains);
        let oracle = self.swept_oracle(&machine, sharers);
        let env = (&machine, ctx, self.options(sharers, speci2m));
        for (memo, traces) in [
            (SimMemo::new(), "traces"),
            (SimMemo::without_differential(), "none"),
        ] {
            let report = NodeSim::new(self.config(machine.clone(), ranks, speci2m))
                .run_spmd_memo(&self.kernel, &memo);
            let at = format!("run_spmd_memo at {ranks} ranks, recording {traces}");
            self.assert_counters(&report.per_rank, &oracle, env, &at);
        }
    }
}

/// Drawn cases per tier-1 run: every preset × policy × prefetcher
/// combination twice.
const CASES: usize = 60;

/// The fixed kernels (the proof's, the frontiers' and the counted rule's
/// edges last), then `times` × `CASES` drawn cases from `seed`, then half
/// as many overlaid ones (every combination `times` times) from a seed of
/// their own.
fn cases(times: usize, seed: u64) -> impl Iterator<Item = Case> {
    let (fixed, frontier, counted) = (fixed_kernels(), frontier_kernels(), counted_kernels());
    let (n, m) = (fixed.len(), fixed.len() + 1 + frontier.len());
    let counted =
        counted
            .into_iter()
            .enumerate()
            .map(move |(k, (name, kernel, narrow, proved))| {
                let index = m + 2 + k;
                match narrow {
                    true => Case::narrow_l3(index, (name, kernel, proved)),
                    false => Case::fixed(index, (name, kernel)).counted(proved),
                }
            });
    let proved = frontier
        .into_iter()
        .enumerate()
        .map(move |(k, kernel)| Case::fixed(n + 1 + k, kernel))
        .chain([Case::store_window_swept_twice(
            m,
            ("a store window swept twice, 6 lines per L2 set", 6),
        )])
        .map(Case::proved);
    let fixed = fixed
        .into_iter()
        .enumerate()
        .map(|(index, kernel)| Case::fixed(index, kernel))
        .chain([Case::narrow_l1(n)])
        .chain(proved)
        .chain([Case::store_window_swept_twice(
            m + 1,
            ("a store window swept twice, 5 lines per L2 set", 5),
        )])
        .chain(counted);
    let drawn = (0..times * CASES).map(move |index| Case::new(index, seed));
    let overlaid = (0..times * CASES / 2).map(move |index| Case::new(index, !seed).overlaid());
    fixed.chain(drawn).chain(overlaid)
}

/// One operand of a fixed sweep: its base, its stencil points and its
/// access kind.
type FixedOperand<'a> = (u64, &'a [(i64, i64)], AccessKind);

/// A sweep at fixed addresses (`RankBase::Shared`) from row 1.
fn fixed_sweep(
    operands: &[FixedOperand],
    row_stride: u64,
    i0: u64,
    inner: u64,
    rows: u64,
) -> KernelSpec {
    KernelSpec {
        rank_base: RankBase::Shared,
        operands: operands
            .iter()
            .map(|&(offset, points, kind)| SpecOperand {
                offset,
                points: points.to_vec(),
                kind,
            })
            .collect(),
        row_stride,
        i0,
        inner,
        k0: 1,
        rows,
    }
}

/// Hand-made kernels, each built to reach a corner the drawn ones reach
/// rarely or never.
fn fixed_kernels() -> Vec<(&'static str, KernelSpec)> {
    use AccessKind::{Load, Store, StoreNT};
    let copy = |stride, i0, inner, rows| {
        fixed_sweep(
            &[(1 << 30, &[(0, 0)], Load), (1 << 31, &[(0, 0)], Store)],
            stride,
            i0,
            inner,
            rows,
        )
    };
    let mut kernels = vec![
        ("copy, rows 5 elements apart", copy(221, 2, 216, 8)),
        ("copy, short rows", copy(67, 1, 63, 6)),
        (
            "four-point stencil, a shifted second load, a store and an NT store",
            fixed_sweep(
                &[
                    (1 << 30, &[(0, 1), (-1, 0), (1, 0), (0, -1)], Load),
                    ((1 << 31) + 8, &[(0, 0), (1, 0)], Load),
                    (1 << 32, &[(0, 0)], Store),
                    (1 << 33, &[(0, 0)], StoreNT),
                ],
                529,
                2,
                525,
                7,
            ),
        ),
        // Eight load streams and two store streams, staggered by less than
        // a line in one L1 set, rows a page apart: a store line retired
        // into the set after the loads of a segment's first iteration is
        // pushed below them by the rest of the segment, so the bulk loads
        // must touch their lines again.  No drawn tier-1 kernel builds this.
        (
            "ten streams in one L1 set",
            fixed_sweep(
                &[
                    (1 << 22, &[(-1, 0), (0, 0)], Load),
                    (2 << 22, &[(0, 0), (1, -1), (1, -1)], Load),
                    ((3 << 22) + 56, &[(-1, 0), (0, -1), (1, -1)], Load),
                    ((4 << 22) + 56, &[(-1, -1), (-1, 0)], Store),
                ],
                512,
                1,
                10,
                5,
            ),
        ),
        ("copy from a misaligned source", {
            let mut k = copy(128, 0, 128, 3);
            k.operands[0].offset += 4;
            k
        }),
        (
            "a zero-trip inner loop, one operand misaligned",
            fixed_sweep(
                &[
                    (1 << 30, &[(0, 0)], Load),
                    ((1 << 31) + 4, &[(0, 0)], Store),
                    (1 << 32, &[(0, 0)], StoreNT),
                ],
                8,
                0,
                0,
                3,
            ),
        ),
    ];
    // One line loaded, then stored whole three times: the stores hit a
    // resident clean line and must leave it dirty.  (`CoreSim::drive_run`
    // gets it as those four runs, one per stencil point.)
    kernels.push((
        "a line loaded, then stored three times",
        fixed_sweep(
            &[(0, &[(0, 0)], Load), (0, &[(0, 0), (0, 0), (0, 0)], Store)],
            8,
            0,
            8,
            1,
        ),
    ));
    for kind in [Load, Store, StoreNT] {
        let rows =
            |inner, halo, rows| fixed_sweep(&[(24, &[(0, 0)], kind)], inner + halo, 0, inner, rows);
        kernels.push(("one row from element 3", rows(700, 0, 1)));
        kernels.push(("rows 5 elements apart from element 3", rows(216, 5, 12)));
    }
    // Each kernel below breaks one condition of
    // `KernelSpec::never_hits_private` and meets the others, so that it
    // takes the full hierarchy.  Were that condition dropped, its private
    // levels would hit (or a repeat of the line loaded last would miss) on
    // the path that skips them, which the debug build's check asserts in
    // `run_spmd_memo` and in the one-tenant co-run.  The operand bound on
    // the L1's ways is `Case::narrow_l1`.
    kernels.extend([
        (
            "a load of two points a row apart",
            fixed_sweep(&[(1 << 30, &[(0, 0), (0, 1)], Load)], 264, 0, 256, 4),
        ),
        (
            "two loads",
            fixed_sweep(
                &[(1 << 30, &[(0, 0)], Load), (1 << 31, &[(0, 0)], Load)],
                256,
                0,
                256,
                1,
            ),
        ),
        ("nine stores, one more than the coalescer's streams", {
            let stores: Vec<FixedOperand> = (0..9)
                .map(|k| ((k + 1) << 22, &[(0, 0)][..], Store))
                .collect();
            fixed_sweep(&stores, 64, 0, 64, 2)
        }),
        (
            "an array loaded and stored in place",
            fixed_sweep(
                &[(1 << 30, &[(0, 0)], Load), (1 << 30, &[(0, 0)], Store)],
                256,
                0,
                256,
                2,
            ),
        ),
        (
            "two one-line stores, three lines between them",
            fixed_sweep(
                &[
                    (1 << 30, &[(0, 0)], Store),
                    ((1 << 30) + 4 * LINE, &[(0, 0)], Store),
                ],
                8,
                0,
                8,
                1,
            ),
        ),
        (
            "a load whose rows overlap by half",
            fixed_sweep(&[(1 << 30, &[(0, 0)], Load)], 128, 0, 256, 4),
        ),
        (
            "a load that sweeps eight lines four times",
            fixed_sweep(&[(1 << 30, &[(0, 0)], Load)], 0, 0, 64, 4),
        ),
    ]);
    kernels
}

/// Hand-made kernels that `KernelSpec::never_hits_private` proves, at the
/// edges of the load and store frontiers of the core that skips its private
/// levels (a solo simulation through the memo, a one-tenant co-run): a line
/// from a frontier up is taken for absent from the last level without a
/// look, which a debug build asserts.  The store window swept twice is
/// `Case::store_window_swept_twice`.
fn frontier_kernels() -> Vec<(&'static str, KernelSpec)> {
    use AccessKind::{Load, Store};
    vec![
        // Rows 5 elements apart and operands skewed within their lines, so
        // that row ends retire partial lines.  Each segment retires a line
        // of the middle window, then of the highest, then of the lowest:
        // only the highest window's lines lie above every store line
        // before them.
        (
            "a load and three store streams whose lines interleave",
            fixed_sweep(
                &[
                    (1 << 30, &[(0, 0)], Load),
                    ((2 << 31) + 8, &[(0, 0)], Store),
                    ((3 << 31) + 24, &[(0, 0)], Store),
                    (1 << 31, &[(0, 0)], Store),
                ],
                221,
                2,
                216,
                6,
            ),
        ),
        // Rows of 8 lines, 4 rows: the load window is lines 9..=40 past
        // its array's base and the store window lines 45..=76, the closest
        // `one_stream_per_window` admits.  The last load line is even, so
        // its buddy prefetch is line 41, four lines below the first store
        // line.
        (
            "a load window exactly 5 lines below a store window",
            fixed_sweep(
                &[
                    ((1 << 30) + LINE, &[(0, 0)], Load),
                    ((1 << 30) + 37 * LINE, &[(0, 0)], Store),
                ],
                64,
                0,
                64,
                4,
            ),
        ),
    ]
}

/// Hand-made kernels at the edges of `KernelSpec::counts_last_level`,
/// whose solo simulation through a memo that records no trace counts its
/// L3 share instead of simulating it: a load is a miss but for the repeat and for a buddy
/// that the miss before it prefetched, a store line is a miss, and each
/// dirty fill is written back at the flush.  Each comes with whether it
/// runs on an ICX whose L3 is narrowed to 64 lines of 8 ways
/// (`Case::narrow_l3`) and whether the rule proves it.
fn counted_kernels() -> Vec<(&'static str, KernelSpec, bool, bool)> {
    use AccessKind::{Load, Store};
    let copy = |offset: u64, stride, inner| {
        fixed_sweep(
            &[
                ((1 << 30) + offset, &[(0, 0)], Load),
                ((1 << 31) + offset, &[(0, 0)], Store),
            ],
            stride,
            0,
            inner,
            6,
        )
    };
    // One load and `stores` stores, on the 8-set L3: rows of 16 elements,
    // 9 lines apart, the load from line 1 of its array, so that the third
    // row's first line, 28, is even and its buddy 29 is loaded 8 elements
    // later.  Store `j` is the load shifted by `1 + 32 j` lines and 32
    // bytes: each row opens a stream per store, more than 4 lines past its
    // last one, so that the third row's first stores displace the first
    // row's streams, each retiring the first row's last line (`13 + 32
    // j`), and 4 elements later advance, retiring the third row's first
    // line (`29 + 32 j`): two lines per store, all in the buddy's set,
    // after its prefetch and before its load.  Four stores push it out of
    // its 8 ways.
    let stores_beside_a_load = |stores: u64| {
        let operands: Vec<FixedOperand> = [((1 << 30) + LINE, &[(0, 0)][..], Load)]
            .into_iter()
            .chain(
                (1..=stores).map(|j| ((1 << 30) + (2 + 32 * j) * LINE + 32, &[(0, 0)][..], Store)),
            )
            .collect();
        fixed_sweep(&operands, 72, 0, 16, 3)
    };
    vec![
        // Rows of 3 lines, 4 lines apart: each row's last load line is
        // even, and its buddy lies in the halo gap, never loaded.
        (
            "a copy whose rows end on an even line",
            copy(0, 32, 24),
            false,
            true,
        ),
        // Rows of 12 elements, 16 apart, from byte 64 of a row pair: each
        // row ends 32 bytes into an even line, and the next row begins 32
        // bytes into its buddy, which the counted core takes for a hit.
        (
            "a copy whose buddy is the next row's first line",
            copy(64, 16, 12),
            false,
            true,
        ),
        // 512 dirty lines through 64: the simulated level writes most of
        // them back at their evictions, the counted core all at the flush.
        (
            "one store stream of eight times a narrowed share",
            fixed_sweep(&[(1 << 30, &[(0, 0)], Store)], 4096, 0, 4096, 1),
            true,
            true,
        ),
        (
            "three stores beside a load, the most the buddy bound admits",
            stores_beside_a_load(3),
            true,
            true,
        ),
        (
            "four stores beside a load, whose buddy leaves an 8-way set",
            stores_beside_a_load(4),
            true,
            false,
        ),
    ]
}

impl Case {
    /// The combination `index` names (as for [`Case::new`]) and a kernel
    /// drawn from `seed` that `KernelSpec::counts_last_level` proves, of
    /// rows long enough for a counted core to repeat their steady period:
    /// no load or one, beside 1–3 stores, each a `Store` or a `StoreNT`,
    /// all in lines of their own phases; `inner` of 8–2 007 elements, a
    /// halo of 0–19 (every residue mod 8) and 1–8 rows.
    fn long_rows(index: usize, seed: u64) -> Self {
        let mut case = Case::new(index, seed);
        let draw = &mut case.draw;
        let loads = draw.below(2);
        let stores = 1 + draw.below(3);
        let operands = (0..loads + stores)
            .map(|j| SpecOperand {
                offset: (j << 22) + 64 * draw.below(4) + 8 * draw.below(8),
                points: vec![(0, 0)],
                kind: match j < loads {
                    true => AccessKind::Load,
                    false => draw.pick(&[AccessKind::Store, AccessKind::StoreNT]),
                },
            })
            .collect();
        let inner = 8 + draw.below(2000);
        case.kernel = KernelSpec {
            operands,
            row_stride: inner + draw.below(20),
            inner,
            rows: 1 + draw.below(8),
            ..case.kernel
        };
        case.name = "long rows";
        case
    }

    /// The combination `index` names (as for [`Case::new`]) and one row
    /// drawn from `seed` that `KernelSpec::counts_last_level` proves, long
    /// enough for a store streak to saturate inside it (1 001 lines on
    /// the Ice Lake, 693 on the Sapphire Rapids), so that the counted core
    /// measures the row again there: 1–3 `Store` or `StoreNT` streams, or
    /// a load and a `Store`, in lines of their own phases, of 1 200–4 096
    /// lines.
    fn saturating_row(index: usize, seed: u64) -> Self {
        let mut case = Case::new(index, seed);
        let draw = &mut case.draw;
        let kinds: Vec<AccessKind> = match draw.below(4) {
            0 => vec![AccessKind::Load, AccessKind::Store],
            _ => (0..1 + draw.below(3))
                .map(|_| draw.pick(&[AccessKind::Store, AccessKind::StoreNT]))
                .collect(),
        };
        let operands = (0..)
            .zip(kinds)
            .map(|(j, kind)| SpecOperand {
                offset: (j << 22) + 64 * draw.below(4) + 8 * draw.below(8),
                points: vec![(0, 0)],
                kind,
            })
            .collect();
        let inner = 8 * (1_200 + draw.below(2_897));
        case.kernel = KernelSpec {
            operands,
            row_stride: inner,
            inner,
            rows: 1,
            ..case.kernel
        };
        case.name = "a saturating row";
        case
    }

    /// The representative core of `run_spmd_memo` through a memo that
    /// records no trace — a counted core, which repeats its rows' steady
    /// periods — against the oracle, SpecI2M on (weighed) or off
    /// (counted): on the full node, where SpecI2M's activation ramp is
    /// up and a store line's streak response weighs, and at a drawn rank
    /// count.  Then through a memo that records traces: the full node's
    /// point, whose counted core records its trace while it repeats, and
    /// two neighbours that replay it at the occupancies of other rank
    /// counts.
    fn check_counted(&mut self, speci2m: bool) {
        let machine = self.machine(speci2m);
        let total = machine.total_cores();
        let drawn = 1 + self.draw.below(total as u64) as usize;
        for ranks in [total, drawn] {
            let occ = DomainOccupancy::compact(&machine, ranks);
            let count = occ.cores_per_domain[0];
            let sharers = DomainOccupancy::l3_sharers(&machine, count);
            let ctx = OccupancyContext::domain_load(&machine, count, occ.active_domains);
            let options = self.options(sharers, speci2m);
            assert!(
                self.kernel.counts_last_level(&machine, &options, 0),
                "{} is not counted: {:?}",
                self.name,
                self.kernel
            );
            let oracle = self.swept_oracle(&machine, sharers);
            let report = NodeSim::new(self.config(machine.clone(), ranks, speci2m))
                .run_spmd_memo(&self.kernel, &SimMemo::without_differential());
            let at = format!("counted at {ranks} ranks, {:?}", self.kernel);
            self.assert_counters(&report.per_rank, &oracle, (&machine, ctx, options), &at);
        }
        // The full node's L3 share, at the occupancies of three rank
        // counts: one trace class, its leader and two neighbours.
        let per_domain = total / machine.topology.domains.len();
        let mut contexts: Vec<OccupancyContext> = Vec::new();
        for ranks in [total, per_domain, total / 2, per_domain / 2, drawn, 1] {
            let ctx = OccupancyContext::compact(&machine, ranks.max(1));
            if contexts.len() < 3 && !contexts.contains(&ctx) {
                contexts.push(ctx);
            }
        }
        let occ = DomainOccupancy::compact(&machine, total);
        let sharers = DomainOccupancy::l3_sharers(&machine, occ.cores_per_domain[0]);
        let options = self.options(sharers, speci2m);
        let oracle = self.swept_oracle(&machine, sharers);
        let memo = SimMemo::new();
        for (k, &ctx) in contexts.iter().enumerate() {
            let counters = memo.counters(&machine, ctx, options, &self.kernel, 0);
            let role = if k == 0 { "leader" } else { "neighbour" };
            let at = format!("the trace's {role} at {ctx:?}, {:?}", self.kernel);
            self.assert_counters(&counters, &oracle, (&machine, ctx, options), &at);
        }
        let traces = memo.diff_stats();
        assert_eq!((traces.misses, traces.hits), (1, 2), "{}", self.name);
    }
}

/// Hand-made counted kernels at the edges of a counted core's repeat of a
/// row's steady period (`SweepCursor`): its rows, element-aligned, have
/// their head past index 16, their measured period then, and the repeats
/// after it must leave an element of the row to step.
fn repeat_kernels() -> Vec<(&'static str, KernelSpec)> {
    use AccessKind::{Load, Store, StoreNT};
    let copy = |store, stride, inner, rows| {
        fixed_sweep(
            &[(1 << 30, &[(0, 0)], Load), (1 << 31, &[(0, 0)], store)],
            stride,
            0,
            inner,
            rows,
        )
    };
    let mut kernels = vec![
        // Rows of 256 elements and a line of halo, an NT store beside the
        // load so that no streak bounds the repeat: 13 periods from index
        // 32 leave 16 elements to step, and 14 would end the row on a
        // repeat, its next element in the halo.
        (
            "a repeat that ends one period before its row",
            copy(StoreNT, 264, 256, 3),
        ),
        // Head, one measured period, one repeated and one element: the
        // shortest row that repeats; one element less repeats nothing.
        (
            "the shortest row that repeats a period",
            copy(StoreNT, 56, 49, 3),
        ),
        (
            "one element too short to repeat a period",
            copy(StoreNT, 56, 48, 3),
        ),
    ];
    // A store 1–2 elements into its line beside an aligned load, rows a
    // few elements of halo apart: the store's streak breaks at every row
    // end, and where a row holds a full line more than the one before,
    // its current streak reaches the last one inside a would-be period a
    // period before the row's tail would end the repeat.  (The store's
    // phase is what makes that happen: with the load's, the tail ends
    // the repeat first.)
    for (inner, halo, phase) in [(202, 3, 1), (203, 2, 1), (203, 4, 2), (204, 3, 2)] {
        let mut kernel = copy(Store, inner + halo, inner, 4);
        kernel.operands[1].offset += 8 * phase;
        kernels.push(("a streak that reaches the last one inside a period", kernel));
    }
    // One row of a copy, whose store streak grows from its first line: the
    // period measured after the head does not repeat, and the row is
    // measured again from the first period whose store lines all saturate
    // (1 001 lines), if the row holds it, one more and an element.  With
    // the store an element into its line, its streak saturates at that
    // period's first line; in phase with the load, at its second line,
    // the period before.
    for (name, inner, phase) in [
        ("a streak that saturates at a period's first line", 9_000, 1),
        ("a streak that saturates inside a period", 9_000, 0),
        ("a row measured again one period before its tail", 8_049, 0),
        ("a row one element too short to measure again", 8_048, 0),
    ] {
        let mut kernel = copy(Store, inner, inner, 1);
        kernel.operands[1].offset += 8 * phase;
        kernels.push((name, kernel));
    }
    // The stores first: a period of the rows' steady state opens with the
    // event the head ended on, an NT line, which a trace must not merge
    // into the head's run.
    let mut kernel = copy(StoreNT, 264, 256, 3);
    kernel.operands.reverse();
    kernels.push(("an NT store before its load", kernel));
    kernels
}

/// [`repeat_kernels`] on the ICX, then `times` drawn long-row kernels and
/// `times` drawn saturating rows per combination from `seed`.
fn long_row_cases(times: usize, seed: u64) -> impl Iterator<Item = Case> {
    let fixed = repeat_kernels()
        .into_iter()
        .enumerate()
        .map(|(index, kernel)| Case::fixed(index, kernel));
    let per_combination = MachinePreset::all().len() * 3 * 2;
    let drawn = (0..times * per_combination).map(move |index| Case::long_rows(index, seed));
    let saturating =
        (0..times * per_combination).map(move |index| Case::saturating_row(index, !seed));
    fixed.chain(drawn).chain(saturating)
}

#[test]
fn a_counted_core_repeats_what_the_reference_hierarchy_counts_and_weighs() {
    for mut case in long_row_cases(1, 0x2EA7) {
        case.check_counted(false);
        case.check_counted(true);
    }
}

/// A hundred times the tier-1 long-row kernels, each combination with
/// new kernels: `cargo test --release --test reference_hierarchy --
/// --ignored --exact
/// a_counted_core_repeats_what_the_reference_hierarchy_counts_and_weighs_over_many_kernels`.
#[test]
#[ignore]
fn a_counted_core_repeats_what_the_reference_hierarchy_counts_and_weighs_over_many_kernels() {
    for mut case in long_row_cases(100, 0x2EA8) {
        case.check_counted(false);
        case.check_counted(true);
    }
}

#[test]
fn every_driver_counts_what_the_reference_hierarchy_counts() {
    for mut case in cases(1, 0x5EED) {
        case.check(false);
    }
}

#[test]
fn every_driver_weighs_what_the_reference_hierarchy_weighs_with_speci2m_on() {
    for mut case in cases(1, 0x5EED) {
        case.check(true);
    }
}

/// Fifty times the tier-1 cases, each combination with new kernels, both
/// ways: `cargo test --release --test reference_hierarchy -- --ignored
/// --exact every_driver_equals_the_reference_hierarchy_over_many_kernels`.
#[test]
#[ignore]
fn every_driver_equals_the_reference_hierarchy_over_many_kernels() {
    for mut case in cases(50, 0xD1CE) {
        case.check(false);
        case.check(true);
    }
}

/// The shrunken ICX-shaped machine the counted rule is enumerated on: an
/// L1 of 4 sets × 4 ways, an L2 of 8 × 4 and an L3 of 64 × 4, whose share
/// is 128 lines at 2 sharers (one rank) and 64 at 4 (every share's floor,
/// 16 × 4), so that kernels of a few dozen lines reach the rule's edges:
/// the buddy bound (one store beside a load), set collisions with a
/// buddy, the 4-line gap and stream displacements.  And a counted
/// kernel's trace, recorded at the floor, is replayed at 1 sharer, whose
/// share of 256 lines really differs.  SpecI2M off and no NT partial
/// flushes, so that every counter is a count.
fn shrunken_icx() -> Machine {
    let mut m = MachinePreset::IceLakeSp8360y.machine();
    for (spec, sets) in [
        (&mut m.caches.l1, 4),
        (&mut m.caches.l2, 8),
        (&mut m.caches.l3, 64),
    ] {
        spec.capacity_bytes = sets * 4 * LINE as usize;
        spec.associativity = 4;
    }
    m.speci2m.nt_partial_flush_max = 0.0;
    m.id.push_str("-shrunken");
    m
}

/// What the enumeration of small kernels found.
#[derive(Debug, Default)]
struct Enumerated {
    kernels: u64,
    /// Kernels `KernelSpec::never_hits_private` proves.
    marked: u64,
    /// Marked kernels whose every prefetched buddy the reference hierarchy
    /// still holds when it is loaded: those a counting core gets right.
    qualified: u64,
    /// Kernels `KernelSpec::counts_last_level` proves, each equal to the
    /// reference hierarchy.
    counted: u64,
}

/// Every `stride`-th kernel of the enumeration, on [`shrunken_icx`]: 1–3
/// operands, each a load, a store or an NT store, with one point; `inner`
/// of 1..=24 elements, `rows` of 1..=4 and a `row_stride` of `inner ..=
/// inner + 8` (one row: `inner`); the first operand `0..=8` lines into its
/// array and every other one `0..=8` lines into its own, the arrays
/// 1 024 lines apart (a multiple of every level's sets).  A kernel the
/// rule proves is simulated alone through a memo that records no trace
/// (so that it counts its L3 share), with the prefetcher on, and must
/// equal the reference hierarchy count for count.  Then through a memo
/// that records traces, at 4 sharers (the trace's leader, on a share of
/// 64 lines) and at 1 (its replay, on 256 lines): one simulation, each
/// point equal to the reference hierarchy at its own share.
fn enumerate_counted_kernels(stride: usize) -> Enumerated {
    use AccessKind::{Load, Store, StoreNT};
    let machine = shrunken_icx();
    let kinds = (1..=3u32).flat_map(|n| {
        (0..3usize.pow(n)).map(move |code| {
            let kind = |j: u32| [Load, Store, StoreNT][code / 3usize.pow(j) % 3];
            (0..n).map(kind).collect::<Vec<_>>()
        })
    });
    let shapes: Vec<(u64, u64, u64)> = (1..=24u64)
        .flat_map(|inner| {
            (1..=4u64).flat_map(move |rows| {
                let gaps = if rows == 1 { 0..=0 } else { 0..=8 };
                gaps.map(move |gap| (inner, rows, inner + gap))
            })
        })
        .collect();
    let shapes = &shapes;
    let kernels = kinds.flat_map(|kinds| {
        let others = if kinds.len() == 1 { 0..=0 } else { 0..=8 };
        (0..=8u64).flat_map(move |first| {
            let kinds = kinds.clone();
            others.clone().flat_map(move |other| {
                let kinds = kinds.clone();
                shapes.iter().map(move |&(inner, rows, row_stride)| {
                    let operands: Vec<FixedOperand> = kinds
                        .iter()
                        .enumerate()
                        .map(|(j, &kind)| {
                            let lines = 1024 * j as u64 + if j == 0 { first } else { other };
                            ((1 << 30) + lines * LINE, &[(0, 0)][..], kind)
                        })
                        .collect();
                    fixed_sweep(&operands, row_stride, 0, inner, rows)
                })
            })
        })
    });
    let template = Case::fixed(0, ("an enumerated kernel", fixed_sweep(&[], 1, 0, 0, 0)));
    let config = template.config(machine.clone(), 1, false);
    let sharers = DomainOccupancy::l3_sharers(&machine, 1);
    let options = template.options(sharers, false);
    let env = (
        &machine,
        OccupancyContext::domain_load(&machine, 1, 1),
        options,
    );
    let mut found = Enumerated::default();
    for kernel in kernels.step_by(stride) {
        found.kernels += 1;
        if !kernel.never_hits_private(&machine, 0) {
            continue;
        }
        found.marked += 1;
        let case = Case {
            kernel,
            ..Case::fixed(0, ("an enumerated kernel", fixed_sweep(&[], 1, 0, 0, 0)))
        };
        let oracle = case.swept_oracle(&machine, sharers);
        found.qualified += u64::from(oracle.lost_buddies == 0);
        if !case.kernel.counts_last_level(&machine, &options, 0) {
            continue;
        }
        found.counted += 1;
        let memo = SimMemo::without_differential();
        let report = NodeSim::new(config.clone()).run_spmd_memo(&case.kernel, &memo);
        let at = format!("{:?}", case.kernel);
        case.assert_counters(&report.per_rank, &oracle, env, &at);
        let memo = SimMemo::new();
        for (role, l3_sharers) in [("leader", 4), ("replay", 1)] {
            let options = case.options(l3_sharers, false);
            assert!(case.kernel.counts_last_level(&machine, &options, 0), "{at}");
            let counters = memo.counters(&machine, env.1, options, &case.kernel, 0);
            let oracle = case.swept_oracle(&machine, l3_sharers);
            let at = format!("the {role} at {l3_sharers} sharers, {at}");
            case.assert_counters(&counters, &oracle, (&machine, env.1, options), &at);
        }
        assert_eq!(memo.diff_stats().misses, 1, "one trace: {at}");
    }
    found
}

#[test]
fn a_stride_of_the_small_kernels_counted_equals_the_reference_hierarchy() {
    let found = enumerate_counted_kernels(97);
    assert!(
        found.counted > 0 && found.qualified >= found.counted,
        "{found:?}"
    );
}

/// Every small kernel of `enumerate_counted_kernels`: `cargo test
/// --release --test reference_hierarchy -- --ignored --exact
/// every_small_kernel_counted_equals_the_reference_hierarchy --nocapture`
/// prints how many the rule refuses of those it could count.
#[test]
#[ignore]
fn every_small_kernel_counted_equals_the_reference_hierarchy() {
    let found = enumerate_counted_kernels(1);
    let refused = found.qualified - found.counted;
    println!(
        "{found:?}: the rule refuses {refused} of {} kernels it could count ({:.1} %)",
        found.qualified,
        100.0 * refused as f64 / found.qualified.max(1) as f64
    );
    assert!(
        found.counted > 0 && found.qualified >= found.counted,
        "{found:?}"
    );
}
