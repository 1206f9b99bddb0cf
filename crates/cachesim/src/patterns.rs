//! The stencil row sweep: the one access pattern every caller drives.
//!
//! The microbenchmarks (`clover-ubench`) and the row-sampled CloverLeaf
//! hotspot loops (`clover_core::loop_kernel`) both describe their loops as
//! a [`StencilRowSweep`] — several arrays, each
//! with its stencil offsets, swept row by row; a contiguous array or a
//! row-wise copy with halo gaps is the one-point special case.
//!
//! The sweep has exactly one driver, the resumable [`SweepCursor`], which
//! the solo path ([`StencilRowSweep::drive`]) runs to completion and the
//! co-run engine advances in turns; a contiguous run
//! ([`CoreSim::drive_run`]) is a one-operand sweep, so the cursor is the
//! crate's only line-granular driver.  `tests/reference_hierarchy.rs`
//! holds it to a naive hierarchy fed one 8-byte access per element.

pub use crate::access::ELEM_BYTES;
use crate::access::{line_of, AccessKind, LINE_BYTES};
use crate::cache::SetAssocCache;
use crate::hierarchy::{CoreSim, PrivateCore};

/// One array operand of a stencil row sweep.
#[derive(Debug, Clone)]
pub struct StencilOperand {
    /// Base byte address of the array.
    pub base: u64,
    /// Offsets accessed relative to the centre point, in (di, dk) element
    /// units where `di` moves along the inner dimension and `dk` along the
    /// outer (row) dimension.
    pub offsets: Vec<(i64, i64)>,
    /// Kind of access for this operand.
    pub kind: AccessKind,
}

/// A row-wise sweep of a 2D stencil over several arrays: the access pattern
/// of one CloverLeaf hotspot loop restricted to a band of rows.
///
/// All arrays share the same logical grid layout: row stride
/// `row_stride` elements, the sweep covers rows `k0..k0+rows` and inner
/// indices `i0..i0+inner`.
#[derive(Debug, Clone)]
pub struct StencilRowSweep {
    /// Arrays read/written by the loop body, with their stencil offsets.
    pub operands: Vec<StencilOperand>,
    /// Row stride of the grid in elements (including halos).
    pub row_stride: u64,
    /// First inner index of the sweep.
    pub i0: u64,
    /// Number of inner iterations per row.
    pub inner: u64,
    /// First row of the sweep.
    pub k0: u64,
    /// Number of rows.
    pub rows: u64,
}

/// One flattened `(operand, offset)` access stream of a stencil sweep; its
/// address advances by 8 bytes per inner iteration.
#[derive(Debug, Clone, Copy)]
struct StencilStream {
    kind: AccessKind,
    /// Byte address at the first inner index of the current row.
    row_base: u64,
}

impl StencilRowSweep {
    /// Byte address of logical grid point `(i, k)` of an operand.
    fn addr(&self, base: u64, i: i64, k: i64) -> u64 {
        let idx = k * self.row_stride as i64 + i;
        debug_assert!(idx >= 0, "stencil access out of the allocated halo region");
        base + idx as u64 * ELEM_BYTES
    }

    /// Drive the sweep through a core simulator in the loop order of the
    /// Fortran source: outer loop over rows, inner loop over `i`, reads
    /// before the write of each iteration.  This is a [`SweepCursor`] run
    /// to completion against the core's own private half and L3 share —
    /// the same segment loop the co-run engine advances in turns — with the
    /// counters of feeding every element in that order one at a time.
    pub fn drive(&self, core: &mut CoreSim) {
        let (private, l3) = core.split();
        SweepCursor::new(self).advance(private, l3, u64::MAX);
    }

    /// Number of grid-point updates performed by the sweep.
    pub fn iterations(&self) -> u64 {
        self.inner * self.rows
    }
}

/// The resumable driver of a [`StencilRowSweep`] — the one place a stencil
/// inner loop becomes line-granular hierarchy operations.
///
/// The inner loop advances every access stream by 8 bytes per iteration,
/// so all streams cross cache-line boundaries at predictable points.
/// Between two crossings every load is a guaranteed L1 hit of the line its
/// stream just touched and every store is a pure coverage merge in the
/// coalescer — so [`advance`](Self::advance) executes only the first
/// iteration of each such *segment* faithfully (this is where line
/// crossings, cache fills and coalescer transitions happen), each element
/// straight as the one line operation it is, and accounts the rest in
/// bulk, at one L1 touch per load line instead of one per element — a
/// single compare when the line is its set's most recent.  The bulk phase
/// performs no fills or stream transitions, leaves the same final LRU
/// order (the streams are visited in operand order, like the segment's
/// last iteration element by element) and counts the same hits.  Where
/// only the loads changed the L1's recency order in the first iteration
/// (no line a store retired entered or moved in it), that order is the
/// final one — under LRU, touching again, in the same order, the lines
/// an iteration just made the most recent of their sets moves none of
/// them — so the bulk loads are one addition to the L1's hits and touch
/// no line.
///
/// Its preconditions — every load line still L1-resident, every store line
/// still open in its coalescer — are proved in O(1) from what the first
/// iteration did rather than looked up: no L1 line was invalidated, fewer
/// than `ways` L1 recency changes happened (a line the iteration made the
/// most recent of its set leaves only after `ways` of them), and no store
/// stream the iteration stored to was moved off its line
/// (`PrivateCore::undisturbed_since`).  Where that proof fails (more
/// streams in one L1 set than it has ways, an NT line that invalidates an
/// L1 copy, store streams that displace each other) the lines are looked
/// up one by one; if one has left, the rest of the segment runs element
/// by element.  A debug build checks every proof against the look-up.  A
/// sweep with a misaligned operand base runs element by element
/// throughout, each element one operation per line it covers.
///
/// The cursor pauses only at segment boundaries, and no simulator state
/// spans one (all carry-over lives in the caches and coalescers
/// themselves), so a run is the per-element sweep for *any* sequence of
/// turn budgets — which `tests/reference_hierarchy.rs` asserts through
/// single-tenant co-runs at random interleaves.
#[derive(Debug, Clone)]
pub struct SweepCursor {
    /// Flattened streams positioned at `i0` of the current row.
    streams: Vec<StencilStream>,
    /// Byte distance between consecutive rows of every stream.
    row_bytes: u64,
    /// Inner iterations per row.
    inner: u64,
    /// Inner iterations completed in the current row.
    done: u64,
    /// Rows not yet completed, the current one included.
    rows_left: u64,
    /// Misaligned operand base: elements straddle lines and the segment
    /// bookkeeping no longer holds, so every segment is one iteration.
    scalar: bool,
    /// How many of the streams load.
    loads: u64,
}

impl SweepCursor {
    /// Position a cursor at the start of `sweep`.
    pub fn new(sweep: &StencilRowSweep) -> Self {
        let streams: Vec<StencilStream> = sweep
            .operands
            .iter()
            .flat_map(|op| {
                op.offsets.iter().map(|&(di, dk)| StencilStream {
                    kind: op.kind,
                    row_base: sweep.addr(op.base, sweep.i0 as i64 + di, sweep.k0 as i64 + dk),
                })
            })
            .collect();
        Self {
            row_bytes: sweep.row_stride * ELEM_BYTES,
            inner: sweep.inner,
            done: 0,
            // A zero-trip inner loop has no row to pause in.
            rows_left: if sweep.inner == 0 { 0 } else { sweep.rows },
            scalar: sweep.operands.iter().any(|op| op.base % ELEM_BYTES != 0),
            loads: streams
                .iter()
                .filter(|s| s.kind == AccessKind::Load)
                .count() as u64,
            streams,
        }
    }

    /// Whether the sweep has been driven to completion.
    pub fn finished(&self) -> bool {
        self.rows_left == 0
    }

    /// Drive until at least `budget_lines` line-granular operations have
    /// been issued or the sweep finishes, whichever comes first; returns
    /// the number actually issued.  A zero budget still makes progress
    /// (one segment), so a co-run round-robin can never stall.
    pub fn advance(
        &mut self,
        core: &mut PrivateCore,
        llc: &mut SetAssocCache,
        budget_lines: u64,
    ) -> u64 {
        let budget = budget_lines.max(1);
        let mut spent = 0u64;
        while self.rows_left > 0 && spent < budget {
            let at = self.done * ELEM_BYTES;
            // The segment's first iteration, faithfully, in operand order.
            let mark = core.mark();
            let mut stores_reordered = false;
            for s in &self.streams {
                let before = core.l1_reorders();
                self.feed(core, llc, s.kind, s.row_base + at);
                stores_reordered |= s.kind != AccessKind::Load && core.l1_reorders() != before;
            }
            // The segment extends until any stream reaches its next line
            // boundary (each stream advances 8 bytes per iteration and is
            // 8-aligned, so the residual is exact).
            let seg = if self.scalar {
                1
            } else {
                self.streams.iter().fold(self.inner - self.done, |seg, s| {
                    seg.min((LINE_BYTES - (s.row_base + at) % LINE_BYTES) / ELEM_BYTES)
                })
            };
            if seg > 1 {
                // Bulk preconditions: every load line resident in L1 and
                // every store stream still open on its line.  The O(1)
                // proof establishes them in the common case; only where it
                // cannot (see the type's docs) are the lines looked up.
                let proven = core.undisturbed_since(mark);
                debug_assert!(
                    !proven || self.lines_in_place(core, at),
                    "the segment proof vouched for a line that left"
                );
                if proven || self.lines_in_place(core, at) {
                    // Loads alone reordered the L1: the bulk's touches would
                    // move nothing (see the type's docs).
                    let settled = proven && !stores_reordered;
                    if settled {
                        core.l1_settled_hits(self.loads * (seg - 1));
                    }
                    for s in &self.streams {
                        let addr = s.row_base + at + ELEM_BYTES;
                        let line = line_of(addr);
                        match s.kind {
                            AccessKind::Load if settled => {}
                            AccessKind::Load => {
                                let resident = core.l1_touch_repeat(line, seg - 1);
                                debug_assert!(resident, "bulk phase cannot evict");
                            }
                            kind => core.store_line_segment(
                                llc,
                                line,
                                addr % LINE_BYTES,
                                (seg - 1) * ELEM_BYTES,
                                kind == AccessKind::StoreNT,
                            ),
                        }
                    }
                } else {
                    for step in 1..seg {
                        for s in &self.streams {
                            self.feed(core, llc, s.kind, s.row_base + at + step * ELEM_BYTES);
                        }
                    }
                }
            }
            self.done += seg;
            spent += (self.streams.len() as u64).max(1);
            if self.done >= self.inner {
                self.done = 0;
                self.rows_left -= 1;
                for s in &mut self.streams {
                    s.row_base += self.row_bytes;
                }
            }
        }
        spent
    }

    /// Feed one 8-byte element of a stream: on an aligned sweep straight
    /// as the one line operation it is, on a misaligned one split across
    /// the lines it covers ([`feed_split`](Self::feed_split)).
    #[inline(always)]
    fn feed(&self, core: &mut PrivateCore, llc: &mut SetAssocCache, kind: AccessKind, addr: u64) {
        if self.scalar {
            return Self::feed_split(core, llc, kind, addr);
        }
        let line = line_of(addr);
        match kind {
            AccessKind::Load => core.load_line(llc, line),
            kind => core.store_line_segment(
                llc,
                line,
                addr % LINE_BYTES,
                ELEM_BYTES,
                kind == AccessKind::StoreNT,
            ),
        }
    }

    /// Feed one 8-byte element of a misaligned sweep as one operation per
    /// line it covers (at most two).  Out of line, so that only the aligned
    /// [`feed`](Self::feed) inlines into [`advance`](Self::advance).
    #[cold]
    #[inline(never)]
    fn feed_split(core: &mut PrivateCore, llc: &mut SetAssocCache, kind: AccessKind, addr: u64) {
        let (line, offset) = (line_of(addr), addr % LINE_BYTES);
        let head = ELEM_BYTES.min(LINE_BYTES - offset);
        let nt = kind == AccessKind::StoreNT;
        let mut piece = |line, offset, len| match kind {
            AccessKind::Load => core.load_line(llc, line),
            _ => core.store_line_segment(llc, line, offset, len, nt),
        };
        piece(line, offset, head);
        if head < ELEM_BYTES {
            piece(line + 1, 0, ELEM_BYTES - head);
        }
    }

    /// Whether, at byte `at` of the row, every load stream's line is
    /// L1-resident and every store stream's line has an open stream —
    /// looked up line by line.
    fn lines_in_place(&self, core: &PrivateCore, at: u64) -> bool {
        self.streams.iter().all(|s| {
            let line = line_of(s.row_base + at);
            match s.kind {
                AccessKind::Load => core.l1_contains(line),
                kind => core.coalescer_at_line(line, kind == AccessKind::StoreNT),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessRun;
    use crate::hierarchy::{CoreSimOptions, OccupancyContext};
    use crate::memo::{KernelSpec, RankBase};
    use clover_machine::icelake_sp_8360y;

    fn serial_core() -> CoreSim {
        let m = icelake_sp_8360y();
        CoreSim::new(&m, OccupancyContext::serial(&m), CoreSimOptions::default())
    }

    fn loaded_core() -> CoreSim {
        let m = icelake_sp_8360y();
        let ctx = OccupancyContext::compact(&m, m.total_cores());
        CoreSim::new(
            &m,
            ctx,
            CoreSimOptions {
                l3_sharers: 36,
                ..Default::default()
            },
        )
    }

    /// The sweep one access at a time in its loop order, each a
    /// one-element run: what the cursor's segments must reproduce.
    fn drive_per_element(sweep: &StencilRowSweep, core: &mut CoreSim) {
        for k in sweep.k0..sweep.k0 + sweep.rows {
            for i in sweep.i0..sweep.i0 + sweep.inner {
                for op in &sweep.operands {
                    for &(di, dk) in &op.offsets {
                        let base = sweep.addr(op.base, i as i64 + di, k as i64 + dk);
                        core.drive_run(AccessRun {
                            base,
                            elements: 1,
                            kind: op.kind,
                        });
                    }
                }
            }
        }
    }

    /// `rows` rows of `inner` doubles of one array at `base`, separated by
    /// an untouched halo gap of `halo` doubles: a contiguous array sweep
    /// for one row, the access pattern of a rank that owns a narrow strip
    /// of a larger grid (Figs. 8 and 11) for several.
    fn row_sweep(base: u64, inner: u64, halo: u64, rows: u64, kind: AccessKind) -> StencilRowSweep {
        let spec = KernelSpec {
            row_stride: inner + halo,
            rows,
            ..KernelSpec::contiguous(RankBase::Shared, base, inner, kind)
        };
        spec.sweep(0)
    }

    #[test]
    fn array_sweep_load_volume() {
        let mut core = serial_core();
        row_sweep(0, 8192, 0, 1, AccessKind::Load).drive(&mut core);
        let c = core.flush();
        let expected_lines = 8192.0 / 8.0;
        assert!(c.read_lines >= expected_lines);
        assert!(c.read_lines <= expected_lines * 1.05);
    }

    #[test]
    fn row_sweep_store_generates_writes() {
        let mut core = serial_core();
        let sweep = row_sweep(0, 216, 5, 8, AccessKind::Store);
        sweep.drive(&mut core);
        let c = core.flush();
        let touched_lines = (sweep.iterations() * ELEM_BYTES) as f64 / 64.0;
        assert!(c.write_lines >= touched_lines * 0.95);
        // Serial run: every written line needs a write-allocate read.
        assert!(c.read_lines >= touched_lines * 0.9);
    }

    #[test]
    fn stencil_row_sweep_copy_traffic() {
        // A plain copy stencil: read b(i,k), write a(i,k).
        let mut core = serial_core();
        let stride = 2048u64;
        let sweep = copy_stencil(stride, 0, stride, 4);
        sweep.drive(&mut core);
        let c = core.flush();
        let it = sweep.iterations() as f64;
        // Per iteration: 8 B read (b) + 8 B WA (a, serial) + 8 B write (a).
        let bytes_per_it = c.total_bytes() / it;
        assert!(
            (bytes_per_it - 24.0).abs() < 2.0,
            "bytes/it = {bytes_per_it}"
        );
    }

    #[test]
    fn stencil_four_point_layer_condition_satisfied() {
        // y(i,k) = f(x(i,k±1), x(i±1,k)) with a row length small enough for
        // the layer condition: x should be read from memory only once.
        let mut core = serial_core();
        let stride = 1024u64; // 8 KiB per row: 3 rows easily fit in L2
        let sweep = StencilRowSweep {
            operands: vec![
                StencilOperand {
                    base: 1 << 30,
                    offsets: vec![(0, 1), (-1, 0), (1, 0), (0, -1)],
                    kind: AccessKind::Load,
                },
                StencilOperand {
                    base: 1 << 31,
                    offsets: vec![(0, 0)],
                    kind: AccessKind::Store,
                },
            ],
            row_stride: stride,
            i0: 1,
            inner: stride - 2,
            k0: 1,
            rows: 16,
        };
        sweep.drive(&mut core);
        let c = core.flush();
        let it = sweep.iterations() as f64;
        // Layer condition fulfilled: x read once (8 B/it) + WA (8) + write (8)
        // ≈ 24 B/it (plus halo rows overhead).
        let bytes_per_it = c.total_bytes() / it;
        assert!(
            bytes_per_it < 30.0,
            "LC satisfied should give ~24-26 B/it, got {bytes_per_it}"
        );
    }

    #[test]
    fn array_and_row_sweeps_match_their_scalar_reference() {
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::StoreNT] {
            for (sweep, mk) in [
                (
                    row_sweep(24, 700, 0, 1, kind),
                    serial_core as fn() -> CoreSim,
                ),
                (row_sweep(8 * 3, 216, 5, 12, kind), loaded_core),
            ] {
                let mut fast = mk();
                let mut slow = mk();
                sweep.drive(&mut fast);
                drive_per_element(&sweep, &mut slow);
                assert_eq!(fast.cache_stats(), slow.cache_stats());
                assert_eq!(fast.flush(), slow.flush());
            }
        }
    }

    fn copy_stencil(stride: u64, i0: u64, inner: u64, rows: u64) -> StencilRowSweep {
        StencilRowSweep {
            operands: vec![
                StencilOperand {
                    base: 1 << 30,
                    offsets: vec![(0, 0)],
                    kind: AccessKind::Load,
                },
                StencilOperand {
                    base: 1 << 31,
                    offsets: vec![(0, 0)],
                    kind: AccessKind::Store,
                },
            ],
            row_stride: stride,
            i0,
            inner,
            k0: 1,
            rows,
        }
    }

    #[test]
    fn stencil_drive_matches_scalar_reference() {
        // Shapes covering unaligned starts, short rows and neighbour
        // offsets, under both serial and loaded occupancy.
        let sweeps = [
            copy_stencil(221, 2, 216, 8),
            copy_stencil(67, 1, 63, 6),
            StencilRowSweep {
                operands: vec![
                    StencilOperand {
                        base: 1 << 30,
                        offsets: vec![(0, 1), (-1, 0), (1, 0), (0, -1)],
                        kind: AccessKind::Load,
                    },
                    StencilOperand {
                        base: (1 << 31) + 8,
                        offsets: vec![(0, 0), (1, 0)],
                        kind: AccessKind::Load,
                    },
                    StencilOperand {
                        base: 1 << 32,
                        offsets: vec![(0, 0)],
                        kind: AccessKind::Store,
                    },
                    StencilOperand {
                        base: 1 << 33,
                        offsets: vec![(0, 0)],
                        kind: AccessKind::StoreNT,
                    },
                ],
                row_stride: 529,
                i0: 2,
                inner: 525,
                k0: 1,
                rows: 7,
            },
            // Eight load streams and two store streams, staggered by less
            // than a line in one L1 set, rows a page apart: a store line
            // retired into the set after the loads of a segment's first
            // iteration is pushed below them by the rest of the segment.
            StencilRowSweep {
                operands: vec![
                    StencilOperand {
                        base: 1 << 22,
                        offsets: vec![(-1, 0), (0, 0)],
                        kind: AccessKind::Load,
                    },
                    StencilOperand {
                        base: 2 << 22,
                        offsets: vec![(0, 0), (1, -1), (1, -1)],
                        kind: AccessKind::Load,
                    },
                    StencilOperand {
                        base: (3 << 22) + 56,
                        offsets: vec![(-1, 0), (0, -1), (1, -1)],
                        kind: AccessKind::Load,
                    },
                    StencilOperand {
                        base: (4 << 22) + 56,
                        offsets: vec![(-1, -1), (-1, 0)],
                        kind: AccessKind::Store,
                    },
                ],
                row_stride: 512,
                i0: 1,
                inner: 10,
                k0: 1,
                rows: 5,
            },
        ];
        for (n, sweep) in sweeps.iter().enumerate() {
            for mk in [serial_core as fn() -> CoreSim, loaded_core] {
                let mut fast = mk();
                let mut slow = mk();
                sweep.drive(&mut fast);
                drive_per_element(sweep, &mut slow);
                assert_eq!(fast.cache_stats(), slow.cache_stats(), "sweep {n}");
                assert_eq!(fast.flush(), slow.flush(), "sweep {n}");
            }
        }
    }

    #[test]
    fn stencil_misaligned_base_falls_back_to_scalar() {
        // A 4-byte-aligned operand cannot use the segment fast path; the
        // driver must still produce the scalar result.
        let mut sweep = copy_stencil(128, 0, 128, 3);
        sweep.operands[0].base += 4;
        let mut fast = serial_core();
        let mut slow = serial_core();
        sweep.drive(&mut fast);
        drive_per_element(&sweep, &mut slow);
        assert_eq!(fast.cache_stats(), slow.cache_stats());
        assert_eq!(fast.flush(), slow.flush());
    }

    #[test]
    fn stencil_iterations_count() {
        let sweep = StencilRowSweep {
            operands: vec![],
            row_stride: 100,
            i0: 2,
            inner: 50,
            k0: 3,
            rows: 7,
        };
        assert_eq!(sweep.iterations(), 350);
    }
}
