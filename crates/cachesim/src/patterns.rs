//! Reusable access-pattern generators.
//!
//! The microbenchmarks (`clover-ubench`) and the row-sampled CloverLeaf
//! traffic measurements (`clover-perfmon`) drive the core simulator with a
//! small set of canonical patterns: contiguous array sweeps, row-wise sweeps
//! with halo gaps, and multi-array stencil row sweeps.
//!
//! All drivers run on the batched line-granular fast path
//! ([`CoreSim::drive_run`] and friends); each keeps a `drive_scalar`
//! reference implementation issuing one 8-byte access per element, used by
//! the equivalence tests to prove the fast path changes nothing but speed.

pub use crate::access::ELEM_BYTES;
use crate::access::{line_of, AccessKind, AccessRun, LINE_BYTES};
use crate::cache::SetAssocCache;
use crate::hierarchy::{CoreSim, PrivateCore};
use crate::policy::{ReplacementPolicy, WritePolicy};

/// Issue one scalar 8-byte access of the given kind.
fn scalar_access<R: ReplacementPolicy, W: WritePolicy>(
    core: &mut CoreSim<R, W>,
    kind: AccessKind,
    addr: u64,
) {
    match kind {
        AccessKind::Load => core.load(addr, ELEM_BYTES as u32),
        AccessKind::Store => core.store(addr, ELEM_BYTES as u32),
        AccessKind::StoreNT => core.store_nt(addr, ELEM_BYTES as u32),
    }
}

/// [`scalar_access`] against a split hierarchy (private half + explicit
/// last-level cache) — the co-run cursor's primitive.
fn scalar_access_split<R: ReplacementPolicy, W: WritePolicy, const SIMD: bool>(
    core: &mut PrivateCore<R, W, SIMD>,
    llc: &mut SetAssocCache<R, SIMD>,
    kind: AccessKind,
    addr: u64,
) {
    match kind {
        AccessKind::Load => core.load(llc, addr, ELEM_BYTES as u32),
        AccessKind::Store => core.store(llc, addr, ELEM_BYTES as u32),
        AccessKind::StoreNT => core.store_nt(llc, addr, ELEM_BYTES as u32),
    }
}

/// A contiguous sweep over `elements` doubles starting at `base`.
#[derive(Debug, Clone, Copy)]
pub struct ArraySweep {
    /// First byte address of the array.
    pub base: u64,
    /// Number of double elements.
    pub elements: u64,
    /// Kind of access performed on each element.
    pub kind: AccessKind,
}

impl ArraySweep {
    /// Drive the sweep through a core simulator (batched fast path).
    pub fn drive<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        core.drive_run(AccessRun {
            base: self.base,
            elements: self.elements,
            kind: self.kind,
        });
    }

    /// Per-element reference implementation (bit-identical, slower).
    pub fn drive_scalar<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        for i in 0..self.elements {
            scalar_access(core, self.kind, self.base + i * ELEM_BYTES);
        }
    }

    /// Total bytes explicitly touched by the sweep.
    pub fn touched_bytes(&self) -> u64 {
        self.elements * ELEM_BYTES
    }
}

/// A row-wise sweep: `rows` rows of `inner` doubles each, separated by a
/// halo gap of `halo` doubles that is *not* touched — the access pattern of
/// a rank that owns a narrow strip of a larger grid (the copy-with-halo
/// microbenchmark of Figs. 8 and 11).
#[derive(Debug, Clone, Copy)]
pub struct RowSweep {
    /// First byte address of the first row.
    pub base: u64,
    /// Touched elements per row.
    pub inner: u64,
    /// Untouched halo elements between consecutive rows.
    pub halo: u64,
    /// Number of rows.
    pub rows: u64,
    /// Kind of access performed on each element.
    pub kind: AccessKind,
}

impl RowSweep {
    /// Row stride in elements (touched + halo).
    pub fn stride_elements(&self) -> u64 {
        self.inner + self.halo
    }

    /// Byte address of element `i` in row `row`.
    pub fn addr(&self, row: u64, i: u64) -> u64 {
        self.base + (row * self.stride_elements() + i) * ELEM_BYTES
    }

    /// Drive the sweep through a core simulator: one batched run per row.
    pub fn drive<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        for row in 0..self.rows {
            core.drive_run(AccessRun {
                base: self.addr(row, 0),
                elements: self.inner,
                kind: self.kind,
            });
        }
    }

    /// Per-element reference implementation (bit-identical, slower).
    pub fn drive_scalar<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        for row in 0..self.rows {
            for i in 0..self.inner {
                scalar_access(core, self.kind, self.addr(row, i));
            }
        }
    }

    /// Total bytes explicitly touched.
    pub fn touched_bytes(&self) -> u64 {
        self.rows * self.inner * ELEM_BYTES
    }
}

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
    /// before the write of each iteration.
    ///
    /// Fast path: the inner loop advances every access stream by 8 bytes
    /// per iteration, so all streams cross cache-line boundaries at
    /// predictable points.  Between two crossings, every load is a
    /// guaranteed L1 hit of the line its stream just touched and every
    /// store is a pure coverage merge in the coalescer — so the driver
    /// executes only the first iteration of each such segment faithfully
    /// and accounts the rest in bulk, at one cache probe per line instead
    /// of one per element.  The result is bit-identical to
    /// [`drive_scalar`](Self::drive_scalar): the bulk phase performs no
    /// fills or stream transitions, leaves the same final LRU order (the
    /// streams are visited in operand order, like the last scalar
    /// iteration) and counts the same hits; whenever its preconditions
    /// cannot be proven (a misaligned operand base, a line evicted or a
    /// stream displaced within the first iteration) it falls back to the
    /// scalar path for the affected span.
    pub fn drive<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        // Element accesses below assume 8-byte-aligned operands (true for
        // every simulated allocation); otherwise elements straddle lines
        // and the segment bookkeeping no longer holds.
        if self.operands.iter().any(|op| op.base % ELEM_BYTES != 0) {
            self.drive_scalar(core);
            return;
        }
        let mut streams: Vec<StencilStream> = Vec::new();
        for k in self.k0..self.k0 + self.rows {
            streams.clear();
            for op in &self.operands {
                for &(di, dk) in &op.offsets {
                    streams.push(StencilStream {
                        kind: op.kind,
                        row_base: self.addr(op.base, self.i0 as i64 + di, k as i64 + dk),
                    });
                }
            }
            self.drive_row(core, &streams);
        }
    }

    /// Drive one row given the flattened streams positioned at `i0`.
    fn drive_row<R: ReplacementPolicy, W: WritePolicy>(
        &self,
        core: &mut CoreSim<R, W>,
        streams: &[StencilStream],
    ) {
        let mut done = 0u64; // inner iterations completed
        while done < self.inner {
            // Execute the segment's first iteration faithfully, in the
            // scalar operand order (this is where line crossings, cache
            // fills and coalescer transitions happen).
            for s in streams {
                scalar_access(core, s.kind, s.row_base + done * ELEM_BYTES);
            }
            // The segment extends until any stream reaches its next line
            // boundary (each stream advances 8 bytes per iteration and is
            // 8-aligned, so the residual is exact).
            let mut seg = self.inner - done;
            for s in streams {
                let addr = s.row_base + done * ELEM_BYTES;
                seg = seg.min((LINE_BYTES - addr % LINE_BYTES) / ELEM_BYTES);
            }
            if seg > 1 {
                // Bulk preconditions: every load line resident in L1 and
                // every store stream still open on its line.  After the
                // faithful first iteration this is the overwhelmingly
                // common case; it can only fail if that iteration evicted
                // one of its own lines or displaced a store stream.
                let provable = streams.iter().all(|s| {
                    let line = line_of(s.row_base + done * ELEM_BYTES);
                    match s.kind {
                        AccessKind::Load => core.l1_contains(line),
                        AccessKind::Store => core.coalescer_at_line(line, false),
                        AccessKind::StoreNT => core.coalescer_at_line(line, true),
                    }
                });
                if provable {
                    for s in streams {
                        let addr = s.row_base + (done + 1) * ELEM_BYTES;
                        let line = line_of(addr);
                        match s.kind {
                            AccessKind::Load => {
                                let resident = core.l1_touch_repeat(line, seg - 1);
                                debug_assert!(resident, "bulk phase cannot evict");
                            }
                            AccessKind::Store => core.store_line_segment(
                                line,
                                addr % LINE_BYTES,
                                (seg - 1) * ELEM_BYTES,
                                false,
                            ),
                            AccessKind::StoreNT => core.store_line_segment(
                                line,
                                addr % LINE_BYTES,
                                (seg - 1) * ELEM_BYTES,
                                true,
                            ),
                        }
                    }
                } else {
                    for step in 1..seg {
                        for s in streams {
                            scalar_access(core, s.kind, s.row_base + (done + step) * ELEM_BYTES);
                        }
                    }
                }
            }
            done += seg;
        }
    }

    /// Per-element reference implementation (bit-identical, slower).
    pub fn drive_scalar<R: ReplacementPolicy, W: WritePolicy>(&self, core: &mut CoreSim<R, W>) {
        for k in self.k0..self.k0 + self.rows {
            for i in self.i0..self.i0 + self.inner {
                for op in &self.operands {
                    for &(di, dk) in &op.offsets {
                        let addr = self.addr(op.base, i as i64 + di, k as i64 + dk);
                        scalar_access(core, op.kind, addr);
                    }
                }
            }
        }
    }

    /// Number of grid-point updates performed by the sweep.
    pub fn iterations(&self) -> u64 {
        self.inner * self.rows
    }
}

/// A resumable [`StencilRowSweep`] driver for co-scheduled tenants.
///
/// The co-run engine interleaves N tenants' access streams at the shared
/// last level in turns of a configurable number of cache lines; each
/// tenant's progress therefore has to survive across turns.  The cursor
/// holds the sweep position (row, inner iterations completed, the
/// flattened streams of the current row) and
/// [`advance`](Self::advance) drives the *same* operation sequence as
/// [`StencilRowSweep::drive`] — the fast segment loop with its faithful
/// first iteration, provable-bulk accounting and scalar fallbacks —
/// pausing only at segment boundaries.  Because no simulator state spans a
/// segment boundary (all carry-over lives in the caches and coalescers
/// themselves), a single-tenant cursor run is bit-identical to
/// `drive` for *any* turn budget, which the tier-1 proptests assert.
#[derive(Debug, Clone)]
pub struct SweepCursor {
    sweep: StencilRowSweep,
    /// Misaligned operand base: step per-element like
    /// [`StencilRowSweep::drive_scalar`] instead of per-segment.
    scalar: bool,
    /// Accesses per inner iteration (flattened stream count).
    ops_per_iter: u64,
    /// Current absolute row (`k0..k0 + rows`).
    k: u64,
    /// Inner iterations completed in the current row.
    done: u64,
    /// Flattened streams positioned at the current row (aligned mode).
    streams: Vec<StencilStream>,
    finished: bool,
}

impl SweepCursor {
    /// Position a cursor at the start of `sweep`.
    pub fn new(sweep: StencilRowSweep) -> Self {
        let scalar = sweep.operands.iter().any(|op| op.base % ELEM_BYTES != 0);
        let ops_per_iter: u64 = sweep
            .operands
            .iter()
            .map(|op| op.offsets.len() as u64)
            .sum();
        let finished = sweep.rows == 0;
        let mut cursor = Self {
            k: sweep.k0,
            sweep,
            scalar,
            ops_per_iter,
            done: 0,
            streams: Vec::new(),
            finished,
        };
        if !cursor.finished && !cursor.scalar {
            cursor.build_streams();
        }
        cursor
    }

    /// Whether the sweep has been driven to completion.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Drive until at least `budget_lines` line-granular operations have
    /// been issued or the sweep finishes, whichever comes first; returns
    /// the number actually issued.  A zero budget still makes progress
    /// (one segment), so a co-run round-robin can never stall.
    pub fn advance<R: ReplacementPolicy, W: WritePolicy, const SIMD: bool>(
        &mut self,
        core: &mut PrivateCore<R, W, SIMD>,
        llc: &mut SetAssocCache<R, SIMD>,
        budget_lines: u64,
    ) -> u64 {
        let budget = budget_lines.max(1);
        let mut spent = 0u64;
        while !self.finished && spent < budget {
            if self.done >= self.sweep.inner {
                self.next_row();
                continue;
            }
            if self.scalar {
                // One faithful per-element iteration in drive_scalar order.
                let i = (self.sweep.i0 + self.done) as i64;
                let k = self.k as i64;
                for op in &self.sweep.operands {
                    for &(di, dk) in &op.offsets {
                        let addr = self.sweep.addr(op.base, i + di, k + dk);
                        scalar_access_split(core, llc, op.kind, addr);
                    }
                }
                self.done += 1;
                spent += self.ops_per_iter.max(1);
                continue;
            }
            // One segment, transcribed from `StencilRowSweep::drive_row`:
            // faithful first iteration in stream order, then provable bulk.
            let done = self.done;
            for s in &self.streams {
                scalar_access_split(core, llc, s.kind, s.row_base + done * ELEM_BYTES);
            }
            let mut seg = self.sweep.inner - done;
            for s in &self.streams {
                let addr = s.row_base + done * ELEM_BYTES;
                seg = seg.min((LINE_BYTES - addr % LINE_BYTES) / ELEM_BYTES);
            }
            if seg > 1 {
                let provable = self.streams.iter().all(|s| {
                    let line = line_of(s.row_base + done * ELEM_BYTES);
                    match s.kind {
                        AccessKind::Load => core.l1_contains(line),
                        AccessKind::Store => core.coalescer_at_line(line, false),
                        AccessKind::StoreNT => core.coalescer_at_line(line, true),
                    }
                });
                if provable {
                    for s in &self.streams {
                        let addr = s.row_base + (done + 1) * ELEM_BYTES;
                        let line = line_of(addr);
                        match s.kind {
                            AccessKind::Load => {
                                let resident = core.l1_touch_repeat(line, seg - 1);
                                debug_assert!(resident, "bulk phase cannot evict");
                            }
                            AccessKind::Store => core.store_line_segment(
                                llc,
                                line,
                                addr % LINE_BYTES,
                                (seg - 1) * ELEM_BYTES,
                                false,
                            ),
                            AccessKind::StoreNT => core.store_line_segment(
                                llc,
                                line,
                                addr % LINE_BYTES,
                                (seg - 1) * ELEM_BYTES,
                                true,
                            ),
                        }
                    }
                } else {
                    for step in 1..seg {
                        for s in &self.streams {
                            scalar_access_split(
                                core,
                                llc,
                                s.kind,
                                s.row_base + (done + step) * ELEM_BYTES,
                            );
                        }
                    }
                }
            }
            self.done += seg;
            spent += (self.streams.len() as u64).max(1);
        }
        spent
    }

    /// Advance to the next row, rebuilding the streams (aligned mode).
    fn next_row(&mut self) {
        self.k += 1;
        self.done = 0;
        if self.k >= self.sweep.k0 + self.sweep.rows {
            self.finished = true;
            return;
        }
        if !self.scalar {
            self.build_streams();
        }
    }

    /// Flatten the operands into per-row streams positioned at `i0` of the
    /// current row — the same flattening `StencilRowSweep::drive` performs.
    fn build_streams(&mut self) {
        self.streams.clear();
        let k = self.k as i64;
        let i0 = self.sweep.i0 as i64;
        for op in &self.sweep.operands {
            for &(di, dk) in &op.offsets {
                self.streams.push(StencilStream {
                    kind: op.kind,
                    row_base: self.sweep.addr(op.base, i0 + di, k + dk),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{CoreSimOptions, OccupancyContext};
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

    #[test]
    fn array_sweep_load_volume() {
        let mut core = serial_core();
        let sweep = ArraySweep {
            base: 0,
            elements: 8192,
            kind: AccessKind::Load,
        };
        sweep.drive(&mut core);
        let c = core.flush();
        let expected_lines = 8192.0 / 8.0;
        assert!(c.read_lines >= expected_lines);
        assert!(c.read_lines <= expected_lines * 1.05);
        assert_eq!(sweep.touched_bytes(), 8192 * 8);
    }

    #[test]
    fn row_sweep_addressing() {
        let r = RowSweep {
            base: 1000,
            inner: 216,
            halo: 5,
            rows: 3,
            kind: AccessKind::Store,
        };
        assert_eq!(r.stride_elements(), 221);
        assert_eq!(r.addr(0, 0), 1000);
        assert_eq!(r.addr(1, 0), 1000 + 221 * 8);
        assert_eq!(r.touched_bytes(), 3 * 216 * 8);
    }

    #[test]
    fn row_sweep_store_generates_writes() {
        let mut core = serial_core();
        let r = RowSweep {
            base: 0,
            inner: 216,
            halo: 5,
            rows: 8,
            kind: AccessKind::Store,
        };
        r.drive(&mut core);
        let c = core.flush();
        let touched_lines = r.touched_bytes() as f64 / 64.0;
        assert!(c.write_lines >= touched_lines * 0.95);
        // Serial run: every written line needs a write-allocate read.
        assert!(c.read_lines >= touched_lines * 0.9);
    }

    #[test]
    fn array_and_row_sweeps_match_their_scalar_reference() {
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::StoreNT] {
            let sweep = ArraySweep {
                base: 24,
                elements: 700,
                kind,
            };
            let mut fast = serial_core();
            let mut slow = serial_core();
            sweep.drive(&mut fast);
            sweep.drive_scalar(&mut slow);
            assert_eq!(fast.cache_stats(), slow.cache_stats());
            assert_eq!(fast.flush(), slow.flush());

            let rowsweep = RowSweep {
                base: 8 * 3,
                inner: 216,
                halo: 5,
                rows: 12,
                kind,
            };
            let mut fast = loaded_core();
            let mut slow = loaded_core();
            rowsweep.drive(&mut fast);
            rowsweep.drive_scalar(&mut slow);
            assert_eq!(fast.cache_stats(), slow.cache_stats());
            assert_eq!(fast.flush(), slow.flush());
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
        ];
        for (n, sweep) in sweeps.iter().enumerate() {
            for mk in [serial_core as fn() -> CoreSim, loaded_core] {
                let mut fast = mk();
                let mut slow = mk();
                sweep.drive(&mut fast);
                sweep.drive_scalar(&mut slow);
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
        sweep.drive_scalar(&mut slow);
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
