//! Store-stream tracking: write coalescing, full-line detection and streak
//! lengths.
//!
//! Both SpecI2M and non-temporal stores only avoid the write-allocate when a
//! cache line is overwritten *entirely* by a consecutive burst of stores.
//! The hardware detects this in the store buffers; we model it with a small
//! table of open "write streams", each tracking the byte coverage of its
//! current line and the length of its streak of consecutive full lines.
//!
//! The per-line results are handed back to the hierarchy simulator, which
//! decides — based on the machine's SpecI2M parameters — whether the
//! write-allocate is evaded.

use crate::access::{line_of, LINE_BYTES};

/// Result of finalizing one written cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinalizedLine {
    /// Line index.
    pub line: u64,
    /// Whether every byte of the line was covered by stores.
    pub full: bool,
    /// Estimated streak length in lines the hardware would attribute to the
    /// stream at this point (steady-state rows report the full row length).
    pub streak_estimate: f64,
    /// Number of store streams the core had open when the line completed.
    pub active_streams: usize,
}

#[derive(Debug, Clone)]
struct WriteStream {
    /// Line currently being assembled.
    line: u64,
    /// Byte coverage bitmask of the current line (bit i = byte i written).
    coverage: u64,
    /// Consecutive full lines completed by this stream without a gap.
    current_streak: u64,
    /// Length of the last completed streak (e.g. the previous grid row).
    last_streak: u64,
    /// LRU stamp.
    stamp: u64,
}

impl WriteStream {
    fn full(&self) -> bool {
        self.coverage == u64::MAX
    }
}

/// Tracks the open store streams of one core.
#[derive(Debug, Clone)]
pub struct WriteCoalescer {
    streams: Vec<WriteStream>,
    max_streams: usize,
    stamp: u64,
}

impl Default for WriteCoalescer {
    fn default() -> Self {
        Self::new(8)
    }
}

impl WriteCoalescer {
    /// Create a coalescer tracking at most `max_streams` concurrent store
    /// streams (the hardware store buffer can only follow a handful).
    pub fn new(max_streams: usize) -> Self {
        assert!(max_streams > 0);
        Self {
            streams: Vec::new(),
            max_streams,
            stamp: 0,
        }
    }

    /// Number of store streams currently open.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// True if some open stream is currently assembling `line`.  Batched
    /// drivers use this to prove that a follow-up [`store_segment`] on the
    /// same line is a pure coverage merge (no event, no stream churn).
    ///
    /// [`store_segment`]: Self::store_segment
    pub fn stream_at_line(&self, line: u64) -> bool {
        self.streams.iter().any(|s| s.line == line)
    }

    /// Drop every open stream without finalizing it and reset the stamp,
    /// reusing the allocation.  Afterwards the coalescer is
    /// indistinguishable from a freshly constructed one.
    pub fn reset(&mut self) {
        self.streams.clear();
        self.stamp = 0;
    }

    /// Record a store of `bytes` bytes at `addr`.  Returns the lines that
    /// were *finalized* by this store (the stream moved past them or a new
    /// stream displaced an old one).
    ///
    /// This is the allocating convenience wrapper around
    /// [`store_segment`]; hot paths split the store into per-line segments
    /// themselves and consume each event as it is produced.
    ///
    /// [`store_segment`]: Self::store_segment
    pub fn store(&mut self, addr: u64, bytes: u32) -> Vec<FinalizedLine> {
        let mut finalized = Vec::new();
        let mut addr = addr;
        let mut remaining = bytes as u64;
        while remaining > 0 {
            let line = line_of(addr);
            let offset = addr % LINE_BYTES;
            let in_line = (LINE_BYTES - offset).min(remaining);
            finalized.extend(self.store_segment(line, offset, in_line));
            addr += in_line;
            remaining -= in_line;
        }
        finalized
    }

    fn coverage_mask(offset: u64, len: u64) -> u64 {
        debug_assert!(offset + len <= LINE_BYTES);
        if len >= 64 {
            u64::MAX
        } else {
            ((1u64 << len) - 1) << offset
        }
    }

    /// Record a store covering `[offset, offset + len)` of a single cache
    /// line.  Returns the at most one line this store finalizes (a stream
    /// advanced past its previous line, or a new stream displaced the
    /// oldest).  This is the allocation-free core of the store path: an
    /// 8-byte scalar store and a 64-byte batched line store both cost one
    /// call.
    pub fn store_segment(&mut self, line: u64, offset: u64, len: u64) -> Option<FinalizedLine> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mask = Self::coverage_mask(offset, len);

        // 1. The store continues an existing stream on its current line.
        if let Some(s) = self.streams.iter_mut().find(|s| s.line == line) {
            s.coverage |= mask;
            s.stamp = stamp;
            return None;
        }

        // 2. The store advances an existing stream to a nearby later line.
        //    Small forward gaps (an aligned halo of up to a few cache lines)
        //    do not break the hardware's stream detection, so the streak
        //    carries across them as long as the completed lines were full.
        const GAP_TOLERANCE: u64 = 4;
        let active = self.streams.len();
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|s| line > s.line && line - s.line <= GAP_TOLERANCE)
        {
            let was_full = s.full();
            if was_full {
                s.current_streak += 1;
            } else {
                if s.current_streak > 0 {
                    s.last_streak = s.current_streak;
                }
                s.current_streak = 0;
            }
            let streak_estimate = s.current_streak.max(s.last_streak) as f64;
            let finalized = FinalizedLine {
                line: s.line,
                full: was_full,
                streak_estimate,
                active_streams: active,
            };
            s.line = line;
            s.coverage = mask;
            s.stamp = stamp;
            return Some(finalized);
        }

        // 3. Otherwise open a new stream, possibly displacing the oldest.
        let mut finalized = None;
        if self.streams.len() >= self.max_streams {
            let (idx, _) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("non-empty streams");
            let old = self.streams.swap_remove(idx);
            finalized = Some(Self::finalize_stream(&old, self.streams.len() + 1));
        }
        self.streams.push(WriteStream {
            line,
            coverage: mask,
            current_streak: 0,
            last_streak: 0,
            stamp,
        });
        finalized
    }

    fn finalize_stream(s: &WriteStream, active: usize) -> FinalizedLine {
        let full = s.full();
        let streak = if full {
            s.current_streak + 1
        } else {
            s.current_streak
        };
        FinalizedLine {
            line: s.line,
            full,
            streak_estimate: streak.max(s.last_streak) as f64,
            active_streams: active,
        }
    }

    /// Finalize every open stream (end of a measurement region or kernel).
    pub fn flush(&mut self) -> Vec<FinalizedLine> {
        let active = self.streams.len();
        let out = self
            .streams
            .iter()
            .map(|s| Self::finalize_stream(s, active))
            .collect();
        self.streams.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Store an entire contiguous array of `n` doubles starting at `base`,
    /// 8 bytes at a time, and return all finalized lines plus the flush.
    fn store_doubles(c: &mut WriteCoalescer, base: u64, n: u64) -> Vec<FinalizedLine> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend(c.store(base + 8 * i, 8));
        }
        out
    }

    #[test]
    fn contiguous_stores_produce_full_lines() {
        let mut c = WriteCoalescer::new(4);
        let mut lines = store_doubles(&mut c, 0, 64); // 8 lines worth
        lines.extend(c.flush());
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.full), "all lines fully covered");
    }

    #[test]
    fn streak_grows_with_consecutive_full_lines() {
        let mut c = WriteCoalescer::new(4);
        let lines = store_doubles(&mut c, 0, 64);
        // 7 lines finalized by advancing (the 8th is still open).
        assert_eq!(lines.len(), 7);
        let estimates: Vec<f64> = lines.iter().map(|l| l.streak_estimate).collect();
        assert_eq!(estimates, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn partial_line_breaks_streak_and_reports_not_full() {
        let mut c = WriteCoalescer::new(4);
        // Fill line 0 fully, then skip half of line 1, continue on line 2.
        store_doubles(&mut c, 0, 8); // line 0 complete, line cursor at 0
                                     // Write only the first 4 doubles of line 1.
        store_doubles(&mut c, 64, 4);
        // Jump to line 2: a new store at line 2 advances stream, finalizing
        // line 1 as partial.
        let fin = c.store(128, 8);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].full);
        assert_eq!(fin[0].line, 1);
    }

    #[test]
    fn unaligned_halo_rows_yield_partial_boundary_lines() {
        // Rows of 27 doubles (216 bytes + change): with a 5-double halo gap,
        // row starts are not line-aligned so boundary lines are partial.
        let mut c = WriteCoalescer::new(4);
        let row_elems = 27u64;
        let halo = 5u64;
        let mut all = Vec::new();
        for row in 0..4u64 {
            let base = (row * (row_elems + halo)) * 8;
            all.extend(store_doubles(&mut c, base, row_elems));
        }
        all.extend(c.flush());
        assert!(
            all.iter().any(|l| !l.full),
            "expect partial lines at row boundaries"
        );
        assert!(all.iter().any(|l| l.full), "interior lines are still full");
    }

    #[test]
    fn two_interleaved_streams_are_tracked_separately() {
        let mut c = WriteCoalescer::new(4);
        let mut fin = Vec::new();
        // Interleave stores to two far-apart arrays.
        for i in 0..32u64 {
            fin.extend(c.store(i * 8, 8));
            fin.extend(c.store(1 << 20 | (i * 8), 8));
        }
        assert_eq!(c.active_streams(), 2);
        fin.extend(c.flush());
        assert!(fin.iter().all(|l| l.full));
        assert!(fin.iter().all(|l| l.active_streams == 2));
    }

    #[test]
    fn stream_table_eviction_finalizes_oldest() {
        let mut c = WriteCoalescer::new(2);
        c.store(0, 8);
        c.store(1 << 20, 8);
        // Third distinct stream evicts the first (partial line).
        let fin = c.store(1 << 30, 8);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].full);
        assert_eq!(c.active_streams(), 2);
    }

    #[test]
    fn streak_estimate_uses_last_completed_row() {
        // Aligned rows of exactly 8 lines separated by a jump: after the
        // first row, the estimate for early lines of the next row should
        // report the previous row's length, not the small running count.
        let mut c = WriteCoalescer::new(4);
        let mut fin = store_doubles(&mut c, 0, 64); // row 0: lines 0..8
                                                    // Jump to a new row far away (same stream cannot continue).
        fin.extend(store_doubles(&mut c, 1 << 16, 64));
        fin.extend(c.flush());
        // Find finalized lines belonging to the second row.
        let second_row: Vec<&FinalizedLine> =
            fin.iter().filter(|l| l.line >= (1 << 16) / 64).collect();
        assert!(!second_row.is_empty());
        // The coalescer opens a fresh stream for the jump, so the streak
        // estimate within the new row grows again from 1 — this mirrors the
        // hardware losing its history on a far jump.
        assert!(second_row[0].streak_estimate >= 1.0);
    }

    #[test]
    fn coverage_mask_edges() {
        assert_eq!(WriteCoalescer::coverage_mask(0, 64), u64::MAX);
        assert_eq!(WriteCoalescer::coverage_mask(0, 8), 0xFF);
        assert_eq!(WriteCoalescer::coverage_mask(56, 8), 0xFF00_0000_0000_0000);
    }

    #[test]
    fn zero_byte_store_is_noop() {
        let mut c = WriteCoalescer::new(2);
        assert!(c.store(0, 0).is_empty());
        assert_eq!(c.active_streams(), 0);
    }
}
