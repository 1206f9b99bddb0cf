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

use crate::access::LINE_BYTES;

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

#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// Store streams a core follows at once: the hardware store buffer can only
/// track a handful.  A store that would open a ninth displaces the least
/// recently stored-to stream.
const MAX_STREAMS: usize = 8;

/// Forward gap, in lines, across which a stream continues: a store at most
/// this many lines past a stream's line advances it (an aligned halo of a
/// few cache lines does not break the hardware's stream detection).
const GAP_TOLERANCE: u64 = 4;

/// The open streams of a [`WriteCoalescer`], in the order they were
/// opened: at most [`MAX_STREAMS`], held inline, so that a coalescer is a
/// plain value that copies without allocating.
#[derive(Debug, Clone, Copy, Default)]
struct Streams {
    table: [WriteStream; MAX_STREAMS],
    open: usize,
}

impl Streams {
    fn clear(&mut self) {
        self.open = 0;
    }

    fn push(&mut self, stream: WriteStream) {
        self.table[self.open] = stream;
        self.open += 1;
    }

    /// Close stream `idx`; the others keep their order.
    fn remove(&mut self, idx: usize) -> WriteStream {
        let stream = self.table[idx];
        self.table.copy_within(idx + 1..self.open, idx);
        self.open -= 1;
        stream
    }
}

impl std::ops::Deref for Streams {
    type Target = [WriteStream];
    fn deref(&self) -> &[WriteStream] {
        &self.table[..self.open]
    }
}

impl std::ops::DerefMut for Streams {
    fn deref_mut(&mut self) -> &mut [WriteStream] {
        &mut self.table[..self.open]
    }
}

impl PartialEq for Streams {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Tracks the open store streams of one core, in the order they were
/// opened: when several streams could continue at a store, the earliest
/// opened does, and [`flush`](Self::flush) finalizes them in that order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WriteCoalescer {
    streams: Streams,
    stamp: u64,
    /// The newest stamp a stream carried when a store moved it to another
    /// line or displaced it (see [`settled_since`](Self::settled_since)).
    moved_stamp: u64,
}

impl WriteCoalescer {
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

    /// The stamp of the last store, to hand to
    /// [`settled_since`](Self::settled_since) later.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// True if no stream stored to after `stamp` has since been moved to
    /// another line or displaced: every store since then still has an
    /// open stream on its line (a store leaves one there, and only such a
    /// move takes it away).  O(1), where [`stream_at_line`] scans.
    ///
    /// [`stream_at_line`]: Self::stream_at_line
    pub(crate) fn settled_since(&self, stamp: u64) -> bool {
        self.moved_stamp <= stamp
    }

    /// Whether stores to operands whose line windows (first and last line)
    /// are `windows`, each swept in address order, keep one stream per
    /// window: there are at most [`MAX_STREAMS`] windows, so no store opens
    /// a stream that displaces another (retiring a partial line that a
    /// later store opens and retires again), and they lie pairwise more
    /// than [`GAP_TOLERANCE`] lines apart, so no stream continues onto
    /// another window's line.  Allocates nothing.
    pub(crate) fn one_stream_per_window(windows: impl Iterator<Item = (u64, u64)> + Clone) -> bool {
        windows.clone().count() <= MAX_STREAMS
            && windows.clone().enumerate().all(|(a, (lo, hi))| {
                windows
                    .clone()
                    .skip(a + 1)
                    .all(|(first, last)| first > hi + GAP_TOLERANCE || lo > last + GAP_TOLERANCE)
            })
    }

    /// How many more periods like the one since stamp `since` — in which
    /// every stream stored to finalized `lines` full lines — finalize each
    /// line with the streak estimates the period did (see
    /// [`store_segment`](Self::store_segment)): a stream whose current
    /// streak has not outgrown its last one estimates the last one until
    /// the current one would, and a stream whose every estimate of the
    /// period is at least `saturation` (a streak from which every store
    /// line weighs the same) for ever.  `u64::MAX` where no stream bounds
    /// them.
    pub(crate) fn steady_periods(&self, since: u64, lines: u64, saturation: u64) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.stamp > since)
            .map(|s| {
                let (current, last) = (s.current_streak, s.last_streak);
                if current.saturating_sub(lines - 1).max(last) >= saturation {
                    u64::MAX
                } else if current <= last {
                    (last - current) / lines
                } else {
                    0
                }
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// How many more periods like the one since stamp `since` pass before
    /// one in which every stream stored to estimates every line at least
    /// `saturation`, where each period moves each such stream `lines`
    /// full lines on: the first line of the `k`-th period from now has a
    /// current streak `lines · k + 1` above the stream's.
    pub(crate) fn periods_to_saturation(&self, since: u64, lines: u64, saturation: u64) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.stamp > since && s.last_streak < saturation)
            .map(|s| {
                saturation
                    .saturating_sub(s.current_streak + 1)
                    .div_ceil(lines)
            })
            .max()
            .unwrap_or(0)
    }

    /// Step every stream stored to after stamp `since` on by `n` more
    /// periods like the one since: each period moves such a stream `lines`
    /// full lines on (its streak with it) and takes as many stamps as the
    /// period did.  What stepping those periods leaves, where each stream
    /// stored to in the period moved on exactly `lines` lines, finalizing
    /// each as full, and no store opened or displaced a stream.
    pub(crate) fn repeat_since(&mut self, since: u64, lines: u64, n: u64) {
        let stamps = (self.stamp - since) * n;
        for s in self.streams.iter_mut().filter(|s| s.stamp > since) {
            s.line += lines * n;
            s.current_streak += lines * n;
            s.stamp += stamps;
        }
        if self.moved_stamp > since {
            self.moved_stamp += stamps;
        }
        self.stamp += stamps;
    }

    /// Drop every open stream without finalizing it and reset the stamp.
    /// Afterwards the coalescer is indistinguishable from a freshly
    /// constructed one.
    pub fn reset(&mut self) {
        self.streams.clear();
        self.stamp = 0;
        self.moved_stamp = 0;
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

        // 2. The store advances an existing stream to a nearby later line
        //    (within `GAP_TOLERANCE`); the streak carries across the gap as
        //    long as the completed lines were full.
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
            self.moved_stamp = self.moved_stamp.max(s.stamp);
            s.line = line;
            s.coverage = mask;
            s.stamp = stamp;
            return Some(finalized);
        }

        // 3. Otherwise open a new stream, possibly displacing the oldest.
        let mut finalized = None;
        if self.streams.len() >= MAX_STREAMS {
            let (idx, _) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("non-empty streams");
            // `remove`, not `swap_remove`: the others keep their order.
            let old = self.streams.remove(idx);
            self.moved_stamp = self.moved_stamp.max(old.stamp);
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
    use crate::access::line_of;

    /// Store one 8-byte-aligned double at `addr`.
    fn store_double(c: &mut WriteCoalescer, addr: u64) -> Option<FinalizedLine> {
        c.store_segment(line_of(addr), addr % LINE_BYTES, 8)
    }

    /// Store an entire contiguous array of `n` doubles starting at `base`,
    /// 8 bytes at a time, and return the lines finalized on the way.
    fn store_doubles(c: &mut WriteCoalescer, base: u64, n: u64) -> Vec<FinalizedLine> {
        (0..n)
            .filter_map(|i| store_double(c, base + 8 * i))
            .collect()
    }

    #[test]
    fn contiguous_stores_produce_full_lines() {
        let mut c = WriteCoalescer::default();
        let mut lines = store_doubles(&mut c, 0, 64); // 8 lines worth
        lines.extend(c.flush());
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.full), "all lines fully covered");
    }

    #[test]
    fn streak_grows_with_consecutive_full_lines() {
        let mut c = WriteCoalescer::default();
        let lines = store_doubles(&mut c, 0, 64);
        // 7 lines finalized by advancing (the 8th is still open).
        assert_eq!(lines.len(), 7);
        let estimates: Vec<f64> = lines.iter().map(|l| l.streak_estimate).collect();
        assert_eq!(estimates, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn partial_line_breaks_streak_and_reports_not_full() {
        let mut c = WriteCoalescer::default();
        // Fill line 0 fully, then skip half of line 1, continue on line 2.
        store_doubles(&mut c, 0, 8); // line 0 complete, line cursor at 0
                                     // Write only the first 4 doubles of line 1.
        store_doubles(&mut c, 64, 4);
        // Jump to line 2: a new store at line 2 advances stream, finalizing
        // line 1 as partial.
        let fin = store_double(&mut c, 128).expect("line 1 is finalized");
        assert!(!fin.full);
        assert_eq!(fin.line, 1);
    }

    #[test]
    fn unaligned_halo_rows_yield_partial_boundary_lines() {
        // Rows of 27 doubles (216 bytes + change): with a 5-double halo gap,
        // row starts are not line-aligned so boundary lines are partial.
        let mut c = WriteCoalescer::default();
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
        let mut c = WriteCoalescer::default();
        let mut fin = Vec::new();
        // Interleave stores to two far-apart arrays.
        for i in 0..32u64 {
            fin.extend(store_double(&mut c, i * 8));
            fin.extend(store_double(&mut c, 1 << 20 | (i * 8)));
        }
        assert_eq!(c.active_streams(), 2);
        fin.extend(c.flush());
        assert!(fin.iter().all(|l| l.full));
        assert!(fin.iter().all(|l| l.active_streams == 2));
    }

    #[test]
    fn stream_table_eviction_finalizes_oldest() {
        let mut c = WriteCoalescer::default();
        // Eight far-apart streams fill the table; storing to the first
        // again makes the second the least recently used.
        for s in 0..MAX_STREAMS as u64 {
            assert_eq!(store_double(&mut c, s << 20), None);
        }
        assert_eq!(store_double(&mut c, 8), None);
        // A ninth displaces it: a partial line, finalized with the whole
        // table open.
        let fin = store_double(&mut c, 1 << 30).expect("a stream is displaced");
        assert_eq!(fin.line, line_of(1 << 20));
        assert!(!fin.full);
        assert_eq!(fin.active_streams, MAX_STREAMS);
        assert_eq!(c.active_streams(), MAX_STREAMS);
        // The others are still open, flushed in the order they were opened
        // (the ninth last).
        let order: Vec<u64> = c.flush().iter().map(|l| l.line).collect();
        let mut expected: Vec<u64> = (0..MAX_STREAMS as u64)
            .filter(|&s| s != 1)
            .map(|s| line_of(s << 20))
            .collect();
        expected.push(line_of(1 << 30));
        assert_eq!(order, expected);
    }

    #[test]
    fn settled_since_sees_every_stream_moved_after_the_stamp() {
        let mut c = WriteCoalescer::default();
        store_double(&mut c, 0);
        store_double(&mut c, 1 << 20);
        // Stores that merge, open a stream or move one stored to before
        // the stamp leave every store since it on its line.
        let stamp = c.stamp();
        store_double(&mut c, 8);
        store_double(&mut c, (1 << 20) + 64);
        store_double(&mut c, 2 << 20);
        assert!(c.settled_since(stamp));
        // Moving one stored to since the stamp does not.
        store_double(&mut c, 64);
        assert!(!c.settled_since(stamp));
        assert!(c.settled_since(c.stamp()));
        // Displacing a stream: only one stored to since the stamp counts.
        let mut c = WriteCoalescer::default();
        for s in 0..=MAX_STREAMS as u64 {
            store_double(&mut c, s << 20);
        }
        let stamp = c.stamp();
        assert!(store_double(&mut c, 1 << 30).is_some());
        assert!(c.settled_since(stamp));
        for s in 0..=MAX_STREAMS as u64 {
            store_double(&mut c, (s << 20) + 8);
        }
        assert!(!c.settled_since(stamp));
    }

    #[test]
    fn the_earliest_opened_of_two_candidate_streams_continues() {
        let mut c = WriteCoalescer::default();
        // Streams on lines 2 and 0, opened in that order: a store to line 3
        // is within the gap of both, and the earlier one moves.
        for line in [2u64, 0] {
            assert_eq!(store_double(&mut c, line * 64), None);
        }
        let fin = store_double(&mut c, 3 * 64).expect("a stream advances");
        assert_eq!(fin.line, 2);
        assert!(c.stream_at_line(0) && c.stream_at_line(3));
    }

    #[test]
    fn streak_estimate_uses_last_completed_row() {
        // Aligned rows of exactly 8 lines separated by a jump: after the
        // first row, the estimate for early lines of the next row should
        // report the previous row's length, not the small running count.
        let mut c = WriteCoalescer::default();
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
        // A run of no elements reaches no coalescer: nothing opens, nothing
        // is finalized at the flush, no level is probed.
        use crate::access::AccessRun;
        use crate::hierarchy::{CoreSim, CoreSimOptions, OccupancyContext};
        let m = clover_machine::icelake_sp_8360y();
        let mut core = CoreSim::new(&m, OccupancyContext::serial(&m), CoreSimOptions::default());
        core.drive_run(AccessRun::store(0, 0));
        core.drive_run(AccessRun::store_nt(0, 0));
        assert_eq!(core.flush(), crate::counters::MemCounters::new());
        assert_eq!(core.cache_stats(), [(0, 0); 3]);
    }
}
