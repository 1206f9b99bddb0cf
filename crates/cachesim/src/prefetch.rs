//! Hardware prefetcher models: adjacent-line and streamer prefetch.
//!
//! The paper's Fig. 8 compares the copy microbenchmark with all hardware
//! prefetchers enabled and disabled ("PF off").  Two effects matter for the
//! memory traffic:
//!
//! * the **adjacent-line prefetcher** fetches the buddy line of every demand
//!   miss, effectively doubling the line size — harmless for long sequential
//!   streams (the buddy is needed anyway) but wasteful for short rows;
//! * the **streamer** runs ahead of sequential miss streams and keeps the
//!   line-fill buffers busy; the paper observes that active prefetchers and
//!   long streams *help* SpecI2M, while disabling them makes the
//!   read-to-write ratio rise drastically for partially written lines.
//!
//! The streamer here detects ascending sequential misses within 4 KiB pages
//! and issues a configurable number of prefetch requests ahead of the
//! demand stream.  It tracks up to sixteen pages in a fixed array
//! scanned linearly — one compare per tracked page, no hashing — and, when
//! all are taken, forgets the page whose last demand miss is oldest.

/// Page size used for stream detection (prefetchers do not cross 4 KiB
/// boundaries).
const PAGE_LINES: u64 = 4096 / 64;

/// Configuration of the hardware prefetchers of one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetcherConfig {
    /// Adjacent-line ("buddy") prefetcher enabled.
    pub adjacent_line: bool,
    /// Streamer prefetcher enabled.
    pub streamer: bool,
    /// How many lines the streamer runs ahead of the demand stream.
    pub streamer_distance: u64,
    /// Multiplier applied to the SpecI2M evasion efficiency when the
    /// prefetchers are *disabled* (the paper observes prefetchers assist
    /// the feature; "PF off" makes the read-to-write ratio rise).
    pub pf_off_evasion_factor: f64,
}

impl PrefetcherConfig {
    /// All prefetchers on (the default BIOS setting of the test systems).
    pub fn enabled() -> Self {
        Self {
            adjacent_line: true,
            streamer: true,
            streamer_distance: 8,
            pf_off_evasion_factor: 0.55,
        }
    }

    /// All prefetchers off (the paper's "PF off" experiments).
    pub fn disabled() -> Self {
        Self {
            adjacent_line: false,
            streamer: false,
            streamer_distance: 0,
            pf_off_evasion_factor: 0.55,
        }
    }

    /// True if any prefetcher is active.
    pub fn any_enabled(&self) -> bool {
        self.adjacent_line || self.streamer
    }

    /// Factor applied to the SpecI2M evasion efficiency under this
    /// prefetcher configuration.
    pub fn evasion_factor(&self) -> f64 {
        if self.any_enabled() {
            1.0
        } else {
            self.pf_off_evasion_factor
        }
    }
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        Self::enabled()
    }
}

/// Pages the streamer tracks at once.
const STREAMS: usize = 16;

/// One tracked page.
#[derive(Debug, Clone, Copy)]
struct Stream {
    page: u64,
    /// When this page last missed, on the streamer's miss clock; `0` for a
    /// slot never used, which is therefore the first to be taken.
    stamp: u64,
    last_line: u64,
    ascending_hits: u32,
    prefetched_up_to: u64,
}

/// A slot never used: its page is none a line can have (`line / 64 <=
/// 2^52`).
const UNUSED: Stream = Stream {
    page: u64::MAX,
    stamp: 0,
    last_line: 0,
    ascending_hits: 0,
    prefetched_up_to: 0,
};

/// Streamer prefetcher: detects ascending sequential demand-miss streams per
/// page and issues prefetches ahead of them.
#[derive(Debug, Clone)]
pub struct StreamerPrefetcher {
    streams: [Stream; STREAMS],
    /// Demand misses seen: the clock of the `stamp`s.
    clock: u64,
    distance: u64,
}

impl StreamerPrefetcher {
    /// Create a streamer with the given lookahead distance (lines).
    pub fn new(distance: u64) -> Self {
        Self {
            streams: [UNUSED; STREAMS],
            clock: 0,
            distance,
        }
    }

    /// Forget every tracked stream and adopt a new lookahead distance (the
    /// counterpart of `new` used by `CoreSim::reset`).
    pub fn reset(&mut self, distance: u64) {
        *self = Self::new(distance);
    }

    /// Inform the prefetcher about a demand read miss at `line`.  Returns
    /// the contiguous range of lines it wants to prefetch, if any — the
    /// streamer always requests a gap-free window ahead of the stream, so a
    /// `Range` conveys it without allocating.
    pub fn on_demand_miss(&mut self, line: u64) -> Option<std::ops::Range<u64>> {
        if self.distance == 0 {
            return None;
        }
        let page = line / PAGE_LINES;
        let page_end = (page + 1) * PAGE_LINES;
        self.clock += 1;
        if let Some(s) = self.streams.iter_mut().find(|s| s.page == page) {
            s.stamp = self.clock;
            let ascending = line == s.last_line + 1;
            s.last_line = line;
            if ascending {
                s.ascending_hits += 1;
            } else {
                s.ascending_hits = 0;
                s.prefetched_up_to = line;
                return None;
            }
            if s.ascending_hits >= 2 {
                let start = s.prefetched_up_to.max(line) + 1;
                let end = (line + self.distance + 1).min(page_end);
                if start < end {
                    s.prefetched_up_to = end - 1;
                    return Some(start..end);
                }
            }
            None
        } else {
            // A new page takes the slot whose page missed longest ago
            // (stamps are distinct but for the never-used slots', any of
            // which will do).
            let oldest = (self.streams.iter_mut())
                .min_by_key(|s| s.stamp)
                .expect("the table has slots");
            *oldest = Stream {
                page,
                stamp: self.clock,
                last_line: line,
                ascending_hits: 0,
                prefetched_up_to: line,
            };
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert!(PrefetcherConfig::enabled().any_enabled());
        assert!(!PrefetcherConfig::disabled().any_enabled());
        assert_eq!(PrefetcherConfig::enabled().evasion_factor(), 1.0);
        assert!(PrefetcherConfig::disabled().evasion_factor() < 1.0);
    }

    #[test]
    fn streamer_needs_a_sequential_run_before_prefetching() {
        let mut p = StreamerPrefetcher::new(4);
        assert!(p.on_demand_miss(100).is_none());
        assert!(p.on_demand_miss(101).is_none());
        let pf = p
            .on_demand_miss(102)
            .expect("third sequential miss should trigger prefetch");
        assert!(pf.start > 102);
        assert!(!pf.is_empty());
    }

    #[test]
    fn streamer_does_not_cross_page_boundary() {
        let mut p = StreamerPrefetcher::new(16);
        let page_last = PAGE_LINES - 1;
        p.on_demand_miss(page_last - 2);
        p.on_demand_miss(page_last - 1);
        let pf = p.on_demand_miss(page_last);
        assert!(
            pf.is_none(),
            "prefetch must stop at the page boundary, got {pf:?}"
        );
    }

    #[test]
    fn streamer_resets_on_non_sequential_access() {
        let mut p = StreamerPrefetcher::new(4);
        p.on_demand_miss(10);
        p.on_demand_miss(11);
        assert!(p.on_demand_miss(12).is_some());
        // Jump backwards: the stream resets and needs a new run.
        assert!(p.on_demand_miss(5).is_none());
        assert!(p.on_demand_miss(6).is_none());
        assert!(p.on_demand_miss(7).is_some());
    }

    #[test]
    fn streamer_does_not_reprefetch_already_covered_lines() {
        let mut p = StreamerPrefetcher::new(4);
        p.on_demand_miss(20);
        p.on_demand_miss(21);
        let first = p.on_demand_miss(22).unwrap_or(0..0);
        let second = p.on_demand_miss(23).unwrap_or(0..0);
        // The second batch must not contain lines already prefetched.
        assert!(second.start >= first.end);
    }

    #[test]
    fn a_seventeenth_page_takes_the_slot_of_the_least_recently_missed() {
        let line = |page: u64, i: u64| page * PAGE_LINES + i;
        let mut p = StreamerPrefetcher::new(4);
        // Sixteen interleaved pages, each one ascending miss short of
        // prefetching.
        for i in 0..2 {
            for page in 0..STREAMS as u64 {
                assert!(p.on_demand_miss(line(page, i)).is_none());
            }
        }
        // A miss on a tracked page refreshes its recency: page 0 is now
        // the youngest, page 1 the oldest — which the seventeenth page
        // replaces.
        assert!(p.on_demand_miss(line(0, 2)).is_some());
        assert!(p.on_demand_miss(line(16, 0)).is_none());
        assert!(p.on_demand_miss(line(0, 3)).is_some(), "page 0 survived");
        // Page 1 is forgotten: its next ascending miss starts a fresh
        // stream (in the slot of page 2, by now the oldest) that needs a
        // new run before it prefetches.
        assert!(p.on_demand_miss(line(1, 2)).is_none());
        assert!(p.on_demand_miss(line(1, 3)).is_none());
        assert!(p.on_demand_miss(line(1, 4)).is_some());
        assert!(p.on_demand_miss(line(3, 2)).is_some(), "page 3 survived");
        assert!(p.on_demand_miss(line(2, 2)).is_none(), "page 2 did not");
    }

    #[test]
    fn misses_two_lines_apart_never_start_a_stream() {
        // What a sequential load stream shows the streamer once the
        // adjacent-line prefetcher has filled each miss's buddy: every
        // second line.  A miss counts as ascending only one line above the
        // last, so no prefetch is ever issued, from an even start or an odd
        // one.
        for start in [5 * PAGE_LINES, 5 * PAGE_LINES + 1] {
            let mut p = StreamerPrefetcher::new(8);
            for line in (start..6 * PAGE_LINES).step_by(2) {
                assert!(p.on_demand_miss(line).is_none(), "line {line}");
            }
        }
    }

    #[test]
    fn zero_distance_streamer_is_inert() {
        let mut p = StreamerPrefetcher::new(0);
        for l in 0..10 {
            assert!(p.on_demand_miss(l).is_none());
        }
    }

    #[test]
    fn reset_forgets_streams_and_adopts_new_distance() {
        let mut p = StreamerPrefetcher::new(4);
        p.on_demand_miss(10);
        p.on_demand_miss(11);
        assert!(p.on_demand_miss(12).is_some());
        p.reset(8);
        // History is gone: a new sequential run is needed again.
        assert!(p.on_demand_miss(13).is_none());
        assert!(p.on_demand_miss(14).is_none());
        let pf = p.on_demand_miss(15).expect("stream re-detected");
        // And the new lookahead distance is in effect.
        assert_eq!(pf.end - pf.start, 8);
    }
}
