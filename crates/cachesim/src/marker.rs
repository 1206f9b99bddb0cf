//! Region markers over the simulator's memory counters.
//!
//! The counterpart of LIKWID's Marker API, with which the paper attributes
//! the memory-controller counters to each hotspot loop: a region is
//! bracketed by [`PerfMonitor::start`]/[`PerfMonitor::stop`] snapshots of
//! the [`MemCounters`], and the delta accumulates under the region's name.

use std::collections::HashMap;

use crate::MemCounters;

/// Accumulated statistics of one marked region.
#[derive(Debug, Clone, Default)]
pub struct RegionStats {
    /// Number of start/stop pairs recorded.
    pub call_count: u64,
    /// Accumulated traffic counters (deltas between start and stop).
    pub counters: MemCounters,
}

impl RegionStats {
    /// Memory data volume (read + write) in bytes.
    pub fn data_volume(&self) -> f64 {
        self.counters.total_bytes()
    }

    /// Code balance in byte per iteration for a region that performed
    /// `iterations` grid-point updates in total.
    pub fn bytes_per_iteration(&self, iterations: f64) -> f64 {
        if iterations <= 0.0 {
            0.0
        } else {
            self.data_volume() / iterations
        }
    }
}

/// The marker registry of one rank.
#[derive(Debug, Default)]
pub struct PerfMonitor {
    regions: HashMap<String, RegionStats>,
    open: HashMap<String, MemCounters>,
}

impl PerfMonitor {
    /// Create an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a region, snapshotting the current counters.
    pub fn start(&mut self, name: &str, counters: MemCounters) {
        self.open.insert(name.to_string(), counters);
    }

    /// Stop a region, attributing the counter delta since `start`.
    ///
    /// # Panics
    /// Panics if the region was never started.
    pub fn stop(&mut self, name: &str, counters: MemCounters) {
        let start = self
            .open
            .remove(name)
            .unwrap_or_else(|| panic!("region '{name}' stopped without start"));
        let stats = self.regions.entry(name.to_string()).or_default();
        stats.call_count += 1;
        stats.counters.merge(&counters.delta(&start));
    }

    /// Look up the accumulated statistics of a region.
    pub fn region(&self, name: &str) -> Option<&RegionStats> {
        self.regions.get(name)
    }

    /// All regions sorted by name.
    pub fn regions(&self) -> Vec<(&str, &RegionStats)> {
        let mut v: Vec<(&str, &RegionStats)> =
            self.regions.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Merge the regions of another monitor (e.g. another rank) into this
    /// one.
    pub fn merge(&mut self, other: &PerfMonitor) {
        for (name, stats) in &other.regions {
            let entry = self.regions.entry(name.clone()).or_default();
            entry.call_count += stats.call_count;
            entry.counters.merge(&stats.counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(read: f64, write: f64) -> MemCounters {
        MemCounters {
            read_lines: read,
            write_lines: write,
            ..Default::default()
        }
    }

    #[test]
    fn start_stop_attributes_delta() {
        let mut mon = PerfMonitor::new();
        mon.start("am04", counters(10.0, 5.0));
        mon.stop("am04", counters(30.0, 15.0));
        let r = mon.region("am04").unwrap();
        assert_eq!(r.call_count, 1);
        assert_eq!(r.counters.read_lines, 20.0);
        assert_eq!(r.counters.write_lines, 10.0);
        assert_eq!(r.data_volume(), 30.0 * 64.0);
    }

    #[test]
    fn repeated_calls_accumulate() {
        let mut mon = PerfMonitor::new();
        for i in 0..3u64 {
            let base = i as f64 * 100.0;
            mon.start("loop", counters(base, base));
            mon.stop("loop", counters(base + 1.0, base + 2.0));
        }
        let r = mon.region("loop").unwrap();
        assert_eq!(r.call_count, 3);
        assert_eq!(r.counters.read_lines, 3.0);
        assert_eq!(r.counters.write_lines, 6.0);
    }

    #[test]
    fn bytes_per_iteration() {
        let mut mon = PerfMonitor::new();
        mon.start("x", counters(0.0, 0.0));
        mon.stop("x", counters(100.0, 50.0));
        let r = mon.region("x").unwrap();
        assert!((r.bytes_per_iteration(600.0) - 16.0).abs() < 1e-12);
        assert_eq!(r.bytes_per_iteration(0.0), 0.0);
    }

    #[test]
    fn merge_combines_ranks() {
        let mut a = PerfMonitor::new();
        a.start("k", counters(0.0, 0.0));
        a.stop("k", counters(10.0, 0.0));
        let mut b = PerfMonitor::new();
        b.start("k", counters(0.0, 0.0));
        b.stop("k", counters(5.0, 5.0));
        a.merge(&b);
        let r = a.region("k").unwrap();
        assert_eq!(r.call_count, 2);
        assert_eq!(r.counters.read_lines, 15.0);
    }

    #[test]
    #[should_panic(expected = "stopped without start")]
    fn stop_without_start_panics() {
        let mut mon = PerfMonitor::new();
        mon.stop("nope", counters(0.0, 0.0));
    }

    #[test]
    fn regions_listing_is_sorted() {
        let mut mon = PerfMonitor::new();
        for name in ["b", "a", "c"] {
            mon.start(name, counters(0.0, 0.0));
            mon.stop(name, counters(1.0, 0.0));
        }
        let names: Vec<&str> = mon.regions().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
