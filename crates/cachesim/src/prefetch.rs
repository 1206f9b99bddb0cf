//! Hardware prefetcher model: the adjacent-line prefetcher.
//!
//! The paper's Fig. 8 compares the copy microbenchmark with all hardware
//! prefetchers enabled and disabled ("PF off").  Two effects matter for the
//! memory traffic:
//!
//! * the **adjacent-line prefetcher** fetches the buddy line of every demand
//!   miss, effectively doubling the line size — harmless for long sequential
//!   streams (the buddy is needed anyway) but wasteful for short rows;
//! * active prefetchers and long streams *help* SpecI2M, while disabling
//!   them makes the read-to-write ratio rise drastically for partially
//!   written lines — modelled as a factor on the evasion efficiency.
//!
//! No stream prefetcher (the one that runs ahead of ascending miss
//! streams) is modelled.  The buddy fill hides every ascending pair: once
//! line `2k` misses, `2k + 1` is resident, so a sequential stream misses
//! only every second line, and a stream prefetcher that waits for misses
//! one line apart would never fire.

/// Configuration of the hardware prefetchers of one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetcherConfig {
    /// Adjacent-line ("buddy") prefetcher enabled.
    pub adjacent_line: bool,
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
            pf_off_evasion_factor: 0.55,
        }
    }

    /// All prefetchers off (the paper's "PF off" experiments).
    pub fn disabled() -> Self {
        Self {
            adjacent_line: false,
            pf_off_evasion_factor: 0.55,
        }
    }

    /// Factor applied to the SpecI2M evasion efficiency under this
    /// prefetcher configuration.
    pub fn evasion_factor(&self) -> f64 {
        if self.adjacent_line {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert!(PrefetcherConfig::enabled().adjacent_line);
        assert!(!PrefetcherConfig::disabled().adjacent_line);
        assert_eq!(PrefetcherConfig::enabled().evasion_factor(), 1.0);
        assert!(PrefetcherConfig::disabled().evasion_factor() < 1.0);
    }
}
