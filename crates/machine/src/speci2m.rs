//! Phenomenological parameter set of the SpecI2M write-allocate evasion
//! feature.
//!
//! Intel does not disclose the heuristics that govern SpecI2M; the paper
//! characterises the feature through microbenchmarks (store ratio vs. core
//! count and stream count, copy read/write ratio vs. inner-loop length and
//! halo size).  This module captures that characterisation as a parameter
//! set plus a closed-form efficiency function.  The cache simulator
//! (`clover-cachesim`) applies the efficiency per store stream; the analytic
//! models (`clover-core`) use the same function directly.
//!
//! The observed behaviour encoded here:
//!
//! * SpecI2M is **dynamic-adaptive**: it only engages when the memory
//!   bandwidth utilisation of the ccNUMA domain is high (Sec. V-A).
//! * Its effectiveness **degrades with the number of concurrent store
//!   streams** on Ice Lake SP (Fig. 5) but not on Sapphire Rapids (Fig. 10).
//! * It **fails on short inner loops**: store streaks of only a few cache
//!   lines (prime-rank decompositions → 216-element rows) evade far fewer
//!   write-allocates than long streaks (Fig. 8).
//! * Partial cache lines at row boundaries are never evaded and additionally
//!   trigger **speculative reads** that inflate the read volume — the
//!   "prime number effect" (Sec. V-C).
//! * Efficiency drops again when additional ccNUMA domains are populated
//!   (full node worse than full socket, Fig. 5).

/// How SpecI2M efficiency responds to the number of concurrent store
/// streams of one core.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StreamCountResponse {
    /// Multiplicative efficiency factor for 1, 2, 3, ... store streams.
    /// Streams beyond the table use the last entry.
    pub factors: Vec<f64>,
}

impl StreamCountResponse {
    /// Constant response (no stream-count dependence).
    pub fn flat() -> Self {
        Self { factors: vec![1.0] }
    }

    /// Factor for a given stream count (1-based; 0 is treated as 1).
    pub fn factor(&self, streams: usize) -> f64 {
        if self.factors.is_empty() {
            return 1.0;
        }
        let idx = streams.max(1).min(self.factors.len()) - 1;
        self.factors[idx]
    }
}

/// Everything the simulator/model needs to know about SpecI2M on one chip.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpecI2MParams {
    /// Whether the feature exists/is enabled (it can be switched off via an
    /// NDA'd MSR bit; the paper uses that switch to isolate the effect).
    pub enabled: bool,
    /// Domain bandwidth utilisation below which SpecI2M stays inactive.
    pub activation_utilization: f64,
    /// Domain bandwidth utilisation above which SpecI2M reaches its full
    /// efficiency.
    pub full_effect_utilization: f64,
    /// Maximum fraction of write-allocates evaded for an ideal workload
    /// (single long store stream, one ccNUMA domain populated).
    pub max_evasion: f64,
    /// Efficiency penalty when every ccNUMA domain of the node is populated
    /// (the full-node store ratio is worse than the full-socket one).
    /// 0 = no penalty, 0.2 = 20 % efficiency loss at full node.
    pub node_population_penalty: f64,
    /// Stream-count response (Ice Lake degrades, Sapphire Rapids does not).
    pub stream_response: StreamCountResponse,
    /// Characteristic store-streak length (in cache lines) of the
    /// exponential streak response `1 - exp(-lines/scale)`.
    pub streak_scale_lines: f64,
    /// Fraction of *failed* SpecI2M attempts (eligible full-line stores that
    /// were not evaded while the feature is active) that additionally incur
    /// a speculative read of the line into L3 — the mechanism behind the
    /// extra read volume of the prime-number effect.
    pub speculative_read_penalty: f64,
    /// Fraction of NT (non-temporal) stores whose write-combine buffer is
    /// flushed partially under full-node load, causing a read despite the NT
    /// hint (the NT store ratio rises from 1.0 to ~1.16 on ICX).
    pub nt_partial_flush_max: f64,
}

/// The part of the SpecI2M response that the number of concurrent store
/// streams cannot change: activation ramp, streak-length response and
/// node-population factor.  An analytic point derives it once for all its
/// loops ([`SpecI2MParams::response`]) and applies it per stream count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpecI2MResponse {
    ramp: f64,
    streak: f64,
    node: f64,
}

impl SpecI2MResponse {
    /// The response composed from an activation ramp, a node-population
    /// factor and a streak response — bit for bit what
    /// [`SpecI2MParams::response`] returns for the occupancy and streak
    /// those three values were computed at.  A caller that holds the two
    /// occupancy factors fixed (the cache simulator, for a whole
    /// simulation) computes them once and only the streak response per
    /// store line.
    #[inline]
    pub fn with_streak(ramp: f64, node: f64, streak: f64) -> Self {
        if ramp <= 0.0 {
            return Self::default();
        }
        Self { ramp, streak, node }
    }
}

impl SpecI2MParams {
    /// Parameter set representing a chip without any automatic
    /// write-allocate evasion (or with the feature switched off).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            activation_utilization: 1.0,
            full_effect_utilization: 1.0,
            max_evasion: 0.0,
            node_population_penalty: 0.0,
            stream_response: StreamCountResponse::flat(),
            streak_scale_lines: 1.0,
            speculative_read_penalty: 0.0,
            nt_partial_flush_max: 0.0,
        }
    }

    /// Ramp factor (0..=1) describing how far SpecI2M has "kicked in" at a
    /// given domain bandwidth utilisation.
    pub fn activation_ramp(&self, utilization: f64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let u = utilization.clamp(0.0, 1.0);
        if u <= self.activation_utilization {
            0.0
        } else if u >= self.full_effect_utilization {
            1.0
        } else {
            (u - self.activation_utilization)
                / (self.full_effect_utilization - self.activation_utilization)
        }
    }

    /// Streak-length response (0..=1): long consecutive full-line store
    /// streaks are detected reliably, short ones are not.
    pub fn streak_response(&self, streak_lines: f64) -> f64 {
        if streak_lines <= 0.0 {
            return 0.0;
        }
        1.0 - (-streak_lines / self.streak_scale_lines).exp()
    }

    /// Penalty factor (0..=1 multiplier) from populating several ccNUMA
    /// domains.
    pub fn node_population_factor(&self, active_domains: usize, total_domains: usize) -> f64 {
        if total_domains <= 1 || active_domains <= 1 {
            return 1.0;
        }
        let frac = (active_domains.min(total_domains) - 1) as f64 / (total_domains - 1) as f64;
        1.0 - self.node_population_penalty * frac
    }

    /// The stream-independent part of the SpecI2M response at one
    /// occupancy and streak length.
    #[inline]
    pub fn response(
        &self,
        domain_utilization: f64,
        active_domains: usize,
        total_domains: usize,
        streak_lines: f64,
    ) -> SpecI2MResponse {
        let ramp = self.activation_ramp(domain_utilization);
        if ramp <= 0.0 {
            // Disabled, or below the activation utilisation: both fractions
            // are exactly zero; skip the exp() of the streak response (the
            // store path of every serial measurement lands here).
            return SpecI2MResponse::default();
        }
        SpecI2MResponse::with_streak(
            ramp,
            self.node_population_factor(active_domains, total_domains),
            self.streak_response(streak_lines),
        )
    }

    /// Fraction of write-allocates evaded (0..=1) by a core issuing
    /// `store_streams` concurrent store streams under `response`.
    ///
    /// This is the central phenomenological function: the product of the
    /// machine's maximum evasion efficiency, the activation ramp, the
    /// stream-count response, the streak-length response and the
    /// node-population penalty, multiplied in exactly this order.
    #[inline]
    pub fn evasion_at(&self, response: &SpecI2MResponse, store_streams: usize) -> f64 {
        if response.ramp <= 0.0 {
            return 0.0;
        }
        let streams = self.stream_response.factor(store_streams);
        (self.max_evasion * response.ramp * streams * response.streak * response.node)
            .clamp(0.0, 1.0)
    }

    /// Fraction of eligible (full-line) stores that trigger a *speculative
    /// read* although they were not evaded.  Relevant for short streaks:
    /// SpecI2M starts speculating, fails, and the line is fetched anyway —
    /// sometimes more than once (adjacent-line prefetch), which is the
    /// origin of the up-to-24 % read inflation at prime rank counts.
    #[inline]
    pub fn speculative_reads_at(&self, response: &SpecI2MResponse) -> f64 {
        if response.ramp <= 0.0 {
            return 0.0;
        }
        // Failed attempts are those suppressed by the streak response.
        let failed = 1.0 - response.streak;
        (self.speculative_read_penalty * response.ramp * failed).clamp(0.0, 1.0)
    }

    /// Fraction of non-temporal stores that nevertheless cause a read
    /// (partial write-combine-buffer flush) at the given utilisation.
    pub fn nt_partial_flush_fraction(
        &self,
        domain_utilization: f64,
        active_domains: usize,
        total_domains: usize,
    ) -> f64 {
        let u = domain_utilization.clamp(0.0, 1.0);
        let pop = if total_domains <= 1 {
            1.0
        } else {
            0.5 + 0.5 * active_domains.min(total_domains) as f64 / total_domains as f64
        };
        (self.nt_partial_flush_max * u * pop).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{icelake_sp_8360y, sapphire_rapids_8480};

    /// Evasion fraction of a core issuing `streams` store streams at
    /// `util` utilisation with `domains` of 4 ccNUMA domains populated.
    fn evasion(p: &SpecI2MParams, util: f64, domains: usize, streams: usize, streak: f64) -> f64 {
        p.evasion_at(&p.response(util, domains, 4, streak), streams)
    }

    /// Speculative-read fraction at the same occupancy.
    fn speculative(p: &SpecI2MParams, util: f64, domains: usize, streak: f64) -> f64 {
        p.speculative_reads_at(&p.response(util, domains, 4, streak))
    }

    #[test]
    fn disabled_never_evades() {
        let p = SpecI2MParams::disabled();
        assert_eq!(evasion(&p, 1.0, 1, 1, 1000.0), 0.0);
        assert_eq!(speculative(&p, 1.0, 1, 1.0), 0.0);
    }

    #[test]
    fn switched_off_copy_keeps_other_params() {
        // The MSR switch clears `enabled` and nothing else.
        let p = icelake_sp_8360y().speci2m;
        let off = SpecI2MParams {
            enabled: false,
            ..p.clone()
        };
        assert_eq!(off.max_evasion, p.max_evasion);
        assert_eq!(evasion(&off, 1.0, 1, 1, 1000.0), 0.0);
        assert_eq!(speculative(&off, 1.0, 4, 27.0), 0.0);
    }

    #[test]
    fn icx_serial_code_sees_no_evasion() {
        let p = icelake_sp_8360y();
        let u = p.domain_utilization(1);
        let f = evasion(&p.speci2m, u, 1, 1, 1000.0);
        assert!(f < 0.05, "serial evasion should be negligible, got {f}");
    }

    #[test]
    fn icx_saturated_domain_evasion_is_high() {
        let p = icelake_sp_8360y().speci2m;
        let f = evasion(&p, 1.0, 1, 1, 2000.0);
        assert!(
            f > 0.9,
            "saturated single-domain evasion should exceed 90 %, got {f}"
        );
    }

    #[test]
    fn full_node_is_worse_than_full_socket_on_icx() {
        let p = icelake_sp_8360y().speci2m;
        let socket = evasion(&p, 1.0, 2, 1, 2000.0);
        let node = evasion(&p, 1.0, 4, 1, 2000.0);
        assert!(node < socket);
        // Full-node store ratio should land in the paper's 1.2–1.25 band.
        let ratio = 2.0 - node;
        assert!((1.15..=1.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn more_streams_hurt_on_icx_but_not_spr() {
        let icx = icelake_sp_8360y().speci2m;
        let spr = sapphire_rapids_8480().speci2m;
        assert!(evasion(&icx, 1.0, 1, 3, 2000.0) < evasion(&icx, 1.0, 1, 1, 2000.0));
        assert!(
            (evasion(&spr, 1.0, 1, 3, 2000.0) - evasion(&spr, 1.0, 1, 1, 2000.0)).abs() < 1e-12
        );
    }

    #[test]
    fn short_streaks_evade_less() {
        let p = icelake_sp_8360y().speci2m;
        let short = evasion(&p, 1.0, 4, 1, 27.0); // 216 doubles
        let long = evasion(&p, 1.0, 4, 1, 240.0); // 1920 doubles
        assert!(short < long);
        assert!(
            long - short > 0.15,
            "short loops must lose noticeably: {short} vs {long}"
        );
    }

    #[test]
    fn speculative_reads_only_for_short_streaks_under_load() {
        let p = icelake_sp_8360y().speci2m;
        assert_eq!(speculative(&p, 0.0, 1, 10.0), 0.0);
        let short = speculative(&p, 1.0, 4, 27.0);
        let long = speculative(&p, 1.0, 4, 2000.0);
        assert!(short > long);
        assert!(short > 0.05);
    }

    #[test]
    fn spr_evades_less_than_icx() {
        let icx = evasion(&icelake_sp_8360y().speci2m, 1.0, 1, 1, 2000.0);
        let spr = evasion(&sapphire_rapids_8480().speci2m, 1.0, 1, 1, 2000.0);
        assert!(spr < icx);
        // SPR evades roughly half of the write-allocates at best.
        let ratio = 2.0 - spr;
        assert!((1.4..=1.6).contains(&ratio), "SPR best ratio = {ratio}");
    }

    #[test]
    fn stream_response_clamps_index() {
        let r = StreamCountResponse {
            factors: vec![1.0, 0.9, 0.8],
        };
        assert_eq!(r.factor(0), 1.0);
        assert_eq!(r.factor(1), 1.0);
        assert_eq!(r.factor(3), 0.8);
        assert_eq!(r.factor(10), 0.8);
        assert_eq!(StreamCountResponse::flat().factor(7), 1.0);
    }

    #[test]
    fn activation_ramp_edges() {
        let p = icelake_sp_8360y().speci2m;
        assert_eq!(p.activation_ramp(0.0), 0.0);
        assert_eq!(p.activation_ramp(1.0), 1.0);
        let mid = p.activation_ramp((p.activation_utilization + p.full_effect_utilization) / 2.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn nt_partial_flush_band_on_icx() {
        let p = icelake_sp_8360y().speci2m;
        let at_node = p.nt_partial_flush_fraction(1.0, 4, 4);
        assert!(
            (0.12..=0.20).contains(&at_node),
            "NT flush fraction = {at_node}"
        );
        assert!(p.nt_partial_flush_fraction(0.05, 1, 4) < 0.02);
    }
}
