//! Machine descriptions for the write-allocate-evasion study.
//!
//! The paper evaluates three Intel Xeon server platforms:
//!
//! * **Ice Lake SP** (ICX): 2 × Xeon Platinum 8360Y, 36 cores/socket,
//!   Sub-NUMA Clustering (SNC) on → 4 ccNUMA domains of 18 cores,
//!   DDR4-3200, fixed 2.4 GHz.
//! * **Sapphire Rapids** (SPR) 8470: 2 × 52 cores, DDR5-4800, SNC
//!   configurable, fixed 2.0 GHz.
//! * **Sapphire Rapids** (SPR) 8480+: 2 × 56 cores, DDR5-4800, SNC off,
//!   fixed 2.0 GHz.
//!
//! This crate provides structural descriptions of those machines (cache
//! hierarchy, ccNUMA topology, bandwidth saturation behaviour) together with
//! the phenomenological parameter sets of the *SpecI2M* write-allocate
//! evasion feature that the cache simulator (`clover-cachesim`) and the
//! analytic models (`clover-core`) consume.
//!
//! Nothing in this crate performs measurements; it is pure data plus a few
//! closed-form curves (bandwidth saturation, SpecI2M efficiency response).

pub mod bandwidth;
pub mod cache;
pub mod policy;
pub mod presets;
pub mod speci2m;
pub mod topology;

pub use bandwidth::{BandwidthModel, SaturationCurve};
pub use cache::{CacheLevel, CacheSpec, MemoryHierarchySpec, CACHE_LINE_BYTES};
pub use policy::{replacement_names, write_policy_names, ReplacementPolicyKind, WritePolicyKind};
pub use presets::{
    cva6_like, icelake_sp_8360y, preset_by_name, preset_names, sapphire_rapids_8470,
    sapphire_rapids_8480, MachinePreset,
};
pub use speci2m::{SpecI2MParams, StreamCountResponse};
pub use topology::{CcNumaDomain, CoreId, DomainId, Pinning, SocketId, Topology};

/// A complete description of a test machine.
///
/// A [`Machine`] bundles the structural topology, the cache hierarchy, the
/// memory-bandwidth model and the SpecI2M parameter set of one of the
/// evaluated platforms.  All models and simulators in the workspace are
/// parameterised over a `Machine`, so adding a new platform only requires a
/// new preset in [`presets`].
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Human-readable name, e.g. `"Intel Xeon Platinum 8360Y (Ice Lake SP)"`.
    pub name: String,
    /// Short identifier used in CSV output, e.g. `"icx-8360y"`.
    pub id: String,
    /// Socket / ccNUMA / core layout.
    pub topology: Topology,
    /// Per-core cache hierarchy and shared last-level cache.
    pub caches: MemoryHierarchySpec,
    /// Main-memory bandwidth model (per ccNUMA domain saturation curve).
    pub bandwidth: BandwidthModel,
    /// Write-allocate-evasion (SpecI2M) behaviour of this chip.
    pub speci2m: SpecI2MParams,
    /// Fixed core clock in Hz (the paper pins the clock).
    pub clock_hz: f64,
    /// Peak double-precision flops per core per cycle (AVX-512 FMA: 16).
    pub dp_flops_per_cycle: f64,
}

impl Machine {
    /// Total number of cores in the machine.
    pub fn total_cores(&self) -> usize {
        self.topology.total_cores()
    }

    /// Peak double-precision floating-point performance of a single core in
    /// flop/s.
    pub fn core_peak_flops(&self) -> f64 {
        self.clock_hz * self.dp_flops_per_cycle
    }

    /// Saturated (attainable) memory bandwidth of a single ccNUMA domain in
    /// byte/s.
    pub fn domain_bandwidth(&self) -> f64 {
        self.bandwidth.domain_saturated_bw
    }

    /// Memory-bandwidth utilisation (0..=1) of the ccNUMA domain that holds
    /// `cores_in_domain` active, memory-bound cores.
    pub fn domain_utilization(&self, cores_in_domain: usize) -> f64 {
        self.bandwidth
            .curve
            .utilization(cores_in_domain)
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icx_core_count() {
        let m = icelake_sp_8360y();
        assert_eq!(m.total_cores(), 72);
        assert_eq!(m.topology.domains.len(), 4);
        assert_eq!(m.topology.cores_per_domain(), 18);
    }

    #[test]
    fn spr_core_counts() {
        assert_eq!(sapphire_rapids_8470(true).total_cores(), 104);
        assert_eq!(sapphire_rapids_8480().total_cores(), 112);
    }

    /// Aggregate attainable bandwidth of `n` compactly pinned cores, summed
    /// over the domain loads the scaling engine reads.
    fn compact_bandwidth(m: &Machine, n: usize) -> f64 {
        let (full_domains, cores_per_domain, remainder) = m.topology.compact_loads(n);
        let full = full_domains as f64 * m.bandwidth.domain_bandwidth(cores_per_domain);
        let partial = if remainder > 0 {
            m.bandwidth.domain_bandwidth(remainder)
        } else {
            0.0
        };
        full + partial
    }

    #[test]
    fn node_bandwidth_is_domains_times_domain_bw() {
        // Compact pinning of every core fills every domain.
        let m = icelake_sp_8360y();
        let domain = m.bandwidth.domain_bandwidth(m.topology.cores_per_domain());
        let node = compact_bandwidth(&m, m.total_cores());
        assert!((node - 4.0 * domain).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_monotone_in_cores() {
        let m = icelake_sp_8360y();
        let mut prev = 0.0;
        for n in 1..=m.total_cores() {
            let bw = compact_bandwidth(&m, n);
            assert!(bw >= prev - 1e-9, "bandwidth must be non-decreasing");
            prev = bw;
        }
    }

    #[test]
    fn full_node_bandwidth_close_to_sum_of_domains() {
        let m = icelake_sp_8360y();
        let full = compact_bandwidth(&m, m.total_cores());
        let sum = m.topology.domains.len() as f64 * m.domain_bandwidth();
        assert!(full <= sum + 1e-6);
        assert!(full >= 0.95 * sum);
    }

    #[test]
    fn core_peak_flops_icx() {
        let m = icelake_sp_8360y();
        // 2.4 GHz * 16 DP flops/cycle (2x AVX-512 FMA) = 38.4 Gflop/s
        assert!((m.core_peak_flops() - 38.4e9).abs() < 1e6);
    }
}
