//! Machine presets for the three evaluated platforms.

use crate::bandwidth::{BandwidthModel, SaturationCurve};
use crate::cache::{CacheLevel, CacheSpec, MemoryHierarchySpec, CACHE_LINE_BYTES};
use crate::policy::WritePolicyKind;
use crate::speci2m::{SpecI2MParams, StreamCountResponse};
use crate::topology::Topology;
use crate::Machine;

/// Identifies one of the predefined machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachinePreset {
    /// Intel Xeon Platinum 8360Y, "Ice Lake SP", SNC on (4 domains × 18 cores).
    IceLakeSp8360y,
    /// Intel Xeon Platinum 8470, "Sapphire Rapids", SNC configurable.
    SapphireRapids8470 {
        /// Whether Sub-NUMA Clustering is enabled.
        snc: bool,
    },
    /// Intel Xeon Platinum 8480+, "Sapphire Rapids", SNC off.
    SapphireRapids8480,
    /// CVA6-like embedded quad-core: write-back + no-write-allocate d-cache
    /// with pseudo-random replacement, no SpecI2M.
    Cva6Like,
}

impl MachinePreset {
    /// Materialise the preset into a full [`Machine`] description.
    pub fn machine(&self) -> Machine {
        match self {
            MachinePreset::IceLakeSp8360y => icelake_sp_8360y(),
            MachinePreset::SapphireRapids8470 { snc } => sapphire_rapids_8470(*snc),
            MachinePreset::SapphireRapids8480 => sapphire_rapids_8480(),
            MachinePreset::Cva6Like => cva6_like(),
        }
    }

    /// All registered presets: the paper's figure machines plus the
    /// CVA6-like policy-exploration config (which no figure uses).
    pub fn all() -> Vec<MachinePreset> {
        vec![
            MachinePreset::IceLakeSp8360y,
            MachinePreset::SapphireRapids8470 { snc: true },
            MachinePreset::SapphireRapids8470 { snc: false },
            MachinePreset::SapphireRapids8480,
            MachinePreset::Cva6Like,
        ]
    }

    /// The store-miss policy the preset declares — `caches.write_policy`
    /// of its [`machine`](Self::machine), read without building one (the
    /// sweep asks it per scenario).
    pub fn write_policy(&self) -> WritePolicyKind {
        match self {
            MachinePreset::Cva6Like => WritePolicyKind::NoAllocate,
            _ => WritePolicyKind::Allocate,
        }
    }

    /// Canonical registry name of this preset: the `Machine::id` it
    /// materialises to (`"icx-8360y"`, `"spr-8470-sncon"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            MachinePreset::IceLakeSp8360y => "icx-8360y",
            MachinePreset::SapphireRapids8470 { snc: true } => "spr-8470-sncon",
            MachinePreset::SapphireRapids8470 { snc: false } => "spr-8470-sncoff",
            MachinePreset::SapphireRapids8480 => "spr-8480plus",
            MachinePreset::Cva6Like => "cva6-nowa",
        }
    }
}

/// Canonical names of every registered preset, in registry order.
pub fn preset_names() -> Vec<&'static str> {
    MachinePreset::all().iter().map(|p| p.name()).collect()
}

/// Look a preset up by name.
///
/// Accepts the canonical `Machine::id` of each preset plus a few common
/// shorthands (`"icx"`, `"spr-8470-snc"` for SNC on, `"spr-8480"`).
/// Unknown names return `None`; callers turn that into a usage error
/// listing [`preset_names`].
pub fn preset_by_name(name: &str) -> Option<MachinePreset> {
    match name {
        "icx-8360y" | "icx" => Some(MachinePreset::IceLakeSp8360y),
        "spr-8470-sncon" | "spr-8470-snc" => Some(MachinePreset::SapphireRapids8470 { snc: true }),
        "spr-8470-sncoff" => Some(MachinePreset::SapphireRapids8470 { snc: false }),
        "spr-8480plus" | "spr-8480" => Some(MachinePreset::SapphireRapids8480),
        "cva6-nowa" | "cva6" => Some(MachinePreset::Cva6Like),
        _ => None,
    }
}

fn icx_caches() -> MemoryHierarchySpec {
    MemoryHierarchySpec {
        l1: CacheSpec::new(CacheLevel::L1, 48 * 1024, 12, CACHE_LINE_BYTES, false),
        l2: CacheSpec::new(CacheLevel::L2, 1280 * 1024, 20, CACHE_LINE_BYTES, false),
        l3: CacheSpec::new(CacheLevel::L3, 54 * 1024 * 1024, 12, CACHE_LINE_BYTES, true),
        l3_sharers: 36,
        write_policy: WritePolicyKind::Allocate,
    }
}

fn spr_caches(l3_sharers: usize) -> MemoryHierarchySpec {
    MemoryHierarchySpec {
        l1: CacheSpec::new(CacheLevel::L1, 48 * 1024, 12, CACHE_LINE_BYTES, false),
        l2: CacheSpec::new(CacheLevel::L2, 2048 * 1024, 16, CACHE_LINE_BYTES, false),
        l3: CacheSpec::new(
            CacheLevel::L3,
            105 * 1024 * 1024,
            12,
            CACHE_LINE_BYTES,
            true,
        ),
        l3_sharers,
        write_policy: WritePolicyKind::Allocate,
    }
}

/// Two-socket Intel Xeon Platinum 8360Y "Ice Lake SP" node as configured in
/// the paper: SNC on (two ccNUMA domains per socket, 18 cores each), DDR4-3200,
/// clock pinned to 2.4 GHz.
pub fn icelake_sp_8360y() -> Machine {
    Machine {
        name: "Intel Xeon Platinum 8360Y (Ice Lake SP), 2S, SNC on".to_string(),
        id: "icx-8360y".to_string(),
        topology: Topology::homogeneous(2, 2, 18),
        caches: icx_caches(),
        bandwidth: BandwidthModel::new(80e9, 13e9, SaturationCurve::new(9.0, 8.0)),
        speci2m: SpecI2MParams {
            enabled: true,
            activation_utilization: 0.25,
            full_effect_utilization: 0.85,
            max_evasion: 0.98,
            node_population_penalty: 0.22,
            stream_response: StreamCountResponse {
                factors: vec![1.0, 0.93, 0.88],
            },
            streak_scale_lines: 26.0,
            speculative_read_penalty: 0.35,
            nt_partial_flush_max: 0.17,
        },
        clock_hz: 2.4e9,
        dp_flops_per_cycle: 16.0,
    }
}

/// Two-socket Intel Xeon Platinum 8470 "Sapphire Rapids" node (52 cores per
/// socket, DDR5-4800, clock pinned to 2.0 GHz).  `snc` selects Sub-NUMA
/// Clustering: `true` → two ccNUMA domains per socket (26 cores each),
/// `false` → one domain per socket.
pub fn sapphire_rapids_8470(snc: bool) -> Machine {
    let (domains_per_socket, cores_per_domain, domain_bw, sat_cores) = if snc {
        (2, 26, 135e9, 9.0)
    } else {
        (1, 52, 260e9, 16.0)
    };
    // SNC on is slightly *less* efficient at full socket for standard stores
    // (Fig. 9): encode as a small max_evasion penalty.
    let max_evasion = if snc { 0.48 } else { 0.51 };
    Machine {
        name: format!(
            "Intel Xeon Platinum 8470 (Sapphire Rapids), 2S, SNC {}",
            if snc { "on" } else { "off" }
        ),
        id: format!("spr-8470-snc{}", if snc { "on" } else { "off" }),
        topology: Topology::homogeneous(2, domains_per_socket, cores_per_domain),
        caches: spr_caches(52),
        bandwidth: BandwidthModel::new(domain_bw, 15e9, SaturationCurve::new(sat_cores, 4.0)),
        speci2m: SpecI2MParams {
            enabled: true,
            activation_utilization: if snc { 0.55 } else { 0.85 },
            full_effect_utilization: 0.99,
            max_evasion,
            node_population_penalty: 0.10,
            stream_response: StreamCountResponse::flat(),
            streak_scale_lines: 18.0,
            speculative_read_penalty: 0.20,
            nt_partial_flush_max: 0.18,
        },
        clock_hz: 2.0e9,
        dp_flops_per_cycle: 16.0,
    }
}

/// CVA6-like embedded quad-core node.
///
/// Models the policy corner documented for the CVA6 (Ariane) d-cache:
/// write-back + **no-write-allocate**, and of course no SpecI2M — store
/// misses never fetch the line, so the write-allocate-evasion question
/// does not arise.  The preset exists to exercise the policy fields of the
/// machine model; no paper figure uses it.  Its caches simulate as true
/// LRU, like every preset's.  The hardware's pseudo-random and PLRU
/// replacement is not modelled.
pub fn cva6_like() -> Machine {
    Machine {
        name: "CVA6-like embedded quad-core (write-back, no-write-allocate)".to_string(),
        id: "cva6-nowa".to_string(),
        topology: Topology::homogeneous(1, 1, 4),
        caches: MemoryHierarchySpec {
            l1: CacheSpec::new(CacheLevel::L1, 32 * 1024, 8, CACHE_LINE_BYTES, false),
            l2: CacheSpec::new(CacheLevel::L2, 512 * 1024, 8, CACHE_LINE_BYTES, false),
            l3: CacheSpec::new(CacheLevel::L3, 2 * 1024 * 1024, 16, CACHE_LINE_BYTES, true),
            l3_sharers: 4,
            write_policy: WritePolicyKind::NoAllocate,
        },
        bandwidth: BandwidthModel::new(10e9, 3e9, SaturationCurve::new(2.0, 4.0)),
        speci2m: SpecI2MParams::disabled(),
        clock_hz: 1.5e9,
        dp_flops_per_cycle: 2.0,
    }
}

/// Two-socket Intel Xeon Platinum 8480+ "Sapphire Rapids" node (56 cores per
/// socket, DDR5-4800, SNC off, clock pinned to 2.0 GHz).
pub fn sapphire_rapids_8480() -> Machine {
    Machine {
        name: "Intel Xeon Platinum 8480+ (Sapphire Rapids), 2S, SNC off".to_string(),
        id: "spr-8480plus".to_string(),
        topology: Topology::homogeneous(2, 1, 56),
        caches: spr_caches(56),
        bandwidth: BandwidthModel::new(260e9, 15e9, SaturationCurve::new(16.0, 4.0)),
        speci2m: SpecI2MParams {
            enabled: true,
            activation_utilization: 0.85,
            full_effect_utilization: 0.99,
            max_evasion: 0.55,
            node_population_penalty: 0.10,
            stream_response: StreamCountResponse::flat(),
            streak_scale_lines: 18.0,
            speculative_read_penalty: 0.20,
            nt_partial_flush_max: 0.18,
        },
        clock_hz: 2.0e9,
        dp_flops_per_cycle: 16.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_materialise() {
        for p in MachinePreset::all() {
            let m = p.machine();
            assert!(m.total_cores() > 0);
            assert!(m.domain_bandwidth() > 0.0);
            assert!(!m.id.is_empty());
        }
    }

    #[test]
    fn icx_has_snc_on_topology() {
        let m = icelake_sp_8360y();
        assert_eq!(m.topology.domains_per_socket(), 2);
        assert_eq!(m.topology.cores_per_domain(), 18);
    }

    #[test]
    fn spr_8470_snc_toggle_changes_domains() {
        let on = sapphire_rapids_8470(true);
        let off = sapphire_rapids_8470(false);
        assert_eq!(on.topology.domains.len(), 4);
        assert_eq!(off.topology.domains.len(), 2);
        assert_eq!(on.total_cores(), off.total_cores());
    }

    #[test]
    fn spr_8480_single_domain_per_socket() {
        let m = sapphire_rapids_8480();
        assert_eq!(m.topology.domains.len(), 2);
        assert_eq!(m.topology.cores_per_domain(), 56);
    }

    #[test]
    fn spr_speci2m_kicks_in_late() {
        // The paper observes SpecI2M showing benefit only after ~18 cores on
        // the SPR 8480+ socket, while on ICX it helps from ~3 cores on.
        let icx = icelake_sp_8360y();
        let spr = sapphire_rapids_8480();
        let icx_ramp_4 = icx.speci2m.activation_ramp(icx.domain_utilization(4));
        let spr_ramp_12 = spr.speci2m.activation_ramp(spr.domain_utilization(12));
        let spr_ramp_22 = spr.speci2m.activation_ramp(spr.domain_utilization(22));
        assert!(icx_ramp_4 > 0.0, "ICX should already ramp at 4 cores");
        assert!(spr_ramp_12 == 0.0, "SPR should not ramp at 12 cores");
        assert!(spr_ramp_22 > 0.0, "SPR should ramp at 22 cores");
    }

    #[test]
    fn registry_lookup_roundtrips_canonical_names() {
        for p in MachinePreset::all() {
            assert_eq!(preset_by_name(p.name()), Some(p));
            // The registry name is the id the machine prints in CSV output.
            assert_eq!(p.machine().id, p.name());
        }
    }

    #[test]
    fn registry_accepts_shorthands_and_rejects_unknowns() {
        assert_eq!(preset_by_name("icx"), Some(MachinePreset::IceLakeSp8360y));
        assert_eq!(
            preset_by_name("spr-8470-snc"),
            Some(MachinePreset::SapphireRapids8470 { snc: true })
        );
        assert_eq!(
            preset_by_name("spr-8480"),
            Some(MachinePreset::SapphireRapids8480)
        );
        assert_eq!(preset_by_name("cva6"), Some(MachinePreset::Cva6Like));
        assert_eq!(preset_by_name("epyc-9654"), None);
        assert_eq!(preset_by_name(""), None);
        assert_eq!(preset_names().len(), 5);
    }

    #[test]
    fn cva6_preset_exercises_the_policy_fields() {
        let m = cva6_like();
        assert_eq!(m.total_cores(), 4);
        assert_eq!(m.caches.write_policy, WritePolicyKind::NoAllocate);
        assert!(!m.speci2m.enabled, "CVA6 has no write-allocate to evade");
        // The Xeon presets keep the paper's default policy corner.
        let icx = icelake_sp_8360y();
        assert_eq!(icx.caches.write_policy, WritePolicyKind::Allocate);
    }

    #[test]
    fn every_preset_declares_the_policy_its_machine_runs() {
        for preset in MachinePreset::all() {
            assert_eq!(
                preset.write_policy(),
                preset.machine().caches.write_policy,
                "{}",
                preset.name()
            );
        }
    }

    #[test]
    fn preset_ids_unique() {
        let ids: Vec<String> = MachinePreset::all()
            .iter()
            .map(|p| p.machine().id)
            .collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
