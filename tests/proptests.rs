//! Property-based tests on the core data structures and invariants.

use cloverleaf_wa::cachesim::hierarchy::{CoreSimOptions, OccupancyContext};
use cloverleaf_wa::cachesim::{
    CoreSim, MemCounters, NodeSim, SetAssocCache, SimConfig, WriteCoalescer, LINE_BYTES,
};
use cloverleaf_wa::core::decomp::{is_prime, Decomposition};
use cloverleaf_wa::golden::Artifact;
use cloverleaf_wa::machine::{icelake_sp_8360y, Machine, MachinePreset, SpecI2MParams};
use cloverleaf_wa::stencil::{cloverleaf_loops, CodeBalance};
use proptest::prelude::*;

/// Store-ratio measurement over a small SPMD store kernel, mirroring
/// `clover_ubench::store_ratio` with a reduced element count so it is cheap
/// enough for property testing in debug builds.
fn mini_store_ratio(machine: &Machine, cores: usize, streams: usize) -> f64 {
    const ELEMENTS: u64 = 2048;
    let sim = NodeSim::new(SimConfig::new(machine.clone(), cores));
    let report = sim.run_spmd(|rank, core| {
        let rank_base = (rank as u64 + 1) << 40;
        for i in 0..ELEMENTS {
            for s in 0..streams as u64 {
                core.store(rank_base + (s << 30) + i * 8, 8);
            }
        }
    });
    let initiated = (cores as u64 * streams as u64 * ELEMENTS * 8) as f64;
    report.total_bytes() / initiated
}

/// The SpecI2M fractions as one closed form per store stream, the way they
/// were written before the response was split off: the reference the split
/// must reproduce to the bit.
fn unsplit_fractions(
    p: &SpecI2MParams,
    domain_utilization: f64,
    active_domains: usize,
    total_domains: usize,
    store_streams: usize,
    streak_lines: f64,
) -> (f64, f64) {
    let ramp = p.activation_ramp(domain_utilization);
    if !p.enabled || ramp <= 0.0 {
        return (0.0, 0.0);
    }
    let streams = p.stream_response.factor(store_streams);
    let streak = p.streak_response(streak_lines);
    let node = p.node_population_factor(active_domains, total_domains);
    (
        (p.max_evasion * ramp * streams * streak * node).clamp(0.0, 1.0),
        (p.speculative_read_penalty * ramp * (1.0 - streak)).clamp(0.0, 1.0),
    )
}

proptest! {
    /// A response derived once and applied per stream count gives the
    /// evasion and speculative-read fractions of the unsplit closed form,
    /// bit for bit, on every preset's parameter block (MSR switch on and
    /// off) over random occupancies, stream counts and streak lengths.
    #[test]
    fn split_speci2m_response_reproduces_the_unsplit_fractions(
        preset in prop::sample::select(MachinePreset::all()),
        switched_off in prop::sample::select(vec![false, true]),
        utilization_permille in 0u64..=1100,
        total_domains in 1usize..=8,
        active_domains in 0usize..=9,
        store_streams in 0usize..=6,
        streak_draw in 0u64..=4_000_000,
    ) {
        let params = preset.machine().speci2m;
        let params = if switched_off {
            SpecI2MParams { enabled: false, ..params }
        } else {
            params
        };
        let domain_utilization = utilization_permille as f64 / 1000.0;
        // 0 to 4000 lines in steps no streak scale divides evenly.
        let streak_lines = streak_draw as f64 / 1000.0;
        let (evasion, speculative) = unsplit_fractions(
            &params,
            domain_utilization,
            active_domains,
            total_domains,
            store_streams,
            streak_lines,
        );
        let response =
            params.response(domain_utilization, active_domains, total_domains, streak_lines);
        prop_assert_eq!(params.evasion_at(&response, store_streams).to_bits(), evasion.to_bits());
        prop_assert_eq!(params.speculative_reads_at(&response).to_bits(), speculative.to_bits());
    }

    /// Any decomposition conserves cells and keeps chunk sizes within one
    /// cell of each other.
    #[test]
    fn decomposition_conserves_cells(ranks in 1usize..=144, grid in 64usize..4096) {
        let d = Decomposition::new(ranks, grid, grid);
        prop_assert_eq!(d.ranks_x * d.ranks_y, ranks);
        let sum_x: usize = (0..d.ranks_x).map(|r| d.local_inner(r)).sum();
        prop_assert_eq!(sum_x, grid);
        let sizes: Vec<usize> = (0..ranks).map(|r| d.local_inner(r)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
        if is_prime(ranks) && ranks > 1 {
            prop_assert!(d.is_one_dimensional());
        }
    }

    /// The four code-balance bounds of any catalogue loop are ordered
    /// min ≤ LCF,WA ≤ max and min ≤ LCB ≤ max.
    #[test]
    fn code_balance_bounds_are_ordered(idx in 0usize..22) {
        let spec = &cloverleaf_loops()[idx];
        let b = CodeBalance::from_spec(spec);
        prop_assert!(b.min <= b.lcf_wa + 1e-12);
        prop_assert!(b.lcf_wa <= b.max + 1e-12);
        prop_assert!(b.min <= b.lcb + 1e-12);
        prop_assert!(b.lcb <= b.max + 1e-12);
    }

    /// The write coalescer never reports a streak longer than the number of
    /// lines written and classifies fully covered lines as full.
    #[test]
    fn coalescer_streaks_are_bounded(rows in 1u64..20, inner in 8u64..512, gap in 0u64..16) {
        let mut c = WriteCoalescer::new(8);
        let mut finalized = Vec::new();
        for row in 0..rows {
            let base = row * (inner + gap) * 8;
            for i in 0..inner {
                finalized.extend(c.store(base + i * 8, 8));
            }
        }
        finalized.extend(c.flush());
        let total_lines = finalized.len() as f64;
        for line in &finalized {
            prop_assert!(line.streak_estimate <= total_lines);
            prop_assert!(line.streak_estimate >= 0.0);
        }
    }

    /// For any sequential store pattern the simulator's memory counters are
    /// physically sensible: writes cover at least the stored bytes, reads
    /// never exceed two lines per written line (WA + speculation), and the
    /// ITOM count never exceeds the written lines.
    #[test]
    fn store_traffic_is_bounded(elements in 64u64..4096, ranks in prop::sample::select(vec![1usize, 9, 18, 36, 72])) {
        let machine = icelake_sp_8360y();
        let ctx = OccupancyContext::compact(&machine, ranks);
        let mut core: CoreSim = CoreSim::new(&machine, ctx, CoreSimOptions::default());
        for i in 0..elements {
            core.store(i * 8, 8);
        }
        let c: MemCounters = core.flush();
        let stored_lines = (elements as f64 * 8.0 / 64.0).ceil();
        prop_assert!(c.write_lines >= stored_lines - 1.0);
        prop_assert!(c.write_lines <= stored_lines + 2.0);
        prop_assert!(c.read_lines <= 2.0 * stored_lines + 2.0);
        prop_assert!(c.itom_lines <= stored_lines + 1.0);
        prop_assert!(c.itom_lines >= 0.0);
    }

    /// Cache bookkeeping: every `touch` is either a hit or a miss, so the
    /// two counters always sum to the number of accesses — for any mix of
    /// reads, writes, fills and working-set sizes.
    #[test]
    fn cache_hits_plus_misses_equal_accesses(
        accesses in 1usize..2000,
        span in 1u64..512,
        capacity_lines in prop::sample::select(vec![8usize, 64, 256]),
    ) {
        let mut cache: SetAssocCache = SetAssocCache::new(capacity_lines * 64, 8);
        for i in 0..accesses as u64 {
            // Deterministic but scattered line sequence with re-use.
            let line = (i.wrapping_mul(2654435761) >> 7) % span;
            let write = i % 3 == 0;
            if cache.touch(line, write) == cloverleaf_wa::cachesim::cache::LookupResult::Miss {
                cache.fill(line, write);
            }
        }
        prop_assert_eq!(cache.hits() + cache.misses(), accesses as u64);
        prop_assert!(cache.resident_lines() <= cache.capacity_lines());
    }

    /// Memory write traffic is conservative: for a store-only kernel that
    /// touches every address exactly once, the bytes leaving the hierarchy
    /// (dirty evictions plus the final flush) equal the distinct cache
    /// lines stored — never more than what was written.
    #[test]
    fn evicted_bytes_never_exceed_written_bytes(
        rows in 1u64..24,
        inner in 8u64..400,
        gap in 0u64..9,
        nt in prop::sample::select(vec![false, true]),
    ) {
        let machine = icelake_sp_8360y();
        let ctx = OccupancyContext::compact(&machine, 18);
        let mut core: CoreSim = CoreSim::new(&machine, ctx, CoreSimOptions::default());
        let mut lines = std::collections::HashSet::new();
        for row in 0..rows {
            let base = row * (inner + gap) * 8;
            for i in 0..inner {
                let addr = base + i * 8;
                if nt {
                    core.store_nt(addr, 8);
                } else {
                    core.store(addr, 8);
                }
                lines.insert(addr / LINE_BYTES);
            }
        }
        let c: MemCounters = core.flush();
        let written = lines.len() as f64;
        prop_assert!(
            c.write_lines <= written + 0.5,
            "wrote back {} lines for {} stored lines", c.write_lines, written
        );
        prop_assert!(c.write_lines >= written - 0.5);
    }

    /// More independent store streams per core never improve the store
    /// ratio: the SpecI2M stream-count response makes evasion harder, so
    /// the ratio is monotonically non-decreasing in the stream count.
    #[test]
    fn store_ratio_is_monotone_in_stream_count(
        cores in prop::sample::select(vec![1usize, 4, 9, 18, 27, 36]),
        streams in 1usize..3,
    ) {
        let machine = icelake_sp_8360y();
        let fewer = mini_store_ratio(&machine, cores, streams);
        let more = mini_store_ratio(&machine, cores, streams + 1);
        prop_assert!(
            more >= fewer - 0.02,
            "cores={}: {} streams -> {:.4}, {} streams -> {:.4}",
            cores, streams, fewer, streams + 1, more
        );
        // Both ends stay physical: between all-write-allocate (2.0)
        // and full evasion (1.0).
        prop_assert!((0.98..=2.05).contains(&fewer));
        prop_assert!((0.98..=2.05).contains(&more));
    }

    /// A CSV cell is `format!("{:.*}", precision, x)` byte for byte, whether
    /// the exact integer writer takes the value (finite, non-negative,
    /// precision ≤ 9) or hands it to `core::fmt` (everything else).
    #[test]
    fn csv_cells_equal_std_fixed_formatting(seed in 0u64..=u64::MAX, precision in 0usize..=12) {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut values = Vec::new();
        for _ in 0..64 {
            // Any bit pattern: both signs, subnormals, huge, NaN.
            values.push(f64::from_bits(next()));
            // Magnitudes an artifact holds, 1e-6..1e7.
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            values.push(10f64.powf(unit * 13.0 - 6.0));
            // Exact binary fractions j / 2^t: every decimal tie is one.
            let (j, t) = (next() % (1 << 24), next() % 21);
            values.push(j as f64 / (1u64 << t) as f64);
            // Three-decimal values, which are no ties in binary, and their
            // neighbours one ulp either side.
            let milli = (next() % 10_000_000) as f64 / 1000.0;
            values.push(milli);
            values.push(f64::from_bits(milli.to_bits() + 1));
            values.push(f64::from_bits(milli.to_bits().wrapping_sub(1)));
        }
        let mut artifact = Artifact::new("cells", "one column").num_column("x", None, precision);
        for &x in &values {
            artifact.push_row(vec![x.into()]);
        }
        let csv = artifact.to_csv();
        let mut cells = csv.lines().skip(1);
        for x in values {
            prop_assert_eq!(
                cells.next(),
                Some(format!("{x:.precision$}").as_str()),
                "{:e} ({:#018x}) at precision {}", x, x.to_bits(), precision
            );
        }
        prop_assert_eq!(cells.next(), None);
    }
}
