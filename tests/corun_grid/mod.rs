//! The co-runs whose first tenant's report `tests/corun_exactness.rs`
//! holds to recorded bits: a named grid and a seeded draw of many more.
//!
//! Everything here is plain data built from the public `KernelSpec`
//! vocabulary, so that the program that recorded the expected values
//! (the co-run that simulated every tenant to the end and reported all of
//! them) and the program under test build the same co-runs.

use clover_cachesim::{AccessKind, KernelSpec, RankBase, SimConfig, SpecOperand, TenantReport};
use clover_machine::{
    cva6_like, icelake_sp_8360y, CacheLevel, CacheSpec, Machine, WritePolicyKind, CACHE_LINE_BYTES,
};

/// One co-run: `tenants` on `config`'s tenancy in turns of `interleave`
/// lines; `tenants[0]` is the tenant whose report is pinned.
pub struct Case {
    pub name: String,
    pub config: SimConfig,
    pub tenants: Vec<KernelSpec>,
    pub interleave: u64,
}

/// What a pin compares: the six counters as `f64::to_bits`, then LLC
/// hits, LLC misses and occupancy.
pub fn facts(t: &TenantReport) -> [u64; 9] {
    let c = &t.counters;
    [
        c.read_lines.to_bits(),
        c.write_lines.to_bits(),
        c.itom_lines.to_bits(),
        c.write_allocate_lines.to_bits(),
        c.prefetch_lines.to_bits(),
        c.speculative_read_lines.to_bits(),
        t.llc_hits,
        t.llc_misses,
        t.occupancy_lines,
    ]
}

/// A fixed fold of `facts` into one word (not `std`'s hasher, whose
/// output is not promised to stay the same across releases).
pub fn digest(facts: &[u64; 9]) -> u64 {
    facts.iter().fold(0xcbf2_9ce4_8422_2325, |h, &f| {
        (h ^ f).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

/// The Ice Lake SP with a 4 MiB L3: write-allocate with SpecI2M, and an
/// LLC small enough that a tenant of a few MiB thrashes it.
pub fn small_icx() -> Machine {
    let mut m = icelake_sp_8360y();
    m.id = "icx-8360y-l3-4m".into();
    m.caches.l3 = CacheSpec::new(CacheLevel::L3, 4 << 20, 16, CACHE_LINE_BYTES, true);
    m
}

fn operand(offset: u64, kind: AccessKind) -> SpecOperand {
    SpecOperand {
        offset,
        points: vec![(0, 0)],
        kind,
    }
}

/// `passes` sweeps over the same `bytes` from `offset`.
pub fn reuse(base: RankBase, offset: u64, bytes: u64, passes: u64, kind: AccessKind) -> KernelSpec {
    KernelSpec {
        rank_base: base,
        operands: vec![operand(offset, kind)],
        row_stride: 0,
        i0: 0,
        inner: (bytes / 8).max(1),
        k0: 0,
        rows: passes.max(1),
    }
}

/// One pass over `bytes` per operand from `offset`, each operand in a
/// sub-window of its own.
pub fn stream(base: RankBase, offset: u64, bytes: u64, kinds: &[AccessKind]) -> KernelSpec {
    let elements = (bytes / 8).max(1);
    KernelSpec {
        rank_base: base,
        operands: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| operand(offset + i as u64 * 2 * bytes.next_multiple_of(64), kind))
            .collect(),
        row_stride: elements,
        i0: 0,
        inner: elements,
        k0: 0,
        rows: 1,
    }
}

/// Rank-private windows 2^40 bytes apart.
const PRIVATE: RankBase = RankBase::Shifted { shift: 40, plus: 0 };

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// The named grid.  Which canonical index `tenants[0]` takes follows from
/// the kernels' order (`Load < Store`, a reuse kernel before a stream):
/// the storing victim sorts after a loading aggressor.
pub fn pinned_cases() -> Vec<Case> {
    use AccessKind::{Load, Store, StoreNT};
    let cva6 = |cores| SimConfig::new(cva6_like(), cores);
    let icx = |cores| SimConfig::new(small_icx(), cores);
    // On the CVA6's 2 MiB two-core LLC: a reuse victim of half the LLC
    // (twice its 512 KiB L2), a thrash aggressor sweeping the LLC's size
    // four times, a load + NT-store stream.
    let victim = reuse(PRIVATE, 0, MIB, 3, Load);
    let thrash = reuse(PRIVATE, 0, 2 * MIB, 4, Load);
    let heavy = stream(PRIVATE, 0, 2 * MIB, &[Load, StoreNT]);
    let plain = stream(PRIVATE, 0, 2 * MIB, &[Load]);
    let case = |name: &str, config: SimConfig, tenants: &[&KernelSpec], interleave| Case {
        name: name.into(),
        config,
        tenants: tenants.iter().map(|&t| t.clone()).collect(),
        interleave,
    };
    let mut cases = Vec::new();
    for interleave in [1, 7, 64, 4096] {
        cases.push(case(
            &format!("victim beside thrash, turns of {interleave}"),
            cva6(2),
            &[&victim, &thrash],
            interleave,
        ));
    }
    cases.push(case(
        "thrash beside the victim",
        cva6(2),
        &[&thrash, &victim],
        64,
    ));
    cases.push(case(
        "thrash beside the victim, turns of 7",
        cva6(2),
        &[&thrash, &victim],
        7,
    ));
    // A storing victim on a write-allocate LLC of 4 MiB, above its 1.25 MiB
    // L2: the aggressor evicts its dirty lines, and their write-backs are
    // the aggressor's.
    let storer = reuse(PRIVATE, 0, 2 * MIB, 3, Store);
    let icx_thrash = reuse(PRIVATE, 0, 8 * MIB, 2, Load);
    for interleave in [1, 64, 4096] {
        cases.push(case(
            &format!("storing victim beside thrash, turns of {interleave}"),
            icx(2),
            &[&storer, &icx_thrash],
            interleave,
        ));
    }
    cases.push(case(
        "thrash beside a storing victim",
        icx(2),
        &[&icx_thrash, &storer],
        64,
    ));
    // An NT-storing aggressor, and the NT-storer as the primary.
    cases.push(case(
        "victim beside a load + NT-store stream",
        cva6(2),
        &[&victim, &heavy],
        64,
    ));
    cases.push(case(
        "load + NT-store stream beside the victim, turns of 7",
        icx(2),
        &[&heavy, &victim],
        7,
    ));
    // Abutting windows on one shared base: a small tenant right above a
    // thrash tenant.  The thrash window's last line and the small one's
    // first are one buddy pair when the thrash ends on an even line (an
    // odd count of lines from line 0): then every pass of the thrash, the
    // last one too, prefetches a line of the small tenant back in long
    // after it finished.
    for (lines, pair) in [(49_153u64, "one buddy pair"), (49_152, "no buddy pair")] {
        let below = reuse(RankBase::Shared, 0, lines * 64, 3, Load);
        let above = reuse(RankBase::Shared, lines * 64, 64 * KIB, 2, Load);
        for interleave in [1, 64] {
            cases.push(case(
                &format!("abutting windows sharing {pair}, turns of {interleave}"),
                cva6(2),
                &[&above, &below],
                interleave,
            ));
        }
    }
    // Three tenants on a three-core tenancy.
    cases.push(case(
        "victim beside thrash and a stream",
        cva6(3),
        &[&victim, &thrash, &plain],
        64,
    ));
    cases.push(case(
        "thrash beside a stream and the victim",
        cva6(3),
        &[&thrash, &plain, &victim],
        64,
    ));
    cases.push(case(
        "storing victim beside thrash and an NT stream, turns of 7",
        icx(3),
        &[&storer, &heavy, &icx_thrash],
        7,
    ));
    // The edges of `KernelSpec::never_hits_private`, each the primary
    // beside the CVA6 thrash.  The CVA6's L2 is 1 024 sets × 8 ways: a
    // reuse kernel of 8 192 lines puts 8 lines into each set, so its
    // second and third passes hit there; one of 9 216 lines puts 9, so
    // every pass misses both private levels.
    for lines in [8_192u64, 9_216] {
        cases.push(case(
            &format!("reuse victim of {lines} lines beside thrash"),
            cva6(2),
            &[&reuse(PRIVATE, 0, lines * 64, 3, Load), &thrash],
            64,
        ));
    }
    // Loads whose next row starts in the line the last one ended in (rows
    // of 1 001 elements, 125 lines and a piece), and loads 4 bytes off a
    // line, each element split across two lines: both load a line again
    // right after loading it, which the L1 answers.
    let rows = KernelSpec {
        row_stride: 1_001,
        inner: 1_001,
        rows: 24,
        ..stream(PRIVATE, 0, 8, &[Load])
    };
    let misaligned = stream(PRIVATE, 4, 256 * KIB, &[Load]);
    for (name, kernel) in [
        ("rows of 1 001 loads", rows),
        ("loads 4 bytes off a line", misaligned),
    ] {
        cases.push(case(
            &format!("{name} beside thrash, turns of 7"),
            cva6(2),
            &[&kernel, &thrash],
            7,
        ));
    }
    cases
}

/// A seeded linear congruential draw (the constants of Knuth's MMIX).
pub struct Draw(pub u64);

impl Draw {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// `count` co-runs drawn from `seed`: two to four tenants on the CVA6 or
/// the small Ice Lake, under every store-miss policy, with SpecI2M and the
/// prefetcher on and off; rank-private windows, or one shared base with
/// the windows abutting (on a shared buddy pair or not).  The pinned
/// tenant is drawn like a victim — mostly loads, a sixteenth of the LLC to
/// all of it — the others like aggressors — every access kind, half the
/// LLC to three times it; reuse and stream kernels both; the pinned one at
/// any place in the address layout, the others in any input order; any
/// turn size.
pub fn drawn_cases(seed: u64, count: usize) -> Vec<Case> {
    use AccessKind::{Load, Store, StoreNT};
    let mut draw = Draw(seed);
    (0..count)
        .map(|i| {
            let machine = if draw.below(2) == 0 {
                cva6_like()
            } else {
                small_icx()
            };
            let llc = machine.caches.l3.capacity_bytes as u64;
            let n = 2 + draw.below(3) as usize;
            let mut config =
                SimConfig::new(machine, n).with_write_policy(draw.pick(&WritePolicyKind::all()));
            if draw.below(4) == 0 {
                config = config.without_speci2m();
            }
            if draw.below(4) == 0 {
                config = config.without_prefetchers();
            }
            let shared = draw.below(3) == 0;
            let pinned = draw.below(n as u64) as usize;
            let mut next_line = draw.below(2);
            let mut tenants: Vec<KernelSpec> = (0..n)
                .map(|j| {
                    let (base, offset) = if shared {
                        // Abut the previous window, or leave one line free.
                        (RankBase::Shared, next_line * 64)
                    } else {
                        (PRIVATE, 64 * draw.below(4))
                    };
                    let (bytes, reuses, kinds): (u64, bool, &[AccessKind]) = if j == pinned {
                        let bytes = llc / 16 * (1 + draw.below(16));
                        (
                            bytes,
                            draw.below(4) != 0,
                            &[Load, Load, Load, Load, Load, Store, StoreNT],
                        )
                    } else {
                        let bytes = llc / 2 * (1 + draw.below(6));
                        (bytes, draw.below(2) == 0, &[Load, Load, Store, StoreNT])
                    };
                    let kernel = if reuses {
                        let passes = 1 + draw.below(3);
                        reuse(base, offset, bytes, passes, draw.pick(kinds))
                    } else {
                        let streams: Vec<AccessKind> =
                            (0..1 + draw.below(2)).map(|_| draw.pick(kinds)).collect();
                        stream(base, offset, bytes, &streams)
                    };
                    let (_, last) = kernel.line_span(0).expect("a kernel touches lines");
                    next_line = last + 1 + draw.below(2);
                    kernel
                })
                .collect();
            // The pinned tenant first, the others in any order.
            tenants.swap(0, pinned);
            for j in (2..n).rev() {
                tenants.swap(j, 1 + draw.below(j as u64) as usize);
            }
            Case {
                name: format!("drawn co-run {i}"),
                config,
                tenants,
                interleave: draw.pick(&[1, 2, 3, 7, 64, 1000, 4096, u64::MAX]),
            }
        })
        .collect()
}
