//! A co-run reports its first tenant, the *primary*, and may stop once
//! nothing left to simulate can change that report.  These tests hold the
//! report to the one the co-run that simulated every tenant to its end
//! gave for the same tenant (commit `281bdc4`, which reported them all),
//! bit for bit: a named grid in tier 1, and 500 drawn co-runs in an
//! ignored test that CI's `fidelity` job runs by exact name.
//!
//! The grid puts the primary at canonical index 0, 1 and 2; a storing
//! primary whose dirty lines an aggressor evicts; NT-storing tenants;
//! abutting windows with and without a buddy pair across them; two and
//! three tenants; turns of 1, 7, 64 and 4096 lines.  Its last four cases
//! sit at the edges of the proof that lets a tenant skip its private
//! levels (`KernelSpec::never_hits_private`): a reuse kernel with as many
//! lines per L2 set as the set has ways and one with a line more, and two
//! load streams that load a line again right after loading it.  Those
//! four were recorded with commit `b3cd47d`, which ran every load through
//! the private levels.  The co-runs are built in `tests/corun_grid`,
//! shared with the program that recorded them.

mod corun_grid;

use clover_cachesim::{AccessKind, KernelSpec, NodeSim, RankBase, SimConfig, SimMemo, SpecOperand};
use clover_machine::icelake_sp_8360y;
use corun_grid::{digest, drawn_cases, facts, pinned_cases, Case};

/// The report of `case`'s first tenant, through a fresh memo.
fn primary_facts(case: &Case) -> [u64; 9] {
    let sim = NodeSim::new(case.config.clone());
    facts(
        &sim.run_corun(&case.tenants, case.interleave, &SimMemo::new())
            .primary,
    )
}

/// `tenants[0]`'s index after the stable sort that fixes the turn order.
fn canonical_index(case: &Case) -> usize {
    let mut order: Vec<usize> = (0..case.tenants.len()).collect();
    order.sort_by(|&a, &b| case.tenants[a].cmp(&case.tenants[b]));
    order.iter().position(|&i| i == 0).expect("a permutation")
}

/// Name, counters as `f64::to_bits`, and LLC hits, misses and occupancy
/// of `tenants[0]` in each case of `pinned_cases`, in order.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 6], [u64; 3]); 23] = [
        (
            "victim beside thrash, turns of 1",
            [0x40e0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40c0000000000000, 0x0000000000000000],
            [24576, 24576, 0],
        ),
        (
            "victim beside thrash, turns of 7",
            [0x40d2494000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40c0000000000000, 0x0000000000000000],
            [38619, 10533, 0],
        ),
        (
            "victim beside thrash, turns of 64",
            [0x40d0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40c0000000000000, 0x0000000000000000],
            [40960, 8192, 0],
        ),
        (
            "victim beside thrash, turns of 4096",
            [0x40d0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40c0000000000000, 0x0000000000000000],
            [40960, 8192, 0],
        ),
        (
            "thrash beside the victim",
            [0x40f3800000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40e3800000000000, 0x0000000000000000],
            [91136, 39936, 32768],
        ),
        (
            "thrash beside the victim, turns of 7",
            [0x40f3800000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40e3800000000000, 0x0000000000000000],
            [91136, 39936, 32768],
        ),
        (
            "storing victim beside thrash, turns of 1",
            [0x40f7ffd000000000, 0x40f3fe5000000000, 0x0000000000000000, 0x40f7ffd000000000, 0x0000000000000000, 0x0000000000000000],
            [0, 98301, 0],
        ),
        (
            "storing victim beside thrash, turns of 64",
            [0x40f7ffd000000000, 0x40f3fe5000000000, 0x0000000000000000, 0x40f7ffd000000000, 0x0000000000000000, 0x0000000000000000],
            [0, 98301, 0],
        ),
        (
            "storing victim beside thrash, turns of 4096",
            [0x40f7ffd000000000, 0x40f3ff1000000000, 0x0000000000000000, 0x40f7ffd000000000, 0x0000000000000000, 0x0000000000000000],
            [0, 98301, 0],
        ),
        (
            "thrash beside a storing victim",
            [0x4110000000000000, 0x40d0060000000000, 0x0000000000000000, 0x0000000000000000, 0x4100000000000000, 0x0000000000000000],
            [131072, 131072, 32768],
        ),
        (
            "victim beside a load + NT-store stream",
            [0x40d0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40c0000000000000, 0x0000000000000000],
            [40960, 8192, 16384],
        ),
        (
            "load + NT-store stream beside the victim, turns of 7",
            [0x40e060b606aa83b5, 0x40e0000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d0000000000000, 0x0000000000000000],
            [16384, 16384, 26624],
        ),
        (
            "abutting windows sharing one buddy pair, turns of 1",
            [0x4090080000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4080080000000000, 0x0000000000000000],
            [511, 513, 1],
        ),
        (
            "abutting windows sharing one buddy pair, turns of 64",
            [0x4090080000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4080080000000000, 0x0000000000000000],
            [511, 513, 1],
        ),
        (
            "abutting windows sharing no buddy pair, turns of 1",
            [0x4090000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4080000000000000, 0x0000000000000000],
            [512, 512, 0],
        ),
        (
            "abutting windows sharing no buddy pair, turns of 64",
            [0x4090000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4080000000000000, 0x0000000000000000],
            [512, 512, 0],
        ),
        (
            "victim beside thrash and a stream",
            [0x40e8000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d8000000000000, 0x0000000000000000],
            [24576, 24576, 0],
        ),
        (
            "thrash beside a stream and the victim",
            [0x4100000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40f0000000000000, 0x0000000000000000],
            [65536, 65536, 31744],
        ),
        (
            "storing victim beside thrash and an NT stream, turns of 7",
            [0x40f4f16f789f37c8, 0x40e5d64000000000, 0x40c874e0410d1abb, 0x40f4f133f7de4967, 0x0000000000000000, 0x400dc06077330d94],
            [0, 98301, 0],
        ),
        (
            "reuse victim of 8192 lines beside thrash",
            [0x40c0000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b0000000000000, 0x0000000000000000],
            [4096, 4096, 0],
        ),
        (
            "reuse victim of 9216 lines beside thrash",
            [0x40c2000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b2000000000000, 0x0000000000000000],
            [23040, 4608, 0],
        ),
        (
            "rows of 1 001 loads beside thrash, turns of 7",
            [0x40a7780000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4097780000000000, 0x0000000000000000],
            [1501, 1502, 0],
        ),
        (
            "loads 4 bytes off a line beside thrash, turns of 7",
            [0x40b0020000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40a0020000000000, 0x0000000000000000],
            [2048, 2049, 0],
        ),
];

#[test]
fn the_primary_of_every_pinned_co_run_reports_what_the_whole_co_run_did() {
    let cases = pinned_cases();
    assert_eq!(cases.len(), PINNED.len());
    for (case, (name, counters, llc)) in cases.iter().zip(PINNED) {
        assert_eq!(case.name, name);
        let got = primary_facts(case);
        assert_eq!(got[..6], counters, "{name}: counters");
        assert_eq!(got[6..], llc, "{name}: LLC hits, misses, occupancy");
    }
    // What the grid is meant to cover, checked rather than trusted.
    let at = |index: usize| cases.iter().any(|c| canonical_index(c) == index);
    assert!(
        at(0) && at(1) && at(2),
        "the primary at canonical index 0, 1, 2"
    );
    for interleave in [1, 7, 64, 4096] {
        assert!(cases.iter().any(|c| c.interleave == interleave));
    }
    assert!(cases.iter().any(|c| c.tenants.len() == 3));
}

/// The recorded digests of `drawn_cases(DRAWN_SEED, ..)`, in order.
fn recorded_digests() -> Vec<u64> {
    include_str!("corun_grid/drawn.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .enumerate()
        .map(|(i, line)| {
            let (index, hex) = line.split_once(' ').expect("`<index> <digest>`");
            assert_eq!(index.parse::<usize>(), Ok(i));
            u64::from_str_radix(hex, 16).expect("a hex digest")
        })
        .collect()
}

const DRAWN_SEED: u64 = 0x5eed_c0de;

/// The drawn co-runs at `indices` against their recorded digests.
fn check_drawn(indices: impl IntoIterator<Item = usize>) {
    let recorded = recorded_digests();
    let cases = drawn_cases(DRAWN_SEED, recorded.len());
    for index in indices {
        let (case, want) = (&cases[index], recorded[index]);
        let got = primary_facts(case);
        assert_eq!(
            digest(&got),
            want,
            "{}: {} tenants, the primary at canonical index {}, turns of {}, on {}: {got:?}",
            case.name,
            case.tenants.len(),
            canonical_index(case),
            case.interleave,
            case.config.machine.id,
        );
    }
}

#[test]
fn the_first_drawn_co_runs_report_what_the_whole_co_run_did() {
    // And 55 and 470, the two of the 500 in which the primary, finished,
    // holds no LLC line while a store stream of its own is still open: a
    // stop that ignored the open stream reports them wrong, and no pinned
    // co-run shows it.  And 53, 239 and 365, three of the five in which a
    // tenant that loads beside a window sharing a buddy pair with its own
    // finds an edge line that the neighbour's prefetch inserted: a load
    // frontier kept without the buddy-pair gate takes it for absent and
    // reports them wrong (in 281 and 468 only the debug check sees it),
    // and no pinned co-run shows it.
    check_drawn((0..8).chain([55, 470, 53, 239, 365]));
}

/// 4–6 s in release on 2 vCPUs.
#[test]
#[ignore]
fn five_hundred_drawn_co_runs_report_what_the_whole_co_run_did() {
    check_drawn(0..500);
}

#[test]
fn an_nt_line_a_neighbour_prefetched_leaves_the_llc_of_a_marked_tenant() {
    // A tenant whose NT store window begins on the odd line whose buddy
    // ends a loading tenant's window: the loader's miss there prefetches
    // that line into the shared LLC, and the NT store must invalidate it
    // again.  Their windows share a buddy pair, so the storing tenant is
    // marked without frontiers and looks the line up; it must report what
    // it reports with every tenant running its whole hierarchy, where an
    // operand without points keeps each kernel off the marked path.
    let icx = icelake_sp_8360y();
    let even = 1u64 << 24;
    let storer = KernelSpec::contiguous(RankBase::Shared, (even + 1) * 64, 64, AccessKind::StoreNT);
    let loader = KernelSpec::contiguous(RankBase::Shared, even * 64, 8, AccessKind::Load);
    let whole = |mut kernel: KernelSpec| {
        kernel.operands.push(SpecOperand {
            offset: 0,
            points: vec![],
            kind: AccessKind::Load,
        });
        kernel
    };
    let sim = NodeSim::new(SimConfig::new(icx.clone(), 2));
    let mut reports = Vec::new();
    for tenants in [
        [storer.clone(), loader.clone()],
        [whole(storer), whole(loader)],
    ] {
        let marked = tenants
            .iter()
            .map(|t| t.never_hits_private(&icx, 0))
            .collect::<Vec<_>>();
        reports.push((
            marked,
            facts(&sim.run_corun(&tenants, 1, &SimMemo::new()).primary),
        ));
    }
    assert_eq!(reports[0].0, [true, true]);
    assert_eq!(reports[1].0, [false, false]);
    assert_eq!(reports[0].1, reports[1].1);
}
