//! Tier-1 suite of the persistent store and the sweep service.
//!
//! The acceptance properties of sweep-as-a-service:
//!
//! * **warm restart** — a second "process" (fresh memos) loading the
//!   persisted store answers a contended plan without simulating its
//!   co-run again, byte-identical to a service that never had a store,
//! * **invalidation** — a bumped model hash makes the store load cold and
//!   forces a clean rebuild,
//! * **resilience** — truncated or corrupt store files rebuild instead of
//!   crashing, and a rebuild-and-save restores a warm store,
//! * **exact statistics** — the single-flight memo counts one miss per
//!   computed key no matter how many threads race on it,
//! * **concurrent coalescing** — any number of clients racing overlapping
//!   and identical sweeps on one shared service get payloads
//!   byte-identical to the single-threaded CLI, while the flight
//!   statistics prove each unique point was computed exactly once,
//! * **compaction** — a `--store-cap` save keeps the most recently
//!   touched passes, and a reload of the compacted store answers the
//!   recent plan fully warm from ≤ cap entries.
//!
//! The store counts simulation *passes*: a co-run identity is its contended
//! pass plus the victim's baseline, which every aggressor and interleave
//! of one machine share.
//!
//! Only the restart test pays for a real machine's co-run; the others run
//! theirs on the embedded `cva6` preset, whose 2 MiB LLC simulates in
//! milliseconds.

mod common;

use std::fs;
use std::io::{self, BufRead, BufReader, Read};
use std::sync::Arc;

use cloverleaf_wa::cachesim::{FlightMemo, SimMemo};
use cloverleaf_wa::core::SweepMemo;
use cloverleaf_wa::scenario::{render_block, run_plan_memo, run_plan_memos, SweepArgs};
use cloverleaf_wa::service::{model_hash, LoadOutcome, PersistentStore, Response, SweepService};
use proptest::prelude::*;

/// Flags of the analytic plan the protocol tests repeat, exactly as a
/// daemon client or the `figures sweep` command line would spell them.
const SWEEP_FLAGS: &str = "--machine icx-8360y --grid 1920 --ranks 1..12 --stage all --jobs 2";

/// A contended plan with three co-run identities (one per aggressor): four
/// passes, the three contended ones and the baseline they share.
const CONTENDED_FLAGS: &str = "--machine cva6 --ranks 1..4 --aggressor all --jobs 2";

/// The payload bytes of one `sweep <flags>` request against `service`.
fn request(service: &SweepService, flags: &str) -> String {
    match service.handle_request(&format!("sweep {flags}")) {
        Response::Payload(payload) => payload,
        other => panic!("sweep {flags} failed: {other:?}"),
    }
}

fn temp_store(name: &str) -> PersistentStore {
    let dir = std::env::temp_dir().join(format!("clover-service-tier1-{name}"));
    let _ = fs::remove_dir_all(&dir);
    PersistentStore::new(dir.join("store.txt"))
}

#[test]
fn warm_restart_hits_the_memo_and_reproduces_the_cold_bytes() {
    let store = temp_store("warm-restart");
    // Two requests with one co-run identity: the victim against a
    // thrashing aggressor on the Ice Lake LLC.
    let first = "--machine icx-8360y --ranks 1..36 --aggressor thrash";
    let second = "--machine icx-8360y --ranks 37..72 --aggressor thrash";
    let storeless = SweepService::new();
    let expected = (request(&storeless, first), request(&storeless, second));

    // "Process 1": cold start, the co-run is simulated and persisted.
    let (cold, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::ColdMissing);
    assert_eq!(request(&cold, first), expected.0);
    let corun = cold.sim_memo().corun_stats();
    assert_eq!((corun.hits, corun.misses), (0, 2), "a cold run simulates");
    let saved = cold.save().unwrap().expect("store is configured");
    assert_eq!(
        saved.written, 2,
        "both passes persist, the 36 analytic points do not"
    );

    // "Process 2": fresh memos, warm-loaded from disk, a request the first
    // process never saw — answered without simulating.
    let (warm, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::Warm(2), "store loads warm");
    assert_eq!(request(&warm, second), expected.1);
    let corun = warm.sim_memo().corun_stats();
    assert_eq!(
        (corun.hits, corun.misses),
        (2, 0),
        "both persisted passes are hits"
    );
    assert_eq!(
        request(&warm, first),
        expected.0,
        "warm restart must be byte-identical"
    );

    // "Process 3": the model hash changed — the store is untrusted and
    // nothing of it is loaded.
    let bumped = PersistentStore::with_hash(store.path(), model_hash() ^ 1);
    let (rebuilt, outcome) = SweepService::with_store(bumped);
    assert_eq!(
        outcome,
        LoadOutcome::ColdStale,
        "bumped hash must invalidate"
    );
    assert_eq!(rebuilt.sim_memo().corun_len(), 0);

    let _ = fs::remove_dir_all(store.path().parent().unwrap());
}

#[test]
fn store_round_trip_is_byte_identical_without_the_service_layer() {
    // The same property straight through `run_plan_memos` + the store —
    // the path `figures sweep --store <path>` takes.
    let store = temp_store("round-trip");
    let words: Vec<String> = CONTENDED_FLAGS
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let parsed = SweepArgs::parse(&words).unwrap();

    let (cold_sim, cold_memo) = (SimMemo::new(), SweepMemo::new());
    let cold_artifacts = run_plan_memos(&parsed.plan, parsed.jobs, &cold_memo, &cold_sim);
    assert_eq!(
        cold_sim.corun_stats().misses,
        4,
        "one per aggressor and their baseline"
    );
    assert_eq!(store.save(&cold_sim, &cold_memo).unwrap(), 4);

    let (warm_sim, warm_memo) = (SimMemo::new(), SweepMemo::new());
    let outcome = store.warm_load(&warm_sim, &warm_memo);
    assert_eq!(outcome.loaded(), 4);
    assert!(warm_memo.is_empty(), "analytic points are not persisted");
    // What was loaded is what was simulated, to the bit (`TenantReport`
    // compares its counters as floats; none of them is a NaN or -0.0).
    let sorted = |sim: &SimMemo| {
        let mut entries: Vec<_> = sim
            .corun_entries_stamped()
            .into_iter()
            .map(|(key, report, _)| (format!("{key:?}"), report))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    };
    assert_eq!(sorted(&warm_sim), sorted(&cold_sim));
    let warm_artifacts = run_plan_memos(&parsed.plan, parsed.jobs, &warm_memo, &warm_sim);
    assert_eq!(warm_artifacts, cold_artifacts, "full-precision equality");
    let corun = warm_sim.corun_stats();
    assert_eq!(
        (corun.hits, corun.misses),
        (6, 0),
        "the warm run simulates nothing"
    );

    let _ = fs::remove_dir_all(store.path().parent().unwrap());
}

#[test]
fn truncated_and_corrupt_stores_rebuild_and_resave() {
    let store = temp_store("corrupt");
    let (cold, _) = SweepService::with_store(store.clone());
    let cold_bytes = request(&cold, CONTENDED_FLAGS);
    assert_eq!(cold.save().unwrap().map(|saved| saved.written), Some(4));

    // Truncate: drop the `end <count>` trailer (a torn write).
    let full = fs::read_to_string(store.path()).unwrap();
    let trailer_at = full.rfind("end ").unwrap();
    fs::write(store.path(), &full[..trailer_at]).unwrap();
    let (service, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::ColdCorrupt, "truncation is detected");
    assert_eq!(
        request(&service, CONTENDED_FLAGS),
        cold_bytes,
        "rebuild is clean"
    );
    assert_eq!(service.sim_memo().corun_stats().misses, 4);
    // Saving heals the store for the next process.
    service.save().unwrap();
    let (_, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::Warm(4), "store was healed");

    // Arbitrary garbage never panics either.
    fs::write(store.path(), b"\xff\xfe not a store \x00").unwrap();
    let (service, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::ColdCorrupt);
    assert_eq!(request(&service, CONTENDED_FLAGS), cold_bytes);

    let _ = fs::remove_dir_all(store.path().parent().unwrap());
}

#[test]
fn serve_loop_answers_batched_clients_with_framed_payloads() {
    // The in-memory daemon loop: a client batch of ping + two identical
    // sweeps + stats + quit, answered in order with framed payloads.  The
    // two sweep payloads must be the same bytes — the second one answered
    // from the response cache without touching the memo.
    let service = SweepService::new();
    let batch = format!("ping\nsweep {SWEEP_FLAGS}\nsweep {SWEEP_FLAGS}\nstats\nquit\n");
    let mut out = Vec::new();
    service.serve(batch.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();

    assert!(text.starts_with("ok pong\n"), "{text}");
    let after_ping = &text["ok pong\n".len()..];
    let (len_line, rest) = after_ping.split_once('\n').unwrap();
    let len: usize = len_line.strip_prefix("ok ").unwrap().parse().unwrap();
    let first = &rest[..len];
    let (len_line2, rest2) = rest[len..].split_once('\n').unwrap();
    assert_eq!(len_line2, len_line, "identical request, identical framing");
    let second = &rest2[..len];
    assert_eq!(first, second, "repeated sweep is byte-identical");
    let tail = &rest2[len..];
    assert!(tail.contains("ok stats "), "{tail}");
    // 3 stages × 12 ranks, computed once: the repeat request is a
    // response-cache hit and never reaches the sweep memo.
    assert!(
        tail.contains("sweep-hits 0 sweep-misses 36"),
        "repeat served above the memo: {tail}"
    );
    assert!(
        tail.contains("response-hits 1 response-misses 1"),
        "repeat is a response-cache hit: {tail}"
    );
    assert!(tail.ends_with("ok bye\n"), "quit without a store: {tail}");
}

#[test]
fn an_endless_request_line_costs_one_buffer_and_one_error_line() {
    fn serve(service: &SweepService, input: impl BufRead) -> String {
        let mut out = Vec::new();
        service.serve(input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }
    let batch = format!("ping\nsweep {SWEEP_FLAGS}\nquit\n");
    let expected = serve(&SweepService::new(), batch.as_bytes());

    // 16 MiB without a newline: refused after 64 KiB, nothing buffered
    // beyond that, the connection closed.
    let service = SweepService::new();
    let endless = BufReader::new(io::repeat(b'x').take(16 << 20));
    let (out, (_, bytes)) = common::allocations(|| serve(&service, endless));
    assert_eq!(out, "error request line exceeds 65536 bytes\n");
    assert!(bytes < 1 << 20, "allocated {bytes} bytes");
    // The limit is on the line, not the batch: 65536 bytes and a newline
    // are a (bad) request like any other, one byte more is not.
    let longest = format!("{}\nping\n", "x".repeat(65536));
    let out = serve(&service, longest.as_bytes());
    assert!(out.starts_with("error unknown request") && out.ends_with("\nok pong\n"));
    let out = serve(&service, format!("x{longest}").as_bytes());
    assert_eq!(out, "error request line exceeds 65536 bytes\n");
    // The service and its other clients are unaffected.
    assert_eq!(serve(&service, batch.as_bytes()), expected);
}

#[test]
fn concurrent_saves_never_share_a_temp_file() {
    // Every pool worker saves when its client quits or disconnects, so
    // saves race each other and the sweeps still being served.  Whatever
    // the interleaving, the file left behind is one complete snapshot.
    let store = temp_store("concurrent-saves");
    let (service, _) = SweepService::with_store(store.clone());
    request(&service, CONTENDED_FLAGS);
    let barrier = std::sync::Barrier::new(9);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..25 {
                    service.save().expect("a racing save must not fail");
                }
            });
        }
        scope.spawn(|| {
            barrier.wait();
            // Every interleave is three contended passes of its own (the
            // baseline is shared): the table the saves snapshot keeps
            // growing under them.
            for interleave in 1..12 {
                request(
                    &service,
                    &format!("{CONTENDED_FLAGS} --interleave {interleave}"),
                );
            }
        });
    });
    let saved = service.save().unwrap().expect("store is configured");
    let entries = saved.written;
    assert_eq!(entries, 3 * 12 + 1);
    assert_eq!(entries, service.sim_memo().corun_len());
    assert_eq!(store.load().1, LoadOutcome::Warm(entries));
    let dir = store.path().parent().unwrap();
    let leftovers: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name.to_string_lossy().contains(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn compacted_store_reloads_warm_within_the_cap() {
    // Compaction acceptance: after serving a plan with three co-run
    // identities (four passes) and then another rank range of one of them
    // (which refreshes the recency of its two passes), a save capped to 2
    // keeps only those — the contended pass and the baseline — and a
    // fresh process loading the compacted store answers the recent plan
    // without simulating.
    let store = temp_store("compaction");
    let recent = "--machine cva6 --ranks 2..3 --aggressor stream";
    let cap = 2;

    let (cold, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::ColdMissing);
    let cold = cold.with_store_cap(cap);
    request(&cold, CONTENDED_FLAGS);
    let recent_bytes = request(&cold, recent);
    let saved = cold.save().unwrap().expect("store is configured");
    assert_eq!(saved.written, cap, "save is compacted to the cap");
    match cold.handle_request("stats") {
        Response::Line(line) => assert!(
            line.contains("store-evictions 2 store-compactions 1"),
            "compaction is counted: {line}"
        ),
        other => panic!("stats failed: {other:?}"),
    }

    // Fresh process: the compacted store holds ≤ cap entries, and the
    // recently served plan replays fully warm and byte-identical.
    let (warm, outcome) = SweepService::with_store(store.clone());
    assert_eq!(outcome, LoadOutcome::Warm(cap), "entry count ≤ store cap");
    assert_eq!(
        request(&warm, recent),
        recent_bytes,
        "compaction never changes bytes"
    );
    let corun = warm.sim_memo().corun_stats();
    assert_eq!(
        (corun.hits, corun.misses),
        (2, 0),
        "the surviving passes are the recent co-run's"
    );

    let _ = fs::remove_dir_all(store.path().parent().unwrap());
}

proptest! {
    /// The exact-statistics contract of the single-flight memo: for any
    /// thread count and key set, racing lookups compute every key exactly
    /// once — misses == distinct keys, hits == the rest, no double-counted
    /// misses in the duplicate-simulation window.
    #[test]
    fn racing_memo_lookups_count_exactly(
        threads in 2usize..6,
        keys in 1usize..8,
        rounds in 1usize..3,
    ) {
        let memo: Arc<FlightMemo<usize, usize>> = Arc::new(FlightMemo::new());
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let memo = Arc::clone(&memo);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..rounds {
                        for key in 0..keys {
                            let got = memo.get_or_insert_with(key, || key * 7);
                            assert_eq!(got, key * 7, "round {round}");
                        }
                    }
                });
            }
        });
        let (hits, misses) = memo.stats();
        prop_assert_eq!(misses as usize, keys, "one miss per distinct key");
        prop_assert_eq!(
            (hits + misses) as usize,
            threads * rounds * keys,
            "every lookup is either a hit or a miss"
        );
        prop_assert_eq!(memo.len(), keys);
    }
}

proptest! {
    /// The coalescing acceptance property of the pipelined daemon: any
    /// number of clients racing overlapping *and* identical sweeps on one
    /// shared service receive payloads byte-identical to what
    /// `figures sweep` prints for the same flags, in every interleaving —
    /// and the flight statistics prove the coalescing was real: across
    /// all clients and rounds, each unique (scenario, point) key was
    /// computed exactly once.
    #[test]
    fn concurrent_clients_get_cli_bytes_and_compute_each_point_once(
        clients in 2usize..5,
        nspans in 1usize..4,
        s1 in 1u32..4, l1 in 1u32..5,
        s2 in 1u32..4, l2 in 1u32..5,
        s3 in 1u32..4, l3 in 1u32..5,
        rounds in 1usize..3,
    ) {
        let spans: Vec<(u32, u32)> = [(s1, l1), (s2, l2), (s3, l3)][..nspans].to_vec();
        // Overlapping rank windows of one scenario family, plus a
        // respelled duplicate of the first window (explicit defaults and
        // a different --jobs) that must collapse onto the same canonical
        // response identity.
        let mut variants: Vec<String> = spans
            .iter()
            .map(|(start, len)| {
                format!("--machine icx-8360y --grid 1920 --ranks {start}..{}", start + len)
            })
            .collect();
        variants.push(format!("{} --stage original --jobs 3", variants[0]));

        // The single-threaded CLI path: the reference bytes per variant.
        let expected: Vec<String> = variants
            .iter()
            .map(|flags| {
                let words: Vec<String> =
                    flags.split_whitespace().map(str::to_string).collect();
                let parsed = SweepArgs::parse(&words).unwrap();
                let artifacts = run_plan_memo(&parsed.plan, parsed.jobs, &SweepMemo::new());
                artifacts.iter().map(render_block).collect()
            })
            .collect();

        let service = Arc::new(SweepService::new());
        std::thread::scope(|scope| {
            for c in 0..clients {
                let service = Arc::clone(&service);
                let variants = &variants;
                let expected = &expected;
                scope.spawn(move || {
                    // Each client walks the variants from its own offset,
                    // so identical requests race across clients.
                    for r in 0..rounds {
                        for v in 0..variants.len() {
                            let idx = (c + r + v) % variants.len();
                            match service.handle_request(&format!("sweep {}", variants[idx])) {
                                Response::Payload(payload) => assert_eq!(
                                    payload, expected[idx],
                                    "client {c} round {r}: bytes differ from the CLI"
                                ),
                                other => panic!("client {c}: sweep failed: {other:?}"),
                            }
                        }
                    }
                });
            }
        });

        // Every sweep-memo miss is one computed point; the union of the
        // rank windows is exactly the unique key set.
        let unique: std::collections::HashSet<u32> =
            spans.iter().flat_map(|&(s, l)| s..=s + l).collect();
        let (_, misses) = service.sweep_memo().stats();
        prop_assert_eq!(
            misses as usize,
            unique.len(),
            "each unique point computed exactly once across all clients"
        );
    }
}
