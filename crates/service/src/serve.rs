//! The `figures serve` query daemon: a long-running sweep service over a
//! warm memo state.
//!
//! A [`SweepService`] owns one [`SweepMemo`] + [`SimMemo`] pair for its
//! whole lifetime (the co-run simulations of the latter warm-loaded from a
//! [`PersistentStore`] at startup, written back on shutdown and on
//! request), and answers a line-based request protocol:
//!
//! ```text
//! sweep <axis flags...>   evaluate a sweep plan; the flags are exactly
//!                         the `figures sweep` command line (shared
//!                         parser), the response payload is byte-identical
//!                         to what `figures sweep` prints
//! stats                   memo hit/miss/entry counts (`sim-*` sum the
//!                         solo and co-run tables; a co-run identity is
//!                         two passes, the contended one and the baseline)
//! save                    persist the co-run simulations now
//! ping                    liveness probe
//! quit                    save (if a store is configured) and disconnect
//! ```
//! The four control verbs take no arguments (`error <verb> takes no
//! arguments`; a refused `quit` stays connected).
//!
//! Responses are framed so payloads of any shape stream unambiguously:
//! `ok <byte count>\n<payload>` for sweeps, `error <message>\n` for
//! rejected requests (one line, same wording as the CLI usage errors),
//! and single `ok ...` lines for the control verbs.
//!
//! The daemon front ends ([`serve_stdin`], [`serve_unix`]) share
//! [`SweepService::serve`] over generic reader/writer pairs, so the whole
//! protocol is testable in-memory.  The unix-socket front end is a
//! bounded-concurrency pipeline: an acceptor thread feeds accepted
//! connections into a bounded channel drained by a fixed worker pool
//! (`--workers N`), every worker sharing one service.  Cross-request
//! coalescing happens in the shared state: identical in-flight keys across
//! concurrent clients collapse onto one evaluation (single-flight, a
//! property of the memos themselves), overlapping plans share their
//! points through the common [`SweepMemo`] (one rank curve per machine,
//! grid and option set, one slot per rank count), and
//! *identical* requests short-circuit through a bounded LRU
//! [`ResponseCache`] keyed by the canonical request identity
//! (`SweepArgs::cache_key` + model hash).
//!
//! Every reply leaves in one `write` of one buffer: a payload's header and
//! bytes are framed together and a line carries its newline, so a client
//! may read a whole reply at once.  The service caches replies as they go
//! on the wire, `ok <len>\n<payload>` (the cache itself does not care what
//! its strings hold), so a response-cache hit writes shared bytes and
//! copies none.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clover_cachesim::SimMemo;
use clover_core::SweepMemo;
use clover_scenario::{render, run_plan_memos, SweepArgs};

use crate::cache::{ResponseCache, ResponseCacheStats};
use crate::model::model_hash;
use crate::pool::WorkerPool;
use crate::store::{LoadOutcome, PersistentStore, SaveReport};

/// Response-cache capacity (payload entries) of a service.
pub const DEFAULT_RESPONSE_CACHE_ENTRIES: usize = 128;

/// Longest request line [`SweepService::serve`] accepts, in bytes without
/// the newline (a sweep over every axis is a few hundred).  A client that
/// sends more without a newline is answered one error line and
/// disconnected, so it cannot grow a worker's line buffer without bound.
const MAX_REQUEST_LINE: usize = 64 << 10;

/// A long-lived sweep evaluator: the memo state, its co-run simulations
/// optionally backed by a persistent store, fronted by a bounded LRU
/// response cache.
pub struct SweepService {
    sim: SimMemo,
    sweep: SweepMemo,
    store: Option<PersistentStore>,
    /// Framed sweep replies, `ok <len>\n<payload>`, by canonical key.
    responses: ResponseCache,
    /// Entry bound applied when persisting the co-run simulations (see
    /// [`PersistentStore::save_capped`]); `usize::MAX` saves everything.
    store_cap: usize,
    /// Per-request `--jobs` clamp; `usize::MAX` trusts the request.  The
    /// pooled daemon sets this so `workers × jobs` cannot oversubscribe the
    /// machine (output is byte-identical for any jobs count, so clamping
    /// is invisible in the payload).
    max_jobs: usize,
    /// Requests answered so far (all verbs).
    requests: AtomicU64,
    /// Store entries evicted by capped saves so far.
    store_evictions: AtomicU64,
    /// Capped saves that actually evicted (compaction passes) so far.
    store_compactions: AtomicU64,
}

impl Default for SweepService {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepService {
    /// A service with empty memos, no backing store and a default-sized
    /// response cache.
    pub fn new() -> Self {
        Self {
            sim: SimMemo::new(),
            sweep: SweepMemo::new(),
            store: None,
            responses: ResponseCache::new(DEFAULT_RESPONSE_CACHE_ENTRIES),
            store_cap: usize::MAX,
            max_jobs: usize::MAX,
            requests: AtomicU64::new(0),
            store_evictions: AtomicU64::new(0),
            store_compactions: AtomicU64::new(0),
        }
    }

    /// A service backed by `store`: its co-run simulations are warm-loaded
    /// immediately (missing/stale/corrupt stores load nothing, see
    /// [`LoadOutcome`]) and written back by `save` requests, `quit` and
    /// [`serve`](Self::serve) shutdown.
    pub fn with_store(store: PersistentStore) -> (Self, LoadOutcome) {
        let mut service = Self::new();
        let outcome = store.warm_load(&service.sim, &service.sweep);
        service.store = Some(store);
        (service, outcome)
    }

    /// Bound persisted snapshots to `cap` entries: saves become
    /// compaction passes that evict the least recently touched entries
    /// (see [`PersistentStore::save_capped`]).
    pub fn with_store_cap(mut self, cap: usize) -> Self {
        self.store_cap = cap;
        self
    }

    /// Clamp every request's `--jobs` to at most `max_jobs`.  Output is
    /// byte-identical for any jobs count, so this changes scheduling
    /// only; the pooled daemon uses it to keep `workers × jobs` within
    /// the machine's parallelism.
    pub fn with_max_jobs(mut self, max_jobs: usize) -> Self {
        self.max_jobs = max_jobs.max(1);
        self
    }

    /// The simulation memo (shared across every request and client).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim
    }

    /// The scaling-point memo (shared across every request and client).
    pub fn sweep_memo(&self) -> &SweepMemo {
        &self.sweep
    }

    /// Response-cache statistics.
    pub fn response_stats(&self) -> ResponseCacheStats {
        self.responses.stats()
    }

    /// Persist the co-run simulations, if a store is configured.  Returns
    /// what was written, or `None` without a store; a failure reads `save
    /// failed: <e>`, which is what every front end says behind its own
    /// prefix.  With a store cap the save is a compaction pass: the least
    /// recently touched entries beyond the cap are evicted from the
    /// written file (counted in the `stats` verb's `store-evictions` /
    /// `store-compactions`).
    pub fn save(&self) -> io::Result<Option<SaveReport>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let report = store
            .save_capped(&self.sim, &self.sweep, self.store_cap)
            .map_err(|e| io::Error::new(e.kind(), format!("save failed: {e}")))?;
        if report.evicted > 0 {
            self.store_evictions
                .fetch_add(report.evicted as u64, Ordering::Relaxed);
            self.store_compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(report))
    }

    /// Evaluate one parsed sweep: exactly the bytes `figures sweep` prints
    /// for the same flags, because `figures sweep` prints what this
    /// returns.  The memos are the service's, so plans that overlap an
    /// earlier one pay only for what is new.
    pub fn sweep(&self, args: &SweepArgs) -> String {
        let jobs = args.jobs.min(self.max_jobs).max(1);
        let artifacts = run_plan_memos(&args.plan, jobs, &self.sweep, &self.sim);
        render(&artifacts, args.json)
    }

    /// Answer one request line with the response to send back: the reply
    /// [`serve`](Self::serve) writes, unframed (a line without its newline,
    /// a payload copied out behind its header).  Exposed for tests and for
    /// front ends with their own framing.
    pub fn handle_request(&self, line: &str) -> Response {
        match self.reply(line) {
            Reply::Empty => Response::Empty,
            Reply::Line(mut text) => {
                text.pop();
                Response::Line(text)
            }
            Reply::Frame(frame) => {
                let (_, payload) = frame
                    .split_once('\n')
                    .expect("a frame starts with its header line");
                Response::Payload(payload.to_string())
            }
            Reply::Quit => Response::Quit,
        }
    }

    /// Answer one request line with its reply as it goes on the wire.
    fn reply(&self, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let trimmed = line.trim();
        let mut words = trimmed.split_whitespace();
        let verb = words.next();
        // Only `sweep` reads the rest of its line.
        if let Some(verb @ ("ping" | "stats" | "save" | "quit")) = verb {
            if words.next().is_some() {
                return Reply::Line(format!("error {verb} takes no arguments\n"));
            }
        }
        match verb {
            None => Reply::Empty,
            Some("ping") => Reply::Line("ok pong\n".into()),
            Some("stats") => {
                let (sweep_hits, sweep_misses) = self.sweep.stats();
                // Both simulation tables: a co-run is a simulation too.
                let (sim, corun) = (self.sim.stats(), self.sim.corun_stats());
                let responses = self.response_stats();
                Reply::Line(format!(
                    "ok stats sweep-hits {sweep_hits} sweep-misses {sweep_misses} \
                     sweep-entries {} sim-hits {} sim-misses {} sim-entries {} \
                     requests {} response-hits {} response-misses {} \
                     response-evictions {} store-evictions {} store-compactions {}\n",
                    self.sweep.len(),
                    sim.hits + corun.hits,
                    sim.misses + corun.misses,
                    self.sim.len() + self.sim.corun_len(),
                    self.requests.load(Ordering::Relaxed),
                    responses.hits,
                    responses.misses,
                    responses.evictions,
                    self.store_evictions.load(Ordering::Relaxed),
                    self.store_compactions.load(Ordering::Relaxed),
                ))
            }
            Some("save") => Reply::Line(match self.save() {
                Ok(Some(saved)) => format!("ok saved {}\n", saved.written),
                Ok(None) => "error no store configured\n".into(),
                Err(e) => format!("error {e}\n"),
            }),
            Some("quit") => Reply::Quit,
            Some("sweep") => {
                let args: Vec<&str> = words.collect();
                match SweepArgs::parse(&args) {
                    Err(message) => Reply::Line(format!("error sweep: {message}\n")),
                    Ok(parsed) => {
                        // Canonical output identity: collapses flag
                        // spellings and `--jobs`, versioned by the model
                        // hash like the persistent store.
                        let key = format!("{:016x}\n{}", model_hash(), parsed.cache_key());
                        if let Some(frame) = self.responses.get(&key) {
                            // Repeat query: the cached frame itself,
                            // byte-identical by construction (frames are
                            // stored under the canonical key of the
                            // deterministic evaluation that produced them).
                            return Reply::Frame(frame);
                        }
                        let payload = self.sweep(&parsed);
                        let frame = Arc::new(format!("ok {}\n", payload.len()) + &payload);
                        self.responses.insert(key, Arc::clone(&frame));
                        Reply::Frame(frame)
                    }
                }
            }
            Some(other) => Reply::Line(format!(
                "error unknown request '{other}' (known: sweep, stats, save, ping, quit)\n"
            )),
        }
    }

    /// Serve requests from `reader` line by line until `quit`, EOF or a
    /// line longer than 64 KiB (`error request line exceeds 65536 bytes`,
    /// and this client is disconnected), writing framed responses to
    /// `writer`; then persist the co-run simulations (when a store is
    /// configured; at EOF a failure is the returned error, `save failed:
    /// <e>`, after `quit` it is the reply).  Batched requests — several
    /// lines sent at once — are answered in order.
    pub fn serve(&self, mut reader: impl BufRead, writer: &mut impl Write) -> io::Result<()> {
        // A reply is one buffer, so it leaves in one `write` (unless the
        // peer's buffer takes it in parts); `write!` would issue one per
        // piece of its format string.
        let mut send = |reply: &str| -> io::Result<()> {
            writer.write_all(reply.as_bytes())?;
            writer.flush()
        };
        let mut line = String::new();
        loop {
            line.clear();
            let mut bounded = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
            if bounded.read_line(&mut line)? == 0 {
                break;
            }
            if line.len() > MAX_REQUEST_LINE && !line.ends_with('\n') {
                send(&format!(
                    "error request line exceeds {MAX_REQUEST_LINE} bytes\n"
                ))?;
                break;
            }
            match self.reply(&line) {
                Reply::Empty => {}
                Reply::Line(text) => send(&text)?,
                Reply::Frame(frame) => send(&frame)?,
                Reply::Quit => {
                    return send(&match self.save() {
                        Ok(Some(saved)) => format!("ok bye saved {}\n", saved.written),
                        Ok(None) => "ok bye\n".to_string(),
                        Err(e) => format!("error {e}\n"),
                    });
                }
            }
        }
        // EOF, or a client cut off: persist like a clean quit.  The peer
        // is gone, so a failed save is the caller's to report.
        self.save().map(drop)
    }
}

/// One response of [`SweepService::handle_request`].
#[derive(Debug, PartialEq, Eq)]
pub enum Response {
    /// Blank request line; nothing is written.
    Empty,
    /// A single response line (without the trailing newline).
    Line(String),
    /// A sweep payload, framed as `ok <byte count>\n<payload>`.
    Payload(String),
    /// `quit`: acknowledge, save and stop serving this client.
    Quit,
}

/// One reply of [`SweepService::reply`], as it goes on the wire.
enum Reply {
    /// Blank request line; nothing is written.
    Empty,
    /// A single line, newline included.
    Line(String),
    /// A sweep payload framed as `ok <byte count>\n<payload>`: what the
    /// response cache holds, so a hit shares its bytes.
    Frame(Arc<String>),
    /// `quit`: its line depends on the save [`SweepService::serve`] makes.
    Quit,
}

/// Serve the request protocol over stdin/stdout until EOF or `quit`.
pub fn serve_stdin(service: &SweepService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    service.serve(stdin.lock(), &mut out)
}

/// Serve the request protocol on a unix socket with a bounded worker
/// pool: the acceptor thread sends accepted connections into a bounded
/// channel drained by exactly `workers` pool threads (clamped to ≥ 1), all
/// sharing `service` — identical in-flight keys across concurrent clients
/// are evaluated once, overlapping plans share their per-point flights,
/// identical requests hit the response cache.  Accept and per-connection
/// IO errors are logged and the daemon keeps serving.  Binds `path`: a
/// socket file nobody listens on (a dead daemon's) is taken over, one a
/// live daemon answers on is `AddrInUse`.  Runs until the process is
/// killed.
pub fn serve_unix(
    service: Arc<SweepService>,
    path: &std::path::Path,
    workers: usize,
) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    match UnixStream::connect(path) {
        // Somebody accepts on it: unlinking the file would silently take
        // every future client away from a live daemon.
        Ok(_) => {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("socket {} is owned by a live daemon", path.display()),
            ))
        }
        // A dead daemon's socket file would make bind fail with
        // AddrInUse; if it cannot be removed, bind says so.
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
            let _ = std::fs::remove_file(path);
        }
        // Absent, or something bind reports better than we can.
        Err(_) => {}
    }
    let listener = UnixListener::bind(path)?;
    let (queue, pool) = WorkerPool::spawn(workers, {
        let service = Arc::clone(&service);
        move |stream: UnixStream| {
            let served = (|| -> io::Result<()> {
                let reader = BufReader::new(stream.try_clone()?);
                let mut writer = stream;
                service.serve(reader, &mut writer)
            })();
            if let Err(e) = served {
                // One client's broken pipe, or a store that cannot be
                // written when it leaves, must not take the daemon (or
                // this worker) down.
                eprintln!("figures serve: {e}; continuing");
            }
        }
    });
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                if queue.send(stream).is_err() {
                    break; // no worker is left to serve it
                }
            }
            Err(e) => {
                eprintln!("figures serve: accept failed: {e}; continuing");
            }
        }
    }
    drop(queue);
    pool.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sweep_line(rest: &str) -> String {
        format!("sweep --machine icx-8360y --ranks 1..8 --grid 1920 --jobs 2{rest}")
    }

    fn run(service: &SweepService, input: &str) -> String {
        let mut out = Vec::new();
        service
            .serve(Cursor::new(input.as_bytes()), &mut out)
            .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn ping_and_unknown_requests() {
        let service = SweepService::new();
        assert_eq!(
            service.handle_request("ping"),
            Response::Line("ok pong".into())
        );
        assert_eq!(service.handle_request("  "), Response::Empty);
        let Response::Line(err) = service.handle_request("launch-missiles") else {
            panic!("expected an error line");
        };
        assert!(err.starts_with("error unknown request 'launch-missiles'"));
    }

    #[test]
    fn sweep_payload_is_byte_identical_to_run_plan() {
        let service = SweepService::new();
        let args: Vec<String> = [
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..8",
            "--grid",
            "1920",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = SweepArgs::parse(&args).unwrap();
        let expected = render(&clover_scenario::run_plan(&parsed.plan, 2), false);
        let Response::Payload(payload) = service.handle_request(&sweep_line("")) else {
            panic!("expected a payload");
        };
        assert_eq!(payload, expected);
    }

    #[test]
    fn repeated_sweeps_hit_the_response_cache_and_stay_identical() {
        let service = SweepService::new();
        let Response::Payload(cold) = service.handle_request(&sweep_line("")) else {
            panic!("expected a payload");
        };
        let (_, cold_misses) = service.sweep_memo().stats();
        assert_eq!(cold_misses, 8);
        let Response::Payload(warm) = service.handle_request(&sweep_line("")) else {
            panic!("expected a payload");
        };
        assert_eq!(cold, warm, "warm responses must be byte-identical");
        // The repeat was an O(payload) response-cache copy: the memo was
        // not consulted again.
        let (hits, misses) = service.sweep_memo().stats();
        assert_eq!(misses, 8, "second request evaluated nothing");
        assert_eq!(hits, 0, "second request never reached the memo");
        let responses = service.response_stats();
        assert_eq!((responses.hits, responses.misses), (1, 1));
        // A different spelling of the same plan is still one cache entry
        // (`--jobs` is excluded from the canonical key).
        let Response::Payload(respelled) = service.handle_request(&sweep_line(" --stage original"))
        else {
            panic!("expected a payload");
        };
        assert_eq!(cold, respelled);
        assert_eq!(service.response_stats().hits, 2);
    }

    #[test]
    fn jobs_clamp_changes_scheduling_not_bytes() {
        let unclamped = SweepService::new();
        let clamped = SweepService::new().with_max_jobs(1);
        let Response::Payload(a) = unclamped.handle_request(&sweep_line("")) else {
            panic!("expected a payload");
        };
        let Response::Payload(b) = clamped.handle_request(&sweep_line("")) else {
            panic!("expected a payload");
        };
        assert_eq!(a, b, "clamped jobs must not change a byte");
    }

    #[test]
    fn stats_line_reports_response_and_store_counters() {
        let service = SweepService::new();
        let _ = service.handle_request(&sweep_line(""));
        let _ = service.handle_request(&sweep_line(""));
        let Response::Line(stats) = service.handle_request("stats") else {
            panic!("expected a stats line");
        };
        // The PR 7 prefix is untouched (CI greps depend on it) and the
        // new counters ride behind `requests`.
        assert!(stats.starts_with("ok stats sweep-hits "), "{stats}");
        assert!(
            stats.contains(
                "response-hits 1 response-misses 1 response-evictions 0 \
                 store-evictions 0 store-compactions 0"
            ),
            "{stats}"
        );
    }

    #[test]
    fn requests_with_one_corun_identity_share_its_simulation() {
        let service = SweepService::new();
        for ranks in ["1..36", "37..72"] {
            let line =
                format!("sweep --machine icx-8360y --ranks {ranks} --aggressor thrash --jobs 1");
            let Response::Payload(_) = service.handle_request(&line) else {
                panic!("expected a payload");
            };
        }
        // Two passes — the contended one and the victim's baseline —
        // simulated by the first request, found by the second.
        let corun = service.sim_memo().corun_stats();
        assert_eq!((corun.hits, corun.misses), (2, 2));
        let Response::Line(stats) = service.handle_request("stats") else {
            panic!("expected a stats line");
        };
        assert!(
            stats.contains("sim-hits 2 sim-misses 2 sim-entries 2 "),
            "{stats}"
        );
    }

    #[test]
    fn malformed_sweeps_error_without_payload() {
        let service = SweepService::new();
        let Response::Line(err) = service.handle_request("sweep --machine epyc --ranks 1..4")
        else {
            panic!("expected an error line");
        };
        assert!(err.starts_with("error sweep:"), "{err}");
        assert!(err.contains("unknown machine"), "{err}");
        assert!(!err.contains('\n'), "errors are one line");
        assert_eq!(service.sweep_memo().len(), 0);
        // The whole line, once: the parser's message behind one prefix.
        let flags = "sweep --machine icx-8360y --ranks 1..4";
        for (rest, message) in [
            ("x", "unexpected argument 'x'"),
            ("--json --json", "--json given twice"),
        ] {
            assert_eq!(
                service.handle_request(&format!("{flags} {rest}")),
                Response::Line(format!("error sweep: {message}"))
            );
        }
    }

    #[test]
    fn control_verbs_take_no_arguments() {
        let service = SweepService::new();
        let output = run(
            &service,
            "ping y\nsave x\nstats now\nquit now\nping\nquit\nping\n",
        );
        assert_eq!(
            output,
            "error ping takes no arguments\n\
             error save takes no arguments\n\
             error stats takes no arguments\n\
             error quit takes no arguments\n\
             ok pong\n\
             ok bye\n",
            "a refused quit does not disconnect"
        );
    }

    #[test]
    fn serve_loop_frames_batched_requests_in_order() {
        let service = SweepService::new();
        let input = format!("ping\n{}\nstats\n", sweep_line(""));
        let output = run(&service, &input);
        let mut lines = output.lines();
        assert_eq!(lines.next(), Some("ok pong"));
        let frame = lines.next().unwrap();
        let payload_len: usize = frame
            .strip_prefix("ok ")
            .and_then(|n| n.parse().ok())
            .expect("ok <len> frame");
        let rest: Vec<&str> = lines.collect();
        // The payload spans payload_len bytes; the stats line follows it.
        let payload_and_stats = rest.join("\n");
        assert!(payload_and_stats.len() > payload_len);
        let stats_line = &payload_and_stats[payload_len..];
        assert!(stats_line.starts_with("ok stats "), "{stats_line}");
        assert!(stats_line.contains("sweep-misses 8"), "{stats_line}");
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Writes {
        fn text(self) -> Vec<String> {
            self.0
                .into_iter()
                .map(|w| String::from_utf8(w).unwrap())
                .collect()
        }
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        // Each reply as the protocol frames it, built from what makes its
        // bytes rather than from `serve`.
        let frame = |json| {
            let flags = [
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..8",
                "--grid",
                "1920",
            ];
            let plan = SweepArgs::parse(&flags).unwrap().plan;
            let payload = render(&clover_scenario::run_plan(&plan, 2), json);
            format!("ok {}\n{payload}", payload.len())
        };
        let unknown = SweepArgs::parse(&["--machine", "epyc", "--ranks", "1..4"]).unwrap_err();
        let batch: [(String, String); 10] = [
            (sweep_line(""), frame(false)),
            // Respelled: a response-cache hit.
            (sweep_line(" --stage original"), frame(false)),
            (sweep_line(" --json"), frame(true)),
            (
                "sweep --machine epyc --ranks 1..4".into(),
                format!("error sweep: {unknown}\n"),
            ),
            (
                "bogus".into(),
                "error unknown request 'bogus' (known: sweep, stats, save, ping, quit)\n".into(),
            ),
            ("ping".into(), "ok pong\n".into()),
            // Blank: no reply, no write.
            ("  ".into(), String::new()),
            (
                "stats".into(),
                "ok stats sweep-hits 8 sweep-misses 8 sweep-entries 8 sim-hits 0 \
                 sim-misses 0 sim-entries 0 requests 8 response-hits 1 response-misses 2 \
                 response-evictions 0 store-evictions 0 store-compactions 0\n"
                    .into(),
            ),
            ("save".into(), "error no store configured\n".into()),
            ("quit".into(), "ok bye\n".into()),
        ];
        let input: String = batch.iter().map(|(line, _)| format!("{line}\n")).collect();
        let replies: Vec<String> = batch
            .into_iter()
            .map(|(_, reply)| reply)
            .filter(|reply| !reply.is_empty())
            .collect();
        let service = SweepService::new();
        let mut writes = Writes::default();
        service.serve(Cursor::new(input), &mut writes).unwrap();
        assert_eq!(writes.text(), replies);

        // A second session, one line over the limit: one write, then the
        // client is cut off.
        let mut writes = Writes::default();
        let endless = "x".repeat(MAX_REQUEST_LINE + 1);
        service.serve(Cursor::new(endless), &mut writes).unwrap();
        assert_eq!(writes.text(), ["error request line exceeds 65536 bytes\n"]);
    }

    #[test]
    fn quit_acknowledges_and_stops() {
        let service = SweepService::new();
        let output = run(&service, "ping\nquit\nping\n");
        assert_eq!(output, "ok pong\nok bye\n");
    }

    #[test]
    fn a_live_socket_is_refused_and_a_dead_one_taken_over() {
        use std::os::unix::net::{UnixListener, UnixStream};
        let dir = std::env::temp_dir().join(format!("clover-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        // What a killed daemon leaves behind: a socket file nobody accepts on.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());

        // `serve_unix` only returns on an error; the listener thread lives
        // until the test process exits.
        let first = std::thread::spawn({
            let path = path.clone();
            move || serve_unix(Arc::new(SweepService::new()), &path, 1)
        });
        let ping = || -> io::Result<String> {
            let mut stream = UnixStream::connect(&path)?;
            stream.write_all(b"ping\n")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while ping().ok().as_deref() != Some("ok pong\n") {
            assert!(!first.is_finished(), "{:?}", first.join());
            assert!(
                std::time::Instant::now() < deadline,
                "the stale socket file was never taken over"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let second = serve_unix(Arc::new(SweepService::new()), &path, 1);
        let err = second.expect_err("the path has a live owner");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("daemon.sock"), "{err}");
        assert_eq!(
            ping().unwrap(),
            "ok pong\n",
            "the first daemon still owns it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_save_is_a_reply_behind_quit_and_an_error_at_eof() {
        // A store path under a regular file can never be written.
        let file = std::env::temp_dir().join(format!("clover-serve-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let (service, _) = SweepService::with_store(PersistentStore::new(file.join("store")));
        let mut out = Vec::new();
        let err = service
            .serve(Cursor::new("ping\n"), &mut out)
            .expect_err("nobody is left to read a reply: the caller reports it");
        assert!(err.to_string().starts_with("save failed: "), "{err}");
        assert_eq!(out, b"ok pong\n");
        let reply = run(&service, "quit\n");
        assert!(reply.starts_with("error save failed: "), "{reply}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn save_without_a_store_is_a_clean_error() {
        let service = SweepService::new();
        assert_eq!(
            service.handle_request("save"),
            Response::Line("error no store configured".into())
        );
    }
}
