//! The four workloads.  Each has a set-up (build inputs, cross-check the
//! in-process bytes against the CLI's, pin them against
//! `benchmark/expected/`, warm up), a pass that is timed, traced when
//! tracing is on, and checked, and the per-layer readings of the layers it
//! reaches.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clover_bench::{run_artifact, EXPERIMENTS};
use clover_cachesim::SimMemo;
use clover_core::SweepMemo;
use clover_golden::{check_artifact, golden, Artifact};
use clover_scenario::{evaluate, render_block, run_plan_memo, SweepArgs, SweepPlan};
use clover_service::{
    model_hash, PersistentStore, Response, ResponseCache, SweepService,
    DEFAULT_RESPONSE_CACHE_ENTRIES,
};

use crate::expected::{fnv1a, Expected};
use crate::probes::{self, Layers};
use crate::requests::{
    generate, hot_line, icx_plan_flags, read_reply, sweep_shape_ok, tenancy_flags, wide_plan_flags,
    words, Class, Expect, Reply, Request, HOT_SET, REJECT_LINES, TENANCY_RANGES,
};
use crate::stats::{median, percentile, quiet, sorted};
use crate::sys::{
    die_with_parent, fresh_figures, proc_usage, run_to_end, usage, ChildGuard, Scratch, Usage,
};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "paper_all",
    "tenancy",
    "sweep_grid_cold",
    "serve_socket_mix",
];

/// What every workload is given: the seed, the program, a scratch
/// directory, the pinned outputs.
pub struct Env {
    pub seed: u64,
    pub figures: PathBuf,
    pub scratch: Scratch,
    pub expected: Expected,
}

impl Env {
    /// The freshly built `figures`, a scratch directory under
    /// `benchmark/out/`, and `expected` to compare with or record into.
    pub fn new(seed: u64, expected: Expected) -> Result<Self, String> {
        let out_dir = Path::new(crate::run::OUT_DIR);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Self {
            seed,
            figures: fresh_figures()?,
            scratch: Scratch::new(out_dir)?,
            expected,
        })
    }

    /// Run `figures <args>` to completion and return its stdout.
    pub fn figures(&self, args: &str) -> Result<Vec<u8>, String> {
        let done = run_to_end(Command::new(&self.figures).args(args.split_whitespace()))?;
        if done.success {
            Ok(done.stdout)
        } else {
            Err(format!("`figures {args}` exited with a failure status"))
        }
    }
}

/// One timed pass.
#[derive(Default)]
pub struct Pass {
    /// Time spent on the work itself; checking is not timed.
    pub wall_ns: u64,
    /// Scaling points (artifact rows for `paper_all`) answered.
    pub points: u64,
    pub failed: u64,
    /// One entry per request the pass made.
    pub latencies_ns: Vec<u64>,
    /// CPU time the process doing the work spent on the pass, and how slow
    /// the host was around it (see `calib`); the runner fills them in.
    pub cpu_us: f64,
    pub slowdown: f64,
}

impl Pass {
    pub fn requests(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn request(&mut self, ns: u64, points: u64, ok: bool) {
        self.latencies_ns.push(ns);
        self.points += points;
        self.failed += u64::from(!ok);
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    fn set_up(env: &Env) -> Result<Self, String>;

    fn pass(&mut self, env: &Env, tr: &mut Tracer) -> Result<Pass, String>;

    /// CPU time and peak memory of the process doing the work.
    fn usage(&self) -> Result<Usage, String> {
        Ok(usage())
    }

    /// Readings printed beside the metrics that are not metrics.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer readings of the layers this workload reaches, taken after
    /// the traced passes (whose spans are in `tr`).
    fn layers(&mut self, env: &Env, tr: &mut Tracer, out: &mut Layers) -> Result<(), String>;
}

pub fn parse_sweep(flags: &str) -> Result<SweepArgs, String> {
    SweepArgs::parse(&words(flags)).map_err(|e| format!("`{flags}`: {e}"))
}

pub fn plan_points(plan: &SweepPlan) -> u64 {
    plan.expand().iter().map(|s| s.ranks.len() as u64).sum()
}

/// The bytes `figures sweep` prints for a plan: every artifact's block.
pub fn render(artifacts: &[Artifact], json: bool) -> String {
    if json {
        let blocks: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
        format!("[{}]\n", blocks.join(","))
    } else {
        artifacts.iter().map(render_block).collect()
    }
}

fn same_bytes(what: &str, in_process: &[u8], cli: &[u8]) -> Result<(), String> {
    if in_process == cli {
        Ok(())
    } else {
        Err(format!(
            "{what}: in-process output ({} bytes, {:016x}) differs from the CLI's ({} bytes, {:016x})",
            in_process.len(),
            fnv1a(in_process),
            cli.len(),
            fnv1a(cli)
        ))
    }
}

/// Quiet-host duration, in units of `unit_ns`, of the spans `name`/`detail`.
fn span_quiet(tr: &Tracer, name: &str, detail: &str, unit_ns: f64) -> f64 {
    let ns = tr.durations(name, detail);
    if ns.is_empty() {
        0.0
    } else {
        quiet(&ns, false) / unit_ns
    }
}

// ---------------------------------------------------------------- paper_all

/// Regenerate and check all 12 paper artifacts, cold: what
/// `figures --check all` does.
pub struct PaperAll {
    csv: BTreeMap<&'static str, String>,
    cells_checked: u64,
    cells_failed: u64,
    max_rel_err: f64,
}

const ANALYTIC_FIGS: [&str; 6] = ["listing2", "table1", "fig2", "fig3", "fig4", "fig7"];

impl PaperAll {
    /// Regenerate, render and check every artifact, one request each: the
    /// timed pass, and each artifact's CSV and whether its cells are all
    /// within tolerance (`failed` of the pass is left to the caller).
    fn regenerate(&mut self, tr: &mut Tracer) -> (Pass, Vec<(&'static str, String, bool)>) {
        let mut pass = Pass::default();
        let mut csv = Vec::with_capacity(EXPERIMENTS.len());
        (self.cells_checked, self.cells_failed, self.max_rel_err) = (0, 0, 0.0);
        let start = Instant::now();
        tr.span("paper_all.pass", "", |tr| {
            for name in EXPERIMENTS {
                let reference = golden(name).expect("every experiment has golden data");
                let start = Instant::now();
                let artifact = tr
                    .span("bench.run_artifact", name, |_| run_artifact(name))
                    .expect("EXPERIMENTS names only known experiments");
                let text = tr.span("golden.to_csv", name, |_| artifact.to_csv());
                let report = tr.span("golden.check_artifact", name, |_| {
                    check_artifact(&artifact, reference)
                });
                let ns = start.elapsed().as_nanos() as u64;
                self.cells_checked += report.cells.len() as u64;
                self.cells_failed += report.failures().len() as u64;
                self.max_rel_err = self.max_rel_err.max(report.max_rel_delta());
                pass.request(ns, artifact.rows.len() as u64, true);
                csv.push((name, text, report.passed()));
            }
        });
        pass.wall_ns = start.elapsed().as_nanos() as u64;
        (pass, csv)
    }
}

impl Workload for PaperAll {
    const NAME: &'static str = "paper_all";

    fn set_up(env: &Env) -> Result<Self, String> {
        let cli = env.figures("all")?;
        let mut workload = Self {
            csv: BTreeMap::new(),
            cells_checked: 0,
            cells_failed: 0,
            max_rel_err: 0.0,
        };
        // The regeneration that yields the expected bytes is also the
        // warm-up pass.
        let (_, csv) = workload.regenerate(&mut Tracer::off());
        let mut blocks = String::new();
        for (name, text, _) in &csv {
            env.expected
                .check_bytes(&format!("artifact.{name}"), text.as_bytes())?;
            blocks.push_str(&format!("==== {name} ====\n{text}\n"));
        }
        same_bytes("figures all", blocks.as_bytes(), &cli)?;
        if workload.cells_failed > 0 {
            return Err(format!(
                "paper_all: {} cells are out of tolerance",
                workload.cells_failed
            ));
        }
        workload.csv = csv
            .into_iter()
            .map(|(name, text, _)| (name, text))
            .collect();
        env.expected
            .check_value("golden.max_rel_err", workload.max_rel_err)?;
        for (name, value) in probes::drive(&mut Tracer::off()).counts() {
            env.expected.check_value(name, value)?;
        }
        Ok(workload)
    }

    fn pass(&mut self, _env: &Env, tr: &mut Tracer) -> Result<Pass, String> {
        let (mut pass, csv) = self.regenerate(tr);
        // Off the clock: the bytes against the pinned ones.
        pass.failed = csv
            .iter()
            .filter(|(name, text, within)| !within || self.csv.get(name) != Some(text))
            .count() as u64;
        Ok(pass)
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "golden_cells_failed = {} of {} cells",
                self.cells_failed, self.cells_checked
            ),
            format!("golden_max_rel_err = {}", self.max_rel_err),
        ]
    }

    fn layers(&mut self, _env: &Env, tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
        let fig_ms = |name: &str| span_quiet(tr, "bench.run_artifact", name, 1e6);
        out.insert(
            "bench.analytic_figs_ms",
            ANALYTIC_FIGS.iter().map(|n| fig_ms(n)).sum(),
        );
        for (metric, name) in [
            ("bench.fig5_ms", "fig5"),
            ("bench.fig6_ms", "fig6"),
            ("bench.fig8_ms", "fig8"),
            ("bench.fig9_ms", "fig9"),
            ("bench.fig10_ms", "fig10"),
            ("bench.fig11_ms", "fig11"),
        ] {
            out.insert(metric, fig_ms(name));
        }
        out.insert(
            "golden.check_us",
            EXPERIMENTS
                .iter()
                .map(|n| span_quiet(tr, "golden.check_artifact", n, 1e3))
                .sum(),
        );
        out.insert("golden.cells_checked", self.cells_checked as f64);
        out.insert("golden.max_rel_err", self.max_rel_err);
        probes::cache_probe(tr, out);
        probes::drive(tr).report(out);
        probes::spmd(tr, out);
        probes::memo_ratios(out);
        probes::ubench(tr, out);
        Ok(())
    }
}

// ------------------------------------------------------------------ tenancy

/// Two requests with one co-run identity against a fresh service.
pub struct Tenancy {
    /// `(request line, expected payload)`.
    requests: Vec<(String, String)>,
}

impl Tenancy {
    fn serve(&self, tr: &mut Tracer, pass: &mut Pass) -> SweepService {
        let service = tr.span("service.new", "", |_| SweepService::new());
        for (line, expected) in &self.requests {
            let start = Instant::now();
            let response = tr.span("service.handle_request", "tenancy", |_| {
                service.handle_request(line)
            });
            let ns = start.elapsed().as_nanos() as u64;
            pass.wall_ns += ns;
            pass.request(ns, 36, response == Response::Payload(expected.clone()));
        }
        service
    }
}

impl Workload for Tenancy {
    const NAME: &'static str = "tenancy";

    fn set_up(env: &Env) -> Result<Self, String> {
        // Answering both requests in-process is also the warm-up pass.
        let service = SweepService::new();
        let mut requests = Vec::new();
        for range in TENANCY_RANGES {
            let line = format!("sweep {} --jobs 1", tenancy_flags(range));
            let cli = env.figures(&line)?;
            let Response::Payload(payload) = service.handle_request(&line) else {
                return Err(format!("`{line}` was not answered with a payload"));
            };
            same_bytes(&line, payload.as_bytes(), &cli)?;
            env.expected
                .check_bytes(&format!("tenancy.ranks{range}"), payload.as_bytes())?;
            requests.push((line, payload));
        }
        Ok(Self { requests })
    }

    fn pass(&mut self, _env: &Env, tr: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        tr.span("tenancy.pass", "", |tr| self.serve(tr, &mut pass));
        Ok(pass)
    }

    fn layers(&mut self, _env: &Env, tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
        out.insert(
            "service.handle_tenancy_ms",
            span_quiet(tr, "service.handle_request", "tenancy", 1e6),
        );
        let service = self.serve(&mut Tracer::off(), &mut Pass::default());
        probes::sweep_memo_stats(service.sweep_memo(), out);
        probes::cache_probe(tr, out);
        probes::corun(tr, out);
        probes::interference(tr, out);
        Ok(())
    }
}

// ---------------------------------------------------------- sweep_grid_cold

/// The 20 736-point analytic plan through a fresh `SweepMemo`.
pub struct SweepGridCold {
    plan: SweepPlan,
    points: u64,
    payload: String,
}

impl Workload for SweepGridCold {
    const NAME: &'static str = "sweep_grid_cold";

    fn set_up(env: &Env) -> Result<Self, String> {
        let flags = format!("{} --jobs 1", wide_plan_flags());
        let cli = env.figures(&format!("sweep {flags}"))?;
        let plan = parse_sweep(&flags)?.plan;
        // Computing the expected payload is also the warm-up pass.
        let payload = render(&run_plan_memo(&plan, 1, &SweepMemo::new()), false);
        same_bytes("figures sweep <wide plan>", payload.as_bytes(), &cli)?;
        env.expected
            .check_bytes("sweep_grid_cold.payload", payload.as_bytes())?;
        Ok(Self {
            points: plan_points(&plan),
            plan,
            payload,
        })
    }

    fn pass(&mut self, _env: &Env, tr: &mut Tracer) -> Result<Pass, String> {
        let start = Instant::now();
        let payload = tr.span("sweep_grid_cold.pass", "", |tr| {
            let artifacts = tr.span_counted("scenario.run_plan", "wide", |_| {
                (run_plan_memo(&self.plan, 1, &SweepMemo::new()), self.points)
            });
            tr.span_counted("scenario.render", "wide", |_| {
                let text = render(&artifacts, false);
                let bytes = text.len() as u64;
                (text, bytes)
            })
        });
        let mut pass = Pass {
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Pass::default()
        };
        pass.request(pass.wall_ns, self.points, payload == self.payload);
        Ok(pass)
    }

    fn layers(&mut self, _env: &Env, tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
        out.insert(
            "scenario.run_plan_cold_ms",
            span_quiet(tr, "scenario.run_plan", "wide", 1e6),
        );
        let memo = SweepMemo::new();
        let artifacts = run_plan_memo(&self.plan, 1, &memo);
        probes::sweep_memo_stats(&memo, out);
        probes::run_plan_warm(tr, out, &self.plan, &memo);
        probes::render(tr, out, &artifacts);
        probes::point_cold(tr, out, &self.plan);
        probes::jobs2(tr, out, &self.plan);
        Ok(())
    }
}

// --------------------------------------------------------- serve_socket_mix

/// Requests each of the two connections sends per block: enough that a
/// block's p99 has ten requests beyond it and no more, so that a run has
/// many blocks to take the quiet ones of.
pub const REQUESTS_PER_CONN: usize = 1000;
const CONNECTIONS: u64 = 2;
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn ask(&mut self, wire: &[u8]) -> Result<Reply, String> {
        self.writer
            .write_all(wire)
            .and_then(|_| read_reply(&mut self.reader))
            .map_err(|e| format!("daemon connection: {e}"))
    }
}

/// What the checks need to know about right answers.
struct Answers {
    hot: Vec<Vec<u8>>,
    rejected: Vec<String>,
}

/// One request as a client thread saw it.
struct Timing {
    class: Class,
    start: Instant,
    ns: u64,
}

struct Driven {
    timings: Vec<Timing>,
    failed: u64,
    /// Sampled `(request index, payload)` pairs to recompute off the clock.
    samples: Vec<(usize, Vec<u8>)>,
}

fn drive(conn: &mut Conn, requests: &[Request], answers: &Answers) -> Result<Driven, String> {
    let mut out = Driven {
        timings: Vec::with_capacity(requests.len()),
        failed: 0,
        samples: Vec::new(),
    };
    let mut wire = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        wire.clear();
        wire.extend_from_slice(request.line.as_bytes());
        wire.push(b'\n');
        let start = Instant::now();
        let reply = conn.ask(&wire)?;
        let ns = start.elapsed().as_nanos() as u64;
        out.timings.push(Timing {
            class: request.class,
            start,
            ns,
        });
        let ok = match (&request.expect, reply) {
            (Expect::Hot(h), Reply::Payload(p)) => p == answers.hot[*h],
            (
                Expect::Sweep {
                    machine,
                    first,
                    rows,
                    json,
                    check_reference,
                },
                Reply::Payload(p),
            ) => {
                let ok = sweep_shape_ok(&p, machine, *first, *rows, *json);
                if *check_reference {
                    out.samples.push((i, p));
                }
                ok
            }
            (Expect::LinePrefix(prefix), Reply::Line(l)) => l.starts_with(prefix),
            (Expect::Rejected(r), Reply::Line(l)) => l == answers.rejected[*r],
            _ => false,
        };
        out.failed += u64::from(!ok);
    }
    Ok(out)
}

/// The bytes the daemon must answer `line` with, computed on the
/// un-memoized per-scenario path (`evaluate`), not on the memoized runner
/// the daemon uses.
fn reference_payload(line: &str) -> Result<String, String> {
    let flags = line
        .strip_prefix("sweep ")
        .ok_or_else(|| format!("not a sweep request: {line}"))?;
    let parsed = parse_sweep(flags)?;
    let artifacts: Vec<_> = parsed.plan.expand().iter().map(evaluate).collect();
    Ok(render(&artifacts, parsed.json))
}

/// A real `figures serve --socket` daemon over a store that holds every
/// point of the wide plan, driven by two closed-loop connections.
pub struct ServeMix {
    // Declared before the daemon: connections close first.
    conns: Vec<Conn>,
    daemon: ChildGuard,
    answers: Answers,
    store: PathBuf,
    block: u64,
    /// Spawn to first answered `ping`, ms.
    daemon_start_ms: f64,
    /// The daemon's counters when the warm-up ended.
    stats_at_start: BTreeMap<String, f64>,
    /// Connection 0's requests of the last pass: the mirror replays them.
    last_requests: Vec<Request>,
}

impl ServeMix {
    /// Counters of the daemon's `stats` verb.
    fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        match self.conns[0].ask(b"stats\n")? {
            Reply::Line(line) if line.starts_with("ok stats ") => {
                let fields: Vec<&str> = line["ok stats ".len()..].split_whitespace().collect();
                Ok(fields
                    .chunks(2)
                    .filter_map(|kv| Some((kv[0].to_string(), kv.get(1)?.parse().ok()?)))
                    .collect())
            }
            other => Err(format!("`stats` answered with {other:?}")),
        }
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_socket_mix";

    fn set_up(env: &Env) -> Result<Self, String> {
        // The store the daemon starts from: every point of the wide plan.
        let store = env.scratch.path("serve.store");
        let memo = SweepMemo::new();
        run_plan_memo(&parse_sweep(&wide_plan_flags())?.plan, 1, &memo);
        PersistentStore::new(&store)
            .save(&SimMemo::new(), &memo)
            .map_err(|e| format!("{}: {e}", store.display()))?;

        let mut hot = Vec::with_capacity(HOT_SET);
        for i in 0..HOT_SET {
            let line = hot_line(i, 0);
            let parsed = parse_sweep(line.strip_prefix("sweep ").expect("hot lines are sweeps"))?;
            let payload = render(&run_plan_memo(&parsed.plan, 1, &memo), parsed.json);
            env.expected
                .check_bytes(&format!("hot.{i:02}"), payload.as_bytes())?;
            hot.push(payload.into_bytes());
        }
        // The in-process bytes against the CLI's, on the largest entry.
        same_bytes("hot-set entry 0", &hot[0], &env.figures(&hot_line(0, 0))?)?;
        let mut rejected = Vec::new();
        for line in REJECT_LINES {
            let flags = line
                .strip_prefix("sweep ")
                .expect("reject lines are sweeps");
            match SweepArgs::parse(&words(flags)) {
                Err(message) => rejected.push(format!("error sweep: {message}")),
                Ok(_) => return Err(format!("`{line}` must be refused but parses")),
            }
        }

        // A relative socket path: the checkout may sit deeper than the
        // 108 bytes a socket address holds.
        let socket = env.scratch.path("serve.sock");
        let spawned = Instant::now();
        let mut command = Command::new(&env.figures);
        command
            .args(["serve", "--workers", "2", "--socket"])
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        die_with_parent(&mut command);
        let daemon = ChildGuard::spawn(&mut command)?;
        // Each of the two workers serves one connection until it closes,
        // so the probing connection is dropped before the two that stay.
        loop {
            let ready = Conn::open(&socket)
                .and_then(|mut c| c.ask(b"ping\n"))
                .is_ok_and(|r| r == Reply::Line("ok pong".into()));
            if ready {
                break;
            }
            if spawned.elapsed() > Duration::from_secs(10) {
                return Err("the daemon did not answer `ping` within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let daemon_start_ms = spawned.elapsed().as_secs_f64() * 1e3;
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::open(&socket))
            .collect::<Result<_, _>>()?;
        let mut workload = Self {
            conns,
            daemon,
            answers: Answers { hot, rejected },
            store,
            block: 0,
            daemon_start_ms,
            stats_at_start: BTreeMap::new(),
            last_requests: Vec::new(),
        };
        // Warm-up: fills the daemon's response cache with the hot set.
        let warm_up = workload.pass(env, &mut Tracer::off())?;
        if warm_up.failed > 0 {
            return Err(format!(
                "serve_socket_mix: {} of {} warm-up requests were answered wrongly",
                warm_up.failed,
                warm_up.requests()
            ));
        }
        workload.stats_at_start = workload.stats()?;
        Ok(workload)
    }

    fn pass(&mut self, env: &Env, tr: &mut Tracer) -> Result<Pass, String> {
        // Block 0 is the warm-up; every block draws fresh requests.
        let mut lists: Vec<Vec<Request>> = (0..CONNECTIONS)
            .map(|c| generate(env.seed, self.block, c, REQUESTS_PER_CONN))
            .collect();
        self.block += 1;
        let answers = &self.answers;
        let start = Instant::now();
        let driven: Vec<Result<Driven, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&lists)
                .map(|(conn, list)| s.spawn(move || drive(conn, list, answers)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        let mut pass = Pass {
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Pass::default()
        };
        for (list, driven) in lists.iter().zip(driven) {
            let driven = driven?;
            pass.failed += driven.failed;
            for (i, payload) in driven.samples {
                let reference = reference_payload(&list[i].line)?;
                pass.failed += u64::from(payload != reference.as_bytes());
            }
            pass.points += list.iter().map(Request::points).sum::<u64>();
            for t in driven.timings {
                pass.latencies_ns.push(t.ns);
                tr.record(
                    "service.socket_request",
                    t.class.name(),
                    t.start,
                    t.start + Duration::from_nanos(t.ns),
                );
            }
        }
        self.last_requests = lists.swap_remove(0);
        Ok(pass)
    }

    fn usage(&self) -> Result<Usage, String> {
        proc_usage(self.daemon.id())
    }

    fn layers(&mut self, env: &Env, tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
        out.insert("service.daemon_start_ms", self.daemon_start_ms);
        let now = self.stats()?;
        let delta = |key: &str| {
            now.get(key).copied().unwrap_or(0.0)
                - self.stats_at_start.get(key).copied().unwrap_or(0.0)
        };
        let (hits, misses) = (delta("response-hits"), delta("response-misses"));
        out.insert(
            "service.response_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        out.insert("service.response_evictions", delta("response-evictions"));
        let (hits, misses) = (delta("sweep-hits"), delta("sweep-misses"));
        out.insert("core.sweepmemo_hit_ratio", hits / (hits + misses).max(1.0));
        out.insert("core.points_evaluated", misses);
        out.insert(
            "core.sweepmemo_entries",
            now.get("sweep-entries").copied().unwrap_or(0.0),
        );

        for (class, p50, p99) in [
            (
                Class::Repeat,
                "service.repeat_us_p50",
                Some("service.repeat_us_p99"),
            ),
            (
                Class::Overlap,
                "service.overlap_us_p50",
                Some("service.overlap_us_p99"),
            ),
            (Class::Json, "service.json_us_p50", None),
            (Class::Control, "service.control_us_p50", None),
            (Class::Reject, "service.reject_us_p50", None),
        ] {
            let us = sorted(&tr.durations("service.socket_request", class.name()));
            if us.is_empty() {
                continue;
            }
            out.insert(p50, percentile(&us, 50.0) / 1e3);
            if let Some(p99) = p99 {
                out.insert(p99, percentile(&us, 99.0) / 1e3);
            }
        }

        // The mirror, once untraced and once traced over the same
        // requests: the difference is what recording costs.
        let requests = std::mem::take(&mut self.last_requests);
        let untraced = mirror(&self.store, &requests, &mut Tracer::off())?;
        let (traced, allocs, bytes) = crate::alloc::counted(|| mirror(&self.store, &requests, tr));
        let traced = traced?;
        out.insert(
            "bench.trace_overhead_pct",
            (traced.total_ns / untraced.total_ns - 1.0) * 100.0,
        );
        out.insert("bench.allocs_per_pass", allocs as f64);
        out.insert("bench.alloc_bytes_per_pass", bytes as f64);
        for (class, metric) in [
            (Class::Repeat, "service.handle_repeat_us"),
            (Class::Overlap, "service.handle_overlap_us"),
        ] {
            if let Some(ns) = untraced.handle_ns.get(class.name()) {
                out.insert(metric, median(ns) / 1e3);
            }
        }
        if let (Some(&socket), Some(&handle)) = (
            out.get("service.repeat_us_p50"),
            out.get("service.handle_repeat_us"),
        ) {
            out.insert("service.socket_overhead_us", socket - handle);
        }

        probes::handle_cold(tr, out);
        probes::machine_presets(tr, out);
        probes::stencil_catalogue(tr, out);
        probes::engine_new(tr, out);
        probes::scenario_front(tr, out)?;
        let plan = parse_sweep(&wide_plan_flags())?.plan;
        let memo = SweepMemo::new();
        let artifacts = run_plan_memo(&plan, 1, &memo);
        probes::point_memo_hit(tr, out, &plan, &memo);
        probes::run_plan_warm(tr, out, &plan, &memo);
        probes::render(tr, out, &artifacts);

        // The store outside the daemon: its codec, and what one-shot CLI
        // users of `--store` pay.
        let icx = parse_sweep(&icx_plan_flags())?.plan;
        let icx_memo = SweepMemo::new();
        run_plan_memo(&icx, 1, &icx_memo);
        probes::store_codec(tr, out, &icx_memo, &env.scratch.path("probe.store"))?;
        probes::store_cli(tr, out, env)?;
        probes::figures_spawn(tr, out, env)?;
        Ok(())
    }
}

/// What one replay of a request list through the mirror measured.
struct Mirrored {
    /// Time in the mirror's own request spans.
    total_ns: f64,
    /// `handle_request` time by request class, ns.
    handle_ns: BTreeMap<&'static str, Vec<f64>>,
}

/// `SweepService::handle_request` composed from the public calls it makes
/// — parse, canonical key, response cache, memoized plan run, render,
/// frame — with a span around each, so a request's time can be attributed
/// to layers without spans inside the program.  Every request is also put
/// to a real `handle_request`, and the two payloads must be the same
/// bytes: the mirror cannot drift from the program.
fn mirror(store: &Path, requests: &[Request], tr: &mut Tracer) -> Result<Mirrored, String> {
    let (service, _) = SweepService::with_store(PersistentStore::new(store));
    let memo = service.sweep_memo();
    let cache = ResponseCache::new(DEFAULT_RESPONSE_CACHE_ENTRIES);
    let mut frame: Vec<u8> = Vec::new();
    let mut out = Mirrored {
        total_ns: 0.0,
        handle_ns: BTreeMap::new(),
    };
    for request in requests.iter().filter(|r| r.class != Class::Control) {
        let start = Instant::now();
        let reference = service.handle_request(&request.line);
        out.handle_ns
            .entry(request.class.name())
            .or_default()
            .push(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        let mirrored = tr.span("service.mirror_request", request.class.name(), |tr| {
            let parsed = tr.span("scenario.parse", "", |_| {
                let args: Vec<String> = request
                    .line
                    .split_whitespace()
                    .skip(1)
                    .map(str::to_string)
                    .collect();
                SweepArgs::parse(&args)
            });
            let parsed = match parsed {
                Ok(parsed) => parsed,
                Err(message) => return Response::Line(format!("error sweep: {message}")),
            };
            let key = tr.span("scenario.cache_key", "", |_| {
                format!("{:016x}\n{}", model_hash(), parsed.cache_key())
            });
            let cached = tr.span("service.response_cache_get", "", |_| {
                cache.get(&key).map(|payload| (*payload).clone())
            });
            let payload = cached.unwrap_or_else(|| {
                let artifacts = tr.span("scenario.run_plan_memo", "", |_| {
                    run_plan_memo(&parsed.plan, 1, memo)
                });
                let payload = tr.span("golden.render", "", |_| render(&artifacts, parsed.json));
                tr.span("service.response_cache_insert", "", |_| {
                    cache.insert(key, Arc::new(payload.clone()))
                });
                payload
            });
            tr.span("service.frame_write", "", |_| {
                frame.clear();
                let _ = writeln!(frame, "ok {}", payload.len());
                frame.extend_from_slice(payload.as_bytes());
            });
            Response::Payload(payload)
        });
        out.total_ns += start.elapsed().as_nanos() as f64;
        if mirrored != reference {
            return Err(format!(
                "the handle_request mirror and handle_request disagree on `{}`",
                request.line
            ));
        }
    }
    Ok(out)
}
