//! Running workloads: one workload in this process (what the driver asks
//! for: `--workload W --seed N --seconds S --trace 0|1`, the result as the
//! last line of stdout), or every workload, each in a child of its own, as
//! a set of runs that `compare` can read back.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::alloc;
use crate::calib::Reference;
use crate::expected::Expected;
use crate::json::{quote, Json};
use crate::probes::Layers;
use crate::spec::{Metric, Spec};
use crate::stats::{median, percentile, quiet, sorted, supports};
use crate::sys::{die_with_parent, run_to_end};
use crate::trace::{unattributed_share, Tracer};
use crate::workloads::{
    Env, PaperAll, Pass, ServeMix, SweepGridCold, Tenancy, Workload, WORKLOADS,
};

pub const OUT_DIR: &str = "benchmark/out";

pub struct Options {
    /// One workload in this process; `None` runs all, each in a child.
    pub workload: Option<String>,
    pub seed: u64,
    /// How long one run measures; `None` takes `run_seconds` of the spec.
    pub seconds: Option<f64>,
    pub trace: bool,
    /// How many runs of every workload the set holds (seeds `seed..`).
    pub runs: u64,
    /// Where the set is written.
    pub out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            runs: 1,
            out: Path::new(OUT_DIR).join("result.json"),
        }
    }
}

/// The set-up is repeated and its median reported, so that one slow
/// process start does not decide `setup_s`.
const SET_UPS: usize = 3;
const MIN_PASSES: usize = 3;

/// What one run of one workload measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Metric values by name.
    values: BTreeMap<&'static str, f64>,
    /// Lines for the reader, printed before the result.
    notes: Vec<String>,
}

/// Run passes for `seconds` (at least `MIN_PASSES`), noting the CPU time
/// each took and, with a `reference`, how slow the host was around it.
fn passes_for<W: Workload>(
    workload: &mut W,
    env: &Env,
    seconds: f64,
    mut reference: Option<&mut Reference>,
    mut pass: impl FnMut(&mut W, &Env) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut timed = || -> Result<Pass, String> {
            let cpu_us = workload.usage()?.cpu_us;
            let mut done = pass(workload, env)?;
            done.cpu_us = workload.usage()?.cpu_us - cpu_us;
            Ok(done)
        };
        let (done, slowdown) = match &mut reference {
            Some(reference) => reference.around(timed),
            None => (timed(), 1.0),
        };
        let mut done = done?;
        done.slowdown = slowdown;
        passes.push(done);
    }
    Ok(passes)
}

/// Wall time of each pass on the reference host, ms.
fn pass_ms(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.wall_ns as f64 / 1e6 / p.slowdown)
        .collect()
}

/// The untraced run: every end-to-end metric.  Each time, rate and cost is
/// taken per pass, scaled to the reference host (see `calib`), and
/// reported as `stats::quiet` of the passes.
fn measure<W: Workload>(env: &Env, seconds: f64) -> Result<Outcome, String> {
    let mut reference = Reference::start();
    let mut set_ups = Vec::new();
    let mut workload = None;
    for _ in 0..SET_UPS {
        // The previous daemon and its files go before the next set-up.
        drop(workload.take());
        let start = Instant::now();
        let (set_up, slowdown) = reference.around(|| W::set_up(env));
        set_ups.push(start.elapsed().as_secs_f64() / slowdown);
        workload = Some(set_up?);
    }
    let mut workload = workload.expect("SET_UPS is not 0");
    let passes = passes_for(
        &mut workload,
        env,
        seconds,
        Some(&mut reference),
        |w, env| w.pass(env, &mut Tracer::off()),
    )?;
    let peak_rss_mb = workload.usage()?.peak_rss_mb;

    // A time or cost per pass; a rate is the inverse of one.
    let time = |f: &dyn Fn(&Pass) -> f64| {
        let on_reference_host: Vec<f64> = passes.iter().map(|p| f(p) / p.slowdown).collect();
        quiet(&on_reference_host, false)
    };
    let seconds_of = |p: &Pass| p.wall_ns as f64 / 1e9;
    let latency_us = |percent: f64| {
        time(&|p| {
            let us: Vec<f64> = p.latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            percentile(&sorted(&us), percent)
        })
    };
    let values = BTreeMap::from([
        ("setup_s", median(&set_ups)),
        ("pass_ms_p10", time(&|p| seconds_of(p) * 1e3)),
        (
            "points_per_s",
            1.0 / time(&|p| seconds_of(p) / p.points as f64),
        ),
        (
            "requests_per_s",
            1.0 / time(&|p| seconds_of(p) / p.requests() as f64),
        ),
        ("latency_us_p50", latency_us(50.0)),
        ("latency_us_p99", latency_us(99.0)),
        (
            "cpu_us_per_request",
            time(&|p| p.cpu_us / p.requests() as f64),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]);

    let requests: u64 = passes.iter().map(Pass::requests).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let walls = sorted(
        &passes
            .iter()
            .map(|p| p.wall_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let slowdowns = sorted(&passes.iter().map(|p| p.slowdown).collect::<Vec<_>>());
    let mut notes = vec![
        format!("{} passes, {requests} requests", passes.len()),
        // Not metrics: on a shared host they say more about the
        // co-tenants than about the program (see the README).
        format!(
            "pass_ms as measured on this host: min {:.1}, p10 {:.1}, p50 {:.1}, p75 {:.1}, max {:.1}",
            walls[0],
            percentile(&walls, 10.0),
            percentile(&walls, 50.0),
            percentile(&walls, 75.0),
            walls[walls.len() - 1]
        ),
        format!(
            "host slowdown against the reference host: min {:.2}, p50 {:.2}, max {:.2}",
            slowdowns[0],
            percentile(&slowdowns, 50.0),
            slowdowns[slowdowns.len() - 1]
        ),
        format!(
            "failed_share = {} ({failed} of {requests} requests)",
            failed as f64 / requests as f64
        ),
    ];
    let per_pass = passes[0].latencies_ns.len();
    if !supports(per_pass, 99.0) {
        notes.push(format!(
            "a pass has {per_pass} requests, fewer than p99 needs ten beyond it: \
             latency_us_p99 is the pass's slowest request"
        ));
    }
    notes.extend(workload.notes());
    Ok(Outcome {
        attempted: requests,
        failed,
        values,
        notes,
    })
}

/// The traced run: every per-layer metric, and the spans as JSON lines.
fn trace<W: Workload>(env: &Env, seconds: f64) -> Result<Outcome, String> {
    let mut workload = W::set_up(env)?;
    let mut tr = Tracer::new(true, W::NAME);
    // The traced run is a quarter of the length: an eighth of it untraced,
    // an eighth traced (the difference is what recording costs), then the
    // probes.
    let untraced = passes_for(&mut workload, env, seconds / 8.0, None, |w, env| {
        w.pass(env, &mut Tracer::off())
    })?;
    let (mut allocs, mut bytes) = (Vec::new(), Vec::new());
    let traced = passes_for(&mut workload, env, seconds / 8.0, None, |w, env| {
        let (pass, a, b) = alloc::counted(|| w.pass(env, &mut tr));
        allocs.push(a as f64);
        bytes.push(b as f64);
        pass
    })?;

    let mut layers = Layers::default();
    // As measured: both sides are of the same run.
    layers.insert(
        "bench.trace_overhead_pct",
        (quiet(&pass_ms(&traced), false) / quiet(&pass_ms(&untraced), false) - 1.0) * 100.0,
    );
    layers.insert("bench.allocs_per_pass", median(&allocs));
    layers.insert("bench.alloc_bytes_per_pass", median(&bytes));
    workload.layers(env, &mut tr, &mut layers)?;
    layers.insert(
        "bench.unattributed_share",
        unattributed_share(tr.spans(), W::NAME),
    );

    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", W::NAME));
    let mut file = std::io::BufWriter::new(
        fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    tr.write_jsonl(&mut file)
        .and_then(|_| file.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let all = || untraced.iter().chain(&traced);
    Ok(Outcome {
        attempted: all().map(Pass::requests).sum(),
        failed: all().map(|p| p.failed).sum(),
        values: layers,
        notes: vec![format!(
            "{} untraced and {} traced passes, {} spans in {}",
            untraced.len(),
            traced.len(),
            tr.spans().len(),
            path.display()
        )],
    })
}

fn dispatch(name: &str, env: &Env, seconds: f64, traced: bool) -> Result<Outcome, String> {
    fn go<W: Workload>(env: &Env, seconds: f64, traced: bool) -> Result<Outcome, String> {
        if traced {
            trace::<W>(env, seconds)
        } else {
            measure::<W>(env, seconds)
        }
    }
    match name {
        PaperAll::NAME => go::<PaperAll>(env, seconds, traced),
        Tenancy::NAME => go::<Tenancy>(env, seconds, traced),
        SweepGridCold::NAME => go::<SweepGridCold>(env, seconds, traced),
        ServeMix::NAME => go::<ServeMix>(env, seconds, traced),
        other => Err(format!(
            "unknown workload '{other}'; the workloads are {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` for `metrics`, in their order.
/// A per-layer metric the run did not set reads 0; an end-to-end metric
/// must have been measured.
fn metrics_json(
    metrics: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    required: bool,
) -> Result<String, String> {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = match values.get(m.name.as_str()) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("{} measured as {v}", m.name)),
                None if required => return Err(format!("{} was not measured", m.name)),
                None => 0.0,
            };
            Ok(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&m.name),
                quote(&m.unit)
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// Run one workload in this process and print its result as the last line
/// of stdout.  `Ok(false)`: it ran, and an output was wrong.
fn run_one(name: &str, spec: &Spec, options: &Options) -> Result<bool, String> {
    let env = Env::new(options.seed, Expected::load()?)?;
    let seconds = options.seconds.unwrap_or(spec.run_seconds);
    let outcome = dispatch(name, &env, seconds, options.trace)?;

    let metrics = if options.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = outcome
        .values
        .keys()
        .find(|name| !metrics.iter().any(|m| m.name == **name))
    {
        return Err(format!(
            "{stray} is measured but {} does not list it",
            crate::spec::SPEC_FILE
        ));
    }
    let json = metrics_json(metrics, &outcome.values, !options.trace)?;
    println!(
        "workload {name}  seed {}  {seconds} s  tracing {}",
        options.seed,
        if options.trace { "on" } else { "off" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in metrics {
        if let Some(value) = outcome.values.get(m.name.as_str()) {
            println!("  {:<36} {value:>16.4} {}", m.name, m.unit);
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        outcome.attempted, outcome.failed
    );
    Ok(correct)
}

/// Run every workload `options.runs` times, each run in a child of this
/// program, and write the set.  `Ok(false)`: a run failed or was wrong.
fn run_set(options: &Options) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for run in 0..options.runs {
        for workload in WORKLOADS {
            let seed = options.seed + run;
            let mut command = Command::new(&me);
            command
                .args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if options.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(seconds) = options.seconds {
                command.args(["--seconds", &seconds.to_string()]);
            }
            die_with_parent(&mut command);
            let done = run_to_end(&mut command)?;
            let text = String::from_utf8_lossy(&done.stdout);
            let (report, result) = text
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", text.trim_end()));
            println!("{report}");
            all_correct &= done.success;
            match Json::parse(result) {
                Ok(json) if json.get("metrics").is_some() => records.push(format!(
                    "{{\"workload\": {}, \"seed\": {seed}, \"result\": {result}}}",
                    quote(workload)
                )),
                _ => {
                    println!("  {workload}: no result");
                    all_correct = false;
                }
            }
        }
    }
    if let Some(dir) = options.out.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(
        &options.out,
        format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n")),
    )
    .map_err(|e| format!("{}: {e}", options.out.display()))?;
    if options.trace {
        // One file for the whole traced run, as well as one per workload.
        let mut all = Vec::new();
        for workload in WORKLOADS {
            let part = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
            all.extend(fs::read(&part).map_err(|e| format!("{}: {e}", part.display()))?);
        }
        let path = Path::new(OUT_DIR).join("trace.jsonl");
        fs::write(&path, all).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans of all workloads: {}", path.display());
    }
    println!(
        "{} runs of {} workloads written to {}; {}",
        options.runs,
        WORKLOADS.len(),
        options.out.display(),
        if all_correct {
            "every output correct"
        } else {
            "AT LEAST ONE RUN FAILED OR PRINTED A WRONG OUTPUT"
        }
    );
    Ok(all_correct)
}

pub fn run(options: &Options) -> Result<bool, String> {
    let spec = Spec::load()?;
    if spec.workloads != WORKLOADS {
        return Err(format!(
            "{} names other workloads than the harness runs",
            crate::spec::SPEC_FILE
        ));
    }
    match &options.workload {
        Some(name) => run_one(name, &spec, options),
        None => run_set(options),
    }
}

/// Rewrite `benchmark/expected/`: every workload's set-up runs with the
/// pinned outputs in recording mode.  The only way the digests change.
pub fn bless() -> Result<(), String> {
    let env = Env::new(1, Expected::recording())?;
    drop(PaperAll::set_up(&env)?);
    drop(Tenancy::set_up(&env)?);
    drop(SweepGridCold::set_up(&env)?);
    drop(ServeMix::set_up(&env)?);
    crate::probes::store_cli_payload(&env)?;
    let entries = env.expected.write()?;
    println!(
        "{entries} entries written to {}",
        crate::expected::EXPECTED_FILE
    );
    Ok(())
}
