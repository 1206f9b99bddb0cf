//! Regenerate the paper's tables and figures, optionally checking them
//! against the digitised paper data.
//!
//! Usage:
//!
//! ```text
//! figures <experiment> [...]     # e.g. figures table1 fig2 fig5
//! figures all                    # everything (takes a few seconds)
//! figures list                   # show the available experiment names
//! figures --check all            # diff against the paper; non-zero exit
//!                                # when any cell is out of tolerance
//! figures --json fig5 fig6       # machine-readable artifact dump
//! figures --delta-table all      # markdown delta table (EXPERIMENTS.md)
//! figures --perturb 10 --check all   # sanity check of the harness: a 10%
//!                                    # model error must make --check fail
//! figures sweep <axis flags> [--store <path>] [--store-cap <n>]
//!                                # scenario sweep engine: one request to
//!                                # an in-process `SweepService`.  The axis
//!                                # grammar is `clover_scenario::cli`'s
//!                                # (any usage error prints it, every name
//!                                # read from the axis tables): a cartesian
//!                                # machine × grid × ranks × stage
//!                                # (× cache-policy × tenancy axes) plan on
//!                                # `--jobs` worker threads.  `--store`
//!                                # warm-loads the co-run simulations of a
//!                                # persistent store first and writes them
//!                                # back after the sweep (stale or corrupt
//!                                # stores are rebuilt; analytic points are
//!                                # cheaper to evaluate than to load, so
//!                                # only a contended plan has anything to
//!                                # store); `--store-cap N` compacts the
//!                                # write-back to the N most recently
//!                                # touched co-runs
//! figures interfere [--json] [<name> ...]
//!                                # canned multi-tenant artifacts from the
//!                                # shared-LLC co-run engine (timestep
//!                                # inflation, LLC occupancy deltas,
//!                                # write-allocate evasion under
//!                                # contention); no golden data, so these
//!                                # stay outside `all`/`--check`
//! figures serve [--store <path>] [--socket <path>] [--workers N]
//!               [--store-cap N]
//!                                # long-running sweep daemon: line-based
//!                                # requests (`sweep <flags>`, `stats`,
//!                                # `save`, `ping`, `quit`) over stdin or a
//!                                # unix socket, answered from one warm
//!                                # memo state shared by every client (its
//!                                # co-run simulations loaded from and
//!                                # saved to `--store`); the
//!                                # socket mode serves any client count
//!                                # from a fixed pool of N workers
//!                                # (default: the host's parallelism),
//!                                # repeat queries hit a bounded response
//!                                # cache (128 payloads) and
//!                                # `save` compacts the store to the
//!                                # `--store-cap` most recent co-runs
//! ```
//!
//! Experiment names must be unique, known, and not mixed with `all`.
//! Exit codes: 0 success, 1 out-of-tolerance cells or a store that could
//! not be saved, 2 usage errors.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use clover_bench::{
    delta_table, run_artifact, run_interference_artifact, EXPERIMENTS, INTERFERENCE_EXPERIMENTS,
};
use clover_cachesim::SimMemo;
use clover_golden::{check_artifact, Artifact};
use clover_scenario::cli::{push_unique, set_once, sweep_usage, Args};
use clover_scenario::{render, SweepArgs};
use clover_service::{PersistentStore, SweepService};

/// Write to stdout, surviving a broken pipe: returns `false` so the caller
/// can stop printing yet keep computing.  `--check` uses this because its
/// exit code is load-bearing — `figures --check all | head` must still exit
/// 1 when a later artifact is out of tolerance.
fn try_emit(out: &mut impl Write, text: std::fmt::Arguments<'_>) -> bool {
    match out.write_fmt(text) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Write to stdout, exiting quietly if the reader went away (`figures all |
/// head` must not panic with a broken-pipe backtrace).
fn emit(out: &mut impl Write, text: std::fmt::Arguments<'_>) {
    if !try_emit(out, text) {
        std::process::exit(0);
    }
}

/// Report a usage error of `figures <verb>` (`verb` empty for the
/// experiment front end) with the verb's grammar behind it; exit code 2.
fn usage_error(verb: &str, message: &str) -> ExitCode {
    let space = if verb.is_empty() { "" } else { " " };
    eprintln!("figures{space}{verb}: {message}");
    match verb {
        "sweep" => eprintln!(
            "usage: figures sweep {} [--store <path>] [--store-cap <n>]  \
             (axis flags repeat to span a cartesian plan)",
            sweep_usage()
        ),
        "serve" => eprintln!(
            "usage: figures serve [--store <path>] [--socket <path>] \
             [--workers <n>] [--store-cap <n>]"
        ),
        "interfere" => eprintln!(
            "usage: figures interfere [--json] [{}]  (no names runs all three)",
            INTERFERENCE_EXPERIMENTS.join(" | ")
        ),
        _ => eprintln!("run `figures list` for the available experiments"),
    }
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Options<'a> {
    check: bool,
    json: bool,
    delta: bool,
    perturb: Option<f64>,
    names: Vec<&'a str>,
}

/// Split flags from experiment names; flags may appear anywhere.
fn parse_args(args: &[String]) -> Result<Options<'_>, String> {
    let mut opts = Options::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            "--delta-table" => opts.delta = true,
            "--perturb" => {
                let value = args.value(arg, "a percentage argument")?;
                let pct: f64 = value
                    .parse()
                    .map_err(|_| format!("--perturb: '{value}' is not a number"))?;
                // NaN/inf used to parse fine and silently wreck every
                // artifact; a percentage of -100 or below flips the scale
                // factor to zero or negative, which is equally nonsense.
                if !pct.is_finite() {
                    return Err(format!("--perturb: '{value}' is not a finite percentage"));
                }
                let factor = 1.0 + pct / 100.0;
                if factor <= 0.0 {
                    return Err(format!(
                        "--perturb: {pct}% gives the non-positive scale factor {factor}; \
                         use a percentage above -100"
                    ));
                }
                opts.perturb = Some(factor);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag '{flag}'"));
            }
            name => opts.names.push(name),
        }
    }
    if opts.json && (opts.check || opts.delta) {
        return Err("--json cannot be combined with --check or --delta-table".to_string());
    }
    if opts.delta && (opts.check || opts.perturb.is_some()) {
        // The delta table documents the *committed* model; silently
        // ignoring --check/--perturb here would mislead.
        return Err("--delta-table cannot be combined with --check or --perturb".to_string());
    }
    Ok(opts)
}

/// The entries of `registry` that `names` name, each known and named once;
/// `what` is what the registry holds, for the messages.
fn resolve_names(
    names: &[&str],
    registry: &[&'static str],
    what: &str,
) -> Result<Vec<&'static str>, String> {
    let mut resolved = Vec::new();
    let mut unknown = Vec::new();
    for name in names {
        match registry.iter().find(|known| *known == name) {
            Some(known) => push_unique(&mut resolved, *known, format_args!("{what} '{name}'"))?,
            None => unknown.push(format!("'{name}'")),
        }
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown {what} {} (known: {})",
            unknown.join(", "),
            registry.join(", ")
        ));
    }
    Ok(resolved)
}

/// The experiments `figures <names>` asks for: `all`, or names of
/// [`EXPERIMENTS`].
fn requested_experiments(names: &[&str]) -> Result<Vec<&'static str>, String> {
    if !names.contains(&"all") {
        return resolve_names(names, &EXPERIMENTS, "experiment");
    }
    if names.len() > 1 {
        return Err("'all' already includes every experiment; drop the explicit names".to_string());
    }
    Ok(EXPERIMENTS.to_vec())
}

/// The service `figures <verb>` runs on: a fresh one, or one over the
/// `--store`, warm-loaded (what the load found is said on stderr) and
/// compacted to `--store-cap` entries when saved.
fn open_service(verb: &str, store: Option<&str>, cap: Option<usize>) -> SweepService {
    let Some(path) = store else {
        return SweepService::new();
    };
    let (service, outcome) = SweepService::with_store(PersistentStore::new(path));
    eprintln!("figures {verb}: store {path}: {outcome}");
    service.with_store_cap(cap.unwrap_or(usize::MAX))
}

/// Parse the arguments after the `sweep` keyword.  The axis grammar lives
/// in `clover_scenario::SweepArgs` (shared with the `figures serve`
/// daemon); the CLI adds only the `--store <path>` persistence flag and
/// its `--store-cap <n>` compaction bound, returned behind the sweep.
fn parse_sweep_args(args: &[String]) -> Result<(SweepArgs, Option<&str>, Option<usize>), String> {
    let (mut store, mut cap) = (None, None);
    let mut axes = Vec::with_capacity(args.len());
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--store" => set_once(&mut store, arg, args.path(arg)?)?,
            "--store-cap" => set_once(&mut cap, arg, args.positive_count(arg)?)?,
            axis => axes.push(axis.to_string()),
        }
    }
    if cap.is_some() && store.is_none() {
        return Err("--store-cap requires --store".to_string());
    }
    Ok((SweepArgs::parse(&axes)?, store, cap))
}

/// Parse the arguments after the `interfere` keyword: an optional `--json`
/// plus experiment names (empty means all three).
fn parse_interfere_args(args: &[String]) -> Result<(bool, Vec<&'static str>), String> {
    let mut json = false;
    let mut names = Vec::new();
    for arg in Args::new(args) {
        match arg {
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => names.push(name),
        }
    }
    if names.is_empty() {
        return Ok((json, INTERFERENCE_EXPERIMENTS.to_vec()));
    }
    let names = resolve_names(&names, &INTERFERENCE_EXPERIMENTS, "interference experiment")?;
    Ok((json, names))
}

/// Run the `figures interfere` subcommand.
fn interfere_main(args: &[String], out: &mut impl Write) -> Result<ExitCode, String> {
    let (json, names) = parse_interfere_args(args)?;
    // One memo for every artifact: they share co-run passes.
    let memo = SimMemo::new();
    let artifacts: Vec<Artifact> = names
        .into_iter()
        .map(|name| run_interference_artifact(name, &memo).expect("validated name"))
        .collect();
    emit(out, format_args!("{}", render(&artifacts, json)));
    Ok(ExitCode::SUCCESS)
}

/// Run the `figures sweep` subcommand: one request to a [`SweepService`]
/// that lives as long as the process.
fn sweep_main(args: &[String], out: &mut impl Write) -> Result<ExitCode, String> {
    let (sweep, store, cap) = parse_sweep_args(args)?;
    // With `--store` the co-run simulations outlive the process: warm-loaded
    // when the service opens, written back below.  The store only changes
    // *when* a co-run is simulated, never its result, so stdout stays
    // byte-identical to a storeless run.
    let service = open_service("sweep", store, cap);
    emit(out, format_args!("{}", service.sweep(&sweep)));
    let Some(path) = store else {
        return Ok(ExitCode::SUCCESS);
    };
    match service.save() {
        Ok(saved) => {
            let saved = saved.expect("the service was opened over a store");
            if saved.evicted > 0 {
                eprintln!(
                    "figures sweep: store {path}: {} least-recently-used co-run simulations \
                     compacted away",
                    saved.evicted
                );
            }
            eprintln!(
                "figures sweep: store {path}: {} co-run simulations saved ({} simulated now)",
                saved.written,
                service.sim_memo().corun_stats().misses
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("figures sweep: store {path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Options of the `figures serve` subcommand.
#[derive(Debug, Default)]
struct ServeOptions<'a> {
    store: Option<&'a str>,
    store_cap: Option<usize>,
    socket: Option<&'a str>,
    workers: Option<usize>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions<'_>, String> {
    let mut opts = ServeOptions::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--store" => set_once(&mut opts.store, arg, args.path(arg)?)?,
            "--socket" => set_once(&mut opts.socket, arg, args.path(arg)?)?,
            "--workers" => set_once(&mut opts.workers, arg, args.positive_count(arg)?)?,
            "--store-cap" => set_once(&mut opts.store_cap, arg, args.positive_count(arg)?)?,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if opts.workers.is_some() && opts.socket.is_none() {
        return Err("--workers requires --socket (stdin serving is single-client)".to_string());
    }
    if opts.store_cap.is_some() && opts.store.is_none() {
        return Err("--store-cap requires --store".to_string());
    }
    Ok(opts)
}

/// Run the `figures serve` subcommand: the sweep daemon over stdin (the
/// default) or a unix socket (`--socket <path>`), optionally backed by a
/// persistent store of co-run simulations (`--store <path>`, compacted to
/// `--store-cap` entries on save).  The socket mode serves every client
/// from a fixed pool of `--workers` threads; repeat queries are answered
/// from a bounded response cache of
/// [`clover_service::DEFAULT_RESPONSE_CACHE_ENTRIES`] payloads.
fn serve_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_serve_args(args)?;
    let service = open_service("serve", opts.store, opts.store_cap);
    let result = match opts.socket {
        Some(path) => {
            let workers = opts.workers.unwrap_or_else(clover_service::default_workers);
            // Each in-flight request already fans its plan out over
            // `--jobs` threads; clamp per-request jobs so `workers`
            // concurrent requests cannot oversubscribe the host.
            let host = clover_scenario::runner::host_parallelism();
            let service = service.with_max_jobs((host / workers).max(1));
            eprintln!("figures serve: listening on {path} ({workers} workers)");
            clover_service::serve_unix(
                std::sync::Arc::new(service),
                std::path::Path::new(path),
                workers,
            )
        }
        None => clover_service::serve_stdin(&service),
    };
    Ok(match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures serve: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Run the experiment front end: `figures [flags] <experiment> ...`.
fn experiments_main(args: &[String], out: &mut impl Write) -> Result<ExitCode, String> {
    let opts = parse_args(args)?;
    let flags_used = opts.check || opts.json || opts.delta || opts.perturb.is_some();
    if opts.names.is_empty() || opts.names[0] == "list" {
        // A flag without names must not silently degrade to `list`/exit 0:
        // `figures --check` (forgotten `all`) would green-light CI while
        // checking nothing.
        if flags_used {
            return Err("flags require experiment names (e.g. `--check all`)".to_string());
        }
        if opts.names.len() > 1 {
            return Err("'list' takes no further names".to_string());
        }
        emit(out, format_args!("available experiments:\n"));
        for e in EXPERIMENTS {
            emit(out, format_args!("  {e}\n"));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let requested = requested_experiments(&opts.names)?;

    if opts.delta {
        // The delta table always spans all 12 artifacts; restricting it
        // would silently produce an incomplete EXPERIMENTS.md section.
        if requested.len() != EXPERIMENTS.len() {
            return Err("--delta-table requires 'all'".to_string());
        }
        emit(out, format_args!("{}", delta_table()));
        return Ok(ExitCode::SUCCESS);
    }

    let perturbed = |name| {
        let mut artifact = run_artifact(name).expect("validated name");
        if let Some(factor) = opts.perturb {
            artifact.perturb(factor);
        }
        artifact
    };
    if !opts.check {
        let artifacts: Vec<Artifact> = requested.into_iter().map(perturbed).collect();
        emit(out, format_args!("{}", render(&artifacts, opts.json)));
        return Ok(ExitCode::SUCCESS);
    }
    let mut failed = false;
    let mut pipe_gone = false;
    for name in requested {
        let golden = clover_golden::golden(name).expect("golden data");
        let report = check_artifact(&perturbed(name), golden);
        failed |= !report.passed();
        if !pipe_gone {
            pipe_gone = !try_emit(out, format_args!("{}", report.render_text(false)));
        }
    }
    if failed {
        eprintln!("figures: at least one artifact is out of tolerance of the paper data");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let (verb, rest) = match args.split_first() {
        Some((verb, rest)) if ["sweep", "serve", "interfere"].contains(&verb.as_str()) => {
            (verb.as_str(), rest)
        }
        _ => ("", &args[..]),
    };
    let done = match verb {
        "sweep" => sweep_main(rest, &mut out),
        "serve" => serve_main(rest),
        "interfere" => interfere_main(rest, &mut out),
        _ => experiments_main(rest, &mut out),
    };
    done.unwrap_or_else(|message| usage_error(verb, &message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// `parse_sweep_args` of `extra` behind one machine and one rank range.
    fn sweep(extra: &str) -> Result<(usize, Option<String>, Option<usize>), String> {
        let list = args(&format!("--machine icx-8360y --ranks 1..4 {extra}"));
        let (sweep, store, cap) = parse_sweep_args(&list)?;
        Ok((sweep.plan.len(), store.map(str::to_string), cap))
    }

    #[test]
    fn flags_and_names_parse_in_any_order() {
        let list = args("fig2 --check table1");
        let opts = parse_args(&list).unwrap();
        assert!(opts.check && !opts.json);
        assert_eq!(opts.names, vec!["fig2", "table1"]);
        assert_eq!(
            parse_args(&args("--perturb 10 all")).unwrap().perturb,
            Some(1.10)
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        let combined = [
            "--json --check",
            "--delta-table --check",
            "--delta-table --perturb 10",
        ];
        for bad in combined.map(|flags| format!("{flags} all")) {
            assert!(parse_args(&args(&bad)).is_err(), "{bad}");
        }
        for bad in ["--bogus", "--perturb", "--perturb ten"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn perturb_rejects_non_finite_and_non_positive_factors() {
        // Regression: NaN/inf parsed successfully and silently wrecked
        // every artifact; -200% produced a negative scale factor.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "-100", "-200"] {
            let err = parse_args(&args(&format!("--perturb {bad} all"))).unwrap_err();
            assert!(err.contains("--perturb"), "{bad}: {err}");
        }
        assert_eq!(
            parse_args(&args("--perturb -50 all")).unwrap().perturb,
            Some(0.5)
        );
    }

    #[test]
    fn sweep_args_build_a_validated_plan() {
        // The axis words reach the shared parser in their order, whatever
        // store flags sit between them.
        let axes = "--machine icx-8360y --machine spr-8480plus --grid 4000 --ranks 1..72 \
                    --stage all --jobs 4";
        let direct = SweepArgs::parse(&args(axes)).unwrap();
        let list = args(&(axes.replacen("--grid", "--store s --grid", 1) + " --store-cap 3"));
        let (parsed, store, cap) = parse_sweep_args(&list).unwrap();
        assert_eq!((store, cap), (Some("s"), Some(3)));
        assert_eq!(parsed.plan, direct.plan);
        assert_eq!((parsed.plan.len(), parsed.jobs, parsed.json), (6, 4, false));
    }

    #[test]
    fn sweep_defaults_fill_grid_and_stage() {
        // The two mandatory flags alone: the parser's defaults, no store.
        let list = args("--machine icx-8360y --ranks 1..18");
        let (parsed, store, cap) = parse_sweep_args(&list).unwrap();
        assert_eq!((store, cap), (None, None));
        let id = parsed.plan.expand()[0].id();
        assert_eq!(id, "sweep-icx-8360y-g15360-r1..18-original");
    }

    #[test]
    fn sweep_policy_flags_span_the_plan() {
        // The README's three `figures sweep` examples, by scenario count.
        for (example, scenarios) in [
            (
                "--machine icx-8360y --grid 4000 --ranks 1..72 --stage all --jobs 4",
                3,
            ),
            (
                "--machine spr-8470-sncon --machine spr-8470-sncoff --ranks 1..104 --json",
                2,
            ),
            (
                "--machine icx-8360y --ranks 1..72 --replacement plru --write-policy no-allocate",
                1,
            ),
        ] {
            let parsed = parse_sweep_args(&args(example)).map(|(sweep, ..)| sweep.plan.len());
            assert_eq!(parsed, Ok(scenarios), "{example}");
        }
    }

    #[test]
    fn sweep_store_flag_is_extracted_from_the_axis_grammar() {
        // A missing value, also one that is the next flag (`--store --json`
        // used to exit 0 with a store file named `--json`), and a
        // duplicate flag are usage errors, in both front ends.
        for missing in ["--store", "--store --json"] {
            assert_eq!(sweep(missing).unwrap_err(), "--store needs a file path");
        }
        for missing in ["--store --socket p", "--socket --workers"] {
            let err = parse_serve_args(&args(missing)).unwrap_err();
            assert!(err.ends_with(" needs a file path"), "{err}");
        }
        let err = sweep("--store a --store b").unwrap_err();
        assert!(err.contains("twice"), "{err}");
        let spelled = sweep("--store ./--json").unwrap().1;
        assert_eq!(spelled.as_deref(), Some("./--json"));
    }

    #[test]
    fn count_flags_validate_strictly() {
        let serve = |flags: &str| {
            let list = args(&format!("--socket s {flags}"));
            parse_serve_args(&list).map(|opts| opts.workers)
        };
        assert_eq!(serve("--workers 4"), Ok(Some(4)));
        assert_eq!(serve(""), Ok(None));
        // Missing value, zero, garbage and duplicates all name the flag.
        for bad in ["", "0", "two", "-1", "1 --workers 2"] {
            let err = serve(&format!("--workers {bad}")).unwrap_err();
            assert!(err.contains("--workers"), "{bad:?}: {err}");
        }
        assert!(serve("--workers 1 --workers 2")
            .unwrap_err()
            .contains("twice"));
        // A pool needs a socket; anything else is not a serve flag.
        let err = parse_serve_args(&args("--workers 2")).unwrap_err();
        assert!(err.contains("requires --socket"), "{err}");
        let err = serve("--response-cache 8").unwrap_err();
        assert_eq!(err, "unexpected argument '--response-cache'");
    }

    #[test]
    fn sweep_store_cap_needs_a_store_and_a_positive_count() {
        let (_, _, cap) = sweep("--store /tmp/clover.store --store-cap 32").unwrap();
        assert_eq!(cap, Some(32));
        let err = sweep("--store-cap 32").unwrap_err();
        assert!(err.contains("requires --store"), "{err}");
        let err = sweep("--store s --store-cap 0").unwrap_err();
        assert!(err.contains("--store-cap"), "{err}");
        let err = parse_serve_args(&args("--store-cap 5")).unwrap_err();
        assert!(err.contains("requires --store"), "{err}");
    }

    #[test]
    fn sweep_usage_errors_are_caught_before_any_worker_runs() {
        // The axis grammar and its tests live in `clover_scenario::cli`;
        // what it refuses is refused here, in its words, before a service
        // exists.
        let flags = args("--machine epyc --ranks 1..4");
        let err = parse_sweep_args(&flags).unwrap_err();
        assert_eq!(err, SweepArgs::parse(&flags).unwrap_err());
        assert!(err.contains("unknown machine") && err.contains("icx-8360y"));
        assert_eq!(sweep("fig2").unwrap_err(), "unexpected argument 'fig2'");
    }

    #[test]
    fn sweep_policy_flags_reject_unknown_and_duplicate_values() {
        // ... and a refused axis value stays refused with a store beside it.
        let err = sweep("--store s --replacement fifo").unwrap_err();
        assert!(
            err.contains("--replacement") && err.contains("'fifo'"),
            "{err}"
        );
        let err = sweep("--aggressor all --store s --aggressor thrash").unwrap_err();
        assert!(err.contains("duplicate kernel 'thrash'"), "{err}");
    }

    #[test]
    fn interfere_args_default_to_all_and_reject_garbage() {
        let (json, names) = parse_interfere_args(&[]).unwrap();
        assert!(!json);
        assert_eq!(names, INTERFERENCE_EXPERIMENTS.to_vec());
        let (json, names) = parse_interfere_args(&args("--json interfere-occupancy")).unwrap();
        assert!(json);
        assert_eq!(names, vec!["interfere-occupancy"]);
        let err = parse_interfere_args(&args("fig2")).unwrap_err();
        assert!(
            err.contains("unknown interference experiment 'fig2'"),
            "{err}"
        );
        assert!(err.contains("interfere-timestep"), "{err}");
        let err = parse_interfere_args(&args("interfere-evasion interfere-evasion")).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(parse_interfere_args(&args("--quick")).is_err());
    }

    #[test]
    fn all_mixed_with_names_is_rejected() {
        assert!(requested_experiments(&["all", "fig2"]).is_err());
        assert_eq!(
            requested_experiments(&["all"]).unwrap(),
            EXPERIMENTS.to_vec()
        );
    }

    #[test]
    fn duplicates_and_unknowns_are_rejected() {
        assert!(requested_experiments(&["fig2", "fig2"]).is_err());
        let err = requested_experiments(&["fig2", "fig99", "table9"]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("table9"));
        let known = requested_experiments(&["fig2", "table1"]).unwrap();
        assert_eq!(known, vec!["fig2", "table1"]);
    }
}
