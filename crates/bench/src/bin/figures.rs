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
//! figures sweep --machine icx-8360y --grid 4000 --ranks 1..72 \
//!     --stage all [--replacement lru|plru|srrip|random|all] \
//!     [--write-policy allocate|no-allocate|non-temporal|all] \
//!     [--layer-condition ok|broken|all] \
//!     [--aggressor none|stream|stream-heavy|thrash|all] \
//!     [--interleave <lines>] [--jobs N] [--json] [--store <path>]
//!                                # scenario sweep engine: cartesian
//!                                # machine × grid × ranks × stage
//!                                # (× cache-policy × tenancy axes) plan on
//!                                # N worker threads; the policy axes
//!                                # default to the paper's LRU +
//!                                # write-allocate + fulfilled layer
//!                                # condition and the tenancy axes to an
//!                                # exclusive node; `--store` warm-loads
//!                                # the co-run simulations of a persistent
//!                                # store first and writes them back after
//!                                # the sweep (stale or corrupt stores are
//!                                # rebuilt; analytic points are cheaper
//!                                # to evaluate than to load, so only a
//!                                # contended plan has anything to store);
//!                                # `--store-cap N` compacts the write-back
//!                                # to the N most recently touched co-runs
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
//! Exit codes: 0 success, 1 out-of-tolerance cells, 2 usage errors.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use clover_bench::{
    check_experiment, delta_table, run_artifact, run_interference_artifact, EXPERIMENTS,
    INTERFERENCE_EXPERIMENTS,
};
use clover_cachesim::SimMemo;
use clover_core::SweepMemo;
use clover_golden::check_artifact;
use clover_scenario::{render_block, run_plan_memos, SweepArgs, SweepPlan};
use clover_service::{LoadOutcome, PersistentStore, SweepService};

/// Write to stdout, exiting quietly if the reader went away (`figures all |
/// head` must not panic with a broken-pipe backtrace).
fn emit(out: &mut impl Write, text: std::fmt::Arguments<'_>) {
    if let Err(e) = out.write_fmt(text) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Like [`emit`], but survive a broken pipe: returns `false` so the caller
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

fn usage_error(message: &str) -> ExitCode {
    eprintln!("figures: {message}");
    eprintln!("run `figures list` for the available experiments");
    ExitCode::from(2)
}

fn sweep_usage_error(message: &str) -> ExitCode {
    eprintln!("figures sweep: {message}");
    eprintln!(
        "usage: figures sweep --machine <name> --ranks <A..B> \
         [--grid <cells>] [--stage original|speci2m-off|optimized|all] \
         [--replacement lru|plru|srrip|random|all] \
         [--write-policy allocate|no-allocate|non-temporal|all] \
         [--layer-condition ok|broken|all] \
         [--aggressor none|stream|stream-heavy|thrash|all] \
         [--interleave <lines>] \
         [--jobs <n>] [--json] [--store <path>] [--store-cap <n>]  \
         (axis flags repeat to span a cartesian plan)"
    );
    ExitCode::from(2)
}

fn serve_usage_error(message: &str) -> ExitCode {
    eprintln!("figures serve: {message}");
    eprintln!(
        "usage: figures serve [--store <path>] [--socket <path>] \
         [--workers <n>] [--store-cap <n>]"
    );
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Options {
    check: bool,
    json: bool,
    delta: bool,
    perturb: Option<f64>,
    names: Vec<String>,
}

/// Split flags from experiment names; flags may appear anywhere.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            "--delta-table" => opts.delta = true,
            "--perturb" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--perturb needs a percentage argument".to_string())?;
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
            name => opts.names.push(name.to_string()),
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

/// Resolve the positional names to a validated experiment list.
fn resolve_names(names: &[String]) -> Result<Vec<&'static str>, String> {
    if names.iter().any(|n| n == "all") {
        if names.len() > 1 {
            return Err(
                "'all' already includes every experiment; drop the explicit names".to_string(),
            );
        }
        return Ok(EXPERIMENTS.to_vec());
    }
    let mut resolved = Vec::new();
    let mut unknown = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| *e == name) {
            Some(e) => {
                if resolved.contains(e) {
                    return Err(format!("duplicate experiment name '{name}'"));
                }
                resolved.push(*e);
            }
            None => unknown.push(name.as_str()),
        }
    }
    if !unknown.is_empty() {
        return Err(format!("unknown experiment(s): {}", unknown.join(", ")));
    }
    Ok(resolved)
}

/// Options of the `figures sweep` subcommand.
#[derive(Debug)]
struct SweepOptions {
    plan: SweepPlan,
    jobs: usize,
    json: bool,
    store: Option<String>,
    store_cap: Option<usize>,
}

/// Extract a repeat-checked `<flag> <value>` pair from `args`, returning
/// the remaining arguments and the value as `parse` reads it.  A missing
/// value and a duplicate flag are usage errors naming the flag, as every
/// error of `parse` must be.
fn extract_flag<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str, Option<&String>) -> Result<T, String>,
) -> Result<(Vec<String>, Option<T>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut value: Option<T> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            let parsed = parse(flag, iter.next())?;
            if value.replace(parsed).is_some() {
                return Err(format!("{flag} given twice"));
            }
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, value))
}

/// [`extract_flag`] reading of a `--store <path>` / `--socket <path>`
/// style value.
fn path_value(flag: &str, raw: Option<&String>) -> Result<String, String> {
    raw.cloned()
        .ok_or_else(|| format!("{flag} needs a file path"))
}

/// [`extract_flag`] reading of a `--workers <n>` style positive count:
/// zero and non-numeric values are refused.
fn count_value(flag: &str, raw: Option<&String>) -> Result<usize, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a positive count"))?;
    match raw.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag}: '{raw}' is not a count")),
    }
}

/// Parse the arguments after the `sweep` keyword.  The axis grammar lives
/// in `clover_scenario::SweepArgs` (shared with the `figures serve`
/// daemon); the CLI adds only the `--store <path>` persistence flag and
/// its `--store-cap <n>` compaction bound.
fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, String> {
    let (rest, store) = extract_flag(args, "--store", path_value)?;
    let (rest, store_cap) = extract_flag(&rest, "--store-cap", count_value)?;
    if store_cap.is_some() && store.is_none() {
        return Err("--store-cap requires --store".to_string());
    }
    let parsed = SweepArgs::parse(&rest)?;
    Ok(SweepOptions {
        plan: parsed.plan,
        jobs: parsed.jobs,
        json: parsed.json,
        store,
        store_cap,
    })
}

fn interfere_usage_error(message: &str) -> ExitCode {
    eprintln!("figures interfere: {message}");
    eprintln!(
        "usage: figures interfere [--json] [{}]  (no names runs all three)",
        INTERFERENCE_EXPERIMENTS.join(" | ")
    );
    ExitCode::from(2)
}

/// Parse the arguments after the `interfere` keyword: an optional `--json`
/// plus experiment names (empty means all three).
fn parse_interfere_args(args: &[String]) -> Result<(bool, Vec<&'static str>), String> {
    let mut json = false;
    let mut names: Vec<&'static str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => match INTERFERENCE_EXPERIMENTS.iter().find(|e| **e == name) {
                None => {
                    return Err(format!(
                        "unknown interference experiment '{name}' (known: {})",
                        INTERFERENCE_EXPERIMENTS.join(", ")
                    ))
                }
                Some(e) => {
                    if names.contains(e) {
                        return Err(format!("duplicate experiment name '{name}'"));
                    }
                    names.push(e);
                }
            },
        }
    }
    if names.is_empty() {
        names = INTERFERENCE_EXPERIMENTS.to_vec();
    }
    Ok((json, names))
}

/// Run the `figures interfere` subcommand.
fn interfere_main(args: &[String], out: &mut impl Write) -> ExitCode {
    let (json, names) = match parse_interfere_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return interfere_usage_error(&message),
    };
    let mut json_blocks = Vec::new();
    for name in names {
        let artifact = run_interference_artifact(name).expect("validated name");
        if json {
            json_blocks.push(artifact.to_json());
        } else {
            emit(out, format_args!("{}", render_block(&artifact)));
        }
    }
    if json {
        emit(out, format_args!("[{}]\n", json_blocks.join(",")));
    }
    ExitCode::SUCCESS
}

/// Run the `figures sweep` subcommand.
fn sweep_main(args: &[String], out: &mut impl Write) -> ExitCode {
    let opts = match parse_sweep_args(args) {
        Ok(opts) => opts,
        Err(message) => return sweep_usage_error(&message),
    };
    // With `--store` the co-run simulations outlive the process: warm-load
    // before the sweep, write back after.  The store only changes *when*
    // a co-run is simulated, never its result, so stdout stays
    // byte-identical to a storeless run.
    let store = opts.store.as_deref().map(PersistentStore::new);
    let memo = SweepMemo::new();
    let sim = SimMemo::new();
    if let Some(store) = &store {
        match store.warm_load(&sim, &memo) {
            LoadOutcome::Warm(n) => {
                eprintln!(
                    "figures sweep: store {}: {n} co-run simulations warm",
                    store.path().display()
                );
            }
            LoadOutcome::ColdMissing => {}
            LoadOutcome::ColdStale => eprintln!(
                "figures sweep: store {}: model hash or format changed, rebuilding",
                store.path().display()
            ),
            LoadOutcome::ColdCorrupt => eprintln!(
                "figures sweep: store {}: unreadable or truncated, rebuilding",
                store.path().display()
            ),
        }
    }
    let artifacts = run_plan_memos(&opts.plan, opts.jobs, &memo, &sim);
    if opts.json {
        let blocks: Vec<String> = artifacts.iter().map(|a| a.to_json()).collect();
        emit(out, format_args!("[{}]\n", blocks.join(",")));
    } else {
        for artifact in &artifacts {
            emit(out, format_args!("{}", render_block(artifact)));
        }
    }
    if let Some(store) = &store {
        match store.save_capped(&sim, &memo, opts.store_cap.unwrap_or(usize::MAX)) {
            Ok(report) => {
                if report.evicted > 0 {
                    eprintln!(
                        "figures sweep: store {}: {} least-recently-used co-run simulations \
                         compacted away",
                        store.path().display(),
                        report.evicted
                    );
                }
                eprintln!(
                    "figures sweep: store {}: {} co-run simulations saved ({} simulated now)",
                    store.path().display(),
                    report.written,
                    sim.corun_stats().misses
                );
            }
            Err(e) => {
                eprintln!(
                    "figures sweep: store {}: save failed: {e}",
                    store.path().display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Run the `figures serve` subcommand: the sweep daemon over stdin (the
/// default) or a unix socket (`--socket <path>`), optionally backed by a
/// persistent store of co-run simulations (`--store <path>`, compacted to
/// `--store-cap` entries on save).  The socket mode serves every client
/// from a fixed pool of `--workers` threads; repeat queries are answered
/// from a bounded response cache of
/// [`clover_service::DEFAULT_RESPONSE_CACHE_ENTRIES`] payloads.
fn serve_main(args: &[String]) -> ExitCode {
    let (rest, store_path) = match extract_flag(args, "--store", path_value) {
        Ok(split) => split,
        Err(message) => return serve_usage_error(&message),
    };
    let (rest, socket) = match extract_flag(&rest, "--socket", path_value) {
        Ok(split) => split,
        Err(message) => return serve_usage_error(&message),
    };
    let (rest, workers) = match extract_flag(&rest, "--workers", count_value) {
        Ok(split) => split,
        Err(message) => return serve_usage_error(&message),
    };
    let (rest, store_cap) = match extract_flag(&rest, "--store-cap", count_value) {
        Ok(split) => split,
        Err(message) => return serve_usage_error(&message),
    };
    if let Some(extra) = rest.first() {
        return serve_usage_error(&format!("unexpected argument '{extra}'"));
    }
    if workers.is_some() && socket.is_none() {
        return serve_usage_error("--workers requires --socket (stdin serving is single-client)");
    }
    if store_cap.is_some() && store_path.is_none() {
        return serve_usage_error("--store-cap requires --store");
    }
    let mut service = match store_path {
        None => SweepService::new(),
        Some(path) => {
            let store = PersistentStore::new(&path);
            let (service, outcome) = SweepService::with_store(store);
            match outcome {
                LoadOutcome::Warm(n) => {
                    eprintln!("figures serve: store {path}: {n} co-run simulations warm")
                }
                LoadOutcome::ColdMissing => {
                    eprintln!("figures serve: store {path}: starting cold")
                }
                LoadOutcome::ColdStale => {
                    eprintln!(
                        "figures serve: store {path}: model hash or format changed, rebuilding"
                    )
                }
                LoadOutcome::ColdCorrupt => {
                    eprintln!("figures serve: store {path}: unreadable or truncated, rebuilding")
                }
            }
            service
        }
    };
    if let Some(cap) = store_cap {
        service = service.with_store_cap(cap);
    }
    let result = match socket {
        Some(path) => {
            let workers = workers.unwrap_or_else(clover_service::default_workers);
            // Each in-flight request already fans its plan out over
            // `--jobs` threads; clamp per-request jobs so `workers`
            // concurrent requests cannot oversubscribe the host.
            let host = clover_scenario::runner::host_parallelism();
            let service = service.with_max_jobs((host / workers).max(1));
            eprintln!("figures serve: listening on {path} ({workers} workers)");
            clover_service::serve_unix(
                std::sync::Arc::new(service),
                std::path::Path::new(&path),
                workers,
            )
        }
        None => clover_service::serve_stdin(&service),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    if args.first().map(String::as_str) == Some("sweep") {
        return sweep_main(&args[1..], &mut out);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("interfere") {
        return interfere_main(&args[1..], &mut out);
    }

    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let flags_used = opts.check || opts.json || opts.delta || opts.perturb.is_some();
    if opts.names.is_empty() || opts.names[0] == "list" {
        // A flag without names must not silently degrade to `list`/exit 0:
        // `figures --check` (forgotten `all`) would green-light CI while
        // checking nothing.
        if flags_used {
            return usage_error("flags require experiment names (e.g. `--check all`)");
        }
        if opts.names.len() > 1 {
            return usage_error("'list' takes no further names");
        }
        emit(&mut out, format_args!("available experiments:\n"));
        for e in EXPERIMENTS {
            emit(&mut out, format_args!("  {e}\n"));
        }
        return ExitCode::SUCCESS;
    }
    let requested = match resolve_names(&opts.names) {
        Ok(requested) => requested,
        Err(message) => return usage_error(&message),
    };

    if opts.delta {
        // The delta table always spans all 12 artifacts; restricting it
        // would silently produce an incomplete EXPERIMENTS.md section.
        if requested.len() != EXPERIMENTS.len() {
            return usage_error("--delta-table requires 'all'");
        }
        emit(&mut out, format_args!("{}", delta_table()));
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    let mut pipe_gone = false;
    let mut json_blocks = Vec::new();
    for name in requested {
        if opts.check {
            let report = match opts.perturb {
                None => check_experiment(name).expect("validated name"),
                Some(factor) => {
                    let mut artifact = run_artifact(name).expect("validated name");
                    artifact.perturb(factor);
                    check_artifact(&artifact, clover_golden::golden(name).expect("golden data"))
                }
            };
            failed |= !report.passed();
            if !pipe_gone {
                pipe_gone = !try_emit(&mut out, format_args!("{}", report.render_text(false)));
            }
        } else {
            let mut artifact = run_artifact(name).expect("validated name");
            if let Some(factor) = opts.perturb {
                artifact.perturb(factor);
            }
            if opts.json {
                json_blocks.push(artifact.to_json());
            } else {
                emit(&mut out, format_args!("{}", render_block(&artifact)));
            }
        }
    }
    if opts.json {
        emit(&mut out, format_args!("[{}]\n", json_blocks.join(",")));
    }
    if failed {
        eprintln!("figures: at least one artifact is out of tolerance of the paper data");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::{ReplacementPolicyKind, WritePolicyKind};
    use clover_scenario::{LayerCondition, Stage};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_names_parse_in_any_order() {
        let opts = parse_args(&args(&["fig2", "--check", "table1"])).unwrap();
        assert!(opts.check && !opts.json);
        assert_eq!(opts.names, vec!["fig2", "table1"]);
        let opts = parse_args(&args(&["--perturb", "10", "all"])).unwrap();
        assert_eq!(opts.perturb, Some(1.10));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--perturb"])).is_err());
        assert!(parse_args(&args(&["--perturb", "ten"])).is_err());
        assert!(parse_args(&args(&["--json", "--check", "all"])).is_err());
        assert!(parse_args(&args(&["--delta-table", "--check", "all"])).is_err());
        assert!(parse_args(&args(&["--delta-table", "--perturb", "10", "all"])).is_err());
    }

    #[test]
    fn perturb_rejects_non_finite_and_non_positive_factors() {
        // Regression: NaN/inf parsed successfully and silently wrecked
        // every artifact; -200% produced a negative scale factor.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "-100", "-200"] {
            let err = parse_args(&args(&["--perturb", bad, "all"])).unwrap_err();
            assert!(err.contains("--perturb"), "{bad}: {err}");
        }
        let opts = parse_args(&args(&["--perturb", "-50", "all"])).unwrap();
        assert_eq!(opts.perturb, Some(0.5));
        let opts = parse_args(&args(&["--perturb", "10", "all"])).unwrap();
        assert_eq!(opts.perturb, Some(1.10));
    }

    #[test]
    fn sweep_args_build_a_validated_plan() {
        let opts = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--machine",
            "spr-8480plus",
            "--grid",
            "4000",
            "--ranks",
            "1..72",
            "--stage",
            "all",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.plan.len(), 2 * 1 * 1 * 3);
        assert_eq!(opts.jobs, 4);
        assert!(!opts.json);
    }

    #[test]
    fn sweep_store_flag_is_extracted_from_the_axis_grammar() {
        // --store can sit anywhere between axis flags.
        let opts = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--store",
            "/tmp/clover.store",
            "--ranks",
            "1..4",
        ]))
        .unwrap();
        assert_eq!(opts.store.as_deref(), Some("/tmp/clover.store"));
        assert_eq!(opts.plan.len(), 1);
        // Missing value / duplicate flag are usage errors.
        let err = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--store",
        ]))
        .unwrap_err();
        assert!(err.contains("--store"), "{err}");
        let err = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--store",
            "a",
            "--store",
            "b",
        ]))
        .unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn count_flags_validate_strictly() {
        // Value extracted, remaining args untouched and in order.
        let (rest, v) = extract_flag(
            &args(&["--workers", "4", "--json"]),
            "--workers",
            count_value,
        )
        .unwrap();
        assert_eq!(v, Some(4));
        assert_eq!(rest, args(&["--json"]));
        // Absent flag is fine.
        let (rest, v) = extract_flag(&args(&["--json"]), "--workers", count_value).unwrap();
        assert_eq!(v, None);
        assert_eq!(rest, args(&["--json"]));
        // Missing value, zero, garbage and duplicates all name the flag.
        for bad in [
            &["--workers"][..],
            &["--workers", "0"],
            &["--workers", "two"],
            &["--workers", "-1"],
            &["--workers", "1", "--workers", "2"],
        ] {
            let err = extract_flag(&args(bad), "--workers", count_value).unwrap_err();
            assert!(err.contains("--workers"), "{bad:?}: {err}");
        }
        let err = extract_flag(
            &args(&["--workers", "1", "--workers", "2"]),
            "--workers",
            count_value,
        )
        .unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn sweep_store_cap_needs_a_store_and_a_positive_count() {
        let opts = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--store",
            "/tmp/clover.store",
            "--store-cap",
            "32",
        ]))
        .unwrap();
        assert_eq!(opts.store_cap, Some(32));
        let err = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--store-cap",
            "32",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --store"), "{err}");
        let err = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--store",
            "s",
            "--store-cap",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--store-cap"), "{err}");
    }

    #[test]
    fn sweep_defaults_fill_grid_and_stage() {
        let opts =
            parse_sweep_args(&args(&["--machine", "icx-8360y", "--ranks", "1..18"])).unwrap();
        assert_eq!(opts.plan.grids, vec![clover_core::TINY_GRID]);
        assert_eq!(opts.plan.stages, vec![Stage::Original]);
        assert!(opts.jobs >= 1);
    }

    #[test]
    fn sweep_usage_errors_are_caught_before_any_worker_runs() {
        // Unknown machine name, listing the registry.
        let err = parse_sweep_args(&args(&["--machine", "epyc", "--ranks", "1..4"])).unwrap_err();
        assert!(err.contains("unknown machine") && err.contains("icx-8360y"));
        // Empty rank range.
        let err =
            parse_sweep_args(&args(&["--machine", "icx-8360y", "--ranks", "5..4"])).unwrap_err();
        assert!(err.contains("empty rank range"));
        // Rank range beyond the machine's core count.
        let err =
            parse_sweep_args(&args(&["--machine", "icx-8360y", "--ranks", "1..104"])).unwrap_err();
        assert!(err.contains("exceeds"));
        // Zero grid, zero jobs, bad stage, duplicate stage, missing axes.
        assert!(parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--grid",
            "0"
        ]))
        .is_err());
        assert!(parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--jobs",
            "0"
        ]))
        .is_err());
        assert!(parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--stage",
            "turbo"
        ]))
        .is_err());
        assert!(parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--stage",
            "all",
            "--stage",
            "original"
        ]))
        .is_err());
        assert!(parse_sweep_args(&args(&["--ranks", "1..4"])).is_err());
        assert!(parse_sweep_args(&args(&["--machine", "icx-8360y"])).is_err());
        assert!(parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "fig2"
        ]))
        .is_err());
    }

    #[test]
    fn sweep_policy_flags_span_the_plan() {
        let opts = parse_sweep_args(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--replacement",
            "all",
            "--write-policy",
            "no-allocate",
            "--write-policy",
            "non-temporal",
            "--layer-condition",
            "all",
        ]))
        .unwrap();
        assert_eq!(opts.plan.replacements, ReplacementPolicyKind::all());
        assert_eq!(
            opts.plan.write_policies,
            vec![WritePolicyKind::NoAllocate, WritePolicyKind::NonTemporal]
        );
        assert_eq!(opts.plan.layer_conditions, LayerCondition::all());
        assert_eq!(opts.plan.len(), 1 * 1 * 1 * 1 * 4 * 2 * 2);
        // Unset policy axes stay empty (pinned to the defaults on expand).
        let opts = parse_sweep_args(&args(&["--machine", "icx-8360y", "--ranks", "1..4"])).unwrap();
        assert!(opts.plan.replacements.is_empty());
        assert!(opts.plan.write_policies.is_empty());
        assert!(opts.plan.layer_conditions.is_empty());
        assert_eq!(opts.plan.len(), 1);
    }

    #[test]
    fn sweep_policy_flags_reject_unknown_and_duplicate_values() {
        let base = ["--machine", "icx-8360y", "--ranks", "1..4"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            parse_sweep_args(&args(&v))
        };
        // Unknown names are rejected, naming the flag and the registry.
        let err = with(&["--replacement", "fifo"]).unwrap_err();
        assert!(
            err.contains("--replacement") && err.contains("lru"),
            "{err}"
        );
        let err = with(&["--write-policy", "write-back"]).unwrap_err();
        assert!(
            err.contains("--write-policy") && err.contains("allocate"),
            "{err}"
        );
        let err = with(&["--layer-condition", "maybe"]).unwrap_err();
        assert!(err.contains("--layer-condition"), "{err}");
        // Missing values name the flag too.
        assert!(with(&["--replacement"])
            .unwrap_err()
            .contains("--replacement"));
        assert!(with(&["--write-policy"])
            .unwrap_err()
            .contains("--write-policy"));
        assert!(with(&["--layer-condition"])
            .unwrap_err()
            .contains("--layer-condition"));
        // Duplicates (directly or via 'all') are rejected.
        let err = with(&["--replacement", "plru", "--replacement", "plru"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = with(&["--replacement", "lru", "--replacement", "all"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = with(&["--write-policy", "all", "--write-policy", "allocate"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = with(&["--layer-condition", "ok", "--layer-condition", "ok"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn interfere_args_default_to_all_and_reject_garbage() {
        let (json, names) = parse_interfere_args(&args(&[])).unwrap();
        assert!(!json);
        assert_eq!(names, INTERFERENCE_EXPERIMENTS.to_vec());
        let (json, names) =
            parse_interfere_args(&args(&["--json", "interfere-occupancy"])).unwrap();
        assert!(json);
        assert_eq!(names, vec!["interfere-occupancy"]);
        let err = parse_interfere_args(&args(&["fig2"])).unwrap_err();
        assert!(
            err.contains("unknown interference experiment 'fig2'"),
            "{err}"
        );
        assert!(err.contains("interfere-timestep"), "{err}");
        let err =
            parse_interfere_args(&args(&["interfere-evasion", "interfere-evasion"])).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(parse_interfere_args(&args(&["--quick"])).is_err());
    }

    #[test]
    fn all_mixed_with_names_is_rejected() {
        assert!(resolve_names(&args(&["all", "fig2"])).is_err());
        assert_eq!(
            resolve_names(&args(&["all"])).unwrap(),
            EXPERIMENTS.to_vec()
        );
    }

    #[test]
    fn duplicates_and_unknowns_are_rejected() {
        assert!(resolve_names(&args(&["fig2", "fig2"])).is_err());
        let err = resolve_names(&args(&["fig2", "fig99", "table9"])).unwrap_err();
        assert!(err.contains("fig99") && err.contains("table9"));
        assert_eq!(
            resolve_names(&args(&["fig2", "table1"])).unwrap(),
            vec!["fig2", "table1"]
        );
    }
}
