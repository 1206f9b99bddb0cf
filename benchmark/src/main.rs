//! The repository's benchmark harness (see `benchmark/README.md`).
//!
//! ```text
//! harness [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--runs K] [--out FILE]
//! harness bless
//! harness compare <a.json> <b.json>
//! harness repeat [--runs K] [--seconds S]
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds `figures` and this
//! program first, from the root of the checkout.

mod alloc;
mod calib;
mod compare;
mod expected;
mod json;
mod probes;
mod requests;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::Options;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: harness [run] [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--runs <k>] [--out <file>]\n       \
                     harness bless\n       \
                     harness compare <a.json> <b.json>\n       \
                     harness repeat [--runs <k>] [--seconds <s>]";

fn parse_options(args: &[String], default_runs: u64) -> Result<Options, String> {
    let mut options = Options {
        runs: default_runs,
        ..Options::default()
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                options.seed = value("a seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value("a duration")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".into());
                }
                options.seconds = Some(seconds);
            }
            "--runs" => {
                options.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&k| (1..=1000).contains(&k))
                    .ok_or("--runs needs a count from 1 to 1000")?
            }
            "--out" => options.out = PathBuf::from(value("a file")?),
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                options.trace = match iter.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        iter.next();
                        false
                    }
                    Some("1") => {
                        iter.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(options)
}

/// Two full sets of runs of the same code, compared with the benchmark's
/// own bounds: the check that the benchmark can tell a change from noise.
fn repeat(args: &[String]) -> Result<bool, String> {
    let mut options = parse_options(args, 10)?;
    let mut clean = true;
    let paths = ["set-a.json", "set-b.json"].map(|name| Path::new(run::OUT_DIR).join(name));
    for (path, seed) in paths.iter().zip([1, 1001]) {
        options.out = path.clone();
        options.seed = seed;
        clean &= run::run(&options)?;
    }
    let [a, b] = paths.map(|p| p.display().to_string());
    clean &= compare::compare(
        &spec::Spec::load()?,
        &compare::load_set(&a)?,
        &compare::load_set(&b)?,
    )?;
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("run", &args[..]),
    };
    let done = match command {
        "run" => parse_options(rest, 1).and_then(|options| run::run(&options)),
        "bless" if rest.is_empty() => run::bless().map(|_| true),
        "compare" => match rest {
            [a, b] => spec::Spec::load().and_then(|spec| {
                compare::compare(&spec, &compare::load_set(a)?, &compare::load_set(b)?)
            }),
            _ => Err(USAGE.to_string()),
        },
        "repeat" => repeat(rest),
        _ => Err(USAGE.to_string()),
    };
    // Every guard (daemon, CLI children, scratch files) has been dropped
    // by now, on the failure paths as well.
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}
