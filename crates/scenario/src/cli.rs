//! Command-line parsing: the one `<flag> <value>` reader and the sweep
//! grammar built on it.
//!
//! Every front end — `figures`, `figures sweep`, `figures interfere`,
//! `figures serve` and one `sweep` request line of the daemon
//! (`clover-service`) — reads its arguments through [`Args`],
//! [`set_once`] and [`push_unique`], so a missing value, a repeated flag, a
//! count of zero and a duplicate name are refused in one place, in one
//! wording.  [`SweepArgs::parse`] is the sweep grammar both the command line
//! and the daemon speak, so a request line means exactly what the same
//! words mean after `figures sweep`; [`sweep_usage`] writes that grammar
//! out from the axis tables of [`crate::plan`].
//!
//! Axis flags repeat to span a cartesian [`SweepPlan`]; `--grid` defaults to
//! the Tiny grid, `--stage` to `original`, the cache-policy axes to LRU,
//! the machine's declared write policy (write-allocate on the paper's
//! machines) and a fulfilled layer condition, and the
//! tenancy axes to an exclusive node (no aggressor, 64-line interleave).
//! `--jobs <n>` picks the worker count (default: available parallelism) and
//! `--json` switches the output format.

use std::fmt::Display;

use clover_machine::{preset_names, ReplacementPolicyKind, WritePolicyKind};

use crate::plan::{Aggressor, LayerCondition, NamedAxis, RankRange, Stage, SweepPlan};

/// Largest `--grid` side accepted: `2^26` is the largest power of two whose
/// square an `f64` still counts exactly.  The model's cell counts and
/// volumes are `i64`/`f64` products of the side; far enough beyond this
/// they wrap (a local extent of -1, a 6e35 MB volume).
const MAX_GRID: usize = 1 << 26;

/// A command line (or request line) being read left to right: the one
/// place a flag's value is taken off it.  The words are a process's owned
/// arguments or a request line's borrowed ones.
pub struct Args<'a, S> {
    rest: std::slice::Iter<'a, S>,
}

impl<'a, S: AsRef<str>> Args<'a, S> {
    /// A reader at the first of `args`.
    pub fn new(args: &'a [S]) -> Self {
        Self { rest: args.iter() }
    }

    /// The value of `flag` — the argument after it — or `<flag> needs <what>`.
    pub fn value(&mut self, flag: &str, what: impl Display) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// A free-form value: a file path.  Nothing about a path says it is
    /// not the next flag, so one that begins with `--` is a missing value
    /// (`--store --json` used to write a store named `--json`); `./--x`
    /// spells such a file.
    pub fn path(&mut self, flag: &str) -> Result<&'a str, String> {
        let what = "a file path";
        match self.value(flag, what)? {
            value if value.starts_with("--") => Err(format!("{flag} needs {what}")),
            value => Ok(value),
        }
    }

    /// A positive count (`--workers 3`): zero and non-numbers are refused.
    pub fn positive_count(&mut self, flag: &str) -> Result<usize, String> {
        let raw = self.value(flag, "a positive count")?;
        match raw.parse() {
            Ok(0) => Err(format!("{flag} must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag}: '{raw}' is not a count")),
        }
    }
}

/// The arguments in order, flags and positionals alike.
impl<'a, S: AsRef<str>> Iterator for Args<'a, S> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(S::as_ref)
    }
}

/// Keep the value of a flag that may be given once: a second one is
/// `<flag> given twice`.
pub fn set_once<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(format!("{flag} given twice")),
    }
}

/// Add `value` to a list that holds each value once: one already there is
/// `duplicate <what>`.
pub fn push_unique<T: PartialEq>(
    list: &mut Vec<T>,
    value: T,
    what: impl Display,
) -> Result<(), String> {
    if list.contains(&value) {
        return Err(format!("duplicate {what}"));
    }
    list.push(value);
    Ok(())
}

/// The names a named axis accepts, `all` last, joined by `sep`.
fn choices<T: NamedAxis>(sep: &str) -> String {
    let mut names: Vec<&str> = T::all().iter().map(T::name).collect();
    names.push("all");
    names.join(sep)
}

/// Read one argument of a named axis: one of its names, or `all` for every
/// value in canonical order.  `what` is the noun of its messages.
fn push_named<T: NamedAxis>(
    axis: &mut Vec<T>,
    args: &mut Args<impl AsRef<str>>,
    flag: &str,
    what: &str,
) -> Result<(), String> {
    let name = args.value(flag, format_args!("a {what} name or 'all'"))?;
    let mut push = |value: T| {
        let name = value.name();
        push_unique(axis, value, format_args!("{what} '{name}'"))
            .map_err(|e| format!("{flag}: {e}"))
    };
    let mut all = T::all().into_iter();
    if name == "all" {
        return all.try_for_each(push);
    }
    match all.find(|value| value.name() == name) {
        Some(value) => push(value),
        None => {
            let known = choices::<T>(", ");
            Err(format!("{flag}: unknown {what} '{name}' (known: {known})"))
        }
    }
}

/// Read one argument of an axis whose values are parsed, not named;
/// `parse` reads the value or says what is wrong with it.
fn push_parsed<T: PartialEq>(
    axis: &mut Vec<T>,
    args: &mut Args<impl AsRef<str>>,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<(), String> {
    let raw = args.value(flag, format_args!("a {what}"))?;
    push_unique(axis, parse(raw)?, format_args!("{what} {raw}")).map_err(|e| format!("{flag}: {e}"))
}

/// The sweep grammar on one line, every name read from its axis's table:
/// what follows `figures sweep` and the daemon's `sweep` verb.
pub fn sweep_usage() -> String {
    format!(
        "--machine <name> --ranks <A..B> [--grid <cells>] [--stage {}] [--replacement {}] \
         [--write-policy {}] [--layer-condition {}] [--aggressor {}] [--interleave <lines>] \
         [--jobs <n>] [--json]",
        choices::<Stage>("|"),
        choices::<ReplacementPolicyKind>("|"),
        choices::<WritePolicyKind>("|"),
        choices::<LayerCondition>("|"),
        choices::<Aggressor>("|"),
    )
}

/// A parsed sweep invocation: the validated plan plus the execution flags
/// shared by every front end.
#[derive(Debug)]
pub struct SweepArgs {
    /// The validated cartesian plan.
    pub plan: SweepPlan,
    /// Worker count (defaults to the available parallelism).
    pub jobs: usize,
    /// Emit JSON artifacts instead of text blocks.
    pub json: bool,
}

impl SweepArgs {
    /// Parse the arguments after the `sweep` keyword (or the words of one
    /// daemon request, borrowed from its line).  Unknown arguments are
    /// rejected with the exact flag name; the returned plan has passed
    /// [`SweepPlan::validate`], so every scenario is evaluable before any
    /// worker starts.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let mut plan = SweepPlan::new();
        let mut jobs: Option<usize> = None;
        let mut json: Option<()> = None;
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                "--machine" => {
                    push_parsed(&mut plan.machines, &mut args, arg, "machine name", |v| {
                        clover_machine::preset_by_name(v).ok_or_else(|| {
                            let known = preset_names().join(", ");
                            format!("unknown machine '{v}'; known machines: {known}")
                        })
                    })?
                }
                "--grid" => push_parsed(&mut plan.grids, &mut args, arg, "grid size", |v| {
                    let side = v.parse().ok().filter(|side| (1..=MAX_GRID).contains(side));
                    side.ok_or_else(|| {
                        format!("--grid: '{v}' is not a cell count in 1..={MAX_GRID}")
                    })
                })?,
                "--ranks" => {
                    push_parsed(&mut plan.rank_ranges, &mut args, arg, "rank range", |v| {
                        RankRange::parse(v)
                            .ok_or_else(|| format!("--ranks: '{v}' is not a range like 1..72"))
                    })?
                }
                "--interleave" => {
                    push_parsed(&mut plan.interleaves, &mut args, arg, "granularity", |v| {
                        let lines = v.parse().ok().filter(|&lines: &u64| lines >= 1);
                        lines.ok_or_else(|| format!("--interleave: '{v}' is not a line count >= 1"))
                    })?
                }
                "--stage" => push_named(&mut plan.stages, &mut args, arg, "stage")?,
                "--replacement" => push_named(&mut plan.replacements, &mut args, arg, "policy")?,
                "--write-policy" => push_named(&mut plan.write_policies, &mut args, arg, "policy")?,
                "--layer-condition" => {
                    push_named(&mut plan.layer_conditions, &mut args, arg, "condition")?
                }
                "--aggressor" => push_named(&mut plan.aggressors, &mut args, arg, "kernel")?,
                "--jobs" => set_once(&mut jobs, arg, args.positive_count(arg)?)?,
                "--json" => set_once(&mut json, arg, ())?,
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        if plan.machines.is_empty() {
            return Err(format!(
                "sweep needs at least one --machine; known machines: {}",
                preset_names().join(", ")
            ));
        }
        if plan.rank_ranges.is_empty() {
            return Err("sweep needs at least one --ranks range (e.g. --ranks 1..72)".to_string());
        }
        if plan.grids.is_empty() {
            plan.grids.push(clover_core::TINY_GRID);
        }
        if plan.stages.is_empty() {
            plan.stages.push(Stage::Original);
        }
        // Every scenario must be evaluable (non-empty range, ranks within
        // the machine's core count) before any worker starts.
        plan.validate()?;
        let jobs = jobs.unwrap_or_else(crate::runner::host_parallelism);
        Ok(SweepArgs {
            plan,
            jobs,
            json: json.is_some(),
        })
    }

    /// Canonical identity of this invocation's *output bytes*: the
    /// expanded scenario ids in plan order plus the output format.
    ///
    /// Two invocations with equal keys print byte-identical output, so a
    /// response cache may serve one's rendered payload for the other:
    ///
    /// * scenario ids capture every axis that reaches the output
    ///   (machine, grid, ranks, stage, policy/tenancy off-defaults) *and*
    ///   the plan expansion order, while collapsing different spellings
    ///   of the same plan (`--stage all` vs the three stages listed,
    ///   defaulted vs pinned-to-default axes) onto one key;
    /// * `--jobs` is deliberately excluded — output is byte-identical for
    ///   any worker count (a tier-1 tested property), so keying on it
    ///   would only fragment the cache.
    pub fn cache_key(&self) -> String {
        let mut key = String::new();
        for scenario in self.plan.expand() {
            key.push_str(&scenario.id());
            key.push('\n');
        }
        if self.json {
            key.push_str("#json");
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn axis_flags_build_a_validated_plan() {
        let parsed = SweepArgs::parse(&args(&[
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
        assert_eq!(parsed.plan.len(), 2 * 3);
        assert_eq!(parsed.jobs, 4);
        assert!(!parsed.json);
    }

    #[test]
    fn defaults_fill_grid_and_stage() {
        let parsed =
            SweepArgs::parse(&args(&["--machine", "icx-8360y", "--ranks", "1..18"])).unwrap();
        assert_eq!(parsed.plan.grids, vec![clover_core::TINY_GRID]);
        assert_eq!(parsed.plan.stages, vec![Stage::Original]);
        assert!(parsed.jobs >= 1);
    }

    #[test]
    fn errors_name_the_flag_and_the_registry() {
        let err = SweepArgs::parse(&args(&["--machine", "epyc", "--ranks", "1..4"])).unwrap_err();
        assert!(err.contains("unknown machine") && err.contains("icx-8360y"));
        let err =
            SweepArgs::parse(&args(&["--machine", "icx-8360y", "--ranks", "5..4"])).unwrap_err();
        assert!(err.contains("empty rank range"));
        let err =
            SweepArgs::parse(&args(&["--machine", "icx-8360y", "--ranks", "1..104"])).unwrap_err();
        assert!(err.contains("exceeds"));
        assert!(SweepArgs::parse(&args(&["--ranks", "1..4"])).is_err());
        assert!(SweepArgs::parse(&args(&["--machine", "icx-8360y"])).is_err());
        let err = SweepArgs::parse(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "fig2",
        ]))
        .unwrap_err();
        // The whole message: both front ends put their own `sweep: ` before it.
        assert_eq!(err, "unexpected argument 'fig2'");
        let err = SweepArgs::parse(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--json",
            "--json",
        ]))
        .unwrap_err();
        assert_eq!(err, "--json given twice");
        // A worker count is positive, and given once.
        for jobs in [&["--jobs", "0"][..], &["--jobs", "two"], &["--jobs"]] {
            let flags = [&["--machine", "icx-8360y", "--ranks", "1..4"], jobs].concat();
            let err = SweepArgs::parse(&args(&flags)).unwrap_err();
            assert!(err.contains("--jobs"), "{err}");
        }
        // A grid side is a cell count the model's i64/f64 arithmetic holds.
        let grid = |side: &str| {
            SweepArgs::parse(&args(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..3",
                "--grid",
                side,
            ]))
        };
        for side in ["0", "67108865", "18446744073709551615", "1e3"] {
            let err = grid(side).unwrap_err();
            assert!(err.contains("--grid") && err.contains(side), "{err}");
        }
        assert_eq!(grid("67108864").unwrap().plan.grids, vec![MAX_GRID]);
    }

    #[test]
    fn policy_flags_span_the_plan() {
        let parsed = SweepArgs::parse(&args(&[
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
        assert_eq!(parsed.plan.replacements, ReplacementPolicyKind::all());
        assert_eq!(
            parsed.plan.write_policies,
            vec![WritePolicyKind::NoAllocate, WritePolicyKind::NonTemporal]
        );
        assert_eq!(parsed.plan.layer_conditions, LayerCondition::all());
        assert_eq!(parsed.plan.len(), 4 * 2 * 2);
        // Unset policy axes stay empty (pinned to the defaults on expand).
        let parsed =
            SweepArgs::parse(&args(&["--machine", "icx-8360y", "--ranks", "1..4"])).unwrap();
        assert!(parsed.plan.replacements.is_empty());
        assert!(parsed.plan.write_policies.is_empty());
        assert!(parsed.plan.layer_conditions.is_empty());
        assert_eq!(parsed.plan.len(), 1);
    }

    /// A named axis as the tests below see it: its flag, its names in
    /// canonical order and the names of what a plan holds on it.
    type Held = fn(&SweepPlan) -> Vec<&'static str>;
    fn named_axes() -> Vec<(&'static str, Vec<&'static str>, Held)> {
        fn names<T: NamedAxis>(values: &[T]) -> Vec<&'static str> {
            values.iter().map(T::name).collect()
        }
        vec![
            ("--stage", names(&Stage::all()), |p| names(&p.stages)),
            ("--replacement", names(&ReplacementPolicyKind::all()), |p| {
                names(&p.replacements)
            }),
            ("--write-policy", names(&WritePolicyKind::all()), |p| {
                names(&p.write_policies)
            }),
            ("--layer-condition", names(&LayerCondition::all()), |p| {
                names(&p.layer_conditions)
            }),
            ("--aggressor", names(&Aggressor::all()), |p| {
                names(&p.aggressors)
            }),
        ]
    }

    #[test]
    fn every_name_round_trips_and_is_in_the_usage_line() {
        let usage = sweep_usage();
        for (flag, names, held) in named_axes() {
            let choices = format!("[{flag} {}|all]", names.join("|"));
            assert!(usage.contains(&choices), "{choices} not in: {usage}");
            // A name parses to the value that bears it, `all` to every one.
            for name in names.iter().chain(&["all"]) {
                let flags = ["--machine", "icx-8360y", "--ranks", "1..4", flag, name];
                let plan = SweepArgs::parse(&args(&flags)).unwrap().plan;
                let expected = if *name == "all" {
                    names.clone()
                } else {
                    vec![*name]
                };
                assert_eq!(held(&plan), expected, "{flag} {name}");
            }
        }
    }

    #[test]
    fn named_axes_refuse_missing_unknown_and_duplicate_values() {
        let with = |extra: &[&str]| {
            let flags = [&["--machine", "icx-8360y", "--ranks", "1..4"], extra].concat();
            SweepArgs::parse(&args(&flags)).map(|parsed| parsed.plan.len())
        };
        for (flag, names, _) in named_axes() {
            let first = names[0];
            assert_eq!(with(&[flag, "all"]), Ok(names.len()));
            let err = with(&[flag]).unwrap_err();
            assert!(err.contains(flag) && err.contains("needs"), "{err}");
            // An unknown name is answered with the flag, the name and the
            // whole registry.
            let err = with(&[flag, "bogus"]).unwrap_err();
            assert!(err.contains(flag) && err.contains("'bogus'"), "{err}");
            for name in names.iter().chain(&["all"]) {
                assert!(err.contains(name), "{name} not in: {err}");
            }
            // A value given twice, directly or through `all`.
            let quoted = format!("'{first}'");
            for twice in [[first, first], [first, "all"], ["all", first]] {
                let err = with(&[flag, twice[0], flag, twice[1]]).unwrap_err();
                assert!(
                    err.contains(flag) && err.contains("duplicate") && err.contains(&quoted),
                    "{twice:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn the_value_reader_refuses_what_no_flag_may_do() {
        let list = args(&["--store", "--json", "--workers", "0", "--workers", "3"]);
        let mut reader = Args::new(&list);
        assert_eq!(reader.next(), Some("--store"));
        // A path that looks like the next flag is a missing path.
        assert_eq!(
            reader.path("--store").unwrap_err(),
            "--store needs a file path"
        );
        assert_eq!(reader.next(), Some("--workers"));
        assert!(reader
            .positive_count("--workers")
            .unwrap_err()
            .contains("--workers"));
        assert_eq!(reader.next(), Some("--workers"));
        assert_eq!(reader.positive_count("--workers"), Ok(3));
        assert_eq!(reader.next(), None);
        assert_eq!(
            reader.value("--grid", "a grid size").unwrap_err(),
            "--grid needs a grid size"
        );
        assert_eq!(Args::new(&args(&["./--x"])).path("--store"), Ok("./--x"));
        let mut slot = None;
        assert_eq!(set_once(&mut slot, "--jobs", 2), Ok(()));
        assert_eq!(
            set_once(&mut slot, "--jobs", 3).unwrap_err(),
            "--jobs given twice"
        );
        let mut list = vec!["fig2"];
        assert_eq!(push_unique(&mut list, "fig3", "experiment 'fig3'"), Ok(()));
        assert_eq!(
            push_unique(&mut list, "fig2", "experiment 'fig2'").unwrap_err(),
            "duplicate experiment 'fig2'"
        );
        assert_eq!(list, ["fig2", "fig3"]);
    }

    #[test]
    fn cache_key_collapses_spellings_and_splits_on_output_axes() {
        let key = |list: &[&str]| SweepArgs::parse(&args(list)).unwrap().cache_key();
        // Different spellings of the same plan share one key: defaults
        // spelled out, `--stage all` vs listed stages, different --jobs.
        let base = key(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..8",
            "--stage",
            "all",
        ]);
        assert_eq!(
            base,
            key(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..8",
                "--stage",
                "original",
                "--stage",
                "speci2m-off",
                "--stage",
                "optimized",
                "--jobs",
                "7",
            ])
        );
        // Anything that changes the output bytes changes the key...
        assert_ne!(
            base,
            key(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..9",
                "--stage",
                "all"
            ])
        );
        assert_ne!(
            base,
            key(&[
                "--machine",
                "spr-8480plus",
                "--ranks",
                "1..8",
                "--stage",
                "all"
            ])
        );
        // ...including the output format and the scenario order.
        assert_ne!(
            base,
            key(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..8",
                "--stage",
                "all",
                "--json",
            ])
        );
        assert_ne!(
            key(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "1..4",
                "--ranks",
                "5..8"
            ]),
            key(&[
                "--machine",
                "icx-8360y",
                "--ranks",
                "5..8",
                "--ranks",
                "1..4"
            ]),
        );
    }

    #[test]
    fn tenancy_flags_expand_and_reject_bad_values() {
        let parsed = SweepArgs::parse(&args(&[
            "--machine",
            "icx-8360y",
            "--ranks",
            "1..4",
            "--aggressor",
            "all",
            "--interleave",
            "8",
            "--interleave",
            "64",
        ]))
        .unwrap();
        // 4 aggressors x 2 interleaves on one machine/grid/range/stage.
        assert_eq!(parsed.plan.len(), 4 * 2);
        assert_eq!(parsed.plan.aggressors, Aggressor::all());
        assert_eq!(parsed.plan.interleaves, vec![8, 64]);

        let base = ["--machine", "icx-8360y", "--ranks", "1..4"];
        let err = SweepArgs::parse(&args(&[&base[..], &["--aggressor", "rowhammer"]].concat()))
            .unwrap_err();
        assert!(
            err.contains("--aggressor") && err.contains("rowhammer"),
            "error must name the flag and the value, got: {err}"
        );
        let err = SweepArgs::parse(&args(
            &[
                &base[..],
                &["--aggressor", "thrash", "--aggressor", "thrash"],
            ]
            .concat(),
        ))
        .unwrap_err();
        assert!(err.contains("duplicate kernel 'thrash'"), "got: {err}");
        let err =
            SweepArgs::parse(&args(&[&base[..], &["--interleave", "0"]].concat())).unwrap_err();
        assert!(
            err.contains("--interleave") && err.contains("'0'"),
            "got: {err}"
        );
        let err = SweepArgs::parse(&args(
            &[&base[..], &["--interleave", "8", "--interleave", "8"]].concat(),
        ))
        .unwrap_err();
        assert!(err.contains("duplicate granularity 8"), "got: {err}");
    }
}
