//! Command-line axis parsing for sweep plans.
//!
//! The `figures sweep` subcommand and the `figures serve` daemon
//! (`clover-service`) accept the same repeatable axis flags; this module is
//! the single parser both front ends share, so a request line sent to the
//! daemon means exactly what the same words mean on the command line.
//!
//! The grammar: repeatable axis flags (`--machine`, `--grid`, `--ranks`,
//! `--stage`, `--replacement`, `--write-policy`, `--layer-condition`,
//! `--aggressor`, `--interleave`) span a cartesian [`SweepPlan`]; `--grid`
//! defaults to the Tiny grid, `--stage` to `original`, the cache-policy
//! axes to the paper's LRU + write-allocate + fulfilled layer condition,
//! and the tenancy axes to an exclusive node (no aggressor, 64-line
//! interleave).  `--jobs <n>` picks the worker count (default: available
//! parallelism) and `--json` switches the output format.

use clover_machine::{
    preset_names, replacement_names, write_policy_names, ReplacementPolicyKind, WritePolicyKind,
};

use crate::plan::{Aggressor, LayerCondition, RankRange, Stage, SweepPlan};

/// Largest `--grid` side accepted: `2^26` is the largest power of two whose
/// square an `f64` still counts exactly.  The model's cell counts and
/// volumes are `i64`/`f64` products of the side; far enough beyond this
/// they wrap (a local extent of -1, a 6e35 MB volume).
const MAX_GRID: usize = 1 << 26;

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
    /// Parse the arguments after the `sweep` keyword (or of one daemon
    /// request).  Unknown arguments are rejected with the exact flag name;
    /// the returned plan has passed [`SweepPlan::validate`], so every
    /// scenario is evaluable before any worker starts.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut plan = SweepPlan::new();
        let mut jobs: Option<usize> = None;
        let mut json = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--machine" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--machine needs a machine name".to_string())?;
                    let preset = clover_machine::preset_by_name(value).ok_or_else(|| {
                        format!(
                            "unknown machine '{value}'; known machines: {}",
                            preset_names().join(", ")
                        )
                    })?;
                    if plan.machines.contains(&preset) {
                        return Err(format!("duplicate machine '{value}'"));
                    }
                    plan.machines.push(preset);
                }
                "--grid" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--grid needs a cell count".to_string())?;
                    let grid = value
                        .parse()
                        .ok()
                        .filter(|grid| (1..=MAX_GRID).contains(grid))
                        .ok_or_else(|| {
                            format!("--grid: '{value}' is not a cell count in 1..={MAX_GRID}")
                        })?;
                    if plan.grids.contains(&grid) {
                        return Err(format!("duplicate grid size {grid}"));
                    }
                    plan.grids.push(grid);
                }
                "--ranks" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--ranks needs a range (e.g. 1..72)".to_string())?;
                    let range = RankRange::parse(value)
                        .ok_or_else(|| format!("--ranks: '{value}' is not a range like 1..72"))?;
                    if plan.rank_ranges.contains(&range) {
                        return Err(format!("duplicate rank range {range}"));
                    }
                    plan.rank_ranges.push(range);
                }
                "--stage" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--stage needs a stage name or 'all'".to_string())?;
                    let stages = Stage::parse(value).ok_or_else(|| {
                        format!("unknown stage '{value}' (original, speci2m-off, optimized, all)")
                    })?;
                    for stage in stages {
                        if plan.stages.contains(&stage) {
                            return Err(format!("duplicate stage '{stage}'"));
                        }
                        plan.stages.push(stage);
                    }
                }
                "--replacement" => {
                    let value = iter.next().ok_or_else(|| {
                        format!(
                            "--replacement needs a policy name ({}) or 'all'",
                            replacement_names().join(", ")
                        )
                    })?;
                    let kinds = if value == "all" {
                        ReplacementPolicyKind::all()
                    } else {
                        vec![ReplacementPolicyKind::parse(value).ok_or_else(|| {
                            format!(
                                "--replacement: unknown policy '{value}' (known: {}, all)",
                                replacement_names().join(", ")
                            )
                        })?]
                    };
                    for kind in kinds {
                        if plan.replacements.contains(&kind) {
                            return Err(format!("--replacement: duplicate policy '{kind}'"));
                        }
                        plan.replacements.push(kind);
                    }
                }
                "--write-policy" => {
                    let value = iter.next().ok_or_else(|| {
                        format!(
                            "--write-policy needs a policy name ({}) or 'all'",
                            write_policy_names().join(", ")
                        )
                    })?;
                    let kinds = if value == "all" {
                        WritePolicyKind::all()
                    } else {
                        vec![WritePolicyKind::parse(value).ok_or_else(|| {
                            format!(
                                "--write-policy: unknown policy '{value}' (known: {}, all)",
                                write_policy_names().join(", ")
                            )
                        })?]
                    };
                    for kind in kinds {
                        if plan.write_policies.contains(&kind) {
                            return Err(format!("--write-policy: duplicate policy '{kind}'"));
                        }
                        plan.write_policies.push(kind);
                    }
                }
                "--layer-condition" => {
                    let value = iter.next().ok_or_else(|| {
                        "--layer-condition needs 'ok', 'broken' or 'all'".to_string()
                    })?;
                    let conditions = LayerCondition::parse(value).ok_or_else(|| {
                        format!("--layer-condition: unknown condition '{value}' (ok, broken, all)")
                    })?;
                    for condition in conditions {
                        if plan.layer_conditions.contains(&condition) {
                            return Err(format!(
                                "--layer-condition: duplicate condition '{condition}'"
                            ));
                        }
                        plan.layer_conditions.push(condition);
                    }
                }
                "--aggressor" => {
                    let value = iter.next().ok_or_else(|| {
                        "--aggressor needs a kernel name (none, stream, stream-heavy, thrash) or 'all'"
                            .to_string()
                    })?;
                    let aggressors = Aggressor::parse(value).ok_or_else(|| {
                        format!(
                            "--aggressor: unknown kernel '{value}' (none, stream, stream-heavy, thrash, all)"
                        )
                    })?;
                    for aggressor in aggressors {
                        if plan.aggressors.contains(&aggressor) {
                            return Err(format!("--aggressor: duplicate kernel '{aggressor}'"));
                        }
                        plan.aggressors.push(aggressor);
                    }
                }
                "--interleave" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--interleave needs a line count >= 1".to_string())?;
                    let interleave: u64 =
                        value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--interleave: '{value}' is not a line count >= 1")
                        })?;
                    if plan.interleaves.contains(&interleave) {
                        return Err(format!("--interleave: duplicate granularity {interleave}"));
                    }
                    plan.interleaves.push(interleave);
                }
                "--jobs" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--jobs needs a worker count".to_string())?;
                    if jobs.is_some() {
                        return Err("--jobs given twice".to_string());
                    }
                    jobs =
                        Some(value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs: '{value}' is not a worker count >= 1")
                        })?);
                }
                "--json" => {
                    if json {
                        return Err("--json given twice".to_string());
                    }
                    json = true;
                }
                other => {
                    return Err(format!("unexpected argument '{other}'"));
                }
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
        Ok(SweepArgs { plan, jobs, json })
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
