//! `clover-bench` — the figure/table regeneration harness.
//!
//! Every table and figure of the paper's evaluation has a generator here
//! that produces a typed [`Artifact`] (named, unit-annotated columns); the
//! CSV text the `figures` binary prints and its `--json` dump are renderings
//! of that structure.  `figures --check` diffs each artifact against the
//! digitised paper data in `clover-golden`.  The [`interference`] module
//! adds the canned multi-tenant artifacts behind `figures interfere` —
//! shared-LLC co-run studies the paper has no golden data for, kept
//! outside [`EXPERIMENTS`].  Performance is measured by the standalone
//! package under `benchmark/` (see `benchmark/README.md`).

pub mod interference;

pub use interference::{run_interference_artifact, INTERFERENCE_EXPERIMENTS};

use clover_cachesim::SimMemo;
use clover_core::decomp::Decomposition;
use clover_core::TINY_GRID;
use clover_core::{
    hotspot_profile, CommModel, OptimizationPlan, ScalingModel, TrafficModel, TrafficOptions,
};
use clover_golden::{check_artifact, golden, markdown_delta_table, Artifact, Cell, DiffReport};
use clover_machine::{icelake_sp_8360y, sapphire_rapids_8470, sapphire_rapids_8480, Machine};
use clover_scenario::runner::{host_parallelism, par_map};
use clover_stencil::{loop_catalogue, CodeBalance, PAPER_MEASURED_SINGLE_CORE};
use clover_ubench::{
    copy_halo_ratio_memo, copy_volume_per_iteration_memo, store_ratio_memo, StoreKind,
};

/// All experiment identifiers the harness knows about.
pub const EXPERIMENTS: [&str; 12] = [
    "listing2", "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11",
];

/// Generate the typed artifact of one experiment.  Unknown names return
/// `None`.
pub fn run_artifact(name: &str) -> Option<Artifact> {
    match name {
        "listing2" => Some(listing2()),
        "table1" => Some(table1()),
        "fig2" => Some(fig2()),
        "fig3" => Some(fig3()),
        "fig4" => Some(fig4()),
        "fig5" => Some(fig5()),
        "fig6" => Some(fig6()),
        "fig7" => Some(fig7()),
        "fig8" => Some(fig8()),
        "fig9" => Some(fig9()),
        "fig10" => Some(fig10()),
        "fig11" => Some(fig11()),
        _ => None,
    }
}

/// Generate the CSV rendering of one experiment (the historical interface).
pub fn run_experiment(name: &str) -> Option<String> {
    run_artifact(name).map(|a| a.to_csv())
}

/// Diff one experiment against the digitised paper data.  `None` for
/// unknown names.
pub fn check_experiment(name: &str) -> Option<DiffReport> {
    let artifact = run_artifact(name)?;
    let golden = golden(name)?;
    Some(check_artifact(&artifact, golden))
}

/// Generate the paper-vs-reproduction delta table for `EXPERIMENTS.md` by
/// running and checking all 12 experiments.
pub fn delta_table() -> String {
    let entries: Vec<_> = EXPERIMENTS
        .iter()
        .map(|name| {
            let golden = golden(name).expect("every experiment has golden data");
            let artifact = run_artifact(name).expect("every experiment runs");
            (check_artifact(&artifact, golden), golden)
        })
        .collect();
    markdown_delta_table(&entries)
}

fn icx() -> Machine {
    icelake_sp_8360y()
}

/// Listing 2: the hotspot runtime profile at 72 ranks.
pub fn listing2() -> Artifact {
    let mut a = Artifact::new("listing2", "hotspot runtime profile at 72 ranks")
        .column("function", None)
        .num_column("share_percent", Some("%"), 2);
    for e in hotspot_profile(&icx(), 72) {
        a.push_row(vec![e.name.into(), (e.share * 100.0).into()]);
    }
    a
}

/// Table I: per-loop model inputs, code-balance bounds and the predicted
/// single-core balance, next to the paper's measured value.
pub fn table1() -> Artifact {
    let machine = icx();
    let model = TrafficModel::new(machine);
    let decomp = Decomposition::new(1, TINY_GRID, TINY_GRID);
    let opts = TrafficOptions::original(1);
    let mut a = Artifact::new(
        "table1",
        "per-loop model inputs, code-balance bounds and single-core balances",
    )
    .column("loop", None)
    .column("arrays", None)
    .column("rd_lcf", None)
    .column("rd_lcb", None)
    .column("wr", None)
    .column("rd_and_wr", None)
    .column("flops", Some("flop/it"))
    .column("min", Some("byte/it"))
    .column("lcf_wa", Some("byte/it"))
    .column("lcb", Some("byte/it"))
    .column("max", Some("byte/it"))
    .num_column("predicted_1core", Some("byte/it"), 2)
    .num_column("paper_measured_1core", Some("byte/it"), 2);
    for spec in loop_catalogue() {
        let b = CodeBalance::from_spec(spec);
        let t = model.predict_loop(spec, &opts, &decomp);
        let paper = PAPER_MEASURED_SINGLE_CORE
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        a.push_row(vec![
            spec.name.clone().into(),
            spec.array_count().into(),
            spec.rd_lcf().into(),
            spec.rd_lcb().into(),
            spec.wr().into(),
            spec.rd_and_wr().into(),
            spec.flops.into(),
            (b.min as i64).into(),
            (b.lcf_wa as i64).into(),
            (b.lcb as i64).into(),
            (b.max as i64).into(),
            t.code_balance().into(),
            paper.into(),
        ]);
    }
    a
}

/// Fig. 2: speedup and memory bandwidth versus rank count.
pub fn fig2() -> Artifact {
    let model = ScalingModel::new(icx());
    let mut a = Artifact::new("fig2", "speedup and memory bandwidth vs. rank count")
        .column("ranks", None)
        .column("prime", None)
        .column("local_inner", Some("cells"))
        .num_column("speedup", None, 3)
        .num_column("bandwidth_gbs", Some("GB/s"), 1);
    for p in model.sweep(72, TrafficOptions::original) {
        a.push_row(vec![
            p.ranks.into(),
            (p.prime as i64).into(),
            p.local_inner.into(),
            p.speedup.into(),
            (p.memory_bandwidth / 1e9).into(),
        ]);
    }
    a
}

/// Fig. 3: per-loop code balance versus rank count.
pub fn fig3() -> Artifact {
    let model = ScalingModel::new(icx());
    let mut a = Artifact::new("fig3", "per-loop code balance vs. rank count").column("ranks", None);
    for l in loop_catalogue() {
        a = a.num_column(&l.name, Some("byte/it"), 2);
    }
    for p in model.sweep(72, TrafficOptions::original) {
        let mut row: Vec<Cell> = vec![p.ranks.into()];
        row.extend(p.loop_balances.iter().map(|&b| Cell::Num(b)));
        a.push_row(row);
    }
    a
}

/// Fig. 4: relative MPI time breakdown for the paper's rank counts.
pub fn fig4() -> Artifact {
    let model = CommModel::new(icx());
    let mut a = Artifact::new("fig4", "relative MPI time breakdown")
        .column("ranks", None)
        .num_column("serial", None, 4)
        .num_column("waitall", None, 4)
        .num_column("allreduce", None, 4)
        .num_column("isend", None, 4)
        .num_column("reduce", None, 4)
        .num_column("barrier", None, 4);
    for s in model.figure4_points() {
        a.push_row(vec![
            s.ranks.into(),
            s.serial.into(),
            s.waitall.into(),
            s.allreduce.into(),
            s.isend.into(),
            s.reduce.into(),
            s.barrier.into(),
        ]);
    }
    a
}

/// One store-ratio row: normal stores with 1–3 streams, then NT stores.
/// Every point goes through `memo`, so neighbouring core counts share their
/// representative-core simulations (bit-identical to the unmemoized path).
fn store_ratio_cells(machine: &Machine, cores: usize, memo: &SimMemo) -> Vec<Cell> {
    (1..=3)
        .map(|s| store_ratio_memo(machine, cores, s, StoreKind::Normal, memo))
        .chain((1..=3).map(|s| store_ratio_memo(machine, cores, s, StoreKind::NonTemporal, memo)))
        .map(Cell::Num)
        .collect()
}

fn store_ratio_columns(a: Artifact) -> Artifact {
    a.num_column("st1", None, 3)
        .num_column("st2", None, 3)
        .num_column("st3", None, 3)
        .num_column("stnt1", None, 3)
        .num_column("stnt2", None, 3)
        .num_column("stnt3", None, 3)
}

/// Append the store-ratio rows of `machine` to a figure: one row per core
/// count in steps of `step` (`snc` label if any, core count, six ratios).
fn store_ratio_figure(
    a: &mut Artifact,
    machine: &Machine,
    cores: std::ops::RangeInclusive<usize>,
    step: usize,
    extra: Option<&str>,
    memo: &SimMemo,
) {
    for c in cores.step_by(step) {
        let mut row: Vec<Cell> = Vec::new();
        if let Some(label) = extra {
            row.push(label.into());
        }
        row.push(c.into());
        row.extend(store_ratio_cells(machine, c, memo));
        a.push_row(row);
    }
}

/// Fig. 5: store ratios on Ice Lake SP.
pub fn fig5() -> Artifact {
    let machine = icx();
    let memo = SimMemo::new();
    let mut a = store_ratio_columns(
        Artifact::new("fig5", "store ratios on Ice Lake SP").column("cores", None),
    );
    store_ratio_figure(&mut a, &machine, 1..=machine.total_cores(), 3, None, &memo);
    a
}

/// Fig. 6: copy-kernel data volume per iteration versus thread count.
pub fn fig6() -> Artifact {
    let machine = icx();
    let mut a = Artifact::new(
        "fig6",
        "copy-kernel data volume per iteration vs. thread count",
    )
    .column("threads", None)
    .num_column("read_bytes_per_it", Some("byte/it"), 2)
    .num_column("write_bytes_per_it", Some("byte/it"), 2)
    .num_column("itom_bytes_per_it", Some("byte/it"), 2);
    let memo = SimMemo::new();
    for threads in 1..=36 {
        let p = copy_volume_per_iteration_memo(&machine, threads, &memo);
        a.push_row(vec![
            p.threads.into(),
            p.read_bytes_per_it.into(),
            p.write_bytes_per_it.into(),
            p.itom_bytes_per_it.into(),
        ]);
    }
    a
}

/// Fig. 7: predicted vs. full-node code balance for the original and the
/// optimized code.
pub fn fig7() -> Artifact {
    let machine = icx();
    let model = TrafficModel::new(machine.clone());
    let decomp = Decomposition::new(72, TINY_GRID, TINY_GRID);
    let plan = OptimizationPlan::build(&machine, 72);
    let mut a = Artifact::new(
        "fig7",
        "predicted vs. full-node code balance, original vs. optimized code",
    )
    .column("loop", None)
    .column("prediction_min", Some("byte/it"))
    .num_column("prediction", Some("byte/it"), 2)
    .num_column("original", Some("byte/it"), 2)
    .num_column("optimized", Some("byte/it"), 2);
    for (spec, advice) in loop_catalogue().iter().zip(&plan.loops) {
        let bounds = CodeBalance::from_spec(spec);
        let refined = model
            .predict_loop(spec, &TrafficOptions::original(72), &decomp)
            .code_balance();
        a.push_row(vec![
            spec.name.clone().into(),
            (bounds.min as i64).into(),
            refined.into(),
            advice.original_balance.into(),
            advice.optimized_balance.into(),
        ]);
    }
    a.push_note(format!(
        "average improvement {:.1}%, max {:.1}%",
        plan.average_improvement() * 100.0,
        plan.max_improvement() * 100.0
    ));
    a
}

/// The points `(halo, inner, prefetchers)` of a copy-halo figure in row
/// order: per halo 0–17 the three inner dimensions with the prefetchers
/// on, then (fig. 8) the same three with them off.
pub fn copy_halo_points(with_pf_off: bool) -> Vec<(usize, usize, bool)> {
    let settings: &[bool] = if with_pf_off { &[true, false] } else { &[true] };
    let mut points = Vec::new();
    for halo in 0..=17 {
        for &prefetchers in settings {
            points.extend([216, 530, 1920].map(|inner| (halo, inner, prefetchers)));
        }
    }
    points
}

/// The rows of a copy-halo figure, its points simulated by `jobs` workers.
/// Every (inner, halo, prefetcher) point is its own cache-dynamics class
/// (`tests/sim_work.rs` holds the figures to that: as many from-scratch
/// simulations as points), so no point can replay another's trace: the
/// points are independent jobs, and the memo records no traces.
fn copy_halo_rows(machine: &Machine, with_pf_off: bool, jobs: usize) -> Vec<Vec<Cell>> {
    let points = copy_halo_points(with_pf_off);
    let memo = SimMemo::without_differential();
    let mut ratios = par_map(points.len(), jobs, |i| {
        let (halo, inner, prefetchers) = points[i];
        copy_halo_ratio_memo(machine, inner, halo, prefetchers, &memo).ratio
    })
    .into_iter();
    points
        .chunk_by(|a, b| a.0 == b.0)
        .map(|of_halo| {
            let mut row: Vec<Cell> = vec![of_halo[0].0.into()];
            row.extend(ratios.by_ref().take(of_halo.len()).map(Cell::Num));
            row
        })
        .collect()
}

fn copy_halo_figure(a: &mut Artifact, machine: &Machine, with_pf_off: bool) {
    for row in copy_halo_rows(machine, with_pf_off, host_parallelism()) {
        a.push_row(row);
    }
}

fn copy_halo_columns(a: Artifact, with_pf_off: bool) -> Artifact {
    let mut a = a
        .column("halo", Some("cells"))
        .num_column("inner216", None, 3)
        .num_column("inner530", None, 3)
        .num_column("inner1920", None, 3);
    if with_pf_off {
        a = a
            .num_column("inner216_pfoff", None, 3)
            .num_column("inner530_pfoff", None, 3)
            .num_column("inner1920_pfoff", None, 3);
    }
    a
}

/// Fig. 8: copy read-to-write ratio versus halo size on Ice Lake SP,
/// prefetchers on and off.
pub fn fig8() -> Artifact {
    let mut a = copy_halo_columns(
        Artifact::new(
            "fig8",
            "copy read/write ratio vs. halo size on ICX, PF on/off",
        ),
        true,
    );
    copy_halo_figure(&mut a, &icx(), true);
    a
}

/// Fig. 9: store ratios on the SPR 8470 with SNC on and off.
pub fn fig9() -> Artifact {
    let mut a = store_ratio_columns(
        Artifact::new("fig9", "store ratios on SPR 8470, SNC on vs. off")
            .column("snc", None)
            .column("cores", None),
    );
    let on = sapphire_rapids_8470(true);
    let off = sapphire_rapids_8470(false);
    let memo = SimMemo::new();
    store_ratio_figure(&mut a, &on, 1..=on.total_cores(), 8, Some("on"), &memo);
    store_ratio_figure(&mut a, &off, 1..=off.total_cores(), 8, Some("off"), &memo);
    a
}

/// Fig. 10: store ratios on the SPR 8480+.
pub fn fig10() -> Artifact {
    let machine = sapphire_rapids_8480();
    let mut a = store_ratio_columns(
        Artifact::new("fig10", "store ratios on SPR 8480+").column("cores", None),
    );
    let memo = SimMemo::new();
    store_ratio_figure(&mut a, &machine, 1..=machine.total_cores(), 8, None, &memo);
    a
}

/// Fig. 11: copy read-to-write ratio versus halo size on the SPR 8480+.
pub fn fig11() -> Artifact {
    let mut a = copy_halo_columns(
        Artifact::new("fig11", "copy read/write ratio vs. halo size on SPR 8480+"),
        false,
    );
    copy_halo_figure(&mut a, &sapphire_rapids_8480(), false);
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_produce_output() {
        for name in ["listing2", "table1", "fig4", "fig6", "fig7"] {
            let out = run_experiment(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(out.lines().count() > 2, "{name} output too short");
        }
    }

    #[test]
    fn unknown_experiment_returns_none() {
        assert!(run_experiment("fig99").is_none());
        assert!(run_artifact("fig99").is_none());
        assert!(check_experiment("fig99").is_none());
    }

    #[test]
    fn table1_has_22_loop_rows() {
        let a = table1();
        assert_eq!(a.rows.len(), 22);
        let t = a.to_csv();
        assert_eq!(t.lines().count(), 23);
        assert!(t.contains("am04,2,1,2,1,0,4,16,24,24,32"));
    }

    #[test]
    fn listing2_totals_to_100_percent() {
        let a = listing2();
        let idx = a.column_index("share_percent").unwrap();
        let total: f64 = a.rows.iter().map(|r| r[idx].as_f64().unwrap()).sum();
        assert!((total - 100.0).abs() < 0.5, "total {total}");
    }

    #[test]
    fn fig7_reports_improvement_summary() {
        let a = fig7();
        assert_eq!(a.rows.len(), 22);
        let f = a.to_csv();
        assert!(f.contains("average improvement"));
        assert_eq!(
            f.lines()
                .filter(|l| !l.starts_with('#') && !l.starts_with("loop"))
                .count(),
            22
        );
    }

    #[test]
    fn artifacts_carry_units() {
        let a = table1();
        let col = &a.columns[a.column_index("predicted_1core").unwrap()];
        assert_eq!(col.unit.as_deref(), Some("byte/it"));
    }

    #[test]
    fn cheap_experiments_pass_their_golden_check() {
        for name in ["listing2", "table1", "fig4", "fig7"] {
            let report = check_experiment(name).unwrap();
            assert!(report.passed(), "{name}:\n{}", report.render_text(false));
        }
    }

    #[test]
    fn perturbed_artifact_fails_its_golden_check() {
        let mut a = table1();
        a.perturb(1.10);
        let report = check_artifact(&a, golden("table1").unwrap());
        assert!(!report.passed(), "a 10% model error must be caught");
    }

    #[test]
    fn halo_points_are_listed_in_row_order() {
        let fig11 = copy_halo_points(false);
        assert_eq!(fig11.len(), 54);
        assert_eq!(
            fig11[..4],
            [
                (0, 216, true),
                (0, 530, true),
                (0, 1920, true),
                (1, 216, true)
            ]
        );
        let fig8 = copy_halo_points(true);
        assert_eq!(fig8.len(), 108);
        assert_eq!(
            fig8[2..5],
            [(0, 1920, true), (0, 216, false), (0, 530, false)]
        );
        assert_eq!(fig8[107], (17, 1920, false));
    }

    #[test]
    fn halo_rows_are_the_same_bits_at_any_width() {
        // A cheap machine: the figures' own bytes are pinned by
        // `benchmark/expected/digests.txt`, which `paper_all` checks before
        // it times anything, on whatever width the host has.
        let machine = clover_machine::cva6_like();
        let bits = |rows: Vec<Vec<Cell>>| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| {
                    row.iter()
                        .map(|cell| cell.as_f64().expect("a numeric cell").to_bits())
                        .collect()
                })
                .collect()
        };
        let sequential = bits(copy_halo_rows(&machine, true, 1));
        assert_eq!(sequential.len(), 18);
        assert!(sequential.iter().all(|row| row.len() == 7));
        for jobs in [2, 5] {
            assert_eq!(
                bits(copy_halo_rows(&machine, true, jobs)),
                sequential,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn json_rendering_roundtrips_shape() {
        let a = fig4();
        let json = a.to_json();
        assert!(json.contains("\"id\":\"fig4\""));
        assert!(json.contains("\"name\":\"waitall\""));
    }
}
