//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions from outside, inside a span, and reads the layer's
//! public counters at the same boundary.  A metric is named after the
//! crate it measures; which workload takes which probe is decided in
//! `workloads.rs` by which layers the workload reaches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use clover_cachesim::hierarchy::{CoreSimOptions, OccupancyContext};
use clover_cachesim::patterns::{StencilOperand, StencilRowSweep};
use clover_cachesim::{
    AccessKind, AccessRun, CoreSim, MemCounters, NodeSim, SetAssocCache, SimConfig, SimMemo,
    TrueLru,
};
use clover_core::{ScalingEngine, SweepMemo, TINY_GRID};
use clover_golden::Artifact;
use clover_machine::{icelake_sp_8360y, sapphire_rapids_8470, MachinePreset};
use clover_scenario::interference::{aggressor_kernel, victim_kernel};
use clover_scenario::{
    interference_factor, render_block, run_plan_memo, Aggressor, SweepArgs, SweepPlan,
    DEFAULT_INTERLEAVE,
};
use clover_service::{PersistentStore, SweepService};
use clover_stencil::{cloverleaf_loops, CodeBalance};
use clover_ubench::{
    copy_halo_ratio_memo, copy_volume_per_iteration_memo, store_kernel_spec, store_ratio_memo,
    StoreKind,
};

use crate::requests::{hot_line, icx_plan_flags, words, HOT_SET};
use crate::stats::{median, quiet};
use crate::sys::run_to_end;
use crate::trace::Tracer;
use crate::workloads::Env;

/// Per-layer readings by metric name.  A metric of `BENCHMARK.json` that a
/// workload's traced run does not set reads 0: the workload does not reach
/// that layer.
pub type Layers = BTreeMap<&'static str, f64>;

/// Quiet-host duration (ns, see `stats::quiet`) of `reps` calls of `f`
/// after one warm-up call, each recorded as a span.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    detail: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    black_box(f());
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(tr.span(name, detail, |_| f()));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    quiet(&ns, false)
}

// ------------------------------------------------- machine, stencil, core

pub fn machine_presets(tr: &mut Tracer, out: &mut Layers) {
    let ns = timed(tr, "machine.preset_build", "", 200, || {
        MachinePreset::all()
            .iter()
            .map(MachinePreset::machine)
            .collect::<Vec<_>>()
    });
    out.insert("machine.preset_build_us", ns / 1e3);
}

pub fn stencil_catalogue(tr: &mut Tracer, out: &mut Layers) {
    let ns = timed(tr, "stencil.catalogue_build", "", 200, || {
        let specs = cloverleaf_loops();
        let bounds: Vec<CodeBalance> = specs.iter().map(CodeBalance::from_spec).collect();
        (specs, bounds)
    });
    out.insert("stencil.catalogue_build_us", ns / 1e3);
}

pub fn engine_new(tr: &mut Tracer, out: &mut Layers) {
    let machine = icelake_sp_8360y();
    let ns = timed(tr, "core.engine_new", "", 200, || {
        ScalingEngine::new(machine.clone(), TINY_GRID)
    });
    out.insert("core.engine_new_us", ns / 1e3);
}

/// Every `(engine index, ranks, options)` of `plan`, with the engines.
fn engines_and_points(
    plan: &SweepPlan,
) -> (
    Vec<ScalingEngine>,
    Vec<(usize, usize, clover_core::TrafficOptions)>,
) {
    let mut engines: Vec<(MachinePreset, usize, ScalingEngine)> = Vec::new();
    let mut points = Vec::new();
    for s in plan.expand() {
        let idx = engines
            .iter()
            .position(|(m, g, _)| *m == s.machine && *g == s.grid)
            .unwrap_or_else(|| {
                engines.push((
                    s.machine,
                    s.grid,
                    ScalingEngine::new(s.machine.machine(), s.grid),
                ));
                engines.len() - 1
            });
        points.extend(s.ranks.iter().map(|r| (idx, r, s.options(r))));
    }
    (engines.into_iter().map(|(_, _, e)| e).collect(), points)
}

/// `ScalingEngine::point` over every point of `plan`, no memo.
pub fn point_cold(tr: &mut Tracer, out: &mut Layers, plan: &SweepPlan) {
    let (engines, points) = engines_and_points(plan);
    let ns = timed(tr, "core.point", "plan", 3, || {
        for (e, ranks, opts) in &points {
            black_box(engines[*e].point(*ranks, opts));
        }
    });
    out.insert("core.point_cold_ns", ns / points.len() as f64);
}

/// `point_memo` over every point of `plan`, all present in `memo`.
pub fn point_memo_hit(tr: &mut Tracer, out: &mut Layers, plan: &SweepPlan, memo: &SweepMemo) {
    let (engines, points) = engines_and_points(plan);
    let (_, misses) = memo.stats();
    let ns = timed(tr, "core.point_memo", "hit", 5, || {
        for (e, ranks, opts) in &points {
            black_box(engines[*e].point_memo(*ranks, opts, memo));
        }
    });
    assert_eq!(memo.stats().1, misses, "the probe must only hit");
    out.insert("core.point_memo_hit_ns", ns / points.len() as f64);
}

pub fn sweep_memo_stats(memo: &SweepMemo, out: &mut Layers) {
    let (hits, misses) = memo.stats();
    out.insert(
        "core.sweepmemo_hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    out.insert("core.sweepmemo_entries", memo.len() as f64);
    out.insert("core.points_evaluated", misses as f64);
}

// ----------------------------------------------------------------- cachesim

/// Full-set miss scans at the ICX L2 associativity (20 ways, 128 sets, so
/// the tag lane stays L1-resident): every probed line aliases a full set
/// and is not resident.
pub fn cache_probe(tr: &mut Tracer, out: &mut Layers) {
    let lines: u64 = (160 << 10) / 64;
    let mut cache = SetAssocCache::<TrueLru, true>::new(160 << 10, 20);
    for line in 0..lines {
        cache.probe_fill(line, false);
    }
    let probes: Vec<u64> = (0..1u64 << 20).map(|t| lines + t % lines).collect();
    let ns = timed(tr, "cachesim.resident_count", "miss-scan", 7, || {
        assert_eq!(cache.resident_count(&probes), 0);
    });
    out.insert("cachesim.probe_ns_per_line", ns / probes.len() as f64);
}

/// Elements each `drive_*` probe simulates.
const DRIVE_ELEMENTS: u64 = 256 << 10;

/// What the three `drive_*` probes simulated, and how fast.
pub struct DriveProbes {
    counters: MemCounters,
    /// `(hits, misses)` of L1, L2, L3, summed over the probes.
    levels: [(u64, u64); 3],
    /// Simulated elements per host second: store, load, stencil.
    rates: [f64; 3],
}

impl DriveProbes {
    /// The simulated statistics: they repeat exactly, and `expected/` pins
    /// them, so a simulator speed-up that changes one is caught.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let ratio = |(hits, misses): (u64, u64)| hits as f64 / ((hits + misses) as f64).max(1.0);
        vec![
            ("cachesim.sim_read_lines", self.counters.read_lines),
            ("cachesim.sim_write_lines", self.counters.write_lines),
            ("cachesim.sim_itom_lines", self.counters.itom_lines),
            (
                "cachesim.sim_write_allocate_lines",
                self.counters.write_allocate_lines,
            ),
            ("cachesim.l1_hit_ratio", ratio(self.levels[0])),
            ("cachesim.l2_hit_ratio", ratio(self.levels[1])),
            ("cachesim.l3_hit_ratio", ratio(self.levels[2])),
        ]
    }

    pub fn report(&self, out: &mut Layers) {
        for (name, value) in self.counts() {
            out.insert(name, value);
        }
        out.insert("cachesim.drive_store_elems_per_s", self.rates[0]);
        out.insert("cachesim.drive_load_elems_per_s", self.rates[1]);
        out.insert("cachesim.drive_stencil_elems_per_s", self.rates[2]);
    }
}

/// `CoreSim::drive_run` over a contiguous store and a contiguous load
/// sweep, and `StencilRowSweep::drive` over an am04-shaped hotspot loop (a
/// 5-point read stencil, a streamed read pair, a written array), each on a
/// serial ICX core.
pub fn drive(tr: &mut Tracer) -> DriveProbes {
    let machine = icelake_sp_8360y();
    let mut core: CoreSim = CoreSim::new(
        &machine,
        OccupancyContext::serial(&machine),
        CoreSimOptions::default(),
    );
    let stencil = StencilRowSweep {
        operands: vec![
            StencilOperand {
                base: 1 << 30,
                offsets: vec![(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
                kind: AccessKind::Load,
            },
            StencilOperand {
                base: 1 << 33,
                offsets: vec![(0, 0), (1, 0)],
                kind: AccessKind::Load,
            },
            StencilOperand {
                base: 1 << 34,
                offsets: vec![(0, 0)],
                kind: AccessKind::Store,
            },
        ],
        row_stride: 1920 + 4,
        i0: 2,
        inner: 1920,
        k0: 2,
        rows: DRIVE_ELEMENTS / 8 / 1920,
    };
    let mut out = DriveProbes {
        counters: MemCounters::new(),
        levels: [(0, 0); 3],
        rates: [0.0; 3],
    };
    let kinds: [(&'static str, u64); 3] = [
        ("store", DRIVE_ELEMENTS),
        ("load", DRIVE_ELEMENTS),
        ("stencil", stencil.iterations() * 8),
    ];
    for (i, (kind, elements)) in kinds.into_iter().enumerate() {
        let ns = timed(tr, "cachesim.drive", kind, 7, || {
            core.reset(
                OccupancyContext::serial(&machine),
                CoreSimOptions::default(),
            );
            match kind {
                "store" => core.drive_run(AccessRun::store(0, DRIVE_ELEMENTS)),
                "load" => core.drive_run(AccessRun::load(0, DRIVE_ELEMENTS)),
                _ => stencil.drive(&mut core),
            }
            core.flush()
        });
        out.rates[i] = elements as f64 / (ns / 1e9);
        out.counters.merge(&core.counters());
        for (level, (hits, misses)) in out.levels.iter_mut().zip(core.cache_stats()) {
            level.0 += hits;
            level.1 += misses;
        }
    }
    out
}

/// `NodeSim::run_spmd_memo` on fig. 5's store kernel: with an empty memo
/// (18 ranks fill one ccNUMA domain of the ICX; the leader simulates and
/// records its trace), with a second domain as full (the same cache
/// dynamics in another occupancy context: the trace is replayed), and on a
/// key that is present.
pub fn spmd(tr: &mut Tracer, out: &mut Layers) {
    let machine = icelake_sp_8360y();
    let spec = store_kernel_spec(1, StoreKind::Normal);
    let sim = |ranks| NodeSim::new(SimConfig::new(machine.clone(), ranks));
    let (leader, neighbour) = (sim(18), sim(36));
    let (mut cold, mut replay, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let memo = SimMemo::new();
        let time = |tr: &mut Tracer, detail, sim: &NodeSim, into: &mut Vec<f64>| {
            let start = Instant::now();
            black_box(tr.span("cachesim.run_spmd_memo", detail, |_| {
                sim.run_spmd_memo(&spec, &memo)
            }));
            into.push(start.elapsed().as_nanos() as f64);
        };
        time(tr, "cold", &leader, &mut cold);
        let replays = memo.diff_stats().hits;
        time(tr, "replay", &neighbour, &mut replay);
        assert!(
            memo.diff_stats().hits > replays,
            "the neighbouring occupancy context must replay the leader's trace"
        );
        let misses = memo.stats().misses;
        time(tr, "hit", &leader, &mut hit);
        assert_eq!(memo.stats().misses, misses, "a present key must hit");
    }
    out.insert("cachesim.spmd_cold_ms", quiet(&cold, false) / 1e6);
    out.insert("cachesim.spmd_replay_ms", quiet(&replay, false) / 1e6);
    out.insert("cachesim.spmd_hit_ns", quiet(&hit, false));
}

/// Hit ratios of one `SimMemo` over fig. 5's curve (ICX, every third core
/// count) and fig. 9's (SPR 8470 with SNC on, every eighth): one to three
/// normal store streams, then non-temporal ones.
pub fn memo_ratios(out: &mut Layers) {
    let memo = SimMemo::new();
    for (machine, step) in [(icelake_sp_8360y(), 3), (sapphire_rapids_8470(true), 8)] {
        for cores in (1..=machine.total_cores()).step_by(step) {
            for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
                for streams in 1..=3 {
                    black_box(store_ratio_memo(&machine, cores, streams, kind, &memo));
                }
            }
        }
    }
    out.insert("cachesim.simmemo_hit_ratio", memo.stats().hit_rate());
    out.insert("cachesim.diff_replay_ratio", memo.diff_stats().hit_rate());
}

/// `NodeSim::run_corun` of the `tenancy` pair — the quarter-LLC reuse
/// victim beside the thrash aggressor on ICX — with a fresh memo.
pub fn corun(tr: &mut Tracer, out: &mut Layers) {
    let machine = icelake_sp_8360y();
    let victim = victim_kernel(&machine);
    let aggressor = aggressor_kernel(&machine, Aggressor::Thrash).expect("thrash has a kernel");
    let elements: u64 = [&victim, &aggressor]
        .iter()
        .map(|k| {
            k.iterations()
                * k.operands
                    .iter()
                    .map(|o| o.points.len() as u64)
                    .sum::<u64>()
        })
        .sum();
    let sim = NodeSim::new(SimConfig::new(machine, 2));
    let tenants = [victim, aggressor];
    let mut misses = 0;
    let ns = timed(tr, "cachesim.run_corun", "thrash", 3, || {
        let memo = SimMemo::new();
        let report = sim.run_corun(&tenants, DEFAULT_INTERLEAVE, &memo);
        misses = memo.corun_stats().misses;
        report
    });
    out.insert("cachesim.corun_ms", ns / 1e6);
    out.insert("cachesim.corun_elems_per_s", elements as f64 / (ns / 1e9));
    out.insert("cachesim.corun_memo_misses", misses as f64);
}

// ------------------------------------------------------------------- ubench

/// One cold point of each microbenchmark the figures are made of, each
/// through a fresh memo.
pub fn ubench(tr: &mut Tracer, out: &mut Layers) {
    let machine = icelake_sp_8360y();
    let ns = timed(tr, "ubench.store_ratio_memo", "36-cores", 5, || {
        store_ratio_memo(&machine, 36, 1, StoreKind::Normal, &SimMemo::new())
    });
    out.insert("ubench.store_ratio_point_ms", ns / 1e6);
    let ns = timed(tr, "ubench.copy_halo_ratio_memo", "inner-1920", 5, || {
        copy_halo_ratio_memo(&machine, 1920, 5, true, &SimMemo::new())
    });
    out.insert("ubench.copy_halo_point_ms", ns / 1e6);
    let ns = timed(tr, "ubench.copy_volume_memo", "18-threads", 5, || {
        copy_volume_per_iteration_memo(&machine, 18, &SimMemo::new())
    });
    out.insert("ubench.copy_volume_point_ms", ns / 1e6);
}

// --------------------------------------------------------- golden, scenario

/// `to_csv` / `to_json` over a plan's artifacts, and `render_block` per
/// artifact.
pub fn render(tr: &mut Tracer, out: &mut Layers, artifacts: &[Artifact]) {
    let mut bytes = 0;
    let ns = timed(tr, "golden.to_csv", "plan", 5, || {
        bytes = artifacts.iter().map(|a| a.to_csv().len()).sum::<usize>();
    });
    out.insert("golden.csv_mb_per_s", bytes as f64 / 1e6 / (ns / 1e9));
    let ns = timed(tr, "golden.to_json", "plan", 5, || {
        bytes = artifacts.iter().map(|a| a.to_json().len()).sum::<usize>();
    });
    out.insert("golden.json_mb_per_s", bytes as f64 / 1e6 / (ns / 1e9));
    let ns = timed(tr, "scenario.render_block", "plan", 5, || {
        artifacts
            .iter()
            .map(|a| render_block(a).len())
            .sum::<usize>()
    });
    out.insert("scenario.render_us", ns / 1e3 / artifacts.len() as f64);
}

/// What a request pays before any point is looked up: parsing the line,
/// the canonical key, the plan expansion — per call, over the hot set.
pub fn scenario_front(tr: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let lines: Vec<Vec<String>> = (0..HOT_SET)
        .map(|i| {
            words(
                hot_line(i, 0)
                    .strip_prefix("sweep ")
                    .expect("hot lines are sweeps"),
            )
        })
        .collect();
    let parsed: Vec<SweepArgs> = lines
        .iter()
        .map(|l| SweepArgs::parse(l))
        .collect::<Result<_, _>>()?;
    let per_call = |ns: f64| ns / 1e3 / HOT_SET as f64;
    let ns = timed(tr, "scenario.parse", "hot-set", 50, || {
        lines.iter().filter(|l| SweepArgs::parse(l).is_ok()).count()
    });
    out.insert("scenario.parse_us", per_call(ns));
    let ns = timed(tr, "scenario.cache_key", "hot-set", 50, || {
        parsed.iter().map(|p| p.cache_key().len()).sum::<usize>()
    });
    out.insert("scenario.cache_key_us", per_call(ns));
    let ns = timed(tr, "scenario.expand", "hot-set", 50, || {
        parsed.iter().map(|p| p.plan.expand().len()).sum::<usize>()
    });
    out.insert("scenario.expand_us", per_call(ns));
    Ok(())
}

/// `run_plan_memo` when `memo` already holds every point of `plan`.
pub fn run_plan_warm(tr: &mut Tracer, out: &mut Layers, plan: &SweepPlan, memo: &SweepMemo) {
    let ns = timed(tr, "scenario.run_plan_memo", "warm", 5, || {
        run_plan_memo(plan, 1, memo)
    });
    out.insert("scenario.run_plan_warm_ms", ns / 1e6);
}

/// One worker against two on `plan`, cold, in the same run.
pub fn jobs2(tr: &mut Tracer, out: &mut Layers, plan: &SweepPlan) {
    let one = timed(tr, "scenario.run_plan", "jobs-1", 3, || {
        run_plan_memo(plan, 1, &SweepMemo::new())
    });
    let two = timed(tr, "scenario.run_plan", "jobs-2", 3, || {
        run_plan_memo(plan, 2, &SweepMemo::new())
    });
    out.insert("scenario.jobs2_speedup", one / two);
}

pub fn interference(tr: &mut Tracer, out: &mut Layers) {
    let machine = icelake_sp_8360y();
    let ns = timed(tr, "scenario.interference_factor", "thrash", 3, || {
        interference_factor(
            &machine,
            Aggressor::Thrash,
            DEFAULT_INTERLEAVE,
            &SimMemo::new(),
        )
    });
    out.insert("scenario.interference_factor_ms", ns / 1e6);
}

// ------------------------------------------------------------------ service

/// A hot-set request put to a service that has seen nothing: no response
/// cache entry, no memoized point.
pub fn handle_cold(tr: &mut Tracer, out: &mut Layers) {
    let ns: Vec<f64> = (0..HOT_SET)
        .map(|i| {
            let line = hot_line(i, 0);
            let service = SweepService::new();
            let start = Instant::now();
            black_box(tr.span("service.handle_request", "cold", |_| {
                service.handle_request(&line)
            }));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("service.handle_cold_us", median(&ns) / 1e3);
}

/// `PersistentStore::save`, `warm_load` and `save_capped(1000)` of `memo`
/// at `path`.
pub fn store_codec(
    tr: &mut Tracer,
    out: &mut Layers,
    memo: &SweepMemo,
    path: &Path,
) -> Result<(), String> {
    let store = PersistentStore::new(path);
    let sims = SimMemo::new();
    let failed = |e: std::io::Error| format!("{}: {e}", path.display());
    store.save(&sims, memo).map_err(failed)?;
    let capped = timed(tr, "service.store_save_capped", "", 7, || {
        store.save_capped(&sims, memo, 1000).map(|r| r.written)
    });
    let save = timed(tr, "service.store_save", "", 7, || store.save(&sims, memo));
    let bytes = std::fs::metadata(path).map_err(failed)?.len() as f64;
    let mut entries = 0;
    let load = timed(tr, "service.store_warm_load", "", 7, || {
        entries = store.warm_load(&SimMemo::new(), &SweepMemo::new()).loaded();
    });
    out.insert("service.store_save_ms", save / 1e6);
    out.insert("service.store_load_ms", load / 1e6);
    out.insert("service.store_save_capped_ms", capped / 1e6);
    out.insert("service.store_save_mb_per_s", bytes / 1e6 / (save / 1e9));
    out.insert("service.store_load_mb_per_s", bytes / 1e6 / (load / 1e9));
    out.insert("service.store_bytes", bytes);
    out.insert("service.store_entries", entries as f64);
    Ok(())
}

/// The bytes `figures sweep <Ice Lake plan>` prints without a store — what
/// every run with one must print too — pinned in `expected/`.
pub fn store_cli_payload(env: &Env) -> Result<Vec<u8>, String> {
    let payload = env.figures(&format!("sweep {} --jobs 1", icx_plan_flags()))?;
    env.expected.check_bytes("store_cli.payload", &payload)?;
    Ok(payload)
}

/// The `figures sweep --store` process runs a one-shot user makes against
/// one store path, and the metric each sets.
const STORE_RUNS: [(&str, &str, &str); 3] = [
    ("cold", "", "bench.store_cold_run_ms"),
    ("warm", "", "bench.store_warm_run_ms"),
    ("capped", " --store-cap 1000", "bench.store_capped_run_ms"),
];

/// What CLI users of `--store` pay: `figures sweep <Ice Lake plan, 5 184
/// points> --jobs 1` as a process run with the store file absent (compute
/// and save), present (load, 100 % hits, save), present with
/// `--store-cap 1000` (load and compaction), and with no store at all —
/// the yardstick for whether the store pays.
pub fn store_cli(tr: &mut Tracer, out: &mut Layers, env: &Env) -> Result<(), String> {
    let payload = store_cli_payload(env)?;
    let flags = format!("{} --jobs 1", icx_plan_flags());
    let store = env.scratch.path("cli.store");
    let run = |tr: &mut Tracer, kind: &'static str, extra: &str| -> Result<(), String> {
        let mut command = Command::new(&env.figures);
        command
            .arg("sweep")
            .args(flags.split_whitespace())
            .args(extra.split_whitespace());
        let done = tr.span("bench.figures_sweep", kind, |_| run_to_end(&mut command))?;
        if done.success && done.stdout == payload {
            Ok(())
        } else {
            Err(format!(
                "the {kind} `figures sweep` run printed other bytes than the store-less run"
            ))
        }
    };
    for _ in 0..7 {
        let _ = std::fs::remove_file(&store);
        for (kind, cap, _) in STORE_RUNS {
            run(tr, kind, &format!("--store {}{cap}", store.display()))?;
        }
        run(tr, "no-store", "")?;
    }
    let ms = |kind: &str| quiet(&tr.durations("bench.figures_sweep", kind), false) / 1e6;
    for (kind, _, metric) in STORE_RUNS {
        out.insert(metric, ms(kind));
    }
    out.insert("bench.no_store_run_ms", ms("no-store"));
    out.insert("service.warm_vs_cold_ratio", ms("warm") / ms("no-store"));
    Ok(())
}

/// `figures list`, spawn to exit: what any CLI run pays before it works.
pub fn figures_spawn(tr: &mut Tracer, out: &mut Layers, env: &Env) -> Result<(), String> {
    let mut failed = false;
    let ns = timed(tr, "bench.figures_spawn", "list", 15, || {
        failed |= !run_to_end(Command::new(&env.figures).arg("list")).is_ok_and(|d| d.success);
    });
    if failed {
        return Err("`figures list` failed".into());
    }
    out.insert("bench.figures_spawn_ms", ns / 1e6);
    Ok(())
}
