//! Quickstart: the single-core code balance of six hotspot loops as the
//! analytic model predicts it and as the cache simulator measures it, then
//! the hotspot profile.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cloverleaf_wa::cachesim::{NodeSim, SimConfig, SimMemo};
use cloverleaf_wa::core::decomp::Decomposition;
use cloverleaf_wa::core::TINY_GRID;
use cloverleaf_wa::core::{hotspot_profile, loop_kernel, TrafficModel, TrafficOptions};
use cloverleaf_wa::machine::icelake_sp_8360y;
use cloverleaf_wa::stencil::cloverleaf_loops;

fn main() {
    let machine = icelake_sp_8360y();
    let model = TrafficModel::new(machine.clone());

    // 1. Table I's two sides: the model's prediction and the simulator's
    //    measurement of a 12-row band of 3840-element rows on one core.
    let decomp = Decomposition::new(1, TINY_GRID, TINY_GRID);
    let opts = TrafficOptions::original(1);
    let sim = NodeSim::new(SimConfig::new(machine.clone(), 1));
    let memo = SimMemo::new();
    println!("Single-core code balance on {} (byte/it):", machine.name);
    for spec in cloverleaf_loops().iter().take(6) {
        let t = model.predict_loop(spec, &opts, &decomp);
        let kernel = loop_kernel(spec, 3840, 12);
        let counters = sim.run_spmd_memo(&kernel, &memo).per_rank;
        let simulated = counters.total_bytes() / kernel.iterations() as f64;
        println!(
            "  {:<6} min {:>5.1}  predicted {:>6.2}  simulated {:>6.2}  max {:>6.1}",
            spec.name,
            t.bounds.min,
            t.code_balance(),
            simulated,
            t.bounds.max
        );
    }

    // 2. The hotspot profile of the Tiny working set (Listing 2).
    println!("\nHotspot profile:");
    for entry in hotspot_profile(&machine, 72).iter().take(5) {
        println!("  {:<22} {:5.2} %", entry.name, entry.share * 100.0);
    }
    println!("  ... run `cargo run -p clover-bench --bin figures -- table1` for all 22 loops");
}
