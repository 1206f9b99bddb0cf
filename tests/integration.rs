//! Cross-crate integration tests: the analytic traffic model, the cache
//! simulator's measurement of the same loops, the scaling model and the
//! store microbenchmark must tell a consistent story.

use cloverleaf_wa::cachesim::{NodeSim, SimConfig, SimMemo};
use cloverleaf_wa::core::decomp::{is_prime, Decomposition};
use cloverleaf_wa::core::{loop_kernel, ScalingModel, TrafficModel, TrafficOptions, TINY_GRID};
use cloverleaf_wa::machine::{icelake_sp_8360y, Machine, MachinePreset};
use cloverleaf_wa::stencil::{
    cloverleaf_loops, loop_by_name, CodeBalance, LayerCondition, LoopSpec,
};
use cloverleaf_wa::ubench::{store_ratio, StoreKind};

/// Code balance (byte/it) the simulator measures for `spec` on one core of
/// `machine`, swept over `rows` rows of `local_inner` elements.
fn single_core_balance(machine: &Machine, spec: &LoopSpec, local_inner: u64, rows: u64) -> f64 {
    let kernel = loop_kernel(spec, local_inner, rows);
    let sim = NodeSim::new(SimConfig::new(machine.clone(), 1));
    let counters = sim.run_spmd_memo(&kernel, &SimMemo::new()).per_rank;
    counters.total_bytes() / kernel.iterations() as f64
}

/// The analytic model and the cache-simulator measurement must agree on the
/// single-core code balance of every hotspot loop within ~12 %.
#[test]
fn model_and_simulator_agree_on_single_core_balance() {
    let machine = icelake_sp_8360y();
    let model = TrafficModel::new(machine.clone());
    let decomp = Decomposition::new(1, TINY_GRID, TINY_GRID);
    let opts = TrafficOptions::original(1);
    for spec in cloverleaf_loops() {
        let predicted = model.predict_loop(&spec, &opts, &decomp).code_balance();
        // A shortened inner dimension keeps the simulation cheap; the layer
        // condition is still satisfied, so the balance is representative.
        let measured = single_core_balance(&machine, &spec, 2048, 10);
        let rel = (predicted - measured).abs() / predicted;
        assert!(
            rel < 0.12,
            "{}: model {predicted:.2} vs simulator {measured:.2} byte/it",
            spec.name
        );
    }
}

/// Sec. II-C, Eq. (1): the layer condition of every hotspot loop holds on
/// the Tiny grid at every rank count of every preset, for the widest local
/// row a rank gets — so no rank count, prime or not, breaks it, and the
/// `--layer-condition ok` default every output assumes is the evaluated
/// one.  The tightest case needs 2 rows × 15 360 × 8 B = 245 760 B against
/// the 524 288 B `cva6-nowa` offers.
#[test]
fn layer_condition_holds_at_every_rank_count_of_every_preset() {
    let loops = cloverleaf_loops();
    let names: Vec<&str> = MachinePreset::all().iter().map(|p| p.name()).collect();
    assert_eq!(
        names,
        [
            "icx-8360y",
            "spr-8470-sncon",
            "spr-8470-sncoff",
            "spr-8480plus",
            "cva6-nowa"
        ]
    );
    for preset in MachinePreset::all() {
        let machine = preset.machine();
        let capacity = machine.caches.layer_condition_capacity();
        for ranks in 1..=machine.total_cores() {
            let decomp = Decomposition::new(ranks, TINY_GRID, TINY_GRID);
            let widest = (0..ranks).map(|r| decomp.local_inner(r)).max().unwrap();
            for spec in &loops {
                let lc = LayerCondition::evaluate(spec, widest, capacity);
                assert!(
                    lc.satisfied,
                    "{} on {ranks} ranks of {}: {} B needed, {capacity} B available",
                    spec.name,
                    preset.name(),
                    lc.required_bytes()
                );
            }
        }
    }
}

/// The paper's Table I reports that the single-core measurement matches the
/// LCF+WA bound; the simulator must reproduce that for am04 (Listing 3).
#[test]
fn am04_single_core_measurement_matches_paper_value() {
    let spec = loop_by_name("am04").unwrap();
    let measured = single_core_balance(&icelake_sp_8360y(), &spec, 3840, 12);
    // Paper: 24.05 byte/it.
    assert!((measured - 24.05).abs() < 2.5, "measured {measured}");
}

/// The full scaling sweep must show the prime-number effect: every prime
/// rank count beyond the second ccNUMA domain has a higher average hotspot
/// code balance than its non-prime neighbours.
#[test]
fn prime_rank_counts_spike_in_code_balance() {
    let model = ScalingModel::new(icelake_sp_8360y());
    let points = model.sweep(72, TrafficOptions::original);
    let avg = |ranks: usize| -> f64 {
        let p = &points[ranks - 1];
        p.loop_balances.iter().sum::<f64>() / p.loop_balances.len() as f64
    };
    for prime in [37usize, 41, 43, 47, 53, 59, 61, 67, 71] {
        assert!(is_prime(prime));
        assert!(
            avg(prime) > avg(prime + 1) * 1.02,
            "{prime} ranks: {} vs {} byte/it",
            avg(prime),
            avg(prime + 1)
        );
    }
}

/// Switching SpecI2M off removes the prime spikes (the code balance becomes
/// insensitive to the rank count, modulo the small halo overhead).
#[test]
fn speci2m_off_flattens_the_code_balance() {
    let model = ScalingModel::new(icelake_sp_8360y());
    let points = model.sweep(72, TrafficOptions::speci2m_off);
    let avg = |ranks: usize| -> f64 {
        let p = &points[ranks - 1];
        p.loop_balances.iter().sum::<f64>() / p.loop_balances.len() as f64
    };
    let spread = avg(71) / avg(72);
    assert!(
        spread < 1.05,
        "without SpecI2M the prime effect must shrink, spread {spread}"
    );
    // And the overall level matches the single-core value.
    assert!((avg(72) - avg(1)).abs() / avg(1) < 0.05);
}

/// The store-ratio microbenchmark and the CloverLeaf traffic model must be
/// consistent: the evasion the store benchmark sees at full node (~75-80 %)
/// is what makes the am04 balance drop from 24 to below 20 byte/it.
#[test]
fn store_benchmark_and_loop_model_are_consistent() {
    let machine = icelake_sp_8360y();
    let ratio = store_ratio(&machine, 72, 1, StoreKind::Normal);
    let evasion = 2.0 - ratio;
    let model = TrafficModel::new(machine);
    let decomp = Decomposition::new(72, TINY_GRID, TINY_GRID);
    let spec = loop_by_name("am04").unwrap();
    let t = model.predict_loop(&spec, &TrafficOptions::original(72), &decomp);
    let bounds = CodeBalance::from_spec(&spec);
    let expected = bounds.min + 8.0 * (1.0 - evasion);
    assert!(
        (t.code_balance() - expected).abs() < 3.0,
        "loop model {:.2} vs store-benchmark-derived {:.2}",
        t.code_balance(),
        expected
    );
}

/// The optimized code variant must never be slower than the original in the
/// model, for any rank count.
#[test]
fn optimized_variant_dominates_original_across_the_sweep() {
    let model = ScalingModel::new(icelake_sp_8360y());
    let orig = model.sweep(72, TrafficOptions::original);
    let opt = model.sweep(72, TrafficOptions::optimized);
    for (o, n) in orig.iter().zip(&opt) {
        assert!(
            n.time_per_step <= o.time_per_step * 1.001,
            "ranks={}: optimized {} vs original {}",
            o.ranks,
            n.time_per_step,
            o.time_per_step
        );
    }
}
