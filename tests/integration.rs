//! Cross-crate integration tests: the analytic traffic model, the cache
//! simulator measurement, the scaling model and the hydro mini-app must tell
//! a consistent story.

use cloverleaf_wa::core::decomp::{is_prime, Decomposition};
use cloverleaf_wa::core::{ScalingModel, TrafficModel, TrafficOptions, TINY_GRID};
use cloverleaf_wa::leaf::{SimConfig, Simulation};
use cloverleaf_wa::machine::icelake_sp_8360y;
use cloverleaf_wa::perfmon::{measure_loop, MeasureConfig};
use cloverleaf_wa::stencil::{cloverleaf_loops, loop_by_name, CodeBalance};
use cloverleaf_wa::ubench::{store_ratio, StoreKind};

/// The analytic model and the cache-simulator measurement must agree on the
/// single-core code balance of every hotspot loop within ~12 %.
#[test]
fn model_and_simulator_agree_on_single_core_balance() {
    let machine = icelake_sp_8360y();
    let model = TrafficModel::new(machine.clone());
    let decomp = Decomposition::new(1, TINY_GRID, TINY_GRID);
    let opts = TrafficOptions::original(1);
    // A shortened inner dimension keeps the simulation cheap; the layer
    // condition is still satisfied, so the balance is representative.
    let cfg = MeasureConfig {
        local_inner: 2048,
        rows: 10,
        ..MeasureConfig::single_rank()
    };
    for spec in cloverleaf_loops() {
        let predicted = model.predict_loop(&spec, &opts, &decomp).code_balance();
        let measured = measure_loop(&machine, &spec, &cfg).bytes_per_iteration();
        let rel = (predicted - measured).abs() / predicted;
        assert!(
            rel < 0.12,
            "{}: model {predicted:.2} vs simulator {measured:.2} byte/it",
            spec.name
        );
    }
}

/// The paper's Table I reports that the single-core measurement matches the
/// LCF+WA bound; the simulator must reproduce that for am04 (Listing 3).
#[test]
fn am04_single_core_measurement_matches_paper_value() {
    let machine = icelake_sp_8360y();
    let spec = loop_by_name("am04").unwrap();
    let cfg = MeasureConfig {
        local_inner: 3840,
        rows: 12,
        ..MeasureConfig::single_rank()
    };
    let measured = measure_loop(&machine, &spec, &cfg).bytes_per_iteration();
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

/// End-to-end: the hydro mini-app runs on a prime rank count with a 1D
/// decomposition and still produces the same physics as the serial run.
#[test]
fn hydro_app_is_decomposition_invariant_even_for_prime_ranks() {
    let config = SimConfig::small(35, 3);
    let serial = Simulation::run_serial(&config);
    let prime = Simulation::run_parallel(&config, 7);
    let rel = (prime.internal_energy - serial.internal_energy).abs() / serial.internal_energy;
    assert!(rel < 1e-6, "prime-rank run diverges by {rel}");
    let d = Decomposition::new(7, 35, 35);
    assert!(d.is_one_dimensional(), "7 ranks must decompose 1D");
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
